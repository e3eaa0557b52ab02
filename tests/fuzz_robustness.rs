//! Robustness fuzzing: none of the parsers/decoders may panic on
//! arbitrary input — they either produce a value or a structured error.
//! (The storage engine is allowed to *reject* garbage, never to crash
//! on it.)

mod common;

use common::TestRng;
use mbxq::XPath;
use mbxq_txn::wal::decode_log;
use mbxq_xml::Document;
use mbxq_xupdate::parse_modifications;

/// Random string over a deliberately hostile alphabet (ASCII
/// punctuation, control bytes, multi-byte unicode).
fn rand_string(rng: &mut TestRng, max_len: usize) -> String {
    const POOL: &[char] = &[
        'a',
        'b',
        'z',
        '0',
        '9',
        ' ',
        '\t',
        '\n',
        '<',
        '>',
        '/',
        '\\',
        '&',
        ';',
        '"',
        '\'',
        '=',
        '[',
        ']',
        '(',
        ')',
        '!',
        '?',
        '-',
        '.',
        ':',
        '@',
        '*',
        '|',
        '#',
        '%',
        '\u{0}',
        '\u{1f}',
        '\u{7f}',
        'é',
        '—',
        '世',
        '\u{1F600}',
    ];
    let len = rng.below(max_len + 1);
    (0..len).map(|_| *rng.pick(POOL)).collect()
}

fn concat_parts(rng: &mut TestRng, parts: &[&str], max_parts: usize) -> String {
    let n = rng.below(max_parts + 1);
    (0..n).map(|_| *rng.pick(parts)).collect()
}

#[test]
fn xml_parser_never_panics() {
    for case in 0..256u64 {
        let input = rand_string(&mut TestRng::new(0xF_0001 + case), 200);
        let _ = Document::parse(&input);
    }
}

#[test]
fn xml_parser_never_panics_on_taglike_soup() {
    const PARTS: &[&str] = &[
        "<a>",
        "</a>",
        "<b x='1'>",
        "</b>",
        "text",
        "<!--",
        "-->",
        "<![CDATA[",
        "]]>",
        "&amp;",
        "&",
        "<?",
        "?>",
        "<!DOCTYPE",
        "\"",
        "'",
        "<",
        ">",
        "/",
        "=",
    ];
    for case in 0..256u64 {
        let input = concat_parts(&mut TestRng::new(0xF_1001 + case), PARTS, 24);
        let _ = Document::parse(&input);
    }
}

#[test]
fn xpath_parser_never_panics() {
    for case in 0..256u64 {
        let input = rand_string(&mut TestRng::new(0xF_2001 + case), 120);
        let _ = XPath::parse(&input);
    }
}

#[test]
fn xpath_parser_never_panics_on_tokeny_soup() {
    const PARTS: &[&str] = &[
        "/", "//", "..", ".", "@", "*", "[", "]", "(", ")", "|", "and", "or", "not", "person",
        "text()", "::", "child", "=", "!=", "<", "1.5", "'lit'", ",", "-", "+",
    ];
    for case in 0..256u64 {
        let input = concat_parts(&mut TestRng::new(0xF_3001 + case), PARTS, 16);
        let _ = XPath::parse(&input);
    }
}

#[test]
fn wal_decoder_never_panics() {
    for case in 0..256u64 {
        let mut rng = TestRng::new(0xF_4001 + case);
        let len = rng.below(300);
        let bytes: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xff) as u8).collect();
        let _ = decode_log(&bytes);
    }
}

#[test]
fn wal_decoder_never_panics_on_recordish_text() {
    const PARTS: &[&str] = &[
        "W ",
        "1 ",
        "2 ",
        "999 ",
        "\n",
        "I ",
        "D ",
        "V ",
        "before ",
        "lastchild ",
        "4:<x/>",
        "0:",
        "99:",
        "\u{1f}",
        "<x/>",
        ":",
        "F ",
        "E ",
        "T ",
        "A ",
        "0 ",
        "1:x ",
        "\u{e9}",
    ];
    for case in 0..256u64 {
        let input = concat_parts(&mut TestRng::new(0xF_5001 + case), PARTS, 20);
        let _ = decode_log(input.as_bytes());
    }
}

#[test]
fn xupdate_parser_never_panics() {
    for case in 0..256u64 {
        let input = rand_string(&mut TestRng::new(0xF_6001 + case), 200);
        let _ = parse_modifications(&input);
    }
}

/// Valid XML that is not XUpdate must yield errors, not panics.
#[test]
fn xupdate_parser_rejects_random_xml() {
    for case in 0..256u64 {
        let tree = common::rand_tree(&mut TestRng::new(0xF_7001 + case), 3, 3);
        let xml = common::to_xml_string(&tree);
        let _ = parse_modifications(&xml);
    }
}

/// Random but *valid* XPath-shaped expressions evaluated against a real
/// document: evaluation must never panic.
#[test]
fn xpath_eval_never_panics_on_valid_parse() {
    const PARTS: &[&str] = &[
        "//a", "/a", "a", "*", "..", ".", "@x", "text()", "[1]", "[last()]", "[@x='1']", "[a]",
    ];
    for case in 0..256u64 {
        let mut rng = TestRng::new(0xF_8001 + case);
        let n = 1 + rng.below(5);
        let expr: String = (0..n).map(|_| *rng.pick(PARTS)).collect();
        let tree = common::rand_tree(&mut rng, 3, 3);
        if let Ok(path) = XPath::parse(&expr) {
            let doc = mbxq::ReadOnlyDoc::from_tree(&tree).unwrap();
            let _ = path.select_from_root(&doc);
        }
    }
}
