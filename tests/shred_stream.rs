//! The streaming shredder and serializer against their tree-based
//! oracles.
//!
//! `PagedDoc::parse_str` stages tuples straight from the parser's event
//! stream; `PagedDoc::from_tree` walks a parsed [`Document`]. Over seeded
//! random documents — attributes, entity references, CDATA, adjacent
//! text, empty elements, comments and processing instructions in the
//! prolog, the epilog and the body — both must give the same checkpoint
//! dump (node ids, levels, content, attribute rows), the same text and a
//! consistent store; the read-only and naive schemas must agree too. On
//! malformed inputs both must give the same accept/reject verdict.
//! `write_subtree` must write, for every node of those documents, what
//! `serialize_node` writes for the node's rebuilt tree.

mod common;

use common::{page_configs, subtree_to_node, TestRng};
use mbxq::{NaiveDoc, PagedDoc, ReadOnlyDoc, TreeView, XmlDocument as Document};
use mbxq_storage::invariants::check_paged;
use mbxq_storage::serialize::{to_xml, write_subtree};
use mbxq_storage::InsertPosition;

const CASES: u64 = 150;

/// Prolog, epilog or body noise: a comment, a processing instruction or
/// whitespace.
fn misc(rng: &mut TestRng, out: &mut String) {
    let noise = [
        "<!--note-->",
        "<!-- a - b -->",
        "<?pi some data?>",
        "<?bare?>",
        " ",
        "\n  ",
    ];
    out.push_str(noise[rng.below(noise.len())]);
}

/// A random element: names with and without prefixes, attributes in both
/// quote styles with references, content runs that the parser merges
/// into one text node (text, references, CDATA side by side), nested
/// elements, and both spellings of an empty element.
fn element(rng: &mut TestRng, depth: u32, out: &mut String) {
    let name = *rng.pick(&["a", "b", "x:c", "item", "d-e", "f.g"]);
    out.push('<');
    out.push_str(name);
    let mut names = vec!["id", "k", "y:z", "n"];
    for _ in 0..rng.below(4) {
        let attr = names.remove(rng.below(names.len()));
        let value = *rng.pick(&["1", "a &amp; b", "&lt;tag&gt;", "&#65;&#x42;", "", "x y"]);
        if rng.chance(1, 2) {
            out.push_str(&format!(" {attr}=\"{value}&quot;\""));
        } else {
            out.push_str(&format!(" {attr}='{value}\"'"));
        }
    }
    if rng.chance(1, 5) {
        out.push_str("/>");
        return;
    }
    out.push('>');
    let fanout = if depth >= 5 { 0 } else { rng.below(6) };
    for _ in 0..fanout {
        match rng.below(8) {
            0 | 1 => {
                let text = ["text", "x &lt; y", "&amp;", "caf\u{e9}", " ", "&#x263A;"];
                out.push_str(text[rng.below(text.len())]);
            }
            2 => {
                let cdata = ["<![CDATA[<raw> & ]]>", "<![CDATA[]]>", "<![CDATA[c]]>"];
                out.push_str(cdata[rng.below(cdata.len())]);
            }
            3 => misc(rng, out),
            _ => element(rng, depth + 1, out),
        }
    }
    out.push_str(&format!("</{name}>"));
}

/// A random document with an optional declaration, prolog and epilog.
fn document(rng: &mut TestRng) -> String {
    let mut out = String::new();
    if rng.chance(1, 3) {
        out.push_str("<?xml version=\"1.0\"?>");
    }
    for _ in 0..rng.below(3) {
        misc(rng, &mut out);
    }
    element(rng, 0, &mut out);
    for _ in 0..rng.below(3) {
        misc(rng, &mut out);
    }
    out
}

/// `write_subtree` equals the rebuilt tree's serialization on every used
/// node of `view`.
fn check_every_subtree<V: TreeView>(view: &V, what: &str) {
    let mut p = 0;
    while let Some(pre) = view.next_used_at_or_after(p) {
        let mut streamed = String::new();
        write_subtree(view, pre, &mut streamed).unwrap();
        let mut oracle = String::new();
        mbxq_xml::serialize_node(&subtree_to_node(view, pre), &mut oracle);
        assert_eq!(streamed, oracle, "{what}: subtree at pre {pre}");
        p = pre + 1;
    }
}

#[test]
fn streaming_shred_equals_the_tree_walk() {
    for seed in 0..CASES {
        let mut rng = TestRng::new(seed);
        let xml = document(&mut rng);
        let tree = Document::parse(&xml).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{xml}"));
        let cfg = *rng.pick(&page_configs());
        let streamed = PagedDoc::parse_str(&xml, cfg).unwrap();
        let walked = PagedDoc::from_tree(&tree.root, cfg).unwrap();
        check_paged(&streamed).unwrap();
        check_paged(&walked).unwrap();
        assert_eq!(
            streamed.checkpoint_dump(),
            walked.checkpoint_dump(),
            "seed {seed}: {xml}"
        );
        assert_eq!(streamed.stats(), walked.stats(), "seed {seed}");
        let text = to_xml(&streamed).unwrap();
        assert_eq!(text, to_xml(&walked).unwrap(), "seed {seed}");
        assert!(
            Document::parse(&text).unwrap().root == tree.root,
            "seed {seed}: the text reparses to the same tree"
        );

        // The read-only and naive shredders are sinks of the same
        // drivers.
        let ro = ReadOnlyDoc::parse_str(&xml).unwrap();
        assert_eq!(to_xml(&ro).unwrap(), text, "seed {seed}: ro");
        assert_eq!(
            to_xml(&ReadOnlyDoc::from_tree(&tree.root).unwrap()).unwrap(),
            text
        );
        assert_eq!(to_xml(&NaiveDoc::parse_str(&xml).unwrap()).unwrap(), text);
        assert_eq!(
            to_xml(&NaiveDoc::from_tree(&tree.root).unwrap()).unwrap(),
            text
        );

        check_every_subtree(&streamed, "paged");
        check_every_subtree(&ro, "ro");
    }
}

/// Serializing a store that inserts and deletes have fragmented (holes,
/// spliced pages, adjacent text tuples) still matches the oracle.
#[test]
fn write_subtree_equals_the_oracle_after_updates() {
    for seed in 0..CASES / 3 {
        let mut rng = TestRng::new(seed ^ 0x5eed);
        let xml = document(&mut rng);
        let mut doc = PagedDoc::parse_str(&xml, *rng.pick(&page_configs())).unwrap();
        for _ in 0..6 {
            let elements: Vec<u64> = (0..doc.pre_end())
                .filter(|&p| doc.kind(p) == Some(mbxq::Kind::Element))
                .collect();
            let target = doc.pre_to_node(*rng.pick(&elements)).unwrap();
            if rng.chance(1, 3) && doc.level(doc.node_to_pre(target).unwrap()) != Some(0) {
                doc.delete(target).unwrap();
            } else {
                let mut frag = String::new();
                element(&mut rng, 3, &mut frag);
                let frag = Document::parse(&frag).unwrap().root;
                doc.insert(InsertPosition::LastChildOf(target), &frag)
                    .unwrap();
            }
        }
        check_paged(&doc).unwrap();
        check_every_subtree(&doc, "updated paged");
    }
}

/// Malformed text: the streaming shredders reject exactly what the tree
/// parser rejects.
#[test]
fn malformed_inputs_get_the_same_verdict() {
    let fixed = [
        "text<r/>",
        "<r/>tail",
        "<r>",
        "<r></s>",
        "<r><a></r></a>",
        "</r>",
        "<r a=\"1\" a=\"2\"/>",
        "<r/><s/>",
        "<!--only-->",
        "",
        "<r>&nope;</r>",
        "<r a=1/>",
        "<r><![CDATA[x</r>",
        "<r><!-- a -- b --></r>",
    ];
    let mut inputs: Vec<String> = fixed.iter().map(|s| s.to_string()).collect();
    for seed in 0..CASES {
        let mut rng = TestRng::new(seed ^ 0xbad);
        let xml = document(&mut rng);
        let bounds: Vec<usize> = (0..=xml.len())
            .filter(|&i| xml.is_char_boundary(i))
            .collect();
        let cut = |rng: &mut TestRng| *rng.pick(&bounds);
        let (a, b) = (cut(&mut rng), cut(&mut rng));
        let (a, b) = (a.min(b), a.max(b));
        inputs.push(match rng.below(4) {
            // Text outside the root.
            0 => format!("{xml}stray"),
            // A span cut out (mostly unbalancing the tags).
            1 => format!("{}{}", &xml[..a], &xml[b..]),
            // A duplicate attribute on the root.
            2 => xml.replacen('>', " dup=\"1\" dup=\"2\">", 1),
            // A close tag dropped.
            _ => match xml.rfind("</") {
                Some(i) => format!("{}{}", &xml[..i], &xml[i..].replacen("</", "<", 1)),
                None => format!("<r>{xml}"),
            },
        });
    }
    let mut rejected = 0;
    for xml in &inputs {
        let verdict = Document::parse(xml).is_ok();
        let cfg = page_configs()[0];
        assert_eq!(PagedDoc::parse_str(xml, cfg).is_ok(), verdict, "{xml:?}");
        assert_eq!(ReadOnlyDoc::parse_str(xml).is_ok(), verdict, "{xml:?}");
        assert_eq!(NaiveDoc::parse_str(xml).is_ok(), verdict, "{xml:?}");
        rejected += usize::from(!verdict);
    }
    assert!(
        rejected >= inputs.len() / 2,
        "most of the inputs are malformed ({rejected} of {})",
        inputs.len()
    );
}
