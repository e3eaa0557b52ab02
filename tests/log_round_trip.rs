//! Whatever a commit logs, recovery stages back tuple for tuple.
//!
//! An insert logs its subtree in the checkpoint's tuple-stream grammar,
//! so the subtrees XML text cannot carry — a text node as a fragment's
//! root, adjacent or empty text nodes, a comment holding `-->`, an
//! instruction holding `?>`, strings holding U+001F — survive a restart
//! with their node ids. Each case commits through a file-backed
//! [`Catalog`], once as an XUpdate script and once through a
//! [`mbxq::WriteTxn`]; the catalog is then reopened and the recovered
//! shard must dump exactly as the live one did (ids included) and pass
//! `check_paged`. A seeded property test then inserts random awkward
//! fragments at random targets and compares recovery with the live
//! document by dump.

mod common;

use common::TestRng;
use mbxq::{
    parse_modifications, AncestorLockMode, Catalog, CatalogConfig, InsertPosition, Node, NodeId,
    PageConfig, PagedDoc, QName, Shard, StoreConfig, TreeView, XPath,
};
use mbxq_storage::invariants::check_paged;
use mbxq_txn::recover::recover;
use mbxq_txn::wal::Wal;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const GENESIS: &str = "<r><a><b/></a><s/><t>old</t></r>";

fn store() -> StoreConfig {
    StoreConfig {
        ancestor_mode: AncestorLockMode::Delta,
        lock_timeout: Duration::from_millis(500),
        validate_on_commit: true,
        ..StoreConfig::default()
    }
}

fn page() -> PageConfig {
    PageConfig::new(8, 75).unwrap()
}

fn config() -> CatalogConfig {
    CatalogConfig {
        store: store(),
        page: page(),
    }
}

/// How a case commits its updates.
#[derive(Clone, Copy, Debug)]
enum Via {
    XUpdate,
    WriteTxn,
}

fn xupdate(shard: &Shard, body: &str) {
    let mods = parse_modifications(&format!(
        "<xupdate:modifications xmlns:xupdate=\"http://www.xmldb.org/xupdate\">{body}\
         </xupdate:modifications>"
    ))
    .unwrap();
    let mut t = shard.begin();
    t.execute_xupdate(&mods).unwrap();
    t.commit().unwrap();
}

fn node(shard: &Shard, path: &str) -> NodeId {
    shard.query_nodes(path).unwrap()[0]
}

/// Creates document `d` from [`GENESIS`] in a fresh file-backed catalog,
/// runs `work` on its shard, reopens the catalog and checks that the
/// recovered shard is the live one: the same dump, node ids included,
/// and a clean invariant check. Returns the reopened catalog and shard.
fn commit_then_reopen(case: &str, via: Via, work: impl FnOnce(&Shard)) -> (Catalog, Arc<Shard>) {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "mbxq-log-round-trip-{}-{case}-{via:?}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let live = {
        let cat = Catalog::open(&dir, config()).unwrap();
        let shard = cat.create_doc("d", GENESIS).unwrap();
        work(&shard);
        shard.snapshot().checkpoint_dump()
    };
    let cat = Catalog::open(&dir, config())
        .unwrap_or_else(|e| panic!("{case} via {via:?}: reopening failed: {e}"));
    let shard = cat.shard("d").unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let recovered = shard.snapshot();
    check_paged(&recovered).unwrap();
    assert_eq!(
        recovered.checkpoint_dump(),
        live,
        "{case} via {via:?}: recovered and live dumps differ"
    );
    (cat, shard)
}

/// `update` of an element's content leaves a text node as the root of
/// an inserted fragment — not an XML document, so the XML-text log
/// could not be reopened.
#[test]
fn a_text_node_inserted_on_its_own_survives() {
    commit_then_reopen("update", Via::XUpdate, |s| {
        xupdate(s, "<xupdate:update select=\"/r/a\">new</xupdate:update>");
    });
    commit_then_reopen("update", Via::WriteTxn, |s| {
        let mut t = s.begin();
        let a = node(s, "/r/a");
        t.insert(InsertPosition::LastChildOf(a), &Node::text("x"))
            .unwrap();
        t.insert(InsertPosition::LastChildOf(a), &Node::text("y"))
            .unwrap();
        t.commit().unwrap();
    });
}

/// Two adjacent text children stay two tuples, and a later op that
/// addresses the second one by id replays (and can be issued again
/// after the restart).
#[test]
fn adjacent_text_nodes_keep_their_ids() {
    for via in [Via::XUpdate, Via::WriteTxn] {
        let (_cat, shard) = commit_then_reopen("adjacent", via, |s| {
            match via {
                Via::XUpdate => xupdate(
                    s,
                    "<xupdate:append select=\"/r\"><k><xupdate:text>one</xupdate:text>\
                     <xupdate:text>two</xupdate:text></k></xupdate:append>",
                ),
                Via::WriteTxn => {
                    let mut t = s.begin();
                    let k = Node::element("k")
                        .with_child(Node::text("one"))
                        .with_child(Node::text("two"));
                    t.insert(InsertPosition::LastChildOf(node(s, "/r")), &k)
                        .unwrap();
                    t.commit().unwrap();
                }
            }
            let texts = s.query_nodes("/r/k/text()").unwrap();
            assert_eq!(texts.len(), 2, "two text tuples");
            let mut t = s.begin();
            t.update_value(texts[1], "2").unwrap();
            t.commit().unwrap();
        });
        let texts = shard.query_nodes("/r/k/text()").unwrap();
        assert_eq!(texts.len(), 2, "{via:?}");
        let mut t = shard.begin();
        t.update_value(texts[1], "3").unwrap();
        t.commit().unwrap();
        let xml = mbxq_storage::serialize::to_xml(shard.snapshot().as_ref()).unwrap();
        assert!(xml.contains("<k>one3</k>"), "{via:?}: {xml}");
    }
}

/// An empty text node is a tuple like any other.
#[test]
fn an_empty_text_node_is_not_lost() {
    commit_then_reopen("empty", Via::XUpdate, |s| {
        xupdate(
            s,
            "<xupdate:append select=\"/r/s\"><k><xupdate:text></xupdate:text></k>\
             </xupdate:append>",
        );
        assert_eq!(s.snapshot().used_count(), 8);
    });
    commit_then_reopen("empty", Via::WriteTxn, |s| {
        let mut t = s.begin();
        let k = Node::element("k").with_child(Node::text(""));
        t.insert(InsertPosition::LastChildOf(node(s, "/r/s")), &k)
            .unwrap();
        t.commit().unwrap();
        assert_eq!(s.snapshot().used_count(), 8);
    });
}

/// A comment holding `-->` and an instruction holding `?>` are one
/// tuple each. XUpdate refuses to construct them (they are not
/// well-formed XML); a tree built in code may hold them, and the log
/// carries them as they are.
#[test]
fn comment_and_instruction_delimiters_in_content_survive() {
    for body in [
        "<xupdate:append select=\"/r/s\"><xupdate:comment>x--&gt;y</xupdate:comment>\
         </xupdate:append>",
        "<xupdate:append select=\"/r/s\"><xupdate:processing-instruction name=\"p\">\
         a?&gt;b</xupdate:processing-instruction></xupdate:append>",
    ] {
        let script = format!(
            "<xupdate:modifications xmlns:xupdate=\"http://www.xmldb.org/xupdate\">{body}\
             </xupdate:modifications>"
        );
        assert!(parse_modifications(&script).is_err(), "{body}");
    }
    commit_then_reopen("delimiters", Via::WriteTxn, |s| {
        let mut t = s.begin();
        let k = Node::element("k")
            .with_child(Node::Comment("x-->y".into()))
            .with_child(Node::ProcessingInstruction {
                target: "p".into(),
                data: "a?>b".into(),
            });
        t.insert(InsertPosition::LastChildOf(node(s, "/r/s")), &k)
            .unwrap();
        t.commit().unwrap();
    });
}

/// U+001F, the byte between two ops of a commit record, is content like
/// any other inside a value, an attribute or an inserted text.
#[test]
fn the_op_separator_inside_strings_survives() {
    commit_then_reopen("separator", Via::XUpdate, |s| {
        xupdate(
            s,
            "<xupdate:update select=\"/r/t/text()\">x&#31;y</xupdate:update>\
             <xupdate:append select=\"/r/s\"><xupdate:attribute name=\"k\">a&#31;b\
             </xupdate:attribute></xupdate:append>\
             <xupdate:append select=\"/r/a\"><xupdate:text>c&#31;d</xupdate:text>\
             </xupdate:append>",
        );
    });
    commit_then_reopen("separator", Via::WriteTxn, |s| {
        let mut t = s.begin();
        t.update_value(node(s, "/r/t/text()"), "x\u{1f}y").unwrap();
        t.set_attribute(node(s, "/r/s"), &QName::local("k"), "a\u{1f}b")
            .unwrap();
        t.insert(
            InsertPosition::LastChildOf(node(s, "/r/a")),
            &Node::text("c\u{1f}d"),
        )
        .unwrap();
        t.commit().unwrap();
    });
}

/// Strings no markup-based log carries unchanged.
const AWKWARD: &[&str] = &[
    "",
    "a:b",
    "with space",
    "line\nbreak",
    "sep\u{1f}arated",
    "uni\u{2014}c\u{f8}d\u{e9}",
    "12:34 ",
    "-->",
    "?>",
    "]]>",
    "<x/>",
];

fn awkward(rng: &mut TestRng) -> String {
    (*rng.pick(AWKWARD)).to_string()
}

/// Adds adjacent and empty texts, comments and instructions with
/// awkward content, and awkward attribute values, throughout `node`.
fn roughen(rng: &mut TestRng, node: &mut Node) {
    let Node::Element {
        attributes,
        children,
        ..
    } = node
    else {
        return;
    };
    for (_, value) in attributes.iter_mut() {
        if rng.chance(1, 2) {
            *value = awkward(rng);
        }
    }
    for child in children.iter_mut() {
        roughen(rng, child);
    }
    for _ in 0..rng.below(3) {
        let leaf = match rng.below(4) {
            0 | 1 => Node::text(awkward(rng)),
            2 => Node::Comment(awkward(rng)),
            _ => Node::ProcessingInstruction {
                target: "pi".into(),
                data: awkward(rng),
            },
        };
        let at = rng.below(children.len() + 1);
        children.insert(at, leaf);
    }
}

/// A random fragment: mostly a roughened `rand_tree`, sometimes a bare
/// leaf.
fn fragment(rng: &mut TestRng) -> Node {
    match rng.below(6) {
        0 => Node::text(awkward(rng)),
        1 => Node::Comment(awkward(rng)),
        _ => {
            let mut tree = common::rand_tree(rng, 3, 3);
            roughen(rng, &mut tree);
            tree
        }
    }
}

#[test]
fn random_fragments_recover_as_they_were_committed() {
    let all = XPath::parse("//*").unwrap();
    let texts = XPath::parse("//text()").unwrap();
    for seed in 0..24u64 {
        let mut rng = TestRng::new(0x10_6000 + seed);
        let genesis = PagedDoc::parse_str(GENESIS, page()).unwrap();
        let shard = Shard::open(genesis, Wal::in_memory(), store());
        for _ in 0..8 {
            let mut t = shard.begin();
            for _ in 0..1 + rng.below(3) {
                let elements = t.select(&all).unwrap();
                let i = rng.below(elements.len());
                let target = elements[i];
                let position = match (i, rng.below(4)) {
                    (0, 0 | 1) | (_, 2) => InsertPosition::LastChildOf(target),
                    (_, 0) => InsertPosition::Before(target),
                    (_, 1) => InsertPosition::After(target),
                    _ => InsertPosition::ChildAt(target, rng.below(3)),
                };
                t.insert(position, &fragment(&mut rng)).unwrap();
            }
            if rng.chance(1, 2) {
                let values = t.select(&texts).unwrap();
                let v = values[rng.below(values.len())];
                t.update_value(v, &awkward(&mut rng)).unwrap();
            }
            t.commit().unwrap();
        }
        let live = shard.snapshot();
        let back = recover(GENESIS, page(), &shard.wal_raw().unwrap())
            .unwrap_or_else(|e| panic!("seed {seed}: recovery failed: {e}"));
        check_paged(&back).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(
            back.checkpoint_dump(),
            live.checkpoint_dump(),
            "seed {seed}: recovered and live dumps differ"
        );
    }
}
