//! Documents nested as deep as the `level` column allows load, serialize
//! and take inserts without touching the thread stack per level.
//!
//! This suite is its own test binary on purpose: a stack overflow aborts
//! the whole process, not just the test that caused it. Everything runs
//! on one spawned thread with a fixed 512 KiB stack, so a per-level
//! recursion anywhere on the shred, insert-staging or serialize path
//! shows up here as an abort, whatever the main thread's stack size.

use mbxq::{PageConfig, PagedDoc, StorageError, TreeView, XmlDocument as Document};
use mbxq_storage::{invariants::check_paged, serialize::to_xml};

/// Depth of the test documents: far beyond any recursion a 512 KiB
/// stack survives, inside the `level` column.
const DEPTH: usize = 60_000;

/// The deepest level the `level` column holds (`u16::MAX` is the NULL of
/// unused slots).
const MAX_LEVEL: usize = 65_534;

/// `depth` nested `<d>` elements.
fn nested(depth: usize) -> String {
    "<d>".repeat(depth) + &"</d>".repeat(depth)
}

fn cfg() -> PageConfig {
    PageConfig::new(64, 80).unwrap()
}

#[test]
fn sixty_thousand_levels_on_a_512_kib_stack() {
    std::thread::Builder::new()
        .name("deep".into())
        .stack_size(512 * 1024)
        .spawn(|| {
            // Shredding straight from the text.
            let xml = nested(DEPTH);
            let doc = PagedDoc::parse_str(&xml, cfg()).unwrap();
            assert_eq!(doc.used_count(), DEPTH as u64);
            let last = doc.prev_used_at_or_before(doc.pre_end()).unwrap();
            assert_eq!(doc.level(last), Some(DEPTH as u16 - 1));
            assert_eq!(TreeView::size(&doc, 0), DEPTH as u64 - 1);
            check_paged(&doc).unwrap();

            // Serializing it back: the same document.
            let text = to_xml(&doc).unwrap();
            assert_eq!(
                text,
                "<d>".repeat(DEPTH - 1) + "<d/>" + &"</d>".repeat(DEPTH - 1)
            );
            assert!(Document::parse(&text).unwrap() == Document::parse(&xml).unwrap());
            drop(doc);

            // An XUpdate append of a fragment just as deep.
            let mut doc = PagedDoc::parse_str("<r><a/>x</r>", cfg()).unwrap();
            let mods = mbxq_xupdate::parse_modifications(&format!(
                "<xupdate:modifications xmlns:xupdate=\"http://www.xmldb.org/xupdate\">\
                 <xupdate:append select=\"/r/a\">{}</xupdate:append>\
                 </xupdate:modifications>",
                nested(DEPTH)
            ))
            .unwrap();
            let summary = mbxq_xupdate::execute(&mut doc, &mods).unwrap();
            assert_eq!(summary.nodes_inserted, DEPTH as u64);
            assert_eq!(doc.used_count(), DEPTH as u64 + 3);
            check_paged(&doc).unwrap();
            assert_eq!(
                to_xml(&doc).unwrap(),
                format!(
                    "<r><a>{}</a>x</r>",
                    "<d>".repeat(DEPTH - 1) + "<d/>" + &"</d>".repeat(DEPTH - 1)
                )
            );
            drop((doc, mods));

            // The same append through a transactional document: the
            // commit clones the fragment and logs it as XML text.
            let mut db = mbxq::Database::new();
            db.load("d", "<r><a/></r>", mbxq::StorageMode::default_updatable())
                .unwrap();
            let summary = db
                .update(
                    "d",
                    &format!(
                        "<xupdate:append xmlns:xupdate=\"http://www.xmldb.org/xupdate\" \
                         select=\"/r/a\">{}</xupdate:append>",
                        nested(DEPTH)
                    ),
                )
                .unwrap();
            assert_eq!(summary.nodes_inserted, DEPTH as u64);
            assert_eq!(
                db.query("d", "count(//d)").unwrap().items,
                [DEPTH.to_string()]
            );
            drop(db);

            // One level more than the column holds is an error, not a
            // crash.
            assert_eq!(
                PagedDoc::parse_str(&nested(MAX_LEVEL + 2), cfg()).unwrap_err(),
                StorageError::TooDeep {
                    depth: MAX_LEVEL as u64 + 2
                }
            );
        })
        .unwrap()
        .join()
        .expect("the deep-document checks passed on a 512 KiB stack");
}
