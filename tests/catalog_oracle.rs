//! Cross-document query oracle for the catalog's fan-out path.
//!
//! **Property:** [`Catalog::query_all`] — shard-local plans fanned out
//! over the shared worker pool, merged in (document, document-order) —
//! is *bit-identical* to querying every shard sequentially and
//! concatenating, whatever the execution interleaving and whatever
//! per-shard maintenance (checkpoint, vacuum) is racing on other
//! shards. The node ids it returns are the stable logical ids, so even
//! a vacuum that relocates tuples between the parallel and the
//! sequential evaluation must not change a single bit of the answer.
//!
//! A second deterministic test pins the per-shard maintenance
//! guarantee: a writer holding page locks on one document makes *that*
//! document's vacuum report Busy, while checkpoints, vacuums and
//! commits on every other document proceed — maintenance never crosses
//! shard boundaries.

use mbxq::{Catalog, CatalogConfig, PageConfig, StoreConfig, TxnError, XPath};
use mbxq_xmark::XMarkConfig;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

fn config(query_threads: usize) -> CatalogConfig {
    CatalogConfig {
        store: StoreConfig {
            lock_timeout: Duration::from_millis(300),
            validate_on_commit: true,
            query_threads,
            ..StoreConfig::default()
        },
        page: PageConfig::new(64, 75).unwrap(),
    }
}

#[test]
fn query_all_is_bit_identical_to_sequential_under_racing_maintenance() {
    let cat = Catalog::in_memory(config(4));
    // One XMark document partitioned across three shards, plus an
    // unrelated standalone document — both routing shapes at once.
    let xml = mbxq_xmark::generate(&XMarkConfig::tiny(11));
    let parts = cat.create_partitioned("auctions", &xml, 3).unwrap();
    cat.create_doc("side", "<site><extra><keyword>zzz</keyword></extra></site>")
        .unwrap();
    assert_eq!(parts, ["auctions#0", "auctions#1", "auctions#2"]);

    let queries = ["//item", "//person", "//keyword", "//bidder", "/site"];
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Maintenance races on a SUBSET of the shards: the first two
        // parts get checkpointed and vacuumed in a tight loop (Busy is
        // fine — it means a concurrent query pinned nothing, vacuum just
        // found the store momentarily unquiesced; content never changes).
        for name in &parts[..2] {
            let stop = &stop;
            let cat = &cat;
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let _ = cat.checkpoint(name);
                    match cat.vacuum(name) {
                        Ok(_) | Err(TxnError::Busy { .. }) => {}
                        Err(e) => panic!("vacuum on {name}: {e}"),
                    }
                }
            });
        }

        for round in 0..40 {
            for q in queries {
                let all = cat.query_all(q).unwrap();
                let names = cat.doc_names();
                assert_eq!(
                    all.iter().map(|m| m.doc.as_str()).collect::<Vec<_>>(),
                    names.iter().map(String::as_str).collect::<Vec<_>>(),
                    "round {round}: {q}: document order must be creation order"
                );
                for m in &all {
                    let seq = cat.query_nodes(&m.doc, q).unwrap();
                    assert_eq!(
                        m.nodes, seq,
                        "round {round}: {q} on {}: fan-out diverged from sequential",
                        m.doc
                    );
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
    });

    // The partition preserved the whole document: parts' matches
    // concatenated count exactly the original document's matches.
    let whole = {
        let solo = Catalog::in_memory(config(0));
        solo.create_doc("w", &xml).unwrap();
        solo.query_nodes("w", "//item").unwrap().len()
    };
    let split: usize = cat
        .query_collection(&parts, "//item")
        .unwrap()
        .iter()
        .map(|m| m.nodes.len())
        .sum();
    assert_eq!(split, whole, "partitioning lost or invented items");

    // The fan-out ran on the one shared pool and merged its counters.
    assert!(
        cat.pool_stats().spawned,
        "4-thread catalog must spawn its pool"
    );
    let stats = mbxq_xpath::EvalStats::default();
    let all = cat.query_all_stats("//keyword", &stats).unwrap();
    assert_eq!(all.len(), cat.doc_count());
    assert!(
        stats.morsels.get() >= all.len() as u64,
        "merged stats must count at least one morsel per document"
    );
}

#[test]
fn maintenance_on_one_shard_never_stalls_the_others() {
    let cat = Catalog::in_memory(config(0));
    cat.create_doc("a", "<r><x/><x/></r>").unwrap();
    cat.create_doc("b", "<r><y/><y/></r>").unwrap();
    let a = cat.shard("a").unwrap();
    let b = cat.shard("b").unwrap();

    // A writer stages (and locks) on document B and stays open.
    let mut held = b.begin();
    let ys = held.select(&XPath::parse("//y").unwrap()).unwrap();
    let frag = mbxq::XmlDocument::parse_fragment("<held/>").unwrap();
    held.insert(mbxq::InsertPosition::LastChildOf(ys[0]), &frag)
        .unwrap();

    // B's own vacuum correctly reports the in-flight writer...
    assert!(matches!(cat.vacuum("b"), Err(TxnError::Busy { .. })));
    // ...while A's maintenance and A's writers are completely unaffected.
    cat.checkpoint("a").unwrap();
    cat.vacuum("a").unwrap();
    let mut t = a.begin();
    let xs = t.select(&XPath::parse("//x").unwrap()).unwrap();
    t.delete(xs[1]).unwrap();
    t.commit().unwrap();
    assert_eq!(cat.query_nodes("a", "//x").unwrap().len(), 1);

    // Releasing B's writer frees B's maintenance too.
    held.commit().unwrap();
    cat.vacuum("b").unwrap();
    assert_eq!(cat.query_nodes("b", "//held").unwrap().len(), 1);
}

#[test]
fn dropped_docs_vanish_from_query_all_but_held_handles_survive() {
    let cat = Catalog::in_memory(config(2));
    cat.create_doc("keep", "<r><k/></r>").unwrap();
    cat.create_doc("gone", "<r><g/></r>").unwrap();
    let held = cat.shard("gone").unwrap();
    cat.drop_doc("gone").unwrap();

    let all = cat.query_all("//*").unwrap();
    assert_eq!(all.len(), 1);
    assert_eq!(all[0].doc, "keep");
    // The outstanding handle still serves queries and even commits.
    assert_eq!(held.query_nodes("//g").unwrap().len(), 1);
    let mut t = held.begin();
    let gs = t.select(&XPath::parse("//g").unwrap()).unwrap();
    t.delete(gs[0]).unwrap();
    t.commit().unwrap();
    assert_eq!(held.query_nodes("//g").unwrap().len(), 0);
}

/// Multi-shard liveness: writers on two shards (two per shard, bound to
/// different regions) commit a fixed number of inserts while a reader
/// fans `query_all` out over both. Every acknowledged commit is logged
/// exactly once in its own shard's WAL and visible afterwards, no page
/// lock is stranded, and both documents stay invariant-clean.
#[test]
fn writers_on_two_shards_commit_independently_under_a_fan_out_reader() {
    const TXNS: usize = 12;
    let cat = Catalog::in_memory(config(2));
    let shards: Vec<_> = (0..2)
        .map(|k| {
            let xml = mbxq_xmark::generate(&XMarkConfig::tiny(42 + k));
            cat.create_doc(&format!("xmark{k}"), &xml).unwrap()
        })
        .collect();
    let items_before: Vec<usize> = shards
        .iter()
        .map(|s| s.query_nodes("//item").unwrap().len())
        .collect();
    let frag = mbxq::XmlDocument::parse_fragment("<item><name>shard item</name></item>").unwrap();

    let done = AtomicBool::new(false);
    let (acked, reads): (Vec<usize>, usize) = std::thread::scope(|scope| {
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let shard = &shards[w % 2];
                let region =
                    XPath::parse(["/site/regions/asia", "/site/regions/europe"][w / 2]).unwrap();
                let frag = &frag;
                scope.spawn(move || {
                    let mut acked = 0;
                    for _ in 0..TXNS {
                        // A lock timeout against the sibling writer is
                        // an abort, not a failure: only acknowledged
                        // commits are counted.
                        let mut t = shard.begin();
                        let staged = t
                            .select(&region)
                            .and_then(|r| t.insert(mbxq::InsertPosition::LastChildOf(r[0]), frag));
                        match staged {
                            Ok(_) => acked += t.commit().is_ok() as usize,
                            Err(_) => t.abort(),
                        }
                    }
                    acked
                })
            })
            .collect();
        let reader = scope.spawn(|| {
            let mut reads = 0;
            while !done.load(Ordering::Relaxed) || reads == 0 {
                assert_eq!(cat.query_all("//item").unwrap().len(), 2);
                reads += 1;
            }
            reads
        });
        let acked = writers.into_iter().map(|h| h.join().unwrap()).collect();
        done.store(true, Ordering::Relaxed);
        (acked, reader.join().unwrap())
    });

    assert!(reads > 0);
    for (k, shard) in shards.iter().enumerate() {
        let commits = acked[k] + acked[k + 2];
        assert!(commits > 0, "shard {k}: its writers must get through");
        assert_eq!(
            shard.group_commit_stats().records,
            commits as u64,
            "shard {k}: every acknowledged commit is logged exactly once, in its own WAL"
        );
        assert_eq!(
            shard.query_nodes("//item").unwrap().len(),
            items_before[k] + commits,
            "shard {k}: every acknowledged insert is visible"
        );
        assert_eq!(shard.locked_pages(), 0, "shard {k}: stranded page locks");
        mbxq_storage::invariants::check_paged(shard.snapshot().as_ref()).unwrap();
    }
}
