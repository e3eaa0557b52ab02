//! Point lookups by `@id` against a **live** transactional store:
//! readers resolve `//item[@id = $id]` — one prepared text, the id
//! bound per request — on lock-free snapshots while writer threads keep
//! committing attribute and text updates, and the per-evaluation
//! [`EvalStats`] counters show which arm — content-index probe or
//! scalar scan — each lookup actually took. The bound form and the
//! literal form (`//item[@id = "itemN"]`) run the same kind of plan; the
//! plan cache keys on the query's shape, so either way the whole run
//! compiles the lookup once.
//!
//! Run with `cargo run --release --example value_lookup`.

use mbxq::{PageConfig, PagedDoc, Shard, StoreConfig, TreeView, Wal};
use mbxq_xmark::{generate, XMarkConfig};
use mbxq_xpath::{Ablation, Bindings, EvalOptions, EvalStats, Value, ValueChoice, XPath};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The one query text every reader sends.
const LOOKUP: &str = "//item[@id = $id]";

fn main() {
    let xml = generate(&XMarkConfig::scaled(0.01, 7));
    let doc = PagedDoc::parse_str(&xml, PageConfig::new(1024, 80).unwrap()).expect("shred");
    println!(
        "XMark document: {} bytes, {} nodes",
        xml.len(),
        doc.used_count()
    );
    let store = Shard::open(doc, Wal::in_memory(), StoreConfig::default());

    let total_items = match store.query("count(//item)").unwrap() {
        mbxq_xpath::Value::Number(n) => n as u64,
        other => panic!("unexpected {other:?}"),
    };
    println!("items: {total_items}\n");

    let stop = AtomicBool::new(false);
    let commits = AtomicU64::new(0);
    let lookups = AtomicU64::new(0);
    let probe_steps = AtomicU64::new(0);
    let scan_steps = AtomicU64::new(0);

    std::thread::scope(|scope| {
        // Two writers: one retags item ids — churn on the very
        // attribute key the readers probe, toggling `itemN` ↔
        // `itemN-alt` so lookups race genuine key movement — and one
        // sets unrelated attributes (posting-list churn next door).
        for writer in 0..2u64 {
            let store = &store;
            let stop = &stop;
            let commits = &commits;
            scope.spawn(move || {
                let mut round = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let item = (writer * 31 + round * 7) % total_items;
                    let mut txn = store.begin();
                    let primary = format!("item{item}");
                    let alt = format!("item{item}-alt");
                    // The id may currently be either spelling.
                    let (found, next) = {
                        let mut probe = |id: &str| {
                            txn.select(&XPath::parse(&format!("//item[@id = \"{id}\"]")).unwrap())
                        };
                        match probe(&primary) {
                            Ok(t) if !t.is_empty() => (Some(t[0]), alt),
                            Ok(_) => match probe(&alt) {
                                Ok(t) if !t.is_empty() => (Some(t[0]), primary),
                                _ => (None, primary),
                            },
                            Err(_) => (None, primary),
                        }
                    };
                    let Some(target) = found else {
                        txn.abort();
                        round += 1;
                        continue;
                    };
                    let ok = if writer == 0 {
                        txn.set_attribute(target, &mbxq::QName::local("id"), &next)
                            .is_ok()
                    } else {
                        txn.set_attribute(target, &mbxq::QName::local("hot"), "yes")
                            .is_ok()
                    };
                    if ok && txn.commit().is_ok() {
                        commits.fetch_add(1, Ordering::Relaxed);
                    }
                    round += 1;
                }
            });
        }

        // Readers: point lookups on snapshots, counting the strategy
        // decisions the cost model takes.
        for reader in 0..2u64 {
            let store = &store;
            let stop = &stop;
            let lookups = &lookups;
            let probe_steps = &probe_steps;
            let scan_steps = &scan_steps;
            scope.spawn(move || {
                let mut i = reader;
                while !stop.load(Ordering::Relaxed) {
                    let stats = EvalStats::default();
                    let mut id = Bindings::new();
                    id.set("id", Value::Str(format!("item{}", i % total_items)));
                    let opts = EvalOptions::new().bindings(&id).stats(&stats);
                    let found = store.query_nodes_opts(LOOKUP, &opts).unwrap();
                    assert!(found.len() <= 1, "ids are unique");
                    lookups.fetch_add(1, Ordering::Relaxed);
                    probe_steps.fetch_add(stats.value_probe_steps.get(), Ordering::Relaxed);
                    scan_steps.fetch_add(stats.value_scan_steps.get(), Ordering::Relaxed);
                    i += 2;
                }
            });
        }

        let t0 = Instant::now();
        std::thread::sleep(Duration::from_millis(400));
        stop.store(true, Ordering::Relaxed);
        let dt = t0.elapsed();
        println!(
            "after {dt:?} of concurrent load:\n  commits:              {}\n  \
             point lookups:        {}\n  probe-vs-scan chosen: {} probe / {} scan",
            commits.load(Ordering::Relaxed),
            lookups.load(Ordering::Relaxed),
            probe_steps.load(Ordering::Relaxed),
            scan_steps.load(Ordering::Relaxed),
        );
    });

    // The ablation view of one lookup, on the final committed state
    // (the id writer may have left item3 under either spelling).
    let target_id = if store
        .query_nodes("//item[@id = \"item3\"]")
        .unwrap()
        .is_empty()
    {
        "item3-alt"
    } else {
        "item3"
    };
    println!("\none lookup (@id = {target_id:?}), all three arms:");
    for value in [
        ValueChoice::ForceScan,
        ValueChoice::ForceProbe,
        ValueChoice::Auto,
    ] {
        let stats = EvalStats::default();
        let mut id = Bindings::new();
        id.set("id", Value::Str(target_id.into()));
        let opts = EvalOptions::new()
            .bindings(&id)
            .ablation(Ablation {
                value,
                ..Default::default()
            })
            .stats(&stats);
        let t0 = Instant::now();
        let rows = store.query_nodes_opts(LOOKUP, &opts).unwrap().len();
        println!(
            "  {value:?}: {rows} row(s) in {:?} ({} probe / {} scan steps)",
            t0.elapsed(),
            stats.value_probe_steps.get(),
            stats.value_scan_steps.get()
        );
    }
    let cache = store.plan_cache_stats();
    println!(
        "\nplan cache: {} hits, {} misses, {} evictions, {} entries",
        cache.hits, cache.misses, cache.evictions, cache.entries
    );
}
