//! Serializability oracle for the short-publish commit pipeline
//! (seeded-loop style, like the rest of the suite).
//!
//! Each seed drives several writer threads through a deterministic
//! per-thread schedule of insert/delete/attribute transactions over a
//! sectioned document — some seeds give every writer its own section
//! (disjoint page sets, all commits succeed), others make writers share
//! sections (overlapping page sets, so lock conflicts force timeouts and
//! retries). The actual thread interleaving is whatever the scheduler
//! produces; the property is interleaving-independent:
//!
//! **Whatever commit order the race decided, replaying the WAL's commit
//! records single-threaded on a clone of the genesis document must
//! reproduce the concurrent outcome exactly.** That is serializability
//! (the concurrent execution ≡ a serial one) and at the same time the
//! recovery contract (log order may differ from publish order for
//! concurrent page-disjoint commits; commutativity makes both converge).

mod common;

use common::{sectioned_xml, TestRng};
use mbxq::{
    AncestorLockMode, InsertPosition, PageConfig, PagedDoc, Shard, StoreConfig, Wal, XPath,
};
use mbxq_txn::wal::WalRecord;
use mbxq_xml::Document;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

fn cfg() -> PageConfig {
    PageConfig::new(64, 80).unwrap()
}

/// One writer's deterministic schedule: `txns` transactions of 1–3 ops
/// against `section`, with ids derived from `(seed, writer)` so every
/// insert is globally unique and attributable.
#[allow(clippy::too_many_arguments)]
fn run_writer(store: &Shard, seed: u64, writer: usize, section: usize, txns: usize) -> (u64, u64) {
    let mut rng = TestRng::new(seed ^ (writer as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let section_path = XPath::parse(&format!("/root/s{section}")).unwrap();
    let my_items = XPath::parse(&format!("/root/s{section}/p[@w='w{writer}']")).unwrap();
    let (mut committed, mut aborted) = (0u64, 0u64);
    for txn_no in 0..txns {
        let mut t = store.begin();
        let n_ops = 1 + rng.below(3);
        let mut ok = true;
        for op_no in 0..n_ops {
            let outcome = match rng.below(4) {
                0 | 1 => match t.select(&section_path) {
                    Ok(v) if !v.is_empty() => {
                        let frag = Document::parse_fragment(&format!(
                            "<p id=\"g{seed}w{writer}t{txn_no}o{op_no}\" w=\"w{writer}\"/>"
                        ))
                        .unwrap();
                        t.insert(InsertPosition::LastChildOf(v[0]), &frag)
                    }
                    Ok(_) => Ok(()),
                    Err(e) => Err(e),
                },
                2 => match t.select(&my_items) {
                    // Delete one of this writer's own earlier inserts
                    // (never another writer's, so a successful commit
                    // can't invalidate a concurrent schedule's target).
                    Ok(v) if !v.is_empty() => t.delete(v[rng.below(v.len())]).map(drop),
                    Ok(_) => Ok(()),
                    Err(e) => Err(e),
                },
                _ => match t.select(&my_items) {
                    Ok(v) if !v.is_empty() => {
                        let victim = v[rng.below(v.len())];
                        t.set_attribute(victim, &mbxq::QName::local("rev"), &format!("r{txn_no}"))
                    }
                    Ok(_) => Ok(()),
                    Err(e) => Err(e),
                },
            };
            if outcome.is_err() {
                ok = false;
                break;
            }
        }
        if !ok {
            t.abort();
            aborted += 1;
            continue;
        }
        // An all-no-op transaction (every op skipped on an empty
        // selection) commits without logging — don't count it against
        // the one-record-per-commit bookkeeping.
        let had_ops = t.staged_ops() > 0;
        match t.commit() {
            Ok(_) if had_ops => committed += 1,
            Ok(_) => {}
            Err(_) => aborted += 1,
        }
    }
    (committed, aborted)
}

/// Runs one seeded concurrent schedule and checks the oracle.
/// `sections < writers` makes writers share sections (overlapping page
/// sets → lock conflicts, timeouts, aborts); `sections == writers`
/// keeps them disjoint.
fn check_seed(seed: u64, writers: usize, sections: usize) {
    let overlapping = sections < writers;
    let genesis = sectioned_xml(sections, 40, "");
    let store = Shard::open(
        PagedDoc::parse_str(&genesis, cfg()).unwrap(),
        Wal::in_memory(),
        StoreConfig {
            ancestor_mode: AncestorLockMode::Delta,
            lock_timeout: Duration::from_millis(if overlapping { 150 } else { 5000 }),
            validate_on_commit: false,
            ..StoreConfig::default()
        },
    );
    let committed = AtomicU64::new(0);
    let aborted = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for w in 0..writers {
            let store = &store;
            let committed = &committed;
            let aborted = &aborted;
            scope.spawn(move || {
                let (c, a) = run_writer(store, seed, w, w % sections, 12);
                committed.fetch_add(c, Ordering::Relaxed);
                aborted.fetch_add(a, Ordering::Relaxed);
            });
        }
    });
    let committed = committed.load(Ordering::Relaxed);
    assert_eq!(
        store.locked_pages(),
        0,
        "seed {seed}: schedule must release every lock"
    );
    let live = mbxq_storage::serialize::to_xml(store.snapshot().as_ref()).unwrap();
    mbxq_storage::invariants::check_paged(store.snapshot().as_ref()).unwrap();

    // The oracle: replay the WAL's commit records single-threaded, in
    // log order, onto a fresh shredding of the genesis document.
    let records = mbxq_txn::wal::decode_log(&store.wal_raw().unwrap()).unwrap();
    assert_eq!(
        records.len() as u64,
        committed,
        "seed {seed}: every successful commit logs exactly one record"
    );
    let mut replay = PagedDoc::parse_str(&genesis, cfg()).unwrap();
    for record in &records {
        match record {
            WalRecord::Commit { ops, .. } => {
                for op in ops {
                    op.apply(&mut replay).unwrap_or_else(|e| {
                        panic!("seed {seed}: replayed op failed: {e}");
                    });
                }
            }
            other => panic!("seed {seed}: unexpected record {other:?}"),
        }
    }
    mbxq_storage::invariants::check_paged(&replay).unwrap();
    assert_eq!(
        mbxq_storage::serialize::to_xml(&replay).unwrap(),
        live,
        "seed {seed} (writers={writers}, overlapping={overlapping}): \
         single-threaded replay diverged from the concurrent outcome"
    );
}

#[test]
fn disjoint_schedules_replay_identically() {
    for seed in 0..6u64 {
        check_seed(seed, 4, 4);
    }
}

#[test]
fn overlapping_schedules_replay_identically() {
    // Two writers per section: timeouts and aborted transactions are
    // part of the schedule; only the committed survivors must replay.
    for seed in 0..6u64 {
        check_seed(seed, 4, 2);
    }
}

#[test]
fn many_writers_one_hot_section() {
    // Maximum contention: every writer fights over one section. Most
    // transactions time out; whatever commits must still replay exactly.
    for seed in 0..3u64 {
        check_seed(seed, 6, 1);
    }
}
