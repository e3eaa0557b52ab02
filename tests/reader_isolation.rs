//! Reader isolation under concurrent commits, checkpoints and vacuum.
//!
//! The tentpole guarantee of the short-publish pipeline: readers take
//! [`mbxq::Shard::snapshot`] through a lock-free cell and keep a frozen,
//! fully consistent version for as long as they like — no commit,
//! checkpoint truncation or page reorganization may ever show through
//! a pinned snapshot, and every version the store
//! *publishes* must be invariant-clean the moment it appears.

mod common;

use common::sectioned_xml;
use mbxq::{
    AncestorLockMode, InsertPosition, PageConfig, PagedDoc, Shard, StoreConfig, TxnError, Wal,
    XPath,
};
use mbxq_xml::Document;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

#[test]
fn pinned_snapshots_never_change_mid_query() {
    let store = Shard::open(
        PagedDoc::parse_str(
            &sectioned_xml(4, 60, "<t>x</t>"),
            PageConfig::new(32, 75).unwrap(),
        )
        .unwrap(),
        Wal::in_memory(),
        StoreConfig {
            ancestor_mode: AncestorLockMode::Delta,
            lock_timeout: Duration::from_secs(5),
            validate_on_commit: false,
            ..StoreConfig::default()
        },
    );
    let stop = AtomicBool::new(false);
    let snapshots_checked = AtomicU64::new(0);
    let versions_checked = AtomicU64::new(0);
    let maintenance_runs = AtomicU64::new(0);

    std::thread::scope(|s| {
        // Readers: pin a snapshot, remember its serialization and a
        // query answer, then re-ask both repeatedly while the world
        // churns. Any drift means a published version leaked into a
        // pinned one.
        for r in 0..3usize {
            let store = &store;
            let stop = &stop;
            let snapshots_checked = &snapshots_checked;
            s.spawn(move || {
                let count_p = XPath::parse("count(//p)").unwrap();
                while !stop.load(Ordering::Relaxed) {
                    let snap = store.snapshot();
                    let frozen_xml = mbxq_storage::serialize::to_xml(snap.as_ref()).unwrap();
                    let frozen_count = count_p.eval(snap.as_ref(), &[0]).unwrap();
                    for _ in 0..10 {
                        assert_eq!(
                            count_p.eval(snap.as_ref(), &[0]).unwrap(),
                            frozen_count,
                            "reader {r}: query answer drifted inside one snapshot"
                        );
                    }
                    assert_eq!(
                        mbxq_storage::serialize::to_xml(snap.as_ref()).unwrap(),
                        frozen_xml,
                        "reader {r}: snapshot serialization drifted"
                    );
                    snapshots_checked.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // Version auditor: every published version must pass the full
        // structural invariant check the instant it is visible.
        {
            let store = &store;
            let stop = &stop;
            let versions_checked = &versions_checked;
            s.spawn(move || {
                let mut last_stamp = u64::MAX;
                while !stop.load(Ordering::Relaxed) {
                    let stamp = store.version_stamp();
                    if stamp != last_stamp {
                        last_stamp = stamp;
                        mbxq_storage::invariants::check_paged(store.snapshot().as_ref())
                            .unwrap_or_else(|e| panic!("published version {stamp} corrupt: {e}"));
                        versions_checked.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        // Maintenance: checkpoints (log truncation) and vacuums (page reorganization) interleave with everything.
        {
            let store = &store;
            let stop = &stop;
            let maintenance_runs = &maintenance_runs;
            s.spawn(move || {
                let mut flip = false;
                while !stop.load(Ordering::Relaxed) {
                    flip = !flip;
                    let outcome = if flip {
                        store.checkpoint().map(|_| ())
                    } else {
                        match store.vacuum() {
                            // Writers in flight — fine, try again later.
                            Err(TxnError::Busy { .. }) => Ok(()),
                            other => other.map(|_| ()),
                        }
                    };
                    outcome.unwrap_or_else(|e| panic!("maintenance failed: {e}"));
                    maintenance_runs.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(5));
                }
            });
        }
        // Writers: sectioned commit traffic (inserts + deletes), with
        // retries when a vacuum invalidates a stale transaction. They
        // keep committing until maintenance has run at least once, so
        // the interleaving checked below cannot depend on scheduling.
        let mut handles = Vec::new();
        for w in 0..2usize {
            let store = &store;
            let maintenance_runs = &maintenance_runs;
            handles.push(s.spawn(move || {
                let path = XPath::parse(&format!("/root/s{w}")).unwrap();
                let mine = XPath::parse(&format!("/root/s{w}/p[@w='{w}']")).unwrap();
                let mut i = 0usize;
                let mut committed = 0usize;
                while committed < 40 || maintenance_runs.load(Ordering::Relaxed) == 0 {
                    i += 1;
                    let mut t = store.begin();
                    let staged = (|| -> Result<(), TxnError> {
                        if i.is_multiple_of(5) {
                            let victims = t.select(&mine)?;
                            if let Some(&v) = victims.first() {
                                t.delete(v)?;
                                return Ok(());
                            }
                        }
                        let target = t.select(&path)?[0];
                        let frag = Document::parse_fragment(&format!(
                            "<p id=\"w{w}g{i}\" w=\"{w}\"><t>y</t></p>"
                        ))
                        .unwrap();
                        t.insert(InsertPosition::LastChildOf(target), &frag)?;
                        Ok(())
                    })();
                    match staged {
                        Ok(()) => {
                            if t.commit().is_ok() {
                                committed += 1;
                            }
                        }
                        // LayoutChanged (vacuum won the race) and lock
                        // timeouts: retry on a fresh snapshot.
                        Err(_) => t.abort(),
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });

    assert!(
        snapshots_checked.load(Ordering::Relaxed) > 0,
        "readers must have validated at least one pinned snapshot"
    );
    assert!(
        versions_checked.load(Ordering::Relaxed) > 0,
        "the auditor must have checked at least one published version"
    );
    assert!(
        maintenance_runs.load(Ordering::Relaxed) > 0,
        "checkpoint/vacuum must have interleaved with the workload"
    );
    assert_eq!(store.locked_pages(), 0);
    mbxq_storage::invariants::check_paged(store.snapshot().as_ref()).unwrap();
}

/// A snapshot taken *before* a checkpoint and a vacuum still serializes
/// to the same bytes afterwards — structure-preserving maintenance can
/// never show through a pinned `Arc`.
#[test]
fn snapshots_survive_checkpoint_and_vacuum_exactly() {
    let store = Shard::open(
        PagedDoc::parse_str(
            &sectioned_xml(2, 30, "<t>x</t>"),
            PageConfig::new(16, 75).unwrap(),
        )
        .unwrap(),
        Wal::in_memory(),
        StoreConfig {
            ancestor_mode: AncestorLockMode::Delta,
            lock_timeout: Duration::from_millis(500),
            validate_on_commit: true,
            ..StoreConfig::default()
        },
    );
    // Fragment the store so the vacuum has real work.
    let mut t = store.begin();
    let victims = t.select(&XPath::parse("/root/s0/p").unwrap()).unwrap();
    for &v in victims.iter().take(10) {
        t.delete(v).unwrap();
    }
    t.commit().unwrap();

    let pinned = store.snapshot();
    let frozen = mbxq_storage::serialize::to_xml(pinned.as_ref()).unwrap();
    let stamp_before = store.version_stamp();

    store.checkpoint().unwrap();
    assert_eq!(
        store.version_stamp(),
        stamp_before,
        "a checkpoint publishes no version"
    );
    store.vacuum().unwrap();
    let mut t = store.begin();
    let target = t.select(&XPath::parse("/root/s1").unwrap()).unwrap()[0];
    let frag = Document::parse_fragment("<p id=\"after\"/>").unwrap();
    t.insert(InsertPosition::LastChildOf(target), &frag)
        .unwrap();
    t.commit().unwrap();

    assert_eq!(
        mbxq_storage::serialize::to_xml(pinned.as_ref()).unwrap(),
        frozen,
        "pinned snapshot changed across checkpoint + vacuum + commit"
    );
    assert!(
        store.version_stamp() >= stamp_before + 2,
        "vacuum and the commit each publish a new version"
    );
    assert!(!frozen.contains("after"));
    assert!(mbxq_storage::serialize::to_xml(store.snapshot().as_ref())
        .unwrap()
        .contains("after"));
}
