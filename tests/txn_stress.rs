//! Transaction-layer stress: conflicting writers, aborts, timeouts and
//! reader snapshots racing over one document, followed by exact
//! accounting and an invariant check. Uses std's scoped threads to
//! coordinate the phases.

mod common;

use common::sectioned_xml;
use mbxq::{
    AncestorLockMode, InsertPosition, PageConfig, PagedDoc, Shard, StoreConfig, TreeView, Wal,
    XPath,
};
use mbxq_txn::recover::recover;
use mbxq_xml::Document;
use mbxq_xpath::{Ablation, AxisChoice, EvalOptions, EvalStats, ParChoice};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Duration;

#[test]
fn conflicting_writers_all_conflicts_resolve() {
    // All workers target the SAME section: page write locks force full
    // serialization; every transaction must eventually commit or time
    // out cleanly (no deadlock, no corruption).
    let xml = sectioned_xml(1, 100, "");
    let store = Shard::open(
        PagedDoc::parse_str(&xml, PageConfig::new(64, 80).unwrap()).unwrap(),
        Wal::in_memory(),
        StoreConfig {
            ancestor_mode: AncestorLockMode::Delta,
            lock_timeout: Duration::from_millis(1200),
            validate_on_commit: false,
            ..StoreConfig::default()
        },
    );
    let committed = AtomicU64::new(0);
    let timed_out = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let store = &store;
            let committed = &committed;
            let timed_out = &timed_out;
            scope.spawn(move || {
                let path = XPath::parse("/root/s0").unwrap();
                let frag = Document::parse_fragment("<p/>").unwrap();
                for _ in 0..5 {
                    let mut t = store.begin();
                    let target = match t.select(&path) {
                        Ok(v) => v[0],
                        Err(_) => {
                            timed_out.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                    };
                    match t
                        .insert(InsertPosition::LastChildOf(target), &frag)
                        .and_then(|()| t.commit().map(|_| ()))
                    {
                        Ok(()) => {
                            committed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            timed_out.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    let committed = committed.load(Ordering::Relaxed);
    let doc = store.snapshot();
    assert_eq!(doc.used_count(), 102 + committed);
    mbxq_storage::invariants::check_paged(doc.as_ref()).unwrap();
    // With serialized access and generous timeouts, most should commit.
    assert!(committed > 0, "at least some transactions must commit");
}

#[test]
fn mixed_workload_matches_recovery_under_concurrency() {
    // Disjoint writers + WAL; afterwards, recovery from the WAL must
    // reproduce the exact final document even though commit order was
    // decided by the races.
    let xml = sectioned_xml(4, 120, "");
    let store = Shard::open(
        PagedDoc::parse_str(&xml, PageConfig::new(128, 80).unwrap()).unwrap(),
        Wal::in_memory(),
        StoreConfig {
            ancestor_mode: AncestorLockMode::Delta,
            lock_timeout: Duration::from_secs(10),
            validate_on_commit: false,
            ..StoreConfig::default()
        },
    );
    std::thread::scope(|scope| {
        for w in 0..4usize {
            let store = &store;
            scope.spawn(move || {
                let path = XPath::parse(&format!("/root/s{w}")).unwrap();
                for i in 0..15 {
                    let mut t = store.begin();
                    let target = t.select(&path).unwrap()[0];
                    if i % 4 == 3 {
                        // Delete the section's first paragraph.
                        let victim_path = XPath::parse(&format!("/root/s{w}/p[1]")).unwrap();
                        let victims = t.select(&victim_path).unwrap();
                        t.delete(victims[0]).unwrap();
                    } else {
                        let frag =
                            Document::parse_fragment(&format!("<p id=\"w{w}gen{i}\"/>")).unwrap();
                        t.insert(InsertPosition::LastChildOf(target), &frag)
                            .unwrap();
                    }
                    t.commit().unwrap();
                }
            });
        }
    });
    let live = mbxq_storage::serialize::to_xml(store.snapshot().as_ref()).unwrap();
    mbxq_storage::invariants::check_paged(store.snapshot().as_ref()).unwrap();

    let recovered = recover(
        &xml,
        PageConfig::new(128, 80).unwrap(),
        &store.wal_raw().unwrap(),
    )
    .expect("recovery succeeds");
    assert_eq!(
        mbxq_storage::serialize::to_xml(&recovered).unwrap(),
        live,
        "recovery must reproduce the concurrent outcome"
    );
}

/// Lock-table hygiene under a storm: 8 threads hammer overlapping
/// sections with a short lock timeout, producing an arbitrary mix of
/// successful commits, timed-out selections/updates, staged-then-aborted
/// transactions and commit-time failures. Once the storm subsides, the
/// lock table must be **empty** — `locked_pages() == 0` — and the store
/// fully usable: no execution path (timeout, abort, upgrade deadlock,
/// empty commit, drop-without-finish) may strand a page lock or a free
/// lock-table entry.
#[test]
fn lock_storm_leaves_an_empty_lock_table() {
    let xml = sectioned_xml(3, 80, "");
    let store = Shard::open(
        PagedDoc::parse_str(&xml, PageConfig::new(32, 80).unwrap()).unwrap(),
        Wal::in_memory(),
        StoreConfig {
            ancestor_mode: AncestorLockMode::Delta,
            lock_timeout: Duration::from_millis(30),
            validate_on_commit: false,
            ..StoreConfig::default()
        },
    );
    let committed = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    // Round 0 holds every thread between its selection and its insert
    // until all eight have selected: at least two threads then hold a
    // read lock on one section's page and each needs the write lock, so
    // the storm has a conflict however fast a commit is.
    let selected = Barrier::new(8);
    std::thread::scope(|scope| {
        for thread in 0..8u64 {
            let store = &store;
            let committed = &committed;
            let failed = &failed;
            let selected = &selected;
            scope.spawn(move || {
                let frag = mbxq_xml::Document::parse_fragment("<p/>").unwrap();
                for round in 0..25u64 {
                    // Threads rotate over 3 shared sections → constant
                    // read/write overlap and upgrade deadlocks.
                    let section = (thread + round) % 3;
                    let path = XPath::parse(&format!("/root/s{section}")).unwrap();
                    let all = XPath::parse(&format!("/root/s{section}/p")).unwrap();
                    let mut t = store.begin();
                    let target = t.select(&path).map(|found| found.first().copied());
                    if round == 0 {
                        selected.wait();
                    }
                    let staged = (|| {
                        let target = target.map_err(|_| ())?.ok_or(())?;
                        match round % 3 {
                            0 => t
                                .insert(InsertPosition::LastChildOf(target), &frag)
                                .map_err(|_| ())?,
                            1 => {
                                let ps = t.select(&all).map_err(|_| ())?;
                                if let Some(&p) = ps.get(round as usize % ps.len().max(1)) {
                                    t.delete(p).map_err(|_| ())?;
                                }
                            }
                            _ => {
                                let ps = t.select(&all).map_err(|_| ())?;
                                if let Some(&p) = ps.first() {
                                    t.set_attribute(
                                        p,
                                        &mbxq::QName::local("touched"),
                                        &format!("t{thread}r{round}"),
                                    )
                                    .map_err(|_| ())?;
                                }
                            }
                        }
                        Ok::<(), ()>(())
                    })();
                    match staged {
                        Err(()) => {
                            failed.fetch_add(1, Ordering::Relaxed);
                            if round % 2 == 0 {
                                t.abort();
                            } else {
                                drop(t); // the Drop guard must clean up too
                            }
                        }
                        Ok(()) => {
                            if round % 7 == 6 {
                                t.abort(); // staged work thrown away
                            } else if t.commit().is_ok() {
                                committed.fetch_add(1, Ordering::Relaxed);
                            } else {
                                failed.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
            });
        }
    });
    assert_eq!(
        store.locked_pages(),
        0,
        "the lock table must be empty after the storm \
         ({} commits, {} failures)",
        committed.load(Ordering::Relaxed),
        failed.load(Ordering::Relaxed)
    );
    assert!(
        committed.load(Ordering::Relaxed) > 0 && failed.load(Ordering::Relaxed) > 0,
        "the storm must produce both successes and failures to mean anything \
         ({} commits, {} failures)",
        committed.load(Ordering::Relaxed),
        failed.load(Ordering::Relaxed)
    );
    // The table being empty must also mean every page is acquirable: one
    // transaction locks a node in each section back-to-back.
    let mut sweep = store.begin();
    for s in 0..3 {
        let path = XPath::parse(&format!("/root/s{s}")).unwrap();
        let target = sweep.select(&path).unwrap()[0];
        let frag = mbxq_xml::Document::parse_fragment("<p id=\"sweep\"/>").unwrap();
        sweep
            .insert(InsertPosition::LastChildOf(target), &frag)
            .unwrap();
    }
    sweep.commit().unwrap();
    assert_eq!(store.locked_pages(), 0);
    mbxq_storage::invariants::check_paged(store.snapshot().as_ref()).unwrap();
}

/// Morsel-parallel queries racing the full maintenance surface: three
/// query threads run forced-parallel tiny-morsel scans on the store's
/// shared worker pool while two writers commit bursts and a maintenance
/// thread alternates checkpoints and vacuums. Every parallel scan pins
/// a snapshot and is checked against the sequential scan of the *same*
/// snapshot — publication, page reclamation and pool scheduling must
/// never let a morsel see a different document than the coordinator.
/// Afterwards the lock table must be empty and the store fully usable.
#[test]
fn parallel_queries_race_commits_checkpoint_and_vacuum() {
    let xml = sectioned_xml(4, 120, "");
    let store = Shard::open(
        PagedDoc::parse_str(&xml, PageConfig::new(64, 80).unwrap()).unwrap(),
        Wal::in_memory(),
        StoreConfig {
            ancestor_mode: AncestorLockMode::Delta,
            lock_timeout: Duration::from_millis(150),
            validate_on_commit: false,
            query_threads: 3,
        },
    );
    let stop = AtomicBool::new(false);
    let queries_run = AtomicU64::new(0);
    let morsels = AtomicU64::new(0);
    let commits = AtomicU64::new(0);
    let maintenance = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for r in 0..3usize {
            let store = &store;
            let stop = &stop;
            let queries_run = &queries_run;
            let morsels = &morsels;
            scope.spawn(move || {
                let paths = ["/root/s0/p", "//p", "/root/*", "//p[@touched]"];
                let pool = store.query_pool().expect("query_threads is configured");
                let mut i = r;
                while !stop.load(Ordering::Relaxed) {
                    let xp = XPath::parse(paths[i % paths.len()]).unwrap();
                    let snap = store.snapshot();
                    let stats = EvalStats::default();
                    let par = xp
                        .select_from_root_opts(
                            snap.as_ref(),
                            &EvalOptions::new()
                                .pool(pool)
                                .ablation(Ablation {
                                    // The staircase arm scans; the name
                                    // index would probe from one context
                                    // row, which never splits.
                                    axis: AxisChoice::ForceStaircase,
                                    par: ParChoice::ForceParallel,
                                    ..Default::default()
                                })
                                .stats(&stats),
                        )
                        .unwrap();
                    morsels.fetch_add(stats.morsels.get(), Ordering::Relaxed);
                    let seq = xp
                        .select_from_root_opts(
                            snap.as_ref(),
                            &EvalOptions::new().ablation(Ablation {
                                par: ParChoice::ForceSequential,
                                ..Default::default()
                            }),
                        )
                        .unwrap();
                    assert_eq!(par, seq, "parallel scan diverged on a pinned snapshot");
                    queries_run.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            });
        }
        for w in 0..2usize {
            let store = &store;
            let stop = &stop;
            let commits = &commits;
            scope.spawn(move || {
                let path = XPath::parse(&format!("/root/s{w}")).unwrap();
                let all = XPath::parse(&format!("/root/s{w}/p")).unwrap();
                let frag = Document::parse_fragment("<p/>").unwrap();
                let mut round = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    round += 1;
                    let mut t = store.begin();
                    let staged = (|| {
                        let target = t
                            .select(&path)
                            .map_err(|_| ())?
                            .first()
                            .copied()
                            .ok_or(())?;
                        match round % 3 {
                            0 => t
                                .insert(InsertPosition::LastChildOf(target), &frag)
                                .map_err(|_| ())?,
                            1 => {
                                let ps = t.select(&all).map_err(|_| ())?;
                                if ps.len() > 40 {
                                    t.delete(ps[round as usize % ps.len()]).map_err(|_| ())?;
                                }
                            }
                            _ => {
                                let ps = t.select(&all).map_err(|_| ())?;
                                if let Some(&p) = ps.first() {
                                    t.set_attribute(
                                        p,
                                        &mbxq::QName::local("touched"),
                                        &format!("w{w}r{round}"),
                                    )
                                    .map_err(|_| ())?;
                                }
                            }
                        }
                        Ok::<(), ()>(())
                    })();
                    if staged.is_ok() && t.commit().is_ok() {
                        commits.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        {
            let store = &store;
            let stop = &stop;
            let maintenance = &maintenance;
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if store.checkpoint().is_ok() {
                        maintenance.fetch_add(1, Ordering::Relaxed);
                    }
                    if store.vacuum().is_ok() {
                        maintenance.fetch_add(1, Ordering::Relaxed);
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            });
        }
        std::thread::sleep(Duration::from_millis(400));
        stop.store(true, Ordering::Relaxed);
    });
    assert_eq!(
        store.locked_pages(),
        0,
        "the lock table must be empty after the storm \
         ({} queries, {} commits, {} maintenance passes)",
        queries_run.load(Ordering::Relaxed),
        commits.load(Ordering::Relaxed),
        maintenance.load(Ordering::Relaxed)
    );
    assert!(
        morsels.load(Ordering::Relaxed) > 1,
        "forced-parallel scans must split into morsels"
    );
    assert!(
        queries_run.load(Ordering::Relaxed) > 0 && commits.load(Ordering::Relaxed) > 0,
        "the storm must include both parallel queries and commits \
         ({} queries, {} commits)",
        queries_run.load(Ordering::Relaxed),
        commits.load(Ordering::Relaxed)
    );
    // The store must be fully usable afterwards: a sweep transaction
    // touches every section, then the invariants are re-checked.
    let mut sweep = store.begin();
    for s in 0..4 {
        let path = XPath::parse(&format!("/root/s{s}")).unwrap();
        let target = sweep.select(&path).unwrap()[0];
        let frag = Document::parse_fragment("<p id=\"sweep\"/>").unwrap();
        sweep
            .insert(InsertPosition::LastChildOf(target), &frag)
            .unwrap();
    }
    sweep.commit().unwrap();
    assert_eq!(store.locked_pages(), 0);
    mbxq_storage::invariants::check_paged(store.snapshot().as_ref()).unwrap();
}

#[test]
fn aborts_release_locks_for_others() {
    let xml = sectioned_xml(1, 50, "");
    let store = Shard::open(
        PagedDoc::parse_str(&xml, PageConfig::new(64, 80).unwrap()).unwrap(),
        Wal::in_memory(),
        StoreConfig {
            ancestor_mode: AncestorLockMode::Delta,
            lock_timeout: Duration::from_millis(300),
            validate_on_commit: false,
            ..StoreConfig::default()
        },
    );
    let path = XPath::parse("/root/s0").unwrap();
    let frag = Document::parse_fragment("<p/>").unwrap();
    for _ in 0..20 {
        // Writer A stages and aborts.
        let mut a = store.begin();
        let ta = a.select(&path).unwrap()[0];
        a.insert(InsertPosition::LastChildOf(ta), &frag).unwrap();
        a.abort();
        // Writer B must proceed immediately.
        let mut b = store.begin();
        let tb = b.select(&path).unwrap()[0];
        b.insert(InsertPosition::LastChildOf(tb), &frag).unwrap();
        b.commit().unwrap();
    }
    assert_eq!(store.snapshot().used_count(), 52 + 20);
}
