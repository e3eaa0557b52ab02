//! Crash-injection property test for recovery across a checkpoint
//! boundary (seeded-loop style, like the rest of the suite).
//!
//! Each seed drives a deterministic random workload — batches of
//! inserts, deletes and attribute writes, with a WAL checkpoint taken at
//! a random point in the middle — twice: once intact, once with a crash
//! budget armed at a random cumulative-I/O offset. Whatever the crash
//! tears (a trailing commit record, or the checkpoint rewrite itself),
//! recovery from the surviving log bytes must reproduce exactly the last
//! successfully committed state: commits before the checkpoint, the
//! checkpoint truncation, and commits after it all have to line up,
//! including post-checkpoint deletes of pre-checkpoint nodes (which only
//! work if checkpoints preserve node ids).

mod common;

use common::TestRng;
use mbxq::{
    AncestorLockMode, InsertPosition, PageConfig, PagedDoc, Shard, StoreConfig, TreeView, XPath,
};
use mbxq_txn::recover::recover;
use mbxq_txn::wal::Wal;
use mbxq_xml::Document;
use std::time::Duration;

const GENESIS: &str = "<root>\
    <s0><p id=\"a0\"/><p id=\"a1\"/></s0>\
    <s1><p id=\"b0\"/><p id=\"b1\"/></s1>\
    <s2><p id=\"c0\"/><p id=\"c1\"/></s2>\
    </root>";

fn cfg() -> PageConfig {
    PageConfig::new(16, 75).unwrap()
}

fn open_store(crash_at: Option<usize>) -> Shard {
    let doc = PagedDoc::parse_str(GENESIS, cfg()).unwrap();
    let mut wal = Wal::in_memory();
    if let Some(limit) = crash_at {
        wal.crash_after_bytes(limit);
    }
    Shard::open(
        doc,
        wal,
        StoreConfig {
            ancestor_mode: AncestorLockMode::Delta,
            lock_timeout: Duration::from_millis(500),
            validate_on_commit: true,
            ..StoreConfig::default()
        },
    )
}

/// Runs the seed's workload until completion or the injected crash.
/// Returns the XML of the last successfully committed state and the raw
/// WAL bytes a recovery process would find.
fn run_workload(seed: u64, crash_at: Option<usize>) -> (String, Vec<u8>) {
    let mut rng = TestRng::new(seed);
    let store = open_store(crash_at);
    let batches = 6 + rng.below(4);
    let checkpoint_at = 1 + rng.below(batches - 1);
    let mut last_committed = mbxq_storage::serialize::to_xml(store.snapshot().as_ref()).unwrap();
    let all_p = XPath::parse("//p").unwrap();

    'work: for batch in 0..batches {
        if batch == checkpoint_at && store.checkpoint().is_err() {
            break 'work; // crash while writing the checkpoint
        }
        let mut t = store.begin();
        let n_ops = 1 + rng.below(3);
        for op in 0..n_ops {
            match rng.below(4) {
                // Insert a fresh paragraph under a random section.
                0 | 1 => {
                    let section = rng.below(3);
                    let path = XPath::parse(&format!("/root/s{section}")).unwrap();
                    let target = t.select(&path).unwrap()[0];
                    let frag = Document::parse_fragment(&format!(
                        "<p id=\"g{seed}x{batch}x{op}\"><t>v</t></p>"
                    ))
                    .unwrap();
                    t.insert(InsertPosition::LastChildOf(target), &frag)
                        .unwrap();
                }
                // Delete a random paragraph — possibly one created (or
                // checkpointed) many batches ago.
                2 => {
                    let victims = t.select(&all_p).unwrap();
                    if !victims.is_empty() {
                        let v = victims[rng.below(victims.len())];
                        t.delete(v).unwrap();
                    }
                }
                // Rewrite an attribute on a random paragraph.
                _ => {
                    let targets = t.select(&all_p).unwrap();
                    if !targets.is_empty() {
                        let n = targets[rng.below(targets.len())];
                        t.set_attribute(
                            n,
                            &mbxq::QName::local("id"),
                            &format!("r{seed}x{batch}x{op}"),
                        )
                        .unwrap();
                    }
                }
            }
        }
        if t.commit().is_err() {
            break 'work; // crash during the commit I/O
        }
        last_committed = mbxq_storage::serialize::to_xml(store.snapshot().as_ref()).unwrap();
    }

    let raw = store.wal_raw().unwrap();
    (last_committed, raw)
}

#[test]
fn recovery_across_checkpoints_reproduces_the_committed_prefix() {
    for seed in 0..10u64 {
        // Intact run first: recovery must reproduce the final state, and
        // its log length bounds the crash offsets worth probing (the
        // cumulative I/O also covers bytes discarded by the checkpoint
        // truncation, hence the 3x headroom).
        let (final_xml, intact_raw) = run_workload(seed, None);
        let recovered = recover(GENESIS, cfg(), &intact_raw)
            .unwrap_or_else(|e| panic!("seed {seed}: intact recovery failed: {e}"));
        assert_eq!(
            mbxq_storage::serialize::to_xml(&recovered).unwrap(),
            final_xml,
            "seed {seed}: intact recovery diverged"
        );

        let mut rng = TestRng::new(seed ^ 0xdead_beef);
        let upper = intact_raw.len() * 3 + 64;
        for probe in 0..6 {
            let crash_at = rng.below(upper);
            let (expected, raw) = run_workload(seed, Some(crash_at));
            let recovered = recover(GENESIS, cfg(), &raw).unwrap_or_else(|e| {
                panic!("seed {seed} probe {probe} (crash at {crash_at}): recovery failed: {e}")
            });
            mbxq_storage::invariants::check_paged(&recovered).unwrap();
            assert_eq!(
                mbxq_storage::serialize::to_xml(&recovered).unwrap(),
                expected,
                "seed {seed} probe {probe}: crash at byte {crash_at} lost or invented a commit"
            );
        }
    }
}

/// Regression: deleting an element between two text runs leaves two
/// *adjacent* text tuples, which XML text would coalesce on reparse. A
/// checkpoint taken in that state must still be loadable (it truncated
/// the log — failure here means the store is permanently
/// unrecoverable), and both text tuples must keep their own node ids so
/// post-checkpoint records can address them.
#[test]
fn checkpoint_survives_adjacent_text_tuples() {
    let genesis = "<root><d>hello <kw/> world</d></root>";
    let store = Shard::open(
        PagedDoc::parse_str(genesis, cfg()).unwrap(),
        Wal::in_memory(),
        StoreConfig {
            ancestor_mode: AncestorLockMode::Delta,
            lock_timeout: Duration::from_millis(500),
            validate_on_commit: true,
            ..StoreConfig::default()
        },
    );
    let mut t = store.begin();
    let kw = t.select(&XPath::parse("//kw").unwrap()).unwrap();
    t.delete(kw[0]).unwrap();
    t.commit().unwrap();
    store.checkpoint().unwrap();

    // Address the SECOND of the now-adjacent text tuples by node id.
    let second_text = {
        let snap = store.snapshot();
        let d_pre = 1u64; // root=0, d=1, "hello "=2, " world"=3 (kw deleted)
        let end = snap.region_end(d_pre);
        let mut texts = Vec::new();
        let mut p = d_pre + 1;
        while let Some(q) = snap.next_used_at_or_after(p) {
            if q >= end {
                break;
            }
            texts.push(snap.pre_to_node(q).unwrap());
            p = q + 1;
        }
        assert_eq!(texts.len(), 2, "two separate text tuples must remain");
        texts[1]
    };
    let mut t = store.begin();
    t.update_value(second_text, " there").unwrap();
    t.commit().unwrap();

    let live = mbxq_storage::serialize::to_xml(store.snapshot().as_ref()).unwrap();
    assert_eq!(live, "<root><d>hello  there</d></root>");
    let recovered = recover(genesis, cfg(), &store.wal_raw().unwrap())
        .expect("checkpoint with adjacent text tuples must stay recoverable");
    mbxq_storage::invariants::check_paged(&recovered).unwrap();
    assert_eq!(mbxq_storage::serialize::to_xml(&recovered).unwrap(), live);
}

/// Crash injection landing *inside group-commit batches*: several
/// writers commit concurrently (so WAL flushes carry multi-record
/// batches whenever the race allows), with a crash budget armed at a
/// random cumulative-I/O offset. The boundary can cut anywhere — before
/// a batch, between two records of one batch, or mid-record. Required
/// outcome, for every seed and probe:
///
/// * **all-or-nothing per commit, even inside a batch** — recovery must
///   reproduce a state containing *exactly* the transactions whose
///   `commit()` reported success: a torn record never half-applies, a
///   fully-flushed record is never lost, and one batch member's crash
///   never takes down a batch sibling that was flushed before the cut;
/// * the recovered document passes the full invariant check.
#[test]
fn crash_inside_group_commit_batches_keeps_per_commit_atomicity() {
    const WRITERS: usize = 4;
    let genesis = common::sectioned_xml(WRITERS, 30, "");
    let cfg = PageConfig::new(32, 80).unwrap();

    // Calibrate the crash offsets against an intact concurrent run.
    let intact_len = {
        let store = Shard::open(
            PagedDoc::parse_str(&genesis, cfg).unwrap(),
            Wal::in_memory(),
            StoreConfig {
                ancestor_mode: AncestorLockMode::Delta,
                lock_timeout: Duration::from_secs(5),
                validate_on_commit: false,
                ..StoreConfig::default()
            },
        );
        run_concurrent_writers(&store, WRITERS, 0);
        store.wal_raw().unwrap().len()
    };

    let mut rng = TestRng::new(0xba7c4);
    for probe in 0..8 {
        let crash_at = 1 + rng.below(intact_len);
        let store = Shard::open(
            PagedDoc::parse_str(&genesis, cfg).unwrap(),
            {
                let mut wal = Wal::in_memory();
                wal.crash_after_bytes(crash_at);
                wal
            },
            StoreConfig {
                ancestor_mode: AncestorLockMode::Delta,
                lock_timeout: Duration::from_secs(5),
                validate_on_commit: false,
                ..StoreConfig::default()
            },
        );
        let succeeded = run_concurrent_writers(&store, WRITERS, probe);
        assert_eq!(store.locked_pages(), 0, "probe {probe}: stranded locks");
        let recovered = recover(&genesis, cfg, &store.wal_raw().unwrap()).unwrap_or_else(|e| {
            panic!("probe {probe} (crash at {crash_at}): recovery failed: {e}")
        });
        mbxq_storage::invariants::check_paged(&recovered).unwrap();
        let recovered_xml = mbxq_storage::serialize::to_xml(&recovered).unwrap();
        // Exactly the successful commits — no more, no fewer.
        for (id, ok) in &succeeded {
            assert_eq!(
                recovered_xml.contains(id.as_str()),
                *ok,
                "probe {probe} (crash at {crash_at}): commit {id} reported \
                 success={ok} but recovery says otherwise"
            );
        }
    }
}

/// Spawns `writers` threads, each committing a run of single-insert
/// transactions with globally unique ids into its own section. Returns
/// `(id, commit-reported-success)` for every attempted transaction.
fn run_concurrent_writers(store: &Shard, writers: usize, tag: usize) -> Vec<(String, bool)> {
    let results = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for w in 0..writers {
            let store = &store;
            let results = &results;
            scope.spawn(move || {
                let path = XPath::parse(&format!("/root/s{w}")).unwrap();
                for i in 0..10 {
                    let id = format!("b{tag}w{w}i{i}");
                    let mut t = store.begin();
                    let target = t.select(&path).unwrap()[0];
                    let frag = Document::parse_fragment(&format!("<p id=\"{id}\"/>")).unwrap();
                    t.insert(InsertPosition::LastChildOf(target), &frag)
                        .unwrap();
                    let ok = t.commit().is_ok();
                    results.lock().unwrap().push((id, ok));
                }
            });
        }
    });
    results.into_inner().unwrap()
}

#[test]
fn checkpoint_shrinks_the_log_and_preserves_pre_checkpoint_nodes() {
    let store = open_store(None);
    let people = XPath::parse("/root/s0").unwrap();
    for i in 0..5 {
        let mut t = store.begin();
        let target = t.select(&people).unwrap()[0];
        let frag = Document::parse_fragment(&format!(
            "<p id=\"pre{i}\"><t>some recorded payload {i}</t></p>"
        ))
        .unwrap();
        t.insert(InsertPosition::LastChildOf(target), &frag)
            .unwrap();
        t.commit().unwrap();
    }
    // A churny workload: the log records every overwrite, the state
    // keeps only the last — the case checkpointing exists for.
    for i in 0..25 {
        let mut t = store.begin();
        let target = t.select(&XPath::parse("//p[@id='pre0']").unwrap()).unwrap();
        t.set_attribute(
            target[0],
            &mbxq::QName::local("rev"),
            &format!("revision number {i}"),
        )
        .unwrap();
        t.commit().unwrap();
    }
    let info = store.checkpoint().unwrap();
    assert!(
        info.wal_bytes_after < info.wal_bytes_before,
        "thirty commits must outweigh one checkpoint of this small doc: {info:?}"
    );
    // Delete a node that only the checkpoint (not the genesis XML or any
    // surviving commit record) knows about.
    let mut t = store.begin();
    let victims = t.select(&XPath::parse("//p[@id='pre3']").unwrap()).unwrap();
    t.delete(victims[0]).unwrap();
    t.commit().unwrap();

    let live = mbxq_storage::serialize::to_xml(store.snapshot().as_ref()).unwrap();
    let recovered = recover(GENESIS, cfg(), &store.wal_raw().unwrap()).unwrap();
    assert_eq!(mbxq_storage::serialize::to_xml(&recovered).unwrap(), live);
    assert!(!live.contains("pre3"));
    assert!(live.contains("pre2") && live.contains("pre4"));
}

/// Multi-shard catalog crash property. Each seed opens a durable
/// catalog of three documents, arms a crash budget in one random
/// shard's WAL, and drives random op batches (inserts, deletes,
/// attribute rewrites, per-shard checkpoints) across all shards until
/// the injected crash fires — at which point the whole process is
/// treated as dead. On top of the torn WAL, the "crashed" directory
/// gets the residue of an interrupted create/drop: a stray
/// `manifest.tmp` and an orphan `shard-*.wal`. Reopening the catalog
/// must reproduce exactly the last committed state of every shard —
/// shards the crash never touched lose nothing, the torn shard recovers
/// its committed prefix, and the artifacts are swept away.
#[test]
fn catalog_recovery_reproduces_every_shard() {
    use mbxq::{Catalog, CatalogConfig};

    const SHARDS: usize = 3;
    let config = CatalogConfig {
        store: StoreConfig {
            ancestor_mode: AncestorLockMode::Delta,
            lock_timeout: Duration::from_millis(500),
            validate_on_commit: true,
            ..StoreConfig::default()
        },
        page: cfg(),
    };
    let genesis = |d: usize| {
        format!(
            "<root><s0><p id=\"d{d}a\"/></s0><s1><p id=\"d{d}b\"/><p id=\"d{d}c\"/></s1></root>"
        )
    };

    // One intact run to bound the crash offsets worth probing (3x
    // headroom: the cumulative budget also counts checkpoint-discarded
    // bytes, as in the single-store test above).
    let run = |seed: u64, dir: &std::path::Path, crash_at: Option<usize>| -> (Vec<String>, usize) {
        let _ = std::fs::remove_dir_all(dir);
        let cat = Catalog::open(dir, config).unwrap();
        let mut rng = TestRng::new(seed ^ 0xca7a_1095);
        let shards: Vec<_> = (0..SHARDS)
            .map(|d| cat.create_doc(&format!("doc{d}"), &genesis(d)).unwrap())
            .collect();
        let victim = rng.below(SHARDS);
        if let Some(limit) = crash_at {
            shards[victim].wal_crash_after_bytes(limit);
        }
        let mut last: Vec<String> = shards
            .iter()
            .map(|s| mbxq_storage::serialize::to_xml(s.snapshot().as_ref()).unwrap())
            .collect();
        let mut wrote = 0usize;
        let all_p = XPath::parse("//p").unwrap();
        'work: for batch in 0..12 {
            let d = rng.below(SHARDS);
            let shard = &shards[d];
            if rng.below(5) == 0 {
                // Per-shard checkpoint: truncates THIS shard's log only.
                if shard.checkpoint().is_err() {
                    break 'work; // crash while rewriting the victim's log
                }
                continue;
            }
            let mut t = shard.begin();
            for op in 0..1 + rng.below(3) {
                match rng.below(4) {
                    0 | 1 => {
                        let section = rng.below(2);
                        let target = t
                            .select(&XPath::parse(&format!("/root/s{section}")).unwrap())
                            .unwrap()[0];
                        let frag = Document::parse_fragment(&format!(
                            "<p id=\"d{d}x{batch}x{op}\"><t>v</t></p>"
                        ))
                        .unwrap();
                        t.insert(InsertPosition::LastChildOf(target), &frag)
                            .unwrap();
                    }
                    2 => {
                        let victims = t.select(&all_p).unwrap();
                        if !victims.is_empty() {
                            t.delete(victims[rng.below(victims.len())]).unwrap();
                        }
                    }
                    _ => {
                        let targets = t.select(&all_p).unwrap();
                        if !targets.is_empty() {
                            let n = targets[rng.below(targets.len())];
                            t.set_attribute(
                                n,
                                &mbxq::QName::local("id"),
                                &format!("r{d}x{batch}x{op}"),
                            )
                            .unwrap();
                        }
                    }
                }
            }
            match t.commit() {
                Ok(_) => {
                    last[d] = mbxq_storage::serialize::to_xml(shard.snapshot().as_ref()).unwrap();
                    wrote += 1;
                }
                Err(_) => break 'work, // the armed shard's WAL tore
            }
        }
        let _ = wrote;
        let total: usize = shards
            .iter()
            .map(|s| s.wal_raw().map_or(0, |r| r.len()))
            .sum();
        (last, total)
    };

    for seed in 0..5u64 {
        let dir =
            std::env::temp_dir().join(format!("mbxq-catalog-crash-{}-{seed}", std::process::id()));
        let (_, intact_total) = run(seed, &dir, None);
        let mut rng = TestRng::new(seed ^ 0xdead_cafe);
        for probe in 0..4 {
            let crash_at = 1 + rng.below(intact_total * 3 + 64);
            let (expected, _) = run(seed, &dir, Some(crash_at));
            // Residue of an interrupted create/drop and manifest rewrite.
            std::fs::write(dir.join("manifest.tmp"), b"torn manifest rewrite").unwrap();
            std::fs::write(dir.join("shard-777.wal"), b"orphan of a crashed create").unwrap();

            let cat = Catalog::open(&dir, config).unwrap_or_else(|e| {
                panic!("seed {seed} probe {probe} (crash at {crash_at}): reopen failed: {e}")
            });
            assert_eq!(
                cat.doc_names(),
                (0..SHARDS).map(|d| format!("doc{d}")).collect::<Vec<_>>(),
                "seed {seed} probe {probe}: manifest lost a document"
            );
            for (d, want) in expected.iter().enumerate() {
                let shard = cat.shard(&format!("doc{d}")).unwrap();
                let got = mbxq_storage::serialize::to_xml(shard.snapshot().as_ref()).unwrap();
                assert_eq!(
                    &got, want,
                    "seed {seed} probe {probe}: doc{d} diverged after crash at {crash_at}"
                );
                mbxq_storage::invariants::check_paged(shard.snapshot().as_ref()).unwrap();
            }
            assert!(
                !dir.join("manifest.tmp").exists(),
                "reopen must discard the torn manifest rewrite"
            );
            assert!(
                !dir.join("shard-777.wal").exists(),
                "reopen must sweep orphan shard WALs"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A shard WAL moved under another document's slot must fail recovery
/// (the checkpoint dump carries the document identity), not silently
/// serve the wrong document.
#[test]
fn catalog_rejects_shuffled_shard_wals() {
    use mbxq::{Catalog, CatalogConfig};

    let dir = std::env::temp_dir().join(format!("mbxq-catalog-shuffle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = CatalogConfig {
        store: StoreConfig::default(),
        page: cfg(),
    };
    {
        let cat = Catalog::open(&dir, config).unwrap();
        cat.create_doc("alpha", "<root><p id=\"a\"/></root>")
            .unwrap();
        cat.create_doc("beta", "<root><p id=\"b\"/></root>")
            .unwrap();
    }
    // Swap the two shard WAL files behind the manifest's back.
    let a = dir.join("shard-0.wal");
    let b = dir.join("shard-1.wal");
    let tmp = dir.join("shard-swap.tmp");
    std::fs::rename(&a, &tmp).unwrap();
    std::fs::rename(&b, &a).unwrap();
    std::fs::rename(&tmp, &b).unwrap();
    let err = Catalog::open(&dir, config).unwrap_err();
    assert!(
        err.to_string().contains("belongs to document"),
        "expected an identity mismatch, got: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Appends one `<p id="{id}"/>` under `/root/s0` and commits.
fn commit_p(shard: &Shard, id: &str) -> Result<(), mbxq_txn::TxnError> {
    let mut t = shard.begin();
    let s0 = t.select(&XPath::parse("/root/s0").unwrap()).unwrap()[0];
    let frag = Document::parse_fragment(&format!("<p id=\"{id}\"/>")).unwrap();
    t.insert(InsertPosition::LastChildOf(s0), &frag).unwrap();
    t.commit().map(drop)
}

/// A crash tears a commit record of a durable catalog; the catalog is
/// reopened and commits again, and that commit is acknowledged. The next
/// reopen must still have it: the reopened log appends behind its
/// decodable prefix, not behind the torn bytes that recovery stops at.
#[test]
fn a_commit_after_a_torn_tail_survives_the_next_reopen() {
    use mbxq::{Catalog, CatalogConfig};

    let config = CatalogConfig {
        store: StoreConfig::default(),
        page: cfg(),
    };
    let dir = std::env::temp_dir().join(format!("mbxq-torn-reopen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let xml_of = |cat: &Catalog| {
        let shard = cat.shard("d").unwrap();
        mbxq_storage::serialize::to_xml(shard.snapshot().as_ref()).unwrap()
    };
    {
        let cat = Catalog::open(&dir, config).unwrap();
        let shard = cat.create_doc("d", GENESIS).unwrap();
        commit_p(&shard, "a").unwrap();
        // The next record is torn after 5 bytes.
        shard.wal_crash_after_bytes(shard.wal_raw().unwrap().len() + 5);
        assert!(commit_p(&shard, "torn").is_err());
    }
    {
        let cat = Catalog::open(&dir, config).unwrap();
        let xml = xml_of(&cat);
        assert!(xml.contains("\"a\"") && !xml.contains("torn"), "{xml}");
        commit_p(&cat.shard("d").unwrap(), "b").expect("acknowledged");
    }
    let cat = Catalog::open(&dir, config).unwrap();
    let xml = xml_of(&cat);
    assert!(
        xml.contains("\"a\"") && xml.contains("\"b\""),
        "an acknowledged commit was lost: {xml}"
    );
    drop(cat);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A checkpoint pins a version and writes its dump with no lock held, so
/// a commit that starts after the checkpoint began completes before the
/// checkpoint returns, and lands in the new log behind the checkpoint.
#[test]
fn a_commit_completes_while_a_checkpoint_writes_its_dump() {
    use mbxq_xmark::XMarkConfig;
    use std::sync::Arc;
    use std::time::Instant;

    let xml = mbxq_xmark::generate(&XMarkConfig::scaled(0.05, 1));
    let cfg = PageConfig::new(256, 80).unwrap();
    let doc = PagedDoc::parse_str(&xml, cfg).unwrap();
    let shard = Shard::open(doc, Wal::in_memory(), StoreConfig::default());
    let (checkpointed, committed) = std::thread::scope(|s| {
        let checkpoint = s.spawn(|| {
            shard.checkpoint().unwrap();
            Instant::now()
        });
        // The checkpoint has begun once it pins the current version: its
        // pin is the one reference to the version's document besides the
        // version itself and this probe.
        loop {
            let probe = shard.snapshot();
            if Arc::strong_count(&probe) > 2 {
                break;
            }
            assert!(
                !checkpoint.is_finished(),
                "the checkpoint returned before it was seen to begin"
            );
            drop(probe);
            std::thread::yield_now();
        }
        let mut t = shard.begin();
        let regions = t.select(&XPath::parse("/site/regions").unwrap()).unwrap()[0];
        let frag = Document::parse_fragment("<during/>").unwrap();
        t.insert(InsertPosition::LastChildOf(regions), &frag)
            .unwrap();
        t.commit().unwrap();
        let committed = Instant::now();
        (checkpoint.join().unwrap(), committed)
    });
    assert!(
        committed < checkpointed,
        "the commit waited for the checkpoint to return"
    );
    let raw = shard.wal_raw().unwrap();
    let records = mbxq_txn::wal::decode_log(&raw).unwrap();
    assert_eq!(records.len(), 2, "the checkpoint and the commit behind it");
    assert!(matches!(
        records[0],
        mbxq_txn::wal::WalRecord::Checkpoint { .. }
    ));
    let recovered = recover("<unused/>", cfg, &raw).unwrap();
    let live = mbxq_storage::serialize::to_xml(shard.snapshot().as_ref()).unwrap();
    assert!(live.contains("<during/>"));
    assert_eq!(mbxq_storage::serialize::to_xml(&recovered).unwrap(), live);
}
