//! Concurrency demonstration (§3.2): several writer threads extend
//! disjoint subtrees of one document while reader threads continuously
//! query it — the scenario the commutative delta-increments make
//! possible without serializing every writer on the document root.
//!
//! The writers commit through the short-publish pipeline: validation and
//! COW page privatization happen *outside* the global lock, the WAL
//! appends ride group-commit batches, and the lock itself covers only
//! the stamp-checked pointer swap. The readers meanwhile take their
//! snapshots from a lock-free cell — they never block on the writers, no
//! matter how hard the writers hammer the store.
//!
//! First a writer sweep, with no readers: K = 1, 2 and 4 writers, each
//! on its own section, commit through a file WAL under the paper's
//! `AncestorLockMode::Delta`, and once more at K = 4 under the
//! `Exclusive` strawman, which write-locks every ancestor's page and so
//! serialises the writers on the root's. Each row prints commits/s and
//! the commit records per group-commit batch (one log write each). Then
//! four writers run again beside two readers. Every run checks that
//! each commit the store acknowledged is in the final document.
//!
//! Run with: `cargo run --release --example concurrent_editors`

use mbxq::{
    AncestorLockMode, InsertPosition, PageConfig, PagedDoc, QName, Shard, StoreConfig, TreeView,
    Wal, XPath,
};
use mbxq_xml::Document;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Sections of the document: one per writer at most.
const SECTIONS: usize = 4;
/// Commits each writer attempts per run.
const TXNS_EACH: usize = 300;

/// What one run measured.
struct Run {
    commits: usize,
    failed: usize,
    secs: f64,
    records_per_batch: f64,
    reads: u64,
}

/// `writers` threads each commit [`TXNS_EACH`] paragraph inserts into
/// their own section under `mode`, through a fresh file WAL, while
/// `readers` threads query snapshots; then every acknowledged commit is
/// checked against the final document.
fn run(xml: &str, writers: usize, mode: AncestorLockMode, readers: usize) -> Run {
    let doc = PagedDoc::parse_str(xml, PageConfig::new(256, 80).unwrap()).unwrap();
    let baseline = doc.used_count();
    let dir = std::env::temp_dir().join(format!("mbxq-editors-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let wal_path = dir.join("editors.wal");
    let _ = std::fs::remove_file(&wal_path);
    let store = Shard::open(
        doc,
        Wal::file(&wal_path).expect("open wal file"),
        StoreConfig {
            ancestor_mode: mode,
            lock_timeout: Duration::from_secs(10),
            validate_on_commit: false,
            ..StoreConfig::default()
        },
    );

    let acknowledged = Mutex::new(Vec::new());
    let failed = AtomicU64::new(0);
    let stop_readers = AtomicBool::new(false);
    let reads = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..readers {
            s.spawn(|| {
                let path = XPath::parse("//para").unwrap();
                while !stop_readers.load(Ordering::Relaxed) {
                    let snap = store.snapshot();
                    let n = path.select_from_root(snap.as_ref()).unwrap().len();
                    assert!(n >= SECTIONS * 300);
                    reads.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        let handles: Vec<_> = (0..writers)
            .map(|w| {
                let (store, acknowledged, failed) = (&store, &acknowledged, &failed);
                s.spawn(move || {
                    let path = XPath::parse(&format!("/wiki/section{w}")).unwrap();
                    for i in 0..TXNS_EACH {
                        let id = format!("s{w}new{i}");
                        let frag =
                            Document::parse_fragment(&format!("<para id=\"{id}\">edit</para>"))
                                .unwrap();
                        let mut t = store.begin();
                        let section = t.select(&path).unwrap()[0];
                        let done = t
                            .insert(InsertPosition::LastChildOf(section), &frag)
                            .and_then(|_| t.commit());
                        match done {
                            Ok(_) => acknowledged.lock().unwrap().push(id),
                            Err(_) => _ = failed.fetch_add(1, Ordering::Relaxed),
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        stop_readers.store(true, Ordering::Relaxed);
    });
    let secs = start.elapsed().as_secs_f64();

    // Every acknowledged commit is visible, and nothing else was added.
    let acknowledged = acknowledged.into_inner().unwrap();
    let final_doc = store.snapshot();
    let id = QName::local("id");
    let ids: HashSet<String> = XPath::parse("//para")
        .unwrap()
        .select_from_root(final_doc.as_ref())
        .unwrap()
        .iter()
        .filter_map(|&pre| final_doc.attribute_value(pre, &id))
        .collect();
    for id in &acknowledged {
        assert!(ids.contains(id), "acknowledged commit {id} is not visible");
    }
    let expected = baseline + 2 * acknowledged.len() as u64; // para + text each
    assert_eq!(final_doc.used_count(), expected);
    // The root's size absorbed every delta exactly once, in whatever
    // order the commits interleaved — commutativity in action.
    assert_eq!(TreeView::size(final_doc.as_ref(), 0), expected - 1);
    mbxq_storage::invariants::check_paged(final_doc.as_ref()).unwrap();

    let stats = store.group_commit_stats();
    drop((store, final_doc));
    let _ = std::fs::remove_file(&wal_path);
    let _ = std::fs::remove_dir(&dir);
    Run {
        commits: acknowledged.len(),
        failed: failed.into_inner() as usize,
        secs,
        records_per_batch: stats.records as f64 / stats.batches.max(1) as f64,
        reads: reads.into_inner(),
    }
}

fn main() {
    // One section per writer, each padded past a logical page so the
    // writers' target pages are disjoint.
    let mut xml = String::from("<wiki>");
    for w in 0..SECTIONS {
        xml.push_str(&format!("<section{w}>"));
        for i in 0..300 {
            xml.push_str(&format!("<para id=\"s{w}p{i}\"/>"));
        }
        xml.push_str(&format!("</section{w}>"));
    }
    xml.push_str("</wiki>");

    println!("writer sweep: {TXNS_EACH} commits per writer, file WAL, no readers");
    println!(
        "{:>2} {:>9} {:>8} {:>7} {:>10} {:>17}",
        "K", "mode", "commits", "failed", "commits/s", "records/batch"
    );
    let rows = [
        (1, AncestorLockMode::Delta),
        (2, AncestorLockMode::Delta),
        (4, AncestorLockMode::Delta),
        (4, AncestorLockMode::Exclusive),
    ];
    for (writers, mode) in rows {
        let r = run(&xml, writers, mode, 0);
        println!(
            "{writers:>2} {:>9} {:>8} {:>7} {:>10.0} {:>17.2}",
            format!("{mode:?}"),
            r.commits,
            r.failed,
            r.commits as f64 / r.secs,
            r.records_per_batch
        );
    }

    let r = run(&xml, SECTIONS, AncestorLockMode::Delta, 2);
    println!(
        "\n{} writer commits across {SECTIONS} threads beside two readers, \
         which completed {} consistent snapshot queries meanwhile",
        r.commits, r.reads
    );
    println!("every acknowledged commit is visible; invariant check: ok");
}
