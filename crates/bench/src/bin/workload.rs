//! Multi-threaded XMark mixed-workload driver — the concurrent-throughput
//! measurement behind the short-publish commit pipeline and group-commit
//! WAL batching. Emits `BENCH_workload.json`.
//!
//! The paper's claim (§3.2, Figure 8) is that the pre/post plane stays
//! *readable at full speed while being updated*: readers take snapshots
//! without blocking, writers lock pages — not the document — and the
//! commit's crucial stage "consists of a single I/O". This binary puts a
//! number on that under real thread-level concurrency: a grid of
//! (reader, writer) thread counts runs against one XMark store, readers
//! drawing queries from the hand-compiled Q1–Q20 plans on lock-free
//! snapshots, writers committing insert/delete/attribute bursts against
//! their regions through a **file-backed WAL**, so log I/O is real.
//!
//! Every grid point runs under both commit pipelines:
//!
//! * `short` — speculation + group commit; the global lock covers only
//!   the stamp-checked pointer swap (this PR);
//! * `long` — the previous behavior: one global lock across apply,
//!   validation, the WAL write and publish, so N writers queue for N
//!   log I/Os (the ablation baseline).
//!
//! Output per grid point: commit/read throughput, p50/p99 latencies and
//! the group-commit batching counters. Expected shape: `short` writer
//! throughput scales with writer count while `long` flattens against
//! the serialized log; reader throughput is essentially independent of
//! writer load in both (snapshots never touch a lock).
//!
//! Usage: `cargo run --release --bin workload [--smoke] [--secs N]`

use mbxq_storage::{InsertPosition, PageConfig, PagedDoc};
use mbxq_txn::wal::Wal;
use mbxq_txn::{AncestorLockMode, CommitPipeline, Store, StoreConfig};
use mbxq_xmark::rng::StdRng;
use mbxq_xmark::{generate, run_query_opts, XMarkConfig, QUERY_COUNT};
use mbxq_xml::Document;
use mbxq_xpath::{EvalOptions, XPath};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Writer target regions with their XMark item shares (matching the
/// generator's continental skew; writers cycle through them).
const REGIONS: [(&str, f64); 6] = [
    ("africa", 0.10),
    ("asia", 0.30),
    ("australia", 0.05),
    ("europe", 0.25),
    ("namerica", 0.25),
    ("samerica", 0.05),
];

/// Original `item{n}` id ranges per region, replicating the generator's
/// allocation (sequential ids, region order, last region takes the
/// remainder).
fn region_item_ranges(total: usize) -> Vec<std::ops::Range<usize>> {
    let mut ranges = Vec::with_capacity(REGIONS.len());
    let mut next = 0usize;
    for (i, &(_, share)) in REGIONS.iter().enumerate() {
        let n = if i + 1 == REGIONS.len() {
            total - next
        } else {
            (((total as f64) * share).round() as usize).min(total - next)
        };
        ranges.push(next..next + n);
        next += n;
    }
    ranges
}

/// Latency bucket for one XMark query class (Q1–Q20).
struct QueryBucket {
    q: usize,
    count: usize,
    p50_us: f64,
    p99_us: f64,
}

/// One grid point's outcome.
struct Cell {
    pipeline: &'static str,
    readers: usize,
    writers: usize,
    query_threads: usize,
    secs: f64,
    commits: u64,
    timeouts: u64,
    reads: u64,
    commit_p50_us: f64,
    commit_p99_us: f64,
    read_p50_us: f64,
    read_p99_us: f64,
    per_query: Vec<QueryBucket>,
    wal_batches: u64,
    wal_records: u64,
    wal_max_batch: u64,
}

fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)] as f64 / 1000.0 // ns → µs
}

/// Runs one grid point: `writers` writer threads and `readers` reader
/// threads hammering a fresh store shredded from `xml` for `secs`.
fn run_cell(
    xml: &str,
    pipeline: CommitPipeline,
    readers: usize,
    writers: usize,
    query_threads: usize,
    secs: f64,
    wal_path: &std::path::Path,
) -> Cell {
    let _ = std::fs::remove_file(wal_path);
    // 256-tuple pages (80 % fill, the paper's updateable-schema head
    // room): small enough that the six XMark regions land on disjoint
    // logical pages, so writers bound to different regions contend on
    // the commit pipeline — the thing being measured — rather than on
    // page locks.
    let doc =
        PagedDoc::parse_str(xml, PageConfig::new(256, 80).expect("valid")).expect("shred XMark");
    let store = Store::open(
        doc,
        Wal::file(wal_path).expect("open file WAL"),
        StoreConfig {
            ancestor_mode: AncestorLockMode::Delta,
            lock_timeout: Duration::from_millis(250),
            validate_on_commit: false,
            pipeline,
            query_threads,
            ..StoreConfig::default()
        },
    );

    let stop = AtomicBool::new(false);
    let commits = AtomicU64::new(0);
    let timeouts = AtomicU64::new(0);
    let reads = AtomicU64::new(0);
    let commit_lat = Mutex::new(Vec::<u64>::new());
    // (query number, latency ns) pairs — kept per class so p50/p99 can
    // be bucketed by Q1–Q20 after the run.
    let read_lat = Mutex::new(Vec::<(usize, u64)>::new());
    // Original items in the document (auctions use `<itemref`, so this
    // counts exactly the region items).
    let item_ranges = region_item_ranges(xml.match_indices("<item ").count());

    std::thread::scope(|s| {
        for r in 0..readers {
            let store = &store;
            let stop = &stop;
            let reads = &reads;
            let read_lat = &read_lat;
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xecad + r as u64);
                // Readers share the store's morsel pool (if configured):
                // every snapshot query below runs morsel-parallel when
                // the cost model clears it, sequential otherwise.
                let opts = match store.query_pool() {
                    Some(pool) => EvalOptions::new().pool(pool),
                    None => EvalOptions::new(),
                };
                let mut lat = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let q = 1 + rng.gen_range(0..QUERY_COUNT);
                    let t0 = Instant::now();
                    let snap = store.snapshot();
                    let out = run_query_opts(snap.as_ref(), q, &opts).expect("XMark query");
                    lat.push((q, t0.elapsed().as_nanos() as u64));
                    std::hint::black_box(out);
                    reads.fetch_add(1, Ordering::Relaxed);
                }
                read_lat.lock().unwrap().append(&mut lat);
            });
        }
        for w in 0..writers {
            let store = &store;
            let stop = &stop;
            let commits = &commits;
            let timeouts = &timeouts;
            let commit_lat = &commit_lat;
            let item_ranges = &item_ranges;
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0x17e6 + w as u64);
                let (region, _) = REGIONS[w % REGIONS.len()];
                // Anchor pool: the *interior* originals of this writer's
                // region (10 %–70 % of its id range). Region edges are
                // excluded on purpose: a region's first/last items share
                // logical pages with the neighboring region's element,
                // so edge writes would measure page-lock conflicts
                // between writers instead of the commit pipeline. All
                // inserts/updates/deletes anchor on pool items, keeping
                // each writer's lock set inside its own region.
                let range = &item_ranges[w % REGIONS.len()];
                let lo = range.start + range.len() / 10;
                let hi = range.start + (range.len() * 7) / 10;
                let mut pool: Vec<String> =
                    (lo..hi.max(lo + 1)).map(|n| format!("item{n}")).collect();
                let mut minted = 0usize; // ids this writer created
                let mut lat = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let mut t = store.begin();
                    // A burst of 1–3 mixed operations per transaction,
                    // each anchored on a pool item found by an XPath
                    // selection (the transaction's read work).
                    let burst = 1 + rng.gen_range(0..3);
                    let mut staged: Vec<(bool, String)> = Vec::new();
                    let mut staged_deletes = 0usize;
                    let mut failed = false;
                    for _ in 0..burst {
                        let anchor_id = pool[rng.gen_range(0..pool.len())].clone();
                        let sel = XPath::parse(&format!(
                            "/site/regions/{region}/item[@id='{anchor_id}']"
                        ))
                        .expect("item path");
                        let anchor = match t.select(&sel) {
                            Ok(nodes) if !nodes.is_empty() => nodes[0],
                            Ok(_) => continue, // staged delete won this anchor
                            Err(_) => {
                                failed = true;
                                break;
                            }
                        };
                        let roll = rng.gen_range(0..10);
                        let outcome = if roll < 5 {
                            // Insert a fresh item next to the anchor.
                            let id = format!("bench-w{w}-{minted}");
                            minted += 1;
                            let frag = Document::parse_fragment(&format!(
                                "<item id=\"{id}\"><name>workload item</name></item>"
                            ))
                            .expect("fragment");
                            let r = t.insert(InsertPosition::After(anchor), &frag);
                            if r.is_ok() {
                                staged.push((true, id));
                            }
                            r
                        } else if roll < 8 || pool.len() - staged_deletes <= 2 {
                            // Update: re-flag the anchor. (The pool-floor
                            // guard counts deletes already staged in this
                            // burst — they leave `pool` only at commit,
                            // but a multi-delete burst must not be able
                            // to drain it below the floor.)
                            t.set_attribute(anchor, &mbxq_xml::QName::local("featured"), "yes")
                        } else {
                            // Delete the anchor item.
                            let r = t.delete(anchor).map(drop);
                            if r.is_ok() {
                                staged.push((false, anchor_id));
                                staged_deletes += 1;
                            }
                            r
                        };
                        if outcome.is_err() {
                            failed = true;
                            break;
                        }
                    }
                    if failed || t.staged_ops() == 0 {
                        if failed {
                            timeouts.fetch_add(1, Ordering::Relaxed);
                        }
                        t.abort();
                        continue;
                    }
                    let t0 = Instant::now();
                    match t.commit() {
                        Ok(_) => {
                            lat.push(t0.elapsed().as_nanos() as u64);
                            commits.fetch_add(1, Ordering::Relaxed);
                            for (inserted, id) in staged {
                                if inserted {
                                    pool.push(id);
                                } else {
                                    pool.retain(|x| x != &id);
                                }
                            }
                        }
                        Err(_) => {
                            timeouts.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                commit_lat.lock().unwrap().append(&mut lat);
            });
        }
        let t0 = Instant::now();
        while t0.elapsed().as_secs_f64() < secs {
            std::thread::sleep(Duration::from_millis(10));
        }
        stop.store(true, Ordering::Relaxed);
    });

    assert_eq!(
        store.locked_pages(),
        0,
        "workload must not strand page locks"
    );
    mbxq_storage::invariants::check_paged(store.snapshot().as_ref())
        .expect("final state invariant-clean");

    let stats = store.group_commit_stats();
    let mut clat = commit_lat.into_inner().unwrap();
    let tagged = read_lat.into_inner().unwrap();
    clat.sort_unstable();
    // Bucket read latencies by query class, then flatten for the
    // aggregate percentiles.
    let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); QUERY_COUNT + 1];
    for &(q, ns) in &tagged {
        buckets[q].push(ns);
    }
    let per_query: Vec<QueryBucket> = buckets
        .iter_mut()
        .enumerate()
        .skip(1)
        .filter(|(_, b)| !b.is_empty())
        .map(|(q, b)| {
            b.sort_unstable();
            QueryBucket {
                q,
                count: b.len(),
                p50_us: percentile(b, 50.0),
                p99_us: percentile(b, 99.0),
            }
        })
        .collect();
    let mut rlat: Vec<u64> = tagged.iter().map(|&(_, ns)| ns).collect();
    rlat.sort_unstable();
    let _ = std::fs::remove_file(wal_path);
    Cell {
        pipeline: match pipeline {
            CommitPipeline::Short => "short",
            CommitPipeline::LongLock => "long",
        },
        readers,
        writers,
        query_threads,
        secs,
        commits: commits.load(Ordering::Relaxed),
        timeouts: timeouts.load(Ordering::Relaxed),
        reads: reads.load(Ordering::Relaxed),
        commit_p50_us: percentile(&clat, 50.0),
        commit_p99_us: percentile(&clat, 99.0),
        read_p50_us: percentile(&rlat, 50.0),
        read_p99_us: percentile(&rlat, 99.0),
        per_query,
        wal_batches: stats.batches,
        wal_records: stats.records,
        wal_max_batch: stats.max_batch,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let secs = args
        .iter()
        .position(|a| a == "--secs")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.parse().expect("--secs takes a number"))
        .unwrap_or(if smoke { 0.25 } else { 1.0 });

    let scale = if smoke { 0.002 } else { 0.02 };
    let xml = generate(&XMarkConfig::scaled(scale, 42));
    println!(
        "XMark scale {scale} ({} bytes), {}s per grid point, file-backed WAL",
        xml.len(),
        secs
    );
    let wal_path = std::env::temp_dir().join(format!("mbxq-workload-{}.wal", std::process::id()));

    // Grid rows: (pipeline, readers, writers, query_threads).
    let grid: Vec<(CommitPipeline, usize, usize, usize)> = if smoke {
        // One writer: at smoke scale every region shares a page or two,
        // so two writers would spend the whole (tiny) run in lock waits.
        // query_threads = 2 exercises the morsel pool under concurrency
        // even in CI.
        vec![(CommitPipeline::Short, 2, 1, 2)]
    } else {
        let mut g = Vec::new();
        // Readers × query-threads grid: no writers, so the delta between
        // rows is purely the morsel pool (and its sharing across reader
        // threads).
        for readers in [1, 2, 4] {
            for threads in [0, 2, 4] {
                g.push((CommitPipeline::Short, readers, 0, threads));
            }
        }
        // Writers stay ≤ 6 so each gets its own XMark region (disjoint
        // page sets; page-lock conflicts would otherwise drown the
        // commit-pipeline signal in upgrade-deadlock timeouts).
        for pipeline in [CommitPipeline::Short, CommitPipeline::LongLock] {
            for writers in [1, 2, 4, 6] {
                g.push((pipeline, 0, writers, 0)); // pure writer scaling
                g.push((pipeline, 2, writers, 0)); // mixed workload
            }
        }
        // Mixed workload with the morsel pool on: commit throughput must
        // not regress when readers also fan out across the pool.
        g.push((CommitPipeline::Short, 2, 4, 2));
        g
    };

    println!(
        "{:>6} {:>3}r {:>3}w {:>3}t {:>10} {:>9} {:>10} {:>10} {:>10} {:>9} {:>9} {:>7}",
        "mode",
        "",
        "",
        "",
        "commits/s",
        "timeouts",
        "c.p50 µs",
        "c.p99 µs",
        "reads/s",
        "r.p50 µs",
        "r.p99 µs",
        "batch"
    );
    let mut cells = Vec::new();
    for (pipeline, readers, writers, query_threads) in grid {
        let cell = run_cell(
            &xml,
            pipeline,
            readers,
            writers,
            query_threads,
            secs,
            &wal_path,
        );
        let avg_batch = if cell.wal_batches > 0 {
            cell.wal_records as f64 / cell.wal_batches as f64
        } else {
            0.0
        };
        println!(
            "{:>6} {:>3}r {:>3}w {:>3}t {:>10.0} {:>9} {:>10.1} {:>10.1} {:>10.0} {:>9.1} {:>9.1} {:>7.2}",
            cell.pipeline,
            cell.readers,
            cell.writers,
            cell.query_threads,
            cell.commits as f64 / cell.secs,
            cell.timeouts,
            cell.commit_p50_us,
            cell.commit_p99_us,
            cell.reads as f64 / cell.secs,
            cell.read_p50_us,
            cell.read_p99_us,
            avg_batch,
        );
        cells.push(cell);
    }

    // Per-query-class latency for the reader-only baselines: the rows
    // where the morsel pool's effect on individual query shapes (scan-
    // heavy Q6/Q7/Q14 vs point-lookup Q1) is cleanest.
    for c in cells.iter().filter(|c| c.writers == 0 && c.readers == 2) {
        println!(
            "per-query read latency ({} {}r {}t):",
            c.pipeline, c.readers, c.query_threads
        );
        for b in &c.per_query {
            println!(
                "  Q{:02}: n={:<6} p50={:>9.1} µs  p99={:>9.1} µs",
                b.q, b.count, b.p50_us, b.p99_us
            );
        }
    }

    if smoke {
        let c = &cells[0];
        assert!(c.commits > 0, "smoke: writers must commit");
        assert!(c.reads > 0, "smoke: readers must read");
        assert_eq!(
            c.wal_records, c.commits,
            "every commit must be durably logged exactly once"
        );
        println!("smoke mode: skipping BENCH_workload.json");
        return;
    }

    let mut json = String::from("[\n");
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            json.push_str(",\n");
        }
        let avg_batch = if c.wal_batches > 0 {
            c.wal_records as f64 / c.wal_batches as f64
        } else {
            0.0
        };
        let mut per_query = String::from("[");
        for (i, b) in c.per_query.iter().enumerate() {
            if i > 0 {
                per_query.push_str(", ");
            }
            let _ = write!(
                per_query,
                "{{\"q\": {}, \"count\": {}, \"p50_us\": {:.2}, \"p99_us\": {:.2}}}",
                b.q, b.count, b.p50_us, b.p99_us
            );
        }
        per_query.push(']');
        let _ = write!(
            json,
            "  {{\"pipeline\": \"{}\", \"readers\": {}, \"writers\": {}, \
             \"query_threads\": {}, \"secs\": {}, \
             \"commits\": {}, \"timeouts\": {}, \"commits_per_s\": {:.1}, \
             \"commit_p50_us\": {:.2}, \"commit_p99_us\": {:.2}, \
             \"reads\": {}, \"reads_per_s\": {:.1}, \
             \"read_p50_us\": {:.2}, \"read_p99_us\": {:.2}, \
             \"per_query\": {per_query}, \
             \"wal_batches\": {}, \"wal_records\": {}, \"wal_max_batch\": {}, \
             \"wal_avg_batch\": {:.3}, {host}}}",
            c.pipeline,
            c.readers,
            c.writers,
            c.query_threads,
            c.secs,
            c.commits,
            c.timeouts,
            c.commits as f64 / c.secs,
            c.commit_p50_us,
            c.commit_p99_us,
            c.reads,
            c.reads as f64 / c.secs,
            c.read_p50_us,
            c.read_p99_us,
            c.wal_batches,
            c.wal_records,
            c.wal_max_batch,
            avg_batch,
            host = mbxq_bench::host_json_fields(),
        );
    }
    json.push_str("\n]\n");
    std::fs::write("BENCH_workload.json", &json).expect("write BENCH_workload.json");
    println!("wrote BENCH_workload.json");
}
