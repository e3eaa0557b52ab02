//! Morsel-parallel execution: a work-stealing worker pool plus the
//! group-aligned morsel splitter.
//!
//! # Morsels
//!
//! A physical step's input is an `(iter, pre)` relation. The executor
//! splits it into **morsels** — contiguous row ranges aligned to
//! iteration-group boundaries — and evaluates each morsel independently
//! on the pool. Group alignment is what keeps the split invisible:
//! staircase pruning, positional predicates and per-group picks all
//! operate *within* one iteration group, so a morsel holding whole
//! groups computes exactly what the sequential operator would compute
//! for those groups. Morsel results are concatenated in morsel order —
//! which is group order, which is `(iter, pre)` order — so the merged
//! output is **bit-identical** to the sequential result.
//!
//! Scan-heavy steps with few groups (`//desc` from the root is *one*
//! group) are instead split by their horizon-pruned subtree ranges (see
//! [`mbxq_axes::descendant_scan_ranges`]): disjoint ascending pre
//! ranges partition by slot volume, and concatenating the per-chunk
//! scans in range order reproduces document order exactly.
//!
//! # The pool
//!
//! [`WorkerPool::new`]`(threads)` pins `threads - 1` persistent
//! `std::thread` workers (the submitting thread is the remaining
//! worker). A run distributes morsel indexes round-robin over per-worker
//! deques; each worker pops its own queue from the front and, when
//! empty, **steals from the back** of a sibling's queue — the classic
//! morsel-driven balance: skewed morsels (one giant subtree region)
//! keep one worker busy while the others drain the rest.
//!
//! One pool is shared per `mbxq_txn::Catalog` (or standalone
//! `mbxq_txn::Shard`) and lives as long as it does: queries borrow it
//! per evaluation, workers sleep on a condvar between runs, and `Drop`
//! shuts them down.
//! Concurrent submitters do not queue behind each other: if a run is
//! already in flight, a second submitter simply executes its morsels
//! inline (sequentially) — under many concurrent readers every thread
//! is already busy, so parallelizing each individual query would only
//! add coordination cost.
//!
//! # Safety
//!
//! `run` erases the submitted closure's lifetime to hand it to the
//! workers. This is sound because `run` does not return until every
//! morsel has completed (the `remaining` counter) **and** every worker
//! that picked up the job has exited its drain loop (the `active`
//! counter) — so the borrow outlives all worker accesses, including a
//! worker that finished the last morsel but is still retrying pops
//! before noticing the queues are empty. A panicking morsel is caught
//! on the worker, the run completes, and the panic is re-raised on the
//! submitting thread.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::thread::JoinHandle;

/// The closure type workers execute: one call per morsel index.
type Task<'a> = &'a (dyn Fn(usize) + Sync);
/// Lifetime-erased task stored in the shared pool state while a run is
/// in flight (see the module docs for why the erasure is sound).
type ErasedTask = &'static (dyn Fn(usize) + Sync);

/// Everything the workers share with the pool handle.
struct Shared {
    /// Current job + epoch; workers sleep on [`Shared::work_ready`]
    /// until the epoch moves past the one they last served.
    state: Mutex<PoolState>,
    work_ready: Condvar,
    /// Signalled when [`PoolState::active`] drops to zero — `run` waits
    /// on it so no worker is still inside [`drain`] when it returns.
    idle: Condvar,
    /// Per-participant morsel queues (slot 0 = the submitting thread).
    queues: Vec<Mutex<VecDeque<usize>>>,
    /// Morsels not yet finished in the current run.
    remaining: AtomicUsize,
    done_lock: Mutex<()>,
    done: Condvar,
    /// Cumulative cross-queue steals (the `EvalStats::steals` source).
    steals: AtomicU64,
    /// Whether any morsel of the current run panicked.
    panicked: AtomicBool,
}

struct PoolState {
    epoch: u64,
    shutdown: bool,
    job: Option<ErasedTask>,
    /// Spawned workers currently inside [`drain`] for `job`. Incremented
    /// under this lock when a worker takes the job, decremented when its
    /// drain returns; `run` waits for zero before ending the closure
    /// borrow, so a worker retrying pops can never observe a later run's
    /// queue entries while holding the previous run's task pointer.
    active: usize,
}

/// A persistent work-stealing thread pool executing query morsels.
pub struct WorkerPool {
    shared: std::sync::Arc<Shared>,
    /// Serializes runs; a busy pool makes later submitters run inline.
    run_lock: Mutex<()>,
    threads: usize,
    /// Fixed cost of dispatching one morsel through the pool, in
    /// nanoseconds — measured once at spawn (see [`WorkerPool::new`])
    /// and read by the executor's break-even cost model.
    morsel_overhead_ns: u64,
    handles: Vec<JoinHandle<()>>,
}

/// Calibration floor: queue ops alone cost this much even on an
/// unloaded host, and a spuriously tiny measurement would make the
/// cost model parallelize everything.
const MORSEL_OVERHEAD_MIN_NS: u64 = 200;
/// Calibration ceiling: a de-scheduled calibration round on a loaded
/// host must not convince the cost model parallelism never pays.
const MORSEL_OVERHEAD_MAX_NS: u64 = 1_000_000;

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// A pool executing morsels on `threads` threads total: `threads -
    /// 1` spawned workers plus the submitting thread. `threads` is
    /// clamped to at least 1 (a 1-thread pool spawns nothing and `run`
    /// degenerates to a sequential loop).
    ///
    /// Spawning runs a short **calibration loop** — a few rounds of
    /// empty morsels — to measure the fixed per-morsel dispatch cost on
    /// this host. The executor's cost model multiplies that number by
    /// the planned morsel count when deciding whether a split's
    /// speedup beats its coordination overhead, replacing the fixed
    /// scan-volume threshold that assumed one overhead fits all hosts.
    pub fn new(threads: usize) -> WorkerPool {
        Self::with_overhead_ns(threads, None)
    }

    /// [`WorkerPool::new`] with the per-morsel overhead pinned instead
    /// of calibrated — reproducible plan choice in tests and benches,
    /// and the escape hatch `StoreConfig::morsel_overhead_ns` plumbs
    /// through.
    pub fn with_overhead_ns(threads: usize, overhead_ns: Option<u64>) -> WorkerPool {
        let threads = threads.max(1);
        let shared = std::sync::Arc::new(Shared {
            state: Mutex::new(PoolState {
                epoch: 0,
                shutdown: false,
                job: None,
                active: 0,
            }),
            work_ready: Condvar::new(),
            idle: Condvar::new(),
            queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            remaining: AtomicUsize::new(0),
            done_lock: Mutex::new(()),
            done: Condvar::new(),
            steals: AtomicU64::new(0),
            panicked: AtomicBool::new(false),
        });
        let handles = (1..threads)
            .map(|slot| {
                let shared = std::sync::Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mbxq-query-{slot}"))
                    .spawn(move || worker_loop(&shared, slot))
                    .expect("spawn query worker")
            })
            .collect();
        let mut pool = WorkerPool {
            shared,
            run_lock: Mutex::new(()),
            threads,
            morsel_overhead_ns: 0,
            handles,
        };
        pool.morsel_overhead_ns = match overhead_ns {
            Some(ns) => ns.clamp(MORSEL_OVERHEAD_MIN_NS, MORSEL_OVERHEAD_MAX_NS),
            None => pool.calibrate(),
        };
        pool
    }

    /// Measures the fixed dispatch cost of one morsel: a warm-up round
    /// (first touch pays thread wake-up and allocator noise), then the
    /// minimum over a few timed rounds of empty morsels, clamped to a
    /// sane band so scheduler hiccups on loaded hosts cannot poison
    /// every subsequent plan choice.
    fn calibrate(&self) -> u64 {
        const MORSELS: usize = 64;
        const ROUNDS: usize = 4;
        self.run(MORSELS, &|_| {});
        let mut best = u64::MAX;
        for _ in 0..ROUNDS {
            let t = std::time::Instant::now();
            self.run(MORSELS, &|_| {});
            let per = (t.elapsed().as_nanos() as u64) / MORSELS as u64;
            best = best.min(per);
        }
        best.clamp(MORSEL_OVERHEAD_MIN_NS, MORSEL_OVERHEAD_MAX_NS)
    }

    /// Total threads a run can occupy (spawned workers + submitter).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The calibrated (or pinned) fixed cost of dispatching one morsel,
    /// in nanoseconds. Always within `[200, 1_000_000]`.
    pub fn morsel_overhead_ns(&self) -> u64 {
        self.morsel_overhead_ns
    }

    /// Cumulative cross-queue steals over the pool's lifetime (each
    /// [`WorkerPool::run`] returns the per-run delta of this counter).
    pub fn steals_total(&self) -> u64 {
        self.shared.steals.load(Ordering::Relaxed)
    }

    /// Executes `f(0), f(1), …, f(morsels - 1)`, each exactly once, on
    /// the pool; returns the number of cross-queue steals the run
    /// performed. Blocks until all morsels finished. If another run is
    /// already in flight (concurrent readers sharing the store's pool),
    /// the morsels execute inline on the caller instead.
    pub fn run(&self, morsels: usize, f: Task<'_>) -> u64 {
        if morsels == 0 {
            return 0;
        }
        let Ok(_guard) = self.run_lock.try_lock() else {
            for i in 0..morsels {
                f(i);
            }
            return 0;
        };
        // Lifetime erasure — sound because this function only returns
        // once `remaining` hits zero AND every participating worker has
        // left `drain` (the `active` wait below), i.e. after the last
        // worker access.
        let erased: ErasedTask = unsafe { std::mem::transmute::<Task<'_>, ErasedTask>(f) };
        let steals_before = self.shared.steals.load(Ordering::Relaxed);
        self.shared.panicked.store(false, Ordering::Relaxed);
        self.shared.remaining.store(morsels, Ordering::Release);
        for (i, queue) in (0..morsels).zip(self.shared.queues.iter().cycle()) {
            queue.lock().unwrap().push_back(i);
        }
        {
            let mut st = self.shared.state.lock().unwrap();
            st.epoch += 1;
            st.job = Some(erased);
        }
        self.shared.work_ready.notify_all();
        // The submitter is participant 0.
        drain(&self.shared, erased, 0);
        // Wait out morsels other workers are still executing.
        let mut g = self.shared.done_lock.lock().unwrap();
        while self.shared.remaining.load(Ordering::Acquire) > 0 {
            g = self.shared.done.wait(g).unwrap();
        }
        drop(g);
        {
            // Retire the job so no late-waking worker can touch the
            // (about to be invalidated) closure borrow, then wait out
            // workers still inside `drain`: with zero morsels left their
            // pop/steal attempts all miss, but they must exit before the
            // borrow ends — otherwise a stale worker could race a
            // subsequent run and pop its morsels with this run's task.
            let mut st = self.shared.state.lock().unwrap();
            st.job = None;
            while st.active > 0 {
                st = self.shared.idle.wait(st).unwrap();
            }
        }
        if self.shared.panicked.swap(false, Ordering::Relaxed) {
            panic!("a query morsel panicked on the worker pool");
        }
        self.shared.steals.load(Ordering::Relaxed) - steals_before
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// A spawned worker: sleep until a new job epoch, drain it, repeat.
/// Registers in [`PoolState::active`] for the duration of each drain
/// (taken and released under the state lock) so the submitting `run`
/// can wait until no worker still holds the run's task pointer.
fn worker_loop(shared: &Shared, me: usize) {
    let mut last_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != last_epoch {
                    last_epoch = st.epoch;
                    if let Some(job) = st.job {
                        st.active += 1;
                        break job;
                    }
                }
                st = shared.work_ready.wait(st).unwrap();
            }
        };
        drain(shared, job, me);
        let mut st = shared.state.lock().unwrap();
        st.active -= 1;
        if st.active == 0 {
            shared.idle.notify_all();
        }
    }
}

/// Executes morsels until every queue is empty: pop the own queue from
/// the front, then steal from siblings' backs.
fn drain(shared: &Shared, job: ErasedTask, me: usize) {
    let n = shared.queues.len();
    loop {
        let mut task = shared.queues[me].lock().unwrap().pop_front();
        let mut stolen = false;
        if task.is_none() {
            for other in 1..n {
                let victim = (me + other) % n;
                task = shared.queues[victim].lock().unwrap().pop_back();
                if task.is_some() {
                    stolen = true;
                    break;
                }
            }
        }
        let Some(index) = task else { return };
        if stolen {
            shared.steals.fetch_add(1, Ordering::Relaxed);
        }
        if catch_unwind(AssertUnwindSafe(|| job(index))).is_err() {
            shared.panicked.store(true, Ordering::Relaxed);
        }
        if shared.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _g = shared.done_lock.lock().unwrap();
            shared.done.notify_all();
        }
    }
}

/// Whether and how the executor may parallelize relation operators.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ParChoice {
    /// Parallelize when a pool is available and the estimated work
    /// clears the fan-out threshold (the default).
    #[default]
    Auto,
    /// Never split, even with a pool — the oracle baseline.
    ForceSequential,
    /// Split whenever the input is splittable at all, regardless of
    /// size — stresses morsel boundaries in tests.
    ForceParallel,
}

/// Splits `0..len` into at most `parts` contiguous ranges aligned to
/// group boundaries: `groups[k]` is row `k`'s group tag (non-decreasing)
/// and no returned range ever splits a run of equal tags. Ranges are
/// ascending and cover all rows; fewer than `parts` come back when the
/// group structure does not support the fan-out.
pub(crate) fn morsel_ranges(groups: &[u32], parts: usize) -> Vec<(usize, usize)> {
    let len = groups.len();
    let mut out = Vec::new();
    if len == 0 || parts == 0 {
        return out;
    }
    let target = len.div_ceil(parts).max(1);
    let mut start = 0usize;
    while start < len {
        let mut end = (start + target).min(len);
        // Push the cut forward to the end of the group it landed in.
        while end < len && groups[end] == groups[end - 1] {
            end += 1;
        }
        out.push((start, end));
        start = end;
    }
    out
}

/// Splits disjoint ascending `(lo, hi)` pre ranges into at most `parts`
/// chunks of ranges with roughly equal total slot volume — the splitter
/// for the single-group descendant scan. Concatenating per-chunk scan
/// results in chunk order preserves document order because the ranges
/// themselves ascend.
pub(crate) fn range_chunks(ranges: &[(u64, u64)], parts: usize) -> Vec<Vec<(u64, u64)>> {
    let mut out: Vec<Vec<(u64, u64)>> = Vec::new();
    if ranges.is_empty() || parts == 0 {
        return out;
    }
    let total: u64 = ranges.iter().map(|&(lo, hi)| hi - lo).sum();
    let target = (total / parts as u64).max(1);
    let mut current: Vec<(u64, u64)> = Vec::new();
    let mut current_vol = 0u64;
    for &(lo, hi) in ranges {
        let mut lo = lo;
        while hi - lo + current_vol > target && out.len() + 1 < parts {
            // Cut inside the range: scans are position-independent, so
            // a range can split anywhere (unlike group rows). When the
            // chunk is already full (`take == 0`) just flush it — don't
            // push a degenerate empty `(lo, lo)` range.
            let take = target - current_vol;
            if take > 0 {
                current.push((lo, lo + take));
                lo += take;
            }
            out.push(std::mem::take(&mut current));
            current_vol = 0;
        }
        if lo < hi {
            current.push((lo, hi));
            current_vol += hi - lo;
        }
    }
    if !current.is_empty() {
        out.push(current);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn pool_runs_every_morsel_exactly_once() {
        let pool = WorkerPool::new(4);
        for n in [0usize, 1, 3, 64, 257] {
            let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            pool.run(n, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "n = {n}"
            );
        }
    }

    #[test]
    fn back_to_back_runs_never_cross_closures() {
        // Regression: a worker that decremented the last morsel but was
        // still retrying pops inside `drain` could race the next run —
        // popping its morsels with the PREVIOUS run's (dangling) task.
        // `run` now waits for all workers to exit `drain` before
        // returning, so each run's slots are hit by its own closure,
        // exactly once, even across rapid-fire runs.
        let pool = WorkerPool::new(4);
        for run in 0..200usize {
            let n = 1 + run % 7;
            let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            pool.run(n, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "run {run}: every morsel executed by its own run exactly once"
            );
        }
    }

    #[test]
    fn single_thread_pool_works_inline() {
        let pool = WorkerPool::new(1);
        let sum = AtomicU64::new(0);
        let steals = pool.run(100, &|i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 4950);
        assert_eq!(steals, 0, "nobody to steal from");
    }

    #[test]
    fn skewed_morsels_get_stolen() {
        let pool = WorkerPool::new(4);
        let mut total_steals = 0;
        for _ in 0..50 {
            let done = AtomicU64::new(0);
            total_steals += pool.run(32, &|i| {
                // Morsel 0 is slow: its owner's queue must be drained
                // by siblings.
                if i == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                done.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(done.load(Ordering::Relaxed), 32);
        }
        // Not asserted per-run (a 1-core container may finish the whole
        // queue before workers wake), but across 50 skewed runs at
        // least one steal is overwhelmingly likely on any scheduler —
        // and zero steals would still be correct, just unbalanced.
        let _ = total_steals;
    }

    #[test]
    fn morsel_panic_propagates_to_submitter() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, &|i| {
                if i == 5 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // The pool stays usable after a panicked run.
        let ok = AtomicU64::new(0);
        pool.run(8, &|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn concurrent_submitters_fall_back_inline() {
        let pool = WorkerPool::new(2);
        let total = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let pool = &pool;
                let total = &total;
                scope.spawn(move || {
                    for _ in 0..20 {
                        pool.run(16, &|_| {
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * 20 * 16);
    }

    #[test]
    fn morsel_ranges_align_to_groups() {
        // Groups: 0 0 0 | 1 | 2 2 | 3 3 3 3
        let groups = [0, 0, 0, 1, 2, 2, 3, 3, 3, 3];
        for parts in 1..=8 {
            let ranges = morsel_ranges(&groups, parts);
            assert_eq!(ranges.first().unwrap().0, 0);
            assert_eq!(ranges.last().unwrap().1, groups.len());
            for w in ranges.windows(2) {
                assert_eq!(w[0].1, w[1].0, "contiguous cover");
            }
            for &(start, end) in &ranges {
                assert!(start < end);
                if end < groups.len() {
                    assert_ne!(groups[end - 1], groups[end], "cut splits a group");
                }
            }
        }
        assert!(morsel_ranges(&[], 4).is_empty());
        // One giant group cannot split.
        assert_eq!(morsel_ranges(&[7; 100], 4), vec![(0, 100)]);
    }

    #[test]
    fn range_chunks_preserve_volume_and_order() {
        let ranges = [(0u64, 100u64), (150, 170), (200, 280)];
        for parts in 1..=6 {
            let chunks = range_chunks(&ranges, parts);
            assert!(chunks.len() <= parts.max(1));
            let vol: u64 = chunks.iter().flatten().map(|&(lo, hi)| hi - lo).sum();
            assert_eq!(vol, 200, "parts {parts}");
            // Flattened ranges stay ascending and disjoint.
            let flat: Vec<(u64, u64)> = chunks.into_iter().flatten().collect();
            for w in flat.windows(2) {
                assert!(w[0].1 <= w[1].0, "order at {w:?}");
            }
        }
        assert!(range_chunks(&[], 4).is_empty());
    }

    #[test]
    fn range_chunks_never_emit_empty_ranges() {
        // Regression: when a chunk filled to exactly `target` volume at
        // a range boundary, the splitter used to push a degenerate
        // `(lo, lo)` range before flushing.
        let cases: &[(&[(u64, u64)], usize)] = &[
            (&[(0, 10), (10, 20)], 2), // boundary lands exactly on a cut
            (&[(0, 8), (8, 16), (16, 24)], 3),
            (&[(0, 4), (100, 104)], 2),
            (&[(0, 100), (150, 170), (200, 280)], 5),
        ];
        for &(ranges, parts) in cases {
            let chunks = range_chunks(ranges, parts);
            let total: u64 = ranges.iter().map(|&(lo, hi)| hi - lo).sum();
            let vol: u64 = chunks.iter().flatten().map(|&(lo, hi)| hi - lo).sum();
            assert_eq!(vol, total);
            for &(lo, hi) in chunks.iter().flatten() {
                assert!(lo < hi, "empty range ({lo}, {hi}) in {chunks:?}");
            }
        }
    }

    /// Minimal deterministic xorshift for the property tests below.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n.max(1)
        }
    }

    /// Seeded generator over the morsel splitter: random group shapes
    /// (single-row groups, long runs, tag gaps — "empty groups" in tag
    /// space) × random fan-outs must always yield a contiguous,
    /// group-aligned cover with no empty or out-of-order ranges.
    #[test]
    fn morsel_ranges_properties_hold_on_random_shapes() {
        for seed in 1..=200u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9e3779b97f4a7c15));
            let n_groups = rng.below(12) as usize;
            let mut groups: Vec<u32> = Vec::new();
            let mut tag = 0u32;
            for _ in 0..n_groups {
                // Gaps in tag space model iterations whose step result
                // was empty; run length 1 models single-row groups.
                tag += 1 + rng.below(3) as u32;
                let run = 1 + rng.below(9) as usize;
                groups.extend(std::iter::repeat_n(tag, run));
            }
            let parts = rng.below(10) as usize;
            let ranges = morsel_ranges(&groups, parts);
            if groups.is_empty() || parts == 0 {
                assert!(ranges.is_empty(), "seed {seed}");
                continue;
            }
            assert!(ranges.len() <= parts, "seed {seed}: at most `parts` ranges");
            assert_eq!(ranges.first().unwrap().0, 0, "seed {seed}");
            assert_eq!(ranges.last().unwrap().1, groups.len(), "seed {seed}");
            for w in ranges.windows(2) {
                assert_eq!(w[0].1, w[1].0, "seed {seed}: contiguous cover");
            }
            for &(start, end) in &ranges {
                assert!(start < end, "seed {seed}: no empty morsel");
                if end < groups.len() {
                    assert_ne!(
                        groups[end - 1],
                        groups[end],
                        "seed {seed}: cut splits a group"
                    );
                }
            }
        }
    }

    /// Seeded generator over the volume splitter: random disjoint
    /// ascending range lists (adjacent ranges, unit-width ranges, huge
    /// skew) × random fan-outs. Volume is conserved exactly, order and
    /// disjointness survive flattening, no chunk is empty, and no
    /// degenerate `(lo, lo)` range appears even when cuts land exactly
    /// on range boundaries (the PR 6 regression, now fuzzed).
    #[test]
    fn range_chunks_properties_hold_on_random_shapes() {
        for seed in 1..=200u64 {
            let mut rng = Rng(seed.wrapping_mul(0x2545f4914f6cdd1d));
            let n_ranges = rng.below(8) as usize;
            let mut ranges: Vec<(u64, u64)> = Vec::new();
            let mut lo = 0u64;
            for _ in 0..n_ranges {
                // `below(3) == 0` keeps ranges adjacent — cuts land on
                // boundaries; widths are skewed by squaring.
                lo += rng.below(3) * rng.below(40);
                let w = rng.below(12);
                let width = 1 + w * w;
                ranges.push((lo, lo + width));
                lo += width;
            }
            let parts = rng.below(7) as usize;
            let chunks = range_chunks(&ranges, parts);
            if ranges.is_empty() || parts == 0 {
                assert!(chunks.is_empty(), "seed {seed}");
                continue;
            }
            assert!(chunks.len() <= parts, "seed {seed}");
            let total: u64 = ranges.iter().map(|&(lo, hi)| hi - lo).sum();
            let vol: u64 = chunks.iter().flatten().map(|&(lo, hi)| hi - lo).sum();
            assert_eq!(vol, total, "seed {seed}: volume conserved");
            assert!(
                chunks.iter().all(|c| !c.is_empty()),
                "seed {seed}: no empty chunk in {chunks:?}"
            );
            let flat: Vec<(u64, u64)> = chunks.iter().flatten().copied().collect();
            for &(lo, hi) in &flat {
                assert!(lo < hi, "seed {seed}: degenerate ({lo}, {hi})");
            }
            for w in flat.windows(2) {
                assert!(w[0].1 <= w[1].0, "seed {seed}: order at {w:?}");
            }
        }
    }

    #[test]
    fn overhead_is_calibrated_or_pinned_within_band() {
        let calibrated = WorkerPool::new(2);
        let ns = calibrated.morsel_overhead_ns();
        assert!((200..=1_000_000).contains(&ns), "calibrated {ns}");
        let pinned = WorkerPool::with_overhead_ns(2, Some(5_000));
        assert_eq!(pinned.morsel_overhead_ns(), 5_000);
        // Out-of-band pins are clamped, not trusted.
        assert_eq!(
            WorkerPool::with_overhead_ns(1, Some(1)).morsel_overhead_ns(),
            200
        );
    }
}
