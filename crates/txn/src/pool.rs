//! Shared morsel-execution pool.
//!
//! A [`QueryPool`] wraps one lazily-spawned [`mbxq_xpath::WorkerPool`]
//! behind an `Arc`, so **every shard of a catalog shares the same
//! worker threads**: N documents must not mean N thread pools. The pool
//! spawns on the first query that can use it (configured width ≥ 2) and
//! stays idle-cheap before that — a catalog holding a thousand
//! documents that are never queried in parallel owns zero extra
//! threads.

use std::sync::OnceLock;

/// A lazily-spawned, shareable query worker pool.
///
/// Construction is free; the underlying [`mbxq_xpath::WorkerPool`] (and
/// its `threads - 1` OS threads) appears on the first [`QueryPool::get`]
/// when the configured width is at least 2. A width of 0 or 1 means
/// sequential execution: `get` returns `None` forever and nothing is
/// ever spawned.
pub struct QueryPool {
    threads: usize,
    inner: OnceLock<mbxq_xpath::WorkerPool>,
}

impl std::fmt::Debug for QueryPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryPool")
            .field("threads", &self.threads)
            .field("spawned", &self.spawned())
            .finish()
    }
}

impl QueryPool {
    /// A pool of `threads` total execution threads (`threads - 1`
    /// spawned workers plus the submitting thread), not yet spawned.
    /// Per-morsel overhead is measured by a calibration loop at spawn.
    pub fn new(threads: usize) -> QueryPool {
        QueryPool {
            threads,
            inner: OnceLock::new(),
        }
    }

    /// Whether the worker threads have been spawned yet.
    pub fn spawned(&self) -> bool {
        self.inner.get().is_some()
    }

    /// The shared worker pool, spawning it on first use; `None` when
    /// the configured width is below 2 (sequential execution).
    pub fn get(&self) -> Option<&mbxq_xpath::WorkerPool> {
        if self.threads < 2 {
            return None;
        }
        Some(
            self.inner
                .get_or_init(|| mbxq_xpath::WorkerPool::new(self.threads)),
        )
    }

    /// A live snapshot of the pool counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            threads: self.threads,
            spawned: self.spawned(),
            steals: self
                .inner
                .get()
                .map_or(0, mbxq_xpath::WorkerPool::steals_total),
            morsel_overhead_ns: self
                .inner
                .get()
                .map_or(0, mbxq_xpath::WorkerPool::morsel_overhead_ns),
        }
    }
}

/// Counters of a [`QueryPool`] (see [`QueryPool::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Configured total execution threads.
    pub threads: usize,
    /// Whether the worker threads exist yet (lazily spawned).
    pub spawned: bool,
    /// Cumulative cross-queue morsel steals since spawn.
    pub steals: u64,
    /// The pool's per-morsel dispatch overhead (calibrated at spawn;
    /// `0` before the pool exists) feeding the executor's
    /// parallel break-even cost model.
    pub morsel_overhead_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn narrow_pools_never_spawn() {
        for threads in [0, 1] {
            let pool = QueryPool::new(threads);
            assert!(pool.get().is_none());
            assert!(!pool.spawned());
            assert_eq!(
                pool.stats(),
                PoolStats {
                    threads,
                    spawned: false,
                    steals: 0,
                    morsel_overhead_ns: 0
                }
            );
        }
    }

    #[test]
    fn wide_pool_spawns_once_and_is_shared() {
        let pool = QueryPool::new(2);
        assert!(!pool.spawned(), "construction must not spawn");
        let a = pool.get().unwrap() as *const _;
        let b = pool.get().unwrap() as *const _;
        assert_eq!(a, b, "one pool, reused");
        assert!(pool.spawned());
        assert_eq!(pool.stats().threads, 2);
        assert!(
            pool.stats().morsel_overhead_ns > 0,
            "spawn must calibrate a nonzero morsel overhead"
        );
    }
}
