//! Lock-free snapshot publication — the reader fast path of §3.2.
//!
//! The paper's readers "just acquire a global read-lock while they run";
//! the in-memory realization wants even less: taking a snapshot of the
//! committed document must never contend with writers at all, or reader
//! throughput becomes a function of writer load. [`ArcCell`] is a
//! hand-rolled `ArcSwap`-style cell (the build environment is offline,
//! so no crates.io `arc-swap`): readers [`ArcCell::load`] the current
//! `Arc` with a handful of atomic operations and **no lock, ever** — no
//! mutex, no rwlock, no unbounded spin on the read side; publishers
//! [`ArcCell::store`] swap the pointer, wait out only the
//! (instruction-scale) windows of readers that might still be cloning
//! the **old** value, and hand that value back — so a publisher holding
//! a lock around the store can drop the superseded version (a walk over
//! every page's reference count) *after* releasing it.
//!
//! # How the race is closed
//!
//! The classic hazard of an atomic-pointer snapshot cell: a reader loads
//! the pointer, the writer swaps and drops the last reference, the
//! reader clones a freed `Arc`. The cell closes it with *per-epoch
//! reader presence counters*:
//!
//! * the cell keeps an `epoch` counter and two reader slots; epoch `e`
//!   uses slot `e & 1`;
//! * a reader registers in the current epoch's slot **before** loading
//!   the pointer (re-registering if a publisher bumped the epoch in
//!   between, so its registration is never invisible to the publisher
//!   that will retire the value it is about to read), and deregisters
//!   after cloning the `Arc`;
//! * a publisher swaps the pointer, bumps the epoch, and then waits for
//!   the **previous** epoch's slot to drain before reclaiming the cell's
//!   reference to the old value. Readers arriving meanwhile register in the *new* slot and
//!   never delay it — the wait covers exactly the readers that could
//!   have seen the old pointer, so it is bounded by their few-
//!   instruction windows even under a sustained snapshot storm.
//!
//! Publishers are serialized against each other by an internal mutex
//! (they are rare and already serialized by the commit lock in the
//! transaction layer); readers never touch it.

use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// A cell holding an `Arc<T>` that readers can clone without taking any
/// lock and writers can atomically replace. See the module docs for the
/// protocol.
#[derive(Debug)]
pub struct ArcCell<T> {
    /// Raw pointer obtained from `Arc::into_raw`; the cell owns one
    /// strong reference to whatever this points at.
    ptr: AtomicPtr<T>,
    /// Publication epoch; epoch `e` registers readers in slot `e & 1`.
    epoch: AtomicUsize,
    /// Readers currently between "registered" and "cloned", per slot.
    readers: [AtomicUsize; 2],
    /// Serializes publishers (readers never touch it): the wait-for-
    /// previous-slot protocol is only sound for one retirement at a
    /// time.
    publish: Mutex<()>,
}

impl<T> ArcCell<T> {
    /// Creates a cell holding `value`.
    pub fn new(value: Arc<T>) -> ArcCell<T> {
        ArcCell {
            ptr: AtomicPtr::new(Arc::into_raw(value).cast_mut()),
            epoch: AtomicUsize::new(0),
            readers: [AtomicUsize::new(0), AtomicUsize::new(0)],
            publish: Mutex::new(()),
        }
    }

    /// Clones the current value. Lock-free: registration, one pointer
    /// load and one refcount increment — never a mutex, and a bounded
    /// re-registration only in the rare race with a concurrent
    /// [`ArcCell::store`].
    pub fn load(&self) -> Arc<T> {
        // Register in the current epoch's slot, re-checking the epoch
        // afterwards: if a publisher bumped it between our read and our
        // increment, our registration might be in a slot that publisher
        // no longer waits on — retry in the fresh slot. Once the
        // re-check passes, the registration happened before any future
        // epoch bump, so the publisher retiring the value we are about
        // to read is guaranteed to see it and wait.
        let slot = loop {
            let e = self.epoch.load(Ordering::SeqCst);
            let slot = &self.readers[e & 1];
            slot.fetch_add(1, Ordering::SeqCst);
            if self.epoch.load(Ordering::SeqCst) == e {
                break slot;
            }
            slot.fetch_sub(1, Ordering::SeqCst);
        };
        let p = self.ptr.load(Ordering::SeqCst);
        // SAFETY: `p` came from `Arc::into_raw` (in `new` or `store`).
        // The cell's strong reference to `p` cannot be released while we
        // are registered: a publisher retires a value only after (swap,
        // epoch bump, drain of the pre-bump slot) — and our verified
        // registration precedes any bump that could retire the value
        // `p` we just loaded (see module docs), so that drain waits for
        // our deregistration below, which happens only after the clone.
        let arc = unsafe {
            Arc::increment_strong_count(p);
            Arc::from_raw(p)
        };
        // If the pointer was swapped after our registration we may have
        // loaded the *new* value while registered in the *old* slot;
        // that only makes the old value's publisher wait for us too —
        // harmless.
        slot.fetch_sub(1, Ordering::SeqCst);
        arc
    }

    /// Atomically replaces the value and returns the previous one (the
    /// cell's own reference to it, reclaimed once no in-flight `load`
    /// can still touch it). Only readers that raced this exact
    /// publication are waited on; later loads register against the new
    /// epoch and never delay it.
    ///
    /// Dropping the returned `Arc` may tear the superseded value down
    /// (it is the last reference when no reader pinned it), so the cell
    /// releases its publisher mutex first, and a caller that publishes
    /// under a lock of its own should release that lock before dropping.
    #[must_use = "drop the superseded value outside any lock held around the store"]
    pub fn store(&self, value: Arc<T>) -> Arc<T> {
        let _serialized = self
            .publish
            .lock()
            .expect("publishers never panic mid-store");
        let new = Arc::into_raw(value).cast_mut();
        let old = self.ptr.swap(new, Ordering::SeqCst);
        let prev_epoch = self.epoch.fetch_add(1, Ordering::SeqCst);
        let drained = &self.readers[prev_epoch & 1];
        // Drain the retired slot: every reader that could have loaded
        // `old` registered there before our bump, and each holds it for
        // only a few instructions. New readers go to the other slot.
        let mut spins = 0u32;
        while drained.load(Ordering::SeqCst) != 0 {
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        // SAFETY: `old` came from `Arc::into_raw`; we reclaim the strong
        // reference the cell owned. Every load that could still clone
        // `old` has deregistered from the drained slot (and a clone
        // strictly precedes its deregistration), so whenever the caller
        // drops this reference it can no longer race a clone of a dead
        // Arc.
        unsafe { Arc::from_raw(old) }
    }

    /// Consumes the cell, returning the held value.
    pub fn into_inner(self) -> Arc<T> {
        let p = self.ptr.load(Ordering::Relaxed);
        // Don't double-drop in `Drop`.
        std::mem::forget(self);
        // SAFETY: exclusive ownership (`self` by value); reclaim the
        // cell's strong reference.
        unsafe { Arc::from_raw(p) }
    }
}

impl<T> Drop for ArcCell<T> {
    fn drop(&mut self) {
        let p = *self.ptr.get_mut();
        // SAFETY: exclusive access in drop; release the cell's strong
        // reference.
        drop(unsafe { Arc::from_raw(p) });
    }
}

// SAFETY: the cell hands out `Arc<T>` clones across threads, which is
// exactly what `Arc` supports when `T: Send + Sync`.
unsafe impl<T: Send + Sync> Send for ArcCell<T> {}
unsafe impl<T: Send + Sync> Sync for ArcCell<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64};

    #[test]
    fn load_returns_current_value() {
        let cell = ArcCell::new(Arc::new(7u64));
        assert_eq!(*cell.load(), 7);
        assert_eq!(*cell.store(Arc::new(8)), 7);
        assert_eq!(*cell.load(), 8);
        assert_eq!(*cell.into_inner(), 8);
    }

    /// `store` hands the superseded value back instead of dropping it:
    /// it is the previous value, and the *last* reference to it exactly
    /// when no reader holds a snapshot — so the caller decides where the
    /// teardown runs.
    #[test]
    fn store_returns_the_previous_value_as_its_last_reference() {
        let cell = ArcCell::new(Arc::new(String::from("v0")));
        let old = cell.store(Arc::new(String::from("v1")));
        assert_eq!(*old, "v0");
        assert_eq!(Arc::strong_count(&old), 1, "nobody pinned v0");
        let pinned = cell.load();
        let old = cell.store(Arc::new(String::from("v2")));
        assert!(Arc::ptr_eq(&old, &pinned));
        assert_eq!(Arc::strong_count(&old), 2, "the reader still holds v1");
        drop(pinned);
        assert_eq!(Arc::strong_count(&old), 1);
    }

    #[test]
    fn old_snapshots_stay_alive_after_store() {
        let cell = ArcCell::new(Arc::new(String::from("v0")));
        let pinned = cell.load();
        drop(cell.store(Arc::new(String::from("v1"))));
        assert_eq!(*pinned, "v0");
        assert_eq!(*cell.load(), "v1");
    }

    /// Readers hammer `load` while a writer continuously replaces the
    /// value; every loaded Arc must be alive and internally consistent.
    /// (Run under the normal test harness this doubles as a low-grade
    /// race detector: a use-after-free here crashes loudly.)
    #[test]
    fn concurrent_load_store_storm() {
        // The pair inside must always satisfy b == a * 2 — a torn or
        // dangling value would break it.
        let cell = Arc::new(ArcCell::new(Arc::new((1u64, 2u64))));
        let loads = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let cell = cell.clone();
                let loads = loads.clone();
                s.spawn(move || {
                    for _ in 0..20_000 {
                        let v = cell.load();
                        assert_eq!(v.1, v.0 * 2);
                        loads.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            s.spawn(|| {
                for i in 2..2_000u64 {
                    drop(cell.store(Arc::new((i, i * 2))));
                }
            });
        });
        assert_eq!(loads.load(Ordering::Relaxed), 4 * 20_000);
        let last = cell.load();
        assert_eq!(last.1, last.0 * 2);
    }

    /// Liveness: a publisher waits only on readers of the epoch it
    /// retired — a continuous stream of *new* loads (which register
    /// against the new epoch) must not stall `store`.
    #[test]
    fn store_completes_under_sustained_reader_traffic() {
        let cell = Arc::new(ArcCell::new(Arc::new(0u64)));
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            for _ in 0..3 {
                let cell = cell.clone();
                let stop = stop.clone();
                s.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::black_box(cell.load());
                    }
                });
            }
            // Every store must return; 500 of them back-to-back while
            // readers never pause.
            for i in 1..=500u64 {
                drop(cell.store(Arc::new(i)));
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(*cell.load(), 500);
    }

    /// Two cells' publishers running concurrently (each serialized
    /// internally) with shared readers — cross-cell traffic must not
    /// confuse the per-cell slots.
    #[test]
    fn independent_cells_do_not_interfere() {
        let a = Arc::new(ArcCell::new(Arc::new(1u64)));
        let b = Arc::new(ArcCell::new(Arc::new(100u64)));
        std::thread::scope(|s| {
            let (a2, b2) = (a.clone(), b.clone());
            s.spawn(move || {
                for i in 0..1_000 {
                    drop(a2.store(Arc::new(i)));
                    std::hint::black_box(b2.load());
                }
            });
            let (a3, b3) = (a.clone(), b.clone());
            s.spawn(move || {
                for i in 0..1_000 {
                    drop(b3.store(Arc::new(100 + i)));
                    std::hint::black_box(a3.load());
                }
            });
        });
        assert_eq!(*a.load(), 999);
        assert_eq!(*b.load(), 1099);
    }
}
