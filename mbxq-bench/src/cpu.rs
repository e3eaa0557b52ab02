//! Where a run's threads may execute.
//!
//! A run pins itself — and so every thread it starts afterwards, the
//! server's accept and session threads included — to one CPU. The
//! server workloads are closed loops: at any moment either the client
//! or one session thread is runnable, never both. Left to the
//! scheduler, the two sit on different CPUs and every frame wakes an
//! idle one: four wake-ups per query (request and fetch, each there
//! and back). In this guest an idle CPU is a halted vCPU (no cpuidle
//! driver: idle is a bare `HLT`, a VM exit), and waking it goes
//! through the host's scheduler. On a quiet host that costs little
//! (`Client::ping` 27 µs across CPUs, 16 µs on one); when a co-tenant
//! is busy it costs tens of µs per wake-up, on point lookups of
//! 160–400 µs. That — the host's state, not the program's — spread
//! `op_p50_us` of `point_server` over 47 % of its median between
//! identical runs, and more than `ops_per_s` (31 %), as a cost per
//! request does. On one CPU the hand-over is a context switch, the CPU
//! never idles inside a window, and the host is asked for nothing.
//!
//! The highest-numbered allowed CPU is chosen: CPU 0 takes most of the
//! guest's interrupts and kernel housekeeping.

use std::sync::OnceLock;

/// Affinity masks are handled as 1024 bits, glibc's `cpu_set_t`.
const WORDS: usize = 16;
type Mask = [u64; WORDS];

#[cfg(target_os = "linux")]
mod sys {
    use super::{Mask, WORDS};

    // std links the C library on Linux, so its affinity calls are
    // there without a crate for them.
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn get() -> Option<Mask> {
        let mut m = [0u64; WORDS];
        // SAFETY: `m` is `WORDS * 8` writable bytes; pid 0 is the caller.
        let rc = unsafe { sched_getaffinity(0, WORDS * 8, m.as_mut_ptr()) };
        (rc == 0).then_some(m)
    }

    pub fn set(m: &Mask) -> bool {
        // SAFETY: `m` is `WORDS * 8` readable bytes; pid 0 is the caller.
        unsafe { sched_setaffinity(0, WORDS * 8, m.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::Mask;

    pub fn get() -> Option<Mask> {
        None
    }

    pub fn set(_: &Mask) -> bool {
        false
    }
}

/// The CPUs of a mask, ascending.
fn cpus(m: &Mask) -> Vec<usize> {
    (0..WORDS * 64)
        .filter(|&c| m[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

fn only(cpu: usize) -> Mask {
    let mut m = [0u64; WORDS];
    m[cpu / 64] = 1 << (cpu % 64);
    m
}

/// What `pin` found and did; recorded in the run manifest.
#[derive(Debug, Clone)]
pub struct Placement {
    /// CPUs the process was allowed before pinning (`nproc`).
    pub host_cpus: usize,
    /// The one CPU the run executes on; `None` where the platform has
    /// no affinity call and the run is left to the scheduler.
    pub pinned: Option<usize>,
    allowed: Option<Mask>,
}

impl Placement {
    /// Pins the calling thread to the highest-numbered CPU it is
    /// allowed.
    fn of_current_thread() -> Placement {
        let allowed = sys::get();
        let list = allowed.as_ref().map(cpus).unwrap_or_default();
        let pinned = list.last().copied().filter(|&c| sys::set(&only(c)));
        Placement {
            host_cpus: if list.is_empty() {
                std::thread::available_parallelism().map_or(1, |n| n.get())
            } else {
                list.len()
            },
            pinned,
            allowed,
        }
    }

    /// Runs `f` with every originally allowed CPU open to the calling
    /// thread and the threads `f` starts, then pins again: the one
    /// probe that measures a two-thread pool needs two CPUs.
    pub fn on_all_cpus<R>(&self, f: impl FnOnce() -> R) -> R {
        if let (Some(all), Some(_)) = (&self.allowed, self.pinned) {
            sys::set(all);
        }
        let r = f();
        if let Some(c) = self.pinned {
            sys::set(&only(c));
        }
        r
    }
}

static PLACEMENT: OnceLock<Placement> = OnceLock::new();

/// Pins the run: call it first on the main thread, before any other
/// thread exists, so that every later thread inherits the placement.
/// Later calls return what the first one did.
pub fn pin() -> &'static Placement {
    PLACEMENT.get_or_init(Placement::of_current_thread)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_list_their_cpus() {
        let mut m = only(3);
        m[1] |= 1 << 2;
        assert_eq!(cpus(&m), vec![3, 66]);
        assert_eq!(cpus(&only(0)), vec![0]);
    }

    #[test]
    fn pinning_leaves_one_cpu_and_opens_up_again() {
        // The test's own thread, not the process-wide placement.
        let p = Placement::of_current_thread();
        assert!(p.host_cpus >= 1);
        let Some(c) = p.pinned else { return };
        assert_eq!(cpus(&sys::get().unwrap()), vec![c]);
        let inside = p.on_all_cpus(|| cpus(&sys::get().unwrap()).len());
        assert_eq!(inside, p.host_cpus);
        assert_eq!(cpus(&sys::get().unwrap()), vec![c]);
    }
}
