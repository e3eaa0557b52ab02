//! The host-speed reference: a fixed piece of the benchmark's own work,
//! run between the ops of every window.
//!
//! This host slows down as a whole, for seconds to minutes at a time:
//! with nothing changed, every op class, set-up and a bare arithmetic
//! loop alike take 20–45 % longer, with no steal time to show for it (a
//! co-tenant on the same cores and caches). A run lasts half a minute,
//! so no estimator inside it can look past such an episode, and ten
//! runs that straddle one spread over 20–35 % of their median — more
//! than any bound the benchmark may set (README, "Host speed"). What
//! can be done is to measure the episode while it happens.
//!
//! A *slice* is [`SLICE_ITERS`] iterations of branchy integer work over
//! a 16 KiB table: a dependent multiply-add chain, random loads and
//! stores, a branch taken half the time at random. It is the
//! benchmark's own code, so no commit to the engine can change it, and
//! the table stays in the first-level cache, so what the engine does to
//! the larger caches between two slices does not change it either.
//! Every op is followed by its share ([`SLICE_SHARE`]) of slices, off
//! its clock, so a window's mean slice time samples the host over
//! exactly the time the window's ops ran.
//!
//! The engine's work leans on the second- and third-level caches and
//! on memory, which a busy neighbour also takes away, so it slows more
//! than the slice does, and the more of its time it spends there the
//! more: over 1800 windows, log(window rate) against log(slice
//! time) has slope −1.1 to −1.6 on the reading workloads and −1.6 to
//! −1.8 on the writing ones (r −0.82 to −0.99). That slope is the
//! workload's *response* (`workloads::response`), fixed per workload.
//!
//! `host_speed` of a window is ([`NOMINAL_SLICE_NS`] / mean slice
//! time)^response: 0.95–1 on this host when it is quiet, 0.6 in a bad
//! episode. Times are reported multiplied by it and rates divided by
//! it — *at nominal host speed*; the values as measured are printed
//! beside them.

use std::time::Instant;

/// Iterations per slice (≈75 µs).
pub const SLICE_ITERS: usize = 16_384;
/// A slice on this host (Xeon @ 2.1 GHz, Firecracker guest) when it is
/// quiet, interleaved with ops. It only fixes the unit: two commits
/// measured on one host are compared at the same nominal speed
/// whatever it is.
pub const NOMINAL_SLICE_NS: f64 = 73_500.0;
/// The response used for set-up (shredding reads and builds in one
/// pass, like the reading workloads).
pub const SETUP_RESPONSE: f64 = 1.5;
/// Share of op time spent on slices.
pub const SLICE_SHARE: f64 = 0.10;
/// Slices run after one op at most (a long op is followed by several).
const MAX_BURST: usize = 16;

/// Table entries (`u32`): 16 KiB.
const TABLE: usize = 1 << 12;

pub struct Calibrator {
    table: Vec<u32>,
    x: u64,
    acc: u64,
    /// Op time not yet matched by slices (ns).
    owed_ns: f64,
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibrator {
    pub fn new() -> Calibrator {
        Calibrator {
            table: (0..TABLE as u32)
                .map(|i| i.wrapping_mul(2654435761) >> 3)
                .collect(),
            x: 0x9e37_79b9_7f4a_7c15,
            acc: 0,
            owed_ns: 0.0,
        }
    }

    /// One slice; its duration in ns.
    pub fn slice(&mut self) -> u64 {
        let t = Instant::now();
        let table: &mut [u32; TABLE] = (&mut self.table[..]).try_into().expect("table size");
        (self.x, self.acc) = kernel(table, self.x, self.acc);
        t.elapsed().as_nanos() as u64
    }

    /// The slices owed after an op of `op_ns`: their count and total
    /// time (ns).
    pub fn after_op(&mut self, op_ns: u64) -> (u64, u64) {
        self.owed_ns += op_ns as f64 * SLICE_SHARE;
        let (mut n, mut total) = (0, 0);
        while self.owed_ns > 0.0 && (n as usize) < MAX_BURST {
            let ns = self.slice();
            self.owed_ns -= ns as f64;
            total += ns;
            n += 1;
        }
        // What a burst cannot pay for is not carried over.
        self.owed_ns = self.owed_ns.min(0.0);
        (n, total)
    }

    /// `n` slices in a row (around a set-up); their total time (ns).
    pub fn burst(&mut self, n: usize) -> u64 {
        (0..n).map(|_| self.slice()).sum()
    }
}

const MUL: u64 = 6364136223846793005;
const ADD: u64 = 1442695040888963407;

/// The slice's loop in plain Rust: the definition of the work, and the
/// kernel where there is no hand-written one.
#[cfg_attr(target_arch = "x86_64", allow(dead_code))]
fn kernel_portable(table: &mut [u32; TABLE], mut x: u64, mut acc: u64) -> (u64, u64) {
    for _ in 0..SLICE_ITERS {
        x = x.wrapping_mul(MUL).wrapping_add(ADD);
        let j = (x >> 40) as usize & (TABLE - 1);
        let v = table[j];
        // Stores to different places keep this a real branch.
        if v & 1 == 0 {
            acc ^= (v as u64).wrapping_add(x);
            table[j] = v.wrapping_add(acc as u32);
        } else {
            acc = acc.rotate_left(5).wrapping_add(v as u64);
            table[(j + 1) & (TABLE - 1)] ^= acc as u32;
        }
    }
    (x, std::hint::black_box(acc))
}

#[cfg(not(target_arch = "x86_64"))]
use kernel_portable as kernel;

/// The same loop, instruction for instruction and on a 64-byte
/// boundary, so that its speed is a property of the host alone: left
/// to the compiler, the loop came out 15 % apart between two builds of
/// this package, and a commit to the engine moves code around too.
#[cfg(target_arch = "x86_64")]
fn kernel(table: &mut [u32; TABLE], mut x: u64, mut acc: u64) -> (u64, u64) {
    // SAFETY: every access is `table + 4 * j` with `j` masked to
    // `TABLE - 1`; only the named registers and the flags change.
    unsafe {
        std::arch::asm!(
            ".p2align 6",
            "2:",
            "imul {x}, {mul}",
            "add {x}, {add}",
            "mov {j}, {x}",
            "shr {j}, 40",
            "and {j:e}, {mask}",
            "mov {v:e}, dword ptr [{tab} + {j}*4]",
            "test {v:e}, 1",
            "jnz 3f",
            "lea {t}, [{v} + {x}]",
            "xor {acc}, {t}",
            "lea {t:e}, [{v} + {acc}]",
            "mov dword ptr [{tab} + {j}*4], {t:e}",
            "jmp 4f",
            "3:",
            "rol {acc}, 5",
            "add {acc}, {v}",
            "inc {j:e}",
            "and {j:e}, {mask}",
            "xor dword ptr [{tab} + {j}*4], {acc:e}",
            "4:",
            "dec {n}",
            "jnz 2b",
            x = inout(reg) x,
            acc = inout(reg) acc,
            n = inout(reg) SLICE_ITERS => _,
            j = out(reg) _,
            v = out(reg) _,
            t = out(reg) _,
            tab = in(reg) table.as_mut_ptr(),
            mul = in(reg) MUL,
            add = in(reg) ADD,
            mask = const TABLE - 1,
            options(nostack),
        );
    }
    (x, acc)
}

/// Host speed from `n` slices that took `total_ns`, for work that
/// slows `response` times as much (in logarithms) as a slice does:
/// 1 = nominal, and 1 where nothing was measured.
pub fn host_speed(n: u64, total_ns: u64, response: f64) -> f64 {
    if n == 0 || total_ns == 0 {
        1.0
    } else {
        (NOMINAL_SLICE_NS * n as f64 / total_ns as f64).powf(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_follow_op_time_at_their_share() {
        let mut c = Calibrator::new();
        c.burst(4);
        let slice_ns = c.burst(8) / 8;
        // 1000 ops worth 10 slices together: about one slice is owed.
        let mut n = 0;
        for _ in 0..1000 {
            n += c.after_op(slice_ns / 100).0;
        }
        assert!((1..=4).contains(&n), "{n} slices");
        // One long op: a burst, capped, and nothing carried over.
        let (n, total) = c.after_op(slice_ns * 1000);
        assert_eq!(n as usize, MAX_BURST);
        assert!(total > 0);
        assert_eq!(c.after_op(0).0, 0);
    }

    #[test]
    fn the_hand_written_kernel_does_the_portable_kernel_s_work() {
        let mut c = Calibrator::new();
        let mut twin: [u32; TABLE] = c.table[..].try_into().unwrap();
        let (mut x, mut acc) = (c.x, c.acc);
        for _ in 0..3 {
            c.slice();
            (x, acc) = kernel_portable(&mut twin, x, acc);
        }
        assert_eq!((c.x, c.acc), (x, acc));
        assert_eq!(c.table[..], twin[..]);
    }

    #[test]
    fn speed_is_nominal_over_mean_to_the_response() {
        assert_eq!(host_speed(0, 0, 1.5), 1.0);
        assert_eq!(host_speed(2, 2 * NOMINAL_SLICE_NS as u64, 1.5), 1.0);
        assert_eq!(host_speed(1, 2 * NOMINAL_SLICE_NS as u64, 1.0), 0.5);
        let half = host_speed(1, 2 * NOMINAL_SLICE_NS as u64, 1.5);
        assert!((half - 0.5f64.powf(1.5)).abs() < 1e-12);
    }
}
