//! Sorted posting-list intersection kernels — the merge half of the
//! multi-predicate value step, with a vectorized and a scalar arm.
//!
//! A `MultiProbe` step probes the content index once per recognized
//! predicate and intersects the resulting candidate lists *before* the
//! range semijoin back into the context, so the semijoin and any
//! residual verification only ever touch nodes that already satisfy
//! every indexable predicate. Posting lists arrive sorted (document
//! order) and deduplicated, so intersection is a merge problem, and the
//! classic two-regime split applies:
//!
//! * **Galloping** — when one list is much shorter than the other
//!   (`GALLOP_RATIO`), walk the short list and exponentially search
//!   the long one from a moving cursor: `O(n · log(m/n))`, the shape
//!   that wins when a selective predicate meets an unselective one.
//!   Branchy binary search does not vectorize; both kernel arms share
//!   this path.
//! * **Block merge** — when the lists are comparable, advance two-lane
//!   windows through both lists, comparing all window cross pairs per
//!   iteration. Under [`KernelArm::Simd`] (the `simd` feature on
//!   x86_64) the four 64-bit equality tests of a window pair run as two
//!   SSE2 compares (no `cmpeq_epi64` in SSE2 — a lane is equal iff both
//!   of its 32-bit halves compare equal, checked on the byte movemask);
//!   otherwise a hand-unrolled scalar twin computes bit-identical
//!   results, so [`KernelArm::Simd`] is always safe to force.
//!
//! The k-way entry point [`intersect_sorted`] folds pairwise in the
//! *given* list order — the caller (the executor's degree-bound
//! estimator) ranks lists by estimated cardinality so the intermediate
//! result collapses as early as possible; this kernel deliberately does
//! not second-guess that order beyond putting the shorter operand of
//! each pairwise step on the driving side.

use crate::batch::KernelArm;

/// Length ratio above which a pairwise intersection gallops instead of
/// block-merging. 8 is the conventional crossover: below it the merge's
/// branch-free progress beats binary-search cache misses.
const GALLOP_RATIO: usize = 8;

/// Intersects `k` sorted, deduplicated posting lists in the given
/// order, folding pairwise (`((l0 ∩ l1) ∩ l2) …`) and short-circuiting
/// on an empty intermediate. Returns the sorted intersection.
pub fn intersect_sorted(lists: &[&[u64]], arm: KernelArm) -> Vec<u64> {
    match lists {
        [] => Vec::new(),
        [only] => only.to_vec(),
        [first, rest @ ..] => {
            let mut acc = Vec::new();
            intersect_pair(first, rest[0], arm, &mut acc);
            for list in &rest[1..] {
                if acc.is_empty() {
                    break;
                }
                let prev = std::mem::take(&mut acc);
                intersect_pair(&prev, list, arm, &mut acc);
            }
            acc
        }
    }
}

/// Appends the intersection of two sorted, deduplicated lists to
/// `out`, picking the regime from the length ratio (module docs).
pub fn intersect_pair(a: &[u64], b: &[u64], arm: KernelArm, out: &mut Vec<u64>) {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.is_empty() {
        return;
    }
    if large.len() / small.len() >= GALLOP_RATIO {
        gallop_intersect(small, large, out);
    } else {
        match arm {
            KernelArm::Scalar => merge_intersect(small, large, out),
            KernelArm::Simd => vector::block_intersect(small, large, out),
        }
    }
}

/// Walks `small`, exponentially searching `large` from a cursor that
/// only moves forward — `O(n · log(m/n))` total.
fn gallop_intersect(small: &[u64], large: &[u64], out: &mut Vec<u64>) {
    let mut base = 0usize;
    for &x in small {
        if base >= large.len() {
            break;
        }
        let idx = gallop_to(large, base, x);
        if idx < large.len() && large[idx] == x {
            out.push(x);
            base = idx + 1;
        } else {
            base = idx;
        }
    }
}

/// First index `>= base` of the ascending `list` whose entry is `>= x`
/// (`list.len()` when there is none): widen the probe window
/// exponentially from the cursor until it covers `x`, then binary-search
/// inside it — O(log distance), so a cursor that only moves forward
/// pays for the gaps it crosses, not for the list.
pub(crate) fn gallop_to(list: &[u64], base: usize, x: u64) -> usize {
    let mut bound = 1usize;
    while base + bound < list.len() && list[base + bound] < x {
        bound <<= 1;
    }
    let end = (base + bound + 1).min(list.len());
    base + list[base..end].partition_point(|&v| v < x)
}

/// The plain two-cursor merge — the [`KernelArm::Scalar`] arm of the
/// comparable-length regime.
fn merge_intersect(a: &[u64], b: &[u64], out: &mut Vec<u64>) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// The [`KernelArm::Simd`] kernels — SSE2 under `--features simd` on
/// x86_64, a hand-unrolled scalar equivalent otherwise (same interface,
/// bit-identical results, as in `batch::vector`).
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod vector {
    #[cfg(target_arch = "x86_64")]
    use core::arch::x86_64::*;

    /// Two-lane block merge: compares the window pair `a[i..i+2]` ×
    /// `b[j..j+2]` (all four cross pairs) per iteration, then advances
    /// the window with the smaller maximum. Strict ascending order
    /// makes at most one match per element possible, so the aligned
    /// and swapped compares are mutually exclusive per lane.
    pub(super) fn block_intersect(a: &[u64], b: &[u64], out: &mut Vec<u64>) {
        let (mut i, mut j) = (0usize, 0usize);
        // SAFETY: every 16-byte load reads lanes `i..i+2` / `j..j+2`,
        // and the loop bound guarantees both windows are in range.
        // Loads are unaligned (`loadu`) — posting lists carry no
        // alignment guarantee.
        unsafe {
            while i + 2 <= a.len() && j + 2 <= b.len() {
                let va = _mm_loadu_si128(a.as_ptr().add(i) as *const __m128i);
                let vb = _mm_loadu_si128(b.as_ptr().add(j) as *const __m128i);
                // 64-bit lane equality out of SSE2's 32-bit compare: a
                // lane matches iff all 8 of its mask bytes are set.
                let eq = _mm_movemask_epi8(_mm_cmpeq_epi32(va, vb)) as u32;
                let sw = _mm_shuffle_epi32::<0b0100_1110>(vb); // swap 64-bit lanes
                let eqs = _mm_movemask_epi8(_mm_cmpeq_epi32(va, sw)) as u32;
                if eq & 0x00ff == 0x00ff || eqs & 0x00ff == 0x00ff {
                    out.push(a[i]);
                }
                if eq & 0xff00 == 0xff00 || eqs & 0xff00 == 0xff00 {
                    out.push(a[i + 1]);
                }
                let (amax, bmax) = (a[i + 1], b[j + 1]);
                if amax <= bmax {
                    i += 2;
                }
                if bmax <= amax {
                    j += 2;
                }
            }
        }
        super::merge_intersect(&a[i..], &b[j..], out);
    }
}

/// The hand-unrolled scalar fallback for the [`KernelArm::Simd`] arm —
/// same window algorithm and results as the intrinsics module.
#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
mod vector {
    /// See the SSE2 twin: two-lane block merge, scalar cross compares.
    pub(super) fn block_intersect(a: &[u64], b: &[u64], out: &mut Vec<u64>) {
        let (mut i, mut j) = (0usize, 0usize);
        while i + 2 <= a.len() && j + 2 <= b.len() {
            if a[i] == b[j] || a[i] == b[j + 1] {
                out.push(a[i]);
            }
            if a[i + 1] == b[j + 1] || a[i + 1] == b[j] {
                out.push(a[i + 1]);
            }
            let (amax, bmax) = (a[i + 1], b[j + 1]);
            if amax <= bmax {
                i += 2;
            }
            if bmax <= amax {
                j += 2;
            }
        }
        super::merge_intersect(&a[i..], &b[j..], out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Deterministic pseudo-random sorted list (xorshift; no external
    /// RNG dependency).
    fn list(seed: u64, len: usize, span: u64) -> Vec<u64> {
        let mut s = seed | 1;
        let mut set = BTreeSet::new();
        while set.len() < len {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            set.insert(s % span);
        }
        set.into_iter().collect()
    }

    fn naive(lists: &[&[u64]]) -> Vec<u64> {
        let Some((first, rest)) = lists.split_first() else {
            return Vec::new();
        };
        first
            .iter()
            .copied()
            .filter(|x| rest.iter().all(|l| l.binary_search(x).is_ok()))
            .collect()
    }

    /// Both arms must agree with the naive set intersection across
    /// length ratios spanning the gallop and block-merge regimes,
    /// odd lengths (partial tail windows) and empty lists included.
    #[test]
    fn pairwise_matches_naive_on_both_arms() {
        let shapes: &[(usize, usize, u64)] = &[
            (0, 10, 50),
            (1, 1, 4),
            (3, 200, 300), // gallop regime
            (7, 9, 40),
            (16, 16, 64),
            (17, 23, 60), // odd lengths: tail lanes
            (100, 130, 400),
            (64, 4096, 8192), // deep gallop
        ];
        for &(na, nb, span) in shapes {
            for (sa, sb) in [(1u64, 2u64), (11, 7), (5, 5)] {
                let a = list(sa.wrapping_mul(0x9e37_79b9), na, span);
                let b = list(sb.wrapping_mul(0x85eb_ca6b), nb, span);
                let want = naive(&[&a, &b]);
                for arm in [KernelArm::Scalar, KernelArm::Simd] {
                    let mut got = Vec::new();
                    intersect_pair(&a, &b, arm, &mut got);
                    assert_eq!(got, want, "na={na} nb={nb} span={span} {arm:?}");
                    // Symmetric: operand order must not matter.
                    let mut rev = Vec::new();
                    intersect_pair(&b, &a, arm, &mut rev);
                    assert_eq!(rev, want, "reversed na={na} nb={nb} {arm:?}");
                }
            }
        }
    }

    /// K-way folds agree with the naive intersection for 0–4 lists,
    /// both arms, including an empty list that kills the result.
    #[test]
    fn kway_matches_naive() {
        let l0 = list(0xdead, 40, 120);
        let l1 = list(0xbeef, 60, 120);
        let l2 = list(0xf00d, 25, 120);
        let l3: Vec<u64> = Vec::new();
        let cases: &[&[&[u64]]] = &[
            &[],
            &[&l0],
            &[&l0, &l1],
            &[&l2, &l0, &l1],
            &[&l0, &l1, &l2, &l3],
        ];
        for lists in cases {
            let want = naive(lists);
            for arm in [KernelArm::Scalar, KernelArm::Simd] {
                assert_eq!(
                    intersect_sorted(lists, arm),
                    want,
                    "k={} {arm:?}",
                    lists.len()
                );
            }
        }
    }

    /// Dense overlapping runs — every element shared — exercise the
    /// equal-advance path of the block merge on both arms.
    #[test]
    fn identical_lists_roundtrip() {
        for n in [0usize, 1, 2, 3, 16, 33] {
            let a: Vec<u64> = (0..n as u64).map(|i| i * 3).collect();
            for arm in [KernelArm::Scalar, KernelArm::Simd] {
                assert_eq!(intersect_sorted(&[&a, &a], arm), a, "n={n} {arm:?}");
            }
        }
    }
}
