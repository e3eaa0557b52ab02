//! Columnar batch kernels — the contiguous-memory arm of the staircase
//! scan, with a vectorized (SIMD) and a scalar kernel arm.
//!
//! The classic staircase scan visits one slot per loop iteration through
//! the [`TreeView`] accessors: for the paged schema every visit costs a
//! `pre → pos` page swizzle plus a bounds-checked column load, and for a
//! name test an interned-pool lookup on top. This module replaces the
//! per-slot walk with **batch loops over contiguous column slices**
//! ([`TreeView::pre_chunk`]): the node test is resolved *once* per scan
//! into a probe — a name test becomes a single interned-id
//! comparison — and each chunk is then filtered in a tight loop over raw
//! `&[Kind]`/`&[u32]` slices. Schemas without contiguous columns (the
//! naive strawman) transparently fall back to the per-slot walk.
//!
//! # Kernel arms
//!
//! Every chunk filter exists in two arms, selected **at runtime** by
//! [`KernelArm`] so one binary serves both paths and the oracle tests
//! can force either:
//!
//! * [`KernelArm::Scalar`] — the plain per-slot loop, left to the
//!   compiler's autovectorizer.
//! * [`KernelArm::Simd`] — explicit data parallelism with SSE2
//!   intrinsics, which every x86_64 target has: the kind-byte column is
//!   compared 16 bytes per instruction — one compare tests kind *and*
//!   liveness, because an unused slot's byte ([`Kind::UNUSED`]) equals
//!   no kind ([`PreChunk::kinds`]) — name columns 4 ids per
//!   instruction, and the numeric value comparisons behind `ValueProbe`
//!   scan arms ([`in_range_mask`]) 2 doubles per instruction. Off
//!   x86_64 the arm runs the scalar loops, so `KernelArm::Simd` is
//!   always safe to force; [`simd_compiled`] reports whether vector
//!   instructions are live. It is the default arm ([`KernelArm::auto`])
//!   on x86_64.
//!
//! All loads are unaligned ([`PreChunk`] slices start at arbitrary
//! offsets inside a page); the chunk contract only guarantees that a
//! chunk never spans a page boundary. Horizon checks (`hi` bounds,
//! unused-run skips) are hoisted out of the lanes: the chunk loop in
//! [`scan_range`] clips every chunk to the scan horizon before the
//! kernel runs, so the inner loops are branch-free over the masks.
//!
//! [`descendant_scan_ranges`] exposes the other half of the staircase:
//! the horizon-pruned, disjoint subtree regions a descendant step scans.
//! Materializing the ranges separately from the scan lets the
//! morsel-parallel executor partition them across worker threads while
//! [`scan_range`] stays oblivious to who calls it.

use crate::NodeTest;
use mbxq_storage::{Kind, NumRange, PreChunk, QnId, TreeView};

/// Which chunk-kernel implementation a scan dispatches to. See the
/// [module docs](self) for the arm semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelArm {
    /// The plain per-slot scalar loop.
    Scalar,
    /// The vectorized kernels (SSE2 on x86_64; the scalar loops on
    /// other targets).
    Simd,
}

impl KernelArm {
    /// The default arm: [`KernelArm::Simd`] when real vector
    /// instructions are compiled in, [`KernelArm::Scalar`] otherwise.
    #[inline]
    pub fn auto() -> KernelArm {
        if simd_compiled() {
            KernelArm::Simd
        } else {
            KernelArm::Scalar
        }
    }
}

impl Default for KernelArm {
    fn default() -> Self {
        KernelArm::auto()
    }
}

/// Whether the [`KernelArm::Simd`] arm runs actual vector instructions
/// in this build (every x86_64 target), as opposed to the scalar loops.
#[inline]
pub const fn simd_compiled() -> bool {
    cfg!(target_arch = "x86_64")
}

/// Byte lanes per vector in the kind-byte filters of the compiled
/// [`KernelArm::Simd`] arm: 16 (one SSE2 register) when vector
/// instructions are live, 1 otherwise. Benchmarks gate their speedup
/// assertions on this.
#[inline]
pub const fn simd_width() -> usize {
    if simd_compiled() {
        16
    } else {
        1
    }
}

/// The comparison a [`NodeTest`] resolves into against one view — once
/// per operator call instead of once per node: a name test becomes an
/// interned-id compare instead of a pool lookup and a `QName` string
/// compare per node.
pub(crate) enum Probe {
    /// Elements whose interned name id equals the payload.
    Elem(u32),
    /// Any element.
    AnyElement,
    /// Any node of this kind.
    OfKind(Kind),
    /// Every used slot.
    AnyNode,
    /// The tested name is not interned in this document: nothing can
    /// match, the scan is skipped entirely.
    Empty,
    /// Tests needing per-node data beyond the base columns (PI targets)
    /// fall back to [`NodeTest::matches`] per live slot.
    Slow,
}

impl Probe {
    pub(crate) fn resolve<V: TreeView + ?Sized>(view: &V, test: &NodeTest) -> Probe {
        match test {
            NodeTest::Name(q) => match view.pool().lookup_qname(q) {
                Some(qn) => Probe::Elem(qn.0),
                None => Probe::Empty,
            },
            NodeTest::AnyElement => Probe::AnyElement,
            NodeTest::Text => Probe::OfKind(Kind::Text),
            NodeTest::Comment => Probe::OfKind(Kind::Comment),
            NodeTest::AnyPi => Probe::OfKind(Kind::ProcessingInstruction),
            NodeTest::AnyNode => Probe::AnyNode,
            NodeTest::PiTarget(_) => Probe::Slow,
        }
    }

    /// Whether the used node at `pre` passes `test`, the test this
    /// probe was resolved from — [`NodeTest::matches`] for the
    /// per-node loops (child, ancestor, sibling and existence walks).
    #[inline]
    pub(crate) fn matches<V: TreeView + ?Sized>(
        &self,
        view: &V,
        test: &NodeTest,
        pre: u64,
    ) -> bool {
        match self {
            Probe::Elem(want) => view.name_id(pre) == Some(QnId(*want)),
            Probe::AnyElement => view.kind(pre) == Some(Kind::Element),
            Probe::OfKind(kind) => view.kind(pre) == Some(*kind),
            Probe::AnyNode => true,
            Probe::Empty => false,
            Probe::Slow => test.matches(view, pre),
        }
    }
}

/// Appends `chunk.pre + i` for every slot `i` whose kind byte passes
/// `pred`. Liveness is the kind byte's business: a predicate comparing
/// against a [`Kind`] rejects unused slots by construction.
#[inline]
fn emit_matching(
    chunk: &PreChunk<'_>,
    out: &mut Vec<u64>,
    mut pred: impl FnMut(usize, u8) -> bool,
) {
    for (i, &kind) in chunk.kinds.iter().enumerate() {
        if pred(i, kind) {
            out.push(chunk.pre + i as u64);
        }
    }
}

/// The [`KernelArm::Simd`] kernels: SSE2 intrinsics, part of the
/// x86_64 baseline. Off x86_64 the arm dispatches to the scalar loops.
#[cfg(target_arch = "x86_64")]
mod vector {
    use core::arch::x86_64::*;

    /// Appends `pre + i` for every slot with `kinds[i] == want_kind`,
    /// optionally `names[i] == want_name`. SSE2: kind bytes 16 lanes per
    /// compare (unused slots carry a byte equal to no kind, so this is
    /// the liveness test too), names 4 ids per compare, hits extracted
    /// from a 16-bit movemask.
    pub(super) fn filter(
        kinds: &[u8],
        names: &[u32],
        want_kind: u8,
        want_name: Option<u32>,
        pre: u64,
        out: &mut Vec<u64>,
    ) {
        let len = kinds.len();
        let mut i = 0usize;
        // SAFETY: every 16-byte (and 4-id) load below stays inside the
        // slices — the loop bound guarantees `i + 16 <= len`, and the
        // name loads read ids `i..i + 16` of a names slice the chunk
        // contract keeps at least `len` long. Loads are unaligned
        // (`loadu`), matching the chunk's no-alignment guarantee.
        unsafe {
            let kv = _mm_set1_epi8(want_kind as i8);
            while i + 16 <= len {
                let kb = _mm_loadu_si128(kinds.as_ptr().add(i) as *const __m128i);
                let mut m = _mm_movemask_epi8(_mm_cmpeq_epi8(kb, kv)) as u32 & 0xffff;
                if m != 0 {
                    if let Some(w) = want_name {
                        let nv = _mm_set1_epi32(w as i32);
                        let mut nm = 0u32;
                        for j in 0..4usize {
                            let nb =
                                _mm_loadu_si128(names.as_ptr().add(i + 4 * j) as *const __m128i);
                            let eq = _mm_cmpeq_epi32(nb, nv);
                            nm |= (_mm_movemask_ps(_mm_castsi128_ps(eq)) as u32) << (4 * j);
                        }
                        m &= nm;
                    }
                }
                while m != 0 {
                    let bit = m.trailing_zeros() as usize;
                    out.push(pre + (i + bit) as u64);
                    m &= m - 1;
                }
                i += 16;
            }
        }
        // Partial tail lanes: plain scalar.
        while i < len {
            if kinds[i] == want_kind && want_name.is_none_or(|w| names[i] == w) {
                out.push(pre + i as u64);
            }
            i += 1;
        }
    }

    /// Appends `pre + i` for every live slot (`kinds[i] != dead`) — the
    /// `node()` probe.
    pub(super) fn filter_live(kinds: &[u8], dead: u8, pre: u64, out: &mut Vec<u64>) {
        let len = kinds.len();
        let mut i = 0usize;
        // SAFETY: as in `filter` — bounded unaligned loads.
        unsafe {
            let dv = _mm_set1_epi8(dead as i8);
            while i + 16 <= len {
                let kb = _mm_loadu_si128(kinds.as_ptr().add(i) as *const __m128i);
                let is_dead = _mm_movemask_epi8(_mm_cmpeq_epi8(kb, dv)) as u32;
                let mut m = !is_dead & 0xffff;
                while m != 0 {
                    let bit = m.trailing_zeros() as usize;
                    out.push(pre + (i + bit) as u64);
                    m &= m - 1;
                }
                i += 16;
            }
        }
        while i < len {
            if kinds[i] != dead {
                out.push(pre + i as u64);
            }
            i += 1;
        }
    }

    /// Writes `range.contains(vals[i])` per value, two doubles per
    /// compare. NaN (unparsable strings) fails every comparison in both
    /// arms — `cmplt/cmple` style predicates are false on NaN.
    pub(super) fn range_mask(
        vals: &[f64],
        lo: f64,
        hi: f64,
        lo_incl: bool,
        hi_incl: bool,
        keep: &mut Vec<bool>,
    ) {
        let len = vals.len();
        let mut i = 0usize;
        // SAFETY: bounded unaligned two-lane loads.
        unsafe {
            let lov = _mm_set1_pd(lo);
            let hiv = _mm_set1_pd(hi);
            while i + 2 <= len {
                let v = _mm_loadu_pd(vals.as_ptr().add(i));
                let above = if lo_incl {
                    _mm_cmpge_pd(v, lov)
                } else {
                    _mm_cmpgt_pd(v, lov)
                };
                let below = if hi_incl {
                    _mm_cmple_pd(v, hiv)
                } else {
                    _mm_cmplt_pd(v, hiv)
                };
                let m = _mm_movemask_pd(_mm_and_pd(above, below)) as u32;
                keep.push(m & 1 != 0);
                keep.push(m & 2 != 0);
                i += 2;
            }
        }
        while i < len {
            let v = vals[i];
            let above = if lo_incl { v >= lo } else { v > lo };
            let below = if hi_incl { v <= hi } else { v < hi };
            keep.push(above && below);
            i += 1;
        }
    }
}

/// Writes `range.contains(vals[i])` for every value into `keep` — the
/// numeric value-column comparison behind `ValueProbe` scan arms,
/// dispatched by kernel arm (two doubles per SSE2 compare on the
/// vector arm). NaN entries (unparsable strings) never match.
pub fn in_range_mask(vals: &[f64], range: &NumRange, arm: KernelArm, keep: &mut Vec<bool>) {
    match arm {
        #[cfg(target_arch = "x86_64")]
        KernelArm::Simd => {
            vector::range_mask(vals, range.lo, range.hi, range.lo_incl, range.hi_incl, keep)
        }
        _ => keep.extend(vals.iter().map(|&v| range.contains(v))),
    }
}

/// Scans the pre range `[lo, hi)`, appending every used node passing
/// `test` to `out` in ascending pre order — the batch kernel behind the
/// descendant staircase scan, on the default kernel arm.
pub fn scan_range<V: TreeView + ?Sized>(
    view: &V,
    lo: u64,
    hi: u64,
    test: &NodeTest,
    out: &mut Vec<u64>,
) {
    scan_range_arm(view, lo, hi, test, KernelArm::auto(), out);
}

/// [`scan_range`] on an explicit kernel arm.
pub fn scan_range_arm<V: TreeView + ?Sized>(
    view: &V,
    lo: u64,
    hi: u64,
    test: &NodeTest,
    arm: KernelArm,
    out: &mut Vec<u64>,
) {
    scan_resolved(view, lo, hi, test, &Probe::resolve(view, test), arm, out);
}

/// [`scan_range`] over many ranges with the node test resolved once —
/// the shape both the staircase join and the parallel executor use.
/// Ranges must be disjoint and ascending for the output to be sorted.
pub fn scan_ranges<V: TreeView + ?Sized>(
    view: &V,
    ranges: &[(u64, u64)],
    test: &NodeTest,
    out: &mut Vec<u64>,
) {
    scan_ranges_arm(view, ranges, test, KernelArm::auto(), out);
}

/// [`scan_ranges`] on an explicit kernel arm.
pub fn scan_ranges_arm<V: TreeView + ?Sized>(
    view: &V,
    ranges: &[(u64, u64)],
    test: &NodeTest,
    arm: KernelArm,
    out: &mut Vec<u64>,
) {
    let probe = Probe::resolve(view, test);
    for &(lo, hi) in ranges {
        scan_resolved(view, lo, hi, test, &probe, arm, out);
    }
}

/// [`scan_range_arm`] with the node test already resolved.
pub(crate) fn scan_resolved<V: TreeView + ?Sized>(
    view: &V,
    lo: u64,
    hi: u64,
    test: &NodeTest,
    probe: &Probe,
    arm: KernelArm,
    out: &mut Vec<u64>,
) {
    if matches!(probe, Probe::Empty) {
        return;
    }
    let mut p = lo;
    while p < hi {
        let Some(chunk) = view.pre_chunk(p, hi) else {
            // Chunk-less schema: the per-slot staircase walk.
            while let Some(q) = view.next_used_at_or_after(p) {
                if q >= hi {
                    break;
                }
                if probe.matches(view, test, q) {
                    out.push(q);
                }
                p = q + 1;
            }
            return;
        };
        filter_chunk(view, &chunk, test, probe, arm, out);
        p += chunk.len() as u64;
    }
}

/// One chunk through the probe, dispatched by kernel arm. `Slow`
/// probes always take the per-slot path (they read per-node data the
/// columns don't carry).
fn filter_chunk<V: TreeView + ?Sized>(
    view: &V,
    chunk: &PreChunk<'_>,
    test: &NodeTest,
    probe: &Probe,
    arm: KernelArm,
    out: &mut Vec<u64>,
) {
    let (want_kind, want_name) = match probe {
        Probe::Elem(want) => (Kind::Element, Some(*want)),
        Probe::AnyElement => (Kind::Element, None),
        Probe::OfKind(k) => (*k, None),
        Probe::AnyNode => {
            return match arm {
                #[cfg(target_arch = "x86_64")]
                KernelArm::Simd => vector::filter_live(chunk.kinds, Kind::UNUSED, chunk.pre, out),
                _ => emit_matching(chunk, out, |_, k| k != Kind::UNUSED),
            }
        }
        Probe::Slow => {
            return emit_matching(chunk, out, |i, k| {
                k != Kind::UNUSED && test.matches(view, chunk.pre + i as u64)
            })
        }
        Probe::Empty => unreachable!("empty probes never scan"),
    };
    let want_kind = want_kind as u8;
    match arm {
        #[cfg(target_arch = "x86_64")]
        KernelArm::Simd => vector::filter(
            chunk.kinds,
            chunk.names,
            want_kind,
            want_name,
            chunk.pre,
            out,
        ),
        _ => match want_name {
            Some(want) => {
                emit_matching(chunk, out, |i, k| k == want_kind && chunk.names[i] == want)
            }
            None => emit_matching(chunk, out, |_, k| k == want_kind),
        },
    }
}

/// The horizon-pruned, disjoint subtree regions `(lo, hi)` a
/// descendant(-or-self) staircase over `context` scans, in ascending
/// order. Scanning them with [`scan_ranges`] reproduces the staircase
/// result exactly; partitioning them over threads parallelizes it.
pub fn descendant_scan_ranges<V: TreeView + ?Sized>(
    view: &V,
    context: &[u64],
    or_self: bool,
) -> Vec<(u64, u64)> {
    let mut out = Vec::with_capacity(context.len());
    let mut horizon = 0u64;
    for &c in context {
        if c < horizon {
            continue; // pruned: covered by a previous context node
        }
        horizon = view.region_end(c);
        let lo = if or_self { c } else { c + 1 };
        if lo < horizon {
            out.push((lo, horizon));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{step, Axis};
    use mbxq_storage::{NaiveDoc, PageConfig, PagedDoc, ReadOnlyDoc};
    use mbxq_xml::QName;

    const DOC: &str = "<a>t0<b><c><d/>mid<e/></c></b><f><g/><!--x--><h><i/><j/></h></f></a>";

    fn scan<V: TreeView>(view: &V, lo: u64, hi: u64, test: &NodeTest, arm: KernelArm) -> Vec<u64> {
        let mut out = Vec::new();
        scan_range_arm(view, lo, hi, test, arm, &mut out);
        out
    }

    /// Both kernel arms must agree with the per-slot walk on every
    /// schema (chunked and fallback paths), every test, every
    /// sub-range — misaligned starts and partial tail lanes included.
    #[test]
    fn scan_matches_per_slot_walk() {
        let ro = ReadOnlyDoc::parse_str(DOC).unwrap();
        let up = PagedDoc::parse_str(DOC, PageConfig::new(4, 75).unwrap()).unwrap();
        let nv = NaiveDoc::parse_str(DOC).unwrap();
        fn check<V: TreeView>(view: &V) {
            let tests = [
                NodeTest::AnyNode,
                NodeTest::AnyElement,
                NodeTest::Text,
                NodeTest::Comment,
                NodeTest::Name(QName::local("h")),
                NodeTest::Name(QName::local("nope")),
            ];
            let end = view.pre_end();
            for test in &tests {
                for lo in 0..end {
                    for hi in lo..=end {
                        let mut want = Vec::new();
                        let mut p = lo;
                        while let Some(q) = view.next_used_at_or_after(p) {
                            if q >= hi {
                                break;
                            }
                            if test.matches(view, q) {
                                want.push(q);
                            }
                            p = q + 1;
                        }
                        for arm in [KernelArm::Scalar, KernelArm::Simd] {
                            assert_eq!(
                                scan(view, lo, hi, test, arm),
                                want,
                                "[{lo},{hi}) {test:?} {arm:?}"
                            );
                        }
                    }
                }
            }
        }
        check(&ro);
        check(&up);
        check(&nv);
    }

    /// Scanning the staircase ranges reproduces the descendant step.
    #[test]
    fn ranges_plus_scan_equal_staircase() {
        let up = PagedDoc::parse_str(DOC, PageConfig::new(4, 75).unwrap()).unwrap();
        let contexts: &[&[u64]] = &[&[0], &[2, 8], &[2, 3, 8], &[0, 2, 8]];
        for ctx in contexts {
            let ctx: Vec<u64> = ctx.iter().copied().filter(|&p| up.is_used(p)).collect();
            for or_self in [false, true] {
                let axis = if or_self {
                    Axis::DescendantOrSelf
                } else {
                    Axis::Descendant
                };
                let want = step(&up, &ctx, axis, &NodeTest::AnyElement);
                let ranges = descendant_scan_ranges(&up, &ctx, or_self);
                // Ranges are disjoint and ascending.
                assert!(ranges.windows(2).all(|w| w[0].1 <= w[1].0), "{ranges:?}");
                for arm in [KernelArm::Scalar, KernelArm::Simd] {
                    let mut got = Vec::new();
                    scan_ranges_arm(&up, &ranges, &NodeTest::AnyElement, arm, &mut got);
                    assert_eq!(got, want, "ctx {ctx:?} or_self {or_self} {arm:?}");
                }
            }
        }
    }

    /// The numeric range kernel agrees with `NumRange::contains` on
    /// every arm, including NaN entries and open/closed bounds, at
    /// lengths that exercise partial tail lanes.
    #[test]
    fn range_mask_matches_contains() {
        let vals: Vec<f64> = vec![
            -3.0,
            0.0,
            0.5,
            1.0,
            2.0,
            2.5,
            3.0,
            f64::NAN,
            7.25,
            -0.0,
            1e12,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let ranges = [
            NumRange::exactly(1.0),
            NumRange {
                lo: 0.0,
                hi: 3.0,
                lo_incl: true,
                hi_incl: false,
            },
            NumRange {
                lo: 0.5,
                hi: 2.5,
                lo_incl: false,
                hi_incl: true,
            },
            NumRange {
                lo: f64::NEG_INFINITY,
                hi: 2.0,
                lo_incl: false,
                hi_incl: true,
            },
        ];
        for r in &ranges {
            for n in 0..=vals.len() {
                let want: Vec<bool> = vals[..n].iter().map(|&v| r.contains(v)).collect();
                for arm in [KernelArm::Scalar, KernelArm::Simd] {
                    let mut got = Vec::new();
                    in_range_mask(&vals[..n], r, arm, &mut got);
                    assert_eq!(got, want, "{r:?} n={n} {arm:?}");
                }
            }
        }
    }
}
