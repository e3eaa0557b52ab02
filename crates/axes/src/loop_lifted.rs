//! Loop-lifted staircase join.
//!
//! Pathfinder compiles XQuery `for`-loops into *loop-lifted* relational
//! plans: instead of evaluating an axis step once per binding, the whole
//! sequence of bindings is processed in one operator invocation over an
//! `(iter, pre)` relation — "the combination of efficient nested XPath
//! axis evaluation with loop-lifted staircase join" is what gives
//! MonetDB/XQuery its interactive XMark times (§1). The XMark query
//! plans in `mbxq-xmark` use this form for their nested `for` clauses.

use crate::batch::Probe;
use crate::{step_probed, Axis, KernelArm, NodeTest};
use mbxq_storage::TreeView;

/// A loop-lifted context: parallel `(iter, pre)` columns, sorted by
/// `(iter, pre)` with no duplicate pairs. `iter` identifies the
/// surrounding `for`-loop binding the node belongs to.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ContextSeq {
    /// Loop-iteration ids (non-decreasing).
    pub iters: Vec<u32>,
    /// Pre ranks, ascending within each iteration.
    pub pres: Vec<u64>,
}

impl ContextSeq {
    /// Creates an empty sequence.
    pub fn new() -> Self {
        Self::default()
    }

    /// A single-iteration context holding `pres` (must be sorted).
    pub fn single_iter(pres: Vec<u64>) -> Self {
        ContextSeq {
            iters: vec![0; pres.len()],
            pres,
        }
    }

    /// Lifts each node of a flat context into its own iteration — the
    /// relational image of entering a `for`-loop over the node sequence.
    pub fn lift(pres: &[u64]) -> Self {
        ContextSeq {
            iters: (0..pres.len() as u32).collect(),
            pres: pres.to_vec(),
        }
    }

    /// Number of `(iter, pre)` pairs.
    pub fn len(&self) -> usize {
        self.pres.len()
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.pres.is_empty()
    }

    /// Iterates `(iter, pre)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.iters.iter().copied().zip(self.pres.iter().copied())
    }

    /// Appends one pair (must preserve the sort order).
    pub fn push(&mut self, iter: u32, pre: u64) {
        debug_assert!(
            self.iters.last().is_none_or(|&last| last <= iter),
            "iters must be non-decreasing"
        );
        self.iters.push(iter);
        self.pres.push(pre);
    }

    /// The pre ranks of one iteration (ascending).
    pub fn pres_of_iter(&self, iter: u32) -> &[u64] {
        let lo = self.iters.partition_point(|&i| i < iter);
        let hi = self.iters.partition_point(|&i| i <= iter);
        &self.pres[lo..hi]
    }

    /// Distinct iteration ids in order.
    pub fn iter_ids(&self) -> Vec<u32> {
        let mut ids = self.iters.clone();
        ids.dedup();
        ids
    }

    /// Flattens the relation into one duplicate-free, document-ordered
    /// node sequence — the projection that ends a loop-lifted plan when
    /// XPath semantics ask for a merged node set.
    pub fn merged_pres(&self) -> Vec<u64> {
        let mut out = self.pres.clone();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Per-row `(position(), last())` vectors: 1-based rank of each row
    /// within its iteration group and the group size. `reverse` counts
    /// positions from the group's end — the XPath rule for reverse axes,
    /// whose candidates are stored here in document order.
    pub fn positions(&self, reverse: bool) -> (Vec<f64>, Vec<f64>) {
        let mut pos = Vec::with_capacity(self.len());
        let mut last = Vec::with_capacity(self.len());
        let mut start = 0usize;
        while start < self.len() {
            let iter = self.iters[start];
            let mut end = start;
            while end < self.len() && self.iters[end] == iter {
                end += 1;
            }
            let n = end - start;
            for k in 0..n {
                let p = if reverse { n - k } else { k + 1 };
                pos.push(p as f64);
                last.push(n as f64);
            }
            start = end;
        }
        (pos, last)
    }

    /// Keeps only the rows whose flag is set (the relational `select`
    /// that applies a predicate mask). Group tags are preserved.
    pub fn retain_rows(&self, keep: &[bool]) -> ContextSeq {
        debug_assert_eq!(keep.len(), self.len());
        let mut out = ContextSeq::new();
        for (&flag, (iter, pre)) in keep.iter().zip(self.iter()) {
            if flag {
                out.push(iter, pre);
            }
        }
        out
    }

    /// Regroups rows under new iteration tags (`row_iters[k]` is row
    /// `k`'s new tag, non-decreasing), merging rows that land in the same
    /// iteration into sorted, duplicate-free groups — the back-mapping
    /// after a nested scope expanded each row into its own iteration.
    pub fn regroup(&self, row_iters: &[u32]) -> ContextSeq {
        debug_assert_eq!(row_iters.len(), self.len());
        let mut out = ContextSeq::new();
        let mut start = 0usize;
        while start < self.len() {
            let target = row_iters[start];
            let mut end = start;
            while end < self.len() && row_iters[end] == target {
                end += 1;
            }
            let mut group: Vec<u64> = self.pres[start..end].to_vec();
            group.sort_unstable();
            group.dedup();
            for pre in group {
                out.push(target, pre);
            }
            start = end;
        }
        out
    }
}

/// Evaluates one axis step per iteration group in a single pass over the
/// groups — the loop-lifted operator. Results keep their iteration tags,
/// sorted by `(iter, pre)`.
pub fn step_lifted<V: TreeView + ?Sized>(
    view: &V,
    ctx: &ContextSeq,
    axis: Axis,
    test: &NodeTest,
) -> ContextSeq {
    step_lifted_with(view, ctx, axis, test, KernelArm::auto())
}

/// [`step_lifted`] on an explicit chunk-kernel arm (see
/// [`crate::batch::KernelArm`]).
pub fn step_lifted_with<V: TreeView + ?Sized>(
    view: &V,
    ctx: &ContextSeq,
    axis: Axis,
    test: &NodeTest,
    arm: KernelArm,
) -> ContextSeq {
    // The test resolves once for the whole relation, and one buffer
    // takes every group's result in turn.
    let probe = Probe::resolve(view, test);
    let mut group = Vec::new();
    let mut out = ContextSeq::new();
    let mut start = 0usize;
    while start < ctx.len() {
        let iter = ctx.iters[start];
        let mut end = start;
        while end < ctx.len() && ctx.iters[end] == iter {
            end += 1;
        }
        group.clear();
        step_probed(
            view,
            &ctx.pres[start..end],
            axis,
            test,
            &probe,
            arm,
            &mut group,
        );
        out.iters.extend(std::iter::repeat_n(iter, group.len()));
        out.pres.extend_from_slice(&group);
        start = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::step;
    use mbxq_storage::ReadOnlyDoc;

    const PAPER_DOC: &str =
        "<a><b><c><d></d><e></e></c></b><f><g></g><h><i></i><j></j></h></f></a>";

    #[test]
    fn lift_assigns_one_iter_per_node() {
        let ctx = ContextSeq::lift(&[1, 5]);
        assert_eq!(ctx.iter_ids(), vec![0, 1]);
        assert_eq!(ctx.pres_of_iter(0), &[1]);
        assert_eq!(ctx.pres_of_iter(1), &[5]);
    }

    #[test]
    fn lifted_step_keeps_iterations_separate() {
        let d = ReadOnlyDoc::parse_str(PAPER_DOC).unwrap();
        // for $x in (b, f) return $x/child::*
        let ctx = ContextSeq::lift(&[1, 5]);
        let out = step_lifted(&d, &ctx, Axis::Child, &NodeTest::AnyElement);
        assert_eq!(out.pres_of_iter(0), &[2]); // b -> c
        assert_eq!(out.pres_of_iter(1), &[6, 7]); // f -> g, h
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn single_iter_merges_results() {
        let d = ReadOnlyDoc::parse_str(PAPER_DOC).unwrap();
        let ctx = ContextSeq::single_iter(vec![1, 5]);
        let out = step_lifted(&d, &ctx, Axis::Child, &NodeTest::AnyElement);
        assert_eq!(out.pres, vec![2, 6, 7]);
        assert_eq!(out.iters, vec![0, 0, 0]);
    }

    #[test]
    fn nested_lift_composes() {
        let d = ReadOnlyDoc::parse_str(PAPER_DOC).unwrap();
        // for $x in (a)/* return $x/descendant::*
        let kids = step(&d, &[0], Axis::Child, &NodeTest::AnyElement);
        let ctx = ContextSeq::lift(&kids);
        let out = step_lifted(&d, &ctx, Axis::Descendant, &NodeTest::AnyElement);
        assert_eq!(out.pres_of_iter(0), &[2, 3, 4]); // b's subtree
        assert_eq!(out.pres_of_iter(1), &[6, 7, 8, 9]); // f's subtree
    }

    #[test]
    fn empty_context_is_fine() {
        let d = ReadOnlyDoc::parse_str(PAPER_DOC).unwrap();
        let out = step_lifted(&d, &ContextSeq::new(), Axis::Child, &NodeTest::AnyNode);
        assert!(out.is_empty());
    }

    #[test]
    fn merged_pres_flattens_and_dedups() {
        let mut cs = ContextSeq::new();
        cs.push(0, 4);
        cs.push(0, 9);
        cs.push(1, 2);
        cs.push(1, 9);
        assert_eq!(cs.merged_pres(), vec![2, 4, 9]);
    }

    #[test]
    fn positions_count_per_group_both_directions() {
        let mut cs = ContextSeq::new();
        cs.push(0, 1);
        cs.push(0, 2);
        cs.push(0, 3);
        cs.push(2, 7);
        let (pos, last) = cs.positions(false);
        assert_eq!(pos, vec![1.0, 2.0, 3.0, 1.0]);
        assert_eq!(last, vec![3.0, 3.0, 3.0, 1.0]);
        let (rpos, rlast) = cs.positions(true);
        assert_eq!(rpos, vec![3.0, 2.0, 1.0, 1.0]);
        assert_eq!(rlast, vec![3.0, 3.0, 3.0, 1.0]);
    }

    #[test]
    fn retain_rows_applies_mask_keeping_groups() {
        let mut cs = ContextSeq::new();
        cs.push(0, 1);
        cs.push(0, 2);
        cs.push(1, 5);
        let kept = cs.retain_rows(&[true, false, true]);
        assert_eq!(kept.iters, vec![0, 1]);
        assert_eq!(kept.pres, vec![1, 5]);
    }

    #[test]
    fn regroup_merges_rows_under_new_tags() {
        // Rows 0..3 were expanded into their own iterations; map them
        // back to outer iterations [0, 0, 4] and merge duplicates.
        let mut cs = ContextSeq::new();
        cs.push(0, 8);
        cs.push(1, 3);
        cs.push(2, 3);
        let back = cs.regroup(&[0, 0, 4]);
        assert_eq!(back.iters, vec![0, 0, 4]);
        assert_eq!(back.pres, vec![3, 8, 3]);
    }
}
