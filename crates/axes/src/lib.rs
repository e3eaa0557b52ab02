//! `mbxq-axes` — staircase join: XPath axis evaluation on the pre plane.
//!
//! The staircase join \[GvKT03\] evaluates an XPath axis step for a whole
//! *context set* of nodes in one sequential pass over the pre/size/level
//! table, exploiting three tree-aware techniques:
//!
//! * **pruning** — context nodes whose regions are covered by another
//!   context node are dropped before the scan (a context node that is a
//!   descendant of another contributes nothing new to a `descendant`
//!   step);
//! * **partitioning** — each result node is produced exactly once, by the
//!   context node whose region it falls in, so results come out in
//!   document order with no duplicate elimination;
//! * **skipping** — regions that cannot contain results are jumped over
//!   using the `size` column (`pre + size + 1`), and — new with the
//!   updateable schema — *unused tuples* are jumped over using their run
//!   length (§3 of the paper: "this allows the staircase-join to skip
//!   over unused tuples quickly").
//!
//! Everything here is generic over [`TreeView`], so the identical code
//! runs against the read-only schema and against the paged view, exactly
//! as the paper runs staircase join "unmodified" on the memory-mapped
//! view (§4).

use mbxq_storage::{Kind, TreeView};
use mbxq_xml::QName;

pub mod batch;
pub mod intersect;
mod iterators;
pub mod loop_lifted;
pub mod semijoin;

use batch::Probe;
pub use batch::{
    descendant_scan_ranges, in_range_mask, scan_range, scan_range_arm, scan_ranges,
    scan_ranges_arm, simd_compiled, simd_width, KernelArm,
};
pub use intersect::{intersect_pair, intersect_sorted};
pub use iterators::{children, descendants, following_siblings};
pub use loop_lifted::{step_lifted, step_lifted_with, ContextSeq};
pub use semijoin::{exists_semijoin, exists_step, range_semijoin, region_window};

/// The XPath axes supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// Direct children.
    Child,
    /// All nodes in the subtree below the context node.
    Descendant,
    /// Context node plus its descendants.
    DescendantOrSelf,
    /// The parent node.
    Parent,
    /// All nodes on the path to the root.
    Ancestor,
    /// Context node plus its ancestors.
    AncestorOrSelf,
    /// Siblings after the context node.
    FollowingSibling,
    /// Siblings before the context node.
    PrecedingSibling,
    /// Everything after the context node's region (pre/post quadrant).
    Following,
    /// Everything before the context node except its ancestors.
    Preceding,
    /// The context node itself.
    SelfAxis,
}

/// A node test applied to axis-step candidates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeTest {
    /// `node()` — any node kind.
    AnyNode,
    /// `*` — any element.
    AnyElement,
    /// `name` — elements with this qualified name.
    Name(QName),
    /// `text()` — text nodes.
    Text,
    /// `comment()` — comment nodes.
    Comment,
    /// `processing-instruction()` — any PI.
    AnyPi,
    /// `processing-instruction('target')`.
    PiTarget(String),
}

impl NodeTest {
    /// Whether the used node at `pre` passes the test. A name test
    /// resolves the node's interned id back to its `QName` and compares
    /// strings — the per-node loops of this crate resolve the test once
    /// per call instead and compare ids.
    pub fn matches<V: TreeView + ?Sized>(&self, view: &V, pre: u64) -> bool {
        match self {
            NodeTest::AnyNode => true,
            NodeTest::AnyElement => view.kind(pre) == Some(Kind::Element),
            NodeTest::Name(name) => match (view.kind(pre), view.name_id(pre)) {
                (Some(Kind::Element), Some(qid)) => {
                    view.pool().qname(qid).is_some_and(|q| q == name)
                }
                _ => false,
            },
            NodeTest::Text => view.kind(pre) == Some(Kind::Text),
            NodeTest::Comment => view.kind(pre) == Some(Kind::Comment),
            NodeTest::AnyPi => view.kind(pre) == Some(Kind::ProcessingInstruction),
            NodeTest::PiTarget(t) => {
                view.kind(pre) == Some(Kind::ProcessingInstruction)
                    && view
                        .value_ref(pre)
                        .and_then(|v| view.pool().instruction(v.0))
                        .is_some_and(|(target, _)| target == t)
            }
        }
    }
}

/// Evaluates one axis step for a context set.
///
/// `context` must be sorted in document order (ascending pre) and free of
/// duplicates — which is exactly what this function returns, so steps
/// compose. This is the staircase-join entry point.
pub fn step<V: TreeView + ?Sized>(
    view: &V,
    context: &[u64],
    axis: Axis,
    test: &NodeTest,
) -> Vec<u64> {
    step_with(view, context, axis, test, KernelArm::auto())
}

/// [`step`] on an explicit chunk-kernel arm (see [`batch::KernelArm`]).
/// Only the scan-shaped axes (`descendant`, `descendant-or-self`,
/// `following`) run chunk kernels; the arm is ignored elsewhere.
pub fn step_with<V: TreeView + ?Sized>(
    view: &V,
    context: &[u64],
    axis: Axis,
    test: &NodeTest,
    arm: KernelArm,
) -> Vec<u64> {
    let mut out = Vec::new();
    step_probed(
        view,
        context,
        axis,
        test,
        &Probe::resolve(view, test),
        arm,
        &mut out,
    );
    out
}

/// [`step_with`] with the node test already resolved against `view`
/// (the per-node loops compare interned ids, not names), writing the
/// result into `out`, which must be empty — so a loop-lifted step
/// resolves its test once and reuses one buffer for all its groups.
pub(crate) fn step_probed<V: TreeView + ?Sized>(
    view: &V,
    context: &[u64],
    axis: Axis,
    test: &NodeTest,
    probe: &Probe,
    arm: KernelArm,
    out: &mut Vec<u64>,
) {
    debug_assert!(context.windows(2).all(|w| w[0] < w[1]), "context sorted");
    debug_assert!(out.is_empty(), "the step writes a fresh result");
    let matches = |p: u64| probe.matches(view, test, p);
    // The per-node results of the child, parent and sibling axes
    // interleave or repeat only where context nodes nest or share a
    // parent: their concatenation is put back in document order.
    let sort_dedup = |out: &mut Vec<u64>| {
        out.sort_unstable();
        out.dedup();
    };
    match axis {
        Axis::SelfAxis => out.extend(context.iter().copied().filter(|&p| matches(p))),
        Axis::Child => {
            for &c in context {
                out.extend(children(view, c).filter(|&p| matches(p)));
            }
            sort_dedup(out);
        }
        Axis::Descendant | Axis::DescendantOrSelf => {
            // Prune covered context nodes, then scan each surviving
            // region once: document order, no duplicates by
            // construction. The region scans run as columnar batch
            // loops (see [`batch`]).
            let or_self = axis == Axis::DescendantOrSelf;
            for (lo, hi) in batch::descendant_scan_ranges(view, context, or_self) {
                batch::scan_resolved(view, lo, hi, test, probe, arm, out);
            }
        }
        Axis::Parent => {
            out.extend(
                context
                    .iter()
                    .filter_map(|&c| view.parent_of(c))
                    .filter(|&p| matches(p)),
            );
            sort_dedup(out);
        }
        Axis::Ancestor => staircase_ancestor(view, context, matches, false, out),
        Axis::AncestorOrSelf => staircase_ancestor(view, context, matches, true, out),
        Axis::FollowingSibling => {
            for &c in context {
                out.extend(following_siblings(view, c).filter(|&p| matches(p)));
            }
            sort_dedup(out);
        }
        Axis::PrecedingSibling => {
            for &c in context {
                if let Some(parent) = view.parent_of(c) {
                    out.extend(
                        children(view, parent)
                            .take_while(|&p| p < c)
                            .filter(|&p| matches(p)),
                    );
                }
            }
            sort_dedup(out);
        }
        Axis::Following => {
            // `following(x)` = everything at or after `region_end(x)`.
            // For a context *set* the first context node alone yields
            // the union (its following region contains every other's),
            // the maximal pruning of \[GvKT03\]: one range scan.
            if let Some(&first) = context.first() {
                let lo = view.region_end(first);
                batch::scan_resolved(view, lo, view.pre_end(), test, probe, arm, out);
            }
        }
        Axis::Preceding => staircase_preceding(view, context, matches, out),
    }
}

/// Ancestor staircase join: walk each context node's parent chain, but
/// stop as soon as it reaches a node the previous context node's chain
/// already holds (everything above it was collected then) — the
/// staircase pruning for the ancestor axis. The context is in document
/// order, so an ancestor an earlier chain collected that is an ancestor
/// of this node lies on the *previous* chain too: that chain, a stack
/// ordered root first, is all the walk needs to remember. Each chain
/// adds its fresh ancestors, all behind everything collected before, so
/// the output comes out in document order without a sort.
fn staircase_ancestor<V: TreeView + ?Sized>(
    view: &V,
    context: &[u64],
    matches: impl Fn(u64) -> bool,
    or_self: bool,
    out: &mut Vec<u64>,
) {
    let mut chain: Vec<u64> = Vec::new();
    let mut fresh = Vec::new();
    for &c in context {
        fresh.clear();
        if or_self {
            fresh.push(c);
        }
        let mut met = false;
        let mut p = view.parent_of(c);
        while let Some(a) = p {
            // Chain entries behind `a` are not ancestors of `c`: an
            // ancestor behind `a` would have been reached before it.
            while chain.last().is_some_and(|&s| s > a) {
                chain.pop();
            }
            if chain.last() == Some(&a) {
                met = true;
                break;
            }
            fresh.push(a);
            p = view.parent_of(a);
        }
        if !met {
            chain.clear();
        }
        for &a in fresh.iter().rev() {
            chain.push(a);
            if matches(a) {
                out.push(a);
            }
        }
    }
    debug_assert!(out.windows(2).all(|w| w[0] < w[1]), "document order");
}

/// Preceding staircase join. XPath: `preceding(x)` = all nodes whose
/// whole region ends at or before `x` (before `x` in document order,
/// excluding ancestors). The **last** context node alone yields the
/// union. Ancestors of `x` are stepped *into* (their descendants left of
/// `x` do precede `x`) but not emitted.
fn staircase_preceding<V: TreeView + ?Sized>(
    view: &V,
    context: &[u64],
    matches: impl Fn(u64) -> bool,
    out: &mut Vec<u64>,
) {
    let Some(&last) = context.last() else {
        return;
    };
    let mut p = 0u64;
    while let Some(q) = view.next_used_at_or_after(p) {
        if q >= last {
            break;
        }
        if view.region_end(q) <= last {
            // q's whole region precedes `last`: q qualifies, and so may
            // its descendants — keep scanning inside.
            if matches(q) {
                out.push(q);
            }
        }
        // Ancestors of `last` (region_end > last) are skipped but
        // descended into by simply continuing the scan.
        p = q + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbxq_storage::{NaiveDoc, PageConfig, PagedDoc, ReadOnlyDoc};

    const PAPER_DOC: &str =
        "<a><b><c><d></d><e></e></c></b><f><g></g><h><i></i><j></j></h></f></a>";

    fn ro() -> ReadOnlyDoc {
        ReadOnlyDoc::parse_str(PAPER_DOC).unwrap()
    }

    fn paged() -> PagedDoc {
        PagedDoc::parse_str(PAPER_DOC, PageConfig::new(8, 88).unwrap()).unwrap()
    }

    fn local_names<V: TreeView + ?Sized>(v: &V, pres: &[u64]) -> Vec<String> {
        pres.iter()
            .map(|&p| v.pool().qname(v.name_id(p).unwrap()).unwrap().local.clone())
            .collect()
    }

    fn pre_of<V: TreeView + ?Sized>(v: &V, local: &str) -> u64 {
        let mut p = 0;
        while let Some(q) = v.next_used_at_or_after(p) {
            if let Some(qid) = v.name_id(q) {
                if v.pool().qname(qid).unwrap().local == local {
                    return q;
                }
            }
            p = q + 1;
        }
        panic!("{local} not found");
    }

    /// Figure 2(iii): the four quadrants around context node g.
    #[test]
    fn figure2_quadrants_around_g() {
        let doc = ro();
        let g = pre_of(&doc, "g");
        assert_eq!(
            local_names(
                &doc,
                &step(&doc, &[g], Axis::Ancestor, &NodeTest::AnyElement)
            ),
            ["a", "f"]
        );
        assert!(step(&doc, &[g], Axis::Descendant, &NodeTest::AnyElement).is_empty());
        assert_eq!(
            local_names(
                &doc,
                &step(&doc, &[g], Axis::Following, &NodeTest::AnyElement)
            ),
            ["h", "i", "j"]
        );
        assert_eq!(
            local_names(
                &doc,
                &step(&doc, &[g], Axis::Preceding, &NodeTest::AnyElement)
            ),
            ["b", "c", "d", "e"]
        );
    }

    /// The same quadrants on the paged view (with its unused holes).
    #[test]
    fn figure2_quadrants_on_paged_view() {
        let doc = paged();
        let g = pre_of(&doc, "g");
        assert_eq!(
            local_names(
                &doc,
                &step(&doc, &[g], Axis::Ancestor, &NodeTest::AnyElement)
            ),
            ["a", "f"]
        );
        assert_eq!(
            local_names(
                &doc,
                &step(&doc, &[g], Axis::Following, &NodeTest::AnyElement)
            ),
            ["h", "i", "j"]
        );
        assert_eq!(
            local_names(
                &doc,
                &step(&doc, &[g], Axis::Preceding, &NodeTest::AnyElement)
            ),
            ["b", "c", "d", "e"]
        );
    }

    #[test]
    fn child_and_sibling_axes() {
        let doc = ro();
        let a = pre_of(&doc, "a");
        let f = pre_of(&doc, "f");
        let g = pre_of(&doc, "g");
        let h = pre_of(&doc, "h");
        assert_eq!(
            local_names(&doc, &step(&doc, &[a], Axis::Child, &NodeTest::AnyElement)),
            ["b", "f"]
        );
        assert_eq!(
            local_names(&doc, &step(&doc, &[f], Axis::Child, &NodeTest::AnyElement)),
            ["g", "h"]
        );
        assert_eq!(
            local_names(
                &doc,
                &step(&doc, &[g], Axis::FollowingSibling, &NodeTest::AnyElement)
            ),
            ["h"]
        );
        assert_eq!(
            local_names(
                &doc,
                &step(&doc, &[h], Axis::PrecedingSibling, &NodeTest::AnyElement)
            ),
            ["g"]
        );
        assert!(step(&doc, &[a], Axis::PrecedingSibling, &NodeTest::AnyNode).is_empty());
        assert!(step(&doc, &[a], Axis::Parent, &NodeTest::AnyNode).is_empty());
    }

    #[test]
    fn descendant_pruning_covers_nested_context() {
        let doc = ro();
        let a = pre_of(&doc, "a");
        let c = pre_of(&doc, "c"); // inside a's region — must be pruned
        let got = step(&doc, &[a, c], Axis::Descendant, &NodeTest::AnyElement);
        assert_eq!(
            local_names(&doc, &got),
            ["b", "c", "d", "e", "f", "g", "h", "i", "j"]
        );
        let mut dedup = got.clone();
        dedup.dedup();
        assert_eq!(got, dedup, "no duplicates despite overlapping regions");
    }

    #[test]
    fn descendant_or_self_includes_context() {
        let doc = ro();
        let f = pre_of(&doc, "f");
        assert_eq!(
            local_names(
                &doc,
                &step(&doc, &[f], Axis::DescendantOrSelf, &NodeTest::AnyElement)
            ),
            ["f", "g", "h", "i", "j"]
        );
    }

    #[test]
    fn ancestor_chains_share_prefixes() {
        let doc = ro();
        let d = pre_of(&doc, "d");
        let e = pre_of(&doc, "e");
        let j = pre_of(&doc, "j");
        let got = step(&doc, &[d, e, j], Axis::Ancestor, &NodeTest::AnyElement);
        assert_eq!(local_names(&doc, &got), ["a", "b", "c", "f", "h"]);
    }

    #[test]
    fn name_tests_filter() {
        let doc = ro();
        let a = pre_of(&doc, "a");
        let got = step(
            &doc,
            &[a],
            Axis::Descendant,
            &NodeTest::Name(QName::local("h")),
        );
        assert_eq!(local_names(&doc, &got), ["h"]);
        assert!(step(
            &doc,
            &[a],
            Axis::Descendant,
            &NodeTest::Name(QName::local("zzz"))
        )
        .is_empty());
    }

    #[test]
    fn kind_tests_filter() {
        let doc = ReadOnlyDoc::parse_str("<r>t1<x/><!--c--><?pi d?>t2</r>").unwrap();
        assert_eq!(step(&doc, &[0], Axis::Child, &NodeTest::Text).len(), 2);
        assert_eq!(step(&doc, &[0], Axis::Child, &NodeTest::Comment).len(), 1);
        assert_eq!(step(&doc, &[0], Axis::Child, &NodeTest::AnyPi).len(), 1);
        assert_eq!(
            step(&doc, &[0], Axis::Child, &NodeTest::PiTarget("pi".into())).len(),
            1
        );
        assert_eq!(
            step(&doc, &[0], Axis::Child, &NodeTest::PiTarget("other".into())).len(),
            0
        );
        assert_eq!(step(&doc, &[0], Axis::Child, &NodeTest::AnyNode).len(), 5);
        assert_eq!(
            step(&doc, &[0], Axis::Child, &NodeTest::AnyElement).len(),
            1
        );
    }

    /// Axis results on the paged view must equal the read-only results
    /// (pre ranks differ; compare by names), including after updates
    /// punch holes into pages.
    #[test]
    fn paged_axes_match_readonly_after_updates() {
        let ro_doc = ro();
        let mut up = paged();
        // Delete c's subtree, then re-insert an identical one, leaving
        // interior holes behind.
        let c_node = up.pre_to_node(pre_of(&up, "c")).unwrap();
        up.delete(c_node).unwrap();
        let b_node = up.pre_to_node(pre_of(&up, "b")).unwrap();
        let frag = mbxq_xml::Document::parse_fragment("<c><d/><e/></c>").unwrap();
        up.insert(mbxq_storage::InsertPosition::LastChildOf(b_node), &frag)
            .unwrap();
        mbxq_storage::invariants::check_paged(&up).unwrap();
        for axis in [
            Axis::Child,
            Axis::Descendant,
            Axis::DescendantOrSelf,
            Axis::Parent,
            Axis::Ancestor,
            Axis::AncestorOrSelf,
            Axis::FollowingSibling,
            Axis::PrecedingSibling,
            Axis::Following,
            Axis::Preceding,
            Axis::SelfAxis,
        ] {
            for ctx_name in ["a", "c", "g", "h", "j"] {
                let ro_ctx = pre_of(&ro_doc, ctx_name);
                let up_ctx = pre_of(&up, ctx_name);
                let ro_res = step(&ro_doc, &[ro_ctx], axis, &NodeTest::AnyElement);
                let up_res = step(&up, &[up_ctx], axis, &NodeTest::AnyElement);
                assert_eq!(
                    local_names(&ro_doc, &ro_res),
                    local_names(&up, &up_res),
                    "axis {axis:?} from {ctx_name}"
                );
            }
        }
    }

    /// NaiveDoc is a TreeView too; use it as a third implementation in
    /// the cross-check.
    #[test]
    fn naive_matches_readonly() {
        let ro_doc = ro();
        let nv = NaiveDoc::parse_str(PAPER_DOC).unwrap();
        for axis in [
            Axis::Child,
            Axis::Descendant,
            Axis::Following,
            Axis::Preceding,
        ] {
            let ctx_ro = pre_of(&ro_doc, "h");
            let ctx_nv = pre_of(&nv, "h");
            assert_eq!(
                local_names(
                    &ro_doc,
                    &step(&ro_doc, &[ctx_ro], axis, &NodeTest::AnyElement)
                ),
                local_names(&nv, &step(&nv, &[ctx_nv], axis, &NodeTest::AnyElement)),
            );
        }
    }

    #[test]
    fn empty_context_yields_empty() {
        let doc = ro();
        for axis in [
            Axis::Child,
            Axis::Descendant,
            Axis::Following,
            Axis::Preceding,
        ] {
            assert!(step(&doc, &[], axis, &NodeTest::AnyNode).is_empty());
        }
    }
}
