//! Range semijoin and existence probes — the index-side physical
//! operators of the algebraic query layer.
//!
//! The staircase join answers an axis step by scanning the context
//! regions; when an **element-name index** is available
//! ([`TreeView::elements_named_in`]), the planner can instead probe the
//! index (the elements with the step's name, in document order, inside
//! the window the context spans) and semijoin that list back to the
//! context: per context region, a pair of binary searches cuts the
//! probe list down to the candidates whose pre rank falls inside the
//! region. The cost is O(|context| · log k + output) for k postings in
//! the window, instead of O(region) — the winning trade for selective
//! names over large regions. [`exists_semijoin`] is the same join
//! stopped at each row's first partner: the (anti-)semijoin behind
//! `[name]` and `[not(name)]` predicates.

use crate::batch::Probe;
use crate::intersect::gallop_to;
use crate::loop_lifted::ContextSeq;
use crate::{children, descendants, step, Axis, NodeTest};
use mbxq_storage::TreeView;

/// Semijoins a document-ordered candidate list (an element-name-index
/// probe) back to a loop-lifted context: per `(iter, context-node)`,
/// emits the candidates standing in `axis` relation to the context
/// node. Supported axes: `Child`, `Descendant`, `DescendantOrSelf`
/// (the ones whose results lie inside the context node's region).
/// Results keep their iteration tags, sorted by `(iter, pre)`.
pub fn range_semijoin<V: TreeView + ?Sized>(
    view: &V,
    ctx: &ContextSeq,
    cands: &[u64],
    axis: Axis,
) -> ContextSeq {
    debug_assert!(cands.windows(2).all(|w| w[0] < w[1]), "cands sorted");
    let mut out = ContextSeq::new();
    let mut start = 0usize;
    while start < ctx.len() {
        let iter = ctx.iters[start];
        let mut end = start;
        while end < ctx.len() && ctx.iters[end] == iter {
            end += 1;
        }
        semijoin_group(view, &ctx.pres[start..end], cands, axis, |pre| {
            out.push(iter, pre)
        });
        start = end;
    }
    out
}

/// One iteration group of [`range_semijoin`]; `emit` receives the
/// qualifying candidates in ascending pre order without duplicates.
fn semijoin_group<V: TreeView + ?Sized>(
    view: &V,
    group: &[u64],
    cands: &[u64],
    axis: Axis,
    mut emit: impl FnMut(u64),
) {
    match axis {
        Axis::Descendant | Axis::DescendantOrSelf => {
            // Staircase pruning: a context node covered by a previous
            // one contributes nothing new, and surviving regions are
            // disjoint and ascending — the output needs no sort, and
            // each binary search only probes the candidate *suffix*
            // past the previous region (`base`), so a group of g
            // context nodes costs O(Σ log tailᵢ), not O(g · log k).
            let mut horizon = 0u64;
            let mut base = 0usize;
            for &c in group {
                if c < horizon {
                    continue;
                }
                let end = view.region_end(c);
                let lo = base
                    + if axis == Axis::DescendantOrSelf {
                        cands[base..].partition_point(|&p| p < c)
                    } else {
                        cands[base..].partition_point(|&p| p <= c)
                    };
                let hi = lo + cands[lo..].partition_point(|&p| p < end);
                for &p in &cands[lo..hi] {
                    emit(p);
                }
                base = hi;
                horizon = end;
            }
        }
        Axis::Child => {
            // A candidate inside (c, region_end(c)) at level(c)+1 is a
            // child of c. Nested context nodes make child sets
            // interleave, so collect and sort per group (sets are
            // disjoint — a node has one parent — no dedup needed).
            // Regions may nest, so only the search *floor* is monotone
            // (c ascends ⇒ lo ascends); `base` narrows the lower probe.
            let mut hits: Vec<u64> = Vec::new();
            let mut base = 0usize;
            for &c in group {
                let Some(lvl) = view.level(c) else { continue };
                let end = view.region_end(c);
                let lo = base + cands[base..].partition_point(|&p| p <= c);
                let hi = lo + cands[lo..].partition_point(|&p| p < end);
                hits.extend(
                    cands[lo..hi]
                        .iter()
                        .copied()
                        .filter(|&p| view.level(p) == Some(lvl + 1)),
                );
                base = lo;
            }
            hits.sort_unstable();
            for p in hits {
                emit(p);
            }
        }
        other => unreachable!("range_semijoin does not serve axis {other:?}"),
    }
}

/// The pre window `[lo, hi)` that covers the region of every node in
/// `nodes` (any order) — what a structural join from these context
/// nodes can match in, and so what its index probe needs
/// ([`TreeView::elements_named_in`]). `None` for no nodes.
///
/// Costs one `region_end` plus a level read per node: a region that
/// ends behind the region of the last node in document order contains
/// that node, so only its ancestors — nodes of a smaller level — can
/// push `hi` further out.
pub fn region_window<V: TreeView + ?Sized>(view: &V, nodes: &[u64]) -> Option<(u64, u64)> {
    let lo = *nodes.iter().min()?;
    let last = *nodes.iter().max()?;
    let last_level = view.level(last);
    let mut hi = view.region_end(last);
    for &c in nodes {
        if c != last && view.level(c) < last_level {
            hi = hi.max(view.region_end(c));
        }
    }
    Some((lo, hi))
}

/// Early-exit existence probe: `out[i]` is whether node `nodes[i]` has
/// at least one `axis::test` partner. The scan behind each node stops
/// at its **first** hit — the physical operator behind the rewriter's
/// `count(e) > 0` → `exists(e)` rule.
pub fn exists_step<V: TreeView + ?Sized>(
    view: &V,
    nodes: &[u64],
    axis: Axis,
    test: &NodeTest,
) -> Vec<bool> {
    let probe = Probe::resolve(view, test);
    let matches = |p: u64| probe.matches(view, test, p);
    nodes
        .iter()
        .map(|&c| match axis {
            Axis::Child => children(view, c).any(matches),
            Axis::Descendant => descendants(view, c).any(matches),
            Axis::DescendantOrSelf => matches(c) || descendants(view, c).any(matches),
            Axis::SelfAxis => matches(c),
            Axis::Parent => view.parent_of(c).is_some_and(matches),
            // The remaining axes have no cheaper early-exit form than
            // the staircase step itself.
            other => !step(view, &[c], other, test).is_empty(),
        })
        .collect()
}

/// [`exists_step`] as an index join: `out[i]` is whether `cands` — the
/// ascending pre ranks of the elements a name test selects, at least
/// those inside the regions of `nodes` — holds a partner of `nodes[i]`
/// on `axis` (`Child`, `Descendant` or `DescendantOrSelf`). Per row: one
/// `region_end`, a forward gallop of the candidate cursor to the row's
/// region, and a stop at the first candidate inside it (`Child`: the
/// first one at `level + 1`). Rows usually ascend — they are context
/// nodes in document order — so the cursor only moves forward; where
/// they do not (an iteration boundary), it restarts from the front.
pub fn exists_semijoin<V: TreeView + ?Sized>(
    view: &V,
    nodes: &[u64],
    cands: &[u64],
    axis: Axis,
) -> Vec<bool> {
    debug_assert!(cands.windows(2).all(|w| w[0] < w[1]), "cands sorted");
    let mut cursor = 0usize;
    let mut prev = 0u64;
    nodes
        .iter()
        .map(|&c| {
            if c < prev {
                cursor = 0;
            }
            prev = c;
            let first = if axis == Axis::DescendantOrSelf {
                c
            } else {
                c + 1
            };
            cursor = gallop_to(cands, cursor, first);
            if cursor == cands.len() {
                return false;
            }
            let end = view.region_end(c);
            match axis {
                Axis::Descendant | Axis::DescendantOrSelf => cands[cursor] < end,
                Axis::Child => view.level(c).is_some_and(|level| {
                    cands[cursor..]
                        .iter()
                        .take_while(|&&p| p < end)
                        .any(|&p| view.level(p) == Some(level + 1))
                }),
                other => unreachable!("exists_semijoin does not serve axis {other:?}"),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbxq_storage::{PageConfig, PagedDoc, QnId, ReadOnlyDoc};
    use mbxq_xml::QName;

    const DOC: &str = "<a><b><c><d/><e/></c></b><f><g/><h><i/><j/></h></f></a>";

    fn probe<V: TreeView>(view: &V, name: &str) -> Vec<u64> {
        let qn = view.pool().lookup_qname(&QName::local(name)).unwrap();
        view.elements_named(qn).unwrap()
    }

    fn all_elements<V: TreeView>(view: &V) -> Vec<u64> {
        let mut out = Vec::new();
        for qn in 0..view.pool().qname_count() as u32 {
            out.extend(view.elements_named(QnId(qn)).unwrap());
        }
        out.sort_unstable();
        out
    }

    /// The semijoin must agree with the staircase step for every
    /// supported axis and context shape.
    #[test]
    fn semijoin_matches_staircase() {
        let ro = ReadOnlyDoc::parse_str(DOC).unwrap();
        let up = PagedDoc::parse_str(DOC, PageConfig::new(8, 75).unwrap()).unwrap();
        fn check<V: TreeView>(view: &V) {
            let cands = all_elements(view);
            for axis in [Axis::Child, Axis::Descendant, Axis::DescendantOrSelf] {
                for ctx_pres in [vec![0], vec![1, 5], vec![1, 2], vec![0, 2, 7]] {
                    let ctx_pres: Vec<u64> =
                        ctx_pres.into_iter().filter(|&p| view.is_used(p)).collect();
                    let lifted = ContextSeq::lift(&ctx_pres);
                    let want = crate::step_lifted(view, &lifted, axis, &NodeTest::AnyElement);
                    let got = range_semijoin(view, &lifted, &cands, axis);
                    assert_eq!(got, want, "axis {axis:?}, ctx {ctx_pres:?}");
                }
            }
        }
        check(&ro);
        check(&up);
    }

    #[test]
    fn semijoin_uses_name_probe_lists() {
        let ro = ReadOnlyDoc::parse_str(DOC).unwrap();
        let ctx = ContextSeq::single_iter(vec![0]);
        let got = range_semijoin(&ro, &ctx, &probe(&ro, "h"), Axis::Descendant);
        assert_eq!(got.pres, probe(&ro, "h"));
        let none = range_semijoin(&ro, &ctx, &[], Axis::Descendant);
        assert!(none.is_empty());
    }

    /// The index join must agree with the scan for the three axes it
    /// serves, on both schemas: nested contexts, rows from several
    /// iterations (the cursor restarts), empty and absent names, and
    /// candidate lists cut to the rows' window.
    #[test]
    fn exists_semijoin_matches_exists_step() {
        const NESTED: &str =
            "<a><b><a><c/><b/></a></b><c><b><c/></b></c><d/><b><d><c/></d></b><a/></a>";
        fn check<V: TreeView>(view: &V) {
            let used: Vec<u64> = (0..view.pre_end()).filter(|&p| view.is_used(p)).collect();
            // Ascending rows, then the same rows again (a second
            // iteration), then descending ones.
            let mut rows = used.clone();
            rows.extend(&used);
            rows.extend(used.iter().rev());
            // The probe window is exactly the extremes of the rows'
            // regions, whatever the row order and nesting.
            assert_eq!(region_window(view, &[]), None);
            for i in 0..used.len() {
                let some: Vec<u64> = rows[i..].iter().copied().step_by(3).collect();
                let lo = *some.iter().min().unwrap();
                let hi = some.iter().map(|&c| view.region_end(c)).max().unwrap();
                assert_eq!(region_window(view, &some), Some((lo, hi)));
            }
            for name in ["a", "b", "c", "d", "e", "zzz"] {
                let test = NodeTest::Name(QName::local(name));
                let cands = match view.pool().lookup_qname(&QName::local(name)) {
                    Some(qn) => view.elements_named(qn).unwrap(),
                    None => Vec::new(),
                };
                for axis in [Axis::Child, Axis::Descendant, Axis::DescendantOrSelf] {
                    let want = exists_step(view, &rows, axis, &test);
                    assert_eq!(
                        exists_semijoin(view, &rows, &cands, axis),
                        want,
                        "{axis:?}::{name}"
                    );
                    // One row, candidates cut to its region.
                    for (&c, &w) in used.iter().zip(&want) {
                        let qn = view.pool().lookup_qname(&QName::local(name));
                        let cut = qn.map_or(Vec::new(), |qn| {
                            view.elements_named_in(qn, c, view.region_end(c))
                                .unwrap()
                                .into_owned()
                        });
                        assert_eq!(exists_semijoin(view, &[c], &cut, axis), [w]);
                    }
                }
            }
        }
        check(&ReadOnlyDoc::parse_str(NESTED).unwrap());
        let mut up = PagedDoc::parse_str(NESTED, PageConfig::new(4, 75).unwrap()).unwrap();
        check(&up);
        // Fragment it: delete one subtree, insert two, rename a node —
        // holes, an index delta and tombstones, all before compaction.
        let named = |up: &PagedDoc, name: &str, i: usize| {
            let qn = up.pool().lookup_qname(&QName::local(name)).unwrap();
            up.pre_to_node(up.elements_named(qn).unwrap()[i]).unwrap()
        };
        up.delete(named(&up, "c", 1)).unwrap();
        let frag = mbxq_xml::Document::parse_fragment("<c><b/><e><c/></e></c>").unwrap();
        up.insert(
            mbxq_storage::InsertPosition::LastChildOf(named(&up, "d", 0)),
            &frag,
        )
        .unwrap();
        up.insert(
            mbxq_storage::InsertPosition::Before(named(&up, "b", 0)),
            &frag,
        )
        .unwrap();
        up.rename(named(&up, "b", 1), &QName::local("d")).unwrap();
        assert!(up.name_index_delta_len() > 0);
        mbxq_storage::invariants::check_paged(&up).unwrap();
        check(&up);
        // An interned name that no element carries any more.
        up.delete(named(&up, "e", 1)).unwrap();
        up.delete(named(&up, "e", 0)).unwrap();
        check(&up);
    }

    #[test]
    fn exists_matches_step_nonemptiness() {
        let ro = ReadOnlyDoc::parse_str(DOC).unwrap();
        let nodes: Vec<u64> = (0..ro.pre_end()).collect();
        for axis in [
            Axis::Child,
            Axis::Descendant,
            Axis::DescendantOrSelf,
            Axis::Parent,
            Axis::SelfAxis,
            Axis::Following,
            Axis::Preceding,
        ] {
            let test = NodeTest::Name(QName::local("h"));
            let got = exists_step(&ro, &nodes, axis, &test);
            let want: Vec<bool> = nodes
                .iter()
                .map(|&c| !step(&ro, &[c], axis, &test).is_empty())
                .collect();
            assert_eq!(got, want, "axis {axis:?}");
        }
    }
}
