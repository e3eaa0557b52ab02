//! Low-level navigation iterators over a [`TreeView`].
//!
//! These encapsulate the skipping discipline: candidates move forward by
//! `pre + size + 1` jumps over whole subtrees, unused runs are crossed in
//! O(1) using their run length, and level comparisons bound the region —
//! the exact mechanics §2.2 describes for finding "all children of a node
//! prex … checking the first child prey = prex+1 and skipping to its
//! siblings prey = prey + size[prey] + 1".
//!
//! Children and following siblings are one loop on the view's sibling
//! hop, [`TreeView::next_at_level_or_above`]: from just behind a node it
//! is the next node at that node's level (a sibling) or the first slot
//! past the parent's region (the end), and the loop moves on by the
//! sibling's `size` hop. Where unused slots make that hop land short,
//! inside the sibling's subtree, the next hop finishes it — on the paged
//! schema by a scan of the level-summary column, never by a
//! `region_end` per node.

use mbxq_storage::TreeView;

/// Iterates the direct children of the used node at `pre`, in document
/// order.
pub fn children<'a, V: TreeView + ?Sized>(view: &'a V, pre: u64) -> impl Iterator<Item = u64> + 'a {
    siblings_from(view, pre + 1, view.level(pre).map(|l| l + 1))
}

/// The nodes at level `lvl` from `from` on, each reached by the sibling
/// hop from the one before, up to the first shallower node (module
/// docs). Empty when `lvl` is `None`.
fn siblings_from<V: TreeView + ?Sized>(
    view: &V,
    from: u64,
    lvl: Option<u16>,
) -> impl Iterator<Item = u64> + '_ {
    let mut p = from;
    std::iter::from_fn(move || {
        let lvl = lvl?;
        let q = view.next_at_level_or_above(p, lvl);
        if view.level(q) != Some(lvl) {
            return None;
        }
        p = q + view.size(q) + 1;
        Some(q)
    })
}

/// Iterates all used descendants of the used node at `pre`, in document
/// order (one sequential scan with O(1) hole skips).
pub fn descendants<'a, V: TreeView + ?Sized>(
    view: &'a V,
    pre: u64,
) -> impl Iterator<Item = u64> + 'a {
    let lvl = view.level(pre);
    let mut p = pre + 1;
    let mut done = lvl.is_none();
    std::iter::from_fn(move || {
        if done {
            return None;
        }
        let parent_lvl = lvl.expect("checked above");
        let q = match view.next_used_at_or_after(p) {
            Some(q) => q,
            None => {
                done = true;
                return None;
            }
        };
        match view.level(q) {
            Some(ql) if ql > parent_lvl => {
                p = q + 1;
                Some(q)
            }
            _ => {
                done = true;
                None
            }
        }
    })
}

/// Iterates the following siblings of the used node at `pre`, in document
/// order, by jumping region to region.
pub fn following_siblings<'a, V: TreeView + ?Sized>(
    view: &'a V,
    pre: u64,
) -> impl Iterator<Item = u64> + 'a {
    siblings_from(view, pre + view.size(pre) + 1, view.level(pre))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbxq_storage::{PageConfig, PagedDoc, ReadOnlyDoc};

    const PAPER_DOC: &str =
        "<a><b><c><d></d><e></e></c></b><f><g></g><h><i></i><j></j></h></f></a>";

    #[test]
    fn children_skip_subtrees() {
        let d = ReadOnlyDoc::parse_str(PAPER_DOC).unwrap();
        assert_eq!(children(&d, 0).collect::<Vec<_>>(), vec![1, 5]); // b, f
        assert_eq!(children(&d, 2).collect::<Vec<_>>(), vec![3, 4]); // d, e
        assert_eq!(children(&d, 3).count(), 0);
    }

    #[test]
    fn children_cross_page_holes() {
        let d = PagedDoc::parse_str(PAPER_DOC, PageConfig::new(8, 88).unwrap()).unwrap();
        // f at pre 5, children g (6) and h (8, across the hole at 7).
        assert_eq!(children(&d, 5).collect::<Vec<_>>(), vec![6, 8]);
    }

    #[test]
    fn descendants_stop_at_region_boundary() {
        let d = ReadOnlyDoc::parse_str(PAPER_DOC).unwrap();
        assert_eq!(descendants(&d, 1).collect::<Vec<_>>(), vec![2, 3, 4]); // b -> c, d, e
        assert_eq!(descendants(&d, 5).collect::<Vec<_>>(), vec![6, 7, 8, 9]);
        assert_eq!(descendants(&d, 9).count(), 0);
    }

    #[test]
    fn following_siblings_jump_regions() {
        let d = ReadOnlyDoc::parse_str(PAPER_DOC).unwrap();
        assert_eq!(following_siblings(&d, 1).collect::<Vec<_>>(), vec![5]); // b -> f
        assert_eq!(following_siblings(&d, 5).count(), 0);
        assert_eq!(following_siblings(&d, 6).collect::<Vec<_>>(), vec![7]); // g -> h
    }

    #[test]
    fn iterators_on_fragmented_pages() {
        let mut d = PagedDoc::parse_str(PAPER_DOC, PageConfig::new(8, 88).unwrap()).unwrap();
        // Delete c (interior hole inside b's region on page 0).
        let c = d.pre_to_node(2).unwrap();
        d.delete(c).unwrap();
        let a_children: Vec<_> = children(&d, 0).collect();
        assert_eq!(a_children.len(), 2); // b, f
        assert_eq!(descendants(&d, a_children[0]).count(), 0); // b is empty now
                                                               // f's children still found across holes.
        let f = a_children[1];
        assert_eq!(children(&d, f).count(), 2);
    }
}
