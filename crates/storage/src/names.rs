//! The element-name index: `QnId` → element nodes, in document order,
//! and the document-ordered posting sequence it shares with the content
//! index (module `values`).
//!
//! The staircase join answers `descendant::item` by *scanning* the
//! context regions and name-filtering every visited tuple — O(region).
//! For selective names, a relational engine wants the inverse access
//! path: jump straight to the `item` tuples and semijoin them back to
//! the context (`mbxq_axes::range_semijoin`). This module provides that
//! access path for the updateable schema.
//!
//! # Design
//!
//! Like the attribute table (Figure 6), the index is keyed by
//! **immutable node ids**, never by `pre`/`pos`: structural inserts
//! shift pre ranks of every later node "at no update cost at all" (§3),
//! and an index holding pre values would need O(document) maintenance
//! per insert. Node ids are translated to pre ranks when a search needs
//! them (`node→pos` + `pageOffset`, O(1) each), and because structural
//! updates never reorder *surviving* nodes, a sequence kept in document
//! order **stays** in document order.
//!
//! The index is **one global sequence** of `(name, node)` postings
//! ordered by `(name, pre(node))`, a [`CowSorted`] — the same
//! page-granular copy-on-write directory as the document's pages
//! ([`mbxq_bat::cow`]). Cloning it for a commit's new version shares
//! it, whatever the number of names or the history; a commit that adds
//! or removes a posting copies the one leaf it touches and its chunk. A search compares translated pre ranks, so **every
//! posting must name a live node** whenever the sequence is searched:
//! the update paths register nodes after placing them and unregister
//! them before clearing their slots.

use crate::values::QnId;
use mbxq_bat::{Blocks, CowSorted, CowVec, Cursor};
use std::cmp::Ordering;

/// Entries per leaf of the posting sequences (a leaf splits at twice
/// this): the unit a write copies and a search ends in.
pub(crate) const LEAF: usize = 256;

/// Entries per page of a column indexed by `QnId` (names are few).
pub(crate) const NAME_PAGE: usize = 64;

/// Entry `qn` of a column indexed by `QnId`, growing the column to
/// hold it.
pub(crate) fn per_name<T: Clone + Default>(column: &mut CowVec<T>, qn: QnId) -> &mut T {
    let i = qn.0 as usize;
    column.grow_to(i + 1, T::default());
    &mut column[i]
}

/// A posting: `node` is posted under the key `(qn, value)`. The name
/// index posts every element under its name and value 0; the content
/// index under a name and a string id (module `values`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Posting {
    pub(crate) qn: QnId,
    pub(crate) value: u32,
    pub(crate) node: u32,
}

impl Posting {
    /// The posting of `node`, whose id fits the `node` column as every
    /// id does.
    pub(crate) fn new(qn: QnId, value: u32, node: u64) -> Posting {
        let node = u32::try_from(node).expect("node ids fit the node column");
        Posting { qn, value, node }
    }

    pub(crate) fn key(&self) -> (QnId, u32) {
        (self.qn, self.value)
    }
}

/// Postings ordered by `(key, pre(node))` in one copy-on-write sequence
/// (module docs). `pre_of` arguments translate a live node id to its
/// current pre rank.
#[derive(Debug, Clone)]
pub(crate) struct DocOrdered {
    seq: CowSorted<Posting>,
    /// Postings per name, whatever their value.
    named: CowVec<u64>,
}

/// The `QnId → element nodes (document order)` index (module docs).
pub(crate) type NameIndex = DocOrdered;

impl Default for DocOrdered {
    fn default() -> Self {
        DocOrdered {
            seq: CowSorted::new(LEAF),
            named: CowVec::new(NAME_PAGE),
        }
    }
}

impl DocOrdered {
    /// The sequence of `postings`, given in document order: a stable
    /// sort by key keeps every key's run in document order.
    pub(crate) fn from_doc_order(mut postings: Vec<Posting>) -> Self {
        postings.sort_by_key(Posting::key);
        let mut named = CowVec::new(NAME_PAGE);
        for p in &postings {
            *per_name(&mut named, p.qn) += 1;
        }
        DocOrdered {
            seq: CowSorted::from_sorted(LEAF, &postings),
            named,
        }
    }

    /// The first position ordered at or after `(key, pre)`: whether a
    /// posting `e` comes before it. Only postings under `key` are
    /// translated, and none for `pre` 0.
    fn before(
        key: (QnId, u32),
        pre: u64,
        pre_of: impl Fn(u64) -> Option<u64>,
    ) -> impl FnMut(&Posting) -> bool {
        move |e| match e.key().cmp(&key) {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => pre > 0 && pre_of(e.node.into()).is_some_and(|p| p < pre),
        }
    }

    /// Adds `posting`, whose node is placed. Returns where it sits.
    pub(crate) fn add(&mut self, posting: Posting, pre_of: impl Fn(u64) -> Option<u64>) -> Cursor {
        let pre = pre_of(posting.node.into()).expect("a posted node is placed");
        let at = self
            .seq
            .insert(posting, Self::before(posting.key(), pre, pre_of));
        *per_name(&mut self.named, posting.qn) += 1;
        at
    }

    /// Removes `posting`, whose node is still placed. Returns where it
    /// sat, or `None` if it was not there.
    pub(crate) fn remove(
        &mut self,
        posting: Posting,
        pre_of: impl Fn(u64) -> Option<u64>,
    ) -> Option<Cursor> {
        let pre = pre_of(posting.node.into())?;
        let removed = self
            .seq
            .remove(&posting, Self::before(posting.key(), pre, pre_of));
        *per_name(&mut self.named, posting.qn) -= u64::from(removed.is_some());
        removed
    }

    /// Number of postings under `key` when one of them sits at `at`:
    /// counted from `at`'s leaf, with one key-only search for each end
    /// of the run beyond it.
    pub(crate) fn run_at(&self, at: Cursor, key: (QnId, u32)) -> u64 {
        self.seq.run_len(at, |e| e.key() < key, |e| e.key() <= key) as u64
    }

    /// Whether a posting under `key` sits next to position `at` — after
    /// a removal there, whether the key still has postings.
    pub(crate) fn key_next_to(&self, at: Cursor, key: (QnId, u32)) -> bool {
        let under_key = |e: &Posting| e.key() == key;
        self.seq.prev(at).is_some_and(under_key) || self.seq.get(at).is_some_and(under_key)
    }

    /// Number of postings under name `qn`, whatever their value: O(1).
    pub(crate) fn count_named(&self, qn: QnId) -> u64 {
        self.named.get(qn.0 as usize).copied().unwrap_or(0)
    }

    /// Number of postings under `key`: O(log n + leaves they span),
    /// no translation.
    pub(crate) fn count(&self, key: (QnId, u32)) -> u64 {
        let from = self.seq.lower_bound(|e| e.key() < key);
        let to = self.seq.lower_bound(|e| e.key() <= key);
        self.seq.count_between(from, to) as u64
    }

    /// The pre ranks in `[lo, hi)` of the nodes posted under `key`,
    /// ascending: O(log n) translations to find the window's start, one
    /// per posting inside it, and one more to see it end.
    pub(crate) fn pres_in(
        &self,
        key: (QnId, u32),
        lo: u64,
        hi: u64,
        pre_of: impl Fn(u64) -> Option<u64>,
    ) -> Vec<u64> {
        let mut pres = Vec::new();
        let from = self.seq.lower_bound(Self::before(key, lo, &pre_of));
        for run in self.seq.runs_from(from) {
            for e in run {
                if e.key() != key {
                    return pres;
                }
                match pre_of(e.node.into()) {
                    Some(p) if p >= hi => return pres,
                    Some(p) => pres.push(p),
                    None => {}
                }
            }
        }
        pres
    }

    /// [`DocOrdered::pres_in`] over the whole document.
    pub(crate) fn pres(&self, key: (QnId, u32), pre_of: impl Fn(u64) -> Option<u64>) -> Vec<u64> {
        self.pres_in(key, 0, u64::MAX, pre_of)
    }

    /// Every posting, in `(key, document)` order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = Posting> + '_ {
        self.seq.iter()
    }

    /// The block walker's view: the posting sequence and the per-name
    /// count column.
    pub(crate) fn columns(&self) -> (&dyn Blocks, &dyn Blocks) {
        (&self.seq, &self.named)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbxq_bat::Level;

    fn ident(n: u64) -> Option<u64> {
        Some(n)
    }

    fn named(qn: u32, node: u64) -> Posting {
        Posting::new(QnId(qn), 0, node)
    }

    fn index(postings: &[(u32, u64)]) -> NameIndex {
        NameIndex::from_doc_order(postings.iter().map(|&(q, n)| named(q, n)).collect())
    }

    /// Postings added after the bulk build merge into document order
    /// with the built ones.
    #[test]
    fn added_postings_merge_into_document_order() {
        let mut idx = index(&[(1, 2), (1, 7), (1, 9)]);
        // Node 20 sits at pre 5 in this mapping.
        let pre_of = |n: u64| Some(if n == 20 { 5 } else { n });
        idx.add(named(1, 20), pre_of);
        assert_eq!(idx.pres((QnId(1), 0), pre_of), vec![2, 5, 7, 9]);
        assert_eq!(idx.count((QnId(1), 0)), 4);
    }

    /// Removing a built posting and an added one leaves exactly the
    /// rest; a posting that is not there is not removed.
    #[test]
    fn removing_built_and_added_postings_leaves_the_rest() {
        let mut idx = index(&[(0, 1), (0, 3), (2, 4)]);
        idx.add(named(0, 10), ident);
        assert!(idx.remove(named(0, 10), ident).is_some());
        assert!(idx.remove(named(0, 1), ident).is_some());
        assert!(idx.remove(named(0, 1), ident).is_none());
        assert!(
            idx.remove(named(2, 3), ident).is_none(),
            "the name must match too"
        );
        assert_eq!(idx.pres((QnId(0), 0), ident), vec![3]);
        assert_eq!((idx.count((QnId(0), 0)), idx.count((QnId(2), 0))), (1, 1));
    }

    /// The windowed probe equals the filtered whole-document probe for
    /// every window, with many names around the probed one and postings
    /// added after the build.
    #[test]
    fn windowed_probe_equals_the_filtered_whole_probe() {
        let mut postings: Vec<(u32, u64)> = (0..40).map(|n| (1, n)).collect();
        postings.extend((0..500u64).map(|n| (n as u32 % 3 * 2, 1000 + n)));
        let mut idx = index(&postings);
        // Removed nodes (deleted or renamed away) leave the sequence.
        for n in (8..20).chain([0, 25, 39]) {
            assert!(idx.remove(named(1, n), |n| Some(n * 3)).is_some());
        }
        let pre_of = |n: u64| match n {
            100 => Some(45),
            101 => Some(400),
            n => Some(n * 3),
        };
        idx.add(named(1, 100), pre_of); // between built postings
        idx.add(named(1, 101), pre_of); // behind the last built posting
        let all = idx.pres((QnId(1), 0), pre_of);
        assert_eq!(all.len() as u64, idx.count((QnId(1), 0)));
        assert_eq!(all.len(), 40 - 15 + 2);
        for lo in 0..125 {
            for hi in [lo, lo + 1, lo + 7, lo + 60, 401, u64::MAX] {
                let want: Vec<u64> = all.iter().copied().filter(|&p| lo <= p && p < hi).collect();
                assert_eq!(
                    idx.pres_in((QnId(1), 0), lo, hi, pre_of),
                    want,
                    "[{lo}, {hi})"
                );
            }
        }
        assert!(idx.pres((QnId(9), 0), pre_of).is_empty());
    }

    #[test]
    fn a_clone_shares_every_leaf_until_a_write() {
        let postings: Vec<(u32, u64)> = (0..10 * LEAF as u64).map(|n| (n as u32 % 5, n)).collect();
        let idx = index(&postings);
        let mut snap = idx.clone();
        let private_leaves = |snap: &NameIndex| {
            let fresh = mbxq_bat::unshared(snap.columns().0, idx.columns().0);
            fresh.iter().filter(|b| b.level == Level::Leaf).count()
        };
        assert_eq!(private_leaves(&snap), 0, "clone must share");
        snap.add(named(3, 1_000_000), ident);
        assert_eq!(private_leaves(&snap), 1, "a write copies one leaf");
        assert_eq!(idx.count((QnId(3), 0)), 2 * LEAF as u64);
    }
}
