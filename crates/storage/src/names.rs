//! The element-name index: `QnId` → element nodes, in document order.
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
//! per insert. Node ids are translated to pre ranks at probe time
//! (`node→pos` + `pageOffset`, O(1) each), and because structural
//! updates never reorder *surviving* nodes, a list built in document
//! order **stays** in document order — the probe result is sorted
//! without sorting the base.
//!
//! Sharing follows the [`crate::paged::PagedDoc`] commit discipline:
//! an immutable, [`Arc`]-shared **base** (built by the shredder, a
//! checkpoint load, or vacuum) plus a small per-name **delta**
//! (`added` ids of elements inserted since, a `removed` tombstone set
//! for deleted/renamed ones). Cloning the index for a commit's new
//! version copies the base pointer and the small deltas — never the
//! big per-name lists — so a commit inserting one `<item>` stays
//! O(touched), not O(#items). Deltas fold into a fresh base only at
//! the explicit maintenance points (shredding, vacuum, checkpoint).

use crate::values::QnId;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Per-name overlay on top of the shared base list.
#[derive(Debug, Clone, Default)]
struct NameDelta {
    /// Node ids of elements that gained this name since the last
    /// compaction (insertion order; sorted by pre at probe time — the
    /// list is bounded by the commits since the last maintenance
    /// point, so the sort is cheap).
    added: Vec<u64>,
    /// Node ids shadowed out of the base list (deleted or renamed).
    removed: HashSet<u64>,
}

/// The `QnId → element node ids (document order)` index (module docs).
#[derive(Debug, Clone, Default)]
pub(crate) struct NameIndex {
    base: Arc<HashMap<QnId, Vec<u64>>>,
    delta: HashMap<QnId, NameDelta>,
}

impl NameIndex {
    /// An index with the given base and an empty delta. The per-name
    /// lists must be in document order.
    pub(crate) fn from_base(base: HashMap<QnId, Vec<u64>>) -> NameIndex {
        NameIndex {
            base: Arc::new(base),
            delta: HashMap::new(),
        }
    }

    /// Records that element `node` now carries name `qn`.
    pub(crate) fn add(&mut self, qn: QnId, node: u64) {
        let d = self.delta.entry(qn).or_default();
        // Re-adding a previously removed id (delete + re-insert cannot
        // happen — ids are never reused — but rename a→b→a can).
        if !d.removed.remove(&node) {
            d.added.push(node);
        }
    }

    /// Records that element `node` no longer carries name `qn`.
    pub(crate) fn remove(&mut self, qn: QnId, node: u64) {
        let d = self.delta.entry(qn).or_default();
        if let Some(i) = d.added.iter().position(|&n| n == node) {
            d.added.remove(i);
        } else {
            // A live element not in `added` must be in the base list.
            d.removed.insert(node);
        }
    }

    /// Exact number of elements currently named `qn` — the statistic
    /// the cost-based axis selection keys on. Only valid when every
    /// tombstone shadows a real base entry (true for the element-name
    /// index, whose removals always name live members).
    pub(crate) fn count(&self, qn: QnId) -> u64 {
        let base = self.base.get(&qn).map_or(0, Vec::len) as u64;
        match self.delta.get(&qn) {
            Some(d) => base + d.added.len() as u64 - d.removed.len() as u64,
            None => base,
        }
    }

    /// Upper-bound count that ignores tombstones — safe when removals
    /// may be spurious (the content index's complex lists tombstone
    /// blindly on delete).
    pub(crate) fn count_upper(&self, qn: QnId) -> u64 {
        let base = self.base.get(&qn).map_or(0, Vec::len) as u64;
        base + self.delta.get(&qn).map_or(0, |d| d.added.len()) as u64
    }

    /// The `(pre, node id)` pairs of elements named `qn`, merged with
    /// the delta and ordered by `pre_of` (ascending). `pre_of` returns
    /// the node's current pre rank (`None` entries are skipped
    /// defensively).
    pub(crate) fn nodes_by_pre(
        &self,
        qn: QnId,
        pre_of: impl FnMut(u64) -> Option<u64>,
    ) -> Vec<(u64, u64)> {
        self.nodes_by_pre_in(qn, 0, u64::MAX, pre_of)
    }

    /// [`NameIndex::nodes_by_pre`] cut to pre ranks in `[lo, hi)`: the
    /// document-ordered base is binary-searched *by translated pre* for
    /// the window's start and translated only up to its end, so a probe
    /// costs O(log k + window + |added|) translations instead of k.
    pub(crate) fn nodes_by_pre_in(
        &self,
        qn: QnId,
        lo: u64,
        hi: u64,
        mut pre_of: impl FnMut(u64) -> Option<u64>,
    ) -> Vec<(u64, u64)> {
        let empty_base: &[u64] = &[];
        let base = self.base.get(&qn).map_or(empty_base, Vec::as_slice);
        let delta = self.delta.get(&qn);
        // Base stays document-ordered (updates never reorder surviving
        // nodes); only the small `added` list needs a sort.
        let mut added: Vec<(u64, u64)> = delta
            .map(|d| {
                d.added
                    .iter()
                    .filter_map(|&n| pre_of(n).map(|p| (p, n)))
                    .filter(|&(p, _)| lo <= p && p < hi)
                    .collect()
            })
            .unwrap_or_default();
        added.sort_unstable();
        let mut base_pres: Vec<(u64, u64)> = Vec::new();
        for &n in &base[window_start(base, lo, &mut pre_of)..] {
            // Tombstoned entries that are still alive (renames) keep
            // their place in document order, so they may end the window.
            let Some(p) = pre_of(n) else { continue };
            if p >= hi {
                break;
            }
            if !delta.is_some_and(|d| d.removed.contains(&n)) {
                base_pres.push((p, n));
            }
        }
        // Merge two pre-ascending runs.
        let mut out = Vec::with_capacity(base_pres.len() + added.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < base_pres.len() && j < added.len() {
            if base_pres[i].0 <= added[j].0 {
                out.push(base_pres[i]);
                i += 1;
            } else {
                out.push(added[j]);
                j += 1;
            }
        }
        out.extend_from_slice(&base_pres[i..]);
        out.extend_from_slice(&added[j..]);
        out
    }

    /// Folds the deltas into a fresh shared base (per-name lists stay
    /// document-ordered via `pre_of`). Runs only at maintenance points.
    pub(crate) fn compact(&mut self, mut pre_of: impl FnMut(u64) -> Option<u64>) {
        if self.delta.is_empty() {
            return;
        }
        let names: Vec<QnId> = self.delta.keys().copied().collect();
        let mut base = (*self.base).clone();
        for qn in names {
            let merged: Vec<u64> = self
                .nodes_by_pre(qn, &mut pre_of)
                .into_iter()
                .map(|(_, n)| n)
                .collect();
            if merged.is_empty() {
                base.remove(&qn);
            } else {
                base.insert(qn, merged);
            }
        }
        self.delta.clear();
        self.base = Arc::new(base);
    }

    /// Entries added/tombstoned since the last compaction (diagnostic).
    pub(crate) fn delta_len(&self) -> usize {
        self.delta
            .values()
            .map(|d| d.added.len() + d.removed.len())
            .sum()
    }
}

/// Index of the first entry of the document-ordered `base` whose
/// current pre rank is `>= lo` — a binary search on translated pres.
/// Entries of deleted nodes have no pre rank: a probe that lands on one
/// steps forward to its next live neighbour (each dead run is walked at
/// most twice over the whole search).
fn window_start(base: &[u64], lo: u64, mut pre_of: impl FnMut(u64) -> Option<u64>) -> usize {
    if lo == 0 {
        return 0;
    }
    // Live entries before `a` rank below `lo`; live entries from `b` on
    // rank at or above it.
    let (mut a, mut b) = (0usize, base.len());
    while a < b {
        let mid = a + (b - a) / 2;
        let live = (mid..b).find_map(|i| pre_of(base[i]).map(|p| (i, p)));
        match live {
            Some((i, p)) if p < lo => a = i + 1,
            _ => b = mid,
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ident(n: u64) -> Option<u64> {
        Some(n)
    }

    #[test]
    fn base_plus_delta_merge_in_pre_order() {
        let mut base = HashMap::new();
        base.insert(QnId(1), vec![2, 7, 9]);
        let mut idx = NameIndex::from_base(base);
        idx.add(QnId(1), 20); // pretend pre 5 via the mapping below
        let pre_of = |n: u64| Some(if n == 20 { 5 } else { n });
        let got: Vec<u64> = idx
            .nodes_by_pre(QnId(1), pre_of)
            .iter()
            .map(|x| x.0)
            .collect();
        assert_eq!(got, vec![2, 5, 7, 9]);
        assert_eq!(idx.count(QnId(1)), 4);
    }

    #[test]
    fn removal_tombstones_base_and_cancels_added() {
        let mut base = HashMap::new();
        base.insert(QnId(0), vec![1, 3]);
        let mut idx = NameIndex::from_base(base);
        idx.add(QnId(0), 10);
        idx.remove(QnId(0), 10); // cancels the add
        idx.remove(QnId(0), 1); // tombstones the base entry
        let got: Vec<u64> = idx
            .nodes_by_pre(QnId(0), ident)
            .iter()
            .map(|x| x.0)
            .collect();
        assert_eq!(got, vec![3]);
        assert_eq!(idx.count(QnId(0)), 1);
    }

    #[test]
    fn compaction_preserves_contents_and_clears_delta() {
        let mut idx = NameIndex::from_base(HashMap::new());
        idx.add(QnId(2), 4);
        idx.add(QnId(2), 1);
        idx.add(QnId(3), 8);
        idx.remove(QnId(3), 8);
        assert!(idx.delta_len() > 0);
        idx.compact(ident);
        assert_eq!(idx.delta_len(), 0);
        let got: Vec<u64> = idx
            .nodes_by_pre(QnId(2), ident)
            .iter()
            .map(|x| x.0)
            .collect();
        assert_eq!(got, vec![1, 4]);
        assert_eq!(idx.count(QnId(3)), 0);
    }

    /// The windowed probe equals the filtered whole-document probe for
    /// every window, with dead (unmapped) and tombstoned-but-alive
    /// entries in the base and added entries in the delta.
    #[test]
    fn windowed_probe_equals_the_filtered_whole_probe() {
        let mut base = HashMap::new();
        base.insert(QnId(1), (0..40).collect::<Vec<u64>>());
        let mut idx = NameIndex::from_base(base);
        // Deleted nodes: tombstoned and without a pre rank.
        let dead = |n: u64| (8..20).contains(&n) || n == 0 || n == 39;
        for n in (0..40).filter(|&n| dead(n)) {
            idx.remove(QnId(1), n);
        }
        idx.remove(QnId(1), 25); // renamed away: tombstoned, still placed
        idx.add(QnId(1), 100); // inserted between base entries
        idx.add(QnId(1), 101); // inserted behind the last base entry
        let pre_of = |n: u64| match n {
            100 => Some(45),
            101 => Some(400),
            n if dead(n) => None,
            n => Some(n * 3),
        };
        let all = idx.nodes_by_pre(QnId(1), pre_of);
        assert_eq!(all.len() as u64, idx.count(QnId(1)));
        for lo in 0..125 {
            for hi in [lo, lo + 1, lo + 7, lo + 60, 401, u64::MAX] {
                let want: Vec<(u64, u64)> = all
                    .iter()
                    .copied()
                    .filter(|&(p, _)| lo <= p && p < hi)
                    .collect();
                assert_eq!(
                    idx.nodes_by_pre_in(QnId(1), lo, hi, pre_of),
                    want,
                    "[{lo}, {hi})"
                );
            }
        }
        assert!(idx.nodes_by_pre_in(QnId(9), 0, u64::MAX, pre_of).is_empty());
    }

    #[test]
    fn clones_share_the_base() {
        let mut base = HashMap::new();
        base.insert(QnId(5), (0..100).collect());
        let idx = NameIndex::from_base(base);
        let snap = idx.clone();
        assert!(Arc::ptr_eq(&idx.base, &snap.base), "clone must share");
    }
}
