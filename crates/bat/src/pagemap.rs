//! Logical-page order indirection (the paper's `pageOffset` table).
//!
//! The updateable schema stores tuples in *logical pages*. New pages are
//! only ever **appended** to the physical table, but a separate table
//! records each page's *logical* position, so an overflow page appended at
//! the physical end can appear "halfway" in the `pre/size/level` view
//! (§3). In MonetDB this view is realized by mapping the table's virtual
//! memory pages in logical order; here the same indirection is an explicit
//! in-memory permutation, exercised on exactly the same operations:
//!
//! * `pre → pos` when the query engine dereferences a view position, and
//! * `pos → pre` ("swizzling", §3.1) when a node id is translated back to
//!   a pre rank: `pre = pageOffset[pos >> S] << S | (pos & (2^S - 1))`.
//!
//! A page id or index out of range is a caller's bug, not data: the
//! lookups answer `None` and a splice past the end panics, as the
//! columns' own accesses do.
//!
//! Both directions are copy-on-write columns of `u32` ([`CowVec`]), like
//! every other table of a document version: a clone shares them, and
//! only a page appended or spliced in writes them (§3.2: a transaction's
//! view of the table is a copy-on-write map of the base).

use crate::cow::{Block, Blocks, CowVec};

/// Identifier of a *physical* page (its index in physical append order).
pub type PageId = usize;

/// Entries per copy-on-write page of either direction.
const MAP_PAGE: usize = 1024;

/// A permutation between physical pages and logical page order.
///
/// Maintains both directions so that `pre → pos` (view dereference) and
/// `pos → pre` (node swizzle) are each a single column lookup plus
/// shift/mask arithmetic, exactly as the paper describes.
#[derive(Debug, Clone)]
pub struct PageMap {
    /// log2 of the tuples per logical page, so the swizzle is shift/mask.
    shift: u32,
    /// logical page index → physical page id.
    logical: CowVec<u32>,
    /// physical page id → logical page index (the `pageOffset` table).
    offset: CowVec<u32>,
}

/// A page id or logical index at the columns' width.
fn narrow(page: usize) -> u32 {
    u32::try_from(page).expect("a page map holds fewer than 2³² pages")
}

impl PageMap {
    /// Creates an empty map for pages of `page_size` tuples.
    ///
    /// `page_size` must be a power of two (the paper sets it to the virtual
    /// memory-mapping granularity, 65536; benchmarks here use smaller
    /// powers of two so scaled documents still span many pages).
    ///
    /// # Panics
    /// Panics if `page_size` is zero or not a power of two — this is a
    /// configuration error, not a data error.
    pub fn new(page_size: usize) -> Self {
        assert!(
            page_size.is_power_of_two(),
            "logical page size must be a power of two, got {page_size}"
        );
        PageMap {
            shift: page_size.trailing_zeros(),
            logical: CowVec::new(MAP_PAGE),
            offset: CowVec::new(MAP_PAGE),
        }
    }

    /// Number of pages (physical == logical; the permutation is total).
    pub fn num_pages(&self) -> usize {
        self.logical.len()
    }

    /// Appends a fresh physical page at the **end** of the logical order
    /// (initial shredding path). Returns its physical page id.
    pub fn append_page(&mut self) -> PageId {
        let phys = self.offset.len();
        self.offset.push(narrow(self.logical.len()));
        self.logical.push(narrow(phys));
        phys
    }

    /// Appends a fresh physical page and splices it into the logical order
    /// at logical index `at` (case 2b of Figure 7: a page overflow insert).
    ///
    /// The physical table only grows at the end; the logical index of every
    /// page at or after `at` is incremented — this is the "increment the
    /// offset of all pages after the insert point" step and its cost is
    /// O(#pages), *not* O(#tuples).
    ///
    /// Returns the new page's physical id.
    ///
    /// # Panics
    /// Panics if `at` is past the last page.
    pub fn insert_page_at(&mut self, at: usize) -> PageId {
        let phys = self.offset.len();
        self.logical.insert(at, narrow(phys));
        // Rebuild offsets for the shifted suffix.
        self.offset.push(narrow(at));
        for lidx in at + 1..self.logical.len() {
            self.offset[self.logical[lidx] as usize] = narrow(lidx);
        }
        phys
    }

    /// Physical page id of the page at logical index `lp`.
    #[inline]
    pub fn logical_to_physical(&self, lp: usize) -> Option<PageId> {
        self.logical.get(lp).map(|&phys| phys as PageId)
    }

    /// Logical index of physical page `pp` (a `pageOffset` lookup).
    #[inline]
    pub fn physical_to_logical(&self, pp: PageId) -> Option<usize> {
        self.offset.get(pp).map(|&lp| lp as usize)
    }

    /// Swizzles a physical position to a view position:
    /// `pre = pageOffset[pos >> S] << S | (pos & (2^S - 1))` (§3.1).
    #[inline]
    pub fn pos_to_pre(&self, pos: u64) -> Option<u64> {
        let lp = self.physical_to_logical((pos >> self.shift) as usize)?;
        Some(((lp as u64) << self.shift) | (pos & ((1 << self.shift) - 1)))
    }

    /// Checks internal consistency: the two directions must be inverse
    /// permutations. Used by the storage invariant checker and tests.
    pub fn check_consistency(&self) -> bool {
        self.logical.len() == self.offset.len()
            && self
                .logical
                .iter()
                .enumerate()
                .all(|(lidx, &p)| self.offset.get(p as usize) == Some(&narrow(lidx)))
    }
}

/// Both directions, the logical order first.
impl Blocks for PageMap {
    fn blocks(&self, visit: &mut dyn FnMut(Block)) {
        self.logical.blocks(visit);
        self.offset.blocks(visit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A view position's physical position, through the logical order.
    fn pre_to_pos(m: &PageMap, pre: u64) -> Option<u64> {
        let phys = m.logical_to_physical((pre >> m.shift) as usize)?;
        Some(((phys as u64) << m.shift) | (pre & ((1 << m.shift) - 1)))
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = PageMap::new(100);
    }

    #[test]
    fn append_keeps_identity_order() {
        let mut m = PageMap::new(8);
        m.append_page();
        m.append_page();
        m.append_page();
        assert_eq!(m.num_pages(), 3);
        for i in 0..3 {
            assert_eq!(m.logical_to_physical(i).unwrap(), i);
            assert_eq!(m.physical_to_logical(i).unwrap(), i);
        }
        // Identity permutation: pre == pos.
        for p in 0..24 {
            assert_eq!(pre_to_pos(&m, p).unwrap(), p);
            assert_eq!(m.pos_to_pre(p).unwrap(), p);
        }
    }

    #[test]
    fn splice_makes_appended_page_appear_midway() {
        let mut m = PageMap::new(4);
        m.append_page(); // phys 0, logical 0
        m.append_page(); // phys 1, logical 1
        let new = m.insert_page_at(1); // phys 2 spliced at logical 1
        assert_eq!(new, 2);
        assert_eq!(m.logical_to_physical(0).unwrap(), 0);
        assert_eq!(m.logical_to_physical(1).unwrap(), 2);
        assert_eq!(m.logical_to_physical(2).unwrap(), 1);
        assert!(m.check_consistency());
        // pre 4..8 now lives in physical page 2 → pos 8..12.
        assert_eq!(pre_to_pos(&m, 4).unwrap(), 8);
        assert_eq!(pre_to_pos(&m, 7).unwrap(), 11);
        // and the old physical page 1 shifted to pre 8..12.
        assert_eq!(m.pos_to_pre(4).unwrap(), 8);
        assert_eq!(m.pos_to_pre(8).unwrap(), 4);
    }

    #[test]
    fn splice_at_bounds() {
        let mut m = PageMap::new(4);
        m.append_page();
        m.insert_page_at(0); // prepend
        assert_eq!(m.logical_to_physical(0).unwrap(), 1);
        assert_eq!(m.logical_to_physical(1).unwrap(), 0);
        m.insert_page_at(2); // append via splice
        assert_eq!(m.logical_to_physical(2).unwrap(), 2);
        assert!(m.check_consistency());
    }

    #[test]
    fn swizzle_round_trips_after_many_splices() {
        let mut m = PageMap::new(16);
        for _ in 0..4 {
            m.append_page();
        }
        m.insert_page_at(2);
        m.insert_page_at(0);
        m.insert_page_at(5);
        assert!(m.check_consistency());
        for pre in 0..(m.num_pages() as u64 * 16) {
            let pos = pre_to_pos(&m, pre).unwrap();
            assert_eq!(m.pos_to_pre(pos).unwrap(), pre);
        }
    }

    /// Any sequence of appends and splices keeps the permutation
    /// consistent and the swizzle bijective, across the columns' page
    /// boundaries and against a clone taken halfway, which never sees
    /// the later writes. Randomized over an inline SplitMix64 stream —
    /// `mbxq-bat` sits at the bottom of the crate graph, so it cannot
    /// borrow the shared generator from `mbxq-xmark::rng` without a
    /// dev-dependency cycle; seed reported on failure.
    #[test]
    fn random_splices_keep_bijection() {
        for seed in 0..64u64 {
            let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(11);
            let mut next = move || {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) as usize
            };
            let n_ops = 1 + next() % 23 + if seed % 8 == 0 { MAP_PAGE } else { 0 };
            let mut m = PageMap::new(8);
            let mut halfway = None;
            for op in 0..n_ops {
                if op == n_ops / 2 {
                    halfway = Some((m.clone(), m.num_pages()));
                }
                let op = next() % 16;
                if op == 0 || m.num_pages() == 0 {
                    m.append_page();
                } else {
                    let at = op % (m.num_pages() + 1);
                    m.insert_page_at(at);
                }
            }
            for m in [Some(&m), halfway.as_ref().map(|(h, _)| h)]
                .into_iter()
                .flatten()
            {
                assert!(m.check_consistency(), "seed {seed}");
                let mut seen = std::collections::HashSet::new();
                for pre in 0..m.num_pages() as u64 * 8 {
                    let pos = pre_to_pos(m, pre).unwrap();
                    assert!(seen.insert(pos), "seed {seed}: pos {pos} duplicated");
                    assert_eq!(m.pos_to_pre(pos).unwrap(), pre, "seed {seed}");
                }
            }
            if let Some((h, pages)) = halfway {
                assert_eq!(h.num_pages(), pages, "seed {seed}: the clone saw a write");
            }
        }
    }

    #[test]
    #[should_panic(expected = "past the end")]
    fn a_splice_past_the_last_page_panics() {
        let mut m = PageMap::new(4);
        m.append_page();
        m.insert_page_at(2);
    }

    #[test]
    fn out_of_range_positions_error() {
        let mut m = PageMap::new(4);
        m.append_page();
        assert!(pre_to_pos(&m, 4).is_none());
        assert!(m.pos_to_pre(4).is_none());
        assert!(m.physical_to_logical(1).is_none());
    }
}
