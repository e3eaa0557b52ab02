//! Page-granular copy-on-write columns.
//!
//! MonetDB isolates a write transaction by giving it "a temporary view
//! backed by a copy-on-write memory-map on the base table" (§3.2): all
//! pages start out shared with the base table, and the OS transparently
//! replaces each page the transaction writes with a private copy, so the
//! base table is never altered before commit. [`CowDir`] is the explicit
//! in-memory equivalent: a sequence of reference-counted **leaves** (a
//! document page, or a page of column values) reached through a
//! two-level directory. The directory holds **chunks**, and a chunk is
//! one shared `Arc<[Arc<L>]>` of [`FANOUT`] leaf pointers.
//!
//! * **A clone** copies the directory: one pointer and one reference
//!   count per chunk, O(leaves / [`FANOUT`]). No leaf is touched.
//! * **A write** to a leaf privatises the leaf's chunk ([`FANOUT`]
//!   pointer copies) and then the leaf itself, each only if another
//!   clone still shares it. Two clones share every leaf neither of them
//!   has written, and every chunk in which neither wrote a leaf.
//! * **Dropping a version** releases only the chunks it does not share;
//!   a chunk's last owner releases its leaves.
//! * **A read** is two dependent loads from the directory, chunk then
//!   leaf, with the fan-out's shift and mask as constants, and one
//!   bounds check against the length rather than one per level.
//!
//! [`CowVec`] is a column of values on this directory, its leaves
//! `Arc<[T]>` pages of a power-of-two number of values (the `node→pos`
//! map and the attribute table). The document's base table puts its own
//! page type (one allocation per logical page, `mbxq-storage`'s `Page`)
//! in a `CowDir` directly.

use std::ops::{Index, IndexMut};
use std::sync::Arc;

/// Leaf pointers per directory chunk.
pub const FANOUT: usize = 32;
const FANOUT_SHIFT: u32 = FANOUT.trailing_zeros();
const FANOUT_MASK: usize = FANOUT - 1;

/// A sequence of shared, individually copy-on-write leaves behind a
/// two-level directory of [`FANOUT`]-leaf chunks (module docs).
///
/// Reads go through [`Index`] (or [`CowDir::get`]); a write goes through
/// [`CowDir::leaf_mut`], which privatises the leaf's chunk and hands out
/// the leaf's pointer for the caller to privatise ([`Arc::make_mut`] or
/// the leaf type's own equivalent).
#[derive(Debug)]
pub struct CowDir<L: ?Sized> {
    len: usize,
    /// Every chunk but the last holds exactly [`FANOUT`] leaves.
    chunks: Vec<Arc<[Arc<L>]>>,
}

impl<L: ?Sized> Clone for CowDir<L> {
    /// Copies the chunk pointers; every leaf stays shared.
    fn clone(&self) -> Self {
        CowDir {
            len: self.len,
            chunks: self.chunks.clone(),
        }
    }
}

impl<L: ?Sized> Default for CowDir<L> {
    fn default() -> Self {
        CowDir {
            len: 0,
            chunks: Vec::new(),
        }
    }
}

impl<L: ?Sized> CowDir<L> {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the directory holds no leaves.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Leaf `i`, or `None` past the end.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&L> {
        (i < self.len).then(|| &**self.leaf(i))
    }

    /// The pointer of leaf `i`, which the caller has checked is below
    /// `len`: one bounds check per read instead of one per level.
    #[inline]
    fn leaf(&self, i: usize) -> &Arc<L> {
        debug_assert!(i < self.len, "leaf {i} out of bounds (len {})", self.len);
        // SAFETY: `i < len`. `push` and `insert` keep ⌈len / FANOUT⌉
        // chunks, every one but the last holding FANOUT leaves and the
        // last the rest, so chunk `i >> FANOUT_SHIFT` exists and holds
        // offset `i & FANOUT_MASK`.
        unsafe {
            self.chunks
                .get_unchecked(i >> FANOUT_SHIFT)
                .get_unchecked(i & FANOUT_MASK)
        }
    }

    /// Write access to the pointer of leaf `i`, privatising its chunk if
    /// another clone shares it. The leaf itself is still shared: the
    /// caller privatises it on write.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn leaf_mut(&mut self, i: usize) -> &mut Arc<L> {
        &mut Arc::make_mut(&mut self.chunks[i >> FANOUT_SHIFT])[i & FANOUT_MASK]
    }

    /// Appends a leaf. Opens a chunk, or rebuilds the (possibly shared)
    /// partial last chunk with one more pointer.
    pub fn push(&mut self, leaf: Arc<L>) {
        match self.chunks.last_mut() {
            Some(last) if self.len & FANOUT_MASK != 0 => {
                *last = last.iter().cloned().chain(std::iter::once(leaf)).collect();
            }
            _ => self.chunks.push(Arc::from([leaf])),
        }
        self.len += 1;
    }

    /// Inserts a leaf at index `at`, shifting the leaves behind it. The
    /// chunks from `at`'s on are rebuilt (a pointer copy per leaf behind
    /// `at`); every leaf stays shared.
    ///
    /// # Panics
    /// Panics if `at > len`.
    pub fn insert(&mut self, at: usize, leaf: Arc<L>) {
        assert!(at <= self.len, "insert at {at} past the end ({})", self.len);
        let first = at >> FANOUT_SHIFT;
        let mut tail: Vec<Arc<L>> = self.chunks[first..]
            .iter()
            .flat_map(|chunk| chunk.iter().cloned())
            .collect();
        tail.insert(at & FANOUT_MASK, leaf);
        // Built aside and swapped in whole, so `leaf`'s condition on the
        // chunks holds at every point a panic could leave them.
        let mut chunks = self.chunks[..first].to_vec();
        let mut tail = tail.into_iter();
        while tail.len() > 0 {
            chunks.push(tail.by_ref().take(FANOUT).collect());
        }
        self.chunks = chunks;
        self.len += 1;
    }

    /// Iterates the leaves in index order.
    pub fn iter(&self) -> impl Iterator<Item = &L> + '_ {
        self.chunks
            .iter()
            .flat_map(|chunk| chunk.iter().map(|leaf| &**leaf))
    }

    /// Number of leaves physically shared (same allocation, same index)
    /// with `other`. A shared chunk counts whole without a look at its
    /// leaves.
    pub fn shared_leaves_with(&self, other: &CowDir<L>) -> usize {
        self.chunks
            .iter()
            .zip(&other.chunks)
            .map(|(a, b)| {
                if Arc::ptr_eq(a, b) {
                    a.len()
                } else {
                    a.iter()
                        .zip(b.iter())
                        .filter(|(x, y)| Arc::ptr_eq(x, y))
                        .count()
                }
            })
            .sum()
    }

    /// Number of chunks physically shared (same allocation, same index)
    /// with `other`.
    pub fn shared_chunks_with(&self, other: &CowDir<L>) -> usize {
        self.chunks
            .iter()
            .zip(&other.chunks)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }

    /// `(owned, total)` chunks: `owned` counts those no other clone
    /// holds, which are what dropping this version releases.
    pub fn owned_chunks(&self) -> (usize, usize) {
        let owned = self
            .chunks
            .iter()
            .filter(|c| Arc::strong_count(c) == 1)
            .count();
        (owned, self.chunks.len())
    }
}

impl<L: ?Sized> Index<usize> for CowDir<L> {
    type Output = L;

    #[inline]
    fn index(&self, i: usize) -> &L {
        assert!(i < self.len, "leaf {i} out of bounds (len {})", self.len);
        self.leaf(i)
    }
}

/// A column of `T` values stored as shared, individually copy-on-write
/// pages in a [`CowDir`].
///
/// Every page holds `page_size` values; the column grows by
/// [`CowVec::push`], and a page is allocated whole when the first value
/// lands on it (the slots past the end hold copies of that value and are
/// never read). Reads go through [`Index`] (which panics past the end) or
/// [`CowVec::get`]; writes go through [`IndexMut`], which privatizes the
/// containing page, and its chunk, on first touch if another clone
/// shares it.
#[derive(Debug, Clone)]
pub struct CowVec<T> {
    page_size: usize,
    shift: u32,
    mask: usize,
    len: usize,
    pages: CowDir<[T]>,
}

impl<T: Clone> CowVec<T> {
    /// Creates an empty column with pages of `page_size` values.
    ///
    /// # Panics
    /// Panics if `page_size` is zero or not a power of two (page
    /// addressing is shift/mask, like the pre/pos swizzle).
    pub fn new(page_size: usize) -> Self {
        assert!(
            page_size.is_power_of_two(),
            "copy-on-write page size must be a power of two, got {page_size}"
        );
        CowVec {
            page_size,
            shift: page_size.trailing_zeros(),
            mask: page_size - 1,
            len: 0,
            pages: CowDir::new(),
        }
    }

    /// Number of values in the column.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of pages currently backing the column.
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// Reads index `i`, or `None` past the end.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&T> {
        (i < self.len).then(|| self.value(i))
    }

    /// Value `i`, which the caller has checked is below `len`.
    #[inline]
    fn value(&self, i: usize) -> &T {
        let page = self.pages.leaf(i >> self.shift);
        // SAFETY: `i < len`, and every page holds exactly `page_size`
        // values (`push` allocates them whole), so page `i >> shift`
        // exists — `CowDir::leaf` relies on that — and holds offset
        // `i & mask`.
        unsafe { page.get_unchecked(i & self.mask) }
    }

    /// Appends one value, opening a page or filling the last one.
    pub fn push(&mut self, value: T) {
        let slot = self.len & self.mask;
        if slot == 0 {
            self.pages
                .push(std::iter::repeat_n(value, self.page_size).collect());
        } else {
            let last = self.pages.len() - 1;
            Arc::make_mut(self.pages.leaf_mut(last))[slot] = value;
        }
        self.len += 1;
    }

    /// Iterates the values in index order.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.pages.iter().flatten().take(self.len)
    }

    /// Number of pages physically shared (same allocation) with `other`.
    pub fn shared_pages_with(&self, other: &CowVec<T>) -> usize {
        self.pages.shared_leaves_with(&other.pages)
    }
}

impl<T: Clone> Index<usize> for CowVec<T> {
    type Output = T;

    #[inline]
    fn index(&self, i: usize) -> &T {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        self.value(i)
    }
}

impl<T: Clone> IndexMut<usize> for CowVec<T> {
    /// Privatizes the containing page on first write through this clone.
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut T {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        &mut Arc::make_mut(self.pages.leaf_mut(i >> self.shift))[i & self.mask]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled<T: Clone>(page_size: usize, len: usize, fill: T) -> CowVec<T> {
        let mut v = CowVec::new(page_size);
        for _ in 0..len {
            v.push(fill.clone());
        }
        v
    }

    /// A directory of `n` one-value leaves holding `0..n`.
    fn dir(n: usize) -> CowDir<[usize]> {
        let mut d = CowDir::new();
        for i in 0..n {
            d.push(Arc::from([i]));
        }
        d
    }

    /// Leaves of `a` not shared with `b`, by index.
    fn private_leaves(a: &CowDir<[usize]>, b: &CowDir<[usize]>) -> Vec<usize> {
        (0..a.len())
            .filter(|&i| b.get(i).is_none_or(|l| !std::ptr::eq(l, &a[i])))
            .collect()
    }

    #[test]
    fn reads_and_writes_round_trip() {
        let mut v = filled(4, 10, 0u32);
        for i in 0..10 {
            v[i] = i as u32 * 10;
        }
        for i in 0..10 {
            assert_eq!(v[i], i as u32 * 10);
        }
        assert_eq!(v.get(9), Some(&90));
        assert_eq!(v.get(10), None);
        assert_eq!(v.num_pages(), 3);
        assert_eq!(v.iter().copied().sum::<u32>(), 450);
        assert_eq!(v.iter().count(), 10, "the filler past the end is not read");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn reading_the_filler_past_the_end_panics() {
        let v = filled(4, 5, 7u32); // the second page holds 1 value + filler
        let _ = v[5];
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn reading_a_leaf_past_the_end_panics() {
        let d = dir(FANOUT + 1);
        assert!(d.get(FANOUT + 1).is_none());
        let _ = &d[FANOUT + 1];
    }

    #[test]
    fn clones_share_pages_until_written() {
        let mut a = filled(4, 12, 1u64);
        let b = a.clone();
        assert_eq!(a.shared_pages_with(&b), 3);
        a[5] = 99; // page 1 privatized
        assert_eq!(a.shared_pages_with(&b), 2);
        assert_eq!(b[5], 1, "the clone never sees the write");
        assert_eq!(a[5], 99);
        // Unwritten neighbors on the privatized page were copied over.
        assert_eq!(a[4], 1);
    }

    #[test]
    fn writing_the_same_page_twice_privatizes_once() {
        let mut a = filled(8, 16, 0u8);
        let b = a.clone();
        a[0] = 1;
        a[1] = 2;
        a[7] = 3;
        assert_eq!(a.shared_pages_with(&b), 1);
    }

    #[test]
    fn push_and_partial_last_page() {
        let mut v: CowVec<u16> = CowVec::new(4);
        for i in 0..6 {
            v.push(i);
        }
        assert_eq!(v.len(), 6);
        assert_eq!(v.num_pages(), 2);
        assert_eq!(v[5], 5);
        let w = v.clone();
        v.push(6); // grows the shared partial page: must privatize it
        assert_eq!(w.len(), 6);
        assert_eq!(v[6], 6);
        assert_eq!(v.shared_pages_with(&w), 1);
    }

    #[test]
    fn a_clone_shares_every_chunk_and_copies_no_leaf() {
        let a = dir(3 * FANOUT + 5);
        let b = a.clone();
        assert_eq!(a.shared_chunks_with(&b), 4);
        assert_eq!(a.shared_leaves_with(&b), a.len());
        assert_eq!(a.owned_chunks(), (0, 4));
        drop(b);
        assert_eq!(a.owned_chunks(), (4, 4), "the drop released every chunk");
    }

    #[test]
    fn one_write_privatises_exactly_one_chunk_and_one_leaf() {
        let base = dir(4 * FANOUT);
        let mut d = base.clone();
        let i = FANOUT + 7;
        Arc::make_mut(d.leaf_mut(i))[0] = 1000;
        assert_eq!(d.shared_chunks_with(&base), 3);
        assert_eq!(private_leaves(&d, &base), [i]);
        assert_eq!(d.owned_chunks(), (1, 4));
        // Every pointer the privatised chunk copied still shares its leaf.
        let chunk = &d.chunks[1];
        for (j, leaf) in chunk.iter().enumerate() {
            let owners = if j == 7 { 1 } else { 2 };
            assert_eq!(Arc::strong_count(leaf), owners, "leaf {j}");
        }
        assert_eq!((base[i][0], d[i][0]), (i, 1000));
        // A second write to the same chunk copies nothing more.
        Arc::make_mut(d.leaf_mut(FANOUT + 8))[0] = 2000;
        assert_eq!(d.shared_chunks_with(&base), 3);
        assert_eq!(private_leaves(&d, &base), [i, i + 1]);
    }

    #[test]
    fn a_push_onto_a_shared_partial_chunk_privatises_only_that_chunk() {
        let base = dir(2 * FANOUT + 3);
        let mut d = base.clone();
        d.push(Arc::from([99]));
        assert_eq!(d.len(), 2 * FANOUT + 4);
        assert_eq!(d.shared_chunks_with(&base), 2);
        assert_eq!(d.owned_chunks(), (1, 3));
        assert_eq!(private_leaves(&d, &base), [2 * FANOUT + 3]);
        assert_eq!(base.len(), 2 * FANOUT + 3, "the base never sees the push");
        assert!(base.get(2 * FANOUT + 3).is_none());
        // A push that opens a chunk privatises none.
        let mut e = dir(2 * FANOUT);
        let f = e.clone();
        e.push(Arc::from([7]));
        assert_eq!(e.shared_chunks_with(&f), 2);
        assert_eq!(e.owned_chunks(), (1, 3));
    }

    #[test]
    fn a_leaf_spliced_mid_order_keeps_every_other_leaf_shared() {
        let base = dir(3 * FANOUT + 4);
        let mut d = base.clone();
        let at = FANOUT + 1;
        d.insert(at, Arc::from([usize::MAX]));
        assert_eq!(d.len(), base.len() + 1);
        let values: Vec<usize> = d.iter().map(|l| l[0]).collect();
        let mut expect: Vec<usize> = (0..base.len()).collect();
        expect.insert(at, usize::MAX);
        assert_eq!(values, expect);
        // Every old leaf is still the base's allocation, one place on.
        for i in 0..base.len() {
            let j = if i < at { i } else { i + 1 };
            assert!(std::ptr::eq(&base[i], &d[j]), "leaf {i}");
        }
        // The chunk before the splice point stays shared; the rest were
        // rebuilt, and the base owns its own again.
        assert_eq!(d.shared_chunks_with(&base), 1);
        assert_eq!(d.owned_chunks(), (3, 4));
        assert_eq!(base.owned_chunks(), (3, 4));
        // Splicing at either end works too.
        d.insert(0, Arc::from([7]));
        d.insert(d.len(), Arc::from([8]));
        assert_eq!(
            (d[0][0], d[d.len() - 1][0], d.len()),
            (7, 8, base.len() + 3)
        );
    }
}
