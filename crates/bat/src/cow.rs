//! Page-granular copy-on-write columns.
//!
//! MonetDB isolates a write transaction by giving it "a temporary view
//! backed by a copy-on-write memory-map on the base table" (§3.2): all
//! pages start out shared with the base table, and the OS transparently
//! replaces each page the transaction writes with a private copy, so the
//! base table is never altered before commit. [`CowDir`] is the explicit
//! in-memory equivalent: a sequence of reference-counted **leaves** (a
//! document page, or a page of column values) reached through a
//! two-level directory. The directory is one shared array of **chunks**,
//! and a chunk is one shared `Arc<[Arc<L>]>` of [`FANOUT`] leaf pointers.
//!
//! * **A clone** shares the directory: one reference count, whatever its
//!   size. No chunk or leaf is touched.
//! * **A write** to a leaf privatises the directory (one pointer and one
//!   reference count per chunk, O(leaves / [`FANOUT`])), the leaf's
//!   chunk ([`FANOUT`] pointer copies) and then the leaf itself, each
//!   only if another clone still shares it. Two clones share every leaf
//!   neither of them has written, every chunk in which neither wrote a
//!   leaf, and the directory itself until one of them writes.
//! * **Dropping a version** releases only what it does not share: nothing
//!   for a directory it never wrote; a chunk's last owner releases its
//!   leaves.
//! * **A read** is two dependent loads from the directory, chunk then
//!   leaf, with the fan-out's shift and mask as constants, and one
//!   bounds check against the length rather than one per level.
//!
//! [`CowVec`] is a column of values on this directory, its leaves
//! `Arc<[T]>` pages of a power-of-two number of values (the `node→pos`
//! map, the attribute table, the interners' values and lookup tables).
//! [`CowSorted`] is a sorted sequence on it, its leaves `Arc<[T]>` runs
//! of variable length (the indexes' posting lists). The document's base
//! table puts its own page type (one allocation per logical page,
//! `mbxq-storage`'s `Page`) in a `CowDir` directly. Every per-version
//! table of a document is one of these three, so a version's clone, its
//! commit and its drop cost the chunks and leaves it shares or writes,
//! whatever the document's history.

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
/// [`CowDir::leaf_mut`], which privatises the directory and the leaf's
/// chunk and hands out the leaf's pointer for the caller to privatise
/// ([`Arc::make_mut`] or the leaf type's own equivalent).
#[derive(Debug)]
pub struct CowDir<L: ?Sized> {
    len: usize,
    /// Every chunk but the last holds exactly [`FANOUT`] leaves.
    chunks: Arc<[Arc<[Arc<L>]>]>,
}

impl<L: ?Sized> Clone for CowDir<L> {
    /// Shares the directory; every chunk and leaf stays shared.
    fn clone(&self) -> Self {
        CowDir {
            len: self.len,
            chunks: Arc::clone(&self.chunks),
        }
    }
}

impl<L: ?Sized> Default for CowDir<L> {
    fn default() -> Self {
        CowDir {
            len: 0,
            chunks: Arc::from([]),
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

    /// Write access to the pointer of leaf `i`, privatising the
    /// directory and the leaf's chunk if another clone shares them. The
    /// leaf itself is still shared: the caller privatises it on write.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn leaf_mut(&mut self, i: usize) -> &mut Arc<L> {
        let chunks = Arc::make_mut(&mut self.chunks);
        &mut Arc::make_mut(&mut chunks[i >> FANOUT_SHIFT])[i & FANOUT_MASK]
    }

    /// Appends a leaf. Rebuilds the (possibly shared) partial last chunk
    /// with one more pointer, or the directory with one more chunk.
    pub fn push(&mut self, leaf: Arc<L>) {
        if self.len & FANOUT_MASK != 0 {
            let last = Arc::make_mut(&mut self.chunks)
                .last_mut()
                .expect("a partial chunk");
            *last = last.iter().cloned().chain(std::iter::once(leaf)).collect();
        } else {
            let chunk = std::iter::once(Arc::from([leaf]));
            self.chunks = self.chunks.iter().cloned().chain(chunk).collect();
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
        let mut tail = self.tail_from(at);
        tail.insert(at & FANOUT_MASK, leaf);
        self.rechunk_tail(at, tail);
        self.len += 1;
    }

    /// Removes leaf `at`, shifting the leaves behind it: the mirror
    /// image of [`CowDir::insert`], at the same cost.
    ///
    /// # Panics
    /// Panics if `at >= len`.
    pub fn remove(&mut self, at: usize) -> Arc<L> {
        assert!(at < self.len, "remove at {at} past the end ({})", self.len);
        let mut tail = self.tail_from(at);
        let leaf = tail.remove(at & FANOUT_MASK);
        // Shrunk first: chunks holding more leaves than `len` are safe.
        self.len -= 1;
        self.rechunk_tail(at, tail);
        leaf
    }

    /// The leaf pointers from the start of `at`'s chunk on.
    fn tail_from(&self, at: usize) -> Vec<Arc<L>> {
        self.chunks[at >> FANOUT_SHIFT..]
            .iter()
            .flat_map(|chunk| chunk.iter().cloned())
            .collect()
    }

    /// Replaces the chunks from `at`'s on with `tail` cut into chunks.
    /// Built aside and swapped in whole, so `leaf`'s condition on the
    /// chunks holds at every point a panic could leave them.
    fn rechunk_tail(&mut self, at: usize, tail: Vec<Arc<L>>) {
        let mut chunks = self.chunks[..at >> FANOUT_SHIFT].to_vec();
        let mut tail = tail.into_iter();
        while tail.len() > 0 {
            chunks.push(tail.by_ref().take(FANOUT).collect());
        }
        self.chunks = chunks.into();
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
            .zip(other.chunks.iter())
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
            .zip(other.chunks.iter())
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }

    /// `(owned, total)` chunks: `owned` counts those no other clone
    /// holds, which are what dropping this version releases (none while
    /// another clone shares the whole directory).
    pub fn owned_chunks(&self) -> (usize, usize) {
        let owned = self
            .chunks
            .iter()
            .filter(|c| Arc::strong_count(c) == 1 && Arc::strong_count(&self.chunks) == 1)
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
        self.grow_to(self.len + 1, value);
    }

    /// Grows the column to `len` values, each new one a copy of `value`:
    /// the last page is filled in one write, then whole pages are
    /// appended, one allocation each. A no-op if the column is already
    /// that long.
    pub fn grow_to(&mut self, len: usize, value: T) {
        let slot = self.len & self.mask;
        if slot != 0 && len > self.len {
            let fill = (self.page_size - slot).min(len - self.len);
            let last = self.pages.len() - 1;
            Arc::make_mut(self.pages.leaf_mut(last))[slot..slot + fill].fill(value.clone());
            self.len += fill;
        }
        while self.len < len {
            self.pages
                .push(std::iter::repeat_n(value.clone(), self.page_size).collect());
            self.len += self.page_size.min(len - self.len);
        }
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

/// A sorted sequence of `T` on a [`CowDir`] of variable-length leaves:
/// the ordered counterpart of [`CowVec`], for posting lists.
///
/// A leaf is an `Arc<[T]>` of around `leaf_size` entries. The order is
/// the caller's: every search takes a predicate `before` that holds for
/// a prefix of the sequence (the entries ordered before the probe key),
/// so an order may read state outside the sequence — a document's
/// current pre ranks, say — as long as it never reorders two entries.
///
/// * **A clone** shares the directory: one reference count.
/// * **An insert or a removal** copies the one leaf it touches and
///   privatises that leaf's chunk (and the directory, on a version's
///   first write). A leaf grown to twice `leaf_size`
///   splits in two, and an emptied leaf is dropped; either rebuilds the
///   chunks behind it ([`CowDir::insert`]), a pointer copy per leaf,
///   once per `leaf_size` inserts or removals at most.
/// * **A search** ([`CowSorted::lower_bound`]) is a binary search over
///   the leaves' last entries and then inside one leaf:
///   O(log len) calls of `before`.
#[derive(Debug, Clone)]
pub struct CowSorted<T> {
    leaf_size: usize,
    /// Every leaf holds at least one entry.
    leaves: CowDir<[T]>,
}

/// A position in a [`CowSorted`]: an offset inside a leaf, or the end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cursor {
    leaf: usize,
    at: usize,
}

impl<T: Copy> CowSorted<T> {
    /// An empty sequence whose leaves hold around `leaf_size` entries.
    ///
    /// # Panics
    /// Panics if `leaf_size` is zero.
    pub fn new(leaf_size: usize) -> Self {
        assert!(leaf_size > 0, "a leaf must hold an entry");
        CowSorted {
            leaf_size,
            leaves: CowDir::new(),
        }
    }

    /// The sequence of the already sorted `items`, in full leaves.
    pub fn from_sorted(leaf_size: usize, items: &[T]) -> Self {
        let mut sorted = Self::new(leaf_size);
        let leaves = items.chunks(leaf_size).map(Arc::from).collect();
        sorted.leaves.len = items.len().div_ceil(leaf_size);
        sorted.leaves.rechunk_tail(0, leaves);
        sorted
    }

    /// The first position whose entry is not `before`, which must hold
    /// for a prefix of the sequence.
    pub fn lower_bound(&self, mut before: impl FnMut(&T) -> bool) -> Cursor {
        let (mut lo, mut hi) = (0, self.leaves.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let leaf = &self.leaves[mid];
            if before(&leaf[leaf.len() - 1]) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let at = self
            .leaves
            .get(lo)
            .map_or(0, |leaf| leaf.partition_point(&mut before));
        Cursor { leaf: lo, at }
    }

    /// The entries from `from` on, in order, a leaf's run at a time.
    pub fn runs_from(&self, from: Cursor) -> impl Iterator<Item = &[T]> + '_ {
        (from.leaf..self.leaves.len()).map(move |l| {
            let skip = if l == from.leaf { from.at } else { 0 };
            &self.leaves[l][skip..]
        })
    }

    /// Every entry, in order.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        self.leaves.iter().flat_map(|leaf| leaf.iter().copied())
    }

    /// Number of entries from `from` up to `to`: O(leaves between).
    pub fn count_between(&self, from: Cursor, to: Cursor) -> usize {
        match from.leaf.cmp(&to.leaf) {
            std::cmp::Ordering::Greater => 0,
            std::cmp::Ordering::Equal => to.at.saturating_sub(from.at),
            std::cmp::Ordering::Less => {
                let whole: usize = (from.leaf + 1..to.leaf).map(|l| self.leaves[l].len()).sum();
                self.leaves[from.leaf].len() - from.at + whole + to.at
            }
        }
    }

    /// Inserts `value` at its lower bound under `before` (behind every
    /// entry `before` holds for).
    pub fn insert(&mut self, value: T, before: impl FnMut(&T) -> bool) {
        let Cursor { mut leaf, mut at } = self.lower_bound(before);
        if self.leaves.is_empty() {
            return self.leaves.push(Arc::from([value]));
        }
        if leaf == self.leaves.len() {
            leaf -= 1;
            at = self.leaves[leaf].len();
        }
        let old = &self.leaves[leaf];
        let parts = [&old[..at], std::slice::from_ref(&value), &old[at..]];
        if old.len() < 2 * self.leaf_size {
            *self.leaves.leaf_mut(leaf) = concat(&parts);
        } else {
            let grown = parts.concat();
            let (left, right) = grown.split_at(grown.len() / 2);
            *self.leaves.leaf_mut(leaf) = Arc::from(left);
            self.leaves.insert(leaf + 1, Arc::from(right));
        }
    }

    /// Removes the entry equal to `value` at its lower bound under
    /// `before`. Returns whether there was one.
    pub fn remove(&mut self, value: &T, before: impl FnMut(&T) -> bool) -> bool
    where
        T: PartialEq,
    {
        let Cursor { leaf, at } = self.lower_bound(before);
        let Some(old) = self.leaves.get(leaf) else {
            return false;
        };
        if old[at] != *value {
            return false;
        }
        if old.len() == 1 {
            self.leaves.remove(leaf);
        } else {
            *self.leaves.leaf_mut(leaf) = concat(&[&old[..at], &old[at + 1..]]);
        }
        true
    }

    /// Number of leaves physically shared (same allocation, same index)
    /// with `other`.
    pub fn shared_leaves_with(&self, other: &CowSorted<T>) -> usize {
        self.leaves.shared_leaves_with(&other.leaves)
    }
}

/// A leaf holding `parts` end to end: one allocation, one copy a part —
/// every posting insert and removal builds one, and building a `Vec`
/// first and copying it into an `Arc` took twice as long (≈200 against
/// ≈110 ns for 300 twelve-byte entries, x86-64).
fn concat<T: Copy>(parts: &[&[T]]) -> Arc<[T]> {
    let len = parts.iter().map(|part| part.len()).sum();
    let mut leaf = Arc::<[T]>::new_uninit_slice(len);
    let slots = Arc::get_mut(&mut leaf).expect("a new leaf is unshared");
    let mut at = 0;
    for part in parts {
        slots[at..at + part.len()].write_copy_of_slice(part);
        at += part.len();
    }
    assert_eq!(at, len);
    // SAFETY: the parts fill the `len` slots end to end (checked above).
    unsafe { leaf.assume_init() }
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
    fn growing_fills_the_last_page_then_appends_whole_pages() {
        let mut v: CowVec<u16> = CowVec::new(4);
        v.push(1);
        let w = v.clone();
        v.grow_to(11, 7);
        assert_eq!(
            v.iter().copied().collect::<Vec<_>>(),
            [1, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7]
        );
        assert_eq!(
            (v.num_pages(), w.len()),
            (3, 1),
            "the clone never sees the run"
        );
        v.grow_to(5, 0); // never shrinks
        assert_eq!(v.len(), 11);
        assert_eq!(filled(8, 0, 0u8).num_pages(), 0);
    }

    #[test]
    fn a_leaf_removed_mid_order_keeps_every_other_leaf_shared() {
        let base = dir(3 * FANOUT + 4);
        let mut d = base.clone();
        assert_eq!(d.remove(FANOUT + 1)[0], FANOUT + 1);
        let mut expect: Vec<usize> = (0..base.len()).collect();
        expect.remove(FANOUT + 1);
        assert_eq!(d.iter().map(|l| l[0]).collect::<Vec<_>>(), expect);
        assert_eq!(d.shared_chunks_with(&base), 1);
        d.remove(d.len() - 1);
        d.remove(0);
        assert_eq!(d.len(), base.len() - 3);
        let built = CowSorted::from_sorted(1, &(0..FANOUT + 2).collect::<Vec<_>>());
        assert_eq!(built.leaves.len(), FANOUT + 2);
        assert_eq!(built.leaves.owned_chunks(), (2, 2));
    }

    /// `CowSorted` under an insert/remove mix equals a sorted `Vec`, and
    /// its bounds and counts agree with the `Vec`'s.
    #[test]
    fn a_sorted_sequence_tracks_a_sorted_vec() {
        let mut want: Vec<u32> = (0..40).map(|i| i * 3).collect();
        let mut s = CowSorted::from_sorted(4, &want);
        let base = s.clone();
        let mut x = 7u32;
        for step in 0..600 {
            x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345) % 200;
            let present = want.binary_search(&x);
            if step % 3 == 0 {
                assert_eq!(s.remove(&x, |&e| e < x), present.is_ok(), "remove {x}");
                if let Ok(i) = present {
                    want.remove(i);
                }
            } else {
                s.insert(x, |&e| e < x);
                want.insert(want.partition_point(|&e| e < x), x);
            }
            assert_eq!(s.iter().count(), want.len());
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), want);
        for k in [0, 1, 50, 120, 199, 500] {
            let (lo, hi) = (s.lower_bound(|&e| e < k), s.lower_bound(|&e| e < k + 40));
            let from = want.partition_point(|&e| e < k);
            let to = want.partition_point(|&e| e < k + 40);
            assert_eq!(s.runs_from(lo).collect::<Vec<_>>().concat(), want[from..]);
            assert_eq!(s.count_between(lo, hi), to - from, "[{k}, {})", k + 40);
            assert_eq!(s.count_between(hi, lo), 0);
        }
        // Leaves split and merge away: none grows past twice its size.
        assert!(s.leaves.iter().all(|l| !l.is_empty() && l.len() <= 8));
        assert_eq!(base.iter().count(), 40, "the clone never sees a write");
    }

    #[test]
    fn a_sorted_write_copies_one_leaf() {
        let base = CowSorted::from_sorted(4, &(0..64u32).collect::<Vec<_>>());
        let mut s = base.clone();
        assert_eq!(s.shared_leaves_with(&base), 16);
        s.insert(21, |&e| e < 21); // into leaf 5
        assert_eq!(s.shared_leaves_with(&base), 15);
        assert!(s.remove(&40, |&e| e < 40));
        assert_eq!(s.shared_leaves_with(&base), 14);
        assert!(!s.remove(&999, |&e| e < 999));
        assert!(CowSorted::<u8>::new(4)
            .runs_from(Cursor { leaf: 0, at: 0 })
            .next()
            .is_none());
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
