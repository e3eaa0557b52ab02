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
//! map, both directions of the [`crate::PageMap`], the level-summary
//! column, the attribute table, the interners' values, spans and lookup
//! tables); a writer that fills many values of
//! one page privatises it once through [`CowVec::page_mut`].
//! [`CowSorted`] is a sorted sequence on it, its leaves `Arc<[T]>` runs
//! of variable length (the indexes' posting lists); an insert or a
//! removal returns the [`Cursor`] it wrote at, so the caller can look
//! at the neighbours without a second search. The document's base
//! table puts its own page type (one allocation per logical page,
//! `mbxq-storage`'s `Page`) in a `CowDir` directly, and so does the
//! string table its byte pages. Every per-version table of a document
//! is one of these three, so a version's clone, its commit and its drop
//! cost the chunks and leaves it shares or writes, whatever the
//! document's history.
//!
//! A version of a table is thus a list of **blocks** (directory, chunks,
//! leaves), and [`Blocks`] is the one walker over them. Two versions
//! share a block exactly when they hold the same address, so
//! [`unshared`] is every sharing diagnostic, and a sum of block sizes is
//! a table's heap.

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
}

impl<L: ?Sized> Index<usize> for CowDir<L> {
    type Output = L;

    #[inline]
    fn index(&self, i: usize) -> &L {
        assert!(i < self.len, "leaf {i} out of bounds (len {})", self.len);
        self.leaf(i)
    }
}

/// Where a [`Block`] sits in its [`CowDir`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// The array of chunk pointers.
    Directory,
    /// A chunk of up to [`FANOUT`] leaf pointers.
    Chunk,
    /// A leaf: a page, a page of values, or a run of a sorted sequence.
    Leaf,
}

/// One allocation of a copy-on-write table, as the block walker
/// ([`Blocks`]) yields it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    /// Directory, chunk or leaf.
    pub level: Level,
    /// The chunk's or the leaf's index (0 for the directory).
    pub index: usize,
    /// The allocation's address: two versions share the block exactly
    /// when they hold the same address.
    pub addr: usize,
    /// Bytes of the allocation, its two reference counts included.
    pub bytes: usize,
    /// Holders of the block (its strong count): clones of a directory,
    /// directories of a chunk, chunks of a leaf.
    pub owners: usize,
}

/// A table made of copy-on-write blocks: the one walker that accounting
/// and sharing diagnostics read (module docs).
pub trait Blocks {
    /// Visits every block: the directory, then each chunk followed by
    /// its leaves, in index order.
    fn blocks(&self, visit: &mut dyn FnMut(Block));
}

impl<L: ?Sized> Blocks for CowDir<L> {
    fn blocks(&self, visit: &mut dyn FnMut(Block)) {
        visit(block(Level::Directory, 0, &self.chunks));
        for (c, chunk) in self.chunks.iter().enumerate() {
            visit(block(Level::Chunk, c, chunk));
            for (i, leaf) in chunk.iter().enumerate() {
                visit(block(Level::Leaf, c * FANOUT + i, leaf));
            }
        }
    }
}

/// The block `arc` points at. Its allocation is `Arc`'s: the strong and
/// weak counts, then the value.
fn block<T: ?Sized>(level: Level, index: usize, arc: &Arc<T>) -> Block {
    let counts = std::alloc::Layout::new::<[usize; 2]>();
    let (layout, _) = counts
        .extend(std::alloc::Layout::for_value(&**arc))
        .expect("the layout of an allocated value");
    Block {
        level,
        index,
        addr: Arc::as_ptr(arc).cast::<u8>() as usize,
        bytes: layout.pad_to_align().size(),
        owners: Arc::strong_count(arc),
    }
}

/// The blocks of `new` that `old` does not hold, compared by address:
/// what `new` allocated or privatised since the two were one version.
pub fn unshared(new: &dyn Blocks, old: &dyn Blocks) -> Vec<Block> {
    let mut held = std::collections::HashSet::new();
    old.blocks(&mut |b| {
        held.insert(b.addr);
    });
    let mut fresh = Vec::new();
    new.blocks(&mut |b| {
        if !held.contains(&b.addr) {
            fresh.push(b);
        }
    });
    fresh
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

    /// Inserts `value` at index `at`, shifting the values behind it one
    /// place on: every page from `at`'s on is written (privatised on
    /// first touch), O(len − at).
    ///
    /// # Panics
    /// Panics if `at > len`.
    pub fn insert(&mut self, at: usize, value: T) {
        assert!(at <= self.len, "insert at {at} past the end ({})", self.len);
        self.push(value.clone());
        // Each page rotates its tail one place on, taking the value the
        // page before pushed out; the last page's freshly pushed slot
        // falls out at the end.
        let mut carry = value;
        for p in at >> self.shift..self.pages.len() {
            let from = if p == at >> self.shift {
                at & self.mask
            } else {
                0
            };
            let values = &mut self.page_mut(p)[from..];
            values.rotate_right(1);
            std::mem::swap(&mut values[0], &mut carry);
        }
    }

    /// Values per page.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// The values of page `p`, writable: the page (and its chunk) is
    /// privatised once, however many of its values the caller then
    /// writes, where [`IndexMut`] privatises per value.
    ///
    /// # Panics
    /// Panics if page `p` does not exist.
    pub fn page_mut(&mut self, p: usize) -> &mut [T] {
        assert!(p < self.pages.len(), "page {p} out of bounds");
        let end = (self.len - (p << self.shift)).min(self.page_size);
        &mut Arc::make_mut(self.pages.leaf_mut(p))[..end]
    }

    /// The values of page `p` (up to the column's end).
    fn page(&self, p: usize) -> &[T] {
        let end = (self.len - (p << self.shift)).min(self.page_size);
        &self.pages[p][..end]
    }

    /// Index of the first value at or after `from` that `hit` holds for,
    /// scanning a page's slice a block of values at a time (`hit` must be
    /// a plain test, since it may be asked twice about a value).
    pub fn position_from(&self, from: usize, mut hit: impl FnMut(&T) -> bool) -> Option<usize> {
        let mut skip = from & self.mask;
        for p in from >> self.shift..self.pages.len() {
            if let Some(i) = first_hit(self.page(p).get(skip..)?, &mut hit) {
                return Some((p << self.shift) + skip + i);
            }
            skip = 0;
        }
        None
    }

    /// Index of the last value before `end` (at most `len`) that `hit`
    /// holds for, scanning a page's slice at a time like
    /// [`CowVec::position_from`].
    pub fn rposition_before(&self, end: usize, mut hit: impl FnMut(&T) -> bool) -> Option<usize> {
        let end = end.min(self.len);
        let mut take = end - (end.checked_sub(1)? & !self.mask);
        for p in (0..=(end - 1) >> self.shift).rev() {
            if let Some(i) = last_hit(&self.page(p)[..take], &mut hit) {
                return Some((p << self.shift) + i);
            }
            take = self.page_size;
        }
        None
    }

    /// Iterates the values in index order.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.pages.iter().flatten().take(self.len)
    }
}

impl<T> Blocks for CowVec<T> {
    fn blocks(&self, visit: &mut dyn FnMut(Block)) {
        self.pages.blocks(visit);
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

/// Values a scan tests as one block: the test of a block has no early
/// exit, so for a plain comparison it compiles to a few vector
/// compares, and only a block that holds a hit is searched value by
/// value.
const SCAN_BLOCK: usize = 16;

/// Index of the first of `values` that `hit` holds for, a block at a
/// time.
fn first_hit<T>(values: &[T], hit: &mut impl FnMut(&T) -> bool) -> Option<usize> {
    let blocks = values.chunks_exact(SCAN_BLOCK);
    let tail = blocks.remainder();
    for (b, block) in blocks.enumerate() {
        if block.iter().fold(false, |any, v| any | hit(v)) {
            return block.iter().position(hit).map(|i| b * SCAN_BLOCK + i);
        }
    }
    let at = values.len() - tail.len();
    tail.iter().position(hit).map(|i| at + i)
}

/// Index of the last of `values` that `hit` holds for, a block at a
/// time from the end.
fn last_hit<T>(values: &[T], hit: &mut impl FnMut(&T) -> bool) -> Option<usize> {
    let blocks = values.rchunks_exact(SCAN_BLOCK);
    let head = blocks.remainder();
    for (b, block) in blocks.enumerate() {
        if block.iter().fold(false, |any, v| any | hit(v)) {
            let start = values.len() - (b + 1) * SCAN_BLOCK;
            return block.iter().rposition(hit).map(|i| start + i);
        }
    }
    head.iter().rposition(hit)
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

    /// The entry at `at`, or `None` at the end.
    pub fn get(&self, at: Cursor) -> Option<&T> {
        let leaf = self.leaves.get(at.leaf)?;
        match leaf.get(at.at) {
            Some(entry) => Some(entry),
            None => self.leaves.get(at.leaf + 1).map(|next| &next[0]),
        }
    }

    /// The entry before `at`, or `None` at the start.
    pub fn prev(&self, at: Cursor) -> Option<&T> {
        match at.at.checked_sub(1) {
            Some(i) => self.leaves.get(at.leaf).map(|leaf| &leaf[i]),
            None => self
                .leaves
                .get(at.leaf.checked_sub(1)?)
                .map(|leaf| &leaf[leaf.len() - 1]),
        }
    }

    /// Inserts `value` at its lower bound under `before` (behind every
    /// entry `before` holds for). Returns where it now sits.
    pub fn insert(&mut self, value: T, before: impl FnMut(&T) -> bool) -> Cursor {
        let Cursor { mut leaf, mut at } = self.lower_bound(before);
        if self.leaves.is_empty() {
            self.leaves.push(Arc::from([value]));
            return Cursor { leaf: 0, at: 0 };
        }
        if leaf == self.leaves.len() {
            leaf -= 1;
            at = self.leaves[leaf].len();
        }
        let old = &self.leaves[leaf];
        let parts = [&old[..at], std::slice::from_ref(&value), &old[at..]];
        if old.len() < 2 * self.leaf_size {
            *self.leaves.leaf_mut(leaf) = concat(&parts);
            return Cursor { leaf, at };
        }
        let grown = parts.concat();
        let (left, right) = grown.split_at(grown.len() / 2);
        *self.leaves.leaf_mut(leaf) = Arc::from(left);
        self.leaves.insert(leaf + 1, Arc::from(right));
        match at.checked_sub(left.len()) {
            None => Cursor { leaf, at },
            Some(at) => Cursor { leaf: leaf + 1, at },
        }
    }

    /// Removes the entry equal to `value` at its lower bound under
    /// `before`. Returns where it sat — now the position of the entry
    /// behind it — or `None` if there was none.
    pub fn remove(&mut self, value: &T, before: impl FnMut(&T) -> bool) -> Option<Cursor>
    where
        T: PartialEq,
    {
        let Cursor { leaf, at } = self.lower_bound(before);
        let old = self.leaves.get(leaf)?;
        if old[at] != *value {
            return None;
        }
        if old.len() == 1 {
            self.leaves.remove(leaf);
        } else {
            *self.leaves.leaf_mut(leaf) = concat(&[&old[..at], &old[at + 1..]]);
        }
        Some(Cursor { leaf, at })
    }

    /// Length of the run around the entry at `at`: the entries that
    /// `before` (which holds for a prefix, ending before the run) fails
    /// for and `through` (which holds for a longer prefix, ending with
    /// the run) holds for. Found inside `at`'s leaf, plus one search
    /// for each end of the run that lies outside it.
    pub fn run_len(
        &self,
        at: Cursor,
        mut before: impl FnMut(&T) -> bool,
        mut through: impl FnMut(&T) -> bool,
    ) -> usize {
        let leaf = &self.leaves[at.leaf];
        let start = leaf[..at.at].partition_point(&mut before);
        let end = at.at + leaf[at.at..].partition_point(&mut through);
        let mut run = end - start;
        if start == 0 && self.prev(at_start(at.leaf)).is_some_and(|e| !before(e)) {
            let from = self.lower_bound(&mut before);
            run += self.count_between(from, at_start(at.leaf));
        }
        if end == leaf.len() && self.get(at_start(at.leaf + 1)).is_some_and(&mut through) {
            let to = self.lower_bound(&mut through);
            run += self.count_between(at_start(at.leaf + 1), to);
        }
        run
    }
}

impl<T> Blocks for CowSorted<T> {
    fn blocks(&self, visit: &mut dyn FnMut(Block)) {
        self.leaves.blocks(visit);
    }
}

/// The first position of leaf `leaf`.
fn at_start(leaf: usize) -> Cursor {
    Cursor { leaf, at: 0 }
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

    /// Pages backing a column: its leaf blocks.
    fn pages<T>(v: &CowVec<T>) -> usize {
        let mut leaves = 0;
        v.blocks(&mut |b| leaves += usize::from(b.level == Level::Leaf));
        leaves
    }

    /// Blocks of `a` at `level` that `b` shares.
    fn shared(a: &dyn Blocks, b: &dyn Blocks, level: Level) -> usize {
        let mut total = 0;
        a.blocks(&mut |blk| total += usize::from(blk.level == level));
        total
            - unshared(a, b)
                .iter()
                .filter(|blk| blk.level == level)
                .count()
    }

    /// `(owned, total)` chunks: `owned` counts those no other clone
    /// holds, which are what dropping this version releases (none while
    /// another clone shares the whole directory).
    fn chunks_held_alone(a: &dyn Blocks) -> (usize, usize) {
        let (mut directory, mut owned, mut total) = (0, 0, 0);
        a.blocks(&mut |b| match b.level {
            Level::Directory => directory = b.owners,
            Level::Chunk => {
                total += 1;
                owned += usize::from(directory == 1 && b.owners == 1);
            }
            Level::Leaf => {}
        });
        (owned, total)
    }

    /// Leaves of `a` not shared with `b`, by index.
    fn private_leaves(a: &CowDir<[usize]>, b: &CowDir<[usize]>) -> Vec<usize> {
        (0..a.len())
            .filter(|&i| b.get(i).is_none_or(|l| !std::ptr::eq(l, &a[i])))
            .collect()
    }

    /// The walker yields the directory, then each chunk followed by its
    /// leaves, each with the bytes of its allocation: two reference
    /// counts and the value.
    #[test]
    fn the_walker_yields_every_block_with_its_allocation() {
        let d = dir(FANOUT + 1);
        let mut seen = Vec::new();
        d.blocks(&mut |b| seen.push((b.level, b.index, b.bytes)));
        let counts = 2 * std::mem::size_of::<usize>();
        let pointer = std::mem::size_of::<Arc<[usize]>>(); // a fat pointer
        let leaf = |i| (Level::Leaf, i, counts + std::mem::size_of::<usize>());
        let mut want = vec![
            (Level::Directory, 0, counts + 2 * pointer),
            (Level::Chunk, 0, counts + FANOUT * pointer),
        ];
        want.extend((0..FANOUT).map(leaf));
        want.extend([(Level::Chunk, 1, counts + pointer), leaf(FANOUT)]);
        assert_eq!(seen, want);
        // A column and a sorted sequence are their directory's blocks;
        // an allocation is padded to the counts' alignment.
        let padded = |n: usize| (counts + n).next_multiple_of(std::mem::align_of::<usize>());
        let v = filled(4, 9, 0u8);
        let mut leaves = Vec::new();
        v.blocks(&mut |b| {
            if b.level == Level::Leaf {
                leaves.push(b.bytes)
            }
        });
        assert_eq!(leaves, [padded(4); 3]);
        let sorted = CowSorted::from_sorted(2, &[1u16, 2, 3]);
        let mut runs = Vec::new();
        sorted.blocks(&mut |b| {
            if b.level == Level::Leaf {
                runs.push(b.bytes)
            }
        });
        assert_eq!(runs, [padded(4), padded(2)]);
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
        assert_eq!(pages(&v), 3);
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
        assert_eq!(shared(&a, &b, Level::Leaf), 3);
        a[5] = 99; // page 1 privatized
        assert_eq!(shared(&a, &b, Level::Leaf), 2);
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
        assert_eq!(shared(&a, &b, Level::Leaf), 1);
    }

    #[test]
    fn push_and_partial_last_page() {
        let mut v: CowVec<u16> = CowVec::new(4);
        for i in 0..6 {
            v.push(i);
        }
        assert_eq!(v.len(), 6);
        assert_eq!(pages(&v), 2);
        assert_eq!(v[5], 5);
        let w = v.clone();
        v.push(6); // grows the shared partial page: must privatize it
        assert_eq!(w.len(), 6);
        assert_eq!(v[6], 6);
        assert_eq!(shared(&v, &w, Level::Leaf), 1);
    }

    #[test]
    fn an_insert_shifts_the_values_behind_it_and_shares_the_pages_before() {
        let mut v = CowVec::new(4);
        for i in 0..10u32 {
            v.push(i);
        }
        let base = v.clone();
        v.insert(5, 99);
        assert_eq!(
            v.iter().copied().collect::<Vec<_>>(),
            [0, 1, 2, 3, 4, 99, 5, 6, 7, 8, 9]
        );
        assert_eq!(shared(&v, &base, Level::Leaf), 1, "page 0 stays shared");
        v.insert(11, 7); // at the end, opening a page
        v.insert(0, 5);
        assert_eq!(v.len(), 13);
        assert_eq!((v[0], v[1], v[6], v[12]), (5, 0, 99, 7));
        assert_eq!(base.iter().count(), 10, "the clone never sees an insert");
    }

    #[test]
    fn scans_cross_pages_and_stop_at_the_bounds() {
        let mut v = CowVec::new(4);
        for x in [5u16, 9, 9, 9, 9, 9, 2, 9, 9, 1] {
            v.push(x);
        }
        let low = |x: &u16| *x < 5;
        assert_eq!(v.position_from(0, low), Some(6));
        assert_eq!(v.position_from(7, low), Some(9));
        assert_eq!(v.position_from(10, low), None);
        assert_eq!(v.rposition_before(10, low), Some(9));
        assert_eq!(v.rposition_before(9, low), Some(6));
        assert_eq!(v.rposition_before(6, low), None);
        assert_eq!(v.rposition_before(99, |x| *x == 5), Some(0));
        assert_eq!(v.rposition_before(0, |_| true), None);
    }

    /// The block-at-a-time scans find what a value-by-value scan finds,
    /// for every start and end, across page and block boundaries.
    #[test]
    fn block_scans_equal_value_by_value_scans() {
        let mut v = CowVec::new(64);
        let mut x = 5u32;
        for _ in 0..300 {
            x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            v.push((x >> 16) as u16 % 50);
        }
        let all: Vec<u16> = v.iter().copied().collect();
        for below in [0, 1, 3, 20] {
            let hit = |l: &u16| *l < below;
            for at in 0..=all.len() + 1 {
                let first = all.get(at..).and_then(|t| t.iter().position(hit));
                assert_eq!(
                    v.position_from(at, hit),
                    first.map(|i| at + i),
                    "{below} from {at}"
                );
                let last = all[..at.min(all.len())].iter().rposition(hit);
                assert_eq!(v.rposition_before(at, hit), last, "{below} before {at}");
            }
        }
    }

    #[test]
    fn page_mut_privatises_its_page_once() {
        let mut v = filled(4, 10, 0u8);
        let base = v.clone();
        let page = v.page_mut(1);
        page.copy_from_slice(&[1, 2, 3, 4]);
        assert_eq!(shared(&v, &base, Level::Leaf), 2);
        assert_eq!(v.page_mut(2).len(), 2, "the last page ends at the length");
        assert_eq!(
            v.iter().copied().collect::<Vec<_>>(),
            [0, 0, 0, 0, 1, 2, 3, 4, 0, 0]
        );
        assert_eq!(base[5], 0);
    }

    /// The cursor a write returns names the entry it wrote, or the one
    /// behind the entry it removed, across leaf splits and drops; the
    /// run around it is counted exactly wherever its ends lie.
    #[test]
    fn writes_return_their_cursor_and_runs_count_around_it() {
        // Keys `x / 10`: runs of ten, in leaves of three to six.
        let mut s = CowSorted::from_sorted(3, &(0..60u32).collect::<Vec<_>>());
        let key = |x: u32| x / 10;
        let run = |s: &CowSorted<u32>, at, k| s.run_len(at, |e| key(*e) < k, |e| key(*e) <= k);
        for x in [0, 17, 35, 59, 25, 26, 27, 28] {
            let at = s.insert(x, |&e| e < x);
            assert_eq!(s.get(at), Some(&x));
            let want = s.iter().filter(|&e| key(e) == key(x)).count();
            assert_eq!(run(&s, at, key(x)), want, "run of {x}");
        }
        for x in [0, 0, 17, 59, 20] {
            let at = s.remove(&x, |&e| e < x).unwrap();
            let behind = s.iter().find(|&e| e >= x);
            assert_eq!(s.get(at).copied(), behind, "behind {x}");
            let ahead = s.iter().filter(|&e| e < x).last();
            assert_eq!(s.prev(at).copied(), ahead, "ahead of {x}");
        }
        // A run of one, and a removal that empties a one-entry leaf.
        let mut t = CowSorted::from_sorted(1, &[1u32, 2, 3]);
        let at = t.remove(&2, |&e| e < 2).unwrap();
        assert_eq!((t.prev(at), t.get(at)), (Some(&1), Some(&3)));
        let at = t.insert(7, |&e| e < 7);
        assert_eq!(t.run_len(at, |&e| e < 7, |&e| e <= 7), 1);
        assert_eq!((t.prev(at), t.get(at)), (Some(&3), Some(&7)));
    }

    #[test]
    fn a_clone_shares_every_chunk_and_copies_no_leaf() {
        let a = dir(3 * FANOUT + 5);
        let b = a.clone();
        assert_eq!(shared(&a, &b, Level::Chunk), 4);
        assert_eq!(shared(&a, &b, Level::Leaf), a.len());
        assert_eq!(chunks_held_alone(&a), (0, 4));
        drop(b);
        assert_eq!(
            chunks_held_alone(&a),
            (4, 4),
            "the drop released every chunk"
        );
    }

    #[test]
    fn one_write_privatises_exactly_one_chunk_and_one_leaf() {
        let base = dir(4 * FANOUT);
        let mut d = base.clone();
        let i = FANOUT + 7;
        Arc::make_mut(d.leaf_mut(i))[0] = 1000;
        assert_eq!(shared(&d, &base, Level::Chunk), 3);
        assert_eq!(private_leaves(&d, &base), [i]);
        assert_eq!(chunks_held_alone(&d), (1, 4));
        // Every pointer the privatised chunk copied still shares its leaf.
        let chunk = &d.chunks[1];
        for (j, leaf) in chunk.iter().enumerate() {
            let owners = if j == 7 { 1 } else { 2 };
            assert_eq!(Arc::strong_count(leaf), owners, "leaf {j}");
        }
        assert_eq!((base[i][0], d[i][0]), (i, 1000));
        // A second write to the same chunk copies nothing more.
        Arc::make_mut(d.leaf_mut(FANOUT + 8))[0] = 2000;
        assert_eq!(shared(&d, &base, Level::Chunk), 3);
        assert_eq!(private_leaves(&d, &base), [i, i + 1]);
    }

    #[test]
    fn a_push_onto_a_shared_partial_chunk_privatises_only_that_chunk() {
        let base = dir(2 * FANOUT + 3);
        let mut d = base.clone();
        d.push(Arc::from([99]));
        assert_eq!(d.len(), 2 * FANOUT + 4);
        assert_eq!(shared(&d, &base, Level::Chunk), 2);
        assert_eq!(chunks_held_alone(&d), (1, 3));
        assert_eq!(private_leaves(&d, &base), [2 * FANOUT + 3]);
        assert_eq!(base.len(), 2 * FANOUT + 3, "the base never sees the push");
        assert!(base.get(2 * FANOUT + 3).is_none());
        // A push that opens a chunk privatises none.
        let mut e = dir(2 * FANOUT);
        let f = e.clone();
        e.push(Arc::from([7]));
        assert_eq!(shared(&e, &f, Level::Chunk), 2);
        assert_eq!(chunks_held_alone(&e), (1, 3));
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
        assert_eq!((pages(&v), w.len()), (3, 1), "the clone never sees the run");
        v.grow_to(5, 0); // never shrinks
        assert_eq!(v.len(), 11);
        assert_eq!(pages(&filled(8, 0, 0u8)), 0);
    }

    #[test]
    fn a_leaf_removed_mid_order_keeps_every_other_leaf_shared() {
        let base = dir(3 * FANOUT + 4);
        let mut d = base.clone();
        assert_eq!(d.remove(FANOUT + 1)[0], FANOUT + 1);
        let mut expect: Vec<usize> = (0..base.len()).collect();
        expect.remove(FANOUT + 1);
        assert_eq!(d.iter().map(|l| l[0]).collect::<Vec<_>>(), expect);
        assert_eq!(shared(&d, &base, Level::Chunk), 1);
        d.remove(d.len() - 1);
        d.remove(0);
        assert_eq!(d.len(), base.len() - 3);
        let built = CowSorted::from_sorted(1, &(0..FANOUT + 2).collect::<Vec<_>>());
        assert_eq!(built.leaves.len(), FANOUT + 2);
        assert_eq!(chunks_held_alone(&built), (2, 2));
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
                assert_eq!(
                    s.remove(&x, |&e| e < x).is_some(),
                    present.is_ok(),
                    "remove {x}"
                );
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
        assert_eq!(shared(&s, &base, Level::Leaf), 16);
        s.insert(21, |&e| e < 21); // into leaf 5
        assert_eq!(shared(&s, &base, Level::Leaf), 15);
        assert!(s.remove(&40, |&e| e < 40).is_some());
        assert_eq!(shared(&s, &base, Level::Leaf), 14);
        assert!(s.remove(&999, |&e| e < 999).is_none());
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
        assert_eq!(shared(&d, &base, Level::Chunk), 1);
        assert_eq!(chunks_held_alone(&d), (3, 4));
        assert_eq!(chunks_held_alone(&base), (3, 4));
        // Splicing at either end works too.
        d.insert(0, Arc::from([7]));
        d.insert(d.len(), Arc::from([8]));
        assert_eq!(
            (d[0][0], d[d.len() - 1][0], d.len()),
            (7, 8, base.len() + 3)
        );
    }
}
