//! Page-granular copy-on-write columns.
//!
//! MonetDB isolates a write transaction by giving it "a temporary view
//! backed by a copy-on-write memory-map on the base table" (§3.2): all
//! pages start out shared with the base table, and the OS transparently
//! replaces each page the transaction writes with a private copy, so the
//! base table is never altered before commit. [`CowVec`] is the explicit
//! in-memory equivalent for an append-mostly column: a vector of
//! reference-counted pages. Cloning the column clones only the page
//! *pointers* (O(#pages) refcount bumps, no tuple data); the first write
//! to a page through a given clone privatizes just that page
//! ([`Arc::make_mut`]). Two clones therefore share every page neither of
//! them has written.
//!
//! The document's base table has its own page type (one allocation per
//! logical page, `mbxq-storage`'s `Page`); `CowVec` backs the side
//! tables that are not divided into logical pages — the `node→pos` map
//! and the attribute table.

use std::ops::{Index, IndexMut};
use std::sync::Arc;

/// A column of `T` values stored as shared, individually copy-on-write
/// pages.
///
/// Every page except the last holds exactly `page_size` values; the
/// column grows by [`CowVec::push`]. Reads go through [`Index`] (or the
/// bounds-checked [`CowVec::get`]); writes go through [`IndexMut`], which
/// privatizes the containing page on first touch if it is shared with
/// another clone.
#[derive(Debug, Clone)]
pub struct CowVec<T> {
    page_size: usize,
    shift: u32,
    mask: usize,
    len: usize,
    pages: Vec<Arc<Vec<T>>>,
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
            pages: Vec::new(),
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
        if i >= self.len {
            return None;
        }
        Some(&self.pages[i >> self.shift][i & self.mask])
    }

    /// Appends one value, growing the (possibly short) last page.
    pub fn push(&mut self, value: T) {
        let slot = self.len & self.mask;
        if slot == 0 {
            let mut page = Vec::with_capacity(self.page_size);
            page.push(value);
            self.pages.push(Arc::new(page));
        } else {
            Arc::make_mut(self.pages.last_mut().expect("partial page exists")).push(value);
        }
        self.len += 1;
    }

    /// Iterates the values in index order.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.pages.iter().flat_map(|p| p.iter())
    }

    /// Number of pages physically shared (same allocation) with `other`.
    pub fn shared_pages_with(&self, other: &CowVec<T>) -> usize {
        self.pages
            .iter()
            .zip(other.pages.iter())
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }
}

impl<T: Clone> Index<usize> for CowVec<T> {
    type Output = T;

    #[inline]
    fn index(&self, i: usize) -> &T {
        debug_assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        &self.pages[i >> self.shift][i & self.mask]
    }
}

impl<T: Clone> IndexMut<usize> for CowVec<T> {
    /// Privatizes the containing page on first write through this clone.
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut T {
        debug_assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        &mut Arc::make_mut(&mut self.pages[i >> self.shift])[i & self.mask]
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
}
