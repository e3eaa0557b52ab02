//! One logical page of the updateable base table.
//!
//! A [`Page`] owns every column of the `pos/size/level/node` table for
//! exactly one logical page, as a struct of arrays in **one allocation**
//! — the reference counts, a two-word header and the six columns are a
//! single `Arc<[u32]>`-shaped block:
//!
//! ```text
//! [min_level, slots | size × n | name × n | value × n | node × n | level × n (u16) | kind × n (u8)]
//! ```
//!
//! 19 bytes per slot. The columns are as narrow as a shard can address:
//! `size` and `node` are `u32` (a shard holds at most 2³²−2 slots and
//! node ids; `u32::MAX` is the "no node"/"no position" sentinel),
//! `level` is `u16` with `u16::MAX` marking an **unused slot** — the
//! paper's `level = NULL` — and `kind` is one byte that reads
//! [`Kind::UNUSED`] on unused slots,
//! so a batch kernel comparing kind bytes needs no separate liveness
//! column. The header carries the page's **level summary**: the minimum
//! of the `level` column, which (NULL being the largest value) is the
//! minimum level of the used slots, or NULL for a page without any.
//!
//! Because unused slots are NULL in `level`, "first slot with
//! `level <= l`" is a plain scan of the column for every real level `l`
//! — which is why real levels stop one short of the sentinel, at 65 534.

use crate::types::{Kind, StorageError};
use crate::Result;
use std::sync::Arc;

/// `level` of an unused slot (the paper's `level = NULL`).
pub(crate) const NULL_LEVEL: u16 = u16::MAX;
/// Deepest level a node can have: one below the NULL sentinel.
pub(crate) const MAX_LEVEL: u16 = NULL_LEVEL - 1;
/// `name` of non-element used slots, `value` of elements.
pub(crate) const NO_NAME: u32 = u32::MAX;
/// `node` of unused slots.
pub(crate) const NO_NODE: u32 = u32::MAX;
/// `node→pos` entry of a deleted (or never placed) node id.
pub(crate) const NO_POS: u32 = u32::MAX;
/// Most slots, and most node ids, one shard can hold: positions and ids
/// are `u32` with `u32::MAX` reserved for [`NO_POS`]/[`NO_NODE`].
pub(crate) const MAX_ADDRESSABLE: u64 = u32::MAX as u64 - 1;

/// Checks that a shard growing to `count` slots or node ids stays
/// addressable.
pub(crate) fn check_addressable(what: &'static str, count: u64) -> Result<()> {
    if count > MAX_ADDRESSABLE {
        return Err(StorageError::TooLarge { what, count });
    }
    Ok(())
}

/// Narrows a slot position, node id or subtree size to its column width.
pub(crate) fn narrow(what: &'static str, value: u64) -> Result<u32> {
    match u32::try_from(value) {
        Ok(v) if v != u32::MAX => Ok(v),
        _ => Err(StorageError::TooLarge { what, count: value }),
    }
}

/// The `level` column value of a node with `level` open ancestors, or
/// the depth error when that is beyond [`MAX_LEVEL`].
pub(crate) fn checked_level(level: usize) -> Result<u16> {
    match u16::try_from(level) {
        Ok(l) if l <= MAX_LEVEL => Ok(l),
        _ => Err(StorageError::TooDeep {
            depth: level as u64 + 1,
        }),
    }
}

/// Staged tuple data, used while shredding and while preparing inserts.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tuple {
    pub size: u32,
    pub level: u16,
    pub kind: Kind,
    pub name: u32,
    pub value: u32,
    pub node: u32,
}

/// Header words in front of the columns: `[min_level, slots]`; the
/// summary is the first `u16` lane of its word.
const HEADER: usize = 2;

/// Integer lanes narrower than a word that a run of words can be viewed
/// as (private, so no other type can implement it).
trait Lane: Copy {}
impl Lane for u16 {}
impl Lane for u8 {}

fn lanes<T: Lane>(words: &[u32]) -> &[T] {
    let per_word = std::mem::size_of::<u32>() / std::mem::size_of::<T>();
    // SAFETY: `T` is `u16` or `u8` — every bit pattern is a value, its
    // alignment divides `u32`'s and its size divides 4 — so the bytes of
    // `words` are exactly `words.len() * per_word` valid `T`s, borrowed
    // for the same lifetime.
    unsafe { std::slice::from_raw_parts(words.as_ptr().cast(), words.len() * per_word) }
}

fn lanes_mut<T: Lane>(words: &mut [u32]) -> &mut [T] {
    let per_word = std::mem::size_of::<u32>() / std::mem::size_of::<T>();
    // SAFETY: as in `lanes`; the borrow of `words` is exclusive, and any
    // lane value written is a valid part of a `u32`.
    unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr().cast(), words.len() * per_word) }
}

/// All columns of one page, mutably and at once.
pub(crate) struct ColsMut<'a> {
    min_level: &'a mut u16,
    pub sizes: &'a mut [u32],
    pub names: &'a mut [u32],
    pub values: &'a mut [u32],
    pub nodes: &'a mut [u32],
    pub levels: &'a mut [u16],
    pub kinds: &'a mut [u8],
}

/// One logical page: header + six columns in one block (module docs).
#[repr(transparent)]
pub struct Page([u32]);

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("slots", &self.slots())
            .field("min_level", &self.min_level())
            .field("free", &self.free())
            .finish()
    }
}

impl Page {
    fn from_words(words: Arc<[u32]>) -> Arc<Page> {
        // SAFETY: `Page` is `repr(transparent)` over `[u32]`, so the two
        // pointee types have the same layout for the same length and the
        // pointer came from `Arc::into_raw` — the conversion std itself
        // uses between `Arc<str>` and `Arc<[u8]>`.
        unsafe { Arc::from_raw(Arc::into_raw(words) as *const Page) }
    }

    /// A page of `slots` unused slots (one run). `slots` is a
    /// [`crate::PageConfig`] page size: a power of two, at least 4.
    pub(crate) fn unused(slots: usize) -> Arc<Page> {
        debug_assert!(slots.is_multiple_of(4));
        let n = u32::try_from(slots).expect("the document checked it can address the page");
        let len = HEADER + 4 * slots + slots / 2 + slots / 4;
        let mut page = Page::from_words(std::iter::repeat_n(0, len).collect());
        let p = Arc::get_mut(&mut page).expect("freshly allocated");
        p.0[1] = n;
        p.clear();
        p.rebuild_runs();
        page
    }

    /// Mutable access through a shared pointer: the page is copied (one
    /// allocation, one `memcpy`) if another document version still
    /// shares it. `Arc::make_mut` for the unsized [`Page`].
    pub(crate) fn make_mut(this: &mut Arc<Page>) -> &mut Page {
        if Arc::get_mut(this).is_none() {
            *this = this.deep_clone();
        }
        Arc::get_mut(this).expect("unique: just copied or never shared")
    }

    /// A private copy of this page.
    pub(crate) fn deep_clone(&self) -> Arc<Page> {
        Page::from_words(Arc::from(&self.0))
    }

    /// Bytes of the per-page header.
    pub(crate) const fn header_bytes() -> usize {
        HEADER * std::mem::size_of::<u32>()
    }

    /// Bytes one slot occupies across the columns.
    pub(crate) const fn bytes_per_slot() -> usize {
        4 * std::mem::size_of::<u32>() + std::mem::size_of::<u16>() + std::mem::size_of::<u8>()
    }

    /// Slots on the page.
    #[inline]
    pub(crate) fn slots(&self) -> usize {
        self.0[1] as usize
    }

    /// The level summary: minimum level of the used slots,
    /// [`NULL_LEVEL`] when there are none.
    #[inline]
    pub(crate) fn min_level(&self) -> u16 {
        lanes(&self.0[..1])[0]
    }

    #[inline]
    fn col(&self, c: usize) -> &[u32] {
        let n = self.slots();
        &self.0[HEADER + c * n..HEADER + (c + 1) * n]
    }

    /// Used: descendant counts. Unused: remaining run length, this slot
    /// included.
    #[inline]
    pub(crate) fn sizes(&self) -> &[u32] {
        self.col(0)
    }

    /// Elements: `qn` ids ([`NO_NAME`] for other used slots). Unused:
    /// 1-based index within the run.
    #[inline]
    pub(crate) fn names(&self) -> &[u32] {
        self.col(1)
    }

    /// Non-elements: value-table references ([`NO_NAME`] otherwise).
    #[inline]
    pub(crate) fn values(&self) -> &[u32] {
        self.col(2)
    }

    /// Node ids ([`NO_NODE`] for unused slots).
    #[inline]
    pub(crate) fn nodes(&self) -> &[u32] {
        self.col(3)
    }

    /// Levels ([`NULL_LEVEL`] for unused slots).
    #[inline]
    pub(crate) fn levels(&self) -> &[u16] {
        let n = self.slots();
        lanes(&self.0[HEADER + 4 * n..HEADER + 4 * n + n / 2])
    }

    /// [`Kind`] bytes ([`Kind::UNUSED`] for unused slots).
    #[inline]
    pub(crate) fn kinds(&self) -> &[u8] {
        let n = self.slots();
        lanes(&self.0[HEADER + 4 * n + n / 2..])
    }

    /// Whether slot `i` holds a node.
    #[inline]
    pub(crate) fn is_used(&self, i: usize) -> bool {
        self.levels()[i] != NULL_LEVEL
    }

    /// Kind of the node in slot `i` (`None` for an unused slot).
    #[inline]
    pub(crate) fn kind(&self, i: usize) -> Option<Kind> {
        Kind::from_byte(self.kinds()[i])
    }

    /// Number of unused slots.
    pub(crate) fn free(&self) -> usize {
        self.levels().iter().filter(|&&l| l == NULL_LEVEL).count()
    }

    /// The staged form of the used slot `i`.
    pub(crate) fn read(&self, i: usize) -> Tuple {
        Tuple {
            size: self.sizes()[i],
            level: self.levels()[i],
            kind: self.kind(i).expect("read of a used slot"),
            name: self.names()[i],
            value: self.values()[i],
            node: self.nodes()[i],
        }
    }

    /// Every column, mutably.
    pub(crate) fn cols_mut(&mut self) -> ColsMut<'_> {
        let n = self.slots();
        let (header, rest) = self.0.split_at_mut(HEADER);
        let (sizes, rest) = rest.split_at_mut(n);
        let (names, rest) = rest.split_at_mut(n);
        let (values, rest) = rest.split_at_mut(n);
        let (nodes, rest) = rest.split_at_mut(n);
        let (levels, kinds) = rest.split_at_mut(n / 2);
        ColsMut {
            min_level: &mut lanes_mut(&mut header[..1])[0],
            sizes,
            names,
            values,
            nodes,
            levels: lanes_mut(levels),
            kinds: lanes_mut(kinds),
        }
    }

    /// Writes a staged tuple into slot `i`. [`Page::rebuild_runs`] must
    /// follow before the page is read again.
    pub(crate) fn write(&mut self, i: usize, t: &Tuple) {
        let c = self.cols_mut();
        c.sizes[i] = t.size;
        c.names[i] = t.name;
        c.values[i] = t.value;
        c.nodes[i] = t.node;
        c.levels[i] = t.level;
        c.kinds[i] = t.kind as u8;
    }

    /// Marks every slot unused. [`Page::rebuild_runs`] must follow.
    pub(crate) fn clear(&mut self) {
        let c = self.cols_mut();
        c.values.fill(NO_NAME);
        c.nodes.fill(NO_NODE);
        c.levels.fill(NULL_LEVEL);
        c.kinds.fill(Kind::UNUSED);
    }

    /// Marks slot `i` unused. [`Page::rebuild_runs`] must follow.
    pub(crate) fn clear_slot(&mut self, i: usize) {
        let c = self.cols_mut();
        c.values[i] = NO_NAME;
        c.nodes[i] = NO_NODE;
        c.levels[i] = NULL_LEVEL;
        c.kinds[i] = Kind::UNUSED;
    }

    /// Recomputes the page's derived state: the unused-run encodings —
    /// for each unused slot, `size` = remaining consecutive unused slots
    /// including itself, `name` = 1-based index within the run (backward
    /// skip support) — and the level summary. Runs never cross page
    /// boundaries, so page maintenance stays local to the touched page.
    pub(crate) fn rebuild_runs(&mut self) {
        let c = self.cols_mut();
        let n = c.levels.len();
        let mut i = 0;
        while i < n {
            if c.levels[i] != NULL_LEVEL {
                i += 1;
                continue;
            }
            let start = i;
            while i < n && c.levels[i] == NULL_LEVEL {
                i += 1;
            }
            for (pos, index) in (start..i).zip(1u32..) {
                c.names[pos] = index;
            }
            for (pos, remaining) in (start..i).rev().zip(1u32..) {
                c.sizes[pos] = remaining;
            }
        }
        *c.min_level = c.levels.iter().copied().min().unwrap_or(NULL_LEVEL);
    }

    /// Adds `delta` to the size of the used slot `i`; `None` when the
    /// result leaves the column's range.
    pub(crate) fn add_size(&mut self, i: usize, delta: i64) -> Option<()> {
        let c = self.cols_mut();
        let new = i64::from(c.sizes[i]).checked_add(delta)?;
        c.sizes[i] = u32::try_from(new).ok()?;
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuple(level: u16, node: u32) -> Tuple {
        Tuple {
            size: 0,
            level,
            kind: Kind::Element,
            name: 7,
            value: NO_NAME,
            node,
        }
    }

    #[test]
    fn fresh_page_is_one_unused_run() {
        let p = Page::unused(8);
        assert_eq!(p.slots(), 8);
        assert_eq!(p.free(), 8);
        assert_eq!(p.min_level(), NULL_LEVEL);
        assert_eq!(p.sizes(), [8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(p.names(), [1, 2, 3, 4, 5, 6, 7, 8]);
        assert!(p.kinds().iter().all(|&k| k == Kind::UNUSED));
        assert!(p.nodes().iter().all(|&n| n == NO_NODE));
    }

    #[test]
    fn columns_do_not_overlap() {
        let mut page = Page::unused(4);
        let p = Page::make_mut(&mut page);
        for i in 0..4 {
            p.write(
                i,
                &Tuple {
                    size: 10 + i as u32,
                    level: 20 + i as u16,
                    kind: Kind::Comment,
                    name: 30 + i as u32,
                    value: 40 + i as u32,
                    node: 50 + i as u32,
                },
            );
        }
        p.rebuild_runs();
        assert_eq!(p.sizes(), [10, 11, 12, 13]);
        assert_eq!(p.levels(), [20, 21, 22, 23]);
        assert_eq!(p.kinds(), [Kind::Comment as u8; 4]);
        assert_eq!(p.names(), [30, 31, 32, 33]);
        assert_eq!(p.values(), [40, 41, 42, 43]);
        assert_eq!(p.nodes(), [50, 51, 52, 53]);
        assert_eq!((p.slots(), p.min_level(), p.free()), (4, 20, 0));
        assert_eq!(p.read(2).node, 52);
    }

    #[test]
    fn runs_and_summary_follow_writes_and_clears() {
        let mut page = Page::unused(8);
        let p = Page::make_mut(&mut page);
        p.write(0, &tuple(3, 0));
        p.write(1, &tuple(2, 1));
        p.write(5, &tuple(4, 2));
        p.rebuild_runs();
        assert_eq!(p.min_level(), 2);
        assert_eq!(p.free(), 5);
        assert_eq!(&p.sizes()[2..5], [3, 2, 1]);
        assert_eq!(&p.names()[2..5], [1, 2, 3]);
        assert_eq!(&p.sizes()[6..], [2, 1]);
        p.clear_slot(1);
        p.rebuild_runs();
        assert_eq!(p.min_level(), 3);
        assert_eq!(&p.sizes()[1..5], [4, 3, 2, 1]);
        assert!(!p.is_used(1) && p.kind(1).is_none());
        p.clear();
        p.rebuild_runs();
        assert_eq!((p.free(), p.min_level()), (8, NULL_LEVEL));
    }

    #[test]
    fn make_mut_copies_only_a_shared_page() {
        let mut a = Page::unused(4);
        let before = Arc::as_ptr(&a) as *const u8;
        Page::make_mut(&mut a).write(0, &tuple(0, 9));
        assert_eq!(Arc::as_ptr(&a) as *const u8, before, "unique: in place");
        let b = a.clone();
        Page::make_mut(&mut a).write(1, &tuple(1, 10));
        assert!(!Arc::ptr_eq(&a, &b), "shared: copied");
        assert_eq!(b.nodes()[1], NO_NODE, "the other version never sees it");
        assert_eq!((a.nodes()[0], a.nodes()[1]), (9, 10));
        assert_eq!(Arc::strong_count(&b), 1);
    }

    #[test]
    fn size_deltas_stay_in_range() {
        let mut page = Page::unused(4);
        let p = Page::make_mut(&mut page);
        p.write(0, &tuple(0, 0));
        assert_eq!(p.add_size(0, 5), Some(()));
        assert_eq!(p.add_size(0, -6), None);
        assert_eq!(p.add_size(0, i64::from(u32::MAX)), None);
        assert_eq!(p.add_size(0, i64::MAX), None);
        assert_eq!(p.sizes()[0], 5);
    }

    #[test]
    fn addressable_limits() {
        assert!(check_addressable("slots", MAX_ADDRESSABLE).is_ok());
        assert_eq!(
            check_addressable("slots", (1u64 << 32) - 1),
            Err(StorageError::TooLarge {
                what: "slots",
                count: (1u64 << 32) - 1
            })
        );
        assert_eq!(narrow("node id", 7), Ok(7));
        assert!(narrow("node id", u64::from(u32::MAX)).is_err());
        assert!(narrow("node id", 1 << 40).is_err());
        assert_eq!(checked_level(65_534), Ok(MAX_LEVEL));
        assert_eq!(
            checked_level(65_535),
            Err(StorageError::TooDeep { depth: 65_536 })
        );
    }
}
