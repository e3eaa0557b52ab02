//! The updateable storage schema (Figures 4 and 6).
//!
//! The base table is `pos/size/level/node`, divided into **logical pages**
//! of a fixed tuple count. The shredder fills each page only to a
//! configurable fill factor, leaving the remainder as *unused tuples*
//! (`level = NULL`; `size` = remaining run length). New pages are only
//! ever appended physically; a [`PageMap`] (the `pageOffset` table) gives
//! the pages' *logical* order, and the `pre/size/level` **view** the
//! query engine sees — the [`TreeView`] impl here — reads through that
//! indirection. Because `pre` is the (virtual) position in the view, all
//! pre numbers after an insert point shift "at no update cost at all"
//! when a page is spliced in (§3).
//!
//! Each tuple additionally carries an immutable **node id**; the
//! `node→pos` table maps ids back to physical positions, and the
//! attribute table refers to node ids instead of pre values (Figure 6),
//! so attribute rows never need maintenance when positions shift.
//!
//! # Per-page level summaries
//!
//! `size` counts *used* descendants only, so with ≈20 % of every page
//! unused the staircase hop `pre + size + 1` lands short of a region's
//! end by the region's unused slots, and finding a parent means walking
//! back over every preceding sibling subtree. Done slot by slot, both
//! walks cost O(document) near the root — which every structural update
//! pays (the ancestor size deltas walk `parent_of` to the root). Every
//! page therefore carries, in its header, the **minimum level of its
//! used slots** ("no bound" for a page with none), rebuilt in the same
//! per-page pass that rebuilds the unused-run encodings.
//! [`TreeView::region_end`] scans the rest of the page the hop landed in
//! for the first used slot with `level <= level(pre)`, then skips whole
//! pages whose summary is above `level(pre)` in logical order through
//! the `pageOffset` table, then scans inside the first page that can
//! hold the boundary; [`TreeView::parent_of`] is the mirror image going
//! backward. Both are O(pages spanned + page size) — the order of the
//! `pageOffset` splice the paper already accepts — and a position is
//! *computed* from a small aggregate instead of *found* by walking
//! tuples.
//!
//! # Copy-on-write page layout
//!
//! The base table is `pages: Vec<Arc<Page>>`, indexed by physical page
//! id: one [`Page`] per logical page, and a `Page` **owns that page's
//! slice of every column** — `size`, `level`, `kind`, `name`, `value`,
//! `node` and the level summary — in a single allocation
//! ([`crate::page`]; 19 bytes per slot).
//!
//! * **What a clone copies.** `PagedDoc::clone` copies one pointer and
//!   bumps one reference count *per page* (plus the `pageOffset` table,
//!   the side tables' page pointers and the pool's and indexes' small
//!   deltas); all tuple data stays shared with the clone until one side
//!   writes it. Dropping a version is the same walk in reverse.
//! * **What a write copies.** A write privatises the one `Page` it lands
//!   in (`Page::make_mut`: one allocation, one `memcpy` of ≈19 B × page
//!   size) the first time this version touches it — all columns at once,
//!   since they are one block. A value update privatises exactly one
//!   page; an insert that fits its page privatises that page plus the
//!   pages holding its delta-adjusted ancestors.
//! * **Where the swizzle happens.** `pre → (page, offset)` is resolved
//!   **once** per access (`PagedDoc::slot`: one `pageOffset` lookup,
//!   one pointer), after which every column of the slot — or, for the
//!   batch kernels' [`TreeView::pre_chunk`] and the region walks, of the
//!   whole page run — is indexed directly. That is the paper's
//!   `pageOffset` design: the indirection is per page, not per column
//!   per tuple.
//!
//! This is the in-memory equivalent of MonetDB's copy-on-write memory
//! maps (§3.2): a transaction commit builds its new version by cloning
//! the current one and applying its operations, paying O(pages touched +
//! ancestors delta-adjusted) instead of O(document), and publishes it by
//! swapping one `Arc` under the store's short global lock. The side
//! tables that are not divided into logical pages (`node→pos`, the
//! attribute table) are [`CowVec`]s with the same sharing discipline.

use crate::names::NameIndex;
use crate::page::{check_addressable, Page, Tuple, NO_POS};
use crate::shred::{self, AttrRow, Stager};
use crate::types::{Kind, NodeId, PageConfig, StorageError, ValueRef};
use crate::values::{ContentIndex, NumRange, PropId, QnId, TextProbe, ValuePool};
use crate::view::TreeView;
use crate::Result;
use mbxq_bat::{CowVec, PageMap};
use mbxq_xml::Node;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

/// Page size (in entries) of the COW columns that are *not* divided
/// into logical document pages: the `node→pos` map and the attribute
/// table. Purely a sharing granularity; any power of two works.
pub(crate) const SIDE_PAGE: usize = 1024;

/// A document in the updateable paged encoding.
///
/// Cloning is O(#pages) pointer copies — all tuple data is structurally
/// shared with the clone until one side writes it (see the module docs).
#[derive(Debug, Clone)]
pub struct PagedDoc {
    pub(crate) cfg: PageConfig,
    pub(crate) shift: u32,
    /// The base table, indexed by physical page id; physical position
    /// `pos` is slot `pos & (page_size - 1)` of page `pos >> shift`.
    pub(crate) pages: Vec<Arc<Page>>,
    /// The `pageOffset` table: logical order of physical pages.
    pub(crate) map: PageMap,
    /// node id → physical pos ([`NO_POS`] = deleted node).
    pub(crate) node_pos: CowVec<u32>,
    // ---- attribute table, keyed by node id (Figure 6) ----
    pub(crate) attr_node: CowVec<u64>,
    pub(crate) attr_qn: CowVec<QnId>,
    pub(crate) attr_prop: CowVec<PropId>,
    /// node id → attribute row indexes (document order).
    pub(crate) attr_index: AttrIndex,
    /// element name → element node ids (document order) — the access
    /// path behind cost-based axis selection (module [`crate::names`]).
    pub(crate) name_index: NameIndex,
    /// `(name, value)` → node ids — the access path behind cost-based
    /// value-predicate lowering (module [`crate::values`]).
    pub(crate) content_index: ContentIndex,
    pub(crate) pool: ValuePool,
    pub(crate) used_count: u64,
}

/// The `node id → attribute rows` index, split like the value pool into
/// an [`Arc`]-shared base plus a small mutable delta so that cloning a
/// document never copies the whole index. A delta entry overrides the
/// base entry for its node; `None` is a tombstone (all rows removed).
#[derive(Debug, Clone, Default)]
pub(crate) struct AttrIndex {
    base: Arc<HashMap<u64, Vec<u32>>>,
    delta: HashMap<u64, Option<Vec<u32>>>,
}

impl AttrIndex {
    /// The attribute rows of `node`, in document order.
    pub(crate) fn get(&self, node: u64) -> Option<&[u32]> {
        match self.delta.get(&node) {
            Some(Some(rows)) => Some(rows.as_slice()),
            Some(None) => None,
            None => self.base.get(&node).map(Vec::as_slice),
        }
    }

    /// Appends a row to `node`'s list (copying the base list into the
    /// delta on first touch). Never compacts — that would clone the
    /// whole shared base inside a commit's critical section; compaction
    /// happens at the explicit maintenance points (shredding, vacuum,
    /// checkpoint).
    pub(crate) fn push_row(&mut self, node: u64, row: u32) {
        self.rows_entry(node).push(row);
    }

    /// Mutable access to `node`'s rows, if it has any.
    pub(crate) fn rows_mut(&mut self, node: u64) -> Option<&mut Vec<u32>> {
        if !self.delta.contains_key(&node) {
            let from_base = self.base.get(&node)?.clone();
            self.delta.insert(node, Some(from_base));
        }
        self.delta.get_mut(&node)?.as_mut()
    }

    /// Removes `node`'s entry, returning the rows it held.
    pub(crate) fn remove(&mut self, node: u64) -> Option<Vec<u32>> {
        let had_base = self.base.contains_key(&node);
        let prior = match self.delta.remove(&node) {
            Some(entry) => entry,
            None => self.base.get(&node).cloned(),
        };
        if had_base {
            // Tombstone so the shared base entry stays shadowed.
            self.delta.insert(node, None);
        }
        prior
    }

    /// Iterates `(node, rows)` over all live entries (order unspecified).
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &[u32])> + '_ {
        let from_delta = self
            .delta
            .iter()
            .filter_map(|(&n, e)| e.as_ref().map(|rows| (n, rows.as_slice())));
        let from_base = self
            .base
            .iter()
            .filter(move |(n, _)| !self.delta.contains_key(n))
            .map(|(&n, rows)| (n, rows.as_slice()));
        from_delta.chain(from_base)
    }

    /// An index with the given base and an empty delta.
    pub(crate) fn from_base(base: HashMap<u64, Vec<u32>>) -> AttrIndex {
        AttrIndex {
            base: Arc::new(base),
            delta: HashMap::new(),
        }
    }

    /// Folds the delta into a fresh shared base.
    pub(crate) fn compact(&mut self) {
        if self.delta.is_empty() {
            return;
        }
        let mut base = (*self.base).clone();
        for (node, entry) in self.delta.drain() {
            match entry {
                Some(rows) => {
                    base.insert(node, rows);
                }
                None => {
                    base.remove(&node);
                }
            }
        }
        self.base = Arc::new(base);
    }

    fn rows_entry(&mut self, node: u64) -> &mut Vec<u32> {
        let base = &self.base;
        self.delta
            .entry(node)
            .or_insert_with(|| Some(base.get(&node).cloned().unwrap_or_default()))
            .get_or_insert_with(Vec::new)
    }
}

/// Builds an element-name-index base from a document-ordered tuple
/// stream (shredding, checkpoint load, vacuum).
pub(crate) fn name_index_base(staged: &[Tuple]) -> HashMap<QnId, Vec<u64>> {
    let mut base: HashMap<QnId, Vec<u64>> = HashMap::new();
    for t in staged {
        if t.kind == Kind::Element {
            base.entry(QnId(t.name))
                .or_default()
                .push(u64::from(t.node));
        }
    }
    base
}

/// Size/occupancy statistics (for the §4.1 storage-overhead experiment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PagedStats {
    /// Number of logical pages.
    pub pages: usize,
    /// Total slots (used + unused).
    pub capacity: u64,
    /// Slots holding document nodes.
    pub used: u64,
    /// Unused slots.
    pub unused: u64,
    /// Bytes of the base table + `pageOffset` + node/pos + attr tables,
    /// from the widths of the columns as stored.
    pub table_bytes: usize,
}

impl PagedDoc {
    /// Shreds XML text into the paged encoding, straight from the parser's
    /// event stream (module `shred`): no tree of the document is
    /// built, and nesting is bounded by the `level` column, not by the
    /// thread stack.
    pub fn parse_str(input: &str, cfg: PageConfig) -> Result<Self> {
        Self::shred(cfg, |st| shred::parse_into(input, st))
    }

    /// Shreds an owned tree into the paged encoding (the same layout
    /// [`PagedDoc::parse_str`] gives its serialization).
    pub fn from_tree(root: &Node, cfg: PageConfig) -> Result<Self> {
        Self::shred(cfg, |st| shred::walk_into(root, st))
    }

    /// Stages what `drive` feeds a [`Stager`] and lays it out page by
    /// page, leaving `100 - fill_percent` percent of every page unused
    /// (§3: "the document shredder already leaves a certain
    /// (configurable) percentage of tuples unused in each logical
    /// page"). Node ids are allocated in document order, so at shredding
    /// time node == pos-rank (§3.1).
    fn shred(cfg: PageConfig, drive: impl FnOnce(&mut Stager<'_>) -> Result<()>) -> Result<Self> {
        let mut doc = Self::empty(cfg)?;
        let (staged, attrs) = doc.stage(0, 0, drive)?;
        doc.reserve_node_ids(staged.len() as u64)?;
        doc.lay_out_appended(&staged)?;
        for (node, qn, prop) in attrs {
            doc.push_attr(node, qn, prop);
        }
        doc.name_index = NameIndex::from_base(name_index_base(&staged));
        drop(staged);
        doc.content_index = ContentIndex::build_from_view(&doc);
        // Fold the shredder's interning burst into the shared bases, so
        // subsequent clones (reader snapshots, commit versions) carry
        // empty deltas.
        doc.pool.compact();
        doc.attr_index.compact();
        Ok(doc)
    }

    /// Stages what `drive` feeds a [`Stager`] whose first tuple gets
    /// level `level` and node id `base`: the document-ordered tuples and
    /// their attribute rows, names and values interned into this
    /// document's pool. Fails — before anything is laid out — when a node
    /// id would leave the addressable range or a level the `level`
    /// column.
    pub(crate) fn stage(
        &mut self,
        level: u16,
        base: u64,
        drive: impl FnOnce(&mut Stager<'_>) -> Result<()>,
    ) -> Result<(Vec<Tuple>, Vec<AttrRow>)> {
        let mut st = Stager::new(&mut self.pool, base, level);
        drive(&mut st)?;
        Ok((st.tuples, st.attrs))
    }

    /// An empty document skeleton with validated configuration.
    pub(crate) fn empty(cfg: PageConfig) -> Result<Self> {
        PageConfig::new(cfg.page_size, cfg.fill_percent)?;
        Ok(PagedDoc {
            cfg,
            shift: cfg.page_size.trailing_zeros(),
            pages: Vec::new(),
            map: PageMap::new(cfg.page_size),
            node_pos: CowVec::new(SIDE_PAGE),
            attr_node: CowVec::new(SIDE_PAGE),
            attr_qn: CowVec::new(SIDE_PAGE),
            attr_prop: CowVec::new(SIDE_PAGE),
            attr_index: AttrIndex::default(),
            name_index: NameIndex::default(),
            content_index: ContentIndex::default(),
            pool: ValuePool::new(),
            used_count: 0,
        })
    }

    /// One past the highest allocated node id.
    pub fn node_alloc_end(&self) -> u64 {
        self.node_pos.len() as u64
    }

    /// Appends a fresh physical page (all slots unused) at the end of the
    /// logical order. Returns its physical id.
    pub(crate) fn append_physical_page(&mut self) -> Result<usize> {
        self.check_room_for_page()?;
        self.pages.push(Page::unused(self.cfg.page_size));
        Ok(self.map.append_page())
    }

    /// Appends a fresh physical page spliced into the logical order at
    /// logical index `at` (case 2b of Figure 7). Returns its physical id.
    pub(crate) fn splice_physical_page(&mut self, at: usize) -> Result<usize> {
        self.check_room_for_page()?;
        let page = self.map.insert_page_at(at)?;
        self.pages.push(Page::unused(self.cfg.page_size));
        Ok(page)
    }

    /// Every page enters the document through here, so a physical
    /// position always fits the `node→pos` column.
    fn check_room_for_page(&self) -> Result<()> {
        check_addressable(
            "slots",
            (self.pages.len() as u64 + 1) * self.cfg.page_size as u64,
        )
    }

    /// Grows the `node→pos` table to `end` entries ([`NO_POS`] until the
    /// caller places the nodes). Every node id enters the document
    /// through here, so an id always fits the `node` column.
    pub(crate) fn reserve_node_ids(&mut self, end: u64) -> Result<()> {
        check_addressable("node ids", end)?;
        while self.node_alloc_end() < end {
            self.node_pos.push(NO_POS);
        }
        Ok(())
    }

    /// Lays the document-ordered `tuples` out into fresh pages appended
    /// at the logical end, each filled to the fill target, pointing
    /// their `node→pos` entries at them (shredding, checkpoint load,
    /// vacuum).
    pub(crate) fn lay_out_appended(&mut self, tuples: &[Tuple]) -> Result<()> {
        for chunk in tuples.chunks(self.cfg.fill_target()) {
            let phys = self.append_physical_page()?;
            self.rewrite_page(phys, chunk.iter());
        }
        self.used_count += tuples.len() as u64;
        Ok(())
    }

    /// Replaces the content of physical page `phys` with `tuples` in its
    /// leading slots (the rest unused), points their `node→pos` entries
    /// at the new positions and rebuilds the page's run encodings and
    /// level summary. Returns how many `node→pos` entries changed.
    pub(crate) fn rewrite_page<'a>(
        &mut self,
        phys: usize,
        tuples: impl Iterator<Item = &'a Tuple>,
    ) -> u64 {
        let base = u32::try_from(phys << self.shift).expect("pages are added within the limit");
        let page = Page::make_mut(&mut self.pages[phys]);
        page.clear();
        let mut moved = 0;
        for ((i, pos), t) in (0..).zip(base..).zip(tuples) {
            page.write(i, t);
            let entry = t.node as usize;
            if self.node_pos[entry] != pos {
                self.node_pos[entry] = pos;
                moved += 1;
            }
        }
        page.rebuild_runs();
        moved
    }

    /// Number of unused slots on physical page `page`.
    pub fn free_in_page(&self, page: usize) -> usize {
        self.pages[page].free()
    }

    /// Adds an attribute row for `node`.
    pub(crate) fn push_attr(&mut self, node: u64, qn: QnId, prop: PropId) {
        let row = u32::try_from(self.attr_node.len()).expect("attr table overflow");
        self.attr_node.push(node);
        self.attr_qn.push(qn);
        self.attr_prop.push(prop);
        self.attr_index.push_row(node, row);
    }

    /// `(physical page, offset)` of view position `pre` — the
    /// `pageOffset` swizzle, done once per access.
    #[inline]
    pub(crate) fn locate(&self, pre: u64) -> Option<(usize, usize)> {
        let phys = self
            .map
            .logical_to_physical((pre >> self.shift) as usize)
            .ok()?;
        Some((phys, pre as usize & (self.cfg.page_size - 1)))
    }

    /// The page holding view position `pre` and the slot's offset in it.
    #[inline]
    pub(crate) fn slot(&self, pre: u64) -> Option<(&Page, usize)> {
        let (phys, i) = self.locate(pre)?;
        Some((&self.pages[phys], i))
    }

    /// Like [`PagedDoc::slot`], but only for a slot holding a node.
    #[inline]
    pub(crate) fn used_slot(&self, pre: u64) -> Option<(&Page, usize)> {
        self.slot(pre).filter(|&(page, i)| page.is_used(i))
    }

    /// Write access to physical page `phys`, privatising it on the first
    /// touch through this version.
    #[inline]
    pub(crate) fn page_mut(&mut self, phys: usize) -> &mut Page {
        Page::make_mut(&mut self.pages[phys])
    }

    /// First used slot at or after view position `from` whose level is
    /// `<= lvl` — where a region of that level ends — or `pre_end()`.
    /// Pages whose level summary is above `lvl` are skipped without
    /// looking at their slots. (Unused slots are NULL — above every
    /// level — in the `level` column, so the scan needs no liveness
    /// test.)
    fn next_used_at_level_or_above(&self, from: u64, lvl: u16) -> u64 {
        let mut offset = from as usize & (self.cfg.page_size - 1);
        for lp in (from >> self.shift) as usize..self.map.num_pages() {
            let page = &self.pages[self.map.logical_to_physical(lp).expect("page in range")];
            if page.min_level() <= lvl {
                if let Some(i) = page.levels()[offset..].iter().position(|&l| l <= lvl) {
                    return ((lp << self.shift) + offset + i) as u64;
                }
            }
            offset = 0;
        }
        self.pre_end()
    }

    /// Last used slot before view position `before` whose level is
    /// `< lvl` — the parent of a level-`lvl` node at `before` — skipping
    /// whole pages on their level summary like
    /// [`PagedDoc::next_used_at_level_or_above`].
    fn prev_used_below_level(&self, before: u64, lvl: u16) -> Option<u64> {
        let last = before.checked_sub(1)?;
        let mut len = (last as usize & (self.cfg.page_size - 1)) + 1;
        for lp in (0..=(last >> self.shift) as usize).rev() {
            let page = &self.pages[self.map.logical_to_physical(lp).ok()?];
            if page.min_level() < lvl {
                if let Some(i) = page.levels()[..len].iter().rposition(|&l| l < lvl) {
                    return Some(((lp << self.shift) + i) as u64);
                }
            }
            len = self.cfg.page_size;
        }
        None
    }

    // ------------------------------------------------------------------
    // Public accessors
    // ------------------------------------------------------------------

    /// The page configuration.
    pub fn config(&self) -> PageConfig {
        self.cfg
    }

    /// Physical position of the live node `node`.
    #[inline]
    pub(crate) fn pos_of_node(&self, node: u64) -> Option<u32> {
        let pos = *self.node_pos.get(usize::try_from(node).ok()?)?;
        (pos != NO_POS).then_some(pos)
    }

    /// Translates a node id to its current pre rank, via the `node→pos`
    /// table and the `pageOffset` swizzle (§3.1).
    pub fn node_to_pre(&self, node: NodeId) -> Result<u64> {
        let pos = self
            .pos_of_node(node.0)
            .ok_or(StorageError::BadNode { node })?;
        Ok(self.map.pos_to_pre(u64::from(pos))?)
    }

    /// Translates a pre rank to the node id stored there.
    pub fn pre_to_node(&self, pre: u64) -> Result<NodeId> {
        self.node_id(pre).ok_or(StorageError::BadPre {
            pre,
            context: "resolving a node id",
        })
    }

    /// Mutable access to the value pool.
    pub fn pool_mut(&mut self) -> &mut ValuePool {
        &mut self.pool
    }

    /// Folds the attribute index's delta into a fresh shared base — the
    /// maintenance hook checkpointing uses (mutation paths never compact
    /// implicitly; that would clone the whole shared base inside a
    /// commit's critical section).
    pub fn compact_attr_index(&mut self) {
        self.attr_index.compact();
    }

    /// Folds the element-name index's delta into a fresh shared base
    /// (same maintenance discipline as [`PagedDoc::compact_attr_index`]).
    pub fn compact_name_index(&mut self) {
        let mut idx = std::mem::take(&mut self.name_index);
        idx.compact(|node| self.node_pre_opt(node));
        self.name_index = idx;
    }

    /// Folds the content index's deltas into fresh shared bases (same
    /// maintenance discipline as [`PagedDoc::compact_name_index`]).
    pub fn compact_content_index(&mut self) {
        let mut idx = std::mem::take(&mut self.content_index);
        idx.compact(|node| self.node_pre_opt(node));
        self.content_index = idx;
    }

    /// Name-index entries added/tombstoned since the last compaction
    /// (diagnostic, mirrors [`ValuePool::delta_len`]).
    pub fn name_index_delta_len(&self) -> usize {
        self.name_index.delta_len()
    }

    /// Content-index entries added/tombstoned since the last compaction
    /// (diagnostic, mirrors [`PagedDoc::name_index_delta_len`]).
    pub fn content_index_delta_len(&self) -> usize {
        self.content_index.delta_len()
    }

    /// `node id → current pre`, `None` for dead ids.
    fn node_pre_opt(&self, node: u64) -> Option<u64> {
        self.map.pos_to_pre(u64::from(self.pos_of_node(node)?)).ok()
    }

    /// Occupancy statistics.
    pub fn stats(&self) -> PagedStats {
        use std::mem::size_of;
        let capacity = self.pre_end();
        let per_page = Page::header_bytes() + size_of::<Arc<Page>>() + 2 * size_of::<usize>();
        PagedStats {
            pages: self.pages.len(),
            capacity,
            used: self.used_count,
            unused: capacity - self.used_count,
            table_bytes: capacity as usize * Page::bytes_per_slot()
                + self.pages.len() * per_page
                + self.node_pos.len() * size_of::<u32>()
                + self.attr_node.len()
                    * (size_of::<u64>() + size_of::<QnId>() + size_of::<PropId>()),
        }
    }

    /// Rebuilds the attribute columns from the live index entries,
    /// dropping rows orphaned by deletes and renumbering the survivors
    /// (per-node document order is preserved). Used by vacuum.
    pub(crate) fn rebuild_attr_table(&mut self) {
        let mut entries: Vec<(u64, Vec<u32>)> = self
            .attr_index
            .iter()
            .map(|(n, rows)| (n, rows.to_vec()))
            .collect();
        entries.sort_unstable_by_key(|(n, _)| *n);
        let mut attr_node = CowVec::new(SIDE_PAGE);
        let mut attr_qn = CowVec::new(SIDE_PAGE);
        let mut attr_prop = CowVec::new(SIDE_PAGE);
        let mut index = HashMap::with_capacity(entries.len());
        for (node, rows) in entries {
            let mut new_rows = Vec::with_capacity(rows.len());
            for r in rows {
                let nr = u32::try_from(attr_node.len()).expect("attr table overflow");
                attr_node.push(node);
                attr_qn.push(self.attr_qn[r as usize]);
                attr_prop.push(self.attr_prop[r as usize]);
                new_rows.push(nr);
            }
            index.insert(node, new_rows);
        }
        self.attr_node = attr_node;
        self.attr_qn = attr_qn;
        self.attr_prop = attr_prop;
        self.attr_index = AttrIndex::from_base(index);
    }

    /// `(shared, total)` [`Page`] counts against another version of the
    /// same document. After a copy-on-write commit, `total - shared` is
    /// exactly the number of logical pages the commit privatised (pages
    /// it appended included).
    pub fn shared_pages_with(&self, other: &PagedDoc) -> (usize, usize) {
        let shared = self
            .pages
            .iter()
            .zip(&other.pages)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count();
        (shared, self.pages.len())
    }
}

impl TreeView for PagedDoc {
    fn pre_end(&self) -> u64 {
        (self.pages.len() as u64) << self.shift
    }

    fn level(&self, pre: u64) -> Option<u16> {
        let (page, i) = self.used_slot(pre)?;
        Some(page.levels()[i])
    }

    fn size(&self, pre: u64) -> u64 {
        self.slot(pre)
            .map_or(0, |(page, i)| u64::from(page.sizes()[i]))
    }

    fn kind(&self, pre: u64) -> Option<Kind> {
        let (page, i) = self.slot(pre)?;
        page.kind(i)
    }

    fn name_id(&self, pre: u64) -> Option<QnId> {
        let (page, i) = self.slot(pre)?;
        (page.kind(i) == Some(Kind::Element)).then(|| QnId(page.names()[i]))
    }

    fn value_ref(&self, pre: u64) -> Option<ValueRef> {
        let (page, i) = self.slot(pre)?;
        match page.kind(i)? {
            Kind::Element => None,
            _ => Some(ValueRef(page.values()[i])),
        }
    }

    fn node_id(&self, pre: u64) -> Option<NodeId> {
        let (page, i) = self.used_slot(pre)?;
        Some(NodeId(u64::from(page.nodes()[i])))
    }

    fn back_run(&self, pre: u64) -> u64 {
        match self.slot(pre) {
            Some((page, i)) if !page.is_used(i) => u64::from(page.names()[i]),
            _ => 0,
        }
    }

    fn attributes(&self, pre: u64) -> Vec<(QnId, PropId)> {
        let Some(NodeId(node)) = self.node_id(pre) else {
            return Vec::new();
        };
        match self.attr_index.get(node) {
            Some(rows) => rows
                .iter()
                .map(|&r| (self.attr_qn[r as usize], self.attr_prop[r as usize]))
                .collect(),
            None => Vec::new(),
        }
    }

    fn pool(&self) -> &ValuePool {
        &self.pool
    }

    fn used_count(&self) -> u64 {
        self.used_count
    }

    fn elements_named_in(&self, qn: QnId, lo: u64, hi: u64) -> Option<Cow<'_, [u64]>> {
        Some(
            self.name_index
                .nodes_by_pre_in(qn, lo, hi, |node| self.node_pre_opt(node))
                .into_iter()
                .map(|(pre, _)| pre)
                .collect(),
        )
    }

    fn elements_named_count(&self, qn: QnId) -> Option<u64> {
        Some(self.name_index.count(qn))
    }

    fn has_content_index(&self) -> bool {
        true
    }

    fn nodes_with_attr_value(&self, attr: QnId, value: &str) -> Option<Vec<u64>> {
        Some(
            self.content_index
                .attr_eq(attr, value, |node| self.node_pre_opt(node)),
        )
    }

    fn nodes_with_attr_value_range(&self, attr: QnId, range: &NumRange) -> Option<Vec<u64>> {
        Some(
            self.content_index
                .attr_range(attr, range, |node| self.node_pre_opt(node)),
        )
    }

    fn nodes_with_attr_value_count(&self, attr: QnId, value: &str) -> Option<u64> {
        Some(self.content_index.attr_eq_count(attr, value))
    }

    fn nodes_with_attr_value_range_count(&self, attr: QnId, range: &NumRange) -> Option<u64> {
        Some(self.content_index.attr_range_count(attr, range))
    }

    fn elements_with_text(&self, qn: QnId, value: &str) -> Option<TextProbe> {
        Some(
            self.content_index
                .text_eq(qn, value, |node| self.node_pre_opt(node)),
        )
    }

    fn elements_with_text_range(&self, qn: QnId, range: &NumRange) -> Option<TextProbe> {
        Some(
            self.content_index
                .text_range(qn, range, |node| self.node_pre_opt(node)),
        )
    }

    fn elements_with_text_count(&self, qn: QnId, value: &str) -> Option<u64> {
        Some(self.content_index.text_eq_count(qn, value))
    }

    fn elements_with_text_range_count(&self, qn: QnId, range: &NumRange) -> Option<u64> {
        Some(self.content_index.text_range_count(qn, range))
    }

    fn attr_degree_stats(&self, attr: QnId) -> Option<crate::values::DegreeStats> {
        Some(self.content_index.attr_degree_stats(attr))
    }

    fn text_degree_stats(&self, qn: QnId) -> Option<crate::values::DegreeStats> {
        Some(self.content_index.text_degree_stats(qn))
    }

    fn next_used_at_or_after(&self, pre: u64) -> Option<u64> {
        let mut p = pre;
        while let Some((page, i)) = self.slot(p) {
            if page.is_used(i) {
                return Some(p);
            }
            p += u64::from(page.sizes()[i]);
        }
        None
    }

    fn prev_used_at_or_before(&self, pre: u64) -> Option<u64> {
        let mut p = pre.min(self.pre_end().checked_sub(1)?);
        loop {
            let (page, i) = self.slot(p)?;
            if page.is_used(i) {
                return Some(p);
            }
            p = p.checked_sub(u64::from(page.names()[i]))?;
        }
    }

    /// O(pages spanned + page size): hop over the region by `size`
    /// (exact when the region has no unused slot, short otherwise —
    /// `size` counts used tuples only), then finish on the page level
    /// summaries instead of one small subtree at a time.
    fn region_end(&self, pre: u64) -> u64 {
        let Some((page, i)) = self.used_slot(pre) else {
            return pre + 1;
        };
        let hop = pre + u64::from(page.sizes()[i]) + 1;
        let boundary = self.next_used_at_level_or_above(hop, page.levels()[i]);
        // Every used slot in `pre+1..boundary` is a descendant; the
        // region ends behind the last of them.
        self.prev_used_at_or_before(boundary - 1)
            .map_or(pre + 1, |last| last + 1)
    }

    /// O(pages spanned + page size) on the page level summaries.
    fn parent_of(&self, pre: u64) -> Option<u64> {
        match self.level(pre)? {
            0 => None,
            lvl => self.prev_used_below_level(pre, lvl),
        }
    }

    fn pre_chunk(&self, pre: u64, end: u64) -> Option<crate::view::PreChunk<'_>> {
        // Physical positions are contiguous only within one logical
        // page (the PageMap permutes whole pages), so the chunk stops at
        // the page boundary and the caller loops.
        let (page, i) = self.slot(pre)?;
        let page_end = ((pre >> self.shift) + 1) << self.shift;
        if pre >= end {
            return None;
        }
        let j = i + (end.min(page_end) - pre) as usize;
        Some(crate::view::PreChunk {
            pre,
            kinds: &page.kinds()[i..j],
            levels: &page.levels()[i..j],
            names: &page.names()[i..j],
            values: &page.values()[i..j],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbxq_xml::Document;

    const PAPER_DOC: &str =
        "<a><b><c><d></d><e></e></c></b><f><g></g><h><i></i><j></j></h></f></a>";

    /// Figure 4's layout: page size 8, shredder leaves pages partly
    /// unused. With fill 7/8 the ten nodes land as a..g on page 0 and
    /// h,i,j on page 1, exactly like the paper's figure.
    fn figure4_doc() -> PagedDoc {
        let cfg = PageConfig::new(8, 88).unwrap(); // fill_target = 7
        assert_eq!(cfg.fill_target(), 7);
        PagedDoc::parse_str(PAPER_DOC, cfg).unwrap()
    }

    #[test]
    fn figure4_initial_layout() {
        let d = figure4_doc();
        assert_eq!(d.stats().pages, 2);
        assert_eq!(d.stats().used, 10);
        assert_eq!(d.stats().unused, 6);
        // Page 0: a b c d e f g + 1 unused; page 1: h i j + 5 unused.
        let names: Vec<Option<String>> = (0..16)
            .map(|p| {
                d.name_id(p)
                    .map(|q| d.pool().qname(q).unwrap().local.clone())
            })
            .collect();
        let expect: Vec<Option<&str>> = vec![
            Some("a"),
            Some("b"),
            Some("c"),
            Some("d"),
            Some("e"),
            Some("f"),
            Some("g"),
            None,
            Some("h"),
            Some("i"),
            Some("j"),
            None,
            None,
            None,
            None,
            None,
        ];
        assert_eq!(
            names,
            expect
                .into_iter()
                .map(|o| o.map(str::to_string))
                .collect::<Vec<_>>()
        );
        // Sizes unchanged from the read-only encoding (Figure 4).
        assert_eq!(TreeView::size(&d, 0), 9); // a
        assert_eq!(TreeView::size(&d, 5), 4); // f
        assert_eq!(TreeView::size(&d, 8), 2); // h
                                              // Unused run lengths: slot 7 run of 1; slots 11..16 run of 5.
        assert_eq!(TreeView::size(&d, 7), 1);
        assert_eq!(TreeView::size(&d, 11), 5);
        assert_eq!(TreeView::size(&d, 12), 4);
        assert_eq!(TreeView::size(&d, 15), 1);
        assert_eq!(d.back_run(11), 1);
        assert_eq!(d.back_run(15), 5);
    }

    #[test]
    fn levels_and_unused_null() {
        let d = figure4_doc();
        assert_eq!(TreeView::level(&d, 0), Some(0));
        assert_eq!(TreeView::level(&d, 6), Some(2)); // g
        assert_eq!(TreeView::level(&d, 7), None); // unused
        assert_eq!(TreeView::level(&d, 8), Some(2)); // h
        assert_eq!(TreeView::level(&d, 99), None); // out of range
    }

    #[test]
    fn navigation_skips_holes() {
        let d = figure4_doc();
        // f's region spans the hole at pre 7: descendants g,h,i,j.
        assert_eq!(d.region_end(5), 11);
        // next/prev used skip runs in O(1).
        assert_eq!(d.next_used_at_or_after(7), Some(8));
        assert_eq!(d.prev_used_at_or_before(15), Some(10));
        // parent of h (pre 8) is f (pre 5), across the hole.
        assert_eq!(d.parent_of(8), Some(5));
        assert_eq!(d.parent_of(0), None);
    }

    #[test]
    fn node_pre_round_trip() {
        let d = figure4_doc();
        for pre in [0u64, 5, 6, 8, 10] {
            let node = d.pre_to_node(pre).unwrap();
            assert_eq!(d.node_to_pre(node).unwrap(), pre);
        }
        assert!(d.pre_to_node(7).is_err()); // unused slot
        assert!(d.node_to_pre(NodeId(999)).is_err());
    }

    #[test]
    fn view_equals_readonly_on_used_tuples() {
        let ro = crate::ReadOnlyDoc::parse_str(PAPER_DOC).unwrap();
        let up = figure4_doc();
        let mut pre_up = 0u64;
        for pre_ro in 0..ro.pre_end() {
            let q = up.next_used_at_or_after(pre_up).expect("same node count");
            assert_eq!(TreeView::size(&ro, pre_ro), TreeView::size(&up, q));
            assert_eq!(TreeView::level(&ro, pre_ro), TreeView::level(&up, q));
            assert_eq!(ro.kind(pre_ro), up.kind(q));
            pre_up = q + 1;
        }
    }

    #[test]
    fn attributes_via_node_ids() {
        let cfg = PageConfig::new(8, 75).unwrap();
        let d = PagedDoc::parse_str(r#"<a x="1"><b y="2" z="3"/></a>"#, cfg).unwrap();
        assert_eq!(d.attributes(0).len(), 1);
        assert_eq!(d.attributes(1).len(), 2);
        assert_eq!(
            d.attribute_value(1, &mbxq_xml::QName::local("y")),
            Some("2".to_string())
        );
    }

    #[test]
    fn string_value_spans_pages() {
        let cfg = PageConfig::new(4, 50).unwrap(); // fill 2 per page
        let d = PagedDoc::parse_str("<a>x<b>y</b>z</a>", cfg).unwrap();
        assert_eq!(d.string_value(0), "xyz");
    }

    // ---- the layout contract: what a clone shares, what a write copies ----

    /// Physical pages of `new` not shared with `old`.
    fn privatised(new: &PagedDoc, old: &PagedDoc) -> Vec<usize> {
        (0..new.pages.len())
            .filter(|&p| {
                old.pages
                    .get(p)
                    .is_none_or(|o| !Arc::ptr_eq(o, &new.pages[p]))
            })
            .collect()
    }

    #[test]
    fn a_fresh_clone_shares_every_page() {
        let d = figure4_doc();
        let c = d.clone();
        let n = d.stats().pages;
        assert_eq!(c.shared_pages_with(&d), (n, n));
        // One reference per version, per page — and nothing else holds on.
        assert!(d.pages.iter().all(|p| Arc::strong_count(p) == 2));
        drop(c);
        assert!(d.pages.iter().all(|p| Arc::strong_count(p) == 1));
    }

    #[test]
    fn a_value_update_privatises_exactly_one_page() {
        let base = PagedDoc::parse_str(
            "<a><b>one</b><c>two</c><d>three</d><e>four</e></a>",
            PageConfig::new(4, 75).unwrap(),
        )
        .unwrap();
        assert_eq!(base.stats().pages, 3);
        let mut d = base.clone();
        // a b "one" _ | c "two" d _ | "three" e "four" _
        let four = d.pre_to_node(10).unwrap();
        d.update_value(four, "4").unwrap();
        assert_eq!(privatised(&d, &base), [2]);
        assert_eq!(d.shared_pages_with(&base), (2, 3));
        assert_eq!(
            Arc::strong_count(&base.pages[0]),
            2,
            "untouched: still shared"
        );
        assert_eq!(
            Arc::strong_count(&base.pages[2]),
            1,
            "touched: base's alone"
        );
        crate::invariants::check_paged(&d).unwrap();
        crate::invariants::check_paged(&base).unwrap();
        assert_eq!(base.string_value(0), "onetwothreefour");
        assert_eq!(d.string_value(0), "onetwothree4");
    }

    #[test]
    fn an_in_page_insert_privatises_its_page_and_its_ancestors_pages() {
        // Page size 8, fill 4: a b c d | e f g h | i j k l — the target
        // `k` (page 2) has ancestors i (page 2) and a (page 0); page 1
        // holds neither.
        let base = PagedDoc::parse_str(
            "<a><b/><c/><d/><e/><f/><g/><h/><i><j/><k/><l/></i></a>",
            PageConfig::new(8, 50).unwrap(),
        )
        .unwrap();
        assert_eq!(base.stats().pages, 3);
        let mut d = base.clone();
        let k = d.pre_to_node(18).unwrap();
        let sub = Document::parse_fragment("<new/>").unwrap();
        let report = d
            .insert(crate::InsertPosition::LastChildOf(k), &sub)
            .unwrap();
        assert_eq!(report.case, crate::InsertCase::WithinPage);
        assert_eq!(report.ancestors_updated, 3); // k, i, a
        assert_eq!(privatised(&d, &base), [0, 2]);
        crate::invariants::check_paged(&d).unwrap();
    }

    #[test]
    fn table_bytes_counts_the_columns_as_stored() {
        use std::mem::size_of;
        let d = figure4_doc(); // no attributes
        let st = d.stats();
        let column_widths = size_of::<u32>() // size
            + size_of::<u16>() // level
            + size_of::<u8>() // kind
            + 3 * size_of::<u32>(); // name, value, node
        assert_eq!(column_widths, 19);
        let side = d.node_alloc_end() as usize * size_of::<u32>();
        // Header, the (fat) page pointer, both directions of pageOffset.
        let per_page = 2 * size_of::<u32>() + size_of::<Arc<Page>>() + 2 * size_of::<usize>();
        assert_eq!(
            st.table_bytes - side - st.pages * per_page,
            st.capacity as usize * column_widths
        );
    }

    #[test]
    fn ids_and_positions_beyond_the_addressable_range_are_refused() {
        let too_many = (1u64 << 32) - 1;
        let too_large = |what| StorageError::TooLarge {
            what,
            count: too_many,
        };
        let mut d = figure4_doc();
        let g = d.pre_to_node(6).unwrap();
        let sub = Document::parse_fragment("<k/>").unwrap();
        // Ids `2³²−2..2³²−1` would make 2³²−1 node ids.
        assert_eq!(
            d.insert_with_base(crate::InsertPosition::LastChildOf(g), &sub, too_many - 1),
            Err(too_large("node ids"))
        );
        assert_eq!(d.reserve_node_ids(too_many), Err(too_large("node ids")));
        assert_eq!(
            PagedDoc::from_checkpoint_dump("E 0 0 1:a ", d.config(), too_many).unwrap_err(),
            too_large("node ids")
        );
        // Nothing was allocated on the way to the error.
        assert_eq!(d.node_alloc_end(), 10);
        crate::invariants::check_paged(&d).unwrap();
        // 2³²−2 is the last count that fits; a page more would not.
        assert!(crate::page::check_addressable("slots", too_many - 1).is_ok());
        assert_eq!(
            crate::page::check_addressable("slots", too_many),
            Err(too_large("slots"))
        );
    }

    #[test]
    fn staging_refuses_levels_the_column_cannot_hold() {
        let mut d = figure4_doc();
        let mut stage = |xml: &str| {
            let frag = Document::parse_fragment(xml).unwrap();
            d.stage(65_534, 100, |st| shred::walk_into(&frag, st))
                .map(|(tuples, _)| tuples.len())
        };
        // x at the deepest level is fine alone …
        assert_eq!(stage("<x/>"), Ok(1));
        // … but its child would need level 65 535, the NULL of unused
        // slots: nesting depth 65 536.
        assert_eq!(
            stage("<x><y/></x>"),
            Err(StorageError::TooDeep { depth: 65_536 })
        );
        // Checkpoint load applies the same limit.
        assert_eq!(
            PagedDoc::from_checkpoint_dump("E 0 65535 1:a ", d.config(), 5).unwrap_err(),
            StorageError::TooDeep { depth: 65_536 }
        );
    }

    #[test]
    fn single_page_small_doc() {
        let cfg = PageConfig::default();
        let d = PagedDoc::parse_str("<r><x/></r>", cfg).unwrap();
        assert_eq!(d.stats().pages, 1);
        assert_eq!(d.stats().used, 2);
        assert_eq!(d.root_pre(), Some(0));
    }
}
