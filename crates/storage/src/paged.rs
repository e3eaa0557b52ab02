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
//! # Attribute runs
//!
//! An element finds its attributes from its own slot: the `value` column,
//! which only non-elements need for their content, holds an element's
//! **first attribute row** (`NO_NAME` for none). An element's rows are
//! one contiguous **run** of the attribute table, which ends where
//! `attr_node` changes owner. Giving an element whose run is not the
//! table's last a new attribute moves its run to the table's end; rows
//! removed or moved away are marked dead (`DEAD_ROW`), and rows of
//! deleted elements are simply no longer reached. Vacuum drops both.
//!
//! # The level-summary column
//!
//! `size` counts *used* descendants only, so with ≈20 % of every page
//! unused the staircase hop `pre + size + 1` lands short of a region's
//! end by the region's unused slots, and finding a parent means walking
//! back over every preceding sibling subtree. Done slot by slot, both
//! walks cost O(document) near the root — which every structural update
//! pays (the ancestor size deltas walk `parent_of` to the root). Every
//! page therefore has a **level summary**, the minimum level of its
//! used slots (NULL for a page with none), computed in the same
//! per-page pass that rebuilds the unused-run encodings
//! (`Page::rebuild_runs`). The summaries are one contiguous column,
//! `min_levels` — two bytes a page, in logical page order like the
//! page directory, a [`CowVec`] of its own — and not a word in each
//! page, so a walk over a thousand pages' summaries reads a few cache
//! lines of one column instead of one allocation per page.
//! [`TreeView::next_at_level_or_above`] scans the rest of the page
//! `from` lies in for the first used slot with `level <= lvl`, then
//! scans the column for the first later page whose summary is not above
//! `lvl`, then scans inside that page alone. It is the sibling hop of
//! the child and sibling walks, and [`TreeView::region_end`] is that
//! hop from behind the node's `size` hop, stepped back to the last used
//! slot before it; [`TreeView::parent_of`] is the mirror image going
//! backward. Each is
//! O(pages spanned) in column entries plus O(page size) in slots — the
//! order of the `pageOffset` splice the paper already accepts — and a
//! position is *computed* from a small aggregate instead of *found* by
//! walking tuples. A page appended or spliced into the logical order
//! gets its entry where its page goes (a splice shifts the entries
//! behind it, two bytes a page), and every page write that rebuilds the
//! runs stores the summary `Page::rebuild_runs` returns.
//!
//! # Copy-on-write page layout
//!
//! The base table is `pages: CowDir<Page>`, a two-level copy-on-write
//! directory ([`CowDir`]) in **logical** page order: one [`Page`] per
//! logical page, reached through chunks of [`mbxq_bat::FANOUT`] page
//! pointers. A `Page` **owns that page's slice of every column** —
//! `size`, `level`, `kind`, `name`, `value` and `node` — in a single
//! allocation ([`crate::page`]; 19 bytes per slot).
//!
//! * **What a clone copies.** `PagedDoc::clone` bumps one reference
//!   count per table: the pages', the `pageOffset` map's two columns and
//!   every side table's — the columns, the value pool and the indexes,
//!   all on the same kind of directory — however large the document and
//!   however many commits it has seen. It allocates nothing, and all
//!   tuple data stays shared with the clone until one side writes it.
//!   Dropping a version releases only what it does not share.
//! * **What a write copies.** The first write to a table through a
//!   version privatises its directory (one pointer and one reference
//!   count per chunk). A write privatises the chunk holding its
//!   `Page` (one allocation of [`mbxq_bat::FANOUT`] pointers) and the
//!   `Page` itself (`Page::make_mut`: one allocation, one `memcpy` of
//!   ≈19 B × page size), each the first time this version touches it —
//!   all of the page's columns at once, since they are one block. A
//!   value update privatises exactly one page; an insert that fits its
//!   page privatises that page plus the pages holding its delta-adjusted
//!   ancestors. Splicing a page into the logical order rebuilds the
//!   chunks behind the splice point (a pointer copy per page) and shares
//!   every page. A page rewrite also writes its summary entry and the
//!   `node→pos` entries of the tuples it moved, a `node→pos` page at a
//!   time ([`CowVec::page_mut`]: one privatisation per page, not one
//!   per entry). Only a page appended or spliced in writes the
//!   `pageOffset` columns.
//! * **Where the swizzle happens.** `pre → page` is the directory itself
//!   (`PagedDoc::slot`: chunk, then page — the same two dependent loads
//!   as a `pageOffset` lookup followed by a page pointer), after which
//!   every column of the slot — or, for the batch kernels'
//!   [`TreeView::pre_chunk`] and the region walks, of the whole page run
//!   — is indexed directly. A physical position `pos` (what `node→pos`
//!   holds) reaches its page through one `pageOffset` lookup first
//!   (`PagedDoc::page`). That is the paper's `pageOffset` design: the
//!   indirection is per page, not per column per tuple.
//!
//! This is the in-memory equivalent of MonetDB's copy-on-write memory
//! maps (§3.2): a transaction commit builds its new version by cloning
//! the current one and applying its operations, paying O(pages touched +
//! ancestors delta-adjusted) instead of O(document), and publishes it by
//! swapping one `Arc` under the store's short global lock. The side
//! tables that are not divided into logical pages (`pageOffset`,
//! `node→pos`, the level-summary column, the attribute table, the value
//! pool) are [`CowVec`]s: columns on the same directory; the name and
//! content indexes are sorted sequences on it ([`mbxq_bat::CowSorted`]),
//! so a commit copies the index leaves it writes and nothing else.

use crate::names::{NameIndex, Posting};
use crate::page::{check_addressable, Page, Tuple, NO_NAME, NO_POS, NULL_LEVEL};
use crate::shred::{self, AttrRow, Stager};
use crate::types::{Kind, NodeId, PageConfig, StorageError, ValueRef};
use crate::values::{ContentIndex, NumRange, PropId, QnId, TextProbe, ValuePool};
use crate::view::TreeView;
use crate::Result;
use mbxq_bat::{unshared, Blocks, CowDir, CowVec, Level, PageMap};
use mbxq_xml::Node;
use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

/// Page size (in entries) of the COW columns that are *not* divided
/// into logical document pages: the `node→pos` map and the attribute
/// table. Purely a sharing granularity; any power of two works.
pub(crate) const SIDE_PAGE: usize = 1024;

/// `attr_node` of a dead attribute row: removed, or moved with its run.
pub(crate) const DEAD_ROW: u64 = u64::MAX;

/// A document in the updateable paged encoding.
///
/// Cloning shares every table, the `pageOffset` map included, and
/// allocates nothing: all tuple data is structurally shared with the
/// clone until one side writes it (see the module docs).
#[derive(Debug, Clone)]
pub struct PagedDoc {
    pub(crate) cfg: PageConfig,
    pub(crate) shift: u32,
    /// The base table in logical page order: view position `pre` is slot
    /// `pre & (page_size - 1)` of page `pre >> shift`. Physical position
    /// `pos` is the same slot of the page whose physical id is
    /// `pos >> shift` ([`PagedDoc::page`]).
    pub(crate) pages: CowDir<Page>,
    /// The level-summary column, in logical page order like `pages`:
    /// the minimum level of each page's used slots, [`NULL_LEVEL`] for
    /// a page without any (module docs).
    pub(crate) min_levels: CowVec<u16>,
    /// The `pageOffset` table: logical order of physical pages.
    pub(crate) map: PageMap,
    /// node id → physical pos ([`NO_POS`] = deleted node).
    pub(crate) node_pos: CowVec<u32>,
    // ---- attribute table, keyed by node id (Figure 6); an element's
    // slot in the `value` column holds its first row (module docs) ----
    pub(crate) attr_node: CowVec<u64>,
    pub(crate) attr_qn: CowVec<QnId>,
    pub(crate) attr_prop: CowVec<PropId>,
    /// element name → element node ids (document order) — the access
    /// path behind cost-based axis selection (module [`crate::names`]).
    pub(crate) name_index: NameIndex,
    /// `(name, value)` → node ids — the access path behind cost-based
    /// value-predicate lowering (module [`crate::values`]).
    pub(crate) content_index: ContentIndex,
    pub(crate) pool: ValuePool,
    pub(crate) used_count: u64,
}

/// `node id → current pre` through a document's `node→pos` and
/// `pageOffset` tables, `None` for a dead id.
fn node_pre(map: &PageMap, node_pos: &CowVec<u32>, node: u64) -> Option<u64> {
    let pos = *node_pos.get(usize::try_from(node).ok()?)?;
    if pos == NO_POS {
        return None;
    }
    map.pos_to_pre(u64::from(pos))
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
    /// Bytes of the base table (its slots, page headers and page
    /// pointers), the level-summary column, both `pageOffset` columns,
    /// `node→pos` and the attribute table, from the widths of the
    /// columns as stored.
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
        drop(staged);
        doc.build_indexes();
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
            pages: CowDir::new(),
            min_levels: CowVec::new(SIDE_PAGE),
            map: PageMap::new(cfg.page_size),
            node_pos: CowVec::new(SIDE_PAGE),
            attr_node: CowVec::new(SIDE_PAGE),
            attr_qn: CowVec::new(SIDE_PAGE),
            attr_prop: CowVec::new(SIDE_PAGE),
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
        self.min_levels.push(NULL_LEVEL);
        Ok(self.map.append_page())
    }

    /// Appends a fresh physical page spliced into the logical order at
    /// logical index `at` (case 2b of Figure 7). Returns its physical id.
    pub(crate) fn splice_physical_page(&mut self, at: usize) -> Result<usize> {
        self.check_room_for_page()?;
        let page = self.map.insert_page_at(at);
        self.pages.insert(at, Page::unused(self.cfg.page_size));
        self.min_levels.insert(at, NULL_LEVEL);
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
        self.node_pos.grow_to(end as usize, NO_POS);
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
        let lp = self.logical(phys);
        let page = Page::make_mut(self.pages.leaf_mut(lp));
        let placed = page.fill(tuples);
        self.min_levels[lp] = page.rebuild_runs();
        let nodes = page.nodes();
        set_node_pos(
            &mut self.node_pos,
            placed,
            |i| nodes[i],
            |i| base + i as u32,
        )
    }

    /// Number of unused slots on physical page `page`.
    pub fn free_in_page(&self, page: usize) -> usize {
        self.page(page).free()
    }

    /// `(physical page, offset)` of the live node `node`.
    pub(crate) fn node_slot(&self, node: u64) -> Option<(usize, usize)> {
        let pos = self.pos_of_node(node)? as usize;
        Some((pos >> self.shift, pos & (self.cfg.page_size - 1)))
    }

    /// The attribute rows of element `node` whose slot holds `first`:
    /// from `first` up to where `attr_node` changes owner. (Empty for a
    /// non-element, whose node owns no rows.)
    pub(crate) fn attr_run(&self, node: u64, first: u32) -> Range<usize> {
        if first == NO_NAME {
            return 0..0;
        }
        let (start, mut end) = (first as usize, first as usize);
        while end < self.attr_node.len() && self.attr_node[end] == node {
            end += 1;
        }
        start..end
    }

    /// Adds an attribute row for the placed element `node` at the end
    /// of its run, first moving the run to the table's end if another
    /// run follows it (module docs).
    pub(crate) fn push_attr(&mut self, node: u64, qn: QnId, prop: PropId) {
        let (phys, i) = self.node_slot(node).expect("attribute owner is placed");
        let run = self.attr_run(node, self.page(phys).values()[i]);
        let end = self.attr_node.len();
        if run.is_empty() || run.end != end {
            let first = u32::try_from(end)
                .ok()
                .filter(|&r| r != NO_NAME)
                .expect("attr table overflow");
            for r in run {
                let (q, p) = (self.attr_qn[r], self.attr_prop[r]);
                self.push_row(node, q, p);
                self.attr_node[r] = DEAD_ROW;
            }
            self.page_mut(phys).cols_mut().values[i] = first;
        }
        self.push_row(node, qn, prop);
    }

    fn push_row(&mut self, node: u64, qn: QnId, prop: PropId) {
        self.attr_node.push(node);
        self.attr_qn.push(qn);
        self.attr_prop.push(prop);
    }

    /// `(physical page, offset)` of view position `pre` — the
    /// `pageOffset` swizzle, done once per access.
    #[inline]
    pub(crate) fn locate(&self, pre: u64) -> Option<(usize, usize)> {
        let phys = self.map.logical_to_physical((pre >> self.shift) as usize)?;
        Some((phys, pre as usize & (self.cfg.page_size - 1)))
    }

    /// The page holding view position `pre` and the slot's offset in it:
    /// the directory is in logical order, so no `pageOffset` lookup.
    #[inline]
    pub(crate) fn slot(&self, pre: u64) -> Option<(&Page, usize)> {
        let page = self.pages.get(usize::try_from(pre >> self.shift).ok()?)?;
        Some((page, pre as usize & (self.cfg.page_size - 1)))
    }

    /// Logical index of physical page `phys` (a `pageOffset` lookup).
    #[inline]
    pub(crate) fn logical(&self, phys: usize) -> usize {
        self.map.physical_to_logical(phys).expect("page exists")
    }

    /// Physical page `phys`.
    #[inline]
    pub(crate) fn page(&self, phys: usize) -> &Page {
        &self.pages[self.logical(phys)]
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
        let lp = self.logical(phys);
        Page::make_mut(self.pages.leaf_mut(lp))
    }

    /// Last used slot before view position `before` whose level is
    /// `< lvl` — the parent of a level-`lvl` node at `before` — skipping
    /// whole pages on the summary column like
    /// [`TreeView::next_at_level_or_above`].
    fn prev_used_below_level(&self, before: u64, lvl: u16) -> Option<u64> {
        let last = before.checked_sub(1)?;
        let (lp, len) = (
            (last >> self.shift) as usize,
            (last as usize & (self.cfg.page_size - 1)) + 1,
        );
        let hit = |l: &u16| *l < lvl;
        let page = self.pages.get(lp)?;
        if self.min_levels[lp] < lvl {
            if let Some(i) = page.levels()[..len].iter().rposition(hit) {
                return Some(((lp << self.shift) + i) as u64);
            }
        }
        let mut end = lp;
        loop {
            let q = self.min_levels.rposition_before(end, hit)?;
            if let Some(i) = self.pages[q].levels().iter().rposition(hit) {
                return Some(((q << self.shift) + i) as u64);
            }
            end = q;
        }
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
        Ok(self
            .map
            .pos_to_pre(u64::from(pos))
            .expect("a placed node's page exists"))
    }

    /// Translates a pre rank to the node id stored there.
    pub fn pre_to_node(&self, pre: u64) -> Result<NodeId> {
        self.node_id(pre).ok_or(StorageError::BadPre {
            pre,
            context: "resolving a node id",
        })
    }

    /// Builds the element-name and content indexes from a scan of the
    /// document (with the pool lent to the content index for the
    /// concatenated keys): shredding and checkpoint load.
    pub(crate) fn build_indexes(&mut self) {
        let elements = self.used_tuples().filter(|t| t.kind == Kind::Element);
        let named = elements.map(|t| Posting::new(QnId(t.name), 0, u64::from(t.node)));
        self.name_index = NameIndex::from_doc_order(named.collect());
        let mut pool = std::mem::take(&mut self.pool);
        self.content_index = ContentIndex::build_from_view(&*self, &mut pool);
        self.pool = pool;
    }

    /// The indexes, writable, beside the pool and the `node id → pre`
    /// translation they search by — borrowed apart, so an index can be
    /// written while it translates.
    pub(crate) fn indexes(
        &mut self,
    ) -> (
        &mut NameIndex,
        &mut ContentIndex,
        &ValuePool,
        impl Fn(u64) -> Option<u64> + Copy + '_,
    ) {
        let (map, node_pos) = (&self.map, &self.node_pos);
        (
            &mut self.name_index,
            &mut self.content_index,
            &self.pool,
            move |node| node_pre(map, node_pos, node),
        )
    }

    /// `node id → current pre`, `None` for dead ids.
    fn node_pre_opt(&self, node: u64) -> Option<u64> {
        node_pre(&self.map, &self.node_pos, node)
    }

    /// The used tuples in document (view) order, page by page.
    pub(crate) fn used_tuples(&self) -> impl Iterator<Item = Tuple> + '_ {
        self.pages
            .iter()
            .flat_map(move |page| page.used(0..self.cfg.page_size))
    }

    /// Occupancy statistics.
    pub fn stats(&self) -> PagedStats {
        use std::mem::size_of;
        let capacity = self.pre_end();
        let per_page = Page::header_bytes()
            + size_of::<u16>() // its level-summary entry
            + size_of::<Arc<Page>>()
            + 2 * size_of::<u32>(); // both pageOffset columns
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

    /// Rebuilds the attribute columns from the runs of the document-
    /// ordered `live` tuples, pointing their slots at the new runs:
    /// dead and unreached rows are dropped and the survivors renumbered
    /// (each run keeps its order). Used by vacuum, before `live` is
    /// laid out.
    pub(crate) fn rebuild_attr_table(&mut self, live: &mut [Tuple]) {
        let mut node = CowVec::new(SIDE_PAGE);
        let mut qn = CowVec::new(SIDE_PAGE);
        let mut prop = CowVec::new(SIDE_PAGE);
        for t in live.iter_mut().filter(|t| t.kind == Kind::Element) {
            let run = self.attr_run(u64::from(t.node), t.value);
            if !run.is_empty() {
                t.value = node.len() as u32; // fewer rows than before
            }
            for r in run {
                node.push(self.attr_node[r]);
                qn.push(self.attr_qn[r]);
                prop.push(self.attr_prop[r]);
            }
        }
        (self.attr_node, self.attr_qn, self.attr_prop) = (node, qn, prop);
    }

    /// `(shared, total)` [`Page`] counts against another version of the
    /// same document. After a copy-on-write commit, `total - shared` is
    /// exactly the number of logical pages the commit privatised (pages
    /// it appended included).
    pub fn shared_pages_with(&self, other: &PagedDoc) -> (usize, usize) {
        let fresh = unshared(&self.pages, &other.pages);
        let private = fresh.iter().filter(|b| b.level == Level::Leaf).count();
        (self.pages.len() - private, self.pages.len())
    }

    /// Visits every table of this version once, by name and columns:
    /// the one list the block walker reads.
    pub fn tables<'a>(&'a self, mut table: impl FnMut(&'static str, &[&'a dyn Blocks])) {
        let (names, named) = self.name_index.columns();
        let (attrs, texts) = (&self.content_index.attrs, &self.content_index.texts);
        let [(attr_arms, attr_counts), (text_arms, text_counts)] =
            [attrs, texts].map(|i| i.columns());
        table("pages", &[&self.pages]);
        table("level summaries", &[&self.min_levels]);
        table("page map", &[&self.map]);
        table("node→pos", &[&self.node_pos]);
        table(
            "attributes",
            &[&self.attr_node, &self.attr_qn, &self.attr_prop],
        );
        table("pool", &self.pool.columns());
        table("name index", &[names]);
        table("content arms", &[attr_arms, text_arms].concat());
        table(
            "counts",
            &[&[named][..], &attr_counts, &text_counts].concat(),
        );
    }

    /// The heap this version's tables hold, in bytes per table in
    /// [`PagedDoc::tables`] order, from the block walker: blocks shared
    /// with other versions count in full.
    pub fn heap_bytes(&self) -> Vec<(&'static str, usize)> {
        let mut heap = Vec::new();
        self.tables(|name, columns| {
            let mut bytes = 0;
            for column in columns {
                column.blocks(&mut |b| bytes += b.bytes);
            }
            heap.push((name, bytes));
        });
        heap
    }
}

/// Points the `node→pos` entry of node `node(i)` at `pos(i)` for every
/// `i < n`, privatising each `node→pos` page once for the run of
/// consecutive nodes it holds, and only if one of their entries
/// changes. Returns how many entries changed.
pub(crate) fn set_node_pos(
    node_pos: &mut CowVec<u32>,
    n: usize,
    node: impl Fn(usize) -> u32,
    pos: impl Fn(usize) -> u32,
) -> u64 {
    let per_page = node_pos.page_size();
    let page_of = |i| node(i) as usize / per_page;
    let mut changed = 0;
    let mut i = 0;
    while i < n {
        let page = page_of(i);
        let end = (i + 1..n).find(|&s| page_of(s) != page).unwrap_or(n);
        let stale = (i..end)
            .filter(|&s| node_pos[node(s) as usize] != pos(s))
            .count();
        if stale > 0 {
            let entries = node_pos.page_mut(page);
            for s in i..end {
                entries[node(s) as usize % per_page] = pos(s);
            }
            changed += stale as u64;
        }
        i = end;
    }
    changed
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
        match self.used_slot(pre) {
            Some((page, i)) if page.kind(i) == Some(Kind::Element) => self
                .attr_run(u64::from(page.nodes()[i]), page.values()[i])
                .map(|r| (self.attr_qn[r], self.attr_prop[r]))
                .collect(),
            _ => Vec::new(),
        }
    }

    /// Searches the element's attribute run in place, with no `Vec`.
    fn attr_str(&self, pre: u64, qn: QnId) -> Option<&str> {
        let (page, i) = self.used_slot(pre)?;
        if page.kind(i) != Some(Kind::Element) {
            return None;
        }
        let row = self
            .attr_run(u64::from(page.nodes()[i]), page.values()[i])
            .find(|&r| self.attr_qn[r] == qn)?;
        self.pool.prop(self.attr_prop[row])
    }

    fn pool(&self) -> &ValuePool {
        &self.pool
    }

    fn used_count(&self) -> u64 {
        self.used_count
    }

    fn elements_named_in(&self, qn: QnId, lo: u64, hi: u64) -> Option<Cow<'_, [u64]>> {
        let pres = self
            .name_index
            .pres_in((qn, 0), lo, hi, |node| self.node_pre_opt(node));
        Some(Cow::Owned(pres))
    }

    fn elements_named_count(&self, qn: QnId) -> Option<u64> {
        Some(self.name_index.count_named(qn))
    }

    fn has_content_index(&self) -> bool {
        true
    }

    fn nodes_with_attr_value(&self, attr: QnId, value: &str) -> Option<Vec<u64>> {
        Some(
            self.content_index
                .attr_eq(&self.pool, attr, value, |node| self.node_pre_opt(node)),
        )
    }

    fn nodes_with_attr_value_range(&self, attr: QnId, range: &NumRange) -> Option<Vec<u64>> {
        Some(
            self.content_index
                .attr_range(attr, range, |node| self.node_pre_opt(node)),
        )
    }

    fn nodes_with_attr_value_count(&self, attr: QnId, value: &str) -> Option<u64> {
        Some(self.content_index.attr_eq_count(&self.pool, attr, value))
    }

    fn nodes_with_attr_value_range_count(&self, attr: QnId, range: &NumRange) -> Option<u64> {
        Some(self.content_index.attr_range_count(attr, range))
    }

    fn elements_with_text(&self, qn: QnId, value: &str) -> Option<TextProbe> {
        Some(
            self.content_index
                .text_eq(&self.pool, qn, value, |node| self.node_pre_opt(node)),
        )
    }

    fn elements_with_text_range(&self, qn: QnId, range: &NumRange) -> Option<TextProbe> {
        Some(
            self.content_index
                .text_range(qn, range, |node| self.node_pre_opt(node)),
        )
    }

    fn elements_with_text_count(&self, qn: QnId, value: &str) -> Option<u64> {
        Some(self.content_index.text_eq_count(&self.pool, qn, value))
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

    /// After the rest of `from`'s page, the pages whose level summary is
    /// above `lvl` are skipped by a scan of the summary column, and only
    /// the page it stops at is loaded. (Unused slots are NULL — above
    /// every level — in the `level` column, so the scans need no
    /// liveness test.)
    fn next_at_level_or_above(&self, from: u64, lvl: u16) -> u64 {
        let (lp, offset) = (
            (from >> self.shift) as usize,
            from as usize & (self.cfg.page_size - 1),
        );
        let hit = |l: &u16| *l <= lvl;
        if lp < self.pages.len() && self.min_levels[lp] <= lvl {
            if let Some(i) = self.pages[lp].levels()[offset..].iter().position(hit) {
                return ((lp << self.shift) + offset + i) as u64;
            }
        }
        let mut from = lp + 1;
        while let Some(q) = self.min_levels.position_from(from, hit) {
            if let Some(i) = self.pages[q].levels().iter().position(hit) {
                return ((q << self.shift) + i) as u64;
            }
            from = q + 1;
        }
        self.pre_end()
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
        let boundary = self.next_at_level_or_above(hop, page.levels()[i]);
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

    /// Physical pages of `new` not shared with `old`, from the blocks
    /// of `new`'s page table that `old` does not hold.
    fn privatised(new: &PagedDoc, old: &PagedDoc) -> Vec<usize> {
        let fresh = unshared(&new.pages, &old.pages);
        let logical = fresh.iter().filter(|b| b.level == Level::Leaf);
        let mut phys: Vec<usize> = logical
            .map(|b| new.map.logical_to_physical(b.index).unwrap())
            .collect();
        phys.sort_unstable();
        phys
    }

    /// `(shared, total)` chunks of `new`'s page table against `old`'s.
    fn shared_chunks(new: &PagedDoc, old: &PagedDoc) -> (usize, usize) {
        let mut total = 0;
        new.pages
            .blocks(&mut |b| total += usize::from(b.level == Level::Chunk));
        let fresh = unshared(&new.pages, &old.pages);
        let private = fresh.iter().filter(|b| b.level == Level::Chunk).count();
        (total - private, total)
    }

    /// `(owned, total)` chunks of `d`'s page table: `owned` counts those
    /// no other version holds, which are what dropping `d` releases
    /// (none while another version shares the whole directory).
    fn chunks_held_alone(d: &PagedDoc) -> (usize, usize) {
        let (mut directory, mut owned, mut total) = (0, 0, 0);
        d.pages.blocks(&mut |b| match b.level {
            Level::Directory => directory = b.owners,
            Level::Chunk => {
                total += 1;
                owned += usize::from(directory == 1 && b.owners == 1);
            }
            Level::Leaf => {}
        });
        (owned, total)
    }

    /// A document of `pages` pages, each holding `<e/>` elements only.
    fn paged_doc(pages: usize) -> PagedDoc {
        let cfg = PageConfig::new(4, 75).unwrap(); // three nodes a page
        let xml = format!("<a>{}</a>", "<e/>".repeat(pages * 3 - 1));
        let d = PagedDoc::parse_str(&xml, cfg).unwrap();
        assert_eq!(d.stats().pages, pages);
        d
    }

    #[test]
    fn a_fresh_clone_shares_every_page() {
        let d = paged_doc(2 * mbxq_bat::FANOUT + 3);
        let c = d.clone();
        let n = d.stats().pages;
        assert_eq!(c.shared_pages_with(&d), (n, n));
        assert!(privatised(&c, &d).is_empty());
        // So is every block of every other table, the page map's too.
        let mut base = Vec::new();
        d.tables(|_, columns| base.push(columns.to_vec()));
        let mut t = 0;
        c.tables(|name, columns| {
            for (new, old) in columns.iter().zip(&base[t]) {
                assert!(unshared(*new, *old).is_empty(), "{name}");
            }
            t += 1;
        });
        // The clone holds the directory, not the chunks or the pages:
        // dropping either version releases nothing the other needs.
        assert_eq!(shared_chunks(&c, &d), (3, 3));
        assert_eq!(chunks_held_alone(&d), (0, 3));
        drop(c);
        assert_eq!(chunks_held_alone(&d), (3, 3));
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
        // The one chunk holding all three pages was privatised with the
        // write; `base` owns its own chunk alone again.
        assert_eq!(shared_chunks(&d, &base), (0, 1));
        assert_eq!(chunks_held_alone(&base), (1, 1));
        crate::invariants::check_paged(&d).unwrap();
        crate::invariants::check_paged(&base).unwrap();
        assert_eq!(base.string_value(0), "onetwothreefour");
        assert_eq!(d.string_value(0), "onetwothree4");
    }

    #[test]
    fn a_value_update_leaves_every_other_chunk_shared() {
        let base = paged_doc(3 * mbxq_bat::FANOUT);
        let mut d = base.clone();
        // A text-less document: rename the first element of page 40.
        let pre = (40 << base.shift) as u64;
        let node = d.pre_to_node(pre).unwrap();
        d.rename(node, &mbxq_xml::QName::local("r")).unwrap();
        assert_eq!(privatised(&d, &base), [40]);
        assert_eq!(shared_chunks(&d, &base), (2, 3));
        assert_eq!(chunks_held_alone(&d), (1, 3));
        crate::invariants::check_paged(&d).unwrap();
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

    /// `d` with only the per-slot accessors: the trait's default
    /// `region_end`/`parent_of`, which walk slot by slot.
    struct DefaultWalk<'a>(&'a PagedDoc);

    impl TreeView for DefaultWalk<'_> {
        fn pre_end(&self) -> u64 {
            self.0.pre_end()
        }
        fn level(&self, pre: u64) -> Option<u16> {
            self.0.level(pre)
        }
        fn size(&self, pre: u64) -> u64 {
            TreeView::size(self.0, pre)
        }
        fn kind(&self, pre: u64) -> Option<Kind> {
            self.0.kind(pre)
        }
        fn name_id(&self, pre: u64) -> Option<QnId> {
            self.0.name_id(pre)
        }
        fn value_ref(&self, pre: u64) -> Option<ValueRef> {
            self.0.value_ref(pre)
        }
        fn node_id(&self, pre: u64) -> Option<NodeId> {
            self.0.node_id(pre)
        }
        fn back_run(&self, pre: u64) -> u64 {
            self.0.back_run(pre)
        }
        fn attributes(&self, pre: u64) -> Vec<(QnId, PropId)> {
            self.0.attributes(pre)
        }
        fn pool(&self) -> &ValuePool {
            self.0.pool()
        }
        fn used_count(&self) -> u64 {
            self.0.used_count()
        }
    }

    /// The summary column follows a page spliced into the middle of the
    /// logical order and a page a delete empties: the summary walks
    /// still equal the slot-by-slot walks for every node.
    #[test]
    fn summary_walks_survive_a_mid_order_splice_and_an_emptied_page() {
        // Four nodes a page: a b c d | e f g h | i j.
        let mut d = PagedDoc::parse_str(
            "<a><b/><c/><d/><e><f/><g/><h/></e><i><j/></i></a>",
            PageConfig::new(8, 50).unwrap(),
        )
        .unwrap();
        // Six nodes under c overflow page 0: two spill into a page
        // spliced in at logical index 1.
        let c = d.pre_to_node(2).unwrap();
        let sub = Document::parse_fragment("<x><y/><y/><y/><y/><y/></x>").unwrap();
        let report = d
            .insert(crate::InsertPosition::LastChildOf(c), &sub)
            .unwrap();
        assert_eq!(report.pages_added, 1);
        assert_eq!(d.map.logical_to_physical(1), Some(3), "spliced mid-order");
        // e, f, g, h were page 1 (now logical 2): deleting e empties it.
        let e = d.pre_to_node(16).unwrap();
        assert_eq!(d.delete(e).unwrap().deleted, 4);
        assert_eq!(d.free_in_page(1), 8);
        assert_eq!(
            d.min_levels.iter().copied().collect::<Vec<_>>(),
            [0, 1, NULL_LEVEL, 1]
        );
        crate::invariants::check_paged(&d).unwrap();
        let reference = DefaultWalk(&d);
        let mut p = 0;
        let mut seen = 0;
        while let Some(q) = d.next_used_at_or_after(p) {
            assert_eq!(d.region_end(q), reference.region_end(q), "region_end({q})");
            assert_eq!(d.parent_of(q), reference.parent_of(q), "parent_of({q})");
            seen += 1;
            p = q + 1;
        }
        assert_eq!(seen, 12);
        // i (pre 24) finds its parent a across the emptied page and the
        // spliced one.
        assert_eq!(d.parent_of(24), Some(0));
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
        // Header, summary entry, the (fat) page pointer, both directions
        // of pageOffset at the width of `node→pos`.
        let per_page =
            size_of::<u32>() + size_of::<u16>() + size_of::<Arc<Page>>() + 2 * size_of::<u32>();
        assert_eq!(per_page, 30);
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
        let sub = crate::Fragment::of(&Document::parse_fragment("<k/>").unwrap());
        // Ids `2³²−2..2³²−1` would make 2³²−1 node ids.
        assert_eq!(
            d.insert_fragment(crate::InsertPosition::LastChildOf(g), &sub, too_many - 1),
            Err(too_large("node ids"))
        );
        assert_eq!(d.reserve_node_ids(too_many), Err(too_large("node ids")));
        assert_eq!(
            PagedDoc::from_checkpoint_dump("E 0 0 1:a ", d.config(), too_many, 1).unwrap_err(),
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
            PagedDoc::from_checkpoint_dump("E 0 65535 1:a ", d.config(), 5, 1).unwrap_err(),
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
