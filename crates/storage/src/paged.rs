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
//! pays (the ancestor size deltas walk `parent_of` to the root). The
//! document therefore keeps, per logical page, the **minimum level of
//! the page's used slots** (4 bytes; "no bound" for a page with none),
//! rebuilt in the same per-page pass that rebuilds the unused-run
//! encodings. [`TreeView::region_end`] scans the rest of the page the
//! hop landed in for the first used slot with `level <= level(pre)`,
//! then skips whole pages whose summary is above `level(pre)` in
//! logical order through the `pageOffset` table, then scans inside the
//! first page that can hold the boundary; [`TreeView::parent_of`] is the
//! mirror image going backward. Both are O(pages spanned + page size) —
//! the order of the `pageOffset` splice the paper already accepts —
//! and a position is *computed* from a small aggregate instead of
//! *found* by walking tuples.
//!
//! # Copy-on-write column layout
//!
//! Every column is a [`CowVec`]/[`CowNullable`]: logical pages of values
//! behind shared reference-counted pointers. `PagedDoc::clone` therefore
//! copies only page *pointers* (plus the pool's and attribute index's
//! small deltas), and a write privatizes exactly the page it lands in.
//! This is the in-memory equivalent of MonetDB's copy-on-write memory
//! maps (§3.2): a transaction commit builds its new version by cloning
//! the current one and applying its operations, paying O(pages touched +
//! ancestors delta-adjusted) instead of O(document), and publishes it by
//! swapping one `Arc` under the store's short global lock.

use crate::names::NameIndex;
use crate::types::{Kind, NodeId, PageConfig, StorageError, ValueRef};
use crate::values::{ContentIndex, NumRange, PropId, QnId, TextProbe, ValuePool};
use crate::view::TreeView;
use crate::Result;
use mbxq_bat::{CowNullable, CowVec, PageMap};
use mbxq_xml::{Document, Node};
use std::collections::HashMap;
use std::sync::Arc;

/// Sentinel stored in the `name` column of non-element used tuples.
pub(crate) const NO_NAME: u32 = u32::MAX;
/// Sentinel stored in the `node` column of unused tuples.
pub(crate) const NO_NODE: u64 = u64::MAX;
/// Level summary of a page with no used slot: "no bound" — above every
/// real level, so both region walks skip the page.
pub(crate) const NO_LEVEL: u32 = u32::MAX;

/// Staged tuple data, used while shredding and while preparing inserts.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tuple {
    pub size: u64,
    pub level: u16,
    pub kind: Kind,
    pub name: u32,
    pub value: u32,
    pub node: u64,
}

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
    // ---- base table, indexed by physical pos ----
    pub(crate) size: CowVec<u64>,
    pub(crate) level: CowVec<u16>,
    /// Whether the slot holds a node (`level = NULL` ⇔ `!used`).
    pub(crate) used: CowVec<bool>,
    pub(crate) kind: CowVec<Kind>,
    /// `qn` id for elements; 1-based backward run index for unused slots.
    pub(crate) name: CowVec<u32>,
    pub(crate) value: CowVec<u32>,
    pub(crate) node: CowVec<u64>,
    /// The `pageOffset` table: logical order of physical pages.
    pub(crate) pages: PageMap,
    /// Per-page **level summary**, indexed by physical page: the minimum
    /// `level` over the page's used slots ([`NO_LEVEL`] when it has
    /// none). Maintained by [`PagedDoc::rebuild_runs_in_page`], the one
    /// hook every page mutation ends in; `region_end`/`parent_of` skip
    /// whole pages on it (see the module docs).
    pub(crate) page_min_level: CowVec<u32>,
    /// node id → physical pos (NULL = deleted node).
    pub(crate) node_pos: CowNullable<u64>,
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

    /// A clone sharing no storage (the clone-the-world baseline).
    pub(crate) fn deep_clone(&self) -> AttrIndex {
        AttrIndex {
            base: Arc::new((*self.base).clone()),
            delta: self.delta.clone(),
        }
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
            base.entry(QnId(t.name)).or_default().push(t.node);
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
    /// Approximate bytes of the tree + node/pos + attr tables.
    pub table_bytes: usize,
}

impl PagedDoc {
    /// Shreds XML text into the paged encoding.
    pub fn parse_str(input: &str, cfg: PageConfig) -> Result<Self> {
        let doc = Document::parse(input).map_err(|e| StorageError::InvalidTarget {
            message: format!("XML parse: {e}"),
        })?;
        Self::from_tree(&doc.root, cfg)
    }

    /// Shreds an owned tree into the paged encoding, leaving
    /// `100 - fill_percent` percent of every page unused (§3: "the
    /// document shredder already leaves a certain (configurable)
    /// percentage of tuples unused in each logical page").
    pub fn from_tree(root: &Node, cfg: PageConfig) -> Result<Self> {
        let mut doc = Self::empty(cfg)?;
        // Stage the whole tuple stream first (sizes require postorder),
        // then lay out page by page.
        let mut staged = Vec::with_capacity(root.tuple_count() as usize);
        let mut attrs = Vec::new();
        doc.stage_subtree(root, 0, &mut staged, &mut attrs);
        let fill = cfg.fill_target();
        for chunk in staged.chunks(fill) {
            let page = doc.append_physical_page();
            let base = page * cfg.page_size;
            for (i, t) in chunk.iter().enumerate() {
                doc.write_tuple(base + i, *t);
                doc.node_pos.append(Some((base + i) as u64));
            }
            doc.rebuild_runs_in_page(page);
        }
        if staged.is_empty() {
            // An element-only root always stages at least one tuple, so
            // this cannot happen for parsed documents.
            return Err(StorageError::InvalidTarget {
                message: "cannot shred an empty tree".into(),
            });
        }
        doc.used_count = staged.len() as u64;
        for (node, qn, prop) in attrs {
            doc.push_attr(node, qn, prop);
        }
        doc.name_index = NameIndex::from_base(name_index_base(&staged));
        doc.content_index = ContentIndex::build_from_view(&doc);
        // Fold the shredder's interning burst into the shared bases, so
        // subsequent clones (reader snapshots, commit versions) carry
        // empty deltas.
        doc.pool.compact();
        doc.attr_index.compact();
        Ok(doc)
    }

    /// An empty document skeleton with validated configuration.
    pub(crate) fn empty(cfg: PageConfig) -> Result<Self> {
        PageConfig::new(cfg.page_size, cfg.fill_percent)?;
        Ok(PagedDoc {
            cfg,
            shift: cfg.page_size.trailing_zeros(),
            size: CowVec::new(cfg.page_size),
            level: CowVec::new(cfg.page_size),
            used: CowVec::new(cfg.page_size),
            kind: CowVec::new(cfg.page_size),
            name: CowVec::new(cfg.page_size),
            value: CowVec::new(cfg.page_size),
            node: CowVec::new(cfg.page_size),
            pages: PageMap::new(cfg.page_size),
            page_min_level: CowVec::new(SIDE_PAGE),
            node_pos: CowNullable::new(SIDE_PAGE),
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
        self.node_pos.hseqend()
    }

    /// Recursively stages `node` and its subtree with ids continuing the
    /// current allocation; returns the number of staged tuples. Node ids
    /// are allocated in document order, so at shredding time node ==
    /// pos-rank (§3.1).
    pub(crate) fn stage_subtree(
        &mut self,
        node: &Node,
        level: u16,
        out: &mut Vec<Tuple>,
        attrs: &mut Vec<(u64, QnId, PropId)>,
    ) -> u64 {
        let base = self.node_pos.hseqend();
        self.stage_subtree_with_base(node, level, base, out, attrs)
    }

    /// Recursively stages `node` and its subtree with ids starting at
    /// `base + out.len()`.
    pub(crate) fn stage_subtree_with_base(
        &mut self,
        node: &Node,
        level: u16,
        base: u64,
        out: &mut Vec<Tuple>,
        attrs: &mut Vec<(u64, QnId, PropId)>,
    ) -> u64 {
        let node_id = base + out.len() as u64;
        match node {
            Node::Element {
                name,
                attributes,
                children,
            } => {
                let qn = self.pool.intern_qname(name);
                let idx = out.len();
                out.push(Tuple {
                    size: 0,
                    level,
                    kind: Kind::Element,
                    name: qn.0,
                    value: NO_NAME,
                    node: node_id,
                });
                for (aname, avalue) in attributes {
                    let aqn = self.pool.intern_qname(aname);
                    let prop = self.pool.intern_prop(avalue);
                    attrs.push((node_id, aqn, prop));
                }
                let mut sz = 0;
                for c in children {
                    sz += self.stage_subtree_with_base(c, level + 1, base, out, attrs);
                }
                out[idx].size = sz;
                sz + 1
            }
            Node::Text(t) => {
                let v = self.pool.intern_text(t);
                out.push(Tuple {
                    size: 0,
                    level,
                    kind: Kind::Text,
                    name: NO_NAME,
                    value: v,
                    node: node_id,
                });
                1
            }
            Node::Comment(c) => {
                let v = self.pool.intern_comment(c);
                out.push(Tuple {
                    size: 0,
                    level,
                    kind: Kind::Comment,
                    name: NO_NAME,
                    value: v,
                    node: node_id,
                });
                1
            }
            Node::ProcessingInstruction { target, data } => {
                let v = self.pool.intern_instruction(target, data);
                out.push(Tuple {
                    size: 0,
                    level,
                    kind: Kind::ProcessingInstruction,
                    name: NO_NAME,
                    value: v,
                    node: node_id,
                });
                1
            }
        }
    }

    /// Appends a fresh physical page (all slots unused) at the end of the
    /// logical order, growing every base column. Returns its physical id.
    pub(crate) fn append_physical_page(&mut self) -> usize {
        let page = self.pages.append_page();
        self.grow_columns();
        page
    }

    /// Appends a fresh physical page spliced into the logical order at
    /// logical index `at` (case 2b of Figure 7). Returns its physical id.
    pub(crate) fn splice_physical_page(&mut self, at: usize) -> Result<usize> {
        let page = self.pages.insert_page_at(at)?;
        self.grow_columns();
        Ok(page)
    }

    fn grow_columns(&mut self) {
        // Column lengths are always a page multiple, so growth appends
        // fresh private pages and never touches shared ones.
        let new_len = self.size.len() + self.cfg.page_size;
        self.size.resize(new_len, 0);
        self.level.resize(new_len, 0);
        self.used.resize(new_len, false);
        self.kind.resize(new_len, Kind::Element);
        self.name.resize(new_len, 0);
        self.value.resize(new_len, NO_NAME);
        self.node.resize(new_len, NO_NODE);
        self.page_min_level.push(NO_LEVEL);
    }

    /// Writes a staged tuple at physical position `pos`.
    pub(crate) fn write_tuple(&mut self, pos: usize, t: Tuple) {
        self.size[pos] = t.size;
        self.level[pos] = t.level;
        self.used[pos] = true;
        self.kind[pos] = t.kind;
        self.name[pos] = t.name;
        self.value[pos] = t.value;
        self.node[pos] = t.node;
    }

    /// Reads the staged form of the used tuple at physical `pos`.
    pub(crate) fn read_tuple(&self, pos: usize) -> Tuple {
        debug_assert!(self.used[pos]);
        Tuple {
            size: self.size[pos],
            level: self.level[pos],
            kind: self.kind[pos],
            name: self.name[pos],
            value: self.value[pos],
            node: self.node[pos],
        }
    }

    /// Marks physical `pos` unused. Run encodings must be rebuilt for the
    /// page afterwards.
    pub(crate) fn clear_slot(&mut self, pos: usize) {
        self.used[pos] = false;
        self.node[pos] = NO_NODE;
        self.size[pos] = 0;
        self.name[pos] = 0;
        self.value[pos] = NO_NAME;
        self.level[pos] = 0;
    }

    /// Recomputes the derived per-page state of one physical page: the
    /// unused-run encodings — for each unused slot, `size` = remaining
    /// consecutive unused slots in the page including itself, `name` =
    /// 1-based index within the run (backward skip support) — and the
    /// page's level summary. Runs never cross page boundaries — page
    /// maintenance stays local to the touched page.
    pub(crate) fn rebuild_runs_in_page(&mut self, page: usize) {
        let base = page * self.cfg.page_size;
        let end = base + self.cfg.page_size;
        let mut min_level = NO_LEVEL;
        let mut i = base;
        while i < end {
            if self.used[i] {
                min_level = min_level.min(u32::from(self.level[i]));
                i += 1;
                continue;
            }
            let run_start = i;
            while i < end && !self.used[i] {
                i += 1;
            }
            let run_end = i;
            for (k, pos) in (run_start..run_end).enumerate() {
                self.size[pos] = (run_end - pos) as u64;
                self.name[pos] = (k + 1) as u32;
                self.node[pos] = NO_NODE;
            }
        }
        // Compare first: an unchanged summary must not privatize its
        // (shared, copy-on-write) summary page.
        if self.page_min_level[page] != min_level {
            self.page_min_level[page] = min_level;
        }
    }

    /// Number of unused slots on physical page `page`.
    pub fn free_in_page(&self, page: usize) -> usize {
        let base = page * self.cfg.page_size;
        (base..base + self.cfg.page_size)
            .filter(|&p| !self.used[p])
            .count()
    }

    /// Adds an attribute row for `node`.
    pub(crate) fn push_attr(&mut self, node: u64, qn: QnId, prop: PropId) {
        let row = u32::try_from(self.attr_node.len()).expect("attr table overflow");
        self.attr_node.push(node);
        self.attr_qn.push(qn);
        self.attr_prop.push(prop);
        self.attr_index.push_row(node, row);
    }

    /// First used slot at or after view position `from` whose level is
    /// `<= lvl` — where a region of that level ends — or `pre_end()`.
    /// Pages whose level summary is above `lvl` are skipped without
    /// looking at their slots.
    fn next_used_at_level_or_above(&self, from: u64, lvl: u16) -> u64 {
        let page_size = self.cfg.page_size;
        let mut offset = from as usize & (page_size - 1);
        for lp in (from >> self.shift) as usize..self.pages.num_pages() {
            let phys = self.pages.logical_to_physical(lp).expect("page in range");
            if self.page_min_level[phys] <= u32::from(lvl) {
                let (start, end) = (phys * page_size + offset, (phys + 1) * page_size);
                let used = self.used.run_at(start, end);
                let levels = self.level.run_at(start, end);
                if let Some(i) = (0..used.len()).find(|&i| used[i] && levels[i] <= lvl) {
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
        let page_size = self.cfg.page_size;
        let last = before.checked_sub(1)?;
        let mut len = (last as usize & (page_size - 1)) + 1;
        for lp in (0..=(last >> self.shift) as usize).rev() {
            let phys = self.pages.logical_to_physical(lp).ok()?;
            if self.page_min_level[phys] < u32::from(lvl) {
                let start = phys * page_size;
                let used = self.used.run_at(start, start + len);
                let levels = self.level.run_at(start, start + len);
                if let Some(i) = (0..used.len()).rev().find(|&i| used[i] && levels[i] < lvl) {
                    return Some(((lp << self.shift) + i) as u64);
                }
            }
            len = page_size;
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

    /// Translates a node id to its current pre rank, via the `node→pos`
    /// table and the `pageOffset` swizzle (§3.1).
    pub fn node_to_pre(&self, node: NodeId) -> Result<u64> {
        let pos = self
            .node_pos
            .get(node.0)
            .map_err(|_| StorageError::BadNode { node })?
            .ok_or(StorageError::BadNode { node })?;
        Ok(self.pages.pos_to_pre(pos)?)
    }

    /// Translates a pre rank to the node id stored there.
    pub fn pre_to_node(&self, pre: u64) -> Result<NodeId> {
        let pos = self.pages.pre_to_pos(pre)? as usize;
        if !self.used[pos] {
            return Err(StorageError::BadPre {
                pre,
                context: "resolving a node id",
            });
        }
        Ok(NodeId(self.node[pos]))
    }

    /// Physical position of a view position.
    #[inline]
    pub(crate) fn pos_of_pre(&self, pre: u64) -> Option<usize> {
        self.pages.pre_to_pos(pre).ok().map(|p| p as usize)
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
        let pos = self.node_pos.get(node).ok().flatten()?;
        self.pages.pos_to_pre(pos).ok()
    }

    /// Occupancy statistics.
    pub fn stats(&self) -> PagedStats {
        let capacity = self.size.len() as u64;
        PagedStats {
            pages: self.pages.num_pages(),
            capacity,
            used: self.used_count,
            unused: capacity - self.used_count,
            table_bytes: self.size.len() * (8 + 2 + 1 + 1 + 4 + 4 + 8)
                + self.node_pos.len() * 9
                + self.attr_node.len() * (8 + 4 + 4)
                + self.pages.num_pages() * (8 + 4),
        }
    }

    /// Allocates a fresh immutable node id (appending a NULL `node→pos`
    /// entry that the caller must fill).
    pub(crate) fn alloc_node_id(&mut self) -> u64 {
        self.node_pos.append(None)
    }

    /// Updates the `node→pos` entry of `node` after its tuple moved.
    pub(crate) fn set_node_pos(&mut self, node: u64, pos: Option<u64>) {
        self.node_pos
            .set(node, pos)
            .expect("node id allocated before use");
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

    /// `(shared, total)` page counts across the seven base-table columns
    /// against another version of the same document. After a
    /// copy-on-write commit, `total - shared` is exactly the number of
    /// column pages the commit privatized.
    pub fn shared_pages_with(&self, other: &PagedDoc) -> (usize, usize) {
        let shared = self.size.shared_pages_with(&other.size)
            + self.level.shared_pages_with(&other.level)
            + self.used.shared_pages_with(&other.used)
            + self.kind.shared_pages_with(&other.kind)
            + self.name.shared_pages_with(&other.name)
            + self.value.shared_pages_with(&other.value)
            + self.node.shared_pages_with(&other.node);
        let total = self.size.num_pages()
            + self.level.num_pages()
            + self.used.num_pages()
            + self.kind.num_pages()
            + self.name.num_pages()
            + self.value.num_pages()
            + self.node.num_pages();
        (shared, total)
    }

    /// A copy sharing **no** storage with `self` — what `clone` used to
    /// mean before the copy-on-write layout. The commit-cost benchmark
    /// uses it as the clone-the-world baseline; it is never on a
    /// production path.
    pub fn deep_clone(&self) -> PagedDoc {
        PagedDoc {
            cfg: self.cfg,
            shift: self.shift,
            size: self.size.deep_clone(),
            level: self.level.deep_clone(),
            used: self.used.deep_clone(),
            kind: self.kind.deep_clone(),
            name: self.name.deep_clone(),
            value: self.value.deep_clone(),
            node: self.node.deep_clone(),
            pages: self.pages.clone(),
            page_min_level: self.page_min_level.deep_clone(),
            node_pos: self.node_pos.deep_clone(),
            attr_node: self.attr_node.deep_clone(),
            attr_qn: self.attr_qn.deep_clone(),
            attr_prop: self.attr_prop.deep_clone(),
            attr_index: self.attr_index.deep_clone(),
            name_index: self.name_index.deep_clone(),
            content_index: self.content_index.deep_clone(),
            pool: self.pool.deep_clone(),
            used_count: self.used_count,
        }
    }
}

impl TreeView for PagedDoc {
    fn pre_end(&self) -> u64 {
        self.size.len() as u64
    }

    fn level(&self, pre: u64) -> Option<u16> {
        let pos = self.pos_of_pre(pre)?;
        if self.used[pos] {
            Some(self.level[pos])
        } else {
            None
        }
    }

    fn size(&self, pre: u64) -> u64 {
        match self.pos_of_pre(pre) {
            Some(pos) => self.size[pos],
            None => 0,
        }
    }

    fn kind(&self, pre: u64) -> Option<Kind> {
        let pos = self.pos_of_pre(pre)?;
        if self.used[pos] {
            Some(self.kind[pos])
        } else {
            None
        }
    }

    fn name_id(&self, pre: u64) -> Option<QnId> {
        let pos = self.pos_of_pre(pre)?;
        if self.used[pos] && self.kind[pos] == Kind::Element {
            Some(QnId(self.name[pos]))
        } else {
            None
        }
    }

    fn value_ref(&self, pre: u64) -> Option<ValueRef> {
        let pos = self.pos_of_pre(pre)?;
        if self.used[pos] && self.kind[pos] != Kind::Element {
            Some(ValueRef(self.value[pos]))
        } else {
            None
        }
    }

    fn node_id(&self, pre: u64) -> Option<NodeId> {
        let pos = self.pos_of_pre(pre)?;
        if self.used[pos] {
            Some(NodeId(self.node[pos]))
        } else {
            None
        }
    }

    fn back_run(&self, pre: u64) -> u64 {
        match self.pos_of_pre(pre) {
            Some(pos) if !self.used[pos] => self.name[pos] as u64,
            _ => 0,
        }
    }

    fn attributes(&self, pre: u64) -> Vec<(QnId, PropId)> {
        let Some(pos) = self.pos_of_pre(pre) else {
            return Vec::new();
        };
        if !self.used[pos] {
            return Vec::new();
        }
        match self.attr_index.get(self.node[pos]) {
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

    fn elements_named(&self, qn: QnId) -> Option<Vec<u64>> {
        Some(
            self.name_index
                .nodes_by_pre(qn, |node| self.node_pre_opt(node))
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

    /// O(pages spanned + page size): hop over the region by `size`
    /// (exact when the region has no unused slot, short otherwise —
    /// `size` counts used tuples only), then finish on the page level
    /// summaries instead of one small subtree at a time.
    fn region_end(&self, pre: u64) -> u64 {
        let Some(pos) = self.pos_of_pre(pre).filter(|&pos| self.used[pos]) else {
            return pre + 1;
        };
        let lvl = self.level[pos];
        let boundary = self.next_used_at_level_or_above(pre + self.size[pos] + 1, lvl);
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
        let total = self.pre_end();
        if pre >= total {
            return None;
        }
        // Physical positions are contiguous only within one logical
        // page (every page occupies exactly `page_size` column slots;
        // the PageMap permutes whole pages), so the chunk stops at the
        // page boundary and the caller loops.
        let page_end = ((pre >> self.shift) + 1) << self.shift;
        let chunk_end = end.min(total).min(page_end);
        if pre >= chunk_end {
            return None;
        }
        let pos = self.pos_of_pre(pre)?;
        let len = (chunk_end - pre) as usize;
        Some(crate::view::PreChunk {
            pre,
            used: Some(self.used.run_at(pos, pos + len)),
            kinds: self.kind.run_at(pos, pos + len),
            levels: self.level.run_at(pos, pos + len),
            names: self.name.run_at(pos, pos + len),
            sizes: self.size.run_at(pos, pos + len),
            values: self.value.run_at(pos, pos + len),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn single_page_small_doc() {
        let cfg = PageConfig::default();
        let d = PagedDoc::parse_str("<r><x/></r>", cfg).unwrap();
        assert_eq!(d.stats().pages, 1);
        assert_eq!(d.stats().used, 2);
        assert_eq!(d.root_pre(), Some(0));
    }
}
