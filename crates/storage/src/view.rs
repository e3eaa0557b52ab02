//! The uniform pre-plane interface both storage schemas expose.
//!
//! The paper's central engineering trick is that the query processor
//! (staircase join) runs **unmodified** on the updateable schema because
//! the memory-mapped view re-creates a `pre/size/level` table (§4). We
//! capture that contract in a trait: `mbxq-axes` is written once against
//! [`TreeView`], and both [`crate::ReadOnlyDoc`] and [`crate::PagedDoc`]
//! (whose view interposes the `pageOffset` indirection) implement it.
//!
//! # Semantics
//!
//! The pre plane is a sequence of *slots* `0..pre_end()`. A slot is either
//! **used** (holds a document node) or **unused** (free space inside a
//! logical page; only the paged schema has these). For unused slots,
//! `level` is `None` and `size` holds the number of remaining consecutive
//! unused slots *including the slot itself*, so `pre + size(pre)` lands on
//! the first slot after the run — an O(1) skip, as required for staircase
//! join "to skip over unused tuples quickly" (§3).
//!
//! # Region navigation
//!
//! [`TreeView::region_end`], [`TreeView::parent_of`] and the sibling hop
//! [`TreeView::next_at_level_or_above`] have default implementations
//! that only use the per-slot accessors: exact on every schema, and
//! cheap on a dense one (`pre + size + 1` *is* the region end). With
//! unused slots the hop lands short by the region's holes and the
//! defaults finish slot run by slot run — O(unused slots in the
//! region), and `parent_of` is O(preceding slots). The paged schema
//! therefore overrides all three on a per-page level summary (see
//! [`crate::paged`]); the read-only schema stores a parent column and
//! reads the hop off its dense columns. The defaults remain the
//! implementation of the chunk-less schemas and the reference the tests
//! compare against.
//!
//! A child or following-sibling walk is one loop on the hop: from just
//! behind a node, `next_at_level_or_above(from, L)` is the next node at
//! level `L` or the end of the parent's region, and the walk moves on
//! by that node's `size` hop; a hop that lands short inside a subtree
//! with holes is finished by the next call, not by a `region_end` per
//! node.
//!
//! # Attribute reads
//!
//! [`TreeView::attr_str`] is the one attribute read by name: by interned
//! id, borrowed from the pool, with no `Vec` of the element's
//! attributes. [`TreeView::attribute_value`] is its by-`QName`, owned
//! wrapper.

use crate::types::{Kind, NodeId, ValueRef};
use crate::values::{DegreeStats, NumRange, PropId, QnId, TextProbe, ValuePool};
use std::borrow::Cow;

/// A contiguous run of pre slots exposed as raw column slices — the
/// batch-kernel view of the pre plane.
///
/// Schemas that store their columns in contiguous (page) memory hand
/// these out through [`TreeView::pre_chunk`], so hot kernels (staircase
/// range scans, value comparisons, string-value assembly) run tight
/// slice loops instead of one virtual call + page swizzle per slot.
/// All slices have the same length; index `i` describes pre rank
/// `pre + i`. A slot is *live* iff its kind byte is a [`Kind`]
/// ([`PreChunk::live`]); unused slots read [`Kind::UNUSED`] there and
/// hold unrelated bookkeeping in `names` (the paged schema stores
/// backward run lengths), so kernels test the kind byte — which tests
/// liveness in the same compare — before trusting the other columns.
#[derive(Debug, Clone, Copy)]
pub struct PreChunk<'a> {
    /// Pre rank of the first slot in the chunk.
    pub pre: u64,
    /// Node kinds as bytes (`Kind as u8`); [`Kind::UNUSED`] for unused
    /// slots. Bytes, so a vector kernel compares 16 lanes per
    /// instruction. No *alignment* is guaranteed (chunks start at
    /// arbitrary offsets inside a page), so kernels use unaligned
    /// loads; what **is** guaranteed is that a chunk never spans a page
    /// boundary — every column slice is contiguous memory of one page.
    pub kinds: &'a [u8],
    /// Tree depths (`u16::MAX` for unused slots).
    pub levels: &'a [u16],
    /// `qn` ids for elements; `u32::MAX` for non-element used slots.
    /// Unused slots hold the backward run index — check the kind first.
    pub names: &'a [u32],
    /// String-table ids for non-elements. For elements, the schema's
    /// own: the paged schema's first attribute row — check the kind
    /// first.
    pub values: &'a [u32],
}

impl PreChunk<'_> {
    /// Number of slots in the chunk (never zero).
    #[inline]
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the chunk holds no slots (never true for chunks returned
    /// by [`TreeView::pre_chunk`]).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Whether slot `i` holds a document node.
    #[inline]
    pub fn live(&self, i: usize) -> bool {
        self.kinds[i] != Kind::UNUSED
    }
}

/// Read access to a document in pre/size/level form.
///
/// `Sync` is a supertrait: views are immutable snapshots by
/// construction (updates go through transactions that publish fresh
/// versions), and the morsel-parallel executor shares one view across
/// its worker threads.
pub trait TreeView: Sync {
    /// One past the last pre slot (total slots, used + unused).
    fn pre_end(&self) -> u64;

    /// Tree depth of the node at `pre`; `None` when the slot is unused or
    /// out of range (`level = NULL` marks unused tuples, §3).
    fn level(&self, pre: u64) -> Option<u16>;

    /// For used slots: the number of **used** descendant tuples.
    /// For unused slots: the remaining run length including this slot.
    /// Out of range: 0.
    fn size(&self, pre: u64) -> u64;

    /// Node kind at `pre` (`None` for unused slots).
    fn kind(&self, pre: u64) -> Option<Kind>;

    /// `qn` id of the element at `pre` (`None` for non-elements/unused).
    fn name_id(&self, pre: u64) -> Option<QnId>;

    /// Value-table reference of the node at `pre` (`None` for elements
    /// and unused slots).
    fn value_ref(&self, pre: u64) -> Option<ValueRef>;

    /// Immutable node id of the node at `pre` (`None` for unused slots;
    /// the read-only schema reports `NodeId(pre)` since at shredding time
    /// node numbers equal pre/pos numbers, §3.1).
    fn node_id(&self, pre: u64) -> Option<NodeId>;

    /// For an unused slot: its 1-based index inside its run (1 = first
    /// slot of the run), enabling O(1) *backward* skipping. 0 for used
    /// slots. (Implementation refinement over the paper — see crate docs.)
    fn back_run(&self, pre: u64) -> u64;

    /// Attributes `(name, value)` of the element at `pre`, in document
    /// order. Empty for non-elements.
    fn attributes(&self, pre: u64) -> Vec<(QnId, PropId)>;

    /// The value of the attribute named `qn` on the element at `pre`,
    /// borrowed from the pool; `None` when the node carries no such
    /// attribute (non-elements and unused slots carry none). The one
    /// attribute read by name every reader goes through: a caller
    /// resolves the name to a [`QnId`] once and reads by id per row.
    /// The default searches [`TreeView::attributes`]; both storage
    /// schemas read their attribute columns in place instead.
    fn attr_str(&self, pre: u64, qn: QnId) -> Option<&str> {
        let (_, prop) = self.attributes(pre).into_iter().find(|&(n, _)| n == qn)?;
        self.pool().prop(prop)
    }

    /// The shared interned side tables.
    fn pool(&self) -> &ValuePool;

    /// The element nodes named `qn` whose pre rank lies in `[lo, hi)`,
    /// ascending — the element-name-index probe behind cost-based axis
    /// selection, cut to the window a structural join can match in
    /// (`[min context pre, max context region end)`), so a step pays for
    /// the postings near its context instead of the name's whole list.
    /// Borrowed where the schema stores pre ranks, translated otherwise.
    /// `None` when the schema maintains no such index (callers fall
    /// back to a staircase scan); the default is index-less.
    fn elements_named_in(&self, qn: QnId, lo: u64, hi: u64) -> Option<Cow<'_, [u64]>> {
        let _ = (qn, lo, hi);
        None
    }

    /// [`TreeView::elements_named_in`] over the whole document.
    fn elements_named(&self, qn: QnId) -> Option<Vec<u64>> {
        self.elements_named_in(qn, 0, u64::MAX).map(Cow::into_owned)
    }

    /// Number of elements named `qn` (the index statistic the cost
    /// model keys on); `None` without an index.
    fn elements_named_count(&self, qn: QnId) -> Option<u64> {
        let _ = qn;
        None
    }

    // ------------------------------------------------------------------
    // Content-index probes (see `crate::values`, "The content index").
    // `None` = the schema maintains no content index (callers fall back
    // to a scalar scan); the defaults are index-less.
    // ------------------------------------------------------------------

    /// Whether this view maintains a content index at all (gates the
    /// probes below without needing an interned name to ask with).
    fn has_content_index(&self) -> bool {
        false
    }

    /// Elements carrying `@attr = value`, as ascending pre ranks.
    fn nodes_with_attr_value(&self, attr: QnId, value: &str) -> Option<Vec<u64>> {
        let _ = (attr, value);
        None
    }

    /// Elements whose `@attr` parses into `range`, as ascending pre
    /// ranks.
    fn nodes_with_attr_value_range(&self, attr: QnId, range: &NumRange) -> Option<Vec<u64>> {
        let _ = (attr, range);
        None
    }

    /// Cardinality of [`TreeView::nodes_with_attr_value`] (the
    /// cost-model statistic).
    fn nodes_with_attr_value_count(&self, attr: QnId, value: &str) -> Option<u64> {
        let _ = (attr, value);
        None
    }

    /// Cardinality of [`TreeView::nodes_with_attr_value_range`].
    fn nodes_with_attr_value_range_count(&self, attr: QnId, range: &NumRange) -> Option<u64> {
        let _ = (attr, range);
        None
    }

    /// Elements named `qn` whose string value equals `value`: an exact
    /// arm plus the unverified complex-content remainder.
    fn elements_with_text(&self, qn: QnId, value: &str) -> Option<TextProbe> {
        let _ = (qn, value);
        None
    }

    /// Elements named `qn` whose string value parses into `range`.
    fn elements_with_text_range(&self, qn: QnId, range: &NumRange) -> Option<TextProbe> {
        let _ = (qn, range);
        None
    }

    /// Cardinality of [`TreeView::elements_with_text`] (complex
    /// candidates included — each costs a verification).
    fn elements_with_text_count(&self, qn: QnId, value: &str) -> Option<u64> {
        let _ = (qn, value);
        None
    }

    /// Cardinality of [`TreeView::elements_with_text_range`].
    fn elements_with_text_range_count(&self, qn: QnId, range: &NumRange) -> Option<u64> {
        let _ = (qn, range);
        None
    }

    /// Degree statistics of the attribute-value key space for `@attr`
    /// (distinct values and total postings, and a bound on the max
    /// postings — see [`DegreeStats`]); `None` without a content index.
    fn attr_degree_stats(&self, attr: QnId) -> Option<DegreeStats> {
        let _ = attr;
        None
    }

    /// Degree statistics of the element-text key space for name `qn`
    /// (complex-content candidates included); `None` without a content
    /// index.
    fn text_degree_stats(&self, qn: QnId) -> Option<DegreeStats> {
        let _ = qn;
        None
    }

    /// The longest contiguous column run starting at pre rank `pre` and
    /// ending at or before `end`, as raw slices ([`PreChunk`]) — the
    /// accessor behind the batch kernels. `None` when the slot is out of
    /// range or the schema cannot expose contiguous columns (callers
    /// fall back to per-slot accessors); the default is chunk-less.
    ///
    /// Implementations may return *any* non-empty prefix of the
    /// requested range (the paged schema stops at logical page
    /// boundaries, where physical contiguity ends); callers loop,
    /// advancing by [`PreChunk::len`].
    fn pre_chunk(&self, pre: u64, end: u64) -> Option<PreChunk<'_>> {
        let _ = (pre, end);
        None
    }

    // ------------------------------------------------------------------
    // Derived navigation helpers (identical for both schemas).
    // ------------------------------------------------------------------

    /// Whether the slot holds a document node.
    #[inline]
    fn is_used(&self, pre: u64) -> bool {
        self.level(pre).is_some()
    }

    /// Number of used tuples (document nodes).
    fn used_count(&self) -> u64;

    /// First used slot at or after `pre`, skipping unused runs in O(1)
    /// per run.
    fn next_used_at_or_after(&self, pre: u64) -> Option<u64> {
        let end = self.pre_end();
        let mut p = pre;
        while p < end {
            if self.is_used(p) {
                return Some(p);
            }
            let run = self.size(p).max(1);
            p += run;
        }
        None
    }

    /// Last used slot at or before `pre`, skipping unused runs in O(1)
    /// per run (via [`TreeView::back_run`]).
    fn prev_used_at_or_before(&self, pre: u64) -> Option<u64> {
        let mut p = pre.min(self.pre_end().checked_sub(1)?);
        loop {
            if self.is_used(p) {
                return Some(p);
            }
            let back = self.back_run(p).max(1);
            p = p.checked_sub(back)?;
        }
    }

    /// Pre rank of the document root (first used slot).
    fn root_pre(&self) -> Option<u64> {
        self.next_used_at_or_after(0)
    }

    /// First slot after the last used descendant of the used node at
    /// `pre` (the end of its subtree *region* in the view).
    ///
    /// Uses the classic staircase-join skip `q + size(q) + 1` from each
    /// visited descendant. With interior holes that jump can land *short*
    /// (still inside the subtree — `size` counts used tuples only, holes
    /// stretch the span), never *past* a non-descendant, so a level check
    /// on the next used slot keeps the walk correct: on hole-free regions
    /// this is O(right-spine), and each hole run costs one extra O(1)
    /// skip — O(unused slots in the region) when every page carries
    /// free space, which is why [`crate::PagedDoc`] overrides it.
    fn region_end(&self, pre: u64) -> u64 {
        let Some(lvl) = self.level(pre) else {
            return pre + 1;
        };
        let mut end = pre + 1;
        let mut p = pre + 1;
        loop {
            let Some(q) = self.next_used_at_or_after(p) else {
                return end;
            };
            match self.level(q) {
                Some(ql) if ql > lvl => {
                    end = q + self.size(q) + 1;
                    p = end;
                }
                _ => return end,
            }
        }
    }

    /// The first used slot at or after `from` whose level is `<= lvl`,
    /// or `pre_end()` when there is none (`lvl` is a node's level, below
    /// the NULL of unused slots). Called with `from` just behind a node
    /// of level `lvl` (or behind its first size hop), it is the sibling
    /// hop: the answer is the node's next sibling when its level is
    /// `lvl`, and otherwise the first slot past its parent's region.
    /// The default skips each used slot deeper than `lvl` with its
    /// subtree by the `size` hop, which lands short by the subtree's
    /// unused slots at worst, never past a shallower node; the paged
    /// schema scans its level-summary column instead.
    fn next_at_level_or_above(&self, from: u64, lvl: u16) -> u64 {
        let mut p = from;
        while let Some(q) = self.next_used_at_or_after(p) {
            match self.level(q) {
                Some(l) if l <= lvl => return q,
                _ => p = q + self.size(q) + 1,
            }
        }
        self.pre_end()
    }

    /// The parent of the used node at `pre`: the nearest preceding used
    /// slot with a smaller level. The default walks back one used slot
    /// at a time (O(preceding siblings' subtrees)); both storage
    /// schemas override it.
    fn parent_of(&self, pre: u64) -> Option<u64> {
        let lvl = self.level(pre)?;
        if lvl == 0 {
            return None;
        }
        let mut p = pre.checked_sub(1)?;
        loop {
            p = self.prev_used_at_or_before(p)?;
            if self.level(p)? < lvl {
                return Some(p);
            }
            p = p.checked_sub(1)?;
        }
    }

    /// The concatenated text of all descendant text nodes (XPath string
    /// value) of the node at `pre`.
    fn string_value(&self, pre: u64) -> String {
        let mut out = String::new();
        if !self.is_used(pre) {
            return out;
        }
        match self.kind(pre) {
            Some(Kind::Element) => {
                // Batch arm: walk the region as column chunks, testing
                // kind/liveness in a tight slice loop (one pool lookup
                // per text hit, no per-slot view indirection).
                let end = self.region_end(pre);
                let mut p = pre + 1;
                while p < end {
                    let Some(chunk) = self.pre_chunk(p, end) else {
                        // Chunk-less schema: the original per-slot walk.
                        let Some(q) = self.next_used_at_or_after(p) else {
                            break;
                        };
                        if q >= end {
                            break;
                        }
                        if self.kind(q) == Some(Kind::Text) {
                            if let Some(ValueRef(v)) = self.value_ref(q) {
                                if let Some(t) = self.pool().text(v) {
                                    out.push_str(t);
                                }
                            }
                        }
                        p = q + 1;
                        continue;
                    };
                    for i in 0..chunk.len() {
                        if chunk.kinds[i] == Kind::Text as u8 {
                            if let Some(t) = self.pool().text(chunk.values[i]) {
                                out.push_str(t);
                            }
                        }
                    }
                    p += chunk.len() as u64;
                }
            }
            Some(Kind::Text) => {
                if let Some(ValueRef(v)) = self.value_ref(pre) {
                    if let Some(t) = self.pool().text(v) {
                        out.push_str(t);
                    }
                }
            }
            Some(Kind::Comment) => {
                if let Some(ValueRef(v)) = self.value_ref(pre) {
                    if let Some(t) = self.pool().comment(v) {
                        out.push_str(t);
                    }
                }
            }
            Some(Kind::ProcessingInstruction) => {
                if let Some(ValueRef(v)) = self.value_ref(pre) {
                    if let Some((_, d)) = self.pool().instruction(v) {
                        out.push_str(d);
                    }
                }
            }
            None => {}
        }
        out
    }

    /// Attribute value of `name` on the element at `pre`, if present:
    /// [`TreeView::attr_str`] by name, owned.
    fn attribute_value(&self, pre: u64, name: &mbxq_xml::QName) -> Option<String> {
        self.attr_str(pre, self.pool().lookup_qname(name)?)
            .map(str::to_string)
    }
}
