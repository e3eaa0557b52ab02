//! Structural updates on the paged schema (Figure 7).
//!
//! * **Delete** "just leaves the tuples of the deleted nodes in place
//!   (they become unused tuples) without causing any shifts in pre
//!   numbers" (§3). Ancestor sizes are decremented by the delete volume.
//! * **Insert** first tries to place the subtree inside the free space of
//!   the target logical page (case 2a: tuples after the insert point are
//!   moved within the page, their `node→pos` entries updated, the new
//!   tuples written). If the page cannot hold it, the page is filled and
//!   the remainder spills into fresh pages that are appended physically
//!   and **spliced into the logical order** behind the target page (case
//!   2b) — all later pre numbers shift automatically through the view at
//!   zero cost.
//!
//! Physical work is proportional to the update volume plus at most one
//! page rewrite — never to the document size; the reports returned by
//! each operation expose the touched-tuple counts so the benchmarks can
//! verify that claim against the naive baseline. That holds for the
//! *navigation* an update does as well as for its writes: resolving the
//! insert point (`region_end`) and walking the ancestor chain for the
//! size deltas (`parent_of`, once per ancestor) run on the per-page
//! level summaries of [`crate::paged`] — O(pages spanned + page size)
//! each, not a slot-by-slot walk that near the root covers the whole
//! document. Every page an update rewrites ends in
//! `Page::rebuild_runs`, whose result is that page's entry in the
//! summary column.

use crate::checkpoint::{read_stream, Fragment};
use crate::names::Posting;
use crate::page::{checked_level, Page, Tuple, NO_NAME, NO_POS};
use crate::paged::{set_node_pos, PagedDoc, DEAD_ROW};
use crate::shred::{self, AttrRow};
use crate::types::{Kind, NodeId, StorageError};
use crate::values::{classify, text_posting, QnId, TextKey};
use crate::view::TreeView;
use crate::Result;
use mbxq_xml::{Node, QName};

/// An element's content-index state: its name and, for simple content,
/// the string id of its concatenated direct text children — its XPath
/// string value ([`TextKey`]) — or `None` for complex content (element
/// children). `None` at the outer level marks a slot that is not a used
/// element.
type ContentState = Option<(QnId, Option<u32>)>;

/// Where to place an inserted subtree, mirroring XUpdate's structural
/// commands (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertPosition {
    /// `<xupdate:insert-before>`: directly preceding sibling of the target.
    Before(NodeId),
    /// `<xupdate:insert-after>`: direct successor of the target.
    After(NodeId),
    /// `<xupdate:append>` without a `child` position: last child.
    LastChildOf(NodeId),
    /// `<xupdate:append child="k">`: k-th child (0-based; clamped to the
    /// child count).
    ChildAt(NodeId, usize),
}

/// Which of Figure 7's scenarios an insert executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertCase {
    /// Case 2a — the subtree fit into the target page's unused tuples.
    WithinPage,
    /// Case 2b — one or more overflow pages were spliced in.
    PageOverflow,
}

/// Physical-cost report of a structural insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsertReport {
    /// Which scenario ran.
    pub case: InsertCase,
    /// Tuples inserted (the update volume).
    pub inserted: u64,
    /// Pre-existing tuples whose physical position changed (each costs a
    /// `node→pos` maintenance write).
    pub moved: u64,
    /// Overflow pages appended (0 for case 2a).
    pub pages_added: usize,
    /// Ancestors whose `size` received a delta-increment.
    pub ancestors_updated: usize,
    /// Pre rank of the inserted subtree root after the insert.
    pub new_root_pre: u64,
}

/// Physical-cost report of a structural delete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeleteReport {
    /// Tuples marked unused (the update volume).
    pub deleted: u64,
    /// Attribute rows dropped.
    pub attrs_removed: u64,
    /// Ancestors whose `size` received a delta-decrement.
    pub ancestors_updated: usize,
    /// Logical pages whose run encodings were rebuilt.
    pub pages_touched: usize,
}

impl PagedDoc {
    /// Inserts `subtree` at `position`, allocating node ids sequentially
    /// from the current allocation point. Returns the physical-cost
    /// report.
    pub fn insert(&mut self, position: InsertPosition, subtree: &Node) -> Result<InsertReport> {
        let base = self.node_alloc_end();
        self.insert_staged(position, base, |doc, level| {
            doc.stage(level, base, |st| shred::walk_into(subtree, st))
        })
    }

    /// Inserts a logged `fragment` with the node ids `first_node..`, which
    /// the transaction layer reserves once so that the workspace, the
    /// commit's re-apply and recovery all assign the ids later ops name.
    /// They must not be live; gaps stay NULL in `node→pos`.
    pub fn insert_fragment(
        &mut self,
        position: InsertPosition,
        fragment: &Fragment,
        first_node: u64,
    ) -> Result<InsertReport> {
        let (text, n) = (&fragment.text, fragment.tuples);
        self.insert_staged(position, first_node, |doc, level| {
            read_stream(&mut doc.pool, text, "fragment", first_node, n, level, n)
        })
    }

    /// The placement body of both inserts: `stage` yields the tuples (ids
    /// from `first_node`, levels from the one given) and attribute rows.
    fn insert_staged(
        &mut self,
        position: InsertPosition,
        first_node: u64,
        stage: impl FnOnce(&mut Self, u16) -> Result<(Vec<Tuple>, Vec<AttrRow>)>,
    ) -> Result<InsertReport> {
        // Resolve target and placement in the current view.
        let (insert_pre, parent_pre, base_level) = self.resolve_insert(position)?;
        // The insert adds children to the parent, which may flip its
        // content-index state (simple key growing, simple → complex):
        // capture the before-state while the tree is still untouched.
        let parent_content_before = match parent_pre {
            Some(p) => self.content_state(p),
            None => None,
        };

        // Materialize the staged ids' node→pos entries (NULL until placed
        // below, padding any gap): also the check that they are addressable.
        let (staged, attrs) = stage(self, base_level)?;
        let n = staged.len() as u64;
        self.reserve_node_ids(first_node.saturating_add(n))?;
        for t in &staged {
            if self.node_pos[t.node as usize] != NO_POS {
                return Err(StorageError::InvalidTarget {
                    message: format!("node id {} already in use", t.node),
                });
            }
        }

        // Remember the parent by immutable node id: its pre may shift.
        let parent_node = match parent_pre {
            Some(p) => Some(self.pre_to_node(p)?),
            None => None,
        };
        let new_root_node = u64::from(staged[0].node);

        let report = self.place_tuples(insert_pre, &staged)?;
        self.used_count += n;
        // Register the new elements, now that they are placed: the
        // indexes search by pre rank.
        let texts = classify(staged.iter().copied(), &mut self.pool);
        let (names, content, pool, pre_of) = self.indexes();
        for posting in texts {
            names.add(Posting::new(posting.qn, 0, posting.node.into()), pre_of);
            content.texts.add(pool, posting, pre_of);
        }
        // Attribute runs start from their owners' slots, so the rows
        // follow the placed tuples.
        for (node, qn, prop) in attrs {
            self.push_attr(node, qn, prop);
            let posting = Posting::new(qn, prop.0, node);
            let (_, content, pool, pre_of) = self.indexes();
            content.attrs.add(pool, posting, pre_of);
        }

        // Delta-increment the size of every ancestor (§3.2: deltas are
        // commutative, so concurrent committers need not serialize on the
        // root; the transaction layer exploits exactly this hook).
        let mut ancestors = 0;
        if let Some(pnode) = parent_node {
            let mut p = Some(self.node_to_pre(pnode)?);
            while let Some(pre) = p {
                self.add_size_delta(pre, n as i64)?;
                ancestors += 1;
                p = self.parent_of(pre);
            }
            // Re-key the parent in the content index if its state
            // changed (its key grew, or it went simple → complex).
            let parent_content_after = self.content_state(self.node_to_pre(pnode)?);
            self.apply_content_diff(pnode.0, parent_content_before, parent_content_after);
        }

        Ok(InsertReport {
            ancestors_updated: ancestors,
            new_root_pre: self.node_to_pre(NodeId(new_root_node))?,
            ..report
        })
    }

    /// Deletes the subtree rooted at `target` (XUpdate `remove`, §2.1).
    pub fn delete(&mut self, target: NodeId) -> Result<DeleteReport> {
        let pre = self.node_to_pre(target)?;
        let lvl = self
            .level(pre)
            .ok_or(StorageError::BadNode { node: target })?;
        if lvl == 0 {
            return Err(StorageError::InvalidTarget {
                message: "cannot remove the document root".into(),
            });
        }
        let parent = self.parent_of(pre).ok_or(StorageError::Corrupt {
            message: format!("non-root node at pre {pre} has no parent"),
        })?;
        let parent_node = self.pre_to_node(parent)?;
        // A delete may flip the parent's content state (losing its last
        // element child makes it simple): capture the before-state.
        let parent_content_before = self.content_state(parent);

        // Collect the used tuples of the region (self + descendants).
        let end = self.region_end(pre);
        let mut victims = Vec::new();
        let mut p = pre;
        while let Some(q) = self.next_used_at_or_after(p) {
            if q >= end {
                break;
            }
            victims.push(q);
            p = q + 1;
        }

        // Unregister every victim while all of them are still placed
        // (the indexes search by pre rank), each element under the
        // content key it was registered with; then clear the slots.
        let tuples: Vec<Tuple> = victims
            .iter()
            .map(|&v| {
                let (page, i) = self.slot(v).expect("victim is in range");
                page.read(i)
            })
            .collect();
        // An element's run stays in the attribute columns, reached from
        // no slot any more, until vacuum drops it. (MonetDB similarly
        // leaves deletions to be vacuumed.)
        let mut rows = Vec::new();
        for t in tuples.iter().filter(|t| t.kind == Kind::Element) {
            let node = u64::from(t.node);
            let run = self.attr_run(node, t.value);
            rows.extend(run.map(|r| (self.attr_qn[r], self.attr_prop[r], node)));
        }
        // Registering an element interned its key, so this finds it.
        let texts = classify(tuples.iter().copied(), &mut self.pool);
        let (names, content, pool, pre_of) = self.indexes();
        for posting in texts {
            names.remove(Posting::new(posting.qn, 0, posting.node.into()), pre_of);
            content.texts.remove(pool, posting, pre_of);
        }
        for &(qn, prop, node) in &rows {
            let posting = Posting::new(qn, prop.0, node);
            content.attrs.remove(pool, posting, pre_of);
        }
        // Victims are in view order, so each page's are consecutive: a
        // page is privatised, cleared and summarised once.
        let mut pages_touched = 0;
        for on_page in victims.chunk_by(|a, b| a >> self.shift == b >> self.shift) {
            let lp = (on_page[0] >> self.shift) as usize;
            let page = Page::make_mut(self.pages.leaf_mut(lp));
            for &v in on_page {
                page.clear_slot(v as usize & (page.slots() - 1));
            }
            self.min_levels[lp] = page.rebuild_runs();
            pages_touched += 1;
        }
        set_node_pos(
            &mut self.node_pos,
            tuples.len(),
            |i| tuples[i].node,
            |_| NO_POS,
        );
        let m = victims.len() as u64;
        self.used_count -= m;

        // Delta-decrement ancestors.
        let mut ancestors = 0;
        let mut p = Some(self.node_to_pre(parent_node)?);
        while let Some(a) = p {
            self.add_size_delta(a, -(m as i64))?;
            ancestors += 1;
            p = self.parent_of(a);
        }
        // Re-key the parent if its content state changed (complex →
        // simple when the last element child went away, or a shrunken
        // simple key).
        let parent_content_after = self.content_state(self.node_to_pre(parent_node)?);
        self.apply_content_diff(parent_node.0, parent_content_before, parent_content_after);

        Ok(DeleteReport {
            deleted: m,
            attrs_removed: rows.len() as u64,
            ancestors_updated: ancestors,
            pages_touched,
        })
    }

    // ------------------------------------------------------------------
    // Value updates (§2.1: these "map quite trivially to updates in the
    // underlying relational tables").
    // ------------------------------------------------------------------

    /// Replaces the content of the text/comment/instruction node `target`.
    pub fn update_value(&mut self, target: NodeId, new_value: &str) -> Result<()> {
        let (pre, phys, i) = self.locate_node(target)?;
        let old = self.page(phys).read(i);
        // A text edit changes the direct parent's string value; capture
        // its content state before the write (comment/PI edits never
        // contribute to string values, so only text needs this).
        let parent_content = if old.kind == Kind::Text {
            match self.parent_of(pre) {
                Some(pp) => Some((self.pre_to_node(pp)?, pp, self.content_state(pp))),
                None => None,
            }
        } else {
            None
        };
        let v = match old.kind {
            Kind::Text => self.pool.intern_text(new_value),
            Kind::Comment => self.pool.intern_comment(new_value),
            Kind::ProcessingInstruction => {
                let (target_str, _) = self
                    .pool
                    .instruction(old.value)
                    .map(|(t, d)| (t.to_string(), d.to_string()))
                    .unwrap_or_default();
                self.pool.intern_instruction(&target_str, new_value)
            }
            Kind::Element => {
                return Err(StorageError::InvalidTarget {
                    message: "update_value targets a non-element node; use XUpdate \
                              update semantics for elements"
                        .into(),
                })
            }
        };
        self.page_mut(phys).cols_mut().values[i] = v;
        if let Some((pnode, pp, before)) = parent_content {
            // A value update never shifts pres, so `pp` is still valid.
            let after = self.content_state(pp);
            self.apply_content_diff(pnode.0, before, after);
        }
        Ok(())
    }

    /// Renames the element `target` (XUpdate `rename`).
    pub fn rename(&mut self, target: NodeId, name: &QName) -> Result<()> {
        let (pre, phys, i) = self.locate_node(target)?;
        let t = self.page(phys).read(i);
        if t.kind != Kind::Element {
            return Err(StorageError::InvalidTarget {
                message: "rename targets an element".into(),
            });
        }
        let qn = self.pool.intern_qname(name);
        let old = QnId(t.name);
        if old != qn {
            let node = target.0;
            // The content key is name-independent; move it between
            // names unchanged.
            let key = self.content_state(pre).and_then(|(_, k)| k);
            let (names, content, pool, pre_of) = self.indexes();
            names.remove(Posting::new(old, 0, node), pre_of);
            names.add(Posting::new(qn, 0, node), pre_of);
            let (was, is) = (text_posting(old, key, node), text_posting(qn, key, node));
            content.texts.remove(pool, was, pre_of);
            content.texts.add(pool, is, pre_of);
            self.page_mut(phys).cols_mut().names[i] = qn.0;
        }
        Ok(())
    }

    /// Sets (adds or replaces) an attribute on the element `target`.
    pub fn set_attribute(&mut self, target: NodeId, name: &QName, value: &str) -> Result<()> {
        let (_, phys, i) = self.locate_node(target)?;
        if self.page(phys).kind(i) != Some(Kind::Element) {
            return Err(StorageError::InvalidTarget {
                message: "attributes can only be set on elements".into(),
            });
        }
        let qn = self.pool.intern_qname(name);
        let prop = self.pool.intern_prop(value);
        let node = target.0;
        let run = self.attr_run(node, self.page(phys).values()[i]);
        match run.into_iter().find(|&r| self.attr_qn[r] == qn) {
            Some(r) => {
                let old = std::mem::replace(&mut self.attr_prop[r], prop);
                let posting = Posting::new(qn, old.0, node);
                let (_, content, pool, pre_of) = self.indexes();
                content.attrs.remove(pool, posting, pre_of);
            }
            None => self.push_attr(node, qn, prop),
        }
        let posting = Posting::new(qn, prop.0, node);
        let (_, content, pool, pre_of) = self.indexes();
        content.attrs.add(pool, posting, pre_of);
        Ok(())
    }

    /// Removes an attribute from the element `target`. Returns whether an
    /// attribute was actually removed.
    pub fn remove_attribute(&mut self, target: NodeId, name: &QName) -> Result<bool> {
        let (_, phys, i) = self.locate_node(target)?;
        let node = target.0;
        let Some(qn) = self.pool.lookup_qname(name) else {
            return Ok(false);
        };
        let run = self.attr_run(node, self.page(phys).values()[i]);
        let Some(hit) = run.clone().find(|&r| self.attr_qn[r] == qn) else {
            return Ok(false);
        };
        let posting = Posting::new(qn, self.attr_prop[hit].0, node);
        let (_, content, pool, pre_of) = self.indexes();
        content.attrs.remove(pool, posting, pre_of);
        // Close the gap (the run keeps its order); its last row dies.
        for r in hit..run.end - 1 {
            self.attr_qn[r] = self.attr_qn[r + 1];
            self.attr_prop[r] = self.attr_prop[r + 1];
        }
        self.attr_node[run.end - 1] = DEAD_ROW;
        if run.len() == 1 {
            self.page_mut(phys).cols_mut().values[i] = NO_NAME;
        }
        Ok(true)
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// The content-index state of the element at `pre`: `(name,
    /// Some(key))` for simple content, `(name, None)` for complex. `None`
    /// for non-elements. Stops at the first element child, so simple
    /// elements cost O(direct children) and complex ones exit early; a
    /// key of several text children is interned.
    pub(crate) fn content_state(&mut self, pre: u64) -> ContentState {
        let qn = self.name_id(pre)?;
        let end = self.region_end(pre);
        let mut key = TextKey::default();
        let mut p = pre + 1;
        while let Some(q) = self.next_used_at_or_after(p) {
            if q >= end {
                break;
            }
            let (page, i) = self.slot(q).expect("used slot resolves");
            match page.kind(i) {
                Some(Kind::Element) => return Some((qn, None)),
                Some(Kind::Text) => key.push(&self.pool, page.values()[i]),
                _ => {} // comments/PIs contribute no string value
            }
            p = q + 1;
        }
        Some((qn, Some(key.finish(&mut self.pool))))
    }

    /// Moves `node` between content-index states (remove-then-add; a
    /// no-op when nothing changed).
    pub(crate) fn apply_content_diff(&mut self, node: u64, old: ContentState, new: ContentState) {
        if old == new {
            return;
        }
        let (_, content, pool, pre_of) = self.indexes();
        if let Some((qn, key)) = old {
            content
                .texts
                .remove(pool, text_posting(qn, key, node), pre_of);
        }
        if let Some((qn, key)) = new {
            content.texts.add(pool, text_posting(qn, key, node), pre_of);
        }
    }

    /// Applies a size delta to the used tuple at `pre`.
    pub(crate) fn add_size_delta(&mut self, pre: u64, delta: i64) -> Result<()> {
        let (phys, i) = self.locate(pre).ok_or(StorageError::BadPre {
            pre,
            context: "applying a size delta",
        })?;
        self.page_mut(phys)
            .add_size(i, delta)
            .ok_or_else(|| StorageError::Corrupt {
                message: format!("size of pre {pre} would leave its range"),
            })
    }

    /// Resolves an [`InsertPosition`] to `(insert_pre, parent_pre,
    /// base_level)` in the current view. `insert_pre` is the view slot at
    /// which the subtree's first tuple must be placed.
    fn resolve_insert(&self, position: InsertPosition) -> Result<(u64, Option<u64>, u16)> {
        match position {
            InsertPosition::Before(t) => {
                let pre = self.node_to_pre(t)?;
                let lvl = self.level(pre).ok_or(StorageError::BadNode { node: t })?;
                if lvl == 0 {
                    return Err(StorageError::InvalidTarget {
                        message: "cannot insert a sibling before the document root".into(),
                    });
                }
                let parent = self.parent_of(pre);
                Ok((pre, parent, lvl))
            }
            InsertPosition::After(t) => {
                let pre = self.node_to_pre(t)?;
                let lvl = self.level(pre).ok_or(StorageError::BadNode { node: t })?;
                if lvl == 0 {
                    return Err(StorageError::InvalidTarget {
                        message: "cannot insert a sibling after the document root".into(),
                    });
                }
                let parent = self.parent_of(pre);
                Ok((self.region_end(pre), parent, lvl))
            }
            InsertPosition::LastChildOf(t) => {
                let pre = self.node_to_pre(t)?;
                let lvl = self.level(pre).ok_or(StorageError::BadNode { node: t })?;
                if self.kind(pre) != Some(Kind::Element) {
                    return Err(StorageError::InvalidTarget {
                        message: "only elements can take children".into(),
                    });
                }
                Ok((self.region_end(pre), Some(pre), child_lvl(lvl)?))
            }
            InsertPosition::ChildAt(t, k) => {
                let pre = self.node_to_pre(t)?;
                let lvl = self.level(pre).ok_or(StorageError::BadNode { node: t })?;
                if self.kind(pre) != Some(Kind::Element) {
                    return Err(StorageError::InvalidTarget {
                        message: "only elements can take children".into(),
                    });
                }
                // Walk to the k-th child; falling off the end appends.
                let child = child_lvl(lvl)?;
                let end = self.region_end(pre);
                let mut seen = 0usize;
                let mut p = pre + 1;
                while let Some(q) = self.next_used_at_or_after(p) {
                    if q >= end {
                        break;
                    }
                    if self.level(q) == Some(child) {
                        if seen == k {
                            return Ok((q, Some(pre), child));
                        }
                        seen += 1;
                    }
                    p = self.region_end(q);
                }
                Ok((end, Some(pre), child))
            }
        }
    }

    /// Places `staged` tuples at view position `insert_pre`, running case
    /// 2a or 2b of Figure 7. Returns a partial report (ancestor fields
    /// filled by the caller).
    fn place_tuples(&mut self, insert_pre: u64, staged: &[Tuple]) -> Result<InsertReport> {
        let page_size = self.cfg.page_size;
        let n = staged.len();

        // Inserting at the very end of the view gets a fresh page first,
        // so the offset arithmetic below is uniform.
        let insert_pre = if insert_pre >= self.pre_end() {
            let lp = self.map.num_pages();
            self.append_physical_page()?;
            (lp << self.shift) as u64
        } else {
            insert_pre
        };

        let target_logical = (insert_pre >> self.shift) as usize;
        let (phys, offset) = self.locate(insert_pre).ok_or(StorageError::BadPre {
            pre: insert_pre,
            context: "placing inserted tuples",
        })?;

        // Partition the page's used tuples around the insert point.
        let page = self.page(phys);
        let before: Vec<Tuple> = page.used(0..offset).collect();
        let after: Vec<Tuple> = page.used(offset..page_size).collect();

        let (case, moved, pages_added) = if before.len() + after.len() + n <= page_size {
            // ---- Case 2a: rewrite the single page. ----
            // Compacting interior holes while we are here is free: the
            // view's semantics depend only on the order of used tuples.
            let moved = self.rewrite_page(phys, before.iter().chain(staged).chain(&after));
            (InsertCase::WithinPage, moved, 0)
        } else {
            // ---- Case 2b: fill the page, spill into spliced pages. ----
            let sequence = [staged, &after].concat();
            // Fill the target page completely (the paper puts k into the
            // last free slot of page 0 before spilling l and m).
            let (head, rest) = sequence.split_at((page_size - before.len()).min(sequence.len()));
            let mut moved = self.rewrite_page(phys, before.iter().chain(head));

            // Spill the remainder into fresh pages spliced after the
            // target page, each filled to the configured fill target so
            // future inserts nearby find free space again.
            let mut pages_added = 0usize;
            for chunk in rest.chunks(self.cfg.fill_target()) {
                pages_added += 1;
                let new_phys = self.splice_physical_page(target_logical + pages_added)?;
                moved += self.rewrite_page(new_phys, chunk.iter());
            }
            (InsertCase::PageOverflow, moved, pages_added)
        };
        Ok(InsertReport {
            case,
            inserted: n as u64,
            moved: moved - n as u64, // new tuples are not "moved"
            pages_added,
            ancestors_updated: 0,
            new_root_pre: 0,
        })
    }

    /// `(pre, physical page, offset)` of the live node `target`.
    fn locate_node(&self, target: NodeId) -> Result<(u64, usize, usize)> {
        let (phys, i) = self
            .node_slot(target.0)
            .ok_or(StorageError::BadNode { node: target })?;
        let pre = self.map.pos_to_pre(((phys << self.shift) + i) as u64);
        let pre = pre.expect("a placed node's page exists");
        Ok((pre, phys, i))
    }
}

/// The level of a child of a level-`lvl` node, or the depth error.
fn child_lvl(lvl: u16) -> Result<u16> {
    checked_level(usize::from(lvl) + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::PageConfig;
    use mbxq_xml::Document;

    const PAPER_DOC: &str =
        "<a><b><c><d></d><e></e></c></b><f><g></g><h><i></i><j></j></h></f></a>";

    fn figure4_doc() -> PagedDoc {
        PagedDoc::parse_str(PAPER_DOC, PageConfig::new(8, 88).unwrap()).unwrap()
    }

    fn node_of(d: &PagedDoc, local: &str) -> NodeId {
        let mut p = 0;
        while let Some(q) = d.next_used_at_or_after(p) {
            if let Some(qid) = d.name_id(q) {
                if d.pool().qname(qid).unwrap().local == local {
                    return d.pre_to_node(q).unwrap();
                }
            }
            p = q + 1;
        }
        panic!("element {local} not found");
    }

    fn names_in_order(d: &PagedDoc) -> Vec<String> {
        let mut out = Vec::new();
        let mut p = 0;
        while let Some(q) = d.next_used_at_or_after(p) {
            if let Some(qid) = d.name_id(q) {
                out.push(d.pool().qname(qid).unwrap().local.clone());
            }
            p = q + 1;
        }
        out
    }

    /// The paper's running update: append `<k><l/><m/></k>` to g.
    #[test]
    fn figure3_insert_shapes_sizes() {
        let mut d = figure4_doc();
        let g = node_of(&d, "g");
        let sub = Document::parse_fragment("<k><l/><m/></k>").unwrap();
        let report = d.insert(InsertPosition::LastChildOf(g), &sub).unwrap();

        // Page 0 had exactly one unused slot; three nodes overflow.
        assert_eq!(report.case, InsertCase::PageOverflow);
        assert_eq!(report.inserted, 3);
        assert_eq!(report.pages_added, 1);
        // g and f and a get +3 (Figure 3's size+3 annotation).
        assert_eq!(report.ancestors_updated, 3);

        let a = d.node_to_pre(node_of(&d, "a")).unwrap();
        let f = d.node_to_pre(node_of(&d, "f")).unwrap();
        let g_pre = d.node_to_pre(g).unwrap();
        assert_eq!(TreeView::size(&d, a), 12);
        assert_eq!(TreeView::size(&d, f), 7);
        assert_eq!(TreeView::size(&d, g_pre), 3);

        // Document order: a b c d e f g k l m h i j.
        assert_eq!(
            names_in_order(&d),
            ["a", "b", "c", "d", "e", "f", "g", "k", "l", "m", "h", "i", "j"]
        );
        // k went into page 0's free slot (paper: "we insert eight new
        // tuples, of which only the first two represent real nodes
        // (l and m)").
        let k_pre = d.node_to_pre(node_of(&d, "k")).unwrap();
        assert_eq!(k_pre, 7);
        let l_pre = d.node_to_pre(node_of(&d, "l")).unwrap();
        assert_eq!(l_pre, 8); // first slot of the spliced page
                              // h shifted from pre 8 to pre 16 purely through the view.
        let h_pre = d.node_to_pre(node_of(&d, "h")).unwrap();
        assert_eq!(h_pre, 16);
        assert_eq!(d.stats().pages, 3);
    }

    #[test]
    fn within_page_insert_moves_only_page_tuples() {
        let mut d = figure4_doc();
        // Page 1 (h,i,j + 5 unused) has room for a 2-node subtree.
        let i = node_of(&d, "i");
        let sub = Document::parse_fragment("<x><y/></x>").unwrap();
        let report = d.insert(InsertPosition::Before(i), &sub).unwrap();
        assert_eq!(report.case, InsertCase::WithinPage);
        assert_eq!(report.inserted, 2);
        // Only i and j had to move.
        assert_eq!(report.moved, 2);
        assert_eq!(report.pages_added, 0);
        assert_eq!(
            names_in_order(&d),
            ["a", "b", "c", "d", "e", "f", "g", "h", "x", "y", "i", "j"]
        );
        // h grew by 2; f and a likewise.
        let h = d.node_to_pre(node_of(&d, "h")).unwrap();
        assert_eq!(TreeView::size(&d, h), 4);
        assert_eq!(report.ancestors_updated, 3);
    }

    #[test]
    fn insert_after_places_behind_subtree() {
        let mut d = figure4_doc();
        let b = node_of(&d, "b");
        let sub = Document::parse_fragment("<n/>").unwrap();
        d.insert(InsertPosition::After(b), &sub).unwrap();
        assert_eq!(
            names_in_order(&d),
            ["a", "b", "c", "d", "e", "n", "f", "g", "h", "i", "j"]
        );
        // n is a sibling of b: same level, parent a grew by 1.
        let n_pre = d.node_to_pre(node_of(&d, "n")).unwrap();
        assert_eq!(d.level(n_pre), Some(1));
        let a_pre = d.node_to_pre(node_of(&d, "a")).unwrap();
        assert_eq!(TreeView::size(&d, a_pre), 10);
    }

    #[test]
    fn child_at_positions_within_children() {
        let mut d = figure4_doc();
        let c = node_of(&d, "c"); // children d, e
        let sub = Document::parse_fragment("<mid/>").unwrap();
        d.insert(InsertPosition::ChildAt(c, 1), &sub).unwrap();
        assert_eq!(
            names_in_order(&d),
            ["a", "b", "c", "d", "mid", "e", "f", "g", "h", "i", "j"]
        );
        // Appending past the end clamps to last child.
        let sub2 = Document::parse_fragment("<tail/>").unwrap();
        d.insert(InsertPosition::ChildAt(c, 99), &sub2).unwrap();
        assert_eq!(
            names_in_order(&d),
            ["a", "b", "c", "d", "mid", "e", "tail", "f", "g", "h", "i", "j"]
        );
    }

    #[test]
    fn delete_leaves_tuples_in_place_without_shifts() {
        let mut d = figure4_doc();
        let h = node_of(&d, "h");
        let g_pre_before = d.node_to_pre(node_of(&d, "g")).unwrap();
        let report = d.delete(h).unwrap();
        assert_eq!(report.deleted, 3); // h, i, j
        assert_eq!(report.ancestors_updated, 2); // f, a
                                                 // No pre shifts for surviving nodes.
        assert_eq!(d.node_to_pre(node_of(&d, "g")).unwrap(), g_pre_before);
        assert_eq!(names_in_order(&d), ["a", "b", "c", "d", "e", "f", "g"]);
        let a_pre = d.node_to_pre(node_of(&d, "a")).unwrap();
        let f_pre = d.node_to_pre(node_of(&d, "f")).unwrap();
        assert_eq!(TreeView::size(&d, a_pre), 6);
        assert_eq!(TreeView::size(&d, f_pre), 1);
        assert_eq!(d.stats().used, 7);
        // The freed slots merged into the page's unused run.
        assert!(d.level(8).is_none() && d.level(9).is_none() && d.level(10).is_none());
    }

    #[test]
    fn delete_then_insert_reuses_free_space() {
        let mut d = figure4_doc();
        let h = node_of(&d, "h");
        d.delete(h).unwrap();
        // Page 1 is now fully free; inserting under f should fit in-page
        // (insert point = after g, which is page 0 slot 7 — one free
        // slot; a 4-tuple subtree overflows page 0 but page 1's space is
        // found… actually the insert targets page 0; verify it still
        // works end-to-end and order is right).
        let f = node_of(&d, "f");
        let sub = Document::parse_fragment("<p><q/><r/><s/></p>").unwrap();
        d.insert(InsertPosition::LastChildOf(f), &sub).unwrap();
        assert_eq!(
            names_in_order(&d),
            ["a", "b", "c", "d", "e", "f", "g", "p", "q", "r", "s"]
        );
        let f_pre = d.node_to_pre(node_of(&d, "f")).unwrap();
        assert_eq!(TreeView::size(&d, f_pre), 5);
    }

    #[test]
    fn deleting_root_is_rejected() {
        let mut d = figure4_doc();
        let a = node_of(&d, "a");
        assert!(matches!(
            d.delete(a),
            Err(StorageError::InvalidTarget { .. })
        ));
    }

    #[test]
    fn sibling_of_root_is_rejected() {
        let mut d = figure4_doc();
        let a = node_of(&d, "a");
        let sub = Document::parse_fragment("<x/>").unwrap();
        assert!(d.insert(InsertPosition::Before(a), &sub).is_err());
        assert!(d.insert(InsertPosition::After(a), &sub).is_err());
    }

    #[test]
    fn value_updates() {
        let cfg = PageConfig::default();
        let mut d = PagedDoc::parse_str("<a>old<b k=\"1\"/></a>", cfg).unwrap();
        let text_node = d.pre_to_node(1).unwrap();
        d.update_value(text_node, "new").unwrap();
        assert_eq!(d.string_value(0), "new");

        let b = d.pre_to_node(2).unwrap();
        d.set_attribute(b, &QName::local("k"), "2").unwrap();
        assert_eq!(d.attribute_value(2, &QName::local("k")), Some("2".into()));
        d.set_attribute(b, &QName::local("fresh"), "x").unwrap();
        assert_eq!(d.attributes(2).len(), 2);
        assert!(d.remove_attribute(b, &QName::local("k")).unwrap());
        assert!(!d.remove_attribute(b, &QName::local("k")).unwrap());
        assert_eq!(d.attributes(2).len(), 1);

        d.rename(b, &QName::local("renamed")).unwrap();
        let qid = d.name_id(2).unwrap();
        assert_eq!(d.pool().qname(qid).unwrap().local, "renamed");
    }

    /// Every mutation path must keep the content index consistent
    /// (index ≡ scan is part of `check_paged`), and the probes must
    /// track the live values.
    #[test]
    fn content_index_follows_every_mutation_path() {
        use crate::values::NumRange;
        let cfg = PageConfig::new(8, 75).unwrap();
        let mut d = PagedDoc::parse_str(
            r#"<site><item id="i0"><price>10</price></item><item id="i1"><price>50</price></item></site>"#,
            cfg,
        )
        .unwrap();
        crate::invariants::check_paged(&d).unwrap();
        let price_qn = d.pool().lookup_qname(&QName::local("price")).unwrap();
        let id_qn = d.pool().lookup_qname(&QName::local("id")).unwrap();
        assert_eq!(d.nodes_with_attr_value(id_qn, "i0").unwrap().len(), 1);
        assert_eq!(d.elements_with_text(price_qn, "50").unwrap().exact.len(), 1);
        assert_eq!(
            d.elements_with_text_range(price_qn, &NumRange::at_least(20.0, true))
                .unwrap()
                .exact
                .len(),
            1
        );

        // Text edit re-keys the parent.
        let price_text = {
            let price_pre = d.elements_with_text(price_qn, "10").unwrap().exact[0];
            d.pre_to_node(price_pre + 1).unwrap()
        };
        d.update_value(price_text, "49").unwrap();
        crate::invariants::check_paged(&d).unwrap();
        assert!(d
            .elements_with_text(price_qn, "10")
            .unwrap()
            .exact
            .is_empty());
        assert_eq!(
            d.elements_with_text_range(price_qn, &NumRange::at_least(20.0, true))
                .unwrap()
                .exact
                .len(),
            2
        );

        // Attribute set/replace/remove.
        let i0 = d
            .pre_to_node(d.nodes_with_attr_value(id_qn, "i0").unwrap()[0])
            .unwrap();
        d.set_attribute(i0, &QName::local("id"), "i9").unwrap();
        crate::invariants::check_paged(&d).unwrap();
        assert!(d.nodes_with_attr_value(id_qn, "i0").unwrap().is_empty());
        assert_eq!(d.nodes_with_attr_value(id_qn, "i9").unwrap().len(), 1);
        d.remove_attribute(i0, &QName::local("id")).unwrap();
        crate::invariants::check_paged(&d).unwrap();
        assert!(d.nodes_with_attr_value(id_qn, "i9").unwrap().is_empty());

        // Insert flips a simple parent to complex; delete flips it back.
        let price_pre = d.elements_with_text(price_qn, "49").unwrap().exact[0];
        let price_node = d.pre_to_node(price_pre).unwrap();
        let sub = Document::parse_fragment("<note/>").unwrap();
        d.insert(InsertPosition::LastChildOf(price_node), &sub)
            .unwrap();
        crate::invariants::check_paged(&d).unwrap();
        let probe = d.elements_with_text(price_qn, "49").unwrap();
        assert!(probe.exact.is_empty(), "price went complex");
        assert_eq!(probe.unindexed.len(), 1);
        let note = node_of(&d, "note");
        d.delete(note).unwrap();
        crate::invariants::check_paged(&d).unwrap();
        assert_eq!(d.elements_with_text(price_qn, "49").unwrap().exact.len(), 1);

        // Rename moves between name buckets.
        d.rename(price_node, &QName::local("cost")).unwrap();
        crate::invariants::check_paged(&d).unwrap();
        let cost_qn = d.pool().lookup_qname(&QName::local("cost")).unwrap();
        assert!(d
            .elements_with_text(price_qn, "49")
            .unwrap()
            .exact
            .is_empty());
        assert_eq!(d.elements_with_text(cost_qn, "49").unwrap().exact.len(), 1);

        // Vacuum keeps the index; a checkpoint round-trip rebuilds it.
        d.vacuum().unwrap();
        crate::invariants::check_paged(&d).unwrap();
        assert_eq!(d.elements_with_text(cost_qn, "49").unwrap().exact.len(), 1);
        let dump = d.checkpoint_dump();
        let back =
            PagedDoc::from_checkpoint_dump(&dump, cfg, d.node_alloc_end(), d.used_count()).unwrap();
        crate::invariants::check_paged(&back).unwrap();
        let cost_qn2 = back.pool().lookup_qname(&QName::local("cost")).unwrap();
        assert_eq!(
            back.elements_with_text(cost_qn2, "49").unwrap().exact.len(),
            1
        );
    }

    #[test]
    fn attributes_survive_tuple_moves() {
        let mut d = PagedDoc::parse_str(
            r#"<a><b id="b1"/><c id="c1"/></a>"#,
            PageConfig::new(8, 50).unwrap(),
        )
        .unwrap();
        let b = node_of(&d, "b");
        let sub = Document::parse_fragment("<z/>").unwrap();
        // Insert before b: b and c shift within their page.
        d.insert(InsertPosition::Before(b), &sub).unwrap();
        let b_pre = d.node_to_pre(node_of(&d, "b")).unwrap();
        let c_pre = d.node_to_pre(node_of(&d, "c")).unwrap();
        assert_eq!(
            d.attribute_value(b_pre, &QName::local("id")),
            Some("b1".to_string())
        );
        assert_eq!(
            d.attribute_value(c_pre, &QName::local("id")),
            Some("c1".to_string())
        );
    }

    #[test]
    fn bulk_insert_spans_multiple_new_pages() {
        let mut d = figure4_doc();
        let g = node_of(&d, "g");
        // 20 children overflow well past one spill page (fill target 7).
        let mut xml = String::from("<big>");
        for i in 0..20 {
            xml.push_str(&format!("<c{i}/>"));
        }
        xml.push_str("</big>");
        let sub = Document::parse_fragment(&xml).unwrap();
        let report = d.insert(InsertPosition::LastChildOf(g), &sub).unwrap();
        assert_eq!(report.case, InsertCase::PageOverflow);
        assert_eq!(report.inserted, 21);
        assert!(report.pages_added >= 3);
        let g_pre = d.node_to_pre(g).unwrap();
        assert_eq!(TreeView::size(&d, g_pre), 21);
        assert_eq!(d.stats().used, 31);
        // Everything still navigable.
        let a_pre = d.node_to_pre(node_of(&d, "a")).unwrap();
        assert_eq!(TreeView::size(&d, a_pre), 30);
        assert_eq!(d.region_end(a_pre), {
            let j_pre = d.node_to_pre(node_of(&d, "j")).unwrap();
            j_pre + 1
        });
    }

    #[test]
    fn insert_at_document_end_appends_page() {
        // Root's region ends at the last used tuple; appending to the
        // root when the last page is full must append a page.
        let mut d = PagedDoc::parse_str("<a><b/></a>", PageConfig::new(4, 50).unwrap()).unwrap();
        let a = d.pre_to_node(0).unwrap();
        let sub = Document::parse_fragment("<c><d/><e/></c>").unwrap();
        let report = d.insert(InsertPosition::LastChildOf(a), &sub).unwrap();
        assert_eq!(report.inserted, 3);
        assert_eq!(names_in_order(&d), ["a", "b", "c", "d", "e"]);
    }
}
