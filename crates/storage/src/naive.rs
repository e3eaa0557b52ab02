//! The naive updateable encoding — the strawman of §2.2.
//!
//! This keeps the dense `pre/size/level` layout of the read-only schema
//! and implements structural updates the obvious way: physically
//! splicing tuples in and out, which **shifts every following tuple**
//! and rewrites every `node→pre` entry behind the update point. The
//! paper dismisses this as "an update cost of O(N), with N the document
//! size, because on average half of the document are following nodes";
//! in MonetDB it is outright impossible because void columns may never
//! be modified. We keep it for two purposes:
//!
//! * the **baseline** of the Figure 3 ablation benchmark (naive shifting
//!   vs. logical pages, measuring touched tuples and wall time), and
//! * an **oracle** for randomized update testing: after any update
//!   sequence, the paged store must serialize to the same document.

use crate::shred::{self, AttrRow, Stager};
use crate::types::{Kind, NodeId, StorageError, ValueRef};
use crate::update::InsertPosition;
use crate::values::{PropId, QnId, ValuePool};
use crate::view::TreeView;
use crate::Result;
use mbxq_xml::Node;
use std::collections::HashMap;

/// Physical-cost report of a naive structural update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NaiveReport {
    /// Tuples inserted or deleted (the update volume).
    pub changed: u64,
    /// Pre-existing tuples physically shifted (the O(N) term).
    pub shifted: u64,
    /// Ancestors whose size changed.
    pub ancestors_updated: usize,
}

#[derive(Debug, Clone, Copy)]
struct Row {
    size: u64,
    level: u16,
    kind: Kind,
    name: u32,
    value: u32,
    node: u64,
}

/// A document in the dense encoding with shift-based updates.
#[derive(Debug, Clone, Default)]
pub struct NaiveDoc {
    rows: Vec<Row>,
    /// node id → pre (None = deleted). Every shift rewrites a suffix.
    node_pre: Vec<Option<u64>>,
    attr_node: Vec<u64>,
    attr_qn: Vec<QnId>,
    attr_prop: Vec<PropId>,
    attr_index: HashMap<u64, Vec<u32>>,
    pool: ValuePool,
}

impl NaiveDoc {
    /// Shreds XML text, straight from the parser's event stream.
    pub fn parse_str(input: &str) -> Result<Self> {
        Self::shred(|st| shred::parse_into(input, st))
    }

    /// Shreds an owned tree.
    pub fn from_tree(root: &Node) -> Result<Self> {
        Self::shred(|st| shred::walk_into(root, st))
    }

    fn shred(drive: impl FnOnce(&mut Stager<'_>) -> Result<()>) -> Result<Self> {
        let mut d = NaiveDoc::default();
        let (rows, attrs) = d.stage(0, drive)?;
        d.node_pre = (0..rows.len() as u64).map(Some).collect();
        d.rows = rows;
        for (node, qn, prop) in attrs {
            d.push_attr(node, qn, prop);
        }
        Ok(d)
    }

    /// Stages what `drive` feeds the shared [`Stager`] at `level`, with
    /// node ids continuing the allocation.
    fn stage(
        &mut self,
        level: u16,
        drive: impl FnOnce(&mut Stager<'_>) -> Result<()>,
    ) -> Result<(Vec<Row>, Vec<AttrRow>)> {
        let mut st = Stager::new(&mut self.pool, self.node_pre.len() as u64, level);
        drive(&mut st)?;
        let rows = st
            .tuples
            .iter()
            .map(|t| Row {
                size: u64::from(t.size),
                level: t.level,
                kind: t.kind,
                name: t.name,
                value: t.value,
                node: u64::from(t.node),
            })
            .collect();
        Ok((rows, st.attrs))
    }

    fn push_attr(&mut self, node: u64, qn: QnId, prop: PropId) {
        let row = u32::try_from(self.attr_node.len()).expect("attr overflow");
        self.attr_node.push(node);
        self.attr_qn.push(qn);
        self.attr_prop.push(prop);
        self.attr_index.entry(node).or_default().push(row);
    }

    /// Current pre of a node id.
    pub fn node_to_pre(&self, node: NodeId) -> Result<u64> {
        self.node_pre
            .get(node.0 as usize)
            .copied()
            .flatten()
            .ok_or(StorageError::BadNode { node })
    }

    /// Node id at a pre rank.
    pub fn pre_to_node(&self, pre: u64) -> Result<NodeId> {
        self.rows
            .get(pre as usize)
            .map(|r| NodeId(r.node))
            .ok_or(StorageError::BadPre {
                pre,
                context: "resolving a node id",
            })
    }

    /// Inserts `subtree` at `position`, shifting all following tuples —
    /// the O(N) behaviour the paper's scheme avoids.
    pub fn insert(&mut self, position: InsertPosition, subtree: &Node) -> Result<NaiveReport> {
        let (at, parent, base_level) = match position {
            InsertPosition::Before(t) => {
                let pre = self.node_to_pre(t)?;
                let lvl = self.rows[pre as usize].level;
                if lvl == 0 {
                    return Err(StorageError::InvalidTarget {
                        message: "cannot insert a sibling before the document root".into(),
                    });
                }
                (pre, self.parent_of(pre), lvl)
            }
            InsertPosition::After(t) => {
                let pre = self.node_to_pre(t)?;
                let lvl = self.rows[pre as usize].level;
                if lvl == 0 {
                    return Err(StorageError::InvalidTarget {
                        message: "cannot insert a sibling after the document root".into(),
                    });
                }
                (
                    pre + self.rows[pre as usize].size + 1,
                    self.parent_of(pre),
                    lvl,
                )
            }
            InsertPosition::LastChildOf(t) => {
                let pre = self.node_to_pre(t)?;
                let row = self.rows[pre as usize];
                if row.kind != Kind::Element {
                    return Err(StorageError::InvalidTarget {
                        message: "only elements can take children".into(),
                    });
                }
                (pre + row.size + 1, Some(pre), row.level + 1)
            }
            InsertPosition::ChildAt(t, k) => {
                let pre = self.node_to_pre(t)?;
                let row = self.rows[pre as usize];
                if row.kind != Kind::Element {
                    return Err(StorageError::InvalidTarget {
                        message: "only elements can take children".into(),
                    });
                }
                let end = pre + row.size + 1;
                let mut seen = 0;
                let mut p = pre + 1;
                let mut at = end;
                while p < end {
                    if self.rows[p as usize].level == row.level + 1 {
                        if seen == k {
                            at = p;
                            break;
                        }
                        seen += 1;
                    }
                    p += self.rows[p as usize].size + 1;
                }
                (at, Some(pre), row.level + 1)
            }
        };

        let (staged, attrs) = self.stage(base_level, |st| shred::walk_into(subtree, st))?;
        let n = staged.len() as u64;
        self.node_pre
            .extend(std::iter::repeat_n(None, staged.len()));
        for (node, qn, prop) in attrs {
            self.push_attr(node, qn, prop);
        }

        // The O(N) part: splice and renumber everything after `at`.
        let parent_node = parent.map(|p| self.rows[p as usize].node);
        self.rows
            .splice(at as usize..at as usize, staged.iter().copied());
        let shifted = self.rows.len() as u64 - at - n;
        for (i, row) in self.rows.iter().enumerate().skip(at as usize) {
            self.node_pre[row.node as usize] = Some(i as u64);
        }

        // Ancestor sizes.
        let mut ancestors = 0;
        if let Some(pnode) = parent_node {
            let mut p = self.node_pre[pnode as usize];
            while let Some(pre) = p {
                self.rows[pre as usize].size += n;
                ancestors += 1;
                p = self.parent_of(pre);
            }
        }
        Ok(NaiveReport {
            changed: n,
            shifted,
            ancestors_updated: ancestors,
        })
    }

    /// Deletes the subtree rooted at `target`, shifting all following
    /// tuples back.
    pub fn delete(&mut self, target: NodeId) -> Result<NaiveReport> {
        let pre = self.node_to_pre(target)?;
        let row = self.rows[pre as usize];
        if row.level == 0 {
            return Err(StorageError::InvalidTarget {
                message: "cannot remove the document root".into(),
            });
        }
        let parent_node = self
            .parent_of(pre)
            .map(|p| self.rows[p as usize].node)
            .expect("non-root has a parent");
        let m = row.size + 1;
        for r in &self.rows[pre as usize..(pre + m) as usize] {
            self.node_pre[r.node as usize] = None;
            self.attr_index.remove(&r.node);
        }
        self.rows.drain(pre as usize..(pre + m) as usize);
        let shifted = self.rows.len() as u64 - pre;
        for (i, r) in self.rows.iter().enumerate().skip(pre as usize) {
            self.node_pre[r.node as usize] = Some(i as u64);
        }
        let mut ancestors = 0;
        let mut p = self.node_pre[parent_node as usize];
        while let Some(a) = p {
            self.rows[a as usize].size -= m;
            ancestors += 1;
            p = self.parent_of(a);
        }
        Ok(NaiveReport {
            changed: m,
            shifted,
            ancestors_updated: ancestors,
        })
    }

    /// Replaces the content of a text/comment/instruction node (mirror of
    /// [`crate::PagedDoc::update_value`], for oracle parity).
    pub fn update_value(&mut self, target: NodeId, new_value: &str) -> Result<()> {
        let pre = self.node_to_pre(target)? as usize;
        let v = match self.rows[pre].kind {
            Kind::Text => self.pool.intern_text(new_value),
            Kind::Comment => self.pool.intern_comment(new_value),
            Kind::ProcessingInstruction => {
                let (t, _) = self
                    .pool
                    .instruction(self.rows[pre].value)
                    .map(|(t, d)| (t.to_string(), d.to_string()))
                    .unwrap_or_default();
                self.pool.intern_instruction(&t, new_value)
            }
            Kind::Element => {
                return Err(StorageError::InvalidTarget {
                    message: "update_value targets a non-element node".into(),
                })
            }
        };
        self.rows[pre].value = v;
        Ok(())
    }

    /// Renames an element (oracle mirror).
    pub fn rename(&mut self, target: NodeId, name: &mbxq_xml::QName) -> Result<()> {
        let pre = self.node_to_pre(target)? as usize;
        if self.rows[pre].kind != Kind::Element {
            return Err(StorageError::InvalidTarget {
                message: "rename targets an element".into(),
            });
        }
        let qn = self.pool.intern_qname(name);
        self.rows[pre].name = qn.0;
        Ok(())
    }

    /// Sets (adds or replaces) an attribute (oracle mirror).
    pub fn set_attribute(
        &mut self,
        target: NodeId,
        name: &mbxq_xml::QName,
        value: &str,
    ) -> Result<()> {
        let pre = self.node_to_pre(target)? as usize;
        if self.rows[pre].kind != Kind::Element {
            return Err(StorageError::InvalidTarget {
                message: "attributes can only be set on elements".into(),
            });
        }
        let qn = self.pool.intern_qname(name);
        let prop = self.pool.intern_prop(value);
        let node = self.rows[pre].node;
        if let Some(rows) = self.attr_index.get(&node) {
            for &r in rows {
                if self.attr_qn[r as usize] == qn {
                    self.attr_prop[r as usize] = prop;
                    return Ok(());
                }
            }
        }
        self.push_attr(node, qn, prop);
        Ok(())
    }

    /// Removes an attribute (oracle mirror). Returns whether one existed.
    pub fn remove_attribute(&mut self, target: NodeId, name: &mbxq_xml::QName) -> Result<bool> {
        let pre = self.node_to_pre(target)? as usize;
        let node = self.rows[pre].node;
        let Some(qn) = self.pool.lookup_qname(name) else {
            return Ok(false);
        };
        if let Some(rows) = self.attr_index.get_mut(&node) {
            if let Some(i) = rows.iter().position(|&r| self.attr_qn[r as usize] == qn) {
                rows.remove(i);
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl TreeView for NaiveDoc {
    fn pre_end(&self) -> u64 {
        self.rows.len() as u64
    }

    fn level(&self, pre: u64) -> Option<u16> {
        self.rows.get(pre as usize).map(|r| r.level)
    }

    fn size(&self, pre: u64) -> u64 {
        self.rows.get(pre as usize).map_or(0, |r| r.size)
    }

    fn kind(&self, pre: u64) -> Option<Kind> {
        self.rows.get(pre as usize).map(|r| r.kind)
    }

    fn name_id(&self, pre: u64) -> Option<QnId> {
        let r = self.rows.get(pre as usize)?;
        if r.kind == Kind::Element {
            Some(QnId(r.name))
        } else {
            None
        }
    }

    fn value_ref(&self, pre: u64) -> Option<ValueRef> {
        let r = self.rows.get(pre as usize)?;
        if r.kind != Kind::Element {
            Some(ValueRef(r.value))
        } else {
            None
        }
    }

    fn node_id(&self, pre: u64) -> Option<NodeId> {
        self.rows.get(pre as usize).map(|r| NodeId(r.node))
    }

    fn back_run(&self, _pre: u64) -> u64 {
        0
    }

    fn attributes(&self, pre: u64) -> Vec<(QnId, PropId)> {
        let Some(r) = self.rows.get(pre as usize) else {
            return Vec::new();
        };
        match self.attr_index.get(&r.node) {
            Some(rows) => rows
                .iter()
                .map(|&i| (self.attr_qn[i as usize], self.attr_prop[i as usize]))
                .collect(),
            None => Vec::new(),
        }
    }

    fn pool(&self) -> &ValuePool {
        &self.pool
    }

    fn used_count(&self) -> u64 {
        self.rows.len() as u64
    }

    fn next_used_at_or_after(&self, pre: u64) -> Option<u64> {
        if pre < self.pre_end() {
            Some(pre)
        } else {
            None
        }
    }

    fn prev_used_at_or_before(&self, pre: u64) -> Option<u64> {
        if self.rows.is_empty() {
            None
        } else {
            Some(pre.min(self.pre_end() - 1))
        }
    }

    fn region_end(&self, pre: u64) -> u64 {
        pre + self.size(pre) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbxq_xml::Document;

    const PAPER_DOC: &str =
        "<a><b><c><d></d><e></e></c></b><f><g></g><h><i></i><j></j></h></f></a>";

    fn names(d: &NaiveDoc) -> Vec<String> {
        (0..d.pre_end())
            .filter_map(|p| d.name_id(p))
            .map(|q| d.pool().qname(q).unwrap().local.clone())
            .collect()
    }

    #[test]
    fn insert_shifts_following_tuples() {
        let mut d = NaiveDoc::parse_str(PAPER_DOC).unwrap();
        let g = d.pre_to_node(6).unwrap();
        let sub = Document::parse_fragment("<k><l/><m/></k>").unwrap();
        let report = d.insert(InsertPosition::LastChildOf(g), &sub).unwrap();
        assert_eq!(report.changed, 3);
        assert_eq!(report.shifted, 3); // h, i, j shift — O(following)
        assert_eq!(report.ancestors_updated, 3);
        assert_eq!(
            names(&d),
            ["a", "b", "c", "d", "e", "f", "g", "k", "l", "m", "h", "i", "j"]
        );
        // Figure 3's right side: a=12, f=7, k at pre 7 with size 2.
        assert_eq!(TreeView::size(&d, 0), 12);
        assert_eq!(TreeView::size(&d, 5), 7);
        assert_eq!(TreeView::size(&d, 7), 2);
        assert_eq!(TreeView::level(&d, 7), Some(3));
    }

    #[test]
    fn delete_shifts_back() {
        let mut d = NaiveDoc::parse_str(PAPER_DOC).unwrap();
        let c = d.pre_to_node(2).unwrap();
        let report = d.delete(c).unwrap();
        assert_eq!(report.changed, 3); // c, d, e
        assert_eq!(report.shifted, 5); // f, g, h, i, j
        assert_eq!(names(&d), ["a", "b", "f", "g", "h", "i", "j"]);
        assert_eq!(TreeView::size(&d, 0), 6);
        assert_eq!(TreeView::size(&d, 1), 0); // b lost its subtree
    }

    #[test]
    fn node_ids_stay_valid_across_shifts() {
        let mut d = NaiveDoc::parse_str(PAPER_DOC).unwrap();
        let j = d.pre_to_node(9).unwrap();
        let b = d.pre_to_node(1).unwrap();
        let sub = Document::parse_fragment("<x/>").unwrap();
        d.insert(InsertPosition::After(b), &sub).unwrap();
        // j shifted from 9 to 10 but its node id still resolves.
        assert_eq!(d.node_to_pre(j).unwrap(), 10);
    }

    #[test]
    fn deleted_nodes_resolve_to_errors() {
        let mut d = NaiveDoc::parse_str(PAPER_DOC).unwrap();
        let h = d.pre_to_node(7).unwrap();
        let i = d.pre_to_node(8).unwrap();
        d.delete(h).unwrap();
        assert!(d.node_to_pre(h).is_err());
        assert!(d.node_to_pre(i).is_err());
    }
}
