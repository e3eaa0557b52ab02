//! The original read-only storage schema (Figure 5).
//!
//! One dense `pre/size/level` table with a void `pre` column, an `attr`
//! table whose rows point back at owner `pre` values, and the interned
//! side tables. Produced by the streaming document shredder; immutable
//! thereafter — exactly "the storage scheme used until now in
//! MonetDB/XQuery, … a read-only solution" (§2.2).

use crate::page::{checked_level, narrow};
use crate::shred::{self, Leaf, Sink};
use crate::types::{Kind, NodeId, ValueRef};
use crate::values::{ContentIndex, NumRange, PropId, QnId, TextProbe, ValuePool};
use crate::view::TreeView;
use crate::Result;
use mbxq_bat::VoidBat;
use mbxq_xml::{Node, QName};
use std::borrow::Cow;

/// `parent` of the root.
const NO_PARENT: u32 = u32::MAX;

/// A shredded document in the dense read-only encoding.
///
/// The `pre` column is *virtual* (void): a tuple's pre rank is its
/// position. `post` is not stored; it is recovered as
/// `post = pre + size - level` (§2.2) — see [`ReadOnlyDoc::post`].
#[derive(Debug, Clone, Default)]
pub struct ReadOnlyDoc {
    /// Subtree sizes (descendant tuple counts), void-keyed by pre.
    size: VoidBat<u32>,
    /// Pre rank of each node's parent ([`NO_PARENT`] for the root),
    /// filled from the shredder's stack: the dense encoding has no
    /// cheaper way back up than remembering it (`parent_of` would walk
    /// every preceding sibling subtree).
    parent: VoidBat<u32>,
    /// Tree depths, void-keyed by pre.
    level: VoidBat<u16>,
    /// Node kinds, void-keyed by pre.
    kind: VoidBat<Kind>,
    /// `qn` id for elements (`u32::MAX` for non-elements).
    name: VoidBat<u32>,
    /// Value-table reference for non-elements (`u32::MAX` for elements).
    value: VoidBat<u32>,
    /// Attribute table: owner pre (ascending — attrs are emitted in
    /// document order, enabling binary-search range lookup).
    attr_owner: VoidBat<u64>,
    /// Attribute names.
    attr_qn: VoidBat<QnId>,
    /// Attribute values (`prop` references).
    attr_prop: VoidBat<PropId>,
    /// Element-name index: `qn` id → element pre ranks (ascending).
    /// The schema is immutable, so pre ranks are stable and the index
    /// never needs maintenance — it is built once by the shredder.
    name_index: std::collections::HashMap<QnId, Vec<u64>>,
    /// Content index (attribute values + element text; see
    /// `crate::values`), built once at shred time like the name index.
    content_index: ContentIndex,
    /// Interned side tables.
    pool: ValuePool,
}

impl ReadOnlyDoc {
    /// Shreds XML text into the read-only encoding, straight from the
    /// parser's event stream (module `shred`).
    pub fn parse_str(input: &str) -> Result<Self> {
        Self::shred(|sink| shred::parse_into(input, sink))
    }

    /// Shreds an owned tree (used when both schemas must be loaded from
    /// the identical document object).
    pub fn from_tree(root: &Node) -> Result<Self> {
        Self::shred(|sink| shred::walk_into(root, sink))
    }

    fn shred(drive: impl FnOnce(&mut Shredder) -> Result<()>) -> Result<Self> {
        let mut sink = Shredder::default();
        drive(&mut sink)?;
        let mut doc = sink.doc;
        let mut pool = std::mem::take(&mut doc.pool);
        doc.content_index = ContentIndex::build_from_view(&doc, &mut pool);
        doc.pool = pool;
        Ok(doc)
    }

    /// Appends a leaf-sized tuple under the open elements `stack`
    /// (innermost last) and returns its pre rank.
    fn push_tuple(&mut self, stack: &[u32], kind: Kind, name: u32, value: u32) -> Result<u32> {
        let pre = narrow("slots", self.len() as u64)?;
        let level = checked_level(stack.len())?;
        self.size.append(0);
        self.parent
            .append(stack.last().copied().unwrap_or(NO_PARENT));
        self.level.append(level);
        self.kind.append(kind);
        self.name.append(name);
        self.value.append(value);
        Ok(pre)
    }

    /// Number of tuples (document nodes).
    pub fn len(&self) -> usize {
        self.size.len()
    }

    /// Whether the document is empty (never true for parsed documents —
    /// they have at least a root).
    pub fn is_empty(&self) -> bool {
        self.size.is_empty()
    }

    /// The post rank of the node at `pre`: `post = pre + size - level`
    /// (§2.2, Figure 2). Only meaningful in this dense encoding.
    pub fn post(&self, pre: u64) -> Result<u64> {
        let size = u64::from(self.size.get(pre)?);
        let level = self.level.get(pre)? as u64;
        Ok(pre + size - level)
    }

    /// Approximate heap footprint of the tree + attribute tables in bytes
    /// (for the storage-overhead experiment; excludes the shared pool).
    pub fn table_bytes(&self) -> usize {
        self.len() * (4 + 4 + 2 + 1 + 4 + 4) + self.attr_owner.len() * (8 + 4 + 4)
    }
}

/// The read-only shredder: fills the columns in document order, sizing
/// each element when it closes.
#[derive(Default)]
struct Shredder {
    doc: ReadOnlyDoc,
    /// Pre ranks of the open elements, innermost last.
    stack: Vec<u32>,
}

impl Sink for Shredder {
    fn open(&mut self, name: &QName, attributes: &[(QName, String)]) -> Result<()> {
        let doc = &mut self.doc;
        let qn = doc.pool.intern_qname(name);
        let pre = doc.push_tuple(&self.stack, Kind::Element, qn.0, u32::MAX)?;
        doc.name_index.entry(qn).or_default().push(u64::from(pre));
        for (aname, avalue) in attributes {
            let aqn = doc.pool.intern_qname(aname);
            let prop = doc.pool.intern_prop(avalue);
            doc.attr_owner.append(u64::from(pre));
            doc.attr_qn.append(aqn);
            doc.attr_prop.append(prop);
        }
        self.stack.push(pre);
        Ok(())
    }

    fn leaf(&mut self, leaf: Leaf<'_>) -> Result<()> {
        let doc = &mut self.doc;
        let (kind, value) = match leaf {
            Leaf::Text(t) => (Kind::Text, doc.pool.intern_text(t)),
            Leaf::Comment(c) => (Kind::Comment, doc.pool.intern_comment(c)),
            Leaf::Instruction { target, data } => (
                Kind::ProcessingInstruction,
                doc.pool.intern_instruction(target, data),
            ),
        };
        doc.push_tuple(&self.stack, kind, u32::MAX, value).map(drop)
    }

    fn close(&mut self) -> Result<()> {
        let pre = self.stack.pop().expect("drivers balance open and close");
        // Every tuple pushed since is a descendant.
        *self.doc.size.find_mut(u64::from(pre))? = self.doc.len() as u32 - pre - 1;
        Ok(())
    }
}

impl TreeView for ReadOnlyDoc {
    fn pre_end(&self) -> u64 {
        self.size.len() as u64
    }

    fn level(&self, pre: u64) -> Option<u16> {
        self.level.get(pre).ok()
    }

    fn size(&self, pre: u64) -> u64 {
        self.size.get(pre).map_or(0, u64::from)
    }

    fn kind(&self, pre: u64) -> Option<Kind> {
        self.kind.get(pre).ok()
    }

    fn name_id(&self, pre: u64) -> Option<QnId> {
        match self.name.get(pre) {
            Ok(id) if id != u32::MAX => Some(QnId(id)),
            _ => None,
        }
    }

    fn value_ref(&self, pre: u64) -> Option<ValueRef> {
        match self.value.get(pre) {
            Ok(v) if v != u32::MAX => Some(ValueRef(v)),
            _ => None,
        }
    }

    fn node_id(&self, pre: u64) -> Option<NodeId> {
        // "At shredding time, node numbers are identical to pos numbers"
        // (§3.1); the read-only schema never updates, so they stay equal.
        if pre < self.pre_end() {
            Some(NodeId(pre))
        } else {
            None
        }
    }

    fn back_run(&self, _pre: u64) -> u64 {
        0 // no unused slots in the dense encoding
    }

    fn attributes(&self, pre: u64) -> Vec<(QnId, PropId)> {
        let owners = self.attr_owner.tail();
        let lo = owners.partition_point(|&o| o < pre);
        let hi = owners.partition_point(|&o| o <= pre);
        (lo..hi)
            .map(|i| (self.attr_qn.tail()[i], self.attr_prop.tail()[i]))
            .collect()
    }

    /// One binary search for the owner's first row, then a forward
    /// scan of its rows.
    fn attr_str(&self, pre: u64, qn: QnId) -> Option<&str> {
        let owners = self.attr_owner.tail();
        let names = self.attr_qn.tail();
        let first = owners.partition_point(|&o| o < pre);
        let row = (first..owners.len())
            .take_while(|&r| owners[r] == pre)
            .find(|&r| names[r] == qn)?;
        self.pool.prop(self.attr_prop.tail()[row])
    }

    fn pool(&self) -> &ValuePool {
        &self.pool
    }

    fn used_count(&self) -> u64 {
        self.len() as u64
    }

    fn elements_named_in(&self, qn: QnId, lo: u64, hi: u64) -> Option<Cow<'_, [u64]>> {
        // Pre ranks never move in this schema: the window is a sub-slice.
        let all = self.name_index.get(&qn).map_or(&[][..], Vec::as_slice);
        let start = all.partition_point(|&p| p < lo);
        let len = all[start..].partition_point(|&p| p < hi);
        Some(Cow::Borrowed(&all[start..start + len]))
    }

    fn elements_named_count(&self, qn: QnId) -> Option<u64> {
        Some(self.name_index.get(&qn).map_or(0, Vec::len) as u64)
    }

    // Content probes: node ids equal pre ranks in this schema, so the
    // translation closure is the identity.
    fn has_content_index(&self) -> bool {
        true
    }

    fn nodes_with_attr_value(&self, attr: QnId, value: &str) -> Option<Vec<u64>> {
        Some(self.content_index.attr_eq(&self.pool, attr, value, Some))
    }

    fn nodes_with_attr_value_range(&self, attr: QnId, range: &NumRange) -> Option<Vec<u64>> {
        Some(self.content_index.attr_range(attr, range, Some))
    }

    fn nodes_with_attr_value_count(&self, attr: QnId, value: &str) -> Option<u64> {
        Some(self.content_index.attr_eq_count(&self.pool, attr, value))
    }

    fn nodes_with_attr_value_range_count(&self, attr: QnId, range: &NumRange) -> Option<u64> {
        Some(self.content_index.attr_range_count(attr, range))
    }

    fn elements_with_text(&self, qn: QnId, value: &str) -> Option<TextProbe> {
        Some(self.content_index.text_eq(&self.pool, qn, value, Some))
    }

    fn elements_with_text_range(&self, qn: QnId, range: &NumRange) -> Option<TextProbe> {
        Some(self.content_index.text_range(qn, range, Some))
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

    // Dense encoding: every slot used, so the generic helpers collapse.
    fn next_used_at_or_after(&self, pre: u64) -> Option<u64> {
        if pre < self.pre_end() {
            Some(pre)
        } else {
            None
        }
    }

    fn prev_used_at_or_before(&self, pre: u64) -> Option<u64> {
        if self.is_empty() {
            None
        } else {
            Some(pre.min(self.pre_end() - 1))
        }
    }

    fn region_end(&self, pre: u64) -> u64 {
        // Hole-free: the classic O(1) jump.
        pre + self.size(pre) + 1
    }

    fn next_at_level_or_above(&self, from: u64, lvl: u16) -> u64 {
        // Hole-free: a sibling walk's `size` hop lands exactly on the
        // next sibling or past the parent's region, so one level check
        // answers; from elsewhere each hop skips a deeper subtree whole.
        let (levels, sizes) = (self.level.tail(), self.size.tail());
        let mut p = from;
        while let Some(&l) = levels.get(p as usize) {
            if l <= lvl {
                return p;
            }
            p += u64::from(sizes[p as usize]) + 1;
        }
        self.pre_end()
    }

    fn parent_of(&self, pre: u64) -> Option<u64> {
        match self.parent.get(pre) {
            Ok(p) if p != NO_PARENT => Some(u64::from(p)),
            _ => None,
        }
    }

    fn pre_chunk(&self, pre: u64, end: u64) -> Option<crate::view::PreChunk<'_>> {
        let total = self.pre_end();
        if pre >= total {
            return None;
        }
        // The dense schema is one contiguous allocation per column: the
        // whole requested range comes back as a single chunk, every
        // slot live.
        let lo = pre as usize;
        let hi = end.min(total) as usize;
        if lo >= hi {
            return None;
        }
        Some(crate::view::PreChunk {
            pre,
            kinds: Kind::bytes(&self.kind.tail()[lo..hi]),
            levels: &self.level.tail()[lo..hi],
            names: &self.name.tail()[lo..hi],
            values: &self.value.tail()[lo..hi],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's running example, Figure 2.
    const PAPER_DOC: &str =
        "<a><b><c><d></d><e></e></c></b><f><g></g><h><i></i><j></j></h></f></a>";

    #[test]
    fn figure2_pre_size_level() {
        let d = ReadOnlyDoc::parse_str(PAPER_DOC).unwrap();
        assert_eq!(d.len(), 10);
        // Figure 2(iv): pre | size | level
        let expect: [(u64, u64, u16); 10] = [
            (0, 9, 0), // a
            (1, 3, 1), // b
            (2, 2, 2), // c
            (3, 0, 3), // d
            (4, 0, 3), // e
            (5, 4, 1), // f
            (6, 0, 2), // g
            (7, 2, 2), // h
            (8, 0, 3), // i
            (9, 0, 3), // j
        ];
        for (pre, size, level) in expect {
            assert_eq!(TreeView::size(&d, pre), size, "size of pre {pre}");
            assert_eq!(TreeView::level(&d, pre), Some(level), "level of pre {pre}");
        }
    }

    #[test]
    fn figure2_post_equals_pre_plus_size_minus_level() {
        let d = ReadOnlyDoc::parse_str(PAPER_DOC).unwrap();
        // Figure 2(ii): post ranks for a..j.
        let post: [u64; 10] = [9, 3, 2, 0, 1, 8, 4, 7, 5, 6];
        for (pre, &want) in post.iter().enumerate() {
            assert_eq!(d.post(pre as u64).unwrap(), want, "post of pre {pre}");
        }
    }

    #[test]
    fn element_names_resolve() {
        let d = ReadOnlyDoc::parse_str(PAPER_DOC).unwrap();
        let names: Vec<_> = (0..10)
            .map(|p| d.pool().qname(d.name_id(p).unwrap()).unwrap().local.clone())
            .collect();
        assert_eq!(names, ["a", "b", "c", "d", "e", "f", "g", "h", "i", "j"]);
    }

    #[test]
    fn text_nodes_and_string_values() {
        let d = ReadOnlyDoc::parse_str("<a>x<b>y</b>z</a>").unwrap();
        assert_eq!(d.len(), 5);
        assert_eq!(d.kind(1), Some(Kind::Text));
        assert_eq!(d.string_value(0), "xyz");
        assert_eq!(d.string_value(2), "y");
        assert_eq!(d.string_value(1), "x");
    }

    #[test]
    fn attributes_found_by_owner() {
        let d = ReadOnlyDoc::parse_str(r#"<a x="1"><b y="2" z="3"/><c/></a>"#).unwrap();
        let a0 = d.attributes(0);
        assert_eq!(a0.len(), 1);
        assert_eq!(d.pool().prop(a0[0].1), Some("1"));
        let a1 = d.attributes(1);
        assert_eq!(a1.len(), 2);
        assert_eq!(d.attributes(2), vec![]);
        assert_eq!(
            d.attribute_value(1, &mbxq_xml::QName::local("z")),
            Some("3".to_string())
        );
        assert_eq!(d.attribute_value(1, &mbxq_xml::QName::local("q")), None);
    }

    /// The parent column (both shredders fill it from their stack)
    /// answers what the level walk would: the nearest preceding node one
    /// level up.
    #[test]
    fn parent_column_equals_the_level_walk() {
        let xml = "<a>x<b><c><d/>y<e/></c></b><!--z--><f><g/><h><i/><j>w</j></h></f></a>";
        let tree = mbxq_xml::Document::parse(xml).unwrap();
        for d in [
            ReadOnlyDoc::parse_str(xml).unwrap(),
            ReadOnlyDoc::from_tree(&tree.root).unwrap(),
        ] {
            assert_eq!(d.parent_of(0), None);
            assert_eq!(d.parent_of(d.pre_end()), None);
            for p in 1..d.pre_end() {
                let level = d.level(p).unwrap();
                let walked = (0..p).rev().find(|&q| d.level(q).unwrap() < level);
                assert_eq!(d.parent_of(p), walked, "pre {p}");
            }
        }
    }

    /// Comments and instructions around the root are not stored, so the
    /// root element is pre 0 (a prolog comment used to become a second
    /// level-0 tuple ahead of it, and `/r` found nothing).
    #[test]
    fn prolog_and_epilog_are_not_stored() {
        let d = ReadOnlyDoc::parse_str("<?pi x?><!--p--><r><a/></r><!--e-->").unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.root_pre(), Some(0));
        assert_eq!(crate::serialize::to_xml(&d).unwrap(), "<r><a/></r>");
    }

    #[test]
    fn region_end_matches_size() {
        let d = ReadOnlyDoc::parse_str(PAPER_DOC).unwrap();
        for pre in 0..10 {
            assert_eq!(d.region_end(pre), pre + TreeView::size(&d, pre) + 1);
        }
    }

    #[test]
    fn from_tree_matches_parse() {
        let tree = mbxq_xml::Document::parse(PAPER_DOC).unwrap();
        let d1 = ReadOnlyDoc::parse_str(PAPER_DOC).unwrap();
        let d2 = ReadOnlyDoc::from_tree(&tree.root).unwrap();
        assert_eq!(d1.len(), d2.len());
        for p in 0..d1.pre_end() {
            assert_eq!(TreeView::size(&d1, p), TreeView::size(&d2, p));
            assert_eq!(TreeView::level(&d1, p), TreeView::level(&d2, p));
            assert_eq!(d1.kind(p), d2.kind(p));
        }
    }

    /// Levels are `u16` with the last value reserved (the paged schema's
    /// NULL): the streaming shredder reports the depth instead of
    /// wrapping.
    #[test]
    fn nesting_beyond_the_level_column_is_an_error() {
        let nested = |depth: usize| "<a>".repeat(depth) + &"</a>".repeat(depth);
        let deepest = ReadOnlyDoc::parse_str(&nested(65_535)).unwrap();
        assert_eq!(TreeView::level(&deepest, 65_534), Some(65_534));
        assert_eq!(
            ReadOnlyDoc::parse_str(&nested(65_536)).unwrap_err(),
            crate::StorageError::TooDeep { depth: 65_536 }
        );
    }

    #[test]
    fn node_ids_equal_pre_at_shred_time() {
        let d = ReadOnlyDoc::parse_str(PAPER_DOC).unwrap();
        for p in 0..10 {
            assert_eq!(d.node_id(p), Some(NodeId(p)));
        }
        assert_eq!(d.node_id(10), None);
    }
}
