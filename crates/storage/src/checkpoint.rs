//! The tuple stream: the one format in which the log carries tuples —
//! a checkpoint's whole document, and each inserted subtree. One entry
//! per tuple in document order, then the attribute rows, strings
//! length-prefixed ([`crate::codec`]):
//!
//! ```text
//! E|T|M|P <node> <level> <name | text | comment | target data>
//! A <node> <name> <value>     (attribute row of element <node>)
//! ```
//!
//! A checkpoint carries the document's own node ids and levels (after an
//! optional `D <name>` document identity); a [`Fragment`] counts them
//! from its root, id 0 at level 0. Not XML text: its parser coalesces
//! adjacent text runs (deletes leave them as separate tuples, each with
//! a node id later WAL records may reference), drops empty text, and
//! reads a comment holding `-->` as more nodes than it was.
//!
//! One reader loads both, checking a single root, no level jumps, node
//! ids in range and used once, attribute owners, and the declared tuple
//! count; sizes are recomputed from the levels. A WAL streams a dump
//! into the log it builds: no document-sized string of it exists.

use crate::codec::{put_name, put_num, put_str, Cursor};
use crate::page::{checked_level, narrow, Tuple, NO_NAME};
use crate::paged::PagedDoc;
use crate::shred::{self, AttrRow, Leaf, Sink};
use crate::types::{Kind, PageConfig, StorageError};
use crate::values::{QnId, ValuePool};
use crate::Result;
use mbxq_xml::{Node, QName};
use std::io::{self, Write};

/// Writes a tuple entry's head: `tag node level `.
fn put_head<W: Write>(out: &mut W, tag: &[u8], node: u64, level: u64) -> io::Result<()> {
    out.write_all(tag)?;
    put_num(out, node, b' ')?;
    put_num(out, level, b' ')
}

fn put_leaf<W: Write>(out: &mut W, node: u64, level: u64, leaf: Leaf<'_>) -> io::Result<()> {
    let (tag, content, data) = match leaf {
        Leaf::Text(text) => (b"T ", text, None),
        Leaf::Comment(comment) => (b"M ", comment, None),
        Leaf::Instruction { target, data } => (b"P ", target, Some(data)),
    };
    put_head(out, tag, node, level)?;
    put_str(out, content, b" ")?;
    data.map_or(Ok(()), |data| put_str(out, data, b" "))
}

fn put_attr<W: Write>(out: &mut W, node: u64, name: Option<&QName>, value: &str) -> io::Result<()> {
    out.write_all(b"A ")?;
    put_num(out, node, b' ')?;
    put_name(out, name, b" ")?;
    put_str(out, value, b" ")
}

/// The document identity stamped into `dump` by
/// [`PagedDoc::write_checkpoint_dump`], if any. Recovery of a catalog
/// shard compares this against the manifest's document name before
/// replaying, so a WAL file shuffled between shard slots is caught
/// instead of silently loading the wrong document.
pub fn checkpoint_dump_identity(dump: &str) -> Option<&str> {
    let mut cur = Cursor::new(dump);
    if cur.token("entry tag").ok()? != "D" {
        return None;
    }
    cur.take_str("document identity").ok()
}

fn bad(message: impl Into<String>) -> StorageError {
    StorageError::InvalidTarget {
        message: message.into(),
    }
}

/// A subtree as an insert logs it: `tuples` entries in `text`, checked
/// when staged — by the workspace, the re-apply and recovery alike.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fragment {
    /// The tuple count (the node ids an insert of it takes).
    pub tuples: u64,
    /// The entries, then the attribute rows.
    pub text: String,
}

impl Fragment {
    /// Writes `root` as a fragment, walking it with an explicit stack.
    pub fn of(root: &Node) -> Fragment {
        let mut writer = FragmentWriter::default();
        shred::walk_into(root, &mut writer).expect("the fragment writer refuses no event");
        let text = [writer.entries, writer.attrs].concat();
        Fragment {
            tuples: writer.next,
            text: String::from_utf8(text).expect("a fragment is made of str pieces"),
        }
    }
}

/// A [`Sink`] writing fragment entries; attribute rows go after them.
#[derive(Default)]
struct FragmentWriter {
    entries: Vec<u8>,
    attrs: Vec<u8>,
    next: u64,
    level: u64,
}

const IN_MEMORY: &str = "writing to a Vec cannot fail";

impl Sink for FragmentWriter {
    fn open(&mut self, name: &QName, attributes: &[(QName, String)]) -> Result<()> {
        let node = self.next;
        put_head(&mut self.entries, b"E ", node, self.level)
            .and_then(|()| put_name(&mut self.entries, Some(name), b" "))
            .expect(IN_MEMORY);
        for (aname, avalue) in attributes {
            put_attr(&mut self.attrs, node, Some(aname), avalue).expect(IN_MEMORY);
        }
        self.next += 1;
        self.level += 1;
        Ok(())
    }

    fn leaf(&mut self, leaf: Leaf<'_>) -> Result<()> {
        put_leaf(&mut self.entries, self.next, self.level, leaf).expect(IN_MEMORY);
        self.next += 1;
        Ok(())
    }

    fn close(&mut self) -> Result<()> {
        self.level -= 1;
        Ok(())
    }
}

/// The fewest bytes an entry takes (`E 0 0 0: `), which caps the tuple
/// count a stream can carry before any of it is read.
const MIN_ENTRY: u64 = 9;

/// Reads a tuple stream into document-ordered tuples, sized from their
/// levels, and attribute rows, interning names and values into `pool`.
/// Node ids are offsets from `base`, each below `ids` and used once;
/// levels are offsets from `level`; exactly `tuples` entries are
/// expected. `what` names the stream in errors.
pub(crate) fn read_stream(
    pool: &mut ValuePool,
    text: &str,
    what: &str,
    base: u64,
    ids: u64,
    level: u16,
    tuples: u64,
) -> Result<(Vec<Tuple>, Vec<AttrRow>)> {
    let field = |f| bad(format!("{what}: bad or missing {f}"));
    if tuples > text.len() as u64 / MIN_ENTRY {
        return Err(bad(format!(
            "{what} declares {tuples} tuples but its {} bytes hold fewer",
            text.len()
        )));
    }
    let mut staged: Vec<Tuple> = Vec::with_capacity(tuples as usize);
    let mut attrs = Vec::new();
    // A staged tuple claims its id's bit, which is how a repeated id is
    // caught; an element's id is also marked as one, for the attribute
    // rows to be checked against.
    let words = usize::try_from(ids.div_ceil(64)).expect("ids fit the address space");
    let (mut claimed, mut elements) = (vec![0u64; words], vec![0u64; words]);
    let mut cur = Cursor::new(text);
    while !cur.at_end() {
        let tag = cur.token("entry tag").map_err(field)?;
        if tag == "D" {
            // Document identity (see `write_checkpoint_dump`): no tuple
            // data; `checkpoint_dump_identity` reads it.
            cur.take_str("document identity").map_err(field)?;
            continue;
        }
        if tag == "A" {
            let node = cur.num("attribute owner").map_err(field)?;
            let name = cur.name("attribute name").map_err(field)?;
            let value = cur.take_str("attribute value").map_err(field)?;
            attrs.push((node, pool.intern_qname(&name), pool.intern_prop(value)));
            continue;
        }
        let node = cur.num("node id").map_err(field)?;
        let depth = cur.num("level").map_err(field)?;
        let depth = usize::try_from(depth).unwrap_or(usize::MAX);
        let lvl = checked_level(depth.saturating_add(usize::from(level)))?;
        let (kind, name, value) = match tag {
            "E" => {
                let name = cur.name("element name").map_err(field)?;
                (Kind::Element, pool.intern_qname(&name).0, NO_NAME)
            }
            "T" => {
                let text = cur.take_str("text").map_err(field)?;
                (Kind::Text, NO_NAME, pool.intern_text(text))
            }
            "M" => {
                let comment = cur.take_str("comment").map_err(field)?;
                (Kind::Comment, NO_NAME, pool.intern_comment(comment))
            }
            "P" => {
                let target = cur.take_str("instruction target").map_err(field)?;
                let data = cur.take_str("instruction data").map_err(field)?;
                let value = pool.intern_instruction(target, data);
                (Kind::ProcessingInstruction, NO_NAME, value)
            }
            other => return Err(bad(format!("unknown {what} entry '{other}'"))),
        };
        if node >= ids {
            return Err(bad(format!(
                "{what} node id {node} beyond allocation point {ids}"
            )));
        }
        let (word, bit) = (node as usize / 64, 1 << (node % 64));
        if claimed[word] & bit != 0 {
            return Err(bad(format!("{what} node id {node} duplicated")));
        }
        claimed[word] |= bit;
        if kind == Kind::Element {
            elements[word] |= bit;
        }
        staged.push(Tuple {
            size: 0,
            level: lvl,
            kind,
            name,
            value,
            node: narrow("node ids", base.saturating_add(node))?,
        });
    }
    if staged.is_empty() {
        return Err(bad(format!("cannot load an empty {what}")));
    }
    if staged.len() as u64 != tuples {
        return Err(bad(format!(
            "{what} declares {tuples} tuples but carries {}",
            staged.len()
        )));
    }
    for row in &mut attrs {
        let owner = row.0;
        let is_element = owner < ids && elements[owner as usize / 64] & (1 << (owner % 64)) != 0;
        if !is_element {
            return Err(bad(format!("{what} attr row for non-element {owner}")));
        }
        row.0 = base + owner;
    }

    // Recompute sizes from the level sequence (used descendants only),
    // validating tree shape as we go: an element is sized when the first
    // tuple outside it arrives, like the shredder sizes it at its close.
    let mut stack: Vec<usize> = Vec::new();
    for i in 0..staged.len() {
        let lvl = staged[i].level;
        if i == 0 {
            if lvl != level {
                return Err(bad(format!("{what} does not start at its root level")));
            }
        } else {
            while let Some(&top) = stack.last() {
                if staged[top].level >= lvl {
                    staged[top].size = (i - top - 1) as u32;
                    stack.pop();
                } else {
                    break;
                }
            }
            match stack.last() {
                Some(&top) if staged[top].level + 1 == lvl => {}
                Some(&top) => {
                    return Err(bad(format!(
                        "{what} level jump from {} to {lvl}",
                        staged[top].level
                    )))
                }
                None => return Err(bad(format!("{what} carries a second root"))),
            }
        }
        stack.push(i);
    }
    for top in stack {
        staged[top].size = (staged.len() - top - 1) as u32;
    }
    Ok((staged, attrs))
}

impl PagedDoc {
    /// Bytes to reserve for this document's dump: 32 an entry (XMark
    /// averages 27). A buffer the dump outgrows is copied into one twice
    /// as large while both are live, the largest transient a dump into
    /// memory can have.
    pub fn checkpoint_dump_size_hint(&self) -> usize {
        32 * (self.used_count as usize + self.attr_node.len()) + 64
    }

    /// Writes the live tuples and attribute rows to `out` in the
    /// checkpoint dump format (see the module docs). Lossless with
    /// respect to structure *and* node ids — unlike XML text, which
    /// merges adjacent text siblings on reparse.
    ///
    /// `doc_name` is the optional **document identity**: a catalog shard
    /// stamps its document name into the dump (a leading `D len:name`
    /// entry) so recovery can detect a WAL file that was renamed or
    /// swapped under a different manifest entry. Dumps without the entry
    /// load exactly as before.
    pub fn write_checkpoint_dump<W: Write>(
        &self,
        doc_name: Option<&str>,
        out: &mut W,
    ) -> io::Result<()> {
        if let Some(name) = doc_name {
            out.write_all(b"D ")?;
            put_str(out, name, b" ")?;
        }
        for t in self.used_tuples() {
            let (node, level) = (u64::from(t.node), u64::from(t.level));
            let leaf = match t.kind {
                Kind::Element => {
                    put_head(out, b"E ", node, level)?;
                    put_name(out, self.pool.qname(QnId(t.name)), b" ")?;
                    continue;
                }
                Kind::Text => Leaf::Text(self.pool.text(t.value).unwrap_or("")),
                Kind::Comment => Leaf::Comment(self.pool.comment(t.value).unwrap_or("")),
                Kind::ProcessingInstruction => {
                    let (target, data) = self.pool.instruction(t.value).unwrap_or(("", ""));
                    Leaf::Instruction { target, data }
                }
            };
            put_leaf(out, node, level, leaf)?;
        }
        // Attribute rows, owner-major in document order (a run's row
        // order is the attribute order).
        for t in self.used_tuples().filter(|t| t.kind == Kind::Element) {
            let node = u64::from(t.node);
            for r in self.attr_run(node, t.value) {
                let value = self.pool.prop(self.attr_prop[r]).unwrap_or("");
                put_attr(out, node, self.pool.qname(self.attr_qn[r]), value)?;
            }
        }
        Ok(())
    }

    /// The dump without a document identity, as a string: what
    /// [`PagedDoc::write_checkpoint_dump`] writes, collected (tests and
    /// probes; a WAL streams the dump instead).
    pub fn checkpoint_dump(&self) -> String {
        let mut out = Vec::with_capacity(self.checkpoint_dump_size_hint());
        self.write_checkpoint_dump(None, &mut out).expect(IN_MEMORY);
        out.shrink_to_fit();
        String::from_utf8(out).expect("a dump is made of str pieces")
    }

    /// Rebuilds a document from a checkpoint dump, the checkpointed id
    /// allocation point and the tuple count the checkpoint declares
    /// (a dump carrying another count is refused). Ids above the live
    /// set (deleted nodes) stay NULL in `node→pos`, so WAL records
    /// logged *after* the checkpoint still resolve their targets and id
    /// allocation resumes exactly where the checkpointed store left off.
    pub fn from_checkpoint_dump(
        dump: &str,
        cfg: PageConfig,
        alloc_end: u64,
        tuples: u64,
    ) -> Result<Self> {
        let mut doc = Self::empty(cfg)?;
        // `node→pos` over the full checkpointed id space, every entry
        // NULL until the layout below places the tuples.
        doc.reserve_node_ids(alloc_end)?;
        let (staged, attrs) =
            read_stream(&mut doc.pool, dump, "checkpoint", 0, alloc_end, 0, tuples)?;
        // Page layout at the configured fill factor.
        doc.lay_out_appended(&staged)?;
        drop(staged);
        for (node, qn, prop) in attrs {
            doc.push_attr(node, qn, prop);
        }
        // The element-name and content indexes are derived state and
        // are rebuilt rather than serialized.
        doc.build_indexes();
        Ok(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serialize::to_xml;
    use crate::update::InsertPosition;
    use crate::view::TreeView;
    use mbxq_xml::Document;

    fn cfg() -> PageConfig {
        PageConfig::new(8, 75).unwrap()
    }

    /// The dump with a document identity, as a string.
    fn dump_named(doc: &PagedDoc, name: &str) -> String {
        let mut out = Vec::new();
        doc.write_checkpoint_dump(Some(name), &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    fn round_trip(doc: &PagedDoc) -> PagedDoc {
        let dump = doc.checkpoint_dump();
        let back =
            PagedDoc::from_checkpoint_dump(&dump, cfg(), doc.node_alloc_end(), doc.used_count())
                .unwrap();
        crate::invariants::check_paged(&back).unwrap();
        back
    }

    #[test]
    fn dump_round_trips_structure_ids_and_attributes() {
        let mut d = PagedDoc::parse_str(
            r#"<r a="1"><x b="2">text</x><!--note--><?pi data?></r>"#,
            cfg(),
        )
        .unwrap();
        let x = d.pre_to_node(1).unwrap();
        let sub = Document::parse_fragment("<y c=\"3\"/>").unwrap();
        d.insert(InsertPosition::After(x), &sub).unwrap();
        let back = round_trip(&d);
        assert_eq!(to_xml(&back).unwrap(), to_xml(&d).unwrap());
        assert_eq!(back.used_count(), d.used_count());
        assert_eq!(back.node_alloc_end(), d.node_alloc_end());
        // Node ids line up tuple by tuple.
        let mut p = 0u64;
        while let Some(q) = d.next_used_at_or_after(p) {
            let node = d.pre_to_node(q).unwrap();
            assert!(back.node_to_pre(node).is_ok(), "node {node:?} lost");
            p = q + 1;
        }
    }

    /// Regression: adjacent text tuples (left behind when the element
    /// between them is deleted) must survive a checkpoint as *separate*
    /// tuples with their original ids — XML text round-trips coalesce
    /// them, which is exactly why checkpoints do not go through XML.
    #[test]
    fn adjacent_text_tuples_survive_with_their_ids() {
        let mut d = PagedDoc::parse_str("<d>hello <kw/> world</d>", cfg()).unwrap();
        let second_text = d.pre_to_node(3).unwrap();
        let kw = d.pre_to_node(2).unwrap();
        d.delete(kw).unwrap();
        assert_eq!(d.used_count(), 3, "two adjacent text tuples remain");
        let back = round_trip(&d);
        assert_eq!(back.used_count(), 3);
        // The second text node is still individually addressable.
        let pre = back.node_to_pre(second_text).unwrap();
        assert_eq!(back.kind(pre), Some(Kind::Text));
        assert_eq!(to_xml(&back).unwrap(), to_xml(&d).unwrap());
    }

    #[test]
    fn deleted_ids_stay_dead_and_allocation_resumes() {
        let mut d = PagedDoc::parse_str("<r><a/><b/></r>", cfg()).unwrap();
        let a = d.pre_to_node(1).unwrap();
        d.delete(a).unwrap();
        let back = round_trip(&d);
        assert!(back.node_to_pre(a).is_err(), "deleted id must stay NULL");
        assert_eq!(back.node_alloc_end(), d.node_alloc_end());
    }

    /// The dump format did not change with the page layout: a dump
    /// written by the eight-column layout (captured from the commit
    /// before `Page` existed — document identity, a deleted id, adjacent
    /// text tuples, every node kind, attributes with separators) loads,
    /// passes the invariant check and re-dumps byte for byte.
    #[test]
    fn a_dump_written_by_the_previous_layout_loads() {
        const PARENT_DUMP: &str = "D 8:auctions E 0 0 4:site E 1 1 4:item T 2 2 6:hello  \
            T 4 2 6: world M 5 1 4:note P 6 1 2:pi 4:data E 7 1 4:item E 8 2 5:price \
            T 9 3 2:50 E 10 2 3:bid T 11 3 4:4.50 A 0 1:a 1:1 A 1 2:id 2:i0 A 7 2:id 2:i1 \
            A 10 3:who 3:x y ";
        assert_eq!(checkpoint_dump_identity(PARENT_DUMP), Some("auctions"));
        let d = PagedDoc::from_checkpoint_dump(PARENT_DUMP, cfg(), 12, 11).unwrap();
        crate::invariants::check_paged(&d).unwrap();
        assert_eq!(
            to_xml(&d).unwrap(),
            "<site a=\"1\"><item id=\"i0\">hello  world</item><!--note--><?pi data?>\
             <item id=\"i1\"><price>50</price><bid who=\"x y\">4.50</bid></item></site>"
        );
        assert_eq!(d.node_alloc_end(), 12);
        assert!(
            d.node_to_pre(crate::NodeId(3)).is_err(),
            "deleted id stays dead"
        );
        assert_eq!(dump_named(&d, "auctions"), PARENT_DUMP);
    }

    /// The dump bytes of a small document, pinned: every node kind,
    /// prefixed element and attribute names, escaping-free strings with
    /// separators and non-ASCII text, multi-digit ids and levels, a
    /// deleted id and an inserted fragment.
    #[test]
    fn the_dump_bytes_are_pinned() {
        let mut d = PagedDoc::parse_str(
            "<x:site a=\"1\" x:b=\"2 3\"><p><q><r><s><t><u><v><w><y><z>deep</z></y></w></v></u></t></s></r></q></p>\
             <item id=\"i0\">caf\u{e9} &amp; 10:1<!--n o--><?pi da ta?><?bare?></item><gone/></x:site>",
            cfg(),
        )
        .unwrap();
        d.delete(crate::NodeId(17)).unwrap(); // <gone/>
        let sub = Document::parse_fragment("<y:new k=\"v\">t</y:new>").unwrap();
        d.insert(InsertPosition::After(crate::NodeId(12)), &sub) // <item>
            .unwrap();
        const PINNED: &str = "D 7:doc one E 0 0 6:x:site E 1 1 1:p E 2 2 1:q E 3 3 1:r \
            E 4 4 1:s E 5 5 1:t E 6 6 1:u E 7 7 1:v E 8 8 1:w E 9 9 1:y E 10 10 1:z \
            T 11 11 4:deep E 12 1 4:item T 13 2 12:caf\u{e9} & 10:1 M 14 2 3:n o \
            P 15 2 2:pi 5:da ta P 16 2 4:bare 0: E 18 1 5:y:new T 19 2 1:t A 0 1:a 1:1 \
            A 0 3:x:b 3:2 3 A 12 2:id 2:i0 A 18 1:k 1:v ";
        assert_eq!(dump_named(&d, "doc one"), PINNED);
        assert_eq!(d.checkpoint_dump(), PINNED["D 7:doc one ".len()..]);
    }

    #[test]
    fn malformed_dumps_are_rejected() {
        assert!(PagedDoc::from_checkpoint_dump("", cfg(), 5, 1).is_err());
        assert!(PagedDoc::from_checkpoint_dump("E 0 1 2:ab ", cfg(), 5, 1).is_err()); // root level 1
        assert!(PagedDoc::from_checkpoint_dump("E 0 0 2:ab E 1 2 1:c ", cfg(), 5, 2).is_err()); // jump
        assert!(PagedDoc::from_checkpoint_dump("E 0 0 2:ab E 1 0 1:c ", cfg(), 5, 2).is_err()); // 2 roots
        assert!(PagedDoc::from_checkpoint_dump("E 9 0 2:ab ", cfg(), 5, 1).is_err()); // id beyond alloc
        assert!(PagedDoc::from_checkpoint_dump("E 0 0 2:ab A 3 1:k 1:v ", cfg(), 5, 1).is_err()); // dead attr
        assert!(PagedDoc::from_checkpoint_dump("Z 0 0 2:ab ", cfg(), 5, 1).is_err()); // unknown tag
        assert!(PagedDoc::from_checkpoint_dump("T 0 0 99:short ", cfg(), 5, 1).is_err());
        // torn string
    }

    fn load_error(dump: &str, tuples: u64) -> String {
        match PagedDoc::from_checkpoint_dump(dump, cfg(), 5, tuples) {
            Ok(_) => panic!("{dump:?} loaded"),
            Err(e) => e.to_string(),
        }
    }

    /// A dump that names one node id twice is refused, whichever kinds
    /// the two entries have and however far apart they sit.
    #[test]
    fn a_repeated_node_id_is_refused() {
        for (dump, tuples) in [
            ("E 0 0 1:r E 0 1 1:a ", 2),
            ("E 0 0 1:r T 1 1 1:x E 2 1 1:a T 1 2 1:y ", 4),
        ] {
            let err = load_error(dump, tuples);
            assert!(err.contains("duplicated"), "{dump:?}: {err}");
        }
        // The same ids, each once, load.
        PagedDoc::from_checkpoint_dump("E 0 0 1:r T 1 1 1:x E 2 1 1:a T 3 2 1:y ", cfg(), 5, 4)
            .unwrap();
    }

    /// The loader checks the tuple count the checkpoint record declares
    /// (it sizes its staging buffer by it), in both directions, and a
    /// wildly wrong count reserves nothing it cannot use.
    #[test]
    fn a_wrong_tuple_count_is_refused() {
        let dump = "E 0 0 1:r T 1 1 1:x ";
        for tuples in [1, 3, u64::MAX] {
            let err = load_error(dump, tuples);
            assert!(err.contains("declares"), "{tuples}: {err}");
        }
    }

    #[test]
    fn dump_strings_may_contain_newlines_and_separators() {
        let d = PagedDoc::parse_str(
            "<r a=\"x y\nz\">line one\nline 2:3 two</r>",
            PageConfig::new(8, 100).unwrap(),
        )
        .unwrap();
        let back = round_trip(&d);
        assert_eq!(to_xml(&back).unwrap(), to_xml(&d).unwrap());
    }
}
