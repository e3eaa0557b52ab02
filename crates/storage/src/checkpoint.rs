//! Structure-preserving checkpoint serialization of a [`PagedDoc`].
//!
//! A checkpoint cannot round-trip through plain XML text: the parser
//! coalesces adjacent text runs, but deletes legitimately leave adjacent
//! *separate* text tuples behind (each with its own immutable node id
//! that later WAL records may reference). Reparsing would then produce
//! fewer tuples than the live document and recovery would desynchronize
//! — fatally, since the checkpoint has already truncated the log.
//!
//! So a checkpoint dumps the **tuple stream** instead: one entry per
//! used tuple in document order carrying its node id, level, kind and
//! content, followed by the attribute rows. Sizes are recomputed from
//! the level sequence on load (the same postorder walk the shredder
//! uses), the `node→pos` map is rebuilt over the checkpointed id
//! allocation point, and the page layout is re-shredded at the
//! configured fill factor. Strings travel length-prefixed (`len:bytes`),
//! the same escaping-free convention as the WAL op encoding.
//!
//! The dump is written to any byte sink ([`PagedDoc::write_checkpoint_dump`]):
//! a WAL streams it straight into the log it is building, so no
//! document-sized string of the dump exists on the way.

use crate::page::{checked_level, narrow, Tuple, NO_NAME};
use crate::paged::PagedDoc;
use crate::types::{Kind, PageConfig, StorageError};
use crate::values::QnId;
use crate::Result;
use mbxq_xml::QName;
use std::io::{self, Write};

/// Writes `v` in decimal, followed by `sep`.
fn put_num<W: Write>(out: &mut W, v: u64, sep: u8) -> io::Result<()> {
    let mut digits = [0u8; 21];
    let mut i = digits.len() - 1;
    digits[i] = sep;
    let mut v = v;
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.write_all(&digits[i..])
}

fn put_str<W: Write>(out: &mut W, s: &str) -> io::Result<()> {
    put_num(out, s.len() as u64, b':')?;
    out.write_all(s.as_bytes())?;
    out.write_all(b" ")
}

/// [`put_str`] of the name's text form (`prefix:local`), written from
/// its parts.
fn put_name<W: Write>(out: &mut W, name: Option<&QName>) -> io::Result<()> {
    let Some(name) = name else {
        return put_str(out, "");
    };
    if name.prefix.is_empty() {
        return put_str(out, &name.local);
    }
    put_num(out, (name.prefix.len() + 1 + name.local.len()) as u64, b':')?;
    out.write_all(name.prefix.as_bytes())?;
    out.write_all(b":")?;
    out.write_all(name.local.as_bytes())?;
    out.write_all(b" ")
}

/// Writes a tuple entry's head: `tag node level `.
fn put_head<W: Write>(out: &mut W, tag: &[u8], node: u32, level: u16) -> io::Result<()> {
    out.write_all(tag)?;
    put_num(out, u64::from(node), b' ')?;
    put_num(out, u64::from(level), b' ')
}

fn next_tok<'a>(rest: &mut &'a str) -> Option<&'a str> {
    *rest = rest.trim_start();
    if rest.is_empty() {
        return None;
    }
    let end = rest.find(char::is_whitespace).unwrap_or(rest.len());
    let (tok, r) = rest.split_at(end);
    *rest = r;
    Some(tok)
}

fn take_str<'a>(rest: &mut &'a str) -> Option<&'a str> {
    let r = rest.trim_start();
    let colon = r.find(':')?;
    let len: usize = r[..colon].parse().ok()?;
    let start = colon + 1;
    if r.len() < start + len {
        return None;
    }
    let s = &r[start..start + len];
    *rest = &r[start + len..];
    Some(s)
}

/// The document identity stamped into `dump` by
/// [`PagedDoc::write_checkpoint_dump`], if any. Recovery of a catalog
/// shard compares this against the manifest's document name before
/// replaying, so a WAL file shuffled between shard slots is caught
/// instead of silently loading the wrong document.
pub fn checkpoint_dump_identity(dump: &str) -> Option<&str> {
    let mut rest = dump;
    if next_tok(&mut rest)? != "D" {
        return None;
    }
    take_str(&mut rest)
}

fn bad(message: impl Into<String>) -> StorageError {
    StorageError::InvalidTarget {
        message: message.into(),
    }
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
            put_str(out, name)?;
        }
        for t in self.used_tuples() {
            match t.kind {
                Kind::Element => {
                    put_head(out, b"E ", t.node, t.level)?;
                    put_name(out, self.pool.qname(QnId(t.name)))?;
                }
                Kind::Text => {
                    put_head(out, b"T ", t.node, t.level)?;
                    put_str(out, self.pool.text(t.value).unwrap_or(""))?;
                }
                Kind::Comment => {
                    put_head(out, b"M ", t.node, t.level)?;
                    put_str(out, self.pool.comment(t.value).unwrap_or(""))?;
                }
                Kind::ProcessingInstruction => {
                    let (target, data) = self.pool.instruction(t.value).unwrap_or(("", ""));
                    put_head(out, b"P ", t.node, t.level)?;
                    put_str(out, target)?;
                    put_str(out, data)?;
                }
            }
        }
        // Attribute rows, owner-major in document order (a run's row
        // order is the attribute order).
        for t in self.used_tuples().filter(|t| t.kind == Kind::Element) {
            let node = u64::from(t.node);
            for r in self.attr_run(node, t.value) {
                out.write_all(b"A ")?;
                put_num(out, node, b' ')?;
                put_name(out, self.pool.qname(self.attr_qn[r]))?;
                put_str(out, self.pool.prop(self.attr_prop[r]).unwrap_or(""))?;
            }
        }
        Ok(())
    }

    /// The dump without a document identity, as a string: what
    /// [`PagedDoc::write_checkpoint_dump`] writes, collected (tests and
    /// probes; a WAL streams the dump instead).
    pub fn checkpoint_dump(&self) -> String {
        let mut out = Vec::with_capacity(self.checkpoint_dump_size_hint());
        self.write_checkpoint_dump(None, &mut out)
            .expect("writing to a Vec cannot fail");
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
        // NULL until the layout below places the tuples. A staged tuple
        // claims its id's bit, which is how a repeated id is caught.
        doc.reserve_node_ids(alloc_end)?;
        let mut claimed = vec![0u64; doc.node_alloc_end().div_ceil(64) as usize];
        // An entry takes at least 9 bytes (`E 0 0 0: `), which caps what
        // a wrong count can make this reserve.
        let capacity = usize::try_from(tuples).unwrap_or(usize::MAX);
        let mut staged: Vec<Tuple> = Vec::with_capacity(capacity.min(dump.len() / 9));
        let mut attrs = Vec::new();
        let mut rest = dump;
        while let Some(tag) = next_tok(&mut rest) {
            if tag == "D" {
                // Document-identity entry (see `write_checkpoint_dump`):
                // carries no tuple data, callers read it separately via
                // `checkpoint_dump_identity`.
                take_str(&mut rest).ok_or_else(|| bad("checkpoint identity lacks a name"))?;
                continue;
            }
            if tag == "A" {
                let node = next_tok(&mut rest)
                    .and_then(|t| t.parse::<u64>().ok())
                    .ok_or_else(|| bad("checkpoint attr row lacks a node id"))?;
                let name = take_str(&mut rest)
                    .and_then(QName::parse)
                    .ok_or_else(|| bad("checkpoint attr row carries a bad name"))?;
                let value =
                    take_str(&mut rest).ok_or_else(|| bad("checkpoint attr row lacks a value"))?;
                let qn = doc.pool.intern_qname(&name);
                let prop = doc.pool.intern_prop(value);
                attrs.push((node, qn, prop));
                continue;
            }
            let node = next_tok(&mut rest)
                .and_then(|t| t.parse::<u64>().ok())
                .ok_or_else(|| bad("checkpoint tuple lacks a node id"))?;
            let level = next_tok(&mut rest)
                .and_then(|t| t.parse::<usize>().ok())
                .ok_or_else(|| bad("checkpoint tuple lacks a level"))?;
            let level = checked_level(level)?;
            let (kind, name, value) = match tag {
                "E" => {
                    let name = take_str(&mut rest)
                        .and_then(QName::parse)
                        .ok_or_else(|| bad("checkpoint element carries a bad name"))?;
                    (Kind::Element, doc.pool.intern_qname(&name).0, NO_NAME)
                }
                "T" => {
                    let text =
                        take_str(&mut rest).ok_or_else(|| bad("checkpoint text lacks a value"))?;
                    (Kind::Text, NO_NAME, doc.pool.intern_text(text))
                }
                "M" => {
                    let c = take_str(&mut rest)
                        .ok_or_else(|| bad("checkpoint comment lacks a value"))?;
                    (Kind::Comment, NO_NAME, doc.pool.intern_comment(c))
                }
                "P" => {
                    let target = take_str(&mut rest)
                        .ok_or_else(|| bad("checkpoint instruction lacks a target"))?
                        .to_string();
                    let data = take_str(&mut rest)
                        .ok_or_else(|| bad("checkpoint instruction lacks data"))?;
                    (
                        Kind::ProcessingInstruction,
                        NO_NAME,
                        doc.pool.intern_instruction(&target, data),
                    )
                }
                other => return Err(bad(format!("unknown checkpoint entry '{other}'"))),
            };
            if node >= alloc_end {
                return Err(bad(format!(
                    "checkpoint node id {node} beyond allocation point {alloc_end}"
                )));
            }
            let (word, bit) = (&mut claimed[node as usize / 64], 1 << (node % 64));
            if *word & bit != 0 {
                return Err(bad(format!("checkpoint node id {node} duplicated")));
            }
            *word |= bit;
            staged.push(Tuple {
                size: 0,
                level,
                kind,
                name,
                value,
                node: narrow("node ids", node)?,
            });
        }
        if staged.is_empty() {
            return Err(bad("cannot load an empty checkpoint"));
        }
        if staged.len() as u64 != tuples {
            return Err(bad(format!(
                "checkpoint declares {tuples} tuples but its dump carries {}",
                staged.len()
            )));
        }

        // Recompute sizes from the level sequence (used descendants
        // only), validating tree shape as we go: an element is sized when
        // the first tuple outside it arrives, like the shredder sizes it
        // at its close.
        let mut stack: Vec<usize> = Vec::new();
        for i in 0..staged.len() {
            let lvl = staged[i].level;
            if i == 0 {
                if lvl != 0 {
                    return Err(bad("checkpoint does not start at the root"));
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
                            "checkpoint level jump from {} to {lvl}",
                            staged[top].level
                        )))
                    }
                    None => return Err(bad("checkpoint carries a second root")),
                }
            }
            stack.push(i);
        }
        for top in stack {
            staged[top].size = (staged.len() - top - 1) as u32;
        }

        // Page layout at the configured fill factor.
        doc.lay_out_appended(&staged)?;
        for (node, qn, prop) in attrs {
            let owner = doc.node_slot(node).map(|(phys, i)| doc.page(phys).kind(i));
            if owner != Some(Some(Kind::Element)) {
                return Err(bad(format!("checkpoint attr row for non-element {node}")));
            }
            doc.push_attr(node, qn, prop);
        }
        // The element-name and content indexes are derived state and
        // are rebuilt rather than serialized.
        drop(staged);
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
