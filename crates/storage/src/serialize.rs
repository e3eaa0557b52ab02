//! Reconstructing XML from any pre-plane view.
//!
//! Both schemas serialize through the same generic walk over
//! [`TreeView`], which is also how tests assert that an update sequence
//! on the paged store and on an oracle produce the *same document*. The
//! walk writes text straight from the view — one pass over the used
//! slots in pre order with a stack of open elements — so no tree of the
//! document is built and the nesting depth costs heap, not thread stack.

use crate::types::{Kind, StorageError, ValueRef};
use crate::values::{QnId, ValuePool};
use crate::view::TreeView;
use crate::Result;
use mbxq_xml::serialize::{escape_attr, escape_text};

/// An element whose start tag is written and whose end tag is not.
struct Open {
    level: u16,
    name: QnId,
    /// No child written yet: the start tag still lacks its `>`, and an
    /// element that stays childless is written `<x/>`.
    childless: bool,
}

fn push_name(out: &mut String, pool: &ValuePool, qn: QnId) {
    match pool.qname(qn) {
        Some(name) if !name.prefix.is_empty() => {
            out.push_str(&name.prefix);
            out.push(':');
            out.push_str(&name.local);
        }
        Some(name) => out.push_str(&name.local),
        None => out.push('?'),
    }
}

fn close(out: &mut String, pool: &ValuePool, open: Open) {
    if open.childless {
        out.push_str("/>");
    } else {
        out.push_str("</");
        push_name(out, pool, open.name);
        out.push('>');
    }
}

/// The value-table entry of the non-element at `pre`.
fn value_of<V: TreeView + ?Sized>(view: &V, pre: u64, what: &str) -> Result<u32> {
    let ValueRef(v) = view.value_ref(pre).ok_or_else(|| StorageError::Corrupt {
        message: format!("{what} at pre {pre} has no value"),
    })?;
    Ok(v)
}

/// Writes the used node at `pre` and its subtree to `out` as XML text —
/// byte for byte what [`mbxq_xml::serialize_node`] writes for the same
/// tree: a childless element as `<x/>`, attributes double-quoted,
/// text and attribute values escaped the same way.
pub fn write_subtree<V: TreeView + ?Sized>(view: &V, pre: u64, out: &mut String) -> Result<()> {
    let pool = view.pool();
    let end = view.region_end(pre);
    let mut open: Vec<Open> = Vec::new();
    let mut q = pre;
    loop {
        let kind = view.kind(q).ok_or(StorageError::BadPre {
            pre: q,
            context: "serializing",
        })?;
        let level = view.level(q).ok_or(StorageError::BadPre {
            pre: q,
            context: "serializing",
        })?;
        if q > pre {
            // Close the elements `q` is not inside of; the subtree's root
            // contains every used slot of its region.
            while open.len() > 1 && open.last().is_some_and(|top| top.level >= level) {
                close(out, pool, open.pop().expect("checked non-empty"));
            }
            let parent = open.last_mut().filter(|top| top.level + 1 == level);
            let Some(parent) = parent else {
                return Err(StorageError::Corrupt {
                    message: format!("level discontinuity at pre {q} inside region of {pre}"),
                });
            };
            if parent.childless {
                out.push('>');
                parent.childless = false;
            }
        }
        match kind {
            Kind::Element => {
                let name = view.name_id(q).ok_or(StorageError::Corrupt {
                    message: format!("element at pre {q} has no name"),
                })?;
                out.push('<');
                push_name(out, pool, name);
                for (aname, avalue) in view.attributes(q) {
                    out.push(' ');
                    push_name(out, pool, aname);
                    out.push_str("=\"");
                    escape_attr(pool.prop(avalue).unwrap_or(""), out);
                    out.push('"');
                }
                open.push(Open {
                    level,
                    name,
                    childless: true,
                });
            }
            Kind::Text => escape_text(
                pool.text(value_of(view, q, "text node")?).unwrap_or(""),
                out,
            ),
            Kind::Comment => {
                out.push_str("<!--");
                out.push_str(pool.comment(value_of(view, q, "comment")?).unwrap_or(""));
                out.push_str("-->");
            }
            Kind::ProcessingInstruction => {
                let v = value_of(view, q, "instruction")?;
                let (target, data) = pool.instruction(v).unwrap_or(("?", ""));
                out.push_str("<?");
                out.push_str(target);
                if !data.is_empty() {
                    out.push(' ');
                    out.push_str(data);
                }
                out.push_str("?>");
            }
        }
        match view.next_used_at_or_after(q + 1) {
            Some(next) if next < end => q = next,
            _ => break,
        }
    }
    while let Some(top) = open.pop() {
        close(out, pool, top);
    }
    Ok(())
}

/// Serializes the whole document to XML text.
pub fn to_xml<V: TreeView + ?Sized>(view: &V) -> Result<String> {
    let root = view.root_pre().ok_or(StorageError::Corrupt {
        message: "document has no root".into(),
    })?;
    let mut out = String::new();
    write_subtree(view, root, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::PageConfig;
    use crate::update::InsertPosition;
    use crate::{NaiveDoc, PagedDoc, ReadOnlyDoc};
    use mbxq_xml::Document;

    const DOC: &str = r#"<site><people><person id="p0"><name>Ann</name></person></people><regions><africa><item id="i0"><!--note--><desc>old &amp; rare</desc></item></africa></regions></site>"#;

    #[test]
    fn readonly_round_trips() {
        let d = ReadOnlyDoc::parse_str(DOC).unwrap();
        let xml = to_xml(&d).unwrap();
        assert_eq!(
            Document::parse(&xml).unwrap(),
            Document::parse(DOC).unwrap()
        );
    }

    #[test]
    fn paged_round_trips_across_page_sizes() {
        for (ps, fill) in [(4, 50), (8, 75), (16, 100), (1024, 80)] {
            let cfg = PageConfig::new(ps, fill).unwrap();
            let d = PagedDoc::parse_str(DOC, cfg).unwrap();
            let xml = to_xml(&d).unwrap();
            assert_eq!(
                Document::parse(&xml).unwrap(),
                Document::parse(DOC).unwrap(),
                "page_size={ps} fill={fill}"
            );
        }
    }

    #[test]
    fn paged_equals_naive_after_same_updates() {
        let cfg = PageConfig::new(8, 75).unwrap();
        let mut paged = PagedDoc::parse_str(DOC, cfg).unwrap();
        let mut naive = NaiveDoc::parse_str(DOC).unwrap();
        // Node ids are allocated in document order by both stores, so the
        // same id addresses the same logical node.
        let person = paged.pre_to_node(2).unwrap();
        assert_eq!(naive.pre_to_node(2).unwrap(), person);
        let sub = Document::parse_fragment("<age>37</age>").unwrap();
        paged
            .insert(InsertPosition::LastChildOf(person), &sub)
            .unwrap();
        naive
            .insert(InsertPosition::LastChildOf(person), &sub)
            .unwrap();
        assert_eq!(to_xml(&paged).unwrap(), to_xml(&naive).unwrap());

        let name = paged.pre_to_node(3).unwrap();
        paged.delete(name).unwrap();
        naive.delete(name).unwrap();
        assert_eq!(to_xml(&paged).unwrap(), to_xml(&naive).unwrap());
    }
}
