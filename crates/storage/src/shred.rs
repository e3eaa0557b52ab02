//! The document shredder's front end: one event interface, two drivers.
//!
//! Pre and post ranks "count how many tags have been opened and closed,
//! respectively, as seen when parsing the document sequentially" (§2.2),
//! so a shredder needs nothing but the sequence *open element (with its
//! attributes) / leaf / close*. A [`Sink`] consumes that sequence; two
//! drivers produce it:
//!
//! * [`parse_into`] straight from the [`mbxq_xml::Parser`] event stream —
//!   how whole documents are loaded, without ever building a tree;
//! * [`walk_into`] from an owned [`Node`] with an explicit stack — how
//!   XUpdate fragments (and trees built by tests) are staged.
//!
//! [`Stager`] is the sink behind the paged and the naive schema: it
//! stages document-ordered [`Tuple`]s and attribute rows, sizing each
//! element when it closes. The read-only schema is a sink of its own.
//! Neither driver nor sink recurses, so nesting is bounded only by the
//! `level` column ([`crate::page::MAX_LEVEL`]), never by the thread stack.

use crate::page::{checked_level, narrow, Tuple, NO_NAME};
use crate::types::{Kind, StorageError};
use crate::values::{PropId, QnId, ValuePool};
use crate::Result;
use mbxq_xml::{Event, Node, Parser, QName};

/// An attribute row staged for the attribute table: `(owner node id,
/// name, value)`.
pub(crate) type AttrRow = (u64, QnId, PropId);

/// A non-element node's content.
#[derive(Debug)]
pub(crate) enum Leaf<'a> {
    Text(&'a str),
    Comment(&'a str),
    Instruction { target: &'a str, data: &'a str },
}

/// A consumer of the document-order event sequence. Opens and closes
/// arrive balanced; a sink may refuse an event (a level or an id beyond
/// its column), which ends the drive with that error.
pub(crate) trait Sink {
    fn open(&mut self, name: &QName, attributes: &[(QName, String)]) -> Result<()>;
    fn leaf(&mut self, leaf: Leaf<'_>) -> Result<()>;
    fn close(&mut self) -> Result<()>;
}

/// Streams the root element of `input` into `sink`. Comments and
/// processing instructions before or after the root are dropped, as
/// [`mbxq_xml::Document::parse`]'s `root` drops them; the verdict on
/// malformed input is the parser's.
pub(crate) fn parse_into(input: &str, sink: &mut impl Sink) -> Result<()> {
    let mut parser = Parser::new(input);
    let mut depth = 0usize;
    while let Some(ev) = parser
        .next_event()
        .map_err(|e| StorageError::InvalidTarget {
            message: format!("XML parse: {e}"),
        })?
    {
        match ev {
            Event::StartElement { name, attributes } => {
                depth += 1;
                sink.open(&name, &attributes)?;
            }
            Event::EndElement { .. } => {
                depth -= 1;
                sink.close()?;
            }
            _ if depth == 0 => {}
            Event::Text(t) => sink.leaf(Leaf::Text(&t))?,
            Event::Comment(c) => sink.leaf(Leaf::Comment(&c))?,
            Event::ProcessingInstruction { target, data } => {
                sink.leaf(Leaf::Instruction {
                    target: &target,
                    data: &data,
                })?;
            }
        }
    }
    Ok(())
}

/// Walks `root` in document order into `sink`, with an explicit stack of
/// open elements' remaining children.
pub(crate) fn walk_into(root: &Node, sink: &mut impl Sink) -> Result<()> {
    let mut open: Vec<std::slice::Iter<'_, Node>> = Vec::new();
    let mut next = Some(root);
    loop {
        match next {
            Some(Node::Element {
                name,
                attributes,
                children,
            }) => {
                sink.open(name, attributes)?;
                open.push(children.iter());
            }
            Some(Node::Text(t)) => sink.leaf(Leaf::Text(t))?,
            Some(Node::Comment(c)) => sink.leaf(Leaf::Comment(c))?,
            Some(Node::ProcessingInstruction { target, data }) => {
                sink.leaf(Leaf::Instruction { target, data })?
            }
            None => {}
        }
        // Descend into the next child, closing every element that has
        // none left on the way.
        next = loop {
            let Some(children) = open.last_mut() else {
                return Ok(());
            };
            match children.next() {
                Some(child) => break Some(child),
                None => {
                    open.pop();
                    sink.close()?;
                }
            }
        };
    }
}

/// Stages a document or fragment as document-ordered tuples with node
/// ids `base…` and levels from `level…`, interning names and values into
/// `pool` — the input of page layout (shredding) and of page placement
/// (inserts).
pub(crate) struct Stager<'p> {
    pool: &'p mut ValuePool,
    base: u64,
    level: usize,
    /// The staged tuples, in document order.
    pub tuples: Vec<Tuple>,
    /// Attribute rows, in document order.
    pub attrs: Vec<AttrRow>,
    /// Indexes into `tuples` of the open elements, innermost last.
    open: Vec<usize>,
}

impl<'p> Stager<'p> {
    /// A stager whose first tuple gets node id `base` and level `level`.
    pub fn new(pool: &'p mut ValuePool, base: u64, level: u16) -> Self {
        Stager {
            pool,
            base,
            level: usize::from(level),
            tuples: Vec::new(),
            attrs: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Appends a leaf-sized tuple under the open elements. Fails — before
    /// anything is laid out — when its node id would leave the
    /// addressable range or its level the `level` column.
    fn push(&mut self, kind: Kind, name: u32, value: u32) -> Result<u32> {
        let node = narrow("node ids", self.base + self.tuples.len() as u64)?;
        let level = checked_level(self.level + self.open.len())?;
        self.tuples.push(Tuple {
            size: 0,
            level,
            kind,
            name,
            value,
            node,
        });
        Ok(node)
    }
}

impl Sink for Stager<'_> {
    fn open(&mut self, name: &QName, attributes: &[(QName, String)]) -> Result<()> {
        let qn = self.pool.intern_qname(name);
        let node = self.push(Kind::Element, qn.0, NO_NAME)?;
        for (aname, avalue) in attributes {
            let aqn = self.pool.intern_qname(aname);
            let prop = self.pool.intern_prop(avalue);
            self.attrs.push((u64::from(node), aqn, prop));
        }
        self.open.push(self.tuples.len() - 1);
        Ok(())
    }

    fn leaf(&mut self, leaf: Leaf<'_>) -> Result<()> {
        let (kind, value) = match leaf {
            Leaf::Text(t) => (Kind::Text, self.pool.intern_text(t)),
            Leaf::Comment(c) => (Kind::Comment, self.pool.intern_comment(c)),
            Leaf::Instruction { target, data } => (
                Kind::ProcessingInstruction,
                self.pool.intern_instruction(target, data),
            ),
        };
        self.push(kind, NO_NAME, value).map(drop)
    }

    fn close(&mut self) -> Result<()> {
        let idx = self.open.pop().expect("drivers balance open and close");
        // Every tuple staged since the open is a descendant; their count
        // is below the node-id range `push` checked.
        self.tuples[idx].size = (self.tuples.len() - idx - 1) as u32;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records the event sequence as a compact string.
    #[derive(Default)]
    struct Trace(String);

    impl Sink for Trace {
        fn open(&mut self, name: &QName, attributes: &[(QName, String)]) -> Result<()> {
            self.0.push_str(&format!("<{name}"));
            for (n, v) in attributes {
                self.0.push_str(&format!(" {n}={v}"));
            }
            self.0.push('>');
            Ok(())
        }
        fn leaf(&mut self, leaf: Leaf<'_>) -> Result<()> {
            self.0.push_str(&format!("{leaf:?}"));
            Ok(())
        }
        fn close(&mut self) -> Result<()> {
            self.0.push('/');
            Ok(())
        }
    }

    #[test]
    fn both_drivers_produce_the_same_sequence() {
        let xml = "<!--pro--><a k=\"v\">x<b/><?p d?><c>y<!--z--></c></a><?epi?>";
        let (mut streamed, mut walked) = (Trace::default(), Trace::default());
        parse_into(xml, &mut streamed).unwrap();
        walk_into(&mbxq_xml::Document::parse(xml).unwrap().root, &mut walked).unwrap();
        assert_eq!(streamed.0, walked.0);
        assert_eq!(
            streamed.0,
            "<a k=v>Text(\"x\")<b>/Instruction { target: \"p\", data: \"d\" }\
             <c>Text(\"y\")Comment(\"z\")//"
        );
    }

    #[test]
    fn the_stager_sizes_each_element_at_its_close() {
        let mut pool = ValuePool::new();
        let mut st = Stager::new(&mut pool, 7, 2);
        let frag = mbxq_xml::Document::parse_fragment("<a><b>t</b><c/></a>").unwrap();
        walk_into(&frag, &mut st).unwrap();
        let rows: Vec<_> = st
            .tuples
            .iter()
            .map(|t| (t.node, t.level, t.size))
            .collect();
        assert_eq!(rows, [(7, 2, 3), (8, 3, 1), (9, 4, 0), (10, 3, 0)]);
    }
}
