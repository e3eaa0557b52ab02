//! An owned XML document tree.
//!
//! The tree serves two roles in the reproduction:
//!
//! 1. **Fragment carrier**: XUpdate's `<xupdate:element>` may contain
//!    nested XML, which the executor builds as a [`Node`] and the
//!    storage layer then stages into tuples; a logged insert carries its
//!    fragment the same way.
//! 2. **Oracle** for tests: axis steps, update semantics and the
//!    streaming shredder and serializer over the relational encodings
//!    are checked against a straightforward DOM evaluation.
//!
//! Whole documents do *not* pass through a tree on their way into or out
//! of storage: the shredders consume the [`crate::Parser`] event stream
//! and the storage serializer writes text straight from the pre/size/level
//! view.
//!
//! Every walk over a tree here — counting, string value, cloning,
//! equality, dropping and serializing — uses an explicit stack, so a tree
//! as deep as the storage level column allows (65 535) is handled on a
//! small thread stack.

use crate::parser::{Event, Parser};
use crate::{QName, Result, XmlError};

/// The kind of a tree node, mirroring the paper's `kind` column
/// (Figure 5: the `kind` column "determines to which table `ref` refers").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// An element node.
    Element,
    /// A text node.
    Text,
    /// A comment node.
    Comment,
    /// A processing-instruction node.
    ProcessingInstruction,
}

/// One node of the owned tree.
///
/// `Clone`, `PartialEq` and `Drop` are written out (iteratively) instead
/// of derived: the derived versions recurse once per level.
#[derive(Debug)]
pub enum Node {
    /// Element with attributes and children in document order.
    Element {
        /// Element name.
        name: QName,
        /// Attributes in document order.
        attributes: Vec<(QName, String)>,
        /// Child nodes in document order.
        children: Vec<Node>,
    },
    /// Character data.
    Text(String),
    /// Comment.
    Comment(String),
    /// Processing instruction.
    ProcessingInstruction {
        /// PI target.
        target: String,
        /// PI data.
        data: String,
    },
}

impl Node {
    /// Creates an element node with no attributes or children.
    pub fn element(name: impl Into<String>) -> Node {
        Node::Element {
            name: QName::local(name.into()),
            attributes: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Creates a text node.
    pub fn text(t: impl Into<String>) -> Node {
        Node::Text(t.into())
    }

    /// Builder-style: adds a child and returns the element.
    ///
    /// # Panics
    /// Panics when called on a non-element node (builder misuse).
    pub fn with_child(mut self, child: Node) -> Node {
        match &mut self {
            Node::Element { children, .. } => children.push(child),
            _ => panic!("with_child on a non-element node"),
        }
        self
    }

    /// Builder-style: adds an attribute and returns the element.
    ///
    /// # Panics
    /// Panics when called on a non-element node (builder misuse).
    pub fn with_attr(mut self, name: impl Into<String>, value: impl Into<String>) -> Node {
        match &mut self {
            Node::Element { attributes, .. } => {
                attributes.push((QName::local(name.into()), value.into()))
            }
            _ => panic!("with_attr on a non-element node"),
        }
        self
    }

    /// The node's kind.
    pub fn kind(&self) -> NodeKind {
        match self {
            Node::Element { .. } => NodeKind::Element,
            Node::Text(_) => NodeKind::Text,
            Node::Comment(_) => NodeKind::Comment,
            Node::ProcessingInstruction { .. } => NodeKind::ProcessingInstruction,
        }
    }

    /// Children slice (empty for non-elements).
    pub fn children(&self) -> &[Node] {
        match self {
            Node::Element { children, .. } => children,
            _ => &[],
        }
    }

    /// Mutable children (empty for non-elements).
    pub fn children_mut(&mut self) -> &mut Vec<Node> {
        const EMPTY: Vec<Node> = Vec::new();
        match self {
            Node::Element { children, .. } => children,
            _ => {
                // Non-elements have no children; hand out a leaked empty
                // vec would be wrong — instead panic, as this is misuse.
                let _ = EMPTY;
                panic!("children_mut on a non-element node")
            }
        }
    }

    /// Element name, if this is an element.
    pub fn name(&self) -> Option<&QName> {
        match self {
            Node::Element { name, .. } => Some(name),
            _ => None,
        }
    }

    /// Attributes slice (empty for non-elements).
    pub fn attributes(&self) -> &[(QName, String)] {
        match self {
            Node::Element { attributes, .. } => attributes,
            _ => &[],
        }
    }

    /// Number of *tree tuples* this subtree shreds into: 1 for the node
    /// itself plus all descendants (attributes live in their own table
    /// and do not count, exactly like the paper's `size` column).
    pub fn tuple_count(&self) -> u64 {
        self.descendants_or_self().count() as u64
    }

    /// Concatenated descendant text (the XPath string value of an
    /// element).
    pub fn string_value(&self) -> String {
        let mut out = String::new();
        for n in self.descendants_or_self() {
            if let Node::Text(t) = n {
                out.push_str(t);
            }
        }
        out
    }

    /// The node and its descendants in document order (an explicit-stack
    /// walk).
    fn descendants_or_self(&self) -> impl Iterator<Item = &Node> {
        let mut stack = vec![self];
        std::iter::from_fn(move || {
            let n = stack.pop()?;
            stack.extend(n.children().iter().rev());
            Some(n)
        })
    }
}

impl Clone for Node {
    fn clone(&self) -> Node {
        // The node without its children; they are cloned into it below.
        fn shallow(n: &Node) -> Node {
            match n {
                Node::Element {
                    name,
                    attributes,
                    children,
                } => Node::Element {
                    name: name.clone(),
                    attributes: attributes.clone(),
                    children: Vec::with_capacity(children.len()),
                },
                Node::Text(t) => Node::Text(t.clone()),
                Node::Comment(c) => Node::Comment(c.clone()),
                Node::ProcessingInstruction { target, data } => Node::ProcessingInstruction {
                    target: target.clone(),
                    data: data.clone(),
                },
            }
        }
        // Elements under construction with their source children left.
        let mut stack = vec![(self.children().iter(), shallow(self))];
        loop {
            let (rest, _) = stack.last_mut().expect("the root is popped last");
            if let Some(child) = rest.next() {
                stack.push((child.children().iter(), shallow(child)));
                continue;
            }
            let (_, done) = stack.pop().expect("non-empty");
            match stack.last_mut() {
                Some((_, Node::Element { children, .. })) => children.push(done),
                Some(_) => unreachable!("only elements have children"),
                None => return done,
            }
        }
    }
}

impl PartialEq for Node {
    fn eq(&self, other: &Node) -> bool {
        let mut pairs = vec![(self, other)];
        while let Some((a, b)) = pairs.pop() {
            let same = match (a, b) {
                (
                    Node::Element {
                        name: an,
                        attributes: aa,
                        children: ac,
                    },
                    Node::Element {
                        name: bn,
                        attributes: ba,
                        children: bc,
                    },
                ) => {
                    let same = an == bn && aa == ba && ac.len() == bc.len();
                    pairs.extend(ac.iter().zip(bc));
                    same
                }
                (Node::Text(a), Node::Text(b)) | (Node::Comment(a), Node::Comment(b)) => a == b,
                (
                    Node::ProcessingInstruction { target, data },
                    Node::ProcessingInstruction {
                        target: bt,
                        data: bd,
                    },
                ) => target == bt && data == bd,
                _ => false,
            };
            if !same {
                return false;
            }
        }
        true
    }
}

impl Eq for Node {}

impl Drop for Node {
    fn drop(&mut self) {
        // Detach the children before each node goes, so every node is
        // dropped with none left and the drop glue never nests.
        let mut stack = match self {
            Node::Element { children, .. } => std::mem::take(children),
            _ => return,
        };
        while let Some(mut n) = stack.pop() {
            if let Node::Element { children, .. } = &mut n {
                stack.append(children);
            }
        }
    }
}

/// A parsed document: an optional prolog (comments/PIs before the root),
/// the root element, and an epilog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    /// Comments / processing instructions before the root element.
    pub prolog: Vec<Node>,
    /// The root element.
    pub root: Node,
    /// Comments / processing instructions after the root element.
    pub epilog: Vec<Node>,
}

impl Document {
    /// Parses a document from text.
    pub fn parse(input: &str) -> Result<Document> {
        let mut parser = Parser::new(input);
        let mut prolog = Vec::new();
        let mut epilog = Vec::new();
        let mut root: Option<Node> = None;
        // Stack of elements under construction.
        let mut stack: Vec<Node> = Vec::new();
        while let Some(ev) = parser.next_event()? {
            match ev {
                Event::StartElement { name, attributes } => {
                    stack.push(Node::Element {
                        name,
                        attributes,
                        children: Vec::new(),
                    });
                }
                Event::EndElement { .. } => {
                    let done = stack.pop().expect("parser guarantees balance");
                    match stack.last_mut() {
                        Some(Node::Element { children, .. }) => children.push(done),
                        Some(_) => unreachable!("only elements are stacked"),
                        None => root = Some(done),
                    }
                }
                Event::Text(t) => match stack.last_mut() {
                    Some(Node::Element { children, .. }) => children.push(Node::Text(t)),
                    _ => {
                        return Err(XmlError::Structure {
                            message: "text outside the root element".into(),
                        })
                    }
                },
                Event::Comment(c) => {
                    let node = Node::Comment(c);
                    match stack.last_mut() {
                        Some(Node::Element { children, .. }) => children.push(node),
                        _ => {
                            if root.is_none() {
                                prolog.push(node)
                            } else {
                                epilog.push(node)
                            }
                        }
                    }
                }
                Event::ProcessingInstruction { target, data } => {
                    let node = Node::ProcessingInstruction { target, data };
                    match stack.last_mut() {
                        Some(Node::Element { children, .. }) => children.push(node),
                        _ => {
                            if root.is_none() {
                                prolog.push(node)
                            } else {
                                epilog.push(node)
                            }
                        }
                    }
                }
            }
        }
        match root {
            Some(root) => Ok(Document {
                prolog,
                root,
                epilog,
            }),
            None => Err(XmlError::Structure {
                message: "document has no root element".into(),
            }),
        }
    }

    /// Parses a *fragment*: text that contains exactly one element (used
    /// for XUpdate `<xupdate:element>` content).
    pub fn parse_fragment(input: &str) -> Result<Node> {
        Ok(Document::parse(input)?.root)
    }

    /// Total number of tree tuples the document shreds into.
    pub fn tuple_count(&self) -> u64 {
        self.root.tuple_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_nested_tree() {
        let d = Document::parse("<a><b><c/></b>text<b2 k=\"v\"/></a>").unwrap();
        assert_eq!(d.root.name().unwrap().local, "a");
        assert_eq!(d.root.children().len(), 3);
        assert_eq!(
            d.root.children()[0].children()[0].name().unwrap().local,
            "c"
        );
        assert_eq!(d.root.children()[1], Node::Text("text".into()));
        assert_eq!(d.root.children()[2].attributes()[0].1, "v".to_string());
    }

    #[test]
    fn prolog_and_epilog_captured() {
        let d = Document::parse("<!--p--><r/><!--e-->").unwrap();
        assert_eq!(d.prolog, vec![Node::Comment("p".into())]);
        assert_eq!(d.epilog, vec![Node::Comment("e".into())]);
    }

    #[test]
    fn tuple_count_matches_paper_example() {
        // Figure 2: 10 element nodes a..j.
        let d = Document::parse(
            "<a><b><c><d></d><e></e></c></b><f><g></g><h><i></i><j></j></h></f></a>",
        )
        .unwrap();
        assert_eq!(d.tuple_count(), 10);
    }

    #[test]
    fn string_value_concatenates_descendant_text() {
        let d = Document::parse("<a>x<b>y<c>z</c></b>w</a>").unwrap();
        assert_eq!(d.root.string_value(), "xyzw");
    }

    #[test]
    fn builder_helpers() {
        let n = Node::element("k")
            .with_attr("id", "7")
            .with_child(Node::element("l"))
            .with_child(Node::text("hi"));
        assert_eq!(n.children().len(), 2);
        assert_eq!(n.tuple_count(), 3);
        assert_eq!(n.attributes().len(), 1);
    }

    #[test]
    fn equality_compares_every_node() {
        let base = "<a k=\"v\"><b>t</b><!--c--><?p d?></a>";
        let parse = |s: &str| Document::parse_fragment(s).unwrap();
        assert_eq!(parse(base), parse(base));
        for other in [
            "<a k=\"w\"><b>t</b><!--c--><?p d?></a>",
            "<a k=\"v\"><b>u</b><!--c--><?p d?></a>",
            "<a k=\"v\"><c>t</c><!--c--><?p d?></a>",
            "<a k=\"v\"><b>t</b><!--x--><?p d?></a>",
            "<a k=\"v\"><b>t</b><!--c--><?p e?></a>",
            "<a k=\"v\"><b>t</b><!--c--></a>",
            "<a k=\"v\"><b>t</b><?p d?><!--c--></a>",
        ] {
            assert_ne!(parse(base), parse(other), "{other}");
        }
    }

    #[test]
    fn parse_fragment_returns_single_element() {
        let n = Document::parse_fragment("<k><l/><m/></k>").unwrap();
        assert_eq!(n.tuple_count(), 3);
    }
}
