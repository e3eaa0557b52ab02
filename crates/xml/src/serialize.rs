//! Serialization of documents and nodes back to XML text.
//!
//! MonetDB/XQuery ships "XML Serialization" as a runtime-module primitive
//! (Figure 1). We keep the same contract the storage layer needs: parsing
//! the serializer's output yields the original tree (`parse ∘ serialize =
//! id`), which the property tests in this crate and the round-trip tests
//! in `mbxq-storage` rely on.

use crate::tree::{Document, Node};
use crate::QName;
use std::fmt::Write;

/// Escapes character data content (`<`, `&`, and `>` for safety).
pub fn escape_text(text: &str, out: &mut String) {
    for c in text.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            _ => out.push(c),
        }
    }
}

/// Escapes an attribute value for double-quoted serialization.
pub fn escape_attr(text: &str, out: &mut String) {
    for c in text.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
}

/// Serializes a single node (and its subtree) to `out`, with an explicit
/// stack of the open elements' remaining children (no recursion per
/// level).
pub fn serialize_node(node: &Node, out: &mut String) {
    let mut open: Vec<(&QName, std::slice::Iter<'_, Node>)> = Vec::new();
    let mut next = Some(node);
    loop {
        match next {
            Some(Node::Element {
                name,
                attributes,
                children,
            }) => {
                out.push('<');
                let _ = write!(out, "{name}");
                for (aname, avalue) in attributes {
                    let _ = write!(out, " {aname}=\"");
                    escape_attr(avalue, out);
                    out.push('"');
                }
                if children.is_empty() {
                    out.push_str("/>");
                } else {
                    out.push('>');
                    open.push((name, children.iter()));
                }
            }
            Some(Node::Text(t)) => escape_text(t, out),
            Some(Node::Comment(c)) => {
                out.push_str("<!--");
                out.push_str(c);
                out.push_str("-->");
            }
            Some(Node::ProcessingInstruction { target, data }) => {
                out.push_str("<?");
                out.push_str(target);
                if !data.is_empty() {
                    out.push(' ');
                    out.push_str(data);
                }
                out.push_str("?>");
            }
            None => {}
        }
        // The next child of the innermost open element, closing every
        // element that has none left.
        next = loop {
            let Some((name, children)) = open.last_mut() else {
                return;
            };
            match children.next() {
                Some(child) => break Some(child),
                None => {
                    let _ = write!(out, "</{name}>");
                    open.pop();
                }
            }
        };
    }
}

/// Serializes a whole document (prolog, root, epilog).
pub fn serialize_document(doc: &Document) -> String {
    let mut out = String::new();
    for n in &doc.prolog {
        serialize_node(n, &mut out);
    }
    serialize_node(&doc.root, &mut out);
    for n in &doc.epilog {
        serialize_node(n, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::Document;

    fn round_trip(s: &str) -> String {
        serialize_document(&Document::parse(s).unwrap())
    }

    #[test]
    fn simple_round_trip() {
        assert_eq!(
            round_trip("<a><b/>x<c k=\"v\"/></a>"),
            "<a><b/>x<c k=\"v\"/></a>"
        );
    }

    #[test]
    fn nesting_empties_and_every_kind_serialize_exactly() {
        let src = "<p:a k=\"1\" q:m=\"&lt;&amp;&quot;&gt;\"><b/><c><d/><e>t&lt;</e></c>\
                   <!--x--><?pi?><?pi d?><f k=\"\"></f></p:a>";
        assert_eq!(
            round_trip(src),
            "<p:a k=\"1\" q:m=\"&lt;&amp;&quot;&gt;\"><b/><c><d/><e>t&lt;</e></c>\
             <!--x--><?pi?><?pi d?><f k=\"\"/></p:a>"
        );
        let mut leaf = String::new();
        serialize_node(&Node::text("a>b"), &mut leaf);
        assert_eq!(leaf, "a&gt;b");
    }

    #[test]
    fn escaping_round_trips() {
        let src = "<a k=\"1 &lt; 2 &amp; &quot;q&quot;\">x &lt; y &amp; z</a>";
        let doc = Document::parse(src).unwrap();
        let ser = serialize_document(&doc);
        let reparsed = Document::parse(&ser).unwrap();
        assert_eq!(doc, reparsed);
    }

    #[test]
    fn comments_and_pis_round_trip() {
        let src = "<!--hello--><r><?pi data?></r>";
        assert_eq!(round_trip(src), src);
    }

    #[test]
    fn serialize_parse_is_identity_on_parsed_docs() {
        for src in [
            "<a/>",
            "<a>t</a>",
            "<a><b><c><d></d><e></e></c></b><f><g></g><h><i></i><j></j></h></f></a>",
            "<r a=\"1\" b=\"2\"><x/>mid<y>deep</y>tail</r>",
        ] {
            let d1 = Document::parse(src).unwrap();
            let d2 = Document::parse(&serialize_document(&d1)).unwrap();
            assert_eq!(d1, d2, "round trip failed for {src}");
        }
    }
}
