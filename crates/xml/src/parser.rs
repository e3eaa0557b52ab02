//! A pull (event) parser for the XML subset the storage schema represents.
//!
//! The shredders of all three `mbxq-storage` schemas consume this event
//! stream directly, without building a tree: a `StartElement` opens a
//! node (assigning its `pre` rank), `EndElement` closes it (fixing its
//! `size`), and the leaf events inside the root element become text /
//! comment / processing-instruction tuples; comments and instructions
//! before or after the root are not stored. This mirrors how pre and
//! post ranks "count how many tags have been opened and closed,
//! respectively, as seen when parsing the document sequentially" (§2.2).
//! [`crate::Document::parse`] builds its tree from the same stream, for
//! fragments and test oracles. The parser keeps only the stack of open
//! element names, so nesting depth costs heap, not thread stack.

use crate::{QName, Result, TextPos, XmlError};

/// One parse event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// `<name attr="value" …>` or `<name …/>` (the latter is immediately
    /// followed by a matching [`Event::EndElement`]).
    StartElement {
        /// Element name.
        name: QName,
        /// Attributes in document order, entity references resolved.
        attributes: Vec<(QName, String)>,
    },
    /// `</name>` (or the implicit close of an empty-element tag).
    EndElement {
        /// Element name.
        name: QName,
    },
    /// Character data (entity references resolved, CDATA unwrapped).
    /// Adjacent runs are merged into one event.
    Text(String),
    /// `<!-- … -->`.
    Comment(String),
    /// `<?target data?>`.
    ProcessingInstruction {
        /// PI target.
        target: String,
        /// PI data (may be empty).
        data: String,
    },
}

/// Streaming XML parser over an in-memory string.
///
/// Iterate with [`Parser::next_event`] until it returns `Ok(None)`.
/// The parser validates well-formedness (tag balance, attribute
/// uniqueness, single root) as it goes.
pub struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
    /// Open element stack, used for end-tag matching.
    stack: Vec<QName>,
    /// Whether the root element has been closed.
    root_done: bool,
    /// Whether any root element was seen.
    root_seen: bool,
    /// Pending event (an empty-element tag yields two events).
    pending_end: Option<QName>,
    /// Buffer for coalescing adjacent text runs.
    text_buf: String,
}

impl<'a> Parser<'a> {
    /// Creates a parser over `input`.
    pub fn new(input: &'a str) -> Self {
        Parser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
            stack: Vec::new(),
            root_done: false,
            root_seen: false,
            pending_end: None,
            text_buf: String::new(),
        }
    }

    /// Byte offset of the next unread input: after an event, where the
    /// text behind that event starts.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Current position (for error reporting).
    fn text_pos(&self) -> TextPos {
        TextPos {
            offset: self.pos,
            line: self.line,
            column: self.col,
        }
    }

    fn syntax(&self, message: impl Into<String>) -> XmlError {
        XmlError::Syntax {
            message: message.into(),
            pos: self.text_pos(),
        }
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    #[inline]
    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s)
    }

    /// Advances over `n` bytes, maintaining line/column. `n` must land on
    /// a char boundary.
    fn advance(&mut self, n: usize) {
        for c in self.input[self.pos..self.pos + n].chars() {
            if c == '\n' {
                self.line += 1;
                self.col = 1;
            } else {
                self.col += 1;
            }
        }
        self.pos += n;
    }

    fn skip_whitespace(&mut self) {
        while let Some(b) = self.peek() {
            if b == b' ' || b == b'\t' || b == b'\r' || b == b'\n' {
                self.advance(1);
            } else {
                break;
            }
        }
    }

    /// Reads bytes until `stop` occurs, returning the slice before it and
    /// consuming both. Errors with `context` on EOF.
    fn take_until(&mut self, stop: &str, context: &'static str) -> Result<&'a str> {
        match self.input[self.pos..].find(stop) {
            Some(rel) => {
                let s = &self.input[self.pos..self.pos + rel];
                self.advance(rel + stop.len());
                Ok(s)
            }
            None => Err(XmlError::UnexpectedEof { context }),
        }
    }

    fn read_name(&mut self) -> Result<QName> {
        let start = self.pos;
        let mut chars = self.input[self.pos..].char_indices();
        match chars.next() {
            Some((_, c)) if crate::name::is_name_start_char(c) || c == ':' => {}
            _ => return Err(self.syntax("expected a name")),
        }
        let mut end = self.input.len();
        for (i, c) in chars {
            if !(crate::name::is_name_char(c) || c == ':') {
                end = start + i;
                break;
            }
        }
        if end == self.input.len() {
            end = self.input.len();
        }
        let raw = &self.input[start..end];
        self.advance(end - start);
        QName::parse(raw).ok_or_else(|| self.syntax(format!("malformed name '{raw}'")))
    }

    /// Resolves a `&…;` reference starting at the current `&`.
    fn read_reference(&mut self, out: &mut String) -> Result<()> {
        let pos = self.text_pos();
        debug_assert_eq!(self.peek(), Some(b'&'));
        self.advance(1);
        let body = match self.input[self.pos..].find(';') {
            Some(rel) if rel <= 32 => {
                let s = &self.input[self.pos..self.pos + rel];
                self.advance(rel + 1);
                s
            }
            _ => {
                return Err(XmlError::BadReference {
                    reference: "&".into(),
                    pos,
                })
            }
        };
        let resolved = match body {
            "lt" => Some('<'),
            "gt" => Some('>'),
            "amp" => Some('&'),
            "apos" => Some('\''),
            "quot" => Some('"'),
            _ => {
                if let Some(hex) = body.strip_prefix("#x").or_else(|| body.strip_prefix("#X")) {
                    u32::from_str_radix(hex, 16).ok().and_then(char::from_u32)
                } else if let Some(dec) = body.strip_prefix('#') {
                    dec.parse::<u32>().ok().and_then(char::from_u32)
                } else {
                    None
                }
            }
        };
        match resolved {
            Some(c) => {
                out.push(c);
                Ok(())
            }
            None => Err(XmlError::BadReference {
                reference: format!("&{body};"),
                pos,
            }),
        }
    }

    /// Reads an attribute value delimited by `quote`, resolving references.
    fn read_attr_value(&mut self, quote: u8) -> Result<String> {
        let mut out = String::new();
        loop {
            match self.peek() {
                None => {
                    return Err(XmlError::UnexpectedEof {
                        context: "attribute value",
                    })
                }
                Some(b) if b == quote => {
                    self.advance(1);
                    return Ok(out);
                }
                Some(b'&') => self.read_reference(&mut out)?,
                Some(b'<') => return Err(self.syntax("'<' not allowed in attribute value")),
                Some(_) => {
                    let c = self.input[self.pos..].chars().next().expect("non-empty");
                    out.push(c);
                    self.advance(c.len_utf8());
                }
            }
        }
    }

    /// Produces the next event, or `Ok(None)` at the end of a well-formed
    /// document.
    #[allow(clippy::should_implement_trait)]
    pub fn next_event(&mut self) -> Result<Option<Event>> {
        if let Some(name) = self.pending_end.take() {
            if self.stack.is_empty() {
                self.root_done = true;
            }
            return Ok(Some(Event::EndElement { name }));
        }
        loop {
            // Coalesce character data until markup (only inside the root).
            if !self.stack.is_empty() {
                self.text_buf.clear();
                loop {
                    match self.peek() {
                        None => {
                            return Err(XmlError::UnexpectedEof {
                                context: "element content",
                            })
                        }
                        Some(b'<') => {
                            if self.starts_with("<![CDATA[") {
                                self.advance("<![CDATA[".len());
                                let data = self.take_until("]]>", "CDATA section")?;
                                self.text_buf.push_str(data);
                                continue;
                            }
                            break;
                        }
                        Some(b'&') => {
                            let mut tmp = std::mem::take(&mut self.text_buf);
                            self.read_reference(&mut tmp)?;
                            self.text_buf = tmp;
                        }
                        Some(_) => {
                            let rest = &self.input[self.pos..];
                            let run = rest.find(['<', '&']).unwrap_or(rest.len());
                            self.text_buf.push_str(&rest[..run]);
                            self.advance(run);
                        }
                    }
                }
                if !self.text_buf.is_empty() {
                    return Ok(Some(Event::Text(std::mem::take(&mut self.text_buf))));
                }
            } else {
                // Prolog / epilog: only whitespace, comments, PIs, doctype.
                self.skip_whitespace();
                if self.peek().is_none() {
                    if !self.root_seen {
                        return Err(XmlError::Structure {
                            message: "document has no root element".into(),
                        });
                    }
                    return Ok(None);
                }
                if self.peek() != Some(b'<') {
                    return Err(self.syntax("character data outside the root element"));
                }
            }

            // At '<'.
            if self.starts_with("<!--") {
                self.advance(4);
                let text = self.take_until("-->", "comment")?;
                if text.contains("--") {
                    return Err(self.syntax("'--' not allowed inside a comment"));
                }
                return Ok(Some(Event::Comment(text.to_string())));
            }
            if self.starts_with("<?") {
                self.advance(2);
                let body = self.take_until("?>", "processing instruction")?;
                let (target, data) = match body.find(|c: char| c.is_ascii_whitespace()) {
                    Some(i) => (&body[..i], body[i..].trim()),
                    None => (body, ""),
                };
                if target.is_empty() {
                    return Err(self.syntax("processing instruction without a target"));
                }
                if target.eq_ignore_ascii_case("xml") {
                    // XML declaration (or a PI reserved target) — skip it.
                    continue;
                }
                return Ok(Some(Event::ProcessingInstruction {
                    target: target.to_string(),
                    data: data.to_string(),
                }));
            }
            if self.starts_with("<!DOCTYPE") {
                // Skip the doctype declaration, tracking bracket nesting
                // for an internal subset.
                self.advance("<!DOCTYPE".len());
                let mut depth = 0i32;
                loop {
                    match self.peek() {
                        None => return Err(XmlError::UnexpectedEof { context: "DOCTYPE" }),
                        Some(b'[') => {
                            depth += 1;
                            self.advance(1);
                        }
                        Some(b']') => {
                            depth -= 1;
                            self.advance(1);
                        }
                        Some(b'>') if depth <= 0 => {
                            self.advance(1);
                            break;
                        }
                        Some(_) => self.advance(1),
                    }
                }
                continue;
            }
            if self.starts_with("</") {
                let pos = self.text_pos();
                self.advance(2);
                let name = self.read_name()?;
                self.skip_whitespace();
                if self.peek() != Some(b'>') {
                    return Err(self.syntax("expected '>' after end tag name"));
                }
                self.advance(1);
                match self.stack.pop() {
                    Some(open) if open == name => {
                        if self.stack.is_empty() {
                            self.root_done = true;
                        }
                        return Ok(Some(Event::EndElement { name }));
                    }
                    Some(open) => {
                        return Err(XmlError::MismatchedTag {
                            expected: open.to_string(),
                            found: name.to_string(),
                            pos,
                        })
                    }
                    None => {
                        return Err(XmlError::Structure {
                            message: format!("end tag </{name}> with no open element"),
                        })
                    }
                }
            }
            if self.peek() == Some(b'<') {
                // Start tag.
                if self.root_done && self.stack.is_empty() {
                    return Err(XmlError::Structure {
                        message: "content after the root element was closed".into(),
                    });
                }
                self.advance(1);
                let name = self.read_name()?;
                let mut attributes: Vec<(QName, String)> = Vec::new();
                loop {
                    self.skip_whitespace();
                    match self.peek() {
                        None => {
                            return Err(XmlError::UnexpectedEof {
                                context: "start tag",
                            })
                        }
                        Some(b'>') => {
                            self.advance(1);
                            self.stack.push(name.clone());
                            self.root_seen = true;
                            return Ok(Some(Event::StartElement { name, attributes }));
                        }
                        Some(b'/') => {
                            self.advance(1);
                            if self.peek() != Some(b'>') {
                                return Err(self.syntax("expected '>' after '/'"));
                            }
                            self.advance(1);
                            self.root_seen = true;
                            self.pending_end = Some(name.clone());
                            return Ok(Some(Event::StartElement { name, attributes }));
                        }
                        Some(_) => {
                            let apos = self.text_pos();
                            let aname = self.read_name()?;
                            self.skip_whitespace();
                            if self.peek() != Some(b'=') {
                                return Err(self.syntax("expected '=' after attribute name"));
                            }
                            self.advance(1);
                            self.skip_whitespace();
                            let quote = match self.peek() {
                                Some(q @ (b'"' | b'\'')) => q,
                                _ => return Err(self.syntax("expected quoted attribute value")),
                            };
                            self.advance(1);
                            let value = self.read_attr_value(quote)?;
                            if attributes.iter().any(|(n, _)| *n == aname) {
                                return Err(XmlError::DuplicateAttribute {
                                    name: aname.to_string(),
                                    pos: apos,
                                });
                            }
                            attributes.push((aname, value));
                        }
                    }
                }
            }
            unreachable!("markup dispatch is exhaustive");
        }
    }

    /// Collects all events of the document.
    pub fn collect_events(mut self) -> Result<Vec<Event>> {
        let mut out = Vec::new();
        while let Some(ev) = self.next_event()? {
            out.push(ev);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(s: &str) -> Vec<Event> {
        Parser::new(s).collect_events().expect("well-formed")
    }

    fn start(name: &str) -> Event {
        Event::StartElement {
            name: QName::parse(name).unwrap(),
            attributes: vec![],
        }
    }

    fn end(name: &str) -> Event {
        Event::EndElement {
            name: QName::parse(name).unwrap(),
        }
    }

    #[test]
    fn parses_the_papers_example_document() {
        // Figure 2(i) of the paper.
        let doc = "<a><b><c><d></d><e></e></c></b><f><g></g><h><i></i><j></j></h></f></a>";
        let evs = events(doc);
        let opens: Vec<_> = evs
            .iter()
            .filter_map(|e| match e {
                Event::StartElement { name, .. } => Some(name.local.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(opens, ["a", "b", "c", "d", "e", "f", "g", "h", "i", "j"]);
        // pre rank = open order; post rank = close order.
        let closes: Vec<_> = evs
            .iter()
            .filter_map(|e| match e {
                Event::EndElement { name } => Some(name.local.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(closes, ["d", "e", "c", "b", "g", "i", "j", "h", "f", "a"]);
    }

    #[test]
    fn empty_element_tag_yields_start_and_end() {
        assert_eq!(events("<r/>"), vec![start("r"), end("r")]);
    }

    #[test]
    fn attributes_preserve_order_and_resolve_references() {
        let evs = events(r#"<r a="1" b="x &amp; y" c='&#65;&#x42;'/>"#);
        match &evs[0] {
            Event::StartElement { attributes, .. } => {
                assert_eq!(
                    attributes
                        .iter()
                        .map(|(n, v)| (n.to_string(), v.clone()))
                        .collect::<Vec<_>>(),
                    vec![
                        ("a".to_string(), "1".to_string()),
                        ("b".to_string(), "x & y".to_string()),
                        ("c".to_string(), "AB".to_string()),
                    ]
                );
            }
            other => panic!("expected start element, got {other:?}"),
        }
    }

    #[test]
    fn text_runs_are_coalesced_across_cdata_and_references() {
        let evs = events("<r>a&lt;b<![CDATA[<raw>]]>c</r>");
        assert_eq!(evs[1], Event::Text("a<b<raw>c".to_string()));
    }

    #[test]
    fn comments_and_pis_are_events() {
        let evs = events("<?xml version=\"1.0\"?><!-- hi --><r><?php echo ?></r>");
        assert_eq!(evs[0], Event::Comment(" hi ".to_string()));
        assert_eq!(
            evs[2],
            Event::ProcessingInstruction {
                target: "php".to_string(),
                data: "echo".to_string()
            }
        );
    }

    #[test]
    fn doctype_is_skipped() {
        let evs = events("<!DOCTYPE site SYSTEM \"auction.dtd\" [ <!ENTITY x \"y\"> ]><r/>");
        assert_eq!(evs, vec![start("r"), end("r")]);
    }

    #[test]
    fn mismatched_tags_are_rejected() {
        assert!(matches!(
            Parser::new("<a><b></a></b>").collect_events(),
            Err(XmlError::MismatchedTag { .. })
        ));
    }

    #[test]
    fn duplicate_attributes_are_rejected() {
        assert!(matches!(
            Parser::new(r#"<a x="1" x="2"/>"#).collect_events(),
            Err(XmlError::DuplicateAttribute { .. })
        ));
    }

    #[test]
    fn two_roots_are_rejected() {
        assert!(matches!(
            Parser::new("<a/><b/>").collect_events(),
            Err(XmlError::Structure { .. })
        ));
    }

    #[test]
    fn missing_root_is_rejected() {
        assert!(matches!(
            Parser::new("  <!-- only a comment --> ").collect_events(),
            Err(XmlError::Structure { .. })
        ));
    }

    #[test]
    fn truncated_input_is_eof() {
        assert!(matches!(
            Parser::new("<a><b>text").collect_events(),
            Err(XmlError::UnexpectedEof { .. })
        ));
        assert!(matches!(
            Parser::new("<a foo=\"bar").collect_events(),
            Err(XmlError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn bad_references_are_reported() {
        assert!(matches!(
            Parser::new("<a>&nope;</a>").collect_events(),
            Err(XmlError::BadReference { .. })
        ));
        assert!(matches!(
            Parser::new("<a>&#x110000;</a>").collect_events(),
            Err(XmlError::BadReference { .. })
        ));
    }

    #[test]
    fn error_positions_track_lines() {
        let err = Parser::new("<a>\n  <b x=>\n</a>")
            .collect_events()
            .unwrap_err();
        match err {
            XmlError::Syntax { pos, .. } => assert_eq!(pos.line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn unicode_text_survives() {
        let evs = events("<r>héllo wörld — ünïcode</r>");
        assert_eq!(evs[1], Event::Text("héllo wörld — ünïcode".to_string()));
    }

    #[test]
    fn whitespace_only_text_is_preserved_inside_root() {
        let evs = events("<r> <a/> </r>");
        assert_eq!(evs[1], Event::Text(" ".to_string()));
        assert_eq!(evs[4], Event::Text(" ".to_string()));
    }
}
