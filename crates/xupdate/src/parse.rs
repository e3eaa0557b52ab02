//! Parsing XUpdate command documents from their XML syntax.

use crate::{Command, Modifications, Result, XUpdateError};
use mbxq_xml::{Document, Node, QName};
use mbxq_xpath::XPath;

fn parse_err(message: impl Into<String>) -> XUpdateError {
    XUpdateError::Parse {
        message: message.into(),
    }
}

/// Whether `name` is an XUpdate element with the given local name.
/// XUpdate binds the `xupdate` prefix to its namespace; since the storage
/// model keeps prefixes verbatim, any prefix is accepted as long as the
/// local name matches and a prefix is present (the conventional documents
/// all use `xupdate:`).
fn is_xu(name: &QName, local: &str) -> bool {
    name.has_prefix() && name.local == local
}

fn attr<'a>(node: &'a Node, name: &str) -> Option<&'a str> {
    node.attributes()
        .iter()
        .find(|(n, _)| n.local == name && !n.has_prefix())
        .map(|(_, v)| v.as_str())
}

fn required_select(node: &Node, cmd: &str) -> Result<XPath> {
    let src = attr(node, "select")
        .ok_or_else(|| parse_err(format!("<xupdate:{cmd}> requires a select attribute")))?;
    XPath::parse(src).map_err(XUpdateError::Path)
}

/// Parses a command document: either an `<xupdate:modifications>` wrapper
/// or a single bare command element.
pub fn parse_modifications(xml: &str) -> Result<Modifications> {
    let doc = Document::parse(xml).map_err(|e| parse_err(format!("not well-formed XML: {e}")))?;
    let root = &doc.root;
    let root_name = root.name().ok_or_else(|| parse_err("no root element"))?;
    let mut commands = Vec::new();
    if is_xu(root_name, "modifications") {
        for child in root.children() {
            match child {
                Node::Element { .. } => commands.push(parse_command(child)?),
                Node::Text(t) if t.trim().is_empty() => {}
                other => {
                    return Err(parse_err(format!(
                        "unexpected content in <xupdate:modifications>: {other:?}"
                    )))
                }
            }
        }
    } else {
        commands.push(parse_command(root)?);
    }
    Ok(Modifications { commands })
}

fn parse_command(node: &Node) -> Result<Command> {
    let name = node.name().expect("commands are elements");
    if !name.has_prefix() {
        return Err(parse_err(format!(
            "'{name}' is not an XUpdate command (missing xupdate prefix)"
        )));
    }
    match name.local.as_str() {
        "remove" => Ok(Command::Remove {
            select: required_select(node, "remove")?,
        }),
        "insert-before" => {
            let (content, attributes) = parse_content(node.children())?;
            Ok(Command::InsertBefore {
                select: required_select(node, "insert-before")?,
                content,
                attributes,
            })
        }
        "insert-after" => {
            let (content, attributes) = parse_content(node.children())?;
            Ok(Command::InsertAfter {
                select: required_select(node, "insert-after")?,
                content,
                attributes,
            })
        }
        "append" => {
            let child = match attr(node, "child") {
                Some(c) => Some(c.trim().parse::<usize>().map_err(|_| {
                    parse_err(format!("bad child position '{c}' on <xupdate:append>"))
                })?),
                None => None,
            };
            let (content, attributes) = parse_content(node.children())?;
            Ok(Command::Append {
                select: required_select(node, "append")?,
                child,
                content,
                attributes,
            })
        }
        "update" => {
            let (content, attributes) = parse_content(node.children())?;
            if !attributes.is_empty() {
                return Err(parse_err(
                    "<xupdate:update> cannot contain attribute constructors",
                ));
            }
            Ok(Command::Update {
                select: required_select(node, "update")?,
                content,
            })
        }
        "rename" => {
            let mut text = String::new();
            for c in node.children() {
                match c {
                    Node::Text(t) => text.push_str(t),
                    _ => return Err(parse_err("<xupdate:rename> content must be a name")),
                }
            }
            let qname = QName::parse(text.trim()).ok_or_else(|| {
                parse_err(format!("bad name '{}' in <xupdate:rename>", text.trim()))
            })?;
            Ok(Command::Rename {
                select: required_select(node, "rename")?,
                name: qname,
            })
        }
        other => Err(parse_err(format!("unknown XUpdate command '{other}'"))),
    }
}

/// Constructed content plus top-level attribute constructors.
type Content = (Vec<Node>, Vec<(QName, String)>);

/// An element under construction: the content nodes still to convert,
/// and what the converted ones built so far.
struct Frame<'a> {
    rest: std::slice::Iter<'a, Node>,
    /// `None` for the bottom frame, which collects the command's content.
    name: Option<QName>,
    attributes: Vec<(QName, String)>,
    children: Vec<Node>,
}

impl<'a> Frame<'a> {
    fn new(content: &'a [Node], name: Option<QName>, attributes: Vec<(QName, String)>) -> Self {
        Frame {
            rest: content.iter(),
            name,
            attributes,
            children: Vec::new(),
        }
    }
}

/// Converts command content into constructed nodes plus top-level
/// attribute constructors, resolving XUpdate constructors at every depth
/// (an `<xupdate:attribute>` adds to the element it sits in); whitespace-
/// only text between constructors is dropped. Nested content is walked
/// with an explicit stack of [`Frame`]s, so its depth costs heap, not
/// thread stack.
fn parse_content(content: &[Node]) -> Result<Content> {
    let mut stack = vec![Frame::new(content, None, Vec::new())];
    loop {
        let top = stack.last_mut().expect("the bottom frame is popped last");
        let Some(node) = top.rest.next() else {
            let done = stack.pop().expect("non-empty");
            let Some(name) = done.name else {
                return Ok((done.children, done.attributes));
            };
            let parent = stack.last_mut().expect("the bottom frame has no name");
            parent.children.push(Node::Element {
                name,
                attributes: done.attributes,
                children: done.children,
            });
            continue;
        };
        let leaf = match node {
            Node::Text(t) if t.trim().is_empty() => continue,
            Node::Text(_) | Node::Comment(_) | Node::ProcessingInstruction { .. } => node.clone(),
            Node::Element {
                name,
                attributes,
                children,
            } => {
                if name.has_prefix() && name.local == "attribute" {
                    let aname = attr(node, "name")
                        .ok_or_else(|| parse_err("<xupdate:attribute> requires a name"))?;
                    let aname = QName::parse(aname)
                        .ok_or_else(|| parse_err(format!("bad attribute name '{aname}'")))?;
                    top.attributes.push((aname, node.string_value()));
                    continue;
                } else if is_xu(name, "element") {
                    let ename = attr(node, "name")
                        .ok_or_else(|| parse_err("<xupdate:element> requires a name"))?;
                    let ename = QName::parse(ename)
                        .ok_or_else(|| parse_err(format!("bad element name '{ename}'")))?;
                    stack.push(Frame::new(children, Some(ename), Vec::new()));
                    continue;
                } else if is_xu(name, "text") {
                    Node::Text(node.string_value())
                } else if is_xu(name, "comment") {
                    Node::Comment(node.string_value())
                } else if is_xu(name, "processing-instruction") {
                    let target = attr(node, "name").ok_or_else(|| {
                        parse_err("<xupdate:processing-instruction> requires a name")
                    })?;
                    Node::ProcessingInstruction {
                        target: target.to_string(),
                        data: node.string_value(),
                    }
                } else if name.prefix == "xupdate" {
                    return Err(parse_err(format!(
                        "unexpected xupdate constructor '{}'",
                        name.local
                    )));
                } else {
                    // Literal XML: keep, but resolve nested constructors.
                    stack.push(Frame::new(children, Some(name.clone()), attributes.clone()));
                    continue;
                }
            }
        };
        top.children.push(leaf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_command_kinds() {
        let mods = parse_modifications(
            r#"<xupdate:modifications version="1.0">
              <xupdate:remove select="/a"/>
              <xupdate:insert-before select="/a"><x/></xupdate:insert-before>
              <xupdate:insert-after select="/a"><x/></xupdate:insert-after>
              <xupdate:append select="/a" child="2"><x/></xupdate:append>
              <xupdate:update select="/a">new</xupdate:update>
              <xupdate:rename select="/a">b</xupdate:rename>
            </xupdate:modifications>"#,
        )
        .unwrap();
        assert_eq!(mods.commands.len(), 6);
        assert!(matches!(mods.commands[0], Command::Remove { .. }));
        assert!(matches!(
            mods.commands[3],
            Command::Append { child: Some(2), .. }
        ));
    }

    #[test]
    fn element_constructor_builds_subtree() {
        let mods = parse_modifications(
            r#"<xupdate:append select="/a">
                 <xupdate:element name="k">
                   <xupdate:attribute name="id">7</xupdate:attribute>
                   <l/><xupdate:text>hi</xupdate:text>
                 </xupdate:element>
               </xupdate:append>"#,
        )
        .unwrap();
        match &mods.commands[0] {
            Command::Append { content, .. } => {
                assert_eq!(content.len(), 1);
                let k = &content[0];
                assert_eq!(k.name().unwrap().local, "k");
                assert_eq!(k.attributes().len(), 1);
                assert_eq!(k.children().len(), 2);
                assert_eq!(k.children()[1], Node::Text("hi".into()));
            }
            other => panic!("expected append, got {other:?}"),
        }
    }

    #[test]
    fn whitespace_between_constructors_dropped() {
        let mods = parse_modifications(
            "<xupdate:append select=\"/a\">\n  <x/>\n  <y/>\n</xupdate:append>",
        )
        .unwrap();
        match &mods.commands[0] {
            Command::Append { content, .. } => assert_eq!(content.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn comment_and_pi_constructors() {
        let mods = parse_modifications(
            r#"<xupdate:append select="/a">
                 <xupdate:comment>note</xupdate:comment>
                 <xupdate:processing-instruction name="php">echo</xupdate:processing-instruction>
               </xupdate:append>"#,
        )
        .unwrap();
        match &mods.commands[0] {
            Command::Append { content, .. } => {
                assert_eq!(content[0], Node::Comment("note".into()));
                assert_eq!(
                    content[1],
                    Node::ProcessingInstruction {
                        target: "php".into(),
                        data: "echo".into()
                    }
                );
            }
            other => panic!("{other:?}"),
        }
    }
}
