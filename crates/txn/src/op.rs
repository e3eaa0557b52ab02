//! Logical redo operations — the payload of WAL commit records.
//!
//! Operations address their targets by **immutable node id** (never by
//! `pre`/`pos`, which shift under updates), so a committed log replayed
//! in commit order reproduces the exact same document and the exact same
//! node-id allocation, regardless of how pre ranks moved in between.
//!
//! An op is a tag, numbers and length-prefixed strings
//! ([`mbxq_storage::codec`]): it ends where its last field ends. An
//! insert logs its subtree as a [`Fragment`] (the checkpoint's tuple
//! grammar), which every apply stages from; no XML is written or parsed.

use crate::Result;
use mbxq_storage::codec::{put_name, put_str, Cursor};
use mbxq_storage::{Fragment, InsertPosition, NodeId, PagedDoc};
use mbxq_xml::QName;
use std::io::Write as _;

/// One logical update operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Structural insert of a constructed subtree.
    Insert {
        /// Placement relative to an existing node.
        position: InsertPosition,
        /// The subtree, in the tuple-stream grammar it is logged in.
        fragment: Fragment,
        /// First node id of the inserted range (reserved at staging
        /// time from the store's shared counter, so workspace, commit
        /// replay and recovery assign identical ids).
        first_node: u64,
    },
    /// Structural delete of a whole subtree.
    Delete {
        /// Root of the doomed subtree.
        node: NodeId,
    },
    /// Content replacement on a text/comment/instruction node.
    UpdateValue {
        /// The value node.
        node: NodeId,
        /// New content.
        value: String,
    },
    /// Element rename.
    Rename {
        /// The element.
        node: NodeId,
        /// New name.
        name: QName,
    },
    /// Attribute set/replace.
    SetAttr {
        /// The element.
        node: NodeId,
        /// Attribute name.
        name: QName,
        /// Attribute value.
        value: String,
    },
    /// Attribute removal.
    RemoveAttr {
        /// The element.
        node: NodeId,
        /// Attribute name.
        name: QName,
    },
}

impl Op {
    /// Applies the operation to `doc`; returns
    /// `(inserted, deleted, ancestors_touched)`.
    pub fn apply(&self, doc: &mut PagedDoc) -> Result<(u64, u64, u64)> {
        match self {
            Op::Insert {
                position,
                fragment,
                first_node,
            } => {
                let r = doc.insert_fragment(*position, fragment, *first_node)?;
                Ok((r.inserted, 0, r.ancestors_updated as u64))
            }
            Op::Delete { node } => {
                let r = doc.delete(*node)?;
                Ok((0, r.deleted, r.ancestors_updated as u64))
            }
            Op::UpdateValue { node, value } => {
                doc.update_value(*node, value)?;
                Ok((0, 0, 0))
            }
            Op::Rename { node, name } => {
                doc.rename(*node, name)?;
                Ok((0, 0, 0))
            }
            Op::SetAttr { node, name, value } => {
                doc.set_attribute(*node, name, value)?;
                Ok((0, 0, 0))
            }
            Op::RemoveAttr { node, name } => {
                doc.remove_attribute(*node, name)?;
                Ok((0, 0, 0))
            }
        }
    }

    /// Appends the op in the WAL text format: a tag, numbers and
    /// length-prefixed strings ([`mbxq_storage::codec`]), so the reader
    /// knows where the op ends whatever its strings hold. An insert's
    /// fragment is copied in as one such string.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        let written = match self {
            Op::Insert {
                position,
                fragment,
                first_node,
            } => {
                let (tag, node, extra) = match position {
                    InsertPosition::Before(n) => ("before", n.0, 0),
                    InsertPosition::After(n) => ("after", n.0, 0),
                    InsertPosition::LastChildOf(n) => ("lastchild", n.0, 0),
                    InsertPosition::ChildAt(n, k) => ("childat", n.0, *k as u64),
                };
                let tuples = fragment.tuples;
                write!(out, "F {tag} {node} {extra} {first_node} {tuples} ")
                    .and_then(|()| put_str(out, &fragment.text, b""))
            }
            Op::Delete { node } => write!(out, "D {}", node.0),
            Op::UpdateValue { node, value } => {
                write!(out, "V {} ", node.0).and_then(|()| put_str(out, value, b""))
            }
            Op::Rename { node, name } => {
                write!(out, "R {} ", node.0).and_then(|()| put_name(out, Some(name), b""))
            }
            Op::SetAttr { node, name, value } => write!(out, "S {} ", node.0)
                .and_then(|()| put_name(out, Some(name), b" "))
                .and_then(|()| put_str(out, value, b"")),
            Op::RemoveAttr { node, name } => {
                write!(out, "X {} ", node.0).and_then(|()| put_name(out, Some(name), b""))
            }
        };
        written.expect("writing to a Vec cannot fail");
    }

    /// Reads the op at `cur`, leaving the cursor just behind it.
    pub(crate) fn read(cur: &mut Cursor<'_>) -> std::result::Result<Op, String> {
        let field = |f| format!("bad or missing {f}");
        let op = match cur.token("op tag").map_err(field)? {
            "F" => {
                let tag = cur.token("insert position").map_err(field)?;
                let node = NodeId(cur.num("insert target").map_err(field)?);
                let extra = cur.num("child position").map_err(field)?;
                let first_node = cur.num("first node id").map_err(field)?;
                let tuples = cur.num("fragment tuple count").map_err(field)?;
                let text = cur.take_str("fragment").map_err(field)?;
                let position = match tag {
                    "before" => InsertPosition::Before(node),
                    "after" => InsertPosition::After(node),
                    "lastchild" => InsertPosition::LastChildOf(node),
                    "childat" => InsertPosition::ChildAt(
                        node,
                        usize::try_from(extra).map_err(|_| "bad child position")?,
                    ),
                    other => return Err(format!("bad insert position '{other}'")),
                };
                Op::Insert {
                    position,
                    fragment: Fragment {
                        tuples,
                        text: text.to_string(),
                    },
                    first_node,
                }
            }
            "I" => {
                return Err("an insert logged as XML text (op tag I), a form no longer \
                     read: replay this log with the release that wrote it"
                    .into())
            }
            "D" => Op::Delete {
                node: NodeId(cur.num("node id").map_err(field)?),
            },
            "V" => Op::UpdateValue {
                node: NodeId(cur.num("node id").map_err(field)?),
                value: cur.take_str("value").map_err(field)?.to_string(),
            },
            "R" => Op::Rename {
                node: NodeId(cur.num("node id").map_err(field)?),
                name: cur.name("element name").map_err(field)?,
            },
            "S" => Op::SetAttr {
                node: NodeId(cur.num("node id").map_err(field)?),
                name: cur.name("attribute name").map_err(field)?,
                value: cur.take_str("attribute value").map_err(field)?.to_string(),
            },
            "X" => Op::RemoveAttr {
                node: NodeId(cur.num("node id").map_err(field)?),
                name: cur.name("attribute name").map_err(field)?,
            },
            other => return Err(format!("unknown op kind '{other}'")),
        };
        Ok(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbxq_xml::Document;

    fn encoded(op: &Op) -> String {
        let mut out = Vec::new();
        op.encode(&mut out);
        String::from_utf8(out).unwrap()
    }

    fn decode(text: &str) -> std::result::Result<Op, String> {
        let mut cur = Cursor::new(text);
        let op = Op::read(&mut cur)?;
        if !cur.at_end() {
            return Err("trailing bytes".into());
        }
        Ok(op)
    }

    fn round_trip(op: Op) {
        let s = encoded(&op);
        let back = decode(&s).unwrap();
        assert_eq!(op, back, "encoded as: {s}");
    }

    fn fragment(xml: &str) -> Fragment {
        Fragment::of(&Document::parse_fragment(xml).unwrap())
    }

    #[test]
    fn all_ops_round_trip() {
        round_trip(Op::Delete { node: NodeId(42) });
        round_trip(Op::UpdateValue {
            node: NodeId(7),
            value: "contains spaces: and 12:34 colons".into(),
        });
        round_trip(Op::Rename {
            node: NodeId(0),
            name: QName::prefixed("ns", "thing"),
        });
        round_trip(Op::SetAttr {
            node: NodeId(3),
            name: QName::local("id"),
            value: "x y z".into(),
        });
        round_trip(Op::RemoveAttr {
            node: NodeId(3),
            name: QName::local("id"),
        });
        round_trip(Op::Insert {
            position: InsertPosition::ChildAt(NodeId(9), 2),
            fragment: fragment("<k a=\"1\"><l/>text<m/></k>"),
            first_node: 100,
        });
        round_trip(Op::Insert {
            position: InsertPosition::After(NodeId(1)),
            fragment: fragment("<k/>"),
            first_node: 0,
        });
    }

    /// The bytes of every op kind, pinned: the ops other than an insert
    /// are written as they were before inserts logged fragments.
    #[test]
    fn the_op_bytes_are_pinned() {
        let ops = [
            (Op::Delete { node: NodeId(5) }, "D 5"),
            (
                Op::UpdateValue {
                    node: NodeId(2),
                    value: "a b".into(),
                },
                "V 2 3:a b",
            ),
            (
                Op::SetAttr {
                    node: NodeId(3),
                    name: QName::prefixed("p", "id"),
                    value: "v".into(),
                },
                "S 3 4:p:id 1:v",
            ),
            (
                Op::Insert {
                    position: InsertPosition::LastChildOf(NodeId(4)),
                    fragment: fragment("<k a=\"1\">t<!--c--></k>"),
                    first_node: 12,
                },
                "F lastchild 4 0 12 3 42:E 0 0 1:k T 1 1 1:t M 2 1 1:c A 0 1:a 1:1 ",
            ),
        ];
        for (op, bytes) in ops {
            assert_eq!(encoded(&op), bytes);
            round_trip(op);
        }
    }

    #[test]
    fn payload_with_xmlish_content_survives() {
        round_trip(Op::UpdateValue {
            node: NodeId(1),
            value: "</fake> <xml & entities> \u{1f} sep".into(),
        });
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode("").is_err());
        assert!(decode("Z 1").is_err());
        assert!(decode("D notanumber").is_err());
        assert!(decode("V 3 99:short").is_err());
        // A length that ends inside a character: refused, not a panic.
        assert!(decode("V 1 1:\u{e9}").is_err());
        assert!(decode("F sideways 1 0 9 1 10:E 0 0 1:x ").is_err());
    }

    /// A log written before inserts logged fragments is refused by name,
    /// not misread.
    #[test]
    fn an_insert_in_the_old_xml_form_is_refused_by_name() {
        let err = decode("I lastchild 4 0 12 4:<x/>").unwrap_err();
        assert!(err.contains("XML text (op tag I)"), "{err}");
    }
}
