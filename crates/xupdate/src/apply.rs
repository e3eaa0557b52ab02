//! Executing XUpdate commands against a storage backend.

use crate::{Command, Modifications, Result, XUpdateError};
use mbxq_storage::{InsertPosition, NaiveDoc, NodeId, PagedDoc, TreeView};
use mbxq_xml::{Node, QName};

/// Counters describing what an execution did (the "update volume").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutionSummary {
    /// Commands executed.
    pub commands: usize,
    /// Tuples deleted by `remove`/`update`.
    pub nodes_removed: u64,
    /// Tuples inserted by the insert commands and `update`.
    pub nodes_inserted: u64,
    /// Value nodes whose content was replaced in place.
    pub values_updated: u64,
    /// Attributes set by attribute constructors.
    pub attrs_set: u64,
    /// Elements renamed.
    pub nodes_renamed: u64,
}

/// The mutable-store interface XUpdate execution needs. Implemented by
/// the paged store and by the naive shifting store, so identical command
/// scripts can be replayed against both (oracle testing, and the
/// Figure 3 ablation benchmark).
pub trait UpdateTarget {
    /// The tree a command's `select` expression is evaluated on.
    type View: TreeView + ?Sized;
    /// The current state of the target, earlier commands' effects
    /// included.
    fn xu_view(&self) -> &Self::View;
    /// Inserts a subtree; returns the number of tuples inserted.
    fn xu_insert(&mut self, position: InsertPosition, subtree: &Node) -> mbxq_storage::Result<u64>;
    /// Deletes a subtree; returns the number of tuples removed.
    fn xu_delete(&mut self, target: NodeId) -> mbxq_storage::Result<u64>;
    /// Replaces the content of a non-element node.
    fn xu_update_value(&mut self, target: NodeId, value: &str) -> mbxq_storage::Result<()>;
    /// Renames an element.
    fn xu_rename(&mut self, target: NodeId, name: &QName) -> mbxq_storage::Result<()>;
    /// Sets an attribute on an element.
    fn xu_set_attribute(
        &mut self,
        target: NodeId,
        name: &QName,
        value: &str,
    ) -> mbxq_storage::Result<()>;
    /// Current pre rank of a node id.
    fn xu_node_to_pre(&self, node: NodeId) -> mbxq_storage::Result<u64>;
    /// Node id at a pre rank.
    fn xu_pre_to_node(&self, pre: u64) -> mbxq_storage::Result<NodeId>;
}

impl UpdateTarget for PagedDoc {
    type View = PagedDoc;

    fn xu_view(&self) -> &PagedDoc {
        self
    }

    fn xu_insert(&mut self, position: InsertPosition, subtree: &Node) -> mbxq_storage::Result<u64> {
        self.insert(position, subtree).map(|r| r.inserted)
    }

    fn xu_delete(&mut self, target: NodeId) -> mbxq_storage::Result<u64> {
        self.delete(target).map(|r| r.deleted)
    }

    fn xu_update_value(&mut self, target: NodeId, value: &str) -> mbxq_storage::Result<()> {
        self.update_value(target, value)
    }

    fn xu_rename(&mut self, target: NodeId, name: &QName) -> mbxq_storage::Result<()> {
        self.rename(target, name)
    }

    fn xu_set_attribute(
        &mut self,
        target: NodeId,
        name: &QName,
        value: &str,
    ) -> mbxq_storage::Result<()> {
        self.set_attribute(target, name, value)
    }

    fn xu_node_to_pre(&self, node: NodeId) -> mbxq_storage::Result<u64> {
        self.node_to_pre(node)
    }

    fn xu_pre_to_node(&self, pre: u64) -> mbxq_storage::Result<NodeId> {
        self.pre_to_node(pre)
    }
}

impl UpdateTarget for NaiveDoc {
    type View = NaiveDoc;

    fn xu_view(&self) -> &NaiveDoc {
        self
    }

    fn xu_insert(&mut self, position: InsertPosition, subtree: &Node) -> mbxq_storage::Result<u64> {
        self.insert(position, subtree).map(|r| r.changed)
    }

    fn xu_delete(&mut self, target: NodeId) -> mbxq_storage::Result<u64> {
        self.delete(target).map(|r| r.changed)
    }

    fn xu_update_value(&mut self, target: NodeId, value: &str) -> mbxq_storage::Result<()> {
        self.update_value(target, value)
    }

    fn xu_rename(&mut self, target: NodeId, name: &QName) -> mbxq_storage::Result<()> {
        self.rename(target, name)
    }

    fn xu_set_attribute(
        &mut self,
        target: NodeId,
        name: &QName,
        value: &str,
    ) -> mbxq_storage::Result<()> {
        self.set_attribute(target, name, value)
    }

    fn xu_node_to_pre(&self, node: NodeId) -> mbxq_storage::Result<u64> {
        self.node_to_pre(node)
    }

    fn xu_pre_to_node(&self, pre: u64) -> mbxq_storage::Result<NodeId> {
        self.pre_to_node(pre)
    }
}

/// Executes a command sequence. Each command's XPath is evaluated first
/// and the resulting targets pinned by **node id** — updates shift pre
/// ranks, node ids never change (§3.1) — then the command is applied to
/// every target in document order.
pub fn execute<T: UpdateTarget>(doc: &mut T, mods: &Modifications) -> Result<ExecutionSummary> {
    let mut summary = ExecutionSummary::default();
    for cmd in &mods.commands {
        summary.commands += 1;
        match cmd {
            Command::Remove { select } => {
                for node in select_nodes(doc, select)? {
                    // A previous removal may have deleted this target
                    // (nested selection); skip dead ids.
                    if doc.xu_node_to_pre(node).is_err() {
                        continue;
                    }
                    summary.nodes_removed += doc.xu_delete(node)?;
                }
            }
            Command::InsertBefore {
                select,
                content,
                attributes,
            } => {
                for node in select_nodes(doc, select)? {
                    for item in content {
                        summary.nodes_inserted +=
                            doc.xu_insert(InsertPosition::Before(node), item)?;
                    }
                    summary.attrs_set += set_attrs(doc, node, attributes)?;
                }
            }
            Command::InsertAfter {
                select,
                content,
                attributes,
            } => {
                for node in select_nodes(doc, select)? {
                    // Insert in reverse so the sequence ends up in
                    // document order directly after the target.
                    for item in content.iter().rev() {
                        summary.nodes_inserted +=
                            doc.xu_insert(InsertPosition::After(node), item)?;
                    }
                    summary.attrs_set += set_attrs(doc, node, attributes)?;
                }
            }
            Command::Append {
                select,
                child,
                content,
                attributes,
            } => {
                for node in select_nodes(doc, select)? {
                    match child {
                        None => {
                            for item in content {
                                summary.nodes_inserted +=
                                    doc.xu_insert(InsertPosition::LastChildOf(node), item)?;
                            }
                        }
                        Some(k) => {
                            for (i, item) in content.iter().enumerate() {
                                summary.nodes_inserted +=
                                    doc.xu_insert(InsertPosition::ChildAt(node, k + i), item)?;
                            }
                        }
                    }
                    summary.attrs_set += set_attrs(doc, node, attributes)?;
                }
            }
            Command::Update { select, content } => {
                for node in select_nodes(doc, select)? {
                    let pre = doc.xu_node_to_pre(node)?;
                    let view = doc.xu_view();
                    match view.kind(pre) {
                        Some(mbxq_storage::Kind::Element) => {
                            // Replace children: delete existing, append new.
                            let child_nodes: Vec<NodeId> = mbxq_axes::children(view, pre)
                                .map(|p| doc.xu_pre_to_node(p))
                                .collect::<mbxq_storage::Result<_>>()?;
                            for c in child_nodes {
                                summary.nodes_removed += doc.xu_delete(c)?;
                            }
                            for item in content {
                                summary.nodes_inserted +=
                                    doc.xu_insert(InsertPosition::LastChildOf(node), item)?;
                            }
                        }
                        Some(_) => {
                            let text = content_string(content);
                            doc.xu_update_value(node, &text)?;
                            summary.values_updated += 1;
                        }
                        None => {
                            return Err(XUpdateError::Storage(
                                mbxq_storage::StorageError::BadNode { node },
                            ))
                        }
                    }
                }
            }
            Command::Rename { select, name } => {
                for node in select_nodes(doc, select)? {
                    doc.xu_rename(node, name)?;
                    summary.nodes_renamed += 1;
                }
            }
        }
    }
    Ok(summary)
}

/// Evaluates a command's selection and pins the targets by node id.
fn select_nodes<T: UpdateTarget>(doc: &T, path: &mbxq_xpath::XPath) -> Result<Vec<NodeId>> {
    let pres = path.select_from_root(doc.xu_view())?;
    pres.into_iter()
        .map(|p| doc.xu_pre_to_node(p).map_err(XUpdateError::Storage))
        .collect()
}

fn set_attrs<T: UpdateTarget>(doc: &mut T, node: NodeId, attrs: &[(QName, String)]) -> Result<u64> {
    for (name, value) in attrs {
        doc.xu_set_attribute(node, name, value)?;
    }
    Ok(attrs.len() as u64)
}

fn content_string(content: &[Node]) -> String {
    let mut out = String::new();
    for n in content {
        match n {
            Node::Text(t) => out.push_str(t),
            other => out.push_str(&other.string_value()),
        }
    }
    out
}
