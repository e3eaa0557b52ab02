//! `mbxq-core` — the public facade of the MonetDB/XQuery pre/post-plane
//! reproduction.
//!
//! This crate ties the subsystems together into the API a downstream
//! user works with: a [`Database`] that holds named XML documents in
//! either the **read-only** schema (dense pre/size/level, Figure 5) or
//! the **updateable** schema (paged pos/size/level + pageOffset +
//! node→pos, Figure 6, with the full ACID machinery of Figure 8), and
//! runs XPath queries and XUpdate scripts against them.
//!
//! ```
//! use mbxq_core::{Database, StorageMode};
//!
//! let mut db = Database::new();
//! db.load(
//!     "docs",
//!     r#"<library><book year="2005"><title>Pre/Post Plane</title></book></library>"#,
//!     StorageMode::default_updatable(),
//! )
//! .unwrap();
//!
//! // Query.
//! let titles = db.query("docs", "/library/book/title").unwrap();
//! assert_eq!(titles.items, vec!["<title>Pre/Post Plane</title>"]);
//!
//! // Update (ACID auto-commit transaction), then query again.
//! db.update(
//!     "docs",
//!     r#"<xupdate:modifications version="1.0">
//!          <xupdate:append select="/library">
//!            <xupdate:element name="book"><title>Staircase Join</title></xupdate:element>
//!          </xupdate:append>
//!        </xupdate:modifications>"#,
//! )
//! .unwrap();
//! assert_eq!(db.query("docs", "count(/library/book)").unwrap().items, vec!["2"]);
//! ```

use std::collections::HashMap;
use std::sync::Arc;

pub use mbxq_axes::{step, Axis, NodeTest};
pub use mbxq_storage::{
    InsertPosition, Kind, NaiveDoc, NodeId, PageConfig, PagedDoc, PagedStats, ReadOnlyDoc,
    StorageError, TreeView,
};
pub use mbxq_txn::{
    wal::Wal, AncestorLockMode, Catalog, CatalogConfig, CommitInfo, DocMatches, GroupCommitStats,
    PoolStats, QueryPool, Shard, StoreConfig, TxnError, WriteTxn,
};
pub use mbxq_xml::{Document as XmlDocument, Node, QName};
pub use mbxq_xpath::{Value, XPath, XPathError};
pub use mbxq_xupdate::{parse_modifications, ExecutionSummary, Modifications, XUpdateError};

/// Which storage schema a document uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageMode {
    /// The dense read-only schema — fastest queries, no updates.
    ReadOnly,
    /// The paged updateable schema with ACID transactions.
    Updatable {
        /// Logical-page layout.
        page: PageConfig,
        /// Ancestor locking strategy (paper default: delta increments).
        ancestors: AncestorLockMode,
    },
}

impl StorageMode {
    /// The paper's updateable configuration: logical pages with ~20 %
    /// unused tuples and commutative-delta ancestor maintenance.
    pub fn default_updatable() -> StorageMode {
        StorageMode::Updatable {
            page: PageConfig::default(),
            ancestors: AncestorLockMode::Delta,
        }
    }
}

/// Errors surfaced by the facade.
#[derive(Debug)]
pub enum DbError {
    /// No document with that name.
    NoSuchDocument {
        /// The requested name.
        name: String,
    },
    /// The operation needs the updateable schema.
    ReadOnlyDocument {
        /// The document name.
        name: String,
    },
    /// Parse/shred failure.
    Storage(StorageError),
    /// XPath failure.
    Path(XPathError),
    /// XUpdate failure.
    Update(XUpdateError),
    /// Transaction failure.
    Txn(TxnError),
}

impl core::fmt::Display for DbError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DbError::NoSuchDocument { name } => write!(f, "no document named '{name}'"),
            DbError::ReadOnlyDocument { name } => {
                write!(
                    f,
                    "document '{name}' is stored read-only; reload it as updatable"
                )
            }
            DbError::Storage(e) => write!(f, "{e}"),
            DbError::Path(e) => write!(f, "{e}"),
            DbError::Update(e) => write!(f, "{e}"),
            DbError::Txn(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<StorageError> for DbError {
    fn from(e: StorageError) -> Self {
        DbError::Storage(e)
    }
}

impl From<XPathError> for DbError {
    fn from(e: XPathError) -> Self {
        DbError::Path(e)
    }
}

impl From<XUpdateError> for DbError {
    fn from(e: XUpdateError) -> Self {
        DbError::Update(e)
    }
}

impl From<TxnError> for DbError {
    fn from(e: TxnError) -> Self {
        DbError::Txn(e)
    }
}

/// Result alias for facade operations.
pub type Result<T> = std::result::Result<T, DbError>;

enum DocHandle {
    ReadOnly(Arc<ReadOnlyDoc>),
    Updatable(Arc<Shard>),
}

/// The result of a query: each item serialized to text (elements as XML,
/// attributes and scalars as their string value).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryOutput {
    /// Serialized result items in document order.
    pub items: Vec<String>,
}

/// A collection of named XML documents.
#[derive(Default)]
pub struct Database {
    docs: HashMap<String, DocHandle>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Loads (shreds) a document from XML text under `name`, replacing
    /// any previous document of that name.
    pub fn load(&mut self, name: &str, xml: &str, mode: StorageMode) -> Result<()> {
        let handle = match mode {
            StorageMode::ReadOnly => DocHandle::ReadOnly(Arc::new(ReadOnlyDoc::parse_str(xml)?)),
            StorageMode::Updatable { page, ancestors } => {
                let doc = PagedDoc::parse_str(xml, page)?;
                let store = Shard::open(
                    doc,
                    Wal::in_memory(),
                    StoreConfig {
                        ancestor_mode: ancestors,
                        ..StoreConfig::default()
                    },
                );
                DocHandle::Updatable(Arc::new(store))
            }
        };
        self.docs.insert(name.to_string(), handle);
        Ok(())
    }

    /// Loads an updateable document with a caller-supplied WAL and store
    /// configuration (e.g. a file-backed WAL for durability).
    pub fn load_with_wal(
        &mut self,
        name: &str,
        xml: &str,
        page: PageConfig,
        wal: Wal,
        config: StoreConfig,
    ) -> Result<()> {
        let doc = PagedDoc::parse_str(xml, page)?;
        self.docs.insert(
            name.to_string(),
            DocHandle::Updatable(Arc::new(Shard::open(doc, wal, config))),
        );
        Ok(())
    }

    /// Registers an already-open transactional store under `name`.
    pub fn attach_store(&mut self, name: &str, store: Arc<Shard>) {
        self.docs
            .insert(name.to_string(), DocHandle::Updatable(store));
    }

    /// The names of all loaded documents.
    pub fn document_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.docs.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    fn handle(&self, name: &str) -> Result<&DocHandle> {
        self.docs.get(name).ok_or_else(|| DbError::NoSuchDocument {
            name: name.to_string(),
        })
    }

    /// Evaluates an XPath expression against the document's committed
    /// state and serializes the result items.
    pub fn query(&self, name: &str, xpath: &str) -> Result<QueryOutput> {
        let path = XPath::parse(xpath)?;
        match self.handle(name)? {
            DocHandle::ReadOnly(doc) => eval_output(doc.as_ref(), &path),
            DocHandle::Updatable(store) => eval_output(store.snapshot().as_ref(), &path),
        }
    }

    /// Runs `f` against the document's committed state (zero-copy access
    /// for engine-level code like the XMark query plans).
    pub fn with_view<R>(&self, name: &str, f: impl FnOnce(&dyn TreeView) -> R) -> Result<R> {
        match self.handle(name)? {
            DocHandle::ReadOnly(doc) => Ok(f(doc.as_ref())),
            DocHandle::Updatable(store) => Ok(f(store.snapshot().as_ref())),
        }
    }

    /// Applies an XUpdate script in one auto-committed ACID transaction.
    pub fn update(&self, name: &str, xupdate: &str) -> Result<ExecutionSummary> {
        let mods = parse_modifications(xupdate)?;
        match self.handle(name)? {
            DocHandle::ReadOnly(_) => Err(DbError::ReadOnlyDocument {
                name: name.to_string(),
            }),
            DocHandle::Updatable(store) => {
                let mut txn = store.begin();
                let summary = txn.execute_xupdate(&mods)?;
                txn.commit()?;
                Ok(summary)
            }
        }
    }

    /// Access to the transactional store of an updateable document, for
    /// explicit multi-operation transactions.
    pub fn store(&self, name: &str) -> Result<Arc<Shard>> {
        match self.handle(name)? {
            DocHandle::ReadOnly(_) => Err(DbError::ReadOnlyDocument {
                name: name.to_string(),
            }),
            DocHandle::Updatable(store) => Ok(store.clone()),
        }
    }

    /// Serializes the document's committed state back to XML.
    pub fn serialize(&self, name: &str) -> Result<String> {
        match self.handle(name)? {
            DocHandle::ReadOnly(doc) => Ok(mbxq_storage::serialize::to_xml(doc.as_ref())?),
            DocHandle::Updatable(store) => {
                Ok(mbxq_storage::serialize::to_xml(store.snapshot().as_ref())?)
            }
        }
    }

    /// Occupancy statistics (updateable documents only).
    pub fn stats(&self, name: &str) -> Result<PagedStats> {
        match self.handle(name)? {
            DocHandle::ReadOnly(_) => Err(DbError::ReadOnlyDocument {
                name: name.to_string(),
            }),
            DocHandle::Updatable(store) => Ok(store.snapshot().stats()),
        }
    }
}

fn eval_output<V: TreeView>(view: &V, path: &XPath) -> Result<QueryOutput> {
    let root: Vec<u64> = view.root_pre().into_iter().collect();
    let value = path.eval(view, &root)?;
    let items = match value {
        Value::Nodes(nodes) => {
            let mut out = Vec::with_capacity(nodes.len());
            for pre in nodes {
                let mut s = String::new();
                mbxq_storage::serialize::write_subtree(view, pre, &mut s)?;
                out.push(s);
            }
            out
        }
        Value::Attrs(attrs) => attrs
            .iter()
            .filter_map(|&(owner, qn)| {
                view.attributes(owner)
                    .into_iter()
                    .find(|&(n, _)| n == qn)
                    .and_then(|(_, p)| view.pool().prop(p).map(str::to_string))
            })
            .collect(),
        // XPath string() rendering (integers without a decimal point,
        // NaN/±Infinity spelled out) — one implementation, in mbxq-xpath.
        Value::Number(n) => vec![Value::Number(n).to_str(view)],
        Value::Boolean(b) => vec![b.to_string()],
        Value::Str(s) => vec![s],
    };
    Ok(QueryOutput { items })
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"<site><people><person id="p0"><name>Ann</name></person></people></site>"#;

    #[test]
    fn load_query_readonly() {
        let mut db = Database::new();
        db.load("d", DOC, StorageMode::ReadOnly).unwrap();
        let out = db.query("d", "//person/name").unwrap();
        assert_eq!(out.items, vec!["<name>Ann</name>"]);
        let count = db.query("d", "count(//person)").unwrap();
        assert_eq!(count.items, vec!["1"]);
    }

    #[test]
    fn readonly_rejects_updates() {
        let mut db = Database::new();
        db.load("d", DOC, StorageMode::ReadOnly).unwrap();
        let err = db
            .update("d", r#"<xupdate:remove select="//person"/>"#)
            .unwrap_err();
        assert!(matches!(err, DbError::ReadOnlyDocument { .. }));
    }

    #[test]
    fn updatable_full_cycle() {
        let mut db = Database::new();
        db.load("d", DOC, StorageMode::default_updatable()).unwrap();
        db.update(
            "d",
            r#"<xupdate:append select="/site/people">
                 <xupdate:element name="person">
                   <xupdate:attribute name="id">p1</xupdate:attribute>
                   <name>Bob</name>
                 </xupdate:element>
               </xupdate:append>"#,
        )
        .unwrap();
        assert_eq!(db.query("d", "count(//person)").unwrap().items, vec!["2"]);
        assert!(db.serialize("d").unwrap().contains("Bob"));
        let stats = db.stats("d").unwrap();
        assert_eq!(stats.used, 8);
    }

    #[test]
    fn sequential_script_semantics_inside_one_txn() {
        // The second command selects the element the first one created.
        let mut db = Database::new();
        db.load("d", DOC, StorageMode::default_updatable()).unwrap();
        db.update(
            "d",
            r#"<xupdate:modifications version="1.0">
                 <xupdate:append select="/site">
                   <xupdate:element name="log"/>
                 </xupdate:append>
                 <xupdate:append select="/site/log">
                   <xupdate:element name="entry"/>
                 </xupdate:append>
               </xupdate:modifications>"#,
        )
        .unwrap();
        assert_eq!(
            db.query("d", "count(/site/log/entry)").unwrap().items,
            vec!["1"]
        );
    }

    #[test]
    fn explicit_transactions_via_store() {
        let mut db = Database::new();
        db.load("d", DOC, StorageMode::default_updatable()).unwrap();
        let store = db.store("d").unwrap();
        let mut t = store.begin();
        let people = t.select(&XPath::parse("/site/people").unwrap()).unwrap();
        let frag = XmlDocument::parse_fragment("<person id=\"tx\"/>").unwrap();
        t.insert(InsertPosition::LastChildOf(people[0]), &frag)
            .unwrap();
        // Uncommitted: invisible through the facade.
        assert_eq!(db.query("d", "count(//person)").unwrap().items, vec!["1"]);
        t.commit().unwrap();
        assert_eq!(db.query("d", "count(//person)").unwrap().items, vec!["2"]);
    }

    #[test]
    fn unknown_document_errors() {
        let db = Database::new();
        assert!(matches!(
            db.query("nope", "/x"),
            Err(DbError::NoSuchDocument { .. })
        ));
    }

    #[test]
    fn attribute_query_output() {
        let mut db = Database::new();
        db.load("d", DOC, StorageMode::ReadOnly).unwrap();
        let out = db.query("d", "//person/@id").unwrap();
        assert_eq!(out.items, vec!["p0"]);
    }

    #[test]
    fn doc_names_listed() {
        let mut db = Database::new();
        db.load("b", DOC, StorageMode::ReadOnly).unwrap();
        db.load("a", DOC, StorageMode::ReadOnly).unwrap();
        assert_eq!(db.document_names(), vec!["a", "b"]);
    }
}
