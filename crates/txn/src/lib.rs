//! `mbxq-txn` — ACID transactions over the paged XML store (§3.2).
//!
//! The paper's transaction protocol (Figure 8) combines:
//!
//! * **multi-version isolation** — writers work against a copy-on-write
//!   view; readers "just acquire a global read-lock while they run". Here
//!   readers take an [`Arc`](std::sync::Arc) snapshot of the committed document (the
//!   in-memory equivalent of MonetDB's copy-on-write memory maps: the
//!   snapshot shares all state until a commit installs a new version), so
//!   they never block and never see intermediate states.
//! * **strict two-phase page locking between writers** — a write
//!   transaction read-locks the pages its XPath selections touch and
//!   write-locks the pages it updates, holding all locks until commit.
//! * **commutative delta-increments for ancestor sizes** — the key trick
//!   that keeps the document root from becoming a lock bottleneck: a
//!   transaction never locks its ancestors' pages (in
//!   [`AncestorLockMode::Delta`] mode); ancestor `size` values are
//!   adjusted by *deltas* at commit, under the short global write lock,
//!   and "as delta operations are commutative, it does not matter in
//!   which order they are executed". The [`AncestorLockMode::Exclusive`]
//!   baseline write-locks the whole ancestor chain instead — the
//!   strawman the concurrency benchmark compares against.
//! * **write-ahead logging** — the commit's crucial stage is a single
//!   WAL append holding the transaction's logical redo records; recovery
//!   replays the committed prefix (module [`wal`] / [`recover`]).
//!
//! Commit applies the staged operations to the master document under the
//! global write lock and publishes a fresh `Arc` version; because node
//! ids are immutable and operations are logged logically (by node id),
//! replay order = commit order reproduces the exact same state.
//!
//! # O(touched-pages) commits
//!
//! The new version is **not** a deep copy. [`mbxq_storage::PagedDoc`]
//! stores its base table as one shared copy-on-write
//! [`mbxq_storage::page::Page`] per logical page behind a two-level
//! directory (`mbxq-bat`'s `CowDir`), so `clone` copies one pointer per
//! chunk of pages and each staged operation privatizes exactly the
//! pages it writes (and their chunks), plus the pages holding the
//! delta-adjusted ancestor sizes. A transaction
//! pays for that once: its private workspace (a clone of the begin
//! snapshot that every staging call updates through [`op::Op::apply`])
//! *is* its ops applied to the version it began on, so commit publishes
//! the workspace itself whenever that version is still the current one,
//! and re-applies the ops onto a clone of the current version only when
//! another publish intervened. The critical
//! section is therefore proportional to the update volume, never to the
//! document: publishing swaps page pointers under the short global lock,
//! and every reader snapshot keeps sharing all untouched pages with the
//! new master — the in-memory realization of MonetDB's copy-on-write
//! memory maps from §3.2. Locks are released on *every* commit exit path
//! (success, validation failure, apply failure, WAL crash), so a failed
//! commit can never strand page locks.
//!
//! # The short-publish commit pipeline
//!
//! The global commit lock covers **only the version-stamp recheck and
//! the pointer-swap publish** — nothing else. A commit runs three
//! phases:
//!
//! ```text
//!  phase 1 · SPECULATE   no global lock.  Read the committed version
//!                        (stamp S). If the transaction began on S, its
//!                        workspace is the speculated version; else
//!                        COW-clone S and apply the redo ops
//!                        (privatizing only their pages). Validate.
//!  phase 2 · LOG         no global lock.  Group-commit WAL append:
//!                        the first committer to arrive leads a batch
//!                        flush (one I/O for every record that queued
//!                        up meanwhile); followers wait on the flush
//!                        ticket (module [`group`]).
//!  phase 3 · PUBLISH     global lock, O(1).  Re-read the stamp: if
//!                        still S, swap the speculative version in; if
//!                        some other commit published S' > S meanwhile,
//!                        re-apply the ops onto the fresh master (page
//!                        locks guarantee the targets are untouched,
//!                        ancestor deltas commute) and swap that in.
//! ```
//!
//! Page-lock validation therefore happens at *staging* time, COW page
//! privatization at *speculation* time, and N concurrent committers
//! serialize only on an O(touched-pages) re-apply in the worst case —
//! never on log I/O. Readers never appear in this picture at all:
//! [`Shard::snapshot`] clones the committed `Arc` out of a lock-free
//! [`mbxq_storage::ArcCell`] (no mutex, no rwlock), so reader latency is
//! independent of writer load. The WAL may record two *concurrent*
//! (page-disjoint, hence commutative) commits in the opposite order of
//! their publishes; replaying the log still reproduces the published
//! state exactly, which `tests/concurrent_oracle.rs` checks property-
//! style.
//!
//! # Checkpointing
//!
//! The WAL grows with every commit, and recovery replays it from
//! genesis. [`Shard::checkpoint`] bounds both: it pins the current
//! version under the pipeline gate, streams that version (with its node
//! ids and the id allocation point) into a [`wal::WalRecord::Checkpoint`]
//! of the next log with no lock held — commits go on meanwhile — and then
//! atomically replaces the log with that record and the commit records
//! logged since the pin. [`recover`] resumes from the latest checkpoint
//! instead of genesis. [`Shard::vacuum`] and
//! [`Shard::occupancy`] complete the maintenance surface: page
//! reorganization runs under the same commit lock and publishes like a
//! commit does.

pub mod catalog;
pub mod group;
pub mod locks;
pub mod op;
pub mod pool;
pub mod recover;
pub mod shard;
pub mod wal;

pub use catalog::{Catalog, CatalogConfig, DocMatches};
pub use group::GroupCommitStats;
pub use pool::{PoolStats, QueryPool};
pub use shard::{Shard, WriteTxn};

use mbxq_storage::StorageError;
use std::time::Duration;

/// How a write transaction treats the pages of its targets' ancestors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AncestorLockMode {
    /// The paper's scheme: ancestors are *not* locked; their sizes are
    /// updated by commutative delta-increments at commit.
    Delta,
    /// The strawman: write-lock every ancestor's page (the root's page is
    /// an ancestor page of every node, so all writers serialize).
    Exclusive,
}

/// Transaction identifiers.
pub type TxnId = u64;

/// Errors of the transaction layer.
#[derive(Debug)]
pub enum TxnError {
    /// A page lock could not be acquired in time (conflict/deadlock).
    LockTimeout {
        /// The contended logical page.
        page: usize,
    },
    /// Underlying storage failure.
    Storage(StorageError),
    /// XPath failure during selection.
    Path(mbxq_xpath::XPathError),
    /// WAL I/O failure (including injected crashes).
    Wal(wal::WalError),
    /// Commit-time validation failed; the transaction was aborted.
    ValidationFailed {
        /// What the validator reported.
        message: String,
    },
    /// A maintenance operation (vacuum) found write transactions in
    /// flight; retry when the writers have finished.
    Busy {
        /// Pages currently locked by in-flight transactions.
        locked_pages: usize,
    },
    /// A vacuum relocated tuples across logical pages after this
    /// transaction took its snapshot but before it acquired its first
    /// page lock — its page numbering (and therefore lock disjointness)
    /// would be stale. Abort and retry on a fresh snapshot.
    LayoutChanged,
    /// No document by that name exists in the catalog.
    UnknownDocument {
        /// The requested document name.
        name: String,
    },
    /// A document by that name already exists in the catalog.
    DuplicateDocument {
        /// The colliding document name.
        name: String,
    },
    /// The document still has live [`Catalog::shard`] handles elsewhere,
    /// so it cannot be exported out of the catalog.
    DocumentInUse {
        /// The document name.
        name: String,
    },
    /// Catalog metadata I/O failed (the manifest or a shard WAL file).
    CatalogIo {
        /// What failed, and how.
        message: String,
    },
}

impl core::fmt::Display for TxnError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TxnError::LockTimeout { page } => write!(f, "lock timeout on logical page {page}"),
            TxnError::Storage(e) => write!(f, "storage: {e}"),
            TxnError::Path(e) => write!(f, "xpath: {e}"),
            TxnError::Wal(e) => write!(f, "wal: {e}"),
            TxnError::ValidationFailed { message } => write!(f, "validation failed: {message}"),
            TxnError::Busy { locked_pages } => {
                write!(f, "store busy: {locked_pages} pages locked by writers")
            }
            TxnError::LayoutChanged => {
                write!(
                    f,
                    "page layout reorganized since this transaction began; retry"
                )
            }
            TxnError::UnknownDocument { name } => write!(f, "unknown document {name:?}"),
            TxnError::DuplicateDocument { name } => {
                write!(f, "document {name:?} already exists")
            }
            TxnError::DocumentInUse { name } => {
                write!(f, "document {name:?} has live shard handles")
            }
            TxnError::CatalogIo { message } => write!(f, "catalog: {message}"),
        }
    }
}

impl std::error::Error for TxnError {}

impl From<StorageError> for TxnError {
    fn from(e: StorageError) -> Self {
        TxnError::Storage(e)
    }
}

impl From<mbxq_xpath::XPathError> for TxnError {
    fn from(e: mbxq_xpath::XPathError) -> Self {
        TxnError::Path(e)
    }
}

impl From<wal::WalError> for TxnError {
    fn from(e: wal::WalError) -> Self {
        TxnError::Wal(e)
    }
}

/// Result alias for transaction operations.
pub type Result<T> = std::result::Result<T, TxnError>;

/// Configuration of a transactional store.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Ancestor locking strategy.
    pub ancestor_mode: AncestorLockMode,
    /// Lock acquisition timeout (doubles as deadlock detection).
    pub lock_timeout: Duration,
    /// Run the structural invariant checker before every commit (the
    /// "XML document validation" stage of Figure 8). Expensive; on by
    /// default in tests, off in benchmarks.
    pub validate_on_commit: bool,
    /// Threads for morsel-parallel query execution (`0` or `1` =
    /// sequential, no pool). The store lazily spawns one shared
    /// [`mbxq_xpath::WorkerPool`] of this width on the first query and
    /// injects it into every [`Shard::query_opts`] evaluation; the pool
    /// calibrates its per-morsel dispatch overhead when it spawns.
    pub query_threads: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            ancestor_mode: AncestorLockMode::Delta,
            lock_timeout: Duration::from_secs(5),
            validate_on_commit: false,
            query_threads: 0,
        }
    }
}

/// Outcome statistics of a successful commit.
#[derive(Debug, Clone, Copy, Default)]
pub struct CommitInfo {
    /// Transaction id.
    pub txn: TxnId,
    /// Operations applied.
    pub ops: usize,
    /// Tuples inserted.
    pub inserted: u64,
    /// Tuples deleted.
    pub deleted: u64,
    /// Distinct ancestors that received size deltas.
    pub ancestors_touched: u64,
}

impl CommitInfo {
    /// Adds one applied op's `(inserted, deleted, ancestors_touched)`
    /// (the result of [`op::Op::apply`]).
    pub(crate) fn count(&mut self, (inserted, deleted, ancestors): (u64, u64, u64)) {
        self.ops += 1;
        self.inserted += inserted;
        self.deleted += deleted;
        self.ancestors_touched += ancestors;
    }
}

/// Counters of the per-shard plan cache (see [`Shard::plan_cache_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Queries answered with an already-compiled plan.
    pub hits: u64,
    /// Queries that compiled (first use, or a stale epoch).
    pub misses: u64,
    /// Entries evicted to stay under the capacity (LRU victims and
    /// stale-epoch drops).
    pub evictions: u64,
    /// Plans currently cached.
    pub entries: usize,
}

/// Outcome of [`Shard::checkpoint`].
#[derive(Debug, Clone, Copy)]
pub struct CheckpointInfo {
    /// Live nodes captured by the checkpoint.
    pub nodes: u64,
    /// Log length just before it was replaced.
    pub wal_bytes_before: usize,
    /// Log length after: the checkpoint record, and the commit records
    /// logged while its dump was written.
    pub wal_bytes_after: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Op;
    use crate::wal::{Wal, WalRecord};
    use mbxq_storage::serialize::to_xml;
    use mbxq_storage::{InsertPosition, NodeId, PageConfig, PagedDoc, TreeView};
    use mbxq_xml::Document;
    use mbxq_xpath::XPath;

    /// Shreds (page size 8, fill 6) as: page 0 = site, people, person,
    /// name, text, regions; page 1 = africa + its five children; page 2 =
    /// asia + its two children. So africa and asia live on *different*
    /// pages while sharing all ancestors — the shape the delta-locking
    /// tests need.
    const DOC: &str = r#"<site><people><person id="p0"><name>Ann</name></person></people><regions><africa><m1/><m2/><m3/><m4/><m5/></africa><asia><n1/><n2/></asia></regions></site>"#;

    fn store(mode: AncestorLockMode) -> Shard {
        let doc = PagedDoc::parse_str(DOC, PageConfig::new(8, 75).unwrap()).unwrap();
        Shard::open(
            doc,
            Wal::in_memory(),
            StoreConfig {
                ancestor_mode: mode,
                lock_timeout: Duration::from_millis(200),
                validate_on_commit: true,
                ..StoreConfig::default()
            },
        )
    }

    /// Commits a one-element append under the node `path` selects, in
    /// its own transaction — an interleaved publish for tests that need
    /// the version stamp to move under a staged transaction.
    fn commit_elsewhere(s: &Shard, path: &str) {
        let mut t = s.begin();
        let target = t.select(&XPath::parse(path).unwrap()).unwrap();
        let frag = Document::parse_fragment("<elsewhere/>").unwrap();
        t.insert(InsertPosition::LastChildOf(target[0]), &frag)
            .unwrap();
        t.commit().unwrap();
    }

    /// `explain_query` is an analyze run: a multi-predicate text that
    /// has never run still shows this execution's estimated and
    /// observed cardinality, and the plan it ran is the cached one.
    #[test]
    fn explain_query_analyzes_a_text_that_never_ran() {
        let s = store(AncestorLockMode::Delta);
        let q = "//person[@id = \"p0\"][name = \"Ann\"]";
        let annotated = s.explain_query(q).unwrap();
        assert!(annotated.contains("multi-probe"), "{annotated}");
        assert!(annotated.contains("cardinality est≈"), "{annotated}");
        assert!(annotated.contains("obs=1 via"), "{annotated}");
        assert_eq!(s.plan_cache_stats().misses, 1);
        s.query(q).unwrap();
        assert_eq!(s.plan_cache_stats().hits, 1, "explain cached the plan");
    }

    /// A cached all-numeric two-predicate step is costed from the
    /// bounds of the version it runs on. Commits make the rarer
    /// predicate the commoner one (4 and 12 matches become 20 and 12,
    /// a gap of a few rows that no observation would flag as a
    /// misestimate), and the next run probes the other predicate.
    #[test]
    fn a_cached_step_follows_its_bounds_across_commits() {
        let mut xml = String::from("<r>");
        for i in 0..1000 {
            let a = if i < 4 { 60 } else { 0 };
            let b = if i < 12 { 60 } else { 0 };
            xml.push_str(&format!("<e><a>{a}</a><b>{b}</b></e>"));
        }
        xml.push_str("</r>");
        let doc = PagedDoc::parse_str(&xml, PageConfig::default()).unwrap();
        let s = Shard::open(doc, Wal::in_memory(), StoreConfig::default());
        let q = "//e[a > 50][b > 50]";
        s.query(q).unwrap();
        let before = s.explain_query(q).unwrap();
        assert!(before.contains("est≈4 obs=4 via probe(#0)"), "{before}");
        let set = |path: &str, value: &str| {
            let mut t = s.begin();
            for text in t.select(&XPath::parse(path).unwrap()).unwrap() {
                t.update_value(text, value).unwrap();
            }
            t.commit().unwrap();
        };
        set("//e[position() > 4 and position() <= 12]/a/text()", "60");
        set("//e[position() > 12 and position() <= 20]/a/text()", "60");
        assert_eq!(s.query_nodes(q).unwrap().len(), 12);
        let after = s.explain_query(q).unwrap();
        assert!(after.contains("est≈12 obs=12 via probe(#1)"), "{after}");
        let stats = s.plan_cache_stats();
        assert_eq!((stats.misses, stats.hits), (1, 3), "one cached plan");
    }

    /// Counts drop removed postings: commits cut `//e[b > 50]` from 30
    /// matches to 5, and the range count and the multi-predicate step's
    /// estimate then read 5, not the 30 the document was loaded with.
    #[test]
    fn range_counts_drop_removed_postings() {
        let mut xml = String::from("<r>");
        for i in 0..1000 {
            let a = if i < 100 { 60 } else { 0 };
            let b = if i < 30 { 60 } else { 0 };
            xml.push_str(&format!("<e><a>{a}</a><b>{b}</b></e>"));
        }
        xml.push_str("</r>");
        let doc = PagedDoc::parse_str(&xml, PageConfig::default()).unwrap();
        let s = Shard::open(doc, Wal::in_memory(), StoreConfig::default());
        let q = "//e[a > 50][b > 50]";
        assert!(s.explain_query(q).unwrap().contains("est≈30 obs=30"));
        let mut t = s.begin();
        let cut = "//e[position() > 5 and position() <= 30]/b/text()";
        for text in t.select(&XPath::parse(cut).unwrap()).unwrap() {
            t.update_value(text, "0").unwrap();
        }
        t.commit().unwrap();
        let doc = s.snapshot();
        let b = doc
            .pool()
            .lookup_qname(&mbxq_xml::QName::local("b"))
            .unwrap();
        let above_50 = mbxq_storage::NumRange::at_least(50.0, false);
        assert_eq!(doc.elements_with_text_range_count(b, &above_50), Some(5));
        let after = s.explain_query(q).unwrap();
        assert!(after.contains("est≈5 obs=5 via probe(#1)"), "{after}");
    }

    #[test]
    fn commit_becomes_visible_atomically() {
        let s = store(AncestorLockMode::Delta);
        let before = s.snapshot();
        let mut t = s.begin();
        let people = t.select(&XPath::parse("/site/people").unwrap()).unwrap();
        let frag = Document::parse_fragment("<person id=\"p9\"/>").unwrap();
        t.insert(InsertPosition::LastChildOf(people[0]), &frag)
            .unwrap();
        // Not visible before commit — neither in old snapshots nor new.
        assert!(!to_xml(s.snapshot().as_ref()).unwrap().contains("p9"));
        let info = t.commit().unwrap();
        assert_eq!(info.inserted, 1);
        assert!(to_xml(s.snapshot().as_ref()).unwrap().contains("p9"));
        // The old snapshot is immutable (multi-version).
        assert!(!to_xml(before.as_ref()).unwrap().contains("p9"));
    }

    #[test]
    fn abort_discards_everything() {
        let s = store(AncestorLockMode::Delta);
        let before = to_xml(s.snapshot().as_ref()).unwrap();
        let mut t = s.begin();
        let person = t.select(&XPath::parse("//person").unwrap()).unwrap();
        t.delete(person[0]).unwrap();
        t.abort();
        assert_eq!(to_xml(s.snapshot().as_ref()).unwrap(), before);
        // Locks were released: a new writer can proceed.
        let mut t2 = s.begin();
        let person = t2.select(&XPath::parse("//person").unwrap()).unwrap();
        t2.delete(person[0]).unwrap();
        t2.commit().unwrap();
        assert!(!to_xml(s.snapshot().as_ref()).unwrap().contains("person"));
    }

    #[test]
    fn conflicting_writers_serialize_on_page_locks() {
        let s = store(AncestorLockMode::Delta);
        let mut t1 = s.begin();
        let p1 = t1.select(&XPath::parse("//person").unwrap()).unwrap();
        t1.update_value(
            {
                // the text node under name
                let pre = t1.snapshot().node_to_pre(p1[0]).unwrap();
                let text_pre = pre + 2;
                t1.snapshot().pre_to_node(text_pre).unwrap()
            },
            "Eve",
        )
        .unwrap();
        // Second writer wants the same page — must time out while t1
        // holds the write lock.
        let mut t2 = s.begin();
        let p2 = t2.select(&XPath::parse("//person").unwrap());
        // select read-locks the page, which already conflicts:
        assert!(matches!(p2, Err(TxnError::LockTimeout { .. })));
        drop(t2);
        t1.commit().unwrap();
        // Now t3 can proceed.
        let mut t3 = s.begin();
        assert!(t3.select(&XPath::parse("//person").unwrap()).is_ok());
        t3.abort();
    }

    #[test]
    fn delta_mode_leaves_root_page_unlocked() {
        // Two writers in *different* pages commit concurrently even
        // though they share every ancestor (the root).
        let s = store(AncestorLockMode::Delta);
        // africa and asia live on page 1 together; force them apart with
        // a bigger doc: instead verify lock sets directly.
        let mut t1 = s.begin();
        let africa = t1.select(&XPath::parse("//africa").unwrap()).unwrap();
        let frag = Document::parse_fragment("<item/>").unwrap();
        t1.insert(InsertPosition::LastChildOf(africa[0]), &frag)
            .unwrap();
        // Root lives on page 0; in Delta mode page 0 must not be
        // write-locked by t1 (africa is on page 1).
        let root_page_write_locked = s.locks.is_write_locked(0);
        assert!(!root_page_write_locked);
        t1.commit().unwrap();
        // Sizes still correct: root grew by 1.
        let d = s.snapshot();
        assert_eq!(TreeView::size(d.as_ref(), 0), 15);
    }

    #[test]
    fn exclusive_mode_blocks_on_the_root() {
        let s = store(AncestorLockMode::Exclusive);
        let mut t1 = s.begin();
        let africa = t1.select(&XPath::parse("//africa").unwrap()).unwrap();
        let frag = Document::parse_fragment("<item/>").unwrap();
        t1.insert(InsertPosition::LastChildOf(africa[0]), &frag)
            .unwrap();
        // Root page (0) is now write-locked by t1.
        assert!(s.locks.is_write_locked(0));
        // A second writer in a *disjoint* subtree still blocks.
        let mut t2 = s.begin();
        let asia = t2.select(&XPath::parse("//asia").unwrap()).unwrap();
        let res = t2.insert(InsertPosition::LastChildOf(asia[0]), &frag);
        assert!(matches!(res, Err(TxnError::LockTimeout { .. })));
        drop(t2);
        t1.commit().unwrap();
    }

    #[test]
    fn commutative_deltas_from_sequential_commits() {
        // Two transactions inserting under different parents; their
        // ancestor deltas add up regardless of commit order.
        for order in [true, false] {
            let s = store(AncestorLockMode::Delta);
            let frag2 = Document::parse_fragment("<x><y/></x>").unwrap();
            let frag3 = Document::parse_fragment("<u><v/><w/></u>").unwrap();
            let mut ta = s.begin();
            let africa = ta.select(&XPath::parse("//africa").unwrap()).unwrap();
            ta.insert(InsertPosition::LastChildOf(africa[0]), &frag2)
                .unwrap();
            let mut tb = s.begin();
            let asia = tb.select(&XPath::parse("//asia").unwrap()).unwrap();
            tb.insert(InsertPosition::LastChildOf(asia[0]), &frag3)
                .unwrap();
            if order {
                ta.commit().unwrap();
                tb.commit().unwrap();
            } else {
                tb.commit().unwrap();
                ta.commit().unwrap();
            }
            let d = s.snapshot();
            // root size: 14 original descendants + 2 + 3.
            assert_eq!(TreeView::size(d.as_ref(), 0), 19, "order={order}");
            mbxq_storage::invariants::check_paged(d.as_ref()).unwrap();
        }
    }

    /// Two transactions staged against the same base version and
    /// committed concurrently: whichever publishes second must detect
    /// the stamp change and re-apply onto the fresh master, so both
    /// updates survive (page disjointness + commutative deltas).
    #[test]
    fn concurrent_commits_merge_via_stamp_recheck() {
        let s = store(AncestorLockMode::Delta);
        let stamp0 = s.version_stamp();
        let frag_a = Document::parse_fragment("<itemA/>").unwrap();
        let frag_b = Document::parse_fragment("<itemB/>").unwrap();
        // Stage both against the same base version (stamp0).
        let mut ta = s.begin();
        let africa = ta.select(&XPath::parse("//africa").unwrap()).unwrap();
        ta.insert(InsertPosition::LastChildOf(africa[0]), &frag_a)
            .unwrap();
        let mut tb = s.begin();
        let asia = tb.select(&XPath::parse("//asia").unwrap()).unwrap();
        tb.insert(InsertPosition::LastChildOf(asia[0]), &frag_b)
            .unwrap();
        // Commit them from racing threads.
        std::thread::scope(|scope| {
            let ha = scope.spawn(move || ta.commit().unwrap());
            let hb = scope.spawn(move || tb.commit().unwrap());
            ha.join().unwrap();
            hb.join().unwrap();
        });
        assert_eq!(s.version_stamp(), stamp0 + 2, "each commit publishes");
        let live = to_xml(s.snapshot().as_ref()).unwrap();
        assert!(live.contains("itemA") && live.contains("itemB"));
        let d = s.snapshot();
        assert_eq!(TreeView::size(d.as_ref(), 0), 16);
        mbxq_storage::invariants::check_paged(d.as_ref()).unwrap();
    }

    #[test]
    fn wal_records_committed_transactions() {
        let s = store(AncestorLockMode::Delta);
        let mut t = s.begin();
        let person = t.select(&XPath::parse("//person").unwrap()).unwrap();
        t.set_attribute(person[0], &mbxq_xml::QName::local("vip"), "yes")
            .unwrap();
        t.commit().unwrap();
        let raw = s.wal_raw().unwrap();
        let records = wal::decode_log(&raw).unwrap();
        assert_eq!(records.len(), 1);
        match &records[0] {
            WalRecord::Commit { ops, .. } => assert_eq!(ops.len(), 1),
            other => panic!("expected a commit record, got {other:?}"),
        }
    }

    #[test]
    fn empty_commit_is_a_no_op() {
        let s = store(AncestorLockMode::Delta);
        let t = s.begin();
        let info = t.commit().unwrap();
        assert_eq!(info.ops, 0);
        assert!(wal::decode_log(&s.wal_raw().unwrap()).unwrap().is_empty());
    }

    /// Regression for the commit-path lock leak: a staged op that fails
    /// while being applied to the master (here: a redo op naming a node
    /// that does not exist) must still release every page lock — before
    /// the fix, `finished` was set before the fallible body ran, so the
    /// `Drop` guard skipped cleanup and later writers starved.
    #[test]
    fn failed_commit_releases_all_locks() {
        let s = store(AncestorLockMode::Delta);
        let mut t = s.begin();
        let person = t.select(&XPath::parse("//person").unwrap()).unwrap();
        t.set_attribute(person[0], &mbxq_xml::QName::local("vip"), "yes")
            .unwrap();
        // Sabotage the redo list with an op that cannot apply — behind
        // the workspace's back, so only a commit that re-applies the
        // list can trip over it: a commit on another page in between
        // moves the version stamp and forces exactly that.
        t.ops.push(Op::Delete {
            node: NodeId(99_999),
        });
        commit_elsewhere(&s, "//asia");
        assert!(s.locked_pages() > 0);
        let err = t.commit().unwrap_err();
        assert!(matches!(err, TxnError::Storage(_)), "got {err}");
        assert_eq!(
            s.locked_pages(),
            0,
            "a failed commit must not strand page locks"
        );
        // Master unchanged, and later writers proceed normally.
        assert!(!to_xml(s.snapshot().as_ref()).unwrap().contains("vip"));
        let mut t2 = s.begin();
        let person = t2.select(&XPath::parse("//person").unwrap()).unwrap();
        t2.set_attribute(person[0], &mbxq_xml::QName::local("vip"), "yes")
            .unwrap();
        t2.commit().unwrap();
        assert!(to_xml(s.snapshot().as_ref()).unwrap().contains("vip"));
    }

    #[test]
    fn failed_validation_releases_all_locks() {
        // Same guarantee on the validation exit path: an op list whose
        // replay produces a different shape than the workspace (a
        // duplicate insert of the same reserved ids) trips the checker.
        let s = store(AncestorLockMode::Delta);
        let mut t = s.begin();
        let people = t.select(&XPath::parse("/site/people").unwrap()).unwrap();
        let frag = Document::parse_fragment("<person id=\"dup\"/>").unwrap();
        t.insert(InsertPosition::LastChildOf(people[0]), &frag)
            .unwrap();
        let dup = t.ops[0].clone();
        t.ops.push(dup);
        // The workspace never saw the duplicate: force the re-apply path.
        commit_elsewhere(&s, "//asia");
        let err = t.commit().unwrap_err();
        assert!(
            matches!(
                err,
                TxnError::Storage(_) | TxnError::ValidationFailed { .. }
            ),
            "got {err}"
        );
        assert_eq!(s.locked_pages(), 0);
    }

    /// The commit publishes by swapping page pointers: everything but
    /// the touched pages stays physically shared with the previous
    /// version.
    #[test]
    fn commit_shares_untouched_pages_with_the_old_version() {
        let s = store(AncestorLockMode::Delta);
        let before = s.snapshot();
        let mut t = s.begin();
        let person = t.select(&XPath::parse("//person").unwrap()).unwrap();
        t.set_attribute(person[0], &mbxq_xml::QName::local("vip"), "yes")
            .unwrap();
        t.commit().unwrap();
        let after = s.snapshot();
        let (shared, total) = after.shared_pages_with(&before);
        assert!(
            shared > 0 && shared <= total,
            "expected structural sharing, got {shared}/{total}"
        );
        // An attribute write touches no base-table column at all: every
        // tree page stays shared.
        assert_eq!(shared, total, "attribute set must not touch tree pages");
    }

    /// A single writer's commit publishes its workspace: the pages the
    /// transaction privatized while staging are the published ones, no
    /// page is privatized a second time.
    #[test]
    fn single_writer_commit_publishes_the_workspace() {
        let s = store(AncestorLockMode::Delta);
        let before = s.snapshot();
        let mut t = s.begin();
        let africa = t.select(&XPath::parse("//africa").unwrap()).unwrap();
        let frag = Document::parse_fragment("<item><sub/></item>").unwrap();
        t.insert(InsertPosition::LastChildOf(africa[0]), &frag)
            .unwrap();
        // A clone shares every page with the workspace it came from.
        let workspace = t.view().clone();
        let info = t.commit().unwrap();
        assert_eq!((info.ops, info.inserted), (1, 2));
        assert!(info.ancestors_touched >= 3, "africa, regions, site");
        let after = s.snapshot();
        let (shared, total) = after.shared_pages_with(&workspace);
        assert_eq!(shared, total, "commit re-applied the ops");
        let (shared, total) = after.shared_pages_with(&before);
        assert!(shared < total, "the insert did touch tree pages");
        mbxq_storage::invariants::check_paged(after.as_ref()).unwrap();
    }

    /// A publish between `begin` and `commit` invalidates the workspace
    /// as the next version: the commit re-applies its ops onto the
    /// fresh master, and both updates survive.
    #[test]
    fn interleaved_commit_takes_the_reapply_path() {
        let s = store(AncestorLockMode::Delta);
        let mut t = s.begin();
        let africa = t.select(&XPath::parse("//africa").unwrap()).unwrap();
        let frag = Document::parse_fragment("<late/>").unwrap();
        t.insert(InsertPosition::LastChildOf(africa[0]), &frag)
            .unwrap();
        let workspace = t.view().clone();
        commit_elsewhere(&s, "//asia");
        let info = t.commit().unwrap();
        assert_eq!((info.ops, info.inserted), (1, 1));
        let after = s.snapshot();
        let live = to_xml(after.as_ref()).unwrap();
        assert!(live.contains("<late/>") && live.contains("<elsewhere/>"));
        assert!(!to_xml(&workspace).unwrap().contains("<elsewhere/>"));
        let (shared, total) = after.shared_pages_with(&workspace);
        assert!(shared < total, "the workspace must not have been published");
        assert_eq!(TreeView::size(after.as_ref(), 0), 16);
        mbxq_storage::invariants::check_paged(after.as_ref()).unwrap();
    }

    /// A staging call that fails may leave the workspace changed with no
    /// op recorded; such a workspace is never published — the commit
    /// re-applies the recorded ops onto a clean clone.
    #[test]
    fn failed_staging_call_disqualifies_the_workspace() {
        let s = store(AncestorLockMode::Delta);
        let mut t = s.begin();
        let text = t.select(&XPath::parse("//name/text()").unwrap()).unwrap();
        t.update_value(text[0], "Eve").unwrap();
        // Renaming a text node is refused by the storage layer.
        assert!(t.rename(text[0], &mbxq_xml::QName::local("x")).is_err());
        let workspace = t.view().clone();
        t.commit().unwrap();
        let after = s.snapshot();
        assert!(to_xml(after.as_ref()).unwrap().contains("Eve"));
        let (shared, total) = after.shared_pages_with(&workspace);
        assert!(shared < total, "the workspace must not have been published");
        let recovered =
            recover::recover(DOC, PageConfig::new(8, 75).unwrap(), &s.wal_raw().unwrap()).unwrap();
        assert_eq!(to_xml(&recovered).unwrap(), to_xml(after.as_ref()).unwrap());
    }

    #[test]
    fn checkpoint_truncates_wal_and_recovery_resumes_from_it() {
        let s = store(AncestorLockMode::Delta);
        let frag = Document::parse_fragment("<person id=\"pre\"/>").unwrap();
        let mut t = s.begin();
        let people = t.select(&XPath::parse("/site/people").unwrap()).unwrap();
        t.insert(InsertPosition::LastChildOf(people[0]), &frag)
            .unwrap();
        t.commit().unwrap();

        let info = s.checkpoint().unwrap();
        assert!(info.wal_bytes_before > 0);
        assert_eq!(info.nodes, s.snapshot().used_count());

        // Post-checkpoint commit deletes a PRE-checkpoint node — only
        // possible if the checkpoint preserved node ids.
        let mut t = s.begin();
        let victims = t
            .select(&XPath::parse("//person[@id='pre']").unwrap())
            .unwrap();
        t.delete(victims[0]).unwrap();
        t.commit().unwrap();

        let live = to_xml(s.snapshot().as_ref()).unwrap();
        let recovered =
            recover::recover(DOC, PageConfig::new(8, 75).unwrap(), &s.wal_raw().unwrap())
                .expect("recovery resumes from the checkpoint");
        assert_eq!(to_xml(&recovered).unwrap(), live);
        mbxq_storage::invariants::check_paged(&recovered).unwrap();
    }

    #[test]
    fn store_vacuum_publishes_and_respects_writers() {
        let s = store(AncestorLockMode::Delta);
        // Fragment the store a little.
        let mut t = s.begin();
        let person = t.select(&XPath::parse("//person").unwrap()).unwrap();
        t.delete(person[0]).unwrap();
        t.commit().unwrap();
        let occ_before = s.occupancy();

        // A writer holding locks blocks vacuum.
        let mut w = s.begin();
        let africa = w.select(&XPath::parse("//africa").unwrap()).unwrap();
        let frag = Document::parse_fragment("<m9/>").unwrap();
        w.insert(InsertPosition::LastChildOf(africa[0]), &frag)
            .unwrap();
        assert!(matches!(s.vacuum(), Err(TxnError::Busy { .. })));
        w.commit().unwrap();

        let before = to_xml(s.snapshot().as_ref()).unwrap();
        let report = s.vacuum().unwrap();
        assert!(report.tuples_moved > 0);
        assert_eq!(to_xml(s.snapshot().as_ref()).unwrap(), before);
        assert!(s.occupancy() >= occ_before);
        // The store stays fully usable after reorganization.
        let mut t = s.begin();
        let asia = t.select(&XPath::parse("//asia").unwrap()).unwrap();
        let frag = Document::parse_fragment("<n3/>").unwrap();
        t.insert(InsertPosition::LastChildOf(asia[0]), &frag)
            .unwrap();
        t.commit().unwrap();
        mbxq_storage::invariants::check_paged(s.snapshot().as_ref()).unwrap();
    }

    /// A transaction that took its snapshot before a vacuum must not be
    /// allowed to lock pages afterwards: its page numbering refers to
    /// the pre-vacuum layout, so its locks would not actually cover its
    /// targets and 2PL disjointness would silently break.
    #[test]
    fn vacuum_invalidates_transactions_begun_before_it() {
        let s = store(AncestorLockMode::Delta);
        let mut stale = s.begin(); // snapshot pinned, no locks yet
        s.vacuum().unwrap();
        let err = stale
            .select(&XPath::parse("//person").unwrap())
            .unwrap_err();
        assert!(matches!(err, TxnError::LayoutChanged), "got {err}");
        assert_eq!(
            s.locked_pages(),
            0,
            "the refused select must not keep locks"
        );
        stale.abort();
        // A fresh transaction on the new layout works.
        let mut t = s.begin();
        assert!(t.select(&XPath::parse("//person").unwrap()).is_ok());
        t.abort();
    }

    /// A checkpoint writes its dump and publishes nothing: the version
    /// readers see stays the same allocation under the same stamp.
    #[test]
    fn checkpoint_publishes_no_version() {
        let s = store(AncestorLockMode::Delta);
        let mut t = s.begin();
        let people = t.select(&XPath::parse("/site/people").unwrap()).unwrap();
        let frag = Document::parse_fragment("<person id=\"fresh\"/>").unwrap();
        t.insert(InsertPosition::LastChildOf(people[0]), &frag)
            .unwrap();
        t.commit().unwrap();
        let (before, stamp) = (s.snapshot(), s.version_stamp());
        s.checkpoint().unwrap();
        assert!(std::sync::Arc::ptr_eq(&before, &s.snapshot()));
        assert_eq!(s.version_stamp(), stamp);
        assert!(to_xml(s.snapshot().as_ref()).unwrap().contains("fresh"));
    }

    #[test]
    fn reader_snapshot_survives_many_commits() {
        let s = store(AncestorLockMode::Delta);
        let snap = s.snapshot();
        let baseline = to_xml(snap.as_ref()).unwrap();
        for i in 0..5 {
            let mut t = s.begin();
            let people = t.select(&XPath::parse("/site/people").unwrap()).unwrap();
            let frag = Document::parse_fragment(&format!("<person id=\"g{i}\"/>")).unwrap();
            t.insert(InsertPosition::LastChildOf(people[0]), &frag)
                .unwrap();
            t.commit().unwrap();
        }
        assert_eq!(to_xml(snap.as_ref()).unwrap(), baseline);
        assert_eq!(
            to_xml(s.snapshot().as_ref())
                .unwrap()
                .matches("person")
                .count(),
            baseline.matches("person").count() + 5 // 5 self-closing elements
        );
    }
}
