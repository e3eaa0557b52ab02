//! The [`Shard`]: one transactional, versioned document.
//!
//! A shard owns everything the single-document store owned before the
//! catalog split: the committed-version cell, the commit lock and
//! pipeline gate, its own WAL and group-commit queue, the page-lock
//! table, the layout epoch and the compiled-plan cache. A
//! [`crate::Catalog`] holds many shards (one per document) and injects
//! one shared [`QueryPool`] into all of them; [`Shard::open`] opens a
//! single document with a private pool. The commit pipeline, locking
//! protocol and maintenance operations are documented in the
//! crate-level docs.

use crate::pool::QueryPool;
use crate::wal::{Wal, WalRecord};
use crate::{
    group, locks, op::Op, AncestorLockMode, CheckpointInfo, CommitInfo, GroupCommitStats,
    PlanCacheStats, Result, StoreConfig, TxnError, TxnId,
};
use mbxq_storage::{ArcCell, InsertPosition, NodeId, PagedDoc, StorageError, TreeView};
use mbxq_xml::Node;
use mbxq_xpath::XPath;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// One published version of the document: the stamp and the document
/// pointer travel in a single `Arc`, so readers observe both atomically.
struct Version {
    /// Monotonic publish counter — bumped by every commit, checkpoint
    /// and vacuum. Speculative commits key their work on it and re-check
    /// it under the commit lock.
    stamp: u64,
    /// The committed document.
    doc: Arc<PagedDoc>,
}

/// A transactional, versioned XML document store — one document of a
/// [`crate::Catalog`], or a standalone single-document store
/// ([`Shard::open`]).
pub struct Shard {
    /// The document name under which a catalog opened this shard
    /// (`None` for a standalone store). Stamped into checkpoint dumps
    /// so recovery can detect a WAL file swapped between shard slots.
    name: Option<String>,
    /// The committed version. Readers clone the `Arc` out of the
    /// lock-free cell (MVCC snapshot) — they never touch any lock, so
    /// snapshot latency is independent of writer traffic.
    version: ArcCell<Version>,
    /// The global write lock of Figure 8 — a commit holds it **only**
    /// for the stamp recheck + pointer-swap publish.
    commit_lock: Mutex<()>,
    /// Commit-pipeline gate: commits hold it shared from their WAL
    /// append through their publish; [`Shard::checkpoint`] takes it
    /// exclusively so the log truncation can never discard a record
    /// whose effects are still on their way to being published.
    pipeline_gate: RwLock<()>,
    wal: Mutex<Wal>,
    /// Group-commit coordinator batching concurrent WAL appends.
    group: group::GroupCommit,
    pub(crate) locks: locks::LockManager,
    next_txn: AtomicU64,
    /// Shared node-id allocation point: transactions reserve id ranges
    /// here at staging time, so ids are identical in the transaction's
    /// workspace, at commit replay, and during recovery.
    next_node: AtomicU64,
    /// Bumped by [`Shard::vacuum`] (which relocates tuples across
    /// logical pages). Transactions verify it *after* acquiring page
    /// locks: a held lock blocks vacuum, so an unchanged epoch at that
    /// point proves the lock's page numbering is current.
    layout_epoch: AtomicU64,
    /// Compiled-plan cache for [`Shard::query`], keyed by query *shape*
    /// ([`mbxq_xpath::QueryShape`]: the text with whitespace normalized
    /// and comparison-operand string literals lifted to parameters),
    /// with LRU eviction of single entries at the cap.
    plans: Mutex<PlanCache>,
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
    plan_evictions: AtomicU64,
    /// Morsel-execution pool handle. Every shard of a catalog holds the
    /// *same* `Arc` (one set of worker threads per catalog, not per
    /// document); a standalone shard gets a private one.
    /// Queries borrow the pool per evaluation; its workers outlive
    /// every snapshot they read because `run` blocks until all morsels
    /// finish.
    pool: Arc<QueryPool>,
    config: StoreConfig,
}

/// The [`Shard::query`] plan cache: map + logical clock for LRU.
#[derive(Default)]
struct PlanCache {
    map: HashMap<String, CachedPlan>,
    /// Monotonic use counter; every hit/insert stamps its entry.
    tick: u64,
}

/// One [`Shard::query`] cache entry: the compiled plan plus the layout
/// epoch it was compiled under. A vacuum reorganizes the page layout
/// (and re-costs every strategy surface), so an epoch bump invalidates
/// the entry and the next use recompiles.
struct CachedPlan {
    epoch: u64,
    plan: Arc<XPath>,
    /// Adaptive-execution memory for this entry: estimated vs observed
    /// cardinality per multi-predicate step, written by every Auto
    /// evaluation and consulted by the next one (see
    /// [`mbxq_xpath::ReplanMode`]). Dies with the entry, so a vacuum's
    /// epoch bump discards the observations along with the plan.
    feedback: Arc<mbxq_xpath::PlanFeedback>,
    /// [`PlanCache::tick`] of the most recent use (LRU victim choice).
    last_used: u64,
}

/// What [`Shard::cached_plan`] hands one request: the shared plan and
/// feedback store of the text's shape, and the shape itself — which
/// still holds the literal values this particular text carries.
struct Prepared {
    plan: Arc<XPath>,
    feedback: Arc<mbxq_xpath::PlanFeedback>,
    shape: mbxq_xpath::QueryShape,
}

impl Shard {
    /// Opens a standalone shard over an already-shredded document, with
    /// a private query pool of [`StoreConfig::query_threads`] width.
    pub fn open(doc: PagedDoc, wal: Wal, config: StoreConfig) -> Shard {
        let pool = Arc::new(QueryPool::with_overhead(
            config.query_threads,
            config.morsel_overhead_ns,
        ));
        Shard::open_named(None, doc, wal, config, pool)
    }

    /// Opens a shard under a document name with an injected (usually
    /// catalog-shared) query pool. The name is stamped into every
    /// checkpoint this shard writes.
    pub fn open_named(
        name: Option<String>,
        doc: PagedDoc,
        wal: Wal,
        config: StoreConfig,
        pool: Arc<QueryPool>,
    ) -> Shard {
        let next_node = doc.node_alloc_end();
        Shard {
            name,
            version: ArcCell::new(Arc::new(Version {
                stamp: 0,
                doc: Arc::new(doc),
            })),
            commit_lock: Mutex::new(()),
            pipeline_gate: RwLock::new(()),
            wal: Mutex::new(wal),
            group: group::GroupCommit::new(),
            locks: locks::LockManager::new(),
            next_txn: AtomicU64::new(1),
            next_node: AtomicU64::new(next_node),
            layout_epoch: AtomicU64::new(0),
            plans: Mutex::new(PlanCache::default()),
            plan_hits: AtomicU64::new(0),
            plan_misses: AtomicU64::new(0),
            plan_evictions: AtomicU64::new(0),
            pool,
            config,
        }
    }

    /// The document name this shard was opened under (`None` for a
    /// standalone store).
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }

    /// The shard configuration.
    pub fn config(&self) -> StoreConfig {
        self.config
    }

    /// Takes a consistent read snapshot (a read-only transaction).
    /// **Lock-free**: a handful of atomic operations on the version
    /// cell, never a mutex or rwlock — see [`mbxq_storage::ArcCell`] —
    /// so readers are unaffected by writer load. The snapshot stays
    /// valid and immutable no matter what commits afterwards.
    pub fn snapshot(&self) -> Arc<PagedDoc> {
        self.version.load().doc.clone()
    }

    /// The current publish stamp (bumped by every commit, checkpoint and
    /// vacuum). Diagnostic: the concurrency tests use it to enumerate
    /// published versions.
    pub fn version_stamp(&self) -> u64 {
        self.version.load().stamp
    }

    /// Cumulative group-commit counters ([`GroupCommitStats`]); under
    /// concurrent commit load, `records` outgrowing `batches` proves
    /// committers shared flush I/Os.
    pub fn group_commit_stats(&self) -> GroupCommitStats {
        self.group.stats()
    }

    /// Publishes `doc` as the next version and returns the superseded
    /// one. Caller MUST hold `commit_lock` (publishes are serialized;
    /// the cell itself only protects readers) and MUST drop the returned
    /// version only after releasing it: when no reader pins the old
    /// version this is its last reference, and tearing a document down
    /// (one reference count per page) has no business inside the one
    /// section the commit pipeline keeps short.
    #[must_use = "drop the superseded version after releasing commit_lock"]
    fn publish_locked(&self, doc: PagedDoc) -> Arc<Version> {
        let stamp = self.version.load().stamp + 1;
        self.version.store(Arc::new(Version {
            stamp,
            doc: Arc::new(doc),
        }))
    }

    /// Begins a write transaction.
    pub fn begin(&self) -> WriteTxn<'_> {
        let id = self.next_txn.fetch_add(1, Ordering::Relaxed);
        // Epoch is read BEFORE the snapshot: vacuum publishes before
        // bumping, so observing the new epoch implies the snapshot
        // read below sees the new layout (never new-epoch/old-doc).
        let epoch = self.layout_epoch.load(Ordering::Acquire);
        let base = self.version.load();
        WriteTxn {
            shard: self,
            id,
            epoch,
            base_stamp: base.stamp,
            snapshot: base.doc.clone(),
            work: None,
            work_diverged: false,
            staged: CommitInfo {
                txn: id,
                ..CommitInfo::default()
            },
            ops: Vec::new(),
            finished: false,
        }
    }

    /// Consumes the shard, returning the current document and the WAL.
    pub fn into_parts(self) -> (PagedDoc, Wal) {
        let doc_arc = match Arc::try_unwrap(self.version.into_inner()) {
            Ok(version) => version.doc,
            Err(shared) => shared.doc.clone(),
        };
        let doc = Arc::try_unwrap(doc_arc).unwrap_or_else(|arc| (*arc).clone());
        (doc, self.wal.into_inner().unwrap())
    }

    /// The raw WAL bytes as a recovery process would find them — what
    /// [`crate::recover::recover`] and
    /// [`crate::recover::recover_shard`] take as input. Replaces the
    /// `into_parts`-then-`raw` dance without consuming the shard.
    pub fn wal_raw(&self) -> Result<Vec<u8>> {
        Ok(self.wal.lock().unwrap().raw()?)
    }

    /// Arms WAL crash injection (see [`Wal::crash_after_bytes`]): log
    /// I/O fails once the cumulative byte count would exceed `limit`.
    /// Test hook for the crash-recovery property suites.
    pub fn wal_crash_after_bytes(&self, limit: usize) {
        self.wal.lock().unwrap().crash_after_bytes(limit);
    }

    /// Runs `f` with the committed document (convenience for queries that
    /// do not need a long-lived snapshot).
    pub fn with_doc<R>(&self, f: impl FnOnce(&PagedDoc) -> R) -> R {
        f(&self.snapshot())
    }

    /// Number of logical pages currently locked by in-flight write
    /// transactions (diagnostic; the regression tests for the
    /// commit-path lock leak assert on it).
    pub fn locked_pages(&self) -> usize {
        self.locks.locked_pages()
    }

    /// Writes a checkpoint and truncates the WAL to it.
    ///
    /// Under the commit lock (so no commit interleaves), the current
    /// version is serialized — as a structure-preserving tuple dump
    /// carrying every node id plus the id allocation point, *not* as XML
    /// text, which would coalesce adjacent text tuples on reparse — into
    /// a [`WalRecord::Checkpoint`], and the log is atomically replaced
    /// by that single record. [`crate::recover`] then resumes from the
    /// checkpoint instead of replaying history from genesis, and the log
    /// stops growing without bound. A crash during checkpointing leaves
    /// the previous log intact (write-temp-then-rename). In a catalog,
    /// this stalls **only this shard's** committers: every other
    /// document keeps its own gate, commit lock and WAL.
    pub fn checkpoint(&self) -> Result<CheckpointInfo> {
        // Exclusive pipeline gate first: a Short-pipeline commit holds
        // the gate shared from its WAL append through its publish, so
        // once the write side is granted, no commit record in the log
        // is still waiting to be published — truncating cannot lose an
        // in-flight commit. (Lock order: gate, then commit lock; the
        // commit path uses the same order.)
        let _gate = self.pipeline_gate.write().unwrap();
        let global = self.commit_lock.lock().unwrap();
        let doc = self.snapshot();
        let record = WalRecord::Checkpoint {
            alloc_end: doc.node_alloc_end(),
            tuples: doc.used_count(),
            dump: doc.checkpoint_dump_named(self.name.as_deref()),
        };
        let mut wal = self.wal.lock().unwrap();
        let wal_bytes_before = wal.len_bytes();
        wal.reset_with(&record)?;
        // Checkpoints double as the pool/attr-index maintenance point:
        // fold the accumulated deltas into fresh shared bases (never
        // done on the commit path, where it would cost O(document) under
        // the commit lock) and publish the compacted version. Node ids,
        // pages and interned ids are unchanged, so snapshots, staged
        // transactions and page locks are all unaffected; the stamp bump
        // makes any commit speculated against the uncompacted version
        // re-apply onto the compacted one instead of publishing the
        // compaction away.
        let mut compacted = (*doc).clone();
        compacted.pool_mut().compact();
        compacted.compact_attr_index();
        compacted.compact_name_index();
        compacted.compact_content_index();
        let superseded = self.publish_locked(compacted);
        let info = CheckpointInfo {
            nodes: doc.used_count(),
            wal_bytes_before,
            wal_bytes_after: wal.len_bytes(),
        };
        drop(wal);
        drop(global);
        // Teardown of the uncompacted version, outside the commit lock.
        drop((superseded, doc));
        Ok(info)
    }

    /// Reorganizes the document's pages at the configured fill factor
    /// (see [`PagedDoc::vacuum`]), under the commit lock, publishing the
    /// rewritten version like a commit does.
    ///
    /// Fails with [`TxnError::Busy`] if write transactions currently
    /// hold page locks: vacuum relocates tuples across logical pages, so
    /// it must not run concurrently with writers whose lock sets name
    /// the old layout. Like [`Shard::checkpoint`], this is strictly
    /// per-shard maintenance — other documents of the same catalog are
    /// untouched.
    pub fn vacuum(&self) -> Result<mbxq_storage::VacuumReport> {
        let global = self.commit_lock.lock().unwrap();
        // Freeze the lock table for the whole rebuild-publish-bump
        // sequence: the freeze verifies no lock is held *and* prevents
        // any acquisition while page numbers are in flux, closing the
        // window in which a transaction could lock stale numbering with
        // a current epoch. Publish happens before the epoch bump, and
        // `begin` reads the epoch before the snapshot, so a transaction
        // observing the new epoch is guaranteed the new layout.
        self.locks
            .freeze()
            .map_err(|locked_pages| TxnError::Busy { locked_pages })?;
        let result = (|| {
            let current = self.snapshot();
            let mut new_doc = (*current).clone();
            let report = new_doc.vacuum()?;
            let superseded = self.publish_locked(new_doc);
            self.layout_epoch.fetch_add(1, Ordering::AcqRel);
            Ok((report, superseded, current))
        })();
        self.locks.unfreeze();
        drop(global);
        // The old layout's teardown runs here, outside the commit lock.
        result.map(|(report, ..)| report)
    }

    /// Fraction of allocated slots holding live tuples in the committed
    /// version (0.0–1.0) — the trigger metric for [`Shard::vacuum`].
    pub fn occupancy(&self) -> f64 {
        self.snapshot().occupancy()
    }

    /// The current layout epoch (bumped by every [`Shard::vacuum`]).
    pub fn layout_epoch(&self) -> u64 {
        self.layout_epoch.load(Ordering::Acquire)
    }

    /// Evaluates an XPath query against the committed version through
    /// the per-shard **plan cache**: the first use of a query *shape*
    /// compiles it (parse → logical plan → rewrite → physical plan),
    /// later uses — the same text, or any text differing only in
    /// whitespace and compared-against string literals — reuse the
    /// compiled plan. Entries are invalidated by
    /// the layout epoch, so a [`Shard::vacuum`] forces recompilation.
    /// Evaluation runs on a lock-free [`Shard::snapshot`].
    pub fn query(&self, text: &str) -> Result<mbxq_xpath::Value> {
        self.query_opts(text, &mbxq_xpath::EvalOptions::default())
    }

    /// Like [`Shard::query`], coerced to a node set.
    pub fn query_nodes(&self, text: &str) -> Result<Vec<NodeId>> {
        self.query_nodes_opts(text, &mbxq_xpath::EvalOptions::default())
    }

    /// [`Shard::query`] with full evaluation options (axis/value
    /// strategy overrides, decision counters) — the cached plan carries
    /// no strategy decisions itself, so forced arms and live statistics
    /// both flow through one compiled plan.
    pub fn query_opts(
        &self,
        text: &str,
        opts: &mbxq_xpath::EvalOptions<'_>,
    ) -> Result<mbxq_xpath::Value> {
        self.query_on(&self.snapshot(), text, opts)
    }

    /// [`Shard::query_nodes`] with full evaluation options.
    pub fn query_nodes_opts(
        &self,
        text: &str,
        opts: &mbxq_xpath::EvalOptions<'_>,
    ) -> Result<Vec<NodeId>> {
        self.query_nodes_on(&self.snapshot(), text, opts)
    }

    /// [`Shard::query_opts`] against a **caller-held snapshot** instead
    /// of the committed version — the repeatable-read primitive: a
    /// session that pins [`Shard::snapshot`] `Arc`s re-serves the same
    /// state across requests no matter what commits in between, while
    /// still going through this shard's plan cache and worker pool.
    /// The returned [`mbxq_xpath::Value::Nodes`] carries pre ranks of
    /// `snapshot`; callers needing stable ids map them with
    /// [`PagedDoc::pre_to_node`] on the *same* snapshot.
    pub fn query_on(
        &self,
        snapshot: &PagedDoc,
        text: &str,
        opts: &mbxq_xpath::EvalOptions<'_>,
    ) -> Result<mbxq_xpath::Value> {
        let prepared = self.cached_plan(text)?;
        let root: Vec<u64> = snapshot.root_pre().into_iter().collect();
        // The literals this text carries where the shared plan has
        // parameters, layered over the caller's own bindings.
        let bound = prepared.shape.bindings(opts.bindings_ref());
        let mut opts = self.inject_pool(*opts).or_feedback(&prepared.feedback);
        if let Some(b) = &bound {
            opts = opts.bindings(b);
        }
        Ok(prepared.plan.eval_opts(snapshot, &root, &opts)?)
    }

    /// [`Shard::query_nodes_opts`] against a caller-held snapshot (see
    /// [`Shard::query_on`]); results are stable [`NodeId`]s mapped on
    /// that snapshot.
    pub fn query_nodes_on(
        &self,
        snapshot: &PagedDoc,
        text: &str,
        opts: &mbxq_xpath::EvalOptions<'_>,
    ) -> Result<Vec<NodeId>> {
        let pres = self.query_on(snapshot, text, opts)?.into_node_set(text)?;
        pres.iter()
            .map(|&p| snapshot.pre_to_node(p).map_err(TxnError::from))
            .collect()
    }

    /// The shared query worker pool, spawned lazily on first use;
    /// `None` when [`StoreConfig::query_threads`] < 2. All shards of a
    /// catalog return the *same* pool.
    pub fn query_pool(&self) -> Option<&mbxq_xpath::WorkerPool> {
        self.pool.get()
    }

    /// The pool handle itself (shared-ownership form of
    /// [`Shard::query_pool`]).
    pub fn pool_handle(&self) -> &Arc<QueryPool> {
        &self.pool
    }

    /// Adds the shard's pool to `opts` unless the caller already chose
    /// one — every query evaluation funnels through here, so a shard
    /// opened with `query_threads` ≥ 2 parallelizes transparently.
    fn inject_pool<'a>(&'a self, opts: mbxq_xpath::EvalOptions<'a>) -> mbxq_xpath::EvalOptions<'a> {
        match self.query_pool() {
            Some(pool) => opts.or_pool(pool),
            None => opts,
        }
    }

    /// Entries beyond which the plan cache evicts. One entry serves a
    /// whole query *shape*, so per-request string keys
    /// (`…[@id = "personN"]…`) no longer count against it; what still
    /// could grow the map without bound for the shard's lifetime is a
    /// client generating distinct shapes — element names, numeric
    /// literals or function arguments that vary per request.
    const PLAN_CACHE_CAP: usize = 1024;

    /// The compiled plan for `text`'s shape, from the cache when its
    /// epoch is current, freshly compiled (and cached) otherwise. The
    /// key is [`mbxq_xpath::QueryShape::key`]: the token-normalized text
    /// with every string literal that is a direct operand of a
    /// comparison lifted to a synthetic parameter, so the N texts of
    /// one shape are one entry and one compile, and the bound-parameter
    /// form and the literal form run the same kind of plan. There is no
    /// exact-text path in front of it — every lookup lexes the text
    /// (well under a microsecond for a point query) and keys on the
    /// shape. At the cap the cache evicts **single entries,
    /// least-recently-used first** (a stale-epoch entry is preferred as
    /// the victim — it can never hit again), so a hot query survives
    /// any storm of one-shot shapes.
    fn cached_plan(&self, text: &str) -> Result<Prepared> {
        let shape = mbxq_xpath::QueryShape::of(text)?;
        let epoch = self.layout_epoch();
        {
            let mut plans = self.plans.lock().unwrap();
            plans.tick += 1;
            let tick = plans.tick;
            if let Some(entry) = plans.map.get_mut(shape.key()) {
                if entry.epoch == epoch {
                    entry.last_used = tick;
                    self.plan_hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(Prepared {
                        plan: entry.plan.clone(),
                        feedback: entry.feedback.clone(),
                        shape,
                    });
                }
            }
        }
        // Compile OUTSIDE the lock: a slow compile must not serialize
        // concurrent queries for unrelated (cached) shapes. Racing
        // compilers of the same shape both succeed; last insert wins.
        self.plan_misses.fetch_add(1, Ordering::Relaxed);
        // A text that does not parse reports the error of the text as
        // written, not of its lifted form.
        let plan = Arc::new(
            shape
                .compile()
                .map_err(|e| XPath::parse(text).err().unwrap_or(e))?,
        );
        let mut plans = self.plans.lock().unwrap();
        while plans.map.len() >= Self::PLAN_CACHE_CAP && !plans.map.contains_key(shape.key()) {
            // Victim: any stale-epoch entry, else the LRU one. An O(n)
            // scan over ≤ cap entries, paid only on an insert at the
            // cap — the hit path stays O(1).
            let victim = plans
                .map
                .iter()
                .min_by_key(|(_, e)| (e.epoch == epoch, e.last_used))
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    plans.map.remove(&k);
                    self.plan_evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => break,
            }
        }
        plans.tick += 1;
        let tick = plans.tick;
        let feedback = Arc::new(mbxq_xpath::PlanFeedback::new());
        plans.map.insert(
            shape.key().to_string(),
            CachedPlan {
                epoch,
                plan: plan.clone(),
                feedback: feedback.clone(),
                last_used: tick,
            },
        );
        Ok(Prepared {
            plan,
            feedback,
            shape,
        })
    }

    /// The recorded multi-predicate feedback for a cached query (looked
    /// up by `text`'s shape, like every cache access): estimated vs
    /// observed candidate cardinality per step, in execution order.
    /// `None` when the shape was never compiled (or its entry was
    /// evicted / epoch-invalidated).
    pub fn plan_feedback(&self, text: &str) -> Option<Vec<mbxq_xpath::StepFeedback>> {
        let shape = mbxq_xpath::QueryShape::of(text).ok()?;
        let epoch = self.layout_epoch();
        let plans = self.plans.lock().unwrap();
        let entry = plans.map.get(shape.key())?;
        if entry.epoch != epoch {
            return None;
        }
        Some(entry.feedback.snapshot())
    }

    /// Explains the compiled physical plan for `text`, annotated with
    /// this shard's recorded estimated-vs-observed cardinalities for
    /// every multi-predicate step (compiling and caching the plan if
    /// needed) — the adaptive-execution introspection surface. When the
    /// text's literals were lifted, the first line names the shape key
    /// the plan is cached under (and shared through).
    pub fn explain_query(&self, text: &str) -> Result<String> {
        let prepared = self.cached_plan(text)?;
        let plan = prepared
            .plan
            .explain_physical_annotated(&prepared.feedback.snapshot());
        Ok(if prepared.shape.lifted() > 0 {
            format!("cached as {}\n{plan}", prepared.shape.key())
        } else {
            plan
        })
    }

    /// Plan-cache counters.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.plan_hits.load(Ordering::Relaxed),
            misses: self.plan_misses.load(Ordering::Relaxed),
            evictions: self.plan_evictions.load(Ordering::Relaxed),
            entries: self.plans.lock().unwrap().map.len(),
        }
    }
}

/// An in-flight write transaction.
///
/// Updates are *staged* (and locked) during the transaction and applied
/// to the master document only at commit — before that, no other
/// transaction (and no reader) can observe them, which is exactly the
/// isolation contract of the copy-on-write views in Figure 8.
pub struct WriteTxn<'s> {
    shard: &'s Shard,
    id: TxnId,
    /// The shard's layout epoch at begin time (see
    /// `Shard::layout_epoch`).
    epoch: u64,
    /// Publish stamp of the version `snapshot` was read from.
    base_stamp: u64,
    snapshot: Arc<PagedDoc>,
    /// Private working copy — the paper's copy-on-write view. Created on
    /// the first update so that later operations (and XUpdate commands)
    /// of the same transaction see earlier ones; readers and other
    /// transactions never see it. It is exactly `ops` applied in order
    /// to a clone of `snapshot` (every staging call goes through
    /// [`Op::apply`]), so commit publishes it as is when no other
    /// version was published since `base_stamp`.
    work: Option<Box<PagedDoc>>,
    /// A staging call failed on the workspace: it may have changed the
    /// workspace without an op being recorded, so the workspace is no
    /// longer `ops` applied to `snapshot` and commit must re-apply.
    work_diverged: bool,
    /// Commit statistics of the ops staged so far.
    staged: CommitInfo,
    pub(crate) ops: Vec<Op>,
    finished: bool,
}

/// A transaction's workspace handed to commit as the already-applied
/// next version — valid on top of the version stamped `stamp` only.
struct Speculated {
    stamp: u64,
    doc: PagedDoc,
    info: CommitInfo,
}

impl WriteTxn<'_> {
    /// The transaction id.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// The transaction's current view: its private workspace once it has
    /// written anything, else the begin-time snapshot.
    pub fn view(&self) -> &PagedDoc {
        match &self.work {
            Some(w) => w,
            None => &self.snapshot,
        }
    }

    /// The begin-time snapshot (ignores workspace changes).
    pub fn snapshot(&self) -> &PagedDoc {
        &self.snapshot
    }

    /// Materializes the private working copy (the copy-on-write view of
    /// Figure 8) on first write.
    fn work_mut(&mut self) -> &mut PagedDoc {
        if self.work.is_none() {
            self.work = Some(Box::new((*self.snapshot).clone()));
        }
        self.work.as_mut().expect("just materialized")
    }

    /// Applies `op` to the workspace and records it for the WAL and for
    /// a commit-time re-apply. Returns `(inserted, deleted,
    /// ancestors_touched)`.
    fn stage(&mut self, op: Op) -> Result<(u64, u64, u64)> {
        match op.apply(self.work_mut()) {
            Ok(counts) => {
                self.staged.count(counts);
                self.ops.push(op);
                Ok(counts)
            }
            Err(e) => {
                self.work_diverged = true;
                Err(e)
            }
        }
    }

    /// Evaluates an XPath selection against the transaction's view,
    /// read-locking the pages of the result nodes ("read-lock pages
    /// during XPath execution", Figure 8). Returns the targets pinned by
    /// node id.
    pub fn select(&mut self, path: &XPath) -> Result<Vec<NodeId>> {
        let pres = path.select_from_root(self.view())?;
        let shift = self.view().config().page_size.trailing_zeros();
        let mut pages = Vec::with_capacity(pres.len());
        let mut nodes = Vec::with_capacity(pres.len());
        for pre in pres {
            pages.push((pre >> shift) as usize);
            nodes.push(self.view().pre_to_node(pre)?);
        }
        for page in pages {
            self.shard
                .locks
                .acquire_read(self.id, page, self.shard.config.lock_timeout)
                .map_err(|page| TxnError::LockTimeout { page })?;
        }
        self.verify_layout()?;
        Ok(nodes)
    }

    /// Fails with [`TxnError::LayoutChanged`] if a vacuum relocated
    /// pages since this transaction began. Called *after* acquiring
    /// locks: vacuum refuses to run while any lock is held, so if the
    /// epoch is still ours here, no vacuum can invalidate the pages we
    /// just locked for as long as we hold them.
    fn verify_layout(&self) -> Result<()> {
        if self.shard.layout_epoch.load(Ordering::Acquire) != self.epoch {
            // An epoch change implies this transaction held no locks
            // while the vacuum ran (held locks make vacuum return
            // `Busy`), so it has no staged ops either — releasing the
            // just-acquired locks cannot break 2PL, and the doomed
            // transaction stops blocking healthy writers immediately.
            self.shard.locks.release_all(self.id);
            return Err(TxnError::LayoutChanged);
        }
        Ok(())
    }

    /// Stages and locally applies a structural insert (write-locking the
    /// target's page and, in [`AncestorLockMode::Exclusive`], every
    /// ancestor page).
    pub fn insert(&mut self, position: InsertPosition, subtree: &Node) -> Result<()> {
        let target = match position {
            InsertPosition::Before(n)
            | InsertPosition::After(n)
            | InsertPosition::LastChildOf(n)
            | InsertPosition::ChildAt(n, _) => n,
        };
        self.lock_for_write(target)?;
        // Reserve the id range from the shared counter so every replay
        // of this op allocates identically.
        let n = subtree.tuple_count();
        let first_node = self.shard.next_node.fetch_add(n, Ordering::Relaxed);
        self.stage(Op::Insert {
            position,
            subtree: subtree.clone(),
            first_node,
        })?;
        Ok(())
    }

    /// Stages and locally applies a structural delete (write-locking
    /// every page the target's region spans). Returns the number of
    /// tuples deleted.
    pub fn delete(&mut self, target: NodeId) -> Result<u64> {
        let pre = self.view().node_to_pre(target)?;
        let end = self.view().region_end(pre);
        let shift = self.view().config().page_size.trailing_zeros();
        for page in (pre >> shift) as usize..=(end.saturating_sub(1).max(pre) >> shift) as usize {
            self.shard
                .locks
                .acquire_write(self.id, page, self.shard.config.lock_timeout)
                .map_err(|page| TxnError::LockTimeout { page })?;
        }
        self.lock_ancestors_if_exclusive(target)?;
        self.verify_layout()?;
        let (_, deleted, _) = self.stage(Op::Delete { node: target })?;
        Ok(deleted)
    }

    /// Stages and locally applies a value update.
    pub fn update_value(&mut self, target: NodeId, value: &str) -> Result<()> {
        self.lock_for_write(target)?;
        self.stage(Op::UpdateValue {
            node: target,
            value: value.to_string(),
        })?;
        Ok(())
    }

    /// Stages and locally applies an element rename.
    pub fn rename(&mut self, target: NodeId, name: &mbxq_xml::QName) -> Result<()> {
        self.lock_for_write(target)?;
        self.stage(Op::Rename {
            node: target,
            name: name.clone(),
        })?;
        Ok(())
    }

    /// Stages and locally applies an attribute write.
    pub fn set_attribute(
        &mut self,
        target: NodeId,
        name: &mbxq_xml::QName,
        value: &str,
    ) -> Result<()> {
        self.lock_for_write(target)?;
        self.stage(Op::SetAttr {
            node: target,
            name: name.clone(),
            value: value.to_string(),
        })?;
        Ok(())
    }

    /// Stages and locally applies an attribute removal.
    pub fn remove_attribute(&mut self, target: NodeId, name: &mbxq_xml::QName) -> Result<()> {
        self.lock_for_write(target)?;
        self.stage(Op::RemoveAttr {
            node: target,
            name: name.clone(),
        })?;
        Ok(())
    }

    /// Number of staged operations.
    pub fn staged_ops(&self) -> usize {
        self.ops.len()
    }

    fn lock_for_write(&mut self, target: NodeId) -> Result<()> {
        let pre = self.view().node_to_pre(target)?;
        let shift = self.view().config().page_size.trailing_zeros();
        let page = (pre >> shift) as usize;
        self.shard
            .locks
            .acquire_write(self.id, page, self.shard.config.lock_timeout)
            .map_err(|page| TxnError::LockTimeout { page })?;
        self.lock_ancestors_if_exclusive(target)?;
        self.verify_layout()
    }

    /// In `Exclusive` mode, write-locks the page of every ancestor — the
    /// root's page included, which is what makes the root "a locking
    /// bottleneck" (§2.2). In `Delta` mode this is a no-op.
    fn lock_ancestors_if_exclusive(&mut self, target: NodeId) -> Result<()> {
        if self.shard.config.ancestor_mode != AncestorLockMode::Exclusive {
            return Ok(());
        }
        let shift = self.view().config().page_size.trailing_zeros();
        let mut pre = self.view().node_to_pre(target)?;
        while let Some(parent) = self.view().parent_of(pre) {
            let page = (parent >> shift) as usize;
            self.shard
                .locks
                .acquire_write(self.id, page, self.shard.config.lock_timeout)
                .map_err(|page| TxnError::LockTimeout { page })?;
            pre = parent;
        }
        Ok(())
    }

    /// Commits: validation → global write lock → WAL append → carry the
    /// staged operations into the master document → publish the new
    /// version → release all locks (Figure 8, bottom half).
    ///
    /// Strict 2PL demands that the page locks are released on **every**
    /// exit path — success, validation failure, a failing staged op, or
    /// a WAL crash — otherwise a failed commit strands its locks forever
    /// and later writers die with [`TxnError::LockTimeout`]. The release
    /// therefore lives here, outside the fallible body.
    pub fn commit(mut self) -> Result<CommitInfo> {
        let shard = self.shard;
        let id = self.id;
        let ops = std::mem::take(&mut self.ops);
        let work = match self.work.take() {
            Some(doc) if !self.work_diverged => Some(Speculated {
                stamp: self.base_stamp,
                doc: *doc,
                info: self.staged,
            }),
            _ => None,
        };
        let result = Self::commit_ops(shard, id, &ops, work);
        self.finished = true;
        shard.locks.release_all(id);
        result
    }

    /// The version this commit publishes on top of `base`: the
    /// transaction's workspace when `base` is still the version it began
    /// on — the workspace *is* the ops applied to a clone of it, already
    /// paid for during staging — else the ops re-applied to a clone of
    /// `base` ([`WriteTxn::apply_to_clone`]).
    fn speculate(
        base: &Version,
        id: TxnId,
        ops: &[Op],
        work: Option<Speculated>,
    ) -> Result<(PagedDoc, CommitInfo)> {
        match work {
            Some(w) if w.stamp == base.stamp => Ok((w.doc, w.info)),
            _ => Self::apply_to_clone(&base.doc, id, ops),
        }
    }

    /// Applies the redo ops to a copy-on-write clone of `base`: only the
    /// pages the ops touch are privatized, everything else stays
    /// shared with `base` (and with every reader snapshot). Node ids pin
    /// the targets, so ops staged against the begin-time snapshot apply
    /// correctly to any later master version — other transactions'
    /// commits touched disjoint pages (their page locks guarantee it),
    /// and ancestor sizes are adjusted as *deltas* on the current values,
    /// the commutative operations of §3.2.
    fn apply_to_clone(base: &PagedDoc, id: TxnId, ops: &[Op]) -> Result<(PagedDoc, CommitInfo)> {
        let mut info = CommitInfo {
            txn: id,
            ..CommitInfo::default()
        };
        let mut new_doc = base.clone();
        for op in ops {
            info.count(op.apply(&mut new_doc)?);
        }
        Ok((new_doc, info))
    }

    /// Validation ("run XML document validation … if this fails, the
    /// transaction is aborted").
    fn validate(shard: &Shard, doc: &PagedDoc) -> Result<()> {
        if shard.config.validate_on_commit {
            if let Err(e) = mbxq_storage::invariants::check_paged(doc) {
                return Err(TxnError::ValidationFailed {
                    message: e.to_string(),
                });
            }
        }
        Ok(())
    }

    /// The fallible commit body — speculate → group-log → stamp-checked
    /// publish (see the crate docs); lock release is handled by the
    /// caller.
    fn commit_ops(
        shard: &Shard,
        id: TxnId,
        ops: &[Op],
        work: Option<Speculated>,
    ) -> Result<CommitInfo> {
        if ops.is_empty() {
            return Ok(CommitInfo {
                txn: id,
                ..CommitInfo::default()
            });
        }
        // ---- phase 1: speculation, no global lock ----
        // The speculated version is keyed by the stamp of the version
        // current *now*: the workspace if that is still the version the
        // transaction began on (no second apply, no second set of page
        // privatizations), else a COW re-apply onto it. Failures on this
        // path (a redo op that cannot apply, a validation veto) abort
        // the transaction before anything reached the log.
        let base = shard.version.load();
        let (mut new_doc, mut info) = Self::speculate(&base, id, ops, work)?;
        Self::validate(shard, &new_doc)?;

        // ---- phase 2: group-commit WAL append, no global lock ----
        // The pipeline gate (shared) keeps a checkpoint from truncating
        // the log between this append and the publish below. The append
        // itself batches with every concurrent committer: one leader,
        // one I/O, followers wait on the flush ticket. A crash or I/O
        // failure here means the transaction never happened — the record
        // is torn (recovery drops it) and nothing was published.
        let gate = shard.pipeline_gate.read().unwrap();
        shard.group.submit(
            &shard.wal,
            WalRecord::Commit {
                txn: id,
                ops: ops.to_vec(),
            },
        )?;

        // ---- phase 3: the short critical section ----
        // Only the stamp recheck and the pointer swap happen under the
        // global lock. If another commit (or a checkpoint/vacuum)
        // published since speculation, re-apply the ops onto the fresh
        // master: our targets' pages are still ours (page locks are held
        // until after publish), so the re-apply reproduces exactly the
        // speculated per-page result, and ancestor deltas commute with
        // whatever committed in between.
        //
        // Past this point the commit record is DURABLE: recovery will
        // replay it no matter what this thread does next, so reporting
        // failure here would make the live shard silently disagree with
        // every future recovery. Re-apply (and the merged-state
        // invariant check, in validating configurations) can only fail
        // if the disjointness/commutativity guarantee itself is broken —
        // a storage-layer bug, not an abortable transaction fault — so
        // such a failure panics loudly instead of lying about the
        // durability outcome. All *abortable* failures (inapplicable
        // ops, validation vetoes) happened in phase 1, before the log.
        let global = shard.commit_lock.lock().unwrap();
        let current = shard.version.load();
        if current.stamp != base.stamp {
            let (re_doc, re_info) =
                Self::apply_to_clone(&current.doc, id, ops).unwrap_or_else(|e| {
                    panic!(
                        "txn {id}: page-disjoint re-apply failed after its WAL record \
                         became durable (2PL disjointness violated?): {e}"
                    )
                });
            Self::validate(shard, &re_doc).unwrap_or_else(|e| {
                panic!(
                    "txn {id}: merged state failed validation after its WAL record \
                     became durable (commutativity violated?): {e}"
                )
            });
            new_doc = re_doc;
            info = re_info;
        }
        let superseded = shard.publish_locked(new_doc);
        drop((global, gate));
        // The superseded version's teardown (this is its last reference
        // when no reader pins it) runs outside the critical section.
        drop((superseded, current, base));
        Ok(info)
    }

    /// Aborts: staged operations are simply forgotten — nothing ever
    /// touched the master document.
    pub fn abort(mut self) {
        self.finished = true;
        self.shard.locks.release_all(self.id);
    }
}

impl mbxq_storage::TreeView for WriteTxn<'_> {
    fn pre_end(&self) -> u64 {
        self.view().pre_end()
    }
    fn level(&self, pre: u64) -> Option<u16> {
        self.view().level(pre)
    }
    fn size(&self, pre: u64) -> u64 {
        mbxq_storage::TreeView::size(self.view(), pre)
    }
    fn kind(&self, pre: u64) -> Option<mbxq_storage::Kind> {
        self.view().kind(pre)
    }
    fn name_id(&self, pre: u64) -> Option<mbxq_storage::QnId> {
        self.view().name_id(pre)
    }
    fn value_ref(&self, pre: u64) -> Option<mbxq_storage::ValueRef> {
        self.view().value_ref(pre)
    }
    fn node_id(&self, pre: u64) -> Option<NodeId> {
        self.view().node_id(pre)
    }
    fn back_run(&self, pre: u64) -> u64 {
        self.view().back_run(pre)
    }
    fn attributes(&self, pre: u64) -> Vec<(mbxq_storage::QnId, mbxq_storage::PropId)> {
        self.view().attributes(pre)
    }
    fn pool(&self) -> &mbxq_storage::ValuePool {
        self.view().pool()
    }
    fn used_count(&self) -> u64 {
        self.view().used_count()
    }
    fn elements_named_in(
        &self,
        qn: mbxq_storage::QnId,
        lo: u64,
        hi: u64,
    ) -> Option<std::borrow::Cow<'_, [u64]>> {
        self.view().elements_named_in(qn, lo, hi)
    }
    fn elements_named_count(&self, qn: mbxq_storage::QnId) -> Option<u64> {
        self.view().elements_named_count(qn)
    }
    fn has_content_index(&self) -> bool {
        self.view().has_content_index()
    }
    fn nodes_with_attr_value(&self, attr: mbxq_storage::QnId, value: &str) -> Option<Vec<u64>> {
        self.view().nodes_with_attr_value(attr, value)
    }
    fn nodes_with_attr_value_range(
        &self,
        attr: mbxq_storage::QnId,
        range: &mbxq_storage::NumRange,
    ) -> Option<Vec<u64>> {
        self.view().nodes_with_attr_value_range(attr, range)
    }
    fn nodes_with_attr_value_count(&self, attr: mbxq_storage::QnId, value: &str) -> Option<u64> {
        self.view().nodes_with_attr_value_count(attr, value)
    }
    fn nodes_with_attr_value_range_count(
        &self,
        attr: mbxq_storage::QnId,
        range: &mbxq_storage::NumRange,
    ) -> Option<u64> {
        self.view().nodes_with_attr_value_range_count(attr, range)
    }
    fn elements_with_text(
        &self,
        qn: mbxq_storage::QnId,
        value: &str,
    ) -> Option<mbxq_storage::TextProbe> {
        self.view().elements_with_text(qn, value)
    }
    fn elements_with_text_range(
        &self,
        qn: mbxq_storage::QnId,
        range: &mbxq_storage::NumRange,
    ) -> Option<mbxq_storage::TextProbe> {
        self.view().elements_with_text_range(qn, range)
    }
    fn elements_with_text_count(&self, qn: mbxq_storage::QnId, value: &str) -> Option<u64> {
        self.view().elements_with_text_count(qn, value)
    }
    fn elements_with_text_range_count(
        &self,
        qn: mbxq_storage::QnId,
        range: &mbxq_storage::NumRange,
    ) -> Option<u64> {
        self.view().elements_with_text_range_count(qn, range)
    }
    fn attr_degree_stats(&self, attr: mbxq_storage::QnId) -> Option<mbxq_storage::DegreeStats> {
        self.view().attr_degree_stats(attr)
    }
    fn text_degree_stats(&self, qn: mbxq_storage::QnId) -> Option<mbxq_storage::DegreeStats> {
        self.view().text_degree_stats(qn)
    }
    fn pre_chunk(&self, pre: u64, end: u64) -> Option<mbxq_storage::PreChunk<'_>> {
        self.view().pre_chunk(pre, end)
    }
    fn region_end(&self, pre: u64) -> u64 {
        self.view().region_end(pre)
    }
    fn parent_of(&self, pre: u64) -> Option<u64> {
        self.view().parent_of(pre)
    }
}

fn demote(e: TxnError) -> StorageError {
    match e {
        TxnError::Storage(e) => e,
        other => StorageError::Kernel(other.to_string()),
    }
}

/// Lets a whole XUpdate command script run *inside* one transaction:
/// selections and later commands see the effects of earlier ones (via
/// the private workspace), nothing is visible outside until commit.
impl mbxq_xupdate::UpdateTarget for WriteTxn<'_> {
    fn xu_insert(&mut self, position: InsertPosition, subtree: &Node) -> mbxq_storage::Result<u64> {
        let n = subtree.tuple_count();
        self.insert(position, subtree).map_err(demote)?;
        Ok(n)
    }

    fn xu_delete(&mut self, target: NodeId) -> mbxq_storage::Result<u64> {
        self.delete(target).map_err(demote)
    }

    fn xu_update_value(&mut self, target: NodeId, value: &str) -> mbxq_storage::Result<()> {
        self.update_value(target, value).map_err(demote)
    }

    fn xu_rename(&mut self, target: NodeId, name: &mbxq_xml::QName) -> mbxq_storage::Result<()> {
        self.rename(target, name).map_err(demote)
    }

    fn xu_set_attribute(
        &mut self,
        target: NodeId,
        name: &mbxq_xml::QName,
        value: &str,
    ) -> mbxq_storage::Result<()> {
        self.set_attribute(target, name, value).map_err(demote)
    }

    fn xu_node_to_pre(&self, node: NodeId) -> mbxq_storage::Result<u64> {
        self.view().node_to_pre(node)
    }

    fn xu_pre_to_node(&self, pre: u64) -> mbxq_storage::Result<NodeId> {
        self.view().pre_to_node(pre)
    }
}

impl WriteTxn<'_> {
    /// Executes a parsed XUpdate script inside this transaction, with
    /// full sequential semantics (command *n+1* sees command *n*'s
    /// effects through the workspace).
    pub fn execute_xupdate(
        &mut self,
        mods: &mbxq_xupdate::Modifications,
    ) -> Result<mbxq_xupdate::ExecutionSummary> {
        mbxq_xupdate::execute(self, mods).map_err(|e| match e {
            mbxq_xupdate::XUpdateError::Storage(se) => TxnError::Storage(se),
            mbxq_xupdate::XUpdateError::Path(pe) => TxnError::Path(pe),
            other => TxnError::Storage(StorageError::Kernel(other.to_string())),
        })
    }
}

impl Drop for WriteTxn<'_> {
    fn drop(&mut self) {
        if !self.finished {
            self.shard.locks.release_all(self.id);
        }
    }
}
