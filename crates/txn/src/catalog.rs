//! The multi-document [`Catalog`]: document names → [`Shard`]s.
//!
//! MonetDB/XQuery stores each document as its own set of pre-ordered
//! relational tables; the catalog is the layer that gives every
//! document its own table set here — one [`Shard`] per document, each
//! with its own WAL, group-commit pipeline, page-lock table and plan
//! cache, so commits, checkpoints and vacuums on one document never
//! stall another. On top sit two routing modes:
//!
//! * **hash routing** — [`Catalog::query`]`("name", xpath)` looks the
//!   name up in a hash map and evaluates on exactly one shard (the
//!   many-small-documents shape);
//! * **partitioning** — [`Catalog::create_partitioned`] splits one
//!   large document's root children into N contiguous ranges, stored as
//!   documents `base#0 … base#N-1` (the explicit range/subtree
//!   partition shape). Part order = creation order = child order, so
//!   the cross-document merge below reproduces original document order.
//!
//! The cross-document form [`Catalog::query_all`] fans the shard-local
//! evaluations out over the **one** worker pool all shards share and
//! merges per-document node sets in (document, document-order) —
//! deterministic by construction, since each shard's evaluation is
//! itself bit-identical to its sequential run (PR 6's morsel-merge
//! guarantee) and documents are concatenated in creation order.
//!
//! # On-disk layout and crash safety
//!
//! ```text
//! catalog-dir/
//!   manifest           "mbxq-catalog v1\n" + one "<id> <len>:<name>\n" per doc
//!   manifest.tmp       (transient; a crashed manifest rewrite)
//!   shard-<id>.wal     one WAL per document, first record = a named checkpoint
//! ```
//!
//! The manifest is the **commit point** of every create/drop/export:
//! it is rewritten via write-temp → fsync → rename → dir-fsync (the
//! same protocol as WAL truncation), so a crash leaves either the old
//! or the new document set, never a torn one. Creates write the shard
//! WAL (with its genesis checkpoint) *before* the manifest names it;
//! drops rewrite the manifest *before* deleting the WAL. Recovery
//! therefore only ever sees (a) a manifest whose every entry has a
//! replayable WAL, plus (b) possibly orphaned `shard-*.wal` files from
//! a crashed create/drop — which [`Catalog::open`] deletes. Each
//! shard's checkpoint dump carries its document name (see
//! [`mbxq_storage::checkpoint::checkpoint_dump_identity`]), so a WAL
//! file shuffled between shard slots fails recovery instead of loading
//! the wrong document.

use crate::pool::{PoolStats, QueryPool};
use crate::recover::recover_shard;
use crate::shard::Shard;
use crate::wal::{Wal, WalRecord};
use crate::{CheckpointInfo, Result, StoreConfig, TxnError};
use mbxq_storage::{NodeId, PageConfig, PagedDoc, TreeView};
use mbxq_xml::{serialize_node, Node};
use mbxq_xpath::EvalStats;
use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Configuration shared by every document of a catalog.
#[derive(Debug, Clone, Copy, Default)]
pub struct CatalogConfig {
    /// Per-shard transactional configuration. `query_threads` sizes the
    /// **one** worker pool all shards share.
    pub store: StoreConfig,
    /// Page layout for shredding and checkpoint loading.
    pub page: PageConfig,
}

/// One document's matches from a cross-document query, in document
/// order within the document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocMatches {
    /// The document name.
    pub doc: String,
    /// Matching nodes in document order.
    pub nodes: Vec<NodeId>,
}

struct DocEntry {
    id: u64,
    name: String,
    shard: Arc<Shard>,
}

struct Inner {
    /// Creation order — the document order of [`Catalog::query_all`].
    docs: Vec<DocEntry>,
    /// Hash routing: name → index into `docs`.
    index: HashMap<String, usize>,
    next_id: u64,
}

impl Inner {
    fn reindex(&mut self) {
        self.index = self
            .docs
            .iter()
            .enumerate()
            .map(|(i, e)| (e.name.clone(), i))
            .collect();
    }
}

/// A named collection of independently-committed documents.
///
/// See the module docs for the architecture; in short: every document
/// is one [`Shard`] (own WAL, own commit pipeline, own lock table, own
/// maintenance), all shards share one lazily-spawned [`QueryPool`], and
/// the catalog routes single-document queries by name and fans
/// cross-document queries out over the pool.
pub struct Catalog {
    /// `None` = in-memory (tests, benchmarks); `Some` = durable under a
    /// manifest directory.
    dir: Option<PathBuf>,
    config: CatalogConfig,
    pool: Arc<QueryPool>,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for Catalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Catalog")
            .field("dir", &self.dir)
            .field("docs", &self.doc_names())
            .finish_non_exhaustive()
    }
}

fn io_err(context: &str, e: impl std::fmt::Display) -> TxnError {
    TxnError::CatalogIo {
        message: format!("{context}: {e}"),
    }
}

impl Catalog {
    /// An in-memory catalog: every shard gets an in-memory WAL, nothing
    /// touches the filesystem. Crash recovery is meaningless here, but
    /// the full routing/fan-out/maintenance surface behaves identically
    /// to the durable form.
    pub fn in_memory(config: CatalogConfig) -> Catalog {
        Catalog {
            dir: None,
            config,
            pool: Arc::new(QueryPool::with_overhead(
                config.store.query_threads,
                config.store.morsel_overhead_ns,
            )),
            inner: Mutex::new(Inner {
                docs: Vec::new(),
                index: HashMap::new(),
                next_id: 0,
            }),
        }
    }

    /// Opens (or creates) a durable catalog under `dir`, recovering
    /// every manifest-listed document from its WAL: each shard WAL
    /// starts with a checkpoint record, so recovery needs no genesis
    /// XML. A leftover `manifest.tmp` (crashed rewrite) is discarded —
    /// the committed manifest is authoritative — and `shard-*.wal`
    /// files the manifest does not name (crashed creates, half-finished
    /// drops, exported documents) are deleted.
    pub fn open(dir: &Path, config: CatalogConfig) -> Result<Catalog> {
        std::fs::create_dir_all(dir).map_err(|e| io_err("create catalog dir", e))?;
        let tmp = dir.join("manifest.tmp");
        if tmp.exists() {
            std::fs::remove_file(&tmp).map_err(|e| io_err("discard manifest.tmp", e))?;
        }
        let manifest = dir.join("manifest");
        let entries = if manifest.exists() {
            let text =
                std::fs::read_to_string(&manifest).map_err(|e| io_err("read manifest", e))?;
            decode_manifest(&text)?
        } else {
            Vec::new()
        };
        let pool = Arc::new(QueryPool::with_overhead(
            config.store.query_threads,
            config.store.morsel_overhead_ns,
        ));
        let mut docs = Vec::with_capacity(entries.len());
        let mut next_id = 0u64;
        for (id, name) in entries {
            let wal_path = shard_wal_path(dir, id);
            let wal = Wal::file(&wal_path)?;
            let raw = wal.raw()?;
            let doc = recover_shard(config.page, &raw, Some(&name))?;
            docs.push(DocEntry {
                id,
                name: name.clone(),
                shard: Arc::new(Shard::open_named(
                    Some(name),
                    doc,
                    wal,
                    config.store,
                    pool.clone(),
                )),
            });
            next_id = next_id.max(id + 1);
        }
        // Orphaned WALs: files from a create that crashed before its
        // manifest commit, or a drop/export that removed the manifest
        // entry first. Either way the manifest says they are not part
        // of the catalog.
        let live: std::collections::HashSet<PathBuf> =
            docs.iter().map(|e| shard_wal_path(dir, e.id)).collect();
        if let Ok(listing) = std::fs::read_dir(dir) {
            for f in listing.flatten() {
                let p = f.path();
                let name = f.file_name();
                let name = name.to_string_lossy();
                if name.starts_with("shard-") && name.ends_with(".wal") && !live.contains(&p) {
                    let _ = std::fs::remove_file(&p);
                }
            }
        }
        let mut inner = Inner {
            docs,
            index: HashMap::new(),
            next_id,
        };
        inner.reindex();
        Ok(Catalog {
            dir: Some(dir.to_path_buf()),
            config,
            pool,
            inner: Mutex::new(inner),
        })
    }

    /// The catalog configuration.
    pub fn config(&self) -> CatalogConfig {
        self.config
    }

    /// The catalog directory (`None` for in-memory catalogs).
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Counters of the one worker pool all shards share.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Plan-cache counters summed over every document's shard — the
    /// catalog-wide view a server reports (see
    /// [`Shard::plan_cache_stats`] for the per-document form).
    pub fn plan_cache_stats(&self) -> crate::PlanCacheStats {
        let inner = self.inner.lock().unwrap();
        let mut total = crate::PlanCacheStats::default();
        for e in &inner.docs {
            let s = e.shard.plan_cache_stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
            total.entries += s.entries;
        }
        total
    }

    /// Number of documents.
    pub fn doc_count(&self) -> usize {
        self.inner.lock().unwrap().docs.len()
    }

    /// Document names in creation order (= [`Catalog::query_all`]'s
    /// document order).
    pub fn doc_names(&self) -> Vec<String> {
        self.inner
            .lock()
            .unwrap()
            .docs
            .iter()
            .map(|e| e.name.clone())
            .collect()
    }

    /// Whether a document by that name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.inner.lock().unwrap().index.contains_key(name)
    }

    /// The shard backing `name` (hash-routed). The returned handle
    /// stays valid — transactions, queries, maintenance — even if the
    /// document is dropped concurrently; it just stops being reachable
    /// through the catalog.
    pub fn shard(&self, name: &str) -> Option<Arc<Shard>> {
        let inner = self.inner.lock().unwrap();
        inner.index.get(name).map(|&i| inner.docs[i].shard.clone())
    }

    fn shard_or_err(&self, name: &str) -> Result<Arc<Shard>> {
        self.shard(name).ok_or_else(|| TxnError::UnknownDocument {
            name: name.to_string(),
        })
    }

    /// Creates a document from XML text under `name`. Durable catalogs
    /// write the shard WAL — whose first record is a checkpoint of the
    /// shredded document, stamped with the document name — *before*
    /// committing the manifest rewrite, so a crash between the two
    /// leaves only an orphan WAL that the next [`Catalog::open`]
    /// removes.
    ///
    /// Plain document names must be non-empty and may contain neither
    /// `#` (reserved for the `base#k` partition-part namespace of
    /// [`Catalog::create_partitioned`] — a hand-created `base#7` would
    /// silently join [`Catalog::partition_parts`]`("base")` and collide
    /// with a later partitioning of `base`) nor ASCII control
    /// characters. Parts are created through
    /// [`Catalog::create_partitioned`] / [`Catalog::create_part`],
    /// which validate the *base* name under the same rules.
    pub fn create_doc(&self, name: &str, xml: &str) -> Result<Arc<Shard>> {
        validate_plain_name(name)?;
        self.create_doc_unchecked(name, xml)
    }

    /// [`Catalog::create_doc`] minus the plain-name validation — the
    /// internal entry point partition-part creation uses for its
    /// `base#k` names (whose *base* has already been validated).
    fn create_doc_unchecked(&self, name: &str, xml: &str) -> Result<Arc<Shard>> {
        let doc = PagedDoc::parse_str(xml, self.config.page)?;
        let mut inner = self.inner.lock().unwrap();
        if inner.index.contains_key(name) {
            return Err(TxnError::DuplicateDocument {
                name: name.to_string(),
            });
        }
        let id = inner.next_id;
        inner.next_id += 1;
        let mut wal = match &self.dir {
            Some(dir) => {
                let path = shard_wal_path(dir, id);
                let _ = std::fs::remove_file(&path);
                Wal::file(&path)?
            }
            None => Wal::in_memory(),
        };
        // Genesis checkpoint: every shard WAL is self-contained, so
        // recovery never needs the original XML text.
        wal.reset_with(&WalRecord::Checkpoint {
            alloc_end: doc.node_alloc_end(),
            tuples: doc.used_count(),
            dump: doc.checkpoint_dump_named(Some(name)),
        })?;
        let shard = Arc::new(Shard::open_named(
            Some(name.to_string()),
            doc,
            wal,
            self.config.store,
            self.pool.clone(),
        ));
        inner.docs.push(DocEntry {
            id,
            name: name.to_string(),
            shard: shard.clone(),
        });
        let idx = inner.docs.len() - 1;
        inner.index.insert(name.to_string(), idx);
        if let Some(dir) = &self.dir {
            if let Err(e) = write_manifest(dir, &inner.docs) {
                // The manifest rewrite failed: undo the in-memory
                // registration so memory matches the durable state (the
                // WAL file is an orphan the next open will clean up).
                inner.docs.pop();
                inner.index.remove(name);
                return Err(e);
            }
        }
        Ok(shard)
    }

    /// Splits one large document across N shards by **contiguous root
    /// child ranges**: parts are created as documents `base#0 …
    /// base#N-1`, each a copy of the root element holding its slice of
    /// children, in order. `parts` is clamped to the child count (and
    /// to ≥ 1). Returns the part names in order; since part order =
    /// creation order, [`Catalog::query_all`] merges their results in
    /// original document order for any within-subtree query.
    pub fn create_partitioned(&self, base: &str, xml: &str, parts: usize) -> Result<Vec<String>> {
        validate_plain_name(base)?;
        let parsed = mbxq_xml::Document::parse(xml).map_err(|e| io_err("partition parse", e))?;
        let children = parsed.root.children();
        let parts = parts.clamp(1, children.len().max(1));
        let names: Vec<String> = (0..parts).map(|k| format!("{base}#{k}")).collect();
        for name in &names {
            if self.contains(name) {
                return Err(TxnError::DuplicateDocument { name: name.clone() });
            }
        }
        let mut created = Vec::with_capacity(parts);
        let mut start = 0usize;
        for (k, name) in names.iter().enumerate() {
            let len = (children.len() - start) / (parts - k);
            let part = match &parsed.root {
                Node::Element {
                    name: root_name,
                    attributes,
                    ..
                } => Node::Element {
                    name: root_name.clone(),
                    attributes: attributes.clone(),
                    children: children[start..start + len].to_vec(),
                },
                other => other.clone(),
            };
            let mut part_xml = String::new();
            serialize_node(&part, &mut part_xml);
            match self.create_doc_unchecked(name, &part_xml) {
                Ok(_) => created.push(name.clone()),
                Err(e) => {
                    // Roll the half-created partition back so a failed
                    // create leaves no stray parts behind.
                    for done in &created {
                        let _ = self.drop_doc(done);
                    }
                    return Err(e);
                }
            }
            start += len;
        }
        Ok(names)
    }

    /// (Re)creates one partition part `base#k` from XML text — how a
    /// dropped middle part of a [`Catalog::create_partitioned`] group
    /// is restored. Validates `base` under the plain-name rules (the
    /// composed `base#k` name itself is exempt from the `#` ban, being
    /// exactly the namespace `#` is reserved for).
    pub fn create_part(&self, base: &str, k: usize, xml: &str) -> Result<Arc<Shard>> {
        validate_plain_name(base)?;
        self.create_doc_unchecked(&format!("{base}#{k}"), xml)
    }

    /// The part documents of [`Catalog::create_partitioned`]`(base, …)`
    /// in **part order** — sorted by the numeric `#k` suffix, *not* by
    /// creation order, so a drop + [`Catalog::create_part`] recreate of
    /// a middle part leaves the enumeration (and therefore the
    /// cross-document merge order of a partition-group query) correct.
    /// Empty if `base` was never partitioned.
    pub fn partition_parts(&self, base: &str) -> Vec<String> {
        let prefix = format!("{base}#");
        let mut parts: Vec<(usize, String)> = self
            .doc_names()
            .into_iter()
            .filter_map(|n| {
                let k: usize = n.strip_prefix(&prefix)?.parse().ok()?;
                Some((k, n))
            })
            .collect();
        parts.sort_by_key(|&(k, _)| k);
        parts.into_iter().map(|(_, n)| n).collect()
    }

    /// Drops a document. The manifest rewrite (without the entry) is
    /// the commit point; the WAL file is deleted afterwards —
    /// best-effort, since once un-manifested it is an orphan the next
    /// open removes anyway. Outstanding [`Catalog::shard`] handles stay
    /// usable (MVCC-style) until their owners drop them.
    pub fn drop_doc(&self, name: &str) -> Result<()> {
        let mut inner = self.inner.lock().unwrap();
        let Some(&idx) = inner.index.get(name) else {
            return Err(TxnError::UnknownDocument {
                name: name.to_string(),
            });
        };
        let entry = inner.docs.remove(idx);
        inner.reindex();
        if let Some(dir) = &self.dir {
            if let Err(e) = write_manifest(dir, &inner.docs) {
                inner.docs.insert(idx, entry);
                inner.reindex();
                return Err(e);
            }
            let _ = std::fs::remove_file(shard_wal_path(dir, entry.id));
        }
        Ok(())
    }

    /// Removes a document from the catalog and hands its parts —
    /// document plus WAL — to the caller (the catalog-level
    /// [`Shard::into_parts`]). Fails with [`TxnError::DocumentInUse`]
    /// while other [`Catalog::shard`] handles to it are alive. On
    /// durable catalogs the manifest
    /// rewrite commits the removal; the WAL *file* is left in place for
    /// the returned [`Wal`] handle and becomes an orphan the next
    /// [`Catalog::open`] cleans up.
    pub fn export(&self, name: &str) -> Result<(PagedDoc, Wal)> {
        let mut inner = self.inner.lock().unwrap();
        let Some(&idx) = inner.index.get(name) else {
            return Err(TxnError::UnknownDocument {
                name: name.to_string(),
            });
        };
        let entry = inner.docs.remove(idx);
        inner.reindex();
        let reinsert = |inner: &mut Inner, entry: DocEntry| {
            inner.docs.insert(idx, entry);
            inner.reindex();
        };
        let shard = match Arc::try_unwrap(entry.shard) {
            Ok(shard) => shard,
            Err(arc) => {
                reinsert(
                    &mut inner,
                    DocEntry {
                        id: entry.id,
                        name: entry.name,
                        shard: arc,
                    },
                );
                return Err(TxnError::DocumentInUse {
                    name: name.to_string(),
                });
            }
        };
        if let Some(dir) = &self.dir {
            if let Err(e) = write_manifest(dir, &inner.docs) {
                reinsert(
                    &mut inner,
                    DocEntry {
                        id: entry.id,
                        name: entry.name,
                        shard: Arc::new(shard),
                    },
                );
                return Err(e);
            }
        }
        Ok(shard.into_parts())
    }

    /// Routes a query to one document's shard (see [`Shard::query`]).
    pub fn query(&self, name: &str, text: &str) -> Result<mbxq_xpath::Value> {
        self.shard_or_err(name)?.query(text)
    }

    /// [`Catalog::query`] coerced to a node set.
    pub fn query_nodes(&self, name: &str, text: &str) -> Result<Vec<NodeId>> {
        self.shard_or_err(name)?.query_nodes(text)
    }

    /// [`Catalog::query`] with full evaluation options.
    pub fn query_opts(
        &self,
        name: &str,
        text: &str,
        opts: &mbxq_xpath::EvalOptions<'_>,
    ) -> Result<mbxq_xpath::Value> {
        self.shard_or_err(name)?.query_opts(text, opts)
    }

    /// [`Catalog::query_nodes`] with full evaluation options.
    pub fn query_nodes_opts(
        &self,
        name: &str,
        text: &str,
        opts: &mbxq_xpath::EvalOptions<'_>,
    ) -> Result<Vec<NodeId>> {
        self.shard_or_err(name)?.query_nodes_opts(text, opts)
    }

    /// One document's feedback-annotated physical plan for `text` (see
    /// [`Shard::explain_query`]).
    pub fn explain_query(&self, name: &str, text: &str) -> Result<String> {
        self.shard_or_err(name)?.explain_query(text)
    }

    /// One document's recorded multi-predicate feedback for `text` (see
    /// [`Shard::plan_feedback`]).
    pub fn plan_feedback(
        &self,
        name: &str,
        text: &str,
    ) -> Result<Option<Vec<mbxq_xpath::StepFeedback>>> {
        Ok(self.shard_or_err(name)?.plan_feedback(text))
    }

    /// Evaluates `text` against **every** document, in parallel over the
    /// shared worker pool when it exists, and merges the results in
    /// (document, document-order): documents appear in creation order,
    /// nodes within each in document order — bit-identical to querying
    /// each shard sequentially, whatever the execution interleaving.
    pub fn query_all(&self, text: &str) -> Result<Vec<DocMatches>> {
        self.query_all_opts(text, &mbxq_xpath::EvalOptions::default())
    }

    /// [`Catalog::query_all`] with merged evaluation counters: each
    /// document evaluates with a private [`EvalStats`] (the cells are
    /// not `Sync`) and all of them are folded into `stats` afterwards,
    /// along with the fan-out's own morsel/steal counts.
    pub fn query_all_stats(&self, text: &str, stats: &EvalStats) -> Result<Vec<DocMatches>> {
        self.query_all_opts(text, &mbxq_xpath::EvalOptions::new().stats(stats))
    }

    /// [`Catalog::query_all`] with one [`mbxq_xpath::EvalOptions`]
    /// threaded through the whole fan-out: its `$name` bindings and
    /// axis/value/par strategy choices apply to **every** per-document
    /// evaluation, and its stats sink (if set) receives the folded
    /// per-document counters plus the fan-out's own morsel/steal
    /// counts. This is how a parameterized query runs across a
    /// partition group — the binding set is serialized once and shared.
    pub fn query_all_opts(
        &self,
        text: &str,
        opts: &mbxq_xpath::EvalOptions<'_>,
    ) -> Result<Vec<DocMatches>> {
        let docs: Vec<(String, Arc<Shard>)> = {
            let inner = self.inner.lock().unwrap();
            inner
                .docs
                .iter()
                .map(|e| (e.name.clone(), e.shard.clone()))
                .collect()
        };
        self.query_docs(&docs, text, opts)
    }

    /// Like [`Catalog::query_all`], restricted to `names` (in the given
    /// order) — e.g. one partition group. Unknown names fail.
    pub fn query_collection(&self, names: &[String], text: &str) -> Result<Vec<DocMatches>> {
        self.query_collection_opts(names, text, &mbxq_xpath::EvalOptions::default())
    }

    /// [`Catalog::query_collection`] with full evaluation options — see
    /// [`Catalog::query_all_opts`] for how they thread the fan-out.
    pub fn query_collection_opts(
        &self,
        names: &[String],
        text: &str,
        opts: &mbxq_xpath::EvalOptions<'_>,
    ) -> Result<Vec<DocMatches>> {
        let docs = names
            .iter()
            .map(|n| Ok((n.clone(), self.shard_or_err(n)?)))
            .collect::<Result<Vec<_>>>()?;
        self.query_docs(&docs, text, opts)
    }

    /// The fan-out core: one shard-local evaluation per document — on
    /// the shared pool when it exists and more than one document is
    /// involved, inline otherwise — merged in slot (= document) order.
    /// A nested pool use inside a shard's own evaluation falls back to
    /// inline execution (the pool's run lock is already taken), so the
    /// fan-out can never deadlock on its own workers. The caller's
    /// options are shared across workers as their `Sync` subset
    /// ([`mbxq_xpath::SharedOptions`]); each worker attaches a private
    /// [`EvalStats`] that is folded into the caller's sink afterwards.
    fn query_docs(
        &self,
        docs: &[(String, Arc<Shard>)],
        text: &str,
        opts: &mbxq_xpath::EvalOptions<'_>,
    ) -> Result<Vec<DocMatches>> {
        let shared = opts.shared();
        type Slot = Option<(Result<Vec<NodeId>>, EvalStats)>;
        let mut slots: Vec<Mutex<Slot>> = (0..docs.len()).map(|_| Mutex::new(None)).collect();
        let eval_one = |i: usize| {
            let per = EvalStats::default();
            let res = docs[i].1.query_nodes_opts(text, &shared.with_stats(&per));
            *slots[i].lock().unwrap() = Some((res, per));
        };
        let mut fan_steals = 0u64;
        match self.pool.get() {
            Some(pool) if docs.len() > 1 => {
                fan_steals = pool.run(docs.len(), &eval_one);
            }
            _ => {
                for i in 0..docs.len() {
                    eval_one(i);
                }
            }
        }
        let stats = opts.stats_ref();
        if let Some(s) = stats {
            s.morsels.set(s.morsels.get() + docs.len() as u64);
            s.steals.set(s.steals.get() + fan_steals);
        }
        let mut out = Vec::with_capacity(docs.len());
        for ((name, _), slot) in docs.iter().zip(slots.iter_mut()) {
            let (res, per) = slot
                .get_mut()
                .unwrap()
                .take()
                .expect("every document slot filled");
            if let Some(s) = stats {
                s.absorb(&per);
            }
            out.push(DocMatches {
                doc: name.clone(),
                nodes: res?,
            });
        }
        Ok(out)
    }

    /// Checkpoints one document (see [`Shard::checkpoint`]): truncates
    /// *its* WAL only — maintenance never crosses shard boundaries.
    pub fn checkpoint(&self, name: &str) -> Result<CheckpointInfo> {
        self.shard_or_err(name)?.checkpoint()
    }

    /// Vacuums one document (see [`Shard::vacuum`]).
    pub fn vacuum(&self, name: &str) -> Result<mbxq_storage::VacuumReport> {
        self.shard_or_err(name)?.vacuum()
    }

    /// One document's live-tuple occupancy (see [`Shard::occupancy`]).
    pub fn occupancy(&self, name: &str) -> Result<f64> {
        Ok(self.shard_or_err(name)?.occupancy())
    }
}

fn shard_wal_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("shard-{id}.wal"))
}

/// The rules for *plain* (non-part) document names: non-empty, no `#`
/// (the partition-part namespace — a plain `base#7` would pollute
/// `partition_parts("base")` and collide with a later
/// `create_partitioned("base", …)`), no ASCII control characters (the
/// manifest is line-oriented only for readability, but names with
/// embedded newlines make every log line and error message ambiguous).
fn validate_plain_name(name: &str) -> Result<()> {
    if name.is_empty() {
        return Err(io_err("create document", "empty document name"));
    }
    if name.contains('#') {
        return Err(io_err(
            "create document",
            format!("name {name:?} contains '#', reserved for partition parts"),
        ));
    }
    if name.chars().any(|c| c.is_ascii_control()) {
        return Err(io_err(
            "create document",
            format!("name {name:?} contains ASCII control characters"),
        ));
    }
    Ok(())
}

/// Serializes and atomically installs the manifest: write `manifest.tmp`,
/// fsync its data, rename over `manifest`, fsync the directory — the
/// rename is the commit point, exactly like a WAL truncation.
fn write_manifest(dir: &Path, docs: &[DocEntry]) -> Result<()> {
    let mut out = String::from("mbxq-catalog v1\n");
    for e in docs {
        out.push_str(&format!("{} {}:{}\n", e.id, e.name.len(), e.name));
    }
    let tmp = dir.join("manifest.tmp");
    let path = dir.join("manifest");
    let mut f = std::fs::File::create(&tmp).map_err(|e| io_err("write manifest.tmp", e))?;
    f.write_all(out.as_bytes())
        .map_err(|e| io_err("write manifest.tmp", e))?;
    f.sync_all().map_err(|e| io_err("sync manifest.tmp", e))?;
    drop(f);
    std::fs::rename(&tmp, &path).map_err(|e| io_err("install manifest", e))?;
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Parses the manifest into `(id, name)` entries in creation order.
fn decode_manifest(text: &str) -> Result<Vec<(u64, String)>> {
    let corrupt = |message: &str| TxnError::CatalogIo {
        message: format!("manifest corrupt: {message}"),
    };
    let rest = text
        .strip_prefix("mbxq-catalog v1\n")
        .ok_or_else(|| corrupt("bad header"))?;
    let mut entries = Vec::new();
    let mut rest = rest;
    let mut seen = std::collections::HashSet::new();
    while !rest.is_empty() {
        let sp = rest.find(' ').ok_or_else(|| corrupt("entry lacks id"))?;
        let id: u64 = rest[..sp].parse().map_err(|_| corrupt("bad id"))?;
        rest = &rest[sp + 1..];
        let colon = rest
            .find(':')
            .ok_or_else(|| corrupt("entry lacks name length"))?;
        let len: usize = rest[..colon]
            .parse()
            .map_err(|_| corrupt("bad name length"))?;
        rest = &rest[colon + 1..];
        if rest.len() < len + 1 {
            return Err(corrupt("truncated name"));
        }
        let name = rest[..len].to_string();
        if rest.as_bytes()[len] != b'\n' {
            return Err(corrupt("missing entry terminator"));
        }
        if !seen.insert(id) {
            return Err(corrupt("duplicate shard id"));
        }
        rest = &rest[len + 1..];
        entries.push((id, name));
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CatalogConfig {
        CatalogConfig {
            store: StoreConfig {
                lock_timeout: std::time::Duration::from_millis(200),
                validate_on_commit: true,
                ..StoreConfig::default()
            },
            page: PageConfig::new(8, 75).unwrap(),
        }
    }

    #[test]
    fn manifest_round_trips_awkward_names() {
        let names = ["plain", "with space", "uni-cødé", "hash#0", "nl\nname"];
        let docs: Vec<DocEntry> = names
            .iter()
            .enumerate()
            .map(|(i, n)| DocEntry {
                id: i as u64 * 3,
                name: n.to_string(),
                shard: Arc::new(Shard::open(
                    PagedDoc::parse_str("<r/>", PageConfig::default()).unwrap(),
                    Wal::in_memory(),
                    StoreConfig::default(),
                )),
            })
            .collect();
        let mut out = String::from("mbxq-catalog v1\n");
        for e in &docs {
            out.push_str(&format!("{} {}:{}\n", e.id, e.name.len(), e.name));
        }
        let back = decode_manifest(&out).unwrap();
        assert_eq!(
            back,
            names
                .iter()
                .enumerate()
                .map(|(i, n)| (i as u64 * 3, n.to_string()))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn corrupt_manifests_are_rejected() {
        assert!(decode_manifest("not a manifest").is_err());
        assert!(decode_manifest("mbxq-catalog v1\n0 5:ab\n").is_err()); // short name
        assert!(decode_manifest("mbxq-catalog v1\n0 2:ab").is_err()); // no terminator
        assert!(decode_manifest("mbxq-catalog v1\nx 2:ab\n").is_err()); // bad id
        assert!(decode_manifest("mbxq-catalog v1\n0 2:ab\n0 1:c\n").is_err()); // dup id
        assert!(decode_manifest("mbxq-catalog v1\n0 2:ab\n1 1:c\n").is_ok());
    }

    #[test]
    fn routing_create_drop_and_duplicate_names() {
        let cat = Catalog::in_memory(cfg());
        cat.create_doc("a", "<a><x/></a>").unwrap();
        cat.create_doc("b", "<b><x/><x/></b>").unwrap();
        assert!(matches!(
            cat.create_doc("a", "<a/>"),
            Err(TxnError::DuplicateDocument { .. })
        ));
        assert_eq!(cat.doc_names(), ["a", "b"]);
        assert_eq!(cat.query_nodes("a", "//x").unwrap().len(), 1);
        assert_eq!(cat.query_nodes("b", "//x").unwrap().len(), 2);
        assert!(matches!(
            cat.query_nodes("c", "//x"),
            Err(TxnError::UnknownDocument { .. })
        ));
        cat.drop_doc("a").unwrap();
        assert!(!cat.contains("a"));
        assert!(matches!(
            cat.drop_doc("a"),
            Err(TxnError::UnknownDocument { .. })
        ));
    }

    #[test]
    fn query_all_merges_in_doc_then_document_order() {
        let cat = Catalog::in_memory(cfg());
        cat.create_doc("one", "<r><x i=\"1\"/><x i=\"2\"/></r>")
            .unwrap();
        cat.create_doc("two", "<r><x i=\"3\"/></r>").unwrap();
        let all = cat.query_all("//x").unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].doc, "one");
        assert_eq!(all[0].nodes.len(), 2);
        assert_eq!(all[1].doc, "two");
        assert_eq!(all[1].nodes.len(), 1);
        // Per-document results are bit-identical to direct shard queries.
        assert_eq!(all[0].nodes, cat.query_nodes("one", "//x").unwrap());
        assert_eq!(all[1].nodes, cat.query_nodes("two", "//x").unwrap());
    }

    #[test]
    fn partitioning_preserves_child_ranges_in_order() {
        let cat = Catalog::in_memory(cfg());
        let xml =
            "<site a=\"v\"><c i=\"0\"/><c i=\"1\"/><c i=\"2\"/><c i=\"3\"/><c i=\"4\"/></site>";
        let parts = cat.create_partitioned("big", xml, 2).unwrap();
        assert_eq!(parts, ["big#0", "big#1"]);
        assert_eq!(cat.partition_parts("big"), parts);
        // All five children present, split 2/3, original order preserved.
        let all = cat.query_collection(&parts, "//c").unwrap();
        let counts: Vec<usize> = all.iter().map(|m| m.nodes.len()).collect();
        assert_eq!(counts.iter().sum::<usize>(), 5);
        assert_eq!(counts, [2, 3]);
        // Root attributes survive on every part.
        for p in &parts {
            assert_eq!(cat.query_nodes(p, "/site[@a=\"v\"]").unwrap().len(), 1);
        }
        // More parts than children clamps.
        let tiny = cat.create_partitioned("tiny", "<r><only/></r>", 4).unwrap();
        assert_eq!(tiny.len(), 1);
    }

    #[test]
    fn plain_names_reject_hash_and_control_characters() {
        let cat = Catalog::in_memory(cfg());
        for bad in [
            "",
            "base#7",
            "#",
            "a#b#c",
            "nl\nname",
            "tab\tname",
            "\u{1}x",
        ] {
            assert!(
                matches!(cat.create_doc(bad, "<r/>"), Err(TxnError::CatalogIo { .. })),
                "{bad:?} must be rejected"
            );
            assert!(!cat.contains(bad));
        }
        // Pollution direction: if "base#7" had been accepted it would
        // enumerate as a part of a never-partitioned "base".
        assert!(cat.partition_parts("base").is_empty());
        // Collision direction: partitioning "base" now succeeds — no
        // hand-created squatter occupies the base#k namespace.
        let parts = cat
            .create_partitioned("base", "<r><c/><c/></r>", 2)
            .unwrap();
        assert_eq!(parts, ["base#0", "base#1"]);
        // The base of a partitioning is held to the same rules.
        assert!(matches!(
            cat.create_partitioned("ba#se", "<r><c/></r>", 1),
            Err(TxnError::CatalogIo { .. })
        ));
        // Non-ASCII (and spaces) stay legal.
        cat.create_doc("uni-cødé name", "<r/>").unwrap();
    }

    #[test]
    fn partition_parts_sorts_by_suffix_not_creation_order() {
        let cat = Catalog::in_memory(cfg());
        let xml = "<r><c i=\"0\"/><c i=\"1\"/><c i=\"2\"/></r>";
        let parts = cat.create_partitioned("base", xml, 3).unwrap();
        assert_eq!(parts, ["base#0", "base#1", "base#2"]);
        // Drop the middle part and recreate it *last*: enumeration must
        // still come back in part order, not creation order.
        cat.drop_doc("base#1").unwrap();
        assert_eq!(cat.partition_parts("base"), ["base#0", "base#2"]);
        cat.create_part("base", 1, "<r><c i=\"1\"/></r>").unwrap();
        assert_eq!(
            cat.partition_parts("base"),
            ["base#0", "base#1", "base#2"],
            "recreated middle part must sort back into place"
        );
        // create_part validates the *base* name.
        assert!(matches!(
            cat.create_part("ba#d", 0, "<r/>"),
            Err(TxnError::CatalogIo { .. })
        ));
        // Non-numeric suffixes never looked like parts and still don't.
        assert!(cat.partition_parts("bas").is_empty());
    }

    #[test]
    fn query_opts_thread_bindings_through_the_fanout() {
        let cat = Catalog::in_memory(cfg());
        let xml = "<r><c i=\"1\"/><c i=\"2\"/><c i=\"3\"/><c i=\"4\"/></r>";
        let parts = cat.create_partitioned("p", xml, 2).unwrap();
        let mut b = mbxq_xpath::Bindings::new();
        b.set("want", mbxq_xpath::Value::Str("3".into()));
        let stats = EvalStats::default();
        let opts = mbxq_xpath::EvalOptions::new().bindings(&b).stats(&stats);
        let hits = cat
            .query_collection_opts(&parts, "//c[@i = $want]", &opts)
            .unwrap();
        let total: usize = hits.iter().map(|m| m.nodes.len()).sum();
        assert_eq!(total, 1);
        assert_eq!(hits[0].nodes.len() + hits[1].nodes.len(), 1);
        assert!(stats.morsels.get() >= 2, "fan-out morsels counted");
        // query_all_opts sees the same bindings across every document.
        let all = cat.query_all_opts("//c[@i = $want]", &opts).unwrap();
        assert_eq!(all.iter().map(|m| m.nodes.len()).sum::<usize>(), 1);
    }

    #[test]
    fn export_hands_out_parts_and_respects_live_handles() {
        let cat = Catalog::in_memory(cfg());
        cat.create_doc("d", "<d><x/></d>").unwrap();
        let held = cat.shard("d").unwrap();
        assert!(matches!(
            cat.export("d"),
            Err(TxnError::DocumentInUse { .. })
        ));
        assert!(cat.contains("d"), "failed export must not drop the doc");
        drop(held);
        let (doc, wal) = cat.export("d").unwrap();
        assert_eq!(doc.used_count(), 2);
        assert!(!wal.read_all().unwrap().is_empty(), "genesis checkpoint");
        assert!(!cat.contains("d"));
    }

    #[test]
    fn shards_share_one_query_pool() {
        let mut c = cfg();
        c.store.query_threads = 2;
        let cat = Catalog::in_memory(c);
        let a = cat.create_doc("a", "<r><x/></r>").unwrap();
        let b = cat.create_doc("b", "<r><y/></r>").unwrap();
        assert!(!cat.pool_stats().spawned, "pool is lazy");
        let pa = a.query_pool().unwrap() as *const _;
        let pb = b.query_pool().unwrap() as *const _;
        assert_eq!(pa, pb, "one pool for every shard");
        assert!(cat.pool_stats().spawned);
        assert_eq!(cat.pool_stats().threads, 2);
    }
}
