//! `update_durable` — one in-process writer on a file-backed catalog.
//! Each op is one XUpdate script through the full write path (parse →
//! begin → execute → commit, one `sync_data` per commit), cycling the
//! paper's update kinds, with a read-your-write point query every 8
//! commits and a checkpoint between every 4th window. The run ends
//! with the durability check: checkpoint, exactly [`RECOVER_COMMITS`]
//! more commits, drop, reopen from the log, compare.

use super::{measure, Ctx, Outcome, Setups};
use crate::corpus::{
    catalog_config, check_update, fnv1a, marker_literal, UpdateOp, UpdateStream, DOC, LIVE_MARKERS,
    WRITE_CLASSES,
};
use crate::harness::{Class, Rec, Windowed};
use crate::report::peak_rss_mb;
use crate::stats;
use crate::trace::{median_us, Tracer};
use mbxq_storage::{invariants, serialize::to_xml, PagedDoc};
use mbxq_txn::{Catalog, Shard};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Commits per window (a multiple of the 4 kinds and of the
/// read-your-write period): ≈0.8 s at this commit.
pub const WINDOW_COMMITS: usize = 192;
/// One read-your-write point query per this many commits.
pub const RYW_EVERY: usize = 8;
/// Commits logged after the final checkpoint and replayed by recovery.
pub const RECOVER_COMMITS: usize = 200;

const RYW_CLASS: usize = WRITE_CLASSES.len();

/// One XUpdate script through the in-process write path — what the
/// server's XUpdate handler does, with a span around each layer call.
pub fn write_op(shard: &Shard, op: &UpdateOp, rec: &mut Rec, tr: &mut Tracer) {
    rec.op(op.kind, || {
        tr.request(WRITE_CLASSES[op.kind], |tr| {
            let mods = tr
                .span("xupdate", "xupdate.parse", |_| {
                    mbxq_xupdate::parse_modifications(&op.script)
                })
                .map_err(|e| e.to_string())?;
            let mut txn = tr.span("txn", "txn.begin", |_| shard.begin());
            let summary = tr
                .span("txn", "txn.execute_xupdate", |_| txn.execute_xupdate(&mods))
                .map_err(|e| e.to_string())?;
            tr.span("txn", "txn.commit", |_| txn.commit())
                .map_err(|e| e.to_string())?;
            check_update(op.kind, &summary.into())
        })
    });
}

struct Update {
    shard: Arc<Shard>,
    stream: UpdateStream,
    /// WAL length after the last checkpoint, and commits since.
    wal_mark: usize,
    commits_since: u64,
    wal_bytes_per_commit: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    checkpoint_bytes: Vec<f64>,
    /// Column pages privatized per commit (traced phase only).
    pages_touched: Vec<f64>,
}

impl Update {
    fn checkpoint(&mut self) -> Result<(), String> {
        let t = Instant::now();
        let info = self
            .shard
            .checkpoint()
            .map_err(|e| format!("checkpoint: {e}"))?;
        self.checkpoint_ms.push(t.elapsed().as_secs_f64() * 1e3);
        self.checkpoint_bytes.push(info.wal_bytes_after as f64);
        if self.commits_since > 0 {
            self.wal_bytes_per_commit
                .push((info.wal_bytes_before - self.wal_mark) as f64 / self.commits_since as f64);
        }
        self.wal_mark = info.wal_bytes_after;
        self.commits_since = 0;
        Ok(())
    }

    fn commit(&mut self, rec: &mut Rec, tr: &mut Tracer) {
        let op = self.stream.next_op();
        let before = tr.is_on().then(|| self.shard.snapshot());
        write_op(&self.shard, &op, rec, tr);
        self.commits_since += 1;
        if let Some(before) = before {
            let (shared, total) = self.shard.snapshot().shared_pages_with(&before);
            self.pages_touched.push((total - shared) as f64);
        }
    }
}

impl Windowed for Update {
    fn window(&mut self, _w: usize, rec: &mut Rec, tr: &mut Tracer) {
        for i in 0..WINDOW_COMMITS {
            self.commit(rec, tr);
            if (i + 1) % RYW_EVERY == 0 {
                let text = marker_literal(self.stream.newest_mark());
                rec.op(RYW_CLASS, || {
                    let nodes = tr.request("ryw_point", |tr| {
                        tr.span("txn", "txn.query_nodes", |_| self.shard.query_nodes(&text))
                    });
                    match nodes {
                        Ok(n) if n.len() == 1 => Ok(()),
                        Ok(n) => Err(format!("{text}: {} nodes, expected 1", n.len())),
                        Err(e) => Err(e.to_string()),
                    }
                });
            }
        }
    }

    fn between(&mut self, _w: usize) {
        if let Err(e) = self.checkpoint() {
            eprintln!("{e}");
        }
    }
}

fn open(dir: &Path) -> Result<Catalog, String> {
    Catalog::open(dir, catalog_config()).map_err(|e| format!("open {}: {e}", dir.display()))
}

fn digest(doc: &PagedDoc) -> Result<u64, String> {
    to_xml(doc)
        .map(|x| fnv1a(x.as_bytes()))
        .map_err(|e| format!("serialize: {e}"))
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let xml = &ctx.corpus.xml;
    let build = |rep: usize| -> Result<(Catalog, PathBuf), String> {
        let dir = ctx
            .tmp_dir
            .join(format!("wal-{}-{rep}", std::process::id()));
        let cat = open(&dir)?;
        cat.create_doc(DOC, xml)
            .map_err(|e| format!("create_doc: {e}"))?;
        Ok((cat, dir))
    };
    let mut setups = Setups::default();
    let (cat, dir) = setups.time(|| build(0))?;
    let result = run_in(ctx, cat, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let mut outcome = result?;
    outcome.setup_runs = setups.rest(build, |(cat, dir)| {
        drop(cat);
        let _ = std::fs::remove_dir_all(dir);
    })?;
    Ok(outcome)
}

fn run_in(ctx: &Ctx, cat: Catalog, dir: &Path) -> Result<Outcome, String> {
    let shard = cat.shard(DOC).ok_or("document vanished")?;
    let stored = shard.snapshot().stats().table_bytes as f64 / ctx.corpus.xml.len() as f64;
    let mut classes: Vec<Class> = WRITE_CLASSES.iter().map(|c| Class::write(*c)).collect();
    classes.push(Class::read("ryw_point"));
    let mut work = Update {
        wal_mark: shard.wal_raw().map_err(|e| e.to_string())?.len(),
        shard: shard.clone(),
        stream: UpdateStream::new(&ctx.corpus.cfg, ctx.seed),
        commits_since: 0,
        wal_bytes_per_commit: Vec::new(),
        checkpoint_ms: Vec::new(),
        checkpoint_bytes: Vec::new(),
        pages_touched: Vec::new(),
    };
    // Untimed ops (priming, the recovery tail) still count as attempts.
    let mut aside = Rec::new(classes.clone(), ctx.response);
    let mut off = Tracer::new(false);
    for _ in 0..LIVE_MARKERS {
        let op = work.stream.prime();
        write_op(&shard, &op, &mut aside, &mut off);
        work.commits_since += 1;
    }

    let m = measure(&mut work, &classes, ctx, |_| Ok(()))?;
    let group = shard.group_commit_stats();

    // Durability: a log of exactly RECOVER_COMMITS commits on top of a
    // checkpoint must reproduce the document byte for byte.
    work.checkpoint()?;
    for _ in 0..RECOVER_COMMITS {
        work.commit(&mut aside, &mut off);
    }
    let markers = shard
        .query_nodes("//mbxqbid")
        .map_err(|e| e.to_string())?
        .len();
    let before = digest(&shard.snapshot())?;
    let occupancy_end = shard.occupancy();
    let Update {
        wal_bytes_per_commit,
        checkpoint_ms,
        checkpoint_bytes,
        pages_touched,
        ..
    } = work;
    drop(shard);
    drop(cat);
    let t = Instant::now();
    let cat = open(dir)?;
    let recover_s = t.elapsed().as_secs_f64();
    let shard = cat.shard(DOC).ok_or("document lost in recovery")?;
    let snap = shard.snapshot();
    let invariants = invariants::check_paged(&snap);
    if let Err(e) = &invariants {
        eprintln!("invariants: {e}");
    }
    let checks = vec![
        (
            format!("live markers = acknowledged appends - deletes ({LIVE_MARKERS})"),
            markers == LIVE_MARKERS,
        ),
        (
            "recovered serialization digest equals the pre-close one".to_string(),
            digest(&snap)? == before,
        ),
        (
            "recovered document passes check_paged".to_string(),
            invariants.is_ok(),
        ),
    ];

    let mut layer = vec![
        ("txn.recover_s", recover_s),
        ("txn.occupancy_end", occupancy_end),
        ("txn.checkpoint_ms", stats::median(&checkpoint_ms)),
        ("txn.checkpoint_bytes", stats::median(&checkpoint_bytes)),
        ("wal.bytes_per_commit", stats::median(&wal_bytes_per_commit)),
        (
            "wal.syncs_per_commit",
            group.batches as f64 / group.records.max(1) as f64,
        ),
        (
            "txn.group_records_per_batch",
            group.records as f64 / group.batches.max(1) as f64,
        ),
    ];
    if let Some((_, spans)) = &m.traced {
        {
            // Recovery of a log holding only a checkpoint is the base
            // cost; the rest of `recover_s` is replay.
            shard.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
            drop((snap, shard, cat));
            let t = Instant::now();
            drop(open(dir)?);
            let base_s = t.elapsed().as_secs_f64();
            layer.extend([
                (
                    "txn.recover_replay_us_per_record",
                    (recover_s - base_s).max(0.0) * 1e6 / RECOVER_COMMITS as f64,
                ),
                (
                    "txn.exec_xupdate_us",
                    median_us(spans, "txn.execute_xupdate"),
                ),
                ("txn.commit_us", median_us(spans, "txn.commit")),
                ("txn.commit_pages_touched", stats::median(&pages_touched)),
            ]);
        }
    }
    Ok(Outcome {
        // Filled in by `run` once the remaining set-ups are timed.
        setup_runs: Vec::new(),
        peak_rss_mb: peak_rss_mb(),
        stored_bytes_per_xml_byte: stored,
        untraced: m.untraced,
        traced: m.traced,
        attempted: m.attempted + aside.attempted,
        failed: m.failed + aside.failed,
        checks,
        layer,
    })
}
