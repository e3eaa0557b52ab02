//! `mixed_server` — two TCP connections on one in-memory-WAL document,
//! driven alternately by one closed loop: a reader connection cycling
//! scan classes (full cursor drain at 1024-row pages) and a hot point
//! lookup, and a writer connection committing the `update_durable` op
//! stream. Each rotation is six reads, then one commit of each write
//! kind, so a window is fixed work on both sides.
//!
//! The two connections deliberately do not run at the same time. A
//! free-running writer beside the reader keeps both cores of this host
//! saturated; measured that way, identical runs differed by up to 20 %
//! in throughput (615–746 ops/s for one seed) — no bound under 25 %
//! would have held. Alternating keeps one thread runnable at a time,
//! like `point_server`, and still makes every read see a document the
//! writer just changed: fresh versions, privatized pages, new layout
//! epochs for cached plans.

use super::point::{Conn, Expect, Served};
use super::{measure, plan_cache_layer, wire_layer, Ctx, Outcome, Setups};
use crate::corpus::{
    point_texts, query_path, UpdateStream, DOC, LIVE_MARKERS, SCANS, WRITE_CLASSES,
};
use crate::harness::{Class, Rec, Windowed};
use crate::report::peak_rss_mb;
use crate::trace::Tracer;
use mbxq_server::Server;
use mbxq_txn::Shard;
use mbxq_xmark::rng::StdRng;
use std::sync::Arc;

/// Rotations per window (six reads and four commits each): ≈0.9 s at
/// this commit.
pub const ROUNDS: usize = 30;

const HOT_CLASS: usize = SCANS.len();
const WRITE_BASE: usize = SCANS.len() + 1;

struct Mixed {
    shard: Arc<Shard>,
    reader: Conn,
    writer: Conn,
    stream: UpdateStream,
    scans: Vec<(&'static str, &'static str, Expect)>,
    hot: Vec<(String, Expect)>,
    next_hot: usize,
}

impl Mixed {
    fn go_traced(&mut self, server: &Server) -> Result<(), String> {
        self.reader.go_traced(server)?;
        self.writer.go_traced(server)
    }
}

impl Windowed for Mixed {
    fn window(&mut self, _w: usize, rec: &mut Rec, tr: &mut Tracer) {
        for _ in 0..ROUNDS {
            for (class, (name, text, want)) in self.scans.iter().enumerate() {
                self.reader
                    .read(rec, tr, &self.shard, class, name, text, None, want, false);
            }
            let (text, want) = &self.hot[self.next_hot % self.hot.len()];
            self.next_hot += 1;
            self.reader.read(
                rec,
                tr,
                &self.shard,
                HOT_CLASS,
                "point_literal_hot",
                text,
                None,
                want,
                false,
            );
            for _ in 0..WRITE_CLASSES.len() {
                let op = self.stream.next_op();
                self.writer.write(rec, tr, WRITE_BASE + op.kind, &op);
            }
        }
    }

    /// A checkpoint before every window folds the index deltas the
    /// commits accumulated, so every window starts from the same state
    /// however many commits the run has seen.
    fn between(&mut self, _w: usize) {
        if let Err(e) = self.shard.checkpoint() {
            eprintln!("checkpoint: {e}");
        }
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let xml = &ctx.corpus.xml;
    let mut setups = Setups::default();
    let mut served = setups.time(|| Served::start(xml, 2))?;
    let shard = served.cat.shard(DOC).ok_or("document vanished")?;
    let stored = shard.snapshot().stats().table_bytes as f64 / xml.len() as f64;
    let count = |text: &str| {
        shard
            .query_nodes(text)
            .map(|v| v.len())
            .map_err(|e| e.to_string())
    };
    let scans = SCANS
        .iter()
        .map(|label| {
            let text = query_path(label);
            Ok((*label, text, Expect::Count(count(text)?)))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let items = shard.query_nodes("//item").map_err(|e| e.to_string())?;
    let hot = point_texts(
        &ctx.corpus.cfg,
        &mut StdRng::seed_from_u64(ctx.seed ^ 0x0070_01e7),
    )
    .hot
    .into_iter()
    .map(|(n, text)| (text, Expect::Node(items[n])))
    .collect();

    let mut classes: Vec<Class> = SCANS.iter().map(|c| Class::read(*c)).collect();
    classes.push(Class::read("point_literal_hot"));
    classes.extend(WRITE_CLASSES.iter().map(|c| Class::write(*c)));

    let mut work = Mixed {
        shard: shard.clone(),
        reader: Conn::Real(served.clients.pop().expect("two clients")),
        writer: Conn::Real(served.clients.pop().expect("two clients")),
        stream: UpdateStream::new(&ctx.corpus.cfg, ctx.seed),
        scans,
        hot,
        next_hot: 0,
    };
    // Untimed priming appends still count as attempts.
    let mut aside = Rec::new(classes.clone(), ctx.response);
    for _ in 0..LIVE_MARKERS {
        let op = work.stream.prime();
        work.writer.write(
            &mut aside,
            &mut Tracer::new(false),
            WRITE_BASE + op.kind,
            &op,
        );
    }
    let cache_before = served.cat.plan_cache_stats();
    let mut cache_after = None;
    let server = &served.server;
    let m = measure(&mut work, &classes, ctx, |w| {
        cache_after = Some(served.cat.plan_cache_stats());
        w.go_traced(server)
    })?;
    let (w_frames, w_bytes) = work.writer.close();
    let (r_frames, r_bytes) = work.reader.close();
    let cache_after = cache_after.unwrap_or_else(|| served.cat.plan_cache_stats());

    let markers = count("//mbxqbid")?;
    let group = shard.group_commit_stats();
    let mut layer = plan_cache_layer(&cache_before, &cache_after);
    layer.extend([
        ("txn.occupancy_end", shard.occupancy()),
        (
            "txn.group_records_per_batch",
            group.records as f64 / group.batches.max(1) as f64,
        ),
    ]);
    layer.extend(wire_layer(&m, w_frames + r_frames, w_bytes + r_bytes));
    let checks = vec![(
        format!(
            "marker count = acknowledged appends - deletes ({})",
            work.stream.live_markers()
        ),
        markers == work.stream.live_markers(),
    )];
    let peak_rss_mb = peak_rss_mb();
    drop((work, shard));
    served.stop();
    Ok(Outcome {
        setup_runs: setups.rest(|_| Served::start(xml, 2), Served::stop)?,
        peak_rss_mb,
        stored_bytes_per_xml_byte: stored,
        untraced: m.untraced,
        attempted: m.attempted + aside.attempted,
        failed: m.failed + aside.failed,
        checks,
        traced: m.traced,
        layer,
    })
}
