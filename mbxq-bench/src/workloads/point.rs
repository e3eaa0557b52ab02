//! `point_server` — one TCP client in a closed loop, four read classes
//! in fixed rotation. Engine work is smallest here, so frame codec,
//! session, plan cache, snapshot pin and per-query fixed costs carry
//! the latency; scan kernels and the commit path are bypassed.

use super::{
    explain_read, measure, plan_cache_layer, wire_layer, Ctx, Outcome, Setups, EXPLAIN_EVERY,
};
use crate::corpus::{
    catalog_config, check_update, point_texts, query_path, PointTexts, UpdateOp, DOC, PATH_SMALL,
    POINT_PARAM, WRITE_CLASSES,
};
use crate::harness::{Class, Rec, Windowed};
use crate::report::peak_rss_mb;
use crate::trace::Tracer;
use crate::wire::TracedClient;
use mbxq_server::{Client, Server, ServerConfig};
use mbxq_storage::NodeId;
use mbxq_txn::{Catalog, Shard};
use mbxq_xmark::rng::StdRng;
use mbxq_xpath::{Bindings, Value};
use std::sync::Arc;

/// Rotations per window (one op of each of the four classes per
/// rotation): ≈0.5 s at this commit.
pub const ROUNDS: usize = 150;

pub const CLASSES: [&str; 4] = [
    "point_param",
    "point_literal_hot",
    "point_literal_miss",
    "path_small",
];

/// What a read must return.
pub enum Expect {
    /// Exactly this node.
    Node(NodeId),
    /// This many nodes.
    Count(usize),
}

impl Expect {
    pub fn check(&self, nodes: &[NodeId]) -> Result<(), String> {
        match self {
            Expect::Node(n) if nodes == [*n] => Ok(()),
            Expect::Node(n) => Err(format!("expected exactly {n:?}, got {nodes:?}")),
            Expect::Count(c) if nodes.len() == *c => Ok(()),
            Expect::Count(c) => Err(format!("expected {c} nodes, got {}", nodes.len())),
        }
    }
}

/// A server with its catalog and one connected client per connection.
pub struct Served {
    pub cat: Arc<Catalog>,
    pub server: Server,
    pub clients: Vec<Client>,
}

impl Served {
    /// The whole set-up path a user pays: shred into a catalog, start
    /// the server with one worker per connection, connect.
    pub fn start(xml: &str, connections: usize) -> Result<Served, String> {
        let cat = Arc::new(Catalog::in_memory(catalog_config()));
        cat.create_doc(DOC, xml)
            .map_err(|e| format!("create_doc: {e}"))?;
        let server = Server::start(
            cat.clone(),
            ServerConfig {
                workers: connections,
                ..ServerConfig::default()
            },
        )
        .map_err(|e| format!("server start: {e}"))?;
        let clients = (0..connections)
            .map(|_| Client::connect(server.addr()).map_err(|e| format!("connect: {e}")))
            .collect::<Result<_, _>>()?;
        Ok(Served {
            cat,
            server,
            clients,
        })
    }

    pub fn stop(self) {
        for c in self.clients {
            let _ = c.goodbye();
        }
        self.server.shutdown();
    }
}

/// The client of the current phase: the real one untraced, the
/// span-recording one traced.
pub enum Conn {
    Real(Client),
    /// The traced client and the number of reads it has sent.
    Traced(TracedClient, u64),
    Closed,
}

impl Conn {
    /// One read as one timed attempt; in the traced phase the in-process
    /// explanation runs after the clock stopped.
    #[allow(clippy::too_many_arguments)]
    pub fn read(
        &mut self,
        rec: &mut Rec,
        tr: &mut Tracer,
        shard: &Shard,
        class: usize,
        name: &'static str,
        text: &str,
        bindings: Option<&Bindings>,
        expect: &Expect,
        server_compiles: bool,
    ) {
        match self {
            Conn::Real(c) => rec.op(class, || {
                let nodes = c
                    .query_nodes(DOC, text, bindings)
                    .map_err(|e| e.to_string())?;
                expect.check(&nodes)
            }),
            Conn::Traced(c, reads) => {
                let mut rt = 0;
                rec.op(class, || {
                    let (nodes, id) =
                        tr.request(name, |tr| c.query_nodes(tr, DOC, text, bindings))?;
                    rt = id;
                    expect.check(&nodes)
                });
                *reads += 1;
                if rt != 0 && *reads % EXPLAIN_EVERY == 0 {
                    explain_read(tr, rt, shard, text, bindings, server_compiles);
                }
            }
            Conn::Closed => rec.record(class, 0, Err("connection closed")),
        }
    }

    /// One XUpdate script as one timed attempt of class `class`.
    pub fn write(&mut self, rec: &mut Rec, tr: &mut Tracer, class: usize, op: &UpdateOp) {
        let done = |s: mbxq_server::UpdateSummary| check_update(op.kind, &s);
        match self {
            Conn::Real(c) => rec.op(class, || {
                c.xupdate(DOC, &op.script)
                    .map_err(|e| e.to_string())
                    .and_then(done)
            }),
            Conn::Traced(c, _) => rec.op(class, || {
                tr.request(WRITE_CLASSES[op.kind], |tr| c.xupdate(tr, DOC, &op.script))
                    .and_then(done)
            }),
            Conn::Closed => rec.record(class, 0, Err("connection closed")),
        }
    }

    /// Swaps the real client for a traced one on the same server (the
    /// server has exactly one worker per connection, so the real
    /// session must end first).
    pub fn go_traced(&mut self, server: &Server) -> Result<(), String> {
        if let Conn::Real(c) = std::mem::replace(self, Conn::Closed) {
            let _ = c.goodbye();
        }
        *self = Conn::Traced(TracedClient::connect(server.addr())?, 0);
        Ok(())
    }

    pub fn close(&mut self) -> (u64, u64) {
        match std::mem::replace(self, Conn::Closed) {
            Conn::Real(c) => {
                let _ = c.goodbye();
                (0, 0)
            }
            Conn::Traced(c, _) => {
                let counts = (c.frames, c.bytes);
                c.goodbye();
                counts
            }
            Conn::Closed => (0, 0),
        }
    }
}

struct Point {
    shard: Arc<Shard>,
    conn: Conn,
    rng: StdRng,
    /// Node id of `item<n>`, in document order.
    items: Vec<NodeId>,
    texts: PointTexts,
    paths: Vec<(&'static str, Expect)>,
    next_hot: usize,
    next_miss: usize,
    next_path: usize,
}

impl Windowed for Point {
    fn window(&mut self, _w: usize, rec: &mut Rec, tr: &mut Tracer) {
        for _ in 0..ROUNDS {
            let n = self.rng.gen_range(0..self.items.len());
            let mut b = Bindings::new();
            b.set("id", Value::Str(format!("item{n}")));
            let want = Expect::Node(self.items[n]);
            self.conn.read(
                rec,
                tr,
                &self.shard,
                0,
                CLASSES[0],
                POINT_PARAM,
                Some(&b),
                &want,
                false,
            );

            let (n, text) = &self.texts.hot[self.next_hot % self.texts.hot.len()];
            self.next_hot += 1;
            let want = Expect::Node(self.items[*n]);
            self.conn.read(
                rec,
                tr,
                &self.shard,
                1,
                CLASSES[1],
                text,
                None,
                &want,
                false,
            );

            let (n, text) = &self.texts.miss[self.next_miss % self.texts.miss.len()];
            self.next_miss += 1;
            let want = Expect::Node(self.items[*n]);
            self.conn
                .read(rec, tr, &self.shard, 2, CLASSES[2], text, None, &want, true);

            let (text, want) = &self.paths[self.next_path % self.paths.len()];
            self.next_path += 1;
            self.conn
                .read(rec, tr, &self.shard, 3, CLASSES[3], text, None, want, false);
        }
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let xml = &ctx.corpus.xml;
    let mut setups = Setups::default();
    let mut served = setups.time(|| Served::start(xml, 1))?;
    let shard = served.cat.shard(DOC).ok_or("document vanished")?;
    let stored = shard.snapshot().stats().table_bytes as f64 / xml.len() as f64;
    // Expected answers, computed in-process: items are numbered in
    // document order, so the n-th `//item` is `item<n>`.
    let items = shard.query_nodes("//item").map_err(|e| e.to_string())?;
    if items.len() != ctx.corpus.cfg.items() {
        return Err(format!(
            "{} items, generator promised {}",
            items.len(),
            ctx.corpus.cfg.items()
        ));
    }
    let paths = PATH_SMALL
        .iter()
        .map(|label| {
            let text = query_path(label);
            let n = shard.query_nodes(text).map_err(|e| e.to_string())?.len();
            Ok((text, Expect::Count(n)))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x0070_01e7);
    let texts = point_texts(&ctx.corpus.cfg, &mut rng);
    let cache_before = served.cat.plan_cache_stats();
    let stamp_before = shard.version_stamp();

    let mut work = Point {
        shard: shard.clone(),
        conn: Conn::Real(served.clients.pop().expect("one client")),
        rng,
        items,
        texts,
        paths,
        next_hot: 0,
        next_miss: 0,
        next_path: 0,
    };
    let classes: Vec<Class> = CLASSES.iter().map(|c| Class::read(*c)).collect();
    let server = &served.server;
    // The traced phase's in-process replays go through the same plan
    // cache, so its counters are read where the untraced phase ends.
    let mut cache_after = None;
    let m = measure(&mut work, &classes, ctx, |w| {
        cache_after = Some(served.cat.plan_cache_stats());
        w.conn.go_traced(server)
    })?;
    let (frames, bytes) = work.conn.close();
    let cache_after = cache_after.unwrap_or_else(|| served.cat.plan_cache_stats());
    let mut layer = plan_cache_layer(&cache_before, &cache_after);
    layer.push(("txn.occupancy_end", shard.occupancy()));
    layer.extend(wire_layer(&m, frames, bytes));
    let checks = vec![(
        "no version published by a read-only workload".to_string(),
        shard.version_stamp() == stamp_before,
    )];
    let peak_rss_mb = peak_rss_mb();
    drop((work, shard));
    served.stop();
    Ok(Outcome {
        setup_runs: setups.rest(|_| Served::start(xml, 1), Served::stop)?,
        peak_rss_mb,
        stored_bytes_per_xml_byte: stored,
        untraced: m.untraced,
        attempted: m.attempted,
        failed: m.failed,
        checks,
        traced: m.traced,
        layer,
    })
}
