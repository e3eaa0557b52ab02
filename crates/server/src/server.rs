//! The TCP server: accept loop, worker pool, per-connection sessions.

use crate::proto::{
    self, is_unknown_opcode, ErrorCode, QuerySpec, QueryTarget, Request, Response, ServerStats,
};
use crate::{NetError, Result};
use mbxq_storage::{NodeId, PagedDoc};
use mbxq_txn::{Catalog, Shard, TxnError};
use mbxq_xpath::{Bindings, EvalOptions, EvalStats, Value};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server-wide cumulative executor counters: every session's queries
/// evaluate with a private [`EvalStats`] (its cells are not `Sync`)
/// whose deltas are folded in here afterwards. Reported by the `Stats`
/// opcode alongside the catalog's plan-cache and pool counters.
#[derive(Default)]
struct EvalCounters {
    par_steps: AtomicU64,
    morsels: AtomicU64,
    pred_par_steps: AtomicU64,
    simd_steps: AtomicU64,
    multi_probe_steps: AtomicU64,
    intersect_rows: AtomicU64,
}

impl EvalCounters {
    fn fold(&self, s: &EvalStats) {
        self.par_steps
            .fetch_add(s.par_steps.get(), Ordering::Relaxed);
        self.morsels.fetch_add(s.morsels.get(), Ordering::Relaxed);
        self.pred_par_steps
            .fetch_add(s.pred_par_steps.get(), Ordering::Relaxed);
        self.simd_steps
            .fetch_add(s.simd_steps.get(), Ordering::Relaxed);
        self.multi_probe_steps
            .fetch_add(s.multi_probe_steps.get(), Ordering::Relaxed);
        self.intersect_rows
            .fetch_add(s.intersect_rows.get(), Ordering::Relaxed);
    }
}

/// Server tuning knobs. The defaults suit tests and benchmarks: an
/// ephemeral loopback port, a small worker pool, frames capped at
/// 64 MiB, and a 10-second cap on receiving one frame's bytes.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` = ephemeral loopback port).
    pub addr: String,
    /// Connection-serving worker threads. Each connection occupies one
    /// worker for its whole session, so this is also the concurrent-
    /// session cap; further connections queue until a worker frees up.
    pub workers: usize,
    /// Maximum frame payload length accepted (and sent).
    pub max_frame: usize,
    /// How long a started frame (or handshake) may take to arrive in
    /// full — torn frames error out instead of parking a worker.
    pub frame_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 8,
            max_frame: proto::MAX_FRAME_DEFAULT,
            frame_timeout: Duration::from_secs(10),
        }
    }
}

/// Rows per cursor page when the query didn't pick a size.
const DEFAULT_PAGE_ROWS: u32 = 1024;
/// Hard cap on rows per cursor page (12 bytes/row → ≤ ~768 KiB frames).
const MAX_PAGE_ROWS: u32 = 65536;
/// Open cursors one session may hold. A cursor owns its fully
/// materialised rows until the last `Fetch` or a `CloseCursor`, so
/// without a cap a client that only sends `Query` grows server memory
/// until it disconnects.
const MAX_OPEN_CURSORS: usize = 64;
/// How often a parked read re-checks the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// A running server: an accept thread feeding a fixed worker pool, all
/// sessions sharing one [`Catalog`]. Dropping the server (or calling
/// [`Server::shutdown`]) stops accepting, interrupts idle sessions and
/// joins every thread.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds, spawns the worker pool and the accept thread, and returns
    /// immediately; [`Server::addr`] has the actual (possibly
    /// ephemeral) address clients connect to.
    pub fn start(catalog: Arc<Catalog>, config: ServerConfig) -> Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(EvalCounters::default());
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let rx = rx.clone();
                let catalog = catalog.clone();
                let config = config.clone();
                let shutdown = shutdown.clone();
                let counters = counters.clone();
                std::thread::spawn(move || {
                    worker_loop(&rx, &catalog, &config, &shutdown, &counters)
                })
            })
            .collect();
        let accept_shutdown = shutdown.clone();
        let accept_handle = std::thread::spawn(move || {
            // The channel sender lives here: when this loop ends it
            // drops, the workers' `recv` fails, and they exit once
            // their current session finishes.
            for conn in listener.incoming() {
                if accept_shutdown.load(Ordering::SeqCst) {
                    break;
                }
                match conn {
                    Ok(stream) => {
                        if tx.send(stream).is_err() {
                            break;
                        }
                    }
                    // A single failed accept (peer vanished mid-
                    // handshake, transient resource pressure) must not
                    // kill the listener.
                    Err(_) => continue,
                }
            }
        });
        Ok(Server {
            addr,
            shutdown,
            accept_handle: Some(accept_handle),
            workers,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the server: no new connections, idle sessions interrupted
    /// at their next poll tick, all threads joined.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn worker_loop(
    rx: &Mutex<mpsc::Receiver<TcpStream>>,
    catalog: &Arc<Catalog>,
    config: &ServerConfig,
    shutdown: &AtomicBool,
    counters: &Arc<EvalCounters>,
) {
    loop {
        // The receiver lock (a temporary in the scrutinee) is released
        // at the end of this statement — never held while serving.
        let stream = match rx.lock().unwrap().recv() {
            Ok(s) => s,
            Err(_) => return, // accept loop gone
        };
        if shutdown.load(Ordering::SeqCst) {
            continue; // drain the queue without serving
        }
        // A panicking session (a bug, not a protocol error) must not
        // take the worker down with it — the stream drops, the one
        // session dies, the worker serves the next connection.
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _ = serve_connection(stream, catalog, config, shutdown, counters);
        }));
    }
}

// ------------------------------------------------------------- connection IO

/// Reads exactly `buf.len()` bytes. Returns `Ok(false)` on a clean EOF
/// before the first byte (peer closed between frames). While parked it
/// polls `shutdown`; once the first byte has arrived the rest must
/// follow within `frame_timeout` (`armed` forces the deadline from the
/// start — used for frame payloads, which continue an already-started
/// frame).
fn read_exact_polled(
    stream: &mut TcpStream,
    buf: &mut [u8],
    shutdown: &AtomicBool,
    frame_timeout: Duration,
    armed: bool,
) -> Result<bool> {
    let mut off = 0;
    let mut deadline = armed.then(|| Instant::now() + frame_timeout);
    while off < buf.len() {
        match stream.read(&mut buf[off..]) {
            Ok(0) => {
                if off == 0 {
                    return Ok(false);
                }
                return Err(NetError::Protocol(format!(
                    "peer closed mid-frame ({off} of {} bytes)",
                    buf.len()
                )));
            }
            Ok(n) => {
                off += n;
                deadline.get_or_insert_with(|| Instant::now() + frame_timeout);
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if shutdown.load(Ordering::SeqCst) {
                    return Err(NetError::Protocol("server shutting down".to_string()));
                }
                if let Some(d) = deadline {
                    if Instant::now() >= d {
                        return Err(NetError::Protocol(format!(
                            "frame timed out ({off} of {} bytes)",
                            buf.len()
                        )));
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(NetError::Io(e)),
        }
    }
    Ok(true)
}

/// Reads one frame. `Ok(None)` = clean close between frames.
fn read_frame(
    stream: &mut TcpStream,
    shutdown: &AtomicBool,
    config: &ServerConfig,
) -> Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    if !read_exact_polled(stream, &mut len, shutdown, config.frame_timeout, false)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(len) as usize;
    if len == 0 || len > config.max_frame {
        return Err(NetError::Remote {
            code: ErrorCode::FrameTooLarge,
            message: format!("frame of {len} bytes (limit {})", config.max_frame),
        });
    }
    let mut payload = vec![0u8; len];
    if !read_exact_polled(stream, &mut payload, shutdown, config.frame_timeout, true)? {
        return Err(NetError::Protocol("peer closed mid-frame".to_string()));
    }
    Ok(Some(payload))
}

// ----------------------------------------------------------------- sessions

/// One open cursor: fully resolved rows, paged out on `Fetch`.
struct Cursor {
    rows: Vec<(u32, u64)>,
    pos: usize,
    page: usize,
}

/// One pinned document: the shard (for its plan cache) plus the
/// snapshot taken at pin time. Holding the `Arc<Shard>` keeps the
/// document serving even if it is dropped from the catalog while
/// pinned.
struct Pin {
    name: String,
    shard: Arc<Shard>,
    snapshot: Arc<PagedDoc>,
}

#[derive(Default)]
struct Session {
    /// Pin order = the document order of pinned `All` queries.
    pins: Vec<Pin>,
    cursors: HashMap<u32, Cursor>,
    next_cursor: u32,
}

impl Session {
    fn pinned(&self, name: &str) -> Option<&Pin> {
        self.pins.iter().find(|p| p.name == name)
    }
}

/// The per-request outcome: a response — encoded once, the bytes the
/// frame-size check measures are the bytes written — plus whether the
/// session must end (protocol damage or an orderly goodbye).
struct Reply {
    payload: Vec<u8>,
    hangup: bool,
}

impl Reply {
    fn ok(response: Response) -> Reply {
        Reply {
            payload: response.encode(),
            hangup: false,
        }
    }

    fn err(code: ErrorCode, message: impl Into<String>) -> Reply {
        Reply::ok(Response::Error {
            code,
            message: message.into(),
        })
    }

    /// The same reply, after which the session ends.
    fn hangup(self) -> Reply {
        Reply {
            hangup: true,
            ..self
        }
    }
}

fn txn_error_reply(e: &TxnError) -> Reply {
    let code = match e {
        TxnError::UnknownDocument { .. } => ErrorCode::UnknownDocument,
        TxnError::DuplicateDocument { .. } => ErrorCode::DuplicateDocument,
        TxnError::Path(_) => ErrorCode::Query,
        _ => ErrorCode::Txn,
    };
    Reply::err(code, e.to_string())
}

fn serve_connection(
    mut stream: TcpStream,
    catalog: &Arc<Catalog>,
    config: &ServerConfig,
    shutdown: &AtomicBool,
    counters: &Arc<EvalCounters>,
) -> Result<()> {
    stream.set_nodelay(true).ok();
    // Short read timeouts turn blocking reads into shutdown-poll ticks;
    // a write timeout keeps a stalled peer from parking a worker on a
    // full socket buffer.
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    stream.set_write_timeout(Some(config.frame_timeout))?;
    if !handshake(&mut stream, shutdown, config)? {
        return Ok(());
    }
    let mut session = Session::default();
    loop {
        let payload = match read_frame(&mut stream, shutdown, config) {
            Ok(Some(p)) => p,
            Ok(None) => return Ok(()), // clean disconnect
            Err(NetError::Remote { code, message }) => {
                // Oversized length prefix: report, then hang up — the
                // stream position is unrecoverable.
                let _ = proto::write_frame(&mut stream, &Reply::err(code, message).payload);
                return Ok(());
            }
            Err(_) => return Ok(()), // torn frame / timeout / shutdown
        };
        let reply = match Request::decode(&payload) {
            Ok(req) => handle_request(req, catalog, &mut session, config, counters),
            Err(e) => {
                let code = if is_unknown_opcode(&payload) {
                    ErrorCode::UnknownOpcode
                } else {
                    ErrorCode::Protocol
                };
                // Undecodable frame: the framing itself survived, but
                // trusting any follow-up bytes from a client that
                // mis-encodes requests is how desyncs start — hang up.
                Reply::err(code, e.to_string()).hangup()
            }
        };
        proto::write_frame(&mut stream, &reply.payload)?;
        if reply.hangup {
            return Ok(());
        }
    }
}

/// Runs the version negotiation; `Ok(false)` = no usable version (or a
/// bad magic), connection to be closed.
fn handshake(stream: &mut TcpStream, shutdown: &AtomicBool, config: &ServerConfig) -> Result<bool> {
    let mut head = [0u8; 5];
    if !read_exact_polled(stream, &mut head, shutdown, config.frame_timeout, false)? {
        return Ok(false);
    }
    if head[..4] != proto::MAGIC {
        return Ok(false);
    }
    let count = head[4] as usize;
    let mut versions = vec![0u8; count * 4];
    if !read_exact_polled(stream, &mut versions, shutdown, config.frame_timeout, true)? {
        return Ok(false);
    }
    let supported = versions
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
        .any(|v| v == proto::VERSION);
    let chosen: u32 = if supported { proto::VERSION } else { 0 };
    stream.write_all(&proto::MAGIC)?;
    stream.write_all(&chosen.to_le_bytes())?;
    stream.flush()?;
    Ok(supported)
}

fn handle_request(
    req: Request,
    catalog: &Arc<Catalog>,
    session: &mut Session,
    config: &ServerConfig,
    counters: &Arc<EvalCounters>,
) -> Reply {
    match req {
        Request::Ping => Reply::ok(Response::Pong),
        Request::Stats => {
            let plan = catalog.plan_cache_stats();
            let pool = catalog.pool_stats();
            Reply::ok(Response::Stats {
                stats: ServerStats {
                    plan_hits: plan.hits,
                    plan_misses: plan.misses,
                    plan_evictions: plan.evictions,
                    plan_entries: plan.entries as u64,
                    pool_threads: pool.threads as u32,
                    pool_spawned: pool.spawned,
                    pool_steals: pool.steals,
                    morsel_overhead_ns: pool.morsel_overhead_ns,
                    par_steps: counters.par_steps.load(Ordering::Relaxed),
                    morsels: counters.morsels.load(Ordering::Relaxed),
                    pred_par_steps: counters.pred_par_steps.load(Ordering::Relaxed),
                    simd_steps: counters.simd_steps.load(Ordering::Relaxed),
                    multi_probe_steps: counters.multi_probe_steps.load(Ordering::Relaxed),
                    intersect_rows: counters.intersect_rows.load(Ordering::Relaxed),
                    simd_compiled: mbxq_xpath::simd_compiled(),
                },
            })
        }
        Request::CreateDoc { name, xml } => match catalog.create_doc(&name, &xml) {
            Ok(_) => Reply::ok(Response::Ok),
            Err(e) => txn_error_reply(&e),
        },
        Request::DropDoc { name } => match catalog.drop_doc(&name) {
            Ok(()) => Reply::ok(Response::Ok),
            Err(e) => txn_error_reply(&e),
        },
        Request::ListDocs => Reply::ok(Response::Docs {
            names: catalog.doc_names(),
        }),
        Request::Query(spec) => handle_query(&spec, catalog, session, config, counters),
        Request::XUpdate { doc, script } => handle_xupdate(&doc, &script, catalog),
        Request::Fetch { cursor } => {
            let Some(cur) = session.cursors.get_mut(&cursor) else {
                return Reply::err(ErrorCode::UnknownCursor, format!("no cursor {cursor}"));
            };
            let end = (cur.pos + cur.page).min(cur.rows.len());
            let rows = cur.rows[cur.pos..end].to_vec();
            cur.pos = end;
            let done = cur.pos >= cur.rows.len();
            if done {
                session.cursors.remove(&cursor);
            }
            Reply::ok(Response::Page { done, rows })
        }
        Request::CloseCursor { cursor } => {
            session.cursors.remove(&cursor);
            Reply::ok(Response::Ok)
        }
        Request::Pin { names } => {
            let names = if names.is_empty() {
                catalog.doc_names()
            } else {
                names
            };
            let mut pins = Vec::with_capacity(names.len());
            for name in names {
                let Some(shard) = catalog.shard(&name) else {
                    return Reply::err(ErrorCode::UnknownDocument, format!("no document {name}"));
                };
                let snapshot = shard.snapshot();
                pins.push(Pin {
                    name,
                    shard,
                    snapshot,
                });
            }
            let count = pins.len() as u32;
            session.pins = pins;
            Reply::ok(Response::Pinned { count })
        }
        Request::Unpin => {
            session.pins.clear();
            Reply::ok(Response::Ok)
        }
        Request::Goodbye => Reply::ok(Response::Ok).hangup(),
    }
}

fn handle_xupdate(doc: &str, script: &str, catalog: &Arc<Catalog>) -> Reply {
    let mods = match mbxq_xupdate::parse_modifications(script) {
        Ok(m) => m,
        Err(e) => return Reply::err(ErrorCode::Query, format!("xupdate parse: {e}")),
    };
    let Some(shard) = catalog.shard(doc) else {
        return Reply::err(ErrorCode::UnknownDocument, format!("no document {doc}"));
    };
    let mut txn = shard.begin();
    let summary = match txn.execute_xupdate(&mods) {
        Ok(s) => s,
        Err(e) => {
            txn.abort();
            return txn_error_reply(&e);
        }
    };
    match txn.commit() {
        Ok(_) => Reply::ok(Response::Summary {
            summary: summary.into(),
        }),
        Err(e) => txn_error_reply(&e),
    }
}

fn handle_query(
    spec: &QuerySpec,
    catalog: &Arc<Catalog>,
    session: &mut Session,
    config: &ServerConfig,
    counters: &Arc<EvalCounters>,
) -> Reply {
    // Queries count into a request-private stats set (the cells are not
    // `Sync`), folded into the server-wide counters afterwards —
    // including on error paths, where partial work still ran.
    let stats = EvalStats::default();
    let reply = handle_query_stats(spec, catalog, session, &stats);
    counters.fold(&stats);
    reply.limit_frame(config)
}

fn handle_query_stats(
    spec: &QuerySpec,
    catalog: &Arc<Catalog>,
    session: &mut Session,
    stats: &EvalStats,
) -> Reply {
    let mut bindings = Bindings::new();
    for (name, value) in &spec.bindings {
        bindings.set(name.clone(), value.clone());
    }
    let opts = EvalOptions::new().bindings(&bindings).stats(stats);
    let page = if spec.page_size == 0 {
        DEFAULT_PAGE_ROWS
    } else {
        spec.page_size.min(MAX_PAGE_ROWS)
    } as usize;

    match &spec.target {
        QueryTarget::Doc(name) => {
            // Pinned sessions serve the pinned snapshot (repeatable
            // read); otherwise the newest committed one.
            let (shard, snapshot) = match session.pinned(name) {
                Some(p) => (p.shard.clone(), p.snapshot.clone()),
                None => match catalog.shard(name) {
                    Some(s) => {
                        let snap = s.snapshot();
                        (s, snap)
                    }
                    None => {
                        return Reply::err(
                            ErrorCode::UnknownDocument,
                            format!("no document {name}"),
                        );
                    }
                },
            };
            let value = match shard.query_on(&snapshot, &spec.text, &opts) {
                Ok(v) => v,
                Err(e) => return txn_error_reply(&e),
            };
            match value {
                Value::Nodes(pres) => {
                    let mut rows = Vec::with_capacity(pres.len());
                    for pre in pres {
                        match snapshot.pre_to_node(pre) {
                            Ok(NodeId(id)) => rows.push((0u32, id)),
                            Err(e) => return Reply::err(ErrorCode::Txn, e.to_string()),
                        }
                    }
                    open_cursor(session, vec![name.clone()], rows, page)
                }
                Value::Attrs(pairs) => {
                    // Owner pre ranks → stable node ids before they
                    // leave the snapshot's frame of reference.
                    let mut mapped = Vec::with_capacity(pairs.len());
                    for (owner, qn) in pairs {
                        match snapshot.pre_to_node(owner) {
                            Ok(NodeId(id)) => mapped.push((id, qn)),
                            Err(e) => return Reply::err(ErrorCode::Txn, e.to_string()),
                        }
                    }
                    Reply::ok(Response::Scalar {
                        value: Value::Attrs(mapped),
                    })
                }
                scalar => Reply::ok(Response::Scalar { value: scalar }),
            }
        }
        QueryTarget::All | QueryTarget::Collection(_) => {
            let explicit: Option<&[String]> = match &spec.target {
                QueryTarget::Collection(names) => Some(names),
                _ => None,
            };
            let matches = if session.pins.is_empty() {
                // No pins: the catalog's parallel fan-out, fresh
                // snapshots, opts threaded through every document.
                match explicit {
                    Some(names) => catalog.query_collection_opts(names, &spec.text, &opts),
                    None => catalog.query_all_opts(&spec.text, &opts),
                }
            } else {
                // Pinned: evaluate each pinned snapshot sequentially —
                // repeatable reads trump fan-out parallelism.
                let chosen: Vec<&Pin> = match explicit {
                    Some(names) => {
                        let mut picked = Vec::with_capacity(names.len());
                        for n in names {
                            match session.pinned(n) {
                                Some(p) => picked.push(p),
                                None => {
                                    return Reply::err(
                                        ErrorCode::UnknownDocument,
                                        format!("document {n} is not pinned in this session"),
                                    );
                                }
                            }
                        }
                        picked
                    }
                    None => session.pins.iter().collect(),
                };
                chosen
                    .iter()
                    .map(|p| {
                        Ok(mbxq_txn::DocMatches {
                            doc: p.name.clone(),
                            nodes: p.shard.query_nodes_on(&p.snapshot, &spec.text, &opts)?,
                        })
                    })
                    .collect()
            };
            let matches = match matches {
                Ok(m) => m,
                Err(e) => return txn_error_reply(&e),
            };
            let docs: Vec<String> = matches.iter().map(|m| m.doc.clone()).collect();
            let mut rows = Vec::new();
            for (i, m) in matches.iter().enumerate() {
                rows.extend(m.nodes.iter().map(|&NodeId(id)| (i as u32, id)));
            }
            open_cursor(session, docs, rows, page)
        }
    }
}

impl Reply {
    /// Belt-and-braces: no reply frame may exceed the configured frame
    /// cap (pages are already bounded by [`MAX_PAGE_ROWS`], but a
    /// pathological scalar — a giant string value — could).
    fn limit_frame(self, config: &ServerConfig) -> Reply {
        if self.payload.len() > config.max_frame {
            return Reply::err(
                ErrorCode::FrameTooLarge,
                "result exceeds the frame size limit",
            );
        }
        self
    }
}

fn open_cursor(
    session: &mut Session,
    docs: Vec<String>,
    rows: Vec<(u32, u64)>,
    page: usize,
) -> Reply {
    if session.cursors.len() >= MAX_OPEN_CURSORS {
        return Reply::err(
            ErrorCode::TooManyCursors,
            format!("session already holds {MAX_OPEN_CURSORS} open cursors; drain or close one"),
        );
    }
    let total = rows.len() as u64;
    let cursor = session.next_cursor;
    session.next_cursor = session.next_cursor.wrapping_add(1);
    session
        .cursors
        .insert(cursor, Cursor { rows, pos: 0, page });
    Reply::ok(Response::Header {
        cursor,
        docs,
        total,
    })
}
