//! Wire encoding: frames, handshake, requests, responses.
//!
//! Every post-handshake message is one **frame**:
//!
//! ```text
//! u32 LE payload length | payload (first byte = opcode)
//! ```
//!
//! Scalars are little-endian; strings and byte blobs are `u32` length +
//! bytes (UTF-8 for strings); lists are `u32` count + elements. The
//! handshake preceding the first frame is
//!
//! ```text
//! client → "MBXQ" | u8 n | n × u32 proposed versions
//! server → "MBXQ" | u32 chosen version   (0 = no overlap, closed)
//! ```
//!
//! Decoding is strict: trailing bytes after a complete message, lengths
//! past the end of the frame, unknown tags — all are protocol errors.
//! The server answers an undecodable frame with [`Response::Error`]
//! (code [`ErrorCode::Protocol`] / [`ErrorCode::UnknownOpcode`]) and
//! closes that one session; the listener and other sessions are
//! unaffected.

use crate::{NetError, Result};
use mbxq_storage::QnId;
use mbxq_xpath::Value;

/// The connection-setup magic. Both handshake directions start with it.
pub const MAGIC: [u8; 4] = *b"MBXQ";

/// The one protocol version this build speaks. Version 1 carried three
/// execution-strategy bytes in every `Query` frame; a client offering
/// only 1 gets the handshake's no-overlap answer.
pub const VERSION: u32 = 2;

/// Default cap on a single frame's payload length.
pub const MAX_FRAME_DEFAULT: usize = 64 << 20;

/// Machine-readable error classes of [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// Malformed frame or field encoding.
    Protocol = 1,
    /// The request opcode is not part of this protocol version.
    UnknownOpcode = 2,
    /// No document by that name.
    UnknownDocument = 3,
    /// A document by that name already exists.
    DuplicateDocument = 4,
    /// The query failed to parse or evaluate.
    Query = 5,
    /// A transactional/storage failure (lock timeout, validation, IO).
    Txn = 6,
    /// No cursor by that id in this session.
    UnknownCursor = 7,
    /// The frame's length prefix exceeds the server's limit.
    FrameTooLarge = 8,
    /// The session already holds the maximum number of open cursors;
    /// fetch one to its end or close one first.
    TooManyCursors = 9,
}

impl ErrorCode {
    fn from_u16(v: u16) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::Protocol,
            2 => ErrorCode::UnknownOpcode,
            3 => ErrorCode::UnknownDocument,
            4 => ErrorCode::DuplicateDocument,
            5 => ErrorCode::Query,
            6 => ErrorCode::Txn,
            7 => ErrorCode::UnknownCursor,
            8 => ErrorCode::FrameTooLarge,
            9 => ErrorCode::TooManyCursors,
            _ => return None,
        })
    }
}

/// What a [`Request::Query`] evaluates against.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryTarget {
    /// One document by name (hash-routed).
    Doc(String),
    /// Every document of the catalog (or every pinned one).
    All,
    /// The named documents in the given order — e.g. a partition group.
    Collection(Vec<String>),
}

/// One query request: target, XPath text, `$name` bindings, and the
/// cursor page size for node-set results. How the query runs is the
/// server's decision, made per execution from observed statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// What to evaluate against.
    pub target: QueryTarget,
    /// The XPath text.
    pub text: String,
    /// `$name` bindings, rebuilt into [`mbxq_xpath::Bindings`] server-side.
    pub bindings: Vec<(String, Value)>,
    /// Rows per cursor page (`0` = server default).
    pub page_size: u32,
}

impl QuerySpec {
    /// A spec for `text` against `target`: no bindings, default page size.
    pub fn new(target: QueryTarget, text: impl Into<String>) -> QuerySpec {
        QuerySpec {
            target,
            text: text.into(),
            bindings: Vec::new(),
            page_size: 0,
        }
    }
}

/// The update-volume counters of an XUpdate batch, as reported back to
/// the client (the wire form of [`mbxq_xupdate::ExecutionSummary`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateSummary {
    /// Commands executed.
    pub commands: u64,
    /// Tuples deleted.
    pub nodes_removed: u64,
    /// Tuples inserted.
    pub nodes_inserted: u64,
    /// Value nodes replaced in place.
    pub values_updated: u64,
    /// Attributes set.
    pub attrs_set: u64,
    /// Elements renamed.
    pub nodes_renamed: u64,
}

impl From<mbxq_xupdate::ExecutionSummary> for UpdateSummary {
    fn from(s: mbxq_xupdate::ExecutionSummary) -> UpdateSummary {
        UpdateSummary {
            commands: s.commands as u64,
            nodes_removed: s.nodes_removed,
            nodes_inserted: s.nodes_inserted,
            values_updated: s.values_updated,
            attrs_set: s.attrs_set,
            nodes_renamed: s.nodes_renamed,
        }
    }
}

/// A client→server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Create a document from XML text.
    CreateDoc {
        /// The document name (plain-name rules apply).
        name: String,
        /// The XML text.
        xml: String,
    },
    /// Drop a document.
    DropDoc {
        /// The document name.
        name: String,
    },
    /// List document names in creation order.
    ListDocs,
    /// Evaluate a query; node sets come back as a cursor.
    Query(QuerySpec),
    /// Execute an XUpdate batch as one write transaction.
    XUpdate {
        /// The target document.
        doc: String,
        /// The `<xupdate:modifications>` script.
        script: String,
    },
    /// Page the next rows out of an open cursor.
    Fetch {
        /// The cursor id from [`Response::Header`].
        cursor: u32,
    },
    /// Close a cursor early (closing an already-gone cursor is a no-op).
    CloseCursor {
        /// The cursor id.
        cursor: u32,
    },
    /// Pin snapshots for repeatable reads: the named documents, or every
    /// current document when `names` is empty. Replaces any earlier pin
    /// set.
    Pin {
        /// Documents to pin (empty = all).
        names: Vec<String>,
    },
    /// Drop all pinned snapshots; queries see fresh snapshots again.
    Unpin,
    /// Orderly end of session.
    Goodbye,
    /// Server-wide execution statistics: plan cache, worker pool,
    /// vectorized-kernel and parallel-predicate counters. Answered with
    /// [`Response::Stats`].
    Stats,
}

/// The server-wide execution counters of [`Response::Stats`]: the
/// catalog's aggregated plan cache, the shared query pool, and the
/// cumulative executor decisions (morsel parallelism, predicate
/// fan-out, vectorized chunk-kernel dispatch) across every session
/// since the server started.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Plan-cache hits summed over every document.
    pub plan_hits: u64,
    /// Plan-cache compiles (misses) summed over every document.
    pub plan_misses: u64,
    /// Plan-cache evictions summed over every document.
    pub plan_evictions: u64,
    /// Plans currently cached, summed over every document.
    pub plan_entries: u64,
    /// Configured width of the shared query pool.
    pub pool_threads: u32,
    /// Whether the pool's worker threads have been spawned yet.
    pub pool_spawned: bool,
    /// Cumulative cross-queue morsel steals inside the pool.
    pub pool_steals: u64,
    /// The pool's per-morsel dispatch overhead (ns), calibrated or
    /// pinned at spawn; `0` before the pool exists.
    pub morsel_overhead_ns: u64,
    /// Physical operators that ran morsel-parallel.
    pub par_steps: u64,
    /// Morsels executed on the pool by query evaluation.
    pub morsels: u64,
    /// Predicates whose row evaluation fanned out across the pool.
    pub pred_par_steps: u64,
    /// Scan operators dispatched to the vectorized kernel arm.
    pub simd_steps: u64,
    /// Multi-predicate steps executed (posting-list intersection or a
    /// cost-rejected fallback arm).
    pub multi_probe_steps: u64,
    /// Rows produced by posting-list intersections.
    pub intersect_rows: u64,
    /// Multi-predicate strategies recompiled because the recorded
    /// cardinality feedback diverged (or a replan was forced).
    pub replans: u64,
    /// Whether this server binary carries compiled vector instructions
    /// (the `simd` feature on a supported target); when `false` the
    /// Simd arm runs its scalar twin.
    pub simd_compiled: bool,
}

/// A server→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The request succeeded and has no payload.
    Ok,
    /// The request failed.
    Error {
        /// The machine-readable error class.
        code: ErrorCode,
        /// The human-readable message.
        message: String,
    },
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::ListDocs`].
    Docs {
        /// Document names in creation order.
        names: Vec<String>,
    },
    /// A non-node-set query result. Node ids inside (`Nodes`/`Attrs`
    /// owners) are stable [`mbxq_storage::NodeId`] values, not pre ranks.
    Scalar {
        /// The result value.
        value: Value,
    },
    /// A node-set query result: an opened cursor. Rows follow via
    /// [`Request::Fetch`] as `(doc index, node id)` pairs, doc-major in
    /// `docs` order, document order within each document.
    Header {
        /// The session-scoped cursor id.
        cursor: u32,
        /// The documents contributing rows, in merge order.
        docs: Vec<String>,
        /// Total rows the cursor will yield.
        total: u64,
    },
    /// One page of cursor rows.
    Page {
        /// Whether this was the final page (the cursor is now closed).
        done: bool,
        /// `(doc index, node id)` row pairs.
        rows: Vec<(u32, u64)>,
    },
    /// Answer to [`Request::XUpdate`].
    Summary {
        /// What the batch did.
        summary: UpdateSummary,
    },
    /// Answer to [`Request::Pin`].
    Pinned {
        /// How many snapshots the session now holds.
        count: u32,
    },
    /// Answer to [`Request::Stats`].
    Stats {
        /// The server-wide counters.
        stats: ServerStats,
    },
}

// ---------------------------------------------------------------- encoding

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_names(out: &mut Vec<u8>, names: &[String]) {
    put_u32(out, names.len() as u32);
    for n in names {
        put_str(out, n);
    }
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Str(s) => {
            out.push(0);
            put_str(out, s);
        }
        Value::Number(n) => {
            out.push(1);
            put_u64(out, n.to_bits());
        }
        Value::Boolean(b) => {
            out.push(2);
            out.push(*b as u8);
        }
        Value::Nodes(ns) => {
            out.push(3);
            put_u32(out, ns.len() as u32);
            for &n in ns {
                put_u64(out, n);
            }
        }
        Value::Attrs(ps) => {
            out.push(4);
            put_u32(out, ps.len() as u32);
            for &(owner, qn) in ps {
                put_u64(out, owner);
                put_u32(out, qn.0);
            }
        }
    }
}

/// A strict little-endian reader over one frame's payload.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn err<T>(&self, what: &str) -> Result<T> {
        Err(NetError::Protocol(format!(
            "{what} at byte {} of a {}-byte frame",
            self.pos,
            self.buf.len()
        )))
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return self.err("truncated field");
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let raw = self.bytes(len)?;
        String::from_utf8(raw.to_vec()).or_else(|_| self.err("non-UTF-8 string"))
    }

    fn names(&mut self) -> Result<Vec<String>> {
        let n = self.u32()? as usize;
        // Each name costs ≥ 4 bytes on the wire, so an absurd count in
        // a short frame fails here instead of attempting a huge alloc.
        if self.buf.len() - self.pos < n * 4 {
            return self.err("name count exceeds frame");
        }
        (0..n).map(|_| self.str()).collect()
    }

    fn value(&mut self) -> Result<Value> {
        Ok(match self.u8()? {
            0 => Value::Str(self.str()?),
            1 => Value::Number(f64::from_bits(self.u64()?)),
            2 => Value::Boolean(self.u8()? != 0),
            3 => {
                let n = self.u32()? as usize;
                if self.buf.len() - self.pos < n * 8 {
                    return self.err("node count exceeds frame");
                }
                Value::Nodes((0..n).map(|_| self.u64()).collect::<Result<_>>()?)
            }
            4 => {
                let n = self.u32()? as usize;
                if self.buf.len() - self.pos < n * 12 {
                    return self.err("attr count exceeds frame");
                }
                Value::Attrs(
                    (0..n)
                        .map(|_| Ok((self.u64()?, QnId(self.u32()?))))
                        .collect::<Result<_>>()?,
                )
            }
            _ => return self.err("unknown value tag"),
        })
    }

    fn finish(self) -> Result<()> {
        if self.pos != self.buf.len() {
            return self.err("trailing bytes");
        }
        Ok(())
    }
}

impl Request {
    /// Serializes this request into one frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Ping => out.push(0x01),
            Request::CreateDoc { name, xml } => {
                out.push(0x02);
                put_str(&mut out, name);
                put_str(&mut out, xml);
            }
            Request::DropDoc { name } => {
                out.push(0x03);
                put_str(&mut out, name);
            }
            Request::ListDocs => out.push(0x04),
            Request::Query(q) => {
                out.push(0x05);
                match &q.target {
                    QueryTarget::Doc(name) => {
                        out.push(0);
                        put_str(&mut out, name);
                    }
                    QueryTarget::All => out.push(1),
                    QueryTarget::Collection(names) => {
                        out.push(2);
                        put_names(&mut out, names);
                    }
                }
                put_str(&mut out, &q.text);
                put_u32(&mut out, q.bindings.len() as u32);
                for (name, value) in &q.bindings {
                    put_str(&mut out, name);
                    put_value(&mut out, value);
                }
                put_u32(&mut out, q.page_size);
            }
            Request::XUpdate { doc, script } => {
                out.push(0x06);
                put_str(&mut out, doc);
                put_str(&mut out, script);
            }
            Request::Fetch { cursor } => {
                out.push(0x07);
                put_u32(&mut out, *cursor);
            }
            Request::CloseCursor { cursor } => {
                out.push(0x08);
                put_u32(&mut out, *cursor);
            }
            Request::Pin { names } => {
                out.push(0x09);
                put_names(&mut out, names);
            }
            Request::Unpin => out.push(0x0a),
            Request::Goodbye => out.push(0x0b),
            Request::Stats => out.push(0x0c),
        }
        out
    }

    /// Decodes one frame payload. `Err` carries the reason; the caller
    /// distinguishes unknown opcodes (first byte) for its error code.
    pub fn decode(payload: &[u8]) -> Result<Request> {
        let mut r = Reader::new(payload);
        let op = r.u8()?;
        let req = match op {
            0x01 => Request::Ping,
            0x02 => Request::CreateDoc {
                name: r.str()?,
                xml: r.str()?,
            },
            0x03 => Request::DropDoc { name: r.str()? },
            0x04 => Request::ListDocs,
            0x05 => {
                let target = match r.u8()? {
                    0 => QueryTarget::Doc(r.str()?),
                    1 => QueryTarget::All,
                    2 => QueryTarget::Collection(r.names()?),
                    _ => return r.err("unknown query target"),
                };
                let text = r.str()?;
                let n = r.u32()? as usize;
                if payload.len() < n * 5 {
                    return r.err("binding count exceeds frame");
                }
                let mut bindings = Vec::with_capacity(n);
                for _ in 0..n {
                    let name = r.str()?;
                    let value = r.value()?;
                    bindings.push((name, value));
                }
                Request::Query(QuerySpec {
                    target,
                    text,
                    bindings,
                    page_size: r.u32()?,
                })
            }
            0x06 => Request::XUpdate {
                doc: r.str()?,
                script: r.str()?,
            },
            0x07 => Request::Fetch { cursor: r.u32()? },
            0x08 => Request::CloseCursor { cursor: r.u32()? },
            0x09 => Request::Pin { names: r.names()? },
            0x0a => Request::Unpin,
            0x0b => Request::Goodbye,
            0x0c => Request::Stats,
            other => {
                return Err(NetError::Protocol(format!("unknown opcode 0x{other:02x}")));
            }
        };
        r.finish()?;
        Ok(req)
    }
}

/// Whether a raw frame payload carries an opcode this protocol version
/// does not know — the server maps this to [`ErrorCode::UnknownOpcode`]
/// instead of the generic [`ErrorCode::Protocol`].
pub fn is_unknown_opcode(payload: &[u8]) -> bool {
    !matches!(payload.first(), Some(0x01..=0x0c))
}

impl Response {
    /// Serializes this response into one frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Ok => out.push(0x80),
            Response::Error { code, message } => {
                out.push(0x81);
                put_u16(&mut out, *code as u16);
                put_str(&mut out, message);
            }
            Response::Pong => out.push(0x82),
            Response::Docs { names } => {
                out.push(0x83);
                put_names(&mut out, names);
            }
            Response::Scalar { value } => {
                out.push(0x84);
                put_value(&mut out, value);
            }
            Response::Header {
                cursor,
                docs,
                total,
            } => {
                out.push(0x85);
                put_u32(&mut out, *cursor);
                put_names(&mut out, docs);
                put_u64(&mut out, *total);
            }
            Response::Page { done, rows } => {
                out.push(0x86);
                out.push(*done as u8);
                put_u32(&mut out, rows.len() as u32);
                for &(doc, node) in rows {
                    put_u32(&mut out, doc);
                    put_u64(&mut out, node);
                }
            }
            Response::Summary { summary } => {
                out.push(0x87);
                for v in [
                    summary.commands,
                    summary.nodes_removed,
                    summary.nodes_inserted,
                    summary.values_updated,
                    summary.attrs_set,
                    summary.nodes_renamed,
                ] {
                    put_u64(&mut out, v);
                }
            }
            Response::Pinned { count } => {
                out.push(0x88);
                put_u32(&mut out, *count);
            }
            Response::Stats { stats } => {
                out.push(0x89);
                for v in [
                    stats.plan_hits,
                    stats.plan_misses,
                    stats.plan_evictions,
                    stats.plan_entries,
                    stats.pool_steals,
                    stats.morsel_overhead_ns,
                    stats.par_steps,
                    stats.morsels,
                    stats.pred_par_steps,
                    stats.simd_steps,
                    stats.multi_probe_steps,
                    stats.intersect_rows,
                    stats.replans,
                ] {
                    put_u64(&mut out, v);
                }
                put_u32(&mut out, stats.pool_threads);
                out.push(stats.pool_spawned as u8);
                out.push(stats.simd_compiled as u8);
            }
        }
        out
    }

    /// Decodes one frame payload.
    pub fn decode(payload: &[u8]) -> Result<Response> {
        let mut r = Reader::new(payload);
        let resp = match r.u8()? {
            0x80 => Response::Ok,
            0x81 => {
                let raw = r.u16()?;
                let Some(code) = ErrorCode::from_u16(raw) else {
                    return r.err("unknown error code");
                };
                Response::Error {
                    code,
                    message: r.str()?,
                }
            }
            0x82 => Response::Pong,
            0x83 => Response::Docs { names: r.names()? },
            0x84 => Response::Scalar { value: r.value()? },
            0x85 => Response::Header {
                cursor: r.u32()?,
                docs: r.names()?,
                total: r.u64()?,
            },
            0x86 => {
                let done = r.u8()? != 0;
                let n = r.u32()? as usize;
                if payload.len() < n * 12 {
                    return r.err("row count exceeds frame");
                }
                let rows = (0..n)
                    .map(|_| Ok((r.u32()?, r.u64()?)))
                    .collect::<Result<_>>()?;
                Response::Page { done, rows }
            }
            0x87 => Response::Summary {
                summary: UpdateSummary {
                    commands: r.u64()?,
                    nodes_removed: r.u64()?,
                    nodes_inserted: r.u64()?,
                    values_updated: r.u64()?,
                    attrs_set: r.u64()?,
                    nodes_renamed: r.u64()?,
                },
            },
            0x88 => Response::Pinned { count: r.u32()? },
            0x89 => Response::Stats {
                stats: ServerStats {
                    plan_hits: r.u64()?,
                    plan_misses: r.u64()?,
                    plan_evictions: r.u64()?,
                    plan_entries: r.u64()?,
                    pool_steals: r.u64()?,
                    morsel_overhead_ns: r.u64()?,
                    par_steps: r.u64()?,
                    morsels: r.u64()?,
                    pred_par_steps: r.u64()?,
                    simd_steps: r.u64()?,
                    multi_probe_steps: r.u64()?,
                    intersect_rows: r.u64()?,
                    replans: r.u64()?,
                    pool_threads: r.u32()?,
                    pool_spawned: r.u8()? != 0,
                    simd_compiled: r.u8()? != 0,
                },
            },
            other => {
                return Err(NetError::Protocol(format!(
                    "unknown response opcode 0x{other:02x}"
                )));
            }
        };
        r.finish()?;
        Ok(resp)
    }
}

// ---------------------------------------------------------------- frame IO

/// Writes one frame (length prefix + payload) with **one** `write`:
/// sessions run on `TCP_NODELAY` sockets, where every write is its own
/// segment and its own wake-up of the peer — a prefix written apart
/// from its payload doubled both for every frame.
pub fn write_frame(w: &mut impl std::io::Write, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "frame payload exceeds the u32 length prefix",
        )
    })?;
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A frame reaches the socket as one write (one segment, one
    /// wake-up), prefix first.
    #[test]
    fn a_frame_is_one_write() {
        #[derive(Default)]
        struct Counting {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl std::io::Write for Counting {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut w = Counting::default();
        for (frames, payload) in [&b"x"[..], &[7u8; 70_000][..], &[][..]].iter().enumerate() {
            let before = w.bytes.len();
            write_frame(&mut w, payload).unwrap();
            assert_eq!(w.writes, frames + 1);
            assert_eq!(
                w.bytes[before..before + 4],
                (payload.len() as u32).to_le_bytes()
            );
            assert_eq!(&w.bytes[before + 4..], *payload);
        }
    }

    fn roundtrip_req(req: Request) {
        let bytes = req.encode();
        assert_eq!(Request::decode(&bytes).unwrap(), req);
    }

    fn roundtrip_resp(resp: Response) {
        let bytes = resp.encode();
        assert_eq!(Response::decode(&bytes).unwrap(), resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(Request::Ping);
        roundtrip_req(Request::CreateDoc {
            name: "a doc".into(),
            xml: "<r/>".into(),
        });
        roundtrip_req(Request::DropDoc { name: "d".into() });
        roundtrip_req(Request::ListDocs);
        let mut spec = QuerySpec::new(QueryTarget::Doc("d".into()), "//x[@i = $v]");
        spec.bindings = vec![
            ("v".to_string(), Value::Str("7".into())),
            ("n".to_string(), Value::Number(2.5)),
            ("b".to_string(), Value::Boolean(true)),
            ("ns".to_string(), Value::Nodes(vec![1, 2, 3])),
            ("at".to_string(), Value::Attrs(vec![(9, QnId(4))])),
        ];
        spec.page_size = 128;
        roundtrip_req(Request::Query(spec));
        roundtrip_req(Request::Query(QuerySpec::new(QueryTarget::All, "//x")));
        roundtrip_req(Request::Query(QuerySpec::new(
            QueryTarget::Collection(vec!["a".into(), "b".into()]),
            "//x",
        )));
        roundtrip_req(Request::XUpdate {
            doc: "d".into(),
            script: "<xupdate:modifications/>".into(),
        });
        roundtrip_req(Request::Fetch { cursor: 7 });
        roundtrip_req(Request::CloseCursor { cursor: 7 });
        roundtrip_req(Request::Pin { names: vec![] });
        roundtrip_req(Request::Pin {
            names: vec!["a".into()],
        });
        roundtrip_req(Request::Unpin);
        roundtrip_req(Request::Goodbye);
        roundtrip_req(Request::Stats);
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_resp(Response::Ok);
        roundtrip_resp(Response::Error {
            code: ErrorCode::UnknownDocument,
            message: "no such doc".into(),
        });
        roundtrip_resp(Response::Pong);
        roundtrip_resp(Response::Docs {
            names: vec!["a".into(), "b".into()],
        });
        roundtrip_resp(Response::Scalar {
            value: Value::Number(42.0),
        });
        roundtrip_resp(Response::Header {
            cursor: 3,
            docs: vec!["a".into()],
            total: 100,
        });
        roundtrip_resp(Response::Page {
            done: true,
            rows: vec![(0, 5), (1, 9)],
        });
        roundtrip_resp(Response::Summary {
            summary: UpdateSummary {
                commands: 1,
                nodes_removed: 2,
                nodes_inserted: 3,
                values_updated: 4,
                attrs_set: 5,
                nodes_renamed: 6,
            },
        });
        roundtrip_resp(Response::Pinned { count: 2 });
        roundtrip_resp(Response::Stats {
            stats: ServerStats {
                plan_hits: 10,
                plan_misses: 2,
                plan_evictions: 1,
                plan_entries: 4,
                pool_threads: 8,
                pool_spawned: true,
                pool_steals: 55,
                morsel_overhead_ns: 900,
                par_steps: 7,
                morsels: 64,
                pred_par_steps: 3,
                simd_steps: 12,
                multi_probe_steps: 5,
                intersect_rows: 40,
                replans: 2,
                simd_compiled: cfg!(feature = "simd"),
            },
        });
    }

    #[test]
    fn malformed_payloads_are_rejected_not_panicked() {
        // Truncations of a valid request at every length.
        let full = Request::CreateDoc {
            name: "doc".into(),
            xml: "<r/>".into(),
        }
        .encode();
        for cut in 0..full.len() {
            assert!(Request::decode(&full[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage.
        let mut long = full.clone();
        long.push(0);
        assert!(Request::decode(&long).is_err());
        // Unknown opcode.
        assert!(Request::decode(&[0x7f]).is_err());
        assert!(is_unknown_opcode(&[0x7f]));
        assert!(is_unknown_opcode(&[]));
        assert!(!is_unknown_opcode(&full));
        // Absurd length claims inside a short frame must error, not
        // attempt gigantic allocations.
        let mut huge = vec![0x09]; // Pin
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Request::decode(&huge).is_err());
    }
}
