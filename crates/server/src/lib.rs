//! `mbxq-server` — the network face of the catalog.
//!
//! MonetDB/XQuery served interactive XMark query + update traffic over
//! MonetDB's client protocol; this crate is the reproduction's
//! equivalent: a TCP server (std `TcpListener`, no external
//! dependencies) speaking a length-prefixed binary protocol in front of
//! one shared [`mbxq_txn::Catalog`]. The server layer owns **sessions,
//! framing and cursors only** — storage, recovery, transactions and the
//! cross-document fan-out all live in the catalog underneath.
//!
//! # Protocol
//!
//! Connection setup is Bolt-style version negotiation: the client sends
//! the magic `MBXQ`, a version count, and its proposed protocol
//! versions; the server answers with the magic and the version it
//! picked (`0` = no overlap, connection closed). Everything after the
//! handshake is **frames**: a `u32` little-endian payload length
//! followed by the payload, whose first byte is the opcode. See
//! [`proto`] for the exact request/response encodings.
//!
//! # Sessions and snapshots
//!
//! Every connection is one session. By default each query runs against
//! the document's newest committed snapshot (the catalog's usual MVCC
//! read). A session may instead **pin** snapshots
//! ([`Client::pin`]): the session then holds `Shard::snapshot()` Arcs
//! and re-serves them for every subsequent query — repeatable reads
//! across requests, unaffected by concurrent commits, until the session
//! unpins, re-pins, or disconnects. Pins hold the shard alive
//! (MVCC-style), so a pinned document keeps answering even if it is
//! dropped from the catalog concurrently.
//!
//! # Cursors
//!
//! Node-set query results never travel as one giant frame: the server
//! materializes the node ids (stable [`mbxq_storage::NodeId`] logical
//! ids, not physical pre ranks), answers with a cursor header (cursor
//! id, document list, total row count), and the client pages the rows
//! out in fixed-size `Fetch` frames. A cursor closes on its final page,
//! on an explicit close, or with the session; a session may hold 64
//! open at once, and the next node-set query is refused with
//! [`ErrorCode::TooManyCursors`] until one closes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod proto;

mod client;
mod server;

pub use client::{Client, CursorHandle, QueryReply};
pub use proto::{ErrorCode, QuerySpec, QueryTarget, Request, Response, ServerStats, UpdateSummary};
pub use server::{Server, ServerConfig};

/// Errors of the wire layer — socket failures, malformed frames, and
/// errors the server reported for a request.
#[derive(Debug)]
pub enum NetError {
    /// A socket-level failure (connect, read, write, timeout).
    Io(std::io::Error),
    /// A malformed or truncated frame, or a failed handshake.
    Protocol(String),
    /// An error the server reported for this request.
    Remote {
        /// The machine-readable error class.
        code: ErrorCode,
        /// The human-readable message.
        message: String,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io: {e}"),
            NetError::Protocol(m) => write!(f, "protocol: {m}"),
            NetError::Remote { code, message } => write!(f, "server ({code:?}): {message}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> NetError {
        NetError::Io(e)
    }
}

/// Result alias of this crate.
pub type Result<T> = std::result::Result<T, NetError>;
