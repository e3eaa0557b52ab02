//! The blocking client: connect + handshake, one request/response pair
//! at a time, cursor draining helpers. Used by the end-to-end tests and
//! the `mbxq-bench` server workloads.

use crate::proto::{self, QuerySpec, QueryTarget, Request, Response, ServerStats, UpdateSummary};
use crate::{NetError, Result};
use mbxq_storage::NodeId;
use mbxq_xpath::{Bindings, Value};
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// An open node-set cursor, as announced by the server's header frame.
/// Drain it with [`Client::fetch`] / [`Client::drain`] or abandon it
/// with [`Client::close_cursor`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CursorHandle {
    /// The session-scoped cursor id.
    pub id: u32,
    /// The documents contributing rows, in merge order.
    pub docs: Vec<String>,
    /// Total rows the cursor will yield.
    pub total: u64,
}

/// What a query came back as.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryReply {
    /// A non-node-set value (number, boolean, string, attribute set).
    Scalar(Value),
    /// A node set, open as a server-side cursor.
    Cursor(CursorHandle),
}

/// A blocking connection to an [`crate::Server`]. One request is in
/// flight at a time; every method is a full request/response round
/// trip.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    max_frame: usize,
}

impl Client {
    /// Connects and negotiates protocol version [`proto::VERSION`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        stream.write_all(&proto::MAGIC)?;
        stream.write_all(&[1u8])?;
        stream.write_all(&proto::VERSION.to_le_bytes())?;
        stream.flush()?;
        let mut reply = [0u8; 8];
        stream.read_exact(&mut reply)?;
        if reply[..4] != proto::MAGIC {
            return Err(NetError::Protocol("bad handshake magic".to_string()));
        }
        let chosen = u32::from_le_bytes(reply[4..].try_into().unwrap());
        if chosen != proto::VERSION {
            return Err(NetError::Protocol(format!(
                "server rejected protocol version (answered {chosen})"
            )));
        }
        Ok(Client {
            stream,
            max_frame: proto::MAX_FRAME_DEFAULT,
        })
    }

    fn call(&mut self, req: &Request) -> Result<Response> {
        proto::write_frame(&mut self.stream, &req.encode())?;
        let mut len = [0u8; 4];
        self.stream.read_exact(&mut len)?;
        let len = u32::from_le_bytes(len) as usize;
        if len == 0 || len > self.max_frame {
            return Err(NetError::Protocol(format!("bad reply frame length {len}")));
        }
        let mut payload = vec![0u8; len];
        self.stream.read_exact(&mut payload)?;
        match Response::decode(&payload)? {
            Response::Error { code, message } => Err(NetError::Remote { code, message }),
            resp => Ok(resp),
        }
    }

    fn unexpected<T>(what: &str, resp: &Response) -> Result<T> {
        Err(NetError::Protocol(format!("expected {what}, got {resp:?}")))
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<()> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Self::unexpected("Pong", &other),
        }
    }

    /// Creates a document from XML text.
    pub fn create_doc(&mut self, name: &str, xml: &str) -> Result<()> {
        match self.call(&Request::CreateDoc {
            name: name.to_string(),
            xml: xml.to_string(),
        })? {
            Response::Ok => Ok(()),
            other => Self::unexpected("Ok", &other),
        }
    }

    /// Drops a document.
    pub fn drop_doc(&mut self, name: &str) -> Result<()> {
        match self.call(&Request::DropDoc {
            name: name.to_string(),
        })? {
            Response::Ok => Ok(()),
            other => Self::unexpected("Ok", &other),
        }
    }

    /// Document names in creation order.
    pub fn list_docs(&mut self) -> Result<Vec<String>> {
        match self.call(&Request::ListDocs)? {
            Response::Docs { names } => Ok(names),
            other => Self::unexpected("Docs", &other),
        }
    }

    /// Runs a fully-specified query (see [`QuerySpec`]).
    pub fn query_spec(&mut self, spec: QuerySpec) -> Result<QueryReply> {
        match self.call(&Request::Query(spec))? {
            Response::Scalar { value } => Ok(QueryReply::Scalar(value)),
            Response::Header {
                cursor,
                docs,
                total,
            } => Ok(QueryReply::Cursor(CursorHandle {
                id: cursor,
                docs,
                total,
            })),
            other => Self::unexpected("Scalar or Header", &other),
        }
    }

    /// Queries one document, optionally with `$name` bindings.
    pub fn query(
        &mut self,
        doc: &str,
        text: &str,
        bindings: Option<&Bindings>,
    ) -> Result<QueryReply> {
        let mut spec = QuerySpec::new(QueryTarget::Doc(doc.to_string()), text);
        if let Some(b) = bindings {
            spec.bindings = bindings_to_wire(b);
        }
        self.query_spec(spec)
    }

    /// Queries one document for a node set and drains the cursor.
    pub fn query_nodes(
        &mut self,
        doc: &str,
        text: &str,
        bindings: Option<&Bindings>,
    ) -> Result<Vec<NodeId>> {
        match self.query(doc, text, bindings)? {
            QueryReply::Cursor(cur) => {
                let mut per_doc = self.drain(&cur)?;
                Ok(per_doc.pop().map(|(_, nodes)| nodes).unwrap_or_default())
            }
            QueryReply::Scalar(v) => Err(NetError::Protocol(format!(
                "expected a node set, got {v:?}"
            ))),
        }
    }

    /// Queries every document (or, in a pinned session, every pinned
    /// one) and drains the cursor into per-document node lists.
    pub fn query_all(
        &mut self,
        text: &str,
        bindings: Option<&Bindings>,
    ) -> Result<Vec<(String, Vec<NodeId>)>> {
        let mut spec = QuerySpec::new(QueryTarget::All, text);
        if let Some(b) = bindings {
            spec.bindings = bindings_to_wire(b);
        }
        match self.query_spec(spec)? {
            QueryReply::Cursor(cur) => self.drain(&cur),
            QueryReply::Scalar(v) => Err(NetError::Protocol(format!(
                "expected a node set, got {v:?}"
            ))),
        }
    }

    /// Queries the named documents in order (e.g. a partition group)
    /// and drains the cursor into per-document node lists.
    pub fn query_collection(
        &mut self,
        names: &[String],
        text: &str,
        bindings: Option<&Bindings>,
    ) -> Result<Vec<(String, Vec<NodeId>)>> {
        let mut spec = QuerySpec::new(QueryTarget::Collection(names.to_vec()), text);
        if let Some(b) = bindings {
            spec.bindings = bindings_to_wire(b);
        }
        match self.query_spec(spec)? {
            QueryReply::Cursor(cur) => self.drain(&cur),
            QueryReply::Scalar(v) => Err(NetError::Protocol(format!(
                "expected a node set, got {v:?}"
            ))),
        }
    }

    /// Fetches the next page of an open cursor: `(done, rows)` with
    /// rows as `(doc index, node id)` pairs.
    pub fn fetch(&mut self, cursor: u32) -> Result<(bool, Vec<(u32, NodeId)>)> {
        match self.call(&Request::Fetch { cursor })? {
            Response::Page { done, rows } => Ok((
                done,
                rows.into_iter().map(|(d, n)| (d, NodeId(n))).collect(),
            )),
            other => Self::unexpected("Page", &other),
        }
    }

    /// Drains a cursor to completion, grouping rows per document in the
    /// header's document order.
    pub fn drain(&mut self, cursor: &CursorHandle) -> Result<Vec<(String, Vec<NodeId>)>> {
        let mut per: Vec<Vec<NodeId>> = vec![Vec::new(); cursor.docs.len()];
        loop {
            let (done, rows) = self.fetch(cursor.id)?;
            for (doc, node) in rows {
                let slot = per.get_mut(doc as usize).ok_or_else(|| {
                    NetError::Protocol(format!("row names doc index {doc} beyond header"))
                })?;
                slot.push(node);
            }
            if done {
                break;
            }
        }
        Ok(cursor.docs.iter().cloned().zip(per).collect())
    }

    /// Closes a cursor without draining it.
    pub fn close_cursor(&mut self, cursor: u32) -> Result<()> {
        match self.call(&Request::CloseCursor { cursor })? {
            Response::Ok => Ok(()),
            other => Self::unexpected("Ok", &other),
        }
    }

    /// Executes an XUpdate script as one write transaction.
    pub fn xupdate(&mut self, doc: &str, script: &str) -> Result<UpdateSummary> {
        match self.call(&Request::XUpdate {
            doc: doc.to_string(),
            script: script.to_string(),
        })? {
            Response::Summary { summary } => Ok(summary),
            other => Self::unexpected("Summary", &other),
        }
    }

    /// Pins snapshots of the named documents (empty = every current
    /// document) for repeatable reads; returns how many are pinned.
    pub fn pin(&mut self, names: &[String]) -> Result<u32> {
        match self.call(&Request::Pin {
            names: names.to_vec(),
        })? {
            Response::Pinned { count } => Ok(count),
            other => Self::unexpected("Pinned", &other),
        }
    }

    /// Drops the session's pinned snapshots.
    pub fn unpin(&mut self) -> Result<()> {
        match self.call(&Request::Unpin)? {
            Response::Ok => Ok(()),
            other => Self::unexpected("Ok", &other),
        }
    }

    /// Server-wide execution statistics: the catalog's aggregated plan
    /// cache, the shared query pool (width, spawn state, steal count,
    /// calibrated per-morsel overhead) and the cumulative executor
    /// counters — morsel-parallel steps, parallel predicates,
    /// vectorized-kernel dispatches, multi-predicate steps with their
    /// posting-list intersection rows, and adaptive replans — across
    /// every session.
    pub fn stats(&mut self) -> Result<ServerStats> {
        match self.call(&Request::Stats)? {
            Response::Stats { stats } => Ok(stats),
            other => Self::unexpected("Stats", &other),
        }
    }

    /// Orderly end of session; the connection is closed afterwards.
    pub fn goodbye(mut self) -> Result<()> {
        match self.call(&Request::Goodbye)? {
            Response::Ok => Ok(()),
            other => Self::unexpected("Ok", &other),
        }
    }
}

fn bindings_to_wire(b: &Bindings) -> Vec<(String, Value)> {
    let mut wire: Vec<(String, Value)> = b
        .iter()
        .map(|(name, value)| (name.to_string(), value.clone()))
        .collect();
    // Deterministic wire bytes whatever the map iteration order.
    wire.sort_by(|a, b| a.0.cmp(&b.0));
    wire
}
