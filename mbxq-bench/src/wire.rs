//! The traced run's own speaker of the wire protocol. The blocking
//! [`mbxq_server::Client`] hides encode, round trip and decode inside
//! one private call; the traced run needs a span around each, so it
//! drives the same public codec (`Request::encode`, `write_frame`,
//! `Response::decode`) itself and counts frames and bytes on the way.
//! Untraced runs — every end-to-end number — use the real `Client`.

use crate::trace::Tracer;
use mbxq_server::proto::{self, QuerySpec, QueryTarget, Request, Response};
use mbxq_server::UpdateSummary;
use mbxq_storage::NodeId;
use mbxq_xpath::Bindings;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

pub struct TracedClient {
    stream: TcpStream,
    /// Frames sent plus frames received.
    pub frames: u64,
    /// Bytes sent plus received, length prefixes included.
    pub bytes: u64,
}

impl TracedClient {
    pub fn connect(addr: SocketAddr) -> Result<TracedClient, String> {
        let io = |e: std::io::Error| format!("traced connect: {e}");
        let mut stream = TcpStream::connect(addr).map_err(io)?;
        stream.set_nodelay(true).ok();
        let mut hello = Vec::with_capacity(9);
        hello.extend_from_slice(&proto::MAGIC);
        hello.push(1);
        hello.extend_from_slice(&proto::VERSION.to_le_bytes());
        stream.write_all(&hello).map_err(io)?;
        let mut reply = [0u8; 8];
        stream.read_exact(&mut reply).map_err(io)?;
        if reply[..4] != proto::MAGIC || reply[4..] != proto::VERSION.to_le_bytes() {
            return Err("traced connect: handshake refused".to_string());
        }
        Ok(TracedClient {
            stream,
            frames: 0,
            bytes: 0,
        })
    }

    /// One request/response pair as three spans of the `server` layer.
    /// Returns the response and the id of the round-trip span, which
    /// explaining spans attach to.
    pub fn call(&mut self, tr: &mut Tracer, req: &Request) -> Result<(Response, u32), String> {
        let payload = tr.span("server", "server.encode", |_| req.encode());
        let mut rt = 0;
        let reply = tr.span("server", "server.roundtrip", |tr| {
            rt = tr.last_id();
            proto::write_frame(&mut self.stream, &payload)?;
            let mut len = [0u8; 4];
            self.stream.read_exact(&mut len)?;
            let mut reply = vec![0u8; u32::from_le_bytes(len) as usize];
            self.stream.read_exact(&mut reply)?;
            Ok::<_, std::io::Error>(reply)
        });
        let reply = reply.map_err(|e| format!("round trip: {e}"))?;
        self.frames += 2;
        self.bytes += (payload.len() + reply.len() + 8) as u64;
        let resp = tr
            .span("server", "server.decode", |_| Response::decode(&reply))
            .map_err(|e| format!("decode: {e}"))?;
        match resp {
            Response::Error { code, message } => Err(format!("remote {code:?}: {message}")),
            resp => Ok((resp, rt)),
        }
    }

    /// Query one document and drain the cursor (default 1024-row
    /// pages), like `Client::query_nodes`. Also returns the span id of
    /// the query's own round trip.
    pub fn query_nodes(
        &mut self,
        tr: &mut Tracer,
        doc: &str,
        text: &str,
        bindings: Option<&Bindings>,
    ) -> Result<(Vec<NodeId>, u32), String> {
        let mut spec = QuerySpec::new(QueryTarget::Doc(doc.to_string()), text);
        if let Some(b) = bindings {
            spec.bindings = b.iter().map(|(n, v)| (n.to_string(), v.clone())).collect();
            spec.bindings.sort_by(|a, b| a.0.cmp(&b.0));
        }
        let (resp, rt) = self.call(tr, &Request::Query(spec))?;
        let Response::Header { cursor, total, .. } = resp else {
            return Err(format!("expected a cursor header, got {resp:?}"));
        };
        let mut nodes = Vec::with_capacity(total as usize);
        loop {
            let (resp, _) = self.call(tr, &Request::Fetch { cursor })?;
            let Response::Page { done, rows } = resp else {
                return Err(format!("expected a page, got {resp:?}"));
            };
            nodes.extend(rows.into_iter().map(|(_, n)| NodeId(n)));
            if done {
                return Ok((nodes, rt));
            }
        }
    }

    pub fn xupdate(
        &mut self,
        tr: &mut Tracer,
        doc: &str,
        script: &str,
    ) -> Result<UpdateSummary, String> {
        let req = Request::XUpdate {
            doc: doc.to_string(),
            script: script.to_string(),
        };
        match self.call(tr, &req)?.0 {
            Response::Summary { summary } => Ok(summary),
            other => Err(format!("expected a summary, got {other:?}")),
        }
    }

    pub fn goodbye(mut self) {
        let _ = self.call(&mut Tracer::new(false), &Request::Goodbye);
    }
}
