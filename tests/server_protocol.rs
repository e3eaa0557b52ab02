//! Wire-protocol robustness: torn frames, oversized length prefixes,
//! unknown opcodes, bad handshakes and mid-stream disconnects must
//! error (or close) the **one** offending session — the accept loop
//! keeps serving, well-behaved sessions keep working, and no session
//! wreckage leaks a [`Shard`](mbxq::Shard) handle (proved by
//! [`Catalog::export`] succeeding after the storm: export requires the
//! catalog's `Arc` to be the last one standing).

use mbxq::{Catalog, CatalogConfig, PageConfig, StoreConfig, TreeView};
use mbxq_server::{
    proto, Client, ErrorCode, NetError, QueryReply, QuerySpec, QueryTarget, Request, Response,
    Server, ServerConfig, ServerStats,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn config() -> CatalogConfig {
    CatalogConfig {
        store: StoreConfig {
            lock_timeout: Duration::from_millis(500),
            validate_on_commit: true,
            query_threads: 2,
            ..StoreConfig::default()
        },
        page: PageConfig::new(16, 75).unwrap(),
    }
}

/// A raw (non-[`Client`]) connection that has completed the handshake.
fn raw_handshaken(addr: std::net::SocketAddr) -> TcpStream {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(b"MBXQ\x01").unwrap();
    s.write_all(&proto::VERSION.to_le_bytes()).unwrap();
    let mut reply = [0u8; 8];
    s.read_exact(&mut reply).unwrap();
    assert_eq!(&reply[..4], b"MBXQ");
    assert_eq!(
        u32::from_le_bytes(reply[4..].try_into().unwrap()),
        proto::VERSION
    );
    s
}

/// Reads one reply frame from a raw stream.
fn raw_read_frame(s: &mut TcpStream) -> Vec<u8> {
    let mut len = [0u8; 4];
    s.read_exact(&mut len).unwrap();
    let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
    s.read_exact(&mut payload).unwrap();
    payload
}

/// Expects the peer to close: reads must hit EOF (within the read
/// timeout set on the stream).
fn expect_eof(s: &mut TcpStream) {
    use std::io::ErrorKind;
    let mut buf = [0u8; 64];
    loop {
        match s.read(&mut buf) {
            Ok(0) => return,
            Ok(_) => continue, // drain whatever was in flight
            // A server that drops the socket with client bytes still
            // unread sends RST, which surfaces as a reset, not EOF —
            // either way the session is gone, which is what we assert.
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::ConnectionReset
                        | ErrorKind::ConnectionAborted
                        | ErrorKind::BrokenPipe
                ) =>
            {
                return;
            }
            Err(e) => panic!("expected EOF, got error {e}"),
        }
    }
}

/// A hello offering only `version` must be answered `MBXQ` + `0` and
/// closed.
fn refused_hello(addr: std::net::SocketAddr, version: u8) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(&[b'M', b'B', b'X', b'Q', 1, version, 0, 0, 0])
        .unwrap();
    let mut reply = [0u8; 8];
    s.read_exact(&mut reply).unwrap();
    assert_eq!(&reply[..4], b"MBXQ");
    assert_eq!(u32::from_le_bytes(reply[4..].try_into().unwrap()), 0);
    expect_eof(&mut s);
}

#[test]
fn malformed_traffic_storm_leaves_server_and_catalog_intact() {
    let cat = Arc::new(Catalog::in_memory(config()));
    cat.create_doc("doc", "<r><x/><x/></r>").unwrap();
    let server = Server::start(
        cat.clone(),
        ServerConfig {
            workers: 4,
            max_frame: 4096,
            frame_timeout: Duration::from_millis(300),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // A well-behaved session that must survive the whole storm.
    let mut good = Client::connect(addr).unwrap();
    assert_eq!(good.query_nodes("doc", "//x", None).unwrap().len(), 2);

    // 1. Garbage handshake magic: closed without a frame.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(b"HTTP/1.1 GET /\r\n").unwrap();
        expect_eof(&mut s);
    }

    // 2. Version negotiation with no overlap: answered `0`, closed.
    refused_hello(addr, 99);

    // 3. Oversized length prefix: a structured FrameTooLarge error,
    //    then the session is closed.
    {
        let mut s = raw_handshaken(addr);
        s.write_all(&(1u32 << 30).to_le_bytes()).unwrap();
        let payload = raw_read_frame(&mut s);
        assert_eq!(payload[0], 0x81, "error response");
        assert_eq!(u16::from_le_bytes(payload[1..3].try_into().unwrap()), 8);
        expect_eof(&mut s);
    }

    // 4. Torn frame: a length prefix promising 100 bytes, 10 delivered,
    //    connection held open. The frame timeout reaps the session.
    {
        let mut s = raw_handshaken(addr);
        s.write_all(&100u32.to_le_bytes()).unwrap();
        s.write_all(&[0u8; 10]).unwrap();
        expect_eof(&mut s); // no reply owed for an unfinished frame
    }

    // 5. Truncated length prefix itself (2 of 4 bytes), held open.
    {
        let mut s = raw_handshaken(addr);
        s.write_all(&[7u8, 0]).unwrap();
        expect_eof(&mut s);
    }

    // 6. Unknown opcode in a well-formed frame: structured error, close.
    {
        let mut s = raw_handshaken(addr);
        s.write_all(&1u32.to_le_bytes()).unwrap();
        s.write_all(&[0x7f]).unwrap();
        let payload = raw_read_frame(&mut s);
        assert_eq!(payload[0], 0x81);
        assert_eq!(u16::from_le_bytes(payload[1..3].try_into().unwrap()), 2);
        expect_eof(&mut s);
    }

    // 7. Well-formed frame, garbage fields (a CreateDoc cut short):
    //    protocol error, close.
    {
        let mut s = raw_handshaken(addr);
        let truncated = [0x02u8, 0xff, 0xff, 0xff]; // opcode + 3 length bytes
        s.write_all(&(truncated.len() as u32).to_le_bytes())
            .unwrap();
        s.write_all(&truncated).unwrap();
        let payload = raw_read_frame(&mut s);
        assert_eq!(payload[0], 0x81);
        assert_eq!(u16::from_le_bytes(payload[1..3].try_into().unwrap()), 1);
        expect_eof(&mut s);
    }

    // 8. Mid-stream disconnects at every rude moment, some while the
    //    session holds an open cursor (whose Shard snapshot must not
    //    leak).
    for cut in 0..3 {
        let mut s = raw_handshaken(addr);
        // Open a cursor so the session has state to clean up.
        let q = Request::Query(QuerySpec::new(QueryTarget::Doc("doc".to_string()), "//x"));
        let enc = q.encode();
        s.write_all(&(enc.len() as u32).to_le_bytes()).unwrap();
        s.write_all(&enc).unwrap();
        let header = raw_read_frame(&mut s);
        assert_eq!(header[0], 0x85, "cursor header");
        match cut {
            0 => {}                                          // vanish with the cursor open
            1 => s.write_all(&50u32.to_le_bytes()).unwrap(), // torn next frame
            2 => s.write_all(&[1, 0]).unwrap(),              // torn prefix
            _ => unreachable!(),
        }
        drop(s); // rude disconnect
    }

    // The well-behaved session never noticed.
    assert_eq!(good.query_nodes("doc", "//x", None).unwrap().len(), 2);
    // And the accept loop still takes new connections.
    let mut fresh = Client::connect(addr).unwrap();
    fresh.ping().unwrap();
    match fresh.query_nodes("missing", "//x", None) {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, ErrorCode::UnknownDocument),
        other => panic!("expected UnknownDocument, got {other:?}"),
    }

    // No leaked Shard handles: once our sessions are gone, the catalog
    // holds the only Arc and export succeeds. Sessions die
    // asynchronously (torn frames only reap at the frame timeout), so
    // poll briefly.
    drop(good);
    drop(fresh);
    let mut exported = None;
    for _ in 0..200 {
        match cat.export("doc") {
            Ok(parts) => {
                exported = Some(parts);
                break;
            }
            Err(mbxq::TxnError::DocumentInUse { .. }) => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(other) => panic!("unexpected export error: {other}"),
        }
    }
    let (doc, _wal) = exported.expect("storm leaked a Shard handle: export kept failing");
    assert_eq!(doc.used_count(), 3, "r + two x elements");
    server.shutdown();
}

/// A slow-loris client (bytes trickling in under the frame timeout)
/// must not wedge the worker pool for everyone else.
#[test]
fn torn_frames_do_not_block_other_sessions() {
    let cat = Arc::new(Catalog::in_memory(config()));
    cat.create_doc("doc", "<r><x/></r>").unwrap();
    let server = Server::start(
        cat.clone(),
        ServerConfig {
            workers: 2,
            frame_timeout: Duration::from_millis(250),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    // Two lorises occupy both workers with unfinished frames…
    let mut lorises: Vec<TcpStream> = (0..2).map(|_| raw_handshaken(server.addr())).collect();
    for s in &mut lorises {
        s.write_all(&64u32.to_le_bytes()).unwrap();
        s.write_all(&[0u8; 4]).unwrap();
    }
    // …but the frame timeout reaps them, so a real client (queued until
    // a worker frees up) gets served.
    let mut cl = Client::connect(server.addr()).unwrap();
    cl.ping().unwrap();
    assert_eq!(cl.query_nodes("doc", "//x", None).unwrap().len(), 1);
    server.shutdown();
}

/// Versions 1 and 2 are retired, not kept beside version 3: a hello
/// offering only one of them gets the no-overlap answer. A frame in an
/// old layout is a trailing-byte protocol error, not a misread frame:
/// a version-1 `Query` (three strategy bytes between the bindings and
/// the page size) and a version-2 `Stats` reply (a replan counter after
/// the intersection rows).
#[test]
fn version_1_is_not_served() {
    let cat = Arc::new(Catalog::in_memory(config()));
    cat.create_doc("doc", "<r><x/></r>").unwrap();
    let server = Server::start(cat.clone(), ServerConfig::default()).unwrap();
    for old in [1, 2] {
        refused_hello(server.addr(), old);
    }
    let mut v2 = Response::Stats {
        stats: ServerStats::default(),
    }
    .encode();
    let at = v2.len() - 6;
    v2.splice(at..at, [0u8; 8]);
    assert!(matches!(Response::decode(&v2), Err(NetError::Protocol(m)) if m.contains("trailing")));

    let mut spec = QuerySpec::new(QueryTarget::Doc("doc".to_string()), "//x");
    spec.page_size = 7;
    let mut v1 = Request::Query(spec).encode();
    let at = v1.len() - 4;
    v1.splice(at..at, [0u8, 2, 1]);
    assert!(matches!(Request::decode(&v1), Err(NetError::Protocol(m)) if m.contains("trailing")));
    let mut s = raw_handshaken(server.addr());
    s.write_all(&(v1.len() as u32).to_le_bytes()).unwrap();
    s.write_all(&v1).unwrap();
    let payload = raw_read_frame(&mut s);
    assert_eq!(payload[0], 0x81);
    assert_eq!(u16::from_le_bytes(payload[1..3].try_into().unwrap()), 1);
    expect_eof(&mut s);
    server.shutdown();
}

/// A session may hold 64 open cursors: the 65th node-set query is
/// refused with a structured error, nothing else about the session
/// breaks, and closing (or draining) a cursor admits the next one. A
/// client that only ever sends `Query` can no longer grow server memory
/// without bound.
#[test]
fn a_session_holds_at_most_64_open_cursors() {
    let cat = Arc::new(Catalog::in_memory(config()));
    cat.create_doc("doc", "<r><x/><x/></r>").unwrap();
    let server = Server::start(cat.clone(), ServerConfig::default()).unwrap();
    let mut cl = Client::connect(server.addr()).unwrap();
    let open = |cl: &mut Client| match cl.query("doc", "//x", None) {
        Ok(QueryReply::Cursor(cur)) => Ok(cur),
        Ok(QueryReply::Scalar(v)) => panic!("expected a cursor, got {v:?}"),
        Err(e) => Err(e),
    };
    let cursors: Vec<_> = (0..64).map(|_| open(&mut cl).unwrap()).collect();
    match open(&mut cl) {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, ErrorCode::TooManyCursors),
        other => panic!("the 65th cursor must be refused, got {other:?}"),
    }
    // Refused, not hung up: scalars, pings and fetches still work.
    cl.ping().unwrap();
    assert!(matches!(
        cl.query("doc", "count(//x)", None).unwrap(),
        QueryReply::Scalar(mbxq_xpath::Value::Number(n)) if n == 2.0
    ));
    // Closing one admits one; so does draining one to its last page.
    cl.close_cursor(cursors[0].id).unwrap();
    let readmitted = open(&mut cl).unwrap();
    assert!(open(&mut cl).is_err());
    assert_eq!(cl.drain(&cursors[1]).unwrap()[0].1.len(), 2);
    let last = open(&mut cl).unwrap();
    cl.drain(&last).unwrap();
    assert_eq!(cl.drain(&readmitted).unwrap()[0].1.len(), 2);
    cl.goodbye().unwrap();
    server.shutdown();
}
