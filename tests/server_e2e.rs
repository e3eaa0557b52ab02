//! End-to-end tests of the network server: a real TCP server in front
//! of one shared catalog, concurrent clients doing parameterized
//! queries, streamed cursor reads and write bursts — with every
//! client-observed result **bit-identical** to the same operation
//! issued directly against the [`Catalog`]. Node ids are the stable
//! logical ids, so equality of `Vec<NodeId>` really is bit-equality of
//! the result relation.

use mbxq::{Catalog, CatalogConfig, NodeId, PageConfig, StoreConfig};
use mbxq_server::{Client, QueryReply, QuerySpec, QueryTarget, Server, ServerConfig};
use mbxq_xmark::XMarkConfig;
use mbxq_xpath::{Bindings, EvalOptions, EvalStats, Value};
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn config() -> CatalogConfig {
    CatalogConfig {
        store: StoreConfig {
            lock_timeout: Duration::from_secs(5),
            validate_on_commit: true,
            query_threads: 4,
            ..StoreConfig::default()
        },
        page: PageConfig::new(64, 75).unwrap(),
    }
}

const DOCS: [&str; 2] = ["auction0", "auction1"];

fn xmark_catalog() -> Arc<Catalog> {
    let cat = Arc::new(Catalog::in_memory(config()));
    for (i, name) in DOCS.iter().enumerate() {
        let xml = mbxq_xmark::generate(&XMarkConfig::tiny(11 + i as u64));
        cat.create_doc(name, &xml).unwrap();
    }
    cat
}

/// The acceptance scenario: 4 concurrent clients over 2 XMark
/// documents, mixing parameterized point queries, streamed fan-out
/// reads and write bursts. Every client writes only its own uniquely
/// named marker elements, so the shared query classes stay fixed node
/// sets (stable ids survive inserts) and every observation can be
/// checked bit-for-bit — during the storm against precomputed direct
/// results, and afterwards against the catalog's steady state.
#[test]
fn concurrent_clients_match_direct_catalog() {
    const CLIENTS: usize = 4;
    const ROUNDS: usize = 6;
    let cat = xmark_catalog();
    let server = Server::start(
        cat.clone(),
        ServerConfig {
            workers: CLIENTS + 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // Direct-catalog expectations, computed before any writer starts.
    let expected_param: Vec<Vec<NodeId>> = (0..CLIENTS)
        .map(|c| {
            let mut b = Bindings::new();
            b.set("id", Value::Str(format!("item{c}")));
            cat.query_nodes_opts(
                DOCS[c % 2],
                "//item[@id = $id]",
                &EvalOptions::new().bindings(&b),
            )
            .unwrap()
        })
        .collect();
    let expected_person: Vec<(String, Vec<NodeId>)> = cat
        .query_all("/site/people/person")
        .unwrap()
        .into_iter()
        .map(|m| (m.doc, m.nodes))
        .collect();
    assert!(
        expected_person.iter().map(|(_, n)| n.len()).sum::<usize>() > 0,
        "XMark documents must have people"
    );

    let barrier = Arc::new(Barrier::new(CLIENTS));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let expected_param = expected_param[c].clone();
            let expected_person = expected_person.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                let doc = DOCS[c % 2];
                let mut cl = Client::connect(addr).unwrap();
                barrier.wait();
                for round in 0..ROUNDS {
                    // Parameterized point query, served through a cursor.
                    let mut b = Bindings::new();
                    b.set("id", Value::Str(format!("item{c}")));
                    let got = cl.query_nodes(doc, "//item[@id = $id]", Some(&b)).unwrap();
                    assert_eq!(got, expected_param, "client {c} round {round}");
                    // Cross-document fan-out read, streamed back.
                    let got_all = cl.query_all("/site/people/person", None).unwrap();
                    assert_eq!(got_all, expected_person, "client {c} round {round}");
                    // Write burst: one client-unique marker element.
                    let summary = cl
                        .xupdate(
                            doc,
                            &format!(
                                r#"<xupdate:modifications version="1.0">
                                     <xupdate:append select="/site">
                                       <xupdate:element name="mark{c}">
                                         <xupdate:attribute name="r">{round}</xupdate:attribute>
                                       </xupdate:element>
                                     </xupdate:append>
                                   </xupdate:modifications>"#
                            ),
                        )
                        .unwrap();
                    assert!(summary.nodes_inserted >= 1, "client {c} round {round}");
                    // Read-own-writes: this client is the only writer of
                    // its marker name, and its requests are sequential.
                    let mine = cl.query_nodes(doc, &format!("//mark{c}"), None).unwrap();
                    assert_eq!(mine.len(), round + 1, "client {c} round {round}");
                }
                cl.goodbye().unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // Steady state: every query class, server versus direct catalog,
    // bit-identical — including the marker elements the storm created.
    let mut cl = Client::connect(addr).unwrap();
    for doc in DOCS {
        for q in [
            "//item",
            "/site/people/person",
            "//open_auction",
            "//mark0",
            "//mark1",
            "//mark2",
            "//mark3",
        ] {
            assert_eq!(
                cl.query_nodes(doc, q, None).unwrap(),
                cat.query_nodes(doc, q).unwrap(),
                "{doc} {q}"
            );
        }
    }
    // Parameterized fan-out: the bindings thread through the catalog's
    // parallel fan-out on both sides.
    let mut b = Bindings::new();
    b.set("id", Value::Str("item1".to_string()));
    let direct: Vec<(String, Vec<NodeId>)> = cat
        .query_all_opts("//item[@id = $id]", &EvalOptions::new().bindings(&b))
        .unwrap()
        .into_iter()
        .map(|m| (m.doc, m.nodes))
        .collect();
    assert_eq!(cl.query_all("//item[@id = $id]", Some(&b)).unwrap(), direct);
    // Collection targeting (explicit document list, reversed order).
    let names = vec![DOCS[1].to_string(), DOCS[0].to_string()];
    let direct: Vec<(String, Vec<NodeId>)> = cat
        .query_collection(&names, "//item")
        .unwrap()
        .into_iter()
        .map(|m| (m.doc, m.nodes))
        .collect();
    assert_eq!(cl.query_collection(&names, "//item", None).unwrap(), direct);
    drop(cl);
    server.shutdown();
}

/// Cursor mechanics: fixed-size pages, early close, exhaustion.
#[test]
fn cursors_page_in_fixed_frames() {
    let cat = xmark_catalog();
    let server = Server::start(cat.clone(), ServerConfig::default()).unwrap();
    let mut cl = Client::connect(server.addr()).unwrap();

    let direct = cat.query_nodes(DOCS[0], "//item").unwrap();
    assert!(direct.len() > 3, "need multiple pages");
    let mut spec = QuerySpec::new(QueryTarget::Doc(DOCS[0].to_string()), "//item");
    spec.page_size = 3;
    let cur = match cl.query_spec(spec).unwrap() {
        QueryReply::Cursor(c) => c,
        other => panic!("expected cursor, got {other:?}"),
    };
    assert_eq!(cur.docs, [DOCS[0]]);
    assert_eq!(cur.total, direct.len() as u64);
    let mut rows = Vec::new();
    let mut pages = 0;
    loop {
        let (done, page) = cl.fetch(cur.id).unwrap();
        assert!(page.len() <= 3, "page overflows requested size");
        pages += 1;
        rows.extend(page.into_iter().map(|(_, n)| n));
        if done {
            break;
        }
    }
    assert_eq!(rows, direct, "reassembled pages equal the direct result");
    assert_eq!(pages, direct.len().div_ceil(3));
    // The cursor closed itself on the final page.
    assert!(cl.fetch(cur.id).is_err());

    // Two interleaved cursors; one closed early.
    let open = |cl: &mut Client| {
        let mut spec = QuerySpec::new(QueryTarget::Doc(DOCS[0].to_string()), "//item");
        spec.page_size = 2;
        match cl.query_spec(spec).unwrap() {
            QueryReply::Cursor(c) => c,
            other => panic!("expected cursor, got {other:?}"),
        }
    };
    let a = open(&mut cl);
    let b = open(&mut cl);
    assert_ne!(a.id, b.id);
    let (_, pa) = cl.fetch(a.id).unwrap();
    let (_, pb) = cl.fetch(b.id).unwrap();
    assert_eq!(pa, pb, "independent cursors over the same result");
    cl.close_cursor(a.id).unwrap();
    assert!(cl.fetch(a.id).is_err(), "closed cursor is gone");
    let (_, pb2) = cl.fetch(b.id).unwrap();
    assert_eq!(pb2.len(), 2, "sibling cursor unaffected by the close");
    cl.close_cursor(b.id).unwrap();

    // Scalars bypass the cursor machinery entirely.
    match cl.query(DOCS[0], "count(//item)", None).unwrap() {
        QueryReply::Scalar(Value::Number(n)) => assert_eq!(n as usize, direct.len()),
        other => panic!("expected a number, got {other:?}"),
    }
}

/// Session-pinned snapshots: repeatable reads across requests while
/// other sessions commit, and survival of a concurrent drop.
#[test]
fn pinned_sessions_serve_repeatable_reads() {
    let cat = Arc::new(Catalog::in_memory(config()));
    cat.create_doc("a", "<r><x/></r>").unwrap();
    cat.create_doc("b", "<r><y/></r>").unwrap();
    let server = Server::start(cat.clone(), ServerConfig::default()).unwrap();
    let mut reader = Client::connect(server.addr()).unwrap();
    let mut writer = Client::connect(server.addr()).unwrap();

    assert_eq!(reader.pin(&[]).unwrap(), 2, "empty pin list = all docs");
    let before = reader.query_nodes("a", "//x", None).unwrap();
    assert_eq!(before.len(), 1);

    // Another session commits; the catalog sees it, the pin does not.
    writer
        .xupdate(
            "a",
            r#"<xupdate:modifications version="1.0">
                 <xupdate:append select="/r"><x/></xupdate:append>
               </xupdate:modifications>"#,
        )
        .unwrap();
    assert_eq!(cat.query_nodes("a", "//x").unwrap().len(), 2);
    assert_eq!(
        reader.query_nodes("a", "//x", None).unwrap(),
        before,
        "pinned single-doc read is repeatable"
    );
    let all = reader.query_all("//x", None).unwrap();
    assert_eq!(
        all, // pinned fan-out serves the pinned snapshots
        vec![("a".to_string(), before.clone()), ("b".to_string(), vec![])],
    );

    // Unpin: fresh snapshots again.
    reader.unpin().unwrap();
    assert_eq!(reader.query_nodes("a", "//x", None).unwrap().len(), 2);

    // Re-pin, then drop the document out from under the session: the
    // pin holds the shard alive and keeps answering; a fresh client
    // gets UnknownDocument.
    assert_eq!(reader.pin(&["a".to_string()]).unwrap(), 1);
    let pinned = reader.query_nodes("a", "//x", None).unwrap();
    assert_eq!(pinned.len(), 2);
    writer.drop_doc("a").unwrap();
    assert!(!cat.contains("a"));
    assert_eq!(reader.query_nodes("a", "//x", None).unwrap(), pinned);
    let mut fresh = Client::connect(server.addr()).unwrap();
    assert!(fresh.query_nodes("a", "//x", None).is_err());
}

/// The create/drop/list surface over the wire, including the catalog's
/// plain-name validation answering with a structured error.
#[test]
fn document_lifecycle_over_the_wire() {
    let cat = Arc::new(Catalog::in_memory(config()));
    let server = Server::start(cat.clone(), ServerConfig::default()).unwrap();
    let mut cl = Client::connect(server.addr()).unwrap();

    cl.ping().unwrap();
    cl.create_doc("one", "<r><x/></r>").unwrap();
    cl.create_doc("two", "<r/>").unwrap();
    assert_eq!(cl.list_docs().unwrap(), ["one", "two"]);
    assert!(cl.create_doc("one", "<r/>").is_err(), "duplicate rejected");
    assert!(
        cl.create_doc("bad#name", "<r/>").is_err(),
        "partition namespace rejected over the wire too"
    );
    assert!(cl.create_doc("nl\nname", "<r/>").is_err());
    cl.drop_doc("two").unwrap();
    assert_eq!(cl.list_docs().unwrap(), ["one"]);
    assert!(cl.drop_doc("two").is_err());
    assert_eq!(cl.query_nodes("one", "//x", None).unwrap().len(), 1);
}

/// The Stats opcode: server-wide plan-cache, pool and kernel counters
/// over the wire. The counters are cumulative across every session, so
/// the test asserts monotonic growth and internal consistency rather
/// than absolute values.
#[test]
fn stats_opcode_reports_pool_and_kernel_counters() {
    let cat = xmark_catalog();
    let server = Server::start(cat.clone(), ServerConfig::default()).unwrap();
    let mut cl = Client::connect(server.addr()).unwrap();

    let st0 = cl.stats().unwrap();
    assert_eq!(st0.pool_threads, 4, "catalog config width on the wire");
    assert_eq!(
        st0.simd_compiled,
        mbxq_axes::simd_compiled(),
        "the server must report the kernel arm it was actually built with"
    );

    // A full-document element scan: no name index serves `//*`, so the
    // executor takes the staircase scan the chunk kernels back — and
    // repeating it must hit the shard's plan cache.
    let first = cl.query_nodes(DOCS[0], "//*", None).unwrap();
    assert!(!first.is_empty());
    assert_eq!(cl.query_nodes(DOCS[0], "//*", None).unwrap(), first);

    let st1 = cl.stats().unwrap();
    assert!(st1.plan_entries >= 1, "the scan's plan must be cached");
    assert!(
        st1.plan_hits > st0.plan_hits,
        "repeating a query must hit the plan cache ({} -> {})",
        st0.plan_hits,
        st1.plan_hits
    );
    if mbxq_axes::simd_compiled() {
        assert!(
            st1.simd_steps > st0.simd_steps,
            "a staircase scan on a simd build must count vector dispatches"
        );
    } else {
        assert_eq!(st1.simd_steps, 0, "nothing forces the simd arm here");
    }
    if st1.pool_spawned {
        assert!(
            st1.morsel_overhead_ns > 0,
            "a spawned pool must report its calibrated per-morsel overhead"
        );
    }
    // Cumulative counters never go backwards.
    assert!(st1.plan_misses >= st0.plan_misses);
    assert!(st1.par_steps >= st0.par_steps && st1.morsels >= st0.morsels);
    assert!(st1.pred_par_steps >= st0.pred_par_steps);

    // A multi-predicate step over the wire (how it runs is the server's
    // choice — the protocol carries no strategy): two evaluations must
    // agree, and the cumulative multi-step / intersection counters must
    // grow. Both price ranges are selective on this document, so the
    // cost model intersects their posting lists.
    let mq = "//closed_auction[price > 100][price < 120]";
    let auto = cl.query_nodes(DOCS[0], mq, None).unwrap();
    assert!(!auto.is_empty(), "seed 11 closes auctions in that range");
    let again = cl.query_nodes(DOCS[0], mq, None).unwrap();
    assert_eq!(auto, again, "a multi-predicate query must repeat itself");
    let st2 = cl.stats().unwrap();
    assert!(
        st2.multi_probe_steps >= st1.multi_probe_steps + 2,
        "both evaluations must count their multi-predicate step ({} -> {})",
        st1.multi_probe_steps,
        st2.multi_probe_steps
    );
    assert!(
        st2.intersect_rows > st1.intersect_rows,
        "the intersection produced rows that must be counted"
    );
    cl.goodbye().unwrap();
}

/// The prepared form is the fast form, and every literal text is a
/// prepared query: over TCP, `//item[@id = $id]` with a binding, the
/// same lookup with the literal spliced in, and any number of further
/// literals return the same nodes — and the `Stats` opcode shows the
/// literal texts sharing **one** compile (the `$id` text is a shape of
/// its own: a user parameter keeps its name in the key). Structural, not
/// timed: the executor counters prove the index probe ran and the scan
/// did not.
#[test]
fn bound_and_literal_point_lookups_share_the_probe_path() {
    let cat = xmark_catalog();
    let server = Server::start(cat.clone(), ServerConfig::default()).unwrap();
    let mut cl = Client::connect(server.addr()).unwrap();
    let doc = DOCS[0];
    let bound_form = |cl: &mut Client, n: usize| {
        let mut b = Bindings::new();
        b.set("id", Value::Str(format!("item{n}")));
        cl.query_nodes(doc, "//item[@id = $id]", Some(&b)).unwrap()
    };

    let st0 = cl.stats().unwrap();
    let bound = bound_form(&mut cl, 3);
    assert_eq!(bound.len(), 1, "item3 exists exactly once");
    let st1 = cl.stats().unwrap();
    assert_eq!(st1.plan_misses, st0.plan_misses + 1, "the `$id` shape");

    let literal = cl
        .query_nodes(doc, "//item[@id = \"item3\"]", None)
        .unwrap();
    assert_eq!(literal, bound);
    let st2 = cl.stats().unwrap();
    assert_eq!(st2.plan_misses, st1.plan_misses + 1, "the literal shape");

    // Second and later literals — other keys, other spacing, a miss.
    for i in 0..40 {
        let n = i % 8; // the tiny corpus has only a handful of items
        let text = format!("//item[ @id=\"item{n}\" ]{}", " ".repeat(i % 3));
        let got = cl.query_nodes(doc, &text, None).unwrap();
        assert_eq!(got, bound_form(&mut cl, n), "{text}");
        assert_eq!(got.len(), 1, "{text}");
    }
    assert!(cl
        .query_nodes(doc, "//item[@id = \"no such item\"]", None)
        .unwrap()
        .is_empty());
    let st3 = cl.stats().unwrap();
    assert_eq!(
        (st3.plan_misses, st3.plan_entries, st3.plan_evictions),
        (st2.plan_misses, st2.plan_entries, 0),
        "every literal text after the first is a cache hit on one entry"
    );
    assert!(st3.plan_hits >= st2.plan_hits + 81);

    // The same two forms in-process, with the executor's counters: one
    // content-index probe each, no scan.
    for (text, bindings) in [
        ("//item[@id = $id]", {
            let mut b = Bindings::new();
            b.set("id", Value::Str("item3".into()));
            Some(b)
        }),
        ("//item[@id = \"item3\"]", None),
    ] {
        let stats = EvalStats::default();
        let mut opts = EvalOptions::new().stats(&stats);
        if let Some(b) = &bindings {
            opts = opts.bindings(b);
        }
        assert_eq!(cat.query_nodes_opts(doc, text, &opts).unwrap(), bound);
        assert_eq!(
            (stats.value_probe_steps.get(), stats.value_scan_steps.get()),
            (1, 0),
            "{text} must probe, not scan"
        );
    }
    cl.goodbye().unwrap();
}
