//! Per-layer probes: each layer measured from outside by timing calls
//! into its public functions, on fixtures built from the run's own
//! document text. They run only in the traced run, after the windows,
//! and are the same on every workload — a probe's number describes the
//! layer, not the workload.

use crate::corpus::{page_config, point_literal, query_path, UpdateStream, DOC};
use crate::stats;
use crate::workloads::fig9::up_over_ro;
use crate::workloads::point::Served;
use crate::workloads::Ctx;
use mbxq_axes::{
    intersect_sorted, range_semijoin, scan_range_arm, step, step_lifted, Axis, ContextSeq,
    KernelArm, NodeTest,
};
use mbxq_bat::CowVec;
use mbxq_server::proto::{QuerySpec, QueryTarget, Request, Response};
use mbxq_server::QueryReply;
use mbxq_storage::{invariants, InsertPosition, NodeId, PagedDoc, ReadOnlyDoc, TreeView};
use mbxq_txn::op::Op;
use mbxq_txn::wal::{Wal, WalRecord};
use mbxq_xmark::rng::StdRng;
use mbxq_xmark::{run_query, QUERY_COUNT, QUERY_PATHS};
use mbxq_xml::{serialize_document, Document, Node, QName};
use mbxq_xpath::{EvalOptions, EvalStats, WorkerPool, XPath};
use std::hint::black_box;
use std::io::Write as _;
use std::time::Instant;

/// Median ns per call of `f`: 9 timed batches, each sized from a first
/// call to last ≈2 ms.
fn per_call_ns(mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let once = t.elapsed().as_nanos().max(1) as f64;
    let iters = ((2e6 / once) as usize).clamp(1, 1_000_000);
    let batches: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    stats::median(&batches)
}

/// Seconds of one call.
fn once_s<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

fn select(view: &impl TreeView, path: &str) -> Result<Vec<u64>, String> {
    XPath::parse(path)
        .and_then(|p| p.select_from_root(view))
        .map_err(|e| format!("{path}: {e}"))
}

/// Runs every probe; returns `(metric, value)` pairs.
pub fn run(ctx: &Ctx) -> Result<Vec<(&'static str, f64)>, String> {
    let xml = &ctx.corpus.xml;
    let mb = xml.len() as f64 / 1e6;
    let mut out: Vec<(&'static str, f64)> = vec![("xmark.generate_s", ctx.corpus.generate_s)];
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x0009_70be);

    // ---- xml, storage build
    let (doc, s) = once_s(|| Document::parse(xml));
    let doc = doc.map_err(|e| format!("xml parse: {e}"))?;
    out.push(("xml.parse_mb_per_s", mb / s));
    let (text, s) = once_s(|| serialize_document(&doc));
    out.push(("xml.serialize_mb_per_s", text.len() as f64 / 1e6 / s));
    drop((doc, text));
    let (ro, s) = once_s(|| ReadOnlyDoc::parse_str(xml));
    let ro = ro.map_err(|e| format!("shred ro: {e}"))?;
    out.push(("storage.ro_build_mb_per_s", mb / s));
    let (up, s) = once_s(|| PagedDoc::parse_str(xml, page_config()));
    let up = up.map_err(|e| format!("shred up: {e}"))?;
    out.push(("storage.shred_mb_per_s", mb / s));

    storage(&ro, &up, &mut rng, &mut out)?;
    bat(&mut out);
    axes(&ro, &up, &mut out)?;
    xpath(&up, ctx.corpus.cfg.items(), &mut out)?;
    xmark(&ro, &up, &mut out)?;
    drop((ro, up));
    wal(ctx, &mut out)?;
    codec(&mut out)?;
    out.push(("xupdate.parse_us", {
        let script = UpdateStream::new(&ctx.corpus.cfg, ctx.seed).prime().script;
        per_call_ns(|| {
            black_box(mbxq_xupdate::parse_modifications(&script).ok());
        }) / 1e3
    }));
    served(ctx, &mut out)?;
    Ok(out)
}

fn storage(
    ro: &ReadOnlyDoc,
    up: &PagedDoc,
    rng: &mut StdRng,
    out: &mut Vec<(&'static str, f64)>,
) -> Result<(), String> {
    let st = up.stats();
    out.push((
        "storage.table_bytes_per_node.ro",
        ro.table_bytes() as f64 / ro.used_count() as f64,
    ));
    out.push((
        "storage.table_bytes_per_node.up",
        st.table_bytes as f64 / st.used as f64,
    ));

    // node → pos → pre on random live nodes.
    let nodes: Vec<NodeId> = (0..4096)
        .filter_map(|_| up.node_id(rng.gen_range(0..up.pre_end() as usize) as u64))
        .collect();
    out.push((
        "storage.pre_of_node_ns",
        per_call_ns(|| {
            for n in &nodes {
                black_box(up.node_to_pre(*n).ok());
            }
        }) / nodes.len().max(1) as f64,
    ));

    // Per-slot accessor reads through the view (what un-batched code
    // pays), one full pass over the pre plane.
    fn slot_pass<V: TreeView>(v: &V) -> f64 {
        per_call_ns(|| {
            let mut acc = 0u64;
            for pre in 0..v.pre_end() {
                acc += v.size(pre)
                    + u64::from(v.level(pre).unwrap_or(0))
                    + v.kind(pre).map_or(0, |k| k as u64);
            }
            black_box(acc);
        }) / v.pre_end() as f64
    }
    out.push(("storage.slot_read_ns.ro", slot_pass(ro)));
    out.push(("storage.slot_read_ns.up", slot_pass(up)));

    let id = up
        .pool()
        .lookup_qname(&QName::local("id"))
        .ok_or("no id attribute in the document")?;
    let mut n = 0usize;
    out.push((
        "storage.index_probe_ns",
        per_call_ns(|| {
            n = (n + 7919) % 4096;
            black_box(up.nodes_with_attr_value(id, &format!("item{n}")));
        }),
    ));

    // Structural updates on a private copy, no transaction around them.
    out.push((
        "storage.clone_us",
        per_call_ns(|| drop(black_box(up.clone()))) / 1e3,
    ));
    let auctions = select(up, "/site/open_auctions/open_auction")?;
    let targets: Vec<NodeId> = auctions.iter().filter_map(|&p| up.node_id(p)).collect();
    let subtree = Node::element("mbxqbid")
        .with_attr("mark", "probe")
        .with_child(Node::element("date").with_child(Node::text("01/02/2005")))
        .with_child(Node::element("increase").with_child(Node::text("4.50")));
    let mut private = up.clone();
    let (mut ins, mut del) = (Vec::new(), Vec::new());
    for i in 0..200 {
        let target = targets[(i * 31) % targets.len()];
        let t = Instant::now();
        let r = private
            .insert(InsertPosition::LastChildOf(target), &subtree)
            .map_err(|e| format!("probe insert: {e}"))?;
        ins.push(t.elapsed().as_nanos() as f64 / 1e3);
        let new = private
            .pre_to_node(r.new_root_pre)
            .map_err(|e| e.to_string())?;
        let t = Instant::now();
        private
            .delete(new)
            .map_err(|e| format!("probe delete: {e}"))?;
        del.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    out.push(("storage.insert_us", stats::median(&ins)));
    out.push(("storage.delete_us", stats::median(&del)));

    let (ok, s) = once_s(|| invariants::check_paged(&private));
    ok.map_err(|e| format!("probe copy broke invariants: {e}"))?;
    out.push(("storage.check_invariants_ms", s * 1e3));
    Ok(())
}

fn bat(out: &mut Vec<(&'static str, f64)>) {
    const LEN: usize = 1 << 20;
    const PAGE: usize = 1024;
    let mut base: CowVec<u64> = CowVec::new(PAGE);
    for i in 0..LEN {
        base.push(i as u64);
    }
    let mut i = 0usize;
    out.push((
        "bat.cow_read_ns",
        per_call_ns(|| {
            i = (i + 104_729) % LEN;
            black_box(base[i]);
        }),
    ));
    // A fresh clone shares every page; the first write to a page copies it.
    let per_page: Vec<f64> = (0..5)
        .map(|_| {
            let mut copy = base.clone();
            let t = Instant::now();
            for p in 0..LEN / PAGE {
                copy[p * PAGE] = 1;
            }
            t.elapsed().as_nanos() as f64 / (LEN / PAGE) as f64
        })
        .collect();
    out.push(("bat.cow_page_privatize_ns", stats::median(&per_page)));
}

fn axes(ro: &ReadOnlyDoc, up: &PagedDoc, out: &mut Vec<(&'static str, f64)>) -> Result<(), String> {
    fn desc<V: TreeView>(v: &V) -> f64 {
        let root: Vec<u64> = v.root_pre().into_iter().collect();
        let mut found = 1usize;
        per_call_ns(|| {
            found = step(v, &root, Axis::Descendant, &NodeTest::AnyElement)
                .len()
                .max(1);
        }) / found as f64
    }
    out.push(("axes.desc_staircase_ns_per_node.ro", desc(ro)));
    out.push(("axes.desc_staircase_ns_per_node.up", desc(up)));

    let auctions = select(up, "/site/open_auctions/open_auction")?;
    let ctx = ContextSeq::lift(&auctions);
    out.push((
        "axes.child_staircase_ns_per_ctx.up",
        per_call_ns(|| {
            black_box(step_lifted(up, &ctx, Axis::Child, &NodeTest::AnyElement));
        }) / auctions.len().max(1) as f64,
    ));

    let item = NodeTest::Name(QName::local("item"));
    for (name, arm) in [
        ("axes.scan_range_ns_per_slot.scalar", KernelArm::Scalar),
        ("axes.scan_range_ns_per_slot.simd", KernelArm::Simd),
    ] {
        let mut hits = Vec::new();
        out.push((
            name,
            per_call_ns(|| {
                hits.clear();
                scan_range_arm(up, 0, up.pre_end(), &item, arm, &mut hits);
            }) / up.pre_end() as f64,
        ));
    }

    let regions = ContextSeq::lift(&select(up, "/site/regions/*")?);
    let items = select(up, "//item")?;
    out.push((
        "axes.semijoin_ns_per_row",
        per_call_ns(|| {
            black_box(range_semijoin(up, &regions, &items, Axis::Child));
        }) / items.len().max(1) as f64,
    ));

    // Two balanced sorted lists with a one-in-six overlap.
    let a: Vec<u64> = (0..100_000u64).map(|i| i * 2).collect();
    let b: Vec<u64> = (0..100_000u64).map(|i| i * 3).collect();
    out.push((
        "axes.intersect_ns_per_elem",
        per_call_ns(|| {
            black_box(intersect_sorted(&[&a, &b], KernelArm::auto()));
        }) / (a.len() + b.len()) as f64,
    ));
    Ok(())
}

fn xpath(up: &PagedDoc, items: usize, out: &mut Vec<(&'static str, f64)>) -> Result<(), String> {
    let text = point_literal(items / 2);
    out.push((
        "xpath.compile_us",
        per_call_ns(|| {
            black_box(XPath::parse(&text).ok());
        }) / 1e3,
    ));
    let point = XPath::parse(&text).map_err(|e| e.to_string())?;
    out.push((
        "xpath.exec_point_us",
        per_call_ns(|| {
            black_box(point.select_from_root(up).ok());
        }) / 1e3,
    ));
    let scan = XPath::parse(query_path("q07_descriptions")).map_err(|e| e.to_string())?;
    let seq_ns = per_call_ns(|| {
        black_box(scan.select_from_root(up).ok());
    });
    out.push(("xpath.exec_scan_us", seq_ns / 1e3));

    // Strategy counts of one pass over the engine's path corpus: exact,
    // so a change of plan choice shows as a changed count.
    let stats = EvalStats::default();
    for (label, path) in QUERY_PATHS {
        XPath::parse(path)
            .and_then(|p| p.select_from_root_opts(up, &EvalOptions::new().stats(&stats)))
            .map_err(|e| format!("{label}: {e}"))?;
    }
    out.extend([
        ("xpath.index_steps", stats.index_steps.get() as f64),
        ("xpath.staircase_steps", stats.staircase_steps.get() as f64),
        (
            "xpath.value_probe_steps",
            stats.value_probe_steps.get() as f64,
        ),
        (
            "xpath.value_scan_steps",
            stats.value_scan_steps.get() as f64,
        ),
        (
            "xpath.multi_probe_steps",
            stats.multi_probe_steps.get() as f64,
        ),
        ("xpath.simd_steps", stats.simd_steps.get() as f64),
    ]);

    // Diagnostic on a two-core host: the same scan on a 2-thread pool,
    // the one measurement that leaves the run's single CPU.
    let (par_ns, steals) = crate::cpu::pin().on_all_cpus(|| {
        let pool = WorkerPool::new(2);
        let ns = per_call_ns(|| {
            black_box(
                scan.select_from_root_opts(up, &EvalOptions::new().pool(&pool))
                    .ok(),
            );
        });
        (ns, pool.steals_total())
    });
    out.push(("xpath.par_speedup_2t", seq_ns / par_ns));
    out.push(("xpath.pool_steals", steals as f64));
    Ok(())
}

/// Three passes of Q1–Q20 on both schemas; per-query medians.
fn xmark(
    ro: &ReadOnlyDoc,
    up: &PagedDoc,
    out: &mut Vec<(&'static str, f64)>,
) -> Result<(), String> {
    const NAMES: [&str; QUERY_COUNT] = [
        "xmark.q01_up_us",
        "xmark.q02_up_us",
        "xmark.q03_up_us",
        "xmark.q04_up_us",
        "xmark.q05_up_us",
        "xmark.q06_up_us",
        "xmark.q07_up_us",
        "xmark.q08_up_us",
        "xmark.q09_up_us",
        "xmark.q10_up_us",
        "xmark.q11_up_us",
        "xmark.q12_up_us",
        "xmark.q13_up_us",
        "xmark.q14_up_us",
        "xmark.q15_up_us",
        "xmark.q16_up_us",
        "xmark.q17_up_us",
        "xmark.q18_up_us",
        "xmark.q19_up_us",
        "xmark.q20_up_us",
    ];
    let mut times = vec![(Vec::new(), Vec::new()); QUERY_COUNT];
    for _ in 0..3 {
        for q in 1..=QUERY_COUNT {
            let (a, s_ro) = once_s(|| run_query(ro, q));
            let (b, s_up) = once_s(|| run_query(up, q));
            if a.map_err(|e| e.to_string())? != b.map_err(|e| e.to_string())? {
                return Err(format!("Q{q}: schemas disagree"));
            }
            times[q - 1].0.push(s_ro * 1e6);
            times[q - 1].1.push(s_up * 1e6);
        }
    }
    let med: Vec<(f64, f64)> = times
        .iter()
        .map(|(r, u)| (stats::median(r), stats::median(u)))
        .collect();
    for (name, (_, u)) in NAMES.iter().zip(&med) {
        out.push((name, *u));
    }
    out.push((
        "xmark.up_over_ro",
        up_over_ro(|class| {
            let q: usize = class[1..3].parse().expect("class is qNN.schema");
            if class.ends_with(".ro") {
                med[q - 1].0
            } else {
                med[q - 1].1
            }
        }),
    ));
    Ok(())
}

fn wal(ctx: &Ctx, out: &mut Vec<(&'static str, f64)>) -> Result<(), String> {
    std::fs::create_dir_all(&ctx.tmp_dir).map_err(|e| e.to_string())?;
    let path = ctx
        .tmp_dir
        .join(format!("probe-{}.wal", std::process::id()));
    let result = (|| {
        let mut wal = Wal::file(&path).map_err(|e| e.to_string())?;
        // A value-update commit: the median-size record of the op stream.
        let record = WalRecord::Commit {
            txn: 1,
            ops: vec![Op::UpdateValue {
                node: NodeId(12_345),
                value: "Renamed Person17".to_string(),
            }],
        };
        let mut us = Vec::new();
        for _ in 0..200 {
            let t = Instant::now();
            wal.append(&record).map_err(|e| e.to_string())?;
            us.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
        out.push(("wal.append_us", stats::median(&us)));
        drop(wal);
        // The device's share: a bare 64-byte append + sync_data.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| e.to_string())?;
        let mut us = Vec::new();
        for _ in 0..200 {
            let t = Instant::now();
            f.write_all(&[b'x'; 64])
                .and_then(|_| f.sync_data())
                .map_err(|e| e.to_string())?;
            us.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
        out.push(("wal.fsync_probe_us", stats::median(&us)));
        Ok(())
    })();
    let _ = std::fs::remove_file(&path);
    result
}

fn codec(out: &mut Vec<(&'static str, f64)>) -> Result<(), String> {
    let req = Request::Query(QuerySpec::new(
        QueryTarget::Doc(DOC.to_string()),
        point_literal(1234),
    ));
    let bytes = req.encode();
    out.push((
        "server.req_encode_ns",
        per_call_ns(|| drop(black_box(req.encode()))),
    ));
    out.push((
        "server.req_decode_ns",
        per_call_ns(|| {
            black_box(Request::decode(&bytes).ok());
        }),
    ));
    const ROWS: usize = 1024;
    let page = Response::Page {
        done: false,
        rows: (0..ROWS as u64).map(|i| (0, i * 7)).collect(),
    };
    let bytes = page.encode();
    Response::decode(&bytes).map_err(|e| e.to_string())?;
    out.push((
        "server.resp_encode_ns_per_row",
        per_call_ns(|| drop(black_box(page.encode()))) / ROWS as f64,
    ));
    out.push((
        "server.resp_decode_ns_per_row",
        per_call_ns(|| {
            black_box(Response::decode(&bytes).ok());
        }) / ROWS as f64,
    ));
    Ok(())
}

/// Probes that need a live server and its shard.
fn served(ctx: &Ctx, out: &mut Vec<(&'static str, f64)>) -> Result<(), String> {
    let mut served = Served::start(&ctx.corpus.xml, 1)?;
    let result = (|| {
        let client = served.clients.first_mut().ok_or("no client")?;
        out.push((
            "server.ping_rtt_us",
            per_call_ns(|| {
                black_box(client.ping().ok());
            }) / 1e3,
        ));
        // One full 1024-row page per fetch.
        let mut us = Vec::new();
        for _ in 0..20 {
            let reply = client
                .query(DOC, query_path("q07_descriptions"), None)
                .map_err(|e| e.to_string())?;
            let QueryReply::Cursor(cur) = reply else {
                return Err("descriptions did not open a cursor".to_string());
            };
            let t = Instant::now();
            let (done, rows) = client.fetch(cur.id).map_err(|e| e.to_string())?;
            if rows.len() == 1024 {
                us.push(t.elapsed().as_nanos() as f64 / 1e3);
            }
            if !done {
                client.close_cursor(cur.id).map_err(|e| e.to_string())?;
            }
        }
        out.push(("server.fetch_page_us", stats::median(&us)));

        let shard = served.cat.shard(DOC).ok_or("document vanished")?;
        out.push((
            "txn.snapshot_ns",
            per_call_ns(|| drop(black_box(shard.snapshot()))),
        ));
        let text = point_literal(ctx.corpus.cfg.items() / 2);
        let plan = XPath::parse(&text).map_err(|e| e.to_string())?;
        let snap = shard.snapshot();
        let through = per_call_ns(|| {
            black_box(shard.query_nodes(&text).ok());
        });
        let bare = per_call_ns(|| {
            black_box(plan.select_from_root(&*snap).ok());
        });
        out.push(("txn.query_overhead_us", (through - bare) / 1e3));
        drop(snap);
        let (report, s) = once_s(|| shard.vacuum());
        report.map_err(|e| format!("vacuum: {e}"))?;
        out.push(("txn.vacuum_ms", s * 1e3));
        Ok(())
    })();
    served.stop();
    result
}
