//! Metric tables (the code-side twin of `BENCHMARK.json`, kept equal
//! by a unit test), the run manifest, the result file and the final
//! contract line.

use crate::json::Json;
use crate::trace::{layer_shares, Span};
use crate::workloads::Outcome;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` = lower is better.
    pub lower: bool,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// The end-to-end metrics, reported by every workload.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        lower: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        lower: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        lower: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        lower: true,
        bound: 0.05,
    },
    EndToEnd {
        name: "stored_bytes_per_xml_byte",
        unit: "ratio",
        lower: true,
        bound: 0.02,
    },
];

/// `(name, unit, lower is better)` of every per-layer metric. A layer
/// a workload bypasses reads 0 there — that is the prediction "no
/// work", made visible.
pub const PER_LAYER: &[(&str, &str, bool)] = &[
    // server — moves op_p50_us @ point_server, mixed_server
    ("server.ping_rtt_us", "us", true),
    ("server.req_encode_ns", "ns", true),
    ("server.req_decode_ns", "ns", true),
    ("server.resp_encode_ns_per_row", "ns", true),
    ("server.resp_decode_ns_per_row", "ns", true),
    ("server.fetch_page_us", "us", true),
    ("server.frames_per_op", "count", true),
    ("server.bytes_per_op", "B", true),
    ("server.wire_overhead_us", "us", true),
    // txn — reads @ point_server; writes, checkpoint, recovery @ update_durable
    ("txn.snapshot_ns", "ns", true),
    ("txn.query_overhead_us", "us", true),
    ("txn.plan_hit_ratio", "ratio", false),
    ("txn.plan_evictions", "count", true),
    ("txn.exec_xupdate_us", "us", true),
    ("txn.commit_us", "us", true),
    ("txn.commit_pages_touched", "count", true),
    ("txn.group_records_per_batch", "ratio", false),
    ("txn.checkpoint_ms", "ms", true),
    ("txn.checkpoint_bytes", "B", true),
    ("txn.recover_s", "s", true),
    ("txn.recover_replay_us_per_record", "us", true),
    ("txn.vacuum_ms", "ms", true),
    ("txn.occupancy_end", "ratio", false),
    // wal — moves op_p50_us @ update_durable only
    ("wal.bytes_per_commit", "B", true),
    ("wal.syncs_per_commit", "ratio", true),
    ("wal.append_us", "us", true),
    ("wal.fsync_probe_us", "us", true),
    // xupdate — moves write latency @ update_durable, mixed_server
    ("xupdate.parse_us", "us", true),
    // xpath — compile @ point_server miss class; exec @ every read
    ("xpath.compile_us", "us", true),
    ("xpath.exec_point_us", "us", true),
    ("xpath.exec_scan_us", "us", true),
    ("xpath.index_steps", "count", false),
    ("xpath.staircase_steps", "count", true),
    ("xpath.value_probe_steps", "count", false),
    ("xpath.value_scan_steps", "count", true),
    ("xpath.multi_probe_steps", "count", false),
    ("xpath.simd_steps", "count", false),
    ("xpath.par_speedup_2t", "ratio", false),
    ("xpath.pool_steals", "count", true),
    // axes — moves op_p50_us @ fig9_embedded, not point_server
    ("axes.desc_staircase_ns_per_node.ro", "ns", true),
    ("axes.desc_staircase_ns_per_node.up", "ns", true),
    ("axes.child_staircase_ns_per_ctx.up", "ns", true),
    ("axes.scan_range_ns_per_slot.scalar", "ns", true),
    ("axes.scan_range_ns_per_slot.simd", "ns", true),
    ("axes.semijoin_ns_per_row", "ns", true),
    ("axes.intersect_ns_per_elem", "ns", true),
    // storage — build moves setup_s everywhere; reads @ fig9; updates @ update_durable
    ("storage.shred_mb_per_s", "MB/s", false),
    ("storage.ro_build_mb_per_s", "MB/s", false),
    ("storage.table_bytes_per_node.ro", "B", true),
    ("storage.table_bytes_per_node.up", "B", true),
    ("storage.pre_of_node_ns", "ns", true),
    ("storage.slot_read_ns.ro", "ns", true),
    ("storage.slot_read_ns.up", "ns", true),
    ("storage.index_probe_ns", "ns", true),
    ("storage.insert_us", "us", true),
    ("storage.delete_us", "us", true),
    ("storage.clone_us", "us", true),
    ("storage.check_invariants_ms", "ms", true),
    // bat — moves write latency @ update_durable, peak_rss_mb @ mixed_server
    ("bat.cow_page_privatize_ns", "ns", true),
    ("bat.cow_read_ns", "ns", true),
    // xml — moves setup_s everywhere
    ("xml.parse_mb_per_s", "MB/s", false),
    ("xml.serialize_mb_per_s", "MB/s", false),
    // xmark — the per-query medians behind up_over_ro
    ("xmark.generate_s", "s", true),
    ("xmark.up_over_ro", "ratio", true),
    ("xmark.q01_up_us", "us", true),
    ("xmark.q02_up_us", "us", true),
    ("xmark.q03_up_us", "us", true),
    ("xmark.q04_up_us", "us", true),
    ("xmark.q05_up_us", "us", true),
    ("xmark.q06_up_us", "us", true),
    ("xmark.q07_up_us", "us", true),
    ("xmark.q08_up_us", "us", true),
    ("xmark.q09_up_us", "us", true),
    ("xmark.q10_up_us", "us", true),
    ("xmark.q11_up_us", "us", true),
    ("xmark.q12_up_us", "us", true),
    ("xmark.q13_up_us", "us", true),
    ("xmark.q14_up_us", "us", true),
    ("xmark.q15_up_us", "us", true),
    ("xmark.q16_up_us", "us", true),
    ("xmark.q17_up_us", "us", true),
    ("xmark.q18_up_us", "us", true),
    ("xmark.q19_up_us", "us", true),
    ("xmark.q20_up_us", "us", true),
    // client — the harness's own view of the traced run
    ("client.failed_ops", "count", true),
    ("client.read_p50_us", "us", true),
    ("client.write_p50_us", "us", true),
    ("client.read_p99_us", "us", true),
    ("client.write_p99_us", "us", true),
    ("client.samples_read", "count", false),
    ("client.samples_write", "count", false),
    ("client.window_spread", "ratio", true),
    ("client.stationarity_drift", "ratio", true),
    ("client.trace_overhead_ratio", "ratio", true),
    // the host as the untraced windows found it, and their end-to-end
    // values as measured, before host speed was applied
    ("client.host_speed", "ratio", false),
    ("client.raw_setup_s", "s", true),
    ("client.raw_ops_per_s", "1/s", false),
    ("client.raw_op_p50_us", "us", true),
    // traced self-time share per layer (span minus children)
    ("trace.self_share.client", "ratio", true),
    ("trace.self_share.server", "ratio", true),
    ("trace.self_share.txn", "ratio", true),
    ("trace.self_share.xupdate", "ratio", true),
    ("trace.self_share.xpath", "ratio", true),
];

fn e2e_unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

fn layer_unit(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _, _)| *n == name)
        .map_or("", |(_, u, _)| u)
}

fn metric_table(values: &[(&'static str, f64)], unit_of: fn(&str) -> &'static str) -> Json {
    Json::obj(values.iter().map(|(name, v)| {
        let m = Json::obj([("value", Json::Num(*v)), ("unit", Json::str(unit_of(name)))]);
        (*name, m)
    }))
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|r| r.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metric values of an outcome, in table order. They
/// come from the untraced windows only.
pub fn end_to_end(o: &Outcome) -> Vec<(&'static str, f64)> {
    vec![
        ("setup_s", o.setup_s()),
        ("ops_per_s", o.untraced.ops_per_s),
        ("op_p50_us", o.untraced.op_p50_us),
        ("peak_rss_mb", o.peak_rss_mb),
        ("stored_bytes_per_xml_byte", o.stored_bytes_per_xml_byte),
    ]
}

/// Every per-layer metric of a traced outcome, in table order: probe
/// values, workload-derived values, the client layer and the span
/// shares. A name nothing measured reads 0.
pub fn per_layer(o: &Outcome, probes: &[(&'static str, f64)]) -> Vec<(&'static str, f64)> {
    let mut known: Vec<(&str, f64)> = probes.to_vec();
    known.extend(o.layer.iter().copied());
    if let Some((s, spans)) = &o.traced {
        known.extend([
            ("client.read_p50_us", s.read_p50_us),
            ("client.write_p50_us", s.write_p50_us),
            ("client.read_p99_us", s.read_p99_us),
            ("client.write_p99_us", s.write_p99_us),
            ("client.samples_read", s.samples_read as f64),
            ("client.samples_write", s.samples_write as f64),
            ("client.window_spread", s.window_spread),
            ("client.stationarity_drift", s.drift),
            // Latency, not throughput: a traced window also holds the
            // explaining replays, which no request waits for.
            (
                "client.trace_overhead_ratio",
                if o.untraced.op_p50_us > 0.0 {
                    s.op_p50_us / o.untraced.op_p50_us
                } else {
                    0.0
                },
            ),
        ]);
        known.extend(share_metrics(spans));
    }
    known.extend([
        ("client.failed_ops", o.failed as f64),
        ("client.host_speed", o.untraced.host_speed),
        ("client.raw_setup_s", o.raw_setup_s()),
        ("client.raw_ops_per_s", o.untraced.raw_ops_per_s),
        ("client.raw_op_p50_us", o.untraced.raw_op_p50_us),
    ]);
    PER_LAYER
        .iter()
        .map(|(name, _, _)| {
            // Workload-derived values come after the probes and win.
            let v = known
                .iter()
                .rev()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, v)| *v);
            (*name, v)
        })
        .collect()
}

fn share_metrics(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let shares = layer_shares(&crate::workloads::attributable(spans));
    PER_LAYER
        .iter()
        .filter_map(|(name, _, _)| {
            let layer = name.strip_prefix("trace.self_share.")?;
            Some((*name, shares.get(layer).copied().unwrap_or(0.0)))
        })
        .collect()
}

/// The contract's last stdout line.
pub fn final_line(o: &Outcome, trace: bool, values: &[(&'static str, f64)]) -> String {
    Json::obj([
        ("correct", Json::Bool(o.correct())),
        ("attempted", Json::Num(o.attempted.max(1) as f64)),
        ("failed", Json::Num(o.failed as f64)),
        (
            "metrics",
            metric_table(values, if trace { layer_unit } else { e2e_unit }),
        ),
    ])
    .render()
}

/// Host and build provenance of a run.
pub fn manifest(workload: &str, seed: u64, scale: f64, seconds: Option<f64>, trace: bool) -> Json {
    Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::Num(seed as f64)),
        ("scale", Json::Num(scale)),
        ("seconds", seconds.map_or(Json::Null, Json::Num)),
        ("trace", Json::Bool(trace)),
        ("git_sha", Json::str(git_sha())),
        ("nproc", Json::Num(crate::cpu::pin().host_cpus as f64)),
        (
            "pinned_cpu",
            crate::cpu::pin()
                .pinned
                .map_or(Json::Null, |c| Json::Num(c as f64)),
        ),
        (
            "kernel_arm",
            Json::str(if mbxq_axes::simd_compiled() {
                "simd"
            } else {
                "scalar"
            }),
        ),
        (
            "calibration",
            Json::obj([
                ("slice_iters", Json::Num(crate::calib::SLICE_ITERS as f64)),
                (
                    "nominal_slice_ns",
                    Json::Num(crate::calib::NOMINAL_SLICE_NS),
                ),
                ("slice_share", Json::Num(crate::calib::SLICE_SHARE)),
                ("response", Json::Num(crate::workloads::response(workload))),
                ("setup_response", Json::Num(crate::calib::SETUP_RESPONSE)),
            ]),
        ),
        ("page_size", Json::Num(256.0)),
        ("fill_percent", Json::Num(80.0)),
        ("setup_reps", Json::Num(crate::workloads::SETUP_REPS as f64)),
        (
            "window_ops",
            Json::obj([
                (
                    "fig9_embedded",
                    Json::Num(2.0 * mbxq_xmark::QUERY_COUNT as f64),
                ),
                (
                    "point_server",
                    Json::Num(4.0 * crate::workloads::point::ROUNDS as f64),
                ),
                (
                    "update_durable",
                    Json::Num(
                        (crate::workloads::update::WINDOW_COMMITS
                            + crate::workloads::update::WINDOW_COMMITS
                                / crate::workloads::update::RYW_EVERY)
                            as f64,
                    ),
                ),
                (
                    "mixed_server",
                    Json::Num(10.0 * crate::workloads::mixed::ROUNDS as f64),
                ),
            ]),
        ),
        (
            "wal_dir",
            Json::str("build directory (same filesystem as the checkout)"),
        ),
        (
            "flush_policy",
            Json::str("sync_data per group-commit batch"),
        ),
    ])
}

/// `HEAD` of the enclosing repository when the run happens inside one
/// (the driver's checkout is not a repository).
fn git_sha() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

/// The result file: manifest, every number the run produced, checks.
pub fn result_file(
    manifest: Json,
    o: &Outcome,
    e2e: &[(&'static str, f64)],
    layers: Option<&[(&'static str, f64)]>,
) -> Json {
    let s = &o.untraced;
    Json::obj([
        ("manifest", manifest),
        ("correct", Json::Bool(o.correct())),
        ("attempted", Json::Num(o.attempted as f64)),
        ("failed", Json::Num(o.failed as f64)),
        (
            "fail_ratio",
            Json::Num(o.failed as f64 / o.attempted.max(1) as f64),
        ),
        (
            "checks",
            Json::Arr(
                o.checks
                    .iter()
                    .map(|(what, ok)| {
                        Json::obj([("check", Json::str(what)), ("ok", Json::Bool(*ok))])
                    })
                    .collect(),
            ),
        ),
        ("end_to_end", metric_table(e2e, e2e_unit)),
        (
            "untraced",
            Json::obj([
                ("windows", Json::Num(s.windows as f64)),
                ("measured_s", Json::Num(s.measured_s)),
                (
                    "setup_runs_s",
                    Json::Arr(
                        o.setup_runs
                            .iter()
                            .map(|r| Json::Num(r.reference_s()))
                            .collect(),
                    ),
                ),
                (
                    "setup_runs_raw_s",
                    Json::Arr(o.setup_runs.iter().map(|r| Json::Num(r.raw_s)).collect()),
                ),
                (
                    "setup_host_speed",
                    Json::Arr(
                        o.setup_runs
                            .iter()
                            .map(|r| Json::Num(r.host_speed))
                            .collect(),
                    ),
                ),
                ("host_speed", Json::Num(s.host_speed)),
                ("raw_ops_per_s", Json::Num(s.raw_ops_per_s)),
                ("raw_op_p50_us", Json::Num(s.raw_op_p50_us)),
                ("read_p50_us", Json::Num(s.read_p50_us)),
                ("write_p50_us", Json::Num(s.write_p50_us)),
                ("read_p99_us", Json::Num(s.read_p99_us)),
                ("write_p99_us", Json::Num(s.write_p99_us)),
                ("window_spread", Json::Num(s.window_spread)),
                ("stationarity_drift", Json::Num(s.drift)),
                (
                    "window_ops_per_s",
                    Json::Arr(
                        s.window_rates
                            .iter()
                            .map(|v| Json::Num(v.round()))
                            .collect(),
                    ),
                ),
                (
                    "window_host_speed",
                    Json::Arr(
                        s.window_speeds
                            .iter()
                            .map(|v| Json::Num((v * 1e4).round() / 1e4))
                            .collect(),
                    ),
                ),
                (
                    "class_p50_us",
                    Json::obj(
                        s.class_p50_us
                            .iter()
                            .map(|(n, v)| (n.as_str(), Json::Num(*v))),
                    ),
                ),
                (
                    "workload_values",
                    Json::obj(o.layer.iter().map(|(n, v)| (*n, Json::Num(*v)))),
                ),
            ]),
        ),
        (
            "per_layer",
            layers.map_or(Json::Null, |l| metric_table(l, layer_unit)),
        ),
        ("claim", Json::Null),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::workloads::WORKLOADS;

    /// `BENCHMARK.json` and the tables in this file must say the same.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let b = json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = b.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let names = |key: &str| -> Vec<String> {
            b.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS.map(|(n, _)| n.to_string()));
        for (w, (_, why)) in b
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .zip(WORKLOADS)
        {
            assert_eq!(w.get("why").and_then(Json::as_str), Some(why));
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        assert_eq!(
            names("end_to_end"),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (m, t) in b
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .zip(&END_TO_END)
        {
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(t.unit));
            let better = if t.lower { "lower" } else { "higher" };
            assert_eq!(m.get("better").and_then(Json::as_str), Some(better));
            assert_eq!(m.get("bound").and_then(Json::as_f64), Some(t.bound));
            assert!(t.bound <= 0.25);
        }
        assert_eq!(
            names("per_layer"),
            PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>()
        );
        for (m, t) in b
            .get("per_layer")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .zip(PER_LAYER)
        {
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(t.1));
            let better = if t.2 { "lower" } else { "higher" };
            assert_eq!(m.get("better").and_then(Json::as_str), Some(better));
        }
        assert!(PER_LAYER.len() <= 128);
        let mut all: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        all.extend(END_TO_END.iter().map(|m| m.name));
        all.extend(WORKLOADS.iter().map(|w| w.0));
        let unique: std::collections::HashSet<&&str> = all.iter().collect();
        assert_eq!(unique.len(), all.len(), "a name is used once");
        assert!(all.iter().all(|n| n.len() <= 64));
    }
}
