//! The four workloads and what they share: repeated timed set-up, the
//! untraced-then-traced measurement phases, and the in-process replay
//! that explains a server round trip.

pub mod fig9;
pub mod mixed;
pub mod point;
pub mod update;

use crate::calib::{host_speed, Calibrator, SETUP_RESPONSE};
use crate::corpus::Corpus;
use crate::harness::{run_windows, Budget, Class, Rec, Summary, Windowed};
use crate::stats;
use crate::trace::{Span, Tracer};
use mbxq_txn::Shard;
use mbxq_xpath::{Bindings, EvalOptions, XPath};
use std::path::PathBuf;
use std::time::Instant;

/// `(name, why)` of every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "fig9_embedded",
        "paper Fig. 9: XMark Q1-Q20 in-process on the read-only and the updatable schema; only xpath, axes and storage work, so the pos->pre tax shows; txn, wal and server are bypassed",
    ),
    (
        "point_server",
        "one TCP client, point lookups and 1-6-row paths, 4096 literal texts against the 1024-plan cache: codec, session, plan cache and per-query fixed costs dominate; scans and commits are bypassed",
    ),
    (
        "update_durable",
        "in-process single writer on a file-backed catalog cycling the paper's update kinds: xupdate, storage update, COW commit, WAL, checkpoint and recovery work; server and scan kernels do none",
    ),
    (
        "mixed_server",
        "two TCP connections on one document, scans with cursor paging alternating with commits: a read gain bought with commit cost, or the reverse, regresses here; result encoding carries weight",
    ),
];

/// How much more a workload's ops slow than a calibration slice does
/// when the host slows (see [`crate::calib`]): the slope of log(window
/// rate) against log(slice time), measured over three series of 13–19
/// runs per workload (8 s each, 1800 windows in all) and frozen. The
/// reading workloads came out at 1.1–1.6 (used: 1.5), `update_durable`
/// at 1.6–1.8, `mixed_server` — the one that moves most memory — at
/// 1.7–1.8, and above 2 in the worst episode seen.
pub fn response(workload: &str) -> f64 {
    match workload {
        "update_durable" => 1.6,
        "mixed_server" => 1.8,
        _ => 1.5,
    }
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Everything a workload needs to run.
pub struct Ctx {
    pub corpus: Corpus,
    pub seed: u64,
    pub budget: Budget,
    pub trace: bool,
    /// The workload's [`response`].
    pub response: f64,
    /// Scratch directory for WAL files (inside the build directory).
    pub tmp_dir: PathBuf,
}

/// What a workload hands back.
pub struct Outcome {
    pub setup_runs: Vec<SetupRun>,
    /// `VmHWM` when the measurement and its checks ended, before the
    /// repeated set-ups.
    pub peak_rss_mb: f64,
    /// Updatable-schema table bytes per byte of XML text, after set-up.
    pub stored_bytes_per_xml_byte: f64,
    /// Summary of the untraced windows — the only source of
    /// end-to-end numbers.
    pub untraced: Summary,
    /// Summary and spans of the traced windows (`--trace 1` only).
    pub traced: Option<(Summary, Vec<Span>)>,
    pub attempted: u64,
    pub failed: u64,
    /// End-of-run checks (digests, cardinalities, invariants) that are
    /// not single ops.
    pub checks: Vec<(String, bool)>,
    /// Workload-derived per-layer metrics and informational values.
    pub layer: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Median set-up time at nominal host speed.
    pub fn setup_s(&self) -> f64 {
        let v: Vec<f64> = self.setup_runs.iter().map(SetupRun::reference_s).collect();
        stats::median(&v)
    }

    /// Median set-up time as measured.
    pub fn raw_setup_s(&self) -> f64 {
        let v: Vec<f64> = self.setup_runs.iter().map(|r| r.raw_s).collect();
        stats::median(&v)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }
}

pub fn run(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match name {
        "fig9_embedded" => fig9::run(ctx),
        "point_server" => point::run(ctx),
        "update_durable" => update::run(ctx),
        "mixed_server" => mixed::run(ctx),
        other => Err(format!(
            "unknown workload '{other}' (known: {})",
            WORKLOADS.map(|(n, _)| n).join(", ")
        )),
    }
}

/// Times the run's set-ups. The first one builds the state the
/// windows run on; the others run after the measurement, when the peak
/// resident set has been read, so allocator history from repeated
/// set-ups cannot leak into `peak_rss_mb`.
#[derive(Default)]
pub struct Setups {
    pub runs: Vec<SetupRun>,
    cal: Calibrator,
}

/// One timed set-up and the host speed measured around it.
#[derive(Debug, Clone, Copy)]
pub struct SetupRun {
    pub raw_s: f64,
    pub host_speed: f64,
}

impl SetupRun {
    /// The set-up's time at nominal host speed.
    pub fn reference_s(&self) -> f64 {
        self.raw_s * self.host_speed
    }
}

/// Calibration slices before and after each set-up (≈5 ms each side).
const SETUP_SLICES: usize = 48;

impl Setups {
    pub fn time<S>(&mut self, build: impl FnOnce() -> Result<S, String>) -> Result<S, String> {
        let before = self.cal.burst(SETUP_SLICES);
        let t = Instant::now();
        let state = build()?;
        let raw_s = t.elapsed().as_secs_f64();
        let after = self.cal.burst(SETUP_SLICES);
        self.runs.push(SetupRun {
            raw_s,
            host_speed: host_speed(2 * SETUP_SLICES as u64, before + after, SETUP_RESPONSE),
        });
        Ok(state)
    }

    /// The remaining `SETUP_REPS - 1` set-ups, each torn down at once.
    pub fn rest<S>(
        mut self,
        mut build: impl FnMut(usize) -> Result<S, String>,
        mut discard: impl FnMut(S),
    ) -> Result<Vec<SetupRun>, String> {
        for rep in 1..SETUP_REPS {
            let state = self.time(|| build(rep))?;
            discard(state);
        }
        Ok(self.runs)
    }
}

/// The measured phases of a run, reduced.
pub struct Measured {
    pub untraced: Summary,
    /// Summary and spans of the traced windows.
    pub traced: Option<(Summary, Vec<Span>)>,
    /// Attempts and failures of both phases.
    pub attempted: u64,
    pub failed: u64,
    /// Attempts of the traced phase alone (the base of per-op counts).
    pub traced_attempted: u64,
}

/// Untraced windows for the whole budget — or, in a traced run, a
/// quarter of it untraced (the base of `client.trace_overhead_ratio`)
/// and half of it traced; the rest of a traced run goes to the probes.
/// `switch` runs between the phases (server workloads swap the real
/// client for the span-recording one there).
pub fn measure<W: Windowed>(
    work: &mut W,
    classes: &[Class],
    ctx: &Ctx,
    switch: impl FnOnce(&mut W) -> Result<(), String>,
) -> Result<Measured, String> {
    let part = |share: f64| match ctx.budget {
        Budget::Seconds(s) if ctx.trace => Budget::Seconds(s * share),
        other => other,
    };
    let mut off = Tracer::new(false);
    let mut untraced = Rec::new(classes.to_vec(), ctx.response);
    run_windows(work, &mut untraced, &mut off, part(0.25), true);
    let traced = if ctx.trace {
        switch(work)?;
        let mut tr = Tracer::new(true);
        let mut rec = Rec::new(classes.to_vec(), ctx.response);
        run_windows(work, &mut rec, &mut tr, part(0.5), false);
        Some((rec, tr))
    } else {
        None
    };
    let traced_rec = traced.as_ref().map(|(rec, _)| rec);
    Ok(Measured {
        attempted: untraced.attempted + traced_rec.map_or(0, |r| r.attempted),
        failed: untraced.failed + traced_rec.map_or(0, |r| r.failed),
        traced_attempted: traced_rec.map_or(0, |r| r.attempted),
        untraced: untraced.summary(),
        traced: traced.map(|(rec, tr)| (rec.summary(), tr.into_spans())),
    })
}

/// Re-executes, in-process and right after the reply, the work the
/// server did for one read, and attaches it to the request's round
/// trip `rt`: pin a snapshot, compile (only where the server had to:
/// the plan-cache miss class), look the plan up and run it through the
/// shard, with the bare executor call nested inside. What remains of
/// the round trip after subtracting these is wire and session cost.
pub fn explain_read(
    tr: &mut Tracer,
    rt: u32,
    shard: &Shard,
    text: &str,
    bindings: Option<&Bindings>,
    server_compiled: bool,
) {
    let snap = tr.explain(rt, "txn", "txn.snapshot", |_| shard.snapshot());
    let opts = match bindings {
        Some(b) => EvalOptions::new().bindings(b),
        None => EvalOptions::new(),
    };
    let plan = if server_compiled {
        tr.explain(rt, "xpath", "xpath.compile", |_| XPath::parse(text))
    } else {
        XPath::parse(text)
    };
    let Ok(plan) = plan else { return };
    let mut through_shard = 0;
    tr.explain(rt, "txn", "txn.query_on", |tr| {
        through_shard = tr.last_id();
        std::hint::black_box(shard.query_nodes_on(&snap, text, &opts).ok());
    });
    tr.explain(through_shard, "xpath", "xpath.select", |_| {
        std::hint::black_box(plan.select_from_root_opts(&*snap, &opts).ok());
    });
}

/// Server reads are explained one in this many (coprime with the 4-
/// and 6-class rotations, so every class gets its share). Explaining
/// keeps the harness thread busy between two requests, the server's
/// session thread idles longer, and the *next* request pays a slower
/// wake-up — measured 2x on `point_server` when every read was
/// explained. Sampling leaves the explained requests themselves clean:
/// each follows eight unexplained ones.
pub const EXPLAIN_EVERY: u64 = 9;

/// The spans that can be attributed to layers: in-process requests
/// and the server reads sampled for explanation. A round trip nobody
/// re-executed (an unsampled read, any write over the wire) would
/// count as all `server`, whatever the server spent it on.
pub fn attributable(spans: &[Span]) -> Vec<Span> {
    let mut over_wire = std::collections::HashSet::new();
    let mut explained = std::collections::HashSet::new();
    for s in spans {
        match s.name {
            "server.roundtrip" => over_wire.insert(s.request),
            "txn.snapshot" => explained.insert(s.request),
            _ => false,
        };
    }
    spans
        .iter()
        .filter(|s| !over_wire.contains(&s.request) || explained.contains(&s.request))
        .cloned()
        .collect()
}

/// Median over the explained reads of the self time left on the
/// `client` and `server` layers — what the wire and the session cost
/// once the in-process work is subtracted (µs).
pub fn wire_overhead_us(spans: &[Span]) -> f64 {
    let selfs = crate::trace::self_times(spans);
    let mut per_request: std::collections::BTreeMap<u32, (bool, u64)> = Default::default();
    for (s, t) in spans.iter().zip(&selfs) {
        let e = per_request.entry(s.request).or_default();
        e.0 |= s.name == "txn.snapshot";
        if s.layer == "client" || s.layer == "server" {
            e.1 += t;
        }
    }
    let v: Vec<f64> = per_request
        .values()
        .filter(|(explained, _)| *explained)
        .map(|(_, ns)| *ns as f64 / 1e3)
        .collect();
    stats::median(&v)
}

/// What the traced client counted, per traced op, and what the wire
/// cost the explained reads.
pub fn wire_layer(m: &Measured, frames: u64, bytes: u64) -> Vec<(&'static str, f64)> {
    let Some((_, spans)) = &m.traced else {
        return Vec::new();
    };
    let ops = m.traced_attempted.max(1) as f64;
    vec![
        ("server.frames_per_op", frames as f64 / ops),
        ("server.bytes_per_op", bytes as f64 / ops),
        ("server.wire_overhead_us", wire_overhead_us(spans)),
    ]
}

/// Plan-cache behaviour between two counter readings.
pub fn plan_cache_layer(
    before: &mbxq_txn::PlanCacheStats,
    after: &mbxq_txn::PlanCacheStats,
) -> Vec<(&'static str, f64)> {
    let hits = after.hits - before.hits;
    let lookups = hits + (after.misses - before.misses);
    vec![
        ("txn.plan_hit_ratio", hits as f64 / lookups.max(1) as f64),
        (
            "txn.plan_evictions",
            (after.evictions - before.evictions) as f64,
        ),
    ]
}

pub fn leak(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}
