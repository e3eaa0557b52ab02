//! `mbxq-bench` — one quiet end-to-end benchmark of the mbxq stack.
//!
//! ```text
//! mbxq-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!            [--scale <f>] [--windows <n>]
//! mbxq-bench --repeat <N> --workload <name> [--seed <first>] [--seconds <s>] [--out <set.json>]
//! mbxq-bench --compare <a.json> <b.json>
//! ```
//!
//! One invocation runs one workload: it generates the XMark text from
//! `--seed`, sets the system up several times (median = `setup_s`),
//! runs fixed-op windows for `--seconds`, checks every output, prints
//! every metric by name with its unit, writes
//! `<build dir>/mbxq-bench/result-<workload>.json` and ends with the
//! one-line JSON object the benchmark contract asks for. With
//! `--trace 1` the same op stream is replayed with spans around every
//! call into a layer, the per-layer probes run, and the line carries
//! the per-layer metrics instead; end-to-end numbers never come from a
//! traced run. See `README.md`.

pub mod calib;
pub mod corpus;
pub mod cpu;
pub mod harness;
pub mod json;
pub mod probes;
pub mod report;
pub mod runner;
pub mod stats;
pub mod trace;
pub mod wire;
pub mod workloads;

use harness::Budget;
use std::path::PathBuf;
use workloads::Ctx;

/// Parsed command line of a single run.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: f64,
    pub windows: Option<usize>,
}

fn usage() -> String {
    format!(
        "usage: mbxq-bench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--scale <f>] [--windows <n>]\n       mbxq-bench --repeat <N> --workload <name> \
         [--seed <first>] [--seconds <s>] [--out <set.json>]\n       mbxq-bench --compare <a.json> <b.json>",
        workloads::WORKLOADS.map(|(n, _)| n).join("|")
    )
}

/// Where build products live: `$CARGO_TARGET_DIR`, else `target/`.
pub fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("mbxq-bench")
}

fn value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> Result<&'a str, String> {
    *i += 1;
    args.get(*i)
        .map(String::as_str)
        .ok_or(format!("{flag} takes a value"))
}

fn parse<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: cannot read '{text}'"))
}

/// Runs the command line; the value is the process exit code.
fn real_main() -> Result<i32, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut run = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: 15.0,
        trace: false,
        scale: corpus::SCALE,
        windows: None,
    };
    let (mut repeat, mut out, mut compare) = (None, None, None);
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--workload" => run.workload = value(&args, &mut i, flag)?.to_string(),
            "--seed" => run.seed = parse(value(&args, &mut i, flag)?, flag)?,
            "--seconds" => run.seconds = parse(value(&args, &mut i, flag)?, flag)?,
            "--trace" => run.trace = parse::<u8>(value(&args, &mut i, flag)?, flag)? != 0,
            "--scale" => run.scale = parse(value(&args, &mut i, flag)?, flag)?,
            "--windows" => run.windows = Some(parse(value(&args, &mut i, flag)?, flag)?),
            "--repeat" => repeat = Some(parse::<usize>(value(&args, &mut i, flag)?, flag)?),
            "--out" => out = Some(PathBuf::from(value(&args, &mut i, flag)?)),
            "--compare" => {
                let a = value(&args, &mut i, flag)?.to_string();
                let b = value(&args, &mut i, flag)?.to_string();
                compare = Some((a, b));
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(0);
            }
            other => return Err(format!("unknown argument '{other}'\n{}", usage())),
        }
        i += 1;
    }
    if let Some((a, b)) = compare {
        // A regression gate: a regressed metric fails the command.
        return Ok(if runner::compare(&a, &b)? { 0 } else { 1 });
    }
    if run.workload.is_empty() {
        return Err(usage());
    }
    if !(run.seconds > 0.0 && run.scale > 0.0) {
        return Err("--seconds and --scale must be positive".to_string());
    }
    match repeat {
        Some(n) => runner::repeat(&run, n, out)?,
        None => single(&run)?,
    }
    // A run whose outputs were wrong has said `"correct": false` in its
    // last line; the exit code stays 0 so that line is read.
    Ok(0)
}

/// One workload, one process: the contract's run.
fn single(args: &RunArgs) -> Result<(), String> {
    // Before any thread is started: they inherit the placement.
    let placement = cpu::pin();
    let dir = out_dir();
    let tmp_dir = dir.join("tmp");
    std::fs::create_dir_all(&tmp_dir).map_err(|e| format!("{}: {e}", tmp_dir.display()))?;
    let ctx = Ctx {
        corpus: corpus::generate(args.scale, args.seed),
        seed: args.seed,
        budget: args
            .windows
            .map_or(Budget::Seconds(args.seconds), Budget::Windows),
        trace: args.trace,
        response: workloads::response(&args.workload),
        tmp_dir,
    };
    println!(
        "mbxq-bench {} seed {} scale {} ({:.1} MB XML) trace {} cpu {} of {}",
        args.workload,
        args.seed,
        args.scale,
        ctx.corpus.xml.len() as f64 / 1e6,
        u8::from(args.trace),
        placement
            .pinned
            .map_or("any".to_string(), |c| c.to_string()),
        placement.host_cpus
    );
    let outcome = workloads::run(&args.workload, &ctx)?;
    let e2e = report::end_to_end(&outcome);
    let layers = if args.trace {
        Some(report::per_layer(&outcome, &probes::run(&ctx)?))
    } else {
        None
    };

    let s = &outcome.untraced;
    println!(
        "untraced: {} windows, {:.2} s measured, window spread {:.4}, drift {:+.4}",
        s.windows, s.measured_s, s.window_spread, s.drift
    );
    for (class, p50) in &s.class_p50_us {
        println!("  class {class:<22} p50 {p50:>12.3} us");
    }
    println!(
        "  read p50 {:.3} us  p99 {:.3} us ({} samples); write p50 {:.3} us  p99 {:.3} us ({} samples)",
        s.read_p50_us, s.read_p99_us, s.samples_read, s.write_p50_us, s.write_p99_us, s.samples_write
    );
    println!(
        "  host speed {:.4} (set-ups {}); as measured: setup_s {:.6}  ops_per_s {:.6}  op_p50_us {:.6}",
        s.host_speed,
        outcome
            .setup_runs
            .iter()
            .map(|r| format!("{:.4}", r.host_speed))
            .collect::<Vec<_>>()
            .join(" "),
        outcome.raw_setup_s(),
        s.raw_ops_per_s,
        s.raw_op_p50_us
    );
    for (name, v) in &outcome.layer {
        println!("  {name:<40} {v}");
    }
    for (what, ok) in &outcome.checks {
        println!("  check {}: {what}", if *ok { "ok  " } else { "FAIL" });
    }
    println!(
        "attempted {} failed {} fail_ratio {:.6}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for (name, v) in &e2e {
        let m = report::END_TO_END
            .iter()
            .find(|m| m.name == *name)
            .expect("table entry");
        println!("{name:<40} {v:>16.6} {}", m.unit);
    }
    if let Some(layers) = &layers {
        for ((name, v), (_, unit, _)) in layers.iter().zip(report::PER_LAYER) {
            println!("{name:<40} {v:>16.6} {unit}");
        }
    }

    let manifest = report::manifest(
        &args.workload,
        args.seed,
        args.scale,
        args.windows.is_none().then_some(args.seconds),
        args.trace,
    );
    let file = dir.join(format!("result-{}.json", args.workload));
    std::fs::write(
        &file,
        report::result_file(manifest, &outcome, &e2e, layers.as_deref()).pretty(),
    )
    .map_err(|e| format!("{}: {e}", file.display()))?;
    if let Some((_, spans)) = &outcome.traced {
        let file = dir.join(format!("trace-{}.json", args.workload));
        std::fs::write(&file, trace::to_json(spans))
            .map_err(|e| format!("{}: {e}", file.display()))?;
    }
    println!(
        "{}",
        report::final_line(&outcome, args.trace, layers.as_deref().unwrap_or(&e2e))
    );
    Ok(())
}

/// The binary's whole `main`.
pub fn cli_main() {
    match real_main() {
        Ok(0) => {}
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("mbxq-bench: {e}");
            std::process::exit(2);
        }
    }
}
