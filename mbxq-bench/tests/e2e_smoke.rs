//! The benchmark's own CI: every workload at a tiny scale for two
//! windows, plus traced runs, through the real binary. Asserts the
//! contract's last line: the four keys, every named metric present,
//! finite and tagged with its unit, outputs correct.

use mbxq_bench_e2e::json::{self, Json};
use mbxq_bench_e2e::report::{END_TO_END, PER_LAYER};
use mbxq_bench_e2e::workloads::WORKLOADS;
use std::path::Path;
use std::process::Command;

fn run(workload: &str, trace: bool, dir: &Path) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_mbxq-bench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--scale", "0.002", "--windows", "2"])
        .args(["--trace", if trace { "1" } else { "0" }])
        // Result, trace and WAL files of this run go to its own directory.
        .env("CARGO_TARGET_DIR", dir)
        .output()
        .expect("spawn mbxq-bench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    json::parse(stdout.lines().last().expect("a last line")).expect("last line is JSON")
}

fn check_line(line: &Json, expected: &[(&str, &str)], what: &str) {
    let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{what}"
    );
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)), "{what}");
    assert!(
        line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0,
        "{what}"
    );
    assert_eq!(
        line.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{what}"
    );
    let metrics = line.get("metrics").unwrap();
    let names: Vec<&str> = metrics.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        names,
        expected.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
        "{what}"
    );
    for (name, unit) in expected {
        let m = metrics.get(name).unwrap();
        let v = m.get("value").and_then(Json::as_f64);
        assert!(v.is_some_and(f64::is_finite), "{what}: {name} = {v:?}");
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(*unit),
            "{what}: {name}"
        );
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    let expected: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    for (workload, _) in WORKLOADS {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("e2e-{workload}"));
        let line = check_run(workload, false, &dir, &expected);
        // End-to-end metrics are never 0.
        for (name, _) in &expected {
            let v = line.get("metrics").unwrap().get(name).unwrap().get("value");
            assert!(
                v.and_then(Json::as_f64).unwrap() > 0.0,
                "{workload}: {name}"
            );
        }
        let result =
            std::fs::read_to_string(dir.join(format!("mbxq-bench/result-{workload}.json")))
                .expect("result file");
        assert!(
            result.trim_end().ends_with("\"claim\": null\n}"),
            "{workload}"
        );
        assert!(
            !dir.join(format!("mbxq-bench/trace-{workload}.json"))
                .exists(),
            "{workload}: an untraced run writes no trace"
        );
    }
}

fn check_run(workload: &str, trace: bool, dir: &Path, expected: &[(&str, &str)]) -> Json {
    let _ = std::fs::remove_dir_all(dir);
    let line = run(workload, trace, dir);
    check_line(&line, expected, workload);
    line
}

#[test]
fn traced_runs_report_every_per_layer_metric() {
    let expected: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.0, m.1)).collect();
    for workload in ["point_server", "update_durable"] {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("traced-{workload}"));
        let line = check_run(workload, true, &dir, &expected);
        let value = |name: &str| {
            line.get("metrics")
                .unwrap()
                .get(name)
                .unwrap()
                .get("value")
                .and_then(Json::as_f64)
                .unwrap()
        };
        let shares: f64 = PER_LAYER
            .iter()
            .filter(|m| m.0.starts_with("trace.self_share."))
            .map(|m| value(m.0))
            .sum();
        assert!(
            (shares - 1.0).abs() < 1e-6,
            "{workload}: layer shares sum to {shares}"
        );
        // The layer a workload bypasses reads 0; the one it stresses does not.
        if workload == "point_server" {
            assert!(value("trace.self_share.server") > 0.0);
            assert_eq!(value("txn.commit_us"), 0.0);
        } else {
            assert!(value("txn.commit_us") > 0.0);
            assert_eq!(value("trace.self_share.server"), 0.0);
            assert_eq!(value("wal.syncs_per_commit"), 1.0);
        }
        let trace = std::fs::read_to_string(dir.join(format!("mbxq-bench/trace-{workload}.json")))
            .expect("trace file");
        let spans = json::parse(&trace).expect("trace parses");
        let first = &spans.as_arr().unwrap()[0];
        let keys: Vec<&str> = first.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["id", "parent", "request", "layer", "name", "start_ns", "end_ns"]
        );
    }
}

#[test]
fn unknown_workload_is_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_mbxq-bench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .env(
            "CARGO_TARGET_DIR",
            Path::new(env!("CARGO_TARGET_TMPDIR")).join("refused"),
        )
        .output()
        .expect("spawn mbxq-bench");
    assert!(!out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"metrics\""));
}
