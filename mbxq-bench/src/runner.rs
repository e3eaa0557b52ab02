//! `--repeat N`: one workload N times in fresh processes, one seed
//! each, reduced to a *set* (median and quartiles per end-to-end
//! metric). `--compare a b`: two sets against the benchmark's own
//! bounds — `within bound`, `regressed`, or `unresolved` when the
//! run-to-run spread is wider than the bound.

use crate::json::{self, Json};
use crate::report::END_TO_END;
use crate::{out_dir, stats, RunArgs};
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// The values of one metric across a set's runs.
fn column(set: &Json, metric: &str) -> Vec<f64> {
    set.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|r| r.get("metrics")?.get(metric)?.as_f64())
        .collect()
}

fn print_set(set: &Json) {
    println!(
        "{:<28} {:>14} {:>14} {:>14} {:>9} {:>7}  verdict",
        "metric", "median", "q1", "q3", "iqr/med", "bound"
    );
    for m in &END_TO_END {
        let v = column(set, m.name);
        let (q1, q3) = stats::quartiles(&v);
        let spread = stats::iqr_over_median(&v);
        // The acceptance rule wants every spread under a third of its
        // bound (set-up time is exempt from the spread rule).
        let verdict = if m.name == "setup_s" {
            "exempt"
        } else if spread < m.bound / 3.0 {
            "quiet"
        } else if spread <= m.bound {
            "within bound"
        } else {
            "noisy"
        };
        println!(
            "{:<28} {:>14.4} {:>14.4} {:>14.4} {:>9.4} {:>7.2}  {verdict}",
            m.name,
            stats::median(&v),
            q1,
            q3,
            spread,
            m.bound
        );
    }
}

pub fn repeat(args: &RunArgs, n: usize, out: Option<PathBuf>) -> Result<(), String> {
    if n == 0 {
        return Err("--repeat needs at least one run".to_string());
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs = Vec::with_capacity(n);
    for k in 0..n {
        let seed = args.seed + k as u64;
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", &args.workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--scale", &args.scale.to_string()])
            .args(["--trace", "0"])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit());
        if let Some(w) = args.windows {
            cmd.args(["--windows", &w.to_string()]);
        }
        // `output` waits for the child to end.
        let output = cmd.output().map_err(|e| format!("spawn run {k}: {e}"))?;
        if !output.status.success() {
            return Err(format!(
                "run {k} (seed {seed}) exited with {}",
                output.status
            ));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout.lines().last().ok_or("run printed nothing")?;
        let line = json::parse(last).map_err(|e| format!("run {k}: last line is not JSON: {e}"))?;
        let metrics = Json::obj(
            line.get("metrics")
                .map(Json::fields)
                .unwrap_or_default()
                .iter()
                .filter_map(|(name, m)| {
                    Some((name.as_str(), Json::Num(m.get("value")?.as_f64()?)))
                }),
        );
        println!("run {k} seed {seed}: {}", metrics.render());
        runs.push(Json::obj([
            ("seed", Json::Num(seed as f64)),
            (
                "correct",
                line.get("correct").cloned().unwrap_or(Json::Null),
            ),
            (
                "attempted",
                line.get("attempted").cloned().unwrap_or(Json::Null),
            ),
            ("failed", line.get("failed").cloned().unwrap_or(Json::Null)),
            ("metrics", metrics),
        ]));
    }
    let set = Json::obj([
        ("workload", Json::str(&args.workload)),
        ("seconds", Json::Num(args.seconds)),
        ("scale", Json::Num(args.scale)),
        ("runs", Json::Arr(runs)),
        ("claim", Json::Null),
    ]);
    print_set(&set);
    let path = out.unwrap_or_else(|| out_dir().join(format!("set-{}.json", args.workload)));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, set.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("set written to {}", path.display());
    Ok(())
}

/// How a second set's median stands against the first's.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    WithinBound,
    Regressed,
    Unresolved,
}

/// `worse` is the share of `a`'s median by which `b`'s is worse
/// (negative = better); `spread` the wider of the two sets' IQR/median.
pub fn verdict(worse: f64, spread: f64, bound: f64) -> Verdict {
    if spread > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::WithinBound
    }
}

pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let load = |p: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    if a.get("workload") != b.get("workload") {
        return Err("the two sets are of different workloads".to_string());
    }
    println!(
        "workload {}: {a_path} -> {b_path}",
        a.get("workload").and_then(Json::as_str).unwrap_or("?")
    );
    println!(
        "{:<28} {:>14} {:>14} {:>9} {:>9} {:>7}  verdict",
        "metric", "median a", "median b", "worse by", "iqr/med", "bound"
    );
    let mut regressed = false;
    for m in &END_TO_END {
        let (va, vb) = (column(&a, m.name), column(&b, m.name));
        let (ma, mb) = (stats::median(&va), stats::median(&vb));
        let worse = if ma == 0.0 {
            0.0
        } else if m.lower {
            (mb - ma) / ma
        } else {
            (ma - mb) / ma
        };
        // Set-up time is judged on its medians alone.
        let spread = if m.name == "setup_s" {
            0.0
        } else {
            stats::iqr_over_median(&va).max(stats::iqr_over_median(&vb))
        };
        let v = verdict(worse, spread, m.bound);
        regressed |= v == Verdict::Regressed;
        println!(
            "{:<28} {:>14.4} {:>14.4} {:>+9.4} {:>9.4} {:>7.2}  {}",
            m.name,
            ma,
            mb,
            worse,
            spread,
            m.bound,
            match v {
                Verdict::WithinBound => "within bound",
                Verdict::Regressed => "regressed",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        assert_eq!(verdict(0.02, 0.01, 0.08), Verdict::WithinBound);
        assert_eq!(verdict(-0.30, 0.01, 0.08), Verdict::WithinBound);
        assert_eq!(verdict(0.09, 0.01, 0.08), Verdict::Regressed);
        assert_eq!(verdict(0.09, 0.10, 0.08), Verdict::Unresolved);
    }

    #[test]
    fn columns_come_out_of_a_set() {
        let set = json::parse(
            r#"{"workload": "w", "runs": [
                {"seed": 1, "metrics": {"ops_per_s": 10.5}},
                {"seed": 2, "metrics": {"ops_per_s": 11}}], "claim": null}"#,
        )
        .unwrap();
        assert_eq!(column(&set, "ops_per_s"), vec![10.5, 11.0]);
        assert!(column(&set, "missing").is_empty());
    }
}
