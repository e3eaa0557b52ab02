//! Windows, samples and the summary every workload is reduced to.
//!
//! A *window* is a fixed, seeded op sequence: its op count never
//! depends on how fast the ops ran, so a faster commit runs more
//! windows in `--seconds`, not a shorter and noisier run. One warm-up
//! window is discarded, then windows run until the time budget is
//! spent (at least [`MIN_WINDOWS`], at most [`MAX_WINDOWS`]).
//!
//! Windows are reduced by their *fast quartile*: the throughput of a
//! run is the third quartile of its per-window rates, the latency of a
//! class the first quartile of its per-window medians. Interference on
//! a shared host only ever slows a window down, in bursts of seconds;
//! a quartile over twenty or more windows sits above those bursts,
//! while a change to the program moves every window and so moves the
//! quartile with it. (On this host the fast quartile repeats 1.3–1.6×
//! tighter between runs than the median; see the README.)
//!
//! Bursts are one thing, the minutes-long slowdowns of the whole host
//! another: for those every op is followed by its share of calibration
//! slices ([`crate::calib`]), and a window's rate and medians are
//! reported at the host speed its own slices measured.

use crate::calib::{host_speed, Calibrator};
use crate::stats;
use crate::trace::Tracer;
use std::time::Instant;

pub const MIN_WINDOWS: usize = 5;
pub const MAX_WINDOWS: usize = 400;

/// Whether a class reads or writes the document (the client layer
/// reports the two groups separately).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Read,
    Write,
}

#[derive(Debug, Clone)]
pub struct Class {
    pub name: String,
    pub kind: Kind,
}

impl Class {
    pub fn read(name: impl Into<String>) -> Class {
        Class {
            name: name.into(),
            kind: Kind::Read,
        }
    }

    pub fn write(name: impl Into<String>) -> Class {
        Class {
            name: name.into(),
            kind: Kind::Write,
        }
    }
}

/// Per-class latency samples, cut into windows.
pub struct Rec {
    pub classes: Vec<Class>,
    /// Samples (ns) of the open window, per class.
    cur: Vec<Vec<u64>>,
    /// Every sample of every closed window (ns), per class — p99s.
    all: Vec<Vec<u64>>,
    /// p50 (µs) of each closed window, per class, as measured and at
    /// nominal host speed; windows in which the class did not run are
    /// skipped.
    win_p50_raw: Vec<Vec<f64>>,
    win_p50: Vec<Vec<f64>>,
    /// Wall time (s) of each closed window, the part of it spent on
    /// calibration slices, the host speed they measured, and the
    /// window's op count.
    win_wall: Vec<f64>,
    win_cal: Vec<f64>,
    win_speed: Vec<f64>,
    win_ops: Vec<u64>,
    cal: Calibrator,
    /// The workload's response to host slowdowns (`calib`).
    response: f64,
    /// Slices of the open window: count and total ns.
    cal_n: u64,
    cal_ns: u64,
    pub attempted: u64,
    pub failed: u64,
}

impl Rec {
    pub fn new(classes: Vec<Class>, response: f64) -> Rec {
        let n = classes.len();
        Rec {
            classes,
            cur: vec![Vec::new(); n],
            all: vec![Vec::new(); n],
            win_p50_raw: vec![Vec::new(); n],
            win_p50: vec![Vec::new(); n],
            win_wall: Vec::new(),
            win_cal: Vec::new(),
            win_speed: Vec::new(),
            win_ops: Vec::new(),
            cal: Calibrator::new(),
            response,
            cal_n: 0,
            cal_ns: 0,
            attempted: 0,
            failed: 0,
        }
    }

    /// Times `op` as one attempt of `class`; `Err` (a refused, failed
    /// or wrong-result op) counts as failed and records no latency.
    /// The op's share of calibration slices follows it, off its clock.
    pub fn op<E: std::fmt::Display>(&mut self, class: usize, op: impl FnOnce() -> Result<(), E>) {
        let t = Instant::now();
        let r = op();
        let ns = t.elapsed().as_nanos() as u64;
        self.record(class, ns, r);
        let (n, cal_ns) = self.cal.after_op(ns);
        self.add_slices(n, cal_ns);
    }

    /// Counts `n` calibration slices of `ns` together into the open
    /// window.
    pub fn add_slices(&mut self, n: u64, ns: u64) {
        self.cal_n += n;
        self.cal_ns += ns;
    }

    /// Records an attempt timed elsewhere (another thread's op).
    pub fn record<E: std::fmt::Display>(&mut self, class: usize, ns: u64, result: Result<(), E>) {
        self.attempted += 1;
        match result {
            Ok(()) => self.cur[class].push(ns),
            Err(e) => {
                if self.failed < 5 {
                    eprintln!("failed op [{}]: {e}", self.classes[class].name);
                }
                self.failed += 1;
            }
        }
    }

    /// Closes the open window; `keep = false` discards it (warm-up).
    pub fn end_window(&mut self, wall_s: f64, keep: bool) {
        let speed = host_speed(self.cal_n, self.cal_ns, self.response);
        let cal_s = std::mem::take(&mut self.cal_ns) as f64 / 1e9;
        self.cal_n = 0;
        let mut ops = 0u64;
        for c in 0..self.cur.len() {
            let samples = std::mem::take(&mut self.cur[c]);
            if !keep || samples.is_empty() {
                continue;
            }
            ops += samples.len() as u64;
            let us: Vec<f64> = samples.iter().map(|&n| n as f64 / 1e3).collect();
            let p50 = stats::median(&us);
            self.win_p50_raw[c].push(p50);
            self.win_p50[c].push(p50 * speed);
            self.all[c].extend(samples);
        }
        if keep {
            self.win_wall.push(wall_s);
            self.win_cal.push(cal_s.min(wall_s));
            self.win_speed.push(speed);
            self.win_ops.push(ops);
        } else {
            // Warm-up attempts are not part of the measured run.
            self.attempted = 0;
            self.failed = 0;
        }
    }

    pub fn windows(&self) -> usize {
        self.win_wall.len()
    }

    pub fn measured_s(&self) -> f64 {
        self.win_wall.iter().sum()
    }

    pub fn summary(&self) -> Summary {
        // A window's rate is over the time its ops had: its wall time
        // less its slices.
        let raw_rates: Vec<f64> = (0..self.windows())
            .map(|w| self.win_ops[w] as f64 / (self.win_wall[w] - self.win_cal[w]))
            .collect();
        let rates: Vec<f64> = raw_rates
            .iter()
            .zip(&self.win_speed)
            .map(|(r, s)| r / s)
            .collect();
        let fast = |per_class: &[Vec<f64>]| -> Vec<f64> {
            per_class.iter().map(|w| stats::quantile(w, 0.25)).collect()
        };
        let class_p50 = fast(&self.win_p50);
        let group = |kind: Kind| -> Vec<usize> {
            (0..self.classes.len())
                .filter(|&c| self.classes[c].kind == kind)
                .collect()
        };
        let geo =
            |idx: &[usize]| stats::geomean(&idx.iter().map(|&c| class_p50[c]).collect::<Vec<_>>());
        // The p99 of a group is the geometric mean of its classes' p99s
        // over all samples, the same shape as the p50 headline.
        let p99 = |idx: &[usize]| {
            let v: Vec<f64> = idx
                .iter()
                .map(|&c| {
                    let us: Vec<f64> = self.all[c].iter().map(|&n| n as f64 / 1e3).collect();
                    stats::quantile(&us, 0.99)
                })
                .collect();
            stats::geomean(&v)
        };
        let samples = |idx: &[usize]| idx.iter().map(|&c| self.all[c].len() as u64).sum::<u64>();
        let (reads, writes) = (group(Kind::Read), group(Kind::Write));
        let everything: Vec<usize> = (0..self.classes.len()).collect();
        Summary {
            windows: self.windows(),
            measured_s: self.measured_s(),
            ops_per_s: stats::quantile(&rates, 0.75),
            op_p50_us: geo(&everything),
            host_speed: stats::median(&self.win_speed),
            raw_ops_per_s: stats::quantile(&raw_rates, 0.75),
            raw_op_p50_us: stats::geomean(&fast(&self.win_p50_raw)),
            read_p50_us: geo(&reads),
            write_p50_us: geo(&writes),
            read_p99_us: p99(&reads),
            write_p99_us: p99(&writes),
            samples_read: samples(&reads),
            samples_write: samples(&writes),
            window_spread: stats::iqr_over_median(&rates),
            drift: stats::drift(&rates),
            class_p50_us: self
                .classes
                .iter()
                .zip(&class_p50)
                .map(|(c, p)| (c.name.clone(), *p))
                .collect(),
            window_rates: rates,
            window_speeds: self.win_speed.clone(),
        }
    }
}

/// What a run's windows reduce to.
#[derive(Debug, Clone)]
pub struct Summary {
    pub windows: usize,
    /// Wall time of the windows, slices included.
    pub measured_s: f64,
    /// Third quartile over windows of (ops completed in the window /
    /// the time its ops had), at nominal host speed.
    pub ops_per_s: f64,
    /// Geometric mean over all classes of the first quartile of the
    /// class's per-window p50s, at nominal host speed. The read/write
    /// p50s are the same over their group; p99s are as measured.
    pub op_p50_us: f64,
    /// Median over windows of the host speed their slices measured
    /// (1 = nominal).
    pub host_speed: f64,
    /// `ops_per_s` and `op_p50_us` as measured, host speed not applied.
    pub raw_ops_per_s: f64,
    pub raw_op_p50_us: f64,
    pub read_p50_us: f64,
    pub write_p50_us: f64,
    pub read_p99_us: f64,
    pub write_p99_us: f64,
    pub samples_read: u64,
    pub samples_write: u64,
    /// IQR / median of the per-window rates.
    pub window_spread: f64,
    /// Last-third over first-third window rate, minus one.
    pub drift: f64,
    pub class_p50_us: Vec<(String, f64)>,
    /// Ops per second of each window, in run order.
    pub window_rates: Vec<f64>,
    /// Host speed of each window, in run order.
    pub window_speeds: Vec<f64>,
}

impl Summary {
    pub fn class(&self, name: &str) -> f64 {
        self.class_p50_us
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, p)| *p)
    }
}

/// How long to run windows.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Until this many seconds of windows were measured.
    Seconds(f64),
    /// Exactly this many windows (`--windows`, the smoke test).
    Windows(usize),
}

/// One workload after set-up: it can run one window of its fixed op
/// sequence and do untimed work between windows.
pub trait Windowed {
    fn window(&mut self, w: usize, rec: &mut Rec, tr: &mut Tracer);
    /// Untimed maintenance between windows (checkpoints).
    fn between(&mut self, _w: usize) {}
}

/// Runs one discarded warm-up window (when `warm_up`; callers warm up
/// with the recorder off), then measured windows until `budget` is
/// spent.
pub fn run_windows(
    work: &mut dyn Windowed,
    rec: &mut Rec,
    tr: &mut Tracer,
    budget: Budget,
    warm_up: bool,
) {
    if warm_up {
        let t = Instant::now();
        work.window(0, rec, tr);
        rec.end_window(t.elapsed().as_secs_f64(), false);
    }
    loop {
        let w = rec.windows();
        match budget {
            Budget::Windows(n) if w >= n => break,
            Budget::Seconds(s)
                if (w >= MIN_WINDOWS && rec.measured_s() >= s) || w >= MAX_WINDOWS =>
            {
                break
            }
            _ => {}
        }
        work.between(w);
        let t = Instant::now();
        work.window(w + 1, rec, tr);
        rec.end_window(t.elapsed().as_secs_f64(), true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_is_fast_quartile_of_window_medians_and_geomean_over_classes() {
        let mut rec = Rec::new(vec![Class::read("r"), Class::write("w")], 1.5);
        // Warm-up: discarded entirely, failures included.
        rec.record(0, 999_000, Ok::<(), String>(()));
        rec.record(0, 1, Err("boom".to_string()));
        rec.end_window(1.0, false);
        assert_eq!((rec.attempted, rec.failed, rec.windows()), (0, 0, 0));
        // Three windows; reads have window medians 10, 20, 1000 µs;
        // writes 100 µs throughout.
        for r in [10_000u64, 20_000, 1_000_000] {
            for _ in 0..3 {
                rec.record(0, r, Ok::<(), String>(()));
            }
            rec.record(1, 100_000, Ok::<(), String>(()));
            rec.end_window(0.5, true);
        }
        rec.record(1, 5, Err("lock".to_string()));
        let s = rec.summary();
        assert_eq!(s.windows, 3);
        assert_eq!((rec.attempted, rec.failed), (13, 1));
        assert!((s.read_p50_us - 15.0).abs() < 1e-9);
        assert!((s.write_p50_us - 100.0).abs() < 1e-9);
        assert!((s.op_p50_us - (15.0f64 * 100.0).sqrt()).abs() < 1e-9);
        assert!((s.ops_per_s - 8.0).abs() < 1e-9);
        assert_eq!((s.samples_read, s.samples_write), (9, 3));
        assert_eq!(s.class("w"), 100.0);
    }

    #[test]
    fn a_window_is_reported_at_the_host_speed_its_slices_measured() {
        use crate::calib::NOMINAL_SLICE_NS;
        const RESPONSE: f64 = 1.6;
        let mut rec = Rec::new(vec![Class::read("r")], RESPONSE);
        // Window 1: nominal host. 10 ops of 100 µs in 1 ms of op time
        // plus 10 slices of nominal length.
        let slice = NOMINAL_SLICE_NS as u64;
        for _ in 0..10 {
            rec.record(0, 100_000, Ok::<(), String>(()));
        }
        rec.add_slices(10, 10 * slice);
        rec.end_window(1e-3 + 10.0 * slice as f64 / 1e9, true);
        // Window 2: a host on which slices take twice as long and the
        // ops 2^RESPONSE times as long.
        let slow = 2f64.powf(RESPONSE);
        for _ in 0..10 {
            rec.record(0, (100_000.0 * slow) as u64, Ok::<(), String>(()));
        }
        rec.add_slices(10, 20 * slice);
        rec.end_window(1e-3 * slow + 20.0 * slice as f64 / 1e9, true);
        let s = rec.summary();
        let close = |a: f64, b: f64| (a - b).abs() < 1e-4 * b;
        assert!(close(s.window_speeds[0], 1.0) && close(s.window_speeds[1], 1.0 / slow));
        // Both windows read the same at nominal speed…
        assert!(close(s.window_rates[0], 10_000.0) && close(s.window_rates[1], 10_000.0));
        assert!(close(s.op_p50_us, 100.0) && close(s.ops_per_s, 10_000.0));
        // …and as measured they differ by the slowdown.
        assert!(close(s.raw_op_p50_us, 100.0 + 0.25 * 100.0 * (slow - 1.0)));
        assert!(close(
            s.raw_ops_per_s,
            10_000.0 - 0.25 * (10_000.0 - 10_000.0 / slow)
        ));
    }

    struct Fixed(usize);
    impl Windowed for Fixed {
        fn window(&mut self, _w: usize, rec: &mut Rec, _tr: &mut Tracer) {
            self.0 += 1;
            rec.record(0, 1000, Ok::<(), String>(()));
        }
    }

    #[test]
    fn window_budget_counts_after_the_warm_up() {
        let mut rec = Rec::new(vec![Class::read("r")], 1.5);
        let mut work = Fixed(0);
        run_windows(
            &mut work,
            &mut rec,
            &mut Tracer::new(false),
            Budget::Windows(2),
            true,
        );
        assert_eq!((work.0, rec.windows(), rec.attempted), (3, 2, 2));
    }
}
