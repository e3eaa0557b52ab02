//! The estimators every reported number goes through. They are chosen
//! to be robust on a small shared host: medians instead of means,
//! medians *of per-window medians* instead of one pooled percentile (a
//! bimodal op mix cannot flip those), and geometric means across
//! classes so no single slow class owns the headline.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile (0–1) by linear interpolation between order
/// statistics. Empty input reads 0.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the exclusive method — the numbers
/// Python's `statistics.quantiles(values, n=4)` returns, which is what
/// the acceptance rule for this benchmark is written in.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median — the run-to-run
/// spread the acceptance rule bounds.
pub fn iqr_over_median(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// Geometric mean of positive values (non-positive entries are
/// skipped: a class that never ran must not zero the product).
pub fn geomean(values: &[f64]) -> f64 {
    let logs: Vec<f64> = values
        .iter()
        .filter(|v| **v > 0.0)
        .map(|v| v.ln())
        .collect();
    if logs.is_empty() {
        return 0.0;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// Stationarity drift of a per-window series: median of the last third
/// over median of the first third, minus one. A workload whose
/// document, caches or log keep growing shows up here before it shows
/// up as noise between runs.
pub fn drift(series: &[f64]) -> f64 {
    let third = series.len() / 3;
    if third == 0 {
        return 0.0;
    }
    let first = median(&series[..third]);
    let last = median(&series[series.len() - third..]);
    if first == 0.0 {
        0.0
    } else {
        last / first - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_window_medians_ignores_a_bimodal_pool() {
        // Two op populations (1 and 100) in a 50/50 mix: the pooled
        // median flips with one extra sample; per-class window medians
        // do not.
        let fast = [1.0, 1.0, 1.0];
        let slow = [100.0, 100.0, 100.0];
        assert_eq!(median(&fast), 1.0);
        assert_eq!(median(&slow), 100.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quantile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 0.5), median(&v));
        assert_eq!(quantile(&v, 0.75), 4.0);
        assert!((quantile(&[1.0, 2.0], 0.75) - 1.75).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        assert!((iqr_over_median(&[16.0, 1.0, 8.0, 2.0, 4.0]) - 10.5 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_skips_empty_classes() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[4.0, 0.0, 9.0]) - 6.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn drift_compares_thirds() {
        let flat = [5.0; 12];
        assert_eq!(drift(&flat), 0.0);
        let rising: Vec<f64> = (0..12).map(|i| 100.0 + f64::from(i)).collect();
        // first third median 101.5, last third median 109.5
        assert!((drift(&rising) - (109.5 / 101.5 - 1.0)).abs() < 1e-12);
        assert_eq!(drift(&[1.0, 2.0]), 0.0);
    }
}
