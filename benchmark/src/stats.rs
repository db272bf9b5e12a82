//! Order statistics the benchmark reports: medians, quartiles (Python's
//! `statistics.quantiles(n=4)` rule, so `compare` agrees with the driver),
//! nearest-rank percentiles, and the rule for the highest percentile a
//! sample supports.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The three quartile cut points, by the exclusive method Python's
/// `statistics.quantiles(values, n=4)` uses. Needs at least two values;
/// with fewer, all three equal the single value (or 0).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Inter-quartile distance as a share of the median (the driver's spread).
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2
    }
}

/// Nearest-rank percentile `p` (0..=100); 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Samples strictly beyond the nearest-rank position of percentile `p`.
fn beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0) * n as f64).ceil() as usize
}

/// Whether a sample of `n` supports percentile `p`: at least ten samples
/// lie beyond it.
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && beyond(n, p) >= 10
}

/// The tail a timing is reported at beside its median: p90 when the
/// sample supports it, else the median again. Only these two, so that a
/// metric does not change meaning as the sample count drifts past the
/// thresholds of intermediate percentiles. Returns `(percentile, value)`.
pub fn tail_percentile(values: &[f64]) -> (f64, f64) {
    let p = if supports(values.len(), 90.0) {
        90.0
    } else {
        50.0
    };
    (p, percentile(values, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn iqr_share_is_spread_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[5.0, 5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // p50 of 20 leaves exactly ten beyond; 19 leaves nine.
        assert!(supports(20, 50.0));
        assert!(!supports(19, 50.0));
        // p90 needs a hundred samples, p99 a thousand.
        assert!(!supports(99, 90.0));
        assert!(supports(100, 90.0));
        assert!(!supports(999, 99.0));
        assert!(supports(1000, 99.0));
        assert!(!supports(0, 50.0));
    }

    #[test]
    fn unsupported_tail_falls_back_to_the_median() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), (50.0, 50.0));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), (90.0, 90.0));
        assert_eq!(tail_percentile(&[4.0, 2.0]), (50.0, 2.0));
    }
}
