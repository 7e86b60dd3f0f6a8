//! Order statistics for reporting: quartiles as the benchmark contract
//! computes them and the percentile rule of the `choosing-metrics` guide;
//! medians and percentiles themselves come from `dasr_stats`.

/// Median of `values` (`dasr_stats::median`); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    dasr_stats::median(values).unwrap_or(0.0)
}

/// Nearest-rank percentile `p` (`dasr_stats::percentile`); 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    dasr_stats::percentile(values, p).unwrap_or(0.0)
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) gives
/// them — the rule the benchmark contract measures spread by. Needs at
/// least two values; a single value is returned three times.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    // NaN-free by construction: inputs are measured durations or counts.
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Percentiles a report may quote, ascending.
pub const LADDER: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// The highest percentile of [`LADDER`] that `n` samples support: at
/// least ten samples must lie beyond it. `None` below 20 samples, where
/// not even the median qualifies.
pub fn supported_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|p| (n as f64) * (100.0 - p) / 100.0 >= 10.0 - 1e-9)
}

/// `"p99 (n=1200)"`-style annotation for a quoted percentile: flags the
/// value with `~` when `n` samples do not support percentile `p`.
pub fn annotate(p: f64, n: usize) -> String {
    let ok = supported_percentile(n).is_some_and(|hi| p <= hi);
    format!("{}p{p} n={n}", if ok { "" } else { "~" })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(99), Some(50.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(200), Some(95.0));
        assert_eq!(supported_percentile(999), Some(95.0));
        assert_eq!(supported_percentile(1000), Some(99.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
        assert_eq!(annotate(99.0, 1200), "p99 n=1200");
        assert_eq!(annotate(99.0, 500), "~p99 n=500");
    }
}
