//! Property-based tests for the robust-statistics substrate.

use dasr_stats::{
    average_ranks, median, median_of_finite_mut, pearson, percentile, percentile_interpolated,
    spearman, spearman_in, theil_sen, ExactSum, SlidingRanks, SlidingTheilSen, SpearmanScratch,
    TheilSen, TokenBucket, Trend, TrendDirection, TrendScratch,
};
use proptest::prelude::*;

fn finite_vec(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1.0e6..1.0e6f64, 1..max_len)
}

/// A telemetry-like stream for the sliding kernels, one of four kinds so
/// that both the carried path and the batch fallback run for long
/// stretches: continuous with 2 % spikes; quantised (heavily tied) with 2 %
/// spikes; constant; and hostile — NaN, ±∞ and magnitudes whose pairwise
/// differences overflow, entering and leaving the window among ordinary
/// and tied values.
fn stream() -> impl Strategy<Value = Vec<f64>> {
    let sample = (0u32..100, -1.0e3..1.0e3f64, 0u32..5);
    (0u32..4, prop::collection::vec(sample, 1..200)).prop_map(|(kind, draws)| {
        draws
            .into_iter()
            .map(|(roll, x, level)| match (kind, roll) {
                (0 | 1, 0..=1) => x * 1.0e6,
                (0, _) => x,
                (1, _) => level as f64 * 0.5,
                (2, _) => 42.0,
                (_, 0) => f64::NAN,
                (_, 1) => f64::INFINITY,
                (_, 2) => f64::NEG_INFINITY,
                (_, 3..=8) => x.signum() * 1.0e308,
                (_, 9..=40) => level as f64,
                _ => x,
            })
            .collect()
    })
}

/// Window sizes for the sliding kernels: degenerate, either side of the
/// default `min_points` (4), the telemetry manager's two, and its capacity.
fn window_size() -> impl Strategy<Value = usize> {
    (0usize..8).prop_map(|i| [0, 1, 2, 3, 4, 10, 15, 60][i])
}

fn trend_bits(t: Trend) -> Option<(bool, u64, u64)> {
    match t {
        Trend::None => None,
        Trend::Significant {
            direction,
            slope,
            agreement,
        } => Some((
            direction == TrendDirection::Increasing,
            slope.to_bits(),
            agreement.to_bits(),
        )),
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    /// The median lies within the sample range.
    #[test]
    fn median_within_range(v in finite_vec(200)) {
        let m = median(&v).unwrap();
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= lo && m <= hi);
    }

    /// Nearest-rank percentiles are monotone in p and are sample elements.
    #[test]
    fn percentile_monotone_and_elemental(v in finite_vec(100), p1 in 0.0..100.0f64, p2 in 0.0..100.0f64) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let a = percentile(&v, lo).unwrap();
        let b = percentile(&v, hi).unwrap();
        prop_assert!(a <= b);
        prop_assert!(v.contains(&a));
        prop_assert!(v.contains(&b));
    }

    /// Interpolated percentiles are bounded by min/max.
    #[test]
    fn interpolated_bounded(v in finite_vec(100), p in 0.0..100.0f64) {
        let q = percentile_interpolated(&v, p).unwrap();
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(q >= lo - 1e-9 && q <= hi + 1e-9);
    }

    /// Theil–Sen recovers the slope of a clean line exactly (up to fp error)
    /// regardless of intercept and spacing.
    #[test]
    fn theil_sen_exact_on_lines(
        slope in -100.0..100.0f64,
        intercept in -1.0e4..1.0e4f64,
        n in 4usize..40,
    ) {
        let x: Vec<f64> = (0..n).map(|i| i as f64 * 1.5).collect();
        let y: Vec<f64> = x.iter().map(|v| slope * v + intercept).collect();
        let est = theil_sen(&x, &y).unwrap();
        prop_assert!((est - slope).abs() < 1e-6 * (1.0 + slope.abs()));
    }

    /// Theil–Sen trend direction survives corruption of up to 20% of points
    /// on a steep clean line (breakdown point is ~29%).
    #[test]
    fn theil_sen_robust_to_minority_corruption(
        corrupt_at in prop::collection::btree_set(0usize..30, 1..6),
        magnitude in 1.0e6..1.0e9f64,
    ) {
        let n = 30usize;
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mut y: Vec<f64> = x.iter().map(|v| 10.0 * v).collect();
        for &i in &corrupt_at {
            y[i] = if i % 2 == 0 { magnitude } else { -magnitude };
        }
        let t = TheilSen::new().with_alpha(0.6).trend(&x, &y);
        prop_assert!(t.is_increasing(), "trend lost: {:?}", t);
    }

    /// Spearman is invariant under strictly increasing transforms of either
    /// variable.
    #[test]
    fn spearman_monotone_invariance(v in prop::collection::vec(-1.0e3..1.0e3f64, 5..60)) {
        let x: Vec<f64> = (0..v.len()).map(|i| i as f64).collect();
        let rho = spearman(&x, &v);
        let transformed: Vec<f64> = v.iter().map(|&t| (t / 2000.0).tanh() * 3.0 + 5.0).collect();
        let rho2 = spearman(&x, &transformed);
        match (rho, rho2) {
            (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-9, "{a} vs {b}"),
            // tanh can collapse distinct values only by underflow; with the
            // bounded input range both should be Some or both None.
            (None, None) => {},
            other => prop_assert!(false, "mismatch: {:?}", other),
        }
    }

    /// Spearman and Pearson both lie in [-1, 1].
    #[test]
    fn correlations_bounded(
        x in prop::collection::vec(-1.0e3..1.0e3f64, 3..50),
        y_seed in prop::collection::vec(-1.0e3..1.0e3f64, 3..50),
    ) {
        let n = x.len().min(y_seed.len());
        if let Some(r) = pearson(&x[..n], &y_seed[..n]) {
            prop_assert!((-1.0..=1.0).contains(&r));
        }
        if let Some(r) = spearman(&x[..n], &y_seed[..n]) {
            prop_assert!((-1.0..=1.0).contains(&r));
        }
    }

    /// The sliding Theil–Sen kernel returns the batch kernel's bits on the
    /// same tail after every push: through the fill phase, at every ring
    /// alignment over several wraps, and while non-finite samples and
    /// overflowing differences enter and leave the window.
    #[test]
    fn sliding_theil_sen_matches_batch(
        y in stream(),
        window in window_size(),
        alpha in 0.5..=1.0f64,
        min_points in 2usize..6,
    ) {
        let estimator = TheilSen::new().with_alpha(alpha).with_min_points(min_points);
        let mut sliding = SlidingTheilSen::new(estimator, window);
        let (mut carried, mut batch) = (TrendScratch::default(), TrendScratch::default());
        for end in 1..=y.len() {
            sliding.push(y[end - 1]);
            let tail = &y[end.saturating_sub(window)..end];
            prop_assert_eq!(bits(sliding.window()), bits(tail));
            prop_assert_eq!(
                trend_bits(sliding.trend_in(&mut carried)),
                trend_bits(estimator.trend_indexed_in(tail, &mut batch)),
                "window {} after {} pushes, tail {:?}", window, end, tail
            );
        }
    }

    /// Two sliding rank kernels pushed in step return `spearman_in`'s bits
    /// on the same tails after every push, ties and dropped pairs included.
    #[test]
    fn sliding_ranks_match_batch_spearman(
        x in stream(),
        y in stream(),
        window in window_size(),
    ) {
        let (mut rx, mut ry) = (SlidingRanks::new(window), SlidingRanks::new(window));
        let (mut carried, mut batch) = (SpearmanScratch::default(), SpearmanScratch::default());
        for end in 1..=x.len().min(y.len()) {
            rx.push(x[end - 1]);
            ry.push(y[end - 1]);
            let from = end.saturating_sub(window);
            let (tx, ty) = (&x[from..end], &y[from..end]);
            prop_assert_eq!(bits(rx.window()), bits(tx));
            prop_assert_eq!(
                rx.spearman_in(&ry, &mut carried).map(f64::to_bits),
                spearman_in(tx, ty, &mut batch).map(f64::to_bits),
                "window {} after {} pushes, x {:?}, y {:?}", window, end, tx, ty
            );
            // One ranking serves every pairing, itself included.
            prop_assert_eq!(
                rx.spearman_in(&rx, &mut carried).map(f64::to_bits),
                spearman_in(tx, tx, &mut batch).map(f64::to_bits)
            );
        }
    }

    /// Ranks are a permutation-ish: sum equals n(n+1)/2 for finite inputs.
    #[test]
    fn rank_sum_invariant(v in finite_vec(100)) {
        let ranks = average_ranks(&v);
        let sum: f64 = ranks.iter().sum();
        let n = v.len() as f64;
        prop_assert!((sum - n * (n + 1.0) / 2.0).abs() < 1e-6);
    }

    /// The token bucket never spends more than initial + refills, and a
    /// consumer of exactly fill_rate per period never starves.
    #[test]
    fn token_bucket_conservation(
        depth in 1.0..1.0e4f64,
        rate in 0.0..100.0f64,
        demands in prop::collection::vec(0.0..500.0f64, 1..200),
    ) {
        let mut b = TokenBucket::new(depth, rate, depth);
        let mut spent = 0.0;
        let n = demands.len() as f64;
        for d in &demands {
            if b.try_consume(*d) {
                spent += d;
            }
            b.refill();
        }
        prop_assert!(spent <= depth + n * rate + 1e-6);
        prop_assert!(b.available() <= depth + 1e-9);
    }

    /// ExactSum is bit-identical for any grouping of the same inputs —
    /// the monoid property the sharded fleet merge depends on. Inputs
    /// span 30 orders of magnitude so plain f64 folds *would* diverge.
    #[test]
    fn exact_sum_is_grouping_independent(
        v in prop::collection::vec(
            prop_oneof![-1.0e15..1.0e15f64, -1.0e-12..1.0e-12f64],
            1..120,
        ),
        chunk in 1usize..20,
    ) {
        let mut sequential = ExactSum::new();
        for &x in &v {
            sequential.add(x);
        }
        let mut merged = ExactSum::new();
        for group in v.chunks(chunk) {
            let mut part = ExactSum::new();
            for &x in group {
                part.add(x);
            }
            merged.merge(&part);
        }
        prop_assert_eq!(merged.value(), sequential.value());
        // And reversed merge order (commutativity of the exact value).
        let mut rev = ExactSum::new();
        for group in v.chunks(chunk).rev() {
            let mut part = ExactSum::new();
            for &x in group {
                part.add(x);
            }
            rev.merge(&part);
        }
        prop_assert_eq!(rev.value(), sequential.value());
    }
}

/// The interpolated percentile as it was computed with libm `floor` and
/// `ceil` for the two neighbour indices — the reference the index
/// arithmetic in `dasr_stats` must match bit for bit. Same finite filter,
/// same selection, so ties between `-0.0` and `0.0` resolve identically.
fn interpolated_floor_ceil(values: &[f64], p: f64) -> Option<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return None;
    }
    let p = p.clamp(0.0, 100.0);
    let idx = (v.len() - 1) as f64 * p / 100.0;
    let lo = idx.floor() as usize;
    let hi = idx.ceil() as usize;
    let (_, lo_v, right) = v.select_nth_unstable_by(lo, |a, b| a.partial_cmp(b).expect("finite"));
    let lo_v = *lo_v;
    if lo == hi {
        Some(lo_v)
    } else {
        let hi_v = right.iter().copied().fold(f64::INFINITY, f64::min);
        let frac = idx - lo as f64;
        Some(lo_v * (1.0 - frac) + hi_v * frac)
    }
}

/// Finite samples rich in exact ties: signed zeros, small repeated
/// integers and ordinary values, 1 to 64 of them.
fn tied_finite_vec() -> impl Strategy<Value = Vec<f64>> {
    let value = (0u32..6, -1.0e6..1.0e6f64, 0u32..4).prop_map(|(kind, x, d)| match kind {
        0 => 0.0,
        1 => -0.0,
        2 => d as f64,
        3 => -(d as f64),
        _ => x,
    });
    prop::collection::vec(value, 1..65)
}

/// The percentiles the loop and the tests ask for, NaN, and a random one.
fn percentile_rank() -> impl Strategy<Value = f64> {
    (0usize..7, 0.0..100.0f64).prop_map(|(i, r)| [0.0, 50.0, 95.0, 99.0, 100.0, f64::NAN, r][i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The neighbour indices derived without libm give the floor/ceil
    /// result bit for bit, and so does the in-place median the telemetry
    /// level signals use.
    #[test]
    fn interpolated_percentile_matches_floor_ceil_bits(v in tied_finite_vec(), p in percentile_rank()) {
        let want = interpolated_floor_ceil(&v, p).map(f64::to_bits);
        prop_assert_eq!(percentile_interpolated(&v, p).map(f64::to_bits), want);
        let median_want = interpolated_floor_ceil(&v, 50.0).map(f64::to_bits);
        let mut scratch = v.clone();
        prop_assert_eq!(median_of_finite_mut(&mut scratch).map(f64::to_bits), median_want);
    }
}
