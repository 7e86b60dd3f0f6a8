//! Theil–Sen trend estimation with the paper's acceptance test (§3.2.1).
//!
//! Given `n` points `(x_i, y_i)`, the Theil–Sen estimator computes the slope
//! of the line through every pair and takes the **median** of those
//! `O(n²)` pairwise slopes. Its breakdown point is ≈29.3%, which makes it
//! robust to the outliers endemic to system telemetry, unlike least-squares
//! regression (breakdown point 0 — a single corrupted sample can flip the
//! slope sign).
//!
//! The paper uses the pairwise slopes a second way: a trend is only
//! **accepted** if at least `α%` of the pairwise slopes agree in sign
//! (α = 70 in the paper's implementation). A noisy, trendless series
//! produces a near-even split of positive and negative slopes and is
//! rejected; this prevents the auto-scaler from chasing noise.

use crate::ring::SampleRing;

/// Direction of an accepted trend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrendDirection {
    /// Values increase with time.
    Increasing,
    /// Values decrease with time.
    Decreasing,
}

/// Result of a Theil–Sen trend test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trend {
    /// Too few points, the sign-agreement test failed, or the samples lie
    /// so far apart that a pairwise difference overflows: no statistically
    /// significant trend. The auto-scaler must ignore it.
    None,
    /// A significant trend with the given direction and median slope
    /// (units of y per unit of x).
    Significant {
        /// Whether the trend is increasing or decreasing.
        direction: TrendDirection,
        /// Median pairwise slope (y units per x unit).
        slope: f64,
        /// Fraction of pairwise slopes agreeing with the dominant sign, in
        /// `[0.5, 1.0]`.
        agreement: f64,
    },
}

impl Trend {
    /// True if this is a significant increasing trend.
    pub fn is_increasing(&self) -> bool {
        matches!(
            self,
            Trend::Significant {
                direction: TrendDirection::Increasing,
                ..
            }
        )
    }

    /// True if this is a significant decreasing trend.
    pub fn is_decreasing(&self) -> bool {
        matches!(
            self,
            Trend::Significant {
                direction: TrendDirection::Decreasing,
                ..
            }
        )
    }

    /// True if no significant trend was detected.
    pub fn is_none(&self) -> bool {
        matches!(self, Trend::None)
    }

    /// Median slope of the trend, or `0.0` when no trend was accepted.
    pub fn slope(&self) -> f64 {
        match self {
            Trend::None => 0.0,
            Trend::Significant { slope, .. } => *slope,
        }
    }
}

/// Theil–Sen trend estimator.
///
/// Construct with [`TheilSen::new`], configure the acceptance threshold with
/// [`TheilSen::with_alpha`], and evaluate series with [`TheilSen::trend`].
#[derive(Debug, Clone, Copy)]
pub struct TheilSen {
    /// Minimum fraction (in `[0.5, 1.0]`) of pairwise slopes that must share
    /// a sign for a trend to be accepted. Paper value: 0.70.
    alpha: f64,
    /// Minimum number of points to attempt estimation.
    min_points: usize,
    /// Slopes with absolute value at or below this are treated as flat
    /// (neither positive nor negative) in the agreement test.
    flat_eps: f64,
}

impl Default for TheilSen {
    fn default() -> Self {
        Self::new()
    }
}

impl TheilSen {
    /// Estimator with the paper's defaults: α = 0.70, at least 4 points.
    pub fn new() -> Self {
        Self {
            alpha: 0.70,
            min_points: 4,
            flat_eps: 1e-12,
        }
    }

    /// Sets the sign-agreement acceptance threshold `alpha` (`0.5 ..= 1.0`).
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        assert!((0.5..=1.0).contains(&alpha), "alpha must be in [0.5, 1.0]");
        self.alpha = alpha;
        self
    }

    /// Sets the minimum number of points required to attempt estimation.
    pub fn with_min_points(mut self, min_points: usize) -> Self {
        assert!(min_points >= 2, "need at least two points for a slope");
        self.min_points = min_points;
        self
    }

    /// Sets the flatness epsilon: pairwise slopes with `|m| <= eps` count as
    /// flat and vote for neither direction.
    pub fn with_flat_epsilon(mut self, eps: f64) -> Self {
        assert!(eps >= 0.0, "epsilon must be non-negative");
        self.flat_eps = eps;
        self
    }

    /// Computes the trend of `y` sampled at equally *indexed* positions
    /// `x = 0, 1, 2, …` (the common telemetry case: one sample per interval).
    pub fn trend_indexed(&self, y: &[f64]) -> Trend {
        self.trend_indexed_in(y, &mut TrendScratch::default())
    }

    /// Scratch-buffer variant of [`TheilSen::trend_indexed`], the per-tenant
    /// per-interval hot path. Because the x positions are the sample indices
    /// of the finite entries, `dx = j - i > 0` always holds: no x vector is
    /// materialized, no vertical-pair check runs, and the slope buffer is
    /// reused across calls.
    pub fn trend_indexed_in(&self, y: &[f64], scratch: &mut TrendScratch) -> Trend {
        // All-finite fast path (every util/wait series): pairwise slopes
        // straight off the slice, no index indirection. `d + 1 == j - i`,
        // so the computed slopes are bit-identical to the general path.
        if y.iter().all(|v| v.is_finite()) {
            if y.len() < self.min_points {
                return Trend::None;
            }
            scratch.slopes.clear();
            scratch.slopes.reserve(y.len() * (y.len() - 1) / 2);
            for (i, &yi) in y.iter().enumerate() {
                for (d, &yj) in y[i + 1..].iter().enumerate() {
                    scratch.slopes.push((yj - yi) / (d + 1) as f64);
                }
            }
            return self.accept(&mut scratch.slopes);
        }
        scratch.idx.clear();
        scratch
            .idx
            .extend((0..y.len() as u32).filter(|&i| y[i as usize].is_finite()));
        if scratch.idx.len() < self.min_points {
            return Trend::None;
        }
        scratch.slopes.clear();
        scratch
            .slopes
            .reserve(scratch.idx.len() * (scratch.idx.len() - 1) / 2);
        for (a, &i) in scratch.idx.iter().enumerate() {
            let yi = y[i as usize];
            for &j in &scratch.idx[a + 1..] {
                scratch.slopes.push((y[j as usize] - yi) / (j - i) as f64);
            }
        }
        self.accept(&mut scratch.slopes)
    }

    /// Computes the trend of points `(x[i], y[i])`.
    ///
    /// Pairs with equal `x` are skipped (vertical slope). Returns
    /// [`Trend::None`] if fewer than `min_points` finite points are supplied,
    /// if no valid pairwise slope exists, or if the sign-agreement test
    /// fails.
    ///
    /// # Panics
    /// Panics if `x.len() != y.len()`.
    pub fn trend(&self, x: &[f64], y: &[f64]) -> Trend {
        self.trend_in(x, y, &mut TrendScratch::default())
    }

    /// Scratch-buffer variant of [`TheilSen::trend`]: identical results,
    /// reusable intermediate buffers.
    ///
    /// # Panics
    /// Panics if `x.len() != y.len()`.
    pub fn trend_in(&self, x: &[f64], y: &[f64], scratch: &mut TrendScratch) -> Trend {
        if !self.collect_slopes(x, y, scratch) {
            return Trend::None;
        }
        if scratch.slopes.is_empty() {
            return Trend::None;
        }
        self.accept(&mut scratch.slopes)
    }

    /// Returns only the median pairwise slope — no sign-agreement test — or
    /// `None` when fewer than `min_points` finite points or no valid
    /// (distinct-x) pair exists.
    ///
    /// Unlike the trend entry points this never rejects a series for being
    /// flat or noisy: a constant series yields `Some(0.0)`. (Earlier
    /// versions routed through the agreement test, which both paid its full
    /// cost and wrongly returned `None` for flat series.)
    ///
    /// # Examples
    ///
    /// The median of pairwise slopes shrugs off an outlier that would drag
    /// a least-squares fit (§3.2.1):
    ///
    /// ```
    /// use dasr_stats::TheilSen;
    ///
    /// let ts = TheilSen::new();
    /// let x = [0.0, 1.0, 2.0, 3.0, 4.0];
    /// assert_eq!(ts.slope(&x, &[1.0, 3.0, 5.0, 7.0, 9.0]), Some(2.0));
    /// // One corrupted sample: the median slope is still 2.
    /// assert_eq!(ts.slope(&x, &[1.0, 3.0, 5.0, 7.0, 100.0]), Some(2.0));
    /// // A flat series is a valid zero slope, not a rejection.
    /// assert_eq!(ts.slope(&x, &[5.0; 5]), Some(0.0));
    /// ```
    pub fn slope(&self, x: &[f64], y: &[f64]) -> Option<f64> {
        self.slope_in(x, y, &mut TrendScratch::default())
    }

    /// Scratch-buffer variant of [`TheilSen::slope`].
    ///
    /// # Panics
    /// Panics if `x.len() != y.len()`.
    pub fn slope_in(&self, x: &[f64], y: &[f64], scratch: &mut TrendScratch) -> Option<f64> {
        if !self.collect_slopes(x, y, scratch) {
            return None;
        }
        crate::quantile::median_of_mut(&mut scratch.slopes)
    }

    /// Fills `scratch.slopes` with all valid pairwise slopes of the finite
    /// points of `(x, y)`. Returns `false` when fewer than `min_points`
    /// finite points exist (slopes untouched).
    fn collect_slopes(&self, x: &[f64], y: &[f64], scratch: &mut TrendScratch) -> bool {
        assert_eq!(x.len(), y.len(), "x and y must have equal length");
        scratch.xs.clear();
        scratch.ys.clear();
        for (a, b) in x.iter().zip(y.iter()) {
            if a.is_finite() && b.is_finite() {
                scratch.xs.push(*a);
                scratch.ys.push(*b);
            }
        }
        let n = scratch.xs.len();
        if n < self.min_points {
            return false;
        }
        scratch.slopes.clear();
        scratch.slopes.reserve(n * (n - 1) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                let dx = scratch.xs[j] - scratch.xs[i];
                if dx != 0.0 {
                    scratch.slopes.push((scratch.ys[j] - scratch.ys[i]) / dx);
                }
            }
        }
        true
    }

    /// The paper's α-sign-agreement acceptance test over collected pairwise
    /// slopes. Consumes `slopes` (reordered by the median selection).
    fn accept(&self, slopes: &mut [f64]) -> Trend {
        let (mut pos, mut neg) = (0usize, 0usize);
        for &m in slopes.iter() {
            pos += self.is_rising(m) as usize;
            neg += self.is_falling(m) as usize;
        }
        match self.sign_test(pos, neg, slopes.len()) {
            Some((direction, agreement)) => accepted(direction, agreement, slopes),
            None => Trend::None,
        }
    }

    /// True when pairwise slope `m` votes for an increasing trend.
    fn is_rising(&self, m: f64) -> bool {
        m > self.flat_eps
    }

    /// True when pairwise slope `m` votes for a decreasing trend.
    fn is_falling(&self, m: f64) -> bool {
        m < -self.flat_eps
    }

    /// The sign test alone: the dominant direction among `total` pairwise
    /// slopes and its share, if that share reaches α. It runs before the
    /// median because it needs only the two counters and rejects most
    /// telemetry windows.
    fn sign_test(&self, pos: usize, neg: usize, total: usize) -> Option<(TrendDirection, f64)> {
        let (dominant, direction) = if pos >= neg {
            (pos, TrendDirection::Increasing)
        } else {
            (neg, TrendDirection::Decreasing)
        };
        let agreement = dominant as f64 / total as f64;
        (agreement >= self.alpha).then_some((direction, agreement))
    }
}

/// The trend of a series that passed the sign test: its median pairwise
/// slope. Reorders `slopes`.
///
/// Finite samples further apart than `f64::MAX` make a pairwise difference
/// overflow to ±∞. Such a window has no usable median slope and is
/// [`Trend::None`] — the auto-scaler ignores it, as it ignores every other
/// series the test cannot vouch for — whatever the signs say.
fn accepted(direction: TrendDirection, agreement: f64, slopes: &mut [f64]) -> Trend {
    match crate::quantile::median_of_mut(slopes) {
        Some(slope) => Trend::Significant {
            direction,
            slope,
            agreement,
        },
        None => Trend::None,
    }
}

/// Reusable buffers for the scratch-based Theil–Sen entry points. One
/// instance per caller makes repeated trend tests allocation-free once the
/// buffers have grown to the window size.
#[derive(Debug, Default, Clone)]
pub struct TrendScratch {
    slopes: Vec<f64>,
    idx: Vec<u32>,
    xs: Vec<f64>,
    ys: Vec<f64>,
}

/// Theil–Sen trend test over the last `window` samples of a stream, at
/// O(window) per sample instead of O(window²) and a selection.
///
/// [`SlidingTheilSen::trend_in`] returns, bit for bit, what
/// [`TheilSen::trend_indexed_in`] returns on [`SlidingTheilSen::window`]:
///
/// - **What is carried.** The slope of every pair of retained samples, in a
///   table keyed by *ring slot*, and the two sign counters of the α test.
///   The batch kernel divides by index *distance*, and a slide changes no
///   retained pair's distance, order or values, so after a slide the
///   retained slopes are the same bits; a push overwrites the `window − 1`
///   entries of the slot it reuses (the evicted sample's slopes) with the
///   new sample's, moving the counters by what it removed and what it added.
/// - **The verdict.** The sign test reads only the counters. Only a window
///   that passes it gathers the table for the median, which is a function
///   of the multiset of slopes (table order differs from the batch
///   kernel's): equal finite slopes are equal bits except ±0, and since at
///   least half the slopes of an accepted window share one non-zero sign,
///   its median never depends on the sign of a zero.
/// - **What is not carried.** A window holding a non-finite sample is
///   handed to the batch kernel, which re-indexes the finite samples; the
///   table and counters stay consistent meanwhile because every update
///   removes exactly the bits it stored.
#[derive(Debug, Clone)]
pub struct SlidingTheilSen {
    estimator: TheilSen,
    ring: SampleRing,
    /// Slope of the samples in ring slots `s < t`, at `t(t−1)/2 + s`. The
    /// pairs among slots `0..len` are exactly the first `len(len−1)/2`
    /// entries; unwritten entries hold NaN, which votes for neither sign.
    slopes: Vec<f64>,
    rising: usize,
    falling: usize,
}

/// Number of pairs among `n` samples — and the table offset of slot `n`.
fn pairs(n: usize) -> usize {
    n * n.saturating_sub(1) / 2
}

impl SlidingTheilSen {
    /// A kernel answering `estimator`'s trend test over the last `window`
    /// samples pushed.
    pub fn new(estimator: TheilSen, window: usize) -> Self {
        Self {
            estimator,
            ring: SampleRing::new(window),
            slopes: vec![f64::NAN; pairs(window)],
            rising: 0,
            falling: 0,
        }
    }

    /// Appends a sample, evicting the oldest once `window` are held.
    pub fn push(&mut self, y: f64) {
        let Self {
            estimator,
            ring,
            slopes,
            rising,
            falling,
        } = self;
        let Some((p, _)) = ring.push(y) else {
            return;
        };
        // Overwrites one table entry, keeping the sign counters in step.
        let mut replace = |at: usize, slope: f64| {
            let old = std::mem::replace(&mut slopes[at], slope);
            *rising -= estimator.is_rising(old) as usize;
            *falling -= estimator.is_falling(old) as usize;
            *rising += estimator.is_rising(slope) as usize;
            *falling += estimator.is_falling(slope) as usize;
        };
        // Every other live sample is older than `y`: those in lower slots by
        // `p - q` steps, those in higher slots (none while filling) by
        // `p + window - q`.
        let window = ring.capacity();
        let samples = ring.slots();
        for (q, &older) in samples[..p].iter().enumerate() {
            replace(pairs(p) + q, (y - older) / (p - q) as f64);
        }
        for (q, &older) in samples.iter().enumerate().skip(p + 1) {
            replace(pairs(q) + p, (y - older) / (p + window - q) as f64);
        }
    }

    /// The samples held, oldest → newest.
    pub fn window(&self) -> &[f64] {
        self.ring.window()
    }

    /// The trend of [`SlidingTheilSen::window`]: what
    /// [`TheilSen::trend_indexed_in`] returns on it, bit for bit.
    pub fn trend_in(&self, scratch: &mut TrendScratch) -> Trend {
        if !self.ring.all_finite() {
            return self.estimator.trend_indexed_in(self.window(), scratch);
        }
        let len = self.ring.slots().len();
        if len < self.estimator.min_points {
            return Trend::None;
        }
        let live = &self.slopes[..pairs(len)];
        let Some((direction, agreement)) =
            self.estimator
                .sign_test(self.rising, self.falling, live.len())
        else {
            return Trend::None;
        };
        scratch.slopes.clear();
        scratch.slopes.extend_from_slice(live);
        accepted(direction, agreement, &mut scratch.slopes)
    }
}

/// Convenience: median pairwise slope of `(x, y)` with default settings.
///
/// Returns `None` when fewer than two distinct-x finite points exist.
pub fn theil_sen(x: &[f64], y: &[f64]) -> Option<f64> {
    TheilSen::new().with_min_points(2).slope(x, y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_line_recovers_slope() {
        let x: Vec<f64> = (0..20).map(f64::from).collect();
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v + 7.0).collect();
        let slope = theil_sen(&x, &y).unwrap();
        assert!((slope - 3.0).abs() < 1e-12);
        assert!(TheilSen::new().trend(&x, &y).is_increasing());
    }

    #[test]
    fn decreasing_line_detected() {
        let y: Vec<f64> = (0..10).map(|i| 100.0 - 2.0 * i as f64).collect();
        let t = TheilSen::new().trend_indexed(&y);
        assert!(t.is_decreasing());
        assert!((t.slope() + 2.0).abs() < 1e-12);
    }

    #[test]
    fn too_few_points_is_none() {
        assert_eq!(TheilSen::new().trend_indexed(&[1.0, 2.0, 3.0]), Trend::None);
    }

    #[test]
    fn constant_series_has_no_trend() {
        let y = [5.0; 16];
        assert!(TheilSen::new().trend_indexed(&y).is_none());
    }

    #[test]
    fn alternating_noise_is_rejected() {
        // +1/-1 alternating: roughly half the pairwise slopes are positive,
        // half negative — must fail the 70% agreement test.
        let y: Vec<f64> = (0..20)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        assert!(TheilSen::new().trend_indexed(&y).is_none());
    }

    #[test]
    fn tolerates_outliers_up_to_breakdown() {
        // 20 points on slope 2, with 4 (20%) wildly corrupted: the median
        // slope must stay near 2 and the trend remain increasing.
        let x: Vec<f64> = (0..20).map(f64::from).collect();
        let mut y: Vec<f64> = x.iter().map(|v| 2.0 * v).collect();
        y[3] = 1e9;
        y[8] = -1e9;
        y[15] = 1e9;
        y[19] = -1e9;
        let t = TheilSen::new().with_alpha(0.6).trend(&x, &y);
        assert!(t.is_increasing(), "trend lost to 20% outliers: {t:?}");
        assert!((t.slope() - 2.0).abs() < 0.5, "slope {}", t.slope());
    }

    #[test]
    fn least_squares_would_break_where_theil_sen_does_not() {
        // Contrast case from the paper: one large outlier flips OLS but not
        // Theil–Sen.
        let x: Vec<f64> = (0..12).map(f64::from).collect();
        let mut y: Vec<f64> = x.iter().map(|v| v + 1.0).collect();
        y[0] = 1e6; // single corrupted point
        let ts = theil_sen(&x, &y).unwrap();
        let n = x.len() as f64;
        let (mx, my) = (x.iter().sum::<f64>() / n, y.iter().sum::<f64>() / n);
        let sxy: f64 = x.iter().zip(&y).map(|(a, b)| (a - mx) * (b - my)).sum();
        let sxx: f64 = x.iter().map(|a| (a - mx) * (a - mx)).sum();
        let ols = sxy / sxx;
        assert!((ts - 1.0).abs() < 0.2, "Theil-Sen slope {ts}");
        assert!(ols < 0.0, "OLS should be dragged negative: {ols}");
    }

    #[test]
    fn vertical_pairs_are_skipped() {
        let x = [1.0, 1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [0.0, 100.0, 2.0, 3.0, 4.0, 5.0];
        // Slope still computable from non-vertical pairs.
        assert!(theil_sen(&x, &y).is_some());
    }

    #[test]
    fn all_same_x_is_none() {
        let x = [2.0; 6];
        let y = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        assert_eq!(theil_sen(&x, &y), None);
    }

    #[test]
    fn agreement_is_reported() {
        let y: Vec<f64> = (0..10).map(f64::from).collect();
        match TheilSen::new().trend_indexed(&y) {
            Trend::Significant { agreement, .. } => assert_eq!(agreement, 1.0),
            Trend::None => panic!("expected significant trend"),
        }
    }

    #[test]
    fn overflowing_differences_are_no_trend() {
        // Finite and rising, but three pairwise differences exceed f64::MAX:
        // the median of the slopes is undefined, and this used to panic.
        let y = [-1e308, 0.0, 1e308, 1.1e308, 1.2e308];
        assert_eq!(TheilSen::new().trend_indexed(&y), Trend::None);
        let mut sliding = SlidingTheilSen::new(TheilSen::new(), y.len());
        y.iter().for_each(|&v| sliding.push(v));
        assert_eq!(sliding.trend_in(&mut TrendScratch::default()), Trend::None);
        // Once the extremes have left the window the trend is back.
        [1.3e308, 1.4e308, 1.5e308]
            .iter()
            .for_each(|&v| sliding.push(v));
        assert!(sliding
            .trend_in(&mut TrendScratch::default())
            .is_increasing());
    }

    #[test]
    #[should_panic(expected = "alpha must be in")]
    fn invalid_alpha_panics() {
        let _ = TheilSen::new().with_alpha(0.3);
    }

    #[test]
    fn nan_points_are_filtered() {
        let x: Vec<f64> = (0..10).map(f64::from).collect();
        let mut y: Vec<f64> = x.iter().map(|v| 2.0 * v).collect();
        y[4] = f64::NAN;
        let t = TheilSen::new().trend(&x, &y);
        assert!(t.is_increasing());
    }
}
