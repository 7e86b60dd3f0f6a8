//! Spearman rank correlation (§3.2.2).
//!
//! Spearman's ρ assesses how well the relation between two variables is
//! described by *any monotonic* function — not just a linear one. The paper
//! chooses it because the dependence between utilization, waits and latency
//! in a database engine is usually non-linear, and because the rank transform
//! bounds outlier influence.

use crate::pearson::{from_moments, pearson_of_finite};
use crate::rank::average_ranks_in;
use crate::ring::SampleRing;

/// Spearman rank correlation coefficient of paired samples.
///
/// Computed as the Pearson correlation of average ranks (correct under
/// ties). Pairs with a non-finite member are dropped before ranking. Returns
/// `None` when fewer than two pairs remain or either variable is constant.
///
/// # Examples
/// ```
/// use dasr_stats::spearman;
/// // A monotone but non-linear relation is perfectly rank-correlated.
/// let x = [1.0, 2.0, 3.0, 4.0, 5.0];
/// let y = [1.0, 8.0, 27.0, 64.0, 125.0];
/// assert!((spearman(&x, &y).unwrap() - 1.0).abs() < 1e-12);
/// ```
pub fn spearman(x: &[f64], y: &[f64]) -> Option<f64> {
    spearman_in(x, y, &mut SpearmanScratch::default())
}

/// Reusable buffers for [`spearman_in`]. Holding one of these per caller
/// makes repeated correlations allocation-free in steady state.
#[derive(Debug, Default, Clone)]
pub struct SpearmanScratch {
    xs: Vec<f64>,
    ys: Vec<f64>,
    order: Vec<u32>,
    rx: Vec<f64>,
    ry: Vec<f64>,
}

/// Scratch-buffer variant of [`spearman`]: identical results, but all
/// intermediate vectors (pair filtering, rank order, rank values) live in
/// `scratch` and are reused across calls.
pub fn spearman_in(x: &[f64], y: &[f64], scratch: &mut SpearmanScratch) -> Option<f64> {
    assert_eq!(x.len(), y.len(), "x and y must have equal length");
    // All-pairs-finite fast path: rank the inputs directly, skipping the
    // pair-filtering copy. Identical results — the filtered copy would be
    // the input itself.
    if x.iter()
        .zip(y.iter())
        .all(|(a, b)| a.is_finite() && b.is_finite())
    {
        if x.len() < 2 {
            return None;
        }
        average_ranks_in(x, &mut scratch.order, &mut scratch.rx);
        average_ranks_in(y, &mut scratch.order, &mut scratch.ry);
        return pearson_of_finite(&scratch.rx, &scratch.ry);
    }
    // Drop pairs with non-finite members so both rank vectors align.
    scratch.xs.clear();
    scratch.ys.clear();
    for (a, b) in x.iter().zip(y.iter()) {
        if a.is_finite() && b.is_finite() {
            scratch.xs.push(*a);
            scratch.ys.push(*b);
        }
    }
    if scratch.xs.len() < 2 {
        return None;
    }
    average_ranks_in(&scratch.xs, &mut scratch.order, &mut scratch.rx);
    average_ranks_in(&scratch.ys, &mut scratch.order, &mut scratch.ry);
    pearson_of_finite(&scratch.rx, &scratch.ry)
}

/// Average ranks of the last `window` samples of a stream, kept current at
/// O(window) per sample with no sort, so that one ranking of a series
/// serves every correlation it takes part in.
///
/// What is carried, per ring slot, is the centred average rank (doubled, so
/// it stays an integer): a sample's average rank is the number of window
/// samples below it plus half the number equal to it, itself included, plus
/// one half, and a slide moves each retained sample's two counts by at most
/// one each — decided by comparing it with the sample that left and the
/// sample that arrived.
///
/// [`SlidingRanks::spearman_in`] returns, bit for bit, what [`spearman_in`]
/// returns on the two kernels' [`SlidingRanks::window`]s. The argument is
/// that rank arithmetic is exact in `f64`: an average rank is a
/// half-integer, the mean rank of `n` samples, tied or not, is
/// `(n + 1) / 2`, so every centred rank is a half-integer and every product
/// of two a quarter-integer, and their sums stay far below 2⁵³ (at most
/// `n³ / 4`; `new` bounds `n`). The centred second moments are therefore
/// the same numbers in whatever order, grouping or scaling by a power of two
/// they are accumulated, and only the final quotient — one expression
/// shared with the batch kernel — rounds. A window holding a non-finite
/// sample is handed to the batch kernel, which drops the pair and re-ranks
/// the rest; the counts stay consistent meanwhile because a sample leaves
/// by the comparisons it entered by.
#[derive(Debug, Clone)]
pub struct SlidingRanks {
    ring: SampleRing,
    /// Per ring slot, twice the sample's centred average rank:
    /// `2·#{below} + #{equal, itself included} − len`.
    twice_centred: Vec<f64>,
    /// Σ `twice_centred²` over the live slots.
    sum_sq: f64,
}

impl SlidingRanks {
    /// Windows up to this size have exact rank moments (`n³ < 2⁵³`).
    pub const MAX_WINDOW: usize = 1 << 17;

    /// A kernel ranking the last `window` samples pushed.
    ///
    /// # Panics
    /// Panics if `window` exceeds [`SlidingRanks::MAX_WINDOW`].
    pub fn new(window: usize) -> Self {
        assert!(
            window <= Self::MAX_WINDOW,
            "rank moments are exact only up to {} samples",
            Self::MAX_WINDOW
        );
        Self {
            ring: SampleRing::new(window),
            twice_centred: vec![0.0; window],
            sum_sq: 0.0,
        }
    }

    /// Appends a sample, evicting the oldest once `window` are held.
    pub fn push(&mut self, v: f64) {
        let Some((p, evicted)) = self.ring.push(v) else {
            return;
        };
        // What an arriving (+) or leaving (−) sample `a` does to the doubled
        // rank of a retained sample `r`; NaN compares false and does nothing.
        let weigh = |a: f64, r: f64| 2.0 * f64::from(a < r) + f64::from(a == r);
        let samples = self.ring.slots();
        let ranks = &mut self.twice_centred[..samples.len()];
        // A sample that evicts none raises every mean rank by a half. Slot
        // `p` is updated with the rest and then overwritten. (Two loops: with
        // the choice inside one, the kernel measured a tenth slower.)
        match evicted {
            Some(old) => {
                for (rank, &r) in ranks.iter_mut().zip(samples) {
                    *rank += weigh(v, r) - weigh(old, r);
                }
            }
            None => {
                for (rank, &r) in ranks.iter_mut().zip(samples) {
                    *rank += weigh(v, r) - 1.0;
                }
            }
        }
        let below_and_equal: f64 = samples.iter().map(|&r| weigh(r, v)).sum();
        ranks[p] = below_and_equal - samples.len() as f64;
        self.sum_sq = ranks.iter().map(|c| c * c).sum();
    }

    /// The samples held, oldest → newest.
    pub fn window(&self) -> &[f64] {
        self.ring.window()
    }

    /// Spearman's ρ between this series and `other` over their windows:
    /// what [`spearman_in`] returns on `(self.window(), other.window())`,
    /// bit for bit.
    ///
    /// # Panics
    /// Panics unless the two kernels have the same window size and have
    /// been pushed the same number of samples.
    pub fn spearman_in(&self, other: &SlidingRanks, scratch: &mut SpearmanScratch) -> Option<f64> {
        assert!(
            self.ring.in_step_with(&other.ring),
            "rank windows must slide in step"
        );
        if !(self.ring.all_finite() && other.ring.all_finite()) {
            return spearman_in(self.window(), other.window(), scratch);
        }
        // Live slots are `0..len`, the same slots on both sides.
        let len = self.ring.slots().len();
        let sxy: f64 = self.twice_centred[..len]
            .iter()
            .zip(&other.twice_centred[..len])
            .map(|(a, b)| a * b)
            .sum();
        from_moments(self.sum_sq / 4.0, other.sum_sq / 4.0, sxy / 4.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_monotone_decreasing() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [100.0, 10.0, 1.0, 0.1];
        assert!((spearman(&x, &y).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn invariant_under_monotone_transform() {
        let x: Vec<f64> = (1..=30).map(f64::from).collect();
        let y: Vec<f64> = x.iter().map(|v| v * 2.0 + 3.0).collect();
        let y_exp: Vec<f64> = y.iter().map(|v| v.exp2().min(1e300)).collect();
        let a = spearman(&x, &y).unwrap();
        let b = spearman(&x, &y_exp).unwrap();
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn outlier_influence_is_bounded() {
        // One enormous outlier changes ρ only slightly, unlike Pearson.
        let x: Vec<f64> = (0..50).map(f64::from).collect();
        let mut y: Vec<f64> = x.iter().map(|v| v + ((v * 0.7).sin())).collect();
        let clean = spearman(&x, &y).unwrap();
        y[25] = 1e12;
        let dirty = spearman(&x, &y).unwrap();
        assert!((clean - dirty).abs() < 0.15, "{clean} vs {dirty}");
    }

    #[test]
    fn handles_ties() {
        let x = [1.0, 2.0, 2.0, 3.0];
        let y = [1.0, 2.0, 2.0, 3.0];
        assert!((spearman(&x, &y).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_input_is_none() {
        assert!(spearman(&[1.0; 5], &[1.0, 2.0, 3.0, 4.0, 5.0]).is_none());
    }

    #[test]
    fn textbook_value() {
        // Classic example: ranks differ by a known amount.
        let x = [
            106.0, 86.0, 100.0, 101.0, 99.0, 103.0, 97.0, 113.0, 112.0, 110.0,
        ];
        let y = [7.0, 0.0, 27.0, 50.0, 28.0, 29.0, 20.0, 12.0, 6.0, 17.0];
        let rho = spearman(&x, &y).unwrap();
        assert!((rho + 0.17575757575757575).abs() < 1e-9, "rho = {rho}");
    }
}
