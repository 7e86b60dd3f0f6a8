//! Medians and percentiles.
//!
//! The paper aggregates fine-grained telemetry with *robust* statistics
//! (§3.1): the median has the best possible breakdown point (50%), whereas
//! the mean breaks down with a single corrupted observation. Two percentile
//! definitions are provided:
//!
//! - [`percentile`] — nearest-rank, matching what monitoring systems (and the
//!   paper's threshold derivation, §4.1) typically report;
//! - [`percentile_interpolated`] — linear interpolation between closest
//!   ranks, used where a smoother estimate matters (latency goals).

/// Returns the nearest-rank `p`-th percentile of `values` (`0.0 ..= 100.0`).
///
/// Returns `None` for an empty slice. Non-finite values are ignored; if all
/// values are non-finite the result is `None`.
///
/// The nearest-rank definition returns an element of the input, never an
/// interpolated value: for `p = 0` the minimum, for `p = 100` the maximum.
///
/// # Examples
/// ```
/// use dasr_stats::percentile;
/// let v = [15.0, 20.0, 35.0, 40.0, 50.0];
/// assert_eq!(percentile(&v, 30.0), Some(20.0));
/// assert_eq!(percentile(&v, 100.0), Some(50.0));
/// ```
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    percentile_in(values, p, &mut Vec::new())
}

/// Scratch-buffer variant of [`percentile`] for hot paths: finite values are
/// copied into `scratch` (cleared first) and selected in place with
/// `select_nth_unstable` — O(n) instead of a full sort, and the caller's
/// buffer is reused across calls so steady state allocates nothing.
pub fn percentile_in(values: &[f64], p: f64, scratch: &mut Vec<f64>) -> Option<f64> {
    collect_finite_into(values, scratch);
    if scratch.is_empty() {
        return None;
    }
    Some(nearest_rank_select(scratch, p))
}

/// Nearest-rank percentile by in-place selection. Reorders `values`.
///
/// # Panics
/// Panics if `values` is empty. All values must be finite.
fn nearest_rank_select(values: &mut [f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of empty slice");
    let p = p.clamp(0.0, 100.0);
    let n = values.len();
    let rank = if p == 0.0 {
        1
    } else {
        (p / 100.0 * n as f64).ceil() as usize
    };
    let k = rank.clamp(1, n) - 1;
    *values
        .select_nth_unstable_by(k, |a, b| a.partial_cmp(b).expect("finite"))
        .1
}

/// Clears `scratch` and fills it with the finite entries of `values`.
fn collect_finite_into(values: &[f64], scratch: &mut Vec<f64>) {
    scratch.clear();
    scratch.extend(values.iter().copied().filter(|v| v.is_finite()));
}

/// Returns the linearly interpolated `p`-th percentile (`0.0 ..= 100.0`).
///
/// Uses the `(n - 1) * p` convention (NumPy's default). Returns `None` for an
/// empty slice; non-finite values are ignored.
///
/// # Examples
/// ```
/// use dasr_stats::percentile_interpolated;
/// let v = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(percentile_interpolated(&v, 50.0), Some(2.5));
/// ```
pub fn percentile_interpolated(values: &[f64], p: f64) -> Option<f64> {
    percentile_interpolated_in(values, p, &mut Vec::new())
}

/// Scratch-buffer variant of [`percentile_interpolated`]; see
/// [`percentile_in`] for the contract.
pub fn percentile_interpolated_in(values: &[f64], p: f64, scratch: &mut Vec<f64>) -> Option<f64> {
    collect_finite_into(values, scratch);
    if scratch.is_empty() {
        return None;
    }
    Some(interpolated_select(scratch, p))
}

/// Interpolated percentile by in-place selection: one `select_nth_unstable`
/// for the lower neighbor, then the upper neighbor is the minimum of the
/// right partition. Reorders `values`.
///
/// The neighbor indices need no libm `floor`/`ceil`: `idx` is non-negative
/// (or NaN), so the saturating cast truncates it to its floor (NaN to 0),
/// and the upper neighbor exists exactly when `idx` has a fractional part.
///
/// # Panics
/// Panics if `values` is empty. All values must be finite.
fn interpolated_select(values: &mut [f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of empty slice");
    let p = p.clamp(0.0, 100.0);
    let idx = (values.len() - 1) as f64 * p / 100.0;
    let lo = idx as usize;
    let (_, lo_v, right) =
        values.select_nth_unstable_by(lo, |a, b| a.partial_cmp(b).expect("finite"));
    let lo_v = *lo_v;
    let frac = idx - lo as f64;
    if frac > 0.0 {
        let hi_v = right.iter().copied().fold(f64::INFINITY, f64::min);
        lo_v * (1.0 - frac) + hi_v * frac
    } else {
        lo_v
    }
}

/// Returns the median (50th percentile, interpolated for even lengths).
///
/// Returns `None` for an empty slice; non-finite values are ignored.
///
/// # Examples
/// ```
/// use dasr_stats::median;
/// assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
/// assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), Some(2.5));
/// ```
pub fn median(values: &[f64]) -> Option<f64> {
    percentile_interpolated(values, 50.0)
}

/// Scratch-buffer variant of [`median`]; see [`percentile_in`] for the
/// contract.
pub fn median_in(values: &[f64], scratch: &mut Vec<f64>) -> Option<f64> {
    percentile_interpolated_in(values, 50.0, scratch)
}

/// Median of values the caller has already filtered to the finite ones,
/// selected in place: [`median_in`] without its copy into scratch, for a
/// caller that gathers straight into its own buffer. Reorders `values`.
///
/// Returns `None` for an empty slice. All values must be finite.
pub fn median_of_finite_mut(values: &mut [f64]) -> Option<f64> {
    debug_assert!(values.iter().all(|v| v.is_finite()), "non-finite input");
    if values.is_empty() {
        return None;
    }
    Some(interpolated_select(values, 50.0))
}

/// In-place median via partial selection — avoids the extra allocation of
/// [`median`] for hot paths. Reorders `values`.
///
/// Returns `None` if the slice is empty or contains non-finite values.
pub fn median_of_mut(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| !v.is_finite()) {
        return None;
    }
    let n = values.len();
    let mid = n / 2;
    let (_, upper_mid, _) =
        values.select_nth_unstable_by(mid, |a, b| a.partial_cmp(b).expect("finite"));
    let upper = *upper_mid;
    if n % 2 == 1 {
        Some(upper)
    } else {
        // Even length: the lower-middle element is the max of the left part.
        let lower = values[..mid]
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        Some((lower + upper) / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_inputs_yield_none() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile_interpolated(&[], 50.0), None);
        assert_eq!(median(&[]), None);
        assert_eq!(median_of_mut(&mut []), None);
    }

    #[test]
    fn single_element() {
        assert_eq!(percentile(&[7.0], 0.0), Some(7.0));
        assert_eq!(percentile(&[7.0], 100.0), Some(7.0));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median_of_mut(&mut [7.0]), Some(7.0));
    }

    #[test]
    fn nearest_rank_matches_wikipedia_example() {
        // Canonical nearest-rank example.
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 5.0), Some(15.0));
        assert_eq!(percentile(&v, 30.0), Some(20.0));
        assert_eq!(percentile(&v, 40.0), Some(20.0));
        assert_eq!(percentile(&v, 50.0), Some(35.0));
        assert_eq!(percentile(&v, 95.0), Some(50.0));
    }

    #[test]
    fn interpolated_percentiles() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile_interpolated(&v, 0.0), Some(1.0));
        assert_eq!(percentile_interpolated(&v, 25.0), Some(2.0));
        assert_eq!(percentile_interpolated(&v, 100.0), Some(5.0));
        assert_eq!(percentile_interpolated(&[1.0, 2.0], 75.0), Some(1.75));
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[5.0, 1.0, 9.0]), Some(5.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn median_of_mut_matches_median() {
        let cases: Vec<Vec<f64>> = vec![
            vec![1.0],
            vec![2.0, 1.0],
            vec![10.0, -5.0, 3.0, 3.0, 7.0],
            vec![0.0; 8],
            (0..101).map(f64::from).collect(),
        ];
        for case in cases {
            let expected = median(&case);
            let mut buf = case.clone();
            assert_eq!(median_of_mut(&mut buf), expected, "case {case:?}");
        }
    }

    #[test]
    fn non_finite_values_are_ignored() {
        assert_eq!(median(&[1.0, f64::NAN, 3.0]), Some(2.0));
        assert_eq!(percentile(&[f64::INFINITY, 2.0], 100.0), Some(2.0));
        assert_eq!(percentile(&[f64::NAN], 50.0), None);
    }

    #[test]
    fn median_breakdown_point_is_high() {
        // Corrupting < 50% of observations cannot drag the median beyond the
        // range of the clean data.
        let mut data: Vec<f64> = (0..100).map(|i| 50.0 + (i % 7) as f64).collect();
        for slot in data.iter_mut().take(49) {
            *slot = 1.0e12; // arbitrarily large corruption
        }
        let m = median(&data).unwrap();
        assert!((50.0..=56.0).contains(&m), "median {m} dragged by outliers");
    }

    #[test]
    fn out_of_range_p_is_clamped() {
        let v = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&v, -5.0), Some(1.0));
        assert_eq!(percentile(&v, 250.0), Some(3.0));
    }

    /// Nearest-rank percentile over a sorted slice: the sort-based
    /// definition the selection kernels replaced.
    fn nearest_rank_sorted(sorted: &[f64], p: f64) -> f64 {
        let p = p.clamp(0.0, 100.0);
        if p == 0.0 {
            return sorted[0];
        }
        let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    /// Interpolated percentile over a sorted slice, likewise.
    fn interpolated_sorted(sorted: &[f64], p: f64) -> f64 {
        let p = p.clamp(0.0, 100.0);
        let idx = (sorted.len() - 1) as f64 * p / 100.0;
        let (lo, hi) = (idx.floor() as usize, idx.ceil() as usize);
        if lo == hi {
            sorted[lo]
        } else {
            let frac = idx - lo as f64;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        }
    }

    #[test]
    fn selection_matches_full_sort_reference() {
        // The select_nth_unstable kernels must agree bit-for-bit with the
        // original sort-based definition across sizes and percentiles.
        let reference_nearest = |values: &[f64], p: f64| -> Option<f64> {
            let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
            if sorted.is_empty() {
                return None;
            }
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            Some(nearest_rank_sorted(&sorted, p))
        };
        let reference_interp = |values: &[f64], p: f64| -> Option<f64> {
            let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
            if sorted.is_empty() {
                return None;
            }
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            Some(interpolated_sorted(&sorted, p))
        };
        let mut scratch = Vec::new();
        for n in [1usize, 2, 3, 7, 10, 31, 100] {
            // Deterministic scrambled values with ties and a NaN.
            let mut v: Vec<f64> = (0..n).map(|i| ((i * 37) % 11) as f64 - 3.0).collect();
            if n > 4 {
                v[2] = f64::NAN;
            }
            for p in [0.0, 5.0, 30.0, 50.0, 75.0, 95.0, 100.0] {
                assert_eq!(
                    percentile_in(&v, p, &mut scratch),
                    reference_nearest(&v, p),
                    "nearest n={n} p={p}"
                );
                assert_eq!(
                    percentile_interpolated_in(&v, p, &mut scratch),
                    reference_interp(&v, p),
                    "interp n={n} p={p}"
                );
            }
        }
    }

    #[test]
    fn scratch_variants_reuse_buffer() {
        let mut scratch = Vec::with_capacity(64);
        assert_eq!(median_in(&[3.0, 1.0, 2.0], &mut scratch), Some(2.0));
        let cap = scratch.capacity();
        assert_eq!(median_in(&[5.0, 4.0], &mut scratch), Some(4.5));
        assert_eq!(scratch.capacity(), cap, "no reallocation in steady state");
        assert_eq!(median_in(&[], &mut scratch), None);
    }
}
