//! Pearson product-moment correlation.
//!
//! Used directly by [`crate::spearman()`] (Spearman's ρ is the Pearson
//! correlation of ranks) and exposed for diagnostics.

/// Pearson correlation coefficient of paired samples `(x[i], y[i])`.
///
/// Pairs with a non-finite member are dropped. Returns `None` when fewer
/// than two pairs remain or either variable is constant (zero variance).
/// The result lies in `[-1, 1]` (clamped against rounding).
///
/// # Examples
/// ```
/// use dasr_stats::pearson;
/// let x = [1.0, 2.0, 3.0];
/// let y = [2.0, 4.0, 6.0];
/// assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
/// ```
pub fn pearson(x: &[f64], y: &[f64]) -> Option<f64> {
    assert_eq!(x.len(), y.len(), "x and y must have equal length");
    if x.iter()
        .zip(y.iter())
        .all(|(a, b)| a.is_finite() && b.is_finite())
    {
        return pearson_of_finite(x, y);
    }
    let pts: Vec<(f64, f64)> = x
        .iter()
        .zip(y.iter())
        .filter(|(a, b)| a.is_finite() && b.is_finite())
        .map(|(a, b)| (*a, *b))
        .collect();
    let (xs, ys): (Vec<f64>, Vec<f64>) = pts.into_iter().unzip();
    pearson_of_finite(&xs, &ys)
}

/// Allocation-free Pearson correlation over slices already known to hold
/// only finite values of equal length (e.g. rank vectors). The hot-path
/// kernel behind [`pearson`].
pub fn pearson_of_finite(x: &[f64], y: &[f64]) -> Option<f64> {
    debug_assert_eq!(x.len(), y.len());
    if x.len() < 2 {
        return None;
    }
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    let mut sxy = 0.0;
    for (a, b) in x.iter().zip(y.iter()) {
        let dx = a - mx;
        let dy = b - my;
        sxx += dx * dx;
        syy += dy * dy;
        sxy += dx * dy;
    }
    from_moments(sxx, syy, sxy)
}

/// The correlation coefficient from the centred second moments — the only
/// step of a rank correlation that rounds.
pub(crate) fn from_moments(sxx: f64, syy: f64, sxy: f64) -> Option<f64> {
    if sxx == 0.0 || syy == 0.0 {
        return None;
    }
    Some((sxy / (sxx.sqrt() * syy.sqrt())).clamp(-1.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_negative() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&x, &y).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn uncorrelated_is_near_zero() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [1.0, -1.0, 1.0, -1.0];
        let r = pearson(&x, &y).unwrap();
        assert!(r.abs() < 0.5, "r = {r}");
    }

    #[test]
    fn constant_series_is_none() {
        assert!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]).is_none());
        assert!(pearson(&[1.0, 2.0, 3.0], &[5.0, 5.0, 5.0]).is_none());
    }

    #[test]
    fn nan_pairs_dropped() {
        let x = [1.0, f64::NAN, 2.0, 3.0];
        let y = [2.0, 100.0, 4.0, 6.0];
        assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn too_short_is_none() {
        assert!(pearson(&[1.0], &[2.0]).is_none());
        assert!(pearson(&[], &[]).is_none());
    }
}
