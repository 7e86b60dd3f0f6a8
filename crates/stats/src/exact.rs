//! Error-free floating-point accumulation (Shewchuk expansions).
//!
//! The fleet scheduler folds per-tenant `f64` aggregates (costs, latency
//! sums, gauge totals) into per-shard accumulators and merges those in
//! shard order. Plain `f64` addition is not associative, so the merged
//! total would depend on the shard grouping and the "bit-identical for any
//! thread/shard count" contract would silently break at the last ulp.
//!
//! [`ExactSum`] fixes that by maintaining the *exact* running sum as a
//! non-overlapping expansion of doubles (Shewchuk's `GROW-EXPANSION`, the
//! same algorithm behind Python's `math.fsum`). Addition of an input or a
//! merge of two accumulators preserves the exact real value, so the final
//! [`ExactSum::value`] — the correctly-rounded exact sum — depends only on
//! the *multiset* of inputs, never on grouping or order. That is precisely
//! the associativity/commutativity a monoid fold needs.
//!
//! The partial-sum array is inline (no heap): a non-overlapping expansion
//! of finite doubles can never exceed ~40 components (the exponent range
//! divided by the 53-bit mantissa width), so the accumulator is a flat
//! `[f64; 44]` and every operation is allocation-free.

/// Maximum components of a non-overlapping double expansion, with slack.
///
/// Doubles span binary exponents from −1074 (subnormal) to +1023; each
/// non-overlapping component covers at least 53 bits, so at most
/// ⌈(1023 + 1074 + 53) / 53⌉ = 41 components can coexist. 44 leaves slack
/// for the transient `+1` a single grow step can add.
const MAX_PARTIALS: usize = 44;

/// An exact, grouping-independent sum of `f64` values.
///
/// `add` and `merge` are error-free: the accumulator always represents the
/// exact real-number sum of everything fed in. [`ExactSum::value`] rounds
/// that exact value to the nearest `f64` once, so any two accumulation
/// orders or groupings of the same inputs produce bit-identical results —
/// the property the fleet's sharded monoid fold relies on.
///
/// Non-finite inputs (±∞, NaN) are tracked in a separate plain-`f64` slot
/// so the expansion arithmetic stays well-defined; once one is seen, the
/// result follows IEEE semantics of adding it at the end.
///
/// # Example
///
/// ```
/// use dasr_stats::ExactSum;
///
/// // A sum that plain f64 folds get wrong in grouping-dependent ways.
/// let xs = [1e16, 3.14, -1e16, 2.71, 1e-9];
/// let mut left = ExactSum::new();
/// for x in xs {
///     left.add(x);
/// }
/// // Same inputs, split into two groups and merged.
/// let mut a = ExactSum::new();
/// let mut b = ExactSum::new();
/// a.add(1e16);
/// a.add(3.14);
/// b.add(-1e16);
/// b.add(2.71);
/// b.add(1e-9);
/// a.merge(&b);
/// assert_eq!(left.value(), a.value());
/// assert_eq!(left.value(), 3.14 + 2.71 + 1e-9); // exact here
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ExactSum {
    /// Non-overlapping partials in increasing magnitude order.
    partials: [f64; MAX_PARTIALS],
    /// Live prefix length of `partials`.
    len: usize,
    /// Sum of non-finite inputs (applied on top of the finite expansion).
    special: f64,
}

impl ExactSum {
    /// An empty sum (value 0.0).
    pub const fn new() -> Self {
        Self {
            partials: [0.0; MAX_PARTIALS],
            len: 0,
            special: 0.0,
        }
    }

    /// A sum seeded with one value.
    pub fn of(x: f64) -> Self {
        let mut s = Self::new();
        s.add(x);
        s
    }

    /// Adds one value, error-free (`GROW-EXPANSION` with zero elimination).
    // dasr-lint: no-alloc
    pub fn add(&mut self, x: f64) {
        if !x.is_finite() {
            self.special += x;
            return;
        }
        if x == 0.0 {
            return;
        }
        let mut x = x;
        let mut keep = 0usize;
        for j in 0..self.len {
            let mut y = self.partials[j];
            if x.abs() < y.abs() {
                core::mem::swap(&mut x, &mut y);
            }
            // Two-sum: hi + lo == x + y exactly.
            let hi = x + y;
            let lo = y - (hi - x);
            if lo != 0.0 {
                self.partials[keep] = lo;
                keep += 1;
            }
            x = hi;
        }
        debug_assert!(keep < MAX_PARTIALS, "expansion exceeded its bound");
        self.partials[keep] = x;
        self.len = keep + 1;
    }

    /// Merges another exact sum in, error-free. Because both sides are
    /// exact, `a.merge(&b)` represents exactly `Σa + Σb` — merging in any
    /// grouping or order yields the same exact value, hence the same
    /// [`ExactSum::value`].
    // dasr-lint: no-alloc
    // dasr-lint: entry(G1)
    pub fn merge(&mut self, other: &ExactSum) {
        for j in 0..other.len {
            self.add(other.partials[j]);
        }
        self.special += other.special;
    }

    /// The exact sum, correctly rounded to the nearest `f64` (round half
    /// to even) — `math.fsum`'s final rounding, so the result depends only
    /// on the multiset of inputs, not on the expansion's representation.
    pub fn value(&self) -> f64 {
        if self.special != 0.0 || self.special.is_nan() {
            // IEEE semantics once a non-finite value entered the sum.
            let finite: f64 = self.partials[..self.len].iter().sum();
            return finite + self.special;
        }
        if self.len == 0 {
            return 0.0;
        }
        let p = &self.partials[..self.len];
        let mut n = p.len();
        let mut hi = p[n - 1];
        let mut lo = 0.0;
        while n > 1 {
            n -= 1;
            let x = hi;
            let y = p[n - 1];
            hi = x + y;
            let yr = hi - x;
            lo = y - yr;
            if lo != 0.0 {
                break;
            }
        }
        // Half-way case: if the rounded-off residue and the next partial
        // have the same sign, `hi` sits exactly between two doubles and
        // must round toward the residue (round half to even correction).
        if n > 1 && ((lo < 0.0 && p[n - 2] < 0.0) || (lo > 0.0 && p[n - 2] > 0.0)) {
            let y = lo * 2.0;
            let x = hi + y;
            if y == x - hi {
                hi = x;
            }
        }
        hi
    }
}

impl Default for ExactSum {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_zero() {
        assert_eq!(ExactSum::new().value(), 0.0);
        assert_ne!(ExactSum::of(1.5).value(), 0.0);
    }

    #[test]
    fn simple_sums_match_plain_addition() {
        let mut s = ExactSum::new();
        for x in [1.0, 2.0, 3.5, -0.25] {
            s.add(x);
        }
        assert_eq!(s.value(), 6.25);
    }

    #[test]
    fn cancellation_is_exact() {
        let mut s = ExactSum::new();
        s.add(1e16);
        s.add(1.0);
        s.add(-1e16);
        assert_eq!(s.value(), 1.0, "plain f64 folds would return 0.0 or 2.0");
    }

    #[test]
    fn grouping_independent_under_merge() {
        let xs: Vec<f64> = (0..1000)
            .map(|i| {
                let sign = if i % 3 == 0 { -1.0 } else { 1.0 };
                sign * (i as f64 * 1.000_000_1).exp2().min(1e12) * 0.001
            })
            .collect();
        let mut sequential = ExactSum::new();
        for &x in &xs {
            sequential.add(x);
        }
        for group in [1usize, 3, 7, 17, 1000] {
            let mut merged = ExactSum::new();
            for chunk in xs.chunks(group) {
                let mut part = ExactSum::new();
                for &x in chunk {
                    part.add(x);
                }
                merged.merge(&part);
            }
            assert_eq!(
                merged.value(),
                sequential.value(),
                "grouping {group} diverged"
            );
        }
    }

    #[test]
    fn ill_conditioned_sum_is_correctly_rounded() {
        // fsum's classic test: 1 + 1e100 + 1 - 1e100 == 2 exactly.
        let mut s = ExactSum::new();
        for x in [1.0, 1e100, 1.0, -1e100] {
            s.add(x);
        }
        assert_eq!(s.value(), 2.0);
    }

    #[test]
    fn many_small_values_round_correctly() {
        let mut s = ExactSum::new();
        for _ in 0..10_000 {
            s.add(0.1);
        }
        // The correctly rounded sum of 10_000 exact copies of the double
        // nearest 0.1 (fsum gives exactly this).
        let expect = {
            // 0.1 as a double is 3602879701896397 / 2^55.
            let num = 3602879701896397.0 * 10_000.0;
            num / 2f64.powi(55)
        };
        assert_eq!(s.value(), expect);
    }

    #[test]
    fn non_finite_inputs_follow_ieee() {
        let mut s = ExactSum::of(5.0);
        s.add(f64::INFINITY);
        assert_eq!(s.value(), f64::INFINITY);
        let mut t = ExactSum::of(5.0);
        t.add(f64::INFINITY);
        t.add(f64::NEG_INFINITY);
        assert!(t.value().is_nan());
    }

    #[test]
    fn copy_semantics_and_of() {
        let a = ExactSum::of(2.5);
        let b = a; // Copy
        assert_eq!(a.value(), b.value());
    }

    #[test]
    fn merge_of_empty_is_identity() {
        let mut a = ExactSum::of(1.25);
        a.merge(&ExactSum::new());
        assert_eq!(a.value(), 1.25);
        let mut e = ExactSum::new();
        e.merge(&a);
        assert_eq!(e.value(), 1.25);
    }
}
