//! Token bucket — the traffic-shaping primitive behind the budget manager (§5).
//!
//! A token bucket of depth `D` holds at most `D` tokens, starts with `TI`
//! tokens, and is refilled with `TR` tokens per period. The paper maps the
//! tenant's monetary budget onto this structure: tokens are budget units,
//! one period is one billing interval, `TR = Cmin` guarantees the cheapest
//! container is always affordable, and `D = B − (n−1)·Cmin` bounds the
//! maximum burst so the total spend can never exceed `B`.
//!
//! This module is deliberately generic (plain `f64` tokens); the budget
//! policy lives in `dasr-core::budget`.

/// A fixed-capacity token bucket.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TokenBucket {
    depth: f64,
    fill_rate: f64,
    tokens: f64,
}

impl TokenBucket {
    /// Creates a bucket with capacity `depth`, refill `fill_rate` per call to
    /// [`refill`](Self::refill), and `initial` starting tokens (clamped to
    /// the depth).
    ///
    /// # Panics
    /// Panics if `depth < 0`, `fill_rate < 0`, or `initial < 0`.
    pub fn new(depth: f64, fill_rate: f64, initial: f64) -> Self {
        assert!(depth >= 0.0, "depth must be non-negative");
        assert!(fill_rate >= 0.0, "fill rate must be non-negative");
        assert!(initial >= 0.0, "initial tokens must be non-negative");
        Self {
            depth,
            fill_rate,
            tokens: initial.min(depth),
        }
    }

    /// Tokens currently available.
    pub fn available(&self) -> f64 {
        self.tokens
    }

    /// Bucket capacity.
    pub fn depth(&self) -> f64 {
        self.depth
    }

    /// Refill amount per period.
    pub fn fill_rate(&self) -> f64 {
        self.fill_rate
    }

    /// Adds one period's worth of tokens, saturating at the depth.
    pub fn refill(&mut self) {
        self.tokens = (self.tokens + self.fill_rate).min(self.depth);
    }

    /// Attempts to consume `amount` tokens; returns `true` and deducts on
    /// success, leaves the bucket unchanged and returns `false` when fewer
    /// than `amount` tokens are available.
    ///
    /// # Panics
    /// Panics if `amount` is negative or non-finite.
    pub fn try_consume(&mut self, amount: f64) -> bool {
        assert!(
            amount >= 0.0 && amount.is_finite(),
            "invalid consume amount"
        );
        // Tolerate floating-point dust so that consuming exactly the balance
        // computed from the same arithmetic always succeeds.
        if amount <= self.tokens + 1e-9 {
            self.tokens = (self.tokens - amount).max(0.0);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_is_clamped_to_depth() {
        let b = TokenBucket::new(10.0, 1.0, 100.0);
        assert_eq!(b.available(), 10.0);
    }

    #[test]
    fn refill_saturates() {
        let mut b = TokenBucket::new(5.0, 3.0, 4.0);
        b.refill();
        assert_eq!(b.available(), 5.0);
    }

    #[test]
    fn consume_success_and_failure() {
        let mut b = TokenBucket::new(10.0, 0.0, 6.0);
        assert!(b.try_consume(4.0));
        assert_eq!(b.available(), 2.0);
        assert!(!b.try_consume(3.0));
        assert_eq!(b.available(), 2.0, "failed consume must not change state");
        assert!(b.try_consume(2.0));
        assert_eq!(b.available(), 0.0);
    }

    #[test]
    fn spend_never_exceeds_initial_plus_refills() {
        // Conservation: over n periods, total successful consumption is
        // bounded by initial + n * fill_rate.
        let (depth, rate, init) = (100.0, 7.0, 100.0);
        let mut b = TokenBucket::new(depth, rate, init);
        let mut spent = 0.0;
        let n = 50;
        for i in 0..n {
            // Greedy: always try to take a big chunk.
            let want = if i % 3 == 0 { 40.0 } else { 5.0 };
            if b.try_consume(want) {
                spent += want;
            }
            b.refill();
        }
        assert!(
            spent <= init + n as f64 * rate + 1e-6,
            "spent {spent} exceeds budget"
        );
    }

    #[test]
    fn guaranteed_minimum_per_period() {
        // With fill_rate >= c, a consumer that takes exactly c each period
        // never fails (paper: TR = Cmin keeps the cheapest container
        // affordable forever).
        let c = 7.0;
        let mut b = TokenBucket::new(1000.0, c, 0.0);
        for _ in 0..1000 {
            b.refill();
            assert!(b.try_consume(c));
        }
    }

    #[test]
    fn floating_point_dust_tolerated() {
        let mut b = TokenBucket::new(1.0, 0.1, 0.0);
        for _ in 0..10 {
            b.refill();
        }
        // 10 * 0.1 may be 0.9999999999999999.
        assert!(b.try_consume(1.0));
    }

    #[test]
    #[should_panic(expected = "invalid consume amount")]
    fn negative_consume_panics() {
        let mut b = TokenBucket::new(1.0, 1.0, 1.0);
        let _ = b.try_consume(-1.0);
    }
}
