//! The Budget Manager (§5): token-bucket allocation of a budgeting-period
//! budget onto billing intervals.
//!
//! A tenant specifies budget `B` over `n` billing intervals. The manager
//! guarantees `Σ Cᵢ ≤ B` while always leaving enough for the cheapest
//! container (`Bᵢ ≥ Cmin`), and shapes how aggressively the surplus
//! `B − n·Cmin` may be burst:
//!
//! - **Aggressive** — start with a full bucket (`TI = D`): early bursts can
//!   spend freely, at the risk of being pinned to the cheapest container at
//!   the end of the period;
//! - **Conservative** — `TI = K·Cmax`, `TR = (B − TI)/(n−1)`: bursts are
//!   limited to roughly `K` intervals of the most expensive container plus
//!   saved surplus, preserving budget for late bursts.

use dasr_stats::TokenBucket;

/// Surplus-shaping strategies (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetStrategy {
    /// `TI = D`: the full burst allowance is available immediately.
    Aggressive,
    /// `TI = K·Cmax`, `TR = (B − TI)/(n−1)`: limit the initial burst to
    /// about `K` intervals of the largest container.
    Conservative {
        /// Burst allowance in intervals of the most expensive container.
        k: u32,
    },
}

/// Allocates the budgeting-period budget across billing intervals.
#[derive(Debug, Clone)]
pub struct BudgetManager {
    bucket: TokenBucket,
    budget: f64,
    intervals: u64,
    elapsed: u64,
    spent: f64,
    min_cost: f64,
}

impl BudgetManager {
    /// Creates a manager for budget `budget` over `intervals` billing
    /// intervals, with container costs spanning `[min_cost, max_cost]`.
    ///
    /// # Panics
    /// Panics unless `budget ≥ intervals · min_cost` (otherwise even the
    /// cheapest container is unaffordable) and parameters are positive.
    pub fn new(
        budget: f64,
        intervals: u64,
        min_cost: f64,
        max_cost: f64,
        strategy: BudgetStrategy,
    ) -> Self {
        assert!(
            budget.is_finite() && budget > 0.0,
            "budget must be positive"
        );
        assert!(intervals > 0, "need at least one interval");
        assert!(
            min_cost > 0.0 && max_cost >= min_cost,
            "invalid cost bounds"
        );
        assert!(
            budget >= intervals as f64 * min_cost,
            "budget {budget} cannot afford the cheapest container for {intervals} intervals"
        );
        let n = intervals as f64;
        // D = B − (n−1)·Cmin bounds any burst so Σ Cᵢ ≤ B.
        let depth = budget - (n - 1.0) * min_cost;
        let (fill_rate, initial) = match strategy {
            BudgetStrategy::Aggressive => (min_cost, depth),
            BudgetStrategy::Conservative { k } => {
                assert!(k > 0, "conservative K must be positive");
                let ti = (f64::from(k) * max_cost).min(depth);
                let tr = if intervals > 1 {
                    ((budget - ti) / (n - 1.0)).max(min_cost)
                } else {
                    min_cost
                };
                (tr, ti)
            }
        };
        Self {
            bucket: TokenBucket::new(depth, fill_rate, initial),
            budget,
            intervals,
            elapsed: 0,
            spent: 0.0,
            min_cost,
        }
    }

    /// The budget available for the next billing interval (`Bᵢ`).
    pub fn available(&self) -> f64 {
        self.bucket.available()
    }

    /// Total spent so far.
    pub fn spent(&self) -> f64 {
        self.spent
    }

    /// The whole-period budget (`B`).
    pub fn budget(&self) -> f64 {
        self.budget
    }

    /// Remaining whole-period budget (`B − spent`).
    pub fn remaining(&self) -> f64 {
        (self.budget - self.spent).max(0.0)
    }

    /// Billing intervals elapsed.
    pub fn elapsed(&self) -> u64 {
        self.elapsed
    }

    /// Configured number of intervals in the budgeting period.
    pub fn intervals(&self) -> u64 {
        self.intervals
    }

    /// Charges the cost of the interval that just ended and refills the
    /// bucket for the next one. Returns `false` (and charges nothing) if
    /// `cost` exceeds the available tokens — callers that only select
    /// containers with `cost ≤ available()` never see that.
    pub fn charge(&mut self, cost: f64) -> bool {
        assert!(cost.is_finite() && cost >= 0.0, "invalid cost");
        let ok = self.bucket.try_consume(cost);
        if ok {
            self.spent += cost;
        }
        self.elapsed += 1;
        if self.elapsed < self.intervals {
            self.bucket.refill();
        }
        ok
    }

    /// The guaranteed per-interval floor (`Cmin`).
    pub fn min_cost(&self) -> f64 {
        self.min_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CMIN: f64 = 7.0;
    const CMAX: f64 = 270.0;

    #[test]
    fn aggressive_starts_full() {
        let n = 100;
        let b = 5_000.0;
        let m = BudgetManager::new(b, n, CMIN, CMAX, BudgetStrategy::Aggressive);
        let depth = b - (n as f64 - 1.0) * CMIN;
        assert_eq!(m.available(), depth);
    }

    #[test]
    fn conservative_starts_with_k_bursts() {
        let m = BudgetManager::new(
            50_000.0,
            1_000,
            CMIN,
            CMAX,
            BudgetStrategy::Conservative { k: 3 },
        );
        assert_eq!(m.available(), 3.0 * CMAX);
    }

    #[test]
    fn total_spend_never_exceeds_budget_aggressive() {
        let n = 200u64;
        let budget = 4_000.0;
        let mut m = BudgetManager::new(budget, n, CMIN, CMAX, BudgetStrategy::Aggressive);
        let mut spent = 0.0;
        for i in 0..n {
            // Greedy adversary: always buy the biggest affordable tier.
            let cost = if m.available() >= CMAX {
                CMAX
            } else if i % 2 == 0 {
                CMIN
            } else {
                m.available().min(30.0)
            };
            assert!(m.charge(cost), "selected cost must always be chargeable");
            spent += cost;
        }
        assert!(spent <= budget + 1e-6, "spent {spent} > budget {budget}");
        assert_eq!(m.spent(), spent);
    }

    /// Every spending path of small budgets: costs {1, 2, 3, 5} (so Cmin 1
    /// and Cmax 5), n ≤ 7 intervals, B = n·Cmin + 0..=12, under Aggressive
    /// and Conservative K = 1..=3, buying at every interval each cost that
    /// is affordable.
    #[test]
    fn every_affordable_spending_path_stays_within_budget() {
        const COSTS: [f64; 4] = [1.0, 2.0, 3.0, 5.0];
        /// Counts the states visited and the complete paths.
        fn walk(m: &BudgetManager, states: &mut u64, paths: &mut u64) {
            *states += 1;
            if m.elapsed() == m.intervals() {
                assert!(m.spent() <= m.budget(), "overspent: {m:?}");
                *paths += 1;
                return;
            }
            assert!(m.available() >= m.min_cost(), "B_i < Cmin: {m:?}");
            for cost in COSTS.into_iter().filter(|&c| c <= m.available()) {
                let mut next = m.clone();
                assert!(next.charge(cost), "affordable {cost} refused: {m:?}");
                walk(&next, states, paths);
            }
        }
        let (mut states, mut paths) = (0, 0);
        for n in 1..=7u64 {
            for surplus in 0..=12 {
                let budget = n as f64 * COSTS[0] + f64::from(surplus);
                for strategy in [
                    BudgetStrategy::Aggressive,
                    BudgetStrategy::Conservative { k: 1 },
                    BudgetStrategy::Conservative { k: 2 },
                    BudgetStrategy::Conservative { k: 3 },
                ] {
                    let m = BudgetManager::new(budget, n, COSTS[0], COSTS[3], strategy);
                    walk(&m, &mut states, &mut paths);
                }
            }
        }
        assert_eq!((states, paths), (295_184, 190_511));
    }

    #[test]
    fn cheapest_container_always_affordable() {
        // Even after a maximal early burst, Bᵢ ≥ Cmin at every decision.
        let n = 500u64;
        let mut m = BudgetManager::new(
            n as f64 * CMIN + 3.0 * CMAX,
            n,
            CMIN,
            CMAX,
            BudgetStrategy::Aggressive,
        );
        for _ in 0..n {
            assert!(m.available() >= CMIN - 1e-9, "B_i {} < Cmin", m.available());
            let cost = if m.available() >= CMAX { CMAX } else { CMIN };
            assert!(m.charge(cost));
        }
    }

    #[test]
    fn aggressive_burst_exhausts_then_pins_to_cmin() {
        // Sustained max demand: after the burst budget drains, only the
        // cheapest container is affordable (the §5 trade-off).
        let n = 100u64;
        let budget = n as f64 * CMIN + 2.0 * CMAX; // room for ~2 max intervals
        let mut m = BudgetManager::new(budget, n, CMIN, CMAX, BudgetStrategy::Aggressive);
        let mut max_intervals = 0;
        for _ in 0..n {
            if m.available() >= CMAX {
                m.charge(CMAX);
                max_intervals += 1;
            } else {
                m.charge(CMIN);
            }
        }
        assert!(
            (2..=3).contains(&max_intervals),
            "expected ~2 max-tier intervals, got {max_intervals}"
        );
        assert!(m.spent() <= budget + 1e-6);
    }

    #[test]
    fn conservative_saves_for_late_bursts() {
        // Identical budgets; late burst demand. Conservative affords more
        // max-tier intervals late than aggressive does after early burn.
        let n = 60u64;
        let budget = n as f64 * CMIN + 6.0 * CMAX;
        let run = |strategy| {
            let mut m = BudgetManager::new(budget, n, CMIN, CMAX, strategy);
            let mut late_max = 0;
            for i in 0..n {
                let burst = !(10..50).contains(&i); // early and late bursts
                let cost = if burst && m.available() >= CMAX {
                    if i >= 50 {
                        late_max += 1;
                    }
                    CMAX
                } else {
                    CMIN
                };
                m.charge(cost);
            }
            late_max
        };
        let aggressive_late = run(BudgetStrategy::Aggressive);
        let conservative_late = run(BudgetStrategy::Conservative { k: 2 });
        assert!(
            conservative_late >= aggressive_late,
            "conservative {conservative_late} < aggressive {aggressive_late}"
        );
    }

    #[test]
    fn accessors() {
        let mut m = BudgetManager::new(1_000.0, 10, CMIN, CMAX, BudgetStrategy::Aggressive);
        assert_eq!(m.intervals(), 10);
        assert_eq!(m.elapsed(), 0);
        assert_eq!(m.min_cost(), CMIN);
        m.charge(100.0);
        assert_eq!(m.elapsed(), 1);
        assert_eq!(m.remaining(), 900.0);
    }

    #[test]
    fn overcharge_is_rejected_without_state_damage() {
        let mut m = BudgetManager::new(100.0, 10, 7.0, 270.0, BudgetStrategy::Aggressive);
        let avail = m.available();
        assert!(!m.charge(avail + 50.0));
        assert_eq!(m.spent(), 0.0);
    }

    #[test]
    #[should_panic(expected = "cannot afford")]
    fn insufficient_budget_panics() {
        let _ = BudgetManager::new(10.0, 100, CMIN, CMAX, BudgetStrategy::Aggressive);
    }
}
