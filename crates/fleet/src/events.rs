//! Change-event analysis (§2.2 and §4, Figures 2(a), 2(b)).
//!
//! Each tenant interval is assigned the smallest container covering its
//! resource requirement; a **change event** occurs when the assignment
//! differs between successive intervals. The analysis reports:
//!
//! - the Inter-Event Interval (IEI) distribution (Figure 2(a));
//! - the changes-per-day distribution (Figure 2(b));
//! - the step-size distribution of changes (§4: 90% are 1 step, ≤2 steps
//!   cover 98%), which justifies restricting the estimator to ±2 steps.

use crate::population::TenantPopulation;
use crate::INTERVAL_MINUTES;
use dasr_containers::Catalog;

/// Aggregate change-event statistics over a population.
#[derive(Debug, Clone)]
pub struct ChangeAnalysis {
    /// Inter-event intervals across the whole fleet, in minutes.
    pub iei_minutes: Vec<f64>,
    /// Average change events per day, one entry per tenant.
    pub changes_per_day: Vec<f64>,
    /// Distribution of absolute rung step sizes across all change events.
    pub step_sizes: StepSizeDistribution,
}

/// Histogram of absolute container-step sizes.
#[derive(Debug, Clone, Default)]
pub struct StepSizeDistribution {
    counts: Vec<u64>,
    total: u64,
}

impl StepSizeDistribution {
    /// Records one change of `steps` rungs (absolute value).
    pub fn record(&mut self, steps: usize) {
        if self.counts.len() <= steps {
            self.counts.resize(steps + 1, 0);
        }
        self.counts[steps] += 1;
        self.total += 1;
    }

    /// Fraction of changes that were exactly `steps` rungs.
    pub fn fraction(&self, steps: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.counts.get(steps).copied().unwrap_or(0) as f64 / self.total as f64
    }

    /// Fraction of changes that were at most `steps` rungs.
    pub fn fraction_at_most(&self, steps: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let c: u64 = self.counts.iter().take(steps + 1).sum();
        c as f64 / self.total as f64
    }

    /// Total changes recorded.
    pub fn total(&self) -> u64 {
        self.total
    }
}

impl ChangeAnalysis {
    /// Runs the §2.2 analysis: assign containers, detect change events,
    /// collect IEI / frequency / step-size statistics.
    pub fn analyze(population: &TenantPopulation, catalog: &Catalog) -> Self {
        let mut iei_minutes = Vec::new();
        let mut changes_per_day = Vec::with_capacity(population.len());
        let mut step_sizes = StepSizeDistribution::default();

        for tenant in &population.tenants {
            let rungs: Vec<u8> = tenant
                .intervals
                .iter()
                .map(|req| catalog.assign_for_utilization(req).rung)
                .collect();
            let mut last_change_idx: Option<usize> = None;
            let mut changes = 0u64;
            for i in 1..rungs.len() {
                if rungs[i] != rungs[i - 1] {
                    changes += 1;
                    let step = rungs[i].abs_diff(rungs[i - 1]) as usize;
                    step_sizes.record(step);
                    if let Some(prev) = last_change_idx {
                        iei_minutes.push((i - prev) as f64 * INTERVAL_MINUTES);
                    }
                    last_change_idx = Some(i);
                }
            }
            let days = (rungs.len() as f64 * INTERVAL_MINUTES) / (24.0 * 60.0);
            changes_per_day.push(changes as f64 / days.max(1e-9));
        }

        Self {
            iei_minutes,
            changes_per_day,
            step_sizes,
        }
    }

    /// Fraction of change events within `minutes` of the previous change
    /// (one point of Figure 2(a)'s CDF).
    pub fn iei_fraction_within(&self, minutes: f64) -> f64 {
        if self.iei_minutes.is_empty() {
            return 0.0;
        }
        let c = self.iei_minutes.iter().filter(|&&v| v <= minutes).count();
        c as f64 / self.iei_minutes.len() as f64
    }

    /// Fraction of tenants averaging at least `n` change events per day
    /// (Figure 2(b) cumulative view).
    pub fn fraction_with_at_least_changes(&self, n: f64) -> f64 {
        if self.changes_per_day.is_empty() {
            return 0.0;
        }
        let c = self.changes_per_day.iter().filter(|&&v| v >= n).count();
        c as f64 / self.changes_per_day.len() as f64
    }

    /// Histogram over the paper's Figure 2(b) buckets
    /// (0, 1, 2, 3, 6, 12, 24, more): fraction of tenants per bucket.
    pub fn changes_per_day_buckets(&self) -> Vec<(String, f64)> {
        let edges = [0.0, 1.0, 2.0, 3.0, 6.0, 12.0, 24.0];
        let n = self.changes_per_day.len().max(1) as f64;
        let mut out = Vec::new();
        for (i, &e) in edges.iter().enumerate().take(edges.len() - 1) {
            let next = edges[i + 1];
            let c = self
                .changes_per_day
                .iter()
                .filter(|&&v| v >= e && v < next)
                .count();
            out.push((format!("{e}"), c as f64 / n));
        }
        let more = self
            .changes_per_day
            .iter()
            .filter(|&&v| v >= *edges.last().expect("non-empty"))
            .count();
        out.push(("More".to_string(), more as f64 / n));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analysis(n: usize) -> ChangeAnalysis {
        let pop = TenantPopulation::generate(n, 0xF1EE7);
        ChangeAnalysis::analyze(&pop, &Catalog::azure_like())
    }

    #[test]
    fn step_size_distribution_basics() {
        let mut d = StepSizeDistribution::default();
        for _ in 0..90 {
            d.record(1);
        }
        for _ in 0..8 {
            d.record(2);
        }
        d.record(3);
        d.record(4);
        assert_eq!(d.total(), 100);
        assert_eq!(d.fraction(1), 0.90);
        assert_eq!(d.fraction_at_most(2), 0.98);
        assert_eq!(d.fraction(7), 0.0);
    }

    #[test]
    fn fleet_changes_are_frequent_like_figure2() {
        let a = analysis(300);
        assert!(!a.iei_minutes.is_empty());
        // Figure 2(a): 86% of IEIs within 60 minutes. Accept the shape:
        // a clear majority within the hour.
        let within_60 = a.iei_fraction_within(60.0);
        assert!(
            within_60 > 0.6,
            "IEI within 60 min = {within_60}, expected the Figure 2(a) shape"
        );
        // Figure 2(b): >78% of tenants with ≥1 change/day, >52% with ≥6.
        let at_least_1 = a.fraction_with_at_least_changes(1.0);
        let at_least_6 = a.fraction_with_at_least_changes(6.0);
        assert!(at_least_1 > 0.65, "≥1/day: {at_least_1}");
        assert!(at_least_6 > 0.40, "≥6/day: {at_least_6}");
    }

    #[test]
    fn step_sizes_match_section4_statistic() {
        let a = analysis(300);
        // §4: one-step changes ≈90%, ≤2 steps ≈98%.
        let one = a.step_sizes.fraction(1);
        let upto2 = a.step_sizes.fraction_at_most(2);
        assert!(one > 0.7, "1-step fraction {one}");
        assert!(upto2 > 0.9, "≤2-step fraction {upto2}");
    }

    #[test]
    fn buckets_sum_to_one() {
        let a = analysis(100);
        let total: f64 = a.changes_per_day_buckets().iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn steady_tenants_change_rarely() {
        use crate::archetype::TenantArchetype;
        let pop = TenantPopulation::generate(400, 0xF1EE7);
        let catalog = Catalog::azure_like();
        let mut steady_changes = 0.0;
        let mut steady_n = 0.0;
        let mut bursty_changes = 0.0;
        let mut bursty_n = 0.0;
        for t in &pop.tenants {
            let rungs: Vec<u8> = t
                .intervals
                .iter()
                .map(|req| catalog.assign_for_utilization(req).rung)
                .collect();
            let changes = rungs.windows(2).filter(|w| w[0] != w[1]).count() as f64;
            match t.archetype {
                TenantArchetype::Steady => {
                    steady_changes += changes;
                    steady_n += 1.0;
                }
                TenantArchetype::Bursty => {
                    bursty_changes += changes;
                    bursty_n += 1.0;
                }
                _ => {}
            }
        }
        assert!(steady_n > 0.0 && bursty_n > 0.0);
        assert!(
            bursty_changes / bursty_n > 3.0 * (steady_changes / steady_n).max(0.5),
            "bursty {} vs steady {}",
            bursty_changes / bursty_n,
            steady_changes / steady_n
        );
    }
}
