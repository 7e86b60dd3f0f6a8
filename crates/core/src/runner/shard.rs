//! Per-shard fleet aggregation: the monoid the sharded scheduler folds.
//!
//! The fleet scheduler (`crate::runner::fleet`) splits the tenant index
//! space into contiguous shards, runs each shard's closed loops on a worker
//! thread, and folds every finished [`RunReport`] into that shard's
//! [`FleetAccumulator`]. Shard accumulators are then merged into one and
//! [`FleetAccumulator::finish`]ed into a [`FleetSummary`].
//!
//! # Why this is a monoid (and why that matters)
//!
//! `fold`/`merge` must be associative with `new()` as identity, or the
//! result would depend on how tenants were grouped into shards and the
//! "bit-identical for any thread/shard count" contract would break.
//! Integer fields (counts, histogram buckets) are trivially associative;
//! the floating-point sums (fleet cost, latency sums, gauge totals) are
//! *not* under plain `f64` addition, so they are carried as
//! [`ExactSum`] error-free expansions and rounded exactly once in
//! `finish`. The result therefore depends only on the multiset of folded
//! reports — never on shard boundaries, merge order, or thread count.
//!
//! # Why a summary at all
//!
//! A full fleet run keeps every [`RunReport`] — O(tenants) memory, with
//! every request latency retained. At 100k+ tenants that is the scaling
//! bottleneck, and §7 of the paper only needs fleet aggregates. Summary
//! mode folds each report into the accumulator and *drops* it, keeping
//! memory O(shards); request latencies survive as a fixed-bucket
//! histogram ([`REQUEST_LATENCY_BOUNDS`]) whose quantile estimates stand
//! in for the pooled exact percentiles.

use crate::obs::{FixedHistogram, HistAcc, MetricRegistry, MetricsAccumulator};
use crate::report::RunReport;
use crate::rules::RuleHistogram;
use dasr_stats::ExactSum;

/// Inclusive upper bounds (ms) of the fleet request-latency histogram, with
/// an implicit overflow bucket above the last bound.
///
/// Log-spaced from sub-millisecond to 10 s so the §2.3 latency-goal range
/// (tens to hundreds of ms) lands in the fine-grained middle: the p95
/// estimate's error is bounded by one bucket's width.
pub const REQUEST_LATENCY_BOUNDS: &[f64] = &[
    0.5, 1.0, 2.0, 3.0, 5.0, 7.5, 10.0, 15.0, 20.0, 30.0, 50.0, 75.0, 100.0, 150.0, 200.0, 300.0,
    500.0, 750.0, 1_000.0, 1_500.0, 2_500.0, 5_000.0, 10_000.0,
];

/// One shard's running fold over finished tenant reports.
///
/// `new` is the identity, [`FleetAccumulator::fold_report`] absorbs one
/// tenant, [`FleetAccumulator::merge`] combines two shards; all three
/// commute and associate at the bit level (see the [module
/// docs](self#why-this-is-a-monoid-and-why-that-matters)).
#[derive(Debug, Clone)]
pub struct FleetAccumulator {
    tenants: u64,
    intervals: u64,
    completed: u64,
    rejected: u64,
    resizes: u64,
    events: u64,
    cost: ExactSum,
    latency: HistAcc,
    metrics: MetricsAccumulator,
}

impl FleetAccumulator {
    /// The empty fold (monoid identity).
    pub fn new() -> Self {
        Self {
            tenants: 0,
            intervals: 0,
            completed: 0,
            rejected: 0,
            resizes: 0,
            events: 0,
            cost: ExactSum::new(),
            latency: HistAcc::new(REQUEST_LATENCY_BOUNDS),
            metrics: MetricsAccumulator::new(),
        }
    }

    /// Absorbs one finished tenant report. Called on the worker that ran
    /// the tenant, so in summary mode the report can be dropped right
    /// after and never crosses threads.
    // dasr-lint: no-alloc
    // dasr-lint: entry(G1)
    pub fn fold_report(&mut self, report: &RunReport) {
        self.tenants += 1;
        self.intervals += report.intervals.len() as u64;
        self.rejected += report.rejected_total;
        self.resizes += report.resizes;
        self.events += report.obs.events.len() as u64;
        for rec in &report.intervals {
            self.completed += rec.completed;
            self.cost.add(rec.cost);
        }
        for &ms in &report.all_latencies_ms {
            self.latency.observe(ms);
        }
        self.metrics.fold(&report.obs.metrics);
    }

    /// Merges another shard's fold in (the monoid operation).
    // dasr-lint: no-alloc
    // dasr-lint: entry(G1)
    pub fn merge(&mut self, other: &FleetAccumulator) {
        self.tenants += other.tenants;
        self.intervals += other.intervals;
        self.completed += other.completed;
        self.rejected += other.rejected;
        self.resizes += other.resizes;
        self.events += other.events;
        self.cost.merge(&other.cost);
        self.latency.merge(&other.latency);
        self.metrics.merge(&other.metrics);
    }

    /// Rounds the exact fold into a [`FleetSummary`].
    pub fn finish(self) -> FleetSummary {
        FleetSummary {
            tenants: self.tenants,
            intervals_total: self.intervals,
            total_cost: self.cost.value(),
            completed_total: self.completed,
            rejected_total: self.rejected,
            resizes_total: self.resizes,
            events_emitted: self.events,
            latency: self.latency.finish(),
            metrics: self.metrics.finish(),
        }
    }
}

impl Default for FleetAccumulator {
    fn default() -> Self {
        Self::new()
    }
}

/// Fleet-wide aggregates in O(1) fields — the memory-flat alternative to
/// keeping every tenant's [`RunReport`].
///
/// Produced by the scheduler's monoid fold, so every field is bit-identical
/// for any thread or shard count. Equality covers all of it (the
/// [`MetricRegistry`] inside compares its deterministic sections only, as
/// everywhere else).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSummary {
    /// Tenants folded in.
    pub tenants: u64,
    /// Billing intervals across the fleet.
    pub intervals_total: u64,
    /// Total cost across the fleet (exact sum, correctly rounded).
    pub total_cost: f64,
    /// Requests completed across the fleet.
    pub completed_total: u64,
    /// Requests rejected across the fleet.
    pub rejected_total: u64,
    /// Resize operations across the fleet.
    pub resizes_total: u64,
    /// Run events recorded across the fleet (kept in full mode, streamed
    /// to the sink in summary mode).
    pub events_emitted: u64,
    /// Pooled request latencies as a fixed-bucket histogram
    /// ([`REQUEST_LATENCY_BOUNDS`]).
    pub latency: FixedHistogram,
    /// Every tenant's registry folded exactly (see
    /// [`MetricsAccumulator`]).
    pub metrics: MetricRegistry,
}

impl FleetSummary {
    /// Mean per-interval cost across all tenants' intervals.
    pub fn avg_cost_per_interval(&self) -> f64 {
        if self.intervals_total == 0 {
            0.0
        } else {
            self.total_cost / self.intervals_total as f64
        }
    }

    /// Pooled 95th-percentile request latency *estimate*, ms, from the
    /// latency histogram (accuracy bounded by the bucket width — see
    /// [`FixedHistogram::quantile_estimate`]).
    pub fn p95_estimate_ms(&self) -> Option<f64> {
        self.latency.quantile_estimate(95.0)
    }

    /// Fleet-wide rule-fire counts (from the folded registries).
    pub fn rule_histogram(&self) -> &RuleHistogram {
        self.metrics.rules()
    }

    /// One-line fleet summary for experiment tables.
    pub fn summary(&self) -> String {
        format!(
            "fleet of {:>4}: ~p95 {:>8.1} ms | avg cost/interval {:>7.2} | resizes {:>5} | rejected {}",
            self.tenants,
            self.p95_estimate_ms().unwrap_or(f64::NAN),
            self.avg_cost_per_interval(),
            self.resizes_total,
            self.rejected_total,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::RunObservability;
    use crate::report::IntervalRecord;
    use crate::trace::DecisionTrace;
    use dasr_containers::{ContainerId, ResourceVector};

    fn record(minute: u64, cost: f64, completed: u64) -> IntervalRecord {
        IntervalRecord {
            minute,
            container: ContainerId(0),
            rung: 0,
            cost,
            allocated: ResourceVector::new(1.0, 1024.0, 100.0, 5.0),
            used: ResourceVector::ZERO,
            latency_ms: Some(10.0),
            completed,
            rejected: 0,
            wait_pct: [0.0; 7],
            mem_used_mb: 0.0,
            resized: false,
            trace: DecisionTrace::empty(minute, ContainerId(0)),
        }
    }

    fn report(seed: u64) -> RunReport {
        // Mixed-magnitude costs/latencies so a plain f64 fold would be
        // grouping-dependent.
        let scale = 1.0 + (seed % 7) as f64 * 1e11;
        RunReport {
            policy: "auto".into(),
            workload: "cpuio".into(),
            trace: "t".into(),
            intervals: vec![
                record(0, 0.07 * scale, 10 + seed),
                record(1, 0.30 / scale, 5),
            ],
            all_latencies_ms: vec![0.2, 4.0 * (seed + 1) as f64, 180.0, 20_000.0],
            resizes: seed % 3,
            rejected_total: seed % 2,
            obs: RunObservability::default(),
        }
    }

    #[test]
    fn empty_fold_finishes_to_zeros() {
        let s = FleetAccumulator::new().finish();
        assert_eq!(s.tenants, 0);
        assert_eq!(s.total_cost, 0.0);
        assert_eq!(s.avg_cost_per_interval(), 0.0);
        assert_eq!(s.p95_estimate_ms(), None);
        assert_eq!(s.latency.mean(), None);
    }

    #[test]
    fn fold_counts_everything() {
        let mut acc = FleetAccumulator::new();
        acc.fold_report(&report(0));
        acc.fold_report(&report(1));
        let s = acc.finish();
        assert_eq!(s.tenants, 2);
        assert_eq!(s.intervals_total, 4);
        assert_eq!(s.completed_total, 10 + 5 + 11 + 5);
        assert_eq!(s.rejected_total, 1);
        assert_eq!(s.resizes_total, 1);
        assert_eq!(s.latency.total(), 8);
        // 20_000 ms lands in the overflow bucket.
        assert_eq!(
            s.latency.counts()[REQUEST_LATENCY_BOUNDS.len()],
            2,
            "overflow bucket"
        );
        assert!(s.summary().contains("fleet of"));
    }

    #[test]
    fn merge_is_grouping_independent_bit_for_bit() {
        let reports: Vec<RunReport> = (0..40).map(report).collect();
        let mut sequential = FleetAccumulator::new();
        for r in &reports {
            sequential.fold_report(r);
        }
        let sequential = sequential.finish();
        for group in [1usize, 3, 8, 17, 40] {
            let mut merged = FleetAccumulator::new();
            for chunk in reports.chunks(group) {
                let mut shard = FleetAccumulator::new();
                for r in chunk {
                    shard.fold_report(r);
                }
                merged.merge(&shard);
            }
            let merged = merged.finish();
            assert_eq!(merged, sequential, "shard size {group} diverged");
            assert_eq!(
                merged.total_cost.to_bits(),
                sequential.total_cost.to_bits(),
                "cost bits diverged at shard size {group}"
            );
            assert_eq!(
                merged.latency.sum().to_bits(),
                sequential.latency.sum().to_bits(),
                "latency sum bits diverged at shard size {group}"
            );
        }
    }

    #[test]
    fn latency_bucketing_matches_fixed_histogram_observe() {
        let mut reference = FixedHistogram::new(REQUEST_LATENCY_BOUNDS);
        let mut acc = FleetAccumulator::new();
        let r = report(3);
        for &ms in &r.all_latencies_ms {
            reference.observe(ms);
        }
        acc.fold_report(&r);
        assert_eq!(acc.finish().latency.counts(), reference.counts());
    }
}
