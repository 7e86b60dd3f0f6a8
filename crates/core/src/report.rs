//! Run reports: per-interval timelines and whole-run summaries.

use crate::obs::RunObservability;
use crate::rules::RuleHistogram;
use crate::trace::DecisionTrace;
use dasr_containers::{ContainerId, ResourceVector};
use dasr_engine::waits::WAIT_CLASSES;
use dasr_stats::percentile;

/// One billing interval's record.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalRecord {
    /// Billing interval index (minute).
    pub minute: u64,
    /// Container in effect *during* the interval.
    pub container: ContainerId,
    /// That container's rung (0 = smallest).
    pub rung: u8,
    /// Cost charged for the interval.
    pub cost: f64,
    /// The container's resources.
    pub allocated: ResourceVector,
    /// Absolute resource usage during the interval (utilization × allocation).
    pub used: ResourceVector,
    /// Aggregated latency per the tenant's goal statistic, ms.
    pub latency_ms: Option<f64>,
    /// Requests completed.
    pub completed: u64,
    /// Requests rejected.
    pub rejected: u64,
    /// Wait share per class, % (order of `WAIT_CLASSES`).
    pub wait_pct: [f64; WAIT_CLASSES.len()],
    /// Buffer-pool usage, MB.
    pub mem_used_mb: f64,
    /// Whether a resize was issued at the end of this interval.
    pub resized: bool,
    /// The decision's full structured trace (explanations are rendered
    /// from it on demand).
    pub trace: DecisionTrace,
}

impl IntervalRecord {
    /// The decision's explanations, rendered from the structured trace.
    pub fn explanations(&self) -> Vec<String> {
        self.trace.render_explanations()
    }

    /// Performance factor (Figure 13): how far inside the goal the
    /// interval's latency is, as a percentage. Positive = inside the goal,
    /// negative = goal missed. `None` without a goal or traffic.
    pub fn performance_factor(&self, goal_ms: f64) -> Option<f64> {
        self.latency_ms.map(|obs| (goal_ms - obs) / goal_ms * 100.0)
    }
}

/// A full closed-loop run.
///
/// Equality is bit-exact over the deterministic run state — intervals,
/// latencies, counters and the [`RunObservability`]'s deterministic
/// sections — which is what the fleet thread-count-invariance property
/// test compares (wall-clock timers are excluded; see
/// [`crate::obs::MetricRegistry`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Policy name.
    pub policy: String,
    /// Workload name.
    pub workload: String,
    /// Trace name.
    pub trace: String,
    /// Per-interval records.
    pub intervals: Vec<IntervalRecord>,
    /// Every completed request's latency, ms (whole run).
    pub all_latencies_ms: Vec<f64>,
    /// Resize operations issued.
    pub resizes: u64,
    /// Requests rejected across the run.
    pub rejected_total: u64,
    /// The run's observability: metrics registry + event stream
    /// (see [`crate::obs`]).
    pub obs: RunObservability,
}

impl RunReport {
    /// Total cost over the run.
    pub fn total_cost(&self) -> f64 {
        self.intervals.iter().map(|i| i.cost).sum()
    }

    /// Average cost per billing interval (the paper's cost metric).
    pub fn avg_cost_per_interval(&self) -> f64 {
        if self.intervals.is_empty() {
            0.0
        } else {
            self.total_cost() / self.intervals.len() as f64
        }
    }

    /// Whole-run 95th-percentile latency, ms (the paper's latency metric).
    pub fn p95_ms(&self) -> Option<f64> {
        percentile(&self.all_latencies_ms, 95.0)
    }

    /// Fraction of billing intervals that ended with a resize (§7.3 reports
    /// ~11% for Auto/Util and ~15% for Trace).
    pub fn resize_fraction(&self) -> f64 {
        if self.intervals.is_empty() {
            0.0
        } else {
            self.resizes as f64 / self.intervals.len() as f64
        }
    }

    /// Completed requests across the run.
    pub fn completed_total(&self) -> u64 {
        self.intervals.iter().map(|i| i.completed).sum()
    }

    /// Aggregated rule-fire counts across every interval's decision trace
    /// — which rules drove this run's scaling.
    pub fn rule_histogram(&self) -> RuleHistogram {
        let mut hist = RuleHistogram::new();
        for rec in &self.intervals {
            rec.trace.record_fires(&mut hist);
        }
        hist
    }

    /// Every interval's decision trace as JSON lines (one per interval).
    pub fn traces_jsonl(&self) -> String {
        let mut out = String::new();
        for rec in &self.intervals {
            out.push_str(&rec.trace.to_json_line());
            out.push('\n');
        }
        out
    }

    /// One-line summary for experiment tables.
    pub fn summary(&self) -> String {
        format!(
            "{:>6}: p95 {:>8.1} ms | avg cost/interval {:>7.2} | resizes {:>4} ({:>4.1}%) | rejected {}",
            self.policy,
            self.p95_ms().unwrap_or(f64::NAN),
            self.avg_cost_per_interval(),
            self.resizes,
            self.resize_fraction() * 100.0,
            self.rejected_total,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(minute: u64, cost: f64, latency: Option<f64>, resized: bool) -> IntervalRecord {
        IntervalRecord {
            minute,
            container: ContainerId(0),
            rung: 0,
            cost,
            allocated: ResourceVector::new(1.0, 1024.0, 100.0, 5.0),
            used: ResourceVector::ZERO,
            latency_ms: latency,
            completed: 10,
            rejected: 0,
            wait_pct: [0.0; 7],
            mem_used_mb: 0.0,
            resized,
            trace: DecisionTrace::empty(minute, ContainerId(0)),
        }
    }

    fn report() -> RunReport {
        RunReport {
            policy: "auto".into(),
            workload: "cpuio".into(),
            trace: "trace1".into(),
            intervals: vec![
                record(0, 7.0, Some(10.0), false),
                record(1, 30.0, Some(20.0), true),
                record(2, 30.0, Some(30.0), false),
                record(3, 7.0, None, true),
            ],
            all_latencies_ms: (1..=100).map(f64::from).collect(),
            resizes: 2,
            rejected_total: 1,
            obs: RunObservability::default(),
        }
    }

    #[test]
    fn cost_metrics() {
        let r = report();
        assert_eq!(r.total_cost(), 74.0);
        assert_eq!(r.avg_cost_per_interval(), 18.5);
    }

    #[test]
    fn latency_metrics() {
        let r = report();
        assert_eq!(r.p95_ms(), Some(95.0));
    }

    #[test]
    fn resize_fraction() {
        let r = report();
        assert_eq!(r.resize_fraction(), 0.5);
    }

    #[test]
    fn performance_factor_signs() {
        let inside = record(0, 7.0, Some(50.0), false);
        assert_eq!(inside.performance_factor(100.0), Some(50.0));
        let outside = record(0, 7.0, Some(150.0), false);
        assert_eq!(outside.performance_factor(100.0), Some(-50.0));
        let idle = record(0, 7.0, None, false);
        assert_eq!(idle.performance_factor(100.0), None);
    }

    #[test]
    fn summary_contains_key_numbers() {
        let s = report().summary();
        assert!(s.contains("auto"));
        assert!(s.contains("95.0"));
        assert!(s.contains("18.50"));
    }

    #[test]
    fn empty_report_is_safe() {
        let r = RunReport {
            policy: "x".into(),
            workload: "w".into(),
            trace: "t".into(),
            intervals: vec![],
            all_latencies_ms: vec![],
            resizes: 0,
            rejected_total: 0,
            obs: RunObservability::default(),
        };
        assert_eq!(r.avg_cost_per_interval(), 0.0);
        assert_eq!(r.p95_ms(), None);
        assert_eq!(r.resize_fraction(), 0.0);
    }
}
