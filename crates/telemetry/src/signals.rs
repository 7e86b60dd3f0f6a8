//! The signal set: everything the demand estimator consumes.

use crate::categorize::{
    LatencyVerdict, ResourceCategories, UtilLevel, WaitPctLevel, WaitTimeLevel,
};
use dasr_containers::{ResourceKind, RESOURCE_KINDS};
use dasr_engine::WaitClass;
use dasr_stats::Trend;

/// The wait class carrying a resource dimension's waits.
pub fn wait_class_for(kind: ResourceKind) -> WaitClass {
    match kind {
        ResourceKind::Cpu => WaitClass::Cpu,
        ResourceKind::Memory => WaitClass::Memory,
        ResourceKind::DiskIo => WaitClass::DiskIo,
        ResourceKind::LogIo => WaitClass::LogIo,
    }
}

/// Robust signals for one resource dimension (§3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceSignals {
    /// The resource dimension.
    pub kind: ResourceKind,
    /// Median utilization % over the smoothing window.
    pub util_pct: f64,
    /// Utilization category.
    pub util_level: UtilLevel,
    /// Median wait ms per completed request over the smoothing window.
    pub wait_ms: f64,
    /// Wait-magnitude category.
    pub wait_level: WaitTimeLevel,
    /// Median share of total waits, %.
    pub wait_pct: f64,
    /// Wait-percentage category.
    pub wait_pct_level: WaitPctLevel,
    /// Theil–Sen trend of utilization over the trend window.
    pub util_trend: Trend,
    /// Theil–Sen trend of wait ms per completed request over the trend
    /// window.
    pub wait_trend: Trend,
    /// Spearman ρ between latency and this resource's waits (None when not
    /// computable).
    pub corr_latency_wait: Option<f64>,
    /// Spearman ρ between latency and this resource's utilization.
    pub corr_latency_util: Option<f64>,
}

impl ResourceSignals {
    /// The categorical snapshot of this dimension (§4.1) — what the rule
    /// predicates match on.
    pub fn categories(&self) -> ResourceCategories {
        ResourceCategories {
            util: self.util_level,
            wait: self.wait_level,
            wait_pct: self.wait_pct_level,
        }
    }

    /// True when either the utilization or the wait series shows a
    /// significant *increasing* trend (§4.2's "SIGNIFICANT increasing trend
    /// over time in utilization and/or wait").
    pub fn increasing_pressure_trend(&self) -> bool {
        self.util_trend.is_increasing() || self.wait_trend.is_increasing()
    }

    /// True when latency correlates strongly (ρ ≥ `threshold`) with this
    /// resource's waits or utilization.
    pub fn latency_correlated(&self, threshold: f64) -> bool {
        self.corr_latency_wait.is_some_and(|r| r >= threshold)
            || self.corr_latency_util.is_some_and(|r| r >= threshold)
    }
}

/// Latency signals (§3.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySignals {
    /// Latest aggregated latency (per the goal's statistic), ms.
    pub observed_ms: Option<f64>,
    /// The goal, ms (None when the tenant set no goal).
    pub goal_ms: Option<f64>,
    /// GOOD/BAD verdict.
    pub verdict: LatencyVerdict,
    /// Theil–Sen trend of the latency series.
    pub trend: Trend,
}

impl LatencySignals {
    /// True when the goal is violated or latency is degrading significantly
    /// (§6: "if the latency is BAD, or there is a SIGNIFICANT increasing
    /// trend of latency with time").
    pub fn needs_attention(&self) -> bool {
        self.verdict == LatencyVerdict::Bad || self.trend.is_increasing()
    }
}

/// The complete signal set for one decision point.
#[derive(Debug, Clone, PartialEq)]
pub struct SignalSet {
    /// Billing interval the signals describe.
    pub interval: u64,
    /// Per-resource signals (order of `RESOURCE_KINDS`).
    pub resources: [ResourceSignals; RESOURCE_KINDS.len()],
    /// Latency signals.
    pub latency: LatencySignals,
    /// Median share of resource waits attributable to locks, %.
    pub lock_wait_pct: f64,
    /// Buffer-pool usage, MB.
    pub mem_used_mb: f64,
    /// Buffer-pool capacity, MB.
    pub mem_capacity_mb: f64,
    /// Disk reads/s (ballooning feedback).
    pub disk_reads_per_sec: f64,
    /// Requests completed in the interval.
    pub completed: u64,
}

impl SignalSet {
    /// Signals for one resource dimension.
    pub fn resource(&self, kind: ResourceKind) -> &ResourceSignals {
        &self.resources[kind.index()]
    }

    /// True when waits are dominated (≥ `threshold_pct`) by application
    /// locks — the Figure 13 situation where extra resources cannot help.
    pub fn lock_bottleneck(&self, threshold_pct: f64) -> bool {
        self.lock_wait_pct >= threshold_pct
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dasr_stats::TrendDirection;

    fn resource(kind: ResourceKind) -> ResourceSignals {
        ResourceSignals {
            kind,
            util_pct: 50.0,
            util_level: UtilLevel::Medium,
            wait_ms: 10.0,
            wait_level: WaitTimeLevel::Low,
            wait_pct: 10.0,
            wait_pct_level: WaitPctLevel::NotSignificant,
            util_trend: Trend::None,
            wait_trend: Trend::None,
            corr_latency_wait: None,
            corr_latency_util: None,
        }
    }

    #[test]
    fn wait_class_mapping_is_total() {
        for kind in RESOURCE_KINDS {
            let _ = wait_class_for(kind);
        }
        assert_eq!(wait_class_for(ResourceKind::Cpu), WaitClass::Cpu);
        assert_eq!(wait_class_for(ResourceKind::DiskIo), WaitClass::DiskIo);
    }

    #[test]
    fn pressure_trend_detection() {
        let mut r = resource(ResourceKind::Cpu);
        assert!(!r.increasing_pressure_trend());
        r.wait_trend = Trend::Significant {
            direction: TrendDirection::Increasing,
            slope: 1.0,
            agreement: 0.9,
        };
        assert!(r.increasing_pressure_trend());
    }

    #[test]
    fn correlation_check() {
        let mut r = resource(ResourceKind::DiskIo);
        assert!(!r.latency_correlated(0.6));
        r.corr_latency_wait = Some(0.7);
        assert!(r.latency_correlated(0.6));
        r.corr_latency_wait = Some(0.5);
        r.corr_latency_util = Some(0.9);
        assert!(r.latency_correlated(0.6));
    }

    #[test]
    fn latency_needs_attention() {
        let mut l = LatencySignals {
            observed_ms: Some(50.0),
            goal_ms: Some(100.0),
            verdict: LatencyVerdict::Good,
            trend: Trend::None,
        };
        assert!(!l.needs_attention());
        l.verdict = LatencyVerdict::Bad;
        assert!(l.needs_attention());
        l.verdict = LatencyVerdict::Good;
        l.trend = Trend::Significant {
            direction: TrendDirection::Increasing,
            slope: 5.0,
            agreement: 0.8,
        };
        assert!(l.needs_attention());
    }

    #[test]
    fn lock_bottleneck_threshold() {
        let set = SignalSet {
            interval: 0,
            resources: [
                resource(ResourceKind::Cpu),
                resource(ResourceKind::Memory),
                resource(ResourceKind::DiskIo),
                resource(ResourceKind::LogIo),
            ],
            latency: LatencySignals {
                observed_ms: None,
                goal_ms: None,
                verdict: LatencyVerdict::Good,
                trend: Trend::None,
            },
            lock_wait_pct: 92.0,
            mem_used_mb: 100.0,
            mem_capacity_mb: 200.0,
            disk_reads_per_sec: 1.0,
            completed: 10,
        };
        assert!(set.lock_bottleneck(90.0));
        assert!(!set.lock_bottleneck(95.0));
        assert_eq!(
            set.resource(ResourceKind::Memory).kind,
            ResourceKind::Memory
        );
    }
}
