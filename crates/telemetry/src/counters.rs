//! Raw per-interval telemetry rows and latency goals.

use dasr_containers::{ResourceKind, RESOURCE_KINDS};
use dasr_engine::engine::IntervalStats;
use dasr_engine::waits::WAIT_CLASSES;
use dasr_engine::WaitClass;
use dasr_stats::{percentile, percentile_interpolated};

/// The tenant's latency goal (§2.3): a target on the average or on the 95th
/// percentile latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyGoal {
    /// Goal on the mean latency, in milliseconds.
    Average(f64),
    /// Goal on the 95th-percentile latency, in milliseconds.
    P95(f64),
}

impl LatencyGoal {
    /// The goal value in milliseconds.
    pub fn target_ms(&self) -> f64 {
        match self {
            LatencyGoal::Average(ms) | LatencyGoal::P95(ms) => *ms,
        }
    }

    /// Aggregates a latency sample according to the goal's statistic.
    /// Returns `None` for an empty sample.
    pub fn aggregate(&self, latencies_ms: &[f64]) -> Option<f64> {
        match self {
            LatencyGoal::Average(_) => {
                if latencies_ms.is_empty() {
                    None
                } else {
                    Some(latencies_ms.iter().sum::<f64>() / latencies_ms.len() as f64)
                }
            }
            LatencyGoal::P95(_) => percentile(latencies_ms, 95.0),
        }
    }
}

/// One interval's raw telemetry, engine-agnostic: the telemetry manager and
/// the fleet analyses both consume this shape. It is also the unit a
/// [`TelemetrySource`](crate::TelemetrySource) yields per interval — and
/// therefore the unit run recordings capture and replay — so its fields
/// must stay a *complete* description of what the decision loop reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetrySample {
    /// Interval index (billing interval number).
    pub interval: u64,
    /// Utilization % per resource dimension (order of `RESOURCE_KINDS`).
    pub util_pct: [f64; RESOURCE_KINDS.len()],
    /// Wait milliseconds per wait class accumulated this interval (order of
    /// `WAIT_CLASSES`).
    pub wait_ms: [f64; WAIT_CLASSES.len()],
    /// Aggregated latency (per the tenant's goal statistic), ms; `None`
    /// when nothing completed.
    pub latency_ms: Option<f64>,
    /// Average latency, ms (kept alongside for diagnostics).
    pub avg_latency_ms: Option<f64>,
    /// Requests completed.
    pub completed: u64,
    /// Requests that arrived.
    pub arrivals: u64,
    /// Requests rejected by admission control.
    pub rejected: u64,
    /// Buffer-pool usage in MB.
    pub mem_used_mb: f64,
    /// Buffer-pool capacity in MB.
    pub mem_capacity_mb: f64,
    /// Disk reads per second (ballooning feedback, §4.3).
    pub disk_reads_per_sec: f64,
}

impl TelemetrySample {
    /// Builds a sample from the engine's interval stats, aggregating
    /// latencies with the statistic of `goal`.
    pub fn from_interval(interval: u64, stats: &IntervalStats, goal: LatencyGoal) -> Self {
        let mut util_pct = [0.0; RESOURCE_KINDS.len()];
        util_pct[ResourceKind::Cpu.index()] = stats.cpu_util_pct;
        util_pct[ResourceKind::Memory.index()] = stats.mem_util_pct;
        util_pct[ResourceKind::DiskIo.index()] = stats.disk_util_pct;
        util_pct[ResourceKind::LogIo.index()] = stats.log_util_pct;

        let mut wait_ms = [0.0; WAIT_CLASSES.len()];
        for class in WAIT_CLASSES {
            wait_ms[class.index()] = stats.waits[class] as f64 / 1_000.0;
        }

        let avg_latency_ms = if stats.latencies_ms.is_empty() {
            None
        } else {
            Some(stats.latencies_ms.iter().sum::<f64>() / stats.latencies_ms.len() as f64)
        };

        Self {
            interval,
            util_pct,
            wait_ms,
            latency_ms: goal.aggregate(&stats.latencies_ms),
            avg_latency_ms,
            completed: stats.completed,
            arrivals: stats.arrivals,
            rejected: stats.rejected,
            mem_used_mb: stats.mem_used_mb,
            mem_capacity_mb: stats.mem_capacity_mb,
            disk_reads_per_sec: stats.disk_reads_per_sec(),
        }
    }

    /// Utilization of one resource.
    pub fn util(&self, kind: ResourceKind) -> f64 {
        self.util_pct[kind.index()]
    }

    /// Wait ms of one class.
    pub fn wait(&self, class: WaitClass) -> f64 {
        self.wait_ms[class.index()]
    }

    /// Wait ms of one class per completed request: the throughput-invariant
    /// magnitude the wait signals categorize (see `ThresholdConfig::default`).
    /// An idle interval divides by one.
    pub fn wait_per_request(&self, class: WaitClass) -> f64 {
        self.wait(class) / self.completed.max(1) as f64
    }

    /// Total wait ms across classes, including `Other`.
    pub fn total_wait_ms(&self) -> f64 {
        self.wait_ms.iter().sum()
    }

    /// Total *resource* wait ms: everything except `Other`, which holds
    /// client think time / coordination stalls the engine is not waiting on
    /// (a mid-transaction client round trip leaves the session idle, not
    /// waiting — it never appears in `sys.dm_os_wait_stats`).
    pub fn resource_wait_ms(&self) -> f64 {
        self.total_wait_ms() - self.wait(WaitClass::Other)
    }

    /// Wait of `class` as a percentage of the *resource* waits (0 when no
    /// waits). The paper's percentage-wait signal (§3.1) and Figure 13(c)
    /// both range over resource wait categories.
    pub fn wait_pct(&self, class: WaitClass) -> f64 {
        if class == WaitClass::Other {
            return 0.0;
        }
        let total = self.resource_wait_ms();
        if total <= 0.0 {
            0.0
        } else {
            self.wait(class) / total * 100.0
        }
    }
}

/// Interpolated p95 helper used by reports.
pub fn p95(latencies_ms: &[f64]) -> Option<f64> {
    percentile_interpolated(latencies_ms, 95.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dasr_engine::{SimTime, WaitStats};

    fn stats_with(latencies: Vec<f64>) -> IntervalStats {
        let mut waits = WaitStats::new();
        waits.add(WaitClass::Cpu, 2_000_000); // 2000 ms
        waits.add(WaitClass::Lock, 6_000_000); // 6000 ms
        IntervalStats {
            start: SimTime::ZERO,
            end: SimTime::from_mins(1),
            cpu_util_pct: 55.0,
            mem_util_pct: 90.0,
            disk_util_pct: 10.0,
            log_util_pct: 5.0,
            mem_used_mb: 800.0,
            mem_capacity_mb: 1_000.0,
            waits,
            completed: latencies.len() as u64,
            latencies_ms: latencies,
            arrivals: 10,
            rejected: 1,
            disk_reads: 120,
            disk_writes: 3,
            outstanding: 2,
        }
    }

    #[test]
    fn sample_from_interval() {
        let s = TelemetrySample::from_interval(
            7,
            &stats_with(vec![10.0, 20.0, 30.0]),
            LatencyGoal::Average(100.0),
        );
        assert_eq!(s.interval, 7);
        assert_eq!(s.util(ResourceKind::Cpu), 55.0);
        assert_eq!(s.wait(WaitClass::Cpu), 2_000.0);
        assert_eq!(s.latency_ms, Some(20.0));
        assert_eq!(s.avg_latency_ms, Some(20.0));
        assert_eq!(s.disk_reads_per_sec, 2.0);
    }

    #[test]
    fn p95_goal_aggregates_percentile() {
        let latencies: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = TelemetrySample::from_interval(0, &stats_with(latencies), LatencyGoal::P95(50.0));
        assert_eq!(s.latency_ms, Some(95.0));
    }

    #[test]
    fn empty_latencies_are_none() {
        let s = TelemetrySample::from_interval(0, &stats_with(vec![]), LatencyGoal::P95(50.0));
        assert_eq!(s.latency_ms, None);
        assert_eq!(s.avg_latency_ms, None);
    }

    #[test]
    fn wait_percentages() {
        let s =
            TelemetrySample::from_interval(0, &stats_with(vec![1.0]), LatencyGoal::Average(1.0));
        assert_eq!(s.total_wait_ms(), 8_000.0);
        assert_eq!(s.wait_pct(WaitClass::Cpu), 25.0);
        assert_eq!(s.wait_pct(WaitClass::Lock), 75.0);
        assert_eq!(s.wait_pct(WaitClass::DiskIo), 0.0);
    }

    #[test]
    fn wait_per_request_uses_completed_floor() {
        let mut s =
            TelemetrySample::from_interval(0, &stats_with(vec![1.0; 4]), LatencyGoal::Average(1.0));
        assert_eq!(s.wait_per_request(WaitClass::Cpu), 500.0);
        s.completed = 0; // idle interval: divide by max(1)
        assert_eq!(s.wait_per_request(WaitClass::Cpu), 2_000.0);
    }

    #[test]
    fn goal_accessors() {
        assert_eq!(LatencyGoal::Average(120.0).target_ms(), 120.0);
        assert_eq!(LatencyGoal::P95(485.0).target_ms(), 485.0);
        assert_eq!(LatencyGoal::Average(1.0).aggregate(&[]), None);
        assert_eq!(LatencyGoal::Average(1.0).aggregate(&[2.0, 4.0]), Some(3.0));
    }
}
