//! The discrete-event simulator as one pluggable loop backend.
//!
//! [`SimulatorSource`] wraps `dasr_engine::Engine` plus a
//! [`TraceDriver`] behind the telemetry seam: it implements both
//! [`TelemetrySource`] (advance one billing minute, surface the interval's
//! [`TelemetrySample`]) and [`ResizeActuator`] (apply resizes and balloon
//! commands to the engine). [`ClosedLoop::run`](super::ClosedLoop::run) is
//! just "construct a `SimulatorSource`, hand it to the generic loop".

use crate::runner::RunConfig;
use dasr_containers::ResourceVector;
use dasr_engine::{Engine, IntervalStats, SimTime};
use dasr_telemetry::{LatencyGoal, ProbeStatus, ResizeActuator, TelemetrySample, TelemetrySource};
use dasr_workloads::{Trace, TraceDriver, Workload};

/// The engine-backed telemetry source and actuator.
///
/// One instance drives one tenant's run: `observe_interval(m, ..)` submits
/// minute `m`'s arrivals, advances simulated time to the end of the minute,
/// drains the interval stats and returns them as a sample; the actuator
/// half forwards the loop's commands straight to the engine.
pub struct SimulatorSource<W: Workload> {
    engine: Engine,
    driver: TraceDriver<W>,
    // Reused across intervals: `end_interval_into` ping-pongs the
    // latency buffer with the engine, so the per-minute hot loop does
    // not allocate telemetry.
    stats: IntervalStats,
}

impl<W: Workload> SimulatorSource<W> {
    /// Builds the simulator backend exactly as the pre-seam loop did: an
    /// engine sized to `cfg`'s initial container, optionally prewarmed, and
    /// a trace driver seeded from `cfg.seed`.
    pub fn new(cfg: &RunConfig, trace: &Trace, workload: W) -> Self {
        let current = cfg.initial_container();
        let mut engine = Engine::new(cfg.engine, current.resources);
        if cfg.prewarm_pages > 0 {
            engine.prewarm(cfg.prewarm_pages);
        }
        let driver = TraceDriver::new(trace.clone(), workload, cfg.seed);
        Self {
            engine,
            driver,
            stats: IntervalStats::default(),
        }
    }

    /// The wrapped engine (read-only; tests inspect balloon state).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }
}

impl<W: Workload> TelemetrySource for SimulatorSource<W> {
    // dasr-lint: no-alloc
    fn intervals(&self) -> usize {
        self.driver.minutes()
    }

    // dasr-lint: no-alloc
    fn workload_name(&self) -> &str {
        self.driver.workload_name()
    }

    // dasr-lint: no-alloc
    fn trace_name(&self) -> &str {
        &self.driver.trace().name
    }

    fn observe_interval(&mut self, interval: u64, goal: LatencyGoal) -> TelemetrySample {
        self.driver
            .submit_minute(interval as usize, &mut self.engine);
        self.engine.run_until(SimTime::from_mins(interval + 1));
        self.engine.end_interval_into(&mut self.stats);
        TelemetrySample::from_interval(interval, &self.stats, goal)
    }

    // dasr-lint: no-alloc
    fn interval_latencies_ms(&self) -> &[f64] {
        &self.stats.latencies_ms
    }

    // dasr-lint: no-alloc
    fn probe(&self) -> ProbeStatus {
        if self.engine.balloon_active() {
            ProbeStatus::Active {
                reached_target: self.engine.balloon_reached_target(),
            }
        } else {
            ProbeStatus::Inactive
        }
    }
}

impl<W: Workload> ResizeActuator for SimulatorSource<W> {
    // dasr-lint: no-alloc
    fn apply_resources(&mut self, resources: ResourceVector) {
        self.engine.apply_resources(resources);
    }

    // dasr-lint: no-alloc
    fn start_balloon(&mut self, target_mb: f64) {
        self.engine.start_balloon(target_mb);
    }

    // dasr-lint: no-alloc
    fn abort_balloon(&mut self) {
        self.engine.abort_balloon();
    }

    // dasr-lint: no-alloc
    fn commit_balloon(&mut self) {
        self.engine.commit_balloon();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dasr_workloads::{CpuIoConfig, CpuIoWorkload};

    fn source() -> SimulatorSource<CpuIoWorkload> {
        let cfg = RunConfig::default();
        let trace = Trace::new("flat", vec![10.0; 3]);
        SimulatorSource::new(&cfg, &trace, CpuIoWorkload::new(CpuIoConfig::small()))
    }

    #[test]
    fn simulator_source_reports_shape() {
        let s = source();
        assert_eq!(s.intervals(), 3);
        assert_eq!(s.trace_name(), "flat");
        assert_eq!(s.probe(), ProbeStatus::Inactive);
    }

    #[test]
    fn observe_interval_advances_the_engine() {
        let mut s = source();
        let goal = LatencyGoal::P95(f64::INFINITY);
        let first = s.observe_interval(0, goal);
        assert_eq!(first.interval, 0);
        assert!(first.arrivals > 0, "open-loop arrivals were submitted");
        assert!(first.completed > 0, "the engine ran the minute");
        assert_eq!(
            s.interval_latencies_ms().len() as u64,
            first.completed,
            "raw latencies match the sample's completion count"
        );
        let second = s.observe_interval(1, goal);
        assert_eq!(second.interval, 1);
    }

    #[test]
    fn actuator_half_reaches_the_engine() {
        let mut s = source();
        let goal = LatencyGoal::P95(f64::INFINITY);
        s.observe_interval(0, goal);
        let cap = s.observe_interval(1, goal).mem_capacity_mb;
        s.start_balloon(cap / 2.0);
        s.observe_interval(2, goal);
        assert!(
            matches!(s.probe(), ProbeStatus::Active { .. }),
            "balloon command reached the engine"
        );
        s.abort_balloon();
        assert_eq!(s.probe(), ProbeStatus::Inactive);
    }
}
