//! The source/actuator seam: where per-interval telemetry comes *from* and
//! where resize commands *go*.
//!
//! The paper's autoscaler (§4–§6) is defined entirely over telemetry
//! signals — it never mentions a simulator. This module makes that
//! boundary explicit as two small traits so the closed loop in `dasr-core`
//! can be driven by anything that produces [`TelemetrySample`]s:
//!
//! - [`TelemetrySource`] — yields one sample per billing interval plus the
//!   balloon-probe state ([`ProbeStatus`]) the §4.3 controller needs;
//! - [`ResizeActuator`] — receives the loop's outputs: container resizes
//!   and balloon start/abort/commit commands.
//!
//! The discrete-event simulator is just one backend (`SimulatorSource` in
//! `dasr-core`, which implements both traits over `dasr_engine::Engine`).
//! A recorded run (`ReplaySource`, over a recording held in memory or
//! loaded from the run store) is another, paired with the [`NullActuator`]:
//! the recorded telemetry cannot respond to commands. [`SourcePair`] glues
//! any source to any actuator so the two halves stay independently
//! pluggable while the loop takes a single backend value.
//!
//! # Determinism
//!
//! A source must be a pure function of its construction inputs: calling
//! [`TelemetrySource::observe_interval`] for intervals `0..intervals()` in
//! order, interleaved with any actuator calls, must always produce the
//! same sample sequence. That is what lets the closed loop promise
//! bit-identical reports for a given `(source, policy)` pair, and what
//! makes record→replay exact.

use crate::counters::{LatencyGoal, TelemetrySample};
use dasr_containers::ResourceVector;

/// Balloon-probe state on the telemetry side of the seam (§4.3).
///
/// Reported by a [`TelemetrySource`] after each interval; consumed by the
/// ballooning controller in `dasr-core` (which re-exports this type as
/// `BalloonProbe`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProbeStatus {
    /// No balloon in progress.
    #[default]
    Inactive,
    /// Deflating; `reached_target` once capacity hit the target.
    Active {
        /// Whether the target capacity has been reached.
        reached_target: bool,
    },
}

/// A producer of per-interval telemetry: the input half of the closed
/// loop's seam.
///
/// Implementations advance whatever they wrap — a discrete-event
/// simulator, a recorded run, eventually a live database's stats — by one
/// billing interval at a time and surface the interval's
/// [`TelemetrySample`].
pub trait TelemetrySource {
    /// Number of billing intervals this source will produce.
    fn intervals(&self) -> usize;

    /// The workload's name, for reports.
    fn workload_name(&self) -> &str;

    /// The demand trace's name, for reports.
    fn trace_name(&self) -> &str;

    /// Advances through billing interval `interval` (0-based, called in
    /// order) and returns its telemetry sample. `goal` selects the latency
    /// aggregation statistic (§2.3); sources replaying pre-aggregated
    /// samples may ignore it.
    fn observe_interval(&mut self, interval: u64, goal: LatencyGoal) -> TelemetrySample;

    /// Per-request latencies of the interval just observed, for whole-run
    /// percentile pooling. Sources that do not retain raw latencies (e.g.
    /// replay from recorded aggregates) return an empty slice.
    fn interval_latencies_ms(&self) -> &[f64];

    /// Balloon-probe state after the interval just observed (§4.3),
    /// *before* any actuator command for this interval is applied.
    fn probe(&self) -> ProbeStatus;
}

/// A consumer of scaling decisions: the output half of the seam.
///
/// The closed loop calls these at most once per interval, after the policy
/// decided; a simulator applies them to its engine, a replay backend
/// ignores them.
pub trait ResizeActuator {
    /// Applies a new container's resource allocation.
    fn apply_resources(&mut self, resources: ResourceVector);

    /// Starts deflating the buffer pool toward `target_mb` (§4.3).
    fn start_balloon(&mut self, target_mb: f64);

    /// Aborts the active balloon probe and restores the pool.
    fn abort_balloon(&mut self);

    /// Commits the active balloon probe (memory demand confirmed low).
    fn commit_balloon(&mut self);
}

/// An actuator that discards every command — pure replay: the recorded
/// telemetry already reflects what the *original* policy did, so a
/// replayed policy's commands must not (and cannot) feed back.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullActuator;

impl ResizeActuator for NullActuator {
    // dasr-lint: no-alloc
    fn apply_resources(&mut self, _resources: ResourceVector) {}
    // dasr-lint: no-alloc
    fn start_balloon(&mut self, _target_mb: f64) {}
    // dasr-lint: no-alloc
    fn abort_balloon(&mut self) {}
    // dasr-lint: no-alloc
    fn commit_balloon(&mut self) {}
}

/// Glues an independent source and actuator into one loop backend.
///
/// The closed loop is generic over a single value implementing both
/// traits. A simulator implements both on one struct (the engine is
/// simultaneously where telemetry comes from and where resizes go); a
/// replay pairs a [`TelemetrySource`] with whatever [`ResizeActuator`]
/// fits the experiment — that pairing is this struct.
#[derive(Debug, Clone, Default)]
pub struct SourcePair<S, A> {
    /// The telemetry-producing half.
    pub source: S,
    /// The command-consuming half.
    pub actuator: A,
}

impl<S, A> SourcePair<S, A> {
    /// Pairs `source` with `actuator`.
    pub fn new(source: S, actuator: A) -> Self {
        Self { source, actuator }
    }
}

impl<S: TelemetrySource, A> TelemetrySource for SourcePair<S, A> {
    fn intervals(&self) -> usize {
        self.source.intervals()
    }

    fn workload_name(&self) -> &str {
        self.source.workload_name()
    }

    fn trace_name(&self) -> &str {
        self.source.trace_name()
    }

    fn observe_interval(&mut self, interval: u64, goal: LatencyGoal) -> TelemetrySample {
        self.source.observe_interval(interval, goal)
    }

    // dasr-lint: no-alloc
    fn interval_latencies_ms(&self) -> &[f64] {
        self.source.interval_latencies_ms()
    }

    // dasr-lint: no-alloc
    fn probe(&self) -> ProbeStatus {
        self.source.probe()
    }
}

impl<S, A: ResizeActuator> ResizeActuator for SourcePair<S, A> {
    // dasr-lint: no-alloc
    fn apply_resources(&mut self, resources: ResourceVector) {
        self.actuator.apply_resources(resources);
    }

    // dasr-lint: no-alloc
    fn start_balloon(&mut self, target_mb: f64) {
        self.actuator.start_balloon(target_mb);
    }

    // dasr-lint: no-alloc
    fn abort_balloon(&mut self) {
        self.actuator.abort_balloon();
    }

    // dasr-lint: no-alloc
    fn commit_balloon(&mut self) {
        self.actuator.commit_balloon();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dasr_containers::RESOURCE_KINDS;
    use dasr_engine::waits::WAIT_CLASSES;

    fn sample(interval: u64) -> TelemetrySample {
        TelemetrySample {
            interval,
            util_pct: [10.0; RESOURCE_KINDS.len()],
            wait_ms: [0.0; WAIT_CLASSES.len()],
            latency_ms: Some(5.0),
            avg_latency_ms: Some(5.0),
            completed: 100,
            arrivals: 100,
            rejected: 0,
            mem_used_mb: 100.0,
            mem_capacity_mb: 200.0,
            disk_reads_per_sec: 1.0,
        }
    }

    /// A scripted source for trait plumbing tests.
    struct Scripted {
        n: usize,
        latencies: Vec<f64>,
    }

    impl TelemetrySource for Scripted {
        fn intervals(&self) -> usize {
            self.n
        }
        fn workload_name(&self) -> &str {
            "scripted"
        }
        fn trace_name(&self) -> &str {
            "flat"
        }
        fn observe_interval(&mut self, interval: u64, _goal: LatencyGoal) -> TelemetrySample {
            sample(interval)
        }
        fn interval_latencies_ms(&self) -> &[f64] {
            &self.latencies
        }
        fn probe(&self) -> ProbeStatus {
            ProbeStatus::Inactive
        }
    }

    #[test]
    fn null_actuator_ignores_everything() {
        let mut a = NullActuator;
        a.apply_resources(ResourceVector::new(1.0, 2.0, 3.0, 4.0));
        a.start_balloon(100.0);
        a.abort_balloon();
        a.commit_balloon();
        assert_eq!(a, NullActuator);
    }

    #[test]
    fn source_pair_delegates_both_halves() {
        let mut pair = SourcePair::new(
            Scripted {
                n: 3,
                latencies: vec![1.0, 2.0],
            },
            NullActuator,
        );
        assert_eq!(pair.intervals(), 3);
        assert_eq!(pair.workload_name(), "scripted");
        assert_eq!(pair.trace_name(), "flat");
        let s = pair.observe_interval(1, LatencyGoal::P95(f64::INFINITY));
        assert_eq!(s.interval, 1);
        assert_eq!(pair.interval_latencies_ms(), &[1.0, 2.0]);
        assert_eq!(pair.probe(), ProbeStatus::Inactive);
        pair.apply_resources(ResourceVector::ZERO);
        pair.start_balloon(10.0);
        assert_eq!(pair.actuator, NullActuator);
    }

    #[test]
    fn probe_status_default_is_inactive() {
        assert_eq!(ProbeStatus::default(), ProbeStatus::Inactive);
        assert_ne!(
            ProbeStatus::Active {
                reached_target: false
            },
            ProbeStatus::Active {
                reached_target: true
            }
        );
    }
}
