//! Record and replay closed-loop runs: policy A/B over recorded telemetry.
//!
//! [`record_run`] drives the loop's [`Controller`] over the simulator and
//! keeps the exact per-interval [`TelemetrySample`]s and probe states it
//! stepped on; [`replay`] steps a fresh controller over that capture
//! through *any* policy — the same one (an exactness check, see below) or
//! a different one (offline policy A/B over recorded fleets, the
//! RobustScaler-style offline evaluation named in the roadmap).
//! [`ReplaySource`] presents a capture as a [`TelemetrySource`] for the
//! drivers that take a backend, such as `ClosedLoop::run_source` and the
//! fleet runner.
//!
//! A [`RunRecording`] is an in-memory value. Its one serialized form is
//! the run store: `dasr_store::Store::append_recording` archives it and
//! `load_recording` reads it back with every float bit-exact.
//!
//! # Replay fidelity
//!
//! The closed loop is deterministic given its sample sequence: the
//! telemetry manager, budget manager and policies are pure functions of
//! what they observe. Replaying a recording through the **same** policy
//! under the same `RunConfig` therefore reproduces the original decision
//! sequence exactly — identical
//! [`DecisionTrace`](crate::trace::DecisionTrace)s, rule-fire histogram
//! and interval records (`replay_roundtrip` tests pin this). Only the
//! pooled raw-latency population is absent: recordings carry per-interval
//! aggregates, not every request's latency, so
//! `RunReport::all_latencies_ms` is empty after replay.
//!
//! # The counterfactual caveat
//!
//! Replaying through a **different** policy is an open-loop what-if: the
//! recorded samples reflect the containers the *original* policy chose,
//! and a diverging decision cannot bend that history — [`replay`]
//! discards every command. What the policy would have done is in its
//! report: `RunReport::resizes` and the `Balloon*` counters of its
//! registry. The comparison is "what would policy B have decided given
//! the signals A's run produced", which is exactly the offline-evaluation
//! question, not a re-simulation; use the simulator for closed-loop
//! counterfactuals.

use crate::policy::ScalingPolicy;
use crate::report::RunReport;
use crate::runner::source::SimulatorSource;
use crate::runner::{ClosedLoop, Controller, RunConfig};
use dasr_telemetry::{LatencyGoal, ProbeStatus, TelemetrySample, TelemetrySource};
use dasr_workloads::{Trace, Workload};

/// One recorded interval: the sample the loop observed plus the probe
/// state it read — everything interval-shaped that crosses the seam.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleRecord {
    /// Tenant index within a recorded fleet, if stamped.
    pub tenant: Option<u64>,
    /// The interval's telemetry sample, verbatim.
    pub sample: TelemetrySample,
    /// Balloon-probe state after the interval (read before actuation).
    pub probe: ProbeStatus,
}

/// Run-level metadata at the head of a recording.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordingHeader {
    /// Policy that produced the recording.
    pub policy: String,
    /// Workload name.
    pub workload: String,
    /// Demand-trace name.
    pub trace: String,
    /// Workload seed of the recorded run.
    pub seed: u64,
}

/// A recorded run: header plus one [`SampleRecord`] per interval.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecording {
    /// Run-level metadata.
    pub header: RecordingHeader,
    /// Per-interval records, in interval order.
    pub records: Vec<SampleRecord>,
}

impl RunRecording {
    /// Stamps every record with a fleet tenant index.
    pub fn stamp_tenant(&mut self, tenant: u64) {
        for rec in &mut self.records {
            rec.tenant = Some(tenant);
        }
    }
}

/// Feeds a [`RunRecording`] back through the closed loop as its
/// [`TelemetrySource`]. Pair it with an actuator through
/// [`SourcePair`](dasr_telemetry::SourcePair), usually the discarding
/// [`NullActuator`](dasr_telemetry::NullActuator).
pub struct ReplaySource {
    header: RecordingHeader,
    records: Vec<SampleRecord>,
    cursor: usize,
}

impl ReplaySource {
    /// Builds a replay source over `recording`.
    pub fn new(recording: RunRecording) -> Self {
        Self {
            header: recording.header,
            records: recording.records,
            cursor: 0,
        }
    }
}

impl TelemetrySource for ReplaySource {
    // dasr-lint: no-alloc
    fn intervals(&self) -> usize {
        self.records.len()
    }

    // dasr-lint: no-alloc
    fn workload_name(&self) -> &str {
        &self.header.workload
    }

    // dasr-lint: no-alloc
    fn trace_name(&self) -> &str {
        &self.header.trace
    }

    fn observe_interval(&mut self, interval: u64, _goal: LatencyGoal) -> TelemetrySample {
        self.cursor = interval as usize;
        self.records[self.cursor].sample
    }

    // dasr-lint: no-alloc
    fn interval_latencies_ms(&self) -> &[f64] {
        // Recordings carry per-interval aggregates, not raw latencies.
        &[]
    }

    // dasr-lint: no-alloc
    fn probe(&self) -> ProbeStatus {
        self.records[self.cursor].probe
    }
}

/// Runs `policy` on the simulator exactly like `ClosedLoop::run` while
/// keeping every sample and probe state the controller steps on as a
/// [`RunRecording`]. The report is bit-identical to an unrecorded run.
pub fn record_run<W: Workload>(
    cfg: &RunConfig,
    trace: &Trace,
    workload: W,
    policy: &mut dyn ScalingPolicy,
) -> (RunReport, RunRecording) {
    let mut backend = SimulatorSource::new(cfg, trace, workload);
    let mut records = Vec::with_capacity(backend.intervals());
    let report = ClosedLoop::drive(cfg, &mut backend, policy, |sample, probe| {
        records.push(SampleRecord {
            tenant: None,
            sample,
            probe,
        })
    });
    let recording = RunRecording {
        header: RecordingHeader {
            policy: report.policy.clone(),
            workload: report.workload.clone(),
            trace: report.trace.clone(),
            seed: cfg.seed,
        },
        records,
    };
    (report, recording)
}

/// Replays `recording` through `policy` with its commands discarded — the
/// pure offline evaluation. `cfg` supplies the catalog, knobs and
/// telemetry configuration, which must match the recorded run's for exact
/// same-policy fidelity (see module docs).
pub fn replay(
    cfg: &RunConfig,
    recording: RunRecording,
    policy: &mut dyn ScalingPolicy,
) -> RunReport {
    let mut controller = Controller::new(cfg, recording.records.len());
    for rec in &recording.records {
        controller.step(policy, rec.sample, rec.probe);
    }
    let header = &recording.header;
    controller.finish(policy, &header.workload, &header.trace, Vec::new())
}

/// A decision-level comparison of two runs over the same interval count —
/// the replay A/B summary (`examples/replay.rs` prints one per tenant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplayDiff {
    /// Intervals compared.
    pub intervals: usize,
    /// Intervals whose chosen target container differs.
    pub divergent_targets: usize,
    /// First interval where the targets differ, if any.
    pub first_divergence: Option<u64>,
    /// Resize count of run A.
    pub resizes_a: u64,
    /// Resize count of run B.
    pub resizes_b: u64,
}

impl ReplayDiff {
    /// Compares two reports decision by decision (their interval counts
    /// must match — both runs covered the same recording).
    pub fn between(a: &RunReport, b: &RunReport) -> Self {
        debug_assert_eq!(a.intervals.len(), b.intervals.len());
        let mut diff = Self {
            intervals: a.intervals.len(),
            resizes_a: a.resizes,
            resizes_b: b.resizes,
            ..Self::default()
        };
        for (ra, rb) in a.intervals.iter().zip(b.intervals.iter()) {
            if ra.trace.target != rb.trace.target {
                diff.divergent_targets += 1;
                if diff.first_divergence.is_none() {
                    diff.first_divergence = Some(ra.minute);
                }
            }
        }
        diff
    }

    /// True when every decision chose the same target.
    pub fn identical(&self) -> bool {
        self.divergent_targets == 0
    }
}

impl std::fmt::Display for ReplayDiff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.first_divergence {
            None => write!(
                f,
                "{} intervals, decisions identical ({} vs {} resizes)",
                self.intervals, self.resizes_a, self.resizes_b
            ),
            Some(first) => write!(
                f,
                "{} intervals, {} divergent targets (first at minute {first}), {} vs {} resizes",
                self.intervals, self.divergent_targets, self.resizes_a, self.resizes_b
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::StaticPolicy;
    use dasr_workloads::{CpuIoConfig, CpuIoWorkload};

    fn recording() -> (RunReport, RunRecording) {
        let cfg = RunConfig::default();
        let trace = Trace::new("flat", vec![10.0; 4]);
        let mut policy = StaticPolicy::max(&cfg.catalog);
        record_run(
            &cfg,
            &trace,
            CpuIoWorkload::new(CpuIoConfig::small()),
            &mut policy,
        )
    }

    #[test]
    fn recording_does_not_perturb_the_run() {
        let cfg = RunConfig::default();
        let trace = Trace::new("flat", vec![10.0; 4]);
        let mut policy = StaticPolicy::max(&cfg.catalog);
        let plain = crate::runner::ClosedLoop::run(
            &cfg,
            &trace,
            CpuIoWorkload::new(CpuIoConfig::small()),
            &mut policy,
        );
        let (recorded, recording) = recording();
        assert_eq!(recorded, plain);
        assert_eq!(recording.records.len(), 4);
        assert_eq!(recording.header.trace, "flat");
    }

    #[test]
    fn replay_reproduces_interval_records() {
        let cfg = RunConfig::default();
        let (original, recording) = recording();
        let mut policy = StaticPolicy::max(&cfg.catalog);
        let replayed = replay(&cfg, recording, &mut policy);
        assert_eq!(replayed.intervals, original.intervals);
        assert_eq!(replayed.resizes, original.resizes);
        assert!(
            replayed.all_latencies_ms.is_empty(),
            "recordings carry aggregates, not raw latencies"
        );
    }
}
