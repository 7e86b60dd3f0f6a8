//! The closed loop (§6, Figure 3): telemetry + policy + billing, one
//! decision per billing interval — generic over where the telemetry comes
//! from and where the resize commands go.
//!
//! One interval of the loop is [`Controller::step`]: the interval's
//! [`TelemetrySample`] and probe state in, the commands for the backend
//! out. The controller owns everything the loop carries from one interval
//! to the next, and is `Clone`, so a clone taken together with the policy
//! is a snapshot that steps on exactly as the original would. Drivers own
//! the iteration:
//!
//! - [`ClosedLoop::run_source`] steps over any backend behind the
//!   [`TelemetrySource`]/[`ResizeActuator`] seam from `dasr_telemetry`;
//!   [`source::SimulatorSource`] plugs the discrete-event engine in (the
//!   classic [`ClosedLoop::run`] entry point), its outputs pinned by hash
//!   in `tests/loop_hash.rs`;
//! - `crate::replay::record_run` steps over the simulator and keeps every
//!   sample and probe it passes in; `crate::replay::replay` steps over
//!   such a recording with the commands discarded.
//!
//! [`fleet`] scales the loop out: N independent tenants across a sharded
//! worker pool with bit-identical results regardless of thread or shard
//! count; [`ordered`] is the one fan-out it (and the store's read path)
//! runs on, and [`shard`] holds the exact-sum monoid the fold rests on.

pub mod fleet;
pub mod ordered;
pub mod shard;
pub mod source;

use crate::budget::{BudgetManager, BudgetStrategy};
use crate::knobs::TenantKnobs;
use crate::obs::{IntervalObservation, RunObservability, TimerId};
use crate::policy::{BalloonCommand, PolicyContext, ScalingPolicy};
use crate::report::{IntervalRecord, RunReport};
use dasr_containers::{Catalog, Container, ContainerId, ResourceKind, ResourceVector};
use dasr_engine::EngineConfig;
use dasr_telemetry::{
    LatencyGoal, ProbeStatus, ResizeActuator, TelemetryConfig, TelemetryManager, TelemetrySample,
    TelemetrySource,
};
use dasr_workloads::{Trace, Workload};

use self::source::SimulatorSource;

/// Configuration for a closed-loop run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The service's container catalog.
    pub catalog: Catalog,
    /// Engine parameters.
    pub engine: EngineConfig,
    /// Telemetry-manager parameters (thresholds, trend α). The latency
    /// goal inside is overwritten from `knobs`.
    pub telemetry: TelemetryConfig,
    /// Tenant knobs (budget, latency goal, sensitivity).
    pub knobs: TenantKnobs,
    /// Budget-manager strategy (only used when a budget is set).
    pub budget_strategy: BudgetStrategy,
    /// Initial container (default: two rungs above the smallest).
    pub initial: Option<ContainerId>,
    /// Buffer-pool pages to prewarm (simulating an already-running, warm
    /// database; see `Engine::prewarm`). Use the workload's hot-set size.
    pub prewarm_pages: u64,
    /// Seed for workload randomness.
    pub seed: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            catalog: Catalog::azure_like(),
            engine: EngineConfig::default(),
            telemetry: TelemetryConfig::default(),
            knobs: TenantKnobs::none(),
            budget_strategy: BudgetStrategy::Aggressive,
            initial: None,
            prewarm_pages: 0,
            seed: 0xDA5A,
        }
    }
}

impl RunConfig {
    /// The container the run starts in: [`RunConfig::initial`] when set,
    /// else rung 2, else the smallest in the catalog.
    pub fn initial_container(&self) -> &Container {
        let initial_id = self.initial.unwrap_or_else(|| {
            self.catalog
                .iter()
                .find(|c| c.rung == 2)
                .unwrap_or_else(|| self.catalog.smallest())
                .id
        });
        self.catalog
            .get(initial_id)
            .expect("initial container must exist")
    }
}

/// The commands one [`Controller::step`] leaves for its driver to apply:
/// the balloon command first, then the resize.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    /// The policy's balloon command (§4.3).
    pub balloon: BalloonCommand,
    /// The new container's allocation, when the decision resized.
    pub resize: Option<ResourceVector>,
}

/// One tenant's closed loop, one interval at a time: the telemetry
/// manager, the budget, the current container, the observability
/// registry and the report rows.
///
/// The policy stays outside, so a clone of the controller taken together
/// with a clone of the policy is a snapshot: stepped over the same
/// samples, it produces what the original would have.
#[derive(Debug, Clone)]
pub struct Controller<'a> {
    catalog: &'a Catalog,
    tm: TelemetryManager,
    budget: Option<BudgetManager>,
    current: &'a Container,
    obs: RunObservability,
    intervals: Vec<IntervalRecord>,
    resizes: u64,
    rejected_total: u64,
}

impl<'a> Controller<'a> {
    /// A controller for a run of `intervals` billing intervals (the budget
    /// period, §5).
    ///
    /// Reads `cfg.catalog`, `cfg.telemetry`, `cfg.knobs`,
    /// `cfg.budget_strategy` and `cfg.initial`; the
    /// engine-specific fields (`engine`, `prewarm_pages`, `seed`) belong to
    /// [`SimulatorSource::new`].
    pub fn new(cfg: &'a RunConfig, intervals: usize) -> Self {
        let catalog = &cfg.catalog;
        let mut telemetry_cfg = cfg.telemetry;
        telemetry_cfg.latency_goal = cfg.knobs.latency_goal;
        Self {
            catalog,
            tm: TelemetryManager::new(telemetry_cfg),
            budget: cfg.knobs.budget.map(|b| {
                BudgetManager::new(
                    b,
                    intervals as u64,
                    catalog.min_cost(),
                    catalog.max_cost(),
                    cfg.budget_strategy,
                )
            }),
            current: cfg.initial_container(),
            obs: RunObservability::default(),
            intervals: Vec::with_capacity(intervals),
            resizes: 0,
            rejected_total: 0,
        }
    }

    /// The latency statistic a source aggregates each interval with
    /// ([`TelemetrySource::observe_interval`]'s `goal`).
    pub fn goal(&self) -> LatencyGoal {
        // The aggregation statistic even without a goal: p95 (paper §7
        // reports 95th percentiles).
        self.tm
            .config()
            .latency_goal
            .unwrap_or(LatencyGoal::P95(f64::INFINITY))
    }

    /// Runs one billing interval: turns `sample` into signals, bills the
    /// interval that just ran, lets `policy` pick the next interval's
    /// container given the balloon `probe` state the interval ended with
    /// (read before any command is applied), and records the interval.
    // dasr-lint: entry(G1)
    // dasr-lint: no-alloc
    pub fn step(
        &mut self,
        policy: &mut dyn ScalingPolicy,
        sample: TelemetrySample,
        probe: ProbeStatus,
    ) -> Step {
        let catalog = self.catalog;
        self.rejected_total += sample.rejected;
        let wait_pct = {
            let mut out = [0.0; dasr_engine::WAIT_CLASSES.len()];
            for class in dasr_engine::WAIT_CLASSES {
                out[class.index()] = sample.wait_pct(class);
            }
            out
        };
        let allocated = self.current.resources;
        let used = ResourceVector::new(
            sample.util(ResourceKind::Cpu) / 100.0 * allocated.cpu_cores,
            sample.mem_used_mb,
            sample.util(ResourceKind::DiskIo) / 100.0 * allocated.disk_iops,
            sample.util(ResourceKind::LogIo) / 100.0 * allocated.log_mbps,
        );
        // §3 signal computation, timed (wall-clock; the timer section
        // is excluded from the determinism contract).
        // dasr-lint: allow(D1, G1) reason="obs timer: wall-clock durations feed TimerId::SignalsNs only, which PartialEq and the determinism contract exclude"
        let t0 = std::time::Instant::now();
        let signals = self.tm.observe(sample);
        self.obs
            .metrics
            .observe_ns(TimerId::SignalsNs, t0.elapsed().as_nanos() as u64);

        // Bill the interval that just ran.
        let cost = self.current.cost;
        if let Some(b) = self.budget.as_mut() {
            let ok = b.charge(cost);
            debug_assert!(ok, "policy selected an unaffordable container");
        }

        let budget = self.budget.as_ref();
        let ctx = PolicyContext {
            signals: &signals,
            current: self.current,
            catalog,
            available_budget: budget.map(|b| b.available()),
            balloon: probe,
        };
        // dasr-lint: allow(D1, G1) reason="obs timer: wall-clock durations feed TimerId::DecideNs only, which PartialEq and the determinism contract exclude"
        let t0 = std::time::Instant::now();
        let decision = policy.decide(&ctx);
        self.obs
            .metrics
            .observe_ns(TimerId::DecideNs, t0.elapsed().as_nanos() as u64);

        let target = catalog
            .get(decision.target)
            .expect("policy picked an unknown container");
        let resized = decision.target != self.current.id;
        self.obs.record_interval(IntervalObservation {
            trace: &decision.trace,
            latency_ms: sample.latency_ms,
            completed: sample.completed,
            rejected: sample.rejected,
            from_rung: self.current.rung,
            to_rung: target.rung,
            budget_headroom_pct: budget.map(|b| b.remaining() / b.budget() * 100.0),
        });
        self.intervals.push(IntervalRecord {
            minute: self.intervals.len() as u64,
            container: self.current.id,
            rung: self.current.rung,
            cost,
            allocated,
            used,
            latency_ms: sample.latency_ms,
            completed: sample.completed,
            rejected: sample.rejected,
            wait_pct,
            mem_used_mb: sample.mem_used_mb,
            resized,
            trace: decision.trace,
        });

        let resize = resized.then(|| {
            self.current = target;
            self.resizes += 1;
            self.current.resources
        });
        Step {
            balloon: decision.balloon,
            resize,
        }
    }

    /// Closes the run: records the end-of-run gauges and assembles the
    /// report. `all_latencies_ms` is the pooled per-request latency
    /// population, empty when the source keeps none.
    pub fn finish(
        mut self,
        policy: &dyn ScalingPolicy,
        workload: &str,
        trace: &str,
        all_latencies_ms: Vec<f64>,
    ) -> RunReport {
        self.obs.finish(
            self.current.rung,
            self.budget.as_ref().map(BudgetManager::remaining),
        );
        RunReport {
            policy: policy.name().to_string(),
            workload: workload.to_string(),
            trace: trace.to_string(),
            intervals: self.intervals,
            all_latencies_ms,
            resizes: self.resizes,
            rejected_total: self.rejected_total,
            obs: self.obs,
        }
    }
}

/// The closed-loop experiment driver.
pub struct ClosedLoop;

impl ClosedLoop {
    /// Runs `policy` over `trace` × `workload` on the simulator and
    /// reports.
    ///
    /// Each trace minute is one billing interval: arrivals for the minute
    /// are generated open-loop, the engine advances, telemetry is drained
    /// and turned into signals, the budget is charged for the interval that
    /// just ran, and the policy picks the next interval's container (§6).
    ///
    /// This is [`ClosedLoop::run_source`] with the engine plugged in as
    /// [`SimulatorSource`].
    pub fn run<W: Workload>(
        cfg: &RunConfig,
        trace: &Trace,
        workload: W,
        policy: &mut dyn ScalingPolicy,
    ) -> RunReport {
        let mut backend = SimulatorSource::new(cfg, trace, workload);
        Self::run_source(cfg, &mut backend, policy)
    }

    /// Runs `policy` against any telemetry backend: one [`Controller::step`]
    /// per interval produced by `backend`, with the step's commands sent
    /// back through the backend's [`ResizeActuator`] half.
    ///
    /// Determinism: given a backend whose sample sequence is a pure
    /// function of its inputs (the trait contract) and a deterministic
    /// policy, every output — report, metrics registry, event stream — is
    /// bit-identical across runs.
    pub fn run_source<B: TelemetrySource + ResizeActuator>(
        cfg: &RunConfig,
        backend: &mut B,
        policy: &mut dyn ScalingPolicy,
    ) -> RunReport {
        Self::drive(cfg, backend, policy, |_, _| {})
    }

    /// [`ClosedLoop::run_source`], showing `tap` each interval's sample
    /// and probe state before the controller steps on them.
    pub(crate) fn drive<B: TelemetrySource + ResizeActuator>(
        cfg: &RunConfig,
        backend: &mut B,
        policy: &mut dyn ScalingPolicy,
        mut tap: impl FnMut(TelemetrySample, ProbeStatus),
    ) -> RunReport {
        let minutes = backend.intervals();
        let mut controller = Controller::new(cfg, minutes);
        let mut all_latencies = Vec::new();
        for minute in 0..minutes {
            let sample = backend.observe_interval(minute as u64, controller.goal());
            all_latencies.extend_from_slice(backend.interval_latencies_ms());
            // Read before actuation: the probe state the §4.3 controller
            // sees is the one the interval ended with.
            let probe = backend.probe();
            tap(sample, probe);
            let step = controller.step(policy, sample, probe);
            match step.balloon {
                BalloonCommand::None => {}
                BalloonCommand::Start { target_mb } => backend.start_balloon(target_mb),
                BalloonCommand::Abort => backend.abort_balloon(),
                BalloonCommand::Commit => backend.commit_balloon(),
            }
            if let Some(resources) = step.resize {
                backend.apply_resources(resources);
            }
        }
        controller.finish(
            policy,
            backend.workload_name(),
            backend.trace_name(),
            all_latencies,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::StaticPolicy;
    use dasr_workloads::{CpuIoConfig, CpuIoWorkload};

    fn short_trace(rps: f64, minutes: usize) -> Trace {
        Trace::new("test", vec![rps; minutes])
    }

    fn workload() -> CpuIoWorkload {
        CpuIoWorkload::new(CpuIoConfig::small())
    }

    #[test]
    fn static_run_produces_full_report() {
        let cfg = RunConfig::default();
        let mut policy = StaticPolicy::max(&cfg.catalog);
        let report = ClosedLoop::run(&cfg, &short_trace(20.0, 5), workload(), &mut policy);
        assert_eq!(report.intervals.len(), 5);
        assert_eq!(report.resizes, 1, "initial container -> max");
        assert!(
            report.completed_total() > 5 * 60 * 10,
            "most requests complete"
        );
        assert!(report.p95_ms().is_some());
        // After the first interval the max container is billed.
        assert_eq!(report.intervals[2].cost, cfg.catalog.max_cost());
    }

    #[test]
    fn deterministic_runs() {
        let cfg = RunConfig::default();
        let run = || {
            let mut policy = StaticPolicy::max(&cfg.catalog);
            let r = ClosedLoop::run(&cfg, &short_trace(10.0, 3), workload(), &mut policy);
            (r.total_cost(), r.completed_total(), r.p95_ms())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn budget_is_hard_constraint() {
        use dasr_telemetry::LatencyGoal;

        let minutes = 20;
        let budget = 20.0 * 20.0; // avg 20/interval, Cmin 7
        let cfg = RunConfig {
            knobs: TenantKnobs::none()
                .with_budget(budget)
                .with_latency_goal(LatencyGoal::P95(10.0)), // impossible goal => wants big
            ..RunConfig::default()
        };
        let mut policy = crate::policy::AutoPolicy::with_knobs(cfg.knobs);
        let report = ClosedLoop::run(&cfg, &short_trace(50.0, minutes), workload(), &mut policy);
        assert!(
            report.total_cost() <= budget + 1e-6,
            "spent {} over budget {budget}",
            report.total_cost()
        );
    }

    #[test]
    fn interval_records_track_containers() {
        let cfg = RunConfig::default();
        let mut policy = StaticPolicy::new("pin", cfg.catalog.smallest().id);
        let report = ClosedLoop::run(&cfg, &short_trace(5.0, 4), workload(), &mut policy);
        // Interval 0 uses the default initial container, then the pin.
        assert_eq!(report.intervals[0].rung, 2);
        assert_eq!(report.intervals[1].rung, 0);
        assert!(report.intervals[1].cost < report.intervals[0].cost);
    }

    #[test]
    fn initial_container_prefers_rung_two() {
        let cfg = RunConfig::default();
        assert_eq!(cfg.initial_container().rung, 2);
        let pinned = RunConfig {
            initial: Some(cfg.catalog.smallest().id),
            ..RunConfig::default()
        };
        assert_eq!(pinned.initial_container().rung, 0);
    }
}
