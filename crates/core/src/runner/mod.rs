//! The closed loop (§6, Figure 3): telemetry + policy + billing, one
//! decision per billing interval — generic over where the telemetry comes
//! from and where the resize commands go.
//!
//! The loop body in [`ClosedLoop::run_source`] is written against the
//! [`TelemetrySource`]/[`ResizeActuator`] seam from `dasr_telemetry`:
//! [`source::SimulatorSource`] plugs the discrete-event engine in (the
//! classic [`ClosedLoop::run`] entry point is now a thin wrapper over it,
//! pinned bit-identical to the frozen [`oracle::OracleLoop`] by the
//! `loop_equivalence` tests), and `crate::replay::ReplaySource` feeds a
//! recorded run back through any policy.
//!
//! [`fleet`] scales the loop out: N independent tenants across a sharded
//! worker pool with bit-identical results regardless of thread or shard
//! count; [`ordered`] is the one fan-out it (and the store's read path)
//! runs on, and [`shard`] holds the exact-sum monoid the fold rests on.

pub mod fleet;
pub mod oracle;
pub mod ordered;
pub mod shard;
pub mod source;

use crate::budget::{BudgetManager, BudgetStrategy};
use crate::knobs::TenantKnobs;
use crate::obs::{IntervalObservation, ObsConfig, RunObservability, TimerId};
use crate::policy::{BalloonCommand, PolicyContext, ScalingPolicy};
use crate::report::{IntervalRecord, RunReport};
use dasr_containers::{Catalog, Container, ContainerId, ResourceKind, ResourceVector};
use dasr_engine::EngineConfig;
use dasr_telemetry::{
    LatencyGoal, ResizeActuator, TelemetryConfig, TelemetryManager, TelemetrySource,
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
    /// Telemetry-manager parameters (thresholds, windows). The latency
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
    /// Observability configuration (event-stream verbosity; metrics are
    /// always recorded).
    pub obs: ObsConfig,
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
            obs: ObsConfig::default(),
        }
    }
}

impl RunConfig {
    /// The container the run starts in: [`RunConfig::initial`] when set,
    /// else rung 2, else the smallest in the catalog.
    pub fn initial_container(&self) -> Container {
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
            .clone()
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
    /// [`SimulatorSource`]; the pairing is pinned bit-identical to the
    /// pre-seam loop ([`oracle::OracleLoop`]) by the `loop_equivalence`
    /// tests.
    pub fn run<W: Workload>(
        cfg: &RunConfig,
        trace: &Trace,
        workload: W,
        policy: &mut dyn ScalingPolicy,
    ) -> RunReport {
        let mut backend = SimulatorSource::new(cfg, trace, workload);
        Self::run_source(cfg, &mut backend, policy)
    }

    /// Runs `policy` against any telemetry backend: one decision per
    /// interval produced by `backend`, with the policy's commands sent back
    /// through the backend's [`ResizeActuator`] half.
    ///
    /// The loop only reads `cfg.catalog`, `cfg.telemetry`, `cfg.knobs`,
    /// `cfg.budget_strategy`, `cfg.initial` and `cfg.obs`; the
    /// engine-specific fields (`engine`, `prewarm_pages`, `seed`) belong to
    /// [`SimulatorSource::new`]. Determinism: given a backend whose sample
    /// sequence is a pure function of its inputs (the trait contract) and a
    /// deterministic policy, every output — report, metrics registry, event
    /// stream — is bit-identical across runs.
    pub fn run_source<B: TelemetrySource + ResizeActuator>(
        cfg: &RunConfig,
        backend: &mut B,
        policy: &mut dyn ScalingPolicy,
    ) -> RunReport {
        let catalog = &cfg.catalog;
        let minutes = backend.intervals();
        let mut current = cfg.initial_container();

        let mut telemetry_cfg = cfg.telemetry;
        telemetry_cfg.latency_goal = cfg.knobs.latency_goal;
        let mut tm = TelemetryManager::new(telemetry_cfg);
        // The aggregation statistic even without a goal: p95 (paper §7
        // reports 95th percentiles).
        let goal_stat = cfg
            .knobs
            .latency_goal
            .unwrap_or(LatencyGoal::P95(f64::INFINITY));

        let mut budget = cfg.knobs.budget.map(|b| {
            BudgetManager::new(
                b,
                minutes as u64,
                catalog.min_cost(),
                catalog.max_cost(),
                cfg.budget_strategy,
            )
        });

        let workload_name = backend.workload_name().to_string();
        let trace_name = backend.trace_name().to_string();

        let mut intervals = Vec::with_capacity(minutes);
        let mut all_latencies = Vec::new();
        let mut resizes = 0u64;
        let mut rejected_total = 0u64;
        let mut obs = RunObservability::new(cfg.obs.verbosity);

        for minute in 0..minutes {
            let sample = backend.observe_interval(minute as u64, goal_stat);
            rejected_total += sample.rejected;
            all_latencies.extend_from_slice(backend.interval_latencies_ms());
            // Read before actuation: the probe state the §4.3 controller
            // sees is the one the interval ended with.
            let balloon_status = backend.probe();

            let latency_ms = sample.latency_ms;
            let completed = sample.completed;
            let rejected = sample.rejected;
            let mem_used_mb = sample.mem_used_mb;
            let wait_pct = {
                let mut out = [0.0; dasr_engine::WAIT_CLASSES.len()];
                for class in dasr_engine::WAIT_CLASSES {
                    out[class.index()] = sample.wait_pct(class);
                }
                out
            };
            let used = ResourceVector::new(
                sample.util(ResourceKind::Cpu) / 100.0 * current.resources.cpu_cores,
                sample.mem_used_mb,
                sample.util(ResourceKind::DiskIo) / 100.0 * current.resources.disk_iops,
                sample.util(ResourceKind::LogIo) / 100.0 * current.resources.log_mbps,
            );
            // §3 signal computation, timed (wall-clock; the timer section
            // is excluded from the determinism contract).
            // dasr-lint: allow(D1) reason="obs timer: wall-clock durations feed TimerId::SignalsNs only, which PartialEq and the determinism contract exclude"
            let t0 = std::time::Instant::now();
            let signals = tm.observe(sample);
            obs.metrics
                .observe_ns(TimerId::SignalsNs, t0.elapsed().as_nanos() as u64);

            // Bill the interval that just ran.
            let cost = current.cost;
            if let Some(b) = budget.as_mut() {
                let ok = b.charge(cost);
                debug_assert!(ok, "policy selected an unaffordable container");
            }

            let ctx = PolicyContext {
                signals: &signals,
                current: &current,
                catalog,
                available_budget: budget.as_ref().map(|b| b.available()),
                balloon: balloon_status,
            };
            // dasr-lint: allow(D1) reason="obs timer: wall-clock durations feed TimerId::DecideNs only, which PartialEq and the determinism contract exclude"
            let t0 = std::time::Instant::now();
            let decision = policy.decide(&ctx);
            obs.metrics
                .observe_ns(TimerId::DecideNs, t0.elapsed().as_nanos() as u64);

            match decision.balloon {
                BalloonCommand::None => {}
                BalloonCommand::Start { target_mb } => backend.start_balloon(target_mb),
                BalloonCommand::Abort => backend.abort_balloon(),
                BalloonCommand::Commit => backend.commit_balloon(),
            }

            let resized = decision.target != current.id;
            let target = decision.target;
            let target_rung = catalog
                .get(target)
                .expect("policy picked an unknown container")
                .rung;
            obs.record_interval(IntervalObservation {
                trace: &decision.trace,
                latency_ms,
                completed,
                rejected,
                from_rung: current.rung,
                to_rung: target_rung,
                budget_headroom_pct: budget.as_ref().map(|b| b.remaining() / b.budget() * 100.0),
            });
            intervals.push(IntervalRecord {
                minute: minute as u64,
                container: current.id,
                rung: current.rung,
                cost,
                allocated: current.resources,
                used,
                latency_ms,
                completed,
                rejected,
                wait_pct,
                mem_used_mb,
                resized,
                trace: decision.trace,
            });

            if resized {
                current = catalog
                    .get(target)
                    .expect("policy picked an unknown container")
                    .clone();
                backend.apply_resources(current.resources);
                resizes += 1;
            }
        }

        obs.finish(current.rung, budget.as_ref().map(BudgetManager::remaining));

        RunReport {
            policy: policy.name().to_string(),
            workload: workload_name,
            trace: trace_name,
            intervals,
            all_latencies_ms: all_latencies,
            resizes,
            rejected_total,
            obs,
        }
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
