//! The pre-refactor closed loop, frozen as an equivalence oracle.
//!
//! [`OracleLoop::run`] is the loop body exactly as it stood before the
//! `TelemetrySource`/`ResizeActuator` seam was cut through
//! [`ClosedLoop`](super::ClosedLoop) and the body became
//! [`Controller::step`](super::Controller::step): it drives
//! `dasr_engine::Engine` directly, with no trait in between. It exists for
//! two jobs and must not be "improved":
//!
//! - the `loop_equivalence` integration tests pin the controller and its
//!   drivers to this loop — bit-identical `RunReport`s, metrics registries
//!   and event JSONL — the same way `engine_equivalence` pins the indexed
//!   engine to `OracleEngine`;
//! - the `micro_loop` bench times the same run through both, an ungated
//!   diagnostic of what the seam and the controller cost.
//!
//! Any behavioral edit here *widens* the oracle instead of catching a
//! regression, so the only acceptable changes are ones that keep this file
//! byte-for-byte semantically identical to the pre-seam loop.

use crate::budget::BudgetManager;
use crate::obs::{IntervalObservation, RunObservability, TimerId};
use crate::policy::{BalloonCommand, BalloonStatus, PolicyContext, ScalingPolicy};
use crate::report::{IntervalRecord, RunReport};
use crate::runner::RunConfig;
use dasr_containers::ResourceVector;
use dasr_engine::{Engine, SimTime};
use dasr_telemetry::{LatencyGoal, TelemetryManager, TelemetrySample};
use dasr_workloads::{Trace, TraceDriver, Workload};

/// The frozen pre-seam experiment driver (see module docs).
pub struct OracleLoop;

impl OracleLoop {
    /// Runs `policy` over `trace` × `workload` with direct engine calls —
    /// the exact pre-refactor `ClosedLoop::run` body.
    pub fn run<W: Workload>(
        cfg: &RunConfig,
        trace: &Trace,
        workload: W,
        policy: &mut dyn ScalingPolicy,
    ) -> RunReport {
        let catalog = &cfg.catalog;
        let minutes = trace.minutes();
        let initial_id = cfg.initial.unwrap_or_else(|| {
            catalog
                .iter()
                .find(|c| c.rung == 2)
                .unwrap_or_else(|| catalog.smallest())
                .id
        });
        let mut current = catalog
            .get(initial_id)
            .expect("initial container must exist")
            .clone();

        let mut engine = Engine::new(cfg.engine, current.resources);
        if cfg.prewarm_pages > 0 {
            engine.prewarm(cfg.prewarm_pages);
        }
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

        let mut driver = TraceDriver::new(trace.clone(), workload, cfg.seed);
        let workload_name = driver.workload_name().to_string();

        let mut intervals = Vec::with_capacity(minutes);
        let mut all_latencies = Vec::new();
        let mut resizes = 0u64;
        let mut rejected_total = 0u64;
        let mut obs = RunObservability::default();
        // Reused across intervals: `end_interval_into` ping-pongs the
        // latency buffer with the engine, so the per-minute hot loop does
        // not allocate telemetry.
        let mut stats = dasr_engine::IntervalStats::default();

        for minute in 0..minutes {
            driver.submit_minute(minute, &mut engine);
            engine.run_until(SimTime::from_mins(minute as u64 + 1));
            engine.end_interval_into(&mut stats);
            rejected_total += stats.rejected;
            all_latencies.extend_from_slice(&stats.latencies_ms);

            let sample = TelemetrySample::from_interval(minute as u64, &stats, goal_stat);
            let latency_ms = sample.latency_ms;
            let wait_pct = {
                let mut out = [0.0; dasr_engine::WAIT_CLASSES.len()];
                for class in dasr_engine::WAIT_CLASSES {
                    out[class.index()] = sample.wait_pct(class);
                }
                out
            };
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

            let used = ResourceVector::new(
                stats.cpu_util_pct / 100.0 * current.resources.cpu_cores,
                stats.mem_used_mb,
                stats.disk_util_pct / 100.0 * current.resources.disk_iops,
                stats.log_util_pct / 100.0 * current.resources.log_mbps,
            );

            let balloon_status = if engine.balloon_active() {
                BalloonStatus::Active {
                    reached_target: engine.balloon_reached_target(),
                }
            } else {
                BalloonStatus::Inactive
            };
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
                BalloonCommand::Start { target_mb } => engine.start_balloon(target_mb),
                BalloonCommand::Abort => engine.abort_balloon(),
                BalloonCommand::Commit => engine.commit_balloon(),
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
                completed: stats.completed,
                rejected: stats.rejected,
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
                completed: stats.completed,
                rejected: stats.rejected,
                wait_pct,
                mem_used_mb: stats.mem_used_mb,
                resized,
                trace: decision.trace,
            });

            if resized {
                current = catalog
                    .get(target)
                    .expect("policy picked an unknown container")
                    .clone();
                engine.apply_resources(current.resources);
                resizes += 1;
            }
        }

        obs.finish(current.rung, budget.as_ref().map(BudgetManager::remaining));

        RunReport {
            policy: policy.name().to_string(),
            workload: workload_name,
            trace: trace.name.clone(),
            intervals,
            all_latencies_ms: all_latencies,
            resizes,
            rejected_total,
            obs,
        }
    }
}
