//! Property tests for the observability layer's determinism contract:
//! whole [`RunReport`]s — including the merged metrics registry and run
//! event stream — must be bit-identical at 1, 2 and 8 threads (wall-clock
//! timers are excluded from equality by design; see
//! `dasr_core::obs::MetricRegistry`).

use dasr_core::policy::{AutoPolicy, ScalingPolicy};
use dasr_core::{tenant_seed, FleetRunner, RunConfig, TenantKnobs, TenantSpec};
use dasr_telemetry::LatencyGoal;
use dasr_workloads::{CpuIoConfig, CpuIoWorkload, Trace};
use proptest::prelude::*;

/// A small fleet whose tenants have goals and budgets, so every metric
/// family (resizes, denials, budget throttles, SLO violations) can engage.
fn fleet(seed: u64, n: usize, minutes: usize) -> Vec<TenantSpec<CpuIoWorkload>> {
    (0..n)
        .map(|i| {
            let tseed = tenant_seed(seed, i as u64);
            let rps: Vec<f64> = (0..minutes)
                .map(|m| {
                    let burst = if (m + i) % 3 == 0 { 12.0 } else { 0.0 };
                    4.0 + ((tseed % 7) as f64) + burst
                })
                .collect();
            let knobs = TenantKnobs::none()
                .with_latency_goal(LatencyGoal::P95(30.0 + (i as f64) * 10.0))
                .with_budget(40.0 * minutes as f64);
            TenantSpec {
                cfg: RunConfig {
                    seed: tseed,
                    knobs,
                    ..RunConfig::default()
                },
                trace: Trace::new("obs-prop", rps),
                workload: CpuIoWorkload::new(CpuIoConfig::small()),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The full report — intervals, traces, metrics registry, event stream
    /// — is bit-identical for 1, 2 and 8 threads, compared with plain
    /// `==` (possible since the registry's `PartialEq` covers exactly the
    /// deterministic sections).
    #[test]
    fn run_reports_are_bit_identical_across_thread_counts(
        seed in 0u64..1_000_000,
        n in 2usize..6,
    ) {
        let tenants = fleet(seed, n, 4);
        let run = |threads: usize| {
            FleetRunner::new(threads).run_fleet(&tenants, |_, t| {
                Box::new(AutoPolicy::with_knobs(t.cfg.knobs)) as Box<dyn ScalingPolicy>
            })
        };
        let reference = run(1);
        for threads in [2usize, 8] {
            let parallel = run(threads);
            prop_assert_eq!(parallel.reports.len(), reference.reports.len());
            for (a, b) in parallel.reports.iter().zip(reference.reports.iter()) {
                prop_assert_eq!(a, b, "RunReport diverges at {} threads", threads);
            }
            prop_assert_eq!(
                parallel.fleet_metrics(),
                reference.fleet_metrics(),
                "merged fleet registry diverges at {} threads",
                threads
            );
            prop_assert_eq!(
                parallel.events_jsonl(),
                reference.events_jsonl(),
                "fleet event stream diverges at {} threads",
                threads
            );
        }
    }

    /// The registry's live rule histogram equals the one re-derived from
    /// the stored decision traces — the absorbed `RuleHistogram` and the
    /// trace-derived view never drift apart.
    #[test]
    fn registry_rules_match_trace_derived_histogram(
        seed in 0u64..1_000_000,
        n in 1usize..4,
    ) {
        let tenants = fleet(seed, n, 3);
        let report = FleetRunner::new(2).run_fleet(&tenants, |_, t| {
            Box::new(AutoPolicy::with_knobs(t.cfg.knobs)) as Box<dyn ScalingPolicy>
        });
        for r in &report.reports {
            prop_assert_eq!(r.obs.metrics.rules(), &r.rule_histogram());
        }
        prop_assert_eq!(report.fleet_metrics().rules(), &report.rule_histogram());
    }
}
