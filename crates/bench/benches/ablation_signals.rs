//! Ablation (§3–§4): how much each derived signal contributes.
//!
//! Compares the full Auto policy against variants with individual signals
//! disabled:
//! - **no trends** — the Theil–Sen acceptance threshold is set to 1.0 so no
//!   trend is ever significant (scenarios (b)/(c) and the early-warning
//!   gate vanish);
//! - **no correlation** — the Spearman bottleneck rule is disabled
//!   (`corr_threshold > 1`).
//!
//! The paper's claim is that the *combination* of weakly-predictive signals
//! is what makes the estimator robust.

use dasr_bench::compare::ExperimentScale;
use dasr_bench::table::ascii_table;
use dasr_core::estimator::EstimatorConfig;
use dasr_core::policy::auto::AutoConfig;
use dasr_core::policy::AutoPolicy;
use dasr_core::runner::ClosedLoop;
use dasr_core::{RunConfig, TenantKnobs};
use dasr_telemetry::{LatencyGoal, TelemetryConfig};
use dasr_workloads::{CpuIoConfig, CpuIoWorkload, Trace};

fn main() {
    let minutes = ExperimentScale::from_env().minutes();
    let trace = Trace::paper_with_len(4, minutes);
    let workload = CpuIoWorkload::new(CpuIoConfig::default());
    let goal = LatencyGoal::P95(200.0);
    let knobs = TenantKnobs::none().with_latency_goal(goal);

    println!("=== Ablation: estimator signals (CPUIO on trace 4, goal 200 ms) ===");
    let mut rows = Vec::new();
    for (label, trend_alpha, corr_threshold) in [
        ("full Auto", 0.70, 0.6),
        ("no trends", 1.0, 0.6),
        ("no correlation", 0.70, 1.1),
        ("neither", 1.0, 1.1),
    ] {
        let cfg = RunConfig {
            knobs,
            telemetry: TelemetryConfig {
                trend_alpha,
                latency_goal: Some(goal),
            },
            prewarm_pages: workload.config().hot_pages,
            ..RunConfig::default()
        };
        let mut policy = AutoPolicy::new(AutoConfig {
            estimator: EstimatorConfig { corr_threshold },
            ..AutoConfig::with_knobs(knobs)
        });
        let report = ClosedLoop::run(&cfg, &trace, workload.clone(), &mut policy);
        rows.push(vec![
            label.to_string(),
            format!("{:.1}", report.p95_ms().unwrap_or(f64::NAN)),
            format!("{:.1}", report.avg_cost_per_interval()),
            format!("{}", report.resizes),
        ]);
    }
    println!(
        "{}",
        ascii_table(
            &["variant", "p95 latency (ms)", "cost/interval", "resizes"],
            &rows
        )
    );
    println!(
        "expected: removing signals degrades the latency/cost trade — slower reaction to \
         building pressure (no trends) or missed bottleneck attribution (no correlation)."
    );
}
