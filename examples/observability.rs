//! Fleet observability tour: run a small multi-tenant fleet under the
//! Auto policy and inspect the metrics registry, the structured run-event
//! stream, and their exact fleet-wide fold.
//!
//! ```text
//! cargo run --release --example observability
//! ```

use dasr::core::obs::{CounterId, HistogramId};
use dasr::core::policy::{AutoPolicy, ScalingPolicy};
use dasr::core::{tenant_seed, FleetRunner, RunConfig, TenantKnobs, TenantSpec};
use dasr::telemetry::LatencyGoal;
use dasr::workloads::{CpuIoConfig, CpuIoWorkload, Trace};

fn main() {
    // A fleet of 8 tenants, each with a latency goal and a budget, each
    // seeing a bursty demand trace offset by its index.
    let minutes = 40;
    let tenants: Vec<TenantSpec<CpuIoWorkload>> = (0..8)
        .map(|i| {
            let mut rps = vec![5.0; minutes];
            for (m, r) in rps.iter_mut().enumerate() {
                if (6 + 2 * i..22 + 2 * i).contains(&m) {
                    *r = 140.0;
                }
            }
            let knobs = TenantKnobs::none()
                .with_latency_goal(LatencyGoal::P95(50.0))
                .with_budget(40.0 * minutes as f64);
            TenantSpec {
                cfg: RunConfig {
                    seed: tenant_seed(0xDA5A, i as u64),
                    knobs,
                    ..RunConfig::default()
                },
                trace: Trace::new("burst", rps),
                workload: CpuIoWorkload::new(CpuIoConfig::default()),
            }
        })
        .collect();

    println!("Running {} tenants across OS threads…", tenants.len());
    let fleet = FleetRunner::with_available_parallelism().run_fleet(&tenants, |_, t| {
        Box::new(AutoPolicy::with_knobs(t.cfg.knobs)) as Box<dyn ScalingPolicy>
    });
    println!("{}", fleet.summary());

    // 1. Per-tenant observability: every RunReport carries its registry
    //    and event stream.
    let tenant0 = &fleet.reports[0];
    println!("\n-- Tenant 0 ({}): {}", tenant0.policy, tenant0.summary());
    print!("{}", tenant0.obs.summary());

    // 2. The fleet-wide registry is an exact fold of every tenant's:
    //    bit-identical no matter how many threads or shards ran the fleet.
    let metrics = fleet.fleet_metrics();
    println!("\n-- Fleet-wide metrics registry (merged) --");
    print!("{metrics}");
    println!(
        "\nresizes: {} issued / {} denied by cooldown / {} denied by budget",
        metrics.counter(CounterId::ResizesIssued),
        metrics.counter(CounterId::ResizesDeniedCooldown),
        metrics.counter(CounterId::ResizesDeniedBudget),
    );
    let steps = metrics.histogram(HistogramId::ResizeStep);
    println!(
        "resize steps: {} observed, mean {:+.2} rungs",
        steps.total(),
        steps.mean().unwrap_or(0.0)
    );

    // 3. The structured event stream: one JSON line per notable moment,
    //    tenant-stamped. Human-readable text is rendered from the same
    //    structures on demand — never stored.
    println!("\n-- First 10 run events (rendered) --");
    for ev in fleet.reports.iter().flat_map(|r| &r.obs.events).take(10) {
        println!("  {ev}");
    }
    println!("\n-- Same events as JSONL (machine-readable sink) --");
    for line in fleet.events_jsonl().lines().take(3) {
        println!("  {line}");
    }
    println!(
        "  … {} events total; full registry dump: MetricRegistry::to_jsonl()",
        fleet.fleet_summary().events_emitted
    );
}
