//! Fleet determinism at scale: the same tenant fleet, run with 1, 2, and
//! 8 worker threads, must produce **bit-identical** results — every
//! latency sample, every interval record field, every rule fire.
//!
//! This is the fleet-level half of the engine fast-path equivalence story:
//! `crates/engine/tests/engine_equivalence.rs` proves the fast-path engine
//! matches the old implementation bit-for-bit on one tenant; this test
//! proves the parallel runner adds no thread-count dependence on top, so a
//! fleet experiment's numbers are reproducible on any machine regardless
//! of its core count.

use dasr_core::{tenant_seed, AutoPolicy, FleetRunner, RunConfig, ScalingPolicy, TenantSpec};
use dasr_workloads::{CpuIoConfig, CpuIoWorkload, Trace};

fn fleet(n: usize) -> Vec<TenantSpec<CpuIoWorkload>> {
    (0..n)
        .map(|i| {
            // Varied 10-minute demand shapes: ramps, spikes, troughs.
            let demand: Vec<f64> = (0..10)
                .map(|m| 4.0 + ((i + m) % 5) as f64 * 3.0 + if m == 6 { 12.0 } else { 0.0 })
                .collect();
            TenantSpec {
                cfg: RunConfig {
                    seed: tenant_seed(0xF1EE7, i as u64),
                    ..RunConfig::default()
                },
                trace: Trace::new("mix", demand),
                workload: CpuIoWorkload::new(CpuIoConfig::small()),
            }
        })
        .collect()
}

#[test]
fn fleet_runs_are_bit_identical_at_1_2_and_8_threads() {
    let tenants = fleet(9);
    let run = |threads: usize| {
        FleetRunner::new(threads).run_fleet(&tenants, |_, t| {
            Box::new(AutoPolicy::with_knobs(t.cfg.knobs)) as Box<dyn ScalingPolicy>
        })
    };
    let reference = run(1);
    for threads in [2usize, 8] {
        let parallel = run(threads);
        assert_eq!(parallel.len(), reference.len(), "threads = {threads}");
        for (i, (a, b)) in parallel
            .reports
            .iter()
            .zip(reference.reports.iter())
            .enumerate()
        {
            assert_eq!(
                a.all_latencies_ms, b.all_latencies_ms,
                "tenant {i} latencies diverged at {threads} threads"
            );
            assert_eq!(a.resizes, b.resizes, "tenant {i}");
            assert_eq!(a.rejected_total, b.rejected_total, "tenant {i}");
            assert_eq!(a.total_cost(), b.total_cost(), "tenant {i}");
            assert_eq!(
                a.intervals.len(),
                b.intervals.len(),
                "tenant {i} interval count"
            );
            for (m, (ia, ib)) in a.intervals.iter().zip(b.intervals.iter()).enumerate() {
                assert_eq!(ia.latency_ms, ib.latency_ms, "tenant {i} minute {m}");
                assert_eq!(ia.completed, ib.completed, "tenant {i} minute {m}");
                assert_eq!(ia.wait_pct, ib.wait_pct, "tenant {i} minute {m}");
                assert_eq!(ia.mem_used_mb, ib.mem_used_mb, "tenant {i} minute {m}");
                assert_eq!(ia.container, ib.container, "tenant {i} minute {m}");
            }
        }
        // Aggregates follow from the per-tenant equality, but check the
        // pooled views too (they fold in tenant-index order).
        assert_eq!(parallel.p95_ms(), reference.p95_ms());
        assert_eq!(
            parallel.rule_histogram(),
            reference.rule_histogram(),
            "threads = {threads}"
        );
    }
}
