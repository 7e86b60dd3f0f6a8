//! Shard/thread bit-identity on awkward shapes.
//!
//! The sharded scheduler's contract is that neither the worker count nor
//! the shard count can perturb a single bit of the result — the exact-sum
//! monoid fold (see `dasr_core::runner::shard`) absorbs the floating-point
//! non-associativity that would otherwise leak shard boundaries into the
//! aggregates. This test drives the claim over deliberately awkward
//! shapes: shard counts that don't divide the tenant count, more shards
//! than tenants, more threads than shards, and the empty fleet — asserting
//! full [`FleetReport`] equality (reports *and* folded summary), identical
//! event JSONL, and identical merged registries. The streaming summary
//! mode must agree with the buffered full mode on all of it.

use dasr_core::obs::events_jsonl;
use dasr_core::{
    tenant_seed, AutoPolicy, FleetReport, FleetRunner, FleetSummary, RunConfig, ScalingPolicy,
    TenantSpec, VecSink,
};
use dasr_workloads::{CpuIoConfig, CpuIoWorkload, Trace};

/// A fleet of `n` tenants with varied demand shapes. `minutes` is kept
/// small for the big fleet: bit-identity either holds structurally or
/// breaks on the first merged float, so run length adds cost, not power.
fn fleet(n: usize, minutes: usize) -> Vec<TenantSpec<CpuIoWorkload>> {
    (0..n)
        .map(|i| {
            let demand: Vec<f64> = (0..minutes)
                .map(|m| 1.0 + ((i + m) % 5) as f64 + if m == 2 { 6.0 } else { 0.0 })
                .collect();
            TenantSpec {
                cfg: RunConfig {
                    seed: tenant_seed(0x5AAD, i as u64),
                    ..RunConfig::default()
                },
                trace: Trace::new("mix", demand),
                workload: CpuIoWorkload::new(CpuIoConfig::small()),
            }
        })
        .collect()
}

fn run_full(tenants: &[TenantSpec<CpuIoWorkload>], runner: FleetRunner) -> FleetReport {
    runner.run_fleet(tenants, |_, t| {
        Box::new(AutoPolicy::with_knobs(t.cfg.knobs)) as Box<dyn ScalingPolicy>
    })
}

fn run_summary(
    tenants: &[TenantSpec<CpuIoWorkload>],
    runner: FleetRunner,
) -> (FleetSummary, VecSink) {
    let mut sink = VecSink::default();
    let summary = runner.run_fleet_summary(
        tenants,
        |_, t| Box::new(AutoPolicy::with_knobs(t.cfg.knobs)) as Box<dyn ScalingPolicy>,
        &mut sink,
    );
    (summary, sink)
}

fn assert_all_groupings_match(tenants: &[TenantSpec<CpuIoWorkload>], threads: &[usize]) {
    let n = tenants.len();
    let reference = run_full(tenants, FleetRunner::new(1));
    let reference_jsonl = reference.events_jsonl();
    let reference_metrics = reference.fleet_metrics();
    for &t in threads {
        for shards in [1usize, 3, 8, 17] {
            let runner = FleetRunner::new(t).with_shards(shards);
            let full = run_full(tenants, runner);
            assert_eq!(full, reference, "n={n} threads={t} shards={shards}");
            assert_eq!(
                full.events_jsonl(),
                reference_jsonl,
                "event stream diverged: n={n} threads={t} shards={shards}"
            );
            assert_eq!(
                full.fleet_metrics(),
                reference_metrics,
                "registry diverged: n={n} threads={t} shards={shards}"
            );

            let (summary, sink) = run_summary(tenants, runner);
            assert_eq!(
                &summary,
                reference.fleet_summary(),
                "summary diverged: n={n} threads={t} shards={shards}"
            );
            assert_eq!(
                events_jsonl(&sink.events),
                reference_jsonl,
                "streamed events diverged: n={n} threads={t} shards={shards}"
            );
        }
    }
}

#[test]
fn awkward_small_fleets_are_bit_identical_everywhere() {
    for n in [0usize, 1, 7] {
        let tenants = fleet(n, 4);
        assert_all_groupings_match(&tenants, &[1, 2, 8]);
    }
}

#[test]
fn thousand_tenant_fleet_is_bit_identical_across_groupings() {
    // 1000 tenants, 1-minute traces: big enough that every shard grouping
    // in the matrix is exercised with uneven tails (1000 % 3, % 8, % 17
    // are all non-zero), short enough for debug-mode CI.
    let tenants = fleet(1000, 1);
    let reference = run_full(&tenants, FleetRunner::new(1));
    let reference_jsonl = reference.events_jsonl();
    for (threads, shards) in [(2usize, 3usize), (8, 8), (8, 17)] {
        let runner = FleetRunner::new(threads).with_shards(shards);
        let full = run_full(&tenants, runner);
        assert_eq!(full, reference, "threads={threads} shards={shards}");
        assert_eq!(full.events_jsonl(), reference_jsonl);

        let (summary, sink) = run_summary(&tenants, runner);
        assert_eq!(&summary, reference.fleet_summary());
        assert_eq!(events_jsonl(&sink.events), reference_jsonl);
        assert_eq!(summary.events_emitted, sink.events.len() as u64);
    }
}

#[test]
fn summary_aggregates_match_full_mode_arithmetic() {
    let tenants = fleet(7, 4);
    let full = run_full(&tenants, FleetRunner::new(2));
    let s = full.fleet_summary();
    assert_eq!(s.tenants, 7);
    assert_eq!(
        s.intervals_total,
        full.reports
            .iter()
            .map(|r| r.intervals.len() as u64)
            .sum::<u64>()
    );
    assert_eq!(
        s.completed_total,
        full.reports
            .iter()
            .map(|r| r.completed_total())
            .sum::<u64>()
    );
    assert_eq!(
        s.latency.total() as usize,
        full.reports
            .iter()
            .map(|r| r.all_latencies_ms.len())
            .sum::<usize>()
    );
    // The histogram p95 estimate brackets the exact pooled p95 to within
    // its bucket resolution.
    let exact = full.p95_ms().expect("fleet saw traffic");
    let est = s.p95_estimate_ms().expect("histogram saw traffic");
    let bounds = dasr_core::REQUEST_LATENCY_BOUNDS;
    let bucket = bounds.iter().position(|&b| exact <= b);
    match bucket {
        Some(i) => {
            let lower = if i == 0 { 0.0 } else { bounds[i - 1] };
            assert!(
                est >= lower && est <= bounds[i],
                "estimate {est} outside bucket [{lower}, {}] holding exact {exact}",
                bounds[i]
            );
        }
        None => assert_eq!(est, *bounds.last().expect("bounds non-empty")),
    }
}
