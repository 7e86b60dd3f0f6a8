//! Fleet scale ceiling: can the scheduler run a 100k-tenant fleet, and is
//! summary mode's memory really O(shards) rather than O(tenants)?
//!
//! Two passes over the same fleet, summary mode FIRST (peak RSS is a
//! monotone high-water mark, so the cheap mode must be measured before the
//! expensive one can raise the floor):
//!
//! 1. `run_fleet_summary` with a `NullSink` — per-tenant reports are
//!    folded and dropped inside the workers; only the O(shards)
//!    accumulators stay live.
//! 2. `run_fleet` (full mode) — every `RunReport` kept, the O(tenants)
//!    baseline the summary mode is measured against. Its kept event
//!    streams cross-check the summary's `events_emitted`.
//!
//! Peak RSS (VmHWM on Linux) is reported after each pass; the full pass
//! should dominate the high-water mark by a wide margin. `--test` runs a
//! few hundred tenants (CI smoke); the default is 20k; `DASR_FULL` runs
//! the eponymous 100k. Set `DASR_BENCH_JSON` to append result lines.

use dasr_core::policy::{AutoPolicy, ScalingPolicy};
use dasr_core::{tenant_seed, FleetRunner, NullSink, RunConfig, TenantKnobs, TenantSpec};
use dasr_telemetry::LatencyGoal;
use dasr_workloads::{CpuIoConfig, CpuIoWorkload, Trace};
use std::io::Write as _;
use std::time::Instant;

/// Peak resident set size (VmHWM), in MiB, from /proc/self/status.
/// `None` off Linux — the bench still runs, it just can't report memory.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn build_fleet(tenants: usize) -> Vec<TenantSpec<CpuIoWorkload>> {
    (0..tenants)
        .map(|i| {
            let knobs = TenantKnobs::none().with_latency_goal(LatencyGoal::P95(200.0));
            let rps = 2.0 + (i % 5) as f64 * 2.0;
            TenantSpec {
                cfg: RunConfig {
                    knobs,
                    seed: tenant_seed(0x100_000, i as u64),
                    ..RunConfig::default()
                },
                trace: Trace::new("fleet", vec![rps]),
                workload: CpuIoWorkload::new(CpuIoConfig::small()),
            }
        })
        .collect()
}

fn emit_json(lines: &[(String, f64)]) {
    let Ok(path) = std::env::var("DASR_BENCH_JSON") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let Ok(mut file) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    else {
        return;
    };
    for (bench, secs) in lines {
        let _ = writeln!(
            file,
            "{{\"bench\":\"{bench}\",\"ns_per_iter\":{:.1},\"iters\":1}}",
            secs * 1.0e9
        );
    }
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let tenants_n = if test_mode {
        256
    } else if std::env::var("DASR_FULL").is_ok() {
        100_000
    } else {
        20_000
    };
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let runner = FleetRunner::new(threads);
    println!(
        "=== fleet_100k_tenants: {tenants_n} tenants x 1 interval, {threads} threads, {} shards ===",
        runner.shard_count(tenants_n)
    );
    let tenants = build_fleet(tenants_n);
    let baseline_mib = peak_rss_mib();

    let start = Instant::now();
    let summary = runner.run_fleet_summary(
        &tenants,
        |_, t| Box::new(AutoPolicy::with_knobs(t.cfg.knobs)) as Box<dyn ScalingPolicy>,
        &mut NullSink,
    );
    let summary_secs = start.elapsed().as_secs_f64();
    let summary_mib = peak_rss_mib();
    assert_eq!(summary.tenants, tenants_n as u64);

    let start = Instant::now();
    let full = runner.run_fleet(&tenants, |_, t| {
        Box::new(AutoPolicy::with_knobs(t.cfg.knobs)) as Box<dyn ScalingPolicy>
    });
    let full_secs = start.elapsed().as_secs_f64();
    let full_mib = peak_rss_mib();
    assert_eq!(
        full.fleet_summary(),
        &summary,
        "full-mode fold diverged from the streamed summary"
    );
    let kept_events: usize = full.reports.iter().map(|r| r.obs.events.len()).sum();
    assert_eq!(summary.events_emitted, kept_events as u64);

    let fmt_mib = |m: Option<f64>| m.map_or_else(|| "n/a".into(), |v| format!("{v:.0} MiB"));
    println!(
        "  fleet specs resident:          peak RSS {}",
        fmt_mib(baseline_mib)
    );
    println!(
        "  summary mode: {summary_secs:>7.2} s   peak RSS {}",
        fmt_mib(summary_mib)
    );
    println!(
        "  full mode:    {full_secs:>7.2} s   peak RSS {}",
        fmt_mib(full_mib)
    );
    if let (Some(base), Some(s), Some(f)) = (baseline_mib, summary_mib, full_mib) {
        println!(
            "  run overhead over specs: summary +{:.0} MiB, full +{:.0} MiB",
            s - base,
            f - base
        );
    }
    println!("  {}", summary.summary());

    emit_json(&[
        (
            format!("fleet_100k_tenants/summary_{tenants_n}t_{threads}thr"),
            summary_secs,
        ),
        (
            format!("fleet_100k_tenants/full_{tenants_n}t_{threads}thr"),
            full_secs,
        ),
    ]);
    if test_mode {
        println!("test fleet_100k_tenants ... ok");
    }
}
