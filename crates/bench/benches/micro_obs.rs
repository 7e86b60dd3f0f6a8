//! Observability overhead on the per-interval hot path: the full signal
//! computation with and without the metrics registry + event derivation
//! the runner performs each interval (wall timers, `record_interval`).
//!
//! The acceptance bar is <5% overhead — the registry is fixed arrays and
//! a bounded event push, so it must stay invisible next to the §3 signal
//! pipeline it instruments. Isolated benches for `record_interval`, the
//! fleet's registry fold (`MetricsAccumulator`) and the JSONL dumps are
//! included for drill-down.
//!
//! With `DASR_BENCH_JSON` set, the vendored criterion shim appends one
//! `{"bench": …, "ns_per_iter": …}` line per benchmark — CI publishes
//! them as `BENCH_obs.json`.

use criterion::{black_box, Criterion};
use dasr_containers::{ContainerId, ResourceKind};
use dasr_core::obs::{IntervalObservation, MetricsAccumulator, RunObservability, TimerId};
use dasr_core::DecisionTrace;
use dasr_engine::WaitClass;
use dasr_telemetry::{LatencyGoal, TelemetryConfig, TelemetryManager, TelemetrySample};
use std::time::Instant;

/// Intervals processed per benchmark iteration (results are per-batch).
const INTERVALS: usize = 1_000;

fn sample(i: u64) -> TelemetrySample {
    let mut util_pct = [0.0; 4];
    util_pct[ResourceKind::Cpu.index()] = 40.0 + (i % 17) as f64;
    util_pct[ResourceKind::Memory.index()] = 85.0;
    util_pct[ResourceKind::DiskIo.index()] = 20.0 + (i % 7) as f64;
    util_pct[ResourceKind::LogIo.index()] = 5.0;
    let mut wait_ms = [0.0; 7];
    wait_ms[WaitClass::Cpu.index()] = 500.0 + (i % 13) as f64 * 100.0;
    wait_ms[WaitClass::DiskIo.index()] = 200.0;
    wait_ms[WaitClass::Lock.index()] = 100.0;
    TelemetrySample {
        interval: i,
        util_pct,
        wait_ms,
        latency_ms: Some(80.0 + (i % 11) as f64),
        avg_latency_ms: Some(60.0),
        completed: 5_000,
        arrivals: 5_000,
        rejected: 0,
        mem_used_mb: 3_000.0,
        mem_capacity_mb: 3_482.0,
        disk_reads_per_sec: 50.0,
    }
}

fn telemetry_config() -> TelemetryConfig {
    TelemetryConfig {
        latency_goal: Some(LatencyGoal::P95(100.0)),
        ..TelemetryConfig::default()
    }
}

/// Pre-generated decision traces covering the notable-event paths: every
/// 16th interval "resizes" so the event stream sees real pushes, the rest
/// hold steady (the common case).
fn traces() -> Vec<DecisionTrace> {
    let mut tm = TelemetryManager::new(telemetry_config());
    (0..INTERVALS as u64)
        .map(|i| {
            let signals = tm.observe(sample(i));
            let mut t = DecisionTrace::from_signals(&signals, ContainerId(2));
            if i % 16 == 0 {
                t.target = ContainerId(3);
            }
            t
        })
        .collect()
}

fn observation<'a>(t: &'a DecisionTrace, i: u64) -> IntervalObservation<'a> {
    IntervalObservation {
        trace: t,
        latency_ms: Some(80.0 + (i % 11) as f64),
        completed: 5_000,
        rejected: 0,
        from_rung: 2,
        to_rung: if t.target == t.from { 2 } else { 3 },
        budget_headroom_pct: Some(60.0 - (i % 50) as f64),
    }
}

fn bench_obs(c: &mut Criterion) {
    let traces = traces();

    // The per-interval hot path as the runner executes it, minus
    // observability: push a sample, compute the full §3 signal set.
    c.bench_function("interval_path_bare_1k", |b| {
        let mut tm = TelemetryManager::new(telemetry_config());
        let mut i = 0u64;
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..INTERVALS {
                i += 1;
                let signals = tm.observe(sample(i));
                acc += signals.resources[0].util_pct;
            }
            black_box(acc)
        })
    });

    // Same path plus exactly what the runner adds per interval: a wall
    // timer around the signal stage and `record_interval` (counters,
    // histograms, rule fires, derived notable events).
    c.bench_function("interval_path_instrumented_1k", |b| {
        let mut tm = TelemetryManager::new(telemetry_config());
        let mut i = 0u64;
        b.iter(|| {
            let mut obs = RunObservability::default();
            let mut acc = 0.0;
            for k in 0..INTERVALS {
                i += 1;
                let t0 = Instant::now();
                let signals = tm.observe(sample(i));
                obs.metrics
                    .observe_ns(TimerId::SignalsNs, t0.elapsed().as_nanos() as u64);
                acc += signals.resources[0].util_pct;
                obs.record_interval(observation(&traces[k], i));
            }
            black_box((acc, obs.events.len()))
        })
    });

    // Drill-downs: the recording call alone, the fleet's registry fold, the
    // JSONL dumps.
    c.bench_function("record_interval_1k", |b| {
        let mut i = 0u64;
        b.iter(|| {
            let mut obs = RunObservability::default();
            for (k, t) in traces.iter().enumerate() {
                i += 1;
                obs.record_interval(observation(t, i));
                black_box(k);
            }
            black_box(obs.events.len())
        })
    });

    c.bench_function("fleet_merge_64_tenants", |b| {
        let mut tenant = RunObservability::default();
        for (k, t) in traces.iter().enumerate() {
            tenant.record_interval(observation(t, k as u64));
        }
        b.iter(|| {
            let mut fleet = MetricsAccumulator::new();
            for _ in 0..64 {
                fleet.fold(&tenant.metrics);
            }
            black_box(
                fleet
                    .finish()
                    .counter(dasr_core::obs::CounterId::IntervalsRun),
            )
        })
    });

    c.bench_function("events_jsonl_sink", |b| {
        let mut obs = RunObservability::default();
        for (k, t) in traces.iter().enumerate() {
            obs.record_interval(observation(t, k as u64));
        }
        b.iter(|| black_box(obs.events_jsonl().len()))
    });

    c.bench_function("registry_jsonl_sink", |b| {
        let mut obs = RunObservability::default();
        for (k, t) in traces.iter().enumerate() {
            obs.record_interval(observation(t, k as u64));
        }
        b.iter(|| black_box(obs.metrics.to_jsonl().len()))
    });
}

fn main() {
    let mut c = Criterion::default();
    bench_obs(&mut c);
    let ns = |needle: &str| {
        c.measurements()
            .iter()
            .find(|m| m.id.contains(needle))
            .map(|m| m.ns_per_iter)
    };
    if let (Some(bare), Some(instr)) = (ns("bare"), ns("instrumented")) {
        if bare > 0.0 {
            let overhead = (instr - bare) / bare * 100.0;
            println!(
                "observability overhead on the per-interval hot path: {overhead:+.2}% \
                 (bare {:.0} ns → instrumented {:.0} ns per {INTERVALS}-interval batch; \
                 acceptance bar <5%)",
                bare, instr
            );
        }
    }
    c.emit_json();
}
