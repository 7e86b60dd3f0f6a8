//! Per-interval signal computation on one `dasr_fleet`-synthesised
//! tenant-day: the full `TelemetryManager::observe`, and the trend and
//! correlation kernels under it as a batch-vs-sliding pair over the same
//! nine series (4 utilisation, 4 wait-per-request, latency; trend window
//! 10, correlation window 15).
//!
//! The input is drawn the way the end-to-end benchmark's `control_replay`
//! pool is — a population tenant's demand against the container covering
//! its median, `WaitModel` waits, 2 % contaminated samples — because a
//! periodic, tie-heavy generator (the `i % 17` ramp this bench used to
//! feed) lets the sign test accept and the sorts short-cut far more often
//! than telemetry does. Ungated diagnostic; the claim is the end-to-end
//! `control_replay` row.

use criterion::{black_box, Criterion};
use dasr_containers::{Catalog, ResourceKind, RESOURCE_KINDS};
use dasr_engine::{WaitClass, WAIT_CLASSES};
use dasr_fleet::{TenantPopulation, WaitModel};
use dasr_stats::{
    spearman_in, SlidingRanks, SlidingTheilSen, SpearmanScratch, TheilSen, TrendScratch,
};
use dasr_telemetry::signals::wait_class_for;
use dasr_telemetry::{
    LatencyGoal, TelemetryConfig, TelemetryManager, TelemetrySample, CORR_WINDOW, TREND_WINDOW,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MINUTES: usize = 1440;

/// One tenant-day of samples (tenant 5 of population seed 2: a bursty
/// tenant whose peaks saturate the container).
fn tenant_day() -> Vec<TelemetrySample> {
    let tenant = 5;
    let population = TenantPopulation::generate_with_len(tenant + 1, MINUTES / 5, 2);
    let demand = &population.tenants[tenant].intervals;
    let mut rng = StdRng::seed_from_u64(0x9001);
    let mut models = RESOURCE_KINDS.map(|kind| WaitModel::new(kind, 0x9001));
    let mut by_cpu = demand.clone();
    by_cpu.sort_by(|a, b| a.cpu_cores.total_cmp(&b.cpu_cores));
    let catalog = Catalog::azure_like();
    let nominal = catalog
        .assign_for_utilization(&by_cpu[by_cpu.len() / 2])
        .resources;
    (0..MINUTES)
        .map(|m| {
            let demand = &demand[m / 5];
            let mut util_pct = [0.0; RESOURCE_KINDS.len()];
            let mut wait_ms = [0.0; WAIT_CLASSES.len()];
            for kind in RESOURCE_KINDS {
                let util = demand[kind] / nominal[kind] * 100.0 * rng.gen_range(0.9..1.1);
                util_pct[kind.index()] = util.min(100.0);
                wait_ms[wait_class_for(kind).index()] =
                    models[kind.index()].sample_at(util.min(100.0)).wait_ms;
            }
            wait_ms[WaitClass::Lock.index()] = rng.gen_range(0.0..5.0);
            let hottest = util_pct.iter().copied().fold(0.0, f64::max);
            let pressure = ((hottest - 60.0) / 40.0).max(0.0);
            let mut latency = 40.0 * (1.0 + 6.0 * pressure * pressure) * rng.gen_range(0.8..1.25);
            if rng.gen_bool(0.02) {
                let spike = rng.gen_range(10.0..50.0);
                latency *= spike;
                wait_ms.iter_mut().for_each(|w| *w *= spike);
            }
            let requests = (demand.cpu_cores * 180.0).round().max(1.0) as u64;
            TelemetrySample {
                interval: m as u64,
                util_pct,
                wait_ms,
                latency_ms: Some(latency),
                avg_latency_ms: Some(latency * 0.6),
                completed: requests,
                arrivals: requests,
                rejected: 0,
                mem_used_mb: demand.memory_mb.min(nominal.memory_mb),
                mem_capacity_mb: nominal.memory_mb,
                disk_reads_per_sec: demand[ResourceKind::DiskIo] * 0.5,
            }
        })
        .collect()
}

/// The nine series the trend and correlation signals read, latency last,
/// each laid out twice over so that the window ending at day-minute `m` is
/// the contiguous slice ending at `MINUTES + m` on every lap.
fn series_of(day: &[TelemetrySample]) -> Vec<Vec<f64>> {
    let mut series: Vec<Vec<f64>> = Vec::new();
    for kind in RESOURCE_KINDS {
        series.push(day.iter().map(|s| s.util(kind)).collect());
    }
    for kind in RESOURCE_KINDS {
        let class = wait_class_for(kind);
        series.push(
            day.iter()
                .map(|s| s.wait(class) / s.completed as f64)
                .collect(),
        );
    }
    series.push(day.iter().filter_map(|s| s.latency_ms).collect());
    for s in &mut series {
        s.extend_from_within(..);
    }
    series
}

fn bench_signals(c: &mut Criterion) {
    let day = tenant_day();
    let series = series_of(&day);
    let estimator = TheilSen::new();
    let mut group = c.benchmark_group("signals");

    group.bench_function("observe_fleet_day", |b| {
        let mut tm = TelemetryManager::new(TelemetryConfig {
            latency_goal: Some(LatencyGoal::P95(100.0)),
            ..TelemetryConfig::default()
        });
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % MINUTES;
            black_box(tm.observe(day[i]))
        })
    });

    group.bench_function("kernels_batch_fleet_day", |b| {
        let (mut trend, mut ranks) = (TrendScratch::default(), SpearmanScratch::default());
        let mut m = 0;
        b.iter(|| {
            m = (m + 1) % MINUTES;
            let end = MINUTES + m + 1;
            let latency = &series[8][end - CORR_WINDOW..end];
            let mut acc = 0.0;
            for (k, s) in series.iter().enumerate() {
                let t = estimator.trend_indexed_in(&s[end - TREND_WINDOW..end], &mut trend);
                acc += t.slope();
                if k < 8 {
                    let rho = spearman_in(latency, &s[end - CORR_WINDOW..end], &mut ranks);
                    acc += rho.unwrap_or(0.0);
                }
            }
            black_box(acc)
        })
    });

    group.bench_function("kernels_sliding_fleet_day", |b| {
        let (mut trend, mut scratch) = (TrendScratch::default(), SpearmanScratch::default());
        let mut trends = vec![SlidingTheilSen::new(estimator, TREND_WINDOW); series.len()];
        let mut ranks = vec![SlidingRanks::new(CORR_WINDOW); series.len()];
        let mut m = 0;
        b.iter(|| {
            m = (m + 1) % MINUTES;
            let mut acc = 0.0;
            for (k, s) in series.iter().enumerate() {
                trends[k].push(s[m]);
                ranks[k].push(s[m]);
                acc += trends[k].trend_in(&mut trend).slope();
            }
            let (others, latency) = ranks.split_at(8);
            for r in others {
                acc += latency[0].spearman_in(r, &mut scratch).unwrap_or(0.0);
            }
            black_box(acc)
        })
    });

    group.finish();
}

fn main() {
    let mut c = Criterion::default();
    bench_signals(&mut c);
    let ns = |needle: &str| {
        c.measurements()
            .iter()
            .find(|m| m.id.contains(needle))
            .map(|m| m.ns_per_iter)
    };
    if let (Some(batch), Some(sliding)) = (ns("kernels_batch"), ns("kernels_sliding")) {
        if sliding > 0.0 {
            println!(
                "trend + correlation kernels: {:.2}x (batch {batch:.0} ns → sliding {sliding:.0} ns per interval)",
                batch / sliding
            );
        }
    }
    c.emit_json();
}
