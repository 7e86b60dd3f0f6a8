//! Criterion micro-benchmarks for the engine substrate: request throughput
//! of the discrete-event simulator.
//!
//! `engine_1000_requests_mixed` is the headline fast-path number (tracked
//! in `BENCH_engine.json` by CI); `engine_oracle_1000_requests_mixed` runs
//! the identical workload through the preserved pre-fast-path
//! [`OracleEngine`], so the pair measures the slab + arrival-lane +
//! allocation-free-dispatch speedup directly — but both of those construct
//! and prewarm their engine inside the timed closure, a cost the two share
//! and that is as large as the rest of the iteration, so that pair mostly
//! measures the shared prewarm. The `engine_day_stream_*` /
//! `engine_oracle_day_stream_*` pairs are the structure-vs-structure
//! number: one engine built and prewarmed *outside* the closure, then fed
//! the way `SimulatorSource` feeds it over a day — one-minute arrival
//! batches, `run_until`, `end_interval`. The oracle shares the buffer pool
//! and the lock table, so these pairs do not measure those two; the pool
//! was measured end to end instead (EXPERIMENTS.md, "Engine request
//! path"). `engine_day_stream_cpuio_default` is the shape the e2e
//! benchmark runs — `CpuIoConfig::default()` prewarmed to its 393 k-page
//! hot set — where the `small()` streams' ≤ 4 096-page hot sets fit in
//! cache and hide the pool's cost. The lock-contention and
//! resize-churn groups stress the two paths the mixed workload exercises
//! least: waiter hand-off chains and capacity churn with eviction
//! writeback. `engine_fleet_16_tenants` is the closed-loop wall-time view
//! (engine + telemetry + policy per minute) on one thread.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dasr_containers::ResourceVector;
use dasr_core::{tenant_seed, AutoPolicy, FleetRunner, RunConfig, ScalingPolicy, TenantSpec};
use dasr_engine::request::RequestBuilder;
use dasr_engine::{Engine, EngineConfig, OracleEngine, RequestSpec, SimTime};
use dasr_workloads::{
    CpuIoConfig, CpuIoWorkload, TpccConfig, TpccWorkload, Trace, TraceDriver, Workload,
};

/// Submits the headline mixed workload (locks + CPU + reads + dirty
/// writes + log appends) into either engine via the `submit` closure.
macro_rules! mixed_workload {
    ($e:ident) => {
        for i in 0..1_000u64 {
            $e.submit_at(
                SimTime::from_micros(i * 500),
                RequestBuilder::new()
                    .lock((i % 16) as u32, i % 4 == 0)
                    .cpu(2_000)
                    .read(i % 150_000)
                    .write((i * 7) % 150_000)
                    .log(1_024)
                    .build(),
            );
        }
    };
}

fn bench_engine(c: &mut Criterion) {
    let container = ResourceVector::new(4.0, 4_096.0, 800.0, 40.0);

    c.bench_function("engine_1000_requests_mixed", |b| {
        b.iter(|| {
            let mut e = Engine::new(EngineConfig::default(), container);
            e.prewarm(100_000);
            mixed_workload!(e);
            e.run_until(SimTime::from_secs(30));
            black_box(e.end_interval())
        })
    });

    c.bench_function("engine_oracle_1000_requests_mixed", |b| {
        b.iter(|| {
            let mut e = OracleEngine::new(EngineConfig::default(), container);
            e.prewarm(100_000);
            mixed_workload!(e);
            e.run_until(SimTime::from_secs(30));
            black_box(e.end_interval())
        })
    });

    c.bench_function("engine_resize_under_load", |b| {
        b.iter(|| {
            let mut e = Engine::new(
                EngineConfig::default(),
                ResourceVector::new(1.0, 1_024.0, 100.0, 5.0),
            );
            for i in 0..200u64 {
                e.submit_at(
                    SimTime::from_micros(i * 100),
                    RequestBuilder::new().cpu(10_000).build(),
                );
            }
            e.run_until(SimTime::from_millis(50));
            e.apply_resources(ResourceVector::new(8.0, 8_192.0, 1_600.0, 80.0));
            e.run_until(SimTime::from_secs(10));
            black_box(e.end_interval())
        })
    });
}

/// Minutes streamed per `engine_day_stream_*` iteration.
const STREAM_MINUTES: usize = 60;
const MINUTE_US: u64 = 60_000_000;

/// `STREAM_MINUTES` one-minute arrival batches at a flat `rps`, times
/// relative to the start of their minute — generated once, outside the
/// timed closure, so the pair times the engines and not the generator.
fn minute_batches<W: Workload>(workload: W, rps: f64) -> Vec<Vec<(u64, RequestSpec)>> {
    let mut driver = TraceDriver::new(
        Trace::new("flat", vec![rps; STREAM_MINUTES]),
        workload,
        0xDA75,
    );
    (0..STREAM_MINUTES)
        .map(|m| {
            driver
                .arrivals_for_minute(m)
                .into_iter()
                .map(|(at, spec)| (at.as_micros() % MINUTE_US, spec))
                .collect()
        })
        .collect()
}

/// Streams the batches into one long-lived engine of type `$engine`,
/// prewarmed with `$prewarm` pages: every iteration is the next
/// `STREAM_MINUTES` simulated minutes of the same run, exactly the
/// per-interval call sequence of `SimulatorSource::observe_interval`.
macro_rules! day_stream {
    ($c:ident, $id:expr, $engine:ty, $batches:expr, $prewarm:expr) => {
        $c.bench_function($id, |b| {
            let batches = $batches;
            let mut e = <$engine>::new(
                EngineConfig::default(),
                ResourceVector::new(4.0, 4_096.0, 800.0, 40.0),
            );
            e.prewarm($prewarm);
            let mut minute = 0u64;
            b.iter(|| {
                let mut completed = 0;
                for batch in batches {
                    for (offset_us, spec) in batch {
                        e.submit_at(
                            SimTime::from_micros(minute * MINUTE_US + offset_us),
                            spec.clone(),
                        );
                    }
                    minute += 1;
                    e.run_until(SimTime::from_mins(minute));
                    completed += e.end_interval().completed;
                }
                black_box(completed)
            })
        });
    };
}

fn bench_day_stream(c: &mut Criterion) {
    let cpuio = minute_batches(CpuIoWorkload::new(CpuIoConfig::small()), 5.6);
    let tpcc = minute_batches(TpccWorkload::new(TpccConfig::small()), 50.0);
    for (name, batches) in [("cpuio_5.6rps", &cpuio), ("tpcc_50rps", &tpcc)] {
        let requests: usize = batches.iter().map(Vec::len).sum();
        println!("engine_day_stream_{name}: {requests} requests per iteration");
        day_stream!(
            c,
            format!("engine_day_stream_{name}"),
            Engine,
            batches,
            100_000
        );
        day_stream!(
            c,
            format!("engine_oracle_day_stream_{name}"),
            OracleEngine,
            batches,
            100_000
        );
    }
    // The e2e shape: the default working set, prewarmed, at 20 rps
    // (about one demanded core of this 4-core container).
    let workload = CpuIoWorkload::new(CpuIoConfig::default());
    let hot = workload.hot_pages();
    let default = minute_batches(workload, 20.0);
    let requests: usize = default.iter().map(Vec::len).sum();
    println!("engine_day_stream_cpuio_default: {requests} requests per iteration");
    day_stream!(c, "engine_day_stream_cpuio_default", Engine, &default, hot);
    day_stream!(
        c,
        "engine_oracle_day_stream_cpuio_default",
        OracleEngine,
        &default,
        hot
    );
}

/// Long waiter chains on a handful of hot locks: almost every request
/// blocks, so the run is dominated by lock grant hand-off and waiter
/// resumption (the `release`/`release_all` scratch path).
fn bench_lock_contention(c: &mut Criterion) {
    c.bench_function("engine_lock_contention_heavy", |b| {
        b.iter(|| {
            let mut e = Engine::new(
                EngineConfig::default(),
                ResourceVector::new(8.0, 1_024.0, 800.0, 40.0),
            );
            for i in 0..800u64 {
                e.submit_at(
                    SimTime::from_micros(i * 50),
                    RequestBuilder::new()
                        .lock((i % 4) as u32, true)
                        .cpu(300)
                        .lock(4 + (i % 2) as u32, i % 8 != 0)
                        .think(200)
                        .build(),
                );
            }
            e.run_until(SimTime::from_secs(30));
            black_box(e.end_interval())
        })
    });
}

/// Capacity churn: a resize every simulated 250 ms (alternating shrink and
/// grow) while a read/write stream keeps the pool full — stresses
/// `set_capacity` eviction, chunk release and reuse in the pool's arena,
/// and writeback coalescing.
fn bench_resize_churn(c: &mut Criterion) {
    c.bench_function("engine_resize_churn", |b| {
        b.iter(|| {
            let big = ResourceVector::new(4.0, 1_024.0, 800.0, 40.0);
            let small = ResourceVector::new(2.0, 128.0, 400.0, 20.0);
            let mut e = Engine::new(EngineConfig::default(), big);
            e.prewarm(50_000);
            for i in 0..600u64 {
                e.submit_at(
                    SimTime::from_micros(i * 800),
                    RequestBuilder::new()
                        .cpu(500)
                        .write(i % 40_000)
                        .read((i * 13) % 40_000)
                        .build(),
                );
            }
            for step in 0..8u64 {
                e.run_until(SimTime::from_millis(250 * (step + 1)));
                e.apply_resources(if step % 2 == 0 { small } else { big });
            }
            e.run_until(SimTime::from_secs(20));
            black_box(e.end_interval())
        })
    });
}

/// Fleet wall time: 16 tenants × 10 minutes of the full closed loop
/// (engine + telemetry + auto-policy) on one thread — the end-to-end view
/// of what the engine fast path buys a fleet experiment.
fn bench_fleet(c: &mut Criterion) {
    let tenants: Vec<TenantSpec<CpuIoWorkload>> = (0..16)
        .map(|i| TenantSpec {
            cfg: RunConfig {
                seed: tenant_seed(0xBE7C, i as u64),
                ..RunConfig::default()
            },
            trace: Trace::new(
                "bench",
                (0..10).map(|m| 4.0 + ((i + m) % 6) as f64 * 2.5).collect(),
            ),
            workload: CpuIoWorkload::new(CpuIoConfig::small()),
        })
        .collect();
    c.bench_function("engine_fleet_16_tenants_10min", |b| {
        b.iter(|| {
            let report = FleetRunner::new(1).run_fleet(&tenants, |_, t| {
                Box::new(AutoPolicy::with_knobs(t.cfg.knobs)) as Box<dyn ScalingPolicy>
            });
            black_box(report.completed_total())
        })
    });
}

criterion_group!(
    benches,
    bench_engine,
    bench_day_stream,
    bench_lock_contention,
    bench_resize_churn,
    bench_fleet
);
criterion_main!(benches);
