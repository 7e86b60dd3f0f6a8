//! The closed loop, simulated and replayed.
//!
//! `ClosedLoop` is a driver over `Controller::step`, generic over
//! `TelemetrySource`/`ResizeActuator` with the engine plugged in as
//! `SimulatorSource`. This bench times one 60-minute Auto run through it,
//! and a replay of the same run from its recording, which skips the
//! simulator entirely and so shows the loop-plus-telemetry floor.
//!
//! An ungated diagnostic: end-to-end speed is judged by `e2e compare`.
//! With `DASR_BENCH_JSON` set, the vendored criterion shim appends one
//! `{"bench": …, "ns_per_iter": …}` line per benchmark.

use criterion::{black_box, Criterion};
use dasr_core::{record_run, replay, AutoPolicy, ClosedLoop, RunConfig, TenantKnobs};
use dasr_telemetry::LatencyGoal;
use dasr_workloads::{CpuIoConfig, CpuIoWorkload, Trace};

/// Minutes per loop run. Long enough that per-run setup (engine, policy)
/// amortizes out and per-interval work dominates; `engine_1000_requests_mixed`-style arrival volume per
/// interval comes from the trace's ~17 rps.
const MINUTES: usize = 60;

fn cfg() -> RunConfig {
    RunConfig {
        knobs: TenantKnobs::none()
            .with_budget(60.0 * MINUTES as f64)
            .with_latency_goal(LatencyGoal::P95(150.0)),
        seed: 0x10_0F,
        prewarm_pages: 2_000,
        ..RunConfig::default()
    }
}

fn trace() -> Trace {
    let demand: Vec<f64> = (0..MINUTES)
        .map(|m| 10.0 + (m % 5) as f64 * 4.0 + if m % 11 == 6 { 15.0 } else { 0.0 })
        .collect();
    Trace::new("loop-bench", demand)
}

fn workload() -> CpuIoWorkload {
    CpuIoWorkload::new(CpuIoConfig::small())
}

fn bench_loop(c: &mut Criterion) {
    let cfg = cfg();
    let trace = trace();

    // The generic loop over SimulatorSource.
    c.bench_function("loop_seam_60min", |b| {
        b.iter(|| {
            let mut policy = AutoPolicy::with_knobs(cfg.knobs);
            let report = ClosedLoop::run(&cfg, &trace, workload(), &mut policy);
            black_box(report.resizes)
        })
    });

    // Replay floor: the loop + telemetry manager over a recorded run,
    // no simulation.
    let mut rec_policy = AutoPolicy::with_knobs(cfg.knobs);
    let (_, recording) = record_run(&cfg, &trace, workload(), &mut rec_policy);
    c.bench_function("loop_replay_60min", |b| {
        b.iter(|| {
            let mut policy = AutoPolicy::with_knobs(cfg.knobs);
            let report = replay(&cfg, recording.clone(), &mut policy);
            black_box(report.resizes)
        })
    });
}

fn main() {
    let mut c = Criterion::default();
    bench_loop(&mut c);
    let ns = |needle: &str| {
        c.measurements()
            .iter()
            .find(|m| m.id.contains(needle))
            .map(|m| m.ns_per_iter)
    };
    if let (Some(seam), Some(rep)) = (ns("loop_seam"), ns("loop_replay")) {
        if seam > 0.0 {
            println!(
                "replay runs the recorded loop at {:.1}% of the simulated cost",
                rep / seam * 100.0
            );
        }
    }
    c.emit_json();
}
