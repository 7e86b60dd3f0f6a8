//! Record a 64-tenant fleet run into a run store, load the recordings
//! back, and replay them through two policies — the paper's Auto policy (same as the recording,
//! an exactness check) and the Util threshold baseline (a counterfactual
//! A/B) — and print the decision-trace diff summary.
//!
//! ```text
//! cargo run --release --example replay
//! ```
//!
//! The replayed telemetry is *frozen*: it reflects the containers the
//! recording policy chose, so the A/B answers "what would Util have
//! decided given the signals Auto's run produced" (offline policy
//! evaluation), not a re-simulation.

use dasr::core::{
    record_run, replay, tenant_seed, AutoPolicy, ReplayDiff, RunConfig, TenantKnobs, UtilPolicy,
};
use dasr::store::{RunMeta, Store};
use dasr::telemetry::LatencyGoal;
use dasr::workloads::{CpuIoConfig, CpuIoWorkload, Trace};

const TENANTS: usize = 64;
const MINUTES: usize = 30;

fn tenant_cfg(i: usize) -> RunConfig {
    RunConfig {
        knobs: TenantKnobs::none()
            .with_budget(60.0 * MINUTES as f64)
            .with_latency_goal(LatencyGoal::P95(150.0 + (i % 4) as f64 * 100.0)),
        seed: tenant_seed(0x64F1, i as u64),
        prewarm_pages: 2_000,
        ..RunConfig::default()
    }
}

fn tenant_trace(i: usize) -> Trace {
    let demand: Vec<f64> = (0..MINUTES)
        .map(|m| 5.0 + ((i + m) % 6) as f64 * 5.0 + if m % 9 == 4 { 20.0 } else { 0.0 })
        .collect();
    Trace::new("fleet-mix", demand)
}

fn main() {
    // -- 1. Record: 64 tenants under the Auto policy -> one store run --
    println!("Recording {TENANTS} tenants x {MINUTES} min under Auto…");
    let dir = std::env::temp_dir().join("dasr_fleet_recording");
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = Store::open(&dir).expect("open store");
    let run = store.begin_run(
        RunMeta::new("auto", "cpuio", "fleet-mix", 0x64F1).fleet(TENANTS as u64, MINUTES as u64),
    );
    let mut originals = Vec::with_capacity(TENANTS);
    for i in 0..TENANTS {
        let cfg = tenant_cfg(i);
        let mut policy = AutoPolicy::with_knobs(cfg.knobs);
        let (report, mut recording) = record_run(
            &cfg,
            &tenant_trace(i),
            CpuIoWorkload::new(CpuIoConfig::small()),
            &mut policy,
        );
        recording.stamp_tenant(i as u64);
        store.append_recording(run, &recording).expect("archive");
        originals.push(report);
    }
    let committed = store.end_run(run).expect("commit");
    let stats = store.stats().expect("stats");
    println!(
        "wrote {} ({} samples, {:.1} KiB)",
        dir.display(),
        committed.samples,
        stats.bytes as f64 / 1024.0
    );
    store.close().expect("close");

    // -- 2. Reopen the store, load the recordings back and replay --
    let store = Store::open(&dir).expect("reopen store");
    let recordings: Vec<_> = (0..TENANTS)
        .map(|i| store.load_recording(run, Some(i as u64)).expect("load"))
        .collect();
    store.close().expect("close");

    // 2a. Same policy: every decision must reproduce exactly.
    let mut exact = 0usize;
    for (i, recording) in recordings.iter().enumerate() {
        let cfg = tenant_cfg(i);
        let mut policy = AutoPolicy::with_knobs(cfg.knobs);
        let replayed = replay(&cfg, recording.clone(), &mut policy);
        if ReplayDiff::between(&originals[i], &replayed).identical() {
            exact += 1;
        }
    }
    println!("\n-- Replay fidelity (Auto vs its own recording) --");
    println!("{exact}/{TENANTS} tenants reproduce their decision trace exactly");

    // 2b. Counterfactual A/B: Util over Auto's recorded signals.
    println!("\n-- Counterfactual A/B: Util replayed over Auto's recording --");
    let mut divergent_intervals = 0usize;
    let mut total_intervals = 0usize;
    let mut diverging_tenants = 0usize;
    let mut resizes_auto = 0u64;
    let mut resizes_util = 0u64;
    let mut sample_diffs: Vec<(usize, ReplayDiff)> = Vec::new();
    for (i, recording) in recordings.iter().enumerate() {
        let cfg = tenant_cfg(i);
        let mut util = UtilPolicy::new();
        let counterfactual = replay(&cfg, recording.clone(), &mut util);
        let diff = ReplayDiff::between(&originals[i], &counterfactual);
        total_intervals += diff.intervals;
        divergent_intervals += diff.divergent_targets;
        resizes_auto += diff.resizes_a;
        resizes_util += counterfactual.resizes;
        if !diff.identical() {
            diverging_tenants += 1;
            if sample_diffs.len() < 4 {
                sample_diffs.push((i, diff));
            }
        }
    }
    println!(
        "{diverging_tenants}/{TENANTS} tenants diverge on {divergent_intervals}/{total_intervals} \
         interval decisions"
    );
    println!("resizes: Auto {resizes_auto} (recorded) vs Util {resizes_util} (would-have)");
    for (i, diff) in &sample_diffs {
        println!("  tenant {i:>2}: {diff}");
    }
    println!(
        "\nNote: replayed signals are counterfactual — they were produced under Auto's \
         resizes, so Util's tally is an offline estimate, not a simulation."
    );
}
