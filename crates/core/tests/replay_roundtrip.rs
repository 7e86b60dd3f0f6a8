//! Replay fidelity: record → replay through the *same* policy must
//! reproduce the decision sequence exactly.
//!
//! The loop is deterministic given its sample sequence (see
//! `dasr_core::replay` module docs), so a replayed `AutoPolicy` must fire
//! the same rules, choose the same containers and emit the identical
//! `DecisionTrace` for every interval — asserted here on the trace
//! sequence, the trace JSONL bytes and the rule-fire histogram, for a
//! budgeted Auto run and for one that probes with the §4.3 balloon. A
//! second policy replayed over the same recording exercises the
//! counterfactual path.
//!
//! These are the *in-memory* replay claims. A recording's one serialized
//! form is the run store; that a recording written to disk and read back
//! still replays byte-identically is proved by `dasr-store`'s
//! `store_replay_roundtrip.rs`.

use dasr_core::{
    record_run, replay, AutoPolicy, CounterId, ReplayDiff, RunConfig, TenantKnobs, UtilPolicy,
};
use dasr_telemetry::LatencyGoal;
use dasr_workloads::{CpuIoConfig, CpuIoWorkload, Trace};

fn workload() -> CpuIoWorkload {
    CpuIoWorkload::new(CpuIoConfig::small())
}

fn cfg() -> RunConfig {
    RunConfig {
        knobs: TenantKnobs::none()
            .with_budget(55.0 * 14.0)
            .with_latency_goal(LatencyGoal::P95(200.0)),
        seed: 0x4E9A,
        prewarm_pages: 1_500,
        ..RunConfig::default()
    }
}

fn bursty_trace(minutes: usize) -> Trace {
    let demand: Vec<f64> = (0..minutes)
        .map(|m| 8.0 + (m % 5) as f64 * 7.0 + if m % 7 == 3 { 25.0 } else { 0.0 })
        .collect();
    Trace::new("bursty", demand)
}

/// A §4.3 balloon scenario: a low, steady workload whose warm pool (≈ 2 GB)
/// is above 90 % of the next-smaller container's memory, so every memory
/// shrink must first be proved by a probe, and the recorded probe column
/// is not all `Inactive`.
fn balloon_scenario() -> (RunConfig, Trace) {
    let cfg = RunConfig {
        knobs: TenantKnobs::none().with_latency_goal(LatencyGoal::P95(5_000.0)),
        seed: 0xB411,
        prewarm_pages: 220_000,
        ..RunConfig::default()
    };
    (cfg, Trace::new("quiet", vec![4.0; 40]))
}

#[test]
fn same_policy_replay_reproduces_decision_traces_and_rule_fires() {
    let (balloon_cfg, quiet) = balloon_scenario();
    for (cfg, trace, probes) in [(cfg(), bursty_trace(14), false), (balloon_cfg, quiet, true)] {
        let mut rec_policy = AutoPolicy::with_knobs(cfg.knobs);
        let (original, recording) = record_run(&cfg, &trace, workload(), &mut rec_policy);
        if probes {
            assert!(
                original.obs.metrics.counter(CounterId::BalloonStarts) > 0,
                "the scenario actually probed"
            );
        } else {
            assert!(original.resizes > 0, "the scenario actually scaled");
        }

        let mut replay_policy = AutoPolicy::with_knobs(cfg.knobs);
        let replayed = replay(&cfg, recording, &mut replay_policy);

        let original_traces: Vec<_> = original.intervals.iter().map(|r| &r.trace).collect();
        let replayed_traces: Vec<_> = replayed.intervals.iter().map(|r| &r.trace).collect();
        assert_eq!(
            replayed_traces, original_traces,
            "DecisionTrace sequence diverged under replay"
        );
        assert_eq!(
            replayed.traces_jsonl(),
            original.traces_jsonl(),
            "trace JSONL bytes diverged under replay"
        );
        assert_eq!(
            replayed.rule_histogram(),
            original.rule_histogram(),
            "rule-fire histogram diverged under replay"
        );
        assert_eq!(replayed.intervals, original.intervals);
        assert_eq!(replayed.resizes, original.resizes);
        assert_eq!(replayed.rejected_total, original.rejected_total);
        assert!(ReplayDiff::between(&original, &replayed).identical());
    }
}

#[test]
fn replay_is_idempotent() {
    let cfg = cfg();
    let trace = bursty_trace(10);
    let mut p0 = AutoPolicy::with_knobs(cfg.knobs);
    let (_, recording) = record_run(&cfg, &trace, workload(), &mut p0);

    let mut p1 = AutoPolicy::with_knobs(cfg.knobs);
    let first = replay(&cfg, recording.clone(), &mut p1);
    let mut p2 = AutoPolicy::with_knobs(cfg.knobs);
    let second = replay(&cfg, recording, &mut p2);
    assert_eq!(first, second, "replay of the same recording diverged");
}

#[test]
fn counterfactual_policy_ab_over_one_recording() {
    let cfg = cfg();
    let trace = bursty_trace(14);
    let mut auto = AutoPolicy::with_knobs(cfg.knobs);
    let (original, recording) = record_run(&cfg, &trace, workload(), &mut auto);

    let mut util = UtilPolicy::default();
    let counterfactual = replay(&cfg, recording, &mut util);

    let diff = ReplayDiff::between(&original, &counterfactual);
    assert_eq!(diff.intervals, original.intervals.len());
    assert_eq!(diff.resizes_a, original.resizes);
    assert_eq!(diff.resizes_b, counterfactual.resizes);
    let rendered = diff.to_string();
    assert!(rendered.contains("intervals"), "{rendered}");
}
