//! The controller's snapshot is exact: a [`Controller`] stepped to
//! interval `I`, cloned together with its policy, and stepped on to the
//! end reports exactly what an uninterrupted run over the same samples
//! reports — `RunReport` equality, decision-trace JSONL and event JSONL —
//! and so does the original, stepped on after the clone was taken.
//!
//! Two recorded scenarios, `I` drawn over `0..=n`: the Auto policy under a
//! budget and a latency goal (the budget manager and cooldown state cross
//! the cut), and the §4.3 balloon scenario (an in-flight probe crosses it).

use dasr_core::{
    record_run, replay, AutoPolicy, Controller, CounterId, RunConfig, RunRecording, RunReport,
    TenantKnobs,
};
use dasr_telemetry::LatencyGoal;
use dasr_workloads::{CpuIoConfig, CpuIoWorkload, Trace};
use proptest::prelude::*;
use std::sync::OnceLock;

const AUTO_MINUTES: usize = 16;
const BALLOON_MINUTES: usize = 40;

fn auto_cfg() -> RunConfig {
    RunConfig {
        knobs: TenantKnobs::none()
            .with_budget(60.0 * AUTO_MINUTES as f64)
            .with_latency_goal(LatencyGoal::P95(150.0)),
        seed: 0xBEEF,
        prewarm_pages: 2_000,
        ..RunConfig::default()
    }
}

/// The balloon scenario of `replay_roundtrip`: a warm pool above 90 % of
/// the next-smaller container's memory, so memory shrinks go through
/// probes.
fn balloon_cfg() -> RunConfig {
    RunConfig {
        knobs: TenantKnobs::none().with_latency_goal(LatencyGoal::P95(5_000.0)),
        seed: 0xB411,
        prewarm_pages: 220_000,
        ..RunConfig::default()
    }
}

fn record(cfg: &RunConfig, trace: Trace) -> (RunReport, RunRecording) {
    let mut policy = AutoPolicy::with_knobs(cfg.knobs);
    record_run(
        cfg,
        &trace,
        CpuIoWorkload::new(CpuIoConfig::small()),
        &mut policy,
    )
}

fn auto_recording() -> &'static RunRecording {
    static REC: OnceLock<RunRecording> = OnceLock::new();
    REC.get_or_init(|| {
        let demand = (0..AUTO_MINUTES)
            .map(|m| 10.0 + (m % 4) as f64 * 8.0 + if m == 3 { 30.0 } else { 0.0 })
            .collect();
        let (report, recording) = record(&auto_cfg(), Trace::new("wavy", demand));
        assert!(report.resizes > 0, "the scenario actually scaled");
        recording
    })
}

fn balloon_recording() -> &'static RunRecording {
    static REC: OnceLock<RunRecording> = OnceLock::new();
    REC.get_or_init(|| {
        let trace = Trace::new("quiet", vec![4.0; BALLOON_MINUTES]);
        let (report, recording) = record(&balloon_cfg(), trace);
        assert!(
            report.obs.metrics.counter(CounterId::BalloonStarts) > 0,
            "the scenario actually probed"
        );
        recording
    })
}

/// Steps `controller` over `recording` from interval `from` to the end.
fn finish_from(
    mut controller: Controller<'_>,
    policy: &mut AutoPolicy,
    recording: &RunRecording,
    from: usize,
) -> RunReport {
    for rec in &recording.records[from..] {
        controller.step(policy, rec.sample, rec.probe);
    }
    let header = &recording.header;
    controller.finish(policy, &header.workload, &header.trace, Vec::new())
}

fn assert_snapshot_exact(cfg: &RunConfig, recording: &RunRecording, at: usize) {
    let uninterrupted = replay(
        cfg,
        recording.clone(),
        &mut AutoPolicy::with_knobs(cfg.knobs),
    );

    let mut policy = AutoPolicy::with_knobs(cfg.knobs);
    let mut controller = Controller::new(cfg, recording.records.len());
    for rec in &recording.records[..at] {
        controller.step(&mut policy, rec.sample, rec.probe);
    }
    let (snapshot, mut snapshot_policy) = (controller.clone(), policy.clone());

    let original = finish_from(controller, &mut policy, recording, at);
    let restored = finish_from(snapshot, &mut snapshot_policy, recording, at);
    for (side, report) in [("restored", &restored), ("original", &original)] {
        assert_eq!(report, &uninterrupted, "{side} report diverged at I={at}");
        assert_eq!(
            report.traces_jsonl(),
            uninterrupted.traces_jsonl(),
            "{side} trace JSONL diverged at I={at}"
        );
        assert_eq!(
            report.obs.events_jsonl(),
            uninterrupted.obs.events_jsonl(),
            "{side} event JSONL diverged at I={at}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn snapshot_of_a_budgeted_auto_run_resumes_exactly(at in 0usize..=AUTO_MINUTES) {
        assert_snapshot_exact(&auto_cfg(), auto_recording(), at);
    }

    #[test]
    fn snapshot_through_balloon_probes_resumes_exactly(at in 0usize..=BALLOON_MINUTES) {
        assert_snapshot_exact(&balloon_cfg(), balloon_recording(), at);
    }
}
