//! Decision traces carry structure, not strings, and the human-rendered
//! explanations for one seeded tenant trajectory are pinned to a golden
//! file.
//!
//! Regenerate the golden file after an *intentional* wording change with:
//!
//! ```text
//! DASR_BLESS=1 cargo test -p dasr-core --test trace_roundtrip
//! ```

use dasr_core::policy::AutoPolicy;
use dasr_core::runner::ClosedLoop;
use dasr_core::{RunConfig, RunReport, TenantKnobs};
use dasr_telemetry::LatencyGoal;
use dasr_workloads::{CpuIoConfig, CpuIoWorkload, Trace, Workload};

const GOLDEN: &str = include_str!("golden/burst_explanations.txt");

/// One seeded tenant over a burst trace: idle → 8× surge → idle, enough to
/// exercise scale-up, cooldown holds, and scale-down in a single run.
fn seeded_burst_run() -> RunReport {
    let workload = CpuIoWorkload::new(CpuIoConfig::small());
    let mut rps = vec![4.0; 36];
    for slot in rps.iter_mut().take(24).skip(12) {
        *slot = 120.0;
    }
    let trace = Trace::new("burst", rps);
    let knobs = TenantKnobs::none().with_latency_goal(LatencyGoal::P95(100.0));
    let cfg = RunConfig {
        knobs,
        prewarm_pages: workload.hot_pages(),
        seed: 0xB0B5,
        ..RunConfig::default()
    };
    let mut policy = AutoPolicy::with_knobs(knobs);
    ClosedLoop::run(&cfg, &trace, workload, &mut policy)
}

#[test]
fn traces_carry_structure_not_strings() {
    let report = seeded_burst_run();
    // Every interval fires exactly one arbitration branch and evaluates the
    // §6 table in declared order up to it.
    for rec in &report.intervals {
        assert!(
            !rec.trace.arbitration.is_empty(),
            "minute {}: arbitration rules must be recorded",
            rec.minute
        );
        assert_eq!(
            rec.trace.arbitration.last(),
            Some(rec.trace.branch),
            "minute {}: the fired branch ends the evaluated list",
            rec.minute
        );
        // Demanded vs granted: a granted step never exceeds demand on the
        // way up without a gate explaining it (emergency/latency paths can
        // move without per-resource demand, but plain demand moves match).
        assert_eq!(rec.trace.demanded.len(), rec.trace.granted.len());
    }
    // The burst must produce at least one scale-up with a fired §4 rule
    // attached in structured form.
    let up = report
        .intervals
        .iter()
        .find(|r| r.trace.granted.iter().any(|&g| g > 0))
        .expect("burst run must scale up at least once");
    assert!(
        up.trace
            .resources
            .iter()
            .any(|r| r.fired.is_some() && r.fired.unwrap().step > 0),
        "scale-up interval must carry the fired high-demand rule"
    );
}

#[test]
fn burst_explanations_match_golden() {
    let report = seeded_burst_run();
    let mut rendered = String::new();
    for rec in &report.intervals {
        rendered.push_str(&format!(
            "m{:02} C{} {}\n",
            rec.minute,
            rec.rung,
            rec.explanations().join(" | ")
        ));
    }
    if std::env::var("DASR_BLESS").is_ok() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/burst_explanations.txt"
        );
        std::fs::write(path, &rendered).expect("bless write");
        return;
    }
    assert_eq!(
        rendered, GOLDEN,
        "rendered explanations drifted from the golden file; \
         rerun with DASR_BLESS=1 if the change is intentional"
    );
}
