//! Pins closed-loop runs to FNV-1a hashes of what they write out: the
//! decision-trace JSONL, the event JSONL, the metrics registry's JSONL
//! (wall-clock timer lines dropped, as the determinism contract excludes
//! them) and the commands the loop sent its backend, in order.
//!
//! The runs: the §6 Auto policy with a budget and a latency goal (budget
//! gate, scale-up and scale-down), the static `Max` baseline, a quiet
//! trace on the largest container (the §4.3 balloon path), a 7-tenant Auto
//! fleet that must hash alike at 1, 2 and 8 threads, a demand ramp that
//! scales up again as soon as the cooldown lets it, and a pool full of
//! cold pages that a balloon probe proves idle, committing in the same
//! step that resizes. A change to a decision, to the order a step applies
//! its commands in, or to what the loop records moves a hash.

use dasr_containers::ResourceVector;
use dasr_core::{
    tenant_seed, AutoPolicy, ClosedLoop, FleetRunner, MetricRegistry, RunConfig, RunReport,
    ScalingPolicy, SimulatorSource, StaticPolicy, TenantKnobs, TenantSpec,
};
use dasr_telemetry::{LatencyGoal, ProbeStatus, ResizeActuator, TelemetrySample, TelemetrySource};
use dasr_workloads::{CpuIoConfig, CpuIoWorkload, Trace};
use std::fmt::Write as _;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

fn metrics_hash(metrics: &MetricRegistry) -> u64 {
    let deterministic: String = metrics
        .to_jsonl()
        .lines()
        .filter(|line| !line.contains("\"type\":\"timer\""))
        .flat_map(|line| [line, "\n"])
        .collect();
    fnv1a(deterministic.as_bytes())
}

fn assert_pins<const N: usize>(name: &str, got: [u64; N], want: [u64; N]) {
    let streams = ["traces", "events", "metrics", "commands"];
    for ((stream, g), w) in streams.iter().zip(got).zip(want) {
        assert_eq!(g, w, "{name}: {stream} moved ({g:#018x})");
    }
}

/// The simulator with every command it receives written to a log, one
/// line per command, prefixed by the interval last observed.
struct Logged {
    inner: SimulatorSource<CpuIoWorkload>,
    interval: u64,
    log: String,
}

impl TelemetrySource for Logged {
    fn intervals(&self) -> usize {
        self.inner.intervals()
    }

    fn workload_name(&self) -> &str {
        self.inner.workload_name()
    }

    fn trace_name(&self) -> &str {
        self.inner.trace_name()
    }

    fn observe_interval(&mut self, interval: u64, goal: LatencyGoal) -> TelemetrySample {
        self.interval = interval;
        self.inner.observe_interval(interval, goal)
    }

    fn interval_latencies_ms(&self) -> &[f64] {
        self.inner.interval_latencies_ms()
    }

    fn probe(&self) -> ProbeStatus {
        self.inner.probe()
    }
}

impl ResizeActuator for Logged {
    fn apply_resources(&mut self, r: ResourceVector) {
        let _ = writeln!(
            self.log,
            "{} resize {} {} {} {}",
            self.interval, r.cpu_cores, r.memory_mb, r.disk_iops, r.log_mbps
        );
        self.inner.apply_resources(r);
    }

    fn start_balloon(&mut self, target_mb: f64) {
        let _ = writeln!(self.log, "{} start {target_mb}", self.interval);
        self.inner.start_balloon(target_mb);
    }

    fn abort_balloon(&mut self) {
        let _ = writeln!(self.log, "{} abort", self.interval);
        self.inner.abort_balloon();
    }

    fn commit_balloon(&mut self) {
        let _ = writeln!(self.log, "{} commit", self.interval);
        self.inner.commit_balloon();
    }
}

/// Runs `policy` over `trace` on the small CPU/IO workload, as
/// `ClosedLoop::run` does, and returns the report and its `(traces,
/// events, metrics, commands)` hashes.
fn run(cfg: &RunConfig, trace: &Trace, policy: &mut dyn ScalingPolicy) -> (RunReport, [u64; 4]) {
    let mut backend = Logged {
        inner: SimulatorSource::new(cfg, trace, workload()),
        interval: 0,
        log: String::new(),
    };
    let report = ClosedLoop::run_source(cfg, &mut backend, policy);
    let pins = [
        fnv1a(report.traces_jsonl().as_bytes()),
        fnv1a(report.obs.events_jsonl().as_bytes()),
        metrics_hash(&report.obs.metrics),
        fnv1a(backend.log.as_bytes()),
    ];
    (report, pins)
}

fn workload() -> CpuIoWorkload {
    CpuIoWorkload::new(CpuIoConfig::small())
}

/// A demand trace with a burst and a quiet tail — enough shape to move
/// the Auto policy through scale-up, budget pressure and low-demand
/// scale-down in a few minutes.
fn wavy_trace(minutes: usize, base: f64) -> Trace {
    let demand: Vec<f64> = (0..minutes)
        .map(|m| base + (m % 4) as f64 * 8.0 + if m == 3 { 30.0 } else { 0.0 })
        .collect();
    Trace::new("wavy", demand)
}

fn auto_cfg(seed: u64) -> RunConfig {
    RunConfig {
        knobs: TenantKnobs::none()
            .with_budget(60.0 * 12.0)
            .with_latency_goal(LatencyGoal::P95(150.0)),
        seed,
        prewarm_pages: 2_000,
        ..RunConfig::default()
    }
}

#[test]
fn auto_policy_run_matches_its_pinned_hashes() {
    let cfg = auto_cfg(0xBEEF);
    let mut policy = AutoPolicy::with_knobs(cfg.knobs);
    let (report, pins) = run(&cfg, &wavy_trace(12, 10.0), &mut policy);
    assert!(report.resizes > 0, "the scenario actually scales");
    assert_pins(
        "auto",
        pins,
        [
            0x2d84_633f_ab39_abe8,
            0x30bd_be6a_aa36_249c,
            0xef8a_48cd_e846_0a2c,
            0xf309_46ba_ea87_2868,
        ],
    );
}

#[test]
fn static_policy_run_matches_its_pinned_hashes() {
    let cfg = RunConfig {
        seed: 0xF00D,
        ..RunConfig::default()
    };
    let mut policy = StaticPolicy::max(&cfg.catalog);
    let (_, pins) = run(&cfg, &wavy_trace(6, 6.0), &mut policy);
    assert_pins(
        "static",
        pins,
        [
            0x7ab0_b9ce_ad72_c5da,
            0x5d36_7fe9_c660_66fb,
            0xc83d_bf7d_adaa_ac7f,
            0x9931_8ac6_3212_1b2e,
        ],
    );
}

/// A low, steady workload on the largest container: the Auto policy
/// steps down rung by rung, cancelling the probe each step would start
/// (§4.3).
#[test]
fn balloon_run_matches_its_pinned_hashes() {
    let catalog = RunConfig::default().catalog;
    let big = catalog.iter().last().expect("catalog is non-empty").id;
    let cfg = RunConfig {
        knobs: TenantKnobs::none().with_latency_goal(LatencyGoal::P95(5_000.0)),
        initial: Some(big),
        seed: 0xB411,
        prewarm_pages: 1_000,
        ..RunConfig::default()
    };
    let mut policy = AutoPolicy::with_knobs(cfg.knobs);
    let (_, pins) = run(&cfg, &Trace::new("quiet", vec![4.0; 40]), &mut policy);
    assert_pins(
        "balloon",
        pins,
        [
            0xdb2f_4bc0_98b1_b3d6,
            0x2ddb_bb95_c290_f0c9,
            0xaac4_2332_df88_ae98,
            0x0b33_7381_e4c8_c20e,
        ],
    );
}

/// Demand that outgrows each container within a minute or two, with no
/// latency goal (so no emergency bypass): each scale-up waits out exactly
/// the sensitivity cooldown.
#[test]
fn ramp_run_matches_its_pinned_hashes() {
    let cfg = RunConfig {
        seed: 0x4A3B,
        prewarm_pages: 2_000,
        ..RunConfig::default()
    };
    let ramp = (0..8).map(|m| 40.0 + 150.0 * m as f64).collect();
    let mut policy = AutoPolicy::with_knobs(cfg.knobs);
    let (report, pins) = run(&cfg, &Trace::new("ramp", ramp), &mut policy);
    let rungs: Vec<u8> = report.intervals.iter().map(|r| r.rung).collect();
    assert_eq!(
        rungs,
        [2, 1, 1, 1, 3, 3, 5, 5],
        "two cooldown-spaced scale-ups"
    );
    assert_pins(
        "ramp",
        pins,
        [
            0xb226_5b31_a4ab_4b9d,
            0x599f_d7f3_1f73_202d,
            0x7be2_f796_dfe4_7110,
            0x3974_d6be_cdad_3756,
        ],
    );
}

/// A pool holding more cold pages than the next rung's memory: memory may
/// shrink only on a probe's evidence, so the policy starts one, and in the
/// step the probe commits it resizes down a rung — twice (§4.3).
#[test]
fn balloon_commit_run_matches_its_pinned_hashes() {
    let catalog = RunConfig::default().catalog;
    let rung2 = catalog.iter().find(|c| c.rung == 2).expect("rung 2").id;
    let cfg = RunConfig {
        knobs: TenantKnobs::none().with_latency_goal(LatencyGoal::P95(5_000.0)),
        initial: Some(rung2),
        seed: 0xB411,
        prewarm_pages: 300_000,
        ..RunConfig::default()
    };
    let mut policy = AutoPolicy::with_knobs(cfg.knobs);
    let (report, pins) = run(&cfg, &Trace::new("quiet", vec![4.0; 12]), &mut policy);
    assert_eq!(report.resizes, 2, "both probes commit into a resize");
    assert_pins(
        "balloon commit",
        pins,
        [
            0x87f6_235e_ba04_a852,
            0x0efc_e991_68c4_5689,
            0x96df_dc3a_3ced_03f0,
            0xf21a_dd55_06ef_ebee,
        ],
    );
}

#[test]
fn fleet_run_matches_its_pinned_hashes_at_one_two_and_eight_threads() {
    let tenants: Vec<TenantSpec<CpuIoWorkload>> = (0..7)
        .map(|i| TenantSpec {
            cfg: auto_cfg(tenant_seed(0x5EA7, i as u64)),
            trace: wavy_trace(8, 4.0 + (i % 3) as f64 * 6.0),
            workload: workload(),
        })
        .collect();
    for threads in [1usize, 2, 8] {
        let fleet = FleetRunner::new(threads).run_fleet(&tenants, |_, t| {
            Box::new(AutoPolicy::with_knobs(t.cfg.knobs)) as Box<dyn ScalingPolicy>
        });
        let traces: String = fleet.reports.iter().map(RunReport::traces_jsonl).collect();
        let pins = [
            fnv1a(traces.as_bytes()),
            fnv1a(fleet.events_jsonl().as_bytes()),
            metrics_hash(&fleet.fleet_metrics()),
        ];
        assert_pins(
            &format!("fleet at {threads} threads"),
            pins,
            [
                0x84be_7add_fcd4_11d4,
                0x2e20_f277_0946_3a9a,
                0x0aca_9d02_8283_ed65,
            ],
        );
    }
}
