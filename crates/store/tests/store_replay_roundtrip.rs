//! The store's losslessness contract, end to end:
//!
//! 1. **Sink fidelity** — a fleet run streamed through [`StoreSink`]
//!    lands in the store byte-identical to the buffered
//!    `FleetReport::events_jsonl` dump of the same fleet.
//! 2. **Replay fidelity** — per-tenant recordings archived in the store
//!    and loaded back with `Store::load_recording` drive the closed loop
//!    to an event stream byte-identical to the live run's.
//!
//! Both comparisons are on rendered JSONL text: equality there means the
//! stored floats round-tripped bit-exactly (JSON rendering is a pure
//! function of the f64 value).

use dasr_core::replay::record_run;
use dasr_core::{tenant_seed, AutoPolicy, FleetRunner, RunConfig, TenantKnobs, TenantSpec};
use dasr_store::{RecordPayload, RunMeta, Store, WriterConfig};
use dasr_telemetry::{LatencyGoal, NullActuator, SourcePair};
use dasr_workloads::{CpuIoConfig, CpuIoWorkload, Trace};
use std::path::PathBuf;

const TENANTS: usize = 8;
const MINUTES: usize = 24;
const FLEET_SEED: u64 = 0x5703;

fn tenant_cfg(i: usize) -> RunConfig {
    RunConfig {
        knobs: TenantKnobs::none()
            .with_budget(60.0 * MINUTES as f64)
            .with_latency_goal(LatencyGoal::P95(150.0 + (i % 4) as f64 * 100.0)),
        seed: tenant_seed(FLEET_SEED, i as u64),
        prewarm_pages: 1_000,
        ..RunConfig::default()
    }
}

fn tenant_trace(i: usize) -> Trace {
    let demand: Vec<f64> = (0..MINUTES)
        .map(|m| 5.0 + ((i + m) % 6) as f64 * 5.0 + if m % 9 == 4 { 20.0 } else { 0.0 })
        .collect();
    Trace::new("fleet-mix", demand)
}

fn fleet() -> Vec<TenantSpec<CpuIoWorkload>> {
    (0..TENANTS)
        .map(|i| TenantSpec {
            cfg: tenant_cfg(i),
            trace: tenant_trace(i),
            workload: CpuIoWorkload::new(CpuIoConfig::small()),
        })
        .collect()
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dasr-roundtrip-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn store_sink_captures_the_live_event_stream_byte_for_byte() {
    let tenants = fleet();
    let runner = FleetRunner::new(3);
    let live = runner.run_fleet(&tenants, |_, t| {
        Box::new(AutoPolicy::with_knobs(t.cfg.knobs))
    });
    let live_jsonl = live.events_jsonl();
    assert!(!live_jsonl.is_empty());

    // Same fleet, summary mode, events streamed through the StoreSink.
    let dir = fresh_dir("sink");
    // Small batches/segments so the stream crosses several batch and
    // segment boundaries — the comparison must survive framing.
    let cfg = WriterConfig {
        batch_records: 32,
        segment_max_bytes: 8 * 1024,
    };
    let mut store = Store::open_with(&dir, cfg).expect("open");
    let run = store.begin_run(
        RunMeta::new("auto", "cpuio", "fleet-mix", FLEET_SEED)
            .fleet(TENANTS as u64, MINUTES as u64),
    );
    let mut sink = store.event_sink(run).expect("sink");
    let summary = runner.run_fleet_summary(
        &tenants,
        |_, t| Box::new(AutoPolicy::with_knobs(t.cfg.knobs)),
        &mut sink,
    );
    assert!(sink.error().is_none(), "sink error: {:?}", sink.error());
    assert_eq!(&summary, live.fleet_summary());
    let manifest = store.end_run(run).expect("commit");
    assert_eq!(
        manifest.events,
        live_jsonl.lines().count() as u64,
        "every live event was counted into the manifest"
    );

    // Render the stored stream back to JSONL, in append order.
    let mut stored_jsonl = String::new();
    for rec in store.run_records(run).expect("records") {
        match rec.payload {
            RecordPayload::Event(ev) => {
                stored_jsonl.push_str(&ev.to_json_line());
                stored_jsonl.push('\n');
            }
            RecordPayload::Sample(_) => panic!("sink wrote only events"),
        }
    }
    assert_eq!(
        stored_jsonl, live_jsonl,
        "stored stream is byte-identical to the buffered dump"
    );

    // And it survives a close + reopen.
    store.close().expect("close");
    let store = Store::open(&dir).expect("reopen");
    assert!(store.recovery_notes().is_empty(), "clean shutdown");
    assert_eq!(
        store.run_records(run).expect("records").len(),
        manifest.events as usize
    );
    store.close().expect("close");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn archived_recordings_replay_to_the_live_event_stream_byte_for_byte() {
    let tenants = fleet();
    let runner = FleetRunner::new(3);
    let live = runner.run_fleet(&tenants, |_, t| {
        Box::new(AutoPolicy::with_knobs(t.cfg.knobs))
    });
    let live_jsonl = live.events_jsonl();

    // Archive each tenant's recorded samples under one fleet run.
    let dir = fresh_dir("replay");
    let mut store = Store::open(&dir).expect("open");
    let run = store.begin_run(
        RunMeta::new("auto", "cpuio", "fleet-mix", FLEET_SEED)
            .fleet(TENANTS as u64, MINUTES as u64),
    );
    for (i, tenant) in tenants.iter().enumerate() {
        let mut policy = AutoPolicy::with_knobs(tenant.cfg.knobs);
        let (_, mut recording) = record_run(
            &tenant.cfg,
            &tenant.trace,
            tenant.workload.clone(),
            &mut policy,
        );
        recording.stamp_tenant(i as u64);
        store.append_recording(run, &recording).expect("archive");
    }
    let manifest = store.end_run(run).expect("commit");
    assert_eq!(manifest.samples, (TENANTS * MINUTES) as u64);

    // The archived run comes back as a recording…
    {
        let recording = store.load_recording(run, Some(0)).expect("loads");
        assert_eq!(recording.header.policy, "auto");
        assert_eq!(recording.header.seed, FLEET_SEED);
        assert_eq!(recording.records.len(), MINUTES);
    }

    // …and the whole fleet loop runs from the archived telemetry.
    // Recordings are pre-loaded because the Store stays on this thread;
    // the worker closure only clones plain data.
    let recordings: Vec<_> = (0..TENANTS)
        .map(|i| store.load_recording(run, Some(i as u64)).expect("loads"))
        .collect();
    let replayed = runner.run_fleet_sources(TENANTS, |i| {
        let cfg = tenant_cfg(i);
        let policy: Box<dyn dasr_core::ScalingPolicy> = Box::new(AutoPolicy::with_knobs(cfg.knobs));
        let replay = dasr_core::ReplaySource::new(recordings[i].clone());
        (cfg, SourcePair::new(replay, NullActuator), policy)
    });
    let replayed_jsonl = replayed.events_jsonl();
    assert_eq!(
        replayed_jsonl, live_jsonl,
        "store → replay reproduces the live event stream byte for byte"
    );
    store.close().expect("close");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
