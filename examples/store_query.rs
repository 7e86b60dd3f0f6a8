//! Record a 72-tenant × 1-day fleet run into a durable `dasr-store`,
//! then answer an operator question *from the store* — "which tenants
//! fired budget-throttle rules between 09:00 and 10:00?" — through the
//! streaming [`RecordCursor`] (proving with `VmHWM` that scans run in
//! O(batch) memory, not O(result)), and finally load an archived
//! recording back out and replay it exactly.
//!
//! ```text
//! cargo run --release --example store_query
//! ```
//!
//! The run streams straight to disk through a [`StoreSink`] while the
//! fleet executes (summary mode: no per-tenant reports are buffered), so
//! the store is the *only* copy of the event stream — exactly the
//! operating mode a long fleet sweep would use.

use dasr::core::obs::EventKind;
use dasr::core::{
    record_run, replay, tenant_seed, AutoPolicy, FleetRunner, ReplayDiff, RunConfig, TenantKnobs,
    TenantSpec,
};
use dasr::store::record::etag;
use dasr::store::{Query, RecordPayload, RunMeta, Shape, Store, StoredRecord, WriterConfig};
use dasr::telemetry::LatencyGoal;
use dasr::workloads::{CpuIoConfig, CpuIoWorkload, Trace};
use std::collections::BTreeSet;

const TENANTS: usize = 72;
const MINUTES: usize = 1440; // one day of 1-minute billing intervals
const FLEET_SEED: u64 = 0xDA7A;

/// Peak resident set size (VmHWM), in MiB, from /proc/self/status.
/// `None` off Linux — the example still runs, it just can't prove the
/// O(batch)-memory claim.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Every third tenant runs on a tight budget — those are the ones the
/// 09:00–10:00 demand peak pushes into budget throttling.
fn tenant_cfg(i: usize) -> RunConfig {
    // The aggressive budget strategy allows bursts of `B − (n−1)·Cmin`
    // above the cheapest rung (cost 7): 7.05/interval leaves a burst
    // allowance of ~72 cost units for the whole day, which the 09:00
    // demand peak exhausts — that is what makes these tenants throttle.
    let budget = if i.is_multiple_of(3) {
        7.05 * MINUTES as f64
    } else {
        60.0 * MINUTES as f64
    };
    RunConfig {
        knobs: TenantKnobs::none()
            .with_budget(budget)
            .with_latency_goal(LatencyGoal::P95(150.0 + (i % 4) as f64 * 100.0)),
        seed: tenant_seed(FLEET_SEED, i as u64),
        prewarm_pages: 1_000,
        ..RunConfig::default()
    }
}

/// A diurnal trace: quiet overnight, sharp peak through the 09:00 hour.
fn tenant_trace(i: usize) -> Trace {
    let demand: Vec<f64> = (0..MINUTES)
        .map(|m| {
            let base = 4.0 + ((i + m) % 5) as f64 * 2.0;
            let peak = if (540..600).contains(&m) { 150.0 } else { 0.0 };
            base + peak
        })
        .collect();
    Trace::new("diurnal-day", demand)
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

fn main() {
    let dir = std::env::temp_dir().join("dasr_store_query");
    let _ = std::fs::remove_dir_all(&dir);

    // -- 1. Record: stream the whole fleet day into the store --
    println!(
        "Recording {TENANTS} tenants x {MINUTES} min into {}…",
        dir.display()
    );
    let mut store = Store::open_with(&dir, WriterConfig::default()).expect("open store");
    let run = store.begin_run(
        RunMeta::new("auto", "cpuio", "diurnal-day", FLEET_SEED)
            .fleet(TENANTS as u64, MINUTES as u64),
    );
    let mut sink = store.event_sink(run).expect("sink");
    let tenants = fleet();
    let summary = FleetRunner::default().run_fleet_summary(
        &tenants,
        |_, t| Box::new(AutoPolicy::with_knobs(t.cfg.knobs)),
        &mut sink,
    );
    assert!(sink.error().is_none(), "sink error: {:?}", sink.error());
    let manifest = store.end_run(run).expect("commit");
    println!("{}", summary.summary());
    println!("committed {run}: {} events\n", manifest.events);

    // -- 2. Query: who throttled on budget between 09:00 and 10:00? --
    // 1-minute intervals from midnight: 09:00–10:00 is [540, 600). The
    // streaming cursor answers this without materialising the window:
    // the query's kind bitmap prunes every batch that holds no
    // budget-throttle event before it is even read off disk, and
    // surviving records stream through one reusable batch buffer.
    let window = 540..600u64;
    let mut throttled = BTreeSet::new();
    let throttle_query = Query {
        intervals: Some(window.clone()),
        run: Some(run),
        shape: Shape::Events(1 << etag::BUDGET_THROTTLE),
        ..Query::default()
    };
    for rec in store.cursor(throttle_query.clone()).expect("cursor") {
        let rec = rec.expect("stream");
        if let RecordPayload::Event(ev) = &rec.payload {
            debug_assert!(matches!(ev.kind, EventKind::BudgetThrottle { .. }));
            throttled.insert(ev.tenant.expect("fleet events are stamped"));
        }
    }
    println!("-- Budget throttles, 09:00–10:00 --");
    println!(
        "{} of {TENANTS} tenants throttled: {:?}",
        throttled.len(),
        throttled
    );
    assert!(
        throttled.iter().all(|t| t.is_multiple_of(3)),
        "only the tight-budget tenants should throttle"
    );
    let window_fires = store.fire_counts(Some(run), window).expect("counts");
    println!("rule fires in the window: {window_fires}\n");

    // -- 3. Store economics: what did a tenant-day cost on disk? --
    let stats = store.stats().expect("stats");
    println!("-- Store stats --");
    println!(
        "{} segments, {} batches, {} records, {:.1} KiB on disk",
        stats.segments,
        stats.batches,
        stats.records,
        stats.bytes as f64 / 1024.0
    );
    println!(
        "≈ {:.2} KiB per tenant-day of events\n",
        stats.bytes as f64 / 1024.0 / TENANTS as f64
    );

    // -- 4. Archive the fleet's full recordings, replay one exactly --
    // One archive run holds every tenant's per-interval sample stream:
    // the store is now a six-figure record set, the scale the streaming
    // read path is built for.
    let archive = store.begin_run(
        RunMeta::new("auto", "cpuio", "diurnal-day", FLEET_SEED)
            .fleet(TENANTS as u64, MINUTES as u64),
    );
    let mut t0_live = None;
    for (i, t) in tenants.iter().enumerate() {
        let mut policy = AutoPolicy::with_knobs(t.cfg.knobs);
        let (live, mut recording) = record_run(&t.cfg, &t.trace, t.workload.clone(), &mut policy);
        recording.stamp_tenant(i as u64);
        store
            .append_recording(archive, &recording)
            .expect("archive");
        if i == 0 {
            t0_live = Some(live);
        }
    }
    store.end_run(archive).expect("commit");

    let loaded = store
        .load_recording(archive, Some(0))
        .expect("load archived run");
    println!("-- Replay from the store --");
    println!(
        "archived {archive}: policy={} seed={} intervals={}",
        loaded.header.policy,
        loaded.header.seed,
        loaded.records.len()
    );
    let t0 = &tenants[0];
    let mut policy = AutoPolicy::with_knobs(t0.cfg.knobs);
    let replayed = replay(&t0.cfg, loaded, &mut policy);
    let diff = ReplayDiff::between(t0_live.as_ref().expect("tenant 0 ran"), &replayed);
    assert!(diff.identical(), "store replay must be exact: {diff}");
    println!("replay of the archived run reproduces the live decision trace exactly\n");

    // -- 5. Memory: streaming queries are O(batch), not O(result) --
    // Re-run the 09:00-10:00 throttle query over the now-archived store,
    // then stream every record in it, and check the process high-water
    // mark barely moves: the cursor hands out stack copies decoded from
    // one reusable batch buffer, so memory tracks the largest batch, not
    // the result set. Collecting the same scan into a Vec would need
    // `records x size_of::<StoredRecord>()`.
    let rss_before = peak_rss_mib();
    let mut in_window = 0u64;
    for rec in store.cursor(throttle_query.clone()).expect("cursor") {
        rec.expect("stream");
        in_window += 1;
    }
    let mut streamed = 0u64;
    for rec in store.cursor(Query::default()).expect("cursor") {
        rec.expect("stream");
        streamed += 1;
    }
    assert!(
        streamed >= 100_000,
        "memory claim needs a six-figure store, got {streamed} records"
    );
    println!("-- Streaming memory proof --");
    let collected_mib =
        streamed as f64 * std::mem::size_of::<StoredRecord>() as f64 / (1024.0 * 1024.0);
    if let (Some(before), Some(after)) = (rss_before, peak_rss_mib()) {
        let delta = after - before;
        println!(
            "streamed {streamed} records ({in_window} in the window query): peak RSS \
             +{delta:.1} MiB (collected, the result alone would hold {collected_mib:.0} MiB)"
        );
        assert!(
            delta < 16.0,
            "streaming scan must not materialise the result set: +{delta:.1} MiB"
        );
    } else {
        println!("streamed {streamed} records (no /proc/self/status; RSS proof skipped)");
    }

    store.close().expect("close");
}
