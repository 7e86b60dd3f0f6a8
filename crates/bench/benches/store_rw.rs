//! dasr-store write and read throughput.
//!
//! The store's job is to keep up with a fleet sweep: `run_fleet_summary`
//! streams events through a `StoreSink` while tenants execute, so append
//! cost is on the fleet's critical path. `store_append_1k` times one
//! iteration of 1000 event appends through `Store::append` + one explicit
//! flush. The store writes on the caller's thread, so everything is in
//! it: encoding, framing, the batch writes (one per 256 appends) and the
//! flush's sidecar rewrite. `store_encode_1k` and
//! `store_encode_samples_1k` time the batch codec alone: on events, and on
//! a fleet-synthesised tenant-day of samples, whose 16 floats per record
//! exercise the float dictionary.
//!
//! Read-side benches cover the two query shapes the paper's analyses
//! use — a time-windowed scan (sparse index pruning) and a whole-run
//! rule-fire aggregation — plus the streaming cursor over the same
//! window (`store_scan_stream_100k`, no result materialization).
//!
//! After the timed benches, a small fleet-day is streamed through a
//! `StoreSink` exactly like `examples/store_query.rs` and its on-disk
//! bytes per tenant-day are printed.
//!
//! With `DASR_BENCH_JSON` set, the vendored criterion shim appends one
//! `{"bench": …, "ns_per_iter": …}` line per benchmark — CI publishes
//! them as `BENCH_store.json`, an ungated trajectory. The end-to-end
//! benchmark's `store_archive` workload is the store's performance
//! contract.

use criterion::{black_box, Criterion};
use dasr_containers::{Catalog, ResourceKind, RESOURCE_KINDS};
use dasr_core::obs::{EventKind, RunEvent};
use dasr_core::policy::AutoPolicy;
use dasr_core::{tenant_seed, FleetRunner, RunConfig, SampleRecord, TenantKnobs, TenantSpec};
use dasr_engine::{WaitClass, WAIT_CLASSES};
use dasr_fleet::{TenantPopulation, WaitModel};
use dasr_store::codec::BatchEncoder;
use dasr_store::{Query, RecordPayload, RunMeta, Store, StoredRecord, WriterConfig};
use dasr_telemetry::signals::wait_class_for;
use dasr_telemetry::{LatencyGoal, ProbeStatus, TelemetrySample};
use dasr_workloads::{CpuIoConfig, CpuIoWorkload, Trace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Records per append iteration.
const APPENDS: u64 = 1_000;
/// Records in the pre-populated query store.
const QUERY_RECORDS: u64 = 100_000;
/// Fleet size for the on-disk compression measurement.
const COMPRESS_TENANTS: usize = 8;
/// One day of 1-minute billing intervals.
const MINUTES: usize = 1_440;

fn event(interval: u64) -> RecordPayload {
    RecordPayload::Event(RunEvent {
        tenant: Some(interval % 64),
        interval: interval % 1_440,
        kind: if interval.is_multiple_of(7) {
            EventKind::ResizeIssued {
                from_rung: (interval % 5) as u8,
                to_rung: (interval % 5) as u8 + 1,
            }
        } else if interval.is_multiple_of(11) {
            EventKind::BudgetThrottle {
                headroom_pct: (interval % 100) as f64,
            }
        } else {
            EventKind::IntervalStart
        },
    })
}

/// The first [`APPENDS`] minutes of a tenant-day of samples, synthesised
/// from `dasr_fleet` as the end-to-end `store_archive` pool is: the
/// demand of a Fig. 2 population tenant against the container covering
/// its median demand, utilisation with ±10 % noise, heavy-tailed waits
/// from the fleet wait model, latency rising with the hottest resource.
fn fleet_day_samples() -> Vec<SampleRecord> {
    const MINUTES_PER_STEP: usize = 5;
    const SEED: u64 = 0x0057_07E5;
    let tenant = TenantPopulation::generate_with_len(1, MINUTES / MINUTES_PER_STEP, SEED)
        .tenants
        .into_iter()
        .next()
        .expect("one tenant");
    let mut by_cpu = tenant.intervals.clone();
    by_cpu.sort_by(|a, b| a.cpu_cores.total_cmp(&b.cpu_cores));
    let catalog = Catalog::azure_like();
    let nominal = catalog.assign_for_utilization(&by_cpu[by_cpu.len() / 2]);
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut models = RESOURCE_KINDS.map(|k| WaitModel::new(k, SEED));
    (0..APPENDS as usize)
        .map(|m| {
            let demand = &tenant.intervals[m / MINUTES_PER_STEP];
            let mut util_pct = [0.0; RESOURCE_KINDS.len()];
            let mut wait_ms = [0.0; WAIT_CLASSES.len()];
            for kind in RESOURCE_KINDS {
                let util =
                    (demand[kind] / nominal.resources[kind] * 100.0 * rng.gen_range(0.9..1.1))
                        .min(100.0);
                util_pct[kind.index()] = util;
                wait_ms[wait_class_for(kind).index()] =
                    models[kind.index()].sample_at(util).wait_ms;
            }
            wait_ms[WaitClass::Lock.index()] = rng.gen_range(0.0..5.0);
            let hottest = util_pct.iter().copied().fold(0.0, f64::max);
            let pressure = ((hottest - 60.0) / 40.0).max(0.0);
            let latency = 40.0 * (1.0 + 6.0 * pressure * pressure) * rng.gen_range(0.8..1.25);
            let requests = (demand.cpu_cores * 180.0).round() as u64;
            SampleRecord {
                tenant: Some(0),
                sample: TelemetrySample {
                    interval: m as u64,
                    util_pct,
                    wait_ms,
                    latency_ms: (requests > 0).then_some(latency),
                    avg_latency_ms: (requests > 0).then_some(latency * 0.6),
                    completed: requests,
                    arrivals: requests,
                    rejected: 0,
                    mem_used_mb: demand.memory_mb.min(nominal.resources.memory_mb),
                    mem_capacity_mb: nominal.resources.memory_mb,
                    disk_reads_per_sec: demand[ResourceKind::DiskIo] * 0.5,
                },
                probe: ProbeStatus::Inactive,
            }
        })
        .collect()
}

fn bench_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dasr-bench-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bench_store(c: &mut Criterion) {
    // -- Write path ------------------------------------------------------
    let dir = bench_dir("append");
    let mut store = Store::open_with(&dir, WriterConfig::default()).expect("open");
    let run = store.begin_run(RunMeta::new("bench", "synthetic", "none", 0));
    let mut at = 0u64;
    c.bench_function("store_append_1k", |b| {
        b.iter(|| {
            for _ in 0..APPENDS {
                store.append(run, event(at)).expect("append");
                at += 1;
            }
            store.flush().expect("flush");
            black_box(at)
        })
    });
    let appended = at;
    store.close().expect("close");
    let _ = std::fs::remove_dir_all(&dir);

    // Encode alone, for the share framing takes of the append cost —
    // the v2 batch codec (delta heads, varints, float dictionary), one
    // batch per iteration, matching what the writer does per flush.
    let recs: Vec<StoredRecord> = (0..APPENDS)
        .map(|i| StoredRecord {
            run,
            payload: event(i),
        })
        .collect();
    let mut enc = BatchEncoder::new();
    let mut buf = Vec::with_capacity(64 * APPENDS as usize);
    c.bench_function("store_encode_1k", |b| {
        b.iter(|| {
            buf.clear();
            enc.reset();
            for r in &recs {
                enc.encode_into(r, &mut buf);
            }
            black_box(buf.len())
        })
    });

    // The same codec on samples, reset every `batch_records` records as
    // the writer resets it: 16 floats per record through the dictionary.
    let samples: Vec<StoredRecord> = fleet_day_samples()
        .into_iter()
        .map(|s| StoredRecord {
            run,
            payload: RecordPayload::Sample(s),
        })
        .collect();
    let batch_records = WriterConfig::default().batch_records;
    c.bench_function("store_encode_samples_1k", |b| {
        b.iter(|| {
            buf.clear();
            for batch in samples.chunks(batch_records) {
                enc.reset();
                for r in batch {
                    enc.encode_into(r, &mut buf);
                }
            }
            black_box(buf.len())
        })
    });

    // -- Read path -------------------------------------------------------
    let dir = bench_dir("query");
    let mut store = Store::open_with(&dir, WriterConfig::default()).expect("open");
    let run = store.begin_run(RunMeta::new("bench", "synthetic", "none", 0));
    for i in 0..QUERY_RECORDS {
        store.append(run, event(i)).expect("append");
    }
    store.end_run(run).expect("commit");

    // One-hour window out of a synthetic day: the sparse index prunes
    // every batch whose interval box misses [540, 600).
    c.bench_function("store_scan_1h_window_100k", |b| {
        b.iter(|| {
            let hits = store.scan_range(540..600).expect("scan");
            black_box(hits.len())
        })
    });

    // The same window, streamed: no result Vec, records visited one at
    // a time out of the cursor's reusable batch buffer.
    c.bench_function("store_scan_stream_100k", |b| {
        b.iter(|| {
            let mut n = 0u64;
            let cur = store
                .cursor(Query {
                    intervals: Some(540..600),
                    ..Query::default()
                })
                .expect("cursor");
            for rec in cur {
                rec.expect("stream");
                n += 1;
            }
            black_box(n)
        })
    });

    c.bench_function("store_fire_counts_100k", |b| {
        b.iter(|| {
            let counts = store.fire_counts(Some(run), 0..u64::MAX).expect("counts");
            black_box(counts.total_fires())
        })
    });

    let stats = store.stats().expect("stats");
    println!(
        "appended {appended} records in the write bench; query store: \
         {} records, {} batches, {:.1} KiB on disk ({:.1} B/record)",
        stats.records,
        stats.batches,
        stats.bytes as f64 / 1024.0,
        stats.bytes as f64 / stats.records as f64
    );
    store.close().expect("close");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `examples/store_query.rs` fleet, shrunk to [`COMPRESS_TENANTS`]:
/// every third tenant on a tight budget, diurnal demand with a 09:00
/// peak, notable events streamed through a `StoreSink` in summary mode.
/// The interesting number is bytes on disk per tenant-day.
fn compress_fleet() -> Vec<TenantSpec<CpuIoWorkload>> {
    (0..COMPRESS_TENANTS)
        .map(|i| {
            let budget = if i.is_multiple_of(3) {
                7.05 * MINUTES as f64
            } else {
                60.0 * MINUTES as f64
            };
            let demand: Vec<f64> = (0..MINUTES)
                .map(|m| {
                    let base = 4.0 + ((i + m) % 5) as f64 * 2.0;
                    let peak = if (540..600).contains(&m) { 150.0 } else { 0.0 };
                    base + peak
                })
                .collect();
            TenantSpec {
                cfg: RunConfig {
                    knobs: TenantKnobs::none()
                        .with_budget(budget)
                        .with_latency_goal(LatencyGoal::P95(150.0 + (i % 4) as f64 * 100.0)),
                    seed: tenant_seed(0xDA7A, i as u64),
                    prewarm_pages: 1_000,
                    ..RunConfig::default()
                },
                trace: Trace::new("diurnal-day", demand),
                workload: CpuIoWorkload::new(CpuIoConfig::small()),
            }
        })
        .collect()
}

/// Streams one fleet-day into a fresh store and returns bytes on disk
/// per tenant-day (including batch framing and index sidecars' share of
/// nothing — sidecars are separate files; this counts segment bytes,
/// the archival cost).
fn measure_compression() -> f64 {
    let dir = bench_dir("compress");
    let mut store = Store::open_with(&dir, WriterConfig::default()).expect("open");
    let run = store.begin_run(
        RunMeta::new("auto", "cpuio", "diurnal-day", 0xDA7A)
            .fleet(COMPRESS_TENANTS as u64, MINUTES as u64),
    );
    let mut sink = store.event_sink(run).expect("sink");
    let tenants = compress_fleet();
    FleetRunner::default().run_fleet_summary(
        &tenants,
        |_, t| Box::new(AutoPolicy::with_knobs(t.cfg.knobs)),
        &mut sink,
    );
    assert!(sink.error().is_none(), "sink error: {:?}", sink.error());
    store.end_run(run).expect("commit");
    let stats = store.stats().expect("stats");
    store.close().expect("close");
    let _ = std::fs::remove_dir_all(&dir);
    stats.bytes as f64 / COMPRESS_TENANTS as f64
}

fn main() {
    let mut c = Criterion::default();
    bench_store(&mut c);
    if let Some(m) = c
        .measurements()
        .iter()
        .find(|m| m.id.contains("store_append_1k"))
    {
        let per_record_us = m.ns_per_iter / APPENDS as f64 / 1_000.0;
        println!("append cost: {per_record_us:.3} µs/record");
    }
    c.emit_json();

    let bytes_per_tenant_day = measure_compression();
    println!(
        "on-disk cost: {:.2} KiB per tenant-day of notable events \
         ({COMPRESS_TENANTS} tenants x {MINUTES} min)",
        bytes_per_tenant_day / 1024.0
    );
}
