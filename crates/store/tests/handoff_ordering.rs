//! The path from appenders to the writer loses and reorders nothing.
//! `Store::append` and two `StoreSink`s on two runs interleave
//! on one store, with flushes and `end_run`s at record counts that are not
//! multiples of `batch_records`; the archive must decode to the append
//! sequence in order, the manifest must count what was decoded, batch
//! boundaries must fall where the batch size and the flush points put
//! them, and a sink that outlives the store must report `Closed`. Sinks
//! emitting from two threads at once must each keep their own order. A
//! query on a store with nothing new to flush must not touch its files.

use dasr_core::obs::{EventKind, EventSink, RunEvent};
use dasr_core::SampleRecord;
use dasr_store::index::SegmentIndex;
use dasr_store::{
    Query, RecordPayload, RunId, RunMeta, Store, StoreError, StoreSink, StoredRecord, WriterConfig,
};
use dasr_telemetry::{ProbeStatus, TelemetrySample};
use std::path::PathBuf;

const BATCH: usize = 7;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dasr-handoff-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn sample(tenant: u64, interval: u64) -> SampleRecord {
    SampleRecord {
        tenant: Some(tenant),
        sample: TelemetrySample {
            interval,
            util_pct: [interval as f64 * 0.5, 0.0, 100.0, 12.5],
            wait_ms: [0.0, 1.5, 0.0, 0.0, 2.5, 0.0, interval as f64],
            latency_ms: Some(40.0 + tenant as f64),
            avg_latency_ms: None,
            completed: interval,
            arrivals: interval + 3,
            rejected: 0,
            mem_used_mb: 1024.0,
            mem_capacity_mb: 2048.0,
            disk_reads_per_sec: 17.75,
        },
        probe: ProbeStatus::Inactive,
    }
}

fn event(tenant: u64, interval: u64) -> RunEvent {
    RunEvent {
        tenant: Some(tenant),
        interval,
        kind: EventKind::SloViolation {
            observed_ms: 100.0 + interval as f64,
            goal_ms: 100.0,
        },
    }
}

/// The appender driving step `k`: the store itself or one of the sinks.
enum Actor {
    Store(RunId),
    Sink(usize),
}

#[test]
fn interleaved_appends_reach_disk_in_order_and_counted() {
    let dir = fresh_dir("order");
    let cfg = WriterConfig {
        batch_records: BATCH,
        segment_max_bytes: 4 * 1024,
    };
    let mut store = Store::open_with(&dir, cfg).expect("open");
    let a = store.begin_run(RunMeta::new("auto", "cpuio", "a", 1));
    let b = store.begin_run(RunMeta::new("auto", "cpuio", "b", 2));
    let mut sinks = [
        store.event_sink(a).expect("sink a"),
        store.event_sink(b).expect("sink b"),
    ];

    let mut want: Vec<StoredRecord> = Vec::new();
    // Records handed over since the last flush point, and the batches the
    // writer must have framed for the closed stretches.
    let (mut since_flush, mut want_batches) = (0usize, 0u64);
    let close_stretch = |since: &mut usize, batches: &mut u64| {
        *batches += since.div_ceil(BATCH) as u64;
        *since = 0;
    };
    let mut a_open = true;
    for k in 0..1_500u64 {
        let actor = match (k * 2_654_435_761) % 5 {
            0 | 1 if a_open => Actor::Store(a),
            0 | 1 => Actor::Store(b),
            2 if a_open => Actor::Sink(0),
            _ => Actor::Sink(1),
        };
        match actor {
            Actor::Store(run) => {
                let payload = if k % 3 == 0 {
                    RecordPayload::Event(event(k % 4, k))
                } else {
                    RecordPayload::Sample(sample(k % 4, k))
                };
                store.append(run, payload).expect("append");
                want.push(StoredRecord { run, payload });
            }
            Actor::Sink(i) => {
                let ev = event(k % 4, k);
                sinks[i].emit(&ev);
                want.push(StoredRecord {
                    run: sinks[i].run(),
                    payload: RecordPayload::Event(ev),
                });
            }
        }
        since_flush += 1;
        // Flush points, none at a multiple of BATCH records.
        match k {
            100 | 901 => {
                store.flush().expect("flush");
                close_stretch(&mut since_flush, &mut want_batches);
            }
            500 => {
                sinks[1].finish();
                close_stretch(&mut since_flush, &mut want_batches);
            }
            766 => {
                sinks[0].finish();
                close_stretch(&mut since_flush, &mut want_batches);
                store.end_run(a).expect("commit a");
                a_open = false;
            }
            _ => {}
        }
    }
    sinks[1].finish();
    assert!(sinks.iter().all(|s| s.error().is_none()));
    let committed_b = store.end_run(b).expect("commit b");
    close_stretch(&mut since_flush, &mut want_batches);
    assert_ne!(want.len() % BATCH, 0);

    let got: Vec<StoredRecord> = store
        .cursor(Query::default())
        .expect("cursor")
        .collect::<Result<_, _>>()
        .expect("decode");
    assert_eq!(got.len(), want.len(), "no record lost or duplicated");
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "record {i} out of order");
    }

    for manifest in store.runs() {
        let of_run = got.iter().filter(|r| r.run == manifest.run);
        let samples = of_run
            .clone()
            .filter(|r| matches!(r.payload, RecordPayload::Sample(_)))
            .count() as u64;
        assert_eq!(manifest.samples, samples, "run {} samples", manifest.run);
        assert_eq!(
            manifest.events,
            of_run.count() as u64 - samples,
            "run {} events",
            manifest.run
        );
    }
    assert_eq!(store.runs().len(), 2);
    assert_eq!(committed_b.run, b);

    let stats = store.stats().expect("stats");
    assert_eq!(stats.records, want.len() as u64);
    assert_eq!(
        stats.batches, want_batches,
        "batches end at the batch size and at flush points only"
    );
    assert!(stats.segments > 1, "the run rolled segments");
    store.close().expect("close");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn sinks_on_two_threads_keep_their_own_order() {
    let dir = fresh_dir("threads");
    let cfg = WriterConfig {
        batch_records: BATCH,
        ..WriterConfig::default()
    };
    let mut store = Store::open_with(&dir, cfg).expect("open");
    let runs = [
        store.begin_run(RunMeta::new("auto", "cpuio", "a", 1)),
        store.begin_run(RunMeta::new("auto", "cpuio", "b", 2)),
    ];
    let per_sink = 5_000u64;
    std::thread::scope(|s| {
        for &run in &runs {
            let mut sink = store.event_sink(run).expect("sink");
            s.spawn(move || {
                for k in 0..per_sink {
                    sink.emit(&event(u64::from(run.0), k));
                }
                sink.finish();
                assert!(sink.error().is_none());
            });
        }
    });
    for run in runs {
        assert_eq!(store.end_run(run).expect("commit").events, per_sink);
        let intervals: Vec<u64> = store
            .run_records(run)
            .expect("run records")
            .iter()
            .map(StoredRecord::interval)
            .collect();
        assert_eq!(intervals, (0..per_sink).collect::<Vec<_>>());
    }
    store.close().expect("close");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn a_sink_that_outlives_its_store_reports_closed() {
    let dir = fresh_dir("closed");
    let cfg = WriterConfig {
        batch_records: BATCH,
        ..WriterConfig::default()
    };
    let mut store = Store::open_with(&dir, cfg).expect("open");
    let run = store.begin_run(RunMeta::new("auto", "cpuio", "flat", 3));
    let mut sink: StoreSink = store.event_sink(run).expect("sink");
    // Fewer than a batch: these wait in the open batch when the store
    // closes.
    for k in 0..3 {
        sink.emit(&event(0, k));
    }
    store.close().expect("close");
    sink.emit(&event(0, 3));
    sink.finish();
    assert!(
        matches!(sink.error(), Some(StoreError::Closed)),
        "got {:?}",
        sink.error()
    );

    // Close wrote the open batch: the events are on disk under the
    // (uncommitted) run.
    let store = Store::open(&dir).expect("reopen");
    let on_disk: Vec<StoredRecord> = store
        .cursor(Query::default())
        .expect("cursor")
        .collect::<Result<_, _>>()
        .expect("decode");
    assert_eq!(on_disk.len(), 3);
    assert!(on_disk.iter().all(|r| r.run == run));
    store.close().expect("close");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn read_only_queries_leave_the_active_sidecar_alone() {
    let dir = fresh_dir("readonly");
    let cfg = WriterConfig {
        batch_records: BATCH,
        ..WriterConfig::default()
    };
    let mut store = Store::open_with(&dir, cfg).expect("open");
    let run = store.begin_run(RunMeta::new("auto", "cpuio", "flat", 4));
    for k in 0..20 {
        store
            .append(run, RecordPayload::Sample(sample(k % 2, k)))
            .expect("append");
        store
            .append(run, RecordPayload::Event(event(k % 2, k)))
            .expect("append");
    }
    store.end_run(run).expect("commit");
    let active = store.stats().expect("stats").segments as u32 - 1;
    let path = dir.join(SegmentIndex::file_name(active));
    let state = || {
        let mtime = std::fs::metadata(&path)
            .and_then(|m| m.modified())
            .expect("sidecar mtime");
        (std::fs::read(&path).expect("sidecar bytes"), mtime)
    };
    let before = state();
    // A rewrite after this pause would carry a later mtime.
    std::thread::sleep(std::time::Duration::from_millis(50));
    for _ in 0..3 {
        assert_eq!(store.scan_range(0..10).expect("scan").len(), 20);
        assert_eq!(store.run_records(run).expect("run").len(), 40);
        assert_eq!(store.tenant_events(run, 0).expect("events").len(), 10);
        assert_eq!(store.run_samples(run, Some(1)).expect("samples").len(), 10);
        store.fire_counts(None, 0..20).expect("fire counts");
        store.load_recording(run, Some(0)).expect("recording");
        let streamed = store.cursor(Query::default()).expect("cursor").count();
        assert_eq!(streamed, 40);
        assert_eq!(store.stats().expect("stats").records, 40);
        store.flush().expect("flush");
    }
    assert_eq!(state(), before, "read-only queries rewrote the sidecar");

    // The same check sees a flush that has something to write.
    let next = store.begin_run(RunMeta::new("auto", "cpuio", "flat", 5));
    store
        .append(next, RecordPayload::Event(event(0, 20)))
        .expect("append");
    store.flush().expect("flush");
    let after = state();
    assert_ne!(after.0, before.0);
    assert_ne!(after.1, before.1);
    store.close().expect("close");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
