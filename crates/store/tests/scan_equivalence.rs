//! Parallel scans are bit-identical to sequential scans: every query
//! result at `read_threads` ∈ {1, 2, 8} must match exactly — same
//! records, same order — and the streaming `RecordCursor` must agree
//! with the collected queries. This is the determinism contract of the
//! parallel read path (per-segment partials folded in segment order).

use dasr_core::obs::{BalloonPhase, DenyReason, EventKind, RunEvent};
use dasr_core::SampleRecord;
use dasr_store::{Query, RecordPayload, RunId, RunMeta, Shape, Store, WriterConfig};
use dasr_telemetry::{ProbeStatus, TelemetrySample};
use std::path::PathBuf;

const TENANTS: u64 = 6;
const INTERVALS: u64 = 40;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dasr-equiv-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn sample(tenant: u64, interval: u64) -> SampleRecord {
    SampleRecord {
        tenant: Some(tenant),
        sample: TelemetrySample {
            interval,
            util_pct: [50.0 + tenant as f64, 0.0, 99.9, 12.5],
            wait_ms: [0.0, 0.0, 1.5, 0.0, 2.5, 0.0, 0.0],
            latency_ms: (!interval.is_multiple_of(3)).then_some(40.0 + interval as f64),
            avg_latency_ms: None,
            completed: 100 + interval,
            arrivals: 110 + interval,
            rejected: interval % 5,
            mem_used_mb: 1024.0,
            mem_capacity_mb: 2048.0,
            disk_reads_per_sec: 17.75,
        },
        probe: if interval.is_multiple_of(7) {
            ProbeStatus::Active {
                reached_target: tenant.is_multiple_of(2),
            }
        } else {
            ProbeStatus::Inactive
        },
    }
}

fn event_kind(tenant: u64, interval: u64) -> EventKind {
    match (tenant + interval) % 6 {
        0 => EventKind::IntervalStart,
        1 => EventKind::ResizeIssued {
            from_rung: (interval % 4) as u8,
            to_rung: (interval % 4) as u8 + 1,
        },
        2 => EventKind::ResizeDenied {
            reason: if interval.is_multiple_of(2) {
                DenyReason::Cooldown
            } else {
                DenyReason::Budget
            },
        },
        3 => EventKind::BudgetThrottle { headroom_pct: 3.25 },
        4 => EventKind::BalloonTrigger {
            phase: BalloonPhase::Started,
            target_mb: Some(1536.0),
        },
        _ => EventKind::IntervalEnd {
            latency_ms: Some(55.5),
            completed: 100 + interval,
            rejected: 0,
        },
    }
}

/// Builds a store with two runs spanning many small segments, mixing
/// events and samples across tenants and intervals.
fn build_store(dir: &PathBuf) -> (RunId, RunId) {
    let cfg = WriterConfig {
        batch_records: 16,
        // Small segments: the 2 × 6 × 40 records span dozens of files,
        // so the parallel fan-out has real work to divide.
        segment_max_bytes: 2 * 1024,
    };
    let mut store = Store::open_with(dir, cfg).expect("open");
    let mut runs = Vec::new();
    for seed in [1u64, 2] {
        let run =
            store.begin_run(RunMeta::new("auto", "cpuio", "equiv", seed).fleet(TENANTS, INTERVALS));
        for tenant in 0..TENANTS {
            for interval in 0..INTERVALS {
                store
                    .append(
                        run,
                        RecordPayload::Event(RunEvent {
                            tenant: Some(tenant),
                            interval,
                            kind: event_kind(tenant, interval),
                        }),
                    )
                    .expect("append event");
                store
                    .append(run, RecordPayload::Sample(sample(tenant, interval)))
                    .expect("append sample");
            }
        }
        store.end_run(run).expect("commit");
        runs.push(run);
    }
    store.close().expect("close");
    (runs[0], runs[1])
}

#[test]
fn every_query_is_bit_identical_at_any_thread_count() {
    let dir = fresh_dir("threads");
    let (run_a, run_b) = build_store(&dir);

    let mut store = Store::open(&dir).expect("reopen");
    assert!(
        store.stats().expect("stats").segments > 8,
        "need many segments for the fan-out to matter"
    );

    let mut baseline = None;
    for threads in [1usize, 2, 8] {
        store.set_read_threads(threads);
        assert_eq!(store.read_threads(), threads);
        let got = (
            store.scan_range(5..30).expect("scan_range"),
            store.run_records(run_a).expect("run_records"),
            store.tenant_events(run_b, 3).expect("tenant_events"),
            store.run_samples(run_a, Some(1)).expect("run_samples"),
            store.run_samples(run_b, None).expect("all samples"),
            store.fire_counts(None, 0..INTERVALS).expect("fires all"),
            store.fire_counts(Some(run_b), 10..20).expect("fires run"),
        );
        assert!(!got.0.is_empty() && !got.1.is_empty() && !got.2.is_empty());
        assert_eq!(got.3.len(), INTERVALS as usize);
        assert_eq!(got.4.len(), (TENANTS * INTERVALS) as usize);
        assert!(got.5.total_fires() > 0);
        match &baseline {
            None => baseline = Some(got),
            Some(b) => assert_eq!(b, &got, "results diverged at {threads} threads"),
        }
    }
    store.close().expect("close");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn streaming_cursor_agrees_with_collected_queries() {
    let dir = fresh_dir("cursor");
    let (run_a, _) = build_store(&dir);
    let store = Store::open(&dir).expect("reopen");

    // Whole-window scan: cursor vs scan_range.
    let collected = store.scan_range(5..30).expect("scan_range");
    let streamed: Vec<_> = store
        .cursor(Query {
            intervals: Some(5..30),
            ..Query::default()
        })
        .expect("cursor")
        .map(|r| r.expect("stream"))
        .collect();
    assert_eq!(collected, streamed);

    // Narrow query: run + tenant + samples only.
    let collected = store.run_samples(run_a, Some(2)).expect("run_samples");
    let streamed: Vec<_> = store
        .cursor(Query {
            run: Some(run_a),
            tenant: Some(2),
            shape: Shape::Samples,
            ..Query::default()
        })
        .expect("cursor")
        .map(|r| match r.expect("stream").payload {
            RecordPayload::Sample(s) => s,
            RecordPayload::Event(_) => panic!("Shape::Samples leaked an event"),
        })
        .collect();
    assert_eq!(collected, streamed);
    store.close().expect("close");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
