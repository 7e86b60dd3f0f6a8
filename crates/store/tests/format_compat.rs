//! Cross-format compatibility: v1 segments stay readable forever, new
//! records are always written as v2, and a directory mixing both formats
//! is fully queryable.
//!
//! No code can write v1 any more, so the v1 side comes from the
//! normative spec: the `docs/STORE_FORMAT.md` §7 hex dumps are written
//! out as segment files and opened as a store.

use dasr_core::obs::{BalloonPhase, DenyReason, EventKind, RunEvent};
use dasr_core::SampleRecord;
use dasr_store::codec::BatchEncoder;
use dasr_store::{
    segment, FormatVersion, RecordPayload, RunId, RunMeta, Store, StoredRecord, WriterConfig,
};
use dasr_telemetry::{ProbeStatus, TelemetrySample};
use std::path::{Path, PathBuf};

mod common;
use common::{doc_bytes, spec_text};

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dasr-compat-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A deterministic pseudo-random record stream exercising every event
/// kind, optional-field combination, tenant pattern (including
/// unstamped), and float shape (NaN, infinity, repeats).
fn generated_payloads(n: u64) -> Vec<RecordPayload> {
    // SplitMix64: a tiny deterministic generator, no rng dependency.
    let mut state = 0x1234_5678_9abc_def0u64;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    (0..n)
        .map(|i| {
            let r = next();
            let tenant = match r % 5 {
                0 => None,
                k => Some(k),
            };
            let interval = i / 3;
            if r % 3 == 0 {
                RecordPayload::Sample(SampleRecord {
                    tenant,
                    sample: TelemetrySample {
                        interval,
                        util_pct: [r as f64 % 100.0, 0.0, 0.0, 100.0],
                        wait_ms: [0.0; 7],
                        latency_ms: (r % 2 == 0).then_some(f64::NAN),
                        avg_latency_ms: (r % 4 == 0).then_some(33.25),
                        completed: r % 1000,
                        arrivals: r % 1100,
                        rejected: r % 7,
                        mem_used_mb: 1024.0,
                        mem_capacity_mb: 2048.0,
                        disk_reads_per_sec: if r % 8 == 0 { f64::INFINITY } else { 4.5 },
                    },
                    probe: if r % 6 == 0 {
                        ProbeStatus::Active {
                            reached_target: r % 12 == 0,
                        }
                    } else {
                        ProbeStatus::Inactive
                    },
                })
            } else {
                let kind = match r % 7 {
                    0 => EventKind::IntervalStart,
                    1 => EventKind::IntervalEnd {
                        latency_ms: (r % 2 == 0).then_some(55.5),
                        completed: r % 500,
                        rejected: r % 3,
                    },
                    2 => EventKind::ResizeIssued {
                        from_rung: (r % 6) as u8,
                        to_rung: (r % 6) as u8 + 1,
                    },
                    3 => EventKind::ResizeDenied {
                        reason: if r % 2 == 0 {
                            DenyReason::Cooldown
                        } else {
                            DenyReason::Budget
                        },
                    },
                    4 => EventKind::BudgetThrottle { headroom_pct: -2.5 },
                    5 => EventKind::BalloonTrigger {
                        phase: match r % 3 {
                            0 => BalloonPhase::Started,
                            1 => BalloonPhase::Aborted,
                            _ => BalloonPhase::Confirmed,
                        },
                        target_mb: (r % 2 == 0).then_some(1536.0),
                    },
                    _ => EventKind::SloViolation {
                        observed_ms: 120.0,
                        goal_ms: 100.0,
                    },
                };
                RecordPayload::Event(RunEvent {
                    tenant,
                    interval,
                    kind,
                })
            }
        })
        .collect()
}

/// A directory holding the spec's first `n` v1 dumps as segments
/// `0..n` (the dumps carry those ids in their headers), and nothing else:
/// no sidecars, no manifest — what a reader must cope with.
fn v1_era_dir(tag: &str, n: usize) -> PathBuf {
    let dir = fresh_dir(tag);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let spec = spec_text();
    for id in 0..n {
        std::fs::write(
            dir.join(segment::file_name(id as u32)),
            doc_bytes(&spec, id + 1),
        )
        .expect("plant v1 segment");
    }
    dir
}

/// The format version in each segment file's header, by segment id.
fn header_versions(dir: &Path) -> Vec<u16> {
    let mut names: Vec<_> = std::fs::read_dir(dir)
        .expect("read dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "dseg"))
        .collect();
    names.sort();
    names
        .iter()
        .map(|p| {
            let bytes = std::fs::read(p).expect("read");
            u16::from_le_bytes([bytes[12], bytes[13]])
        })
        .collect()
}

/// A record's bits, NaN payloads included (`PartialEq` on `f64` cannot
/// compare those): its v2 encoding from a fresh encoder state.
fn canonical_bits(rec: &StoredRecord) -> Vec<u8> {
    let mut out = Vec::new();
    BatchEncoder::new().encode_into(rec, &mut out);
    out
}

/// One pseudo-random record stream covering every kind / optional /
/// tenant / float shape, written through the store across many small
/// segments, reads back as exactly the same records, bit for bit.
#[test]
fn every_record_shape_round_trips_through_the_store() {
    let payloads = generated_payloads(600);
    let dir = fresh_dir("prop");
    let cfg = WriterConfig {
        batch_records: 16,
        segment_max_bytes: 4 * 1024,
    };
    let mut store = Store::open_with(&dir, cfg).expect("open");
    let run = store.begin_run(RunMeta::new("auto", "cpuio", "compat", 1));
    for p in &payloads {
        store.append(run, *p).expect("append");
    }
    store.end_run(run).expect("commit");
    store.close().expect("close");

    let store = Store::open(&dir).expect("reopen");
    assert!(store.stats().expect("stats").segments > 1);
    let records = store.scan_range(0..u64::MAX).expect("scan");
    assert_eq!(records.len(), payloads.len());
    for (got, want) in records.iter().zip(&payloads) {
        let want = StoredRecord {
            run,
            payload: *want,
        };
        assert_eq!(
            canonical_bits(got),
            canonical_bits(&want),
            "records differ at the bit level"
        );
    }
    store.close().expect("close");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// A directory last written by a v1-era build — here the §7 worked
/// example as `seg-000000.dseg` — opened by today's writer: the old
/// records read back, the v1 segment is sealed untouched, new records
/// land in a v2 `seg-000001`, and every query spans both.
#[test]
fn a_v1_era_store_takes_v2_appends_and_queries_span_both() {
    let dir = v1_era_dir("upgrade", 1);
    let v1_bytes = std::fs::read(dir.join(segment::file_name(0))).expect("planted");

    let mut store = Store::open(&dir).expect("open");
    assert!(
        store
            .recovery_notes()
            .iter()
            .any(|n| n.segment == Some(0) && n.detail.contains("sealed active v1")),
        "notes: {:?}",
        store.recovery_notes()
    );
    let old = store.run_records(RunId(0)).expect("v1 run");
    let old_events: Vec<(u64, EventKind)> = old
        .iter()
        .map(|r| match r.payload {
            RecordPayload::Event(ev) => (ev.interval, ev.kind),
            RecordPayload::Sample(_) => panic!("§7 holds events only"),
        })
        .collect();
    assert_eq!(
        old_events,
        [
            (0, EventKind::IntervalStart),
            (
                1,
                EventKind::ResizeIssued {
                    from_rung: 1,
                    to_rung: 2
                }
            ),
        ]
    );

    // The orphaned v1 records hold run 0; a new run must not alias it.
    let run = store.begin_run(RunMeta::new("auto", "cpuio", "compat", 2));
    assert!(run.0 > 0);
    let payloads = generated_payloads(150);
    for p in &payloads {
        store.append(run, *p).expect("append");
    }
    store.end_run(run).expect("commit");

    // Both eras are visible through every query shape.
    assert_eq!(store.scan_range(0..u64::MAX).expect("scan").len(), 152);
    assert_eq!(store.run_records(RunId(0)).expect("v1 run").len(), 2);
    assert_eq!(store.run_records(run).expect("v2 run").len(), 150);
    let streamed: Vec<StoredRecord> = store
        .cursor(dasr_store::Query::default())
        .expect("cursor")
        .collect::<Result<_, _>>()
        .expect("stream");
    assert_eq!(streamed.len(), 152);
    let v1_fires = store
        .fire_counts(Some(RunId(0)), 0..u64::MAX)
        .expect("fires");
    assert_eq!((v1_fires.interval_starts, v1_fires.resizes_issued), (1, 1));
    let all_fires = store.fire_counts(None, 0..u64::MAX).expect("fires");
    assert!(all_fires.total_fires() > v1_fires.total_fires());
    store.close().expect("close");

    // On disk: the v1 segment is byte-for-byte what it was, and the new
    // records are a v2 segment 1.
    assert_eq!(
        std::fs::read(dir.join(segment::file_name(0))).expect("seg 0"),
        v1_bytes
    );
    assert_eq!(header_versions(&dir), [1, 2]);
    let seg1 = std::fs::read(dir.join(segment::file_name(1))).expect("seg 1");
    let scan = segment::scan(&seg1).expect("scans");
    assert_eq!(scan.version, FormatVersion::V2);
    assert_eq!(scan.batches.iter().map(|b| b.n_records).sum::<u32>(), 150);

    // The upgrade happened once: the next open has nothing to do.
    let store = Store::open(&dir).expect("clean reopen");
    assert!(store.recovery_notes().is_empty());
    assert_eq!(store.scan_range(0..u64::MAX).expect("scan").len(), 152);
    store.close().expect("close");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// All three §7 dumps as a three-segment v1 directory with no sidecars:
/// the sealed ones get their sidecars rebuilt, the active one is sealed,
/// and samples, events and fire tallies all come back from v1 bytes.
#[test]
fn a_multi_segment_v1_directory_is_fully_queryable() {
    let dir = v1_era_dir("v1-only", 3);
    let mut store = Store::open(&dir).expect("open");
    for threads in [1, 4] {
        store.set_read_threads(threads);
        assert_eq!(store.scan_range(0..u64::MAX).expect("scan").len(), 15);
        let samples = store.run_samples(RunId(3), Some(9)).expect("samples");
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].sample.interval, 77);
        assert_eq!(samples[0].sample.latency_ms, Some(41.25));
        assert_eq!(store.tenant_events(RunId(42), 6).expect("events").len(), 1);
        // A covered window is answered from the rebuilt index tallies,
        // a straddling one by decoding v1 frames; both must agree with
        // the twelve documented events.
        let covered = store
            .fire_counts(Some(RunId(42)), 0..u64::MAX)
            .expect("fires");
        assert_eq!(covered.total_fires(), 9);
        assert_eq!(covered.interval_starts, 1);
        let straddling = store
            .fire_counts(Some(RunId(42)), 1003..1006)
            .expect("fires");
        assert_eq!(
            (
                straddling.resizes_issued,
                straddling.denied_cooldown,
                straddling.denied_budget
            ),
            (1, 1, 1)
        );
    }
    let next = store.begin_run(RunMeta::new("auto", "cpuio", "compat", 3));
    assert_eq!(
        next,
        RunId(43),
        "run ids continue past the v1 high-water mark"
    );
    store.close().expect("close");
    assert_eq!(header_versions(&dir), [1, 1, 1, 2]);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
