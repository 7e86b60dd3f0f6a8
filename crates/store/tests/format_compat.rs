//! The store reads and writes one record format. Every record shape
//! round-trips through it bit for bit, and a directory holding a segment
//! of any other format is refused whole, before a byte of it changes.
//!
//! The refused directories are built from the retired v1 format: a
//! segment header with version 1, as written by builds that predate the
//! current format, around a CRC-valid batch of fixed-width v1 frames.

use dasr_core::obs::{BalloonPhase, DenyReason, EventKind, RunEvent};
use dasr_core::SampleRecord;
use dasr_store::codec::BatchEncoder;
use dasr_store::index::{IndexEntry, SegmentIndex};
use dasr_store::{
    segment, RecordPayload, RunId, RunMeta, Store, StoreError, StoredRecord, WriterConfig,
};
use dasr_telemetry::{ProbeStatus, TelemetrySample};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

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

/// The two events of the retired format's worked example: run 0,
/// tenant 0, an `IntervalStart` at interval 0 and a `ResizeIssued`
/// 1 → 2 at interval 1.
fn v1_records() -> [StoredRecord; 2] {
    let event = |interval, kind| StoredRecord {
        run: RunId(0),
        payload: RecordPayload::Event(RunEvent {
            tenant: Some(0),
            interval,
            kind,
        }),
    };
    [
        event(0, EventKind::IntervalStart),
        event(
            1,
            EventKind::ResizeIssued {
                from_rung: 1,
                to_rung: 2,
            },
        ),
    ]
}

/// Segment 0 in the retired v1 format, holding [`v1_records`]: a
/// version-1 header and one CRC-valid batch of two fixed-width event
/// frames (`rec_len u16 | run u32 | kind u8 | tenant u64 | interval u64
/// | etag u8 | flags u8 | a u64 | b u64 | c u64`).
fn v1_segment() -> Vec<u8> {
    let frame = |interval: u64, etag: u8, a: u64, b: u64| {
        let mut f = 47u16.to_le_bytes().to_vec();
        f.extend_from_slice(&0u32.to_le_bytes());
        f.push(1);
        f.extend_from_slice(&0u64.to_le_bytes());
        f.extend_from_slice(&interval.to_le_bytes());
        f.extend_from_slice(&[etag, 0]);
        for operand in [a, b, 0] {
            f.extend_from_slice(&operand.to_le_bytes());
        }
        f
    };
    let mut payload = frame(0, 0, 0, 0);
    payload.extend(frame(1, 2, 1, 2));
    let mut bytes = segment::header_bytes(0).to_vec();
    bytes[12..14].copy_from_slice(&1u16.to_le_bytes());
    segment::append_batch(&mut bytes, 2, &payload);
    bytes
}

/// Every file in `dir`, by name, with its bytes.
fn snapshot(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("read dir")
        .map(|e| {
            let path = e.expect("entry").path();
            let name = path
                .file_name()
                .expect("name")
                .to_string_lossy()
                .into_owned();
            (name, std::fs::read(&path).expect("read file"))
        })
        .collect()
}

/// Opens `dir`, which must be refused as corrupt for its v1 segment 0,
/// and checks that nothing in the directory was created, changed or
/// removed.
fn assert_refused_untouched(dir: &Path) {
    let before = snapshot(dir);
    match Store::open(dir) {
        Err(StoreError::Corrupt(msg)) => assert!(
            msg.contains("seg-000000.dseg") && msg.contains("unsupported segment version 1"),
            "the error must name the file and its version: {msg}"
        ),
        Err(other) => panic!("expected StoreError::Corrupt, got {other}"),
        Ok(_) => panic!("a directory holding a v1 segment must not open"),
    }
    assert_eq!(snapshot(dir), before, "refusing must not touch a file");
}

/// A directory last written by a v1-era build, its v1 segment still
/// the active one: the store neither seals nor appends after it.
#[test]
fn an_active_v1_segment_is_refused_untouched() {
    let dir = fresh_dir("v1-active");
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join(segment::file_name(0)), v1_segment()).expect("plant v1 segment");
    assert_refused_untouched(&dir);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// A sealed v1 segment whose sidecar matches it in every field, its
/// version 1 included, followed by a healthy active segment: the sidecar
/// is not trusted in place of the segment, and the segment is refused.
#[test]
fn a_sealed_v1_segment_with_a_v1_sidecar_is_refused_untouched() {
    let dir = fresh_dir("v1-sealed");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let seg0 = v1_segment();
    let mut index = SegmentIndex::fresh(0);
    index.seg_bytes = seg0.len() as u64;
    index.entries = vec![IndexEntry::from_records(
        segment::HEADER_LEN as u64,
        &v1_records(),
    )];
    // The sidecar CRC covers the entries only, so patching the header's
    // `seg_version` field leaves the sidecar CRC-valid.
    let mut sidecar = index.to_bytes();
    sidecar[24..26].copy_from_slice(&1u16.to_le_bytes());
    std::fs::write(dir.join(segment::file_name(0)), &seg0).expect("plant v1 segment");
    std::fs::write(dir.join(SegmentIndex::file_name(0)), sidecar).expect("plant v1 sidecar");
    std::fs::write(dir.join(segment::file_name(1)), segment::header_bytes(1))
        .expect("plant v2 segment");
    SegmentIndex::fresh(1)
        .write_sidecar(&dir)
        .expect("plant v2 sidecar");
    assert_refused_untouched(&dir);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
