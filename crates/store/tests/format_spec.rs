//! `docs/STORE_FORMAT.md` is normative: this test extracts the worked
//! hex dumps from the document and checks them against the real code —
//!
//! * **decode** (v1 and v2): the real decoder, fed the documented bytes,
//!   yields a well-formed segment whose records carry the documented
//!   values;
//! * **encode** (v2, the only format with an encoder): the real encoder,
//!   fed the example's described records, produces exactly the
//!   documented bytes.
//!
//! The §7 dumps double as the v1 decoder's fixtures: between them they
//! hold every v1 record shape, and the decoder's rejection cases are
//! exercised by damaging them.
//!
//! Any drift between the spec and the implementation fails here.

use dasr_core::obs::{BalloonPhase, DenyReason, EventKind, RunEvent};
use dasr_core::SampleRecord;
use dasr_store::codec::BatchEncoder;
use dasr_store::crc::crc32;
use dasr_store::{segment, FormatVersion, RecordPayload, RunId, StoredRecord};
use dasr_telemetry::{ProbeStatus, TelemetrySample};

mod common;
use common::{doc_bytes, spec_text};

fn example_records() -> [StoredRecord; 2] {
    [
        StoredRecord {
            run: RunId(0),
            payload: RecordPayload::Event(RunEvent {
                tenant: Some(0),
                interval: 0,
                kind: EventKind::IntervalStart,
            }),
        },
        StoredRecord {
            run: RunId(0),
            payload: RecordPayload::Event(RunEvent {
                tenant: Some(0),
                interval: 1,
                kind: EventKind::ResizeIssued {
                    from_rung: 1,
                    to_rung: 2,
                },
            }),
        },
    ]
}

#[test]
fn worked_example_decodes_to_the_documented_values() {
    let bytes = doc_bytes(&spec_text(), 1);
    let scan = segment::scan(&bytes).expect("spec segment scans clean");
    assert_eq!(scan.segment_id, 0);
    assert!(scan.torn.is_none());
    assert_eq!(scan.valid_len as usize, bytes.len());
    assert_eq!(scan.batches.len(), 1);
    assert_eq!(scan.batches[0].n_records, 2);

    let decoded = scan.batches[0].records().expect("records decode");
    assert_eq!(decoded, example_records());

    // The walked CRC value in the §7 table.
    let payload = scan.batches[0].payload;
    assert_eq!(crc32(payload), 0x677D_EF86);
    assert_eq!(scan.version, FormatVersion::V1);
    assert_eq!(bytes.len(), 126, "§7 says 126 bytes total");
    assert_eq!(payload.len(), 98, "§7 says payload_len = 98");
}

/// The one record of the §7.1 dump.
fn v1_sample_record() -> StoredRecord {
    StoredRecord {
        run: RunId(3),
        payload: RecordPayload::Sample(SampleRecord {
            tenant: Some(9),
            sample: TelemetrySample {
                interval: 77,
                util_pct: [12.5, 0.0, 99.9, 50.0],
                wait_ms: [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
                latency_ms: Some(41.25),
                avg_latency_ms: None,
                completed: 640,
                arrivals: 650,
                rejected: 10,
                mem_used_mb: 1024.5,
                mem_capacity_mb: 2048.0,
                disk_reads_per_sec: 17.75,
            },
            probe: ProbeStatus::Active {
                reached_target: true,
            },
        }),
    }
}

#[test]
fn v1_sample_dump_decodes_to_the_documented_values() {
    let bytes = doc_bytes(&spec_text(), 2);
    assert_eq!(bytes.len(), 206, "§7.1 says 206 bytes total");
    let scan = segment::scan(&bytes).expect("spec segment scans clean");
    assert_eq!((scan.segment_id, scan.version), (1, FormatVersion::V1));
    assert!(scan.torn.is_none());
    assert_eq!(scan.batches.len(), 1);
    assert_eq!(crc32(scan.batches[0].payload), 0xFBD2_2BB7);
    assert_eq!(
        scan.batches[0].records().expect("records decode"),
        [v1_sample_record()]
    );
}

#[test]
fn v1_decoder_rejects_damaged_frames() {
    let bytes = doc_bytes(&spec_text(), 2);
    let frame = segment::scan(&bytes).expect("scans").batches[0].payload;
    let (rec, used) = StoredRecord::decode(frame).expect("the intact frame decodes");
    assert_eq!((rec, used), (v1_sample_record(), frame.len()));
    for cut in [0, 1, 5, frame.len() - 1] {
        assert!(StoredRecord::decode(&frame[..cut]).is_err(), "cut = {cut}");
    }
    let damaged = |at: usize, byte: u8| {
        let mut bad = frame.to_vec();
        bad[at] = byte;
        StoredRecord::decode(&bad)
    };
    assert!(damaged(6, 99).is_err(), "unknown record kind");
    assert!(damaged(24, 3).is_err(), "util arity of another build");
    assert!(damaged(0, 0xaf).is_err(), "rec_len disagrees with the body");
}

#[test]
fn v1_event_shapes_dump_decodes_to_the_documented_values() {
    let kinds = [
        EventKind::IntervalStart,
        EventKind::IntervalEnd {
            latency_ms: Some(0.1 + 0.2), // 0.30000000000000004
            completed: 7,
            rejected: 0,
        },
        EventKind::IntervalEnd {
            latency_ms: None,
            completed: 0,
            rejected: 0,
        },
        EventKind::ResizeIssued {
            from_rung: 2,
            to_rung: 4,
        },
        EventKind::ResizeDenied {
            reason: DenyReason::Cooldown,
        },
        EventKind::ResizeDenied {
            reason: DenyReason::Budget,
        },
        EventKind::BudgetThrottle { headroom_pct: 12.5 },
        EventKind::BalloonTrigger {
            phase: BalloonPhase::Started,
            target_mb: Some(1740.5),
        },
        EventKind::BalloonTrigger {
            phase: BalloonPhase::Aborted,
            target_mb: None,
        },
        EventKind::BalloonTrigger {
            phase: BalloonPhase::Confirmed,
            target_mb: Some(900.0),
        },
        EventKind::SloViolation {
            observed_ms: 150.5,
            goal_ms: 100.0,
        },
    ];
    let bytes = doc_bytes(&spec_text(), 3);
    assert_eq!(bytes.len(), 616, "§7.2 says 616 bytes total");
    let scan = segment::scan(&bytes).expect("spec segment scans clean");
    assert_eq!((scan.segment_id, scan.version), (2, FormatVersion::V1));
    assert!(scan.torn.is_none());
    let decoded = scan.batches[0].records().expect("records decode");
    assert_eq!(decoded.len(), 12);
    for (i, rec) in decoded.iter().enumerate() {
        assert_eq!(rec.run, RunId(42));
        assert_eq!(rec.interval(), 1000 + i as u64);
        assert_eq!(rec.tenant(), (i % 2 == 0).then_some(i as u64), "record {i}");
    }
    for (rec, kind) in decoded.iter().zip(kinds) {
        assert!(
            matches!(rec.payload, RecordPayload::Event(ev) if ev.kind == kind),
            "{rec:?} is not {kind:?}"
        );
    }
    // The twelfth carries what JSON cannot: compare bits, NaN != NaN.
    match decoded[11].payload {
        RecordPayload::Event(RunEvent {
            kind:
                EventKind::SloViolation {
                    observed_ms,
                    goal_ms,
                },
            ..
        }) => {
            assert_eq!(observed_ms.to_bits(), f64::NAN.to_bits());
            assert_eq!(goal_ms.to_bits(), f64::NEG_INFINITY.to_bits());
        }
        other => panic!("wrong payload {other:?}"),
    }
}

/// The same two records as §7, encoded with the v2 compact frame
/// format: the real `BatchEncoder` must reproduce the §10 hex dump
/// byte for byte.
#[test]
fn v2_worked_example_matches_the_real_encoder() {
    let recs = example_records();
    let mut enc = BatchEncoder::new();
    let mut payload = Vec::new();
    for r in &recs {
        enc.encode_into(r, &mut payload);
    }
    let mut expected = segment::header_bytes(0).to_vec();
    segment::append_batch(&mut expected, recs.len() as u32, &payload);

    let documented = doc_bytes(&spec_text(), 4);
    assert_eq!(documented.len(), 42, "§10 says 42 bytes total");
    assert_eq!(payload.len(), 14, "§10 says payload_len = 14");
    assert_eq!(documented, expected, "spec hex == v2 encoder output");
}

#[test]
fn v2_worked_example_decodes_to_the_documented_values() {
    let bytes = doc_bytes(&spec_text(), 4);
    let scan = segment::scan(&bytes).expect("spec segment scans clean");
    assert_eq!(scan.segment_id, 0);
    assert_eq!(scan.version, FormatVersion::V2);
    assert!(scan.torn.is_none());
    assert_eq!(scan.valid_len as usize, bytes.len());
    assert_eq!(scan.batches.len(), 1);
    assert_eq!(scan.batches[0].n_records, 2);
    let decoded = scan.batches[0].records().expect("records decode");
    assert_eq!(decoded, example_records());
}

#[test]
fn documented_crc_vectors_hold() {
    // §5's test-vector table.
    assert_eq!(crc32(b""), 0x0000_0000);
    assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
}
