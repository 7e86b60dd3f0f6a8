//! `docs/STORE_FORMAT.md` is normative: this test extracts the worked
//! hex dump from the document and checks it against the real code —
//!
//! * **decode**: the real decoder, fed the documented bytes, yields a
//!   well-formed segment whose records carry the documented values;
//! * **encode**: the real encoder, fed the example's described records,
//!   produces exactly the documented bytes.
//!
//! Any drift between the spec and the implementation fails here.

use dasr_core::obs::{EventKind, RunEvent};
use dasr_store::codec::BatchEncoder;
use dasr_store::crc::crc32;
use dasr_store::{segment, RecordPayload, RunId, StoredRecord};

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

/// The §10 example's two records: the real `BatchEncoder` must
/// reproduce its hex dump byte for byte.
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

    let documented = doc_bytes(&spec_text(), 1);
    assert_eq!(documented.len(), 42, "§10 says 42 bytes total");
    assert_eq!(payload.len(), 14, "§10 says payload_len = 14");
    assert_eq!(documented, expected, "spec hex == v2 encoder output");
}

#[test]
fn v2_worked_example_decodes_to_the_documented_values() {
    let bytes = doc_bytes(&spec_text(), 1);
    let scan = segment::scan(&bytes).expect("spec segment scans clean");
    assert_eq!(scan.segment_id, 0);
    assert_eq!(bytes[12..14], segment::VERSION.to_le_bytes());
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
