//! Byte mutation of the store's one decoder: every damaged copy of the
//! `docs/STORE_FORMAT.md` §10 segment, and of the sidecar built from it,
//! must decode to `Ok` or `Err` — never a panic.
//!
//! Four families, each exhaustive over the 42-byte segment:
//!
//! * every truncation;
//! * every single-bit flip;
//! * every value of every payload byte, with the batch CRC recomputed so
//!   that the record codec, not the checksum, has to reject it;
//! * every single-bit flip of the sidecar `SegmentIndex::build_from_segment`
//!   makes from the intact segment.
//!
//! The decoders under test are `segment::scan`, `Batch::visit`,
//! `SegmentIndex::build_from_segment` and `SegmentIndex::from_bytes`.

use dasr_store::crc::crc32;
use dasr_store::index::SegmentIndex;
use dasr_store::segment::{self, BATCH_OVERHEAD, HEADER_LEN};
use std::panic::{catch_unwind, AssertUnwindSafe};

mod common;
use common::{doc_bytes, spec_text};

/// Runs every segment decoder over `bytes`, discarding the results: a
/// damaged segment may decode or be refused, but must not panic.
fn decode_segment(bytes: &[u8]) {
    if let Ok(scan) = segment::scan(bytes) {
        for batch in &scan.batches {
            let _ = batch.visit(|_| {});
        }
    }
    let _ = SegmentIndex::build_from_segment(bytes);
}

/// Runs `decode` on `case`, failing with `what` if it panics.
fn must_not_panic(what: &str, case: &[u8], decode: fn(&[u8])) {
    if catch_unwind(AssertUnwindSafe(|| decode(case))).is_err() {
        panic!("{what} panicked the decoder; input: {case:02x?}");
    }
}

fn spec_segment() -> Vec<u8> {
    let bytes = doc_bytes(&spec_text(), 1);
    let scan = segment::scan(&bytes).expect("the §10 segment scans clean");
    assert_eq!(scan.batches.len(), 1, "§10 holds one batch");
    bytes
}

#[test]
fn every_truncation_decodes_or_errs() {
    let seg = spec_segment();
    for cut in 0..=seg.len() {
        must_not_panic(
            &format!("truncation to {cut} bytes"),
            &seg[..cut],
            decode_segment,
        );
    }
}

#[test]
fn every_bit_flip_decodes_or_errs() {
    let seg = spec_segment();
    for at in 0..seg.len() {
        for bit in 0..8 {
            let mut bad = seg.clone();
            bad[at] ^= 1 << bit;
            must_not_panic(
                &format!("flip of byte {at} bit {bit}"),
                &bad,
                decode_segment,
            );
        }
    }
}

/// With the CRC recomputed, every mutated batch frames cleanly, so each
/// case reaches the record codec.
#[test]
fn every_payload_byte_value_reaches_the_codec_and_decodes_or_errs() {
    let seg = spec_segment();
    let payload = HEADER_LEN + 8..seg.len() - 4;
    assert_eq!(payload.len() + BATCH_OVERHEAD + HEADER_LEN, seg.len());
    for at in payload.clone() {
        for value in 0..=u8::MAX {
            let mut bad = seg.clone();
            bad[at] = value;
            let crc = crc32(&bad[payload.clone()]);
            bad[payload.end..].copy_from_slice(&crc.to_le_bytes());
            let scan = segment::scan(&bad).expect("header untouched");
            assert!(
                scan.torn.is_none(),
                "CRC recomputed: the batch frames cleanly"
            );
            must_not_panic(
                &format!("payload byte {at} = {value:#04x}"),
                &bad,
                decode_segment,
            );
        }
    }
}

#[test]
fn every_sidecar_bit_flip_parses_or_errs() {
    let sidecar = SegmentIndex::build_from_segment(&spec_segment())
        .expect("the §10 segment indexes")
        .to_bytes();
    SegmentIndex::from_bytes(&sidecar).expect("the intact sidecar parses");
    for at in 0..sidecar.len() {
        for bit in 0..8 {
            let mut bad = sidecar.clone();
            bad[at] ^= 1 << bit;
            must_not_panic(&format!("sidecar flip of byte {at} bit {bit}"), &bad, |b| {
                let _ = SegmentIndex::from_bytes(b);
            });
        }
    }
}
