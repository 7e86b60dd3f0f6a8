//! The record decoder's error text, one literal per way a frame can be
//! refused. `BatchDecoder::decode_next` is where a decode failure becomes
//! a message; these literals pin that message, byte positions included,
//! so a change to how the decoder represents its errors inside cannot
//! change what a caller reads.

use dasr_store::codec::BatchDecoder;
use dasr_store::record::Cursor;

/// Kind byte of an event frame, then zero run, tenant and interval deltas.
const EVENT_HEAD: [u8; 4] = [1, 0, 0, 0];
/// Kind byte of a sample frame, then zero run, tenant and interval deltas.
const SAMPLE_HEAD: [u8; 4] = [2, 0, 0, 0];

fn frame(head: &[u8], rest: &[u8]) -> Vec<u8> {
    [head, rest].concat()
}

/// The message `decode_next` returns for `bytes`, read from the start by
/// a fresh decoder.
fn error_of(bytes: &[u8]) -> String {
    let mut c = Cursor::new(bytes);
    match BatchDecoder::new().decode_next(&mut c) {
        Ok(rec) => panic!("{bytes:02x?} decoded to {rec:?}"),
        Err(e) => e,
    }
}

#[test]
fn every_refusal_keeps_its_text() {
    let overlong: Vec<u8> = [1].into_iter().chain([0x80; 10]).collect();
    let overflow: Vec<u8> = [1].into_iter().chain([0xff; 9]).chain([0x02]).collect();
    // Zigzag of the run delta 2^32 is 2^33: LEB128 0x80 ×4, then 0x20.
    let run_past_u32 = [1, 0x80, 0x80, 0x80, 0x80, 0x20];
    let observed = 151.25f64.to_bits().to_le_bytes();
    let cases: Vec<(&str, Vec<u8>, &str)> = vec![
        (
            "empty payload",
            vec![],
            "record truncated at byte 0 (wanted 1 more of 0)",
        ),
        (
            "event tag missing",
            EVENT_HEAD.to_vec(),
            "record truncated at byte 4 (wanted 1 more of 4)",
        ),
        (
            "float literal cut short",
            frame(&EVENT_HEAD, &[4, 0, 0, 1, 2, 3]),
            "record truncated at byte 7 (wanted 8 more of 10)",
        ),
        (
            "varint cut short",
            vec![1, 0x80],
            "varint truncated: record truncated at byte 2 (wanted 1 more of 2)",
        ),
        ("varint overlong", overlong, "varint longer than 10 bytes"),
        ("varint overflow", overflow, "varint overflows u64"),
        (
            "dictionary reference into an empty dictionary",
            frame(&EVENT_HEAD, &[4, 0, 3]),
            "float dictionary reference 2 out of range (0 entries)",
        ),
        (
            "dictionary reference past the one entry",
            frame(
                &EVENT_HEAD,
                &[[6, 0, 0].as_slice(), &observed, &[3]].concat(),
            ),
            "float dictionary reference 2 out of range (1 entries)",
        ),
        (
            "run past u32",
            run_past_u32.to_vec(),
            "run delta leaves the u32 range",
        ),
        (
            "sample arity",
            frame(&SAMPLE_HEAD, &[0, 3, 7]),
            "sample arity mismatch: frame has 3 util / 7 wait slots, \
             this build expects 4 / 7",
        ),
        ("unknown kind", vec![9, 0, 0, 0], "unknown v2 record kind 9"),
        (
            "unknown event tag",
            frame(&EVENT_HEAD, &[7, 0]),
            "unknown v2 event tag 7",
        ),
        (
            "unknown deny reason",
            frame(&EVENT_HEAD, &[3, 0, 2]),
            "unknown deny-reason code 2",
        ),
        (
            "unknown balloon phase",
            frame(&EVENT_HEAD, &[5, 0, 3]),
            "unknown balloon-phase code 3",
        ),
    ];
    for (what, bytes, want) in &cases {
        assert_eq!(error_of(bytes), *want, "{what}");
    }
}

#[test]
fn positions_count_from_the_cursor_start_after_earlier_records() {
    // Two zero-delta IntervalStart events, then a third cut after its kind
    // byte: the truncation is reported at the byte the read began, counted
    // over everything the cursor holds.
    let bytes = [1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1];
    let mut c = Cursor::new(&bytes);
    let mut dec = BatchDecoder::new();
    assert!(dec.decode_next(&mut c).is_ok());
    assert!(dec.decode_next(&mut c).is_ok());
    assert_eq!(
        dec.decode_next(&mut c).expect_err("cut"),
        "varint truncated: record truncated at byte 13 (wanted 1 more of 13)"
    );
}
