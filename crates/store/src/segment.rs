//! Segment files: the append-only unit of the binary log.
//!
//! A store directory holds numbered segment files (`seg-000000.dseg`,
//! `seg-000001.dseg`, …). Each segment is a 16-byte header followed by a
//! sequence of **batch frames**; records never span batches and batches
//! never span segments. The batch is the durability quantum: its payload
//! is covered by a trailing CRC-32, so a crash mid-write leaves a torn
//! *tail*, never a torn *prefix* — recovery scans forward, keeps every
//! intact batch, and truncates the rest ([`scan`] reports the cut point).
//! This is the "recover to the last complete batch" contract the
//! crash-consistency test exercises.
//!
//! Byte layout (all integers little-endian; specified byte-for-byte in
//! `docs/STORE_FORMAT.md`):
//!
//! ```text
//! segment  := header batch*
//! header   := magic "DASRSEG\x01" | segment_id u32 | version u16 | reserved u16
//! batch    := n_records u32 | payload_len u32 | payload | crc32(payload) u32
//! payload  := record*      (crate::codec varint/delta/dict frames)
//! ```
//!
//! The header's `version` field names the record-frame format of every
//! batch in the file. There is one: [`VERSION`]. A segment carrying any
//! other value is refused whole, never guessed at
//! (`docs/STORE_FORMAT.md` §11).

use crate::codec::BatchDecoder;
use crate::crc::crc32;
use crate::record::{Cursor, StoredRecord};

/// First eight bytes of every segment file.
pub const MAGIC: [u8; 8] = *b"DASRSEG\x01";
/// Header `version` value of the record-frame format (the varint/delta/
/// dictionary frames of [`crate::codec`]): the only one this build reads
/// or writes.
pub const VERSION: u16 = 2;
/// Segment header length in bytes.
pub const HEADER_LEN: usize = 16;
/// Batch frame overhead: 8-byte header plus 4-byte CRC trailer.
pub const BATCH_OVERHEAD: usize = 12;

/// Accepts a header `version` field only if it is [`VERSION`]: a reader
/// never guesses at a record format it does not know.
pub(crate) fn check_version(version: u16) -> Result<(), String> {
    if version == VERSION {
        Ok(())
    } else {
        Err(format!("unsupported segment version {version}"))
    }
}

/// File name of segment `id` (`seg-000042.dseg`).
pub fn file_name(id: u32) -> String {
    format!("seg-{id:06}.dseg")
}

/// The 16 header bytes of a new segment `id`.
pub fn header_bytes(id: u32) -> [u8; HEADER_LEN] {
    let (id, version) = (id.to_le_bytes(), VERSION.to_le_bytes());
    let mut h = [0u8; HEADER_LEN];
    // The reserved bytes after the three fields stay zero.
    for (byte, field) in h.iter_mut().zip(MAGIC.iter().chain(&id).chain(&version)) {
        *byte = *field;
    }
    h
}

/// Frames `payload` (already-encoded records) as one batch and appends it
/// to `out`.
// dasr-lint: no-alloc
pub fn append_batch(out: &mut Vec<u8>, n_records: u32, payload: &[u8]) {
    out.extend_from_slice(&n_records.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
}

/// Little-endian `u32` at `at`, if `bytes` reaches that far.
// dasr-lint: no-alloc
fn u32_at(bytes: &[u8], at: usize) -> Option<u32> {
    let b = bytes.get(at..at.checked_add(4)?)?;
    Some(u32::from_le_bytes(b.try_into().ok()?))
}

/// One intact batch frame: parsed, length-checked and CRC-verified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Batch<'a> {
    /// File offset of the batch's 8-byte header.
    pub offset: u64,
    /// Records in the payload.
    pub n_records: u32,
    /// The checksummed record payload.
    pub payload: &'a [u8],
}

impl<'a> Batch<'a> {
    /// Reads the batch frame at the front of `bytes` — the store's one
    /// frame reader, behind the recovery [`scan`], the segment folds and
    /// the streaming cursor: header parse, length check against what is
    /// actually there, CRC. `bytes` may run past the frame (a scan hands
    /// in the rest of the file); [`frame_len`](Self::frame_len) says
    /// where the next one starts. `offset` is the frame's position in
    /// its segment, for error messages and [`Batch::offset`].
    pub fn parse(bytes: &'a [u8], offset: u64) -> Result<Self, String> {
        let (Some(n_records), Some(payload_len)) = (u32_at(bytes, 0), u32_at(bytes, 4)) else {
            return Err(format!("batch header truncated at offset {offset}"));
        };
        let payload_len = payload_len as usize;
        let end = 8usize.saturating_add(payload_len);
        let (Some(payload), Some(stored_crc)) = (bytes.get(8..end), u32_at(bytes, end)) else {
            return Err(format!(
                "batch at offset {offset} truncated: payload {payload_len}+4 bytes promised, {} on disk",
                bytes.len() - 8
            ));
        };
        let actual = crc32(payload);
        if stored_crc != actual {
            return Err(format!(
                "batch at offset {offset} fails CRC: stored {stored_crc:08x}, computed {actual:08x}"
            ));
        }
        Ok(Self {
            offset,
            n_records,
            payload,
        })
    }

    /// [`parse`](Self::parse) for a frame whose length the index already
    /// fixed: `frame` must hold exactly one batch, no more.
    pub fn parse_exact(frame: &'a [u8], offset: u64) -> Result<Self, String> {
        let batch = Self::parse(frame, offset)?;
        if batch.frame_len() != frame.len() {
            return Err(format!(
                "batch at offset {offset} promises {} payload bytes, index allots {}",
                batch.payload.len(),
                frame.len()
            ));
        }
        Ok(batch)
    }

    /// Bytes the whole frame occupies on disk.
    pub fn frame_len(&self) -> usize {
        BATCH_OVERHEAD + self.payload.len()
    }

    /// Decodes the payload record by record, handing each to `visit`.
    ///
    /// A `StoredRecord` owns no heap data, so visiting stack copies is
    /// allocation-free and the caller chooses whether to collect, fold,
    /// or drop them.
    pub fn visit(&self, visit: impl FnMut(&StoredRecord)) -> Result<(), String> {
        self.visit_with(&mut BatchDecoder::new(), visit)
    }

    /// [`visit`](Self::visit) through the caller's decoder, reset here
    /// first: a reader that decodes many batches keeps one decoder, and
    /// with it the float dictionary's storage, instead of growing a new
    /// one per batch.
    pub fn visit_with(
        &self,
        dec: &mut BatchDecoder,
        mut visit: impl FnMut(&StoredRecord),
    ) -> Result<(), String> {
        let (payload, n_records) = (self.payload, self.n_records);
        // A path call: `dasr-lint` resolves a method call on a local by
        // name alone, and would reach the encoder's `reset` from here.
        BatchDecoder::reset(dec);
        let mut c = Cursor::new(payload);
        for _ in 0..n_records {
            visit(&dec.decode_next(&mut c)?);
        }
        if c.pos() != payload.len() {
            return Err(format!(
                "batch payload has {} trailing bytes after {n_records} records",
                payload.len() - c.pos()
            ));
        }
        Ok(())
    }

    /// Decodes the payload into records (exactly `n_records` of them).
    pub fn records(&self) -> Result<Vec<StoredRecord>, String> {
        let mut out = Vec::with_capacity(self.n_records as usize);
        self.visit(|rec| out.push(*rec))
            .map_err(|e| format!("batch at offset {}: {e}", self.offset))?;
        Ok(out)
    }
}

/// What a forward scan of a segment's bytes found.
#[derive(Debug)]
pub struct ScanOutcome<'a> {
    /// Segment id from the header.
    pub segment_id: u32,
    /// Every intact batch, in file order.
    pub batches: Vec<Batch<'a>>,
    /// Bytes from the start of the file through the last intact batch —
    /// the length recovery truncates the file to.
    pub valid_len: u64,
    /// Why the bytes beyond `valid_len` were rejected (`None` when the
    /// file ends cleanly on a batch boundary).
    pub torn: Option<String>,
}

/// Scans a segment's bytes: validates the header, walks batch frames, and
/// stops at the first torn or corrupt one.
///
/// A bad *header* is an error (the file is not a segment); a bad *tail*
/// is data loss bounded to the final writes and is reported in
/// [`ScanOutcome::torn`] for the caller to truncate away.
pub fn scan(bytes: &[u8]) -> Result<ScanOutcome<'_>, String> {
    let (Some(magic), Some(segment_id), Some([v0, v1, ..])) =
        (bytes.get(..8), u32_at(bytes, 8), bytes.get(12..HEADER_LEN))
    else {
        return Err(format!(
            "segment header truncated: {} bytes, need {HEADER_LEN}",
            bytes.len()
        ));
    };
    if magic != MAGIC {
        return Err("bad segment magic".to_string());
    }
    check_version(u16::from_le_bytes([*v0, *v1]))?;

    let mut batches = Vec::new();
    let mut at = HEADER_LEN;
    let mut torn = None;
    while let Some(rest) = bytes.get(at..).filter(|r| !r.is_empty()) {
        match Batch::parse(rest, at as u64) {
            Ok(batch) => {
                at += batch.frame_len();
                batches.push(batch);
            }
            Err(e) => {
                torn = Some(e);
                break;
            }
        }
    }
    Ok(ScanOutcome {
        segment_id,
        batches,
        valid_len: at as u64,
        torn,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::BatchEncoder;
    use crate::record::{RecordPayload, RunId};
    use dasr_core::obs::{EventKind, RunEvent};

    fn event(interval: u64) -> StoredRecord {
        StoredRecord {
            run: RunId(0),
            payload: RecordPayload::Event(RunEvent {
                tenant: Some(interval),
                interval,
                kind: EventKind::ResizeIssued {
                    from_rung: 1,
                    to_rung: 2,
                },
            }),
        }
    }

    fn segment_with(batches: &[&[StoredRecord]]) -> Vec<u8> {
        let mut bytes = header_bytes(7).to_vec();
        for recs in batches {
            let mut payload = Vec::new();
            let mut enc = BatchEncoder::new();
            for r in *recs {
                enc.encode_into(r, &mut payload);
            }
            append_batch(&mut bytes, recs.len() as u32, &payload);
        }
        bytes
    }

    #[test]
    fn clean_segment_scans_fully() {
        let a = [event(1), event(2)];
        let b = [event(3)];
        let bytes = segment_with(&[&a, &b]);
        let out = scan(&bytes).expect("scans");
        assert_eq!(out.segment_id, 7);
        assert_eq!(out.batches.len(), 2);
        assert!(out.torn.is_none());
        assert_eq!(out.valid_len, bytes.len() as u64);
        assert_eq!(out.batches[0].records().unwrap(), a);
        assert_eq!(out.batches[1].records().unwrap(), b);
    }

    #[test]
    fn empty_segment_is_just_a_header() {
        let bytes = header_bytes(0).to_vec();
        let out = scan(&bytes).expect("scans");
        assert!(out.batches.is_empty());
        assert!(out.torn.is_none());
        assert_eq!(out.valid_len, HEADER_LEN as u64);
    }

    #[test]
    fn torn_tail_keeps_intact_prefix() {
        let a = [event(1), event(2)];
        let b = [event(3)];
        let bytes = segment_with(&[&a, &b]);
        let first_end = scan(&bytes).unwrap().batches[1].offset as usize;
        // Truncate anywhere inside the second batch: first batch
        // survives.
        for cut in [first_end + 1, first_end + 5, bytes.len() - 1] {
            let out = scan(&bytes[..cut]).expect("header intact");
            assert_eq!(out.batches.len(), 1, "cut = {cut}");
            assert!(out.torn.is_some());
            assert_eq!(out.valid_len as usize, first_end);
        }
    }

    #[test]
    fn parse_reads_exactly_one_batch() {
        let a = [event(1), event(2)];
        let b = [event(3)];
        let bytes = segment_with(&[&a, &b]);
        let scanned = scan(&bytes).unwrap();
        let (first, second) = (scanned.batches[0], scanned.batches[1]);
        let at = first.offset as usize;
        // From the rest of the file: stops at the frame's own end.
        let got = Batch::parse(&bytes[at..], first.offset).expect("reads");
        assert_eq!(got, first);
        assert_eq!(at + got.frame_len(), second.offset as usize);
        // From an index-sized slice: must fit exactly.
        let frame = &bytes[at..at + got.frame_len()];
        assert_eq!(
            Batch::parse_exact(frame, first.offset).expect("fits"),
            first
        );
        assert!(Batch::parse_exact(&bytes[at..], first.offset)
            .expect_err("slack after the frame")
            .contains("index allots"));
        assert!(Batch::parse(&frame[..5], 0)
            .expect_err("short header")
            .contains("header truncated"));
        assert!(Batch::parse(&frame[..frame.len() - 1], 0)
            .expect_err("short payload")
            .contains("truncated"));
        let mut corrupt = frame.to_vec();
        corrupt[10] ^= 0x01;
        assert!(Batch::parse(&corrupt, 0)
            .expect_err("corrupt")
            .contains("CRC"));
    }

    #[test]
    fn corrupt_payload_fails_crc() {
        let a = [event(1), event(2)];
        let mut bytes = segment_with(&[&a]);
        let flip = HEADER_LEN + 8 + 3; // inside the payload
        bytes[flip] ^= 0x40;
        let out = scan(&bytes).expect("header intact");
        assert!(out.batches.is_empty());
        assert!(out.torn.expect("torn").contains("CRC"));
    }

    #[test]
    fn record_count_must_match_the_payload() {
        let a = [event(1), event(2)];
        let mut payload = Vec::new();
        let mut enc = BatchEncoder::new();
        for r in &a {
            enc.encode_into(r, &mut payload);
        }
        for claimed in [1u32, 3] {
            let mut frame = Vec::new();
            append_batch(&mut frame, claimed, &payload);
            let batch = Batch::parse(&frame, 0).expect("framing is intact");
            assert!(batch.records().is_err(), "claimed {claimed} of 2 records");
        }
    }

    #[test]
    fn bad_header_is_an_error() {
        assert!(scan(b"short").is_err());
        let mut bytes = header_bytes(1).to_vec();
        bytes[0] = b'X';
        assert!(scan(&bytes).is_err());
        // Any version but the one this build writes, retired v1 included.
        for version in [0u8, 1, 3, 9] {
            let mut bytes = header_bytes(1).to_vec();
            bytes[12] = version;
            assert_eq!(
                scan(&bytes).expect_err("unknown version"),
                format!("unsupported segment version {version}")
            );
        }
    }
}
