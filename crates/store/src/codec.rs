//! The batch codec (record format v2): LEB128 varints, delta-encoded
//! ids, per-batch float dictionary.
//!
//! A fixed-layout frame would spend the same bytes on every event no
//! matter what it says. This encoding keeps every bit of *information* —
//! floats travel as raw IEEE-754 bits, so nothing is lossy — but spends
//! bytes only where the data varies:
//!
//! * **LEB128 varints** for every integer field: small values (rungs,
//!   deny reasons, per-interval counts) cost one byte instead of eight.
//! * **Delta encoding** for the three stamps every record carries (run,
//!   tenant, interval): consecutive records in a batch almost always
//!   share a run and tenant and step the interval by 0 or 1, so each
//!   stamp is usually a single zigzag byte. Deltas wrap, which makes the
//!   `TENANT_NONE` sentinel (`u64::MAX`) cheap too: from an initial
//!   previous value of 0 it is a delta of −1.
//! * **A per-batch float dictionary** for repeated exact bit patterns: a
//!   float is either a literal (`0` tag + 8 raw bytes, which also
//!   appends it to the dictionary) or a back-reference (`k` tag meaning
//!   dictionary entry `k−1`). Telemetry repeats exact values constantly
//!   (0.0 waits, saturated 100.0 utilizations, a flat `mem_capacity_mb`)
//!   and every repeat collapses to one or two bytes. The dictionary is
//!   built identically by encoder and decoder as a side effect of the
//!   byte stream, so nothing extra is stored — and it resets at every
//!   batch boundary, so batches stay independently decodable and the
//!   torn-tail recovery story is unchanged.
//!
//! Both sides are **stateful within one batch and stateless across
//! batches**: [`BatchEncoder::reset`]/[`BatchDecoder::reset`] are called
//! at each batch boundary. Byte output is a pure function of the record
//! sequence, so the PR-8 determinism argument (DESIGN.md §16) carries
//! over verbatim; DESIGN.md §17 extends it to this codec.
//!
//! Decoding reads every field through a small `Copy` error type; an
//! error message is written only when a frame is refused, in
//! [`BatchDecoder::decode_next`].
//!
//! The byte layout is specified normatively in `docs/STORE_FORMAT.md`
//! §9–§10, whose worked hex dump the `format_spec` test decodes with
//! this module.

use crate::record::{
    etag, flag, Cursor, RecordPayload, RunId, StoredRecord, KIND_EVENT, KIND_SAMPLE, TENANT_NONE,
};
use dasr_containers::RESOURCE_KINDS;
use dasr_core::obs::{BalloonPhase, DenyReason, EventKind, RunEvent};
use dasr_core::SampleRecord;
use dasr_engine::waits::WAIT_CLASSES;
use dasr_telemetry::{ProbeStatus, TelemetrySample};

/// Maximum float-dictionary entries per batch. A bound, not a tuning
/// knob: once full, further distinct floats are written as literals
/// without being added, so encoder and decoder stay in lockstep and
/// memory stays O(1) per batch.
pub const DICT_CAP: usize = 4096;

/// Appends `v` as an unsigned LEB128 varint (1–10 bytes).
// dasr-lint: no-alloc
pub fn put_uvar(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Appends `v` zigzag-mapped as an unsigned varint (small magnitudes of
/// either sign stay small).
// dasr-lint: no-alloc
pub fn put_ivar(buf: &mut Vec<u8>, v: i64) {
    put_uvar(buf, ((v << 1) ^ (v >> 63)) as u64);
}

/// Why a frame was refused. Small and `Copy`, so every field read on
/// the decode path returns it without touching the heap; it becomes text
/// only once, in [`BatchDecoder::decode_next`], through [`message`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DecodeError {
    /// A fixed-width read of `wanted` bytes ran past the payload.
    Truncated { wanted: u8 },
    /// A varint ran past the payload.
    VarintTruncated,
    /// A varint's tenth byte still had its continuation bit set.
    VarintOverlong,
    /// A varint's tenth byte carried bits above bit 63.
    VarintOverflow,
    /// A float back-reference named no dictionary entry.
    DictRef { slot: u64 },
    /// The run delta left the `u32` range.
    RunRange,
    /// A sample frame's slot counts differ from this build's.
    Arity { util: u8, wait: u8 },
    /// Unknown record kind byte.
    Kind(u8),
    /// Unknown event tag.
    EventTag(u8),
    /// Unknown deny-reason code.
    Deny(u64),
    /// Unknown balloon-phase code.
    Phase(u64),
}

/// The text of `e`. `c` is the cursor the failed read used: a read that
/// runs out leaves it where it began, so its position is where the bytes
/// ran out. `entries` is the float dictionary's length, which a failed
/// read leaves as it was.
#[cold]
#[inline(never)]
fn message(e: DecodeError, c: &Cursor<'_>, entries: usize) -> String {
    match e {
        DecodeError::Truncated { wanted } => format!(
            "record truncated at byte {} (wanted {wanted} more of {})",
            c.pos(),
            c.len()
        ),
        DecodeError::VarintTruncated => format!(
            "varint truncated: record truncated at byte {} (wanted 1 more of {})",
            c.pos(),
            c.len()
        ),
        DecodeError::VarintOverlong => "varint longer than 10 bytes".to_string(),
        DecodeError::VarintOverflow => "varint overflows u64".to_string(),
        DecodeError::DictRef { slot } => {
            format!("float dictionary reference {slot} out of range ({entries} entries)")
        }
        DecodeError::RunRange => "run delta leaves the u32 range".to_string(),
        DecodeError::Arity { util, wait } => format!(
            "sample arity mismatch: frame has {util} util / {wait} wait slots, \
             this build expects {} / {}",
            RESOURCE_KINDS.len(),
            WAIT_CLASSES.len()
        ),
        DecodeError::Kind(k) => format!("unknown v2 record kind {k}"),
        DecodeError::EventTag(t) => format!("unknown v2 event tag {t}"),
        DecodeError::Deny(code) => format!("unknown deny-reason code {code}"),
        DecodeError::Phase(code) => format!("unknown balloon-phase code {code}"),
    }
}

/// One byte; a truncation error otherwise.
fn byte(c: &mut Cursor<'_>) -> Result<u8, DecodeError> {
    c.u8().ok_or(DecodeError::Truncated { wanted: 1 })
}

/// Reads an unsigned LEB128 varint. Rejects truncation and encodings
/// longer than 10 bytes (the widest a u64 needs).
fn read_uvar(c: &mut Cursor<'_>) -> Result<u64, DecodeError> {
    // One-byte varints dominate real streams (deltas, small counters);
    // take them without entering the loop.
    let first = c.u8().ok_or(DecodeError::VarintTruncated)?;
    if first & 0x80 == 0 {
        return Ok(u64::from(first));
    }
    let mut v: u64 = u64::from(first & 0x7f);
    let mut shift = 7u32;
    loop {
        let byte = c.u8().ok_or(DecodeError::VarintTruncated)?;
        if shift == 63 {
            if byte & 0x80 != 0 {
                return Err(DecodeError::VarintOverlong);
            }
            if byte > 1 {
                return Err(DecodeError::VarintOverflow);
            }
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Reads a zigzag varint back to a signed value.
fn read_ivar(c: &mut Cursor<'_>) -> Result<i64, DecodeError> {
    let z = read_uvar(c)?;
    Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
}

/// Slots in the encoder's table: twice [`DICT_CAP`], so it is never more
/// than half full and a linear probe stays a few slots long.
const DICT_SLOTS: usize = 2 * DICT_CAP;

/// Multiplier for Fibonacci hashing: `2^64 / φ`, rounded to odd. The high
/// bits of `bits * FIB` depend on every bit of the float, sign and
/// exponent included.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// `bits * FIB >> DICT_SHIFT` is a home slot in `0..DICT_SLOTS`.
const DICT_SHIFT: u32 = 64 - DICT_SLOTS.trailing_zeros();

/// A table slot: the float's bits and its dictionary slot number, or
/// [`EMPTY_SLOT`] when the table slot is free.
#[derive(Debug, Clone, Copy)]
struct DictSlot {
    bits: u64,
    num: u32,
}

/// Marks a free table slot. Never a dictionary slot number, so any `u64`
/// is a legal key.
const EMPTY_SLOT: u32 = u32::MAX;

/// Encoder half of the per-batch float dictionary: a fixed open-addressed
/// table of [`DICT_SLOTS`] slots keyed by the float's bits (Fibonacci
/// hash, linear probing). Slot numbers are handed out in insertion order
/// and lookups never iterate, so batch bytes stay a pure function of the
/// record sequence.
#[derive(Debug)]
struct DictEncoder {
    table: Box<[DictSlot]>,
    /// Table positions filled this batch, in insertion order: the
    /// dictionary length, and all a reset has to clear.
    used: Vec<u32>,
}

impl Default for DictEncoder {
    fn default() -> Self {
        Self {
            table: vec![
                DictSlot {
                    bits: 0,
                    num: EMPTY_SLOT
                };
                DICT_SLOTS
            ]
            .into_boxed_slice(),
            used: Vec::with_capacity(DICT_CAP),
        }
    }
}

impl DictEncoder {
    /// Empties the dictionary, touching only the slots this batch used.
    // dasr-lint: no-alloc
    fn reset(&mut self) {
        for &i in &self.used {
            if let Some(slot) = self.table.get_mut(i as usize) {
                slot.num = EMPTY_SLOT;
            }
        }
        self.used.clear();
    }

    /// Writes one float: a back-reference when its exact bits were seen
    /// earlier in this batch, a literal (which defines the next slot)
    /// otherwise.
    // dasr-lint: no-alloc
    fn put_f64(&mut self, buf: &mut Vec<u8>, v: f64) {
        let bits = v.to_bits();
        let mut i = (bits.wrapping_mul(FIB) >> DICT_SHIFT) as usize;
        loop {
            let slot = self.table[i];
            if slot.num == EMPTY_SLOT {
                break;
            }
            if slot.bits == bits {
                put_uvar(buf, u64::from(slot.num) + 1);
                return;
            }
            i = (i + 1) % DICT_SLOTS;
        }
        put_uvar(buf, 0);
        buf.extend_from_slice(&bits.to_le_bytes());
        if self.used.len() < DICT_CAP {
            self.table[i] = DictSlot {
                bits,
                num: self.used.len() as u32,
            };
            self.used.push(i as u32);
        }
    }
}

/// Decoder half of the per-batch float dictionary.
#[derive(Debug, Default)]
struct DictDecoder {
    entries: Vec<u64>,
}

impl DictDecoder {
    fn read_f64(&mut self, c: &mut Cursor<'_>) -> Result<f64, DecodeError> {
        let tag = read_uvar(c)?;
        if tag == 0 {
            let bits = c.u64().ok_or(DecodeError::Truncated { wanted: 8 })?;
            if self.entries.len() < DICT_CAP {
                self.entries.push(bits);
            }
            return Ok(f64::from_bits(bits));
        }
        match self.entries.get((tag - 1) as usize) {
            Some(&bits) => Ok(f64::from_bits(bits)),
            None => Err(DecodeError::DictRef { slot: tag - 1 }),
        }
    }
}

/// The three delta-encoded stamps shared by encoder and decoder.
#[derive(Debug, Clone, Copy, Default)]
struct Prev {
    run: u64,
    tenant: u64,
    interval: u64,
}

// dasr-lint: no-alloc
fn delta(prev: &mut u64, now: u64) -> i64 {
    let d = now.wrapping_sub(*prev) as i64;
    *prev = now;
    d
}

// dasr-lint: no-alloc
fn undelta(prev: &mut u64, d: i64) -> u64 {
    *prev = prev.wrapping_add(d as u64);
    *prev
}

/// Stateful v2 batch encoder. [`reset`](Self::reset) at every batch
/// boundary; byte output is a pure function of the record sequence since
/// the last reset.
#[derive(Debug, Default)]
pub struct BatchEncoder {
    prev: Prev,
    dict: DictEncoder,
}

impl BatchEncoder {
    /// A fresh encoder (equivalent to a just-reset one).
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears all cross-record state (call at each batch boundary).
    pub fn reset(&mut self) {
        self.prev = Prev::default();
        self.dict.reset();
    }

    /// Appends `rec`'s v2 frame to `buf`.
    // dasr-lint: entry(G1)
    pub fn encode_into(&mut self, rec: &StoredRecord, buf: &mut Vec<u8>) {
        match &rec.payload {
            RecordPayload::Event(ev) => {
                buf.push(KIND_EVENT);
                self.encode_head(rec.run, ev.tenant, ev.interval, buf);
                self.encode_event(ev, buf);
            }
            RecordPayload::Sample(s) => {
                buf.push(KIND_SAMPLE);
                self.encode_head(rec.run, s.tenant, s.sample.interval, buf);
                self.encode_sample(s, buf);
            }
        }
    }

    // dasr-lint: no-alloc
    fn encode_head(&mut self, run: RunId, tenant: Option<u64>, interval: u64, buf: &mut Vec<u8>) {
        put_ivar(buf, delta(&mut self.prev.run, u64::from(run.0)));
        put_ivar(
            buf,
            delta(&mut self.prev.tenant, tenant.unwrap_or(TENANT_NONE)),
        );
        put_ivar(buf, delta(&mut self.prev.interval, interval));
    }

    fn encode_event(&mut self, ev: &RunEvent, buf: &mut Vec<u8>) {
        match &ev.kind {
            EventKind::IntervalStart => {
                buf.push(etag::INTERVAL_START);
                buf.push(0);
            }
            EventKind::IntervalEnd {
                latency_ms,
                completed,
                rejected,
            } => {
                buf.push(etag::INTERVAL_END);
                buf.push(latency_ms.map_or(0, |_| flag::OPT_A));
                if let Some(l) = latency_ms {
                    self.dict.put_f64(buf, *l);
                }
                put_uvar(buf, *completed);
                put_uvar(buf, *rejected);
            }
            EventKind::ResizeIssued { from_rung, to_rung } => {
                buf.push(etag::RESIZE_ISSUED);
                buf.push(0);
                put_uvar(buf, u64::from(*from_rung));
                put_uvar(buf, u64::from(*to_rung));
            }
            EventKind::ResizeDenied { reason } => {
                buf.push(etag::RESIZE_DENIED);
                buf.push(0);
                put_uvar(
                    buf,
                    match reason {
                        DenyReason::Cooldown => 0,
                        DenyReason::Budget => 1,
                    },
                );
            }
            EventKind::BudgetThrottle { headroom_pct } => {
                buf.push(etag::BUDGET_THROTTLE);
                buf.push(0);
                self.dict.put_f64(buf, *headroom_pct);
            }
            EventKind::BalloonTrigger { phase, target_mb } => {
                buf.push(etag::BALLOON_TRIGGER);
                buf.push(target_mb.map_or(0, |_| flag::OPT_A));
                put_uvar(
                    buf,
                    match phase {
                        BalloonPhase::Started => 0,
                        BalloonPhase::Aborted => 1,
                        BalloonPhase::Confirmed => 2,
                    },
                );
                if let Some(t) = target_mb {
                    self.dict.put_f64(buf, *t);
                }
            }
            EventKind::SloViolation {
                observed_ms,
                goal_ms,
            } => {
                buf.push(etag::SLO_VIOLATION);
                buf.push(0);
                self.dict.put_f64(buf, *observed_ms);
                self.dict.put_f64(buf, *goal_ms);
            }
        }
    }

    fn encode_sample(&mut self, rec: &SampleRecord, buf: &mut Vec<u8>) {
        let s = &rec.sample;
        let mut flags = 0u8;
        if s.latency_ms.is_some() {
            flags |= flag::OPT_A;
        }
        if s.avg_latency_ms.is_some() {
            flags |= flag::OPT_B;
        }
        if let ProbeStatus::Active { reached_target } = rec.probe {
            flags |= flag::PROBE_ACTIVE;
            if reached_target {
                flags |= flag::PROBE_REACHED;
            }
        }
        buf.push(flags);
        buf.push(RESOURCE_KINDS.len() as u8);
        buf.push(WAIT_CLASSES.len() as u8);
        for v in &s.util_pct {
            self.dict.put_f64(buf, *v);
        }
        for v in &s.wait_ms {
            self.dict.put_f64(buf, *v);
        }
        if let Some(l) = s.latency_ms {
            self.dict.put_f64(buf, l);
        }
        if let Some(a) = s.avg_latency_ms {
            self.dict.put_f64(buf, a);
        }
        put_uvar(buf, s.completed);
        put_uvar(buf, s.arrivals);
        put_uvar(buf, s.rejected);
        self.dict.put_f64(buf, s.mem_used_mb);
        self.dict.put_f64(buf, s.mem_capacity_mb);
        self.dict.put_f64(buf, s.disk_reads_per_sec);
    }
}

/// Stateful v2 batch decoder — the exact mirror of [`BatchEncoder`].
#[derive(Debug, Default)]
pub struct BatchDecoder {
    prev: Prev,
    dict: DictDecoder,
}

impl BatchDecoder {
    /// A fresh decoder (equivalent to a just-reset one).
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears all cross-record state (call at each batch boundary).
    pub fn reset(&mut self) {
        self.prev = Prev::default();
        self.dict.entries.clear();
    }

    /// Decodes the next v2 frame from `c`.
    // dasr-lint: entry(G1, G3)
    pub fn decode_next(&mut self, c: &mut Cursor<'_>) -> Result<StoredRecord, String> {
        self.decode(c)
            .map_err(|e| message(e, c, self.dict.entries.len()))
    }

    fn decode(&mut self, c: &mut Cursor<'_>) -> Result<StoredRecord, DecodeError> {
        let kind = byte(c)?;
        let run = RunId(
            u32::try_from(undelta(&mut self.prev.run, read_ivar(c)?))
                .map_err(|_| DecodeError::RunRange)?,
        );
        let tenant_wire = undelta(&mut self.prev.tenant, read_ivar(c)?);
        let tenant = (tenant_wire != TENANT_NONE).then_some(tenant_wire);
        let interval = undelta(&mut self.prev.interval, read_ivar(c)?);
        let payload = match kind {
            KIND_EVENT => RecordPayload::Event(RunEvent {
                tenant,
                interval,
                kind: self.decode_event_kind(c)?,
            }),
            KIND_SAMPLE => RecordPayload::Sample(self.decode_sample(tenant, interval, c)?),
            other => return Err(DecodeError::Kind(other)),
        };
        Ok(StoredRecord { run, payload })
    }

    fn decode_event_kind(&mut self, c: &mut Cursor<'_>) -> Result<EventKind, DecodeError> {
        let tag = byte(c)?;
        let flags = byte(c)?;
        Ok(match tag {
            etag::INTERVAL_START => EventKind::IntervalStart,
            etag::INTERVAL_END => {
                let latency_ms = if flags & flag::OPT_A != 0 {
                    Some(self.dict.read_f64(c)?)
                } else {
                    None
                };
                EventKind::IntervalEnd {
                    latency_ms,
                    completed: read_uvar(c)?,
                    rejected: read_uvar(c)?,
                }
            }
            etag::RESIZE_ISSUED => EventKind::ResizeIssued {
                from_rung: read_uvar(c)? as u8,
                to_rung: read_uvar(c)? as u8,
            },
            etag::RESIZE_DENIED => EventKind::ResizeDenied {
                reason: match read_uvar(c)? {
                    0 => DenyReason::Cooldown,
                    1 => DenyReason::Budget,
                    other => return Err(DecodeError::Deny(other)),
                },
            },
            etag::BUDGET_THROTTLE => EventKind::BudgetThrottle {
                headroom_pct: self.dict.read_f64(c)?,
            },
            etag::BALLOON_TRIGGER => {
                let phase = match read_uvar(c)? {
                    0 => BalloonPhase::Started,
                    1 => BalloonPhase::Aborted,
                    2 => BalloonPhase::Confirmed,
                    other => return Err(DecodeError::Phase(other)),
                };
                let target_mb = if flags & flag::OPT_A != 0 {
                    Some(self.dict.read_f64(c)?)
                } else {
                    None
                };
                EventKind::BalloonTrigger { phase, target_mb }
            }
            etag::SLO_VIOLATION => EventKind::SloViolation {
                observed_ms: self.dict.read_f64(c)?,
                goal_ms: self.dict.read_f64(c)?,
            },
            other => return Err(DecodeError::EventTag(other)),
        })
    }

    fn decode_sample(
        &mut self,
        tenant: Option<u64>,
        interval: u64,
        c: &mut Cursor<'_>,
    ) -> Result<SampleRecord, DecodeError> {
        let flags = byte(c)?;
        let util = byte(c)?;
        let wait = byte(c)?;
        if usize::from(util) != RESOURCE_KINDS.len() || usize::from(wait) != WAIT_CLASSES.len() {
            return Err(DecodeError::Arity { util, wait });
        }
        let mut util_pct = [0.0; RESOURCE_KINDS.len()];
        for slot in &mut util_pct {
            *slot = self.dict.read_f64(c)?;
        }
        let mut wait_ms = [0.0; WAIT_CLASSES.len()];
        for slot in &mut wait_ms {
            *slot = self.dict.read_f64(c)?;
        }
        let latency_ms = if flags & flag::OPT_A != 0 {
            Some(self.dict.read_f64(c)?)
        } else {
            None
        };
        let avg_latency_ms = if flags & flag::OPT_B != 0 {
            Some(self.dict.read_f64(c)?)
        } else {
            None
        };
        let completed = read_uvar(c)?;
        let arrivals = read_uvar(c)?;
        let rejected = read_uvar(c)?;
        let mem_used_mb = self.dict.read_f64(c)?;
        let mem_capacity_mb = self.dict.read_f64(c)?;
        let disk_reads_per_sec = self.dict.read_f64(c)?;
        let probe = if flags & flag::PROBE_ACTIVE != 0 {
            ProbeStatus::Active {
                reached_target: flags & flag::PROBE_REACHED != 0,
            }
        } else {
            ProbeStatus::Inactive
        };
        Ok(SampleRecord {
            tenant,
            sample: TelemetrySample {
                interval,
                util_pct,
                wait_ms,
                latency_ms,
                avg_latency_ms,
                completed,
                arrivals,
                rejected,
                mem_used_mb,
                mem_capacity_mb,
                disk_reads_per_sec,
            },
            probe,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn uvar_bytes(v: u64) -> Vec<u8> {
        let mut b = Vec::new();
        put_uvar(&mut b, v);
        b
    }

    #[test]
    fn uvar_round_trips_edge_widths() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            let b = uvar_bytes(v);
            assert!(b.len() <= 10);
            let mut c = Cursor::new(&b);
            assert_eq!(read_uvar(&mut c).expect("decodes"), v, "v = {v}");
            assert_eq!(c.pos(), b.len());
        }
        assert_eq!(uvar_bytes(0), vec![0]);
        assert_eq!(uvar_bytes(127).len(), 1);
        assert_eq!(uvar_bytes(128).len(), 2);
        assert_eq!(uvar_bytes(u64::MAX).len(), 10, "max-width LEB128");
    }

    #[test]
    fn ivar_round_trips_extremes_and_zero() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            let mut b = Vec::new();
            put_ivar(&mut b, v);
            let mut c = Cursor::new(&b);
            assert_eq!(read_ivar(&mut c).expect("decodes"), v, "v = {v}");
        }
        // Zero delta is the common case and must cost one byte.
        let mut b = Vec::new();
        put_ivar(&mut b, 0);
        assert_eq!(b, vec![0]);
    }

    #[test]
    fn truncated_and_overlong_varints_are_rejected() {
        // Every continuation bit set, then the bytes run out.
        for n in 1..10 {
            let bytes = vec![0x80u8; n];
            let mut c = Cursor::new(&bytes);
            assert_eq!(
                read_uvar(&mut c),
                Err(DecodeError::VarintTruncated),
                "truncated at {n}"
            );
        }
        // 10 continuation bytes: longer than any u64 needs.
        let bytes = [0x80u8; 11];
        let mut c = Cursor::new(&bytes);
        assert_eq!(read_uvar(&mut c), Err(DecodeError::VarintOverlong));
        // 10th byte with payload bits above bit 63.
        let mut bytes = vec![0xffu8; 9];
        bytes.push(0x02);
        let mut c = Cursor::new(&bytes);
        assert_eq!(read_uvar(&mut c), Err(DecodeError::VarintOverflow));
    }

    #[test]
    fn a_read_result_stays_two_words() {
        // What every field read returns: small enough to come back in
        // registers, which is the point of not returning a `String`.
        assert!(std::mem::size_of::<DecodeError>() <= 16);
        assert!(std::mem::size_of::<Result<u64, DecodeError>>() <= 16);
    }

    #[test]
    fn float_dictionary_hits_repeat_bit_patterns() {
        let mut enc = DictEncoder::default();
        let mut buf = Vec::new();
        enc.put_f64(&mut buf, 0.5); // literal: 1 + 8 bytes
        assert_eq!(buf.len(), 9);
        enc.put_f64(&mut buf, 0.5); // hit: 1 byte
        assert_eq!(buf.len(), 10);
        enc.put_f64(&mut buf, -0.0); // distinct bits from +0.0
        enc.put_f64(&mut buf, 0.0);
        assert_eq!(buf.len(), 10 + 9 + 9);

        let mut dec = DictDecoder::default();
        let mut c = Cursor::new(&buf);
        assert_eq!(dec.read_f64(&mut c).unwrap().to_bits(), 0.5f64.to_bits());
        assert_eq!(dec.read_f64(&mut c).unwrap().to_bits(), 0.5f64.to_bits());
        assert_eq!(dec.read_f64(&mut c).unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(dec.read_f64(&mut c).unwrap().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn nan_and_inf_dictionary_hits_preserve_bits() {
        // Two NaNs with different payloads are different dictionary
        // entries; the same NaN bits hit.
        let quiet = f64::NAN;
        let payload = f64::from_bits(f64::NAN.to_bits() ^ 0x1);
        let mut enc = DictEncoder::default();
        let mut buf = Vec::new();
        for v in [quiet, f64::INFINITY, payload, quiet, f64::INFINITY, payload] {
            enc.put_f64(&mut buf, v);
        }
        assert_eq!(buf.len(), 3 * 9 + 3, "second pass is all 1-byte hits");
        let mut dec = DictDecoder::default();
        let mut c = Cursor::new(&buf);
        for want in [quiet, f64::INFINITY, payload, quiet, f64::INFINITY, payload] {
            assert_eq!(dec.read_f64(&mut c).unwrap().to_bits(), want.to_bits());
        }
    }

    /// The dictionary as a `HashMap` from bits to slot number: slots in
    /// insertion order, inserts stop at `DICT_CAP`. The reference the
    /// open-addressed [`DictEncoder`] must match byte for byte.
    #[derive(Default)]
    struct ReferenceDict {
        slots: std::collections::HashMap<u64, u32>,
    }

    impl ReferenceDict {
        fn reset(&mut self) {
            self.slots.clear();
        }

        fn put_f64(&mut self, buf: &mut Vec<u8>, v: f64) {
            let bits = v.to_bits();
            if let Some(&slot) = self.slots.get(&bits) {
                put_uvar(buf, u64::from(slot) + 1);
                return;
            }
            put_uvar(buf, 0);
            buf.extend_from_slice(&bits.to_le_bytes());
            if self.slots.len() < DICT_CAP {
                self.slots.insert(bits, self.slots.len() as u32);
            }
        }
    }

    /// One step of a dictionary stream.
    #[derive(Debug, Clone, Copy)]
    enum DictOp {
        Put(u64),
        Reset,
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A seeded stream of `len` steps: a reset with probability
    /// `1 / batch_len`, otherwise a float drawn from signed zeros,
    /// infinities and NaNs with random payloads, small multiples of 0.25
    /// (the low bits telemetry leaves zero), a pool of `pool` random bit
    /// patterns (repeats), or fresh random bits (distinct values, enough
    /// to pass `DICT_CAP` in long batches).
    fn dict_stream(seed: u64, len: usize, batch_len: u64, pool: usize) -> Vec<DictOp> {
        let mut state = seed;
        let pool: Vec<u64> = (0..pool).map(|_| splitmix(&mut state)).collect();
        (0..len)
            .map(|_| {
                let r = splitmix(&mut state);
                if r.is_multiple_of(batch_len) {
                    return DictOp::Reset;
                }
                let r2 = splitmix(&mut state);
                DictOp::Put(match (r >> 32) % 8 {
                    0 => match r2 % 6 {
                        0 => 0.0f64.to_bits(),
                        1 => (-0.0f64).to_bits(),
                        2 => f64::INFINITY.to_bits(),
                        3 => f64::NEG_INFINITY.to_bits(),
                        // NaN: all-ones exponent, any non-zero mantissa,
                        // either sign.
                        _ => (r2 & 0x800F_FFFF_FFFF_FFFF) | 0x7FF0_0000_0000_0001,
                    },
                    1 | 2 => ((r2 % 512) as f64 * 0.25).to_bits(),
                    3..=5 => pool[(r2 % pool.len() as u64) as usize],
                    _ => r2,
                })
            })
            .collect()
    }

    /// Runs `ops` through both dictionaries and asserts every batch
    /// encodes to the same bytes; returns the resets seen.
    fn assert_dicts_agree(ops: &[DictOp]) -> usize {
        let (mut table, mut reference) = (DictEncoder::default(), ReferenceDict::default());
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let mut batch = 0;
        for op in ops.iter().chain([&DictOp::Reset]) {
            match *op {
                DictOp::Put(bits) => {
                    table.put_f64(&mut got, f64::from_bits(bits));
                    reference.put_f64(&mut want, f64::from_bits(bits));
                }
                DictOp::Reset => {
                    assert!(got == want, "batch {batch} encodes differently");
                    table.reset();
                    reference.reset();
                    got.clear();
                    want.clear();
                    batch += 1;
                }
            }
        }
        batch
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn table_dictionary_matches_the_hashmap_reference(
            seed in 0u64..u64::MAX,
            len in 1usize..30_000,
            batch_len in (0usize..5).prop_map(|i| [2u64, 16, 300, 6_000, 40_000][i]),
            pool in 1usize..6_000,
        ) {
            assert_dicts_agree(&dict_stream(seed, len, batch_len, pool));
        }
    }

    #[test]
    fn table_dictionary_matches_past_the_cap_and_across_resets() {
        // Three times the cap in distinct values, then every one again:
        // the first DICT_CAP hit, the rest stay literals.
        let mut ops: Vec<DictOp> = (0..3 * DICT_CAP as u64)
            .map(|k| DictOp::Put((k as f64).to_bits()))
            .collect();
        ops.extend_from_within(..);
        // Thousands of short batches over a small pool: a reset that
        // left a slot behind would turn a literal into a back-reference.
        for k in 0..20_000u64 {
            if k % 5 == 0 {
                ops.push(DictOp::Reset);
            }
            ops.push(DictOp::Put(((k % 7) as f64).to_bits() | ((k % 2) << 63)));
        }
        assert!(assert_dicts_agree(&ops) > 4_000);
    }

    #[test]
    fn dangling_dictionary_reference_is_rejected() {
        let mut buf = Vec::new();
        put_uvar(&mut buf, 3); // reference to entry 2 of an empty dict
        let mut dec = DictDecoder::default();
        let mut c = Cursor::new(&buf);
        assert_eq!(dec.read_f64(&mut c), Err(DecodeError::DictRef { slot: 2 }));
    }

    #[test]
    fn deltas_wrap_so_tenant_none_is_cheap() {
        let mut prev = 0u64;
        let d = delta(&mut prev, TENANT_NONE);
        assert_eq!(d, -1, "u64::MAX from 0 wraps to −1");
        let mut b = Vec::new();
        put_ivar(&mut b, d);
        assert_eq!(b.len(), 1);
        let mut prev2 = 0u64;
        assert_eq!(undelta(&mut prev2, d), TENANT_NONE);
    }

    #[test]
    fn zero_deltas_between_identical_stamps() {
        let rec = |interval: u64| StoredRecord {
            run: RunId(7),
            payload: RecordPayload::Event(RunEvent {
                tenant: Some(3),
                interval,
                kind: EventKind::IntervalStart,
            }),
        };
        let mut enc = BatchEncoder::new();
        let mut buf = Vec::new();
        enc.encode_into(&rec(5), &mut buf);
        let first = buf.len();
        enc.encode_into(&rec(5), &mut buf);
        // kind + etag + flags + three zero deltas = 6 bytes.
        assert_eq!(buf.len() - first, 6, "repeat stamp costs zero-delta bytes");
        let mut dec = BatchDecoder::new();
        let mut c = Cursor::new(&buf);
        assert_eq!(dec.decode_next(&mut c).unwrap(), rec(5));
        assert_eq!(dec.decode_next(&mut c).unwrap(), rec(5));
        assert_eq!(c.pos(), buf.len());
    }

    #[test]
    fn truncated_v2_frames_error_cleanly() {
        let rec = StoredRecord {
            run: RunId(1),
            payload: RecordPayload::Event(RunEvent {
                tenant: Some(2),
                interval: 300,
                kind: EventKind::SloViolation {
                    observed_ms: 151.25,
                    goal_ms: 100.0,
                },
            }),
        };
        let mut enc = BatchEncoder::new();
        let mut buf = Vec::new();
        enc.encode_into(&rec, &mut buf);
        for cut in 0..buf.len() {
            let mut dec = BatchDecoder::new();
            let mut c = Cursor::new(&buf[..cut]);
            assert!(dec.decode_next(&mut c).is_err(), "cut = {cut}");
        }
        let mut dec = BatchDecoder::new();
        let mut c = Cursor::new(&buf);
        assert_eq!(dec.decode_next(&mut c).unwrap(), rec);
    }
}
