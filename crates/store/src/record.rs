//! Stored record types, and the decoder for the v1 record format:
//! [`RunEvent`]s and [`SampleRecord`]s as fixed-layout little-endian
//! frames.
//!
//! The store is a *binary* log — event JSONL is the interchange format at
//! the edges (sinks), but on disk every record is a compact frame whose
//! floats are stored as raw IEEE-754 bits (`f64::to_bits`). That choice
//! is what makes the store lossless: a float that round-trips through
//! its bits is the *same* float, so a recording loaded back from the
//! store replays to byte-identical event JSONL
//! (`store_replay_roundtrip` pins this).
//!
//! New segments are written by [`crate::codec`] (v2). The v1 frames
//! this module decodes exist only in segments written by earlier
//! builds, so there is no v1 encoder: the decoder's fixtures are the
//! worked hex dumps in `docs/STORE_FORMAT.md` §7, which the
//! `format_spec` test feeds through it.
//!
//! Record types here are R1-protected (`dasr-lint`): no `String` fields —
//! human-readable output is rendered from structure at print time, never
//! stored.

use dasr_containers::RESOURCE_KINDS;
use dasr_core::obs::{BalloonPhase, DenyReason, EventKind, RunEvent};
use dasr_core::SampleRecord;
use dasr_engine::waits::WAIT_CLASSES;
use dasr_telemetry::{ProbeStatus, TelemetrySample};

/// Record kind tag: a [`RunEvent`] frame.
pub const KIND_EVENT: u8 = 1;
/// Record kind tag: a [`SampleRecord`] frame.
pub const KIND_SAMPLE: u8 = 2;

/// Wire encoding of "no tenant stamp".
pub const TENANT_NONE: u64 = u64::MAX;

/// Event-kind tags (field `etag` of an event frame).
pub mod etag {
    /// [`super::EventKind::IntervalStart`].
    pub const INTERVAL_START: u8 = 0;
    /// [`super::EventKind::IntervalEnd`].
    pub const INTERVAL_END: u8 = 1;
    /// [`super::EventKind::ResizeIssued`].
    pub const RESIZE_ISSUED: u8 = 2;
    /// [`super::EventKind::ResizeDenied`].
    pub const RESIZE_DENIED: u8 = 3;
    /// [`super::EventKind::BudgetThrottle`].
    pub const BUDGET_THROTTLE: u8 = 4;
    /// [`super::EventKind::BalloonTrigger`].
    pub const BALLOON_TRIGGER: u8 = 5;
    /// [`super::EventKind::SloViolation`].
    pub const SLO_VIOLATION: u8 = 6;

    /// Number of distinct event tags.
    pub const COUNT: u8 = 7;
}

/// The wire tag of an event kind (shared by both frame formats and the
/// index's per-batch kind bitmap).
// dasr-lint: no-alloc
pub fn etag_of(kind: &EventKind) -> u8 {
    match kind {
        EventKind::IntervalStart => etag::INTERVAL_START,
        EventKind::IntervalEnd { .. } => etag::INTERVAL_END,
        EventKind::ResizeIssued { .. } => etag::RESIZE_ISSUED,
        EventKind::ResizeDenied { .. } => etag::RESIZE_DENIED,
        EventKind::BudgetThrottle { .. } => etag::BUDGET_THROTTLE,
        EventKind::BalloonTrigger { .. } => etag::BALLOON_TRIGGER,
        EventKind::SloViolation { .. } => etag::SLO_VIOLATION,
    }
}

/// Flag bits shared by event and sample frames.
pub(crate) mod flag {
    /// Event: `latency_ms`/`target_mb` present. Sample: `latency_ms`
    /// present.
    pub const OPT_A: u8 = 1 << 0;
    /// Sample: `avg_latency_ms` present.
    pub const OPT_B: u8 = 1 << 1;
    /// Sample: balloon probe active.
    pub const PROBE_ACTIVE: u8 = 1 << 2;
    /// Sample: active probe reached its target.
    pub const PROBE_REACHED: u8 = 1 << 3;
}

/// A run's identity within one store: dense, assigned by
/// [`Store::begin_run`](crate::Store::begin_run) in open order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RunId(pub u32);

impl std::fmt::Display for RunId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "run-{:04}", self.0)
    }
}

/// What a stored record carries: one of the two telemetry shapes that
/// cross the closed loop's seams.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecordPayload {
    /// A structured run event (the `core::obs` stream).
    Event(RunEvent),
    /// A per-interval telemetry sample + probe state (the `core::replay`
    /// unit — what [`ReplaySource`](dasr_core::ReplaySource) plays back).
    Sample(SampleRecord),
}

/// One record of the segmented log: a run-stamped payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoredRecord {
    /// The run this record belongs to.
    pub run: RunId,
    /// The payload.
    pub payload: RecordPayload,
}

impl StoredRecord {
    /// The record's billing interval (what the sparse time index ranges
    /// over).
    // dasr-lint: no-alloc
    pub fn interval(&self) -> u64 {
        match &self.payload {
            RecordPayload::Event(ev) => ev.interval,
            RecordPayload::Sample(s) => s.sample.interval,
        }
    }

    /// The record's tenant stamp, if any.
    // dasr-lint: no-alloc
    pub fn tenant(&self) -> Option<u64> {
        match &self.payload {
            RecordPayload::Event(ev) => ev.tenant,
            RecordPayload::Sample(s) => s.tenant,
        }
    }

    /// Decodes one wire frame from the front of `bytes`; returns the
    /// record and the number of bytes consumed.
    pub fn decode(bytes: &[u8]) -> Result<(Self, usize), String> {
        let mut c = Cursor::new(bytes);
        let body_len = c.u16()? as usize;
        let frame_len = 2 + body_len;
        if bytes.len() < frame_len {
            return Err(format!(
                "record frame truncated: header promises {body_len} body bytes, {} available",
                bytes.len() - 2
            ));
        }
        let run = RunId(c.u32()?);
        let kind = c.u8()?;
        let payload = match kind {
            KIND_EVENT => RecordPayload::Event(decode_event(&mut c)?),
            KIND_SAMPLE => RecordPayload::Sample(decode_sample(&mut c)?),
            other => return Err(format!("unknown record kind {other}")),
        };
        if c.pos != frame_len {
            return Err(format!(
                "record frame length mismatch: header promises {frame_len} bytes, decoder consumed {}",
                c.pos
            ));
        }
        Ok((Self { run, payload }, frame_len))
    }
}

/// Event frame body: `tenant u64 | interval u64 | etag u8 | flags u8 |
/// a u64 | b u64 | c u64` (42 bytes; unused of a/b/c are zero).
fn decode_event(c: &mut Cursor<'_>) -> Result<RunEvent, String> {
    let tenant = opt_tenant(c.u64()?);
    let interval = c.u64()?;
    let tag = c.u8()?;
    let flags = c.u8()?;
    let a = c.u64()?;
    let b = c.u64()?;
    let cc = c.u64()?;
    let kind = match tag {
        etag::INTERVAL_START => EventKind::IntervalStart,
        etag::INTERVAL_END => EventKind::IntervalEnd {
            latency_ms: (flags & flag::OPT_A != 0).then(|| f64::from_bits(a)),
            completed: b,
            rejected: cc,
        },
        etag::RESIZE_ISSUED => EventKind::ResizeIssued {
            from_rung: a as u8,
            to_rung: b as u8,
        },
        etag::RESIZE_DENIED => EventKind::ResizeDenied {
            reason: match a {
                0 => DenyReason::Cooldown,
                1 => DenyReason::Budget,
                other => return Err(format!("unknown deny-reason code {other}")),
            },
        },
        etag::BUDGET_THROTTLE => EventKind::BudgetThrottle {
            headroom_pct: f64::from_bits(a),
        },
        etag::BALLOON_TRIGGER => EventKind::BalloonTrigger {
            phase: match a {
                0 => BalloonPhase::Started,
                1 => BalloonPhase::Aborted,
                2 => BalloonPhase::Confirmed,
                other => return Err(format!("unknown balloon-phase code {other}")),
            },
            target_mb: (flags & flag::OPT_A != 0).then(|| f64::from_bits(b)),
        },
        etag::SLO_VIOLATION => EventKind::SloViolation {
            observed_ms: f64::from_bits(a),
            goal_ms: f64::from_bits(b),
        },
        other => return Err(format!("unknown event tag {other}")),
    };
    Ok(RunEvent {
        tenant,
        interval,
        kind,
    })
}

/// Sample frame body: `tenant u64 | interval u64 | flags u8 | n_util u8 |
/// n_wait u8 | util f64-bits×n_util | wait f64-bits×n_wait | latency u64 |
/// avg u64 | completed u64 | arrivals u64 | rejected u64 | mem_used u64 |
/// mem_cap u64 | disk_rps u64` (171 bytes at the current arities).
fn decode_sample(c: &mut Cursor<'_>) -> Result<SampleRecord, String> {
    let tenant = opt_tenant(c.u64()?);
    let interval = c.u64()?;
    let flags = c.u8()?;
    let n_util = c.u8()? as usize;
    let n_wait = c.u8()? as usize;
    if n_util != RESOURCE_KINDS.len() || n_wait != WAIT_CLASSES.len() {
        return Err(format!(
            "sample arity mismatch: frame has {n_util} util / {n_wait} wait slots, \
             this build expects {} / {}",
            RESOURCE_KINDS.len(),
            WAIT_CLASSES.len()
        ));
    }
    let mut util_pct = [0.0; RESOURCE_KINDS.len()];
    for slot in &mut util_pct {
        *slot = f64::from_bits(c.u64()?);
    }
    let mut wait_ms = [0.0; WAIT_CLASSES.len()];
    for slot in &mut wait_ms {
        *slot = f64::from_bits(c.u64()?);
    }
    let latency_bits = c.u64()?;
    let avg_bits = c.u64()?;
    let completed = c.u64()?;
    let arrivals = c.u64()?;
    let rejected = c.u64()?;
    let mem_used_mb = f64::from_bits(c.u64()?);
    let mem_capacity_mb = f64::from_bits(c.u64()?);
    let disk_reads_per_sec = f64::from_bits(c.u64()?);
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
            latency_ms: (flags & flag::OPT_A != 0).then(|| f64::from_bits(latency_bits)),
            avg_latency_ms: (flags & flag::OPT_B != 0).then(|| f64::from_bits(avg_bits)),
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

// dasr-lint: no-alloc
fn opt_tenant(wire: u64) -> Option<u64> {
    (wire != TENANT_NONE).then_some(wire)
}

/// Bounds-checked little-endian reader over a byte slice. Shared with
/// the v2 codec ([`crate::codec`]), which layers varint reads on top of
/// the same truncation-checked primitive.
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bytes consumed so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                // dasr-lint: allow(G3) reason="end is checked_add-filtered to at most bytes.len() before slicing"
                let out = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(out)
            }
            None => Err(format!(
                "record truncated at byte {} (wanted {n} more of {})",
                self.pos,
                self.bytes.len()
            )),
        }
    }

    /// Reads one byte; errors on truncation.
    pub fn u8(&mut self) -> Result<u8, String> {
        match self.bytes.get(self.pos) {
            Some(&b) => {
                self.pos += 1;
                Ok(b)
            }
            None => Err(format!(
                "record truncated at byte {} (wanted 1 more of {})",
                self.pos,
                self.bytes.len()
            )),
        }
    }

    fn u16(&mut self) -> Result<u16, String> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, String> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`; errors on truncation.
    pub fn u64(&mut self) -> Result<u64, String> {
        let b = self.take(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(b);
        Ok(u64::from_le_bytes(arr))
    }
}
