//! Stored record types — [`RunEvent`]s and [`SampleRecord`]s stamped
//! with a run — plus the wire tags and the bounds-checked reader the
//! record codec ([`crate::codec`]) is built on.
//!
//! The store is a *binary* log — event JSONL is the interchange format at
//! the edges (sinks), but on disk every record is a compact frame whose
//! floats are stored as raw IEEE-754 bits (`f64::to_bits`). That choice
//! is what makes the store lossless: a float that round-trips through
//! its bits is the *same* float, so a recording loaded back from the
//! store replays to byte-identical event JSONL
//! (`store_replay_roundtrip` pins this).
//!
//! Record types here are R1-protected (`dasr-lint`): no `String` fields —
//! human-readable output is rendered from structure at print time, never
//! stored.

use dasr_core::obs::{EventKind, RunEvent};
use dasr_core::SampleRecord;

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

/// The wire tag of an event kind (shared by the record frames and the
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
}

/// Bounds-checked little-endian reader over a byte slice: the
/// truncation-checked primitive the codec ([`crate::codec`]) layers its
/// varint and float reads on. A read past the end returns `None` and
/// leaves the position where the read started, so the caller can say
/// where the bytes ran out.
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

    /// Length of the whole slice being read.
    pub(crate) fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Reads one byte; `None` on truncation.
    pub fn u8(&mut self) -> Option<u8> {
        let b = *self.bytes.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    /// Reads a little-endian `u64`; `None` on truncation.
    pub fn u64(&mut self) -> Option<u64> {
        let end = self.pos.checked_add(8)?;
        let word = <[u8; 8]>::try_from(self.bytes.get(self.pos..end)?).ok()?;
        self.pos = end;
        Some(u64::from_le_bytes(word))
    }
}
