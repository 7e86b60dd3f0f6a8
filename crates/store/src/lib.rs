//! # dasr-store — durable segmented run store with a query API
//!
//! The closed loop produces two streams worth keeping: per-interval
//! telemetry samples (the [`replay`](mod@dasr_core::replay) unit) and
//! structured run events (the [`obs`](dasr_core::obs) stream). This crate
//! persists both in an append-only **segmented binary log** and answers
//! questions about them later — time-range scans, per-tenant event
//! streams, rule-fire aggregation across runs — without re-running
//! anything.
//!
//! ```text
//!  run_fleet_summary ──events──▶ StoreSink ─┐          ┌─▶ scan_range
//!  record_run ───────samples──▶ Store ──────┤ writer,  │   tenant_events
//!                                           ├─one ────▶│   fire_counts
//!  (encoded on the appending thread,        │ lock     └─▶ load_recording ──▶ replay
//!   CRC-framed, deterministic flush —       ▼
//!   DESIGN.md §16)                    seg-NNNNNN.dseg
//!                                     seg-NNNNNN.idx
//!                                     manifest.jsonl
//! ```
//!
//! - [`Store`] — open/recover a store directory, append records under
//!   runs, commit runs to the manifest, query everything back —
//!   [`Store::load_recording`] returns an archived run ready for
//!   [`replay`](dasr_core::replay::replay) through any policy;
//! - [`StoreSink`] — an [`EventSink`](dasr_core::obs::EventSink): stream
//!   a fleet run's events straight to disk;
//! - [`record`], [`codec`], [`segment`], [`index`], [`writer`],
//!   [`cursor`] — the layers: bit-exact record codec (delta/varint/
//!   dictionary framing, the one record format), CRC-framed
//!   batches in numbered segments, sparse per-batch time index with content
//!   filters and fire tallies, the deterministic writer (it writes on
//!   the appending thread, under one lock), and the
//!   streaming/parallel read fast path ([`Query`], [`RecordCursor`]).
//!
//! Floats are stored as raw IEEE-754 bits, so an archived run replays
//! **byte-identically** to its live event stream — the
//! `store_replay_roundtrip` test pins `FleetReport::events_jsonl` against
//! the store→replay reproduction. The on-disk format is specified
//! byte-for-byte in `docs/STORE_FORMAT.md`, and the `format_spec` test
//! decodes that document's worked hex dump with this crate's real
//! decoder, so spec and implementation cannot drift apart.
//!
//! Crash consistency: the batch is the durability quantum. A torn write
//! leaves a tail that fails its CRC; [`Store::open`] truncates to the
//! last intact batch, rebuilds stale index sidecars, cuts off an
//! unterminated manifest tail line (a run is committed iff its
//! newline-terminated line is in the manifest), and never reuses the run
//! id of orphaned records.
//! (Durability is to the OS page cache — the store targets torn-write
//! safety and deterministic bytes, not power-loss fsync guarantees.)

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod codec;
pub mod crc;
pub mod cursor;
pub mod index;
pub mod record;
pub mod segment;
pub mod sink;
pub mod store;
pub mod writer;

pub use cursor::{Query, RecordCursor, Shape};
pub use record::{RecordPayload, RunId, StoredRecord};
pub use sink::StoreSink;
pub use store::{
    FireCounts, RecoveryNote, RunManifest, RunMeta, Store, StoreError, StoreStats, MANIFEST_FILE,
};
pub use writer::WriterConfig;
