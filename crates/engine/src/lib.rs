//! # dasr-engine — a discrete-event multi-resource database-server simulator
//!
//! The paper prototyped its auto-scaler inside Microsoft Azure SQL Database;
//! the estimator itself, however, only consumes *generic* engine telemetry:
//! per-resource utilization, per-wait-class wait times, and request
//! latencies (§3). This crate is the substitute substrate — a deterministic
//! discrete-event simulation of a database server inside a resource
//! container, producing exactly that telemetry from first-principles
//! queueing behaviour:
//!
//! - [`cpu`] — a multi-core scheduler with fractional-core speeds; time in
//!   the ready queue is the **signal wait** (`WaitClass::Cpu`);
//! - [`bufferpool`] — an LRU page cache sized by the container's memory,
//!   with **ballooning** support (§4.3): gradual shrink toward a target and
//!   instrumentation of the resulting extra disk I/O;
//! - [`device`] — FIFO rate-limited devices for data-file I/O (IOPS) and
//!   transaction-log writes (MB/s); queue + service time is the I/O wait;
//! - [`locks`] — a FIFO shared/exclusive lock manager producing the
//!   *application-level* lock waits that Figure 13 shows extra resources
//!   cannot fix;
//! - [`grants`] — memory-grant admission control producing memory waits;
//! - [`waits`] / [`meter`] — the simulator's `sys.dm_os_wait_stats` and
//!   utilization counters;
//! - [`engine`] — the event loop tying it together, with online container
//!   resizing.
//!
//! Requests are sequences of [`request::Op`]s (CPU bursts, page accesses,
//! log writes, lock acquisitions, memory grants, think time). Workload
//! generators live in `dasr-workloads`.
//!
//! The decision loop never calls this crate directly: it observes and
//! actuates through the `TelemetrySource`/`ResizeActuator` traits in
//! `dasr-telemetry`, with the engine wrapped as `dasr_core`'s
//! `SimulatorSource` — one backend among others (e.g. recorded-run
//! replay). Nothing here changed for that seam; [`Engine`]'s public
//! stepping/resize/balloon API *is* the adapter surface.
//!
//! ## Invariants (tested)
//!
//! - Wait conservation: request latency = CPU service + think time + the sum
//!   of all recorded waits for that request.
//! - Utilization never exceeds 100% of the allocated capacity.
//! - Determinism: identical inputs produce identical telemetry.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must surface errors, not crash or chat on stdout:
// unwraps are for tests, printing is for the bench/lint CLIs, and
// float equality is only meaningful in the stats oracle tests.
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod bufferpool;
pub mod config;
pub mod cpu;
pub mod device;
pub mod engine;
pub mod governor;
pub mod grants;
pub mod locks;
pub mod meter;
pub mod oracle;
pub mod request;
pub mod slab;
pub mod time;
pub mod waits;

pub use config::EngineConfig;
pub use engine::{Engine, IntervalStats};
pub use oracle::OracleEngine;
pub use request::{Op, RequestSpec};
pub use time::SimTime;
pub use waits::{WaitClass, WaitStats, WAIT_CLASSES};
