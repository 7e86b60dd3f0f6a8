//! # dasr-telemetry — the Telemetry Manager (paper §3)
//!
//! Mature database engines monitor hundreds of counters; the Telemetry
//! Manager transforms that raw *production telemetry* into a small set of
//! statistically-robust **signals** usable for demand estimation:
//!
//! 1. **Raw signals** (§3.1) — latency (average or 95th percentile, per the
//!    tenant's goal), per-resource utilization (robust medians over
//!    windows), and per-resource wait statistics, both *magnitude* (wait ms
//!    per completed request) and *percentage* (share of resource waits),
//!    plus the lock share of waits;
//! 2. **Derived signals** (§3.2) — Theil–Sen trends accepted only with
//!    ≥70% slope-sign agreement, and Spearman rank correlations between
//!    latency and each resource's utilization/waits;
//! 3. **Categorization** (§4.1) — thresholds turn continuous signals into
//!    categories with semantics (`LOW`/`MEDIUM`/`HIGH` utilization and
//!    waits, `SIGNIFICANT` wait percentages, `GOOD`/`BAD` latency). The
//!    wait thresholds are *derived from service-wide telemetry* — see
//!    [`thresholds::derive_wait_thresholds`] and the `dasr-fleet` crate.
//!
//! The output is a [`SignalSet`], the sole input of the
//! resource demand estimator in `dasr-core`.
//!
//! The [`source`] module defines *where samples come from and where resize
//! commands go*: the [`TelemetrySource`]/[`ResizeActuator`] seam that the
//! closed loop in `dasr-core` is generic over, with the discrete-event
//! simulator as just one backend.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod categorize;
pub mod counters;
pub mod manager;
pub mod signals;
pub mod source;
pub mod thresholds;

pub use categorize::{LatencyVerdict, ResourceCategories, UtilLevel, WaitPctLevel, WaitTimeLevel};
pub use counters::{LatencyGoal, TelemetrySample};
pub use manager::{TelemetryConfig, TelemetryManager, CORR_WINDOW, SMOOTHING_WINDOW, TREND_WINDOW};
pub use signals::{LatencySignals, ResourceSignals, SignalSet};
pub use source::{NullActuator, ProbeStatus, ResizeActuator, SourcePair, TelemetrySource};
pub use thresholds::{ThresholdConfig, WaitThresholds};
