//! The benchmark's one wall-clock read.
//!
//! Every timing in the benchmark — spans, pass walls, set-up — is a
//! difference of two [`now_ns`] values, so `dasr-lint`'s D1 rule has a
//! single waived call site to audit.

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process (monotonic).
pub fn now_ns() -> u64 {
    // dasr-lint: allow(D1) reason="benchmark harness: host wall time is the quantity being measured; it never feeds simulated state"
    let now = Instant::now();
    now.duration_since(*EPOCH.get_or_init(|| now)).as_nanos() as u64
}

/// Seconds elapsed since `start_ns` (a [`now_ns`] value).
pub fn secs_since(start_ns: u64) -> f64 {
    (now_ns() - start_ns) as f64 / 1e9
}
