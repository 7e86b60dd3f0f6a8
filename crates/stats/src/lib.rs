//! # dasr-stats — robust statistics for noisy telemetry
//!
//! Statistical substrate for the SIGMOD'16 paper *Automated Demand-driven
//! Resource Scaling in Relational Database-as-a-Service*.
//!
//! System telemetry is noisy: workload spikes, checkpoints and transient
//! system activity inject large outliers. The paper (§3) therefore insists on
//! estimators with a high *breakdown point* — the fraction of arbitrarily
//! corrupted observations an estimator tolerates before producing an
//! arbitrarily wrong answer. This crate provides:
//!
//! - [`quantile`] — medians and percentiles (breakdown point 50% for the
//!   median), both nearest-rank and linearly interpolated;
//! - [`theil_sen()`] — the Theil–Sen slope estimator (breakdown point 29%) with
//!   the paper's α-sign-agreement trend-acceptance test (§3.2.1);
//! - [`rank`] / [`spearman()`] — average-rank computation and Spearman's ρ
//!   (§3.2.2), robust to outliers because values are first mapped to ranks;
//! - [`pearson()`] — Pearson correlation (used internally by Spearman);
//! - [`SlidingTheilSen`] / [`SlidingRanks`] — the trend test and the rank
//!   correlation over a sliding window at O(window) per sample, returning
//!   the batch kernels' results bit for bit (the telemetry manager's
//!   per-interval path);
//! - [`exact`] — error-free `f64` accumulation ([`ExactSum`], Shewchuk
//!   expansions): grouping- and order-independent sums, the numerical
//!   backbone of the fleet scheduler's sharded monoid merge;
//! - [`token_bucket`] — the traffic-shaping token bucket the budget manager
//!   (§5) is built on.
//!
//! All functions are deterministic and allocation-conscious; the hot paths
//! (`median_of_mut`, Theil–Sen over bounded windows) avoid re-allocating.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod exact;
pub mod pearson;
pub mod quantile;
pub mod rank;
mod ring;
pub mod spearman;
pub mod theil_sen;
pub mod token_bucket;

pub use exact::ExactSum;
pub use pearson::{pearson, pearson_of_finite};
pub use quantile::{
    median, median_in, median_of_finite_mut, median_of_mut, percentile, percentile_in,
    percentile_interpolated, percentile_interpolated_in,
};
pub use rank::{average_ranks, average_ranks_in};
pub use spearman::{spearman, spearman_in, SlidingRanks, SpearmanScratch};
pub use theil_sen::{theil_sen, SlidingTheilSen, TheilSen, Trend, TrendDirection, TrendScratch};
pub use token_bucket::TokenBucket;
