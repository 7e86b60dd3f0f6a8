//! The randomized signal generator behind the `decision_stream` that
//! `decide_capacity` and `explanation_hash` drive. It draws levels
//! independently of the percentages they categorize, so it also reaches
//! inputs the telemetry manager cannot produce (HIGH utilization at a
//! near-idle percentage); `decision_domain` covers the consistent domain
//! exhaustively.

use dasr_containers::ResourceKind;
use dasr_stats::{Trend, TrendDirection};
use dasr_telemetry::categorize::{LatencyVerdict, UtilLevel, WaitPctLevel, WaitTimeLevel};
use dasr_telemetry::signals::{LatencySignals, ResourceSignals};
use rand::rngs::StdRng;
use rand::Rng;

fn random_trend(rng: &mut StdRng) -> Trend {
    match rng.gen_range(0..4u32) {
        0 | 1 => Trend::None,
        2 => Trend::Significant {
            direction: TrendDirection::Increasing,
            slope: rng.gen_range(0.01..5.0),
            agreement: rng.gen_range(0.5..1.0),
        },
        _ => Trend::Significant {
            direction: TrendDirection::Decreasing,
            slope: -rng.gen_range(0.01..5.0),
            agreement: rng.gen_range(0.5..1.0),
        },
    }
}

pub fn random_resource(rng: &mut StdRng, kind: ResourceKind) -> ResourceSignals {
    ResourceSignals {
        kind,
        util_pct: rng.gen_range(0.0..100.0),
        util_level: match rng.gen_range(0..3u32) {
            0 => UtilLevel::Low,
            1 => UtilLevel::Medium,
            _ => UtilLevel::High,
        },
        wait_ms: rng.gen_range(0.0..10_000.0),
        wait_level: match rng.gen_range(0..3u32) {
            0 => WaitTimeLevel::Low,
            1 => WaitTimeLevel::Medium,
            _ => WaitTimeLevel::High,
        },
        wait_pct: rng.gen_range(0.0..100.0),
        wait_pct_level: if rng.gen_bool(0.5) {
            WaitPctLevel::Significant
        } else {
            WaitPctLevel::NotSignificant
        },
        util_trend: random_trend(rng),
        wait_trend: random_trend(rng),
        corr_latency_wait: rng.gen_bool(0.5).then(|| rng.gen_range(-1.0..1.0)),
        corr_latency_util: rng.gen_bool(0.5).then(|| rng.gen_range(-1.0..1.0)),
    }
}

pub fn random_latency(rng: &mut StdRng) -> LatencySignals {
    let goal_ms = rng.gen_bool(0.8).then(|| rng.gen_range(1.0..500.0));
    LatencySignals {
        observed_ms: rng.gen_bool(0.9).then(|| rng.gen_range(0.1..5_000.0)),
        goal_ms,
        verdict: if goal_ms.is_some() && rng.gen_bool(0.5) {
            LatencyVerdict::Bad
        } else {
            LatencyVerdict::Good
        },
        trend: random_trend(rng),
    }
}
