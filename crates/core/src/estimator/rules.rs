//! The rule hierarchy over categorized signals (§4.2, §4.3).
//!
//! High-demand scenarios (scale-up), quoted from the paper:
//!
//! - **(a)** utilization HIGH and wait times HIGH with SIGNIFICANT
//!   percentage waits;
//! - **(b)** utilization HIGH, wait times HIGH, percentage waits NOT
//!   SIGNIFICANT, and a SIGNIFICANT increasing trend in utilization and/or
//!   waits;
//! - **(c)** utilization HIGH, wait times MEDIUM, percentage waits
//!   SIGNIFICANT, and a SIGNIFICANT increasing trend;
//! - **(corr)** latency BAD with waits that are SIGNIFICANT and strongly
//!   rank-correlated with latency (the §3.2.2 bottleneck-identification
//!   signal).
//!
//! Every scenario combines two or more signals; when one signal is weak the
//! rules demand corroboration — the crux of turning weakly-predictive
//! signals into an accurate estimate.
//!
//! Low-demand rules test the other end of the spectrum: LOW utilization,
//! LOW waits, and *no* increasing trend.
//!
//! **Legacy oracle.** The production path no longer calls these if-chains:
//! [`DemandEstimator::estimate`](crate::estimator::DemandEstimator::estimate)
//! evaluates the declarative tables in [`crate::rules`] instead. This module
//! is kept verbatim as the reference implementation the decision-equivalence
//! test (`crates/core/tests/decision_equivalence.rs`) pins the tables
//! against, bit-for-bit. Change the rules in `crate::rules`, then mirror the
//! change here so the oracle stays meaningful.

use crate::estimator::EstimatorConfig;
use crate::rules::{DOMINANT_WAIT_PCT, VERY_HIGH_UTIL_PCT, VERY_LOW_UTIL_PCT};
use dasr_telemetry::categorize::{LatencyVerdict, UtilLevel, WaitPctLevel, WaitTimeLevel};
use dasr_telemetry::signals::{LatencySignals, ResourceSignals};

/// Returns the scale-up step and the rule description when a high-demand
/// scenario fires for this resource.
pub fn high_demand(
    cfg: &EstimatorConfig,
    sig: &ResourceSignals,
    latency: &LatencySignals,
) -> Option<(i8, String)> {
    let util_high = sig.util_level == UtilLevel::High;
    let wait_high = sig.wait_level == WaitTimeLevel::High;
    let wait_med = sig.wait_level == WaitTimeLevel::Medium;
    let pct_sig = sig.wait_pct_level == WaitPctLevel::Significant;
    let trending = sig.increasing_pressure_trend();

    // Scenario (a).
    if util_high && wait_high && pct_sig {
        // Extreme pressure with corroborating trend: jump two rungs (§4:
        // 2-step changes are ~8% of real changes).
        if sig.util_pct >= VERY_HIGH_UTIL_PCT && sig.wait_pct >= DOMINANT_WAIT_PCT && trending {
            return Some((
                2,
                format!(
                    "utilization {:.0}% HIGH, waits HIGH, {:.0}% of waits SIGNIFICANT, increasing trend",
                    sig.util_pct, sig.wait_pct
                ),
            ));
        }
        return Some((
            1,
            format!(
                "utilization {:.0}% HIGH, waits HIGH, {:.0}% of waits SIGNIFICANT",
                sig.util_pct, sig.wait_pct
            ),
        ));
    }

    // Scenario (b).
    if util_high && wait_high && !pct_sig && trending {
        return Some((
            1,
            "utilization HIGH, waits HIGH, increasing trend corroborates".to_string(),
        ));
    }

    // Scenario (c).
    if util_high && wait_med && pct_sig && trending {
        return Some((
            1,
            "utilization HIGH, waits MEDIUM but SIGNIFICANT with increasing trend".to_string(),
        ));
    }

    // Correlation rule: latency is bad and strongly tracks this resource's
    // waits — the bottleneck even if utilization is not yet HIGH.
    if latency.verdict == LatencyVerdict::Bad
        && pct_sig
        && sig.wait_level >= WaitTimeLevel::Medium
        && sig.latency_correlated(cfg.corr_threshold)
    {
        return Some((
            1,
            format!(
                "latency BAD and rank-correlated (ρ≥{:.1}) with these waits",
                cfg.corr_threshold
            ),
        ));
    }

    None
}

/// Returns the scale-down step and rule description when demand for this
/// resource is low. Never called for memory (§4.3: ballooning).
pub fn low_demand(sig: &ResourceSignals) -> Option<(i8, String)> {
    let util_low = sig.util_level == UtilLevel::Low;
    let wait_low = sig.wait_level == WaitTimeLevel::Low;
    if util_low && wait_low && sig.no_increasing_trend() {
        if sig.util_pct <= VERY_LOW_UTIL_PCT {
            return Some((
                -2,
                format!("utilization {:.0}% nearly idle, waits LOW", sig.util_pct),
            ));
        }
        return Some((
            -1,
            format!(
                "utilization {:.0}% LOW, waits LOW, no increasing trend",
                sig.util_pct
            ),
        ));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use dasr_containers::ResourceKind;
    use dasr_stats::{Trend, TrendDirection};

    fn cfg() -> EstimatorConfig {
        EstimatorConfig::default()
    }

    fn latency(verdict: LatencyVerdict) -> LatencySignals {
        LatencySignals {
            observed_ms: Some(100.0),
            goal_ms: Some(50.0),
            verdict,
            trend: Trend::None,
        }
    }

    fn sig(
        util: f64,
        util_level: UtilLevel,
        wait_level: WaitTimeLevel,
        pct: f64,
        pct_level: WaitPctLevel,
    ) -> ResourceSignals {
        ResourceSignals {
            kind: ResourceKind::Cpu,
            util_pct: util,
            util_level,
            wait_ms: 1_000.0,
            wait_level,
            wait_pct: pct,
            wait_pct_level: pct_level,
            util_trend: Trend::None,
            wait_trend: Trend::None,
            corr_latency_wait: None,
            corr_latency_util: None,
        }
    }

    fn up() -> Trend {
        Trend::Significant {
            direction: TrendDirection::Increasing,
            slope: 1.0,
            agreement: 0.8,
        }
    }

    #[test]
    fn single_weak_signal_never_fires() {
        // Utilization HIGH alone is not demand (§1's central claim).
        let s = sig(
            85.0,
            UtilLevel::High,
            WaitTimeLevel::Low,
            5.0,
            WaitPctLevel::NotSignificant,
        );
        assert!(high_demand(&cfg(), &s, &latency(LatencyVerdict::Good)).is_none());
        // Waits HIGH alone (low utilization) is not demand either.
        let s = sig(
            10.0,
            UtilLevel::Low,
            WaitTimeLevel::High,
            80.0,
            WaitPctLevel::Significant,
        );
        assert!(high_demand(&cfg(), &s, &latency(LatencyVerdict::Good)).is_none());
    }

    #[test]
    fn scenario_a() {
        let s = sig(
            80.0,
            UtilLevel::High,
            WaitTimeLevel::High,
            50.0,
            WaitPctLevel::Significant,
        );
        let (step, rule) = high_demand(&cfg(), &s, &latency(LatencyVerdict::Good)).unwrap();
        assert_eq!(step, 1);
        assert!(rule.contains("SIGNIFICANT"));
    }

    #[test]
    fn scenario_b_needs_trend() {
        let mut s = sig(
            80.0,
            UtilLevel::High,
            WaitTimeLevel::High,
            5.0,
            WaitPctLevel::NotSignificant,
        );
        assert!(high_demand(&cfg(), &s, &latency(LatencyVerdict::Good)).is_none());
        s.util_trend = up();
        assert_eq!(
            high_demand(&cfg(), &s, &latency(LatencyVerdict::Good))
                .unwrap()
                .0,
            1
        );
    }

    #[test]
    fn scenario_c_needs_trend_and_significance() {
        let mut s = sig(
            80.0,
            UtilLevel::High,
            WaitTimeLevel::Medium,
            60.0,
            WaitPctLevel::Significant,
        );
        assert!(high_demand(&cfg(), &s, &latency(LatencyVerdict::Good)).is_none());
        s.wait_trend = up();
        assert_eq!(
            high_demand(&cfg(), &s, &latency(LatencyVerdict::Good))
                .unwrap()
                .0,
            1
        );
        // Without significance the medium-wait path must not fire.
        let mut weak = sig(
            80.0,
            UtilLevel::High,
            WaitTimeLevel::Medium,
            5.0,
            WaitPctLevel::NotSignificant,
        );
        weak.wait_trend = up();
        assert!(high_demand(&cfg(), &weak, &latency(LatencyVerdict::Good)).is_none());
    }

    #[test]
    fn two_step_requires_everything_extreme() {
        let mut s = sig(
            95.0,
            UtilLevel::High,
            WaitTimeLevel::High,
            85.0,
            WaitPctLevel::Significant,
        );
        // No trend yet: only 1 step.
        assert_eq!(
            high_demand(&cfg(), &s, &latency(LatencyVerdict::Good))
                .unwrap()
                .0,
            1
        );
        s.wait_trend = up();
        assert_eq!(
            high_demand(&cfg(), &s, &latency(LatencyVerdict::Good))
                .unwrap()
                .0,
            2
        );
    }

    #[test]
    fn correlation_rule() {
        let mut s = sig(
            50.0,
            UtilLevel::Medium,
            WaitTimeLevel::Medium,
            70.0,
            WaitPctLevel::Significant,
        );
        s.corr_latency_wait = Some(0.9);
        assert!(
            high_demand(&cfg(), &s, &latency(LatencyVerdict::Good)).is_none(),
            "latency good"
        );
        assert_eq!(
            high_demand(&cfg(), &s, &latency(LatencyVerdict::Bad))
                .unwrap()
                .0,
            1
        );
        s.corr_latency_wait = Some(0.3);
        assert!(
            high_demand(&cfg(), &s, &latency(LatencyVerdict::Bad)).is_none(),
            "weak correlation"
        );
    }

    #[test]
    fn low_demand_rules() {
        let s = sig(
            20.0,
            UtilLevel::Low,
            WaitTimeLevel::Low,
            5.0,
            WaitPctLevel::NotSignificant,
        );
        assert_eq!(low_demand(&s).unwrap().0, -1);
        let s = sig(
            3.0,
            UtilLevel::Low,
            WaitTimeLevel::Low,
            5.0,
            WaitPctLevel::NotSignificant,
        );
        assert_eq!(low_demand(&s).unwrap().0, -2);
        let mut trending = sig(
            20.0,
            UtilLevel::Low,
            WaitTimeLevel::Low,
            5.0,
            WaitPctLevel::NotSignificant,
        );
        trending.wait_trend = up();
        assert!(low_demand(&trending).is_none());
        let busy = sig(
            50.0,
            UtilLevel::Medium,
            WaitTimeLevel::Low,
            5.0,
            WaitPctLevel::NotSignificant,
        );
        assert!(low_demand(&busy).is_none());
    }
}
