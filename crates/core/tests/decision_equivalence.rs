//! Golden decision-equivalence test: the declarative §4 rule tables must
//! reproduce the legacy if-chains (the frozen copy in [`legacy`])
//! **bit-for-bit** — same step and same rendered explanation string — over
//! a seeded fleet of 1 000 tenants across a full 1 440-minute horizon of
//! randomized signal sets.
//!
//! The generator samples categorized levels independently of the raw
//! percentages, which covers corners a closed-loop run rarely reaches
//! (e.g. HIGH utilization with a near-idle percentage) and exercises every
//! cut-off in `dasr_core::rules` and the correlation threshold in
//! [`EstimatorConfig`].

mod common;

use common::{random_latency, random_resource};
use dasr_containers::{ResourceKind, RESOURCE_KINDS};
use dasr_core::estimator::EstimatorConfig;
use dasr_core::rules::{
    EvalCtx, DOMINANT_WAIT_PCT, HIGH_DEMAND, LOW_DEMAND, VERY_HIGH_UTIL_PCT, VERY_LOW_UTIL_PCT,
};
use dasr_core::tenant_seed;
use dasr_stats::{Trend, TrendDirection};
use dasr_telemetry::categorize::{LatencyVerdict, UtilLevel, WaitPctLevel, WaitTimeLevel};
use dasr_telemetry::signals::{LatencySignals, ResourceSignals};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A frozen copy of the hand-written §4.2 if-chains the rule tables
/// replaced. Nothing in the library calls them; they are the oracle this
/// suite holds the tables to. Change the rules in `dasr_core::rules`, then
/// mirror the change here so the oracle stays meaningful.
mod legacy {
    use dasr_core::estimator::EstimatorConfig;
    use dasr_core::rules::{DOMINANT_WAIT_PCT, VERY_HIGH_UTIL_PCT, VERY_LOW_UTIL_PCT};
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
        if util_low && wait_low && !sig.increasing_pressure_trend() {
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
}

const TENANTS: u64 = 1_000;
const HORIZON: usize = 1_440;
const FLEET_SEED: u64 = 0x4EC1_51F0;

/// The legacy oracle's answer, exactly as `DemandEstimator::estimate` used
/// to combine the two if-chains: high-demand first, low-demand only when
/// nothing fired and the resource is not memory (§4.3: ballooning handles
/// memory scale-down).
fn oracle(
    cfg: &EstimatorConfig,
    sig: &ResourceSignals,
    latency: &LatencySignals,
) -> Option<(i8, String)> {
    legacy::high_demand(cfg, sig, latency).or_else(|| {
        if sig.kind == ResourceKind::Memory {
            None
        } else {
            legacy::low_demand(sig)
        }
    })
}

/// The rule-table answer, rendered through `RuleFire::render` — the same
/// path `ResourceDemand::rule_text` takes in production.
fn engine(
    cfg: &EstimatorConfig,
    sig: &ResourceSignals,
    latency: &LatencySignals,
) -> Option<(i8, String)> {
    let ctx = EvalCtx::demand(cfg, sig, latency);
    let fired = HIGH_DEMAND.evaluate(&ctx).fired.or_else(|| {
        if sig.kind == ResourceKind::Memory {
            None
        } else {
            LOW_DEMAND.evaluate(&ctx).fired
        }
    });
    fired.map(|f| (f.step, f.render()))
}

#[test]
fn rule_tables_reproduce_legacy_chains_bit_for_bit() {
    let cfg = EstimatorConfig::default();
    let mut mismatches = 0usize;
    let mut fired = 0u64;
    let mut total = 0u64;

    for tenant in 0..TENANTS {
        let mut rng = StdRng::seed_from_u64(tenant_seed(FLEET_SEED, tenant));
        for interval in 0..HORIZON {
            let latency = random_latency(&mut rng);
            for kind in RESOURCE_KINDS {
                let sig = random_resource(&mut rng, kind);
                let want = oracle(&cfg, &sig, &latency);
                let got = engine(&cfg, &sig, &latency);
                total += 1;
                if want.is_some() {
                    fired += 1;
                }
                if want != got {
                    mismatches += 1;
                    assert!(
                        mismatches <= 5,
                        "too many mismatches; first few reported above"
                    );
                    eprintln!(
                        "tenant {tenant} interval {interval} {kind:?}:\n  \
                         legacy = {want:?}\n  tables = {got:?}\n  sig = {sig:?}"
                    );
                }
            }
        }
    }
    assert_eq!(mismatches, 0, "rule tables diverged from the legacy chains");
    assert_eq!(
        total,
        TENANTS * HORIZON as u64 * RESOURCE_KINDS.len() as u64
    );
    // The generator must actually reach the rules: a healthy fraction of
    // the samples fires *something*, in both directions.
    assert!(
        fired > total / 20,
        "generator too weak: only {fired}/{total} samples fired a rule"
    );
}

/// Directed corners the uniform sweep could in principle miss: the exact
/// threshold boundaries of every numeric comparison in the tables.
#[test]
fn threshold_boundaries_agree() {
    let cfg = EstimatorConfig::default();
    let up = Trend::Significant {
        direction: TrendDirection::Increasing,
        slope: 1.0,
        agreement: 0.8,
    };
    let latency_good = LatencySignals {
        observed_ms: Some(10.0),
        goal_ms: Some(50.0),
        verdict: LatencyVerdict::Good,
        trend: Trend::None,
    };
    let latency_bad = LatencySignals {
        observed_ms: Some(100.0),
        goal_ms: Some(50.0),
        verdict: LatencyVerdict::Bad,
        trend: Trend::None,
    };

    let mut cases = Vec::new();
    for util_pct in [
        VERY_LOW_UTIL_PCT - 0.01,
        VERY_LOW_UTIL_PCT,
        VERY_LOW_UTIL_PCT + 0.01,
        VERY_HIGH_UTIL_PCT - 0.01,
        VERY_HIGH_UTIL_PCT,
        VERY_HIGH_UTIL_PCT + 0.01,
    ] {
        for wait_pct in [
            DOMINANT_WAIT_PCT - 0.01,
            DOMINANT_WAIT_PCT,
            DOMINANT_WAIT_PCT + 0.01,
        ] {
            for corr in [
                None,
                Some(cfg.corr_threshold - 0.01),
                Some(cfg.corr_threshold),
                Some(cfg.corr_threshold + 0.01),
            ] {
                for util_level in [UtilLevel::Low, UtilLevel::Medium, UtilLevel::High] {
                    for wait_level in [
                        WaitTimeLevel::Low,
                        WaitTimeLevel::Medium,
                        WaitTimeLevel::High,
                    ] {
                        for pct_level in [WaitPctLevel::NotSignificant, WaitPctLevel::Significant] {
                            for trend in [Trend::None, up] {
                                cases.push(ResourceSignals {
                                    kind: ResourceKind::Cpu,
                                    util_pct,
                                    util_level,
                                    wait_ms: 500.0,
                                    wait_level,
                                    wait_pct,
                                    wait_pct_level: pct_level,
                                    util_trend: trend,
                                    wait_trend: Trend::None,
                                    corr_latency_wait: corr,
                                    corr_latency_util: None,
                                });
                            }
                        }
                    }
                }
            }
        }
    }
    for sig in &cases {
        for latency in [&latency_good, &latency_bad] {
            assert_eq!(
                oracle(&cfg, sig, latency),
                engine(&cfg, sig, latency),
                "boundary case diverged: {sig:?}"
            );
        }
    }
}
