//! Categorization: continuous signals → semantic categories (§4.1).
//!
//! "Once thresholds are applied to the signals, it transforms the signals
//! from a continuous value domain to a categorical value domain where each
//! category has easy-to-understand semantics" — the property that makes the
//! rule hierarchy explainable.

use crate::thresholds::{ThresholdConfig, WaitThresholds};
use dasr_containers::ResourceKind;
use std::fmt;

/// Utilization category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum UtilLevel {
    /// Below the low threshold.
    Low,
    /// Between thresholds.
    Medium,
    /// At or above the high threshold.
    High,
}

/// Wait-time (magnitude) category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum WaitTimeLevel {
    /// At or below the low cut-off.
    Low,
    /// Between cut-offs.
    Medium,
    /// At or above the high cut-off.
    High,
}

/// Wait-percentage category.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitPctLevel {
    /// Below the significance threshold.
    NotSignificant,
    /// At or above the significance threshold.
    Significant,
}

/// Latency verdict against the tenant's goal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyVerdict {
    /// The goal is met (or no goal / no traffic).
    Good,
    /// The goal is violated.
    Bad,
}

impl fmt::Display for UtilLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            UtilLevel::Low => "LOW",
            UtilLevel::Medium => "MEDIUM",
            UtilLevel::High => "HIGH",
        })
    }
}

impl fmt::Display for WaitTimeLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            WaitTimeLevel::Low => "LOW",
            WaitTimeLevel::Medium => "MEDIUM",
            WaitTimeLevel::High => "HIGH",
        })
    }
}

impl fmt::Display for WaitPctLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            WaitPctLevel::NotSignificant => "NOT SIGNIFICANT",
            WaitPctLevel::Significant => "SIGNIFICANT",
        })
    }
}

impl fmt::Display for LatencyVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LatencyVerdict::Good => "GOOD",
            LatencyVerdict::Bad => "BAD",
        })
    }
}

/// One resource dimension's complete categorical snapshot — the §4.1
/// categorical value domain as a value.
///
/// The rule engine's predicates (`dasr-core::rules`) match on this struct
/// rather than re-deriving categories from the continuous signals, so a
/// decision trace can record *exactly* the categorical facts the rules saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceCategories {
    /// Utilization category.
    pub util: UtilLevel,
    /// Wait-magnitude category.
    pub wait: WaitTimeLevel,
    /// Wait-percentage category.
    pub wait_pct: WaitPctLevel,
}

impl fmt::Display for ResourceCategories {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "util {} / waits {} / share {}",
            self.util, self.wait, self.wait_pct
        )
    }
}

/// Categorizes a utilization percentage.
pub fn categorize_util(cfg: &ThresholdConfig, util_pct: f64) -> UtilLevel {
    if util_pct >= cfg.util_high_pct {
        UtilLevel::High
    } else if util_pct <= cfg.util_low_pct {
        UtilLevel::Low
    } else {
        UtilLevel::Medium
    }
}

/// Categorizes a wait magnitude against `thresholds` (same unit).
pub fn categorize_wait_ms(thresholds: &WaitThresholds, wait_ms: f64) -> WaitTimeLevel {
    if wait_ms >= thresholds.high_ms {
        WaitTimeLevel::High
    } else if wait_ms <= thresholds.low_ms {
        WaitTimeLevel::Low
    } else {
        WaitTimeLevel::Medium
    }
}

/// Categorizes a wait percentage against `thresholds`.
pub fn categorize_wait_pct(thresholds: &WaitThresholds, wait_pct: f64) -> WaitPctLevel {
    if wait_pct >= thresholds.significant_pct {
        WaitPctLevel::Significant
    } else {
        WaitPctLevel::NotSignificant
    }
}

/// Categorizes a resource's utilization with the per-resource thresholds.
pub fn categorize_resource_util(
    cfg: &ThresholdConfig,
    _kind: ResourceKind,
    util_pct: f64,
) -> UtilLevel {
    categorize_util(cfg, util_pct)
}

/// Categorizes latency against a goal; `None` latency (idle interval) is
/// GOOD — no traffic cannot violate a goal.
pub fn categorize_latency(observed_ms: Option<f64>, goal_ms: Option<f64>) -> LatencyVerdict {
    match (observed_ms, goal_ms) {
        (Some(obs), Some(goal)) if obs > goal => LatencyVerdict::Bad,
        _ => LatencyVerdict::Good,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ThresholdConfig {
        ThresholdConfig::default()
    }

    #[test]
    fn utilization_boundaries() {
        let c = cfg(); // low 30, high 70
        assert_eq!(categorize_util(&c, 0.0), UtilLevel::Low);
        assert_eq!(categorize_util(&c, 30.0), UtilLevel::Low);
        assert_eq!(categorize_util(&c, 30.1), UtilLevel::Medium);
        assert_eq!(categorize_util(&c, 69.9), UtilLevel::Medium);
        assert_eq!(categorize_util(&c, 70.0), UtilLevel::High);
        assert_eq!(categorize_util(&c, 100.0), UtilLevel::High);
    }

    #[test]
    fn wait_boundaries() {
        let t = WaitThresholds {
            low_ms: 10.0,
            high_ms: 100.0,
            significant_pct: 40.0,
        };
        assert_eq!(categorize_wait_ms(&t, 5.0), WaitTimeLevel::Low);
        assert_eq!(categorize_wait_ms(&t, 10.0), WaitTimeLevel::Low);
        assert_eq!(categorize_wait_ms(&t, 50.0), WaitTimeLevel::Medium);
        assert_eq!(categorize_wait_ms(&t, 100.0), WaitTimeLevel::High);
        assert_eq!(categorize_wait_pct(&t, 39.9), WaitPctLevel::NotSignificant);
        assert_eq!(categorize_wait_pct(&t, 40.0), WaitPctLevel::Significant);
    }

    #[test]
    fn latency_verdicts() {
        assert_eq!(
            categorize_latency(Some(99.0), Some(100.0)),
            LatencyVerdict::Good
        );
        assert_eq!(
            categorize_latency(Some(100.0), Some(100.0)),
            LatencyVerdict::Good
        );
        assert_eq!(
            categorize_latency(Some(101.0), Some(100.0)),
            LatencyVerdict::Bad
        );
        assert_eq!(categorize_latency(None, Some(100.0)), LatencyVerdict::Good);
        assert_eq!(categorize_latency(Some(1e9), None), LatencyVerdict::Good);
    }

    #[test]
    fn levels_are_ordered() {
        assert!(UtilLevel::Low < UtilLevel::Medium);
        assert!(UtilLevel::Medium < UtilLevel::High);
        assert!(WaitTimeLevel::Low < WaitTimeLevel::High);
    }

    #[test]
    fn display_matches_paper_vocabulary() {
        assert_eq!(UtilLevel::High.to_string(), "HIGH");
        assert_eq!(WaitPctLevel::Significant.to_string(), "SIGNIFICANT");
        assert_eq!(LatencyVerdict::Bad.to_string(), "BAD");
    }
}
