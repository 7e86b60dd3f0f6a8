//! Signal thresholds and their derivation from service-wide telemetry (§4.1).
//!
//! Latency and utilization thresholds are straightforward (the tenant's goal
//! splits GOOD/BAD; administrators' 30/70 rules split LOW/MEDIUM/HIGH).
//! Wait thresholds are not: Figure 4 shows waits spanning six orders of
//! magnitude at any utilization. The paper's approach — reproduced in
//! [`derive_wait_thresholds`] — is to split fleet-wide wait observations by
//! the corresponding resource's utilization (low <30%, high >70%) and read
//! thresholds off the two conditional distributions, which Figure 6 shows
//! are clearly separated.

use dasr_containers::{ResourceKind, RESOURCE_KINDS};
use dasr_stats::percentile;

/// Wait-time category boundaries for one resource, in the unit of the wait
/// signal they categorize: milliseconds per completed request for the
/// telemetry manager.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaitThresholds {
    /// Waits at or below this are LOW.
    pub low_ms: f64,
    /// Waits at or above this are HIGH (between: MEDIUM).
    pub high_ms: f64,
    /// Percentage waits at or above this are SIGNIFICANT.
    pub significant_pct: f64,
}

impl WaitThresholds {
    /// Validates the invariant `low <= high`.
    pub fn validated(self) -> Self {
        assert!(
            self.low_ms <= self.high_ms,
            "wait thresholds inverted: low {} > high {}",
            self.low_ms,
            self.high_ms
        );
        assert!(
            (0.0..=100.0).contains(&self.significant_pct),
            "significant_pct out of range"
        );
        self
    }
}

/// All thresholds the categorizer needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdConfig {
    /// Utilization at or below this is LOW (paper: 30%).
    pub util_low_pct: f64,
    /// Utilization at or above this is HIGH (paper: 70–80%).
    pub util_high_pct: f64,
    /// Per-resource wait thresholds.
    pub waits: [WaitThresholds; RESOURCE_KINDS.len()],
}

impl Default for ThresholdConfig {
    fn default() -> Self {
        Self::DEFAULT
    }
}

impl ThresholdConfig {
    /// Defaults for the closed-loop telemetry manager, which normalizes
    /// wait magnitudes to **milliseconds per completed request** so the
    /// categories are throughput-invariant (the paper instead re-derives
    /// absolute thresholds per container size and cluster; normalization
    /// stands in for that re-derivation). A healthy request waits well under
    /// 2 ms per resource; sustained governor throttling pushes per-request
    /// waits past 25 ms.
    pub const DEFAULT: Self = Self {
        util_low_pct: 30.0,
        util_high_pct: 70.0,
        waits: [WaitThresholds {
            low_ms: 2.0,
            high_ms: 25.0,
            significant_pct: 40.0,
        }; RESOURCE_KINDS.len()],
    };

    /// Wait thresholds for one resource dimension.
    pub fn waits_for(&self, kind: ResourceKind) -> &WaitThresholds {
        &self.waits[kind.index()]
    }

    /// Mutable wait thresholds for one resource dimension.
    pub fn waits_for_mut(&mut self, kind: ResourceKind) -> &mut WaitThresholds {
        &mut self.waits[kind.index()]
    }

    /// Checks invariants on every field.
    pub fn validated(self) -> Self {
        assert!(
            0.0 <= self.util_low_pct
                && self.util_low_pct < self.util_high_pct
                && self.util_high_pct <= 100.0,
            "utilization thresholds must satisfy 0 <= low < high <= 100"
        );
        for w in &self.waits {
            let _ = w.validated();
        }
        self
    }
}

/// Derives wait thresholds for one resource from fleet-wide conditional
/// distributions (§4.1):
///
/// - `LOW` cut-off: the 90th percentile of waits observed while the
///   resource's utilization was *low* — below it, waits look like the idle
///   population;
/// - `HIGH` cut-off: the 75th percentile of waits observed while
///   utilization was *high*;
/// - `SIGNIFICANT` percentage: the midpoint between the 80th percentile of
///   percentage-waits under low utilization (Fig 6(c): 20–30%) and the
///   median percentage-waits under high utilization (Fig 6(d): 60–95%).
///
/// Returns `None` when either conditional sample is empty (not enough fleet
/// data — keep the previous thresholds).
pub fn derive_wait_thresholds(
    wait_ms_low_util: &[f64],
    wait_ms_high_util: &[f64],
    wait_pct_low_util: &[f64],
    wait_pct_high_util: &[f64],
) -> Option<WaitThresholds> {
    let low_ms = percentile(wait_ms_low_util, 90.0)?;
    let high_ms = percentile(wait_ms_high_util, 75.0)?;
    let pct_low = percentile(wait_pct_low_util, 80.0)?;
    let pct_high = percentile(wait_pct_high_util, 50.0)?;
    // Degenerate fleets can invert the separation; clamp to keep the
    // invariant rather than reject (the paper re-tunes continuously).
    let high_ms = high_ms.max(low_ms);
    let significant_pct = ((pct_low + pct_high) / 2.0).clamp(0.0, 100.0);
    Some(
        WaitThresholds {
            low_ms,
            high_ms,
            significant_pct,
        }
        .validated(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        let _ = ThresholdConfig::default().validated();
    }

    #[test]
    fn derive_from_separated_distributions() {
        // Low-util waits cluster near 1s; high-util waits near 200s.
        let low: Vec<f64> = (0..100).map(|i| 500.0 + 10.0 * i as f64).collect();
        let high: Vec<f64> = (0..100).map(|i| 150_000.0 + 1_000.0 * i as f64).collect();
        let pct_low: Vec<f64> = (0..100).map(|i| 10.0 + 0.2 * i as f64).collect();
        let pct_high: Vec<f64> = (0..100).map(|i| 60.0 + 0.3 * i as f64).collect();
        let t = derive_wait_thresholds(&low, &high, &pct_low, &pct_high).unwrap();
        assert!((1_000.0..1_500.0).contains(&t.low_ms), "low {}", t.low_ms);
        assert!(
            (220_000.0..230_000.0).contains(&t.high_ms),
            "high {}",
            t.high_ms
        );
        // Midpoint of ~26% and ~75%.
        assert!((45.0..56.0).contains(&t.significant_pct));
        assert!(t.low_ms < t.high_ms);
    }

    #[test]
    fn derive_with_empty_sample_is_none() {
        assert!(derive_wait_thresholds(&[], &[1.0], &[1.0], &[1.0]).is_none());
        assert!(derive_wait_thresholds(&[1.0], &[1.0], &[1.0], &[]).is_none());
    }

    #[test]
    fn derive_clamps_inverted_distributions() {
        // Pathological fleet where "high util" waits are smaller.
        let low = vec![100.0; 50];
        let high = vec![1.0; 50];
        let pct = vec![50.0; 50];
        let t = derive_wait_thresholds(&low, &high, &pct, &pct).unwrap();
        assert!(t.low_ms <= t.high_ms);
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn validated_rejects_inverted() {
        let _ = WaitThresholds {
            low_ms: 10.0,
            high_ms: 1.0,
            significant_pct: 50.0,
        }
        .validated();
    }

    #[test]
    fn per_resource_access() {
        let mut cfg = ThresholdConfig::default();
        cfg.waits_for_mut(ResourceKind::DiskIo).high_ms = 9_999.0;
        assert_eq!(cfg.waits_for(ResourceKind::DiskIo).high_ms, 9_999.0);
        assert_ne!(cfg.waits_for(ResourceKind::Cpu).high_ms, 9_999.0);
    }
}
