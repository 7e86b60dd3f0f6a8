//! The Resource Demand Estimator (§4).
//!
//! Each telemetry signal is at best weakly predictive; the estimator
//! combines them with a manually constructed hierarchy of rules over the
//! *categorized* signal domain. Per resource dimension it outputs a step in
//! `{-2, -1, 0, +1, +2}` container rungs — the fleet analysis (§4, `dasr-
//! fleet`) shows 98% of real demand changes are within two rungs, which is
//! why the estimate space is restricted.

pub mod memory;

pub use memory::BalloonController;

use crate::rules::{EvalCtx, RuleFire, RuleSet, HIGH_DEMAND, LOW_DEMAND};
use dasr_containers::{ResourceKind, RESOURCE_KINDS};
use dasr_telemetry::SignalSet;

/// Estimator tuning.
#[derive(Debug, Clone, Copy)]
pub struct EstimatorConfig {
    /// Spearman ρ above which latency is considered correlated with a
    /// resource's waits/utilization (§3.2.2).
    pub corr_threshold: f64,
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        Self {
            corr_threshold: 0.6,
        }
    }
}

/// Demand estimate for one resource dimension.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceDemand {
    /// The resource.
    pub kind: ResourceKind,
    /// Container-rung step: positive = scale up, negative = scale down.
    pub step: i8,
    /// The rule that fired (`None` when no rule fired). The explanation
    /// text is rendered from this on demand — see
    /// [`ResourceDemand::rule_text`].
    pub rule: Option<RuleFire>,
    /// Every rule evaluated for this dimension (high-demand table first,
    /// then — for non-memory dimensions without a high fire — the
    /// low-demand table), iterated in the order they were tried.
    pub evaluated: RuleSet,
}

impl ResourceDemand {
    /// The fired rule's explanation in the paper's categorical vocabulary,
    /// rendered from the structured [`RuleFire`].
    pub fn rule_text(&self) -> Option<String> {
        self.rule.as_ref().map(RuleFire::render)
    }
}

/// The estimator's output for one decision point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DemandEstimate {
    /// Per-resource demand (order of `RESOURCE_KINDS`).
    pub demands: [ResourceDemand; RESOURCE_KINDS.len()],
}

impl DemandEstimate {
    /// Demand for one resource.
    pub fn demand(&self, kind: ResourceKind) -> &ResourceDemand {
        &self.demands[kind.index()]
    }

    /// True when any dimension wants to scale up.
    pub fn any_up(&self) -> bool {
        self.demands.iter().any(|d| d.step > 0)
    }

    /// True when any dimension wants to scale down.
    pub fn any_down(&self) -> bool {
        self.demands.iter().any(|d| d.step < 0)
    }

    /// Maps every dimension's demand through `f`, in `RESOURCE_KINDS`
    /// order — the single projection all the step views below are
    /// built on.
    pub fn per_resource<T>(
        &self,
        mut f: impl FnMut(&ResourceDemand) -> T,
    ) -> [T; RESOURCE_KINDS.len()] {
        std::array::from_fn(|i| f(&self.demands[i]))
    }

    /// The raw steps, one per dimension.
    pub fn steps(&self) -> [i8; RESOURCE_KINDS.len()] {
        self.per_resource(|d| d.step)
    }

    /// The positive steps only (negatives clamped to 0) — used when the
    /// latency gate only permits scaling up.
    pub fn up_steps(&self) -> [i8; RESOURCE_KINDS.len()] {
        self.per_resource(|d| d.step.max(0))
    }

    /// The negative steps only (positives clamped to 0).
    pub fn down_steps(&self) -> [i8; RESOURCE_KINDS.len()] {
        self.per_resource(|d| d.step.min(0))
    }
}

/// The rule-based demand estimator (§4).
#[derive(Debug, Clone, Default)]
pub struct DemandEstimator {
    cfg: EstimatorConfig,
}

impl DemandEstimator {
    /// Creates an estimator.
    pub fn new(cfg: EstimatorConfig) -> Self {
        Self { cfg }
    }

    /// Estimates per-resource demand from the signal set by evaluating the
    /// declarative rule tables ([`HIGH_DEMAND`], then [`LOW_DEMAND`])
    /// first-match-wins per dimension.
    ///
    /// Memory never receives a negative step here: low memory demand cannot
    /// be inferred from utilization and waits alone (§4.3) and is instead
    /// confirmed by the [`BalloonController`]. The low-demand table is
    /// therefore skipped for the memory dimension.
    // dasr-lint: no-alloc
    pub fn estimate(&self, signals: &SignalSet) -> DemandEstimate {
        let demands = RESOURCE_KINDS.map(|kind| {
            let sig = signals.resource(kind);
            let ctx = EvalCtx::demand(&self.cfg, sig, &signals.latency);
            let mut eval = HIGH_DEMAND.evaluate(&ctx);
            if eval.fired.is_none() && kind != ResourceKind::Memory {
                let low = LOW_DEMAND.evaluate(&ctx);
                eval.evaluated = eval.evaluated.union(low.evaluated);
                eval.fired = low.fired;
            }
            ResourceDemand {
                kind,
                step: eval.fired.map_or(0, |f| f.step),
                rule: eval.fired,
                evaluated: eval.evaluated,
            }
        });
        DemandEstimate { demands }
    }
}

/// Shared signal-set constructors for tests across the crate.
#[cfg(test)]
pub(crate) mod tests_support {
    use dasr_containers::{ResourceKind, RESOURCE_KINDS};
    use dasr_stats::Trend;
    use dasr_telemetry::categorize::{LatencyVerdict, UtilLevel, WaitPctLevel, WaitTimeLevel};
    use dasr_telemetry::signals::{LatencySignals, ResourceSignals};
    use dasr_telemetry::SignalSet;

    /// A calm resource-signal row.
    pub fn quiet_resource(kind: ResourceKind) -> ResourceSignals {
        ResourceSignals {
            kind,
            util_pct: 40.0,
            util_level: UtilLevel::Medium,
            wait_ms: 50.0,
            wait_level: WaitTimeLevel::Low,
            wait_pct: 5.0,
            wait_pct_level: WaitPctLevel::NotSignificant,
            util_trend: Trend::None,
            wait_trend: Trend::None,
            corr_latency_wait: None,
            corr_latency_util: None,
        }
    }

    /// A calm full signal set.
    pub fn quiet_signal_set(interval: u64) -> SignalSet {
        SignalSet {
            interval,
            resources: RESOURCE_KINDS.map(quiet_resource),
            latency: LatencySignals {
                observed_ms: Some(50.0),
                goal_ms: Some(100.0),
                verdict: LatencyVerdict::Good,
                trend: Trend::None,
            },
            lock_wait_pct: 5.0,
            mem_used_mb: 500.0,
            mem_capacity_mb: 1_000.0,
            disk_reads_per_sec: 10.0,
            completed: 1_000,
        }
    }

    /// Calm signal set with explicit interval, disk I/O rate and pool size.
    pub fn signal_set_with_io(interval: u64, reads_per_sec: f64, capacity_mb: f64) -> SignalSet {
        let mut s = quiet_signal_set(interval);
        s.disk_reads_per_sec = reads_per_sec;
        s.mem_capacity_mb = capacity_mb;
        s.mem_used_mb = capacity_mb * 0.9;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dasr_stats::{Trend, TrendDirection};
    use dasr_telemetry::categorize::{LatencyVerdict, UtilLevel, WaitPctLevel, WaitTimeLevel};
    use dasr_telemetry::signals::{LatencySignals, ResourceSignals};

    pub(crate) fn quiet_resource(kind: ResourceKind) -> ResourceSignals {
        ResourceSignals {
            kind,
            util_pct: 40.0,
            util_level: UtilLevel::Medium,
            wait_ms: 50.0,
            wait_level: WaitTimeLevel::Low,
            wait_pct: 5.0,
            wait_pct_level: WaitPctLevel::NotSignificant,
            util_trend: Trend::None,
            wait_trend: Trend::None,
            corr_latency_wait: None,
            corr_latency_util: None,
        }
    }

    pub(crate) fn signal_set(resources: [ResourceSignals; 4]) -> SignalSet {
        SignalSet {
            interval: 0,
            resources,
            latency: LatencySignals {
                observed_ms: Some(50.0),
                goal_ms: Some(100.0),
                verdict: LatencyVerdict::Good,
                trend: Trend::None,
            },
            lock_wait_pct: 5.0,
            mem_used_mb: 500.0,
            mem_capacity_mb: 1_000.0,
            disk_reads_per_sec: 10.0,
            completed: 1_000,
        }
    }

    fn default_signals() -> SignalSet {
        signal_set([
            quiet_resource(ResourceKind::Cpu),
            quiet_resource(ResourceKind::Memory),
            quiet_resource(ResourceKind::DiskIo),
            quiet_resource(ResourceKind::LogIo),
        ])
    }

    fn increasing() -> Trend {
        Trend::Significant {
            direction: TrendDirection::Increasing,
            slope: 1.0,
            agreement: 0.9,
        }
    }

    #[test]
    fn quiet_system_is_zero_steps() {
        let est = DemandEstimator::default();
        let e = est.estimate(&default_signals());
        assert!(!e.any_up());
        assert!(!e.any_down());
    }

    #[test]
    fn scenario_a_fires_one_step() {
        // §4.2(a): util HIGH, waits HIGH, pct SIGNIFICANT.
        let mut s = default_signals();
        let cpu = &mut s.resources[ResourceKind::Cpu.index()];
        cpu.util_pct = 80.0;
        cpu.util_level = UtilLevel::High;
        cpu.wait_level = WaitTimeLevel::High;
        cpu.wait_pct = 55.0;
        cpu.wait_pct_level = WaitPctLevel::Significant;
        let e = DemandEstimator::default().estimate(&s);
        assert_eq!(e.demand(ResourceKind::Cpu).step, 1);
        assert!(e
            .demand(ResourceKind::Cpu)
            .rule_text()
            .unwrap()
            .contains("HIGH"));
        assert_eq!(e.demand(ResourceKind::DiskIo).step, 0);
    }

    #[test]
    fn extreme_pressure_fires_two_steps() {
        let mut s = default_signals();
        let cpu = &mut s.resources[ResourceKind::Cpu.index()];
        cpu.util_pct = 97.0;
        cpu.util_level = UtilLevel::High;
        cpu.wait_level = WaitTimeLevel::High;
        cpu.wait_pct = 85.0;
        cpu.wait_pct_level = WaitPctLevel::Significant;
        cpu.wait_trend = increasing();
        let e = DemandEstimator::default().estimate(&s);
        assert_eq!(e.demand(ResourceKind::Cpu).step, 2);
    }

    #[test]
    fn scenario_b_requires_trend() {
        // util HIGH, waits HIGH, pct NOT significant: only with a trend.
        let mut s = default_signals();
        {
            let cpu = &mut s.resources[ResourceKind::Cpu.index()];
            cpu.util_pct = 85.0;
            cpu.util_level = UtilLevel::High;
            cpu.wait_level = WaitTimeLevel::High;
            cpu.wait_pct = 10.0;
            cpu.wait_pct_level = WaitPctLevel::NotSignificant;
        }
        let est = DemandEstimator::default();
        assert_eq!(est.estimate(&s).demand(ResourceKind::Cpu).step, 0);
        s.resources[ResourceKind::Cpu.index()].util_trend = increasing();
        assert_eq!(est.estimate(&s).demand(ResourceKind::Cpu).step, 1);
    }

    #[test]
    fn scenario_c_medium_waits_with_trend() {
        let mut s = default_signals();
        {
            let disk = &mut s.resources[ResourceKind::DiskIo.index()];
            disk.util_pct = 75.0;
            disk.util_level = UtilLevel::High;
            disk.wait_level = WaitTimeLevel::Medium;
            disk.wait_pct = 60.0;
            disk.wait_pct_level = WaitPctLevel::Significant;
        }
        let est = DemandEstimator::default();
        assert_eq!(est.estimate(&s).demand(ResourceKind::DiskIo).step, 0);
        s.resources[ResourceKind::DiskIo.index()].wait_trend = increasing();
        assert_eq!(est.estimate(&s).demand(ResourceKind::DiskIo).step, 1);
    }

    #[test]
    fn correlation_rule_needs_bad_latency() {
        let mut s = default_signals();
        {
            let log = &mut s.resources[ResourceKind::LogIo.index()];
            log.util_level = UtilLevel::Medium;
            log.wait_level = WaitTimeLevel::Medium;
            log.wait_pct = 70.0;
            log.wait_pct_level = WaitPctLevel::Significant;
            log.corr_latency_wait = Some(0.85);
        }
        let est = DemandEstimator::default();
        assert_eq!(est.estimate(&s).demand(ResourceKind::LogIo).step, 0);
        s.latency.verdict = LatencyVerdict::Bad;
        let e = est.estimate(&s);
        assert_eq!(e.demand(ResourceKind::LogIo).step, 1);
        assert!(e
            .demand(ResourceKind::LogIo)
            .rule_text()
            .unwrap()
            .contains("correlat"));
    }

    #[test]
    fn low_demand_scales_down_but_not_memory() {
        let mut s = default_signals();
        for kind in RESOURCE_KINDS {
            let r = &mut s.resources[kind.index()];
            r.util_pct = 8.0;
            r.util_level = UtilLevel::Low;
            r.wait_level = WaitTimeLevel::Low;
        }
        let e = DemandEstimator::default().estimate(&s);
        assert!(e.demand(ResourceKind::Cpu).step < 0);
        assert!(e.demand(ResourceKind::DiskIo).step < 0);
        assert_eq!(
            e.demand(ResourceKind::Memory).step,
            0,
            "memory scale-down only via ballooning (§4.3)"
        );
        assert!(e
            .demands
            .iter()
            .filter(|d| d.kind != ResourceKind::Memory)
            .all(|d| d.step < 0));
    }

    #[test]
    fn very_low_utilization_steps_down_two() {
        let mut s = default_signals();
        let cpu = &mut s.resources[ResourceKind::Cpu.index()];
        cpu.util_pct = 2.0;
        cpu.util_level = UtilLevel::Low;
        cpu.wait_level = WaitTimeLevel::Low;
        let e = DemandEstimator::default().estimate(&s);
        assert_eq!(e.demand(ResourceKind::Cpu).step, -2);
    }

    #[test]
    fn increasing_trend_blocks_scale_down() {
        let mut s = default_signals();
        let cpu = &mut s.resources[ResourceKind::Cpu.index()];
        cpu.util_pct = 10.0;
        cpu.util_level = UtilLevel::Low;
        cpu.wait_level = WaitTimeLevel::Low;
        cpu.util_trend = increasing();
        let e = DemandEstimator::default().estimate(&s);
        assert_eq!(
            e.demand(ResourceKind::Cpu).step,
            0,
            "early warning respected"
        );
    }

    #[test]
    fn step_vectors() {
        let mut s = default_signals();
        {
            let cpu = &mut s.resources[ResourceKind::Cpu.index()];
            cpu.util_pct = 85.0;
            cpu.util_level = UtilLevel::High;
            cpu.wait_level = WaitTimeLevel::High;
            cpu.wait_pct_level = WaitPctLevel::Significant;
            cpu.wait_pct = 60.0;
        }
        {
            let disk = &mut s.resources[ResourceKind::DiskIo.index()];
            disk.util_pct = 3.0;
            disk.util_level = UtilLevel::Low;
            disk.wait_level = WaitTimeLevel::Low;
        }
        let e = DemandEstimator::default().estimate(&s);
        assert_eq!(e.up_steps(), [1, 0, 0, 0]);
        assert_eq!(e.down_steps(), [0, 0, -2, 0]);
    }
}

#[cfg(test)]
mod rules {
    //! Scenario checks of the paper's §4.2 rule hierarchy.
    //!
    //! They ran against the hand-written if-chains this module used to hold;
    //! the chains are gone and [`DemandEstimator::estimate`] evaluates the
    //! declarative tables in [`crate::rules`], so the same scenarios and the
    //! same expected steps now run through [`HIGH_DEMAND`] and [`LOW_DEMAND`]
    //! directly (`crates/core/tests/decision_equivalence.rs` keeps a frozen
    //! copy of the chains as its oracle).
    //!
    //! [`DemandEstimator::estimate`]: crate::estimator::DemandEstimator::estimate
    //! [`HIGH_DEMAND`]: crate::rules::HIGH_DEMAND
    //! [`LOW_DEMAND`]: crate::rules::LOW_DEMAND

    mod tests {
        use crate::estimator::EstimatorConfig;
        use crate::rules::{EvalCtx, HIGH_DEMAND, LOW_DEMAND};
        use dasr_containers::ResourceKind;
        use dasr_stats::{Trend, TrendDirection};
        use dasr_telemetry::categorize::{LatencyVerdict, UtilLevel, WaitPctLevel, WaitTimeLevel};
        use dasr_telemetry::signals::{LatencySignals, ResourceSignals};

        /// The step and rendered explanation of the first `HIGH_DEMAND` row
        /// that fires.
        fn high_demand(
            cfg: &EstimatorConfig,
            sig: &ResourceSignals,
            latency: &LatencySignals,
        ) -> Option<(i8, String)> {
            let fired = HIGH_DEMAND
                .evaluate(&EvalCtx::demand(cfg, sig, latency))
                .fired;
            fired.map(|f| (f.step, f.render()))
        }

        /// The same for `LOW_DEMAND`, whose rows read neither latency nor the
        /// correlation threshold.
        fn low_demand(sig: &ResourceSignals) -> Option<(i8, String)> {
            let ctx_latency = latency(LatencyVerdict::Good);
            let fired = LOW_DEMAND
                .evaluate(&EvalCtx::demand(&cfg(), sig, &ctx_latency))
                .fired;
            fired.map(|f| (f.step, f.render()))
        }

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
}
