//! The Telemetry Manager: samples in, robust signal sets out (§3).

use crate::categorize::{
    categorize_latency, categorize_util, categorize_wait_ms, categorize_wait_pct,
};
use crate::counters::{LatencyGoal, TelemetrySample};
use crate::signals::{wait_class_for, LatencySignals, ResourceSignals, SignalSet};
use crate::thresholds::ThresholdConfig;
use dasr_containers::RESOURCE_KINDS;
use dasr_engine::WaitClass;
use dasr_stats::{
    median_in, median_of_finite_mut, SlidingRanks, SlidingTheilSen, SpearmanScratch, TheilSen,
    Trend, TrendScratch,
};

/// Samples medianed for the level signals (robust aggregation, §3.1).
pub const SMOOTHING_WINDOW: usize = 3;

/// Samples fed to the Theil–Sen trend detector (§3.2.1).
pub const TREND_WINDOW: usize = 10;

/// Samples fed to the Spearman correlation (§3.2.2).
pub const CORR_WINDOW: usize = 15;

/// Materiality guard: a trend is also rejected when its projected change
/// over the window is below this fraction of the series' median level —
/// flat-but-noisy series occasionally pass the sign test, and chasing a 2%
/// drift would thrash containers.
pub const TREND_MIN_RELATIVE_CHANGE: f64 = 0.10;

/// The category thresholds (§4.1) every signal set is categorized with.
/// `dasr_fleet::derive_threshold_config` derives a fleet's own set for the
/// §4.1 analysis; the closed loop runs on these.
pub const THRESHOLDS: ThresholdConfig = ThresholdConfig::DEFAULT;

const _: () = assert!(SMOOTHING_WINDOW >= 1);

/// Telemetry-manager tuning.
#[derive(Debug, Clone, Copy)]
pub struct TelemetryConfig {
    /// Theil–Sen sign-agreement acceptance threshold α (paper: 0.70).
    pub trend_alpha: f64,
    /// The tenant's latency goal, if any (§2.3).
    pub latency_goal: Option<LatencyGoal>,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            trend_alpha: 0.70,
            latency_goal: None,
        }
    }
}

/// Reusable buffers threaded through the per-interval signal computation so
/// the steady-state hot path allocates nothing.
#[derive(Debug, Clone, Default)]
struct SignalScratch {
    /// The finite values of one level series, or of one trend window,
    /// selected in place for its median.
    median: Vec<f64>,
    spearman: SpearmanScratch,
    trend: TrendScratch,
}

/// The level channels of one sample, derived once when it arrives.
#[derive(Debug, Clone, Copy)]
struct Levels {
    util: [f64; RESOURCE_KINDS.len()],
    /// Wait ms per completed request.
    wait: [f64; RESOURCE_KINDS.len()],
    wait_pct: [f64; RESOURCE_KINDS.len()],
    lock_pct: f64,
    /// NaN for an idle interval, which the robust statistics ignore.
    latency: f64,
}

impl Levels {
    fn of(sample: &TelemetrySample) -> Self {
        Self {
            util: RESOURCE_KINDS.map(|kind| sample.util(kind)),
            wait: RESOURCE_KINDS.map(|kind| sample.wait_per_request(wait_class_for(kind))),
            wait_pct: RESOURCE_KINDS.map(|kind| sample.wait_pct(wait_class_for(kind))),
            lock_pct: sample.wait_pct(WaitClass::Lock),
            latency: sample.latency_ms.unwrap_or(f64::NAN),
        }
    }
}

/// Sliding-window state of one series the trend and correlation signals
/// read, updated once per sample so that a window slide costs O(window)
/// (DESIGN.md §9).
#[derive(Debug, Clone)]
struct SeriesState {
    trend: SlidingTheilSen,
    ranks: SlidingRanks,
}

impl SeriesState {
    fn new(cfg: &TelemetryConfig) -> Self {
        let estimator = TheilSen::new().with_alpha(cfg.trend_alpha);
        Self {
            trend: SlidingTheilSen::new(estimator, TREND_WINDOW),
            ranks: SlidingRanks::new(CORR_WINDOW),
        }
    }

    fn push(&mut self, v: f64) {
        self.trend.push(v);
        self.ranks.push(v);
    }

    /// The series' trend over the trend window, materiality guard applied:
    /// an accepted trend whose projected change over the window is below
    /// [`TREND_MIN_RELATIVE_CHANGE`] of the median level is rejected.
    fn material_trend(&self, scratch: &mut SignalScratch) -> Trend {
        let trend = self.trend.trend_in(&mut scratch.trend);
        if let Trend::Significant { slope, .. } = trend {
            let series = self.trend.window();
            let level = median_in(series, &mut scratch.median).unwrap_or(0.0).abs();
            let projected = slope.abs() * (series.len().saturating_sub(1)) as f64;
            if projected < TREND_MIN_RELATIVE_CHANGE * level {
                return Trend::None;
            }
        }
        trend
    }
}

/// Transforms raw interval telemetry into [`SignalSet`]s.
#[derive(Debug, Clone)]
pub struct TelemetryManager {
    cfg: TelemetryConfig,
    /// The newest sample, whose raw fields pass through to the signal set.
    latest: Option<TelemetrySample>,
    /// The level channels of the last [`SMOOTHING_WINDOW`] samples, oldest
    /// first: all the level medians read; trends and correlations slide in
    /// the series states. A plain `Vec`: evicting from its front costs
    /// O(`SMOOTHING_WINDOW`), as each median does.
    recent: Vec<Levels>,
    /// Utilization series, by resource.
    util: [SeriesState; RESOURCE_KINDS.len()],
    /// Wait ms per completed request, by resource.
    wait: [SeriesState; RESOURCE_KINDS.len()],
    latency: SeriesState,
    scratch: SignalScratch,
}

impl TelemetryManager {
    /// Creates a manager.
    pub fn new(cfg: TelemetryConfig) -> Self {
        Self {
            latest: None,
            recent: Vec::with_capacity(SMOOTHING_WINDOW),
            util: RESOURCE_KINDS.map(|_| SeriesState::new(&cfg)),
            wait: RESOURCE_KINDS.map(|_| SeriesState::new(&cfg)),
            latency: SeriesState::new(&cfg),
            scratch: SignalScratch::default(),
            cfg,
        }
    }

    /// Current configuration.
    pub fn config(&self) -> &TelemetryConfig {
        &self.cfg
    }

    /// Ingests one interval's sample and returns the refreshed signal set.
    pub fn observe(&mut self, sample: TelemetrySample) -> SignalSet {
        let levels = Levels::of(&sample);
        if self.recent.len() == SMOOTHING_WINDOW {
            self.recent.remove(0);
        }
        self.recent.push(levels);
        self.latest = Some(sample);
        for kind in RESOURCE_KINDS {
            self.util[kind.index()].push(levels.util[kind.index()]);
            self.wait[kind.index()].push(levels.wait[kind.index()]);
        }
        self.latency.push(levels.latency);
        self.signals()
    }

    /// Computes the signal set from the retained samples and series states.
    ///
    /// Takes `&mut self` only for the internal scratch buffers: no state
    /// moves and repeated calls return identical results.
    ///
    /// # Panics
    /// Panics if no sample has been observed yet.
    pub fn signals(&mut self) -> SignalSet {
        let Self {
            cfg,
            latest,
            recent,
            util,
            wait,
            latency,
            scratch,
        } = self;
        let latest = latest.expect("signals() before any observe()");
        // The latency series is ranked once per sample, not once per pairing.
        let latency_ranks = &latency.ranks;

        let resources: [ResourceSignals; RESOURCE_KINDS.len()] = RESOURCE_KINDS.map(|kind| {
            let i = kind.index();
            let thresholds = THRESHOLDS.waits_for(kind);
            let util_pct = level(recent, scratch, |l| l.util[i]).unwrap_or(0.0);
            let wait_ms = level(recent, scratch, |l| l.wait[i]).unwrap_or(0.0);
            let wait_pct = level(recent, scratch, |l| l.wait_pct[i]).unwrap_or(0.0);
            let (util, wait) = (&util[i], &wait[i]);
            ResourceSignals {
                kind,
                util_pct,
                util_level: categorize_util(&THRESHOLDS, util_pct),
                wait_ms,
                wait_level: categorize_wait_ms(thresholds, wait_ms),
                wait_pct,
                wait_pct_level: categorize_wait_pct(thresholds, wait_pct),
                util_trend: util.material_trend(scratch),
                wait_trend: wait.material_trend(scratch),
                corr_latency_wait: latency_ranks.spearman_in(&wait.ranks, &mut scratch.spearman),
                corr_latency_util: latency_ranks.spearman_in(&util.ranks, &mut scratch.spearman),
            }
        });
        let lock_wait_pct = level(recent, scratch, |l| l.lock_pct).unwrap_or(0.0);
        let observed_ms = level(recent, scratch, |l| l.latency).or(latest.latency_ms);
        let goal_ms = cfg.latency_goal.map(|g| g.target_ms());

        SignalSet {
            interval: latest.interval,
            resources,
            latency: LatencySignals {
                observed_ms,
                goal_ms,
                verdict: categorize_latency(observed_ms, goal_ms),
                trend: latency.material_trend(scratch),
            },
            lock_wait_pct,
            mem_used_mb: latest.mem_used_mb,
            mem_capacity_mb: latest.mem_capacity_mb,
            disk_reads_per_sec: latest.disk_reads_per_sec,
            completed: latest.completed,
        }
    }
}

/// Median of one level signal over the retained samples (at most
/// [`SMOOTHING_WINDOW`]). The finite values are gathered straight into the
/// selection scratch, so a level median is one copy and one select.
fn level(
    recent: &[Levels],
    scratch: &mut SignalScratch,
    value: impl Fn(&Levels) -> f64,
) -> Option<f64> {
    let finite = &mut scratch.median;
    finite.clear();
    finite.extend(recent.iter().map(value).filter(|v| v.is_finite()));
    median_of_finite_mut(finite)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::categorize::{LatencyVerdict, UtilLevel, WaitTimeLevel};
    use dasr_containers::ResourceKind;

    fn sample(
        interval: u64,
        cpu_util: f64,
        cpu_wait_ms: f64,
        lock_wait_ms: f64,
        latency: Option<f64>,
    ) -> TelemetrySample {
        let mut util_pct = [0.0; 4];
        util_pct[ResourceKind::Cpu.index()] = cpu_util;
        util_pct[ResourceKind::Memory.index()] = 85.0;
        let mut wait_ms = [0.0; 7];
        wait_ms[WaitClass::Cpu.index()] = cpu_wait_ms;
        wait_ms[WaitClass::Lock.index()] = lock_wait_ms;
        TelemetrySample {
            interval,
            util_pct,
            wait_ms,
            latency_ms: latency,
            avg_latency_ms: latency,
            completed: 100,
            arrivals: 100,
            rejected: 0,
            mem_used_mb: 500.0,
            mem_capacity_mb: 1_000.0,
            disk_reads_per_sec: 10.0,
        }
    }

    fn manager(goal: Option<LatencyGoal>) -> TelemetryManager {
        TelemetryManager::new(TelemetryConfig {
            latency_goal: goal,
            ..TelemetryConfig::default()
        })
    }

    #[test]
    fn categorizes_high_pressure() {
        let mut m = manager(Some(LatencyGoal::P95(100.0)));
        let mut set = m.observe(sample(0, 95.0, 200_000.0, 0.0, Some(250.0)));
        for i in 1..5 {
            set = m.observe(sample(i, 95.0, 200_000.0, 0.0, Some(250.0)));
        }
        let cpu = set.resource(ResourceKind::Cpu);
        assert_eq!(cpu.util_level, UtilLevel::High);
        assert_eq!(cpu.wait_level, WaitTimeLevel::High);
        assert_eq!(set.latency.verdict, LatencyVerdict::Bad);
        assert!(set.lock_wait_pct < 1.0);
    }

    #[test]
    fn detects_increasing_trend() {
        let mut m = manager(None);
        let mut set = m.observe(sample(0, 10.0, 0.0, 0.0, None));
        for i in 1..12 {
            set = m.observe(sample(i, 10.0 + 6.0 * i as f64, 0.0, 0.0, None));
        }
        assert!(set.resource(ResourceKind::Cpu).util_trend.is_increasing());
    }

    #[test]
    fn noisy_series_has_no_trend() {
        let mut m = manager(None);
        let mut set = m.observe(sample(0, 50.0, 0.0, 0.0, None));
        for i in 1..12 {
            let u = if i % 2 == 0 { 20.0 } else { 80.0 };
            set = m.observe(sample(i, u, 0.0, 0.0, None));
        }
        assert!(set.resource(ResourceKind::Cpu).util_trend.is_none());
    }

    #[test]
    fn lock_dominated_waits_flagged() {
        let mut m = manager(None);
        let mut set = m.observe(sample(0, 20.0, 10.0, 990.0, Some(50.0)));
        for i in 1..4 {
            set = m.observe(sample(i, 20.0, 10.0, 990.0, Some(50.0)));
        }
        assert!(set.lock_wait_pct > 90.0);
        assert!(set.lock_bottleneck(90.0));
    }

    #[test]
    fn correlation_between_latency_and_waits() {
        let mut m = manager(None);
        let mut set = m.observe(sample(0, 10.0, 0.0, 0.0, Some(1.0)));
        for i in 1..15 {
            // Latency rises monotonically with CPU wait.
            let w = 1_000.0 * i as f64;
            set = m.observe(sample(i, 30.0, w, 0.0, Some(10.0 + i as f64 * 5.0)));
        }
        let cpu = set.resource(ResourceKind::Cpu);
        assert!(
            cpu.corr_latency_wait.unwrap() > 0.9,
            "rho {:?}",
            cpu.corr_latency_wait
        );
    }

    #[test]
    fn no_goal_means_latency_good() {
        let mut m = manager(None);
        let set = m.observe(sample(0, 10.0, 0.0, 0.0, Some(1e6)));
        assert_eq!(set.latency.verdict, LatencyVerdict::Good);
        assert_eq!(set.latency.goal_ms, None);
    }

    #[test]
    fn smoothing_uses_median_not_latest() {
        let mut m = manager(None);
        m.observe(sample(0, 10.0, 0.0, 0.0, None));
        m.observe(sample(1, 12.0, 0.0, 0.0, None));
        // One outlier spike must not flip the level to HIGH.
        let set = m.observe(sample(2, 100.0, 0.0, 0.0, None));
        assert_eq!(set.resource(ResourceKind::Cpu).util_pct, 12.0);
        assert_eq!(set.resource(ResourceKind::Cpu).util_level, UtilLevel::Low);
    }

    #[test]
    fn level_signals_forget_samples_older_than_the_smoothing_window() {
        let mut m = manager(None);
        for i in 0..10 {
            m.observe(sample(i, 90.0, 0.0, 0.0, None));
        }
        // Three calm samples push every busy one out of the window.
        let mut set = m.observe(sample(10, 20.0, 0.0, 0.0, None));
        for i in 11..13 {
            set = m.observe(sample(i, 10.0 + i as f64, 0.0, 0.0, None));
        }
        assert_eq!(set.interval, 12);
        assert_eq!(set.resource(ResourceKind::Cpu).util_pct, 21.0);
        assert_eq!(set.resource(ResourceKind::Cpu).util_level, UtilLevel::Low);
    }

    #[test]
    fn idle_latency_is_ignored_by_the_level_median() {
        let mut m = manager(None);
        m.observe(sample(0, 10.0, 0.0, 0.0, Some(7.0)));
        m.observe(sample(1, 10.0, 0.0, 0.0, Some(9.0)));
        let mut set = m.observe(sample(2, 10.0, 0.0, 0.0, None));
        assert_eq!(set.latency.observed_ms, Some(8.0));
        for i in 3..6 {
            set = m.observe(sample(i, 10.0, 0.0, 0.0, None));
        }
        assert_eq!(set.latency.observed_ms, None);
    }

    #[test]
    fn overflowing_series_is_no_trend_not_a_panic() {
        // Finite telemetry whose pairwise differences overflow to infinity
        // (reachable from any `TelemetrySource`) used to abort the loop in
        // the Theil–Sen median.
        let mut m = manager(None);
        let mut set = m.observe(sample(0, -1e308, 0.0, 0.0, None));
        for (i, u) in [0.0, 1e308, 1.1e308, 1.2e308].into_iter().enumerate() {
            set = m.observe(sample(i as u64 + 1, u, 0.0, 0.0, None));
        }
        assert!(set.resource(ResourceKind::Cpu).util_trend.is_none());
    }

    #[test]
    #[should_panic(expected = "before any observe")]
    fn signals_before_observe_panics() {
        let mut m = manager(None);
        let _ = m.signals();
    }
}
