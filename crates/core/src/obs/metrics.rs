//! The fleet metrics registry: counters, gauges and fixed-bucket
//! histograms with stable wire names.
//!
//! Mirrors the design of [`crate::rules::RuleId`] and the no-serde JSONL
//! style of [`crate::trace`]: every metric has a stable dense identifier
//! (an enum with a wire name), the registry is a handful of flat arrays
//! indexed by those identifiers, and serialization is an explicit
//! hand-rolled mapping. There are no locks anywhere — each tenant's closed
//! loop owns its registry exclusively, and fleet-wide aggregation is a
//! post-hoc exact fold ([`MetricsAccumulator`]) that no shard grouping can
//! perturb (the same contract as [`crate::runner::fleet::FleetRunner`]).
//!
//! The registry is split into a **deterministic** section (counters,
//! gauges, value histograms — pure functions of the simulated run, §7's
//! aggregate fleet telemetry) and a **wall-clock timer** section
//! ([`TimerId`]) measuring the *harness itself* (e.g. §3 signal-computation
//! time). Timers are inherently non-deterministic, so they are excluded
//! from [`PartialEq`] and from the bit-identical fleet-merge guarantee;
//! everything else participates.

use crate::rules::RuleHistogram;
use dasr_stats::ExactSum;
use std::fmt;
use std::fmt::Write as _;

/// Monotone event counts over one run (or one merged fleet).
///
/// The variants cover the §6 loop end to end: intervals and requests,
/// resize traffic (§2.2's change events), budget-gate engagements (§5),
/// balloon-probe lifecycle (§4.3) and latency-goal violations (§2.3).
/// Discriminant order is the wire order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CounterId {
    /// Billing intervals executed (§6: one decision each).
    IntervalsRun,
    /// Requests completed across the run.
    RequestsCompleted,
    /// Requests rejected by admission control.
    RequestsRejected,
    /// Resize operations issued (any direction, §2.2).
    ResizesIssued,
    /// Resizes to a larger (more expensive) container.
    ResizesUp,
    /// Resizes to a smaller (cheaper) container.
    ResizesDown,
    /// Scale-up demand present but both directions sat inside the
    /// post-resize cooldown (§6's damping).
    ResizesDeniedCooldown,
    /// A recommended scale-up was truncated or blocked by the available
    /// budget (§5).
    ResizesDeniedBudget,
    /// The budget gate engaged in any form — truncation, block or forced
    /// downgrade (§5).
    BudgetThrottles,
    /// The bucket could no longer afford the *current* container and forced
    /// a downgrade (§5).
    BudgetForcedDowngrades,
    /// Latency beyond the emergency factor bypassed the cooldown (§6).
    EmergencyBypasses,
    /// Balloon probes started (§4.3).
    BalloonStarts,
    /// Balloon probes aborted on rising disk I/O (§4.3).
    BalloonAborts,
    /// Balloon probes committed, authorizing a memory shrink (§4.3).
    BalloonCommits,
    /// Intervals whose observed latency exceeded the tenant's goal (§2.3 —
    /// RobustScaler's QoS-violation axis).
    SloViolations,
}

impl CounterId {
    /// Number of counters.
    pub const COUNT: usize = 15;

    /// Every counter, in wire order.
    pub const ALL: [CounterId; CounterId::COUNT] = [
        CounterId::IntervalsRun,
        CounterId::RequestsCompleted,
        CounterId::RequestsRejected,
        CounterId::ResizesIssued,
        CounterId::ResizesUp,
        CounterId::ResizesDown,
        CounterId::ResizesDeniedCooldown,
        CounterId::ResizesDeniedBudget,
        CounterId::BudgetThrottles,
        CounterId::BudgetForcedDowngrades,
        CounterId::EmergencyBypasses,
        CounterId::BalloonStarts,
        CounterId::BalloonAborts,
        CounterId::BalloonCommits,
        CounterId::SloViolations,
    ];

    /// Dense index (the discriminant), for registry slots.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable wire name used by the JSONL metric dump.
    pub fn name(self) -> &'static str {
        match self {
            CounterId::IntervalsRun => "intervals_run",
            CounterId::RequestsCompleted => "requests_completed",
            CounterId::RequestsRejected => "requests_rejected",
            CounterId::ResizesIssued => "resizes_issued",
            CounterId::ResizesUp => "resizes_up",
            CounterId::ResizesDown => "resizes_down",
            CounterId::ResizesDeniedCooldown => "resizes_denied_cooldown",
            CounterId::ResizesDeniedBudget => "resizes_denied_budget",
            CounterId::BudgetThrottles => "budget_throttles",
            CounterId::BudgetForcedDowngrades => "budget_forced_downgrades",
            CounterId::EmergencyBypasses => "emergency_bypasses",
            CounterId::BalloonStarts => "balloon_starts",
            CounterId::BalloonAborts => "balloon_aborts",
            CounterId::BalloonCommits => "balloon_commits",
            CounterId::SloViolations => "slo_violations",
        }
    }
}

/// Last-value-wins instantaneous readings.
///
/// Gauges record the most recent observation; the fleet merge *sums* them
/// (documented per variant), which is the meaningful fleet aggregate for
/// every gauge defined here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GaugeId {
    /// Budget tokens remaining at the end of the run (§5); fleet merge:
    /// total remaining across tenants.
    BudgetRemaining,
    /// Container rung in effect after the final decision; fleet merge: sum
    /// of rungs (divide by tenant count for the mean).
    FinalRung,
}

impl GaugeId {
    /// Number of gauges.
    pub const COUNT: usize = 2;

    /// Every gauge, in wire order.
    pub const ALL: [GaugeId; GaugeId::COUNT] = [GaugeId::BudgetRemaining, GaugeId::FinalRung];

    /// Dense index (the discriminant), for registry slots.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable wire name used by the JSONL metric dump.
    pub fn name(self) -> &'static str {
        match self {
            GaugeId::BudgetRemaining => "budget_remaining",
            GaugeId::FinalRung => "final_rung",
        }
    }
}

/// Deterministic fixed-bucket value histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HistogramId {
    /// Signed rung delta of every issued resize (§2.2's step-size
    /// distribution, Figure 2).
    ResizeStep,
    /// Per-interval aggregated latency, ms (the §7 latency axis).
    IntervalLatencyMs,
    /// Budget headroom at each interval's charge, % of the full-period
    /// budget remaining (§5 token-bucket level).
    BudgetHeadroomPct,
}

impl HistogramId {
    /// Number of value histograms.
    pub const COUNT: usize = 3;

    /// Every histogram, in wire order.
    pub const ALL: [HistogramId; HistogramId::COUNT] = [
        HistogramId::ResizeStep,
        HistogramId::IntervalLatencyMs,
        HistogramId::BudgetHeadroomPct,
    ];

    /// Dense index (the discriminant), for registry slots.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable wire name used by the JSONL metric dump.
    pub fn name(self) -> &'static str {
        match self {
            HistogramId::ResizeStep => "resize_step",
            HistogramId::IntervalLatencyMs => "interval_latency_ms",
            HistogramId::BudgetHeadroomPct => "budget_headroom_pct",
        }
    }

    /// Inclusive upper bounds of the histogram's buckets (one implicit
    /// overflow bucket above the last bound).
    pub fn bounds(self) -> &'static [f64] {
        match self {
            HistogramId::ResizeStep => &[-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0],
            HistogramId::IntervalLatencyMs => &[
                5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1_000.0, 2_500.0, 5_000.0, 10_000.0,
            ],
            HistogramId::BudgetHeadroomPct => {
                &[10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0]
            }
        }
    }
}

/// Wall-clock timing histograms over the harness's own hot paths.
///
/// Timers measure the *implementation* (how long §3 signal computation or a
/// §6 decision takes on this machine), not the simulated system, so they
/// are **excluded** from [`MetricRegistry`]'s `PartialEq` and from the
/// fleet determinism contract. They still merge additively for fleet-wide
/// latency profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TimerId {
    /// Nanoseconds per telemetry-manager `observe` + signal computation
    /// (§3).
    SignalsNs,
    /// Nanoseconds per policy decision (§4 tables + §6 arbitration).
    DecideNs,
}

impl TimerId {
    /// Number of timers.
    pub const COUNT: usize = 2;

    /// Every timer, in wire order.
    pub const ALL: [TimerId; TimerId::COUNT] = [TimerId::SignalsNs, TimerId::DecideNs];

    /// Dense index (the discriminant), for registry slots.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable wire name used by the JSONL metric dump.
    pub fn name(self) -> &'static str {
        match self {
            TimerId::SignalsNs => "signals_ns",
            TimerId::DecideNs => "decide_ns",
        }
    }

    /// Inclusive upper bounds, ns (log-spaced; implicit overflow bucket).
    pub fn bounds(self) -> &'static [f64] {
        const NS: &[f64] = &[
            250.0,
            500.0,
            1_000.0,
            2_500.0,
            5_000.0,
            10_000.0,
            25_000.0,
            50_000.0,
            100_000.0,
            250_000.0,
            1_000_000.0,
            10_000_000.0,
        ];
        NS
    }
}

/// A fixed-bucket histogram: counts per inclusive upper bound plus one
/// overflow bucket, with the observation total and value sum.
///
/// Buckets are *fixed at construction* (per [`HistogramId::bounds`] /
/// [`TimerId::bounds`]) so two histograms of the same metric always merge
/// bucket-for-bucket — the property the deterministic fleet merge rests on.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedHistogram {
    bounds: &'static [f64],
    /// `bounds.len() + 1` buckets; the last is the overflow bucket.
    counts: Vec<u64>,
    total: u64,
    sum: f64,
}

impl FixedHistogram {
    /// An empty histogram over `bounds` (inclusive upper bounds, ascending).
    pub fn new(bounds: &'static [f64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds ascending");
        Self {
            bounds,
            counts: vec![0; bounds.len() + 1],
            total: 0,
            sum: 0.0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        let slot = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[slot] += 1;
        self.total += 1;
        self.sum += value;
    }

    /// The bucket upper bounds.
    pub fn bounds(&self) -> &'static [f64] {
        self.bounds
    }

    /// Per-bucket counts (last entry is the overflow bucket).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of observed values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observed value, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.total > 0).then(|| self.sum / self.total as f64)
    }

    /// Deterministic quantile *estimate* from the bucket counts
    /// (`q` in percent, e.g. `95.0`), `None` when empty.
    ///
    /// Uses nearest-rank bucket selection with linear interpolation
    /// inside the bucket; observations in the first bucket report its
    /// upper bound and overflow observations report the last bound, so
    /// the estimate is always one of finitely many values — bit-identical
    /// for any merge grouping. Accuracy is bounded by the bucket width;
    /// use the pooled exact percentile when per-request samples are kept.
    pub fn quantile_estimate(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let before = seen;
            seen += c;
            if seen >= rank {
                let Some(&upper) = self.bounds.get(i) else {
                    // Overflow bucket: the last bound is the best lower
                    // bound we can report.
                    return self.bounds.last().copied();
                };
                if i == 0 {
                    return Some(upper);
                }
                let lower = self.bounds[i - 1];
                let into = (rank - before) as f64 / c as f64;
                return Some(lower + (upper - lower) * into);
            }
        }
        self.bounds.last().copied()
    }
}

/// The per-run metrics registry.
///
/// One registry per tenant closed loop (no shared mutable state, no
/// locks); fleet-wide numbers come from [`MetricsAccumulator`], which
/// folds registries exactly and so gives the same bits for any shard
/// grouping. The §4/§6 [`RuleHistogram`] lives inside the registry, so
/// rule-fire counts travel with the rest of the run's telemetry.
///
/// # Example
///
/// ```
/// use dasr_core::obs::{CounterId, GaugeId, HistogramId, MetricRegistry, MetricsAccumulator};
///
/// let mut reg = MetricRegistry::new();
/// reg.inc(CounterId::IntervalsRun);
/// reg.add(CounterId::RequestsCompleted, 640);
/// reg.set_gauge(GaugeId::FinalRung, 3.0);
/// reg.observe(HistogramId::ResizeStep, 1.0);
///
/// assert_eq!(reg.counter(CounterId::IntervalsRun), 1);
/// assert_eq!(reg.counter(CounterId::RequestsCompleted), 640);
/// assert_eq!(reg.histogram(HistogramId::ResizeStep).total(), 1);
///
/// // Fleet aggregation is an explicit, exact fold.
/// let mut fleet = MetricsAccumulator::new();
/// fleet.fold(&reg);
/// fleet.fold(&reg);
/// assert_eq!(fleet.finish().counter(CounterId::RequestsCompleted), 1280);
/// ```
#[derive(Debug, Clone)]
pub struct MetricRegistry {
    counters: [u64; CounterId::COUNT],
    gauges: [f64; GaugeId::COUNT],
    hists: Vec<FixedHistogram>,
    timers: Vec<FixedHistogram>,
    rules: RuleHistogram,
}

impl MetricRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self {
            counters: [0; CounterId::COUNT],
            gauges: [0.0; GaugeId::COUNT],
            hists: HistogramId::ALL
                .iter()
                .map(|h| FixedHistogram::new(h.bounds()))
                .collect(),
            timers: TimerId::ALL
                .iter()
                .map(|t| FixedHistogram::new(t.bounds()))
                .collect(),
            rules: RuleHistogram::new(),
        }
    }

    /// Increments `id` by one.
    pub fn inc(&mut self, id: CounterId) {
        self.counters[id.index()] += 1;
    }

    /// Increments `id` by `n`.
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.index()] += n;
    }

    /// Current value of counter `id`.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id.index()]
    }

    /// Sets gauge `id` to `value` (last-value-wins).
    pub fn set_gauge(&mut self, id: GaugeId, value: f64) {
        self.gauges[id.index()] = value;
    }

    /// Current value of gauge `id`.
    pub fn gauge(&self, id: GaugeId) -> f64 {
        self.gauges[id.index()]
    }

    /// Records `value` into histogram `id`.
    pub fn observe(&mut self, id: HistogramId, value: f64) {
        self.hists[id.index()].observe(value);
    }

    /// The value histogram for `id`.
    pub fn histogram(&self, id: HistogramId) -> &FixedHistogram {
        &self.hists[id.index()]
    }

    /// Records a wall-clock duration (ns) into timer `id`.
    pub fn observe_ns(&mut self, id: TimerId, ns: u64) {
        self.timers[id.index()].observe(ns as f64);
    }

    /// The wall-clock timer histogram for `id` (non-deterministic section).
    pub fn timer(&self, id: TimerId) -> &FixedHistogram {
        &self.timers[id.index()]
    }

    /// The §4/§6 rule-fire histogram carried by this registry.
    pub fn rules(&self) -> &RuleHistogram {
        &self.rules
    }

    /// Mutable access to the rule histogram, for recording a whole trace's
    /// fires via [`crate::trace::DecisionTrace::record_fires`].
    pub fn rules_mut(&mut self) -> &mut RuleHistogram {
        &mut self.rules
    }

    /// Serializes the registry as JSON lines, one metric per line, in wire
    /// order — the same hand-rolled no-serde style as
    /// [`crate::trace::DecisionTrace::to_json_line`]. Timers are emitted
    /// with `"type":"timer"` so consumers can separate the
    /// non-deterministic section.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for id in CounterId::ALL {
            let _ = writeln!(
                out,
                "{{\"metric\":\"{}\",\"type\":\"counter\",\"value\":{}}}",
                id.name(),
                self.counter(id)
            );
        }
        for id in GaugeId::ALL {
            let _ = writeln!(
                out,
                "{{\"metric\":\"{}\",\"type\":\"gauge\",\"value\":{}}}",
                id.name(),
                self.gauge(id)
            );
        }
        for id in HistogramId::ALL {
            let _ = writeln!(
                out,
                "{}",
                histogram_json(id.name(), "histogram", self.histogram(id))
            );
        }
        for id in TimerId::ALL {
            let _ = writeln!(
                out,
                "{}",
                histogram_json(id.name(), "timer", self.timer(id))
            );
        }
        for (rule, n) in self.rules.ranked() {
            let _ = writeln!(
                out,
                "{{\"metric\":\"rule_fires.{}\",\"type\":\"counter\",\"value\":{n}}}",
                rule.name()
            );
        }
        out
    }
}

fn histogram_json(name: &str, ty: &str, h: &FixedHistogram) -> String {
    let mut out = format!("{{\"metric\":\"{name}\",\"type\":\"{ty}\",\"bounds\":[");
    for (i, b) in h.bounds().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{b}");
    }
    out.push_str("],\"counts\":[");
    for (i, c) in h.counts().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{c}");
    }
    let _ = write!(out, "],\"total\":{},\"sum\":{}}}", h.total(), h.sum());
    out
}

impl Default for MetricRegistry {
    fn default() -> Self {
        Self::new()
    }
}

/// Equality over the **deterministic** section only: counters, gauges,
/// value histograms and rule fires. Wall-clock timers measure the harness,
/// not the simulated system, and are deliberately excluded so the fleet
/// determinism property (`run(1 thread) == run(8 threads)`) is expressible
/// as plain `==`.
impl PartialEq for MetricRegistry {
    fn eq(&self, other: &Self) -> bool {
        self.counters == other.counters
            && self.gauges == other.gauges
            && self.hists == other.hists
            && self.rules == other.rules
    }
}

/// One fixed-bucket histogram being folded exactly: counts add as
/// integers, the value sum accumulates error-free.
#[derive(Debug, Clone)]
pub(crate) struct HistAcc {
    bounds: &'static [f64],
    counts: Vec<u64>,
    total: u64,
    sum: ExactSum,
}

impl HistAcc {
    pub(crate) fn new(bounds: &'static [f64]) -> Self {
        Self {
            bounds,
            counts: vec![0; bounds.len() + 1],
            total: 0,
            sum: ExactSum::new(),
        }
    }

    /// Records one observation. The slot rule puts every non-NaN value in
    /// the bucket [`FixedHistogram::observe`] would.
    // dasr-lint: no-alloc
    pub(crate) fn observe(&mut self, value: f64) {
        let slot = self.bounds.partition_point(|&b| b < value);
        self.counts[slot] += 1;
        self.total += 1;
        self.sum.add(value);
    }

    /// Adds one already-aggregated histogram (a tenant's) into the fold.
    // dasr-lint: no-alloc
    fn fold(&mut self, h: &FixedHistogram) {
        debug_assert_eq!(self.bounds, h.bounds());
        for (a, b) in self.counts.iter_mut().zip(h.counts().iter()) {
            *a += b;
        }
        self.total += h.total();
        self.sum.add(h.sum());
    }

    /// Merges another accumulator (a shard's) into the fold.
    // dasr-lint: no-alloc
    pub(crate) fn merge(&mut self, other: &HistAcc) {
        debug_assert_eq!(self.bounds, other.bounds);
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum.merge(&other.sum);
    }

    pub(crate) fn finish(self) -> FixedHistogram {
        FixedHistogram {
            bounds: self.bounds,
            counts: self.counts,
            total: self.total,
            sum: self.sum.value(),
        }
    }
}

/// Exact, grouping-independent fleet aggregation of [`MetricRegistry`]s.
///
/// Gauge values and histogram sums are `f64`, and plain floating-point
/// addition is *not* associative — two different shard groupings of the
/// same tenants could differ in the last ulp. The accumulator instead
/// carries every merged float as a [`dasr_stats::ExactSum`], so
/// folding tenants into shards and merging shards in any grouping yields a
/// bit-identical [`MetricsAccumulator::finish`] result. This is what makes
/// the sharded fleet scheduler's per-shard registry merge a true monoid
/// (see `crate::runner::fleet`).
#[derive(Debug, Clone)]
pub struct MetricsAccumulator {
    counters: [u64; CounterId::COUNT],
    gauges: [ExactSum; GaugeId::COUNT],
    hists: Vec<HistAcc>,
    timers: Vec<HistAcc>,
    rules: RuleHistogram,
}

impl MetricsAccumulator {
    /// An empty accumulator (the monoid identity).
    pub fn new() -> Self {
        Self {
            counters: [0; CounterId::COUNT],
            gauges: [ExactSum::new(); GaugeId::COUNT],
            hists: HistogramId::ALL
                .iter()
                .map(|h| HistAcc::new(h.bounds()))
                .collect(),
            timers: TimerId::ALL
                .iter()
                .map(|t| HistAcc::new(t.bounds()))
                .collect(),
            rules: RuleHistogram::new(),
        }
    }

    /// Folds one tenant's registry into the accumulator. Counters,
    /// histogram buckets and rule fires add as integers; gauges and
    /// histogram sums accumulate error-free.
    // dasr-lint: no-alloc
    pub fn fold(&mut self, reg: &MetricRegistry) {
        for (a, b) in self.counters.iter_mut().zip(reg.counters.iter()) {
            *a += b;
        }
        for (a, b) in self.gauges.iter_mut().zip(reg.gauges.iter()) {
            a.add(*b);
        }
        for (a, b) in self.hists.iter_mut().zip(reg.hists.iter()) {
            a.fold(b);
        }
        for (a, b) in self.timers.iter_mut().zip(reg.timers.iter()) {
            a.fold(b);
        }
        self.rules.merge(&reg.rules);
    }

    /// Merges another accumulator in (the monoid operation). Because every
    /// float is an exact sum, `merge` is associative and commutative at
    /// the bit level.
    // dasr-lint: no-alloc
    pub fn merge(&mut self, other: &MetricsAccumulator) {
        for (a, b) in self.counters.iter_mut().zip(other.counters.iter()) {
            *a += b;
        }
        for (a, b) in self.gauges.iter_mut().zip(other.gauges.iter()) {
            a.merge(b);
        }
        for (a, b) in self.hists.iter_mut().zip(other.hists.iter()) {
            a.merge(b);
        }
        for (a, b) in self.timers.iter_mut().zip(other.timers.iter()) {
            a.merge(b);
        }
        self.rules.merge(&other.rules);
    }

    /// Rounds the exact fold into a plain [`MetricRegistry`]. The result
    /// depends only on the multiset of folded registries, never on the
    /// shard grouping or merge order.
    pub fn finish(self) -> MetricRegistry {
        let mut gauges = [0.0; GaugeId::COUNT];
        for (slot, g) in gauges.iter_mut().zip(self.gauges.iter()) {
            *slot = g.value();
        }
        MetricRegistry {
            counters: self.counters,
            gauges,
            hists: self.hists.into_iter().map(HistAcc::finish).collect(),
            timers: self.timers.into_iter().map(HistAcc::finish).collect(),
            rules: self.rules,
        }
    }
}

impl Default for MetricsAccumulator {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Display for MetricRegistry {
    /// Human-readable rendering, always derived from the structured
    /// registry (never stored): non-zero counters, gauges, and histogram
    /// summaries.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for id in CounterId::ALL {
            let n = self.counter(id);
            if n > 0 {
                writeln!(f, "  {:<26} {n:>10}", id.name())?;
            }
        }
        for id in GaugeId::ALL {
            writeln!(f, "  {:<26} {:>10.2}", id.name(), self.gauge(id))?;
        }
        for id in HistogramId::ALL {
            let h = self.histogram(id);
            if h.total() > 0 {
                writeln!(
                    f,
                    "  {:<26} {:>10} obs, mean {:.2}",
                    id.name(),
                    h.total(),
                    h.mean().unwrap_or(f64::NAN)
                )?;
            }
        }
        for id in TimerId::ALL {
            let t = self.timer(id);
            if t.total() > 0 {
                writeln!(
                    f,
                    "  {:<26} {:>10} obs, mean {:.0} ns (wall, non-deterministic)",
                    id.name(),
                    t.total(),
                    t.mean().unwrap_or(f64::NAN)
                )?;
            }
        }
        if self.rules.total() > 0 {
            writeln!(f, "  rule fires:")?;
            write!(f, "{}", self.rules)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RuleId;

    #[test]
    fn ids_are_dense_and_named_uniquely() {
        for (i, id) in CounterId::ALL.into_iter().enumerate() {
            assert_eq!(id.index(), i);
        }
        for (i, id) in GaugeId::ALL.into_iter().enumerate() {
            assert_eq!(id.index(), i);
        }
        for (i, id) in HistogramId::ALL.into_iter().enumerate() {
            assert_eq!(id.index(), i);
        }
        for (i, id) in TimerId::ALL.into_iter().enumerate() {
            assert_eq!(id.index(), i);
        }
        let mut names: Vec<&str> = CounterId::ALL.iter().map(|c| c.name()).collect();
        names.extend(GaugeId::ALL.iter().map(|g| g.name()));
        names.extend(HistogramId::ALL.iter().map(|h| h.name()));
        names.extend(TimerId::ALL.iter().map(|t| t.name()));
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "wire names collide");
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = FixedHistogram::new(HistogramId::ResizeStep.bounds());
        h.observe(-5.0); // below the first bound → first bucket
        h.observe(-1.0);
        h.observe(0.0);
        h.observe(1.0);
        h.observe(9.0); // overflow
        assert_eq!(h.total(), 5);
        assert_eq!(h.counts()[0], 1, "-5 clamps into the lowest bucket");
        assert_eq!(*h.counts().last().unwrap(), 1, "9 overflows");
        assert_eq!(h.sum(), 4.0);
        assert_eq!(h.mean(), Some(0.8));
    }

    #[test]
    fn merge_is_additive_everywhere() {
        let mut a = MetricRegistry::new();
        a.inc(CounterId::ResizesIssued);
        a.set_gauge(GaugeId::FinalRung, 2.0);
        a.observe(HistogramId::IntervalLatencyMs, 40.0);
        a.observe_ns(TimerId::SignalsNs, 900);
        a.rules_mut().record(RuleId::HighA);
        let mut b = a.clone();
        b.add(CounterId::ResizesIssued, 2);
        b.observe_ns(TimerId::DecideNs, 3_000);
        let mut acc = MetricsAccumulator::new();
        acc.fold(&a);
        acc.fold(&b);
        let fleet = acc.finish();
        assert_eq!(fleet.counter(CounterId::ResizesIssued), 4);
        assert_eq!(fleet.gauge(GaugeId::FinalRung), 4.0);
        let lat = fleet.histogram(HistogramId::IntervalLatencyMs);
        assert_eq!((lat.total(), lat.sum()), (2, 80.0));
        let signals = fleet.timer(TimerId::SignalsNs);
        assert_eq!((signals.total(), signals.sum()), (2, 1_800.0));
        assert_eq!(fleet.timer(TimerId::DecideNs).total(), 1);
        assert_eq!(fleet.rules().count(RuleId::HighA), 2);
    }

    #[test]
    fn hist_acc_observe_matches_fixed_histogram() {
        let bounds = crate::runner::shard::REQUEST_LATENCY_BOUNDS;
        let mut values = vec![0.0, bounds[bounds.len() - 1] * 2.0];
        for &b in bounds {
            // Every bound is positive, so ±1 on the bits is one ulp.
            let bits = b.to_bits();
            values.extend([f64::from_bits(bits - 1), b, f64::from_bits(bits + 1)]);
        }
        let mut reference = FixedHistogram::new(bounds);
        let mut acc = HistAcc::new(bounds);
        for &v in &values {
            reference.observe(v);
            acc.observe(v);
        }
        let folded = acc.finish();
        assert_eq!(folded.counts(), reference.counts());
        assert_eq!(folded.total(), reference.total());
        assert_eq!(folded.sum().to_bits(), reference.sum().to_bits());
    }

    #[test]
    fn equality_ignores_wall_timers() {
        let mut a = MetricRegistry::new();
        let mut b = MetricRegistry::new();
        a.inc(CounterId::IntervalsRun);
        b.inc(CounterId::IntervalsRun);
        a.observe_ns(TimerId::SignalsNs, 1_000);
        b.observe_ns(TimerId::SignalsNs, 999_999);
        assert_eq!(a, b, "timers are the non-deterministic section");
        b.inc(CounterId::SloViolations);
        assert_ne!(a, b);
    }

    #[test]
    fn jsonl_lists_every_metric_once() {
        let mut reg = MetricRegistry::new();
        reg.inc(CounterId::IntervalsRun);
        reg.rules_mut().record(RuleId::HoldSteady);
        let out = reg.to_jsonl();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines.len(),
            CounterId::COUNT + GaugeId::COUNT + HistogramId::COUNT + TimerId::COUNT + 1
        );
        assert!(lines[0].contains("\"metric\":\"intervals_run\""));
        assert!(out.contains("\"type\":\"timer\""));
        assert!(out.contains("rule_fires.hold_steady"));
        // Every line parses as one JSON object.
        for line in lines {
            crate::json::parse(line).expect("valid JSON line");
        }
    }

    #[test]
    fn display_renders_from_structure() {
        let mut reg = MetricRegistry::new();
        reg.add(CounterId::RequestsCompleted, 7);
        reg.observe(HistogramId::BudgetHeadroomPct, 55.0);
        let text = reg.to_string();
        assert!(text.contains("requests_completed"));
        assert!(text.contains("budget_headroom_pct"));
    }

    #[test]
    fn quantile_estimate_walks_buckets() {
        let mut h = FixedHistogram::new(HistogramId::BudgetHeadroomPct.bounds());
        assert_eq!(h.quantile_estimate(95.0), None);
        for v in [5.0, 15.0, 15.0, 25.0] {
            h.observe(v);
        }
        // First bucket reports its upper bound.
        assert_eq!(h.quantile_estimate(1.0), Some(10.0));
        // Median falls in the (10, 20] bucket, interpolated.
        let med = h.quantile_estimate(50.0).unwrap();
        assert!((10.0..=20.0).contains(&med), "median estimate {med}");
        // Overflow observations report the last bound.
        let mut o = FixedHistogram::new(HistogramId::BudgetHeadroomPct.bounds());
        o.observe(1_000.0);
        assert_eq!(o.quantile_estimate(99.0), Some(100.0));
    }

    #[test]
    fn accumulator_matches_sequential_merge_and_is_grouping_independent() {
        // Per-tenant registries with awkward float gauges/sums.
        let regs: Vec<MetricRegistry> = (0..20)
            .map(|i| {
                let mut r = MetricRegistry::new();
                r.add(CounterId::RequestsCompleted, i as u64 + 1);
                r.set_gauge(GaugeId::BudgetRemaining, 1e15 / (i as f64 + 1.0));
                r.observe(HistogramId::IntervalLatencyMs, 0.1 * (i as f64 + 1.0));
                r.rules_mut().record(RuleId::HoldSteady);
                r
            })
            .collect();
        let finish_grouped = |chunk: usize| {
            let mut total = MetricsAccumulator::new();
            for group in regs.chunks(chunk) {
                let mut shard = MetricsAccumulator::new();
                for r in group {
                    shard.fold(r);
                }
                total.merge(&shard);
            }
            total.finish()
        };
        let reference = finish_grouped(1);
        for chunk in [3usize, 7, 20] {
            let merged = finish_grouped(chunk);
            assert_eq!(merged, reference, "grouping {chunk} diverged");
            // Bitwise equality of the float sections, beyond PartialEq.
            assert_eq!(
                merged.gauge(GaugeId::BudgetRemaining).to_bits(),
                reference.gauge(GaugeId::BudgetRemaining).to_bits()
            );
            assert_eq!(
                merged
                    .histogram(HistogramId::IntervalLatencyMs)
                    .sum()
                    .to_bits(),
                reference
                    .histogram(HistogramId::IntervalLatencyMs)
                    .sum()
                    .to_bits()
            );
        }
        assert_eq!(reference.counter(CounterId::RequestsCompleted), 210);
        assert_eq!(reference.rules().count(RuleId::HoldSteady), 20);
    }
}
