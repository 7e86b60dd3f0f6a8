//! The declarative §4 rule engine: the paper's manually-constructed rule
//! hierarchy as *data*, not control flow.
//!
//! The §4.2/§4.3 scenarios are static [`RuleTable`]s — ordered
//! lists of [`Rule`]s whose conditions are [`Predicate`] combinators over
//! the categorized signal domain — evaluated by a generic first-match
//! engine. The payoff, following RobustScaler and Daedalus's
//! model-as-data designs:
//!
//! - every decision names the [`RuleId`] that produced it, so traces,
//!   histograms and golden tests speak one stable vocabulary;
//! - human-readable explanations are *rendered from* the structured
//!   [`RuleFire`] (id + captured bindings) instead of being stored as
//!   strings;
//! - the §6 arbitration (scale-up vs lock-dominance vs scale-down vs
//!   hold) is one more table over policy-level [`Fact`]s, so the whole
//!   loop is one evaluation plus one arbitration pass.
//!
//! `tests/decision_domain.rs` checks the tables over their whole finite
//! domain: every row fires for some input the telemetry manager can
//! produce, no conjunct of a row is implied by the rest of it but the
//! three [`HIGH_DEMAND`] and [`LOW_DEMAND`] name, the §4 step bounds hold,
//! and every class's outcome is pinned by hash.

use crate::estimator::EstimatorConfig;
use dasr_telemetry::categorize::{LatencyVerdict, UtilLevel, WaitPctLevel, WaitTimeLevel};
use dasr_telemetry::signals::{LatencySignals, ResourceSignals};
use std::fmt;

/// Utilization at or above this marks extreme pressure, enabling 2-step
/// scale-ups ([`RuleId::HighASurge`]).
pub const VERY_HIGH_UTIL_PCT: f64 = 90.0;

/// Utilization at or below this enables 2-step scale-downs
/// ([`RuleId::LowIdle`]).
pub const VERY_LOW_UTIL_PCT: f64 = 5.0;

/// Wait percentage at or above this marks overwhelming dominance, enabling
/// 2-step scale-ups ([`RuleId::HighASurge`]).
pub const DOMINANT_WAIT_PCT: f64 = 70.0;

/// Stable identifier of every rule in the system.
///
/// The first block is the §4.2 high-demand hierarchy and the §4.3-adjacent
/// low-demand rules; the second block is the §6 arbitration branches; the
/// third is the gate rules that annotate a decision (budget, balloon,
/// emergency, headroom). The discriminant order is the wire order — do not
/// reorder without bumping the trace format. [`HIGH_DEMAND`],
/// [`LOW_DEMAND`] and [`ARBITRATION`] list their rows in this order too,
/// which is what lets a [`RuleSet`] stand in for an evaluated-rule list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum RuleId {
    /// §4.2(a) at extreme pressure: everything HIGH/SIGNIFICANT *and*
    /// utilization ≥ [`VERY_HIGH_UTIL_PCT`] *and* wait share ≥
    /// [`DOMINANT_WAIT_PCT`] *and* an increasing trend — jump two rungs.
    HighASurge,
    /// §4.2(a): utilization HIGH, waits HIGH, wait share SIGNIFICANT.
    HighA,
    /// §4.2(b): utilization HIGH, waits HIGH, share NOT significant, but a
    /// SIGNIFICANT increasing trend corroborates.
    HighB,
    /// §4.2(c): utilization HIGH, waits MEDIUM yet SIGNIFICANT, with an
    /// increasing trend.
    HighC,
    /// §3.2.2 bottleneck identification: latency BAD and rank-correlated
    /// with SIGNIFICANT waits of at least MEDIUM magnitude.
    HighCorr,
    /// Scale-down at near-idle utilization (≤ [`VERY_LOW_UTIL_PCT`]): two
    /// rungs.
    LowIdle,
    /// Scale-down: utilization LOW, waits LOW, no increasing trend.
    Low,
    /// §6 branch: both scale directions are inside the post-resize
    /// cooldown — hold.
    CooldownHold,
    /// §6 branch: the latency gate is open and some resource demands more
    /// — scale up.
    ScaleUpDemand,
    /// §6 / Figure 13 branch: latency is bad but waits are dominated by
    /// application locks — explain instead of scaling.
    LockDominated,
    /// §6 branch: latency is bad yet no resource shows demand — explain.
    LatencyBadNoDemand,
    /// §6 branch: nothing needs attention and demand (or latency headroom)
    /// points down — scale down.
    ScaleDownDemand,
    /// §6 fallback branch: no rule fired — keep the current container.
    HoldSteady,
    /// Gate: latency beyond
    /// [`EMERGENCY_FACTOR`](crate::policy::auto::EMERGENCY_FACTOR) × goal
    /// bypassed the scale-up cooldown.
    EmergencyBypass,
    /// Gate: the available budget truncated or blocked a recommended
    /// scale-up (§5).
    BudgetConstrained,
    /// Gate: the bucket can no longer afford the *current* container — a
    /// forced downgrade to the most expensive affordable one (§5).
    BudgetForcedDowngrade,
    /// Gate: latency comfortably inside the goal justified a
    /// whole-container step down despite demand (§2.3).
    LatencyHeadroom,
    /// Gate: a balloon probe was started to test low memory demand (§4.3).
    BalloonStart,
    /// Gate: a balloon probe aborted because disk I/O rose (§4.3).
    BalloonAbort,
    /// Gate: a committed balloon probe authorized a memory shrink (§4.3).
    BalloonConfirmedShrink,
}

impl RuleId {
    /// Number of rule identifiers.
    pub const COUNT: usize = 20;

    /// Every identifier, in wire order.
    pub const ALL: [RuleId; RuleId::COUNT] = [
        RuleId::HighASurge,
        RuleId::HighA,
        RuleId::HighB,
        RuleId::HighC,
        RuleId::HighCorr,
        RuleId::LowIdle,
        RuleId::Low,
        RuleId::CooldownHold,
        RuleId::ScaleUpDemand,
        RuleId::LockDominated,
        RuleId::LatencyBadNoDemand,
        RuleId::ScaleDownDemand,
        RuleId::HoldSteady,
        RuleId::EmergencyBypass,
        RuleId::BudgetConstrained,
        RuleId::BudgetForcedDowngrade,
        RuleId::LatencyHeadroom,
        RuleId::BalloonStart,
        RuleId::BalloonAbort,
        RuleId::BalloonConfirmedShrink,
    ];

    /// Dense index (the discriminant), for histogram slots and
    /// [`RuleSet`] bits.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable wire name used by the JSONL trace format.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::HighASurge => "high_a_surge",
            RuleId::HighA => "high_a",
            RuleId::HighB => "high_b",
            RuleId::HighC => "high_c",
            RuleId::HighCorr => "high_corr",
            RuleId::LowIdle => "low_idle",
            RuleId::Low => "low",
            RuleId::CooldownHold => "cooldown_hold",
            RuleId::ScaleUpDemand => "scale_up_demand",
            RuleId::LockDominated => "lock_dominated",
            RuleId::LatencyBadNoDemand => "latency_bad_no_demand",
            RuleId::ScaleDownDemand => "scale_down_demand",
            RuleId::HoldSteady => "hold_steady",
            RuleId::EmergencyBypass => "emergency_bypass",
            RuleId::BudgetConstrained => "budget_constrained",
            RuleId::BudgetForcedDowngrade => "budget_forced_downgrade",
            RuleId::LatencyHeadroom => "latency_headroom",
            RuleId::BalloonStart => "balloon_start",
            RuleId::BalloonAbort => "balloon_abort",
            RuleId::BalloonConfirmedShrink => "balloon_confirmed_shrink",
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A set of [`RuleId`]s as one bit per id, iterated in wire order.
///
/// An evaluated-rule list is always a prefix of one table, or the
/// high-demand table followed by a prefix of the low-demand one, and every
/// table lists its rows in wire order — so the set iterates in exactly the
/// order the rules were tried.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct RuleSet(u32);

impl RuleSet {
    /// The empty set.
    pub const fn new() -> Self {
        RuleSet(0)
    }

    /// Adds `id`.
    pub fn insert(&mut self, id: RuleId) {
        self.0 |= 1 << id.index();
    }

    /// Removes `id`.
    pub fn remove(&mut self, id: RuleId) {
        self.0 &= !(1 << id.index());
    }

    /// True when `id` is in the set.
    pub fn contains(self, id: RuleId) -> bool {
        self.0 & (1 << id.index()) != 0
    }

    /// Every id in `self` or `other`.
    pub fn union(self, other: RuleSet) -> RuleSet {
        RuleSet(self.0 | other.0)
    }

    /// Number of ids in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// True when the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The id latest in wire order — the fired row of an evaluation that
    /// fired.
    pub fn last(self) -> Option<RuleId> {
        self.iter().next_back()
    }

    /// The ids, in wire order.
    pub fn iter(self) -> RuleSetIter {
        RuleSetIter(self.0)
    }
}

impl FromIterator<RuleId> for RuleSet {
    fn from_iter<I: IntoIterator<Item = RuleId>>(ids: I) -> Self {
        let mut set = RuleSet::new();
        for id in ids {
            set.insert(id);
        }
        set
    }
}

/// Iterator over a [`RuleSet`], in wire order.
#[derive(Debug, Clone)]
pub struct RuleSetIter(u32);

impl Iterator for RuleSetIter {
    type Item = RuleId;

    fn next(&mut self) -> Option<RuleId> {
        if self.0 == 0 {
            return None;
        }
        let i = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(RuleId::ALL[i])
    }
}

impl DoubleEndedIterator for RuleSetIter {
    fn next_back(&mut self) -> Option<RuleId> {
        if self.0 == 0 {
            return None;
        }
        let i = 31 - self.0.leading_zeros() as usize;
        self.0 &= !(1 << i);
        Some(RuleId::ALL[i])
    }
}

impl fmt::Debug for RuleSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A named policy-level boolean the §6 arbitration predicates test.
///
/// Facts are computed once per decision from the signal set, the policy's
/// cooldown state and the tenant knobs, then the arbitration table is
/// evaluated over the resulting [`FactSet`] — one evaluation, one
/// arbitration pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fact {
    /// The tenant set a latency goal.
    HasGoal,
    /// Latency is BAD or trending up significantly (§6).
    LatencyAttention,
    /// Scale-ups are blocked (inside the sensitivity cooldown, and latency
    /// within [`EMERGENCY_FACTOR`](crate::policy::auto::EMERGENCY_FACTOR)
    /// × goal).
    UpBlocked,
    /// Scale-downs are blocked (resized last interval).
    DownBlocked,
    /// Some resource demands a larger container.
    DemandUp,
    /// The scale-down preconditions hold (no up demand, latency calm, and
    /// either down demand or latency headroom).
    WantsDown,
    /// The scale-up gate is open (latency needs attention, or the tenant
    /// has no goal and scales purely on demand, §2.3).
    ScaleUpGate,
    /// Lock waits dominate total waits (Figure 13).
    LockShareHigh,
}

impl Fact {
    fn bit(self) -> u8 {
        1 << (self as usize)
    }
}

/// A small bitset of [`Fact`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FactSet(u8);

impl FactSet {
    /// The empty set.
    pub const fn new() -> Self {
        FactSet(0)
    }

    /// Adds `fact` when `holds`, returning the set (builder style).
    pub fn with(mut self, fact: Fact, holds: bool) -> Self {
        if holds {
            self.0 |= fact.bit();
        }
        self
    }

    /// True when `fact` is in the set.
    pub fn contains(self, fact: Fact) -> bool {
        self.0 & fact.bit() != 0
    }
}

/// A condition over categorized signals and policy facts.
///
/// The leaf predicates mirror the paper's categorical vocabulary
/// (`UtilIs(HIGH)`, `WaitPctIs(SIGNIFICANT)`, …); [`Predicate::All`],
/// [`Predicate::Any`] and [`Predicate::Not`] combine them. The percentage
/// guards carry their cut-off; the correlation guard reads the one
/// runtime-set threshold, [`EstimatorConfig::corr_threshold`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Predicate {
    /// The resource's utilization category equals the level.
    UtilIs(UtilLevel),
    /// The resource's wait-magnitude category equals the level.
    WaitIs(WaitTimeLevel),
    /// The resource's wait-magnitude category is at least the level.
    WaitAtLeast(WaitTimeLevel),
    /// The resource's wait-percentage category equals the level.
    WaitPctIs(WaitPctLevel),
    /// The latency verdict equals the value.
    LatencyIs(LatencyVerdict),
    /// Utilization and/or waits show a SIGNIFICANT increasing trend.
    Trending,
    /// The resource's (continuous) utilization is at least the percentage.
    UtilAtLeastPct(f64),
    /// The resource's (continuous) utilization is at most the percentage.
    UtilAtMostPct(f64),
    /// The resource's (continuous) wait share is at least the percentage.
    WaitPctAtLeastPct(f64),
    /// Latency rank-correlates (ρ ≥ [`EstimatorConfig::corr_threshold`])
    /// with the resource's waits or utilization (§3.2.2).
    CorrAbove,
    /// A policy-level fact holds.
    Is(Fact),
    /// Every sub-predicate holds.
    All(&'static [Predicate]),
    /// At least one sub-predicate holds.
    Any(&'static [Predicate]),
    /// The sub-predicate does not hold.
    Not(&'static Predicate),
    /// Always holds (the fallback rule's condition).
    True,
}

/// Everything a predicate may consult during one evaluation.
///
/// Resource-level predicates need `resource` (and `latency` for the
/// correlation rule); the arbitration table needs only `facts`. A resource
/// predicate evaluated without a resource is vacuously false.
#[derive(Debug, Clone, Copy)]
pub struct EvalCtx<'a> {
    /// The estimator tuning [`Predicate::CorrAbove`] reads.
    pub cfg: &'a EstimatorConfig,
    /// The resource dimension under evaluation, if any.
    pub resource: Option<&'a ResourceSignals>,
    /// Latency signals, if available.
    pub latency: Option<&'a LatencySignals>,
    /// Policy-level facts.
    pub facts: FactSet,
}

impl<'a> EvalCtx<'a> {
    /// Context for evaluating the per-resource demand tables.
    pub fn demand(
        cfg: &'a EstimatorConfig,
        resource: &'a ResourceSignals,
        latency: &'a LatencySignals,
    ) -> Self {
        Self {
            cfg,
            resource: Some(resource),
            latency: Some(latency),
            facts: FactSet::new(),
        }
    }

    /// Context for evaluating the §6 arbitration table.
    pub fn arbitration(cfg: &'a EstimatorConfig, facts: FactSet) -> Self {
        Self {
            cfg,
            resource: None,
            latency: None,
            facts,
        }
    }
}

impl Predicate {
    /// Evaluates the predicate under `ctx`.
    pub fn eval(&self, ctx: &EvalCtx<'_>) -> bool {
        match *self {
            Predicate::UtilIs(level) => ctx
                .resource
                .is_some_and(|sig| sig.categories().util == level),
            Predicate::WaitIs(level) => ctx
                .resource
                .is_some_and(|sig| sig.categories().wait == level),
            Predicate::WaitAtLeast(level) => ctx
                .resource
                .is_some_and(|sig| sig.categories().wait >= level),
            Predicate::WaitPctIs(level) => ctx
                .resource
                .is_some_and(|sig| sig.categories().wait_pct == level),
            Predicate::LatencyIs(verdict) => ctx.latency.is_some_and(|l| l.verdict == verdict),
            Predicate::Trending => ctx
                .resource
                .is_some_and(ResourceSignals::increasing_pressure_trend),
            Predicate::UtilAtLeastPct(t) => ctx.resource.is_some_and(|sig| sig.util_pct >= t),
            Predicate::UtilAtMostPct(t) => ctx.resource.is_some_and(|sig| sig.util_pct <= t),
            Predicate::WaitPctAtLeastPct(t) => ctx.resource.is_some_and(|sig| sig.wait_pct >= t),
            Predicate::CorrAbove => ctx
                .resource
                .is_some_and(|sig| sig.latency_correlated(ctx.cfg.corr_threshold)),
            Predicate::Is(fact) => ctx.facts.contains(fact),
            Predicate::All(subs) => subs.iter().all(|p| p.eval(ctx)),
            Predicate::Any(subs) => subs.iter().any(|p| p.eval(ctx)),
            Predicate::Not(sub) => !sub.eval(ctx),
            Predicate::True => true,
        }
    }
}

/// One row of a rule table: when `when` holds, the rule fires with `step`.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// The rule's stable identity.
    pub id: RuleId,
    /// Container-rung step the rule demands (0 for arbitration branches).
    pub step: i8,
    /// The condition.
    pub when: Predicate,
}

/// An ordered rule table evaluated first-match-wins — the §4 hierarchy
/// ("manually constructed hierarchy of rules") as data.
#[derive(Debug, Clone, Copy)]
pub struct RuleTable {
    /// Table name, used by traces and docs.
    pub name: &'static str,
    /// The rules, in priority order.
    pub rules: &'static [Rule],
}

/// Numeric signal values captured when a rule fires, so the explanation
/// can be rendered later without keeping any formatted string.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Bindings {
    /// Median utilization % at fire time.
    pub util_pct: f64,
    /// Median wait share % at fire time.
    pub wait_pct: f64,
    /// The correlation threshold in force (for the §3.2.2 rule's text).
    pub corr_threshold: f64,
}

impl Bindings {
    /// Captures the bindings for `sig` under `cfg`.
    pub fn capture(cfg: &EstimatorConfig, sig: &ResourceSignals) -> Self {
        Self {
            util_pct: sig.util_pct,
            wait_pct: sig.wait_pct,
            corr_threshold: cfg.corr_threshold,
        }
    }
}

/// A fired rule: identity, demanded step, and the captured bindings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuleFire {
    /// Which rule fired.
    pub id: RuleId,
    /// The step it demands.
    pub step: i8,
    /// Signal values captured at fire time.
    pub bindings: Bindings,
}

impl RuleFire {
    /// Renders the rule's explanation in the paper's categorical
    /// vocabulary — the same wording the seed if-chain emitted, now
    /// *derived* from the structured fire instead of stored.
    pub fn render(&self) -> String {
        let b = &self.bindings;
        match self.id {
            RuleId::HighASurge => format!(
                "utilization {:.0}% HIGH, waits HIGH, {:.0}% of waits SIGNIFICANT, increasing trend",
                b.util_pct, b.wait_pct
            ),
            RuleId::HighA => format!(
                "utilization {:.0}% HIGH, waits HIGH, {:.0}% of waits SIGNIFICANT",
                b.util_pct, b.wait_pct
            ),
            RuleId::HighB => "utilization HIGH, waits HIGH, increasing trend corroborates".into(),
            RuleId::HighC => {
                "utilization HIGH, waits MEDIUM but SIGNIFICANT with increasing trend".into()
            }
            RuleId::HighCorr => format!(
                "latency BAD and rank-correlated (ρ≥{:.1}) with these waits",
                b.corr_threshold
            ),
            RuleId::LowIdle => format!(
                "utilization {:.0}% nearly idle, waits LOW",
                b.util_pct
            ),
            RuleId::Low => format!(
                "utilization {:.0}% LOW, waits LOW, no increasing trend",
                b.util_pct
            ),
            other => other.name().to_string(),
        }
    }
}

/// The result of evaluating one table: which rules were *tried*, in order,
/// and the first that fired (if any) — the raw material of a
/// [`crate::trace::DecisionTrace`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Evaluation {
    /// Rules evaluated, up to and including the fired one (table order is
    /// wire order, so the set iterates in the order they were tried).
    pub evaluated: RuleSet,
    /// The first rule whose condition held.
    pub fired: Option<RuleFire>,
}

impl RuleTable {
    /// Evaluates the table first-match-wins under `ctx`.
    ///
    /// # Examples
    ///
    /// The §6 arbitration table evaluated over a per-decision fact set —
    /// the first row whose predicate holds wins:
    ///
    /// ```
    /// use dasr_core::rules::{EvalCtx, Fact, FactSet, RuleId, ARBITRATION};
    /// use dasr_core::EstimatorConfig;
    ///
    /// let cfg = EstimatorConfig::default();
    ///
    /// // Scale-up demand with the gate open and no cooldown block…
    /// let facts = FactSet::new()
    ///     .with(Fact::ScaleUpGate, true)
    ///     .with(Fact::DemandUp, true);
    /// let eval = ARBITRATION.evaluate(&EvalCtx::arbitration(&cfg, facts));
    /// assert_eq!(eval.fired.map(|f| f.id), Some(RuleId::ScaleUpDemand));
    ///
    /// // …while an empty fact set falls through every branch to the
    /// // catch-all hold row, recording each rule it tried on the way.
    /// let eval = ARBITRATION.evaluate(&EvalCtx::arbitration(&cfg, FactSet::new()));
    /// assert_eq!(eval.fired.map(|f| f.id), Some(RuleId::HoldSteady));
    /// assert_eq!(eval.evaluated.len(), 6);
    /// ```
    pub fn evaluate(&self, ctx: &EvalCtx<'_>) -> Evaluation {
        let mut evaluated = RuleSet::new();
        for rule in self.rules {
            evaluated.insert(rule.id);
            if rule.when.eval(ctx) {
                let bindings = match ctx.resource {
                    Some(sig) => Bindings::capture(ctx.cfg, sig),
                    None => Bindings {
                        corr_threshold: ctx.cfg.corr_threshold,
                        ..Bindings::default()
                    },
                };
                return Evaluation {
                    evaluated,
                    fired: Some(RuleFire {
                        id: rule.id,
                        step: rule.step,
                        bindings,
                    }),
                };
            }
        }
        Evaluation {
            evaluated,
            fired: None,
        }
    }
}

use Predicate::*;

/// §4.2 high-demand (scale-up) scenarios, in the paper's priority order.
///
/// | row | §4.2 scenario | step |
/// |-----|---------------|------|
/// | [`RuleId::HighASurge`] | (a) at extreme pressure + trend | +2 |
/// | [`RuleId::HighA`] | (a) util HIGH ∧ waits HIGH ∧ share SIGNIFICANT | +1 |
/// | [`RuleId::HighB`] | (b) … share not significant, trend corroborates | +1 |
/// | [`RuleId::HighC`] | (c) waits MEDIUM yet SIGNIFICANT, trending | +1 |
/// | [`RuleId::HighCorr`] | §3.2.2 latency/wait rank correlation | +1 |
///
/// `HighASurge` keeps util HIGH and share SIGNIFICANT although, at the
/// manager's [`THRESHOLDS`](dasr_telemetry::manager::THRESHOLDS), util ≥ 90 % and share ≥ 70 % imply them: the
/// levels are public fields, and on signals not categorized by the manager
/// (the core crate's `decision_stream` draws levels apart from their
/// percentages) the row would fire without them.
pub static HIGH_DEMAND: RuleTable = RuleTable {
    name: "high_demand",
    rules: &[
        Rule {
            id: RuleId::HighASurge,
            step: 2,
            when: All(&[
                UtilIs(UtilLevel::High),
                WaitIs(WaitTimeLevel::High),
                WaitPctIs(WaitPctLevel::Significant),
                UtilAtLeastPct(VERY_HIGH_UTIL_PCT),
                WaitPctAtLeastPct(DOMINANT_WAIT_PCT),
                Trending,
            ]),
        },
        Rule {
            id: RuleId::HighA,
            step: 1,
            when: All(&[
                UtilIs(UtilLevel::High),
                WaitIs(WaitTimeLevel::High),
                WaitPctIs(WaitPctLevel::Significant),
            ]),
        },
        Rule {
            id: RuleId::HighB,
            step: 1,
            when: All(&[
                UtilIs(UtilLevel::High),
                WaitIs(WaitTimeLevel::High),
                Not(&WaitPctIs(WaitPctLevel::Significant)),
                Trending,
            ]),
        },
        Rule {
            id: RuleId::HighC,
            step: 1,
            when: All(&[
                UtilIs(UtilLevel::High),
                WaitIs(WaitTimeLevel::Medium),
                WaitPctIs(WaitPctLevel::Significant),
                Trending,
            ]),
        },
        Rule {
            id: RuleId::HighCorr,
            step: 1,
            when: All(&[
                LatencyIs(LatencyVerdict::Bad),
                WaitPctIs(WaitPctLevel::Significant),
                WaitAtLeast(WaitTimeLevel::Medium),
                CorrAbove,
            ]),
        },
    ],
};

/// Low-demand (scale-down) rules: the other end of the §4.2 spectrum.
/// Never evaluated for memory — low memory demand needs the §4.3 balloon.
///
/// `LowIdle` keeps util LOW, which util ≤ 5 % implies at the manager's
/// thresholds, for the reason [`HIGH_DEMAND`] gives for `HighASurge`.
pub static LOW_DEMAND: RuleTable = RuleTable {
    name: "low_demand",
    rules: &[
        Rule {
            id: RuleId::LowIdle,
            step: -2,
            when: All(&[
                UtilIs(UtilLevel::Low),
                WaitIs(WaitTimeLevel::Low),
                Not(&Trending),
                UtilAtMostPct(VERY_LOW_UTIL_PCT),
            ]),
        },
        Rule {
            id: RuleId::Low,
            step: -1,
            when: All(&[
                UtilIs(UtilLevel::Low),
                WaitIs(WaitTimeLevel::Low),
                Not(&Trending),
            ]),
        },
    ],
};

/// The §6 loop's arbitration: which branch handles this interval.
///
/// Evaluated over the per-decision [`FactSet`]; the branch bodies in
/// `policy::auto` then execute the chosen action. Matches the seed
/// control-flow order exactly: cooldown short-circuit, then scale-up, then
/// the Figure 13 explain-only paths, then scale-down, then hold.
pub static ARBITRATION: RuleTable = RuleTable {
    name: "arbitration",
    rules: &[
        Rule {
            id: RuleId::CooldownHold,
            step: 0,
            when: All(&[Is(Fact::UpBlocked), Is(Fact::DownBlocked)]),
        },
        Rule {
            id: RuleId::ScaleUpDemand,
            step: 0,
            when: All(&[
                Is(Fact::ScaleUpGate),
                Is(Fact::DemandUp),
                Not(&Is(Fact::UpBlocked)),
            ]),
        },
        Rule {
            id: RuleId::LockDominated,
            step: 0,
            when: All(&[
                Is(Fact::HasGoal),
                Is(Fact::LatencyAttention),
                Is(Fact::LockShareHigh),
            ]),
        },
        Rule {
            id: RuleId::LatencyBadNoDemand,
            step: 0,
            when: All(&[Is(Fact::HasGoal), Is(Fact::LatencyAttention)]),
        },
        Rule {
            id: RuleId::ScaleDownDemand,
            step: 0,
            when: All(&[Is(Fact::WantsDown), Not(&Is(Fact::DownBlocked))]),
        },
        Rule {
            id: RuleId::HoldSteady,
            step: 0,
            when: True,
        },
    ],
};

/// Per-run counts of rule fires — which rules drove scaling, how often.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RuleHistogram {
    counts: [u64; RuleId::COUNT],
}

impl RuleHistogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Self {
            counts: [0; RuleId::COUNT],
        }
    }

    /// Records one fire of `id`.
    pub fn record(&mut self, id: RuleId) {
        self.counts[id.index()] += 1;
    }

    /// Fires recorded for `id`.
    pub fn count(&self, id: RuleId) -> u64 {
        self.counts[id.index()]
    }

    /// Total fires across all rules.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Adds every count from `other`.
    pub fn merge(&mut self, other: &RuleHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }

    /// `(rule, count)` pairs with non-zero counts, most-fired first (ties
    /// broken by wire order, so output is deterministic).
    pub fn ranked(&self) -> Vec<(RuleId, u64)> {
        let mut out: Vec<(RuleId, u64)> = RuleId::ALL
            .iter()
            .map(|&id| (id, self.count(id)))
            .filter(|&(_, n)| n > 0)
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.index().cmp(&b.0.index())));
        out
    }
}

impl fmt::Display for RuleHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ranked = self.ranked();
        if ranked.is_empty() {
            return writeln!(f, "  (no rule fires)");
        }
        let total = self.total();
        for (id, n) in ranked {
            writeln!(
                f,
                "  {:<24} {:>8}  ({:>5.1}%)",
                id.name(),
                n,
                n as f64 / total as f64 * 100.0
            )?;
        }
        Ok(())
    }
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
    fn rule_ids_round_trip_names() {
        // Names are distinct, so a name in a trace line names one rule.
        let names: std::collections::BTreeSet<_> = RuleId::ALL.iter().map(|id| id.name()).collect();
        assert_eq!(names.len(), RuleId::COUNT);
        // Dense indexing covers 0..COUNT exactly once.
        let mut seen = [false; RuleId::COUNT];
        for id in RuleId::ALL {
            assert!(!seen[id.index()]);
            seen[id.index()] = true;
        }
    }

    #[test]
    fn index_is_the_wire_position_and_tables_list_rows_in_wire_order() {
        for (i, id) in RuleId::ALL.into_iter().enumerate() {
            assert_eq!(id.index(), i, "{id}");
        }
        // A `RuleSet` replays an evaluated list in wire order, so every
        // table must list its rows in ascending wire order.
        for table in [&HIGH_DEMAND, &LOW_DEMAND, &ARBITRATION] {
            assert!(
                table.rules.windows(2).all(|w| w[0].id < w[1].id),
                "{} rows are out of wire order",
                table.name
            );
        }
        let set = RuleSet::from_iter([RuleId::Low, RuleId::HighA, RuleId::BalloonAbort]);
        assert_eq!(
            set.iter().collect::<Vec<_>>(),
            vec![RuleId::HighA, RuleId::Low, RuleId::BalloonAbort]
        );
        assert_eq!(set.last(), Some(RuleId::BalloonAbort));
        assert_eq!(set.iter().next_back(), Some(RuleId::BalloonAbort));
        let mut set = set;
        set.remove(RuleId::Low);
        set.remove(RuleId::Low);
        assert!(!set.contains(RuleId::Low));
        assert!(set.contains(RuleId::HighA) && set.contains(RuleId::BalloonAbort));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn scenario_a_fires_high_a() {
        let s = sig(
            80.0,
            UtilLevel::High,
            WaitTimeLevel::High,
            50.0,
            WaitPctLevel::Significant,
        );
        let lat = latency(LatencyVerdict::Good);
        let eval = HIGH_DEMAND.evaluate(&EvalCtx::demand(&cfg(), &s, &lat));
        let fire = eval.fired.unwrap();
        assert_eq!(fire.id, RuleId::HighA);
        assert_eq!(fire.step, 1);
        assert_eq!(
            eval.evaluated,
            RuleSet::from_iter([RuleId::HighASurge, RuleId::HighA]),
            "first-match stops the scan"
        );
        assert!(fire.render().contains("80% HIGH"));
    }

    #[test]
    fn surge_outranks_plain_a() {
        let mut s = sig(
            95.0,
            UtilLevel::High,
            WaitTimeLevel::High,
            85.0,
            WaitPctLevel::Significant,
        );
        s.wait_trend = up();
        let lat = latency(LatencyVerdict::Good);
        let eval = HIGH_DEMAND.evaluate(&EvalCtx::demand(&cfg(), &s, &lat));
        assert_eq!(eval.fired.unwrap().id, RuleId::HighASurge);
        assert_eq!(eval.fired.unwrap().step, 2);
    }

    #[test]
    fn no_fire_scans_whole_table() {
        let s = sig(
            40.0,
            UtilLevel::Medium,
            WaitTimeLevel::Low,
            5.0,
            WaitPctLevel::NotSignificant,
        );
        let lat = latency(LatencyVerdict::Good);
        let eval = HIGH_DEMAND.evaluate(&EvalCtx::demand(&cfg(), &s, &lat));
        assert!(eval.fired.is_none());
        assert_eq!(eval.evaluated.len(), HIGH_DEMAND.rules.len());
    }

    #[test]
    fn low_demand_depth() {
        let lat = latency(LatencyVerdict::Good);
        let s = sig(
            20.0,
            UtilLevel::Low,
            WaitTimeLevel::Low,
            5.0,
            WaitPctLevel::NotSignificant,
        );
        let eval = LOW_DEMAND.evaluate(&EvalCtx::demand(&cfg(), &s, &lat));
        assert_eq!(eval.fired.unwrap().id, RuleId::Low);
        let idle = sig(
            3.0,
            UtilLevel::Low,
            WaitTimeLevel::Low,
            5.0,
            WaitPctLevel::NotSignificant,
        );
        let eval = LOW_DEMAND.evaluate(&EvalCtx::demand(&cfg(), &idle, &lat));
        assert_eq!(eval.fired.unwrap().id, RuleId::LowIdle);
        assert_eq!(eval.fired.unwrap().step, -2);
    }

    #[test]
    fn arbitration_branch_priority() {
        let c = cfg();
        // Both directions blocked: cooldown wins over everything.
        let facts = FactSet::new()
            .with(Fact::UpBlocked, true)
            .with(Fact::DownBlocked, true)
            .with(Fact::ScaleUpGate, true)
            .with(Fact::DemandUp, true);
        let eval = ARBITRATION.evaluate(&EvalCtx::arbitration(&c, facts));
        assert_eq!(eval.fired.unwrap().id, RuleId::CooldownHold);
        // Open gate + demand: scale up.
        let facts = FactSet::new()
            .with(Fact::ScaleUpGate, true)
            .with(Fact::DemandUp, true);
        let eval = ARBITRATION.evaluate(&EvalCtx::arbitration(&c, facts));
        assert_eq!(eval.fired.unwrap().id, RuleId::ScaleUpDemand);
        // Bad latency without demand: lock dominance splits the explain
        // path.
        let base = FactSet::new()
            .with(Fact::HasGoal, true)
            .with(Fact::LatencyAttention, true);
        let eval = ARBITRATION.evaluate(&EvalCtx::arbitration(&c, base));
        assert_eq!(eval.fired.unwrap().id, RuleId::LatencyBadNoDemand);
        let eval = ARBITRATION.evaluate(&EvalCtx::arbitration(
            &c,
            base.with(Fact::LockShareHigh, true),
        ));
        assert_eq!(eval.fired.unwrap().id, RuleId::LockDominated);
        // Nothing at all: hold.
        let eval = ARBITRATION.evaluate(&EvalCtx::arbitration(&c, FactSet::new()));
        assert_eq!(eval.fired.unwrap().id, RuleId::HoldSteady);
        assert_eq!(eval.evaluated.len(), ARBITRATION.rules.len());
    }

    #[test]
    fn histogram_ranks_and_merges() {
        let mut h = RuleHistogram::new();
        h.record(RuleId::HighA);
        h.record(RuleId::HighA);
        h.record(RuleId::Low);
        let mut other = RuleHistogram::new();
        other.record(RuleId::Low);
        other.record(RuleId::BalloonStart);
        h.merge(&other);
        assert_eq!(h.total(), 5);
        assert_eq!(h.count(RuleId::HighA), 2);
        assert_eq!(h.count(RuleId::Low), 2);
        let ranked = h.ranked();
        assert_eq!(ranked[0].0, RuleId::HighA, "wire order breaks the tie");
        assert_eq!(ranked[1].0, RuleId::Low);
        assert_eq!(ranked[2], (RuleId::BalloonStart, 1));
        let shown = h.to_string();
        assert!(shown.contains("high_a") && shown.contains("40.0%"));
    }

    #[test]
    fn fact_set_round_trip() {
        let facts = FactSet::new()
            .with(Fact::HasGoal, true)
            .with(Fact::UpBlocked, false)
            .with(Fact::LockShareHigh, true);
        assert!(facts.contains(Fact::HasGoal) && facts.contains(Fact::LockShareHigh));
        assert!(!facts.contains(Fact::UpBlocked) && !facts.contains(Fact::WantsDown));
    }
}
