//! Structured decision traces: what every §6 decision *saw* and *did*.
//!
//! A [`DecisionTrace`] records one interval's decision end to end — the
//! categorized per-resource signals, the rules evaluated and fired (in
//! order), the arbitration branch, demanded vs granted steps, the budget
//! and balloon gates, and the final container — so the human-readable
//! explanation is *rendered from* the trace instead of being stored as
//! strings. Traces serialize to JSON lines (one trace per line) with a
//! hand-rolled encoder/decoder: the workspace is offline and carries no
//! serde, and the format below is small enough that an explicit mapping is
//! clearer than a derive anyway. `f64` round-trips exactly because Rust's
//! `Display` prints the shortest string that parses back to the same bits.
//!
//! A trace is fixed-size and `Copy`: evaluated-rule lists and the gates
//! are [`RuleSet`]s, so building one on the decision path allocates
//! nothing. The §4 explanations are not stored at all:
//! [`DecisionTrace::explanations`] derives them from the fields above.

use crate::explain::{Explanation, ResourceSet};
use crate::rules::{Bindings, RuleFire, RuleHistogram, RuleId, RuleSet};
use dasr_containers::{ContainerId, ResourceKind, RESOURCE_KINDS};
use dasr_telemetry::categorize::{
    LatencyVerdict, ResourceCategories, UtilLevel, WaitPctLevel, WaitTimeLevel,
};
use dasr_telemetry::signals::ResourceSignals;
use dasr_telemetry::SignalSet;

use self::json::Json;

/// One resource dimension's slice of a decision trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceTrace {
    /// The resource dimension.
    pub kind: ResourceKind,
    /// Median utilization % the rules saw.
    pub util_pct: f64,
    /// Median wait ms the rules saw.
    pub wait_ms: f64,
    /// Median wait share % the rules saw.
    pub wait_pct: f64,
    /// The §4.1 categorical snapshot the predicates matched on.
    pub categories: ResourceCategories,
    /// Whether a SIGNIFICANT increasing trend was present.
    pub trending: bool,
    /// Rules evaluated for this dimension, iterated in table order.
    pub evaluated: RuleSet,
    /// The rule that fired, if any.
    pub fired: Option<RuleFire>,
}

impl ResourceTrace {
    fn from_signals(sig: &ResourceSignals) -> Self {
        Self {
            kind: sig.kind,
            util_pct: sig.util_pct,
            wait_ms: sig.wait_ms,
            wait_pct: sig.wait_pct,
            categories: sig.categories(),
            trending: sig.increasing_pressure_trend(),
            evaluated: RuleSet::new(),
            fired: None,
        }
    }

    fn placeholder(kind: ResourceKind) -> Self {
        Self {
            kind,
            util_pct: 0.0,
            wait_ms: 0.0,
            wait_pct: 0.0,
            categories: ResourceCategories {
                util: UtilLevel::Low,
                wait: WaitTimeLevel::Low,
                wait_pct: WaitPctLevel::NotSignificant,
            },
            trending: false,
            evaluated: RuleSet::new(),
            fired: None,
        }
    }
}

/// The latency slice of a decision trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyTrace {
    /// Observed latency, ms (per the goal's statistic).
    pub observed_ms: Option<f64>,
    /// The goal, ms.
    pub goal_ms: Option<f64>,
    /// The GOOD/BAD verdict.
    pub verdict: LatencyVerdict,
}

/// What the §4.3 ballooning gate did this decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BalloonGate {
    /// Ballooning is disabled for this policy (or the policy has none).
    Disabled,
    /// Enabled, no probe event this decision.
    Idle,
    /// A probe started toward `target_mb`.
    Started {
        /// Probe target, MB.
        target_mb: f64,
    },
    /// The active probe aborted (disk I/O rose).
    Aborted,
    /// A probe committed: memory may shrink to `target_mb`.
    Confirmed {
        /// Confirmed safe pool size, MB.
        target_mb: f64,
    },
}

/// A complete, serializable record of one scaling decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionTrace {
    /// Billing interval the decision closed.
    pub interval: u64,
    /// Tenant index within a fleet run (stamped by `run_fleet`).
    pub tenant: Option<u64>,
    /// Per-resource signal categories and rule evaluations.
    pub resources: [ResourceTrace; RESOURCE_KINDS.len()],
    /// Latency signals the decision saw.
    pub latency: LatencyTrace,
    /// §6 arbitration rules evaluated, iterated in table order.
    pub arbitration: RuleSet,
    /// The arbitration branch that fired.
    pub branch: RuleId,
    /// Steps the estimator demanded, per resource.
    pub demanded: [i8; RESOURCE_KINDS.len()],
    /// Rung steps actually granted (lockstep catalog: the container-rung
    /// delta, broadcast per dimension).
    pub granted: [i8; RESOURCE_KINDS.len()],
    /// The balloon gate's event this decision (§4.3).
    pub balloon: BalloonGate,
    /// Gate rules that annotated the decision (emergency bypass, budget,
    /// headroom, balloon), iterated in wire order.
    pub gates: RuleSet,
    /// Share of waits attributable to application locks, %, as the
    /// decision saw it (the Figure 13 lock-dominance input).
    pub lock_wait_pct: f64,
    /// The move was a whole-container step down taken without a latency
    /// reading to justify it (Auto's idle or demand-free step, Util's
    /// scale-in), so it is explained for every dimension rather than the
    /// demanded ones.
    pub whole_step_down: bool,
    /// Container the decision started from.
    pub from: ContainerId,
    /// Container chosen for the next interval.
    pub target: ContainerId,
}

impl DecisionTrace {
    /// A trace seeded from the interval's signals, before any rule ran:
    /// branch [`RuleId::HoldSteady`], target = `current`.
    pub fn from_signals(signals: &SignalSet, current: ContainerId) -> Self {
        Self {
            interval: signals.interval,
            tenant: None,
            resources: RESOURCE_KINDS.map(|k| ResourceTrace::from_signals(signals.resource(k))),
            latency: LatencyTrace {
                observed_ms: signals.latency.observed_ms,
                goal_ms: signals.latency.goal_ms,
                verdict: signals.latency.verdict,
            },
            arbitration: RuleSet::new(),
            branch: RuleId::HoldSteady,
            demanded: [0; RESOURCE_KINDS.len()],
            granted: [0; RESOURCE_KINDS.len()],
            balloon: BalloonGate::Disabled,
            gates: RuleSet::new(),
            lock_wait_pct: signals.lock_wait_pct,
            whole_step_down: false,
            from: current,
            target: current,
        }
    }

    /// A trace seeded from signals *and* a demand estimate (per-resource
    /// evaluations and demanded steps filled in).
    pub fn with_estimate(
        signals: &SignalSet,
        est: &crate::estimator::DemandEstimate,
        current: ContainerId,
    ) -> Self {
        let mut trace = Self::from_signals(signals, current);
        for (slot, demand) in trace.resources.iter_mut().zip(est.demands.iter()) {
            slot.evaluated = demand.evaluated;
            slot.fired = demand.rule;
        }
        trace.demanded = est.per_resource(|d| d.step);
        trace
    }

    /// An all-quiet placeholder trace (for hand-built reports in tests).
    pub fn empty(interval: u64, container: ContainerId) -> Self {
        Self {
            interval,
            tenant: None,
            resources: RESOURCE_KINDS.map(ResourceTrace::placeholder),
            latency: LatencyTrace {
                observed_ms: None,
                goal_ms: None,
                verdict: LatencyVerdict::Good,
            },
            arbitration: RuleSet::new(),
            branch: RuleId::HoldSteady,
            demanded: [0; RESOURCE_KINDS.len()],
            granted: [0; RESOURCE_KINDS.len()],
            balloon: BalloonGate::Disabled,
            gates: RuleSet::new(),
            lock_wait_pct: 0.0,
            whole_step_down: false,
            from: container,
            target: container,
        }
    }

    /// Records the granted move as a rung delta broadcast across the
    /// (lockstep) dimensions.
    pub fn grant(&mut self, from_rung: u8, target_rung: u8) {
        let delta = target_rung as i8 - from_rung as i8;
        self.granted = [delta; RESOURCE_KINDS.len()];
    }

    /// Whether the budget truncated, blocked or forced the move (§5).
    pub fn budget_limited(&self) -> bool {
        self.gates.contains(RuleId::BudgetConstrained)
            || self.gates.contains(RuleId::BudgetForcedDowngrade)
    }

    /// The decision's §4 explanations, derived from the trace's fields in
    /// the order the decision gives them: the balloon event, the branch's
    /// reasons, the budget's notes, and "No change needed" when nothing
    /// else applies.
    pub fn explanations(&self) -> Vec<Explanation> {
        let mut out = Vec::new();
        match self.balloon {
            BalloonGate::Started { target_mb } => {
                out.push(Explanation::BalloonStarted { target_mb });
            }
            BalloonGate::Aborted => out.push(Explanation::BalloonAborted),
            _ => {}
        }
        let demanded = |keep: fn(i8) -> bool| {
            self.resources
                .iter()
                .zip(self.demanded)
                .filter(move |&(_, step)| keep(step))
                .map(|(r, _)| r)
        };
        match self.branch {
            RuleId::CooldownHold => out.push(Explanation::Cooldown),
            RuleId::ScaleUpDemand => {
                let bottlenecks = demanded(|step| step > 0).filter_map(|r| {
                    let rule = r.fired?;
                    Some(Explanation::ScaleUpBottleneck {
                        resource: r.kind,
                        rule,
                    })
                });
                let before = out.len();
                out.extend(bottlenecks);
                if out.len() == before {
                    // Util has no rule tables: it names the busiest
                    // resource, the last of equals in `RESOURCE_KINDS` order.
                    let busiest = self
                        .resources
                        .iter()
                        .max_by(|a, b| a.util_pct.total_cmp(&b.util_pct))
                        .expect("resources non-empty");
                    out.push(Explanation::UtilScaleUp {
                        resource: busiest.kind,
                    });
                }
                if self.gates.contains(RuleId::BudgetConstrained) {
                    out.push(Explanation::ScaleUpConstrainedByBudget);
                }
            }
            RuleId::LockDominated => out.push(Explanation::NonResourceBottleneck {
                lock_wait_pct: self.lock_wait_pct,
            }),
            RuleId::LatencyBadNoDemand => out.push(Explanation::LatencyBadNoDemand),
            RuleId::ScaleDownDemand
                if self.target != self.from
                    && !self.gates.contains(RuleId::BudgetForcedDowngrade) =>
            {
                if self.gates.contains(RuleId::BalloonConfirmedShrink) {
                    out.push(Explanation::ScaleDownBalloonConfirmed);
                }
                let headroom = self.gates.contains(RuleId::LatencyHeadroom);
                out.push(
                    match (headroom, self.latency.observed_ms, self.latency.goal_ms) {
                        (true, Some(observed_ms), Some(goal_ms)) => {
                            Explanation::ScaleDownLatencyHeadroom {
                                observed_ms,
                                goal_ms,
                            }
                        }
                        _ if self.whole_step_down => Explanation::ScaleDownLowDemand {
                            resources: ResourceSet::ALL,
                        },
                        _ => Explanation::ScaleDownLowDemand {
                            resources: demanded(|step| step < 0).map(|r| r.kind).collect(),
                        },
                    },
                );
            }
            _ => {}
        }
        if self.gates.contains(RuleId::BudgetForcedDowngrade) {
            out.push(Explanation::ScaleUpConstrainedByBudget);
        }
        if out.is_empty() {
            out.push(Explanation::NoChange);
        }
        out
    }

    /// Renders the human-readable explanation lines from the structured
    /// trace — the only path that produces explanation text.
    pub fn render_explanations(&self) -> Vec<String> {
        self.explanations().iter().map(|e| e.to_string()).collect()
    }

    /// Adds every rule fire in this trace (per-resource fires, the
    /// arbitration branch, and the gates) to `hist`.
    pub fn record_fires(&self, hist: &mut RuleHistogram) {
        for r in &self.resources {
            if let Some(fire) = &r.fired {
                hist.record(fire.id);
            }
        }
        hist.record(self.branch);
        for gate in self.gates.iter() {
            hist.record(gate);
        }
    }

    /// Serializes the trace as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        self.encode().write()
    }

    /// Parses a trace back from [`DecisionTrace::to_json_line`] output.
    pub fn from_json_line(line: &str) -> Result<Self, String> {
        Self::from_json(&json::parse(line)?)
    }

    fn encode(&self) -> Json {
        Json::Obj(vec![
            ("interval".into(), Json::Num(self.interval as f64)),
            (
                "tenant".into(),
                match self.tenant {
                    Some(t) => Json::Num(t as f64),
                    None => Json::Null,
                },
            ),
            ("from".into(), Json::Num(self.from.0 as f64)),
            ("target".into(), Json::Num(self.target.0 as f64)),
            (
                "resources".into(),
                Json::Arr(self.resources.iter().map(resource_to_json).collect()),
            ),
            (
                "latency".into(),
                Json::Obj(vec![
                    (
                        "observed_ms".into(),
                        Json::from_opt(self.latency.observed_ms),
                    ),
                    ("goal_ms".into(), Json::from_opt(self.latency.goal_ms)),
                    (
                        "verdict".into(),
                        Json::Str(self.latency.verdict.to_string()),
                    ),
                ]),
            ),
            (
                "arbitration".into(),
                rule_list_to_json(self.arbitration.iter()),
            ),
            ("branch".into(), Json::Str(self.branch.name().into())),
            (
                "demanded".into(),
                Json::Arr(self.demanded.iter().map(|&s| Json::Num(s as f64)).collect()),
            ),
            (
                "granted".into(),
                Json::Arr(self.granted.iter().map(|&s| Json::Num(s as f64)).collect()),
            ),
            ("balloon".into(), balloon_to_json(&self.balloon)),
            ("gates".into(), rule_list_to_json(self.gates.iter())),
            ("lock_wait_pct".into(), Json::Num(self.lock_wait_pct)),
            ("whole_step_down".into(), Json::Bool(self.whole_step_down)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let resources_json = v.get("resources")?.arr()?;
        if resources_json.len() != RESOURCE_KINDS.len() {
            return Err(format!(
                "expected {} resources, found {}",
                RESOURCE_KINDS.len(),
                resources_json.len()
            ));
        }
        let mut resources = RESOURCE_KINDS.map(ResourceTrace::placeholder);
        for (slot, rj) in resources.iter_mut().zip(resources_json.iter()) {
            *slot = resource_from_json(rj)?;
        }
        let latency = v.get("latency")?;
        Ok(Self {
            interval: v.get("interval")?.int()?,
            tenant: match v.get("tenant")? {
                Json::Null => None,
                other => Some(other.int()?),
            },
            resources,
            latency: LatencyTrace {
                observed_ms: latency.get("observed_ms")?.opt_num()?,
                goal_ms: latency.get("goal_ms")?.opt_num()?,
                verdict: verdict_from_str(latency.get("verdict")?.str()?)?,
            },
            arbitration: rule_set_from_json(v.get("arbitration")?)?,
            branch: rule_from_str(v.get("branch")?.str()?)?,
            demanded: steps_from_json(v.get("demanded")?)?,
            granted: steps_from_json(v.get("granted")?)?,
            balloon: balloon_from_json(v.get("balloon")?)?,
            gates: rule_set_from_json(v.get("gates")?)?,
            lock_wait_pct: v.get("lock_wait_pct")?.num()?,
            whole_step_down: v.get("whole_step_down")?.bool()?,
            from: ContainerId(v.get("from")?.int()?),
            target: ContainerId(v.get("target")?.int()?),
        })
    }
}

// ---- field-level encoders/decoders -------------------------------------

fn rule_list_to_json(rules: impl Iterator<Item = RuleId>) -> Json {
    Json::Arr(rules.map(|r| Json::Str(r.name().into())).collect())
}

/// Decodes an evaluated-rule or gate list. A [`RuleSet`] holds only lists
/// in strictly ascending wire order, which is all the encoder writes; any
/// other list is an error rather than silently reordered.
fn rule_set_from_json(v: &Json) -> Result<RuleSet, String> {
    let mut set = RuleSet::new();
    for j in v.arr()? {
        let id = rule_from_str(j.str()?)?;
        if set.last().is_some_and(|last| last >= id) {
            return Err(format!("rule {id} out of wire order"));
        }
        set.insert(id);
    }
    Ok(set)
}

fn rule_from_str(name: &str) -> Result<RuleId, String> {
    RuleId::from_name(name).ok_or_else(|| format!("unknown rule id {name:?}"))
}

fn kind_from_str(name: &str) -> Result<ResourceKind, String> {
    RESOURCE_KINDS
        .into_iter()
        .find(|k| k.name() == name)
        .ok_or_else(|| format!("unknown resource kind {name:?}"))
}

fn verdict_from_str(s: &str) -> Result<LatencyVerdict, String> {
    match s {
        "GOOD" => Ok(LatencyVerdict::Good),
        "BAD" => Ok(LatencyVerdict::Bad),
        other => Err(format!("unknown latency verdict {other:?}")),
    }
}

fn util_from_str(s: &str) -> Result<UtilLevel, String> {
    match s {
        "LOW" => Ok(UtilLevel::Low),
        "MEDIUM" => Ok(UtilLevel::Medium),
        "HIGH" => Ok(UtilLevel::High),
        other => Err(format!("unknown util level {other:?}")),
    }
}

fn wait_from_str(s: &str) -> Result<WaitTimeLevel, String> {
    match s {
        "LOW" => Ok(WaitTimeLevel::Low),
        "MEDIUM" => Ok(WaitTimeLevel::Medium),
        "HIGH" => Ok(WaitTimeLevel::High),
        other => Err(format!("unknown wait level {other:?}")),
    }
}

fn share_from_str(s: &str) -> Result<WaitPctLevel, String> {
    match s {
        "NOT SIGNIFICANT" => Ok(WaitPctLevel::NotSignificant),
        "SIGNIFICANT" => Ok(WaitPctLevel::Significant),
        other => Err(format!("unknown wait share level {other:?}")),
    }
}

fn steps_from_json(v: &Json) -> Result<[i8; RESOURCE_KINDS.len()], String> {
    let arr = v.arr()?;
    if arr.len() != RESOURCE_KINDS.len() {
        return Err("step vector has wrong arity".into());
    }
    let mut out = [0i8; RESOURCE_KINDS.len()];
    for (slot, j) in out.iter_mut().zip(arr.iter()) {
        *slot = j.int()?;
    }
    Ok(out)
}

fn fire_to_json(fire: &RuleFire) -> Json {
    Json::Obj(vec![
        ("rule".into(), Json::Str(fire.id.name().into())),
        ("step".into(), Json::Num(fire.step as f64)),
        ("util_pct".into(), Json::Num(fire.bindings.util_pct)),
        ("wait_pct".into(), Json::Num(fire.bindings.wait_pct)),
        (
            "corr_threshold".into(),
            Json::Num(fire.bindings.corr_threshold),
        ),
    ])
}

fn fire_from_json(v: &Json) -> Result<RuleFire, String> {
    Ok(RuleFire {
        id: rule_from_str(v.get("rule")?.str()?)?,
        step: v.get("step")?.int()?,
        bindings: Bindings {
            util_pct: v.get("util_pct")?.num()?,
            wait_pct: v.get("wait_pct")?.num()?,
            corr_threshold: v.get("corr_threshold")?.num()?,
        },
    })
}

fn resource_to_json(r: &ResourceTrace) -> Json {
    Json::Obj(vec![
        ("kind".into(), Json::Str(r.kind.name().into())),
        ("util_pct".into(), Json::Num(r.util_pct)),
        ("wait_ms".into(), Json::Num(r.wait_ms)),
        ("wait_pct".into(), Json::Num(r.wait_pct)),
        ("util".into(), Json::Str(r.categories.util.to_string())),
        ("wait".into(), Json::Str(r.categories.wait.to_string())),
        ("share".into(), Json::Str(r.categories.wait_pct.to_string())),
        ("trending".into(), Json::Bool(r.trending)),
        ("evaluated".into(), rule_list_to_json(r.evaluated.iter())),
        (
            "fired".into(),
            match &r.fired {
                Some(fire) => fire_to_json(fire),
                None => Json::Null,
            },
        ),
    ])
}

fn resource_from_json(v: &Json) -> Result<ResourceTrace, String> {
    Ok(ResourceTrace {
        kind: kind_from_str(v.get("kind")?.str()?)?,
        util_pct: v.get("util_pct")?.num()?,
        wait_ms: v.get("wait_ms")?.num()?,
        wait_pct: v.get("wait_pct")?.num()?,
        categories: ResourceCategories {
            util: util_from_str(v.get("util")?.str()?)?,
            wait: wait_from_str(v.get("wait")?.str()?)?,
            wait_pct: share_from_str(v.get("share")?.str()?)?,
        },
        trending: v.get("trending")?.bool()?,
        evaluated: rule_set_from_json(v.get("evaluated")?)?,
        fired: match v.get("fired")? {
            Json::Null => None,
            other => Some(fire_from_json(other)?),
        },
    })
}

fn balloon_to_json(gate: &BalloonGate) -> Json {
    let (name, target) = match gate {
        BalloonGate::Disabled => ("disabled", None),
        BalloonGate::Idle => ("idle", None),
        BalloonGate::Started { target_mb } => ("started", Some(*target_mb)),
        BalloonGate::Aborted => ("aborted", None),
        BalloonGate::Confirmed { target_mb } => ("confirmed", Some(*target_mb)),
    };
    let mut fields = vec![("gate".to_string(), Json::Str(name.into()))];
    if let Some(mb) = target {
        fields.push(("target_mb".into(), Json::Num(mb)));
    }
    Json::Obj(fields)
}

fn balloon_from_json(v: &Json) -> Result<BalloonGate, String> {
    match v.get("gate")?.str()? {
        "disabled" => Ok(BalloonGate::Disabled),
        "idle" => Ok(BalloonGate::Idle),
        "aborted" => Ok(BalloonGate::Aborted),
        "started" => Ok(BalloonGate::Started {
            target_mb: v.get("target_mb")?.num()?,
        }),
        "confirmed" => Ok(BalloonGate::Confirmed {
            target_mb: v.get("target_mb")?.num()?,
        }),
        other => Err(format!("unknown balloon gate {other:?}")),
    }
}

/// A minimal JSON value with a writer and a recursive-descent parser —
/// exactly the subset the trace and [`crate::obs`] formats need. Public
/// so out-of-tree tooling (the `dasr-lint` report writer) can emit the
/// same machine-readable JSONL without pulling in serde.
pub mod json {
    use std::fmt::Write as _;

    /// A JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// A (finite) number.
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Json>),
        /// An object, preserving key order.
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        /// `Num` for `Some`, `Null` for `None`.
        pub fn from_opt(v: Option<f64>) -> Json {
            v.map_or(Json::Null, Json::Num)
        }

        /// Looks up `key` in an object; errors on non-objects.
        pub fn get(&self, key: &str) -> Result<&Json, String> {
            match self {
                Json::Obj(fields) => fields
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v)
                    .ok_or_else(|| format!("missing key {key:?}")),
                _ => Err(format!("expected object looking up {key:?}")),
            }
        }

        /// The value as a number; errors otherwise.
        pub fn num(&self) -> Result<f64, String> {
            match self {
                Json::Num(n) => Ok(*n),
                other => Err(format!("expected number, found {other:?}")),
            }
        }

        /// The value as an integer of type `T`: only a number that is
        /// integral and in `T`'s range converts, anything else is an error
        /// rather than a truncating or saturating cast.
        pub fn int<T: TryFrom<i128>>(&self) -> Result<T, String> {
            let n = self.num()?;
            // An integral f64 below 2^127 in magnitude converts to i128
            // exactly; anything larger saturates and fails `try_from`.
            if n.is_finite() && n.fract() == 0.0 {
                if let Ok(v) = T::try_from(n as i128) {
                    return Ok(v);
                }
            }
            Err(format!("expected an integer in range, found {n}"))
        }

        /// The value as a number, with `Null` mapping to `None`.
        pub fn opt_num(&self) -> Result<Option<f64>, String> {
            match self {
                Json::Null => Ok(None),
                Json::Num(n) => Ok(Some(*n)),
                other => Err(format!("expected number or null, found {other:?}")),
            }
        }

        /// The value as a string slice; errors otherwise.
        pub fn str(&self) -> Result<&str, String> {
            match self {
                Json::Str(s) => Ok(s),
                other => Err(format!("expected string, found {other:?}")),
            }
        }

        /// The value as a bool; errors otherwise.
        pub fn bool(&self) -> Result<bool, String> {
            match self {
                Json::Bool(b) => Ok(*b),
                other => Err(format!("expected bool, found {other:?}")),
            }
        }

        /// The value as an array slice; errors otherwise.
        pub fn arr(&self) -> Result<&[Json], String> {
            match self {
                Json::Arr(items) => Ok(items),
                other => Err(format!("expected array, found {other:?}")),
            }
        }

        /// Serializes the value to compact single-line JSON.
        pub fn write(&self) -> String {
            let mut out = String::new();
            self.write_into(&mut out);
            out
        }

        fn write_into(&self, out: &mut String) {
            match self {
                Json::Null => out.push_str("null"),
                Json::Bool(true) => out.push_str("true"),
                Json::Bool(false) => out.push_str("false"),
                // Rust's f64 Display is shortest-round-trip, so the text
                // parses back to the identical bits. Non-finite values are
                // not representable in JSON; the trace never produces them.
                Json::Num(n) => {
                    debug_assert!(n.is_finite(), "JSON cannot carry {n}");
                    let _ = write!(out, "{n}");
                }
                Json::Str(s) => write_escaped(out, s),
                Json::Arr(items) => {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        item.write_into(out);
                    }
                    out.push(']');
                }
                Json::Obj(fields) => {
                    out.push('{');
                    for (i, (k, v)) in fields.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        write_escaped(out, k);
                        out.push(':');
                        v.write_into(out);
                    }
                    out.push('}');
                }
            }
        }
    }

    fn write_escaped(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// Parses one JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        if *pos < bytes.len() && bytes[*pos] == c {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {pos}", c as char))
        }
    }

    fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            None => Err("unexpected end of input".into()),
            Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
            Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
            Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(parse_value(bytes, pos)?);
                    skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                    }
                }
            }
            Some(b'{') => {
                *pos += 1;
                let mut fields = Vec::new();
                skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    skip_ws(bytes, pos);
                    let key = parse_string(bytes, pos)?;
                    skip_ws(bytes, pos);
                    expect(bytes, pos, b':')?;
                    let value = parse_value(bytes, pos)?;
                    fields.push((key, value));
                    skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                    }
                }
            }
            Some(_) => parse_number(bytes, pos),
        }
    }

    fn parse_keyword(
        bytes: &[u8],
        pos: &mut usize,
        word: &str,
        value: Json,
    ) -> Result<Json, String> {
        if bytes[*pos..].starts_with(word.as_bytes()) {
            *pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid keyword at byte {pos}"))
        }
    }

    fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
        let start = *pos;
        while *pos < bytes.len()
            && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        {
            *pos += 1;
        }
        let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii slice");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }

    fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(bytes, pos, b'"')?;
        let mut out = String::new();
        let mut chars = std::str::from_utf8(&bytes[*pos..])
            .map_err(|_| "invalid utf-8".to_string())?
            .char_indices();
        loop {
            let Some((offset, c)) = chars.next() else {
                return Err("unterminated string".into());
            };
            match c {
                '"' => {
                    *pos += offset + 1;
                    return Ok(out);
                }
                '\\' => {
                    let Some((_, esc)) = chars.next() else {
                        return Err("dangling escape".into());
                    };
                    match esc {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        '/' => out.push('/'),
                        'n' => out.push('\n'),
                        'r' => out.push('\r'),
                        't' => out.push('\t'),
                        'b' => out.push('\u{8}'),
                        'f' => out.push('\u{c}'),
                        'u' => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                let Some((_, h)) = chars.next() else {
                                    return Err("truncated \\u escape".into());
                                };
                                code = code * 16
                                    + h.to_digit(16).ok_or("invalid hex in \\u escape")?;
                            }
                            out.push(char::from_u32(code).ok_or("invalid \\u code point")?);
                        }
                        other => return Err(format!("unknown escape \\{other}")),
                    }
                }
                c => out.push(c),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> DecisionTrace {
        let mut t = DecisionTrace::empty(42, ContainerId(2));
        t.tenant = Some(7);
        t.resources[0].util_pct = 85.5;
        t.resources[0].categories.util = UtilLevel::High;
        t.resources[0].categories.wait = WaitTimeLevel::High;
        t.resources[0].categories.wait_pct = WaitPctLevel::Significant;
        t.resources[0].trending = true;
        t.resources[0].evaluated = RuleSet::from_iter([RuleId::HighASurge, RuleId::HighA]);
        t.resources[0].fired = Some(RuleFire {
            id: RuleId::HighA,
            step: 1,
            bindings: Bindings {
                util_pct: 85.5,
                wait_pct: 60.25,
                corr_threshold: 0.6,
            },
        });
        t.latency = LatencyTrace {
            observed_ms: Some(150.125),
            goal_ms: Some(100.0),
            verdict: LatencyVerdict::Bad,
        };
        t.arbitration = RuleSet::from_iter([RuleId::CooldownHold, RuleId::ScaleUpDemand]);
        t.branch = RuleId::ScaleUpDemand;
        t.demanded = [1, 0, 0, -1];
        t.granted = [1, 1, 1, 1];
        t.balloon = BalloonGate::Confirmed { target_mb: 1740.5 };
        t.gates = RuleSet::from_iter([RuleId::EmergencyBypass, RuleId::BudgetConstrained]);
        t.lock_wait_pct = 12.375;
        t.target = ContainerId(3);
        t
    }

    #[test]
    fn json_line_round_trips_exactly() {
        let t = sample_trace();
        let line = t.to_json_line();
        assert!(!line.contains('\n'), "one trace per line");
        let back = DecisionTrace::from_json_line(&line).unwrap();
        assert_eq!(back, t);
        // And is stable: re-serializing yields the identical line.
        assert_eq!(back.to_json_line(), line);
    }

    #[test]
    fn null_fields_round_trip() {
        let t = DecisionTrace::empty(0, ContainerId(0));
        let back = DecisionTrace::from_json_line(&t.to_json_line()).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.tenant, None);
        assert_eq!(back.latency.observed_ms, None);
    }

    #[test]
    fn explanations_render_from_structure() {
        let t = sample_trace();
        assert!(t.budget_limited());
        let lines = t.render_explanations();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("Scale-up due to a cpu bottleneck"));
        assert!(lines[0].contains("86% HIGH"), "{}", lines[0]);
        assert_eq!(lines[1], "Scale-up constrained by budget");
    }

    #[test]
    fn histogram_counts_resource_branch_and_gate_fires() {
        let t = sample_trace();
        let mut h = RuleHistogram::new();
        t.record_fires(&mut h);
        assert_eq!(h.count(RuleId::HighA), 1);
        assert_eq!(h.count(RuleId::ScaleUpDemand), 1);
        assert_eq!(h.count(RuleId::EmergencyBypass), 1);
        assert_eq!(h.count(RuleId::BudgetConstrained), 1);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(DecisionTrace::from_json_line("").is_err());
        assert!(DecisionTrace::from_json_line("{}").is_err());
        assert!(DecisionTrace::from_json_line("{\"interval\":1").is_err());
        let good = sample_trace().to_json_line();
        assert!(DecisionTrace::from_json_line(&format!("{good}x")).is_err());
        // Integers are checked, not cast: a step beyond `i8` and a
        // negative container id are errors, not 127 and container 0.
        for (field, bad) in [
            ("\"demanded\":[1,0,0,-1]", "\"demanded\":[300,0,0,0]"),
            ("\"from\":2", "\"from\":-1"),
            ("\"interval\":42", "\"interval\":42.5"),
        ] {
            let line = good.replace(field, bad);
            assert_ne!(line, good, "{field}");
            let err = DecisionTrace::from_json_line(&line).unwrap_err();
            assert!(err.contains("integer"), "{bad}: {err}");
        }
    }

    #[test]
    fn unrepresentable_lists_are_rejected_not_rewritten() {
        let line = sample_trace().to_json_line();
        // Gates and evaluated lists are written in wire order; any other
        // order cannot come from the encoder.
        for (ordered, reordered) in [
            (
                "\"gates\":[\"emergency_bypass\",\"budget_constrained\"]",
                "\"gates\":[\"budget_constrained\",\"emergency_bypass\"]",
            ),
            (
                "\"arbitration\":[\"cooldown_hold\",\"scale_up_demand\"]",
                "\"arbitration\":[\"scale_up_demand\",\"cooldown_hold\"]",
            ),
        ] {
            let bad = line.replace(ordered, reordered);
            assert_ne!(bad, line, "{ordered}");
            let err = DecisionTrace::from_json_line(&bad).unwrap_err();
            assert!(err.contains("wire order"), "{err}");
        }
    }

    #[test]
    fn string_escaping_round_trips() {
        let v = json::parse("\"a\\\"b\\\\c\\n\\u0041\"").unwrap();
        assert_eq!(v.str().unwrap(), "a\"b\\c\nA");
    }
}
