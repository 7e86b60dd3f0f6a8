//! Structured decision traces: what every §6 decision *saw* and *did*.
//!
//! A [`DecisionTrace`] records one interval's decision end to end — the
//! categorized per-resource signals, the rules evaluated and fired (in
//! order), the arbitration branch, demanded vs granted steps, the budget
//! and balloon gates, and the final container — so the human-readable
//! explanation is *rendered from* the trace instead of being stored as
//! strings. Traces serialize to JSON lines (one trace per line) through
//! [`crate::json`]; they are output only, and nothing in the workspace
//! reads one back. The encoder names every field of every struct it
//! writes, so a field added later does not compile until it is written.
//! `f64` fields keep every bit: Rust's `Display` prints the shortest
//! string that parses back to the same value.
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

use crate::json::Json;

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
        // Every field is named, so a field added later does not compile
        // until it is written here.
        let Self {
            interval,
            tenant,
            resources,
            latency,
            arbitration,
            branch,
            demanded,
            granted,
            balloon,
            gates,
            lock_wait_pct,
            whole_step_down,
            from,
            target,
        } = self;
        Json::Obj(vec![
            ("interval".into(), Json::Num(*interval as f64)),
            ("tenant".into(), Json::from_opt(tenant.map(|t| t as f64))),
            ("from".into(), Json::Num(from.0 as f64)),
            ("target".into(), Json::Num(target.0 as f64)),
            (
                "resources".into(),
                Json::Arr(resources.iter().map(resource_to_json).collect()),
            ),
            ("latency".into(), latency_to_json(latency)),
            ("arbitration".into(), rule_set_to_json(*arbitration)),
            ("branch".into(), Json::Str(branch.name().into())),
            ("demanded".into(), steps_to_json(demanded)),
            ("granted".into(), steps_to_json(granted)),
            ("balloon".into(), balloon_to_json(balloon)),
            ("gates".into(), rule_set_to_json(*gates)),
            ("lock_wait_pct".into(), Json::Num(*lock_wait_pct)),
            ("whole_step_down".into(), Json::Bool(*whole_step_down)),
        ])
        .write()
    }
}

// ---- field-level encoders, each naming every field like `to_json_line` ---

fn rule_set_to_json(rules: RuleSet) -> Json {
    Json::Arr(rules.iter().map(|r| Json::Str(r.name().into())).collect())
}

fn steps_to_json(steps: &[i8; RESOURCE_KINDS.len()]) -> Json {
    Json::Arr(steps.iter().map(|&s| Json::Num(f64::from(s))).collect())
}

fn latency_to_json(latency: &LatencyTrace) -> Json {
    let LatencyTrace {
        observed_ms,
        goal_ms,
        verdict,
    } = latency;
    Json::Obj(vec![
        ("observed_ms".into(), Json::from_opt(*observed_ms)),
        ("goal_ms".into(), Json::from_opt(*goal_ms)),
        ("verdict".into(), Json::Str(verdict.to_string())),
    ])
}

fn fire_to_json(fire: &RuleFire) -> Json {
    let RuleFire {
        id,
        step,
        bindings:
            Bindings {
                util_pct,
                wait_pct,
                corr_threshold,
            },
    } = fire;
    Json::Obj(vec![
        ("rule".into(), Json::Str(id.name().into())),
        ("step".into(), Json::Num(f64::from(*step))),
        ("util_pct".into(), Json::Num(*util_pct)),
        ("wait_pct".into(), Json::Num(*wait_pct)),
        ("corr_threshold".into(), Json::Num(*corr_threshold)),
    ])
}

fn resource_to_json(r: &ResourceTrace) -> Json {
    let ResourceTrace {
        kind,
        util_pct,
        wait_ms,
        wait_pct,
        categories:
            ResourceCategories {
                util,
                wait,
                wait_pct: share,
            },
        trending,
        evaluated,
        fired,
    } = r;
    Json::Obj(vec![
        ("kind".into(), Json::Str(kind.name().into())),
        ("util_pct".into(), Json::Num(*util_pct)),
        ("wait_ms".into(), Json::Num(*wait_ms)),
        ("wait_pct".into(), Json::Num(*wait_pct)),
        ("util".into(), Json::Str(util.to_string())),
        ("wait".into(), Json::Str(wait.to_string())),
        ("share".into(), Json::Str(share.to_string())),
        ("trending".into(), Json::Bool(*trending)),
        ("evaluated".into(), rule_set_to_json(*evaluated)),
        (
            "fired".into(),
            fired.as_ref().map_or(Json::Null, fire_to_json),
        ),
    ])
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
    fields.extend(target.map(|mb| ("target_mb".to_string(), Json::Num(mb))));
    Json::Obj(fields)
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
    fn sample_trace_encodes_to_its_pinned_line() {
        let want = concat!(
            r#"{"interval":42,"tenant":7,"from":2,"target":3,"resources":["#,
            r#"{"kind":"cpu","util_pct":85.5,"wait_ms":0,"wait_pct":0,"util":"HIGH","wait":"HIGH","share":"SIGNIFICANT","#,
            r#""trending":true,"evaluated":["high_a_surge","high_a"],"fired":{"rule":"high_a","step":1,"util_pct":85.5,"wait_pct":60.25,"corr_threshold":0.6}},"#,
            r#"{"kind":"memory","util_pct":0,"wait_ms":0,"wait_pct":0,"util":"LOW","wait":"LOW","share":"NOT SIGNIFICANT","#,
            r#""trending":false,"evaluated":[],"fired":null},"#,
            r#"{"kind":"disk_io","util_pct":0,"wait_ms":0,"wait_pct":0,"util":"LOW","wait":"LOW","share":"NOT SIGNIFICANT","#,
            r#""trending":false,"evaluated":[],"fired":null},"#,
            r#"{"kind":"log_io","util_pct":0,"wait_ms":0,"wait_pct":0,"util":"LOW","wait":"LOW","share":"NOT SIGNIFICANT","#,
            r#""trending":false,"evaluated":[],"fired":null}"#,
            r#"],"latency":{"observed_ms":150.125,"goal_ms":100,"verdict":"BAD"}"#,
            r#","arbitration":["cooldown_hold","scale_up_demand"],"branch":"scale_up_demand","demanded":[1,0,0,-1],"granted":[1,1,1,1]"#,
            r#","balloon":{"gate":"confirmed","target_mb":1740.5},"gates":["emergency_bypass","budget_constrained"],"lock_wait_pct":12.375,"whole_step_down":false}"#,
        );
        assert_eq!(sample_trace().to_json_line(), want);
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
    fn string_escaping_round_trips() {
        let v = crate::json::parse("\"a\\\"b\\\\c\\n\\u0041\"").unwrap();
        assert_eq!(v.str().unwrap(), "a\"b\\c\nA");
    }
}
