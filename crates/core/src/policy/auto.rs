//! **Auto** — the paper's auto-scaling logic (§6).
//!
//! At the end of every billing interval:
//!
//! 1. estimate per-resource demand with the §4 rule hierarchy;
//! 2. if latency is BAD or degrading → scale up the demanded dimensions,
//!    within the available budget — but *only* when there is resource
//!    demand: a lock-dominated workload gets an explanation instead of
//!    resources (Figure 13);
//! 3. if latency is comfortably within the goal (or the tenant has no goal
//!    and demand is low) → scale down, gating memory shrinks behind the
//!    §4.3 ballooning probe;
//! 4. every action is recorded in a full [`DecisionTrace`], from whose
//!    fields its [`Explanation`](crate::explain::Explanation)s are
//!    rendered.
//!
//! The whole loop is one table evaluation (the §4 demand tables, via the
//! estimator) plus one arbitration pass: a [`FactSet`] is computed from
//! the signals and policy state, [`ARBITRATION`] picks the branch
//! (cooldown / scale-up / lock-dominance / latency-explain / scale-down /
//! hold), and the branch body below executes it. Gates (emergency bypass,
//! budget, latency headroom, ballooning) annotate the trace as named
//! [`RuleId`]s, each inserted at one point below.

use crate::estimator::memory::BalloonAction;
use crate::estimator::{BalloonController, DemandEstimator, EstimatorConfig};
use crate::knobs::TenantKnobs;
use crate::policy::{BalloonCommand, PolicyContext, PolicyDecision, ScalingPolicy};
use crate::rules::{EvalCtx, Fact, FactSet, RuleId, ARBITRATION};
use crate::trace::{BalloonGate, DecisionTrace};
use dasr_containers::{Catalog, Container, ResourceKind, RESOURCE_KINDS};

/// Lock share of waits at or above which a bad latency is attributed to a
/// non-resource bottleneck (Figure 13).
pub const LOCK_DOMINANCE_PCT: f64 = 60.0;

/// Latency beyond `EMERGENCY_FACTOR × goal` bypasses the post-resize
/// cooldown.
pub const EMERGENCY_FACTOR: f64 = 2.0;

/// Intervals a balloon commit remains valid for a memory shrink.
pub const BALLOON_CONFIRM_TTL: u64 = 10;

/// Auto-policy tuning.
#[derive(Debug, Clone, Copy)]
pub struct AutoConfig {
    /// Tenant knobs (§2.3).
    pub knobs: TenantKnobs,
    /// Demand-estimator tuning (§4).
    pub estimator: EstimatorConfig,
    /// Disable the §4.3 ballooning probe (the Figure 14 "No Ballooning"
    /// comparison): memory shrinks follow the other dimensions immediately,
    /// risking working-set eviction.
    pub balloon_enabled: bool,
}

impl Default for AutoConfig {
    fn default() -> Self {
        Self {
            knobs: TenantKnobs::none(),
            estimator: EstimatorConfig::default(),
            balloon_enabled: true,
        }
    }
}

impl AutoConfig {
    /// Config with the given knobs and defaults elsewhere.
    pub fn with_knobs(knobs: TenantKnobs) -> Self {
        Self {
            knobs,
            ..Self::default()
        }
    }
}

/// The paper's auto-scaling policy.
#[derive(Debug, Clone)]
pub struct AutoPolicy {
    cfg: AutoConfig,
    estimator: DemandEstimator,
    balloon: BalloonController,
    last_resize: Option<u64>,
    /// `(interval, target_mb)` of the last committed probe: memory may
    /// shrink only to containers with at least `target_mb` of memory.
    balloon_confirmed: Option<(u64, f64)>,
}

impl AutoPolicy {
    /// Creates the policy.
    pub fn new(cfg: AutoConfig) -> Self {
        Self {
            estimator: DemandEstimator::new(cfg.estimator),
            balloon: BalloonController::default(),
            cfg,
            last_resize: None,
            balloon_confirmed: None,
        }
    }

    /// Creates the policy with knobs and default tuning.
    pub fn with_knobs(knobs: TenantKnobs) -> Self {
        Self::new(AutoConfig::with_knobs(knobs))
    }

    /// Scale-ups respect the sensitivity cooldown; scale-downs only need
    /// one interval of separation (they are cheap to revert and the cost
    /// clock is ticking).
    fn in_up_cooldown(&self, interval: u64) -> bool {
        self.last_resize
            .is_some_and(|at| interval < at + self.cfg.knobs.sensitivity.cooldown_intervals())
    }

    fn in_down_cooldown(&self, interval: u64) -> bool {
        self.last_resize.is_some_and(|at| interval < at + 1)
    }

    fn memory_of_next_lower_rung(_catalog: &Catalog, current: &Container) -> Option<f64> {
        let rung = current.rung as usize;
        if rung == 0 {
            None
        } else {
            Some(Catalog::rung_resources(rung - 1).memory_mb)
        }
    }

    /// Whether a memory shrink to `target_mb` is safe without a balloon:
    /// the pool isn't even using that much.
    fn mem_shrink_safe(signals: &dasr_telemetry::SignalSet, target_mb: f64) -> bool {
        signals.mem_used_mb <= 0.9 * target_mb
    }

    /// Whether the current load would keep CPU, disk and log utilization
    /// below the HIGH band on container `target` (memory is judged by its
    /// own gate).
    fn projected_util_ok(
        signals: &dasr_telemetry::SignalSet,
        current: &Container,
        target: &Container,
    ) -> bool {
        const PROJECTED_UTIL_CAP_PCT: f64 = 65.0;
        [ResourceKind::Cpu, ResourceKind::DiskIo, ResourceKind::LogIo]
            .into_iter()
            .all(|k| {
                let cur = current.resources[k];
                let tgt = target.resources[k];
                if tgt <= 0.0 {
                    return false;
                }
                signals.resource(k).util_pct * cur / tgt <= PROJECTED_UTIL_CAP_PCT
            })
    }
}

impl ScalingPolicy for AutoPolicy {
    fn name(&self) -> &'static str {
        "auto"
    }

    // dasr-lint: entry(G1)
    // dasr-lint: no-alloc
    fn decide(&mut self, ctx: &PolicyContext<'_>) -> PolicyDecision {
        let sig = ctx.signals;
        let catalog = ctx.catalog;
        let current = ctx.current;
        let est = self.estimator.estimate(sig);
        let mut trace = DecisionTrace::with_estimate(sig, &est, current.id);

        let goal = sig.latency.goal_ms;
        let margin = self.cfg.knobs.sensitivity.downscale_margin();
        // Latency comfortably inside the goal (idle counts as comfortable).
        let headroom_ok = match (sig.latency.observed_ms, goal) {
            (Some(obs), Some(g)) => obs <= margin * g,
            (None, Some(_)) => true,
            _ => false,
        };
        let wants_down = !est.any_up()
            && !sig.latency.needs_attention()
            && (est.any_down() || (headroom_ok && !sig.latency.trend.is_increasing()));

        // --- Balloon management (independent of cooldown) -----------------
        let next_mem = Self::memory_of_next_lower_rung(catalog, current);
        let mut balloon_cmd = if self.cfg.balloon_enabled {
            trace.balloon = BalloonGate::Idle;
            self.balloon.step(sig, wants_down, next_mem, ctx.balloon)
        } else {
            BalloonAction::None
        };
        match balloon_cmd {
            BalloonAction::Start { target_mb } => {
                trace.balloon = BalloonGate::Started { target_mb };
                trace.gates.insert(RuleId::BalloonStart);
            }
            BalloonAction::Abort => {
                trace.balloon = BalloonGate::Aborted;
                trace.gates.insert(RuleId::BalloonAbort);
                self.balloon_confirmed = None;
            }
            BalloonAction::Commit => {
                if let Some(target) = next_mem {
                    trace.balloon = BalloonGate::Confirmed { target_mb: target };
                    self.balloon_confirmed = Some((sig.interval, target));
                }
            }
            BalloonAction::None => {}
        }
        // The confirmation authorizes shrinking memory to `mb` or more.
        let confirmed_down_to = self
            .balloon_confirmed
            .and_then(|(at, mb)| (sig.interval <= at + BALLOON_CONFIRM_TTL).then_some(mb));

        // --- Facts + one arbitration pass (§6) -----------------------------
        let emergency = match (sig.latency.observed_ms, goal) {
            (Some(obs), Some(g)) => obs > EMERGENCY_FACTOR * g,
            _ => false,
        };
        if emergency && self.in_up_cooldown(sig.interval) {
            trace.gates.insert(RuleId::EmergencyBypass);
        }
        let up_blocked = self.in_up_cooldown(sig.interval) && !emergency;
        let down_blocked = self.in_down_cooldown(sig.interval);
        let scale_up_gate = match goal {
            Some(_) => sig.latency.needs_attention(),
            // No latency goal: scale purely on demand (§2.3).
            None => true,
        };
        let facts = FactSet::new()
            .with(Fact::HasGoal, goal.is_some())
            .with(Fact::LatencyAttention, sig.latency.needs_attention())
            .with(Fact::UpBlocked, up_blocked)
            .with(Fact::DownBlocked, down_blocked)
            .with(Fact::DemandUp, est.any_up())
            .with(Fact::WantsDown, wants_down)
            .with(Fact::ScaleUpGate, scale_up_gate)
            .with(Fact::LockShareHigh, sig.lock_bottleneck(LOCK_DOMINANCE_PCT));
        let eval = ARBITRATION.evaluate(&EvalCtx::arbitration(&self.cfg.estimator, facts));
        trace.arbitration = eval.evaluated;
        let branch = eval.fired.expect("arbitration table has a fallback").id;
        trace.branch = branch;

        match branch {
            // Both directions inside the cooldown: explicit no-op.
            RuleId::CooldownHold => Self::finish(trace, current, current, balloon_cmd),

            // --- Scale-up branch (§6) ----------------------------------------
            RuleId::ScaleUpDemand => {
                let desired = catalog.desired_after_steps(current, est.up_steps());
                let unconstrained = catalog.cheapest_covering(&desired, None);
                let pick = catalog.cheapest_covering(&desired, ctx.available_budget);
                // The budget truncated the pick, or cannot cover the desired
                // container at all.
                let constrained = match (pick, unconstrained) {
                    (Some(p), u) => u.is_some_and(|u| p.id != u.id),
                    (None, _) => true,
                };
                if constrained {
                    trace.gates.insert(RuleId::BudgetConstrained);
                }
                // Without a covering pick, take the most expensive affordable
                // container (§6).
                let target = pick.or_else(|| {
                    ctx.available_budget
                        .and_then(|b| catalog.most_expensive_under(b))
                        .filter(|c| c.cost > current.cost)
                });
                if let Some(t) = target {
                    if t.id != current.id {
                        self.last_resize = Some(sig.interval);
                        return Self::finish(trace, t, current, balloon_cmd);
                    }
                }
                self.finish_no_move(ctx, trace, balloon_cmd)
            }

            // Latency bad but waits are lock-dominated (§6, Figure 13), or
            // no resource shows demand: explain, don't scale.
            RuleId::LockDominated | RuleId::LatencyBadNoDemand => {
                self.finish_no_move(ctx, trace, balloon_cmd)
            }

            // --- Scale-down branch ---------------------------------------------
            RuleId::ScaleDownDemand => {
                // Candidate step vectors, most conservative first: the
                // demand-based steps, then — when latency headroom allows a
                // smaller container even with demand (§2.3) — a
                // whole-container step down, which is what a lockstep catalog
                // needs when only some dimensions look idle.
                let demand_based = est.any_down().then(|| (est.down_steps(), false));
                let whole_step =
                    if headroom_ok && goal.is_some() && !sig.latency.trend.is_increasing() {
                        let mut all_down = est.down_steps();
                        for s in all_down.iter_mut() {
                            *s = (*s).min(-1);
                        }
                        Some((all_down, true))
                    } else if !est.any_down() {
                        Some(([-1; RESOURCE_KINDS.len()], true))
                    } else {
                        None
                    };
                for (mut steps, from_headroom) in [demand_based, whole_step].into_iter().flatten() {
                    // Memory shrinks only with evidence (§4.3): a balloon
                    // commit justifies exactly one rung (the probed target); a
                    // pool that is not even using the target justifies going
                    // as deep as the usage allows.
                    let mem_idx = ResourceKind::Memory.index();
                    if steps.iter().any(|&s| s < 0) && steps[mem_idx] == 0 {
                        steps[mem_idx] = *steps.iter().min().expect("non-empty");
                    }
                    if steps[mem_idx] < 0 && self.cfg.balloon_enabled {
                        let requested = (-steps[mem_idx]) as usize;
                        let cur_rung = current.rung as usize;
                        let mut depth = 0usize;
                        for d in 1..=requested.min(cur_rung) {
                            let target = Catalog::rung_resources(cur_rung - d).memory_mb;
                            let safe = Self::mem_shrink_safe(sig, target);
                            let confirmed = confirmed_down_to.is_some_and(|mb| target >= mb - 1e-6);
                            if safe || confirmed {
                                depth = d;
                            } else {
                                break;
                            }
                        }
                        steps[mem_idx] = -(depth as i8);
                    }
                    let desired = catalog.desired_after_steps(current, steps);
                    let Some(t) = catalog.cheapest_covering(&desired, ctx.available_budget) else {
                        continue;
                    };
                    // Capacity sanity check for headroom-motivated shrinks: a
                    // smaller container must keep every governed resource out
                    // of the HIGH band at the current load, or the step lands
                    // on the saturation cliff instead of trading a little
                    // latency for cost.
                    if from_headroom && !Self::projected_util_ok(sig, current, t) {
                        continue;
                    }
                    if t.cost < current.cost {
                        if confirmed_down_to.is_some() && steps[mem_idx] < 0 {
                            trace.gates.insert(RuleId::BalloonConfirmedShrink);
                            self.balloon_confirmed = None;
                        }
                        // A probe started this very decision would target the
                        // rung we are leaving; cancel it rather than racing
                        // the resize.
                        if matches!(balloon_cmd, BalloonAction::Start { .. }) {
                            balloon_cmd = BalloonAction::None;
                            trace.balloon = BalloonGate::Idle;
                            trace.gates.remove(RuleId::BalloonStart);
                        }
                        if from_headroom {
                            if sig.latency.observed_ms.is_some() && goal.is_some() {
                                trace.gates.insert(RuleId::LatencyHeadroom);
                            } else {
                                trace.whole_step_down = true;
                            }
                        }
                        self.last_resize = Some(sig.interval);
                        return Self::finish(trace, t, current, balloon_cmd);
                    }
                }
                self.finish_no_move(ctx, trace, balloon_cmd)
            }

            // HoldSteady (and, defensively, anything else): keep the
            // container, still enforcing the budget.
            _ => self.finish_no_move(ctx, trace, balloon_cmd),
        }
    }
}

impl AutoPolicy {
    /// Seals a decision: records the target and the granted rung delta in
    /// the trace, then wraps everything up.
    fn finish(
        mut trace: DecisionTrace,
        target: &Container,
        current: &Container,
        balloon: BalloonCommand,
    ) -> PolicyDecision {
        trace.target = target.id;
        trace.grant(current.rung, target.rung);
        PolicyDecision {
            target: target.id,
            trace,
            balloon,
        }
    }

    /// Terminal no-move path, still enforcing the budget: if the bucket can
    /// no longer afford the *current* container, downgrade to the most
    /// expensive affordable one.
    fn finish_no_move(
        &mut self,
        ctx: &PolicyContext<'_>,
        mut trace: DecisionTrace,
        balloon: BalloonCommand,
    ) -> PolicyDecision {
        if let Some(b) = ctx.available_budget {
            if ctx.current.cost > b + 1e-9 {
                trace.gates.insert(RuleId::BudgetForcedDowngrade);
                if let Some(t) = ctx.catalog.most_expensive_under(b) {
                    self.last_resize = Some(ctx.signals.interval);
                    return Self::finish(trace, t, ctx.current, balloon);
                }
            }
        }
        Self::finish(trace, ctx.current, ctx.current, balloon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::tests_support::quiet_signal_set;
    use crate::explain::Explanation;
    use crate::knobs::PerfSensitivity;
    use dasr_telemetry::categorize::{LatencyVerdict, UtilLevel, WaitPctLevel, WaitTimeLevel};
    use dasr_telemetry::LatencyGoal;
    use dasr_telemetry::SignalSet;

    fn catalog() -> Catalog {
        Catalog::azure_like()
    }

    fn high_cpu_pressure(mut s: SignalSet) -> SignalSet {
        let cpu = &mut s.resources[ResourceKind::Cpu.index()];
        cpu.util_pct = 85.0;
        cpu.util_level = UtilLevel::High;
        cpu.wait_level = WaitTimeLevel::High;
        cpu.wait_pct = 60.0;
        cpu.wait_pct_level = WaitPctLevel::Significant;
        s
    }

    fn bad_latency(mut s: SignalSet) -> SignalSet {
        s.latency.observed_ms = Some(150.0);
        s.latency.goal_ms = Some(100.0);
        s.latency.verdict = LatencyVerdict::Bad;
        s
    }

    fn policy() -> AutoPolicy {
        AutoPolicy::with_knobs(TenantKnobs::none().with_latency_goal(LatencyGoal::P95(100.0)))
    }

    fn ctx<'a>(
        signals: &'a SignalSet,
        current: &'a Container,
        catalog: &'a Catalog,
        budget: Option<f64>,
    ) -> PolicyContext<'a> {
        PolicyContext {
            signals,
            current,
            catalog,
            available_budget: budget,
            balloon: crate::policy::BalloonStatus::Inactive,
        }
    }

    #[test]
    fn scales_up_on_demand_with_bad_latency() {
        let cat = catalog();
        let current = cat.get(dasr_containers::ContainerId(2)).unwrap().clone();
        let s = bad_latency(high_cpu_pressure(quiet_signal_set(5)));
        let mut p = policy();
        let d = p.decide(&ctx(&s, &current, &cat, None));
        let target = cat.get(d.target).unwrap();
        assert!(target.cost > current.cost, "must scale up: {d:?}");
        assert!(d
            .explanations()
            .iter()
            .any(|e| matches!(e, Explanation::ScaleUpBottleneck { .. })));
    }

    #[test]
    fn no_scale_up_when_latency_good_despite_demand() {
        // §2.3: latency goals reduce cost — demand alone doesn't scale up.
        let cat = catalog();
        let current = cat.get(dasr_containers::ContainerId(2)).unwrap().clone();
        let mut s = high_cpu_pressure(quiet_signal_set(5));
        s.latency.observed_ms = Some(90.0); // within the 100 ms goal
        let mut p = policy();
        let d = p.decide(&ctx(&s, &current, &cat, None));
        let target = cat.get(d.target).unwrap();
        assert!(target.cost <= current.cost, "must not scale up: {d:?}");
    }

    #[test]
    fn lock_bottleneck_blocks_scale_up_with_explanation() {
        let cat = catalog();
        let current = cat.get(dasr_containers::ContainerId(2)).unwrap().clone();
        let mut s = bad_latency(quiet_signal_set(5));
        s.lock_wait_pct = 93.0;
        let mut p = policy();
        let d = p.decide(&ctx(&s, &current, &cat, None));
        assert_eq!(d.target, current.id);
        assert!(
            d.explanations()
                .iter()
                .any(|e| matches!(e, Explanation::NonResourceBottleneck { .. })),
            "{d:?}"
        );
    }

    #[test]
    fn budget_constrains_scale_up() {
        let cat = catalog();
        let current = cat.get(dasr_containers::ContainerId(1)).unwrap().clone(); // cost 15
        let s = bad_latency(high_cpu_pressure(quiet_signal_set(5)));
        let mut p = policy();
        // Budget allows only up to cost 30 (C2), though demand wants C2+.
        let d = p.decide(&ctx(&s, &current, &cat, Some(30.0)));
        let target = cat.get(d.target).unwrap();
        assert!(target.cost <= 30.0, "cost {} exceeds budget", target.cost);
    }

    #[test]
    fn headroom_scales_down_even_with_demand() {
        // Loose goal: latency far inside it, utilization HIGH — Auto still
        // steps down (the §7.3 "5× Max" behaviour).
        let cat = catalog();
        let current = cat.get(dasr_containers::ContainerId(4)).unwrap().clone();
        let mut s = quiet_signal_set(5);
        s.latency.observed_ms = Some(50.0);
        s.latency.goal_ms = Some(500.0);
        // Pool barely used: memory shrink is safe without balloon.
        s.mem_used_mb = 100.0;
        let mut p = policy();
        let d = p.decide(&ctx(&s, &current, &cat, None));
        let target = cat.get(d.target).unwrap();
        assert!(target.cost < current.cost, "{d:?}");
        assert!(d
            .explanations()
            .iter()
            .any(|e| matches!(e, Explanation::ScaleDownLatencyHeadroom { .. })));
    }

    #[test]
    fn probe_started_in_a_scale_down_decision_is_cancelled() {
        // A pool far larger than the next rung's memory yet barely used:
        // the balloon controller starts a probe, and the headroom step down
        // goes ahead in the same decision, so the probe is dropped.
        let cat = catalog();
        let current = cat.get(dasr_containers::ContainerId(4)).unwrap().clone();
        let mut s = quiet_signal_set(5);
        s.latency.observed_ms = Some(50.0);
        s.latency.goal_ms = Some(500.0);
        s.mem_capacity_mb = 7_000.0;
        s.mem_used_mb = 100.0;
        let next_mem = AutoPolicy::memory_of_next_lower_rung(&cat, &current).unwrap();
        let mut controller = BalloonController::default();
        assert_eq!(
            controller.step(
                &s,
                true,
                Some(next_mem),
                crate::policy::BalloonStatus::Inactive
            ),
            BalloonAction::Start {
                target_mb: next_mem
            },
            "the controller alone would start a probe"
        );
        let d = policy().decide(&ctx(&s, &current, &cat, None));
        assert!(cat.get(d.target).unwrap().cost < current.cost, "{d:?}");
        assert_eq!(d.balloon, BalloonCommand::None);
        assert_eq!(d.trace.balloon, BalloonGate::Idle);
        assert!(!d.trace.gates.contains(RuleId::BalloonStart), "{d:?}");
        assert!(
            !d.trace
                .render_explanations()
                .iter()
                .any(|line| line.starts_with("Ballooning memory toward")),
            "{d:?}"
        );
    }

    #[test]
    fn memory_gate_blocks_scale_down_until_balloon_confirms() {
        let cat = catalog();
        let current = cat.get(dasr_containers::ContainerId(4)).unwrap().clone();
        let mut s = quiet_signal_set(5);
        s.latency.observed_ms = Some(50.0);
        s.latency.goal_ms = Some(500.0);
        // Pool full at the current container's size: memory shrink is NOT
        // trivially safe.
        s.mem_capacity_mb = 7_000.0;
        s.mem_used_mb = 7_000.0;
        let mut p = policy();
        let d = p.decide(&ctx(&s, &current, &cat, None));
        assert_eq!(d.target, current.id, "lockstep shrink blocked: {d:?}");
        // A balloon probe should have been started instead.
        assert!(matches!(d.balloon, BalloonCommand::Start { .. }), "{d:?}");
    }

    #[test]
    fn cooldown_suppresses_consecutive_resizes() {
        let cat = catalog();
        let current = cat.get(dasr_containers::ContainerId(2)).unwrap().clone();
        let mut p = AutoPolicy::with_knobs(
            TenantKnobs::none()
                .with_latency_goal(LatencyGoal::P95(100.0))
                .with_sensitivity(PerfSensitivity::Medium),
        );
        let s5 = bad_latency(high_cpu_pressure(quiet_signal_set(5)));
        let d1 = p.decide(&ctx(&s5, &current, &cat, None));
        assert_ne!(d1.target, current.id);
        // Same interval again (e.g. re-evaluation): both directions are
        // blocked and the decision is an explicit cooldown no-op.
        let s5b = bad_latency(high_cpu_pressure(quiet_signal_set(5)));
        let after = cat.get(d1.target).unwrap().clone();
        let d1b = p.decide(&ctx(&s5b, &after, &cat, None));
        assert_eq!(d1b.target, after.id);
        assert!(d1b.explanations().contains(&Explanation::Cooldown));
        // Next interval, mildly bad latency again: scale-ups still cool
        // down (no further climb), though scale-downs would be allowed.
        let mut s6 = bad_latency(high_cpu_pressure(quiet_signal_set(6)));
        s6.latency.observed_ms = Some(120.0);
        let d2 = p.decide(&ctx(&s6, &after, &cat, None));
        assert_eq!(d2.target, after.id);
        assert!(!d2
            .explanations()
            .iter()
            .any(|e| matches!(e, Explanation::ScaleUpBottleneck { .. })));
    }

    #[test]
    fn emergency_bypasses_cooldown() {
        let cat = catalog();
        let current = cat.get(dasr_containers::ContainerId(2)).unwrap().clone();
        let mut p = policy();
        let s5 = bad_latency(high_cpu_pressure(quiet_signal_set(5)));
        let d1 = p.decide(&ctx(&s5, &current, &cat, None));
        let after = cat.get(d1.target).unwrap().clone();
        // Latency exploded to > 2x goal: act despite cooldown.
        let mut s6 = bad_latency(high_cpu_pressure(quiet_signal_set(6)));
        s6.latency.observed_ms = Some(900.0);
        let d2 = p.decide(&ctx(&s6, &after, &cat, None));
        assert_ne!(d2.target, after.id, "{d2:?}");
    }

    #[test]
    fn emergency_bypass_starts_just_above_the_factor() {
        // `observed > EMERGENCY_FACTOR × goal`: exactly at the factor the
        // scale-up cooldown holds, just above it the cooldown is bypassed.
        let cat = catalog();
        let current = cat.get(dasr_containers::ContainerId(2)).unwrap().clone();
        for (observed_ms, bypass) in [
            (EMERGENCY_FACTOR * 100.0, false),
            (EMERGENCY_FACTOR * 100.0 + 0.01, true),
        ] {
            let mut p = policy();
            let s5 = bad_latency(high_cpu_pressure(quiet_signal_set(5)));
            let d1 = p.decide(&ctx(&s5, &current, &cat, None));
            let after = cat.get(d1.target).unwrap().clone();
            let mut s6 = bad_latency(high_cpu_pressure(quiet_signal_set(6)));
            s6.latency.observed_ms = Some(observed_ms);
            let d2 = p.decide(&ctx(&s6, &after, &cat, None));
            assert_eq!(
                d2.trace.gates.contains(RuleId::EmergencyBypass),
                bypass,
                "{observed_ms} ms: {d2:?}"
            );
            assert_eq!(d2.target != after.id, bypass, "{observed_ms} ms: {d2:?}");
        }
    }

    #[test]
    fn lock_dominance_fires_at_the_threshold_not_below() {
        // `lock_wait_pct >= LOCK_DOMINANCE_PCT`.
        let cat = catalog();
        let current = cat.get(dasr_containers::ContainerId(2)).unwrap().clone();
        for (lock_wait_pct, branch) in [
            (LOCK_DOMINANCE_PCT, RuleId::LockDominated),
            (LOCK_DOMINANCE_PCT - 0.01, RuleId::LatencyBadNoDemand),
        ] {
            let mut s = bad_latency(quiet_signal_set(5));
            s.lock_wait_pct = lock_wait_pct;
            let d = policy().decide(&ctx(&s, &current, &cat, None));
            assert_eq!(d.trace.branch, branch, "{lock_wait_pct} %: {d:?}");
            assert_eq!(d.target, current.id);
            assert_eq!(
                d.explanations()
                    .iter()
                    .any(|e| matches!(e, Explanation::NonResourceBottleneck { .. })),
                branch == RuleId::LockDominated,
                "{lock_wait_pct} %: {d:?}"
            );
        }
    }

    /// Latency far inside a 500 ms goal with the pool full at rung 4's
    /// memory: a scale-down that only a balloon commit can let memory join.
    fn full_pool_with_headroom(interval: u64) -> SignalSet {
        let mut s = quiet_signal_set(interval);
        s.latency.observed_ms = Some(50.0);
        s.latency.goal_ms = Some(500.0);
        s.mem_capacity_mb = 7_000.0;
        s.mem_used_mb = 7_000.0;
        s
    }

    #[test]
    fn balloon_commit_is_honoured_for_exactly_the_confirm_ttl() {
        // `interval <= committed_at + BALLOON_CONFIRM_TTL`.
        let cat = catalog();
        let current = cat.get(dasr_containers::ContainerId(4)).unwrap().clone();
        for (after_commit, honoured) in [
            (BALLOON_CONFIRM_TTL, true),
            (BALLOON_CONFIRM_TTL + 1, false),
        ] {
            let mut p = policy();
            let s5 = full_pool_with_headroom(5);
            let d = p.decide(&ctx(&s5, &current, &cat, None));
            assert!(matches!(d.balloon, BalloonCommand::Start { .. }), "{d:?}");
            // The probe reaches its target with flat I/O while latency is
            // bad: the commit is recorded but nothing shrinks yet.
            let s6 = bad_latency(quiet_signal_set(6));
            let mut commit = ctx(&s6, &current, &cat, None);
            commit.balloon = crate::policy::BalloonStatus::Active {
                reached_target: true,
            };
            let d = p.decide(&commit);
            assert!(
                matches!(d.trace.balloon, BalloonGate::Confirmed { .. }),
                "{d:?}"
            );
            assert_eq!(d.target, current.id);

            let later = full_pool_with_headroom(6 + after_commit);
            let d = p.decide(&ctx(&later, &current, &cat, None));
            assert_eq!(
                d.trace.gates.contains(RuleId::BalloonConfirmedShrink),
                honoured,
                "{after_commit} intervals after the commit: {d:?}"
            );
            assert_eq!(
                cat.get(d.target).unwrap().cost < current.cost,
                honoured,
                "{after_commit} intervals after the commit: {d:?}"
            );
        }
    }

    #[test]
    fn pure_demand_mode_without_goal() {
        let cat = catalog();
        let current = cat.get(dasr_containers::ContainerId(2)).unwrap().clone();
        let mut p = AutoPolicy::with_knobs(TenantKnobs::none());
        // Latency "good" (no goal), but demand high: scale up anyway.
        let mut s = high_cpu_pressure(quiet_signal_set(5));
        s.latency.goal_ms = None;
        let d = p.decide(&ctx(&s, &current, &cat, None));
        let target = cat.get(d.target).unwrap();
        assert!(target.cost > current.cost, "{d:?}");
    }

    #[test]
    fn forced_downgrade_when_budget_below_current() {
        let cat = catalog();
        let current = cat.get(dasr_containers::ContainerId(5)).unwrap().clone(); // cost 90
        let s = quiet_signal_set(5);
        let mut p = policy();
        let d = p.decide(&ctx(&s, &current, &cat, Some(40.0)));
        let target = cat.get(d.target).unwrap();
        assert!(target.cost <= 40.0, "{d:?}");
        assert!(d
            .explanations()
            .contains(&Explanation::ScaleUpConstrainedByBudget));
    }
}
