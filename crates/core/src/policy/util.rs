//! **Util** — the utilization-only online baseline (§7.2.2).
//!
//! Emulates the auto-scaling offerings of today's clouds, translated to
//! container sizing: track latency, and
//!
//! - latency BAD and some resource's utilization at least moderate →
//!   scale up one rung;
//! - latency GOOD and every resource's utilization LOW → scale down one
//!   rung.
//!
//! Without wait statistics it cannot tell unmet resource demand from
//! non-resource bottlenecks, so on a lock-bound workload it keeps scaling
//! up as long as latency stays bad — the Figure 13 overshoot.

use crate::policy::{BalloonCommand, PolicyContext, PolicyDecision, ScalingPolicy};
use crate::rules::RuleId;
use crate::trace::DecisionTrace;
use dasr_containers::{Container, ResourceKind, RESOURCE_KINDS};
use dasr_telemetry::categorize::UtilLevel;

/// Intervals between scale-downs: cloud autoscalers scale in deliberately
/// slowly (long scale-in cooldowns) to avoid flapping.
const DOWN_COOLDOWN: u64 = 5;

/// The utilization-only baseline policy.
#[derive(Debug, Clone, Default)]
pub struct UtilPolicy {
    last_resize: Option<u64>,
}

impl UtilPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps a move into a decision whose trace names `branch`. Util has
    /// no rule tables; its trace records the branch taken and the signals
    /// it saw, and a scale-down is a whole-container step.
    fn moved(ctx: &PolicyContext<'_>, branch: RuleId, target: &Container) -> PolicyDecision {
        let mut trace = DecisionTrace::from_signals(ctx.signals, ctx.current.id);
        trace.branch = branch;
        trace.whole_step_down = branch == RuleId::ScaleDownDemand;
        trace.target = target.id;
        trace.grant(ctx.current.rung, target.rung);
        PolicyDecision {
            target: target.id,
            trace,
            balloon: BalloonCommand::None,
        }
    }
}

impl ScalingPolicy for UtilPolicy {
    fn name(&self) -> &'static str {
        "util"
    }

    // dasr-lint: entry(G1)
    // dasr-lint: no-alloc
    fn decide(&mut self, ctx: &PolicyContext<'_>) -> PolicyDecision {
        let sig = ctx.signals;
        let max_level = RESOURCE_KINDS
            .iter()
            .map(|&k| sig.resource(k).util_level)
            .max()
            .expect("resources non-empty");
        let all_low = RESOURCE_KINDS
            .iter()
            // Memory utilization is structurally high (caches); a
            // utilization-only scaler has to ignore it for scale-down or it
            // would never shrink.
            .filter(|&&k| k != ResourceKind::Memory)
            .all(|&k| sig.resource(k).util_level == UtilLevel::Low);

        // Step scaling, as in today's cloud autoscalers: react every
        // interval while latency is degraded, and jump harder the further
        // the goal is missed — "when Util decides to scale up, it ends up
        // scaling much higher to compensate" (§7.3, Figure 13).
        if sig.latency.needs_attention() && max_level >= UtilLevel::Medium {
            let badly_missed = match (sig.latency.observed_ms, sig.latency.goal_ms) {
                (Some(obs), Some(goal)) => obs > 2.0 * goal,
                _ => false,
            };
            let step = if badly_missed { 2 } else { 1 };
            let desired = ctx.catalog.desired_after_steps(ctx.current, [step; 4]);
            if let Some(t) = ctx
                .catalog
                .cheapest_covering(&desired, ctx.available_budget)
            {
                if t.id != ctx.current.id {
                    self.last_resize = Some(sig.interval);
                    return Self::moved(ctx, RuleId::ScaleUpDemand, t);
                }
            }
        } else if !sig.latency.needs_attention()
            && all_low
            // Slow scale-in, like commercial autoscalers.
            && self.last_resize.is_none_or(|at| sig.interval >= at + DOWN_COOLDOWN)
        {
            let desired = ctx.catalog.desired_after_steps(ctx.current, [-1; 4]);
            if let Some(t) = ctx
                .catalog
                .cheapest_covering(&desired, ctx.available_budget)
            {
                if t.cost < ctx.current.cost {
                    self.last_resize = Some(sig.interval);
                    return Self::moved(ctx, RuleId::ScaleDownDemand, t);
                }
            }
        }
        PolicyDecision::pin(ctx, ctx.current.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::tests_support::quiet_signal_set;
    use crate::policy::BalloonStatus;
    use dasr_containers::{Catalog, Container, ContainerId};
    use dasr_telemetry::categorize::LatencyVerdict;
    use dasr_telemetry::SignalSet;

    fn ctx<'a>(
        signals: &'a SignalSet,
        current: &'a Container,
        catalog: &'a Catalog,
    ) -> PolicyContext<'a> {
        PolicyContext {
            signals,
            current,
            catalog,
            available_budget: None,
            balloon: BalloonStatus::Inactive,
        }
    }

    fn bad_latency(mut s: SignalSet) -> SignalSet {
        s.latency.observed_ms = Some(500.0);
        s.latency.goal_ms = Some(100.0);
        s.latency.verdict = LatencyVerdict::Bad;
        s
    }

    #[test]
    fn scales_up_on_bad_latency_with_any_moderate_utilization() {
        let cat = Catalog::azure_like();
        let current = cat.get(ContainerId(2)).unwrap().clone();
        let s = bad_latency(quiet_signal_set(3)); // quiet = MEDIUM cpu util
        let mut p = UtilPolicy::new();
        let d = p.decide(&ctx(&s, &current, &cat));
        assert!(cat.get(d.target).unwrap().cost > current.cost);
    }

    #[test]
    fn keeps_climbing_on_lock_bound_workload() {
        // The Figure 13 overshoot: lock-bound latency stays bad; Util keeps
        // scaling up interval after interval.
        let cat = Catalog::azure_like();
        let mut current = cat.get(ContainerId(1)).unwrap().clone();
        let mut p = UtilPolicy::new();
        for i in 0..12u64 {
            let mut s = bad_latency(quiet_signal_set(i * 2)); // skip cooldowns
            s.lock_wait_pct = 95.0; // Util cannot see this
            let d = p.decide(&ctx(&s, &current, &cat));
            current = cat.get(d.target).unwrap().clone();
        }
        assert_eq!(current.id, cat.largest().id, "Util climbs to the top");
    }

    #[test]
    fn scales_down_only_when_all_utilizations_low() {
        let cat = Catalog::azure_like();
        let current = cat.get(ContainerId(4)).unwrap().clone();
        let mut p = UtilPolicy::new();
        // Quiet signals: cpu MEDIUM -> no scale-down.
        let s = quiet_signal_set(3);
        let d = p.decide(&ctx(&s, &current, &cat));
        assert_eq!(d.target, current.id);
        // All low (except memory, which Util ignores): scale down.
        let mut s = quiet_signal_set(4);
        for k in RESOURCE_KINDS {
            if k != ResourceKind::Memory {
                s.resources[k.index()].util_level = UtilLevel::Low;
                s.resources[k.index()].util_pct = 10.0;
            } else {
                s.resources[k.index()].util_level = UtilLevel::High;
                s.resources[k.index()].util_pct = 95.0;
            }
        }
        let d = p.decide(&ctx(&s, &current, &cat));
        assert!(cat.get(d.target).unwrap().cost < current.cost, "{d:?}");
    }

    #[test]
    fn badly_missed_goal_jumps_two_rungs() {
        let cat = Catalog::azure_like();
        let current = cat.get(ContainerId(2)).unwrap().clone();
        let mut p = UtilPolicy::new();
        let mut s = bad_latency(quiet_signal_set(5));
        s.latency.observed_ms = Some(1_000.0); // 10x the 100 ms goal
        let d = p.decide(&ctx(&s, &current, &cat));
        assert_eq!(cat.get(d.target).unwrap().rung, 4, "two-rung jump");
    }

    #[test]
    fn down_hysteresis_skips_one_interval() {
        let cat = Catalog::azure_like();
        let current = cat.get(ContainerId(4)).unwrap().clone();
        let mut p = UtilPolicy::new();
        let mut low = quiet_signal_set(5);
        for k in RESOURCE_KINDS {
            if k != ResourceKind::Memory {
                low.resources[k.index()].util_level = UtilLevel::Low;
                low.resources[k.index()].util_pct = 10.0;
            }
        }
        let d1 = p.decide(&ctx(&low, &current, &cat));
        assert!(cat.get(d1.target).unwrap().cost < current.cost);
        // Within the scale-in cooldown the down hysteresis holds.
        let after = cat.get(d1.target).unwrap().clone();
        let mut low2 = low.clone();
        low2.interval = 5 + DOWN_COOLDOWN - 1;
        let d2 = p.decide(&ctx(&low2, &after, &cat));
        assert_eq!(d2.target, after.id, "down hysteresis");
        // After the cooldown it steps down again.
        let mut low3 = low.clone();
        low3.interval = 5 + DOWN_COOLDOWN;
        let d3 = p.decide(&ctx(&low3, &after, &cat));
        assert!(cat.get(d3.target).unwrap().cost < after.cost);
    }

    #[test]
    fn scale_up_names_the_busiest_resource_and_the_last_of_equals() {
        let cat = Catalog::azure_like();
        let current = cat.get(ContainerId(2)).unwrap().clone();
        let up = |s: &SignalSet| {
            let d = UtilPolicy::new().decide(&ctx(s, &current, &cat));
            assert!(cat.get(d.target).unwrap().cost > current.cost, "{d:?}");
            d.trace.render_explanations()
        };
        let mut s = bad_latency(quiet_signal_set(3));
        s.resources[ResourceKind::DiskIo.index()].util_pct = 90.0;
        assert_eq!(
            up(&s),
            ["Scale-up due to a disk_io bottleneck \
              (latency BAD with utilization (no wait signals))"]
        );
        // Every utilization equal: the last kind in `RESOURCE_KINDS` order.
        let s = bad_latency(quiet_signal_set(3));
        assert_eq!(
            up(&s),
            ["Scale-up due to a log_io bottleneck \
              (latency BAD with utilization (no wait signals))"]
        );
    }

    #[test]
    fn scale_down_names_every_resource() {
        let cat = Catalog::azure_like();
        let current = cat.get(ContainerId(4)).unwrap().clone();
        let mut s = quiet_signal_set(4);
        for k in RESOURCE_KINDS {
            s.resources[k.index()].util_level = UtilLevel::Low;
            s.resources[k.index()].util_pct = 10.0;
        }
        let d = UtilPolicy::new().decide(&ctx(&s, &current, &cat));
        assert!(cat.get(d.target).unwrap().cost < current.cost, "{d:?}");
        assert_eq!(
            d.trace.render_explanations(),
            ["Scale-down due to low demand for cpu, memory, disk_io, log_io"]
        );
        // Holding still explains nothing more than that.
        let d = UtilPolicy::new().decide(&ctx(&quiet_signal_set(4), &current, &cat));
        assert_eq!(d.target, current.id);
        assert_eq!(d.trace.render_explanations(), ["No change needed"]);
    }
}
