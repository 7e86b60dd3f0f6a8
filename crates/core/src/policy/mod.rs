//! Scaling policies: the paper's Auto (§6) and the §7.2 baselines.

pub mod auto;
pub mod offline;
pub mod util;

pub use auto::AutoPolicy;
pub use util::UtilPolicy;

use crate::estimator::memory::{BalloonAction, BalloonProbe};
use crate::explain::Explanation;
use crate::trace::DecisionTrace;
use dasr_containers::{Catalog, Container, ContainerId};
use dasr_telemetry::SignalSet;

/// Re-export: engine-side balloon status, supplied by the runner.
pub type BalloonStatus = BalloonProbe;

/// Re-export: balloon command issued by a policy.
pub type BalloonCommand = BalloonAction;

/// Everything a policy may consult when deciding the next interval's
/// container.
#[derive(Debug)]
pub struct PolicyContext<'a> {
    /// Signals for the interval that just ended.
    pub signals: &'a SignalSet,
    /// The container currently allocated.
    pub current: &'a Container,
    /// The service's container offering.
    pub catalog: &'a Catalog,
    /// Budget available for the next interval (`Bᵢ`), `None` when
    /// unconstrained (§5).
    pub available_budget: Option<f64>,
    /// Engine-side balloon status.
    pub balloon: BalloonStatus,
}

/// A policy's decision for the next billing interval.
///
/// Every decision carries a complete [`DecisionTrace`] — signals seen,
/// rules evaluated/fired, steps demanded vs granted, gates engaged — from
/// whose fields the §4 explanations are derived.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyDecision {
    /// Container for the next interval (may equal the current one).
    pub target: ContainerId,
    /// The structured end-to-end record of this decision.
    pub trace: DecisionTrace,
    /// Balloon command for the engine.
    pub balloon: BalloonCommand,
}

impl PolicyDecision {
    /// A decision pinning `target` regardless of signals (the static and
    /// schedule baselines). The trace still records what the signals said.
    pub fn pin(ctx: &PolicyContext<'_>, target: ContainerId) -> Self {
        let mut trace = DecisionTrace::from_signals(ctx.signals, ctx.current.id);
        trace.target = target;
        if let Some(t) = ctx.catalog.get(target) {
            trace.grant(ctx.current.rung, t.rung);
        }
        Self {
            target,
            trace,
            balloon: BalloonCommand::None,
        }
    }

    /// The §4 explanations of this decision, derived from its trace.
    pub fn explanations(&self) -> Vec<Explanation> {
        self.trace.explanations()
    }
}

/// A container-sizing policy evaluated once per billing interval (§6).
pub trait ScalingPolicy {
    /// Name used in reports (`auto`, `util`, `max`, `peak`, `avg`, `trace`).
    fn name(&self) -> &'static str;

    /// Decides the container for the next billing interval.
    fn decide(&mut self, ctx: &PolicyContext<'_>) -> PolicyDecision;
}

/// A fixed container for the whole run (the `Max`, `Peak` and `Avg`
/// baselines, §7.2.1).
#[derive(Debug, Clone)]
pub struct StaticPolicy {
    name: &'static str,
    container: ContainerId,
}

impl StaticPolicy {
    /// Pins `container` for the whole run.
    pub fn new(name: &'static str, container: ContainerId) -> Self {
        Self { name, container }
    }

    /// The largest container in `catalog` (the `Max` gold standard).
    pub fn max(catalog: &Catalog) -> Self {
        Self::new("max", catalog.largest().id)
    }
}

impl ScalingPolicy for StaticPolicy {
    fn name(&self) -> &'static str {
        self.name
    }

    // dasr-lint: entry(G1)
    fn decide(&mut self, ctx: &PolicyContext<'_>) -> PolicyDecision {
        PolicyDecision::pin(ctx, self.container)
    }
}

/// A precomputed per-interval schedule (the offline `Trace` baseline,
/// §7.2.1: a sequence of container sizes that "hugs" the demand curve).
#[derive(Debug, Clone)]
pub struct SchedulePolicy {
    schedule: Vec<ContainerId>,
    next: usize,
}

impl SchedulePolicy {
    /// Creates the policy; interval `i` uses `schedule[i]` (clamped to the
    /// last entry).
    ///
    /// # Panics
    /// Panics if the schedule is empty.
    pub fn new(schedule: Vec<ContainerId>) -> Self {
        assert!(!schedule.is_empty(), "schedule must be non-empty");
        Self { schedule, next: 0 }
    }
}

impl ScalingPolicy for SchedulePolicy {
    fn name(&self) -> &'static str {
        "trace"
    }

    // dasr-lint: entry(G1)
    fn decide(&mut self, ctx: &PolicyContext<'_>) -> PolicyDecision {
        // decide() is called at the END of interval i to pick interval
        // i+1's container.
        self.next += 1;
        let idx = self.next.min(self.schedule.len() - 1);
        PolicyDecision::pin(ctx, self.schedule[idx])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::tests_support::quiet_signal_set;

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

    #[test]
    fn static_policy_never_moves() {
        let catalog = Catalog::azure_like();
        let mut p = StaticPolicy::max(&catalog);
        let signals = quiet_signal_set(0);
        let current = catalog.smallest().clone();
        let d = p.decide(&ctx(&signals, &current, &catalog));
        assert_eq!(d.target, catalog.largest().id);
        assert_eq!(p.name(), "max");
    }

    #[test]
    fn schedule_policy_follows_schedule_offset_by_one() {
        let catalog = Catalog::azure_like();
        let ids: Vec<ContainerId> = catalog.iter().take(3).map(|c| c.id).collect();
        let mut p = SchedulePolicy::new(ids.clone());
        let signals = quiet_signal_set(0);
        let current = catalog.smallest().clone();
        // First decision (end of interval 0) must pick schedule[1].
        let d = p.decide(&ctx(&signals, &current, &catalog));
        assert_eq!(d.target, ids[1]);
        let d = p.decide(&ctx(&signals, &current, &catalog));
        assert_eq!(d.target, ids[2]);
        // Past the end: clamps.
        let d = p.decide(&ctx(&signals, &current, &catalog));
        assert_eq!(d.target, ids[2]);
    }

    #[test]
    fn pinned_decisions_explain_no_change_even_when_they_move() {
        let catalog = Catalog::azure_like();
        let signals = quiet_signal_set(0);
        let current = catalog.smallest().clone();
        let ids: Vec<ContainerId> = catalog.iter().take(3).map(|c| c.id).collect();
        let mut schedule = SchedulePolicy::new(ids.clone());
        let moved = schedule.decide(&ctx(&signals, &current, &catalog));
        assert_ne!(moved.target, current.id);
        let pinned =
            StaticPolicy::new("peak", current.id).decide(&ctx(&signals, &current, &catalog));
        let max = StaticPolicy::max(&catalog).decide(&ctx(&signals, &current, &catalog));
        for d in [moved, pinned, max] {
            assert_eq!(d.trace.render_explanations(), ["No change needed"], "{d:?}");
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_schedule_panics() {
        let _ = SchedulePolicy::new(vec![]);
    }
}
