//! Fleet observability: the metrics registry and structured run-event
//! stream over the §6 closed loop.
//!
//! §7 of the paper evaluates the auto-scaling policies entirely through
//! aggregate fleet telemetry — cost relative to peak provisioning, latency
//! against the goal, resize counts. This module is that layer for the
//! reproduction:
//!
//! - [`MetricRegistry`] — counters, gauges and fixed-bucket histograms
//!   covering the whole loop: interval/request totals, resize traffic and
//!   denials (§6 cooldown, §5 budget), balloon-probe lifecycle (§4.3),
//!   latency-goal violations (§2.3), budget token-bucket levels (§5), and
//!   the absorbed [`crate::rules::RuleHistogram`] of §4 rule fires.
//! - [`RunEvent`] — a structured stream of the notable moments (resizes,
//!   denials, throttles, balloon transitions, SLO violations), each one a
//!   JSON line.
//! - [`RunObservability`] — one tenant's registry + event stream, recorded
//!   per interval by the runner.
//! - [`MetricsAccumulator`] — the one fleet merge: tenants' registries
//!   folded exactly, in any grouping.
//! - [`EventSink`] — where a summary-mode fleet streams its events;
//!   [`events_jsonl`] renders a buffered stream.
//!
//! # Determinism
//!
//! Everything here is recorded from the *simulated* run, so a fleet's
//! folded metrics and concatenated event stream are bit-identical for any
//! thread count — the same guarantee [`crate::runner::fleet::FleetRunner`]
//! gives for reports. The single exception is wall-clock [`TimerId`]
//! histograms, which measure the harness itself and are excluded from
//! equality (see [`MetricRegistry`]).
//!
//! # Rendering rule
//!
//! Human-readable output (registry [`std::fmt::Display`], event
//! [`std::fmt::Display`], run summaries) is always *rendered from* the
//! structured data on demand, never stored alongside it.

mod events;
mod metrics;
mod sink;

pub use events::{BalloonPhase, DenyReason, EventKind, RunEvent};
pub(crate) use metrics::HistAcc;
pub use metrics::{
    CounterId, FixedHistogram, GaugeId, HistogramId, MetricRegistry, MetricsAccumulator, TimerId,
};
pub use sink::{EventSink, NullSink, VecSink};

use crate::rules::RuleId;
use crate::trace::{BalloonGate, DecisionTrace};
use std::fmt::Write as _;

/// Renders `events` as JSON lines, one [`RunEvent`] per line — the one
/// event dump every buffered stream (a run's, a fleet's, a [`VecSink`]'s)
/// goes through.
pub fn events_jsonl<'a>(events: impl IntoIterator<Item = &'a RunEvent>) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&ev.to_json_line());
        out.push('\n');
    }
    out
}

/// Everything one interval hands to [`RunObservability::record_interval`].
///
/// All fields come from structured state the loop already produced (the
/// [`DecisionTrace`], the engine's interval stats, the §5 budget manager)
/// — events are derived from this, never from formatted text.
#[derive(Debug, Clone, Copy)]
pub struct IntervalObservation<'a> {
    /// The interval's decision trace.
    pub trace: &'a DecisionTrace,
    /// Aggregated latency over the interval, ms (`None` when idle).
    pub latency_ms: Option<f64>,
    /// Requests completed in the interval.
    pub completed: u64,
    /// Requests rejected in the interval.
    pub rejected: u64,
    /// Container rung billed for the interval.
    pub from_rung: u8,
    /// Container rung chosen for the next interval.
    pub to_rung: u8,
    /// Whole-period budget remaining after this interval's charge, % of
    /// the budget (§5), when a budget is set.
    pub budget_headroom_pct: Option<f64>,
}

/// One run's observability: a [`MetricRegistry`] plus the [`RunEvent`]
/// stream, recorded interval by interval.
///
/// Equality compares the deterministic sections only (see
/// [`MetricRegistry`]'s `PartialEq`), which is what the fleet determinism
/// property test asserts across thread counts.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunObservability {
    /// The metrics registry.
    pub metrics: MetricRegistry,
    /// Structured events, in interval order.
    pub events: Vec<RunEvent>,
}

impl RunObservability {
    fn push(&mut self, interval: u64, kind: EventKind) {
        self.events.push(RunEvent {
            tenant: None,
            interval,
            kind,
        });
    }

    /// Records one closed-loop interval: counters, histograms, rule fires
    /// and the derived notable events.
    pub fn record_interval(&mut self, o: IntervalObservation<'_>) {
        let t = o.trace;
        let i = t.interval;

        self.metrics.inc(CounterId::IntervalsRun);
        self.metrics.add(CounterId::RequestsCompleted, o.completed);
        self.metrics.add(CounterId::RequestsRejected, o.rejected);
        t.record_fires(self.metrics.rules_mut());
        if let Some(ms) = o.latency_ms {
            self.metrics.observe(HistogramId::IntervalLatencyMs, ms);
        }

        // Resize outcome (§2.2 / §6): issued, or derived denial.
        if t.target != t.from {
            let step = o.to_rung as i8 - o.from_rung as i8;
            self.metrics.inc(CounterId::ResizesIssued);
            self.metrics.inc(if step > 0 {
                CounterId::ResizesUp
            } else {
                CounterId::ResizesDown
            });
            self.metrics.observe(HistogramId::ResizeStep, step as f64);
            self.push(
                i,
                EventKind::ResizeIssued {
                    from_rung: o.from_rung,
                    to_rung: o.to_rung,
                },
            );
        } else if t.branch == RuleId::CooldownHold {
            self.metrics.inc(CounterId::ResizesDeniedCooldown);
            self.push(
                i,
                EventKind::ResizeDenied {
                    reason: DenyReason::Cooldown,
                },
            );
        } else if t.branch == RuleId::ScaleUpDemand && t.gates.contains(RuleId::BudgetConstrained) {
            self.metrics.inc(CounterId::ResizesDeniedBudget);
            self.push(
                i,
                EventKind::ResizeDenied {
                    reason: DenyReason::Budget,
                },
            );
        }

        // Budget gate (§5).
        if t.budget_limited() {
            self.metrics.inc(CounterId::BudgetThrottles);
            self.push(
                i,
                EventKind::BudgetThrottle {
                    headroom_pct: o.budget_headroom_pct.unwrap_or(0.0),
                },
            );
        }
        if t.gates.contains(RuleId::BudgetForcedDowngrade) {
            self.metrics.inc(CounterId::BudgetForcedDowngrades);
        }
        if t.gates.contains(RuleId::EmergencyBypass) {
            self.metrics.inc(CounterId::EmergencyBypasses);
        }
        if let Some(pct) = o.budget_headroom_pct {
            self.metrics.observe(HistogramId::BudgetHeadroomPct, pct);
        }

        // Balloon probe (§4.3).
        match t.balloon {
            BalloonGate::Disabled | BalloonGate::Idle => {}
            BalloonGate::Started { target_mb } => {
                self.metrics.inc(CounterId::BalloonStarts);
                self.push(
                    i,
                    EventKind::BalloonTrigger {
                        phase: BalloonPhase::Started,
                        target_mb: Some(target_mb),
                    },
                );
            }
            BalloonGate::Aborted => {
                self.metrics.inc(CounterId::BalloonAborts);
                self.push(
                    i,
                    EventKind::BalloonTrigger {
                        phase: BalloonPhase::Aborted,
                        target_mb: None,
                    },
                );
            }
            BalloonGate::Confirmed { target_mb } => {
                self.metrics.inc(CounterId::BalloonCommits);
                self.push(
                    i,
                    EventKind::BalloonTrigger {
                        phase: BalloonPhase::Confirmed,
                        target_mb: Some(target_mb),
                    },
                );
            }
        }

        // Latency goal (§2.3).
        if let (Some(observed_ms), Some(goal_ms)) = (t.latency.observed_ms, t.latency.goal_ms) {
            if observed_ms > goal_ms {
                self.metrics.inc(CounterId::SloViolations);
                self.push(
                    i,
                    EventKind::SloViolation {
                        observed_ms,
                        goal_ms,
                    },
                );
            }
        }
    }

    /// Records end-of-run gauges: the final container rung and, when a
    /// budget is set, the tokens remaining (§5).
    pub fn finish(&mut self, final_rung: u8, budget_remaining: Option<f64>) {
        self.metrics
            .set_gauge(GaugeId::FinalRung, final_rung as f64);
        if let Some(rem) = budget_remaining {
            self.metrics.set_gauge(GaugeId::BudgetRemaining, rem);
        }
    }

    /// Stamps every event with `tenant` (done by the fleet runner so a
    /// merged stream stays attributable).
    pub fn stamp_tenant(&mut self, tenant: u64) {
        for ev in &mut self.events {
            ev.tenant = Some(tenant);
        }
    }

    /// The event stream as JSON lines (see [`events_jsonl`]).
    pub fn events_jsonl(&self) -> String {
        events_jsonl(&self.events)
    }

    /// Renders the run's observability summary — counters, gauges,
    /// histogram digests, rule fires — from the structured registry.
    pub fn summary(&self) -> String {
        let mut out = String::from("observability:\n");
        let _ = write!(out, "{}", self.metrics);
        let _ = writeln!(
            out,
            "  events recorded            {:>10}",
            self.events.len()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dasr_containers::ContainerId;

    fn trace(interval: u64, from: u32, target: u32) -> DecisionTrace {
        let mut t = DecisionTrace::empty(interval, ContainerId(from));
        t.target = ContainerId(target);
        t
    }

    fn obs_of(t: &DecisionTrace, from_rung: u8, to_rung: u8) -> IntervalObservation<'_> {
        IntervalObservation {
            trace: t,
            latency_ms: Some(12.0),
            completed: 100,
            rejected: 1,
            from_rung,
            to_rung,
            budget_headroom_pct: Some(80.0),
        }
    }

    #[test]
    fn resize_is_counted_and_evented() {
        let mut obs = RunObservability::default();
        let t = trace(3, 1, 2);
        obs.record_interval(obs_of(&t, 1, 3));
        assert_eq!(obs.metrics.counter(CounterId::ResizesIssued), 1);
        assert_eq!(obs.metrics.counter(CounterId::ResizesUp), 1);
        assert_eq!(obs.metrics.histogram(HistogramId::ResizeStep).sum(), 2.0);
        assert_eq!(obs.events.len(), 1);
        assert!(matches!(
            obs.events[0].kind,
            EventKind::ResizeIssued {
                from_rung: 1,
                to_rung: 3
            }
        ));
    }

    #[test]
    fn cooldown_and_budget_denials_are_derived_from_the_trace() {
        let mut obs = RunObservability::default();
        let mut t = trace(1, 2, 2);
        t.branch = RuleId::CooldownHold;
        obs.record_interval(obs_of(&t, 2, 2));
        let mut t = trace(2, 2, 2);
        t.branch = RuleId::ScaleUpDemand;
        t.gates.insert(RuleId::BudgetConstrained);
        obs.record_interval(obs_of(&t, 2, 2));
        assert_eq!(obs.metrics.counter(CounterId::ResizesDeniedCooldown), 1);
        assert_eq!(obs.metrics.counter(CounterId::ResizesDeniedBudget), 1);
        assert_eq!(obs.metrics.counter(CounterId::BudgetThrottles), 1);
        let kinds: Vec<&str> = obs.events.iter().map(|e| e.kind.name()).collect();
        assert_eq!(
            kinds,
            vec!["resize_denied", "resize_denied", "budget_throttle"]
        );
    }

    #[test]
    fn slo_violation_needs_goal_exceeded() {
        let mut obs = RunObservability::default();
        let mut t = trace(0, 1, 1);
        t.latency.observed_ms = Some(80.0);
        t.latency.goal_ms = Some(100.0);
        obs.record_interval(obs_of(&t, 1, 1));
        assert_eq!(obs.metrics.counter(CounterId::SloViolations), 0);
        t.latency.observed_ms = Some(120.0);
        obs.record_interval(obs_of(&t, 1, 1));
        assert_eq!(obs.metrics.counter(CounterId::SloViolations), 1);
    }

    #[test]
    fn balloon_transitions_map_to_events() {
        let mut obs = RunObservability::default();
        for (gate, starts, aborts, commits) in [
            (BalloonGate::Started { target_mb: 512.0 }, 1, 0, 0),
            (BalloonGate::Aborted, 1, 1, 0),
            (BalloonGate::Confirmed { target_mb: 400.0 }, 1, 1, 1),
        ] {
            let mut t = trace(0, 1, 1);
            t.balloon = gate;
            obs.record_interval(obs_of(&t, 1, 1));
            assert_eq!(obs.metrics.counter(CounterId::BalloonStarts), starts);
            assert_eq!(obs.metrics.counter(CounterId::BalloonAborts), aborts);
            assert_eq!(obs.metrics.counter(CounterId::BalloonCommits), commits);
        }
        assert_eq!(obs.events.len(), 3);
    }

    #[test]
    fn summary_renders_from_structure() {
        let mut obs = RunObservability::default();
        obs.record_interval(obs_of(&trace(0, 1, 2), 1, 2));
        let s = obs.summary();
        assert!(s.contains("intervals_run"));
        assert!(s.contains("events recorded"));
    }
}
