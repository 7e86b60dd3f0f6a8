//! Structured run events: the notable moments of a §6 closed-loop run as
//! data, one JSON line each.
//!
//! Where the [`crate::obs::MetricRegistry`] answers "how often", the event
//! stream answers "when and in what order". Every event is *derived* from
//! structured state the loop already produced — the
//! [`crate::trace::DecisionTrace`], the interval's counters — never from
//! formatted text, honoring the repo rule that human-readable output is
//! rendered from structure, not stored. Events are written through
//! [`crate::json`], like [`crate::trace`]; they are output only, and
//! nothing in the workspace reads an event line back.

use crate::json::Json;
use std::fmt;

/// Why a wanted resize was not issued (§5 budget gate, §6 cooldown).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DenyReason {
    /// Both scale directions sat inside the post-resize cooldown (§6).
    Cooldown,
    /// The §5 budget truncated or blocked the recommended move.
    Budget,
}

impl DenyReason {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            DenyReason::Cooldown => "cooldown",
            DenyReason::Budget => "budget",
        }
    }
}

/// Which §4.3 balloon-probe transition an event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BalloonPhase {
    /// A probe started (deflating the pool toward the target).
    Started,
    /// The active probe aborted on rising disk I/O.
    Aborted,
    /// The probe committed, authorizing a memory shrink.
    Confirmed,
}

impl BalloonPhase {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            BalloonPhase::Started => "started",
            BalloonPhase::Aborted => "aborted",
            BalloonPhase::Confirmed => "confirmed",
        }
    }
}

/// What happened (the payload of a [`RunEvent`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A billing interval opened (§2.2). The loop no longer emits it; the
    /// variant keeps its store tag and decodes from archived streams.
    IntervalStart,
    /// A billing interval closed with its headline telemetry. The loop no
    /// longer emits it; the variant keeps its store tag and decodes from
    /// archived streams.
    IntervalEnd {
        /// Aggregated latency over the interval, ms (`None` when idle).
        latency_ms: Option<f64>,
        /// Requests completed in the interval.
        completed: u64,
        /// Requests rejected in the interval.
        rejected: u64,
    },
    /// A resize was issued (§2.2 change event).
    ResizeIssued {
        /// Container rung before the move.
        from_rung: u8,
        /// Container rung after the move.
        to_rung: u8,
    },
    /// A wanted resize was denied (§5 / §6).
    ResizeDenied {
        /// Why the move did not happen.
        reason: DenyReason,
    },
    /// The §5 token bucket engaged: truncation, block or forced downgrade.
    BudgetThrottle {
        /// Budget remaining after the interval's charge, % of the full
        /// period budget.
        headroom_pct: f64,
    },
    /// A §4.3 balloon-probe transition.
    BalloonTrigger {
        /// Which transition.
        phase: BalloonPhase,
        /// Probe / confirmed pool target, MB (absent for aborts).
        target_mb: Option<f64>,
    },
    /// The interval's latency exceeded the tenant's goal (§2.3).
    SloViolation {
        /// Observed latency, ms.
        observed_ms: f64,
        /// The goal it exceeded, ms.
        goal_ms: f64,
    },
}

impl EventKind {
    /// Stable wire name of the event type.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::IntervalStart => "interval_start",
            EventKind::IntervalEnd { .. } => "interval_end",
            EventKind::ResizeIssued { .. } => "resize_issued",
            EventKind::ResizeDenied { .. } => "resize_denied",
            EventKind::BudgetThrottle { .. } => "budget_throttle",
            EventKind::BalloonTrigger { .. } => "balloon_trigger",
            EventKind::SloViolation { .. } => "slo_violation",
        }
    }
}

/// One structured run event: who, when, what.
///
/// # Example
///
/// ```
/// use dasr_core::obs::{EventKind, RunEvent};
///
/// let ev = RunEvent {
///     tenant: Some(3),
///     interval: 17,
///     kind: EventKind::ResizeIssued { from_rung: 1, to_rung: 2 },
/// };
/// let line = ev.to_json_line();
/// assert_eq!(
///     line,
///     r#"{"event":"resize_issued","tenant":3,"interval":17,"from_rung":1,"to_rung":2}"#
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunEvent {
    /// Tenant index within a fleet run (`None` for single-tenant runs
    /// until the fleet aggregation stamps it).
    pub tenant: Option<u64>,
    /// Billing interval the event belongs to.
    pub interval: u64,
    /// What happened.
    pub kind: EventKind,
}

impl RunEvent {
    /// Serializes the event as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        // Every field is named, so a field added later does not compile
        // until it is written here.
        let RunEvent {
            tenant,
            interval,
            kind,
        } = self;
        let mut fields = vec![
            ("event".to_string(), Json::Str(kind.name().into())),
            ("tenant".into(), Json::from_opt(tenant.map(|t| t as f64))),
            ("interval".into(), Json::Num(*interval as f64)),
        ];
        match kind {
            EventKind::IntervalStart => {}
            EventKind::IntervalEnd {
                latency_ms,
                completed,
                rejected,
            } => {
                fields.push(("latency_ms".into(), Json::from_opt(*latency_ms)));
                fields.push(("completed".into(), Json::Num(*completed as f64)));
                fields.push(("rejected".into(), Json::Num(*rejected as f64)));
            }
            EventKind::ResizeIssued { from_rung, to_rung } => {
                fields.push(("from_rung".into(), Json::Num(*from_rung as f64)));
                fields.push(("to_rung".into(), Json::Num(*to_rung as f64)));
            }
            EventKind::ResizeDenied { reason } => {
                fields.push(("reason".into(), Json::Str(reason.name().into())));
            }
            EventKind::BudgetThrottle { headroom_pct } => {
                fields.push(("headroom_pct".into(), Json::Num(*headroom_pct)));
            }
            EventKind::BalloonTrigger { phase, target_mb } => {
                fields.push(("phase".into(), Json::Str(phase.name().into())));
                fields.push(("target_mb".into(), Json::from_opt(*target_mb)));
            }
            EventKind::SloViolation {
                observed_ms,
                goal_ms,
            } => {
                fields.push(("observed_ms".into(), Json::Num(*observed_ms)));
                fields.push(("goal_ms".into(), Json::Num(*goal_ms)));
            }
        }
        Json::Obj(fields).write()
    }
}

impl fmt::Display for RunEvent {
    /// One-line human rendering, derived from the structured event.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.tenant {
            Some(t) => write!(f, "[t{t:03} i{:04}] ", self.interval)?,
            None => write!(f, "[i{:04}] ", self.interval)?,
        }
        match &self.kind {
            EventKind::IntervalStart => write!(f, "interval start"),
            EventKind::IntervalEnd {
                latency_ms,
                completed,
                rejected,
            } => match latency_ms {
                Some(ms) => write!(
                    f,
                    "interval end: {completed} ok / {rejected} rejected, {ms:.1} ms"
                ),
                None => write!(f, "interval end: idle"),
            },
            EventKind::ResizeIssued { from_rung, to_rung } => {
                write!(f, "resize rung {from_rung} -> {to_rung}")
            }
            EventKind::ResizeDenied { reason } => write!(f, "resize denied ({})", reason.name()),
            EventKind::BudgetThrottle { headroom_pct } => {
                write!(f, "budget throttle ({headroom_pct:.0}% headroom)")
            }
            EventKind::BalloonTrigger { phase, target_mb } => match target_mb {
                Some(mb) => write!(f, "balloon {} -> {mb:.0} MB", phase.name()),
                None => write!(f, "balloon {}", phase.name()),
            },
            EventKind::SloViolation {
                observed_ms,
                goal_ms,
            } => write!(
                f,
                "SLO violation: {observed_ms:.1} ms > {goal_ms:.1} ms goal"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_kinds() -> Vec<EventKind> {
        vec![
            EventKind::IntervalStart,
            EventKind::IntervalEnd {
                latency_ms: Some(41.25),
                completed: 640,
                rejected: 2,
            },
            EventKind::IntervalEnd {
                latency_ms: None,
                completed: 0,
                rejected: 0,
            },
            EventKind::ResizeIssued {
                from_rung: 2,
                to_rung: 4,
            },
            EventKind::ResizeDenied {
                reason: DenyReason::Cooldown,
            },
            EventKind::ResizeDenied {
                reason: DenyReason::Budget,
            },
            EventKind::BudgetThrottle { headroom_pct: 12.5 },
            EventKind::BalloonTrigger {
                phase: BalloonPhase::Started,
                target_mb: Some(1740.5),
            },
            EventKind::BalloonTrigger {
                phase: BalloonPhase::Aborted,
                target_mb: None,
            },
            EventKind::SloViolation {
                observed_ms: 150.5,
                goal_ms: 100.0,
            },
            EventKind::BalloonTrigger {
                phase: BalloonPhase::Confirmed,
                target_mb: Some(1024.0),
            },
        ]
    }

    #[test]
    fn every_kind_encodes_to_its_pinned_line() {
        let pinned = [
            r#"{"event":"interval_start","tenant":0,"interval":100}"#,
            r#"{"event":"interval_end","tenant":null,"interval":101,"latency_ms":41.25,"completed":640,"rejected":2}"#,
            r#"{"event":"interval_end","tenant":2,"interval":102,"latency_ms":null,"completed":0,"rejected":0}"#,
            r#"{"event":"resize_issued","tenant":null,"interval":103,"from_rung":2,"to_rung":4}"#,
            r#"{"event":"resize_denied","tenant":4,"interval":104,"reason":"cooldown"}"#,
            r#"{"event":"resize_denied","tenant":null,"interval":105,"reason":"budget"}"#,
            r#"{"event":"budget_throttle","tenant":6,"interval":106,"headroom_pct":12.5}"#,
            r#"{"event":"balloon_trigger","tenant":null,"interval":107,"phase":"started","target_mb":1740.5}"#,
            r#"{"event":"balloon_trigger","tenant":8,"interval":108,"phase":"aborted","target_mb":null}"#,
            r#"{"event":"slo_violation","tenant":null,"interval":109,"observed_ms":150.5,"goal_ms":100}"#,
            r#"{"event":"balloon_trigger","tenant":10,"interval":110,"phase":"confirmed","target_mb":1024}"#,
        ];
        let kinds = all_kinds();
        assert_eq!(kinds.len(), pinned.len());
        for (i, (kind, want)) in kinds.into_iter().zip(pinned).enumerate() {
            let ev = RunEvent {
                tenant: if i % 2 == 0 { Some(i as u64) } else { None },
                interval: 100 + i as u64,
                kind,
            };
            assert_eq!(ev.to_json_line(), want);
        }
    }

    #[test]
    fn display_renders_every_kind() {
        for kind in all_kinds() {
            let ev = RunEvent {
                tenant: Some(1),
                interval: 5,
                kind,
            };
            assert!(!ev.to_string().is_empty());
            assert!(ev.to_string().starts_with("[t001 i0005]"));
        }
    }
}
