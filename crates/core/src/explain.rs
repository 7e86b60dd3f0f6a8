//! Explanations: the human-readable rationale of every scaling action (§4).
//!
//! "Using categories with well-defined semantics allows the auto-scaling
//! logic to provide an *explanation* of its actions … a concise way of
//! explaining the path the model traversed when recommending a container
//! size."
//!
//! No decision stores its explanations: [`crate::DecisionTrace::explanations`]
//! derives the list from the trace's fields, and the `Display` impl here
//! turns each [`Explanation`] into prose.

use crate::rules::RuleFire;
use dasr_containers::{ResourceKind, RESOURCE_KINDS};
use std::fmt;

/// A set of resource dimensions as one bit per kind, iterated in
/// [`RESOURCE_KINDS`] order.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct ResourceSet(u8);

impl ResourceSet {
    /// Every dimension.
    pub const ALL: ResourceSet = ResourceSet((1 << RESOURCE_KINDS.len()) - 1);

    /// Adds `kind`.
    pub fn insert(&mut self, kind: ResourceKind) {
        self.0 |= 1 << kind.index();
    }

    /// True when `kind` is in the set.
    pub fn contains(self, kind: ResourceKind) -> bool {
        self.0 & (1 << kind.index()) != 0
    }

    /// The kinds, in [`RESOURCE_KINDS`] order.
    pub fn iter(self) -> impl Iterator<Item = ResourceKind> {
        RESOURCE_KINDS
            .into_iter()
            .filter(move |&k| self.contains(k))
    }
}

impl FromIterator<ResourceKind> for ResourceSet {
    fn from_iter<I: IntoIterator<Item = ResourceKind>>(kinds: I) -> Self {
        let mut set = ResourceSet::default();
        for kind in kinds {
            set.insert(kind);
        }
        set
    }
}

impl fmt::Debug for ResourceSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Why the auto-scaler did (or did not) act.
///
/// Every variant is structured data derived from a decision trace; the
/// prose is produced by the `Display` impl.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Explanation {
    /// Scale-up: a resource bottleneck was detected.
    ScaleUpBottleneck {
        /// The bottlenecked resource.
        resource: ResourceKind,
        /// The §4.2 rule that fired, with its captured bindings.
        rule: RuleFire,
    },
    /// Scale-up by the utilization-only baseline policy, which sees no
    /// wait signals (§7.2's Util).
    UtilScaleUp {
        /// The resource with the highest utilization.
        resource: ResourceKind,
    },
    /// A recommended scale-up was truncated or blocked by the available
    /// budget.
    ScaleUpConstrainedByBudget,
    /// Scale-down: demand is low for the named resources.
    ScaleDownLowDemand {
        /// Resources with low demand.
        resources: ResourceSet,
    },
    /// Scale-down: latency is comfortably within the goal, so a smaller
    /// container suffices even though there is resource demand (§2.3).
    ScaleDownLatencyHeadroom {
        /// Observed latency, ms.
        observed_ms: f64,
        /// Goal, ms.
        goal_ms: f64,
    },
    /// Memory scale-down enabled by a completed balloon probe (§4.3).
    ScaleDownBalloonConfirmed,
    /// Latency is bad but waits are dominated by a non-resource bottleneck
    /// (e.g. application locks) — adding resources will not help (Fig 13).
    NonResourceBottleneck {
        /// Share of waits attributable to locks, %.
        lock_wait_pct: f64,
    },
    /// Latency is bad but no resource shows demand.
    LatencyBadNoDemand,
    /// A balloon probe started to test low memory demand.
    BalloonStarted {
        /// Target memory in MB.
        target_mb: f64,
    },
    /// A balloon probe was aborted because disk I/O rose (working set no
    /// longer fits).
    BalloonAborted,
    /// Within the post-resize cooldown window.
    Cooldown,
    /// Nothing to do.
    NoChange,
}

impl fmt::Display for Explanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Explanation::ScaleUpBottleneck { resource, rule } => {
                write!(
                    f,
                    "Scale-up due to a {resource} bottleneck ({})",
                    rule.render()
                )
            }
            Explanation::UtilScaleUp { resource } => {
                write!(
                    f,
                    "Scale-up due to a {resource} bottleneck \
                     (latency BAD with utilization (no wait signals))"
                )
            }
            Explanation::ScaleUpConstrainedByBudget => {
                write!(f, "Scale-up constrained by budget")
            }
            Explanation::ScaleDownLowDemand { resources } => {
                write!(f, "Scale-down due to low demand for ")?;
                for (i, r) in resources.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{r}")?;
                }
                Ok(())
            }
            Explanation::ScaleDownLatencyHeadroom {
                observed_ms,
                goal_ms,
            } => write!(
                f,
                "Scale-down: latency {observed_ms:.0} ms is well within the {goal_ms:.0} ms goal"
            ),
            Explanation::ScaleDownBalloonConfirmed => {
                write!(f, "Memory scale-down confirmed by ballooning")
            }
            Explanation::NonResourceBottleneck { lock_wait_pct } => write!(
                f,
                "No scale-up: {lock_wait_pct:.0}% of waits are application locks — \
                 more resources will not improve latency"
            ),
            Explanation::LatencyBadNoDemand => {
                write!(
                    f,
                    "No scale-up: latency goal missed but no resource demand detected"
                )
            }
            Explanation::BalloonStarted { target_mb } => {
                write!(
                    f,
                    "Ballooning memory toward {target_mb:.0} MB to probe demand"
                )
            }
            Explanation::BalloonAborted => {
                write!(
                    f,
                    "Balloon aborted: disk I/O rose, working set no longer fits"
                )
            }
            Explanation::Cooldown => write!(f, "No change: within post-resize cooldown"),
            Explanation::NoChange => write!(f, "No change needed"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_match_paper_examples() {
        let e = Explanation::ScaleUpBottleneck {
            resource: ResourceKind::Cpu,
            rule: RuleFire {
                id: crate::rules::RuleId::HighA,
                step: 1,
                bindings: crate::rules::Bindings {
                    util_pct: 85.0,
                    wait_pct: 60.0,
                    corr_threshold: 0.6,
                },
            },
        };
        let s = e.to_string();
        assert!(s.starts_with("Scale-up due to a cpu bottleneck"));
        assert!(s.contains("85% HIGH"), "rendered from bindings: {s}");
        assert_eq!(
            Explanation::ScaleUpConstrainedByBudget.to_string(),
            "Scale-up constrained by budget"
        );
    }

    #[test]
    fn lock_bottleneck_message() {
        let e = Explanation::NonResourceBottleneck {
            lock_wait_pct: 92.4,
        };
        let s = e.to_string();
        assert!(s.contains("92%"));
        assert!(s.contains("locks"));
    }

    #[test]
    fn low_demand_lists_resources() {
        let e = Explanation::ScaleDownLowDemand {
            resources: ResourceSet::from_iter([ResourceKind::Cpu, ResourceKind::DiskIo]),
        };
        let s = e.to_string();
        assert!(s.contains("cpu") && s.contains("disk_io"));
    }

    #[test]
    fn headroom_message_contains_numbers() {
        let e = Explanation::ScaleDownLatencyHeadroom {
            observed_ms: 42.0,
            goal_ms: 485.0,
        };
        let s = e.to_string();
        assert!(s.contains("42") && s.contains("485"));
    }
}
