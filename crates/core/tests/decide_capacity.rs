//! Reach test for the decision trace: 100 000 seeded `AutoPolicy::decide`
//! calls from the shared `decision_stream` reach every §6 branch and every
//! gate, and every trace round-trips through its JSON line.

mod common;
mod decision_stream;

use dasr_containers::Catalog;
use dasr_core::policy::AutoPolicy;
use dasr_core::{DecisionTrace, RuleId};
use decision_stream::{drive_tenant, TENANTS};
use std::collections::BTreeSet;

/// What one tenant's decisions reached, for the coverage checks.
#[derive(Default)]
struct Reach {
    decisions: u64,
    gates: BTreeSet<RuleId>,
    branches: BTreeSet<RuleId>,
}

impl Reach {
    fn merge(mut self, other: Reach) -> Reach {
        self.decisions += other.decisions;
        self.gates.extend(other.gates);
        self.branches.extend(other.branches);
        self
    }
}

/// Drives one seeded tenant's Auto decisions, checking every trace.
fn drive(catalog: &Catalog, tenant: u64) -> Reach {
    let mut reach = Reach::default();
    drive_tenant(catalog, tenant, AutoPolicy::new, |d| {
        let t = &d.trace;
        let line = t.to_json_line();
        let back = DecisionTrace::from_json_line(&line)
            .unwrap_or_else(|e| panic!("tenant {tenant}: {e}\n{line}"));
        assert_eq!(&back, t, "tenant {tenant}: the trace does not round-trip");

        reach.decisions += 1;
        reach.gates.extend(t.gates.iter());
        reach.branches.insert(t.branch);
    });
    reach
}

#[test]
fn decide_reaches_every_branch_and_gate_and_round_trips() {
    let catalog = Catalog::azure_like();
    // Two workers over interleaved tenants: an unoptimised JSON round trip
    // costs ~0.2 ms, and every tenant is seeded on its own.
    let reach = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|w| {
                let catalog = &catalog;
                s.spawn(move || {
                    (w..TENANTS)
                        .step_by(2)
                        .map(|t| drive(catalog, t))
                        .fold(Reach::default(), Reach::merge)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .fold(Reach::default(), Reach::merge)
    });

    assert!(reach.decisions >= 100_000);
    // The generator must reach every branch and every gate, or the round
    // trip above tests little.
    assert_eq!(
        reach.branches.len(),
        6,
        "branches reached: {:?}",
        reach.branches
    );
    for gate in [
        RuleId::EmergencyBypass,
        RuleId::BudgetConstrained,
        RuleId::BudgetForcedDowngrade,
        RuleId::LatencyHeadroom,
        RuleId::BalloonStart,
        RuleId::BalloonAbort,
        RuleId::BalloonConfirmedShrink,
    ] {
        assert!(reach.gates.contains(&gate), "gate {gate} never engaged");
    }
}
