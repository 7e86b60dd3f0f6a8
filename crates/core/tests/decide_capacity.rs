//! Capacity test for the fixed-size decision trace: over 100 000 seeded
//! `AutoPolicy::decide` calls the gate and explanation lists never
//! outgrow `GATE_CAPACITY` and `EXPLANATION_CAPACITY`, and every trace
//! round-trips through its JSON line.
//!
//! Signals come from the `decision_equivalence` generator; budgets,
//! cooldown histories (interval gaps of 0 to 5, so both cooldowns and
//! re-evaluations of one interval occur), balloon probe states, tenant
//! knobs and the current container are drawn at random. `FixedList::push`
//! debug-asserts its capacity, so in a debug build an overflow fails the
//! test at the push that caused it.

mod common;

use common::{random_latency, random_resource};
use dasr_containers::{Catalog, ContainerId, RESOURCE_KINDS};
use dasr_core::policy::auto::AutoConfig;
use dasr_core::policy::{AutoPolicy, BalloonStatus, PolicyContext, ScalingPolicy};
use dasr_core::trace::{EXPLANATION_CAPACITY, GATE_CAPACITY};
use dasr_core::{tenant_seed, DecisionTrace, PerfSensitivity, RuleId, TenantKnobs};
use dasr_telemetry::{LatencyGoal, SignalSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

const TENANTS: u64 = 400;
const DECISIONS_PER_TENANT: u64 = 250;
const SEED: u64 = 0xCA9A_C17E;

fn random_config(rng: &mut StdRng) -> AutoConfig {
    let mut knobs = TenantKnobs::none().with_sensitivity(match rng.gen_range(0..3u32) {
        0 => PerfSensitivity::High,
        1 => PerfSensitivity::Medium,
        _ => PerfSensitivity::Low,
    });
    if rng.gen_bool(0.8) {
        knobs = knobs.with_latency_goal(LatencyGoal::P95(rng.gen_range(10.0..500.0)));
    }
    AutoConfig {
        balloon_enabled: rng.gen_bool(0.8),
        ..AutoConfig::with_knobs(knobs)
    }
}

fn random_signals(rng: &mut StdRng, interval: u64, capacity_mb: f64) -> SignalSet {
    let latency = random_latency(rng);
    SignalSet {
        interval,
        resources: RESOURCE_KINDS.map(|kind| random_resource(rng, kind)),
        latency,
        lock_wait_pct: rng.gen_range(0.0..100.0),
        mem_used_mb: capacity_mb * rng.gen_range(0.0..1.0),
        mem_capacity_mb: capacity_mb,
        disk_reads_per_sec: rng.gen_range(0.0..500.0),
        completed: rng.gen_range(0..5_000),
    }
}

fn random_probe(rng: &mut StdRng) -> BalloonStatus {
    match rng.gen_range(0..4u32) {
        0 | 1 => BalloonStatus::Inactive,
        2 => BalloonStatus::Active {
            reached_target: false,
        },
        _ => BalloonStatus::Active {
            reached_target: true,
        },
    }
}

/// What one tenant's decisions reached, for the coverage checks.
#[derive(Default)]
struct Reach {
    decisions: u64,
    max_gates: usize,
    max_explanations: usize,
    gates: BTreeSet<RuleId>,
    branches: BTreeSet<RuleId>,
}

impl Reach {
    fn merge(mut self, other: Reach) -> Reach {
        self.decisions += other.decisions;
        self.max_gates = self.max_gates.max(other.max_gates);
        self.max_explanations = self.max_explanations.max(other.max_explanations);
        self.gates.extend(other.gates);
        self.branches.extend(other.branches);
        self
    }
}

/// Drives one seeded tenant through `DECISIONS_PER_TENANT` decisions,
/// checking every trace.
fn drive_tenant(catalog: &Catalog, tenant: u64) -> Reach {
    let containers: Vec<ContainerId> = catalog.iter().map(|c| c.id).collect();
    let mut rng = StdRng::seed_from_u64(tenant_seed(SEED, tenant));
    let mut policy = AutoPolicy::new(random_config(&mut rng));
    let mut current = containers[rng.gen_range(0..containers.len())];
    let mut interval = 0u64;
    let mut reach = Reach::default();
    for _ in 0..DECISIONS_PER_TENANT {
        interval += [0, 1, 1, 1, 2, 5][rng.gen_range(0..6)];
        let container = catalog.get(current).expect("catalog id");
        let signals = random_signals(&mut rng, interval, container.resources.memory_mb);
        let budget = rng
            .gen_bool(0.5)
            .then(|| rng.gen_range(0.0..1.5 * catalog.max_cost()));
        let d = policy.decide(&PolicyContext {
            signals: &signals,
            current: container,
            catalog,
            available_budget: budget,
            balloon: random_probe(&mut rng),
        });
        let t = &d.trace;
        assert!(t.gates.len() <= GATE_CAPACITY, "{t:?}");
        assert!(t.explanations.len() <= EXPLANATION_CAPACITY, "{t:?}");
        let line = t.to_json_line();
        let back = DecisionTrace::from_json_line(&line)
            .unwrap_or_else(|e| panic!("tenant {tenant}: {e}\n{line}"));
        assert_eq!(&back, t, "tenant {tenant}: the trace does not round-trip");

        reach.decisions += 1;
        reach.max_gates = reach.max_gates.max(t.gates.len());
        reach.max_explanations = reach.max_explanations.max(t.explanations.len());
        reach.gates.extend(t.gates.iter().copied());
        reach.branches.insert(t.branch);
        // Mostly follow the decision; sometimes jump, as a forced
        // migration or a fresh tenant placement would.
        current = if rng.gen_bool(0.8) {
            d.target
        } else {
            containers[rng.gen_range(0..containers.len())]
        };
    }
    reach
}

#[test]
fn decide_stays_within_trace_capacities_and_round_trips() {
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
                        .map(|t| drive_tenant(catalog, t))
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
    // The generator must reach every branch and every gate, or the bounds
    // above test little.
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
    // The gate bound is tight; the explanation bound is reached but for
    // its last slot (four bottlenecks, two budget notes and a balloon
    // note in one decision are possible, but rare).
    assert_eq!(reach.max_gates, GATE_CAPACITY);
    assert!(
        reach.max_explanations >= EXPLANATION_CAPACITY - 1,
        "at most {} explanations",
        reach.max_explanations
    );
}
