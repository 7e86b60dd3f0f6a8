//! The seeded decision stream shared by `decide_capacity` and
//! `explanation_hash`: 400 tenants × 250 decisions whose signals come from
//! the `common` generator, and whose budgets, cooldown histories (interval
//! gaps of 0 to 5, so both cooldowns and re-evaluations of one interval
//! occur), balloon probe states, tenant knobs and current container are
//! drawn at random.
//!
//! The random draws do not depend on what the policy decides, so every
//! policy driven over one tenant sees the same stream of draws.

use crate::common::{random_latency, random_resource};
use dasr_containers::{Catalog, ContainerId, RESOURCE_KINDS};
use dasr_core::policy::auto::AutoConfig;
use dasr_core::policy::{BalloonStatus, PolicyContext, PolicyDecision, ScalingPolicy};
use dasr_core::{tenant_seed, PerfSensitivity, TenantKnobs};
use dasr_telemetry::{LatencyGoal, SignalSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tenants in the stream.
pub const TENANTS: u64 = 400;
/// Decisions per tenant.
pub const DECISIONS_PER_TENANT: u64 = 250;
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

/// Drives one seeded tenant through `DECISIONS_PER_TENANT` decisions of
/// the policy `policy_for` builds from the tenant's drawn Auto config,
/// handing every decision to `visit`.
pub fn drive_tenant<P: ScalingPolicy>(
    catalog: &Catalog,
    tenant: u64,
    policy_for: impl FnOnce(AutoConfig) -> P,
    mut visit: impl FnMut(&PolicyDecision),
) {
    let containers: Vec<ContainerId> = catalog.iter().map(|c| c.id).collect();
    let mut rng = StdRng::seed_from_u64(tenant_seed(SEED, tenant));
    let mut policy = policy_for(random_config(&mut rng));
    let mut current = containers[rng.gen_range(0..containers.len())];
    let mut interval = 0u64;
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
        visit(&d);
        // Mostly follow the decision; sometimes jump, as a forced
        // migration or a fresh tenant placement would.
        current = if rng.gen_bool(0.8) {
            d.target
        } else {
            containers[rng.gen_range(0..containers.len())]
        };
    }
}
