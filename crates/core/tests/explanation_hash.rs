//! Pins every rendered explanation line of the shared `decision_stream`
//! (100 000 decisions per policy) to an FNV-1a hash, for Auto, Util, a
//! static `Max` pin and a schedule that cycles through the catalog.
//!
//! A change to what a decision explains, or to the order it explains it
//! in, moves a hash. The test uses only `render_explanations`, so it
//! judges any representation of the explanations the same way.

mod common;
mod decision_stream;

use dasr_containers::{Catalog, ContainerId};
use dasr_core::policy::auto::AutoConfig;
use dasr_core::policy::{
    AutoPolicy, PolicyDecision, ScalingPolicy, SchedulePolicy, StaticPolicy, UtilPolicy,
};
use decision_stream::{drive_tenant, DECISIONS_PER_TENANT, TENANTS};

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// Hash of every rendered line of every decision, one `\n` after each
/// line and one `\0` after each decision, plus the decision count.
fn stream_hash<P: ScalingPolicy>(
    catalog: &Catalog,
    policy_for: impl Fn(u64, AutoConfig) -> P,
) -> (u64, u64) {
    let mut hash = FNV_OFFSET;
    let mut decisions = 0u64;
    for tenant in 0..TENANTS {
        drive_tenant(
            catalog,
            tenant,
            |cfg| policy_for(tenant, cfg),
            |d: &PolicyDecision| {
                for line in d.trace.render_explanations() {
                    fnv1a(&mut hash, line.as_bytes());
                    fnv1a(&mut hash, b"\n");
                }
                fnv1a(&mut hash, b"\0");
                decisions += 1;
            },
        );
    }
    (hash, decisions)
}

#[test]
fn rendered_explanations_match_pinned_hashes() {
    let catalog = Catalog::azure_like();
    let ids: Vec<ContainerId> = catalog.iter().map(|c| c.id).collect();
    // Each tenant's schedule starts at its own rung and moves every
    // interval.
    let schedule = |tenant: u64| {
        (tenant..tenant + DECISIONS_PER_TENANT)
            .map(|i| ids[i as usize % ids.len()])
            .collect::<Vec<_>>()
    };
    let measured = [
        ("auto", stream_hash(&catalog, |_, cfg| AutoPolicy::new(cfg))),
        ("util", stream_hash(&catalog, |_, _| UtilPolicy::new())),
        (
            "static",
            stream_hash(&catalog, |_, _| StaticPolicy::max(&catalog)),
        ),
        (
            "schedule",
            stream_hash(&catalog, |tenant, _| SchedulePolicy::new(schedule(tenant))),
        ),
    ];
    // Static and schedule decisions all render "No change needed", so
    // their streams hash alike.
    let pinned = [
        0x32d1_ce7b_c3a9_1fd6,
        0xdada_a69e_552c_6235,
        0x1e18_8146_6bac_2a25,
        0x1e18_8146_6bac_2a25,
    ];
    for ((name, (hash, decisions)), want) in measured.into_iter().zip(pinned) {
        assert_eq!(decisions, TENANTS * DECISIONS_PER_TENANT, "{name}");
        assert_eq!(
            hash, want,
            "{name}: rendered explanations moved ({hash:#018x})"
        );
    }
}
