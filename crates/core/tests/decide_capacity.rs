//! Reach test for the decision trace: 100 000 seeded `AutoPolicy::decide`
//! calls from the shared `decision_stream` reach every §6 branch and every
//! gate, and every trace's JSON line is one line, pinned to an FNV-1a hash
//! the way `explanation_hash` pins rendered explanations.

mod common;
mod decision_stream;

use dasr_containers::Catalog;
use dasr_core::policy::AutoPolicy;
use dasr_core::rules::RuleSet;
use dasr_core::RuleId;
use decision_stream::{drive_tenant, DECISIONS_PER_TENANT, TENANTS};

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Hash of every trace line of the Auto stream: each tenant's lines are
/// hashed with one `\n` after each, and the per-tenant hashes are folded
/// in tenant order.
const PINNED_TRACE_LINES: u64 = 0x4bd7_d192_0074_9f0d;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

#[test]
fn decide_reaches_every_branch_and_gate() {
    let catalog = Catalog::azure_like();
    let mut decisions = 0u64;
    let mut branches = RuleSet::new();
    let mut gates = RuleSet::new();
    let mut lines = FNV_OFFSET;
    for tenant in 0..TENANTS {
        let mut tenant_lines = FNV_OFFSET;
        drive_tenant(&catalog, tenant, AutoPolicy::new, |d| {
            let t = &d.trace;
            let line = t.to_json_line();
            assert!(!line.contains('\n'), "tenant {tenant}: {line}");
            fnv1a(&mut tenant_lines, line.as_bytes());
            fnv1a(&mut tenant_lines, b"\n");
            decisions += 1;
            branches.insert(t.branch);
            gates = gates.union(t.gates);
        });
        fnv1a(&mut lines, &tenant_lines.to_le_bytes());
    }

    assert_eq!(decisions, TENANTS * DECISIONS_PER_TENANT);
    // The generator must reach every branch and every gate, or the pinned
    // hash below covers little of the encoder.
    assert_eq!(branches.len(), 6, "branches reached: {branches:?}");
    for gate in [
        RuleId::EmergencyBypass,
        RuleId::BudgetConstrained,
        RuleId::BudgetForcedDowngrade,
        RuleId::LatencyHeadroom,
        RuleId::BalloonStart,
        RuleId::BalloonAbort,
        RuleId::BalloonConfirmedShrink,
    ] {
        assert!(gates.contains(gate), "gate {gate} never engaged");
    }
    assert_eq!(
        lines, PINNED_TRACE_LINES,
        "trace JSON lines moved ({lines:#018x})"
    );
}
