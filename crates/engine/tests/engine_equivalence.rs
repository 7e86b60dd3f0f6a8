//! Property tests: the fast-path [`Engine`] (generational slab, arrival
//! lane beside the event heap, allocation-free dispatch) produces
//! **bit-identical** telemetry to [`OracleEngine`], the preserved
//! pre-fast-path implementation (`HashMap` request tables + one
//! `BinaryHeap` holding arrivals and events alike).
//!
//! Every comparison is exact (`IntervalStats: PartialEq` compares `f64`
//! fields bitwise via `==`): latencies, wait totals, utilization
//! percentages, counters. Randomized request mixes run through both
//! engines at several container sizes, across multiple interval
//! boundaries, under mid-run resizes and balloon operations, and in
//! `SimulatorSource`'s shape of submit batches interleaved with
//! `run_until`.

use dasr_containers::ResourceVector;
use dasr_engine::bufferpool::CHUNK;
use dasr_engine::oracle::OracleEngine;
use dasr_engine::request::{Op, RequestSpec};
use dasr_engine::{Engine, EngineConfig, IntervalStats, SimTime};
use proptest::prelude::*;

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..20_000).prop_map(|us| Op::CpuBurst { us }),
        (0u64..2_000, any::<bool>()).prop_map(|(page, write)| Op::PageAccess { page, write }),
        (1u32..8_192).prop_map(|bytes| Op::LogWrite { bytes }),
        (0u32..4, any::<bool>()).prop_map(|(lock, exclusive)| Op::LockAcquire { lock, exclusive }),
        (1u32..32).prop_map(|mb| Op::MemoryGrant { mb }),
        (1u64..5_000).prop_map(|us| Op::Think { us }),
    ]
}

/// Random op sequences bent to the engine's deadlock-avoidance discipline
/// (locks in increasing id order, grants before locks) — same generator as
/// `tests/invariants.rs`.
fn arb_spec() -> impl Strategy<Value = RequestSpec> {
    prop::collection::vec(arb_op(), 1..10).prop_map(disciplined)
}

/// Bends `ops` to the deadlock-avoidance discipline.
fn disciplined(mut ops: Vec<Op>) -> RequestSpec {
    let mut lock_ids: Vec<u32> = ops
        .iter()
        .filter_map(|op| match op {
            Op::LockAcquire { lock, .. } => Some(*lock),
            _ => None,
        })
        .collect();
    lock_ids.sort_unstable();
    lock_ids.dedup();
    let mut next = 0;
    let mut seen = std::collections::HashSet::new();
    for op in ops.iter_mut() {
        if let Op::LockAcquire { lock, .. } = op {
            while next < lock_ids.len() && seen.contains(&lock_ids[next]) {
                next += 1;
            }
            if next < lock_ids.len() {
                *lock = lock_ids[next];
                seen.insert(lock_ids[next]);
            }
        }
    }
    ops.sort_by_key(|op| !matches!(op, Op::MemoryGrant { .. }));
    RequestSpec::new(ops)
}

/// Arrival and duration grid of the lane test, in µs: the disk's 500 µs
/// base latency is on it, so completions land on arrival times often.
const GRID_US: u64 = 500;
/// One submit batch spans this many grid steps (60 ms).
const BATCH_SLOTS: u64 = 120;

/// Ops with CPU bursts and think times on the grid and page ids over six
/// buffer-pool chunks plus a few sparse ones.
fn arb_grid_op() -> impl Strategy<Value = Op> {
    let pages = 6 * CHUNK as u64;
    prop_oneof![
        (1u64..20).prop_map(|k| Op::CpuBurst { us: k * GRID_US }),
        (0u64..pages, any::<bool>()).prop_map(|(page, write)| Op::PageAccess { page, write }),
        (0u64..8, any::<bool>()).prop_map(|(k, write)| Op::PageAccess {
            page: k << 30,
            write
        }),
        (1u32..8_192).prop_map(|bytes| Op::LogWrite { bytes }),
        (0u32..4, any::<bool>()).prop_map(|(lock, exclusive)| Op::LockAcquire { lock, exclusive }),
        (1u32..32).prop_map(|mb| Op::MemoryGrant { mb }),
        (1u64..20).prop_map(|k| Op::Think { us: k * GRID_US }),
    ]
}

fn arb_grid_spec() -> impl Strategy<Value = RequestSpec> {
    prop::collection::vec(arb_grid_op(), 1..10).prop_map(disciplined)
}

/// A handful of container shapes from tiny (memory-starved, low IOPS) to
/// large, exercising admission control, eviction, and governor throttling
/// differently.
fn arb_container() -> impl Strategy<Value = ResourceVector> {
    prop_oneof![
        (0usize..1).prop_map(|_| ResourceVector::new(0.5, 8.0, 100.0, 5.0)),
        (0usize..1).prop_map(|_| ResourceVector::new(1.0, 64.0, 200.0, 10.0)),
        (0usize..1).prop_map(|_| ResourceVector::new(2.0, 256.0, 400.0, 20.0)),
        (0usize..1).prop_map(|_| ResourceVector::new(8.0, 1_024.0, 1_600.0, 80.0)),
    ]
}

/// Asserts both engines report bit-identical interval telemetry.
fn assert_intervals_equal(fast: &mut Engine, oracle: &mut OracleEngine) -> IntervalStats {
    let a = fast.end_interval();
    let b = oracle.end_interval();
    assert_eq!(a, b, "fast engine and oracle telemetry diverged");
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random mixes at random container sizes: telemetry is bit-identical
    /// across several interval boundaries and after the full drain.
    #[test]
    fn random_mixes_are_bit_identical(
        specs in prop::collection::vec(arb_spec(), 1..50),
        container in arb_container(),
        prewarm_pages in 0u64..2_000,
    ) {
        let cfg = EngineConfig::default();
        let mut fast = Engine::new(cfg, container);
        let mut oracle = OracleEngine::new(cfg, container);
        fast.prewarm(prewarm_pages);
        oracle.prewarm(prewarm_pages);
        for (i, spec) in specs.iter().enumerate() {
            let at = SimTime::from_micros(i as u64 * 811);
            fast.submit_at(at, spec.clone());
            oracle.submit_at(at, spec.clone());
        }
        // Several interval boundaries while work is in flight…
        for ms in [7u64, 40, 250] {
            fast.run_until(SimTime::from_millis(ms));
            oracle.run_until(SimTime::from_millis(ms));
            let s = assert_intervals_equal(&mut fast, &mut oracle);
            prop_assert!(s.end == SimTime::from_millis(ms));
        }
        // …then the full drain.
        fast.run_until(SimTime::from_secs(600));
        oracle.run_until(SimTime::from_secs(600));
        let s = assert_intervals_equal(&mut fast, &mut oracle);
        prop_assert_eq!(s.outstanding, 0, "everything must drain");
        prop_assert_eq!(fast.outstanding(), oracle.outstanding());
    }

    /// Mid-run resizes (up, down, or both) leave the engines in lockstep:
    /// governor re-rating, pool eviction, and writeback accounting match.
    #[test]
    fn mid_run_resizes_stay_bit_identical(
        specs in prop::collection::vec(arb_spec(), 1..40),
        up in any::<bool>(),
        resize_ms in 1u64..200,
    ) {
        let cfg = EngineConfig::default();
        let start = ResourceVector::new(2.0, 256.0, 400.0, 20.0);
        let mut fast = Engine::new(cfg, start);
        let mut oracle = OracleEngine::new(cfg, start);
        for (i, spec) in specs.iter().enumerate() {
            let at = SimTime::from_micros(i as u64 * 499);
            fast.submit_at(at, spec.clone());
            oracle.submit_at(at, spec.clone());
        }
        let t1 = SimTime::from_millis(resize_ms);
        fast.run_until(t1);
        oracle.run_until(t1);
        let target = if up {
            ResourceVector::new(16.0, 4_096.0, 3_200.0, 160.0)
        } else {
            ResourceVector::new(0.5, 16.0, 100.0, 5.0)
        };
        fast.apply_resources(target);
        oracle.apply_resources(target);
        assert_intervals_equal(&mut fast, &mut oracle);
        // Resize back mid-flight, then drain.
        let t2 = t1 + 50_000;
        fast.run_until(t2);
        oracle.run_until(t2);
        fast.apply_resources(start);
        oracle.apply_resources(start);
        fast.run_until(SimTime::from_secs(600));
        oracle.run_until(SimTime::from_secs(600));
        let s = assert_intervals_equal(&mut fast, &mut oracle);
        prop_assert_eq!(s.outstanding, 0);
    }

    /// Ballooning (start, step, abort-or-commit) under load matches the
    /// oracle exactly, including eviction writeback counts.
    #[test]
    fn balloon_lifecycle_stays_bit_identical(
        specs in prop::collection::vec(arb_spec(), 1..30),
        target_mb in 4.0f64..64.0,
        commit in any::<bool>(),
    ) {
        let cfg = EngineConfig::default();
        let container = ResourceVector::new(2.0, 256.0, 400.0, 20.0);
        let mut fast = Engine::new(cfg, container);
        let mut oracle = OracleEngine::new(cfg, container);
        fast.prewarm(20_000);
        oracle.prewarm(20_000);
        for (i, spec) in specs.iter().enumerate() {
            let at = SimTime::from_micros(i as u64 * 613);
            fast.submit_at(at, spec.clone());
            oracle.submit_at(at, spec.clone());
        }
        fast.start_balloon(target_mb);
        oracle.start_balloon(target_mb);
        fast.run_until(SimTime::from_secs(2));
        oracle.run_until(SimTime::from_secs(2));
        prop_assert_eq!(fast.balloon_active(), oracle.balloon_active());
        if commit {
            fast.commit_balloon();
            oracle.commit_balloon();
        } else {
            fast.abort_balloon();
            oracle.abort_balloon();
        }
        fast.run_until(SimTime::from_secs(600));
        oracle.run_until(SimTime::from_secs(600));
        let s = assert_intervals_equal(&mut fast, &mut oracle);
        prop_assert_eq!(s.outstanding, 0);
    }

    /// The arrival lane merged with the event heap, fed in
    /// `SimulatorSource`'s shape: submit batches interleaved with
    /// `run_until` and `end_interval`, arrival times on a coarse grid so
    /// they tie with completions queued both before and after the batch,
    /// one submit per batch earlier than the lane's last, a small
    /// `max_outstanding` so arrivals are rejected, and pages over several
    /// buffer-pool chunks.
    #[test]
    fn lane_batches_with_ties_and_rejections_are_bit_identical(
        batches in prop::collection::vec(
            (prop::collection::vec((0u64..BATCH_SLOTS, arb_grid_spec()), 2..12), 0usize..16),
            1..8,
        ),
        max_outstanding in 2usize..8,
        prewarm_pages in 0u64..3 * CHUNK as u64,
    ) {
        let cfg = EngineConfig { max_outstanding };
        let container = ResourceVector::new(1.0, 8.0, 200.0, 10.0);
        let mut fast = Engine::new(cfg, container);
        let mut oracle = OracleEngine::new(cfg, container);
        fast.prewarm(prewarm_pages);
        oracle.prewarm(prewarm_pages);
        let batch_us = BATCH_SLOTS * GRID_US;
        for (k, (mut arrivals, late)) in batches.into_iter().enumerate() {
            let start = k as u64 * batch_us;
            // Time order, except one arrival submitted last although it
            // is not the latest.
            arrivals.sort_by_key(|&(slot, _)| slot);
            let late = arrivals.remove(late % (arrivals.len() - 1));
            arrivals.push(late);
            for (slot, spec) in arrivals {
                let at = SimTime::from_micros(start + slot * GRID_US);
                fast.submit_at(at, spec.clone());
                oracle.submit_at(at, spec);
            }
            for end in [start + batch_us / 2, start + batch_us] {
                fast.run_until(SimTime::from_micros(end));
                oracle.run_until(SimTime::from_micros(end));
                assert_intervals_equal(&mut fast, &mut oracle);
            }
        }
        fast.run_until(SimTime::from_secs(600));
        oracle.run_until(SimTime::from_secs(600));
        let s = assert_intervals_equal(&mut fast, &mut oracle);
        prop_assert_eq!(s.outstanding, 0);
        prop_assert_eq!(fast.outstanding(), oracle.outstanding());
    }
}
