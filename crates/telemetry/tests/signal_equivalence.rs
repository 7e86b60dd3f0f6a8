//! Property test: the [`SignalSet`] `TelemetryManager::observe` returns from
//! its sliding kernels equals, field by field and float by bits, the one
//! assembled from the batch kernels (`trend_indexed_in`, `spearman_in`,
//! `median_in`) over the tails of every sample observed so far.
//!
//! Why it exists: no other test checks what the sliding kernels compute.
//! The core crate's pinned hashes (`loop_hash`, `explanation_hash`) see a
//! signals change only as a moved hash, without saying which signal moved
//! or whether the old value was right. This test and the end-to-end
//! benchmark's digests are the only guards on the sliding kernels.

use dasr_containers::{Catalog, ResourceKind, RESOURCE_KINDS};
use dasr_engine::{WaitClass, WAIT_CLASSES};
use dasr_fleet::{TenantPopulation, WaitModel};
use dasr_stats::{median_in, spearman_in, SpearmanScratch, TheilSen, Trend, TrendScratch};
use dasr_telemetry::categorize::{
    categorize_latency, categorize_util, categorize_wait_ms, categorize_wait_pct,
};
use dasr_telemetry::manager::{THRESHOLDS, TREND_MIN_RELATIVE_CHANGE};
use dasr_telemetry::signals::wait_class_for;
use dasr_telemetry::{
    LatencyGoal, LatencySignals, ResourceSignals, SignalSet, TelemetryConfig, TelemetryManager,
    TelemetrySample, CORR_WINDOW, SMOOTHING_WINDOW, TREND_WINDOW,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The batch reference: every signal recomputed from scratch over the
/// history, as §3 states them.
struct BatchSignals {
    cfg: TelemetryConfig,
    history: Vec<TelemetrySample>,
    kernels: BatchKernels,
}

/// One channel over the last `n` samples of `history`, oldest first.
fn series(
    history: &[TelemetrySample],
    n: usize,
    value: impl Fn(&TelemetrySample) -> f64,
) -> Vec<f64> {
    history[history.len() - n.min(history.len())..]
        .iter()
        .map(value)
        .collect()
}

fn latency_of(sample: &TelemetrySample) -> f64 {
    sample.latency_ms.unwrap_or(f64::NAN)
}

struct BatchKernels {
    estimator: TheilSen,
    median: Vec<f64>,
    spearman: SpearmanScratch,
    trend: TrendScratch,
}

impl BatchKernels {
    fn median(&mut self, series: &[f64]) -> Option<f64> {
        median_in(series, &mut self.median)
    }

    fn material_trend(&mut self, series: &[f64]) -> Trend {
        let trend = self.estimator.trend_indexed_in(series, &mut self.trend);
        if let Trend::Significant { slope, .. } = trend {
            let level = self.median(series).unwrap_or(0.0).abs();
            let projected = slope.abs() * series.len().saturating_sub(1) as f64;
            if projected < TREND_MIN_RELATIVE_CHANGE * level {
                return Trend::None;
            }
        }
        trend
    }
}

impl BatchSignals {
    fn new(cfg: TelemetryConfig) -> Self {
        Self {
            history: Vec::new(),
            kernels: BatchKernels {
                estimator: TheilSen::new().with_alpha(cfg.trend_alpha),
                median: Vec::new(),
                spearman: SpearmanScratch::default(),
                trend: TrendScratch::default(),
            },
            cfg,
        }
    }

    fn observe(&mut self, sample: TelemetrySample) -> SignalSet {
        let Self {
            cfg,
            history,
            kernels,
        } = self;
        history.push(sample);
        let h = &history[..];
        let (smoothing, trend, corr) = (SMOOTHING_WINDOW, TREND_WINDOW, CORR_WINDOW);
        let latency = series(h, corr, latency_of);

        let resources = RESOURCE_KINDS.map(|kind| {
            let class = wait_class_for(kind);
            let thresholds = THRESHOLDS.waits_for(kind);
            let util = |s: &TelemetrySample| s.util(kind);
            let wait = |s: &TelemetrySample| s.wait_per_request(class);
            let util_pct = kernels.median(&series(h, smoothing, util)).unwrap_or(0.0);
            let wait_ms = kernels.median(&series(h, smoothing, wait)).unwrap_or(0.0);
            let wait_pct = kernels
                .median(&series(h, smoothing, |s| s.wait_pct(class)))
                .unwrap_or(0.0);
            ResourceSignals {
                kind,
                util_pct,
                util_level: categorize_util(&THRESHOLDS, util_pct),
                wait_ms,
                wait_level: categorize_wait_ms(thresholds, wait_ms),
                wait_pct,
                wait_pct_level: categorize_wait_pct(thresholds, wait_pct),
                util_trend: kernels.material_trend(&series(h, trend, util)),
                wait_trend: kernels.material_trend(&series(h, trend, wait)),
                corr_latency_wait: spearman_in(
                    &latency,
                    &series(h, corr, wait),
                    &mut kernels.spearman,
                ),
                corr_latency_util: spearman_in(
                    &latency,
                    &series(h, corr, util),
                    &mut kernels.spearman,
                ),
            }
        });
        let observed_ms = kernels
            .median(&series(h, smoothing, latency_of))
            .or(sample.latency_ms);
        let goal_ms = cfg.latency_goal.map(|g| g.target_ms());
        SignalSet {
            interval: sample.interval,
            resources,
            latency: LatencySignals {
                observed_ms,
                goal_ms,
                verdict: categorize_latency(observed_ms, goal_ms),
                trend: kernels.material_trend(&series(h, trend, latency_of)),
            },
            lock_wait_pct: kernels
                .median(&series(h, smoothing, |s| s.wait_pct(WaitClass::Lock)))
                .unwrap_or(0.0),
            mem_used_mb: sample.mem_used_mb,
            mem_capacity_mb: sample.mem_capacity_mb,
            disk_reads_per_sec: sample.disk_reads_per_sec,
            completed: sample.completed,
        }
    }
}

/// Every float-bearing field of a signal set, by owner and name, as bits:
/// `==` on floats would let `-0.0` pass for `0.0` and fail NaN against
/// itself.
fn float_fields(set: &SignalSet) -> Vec<(Option<ResourceKind>, &'static str, [u64; 3])> {
    let num = |x: f64| [1, x.to_bits(), 0];
    let opt = |x: Option<f64>| x.map_or([0; 3], num);
    let trend = |t: Trend| match t {
        Trend::None => [0; 3],
        Trend::Significant {
            slope, agreement, ..
        } => [
            1 + t.is_increasing() as u64,
            slope.to_bits(),
            agreement.to_bits(),
        ],
    };
    let mut out = Vec::new();
    for r in &set.resources {
        for (name, value) in [
            ("util_pct", num(r.util_pct)),
            ("wait_ms", num(r.wait_ms)),
            ("wait_pct", num(r.wait_pct)),
            ("util_trend", trend(r.util_trend)),
            ("wait_trend", trend(r.wait_trend)),
            ("corr_latency_wait", opt(r.corr_latency_wait)),
            ("corr_latency_util", opt(r.corr_latency_util)),
        ] {
            out.push((Some(r.kind), name, value));
        }
    }
    for (name, value) in [
        ("latency.observed_ms", opt(set.latency.observed_ms)),
        ("latency.goal_ms", opt(set.latency.goal_ms)),
        ("latency.trend", trend(set.latency.trend)),
        ("lock_wait_pct", num(set.lock_wait_pct)),
        ("mem_used_mb", num(set.mem_used_mb)),
        ("mem_capacity_mb", num(set.mem_capacity_mb)),
        ("disk_reads_per_sec", num(set.disk_reads_per_sec)),
    ] {
        out.push((None, name, value));
    }
    out
}

/// Field-by-field equality of two signal sets.
fn assert_same(sliding: &SignalSet, batch: &SignalSet) {
    let at = batch.interval;
    for (s, b) in float_fields(sliding).iter().zip(&float_fields(batch)) {
        assert_eq!(s, b, "at interval {at}");
    }
    for (s, b) in sliding.resources.iter().zip(&batch.resources) {
        assert_eq!(
            (s.kind, s.categories()),
            (b.kind, b.categories()),
            "at interval {at}"
        );
    }
    assert_eq!(
        sliding.latency.verdict, batch.latency.verdict,
        "at interval {at}"
    );
    assert_eq!(
        (sliding.interval, sliding.completed),
        (batch.interval, batch.completed)
    );
}

/// Replays `samples` through both pipelines, comparing after every sample.
fn assert_equivalent(cfg: TelemetryConfig, samples: &[TelemetrySample]) {
    let mut sliding = TelemetryManager::new(cfg);
    let mut batch = BatchSignals::new(cfg);
    let mut expect = None;
    for sample in samples {
        let set = batch.observe(*sample);
        assert_same(&sliding.observe(*sample), &set);
        expect = Some(set);
    }
    // `signals()` re-reads the carried state without moving it.
    let expect = expect.expect("at least one sample");
    assert_same(&sliding.signals(), &expect);
    assert_same(&sliding.signals(), &expect);
}

/// The configurations under test: the default, no latency goal, and a
/// looser trend acceptance threshold. The window lengths are constants;
/// `dasr-stats`' property tests check the sliding kernels against batch at
/// arbitrary windows.
fn config(variant: usize) -> TelemetryConfig {
    let base = TelemetryConfig {
        latency_goal: Some(LatencyGoal::P95(100.0)),
        ..TelemetryConfig::default()
    };
    match variant {
        0 => base,
        1 => TelemetryConfig {
            latency_goal: None,
            ..base
        },
        _ => TelemetryConfig {
            trend_alpha: 0.55,
            ..base
        },
    }
}

/// One drawn channel value: mostly continuous, often quantised (ties), 2 %
/// spikes, and — when `hostile` — NaN, ±∞ and magnitudes whose pairwise
/// differences overflow.
fn channel(rng: &mut StdRng, hostile: bool) -> f64 {
    let roll = rng.gen_range(0..100);
    match roll {
        0..=1 => rng.gen_range(1.0e4..1.0e7),
        2 if hostile => f64::NAN,
        3 if hostile => [f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..2)],
        4..=6 if hostile => [1.0e308, -1.0e308, 1.2e308][rng.gen_range(0..3)],
        7..=40 => rng.gen_range(0..6) as f64 * 12.5,
        _ => rng.gen_range(0.0..100.0),
    }
}

fn drawn_stream(seed: u64, len: usize, hostile: bool, idle_pct: u32) -> Vec<TelemetrySample> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len as u64)
        .map(|interval| {
            let idle = rng.gen_range(0..100) < idle_pct;
            let latency = (!idle).then(|| channel(&mut rng, hostile));
            TelemetrySample {
                interval,
                util_pct: std::array::from_fn(|_| channel(&mut rng, hostile)),
                wait_ms: std::array::from_fn(|_| channel(&mut rng, hostile)),
                latency_ms: latency,
                avg_latency_ms: latency,
                completed: if idle { 0 } else { rng.gen_range(1..5_000) },
                arrivals: 0,
                rejected: 0,
                mem_used_mb: 500.0,
                mem_capacity_mb: 1_000.0,
                disk_reads_per_sec: 10.0,
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Drawn streams: ties, spikes, idle intervals (`latency_ms: None`,
    /// from none of them to all of them) and, in half the cases, non-finite
    /// and overflowing values entering and leaving every window.
    #[test]
    fn observe_equals_batch_assembly(
        seed in 0u64..u64::MAX,
        variant in 0usize..3,
        len in 1usize..160,
        hostile in any::<bool>(),
        idle_pct in (0usize..4).prop_map(|i| [0u32, 5, 40, 100][i]),
    ) {
        assert_equivalent(config(variant), &drawn_stream(seed, len, hostile, idle_pct));
    }
}

/// A tenant-day as the end-to-end benchmark's `control_replay` pool draws
/// it: a `dasr_fleet` tenant's 5-minute demand held per minute against the
/// container covering its median demand (so bursts saturate at 100 % —
/// ties), `WaitModel` waits at that utilisation, latency from pressure, and
/// 2 % of samples contaminated by a 10–50× spike.
fn fleet_tenant_day(population: &TenantPopulation, tenant: usize) -> Vec<TelemetrySample> {
    let demand = &population.tenants[tenant].intervals;
    let minutes = demand.len() * 5;
    let mut rng = StdRng::seed_from_u64(0x9001 ^ tenant as u64);
    let mut models = RESOURCE_KINDS.map(|kind| WaitModel::new(kind, tenant as u64));
    let mut by_cpu = demand.clone();
    by_cpu.sort_by(|a, b| a.cpu_cores.total_cmp(&b.cpu_cores));
    let catalog = Catalog::azure_like();
    let nominal = catalog
        .assign_for_utilization(&by_cpu[by_cpu.len() / 2])
        .resources;
    (0..minutes)
        .map(|m| {
            let demand = &demand[m / 5];
            let mut util_pct = [0.0; RESOURCE_KINDS.len()];
            let mut wait_ms = [0.0; WAIT_CLASSES.len()];
            for kind in RESOURCE_KINDS {
                let util = demand[kind] / nominal[kind] * 100.0 * rng.gen_range(0.9..1.1);
                util_pct[kind.index()] = util.min(100.0);
                wait_ms[wait_class_for(kind).index()] =
                    models[kind.index()].sample_at(util.min(100.0)).wait_ms;
            }
            wait_ms[WaitClass::Lock.index()] = rng.gen_range(0.0..5.0);
            let hottest = util_pct.iter().copied().fold(0.0, f64::max);
            let pressure = ((hottest - 60.0) / 40.0).max(0.0);
            let mut latency = 40.0 * (1.0 + 6.0 * pressure * pressure) * rng.gen_range(0.8..1.25);
            if rng.gen_bool(0.02) {
                let spike = rng.gen_range(10.0..50.0);
                latency *= spike;
                wait_ms.iter_mut().for_each(|w| *w *= spike);
            }
            let requests = (demand.cpu_cores * 180.0).round() as u64;
            TelemetrySample {
                interval: m as u64,
                util_pct,
                wait_ms,
                latency_ms: (requests > 0).then_some(latency),
                avg_latency_ms: (requests > 0).then_some(latency * 0.6),
                completed: requests,
                arrivals: requests,
                rejected: 0,
                mem_used_mb: demand.memory_mb.min(nominal.memory_mb),
                mem_capacity_mb: nominal.memory_mb,
                disk_reads_per_sec: demand[ResourceKind::DiskIo] * 0.5,
            }
        })
        .collect()
}

/// Fleet-synthesised tenant-days, 1440 intervals each, under the default
/// configuration with the goals `control_replay` cycles through.
fn replay_fleet_tenants(tenants: std::ops::Range<usize>) {
    let population = TenantPopulation::generate_with_len(tenants.end, 288, 2);
    for tenant in tenants {
        let goal = [
            LatencyGoal::P95(100.0),
            LatencyGoal::P95(400.0),
            LatencyGoal::Average(150.0),
        ][tenant % 3];
        let cfg = TelemetryConfig {
            latency_goal: Some(goal),
            ..TelemetryConfig::default()
        };
        assert_equivalent(cfg, &fleet_tenant_day(&population, tenant));
    }
}

/// 64 tenant-days in all, as two tests so that they run side by side.
#[test]
fn fleet_tenant_days_replay_identically_first_half() {
    replay_fleet_tenants(0..32);
}

#[test]
fn fleet_tenant_days_replay_identically_second_half() {
    replay_fleet_tenants(32..64);
}
