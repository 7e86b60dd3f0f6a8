//! Seeded input synthesis: every workload's inputs are a pure function of
//! `--seed`; the libraries under test only ever see what is built here.
//!
//! Tenants come from `dasr_fleet::TenantPopulation::generate_with_len`
//! exactly as it draws them — archetype, size, phase and noise are that
//! crate's Fig. 2 calibration, not the benchmark's. The population is the
//! benchmark's data set, the same on every run ([`POPULATION_SEED`]); the
//! seed decides what happens on it: every tenant's arrivals and service
//! times, the noise and the contaminated samples of a synthesized
//! recording, and the queries. The benchmark adds only what the population
//! does not carry: the demand → request-rate mapping, and family, latency
//! goal, budget and replay knobs by index.

use dasr_containers::{Catalog, ResourceKind, RESOURCE_KINDS};
use dasr_core::replay::{RecordingHeader, RunRecording, SampleRecord};
use dasr_core::{tenant_seed, BudgetStrategy, PerfSensitivity, RunConfig, TenantKnobs, TenantSpec};
use dasr_engine::{RequestSpec, WaitClass};
use dasr_fleet::archetype::ARCHETYPES;
use dasr_fleet::{TenantArchetype, TenantPopulation, WaitModel};
use dasr_telemetry::signals::wait_class_for;
use dasr_telemetry::{LatencyGoal, ProbeStatus, TelemetrySample};
use dasr_workloads::{
    CpuIoConfig, CpuIoWorkload, Ds2Config, Ds2Workload, TpccConfig, TpccWorkload, Trace, Workload,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Billing intervals in a tenant-day.
pub const DAY_MINUTES: usize = 1440;
/// Minutes per population interval (`dasr_fleet::INTERVAL_MINUTES`).
const MINUTES_PER_STEP: usize = 5;
/// Requests per second a demanded CPU core stands for (ISSUE 11's
/// mapping; over the population's mixture, 1.7 cores per tenant, it gives
/// a fleet mean of about 5 rps).
const RPS_PER_CORE: f64 = 3.0;
/// Seed of the population all tenants are taken from. Fixed, because a
/// fleet this small is not a sample of the mixture: sixteen tenants whose
/// sizes span 30x, drawn afresh per seed, differ by 4x in offered load
/// (1.8–8.1 rps over seeds 1..40) and by 0.38 (inter-quartile, relative) in
/// bytes stored per tenant-day, wider than any bound the benchmark may
/// declare. Picked by a rule that reads no result: the first seed whose
/// sixteen tenants show all five archetypes (seed 1's lack one).
const POPULATION_SEED: u64 = 2;
/// Per-interval budget of a tight-budget tenant, cost units (the catalog
/// spans 7..270; 12 affords the two smallest containers).
const TIGHT_BUDGET_PER_INTERVAL: f64 = 12.0;

/// The three §7.1 workload families behind one type, so a fleet can mix
/// them in one `Vec<TenantSpec<_>>`.
#[derive(Debug, Clone)]
pub enum Family {
    /// The synthetic CPU/IO micro-benchmark.
    CpuIo(CpuIoWorkload),
    /// TPC-C-lite (lock-prone).
    Tpcc(TpccWorkload),
    /// DS2-lite (disk-heavy web shop).
    Ds2(Ds2Workload),
}

impl Workload for Family {
    fn name(&self) -> &'static str {
        match self {
            Family::CpuIo(w) => w.name(),
            Family::Tpcc(w) => w.name(),
            Family::Ds2(w) => w.name(),
        }
    }

    fn next_request(&mut self, rng: &mut StdRng) -> RequestSpec {
        match self {
            Family::CpuIo(w) => w.next_request(rng),
            Family::Tpcc(w) => w.next_request(rng),
            Family::Ds2(w) => w.next_request(rng),
        }
    }

    fn hot_pages(&self) -> u64 {
        match self {
            Family::CpuIo(w) => w.hot_pages(),
            Family::Tpcc(w) => w.hot_pages(),
            Family::Ds2(w) => w.hot_pages(),
        }
    }
}

/// Number of workload families.
pub const FAMILIES: usize = 3;

/// A simulated fleet: the specs the runner takes plus what the activity
/// floors need to know about how it was drawn.
pub struct FleetInputs {
    /// One spec per tenant, `cfg.seed` already tenant-specific.
    pub specs: Vec<TenantSpec<Family>>,
    /// Archetype of each tenant (empty for the paper-trace fleet).
    pub archetypes: Vec<TenantArchetype>,
}

impl FleetInputs {
    /// Distinct workload families present.
    pub fn families_present(&self) -> usize {
        let mut seen = [false; FAMILIES];
        for spec in &self.specs {
            seen[family_index(&spec.workload)] = true;
        }
        seen.iter().filter(|&&s| s).count()
    }

    /// Distinct archetypes present.
    pub fn archetypes_present(&self) -> usize {
        ARCHETYPES
            .iter()
            .filter(|a| self.archetypes.contains(a))
            .count()
    }
}

/// Index of a tenant's family, 0..[`FAMILIES`].
pub fn family_index(w: &Family) -> usize {
    match w {
        Family::CpuIo(_) => 0,
        Family::Tpcc(_) => 1,
        Family::Ds2(_) => 2,
    }
}

/// Latency goal of tenant `i`, P95 ms: three tiers per family, the loosest
/// four times the tightest, so some tenants are comfortable and some are
/// pressed (ISSUE: "latency goals P95 100–400 ms").
fn goal_for(i: usize) -> LatencyGoal {
    LatencyGoal::P95([100.0, 200.0, 400.0][(i / FAMILIES) % 3])
}

/// Tight-budget rule shared by the fleet workloads: blocks of
/// [`FAMILIES`] consecutive tenants, every `every`-th block tight, so each
/// family has budgeted and unbudgeted tenants.
fn tight_budget(i: usize, every: usize) -> bool {
    (i / FAMILIES).is_multiple_of(every)
}

fn tenant_cfg(i: usize, seed: u64, minutes: usize, workload: &Family, tight: bool) -> RunConfig {
    let mut knobs = TenantKnobs::none().with_latency_goal(goal_for(i));
    if tight {
        knobs = knobs.with_budget(TIGHT_BUDGET_PER_INTERVAL * minutes as f64);
    }
    RunConfig {
        knobs,
        // An already-running database: the hot set is resident.
        prewarm_pages: workload.hot_pages(),
        seed: tenant_seed(seed, i as u64),
        ..RunConfig::default()
    }
}

/// `fleet_day_mixed`'s fleet: the population's first `n` tenants over
/// `minutes` one-minute intervals, each 5-minute CPU demand held for five
/// minutes at [`RPS_PER_CORE`]; family by tenant index, every third block
/// of tenants on a tight budget. `seed` drives every tenant's arrivals and
/// service times; the offered load is the same on every seed.
pub fn mixed_fleet(n: usize, minutes: usize, seed: u64) -> FleetInputs {
    let steps = minutes.div_ceil(MINUTES_PER_STEP).max(2);
    let population = TenantPopulation::generate_with_len(n, steps, POPULATION_SEED);
    let families = [
        Family::CpuIo(CpuIoWorkload::new(CpuIoConfig::default())),
        Family::Tpcc(TpccWorkload::new(TpccConfig::default())),
        Family::Ds2(Ds2Workload::new(Ds2Config::default())),
    ];
    let mut specs = Vec::with_capacity(n);
    let mut archetypes = Vec::with_capacity(n);
    for (i, tenant) in population.tenants.iter().enumerate() {
        let rps = (0..minutes)
            .map(|m| tenant.intervals[m / MINUTES_PER_STEP].cpu_cores * RPS_PER_CORE)
            .collect();
        let workload = families[i % FAMILIES].clone();
        specs.push(TenantSpec {
            cfg: tenant_cfg(i, seed, minutes, &workload, tight_budget(i, 3)),
            trace: Trace::new(tenant.archetype.name(), rps),
            workload,
        });
        archetypes.push(tenant.archetype);
    }
    FleetInputs { specs, archetypes }
}

/// `fleet_peak_contended`'s fleet: the paper's burst traces 2–4 as
/// published, I/O-heavy CPUIO / hot-lock TPC-C / DS2, half the tenants on
/// tight budgets. The seed drives every tenant's arrivals and service
/// times; the offered load is the same on every seed.
pub fn peak_fleet(n: usize, minutes: usize, seed: u64) -> FleetInputs {
    let specs = (0..n)
        .map(|i| {
            let workload = match i % FAMILIES {
                0 => Family::CpuIo(CpuIoWorkload::new(CpuIoConfig::io_heavy())),
                // Two warehouses: the Fig. 13 lock-bound regime.
                1 => Family::Tpcc(TpccWorkload::new(TpccConfig {
                    warehouses: 2,
                    ..TpccConfig::default()
                })),
                _ => Family::Ds2(Ds2Workload::new(Ds2Config::default())),
            };
            TenantSpec {
                cfg: tenant_cfg(i, seed, minutes, &workload, tight_budget(i, 2)),
                trace: Trace::paper_with_len(2 + (i / FAMILIES) % 3, minutes),
                workload,
            }
        })
        .collect();
    FleetInputs {
        specs,
        archetypes: Vec::new(),
    }
}

/// Share of a pool tenant's samples that are contaminated (§3: robust
/// signals must tolerate outliers well below Theil–Sen's breakdown point).
const CONTAMINATION: f64 = 0.02;

/// Uncontended P95 latency of pool slot `p` is `BASE_LATENCY_MS[p % 3]`:
/// against goals of 100–400 ms some slots are comfortable, some pressed.
const BASE_LATENCY_MS: [f64; 3] = [25.0, 40.0, 65.0];

/// Synthesizes `n` distinct tenant-day recordings straight from
/// `dasr_fleet`: the demand series of the population's first `n` tenants
/// against a nominal container gives utilisation, [`WaitModel`] gives
/// heavy-tailed waits at that utilisation, and a few samples per tenant are
/// contaminated. `seed` drives the noise, the wait models and which
/// samples are contaminated.
pub fn recording_pool(n: usize, minutes: usize, seed: u64) -> Vec<RunRecording> {
    let steps = minutes.div_ceil(MINUTES_PER_STEP).max(2);
    let catalog = Catalog::azure_like();
    TenantPopulation::generate_with_len(n, steps, POPULATION_SEED)
        .tenants
        .into_iter()
        .enumerate()
        .map(|(p, tenant)| {
            let pool_seed = tenant_seed(seed ^ 0x9001, p as u64);
            let mut rng = StdRng::seed_from_u64(pool_seed);
            let mut models = RESOURCE_KINDS.map(|k| WaitModel::new(k, pool_seed));
            // The container the recorded run sat on: the cheapest that
            // covers the tenant's median demand, so bursts saturate it.
            let mut by_cpu: Vec<_> = tenant.intervals.clone();
            by_cpu.sort_by(|a, b| a.cpu_cores.total_cmp(&b.cpu_cores));
            let nominal = catalog.assign_for_utilization(&by_cpu[by_cpu.len() / 2]);
            let base_latency_ms = BASE_LATENCY_MS[p % BASE_LATENCY_MS.len()];

            let records = (0..minutes)
                .map(|m| {
                    let demand = &tenant.intervals[m / MINUTES_PER_STEP];
                    let mut util_pct = [0.0; RESOURCE_KINDS.len()];
                    let mut wait_ms = [0.0; dasr_engine::WAIT_CLASSES.len()];
                    for kind in RESOURCE_KINDS {
                        let util = (demand[kind] / nominal.resources[kind]
                            * 100.0
                            * rng.gen_range(0.9..1.1))
                        .min(100.0);
                        util_pct[kind.index()] = util;
                        let obs = models[kind.index()].sample_at(util);
                        wait_ms[wait_class_for(kind).index()] = obs.wait_ms;
                    }
                    wait_ms[WaitClass::Lock.index()] = rng.gen_range(0.0..5.0);
                    let hottest = util_pct.iter().copied().fold(0.0, f64::max);
                    let pressure = ((hottest - 60.0) / 40.0).max(0.0);
                    let mut latency = base_latency_ms
                        * (1.0 + 6.0 * pressure * pressure)
                        * rng.gen_range(0.8..1.25);
                    if rng.gen_bool(CONTAMINATION) {
                        let spike = rng.gen_range(10.0..50.0);
                        latency *= spike;
                        for w in &mut wait_ms {
                            *w *= spike;
                        }
                    }
                    let requests = (demand.cpu_cores * RPS_PER_CORE * 60.0).round() as u64;
                    SampleRecord {
                        tenant: None,
                        sample: TelemetrySample {
                            interval: m as u64,
                            util_pct,
                            wait_ms,
                            latency_ms: (requests > 0).then_some(latency),
                            avg_latency_ms: (requests > 0).then_some(latency * 0.6),
                            completed: requests,
                            arrivals: requests,
                            rejected: 0,
                            mem_used_mb: demand.memory_mb.min(nominal.resources.memory_mb),
                            mem_capacity_mb: nominal.resources.memory_mb,
                            disk_reads_per_sec: demand[ResourceKind::DiskIo] * 0.5,
                        },
                        probe: ProbeStatus::Inactive,
                    }
                })
                .collect();
            RunRecording {
                header: RecordingHeader {
                    policy: "recorded".into(),
                    workload: "fleet-synth".into(),
                    trace: tenant.archetype.name().into(),
                    seed: pool_seed,
                },
                records,
            }
        })
        .collect()
}

/// Knobs of replayed tenant-day `i`: budget, goal, sensitivity and budget
/// strategy cycle at co-prime periods (60 distinct sets), so a pool
/// recording meets different knobs on every replay. By index only: with
/// two replays per recording, letting the seed rotate the cycle re-paired
/// hot recordings with tight budgets and moved `sim_goal_met_share` by 7 %
/// and the bytes archived by 16 % from seed to seed.
pub fn replay_cfg(i: usize, minutes: usize) -> RunConfig {
    let k = i;
    let mut knobs = TenantKnobs::none()
        .with_latency_goal(match k % 4 {
            0 => LatencyGoal::P95(100.0),
            1 => LatencyGoal::P95(200.0),
            2 => LatencyGoal::P95(400.0),
            _ => LatencyGoal::Average(150.0),
        })
        .with_sensitivity(match k % 3 {
            0 => PerfSensitivity::High,
            1 => PerfSensitivity::Medium,
            _ => PerfSensitivity::Low,
        });
    if k % 5 < 2 {
        let per_interval = [TIGHT_BUDGET_PER_INTERVAL, 40.0][k % 5];
        knobs = knobs.with_budget(per_interval * minutes as f64);
    }
    RunConfig {
        knobs,
        budget_strategy: if k.is_multiple_of(2) {
            BudgetStrategy::Aggressive
        } else {
            BudgetStrategy::Conservative { k: 3 }
        },
        ..RunConfig::default()
    }
}
