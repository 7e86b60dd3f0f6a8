//! The four workloads: what set-up builds, and what one timed
//! produce-and-archive repetition does (open a fresh store, run, commit,
//! close). Every workload leaves an archive behind for
//! [`crate::queries`] to reopen.

use crate::clock::{now_ns, secs_since};
use crate::inputs::{self, Family, FleetInputs, DAY_MINUTES};
use crate::spans::{Layer, SpanBuf};
use crate::traced::{
    start_run, Checked, ProbedSink, TracedPolicy, TracedReplay, TracedSim, Tracer,
};
use dasr_core::obs::{CounterId, EventSink, RunEvent};
use dasr_core::policy::{AutoPolicy, ScalingPolicy};
use dasr_core::replay::{ReplaySource, RunRecording};
use dasr_core::{ClosedLoop, FleetAccumulator, FleetRunner, FleetSummary, RunReport};
use dasr_engine::WaitClass;
use dasr_store::{RecordPayload, RunId, RunMeta, Store, StoreError, StoreSink, StoreStats};
use dasr_telemetry::{NullActuator, SourcePair};
use std::path::Path;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which workload, by its normative name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The realistic archetype mix through the simulator.
    FleetDayMixed,
    /// Burst traces, deep queues, almost no idle interval.
    FleetPeakContended,
    /// The control plane over given telemetry; no simulator.
    ControlReplay,
    /// The store written and read back; no loop in the timed section.
    StoreArchive,
}

impl Workload {
    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Self> {
        [
            Workload::FleetDayMixed,
            Workload::FleetPeakContended,
            Workload::ControlReplay,
            Workload::StoreArchive,
        ]
        .into_iter()
        .find(|w| w.name() == name)
    }

    /// The normative name.
    pub fn name(self) -> &'static str {
        crate::names::WORKLOADS[self as usize]
    }

    /// Share of `--seconds` spent producing and archiving; the rest goes
    /// to the query mix. The store workload is mostly about reads.
    pub fn produce_share(self) -> f64 {
        match self {
            Workload::StoreArchive => 0.3,
            _ => 0.8,
        }
    }
}

/// Input sizes of one repetition.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Tenant-days per repetition (per run for the store workload).
    pub tenants: usize,
    /// One-minute intervals per tenant.
    pub minutes: usize,
    /// Distinct recordings in the replay pool.
    pub pool: usize,
    /// Runs archived per repetition.
    pub runs: usize,
}

impl Workload {
    /// Final sizes (`smoke`: toy sizes with every mechanism on).
    ///
    /// Tenants were shrunk from the issue's anchors, never intervals, so
    /// that 22 runs per workload fit the driver's time cap on 2 cores.
    pub fn sizes(self, smoke: bool) -> Sizes {
        let (tenants, minutes, pool, runs) = match (self, smoke) {
            (Workload::FleetDayMixed, false) => (16, DAY_MINUTES, 0, 1),
            (Workload::FleetPeakContended, false) => (9, 360, 0, 1),
            (Workload::ControlReplay, false) => (128, DAY_MINUTES, 64, 1),
            (Workload::StoreArchive, false) => (64, DAY_MINUTES, 64, 4),
            (Workload::FleetDayMixed | Workload::FleetPeakContended, true) => (8, 60, 0, 1),
            (Workload::ControlReplay, true) => (64, 60, 8, 1),
            (Workload::StoreArchive, true) => (8, 60, 8, 2),
        };
        Sizes {
            tenants,
            minutes,
            pool,
            runs,
        }
    }
}

/// What set-up hands the timed section.
pub enum Inputs {
    /// A simulated fleet.
    Fleet(FleetInputs),
    /// A pool of recordings to replay under varying knobs.
    Replay(Vec<RunRecording>),
    /// Recordings plus the events and summary their replay produced.
    Archive(ArchiveInputs),
}

/// `store_archive`'s inputs: one entry per pool recording.
pub struct ArchiveInputs(Vec<Archived>);

/// A pool recording and what its set-up replay produced.
struct Archived {
    recording: RunRecording,
    /// Events the replay emitted (unstamped).
    events: Vec<RunEvent>,
    /// The replay's report, folded — merged once per archived copy to give
    /// the summary the archive must reproduce.
    fold: FleetAccumulator,
}

impl ArchiveInputs {
    fn entry(&self, r: usize, t: usize, sizes: Sizes) -> &Archived {
        &self.0[(r * sizes.tenants + t) % self.0.len()]
    }

    /// The recording archived as tenant `t` of run `r` (before stamping).
    pub fn source_of(&self, r: usize, t: usize, sizes: Sizes) -> &RunRecording {
        &self.entry(r, t, sizes).recording
    }
}

fn auto_policy(cfg: &dasr_core::RunConfig, failures: &Arc<AtomicU64>) -> Checked<AutoPolicy> {
    Checked::new(
        AutoPolicy::with_knobs(cfg.knobs),
        cfg.knobs.budget,
        Arc::clone(failures),
    )
}

/// Replays `recording` under `cfg` through the checked `AutoPolicy` —
/// behind the decorators when `traced` names the tenant and the tracer —
/// and reduces the report to its fold and its events, so the report
/// itself never leaves the worker.
fn replay_folded(
    cfg: &dasr_core::RunConfig,
    recording: &RunRecording,
    failures: &Arc<AtomicU64>,
    traced: Option<(usize, &Arc<Tracer>)>,
) -> (FleetAccumulator, Vec<RunEvent>) {
    let source = ReplaySource::new(recording.clone());
    let policy = auto_policy(cfg, failures);
    let mut report = match traced {
        None => {
            let mut policy = policy;
            let mut backend = SourcePair::new(source, NullActuator);
            ClosedLoop::run_source(cfg, &mut backend, &mut policy)
        }
        Some((tenant, tracer)) => {
            let trace = start_run(tenant);
            let mut backend = TracedReplay::new(source, Rc::clone(&trace));
            let mut policy = TracedPolicy::new(policy, trace, Arc::clone(tracer));
            ClosedLoop::run_source(cfg, &mut backend, &mut policy)
        }
    };
    let mut fold = FleetAccumulator::new();
    fold.fold_report(&report);
    (fold, std::mem::take(&mut report.obs.events))
}

/// Minutes each family's first tenant is simulated for during set-up.
const WARM_UP_MINUTES: usize = 5;

/// Runs the first tenant of each family for a few minutes, sequentially,
/// so first-touch costs (allocator growth, lazily built tables, cold code)
/// are paid in set-up and not billed to the first timed repetition.
fn warm_up(fleet: &FleetInputs) {
    let warm: Vec<_> = fleet
        .specs
        .iter()
        .take(inputs::FAMILIES)
        .map(|t| dasr_core::TenantSpec {
            trace: dasr_workloads::Trace::new(
                "warm-up",
                t.trace.rps.iter().copied().take(WARM_UP_MINUTES).collect(),
            ),
            ..t.clone()
        })
        .collect();
    let summary = FleetRunner::new(1).run_fleet_summary(
        &warm,
        |_, t| Box::new(AutoPolicy::with_knobs(t.cfg.knobs)) as Box<dyn ScalingPolicy>,
        &mut dasr_core::NullSink,
    );
    std::hint::black_box(summary);
}

/// Builds `workload`'s inputs from `seed`; `spans` times the
/// `dasr_fleet` synthesis inside it.
pub fn setup(workload: Workload, sizes: Sizes, seed: u64, spans: &mut SpanBuf) -> Inputs {
    match workload {
        Workload::FleetDayMixed => {
            let fleet = spans.time(Layer::Synthesize, || {
                inputs::mixed_fleet(sizes.tenants, sizes.minutes, seed)
            });
            warm_up(&fleet);
            Inputs::Fleet(fleet)
        }
        Workload::FleetPeakContended => {
            let fleet = inputs::peak_fleet(sizes.tenants, sizes.minutes, seed);
            warm_up(&fleet);
            Inputs::Fleet(fleet)
        }
        Workload::ControlReplay => Inputs::Replay(spans.time(Layer::Synthesize, || {
            inputs::recording_pool(sizes.pool, sizes.minutes, seed)
        })),
        Workload::StoreArchive => {
            let pool = spans.time(Layer::Synthesize, || {
                inputs::recording_pool(sizes.pool, sizes.minutes, seed)
            });
            let failures = Arc::new(AtomicU64::new(0));
            let replays = FleetRunner::with_available_parallelism().map(pool.len(), |p| {
                let cfg = inputs::replay_cfg(p, sizes.minutes);
                replay_folded(&cfg, &pool[p], &failures, None)
            });
            Inputs::Archive(ArchiveInputs(
                pool.into_iter()
                    .zip(replays)
                    .map(|(recording, (fold, events))| Archived {
                        recording,
                        events,
                        fold,
                    })
                    .collect(),
            ))
        }
    }
}

/// What one produce-and-archive repetition did.
pub struct Produced {
    /// The fleet summary of the tenant-days archived.
    pub summary: FleetSummary,
    /// Wall time from `Store::open` to `close` returning, seconds.
    pub wall_s: f64,
    /// Tenant-runs executed (0 for the store workload).
    pub tenant_runs: u64,
    /// Tenant-runs that broke a §4/§5 guarantee.
    pub tenant_failures: u64,
    /// Tenant-days archived.
    pub tenant_days: u64,
    /// Events handed to the store (through the sink, where there is one).
    pub events_appended: u64,
    /// Samples handed to the store.
    pub samples_appended: u64,
    /// Σ manifest event counts of the committed runs.
    pub manifest_events: u64,
    /// Σ manifest sample counts of the committed runs.
    pub manifest_samples: u64,
    /// The store's size accounting just before `close`.
    pub stats: StoreStats,
    /// Share of resource wait time spent on locks over the TPC-C tenants
    /// (traced fleet passes only, where per-tenant reports exist).
    pub tpcc_lock_wait_share: Option<f64>,
}

impl Produced {
    fn of(summary: FleetSummary) -> Self {
        Produced {
            summary,
            wall_s: 0.0,
            tenant_runs: 0,
            tenant_failures: 0,
            tenant_days: 0,
            events_appended: 0,
            samples_appended: 0,
            manifest_events: 0,
            manifest_samples: 0,
            stats: StoreStats::default(),
            tpcc_lock_wait_share: None,
        }
    }

    /// Records handed to the store.
    pub fn appended(&self) -> u64 {
        self.events_appended + self.samples_appended
    }
}

/// What, where and how one repetition runs.
pub struct ProduceCtx<'a> {
    /// The workload.
    pub workload: Workload,
    /// Its sizes.
    pub sizes: Sizes,
    /// Fresh directory for the archive.
    pub dir: &'a Path,
    /// Worker threads.
    pub threads: usize,
    /// The run's seed.
    pub seed: u64,
    /// Present in the traced pass: decorators report here.
    pub tracer: Option<&'a Arc<Tracer>>,
}

impl ProduceCtx<'_> {
    /// Opens a run of `tenants` tenants in `store`.
    fn begin_run(&self, store: &mut Store, source: &str, tenants: usize) -> RunId {
        let meta = RunMeta::new("auto", self.workload.name(), source, self.seed)
            .fleet(tenants as u64, self.sizes.minutes as u64);
        store.begin_run(meta)
    }

    /// A counting (and, when traced, timing) sink into `run`.
    fn sink(&self, store: &Store, run: RunId) -> Result<ProbedSink<StoreSink>, String> {
        let sink = store
            .event_sink(run)
            .map_err(|e| store_err("event_sink", e))?;
        Ok(ProbedSink::new(sink, self.tracer.is_some()))
    }

    /// Closes `sink`: hands its spans to the tracer and reports how many
    /// events it saw; a sink error fails the repetition.
    fn finish_sink(&self, mut sink: ProbedSink<StoreSink>) -> Result<u64, String> {
        sink.finish();
        let seen = sink.seen;
        let (inner, spans) = sink.into_parts();
        if let (Some(spans), Some(tracer)) = (spans, self.tracer) {
            tracer.spans.push(spans);
        }
        match inner.error() {
            Some(e) => Err(format!("store sink: {e}")),
            None => Ok(seen),
        }
    }

    /// Delivers `events` into `run` through [`sink`](Self::sink).
    fn drain_to_sink<'e>(
        &self,
        store: &Store,
        run: RunId,
        events: impl Iterator<Item = &'e RunEvent>,
    ) -> Result<u64, String> {
        let mut sink = self.sink(store, run)?;
        for ev in events {
            sink.emit(ev);
        }
        self.finish_sink(sink)
    }
}

fn store_err(what: &str, e: StoreError) -> String {
    format!("{what}: {e}")
}

/// Runs one repetition. `main` collects the main thread's spans.
pub fn produce(
    inputs: &Inputs,
    ctx: &ProduceCtx<'_>,
    main: &mut SpanBuf,
) -> Result<Produced, String> {
    let _ = std::fs::remove_dir_all(ctx.dir);
    let failures = Arc::new(AtomicU64::new(0));
    let start = now_ns();
    let mut store = Store::open(ctx.dir).map_err(|e| store_err("open", e))?;
    store.set_read_threads(ctx.threads);

    let mut p = match inputs {
        Inputs::Fleet(fleet) => produce_fleet(fleet, ctx, &mut store, &failures, main),
        Inputs::Replay(pool) => produce_replay(pool, ctx, &mut store, &failures, main),
        Inputs::Archive(archive) => produce_archive(archive, ctx, &mut store, main),
    }?;

    p.stats = store.stats().map_err(|e| store_err("stats", e))?;
    main.time(Layer::StoreFlush, || store.close())
        .map_err(|e| store_err("close", e))?;
    p.wall_s = secs_since(start);
    p.tenant_failures = failures.load(Ordering::Relaxed);
    Ok(p)
}

/// Commits `run` and folds its manifest line into `p`.
fn commit(
    store: &mut Store,
    run: RunId,
    p: &mut Produced,
    main: &mut SpanBuf,
) -> Result<(), String> {
    let manifest = main
        .time(Layer::StoreFlush, || store.end_run(run))
        .map_err(|e| store_err("end_run", e))?;
    p.manifest_events += manifest.events;
    p.manifest_samples += manifest.samples;
    Ok(())
}

fn produce_fleet(
    fleet: &FleetInputs,
    ctx: &ProduceCtx<'_>,
    store: &mut Store,
    failures: &Arc<AtomicU64>,
    main: &mut SpanBuf,
) -> Result<Produced, String> {
    let specs = &fleet.specs;
    let run = ctx.begin_run(store, "fleet", specs.len());
    let runner = FleetRunner::new(ctx.threads);
    let (summary, events, tpcc_lock_wait_share) = match ctx.tracer {
        None => {
            let mut sink = ctx.sink(store, run)?;
            let summary = runner.run_fleet_summary(
                specs,
                |_, t| Box::new(auto_policy(&t.cfg, failures)) as Box<dyn ScalingPolicy>,
                &mut sink,
            );
            (summary, ctx.finish_sink(sink)?, None)
        }
        // Traced: the same tenants through `run_fleet_sources` with the
        // bench-owned simulator source (full mode), events delivered in
        // tenant order afterwards — the order summary mode streams them in.
        Some(tracer) => {
            let report = runner.run_fleet_sources(specs.len(), |i| {
                let t = &specs[i];
                let trace = start_run(i);
                let backend =
                    TracedSim::new(&t.cfg, &t.trace, t.workload.clone(), Rc::clone(&trace));
                let policy =
                    TracedPolicy::new(auto_policy(&t.cfg, failures), trace, Arc::clone(tracer));
                (
                    t.cfg.clone(),
                    backend,
                    Box::new(policy) as Box<dyn ScalingPolicy>,
                )
            });
            let events = report.reports.iter().flat_map(|r| r.obs.events.iter());
            let seen = ctx.drain_to_sink(store, run, events)?;
            let lock_share = lock_wait_share(
                report
                    .reports
                    .iter()
                    .zip(specs)
                    .filter(|(_, t)| matches!(t.workload, Family::Tpcc(_)))
                    .map(|(r, _)| r),
            );
            (report.fleet_summary().clone(), seen, Some(lock_share))
        }
    };
    let mut p = Produced::of(summary);
    p.tenant_runs = specs.len() as u64;
    p.tenant_days = specs.len() as u64;
    p.events_appended = events;
    p.tpcc_lock_wait_share = tpcc_lock_wait_share;
    commit(store, run, &mut p, main)?;
    Ok(p)
}

/// Mean over `reports`' intervals of the lock share of resource waits.
fn lock_wait_share<'r>(reports: impl Iterator<Item = &'r RunReport>) -> f64 {
    let (mut sum, mut n) = (0.0, 0u64);
    for rec in reports.flat_map(|r| r.intervals.iter()) {
        sum += rec.wait_pct[WaitClass::Lock.index()] / 100.0;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn produce_replay(
    pool: &[RunRecording],
    ctx: &ProduceCtx<'_>,
    store: &mut Store,
    failures: &Arc<AtomicU64>,
    main: &mut SpanBuf,
) -> Result<Produced, String> {
    let n = ctx.sizes.tenants;
    let run = ctx.begin_run(store, "replay", n);
    let per_tenant = FleetRunner::new(ctx.threads).map(n, |i| {
        let cfg = inputs::replay_cfg(i, ctx.sizes.minutes);
        let traced = ctx.tracer.map(|tracer| (i, tracer));
        let (fold, mut events) = replay_folded(&cfg, &pool[i % pool.len()], failures, traced);
        for ev in &mut events {
            ev.tenant = Some(i as u64);
        }
        (fold, events)
    });
    let mut total = FleetAccumulator::new();
    for (fold, _) in &per_tenant {
        total.merge(fold);
    }
    let events = per_tenant.iter().flat_map(|(_, events)| events.iter());
    let seen = ctx.drain_to_sink(store, run, events)?;
    let mut p = Produced::of(total.finish());
    p.tenant_runs = n as u64;
    p.tenant_days = n as u64;
    p.events_appended = seen;
    commit(store, run, &mut p, main)?;
    Ok(p)
}

fn produce_archive(
    archive: &ArchiveInputs,
    ctx: &ProduceCtx<'_>,
    store: &mut Store,
    main: &mut SpanBuf,
) -> Result<Produced, String> {
    let sizes = ctx.sizes;
    let mut total = FleetAccumulator::new();
    let mut p = Produced::of(FleetAccumulator::new().finish());
    let mut scratch = archive.0[0].recording.clone();
    for r in 0..sizes.runs {
        let run = ctx.begin_run(store, "replay", sizes.tenants);
        for t in 0..sizes.tenants {
            let entry = archive.entry(r, t, sizes);
            scratch.records.clone_from(&entry.recording.records);
            scratch.stamp_tenant(t as u64);
            main.time(Layer::StoreAppend, || {
                store.append_recording(run, &scratch)?;
                for ev in &entry.events {
                    let stamped = RunEvent {
                        tenant: Some(t as u64),
                        ..*ev
                    };
                    store.append(run, RecordPayload::Event(stamped))?;
                }
                Ok(())
            })
            .map_err(|e| store_err("append", e))?;
            total.merge(&entry.fold);
            p.samples_appended += scratch.records.len() as u64;
            p.events_appended += entry.events.len() as u64;
        }
        commit(store, run, &mut p, main)?;
    }
    p.summary = total.finish();
    p.tenant_days = (sizes.runs * sizes.tenants) as u64;
    Ok(p)
}

/// One activity floor: what it guards and whether it held.
pub struct Floor {
    /// Human-readable statement with the measured value.
    pub what: String,
    /// Whether it held.
    pub ok: bool,
}

fn floor(ok: bool, what: String) -> Floor {
    Floor { what, ok }
}

/// Activity floors of `workload` — a seed must not be able to make it
/// trivial. `smoke` relaxes every bound to "> 0" but keeps each
/// mechanism on. `engine` is present after a traced pass.
pub fn floors(
    workload: Workload,
    smoke: bool,
    inputs: &Inputs,
    p: &Produced,
    engine: Option<&crate::traced::EngineCounts>,
) -> Vec<Floor> {
    let m = &p.summary.metrics;
    let intervals = p.summary.intervals_total.max(1) as f64;
    let share = |n: u64, of: u64| n as f64 / of.max(1) as f64;
    let mut out = Vec::new();
    match workload {
        Workload::FleetDayMixed => {
            let per_day = p.summary.resizes_total as f64 / p.tenant_days.max(1) as f64;
            let min_resizes = if smoke { f64::MIN_POSITIVE } else { 3.0 };
            out.push(floor(
                per_day >= min_resizes,
                format!("resizes per tenant-day {per_day:.2} >= {min_resizes:.0}"),
            ));
            let miss = m.counter(CounterId::SloViolations) as f64 / intervals;
            let (lo, hi) = if smoke { (0.0, 1.0) } else { (0.005, 0.25) };
            out.push(floor(
                (lo..=hi).contains(&miss),
                format!("goal-miss share {miss:.4} in [{lo}, {hi}]"),
            ));
            if let Inputs::Fleet(fleet) = inputs {
                let (f, a) = (fleet.families_present(), fleet.archetypes_present());
                out.push(floor(
                    f == inputs::FAMILIES,
                    format!("{f} workload families present"),
                ));
                let min_archetypes = if smoke { 1 } else { 4 };
                out.push(floor(
                    a >= min_archetypes,
                    format!("{a} archetypes present (>= {min_archetypes})"),
                ));
            }
            // No floor on `engine.idle_interval_share`: the issue asked for
            // >= 0.10, the population as `dasr_fleet` draws it yields under
            // 0.01 at the issue's 3 rps per demanded core (README, "Layer
            // split"), and the traffic is not bent to meet it.
        }
        Workload::FleetPeakContended => {
            let starts = m.counter(CounterId::BalloonStarts);
            out.push(floor(
                smoke || starts >= 1,
                format!("balloon probes started {starts} >= 1"),
            ));
            if let Some(e) = engine {
                let idle = share(e.idle_intervals, e.intervals);
                out.push(floor(
                    idle <= 0.02,
                    format!("engine.idle_interval_share {idle:.4} <= 0.02"),
                ));
            }
            if let Some(lock) = p.tpcc_lock_wait_share {
                out.push(floor(
                    lock > 0.0,
                    format!("lock-wait share on TPC-C tenants {lock:.4} > 0"),
                ));
            }
        }
        Workload::ControlReplay => {
            let rules = m.rules().ranked().iter().filter(|(_, n)| *n > 0).count();
            let min_rules = if smoke { 1 } else { 6 };
            out.push(floor(
                rules >= min_rules,
                format!("distinct rules fired {rules} >= {min_rules}"),
            ));
            let throttles = m.counter(CounterId::BudgetThrottles);
            out.push(floor(
                throttles > 0,
                format!("budget throttles {throttles} > 0"),
            ));
        }
        Workload::StoreArchive => {
            let min_segments = if smoke { 1 } else { 8 };
            out.push(floor(
                p.stats.segments >= min_segments,
                format!("segments {} >= {min_segments}", p.stats.segments),
            ));
            out.push(floor(
                p.manifest_samples > 0 && p.manifest_events > 0,
                format!(
                    "payloads present: {} samples, {} events",
                    p.manifest_samples, p.manifest_events
                ),
            ));
        }
    }
    out
}
