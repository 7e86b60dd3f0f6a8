//! One workload, start to finish: set-up (several times), the untraced
//! pass that the end-to-end metrics come from, the traced pass that the
//! per-layer metrics come from, every output check and activity floor, and
//! the report.

use crate::clock::{now_ns, secs_since};
use crate::names::{Metrics, END_TO_END, PER_LAYER};
use crate::queries::{run_mix, MixBudget, MixOutcome, Reference, QUERY_KINDS};
use crate::spans::{closure_error, write_jsonl, Layer, Rollup, SpanBuf, NO_TENANT};
use crate::stats::{annotate, median, percentile};
use crate::traced::{EngineCounts, Tracer};
use crate::workloads::{floors, produce, setup, Inputs, ProduceCtx, Produced, Workload};
use dasr_core::json::Json;
use dasr_core::obs::{CounterId, TimerId};
use dasr_core::{FleetAccumulator, FleetSummary, RunConfig};
use dasr_store::Store;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Which metric sets a run reports (the contract's `--trace`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Passes {
    /// `--trace 0`: untraced pass only, end-to-end metrics.
    EndToEnd,
    /// `--trace 1`: one untraced repetition as the baseline, then the
    /// traced pass; per-layer metrics.
    PerLayer,
    /// No `--trace`: both passes, both sets.
    Both,
}

/// A `run` invocation.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// The workload.
    pub workload: Workload,
    /// Seed for every generated input.
    pub seed: u64,
    /// Seconds the untraced pass measures for.
    pub seconds: f64,
    /// Which passes run.
    pub passes: Passes,
    /// Worker threads (`FleetRunner` and the store's read fan-out).
    pub threads: usize,
    /// Where archives and `trace-<workload>.jsonl` go.
    pub out: PathBuf,
    /// Toy sizes, floors relaxed to "> 0".
    pub smoke: bool,
}

/// Set-up runs at least this many times and for at least
/// [`SETUP_SECONDS`]; the median is `setup_s`. A fleet set-up takes 30–50
/// ms, and the median of five of those moved by a fifth from run to run.
const SETUP_REPS: usize = 5;
/// See [`SETUP_REPS`].
const SETUP_SECONDS: f64 = 1.0;
/// Cycles of the query mix in the traced pass: fixed, so each query type's
/// sample count — and with it the percentile it supports — is the same on
/// every run (200 of each scan → p95, 1200 of each per-tenant query → p99).
const TRACED_CYCLES: usize = 200;
/// Seconds of untraced repetitions a `--trace 1` run measures its
/// `bench.traced_wall_ratio` against (one repetition where that is longer).
const BASELINE_SECONDS: f64 = 2.0;
/// Tenants whose recording is compared bit for bit after reopen.
const SAMPLED_TENANTS: u64 = 16;

/// One named pass/fail line of the report.
struct Check {
    what: String,
    ok: bool,
}

/// What a run found.
pub struct Report {
    args: RunArgs,
    end_to_end: Metrics,
    per_layer: Metrics,
    notes: Vec<String>,
    checks: Vec<Check>,
    attempted: u64,
    failed: u64,
    digest: u32,
}

impl Report {
    fn check(&mut self, ok: bool, what: impl Into<String>) {
        self.checks.push(Check {
            what: what.into(),
            ok,
        });
    }

    /// Whether every output check and activity floor held and no
    /// operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }
}

/// The run's digest: CRC-32 over the fleet summary's counters, the rule
/// histogram and the archived event stream.
fn digest_of(summary: &FleetSummary, events_crc: u32) -> u32 {
    let mut text = format!(
        "{} {} {:016x} {} {} {} {}",
        summary.tenants,
        summary.intervals_total,
        summary.total_cost.to_bits(),
        summary.completed_total,
        summary.rejected_total,
        summary.resizes_total,
        summary.events_emitted,
    );
    for id in CounterId::ALL {
        text.push_str(&format!(" {}={}", id.name(), summary.metrics.counter(id)));
    }
    for (rule, n) in summary.metrics.rules().ranked() {
        text.push_str(&format!(" {}={n}", rule.name()));
    }
    text.push_str(&format!(" events={events_crc:08x}"));
    dasr_store::crc::crc32(text.as_bytes())
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse::<f64>().ok())
        .ok_or("VmHWM missing from /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn index_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "idx"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// A reopened archive checked against what was written into it.
struct Reopened {
    store: Store,
    reference: Reference,
    open_s: f64,
}

/// Reopens `dir`, rebuilds the reference by full decode, and runs the
/// output checks that compare the archive with `p`.
fn reopen(
    report: &mut Report,
    pass: &str,
    dir: &Path,
    threads: usize,
    p: &Produced,
    main: &mut SpanBuf,
) -> Result<Reopened, String> {
    let t0 = now_ns();
    let mut store = main
        .time(Layer::StoreOpen, || Store::open(dir))
        .map_err(|e| format!("reopen: {e}"))?;
    let open_s = secs_since(t0);
    store.set_read_threads(threads);
    let initial_rung = RunConfig::default().initial_container().rung;
    let reference =
        Reference::build(&store, initial_rung).map_err(|e| format!("full decode: {e}"))?;

    let notes = store.recovery_notes().len();
    report.check(
        notes == 0,
        format!("{pass}: recovery notes empty after reopen ({notes})"),
    );
    report.check(
        reference.records == p.appended() && reference.records == p.stats.records,
        format!(
            "{pass}: records decoded {} == appended {} == indexed {}",
            reference.records,
            p.appended(),
            p.stats.records
        ),
    );
    report.check(
        p.manifest_events == p.summary.events_emitted
            && p.manifest_events == p.events_appended
            && p.manifest_events == reference.events,
        format!(
            "{pass}: events manifest {} == summary {} == appended {} == decoded {}",
            p.manifest_events, p.summary.events_emitted, p.events_appended, reference.events
        ),
    );
    report.check(
        p.manifest_samples == p.samples_appended && p.manifest_samples == reference.samples,
        format!(
            "{pass}: samples manifest {} == appended {} == decoded {}",
            p.manifest_samples, p.samples_appended, reference.samples
        ),
    );
    let indexed = store
        .fire_counts(None, 0..u64::MAX)
        .map_err(|e| format!("fire_counts: {e}"))?;
    report.check(
        indexed == reference.fires,
        format!(
            "{pass}: fire_counts from the index == full decode ({})",
            reference.fires
        ),
    );
    let slo = p.summary.metrics.counter(CounterId::SloViolations);
    report.check(
        reference.fires.slo_violations == slo
            && reference.fires.resizes_issued == p.summary.resizes_total,
        format!(
            "{pass}: archive answers the summary's axes: {} goal misses == {slo}, {} resizes == {}",
            reference.fires.slo_violations, reference.fires.resizes_issued, p.summary.resizes_total
        ),
    );
    report.check(
        reference.cost_total == p.summary.total_cost,
        format!(
            "{pass}: cost rebuilt from archived resizes {} == summary {}",
            reference.cost_total, p.summary.total_cost
        ),
    );
    Ok(Reopened {
        store,
        reference,
        open_s,
    })
}

/// `store_archive` only: 16 sampled tenants' recordings, loaded from the
/// reopened store, equal their source bit for bit.
fn check_sampled_recordings(
    report: &mut Report,
    store: &Store,
    inputs: &Inputs,
    args: &RunArgs,
) -> Result<(), String> {
    let Inputs::Archive(archive) = inputs else {
        return Ok(());
    };
    let sizes = args.workload.sizes(args.smoke);
    let total = (sizes.runs * sizes.tenants) as u64;
    let mut equal = 0;
    let sampled = SAMPLED_TENANTS.min(total);
    for k in 0..sampled {
        let flat = k * total / sampled;
        let (r, t) = (flat / sizes.tenants as u64, flat % sizes.tenants as u64);
        let run = store.runs()[r as usize].run;
        let loaded = store
            .load_recording(run, Some(t))
            .map_err(|e| format!("load_recording: {e}"))?;
        let source = archive.source_of(r as usize, t as usize, sizes);
        equal += u64::from(
            loaded.records.len() == source.records.len()
                && loaded.records.iter().zip(&source.records).all(|(a, b)| {
                    a.sample == b.sample && a.probe == b.probe && a.tenant == Some(t)
                }),
        );
    }
    report.check(
        equal == sampled,
        format!(
            "load_recording equals its source bit for bit for {equal}/{sampled} sampled tenants"
        ),
    );
    Ok(())
}

/// Runs `args.workload` and returns its report.
pub fn run(args: RunArgs) -> Result<Report, String> {
    let work = args.out.join(format!(
        "work-{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let mut report = Report {
        args,
        end_to_end: Metrics::default(),
        per_layer: Metrics::default(),
        notes: Vec::new(),
        checks: Vec::new(),
        attempted: 0,
        failed: 0,
        digest: 0,
    };
    let outcome = run_passes(&mut report, &work);
    let _ = std::fs::remove_dir_all(&work);
    outcome.map(|()| report)
}

fn run_passes(report: &mut Report, work: &Path) -> Result<(), String> {
    let args = report.args.clone();
    let set_up = set_up(&args, work)?;
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x51_7E57);
    let untraced = untraced_pass(report, work, &set_up, &mut rng)?;
    let traced = match args.passes {
        Passes::EndToEnd => None,
        _ => Some(traced_pass(report, work, &set_up, &untraced, &mut rng)?),
    };
    // Floors read the untraced repetition, plus what only a traced pass sees.
    let mut seen = untraced.produced;
    seen.tpcc_lock_wait_share = traced.as_ref().and_then(|t| t.tpcc_lock_wait_share);
    let engine = traced.as_ref().map(|t| &t.engine);
    for f in floors(args.workload, args.smoke, &set_up.inputs, &seen, engine) {
        report.check(f.ok, format!("floor: {}", f.what));
    }
    Ok(())
}

/// The inputs and what building them cost.
struct SetUp {
    inputs: Inputs,
    /// Median wall of one whole set-up, seconds.
    median_s: f64,
    /// `dasr_fleet` synthesis inside one set-up, seconds.
    synthesize_s: f64,
}

/// Everything before the timed section, several times over.
fn set_up(args: &RunArgs, work: &Path) -> Result<SetUp, String> {
    let sizes = args.workload.sizes(args.smoke);
    let mut spans = SpanBuf::new(NO_TENANT);
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    let min_secs = if args.smoke { 0.0 } else { SETUP_SECONDS };
    let started = now_ns();
    while secs.len() < SETUP_REPS || secs_since(started) < min_secs {
        let t0 = now_ns();
        drop(built.take());
        std::fs::create_dir_all(work).map_err(|e| format!("{}: {e}", work.display()))?;
        built = Some(setup(args.workload, sizes, args.seed, &mut spans));
        secs.push(secs_since(t0));
    }
    Ok(SetUp {
        inputs: built.expect("SETUP_REPS >= 1"),
        median_s: median(&secs),
        synthesize_s: Rollup::of(&[spans], |_| false).secs(Layer::Synthesize) / secs.len() as f64,
    })
}

/// What the traced pass compares itself with.
struct Untraced {
    /// The first repetition (all others were checked equal to it).
    produced: Produced,
    /// Median repetition wall, seconds.
    wall_s: f64,
}

/// Produce-and-archive repetitions for the produce share of `--seconds`,
/// then the query mix for the rest; fills the end-to-end metrics.
fn untraced_pass(
    report: &mut Report,
    work: &Path,
    set_up: &SetUp,
    rng: &mut StdRng,
) -> Result<Untraced, String> {
    let args = report.args.clone();
    let workload = args.workload;
    let sizes = workload.sizes(args.smoke);
    // `--trace 1` needs this pass only as the traced pass's baseline.
    let measuring = args.passes != Passes::PerLayer;
    let produce_budget = if measuring {
        args.seconds * workload.produce_share()
    } else {
        BASELINE_SECONDS.min(args.seconds)
    };
    let dir = work.join("untraced");
    let ctx = ProduceCtx {
        workload,
        sizes,
        dir: &dir,
        threads: args.threads,
        seed: args.seed,
        tracer: None,
    };
    let mut main = SpanBuf::new(NO_TENANT);
    let started = now_ns();
    let mut walls = Vec::new();
    let mut first: Option<Produced> = None;
    let mut repeats = true;
    // At least two when measuring, so the wall is a median and "every
    // repetition equals the first" says something.
    let min_reps = if measuring { 2 } else { 1 };
    while walls.len() < min_reps || secs_since(started) < produce_budget {
        let p = produce(&set_up.inputs, &ctx, &mut main)?;
        walls.push(p.wall_s);
        report.attempted += p.tenant_runs + p.appended();
        report.failed += p.tenant_failures;
        match &first {
            None => first = Some(p),
            Some(f) => repeats &= p.summary == f.summary && p.stats == f.stats,
        }
    }
    report.check(
        repeats,
        format!(
            "all {} untraced repetitions give the same summary and archive",
            walls.len()
        ),
    );
    let produced = first.expect("at least one repetition");
    let wall_s = median(&walls);
    report.notes.push(format!(
        "{} tenant-days x {} intervals, {} requests, {} resizes, {} events",
        produced.tenant_days,
        sizes.minutes,
        produced.summary.completed_total,
        produced.summary.resizes_total,
        produced.summary.events_emitted,
    ));
    report.notes.push(format!(
        "repetition walls (s), median {wall_s:.3}: {}",
        walls
            .iter()
            .map(|w| format!("{w:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));

    let Reopened {
        store, reference, ..
    } = reopen(report, "untraced", &dir, args.threads, &produced, &mut main)?;
    check_sampled_recordings(report, &store, &set_up.inputs, &args)?;
    report.failed += produced.appended().saturating_sub(reference.records);
    report.digest = digest_of(&produced.summary, reference.events_crc);
    if measuring {
        let budget = MixBudget::Seconds(args.seconds * (1.0 - workload.produce_share()));
        let mix = run_mix(&store, &reference, rng, budget, None);
        report.attempted += mix.queries;
        report.failed += mix.failed;
        report.notes.push(format!(
            "untraced query mix: {} queries in {} cycles, {} records returned",
            mix.queries,
            mix.cycle_secs.len(),
            mix.records_returned
        ));
        let tenant_intervals = produced.tenant_days * sizes.minutes as u64;
        let e = &mut report.end_to_end;
        e.set("setup_s", set_up.median_s);
        e.set("tenant_intervals_per_s", tenant_intervals as f64 / wall_s);
        e.set("query_mix_per_s", mix.per_second());
        e.set("peak_rss_mib", peak_rss_mib()?);
        e.set(
            "store_bytes_per_tenant_day",
            produced.stats.bytes as f64 / produced.tenant_days as f64,
        );
        e.set(
            "sim_cost_per_tenant_interval",
            reference.cost_total / reference.tenant_intervals as f64,
        );
        e.set(
            "sim_goal_met_share",
            1.0 - reference.fires.slo_violations as f64 / reference.tenant_intervals as f64,
        );
    }
    store
        .close()
        .map_err(|e| format!("close after queries: {e}"))?;
    Ok(Untraced { produced, wall_s })
}

/// What only a traced pass can tell the activity floors.
struct Traced {
    engine: EngineCounts,
    tpcc_lock_wait_share: Option<f64>,
}

/// The same repetition once more behind the decorators, then a fixed
/// number of query cycles with a span per query; fills the per-layer
/// metrics and writes the trace file.
fn traced_pass(
    report: &mut Report,
    work: &Path,
    set_up: &SetUp,
    untraced: &Untraced,
    rng: &mut StdRng,
) -> Result<Traced, String> {
    let args = report.args.clone();
    let workload = args.workload;
    let tracer = Arc::new(Tracer::default());
    let dir = work.join("traced");
    let ctx = ProduceCtx {
        workload,
        sizes: workload.sizes(args.smoke),
        dir: &dir,
        threads: args.threads,
        seed: args.seed,
        tracer: Some(&tracer),
    };
    let mut main = SpanBuf::new(NO_TENANT);
    let traced = produce(&set_up.inputs, &ctx, &mut main)?;
    report.attempted += traced.tenant_runs + traced.appended();
    report.failed += traced.tenant_failures;
    report.check(
        traced.summary == untraced.produced.summary,
        "traced pass FleetSummary == untraced pass FleetSummary",
    );
    report.check(
        traced.stats == untraced.produced.stats,
        format!(
            "traced pass archive == untraced pass archive ({} bytes, {} records)",
            traced.stats.bytes, traced.stats.records
        ),
    );
    let Reopened {
        store,
        reference,
        open_s,
    } = reopen(report, "traced", &dir, args.threads, &traced, &mut main)?;
    report.check(
        digest_of(&traced.summary, reference.events_crc) == report.digest,
        "traced pass digest == untraced pass digest",
    );
    let cycles = if args.smoke { 2 } else { TRACED_CYCLES };
    let mix = run_mix(
        &store,
        &reference,
        rng,
        MixBudget::Cycles(cycles),
        Some(&mut main),
    );
    report.attempted += mix.queries;
    report.failed += mix.failed;
    store
        .close()
        .map_err(|e| format!("close after queries: {e}"))?;

    let engine = tracer.engine_counts();
    let mut bufs = tracer.spans.take();
    bufs.push(main);
    let layers = LayerInputs {
        traced: &traced,
        untraced_wall: untraced.wall_s,
        threads: args.threads,
        synthesize_s: set_up.synthesize_s,
        open_s,
        mix: &mix,
        index_bytes: index_bytes(&dir),
        counts: engine,
    };
    per_layer(report, &bufs, &layers);

    let path = args.out.join(format!("trace-{}.jsonl", workload.name()));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    write_jsonl(&bufs, &mut out)
        .and_then(|()| out.flush())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let spans: usize = bufs.iter().map(|b| b.spans().len()).sum();
    report
        .notes
        .push(format!("{spans} spans written to {}", path.display()));
    Ok(Traced {
        engine,
        tpcc_lock_wait_share: traced.tpcc_lock_wait_share,
    })
}

/// Everything [`per_layer`] derives the per-layer metrics from.
struct LayerInputs<'a> {
    traced: &'a Produced,
    untraced_wall: f64,
    threads: usize,
    synthesize_s: f64,
    open_s: f64,
    mix: &'a MixOutcome,
    index_bytes: u64,
    counts: EngineCounts,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Fills `report.per_layer` from the traced pass's spans and counts.
fn per_layer(report: &mut Report, bufs: &[SpanBuf], x: &LayerInputs<'_>) {
    let rollup = Rollup::of(bufs, |l| {
        matches!(
            l,
            Layer::Pump | Layer::Decide | Layer::TenantRun | Layer::Query(_)
        )
    });
    // `store_archive` runs no loop in its timed section: its summary
    // describes the archived tenant-days, which set-up produced.
    let blank = FleetAccumulator::new().finish();
    let summary = if x.traced.tenant_runs > 0 {
        &x.traced.summary
    } else {
        &blank
    };
    let counts = &x.counts;
    let intervals = summary.intervals_total as f64;
    let signals_ns = summary.metrics.timer(TimerId::SignalsNs).sum();
    let ms = |v: &[f64], p: f64| percentile(v, p) / 1e6;
    let mut notes = Vec::new();
    let l = &mut report.per_layer;

    let generate_s = rollup.secs(Layer::Generate);
    l.set("workloads.generate_s", generate_s);
    l.set("workloads.requests", counts.requests_generated as f64);
    l.set(
        "workloads.ns_per_request",
        ratio(generate_s * 1e9, counts.requests_generated as f64),
    );

    let pump = rollup.get(Layer::Pump);
    let engine_s =
        rollup.secs(Layer::Submit) + rollup.secs(Layer::Pump) + rollup.secs(Layer::EndInterval);
    l.set("engine.setup_s", rollup.secs(Layer::EngineSetup));
    l.set("engine.submit_s", rollup.secs(Layer::Submit));
    l.set("engine.pump_s", rollup.secs(Layer::Pump));
    l.set("engine.end_interval_s", rollup.secs(Layer::EndInterval));
    l.set(
        "engine.requests_completed",
        counts.requests_completed as f64,
    );
    l.set(
        "engine.ns_per_request",
        ratio(engine_s * 1e9, counts.requests_completed as f64),
    );
    l.set(
        "engine.pump_us_per_interval_p50",
        percentile(&pump.durations_ns, 50.0) / 1e3,
    );
    l.set(
        "engine.pump_us_per_interval_p99",
        percentile(&pump.durations_ns, 99.0) / 1e3,
    );
    l.set(
        "engine.idle_interval_share",
        ratio(counts.idle_intervals as f64, counts.intervals as f64),
    );
    l.set(
        "engine.low_rate_interval_share",
        ratio(counts.low_rate_intervals as f64, counts.intervals as f64),
    );
    l.set("engine.resizes_applied", counts.resizes_applied as f64);
    l.set("engine.balloon_cmds", counts.balloon_cmds as f64);
    notes.push(format!(
        "engine.pump {}",
        annotate(99.0, pump.durations_ns.len())
    ));

    l.set("telemetry.sample_s", rollup.secs(Layer::Sample));
    l.set("telemetry.signals_s", signals_ns / 1e9);
    l.set(
        "telemetry.signals_ns_per_interval",
        ratio(signals_ns, intervals),
    );

    let decide = rollup.get(Layer::Decide);
    l.set("core.policy.decide_s", rollup.secs(Layer::Decide));
    l.set(
        "core.policy.decide_ns_p50",
        percentile(&decide.durations_ns, 50.0),
    );
    l.set(
        "core.policy.decide_ns_p99",
        percentile(&decide.durations_ns, 99.0),
    );
    l.set(
        "core.policy.rule_fires",
        summary.metrics.rules().total() as f64,
    );
    l.set("core.policy.resizes", summary.resizes_total as f64);
    l.set(
        "core.policy.budget_throttles",
        summary.metrics.counter(CounterId::BudgetThrottles) as f64,
    );
    l.set(
        "core.policy.slo_violations",
        summary.metrics.counter(CounterId::SloViolations) as f64,
    );
    notes.push(format!(
        "core.policy.decide {}",
        annotate(99.0, decide.durations_ns.len())
    ));

    // The loop body: a tenant-run's self time (what no decorator claimed),
    // less the signals the loop times itself.
    let runs = rollup.get(Layer::TenantRun);
    let loop_self_s = (runs.self_ns as f64 - signals_ns).max(0.0) / 1e9;
    l.set("core.runner.loop_self_s", loop_self_s);
    l.set(
        "core.runner.loop_self_ns_per_interval",
        ratio(loop_self_s * 1e9, intervals),
    );
    l.set("core.replay.observe_s", rollup.secs(Layer::ReplayObserve));

    let busy_s = runs.total_ns as f64 / 1e9;
    let ideal_s = busy_s / x.threads as f64;
    l.set(
        "core.fleet.worker_busy_share",
        ratio(busy_s, x.threads as f64 * x.traced.wall_s),
    );
    l.set(
        "core.fleet.makespan_over_ideal",
        ratio(x.traced.wall_s, ideal_s),
    );
    l.set("core.fleet.tenant_run_ms_p50", ms(&runs.durations_ns, 50.0));
    l.set("core.fleet.tenant_run_ms_p95", ms(&runs.durations_ns, 95.0));
    l.set(
        "core.fleet.tenant_run_ms_max",
        ms(&runs.durations_ns, 100.0),
    );
    notes.push(format!(
        "core.fleet.tenant_run {}",
        annotate(95.0, runs.durations_ns.len())
    ));

    l.set("fleet.synthesize_s", x.synthesize_s);

    let stats = &x.traced.stats;
    l.set("store.sink.emit_s", rollup.secs(Layer::SinkEmit));
    l.set(
        "store.sink.events",
        rollup.get(Layer::SinkEmit).count as f64,
    );
    l.set("store.append_s", rollup.secs(Layer::StoreAppend));
    l.set("store.flush_s", rollup.secs(Layer::StoreFlush));
    l.set(
        "store.ingest_records_per_s",
        ratio(stats.records as f64, x.traced.wall_s),
    );
    l.set("store.bytes_written", stats.bytes as f64);
    l.set(
        "store.bytes_per_record",
        ratio(stats.bytes as f64, stats.records as f64),
    );
    l.set("store.batches", stats.batches as f64);
    l.set("store.segments", stats.segments as f64);
    l.set("store.index_bytes", x.index_bytes as f64);

    l.set("store.open_ms", x.open_s * 1e3);
    for kind in QUERY_KINDS {
        let d = &rollup.get(Layer::Query(kind)).durations_ns;
        let tail = kind.tail_percentile();
        l.set(&format!("{}_ms_p50", kind.stem()), ms(d, 50.0));
        l.set(&format!("{}_ms_p{tail}", kind.stem()), ms(d, tail));
        notes.push(format!("{} {}", kind.stem(), annotate(tail, d.len())));
    }
    l.set("store.records_returned", x.mix.records_returned as f64);

    l.set(
        "bench.traced_wall_ratio",
        ratio(x.traced.wall_s, x.untraced_wall),
    );
    l.set(
        "bench.span_closure_error",
        closure_error(bufs.iter().map(SpanBuf::spans)),
    );
    report
        .notes
        .push(format!("percentile support: {}", notes.join("; ")));
}

impl Report {
    /// Prints the human-readable report and, last, the contract's JSON
    /// line. Returns whether the run is correct.
    pub fn print(&self) -> bool {
        let w = self.args.workload.name();
        println!(
            "== {w}  seed {}  threads {}  nproc {}{} ==",
            self.args.seed,
            self.args.threads,
            std::thread::available_parallelism().map_or(1, usize::from),
            if self.args.smoke {
                "  (smoke sizes)"
            } else {
                ""
            },
        );
        for note in &self.notes {
            println!("  {note}");
        }
        let mut metrics = Vec::new();
        let mut missing = Vec::new();
        let sets = [
            (
                self.args.passes != Passes::PerLayer,
                END_TO_END,
                &self.end_to_end,
            ),
            (
                self.args.passes != Passes::EndToEnd,
                PER_LAYER,
                &self.per_layer,
            ),
        ];
        for (wanted, defs, values) in sets {
            for def in defs.iter().filter(|_| wanted) {
                match values.get(def.name) {
                    Some(v) => {
                        println!("  {:<40} {:>18.6} {}", def.name, v, def.unit);
                        metrics.push((
                            def.name.to_string(),
                            Json::Obj(vec![
                                ("value".into(), Json::Num(v)),
                                ("unit".into(), Json::Str(def.unit.into())),
                            ]),
                        ));
                    }
                    None => missing.push(def.name),
                }
            }
        }
        for c in &self.checks {
            println!("  [{}] {}", if c.ok { "ok" } else { "FAIL" }, c.what);
        }
        for name in &missing {
            println!("  [FAIL] metric {name} was not produced");
        }
        let correct = self.correct() && missing.is_empty();
        println!(
            "  operations attempted {} failed {}",
            self.attempted, self.failed
        );
        println!("digest {w} {:08x}", self.digest);
        println!(
            "{}",
            Json::Obj(vec![
                ("correct".into(), Json::Bool(correct)),
                ("attempted".into(), Json::Num(self.attempted.max(1) as f64)),
                ("failed".into(), Json::Num(self.failed as f64)),
                ("metrics".into(), Json::Obj(metrics)),
            ])
            .write()
        );
        correct
    }
}
