//! Decorators around the public seams — `TelemetrySource`/`ResizeActuator`,
//! `ScalingPolicy`, `EventSink` — that record spans and counts from the
//! outside. Nothing here reaches into a library's private state.
//!
//! A tenant-run's source and policy decorators share one [`RunTrace`]
//! (they live and die on the same worker, so a plain `Rc<RefCell<_>>`);
//! the policy is the last of the pair to drop, so its `Drop` closes the
//! tenant-run span and hands the buffer to the pass-wide [`Tracer`].

use crate::clock::now_ns;
use crate::spans::{Collector, Layer, SpanBuf, NO_TENANT};
use dasr_containers::ResourceVector;
use dasr_core::obs::{EventSink, RunEvent};
use dasr_core::policy::{PolicyContext, PolicyDecision, ScalingPolicy};
use dasr_core::replay::ReplaySource;
use dasr_core::RunConfig;
use dasr_engine::{Engine, IntervalStats, SimTime};
use dasr_telemetry::{
    LatencyGoal, NullActuator, ProbeStatus, ResizeActuator, SourcePair, TelemetrySample,
    TelemetrySource,
};
use dasr_workloads::{Trace, TraceDriver, Workload};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Exact counts taken at the engine seam, summed over a pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EngineCounts {
    /// Requests the workload generated (= submitted).
    pub requests_generated: u64,
    /// Requests the engine completed.
    pub requests_completed: u64,
    /// Intervals observed.
    pub intervals: u64,
    /// Intervals with no arrivals and nothing outstanding — what a
    /// quiescent fast-forward could skip.
    pub idle_intervals: u64,
    /// Intervals below one request per second.
    pub low_rate_intervals: u64,
    /// `apply_resources` calls.
    pub resizes_applied: u64,
    /// Balloon start/abort/commit commands.
    pub balloon_cmds: u64,
}

impl EngineCounts {
    fn add(&mut self, o: &EngineCounts) {
        self.requests_generated += o.requests_generated;
        self.requests_completed += o.requests_completed;
        self.intervals += o.intervals;
        self.idle_intervals += o.idle_intervals;
        self.low_rate_intervals += o.low_rate_intervals;
        self.resizes_applied += o.resizes_applied;
        self.balloon_cmds += o.balloon_cmds;
    }
}

/// Everything a traced pass collects.
#[derive(Debug, Default)]
pub struct Tracer {
    /// Finished span buffers.
    pub spans: Collector,
    engine: Mutex<EngineCounts>,
}

impl Tracer {
    /// The engine-seam counts summed over every finished tenant-run.
    pub fn engine_counts(&self) -> EngineCounts {
        *self
            .engine
            .lock()
            .expect("tracer poisoned by a panicking worker")
    }
}

/// One tenant-run's recording state.
pub struct RunTrace {
    buf: SpanBuf,
    counts: EngineCounts,
}

/// Shared handle to a tenant-run's [`RunTrace`].
pub type RunHandle = Rc<RefCell<RunTrace>>;

/// Opens tenant `tenant`'s run span.
pub fn start_run(tenant: usize) -> RunHandle {
    let mut buf = SpanBuf::new(tenant as u32);
    buf.enter(Layer::TenantRun);
    Rc::new(RefCell::new(RunTrace {
        buf,
        counts: EngineCounts::default(),
    }))
}

/// The simulator behind the telemetry seam, with every call into
/// `dasr_workloads`, `dasr_engine` and `dasr_telemetry` timed. Mirrors
/// `SimulatorSource::new` / `observe_interval` call for call; the
/// traced-equals-untraced `FleetSummary` check proves the mirror exact.
pub struct TracedSim<W: Workload> {
    engine: Engine,
    driver: TraceDriver<W>,
    stats: IntervalStats,
    run: RunHandle,
}

impl<W: Workload> TracedSim<W> {
    /// Builds the backend as `SimulatorSource::new` does.
    pub fn new(cfg: &RunConfig, trace: &Trace, workload: W, run: RunHandle) -> Self {
        let t0 = now_ns();
        let mut engine = Engine::new(cfg.engine, cfg.initial_container().resources);
        if cfg.prewarm_pages > 0 {
            engine.prewarm(cfg.prewarm_pages);
        }
        let t1 = now_ns();
        run.borrow_mut().buf.leaf(Layer::EngineSetup, t0, t1);
        Self {
            engine,
            driver: TraceDriver::new(trace.clone(), workload, cfg.seed),
            stats: IntervalStats::default(),
            run,
        }
    }
}

impl<W: Workload> TelemetrySource for TracedSim<W> {
    fn intervals(&self) -> usize {
        self.driver.minutes()
    }

    fn workload_name(&self) -> &str {
        self.driver.workload_name()
    }

    fn trace_name(&self) -> &str {
        &self.driver.trace().name
    }

    fn observe_interval(&mut self, interval: u64, goal: LatencyGoal) -> TelemetrySample {
        let t0 = now_ns();
        let arrivals = self.driver.arrivals_for_minute(interval as usize);
        let t1 = now_ns();
        let n = arrivals.len() as u64;
        let idle = n == 0 && self.engine.outstanding() == 0;
        for (at, spec) in arrivals {
            self.engine.submit_at(at, spec);
        }
        let t2 = now_ns();
        self.engine.run_until(SimTime::from_mins(interval + 1));
        let t3 = now_ns();
        self.engine.end_interval_into(&mut self.stats);
        let t4 = now_ns();
        let sample = TelemetrySample::from_interval(interval, &self.stats, goal);
        let t5 = now_ns();

        let mut run = self.run.borrow_mut();
        run.buf.leaf(Layer::Generate, t0, t1);
        run.buf.leaf(Layer::Submit, t1, t2);
        run.buf.leaf(Layer::Pump, t2, t3);
        run.buf.leaf(Layer::EndInterval, t3, t4);
        run.buf.leaf(Layer::Sample, t4, t5);
        run.counts.requests_generated += n;
        run.counts.requests_completed += self.stats.completed;
        run.counts.intervals += 1;
        run.counts.idle_intervals += u64::from(idle);
        run.counts.low_rate_intervals += u64::from(n < 60);
        sample
    }

    fn interval_latencies_ms(&self) -> &[f64] {
        &self.stats.latencies_ms
    }

    fn probe(&self) -> ProbeStatus {
        if self.engine.balloon_active() {
            ProbeStatus::Active {
                reached_target: self.engine.balloon_reached_target(),
            }
        } else {
            ProbeStatus::Inactive
        }
    }
}

impl<W: Workload> ResizeActuator for TracedSim<W> {
    fn apply_resources(&mut self, resources: ResourceVector) {
        self.run.borrow_mut().counts.resizes_applied += 1;
        self.engine.apply_resources(resources);
    }

    fn start_balloon(&mut self, target_mb: f64) {
        self.run.borrow_mut().counts.balloon_cmds += 1;
        self.engine.start_balloon(target_mb);
    }

    fn abort_balloon(&mut self) {
        self.run.borrow_mut().counts.balloon_cmds += 1;
        self.engine.abort_balloon();
    }

    fn commit_balloon(&mut self) {
        self.run.borrow_mut().counts.balloon_cmds += 1;
        self.engine.commit_balloon();
    }
}

/// A replayed recording behind the seam, `observe_interval` timed.
pub struct TracedReplay {
    inner: SourcePair<ReplaySource, NullActuator>,
    run: RunHandle,
}

impl TracedReplay {
    /// Wraps `source` with the discard actuator, as `replay()` does.
    pub fn new(source: ReplaySource, run: RunHandle) -> Self {
        Self {
            inner: SourcePair::new(source, NullActuator),
            run,
        }
    }
}

impl TelemetrySource for TracedReplay {
    fn intervals(&self) -> usize {
        self.inner.intervals()
    }

    fn workload_name(&self) -> &str {
        self.inner.workload_name()
    }

    fn trace_name(&self) -> &str {
        self.inner.trace_name()
    }

    fn observe_interval(&mut self, interval: u64, goal: LatencyGoal) -> TelemetrySample {
        let t0 = now_ns();
        let sample = self.inner.observe_interval(interval, goal);
        let t1 = now_ns();
        self.run.borrow_mut().buf.leaf(Layer::ReplayObserve, t0, t1);
        sample
    }

    fn interval_latencies_ms(&self) -> &[f64] {
        self.inner.interval_latencies_ms()
    }

    fn probe(&self) -> ProbeStatus {
        self.inner.probe()
    }
}

impl ResizeActuator for TracedReplay {
    fn apply_resources(&mut self, resources: ResourceVector) {
        self.inner.apply_resources(resources);
    }

    fn start_balloon(&mut self, target_mb: f64) {
        self.inner.start_balloon(target_mb);
    }

    fn abort_balloon(&mut self) {
        self.inner.abort_balloon();
    }

    fn commit_balloon(&mut self) {
        self.inner.commit_balloon();
    }
}

/// Times every `decide`; its `Drop` closes the tenant-run span.
pub struct TracedPolicy<P: ScalingPolicy> {
    inner: P,
    run: RunHandle,
    tracer: Arc<Tracer>,
}

impl<P: ScalingPolicy> TracedPolicy<P> {
    /// Wraps `inner`, reporting into `tracer` when the run ends.
    pub fn new(inner: P, run: RunHandle, tracer: Arc<Tracer>) -> Self {
        Self { inner, run, tracer }
    }
}

impl<P: ScalingPolicy> ScalingPolicy for TracedPolicy<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn decide(&mut self, ctx: &PolicyContext<'_>) -> PolicyDecision {
        let t0 = now_ns();
        let decision = self.inner.decide(ctx);
        let t1 = now_ns();
        self.run.borrow_mut().buf.leaf(Layer::Decide, t0, t1);
        decision
    }
}

impl<P: ScalingPolicy> Drop for TracedPolicy<P> {
    fn drop(&mut self) {
        let mut run = self.run.borrow_mut();
        run.buf.exit();
        let buf = std::mem::replace(&mut run.buf, SpanBuf::new(NO_TENANT));
        self.tracer.spans.push(buf);
        // A poisoned lock means another worker already panicked; the pass
        // fails on that panic, so dropping this run's counts is harmless.
        if let Ok(mut total) = self.tracer.engine.lock() {
            total.add(&run.counts);
        }
    }
}

/// Demanded steps the §4 estimator may ask for per resource.
const STEP_RANGE: std::ops::RangeInclusive<i8> = -2..=2;
/// Slack on the §5 budget comparison, cost units.
const BUDGET_EPS: f64 = 1e-6;

/// Checks the paper's per-tenant guarantees from outside the loop, in both
/// passes: spend never exceeds the budget (§5) and demanded steps stay in
/// {−2..+2} (§4). A tenant that breaks either counts as one failed
/// operation in `failures`.
pub struct Checked<P: ScalingPolicy> {
    inner: P,
    budget: Option<f64>,
    spent: f64,
    bad_step: bool,
    failures: Arc<AtomicU64>,
}

impl<P: ScalingPolicy> Checked<P> {
    /// Wraps `inner` for a tenant with period budget `budget`.
    pub fn new(inner: P, budget: Option<f64>, failures: Arc<AtomicU64>) -> Self {
        Self {
            inner,
            budget,
            spent: 0.0,
            bad_step: false,
            failures,
        }
    }
}

impl<P: ScalingPolicy> ScalingPolicy for Checked<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn decide(&mut self, ctx: &PolicyContext<'_>) -> PolicyDecision {
        // The loop bills the interval that just ran on `ctx.current`
        // immediately before asking for the next decision.
        self.spent += ctx.current.cost;
        let decision = self.inner.decide(ctx);
        self.bad_step |= decision
            .trace
            .demanded
            .iter()
            .any(|s| !STEP_RANGE.contains(s));
        decision
    }
}

impl<P: ScalingPolicy> Drop for Checked<P> {
    fn drop(&mut self) {
        let overspent = self.budget.is_some_and(|b| self.spent > b + BUDGET_EPS);
        if overspent || self.bad_step {
            self.failures.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Forwards events to `inner`, counting them — and, in the traced pass,
/// timing every `emit`.
pub struct ProbedSink<S: EventSink> {
    inner: S,
    /// Events delivered.
    pub seen: u64,
    buf: Option<SpanBuf>,
}

impl<S: EventSink> ProbedSink<S> {
    /// Wraps `inner`; `traced` turns per-emit spans on.
    pub fn new(inner: S, traced: bool) -> Self {
        Self {
            inner,
            seen: 0,
            buf: traced.then(|| SpanBuf::new(NO_TENANT)),
        }
    }

    /// The wrapped sink and, when traced, the recorded spans.
    pub fn into_parts(self) -> (S, Option<SpanBuf>) {
        (self.inner, self.buf)
    }
}

impl<S: EventSink> EventSink for ProbedSink<S> {
    fn emit(&mut self, event: &RunEvent) {
        self.seen += 1;
        match &mut self.buf {
            Some(buf) => buf.time(Layer::SinkEmit, || self.inner.emit(event)),
            None => self.inner.emit(event),
        }
    }

    fn finish(&mut self) {
        self.inner.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::mixed_fleet;
    use dasr_core::policy::AutoPolicy;
    use dasr_core::{FleetRunner, NullSink};

    /// The satellite's pin: the traced mirror of `SimulatorSource` yields
    /// the same `FleetSummary` as `run_fleet_summary`.
    #[test]
    fn traced_source_reproduces_the_untraced_fleet_summary() {
        let fleet = mixed_fleet(3, 20, 11);
        let plain = FleetRunner::new(2).run_fleet_summary(
            &fleet.specs,
            |_, t| Box::new(AutoPolicy::with_knobs(t.cfg.knobs)) as Box<dyn ScalingPolicy>,
            &mut NullSink,
        );
        let tracer = Arc::new(Tracer::default());
        let traced = FleetRunner::new(2).run_fleet_sources(fleet.specs.len(), |i| {
            let t = &fleet.specs[i];
            let run = start_run(i);
            let backend = TracedSim::new(&t.cfg, &t.trace, t.workload.clone(), Rc::clone(&run));
            let policy = TracedPolicy::new(
                AutoPolicy::with_knobs(t.cfg.knobs),
                run,
                Arc::clone(&tracer),
            );
            (
                t.cfg.clone(),
                backend,
                Box::new(policy) as Box<dyn ScalingPolicy>,
            )
        });
        assert_eq!(traced.fleet_summary(), &plain);

        let bufs = tracer.spans.take();
        assert_eq!(bufs.len(), 3, "one buffer per tenant-run");
        let counts = tracer.engine_counts();
        assert_eq!(counts.intervals, 3 * 20);
        assert_eq!(counts.requests_completed, plain.completed_total);
        assert_eq!(counts.resizes_applied, plain.resizes_total);
        assert_eq!(
            crate::spans::closure_error(bufs.iter().map(SpanBuf::spans)),
            0.0
        );
    }

    #[test]
    fn checked_policy_counts_an_overspent_tenant_once() {
        use dasr_core::policy::StaticPolicy;
        use dasr_core::ClosedLoop;
        use dasr_workloads::{CpuIoConfig, CpuIoWorkload};

        let cfg = RunConfig::default();
        let trace = Trace::new("flat", vec![1.0; 4]);
        let failures = Arc::new(AtomicU64::new(0));
        for (budget, expect) in [(Some(1.0e9), 0), (Some(1.0), 1), (None, 1)] {
            let mut policy = Checked::new(
                StaticPolicy::max(&cfg.catalog),
                budget,
                Arc::clone(&failures),
            );
            ClosedLoop::run(
                &cfg,
                &trace,
                CpuIoWorkload::new(CpuIoConfig::small()),
                &mut policy,
            );
            drop(policy);
            assert_eq!(
                failures.load(Ordering::Relaxed),
                expect,
                "budget {budget:?}"
            );
        }
    }
}
