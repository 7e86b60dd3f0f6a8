//! Sharded parallel multi-tenant execution (§7 scale-out).
//!
//! A DBaaS control plane runs the paper's loop for *every* tenant on a
//! server, every billing interval. The tenants are independent — no shared
//! mutable state crosses the loop — so the fleet is embarrassingly
//! parallel. [`FleetRunner`] runs it on the
//! [ordered-shard driver](crate::runner::ordered): the tenant index space
//! is split into contiguous shards, workers claim them off an atomic
//! cursor (so skewed tenant costs do not stall a core), and shard results
//! come back in shard order.
//!
//! Each shard folds the reports it produces into a [`FleetAccumulator`]
//! and the shard folds are merged into one — a true monoid (exact
//! floating-point sums, see [`crate::runner::shard`]), so fleet aggregates
//! cost O(1) at read time.
//!
//! # Two memory modes
//!
//! - [`FleetRunner::run_fleet`] / [`FleetRunner::run_fleet_sources`] —
//!   *full* mode: keeps every tenant's [`RunReport`] (O(tenants) memory)
//!   plus the folded [`FleetSummary`].
//! - [`FleetRunner::run_fleet_summary`] — *summary* mode: each report is
//!   folded and dropped inside the worker; only the shard accumulators
//!   and the not-yet-delivered shards' event buffers stay live. Events
//!   stream out through an [`EventSink`] in shard order, producing the
//!   same byte stream a full run's [`FleetReport::events_jsonl`] renders.
//!
//! # Determinism contract
//!
//! Results are **bit-identical regardless of thread count *and* shard
//! count**. The driver's [argument](crate::runner::ordered#determinism)
//! covers scheduling and delivery order; the fleet adds the two things
//! the driver asks of its callers:
//!
//! - each tenant's run is a pure function of its index (per-tenant seeds
//!   come from the fleet seed through a SplitMix64 hash, never from
//!   shared RNG state);
//! - reports and events are *concatenated* in shard order, and the only
//!   *reduction* — the [`FleetAccumulator`] — is associative and
//!   commutative at the bit level, so shard boundaries cannot perturb a
//!   single ulp.
//!
//! `FleetRunner::new(1)` is the sequential reference the property tests
//! compare against.

use crate::obs::{events_jsonl, EventSink, MetricRegistry};
use crate::policy::ScalingPolicy;
use crate::report::RunReport;
use crate::rules::RuleHistogram;
use crate::runner::ordered::ordered_shards;
use crate::runner::shard::{FleetAccumulator, FleetSummary};
use crate::runner::source::SimulatorSource;
use crate::runner::{ClosedLoop, RunConfig};
use dasr_stats::percentile;
use dasr_telemetry::{ResizeActuator, TelemetrySource};
use dasr_workloads::{Trace, Workload};

/// Executes independent per-tenant closed loops across OS threads.
#[derive(Debug, Clone, Copy)]
pub struct FleetRunner {
    threads: usize,
    shards: Option<usize>,
}

impl FleetRunner {
    /// Creates a runner using `threads` worker threads (clamped to ≥ 1).
    /// One thread means plain sequential execution on the caller's thread.
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            shards: None,
        }
    }

    /// Creates a runner sized to the machine's available parallelism.
    pub fn with_available_parallelism() -> Self {
        Self::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// Overrides the shard count (clamped to ≥ 1; further clamped to the
    /// tenant count at run time). The default — four shards per worker —
    /// balances claim overhead against work-stealing granularity; results
    /// are bit-identical either way (see the [determinism
    /// contract](self#determinism-contract)), so this knob only tunes
    /// speed and, in summary mode, peak memory.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards.max(1));
        self
    }

    /// Worker threads this runner uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Shards `n` work items will be split into.
    pub fn shard_count(&self, n: usize) -> usize {
        let want = self.shards.unwrap_or(self.threads * 4).max(1);
        want.min(n).max(1)
    }

    /// Computes `f(0), f(1), …, f(n-1)` across the worker threads and
    /// returns the results in index order.
    ///
    /// `f` must be a pure function of its index for the determinism
    /// contract to hold; the runner guarantees output order and exactly
    /// one call per index either way.
    pub fn map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let mut out = Vec::with_capacity(n);
        ordered_shards(
            n,
            self.threads,
            self.shard_count(n),
            || (),
            |(), range| range.map(&f).collect::<Vec<T>>(),
            |mut part| out.append(&mut part),
        );
        out
    }

    /// Runs one simulated closed loop per tenant and aggregates the
    /// reports (*full* mode: every [`RunReport`] is kept, O(tenants)
    /// memory) — [`run_fleet_sources`](Self::run_fleet_sources) with
    /// every tenant on a [`SimulatorSource`].
    ///
    /// `make_policy` builds each tenant's policy inside the worker that
    /// runs it (policies are stateful and not shared).
    pub fn run_fleet<W, F>(&self, tenants: &[TenantSpec<W>], make_policy: F) -> FleetReport
    where
        W: Workload + Clone + Sync,
        F: Fn(usize, &TenantSpec<W>) -> Box<dyn ScalingPolicy> + Sync,
    {
        self.run_fleet_sources(tenants.len(), |i| simulated(i, &tenants[i], &make_policy))
    }

    /// Runs the simulated fleet in *summary* mode: each tenant's report
    /// is folded into its shard's accumulator and dropped, so live memory
    /// is O(shards) instead of O(tenants). Run events stream out through
    /// `sink` in shard order — byte-identical to a full run's
    /// [`FleetReport::events_jsonl`] for any thread/shard count (pass
    /// [`crate::obs::NullSink`] to drop them).
    ///
    /// Out-of-order shard finishers park their output until the
    /// next-in-order shard completes, so the transient buffer is bounded
    /// by shard-completion skew, not by fleet size.
    pub fn run_fleet_summary<W, F>(
        &self,
        tenants: &[TenantSpec<W>],
        make_policy: F,
        sink: &mut dyn EventSink,
    ) -> FleetSummary
    where
        W: Workload + Clone + Sync,
        F: Fn(usize, &TenantSpec<W>) -> Box<dyn ScalingPolicy> + Sync,
    {
        let summary = self.fold_fleet(
            tenants.len(),
            |i| simulated(i, &tenants[i], &make_policy),
            |mut report, events| events.append(&mut report.obs.events),
            |events| events.iter().for_each(|ev| sink.emit(ev)),
        );
        sink.finish();
        summary
    }

    /// Runs `n` closed loops over caller-supplied backends, keeping every
    /// report.
    ///
    /// `make(i)` builds tenant `i`'s run configuration, telemetry backend
    /// and policy inside the worker that runs it, so the fleet can mix
    /// backends: simulator tenants, replayed tenants
    /// (`crate::replay::ReplaySource`), or anything else behind the seam.
    /// `make` must be a pure function of `i` for the [determinism
    /// contract](self#determinism-contract) to hold. Tenant `i`'s traces
    /// and events are stamped with `i`, so fleet-wide JSONL dumps stay
    /// attributable.
    pub fn run_fleet_sources<B, F>(&self, n: usize, make: F) -> FleetReport
    where
        B: TelemetrySource + ResizeActuator,
        F: Fn(usize) -> (RunConfig, B, Box<dyn ScalingPolicy>) + Sync,
    {
        let mut reports = Vec::with_capacity(n);
        let summary = self.fold_fleet(
            n,
            make,
            |report, kept| kept.push(report),
            |mut kept| reports.append(&mut kept),
        );
        FleetReport { reports, summary }
    }

    /// The one fleet loop. Per shard: run each tenant, stamp its index
    /// into every decision trace and run event, fold the report into the
    /// shard's accumulator, and let `keep` move what must outlive the
    /// shard into its buffer (the report drops right after). Shard
    /// buffers reach `deliver` in shard order; the accumulators merge
    /// into the returned summary.
    fn fold_fleet<B, F, K, Keep, Deliver>(
        &self,
        n: usize,
        make: F,
        keep: Keep,
        mut deliver: Deliver,
    ) -> FleetSummary
    where
        B: TelemetrySource + ResizeActuator,
        F: Fn(usize) -> (RunConfig, B, Box<dyn ScalingPolicy>) + Sync,
        K: Send,
        Keep: Fn(RunReport, &mut Vec<K>) + Sync,
        Deliver: FnMut(Vec<K>) + Send,
    {
        let mut total = FleetAccumulator::new();
        ordered_shards(
            n,
            self.threads,
            self.shard_count(n),
            || (),
            |(), range| {
                let mut acc = FleetAccumulator::new();
                let mut kept = Vec::new();
                for i in range {
                    // The backend (for a simulated tenant: its engine)
                    // is dropped before the report is folded.
                    let mut report = {
                        let (cfg, mut backend, mut policy) = make(i);
                        ClosedLoop::run_source(&cfg, &mut backend, policy.as_mut())
                    };
                    for rec in &mut report.intervals {
                        rec.trace.tenant = Some(i as u64);
                    }
                    report.obs.stamp_tenant(i as u64);
                    acc.fold_report(&report);
                    keep(report, &mut kept);
                }
                (acc, kept)
            },
            |(acc, kept)| {
                total.merge(&acc);
                deliver(kept);
            },
        );
        total.finish()
    }
}

impl Default for FleetRunner {
    fn default() -> Self {
        Self::with_available_parallelism()
    }
}

/// Tenant `i` of a simulated fleet as a source-generic tenant.
fn simulated<W, F>(
    i: usize,
    tenant: &TenantSpec<W>,
    make_policy: &F,
) -> (RunConfig, SimulatorSource<W>, Box<dyn ScalingPolicy>)
where
    W: Workload + Clone,
    F: Fn(usize, &TenantSpec<W>) -> Box<dyn ScalingPolicy>,
{
    (
        tenant.cfg.clone(),
        SimulatorSource::new(&tenant.cfg, &tenant.trace, tenant.workload.clone()),
        make_policy(i, tenant),
    )
}

/// Derives tenant `index`'s seed from a fleet-wide seed.
///
/// SplitMix64 over `fleet_seed + index`: statistically independent streams
/// per tenant with no shared RNG state, which is what makes fleet execution
/// order-free (see the [determinism contract](self#determinism-contract)).
pub fn tenant_seed(fleet_seed: u64, index: u64) -> u64 {
    let mut z = fleet_seed
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One tenant's closed-loop inputs.
#[derive(Debug, Clone)]
pub struct TenantSpec<W: Workload> {
    /// Run configuration; `cfg.seed` should already be tenant-specific
    /// (see [`tenant_seed`]).
    pub cfg: RunConfig,
    /// The tenant's demand trace.
    pub trace: Trace,
    /// The tenant's workload (cloned into the worker).
    pub workload: W,
}

/// Aggregated result of a full-mode fleet run, in tenant order.
///
/// Fleet-wide aggregates were folded once, shard by shard, while the run
/// executed (see [`FleetSummary`]); the helpers below read them in O(1)
/// instead of re-iterating every report.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Per-tenant reports, index-aligned with the input tenant slice.
    pub reports: Vec<RunReport>,
    /// The monoid fold over all reports, finished.
    summary: FleetSummary,
}

impl FleetReport {
    /// Number of tenants.
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// True when the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }

    /// The run's folded [`FleetSummary`] — identical to what
    /// [`FleetRunner::run_fleet_summary`] returns for the same inputs.
    pub fn fleet_summary(&self) -> &FleetSummary {
        &self.summary
    }

    /// Total cost across the fleet. O(1).
    pub fn total_cost(&self) -> f64 {
        self.summary.total_cost
    }

    /// Mean per-interval cost across all tenants' intervals. O(1).
    pub fn avg_cost_per_interval(&self) -> f64 {
        self.summary.avg_cost_per_interval()
    }

    /// Completed requests across the fleet. O(1).
    pub fn completed_total(&self) -> u64 {
        self.summary.completed_total
    }

    /// Rejected requests across the fleet. O(1).
    pub fn rejected_total(&self) -> u64 {
        self.summary.rejected_total
    }

    /// Resize operations across the fleet. O(1).
    pub fn resizes_total(&self) -> u64 {
        self.summary.resizes_total
    }

    /// Rule-fire counts merged across every tenant's run — the fleet-wide
    /// picture of which §4/§6 rules drove scaling. O(1) (from the folded
    /// registry).
    pub fn rule_histogram(&self) -> RuleHistogram {
        self.summary.metrics.rules().clone()
    }

    /// The fleet-wide [`MetricRegistry`]: every tenant's registry folded
    /// exactly during the run — bit-identical for any thread *and* shard
    /// count (timers aside; see [`MetricRegistry`]).
    pub fn fleet_metrics(&self) -> MetricRegistry {
        self.summary.metrics.clone()
    }

    /// The fleet's event stream as JSON lines, tenant by tenant — the
    /// byte stream summary mode delivers to its [`EventSink`].
    pub fn events_jsonl(&self) -> String {
        events_jsonl(self.reports.iter().flat_map(|r| &r.obs.events))
    }

    /// 95th-percentile latency over the *pooled* request population, ms —
    /// exact (full mode keeps every sample; summary mode estimates from
    /// the latency histogram instead).
    pub fn p95_ms(&self) -> Option<f64> {
        percentile(&self.pooled_latencies(), 95.0)
    }

    fn pooled_latencies(&self) -> Vec<f64> {
        let total: usize = self.reports.iter().map(|r| r.all_latencies_ms.len()).sum();
        let mut pooled = Vec::with_capacity(total);
        for r in &self.reports {
            pooled.extend_from_slice(&r.all_latencies_ms);
        }
        pooled
    }

    /// One-line fleet summary for experiment tables.
    pub fn summary(&self) -> String {
        format!(
            "fleet of {:>4}: p95 {:>8.1} ms | avg cost/interval {:>7.2} | resizes {:>5} | rejected {}",
            self.len(),
            self.p95_ms().unwrap_or(f64::NAN),
            self.avg_cost_per_interval(),
            self.resizes_total(),
            self.rejected_total(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::VecSink;
    use crate::policy::StaticPolicy;
    use dasr_workloads::{CpuIoConfig, CpuIoWorkload};

    #[test]
    fn map_preserves_order_for_any_thread_count() {
        for threads in [1, 2, 3, 8, 64] {
            let out = FleetRunner::new(threads).map(17, |i| i * i);
            let expect: Vec<usize> = (0..17).map(|i| i * i).collect();
            assert_eq!(out, expect, "threads = {threads}");
        }
    }

    #[test]
    fn map_preserves_order_for_any_shard_count() {
        for shards in [1, 2, 5, 17, 100] {
            let out = FleetRunner::new(4).with_shards(shards).map(23, |i| i + 1);
            let expect: Vec<usize> = (0..23).map(|i| i + 1).collect();
            assert_eq!(out, expect, "shards = {shards}");
        }
    }

    #[test]
    fn map_handles_degenerate_sizes() {
        let r = FleetRunner::new(4);
        assert!(r.map(0, |i| i).is_empty());
        assert_eq!(r.map(1, |i| i + 10), vec![10]);
        assert_eq!(FleetRunner::new(0).threads(), 1);
        assert_eq!(FleetRunner::new(4).with_shards(0).shard_count(8), 1);
        assert_eq!(FleetRunner::new(2).shard_count(1), 1);
        assert_eq!(FleetRunner::new(2).shard_count(100), 8);
    }

    #[test]
    fn tenant_seeds_are_distinct() {
        let seeds: std::collections::BTreeSet<u64> =
            (0..1000).map(|i| tenant_seed(0xDA5A, i)).collect();
        assert_eq!(seeds.len(), 1000);
        assert_ne!(tenant_seed(1, 0), tenant_seed(2, 0));
    }

    fn small_fleet(n: usize) -> Vec<TenantSpec<CpuIoWorkload>> {
        (0..n)
            .map(|i| TenantSpec {
                cfg: RunConfig {
                    seed: tenant_seed(7, i as u64),
                    ..RunConfig::default()
                },
                trace: Trace::new("t", vec![5.0 + i as f64; 3]),
                workload: CpuIoWorkload::new(CpuIoConfig::small()),
            })
            .collect()
    }

    fn run_full(tenants: &[TenantSpec<CpuIoWorkload>], runner: FleetRunner) -> FleetReport {
        runner.run_fleet(tenants, |_, t| {
            Box::new(StaticPolicy::max(&t.cfg.catalog)) as Box<dyn ScalingPolicy>
        })
    }

    #[test]
    fn fleet_results_are_thread_and_shard_count_invariant() {
        let tenants = small_fleet(6);
        let sequential = run_full(&tenants, FleetRunner::new(1));
        for threads in [1, 2, 4] {
            for shards in [1, 3, 17] {
                let parallel = run_full(&tenants, FleetRunner::new(threads).with_shards(shards));
                assert_eq!(
                    parallel, sequential,
                    "threads = {threads}, shards = {shards}"
                );
                assert_eq!(parallel.events_jsonl(), sequential.events_jsonl());
                assert_eq!(parallel.fleet_metrics(), sequential.fleet_metrics());
            }
        }
    }

    #[test]
    fn summary_mode_matches_full_mode() {
        let tenants = small_fleet(5);
        let full = run_full(&tenants, FleetRunner::new(2));
        for threads in [1, 3] {
            let mut sink = VecSink::default();
            let summary = FleetRunner::new(threads).with_shards(2).run_fleet_summary(
                &tenants,
                |_, t| Box::new(StaticPolicy::max(&t.cfg.catalog)) as Box<dyn ScalingPolicy>,
                &mut sink,
            );
            assert_eq!(&summary, full.fleet_summary(), "threads = {threads}");
            assert_eq!(events_jsonl(&sink.events), full.events_jsonl());
            assert_eq!(sink.events.len() as u64, summary.events_emitted);
        }
    }

    #[test]
    fn source_generic_fleet_matches_run_fleet() {
        use crate::runner::source::SimulatorSource;

        let tenants = small_fleet(5);
        let classic = run_full(&tenants, FleetRunner::new(2));
        for threads in [1, 2, 8] {
            let generic = FleetRunner::new(threads).run_fleet_sources(tenants.len(), |i| {
                let t = &tenants[i];
                let backend = SimulatorSource::new(&t.cfg, &t.trace, t.workload.clone());
                let policy = Box::new(StaticPolicy::max(&t.cfg.catalog)) as Box<dyn ScalingPolicy>;
                (t.cfg.clone(), backend, policy)
            });
            assert_eq!(generic, classic, "threads = {threads}");
            assert_eq!(generic.events_jsonl(), classic.events_jsonl());
        }
    }

    #[test]
    fn fleet_report_aggregates() {
        let tenants = small_fleet(3);
        let report = run_full(&tenants, FleetRunner::new(2));
        assert_eq!(report.len(), 3);
        assert!(!report.is_empty());
        assert_eq!(
            report.completed_total(),
            report
                .reports
                .iter()
                .map(|r| r.completed_total())
                .sum::<u64>()
        );
        assert_eq!(
            report.total_cost(),
            report
                .reports
                .iter()
                .map(|r| r.total_cost())
                .fold(dasr_stats::ExactSum::new(), |mut s, c| {
                    s.add(c);
                    s
                })
                .value()
        );
        assert_eq!(
            report.resizes_total(),
            report.reports.iter().map(|r| r.resizes).sum::<u64>()
        );
        assert!(report.total_cost() > 0.0);
        assert!(report.p95_ms().is_some());
        assert!(report.summary().contains("fleet of"));
        assert_eq!(report.fleet_summary().tenants, 3);
        // Every event carries the index of the tenant that emitted it.
        for (i, r) in report.reports.iter().enumerate() {
            assert!(!r.obs.events.is_empty(), "tenant {i} resizes to max");
            assert!(r.obs.events.iter().all(|ev| ev.tenant == Some(i as u64)));
        }
    }

    #[test]
    fn empty_fleet_is_safe_in_both_modes() {
        let tenants = small_fleet(0);
        let report = run_full(&tenants, FleetRunner::new(4));
        assert!(report.is_empty());
        assert_eq!(report.total_cost(), 0.0);
        let mut sink = VecSink::default();
        let summary = FleetRunner::new(4).run_fleet_summary(
            &tenants,
            |_, t| Box::new(StaticPolicy::max(&t.cfg.catalog)) as Box<dyn ScalingPolicy>,
            &mut sink,
        );
        assert_eq!(summary.tenants, 0);
        assert!(sink.events.is_empty());
    }
}
