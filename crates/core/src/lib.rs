//! # dasr-core — demand estimation, budgeting and the auto-scaling loop
//!
//! The paper's primary contribution (§4–§6), built on the substrates in the
//! sibling crates:
//!
//! - [`estimator`] — the **resource demand estimator**: a manually
//!   constructed hierarchy of rules over categorized telemetry signals that
//!   estimates, per resource dimension, whether the workload demands a
//!   container 0, 1 or 2 rungs larger (or smaller), plus the ballooning
//!   controller for the hard low-memory-demand case (§4.3);
//! - [`budget`] — the **budget manager**: a token-bucket allocation of the
//!   tenant's budgeting-period budget onto billing intervals (§5);
//! - [`knobs`] — the tenant-facing knobs: budget, latency goal,
//!   coarse-grained performance sensitivity (§2.3);
//! - [`rules`] — the **declarative rule engine**: the §4.2/§4.3 scenarios
//!   and the §6 arbitration as static [`rules::RuleTable`]s evaluated
//!   first-match-wins, every fire carrying a stable [`rules::RuleId`];
//! - [`trace`] — the **structured decision trace**: what every decision
//!   saw (categorized signals), which rules it evaluated and fired, what
//!   it demanded vs got, and why — written out as JSON lines;
//! - [`json`] — the serde-free JSON value, writer and depth-bounded parser
//!   behind every JSON line the workspace writes or reads;
//! - [`explain`] — the human-readable explanations every decision carries
//!   (§4: "Scale-up due to a CPU bottleneck", "Scale-up constrained by
//!   budget", …), rendered from the structured trace;
//! - [`policy`] — the [`policy::ScalingPolicy`] trait, the paper's **Auto**
//!   policy (§6) and every baseline of §7.2: **Util** (utilization-only
//!   online scaler), **Max**, **Peak**, **Avg** (offline static) and
//!   **Trace** (offline demand-hugging schedule);
//! - [`runner`] — the closed loop: telemetry + policy + billing, one
//!   decision per billing interval, producing a [`report::RunReport`].
//!   One interval is one [`runner::Controller::step`]; a cloned controller
//!   is a snapshot. The drivers over it are generic over the
//!   `dasr_telemetry` source/actuator seam with the engine plugged in as
//!   [`runner::source::SimulatorSource`] (pinned bit-identical to the
//!   frozen [`runner::oracle::OracleLoop`]);
//!   [`runner::fleet`] runs N independent tenant loops across a sharded
//!   worker pool with bit-identical results regardless of thread or shard
//!   count, in full (O(tenants)) or streaming-summary (O(shards)) memory
//!   mode ([`runner::shard`]);
//! - [`mod@replay`] — record a run's per-interval samples and step them
//!   back through any policy: exact same-policy round trips,
//!   counterfactual policy A/B over recorded fleets;
//! - [`report`] — per-interval timelines and whole-run summaries (cost per
//!   interval, 95th-percentile latency, resize counts);
//! - [`obs`] — the **fleet observability layer**: a metrics registry
//!   (counters, gauges, fixed-bucket histograms) plus a structured
//!   [`obs::RunEvent`] stream, recorded per interval and merged
//!   deterministically across a fleet — the §7 aggregate-telemetry view.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must surface errors, not crash or chat on stdout:
// unwraps are for tests, printing is for the bench/lint CLIs, and
// float equality is only meaningful in the stats oracle tests.
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod budget;
pub mod estimator;
pub mod explain;
pub mod json;
pub mod knobs;
pub mod obs;
pub mod policy;
pub mod replay;
pub mod report;
pub mod rules;
pub mod runner;
pub mod trace;

pub use budget::{BudgetManager, BudgetStrategy};
pub use estimator::{DemandEstimate, DemandEstimator, EstimatorConfig};
pub use explain::Explanation;
pub use knobs::{PerfSensitivity, TenantKnobs};
pub use obs::{
    CounterId, EventKind, EventSink, GaugeId, HistogramId, MetricRegistry, MetricsAccumulator,
    NullSink, RunEvent, RunObservability, TimerId, VecSink,
};
pub use policy::{
    AutoPolicy, BalloonCommand, BalloonStatus, PolicyContext, PolicyDecision, ScalingPolicy,
    SchedulePolicy, StaticPolicy, UtilPolicy,
};
pub use replay::{
    record_run, replay, RecordingHeader, ReplayDiff, ReplaySource, RunRecording, SampleRecord,
};
pub use report::{IntervalRecord, RunReport};
pub use rules::{RuleFire, RuleHistogram, RuleId, RuleTable};
pub use runner::fleet::{tenant_seed, FleetReport, FleetRunner, TenantSpec};
pub use runner::oracle::OracleLoop;
pub use runner::ordered::ordered_shards;
pub use runner::shard::{FleetAccumulator, FleetSummary, REQUEST_LATENCY_BOUNDS};
pub use runner::source::SimulatorSource;
pub use runner::{ClosedLoop, Controller, RunConfig, Step};
pub use trace::{BalloonGate, DecisionTrace};
