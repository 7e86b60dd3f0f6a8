//! Every workload and metric name the binary can emit, with its unit and
//! direction. `BENCHMARK.json` declares the same lists; a unit test parses
//! that file and fails on any difference in either direction.

/// The contract file, baked in at build time so `compare` and the tests
/// read the bounds the binary was built against.
pub const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

/// A declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Workload names, in `--workload all` order.
pub const WORKLOADS: [&str; 4] = [
    "fleet_day_mixed",
    "fleet_peak_contended",
    "control_replay",
    "store_archive",
];

/// End-to-end metrics: reported by every workload, from the untraced pass.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("tenant_intervals_per_s", "1/s", "higher"),
    m("query_mix_per_s", "1/s", "higher"),
    m("peak_rss_mib", "MiB", "lower"),
    m("store_bytes_per_tenant_day", "B", "lower"),
    m("sim_cost_per_tenant_interval", "cost", "lower"),
    m("sim_goal_met_share", "share", "higher"),
];

/// End-to-end metrics that are a function of the seed alone: identical on
/// every run of one seed unless the program's behaviour changed, so
/// `compare` judges them pair by pair at equal seed and by identity. The
/// bounds `BENCHMARK.json` gives them gate only medians across seeds.
pub const EXACT_AT_EQUAL_SEED: [&str; 3] = [
    "store_bytes_per_tenant_day",
    "sim_cost_per_tenant_interval",
    "sim_goal_met_share",
];

/// Per-layer metrics: reported by every workload, from the traced pass
/// (a layer a workload does not touch reports 0).
pub const PER_LAYER: &[MetricDef] = &[
    // dasr-workloads
    m("workloads.generate_s", "s", "lower"),
    m("workloads.requests", "count", "lower"),
    m("workloads.ns_per_request", "ns", "lower"),
    // dasr-engine
    m("engine.setup_s", "s", "lower"),
    m("engine.submit_s", "s", "lower"),
    m("engine.pump_s", "s", "lower"),
    m("engine.end_interval_s", "s", "lower"),
    m("engine.requests_completed", "count", "higher"),
    m("engine.ns_per_request", "ns", "lower"),
    m("engine.pump_us_per_interval_p50", "us", "lower"),
    m("engine.pump_us_per_interval_p99", "us", "lower"),
    m("engine.idle_interval_share", "share", "higher"),
    m("engine.low_rate_interval_share", "share", "higher"),
    m("engine.resizes_applied", "count", "lower"),
    m("engine.balloon_cmds", "count", "lower"),
    // dasr-telemetry
    m("telemetry.sample_s", "s", "lower"),
    m("telemetry.signals_s", "s", "lower"),
    m("telemetry.signals_ns_per_interval", "ns", "lower"),
    // dasr-core: policy, runner, replay, fleet scheduler
    m("core.policy.decide_s", "s", "lower"),
    m("core.policy.decide_ns_p50", "ns", "lower"),
    m("core.policy.decide_ns_p99", "ns", "lower"),
    m("core.policy.rule_fires", "count", "lower"),
    m("core.policy.resizes", "count", "lower"),
    m("core.policy.budget_throttles", "count", "lower"),
    m("core.policy.slo_violations", "count", "lower"),
    m("core.runner.loop_self_s", "s", "lower"),
    m("core.runner.loop_self_ns_per_interval", "ns", "lower"),
    m("core.replay.observe_s", "s", "lower"),
    m("core.fleet.worker_busy_share", "share", "higher"),
    m("core.fleet.makespan_over_ideal", "ratio", "lower"),
    m("core.fleet.tenant_run_ms_p50", "ms", "lower"),
    m("core.fleet.tenant_run_ms_p95", "ms", "lower"),
    m("core.fleet.tenant_run_ms_max", "ms", "lower"),
    // dasr-fleet
    m("fleet.synthesize_s", "s", "lower"),
    // dasr-store, write side
    m("store.sink.emit_s", "s", "lower"),
    m("store.sink.events", "count", "lower"),
    m("store.append_s", "s", "lower"),
    m("store.flush_s", "s", "lower"),
    m("store.ingest_records_per_s", "1/s", "higher"),
    m("store.bytes_written", "B", "lower"),
    m("store.bytes_per_record", "B", "lower"),
    m("store.batches", "count", "lower"),
    m("store.segments", "count", "lower"),
    m("store.index_bytes", "B", "lower"),
    // dasr-store, read side
    m("store.open_ms", "ms", "lower"),
    m("store.q_window_scan_ms_p50", "ms", "lower"),
    m("store.q_window_scan_ms_p95", "ms", "lower"),
    m("store.q_stream_tenant_ms_p50", "ms", "lower"),
    m("store.q_stream_tenant_ms_p99", "ms", "lower"),
    m("store.q_tenant_events_ms_p50", "ms", "lower"),
    m("store.q_tenant_events_ms_p99", "ms", "lower"),
    m("store.q_fire_counts_ms_p50", "ms", "lower"),
    m("store.q_fire_counts_ms_p95", "ms", "lower"),
    m("store.q_load_recording_ms_p50", "ms", "lower"),
    m("store.q_load_recording_ms_p99", "ms", "lower"),
    m("store.records_returned", "count", "higher"),
    // the benchmark itself
    m("bench.traced_wall_ratio", "ratio", "lower"),
    m("bench.span_closure_error", "ratio", "lower"),
];

/// Measured values keyed by declared name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Records `value` for `name`.
    ///
    /// # Panics
    /// Panics if `name` is in neither table — an undeclared metric is a
    /// bug in the benchmark, not a measurement.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not declared in names.rs"));
        self.0.retain(|(n, _)| *n != def.name);
        self.0.push((def.name, value));
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dasr_core::json::{self, Json};

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut all: Vec<&str> = WORKLOADS.to_vec();
        all.extend(END_TO_END.iter().chain(PER_LAYER).map(|d| d.name));
        for name in &all {
            assert!(well_formed(name), "bad name {name:?}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "a name is used twice");
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(matches!(d.better, "higher" | "lower"), "{}", d.name);
            assert!(d.unit.len() <= 16, "{}", d.name);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    fn declared(list: &Json, with_bound: bool) -> Vec<(String, String, String)> {
        list.arr()
            .unwrap()
            .iter()
            .map(|e| {
                if with_bound {
                    let bound = e.get("bound").unwrap().num().unwrap();
                    assert!(bound > 0.0 && bound <= 0.25, "bound {bound} out of range");
                }
                (
                    e.get("name").unwrap().str().unwrap().to_string(),
                    e.get("unit").unwrap().str().unwrap().to_string(),
                    e.get("better").unwrap().str().unwrap().to_string(),
                )
            })
            .collect()
    }

    fn emitted(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
            .collect()
    }

    /// Every name the binary can emit is declared in `BENCHMARK.json`,
    /// and vice versa — same order, unit and direction.
    #[test]
    fn benchmark_json_declares_exactly_what_the_binary_emits() {
        let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let workloads: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .arr()
            .unwrap()
            .iter()
            .map(|w| {
                assert!(w.get("why").unwrap().str().unwrap().len() <= 200);
                w.get("name").unwrap().str().unwrap()
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(
            declared(doc.get("end_to_end").unwrap(), true),
            emitted(END_TO_END)
        );
        assert_eq!(
            declared(doc.get("per_layer").unwrap(), false),
            emitted(PER_LAYER)
        );
        let Json::Obj(fields) = &doc else {
            panic!("BENCHMARK.json is not an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }

    /// The non-comment lines of `[section]` in a manifest.
    fn section<'a>(manifest: &'a str, name: &str) -> Vec<&'a str> {
        manifest
            .lines()
            .map(str::trim)
            .skip_while(|l| *l != format!("[{name}]"))
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect()
    }

    /// `main.rs` builds from two manifests: `dasr-bench`'s (tests, clippy,
    /// `dasr-lint`) and the stand-alone one beside it (what `BENCHMARK.json`
    /// runs). They must not drift: the same dependencies, at the paths the
    /// workspace root gives them, under the same release profile — so the
    /// build that is measured is the build the tests cover.
    #[test]
    fn stand_alone_manifest_matches_the_workspace_build() {
        let own = include_str!("Cargo.toml");
        let bench = include_str!("../../../Cargo.toml");
        let root = include_str!("../../../../../Cargo.toml");
        // From this directory to the repository root.
        let up = "../../../../../";

        let expected: Vec<String> = section(bench, "dependencies")
            .iter()
            .map(|line| {
                let name = line.strip_suffix(".workspace = true").expect(line);
                let at_root = section(root, "workspace.dependencies")
                    .into_iter()
                    .find(|l| l.starts_with(&format!("{name} = ")))
                    .unwrap_or_else(|| panic!("{name} is not a workspace dependency"));
                at_root.replace("path = \"", &format!("path = \"{up}"))
            })
            .collect();
        assert_eq!(section(own, "dependencies"), expected);
        assert_eq!(
            section(own, "profile.release"),
            section(root, "profile.release")
        );
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_panics() {
        Metrics::default().set("made.up", 1.0);
    }
}
