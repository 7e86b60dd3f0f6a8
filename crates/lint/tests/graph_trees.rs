//! Multi-file fixture trees for the graph passes (G1/G2/G3), plus the
//! determinism contract: the serialized report is bit-identical at any
//! worker thread count.
//!
//! Each tree under `fixtures/trees/` is a miniature workspace
//! (`crates/<name>/src/*.rs`) analyzed with [`lint_tree`], exercising
//! the shapes the resolver must handle: a diamond call graph, a
//! cross-crate path call, a cross-module call under a `no-alloc`
//! marker, allocation in the marked body itself, the trait-method
//! (untyped receiver) approximation, and fns with `impl Trait` in their
//! signatures.

use dasr_lint::rules::LintRule;
use dasr_lint::{lint_tree, WorkspaceLint};
use std::path::PathBuf;

fn tree(name: &str) -> WorkspaceLint {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("trees")
        .join(name);
    lint_tree(&dir, 2).unwrap_or_else(|e| panic!("tree {name}: {e}"))
}

fn active_of(ws: &WorkspaceLint, rule: LintRule) -> Vec<String> {
    ws.active()
        .filter(|f| f.rule == rule)
        .map(|f| {
            format!(
                "{}:{} {}",
                f.file,
                f.line,
                f.detail.as_deref().unwrap_or("")
            )
        })
        .collect()
}

#[test]
fn g1_diamond_flags_once_at_the_tainted_seed() {
    let ws = tree("g1_flag");
    let g1 = active_of(&ws, LintRule::G1TransitiveTaint);
    // Two diamond arms reach the same seed: exactly ONE finding, at the
    // wall-clock line in the callee crate, witnessed by the entry.
    assert_eq!(g1.len(), 1, "diamond must not duplicate findings: {g1:?}");
    assert!(
        g1[0].contains("crates/beta/src/lib.rs") && g1[0].contains("decide"),
        "finding must sit at the seed and name the entry: {g1:?}"
    );
    // The local D1 waiver in beta does NOT silence the graph pass.
    assert_eq!(ws.waived_count(), 1, "the D1 waiver still applies locally");
}

#[test]
fn g1_unreachable_source_stays_silent() {
    let ws = tree("g1_pass");
    assert_eq!(ws.active_count(), 0, "{:?}", ws.findings);
    assert_eq!(ws.entry_fns, 1);
    assert!(ws.unused_waivers.is_empty(), "the D1 waiver is still used");
}

#[test]
fn g2_cross_module_alloc_is_flagged() {
    let ws = tree("g2_flag");
    let g2 = active_of(&ws, LintRule::G2AllocReachability);
    assert_eq!(g2.len(), 1, "{g2:?}");
    // Flagged at the call edge in the marked fn, with the chain into
    // the helper module spelled out.
    assert!(
        g2[0].contains("crates/alpha/src/lib.rs")
            && g2[0].contains("marked_hot_path")
            && g2[0].contains("helper::build"),
        "detail must show the allocating chain: {g2:?}"
    );
}

#[test]
fn g2_clean_transitive_set_passes() {
    let ws = tree("g2_pass");
    assert_eq!(ws.active_count(), 0, "{:?}", ws.findings);
    assert_eq!(ws.no_alloc_fns, 1);
}

#[test]
fn g2_direct_alloc_in_the_marked_fn_is_flagged_at_each_site() {
    let ws = tree("g2_direct");
    let g2 = active_of(&ws, LintRule::G2AllocReachability);
    // `format!`, `to_vec` and `Vec::new` in the marked `pump`, each at its
    // own line; the unmarked `new` allocates too, and stays silent.
    let lines: Vec<&str> = g2
        .iter()
        .map(|f| f.split(' ').next().unwrap_or(""))
        .collect();
    assert_eq!(
        lines,
        [
            "crates/alpha/src/lib.rs:18",
            "crates/alpha/src/lib.rs:19",
            "crates/alpha/src/lib.rs:20"
        ],
        "{g2:?}"
    );
    assert!(g2.iter().all(|f| f.contains("Pump::pump")), "{g2:?}");
    assert_eq!(ws.active_count(), 3, "{:?}", ws.findings);
}

#[test]
fn g3_trait_method_union_reaches_every_impl() {
    let ws = tree("g3_flag");
    let g3 = active_of(&ws, LintRule::G3PanicPath);
    assert_eq!(g3.len(), 1, "{g3:?}");
    // The receiver is a `&dyn Handler`; the impl lives in another crate
    // and is reached through the method-name union.
    assert!(
        g3[0].contains("crates/beta/src/lib.rs") && g3[0].contains("read_path"),
        "finding must name the entry that reaches the impl: {g3:?}"
    );
}

#[test]
fn g3_off_path_panics_stay_silent() {
    let ws = tree("g3_pass");
    assert_eq!(ws.active_count(), 0, "{:?}", ws.findings);
    assert_eq!(ws.entry_fns, 1);
}

#[test]
fn g3_reaches_fns_with_impl_trait_in_their_signature() {
    let ws = tree("g3_impl_arg_flag");
    let g3 = active_of(&ws, LintRule::G3PanicPath);
    // `with_impl(.., f: impl FnMut(u32))` indexes, `evens(..) -> impl
    // Iterator` expects: both are reached from the entry.
    assert_eq!(g3.len(), 2, "{g3:?}");
    assert!(
        g3[0].contains("crates/alpha/src/lib.rs:16") && g3[0].contains("with_impl"),
        "{g3:?}"
    );
    assert!(
        g3[1].contains("crates/alpha/src/lib.rs:20") && g3[1].contains("evens"),
        "{g3:?}"
    );
}

#[test]
fn g3_impl_trait_fns_on_a_clean_path_stay_silent() {
    let ws = tree("g3_impl_arg_pass");
    assert_eq!(ws.active_count(), 0, "{:?}", ws.findings);
    assert_eq!(ws.graph_fns, 4, "every fn is a graph node");
}

/// The acceptance bar for the parallel per-file phase: the serialized
/// report is byte-identical at 1, 2, and 8 worker threads, for both a
/// flagging tree and the real workspace.
#[test]
fn report_bytes_are_thread_count_invariant() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("trees")
        .join("g1_flag");
    let baseline = lint_tree(&dir, 1).expect("tree scan").to_jsonl();
    for threads in [2, 8] {
        let report = lint_tree(&dir, threads).expect("tree scan").to_jsonl();
        assert_eq!(report, baseline, "tree report differs at {threads} threads");
    }

    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let baseline = dasr_lint::lint_workspace_threads(&root, 1)
        .expect("workspace scan")
        .to_jsonl();
    for threads in [2, 8] {
        let report = dasr_lint::lint_workspace_threads(&root, threads)
            .expect("workspace scan")
            .to_jsonl();
        assert_eq!(
            report, baseline,
            "workspace report differs at {threads} threads"
        );
    }
}
