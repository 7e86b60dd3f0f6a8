//! `dasr-lint` — the workspace invariant linter.
//!
//! A dependency-free static-analysis pass (hand-rolled token scanner, no
//! `syn`, no crates.io) that enforces the project's determinism,
//! render-from-structure, and hot-path allocation rules over the
//! workspace source. The invariants it pins are the ones the whole
//! verification story rests on — oracle equivalence, 1/2/8-thread
//! bit-identity, trace-derived histograms — moved from "a property test
//! might catch it" to "CI fails the moment a PR writes it".
//!
//! Analysis runs in two phases:
//!
//! 1. **Per-file** (parallel): the token rules — **D1** no wall clock
//!    outside `core::obs`, **D2** no `HashMap`/`HashSet` iteration in
//!    deterministic modules, **D3** no ambient randomness outside
//!    tests, **R1** no `String` fields stored in trace/event/metric
//!    types, **F1** no NaN-unsafe float ordering outside the stats
//!    kernels, **W1** malformed waivers — plus the item parser
//!    ([`parser`]) that extracts functions, calls, and `use` aliases.
//! 2. **Workspace graph** (sequential, deterministic): the approximate
//!    call graph ([`graph`]) and the propagation passes ([`passes`]) —
//!    **G1** transitive determinism taint from `entry(G1)` functions,
//!    **G2** allocation under `no-alloc` markers, in the marked body or
//!    through any callee, **G3** panic paths from `entry(G3)` functions.
//!
//! File parsing fans out across threads, but findings are merged and
//! sorted in (path, line, rule) order — reports are byte-identical at
//! any thread count. The linter satisfies its own determinism bar.
//!
//! Violations are waived in place with a mandatory reason:
//!
//! ```text
//! // dasr-lint: allow(D2) reason="order-independent sum over values"
//! ```
//!
//! A standalone waiver comment covers findings on the line below it; a
//! trailing waiver comment covers its own line. Waivers are counted and
//! reported, and a missing reason is itself a finding (rule W1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod graph;
pub mod lexer;
pub mod parser;
pub mod passes;
pub mod rules;

use lexer::Directive;
use rules::{LintRule, Scope};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

pub use dasr_core::json::Json;

/// One lint finding, waived or active.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// The violated rule.
    pub rule: LintRule,
    /// The trimmed source line (truncated to 160 chars).
    pub snippet: String,
    /// Whether an in-source waiver covers this finding.
    pub waived: bool,
    /// The waiver's reason, when waived.
    pub reason: Option<String>,
    /// Graph-pass explanation (witness entry, allocation chain, site
    /// counts); `None` for token-rule findings.
    pub detail: Option<String>,
}

impl Finding {
    /// Serializes the finding as one JSON object (one JSONL row).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("file".to_string(), Json::Str(self.file.clone())),
            ("line".to_string(), Json::Num(f64::from(self.line))),
            ("rule".to_string(), Json::Str(self.rule.name().to_string())),
            ("snippet".to_string(), Json::Str(self.snippet.clone())),
            ("waived".to_string(), Json::Bool(self.waived)),
        ];
        if let Some(reason) = &self.reason {
            fields.push(("reason".to_string(), Json::Str(reason.clone())));
        }
        if let Some(detail) = &self.detail {
            fields.push(("detail".to_string(), Json::Str(detail.clone())));
        }
        Json::Obj(fields)
    }
}

/// Lint result for one file.
#[derive(Debug, Default)]
pub struct FileLint {
    /// All findings, sorted by line then rule.
    pub findings: Vec<Finding>,
    /// Lines of well-formed waivers that matched no finding.
    pub unused_waivers: Vec<u32>,
}

/// Classifies a workspace-relative path into a rule [`Scope`].
pub fn classify(rel: &str) -> Scope {
    let deterministic = [
        "crates/core/src",
        "crates/engine/src",
        "crates/fleet/src",
        "crates/stats/src",
        "crates/store/src",
    ]
    .iter()
    .any(|p| rel.starts_with(p));
    Scope {
        deterministic,
        wallclock_exempt: rel.starts_with("crates/core/src/obs"),
        float_exempt: rel.starts_with("crates/stats/src"),
    }
}

fn snippet_of(src_lines: &[&str], line: u32) -> String {
    let text = src_lines.get(line as usize - 1).map_or("", |s| s.trim());
    let mut s = String::with_capacity(text.len().min(160));
    for c in text.chars().take(160) {
        s.push(c);
    }
    s
}

/// A well-formed waiver awaiting findings to cover.
#[derive(Debug)]
struct ParsedWaiver {
    /// The line the directive sits on (for unused-waiver reports).
    line: u32,
    /// The line the waiver *covers*: its own line for a trailing
    /// comment, the next line for a standalone comment line.
    covers: u32,
    rules: Vec<LintRule>,
    reason: String,
    used: bool,
}

/// A raw finding awaiting waiver application: line, rule, graph detail.
type PendingFinding = (u32, LintRule, Option<String>);

/// Phase-1 output for one file: everything the graph phase and the
/// final waiver application need.
#[derive(Debug, Default)]
struct FileUnit {
    rel: String,
    src: String,
    parsed: parser::ParsedFile,
    /// Token-rule findings (line, rule, no detail).
    raw: Vec<PendingFinding>,
    /// Lines of malformed directives (rule W1, never waivable).
    w1_lines: Vec<u32>,
    waivers: Vec<ParsedWaiver>,
}

/// Lexes, scans, and parses one file (phase 1; thread-safe).
fn analyze_file(rel: &str, src: String, scope: Scope) -> FileUnit {
    let lexed = lexer::lex(&src);
    let in_test = rules::test_mask(&lexed.tokens);
    let raw = rules::scan(&lexed.tokens, &in_test, scope);

    let mut unit = FileUnit {
        rel: rel.to_string(),
        raw: raw.iter().map(|f| (f.line, f.rule, None)).collect(),
        ..FileUnit::default()
    };
    for d in &lexed.directives {
        match d {
            Directive::NoAlloc { .. } | Directive::Entry { .. } => {}
            Directive::Unknown { line, .. } => unit.w1_lines.push(*line),
            Directive::Allow {
                line,
                rules: names,
                reason,
            } => {
                let parsed: Option<Vec<LintRule>> =
                    names.iter().map(|n| LintRule::from_name(n)).collect();
                match (parsed, reason) {
                    (Some(rules), Some(reason))
                        if !rules.is_empty() && !reason.trim().is_empty() =>
                    {
                        // A standalone comment line waives the line
                        // below; a trailing comment waives its own line.
                        let standalone = !lexed.tokens.iter().any(|t| t.line == *line);
                        unit.waivers.push(ParsedWaiver {
                            line: *line,
                            covers: if standalone { *line + 1 } else { *line },
                            rules,
                            reason: reason.clone(),
                            used: false,
                        });
                    }
                    // Unknown rule, empty rule list, or missing/empty
                    // reason: the waiver itself is the violation.
                    _ => unit.w1_lines.push(*line),
                }
            }
        }
    }

    unit.parsed = parser::parse_tokens(rel, &lexed.tokens, &in_test, &lexed.directives);
    // Entry directives that attached to nothing or named non-graph
    // rules are malformed (W1), same as bad waivers.
    unit.w1_lines
        .extend(unit.parsed.bad_entries.iter().copied());
    unit.src = src;
    unit
}

/// Applies this file's waivers to its pending findings (token + graph)
/// and renders them, sorted by (line, rule, detail). W1 is never
/// waivable.
fn file_findings(unit: &mut FileUnit, graph_findings: Vec<PendingFinding>) -> FileLint {
    let mut pending: Vec<PendingFinding> = std::mem::take(&mut unit.raw);
    pending.extend(
        unit.w1_lines
            .iter()
            .map(|&l| (l, LintRule::W1MalformedWaiver, None)),
    );
    pending.extend(graph_findings);
    pending.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)).then(a.2.cmp(&b.2)));

    let src_lines: Vec<&str> = unit.src.lines().collect();
    let mut findings = Vec::with_capacity(pending.len());
    for (line, rule, detail) in pending {
        let mut waived = false;
        let mut reason = None;
        if rule != LintRule::W1MalformedWaiver {
            for w in unit.waivers.iter_mut() {
                if w.covers == line && w.rules.contains(&rule) {
                    waived = true;
                    reason = Some(w.reason.clone());
                    w.used = true;
                    break;
                }
            }
        }
        findings.push(Finding {
            file: unit.rel.clone(),
            line,
            rule,
            snippet: snippet_of(&src_lines, line),
            waived,
            reason,
            detail,
        });
    }
    FileLint {
        findings,
        unused_waivers: unit
            .waivers
            .iter()
            .filter(|w| !w.used)
            .map(|w| w.line)
            .collect(),
    }
}

/// Lints one file's source text under the scope for `rel_path` — token
/// rules and directive validation only (no workspace graph; graph rules
/// need the multi-file pipeline, see [`lint_paths`]).
pub fn lint_source(rel_path: &str, src: &str, scope: Scope) -> FileLint {
    let mut unit = analyze_file(rel_path, src.to_string(), scope);
    file_findings(&mut unit, Vec::new())
}

/// Aggregate lint result over a workspace tree.
#[derive(Debug, Default)]
pub struct WorkspaceLint {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// All findings across all files, in (file, line, rule) order.
    pub findings: Vec<Finding>,
    /// `(file, line)` of well-formed waivers that matched no finding.
    pub unused_waivers: Vec<(String, u32)>,
    /// Functions carrying a `// dasr-lint: entry(...)` marker.
    pub entry_fns: usize,
    /// Functions carrying a `// dasr-lint: no-alloc` marker.
    pub no_alloc_fns: usize,
    /// Total function items in the symbol graph.
    pub graph_fns: usize,
}

impl WorkspaceLint {
    /// Findings not covered by a waiver (these fail `--deny-all`).
    pub fn active(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.waived)
    }

    /// Number of active (unwaived) findings.
    pub fn active_count(&self) -> usize {
        self.active().count()
    }

    /// Number of waived findings.
    pub fn waived_count(&self) -> usize {
        self.findings.iter().filter(|f| f.waived).count()
    }

    /// Serializes every finding as JSONL (one object per line).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.to_json().write());
            out.push('\n');
        }
        out
    }

    /// Merges another result (used by the CLI for mixed file/dir args).
    pub fn merge(&mut self, other: WorkspaceLint) {
        self.files_scanned += other.files_scanned;
        self.findings.extend(other.findings);
        self.unused_waivers.extend(other.unused_waivers);
        self.entry_fns += other.entry_fns;
        self.no_alloc_fns += other.no_alloc_fns;
        self.graph_fns += other.graph_fns;
    }
}

/// Source roots scanned inside a workspace: the facade crate plus every
/// `crates/*` library. Vendored shims and lint fixtures are deliberately
/// excluded.
fn source_roots(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut roots = Vec::new();
    let facade = root.join("src");
    if facade.is_dir() {
        roots.push(facade);
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&crates)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for entry in entries {
            let src = entry.join("src");
            if src.is_dir() {
                roots.push(src);
            }
        }
    }
    Ok(roots)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for entry in entries {
        if entry.is_dir() {
            collect_rs_files(&entry, out)?;
        } else if entry.extension().is_some_and(|e| e == "rs") {
            out.push(entry);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let mut s = String::new();
    for comp in rel.components() {
        if !s.is_empty() {
            s.push('/');
        }
        s.push_str(&comp.as_os_str().to_string_lossy());
    }
    s
}

/// Default worker count for the per-file phase: available parallelism,
/// capped at 8 (the scan is short; more threads only add contention).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(8)
}

/// Runs the full two-phase pipeline over an explicit file list.
///
/// Phase 1 fans files out over `threads` workers via a shared cursor;
/// results land in a slot-per-file vector, so the merge order — and
/// therefore the report bytes — do not depend on the thread count or
/// scheduling. Phase 2 (graph build + passes) is sequential over the
/// path-sorted units.
///
/// `strict` lints every file under [`Scope::strict`] (fixture trees and
/// explicit CLI file args); otherwise each file is classified by its
/// workspace-relative path.
pub fn lint_paths(
    root: &Path,
    files: &[PathBuf],
    strict: bool,
    threads: usize,
) -> std::io::Result<WorkspaceLint> {
    let mut jobs: Vec<(String, PathBuf)> = files
        .iter()
        .map(|p| (rel_path(root, p), p.clone()))
        .collect();
    jobs.sort_by(|a, b| a.0.cmp(&b.0));
    jobs.dedup_by(|a, b| a.0 == b.0);

    let n = jobs.len();
    let workers = threads.clamp(1, n.max(1));
    let cursor = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<std::io::Result<FileUnit>>>> =
        Mutex::new((0..n).map(|_| None).collect());

    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let (rel, path) = &jobs[i];
                let scope = if strict {
                    Scope::strict()
                } else {
                    classify(rel)
                };
                let unit = std::fs::read_to_string(path).map(|src| analyze_file(rel, src, scope));
                slots.lock().expect("lint worker panicked")[i] = Some(unit);
            });
        }
    });

    let mut units: Vec<FileUnit> = Vec::with_capacity(n);
    for slot in slots.into_inner().expect("lint worker panicked") {
        units.push(slot.expect("cursor covered every slot")?);
    }
    Ok(finalize(units))
}

/// Phase 2: builds the symbol graph over all units, runs the graph
/// passes, applies waivers per file, and merges everything in
/// deterministic (file, line, rule) order.
fn finalize(mut units: Vec<FileUnit>) -> WorkspaceLint {
    let parsed: Vec<(String, parser::ParsedFile)> = units
        .iter_mut()
        .map(|u| (u.rel.clone(), std::mem::take(&mut u.parsed)))
        .collect();
    let g = graph::SymbolGraph::build(parsed);
    let graph_findings = passes::run_graph_passes(&g);

    // Group graph findings per file index (unit order == g.files order).
    let mut per_file: Vec<Vec<PendingFinding>> = (0..units.len()).map(|_| Vec::new()).collect();
    for f in graph_findings {
        per_file[f.file].push((f.line, f.rule, Some(f.detail)));
    }

    let mut ws = WorkspaceLint {
        files_scanned: units.len(),
        graph_fns: g.nodes.len(),
        ..WorkspaceLint::default()
    };
    for n in &g.nodes {
        if !n.item.entries.is_empty() {
            ws.entry_fns += 1;
        }
        if n.item.no_alloc {
            ws.no_alloc_fns += 1;
        }
    }
    for (unit, gf) in units.iter_mut().zip(per_file) {
        let file = file_findings(unit, gf);
        ws.findings.extend(file.findings);
        ws.unused_waivers.extend(
            file.unused_waivers
                .into_iter()
                .map(|l| (unit.rel.clone(), l)),
        );
    }
    ws
}

/// Lints every `.rs` file under the workspace source roots of `root`
/// (`src/` and `crates/*/src/`), classifying each by path, with the
/// default thread count.
pub fn lint_workspace(root: &Path) -> std::io::Result<WorkspaceLint> {
    lint_workspace_threads(root, default_threads())
}

/// [`lint_workspace`] with an explicit phase-1 thread count. Reports
/// are byte-identical across thread counts.
pub fn lint_workspace_threads(root: &Path, threads: usize) -> std::io::Result<WorkspaceLint> {
    let mut files = Vec::new();
    for src_root in source_roots(root)? {
        collect_rs_files(&src_root, &mut files)?;
    }
    lint_paths(root, &files, false, threads)
}

/// Lints a standalone directory tree (fixture trees, experiments):
/// every `.rs` file below `dir`, all under the strictest scope, with
/// the full graph pipeline. Paths in the report are relative to `dir`.
pub fn lint_tree(dir: &Path, threads: usize) -> std::io::Result<WorkspaceLint> {
    let mut files = Vec::new();
    collect_rs_files(dir, &mut files)?;
    lint_paths(dir, &files, true, threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_scopes() {
        assert!(classify("crates/engine/src/locks.rs").deterministic);
        assert!(!classify("crates/engine/src/locks.rs").wallclock_exempt);
        assert!(classify("crates/core/src/obs/metrics.rs").wallclock_exempt);
        assert!(classify("crates/stats/src/quantile.rs").float_exempt);
        assert!(classify("crates/store/src/record.rs").deterministic);
        assert!(!classify("crates/store/src/record.rs").float_exempt);
        // The read fast path decodes and prunes deterministically too.
        assert!(classify("crates/store/src/cursor.rs").deterministic);
        assert!(classify("crates/store/src/codec.rs").deterministic);
        assert!(!classify("crates/telemetry/src/lib.rs").deterministic);
        assert!(!classify("src/lib.rs").deterministic);
    }

    #[test]
    fn waiver_covers_same_and_next_line() {
        let src = "\
fn f() {\n\
    // dasr-lint: allow(D1) reason=\"profiling scratch\"\n\
    let t = std::time::Instant::now();\n\
    let u = std::time::Instant::now(); // dasr-lint: allow(D1) reason=\"same line\"\n\
    let v = std::time::Instant::now();\n\
}\n";
        let lint = lint_source("crates/core/src/x.rs", src, Scope::strict());
        let waived: Vec<bool> = lint.findings.iter().map(|f| f.waived).collect();
        assert_eq!(waived, vec![true, true, false]);
        assert!(lint.unused_waivers.is_empty());
        assert_eq!(
            lint.findings[0].reason.as_deref(),
            Some("profiling scratch")
        );
    }

    #[test]
    fn missing_reason_is_w1() {
        let src = "// dasr-lint: allow(D2)\nfn f() {}\n";
        let lint = lint_source("crates/core/src/x.rs", src, Scope::strict());
        assert_eq!(lint.findings.len(), 1);
        assert_eq!(lint.findings[0].rule, LintRule::W1MalformedWaiver);
        assert!(!lint.findings[0].waived);
    }

    #[test]
    fn unknown_rule_is_w1() {
        let src = "// dasr-lint: allow(Z9) reason=\"nope\"\nfn f() {}\n";
        let lint = lint_source("crates/core/src/x.rs", src, Scope::strict());
        assert_eq!(lint.findings.len(), 1);
        assert_eq!(lint.findings[0].rule, LintRule::W1MalformedWaiver);
    }

    #[test]
    fn w1_cannot_be_waived() {
        let src = "\
// dasr-lint: allow(W1) reason=\"try to waive the waiver rule\"\n\
// dasr-lint: allow(D2)\n\
fn f() {}\n";
        let lint = lint_source("crates/core/src/x.rs", src, Scope::strict());
        let w1: Vec<&Finding> = lint
            .findings
            .iter()
            .filter(|f| f.rule == LintRule::W1MalformedWaiver)
            .collect();
        assert_eq!(w1.len(), 1);
        assert!(!w1[0].waived);
    }

    #[test]
    fn unused_waiver_is_reported() {
        let src = "// dasr-lint: allow(D1) reason=\"stale\"\nfn f() {}\n";
        let lint = lint_source("crates/core/src/x.rs", src, Scope::strict());
        assert!(lint.findings.is_empty());
        assert_eq!(lint.unused_waivers, vec![1]);
    }

    #[test]
    fn malformed_entry_is_w1() {
        let src = "// dasr-lint: entry(D1)\nfn f() {}\n";
        let lint = lint_source("crates/core/src/x.rs", src, Scope::strict());
        assert_eq!(lint.findings.len(), 1);
        assert_eq!(lint.findings[0].rule, LintRule::W1MalformedWaiver);
        let dangling = "// dasr-lint: entry(G1)\nconst X: u32 = 1;\n";
        let lint = lint_source("crates/core/src/x.rs", dangling, Scope::strict());
        assert_eq!(lint.findings.len(), 1);
        assert_eq!(lint.findings[0].rule, LintRule::W1MalformedWaiver);
    }

    #[test]
    fn findings_serialize_to_jsonl() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        let lint = lint_source("crates/core/src/x.rs", src, Scope::strict());
        let json = lint.findings[0].to_json().write();
        let parsed = dasr_core::json::parse(&json).unwrap();
        assert_eq!(parsed.get("rule").unwrap().str().unwrap(), "D1-wall-clock");
        assert_eq!(parsed.get("line").unwrap().num().unwrap(), 1.0);
        assert!(!parsed.get("waived").unwrap().bool().unwrap());
    }

    #[test]
    fn graph_findings_carry_detail_and_are_waivable() {
        let dir = std::env::temp_dir().join("dasr_lint_detail_test");
        let src_dir = dir.join("crates/a/src");
        std::fs::create_dir_all(&src_dir).unwrap();
        std::fs::write(
            src_dir.join("lib.rs"),
            "// dasr-lint: entry(G3)\nfn dispatch(xs: &[u32]) { decode(xs); }\n\
             fn decode(xs: &[u32]) {\n    // dasr-lint: allow(G3) reason=\"len-checked by caller\"\n    let a = xs[0];\n}\n",
        )
        .unwrap();
        let ws = lint_tree(&dir, 1).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(ws.active_count(), 0);
        assert_eq!(ws.waived_count(), 1);
        let f = &ws.findings[0];
        assert_eq!(f.rule, LintRule::G3PanicPath);
        assert!(f.detail.as_deref().unwrap().contains("dasr_a::dispatch"));
        assert_eq!(f.reason.as_deref(), Some("len-checked by caller"));
        assert_eq!(ws.entry_fns, 1);
    }
}
