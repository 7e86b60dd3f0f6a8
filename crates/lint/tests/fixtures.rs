//! Fixture-based self-tests: every rule has a `should_flag` and a
//! `should_pass` fixture, linted under the strictest scope; the binary
//! is exercised too so `--deny-all` exit codes stay honest.

use dasr_lint::rules::{LintRule, Scope};
use dasr_lint::{lint_source, Finding};
use std::path::PathBuf;

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name}: {e}"))
}

/// Lints a fixture as if it lived in a deterministic module.
fn lint_fixture(name: &str) -> Vec<Finding> {
    lint_source(
        &format!("crates/lint/fixtures/{name}"),
        &fixture(name),
        Scope::strict(),
    )
    .findings
}

fn active_rules(findings: &[Finding]) -> Vec<LintRule> {
    findings
        .iter()
        .filter(|f| !f.waived)
        .map(|f| f.rule)
        .collect()
}

#[test]
fn d1_fixtures() {
    let flagged = active_rules(&lint_fixture("d1_flag.rs"));
    assert!(!flagged.is_empty() && flagged.iter().all(|&r| r == LintRule::D1WallClock));
    assert_eq!(flagged.len(), 2, "Instant::now + SystemTime");
    assert!(lint_fixture("d1_pass.rs").is_empty());
}

#[test]
fn d2_fixtures() {
    let flagged = active_rules(&lint_fixture("d2_flag.rs"));
    assert!(flagged.iter().all(|&r| r == LintRule::D2MapIteration));
    assert_eq!(flagged.len(), 3, "for-loop + drain + keys");
    assert!(lint_fixture("d2_pass.rs").is_empty());
}

#[test]
fn d3_fixtures() {
    let flagged = active_rules(&lint_fixture("d3_flag.rs"));
    assert!(flagged.iter().all(|&r| r == LintRule::D3AmbientRandomness));
    assert_eq!(flagged.len(), 3, "thread_rng + rand::random + from_entropy");
    assert!(lint_fixture("d3_pass.rs").is_empty());
}

#[test]
fn r1_fixtures() {
    let flagged = active_rules(&lint_fixture("r1_flag.rs"));
    assert!(flagged.iter().all(|&r| r == LintRule::R1StoredText));
    assert_eq!(flagged.len(), 2, "struct field + enum payload");
    assert!(lint_fixture("r1_pass.rs").is_empty());
}

#[test]
fn f1_fixtures() {
    let flagged = active_rules(&lint_fixture("f1_flag.rs"));
    assert!(flagged.iter().all(|&r| r == LintRule::F1NanUnsafeOrder));
    assert_eq!(flagged.len(), 2, "unwrap + expect");
    assert!(lint_fixture("f1_pass.rs").is_empty());
}

#[test]
fn waiver_fixtures() {
    // Malformed waivers: each is a W1, and the unwaived D1 stays active.
    let findings = lint_fixture("waiver_flag.rs");
    let w1 = findings
        .iter()
        .filter(|f| f.rule == LintRule::W1MalformedWaiver)
        .count();
    assert_eq!(w1, 4, "missing reason, empty reason, unknown rule, junk");
    assert!(findings
        .iter()
        .any(|f| f.rule == LintRule::D1WallClock && !f.waived));

    // Well-formed waiver: finding present, waived, reason carried.
    let findings = lint_fixture("waiver_pass.rs");
    assert_eq!(findings.len(), 1);
    assert!(findings[0].waived);
    assert!(findings[0]
        .reason
        .as_deref()
        .unwrap()
        .contains("determinism contract"));
    assert!(active_rules(&findings).is_empty());
}

/// The binary's `--deny-all` exit code is exactly 1 on every
/// should_flag fixture and 0 on every should_pass fixture — 1 means
/// "findings", reserving 2 for internal errors.
#[test]
fn deny_all_exit_codes() {
    let fixtures_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    for (name, should_fail) in [
        ("d1_flag.rs", true),
        ("d2_flag.rs", true),
        ("d3_flag.rs", true),
        ("r1_flag.rs", true),
        ("f1_flag.rs", true),
        ("waiver_flag.rs", true),
        ("d1_pass.rs", false),
        ("d2_pass.rs", false),
        ("d3_pass.rs", false),
        ("r1_pass.rs", false),
        ("f1_pass.rs", false),
        ("waiver_pass.rs", false),
    ] {
        let status = std::process::Command::new(env!("CARGO_BIN_EXE_dasr-lint"))
            .arg("--deny-all")
            .arg(fixtures_dir.join(name))
            .status()
            .expect("run dasr-lint");
        let want = if should_fail { 1 } else { 0 };
        assert_eq!(
            status.code(),
            Some(want),
            "unexpected exit for fixture {name}"
        );
    }
}

/// Internal errors (unreadable input, bad flags, unknown rules) exit 2,
/// distinguishable from "findings" (1) in CI scripts.
#[test]
fn internal_errors_exit_2() {
    let bin = env!("CARGO_BIN_EXE_dasr-lint");
    for args in [
        vec!["--deny-all", "no/such/file.rs"],
        vec!["--threads", "0"],
        vec!["--threads", "many"],
        vec!["--explain", "Z9"],
        vec!["--no-such-flag"],
    ] {
        let out = std::process::Command::new(bin)
            .args(&args)
            .output()
            .expect("run dasr-lint");
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        assert!(
            !out.stderr.is_empty(),
            "args {args:?} must explain on stderr"
        );
    }
}

/// `--explain` prints each rule's rationale and a waiver example, and
/// exits 0 without scanning anything.
#[test]
fn explain_covers_every_rule() {
    let bin = env!("CARGO_BIN_EXE_dasr-lint");
    for rule in LintRule::ALL {
        let out = std::process::Command::new(bin)
            .args(["--explain", rule.code()])
            .output()
            .expect("run dasr-lint");
        assert_eq!(out.status.code(), Some(0), "--explain {}", rule.code());
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(
            text.contains(rule.code()) && text.contains("waiver / fix:"),
            "--explain {} output incomplete:\n{text}",
            rule.code()
        );
    }
    // Rule *names* work too, not just codes.
    let out = std::process::Command::new(bin)
        .args(["--explain", "G2-alloc-reachability"])
        .output()
        .expect("run dasr-lint");
    assert_eq!(out.status.code(), Some(0));
}
