//! Phase-2 graph passes: G1 determinism taint, G2 no-alloc
//! (direct and reachable allocation), G3 panic-path audit.
//!
//! Each pass walks the [`crate::graph::SymbolGraph`] built from the
//! whole file set and emits findings *at the offending source line*
//! (the fact site or call edge), never at the entry point — the fix or
//! waiver belongs where the violation is. Every loop runs over sorted
//! node ids, so the output order is a pure function of the file set.

use crate::graph::SymbolGraph;
use crate::rules::LintRule;

/// A graph-pass finding before waiver application.
#[derive(Debug, Clone)]
pub struct GraphFinding {
    /// Index into [`SymbolGraph::files`].
    pub file: usize,
    /// 1-based line of the fact or call edge.
    pub line: u32,
    /// G1, G2, or G3.
    pub rule: LintRule,
    /// Derived explanation: witness entry / allocation chain / site
    /// counts. Deterministic (qualified names and counts only).
    pub detail: String,
}

/// Runs all three graph passes; findings are grouped by pass but not
/// yet sorted (the caller merges them into per-file reports).
pub fn run_graph_passes(g: &SymbolGraph) -> Vec<GraphFinding> {
    let mut out = Vec::new();
    g1_determinism_taint(g, &mut out);
    g2_alloc_reachability(g, &mut out);
    g3_panic_paths(g, &mut out);
    out
}

fn entries_for(g: &SymbolGraph, rule: LintRule) -> Vec<usize> {
    (0..g.nodes.len())
        .filter(|&id| g.nodes[id].item.entries.contains(&rule))
        .collect()
}

/// G1: every function carrying a direct nondeterminism fact (wall
/// clock, ambient rng, map iteration) that is reachable from an
/// `entry(G1)` function gets one finding per fact kind, at the fact's
/// first line.
fn g1_determinism_taint(g: &SymbolGraph, out: &mut Vec<GraphFinding>) {
    let entries = entries_for(g, LintRule::G1TransitiveTaint);
    if entries.is_empty() {
        return;
    }
    let witness = g.reach(&entries);
    for id in 0..g.nodes.len() {
        let Some(entry) = witness[id] else {
            continue;
        };
        let node = &g.nodes[id];
        let facts = [
            ("wall clock", node.item.facts.wallclock),
            ("ambient rng", node.item.facts.rng),
            ("map iteration", node.item.facts.map_iter),
        ];
        for (label, fact) in facts {
            let Some(fact) = fact else { continue };
            out.push(GraphFinding {
                file: node.file,
                line: fact.line,
                rule: LintRule::G1TransitiveTaint,
                detail: format!(
                    "{label} in `{}` ({} site(s)), reachable from entry `{}`",
                    g.qname(id),
                    fact.count,
                    g.qname(entry)
                ),
            });
        }
    }
}

/// G2: for every `no-alloc`-marked function, each allocation site in
/// its own body is a finding at the site's line, and each call edge
/// whose callee set contains a transitively allocating function is a
/// finding at the call line, with the allocation chain as witness. A
/// line carries at most one finding per marked function.
fn g2_alloc_reachability(g: &SymbolGraph, out: &mut Vec<GraphFinding>) {
    let alloc = g.transitive_alloc();
    for id in 0..g.nodes.len() {
        let node = &g.nodes[id];
        if !node.item.no_alloc {
            continue;
        }
        let mut flagged_lines: Vec<u32> = Vec::new();
        for &line in &node.item.alloc_sites {
            if flagged_lines.contains(&line) {
                continue;
            }
            flagged_lines.push(line);
            out.push(GraphFinding {
                file: node.file,
                line,
                rule: LintRule::G2AllocReachability,
                detail: format!("no-alloc fn `{}` allocates in its own body", g.qname(id)),
            });
        }
        for (site, call) in node.item.calls.iter().enumerate() {
            let Some(&bad) = g.call_targets[id][site].iter().find(|&&t| alloc[t]) else {
                continue;
            };
            if flagged_lines.contains(&call.line) {
                continue;
            }
            flagged_lines.push(call.line);
            let chain = g.alloc_chain(bad, &alloc);
            out.push(GraphFinding {
                file: node.file,
                line: call.line,
                rule: LintRule::G2AllocReachability,
                detail: format!(
                    "no-alloc fn `{}` calls allocating path: {}",
                    g.qname(id),
                    chain.join(" -> ")
                ),
            });
        }
    }
}

/// G3: every function containing unwrap/expect or indexing reachable
/// from an `entry(G3)` function gets ONE finding, at its first panic
/// site — one waiver (or fix) per function bounds the triage burden.
fn g3_panic_paths(g: &SymbolGraph, out: &mut Vec<GraphFinding>) {
    let entries = entries_for(g, LintRule::G3PanicPath);
    if entries.is_empty() {
        return;
    }
    let witness = g.reach(&entries);
    for id in 0..g.nodes.len() {
        let Some(entry) = witness[id] else {
            continue;
        };
        let node = &g.nodes[id];
        let unwraps = node.item.facts.unwraps;
        let indexing = node.item.facts.indexing;
        let line = match (unwraps, indexing) {
            (Some(u), Some(x)) => u.line.min(x.line),
            (Some(u), None) => u.line,
            (None, Some(x)) => x.line,
            (None, None) => continue,
        };
        out.push(GraphFinding {
            file: node.file,
            line,
            rule: LintRule::G3PanicPath,
            detail: format!(
                "`{}` has {} unwrap/expect and {} indexing site(s), reachable from entry `{}`",
                g.qname(id),
                unwraps.map_or(0, |f| f.count),
                indexing.map_or(0, |f| f.count),
                g.qname(entry)
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_file, ParsedFile};

    fn run(files: &[(&str, &str)]) -> (SymbolGraph, Vec<GraphFinding>) {
        let parsed: Vec<(String, ParsedFile)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), parse_file(p, s)))
            .collect();
        let g = SymbolGraph::build(parsed);
        let f = run_graph_passes(&g);
        (g, f)
    }

    #[test]
    fn g1_flags_reachable_taint_at_fact_line() {
        let (_, f) = run(&[(
            "crates/a/src/lib.rs",
            "// dasr-lint: entry(G1)\nfn decide() { helper(); }\nfn helper() {\n    let t = std::time::Instant::now();\n}\nfn unreached() {\n    let t = std::time::Instant::now();\n}\n",
        )]);
        let g1: Vec<&GraphFinding> = f
            .iter()
            .filter(|x| x.rule == LintRule::G1TransitiveTaint)
            .collect();
        assert_eq!(g1.len(), 1);
        assert_eq!(g1[0].line, 4);
        assert!(g1[0].detail.contains("dasr_a::decide"));
    }

    #[test]
    fn g2_flags_cross_module_alloc_at_call_edge() {
        let (_, f) = run(&[
            (
                "crates/a/src/hot.rs",
                "use dasr_a::cold;\n// dasr-lint: no-alloc\nfn fast() {\n    cold::grow();\n}\n",
            ),
            (
                "crates/a/src/cold.rs",
                "pub fn grow() { let v: Vec<u32> = Vec::new(); }\n",
            ),
        ]);
        let g2: Vec<&GraphFinding> = f
            .iter()
            .filter(|x| x.rule == LintRule::G2AllocReachability)
            .collect();
        assert_eq!(g2.len(), 1);
        assert_eq!(g2[0].line, 4);
        assert!(g2[0].detail.contains("dasr_a::cold::grow"));
    }

    #[test]
    fn no_alloc_marker_covers_only_next_fn() {
        let src = "// dasr-lint: no-alloc\nfn hot(&mut self) {\n    self.scratch.push(1);\n}\nfn cold(&mut self) {\n    let v: Vec<u32> = Vec::new();\n}\n";
        let (_, f) = run(&[("crates/a/src/lib.rs", src)]);
        assert!(f.is_empty(), "{f:?}");
        let bad = "// dasr-lint: no-alloc\nfn hot(&mut self) {\n    let msg = format!(\"late {}\", 1);\n}\n";
        let (_, f) = run(&[("crates/a/src/lib.rs", bad)]);
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].rule, f[0].line), (LintRule::G2AllocReachability, 3));
        assert!(f[0].detail.contains("dasr_a::hot"));
    }

    #[test]
    fn string_literal_into_allocates() {
        let bad = "// dasr-lint: no-alloc\nfn hot() -> Result<(), E> {\n    Err(E::Backend(\"poisoned\".into()))\n}\n";
        let (_, f) = run(&[("crates/a/src/lib.rs", bad)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!((f[0].rule, f[0].line), (LintRule::G2AllocReachability, 3));
        // `.into()` on a value, a number or a char may convert for free.
        let ok = "// dasr-lint: no-alloc\nfn hot(x: u8) -> (u32, u64, char) {\n    (x.into(), 1.into(), 'c'.into())\n}\n";
        let (_, f) = run(&[("crates/a/src/lib.rs", ok)]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn g3_one_finding_per_reachable_fn() {
        let (_, f) = run(&[(
            "crates/a/src/lib.rs",
            "// dasr-lint: entry(G3)\nfn dispatch(xs: &[u32]) { decode(xs); }\nfn decode(xs: &[u32]) {\n    let a = xs[0];\n    let b = xs.first().unwrap();\n    let c = xs.last().unwrap();\n}\n",
        )]);
        let g3: Vec<&GraphFinding> = f
            .iter()
            .filter(|x| x.rule == LintRule::G3PanicPath)
            .collect();
        // decode: one finding despite three panic sites; dispatch: none.
        assert_eq!(g3.len(), 1);
        assert_eq!(g3[0].line, 4);
        assert!(g3[0].detail.contains("2 unwrap/expect"));
        assert!(g3[0].detail.contains("1 indexing"));
    }

    #[test]
    fn no_entries_means_no_g1_g3() {
        let (_, f) = run(&[(
            "crates/a/src/lib.rs",
            "fn lonely() { let t = std::time::Instant::now(); let x = v[0]; }\n",
        )]);
        assert!(f.is_empty());
    }
}
