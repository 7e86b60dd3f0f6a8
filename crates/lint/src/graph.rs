//! Workspace symbol graph: call resolution + reachability.
//!
//! Consumes every file's [`crate::parser::ParsedFile`] and builds one
//! approximate call graph for the graph passes (G1/G2/G3). Resolution
//! is name-based, deliberately simple, and its approximations are
//! documented (DESIGN.md §18):
//!
//! - **Path calls** (`f(..)`, `mod::f(..)`, `Type::m(..)`) expand the
//!   first segment through the calling file's `use` aliases, then
//!   suffix-match against every function's module-qualified path,
//!   shortening the call path one leading segment at a time (down to
//!   two segments) to survive re-exports. `std`/external paths match
//!   nothing and vanish.
//! - **Bare calls** (`f(..)` with a single segment and no alias)
//!   resolve to same-file free functions first, else workspace free
//!   functions with that name.
//! - **Method calls** (`.m(..)`) resolve to same-crate `impl`/`trait`
//!   methods named `m` when any exist, else the workspace-wide union of
//!   methods named `m` (the trait-method approximation — receivers are
//!   untyped, so every impl is a candidate).
//!
//! Over-approximation (a call edge that cannot happen at runtime) costs
//! a spurious finding that a waiver documents; under-approximation
//! (std-only calls, macro bodies) costs a missed finding that the
//! token rules usually still catch locally.
//!
//! Everything here iterates `Vec`s in deterministic order; the
//! `HashMap`s are keyed lookups only and are never iterated — the
//! linter holds itself to the same determinism bar it enforces.

use crate::parser::{CallKind, FnItem, ParsedFile};
use std::collections::HashMap;

/// One function node: the parsed item plus its owning file.
#[derive(Debug)]
pub struct FnNode {
    /// Index into [`SymbolGraph::files`].
    pub file: usize,
    /// The parsed function item.
    pub item: FnItem,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct SymbolGraph {
    /// Workspace-relative file paths, sorted.
    pub files: Vec<String>,
    /// Function nodes, grouped by file in [`Self::files`] order, source
    /// order within a file — node ids are indices and are stable for a
    /// given file set.
    pub nodes: Vec<FnNode>,
    /// Per node, per call site (parallel to `item.calls`): resolved
    /// callee node ids, sorted.
    pub call_targets: Vec<Vec<Vec<usize>>>,
    /// Per node: union of all resolved callees, sorted + deduped.
    pub callees: Vec<Vec<usize>>,
}

/// Per-file lookup state used during resolution.
struct FileCtx {
    /// `alias -> target path` from the file's `use` items (last wins,
    /// matching shadowing).
    aliases: HashMap<String, Vec<String>>,
    /// Node-id range of this file's functions (contiguous).
    node_range: (usize, usize),
}

impl SymbolGraph {
    /// Builds the graph from parsed files. `parsed` must be sorted by
    /// path (the scan produces it that way); node ids follow that
    /// order, which is what makes reports thread-count independent.
    pub fn build(parsed: Vec<(String, ParsedFile)>) -> SymbolGraph {
        let mut g = SymbolGraph::default();
        let mut file_ctxs: Vec<FileCtx> = Vec::with_capacity(parsed.len());
        let mut parsed_calls: Vec<Vec<crate::parser::CallSite>> = Vec::new();

        for (path, pf) in parsed {
            let file_idx = g.files.len();
            g.files.push(path);
            let start = g.nodes.len();
            let mut aliases: HashMap<String, Vec<String>> = HashMap::new();
            for u in pf.uses {
                aliases.insert(u.alias, u.target);
            }
            for f in pf.fns {
                parsed_calls.push(f.calls.clone());
                g.nodes.push(FnNode {
                    file: file_idx,
                    item: f,
                });
            }
            file_ctxs.push(FileCtx {
                aliases,
                node_range: (start, g.nodes.len()),
            });
        }

        // Name tables: fn name -> node ids (insertion order == id order,
        // so the Vec values are sorted).
        let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        let mut free_by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        let mut methods_by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        for (id, n) in g.nodes.iter().enumerate() {
            by_name.entry(&n.item.name).or_default().push(id);
            if n.item.is_method {
                methods_by_name.entry(&n.item.name).or_default().push(id);
            } else {
                free_by_name.entry(&n.item.name).or_default().push(id);
            }
        }

        let mut all_targets: Vec<Vec<Vec<usize>>> = Vec::with_capacity(parsed_calls.len());
        for (id, calls) in parsed_calls.iter().enumerate() {
            let node = &g.nodes[id];
            let ctx = &file_ctxs[node.file];
            let crate_root = node.item.qualified.first().cloned().unwrap_or_default();
            let mut per_site: Vec<Vec<usize>> = Vec::with_capacity(calls.len());
            for call in calls {
                // The caller's impl type (second-to-last qualified
                // segment), for self-receiver resolution.
                let caller_type = if node.item.is_method {
                    let q = &node.item.qualified;
                    q.get(q.len().wrapping_sub(2)).cloned()
                } else {
                    None
                };
                let mut targets: Vec<usize> = match call.kind {
                    CallKind::Method => resolve_method(
                        &g.nodes,
                        &methods_by_name,
                        &crate_root,
                        caller_type.as_deref().filter(|_| call.self_recv),
                        &call.path[0],
                    ),
                    CallKind::Path => {
                        resolve_path(&g.nodes, &by_name, &free_by_name, ctx, &call.path)
                    }
                };
                targets.sort_unstable();
                targets.dedup();
                per_site.push(targets);
            }
            all_targets.push(per_site);
        }

        g.call_targets = all_targets;
        g.callees = g
            .call_targets
            .iter()
            .map(|sites| {
                let mut all: Vec<usize> = sites.iter().flatten().copied().collect();
                all.sort_unstable();
                all.dedup();
                all
            })
            .collect();
        g
    }

    /// Multi-source BFS from `entries` (pre-sorted node ids). Returns,
    /// per node, the entry that first reached it (`None` when
    /// unreachable). BFS order over sorted ids makes the witness
    /// deterministic.
    pub fn reach(&self, entries: &[usize]) -> Vec<Option<usize>> {
        let mut witness: Vec<Option<usize>> = vec![None; self.nodes.len()];
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        for &e in entries {
            if witness[e].is_none() {
                witness[e] = Some(e);
                queue.push_back(e);
            }
        }
        while let Some(n) = queue.pop_front() {
            let from = witness[n];
            for &c in &self.callees[n] {
                if witness[c].is_none() {
                    witness[c] = from;
                    queue.push_back(c);
                }
            }
        }
        witness
    }

    /// Per node: whether it allocates directly or through any chain of
    /// workspace callees (the G2 fact closure). Reverse-edge worklist
    /// propagation to a fixpoint (the graph has cycles).
    pub fn transitive_alloc(&self) -> Vec<bool> {
        let mut callers: Vec<Vec<usize>> = vec![Vec::new(); self.nodes.len()];
        for (n, cs) in self.callees.iter().enumerate() {
            for &c in cs {
                callers[c].push(n);
            }
        }
        let mut alloc: Vec<bool> = self
            .nodes
            .iter()
            .map(|n| !n.item.alloc_sites.is_empty())
            .collect();
        let mut work: Vec<usize> = (0..self.nodes.len()).filter(|&n| alloc[n]).collect();
        while let Some(n) = work.pop() {
            for &caller in &callers[n] {
                if !alloc[caller] {
                    alloc[caller] = true;
                    work.push(caller);
                }
            }
        }
        alloc
    }

    /// A deterministic allocation witness chain starting at `from`:
    /// follows the smallest-id transitively-allocating callee until a
    /// direct allocation site is reached (or the hop cap). Returns
    /// qualified names.
    pub fn alloc_chain(&self, from: usize, alloc: &[bool]) -> Vec<String> {
        let mut chain = Vec::new();
        let mut cur = from;
        let mut seen = vec![false; self.nodes.len()];
        for _ in 0..8 {
            chain.push(self.nodes[cur].item.qualified.join("::"));
            seen[cur] = true;
            if !self.nodes[cur].item.alloc_sites.is_empty() {
                break;
            }
            let next = self.callees[cur]
                .iter()
                .copied()
                .find(|&c| alloc[c] && !seen[c]);
            match next {
                Some(c) => cur = c,
                None => break,
            }
        }
        chain
    }

    /// The qualified name of node `id`.
    pub fn qname(&self, id: usize) -> String {
        self.nodes[id].item.qualified.join("::")
    }
}

/// Method names shadowed by ubiquitous std container/iterator/slice
/// APIs. A `.push(..)` or `.get(..)` receiver is almost always a `Vec`
/// or a slice, and resolving it to every workspace method of the same
/// name floods the graph with impossible edges (e.g. `Vec::push` →
/// `SlidingTheilSen::push`). These names never resolve — a documented
/// under-approximation; direct facts in the real callee still fire via
/// the token rules and non-shadowed call chains.
const STD_SHADOWED_METHODS: &[&str] = &[
    "push",
    "pop",
    "append",
    "get",
    "get_mut",
    "len",
    "is_empty",
    "insert",
    "remove",
    "clear",
    "contains",
    "contains_key",
    "extend",
    "first",
    "last",
    "next",
    "peek",
    "take",
    "clone",
    "as_ref",
    "as_mut",
    "as_str",
    "as_slice",
    "as_bytes",
    "push_str",
    "iter",
    "iter_mut",
    "keys",
    "values",
    "entry",
    "fmt",
    "eq",
    "cmp",
    "hash",
    "write",
    "write_all",
    "read",
    "read_exact",
    // Iterator/Option/Result combinators — `.map(..)` is (almost)
    // always the std adapter, never e.g. `FleetRunner::map`.
    "map",
    "filter",
    "max",
    "min",
    "sum",
    "count",
    // `.spawn(..)` is a `thread::Scope`/`Builder`; associated-fn spawns
    // (`Type::spawn(..)`) are path calls and still resolve.
    "spawn",
];

/// Method-call resolution, most precise rule first:
///
/// 1. `self.m(..)` inside `impl T` where `T::m` exists in the same
///    crate resolves to exactly `T::m` (mirrors Rust inherent-method
///    lookup; also rescues std-shadowed names like `self.append(..)`).
/// 2. Std-shadowed names (see [`STD_SHADOWED_METHODS`]) never resolve.
/// 3. Same-crate methods named `m` when any exist.
/// 4. Else the workspace-wide union (trait-method approximation).
fn resolve_method(
    nodes: &[FnNode],
    methods_by_name: &HashMap<&str, Vec<usize>>,
    crate_root: &str,
    self_type: Option<&str>,
    name: &str,
) -> Vec<usize> {
    if let Some(ty) = self_type {
        if let Some(all) = methods_by_name.get(name) {
            let own: Vec<usize> = all
                .iter()
                .copied()
                .filter(|&id| {
                    let q = &nodes[id].item.qualified;
                    q.first().is_some_and(|r| r == crate_root)
                        && q.len() >= 2
                        && q[q.len() - 2] == ty
                })
                .collect();
            if !own.is_empty() {
                return own;
            }
        }
    }
    if STD_SHADOWED_METHODS.contains(&name) {
        return Vec::new();
    }
    let Some(all) = methods_by_name.get(name) else {
        return Vec::new();
    };
    let same_crate: Vec<usize> = all
        .iter()
        .copied()
        .filter(|&id| {
            nodes[id]
                .item
                .qualified
                .first()
                .is_some_and(|r| r == crate_root)
        })
        .collect();
    if same_crate.is_empty() {
        all.clone()
    } else {
        same_crate
    }
}

/// Path-call resolution (see module docs for the strategy).
fn resolve_path(
    nodes: &[FnNode],
    by_name: &HashMap<&str, Vec<usize>>,
    free_by_name: &HashMap<&str, Vec<usize>>,
    ctx: &FileCtx,
    path: &[String],
) -> Vec<usize> {
    // Expand the leading segment through the file's use aliases.
    let expanded: Vec<String> = match ctx.aliases.get(&path[0]) {
        Some(target) => {
            let mut e = target.clone();
            e.extend(path[1..].iter().cloned());
            e
        }
        None => path.to_vec(),
    };

    if expanded.len() == 1 {
        // Bare unaliased call: same-file free fns first, else workspace
        // free fns.
        let name = expanded[0].as_str();
        let Some(all) = free_by_name.get(name) else {
            return Vec::new();
        };
        let (lo, hi) = ctx.node_range;
        let same_file: Vec<usize> = all
            .iter()
            .copied()
            .filter(|&id| id >= lo && id < hi)
            .collect();
        return if same_file.is_empty() {
            all.clone()
        } else {
            same_file
        };
    }

    // Suffix-match the expanded path against qualified names, dropping
    // leading segments (down to two) to survive crate-root re-exports.
    let name = expanded.last().map(String::as_str).unwrap_or_default();
    let Some(candidates) = by_name.get(name) else {
        return Vec::new();
    };
    let mut start = 0usize;
    while expanded.len() - start >= 2 {
        let suffix = &expanded[start..];
        let hits: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&id| nodes[id].item.qualified.ends_with(suffix))
            .collect();
        if !hits.is_empty() {
            return hits;
        }
        start += 1;
    }
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;

    fn build(files: &[(&str, &str)]) -> SymbolGraph {
        let parsed: Vec<(String, ParsedFile)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), parse_file(p, s)))
            .collect();
        SymbolGraph::build(parsed)
    }

    fn id_of(g: &SymbolGraph, q: &str) -> usize {
        (0..g.nodes.len()).find(|&i| g.qname(i) == q).unwrap()
    }

    #[test]
    fn same_file_bare_call_resolves() {
        let g = build(&[(
            "crates/a/src/lib.rs",
            "fn top() { helper(); }\nfn helper() {}\n",
        )]);
        let top = id_of(&g, "dasr_a::top");
        let helper = id_of(&g, "dasr_a::helper");
        assert_eq!(g.callees[top], vec![helper]);
    }

    #[test]
    fn cross_crate_path_call_resolves_via_use() {
        let g = build(&[
            (
                "crates/a/src/lib.rs",
                "use dasr_b::codec;\nfn go() { codec::put(1); }\n",
            ),
            ("crates/b/src/codec.rs", "pub fn put(x: u32) {}\n"),
        ]);
        let go = id_of(&g, "dasr_a::go");
        let put = id_of(&g, "dasr_b::codec::put");
        assert_eq!(g.callees[go], vec![put]);
    }

    #[test]
    fn reexport_survives_suffix_shortening() {
        // `use dasr_b::Gadget` where Gadget really lives in dasr_b::w.
        let g = build(&[
            (
                "crates/a/src/lib.rs",
                "use dasr_b::Gadget;\nfn go() { Gadget::spin(); }\n",
            ),
            ("crates/b/src/w.rs", "impl Gadget { pub fn spin() {} }\n"),
        ]);
        let go = id_of(&g, "dasr_a::go");
        let spin = id_of(&g, "dasr_b::w::Gadget::spin");
        assert_eq!(g.callees[go], vec![spin]);
    }

    #[test]
    fn method_call_prefers_same_crate() {
        let g = build(&[
            (
                "crates/a/src/lib.rs",
                "impl Local { fn tick(&self) {} }\nfn go(x: &Local) { x.tick(); }\n",
            ),
            ("crates/b/src/lib.rs", "impl Remote { fn tick(&self) {} }\n"),
        ]);
        let go = id_of(&g, "dasr_a::go");
        let local = id_of(&g, "dasr_a::Local::tick");
        assert_eq!(g.callees[go], vec![local]);
    }

    #[test]
    fn method_call_falls_back_to_workspace_union() {
        let g = build(&[
            ("crates/a/src/lib.rs", "fn go(x: &T) { x.tick(); }\n"),
            ("crates/b/src/lib.rs", "impl R1 { fn tick(&self) {} }\n"),
            ("crates/c/src/lib.rs", "impl R2 { fn tick(&self) {} }\n"),
        ]);
        let go = id_of(&g, "dasr_a::go");
        assert_eq!(g.callees[go].len(), 2);
    }

    #[test]
    fn std_paths_resolve_to_nothing() {
        let g = build(&[(
            "crates/a/src/lib.rs",
            "use std::collections::HashMap;\nfn go() { let m: HashMap<u32, u32> = HashMap::new(); }\n",
        )]);
        let go = id_of(&g, "dasr_a::go");
        assert!(g.callees[go].is_empty());
    }

    #[test]
    fn reach_picks_first_entry_witness() {
        let g = build(&[(
            "crates/a/src/lib.rs",
            "fn e1() { shared(); }\nfn e2() { shared(); }\nfn shared() {}\n",
        )]);
        let e1 = id_of(&g, "dasr_a::e1");
        let e2 = id_of(&g, "dasr_a::e2");
        let shared = id_of(&g, "dasr_a::shared");
        let witness = g.reach(&[e1, e2]);
        assert_eq!(witness[shared], Some(e1));
        assert_eq!(witness[e2], Some(e2));
    }

    #[test]
    fn self_receiver_resolves_to_own_impl_even_when_shadowed() {
        // `append` is on STD_SHADOWED_METHODS (Vec::append), so a plain
        // `x.append(..)` never resolves — but `self.append(..)` inside
        // `impl Store` must still bind to `Store::append`.
        let g = build(&[(
            "crates/a/src/store.rs",
            "struct Store;\nimpl Store {\n    fn append(&mut self) { let v: Vec<u8> = Vec::new(); drop(v); }\n    fn outer(&mut self) { self.append(); }\n}\nfn elsewhere(mut buf: Vec<u8>, mut other: Vec<u8>) { buf.append(&mut other); }\n",
        )]);
        let outer = id_of(&g, "dasr_a::store::Store::outer");
        let append = id_of(&g, "dasr_a::store::Store::append");
        let elsewhere = id_of(&g, "dasr_a::store::elsewhere");
        assert_eq!(g.callees[outer], vec![append]);
        assert!(
            g.callees[elsewhere].is_empty(),
            "non-self shadowed method must stay unresolved"
        );
        let alloc = g.transitive_alloc();
        assert!(alloc[outer], "self-call edge propagates alloc taint");
        assert!(!alloc[elsewhere]);
    }

    #[test]
    fn self_receiver_falls_back_when_own_impl_lacks_method() {
        // `self.helper()` where `impl Local` has no `helper` falls through
        // to normal resolution (same-crate preference).
        let g = build(&[(
            "crates/a/src/lib.rs",
            "struct Local;\nstruct Other;\nimpl Local {\n    fn run(&self) { self.helper(); }\n}\nimpl Other {\n    fn helper(&self) {}\n}\n",
        )]);
        let run = id_of(&g, "dasr_a::Local::run");
        let helper = id_of(&g, "dasr_a::Other::helper");
        assert_eq!(g.callees[run], vec![helper]);
    }

    #[test]
    fn transitive_alloc_closes_over_chains() {
        let g = build(&[(
            "crates/a/src/lib.rs",
            "fn top() { mid(); }\nfn mid() { bottom(); }\nfn bottom() { let v: Vec<u32> = Vec::new(); }\nfn clean() {}\n",
        )]);
        let alloc = g.transitive_alloc();
        assert!(alloc[id_of(&g, "dasr_a::top")]);
        assert!(alloc[id_of(&g, "dasr_a::mid")]);
        assert!(alloc[id_of(&g, "dasr_a::bottom")]);
        assert!(!alloc[id_of(&g, "dasr_a::clean")]);
        let chain = g.alloc_chain(id_of(&g, "dasr_a::top"), &alloc);
        assert_eq!(chain, vec!["dasr_a::top", "dasr_a::mid", "dasr_a::bottom"]);
    }
}
