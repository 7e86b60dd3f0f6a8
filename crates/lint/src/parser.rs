//! Phase-1 item parser: fn / impl / mod / use extraction.
//!
//! Sits on the same hand-rolled token stream as the token rules — no
//! `syn`, no crates.io — and recovers just enough structure for the
//! graph passes: every function item with a module-qualified path, the
//! call sites inside its body, its per-function facts (wall clock,
//! ambient rng, map iteration, panic sites), its allocation sites, and
//! the file's `use` aliases for cross-crate call resolution.
//!
//! The parser is a single forward walk over the tokens with a context
//! stack (`mod` / `impl` / `trait` / `fn` / plain block). It does not
//! understand expressions — a call site is any `ident(`, `path::ident(`
//! or `.ident(` sequence at body level — and it deliberately ignores
//! test-gated code (`#[cfg(test)]` / `#[test]`), which is outside every
//! invariant the graph rules check.

use crate::lexer::{lex, Directive, Kind, Tok};
use crate::rules::{self, LintRule, PanicKind, RawFinding, Scope};

/// How a call site names its callee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `f(..)`, `path::to::f(..)` — resolved against qualified paths.
    Path,
    /// `.m(..)` — resolved by method name across workspace impls.
    Method,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Path segments naming the callee; for method calls, just the
    /// method name. `Self::` is already rewritten to the impl type.
    pub path: Vec<String>,
    /// Path vs method call.
    pub kind: CallKind,
    /// 1-based source line of the callee name.
    pub line: u32,
    /// Method call whose receiver is literally `self` (`self.m(..)`) —
    /// lets the resolver prefer the caller's own impl type.
    pub self_recv: bool,
}

/// First-occurrence fact: source line plus total site count.
#[derive(Debug, Clone, Copy)]
pub struct Fact {
    /// Line of the first site.
    pub line: u32,
    /// Number of sites in the body.
    pub count: u32,
}

/// Per-function facts the graph passes seed from.
#[derive(Debug, Clone, Copy, Default)]
pub struct FnFacts {
    /// Wall-clock use (`Instant::now` / `SystemTime`).
    pub wallclock: Option<Fact>,
    /// Ambient randomness (`thread_rng`, `from_entropy`, …).
    pub rng: Option<Fact>,
    /// `HashMap`/`HashSet` iteration without a sorted adapter.
    pub map_iter: Option<Fact>,
    /// `.unwrap()` / `.expect(..)` sites.
    pub unwraps: Option<Fact>,
    /// Index-expression sites.
    pub indexing: Option<Fact>,
}

/// One parsed function item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Simple name.
    pub name: String,
    /// Fully qualified path: crate-ish root, modules, impl/trait type,
    /// name — e.g. `["dasr_engine", "slab", "GenSlab", "get"]`.
    pub qualified: Vec<String>,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Defined inside an `impl` or `trait` block (method-name
    /// resolution candidates).
    pub is_method: bool,
    /// Call sites in body order.
    pub calls: Vec<CallSite>,
    /// Seed facts.
    pub facts: FnFacts,
    /// Line of every direct allocation site in the body, in source
    /// order (rule G2 flags each one in a `no-alloc` fn, and seeds its
    /// transitive closure from them).
    pub alloc_sites: Vec<u32>,
    /// Carries a `// dasr-lint: no-alloc` marker (rule G2 applies).
    pub no_alloc: bool,
    /// Graph rules this function is an entry point for (`entry(G1)`…).
    pub entries: Vec<LintRule>,
}

/// A `use` alias: `alias` names the path `target` in this file.
#[derive(Debug, Clone)]
pub struct UseAlias {
    /// Last segment (or `as` rename) visible in the file.
    pub alias: String,
    /// Full imported path segments.
    pub target: Vec<String>,
}

/// Phase-1 output for one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Function items in source order.
    pub fns: Vec<FnItem>,
    /// `use` aliases in source order.
    pub uses: Vec<UseAlias>,
    /// Lines of `entry(...)` directives that attached to no function or
    /// named a non-graph rule — reported as W1.
    pub bad_entries: Vec<u32>,
}

/// Keywords that can directly precede `(` without being a call.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "match", "for", "loop", "return", "in", "as", "move", "let", "fn",
    "where", "impl", "dyn", "pub", "crate", "self", "Self", "super", "ref", "mut", "box", "break",
    "continue", "unsafe", "const", "static", "type", "use", "mod", "struct", "enum", "trait",
];

#[derive(Debug, Clone)]
enum Ctx {
    Mod(String),
    Type(String),
    /// Index into `fns`, or `None` for a test-gated fn whose body is
    /// ignored.
    Fn(Option<usize>),
    Block,
}

#[derive(Debug, Clone, Default)]
enum Pending {
    #[default]
    None,
    Mod(String),
    Type(String),
    Fn {
        name: String,
        line: u32,
        in_test: bool,
    },
}

/// Derives the module path for a workspace-relative file path.
///
/// `crates/engine/src/slab.rs` → `["dasr_engine", "slab"]`;
/// `src/lib.rs` → `["dasr"]`; anything else (fixture trees) uses the
/// path components as-is. `lib.rs` / `mod.rs` / `main.rs` contribute no
/// segment of their own.
pub fn module_segments(rel: &str) -> Vec<String> {
    let mut segs: Vec<String> = Vec::new();
    let rest = if let Some(r) = rel.strip_prefix("crates/") {
        let (krate, tail) = r.split_once('/').unwrap_or((r, ""));
        segs.push(format!("dasr_{}", krate.replace('-', "_")));
        tail.strip_prefix("src/").unwrap_or(tail)
    } else if let Some(r) = rel.strip_prefix("src/") {
        segs.push("dasr".to_string());
        r
    } else {
        rel
    };
    for comp in rest.split('/') {
        let comp = comp.strip_suffix(".rs").unwrap_or(comp);
        if comp.is_empty() || comp == "lib" || comp == "mod" || comp == "main" {
            continue;
        }
        segs.push(comp.to_string());
    }
    segs
}

/// Parses one file's source into items, reusing the shared lexer and
/// the token-rule detectors for per-function facts.
pub fn parse_file(rel: &str, src: &str) -> ParsedFile {
    let lexed = lex(src);
    let in_test = rules::test_mask(&lexed.tokens);
    parse_tokens(rel, &lexed.tokens, &in_test, &lexed.directives)
}

/// Parses a pre-lexed token stream (the workspace scan lexes once and
/// shares the stream between the token rules and the parser).
pub fn parse_tokens(
    rel: &str,
    tokens: &[Tok],
    in_test: &[bool],
    directives: &[Directive],
) -> ParsedFile {
    let root = module_segments(rel);
    let mut out = ParsedFile::default();
    // owner[i] = index into out.fns of the innermost non-test fn whose
    // body contains token i.
    let mut owner: Vec<Option<usize>> = vec![None; tokens.len()];

    let mut ctx: Vec<Ctx> = Vec::new();
    let mut pending = Pending::None;
    // Paren/bracket depth: a `;` inside `[u8; 4]` or a closure argument
    // list must not cancel a pending item header.
    let mut pdepth = 0i32;
    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        match &t.kind {
            Kind::Ident(s) if s == "mod" && !in_test[i] => {
                if let Some(name) = tokens.get(i + 1).and_then(Tok::ident) {
                    pending = Pending::Mod(name.to_string());
                    i += 2;
                    continue;
                }
            }
            // Inside a fn signature, `impl Trait` names an argument or
            // return type, not an impl block.
            Kind::Ident(s)
                if (s == "impl" || s == "trait")
                    && !in_test[i]
                    && !matches!(pending, Pending::Fn { .. }) =>
            {
                if let Some((name, next)) = impl_type_name(tokens, i) {
                    pending = Pending::Type(name);
                    i = next;
                    continue;
                }
            }
            Kind::Ident(s) if s == "use" && !in_test[i] => {
                i = parse_use(tokens, i + 1, &mut out.uses);
                continue;
            }
            Kind::Ident(s) if s == "fn" => {
                if let Some(name) = tokens.get(i + 1).and_then(Tok::ident) {
                    pending = Pending::Fn {
                        name: name.to_string(),
                        line: t.line,
                        in_test: in_test[i],
                    };
                    i += 2;
                    continue;
                }
            }
            Kind::Punct('(') | Kind::Punct('[') => pdepth += 1,
            Kind::Punct(')') | Kind::Punct(']') => pdepth -= 1,
            Kind::Punct(';') if pdepth == 0 => {
                // Body-less item (`mod x;`, trait method decl): pending
                // context never materializes.
                pending = Pending::None;
            }
            Kind::Punct('{') => {
                let c = match std::mem::take(&mut pending) {
                    Pending::Mod(name) => Ctx::Mod(name),
                    Pending::Type(name) => Ctx::Type(name),
                    Pending::Fn {
                        name,
                        line,
                        in_test: test,
                    } => {
                        if test {
                            Ctx::Fn(None)
                        } else {
                            let qualified = qualify(&root, &ctx, &name);
                            let is_method = ctx.iter().any(|c| matches!(c, Ctx::Type(_)));
                            out.fns.push(FnItem {
                                name,
                                qualified,
                                line,
                                is_method,
                                calls: Vec::new(),
                                facts: FnFacts::default(),
                                alloc_sites: Vec::new(),
                                no_alloc: false,
                                entries: Vec::new(),
                            });
                            Ctx::Fn(Some(out.fns.len() - 1))
                        }
                    }
                    Pending::None => Ctx::Block,
                };
                ctx.push(c);
            }
            Kind::Punct('}') => {
                ctx.pop();
            }
            _ => {}
        }
        // Attribute the token to the innermost live fn, and extract
        // call sites while inside one.
        let cur = ctx.iter().rev().find_map(|c| match c {
            Ctx::Fn(idx) => Some(*idx),
            _ => None,
        });
        if let Some(Some(fn_idx)) = cur {
            owner[i] = Some(fn_idx);
            if let Some(call) = call_at(tokens, i, &ctx) {
                out.fns[fn_idx].calls.push(call);
            }
        }
        i += 1;
    }

    attach_directives(&mut out, directives, rel);
    attach_facts(&mut out, tokens, in_test, &owner);
    out
}

/// Parses an `impl`/`trait` header at token `i`; returns the type (or
/// trait) name that qualifies the block's methods, plus the index of
/// the body `{` (where the main walk resumes).
fn impl_type_name(tokens: &[Tok], i: usize) -> Option<(String, usize)> {
    let mut j = i + 1;
    // Skip the generic parameter list directly after the keyword.
    if tokens.get(j).is_some_and(|t| t.is_punct('<')) {
        let mut depth = 0i32;
        while let Some(t) = tokens.get(j) {
            match t.kind {
                Kind::Punct('<') => depth += 1,
                Kind::Punct('>') => {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }
    // Last angle-depth-0 identifier before `{` wins; `for` restarts the
    // collection (impl Trait for Type), `where` ends it.
    let mut depth = 0i32;
    let mut name: Option<&str> = None;
    while let Some(t) = tokens.get(j) {
        match &t.kind {
            Kind::Punct('<') | Kind::Punct('(') | Kind::Punct('[') => depth += 1,
            Kind::Punct('>') | Kind::Punct(')') | Kind::Punct(']') => depth -= 1,
            Kind::Punct('{') if depth <= 0 => {
                return name.map(|n| (n.to_string(), j));
            }
            Kind::Punct(';') => return None,
            Kind::Ident(s) if depth <= 0 => {
                if s == "for" {
                    name = None;
                } else if s == "where" {
                    // Type name is fixed; skip to the body.
                } else if name.is_none() || !is_where_clause(tokens, j) {
                    name = Some(s);
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Whether token `j` sits after a `where` keyword in the same header
/// (identifiers there are bound names, not the impl type).
fn is_where_clause(tokens: &[Tok], j: usize) -> bool {
    let mut k = j;
    while k > 0 {
        k -= 1;
        match tokens[k].kind {
            Kind::Punct('{') | Kind::Punct('}') | Kind::Punct(';') => return false,
            Kind::Ident(ref s) if s == "where" => return true,
            Kind::Ident(ref s) if s == "impl" || s == "trait" => return false,
            _ => {}
        }
    }
    false
}

/// Parses a `use` item starting just after the `use` keyword; returns
/// the index just past the terminating `;`. Handles `a::b::c`,
/// `a::b::{c, d as e}` one level deep, and ignores globs.
fn parse_use(tokens: &[Tok], mut j: usize, out: &mut Vec<UseAlias>) -> usize {
    let mut prefix: Vec<String> = Vec::new();
    while let Some(t) = tokens.get(j) {
        match &t.kind {
            Kind::Ident(s) if s == "as" => {
                // `use path as alias;`
                if let Some(alias) = tokens.get(j + 1).and_then(Tok::ident) {
                    if !prefix.is_empty() {
                        out.push(UseAlias {
                            alias: alias.to_string(),
                            target: prefix.clone(),
                        });
                    }
                    prefix.clear();
                }
                j += 2;
                continue;
            }
            Kind::Ident(s) => {
                prefix.push(s.clone());
                j += 1;
                // Skip the `::` separator.
                if tokens.get(j).is_some_and(|t| t.is_punct(':'))
                    && tokens.get(j + 1).is_some_and(|t| t.is_punct(':'))
                {
                    j += 2;
                    continue;
                }
                continue;
            }
            Kind::Punct('{') => {
                // Group: each leaf extends the prefix.
                let mut depth = 1i32;
                let base = prefix.clone();
                let mut leaf: Vec<String> = Vec::new();
                j += 1;
                while let Some(t) = tokens.get(j) {
                    match &t.kind {
                        Kind::Punct('{') => depth += 1,
                        Kind::Punct('}') => {
                            depth -= 1;
                            if depth == 0 {
                                flush_use_leaf(&base, &mut leaf, None, out);
                                j += 1;
                                break;
                            }
                        }
                        Kind::Punct(',') if depth == 1 => {
                            flush_use_leaf(&base, &mut leaf, None, out);
                        }
                        Kind::Ident(s) if s == "as" && depth == 1 => {
                            let alias = tokens.get(j + 1).and_then(Tok::ident);
                            flush_use_leaf(&base, &mut leaf, alias, out);
                            j += 2;
                            continue;
                        }
                        Kind::Ident(s) => leaf.push(s.clone()),
                        _ => {}
                    }
                    j += 1;
                }
                prefix.clear();
                continue;
            }
            Kind::Punct(';') => {
                if let Some(alias) = prefix.last().cloned() {
                    if alias != "*" {
                        out.push(UseAlias {
                            alias,
                            target: prefix.clone(),
                        });
                    }
                }
                return j + 1;
            }
            _ => j += 1,
        }
    }
    j
}

fn flush_use_leaf(
    base: &[String],
    leaf: &mut Vec<String>,
    alias: Option<&str>,
    out: &mut Vec<UseAlias>,
) {
    if leaf.is_empty() {
        return;
    }
    let mut target = base.to_vec();
    target.append(leaf);
    let alias = alias
        .map(str::to_string)
        .or_else(|| target.last().cloned())
        .unwrap_or_default();
    if alias != "self" {
        out.push(UseAlias { alias, target });
    }
}

/// Builds the qualified path for a fn defined under the context stack.
fn qualify(root: &[String], ctx: &[Ctx], name: &str) -> Vec<String> {
    let mut q: Vec<String> = root.to_vec();
    for c in ctx {
        match c {
            Ctx::Mod(m) => q.push(m.clone()),
            Ctx::Type(t) => q.push(t.clone()),
            _ => {}
        }
    }
    q.push(name.to_string());
    q
}

/// Detects a call site whose callee name is the identifier at `i`.
fn call_at(tokens: &[Tok], i: usize, ctx: &[Ctx]) -> Option<CallSite> {
    let name = tokens[i].ident()?;
    if NON_CALL_KEYWORDS.contains(&name) {
        return None;
    }
    // The callee name must be followed by `(`, optionally through a
    // turbofish `::<..>`.
    let mut j = i + 1;
    if tokens.get(j).is_some_and(|t| t.is_punct(':'))
        && tokens.get(j + 1).is_some_and(|t| t.is_punct(':'))
        && tokens.get(j + 2).is_some_and(|t| t.is_punct('<'))
    {
        let mut depth = 0i32;
        j += 2;
        while let Some(t) = tokens.get(j) {
            match t.kind {
                Kind::Punct('<') => depth += 1,
                Kind::Punct('>') => {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                Kind::Punct(';') => return None,
                _ => {}
            }
            j += 1;
        }
    }
    if !tokens.get(j).is_some_and(|t| t.is_punct('(')) {
        return None;
    }
    let line = tokens[i].line;
    // Method call: `.name(` — but not `a..b(` range sugar.
    if i >= 1 && tokens[i - 1].is_punct('.') && !(i >= 2 && tokens[i - 2].is_punct('.')) {
        return Some(CallSite {
            path: vec![name.to_string()],
            kind: CallKind::Method,
            line,
            self_recv: i >= 2 && tokens[i - 2].is_ident("self"),
        });
    }
    // Path call: walk preceding `seg::` pairs backwards.
    let mut segs: Vec<String> = vec![name.to_string()];
    let mut k = i;
    while k >= 3
        && tokens[k - 1].is_punct(':')
        && tokens[k - 2].is_punct(':')
        && tokens[k - 3].ident().is_some()
    {
        segs.insert(0, tokens[k - 3].ident().unwrap_or_default().to_string());
        k -= 3;
    }
    if k >= 1 && (tokens[k - 1].is_punct('.') || tokens[k - 1].is_ident("fn")) {
        // `recv.path::f(` cannot happen; `fn name(` is a definition.
        return None;
    }
    // Drop relative-path noise and rewrite `Self` to the impl type.
    while let Some(first) = segs.first() {
        match first.as_str() {
            "crate" | "super" | "self" => {
                segs.remove(0);
            }
            "Self" => {
                let ty = ctx.iter().rev().find_map(|c| match c {
                    Ctx::Type(t) => Some(t.clone()),
                    _ => None,
                });
                match ty {
                    Some(t) => segs[0] = t,
                    None => {
                        segs.remove(0);
                    }
                }
                break;
            }
            _ => break,
        }
    }
    if segs.is_empty() || segs.last().is_none() {
        return None;
    }
    Some(CallSite {
        path: segs,
        kind: CallKind::Path,
        line,
        self_recv: false,
    })
}

/// Attaches `no-alloc` and `entry(...)` directives to the first fn at
/// or below their line (same rule as the token-level marker mask).
fn attach_directives(out: &mut ParsedFile, directives: &[Directive], _rel: &str) {
    for d in directives {
        let (line, entry_rules) = match d {
            Directive::NoAlloc { line } => (*line, None),
            Directive::Entry { line, rules } => (*line, Some(rules)),
            _ => continue,
        };
        let target = out
            .fns
            .iter_mut()
            .filter(|f| f.line >= line)
            .min_by_key(|f| f.line);
        match (target, entry_rules) {
            (Some(f), None) => f.no_alloc = true,
            (Some(f), Some(names)) => {
                let parsed: Option<Vec<LintRule>> =
                    names.iter().map(|n| LintRule::from_name(n)).collect();
                match parsed {
                    Some(rules)
                        if !rules.is_empty()
                            && rules.iter().all(|r| {
                                matches!(r, LintRule::G1TransitiveTaint | LintRule::G3PanicPath)
                            }) =>
                    {
                        for r in rules {
                            if !f.entries.contains(&r) {
                                f.entries.push(r);
                            }
                        }
                    }
                    _ => out.bad_entries.push(line),
                }
            }
            (None, Some(_)) => out.bad_entries.push(line),
            (None, None) => {}
        }
    }
}

/// Runs the shared detectors over the token stream and attributes every
/// hit to its owning function.
fn attach_facts(out: &mut ParsedFile, tokens: &[Tok], in_test: &[bool], owner: &[Option<usize>]) {
    let mut raw: Vec<RawFinding> = Vec::new();
    rules::scan_d1(tokens, in_test, Scope::strict(), &mut raw);
    rules::scan_d3(tokens, in_test, &mut raw);
    let map_names = rules::collect_map_names(tokens, in_test);
    rules::scan_d2(tokens, in_test, &map_names, &mut raw);
    raw.extend(rules::scan_alloc_all(tokens, in_test));

    let bump = |slot: &mut Option<Fact>, line: u32| match slot {
        Some(f) => f.count += 1,
        None => *slot = Some(Fact { line, count: 1 }),
    };
    for f in &raw {
        let Some(Some(idx)) = owner.get(f.tok) else {
            continue;
        };
        let item = &mut out.fns[*idx];
        let facts = &mut item.facts;
        match f.rule {
            LintRule::D1WallClock => bump(&mut facts.wallclock, f.line),
            LintRule::D3AmbientRandomness => bump(&mut facts.rng, f.line),
            LintRule::D2MapIteration => bump(&mut facts.map_iter, f.line),
            LintRule::G2AllocReachability => item.alloc_sites.push(f.line),
            _ => {}
        }
    }
    for p in rules::scan_panics(tokens, in_test) {
        let Some(Some(idx)) = owner.get(p.tok) else {
            continue;
        };
        let facts = &mut out.fns[*idx].facts;
        match p.kind {
            PanicKind::Unwrap => bump(&mut facts.unwraps, p.line),
            PanicKind::Index => bump(&mut facts.indexing, p.line),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ParsedFile {
        parse_file("crates/demo/src/x.rs", src)
    }

    #[test]
    fn module_segments_shapes() {
        assert_eq!(
            module_segments("crates/engine/src/slab.rs"),
            vec!["dasr_engine", "slab"]
        );
        assert_eq!(
            module_segments("crates/core/src/runner/mod.rs"),
            vec!["dasr_core", "runner"]
        );
        assert_eq!(module_segments("src/lib.rs"), vec!["dasr"]);
        assert_eq!(
            module_segments("tree/alpha/policy.rs"),
            vec!["tree", "alpha", "policy"]
        );
    }

    #[test]
    fn fns_get_qualified_paths() {
        let src = r#"
            pub fn free() {}
            mod inner {
                impl Widget {
                    fn method(&self) {}
                }
            }
            trait Render {
                fn draw(&self) { self.paint(); }
            }
        "#;
        let p = parse(src);
        let names: Vec<String> = p.fns.iter().map(|f| f.qualified.join("::")).collect();
        assert_eq!(
            names,
            vec![
                "dasr_demo::x::free",
                "dasr_demo::x::inner::Widget::method",
                "dasr_demo::x::Render::draw",
            ]
        );
        assert!(!p.fns[0].is_method);
        assert!(p.fns[1].is_method);
        assert!(p.fns[2].is_method);
    }

    #[test]
    fn calls_are_extracted_with_kinds() {
        let src = r#"
            fn caller(x: &W) {
                helper(1);
                codec::put_uvar(&mut b, 7);
                x.observe(2);
                Self::internal();
                let v = foo.len();
                if cond(x) { return; }
            }
        "#;
        let p = parse(src);
        let calls = &p.fns[0].calls;
        let render: Vec<(String, CallKind)> =
            calls.iter().map(|c| (c.path.join("::"), c.kind)).collect();
        assert!(render.contains(&("helper".to_string(), CallKind::Path)));
        assert!(render.contains(&("codec::put_uvar".to_string(), CallKind::Path)));
        assert!(render.contains(&("observe".to_string(), CallKind::Method)));
        assert!(render.contains(&("len".to_string(), CallKind::Method)));
        assert!(render.contains(&("cond".to_string(), CallKind::Path)));
        // `Self::internal` has no impl context here — Self is dropped.
        assert!(render.contains(&("internal".to_string(), CallKind::Path)));
    }

    #[test]
    fn self_rewrites_to_impl_type() {
        let src = r#"
            impl Wheel {
                fn tick(&mut self) { Self::advance(self); }
            }
        "#;
        let p = parse(src);
        assert_eq!(p.fns[0].calls[0].path, vec!["Wheel", "advance"]);
    }

    #[test]
    fn facts_attach_to_owning_fn() {
        let src = r#"
            fn clean() { let x = 1; }
            fn dirty() {
                let t = std::time::Instant::now();
                let v: Vec<u32> = Vec::new();
                let y = opt.unwrap();
                let z = arr[3];
            }
        "#;
        let p = parse(src);
        assert!(p.fns[0].facts.wallclock.is_none());
        let f = &p.fns[1].facts;
        assert!(f.wallclock.is_some());
        assert_eq!(p.fns[1].alloc_sites, vec![5]);
        assert_eq!(f.unwraps.map(|x| x.count), Some(1));
        assert_eq!(f.indexing.map(|x| x.count), Some(1));
    }

    #[test]
    fn test_gated_fns_are_invisible() {
        let src = r#"
            #[cfg(test)]
            mod tests {
                fn helper() { thread_rng(); }
            }
            fn live() {}
        "#;
        let p = parse(src);
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "live");
    }

    #[test]
    fn directives_attach_to_next_fn() {
        let src = r#"
            // dasr-lint: no-alloc
            fn hot() {}
            // dasr-lint: entry(G1, G3)
            fn decide() {}
            // dasr-lint: entry(D1)
            fn bad_rule() {}
        "#;
        let p = parse(src);
        assert!(p.fns[0].no_alloc);
        assert_eq!(
            p.fns[1].entries,
            vec![LintRule::G1TransitiveTaint, LintRule::G3PanicPath]
        );
        // entry(D1) is not a graph rule — reported, not attached.
        assert!(p.fns[2].entries.is_empty());
        assert_eq!(p.bad_entries.len(), 1);
    }

    #[test]
    fn use_aliases_parse() {
        let src = r#"
            use dasr_core::json;
            use dasr_stats::{ExactSum, theil_sen as ts};
            use std::collections::HashMap;
            fn f() {}
        "#;
        let p = parse(src);
        let find = |a: &str| {
            p.uses
                .iter()
                .find(|u| u.alias == a)
                .map(|u| u.target.join("::"))
        };
        assert_eq!(find("json"), Some("dasr_core::json".to_string()));
        assert_eq!(find("ExactSum"), Some("dasr_stats::ExactSum".to_string()));
        assert_eq!(find("ts"), Some("dasr_stats::theil_sen".to_string()));
        assert_eq!(
            find("HashMap"),
            Some("std::collections::HashMap".to_string())
        );
    }
}
