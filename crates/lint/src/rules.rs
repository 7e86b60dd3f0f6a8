//! The lint rule table and the token-level detection passes.
//!
//! Mirrors the `RuleId` idiom from `dasr_core::rules`: a dense enum with
//! stable codes, a `COUNT`, an `ALL` table in wire order, and name
//! round-tripping — so findings serialize with stable machine-readable
//! identifiers.

use crate::lexer::{Kind, Tok};

/// Stable identifier for every lint rule.
///
/// Codes (`D1`…`W1`) and names are part of the report format; new rules
/// append, existing ones never renumber.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintRule {
    /// D1 — wall clock in deterministic code: `Instant::now` /
    /// `SystemTime` anywhere outside the `core::obs` timer layer.
    D1WallClock,
    /// D2 — iteration over `HashMap`/`HashSet` in deterministic modules:
    /// iteration order is randomized per process, so any fold over it is
    /// nondeterministic unless routed through a sorted adapter.
    D2MapIteration,
    /// D3 — ambient randomness: `thread_rng`, `rand::random`, or
    /// entropy-seeded constructors outside test code.
    D3AmbientRandomness,
    /// R1 — render-from-structure: trace/event/metric types must not
    /// store `String` fields; human text is derived at print time.
    R1StoredText,
    /// F1 — NaN-unsafe ordering: `partial_cmp(..).unwrap()`/`.expect()`
    /// outside the all-finite-guarded stats kernels.
    F1NanUnsafeOrder,
    /// W1 — malformed waiver: unknown rule, missing/empty `reason`, or
    /// an unparseable `dasr-lint:` directive. Never waivable.
    W1MalformedWaiver,
    /// G1 — transitive determinism taint: a function that directly uses
    /// wall-clock time, ambient randomness, or `HashMap`/`HashSet`
    /// iteration and is *reachable* (over the approximate call graph)
    /// from a `// dasr-lint: entry(G1)` entry point.
    G1TransitiveTaint,
    /// G2 — allocation under a `no-alloc` marker: the marked function
    /// allocates itself (flagged at each allocation site) or calls,
    /// directly or through any chain of workspace functions, something
    /// that allocates (flagged at the call edge out of the marked
    /// function).
    G2AllocReachability,
    /// G3 — panic path: a function containing `unwrap`/`expect` or
    /// indexing reachable from a `// dasr-lint: entry(G3)` entry point
    /// (engine dispatch, store read paths). One finding per function,
    /// at its first panic site.
    G3PanicPath,
}

impl LintRule {
    /// Number of rules.
    pub const COUNT: usize = 9;

    /// Every rule, in stable wire order (new rules append, nothing
    /// renumbers).
    pub const ALL: [LintRule; Self::COUNT] = [
        LintRule::D1WallClock,
        LintRule::D2MapIteration,
        LintRule::D3AmbientRandomness,
        LintRule::R1StoredText,
        LintRule::F1NanUnsafeOrder,
        LintRule::W1MalformedWaiver,
        LintRule::G1TransitiveTaint,
        LintRule::G2AllocReachability,
        LintRule::G3PanicPath,
    ];

    /// Short stable code, e.g. `"D2"`.
    pub fn code(self) -> &'static str {
        match self {
            LintRule::D1WallClock => "D1",
            LintRule::D2MapIteration => "D2",
            LintRule::D3AmbientRandomness => "D3",
            LintRule::R1StoredText => "R1",
            LintRule::F1NanUnsafeOrder => "F1",
            LintRule::W1MalformedWaiver => "W1",
            LintRule::G1TransitiveTaint => "G1",
            LintRule::G2AllocReachability => "G2",
            LintRule::G3PanicPath => "G3",
        }
    }

    /// Full stable name, e.g. `"D2-map-iteration"`.
    pub fn name(self) -> &'static str {
        match self {
            LintRule::D1WallClock => "D1-wall-clock",
            LintRule::D2MapIteration => "D2-map-iteration",
            LintRule::D3AmbientRandomness => "D3-ambient-randomness",
            LintRule::R1StoredText => "R1-stored-text",
            LintRule::F1NanUnsafeOrder => "F1-nan-unsafe-order",
            LintRule::W1MalformedWaiver => "W1-malformed-waiver",
            LintRule::G1TransitiveTaint => "G1-transitive-taint",
            LintRule::G2AllocReachability => "G2-alloc-reachability",
            LintRule::G3PanicPath => "G3-panic-path",
        }
    }

    /// One-line human description (derived text, never stored).
    pub fn description(self) -> &'static str {
        match self {
            LintRule::D1WallClock => "wall clock (Instant::now/SystemTime) outside core::obs",
            LintRule::D2MapIteration => "HashMap/HashSet iteration in a deterministic module",
            LintRule::D3AmbientRandomness => "ambient randomness outside test code",
            LintRule::R1StoredText => "String field stored in a trace/event/metric type",
            LintRule::F1NanUnsafeOrder => "partial_cmp(..).unwrap()/expect() float ordering",
            LintRule::W1MalformedWaiver => "malformed dasr-lint directive or waiver",
            LintRule::G1TransitiveTaint => {
                "nondeterministic source reachable from a deterministic entry point"
            }
            LintRule::G2AllocReachability => {
                "no-alloc function allocates, directly or through a callee"
            }
            LintRule::G3PanicPath => "unwrap/expect/indexing reachable from an audited entry point",
        }
    }

    /// Multi-line rationale shown by `dasr-lint --explain <RULE>`
    /// (derived text, never stored).
    pub fn rationale(self) -> &'static str {
        match self {
            LintRule::D1WallClock => {
                "Every verification artifact in this workspace (oracle equivalence, \
                 1/2/8-thread bit-identity, replay fidelity) assumes runs are pure \
                 functions of their seeds. A wall-clock read anywhere on a decision \
                 or simulation path silently breaks that. Wall-clock timers are \
                 allowed only inside core::obs, which is excluded from the \
                 determinism contract by design."
            }
            LintRule::D2MapIteration => {
                "std HashMap/HashSet iteration order is randomized per process. Any \
                 fold, event emission, or report built by iterating one is \
                 nondeterministic even with fixed seeds. Route through a sorted \
                 adapter or a BTree collection, or waive with a reason explaining \
                 why the fold is order-independent."
            }
            LintRule::D3AmbientRandomness => {
                "All randomness must flow from explicit, seedable streams \
                 (SplitMix64 tenant seeds). thread_rng/from_entropy/rand::random \
                 pull entropy from the OS and make runs unreproducible."
            }
            LintRule::R1StoredText => {
                "Render-from-structure: trace, event, and metric types carry \
                 structured data only; human text is derived at print time. A \
                 stored String invites formatting drift between producers and \
                 makes byte-identity meaningless."
            }
            LintRule::F1NanUnsafeOrder => {
                "partial_cmp(..).unwrap() panics on NaN, and under sort_by a NaN \
                 breaks the total-order contract (UB-adjacent ordering bugs). Use \
                 total_cmp, or the all-finite-guarded stats kernels."
            }
            LintRule::W1MalformedWaiver => {
                "A waiver without a reason is a suppressed finding nobody can \
                 audit. Every allow(...) must parse, name real rules, and carry a \
                 non-empty reason=\"...\". W1 itself can never be waived."
            }
            LintRule::G1TransitiveTaint => {
                "Token-level rules (D1/D2/D3) only see the file they are in; a \
                 deterministic entry point calling a helper two crates away that \
                 reads the clock passes them silently. G1 builds the workspace \
                 call graph, seeds taint at every direct wall-clock / ambient-rng \
                 / map-iteration use, propagates it caller-ward to a fixpoint, and \
                 flags every tainted source line reachable from a function marked \
                 `// dasr-lint: entry(G1)` (loop step, policy decide, fleet \
                 folds, store codec). The finding sits on the offending line, not the entry."
            }
            LintRule::G2AllocReachability => {
                "A `// dasr-lint: no-alloc` marker promises the function performs \
                 no heap allocation, itself or through anything it calls: no \
                 collect/to_vec/to_string/clone calls, no `.into()` on a string \
                 literal, no vec!/format! macros, no Vec/String/Box constructors. \
                 Hot dispatch paths use caller-owned scratch instead. G2 flags \
                 every allocation site in the marked body at its own line, and \
                 every call edge out of the marked function whose callee (or \
                 anything it transitively calls) allocates, with the offending \
                 chain in the detail."
            }
            LintRule::G3PanicPath => {
                "Engine dispatch and store read paths must not panic on untrusted \
                 input: a poisoned segment byte or a stale index must surface as \
                 an error, not abort the process. G3 walks the call graph from \
                 `// dasr-lint: entry(G3)` functions and reports each reachable \
                 function containing unwrap/expect or slice/array indexing — one \
                 finding per function, at its first panic site. Fix by \
                 propagating errors; waive bounded indexing with the invariant \
                 that bounds it."
            }
        }
    }

    /// A worked waiver (or fix) example for `--explain` output.
    pub fn waiver_example(self) -> &'static str {
        match self {
            LintRule::D1WallClock => {
                "// dasr-lint: allow(D1) reason=\"profiling scratch, not on a decision path\""
            }
            LintRule::D2MapIteration => {
                "// dasr-lint: allow(D2) reason=\"order-independent sum over values\""
            }
            LintRule::D3AmbientRandomness => {
                "// dasr-lint: allow(D3) reason=\"one-shot seed generation in a CLI tool\""
            }
            LintRule::R1StoredText => {
                "// dasr-lint: allow(R1) reason=\"interned label id, rendered elsewhere\""
            }
            LintRule::F1NanUnsafeOrder => "fix: a.total_cmp(&b) — no waiver needed",
            LintRule::W1MalformedWaiver => "not waivable: fix the directive instead",
            LintRule::G1TransitiveTaint => {
                "// dasr-lint: allow(G1) reason=\"diagnostic counter, excluded from replay\""
            }
            LintRule::G2AllocReachability => {
                "// dasr-lint: allow(G2) reason=\"callee allocates only on first call (lazy init)\""
            }
            LintRule::G3PanicPath => {
                "// dasr-lint: allow(G3) reason=\"index masked by capacity; strict-invariants asserts bounds\""
            }
        }
    }

    /// Parses a code (`"D2"`) or full name (`"D2-map-iteration"`).
    pub fn from_name(s: &str) -> Option<LintRule> {
        Self::ALL
            .iter()
            .copied()
            .find(|r| r.code() == s || r.name() == s)
    }
}

/// Where a file sits in the workspace, which decides rule applicability.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scope {
    /// Inside a deterministic module tree (`core`, `engine`, `fleet`,
    /// `stats` non-test code): D2 and D3 apply.
    pub deterministic: bool,
    /// Inside the `core::obs` timer layer: D1 exempt (wall-clock timers
    /// live there by design, excluded from the determinism contract).
    pub wallclock_exempt: bool,
    /// Inside the all-finite-guarded stats kernels: F1 exempt.
    pub float_exempt: bool,
}

impl Scope {
    /// The strictest scope: every rule applies. Used for explicit file
    /// arguments (fixtures, experiments).
    pub fn strict() -> Scope {
        Scope {
            deterministic: true,
            wallclock_exempt: false,
            float_exempt: false,
        }
    }
}

/// A raw rule hit before waiver application: rule plus source line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawFinding {
    /// The violated rule.
    pub rule: LintRule,
    /// 1-based line of the offending token.
    pub line: u32,
    /// Index of the offending token in the file's token stream (lets the
    /// item parser attribute hits to enclosing functions).
    pub tok: usize,
}

/// Trace/event/metric types protected by R1 (render-from-structure).
pub const R1_PROTECTED_TYPES: &[&str] = &[
    "DecisionTrace",
    "ResourceTrace",
    "RuleFire",
    "RuleHistogram",
    "Explanation",
    "RunEvent",
    "EventKind",
    "DenyReason",
    "BalloonPhase",
    "MetricRegistry",
    "FixedHistogram",
    "FleetSummary",
    "SampleRecord",
    // dasr-store record and index types: what goes on disk is structure,
    // never pre-rendered text.
    "StoredRecord",
    "RecordPayload",
    "RunId",
    "IndexEntry",
    "TenantFilter",
    "KindSet",
    "FireTally",
    "FireCounts",
    "StoreStats",
];

/// Method names that allocate (rule G2's allocation facts). `format`
/// and `vec` are only flagged as macro invocations (followed by `!`);
/// `Vec`/`String`/`Box` only as constructor paths.
const ALLOC_CALLS: &[&str] = &["collect", "to_vec", "to_string", "to_owned", "clone"];

/// Map methods whose call on a `HashMap`/`HashSet` receiver is
/// order-sensitive (rule D2).
const D2_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Runs every applicable token-level detection pass over a token stream.
///
/// `in_test[i]` marks tokens inside `#[cfg(test)]`/`#[test]` items (see
/// [`test_mask`]).
pub fn scan(tokens: &[Tok], in_test: &[bool], scope: Scope) -> Vec<RawFinding> {
    let mut out = Vec::new();
    scan_d1(tokens, in_test, scope, &mut out);
    if scope.deterministic {
        let map_names = collect_map_names(tokens, in_test);
        scan_d2(tokens, in_test, &map_names, &mut out);
    }
    scan_d3(tokens, in_test, &mut out);
    scan_r1(tokens, in_test, &mut out);
    scan_f1(tokens, in_test, scope, &mut out);
    out.sort_by_key(|f| (f.line, f.rule));
    out
}

/// Marks tokens inside test-gated items: `#[cfg(test)] mod … { … }`,
/// `#[test] fn … { … }`, and anything else carrying a `test` attribute
/// (but not `cfg(not(test))`).
pub fn test_mask(tokens: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            let (attr_end, is_test) = attr_span(tokens, i + 1);
            if is_test {
                // Skip any further attributes on the same item.
                let mut j = attr_end;
                while j < tokens.len()
                    && tokens[j].is_punct('#')
                    && tokens.get(j + 1).is_some_and(|t| t.is_punct('['))
                {
                    j = attr_span(tokens, j + 1).0;
                }
                // Find the item body: first `{` before a top-level `;`.
                if let Some(open) = item_body(tokens, j) {
                    let close = match_brace(tokens, open);
                    for flag in mask.iter_mut().take(close + 1).skip(i) {
                        *flag = true;
                    }
                    i = close + 1;
                    continue;
                }
            }
            i = attr_end;
            continue;
        }
        i += 1;
    }
    mask
}

/// Parses an attribute starting at the `[` token index; returns the
/// index just past the closing `]` and whether it gates test code.
fn attr_span(tokens: &[Tok], open: usize) -> (usize, bool) {
    let mut depth = 0i32;
    let mut has_test = false;
    let mut has_not = false;
    let mut j = open;
    while j < tokens.len() {
        match &tokens[j].kind {
            Kind::Punct('[') => depth += 1,
            Kind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return (j + 1, has_test && !has_not);
                }
            }
            Kind::Ident(s) if s == "test" => has_test = true,
            Kind::Ident(s) if s == "not" => has_not = true,
            _ => {}
        }
        j += 1;
    }
    (tokens.len(), false)
}

/// Finds the `{` opening an item's body starting at `j`, stopping at a
/// top-level `;` (body-less items like `mod tests;`).
fn item_body(tokens: &[Tok], j: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in tokens.iter().enumerate().skip(j) {
        match t.kind {
            Kind::Punct('(') | Kind::Punct('[') => depth += 1,
            Kind::Punct(')') | Kind::Punct(']') => depth -= 1,
            Kind::Punct('{') if depth == 0 => return Some(k),
            Kind::Punct(';') if depth == 0 => return None,
            _ => {}
        }
    }
    None
}

/// Index of the `}` matching the `{` at `open` (or the last token).
fn match_brace(tokens: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        match t.kind {
            Kind::Punct('{') => depth += 1,
            Kind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
    }
    tokens.len().saturating_sub(1)
}

fn is_path_sep(tokens: &[Tok], i: usize) -> bool {
    tokens[i].is_punct(':') && tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
}

/// D1: `Instant::now` or any `SystemTime` mention.
pub(crate) fn scan_d1(tokens: &[Tok], in_test: &[bool], scope: Scope, out: &mut Vec<RawFinding>) {
    if scope.wallclock_exempt {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        let hit = match t.ident() {
            Some("SystemTime") => true,
            Some("Instant") => {
                is_path_sep(tokens, i + 1) && tokens.get(i + 3).is_some_and(|t| t.is_ident("now"))
            }
            _ => false,
        };
        if hit {
            out.push(RawFinding {
                rule: LintRule::D1WallClock,
                line: t.line,
                tok: i,
            });
        }
    }
}

/// Names declared with a `HashMap`/`HashSet` type or constructor in
/// non-test code: `name: HashMap<..>` fields/params and
/// `let name = HashMap::new()` bindings.
pub(crate) fn collect_map_names(tokens: &[Tok], in_test: &[bool]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for i in 0..tokens.len() {
        if in_test[i] {
            continue;
        }
        // `name : [&] [mut] path::to::HashMap …`
        if let Some(name) = tokens[i].ident() {
            let colon = i + 1;
            if tokens.get(colon).is_some_and(|t| t.is_punct(':'))
                && !is_path_sep(tokens, colon)
                && (i == 0 || !tokens[i - 1].is_punct(':'))
            {
                if let Some(last) = last_path_ident(tokens, colon + 1) {
                    if last == "HashMap" || last == "HashSet" {
                        push_unique(&mut names, name);
                    }
                }
            }
        }
        // `name = [path::]HashMap::new(…)` / `HashSet::with_capacity(…)`
        if i >= 1
            && tokens[i].is_punct('=')
            && !tokens.get(i + 1).is_some_and(|t| t.is_punct('='))
            && !matches!(tokens[i - 1].kind, Kind::Punct(_))
        {
            if let Some(name) = tokens[i - 1].ident() {
                if path_contains_map(tokens, i + 1) {
                    push_unique(&mut names, name);
                }
            }
        }
    }
    names
}

fn push_unique(names: &mut Vec<String>, name: &str) {
    if !names.iter().any(|n| n == name) {
        names.push(name.to_string());
    }
}

/// Last identifier of the type path starting at `j` (skipping `&`,
/// `mut`, `dyn`), stopping at `<` or any non-path token.
fn last_path_ident(tokens: &[Tok], mut j: usize) -> Option<&str> {
    while tokens
        .get(j)
        .is_some_and(|t| t.is_punct('&') || t.is_ident("mut") || t.is_ident("dyn"))
    {
        j += 1;
    }
    let mut last = tokens.get(j)?.ident()?;
    j += 1;
    while is_path_sep(tokens, j) {
        j += 2;
        last = tokens.get(j)?.ident()?;
        j += 1;
    }
    Some(last)
}

/// Whether the expression path starting at `j` mentions `HashMap` or
/// `HashSet` before leaving path position.
fn path_contains_map(tokens: &[Tok], mut j: usize) -> bool {
    while tokens
        .get(j)
        .is_some_and(|t| t.is_punct('&') || t.is_ident("mut"))
    {
        j += 1;
    }
    loop {
        match tokens.get(j).and_then(Tok::ident) {
            Some("HashMap") | Some("HashSet") => return true,
            Some(_) => {
                j += 1;
                if is_path_sep(tokens, j) {
                    j += 2;
                } else {
                    return false;
                }
            }
            None => return false,
        }
    }
}

/// D2: order-sensitive method calls and `for`-loops over map names,
/// unless the same statement routes through a sorted adapter.
pub(crate) fn scan_d2(
    tokens: &[Tok],
    in_test: &[bool],
    map_names: &[String],
    out: &mut Vec<RawFinding>,
) {
    for i in 0..tokens.len() {
        if in_test[i] {
            continue;
        }
        // `name.iter()` style.
        if let Some(m) = tokens[i].ident() {
            if D2_ITER_METHODS.contains(&m)
                && i >= 2
                && tokens[i - 1].is_punct('.')
                && tokens
                    .get(i + 1)
                    .is_some_and(|t| t.is_punct('(') || t.is_punct(':'))
                && tokens[i - 2]
                    .ident()
                    .is_some_and(|n| map_names.iter().any(|x| x == n))
                && !sorted_adapter_follows(tokens, i)
            {
                out.push(RawFinding {
                    rule: LintRule::D2MapIteration,
                    line: tokens[i].line,
                    tok: i,
                });
            }
        }
        // `for pat in [&][mut] name {` — the expression ends at the map
        // name itself (method-call forms are caught above).
        if tokens[i].is_ident("for") {
            if let Some((expr_last, line)) = for_loop_expr_last(tokens, i) {
                if map_names.iter().any(|x| x == expr_last) {
                    out.push(RawFinding {
                        rule: LintRule::D2MapIteration,
                        line,
                        tok: i,
                    });
                }
            }
        }
    }
}

/// For a `for` keyword at `i`, returns the final identifier of the
/// iterated expression and its line, when the expression ends in a bare
/// identifier.
fn for_loop_expr_last(tokens: &[Tok], i: usize) -> Option<(&str, u32)> {
    // Find the `in` keyword at pattern depth 0.
    let mut depth = 0i32;
    let mut j = i + 1;
    let in_idx = loop {
        let t = tokens.get(j)?;
        match &t.kind {
            Kind::Punct('(') | Kind::Punct('[') => depth += 1,
            Kind::Punct(')') | Kind::Punct(']') => depth -= 1,
            Kind::Ident(s) if s == "in" && depth == 0 => break j,
            Kind::Punct('{') | Kind::Punct(';') => return None,
            _ => {}
        }
        j += 1;
    };
    // Walk the expression to the loop body `{`.
    depth = 0;
    let mut k = in_idx + 1;
    let mut last: Option<&Tok> = None;
    loop {
        let t = tokens.get(k)?;
        match &t.kind {
            Kind::Punct('(') | Kind::Punct('[') => depth += 1,
            Kind::Punct(')') | Kind::Punct(']') => depth -= 1,
            Kind::Punct('{') if depth == 0 => break,
            _ => {}
        }
        last = Some(t);
        k += 1;
    }
    let t = last?;
    t.ident().map(|s| (s, t.line))
}

/// True when the statement containing the method call at `i` pipes the
/// iteration through a sorting adapter (identifier containing "sort" or
/// a BTree re-collection) before the statement ends.
fn sorted_adapter_follows(tokens: &[Tok], i: usize) -> bool {
    for t in tokens.iter().skip(i + 1).take(60) {
        match &t.kind {
            Kind::Punct(';') | Kind::Punct('{') => return false,
            Kind::Ident(s) if s.contains("sort") || s == "BTreeMap" || s == "BTreeSet" => {
                return true
            }
            _ => {}
        }
    }
    false
}

/// D3: ambient randomness — `thread_rng`, `ThreadRng`, `from_entropy`,
/// and `rand::random`.
pub(crate) fn scan_d3(tokens: &[Tok], in_test: &[bool], out: &mut Vec<RawFinding>) {
    for (i, t) in tokens.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        let hit = match t.ident() {
            Some("thread_rng") | Some("ThreadRng") | Some("from_entropy") => true,
            Some("random") => {
                i >= 3 && is_path_sep(tokens, i - 2) && tokens[i - 3].is_ident("rand")
            }
            _ => false,
        };
        if hit {
            out.push(RawFinding {
                rule: LintRule::D3AmbientRandomness,
                line: t.line,
                tok: i,
            });
        }
    }
}

/// R1: a `String` field inside a protected trace/event/metric type
/// definition.
fn scan_r1(tokens: &[Tok], in_test: &[bool], out: &mut Vec<RawFinding>) {
    let mut i = 0usize;
    while i < tokens.len() {
        let is_def = !in_test[i]
            && (tokens[i].is_ident("struct") || tokens[i].is_ident("enum"))
            && tokens
                .get(i + 1)
                .and_then(Tok::ident)
                .is_some_and(|n| R1_PROTECTED_TYPES.contains(&n));
        if !is_def {
            i += 1;
            continue;
        }
        let Some(open) = item_body(tokens, i + 2) else {
            i += 2;
            continue;
        };
        let close = match_brace(tokens, open);
        for (k, t) in tokens.iter().enumerate().take(close + 1).skip(open) {
            if t.is_ident("String") {
                out.push(RawFinding {
                    rule: LintRule::R1StoredText,
                    line: t.line,
                    tok: k,
                });
            }
        }
        i = close + 1;
    }
}

/// F1: `partial_cmp(…).unwrap()` / `.expect(…)` — a NaN poisons the
/// comparator and panics (or worse, under `sort_by`, breaks the total
/// order contract).
fn scan_f1(tokens: &[Tok], in_test: &[bool], scope: Scope, out: &mut Vec<RawFinding>) {
    if scope.float_exempt {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        if in_test[i] || !t.is_ident("partial_cmp") {
            continue;
        }
        // Walk the argument list, then require `.unwrap` / `.expect`.
        if !tokens.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        let mut depth = 0i32;
        let mut j = i + 1;
        while let Some(tt) = tokens.get(j) {
            match tt.kind {
                Kind::Punct('(') => depth += 1,
                Kind::Punct(')') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let unwrapped = tokens.get(j + 1).is_some_and(|t| t.is_punct('.'))
            && tokens
                .get(j + 2)
                .and_then(Tok::ident)
                .is_some_and(|m| m == "unwrap" || m == "expect");
        if unwrapped {
            out.push(RawFinding {
                rule: LintRule::F1NanUnsafeOrder,
                line: t.line,
                tok: i,
            });
        }
    }
}

/// Whether the token at `i` is an allocation site: allocating calls
/// (`collect`, `clone`, `to_vec`, …), a string literal's `.into()`,
/// allocating macros (`vec!`, `format!`), and allocating constructors
/// (`Vec::new`, `String::from`, `Box::new`): the raw material of the graph
/// phase's per-function allocation facts.
fn alloc_hit(tokens: &[Tok], i: usize) -> bool {
    let Some(name) = tokens[i].ident() else {
        return false;
    };
    if name == "into" {
        // `"…".into()` builds an owned string (or byte vector) from the
        // literal; `.into()` on anything else may convert for free.
        i >= 2
            && tokens[i - 1].is_punct('.')
            && tokens[i - 2].kind == Kind::Str
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
    } else if ALLOC_CALLS.contains(&name) {
        // Require call position to spare field names like `clone`.
        tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
            || (tokens.get(i + 1).is_some_and(|t| t.is_punct(':')) && is_path_sep(tokens, i + 1))
    } else if name == "vec" || name == "format" {
        tokens.get(i + 1).is_some_and(|t| t.is_punct('!'))
    } else if name == "Vec" || name == "String" || name == "Box" || name == "VecDeque" {
        is_path_sep(tokens, i + 1)
            && tokens
                .get(i + 3)
                .and_then(Tok::ident)
                .is_some_and(|m| matches!(m, "new" | "with_capacity" | "from" | "from_iter"))
    } else {
        false
    }
}

/// Allocation sites anywhere in non-test code — the graph phase's raw
/// material for per-function allocation facts (rule G2).
pub(crate) fn scan_alloc_all(tokens: &[Tok], in_test: &[bool]) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if !in_test[i] && alloc_hit(tokens, i) {
            out.push(RawFinding {
                rule: LintRule::G2AllocReachability,
                line: tokens[i].line,
                tok: i,
            });
        }
    }
    out
}

/// A potential panic site kind (rule G3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanicKind {
    /// `.unwrap()` / `.expect(..)` on an Option/Result.
    Unwrap,
    /// Slice/array indexing `x[i]` (panics when out of bounds).
    Index,
}

/// A raw panic site: kind, token index, line.
#[derive(Debug, Clone, Copy)]
pub struct PanicSite {
    /// What kind of panic site.
    pub kind: PanicKind,
    /// Token index of the site.
    pub tok: usize,
    /// 1-based source line.
    pub line: u32,
}

/// Keywords that precede `[` without forming an index expression
/// (`let [a, b] = …`, `return [x]`, …).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "return", "in", "if", "else", "match", "while", "break", "move", "as", "mut", "ref",
];

/// Panic sites in non-test code: `.unwrap()`/`.expect(..)` calls and
/// index expressions (`[` preceded by an identifier, `)` or `]`).
pub(crate) fn scan_panics(tokens: &[Tok], in_test: &[bool]) -> Vec<PanicSite> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        match &t.kind {
            Kind::Ident(s)
                if (s == "unwrap" || s == "expect")
                    && i >= 1
                    && tokens[i - 1].is_punct('.')
                    && tokens.get(i + 1).is_some_and(|t| t.is_punct('(')) =>
            {
                out.push(PanicSite {
                    kind: PanicKind::Unwrap,
                    tok: i,
                    line: t.line,
                });
            }
            Kind::Punct('[') if i >= 1 => {
                let prev = &tokens[i - 1];
                let indexes = match &prev.kind {
                    Kind::Ident(p) => !NON_INDEX_KEYWORDS.contains(&p.as_str()),
                    Kind::Punct(')') | Kind::Punct(']') => true,
                    _ => false,
                };
                if indexes {
                    out.push(PanicSite {
                        kind: PanicKind::Index,
                        tok: i,
                        line: t.line,
                    });
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn scan_src(src: &str, scope: Scope) -> Vec<RawFinding> {
        let lexed = lex(src);
        let in_test = test_mask(&lexed.tokens);
        scan(&lexed.tokens, &in_test, scope)
    }

    #[test]
    fn rule_names_round_trip() {
        for r in LintRule::ALL {
            assert_eq!(LintRule::from_name(r.code()), Some(r));
            assert_eq!(LintRule::from_name(r.name()), Some(r));
        }
        assert_eq!(LintRule::from_name("Z9"), None);
        assert_eq!(LintRule::ALL.len(), LintRule::COUNT);
    }

    #[test]
    fn cfg_test_bodies_are_exempt() {
        let src = r#"
            #[cfg(test)]
            mod tests {
                fn helper() {
                    let t = std::time::Instant::now();
                }
            }
        "#;
        assert!(scan_src(src, Scope::strict()).is_empty());
    }

    #[test]
    fn cfg_not_test_is_not_exempt() {
        let src = r#"
            #[cfg(not(test))]
            fn live() {
                let t = std::time::Instant::now();
            }
        "#;
        let hits = scan_src(src, Scope::strict());
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, LintRule::D1WallClock);
    }

    #[test]
    fn map_len_is_not_iteration() {
        let src = r#"
            struct S { locks: HashMap<u32, u32> }
            impl S {
                fn size(&self) -> usize { self.locks.len() }
                fn probe(&self) -> bool { self.locks.contains_key(&1) }
                fn count(&self) -> usize {
                    let mut n = 0;
                    for i in 0..self.locks.len() { n += i; }
                    n
                }
            }
        "#;
        assert!(scan_src(src, Scope::strict()).is_empty());
    }

    #[test]
    fn sorted_adapter_escapes_d2() {
        let src = r#"
            struct S { m: HashMap<u32, u32> }
            impl S {
                fn sorted(&self) -> Vec<u32> {
                    let mut v: Vec<u32> = self.m.keys().copied().collect();
                    v.sort_unstable();
                    v
                }
            }
        "#;
        // The `.keys()` statement contains no sort adapter; the sort is
        // a separate statement — this *is* flagged, and the fix is to
        // chain or waive. Verify the flag fires, then the chained form
        // passes.
        let hits = scan_src(src, Scope::strict());
        assert_eq!(hits.len(), 1);
        let chained = r#"
            struct S { m: HashMap<u32, u32> }
            impl S {
                fn sorted(&self) -> Vec<u32> {
                    let mut v: Vec<u32> = self.m.keys().copied().collect::<Vec<_>>().sorted_vec();
                    v
                }
            }
        "#;
        assert!(scan_src(chained, Scope::strict()).is_empty());
    }
}
