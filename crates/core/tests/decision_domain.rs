//! The §4.2 demand tables and the §6 arbitration table, checked over their
//! whole finite domain.
//!
//! `HIGH_DEMAND` and `LOW_DEMAND` read a resource's three levels, its
//! utilization and wait share against fixed cut-offs, its two trends, its
//! two latency correlations against `corr_threshold`, and the latency
//! verdict. Each continuous value here takes one point inside every region
//! between its cut-offs, each cut-off itself, and NaN and ±∞; each level
//! is derived from its value by the telemetry manager's own categorizers at
//! the thresholds the manager reads, so every input is one the manager can
//! produce. One input is one *class*: every value inside a region behaves
//! alike under the tables, up to the numbers a fired rule renders.
//!
//! Every class goes through `DemandEstimator::estimate` for all four
//! resource kinds. The test asserts the §4 properties on every class, that
//! every table row fires for some class, and which conjuncts of a row the
//! rest of it implies; it then pins every class's `(evaluated, fired id,
//! step, render())` to one FNV-1a hash, recorded while the seed's if-chain
//! estimator still agreed with the tables on every class. `ARBITRATION` is
//! checked the same way over every fact set `AutoPolicy::decide` can
//! derive.

use dasr_containers::{ResourceKind, RESOURCE_KINDS};
use dasr_core::estimator::{DemandEstimator, EstimatorConfig};
use dasr_core::rules::{
    EvalCtx, Fact, FactSet, Predicate, RuleId, RuleTable, ARBITRATION, DOMINANT_WAIT_PCT,
    HIGH_DEMAND, LOW_DEMAND, VERY_HIGH_UTIL_PCT, VERY_LOW_UTIL_PCT,
};
use dasr_stats::{Trend, TrendDirection};
use dasr_telemetry::categorize::{
    categorize_latency, categorize_util, categorize_wait_ms, categorize_wait_pct, LatencyVerdict,
    UtilLevel, WaitTimeLevel,
};
use dasr_telemetry::manager::THRESHOLDS;
use dasr_telemetry::{LatencySignals, ResourceSignals, SignalSet};

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Classes per resource kind: 12 utilizations × 8 wait magnitudes × 8
/// shares × 7² correlations × 3² trends × 2 verdicts.
const CLASSES_PER_KIND: usize = 677_376;

/// The hash of every class's outcome, kinds in `RESOURCE_KINDS` order
/// within each class.
const PINNED_CLASS_HASH: u64 = 0xb7d9_3c8c_fd6a_7f56;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// One point inside every region between the `cuts` of a value ranging
/// over `[lo, hi]`, each cut itself, then NaN and ±∞.
fn points(cuts: &[f64], lo: f64, hi: f64) -> Vec<f64> {
    let mut cuts = cuts.to_vec();
    cuts.sort_by(f64::total_cmp);
    cuts.dedup();
    let mut out = Vec::new();
    let mut prev = lo;
    for &c in &cuts {
        out.extend([(prev + c) / 2.0, c]);
        prev = c;
    }
    out.extend([
        (prev + hi) / 2.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ]);
    out
}

fn trend(direction: Option<TrendDirection>) -> Trend {
    match direction {
        None => Trend::None,
        Some(direction) => Trend::Significant {
            direction,
            slope: match direction {
                TrendDirection::Increasing => 1.0,
                TrendDirection::Decreasing => -1.0,
            },
            agreement: 0.9,
        },
    }
}

/// Every input point of the demand tables.
struct Domain {
    utils: Vec<f64>,
    waits: Vec<f64>,
    shares: Vec<f64>,
    corrs: Vec<Option<f64>>,
    trends: [Trend; 3],
    latencies: [LatencySignals; 2],
}

impl Domain {
    fn new(cfg: &EstimatorConfig) -> Self {
        let mut wait_cuts = Vec::new();
        let mut share_cuts = vec![DOMINANT_WAIT_PCT];
        for kind in RESOURCE_KINDS {
            let w = THRESHOLDS.waits_for(kind);
            wait_cuts.extend([w.low_ms, w.high_ms]);
            share_cuts.push(w.significant_pct);
        }
        let util_cuts = [
            VERY_LOW_UTIL_PCT,
            THRESHOLDS.util_low_pct,
            THRESHOLDS.util_high_pct,
            VERY_HIGH_UTIL_PCT,
        ];
        let corrs = std::iter::once(None)
            .chain(
                points(&[cfg.corr_threshold], -1.0, 1.0)
                    .into_iter()
                    .map(Some),
            )
            .collect();
        let latencies = [10.0, 100.0].map(|observed_ms| LatencySignals {
            observed_ms: Some(observed_ms),
            goal_ms: Some(50.0),
            verdict: categorize_latency(Some(observed_ms), Some(50.0)),
            trend: Trend::None,
        });
        assert_eq!(
            latencies.map(|l| l.verdict),
            [LatencyVerdict::Good, LatencyVerdict::Bad]
        );
        Self {
            utils: points(&util_cuts, 0.0, 100.0),
            waits: points(&wait_cuts, 0.0, 100.0),
            shares: points(&share_cuts, 0.0, 100.0),
            corrs,
            trends: [
                None,
                Some(TrendDirection::Increasing),
                Some(TrendDirection::Decreasing),
            ]
            .map(trend),
            latencies,
        }
    }

    fn len(&self) -> usize {
        self.utils.len()
            * self.waits.len()
            * self.shares.len()
            * self.corrs.len().pow(2)
            * self.trends.len().pow(2)
            * self.latencies.len()
    }

    /// Class `i`, as the signal set that holds it for every resource kind.
    /// The verdict varies fastest, then the wait trend, the utilization
    /// trend, the two correlations, the share, the wait magnitude and the
    /// utilization.
    fn class(&self, i: usize) -> SignalSet {
        let mut rest = i;
        let mut digit = |n: usize| {
            let d = rest % n;
            rest /= n;
            d
        };
        let latency = self.latencies[digit(self.latencies.len())];
        let wait_trend = self.trends[digit(self.trends.len())];
        let util_trend = self.trends[digit(self.trends.len())];
        let corr_latency_util = self.corrs[digit(self.corrs.len())];
        let corr_latency_wait = self.corrs[digit(self.corrs.len())];
        let wait_pct = self.shares[digit(self.shares.len())];
        let wait_ms = self.waits[digit(self.waits.len())];
        let util_pct = self.utils[digit(self.utils.len())];
        let resource = |kind: ResourceKind| {
            let waits = THRESHOLDS.waits_for(kind);
            ResourceSignals {
                kind,
                util_pct,
                util_level: categorize_util(&THRESHOLDS, util_pct),
                wait_ms,
                wait_level: categorize_wait_ms(waits, wait_ms),
                wait_pct,
                wait_pct_level: categorize_wait_pct(waits, wait_pct),
                util_trend,
                wait_trend,
                corr_latency_wait,
                corr_latency_util,
            }
        };
        SignalSet {
            interval: 0,
            resources: RESOURCE_KINDS.map(resource),
            latency,
            lock_wait_pct: 0.0,
            mem_used_mb: 0.0,
            mem_capacity_mb: 0.0,
            disk_reads_per_sec: 0.0,
            completed: 0,
        }
    }
}

/// The conjuncts of a row's condition: the sub-predicates of an `All`, or
/// the condition alone.
fn conjuncts(when: &Predicate) -> &[Predicate] {
    match when {
        Predicate::All(subs) => subs,
        other => std::slice::from_ref(other),
    }
}

/// For every row of one table, the conjunct truth masks seen over the
/// domain (bit `m` of `seen[row]` is set when some input made exactly the
/// conjuncts in `m` hold), and the rows that fired.
struct RowLog {
    table: &'static RuleTable,
    seen: Vec<u64>,
    fired: Vec<RuleId>,
}

impl RowLog {
    fn new(table: &'static RuleTable) -> Self {
        assert!(table.rules.iter().all(|r| conjuncts(&r.when).len() <= 6));
        Self {
            table,
            seen: vec![0; table.rules.len()],
            fired: Vec::new(),
        }
    }

    fn record(&mut self, ctx: &EvalCtx<'_>) {
        for (row, rule) in self.table.rules.iter().enumerate() {
            let mask = conjuncts(&rule.when)
                .iter()
                .enumerate()
                .fold(0usize, |m, (j, p)| m | usize::from(p.eval(ctx)) << j);
            self.seen[row] |= 1 << mask;
        }
        if let Some(fire) = self.table.evaluate(ctx).fired {
            if !self.fired.contains(&fire.id) {
                self.fired.push(fire.id);
            }
        }
    }

    fn assert_every_row_fired(&self) {
        for rule in self.table.rules {
            assert!(
                self.fired.contains(&rule.id),
                "{}: row {} fires for no consistent input",
                self.table.name,
                rule.id
            );
        }
    }

    /// Every conjunct that never fails while the rest of its row holds:
    /// a conjunct the rest of the row implies.
    fn implied(&self) -> Vec<String> {
        let mut implied = Vec::new();
        for (row, rule) in self.table.rules.iter().enumerate() {
            let subs = conjuncts(&rule.when);
            let all = (1usize << subs.len()) - 1;
            for (j, p) in subs.iter().enumerate() {
                if subs.len() > 1 && self.seen[row] & (1 << (all & !(1 << j))) == 0 {
                    implied.push(format!("{}: {p:?}", rule.id));
                }
            }
        }
        implied
    }
}

/// The §4 properties every class must satisfy, for one resource kind.
fn check_class(sig: &ResourceSignals, latency: &LatencySignals, step: i8, fired: Option<RuleId>) {
    assert!((-2..=2).contains(&step), "step {step}: {sig:?}");
    if sig.kind == ResourceKind::Memory {
        let low_row = fired.is_some_and(|id| LOW_DEMAND.rules.iter().any(|r| r.id == id));
        assert!(
            step >= 0 && !low_row,
            "memory took a low-demand step (§4.3): {sig:?}"
        );
    }
    let util_alone = sig.util_level == UtilLevel::High && sig.wait_level == WaitTimeLevel::Low;
    let waits_alone = sig.util_level == UtilLevel::Low
        && sig.wait_level == WaitTimeLevel::High
        && latency.verdict == LatencyVerdict::Good;
    if util_alone || waits_alone {
        assert_eq!(
            fired, None,
            "one weak signal alone fired: {sig:?} {latency:?}"
        );
    }
    if step == 2 {
        assert!(
            sig.util_pct >= VERY_HIGH_UTIL_PCT
                && sig.wait_pct >= DOMINANT_WAIT_PCT
                && sig.increasing_pressure_trend(),
            "+2 without extreme pressure and a rising trend: {sig:?}"
        );
    }
}

#[test]
fn demand_tables_hold_their_properties_on_every_class() {
    let cfg = EstimatorConfig::default();
    let estimator = DemandEstimator::new(cfg);
    let domain = Domain::new(&cfg);
    assert_eq!(domain.len(), CLASSES_PER_KIND);

    let mut high = RowLog::new(&HIGH_DEMAND);
    let mut low = RowLog::new(&LOW_DEMAND);
    let mut hash = FNV_OFFSET;
    for i in 0..domain.len() {
        let set = domain.class(i);
        // The tables do not read the kind, so one context serves all four.
        let ctx = EvalCtx::demand(&cfg, &set.resources[0], &set.latency);
        high.record(&ctx);
        low.record(&ctx);

        let est = estimator.estimate(&set);
        for (d, sig) in est.demands.iter().zip(&set.resources) {
            check_class(sig, &set.latency, d.step, d.rule.map(|f| f.id));
            for id in d.evaluated.iter() {
                fnv1a(&mut hash, &[id.index() as u8]);
            }
            let fired = d.rule.map_or(0xFF, |f| f.id.index() as u8);
            fnv1a(&mut hash, &[b'|', fired, d.step as u8]);
            if let Some(text) = d.rule_text() {
                fnv1a(&mut hash, text.as_bytes());
            }
            fnv1a(&mut hash, b"\0");
        }
    }
    assert_eq!(
        hash, PINNED_CLASS_HASH,
        "a class's evaluation, step or rendered text moved ({hash:#018x})"
    );

    high.assert_every_row_fired();
    low.assert_every_row_fired();
    // Kept on purpose; `HIGH_DEMAND`'s doc gives the reason.
    let kept = [
        "high_a_surge: UtilIs(High)",
        "high_a_surge: WaitPctIs(Significant)",
        "low_idle: UtilIs(Low)",
    ];
    let implied = [high.implied(), low.implied()].concat();
    assert_eq!(implied, kept, "conjuncts implied by the rest of their row");
}

/// Every fact set `AutoPolicy::decide` can derive, from the booleans it
/// derives them from. The constraints between those booleans:
///
/// - a BAD verdict needs a goal (`categorize_latency`), and an emergency
///   (latency beyond twice the goal) is a BAD verdict;
/// - latency headroom needs a goal and a GOOD verdict (the margin is
///   below 1);
/// - the down cooldown (one interval) lies inside the up cooldown (at
///   least one interval).
fn derivable_fact_sets() -> Vec<FactSet> {
    let mut out = Vec::new();
    for bits in 0u32..1 << 10 {
        let bit = |i: u32| bits & (1 << i) != 0;
        let (has_goal, bad, trend_up, emergency, up_cd) = (bit(0), bit(1), bit(2), bit(3), bit(4));
        let (down_cd, any_up, any_down, headroom, lock_high) =
            (bit(5), bit(6), bit(7), bit(8), bit(9));
        if (bad && !has_goal)
            || (emergency && !bad)
            || (headroom && (!has_goal || bad))
            || (down_cd && !up_cd)
        {
            continue;
        }
        let attention = bad || trend_up;
        let wants_down = !any_up && !attention && (any_down || (headroom && !trend_up));
        let facts = FactSet::new()
            .with(Fact::HasGoal, has_goal)
            .with(Fact::LatencyAttention, attention)
            .with(Fact::UpBlocked, up_cd && !emergency)
            .with(Fact::DownBlocked, down_cd)
            .with(Fact::DemandUp, any_up)
            .with(Fact::WantsDown, wants_down)
            .with(Fact::ScaleUpGate, !has_goal || attention)
            .with(Fact::LockShareHigh, lock_high);
        if !out.contains(&facts) {
            out.push(facts);
        }
    }
    out
}

#[test]
fn arbitration_rows_all_fire_and_read_no_implied_fact() {
    let cfg = EstimatorConfig::default();
    let sets = derivable_fact_sets();
    assert_eq!(sets.len(), 64);
    let mut log = RowLog::new(&ARBITRATION);
    for &facts in &sets {
        log.record(&EvalCtx::arbitration(&cfg, facts));
    }
    log.assert_every_row_fired();
    assert_eq!(
        log.implied(),
        Vec::<String>::new(),
        "facts implied by the rest of their row"
    );
}
