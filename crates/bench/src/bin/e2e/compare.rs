//! `e2e compare <dirA> <dirB>`: two sets of run outputs, side by side.
//!
//! A set is a directory of files, each the captured standard output of an
//! `e2e run` (any mix of workloads and passes per file). For every
//! (workload, metric) present on both sides it prints each side's sample
//! count, median and quartiles, and a verdict.
//!
//! Timing and memory metrics are judged by the bounds `BENCHMARK.json`
//! declares and the rule of the `choosing-metrics` guide:
//!
//! - `worse` — B's median is worse than A's by more than the bound;
//! - `unresolved` — a side's inter-quartile spread is wider than the bound,
//!   so a regression of that size could hide in it (unless every run of
//!   one side beats every run of the other);
//! - `better` — at least ten pairs at equal seed, B wins at least nine
//!   tenths of them, and the medians differ by more than A's own
//!   inter-quartile spread;
//! - `same` — none of the above.
//!
//! The seed-exact metrics ([`EXACT_AT_EQUAL_SEED`]) and the `digest` are a
//! function of the seed alone, so they are judged pair by pair at equal
//! seed and by identity, not by a bound: `same` when every pair is
//! identical, `worse` when any B run reads worse than an A run of its seed,
//! `changed` when they differ and B is never worse (`changed` for any
//! difference of the digest, which has no direction), `unresolved` when the
//! two sets share no seed.

use crate::names::{BENCHMARK_JSON, END_TO_END, EXACT_AT_EQUAL_SEED};
use crate::stats::quartiles;
use dasr_core::json::{self, Json};
use std::collections::BTreeMap;
use std::path::Path;

/// A run's value of one metric, with the seed the run's header named.
type Seeded<T> = (Option<u64>, T);

/// One side's captured runs, in the order they were read.
#[derive(Debug, Default)]
struct RunSet {
    /// Values per (workload, metric).
    metrics: BTreeMap<(String, String), Vec<Seeded<f64>>>,
    /// Printed digests per workload.
    digests: BTreeMap<String, Vec<Seeded<String>>>,
}

/// B judged against A on one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, spreads narrower than the bound; or identical.
    Same,
    /// B is reliably better.
    Better,
    /// B is worse by more than the bound; or worse at all, where exact.
    Worse,
    /// The spread is wider than the bound; or no seed is shared.
    Unresolved,
    /// A seed-exact value differs at equal seed and B is not worse.
    Changed,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Changed => "changed",
        }
    }
}

/// Reads every run under `dir`.
fn read_set(dir: &Path) -> Result<RunSet, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_file())
        .collect();
    paths.sort();
    let mut set = RunSet::default();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        parse_output(&text, &mut set).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(set)
}

/// Folds one captured output into `set`: a `== <workload>  seed <N> …`
/// header names the workload and seed of the `digest <workload> <crc>` and
/// result (`{"correct":…}`) lines that follow it.
fn parse_output(text: &str, set: &mut RunSet) -> Result<(), String> {
    let mut run: Option<(&str, Option<u64>)> = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("== ") {
            let mut words = rest.split_whitespace();
            let workload = words.next().ok_or("empty `==` header")?;
            let seed = words
                .skip_while(|&w| w != "seed")
                .nth(1)
                .and_then(|n| n.parse().ok());
            run = Some((workload, seed));
        } else if let Some(rest) = line.strip_prefix("digest ") {
            let (w, seed) = run.ok_or("digest line before any `== <workload>` header")?;
            let crc = rest
                .split_whitespace()
                .nth(1)
                .ok_or("digest line without a value")?;
            set.digests
                .entry(w.to_string())
                .or_default()
                .push((seed, crc.to_string()));
        } else if line.starts_with("{\"correct\"") {
            let (w, seed) = run.ok_or("result line before any `== <workload>` header")?;
            let doc = json::parse(line)?;
            if !doc.get("correct")?.bool()? {
                return Err(format!("a {w} run reports correct=false"));
            }
            let Json::Obj(metrics) = doc.get("metrics")? else {
                return Err("metrics is not an object".into());
            };
            for (name, entry) in metrics {
                set.metrics
                    .entry((w.to_string(), name.clone()))
                    .or_default()
                    .push((seed, entry.get("value")?.num()?));
            }
        }
    }
    Ok(())
}

/// The declared bound of every end-to-end metric.
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let doc = json::parse(BENCHMARK_JSON)?;
    doc.get("end_to_end")?
        .arr()?
        .iter()
        .map(|e| Ok((e.get("name")?.str()?.to_string(), e.get("bound")?.num()?)))
        .collect()
}

fn values<T: Clone>(runs: &[Seeded<T>]) -> Vec<T> {
    runs.iter().map(|(_, v)| v.clone()).collect()
}

/// Pairs the k-th A run of a seed with the k-th B run of that seed.
fn pairs_at_equal_seed(a: &[Seeded<f64>], b: &[Seeded<f64>]) -> Vec<(f64, f64)> {
    let mut taken = vec![false; b.len()];
    let mut pairs = Vec::new();
    for &(seed, x) in a.iter().filter(|(seed, _)| seed.is_some()) {
        let partner = (0..b.len()).find(|&j| !taken[j] && b[j].0 == seed);
        if let Some(j) = partner {
            taken[j] = true;
            pairs.push((x, b[j].1));
        }
    }
    pairs
}

/// Fewest pairs a gain may be claimed from (`choosing-metrics`, section 8).
const MIN_PAIRS: usize = 10;

/// Judges B against A for a metric where `higher_is_better`, with
/// regression bound `bound` (a share of A's median); `pairs` are the
/// (A, B) runs at equal seed.
pub fn judge(
    a: &[f64],
    b: &[f64],
    pairs: &[(f64, f64)],
    higher_is_better: bool,
    bound: f64,
) -> Verdict {
    let [a_q1, a_med, a_q3] = quartiles(a);
    let [b_q1, b_med, b_q3] = quartiles(b);
    let scale = a_med.abs().max(f64::MIN_POSITIVE);
    // Positive when B is worse.
    let sign = if higher_is_better { 1.0 } else { -1.0 };
    let worse_by = sign * (a_med - b_med) / scale;
    let beats = |x: f64, y: f64| sign * (x - y) > 0.0;
    let spread = (a_q3 - a_q1).max(b_q3 - b_q1) / scale;
    if spread > bound {
        // Too wide to resolve the bound, unless one side sweeps the other;
        // a sweep settles which way, it does not by itself claim a gain.
        let b_sweeps = b.iter().all(|&x| a.iter().all(|&y| beats(x, y)));
        let a_sweeps = a.iter().all(|&y| b.iter().all(|&x| beats(y, x)));
        if a_sweeps && worse_by > bound {
            return Verdict::Worse;
        }
        if !a_sweeps && !b_sweeps {
            return Verdict::Unresolved;
        }
    } else if worse_by > bound {
        return Verdict::Worse;
    }
    // Ties count for neither side; the share is of all pairs run.
    let wins = pairs.iter().filter(|&&(y, x)| beats(x, y)).count();
    let clear = -worse_by > (a_q3 - a_q1) / scale;
    if pairs.len() >= MIN_PAIRS && wins * 10 >= pairs.len() * 9 && clear {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Judges a value that is a function of the seed alone: every B run
/// against every A run of its seed. `worse` says whether its first
/// argument (a B value) reads worse than its second (an A value).
fn judge_exact<T: PartialEq>(
    a: &[Seeded<T>],
    b: &[Seeded<T>],
    worse: impl Fn(&T, &T) -> bool,
) -> Verdict {
    let mut verdict = Verdict::Unresolved;
    for (seed, x) in b.iter().filter(|(seed, _)| seed.is_some()) {
        for (_, y) in a.iter().filter(|(s, _)| s == seed) {
            if worse(x, y) {
                return Verdict::Worse;
            }
            verdict = match verdict {
                Verdict::Unresolved | Verdict::Same if x == y => Verdict::Same,
                _ => Verdict::Changed,
            };
        }
    }
    verdict
}

/// Prints the comparison; `Ok(true)` iff no row is `worse`.
pub fn compare(dir_a: &Path, dir_b: &Path) -> Result<bool, String> {
    let (a, b) = (read_set(dir_a)?, read_set(dir_b)?);
    let bounds = bounds()?;
    println!(
        "{:<22} {:<36} {:>3} {:>14} {:>14} {:>14} | {:>3} {:>14} {:>14} {:>14} | verdict",
        "workload", "metric", "nA", "q1", "median", "q3", "nB", "q1", "median", "q3"
    );
    let mut none_worse = true;
    for (key, ra) in &a.metrics {
        let Some(rb) = b.metrics.get(key) else {
            continue;
        };
        let (workload, metric) = key;
        let (va, vb) = (values(ra), values(rb));
        let verdict = END_TO_END.iter().find(|d| d.name == metric).and_then(|d| {
            let higher = d.better == "higher";
            if EXACT_AT_EQUAL_SEED.contains(&d.name) {
                return Some(judge_exact(
                    ra,
                    rb,
                    |x, y| if higher { x < y } else { x > y },
                ));
            }
            let pairs = pairs_at_equal_seed(ra, rb);
            Some(judge(&va, &vb, &pairs, higher, *bounds.get(d.name)?))
        });
        none_worse &= verdict != Some(Verdict::Worse);
        let [a1, a2, a3] = quartiles(&va);
        let [b1, b2, b3] = quartiles(&vb);
        println!(
            "{workload:<22} {metric:<36} {:>3} {a1:>14.6} {a2:>14.6} {a3:>14.6} | {:>3} {b1:>14.6} {b2:>14.6} {b3:>14.6} | {}",
            va.len(),
            vb.len(),
            verdict.map_or("-", Verdict::as_str),
        );
    }
    for (workload, da) in &a.digests {
        let Some(db) = b.digests.get(workload) else {
            continue;
        };
        let verdict = judge_exact(da, db, |_, _| false);
        println!(
            "{workload:<22} {:<36} {:>3} {:>44} | {:>3} {:>44} | {}",
            "digest",
            da.len(),
            "",
            db.len(),
            "",
            verdict.as_str(),
        );
    }
    Ok(none_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten runs of a metric around `level`, each at its own seed.
    fn ten(level: f64) -> Vec<f64> {
        (0..10)
            .map(|i| level + [0.0, 1.0, -1.0, 0.5, -0.5][i % 5])
            .collect()
    }

    fn zip(a: &[f64], b: &[f64]) -> Vec<(f64, f64)> {
        a.iter().copied().zip(b.iter().copied()).collect()
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let judged = |b: &[f64], higher, bound| judge(&a, b, &zip(&a, b), higher, bound);
        // Within a 5 % bound either way.
        assert_eq!(
            judged(&[98.0, 99.0, 100.0, 101.0, 99.5], true, 0.05),
            Verdict::Same
        );
        // 10 % slower on a higher-is-better metric.
        assert_eq!(
            judged(&[90.0, 91.0, 89.0, 90.5, 89.5], true, 0.05),
            Verdict::Worse
        );
        // A side whose quartiles are 20 % apart cannot resolve a 5 % bound.
        assert_eq!(
            judged(&[80.0, 120.0, 90.0, 110.0, 100.0], true, 0.05),
            Verdict::Unresolved
        );
        // Exact metrics that repeat are `same` at any bound.
        assert_eq!(
            judge(&[7.0; 5], &[7.0; 5], &[(7.0, 7.0); 5], false, 0.001),
            Verdict::Same
        );
    }

    #[test]
    fn a_gain_needs_ten_pairs_nine_wins_and_a_clear_margin() {
        // Five against five, B sweeping A by 5 %: what two sets of runs of
        // one commit do by chance. Never a gain, at any bound.
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let b = a.map(|x| x * 0.95);
        assert_eq!(judge(&a, &b, &zip(&a, &b), false, 0.25), Verdict::Same);
        assert_eq!(judge(&a, &b, &zip(&a, &b), false, 0.001), Verdict::Same);
        // The same sweep the other way is a regression beyond a 1 % bound.
        assert_eq!(judge(&b, &a, &zip(&b, &a), false, 0.01), Verdict::Worse);

        // Ten pairs, ten wins, medians 10 apart against an IQR of 1.25.
        let (a, b) = (ten(100.0), ten(90.0));
        assert_eq!(judge(&a, &b, &zip(&a, &b), false, 0.05), Verdict::Better);
        // Ten runs a side but no seed shared: nothing is paired.
        assert_eq!(judge(&a, &b, &[], false, 0.05), Verdict::Same);
        // Nine pairs are not ten.
        assert_eq!(
            judge(&a[..9], &b[..9], &zip(&a[..9], &b[..9]), false, 0.05),
            Verdict::Same
        );
        // Ten wins, but the medians are closer than A's own quartiles.
        let b = ten(99.5);
        assert!(zip(&a, &b).iter().all(|(y, x)| x < y));
        assert_eq!(judge(&a, &b, &zip(&a, &b), false, 0.05), Verdict::Same);
        // Eight wins of ten: two pairs went the other way.
        let mut b = ten(90.0);
        b[0] = 105.0;
        b[1] = 105.0;
        assert_eq!(judge(&a, &b, &zip(&a, &b), false, 0.25), Verdict::Same);
    }

    #[test]
    fn runs_pair_by_seed_in_order() {
        let a = [
            (Some(1), 10.0),
            (Some(2), 20.0),
            (Some(1), 11.0),
            (None, 5.0),
        ];
        let b = [
            (Some(2), 21.0),
            (Some(1), 12.0),
            (Some(3), 30.0),
            (None, 6.0),
        ];
        assert_eq!(
            pairs_at_equal_seed(&a, &b),
            vec![(10.0, 12.0), (20.0, 21.0)]
        );
    }

    #[test]
    fn seed_exact_values_are_judged_by_identity_at_equal_seed() {
        let lower_is_better = |x: &f64, y: &f64| x > y;
        let a = [(Some(1), 100.0), (Some(2), 200.0), (Some(1), 100.0)];
        assert_eq!(judge_exact(&a, &a, lower_is_better), Verdict::Same);
        // 19 % more bytes at seed 2: inside a 20 % bound, and worse.
        let grown = [(Some(1), 100.0), (Some(2), 238.0)];
        assert_eq!(judge_exact(&a, &grown, lower_is_better), Verdict::Worse);
        // Fewer bytes at one seed: a change, reported as one.
        let shrunk = [(Some(1), 100.0), (Some(2), 150.0)];
        assert_eq!(judge_exact(&a, &shrunk, lower_is_better), Verdict::Changed);
        // Different seeds say nothing about identity.
        let other = [(Some(3), 100.0), (None, 100.0)];
        assert_eq!(
            judge_exact(&a, &other, lower_is_better),
            Verdict::Unresolved
        );
        // A digest has no direction: any difference is `changed`.
        let da = [(Some(1), "0b434a90".to_string())];
        let db = [(Some(1), "deadbeef".to_string())];
        assert_eq!(judge_exact(&da, &da, |_, _| false), Verdict::Same);
        assert_eq!(judge_exact(&da, &db, |_, _| false), Verdict::Changed);
    }

    #[test]
    fn outputs_are_read_per_workload_with_seed_and_digest() {
        let text = "== control_replay  seed 3  threads 2\n  note\ndigest control_replay 00c0ffee\n\
                    {\"correct\":true,\"attempted\":5,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.25,\"unit\":\"s\"}}}\n\
                    == store_archive  seed 4\n\
                    {\"correct\":true,\"attempted\":5,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":1.5,\"unit\":\"s\"}}}\n";
        let mut set = RunSet::default();
        parse_output(text, &mut set).unwrap();
        parse_output(text, &mut set).unwrap();
        assert_eq!(
            set.metrics[&("control_replay".to_string(), "setup_s".to_string())],
            vec![(Some(3), 0.25), (Some(3), 0.25)]
        );
        assert_eq!(
            set.metrics[&("store_archive".to_string(), "setup_s".to_string())],
            vec![(Some(4), 1.5), (Some(4), 1.5)]
        );
        assert_eq!(
            set.digests["control_replay"],
            vec![(Some(3), "00c0ffee".to_string()); 2]
        );
        let failed = text.replace("\"correct\":true", "\"correct\":false");
        assert!(parse_output(&failed, &mut RunSet::default()).is_err());
    }

    #[test]
    fn every_end_to_end_metric_has_a_bound() {
        let bounds = bounds().unwrap();
        for d in END_TO_END {
            assert!(bounds.contains_key(d.name), "{} has no bound", d.name);
        }
        for name in EXACT_AT_EQUAL_SEED {
            assert!(END_TO_END.iter().any(|d| d.name == name), "{name}");
        }
    }
}
