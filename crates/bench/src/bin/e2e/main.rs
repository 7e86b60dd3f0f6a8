//! `e2e` — the fleet-day benchmark.
//!
//! ```text
//! e2e run [--workload <name>|all] [--seed N] [--seconds S] [--trace 0|1]
//!         [--threads N] [--out DIR] [--smoke]
//! e2e compare <dirA> <dirB>
//! ```
//!
//! `run` measures one workload per process (so `peak_rss_mib` is per
//! workload; `all` re-executes this binary once per workload), checks its
//! own outputs, and prints as its last line the result object
//! `BENCHMARK.json`'s contract describes. See `README.md` beside this file
//! for the workloads, the metric → layer → workload table and how to
//! compare two commits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod compare;
mod driver;
mod inputs;
mod names;
mod queries;
mod spans;
mod stats;
mod traced;
mod workloads;

use driver::{Passes, RunArgs};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workloads::Workload;

/// Default `--out`: relative to the current directory, ignored by git.
const DEFAULT_OUT: &str = ".e2e_out";
/// Worker-thread cap: the load is one process with at most this many
/// `FleetRunner` threads.
const MAX_WORKERS: usize = 4;

const USAGE: &str = "usage:
  e2e run [--workload <name>|all] [--seed N] [--seconds S] [--trace 0|1]
          [--threads N] [--out DIR] [--smoke]
  e2e compare <dirA> <dirB>";

/// Seconds a `--smoke` run measures for unless told otherwise.
const SMOKE_SECONDS: f64 = 1.0;

/// `run`'s options before the workload is resolved.
struct Cli {
    workload: String,
    seed: u64,
    /// `--seconds`, when given.
    seconds: Option<f64>,
    passes: Passes,
    threads: usize,
    out: PathBuf,
    smoke: bool,
}

impl Cli {
    /// How long the untraced pass measures: `--seconds`, else one second
    /// for `--smoke`, else `BENCHMARK.json`'s `run_seconds`.
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or_else(|| {
            if self.smoke {
                return SMOKE_SECONDS;
            }
            dasr_core::json::parse(names::BENCHMARK_JSON)
                .and_then(|doc| doc.get("run_seconds")?.num())
                .expect("BENCHMARK.json declares run_seconds")
        })
    }
}

fn parse_run(args: &[String]) -> Result<Cli, String> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let mut cli = Cli {
        workload: "all".into(),
        seed: 1,
        seconds: None,
        passes: Passes::Both,
        threads: nproc.min(MAX_WORKERS),
        out: PathBuf::from(DEFAULT_OUT),
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            cli.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => cli.workload = value.clone(),
            "--seed" => cli.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad(&"must be positive"));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.passes = match value.as_str() {
                    "0" => Passes::EndToEnd,
                    "1" => Passes::PerLayer,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--threads" => {
                cli.threads = value.parse().map_err(|e| bad(&e))?;
                if cli.threads == 0 {
                    return Err(bad(&"must be at least 1"));
                }
            }
            "--out" => cli.out = PathBuf::from(value),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(cli)
}

/// Re-executes this binary for one workload, passing its output through;
/// returns whether it succeeded and the digest it printed.
fn child(cli: &Cli, workload: &str, threads: usize) -> Result<(bool, Option<String>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds().to_string()])
        .args(["--threads", &threads.to_string()])
        .arg("--out")
        .arg(&cli.out);
    match cli.passes {
        Passes::EndToEnd => cmd.args(["--trace", "0"]),
        Passes::PerLayer => cmd.args(["--trace", "1"]),
        Passes::Both => &mut cmd,
    };
    if cli.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("digest "))
        .map(str::to_string);
    Ok((output.status.success(), digest))
}

/// `--workload all`: every workload in its own process; with `--smoke`,
/// `fleet_day_mixed` once more on one thread, whose digest must match.
fn run_all(cli: &Cli) -> Result<bool, String> {
    let mut ok = true;
    let mut mixed_digest = None;
    for name in names::WORKLOADS {
        let (passed, digest) = child(cli, name, cli.threads)?;
        ok &= passed;
        if name == Workload::FleetDayMixed.name() {
            mixed_digest = digest;
        }
    }
    if cli.smoke {
        let (passed, digest) = child(cli, Workload::FleetDayMixed.name(), 1)?;
        let same = digest.is_some() && digest == mixed_digest;
        println!(
            "[{}] fleet_day_mixed digest at 1 thread == at {} threads",
            if same { "ok" } else { "FAIL" },
            cli.threads
        );
        ok &= passed && same;
    }
    Ok(ok)
}

fn run(args: &[String]) -> Result<bool, String> {
    let cli = parse_run(args)?;
    if cli.workload == "all" {
        return run_all(&cli);
    }
    let workload = Workload::parse(&cli.workload)
        .ok_or_else(|| format!("unknown workload {:?}", cli.workload))?;
    std::fs::create_dir_all(&cli.out).map_err(|e| format!("{}: {e}", cli.out.display()))?;
    let report = driver::run(RunArgs {
        workload,
        seed: cli.seed,
        seconds: cli.seconds(),
        passes: cli.passes,
        threads: cli.threads,
        out: cli.out,
        smoke: cli.smoke,
    })?;
    Ok(report.print())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, [a, b])) if cmd == "compare" => compare::compare(a.as_ref(), b.as_ref()),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::from(2)
        }
    }
}
