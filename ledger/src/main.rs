//! `ledger` — the repo's benchmark. One runner, four workloads, end-to-end
//! and per-layer metrics every later performance claim is measured with.
//!
//! ```text
//! ledger run --workload NAME --seed N --seconds S --trace 0|1   one run; the driver's form
//! ledger run [--seeds A,B,..] [--trace 0|1|both] [--out FILE]  every workload per seed, one process each
//! ledger run --smoke                                           every workload, both kinds, tiny counts
//! ledger diff A.json B.json [--layers]                         same | better | worse | unresolved
//! ledger manifest                                              print BENCHMARK.json
//! ledger layers                                                print the layer -> end-to-end table
//! ```
//!
//! See `README.md` beside this crate for the metric glossary.

mod alloc;
mod calib;
mod diff;
mod gen;
mod json;
mod live;
mod metrics;
mod pace;
mod probes;
mod procfs;
mod result;
mod run;
mod spans;
mod stats;
mod wire;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use json::Json;
use result::{ResultFile, RunRecord};
use run::{RunOutput, RunPlan};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Measured seconds of a `--smoke` run: long enough for three repetitions
/// of every phase at smoke counts, short enough that all eight runs fit in
/// five seconds.
const SMOKE_SECONDS: f64 = 0.25;

#[derive(Debug, Default)]
struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    /// `Some(false)`, `Some(true)`, or `None` for both kinds.
    trace: Option<bool>,
    smoke: bool,
    /// Without `--workload`: one pass over every workload per seed.
    seeds: Vec<u64>,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        seed: 1,
        trace: Some(false),
        ..RunArgs::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    "both" => None,
                    other => return Err(format!("--trace takes 0, 1 or both, not {other:?}")),
                }
            }
            "--traced" => parsed.trace = Some(true),
            "--smoke" => parsed.smoke = true,
            "--seeds" => {
                parsed.seeds = value()?
                    .split(',')
                    .map(|s| s.parse().map_err(|e| format!("--seeds: {e}")))
                    .collect::<Result<_, _>>()?
            }
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--spans" => parsed.spans = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if parsed.seeds.is_empty() {
        parsed.seeds = vec![parsed.seed];
    }
    if parsed.smoke {
        parsed.seconds = Some(SMOKE_SECONDS);
        if parsed.workload.is_none() {
            parsed.trace = None;
        }
    }
    Ok(parsed)
}

/// A directory for this process's files (durable store, probe logs) next
/// to the executable — inside the build directory, hence inside the
/// checkout, and never in a shared `/tmp`.
fn scratch_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = exe
        .parent()
        .unwrap_or(Path::new("."))
        .join(format!("ledger-scratch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn print_run(plan: &RunPlan, out: &RunOutput, record: &RunRecord) {
    let workload = &record.workload;
    println!(
        "# {workload}  seed={} seconds={} trace={}{}",
        plan.seed,
        plan.seconds,
        u8::from(plan.trace),
        if plan.smoke { " smoke" } else { "" }
    );
    for (name, value, unit) in &record.metrics {
        println!("{name:<34} {value:>16.4} {unit}");
    }
    for (key, value) in &out.info {
        println!("  ({key}: {value})");
    }
    for note in &out.checks.notes {
        println!("  FAILED CHECK: {note}");
    }
    println!(
        "  attempted={} failed={} correct={}",
        out.checks.attempted,
        out.checks.failed,
        out.correct()
    );
}

/// One workload, in this process. Prints the table, then the result line.
fn run_one(workload: &str, args: &RunArgs) -> Result<bool, String> {
    // Best effort: a refused mask (one core, a cpuset) leaves it floating.
    let pinned = pbio_net::affinity::pin_current_thread(live::MAIN_CPU).is_ok();
    let scratch = scratch_dir()?;
    let plan = RunPlan {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(f64::from(metrics::RUN_SECONDS)),
        trace: args.trace.unwrap_or(false),
        smoke: args.smoke,
        scratch: scratch.clone(),
    };
    let result = workloads::run(workload, &plan);
    let _ = std::fs::remove_dir_all(&scratch);
    let mut out = result?;
    out.note("main_thread_pinned", pinned);
    let record = RunRecord::from_output(workload, plan.seed, plan.trace, &out);
    print_run(&plan, &out, &record);
    if let (Some(path), Some(spans)) = (&args.spans, &out.spans) {
        std::fs::write(path, spans.to_string()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", record.result_line());
    Ok(record.correct)
}

/// Every workload, each in a process of its own so set-up time and peak
/// RSS mean what they mean under the driver.
fn run_all(args: &RunArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let seconds = args.seconds.unwrap_or(f64::from(metrics::RUN_SECONDS));
    let kinds: &[bool] = match args.trace {
        Some(false) => &[false],
        Some(true) => &[true],
        None => &[false, true],
    };
    let scratch = scratch_dir()?;
    let fingerprint = procfs::fingerprint(&scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    let mut file = ResultFile {
        fingerprint: fingerprint
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
        seconds,
        runs: Vec::new(),
    };
    let mut all_correct = true;
    for &seed in &args.seeds {
        for w in &metrics::WORKLOADS {
            for &trace in kinds {
                let mut cmd = Command::new(&exe);
                cmd.args(["run", "--workload", w.name])
                    .args(["--seed", &seed.to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .stdout(Stdio::piped());
                if args.smoke {
                    cmd.arg("--smoke");
                }
                let child = cmd
                    .output()
                    .map_err(|e| format!("spawning {}: {e}", w.name))?;
                let stdout = String::from_utf8_lossy(&child.stdout);
                let mut lines: Vec<&str> = stdout.lines().collect();
                let last = lines.pop().unwrap_or_default();
                for line in lines {
                    println!("{line}");
                }
                let record = Json::parse(last)
                    .and_then(|j| RunRecord::from_result_line(w.name, seed, trace, &j))
                    .map_err(|e| format!("{} printed no result line ({e}): {last:?}", w.name))?;
                all_correct &= record.correct && child.status.success();
                file.runs.push(record);
            }
        }
    }
    if let Some(path) = &args.out {
        std::fs::write(path, file.to_json().pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    println!(
        "{} runs, {}",
        file.runs.len(),
        if all_correct {
            "all correct"
        } else {
            "SOME FAILED"
        }
    );
    Ok(all_correct)
}

fn diff_files(args: &[String]) -> Result<bool, String> {
    let layers = args.iter().any(|a| a == "--layers");
    let paths: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let [a, b] = paths[..] else {
        return Err("usage: ledger diff A.json B.json [--layers]".into());
    };
    let load = |p: &String| -> Result<ResultFile, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        ResultFile::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (text, any_worse) = diff::report(&load(a)?, &load(b)?, layers);
    print!("{text}");
    Ok(!any_worse)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run_args(&args[1..]).and_then(|a| match a.workload.clone() {
            Some(w) => run_one(&w, &a),
            None => run_all(&a),
        }),
        Some("diff") => diff_files(&args[1..]),
        Some("manifest") => {
            print!("{}", metrics::manifest().pretty());
            Ok(true)
        }
        Some("layers") => {
            print!("{}", metrics::interaction_table());
            Ok(true)
        }
        _ => Err("usage: ledger run|diff|manifest|layers ... (see ledger/README.md)".into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}
