//! pbio-ctl — the observability tools, one subcommand each.
//!
//! ```text
//! pbio-ctl stats    # per-stage cost table from the `$stats` channel
//! pbio-ctl trace    # causal timelines from the `$trace` channel
//! pbio-ctl top      # daemon topology from the `INSPECT` exchange
//! pbio-ctl dump     # render a wire-tap capture directory
//! pbio-ctl replay   # re-drive a captured session against a live daemon
//! ```
//!
//! Every subcommand takes `--json` (one schema-bearing JSON object
//! instead of tables) and `--smoke` (its self-contained demo plus the CI
//! assertions; exit status 1 when one fails). `stats`, `trace` and `top`
//! attach to a live daemon with `--addr HOST:PORT` and run their demo
//! without it; `--smoke` with `--addr` is a usage error, because the
//! assertions describe the demo. Each subcommand's module documents its
//! own flags.

/// `{"f":x.f,...}` over the listed fields of `x`, in order; a field
/// written `f = expr` takes its JSON value from `expr` instead.
macro_rules! json_fields {
    ($x:expr; $($f:ident $(= $v:expr)?),+ $(,)?) => {
        format!(
            "{{{}}}",
            [$(format!("\"{}\":{}", stringify!($f), json_fields!(@value $x, $f $(, $v)?))),+]
                .join(",")
        )
    };
    (@value $x:expr, $f:ident) => { $x.$f };
    (@value $x:expr, $f:ident, $v:expr) => { $v };
}

mod common;
mod dump;
mod replay;
mod stats;
mod top;
mod trace;

use std::iter::Skip;
use std::process::ExitCode;

use pbio_bench::cli::{subcommand, Args, CommonArgs};

/// A subcommand's entry point: the arguments after its name in, the
/// exit status out.
type Entry = fn(Skip<std::env::Args>) -> ExitCode;

/// Each subcommand's name and entry point.
const SUBCOMMANDS: [(&str, Entry); 5] = [
    ("stats", execute::<stats::Stats>),
    ("trace", execute::<trace::Trace>),
    ("top", execute::<top::Top>),
    ("dump", execute::<dump::Dump>),
    ("replay", execute::<replay::Replay>),
];

/// One subcommand: its own flags, then run → print → smoke-check.
trait Command: Sized {
    /// The flags' defaults.
    const DEFAULT: Self;
    /// The subcommand's name.
    const NAME: &'static str;
    /// Usage line, printed on a parse error.
    const USAGE: &'static str;
    /// What one run produces, for printing and checking.
    type Report;
    /// Consume one subcommand-specific flag (the `extra` callback of
    /// [`CommonArgs::parse`]).
    fn flag(&mut self, flag: &str, args: Args<'_>) -> Result<bool, String>;
    /// Observe the daemon at `addr`, or run the self-contained demo
    /// (smoke-sized under `smoke`).
    fn run(&mut self, addr: Option<&str>, smoke: bool) -> Result<Self::Report, String>;
    /// Print `report` as tables.
    fn print_table(&self, report: &Self::Report);
    /// Print `report` as one schema-bearing JSON object (`--json`).
    fn print_json(&self, report: &Self::Report);
    /// The `--smoke` assertions over the demo's report.
    fn check_smoke(&self, report: &Self::Report) -> Result<(), String>;
    /// Whether a run without `--smoke` succeeded; only `replay` fails
    /// one, when delivery diverges from the capture.
    fn passed(&self, _report: &Self::Report) -> bool {
        true
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let usage = "pbio-ctl <stats|trace|top|dump|replay> [flags]";
    match subcommand(&mut args, &SUBCOMMANDS, usage) {
        Some(execute) => execute(args),
        None => ExitCode::FAILURE,
    }
}

/// Parse `args`, run, print, and check: the one path from a command
/// line to an exit status.
fn execute<C: Command>(args: Skip<std::env::Args>) -> ExitCode {
    let mut cmd = C::DEFAULT;
    let parsed = CommonArgs::parse(C::USAGE, args, |flag, args| cmd.flag(flag, args));
    let Some(CommonArgs { addr, json, smoke }) = parsed else {
        return ExitCode::FAILURE;
    };
    let report = match cmd.run(addr.as_deref(), smoke) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("pbio-ctl {}: {e}", C::NAME);
            return ExitCode::FAILURE;
        }
    };
    if json {
        cmd.print_json(&report);
    } else {
        cmd.print_table(&report);
    }
    if !smoke {
        return if cmd.passed(&report) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    match cmd.check_smoke(&report) {
        Ok(()) => {
            println!("\nSMOKE OK");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("SMOKE FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}
