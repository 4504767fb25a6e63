//! `pbio-ctl trace` — causal timelines from the `$trace` channel.
//!
//! Attaches to a serv daemon as an ordinary subscriber on the reserved
//! `$trace` channel, collects the hop records every stage publishes
//! about sampled events, and reconstructs per-event waterfalls:
//! publish → ingress → filter → enqueue → flush → decode, all on the
//! daemon's skew-corrected time axis, plus a per-hop p50/p99 summary.
//!
//! ```text
//! pbio-ctl trace                    # self-contained demo: daemon + publisher
//!                                   #   + homogeneous + big-endian subscriber
//! pbio-ctl trace --addr HOST:PORT   # attach to a live daemon
//! pbio-ctl trace --duration 5       # observe for 5 seconds (default 3)
//! pbio-ctl trace --subs 64          # demo fan-out width (default 2)
//! pbio-ctl trace --json             # machine-readable output
//! pbio-ctl trace --smoke            # short demo run + assertions (CI)
//! ```

use std::collections::HashMap;
use std::time::Duration;

use pbio_bench::cli::{self, json_array, json_object, require, Args};
use pbio_obs::export::hop_from_value;
use pbio_obs::{hop_name, TraceHop, HOP_COUNT, HOP_PUBLISH, HOP_REQUIRED};
use pbio_serv::{ServConfig, TraceConfig, TRACE_CHANNEL};

use crate::common::{demo, fmt_us, Plane, SMOKE_DURATION};
use crate::Command;

/// Most recent complete timelines rendered (text) or emitted (JSON).
const MAX_RENDERED: usize = 64;

/// Causality slack for the smoke assertions: hop timestamps come from
/// two processes corrected onto one axis, so allow this much residual
/// skew before calling a timeline out of order.
const SMOKE_SLACK_NS: u64 = 1_000_000;

/// `pbio-ctl trace` and its flags.
pub struct Trace {
    duration: Duration,
    subs: usize,
}

impl Command for Trace {
    const DEFAULT: Trace = Trace {
        duration: Duration::from_secs(3),
        subs: 2,
    };
    const NAME: &'static str = "trace";
    const USAGE: &'static str =
        "pbio-ctl trace [--addr HOST:PORT] [--duration SECS] [--subs N] [--json] [--smoke]";
    type Report = Vec<Timeline>;

    fn flag(&mut self, flag: &str, args: Args<'_>) -> Result<bool, String> {
        match flag {
            "--duration" => {
                self.duration = Duration::from_secs(require(args, "--duration", "whole seconds")?)
            }
            "--subs" => {
                self.subs = require(args, "--subs", "a subscriber count >= 1")?;
                if self.subs < 1 {
                    return Err("--subs takes a subscriber count >= 1".into());
                }
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The demo: a daemon sampling every publish, a publisher whose
    /// events carry trace trailers, and `--subs` subscribers alternating
    /// homogeneous and SPARC profiles — so decode hops cover both the
    /// zero-copy and the DCG-converted receive path. Subscribers export
    /// their decode hops on `$trace`; the daemon exports its own stages
    /// on a timer.
    fn run(&mut self, addr: Option<&str>, smoke: bool) -> Result<Vec<Timeline>, String> {
        let duration = if smoke { SMOKE_DURATION } else { self.duration };
        let Some(addr) = addr else {
            let plane = Plane {
                config: ServConfig {
                    queue_capacity: 4096,
                    stats_interval: None,
                    trace: TraceConfig {
                        sample_mod: 1,
                        publish_interval: Some(Duration::from_millis(100)),
                        sink_capacity: 4096,
                    },
                    ..ServConfig::default()
                },
                channel: TRACE_CHANNEL,
                export: |client, chan| _ = client.publish_trace(chan),
                every: Duration::from_millis(100),
                burst: 1,
                pause: Duration::from_millis(10),
                subs: self.subs,
            };
            return demo(plane, |addr| observe(addr, duration)).map(assemble);
        };
        observe(addr, duration).map(assemble)
    }

    /// Human-readable report: waterfalls for the most recent complete
    /// timelines, then the per-hop p50/p99 summary.
    fn print_table(&self, timelines: &Vec<Timeline>) {
        let complete: Vec<&Timeline> = timelines.iter().filter(|t| t.complete()).collect();
        println!(
            "collected {} timeline(s) on {TRACE_CHANNEL}, {} complete (all {HOP_REQUIRED} stages)",
            timelines.len(),
            complete.len()
        );

        for t in &complete[complete.len().saturating_sub(2)..] {
            println!();
            print_waterfall(t);
        }

        let cols = summarize(timelines);
        println!(
            "\n{:<10} {:>7} {:>12} {:>12}",
            "hop", "count", "p50 µs", "p99 µs"
        );
        for (kind, col) in cols.iter().enumerate() {
            if col.is_empty() {
                continue;
            }
            println!(
                "{:<10} {:>7} {:>12} {:>12}",
                hop_name(kind as u32),
                col.len(),
                fmt_us(percentile(col, 0.50) as f64),
                fmt_us(percentile(col, 0.99) as f64),
            );
        }
    }

    /// Machine-readable report: the most recent [`MAX_RENDERED`] complete
    /// timelines plus the per-hop summary, as a single JSON object. Every
    /// value is a number or a fixed hop name, so no escaping is needed.
    fn print_json(&self, timelines: &Vec<Timeline>) {
        let complete: Vec<&Timeline> = timelines.iter().filter(|t| t.complete()).collect();
        let shown = &complete[complete.len().saturating_sub(MAX_RENDERED)..];
        let traces = json_array(shown, |t| {
            let hops = json_array(offsets(t), |(hop, conn, off)| {
                format!(
                    "{{\"hop\":\"{}\",\"conn\":{conn},\"offset_ns\":{off}}}",
                    hop_name(hop)
                )
            });
            format!(
                "{{\"trace_id\":\"{:#x}\",\"channel\":{},\"hops\":{hops}}}",
                t.trace_id,
                t.channel()
            )
        });
        let cols = summarize(timelines);
        let measured = cols.iter().enumerate().filter(|(_, col)| !col.is_empty());
        let summary = json_array(measured, |(kind, col)| {
            format!(
                "{{\"hop\":\"{}\",\"count\":{},\"p50_ns\":{},\"p99_ns\":{}}}",
                hop_name(kind as u32),
                col.len(),
                percentile(col, 0.50),
                percentile(col, 0.99),
            )
        });
        let out = format!(
            "\"timelines\":{},\"complete\":{},\"traces\":{traces},\"summary\":{summary}",
            timelines.len(),
            complete.len()
        );
        println!("{}", json_object("pbio-trace/v1", out));
    }

    /// CI assertions: at least one event's timeline reconstructed with all
    /// six stages in causal order, and every stage measured at least once
    /// across the run.
    fn check_smoke(&self, timelines: &Vec<Timeline>) -> Result<(), String> {
        let complete: Vec<&Timeline> = timelines.iter().filter(|t| t.complete()).collect();
        if complete.is_empty() {
            return Err(format!(
                "no complete timeline among {} collected",
                timelines.len()
            ));
        }
        // Causality on the first complete timeline: in pipeline order, each
        // stage's earliest stamp may not precede its predecessor's by more
        // than the skew slack.
        let t = complete[0];
        let mut earliest = [u64::MAX; HOP_COUNT];
        for h in &t.hops {
            if let Some(slot) = earliest.get_mut(h.hop as usize) {
                *slot = (*slot).min(h.t_ns);
            }
        }
        for kind in 1..HOP_REQUIRED {
            if earliest[kind] + SMOKE_SLACK_NS < earliest[kind - 1] {
                return Err(format!(
                    "hop {} (t={}ns) precedes {} (t={}ns) beyond slack",
                    hop_name(kind as u32),
                    earliest[kind],
                    hop_name(kind as u32 - 1),
                    earliest[kind - 1]
                ));
            }
        }
        let cols = summarize(timelines);
        for (kind, col) in cols.iter().enumerate().take(HOP_REQUIRED) {
            if col.is_empty() {
                return Err(format!("no {} hop was recorded", hop_name(kind as u32)));
            }
        }
        Ok(())
    }
}

/// Subscribe to `$trace` on a live daemon and collect hop records for
/// `duration`. Hop records are ordinary PBIO records — the daemon's and
/// each subscriber's exports arrive through the same announce/decode
/// machinery as any other channel.
fn observe(addr: &str, duration: Duration) -> Result<Vec<TraceHop>, String> {
    let mut hops = Vec::new();
    cli::observe(addr, TRACE_CHANNEL, duration, |value| {
        hops.extend(hop_from_value(value));
    })?;
    Ok(hops)
}

/// One reconstructed event timeline: every hop record sharing a trace
/// id, sorted onto the daemon's time axis.
pub struct Timeline {
    trace_id: u64,
    /// Sorted by `(hop, t_ns)`: hop kinds are numbered in pipeline
    /// order, and sorting on the kind first keeps the waterfall causal
    /// even when residual cross-process skew (well under the stage
    /// durations, but nonzero) reorders raw timestamps by a hair.
    hops: Vec<TraceHop>,
}

impl Timeline {
    /// The trace's origin: the publish hop (whose timestamp *is* the
    /// trailer's `origin_ns`), or the earliest hop seen.
    fn origin(&self) -> Option<&TraceHop> {
        self.hops
            .iter()
            .find(|h| h.hop == HOP_PUBLISH)
            .or(self.hops.first())
    }

    /// The channel the traced event was published on.
    fn channel(&self) -> u32 {
        self.origin().map_or(0, |h| h.channel)
    }

    /// Whether all [`HOP_REQUIRED`] mandatory stages are present at
    /// least once (relay hops are mesh-only and never required).
    fn complete(&self) -> bool {
        let mut seen = [false; HOP_REQUIRED];
        for h in &self.hops {
            if let Some(slot) = seen.get_mut(h.hop as usize) {
                *slot = true;
            }
        }
        seen.iter().all(|&s| s)
    }
}

/// Group hop records by trace id into time-sorted timelines, oldest
/// origin first.
fn assemble(hops: Vec<TraceHop>) -> Vec<Timeline> {
    let mut by_id: HashMap<u64, Vec<TraceHop>> = HashMap::new();
    for hop in hops {
        by_id.entry(hop.trace_id).or_default().push(hop);
    }
    let mut timelines: Vec<Timeline> = by_id
        .into_iter()
        .map(|(trace_id, mut hops)| {
            hops.sort_by_key(|h| (h.hop, h.t_ns));
            Timeline { trace_id, hops }
        })
        .collect();
    timelines.sort_by_key(|t| t.origin().map_or(0, |h| h.t_ns));
    timelines
}

/// Offset of each hop from its timeline's origin, in pipeline context:
/// `(hop kind, conn, offset ns)` rows in time order.
fn offsets(t: &Timeline) -> Vec<(u32, u32, u64)> {
    let origin = t.origin().map_or(0, |h| h.t_ns);
    t.hops
        .iter()
        .map(|h| (h.hop, h.conn, h.t_ns.saturating_sub(origin)))
        .collect()
}

/// `sorted` must be ascending; nearest-rank percentile.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Per-hop-kind origin offsets across every timeline that has a publish
/// hop, sorted ascending — the summary table's raw material.
fn summarize(timelines: &[Timeline]) -> [Vec<u64>; HOP_COUNT] {
    let mut cols: [Vec<u64>; HOP_COUNT] = Default::default();
    for t in timelines {
        for (hop, _, off) in offsets(t) {
            if let Some(col) = cols.get_mut(hop as usize) {
                col.push(off);
            }
        }
    }
    for col in &mut cols {
        col.sort_unstable();
    }
    cols
}

/// Render one waterfall: offset column plus a bar scaled to the
/// timeline's end-to-end latency.
fn print_waterfall(t: &Timeline) {
    let rows = offsets(t);
    let span = rows.iter().map(|r| r.2).max().unwrap_or(0).max(1);
    println!(
        "trace {:#018x} (channel {}, {} hop{}):",
        t.trace_id,
        t.channel(),
        rows.len(),
        if rows.len() == 1 { "" } else { "s" }
    );
    for (hop, conn, off) in &rows {
        let width = (off * 40 / span) as usize;
        println!(
            "  {:<8} conn {:<3} +{:>8} µs  |{:<40}|",
            hop_name(*hop),
            conn,
            fmt_us(*off as f64),
            "#".repeat(width),
        );
    }
    println!(
        "  end-to-end: {} µs",
        fmt_us(rows.iter().map(|r| r.2).max().unwrap_or(0) as f64)
    );
}
