//! pbio-trace — causal timelines from the `$trace` channel.
//!
//! Attaches to a serv daemon as an ordinary subscriber on the reserved
//! `$trace` channel, collects the hop records every stage publishes
//! about sampled events, and reconstructs per-event waterfalls:
//! publish → ingress → filter → enqueue → flush → decode, all on the
//! daemon's skew-corrected time axis, plus a per-hop p50/p99 summary.
//!
//! ```text
//! pbio-trace                    # self-contained demo: daemon + publisher
//!                               #   + homogeneous + big-endian subscriber
//! pbio-trace --addr HOST:PORT   # attach to a live daemon
//! pbio-trace --duration 5       # observe for 5 seconds (default 3)
//! pbio-trace --subs 64          # demo fan-out width (default 2)
//! pbio-trace --json             # machine-readable output
//! pbio-trace --smoke            # short demo run + assertions (CI)
//! ```

use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pbio_bench::cli::{self, json_object, require, CommonArgs};
use pbio_bench::workloads::{workload, MsgSize};
use pbio_obs::export::hop_from_value;
use pbio_obs::{hop_name, TraceHop, HOP_COUNT, HOP_PUBLISH, HOP_REQUIRED};
use pbio_serv::{ServClient, ServConfig, ServDaemon, TraceConfig, TRACE_CHANNEL};
use pbio_types::arch::ArchProfile;

/// Channel the demo publisher streams workload records on.
const DEMO_CHANNEL: &str = "pbio-trace-demo";

/// Most recent complete timelines rendered (text) or emitted (JSON).
const MAX_RENDERED: usize = 64;

/// Causality slack for the smoke assertions: hop timestamps come from
/// two processes corrected onto one axis, so allow this much residual
/// skew before calling a timeline out of order.
const SMOKE_SLACK_NS: u64 = 1_000_000;

fn main() -> ExitCode {
    let mut duration = Duration::from_secs(3);
    let mut subs = 2usize;
    let parsed = CommonArgs::parse(
        "pbio-trace [--addr HOST:PORT] [--duration SECS] [--subs N] [--json] [--smoke]",
        std::env::args().skip(1),
        |flag, args| match flag {
            "--duration" => {
                let secs: u64 = require(args, "--duration", "whole seconds")?;
                duration = Duration::from_secs(secs);
                Ok(true)
            }
            "--subs" => {
                subs = require(args, "--subs", "a subscriber count >= 1")?;
                if subs < 1 {
                    return Err("--subs takes a subscriber count >= 1".into());
                }
                Ok(true)
            }
            _ => Ok(false),
        },
    );
    let Some(CommonArgs { addr, json, smoke }) = parsed else {
        return ExitCode::FAILURE;
    };
    if smoke {
        duration = Duration::from_secs(2);
    }

    let outcome = match addr {
        Some(addr) => observe(&addr, duration),
        None => demo(duration, subs),
    };
    let hops = match outcome {
        Ok(h) => h,
        Err(e) => {
            eprintln!("pbio-trace: {e}");
            return ExitCode::FAILURE;
        }
    };
    let timelines = assemble(hops);
    if json {
        print_json(&timelines);
    } else {
        print_report(&timelines);
    }
    if smoke {
        if let Err(e) = check_smoke(&timelines) {
            eprintln!("SMOKE FAILED: {e}");
            return ExitCode::FAILURE;
        }
        println!("\nSMOKE OK");
    }
    ExitCode::SUCCESS
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

/// Self-contained demo: daemon sampling every publish, an x86-64
/// publisher whose events carry trace trailers, and `subs` subscribers
/// alternating homogeneous and SPARC profiles — so decode hops cover
/// both the zero-copy and the DCG-converted receive path. Subscribers
/// export their decode hops on `$trace`; the daemon exports its own
/// stages on a timer.
fn demo(duration: Duration, subs: usize) -> Result<Vec<TraceHop>, String> {
    let daemon = ServDaemon::bind_with(
        "127.0.0.1:0",
        ServConfig {
            queue_capacity: 4096,
            stats_interval: None,
            trace: TraceConfig {
                sample_mod: 1,
                publish_interval: Some(Duration::from_millis(100)),
                sink_capacity: 4096,
            },
            ..ServConfig::default()
        },
    )
    .map_err(|e| format!("bind daemon: {e}"))?;
    let addr = daemon.local_addr();
    let stop = Arc::new(AtomicBool::new(false));

    let mut threads = Vec::new();
    for i in 0..subs {
        let profile = if i % 2 == 0 {
            ArchProfile::X86_64 // homogeneous subscriber: zero-copy decode
        } else {
            ArchProfile::SPARC_V8 // big-endian subscriber: converted decode
        };
        let stop = stop.clone();
        threads.push(std::thread::spawn(move || {
            let w = workload(MsgSize::B100);
            let mut client = ServClient::connect(addr, &profile).expect("subscriber connect");
            let chan = client.open_channel(DEMO_CHANNEL).expect("open channel");
            let trace_chan = client.open_channel(TRACE_CHANNEL).expect("open $trace");
            client.subscribe(chan, &w.schema, None).expect("subscribe");
            let mut last_export = Instant::now();
            while !stop.load(Ordering::Relaxed) {
                let _ = client.poll(Duration::from_millis(10));
                if last_export.elapsed() >= Duration::from_millis(100) {
                    last_export = Instant::now();
                    let _ = client.publish_trace(trace_chan);
                }
            }
            let _ = client.publish_trace(trace_chan);
        }));
    }

    {
        let stop = stop.clone();
        threads.push(std::thread::spawn(move || {
            let w = workload(MsgSize::B100);
            let mut client =
                ServClient::connect(addr, &ArchProfile::X86_64).expect("publisher connect");
            let format = client.register_format(&w.schema).expect("register format");
            let chan = client.open_channel(DEMO_CHANNEL).expect("open channel");
            while !stop.load(Ordering::Relaxed) {
                client
                    .publish_value(chan, format, &w.value)
                    .expect("publish");
                std::thread::sleep(Duration::from_millis(10));
            }
        }));
    }

    let hops = observe(&addr.to_string(), duration);
    stop.store(true, Ordering::Relaxed);
    for t in threads {
        let _ = t.join();
    }
    daemon.shutdown();
    hops
}

/// One reconstructed event timeline: every hop record sharing a trace
/// id, sorted onto the daemon's time axis.
struct Timeline {
    trace_id: u64,
    channel: u32,
    /// Sorted by `(hop, t_ns)`: hop kinds are numbered in pipeline
    /// order, and sorting on the kind first keeps the waterfall causal
    /// even when residual cross-process skew (well under the stage
    /// durations, but nonzero) reorders raw timestamps by a hair.
    hops: Vec<TraceHop>,
}

impl Timeline {
    /// The trace's origin: the publish hop's timestamp (which *is* the
    /// trailer's `origin_ns`), or the earliest hop seen.
    fn origin_ns(&self) -> u64 {
        self.hops
            .iter()
            .find(|h| h.hop == HOP_PUBLISH)
            .or(self.hops.first())
            .map_or(0, |h| h.t_ns)
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
            let channel = hops
                .iter()
                .find(|h| h.hop == HOP_PUBLISH)
                .or(hops.first())
                .map_or(0, |h| h.channel);
            Timeline {
                trace_id,
                channel,
                hops,
            }
        })
        .collect();
    timelines.sort_by_key(Timeline::origin_ns);
    timelines
}

/// Offset of each hop from its timeline's origin, in pipeline context:
/// `(hop kind, conn, offset ns)` rows in time order.
fn offsets(t: &Timeline) -> Vec<(u32, u32, u64)> {
    let origin = t.origin_ns();
    t.hops
        .iter()
        .map(|h| (h.hop, h.conn, h.t_ns.saturating_sub(origin)))
        .collect()
}

fn fmt_us(ns: f64) -> String {
    format!("{:.1}", ns / 1_000.0)
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
        t.channel,
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

/// Human-readable report: waterfalls for the most recent complete
/// timelines, then the per-hop p50/p99 summary.
fn print_report(timelines: &[Timeline]) {
    let complete: Vec<&Timeline> = timelines.iter().filter(|t| t.complete()).collect();
    println!(
        "collected {} timeline(s) on {TRACE_CHANNEL}, {} complete (all {HOP_REQUIRED} stages)",
        timelines.len(),
        complete.len()
    );

    let shown = complete.iter().rev().take(2).rev().collect::<Vec<_>>();
    for t in shown {
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
fn print_json(timelines: &[Timeline]) {
    let complete: Vec<&Timeline> = timelines.iter().filter(|t| t.complete()).collect();
    let shown = complete
        .iter()
        .rev()
        .take(MAX_RENDERED)
        .rev()
        .collect::<Vec<_>>();

    let mut out = format!(
        "\"timelines\":{},\"complete\":{},\"traces\":[",
        timelines.len(),
        complete.len()
    );
    for (i, t) in shown.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"trace_id\":\"{:#x}\",\"channel\":{},\"hops\":[",
            t.trace_id, t.channel
        ));
        for (j, (hop, conn, off)) in offsets(t).iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"hop\":\"{}\",\"conn\":{conn},\"offset_ns\":{off}}}",
                hop_name(*hop)
            ));
        }
        out.push_str("]}");
    }
    out.push_str("],\"summary\":[");
    let cols = summarize(timelines);
    let mut first = true;
    for (kind, col) in cols.iter().enumerate() {
        if col.is_empty() {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"hop\":\"{}\",\"count\":{},\"p50_ns\":{},\"p99_ns\":{}}}",
            hop_name(kind as u32),
            col.len(),
            percentile(col, 0.50),
            percentile(col, 0.99),
        ));
    }
    out.push(']');
    println!("{}", json_object("pbio-trace/v1", out));
}

/// CI assertions: at least one event's timeline reconstructed with all
/// six stages in causal order, and every stage measured at least once
/// across the run.
fn check_smoke(timelines: &[Timeline]) -> Result<(), String> {
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
