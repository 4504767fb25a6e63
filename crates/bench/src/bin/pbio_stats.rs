//! pbio-stats — a live per-stage cost table fed from the `$stats` channel.
//!
//! Attaches to a serv daemon as an ordinary subscriber on the reserved
//! `$stats` channel and renders a Figure-1-style component breakdown
//! (encode → send → receive → convert) from the metric snapshots the
//! daemon and clients publish about themselves — PBIO records describing
//! the PBIO machinery that carried them.
//!
//! ```text
//! pbio-stats                    # self-contained demo: daemon + publisher
//!                               #   + homogeneous + big-endian subscriber
//! pbio-stats --addr HOST:PORT   # attach to a live daemon
//! pbio-stats --duration 5       # observe for 5 seconds (default 3)
//! pbio-stats --json             # machine-readable output
//! pbio-stats --smoke            # short demo run + assertions (CI)
//! ```

use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pbio_bench::cli::{json_escape, json_object, require, CommonArgs};
use pbio_bench::workloads::{workload, MsgSize};
use pbio_obs::export::{snapshot_from_value, StatsHeader, ROLE_DAEMON};
use pbio_obs::{HistogramSnapshot, Snapshot};
use pbio_serv::{ServClient, ServConfig, ServDaemon, TraceConfig, STATS_CHANNEL};
use pbio_types::arch::ArchProfile;
use pbio_types::value::decode_native;

/// Channel the demo publisher streams workload records on.
const DEMO_CHANNEL: &str = "pbio-stats-demo";

fn main() -> ExitCode {
    let mut duration = Duration::from_secs(3);
    let parsed = CommonArgs::parse(
        "pbio-stats [--addr HOST:PORT] [--duration SECS] [--json] [--smoke]",
        |flag, args| match flag {
            "--duration" => {
                let secs: u64 = require(args, "--duration", "whole seconds")?;
                duration = Duration::from_secs(secs);
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
        None => demo(duration),
    };
    let snapshots = match outcome {
        Ok(s) => s,
        Err(e) => {
            eprintln!("pbio-stats: {e}");
            return ExitCode::FAILURE;
        }
    };
    if json {
        print_json(&snapshots);
    } else {
        print_table(&snapshots);
    }
    if smoke {
        if let Err(e) = check_smoke(&snapshots) {
            eprintln!("SMOKE FAILED: {e}");
            return ExitCode::FAILURE;
        }
        println!("\nSMOKE OK");
    }
    ExitCode::SUCCESS
}

/// Latest snapshot per publisher, keyed by (role, id).
type Snapshots = HashMap<(u32, u32), (StatsHeader, Snapshot)>;

/// Subscribe to `$stats` on a live daemon and collect snapshots for
/// `duration`. Records arrive in the publisher's native layout and are
/// decoded through the announced wire layout — the heterogeneous path
/// when daemon and monitor disagree on architecture.
fn observe(addr: &str, duration: Duration) -> Result<Snapshots, String> {
    let mut client =
        ServClient::connect(addr, &ArchProfile::X86_64).map_err(|e| format!("connect: {e}"))?;
    let chan = client
        .open_channel(STATS_CHANNEL)
        .map_err(|e| format!("open {STATS_CHANNEL}: {e}"))?;
    client
        .subscribe_raw(chan, None)
        .map_err(|e| format!("subscribe: {e}"))?;

    let mut snapshots = Snapshots::new();
    let deadline = Instant::now() + duration;
    while Instant::now() < deadline {
        let ev = match client.poll_raw(Duration::from_millis(200)) {
            Ok(Some(ev)) => ev,
            Ok(None) => continue,
            Err(e) => return Err(format!("poll: {e}")),
        };
        let value = decode_native(ev.bytes, &ev.layout).map_err(|e| format!("decode: {e}"))?;
        if let Some((header, snap)) = snapshot_from_value(&value) {
            // Snapshots are cumulative: the latest per publisher wins.
            snapshots.insert((header.role, header.id), (header, snap));
        }
    }
    Ok(snapshots)
}

/// Self-contained demo: daemon, an x86-64 publisher driving `publish_value`
/// (so encode is timed per event), one homogeneous subscriber (zero-copy
/// receive) and one SPARC subscriber (DCG-converted receive). Every client
/// publishes its own registry on `$stats` alongside the daemon's ticks.
fn demo(duration: Duration) -> Result<Snapshots, String> {
    let daemon = ServDaemon::bind_with(
        "127.0.0.1:0",
        ServConfig {
            queue_capacity: 4096,
            stats_interval: Some(Duration::from_millis(200)),
            trace: TraceConfig::default(),
            ..ServConfig::default()
        },
    )
    .map_err(|e| format!("bind daemon: {e}"))?;
    let addr = daemon.local_addr();
    let stop = Arc::new(AtomicBool::new(false));

    let mut threads = Vec::new();
    for profile in [
        &ArchProfile::X86_64,   // homogeneous subscriber: zero-copy
        &ArchProfile::SPARC_V8, // big-endian subscriber: converted
    ] {
        let stop = stop.clone();
        let profile = profile.clone();
        threads.push(std::thread::spawn(move || {
            let w = workload(MsgSize::B100);
            let mut client = ServClient::connect(addr, &profile).expect("subscriber connect");
            let chan = client.open_channel(DEMO_CHANNEL).expect("open channel");
            let stats_chan = client.open_channel(STATS_CHANNEL).expect("open $stats");
            client.subscribe(chan, &w.schema, None).expect("subscribe");
            let mut last_stats = Instant::now();
            while !stop.load(Ordering::Relaxed) {
                let _ = client.poll(Duration::from_millis(10));
                if last_stats.elapsed() >= Duration::from_millis(200) {
                    last_stats = Instant::now();
                    let _ = client.publish_stats(stats_chan);
                }
            }
            let _ = client.publish_stats(stats_chan);
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
            let stats_chan = client.open_channel(STATS_CHANNEL).expect("open $stats");
            let mut last_stats = Instant::now();
            while !stop.load(Ordering::Relaxed) {
                for _ in 0..100 {
                    client
                        .publish_value(chan, format, &w.value)
                        .expect("publish");
                }
                if last_stats.elapsed() >= Duration::from_millis(200) {
                    last_stats = Instant::now();
                    let _ = client.publish_stats(stats_chan);
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            let _ = client.publish_stats(stats_chan);
        }));
    }

    let snapshots = observe(&addr.to_string(), duration);
    stop.store(true, Ordering::Relaxed);
    for t in threads {
        let _ = t.join();
    }
    daemon.shutdown();
    snapshots
}

fn fmt_us(ns: f64) -> String {
    format!("{:.2}", ns / 1_000.0)
}

fn hist_row(label: &str, source: &str, h: &HistogramSnapshot) -> String {
    format!(
        "{label:<34} {source:<16} {:>9} {:>10} {:>10}",
        h.count,
        fmt_us(h.mean()),
        fmt_us(h.quantile(0.99) as f64),
    )
}

/// Render the Figure-1-style component table: one row per measured stage,
/// every number sourced from a `$stats` snapshot that crossed the wire.
fn print_table(snapshots: &Snapshots) {
    let mut keys: Vec<&(u32, u32)> = snapshots.keys().collect();
    keys.sort();
    println!(
        "collected {} publisher snapshot(s) on {STATS_CHANNEL}:",
        keys.len()
    );
    for key in &keys {
        let (header, _) = &snapshots[key];
        let role = if header.role == ROLE_DAEMON {
            "daemon"
        } else {
            "client"
        };
        println!(
            "  {role}#{} seq={} t={}ms",
            header.id,
            header.seq,
            header.t_ns / 1_000_000
        );
    }

    println!(
        "\n{:<34} {:<16} {:>9} {:>10} {:>10}",
        "stage", "source", "count", "mean µs", "p99 µs"
    );
    for key in &keys {
        let (header, snap) = &snapshots[key];
        let source = if header.role == ROLE_DAEMON {
            "daemon".to_string()
        } else {
            format!("client#{}", header.id)
        };
        if let Some(h) = snap.histogram("client_encode_ns").filter(|h| h.count > 0) {
            println!("{}", hist_row("encode (publish_value)", &source, h));
        }
        if let Some(h) = snap.histogram("serv_recv_ns").filter(|h| h.count > 0) {
            println!(
                "{}",
                hist_row("receive (daemon frame handling)", &source, h)
            );
        }
        if let Some(h) = snap.histogram("serv_fanout_ns").filter(|h| h.count > 0) {
            println!("{}", hist_row("fan-out (per event)", &source, h));
        }
        if let Some(h) = snap.histogram("serv_send_ns").filter(|h| h.count > 0) {
            println!("{}", hist_row("send (vectored write batch)", &source, h));
        }
        if let Some(h) = snap.histogram("client_convert_ns").filter(|h| h.count > 0) {
            println!("{}", hist_row("convert (DCG, heterogeneous)", &source, h));
        }
        if let Some(zc) = snap.counter("client_zero_copy_events").filter(|&n| n > 0) {
            println!(
                "{:<34} {:<16} {zc:>9} {:>10} {:>10}",
                "receive (zero-copy, homogeneous)", source, "-", "-"
            );
        }
    }

    for key in &keys {
        let (header, snap) = &snapshots[key];
        if header.role != ROLE_DAEMON {
            continue;
        }
        println!("\ndaemon counters:");
        for name in [
            "serv_events_in",
            "serv_events_out",
            "serv_filtered_at_source",
            "serv_dropped",
            "serv_bytes_in",
            "serv_bytes_out",
            "serv_writes",
            "serv_frames_batched",
            "pool_hits",
            "pool_misses",
        ] {
            if let Some(v) = snap.counter(name) {
                println!("  {name:<26} {v}");
            }
        }
        let (Some(events), Some(writes)) =
            (snap.counter("serv_events_out"), snap.counter("serv_writes"))
        else {
            continue;
        };
        if writes > 0 {
            println!(
                "  realized batching factor    {:.2} events/writev",
                events as f64 / writes as f64
            );
        }
    }
}

/// Machine-readable report: one schema-bearing object with one entry
/// per publisher snapshot, every metric keyed by its (escaped) registry
/// name. Histograms are reduced to count/sum/mean/p50/p90/p99 rather
/// than raw buckets.
fn print_json(snapshots: &Snapshots) {
    let mut keys: Vec<&(u32, u32)> = snapshots.keys().collect();
    keys.sort();
    let mut out = String::from("\"snapshots\":[");
    for (i, key) in keys.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let (header, snap) = &snapshots[key];
        let role = if header.role == ROLE_DAEMON {
            "daemon"
        } else {
            "client"
        };
        out.push_str(&format!(
            "{{\"role\":\"{role}\",\"id\":{},\"seq\":{},\"t_ns\":{},",
            header.id, header.seq, header.t_ns
        ));
        out.push_str("\"counters\":{");
        for (j, (name, v)) in snap.counters.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{v}", json_escape(name)));
        }
        out.push_str("},\"gauges\":{");
        for (j, (name, v)) in snap.gauges.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{v}", json_escape(name)));
        }
        out.push_str("},\"histograms\":{");
        for (j, (name, h)) in snap.histograms.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"sum\":{},\"mean_ns\":{:.1},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{}}}",
                json_escape(name),
                h.count,
                h.sum,
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99),
            ));
        }
        out.push_str("},\"traces\":[");
        for (j, (stage, at, value)) in snap.traces.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"stage\":\"{}\",\"at\":{at},\"value\":{value}}}",
                json_escape(stage)
            ));
        }
        out.push_str("]}");
    }
    out.push(']');
    println!("{}", json_object("pbio-stats/v1", out));
}

/// CI assertions: the dogfooded channel actually carried nonzero
/// measurements for every stage the acceptance criteria name.
fn check_smoke(snapshots: &Snapshots) -> Result<(), String> {
    let daemon = snapshots
        .values()
        .find(|(h, _)| h.role == ROLE_DAEMON)
        .map(|(_, s)| s)
        .ok_or("no daemon snapshot arrived on $stats")?;
    if daemon.counter("serv_events_in").unwrap_or(0) == 0 {
        return Err("daemon snapshot has serv_events_in == 0".into());
    }
    if daemon.histogram("serv_send_ns").map_or(0, |h| h.count) == 0 {
        return Err("daemon snapshot has no write timings".into());
    }
    let clients: Vec<&Snapshot> = snapshots
        .values()
        .filter(|(h, _)| h.role != ROLE_DAEMON)
        .map(|(_, s)| s)
        .collect();
    if !clients
        .iter()
        .any(|s| s.histogram("client_encode_ns").map_or(0, |h| h.count) > 0)
    {
        return Err("no client snapshot carried encode timings".into());
    }
    if !clients
        .iter()
        .any(|s| s.histogram("client_convert_ns").map_or(0, |h| h.count) > 0)
    {
        return Err("no client snapshot carried convert timings (hetero pair)".into());
    }
    if !clients
        .iter()
        .any(|s| s.counter("client_zero_copy_events").unwrap_or(0) > 0)
    {
        return Err("no client snapshot saw zero-copy events (homo pair)".into());
    }
    Ok(())
}
