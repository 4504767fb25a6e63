//! `pbio-ctl stats` — a live per-stage cost table fed from the `$stats`
//! channel.
//!
//! Attaches to a serv daemon as an ordinary subscriber on the reserved
//! `$stats` channel and renders a Figure-1-style component breakdown
//! (encode → send → receive → convert) from the metric snapshots the
//! daemon and clients publish about themselves — PBIO records describing
//! the PBIO machinery that carried them.
//!
//! ```text
//! pbio-ctl stats                    # self-contained demo: daemon + publisher
//!                                   #   + homogeneous + big-endian subscriber
//! pbio-ctl stats --addr HOST:PORT   # attach to a live daemon
//! pbio-ctl stats --duration 5       # observe for 5 seconds (default 3)
//! pbio-ctl stats --json             # machine-readable output
//! pbio-ctl stats --smoke            # short demo run + assertions (CI)
//! ```

use std::collections::BTreeMap;
use std::time::Duration;

use pbio_bench::cli::{self, json_array, json_escape, json_object, require, Args};
use pbio_obs::export::{snapshot_from_value, StatsHeader, ROLE_DAEMON};
use pbio_obs::Snapshot;
use pbio_serv::{ServConfig, TraceConfig, STATS_CHANNEL};

use crate::common::{demo, fmt_us, Plane, SMOKE_DURATION};
use crate::Command;

/// Latest snapshot per publisher, keyed and ordered by (role, id).
type Snapshots = BTreeMap<(u32, u32), (StatsHeader, Snapshot)>;

/// `pbio-ctl stats` and its flags.
pub struct Stats {
    duration: Duration,
}

impl Command for Stats {
    const DEFAULT: Stats = Stats {
        duration: Duration::from_secs(3),
    };
    const NAME: &'static str = "stats";
    const USAGE: &'static str =
        "pbio-ctl stats [--addr HOST:PORT] [--duration SECS] [--json] [--smoke]";
    type Report = Snapshots;

    fn flag(&mut self, flag: &str, args: Args<'_>) -> Result<bool, String> {
        match flag {
            "--duration" => {
                self.duration = Duration::from_secs(require(args, "--duration", "whole seconds")?)
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The demo: two subscribers (homogeneous, zero-copy receive; SPARC,
    /// DCG-converted receive), every client publishing its own registry
    /// on `$stats` alongside the daemon's ticks.
    fn run(&mut self, addr: Option<&str>, smoke: bool) -> Result<Snapshots, String> {
        let duration = if smoke { SMOKE_DURATION } else { self.duration };
        let Some(addr) = addr else {
            let plane = Plane {
                config: ServConfig {
                    queue_capacity: 4096,
                    stats_interval: Some(Duration::from_millis(200)),
                    trace: TraceConfig::default(),
                    ..ServConfig::default()
                },
                channel: STATS_CHANNEL,
                export: |client, chan| _ = client.publish_stats(chan),
                every: Duration::from_millis(200),
                burst: 100,
                pause: Duration::from_millis(5),
                subs: 2,
            };
            return demo(plane, |addr| observe(addr, duration));
        };
        observe(addr, duration)
    }

    /// Render the Figure-1-style component table: one row per measured stage,
    /// every number sourced from a `$stats` snapshot that crossed the wire.
    fn print_table(&self, snapshots: &Snapshots) {
        println!(
            "collected {} publisher snapshot(s) on {STATS_CHANNEL}:",
            snapshots.len()
        );
        for (header, _) in snapshots.values() {
            println!(
                "  {}#{} seq={} t={}ms",
                role_name(header),
                header.id,
                header.seq,
                header.t_ns / 1_000_000
            );
        }

        println!(
            "\n{:<34} {:<16} {:>9} {:>10} {:>10}",
            "stage", "source", "count", "mean µs", "p99 µs"
        );
        for (header, snap) in snapshots.values() {
            let source = if header.role == ROLE_DAEMON {
                "daemon".to_string()
            } else {
                format!("client#{}", header.id)
            };
            for (metric, label) in STAGES {
                if let Some(h) = snap.histogram(metric).filter(|h| h.count > 0) {
                    println!(
                        "{label:<34} {source:<16} {:>9} {:>10} {:>10}",
                        h.count,
                        fmt_us(h.mean()),
                        fmt_us(h.quantile(0.99) as f64),
                    );
                }
            }
            if let Some(zc) = snap.counter("client_zero_copy_events").filter(|&n| n > 0) {
                println!(
                    "{:<34} {:<16} {zc:>9} {:>10} {:>10}",
                    "receive (zero-copy, homogeneous)", source, "-", "-"
                );
            }
        }

        for (header, snap) in snapshots.values() {
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
    fn print_json(&self, snapshots: &Snapshots) {
        let entries = json_array(snapshots.values(), |(header, snap)| {
            format!(
                "{{\"role\":\"{}\",\"id\":{},\"seq\":{},\"t_ns\":{},\"counters\":{},\
                 \"gauges\":{},\"histograms\":{},\"traces\":{}}}",
                role_name(header),
                header.id,
                header.seq,
                header.t_ns,
                json_map(&snap.counters, u64::to_string),
                json_map(&snap.gauges, i64::to_string),
                json_map(&snap.histograms, |h| format!(
                    "{{\"count\":{},\"sum\":{},\"mean_ns\":{:.1},\"p50_ns\":{},\"p90_ns\":{},\
                     \"p99_ns\":{}}}",
                    h.count,
                    h.sum,
                    h.mean(),
                    h.quantile(0.50),
                    h.quantile(0.90),
                    h.quantile(0.99),
                )),
                json_array(&snap.traces, |(stage, at, value)| format!(
                    "{{\"stage\":\"{}\",\"at\":{at},\"value\":{value}}}",
                    json_escape(stage)
                )),
            )
        });
        println!(
            "{}",
            json_object("pbio-stats/v1", format!("\"snapshots\":{entries}"))
        );
    }

    /// CI assertions: the dogfooded channel actually carried nonzero
    /// measurements for every stage the acceptance criteria name.
    fn check_smoke(&self, snapshots: &Snapshots) -> Result<(), String> {
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
}

/// Subscribe to `$stats` on a live daemon and collect snapshots for
/// `duration`.
fn observe(addr: &str, duration: Duration) -> Result<Snapshots, String> {
    let mut snapshots = Snapshots::new();
    cli::observe(addr, STATS_CHANNEL, duration, |value| {
        if let Some((header, snap)) = snapshot_from_value(value) {
            // Snapshots are cumulative: the latest per publisher wins.
            snapshots.insert((header.role, header.id), (header, snap));
        }
    })?;
    Ok(snapshots)
}

/// The table's histogram rows: (metric, stage label).
const STAGES: [(&str, &str); 5] = [
    ("client_encode_ns", "encode (publish_value)"),
    ("serv_recv_ns", "receive (daemon frame handling)"),
    ("serv_fanout_ns", "fan-out (per event)"),
    ("serv_send_ns", "send (vectored write batch)"),
    ("client_convert_ns", "convert (DCG, heterogeneous)"),
];

fn role_name(header: &StatsHeader) -> &'static str {
    if header.role == ROLE_DAEMON {
        "daemon"
    } else {
        "client"
    }
}

/// A JSON object of `"name":value(v)` for every `(name, v)`, names
/// escaped.
fn json_map<T>(items: &[(String, T)], value: impl Fn(&T) -> String) -> String {
    let fields: Vec<String> = items
        .iter()
        .map(|(name, v)| format!("\"{}\":{}", json_escape(name), value(v)))
        .collect();
    format!("{{{}}}", fields.join(","))
}
