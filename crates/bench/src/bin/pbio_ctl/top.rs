//! `pbio-ctl top` — live daemon topology viewer fed by the `INSPECT`
//! exchange.
//!
//! Asks a serv daemon for a [`TopoSnapshot`] — per-connection queue
//! depths, per-channel durable heads, per-shard load, consumer-lag
//! watermarks, and the tail of the flight recorder — and renders it as
//! a `top`-style table. The snapshot itself crosses the wire as a
//! self-describing PBIO record on the `K_INSPECT_ACK` frame.
//!
//! ```text
//! pbio-ctl top                      # self-contained demo: durable replay,
//!                                   #   sampled until consumer lag hits 0
//! pbio-ctl top --addr HOST:PORT     # one-shot snapshot of a live daemon
//! pbio-ctl top --events N           # demo history size (default 4000)
//! pbio-ctl top --json               # machine-readable output
//! pbio-ctl top --smoke              # demo run + assertions (CI)
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pbio_bench::cli::{json_array, json_escape, json_object, require, Args};
use pbio_obs::export::TopoSnapshot;
use pbio_obs::{flight_kind_name, FL_CONNECT, FL_REPLAY_FINISH, FL_REPLAY_START};
use pbio_serv::{FlushPolicy, ServClient, ServConfig, ServDaemon, StoreConfig, TraceConfig};
use pbio_types::arch::ArchProfile;

use crate::common::{tick, tick_schema};
use crate::Command;

/// One convergence sample from the demo's monitor loop.
struct Sample {
    t_ms: u64,
    /// Worst consumer lag across all watermarks (events behind head).
    max_lag: u64,
    /// Deepest outbound queue across all connections.
    max_queue: u64,
}

/// The daemon's topology, and in demo mode how it got there.
pub struct Report {
    snapshot: TopoSnapshot,
    /// Demo mode only: lag/queue trajectory while replay drained.
    convergence: Vec<Sample>,
}

/// `pbio-ctl top` and its flags.
pub struct Top {
    events: u64,
}

impl Command for Top {
    const DEFAULT: Top = Top { events: 4_000 };
    const NAME: &'static str = "top";
    const USAGE: &'static str = "pbio-ctl top [--addr HOST:PORT] [--events N] [--json] [--smoke]";
    type Report = Report;

    fn flag(&mut self, flag: &str, args: Args<'_>) -> Result<bool, String> {
        match flag {
            "--events" => self.events = require(args, "--events", "a count")?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn run(&mut self, addr: Option<&str>, _smoke: bool) -> Result<Report, String> {
        match addr {
            Some(addr) => observe(addr),
            None => demo(self.events),
        }
    }

    fn print_table(&self, report: &Report) {
        let s = &report.snapshot;
        println!(
            "pbio-ctl top — {} conn(s), {} channel(s), {} shard(s) @ t={}ms",
            s.conn_total,
            s.chan_total,
            s.shards.len(),
            s.t_ns / 1_000_000
        );

        println!(
            "\n{:<6} {:<6} {:<6} {:>7} {:>12} {:>9} {:>7} {:>9}",
            "conn", "shard", "caps", "queue", "bytes_sent", "frames", "tapped", "idle_ms"
        );
        for c in &s.conns {
            let idle_ms = s.t_ns.saturating_sub(c.last_active_ns) / 1_000_000;
            println!(
                "{:<6} {:<6} {:<#6x} {:>7} {:>12} {:>9} {:>7} {:>9}",
                c.conn,
                c.shard,
                c.caps,
                c.queue_depth,
                c.bytes_sent,
                c.frames_sent,
                c.tapped,
                idle_ms
            );
        }

        println!(
            "\n{:<6} {:<18} {:<7} {:>4} {:>5} {:>10} {:>8} {:>5} {:>11}",
            "chan", "name", "durable", "home", "subs", "publishes", "head", "segs", "disk_bytes"
        );
        for ch in &s.channels {
            println!(
                "{:<6} {:<18} {:<7} {:>4} {:>5} {:>10} {:>8} {:>5} {:>11}",
                ch.id,
                ch.name,
                if ch.durable { "yes" } else { "-" },
                ch.home,
                ch.subscribers,
                ch.publishes,
                ch.head,
                ch.segments,
                ch.disk_bytes
            );
        }

        if !s.peers.is_empty() {
            println!(
                "\n{:<6} {:<5} {:>10} {:>10} {:>9} {:>8} {:>9}",
                "peer", "up", "relay_tx", "relay_rx", "dropped", "pending", "idle_ms"
            );
            for p in &s.peers {
                let idle_ms = s.t_ns.saturating_sub(p.last_rx_ns) / 1_000_000;
                println!(
                    "{:<6} {:<5} {:>10} {:>10} {:>9} {:>8} {:>9}",
                    p.peer,
                    if p.connected { "yes" } else { "-" },
                    p.relay_tx,
                    p.relay_rx,
                    p.relay_dropped,
                    p.pending,
                    idle_ms
                );
            }
        }

        println!(
            "\n{:<6} {:>6} {:>6} {:>9} {:>5}",
            "shard", "conns", "ready", "wakeups", "cpu"
        );
        for sh in &s.shards {
            let cpu = if sh.cpu < 0 {
                "-".to_string()
            } else {
                sh.cpu.to_string()
            };
            println!(
                "{:<6} {:>6} {:>6} {:>9} {:>5}",
                sh.shard, sh.conns, sh.ready, sh.wakeups, cpu
            );
        }

        if !s.lags.is_empty() {
            println!(
                "\n{:<6} {:<6} {:>8} {:>10} {:>6}",
                "chan", "conn", "head", "delivered", "lag"
            );
            for l in &s.lags {
                println!(
                    "{:<6} {:<6} {:>8} {:>10} {:>6}",
                    l.chan,
                    l.conn,
                    l.head,
                    l.delivered,
                    l.lag()
                );
            }
        }

        if !s.flight.is_empty() {
            println!(
                "\nflight recorder ({} recorded, last {}):",
                s.flight_total,
                s.flight.len()
            );
            for ev in &s.flight {
                println!(
                    "  t={:>8}ms {:<14} conn={} chan={} code={} aux={}",
                    ev.t_ns / 1_000_000,
                    flight_kind_name(ev.kind),
                    ev.conn,
                    ev.chan,
                    ev.code,
                    ev.aux
                );
            }
        }

        if !report.convergence.is_empty() {
            println!("\nreplay convergence (max lag / max queue over time):");
            for sample in &report.convergence {
                println!(
                    "  t={:>6}ms lag={:>6} queue={:>5}",
                    sample.t_ms, sample.max_lag, sample.max_queue
                );
            }
        }
    }

    fn print_json(&self, report: &Report) {
        let s = &report.snapshot;
        let conns = json_array(&s.conns, |c| {
            json_fields!(c; conn, shard, caps, queue_depth, bytes_sent, frames_sent, tapped,
                last_active_ns)
        });
        let channels = json_array(&s.channels, |ch| {
            json_fields!(ch; id, name = format!("\"{}\"", json_escape(&ch.name)), durable, home,
                subscribers, publishes, head, segments, disk_bytes)
        });
        let peers = json_array(
            &s.peers,
            |p| json_fields!(p; peer, connected, relay_tx, relay_rx, relay_dropped, pending, last_rx_ns),
        );
        let shards = json_array(
            &s.shards,
            |sh| json_fields!(sh; shard, conns, ready, wakeups, cpu),
        );
        let lags = json_array(
            &s.lags,
            |l| json_fields!(l; chan, conn, head, delivered, lag = l.lag()),
        );
        let flight = json_array(&s.flight, |ev| {
            json_fields!(ev; t_ns, kind = format!("\"{}\"", flight_kind_name(ev.kind)), conn, chan,
                code, aux)
        });
        let snapshot = json_fields!(s; t_ns, conn_total, chan_total, lag_total, flight_total,
            conns = conns, channels = channels, peers = peers, shards = shards, lags = lags,
            flight = flight);
        let convergence = json_array(
            &report.convergence,
            |sample| json_fields!(sample; t_ms, max_lag, max_queue),
        );
        let out = format!("\"snapshot\":{snapshot},\"convergence\":{convergence}");
        println!("{}", json_object("pbio-top/v1", out));
    }

    /// CI assertions: the demo's topology actually witnessed the replay —
    /// the watermark was visibly behind, then converged to zero.
    fn check_smoke(&self, report: &Report) -> Result<(), String> {
        let events = self.events;
        let s = &report.snapshot;
        let ticks = s
            .channels
            .iter()
            .find(|ch| ch.name == "ticks")
            .ok_or("snapshot is missing the demo channel")?;
        if !ticks.durable {
            return Err("demo channel lost its durable flag".into());
        }
        if ticks.head != events {
            return Err(format!("durable head is {}, expected {events}", ticks.head));
        }
        if s.shards.is_empty() || s.shards.iter().all(|sh| sh.wakeups == 0) {
            return Err("no shard recorded any wakeups".into());
        }
        if s.lags.is_empty() || s.lags.iter().any(|l| l.lag() != 0) {
            return Err("consumer lag did not converge to 0".into());
        }
        if !report.convergence.iter().any(|sample| sample.max_lag > 0) {
            return Err("monitor never observed a mid-replay watermark (lag > 0)".into());
        }
        for kind in [FL_CONNECT, FL_REPLAY_START, FL_REPLAY_FINISH] {
            if !s.flight.iter().any(|ev| ev.kind == kind) {
                return Err(format!(
                    "flight recorder is missing a {} event",
                    flight_kind_name(kind)
                ));
            }
        }
        Ok(())
    }
}

/// One-shot snapshot of a live daemon.
fn observe(addr: &str) -> Result<Report, String> {
    let mut client =
        ServClient::connect(addr, &ArchProfile::X86_64).map_err(|e| format!("connect: {e}"))?;
    let snapshot = client.inspect().map_err(|e| format!("inspect: {e}"))?;
    Ok(Report {
        snapshot,
        convergence: Vec::new(),
    })
}

/// Self-contained demo: a durable daemon, `events` records of history,
/// then a `subscribe_from(0)` reader whose catch-up the monitor watches
/// through `inspect()` until its consumer-lag watermark reaches 0.
fn demo(events: u64) -> Result<Report, String> {
    let dir = std::env::temp_dir().join(format!("pbio-ctl-top-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let daemon = ServDaemon::bind_with(
        "127.0.0.1:0",
        ServConfig {
            stats_interval: Some(Duration::from_millis(100)),
            trace: TraceConfig {
                sample_mod: 0,
                publish_interval: None,
                sink_capacity: 16,
            },
            durability: Some(StoreConfig {
                flush: FlushPolicy::EveryBatch,
                ..StoreConfig::new(dir.clone())
            }),
            // A small queue wedges the replay stream until the reader
            // polls, so the mid-replay watermark holds still for the
            // monitor instead of racing it.
            queue_capacity: 32,
            ..ServConfig::default()
        },
    )
    .map_err(|e| format!("bind daemon: {e}"))?;
    let addr = daemon.local_addr();
    let schema = tick_schema();

    // Lay down the durable history and wait until every publish is acked
    // (on disk), so the reader's replay faces the full backlog at once.
    let mut publisher = ServClient::connect(addr, &ArchProfile::X86_64)
        .map_err(|e| format!("publisher connect: {e}"))?;
    let format = publisher
        .register_format(&schema)
        .map_err(|e| format!("register: {e}"))?;
    let chan = publisher
        .open_channel_durable("ticks")
        .map_err(|e| format!("open ticks: {e}"))?;
    for seq in 0..events {
        publisher
            .publish_value(chan, format, &tick(seq))
            .map_err(|e| format!("publish: {e}"))?;
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while publisher.stats().publishes_acked < events {
        if Instant::now() >= deadline {
            return Err(format!(
                "acks stalled at {}/{events}",
                publisher.stats().publishes_acked
            ));
        }
        let _ = publisher.poll(Duration::from_millis(20));
    }

    // Reader: replay everything from offset 0 on its own thread so the
    // monitor below can watch the watermark drain concurrently. It starts
    // polling only once the monitor has sampled a nonzero lag, so the
    // watermark is seen mid-replay however fast replay runs.
    let stop = Arc::new(AtomicBool::new(false));
    let lag_seen = Arc::new(AtomicBool::new(false));
    let delivered = Arc::new(AtomicU64::new(0));
    let reader = {
        let stop = stop.clone();
        let lag_seen = lag_seen.clone();
        let delivered = delivered.clone();
        let schema = schema.clone();
        std::thread::spawn(move || {
            let mut client =
                ServClient::connect(addr, &ArchProfile::X86_64).expect("reader connect");
            let chan = client.open_channel("ticks").expect("reader open");
            client
                .subscribe_from(chan, &schema, 0)
                .expect("subscribe_from");
            while !lag_seen.load(Ordering::Relaxed) && !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(1));
            }
            while !stop.load(Ordering::Relaxed) {
                if let Ok(Some(_)) = client.poll(Duration::from_millis(20)) {
                    delivered.fetch_add(1, Ordering::Relaxed);
                }
            }
        })
    };

    // Monitor: sample the topology until the reader's lag converges to 0
    // *and* every event has actually been handed to the application.
    let mut monitor =
        ServClient::connect(addr, &ArchProfile::X86_64).map_err(|e| format!("monitor: {e}"))?;
    let started = Instant::now();
    let deadline = started + Duration::from_secs(60);
    let mut convergence = Vec::new();
    let snapshot = loop {
        let snap = monitor.inspect().map_err(|e| format!("inspect: {e}"))?;
        let max_lag = snap.lags.iter().map(|l| l.lag()).max().unwrap_or(0);
        let max_queue = snap.conns.iter().map(|c| c.queue_depth).max().unwrap_or(0);
        convergence.push(Sample {
            t_ms: started.elapsed().as_millis() as u64,
            max_lag,
            max_queue,
        });
        if max_lag > 0 {
            lag_seen.store(true, Ordering::Relaxed);
        }
        // The replay thread records its finish after the last event
        // leaves, so wait for that too rather than race it.
        let caught_up = !snap.lags.is_empty()
            && max_lag == 0
            && max_queue == 0
            && delivered.load(Ordering::Relaxed) >= events
            && snap.flight.iter().any(|ev| ev.kind == FL_REPLAY_FINISH);
        if caught_up {
            break snap;
        }
        if Instant::now() >= deadline {
            stop.store(true, Ordering::Relaxed);
            let _ = reader.join();
            return Err(format!(
                "lag never converged: max_lag={max_lag} max_queue={max_queue} delivered={}",
                delivered.load(Ordering::Relaxed)
            ));
        }
        std::thread::sleep(Duration::from_millis(25));
    };

    stop.store(true, Ordering::Relaxed);
    let _ = reader.join();
    publisher
        .disconnect()
        .map_err(|e| format!("disconnect: {e}"))?;
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    Ok(Report {
        snapshot,
        convergence,
    })
}
