//! What more than one subcommand uses: the demo topology of the channel
//! monitors (`stats`, `trace`), the tapped tick session of `dump` and
//! `replay`, the tick record of `top`, `dump` and `replay`, and the
//! microsecond formatter of the tables.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pbio_bench::workloads::{workload, MsgSize};
use pbio_serv::tap::{read_capture, CaptureFile};
use pbio_serv::{ServClient, ServConfig, ServDaemon, TapConfig};
use pbio_types::arch::ArchProfile;
use pbio_types::schema::{AtomType, FieldDecl, Schema};
use pbio_types::value::RecordValue;

/// Channel the demo publisher streams workload records on.
const DEMO_CHANNEL: &str = "pbio-ctl-demo";

/// How long a `--smoke` run of a channel monitor observes.
pub const SMOKE_DURATION: Duration = Duration::from_secs(2);

/// The side-band plane a channel monitor reads, and how the demo feeds
/// it.
pub struct Plane {
    /// Daemon settings that switch the plane on.
    pub config: ServConfig,
    /// The reserved channel every demo client exports on.
    pub channel: &'static str,
    /// One client's export onto `channel`.
    pub export: fn(&mut ServClient, u32),
    /// How often each client exports.
    pub every: Duration,
    /// Records per publisher burst.
    pub burst: u32,
    /// Publisher pause after each burst.
    pub pause: Duration,
    /// Subscriber count, alternating x86-64 (zero-copy receive) and
    /// SPARC (DCG-converted receive).
    pub subs: usize,
}

/// Self-contained demo: a daemon with `plane` switched on, an x86-64
/// publisher driving `publish_value` (so encode is timed per event) and
/// `plane.subs` subscribers of 100-byte workload records. Every client
/// exports on the plane every `plane.every` and once more on the way
/// out. `observe` gets the daemon's address; the topology runs until it
/// returns.
pub fn demo<R>(plane: Plane, observe: impl FnOnce(&str) -> Result<R, String>) -> Result<R, String> {
    let daemon = ServDaemon::bind_with("127.0.0.1:0", plane.config)
        .map_err(|e| format!("bind daemon: {e}"))?;
    let addr = daemon.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let client = |profile: ArchProfile, publisher: bool| {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let w = workload(MsgSize::B100);
            let mut client = ServClient::connect(addr, &profile).expect("demo client connect");
            let chan = client.open_channel(DEMO_CHANNEL).expect("open channel");
            let side = client
                .open_channel(plane.channel)
                .expect("open side-band channel");
            let format = if publisher {
                client.register_format(&w.schema).expect("register format")
            } else {
                client.subscribe(chan, &w.schema, None).expect("subscribe");
                0
            };
            let mut last_export = Instant::now();
            while !stop.load(Ordering::Relaxed) {
                if publisher {
                    for _ in 0..plane.burst {
                        client
                            .publish_value(chan, format, &w.value)
                            .expect("publish");
                    }
                    std::thread::sleep(plane.pause);
                } else {
                    let _ = client.poll(Duration::from_millis(10));
                }
                if last_export.elapsed() >= plane.every {
                    last_export = Instant::now();
                    (plane.export)(&mut client, side);
                }
            }
            (plane.export)(&mut client, side);
        })
    };
    let profiles = [ArchProfile::X86_64, ArchProfile::SPARC_V8];
    let mut threads: Vec<_> = (0..plane.subs)
        .map(|i| client(profiles[i % 2].clone(), false))
        .collect();
    threads.push(client(ArchProfile::X86_64, true));

    let result = observe(&addr.to_string());
    stop.store(true, Ordering::Relaxed);
    for t in threads {
        let _ = t.join();
    }
    daemon.shutdown();
    result
}

/// The two-field record of the durable and tapped demos.
pub fn tick_schema() -> Schema {
    Schema::new(
        "tick",
        vec![
            FieldDecl::atom("seq", AtomType::I64),
            FieldDecl::atom("temp", AtomType::F64),
        ],
    )
    .expect("the tick schema is well formed")
}

/// Tick number `seq`.
pub fn tick(seq: u64) -> RecordValue {
    RecordValue::new()
        .with("seq", seq as i64)
        .with("temp", seq as f64 * 0.5)
}

/// Daemon queue depth for a tick session of `events`: headroom for the
/// whole burst, because the session publishes before it drains and
/// drop-oldest would otherwise make delivery depend on socket timing.
pub fn session_queue(events: u64) -> usize {
    (events as usize * 2).max(256)
}

/// Record a tick session under a tapped daemon: one x86-64 client
/// subscribes to its own channel, publishes `events` ticks and drains
/// them. Returns the capture, read back after an orderly shutdown has
/// flushed the tap ring's tail.
pub fn record_tick_session(events: u64) -> Result<CaptureFile, String> {
    let dir = std::env::temp_dir().join(format!("pbio-ctl-tap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let daemon = ServDaemon::bind_with(
        "127.0.0.1:0",
        ServConfig {
            stats_interval: None,
            queue_capacity: session_queue(events),
            tap: Some(TapConfig::new(&dir)),
            ..ServConfig::default()
        },
    )
    .map_err(|e| format!("bind tapped daemon: {e}"))?;
    let schema = tick_schema();
    let mut client = ServClient::connect(daemon.local_addr(), &ArchProfile::X86_64)
        .map_err(|e| format!("connect: {e}"))?;
    let chan = client
        .open_channel("ticks")
        .map_err(|e| format!("open channel: {e}"))?;
    client
        .subscribe(chan, &schema, None)
        .map_err(|e| format!("subscribe: {e}"))?;
    let format = client
        .register_format(&schema)
        .map_err(|e| format!("register: {e}"))?;
    for seq in 0..events {
        client
            .publish_value(chan, format, &tick(seq))
            .map_err(|e| format!("publish: {e}"))?;
    }
    let mut received = 0u64;
    while received < events {
        match client.poll(Duration::from_secs(5)) {
            Ok(Some(_)) => received += 1,
            Ok(None) => return Err(format!("delivery stalled at {received}/{events}")),
            Err(e) => return Err(format!("poll: {e}")),
        }
    }
    client.disconnect().map_err(|e| format!("bye: {e}"))?;
    daemon.shutdown();
    let capture = read_capture(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    capture
}

/// Nanoseconds as microseconds, for the tables.
pub fn fmt_us(ns: f64) -> String {
    format!("{:.2}", ns / 1_000.0)
}
