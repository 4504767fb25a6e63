//! pbio-replay — re-drive a captured client session against a live daemon.
//!
//! Reads a wire-tap capture directory (see `pbio-dump`), selects one
//! captured connection, and replays its *inbound* frames against a
//! fresh daemon — re-handshaking, re-registering formats and channels
//! (identifiers are remapped through the live acks), and re-publishing
//! every record. The event stream the live daemon delivers back is
//! then diffed byte-for-byte against the event stream recorded in the
//! capture: in-order per-connection processing makes delivery
//! deterministic, so any divergence is a real behaviour change.
//!
//! ```text
//! pbio-replay --dir DIR --addr HOST:PORT [--conn N] [--timing original|max]
//! pbio-replay --roundtrip [--events N]   # capture + replay in one process
//! pbio-replay --smoke                    # alias for --roundtrip (CI)
//! ```
//!
//! Exit status is non-zero when the delivered stream diverges from the
//! captured one.

use std::process::ExitCode;
use std::time::Duration;

use pbio_bench::cli::{json_escape, json_object, require, CommonArgs};
use pbio_serv::tap::{capture_connections, read_capture};
use pbio_serv::{
    replay_session, ReplayOptions, ReplayReport, ReplaySpeed, ServClient, ServConfig, ServDaemon,
    TapConfig,
};
use pbio_types::arch::ArchProfile;
use pbio_types::schema::{AtomType, FieldDecl, Schema};
use pbio_types::value::RecordValue;

fn main() -> ExitCode {
    let mut dir: Option<String> = None;
    let mut conn: Option<u32> = None;
    let mut speed = ReplaySpeed::Max;
    let mut roundtrip = false;
    let mut events: u64 = 1000;
    let parsed = CommonArgs::parse(
        "pbio-replay --dir DIR --addr HOST:PORT [--conn N] [--timing original|max] [--json] \
         | pbio-replay --roundtrip [--events N]",
        std::env::args().skip(1),
        |flag, args| match flag {
            "--dir" => {
                dir = Some(require::<String>(args, "--dir", "a capture directory")?);
                Ok(true)
            }
            "--conn" => {
                conn = Some(require(args, "--conn", "a captured connection id")?);
                Ok(true)
            }
            "--timing" => {
                speed = match require::<String>(args, "--timing", "original|max")?.as_str() {
                    "original" => ReplaySpeed::Original,
                    "max" => ReplaySpeed::Max,
                    other => return Err(format!("--timing expects original|max, got {other}")),
                };
                Ok(true)
            }
            "--roundtrip" => {
                roundtrip = true;
                Ok(true)
            }
            "--events" => {
                events = require(args, "--events", "an event count")?;
                Ok(true)
            }
            _ => Ok(false),
        },
    );
    let Some(CommonArgs { addr, json, smoke }) = parsed else {
        return ExitCode::FAILURE;
    };

    if smoke || roundtrip {
        return match run_roundtrip(events, speed, json) {
            Ok(()) => {
                println!("\nROUNDTRIP OK ({events} events, byte-identical delivery)");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("ROUNDTRIP FAILED: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let (Some(dir), Some(addr)) = (dir, addr) else {
        eprintln!("pbio-replay: --dir and --addr are required (or --roundtrip)");
        return ExitCode::FAILURE;
    };
    let capture = match read_capture(&dir) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("pbio-replay: {e}");
            return ExitCode::FAILURE;
        }
    };
    let conns = capture_connections(&capture.frames);
    let Some(conn) = conn.or_else(|| conns.first().copied()) else {
        eprintln!("pbio-replay: capture holds no connections");
        return ExitCode::FAILURE;
    };
    if !conns.contains(&conn) {
        eprintln!("pbio-replay: connection {conn} not in capture (have {conns:?})");
        return ExitCode::FAILURE;
    }
    let opts = ReplayOptions {
        speed,
        ..ReplayOptions::default()
    };
    let report = match replay_session(&capture.frames, conn, &addr, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pbio-replay: {e}");
            return ExitCode::FAILURE;
        }
    };
    let identical = report.byte_identical();
    print_report(&report, conn, json);
    if identical {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_report(report: &ReplayReport, conn: u32, json: bool) {
    if json {
        let mut out = format!(
            "\"conn\":{},\"frames_sent\":{},\"expected_events\":{},\"delivered_events\":{},\
             \"byte_identical\":{}",
            conn,
            report.frames_sent,
            report.expected.len(),
            report.delivered.len(),
            report.byte_identical()
        );
        match report.divergence() {
            Some(i) => out.push_str(&format!(",\"divergence\":{i}")),
            None => out.push_str(",\"divergence\":null"),
        }
        out.push_str(",\"errors\":[");
        for (i, e) in report.errors.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\"", json_escape(e)));
        }
        out.push(']');
        println!("{}", json_object("pbio-replay/v1", out));
        return;
    }
    println!(
        "replayed conn {conn}: {} frame(s) sent, {} event(s) expected, {} delivered",
        report.frames_sent,
        report.expected.len(),
        report.delivered.len()
    );
    for e in &report.errors {
        println!("  daemon error during replay: {e}");
    }
    match report.divergence() {
        None if report.byte_identical() => println!("delivery is byte-identical to the capture"),
        None => println!(
            "delivered {} of {} expected event(s) (no byte divergence in the common prefix)",
            report.delivered.len(),
            report.expected.len()
        ),
        Some(i) => println!("DIVERGENCE at event {i}: delivered bytes differ from capture"),
    }
}

/// CI round-trip: record a deterministic single-connection session under
/// a tapped daemon, then replay it at max speed against a *fresh* daemon
/// and require byte-identical event delivery.
fn run_roundtrip(events: u64, speed: ReplaySpeed, json: bool) -> Result<(), String> {
    let dir = std::env::temp_dir().join(format!("pbio-replay-rt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Session one: a self-subscribing publisher under a tapped daemon.
    // Both daemons get queue headroom for the whole burst: the session
    // publishes before draining, and drop-oldest would otherwise make
    // the recorded (and replayed) delivery depend on socket timing.
    let queue_capacity = (events as usize * 2).max(256);
    let recorded = ServDaemon::bind_with(
        "127.0.0.1:0",
        ServConfig {
            stats_interval: None,
            queue_capacity,
            tap: Some(TapConfig::new(&dir)),
            ..ServConfig::default()
        },
    )
    .map_err(|e| format!("bind recorded daemon: {e}"))?;
    let schema = Schema::new(
        "tick",
        vec![
            FieldDecl::atom("seq", AtomType::I64),
            FieldDecl::atom("temp", AtomType::F64),
        ],
    )
    .map_err(|e| format!("schema: {e}"))?;
    {
        let mut client = ServClient::connect(recorded.local_addr(), &ArchProfile::X86_64)
            .map_err(|e| format!("connect: {e}"))?;
        let chan = client
            .open_channel("replay-rt")
            .map_err(|e| format!("open channel: {e}"))?;
        client
            .subscribe(chan, &schema, None)
            .map_err(|e| format!("subscribe: {e}"))?;
        let format = client
            .register_format(&schema)
            .map_err(|e| format!("register: {e}"))?;
        for seq in 0..events {
            let value = RecordValue::new()
                .with("seq", seq as i64)
                .with("temp", seq as f64 * 0.5);
            client
                .publish_value(chan, format, &value)
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
    }
    recorded.shutdown();

    let capture = read_capture(&dir)?;
    let conns = capture_connections(&capture.frames);
    let conn = *conns
        .first()
        .ok_or_else(|| "capture holds no connections".to_string())?;

    // Session two: replay against a daemon with no tap and no history.
    let fresh = ServDaemon::bind_with(
        "127.0.0.1:0",
        ServConfig {
            stats_interval: None,
            queue_capacity,
            ..ServConfig::default()
        },
    )
    .map_err(|e| format!("bind fresh daemon: {e}"))?;
    let opts = ReplayOptions {
        speed,
        ..ReplayOptions::default()
    };
    let report = replay_session(
        &capture.frames,
        conn,
        &fresh.local_addr().to_string(),
        &opts,
    )?;
    fresh.shutdown();
    print_report(&report, conn, json);

    if report.expected.len() != events as usize {
        return Err(format!(
            "capture recorded {} delivered event(s), expected {events}",
            report.expected.len()
        ));
    }
    if !report.byte_identical() {
        return Err(match report.divergence() {
            Some(i) => format!("delivery diverged from capture at event {i}"),
            None => format!(
                "delivered {} of {} expected event(s)",
                report.delivered.len(),
                report.expected.len()
            ),
        });
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
