//! pbio-dump — offline renderer for wire-tap capture directories.
//!
//! Opens a capture written by a daemon configured with
//! [`pbio_serv::ServConfig::tap`] (crash recovery included: torn tails
//! are CRC-truncated exactly like any other store channel) and renders
//! it at two levels:
//!
//! * **frame level** — every captured frame with direction, relative
//!   timestamp, connection id, kind, args, and body length;
//! * **record level** — `PUBLISH`/`EVENT` bodies decoded back into
//!   field/value records using the `FORMAT`/`ANNOUNCE` frames *inside
//!   the capture itself*. No daemon, no schema registry: a capture is
//!   self-describing or it is a bug.
//!
//! ```text
//! pbio-dump --dir DIR           # render a capture directory
//! pbio-dump --dir DIR --limit 40
//! pbio-dump --dir DIR --json    # one schema-bearing JSON object
//! pbio-dump --smoke             # self-contained demo + assertions (CI)
//! ```

use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Duration;

use pbio_bench::cli::{json_escape, json_object, require, CommonArgs};
use pbio_serv::protocol::{kind_name, split_event, K_EVENT, K_HELLO, K_HELLO_ACK, K_PUBLISH};
use pbio_serv::tap::{
    capture_connections, capture_layouts, read_capture, CaptureFile, CapturedFrame, TAP_IN,
};
use pbio_serv::{ServClient, ServConfig, ServDaemon, TapConfig};
use pbio_types::arch::ArchProfile;
use pbio_types::layout::Layout;
use pbio_types::schema::{AtomType, FieldDecl, Schema};
use pbio_types::value::{decode_native, RecordValue};

fn main() -> ExitCode {
    let mut dir: Option<String> = None;
    let mut limit: usize = 0;
    let parsed = CommonArgs::parse(
        "pbio-dump --dir DIR [--limit N] [--json] | pbio-dump --smoke",
        |flag, args| match flag {
            "--dir" => {
                dir = Some(require::<String>(args, "--dir", "a capture directory")?);
                Ok(true)
            }
            "--limit" => {
                limit = require(args, "--limit", "a row count")?;
                Ok(true)
            }
            _ => Ok(false),
        },
    );
    let Some(CommonArgs { addr, json, smoke }) = parsed else {
        return ExitCode::FAILURE;
    };
    if addr.is_some() {
        eprintln!("pbio-dump reads capture directories, not live daemons (drop --addr)");
        return ExitCode::FAILURE;
    }

    if smoke {
        return match run_smoke(json) {
            Ok(()) => {
                println!("\nSMOKE OK");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("SMOKE FAILED: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let Some(dir) = dir else {
        eprintln!("pbio-dump: --dir is required (or --smoke for the self-test)");
        return ExitCode::FAILURE;
    };
    let capture = match read_capture(&dir) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("pbio-dump: {e}");
            return ExitCode::FAILURE;
        }
    };
    render(&dir, &capture, limit, json);
    ExitCode::SUCCESS
}

/// Decode one event/publish body through the capture's own layouts,
/// past the trailers its flag bits announce.
fn decode_record(
    layouts: &HashMap<u32, Layout>,
    b: u32,
    body: &[u8],
) -> Option<Result<RecordValue, String>> {
    let ev = match split_event(b, body) {
        Ok(ev) => ev,
        Err(e) => return Some(Err(e.to_string())),
    };
    let layout = layouts.get(&ev.format)?;
    Some(decode_native(ev.payload, layout).map_err(|e| e.to_string()))
}

/// Render the capture at frame level and record level.
fn render(dir: &str, capture: &CaptureFile, limit: usize, json: bool) {
    let frames = &capture.frames;
    let layouts = capture_layouts(frames);
    let conns = capture_connections(frames);
    let t0 = frames.first().map_or(0, |f| f.t_ns);

    if json {
        let mut out = format!(
            "\"dir\":\"{}\",\"frames\":{},\"torn_tails\":{},\"truncated_bytes\":{},",
            json_escape(dir),
            frames.len(),
            capture.torn_tails,
            capture.truncated_bytes
        );
        out.push_str("\"conns\":[");
        for (i, c) in conns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&c.to_string());
        }
        out.push_str("],\"formats\":[");
        let mut ids: Vec<&u32> = layouts.keys().collect();
        ids.sort();
        for (i, id) in ids.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&id.to_string());
        }
        out.push_str("],\"capture\":[");
        for (i, f) in frames.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"t_ns\":{},\"conn\":{},\"dir\":\"{}\",\"kind\":\"{}\",\
                 \"a\":{},\"b\":{},\"len\":{}",
                f.t_ns,
                f.conn,
                if f.dir == TAP_IN { "in" } else { "out" },
                kind_name(f.frame.kind),
                f.frame.a,
                f.frame.b,
                f.frame.body.len()
            ));
            if f.frame.kind == K_EVENT || f.frame.kind == K_PUBLISH {
                match decode_record(&layouts, f.frame.b, f.frame.body.as_slice()) {
                    Some(Ok(rec)) => {
                        out.push_str(&format!(
                            ",\"record\":\"{}\"",
                            json_escape(&rec.to_string())
                        ));
                    }
                    Some(Err(e)) => {
                        out.push_str(&format!(",\"record_error\":\"{}\"", json_escape(&e)));
                    }
                    None => {}
                }
            }
            out.push('}');
        }
        out.push(']');
        println!("{}", json_object("pbio-dump/v1", out));
        return;
    }

    println!(
        "capture {dir}: {} frame(s), {} connection(s), {} decodable format(s)",
        frames.len(),
        conns.len(),
        layouts.len()
    );
    if capture.torn_tails > 0 {
        println!(
            "recovery: {} torn tail(s) truncated ({} bytes discarded)",
            capture.torn_tails, capture.truncated_bytes
        );
    }
    println!(
        "\n{:<6} {:>9} {:<5} {:<4} {:<14} {:>10} {:>10} {:>7}",
        "idx", "t_ms", "conn", "dir", "kind", "a", "b", "len"
    );
    let shown = if limit > 0 { limit } else { frames.len() };
    for (i, f) in frames.iter().take(shown).enumerate() {
        let dir_glyph = if f.dir == TAP_IN { "->" } else { "<-" };
        let mut line = format!(
            "{:<6} {:>9} {:<5} {:<4} {:<14} {:>10} {:>10} {:>7}",
            i,
            f.t_ns.saturating_sub(t0) / 1_000_000,
            f.conn,
            dir_glyph,
            kind_name(f.frame.kind),
            f.frame.a,
            f.frame.b,
            f.frame.body.len()
        );
        if f.frame.kind == K_EVENT || f.frame.kind == K_PUBLISH {
            match decode_record(&layouts, f.frame.b, f.frame.body.as_slice()) {
                Some(Ok(rec)) => line.push_str(&format!("  {rec}")),
                Some(Err(e)) => line.push_str(&format!("  <undecodable: {e}>")),
                None => line.push_str("  <no layout in capture>"),
            }
        }
        println!("{line}");
    }
    if shown < frames.len() {
        println!("... {} more frame(s) (raise --limit)", frames.len() - shown);
    }
}

fn tick_schema() -> Schema {
    Schema::new(
        "tick",
        vec![
            FieldDecl::atom("seq", AtomType::I64),
            FieldDecl::atom("temp", AtomType::F64),
        ],
    )
    .unwrap()
}

/// Self-contained CI check: run a tapped daemon through a short
/// publish/subscribe session, then dump the capture and assert it is
/// complete, self-describing, and fully decodable.
fn run_smoke(json: bool) -> Result<(), String> {
    const EVENTS: u64 = 50;
    let dir = std::env::temp_dir().join(format!("pbio-dump-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let daemon = ServDaemon::bind_with(
        "127.0.0.1:0",
        ServConfig {
            stats_interval: None,
            tap: Some(TapConfig::new(&dir)),
            ..ServConfig::default()
        },
    )
    .map_err(|e| format!("bind daemon: {e}"))?;
    let addr = daemon.local_addr();
    let schema = tick_schema();

    let mut subscriber = ServClient::connect(addr, &ArchProfile::X86_64)
        .map_err(|e| format!("subscriber connect: {e}"))?;
    let chan = subscriber
        .open_channel("dump-demo")
        .map_err(|e| format!("open channel: {e}"))?;
    subscriber
        .subscribe(chan, &schema, None)
        .map_err(|e| format!("subscribe: {e}"))?;

    let mut publisher = ServClient::connect(addr, &ArchProfile::X86_64)
        .map_err(|e| format!("publisher connect: {e}"))?;
    let format = publisher
        .register_format(&schema)
        .map_err(|e| format!("register: {e}"))?;
    let chan_pub = publisher
        .open_channel("dump-demo")
        .map_err(|e| format!("open channel: {e}"))?;
    for seq in 0..EVENTS {
        let value = RecordValue::new()
            .with("seq", seq as i64)
            .with("temp", seq as f64 * 0.25);
        publisher
            .publish_value(chan_pub, format, &value)
            .map_err(|e| format!("publish: {e}"))?;
    }
    let mut received = 0u64;
    while received < EVENTS {
        match subscriber.poll(Duration::from_secs(5)) {
            Ok(Some(_)) => received += 1,
            Ok(None) => return Err(format!("delivery stalled at {received}/{EVENTS}")),
            Err(e) => return Err(format!("poll: {e}")),
        }
    }
    publisher.disconnect().map_err(|e| format!("bye: {e}"))?;
    subscriber.disconnect().map_err(|e| format!("bye: {e}"))?;
    // Orderly shutdown flushes the tap ring's tail into the capture log.
    daemon.shutdown();

    let capture = read_capture(&dir)?;
    render(&dir.display().to_string(), &capture, 30, json);

    let frames = &capture.frames;
    if capture.torn_tails != 0 {
        return Err("clean shutdown left a torn tail".into());
    }
    if !frames
        .iter()
        .any(|f| f.dir == TAP_IN && f.frame.kind == K_HELLO)
    {
        return Err("capture is missing the inbound HELLO".into());
    }
    if !frames
        .iter()
        .any(|f| f.dir != TAP_IN && f.frame.kind == K_HELLO_ACK)
    {
        return Err("capture is missing the outbound HELLO_ACK".into());
    }
    let layouts = capture_layouts(frames);
    if layouts.is_empty() {
        return Err("capture carries no decodable format".into());
    }
    let check = |f: &CapturedFrame| -> Result<u64, String> {
        match decode_record(&layouts, f.frame.b, f.frame.body.as_slice()) {
            Some(Ok(_)) => Ok(1),
            Some(Err(e)) => Err(format!("{} body undecodable: {e}", kind_name(f.frame.kind))),
            None => Err(format!(
                "{} references a format the capture does not describe",
                kind_name(f.frame.kind)
            )),
        }
    };
    let mut publishes = 0;
    let mut events = 0;
    for f in frames {
        match f.frame.kind {
            K_PUBLISH => publishes += check(f)?,
            K_EVENT => events += check(f)?,
            _ => {}
        }
    }
    if publishes != EVENTS || events != EVENTS {
        return Err(format!(
            "expected {EVENTS} publishes and {EVENTS} events, captured {publishes}/{events}"
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
