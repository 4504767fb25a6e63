//! `pbio-ctl dump` — offline renderer for wire-tap capture directories.
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
//! pbio-ctl dump --dir DIR           # render a capture directory
//! pbio-ctl dump --dir DIR --limit 40
//! pbio-ctl dump --dir DIR --json    # one schema-bearing JSON object
//! pbio-ctl dump --smoke             # self-contained demo + assertions (CI)
//! ```

use std::collections::HashMap;

use pbio_bench::cli::{json_array, json_escape, json_object, require, Args};
use pbio_serv::protocol::{kind_name, split_event, K_EVENT, K_HELLO, K_HELLO_ACK, K_PUBLISH};
use pbio_serv::tap::{
    capture_connections, capture_layouts, read_capture, CaptureFile, CapturedFrame, TAP_IN,
};
use pbio_types::layout::Layout;
use pbio_types::value::{decode_native, RecordValue};

use crate::common::record_tick_session;
use crate::Command;

/// Ticks the smoke session publishes and receives.
const EVENTS: u64 = 50;

/// `pbio-ctl dump` and its flags.
pub struct Dump {
    dir: Option<String>,
    /// Frames rendered in the table; 0 renders all.
    limit: usize,
}

impl Command for Dump {
    const DEFAULT: Dump = Dump {
        dir: None,
        limit: 0,
    };
    const NAME: &'static str = "dump";
    const USAGE: &'static str =
        "pbio-ctl dump --dir DIR [--limit N] [--json] | pbio-ctl dump --smoke";
    /// Where the capture came from, and the capture.
    type Report = (String, CaptureFile);

    fn flag(&mut self, flag: &str, args: Args<'_>) -> Result<bool, String> {
        match flag {
            "--dir" => self.dir = Some(require::<String>(args, "--dir", "a capture directory")?),
            "--limit" => self.limit = require(args, "--limit", "a row count")?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The demo: a tapped daemon through a short tick session.
    fn run(&mut self, addr: Option<&str>, smoke: bool) -> Result<(String, CaptureFile), String> {
        if addr.is_some() {
            return Err("reads capture directories, not live daemons (drop --addr)".into());
        }
        if smoke {
            self.limit = 30;
            return Ok(("(smoke session)".into(), record_tick_session(EVENTS)?));
        }
        let Some(dir) = self.dir.clone() else {
            return Err("--dir is required (or --smoke for the self-test)".into());
        };
        let capture = read_capture(&dir)?;
        Ok((dir, capture))
    }

    /// Frame level, with each record decoded beside its frame; `--limit`
    /// rows at most.
    fn print_table(&self, (dir, capture): &(String, CaptureFile)) {
        let frames = &capture.frames;
        let layouts = capture_layouts(frames);
        let conns = capture_connections(frames);
        let t0 = frames.first().map_or(0, |f| f.t_ns);
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
        let shown = if self.limit > 0 {
            self.limit
        } else {
            frames.len()
        };
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

    /// Frame level plus record level, as one JSON object.
    fn print_json(&self, (dir, capture): &(String, CaptureFile)) {
        let frames = &capture.frames;
        let layouts = capture_layouts(frames);
        let conns = capture_connections(frames);
        let mut ids: Vec<&u32> = layouts.keys().collect();
        ids.sort();
        let rows = json_array(frames, |f| {
            let mut row = format!(
                "{{\"t_ns\":{},\"conn\":{},\"dir\":\"{}\",\"kind\":\"{}\",\
                 \"a\":{},\"b\":{},\"len\":{}",
                f.t_ns,
                f.conn,
                if f.dir == TAP_IN { "in" } else { "out" },
                kind_name(f.frame.kind),
                f.frame.a,
                f.frame.b,
                f.frame.body.len()
            );
            if f.frame.kind == K_EVENT || f.frame.kind == K_PUBLISH {
                match decode_record(&layouts, f.frame.b, f.frame.body.as_slice()) {
                    Some(Ok(rec)) => {
                        row.push_str(&format!(
                            ",\"record\":\"{}\"",
                            json_escape(&rec.to_string())
                        ));
                    }
                    Some(Err(e)) => {
                        row.push_str(&format!(",\"record_error\":\"{}\"", json_escape(&e)));
                    }
                    None => {}
                }
            }
            row.push('}');
            row
        });
        let out = format!(
            "\"dir\":\"{}\",\"frames\":{},\"torn_tails\":{},\"truncated_bytes\":{},\
             \"conns\":{},\"formats\":{},\"capture\":{rows}",
            json_escape(dir),
            frames.len(),
            capture.torn_tails,
            capture.truncated_bytes,
            json_array(&conns, u32::to_string),
            json_array(ids, u32::to_string),
        );
        println!("{}", json_object("pbio-dump/v1", out));
    }

    /// The capture is complete, self-describing, and fully decodable.
    fn check_smoke(&self, (_, capture): &(String, CaptureFile)) -> Result<(), String> {
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
        Ok(())
    }
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
