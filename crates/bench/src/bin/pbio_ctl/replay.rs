//! `pbio-ctl replay` — re-drive a captured client session against a live
//! daemon.
//!
//! Reads a wire-tap capture directory (see `pbio-ctl dump`), selects one
//! captured connection, and replays its *inbound* frames against a
//! fresh daemon — re-handshaking, re-registering formats and channels
//! (identifiers are remapped through the live acks), and re-publishing
//! every record. The event stream the live daemon delivers back is
//! then diffed byte-for-byte against the event stream recorded in the
//! capture: in-order per-connection processing makes delivery
//! deterministic, so any divergence is a real behaviour change.
//!
//! ```text
//! pbio-ctl replay --dir DIR --addr HOST:PORT [--conn N] [--timing original|max]
//! pbio-ctl replay --smoke [--events N]   # capture + replay in one process (CI)
//! ```
//!
//! Exit status is non-zero when the delivered stream diverges from the
//! captured one.

use pbio_bench::cli::{json_array, json_escape, json_object, require, Args};
use pbio_serv::tap::{capture_connections, read_capture, CaptureFile};
use pbio_serv::{replay_session, ReplayOptions, ReplayReport, ReplaySpeed, ServConfig, ServDaemon};

use crate::common::{record_tick_session, session_queue};
use crate::Command;

/// `pbio-ctl replay` and its flags.
pub struct Replay {
    dir: Option<String>,
    conn: Option<u32>,
    speed: ReplaySpeed,
    /// Ticks in the `--smoke` session.
    events: u64,
}

impl Command for Replay {
    const DEFAULT: Replay = Replay {
        dir: None,
        conn: None,
        speed: ReplaySpeed::Max,
        events: 1000,
    };
    const NAME: &'static str = "replay";
    const USAGE: &'static str = "pbio-ctl replay --dir DIR --addr HOST:PORT [--conn N] \
         [--timing original|max] [--json] | pbio-ctl replay --smoke [--events N]";
    /// The replayed connection and what its replay delivered.
    type Report = (u32, ReplayReport);

    fn flag(&mut self, flag: &str, args: Args<'_>) -> Result<bool, String> {
        match flag {
            "--dir" => self.dir = Some(require::<String>(args, "--dir", "a capture directory")?),
            "--conn" => self.conn = Some(require(args, "--conn", "a captured connection id")?),
            "--timing" => {
                self.speed = match require::<String>(args, "--timing", "original|max")?.as_str() {
                    "original" => ReplaySpeed::Original,
                    "max" => ReplaySpeed::Max,
                    other => return Err(format!("--timing expects original|max, got {other}")),
                }
            }
            "--events" => self.events = require(args, "--events", "an event count")?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The demo: record a deterministic single-connection tick session
    /// under a tapped daemon, then replay it against a *fresh* daemon
    /// with no tap and no history.
    fn run(&mut self, addr: Option<&str>, smoke: bool) -> Result<(u32, ReplayReport), String> {
        if smoke {
            let capture = record_tick_session(self.events)?;
            let fresh = ServDaemon::bind_with(
                "127.0.0.1:0",
                ServConfig {
                    stats_interval: None,
                    queue_capacity: session_queue(self.events),
                    ..ServConfig::default()
                },
            )
            .map_err(|e| format!("bind fresh daemon: {e}"))?;
            let replayed = self.replay(&capture, &fresh.local_addr().to_string());
            fresh.shutdown();
            return replayed;
        }
        let (Some(dir), Some(addr)) = (&self.dir, addr) else {
            return Err("--dir and --addr are required (or --smoke)".into());
        };
        self.replay(&read_capture(dir)?, addr)
    }

    fn print_table(&self, (conn, report): &(u32, ReplayReport)) {
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
            None if report.byte_identical() => {
                println!("delivery is byte-identical to the capture")
            }
            None => println!(
                "delivered {} of {} expected event(s) (no byte divergence in the common prefix)",
                report.delivered.len(),
                report.expected.len()
            ),
            Some(i) => println!("DIVERGENCE at event {i}: delivered bytes differ from capture"),
        }
    }

    fn print_json(&self, (conn, report): &(u32, ReplayReport)) {
        let divergence = report
            .divergence()
            .map_or("null".to_string(), |i| i.to_string());
        let errors = json_array(&report.errors, |e| format!("\"{}\"", json_escape(e)));
        let out = format!(
            "\"conn\":{},\"frames_sent\":{},\"expected_events\":{},\"delivered_events\":{},\
             \"byte_identical\":{},\"divergence\":{divergence},\"errors\":{errors}",
            conn,
            report.frames_sent,
            report.expected.len(),
            report.delivered.len(),
            report.byte_identical()
        );
        println!("{}", json_object("pbio-replay/v1", out));
    }

    /// Byte-identical delivery of every recorded event.
    fn check_smoke(&self, (_, report): &(u32, ReplayReport)) -> Result<(), String> {
        let events = self.events;
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
        Ok(())
    }

    fn passed(&self, (_, report): &(u32, ReplayReport)) -> bool {
        report.byte_identical()
    }
}

impl Replay {
    /// Replay `--conn` (default: the first captured connection) of
    /// `capture` against the daemon at `addr`, at `--timing` speed.
    fn replay(&self, capture: &CaptureFile, addr: &str) -> Result<(u32, ReplayReport), String> {
        let conns = capture_connections(&capture.frames);
        let Some(conn) = self.conn.or_else(|| conns.first().copied()) else {
            return Err("capture holds no connections".into());
        };
        if !conns.contains(&conn) {
            return Err(format!("connection {conn} not in capture (have {conns:?})"));
        }
        let opts = ReplayOptions {
            speed: self.speed,
            ..ReplayOptions::default()
        };
        Ok((conn, replay_session(&capture.frames, conn, addr, &opts)?))
    }
}
