//! Shared command-line plumbing for the `pbio-*` observability tools.
//!
//! `pbio-stats`, `pbio-top`, `pbio-trace`, `pbio-dump` and `pbio-replay`
//! all speak the same dialect: `--addr HOST:PORT` to attach to a live
//! daemon, `--json` for machine-readable output, `--smoke` for a CI
//! self-test, plus a handful of tool-specific flags. This module holds
//! the one flag loop, the one JSON string escaper and the one JSON
//! envelope they all use, plus the one reserved-channel read loop of the
//! channel monitors (`pbio-stats`, `pbio-trace`), so the tools stop
//! carrying divergent copies.
//!
//! Every tool's `--json` output is a **single JSON object whose first
//! field is `"schema"`** (e.g. `"pbio-top/v1"`) — a consumer can
//! dispatch on the shape before parsing the rest, and a schema bump is
//! an explicit, greppable event.

use std::fmt::Display;
use std::str::FromStr;
use std::time::{Duration, Instant};

use pbio_serv::ServClient;
use pbio_types::arch::ArchProfile;
use pbio_types::value::{decode_native, RecordValue};

/// The flags every observability tool shares.
#[derive(Debug, Default)]
pub struct CommonArgs {
    /// `--addr HOST:PORT`: attach to a live daemon instead of running
    /// the tool's self-contained demo.
    pub addr: Option<String>,
    /// `--json`: emit one schema-bearing JSON object instead of tables.
    pub json: bool,
    /// `--smoke`: short demo run plus CI assertions.
    pub smoke: bool,
}

impl CommonArgs {
    /// Parse `args` (a tool passes `std::env::args().skip(1)`), handling
    /// the common flags here and offering everything else to
    /// `extra(flag, args)` — which returns `Ok(true)` if it consumed the
    /// flag (pulling any value it needs off `args`), `Ok(false)` if the
    /// flag is unknown, or `Err` for a malformed value. Unknown flags,
    /// missing values and `Err`s print the message and `usage` to stderr
    /// and return `None`, so `main` can `return ExitCode::FAILURE`.
    pub fn parse<I, F>(usage: &str, args: I, mut extra: F) -> Option<CommonArgs>
    where
        I: IntoIterator<Item = String>,
        F: FnMut(&str, &mut dyn Iterator<Item = String>) -> Result<bool, String>,
    {
        let mut common = CommonArgs::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let handled = match arg.as_str() {
                "--addr" => require(&mut args, "--addr", "HOST:PORT").map(|addr| {
                    common.addr = Some(addr);
                    true
                }),
                "--json" => {
                    common.json = true;
                    Ok(true)
                }
                "--smoke" => {
                    common.smoke = true;
                    Ok(true)
                }
                other => extra(other, &mut args),
            };
            let msg = match handled {
                Ok(true) => continue,
                Ok(false) => format!("unknown argument {arg:?}"),
                Err(msg) => msg,
            };
            eprintln!("{msg}");
            eprintln!("usage: {usage}");
            return None;
        }
        Some(common)
    }
}

/// Pull and parse the value of `flag` from the argument stream;
/// `Err(message)` (for the `extra` callback) when it is missing or
/// unparseable.
pub fn require<T: FromStr>(
    args: &mut dyn Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> Result<T, String> {
    args.next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{flag} takes {what}"))
}

/// Escape a string for inclusion in a JSON string literal: labeled
/// metric names like `client_dropped{chan="ticks"}` carry literal
/// quotes, and channel names are user input.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Wrap a tool's JSON body (a comma-separated field list, no outer
/// braces) into the standard envelope: one object, `"schema"` first.
pub fn json_object(schema: &str, body: impl Display) -> String {
    format!("{{\"schema\":\"{}\",{body}}}", json_escape(schema))
}

/// Subscribe to `channel` on the daemon at `addr` and hand every record
/// received for `duration` to `f`. Records arrive in the publisher's
/// native layout and are decoded through the announced wire layout — the
/// heterogeneous path when daemon and monitor disagree on architecture.
pub fn observe(
    addr: &str,
    channel: &str,
    duration: Duration,
    mut f: impl FnMut(&RecordValue),
) -> Result<(), String> {
    let mut client =
        ServClient::connect(addr, &ArchProfile::X86_64).map_err(|e| format!("connect: {e}"))?;
    let chan = client
        .open_channel(channel)
        .map_err(|e| format!("open {channel}: {e}"))?;
    client
        .subscribe_raw(chan, None)
        .map_err(|e| format!("subscribe: {e}"))?;
    let deadline = Instant::now() + duration;
    while Instant::now() < deadline {
        let ev = match client.poll_raw(Duration::from_millis(200)) {
            Ok(Some(ev)) => ev,
            Ok(None) => continue,
            Err(e) => return Err(format!("poll: {e}")),
        };
        f(&decode_native(ev.bytes, &ev.layout).map_err(|e| format!("decode: {e}"))?);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_quotes_backslashes_and_controls() {
        assert_eq!(json_escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(json_escape("x\ny"), "x\\u000ay");
        assert_eq!(json_escape("plain"), "plain");
    }

    #[test]
    fn envelope_puts_schema_first() {
        let out = json_object("pbio-test/v1", "\"n\":3");
        assert_eq!(out, "{\"schema\":\"pbio-test/v1\",\"n\":3}");
    }

    #[test]
    fn require_reports_the_flag() {
        let mut empty = std::iter::empty::<String>();
        let err = require::<u64>(&mut empty, "--events", "a count").unwrap_err();
        assert!(err.contains("--events"));
        let mut one = vec!["42".to_string()].into_iter();
        let v: u64 = require(&mut one, "--events", "a count").unwrap();
        assert_eq!(v, 42);
    }

    fn parse(args: &[&str]) -> Option<CommonArgs> {
        let args = args.iter().map(|a| a.to_string());
        CommonArgs::parse("test", args, |_, _| Ok(false))
    }

    #[test]
    fn addr_without_a_value_is_rejected() {
        assert!(parse(&["--addr"]).is_none());
    }

    #[test]
    fn addr_and_json_parse_together() {
        let common = parse(&["--addr", "h:1", "--json"]).unwrap();
        assert_eq!(common.addr.as_deref(), Some("h:1"));
        assert!(common.json);
        assert!(!common.smoke);
    }
}
