//! Shared command-line plumbing for `pbio-ctl`, the observability tool.
//!
//! `pbio-ctl <stats|trace|top|dump|replay>` picks a [`subcommand`];
//! every subcommand then speaks the same dialect: `--addr HOST:PORT` to
//! attach to a live daemon, `--json` for machine-readable output,
//! `--smoke` for a CI self-test, plus a handful of subcommand-specific
//! flags. This module holds the one subcommand picker, the one flag
//! loop, the JSON string escaper and envelope, and the one
//! reserved-channel read loop of the channel monitors (`stats`,
//! `trace`).
//!
//! Every subcommand's `--json` output is a **single JSON object whose
//! first field is `"schema"`** (e.g. `"pbio-top/v1"`) — a consumer can
//! dispatch on the shape before parsing the rest, and a schema bump is
//! an explicit, greppable event.

use std::fmt::Display;
use std::str::FromStr;
use std::time::{Duration, Instant};

use pbio_serv::ServClient;
use pbio_types::arch::ArchProfile;
use pbio_types::value::{decode_native, RecordValue};

/// The argument stream a subcommand's flag callback pulls values from.
pub type Args<'a> = &'a mut dyn Iterator<Item = String>;

/// Take the subcommand off the front of `args` and look it up in
/// `table`. A missing or unknown one prints the message and `usage` to
/// stderr and returns `None`.
pub fn subcommand<'t, T>(
    args: &mut impl Iterator<Item = String>,
    table: &'t [(&str, T)],
    usage: &str,
) -> Option<&'t T> {
    let Some(name) = args.next() else {
        return usage_error("missing subcommand", usage);
    };
    match table.iter().find(|(n, _)| *n == name) {
        Some((_, entry)) => Some(entry),
        None => usage_error(&format!("unknown subcommand {name:?}"), usage),
    }
}

/// Print `msg` and `usage` to stderr; `None`, for a parser to return.
fn usage_error<T>(msg: &str, usage: &str) -> Option<T> {
    eprintln!("{msg}");
    eprintln!("usage: {usage}");
    None
}

/// The flags every subcommand shares.
#[derive(Debug, Default)]
pub struct CommonArgs {
    /// `--addr HOST:PORT`: attach to a live daemon instead of running
    /// the subcommand's self-contained demo.
    pub addr: Option<String>,
    /// `--json`: emit one schema-bearing JSON object instead of tables.
    pub json: bool,
    /// `--smoke`: short demo run plus CI assertions.
    pub smoke: bool,
}

impl CommonArgs {
    /// Parse `args` (the arguments after the subcommand), handling the
    /// common flags here and offering everything else to
    /// `extra(flag, args)` — which returns `Ok(true)` if it consumed the
    /// flag (pulling any value it needs off `args`), `Ok(false)` if the
    /// flag is unknown, or `Err` for a malformed value. Unknown flags,
    /// missing values, `Err`s and `--smoke` together with `--addr` (the
    /// smoke assertions describe the demo, not a live daemon) print the
    /// message and `usage` to stderr and return `None`, so `main` can
    /// `return ExitCode::FAILURE`.
    pub fn parse<I, F>(usage: &str, args: I, mut extra: F) -> Option<CommonArgs>
    where
        I: IntoIterator<Item = String>,
        F: FnMut(&str, Args<'_>) -> Result<bool, String>,
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
            return usage_error(&msg, usage);
        }
        if common.smoke && common.addr.is_some() {
            return usage_error("--smoke runs the self-contained demo; drop --addr", usage);
        }
        Some(common)
    }
}

/// Pull and parse the value of `flag` from the argument stream;
/// `Err(message)` (for the `extra` callback) when it is missing or
/// unparseable.
pub fn require<T: FromStr>(args: Args<'_>, flag: &str, what: &str) -> Result<T, String> {
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

/// A JSON array of `f(item)` for every item.
pub fn json_array<T>(items: impl IntoIterator<Item = T>, f: impl FnMut(T) -> String) -> String {
    format!(
        "[{}]",
        items.into_iter().map(f).collect::<Vec<_>>().join(",")
    )
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

    const TABLE: [(&str, u8); 2] = [("top", 1), ("replay", 2)];

    fn subcommand(args: &[&str]) -> Option<u8> {
        let mut args = args.iter().map(|a| a.to_string());
        super::subcommand(&mut args, &TABLE, "test").copied()
    }

    /// `--smoke` asserts what the demo does, so it cannot attach to a
    /// live daemon; and a subcommand must come first and be known.
    #[test]
    fn usage_errors_return_none() {
        assert!(parse(&["--smoke", "--addr", "h:1"]).is_none());
        assert!(parse(&["--addr", "h:1", "--json", "--smoke"]).is_none());
        assert!(parse(&["--smoke", "--json"]).unwrap().smoke);
        assert_eq!(subcommand(&["fanout"]), None);
        assert_eq!(subcommand(&["--smoke"]), None);
        assert_eq!(subcommand(&[]), None);
    }

    #[test]
    fn subcommand_leaves_its_flags_for_the_flag_loop() {
        let mut args = ["top", "--json"].iter().map(|a| a.to_string());
        assert_eq!(super::subcommand(&mut args, &TABLE, "test"), Some(&1));
        assert_eq!(args.collect::<Vec<_>>(), ["--json"]);
        assert_eq!(subcommand(&["replay"]), Some(2));
    }

    #[test]
    fn json_array_joins_items() {
        assert_eq!(json_array([1, 2], |n| n.to_string()), "[1,2]");
        assert_eq!(json_array(Vec::<u8>::new(), |n| n.to_string()), "[]");
    }
}
