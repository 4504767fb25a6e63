//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics with the end-to-end numbers each is
//! expected to move. `BENCHMARK.json` is generated from these tables
//! (`ledger manifest`) and a unit test keeps the two from drifting.

use crate::gen::SizeClass;
use crate::json::Json;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WIRE: &str = "wire_roundtrip_mixed";
pub const HOMO: &str = "live_homo_100b";
pub const HETERO: &str = "live_hetero_10k";
pub const DURABLE: &str = "durable_100b";

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: WIRE,
        why: "Figure 5 round trip x86-64<->SPARC in memory, sizes 100b..100Kb mixed, no daemon: only vrisc, core and net::frame work, so a converter or codec change shows here and nowhere else",
    },
    Workload {
        name: HOMO,
        why: "Smallest record through the daemon, zero-copy receive: per-frame cost (syscalls, header, queue node, reactor wakeup) dominates and conversion is zero",
    },
    Workload {
        name: HETERO,
        why: "10 KB records to a big-endian subscriber: byte-proportional cost (CRC, copies, socket buffers) plus one generated conversion per delivery; a per-frame gain should leave it flat",
    },
    Workload {
        name: DURABLE,
        why: "Durable channel: store append, publish ack and log replay beside live delivery in one run; against live_homo_100b it isolates what durability adds",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "events_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.15,
    },
    EndToEnd {
        name: "payload_mb_per_s",
        unit: "MB/s",
        better: Better::Higher,
        bound: 0.15,
    },
    EndToEnd {
        name: "cpu_us_per_event",
        unit: "us",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "lat_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// "`metric` on `workload`": an end-to-end number a layer metric should
/// move.
pub type Move = (&'static str, &'static str);

pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub moves: Vec<Move>,
}

const DAEMON: [&str; 3] = [HOMO, HETERO, DURABLE];

fn on(metrics: &[&'static str], workloads: &[&'static str]) -> Vec<Move> {
    workloads
        .iter()
        .flat_map(|&w| metrics.iter().map(move |&m| (m, w)))
        .collect()
}

/// Every per-layer metric, in printing order.
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let mut v: Vec<PerLayer> = Vec::new();
    let mut add = |name: String, unit, better, moves: Vec<Move>| {
        v.push(PerLayer {
            name,
            unit,
            better,
            moves,
        })
    };
    let throughput = ["events_per_s", "cpu_us_per_event"];
    // Which daemon workloads carry records of this size.
    let daemon_rows = |s: SizeClass| -> Vec<&'static str> {
        match s {
            SizeClass::B100 => vec![HOMO, DURABLE],
            SizeClass::K10 => vec![HETERO],
            _ => vec![],
        }
    };

    for s in SizeClass::ALL {
        let sz = s.label();
        let mut convert = on(&throughput, &[WIRE]);
        if s == SizeClass::K10 {
            convert.extend(on(&throughput, &[HETERO]));
        }
        add(format!("vrisc.run_ns.{sz}"), "ns", Lower, convert.clone());
        add(
            format!("vrisc.prog_len.{sz}"),
            "count",
            Lower,
            convert.clone(),
        );
        add(
            format!("core.writer_write_ns.{sz}"),
            "ns",
            Lower,
            on(&throughput, &[WIRE]),
        );
        add(format!("core.dcg_convert_ns.{sz}"), "ns", Lower, convert);
        add(format!("core.interp_convert_ns.{sz}"), "ns", Lower, vec![]);
        let setup = on(&["setup_s"], &[WIRE, HOMO, HETERO, DURABLE]);
        add(
            format!("core.plan_build_us.{sz}"),
            "us",
            Lower,
            setup.clone(),
        );
        add(format!("core.dcg_compile_us.{sz}"), "us", Lower, setup);
        let mut codec = on(&throughput, &[WIRE]);
        codec.extend(on(&throughput, &daemon_rows(s)));
        add(
            format!("net.frame_encode_ns.{sz}"),
            "ns",
            Lower,
            codec.clone(),
        );
        add(format!("net.frame_decode_ns.{sz}"), "ns", Lower, codec);
    }
    add(
        "core.reader_zero_copy_ns.100b".into(),
        "ns",
        Lower,
        on(&throughput, &[HOMO, DURABLE]),
    );
    add(
        "core.allocs_per_rec".into(),
        "count",
        Lower,
        on(&throughput, &[WIRE]),
    );
    add(
        "core.pool_hit_ratio".into(),
        "ratio",
        Higher,
        on(&throughput, &[WIRE]),
    );
    add(
        "net.crc32_gb_per_s".into(),
        "GB/s",
        Higher,
        on(&throughput, &[HETERO, WIRE]),
    );
    add(
        "net.write_frames16_ns".into(),
        "ns",
        Lower,
        on(&throughput, &[HOMO, DURABLE]),
    );
    add(
        "net.wire_overhead_bytes".into(),
        "bytes",
        Lower,
        on(&["events_per_s"], &[HOMO, DURABLE]),
    );
    for subs in ["1sub", "8sub"] {
        add(
            format!("chan.fanout_publish_ns.{subs}"),
            "ns",
            Lower,
            on(&throughput, &[HOMO]),
        );
    }
    add(
        "store.append_ns_per_event".into(),
        "ns",
        Lower,
        on(&throughput, &[DURABLE]),
    );
    add("store.read_ns_per_event".into(), "ns", Lower, vec![]);
    add("store.disk_bytes_per_event".into(), "bytes", Lower, vec![]);
    add("durable.replay_events_per_s".into(), "1/s", Higher, vec![]);
    add(
        "durable.disk_bytes_per_event".into(),
        "bytes",
        Lower,
        vec![],
    );

    let daemon_throughput = on(&throughput, &DAEMON);
    for (name, unit, better) in [
        ("serv.client_publish_ns", "ns", Lower),
        ("serv.client_poll_ns", "ns", Lower),
        ("serv.writes_per_event", "count", Lower),
        ("serv.frames_per_write", "count", Higher),
        ("serv.allocs_per_event", "count", Lower),
        ("serv.shard_wakeups_per_event", "count", Lower),
        ("serv.shard_cpu_us_per_event", "us", Lower),
        ("serv.store_cpu_us_per_event", "us", Lower),
        ("load.pub_cpu_us_per_event", "us", Lower),
        ("load.sub_cpu_us_per_event", "us", Lower),
    ] {
        add(name.into(), unit, better, daemon_throughput.clone());
    }
    add("serv.replay_cpu_us_per_event".into(), "us", Lower, vec![]);
    add("serv.dropped".into(), "count", Lower, vec![]);
    add(
        "serv.shard_busy_share_paced".into(),
        "ratio",
        Lower,
        on(&["lat_p50_us"], &DAEMON),
    );
    add("paced.lat_p99_us".into(), "us", Lower, vec![]);

    for (name, unit) in [
        ("wire.span_writer_write_ns", "ns"),
        ("wire.span_frame_encode_ns", "ns"),
        ("wire.span_frame_decode_ns", "ns"),
        ("wire.span_reader_on_data_ns", "ns"),
        ("wire.span_glue_ns", "ns"),
    ] {
        add(name.into(), unit, Lower, on(&throughput, &[WIRE]));
    }

    add("ledger.layer_sum_us".into(), "us", Lower, vec![]);
    add("ledger.residual_share".into(), "ratio", Lower, vec![]);
    add("ledger.gen_late_p99_us".into(), "us", Lower, vec![]);
    add("ledger.trace_overhead_share".into(), "ratio", Lower, vec![]);
    add("ledger.speed_factor".into(), "ratio", Lower, vec![]);
    v
}

/// `(name, unit)` of every metric, end-to-end then per-layer.
pub fn units() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|m| (m.name.to_owned(), m.unit))
        .chain(per_layer().into_iter().map(|m| (m.name, m.unit)))
        .collect()
}

/// The layer → end-to-end interaction table as markdown: for each
/// per-layer metric, the end-to-end numbers it is expected to move and on
/// which workloads (the README's table is this output).
pub fn interaction_table() -> String {
    let mut out = String::from(
        "| per-layer metric | unit | better | expected to move |\n|---|---|---|---|\n",
    );
    for m in per_layer() {
        let mut by_workload: Vec<(&str, Vec<&str>)> = Vec::new();
        for (metric, workload) in &m.moves {
            match by_workload.iter_mut().find(|(w, _)| w == workload) {
                Some((_, metrics)) => metrics.push(metric),
                None => by_workload.push((workload, vec![metric])),
            }
        }
        let moves = if by_workload.is_empty() {
            "— (diagnostic)".to_owned()
        } else {
            by_workload
                .iter()
                .map(|(w, ms)| format!("{} on `{w}`", ms.join(", ")))
                .collect::<Vec<_>>()
                .join("; ")
        };
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            moves
        ));
    }
    out
}

/// Measured seconds per driver run.
pub const RUN_SECONDS: u32 = 24;

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "ledger/Cargo.toml",
        "--",
        "run",
    ];
    Json::obj(vec![
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("ledger")])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name.as_str())),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
        END_TO_END.iter().find(|m| m.name == name)
    }

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn tables_meet_the_manifest_limits() {
        let layers = per_layer();
        assert!((1..=128).contains(&layers.len()), "{}", layers.len());
        assert!((2..=8).contains(&WORKLOADS.len()));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(layers.iter().map(|m| m.name.as_str()));
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(
                unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25,
                "{}",
                m.name
            );
        }
        let setup = end_to_end("setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for m in &layers {
            assert!(unit_ok(m.unit), "{}", m.name);
            for (metric, workload) in &m.moves {
                assert!(
                    end_to_end(metric).is_some(),
                    "{} moves unknown {metric}",
                    m.name
                );
                assert!(WORKLOADS.iter().any(|w| w.name == *workload));
            }
        }
        assert!(manifest().pretty().len() < 64 * 1024);
    }

    /// `BENCHMARK.json` at the repo root is this table, byte for byte.
    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        assert_eq!(
            Json::parse(&text).expect("BENCHMARK.json parses"),
            manifest(),
            "regenerate with `ledger manifest > BENCHMARK.json`"
        );
    }
}
