//! Runs one workload under a [`RunPlan`] and turns what its phases
//! measured into named metrics: the end-to-end set for an untraced run,
//! the per-layer set for a traced one.

use std::time::{Duration, Instant};

use crate::calib::{Bracket, Calibrator};
use crate::gen::SizeClass;
use crate::json::Json;
use crate::live::{self, LiveRig, LiveSpec, PhaseCounters};
use crate::metrics;
use crate::pace::MonoClock;
use crate::probes;
use crate::procfs;
use crate::run::{Checks, FloodResult, RunOutput, RunPlan};
use crate::spans::SpanLog;
use crate::stats::{self, LatencySummary};
use crate::wire::{self, WireRig};

/// Phase shares of the measured seconds.
mod share {
    /// Untraced: closed-loop flood, then open-loop paced.
    pub const FLOOD: f64 = 0.5;
    pub const PACED: f64 = 0.5;
    /// Untraced durable run: replay takes its slice from both.
    pub const DURABLE_FLOOD: f64 = 0.4;
    pub const DURABLE_PACED: f64 = 0.4;
    pub const DURABLE_REPLAY: f64 = 0.2;
    /// Traced: a short untraced flood (the overhead baseline), the traced
    /// flood and paced phases, then the standalone probes.
    pub const T_UNTRACED: f64 = 0.15;
    pub const T_FLOOD: f64 = 0.2;
    pub const T_PACED: f64 = 0.2;
    pub const T_PROBES: f64 = 0.4;
}

pub fn run(workload: &str, plan: &RunPlan) -> Result<RunOutput, String> {
    if workload == metrics::WIRE {
        return run_wire(plan);
    }
    match live::SPECS.iter().find(|s| s.name == workload) {
        Some(spec) => run_live(spec, plan),
        None => Err(format!(
            "unknown workload {workload:?}; known: {}",
            metrics::WORKLOADS.map(|w| w.name).join(", ")
        )),
    }
}

/// Set up repeatedly — for about a second, five times at least — each
/// run timed and speed-calibrated; keep the last rig and report the median
/// nominal time.
fn timed_setups<R>(
    plan: &RunPlan,
    calibrator: &Calibrator,
    mut setup: impl FnMut() -> Result<R, String>,
) -> Result<(R, f64), String> {
    let (at_least, at_most) = plan.setups();
    let mut times = Vec::new();
    let mut rig = None;
    let start = Instant::now();
    while times.len() < at_least
        || (times.len() < at_most && start.elapsed() < Duration::from_secs(1))
    {
        // Tear the previous rig down outside the timed region.
        drop(rig.take());
        let mut bracket = Bracket::new(calibrator);
        let (built, timed) = bracket.time(&mut setup);
        rig = Some(built?);
        times.push(timed.nominal_seconds());
    }
    Ok((rig.expect("at least one set-up ran"), stats::median(&times)))
}

fn p99(samples: &mut [u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    stats::percentile_sorted(samples, 0.99) as f64
}

/// The paced phase's validity rule: a run whose backlog outgrew the window
/// offered more than the system sustains, so its latencies describe a
/// growing queue, not the system. Such a run is failed, not reported.
///
/// Generator lateness is reported (`ledger.gen_late_p99_us`) but fails
/// nothing: latency is taken from each event's due time, so lateness is
/// already inside it and can only make a result look worse, never better.
fn check_paced(checks: &mut Checks, latency: Option<&LatencySummary>, backlog: u64, window: u64) {
    checks.require(backlog <= window, || {
        format!("paced phase ended with a backlog of {backlog} events (window {window})")
    });
    checks.require(latency.is_some(), || {
        "paced phase recorded no latency".into()
    });
}

fn put_end_to_end(
    out: &mut RunOutput,
    setup_s: f64,
    flood: &FloodResult,
    latency: Option<&LatencySummary>,
) {
    out.put("setup_s", setup_s);
    out.put("events_per_s", flood.events_per_s());
    out.put("payload_mb_per_s", flood.payload_mb_per_s());
    out.put("cpu_us_per_event", flood.cpu_us_per_event());
    out.put("lat_p50_us", latency.map_or(f64::NAN, |l| l.p50_ns / 1e3));
    out.put("peak_rss_mb", procfs::peak_rss_mb());
    if let Some((q1, q3)) = stats::quartiles(&flood.rep_rates) {
        out.note(
            "events_per_s_reps",
            format!("n={} q1={q1:.0} q3={q3:.0}", flood.rep_rates.len()),
        );
    }
    out.note(
        "uncalibrated",
        format!(
            "{:.0} events per wall-clock second at speed factor {:.3}",
            flood.raw_events_per_s(),
            flood.speed_factor()
        ),
    );
    if let Some(l) = latency {
        out.note("lat_p99_us", format!("{:.1}", l.p99_ns / 1e3));
        out.note(
            "latency_samples",
            format!(
                "{} in {} segments, segment medians {:.1}..{:.1} us",
                l.samples,
                l.segments,
                l.p50_range_ns.0 / 1e3,
                l.p50_range_ns.1 / 1e3
            ),
        );
    }
}

/// Start a traced output: every per-layer metric present, at zero — a
/// layer that does no work on a workload reads 0 there.
fn per_layer_zeroed(out: &mut RunOutput) {
    for m in metrics::per_layer() {
        out.put(&m.name, 0.0);
    }
}

fn set(out: &mut RunOutput, name: &str, value: f64) {
    match out.metrics.iter_mut().find(|(n, _)| n == name) {
        Some(slot) => slot.1 = value,
        None => unreachable!("{name} is not a per-layer metric"),
    }
}

fn spans_json(logs: &[SpanLog]) -> Json {
    Json::Arr(logs.iter().map(SpanLog::to_json).collect())
}

fn run_probes(
    plan: &RunPlan,
    calibrator: &Calibrator,
    out: &mut RunOutput,
) -> Result<Vec<(String, f64)>, String> {
    let budget = plan.budget(share::T_PROBES) / probes::TIMED_PROBES;
    let values = probes::run_all(plan.seed, calibrator, budget, &plan.scratch, plan.smoke)?;
    for (name, value) in &values {
        set(out, name, *value);
    }
    Ok(values)
}

fn run_wire(plan: &RunPlan) -> Result<RunOutput, String> {
    let mut out = RunOutput::default();
    let calibrator = Calibrator::new();
    let (mut rig, setup_s) = timed_setups(plan, &calibrator, || WireRig::setup(plan.seed))?;
    out.note("input_hash", format!("{:016x}", rig.input_hash));
    let mut checks = Checks::default();

    if !plan.trace {
        let flood = rig.flood(plan, share::FLOOD, &calibrator, &mut checks, None);
        let (latency, _) = rig.paced(plan, share::PACED, &calibrator, &mut checks);
        check_paced(&mut checks, latency.as_ref(), 0, 0);
        put_end_to_end(&mut out, setup_s, &flood, latency.as_ref());
        out.checks = checks;
        return Ok(out);
    }

    per_layer_zeroed(&mut out);
    let untraced = rig.flood(plan, share::T_UNTRACED, &calibrator, &mut checks, None);
    let clock = MonoClock::new();
    let mut log = SpanLog::new(&wire::SPAN_NAMES, 1 << 20);
    let traced = rig.flood(
        plan,
        share::T_FLOOD,
        &calibrator,
        &mut checks,
        Some((&clock, &mut log)),
    );
    let flood_spans = log.summary();
    let (latency, mut late) = rig.paced(plan, share::T_PACED, &calibrator, &mut checks);
    check_paced(&mut checks, latency.as_ref(), 0, 0);
    set(
        &mut out,
        "paced.lat_p99_us",
        latency.map_or(f64::NAN, |l| l.p99_ns / 1e3),
    );

    // Mean nominal ns per round trip over the mix (two legs each).
    let factor = traced.speed_factor();
    let per_event = |name: &str| {
        flood_spans
            .iter()
            .find(|s| s.name == name)
            .map_or(0.0, |s| {
                s.total_ns as f64 / factor / traced.events.max(1) as f64
            })
    };
    for (metric, span) in [
        ("wire.span_writer_write_ns", "core.writer_write"),
        ("wire.span_frame_encode_ns", "net.frame_encode"),
        ("wire.span_frame_decode_ns", "net.frame_decode"),
        ("wire.span_reader_on_data_ns", "core.reader_on_data"),
    ] {
        set(&mut out, metric, per_event(span));
    }
    let glue = flood_spans
        .iter()
        .find(|s| s.name == "wire.roundtrip")
        .map_or(0.0, |s| s.self_mean_ns() / factor);
    set(&mut out, "wire.span_glue_ns", glue);
    set(
        &mut out,
        "net.wire_overhead_bytes",
        rig.overhead_bytes() as f64,
    );
    set(&mut out, "ledger.gen_late_p99_us", p99(&mut late) / 1e3);
    set(
        &mut out,
        "ledger.trace_overhead_share",
        1.0 - traced.events_per_s() / untraced.events_per_s(),
    );
    set(&mut out, "ledger.speed_factor", untraced.speed_factor());

    let counts = rig.mix_counts();
    drop(rig);
    let probes = run_probes(plan, &calibrator, &mut out)?;
    // Figure 1 for our own stack: what the probes say one mean round trip
    // should cost, against what the process actually spent on it.
    let total: u64 = counts.iter().sum();
    let layer_sum_ns: f64 = SizeClass::ALL
        .iter()
        .map(|s| {
            let per_leg: f64 = [
                "core.writer_write_ns",
                "net.frame_encode_ns",
                "net.frame_decode_ns",
                "core.dcg_convert_ns",
            ]
            .iter()
            .map(|layer| probes::value(&probes, &format!("{layer}.{}", s.label())))
            .sum();
            2.0 * per_leg * counts[s.index()] as f64 / total as f64
        })
        .sum();
    let cpu_us = untraced.cpu_us_per_event();
    set(&mut out, "ledger.layer_sum_us", layer_sum_ns / 1e3);
    set(
        &mut out,
        "ledger.residual_share",
        1.0 - layer_sum_ns / 1e3 / cpu_us,
    );
    out.note("cpu_us_per_event_untraced", format!("{cpu_us:.4}"));
    out.spans = Some(spans_json(&[log]));
    out.checks = checks;
    Ok(out)
}

/// CPU seconds over a phase, as nominal µs per event.
fn per_event_us(seconds: f64, factor: f64, events: u64) -> f64 {
    seconds * 1e6 / factor / events.max(1) as f64
}

fn put_phase_counters(out: &mut RunOutput, c: &PhaseCounters, factor: f64, record_bytes: u64) {
    let events = c.events.max(1) as f64;
    set(out, "serv.writes_per_event", c.writes as f64 / events);
    set(
        out,
        "serv.frames_per_write",
        c.events_out as f64 / c.writes.max(1) as f64,
    );
    set(out, "serv.allocs_per_event", c.allocs as f64 / events);
    set(
        out,
        "serv.shard_wakeups_per_event",
        c.wakeups as f64 / events,
    );
    for (metric, cpu_s) in [
        ("serv.shard_cpu_us_per_event", c.shard_cpu_s),
        ("serv.store_cpu_us_per_event", c.store_cpu_s),
        ("load.pub_cpu_us_per_event", c.pub_cpu_s),
        ("load.sub_cpu_us_per_event", c.sub_cpu_s),
    ] {
        set(out, metric, per_event_us(cpu_s, factor, c.events));
    }
    set(
        out,
        "net.wire_overhead_bytes",
        c.bytes_out as f64 / c.events_out.max(1) as f64 - record_bytes as f64,
    );
}

fn run_live(spec: &'static LiveSpec, plan: &RunPlan) -> Result<RunOutput, String> {
    let mut out = RunOutput::default();
    let calibrator = Calibrator::new();
    let (mut rig, setup_s) = timed_setups(plan, &calibrator, || {
        LiveRig::setup(spec, plan.seed, &plan.scratch)
    })?;
    out.note("input_hash", format!("{:016x}", rig.input_hash));
    let mut checks = Checks::default();

    if !plan.trace {
        let (flood_share, paced_share) = if spec.durable {
            (share::DURABLE_FLOOD, share::DURABLE_PACED)
        } else {
            (share::FLOOD, share::PACED)
        };
        let flood = rig.flood(plan, flood_share, &calibrator, &mut checks, None)?;
        let paced = rig.paced(plan, paced_share, &calibrator, &mut checks)?;
        check_paced(
            &mut checks,
            paced.latency.as_ref(),
            paced.backlog,
            spec.window,
        );
        if spec.durable {
            let rates = rig.replay(plan, share::DURABLE_REPLAY, &calibrator, &mut checks)?;
            out.note(
                "replay_events_per_s",
                format!("{:.0} (n={})", stats::median(&rates), rates.len()),
            );
        }
        put_end_to_end(&mut out, setup_s, &flood, paced.latency.as_ref());
        rig.teardown(&mut checks);
        out.checks = checks;
        return Ok(out);
    }

    per_layer_zeroed(&mut out);
    let untraced = rig.flood(plan, share::T_UNTRACED, &calibrator, &mut checks, None)?;
    let mut logs = Vec::new();
    let probe = rig.probe();
    let traced = rig.flood(
        plan,
        share::T_FLOOD,
        &calibrator,
        &mut checks,
        Some(&mut logs),
    )?;
    let flood_counters = rig.finish(probe, traced.events);
    let factor = traced.speed_factor();
    put_phase_counters(&mut out, &flood_counters, factor, rig.record_bytes());
    for (metric, span) in [
        ("serv.client_publish_ns", "serv.client_publish"),
        ("serv.client_poll_ns", "serv.client_poll"),
    ] {
        let (count, total) = logs
            .iter()
            .filter_map(|l| l.get(span))
            .fold((0u64, 0u64), |(c, t), s| (c + s.count, t + s.total_ns));
        set(
            &mut out,
            metric,
            total as f64 / factor / count.max(1) as f64,
        );
    }
    set(
        &mut out,
        "ledger.trace_overhead_share",
        1.0 - traced.events_per_s() / untraced.events_per_s(),
    );
    set(&mut out, "ledger.speed_factor", untraced.speed_factor());

    let probe = rig.probe();
    let mut paced = rig.paced(plan, share::T_PACED, &calibrator, &mut checks)?;
    let paced_counters = rig.finish(probe, paced.events);
    let late_p99_ns = p99(&mut paced.late_ns);
    check_paced(
        &mut checks,
        paced.latency.as_ref(),
        paced.backlog,
        spec.window,
    );
    set(
        &mut out,
        "paced.lat_p99_us",
        paced.latency.map_or(f64::NAN, |l| l.p99_ns / 1e3),
    );
    set(&mut out, "ledger.gen_late_p99_us", late_p99_ns / 1e3);
    set(
        &mut out,
        "serv.shard_busy_share_paced",
        paced_counters.shard_cpu_s / paced_counters.wall_s,
    );
    let mut dropped = flood_counters.dropped + paced_counters.dropped;

    if spec.durable {
        let probe = rig.probe();
        let rates = rig.replay(plan, 0.0, &calibrator, &mut checks)?;
        let replay_counters = rig.finish(probe, 0);
        dropped += replay_counters.dropped;
        let replayed = replay_counters.events_out;
        set(
            &mut out,
            "durable.replay_events_per_s",
            stats::median(&rates),
        );
        set(
            &mut out,
            "serv.replay_cpu_us_per_event",
            per_event_us(replay_counters.transient_cpu_s, factor, replayed),
        );
        if let Some(bytes) = rig.disk_bytes_per_event() {
            set(&mut out, "durable.disk_bytes_per_event", bytes);
        }
    }
    set(&mut out, "serv.dropped", dropped as f64);
    rig.teardown(&mut checks);

    let probes = run_probes(plan, &calibrator, &mut out)?;
    let sz = spec.size.label();
    let at = |layer: &str| probes::value(&probes, &format!("{layer}.{sz}"));
    // Publisher encode + daemon ingress decode + fan-out + daemon egress
    // encode + subscriber decode + the subscriber's conversion (or the
    // zero-copy view) + the store append on a durable channel.
    let mut layer_sum_ns = 2.0 * at("net.frame_encode_ns")
        + 2.0 * at("net.frame_decode_ns")
        + probes::value(&probes, "chan.fanout_publish_ns.1sub");
    layer_sum_ns += if spec.sub_profile.name == "x86-64" {
        probes::value(&probes, "core.reader_zero_copy_ns.100b")
    } else {
        at("core.dcg_convert_ns")
    };
    if spec.durable {
        layer_sum_ns += probes::value(&probes, "store.append_ns_per_event");
    }
    let cpu_us = untraced.cpu_us_per_event();
    set(&mut out, "ledger.layer_sum_us", layer_sum_ns / 1e3);
    set(
        &mut out,
        "ledger.residual_share",
        1.0 - layer_sum_ns / 1e3 / cpu_us,
    );
    out.note("cpu_us_per_event_untraced", format!("{cpu_us:.4}"));
    out.spans = Some(spans_json(&logs));
    out.checks = checks;
    Ok(out)
}
