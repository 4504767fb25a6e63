//! The three daemon workloads: one x86-64 publisher → in-process daemon →
//! one subscriber over loopback TCP. Two load-generator threads (this one
//! publishes, one spawned thread subscribes), two client connections, one
//! reactor shard; `$stats`, tracing and the tap are off.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pbio_net::affinity::pin_current_thread;
use pbio_obs::Counter;
use pbio_serv::{ServClient, ServConfig, ServDaemon, ServStats, StoreConfig, TraceConfig};
use pbio_types::arch::ArchProfile;

use crate::calib::{Bracket, Calibrator};
use crate::gen::{self, InputHash, SizeClass, StreamInputs};
use crate::pace::{self, Clock, MonoClock, Schedule};
use crate::procfs::CpuSnapshot;
use crate::run::{Checks, FloodResult, RunPlan, CHECK_EVERY, PHASE_DEADLINE};
use crate::spans::SpanLog;
use crate::stats::{LatencySummary, SegmentLatency};

/// The constants that define one daemon workload. Fixed here, never
/// derived at run time, so two runs always offer the same load.
#[derive(Debug)]
pub struct LiveSpec {
    pub name: &'static str,
    pub size: SizeClass,
    /// Subscriber architecture: the publisher's own (zero-copy receive) or
    /// a big-endian ILP32 one (a generated conversion per delivery).
    pub sub_profile: &'static ArchProfile,
    /// Flood phase: events the publisher may run ahead of completion.
    pub window: u64,
    /// Flood phase: events per repetition (50-100 ms of work).
    pub rep_events: u64,
    /// Paced phase: open-loop rate, events per second.
    pub paced_rate: u64,
    /// Durable channel: an event is complete only when delivered *and*
    /// acked as flushed to the segment log.
    pub durable: bool,
}

pub const LIVE_HOMO_100B: LiveSpec = LiveSpec {
    name: "live_homo_100b",
    size: SizeClass::B100,
    sub_profile: &ArchProfile::X86_64,
    window: 4096,
    rep_events: 8_192,
    paced_rate: 20_000,
    durable: false,
};

pub const LIVE_HETERO_10K: LiveSpec = LiveSpec {
    name: "live_hetero_10k",
    size: SizeClass::K10,
    sub_profile: &ArchProfile::SPARC_V8,
    window: 256,
    rep_events: 128,
    paced_rate: 500,
    durable: false,
};

pub const DURABLE_100B: LiveSpec = LiveSpec {
    name: "durable_100b",
    size: SizeClass::B100,
    sub_profile: &ArchProfile::X86_64,
    window: 4096,
    rep_events: 4_096,
    paced_rate: 5_000,
    durable: true,
};

pub const SPECS: [&LiveSpec; 3] = [&LIVE_HOMO_100B, &LIVE_HETERO_10K, &DURABLE_100B];

const CHANNEL: &str = "ledger";

/// Thread placement is fixed, because on two cores it decides everything:
/// left to the scheduler, the same binary ran at 63k, 95k or 133k events/s
/// and 9 or 21 CPU-µs per event depending on which two of the three busy
/// threads happened to share a core. The daemon pins shard 0 to CPU 0
/// (`ServConfig::pin_shards`); the subscriber joins it there, so the
/// shard's hand-off to the subscriber never crosses cores; the publisher
/// (the main thread, pinned by `main`) has CPU 1 to itself.
const SHARD_CPU: usize = 0;
pub const MAIN_CPU: usize = 1;

/// Daemon outbound-queue bound: twice the largest window, so the
/// drop-oldest policy never has cause to drop.
const QUEUE_CAPACITY: usize = 8192;

/// Distinct records the publisher cycles through (`seq % TEMPLATES`).
const TEMPLATES: u64 = 8;

/// Events published (and awaited) before the first timed operation: a
/// window's worth, capped.
const WARMUP_EVENTS: u64 = 1024;

/// A paced segment's schedule starts this long after the subscriber is
/// told of it.
const PACED_LEAD_NS: u64 = 500_000;

/// Events a replay drains: the tail of the log, a fixed count so every
/// replay does the same work however long the earlier phases ran.
const REPLAY_EVENTS: u64 = 200_000;

pub const SPAN_NAMES: [&str; 2] = ["serv.client_publish", "serv.client_poll"];
const SP_PUBLISH: u16 = 0;
const SP_POLL: u16 = 1;
const SPAN_CAP: usize = 400_000;

/// Thread names as `/proc` shows them (15 bytes at most), matched by
/// prefix. "ledger" is the main thread, which publishes.
const T_MAIN: &str = "ledger";
const T_SUB: &str = "sub-ledger";
const T_SHARD: &str = "pbio-serv-shard";
const T_STORE: &str = "pbio-serv-store";
const T_ACCEPT: &str = "pbio-serv-accep";

struct Shared {
    /// Every event with a seq below this has been received and checked.
    received: AtomicU64,
    stop: AtomicBool,
}

enum SubCmd {
    /// Receive and check every event up to (not including) `upto`.
    Expect {
        upto: u64,
        /// Paced phase: the schedule and the seq of its event 0.
        paced: Option<(Schedule, u64)>,
        trace: bool,
    },
    /// Drop the live subscription; drain the log from offset `from` to its
    /// head at `upto` through a fresh `subscribe_from` client.
    Replay {
        from: u64,
        upto: u64,
    },
    Quit,
}

#[derive(Default)]
struct SubReport {
    checks: Checks,
    /// Paced segment: due time to decoded record in hand, ns, per event.
    latencies_ns: Vec<u64>,
    spans: Option<SpanLog>,
    replay_s: f64,
}

/// Counter deltas and thread CPU over one phase.
#[derive(Debug, Default, Clone)]
pub struct PhaseCounters {
    pub events: u64,
    pub wall_s: f64,
    pub events_out: u64,
    pub bytes_out: u64,
    pub writes: u64,
    pub dropped: u64,
    pub wakeups: u64,
    pub allocs: u64,
    pub pub_cpu_s: f64,
    pub sub_cpu_s: f64,
    pub shard_cpu_s: f64,
    pub store_cpu_s: f64,
    /// CPU of threads that came and went inside the phase (replays).
    pub transient_cpu_s: f64,
}

/// Brackets a phase: [`LiveRig::probe`] at the start,
/// [`LiveRig::finish`] at the end.
pub struct PhaseProbe {
    stats: ServStats,
    wakeups: u64,
    allocs: u64,
    cpu: CpuSnapshot,
    start: Instant,
}

/// Keeps the shard's CPU from halting during a paced segment.
///
/// At paced rates both vCPUs idle between events, and on a VM an idle
/// vCPU is descheduled by the host: every event then pays the host's
/// wake-up latency on its way to the shard — 20-100 µs that vary with the
/// host's load, not with this repo's code (`live_hetero_10k`'s median
/// latency spread 21 % over ten runs; 7 % once this was in). So while a
/// segment is open a helper thread on the shard's CPU does nothing but
/// `sched_yield`: the vCPU stays scheduled, and because every yield is a
/// scheduling point the shard and the subscriber get the CPU the moment
/// they are runnable. It calls nothing in the system under test, and is
/// parked outside paced segments (flood repetitions, calibrations).
struct KeepAwake {
    on: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl KeepAwake {
    fn start() -> std::io::Result<KeepAwake> {
        let (on, stop) = (
            Arc::new(AtomicBool::new(false)),
            Arc::new(AtomicBool::new(false)),
        );
        let thread = {
            let (on, stop) = (on.clone(), stop.clone());
            std::thread::Builder::new()
                .name("keep-awake".into())
                .spawn(move || {
                    let _ = pin_current_thread(SHARD_CPU);
                    // Relaxed: both flags are plain signals, they publish
                    // no other data.
                    while !stop.load(Ordering::Relaxed) {
                        if on.load(Ordering::Relaxed) {
                            std::thread::yield_now();
                        } else {
                            std::thread::park_timeout(Duration::from_millis(5));
                        }
                    }
                })?
        };
        Ok(KeepAwake {
            on,
            stop,
            thread: Some(thread),
        })
    }

    fn set(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
        if let (true, Some(t)) = (on, &self.thread) {
            t.thread().unpark();
        }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            t.thread().unpark();
            let _ = t.join();
        }
    }
}

/// What the paced phase reports.
pub struct PacedResult {
    pub latency: Option<LatencySummary>,
    /// How late each send started, ns.
    pub late_ns: Vec<u64>,
    /// Most events published but not yet received at the end of any
    /// segment's sending.
    pub backlog: u64,
    pub events: u64,
}

/// Everything set up and warm: the state `setup_s` pays for.
pub struct LiveRig {
    spec: &'static LiveSpec,
    daemon: Option<ServDaemon>,
    publisher: Option<ServClient>,
    chan: u32,
    fmt: u32,
    inputs: StreamInputs,
    seq: u64,
    shared: Arc<Shared>,
    cmd: Sender<SubCmd>,
    reports: Receiver<SubReport>,
    sub_thread: Option<JoinHandle<()>>,
    store_dir: Option<PathBuf>,
    stats0: ServStats,
    wakeups: Arc<Counter>,
    clock: MonoClock,
    /// Deliveries the daemon owes beyond one per published event.
    replayed: u64,
    pub input_hash: u64,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

impl LiveRig {
    /// Generate inputs, bind the daemon, connect and subscribe the
    /// subscriber, connect the publisher, register channel and format, and
    /// push a warm-up burst through (format announcement crosses, the
    /// subscriber's conversion compiles, TCP windows open).
    pub fn setup(spec: &'static LiveSpec, seed: u64, scratch: &Path) -> Result<LiveRig, String> {
        let mut rng = gen::rng_for(seed);
        let schema = gen::schema(spec.size);
        let inputs = StreamInputs::generate(
            &mut rng,
            &schema,
            &schema,
            &ArchProfile::X86_64,
            spec.sub_profile,
            TEMPLATES as usize,
        );
        let mut hash = InputHash::new();
        hash.feed_stream(&inputs);

        let store_dir = spec.durable.then(|| {
            static NEXT: AtomicU64 = AtomicU64::new(0);
            scratch.join(format!("store-{}", NEXT.fetch_add(1, Ordering::Relaxed)))
        });
        if let Some(dir) = &store_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        let daemon = ServDaemon::bind_with(
            "127.0.0.1:0",
            ServConfig {
                queue_capacity: QUEUE_CAPACITY,
                shards: 1,
                stats_interval: None,
                trace: TraceConfig {
                    sample_mod: 0,
                    publish_interval: None,
                    sink_capacity: 16,
                },
                durability: store_dir.clone().map(StoreConfig::new),
                pin_shards: true,
                ..ServConfig::default()
            },
        )
        .map_err(err)?;
        let addr = daemon.local_addr();
        let wakeups = daemon
            .registry()
            .counter_labeled("serv_shard_wakeups", "shard", "0");

        let shared = Arc::new(Shared {
            received: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        });
        let clock = MonoClock::new();
        let (cmd, cmds) = channel();
        let (report_tx, reports) = channel();
        let (ready_tx, ready) = channel::<Result<(), String>>();
        let sub_thread = {
            let (inputs, shared) = (inputs.clone(), shared.clone());
            std::thread::Builder::new()
                .name(T_SUB.into())
                .spawn(move || {
                    // Best effort, like the daemon's own pinning.
                    let _ = pin_current_thread(SHARD_CPU);
                    let connect = || -> Result<ServClient, String> {
                        let mut c = ServClient::connect(addr, spec.sub_profile).map_err(err)?;
                        let chan = c.open_channel(CHANNEL).map_err(err)?;
                        c.subscribe(chan, &inputs.schema, None).map_err(err)?;
                        Ok(c)
                    };
                    match connect() {
                        Ok(client) => {
                            let _ = ready_tx.send(Ok(()));
                            subscriber_loop(
                                client, addr, &inputs, spec, &shared, clock, cmds, report_tx,
                            );
                        }
                        Err(e) => {
                            let _ = ready_tx.send(Err(e));
                        }
                    }
                })
                .map_err(err)?
        };

        let mut publisher = ServClient::connect(addr, &ArchProfile::X86_64).map_err(err)?;
        let chan = if spec.durable {
            publisher.open_channel_durable(CHANNEL)
        } else {
            publisher.open_channel(CHANNEL)
        }
        .map_err(err)?;
        let fmt = publisher.register_format(&schema).map_err(err)?;
        ready
            .recv_timeout(PHASE_DEADLINE)
            .map_err(|_| "subscriber never became ready".to_owned())??;

        let stats0 = daemon.stats();
        let mut rig = LiveRig {
            spec,
            daemon: Some(daemon),
            publisher: Some(publisher),
            chan,
            fmt,
            inputs,
            seq: 0,
            shared,
            cmd,
            reports,
            sub_thread: Some(sub_thread),
            store_dir,
            stats0,
            wakeups,
            clock,
            replayed: 0,
            input_hash: hash.finish(),
        };
        let mut warm = Checks::default();
        rig.flood_rep(WARMUP_EVENTS.min(spec.window), &mut warm, None)?;
        if warm.failed > 0 {
            return Err(format!("warm-up failed its checks: {:?}", warm.notes));
        }
        Ok(rig)
    }

    /// Native bytes of one published record.
    pub fn record_bytes(&self) -> u64 {
        self.inputs.src.size() as u64
    }

    fn publisher(&self) -> &ServClient {
        self.publisher
            .as_ref()
            .expect("publisher lives until teardown")
    }

    fn daemon_stats(&self) -> ServStats {
        self.daemon
            .as_ref()
            .expect("daemon runs until teardown")
            .stats()
    }

    pub fn probe(&self) -> PhaseProbe {
        PhaseProbe {
            stats: self.daemon_stats(),
            wakeups: self.wakeups.get(),
            allocs: crate::alloc::allocations(),
            cpu: CpuSnapshot::take(),
            start: Instant::now(),
        }
    }

    pub fn finish(&self, p: PhaseProbe, events: u64) -> PhaseCounters {
        let cpu = CpuSnapshot::take();
        let stats = self.daemon_stats();
        PhaseCounters {
            events,
            wall_s: p.start.elapsed().as_secs_f64(),
            events_out: stats.events_out - p.stats.events_out,
            bytes_out: stats.bytes_out - p.stats.bytes_out,
            writes: stats.writes - p.stats.writes,
            dropped: stats.dropped - p.stats.dropped,
            wakeups: self.wakeups.get() - p.wakeups,
            allocs: crate::alloc::allocations() - p.allocs,
            pub_cpu_s: cpu.threads_since(&p.cpu, T_MAIN),
            sub_cpu_s: cpu.threads_since(&p.cpu, T_SUB),
            shard_cpu_s: cpu.threads_since(&p.cpu, T_SHARD),
            store_cpu_s: cpu.threads_since(&p.cpu, T_STORE),
            transient_cpu_s: cpu
                .unnamed_since(&p.cpu, &[T_MAIN, T_SUB, T_SHARD, T_STORE, T_ACCEPT]),
        }
    }

    /// Events completed so far, as a seq bound: received by the
    /// subscriber and, on a durable channel, acked as on disk.
    fn completed(&self) -> u64 {
        let received = self.shared.received.load(Ordering::Acquire);
        if !self.spec.durable {
            return received;
        }
        // The log is fresh, so offsets equal seqs.
        let acked = self
            .publisher()
            .last_durable_offset(self.chan)
            .map_or(0, |o| o + 1);
        received.min(acked)
    }

    /// Give the pipeline time to move. On a durable channel this is also
    /// where publish acks are drained: `poll` is the only call that reads
    /// the publisher's socket.
    fn wait_a_little(&mut self) -> Result<(), String> {
        if self.spec.durable {
            let publisher = self
                .publisher
                .as_mut()
                .expect("publisher lives until teardown");
            match publisher.poll(Duration::from_millis(1)).map_err(err)? {
                None => Ok(()),
                Some(_) => Err("publisher received an event it never subscribed to".into()),
            }
        } else {
            std::thread::sleep(Duration::from_micros(100));
            Ok(())
        }
    }

    #[inline]
    fn publish_next(&mut self, trace: &mut Option<&mut SpanLog>) -> Result<(), String> {
        let seq = self.seq;
        let template = &mut self.inputs.templates[(seq % TEMPLATES) as usize].native;
        self.inputs.src_seq.put(template, seq as u32);
        let publisher = self
            .publisher
            .as_mut()
            .expect("publisher lives until teardown");
        match trace {
            Some(log) => {
                let t0 = self.clock.now_ns();
                publisher
                    .publish(self.chan, self.fmt, template)
                    .map_err(err)?;
                log.leaf(SP_PUBLISH, seq, t0, self.clock.now_ns());
            }
            None => publisher
                .publish(self.chan, self.fmt, template)
                .map_err(err)?,
        }
        self.seq = seq + 1;
        Ok(())
    }

    /// Wait until everything published is complete, then collect the
    /// subscriber's report.
    fn drain(&mut self, checks: &mut Checks) -> Result<SubReport, String> {
        let deadline = Instant::now() + PHASE_DEADLINE;
        while self.completed() < self.seq {
            if Instant::now() > deadline {
                self.shared.stop.store(true, Ordering::Release);
                let missing = self.seq - self.completed();
                checks.fail(missing, || {
                    format!("{missing} events neither delivered nor acked by the deadline")
                });
                break;
            }
            self.wait_a_little()?;
        }
        let mut report = self
            .reports
            .recv_timeout(PHASE_DEADLINE)
            .map_err(|_| "subscriber thread stopped reporting".to_owned())?;
        checks.merge(std::mem::take(&mut report.checks));
        Ok(report)
    }

    /// One closed-loop repetition: `n` events, the publisher at most
    /// `window` ahead of completion; returns once the last is complete.
    fn flood_rep(
        &mut self,
        n: u64,
        checks: &mut Checks,
        mut trace: Option<&mut SpanLog>,
    ) -> Result<SubReport, String> {
        let target = self.seq + n;
        self.cmd
            .send(SubCmd::Expect {
                upto: target,
                paced: None,
                trace: trace.is_some(),
            })
            .map_err(err)?;
        let deadline = Instant::now() + PHASE_DEADLINE;
        while self.seq < target {
            // Refill in bursts: once the window is full, wait until half
            // of it has completed. The pipeline never runs dry (half a
            // window stays in flight) and the daemon sees batches, not a
            // trickle of single frames paced by this thread's wake-ups.
            let refill = (self.spec.window / 2).min(target - self.seq);
            let mut room = (self.completed() + self.spec.window).saturating_sub(self.seq);
            while room < refill {
                if Instant::now() > deadline {
                    return Err("flood stalled: window never reopened".into());
                }
                self.wait_a_little()?;
                room = (self.completed() + self.spec.window).saturating_sub(self.seq);
            }
            for _ in 0..room.min(target - self.seq) {
                self.publish_next(&mut trace)?;
            }
        }
        self.drain(checks)
    }

    /// Closed loop: fixed-size repetitions until the budget is spent.
    /// `spans` collects both threads' spans when tracing.
    pub fn flood(
        &mut self,
        plan: &RunPlan,
        share: f64,
        calibrator: &Calibrator,
        checks: &mut Checks,
        mut spans: Option<&mut Vec<SpanLog>>,
    ) -> Result<FloodResult, String> {
        let n = plan.rep_events(self.spec.rep_events);
        let bytes = n * self.record_bytes();
        let mut pub_log = spans.is_some().then(|| SpanLog::new(&SPAN_NAMES, SPAN_CAP));
        let out = FloodResult::measure(plan, share, calibrator, || {
            let report = self.flood_rep(n, checks, pub_log.as_mut())?;
            checks.attempted += n;
            if let (Some(all), Some(log)) = (spans.as_mut(), report.spans) {
                all.push(log);
            }
            Ok((n, bytes))
        })?;
        if let (Some(all), Some(log)) = (spans, pub_log) {
            all.push(log);
        }
        Ok(out)
    }

    /// Open loop at the workload's fixed rate, in segments. The subscriber
    /// recovers each event's due time from its `seq` and measures to the
    /// moment `poll` hands the decoded record back. Between segments the
    /// pipeline drains and the box's speed is calibrated.
    pub fn paced(
        &mut self,
        plan: &RunPlan,
        share: f64,
        calibrator: &Calibrator,
        checks: &mut Checks,
    ) -> Result<PacedResult, String> {
        let rate = self.spec.paced_rate;
        let per_segment = ((rate as f64 * plan.segment().as_secs_f64()) as u64).max(1);
        let budget = plan.budget(share);
        let mut bracket = Bracket::new(calibrator);
        let mut summary = SegmentLatency::new();
        let mut late_ns = Vec::with_capacity((rate as f64 * budget.as_secs_f64()) as usize);
        let (mut backlog, mut events) = (0u64, 0u64);
        let start = Instant::now();
        let keep_awake = KeepAwake::start().map_err(err)?;
        while events == 0 || start.elapsed() < budget {
            let (segment, timed) = bracket.time(|| -> Result<SubReport, String> {
                keep_awake.set(true);
                let first_seq = self.seq;
                let clock = self.clock;
                let schedule = Schedule::at_rate(clock.now_ns() + PACED_LEAD_NS, rate);
                self.cmd
                    .send(SubCmd::Expect {
                        upto: first_seq + per_segment,
                        paced: Some((schedule, first_seq)),
                        trace: false,
                    })
                    .map_err(err)?;
                let mut failure = None;
                pace::open_loop(&clock, schedule, per_segment, &mut late_ns, |_| {
                    if failure.is_none() {
                        failure = self.publish_next(&mut None).err();
                    }
                });
                if let Some(e) = failure {
                    return Err(e);
                }
                backlog = backlog.max(self.seq - self.shared.received.load(Ordering::Acquire));
                let report = self.drain(checks);
                keep_awake.set(false);
                report
            });
            checks.attempted += per_segment;
            events += per_segment;
            summary.add_segment(segment?.latencies_ns, timed.factor);
        }
        Ok(PacedResult {
            latency: summary.finish(),
            late_ns,
            backlog,
            events,
        })
    }

    /// Durable only: a fresh `subscribe_from` client drains the last
    /// [`REPLAY_EVENTS`] of the log written so far, as often as the budget
    /// allows (at least once). Returns events per nominal second of each
    /// drain.
    pub fn replay(
        &mut self,
        plan: &RunPlan,
        share: f64,
        calibrator: &Calibrator,
        checks: &mut Checks,
    ) -> Result<Vec<f64>, String> {
        let budget = plan.budget(share);
        let upto = self.seq;
        let from = upto.saturating_sub(plan.rep_events(REPLAY_EVENTS));
        let events = upto - from;
        let mut bracket = Bracket::new(calibrator);
        let start = Instant::now();
        let mut rates = Vec::new();
        while rates.is_empty() || start.elapsed() < budget {
            let (report, timed) = bracket.time(|| -> Result<SubReport, String> {
                self.cmd.send(SubCmd::Replay { from, upto }).map_err(err)?;
                // Keep answering the daemon's liveness probes meanwhile.
                let deadline = Instant::now() + PHASE_DEADLINE;
                loop {
                    if let Ok(report) = self.reports.try_recv() {
                        return Ok(report);
                    }
                    if Instant::now() > deadline {
                        return Err("replay never finished".into());
                    }
                    self.wait_a_little()?;
                }
            });
            let mut report = report?;
            checks.attempted += events;
            self.replayed += events;
            checks.merge(std::mem::take(&mut report.checks));
            rates.push(events as f64 / (report.replay_s / timed.factor));
        }
        Ok(rates)
    }

    /// Bytes on disk per logged event (durable only).
    pub fn disk_bytes_per_event(&self) -> Option<f64> {
        let store = self.daemon.as_ref()?.store()?;
        let bytes = store.channel(CHANNEL).ok()?.disk_bytes().ok()?;
        Some(bytes as f64 / self.seq.max(1) as f64)
    }

    /// End-of-run checks that span phases, then tear everything down.
    pub fn teardown(mut self, checks: &mut Checks) {
        let published = self.seq;
        if self.spec.durable {
            let acked = self.publisher().stats().publishes_acked;
            checks.require(acked == published, || {
                format!("acked count {acked} != published {published}")
            });
        }
        let stats = self.daemon_stats();
        let (out, dropped) = (
            stats.events_out - self.stats0.events_out,
            stats.dropped - self.stats0.dropped,
        );
        let owed = published + self.replayed;
        checks.require(out + dropped == owed, || {
            format!("daemon wrote {out} events and dropped {dropped}, owed {owed}")
        });
        checks.require(dropped == 0, || format!("daemon dropped {dropped} events"));
        self.close();
    }

    fn close(&mut self) {
        let _ = self.cmd.send(SubCmd::Quit);
        self.shared.stop.store(true, Ordering::Release);
        if let Some(t) = self.sub_thread.take() {
            let _ = t.join();
        }
        if let Some(p) = self.publisher.take() {
            let _ = p.disconnect();
        }
        if let Some(d) = self.daemon.take() {
            d.shutdown();
        }
        if let Some(dir) = self.store_dir.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

impl Drop for LiveRig {
    fn drop(&mut self) {
        self.close();
    }
}

#[allow(clippy::too_many_arguments)]
fn subscriber_loop(
    client: ServClient,
    addr: SocketAddr,
    inputs: &StreamInputs,
    spec: &'static LiveSpec,
    shared: &Shared,
    clock: MonoClock,
    cmds: Receiver<SubCmd>,
    reports: Sender<SubReport>,
) {
    let mut live = Some(client);
    let mut next_seq = 0u64;
    while let Ok(cmd) = cmds.recv() {
        let report = match cmd {
            SubCmd::Quit => break,
            SubCmd::Expect { upto, paced, trace } => {
                let Some(client) = live.as_mut() else {
                    break;
                };
                let mut rx = Receive {
                    client,
                    inputs,
                    durable: spec.durable,
                    shared: Some(shared),
                    next_seq,
                    checks: Checks::default(),
                };
                let report = rx.upto(upto, &clock, paced, trace);
                next_seq = rx.next_seq;
                report
            }
            SubCmd::Replay { from, upto } => {
                if let Some(c) = live.take() {
                    let _ = c.disconnect();
                }
                replay_once(addr, inputs, spec, from, upto, &clock)
            }
        };
        if reports.send(report).is_err() {
            break;
        }
    }
    if let Some(c) = live {
        let _ = c.disconnect();
    }
}

/// The receiving half of the output checks.
struct Receive<'a> {
    client: &'a mut ServClient,
    inputs: &'a StreamInputs,
    durable: bool,
    /// Live subscription: publish progress to the publisher's window.
    shared: Option<&'a Shared>,
    next_seq: u64,
    checks: Checks,
}

impl Receive<'_> {
    /// Receive every event up to `upto`, checking each: gapless monotone
    /// `seq`, offset == seq on a durable channel, and every 64th record
    /// byte-compared with the interpreted reference.
    fn upto(
        &mut self,
        upto: u64,
        clock: &MonoClock,
        paced: Option<(Schedule, u64)>,
        trace: bool,
    ) -> SubReport {
        let mut latencies_ns = Vec::new();
        if paced.is_some() {
            latencies_ns.reserve((upto - self.next_seq) as usize);
        }
        let mut log = trace.then(|| SpanLog::new(&SPAN_NAMES, SPAN_CAP));
        let deadline = Instant::now() + PHASE_DEADLINE;
        while self.next_seq < upto {
            let t_poll = if trace { clock.now_ns() } else { 0 };
            let event = match self.client.poll(Duration::from_millis(100)) {
                Ok(Some(event)) => event,
                Ok(None) => {
                    let stopped = self.shared.is_some_and(|s| s.stop.load(Ordering::Acquire));
                    if stopped || Instant::now() > deadline {
                        break;
                    }
                    continue;
                }
                Err(e) => {
                    let missing = upto - self.next_seq;
                    self.checks
                        .fail(missing, || format!("subscriber poll failed: {e}"));
                    self.next_seq = upto;
                    break;
                }
            };
            let now = clock.now_ns();
            let bytes = event.view.bytes();
            let expected = self.next_seq;
            let seq = self.inputs.dst_seq.get(bytes).map(u64::from);
            match seq {
                Some(seq) if seq == expected => {
                    let reference = &self.inputs.templates[(seq % TEMPLATES) as usize].reference;
                    if self.durable && event.offset != Some(seq) {
                        let offset = event.offset;
                        self.checks
                            .fail(1, || format!("seq {seq} arrived with offset {offset:?}"));
                    } else if seq.is_multiple_of(CHECK_EVERY)
                        && !self.inputs.dst_seq.same_but_seq(bytes, reference)
                    {
                        self.checks.fail(1, || {
                            format!("seq {seq}: record differs from the interpreted reference")
                        });
                    }
                    self.next_seq = seq + 1;
                }
                // A jump forward: the events in between are lost.
                Some(seq) if seq > expected => {
                    self.checks
                        .fail(seq - expected, || format!("seq jumped {expected} -> {seq}"));
                    self.next_seq = seq + 1;
                }
                other => self.checks.fail(1, || {
                    format!("expected seq {expected}, got {other:?} (duplicate or reordered)")
                }),
            }
            if let (Some((schedule, first)), Some(seq)) = (paced, seq) {
                let due = schedule.due_ns(seq.saturating_sub(first));
                latencies_ns.push(now.saturating_sub(due));
            }
            if let Some(log) = log.as_mut() {
                log.leaf(SP_POLL, expected, t_poll, now);
            }
            if let Some(shared) = self.shared {
                shared.received.store(self.next_seq, Ordering::Release);
            }
        }
        if self.next_seq < upto {
            let missing = upto - self.next_seq;
            self.checks
                .fail(missing, || format!("{missing} events never arrived"));
            self.next_seq = upto;
            if let Some(shared) = self.shared {
                shared.received.store(upto, Ordering::Release);
            }
        }
        SubReport {
            checks: std::mem::take(&mut self.checks),
            latencies_ns,
            spans: log,
            replay_s: 0.0,
        }
    }
}

/// One replay: connect fresh, `subscribe_from(from)`, drain up to `upto`
/// under the same checks as live delivery, disconnect.
fn replay_once(
    addr: SocketAddr,
    inputs: &StreamInputs,
    spec: &'static LiveSpec,
    from: u64,
    upto: u64,
    clock: &MonoClock,
) -> SubReport {
    let mut checks = Checks::default();
    let t0 = Instant::now();
    let connected = (|| -> Result<ServClient, String> {
        let mut c = ServClient::connect(addr, spec.sub_profile).map_err(err)?;
        let chan = c.open_channel(CHANNEL).map_err(err)?;
        c.subscribe_from(chan, &inputs.schema, from).map_err(err)?;
        Ok(c)
    })();
    let mut client = match connected {
        Ok(c) => c,
        Err(e) => {
            checks.fail(upto - from, || format!("replay could not subscribe: {e}"));
            return SubReport {
                checks,
                replay_s: f64::INFINITY,
                ..SubReport::default()
            };
        }
    };
    let mut rx = Receive {
        client: &mut client,
        inputs,
        durable: true,
        shared: None,
        next_seq: from,
        checks,
    };
    let mut report = rx.upto(upto, clock, None, false);
    report.replay_s = t0.elapsed().as_secs_f64();
    let _ = client.disconnect();
    report
}
