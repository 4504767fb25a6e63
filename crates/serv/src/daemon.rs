//! The event-channel daemon: an event-driven TCP server built on sharded
//! readiness reactors, routing published events to subscribers and
//! filtering at the source.
//!
//! All connections share one [`FormatServer`], so a format registered by
//! one publisher is known — under the same id — to every session, and its
//! metadata is validated and stored exactly once. Event bodies are the
//! publisher's NDR bytes and are forwarded verbatim; the daemon never
//! builds a conversion, which is what keeps the homogeneous
//! publisher/subscriber path zero-copy end to end.
//!
//! Each subscription may carry a predicate (shipped in the wire form of
//! [`pbio_chan::wire`]). The daemon compiles it with the DCG filter
//! machinery against each *publisher's* wire format — lazily, once per
//! (subscription, format) — and evaluates it before any bytes are queued,
//! so filtered events are never transmitted.
//!
//! Slow subscribers get a bounded outbound queue with a drop-oldest
//! policy: publishers never block on a stalled consumer, and control
//! frames (acks, format announcements) are exempt so the session itself
//! cannot be dropped.
//!
//! ## Threading model
//!
//! Connections do not own threads. The accept loop hands each accepted
//! socket — switched to nonblocking mode — to one of
//! [`ServConfig::shards`] *reactor* threads, chosen round-robin. A
//! reactor owns its slice of connections outright: their registration
//! with a [`pbio_net::poll::Poller`], their inbound [`FrameDecoder`]
//! state, their outbound queues, and their flush work. One poll wakeup
//! drains every readable socket, dispatches the decoded frames through
//! the same protocol machine a dedicated thread used to run, and then
//! flushes every connection with queued output via batched vectored
//! writes. Each connection stages the frames it is writing in a
//! [`WriteBatch`], which checksums a frame once — as it is staged, on
//! this thread, after it left the outbound queue — and keeps the header
//! bytes and the partial-write offset, so a full socket buffer suspends
//! — never blocks — the shard and resuming costs no second pass over a
//! body. Cross-thread work (new connections, "this
//! connection has frames queued" nudges from publishers on other shards)
//! arrives over a lock-free channel paired with a [`Waker`], so the
//! daemon's thread count is O(shards), not O(connections): 10k idle
//! subscribers cost file descriptors, not stacks.
//!
//! The fan-out path is allocation-flat: a published event is copied once
//! into a shared [`WireBuf`] as it is decoded off the publisher's socket,
//! and every subscriber queue, ANNOUNCE body, and outgoing frame after
//! that is a refcount bump. A hot connection pays ~one syscall per
//! [`pbio_net::frame::MAX_WRITE_BATCH`] frames, not per event.

use std::collections::{HashMap, HashSet, VecDeque};
use std::convert::Infallible;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use pbio::{BufPool, FormatServer};
use pbio_chan::dispatch::{
    DeliveryOutcome, Fanout, FanoutObs, FanoutTraceObs, Subscriber, SubscriptionId,
};
use pbio_chan::filter::{FilterProgram, Predicate};
use pbio_chan::wire::deserialize_predicate;
use pbio_net::buf::WireBuf;
use pbio_net::fault::{FaultLog, FaultPlan, MaybeFaulty};
use pbio_net::frame::{
    Frame, FrameDecoder, FrameError, FrameHeader, WriteBatch, FRAME_HEADER_SIZE, MAX_WRITE_BATCH,
};
use pbio_net::poll::{poller, source_of, Event as PollEvent, Interest, Poller, RawSource, Waker};
use pbio_obs::export::{
    flight_schema, flight_value, hop_schema, hop_value, stats_schema, stats_value, topo_schema,
    topo_value, StatsHeader, TopoChannel, TopoConn, TopoLag, TopoPeer, TopoShard, TopoSnapshot,
    ROLE_DAEMON,
};
use pbio_obs::{
    epoch_ns, Counter, FlightRecorder, Gauge, Histogram, Registry, Span, TraceCtx, TraceHop,
    TraceSink, FL_CONNECT, FL_EVICT, FL_FAULT, FL_PROTO_ERROR, FL_REPAIR, FL_REPLAY_FINISH,
    FL_REPLAY_START, FL_RESUME, FL_SHUTDOWN, FL_TAP_DROP, FL_TAP_ROTATE, FL_TAP_START, FL_TAP_STOP,
    HOP_ENQUEUE, HOP_FLUSH, HOP_INGRESS, HOP_PUBLISH, HOP_RELAY, TRACE_TRAILER_LEN,
};
use pbio_store::{Append, ChannelLog, FlushPolicy, ReplayItem, Store, StoreConfig, FORMAT_RAW};
use pbio_types::arch::ArchProfile;
use pbio_types::layout::Layout;
use pbio_types::value::encode_native_into;

use crate::mesh::{Mesh, MeshConfig, MeshHost, PeerStats};
use crate::protocol::*;
use crate::tap::{TapConfig, TapEntry, TapMode, TapState, CAPTURE_CHANNEL, TAP_IN, TAP_OUT};

/// Upper bound on one reactor poll wait: the cadence of shutdown checks
/// and heartbeat scans when no readiness event arrives sooner.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct ServConfig {
    /// Maximum events queued per connection before drop-oldest kicks in.
    pub queue_capacity: usize,
    /// Reactor shard count: how many event-loop threads share the
    /// connection population. `0` (the default) sizes from available
    /// parallelism. Each accepted connection is pinned round-robin to one
    /// shard for its lifetime.
    pub shards: usize,
    /// Maximum `subscribe_from` replay streams running concurrently.
    /// Replays walk segment logs on short-lived dedicated threads; past
    /// this bound further `K_SUBSCRIBE_FROM` requests are refused with a
    /// typed [`E_BUSY`] error instead of spawning without limit.
    pub max_replay: usize,
    /// How often the daemon publishes a snapshot of its metric registry
    /// on the reserved [`STATS_CHANNEL`] — as an ordinary PBIO record,
    /// through the same fan-out every other event takes. `None` disables
    /// the publisher thread (one-shot [`K_STATS`] pulls still work).
    pub stats_interval: Option<Duration>,
    /// Distributed-tracing knobs (see [`TraceConfig`]).
    pub trace: TraceConfig,
    /// Idle time on a connection before the daemon probes it with
    /// [`K_PING`]. Any inbound frame counts as liveness, so busy
    /// publishers are never pinged.
    pub heartbeat_ping: Duration,
    /// Idle time before a silent connection is declared dead and
    /// evicted. Must exceed [`ServConfig::heartbeat_ping`] by enough for
    /// a round trip; a peer that answers pings is never evicted.
    pub heartbeat_dead: Duration,
    /// How long a subscriber's outbound queue may sit in continuous
    /// drop-oldest overflow (its writer making no progress) before the
    /// daemon escalates from dropping events to evicting the connection.
    pub stall_budget: Duration,
    /// Deterministic fault injection: wrap every accepted connection in a
    /// [`pbio_net::fault::FaultyStream`] whose plan derives from this
    /// seed and the connection sequence number (the daemon's `--faults
    /// seed=N` mode). `None` — the default — leaves transports
    /// untouched; the wrapper is compiled in but inert.
    pub fault_seed: Option<u64>,
    /// Durable channels: when set, channels opened with the
    /// [`CHAN_DURABLE`] flag append every published event to a
    /// `pbio-store` segment log under [`StoreConfig::dir`], off the
    /// publish hot loop (a dedicated writer thread batches appends and
    /// acks publishers with [`K_PUBLISH_ACK`] once bytes are flushed).
    /// Subscribers replay history with `subscribe_from`. `None` — the
    /// default — disables durability entirely: the publish path takes no
    /// extra allocation or syscall.
    pub durability: Option<StoreConfig>,
    /// Flight-recorder ring capacity: how many recent lifecycle events
    /// (connect/evict/resume, protocol errors, repairs, replays) the
    /// daemon's black box retains for [`K_INSPECT`] and post-mortems.
    pub flight_capacity: usize,
    /// When set, flight events are additionally drained — incrementally,
    /// off the hot path, with every batch fsynced — into a `pbio-store`
    /// segment log under this directory. A killed daemon leaves a
    /// decodable dump (torn tails are CRC-recovered on the next open);
    /// an orderly shutdown flushes the full tail. `None` — the default —
    /// keeps the recorder memory-only.
    pub flight_dump: Option<PathBuf>,
    /// Wire-tap capture plane: when set, frames crossing every
    /// connection are recorded — per [`crate::tap::TapConfig::mode`],
    /// switchable at run time with [`K_TAP_CTL`] — into crash-safe
    /// capture segments under [`crate::tap::TapConfig::dir`]. Bodies
    /// are captured by refcount bump on the outbound path; with the tap
    /// disabled the per-frame cost is one relaxed load. `None` — the
    /// default — compiles the tap points in but leaves them inert, and
    /// makes [`K_TAP_CTL`] a protocol error.
    pub tap: Option<TapConfig>,
    /// Pin each reactor shard thread to its own CPU
    /// (`shard i → cpu i % parallelism`, via raw `sched_setaffinity`)
    /// so per-connection state stops migrating between cores. Pinning
    /// failures are non-fatal: the shard runs unpinned and reports
    /// `cpu = -1` in topology snapshots.
    pub pin_shards: bool,
    /// Daemon federation: when set, this daemon joins a static mesh —
    /// channels shard across members by [`crate::mesh::home_of`], any
    /// daemon accepts any publish and forwards it to the channel's home
    /// over a dialed peer link, and subscribers anywhere receive relayed
    /// events through their local daemon (see [`crate::mesh`]). `None` —
    /// the default — runs a standalone daemon: no links, no `CAP_PEER`
    /// grants, every channel homed locally.
    pub peers: Option<MeshConfig>,
}

impl Default for ServConfig {
    fn default() -> ServConfig {
        ServConfig {
            queue_capacity: 256,
            shards: 0,
            max_replay: 32,
            stats_interval: Some(Duration::from_secs(1)),
            trace: TraceConfig::default(),
            heartbeat_ping: Duration::from_secs(2),
            heartbeat_dead: Duration::from_secs(8),
            stall_budget: Duration::from_secs(2),
            fault_seed: None,
            durability: None,
            flight_capacity: 256,
            flight_dump: None,
            tap: None,
            pin_shards: false,
            peers: None,
        }
    }
}

/// Distributed-tracing knobs.
///
/// The daemon always speaks the trace-trailer extension (it grants
/// [`CAP_TRACE`] to any client that offers it); these knobs govern how
/// much tracing actually happens.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Head-sampling modulus advertised to publishers in the HELLO ack:
    /// clients stamp one publish in `sample_mod` with a trace context.
    /// `0` tells publishers not to sample at all. Changeable at run time
    /// with [`K_TRACE_CTL`] (new sessions see the new value).
    pub sample_mod: u32,
    /// How often completed hop records are drained from the sink and
    /// published on the reserved [`TRACE_CHANNEL`] as self-describing
    /// PBIO records. `None` disables the exporter (hops still accumulate
    /// in the bounded sink and surface via [`ServDaemon::registry`]).
    pub publish_interval: Option<Duration>,
    /// Bounded capacity of the hop sink; oldest hops are evicted when
    /// tracing outpaces the exporter.
    pub sink_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            sample_mod: 64,
            publish_interval: Some(Duration::from_millis(250)),
            sink_capacity: 1024,
        }
    }
}

/// Architecture profile the daemon lays its own stats records out in.
/// Subscribers on other architectures receive them through the ordinary
/// conversion path — the stats channel dogfoods the machinery it measures.
const STATS_PROFILE: &ArchProfile = &ArchProfile::X86_64;

/// A snapshot of the daemon's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServStats {
    /// Connections currently in a session (post-handshake).
    pub active_connections: u64,
    /// Events received from publishers.
    pub events_in: u64,
    /// Event frames written to subscriber sockets.
    pub events_out: u64,
    /// (subscription, event) pairs suppressed by a filter before any
    /// bytes were queued or sent.
    pub filtered_at_source: u64,
    /// Events discarded by the drop-oldest backpressure policy.
    pub dropped: u64,
    /// Frame bytes received (headers + bodies).
    pub bytes_in: u64,
    /// Frame bytes sent (headers + bodies).
    pub bytes_out: u64,
    /// Frames written as part of a coalesced batch of ≥ 2 frames.
    pub frames_batched: u64,
    /// `writev` syscalls the reactor shards' flushes made (each carries
    /// up to a whole batch; `events_out / writes` is the realized
    /// batching factor, frames per syscall).
    pub writes: u64,
    /// Receive-scratch requests served from the buffer pool.
    pub pool_hits: u64,
    /// Receive-scratch requests that had to allocate.
    pub pool_misses: u64,
    /// Liveness probes ([`K_PING`]) sent to idle connections.
    pub pings: u64,
    /// Connections evicted for answering nothing within the dead budget.
    pub evicted_dead: u64,
    /// Connections evicted because their writer stalled past the stall
    /// budget (escalation beyond drop-oldest).
    pub evicted_stalled: u64,
    /// Sessions resumed under a fresh epoch ([`K_RESUME`] accepted).
    pub resumes: u64,
    /// Resume attempts rejected as stale duplicates ([`E_STALE`]).
    pub resumes_stale: u64,
    /// Inbound frames rejected (oversized or checksum-corrupt) without
    /// killing the session.
    pub frames_rejected: u64,
    /// Reserved-channel (`$stats`/`$trace`/`$topo`) publishes skipped
    /// because the channel had no subscribers — the snapshot was never
    /// even encoded.
    pub stats_suppressed: u64,
}

/// The daemon's metric handles, resolved once from its per-instance
/// [`Registry`]. Hot paths touch only these `Arc`s; [`ServStats`] and the
/// `$stats` channel are both views of the same registry.
struct ServMetrics {
    active_connections: Arc<Gauge>,
    events_in: Arc<Counter>,
    events_out: Arc<Counter>,
    filtered_at_source: Arc<Counter>,
    dropped: Arc<Counter>,
    bytes_in: Arc<Counter>,
    bytes_out: Arc<Counter>,
    frames_batched: Arc<Counter>,
    writes: Arc<Counter>,
    pings: Arc<Counter>,
    evicted_dead: Arc<Counter>,
    evicted_stalled: Arc<Counter>,
    resumes: Arc<Counter>,
    resumes_stale: Arc<Counter>,
    frames_rejected: Arc<Counter>,
    stats_suppressed: Arc<Counter>,
    /// Time handling one received frame (post-read, dispatch included).
    recv_ns: Arc<Histogram>,
    /// Time in one reactor flush pass over a connection (whole batch).
    send_ns: Arc<Histogram>,
    /// Time fanning one event out to a channel's subscribers.
    fanout_ns: Arc<Histogram>,
    /// Time evaluating one subscriber filter.
    filter_ns: Arc<Histogram>,
}

impl ServMetrics {
    fn resolve(reg: &Registry) -> ServMetrics {
        ServMetrics {
            active_connections: reg.gauge("serv_active_connections"),
            events_in: reg.counter("serv_events_in"),
            events_out: reg.counter("serv_events_out"),
            filtered_at_source: reg.counter("serv_filtered_at_source"),
            dropped: reg.counter("serv_dropped"),
            bytes_in: reg.counter("serv_bytes_in"),
            bytes_out: reg.counter("serv_bytes_out"),
            frames_batched: reg.counter("serv_frames_batched"),
            writes: reg.counter("serv_writes"),
            pings: reg.counter("serv_pings"),
            evicted_dead: reg.counter("serv_evicted_dead"),
            evicted_stalled: reg.counter("serv_evicted_stalled"),
            resumes: reg.counter("serv_resumes"),
            resumes_stale: reg.counter("serv_resumes_stale"),
            frames_rejected: reg.counter("serv_frames_rejected"),
            stats_suppressed: reg.counter("serv_stats_suppressed"),
            recv_ns: reg.histogram("serv_recv_ns"),
            send_ns: reg.histogram("serv_send_ns"),
            fanout_ns: reg.histogram("serv_fanout_ns"),
            filter_ns: reg.histogram("serv_filter_ns"),
        }
    }

    fn snapshot(&self, pool: &BufPool) -> ServStats {
        let pool = pool.stats();
        ServStats {
            active_connections: u64::try_from(self.active_connections.get()).unwrap_or(0),
            events_in: self.events_in.get(),
            events_out: self.events_out.get(),
            filtered_at_source: self.filtered_at_source.get(),
            dropped: self.dropped.get(),
            bytes_in: self.bytes_in.get(),
            bytes_out: self.bytes_out.get(),
            frames_batched: self.frames_batched.get(),
            writes: self.writes.get(),
            pool_hits: pool.hits,
            pool_misses: pool.misses,
            pings: self.pings.get(),
            evicted_dead: self.evicted_dead.get(),
            evicted_stalled: self.evicted_stalled.get(),
            resumes: self.resumes.get(),
            resumes_stale: self.resumes_stale.get(),
            frames_rejected: self.frames_rejected.get(),
            stats_suppressed: self.stats_suppressed.get(),
        }
    }
}

/// Resolve [`ServConfig::shards`]: an explicit count is honored (capped
/// at 64); `0` sizes from available parallelism, clamped to a small
/// range — reactors are I/O-bound, so a handful saturates loopback.
fn effective_shards(config: &ServConfig) -> usize {
    if config.shards > 0 {
        return config.shards.min(64);
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
        .clamp(1, 8)
}

/// One reactor shard's metric handles, labeled `shard=<index>` so the
/// `$stats` channel (and `pbio-stats`) can attribute load per event loop.
struct ShardMetrics {
    /// Poll returns (readiness events, waker nudges, or timeout ticks).
    wakeups: Arc<Counter>,
    /// Inbound frames dispatched per wakeup (batching on the read side).
    frames_per_wakeup: Arc<Histogram>,
    /// Readiness events reported per wakeup (ready-queue depth).
    ready_depth: Arc<Histogram>,
    /// Flush passes that hit `WouldBlock` mid-batch and parked a
    /// partly written [`WriteBatch`] for resumption.
    writev_partials: Arc<Counter>,
    /// Connections currently owned by this shard (topology gauge).
    conns: Arc<Gauge>,
    /// Ready fds reported by the most recent poll wakeup (topology gauge).
    ready: Arc<Gauge>,
}

impl ShardMetrics {
    fn resolve(reg: &Registry, shard: usize) -> ShardMetrics {
        let v = shard.to_string();
        ShardMetrics {
            wakeups: reg.counter_labeled("serv_shard_wakeups", "shard", &v),
            frames_per_wakeup: reg.histogram_labeled("serv_shard_frames_per_wakeup", "shard", &v),
            ready_depth: reg.histogram_labeled("serv_shard_ready_depth", "shard", &v),
            writev_partials: reg.counter_labeled("serv_shard_writev_partials", "shard", &v),
            conns: reg.gauge_labeled("serv_shard_conns", "shard", &v),
            ready: reg.gauge_labeled("serv_shard_ready", "shard", &v),
        }
    }
}

/// The topology-snapshot view of one shard's load: the same registry
/// handles [`ShardMetrics`] records through, resolved a second time (by
/// name, so they alias) for [`State::capture`] to read without strings.
struct ShardLoad {
    conns: Arc<Gauge>,
    ready: Arc<Gauge>,
    wakeups: Arc<Counter>,
}

// ---------------------------------------------------------------------------
// Outbound queue: bounded for events, unbounded for control frames.

struct OutboundQ {
    /// Queued frames, each with the trace context it carries (if any) so
    /// the flushing reactor can stamp a `flush` hop when it actually hits
    /// the socket.
    frames: VecDeque<(Frame, Option<TraceCtx>)>,
    events: usize,
    closed: bool,
    /// When the queue first overflowed into drop-oldest with no flush
    /// progress since; cleared every time the reactor drains frames. A
    /// queue that stays in this state past the stall budget marks a
    /// connection that has stopped moving — dropping events can't help,
    /// so the connection is escalated to eviction.
    stalled_since: Option<Instant>,
}

struct Outbound {
    q: Mutex<OutboundQ>,
    capacity: usize,
    stall_budget: Duration,
}

/// What [`Outbound::try_pop_batch`] found.
enum Drained {
    /// At least one frame was moved into the caller's batch.
    Got,
    /// Nothing queued right now; the queue is still open.
    Empty,
    /// Closed *and* drained: no frame will ever appear again.
    Done,
}

enum Enqueue {
    Sent,
    DroppedOldest,
    Closed,
    /// The queue has been in continuous overflow for longer than the
    /// stall budget: the peer's writer is not draining at all and the
    /// connection should be evicted, not fed.
    Stalled,
}

impl Outbound {
    fn new(capacity: usize, stall_budget: Duration) -> Outbound {
        Outbound {
            q: Mutex::new(OutboundQ {
                frames: VecDeque::new(),
                events: 0,
                closed: false,
                stalled_since: None,
            }),
            capacity: capacity.max(1),
            stall_budget,
        }
    }

    /// Queue a frame for the owning reactor to flush. Control frames
    /// always fit; when the event budget is exhausted the *oldest queued
    /// event* is discarded to admit the new one (fresh data beats stale
    /// data for monitoring-style consumers).
    #[cfg(test)]
    fn send(&self, frame: Frame) -> Enqueue {
        self.send_traced(frame, None)
    }

    /// Enqueue with the trace context the frame carries, so the flushing
    /// reactor can attribute its socket flush to the trace. Callers go
    /// through [`ConnShared::send`], which adds the reactor wakeup.
    fn send_traced(&self, frame: Frame, trace: Option<TraceCtx>) -> Enqueue {
        let mut q = self.q.lock().unwrap_or_else(|p| p.into_inner());
        if q.closed {
            return Enqueue::Closed;
        }
        let is_event = frame.kind == K_EVENT;
        let mut outcome = Enqueue::Sent;
        if is_event && q.events >= self.capacity {
            match q.stalled_since {
                Some(t) if t.elapsed() >= self.stall_budget => return Enqueue::Stalled,
                Some(_) => {}
                None => q.stalled_since = Some(Instant::now()),
            }
            if let Some(i) = q.frames.iter().position(|(f, _)| f.kind == K_EVENT) {
                q.frames.remove(i);
                q.events -= 1;
                outcome = Enqueue::DroppedOldest;
            }
        }
        if is_event {
            q.events += 1;
        }
        q.frames.push_back((frame, trace));
        outcome
    }

    fn close(&self) {
        let mut q = self.q.lock().unwrap_or_else(|p| p.into_inner());
        q.closed = true;
    }

    /// Events currently queued. Replay threads pace themselves on this
    /// so streamed history never lands in drop-oldest territory — a
    /// dropped replay frame would be silent loss of the very records a
    /// durable subscriber asked for.
    fn event_backlog(&self) -> usize {
        self.q.lock().unwrap_or_else(|p| p.into_inner()).events
    }

    /// Next frame to write, if any; `None` covers both "empty for now"
    /// and "closed and drained".
    #[cfg(test)]
    fn pop(&self) -> Option<Frame> {
        let mut batch = Vec::with_capacity(1);
        let mut traces = Vec::with_capacity(1);
        match self.try_pop_batch(&mut batch, &mut traces, 1) {
            Drained::Got => batch.pop(),
            _ => None,
        }
    }

    /// Move up to `max` queued frames into `out` (trace contexts into the
    /// parallel `traces`) without blocking. Everything already queued
    /// when the reactor flushes goes out in one batch — the coalescing
    /// that turns a hot channel's frame-per-event stream into ~one
    /// syscall per batch. [`Drained::Done`] only after close *and* drain,
    /// so already-queued acks still reach the peer after a graceful
    /// close.
    fn try_pop_batch(
        &self,
        out: &mut Vec<Frame>,
        traces: &mut Vec<Option<TraceCtx>>,
        max: usize,
    ) -> Drained {
        let mut q = self.q.lock().unwrap_or_else(|p| p.into_inner());
        if q.frames.is_empty() {
            return if q.closed {
                Drained::Done
            } else {
                Drained::Empty
            };
        }
        // The reactor is draining: whatever overflow episode was in
        // progress ends here.
        q.stalled_since = None;
        while out.len() < max {
            let Some((f, t)) = q.frames.pop_front() else {
                break;
            };
            if f.kind == K_EVENT {
                q.events -= 1;
            }
            out.push(f);
            traces.push(t);
        }
        Drained::Got
    }
}

// ---------------------------------------------------------------------------
// Store queue: publish hot loop → dedicated append thread.

/// One event headed for the segment log, queued by the publish path and
/// drained in batches by the store writer thread.
struct AppendReq {
    log: Arc<ChannelLog>,
    chan: u32,
    offset: u64,
    format: u32,
    /// The record's NDR bytes, trailer-free (a window on the same shared
    /// buffer the fan-out uses — queueing for disk is a refcount bump).
    payload: WireBuf,
    /// The publisher, for the [`K_PUBLISH_ACK`] once bytes are on disk.
    conn: Weak<ConnShared>,
}

/// Bounded handoff between publish threads and the store writer. Pushes
/// block when the writer falls `capacity` requests behind — durability
/// backpressure, in place of silently widening the ack window.
struct StoreQueue {
    q: Mutex<(VecDeque<AppendReq>, bool)>,
    ready: Condvar,
    space: Condvar,
    capacity: usize,
}

impl StoreQueue {
    fn new(capacity: usize) -> StoreQueue {
        StoreQueue {
            q: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
            space: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn push(&self, req: AppendReq) {
        let mut q = self.q.lock().unwrap_or_else(|p| p.into_inner());
        while q.0.len() >= self.capacity && !q.1 {
            q = self.space.wait(q).unwrap_or_else(|p| p.into_inner());
        }
        if q.1 {
            return;
        }
        q.0.push_back(req);
        drop(q);
        self.ready.notify_one();
    }

    /// Blocks until at least one request is queued; `false` once closed
    /// *and* drained (every accepted append still reaches disk on
    /// graceful shutdown).
    fn pop_batch(&self, out: &mut Vec<AppendReq>, max: usize) -> bool {
        let mut q = self.q.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if !q.0.is_empty() {
                while out.len() < max {
                    let Some(r) = q.0.pop_front() else { break };
                    out.push(r);
                }
                drop(q);
                self.space.notify_all();
                return true;
            }
            if q.1 {
                return false;
            }
            q = self.ready.wait(q).unwrap_or_else(|p| p.into_inner());
        }
    }

    fn close(&self) {
        let mut q = self.q.lock().unwrap_or_else(|p| p.into_inner());
        q.1 = true;
        drop(q);
        self.ready.notify_all();
        self.space.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Flight dump: recorder → crash-safe segment log.

/// The flight recorder's on-disk tail: its own `pbio-store` channel log
/// (flushed every batch, so a killed daemon leaves a decodable prefix and
/// CRC recovery handles the torn tail), plus the drain cursor and the
/// flight record's registered layout. Drained by the background thread
/// each tick and once more at orderly shutdown.
struct FlightSink {
    log: Arc<ChannelLog>,
    /// Keeps the dump's store (and its flush policy) alive.
    _store: Store,
    format: u32,
    layout: Arc<Layout>,
    /// Next recorder generation to drain ([`FlightRecorder::drain_since`]).
    cursor: u64,
}

// ---------------------------------------------------------------------------
// Wire tap: capture ring → crash-safe segment log.

/// The tap's on-disk half, mirroring [`FlightSink`]: a dedicated
/// `pbio-store` channel log (flushed every batch, torn tails CRC-recovered
/// on reopen) that the background thread drains captured frames into.
/// Records are opaque capture bytes, appended under [`FORMAT_RAW`].
struct TapSink {
    log: Arc<ChannelLog>,
    /// Keeps the capture store (and its flush policy) alive.
    _store: Store,
    /// Encode scratch, reused across drains.
    scratch: Vec<TapEntry>,
    /// Segment count at the last drain, to spot rotations.
    segments: usize,
    /// Drop counter at the last drain, to report overflow once per leap.
    dropped_seen: u64,
}

// ---------------------------------------------------------------------------
// Per-connection shared state and the remote subscriber.

/// A snapshot of one connection's writer-side counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnStats {
    /// Daemon-assigned connection id (echoed in the HELLO ack).
    pub conn: u32,
    /// Frame bytes written to this connection (headers + bodies).
    pub bytes_sent: u64,
    /// Frames written to this connection.
    pub frames_sent: u64,
    /// Frames that went out as part of a coalesced batch of ≥ 2.
    pub frames_batched: u64,
    /// `writev` syscalls that wrote to this connection.
    pub writes: u64,
}

#[derive(Default)]
struct ConnCounters {
    bytes_sent: AtomicU64,
    frames_sent: AtomicU64,
    frames_batched: AtomicU64,
    writes: AtomicU64,
    /// Frames (either direction) captured by the wire tap.
    frames_tapped: AtomicU64,
}

/// One socket, many roles: the reactor's read wrapper, its write wrapper
/// and the eviction handle in [`ConnShared`] all hold the same
/// `TcpStream` (whose I/O methods take `&self`), so a connection costs
/// exactly one fd. `O_NONBLOCK` is set once, before the shares are made.
struct SharedTcp(Arc<TcpStream>);

impl io::Read for SharedTcp {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        io::Read::read(&mut &*self.0, buf)
    }
}

impl io::Write for SharedTcp {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        io::Write::write(&mut &*self.0, buf)
    }

    fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
        io::Write::write_vectored(&mut &*self.0, bufs)
    }

    fn flush(&mut self) -> io::Result<()> {
        io::Write::flush(&mut &*self.0)
    }
}

impl std::os::fd::AsRawFd for SharedTcp {
    fn as_raw_fd(&self) -> std::os::fd::RawFd {
        std::os::fd::AsRawFd::as_raw_fd(&*self.0)
    }
}

struct ConnShared {
    id: u32,
    outbound: Outbound,
    /// Format ids already announced on this connection.
    announced: Mutex<HashSet<u32>>,
    alive: AtomicBool,
    counters: ConnCounters,
    /// Capability bits granted in the HELLO ack ([`CAP_TRACE`]…), `0`
    /// until the handshake completes. Only capable subscribers receive
    /// events with the trace trailer flagged.
    caps: AtomicU32,
    /// A handle on the connection's socket, for forced eviction: a
    /// shutdown here surfaces as a readiness event on the owning reactor
    /// (the poll reports the severed fd), which closing the queue alone
    /// cannot do.
    raw: Mutex<Option<Arc<TcpStream>>>,
    /// Live subscriptions registered *by replay threads* at their
    /// replay→live handoff (`K_SUBSCRIBE_FROM`). The owning reactor
    /// cannot own these — it never sees them created — so teardown
    /// drains this list instead.
    durable_subs: Mutex<Vec<(u32, SubscriptionId)>>,
    /// The reactor shard this connection is pinned to, for flush nudges.
    shard: Arc<ShardHandle>,
    /// Index of that shard, for topology snapshots.
    shard_idx: u32,
    /// [`epoch_ns`] of the last wakeup that read inbound frames off this
    /// connection — a relaxed store per read batch, read by
    /// [`State::capture`].
    last_active_ns: AtomicU64,
    /// True while a [`ShardMsg::Writable`] nudge for this connection is
    /// in flight, so N queued frames cost one cross-thread message, not
    /// N. Cleared by the reactor when it processes the nudge — *before*
    /// draining the queue, so a send racing the drain can never be lost.
    write_queued: AtomicBool,
}

impl ConnShared {
    /// Force the connection down from outside its owning reactor: stop
    /// the fan-out feeding it and sever the socket so the reactor
    /// observes the end promptly (as a readiness event). Idempotent.
    fn evict(&self) {
        self.alive.store(false, Ordering::Relaxed);
        self.outbound.close();
        let mut raw = self.raw.lock().unwrap_or_else(|p| p.into_inner());
        // The shutdown (not the drop) is what the peer observes: it
        // severs the shared socket for every holder at once, so the peer
        // sees EOF and starts reconnecting even while the owning reactor
        // still holds its wrappers. Taking the handle out makes repeat
        // evictions free and releases this clone's refcount.
        if let Some(s) = raw.take() {
            let _ = s.shutdown(Shutdown::Both);
        }
    }

    fn caps(&self) -> u32 {
        self.caps.load(Ordering::Relaxed)
    }

    /// Queue a frame and nudge the owning reactor to flush it.
    fn send(&self, frame: Frame) -> Enqueue {
        self.send_traced(frame, None)
    }

    /// [`ConnShared::send`] with the trace context the frame carries.
    fn send_traced(&self, frame: Frame, trace: Option<TraceCtx>) -> Enqueue {
        let outcome = self.outbound.send_traced(frame, trace);
        if matches!(outcome, Enqueue::Sent | Enqueue::DroppedOldest) {
            self.notify_writable();
        }
        outcome
    }

    /// Tell the owning reactor this connection has frames to flush —
    /// deduplicated, so a burst of sends costs one message and one wake.
    fn notify_writable(&self) {
        if !self.write_queued.swap(true, Ordering::AcqRel) {
            self.shard.notify(ShardMsg::Writable(self.id));
        }
    }

    fn stats(&self) -> ConnStats {
        ConnStats {
            conn: self.id,
            bytes_sent: self.counters.bytes_sent.load(Ordering::Relaxed),
            frames_sent: self.counters.frames_sent.load(Ordering::Relaxed),
            frames_batched: self.counters.frames_batched.load(Ordering::Relaxed),
            writes: self.counters.writes.load(Ordering::Relaxed),
        }
    }
}

/// A subscription as seen by a channel's [`Fanout`]: the filter decision
/// plus "enqueue the untouched wire bytes on the connection".
struct RemoteSubscriber {
    conn: Arc<ConnShared>,
    channel: u32,
    predicate: Option<Predicate>,
    /// Filter compiled per publisher wire format, lazily. `None` records
    /// a format the predicate cannot be compiled against (e.g. it names a
    /// field that format lacks): such events can never satisfy the
    /// predicate, so they are rejected.
    compiled: HashMap<u32, Option<FilterProgram>>,
    formats: Arc<FormatServer>,
    /// Hop sink shared with every other tracing stage.
    sink: Arc<TraceSink>,
    /// This channel's labeled hop histograms.
    hops: Option<Arc<ChanHops>>,
    /// Stall-escalation counter, bumped when this subscriber's queue
    /// overflow outlives the stall budget and the connection is evicted.
    evicted_stalled: Arc<Counter>,
    /// Consumer-lag watermark on durable channels: events delivered to
    /// this subscriber (equivalently the next offset due), advanced with
    /// a relaxed `fetch_max` per delivered event and read by the `$stats`
    /// lag gauges and topology snapshots. `None` on non-durable channels.
    /// Events a subscriber's own filter suppresses are *not* delivered,
    /// so a filtering durable subscriber legitimately shows lag.
    delivered: Option<Arc<AtomicU64>>,
}

impl Subscriber for RemoteSubscriber {
    type Error = Infallible;

    fn accepts(&mut self, format: u32, wire: &[u8]) -> Result<bool, Infallible> {
        // Durable channels publish with the offset bit riding on the
        // format argument; the filter wants the bare format id.
        let format = format & !OFFSET_FLAG;
        if !self.conn.alive.load(Ordering::Relaxed) {
            return Ok(false);
        }
        let RemoteSubscriber {
            predicate,
            compiled,
            formats,
            ..
        } = self;
        let Some(pred) = predicate else {
            return Ok(true);
        };
        let prog = compiled.entry(format).or_insert_with(|| {
            formats
                .lookup(format)
                .and_then(|layout| FilterProgram::compile(pred.clone(), layout).ok())
        });
        match prog {
            Some(p) => Ok(p.matches(wire).unwrap_or(false)),
            None => Ok(false),
        }
    }

    fn deliver(
        &mut self,
        format: u32,
        wire: &WireBuf,
        trace: Option<&TraceCtx>,
    ) -> Result<DeliveryOutcome, Infallible> {
        let has_offset = format & OFFSET_FLAG != 0;
        let format = format & !OFFSET_FLAG;
        // Announce the format once per connection, strictly before its
        // first event; the lock spans both enqueues so a concurrent
        // publisher on another channel cannot interleave.
        let mut ann = self
            .conn
            .announced
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        if !ann.contains(&format) {
            if let Some(meta) = self.formats.meta(format) {
                // The registry's metadata is already shared storage.
                self.conn
                    .send(Frame::with_body(K_ANNOUNCE, format, 0, WireBuf::from(meta)));
                ann.insert(format);
            }
        }
        // The body may end in up to two trailers — the publisher's trace
        // trailer, then (outermost, on durable channels) the daemon's
        // offset stamp. Each subscriber receives exactly the trailers its
        // negotiated capabilities cover, with the flags to match; for
        // capability-less clients both are sliced off (window adjustments
        // on the shared buffer, no bytes move) so their frames are
        // byte-identical to an old daemon's. The one combination that
        // cannot be expressed as a suffix slice — offset without the
        // trace trailer sandwiched under it — pays a copy; it only
        // occurs for a durable subscriber on a pre-tracing client.
        let caps = self.conn.caps();
        let want_trace = trace.is_some() && caps & CAP_TRACE != 0;
        let want_offset = has_offset && caps & CAP_DURABLE != 0;
        let trace_len = if trace.is_some() {
            TRACE_TRAILER_LEN
        } else {
            0
        };
        let off_len = if has_offset { OFFSET_TRAILER_LEN } else { 0 };
        let (b, body) = match (want_trace, want_offset) {
            (true, true) => (format | TRACE_FLAG | OFFSET_FLAG, wire.clone()),
            (true, false) => (format | TRACE_FLAG, wire.slice(0, wire.len() - off_len)),
            (false, false) => (format, wire.slice(0, wire.len() - trace_len - off_len)),
            (false, true) if trace_len == 0 => (format | OFFSET_FLAG, wire.clone()),
            (false, true) => {
                let n = wire.len();
                let mut v = Vec::with_capacity(n - trace_len);
                v.extend_from_slice(&wire[..n - trace_len - off_len]);
                v.extend_from_slice(&wire[n - off_len..]);
                (format | OFFSET_FLAG, WireBuf::from(v))
            }
        };
        // Per-subscriber cost of an event: one refcount bump.
        let outcome = self.conn.send_traced(
            Frame::with_body(K_EVENT, self.channel, b, body),
            trace.copied(),
        );
        drop(ann);
        // Advance the lag watermark once the event is actually queued
        // (drop-oldest admitted this event at an older one's expense, so
        // it counts; a closed or stalled queue delivered nothing). The
        // offset rides the outermost trailer of the shared buffer.
        if has_offset && matches!(outcome, Enqueue::Sent | Enqueue::DroppedOldest) {
            if let Some(d) = &self.delivered {
                let n = wire.len();
                if let Ok(tail) =
                    <[u8; OFFSET_TRAILER_LEN]>::try_from(&wire[n - OFFSET_TRAILER_LEN..])
                {
                    // fetch_max: replay handoff and live delivery may race.
                    d.fetch_max(u64::from_be_bytes(tail) + 1, Ordering::Relaxed);
                }
            }
        }
        if let Some(ctx) = trace {
            let t = epoch_ns();
            let dur = t.saturating_sub(ctx.origin_ns);
            if let Some(h) = &self.hops {
                h.enqueue_ns.record(dur);
            }
            self.sink.push(TraceHop {
                trace_id: ctx.trace_id,
                span_id: ctx.span_id,
                hop: HOP_ENQUEUE,
                conn: self.conn.id,
                channel: self.channel,
                t_ns: t,
                dur_ns: dur,
            });
        }
        Ok(match outcome {
            Enqueue::Sent => DeliveryOutcome::Delivered,
            // The new event was admitted but an older one was discarded;
            // report the discard so it lands in the drop counters.
            Enqueue::DroppedOldest => DeliveryOutcome::Dropped,
            Enqueue::Closed => DeliveryOutcome::Dropped,
            // Dropping has not freed the queue for a full stall budget:
            // the writer is wedged, so degrade gracefully by cutting the
            // connection loose instead of shoveling into a dead queue.
            Enqueue::Stalled => {
                self.evicted_stalled.inc();
                self.conn.evict();
                DeliveryOutcome::Dropped
            }
        })
    }
}

// ---------------------------------------------------------------------------
// Daemon state.

struct Channels {
    by_name: HashMap<String, u32>,
    by_id: HashMap<u32, Arc<Mutex<Fanout<RemoteSubscriber>>>>,
    /// id → name, shared so the mesh forward path labels work without
    /// re-allocating the name per publish.
    name_by_id: HashMap<u32, Arc<str>>,
    /// id → home daemon's mesh index (this daemon's own index for local
    /// and reserved channels; 0 when no mesh is configured).
    home_by_id: HashMap<u32, u32>,
    next: u32,
}

/// One channel's labeled per-hop latency histograms, resolved once when
/// the channel is opened — the hot path records through `Arc`s and never
/// composes a label string.
struct ChanHops {
    /// `hop_ingress_ns{chan=…}`: publish stamp → daemon receipt.
    ingress_ns: Arc<Histogram>,
    /// `hop_enqueue_ns{chan=…}`: publish stamp → subscriber queue.
    enqueue_ns: Arc<Histogram>,
    /// `hop_flush_ns{chan=…}`: publish stamp → subscriber socket write.
    flush_ns: Arc<Histogram>,
}

/// One client identity's resume registration: the highest epoch seen and
/// the connection currently holding it.
struct Session {
    epoch: u32,
    conn: Weak<ConnShared>,
}

struct State {
    formats: Arc<FormatServer>,
    channels: Mutex<Channels>,
    /// Per-daemon metric registry; the source of [`ServStats`] and of the
    /// snapshots published on [`STATS_CHANNEL`].
    registry: Arc<Registry>,
    metrics: ServMetrics,
    shutdown: AtomicBool,
    queue_capacity: usize,
    heartbeat_ping: Duration,
    heartbeat_dead: Duration,
    stall_budget: Duration,
    /// Seed for per-connection fault plans (`None` = transparent).
    fault_seed: Option<u64>,
    /// Resume registry: client identity → highest epoch + its connection.
    /// Entries outlive connections (and daemon restarts start empty, so a
    /// replayed resume after restart simply registers fresh).
    sessions: Mutex<HashMap<u64, Session>>,
    next_conn: AtomicU64,
    /// Receive-scratch pool, shared by every connection's read loop.
    pool: Arc<BufPool>,
    /// Live connections, for per-connection stats.
    conns: Mutex<Vec<Weak<ConnShared>>>,
    /// Sequence number stamped into stats records.
    stats_seq: AtomicU64,
    /// Channel id of the pre-opened [`STATS_CHANNEL`].
    stats_channel: u32,
    /// Channel id of the pre-opened [`TRACE_CHANNEL`].
    trace_channel: u32,
    /// Channel id of the pre-opened [`TOPO_CHANNEL`].
    topo_channel: u32,
    /// Head-sampling modulus advertised to publishers (0 = off); swapped
    /// at run time by [`K_TRACE_CTL`].
    trace_mod: AtomicU32,
    /// Hop records from every tracing stage, bounded; drained by the
    /// background exporter onto [`TRACE_CHANNEL`].
    hops: Arc<TraceSink>,
    /// Per-channel hop histograms, resolved at channel open.
    chan_hops: Mutex<HashMap<u32, Arc<ChanHops>>>,
    /// The hop record's registered `(format id, layout)`, registered on
    /// first export.
    trace_format: OnceLock<Option<(u32, Arc<Layout>)>>,
    /// The topology record's `(format id, layout)` — fixed columnar
    /// schema, so one registration serves the daemon's lifetime.
    topo_format: OnceLock<Option<(u32, Arc<Layout>)>>,
    /// The daemon's black box: bounded lock-free ring of lifecycle
    /// events, served through [`K_INSPECT`] and dumped via `flight_sink`.
    flight: Arc<FlightRecorder>,
    /// Crash-safe flight dump: a dedicated segment log (fsync per batch)
    /// the recorder drains into incrementally. `None` when
    /// [`ServConfig::flight_dump`] is unset.
    flight_sink: Option<Mutex<FlightSink>>,
    /// The wire tap's in-memory half: runtime mode switch + bounded
    /// capture ring, consulted (one relaxed load) on every frame both
    /// directions. `None` when [`ServConfig::tap`] is unset — then
    /// [`K_TAP_CTL`] is a protocol error and the tap points are inert.
    tap: Option<Arc<TapState>>,
    /// The tap's on-disk half: the capture segment log the background
    /// thread drains the ring into (fsync per batch, like the flight
    /// dump). Present iff `tap` is.
    tap_sink: Option<Mutex<TapSink>>,
    /// Per-shard load gauges, indexed by shard, read by topology capture.
    shard_load: Vec<ShardLoad>,
    /// CPU each reactor shard is pinned to (`-1` = unpinned), written by
    /// the shard thread at startup, read by topology capture.
    shard_cpus: Vec<AtomicI64>,
    /// Durable consumer-lag watermarks: `(channel, conn)` → events
    /// delivered. Entries are created at subscribe time and dropped with
    /// the connection.
    lags: Mutex<HashMap<(u32, u32), Arc<AtomicU64>>>,
    /// The segment-log store behind durable channels (`None` = durability
    /// disabled; the publish path then skips every store branch on one
    /// `Option` check).
    store: Option<Arc<Store>>,
    /// Channel id → its segment log, for channels opened [`CHAN_DURABLE`].
    logs: Mutex<HashMap<u32, Arc<ChannelLog>>>,
    /// Publish → store-writer handoff (present but idle when `store` is
    /// `None`).
    store_q: Arc<StoreQueue>,
    /// Replay threads spawned for `K_SUBSCRIBE_FROM`, joined at shutdown.
    replay_threads: Mutex<Vec<JoinHandle<()>>>,
    /// Concurrency bound on those replay threads ([`ServConfig::max_replay`]).
    max_replay: usize,
    /// Replay threads currently running; a `K_SUBSCRIBE_FROM` that would
    /// push this past `max_replay` is refused with [`E_BUSY`].
    active_replays: AtomicUsize,
    /// Daemon federation state ([`ServConfig::peers`]): membership, the
    /// shard map, and one dialed link per peer. `None` = standalone.
    mesh: Option<Arc<Mesh>>,
}

impl State {
    fn new(config: &ServConfig) -> io::Result<State> {
        let registry = Arc::new(Registry::new());
        let metrics = ServMetrics::resolve(&registry);
        let pool = BufPool::new();
        // Adopt the pool's own counters: one set of books, read through.
        registry.register_counter("pool_hits", pool.hit_counter().clone());
        registry.register_counter("pool_misses", pool.miss_counter().clone());
        let formats = FormatServer::new();
        let flight = Arc::new(FlightRecorder::new(config.flight_capacity));
        if let Some(seed) = config.fault_seed {
            flight.record(FL_FAULT, 0, 0, 0, seed);
        }
        let store = match &config.durability {
            Some(cfg) => {
                let store = Store::open(cfg.clone())?;
                // Adopt the store's counters too: durability shows up on
                // the `$stats` channel (and in `pbio-stats`) for free.
                store.metrics().register(&registry);
                // Crash recovery already ran channel-by-channel inside
                // open; torn tails it truncated are flight-worthy.
                let torn = store.metrics().torn_tails.get();
                if torn > 0 {
                    flight.record(FL_REPAIR, 0, 0, 0, torn);
                }
                Some(Arc::new(store))
            }
            None => None,
        };
        let flight_sink = match &config.flight_dump {
            Some(dir) => {
                let mut cfg = StoreConfig::new(dir.clone());
                // Every drained batch is fsynced: the dump's whole point
                // is surviving an unclean death.
                cfg.flush = FlushPolicy::EveryBatch;
                let fstore = Store::open(cfg)?;
                let log = fstore.channel("flight")?;
                let layout = Layout::of(&flight_schema(), STATS_PROFILE)
                    .map_err(|e| io::Error::other(format!("flight record layout: {e}")))?;
                let layout = Arc::new(layout);
                let (format, _, _) = formats.register(&layout);
                Some(Mutex::new(FlightSink {
                    log,
                    _store: fstore,
                    format,
                    layout,
                    cursor: 0,
                }))
            }
            None => None,
        };
        let (tap, tap_sink) = match &config.tap {
            Some(cfg) => {
                let mut scfg = StoreConfig::new(cfg.dir.clone());
                // Same contract as the flight dump: a killed daemon must
                // leave a decodable capture, so every batch is fsynced.
                scfg.flush = FlushPolicy::EveryBatch;
                let tstore = Store::open(scfg)?;
                let log = tstore.channel(CAPTURE_CHANNEL)?;
                let state = Arc::new(TapState::new(cfg.mode, cfg.ring_capacity));
                if cfg.mode != TapMode::Off {
                    let (mode, param) = cfg.mode.to_wire();
                    flight.record(FL_TAP_START, 0, 0, mode, u64::from(param));
                }
                let sink = TapSink {
                    segments: log.segment_count(),
                    log,
                    _store: tstore,
                    scratch: Vec::new(),
                    dropped_seen: 0,
                };
                (Some(state), Some(Mutex::new(sink)))
            }
            None => (None, None),
        };
        let shard_cpus = (0..effective_shards(config))
            .map(|_| AtomicI64::new(-1))
            .collect();
        let shard_load = (0..effective_shards(config))
            .map(|i| {
                let v = i.to_string();
                ShardLoad {
                    conns: registry.gauge_labeled("serv_shard_conns", "shard", &v),
                    ready: registry.gauge_labeled("serv_shard_ready", "shard", &v),
                    wakeups: registry.counter_labeled("serv_shard_wakeups", "shard", &v),
                }
            })
            .collect();
        let mesh = config
            .peers
            .as_ref()
            .map(|m| Arc::new(Mesh::new(m.index, m.size)));
        let mut state = State {
            formats,
            channels: Mutex::new(Channels {
                by_name: HashMap::new(),
                by_id: HashMap::new(),
                name_by_id: HashMap::new(),
                home_by_id: HashMap::new(),
                next: 0,
            }),
            registry,
            metrics,
            shutdown: AtomicBool::new(false),
            queue_capacity: config.queue_capacity,
            heartbeat_ping: config.heartbeat_ping,
            heartbeat_dead: config.heartbeat_dead,
            stall_budget: config.stall_budget,
            fault_seed: config.fault_seed,
            sessions: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
            pool,
            conns: Mutex::new(Vec::new()),
            stats_seq: AtomicU64::new(0),
            stats_channel: 0,
            trace_channel: 0,
            topo_channel: 0,
            trace_mod: AtomicU32::new(config.trace.sample_mod),
            hops: Arc::new(TraceSink::new(config.trace.sink_capacity)),
            chan_hops: Mutex::new(HashMap::new()),
            trace_format: OnceLock::new(),
            topo_format: OnceLock::new(),
            flight,
            flight_sink,
            tap,
            tap_sink,
            shard_load,
            shard_cpus,
            lags: Mutex::new(HashMap::new()),
            store,
            logs: Mutex::new(HashMap::new()),
            store_q: Arc::new(StoreQueue::new(4096)),
            replay_threads: Mutex::new(Vec::new()),
            max_replay: config.max_replay.max(1),
            active_replays: AtomicUsize::new(0),
            mesh,
        };
        state.stats_channel = state.open_channel(STATS_CHANNEL);
        state.trace_channel = state.open_channel(TRACE_CHANNEL);
        state.topo_channel = state.open_channel(TOPO_CHANNEL);
        Ok(state)
    }

    fn track(&self, conn: &Arc<ConnShared>) {
        let mut conns = self.conns.lock().unwrap_or_else(|p| p.into_inner());
        conns.retain(|w| w.strong_count() > 0);
        conns.push(Arc::downgrade(conn));
    }

    fn open_channel(&self, name: &str) -> u32 {
        // Non-durable open cannot fail.
        self.open_channel_flags(name, 0).unwrap()
    }

    /// Create-or-open `name`; [`CHAN_DURABLE`] in `flags` additionally
    /// attaches the channel to its segment log (creating it, running
    /// crash recovery if it already exists on disk). Durability is
    /// sticky: once any opener passed the flag, later plain opens of the
    /// same name share the durable channel.
    fn open_channel_flags(&self, name: &str, flags: u32) -> Result<u32, String> {
        let id = self.open_channel_inner(name);
        if flags & CHAN_DURABLE != 0 {
            let Some(store) = &self.store else {
                return Err(format!(
                    "channel {name:?} requested durability, but this daemon has no store configured"
                ));
            };
            let mut logs = self.logs.lock().unwrap_or_else(|p| p.into_inner());
            if let std::collections::hash_map::Entry::Vacant(e) = logs.entry(id) {
                let log = store
                    .channel(name)
                    .map_err(|e| format!("opening segment log for {name:?}: {e}"))?;
                e.insert(log);
            }
        }
        Ok(id)
    }

    /// The segment log for channel `id`, if it was opened durable.
    fn log(&self, id: u32) -> Option<Arc<ChannelLog>> {
        self.logs
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(&id)
            .cloned()
    }

    fn open_channel_inner(&self, name: &str) -> u32 {
        let mut chans = self.channels.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(&id) = chans.by_name.get(name) {
            return id;
        }
        let id = chans.next;
        chans.next += 1;
        let mut fanout = Fanout::new();
        fanout.set_obs(FanoutObs {
            fanout_ns: self.metrics.fanout_ns.clone(),
            filter_ns: self.metrics.filter_ns.clone(),
            dropped: self.metrics.dropped.clone(),
            trace: Some(FanoutTraceObs {
                sink: self.hops.clone(),
                channel: id,
                hop_filter_ns: self
                    .registry
                    .histogram_labeled("hop_filter_ns", "chan", name),
            }),
        });
        chans.by_name.insert(name.to_owned(), id);
        chans.by_id.insert(id, Arc::new(Mutex::new(fanout)));
        chans.name_by_id.insert(id, Arc::from(name));
        chans
            .home_by_id
            .insert(id, self.mesh.as_ref().map_or(0, |m| m.home(name)));
        // Label the per-hop histograms once, here: the publish, enqueue
        // and flush paths record through these `Arc`s without ever
        // touching a string.
        self.chan_hops
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert(
                id,
                Arc::new(ChanHops {
                    ingress_ns: self
                        .registry
                        .histogram_labeled("hop_ingress_ns", "chan", name),
                    enqueue_ns: self
                        .registry
                        .histogram_labeled("hop_enqueue_ns", "chan", name),
                    flush_ns: self
                        .registry
                        .histogram_labeled("hop_flush_ns", "chan", name),
                }),
            );
        id
    }

    /// A channel's `(name, home index)` for mesh routing — both shared
    /// copies, so the publish path pays two map hits and no allocation.
    fn channel_route(&self, id: u32) -> Option<(Arc<str>, u32)> {
        let chans = self.channels.lock().unwrap_or_else(|p| p.into_inner());
        let name = chans.name_by_id.get(&id)?.clone();
        let home = *chans.home_by_id.get(&id)?;
        Some((name, home))
    }

    /// A fresh format registration, visible mesh-wide: gossip it to
    /// every dialed link and every inbound `CAP_PEER` connection except
    /// the one it arrived on. The far side's registry dedups, so the
    /// echo terminates after one round.
    fn broadcast_format(&self, id: u32, exclude_conn: Option<u32>) {
        let Some(mesh) = &self.mesh else { return };
        mesh.gossip(id);
        let Some(meta) = self.formats.meta(id) else {
            return;
        };
        let peers: Vec<Arc<ConnShared>> = {
            let conns = self.conns.lock().unwrap_or_else(|p| p.into_inner());
            conns
                .iter()
                .filter_map(Weak::upgrade)
                .filter(|c| {
                    c.caps() & CAP_PEER != 0
                        && c.alive.load(Ordering::Relaxed)
                        && Some(c.id) != exclude_conn
                })
                .collect()
        };
        for c in peers {
            c.send(Frame::with_body(
                K_FORMAT,
                id,
                0,
                WireBuf::from(meta.clone()),
            ));
        }
    }

    fn chan_hops(&self, id: u32) -> Option<Arc<ChanHops>> {
        self.chan_hops
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(&id)
            .cloned()
    }

    /// The hop record's daemon-global format, registered on first use
    /// (`None` is sticky if the schema cannot lay out, which cannot
    /// happen for the all-scalar hop record).
    fn trace_format(&self) -> Option<(u32, Arc<Layout>)> {
        self.trace_format
            .get_or_init(|| {
                let layout = Arc::new(Layout::of(&hop_schema(), STATS_PROFILE).ok()?);
                let (format, _, _) = self.formats.register(&layout);
                Some((format, layout))
            })
            .clone()
    }

    /// The topology record's daemon-global format: one fixed columnar
    /// schema (every section is a capped array plus a count), so the id
    /// never varies with daemon load and is registered exactly once.
    fn topo_format(&self) -> Option<(u32, Arc<Layout>)> {
        self.topo_format
            .get_or_init(|| {
                let layout = Arc::new(Layout::of(&topo_schema(), STATS_PROFILE).ok()?);
                let (format, _, _) = self.formats.register(&layout);
                Some((format, layout))
            })
            .clone()
    }

    /// The name a channel id was opened under, for metric labels.
    fn channel_name(&self, id: u32) -> Option<String> {
        let chans = self.channels.lock().unwrap_or_else(|p| p.into_inner());
        chans
            .by_name
            .iter()
            .find(|(_, &v)| v == id)
            .map(|(k, _)| k.clone())
    }

    /// Register (or fetch) the delivered watermark for one durable
    /// subscriber, seeded at `init` when new.
    fn lag_entry(&self, chan: u32, conn: u32, init: u64) -> Arc<AtomicU64> {
        let mut lags = self.lags.lock().unwrap_or_else(|p| p.into_inner());
        lags.entry((chan, conn))
            .or_insert_with(|| Arc::new(AtomicU64::new(init)))
            .clone()
    }

    /// Drop every lag watermark belonging to a dead connection, zeroing
    /// its gauges so the last reading doesn't linger as live state.
    fn drop_lag_entries(&self, conn: u32) {
        let removed: Vec<u32> = {
            let mut lags = self.lags.lock().unwrap_or_else(|p| p.into_inner());
            let doomed: Vec<(u32, u32)> =
                lags.keys().filter(|(_, c)| *c == conn).copied().collect();
            for k in &doomed {
                lags.remove(k);
            }
            doomed.into_iter().map(|(chan, _)| chan).collect()
        };
        for chan in removed {
            if let Some(name) = self.channel_name(chan) {
                self.registry
                    .gauge_labeled2(
                        "serv_consumer_lag",
                        "chan",
                        &name,
                        "conn",
                        &conn.to_string(),
                    )
                    .set(0);
            }
        }
    }

    /// Current consumer-lag watermarks, refreshing the
    /// `serv_consumer_lag{chan,conn}` gauges as a side effect — called
    /// from every stats encode and topology capture, so the gauges ride
    /// both `$stats` and `$topo`. Replay-in-progress consumers are
    /// included: their watermark advances as the replay streams.
    fn lag_watermarks(&self) -> Vec<TopoLag> {
        let entries: Vec<((u32, u32), Arc<AtomicU64>)> = {
            let lags = self.lags.lock().unwrap_or_else(|p| p.into_inner());
            lags.iter().map(|(k, v)| (*k, v.clone())).collect()
        };
        let mut out = Vec::with_capacity(entries.len());
        for ((chan, conn), delivered) in entries {
            let Some(log) = self.log(chan) else { continue };
            let lag = TopoLag {
                chan,
                conn,
                head: log.head(),
                delivered: delivered.load(Ordering::Relaxed),
            };
            if let Some(name) = self.channel_name(chan) {
                self.registry
                    .gauge_labeled2(
                        "serv_consumer_lag",
                        "chan",
                        &name,
                        "conn",
                        &conn.to_string(),
                    )
                    .set(i64::try_from(lag.lag()).unwrap_or(i64::MAX));
            }
            out.push(lag);
        }
        out.sort_by_key(|l| (l.chan, l.conn));
        out
    }

    /// Capture the daemon's live topology: every lock is taken briefly
    /// and in a fixed order (conns, then channels, then per-fanout, then
    /// lags), never nested with the publish path's channel→fanout order
    /// reversed — capture is safe to run concurrently with full load.
    fn capture(&self) -> TopoSnapshot {
        let mut topo = TopoSnapshot {
            t_ns: epoch_ns(),
            ..TopoSnapshot::default()
        };
        {
            let conns = self.conns.lock().unwrap_or_else(|p| p.into_inner());
            for c in conns.iter().filter_map(Weak::upgrade) {
                if !c.alive.load(Ordering::Relaxed) {
                    continue;
                }
                topo.conns.push(TopoConn {
                    conn: c.id,
                    shard: c.shard_idx,
                    caps: c.caps(),
                    queue_depth: c.outbound.event_backlog() as u64,
                    bytes_sent: c.counters.bytes_sent.load(Ordering::Relaxed),
                    frames_sent: c.counters.frames_sent.load(Ordering::Relaxed),
                    tapped: c.counters.frames_tapped.load(Ordering::Relaxed),
                    last_active_ns: c.last_active_ns.load(Ordering::Relaxed),
                });
            }
        }
        topo.conns.sort_by_key(|c| c.conn);
        type ChanRow = (String, u32, Arc<Mutex<Fanout<RemoteSubscriber>>>);
        let chans: Vec<ChanRow> = {
            let chans = self.channels.lock().unwrap_or_else(|p| p.into_inner());
            chans
                .by_name
                .iter()
                .filter_map(|(name, &id)| {
                    chans.by_id.get(&id).map(|f| (name.clone(), id, f.clone()))
                })
                .collect()
        };
        for (name, id, fanout) in chans {
            let (subscribers, publishes) = {
                let f = fanout.lock().unwrap_or_else(|p| p.into_inner());
                (f.active_count() as u64, f.stats().published)
            };
            let log = self.log(id);
            let home = self.mesh.as_ref().map_or(0, |m| m.home(&name));
            topo.channels.push(TopoChannel {
                id,
                name,
                subscribers,
                publishes,
                durable: log.is_some(),
                head: log.as_ref().map_or(0, |l| l.head()),
                segments: log.as_ref().map_or(0, |l| l.segment_count() as u64),
                disk_bytes: log.as_ref().and_then(|l| l.disk_bytes().ok()).unwrap_or(0),
                home,
            });
        }
        topo.channels.sort_by_key(|c| c.id);
        if let Some(mesh) = &self.mesh {
            for p in mesh.peer_stats() {
                topo.peers.push(TopoPeer {
                    peer: p.peer,
                    connected: p.connected,
                    relay_tx: p.relay_tx,
                    relay_rx: p.relay_rx,
                    relay_dropped: p.relay_dropped,
                    pending: p.pending,
                    last_rx_ns: p.last_rx_ns,
                });
            }
        }
        for (i, s) in self.shard_load.iter().enumerate() {
            topo.shards.push(TopoShard {
                shard: i as u32,
                conns: s.conns.get(),
                ready: s.ready.get(),
                wakeups: s.wakeups.get(),
                cpu: self.shard_cpus[i].load(Ordering::Relaxed),
            });
        }
        topo.lags = self.lag_watermarks();
        topo.flight = self.flight.recent();
        topo.conn_total = topo.conns.len() as u64;
        topo.chan_total = topo.channels.len() as u64;
        topo.lag_total = topo.lags.len() as u64;
        topo.flight_total = self.flight.recorded();
        topo
    }

    /// Encode one topology capture as a PBIO record under the fixed
    /// `$topo` format; `(format id, NDR bytes)` like [`State::encode_stats`].
    fn encode_topo(&self) -> Option<(u32, WireBuf)> {
        let (format, layout) = self.topo_format()?;
        let topo = self.capture();
        let mut buf = self.pool.get(layout.size());
        encode_native_into(&topo_value(&topo), &layout, &mut buf).ok()?;
        Some((format, WireBuf::copy_from(&buf)))
    }

    /// Drain new flight events into the dump log. Each batch is fsynced
    /// by the sink's flush policy, so however the process dies after this
    /// returns, everything drained so far is decodable; an abrupt death
    /// mid-append leaves a torn tail the next open CRC-recovers.
    fn drain_flight(&self) {
        let Some(sink) = &self.flight_sink else {
            return;
        };
        let mut sink = sink.lock().unwrap_or_else(|p| p.into_inner());
        let (events, next) = self.flight.drain_since(sink.cursor);
        if events.is_empty() {
            sink.cursor = next;
            return;
        }
        let mut bufs: Vec<Vec<u8>> = Vec::with_capacity(events.len());
        for ev in &events {
            let mut buf = Vec::with_capacity(sink.layout.size());
            if encode_native_into(&flight_value(ev), &sink.layout, &mut buf).is_ok() {
                bufs.push(buf);
            }
        }
        let start = sink.log.reserve(bufs.len() as u64);
        let recs: Vec<Append<'_>> = bufs
            .iter()
            .enumerate()
            .map(|(i, b)| Append {
                offset: start + i as u64,
                format: sink.format,
                payload: b,
            })
            .collect();
        if sink
            .log
            .append_batch(&recs, &mut |id| self.formats.meta(id))
            .is_ok()
        {
            sink.cursor = next;
        }
    }

    /// Drain the tap ring into the capture segment log. Same crash
    /// contract as [`State::drain_flight`]: every appended batch is
    /// fsynced, a death mid-append leaves a CRC-recoverable torn tail.
    /// Rotations and ring overflow observed since the last drain are
    /// recorded into the flight recorder, so `$topo` narrates the
    /// capture's own lifecycle.
    fn drain_tap(&self) {
        let (Some(tap), Some(sink)) = (&self.tap, &self.tap_sink) else {
            return;
        };
        let mut sink = sink.lock().unwrap_or_else(|p| p.into_inner());
        let sink = &mut *sink;
        sink.scratch.clear();
        tap.drain(&mut sink.scratch);
        if !sink.scratch.is_empty() {
            let mut bufs: Vec<Vec<u8>> = Vec::with_capacity(sink.scratch.len());
            for entry in &sink.scratch {
                let mut buf = Vec::with_capacity(13 + FRAME_HEADER_SIZE + entry.body.len());
                entry.encode_into(&mut buf);
                bufs.push(buf);
            }
            let start = sink.log.reserve(bufs.len() as u64);
            let recs: Vec<Append<'_>> = bufs
                .iter()
                .enumerate()
                .map(|(i, b)| Append {
                    offset: start + i as u64,
                    // Raw capture bytes: no layout, no meta record.
                    format: FORMAT_RAW,
                    payload: b,
                })
                .collect();
            let _ = sink
                .log
                .append_batch(&recs, &mut |id| self.formats.meta(id));
            sink.scratch.clear();
        }
        let segments = sink.log.segment_count();
        if segments > sink.segments {
            self.flight.record(FL_TAP_ROTATE, 0, 0, 0, segments as u64);
        }
        sink.segments = segments;
        let dropped = tap.dropped();
        if dropped > sink.dropped_seen {
            self.flight.record(FL_TAP_DROP, 0, 0, 0, dropped);
            sink.dropped_seen = dropped;
        }
    }

    /// Encode one snapshot of the daemon's registry (merged with the
    /// process-global module metrics) as a PBIO record: generate its
    /// schema, register the layout like any client format (equal metric
    /// sets dedup to the same id), and return `(format id, NDR bytes)`.
    fn encode_stats(&self) -> Option<(u32, WireBuf)> {
        let seq = self.stats_seq.fetch_add(1, Ordering::Relaxed);
        // Refresh the consumer-lag gauges first so they ride this very
        // snapshot, not the previous one.
        let _ = self.lag_watermarks();
        let mut snap = self.registry.snapshot();
        snap.merge_from(&Registry::global().snapshot());
        let t = epoch_ns();
        let header = StatsHeader {
            role: ROLE_DAEMON,
            id: 0,
            seq,
            t_ns: t,
            snapshot_ns: t,
        };
        let schema = stats_schema(&snap);
        let layout = Arc::new(Layout::of(&schema, STATS_PROFILE).ok()?);
        let (format, _, _) = self.formats.register(&layout);
        let value = stats_value(&header, &snap);
        let mut buf = self.pool.get(layout.size());
        encode_native_into(&value, &layout, &mut buf).ok()?;
        Some((format, WireBuf::copy_from(&buf)))
    }

    fn channel(&self, id: u32) -> Option<Arc<Mutex<Fanout<RemoteSubscriber>>>> {
        self.channels
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .by_id
            .get(&id)
            .cloned()
    }
}

/// What a peer link needs from its daemon: the format registry (for
/// gossip) and a fan-out injection point (for relayed events).
impl MeshHost for State {
    fn register_meta(&self, meta: &[u8]) -> Option<(u32, bool)> {
        let (id, _, fresh) = self.formats.register_meta(meta).ok()?;
        if fresh {
            // A layout learned over one link is news to every other
            // peer too.
            self.broadcast_format(id, None);
        }
        Some((id, fresh))
    }

    fn format_meta(&self, id: u32) -> Option<Arc<[u8]>> {
        self.formats.meta(id)
    }

    fn format_count(&self) -> u32 {
        self.formats.len() as u32
    }

    /// Fan a relayed event out locally: the mesh's relay fan-out
    /// property — one inter-daemon frame, N refcount-bump deliveries —
    /// rides the same [`Fanout`] as a local publish. `format` carries
    /// the local id plus trailer flags; the flags describe what is
    /// still on `body`, and per-subscriber slicing happens in
    /// [`RemoteSubscriber::deliver`] as usual.
    fn inject_event(&self, chan: u32, format: u32, body: WireBuf, _peer: u32) {
        let Some(fanout) = self.channel(chan) else {
            return;
        };
        let traced = format & TRACE_FLAG != 0;
        let has_offset = format & OFFSET_FLAG != 0;
        let bare = format & !(TRACE_FLAG | OFFSET_FLAG);
        let off_len = if has_offset { OFFSET_TRAILER_LEN } else { 0 };
        let ctx = if traced && body.len() >= off_len + TRACE_TRAILER_LEN {
            let t = &body[body.len() - off_len - TRACE_TRAILER_LEN..body.len() - off_len];
            TraceCtx::decode(t).filter(|c| c.sampled())
        } else {
            None
        };
        // A flagged-but-undecodable trailer must not leak into payload
        // bytes: strip it (the inner-trailer removal pays a copy when an
        // offset trailer sits outside it, like the deliver path's rare
        // case).
        let body = if traced && ctx.is_none() && body.len() >= off_len + TRACE_TRAILER_LEN {
            if off_len == 0 {
                body.slice(0, body.len() - TRACE_TRAILER_LEN)
            } else {
                let n = body.len();
                let mut v = Vec::with_capacity(n - TRACE_TRAILER_LEN);
                v.extend_from_slice(&body[..n - off_len - TRACE_TRAILER_LEN]);
                v.extend_from_slice(&body[n - off_len..]);
                WireBuf::from(v)
            }
        } else {
            body
        };
        self.metrics.events_in.inc();
        let mut fanout = fanout.lock().unwrap_or_else(|p| p.into_inner());
        let before = fanout.stats();
        let pub_fmt = if has_offset { bare | OFFSET_FLAG } else { bare };
        let _ = fanout.publish_traced(pub_fmt, &body, ctx.as_ref());
        let after = fanout.stats();
        self.metrics
            .filtered_at_source
            .add(after.filtered_out - before.filtered_out);
    }

    fn relay_hop(&self, ctx: &TraceCtx, chan: u32, peer: u32) {
        let t = epoch_ns();
        self.hops.push(TraceHop {
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            hop: HOP_RELAY,
            conn: peer,
            channel: chan,
            t_ns: t,
            dur_ns: t.saturating_sub(ctx.origin_ns),
        });
    }
}

/// The event-channel daemon. Binding spawns the accept loop and the
/// reactor shards; dropping (or calling [`ServDaemon::shutdown`]) stops
/// them and joins every thread.
pub struct ServDaemon {
    state: Arc<State>,
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    stats_thread: Option<JoinHandle<()>>,
    store_thread: Option<JoinHandle<()>>,
    shard_threads: Vec<JoinHandle<()>>,
    shards: Vec<Arc<ShardHandle>>,
}

impl ServDaemon {
    /// Bind with default configuration.
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<ServDaemon> {
        ServDaemon::bind_with(addr, ServConfig::default())
    }

    /// Bind and start serving. `addr` may be `"127.0.0.1:0"` to let the
    /// OS pick a port — see [`ServDaemon::local_addr`].
    pub fn bind_with(addr: impl ToSocketAddrs, config: ServConfig) -> io::Result<ServDaemon> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(State::new(&config)?);
        // Dial the configured mesh peers. Links reconnect on their own,
        // so member start order doesn't matter: whoever comes up last
        // still converges.
        if let (Some(mesh), Some(mcfg)) = (&state.mesh, &config.peers) {
            let host: Arc<dyn MeshHost> = state.clone();
            for p in &mcfg.peers {
                mesh.add_peer(p.index, p.addr.clone(), host.clone());
            }
        }
        let store_thread = match &state.store {
            Some(_) => {
                let store_state = state.clone();
                Some(
                    std::thread::Builder::new()
                        .name("pbio-serv-store".into())
                        .spawn(move || store_loop(store_state))?,
                )
            }
            None => None,
        };
        let shard_count = effective_shards(&config);
        let mut shards = Vec::with_capacity(shard_count);
        let mut shard_threads = Vec::with_capacity(shard_count);
        for i in 0..shard_count {
            let (p, waker) = poller()?;
            let (tx, rx) = unbounded();
            let handle = Arc::new(ShardHandle {
                tx,
                waker,
                wake_pending: AtomicBool::new(false),
            });
            let sm = ShardMetrics::resolve(&state.registry, i);
            let shard_state = state.clone();
            let shard_handle = handle.clone();
            let pin_to = config.pin_shards.then(|| {
                let parallelism = std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1);
                i % parallelism
            });
            shard_threads.push(
                std::thread::Builder::new()
                    .name(format!("pbio-serv-shard{i}"))
                    .spawn(move || {
                        if let Some(cpu) = pin_to {
                            // Best-effort: a refused mask (cgroup cpuset,
                            // non-Linux host) leaves the shard unpinned
                            // and the snapshot reporting -1.
                            if pbio_net::affinity::pin_current_thread(cpu).is_ok() {
                                shard_state.shard_cpus[i].store(cpu as i64, Ordering::Relaxed);
                            }
                        }
                        reactor_loop(shard_state, shard_handle, rx, p, sm)
                    })?,
            );
            shards.push(handle);
        }
        let accept_state = state.clone();
        let accept_shards = shards.clone();
        let accept_thread = std::thread::Builder::new()
            .name("pbio-serv-accept".into())
            .spawn(move || accept_loop(listener, accept_state, accept_shards))?;
        let stats_thread = if config.stats_interval.is_some()
            || config.trace.publish_interval.is_some()
            || state.flight_sink.is_some()
            || state.tap_sink.is_some()
        {
            let bg_state = state.clone();
            let stats_interval = config.stats_interval;
            let trace_interval = config.trace.publish_interval;
            Some(
                std::thread::Builder::new()
                    .name("pbio-serv-stats".into())
                    .spawn(move || background_loop(bg_state, stats_interval, trace_interval))?,
            )
        } else {
            None
        };
        Ok(ServDaemon {
            state,
            addr,
            accept_thread: Some(accept_thread),
            stats_thread,
            store_thread,
            shard_threads,
            shards,
        })
    }

    /// How many threads this daemon is running right now: the accept
    /// loop, the reactor shards, the optional stats and store threads,
    /// and any in-flight replay streams. Notably *not* a function of the
    /// connection count — the property the reactor core exists for.
    pub fn thread_count(&self) -> usize {
        1 + self.shard_threads.len()
            + usize::from(self.stats_thread.is_some())
            + usize::from(self.store_thread.is_some())
            + self.state.active_replays.load(Ordering::Relaxed)
    }

    /// The address the daemon is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared format registry (ids here are the protocol's format ids).
    pub fn formats(&self) -> &Arc<FormatServer> {
        &self.state.formats
    }

    /// Current counters (a fixed-field view of [`ServDaemon::registry`]).
    pub fn stats(&self) -> ServStats {
        self.state.metrics.snapshot(&self.state.pool)
    }

    /// The daemon's metric registry: every [`ServStats`] field plus the
    /// latency histograms, as published on the `$stats` channel.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.state.registry
    }

    /// The segment-log store behind durable channels, when this daemon
    /// was configured with [`ServConfig::durability`] — for inspecting
    /// durability counters, per-channel logs, and bytes on disk.
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.state.store.as_ref()
    }

    /// Current head-sampling modulus advertised to new sessions (0 =
    /// off). Changed by [`K_TRACE_CTL`] or set at bind time via
    /// [`TraceConfig::sample_mod`].
    pub fn trace_sampling(&self) -> u32 {
        self.state.trace_mod.load(Ordering::Relaxed)
    }

    /// A live topology snapshot — the same capture [`K_INSPECT`] answers
    /// and the `$topo` channel pushes: per-connection queue depths,
    /// per-channel fan-out and durable-log footprint, per-shard load,
    /// consumer-lag watermarks, and the flight-recorder tail.
    pub fn topology(&self) -> TopoSnapshot {
        self.state.capture()
    }

    /// The daemon's flight recorder: the bounded ring of lifecycle
    /// events behind [`K_INSPECT`] dumps and [`ServConfig::flight_dump`].
    pub fn flight(&self) -> &Arc<FlightRecorder> {
        &self.state.flight
    }

    /// This daemon's mesh index, when it is a federation member.
    pub fn mesh_index(&self) -> Option<u32> {
        self.state.mesh.as_ref().map(|m| m.index)
    }

    /// Dial an additional mesh peer at run time (a late joiner, or a
    /// test that only learns ports after binding). Requires the daemon
    /// to have been configured with [`ServConfig::peers`]; returns
    /// false on a standalone daemon. Re-adding an index replaces the
    /// old link.
    pub fn connect_peer(&self, index: u32, addr: impl Into<String>) -> bool {
        let Some(mesh) = &self.state.mesh else {
            return false;
        };
        let host: Arc<dyn MeshHost> = self.state.clone();
        mesh.add_peer(index, addr.into(), host);
        true
    }

    /// Test hook: sever (or heal) the dialed link to `index`. While
    /// partitioned the link neither sends nor redials; forwards park in
    /// its bounded pending queue and drain on heal. Returns false for
    /// an unknown peer or a standalone daemon.
    pub fn partition_peer(&self, index: u32, partitioned: bool) -> bool {
        self.state
            .mesh
            .as_ref()
            .is_some_and(|m| m.set_partitioned(index, partitioned))
    }

    /// Per-peer relay counters for every dialed link, sorted by peer
    /// index — the same numbers the `$topo` peers section carries.
    pub fn peer_stats(&self) -> Vec<PeerStats> {
        self.state
            .mesh
            .as_ref()
            .map(|m| m.peer_stats())
            .unwrap_or_default()
    }

    /// Writer-side counters for each connection still alive.
    pub fn conn_stats(&self) -> Vec<ConnStats> {
        let conns = self.state.conns.lock().unwrap_or_else(|p| p.into_inner());
        conns
            .iter()
            .filter_map(|w| w.upgrade())
            .map(|c| c.stats())
            .collect()
    }

    /// Stop accepting, disconnect everyone, and join all threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.state.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.state.flight.record(FL_SHUTDOWN, 0, 0, 0, 0);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        if let Some(h) = self.stats_thread.take() {
            let _ = h.join();
        }
        // Peer links observe the mesh shutdown flag within one tick.
        if let Some(mesh) = &self.state.mesh {
            mesh.stop();
        }
        // Reactors check the shutdown flag at the top of every wakeup;
        // fire the wakers so none of them sits out its poll timeout.
        for s in &self.shards {
            s.waker.wake();
        }
        for h in self.shard_threads.drain(..) {
            let _ = h.join();
        }
        // Replay threads observe the shutdown flag (or their dead conns)
        // and exit; then close the store queue so the writer drains every
        // accepted append, acks what it can, and stops.
        let replays: Vec<_> = {
            let mut r = self
                .state
                .replay_threads
                .lock()
                .unwrap_or_else(|p| p.into_inner());
            r.drain(..).collect()
        };
        for h in replays {
            let _ = h.join();
        }
        self.state.store_q.close();
        if let Some(h) = self.store_thread.take() {
            let _ = h.join();
        }
        if let Some(store) = &self.state.store {
            let _ = store.sync_all();
        }
        // Final flight and capture flushes: teardown events recorded
        // during this stop (evictions, the shutdown marker itself) and
        // the tail of the tap ring reach their dumps.
        self.state.drain_flight();
        self.state.drain_tap();
    }
}

impl Drop for ServDaemon {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: TcpListener, state: Arc<State>, shards: Vec<Arc<ShardHandle>>) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                if state.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let _ = stream.set_nodelay(true);
        // Nonblocking before the clones: O_NONBLOCK lives on the shared
        // open file description, so both halves inherit it.
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let conn_seq = state.next_conn.fetch_add(1, Ordering::Relaxed);
        let conn_id = conn_seq as u32;
        // One fd per connection: the read wrapper, the write wrapper and
        // the eviction handle all share a single socket (TcpStream I/O
        // takes `&self`). Connection capacity is bounded by the fd
        // rlimit, so a dup per half would cost a third of it.
        let sock = Arc::new(stream);
        // Fault mode wraps both halves of the connection in deterministic
        // injection, with the plan split per direction so read and write
        // offsets advance independently. The plan derives from (seed,
        // conn sequence): every connection of a seeded run misbehaves its
        // own reproducible way. Unseeded, both wrappers are pass-through
        // enums.
        let plan = state.fault_seed.map(|s| FaultPlan::for_conn(s, conn_seq));
        let fault_log = FaultLog::new();
        let read_plan = plan.as_ref().map(FaultPlan::read_half);
        let write_plan = plan.as_ref().map(FaultPlan::write_half);
        let rd = MaybeFaulty::new(SharedTcp(sock.clone()), read_plan, fault_log.clone());
        let wr = MaybeFaulty::new(SharedTcp(sock.clone()), write_plan, fault_log);
        let shard_idx = (conn_seq as usize % shards.len()) as u32;
        let shard = shards[shard_idx as usize].clone();
        let conn = Arc::new(ConnShared {
            id: conn_id,
            outbound: Outbound::new(state.queue_capacity, state.stall_budget),
            announced: Mutex::new(HashSet::new()),
            alive: AtomicBool::new(true),
            counters: ConnCounters::default(),
            caps: AtomicU32::new(0),
            raw: Mutex::new(Some(sock)),
            durable_subs: Mutex::new(Vec::new()),
            shard: shard.clone(),
            shard_idx,
            last_active_ns: AtomicU64::new(epoch_ns()),
            write_queued: AtomicBool::new(false),
        });
        state.track(&conn);
        let fd = source_of(rd.get_ref());
        shard.notify(ShardMsg::NewConn(Box::new(NewConn { conn, rd, wr, fd })));
    }
}

/// Periodically publish the daemon's registry snapshot on the reserved
/// stats channel and drain completed trace hops onto the reserved trace
/// channel — both through the same fan-out path as any client event:
/// subscribers get the records announced, filtered, queued, and batched
/// exactly like application data.
fn background_loop(
    state: Arc<State>,
    stats_interval: Option<Duration>,
    trace_interval: Option<Duration>,
) {
    let shortest = [stats_interval, trace_interval]
        .into_iter()
        .flatten()
        .min()
        .unwrap_or(POLL_INTERVAL);
    let step = shortest.min(POLL_INTERVAL).max(Duration::from_millis(1));
    let mut since_stats = Duration::ZERO;
    let mut since_trace = Duration::ZERO;
    loop {
        std::thread::sleep(step);
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        since_stats += step;
        since_trace += step;
        if let Some(interval) = stats_interval {
            if since_stats >= interval {
                since_stats = Duration::ZERO;
                publish_stats(&state);
                publish_topo(&state);
            }
        }
        if let Some(interval) = trace_interval {
            if since_trace >= interval {
                since_trace = Duration::ZERO;
                publish_trace(&state);
            }
        }
        // Incremental flight and capture dumps on every tick: the window
        // an unclean death can lose is one step, not the whole ring.
        state.drain_flight();
        state.drain_tap();
    }
}

/// True when the reserved channel has at least one live subscriber.
/// Snapshot publishers check this *before* encoding: with nobody
/// listening the daemon skips the whole capture/encode, and the skip is
/// counted in `serv_stats_suppressed`.
fn reserved_has_audience(state: &State, chan: u32) -> bool {
    let Some(fanout) = state.channel(chan) else {
        return false;
    };
    let n = fanout
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .active_count();
    if n == 0 {
        state.metrics.stats_suppressed.inc();
        return false;
    }
    true
}

fn publish_stats(state: &State) {
    if !reserved_has_audience(state, state.stats_channel) {
        return;
    }
    let Some((format, wire)) = state.encode_stats() else {
        return;
    };
    let Some(fanout) = state.channel(state.stats_channel) else {
        return;
    };
    let mut fanout = fanout.lock().unwrap_or_else(|p| p.into_inner());
    let _ = fanout.publish_shared(format, &wire);
    state.registry.trace("stats_publish", format as u64);
}

/// Publish one topology capture on the reserved [`TOPO_CHANNEL`] — the
/// push side of [`K_INSPECT`], riding the same fan-out as any event.
fn publish_topo(state: &State) {
    if !reserved_has_audience(state, state.topo_channel) {
        return;
    }
    let Some((format, wire)) = state.encode_topo() else {
        return;
    };
    let Some(fanout) = state.channel(state.topo_channel) else {
        return;
    };
    let mut fanout = fanout.lock().unwrap_or_else(|p| p.into_inner());
    let _ = fanout.publish_shared(format, &wire);
}

/// Drain the hop sink and publish each record on [`TRACE_CHANNEL`]:
/// self-describing PBIO records, consumed by `pbio-trace` (or any raw
/// subscriber) with no schema agreed out of band. With no subscriber the
/// drain (and every encode) is skipped; hops keep accumulating in the
/// bounded sink, oldest evicted first.
fn publish_trace(state: &State) {
    if state.hops.is_empty() {
        return;
    }
    if !reserved_has_audience(state, state.trace_channel) {
        return;
    }
    let Some((format, layout)) = state.trace_format() else {
        return;
    };
    let Some(fanout) = state.channel(state.trace_channel) else {
        return;
    };
    let mut buf = state.pool.get(layout.size());
    for hop in state.hops.drain() {
        buf.clear();
        if encode_native_into(&hop_value(&hop), &layout, &mut buf).is_err() {
            continue;
        }
        let wire = WireBuf::copy_from(&buf);
        let mut fanout = fanout.lock().unwrap_or_else(|p| p.into_inner());
        let _ = fanout.publish_shared(format, &wire);
    }
}

// ---------------------------------------------------------------------------
// Reactor shards: the event-driven connection core.

/// A reactor shard's cross-thread face: the message channel plus the
/// waker that interrupts its poll, with a latch so message bursts
/// collapse into one wakeup.
struct ShardHandle {
    tx: Sender<ShardMsg>,
    waker: Waker,
    /// Set when a wake is already pending; reset by the reactor at the
    /// top of every wakeup, before it drains the channel.
    wake_pending: AtomicBool,
}

impl ShardHandle {
    fn notify(&self, msg: ShardMsg) {
        let _ = self.tx.send(msg);
        if !self.wake_pending.swap(true, Ordering::AcqRel) {
            self.waker.wake();
        }
    }
}

/// Cross-thread work handed to a reactor shard.
enum ShardMsg {
    /// A freshly accepted connection to adopt.
    NewConn(Box<NewConn>),
    /// Connection `id` has queued outbound frames to flush.
    Writable(u32),
}

/// Everything the accept loop hands a shard for one new connection.
struct NewConn {
    conn: Arc<ConnShared>,
    rd: MaybeFaulty<SharedTcp>,
    wr: MaybeFaulty<SharedTcp>,
    fd: RawSource,
}

/// The handshake state machine: one HELLO, then the full protocol.
enum Phase {
    AwaitHello,
    Active,
}

/// One connection's reactor-side state, owned exclusively by its shard.
struct ConnState {
    conn: Arc<ConnShared>,
    rd: MaybeFaulty<SharedTcp>,
    wr: MaybeFaulty<SharedTcp>,
    fd: RawSource,
    /// Inbound frame reassembly across partial reads.
    decoder: FrameDecoder,
    phase: Phase,
    /// Live subscriptions this session registered via `K_SUBSCRIBE`.
    subscriptions: Vec<(u32, SubscriptionId)>,
    /// Frames popped from the outbound queue but not yet fully written,
    /// with their encoded headers and the partial-write offset — the
    /// resumption state a blocking writer never needed — and, in
    /// parallel, the trace context each one carries.
    batch: WriteBatch,
    pending_traces: Vec<Option<TraceCtx>>,
    /// Frames in transit within one flush pass: popped from the queue on
    /// their way into `batch`, then those the write completed, on their
    /// way to trace/tap/counter accounting. Empty between passes.
    scratch: Vec<Frame>,
    /// The last flush hit `WouldBlock` and wants writable-readiness.
    wants_write: bool,
    /// Whether writable interest is currently armed with the poller.
    armed_write: bool,
    /// Whether this session passed HELLO and was counted in
    /// `active_connections`.
    counted_active: bool,
    /// The session is over; flush what is queued, then tear down.
    closing: bool,
    last_rx: Instant,
    last_ping: Instant,
    ping_token: u32,
}

impl ConnState {
    fn new(nc: NewConn) -> ConnState {
        let NewConn { conn, rd, wr, fd } = nc;
        ConnState {
            conn,
            rd,
            wr,
            fd,
            decoder: FrameDecoder::new(),
            phase: Phase::AwaitHello,
            subscriptions: Vec::new(),
            batch: WriteBatch::new(),
            pending_traces: Vec::new(),
            scratch: Vec::new(),
            wants_write: false,
            armed_write: false,
            counted_active: false,
            closing: false,
            last_rx: Instant::now(),
            last_ping: Instant::now(),
            ping_token: 0,
        }
    }
}

/// The slice of a connection's state the protocol machine may touch
/// while the decoder's borrow of the inbound buffer is live.
struct SessionCtx<'a> {
    conn: &'a Arc<ConnShared>,
    subscriptions: &'a mut Vec<(u32, SubscriptionId)>,
    phase: &'a mut Phase,
    closing: &'a mut bool,
    counted_active: &'a mut bool,
}

/// Holds one of the daemon's bounded replay slots; dropping it — however
/// the replay thread exits — releases the slot.
struct ReplayGuard(Arc<State>);

impl Drop for ReplayGuard {
    fn drop(&mut self) {
        self.0.active_replays.fetch_sub(1, Ordering::AcqRel);
    }
}

/// One shard's event loop: poll for readiness, adopt new connections,
/// decode and dispatch inbound frames, flush outbound queues, and run
/// the heartbeat scan — for every connection the shard owns, on one
/// thread.
fn reactor_loop(
    state: Arc<State>,
    shard: Arc<ShardHandle>,
    rx: Receiver<ShardMsg>,
    mut poller: Box<dyn Poller>,
    sm: ShardMetrics,
) {
    let mut conns: HashMap<u32, ConnState> = HashMap::new();
    let mut events: Vec<PollEvent> = Vec::new();
    let mut last_hb = Instant::now();
    loop {
        events.clear();
        let _ = poller.poll(&mut events, POLL_INTERVAL);
        // Reset the wake latch *before* draining the channel: a notify
        // racing this drain either lands in the channel in time to be
        // seen now, or re-latches and fires the waker for the next poll.
        shard.wake_pending.store(false, Ordering::Release);
        sm.wakeups.inc();
        sm.ready_depth.record(events.len() as u64);
        sm.ready.set(events.len() as i64);
        while let Ok(msg) = rx.try_recv() {
            match msg {
                ShardMsg::NewConn(nc) => {
                    let cs = ConnState::new(*nc);
                    poller.register(cs.fd, cs.conn.id as usize, Interest::READABLE);
                    conns.insert(cs.conn.id, cs);
                }
                ShardMsg::Writable(id) => {
                    let Some(mut cs) = conns.remove(&id) else {
                        continue;
                    };
                    // Clear the nudge latch before draining: a send that
                    // races this flush either lands in the queue in time
                    // to be flushed now, or re-latches a fresh nudge.
                    cs.conn.write_queued.store(false, Ordering::Release);
                    if flush_and_rearm(&state, &sm, poller.as_mut(), &mut cs) {
                        conns.insert(id, cs);
                    } else {
                        teardown_conn(&state, poller.as_mut(), cs);
                    }
                }
            }
        }
        sm.conns.set(conns.len() as i64);
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let mut frames = 0u64;
        for ev in &events {
            let id = ev.token as u32;
            let Some(mut cs) = conns.remove(&id) else {
                continue;
            };
            if ev.readable && !cs.closing {
                frames += handle_readable(&state, &mut cs);
            }
            // Always run the flush: readable processing usually queued
            // replies, and a writable event means a parked partial write
            // can resume. An empty queue costs one try_pop.
            if flush_and_rearm(&state, &sm, poller.as_mut(), &mut cs) {
                conns.insert(id, cs);
            } else {
                teardown_conn(&state, poller.as_mut(), cs);
            }
        }
        if frames > 0 {
            sm.frames_per_wakeup.record(frames);
        }
        // Heartbeats: any fully received frame refreshes `last_rx`;
        // after `heartbeat_ping` of silence the daemon probes, after
        // `heartbeat_dead` it evicts. Externally evicted connections
        // (`!alive`) are reaped here as a safety net — the socket
        // shutdown normally surfaces as a readiness event first.
        if last_hb.elapsed() >= POLL_INTERVAL {
            last_hb = Instant::now();
            let mut dead: Vec<u32> = Vec::new();
            for (id, cs) in conns.iter_mut() {
                if !cs.conn.alive.load(Ordering::Relaxed) {
                    dead.push(*id);
                    continue;
                }
                let idle = cs.last_rx.elapsed();
                if idle >= state.heartbeat_dead {
                    state.metrics.evicted_dead.inc();
                    dead.push(*id);
                    continue;
                }
                if matches!(cs.phase, Phase::Active)
                    && !cs.closing
                    && idle >= state.heartbeat_ping
                    && cs.last_ping.elapsed() >= state.heartbeat_ping
                {
                    cs.ping_token = cs.ping_token.wrapping_add(1);
                    cs.conn.send(Frame::control(K_PING, cs.ping_token, 0));
                    state.metrics.pings.inc();
                    cs.last_ping = Instant::now();
                }
            }
            for id in dead {
                if let Some(cs) = conns.remove(&id) {
                    teardown_conn(&state, poller.as_mut(), cs);
                }
            }
        }
    }
    // Shutdown: one best-effort flush (a queued BYE_ACK or final error
    // still reaches the peer), then tear everything down.
    for (_, mut cs) in conns.drain() {
        cs.conn.outbound.close();
        let _ = flush_conn(&state, &sm, &mut cs);
        teardown_conn(&state, poller.as_mut(), cs);
    }
}

/// Drain the socket into the frame decoder and dispatch every complete
/// frame. Returns the number of frames dispatched. Oversized and
/// corrupt frames are rejected without killing the session (the decoder
/// stays in sync); EOF and hard errors set `closing`.
fn handle_readable(state: &Arc<State>, cs: &mut ConnState) -> u64 {
    let ConnState {
        conn,
        rd,
        decoder,
        phase,
        subscriptions,
        closing,
        counted_active,
        last_rx,
        ..
    } = cs;
    let mut frames = 0u64;
    'fill: loop {
        match decoder.fill(rd) {
            Ok(0) => {
                *closing = true;
                break;
            }
            Ok(_) => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Drained for now (or a fault-injected stall): wait for
                // the next readiness event.
                break;
            }
            Err(_) => {
                *closing = true;
                break;
            }
        }
        loop {
            match decoder.next() {
                Ok(Some((header, body))) => {
                    *last_rx = Instant::now();
                    frames += 1;
                    state
                        .metrics
                        .bytes_in
                        .add((FRAME_HEADER_SIZE + header.len) as u64);
                    // Inbound tap point. The decoder's body is borrowed,
                    // so capturing copies it — but only here, with the
                    // tap on; the disabled path is the one relaxed load
                    // inside `enabled()`.
                    if let Some(tap) = &state.tap {
                        if tap.enabled() {
                            let is_event = header.kind == K_PUBLISH || header.kind == K_EVENT;
                            if !is_event || tap.wants_event(header.a) {
                                tap.push(TapEntry {
                                    t_ns: epoch_ns(),
                                    conn: conn.id,
                                    dir: TAP_IN,
                                    kind: header.kind,
                                    a: header.a,
                                    b: header.b,
                                    body: WireBuf::copy_from(body),
                                });
                                conn.counters.frames_tapped.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    // Times the handling of this frame (dispatch
                    // included), not the socket read above it.
                    let _recv_span = Span::enter(&state.metrics.recv_ns);
                    let mut sctx = SessionCtx {
                        conn: &*conn,
                        subscriptions: &mut *subscriptions,
                        phase: &mut *phase,
                        closing: &mut *closing,
                        counted_active: &mut *counted_active,
                    };
                    handle_frame(state, &mut sctx, &header, body);
                    if *closing {
                        break 'fill;
                    }
                }
                Ok(None) => break,
                // A header announcing an impossible body is rejected
                // without killing the session: the decoder discards the
                // announced bytes as they arrive (never buffered), so
                // framing stays trustworthy.
                Err(FrameError::TooLarge(len)) => {
                    state.metrics.frames_rejected.inc();
                    send_error(
                        state,
                        conn,
                        E_PROTOCOL,
                        format!("frame body of {len} bytes exceeds the frame size limit"),
                    );
                    *last_rx = Instant::now();
                }
                // The checksum failed but the full frame was consumed,
                // so the stream is still in sync: reject the frame, keep
                // the session.
                Err(FrameError::Corrupt { expected, actual }) => {
                    state.metrics.frames_rejected.inc();
                    send_error(state, conn,
                        E_PROTOCOL,
                        format!(
                            "frame checksum mismatch (announced {expected:#010x}, computed {actual:#010x})"
                        ),
                    );
                    *last_rx = Instant::now();
                }
                Err(_) => {
                    *closing = true;
                    break 'fill;
                }
            }
        }
    }
    if frames > 0 {
        // One relaxed store per read batch (not per frame): the
        // topology snapshot's liveness column.
        conn.last_active_ns.store(epoch_ns(), Ordering::Relaxed);
    }
    frames
}

/// Flush the connection's outbound queue through batched vectored
/// writes, resuming any partial frame first. Returns `false` when the
/// connection is finished — write error, or closed *and* fully drained —
/// and the caller should tear it down.
fn flush_conn(state: &Arc<State>, sm: &ShardMetrics, cs: &mut ConnState) -> bool {
    loop {
        if cs.batch.is_empty() {
            cs.pending_traces.clear();
            match cs.conn.outbound.try_pop_batch(
                &mut cs.scratch,
                &mut cs.pending_traces,
                MAX_WRITE_BATCH,
            ) {
                Drained::Got => {}
                Drained::Empty => break,
                Drained::Done => return false,
            }
        }
        let progress = {
            let _send_span = Span::enter(&state.metrics.send_ns);
            // The one checksum pass this hop makes over each frame: the
            // queue mutex is released and drop-oldest can no longer
            // discard what was popped.
            for frame in cs.scratch.drain(..) {
                cs.batch.push(frame);
            }
            cs.batch.flush(&mut cs.wr, |frame| cs.scratch.push(frame))
        };
        let p = match progress {
            Ok(p) => p,
            // Peer gone: stop queuing for it and report the end.
            Err(_) => return false,
        };
        if p.frames_done > 0 {
            let done = &cs.scratch[..];
            let done_traces = &cs.pending_traces[..p.frames_done];
            // Traced events get their flush hop stamped once the
            // vectored write has actually handed them to the kernel.
            let t_flush = done_traces.iter().any(Option::is_some).then(epoch_ns);
            if let Some(t) = t_flush {
                for (frame, ctx) in done.iter().zip(done_traces) {
                    let Some(ctx) = ctx else { continue };
                    let dur = t.saturating_sub(ctx.origin_ns);
                    if let Some(h) = state.chan_hops(frame.a) {
                        h.flush_ns.record(dur);
                    }
                    state.hops.push(TraceHop {
                        trace_id: ctx.trace_id,
                        span_id: ctx.span_id,
                        hop: HOP_FLUSH,
                        conn: cs.conn.id,
                        channel: frame.a,
                        t_ns: t,
                        dur_ns: dur,
                    });
                }
            }
            // Outbound tap point: frames are captured once the vectored
            // write has handed them to the kernel, bodies by refcount
            // bump — fanning a tapped event to N subscribers still
            // never copies it.
            if let Some(tap) = &state.tap {
                if tap.enabled() {
                    let t_ns = epoch_ns();
                    let mut tapped = 0u64;
                    for frame in done {
                        let is_event = frame.kind == K_EVENT;
                        if is_event && !tap.wants_event(frame.a) {
                            continue;
                        }
                        tap.push(TapEntry {
                            t_ns,
                            conn: cs.conn.id,
                            dir: TAP_OUT,
                            kind: frame.kind,
                            a: frame.a,
                            b: frame.b,
                            body: frame.body.clone(),
                        });
                        tapped += 1;
                    }
                    if tapped > 0 {
                        cs.conn
                            .counters
                            .frames_tapped
                            .fetch_add(tapped, Ordering::Relaxed);
                    }
                }
            }
            let events = done.iter().filter(|f| f.kind == K_EVENT).count() as u64;
            state.metrics.events_out.add(events);
            let n = p.frames_done as u64;
            cs.conn.counters.frames_sent.fetch_add(n, Ordering::Relaxed);
            if p.frames_done > 1 {
                state.metrics.frames_batched.add(n);
                cs.conn
                    .counters
                    .frames_batched
                    .fetch_add(n, Ordering::Relaxed);
            }
            cs.scratch.clear();
            cs.pending_traces.drain(..p.frames_done);
        }
        if p.bytes > 0 {
            state.metrics.bytes_out.add(p.bytes as u64);
            state.metrics.writes.add(p.writes as u64);
            cs.conn
                .counters
                .bytes_sent
                .fetch_add(p.bytes as u64, Ordering::Relaxed);
            cs.conn
                .counters
                .writes
                .fetch_add(p.writes as u64, Ordering::Relaxed);
        }
        if p.blocked {
            // Socket buffer full: the batch keeps its place; arm
            // writable interest, resume on the next readiness event.
            sm.writev_partials.inc();
            cs.wants_write = true;
            return true;
        }
    }
    cs.wants_write = false;
    true
}

/// [`flush_conn`], plus poller interest maintenance: writable interest
/// is armed exactly while a flush is parked on `WouldBlock`.
fn flush_and_rearm(
    state: &Arc<State>,
    sm: &ShardMetrics,
    poller: &mut dyn Poller,
    cs: &mut ConnState,
) -> bool {
    if cs.closing {
        // No new frames will be accepted; once the queue and the
        // partly written batch drain, the flush reports `Done` and the
        // connection is torn down.
        cs.conn.outbound.close();
    }
    if !flush_conn(state, sm, cs) {
        return false;
    }
    if cs.wants_write != cs.armed_write {
        let interest = if cs.wants_write {
            Interest::READ_WRITE
        } else {
            Interest::READABLE
        };
        poller.modify(cs.fd, cs.conn.id as usize, interest);
        cs.armed_write = cs.wants_write;
    }
    true
}

/// Detach the connection from everything that can reach it — the
/// poller, its channel subscriptions (live and replay-handed-off), the
/// fan-out — then sever the socket. The final `evict` (not just closing
/// the queue) matters: the resume session table can outlive the reactor's
/// state for this conn, so the socket must be shut down explicitly for
/// the peer to observe EOF and begin reconnecting.
fn teardown_conn(state: &Arc<State>, poller: &mut dyn Poller, mut cs: ConnState) {
    poller.deregister(cs.fd);
    cs.conn.alive.store(false, Ordering::Relaxed);
    for (chan, sub) in cs.subscriptions.drain(..) {
        if let Some(fanout) = state.channel(chan) {
            fanout
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .retain(|id, _| id != sub);
        }
    }
    // Subscriptions a replay thread handed off to live delivery. The
    // replay side re-checks `alive` after registering and removes its
    // own registration if it lost the race with this take; retain() is
    // idempotent, so whichever side runs second is a no-op.
    let durable = std::mem::take(
        &mut *cs
            .conn
            .durable_subs
            .lock()
            .unwrap_or_else(|p| p.into_inner()),
    );
    for (chan, sub) in durable {
        if let Some(fanout) = state.channel(chan) {
            fanout
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .retain(|id, _| id != sub);
        }
    }
    cs.conn.outbound.close();
    cs.conn.evict();
    state.drop_lag_entries(cs.conn.id);
    if cs.counted_active {
        state
            .flight
            .record(FL_EVICT, cs.conn.id, 0, 0, u64::from(cs.conn.shard_idx));
        state.metrics.active_connections.dec();
    }
}

// ---------------------------------------------------------------------------
// Per-connection protocol machine.

fn send_error(state: &State, conn: &ConnShared, code: u32, message: impl Into<String>) {
    state.flight.record(FL_PROTO_ERROR, conn.id, 0, code, 0);
    conn.send(Frame::with_body(
        K_ERROR,
        code,
        0,
        message.into().into_bytes(),
    ));
}

/// The handshake: one HELLO frame, validated and acked. Errors are
/// queued (the reactor flushes them) and end the session.
fn handle_hello(state: &Arc<State>, ctx: &mut SessionCtx, header: &FrameHeader, body: &[u8]) {
    let conn = ctx.conn;
    if header.kind != K_HELLO {
        send_error(state, conn, E_PROTOCOL, "expected HELLO");
        *ctx.closing = true;
        return;
    }
    if header.a != PROTOCOL_VERSION {
        send_error(
            state,
            conn,
            E_VERSION,
            format!("unsupported protocol version {}", header.a),
        );
        *ctx.closing = true;
        return;
    }
    let arch_ok = std::str::from_utf8(body)
        .ok()
        .and_then(ArchProfile::by_name)
        .is_some();
    if !arch_ok {
        send_error(state, conn, E_ARCH, "unknown architecture profile");
        *ctx.closing = true;
        return;
    }
    // Grant the intersection of what the client offered and what this
    // daemon speaks, and sample our clock while serving the HELLO — the
    // client's half of the offset exchange brackets this exchange.
    let mut supported = CAP_TRACE | CAP_RESUME;
    if state.store.is_some() {
        supported |= CAP_DURABLE;
    }
    if state.mesh.is_some() {
        supported |= CAP_PEER;
    }
    let granted = header.b & supported;
    conn.caps.store(granted, Ordering::Relaxed);
    let mut ack_body = Vec::with_capacity(16);
    ack_body.extend_from_slice(&granted.to_be_bytes());
    ack_body.extend_from_slice(&epoch_ns().to_be_bytes());
    ack_body.extend_from_slice(&state.trace_mod.load(Ordering::Relaxed).to_be_bytes());
    conn.send(Frame::with_body(
        K_HELLO_ACK,
        PROTOCOL_VERSION,
        conn.id,
        ack_body,
    ));
    // A peer daemon just connected: dump the whole format registry at
    // it. Together with the symmetric dump the dialing side performs,
    // this is the gossip that lets remote-origin events decode
    // everywhere — a late joiner learns every layout registered before
    // it existed, and fresh registrations broadcast from then on.
    if granted & CAP_PEER != 0 {
        for id in 0..state.formats.len() as u32 {
            if let Some(meta) = state.formats.meta(id) {
                conn.send(Frame::with_body(K_FORMAT, id, 0, WireBuf::from(meta)));
            }
        }
    }
    state.metrics.active_connections.inc();
    state
        .flight
        .record(FL_CONNECT, conn.id, 0, 0, u64::from(granted));
    *ctx.counted_active = true;
    *ctx.phase = Phase::Active;
}

/// Dispatch one complete, checksum-valid frame through the protocol
/// machine. Runs on the owning reactor; every reply goes through the
/// connection's outbound queue.
fn handle_frame(state: &Arc<State>, ctx: &mut SessionCtx, header: &FrameHeader, body: &[u8]) {
    if matches!(ctx.phase, Phase::AwaitHello) {
        handle_hello(state, ctx, header, body);
        return;
    }
    let conn = ctx.conn;

    match header.kind {
        K_FORMAT => match state.formats.register_meta(body) {
            Ok((id, _, fresh)) => {
                conn.send(Frame::control(K_FORMAT_ACK, header.a, id));
                // In a mesh, a layout registered here must decode on
                // every member: gossip fresh registrations to all peers
                // (minus whoever just told us — its registry already
                // has it).
                if fresh {
                    let from_peer = (conn.caps() & CAP_PEER != 0).then_some(conn.id);
                    state.broadcast_format(id, from_peer);
                }
            }
            Err(e) => send_error(state, conn, E_FORMAT, e.to_string()),
        },
        K_CHANNEL => match std::str::from_utf8(body) {
            Ok(name) => match state.open_channel_flags(name, header.b) {
                Ok(id) => {
                    conn.send(Frame::control(K_CHANNEL_ACK, header.a, id));
                }
                Err(msg) => send_error(state, conn, E_CHANNEL, msg),
            },
            Err(_) => send_error(state, conn, E_PROTOCOL, "channel name is not UTF-8"),
        },
        K_SUBSCRIBE => {
            let predicate = if header.b == 1 {
                match deserialize_predicate(body) {
                    Ok(p) => Some(p),
                    Err(e) => {
                        send_error(state, conn, E_PREDICATE, e.to_string());
                        return;
                    }
                }
            } else {
                None
            };
            let Some(fanout) = state.channel(header.a) else {
                send_error(
                    state,
                    conn,
                    E_CHANNEL,
                    format!("unknown channel {}", header.a),
                );
                return;
            };
            // A durable channel's live subscriber starts caught up: its
            // lag watermark seeds at the head and advances per delivery.
            let delivered = state
                .log(header.a)
                .map(|log| state.lag_entry(header.a, conn.id, log.head()));
            let sub = RemoteSubscriber {
                conn: conn.clone(),
                channel: header.a,
                predicate,
                compiled: HashMap::new(),
                formats: state.formats.clone(),
                sink: state.hops.clone(),
                hops: state.chan_hops(header.a),
                evicted_stalled: state.metrics.evicted_stalled.clone(),
                delivered,
            };
            let id = fanout
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .subscribe(sub);
            ctx.subscriptions.push((header.a, id));
            conn.send(Frame::control(K_SUBSCRIBE_ACK, header.a, 0));
            // First local interest in a remote-homed channel: relay it.
            // All publishes flow through the home daemon's fan-out, so
            // a relay subscription there feeds every local subscriber
            // through this one link (the link dedups by name; peers
            // never trigger relays — their subscriptions *are* relays).
            if let Some(mesh) = &state.mesh {
                if conn.caps() & CAP_PEER == 0 {
                    if let Some((name, home)) = state.channel_route(header.a) {
                        if home != mesh.index {
                            mesh.ensure_relay_sub(home, name, header.a);
                        }
                    }
                }
            }
        }
        K_SUBSCRIBE_FROM => {
            if conn.caps() & CAP_DURABLE == 0 {
                send_error(
                    state,
                    conn,
                    E_PROTOCOL,
                    "subscribe_from without negotiated durability capability",
                );
                return;
            }
            if body.len() < 8 {
                send_error(state, conn, E_PROTOCOL, "subscribe_from body lacks offset");
                return;
            }
            let from = u64::from_be_bytes(body[..8].try_into().unwrap());
            let Some(log) = state.log(header.a) else {
                send_error(
                    state,
                    conn,
                    E_CHANNEL,
                    format!("channel {} is not durable", header.a),
                );
                return;
            };
            // Claim a bounded replay slot before acking: replays run
            // on dedicated threads, and an unbounded spawn rate is a
            // resource-exhaustion vector. A refused claim is a typed,
            // retryable error — the subscription does not exist.
            let claimed =
                state
                    .active_replays
                    .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                        (n < state.max_replay).then_some(n + 1)
                    });
            if claimed.is_err() {
                send_error(
                    state,
                    conn,
                    E_BUSY,
                    format!(
                        "replay concurrency limit ({}) reached; retry later",
                        state.max_replay
                    ),
                );
                return;
            }
            let guard = ReplayGuard(state.clone());
            // Ack first, then stream: the subscriber knows history
            // follows. The replay thread walks the segment log,
            // paces itself on the subscriber's queue so replayed
            // frames never hit drop-oldest, and registers a live
            // subscription at the exact point disk has caught up
            // with the channel head — one gapless sequence.
            conn.send(Frame::control(K_SUBSCRIBE_ACK, header.a, 0));
            // The replaying consumer is visible in the lag books from
            // the first moment: watermark seeded where the replay will
            // start, advanced by the replay thread as it streams.
            let delivered =
                state.lag_entry(header.a, conn.id, from.max(log.oldest()).min(log.head()));
            let rp_state = state.clone();
            let rp_conn = conn.clone();
            let chan = header.a;
            let handle = std::thread::Builder::new()
                .name("pbio-serv-replay".into())
                .spawn(move || {
                    let _slot = guard;
                    replay_loop(rp_state, rp_conn, chan, log, from, delivered);
                });
            if let Ok(h) = handle {
                let mut threads = state
                    .replay_threads
                    .lock()
                    .unwrap_or_else(|p| p.into_inner());
                // Reap finished replays so a long-lived daemon does
                // not hoard exited thread handles.
                let mut i = 0;
                while i < threads.len() {
                    if threads[i].is_finished() {
                        let _ = threads.swap_remove(i).join();
                    } else {
                        i += 1;
                    }
                }
                threads.push(h);
            }
        }
        K_PUBLISH => {
            state.metrics.events_in.inc();
            let traced = header.b & TRACE_FLAG != 0;
            let format = header.b & !TRACE_FLAG;
            let Some(layout) = state.formats.lookup(format) else {
                send_error(state, conn, E_FORMAT, format!("unknown format {format}"));
                return;
            };
            let trailer = if traced { TRACE_TRAILER_LEN } else { 0 };
            if body.len() < layout.size() + trailer {
                send_error(
                    state,
                    conn,
                    E_PROTOCOL,
                    format!(
                        "event payload is {} bytes, format {format} requires {}",
                        body.len(),
                        layout.size() + trailer
                    ),
                );
                return;
            }
            // A flagged trailer is only meaningful on a session that
            // negotiated the capability, and its reserved bits must
            // decode — either failure is a protocol error the session
            // survives (the event is not published).
            let ctx = if traced {
                if conn.caps() & CAP_TRACE == 0 {
                    send_error(
                        state,
                        conn,
                        E_PROTOCOL,
                        "trace trailer without negotiated capability",
                    );
                    return;
                }
                match TraceCtx::decode(&body[body.len() - TRACE_TRAILER_LEN..]) {
                    Some(c) => Some(c).filter(|c| c.sampled()),
                    None => {
                        send_error(state, conn, E_PROTOCOL, "malformed trace trailer");
                        return;
                    }
                }
            } else {
                None
            };
            let Some(fanout) = state.channel(header.a) else {
                send_error(
                    state,
                    conn,
                    E_CHANNEL,
                    format!("unknown channel {}", header.a),
                );
                return;
            };
            if let Some(ctx) = &ctx {
                // The publisher's own stamp is the trace origin; the
                // ingress stamp is taken here, after the frame is off
                // the socket and validated.
                let t = epoch_ns();
                let dur = t.saturating_sub(ctx.origin_ns);
                if let Some(h) = state.chan_hops(header.a) {
                    h.ingress_ns.record(dur);
                }
                state.hops.push(TraceHop {
                    trace_id: ctx.trace_id,
                    span_id: ctx.span_id,
                    hop: HOP_PUBLISH,
                    conn: conn.id,
                    channel: header.a,
                    t_ns: ctx.origin_ns,
                    dur_ns: 0,
                });
                state.hops.push(TraceHop {
                    trace_id: ctx.trace_id,
                    span_id: ctx.span_id,
                    hop: HOP_INGRESS,
                    conn: conn.id,
                    channel: header.a,
                    t_ns: t,
                    dur_ns: dur,
                });
            }
            // The one allocation a published event costs, however
            // many subscribers it fans out to: its shared body. A
            // sampled trailer rides along (fan-out slices it off per
            // subscriber as needed); an unsampled one is dead weight
            // and is dropped here.
            let payload = match ctx {
                None if traced => &body[..body.len() - TRACE_TRAILER_LEN],
                _ => body,
            };
            // Mesh routing: a publish from an ordinary client whose
            // channel is homed elsewhere is forwarded to the home
            // daemon and NOT fanned out here — the home's fan-out is
            // the channel's single ordering point, so nothing is ever
            // delivered twice. Publishes arriving over a peer link
            // (`CAP_PEER`) are the forwarded copies: they always fan
            // out locally and are never re-forwarded, which is the
            // structural guard against relay loops.
            if let Some(mesh) = &state.mesh {
                if conn.caps() & CAP_PEER == 0 {
                    if let Some((name, home)) = state.channel_route(header.a) {
                        if home != mesh.index {
                            mesh.forward(
                                home,
                                name,
                                format,
                                ctx.is_some(),
                                WireBuf::copy_from(payload),
                            );
                            return;
                        }
                    }
                }
            }
            // When no store is configured this is a single Option
            // check: the disabled path adds no allocation and no
            // syscall to the publish hot loop.
            let log = if state.store.is_some() {
                state.log(header.a)
            } else {
                None
            };
            let mut fanout = fanout.lock().unwrap_or_else(|p| p.into_inner());
            let before = fanout.stats();
            match log {
                None => {
                    let wire = WireBuf::copy_from(payload);
                    let _ = fanout.publish_traced(format, &wire, ctx.as_ref());
                }
                Some(log) => {
                    // Reserve the offset, enqueue the disk append and
                    // fan out — all under the fan-out lock, so the
                    // per-channel store-queue order matches offset
                    // order and replay handoff can freeze the head.
                    // (The store thread never takes a fan-out lock,
                    // so fanout -> store-queue is a safe lock order.)
                    let offset = log.reserve(1);
                    let mut v = Vec::with_capacity(payload.len() + OFFSET_TRAILER_LEN);
                    v.extend_from_slice(payload);
                    v.extend_from_slice(&offset.to_be_bytes());
                    let wire = WireBuf::from(v);
                    let trace_len = if ctx.is_some() { TRACE_TRAILER_LEN } else { 0 };
                    let clean = wire.slice(0, payload.len() - trace_len);
                    state.store_q.push(AppendReq {
                        log: log.clone(),
                        chan: header.a,
                        offset,
                        format,
                        payload: clean,
                        conn: Arc::downgrade(conn),
                    });
                    let _ = fanout.publish_traced(format | OFFSET_FLAG, &wire, ctx.as_ref());
                }
            }
            let after = fanout.stats();
            // Drops are already counted by the fan-out's obs hook;
            // only the filter suppressions need mirroring here.
            state
                .metrics
                .filtered_at_source
                .add(after.filtered_out - before.filtered_out);
        }
        K_STATS => match state.encode_stats() {
            Some((format, wire)) => {
                // Announce the snapshot's format once per connection
                // (under the same lock the event path uses), so the
                // client can decode the body that follows.
                let mut ann = conn.announced.lock().unwrap_or_else(|p| p.into_inner());
                if !ann.contains(&format) {
                    if let Some(meta) = state.formats.meta(format) {
                        conn.send(Frame::with_body(K_ANNOUNCE, format, 0, WireBuf::from(meta)));
                        ann.insert(format);
                    }
                }
                conn.send(Frame::with_body(K_STATS_ACK, header.a, format, wire));
                drop(ann);
            }
            None => send_error(state, conn, E_FORMAT, "stats snapshot encoding failed"),
        },
        // The pull side of the introspection plane: capture live
        // topology, announce the fixed `$topo` format once per
        // connection, and answer with the snapshot's NDR bytes — the
        // same record the `$topo` channel pushes.
        K_INSPECT => match state.encode_topo() {
            Some((format, wire)) => {
                let mut ann = conn.announced.lock().unwrap_or_else(|p| p.into_inner());
                if !ann.contains(&format) {
                    if let Some(meta) = state.formats.meta(format) {
                        conn.send(Frame::with_body(K_ANNOUNCE, format, 0, WireBuf::from(meta)));
                        ann.insert(format);
                    }
                }
                conn.send(Frame::with_body(K_INSPECT_ACK, header.a, format, wire));
                drop(ann);
            }
            None => send_error(state, conn, E_FORMAT, "topology snapshot encoding failed"),
        },
        K_TRACE_CTL => {
            let prev = state.trace_mod.swap(header.b, Ordering::Relaxed);
            conn.send(Frame::control(K_TRACE_CTL_ACK, header.a, prev));
        }
        K_TAP_CTL => {
            let Some(tap) = &state.tap else {
                send_error(
                    state,
                    conn,
                    E_PROTOCOL,
                    "tap control on a daemon with no capture plane configured",
                );
                return;
            };
            let param = match body {
                [] => 0,
                [p0, p1, p2, p3] => u32::from_be_bytes([*p0, *p1, *p2, *p3]),
                _ => {
                    send_error(state, conn, E_PROTOCOL, "malformed tap control body");
                    return;
                }
            };
            let Some(mode) = TapMode::from_wire(header.b, param) else {
                send_error(
                    state,
                    conn,
                    E_PROTOCOL,
                    format!("unknown tap mode {} (param {param})", header.b),
                );
                return;
            };
            let prev = tap.set_mode(mode);
            if mode == TapMode::Off {
                if prev != TapMode::Off {
                    state
                        .flight
                        .record(FL_TAP_STOP, conn.id, 0, 0, tap.captured());
                }
            } else {
                state
                    .flight
                    .record(FL_TAP_START, conn.id, 0, header.b, u64::from(param));
            }
            let (prev_mode, _) = prev.to_wire();
            conn.send(Frame::control(K_TAP_CTL_ACK, header.a, prev_mode));
        }
        // A peer probing us gets the echo; a pong (the answer to our
        // own probe) needs no handling beyond the `last_rx` refresh
        // every received frame already performed.
        K_PING => {
            conn.send(Frame::control(K_PONG, header.a, 0));
        }
        K_PONG => {}
        K_RESUME => {
            if conn.caps() & CAP_RESUME == 0 {
                send_error(
                    state,
                    conn,
                    E_PROTOCOL,
                    "resume without negotiated capability",
                );
                return;
            }
            if body.len() < 8 {
                send_error(state, conn, E_PROTOCOL, "resume body lacks client id");
                return;
            }
            let client_id = u64::from_be_bytes(body[..8].try_into().unwrap());
            let epoch = header.a;
            let mut sessions = state.sessions.lock().unwrap_or_else(|p| p.into_inner());
            // Epochs are monotonic per identity: an attempt at or
            // below the registered epoch is the stale duplicate
            // (e.g. a zombie predecessor racing the reconnect), and
            // is refused so it cannot hijack the session. A newer
            // epoch supersedes: the predecessor connection is forced
            // down before the successor takes over.
            let prior_epoch = sessions.get(&client_id).map(|p| p.epoch);
            if let Some(prior_epoch) = prior_epoch {
                if prior_epoch >= epoch {
                    drop(sessions);
                    state.metrics.resumes_stale.inc();
                    send_error(
                        state,
                        conn,
                        E_STALE,
                        format!("epoch {epoch} is not newer than {prior_epoch}"),
                    );
                    // A refused resume closes the session: the zombie
                    // must not linger half-attached.
                    *ctx.closing = true;
                    return;
                }
            }
            let old = sessions.get(&client_id).and_then(|p| p.conn.upgrade());
            if let Some(old) = old {
                if old.id != conn.id {
                    old.evict();
                }
            }
            sessions.insert(
                client_id,
                Session {
                    epoch,
                    conn: Arc::downgrade(conn),
                },
            );
            drop(sessions);
            state.metrics.resumes.inc();
            state
                .flight
                .record(FL_RESUME, conn.id, 0, 0, u64::from(epoch));
            conn.send(Frame::control(K_RESUME_ACK, epoch, 0));
        }
        K_BYE => {
            conn.send(Frame::control(K_BYE_ACK, 0, 0));
            *ctx.closing = true;
        }
        other => send_error(
            state,
            conn,
            E_PROTOCOL,
            format!("unexpected frame kind {other:#04x}"),
        ),
    }
}

/// The store writer: drains the publish→disk queue in batches, groups
/// consecutive same-channel runs into one `append_batch` (one flush
/// boundary each), then acks the publishers whose events just became
/// durable. Runs until the queue is closed *and* drained, so graceful
/// shutdown never abandons an accepted append.
/// Publisher acks accumulated across one drained store batch:
/// conn id → (conn, per-channel (count, last offset)).
type PendingAcks = HashMap<u32, (Arc<ConnShared>, HashMap<u32, (u32, u64)>)>;

fn store_loop(state: Arc<State>) {
    let append_ns = state.registry.histogram("store_append_ns");
    let torn = state.store.as_ref().map(|s| s.metrics().torn_tails.clone());
    let mut torn_seen = torn.as_ref().map_or(0, |c| c.get());
    let mut batch: Vec<AppendReq> = Vec::with_capacity(512);
    loop {
        batch.clear();
        if !state.store_q.pop_batch(&mut batch, 512) {
            break;
        }
        let mut acks: PendingAcks = HashMap::new();
        let mut i = 0;
        while i < batch.len() {
            // One consecutive run of the same channel log = one batched
            // append (requests were queued in offset order per channel,
            // under the fan-out lock).
            let log = batch[i].log.clone();
            let mut j = i;
            while j < batch.len() && Arc::ptr_eq(&batch[j].log, &log) {
                j += 1;
            }
            let recs: Vec<Append<'_>> = batch[i..j]
                .iter()
                .map(|r| Append {
                    offset: r.offset,
                    format: r.format,
                    payload: &r.payload,
                })
                .collect();
            let appended = {
                let _span = Span::enter(&append_ns);
                log.append_batch(&recs, &mut |id| state.formats.meta(id))
            };
            match appended {
                Ok(()) => {
                    for r in &batch[i..j] {
                        let Some(conn) = r.conn.upgrade() else {
                            continue;
                        };
                        if conn.caps() & CAP_DURABLE == 0 {
                            continue;
                        }
                        let (_, chans) = acks
                            .entry(conn.id)
                            .or_insert_with(|| (conn.clone(), HashMap::new()));
                        let e = chans.entry(r.chan).or_insert((0, 0));
                        e.0 += 1;
                        e.1 = r.offset;
                    }
                }
                Err(e) => {
                    // append_batch already counted the failure and
                    // repaired what it could; the unacked suffix is lost
                    // durability the publisher never got promised.
                    eprintln!("pbio-serv: store append failed: {e}");
                }
            }
            i = j;
        }
        // Live torn-tail repairs (append hit a fault, recovery truncated
        // and re-appended) are flight-recorder moments.
        if let Some(c) = &torn {
            let now = c.get();
            if now > torn_seen {
                state.flight.record(FL_REPAIR, 0, 0, 0, now);
                torn_seen = now;
            }
        }
        // Acks ride the ordinary outbound queues as control frames (so
        // they are never drop-oldest'd): b = newly-durable count, body =
        // the last durable offset.
        for (_, (conn, chans)) in acks {
            for (chan, (count, last)) in chans {
                conn.send(Frame::with_body(
                    K_PUBLISH_ACK,
                    chan,
                    count,
                    WireBuf::from(last.to_be_bytes().to_vec()),
                ));
            }
        }
    }
    if let Some(store) = &state.store {
        let _ = store.sync_all();
    }
}

/// Replay history for one `K_SUBSCRIBE_FROM`, then hand off to live
/// delivery without a gap: walk the segment log from `from`, stream each
/// record as a `K_EVENT` with the offset trailer, and register a live
/// subscription under the fan-out lock exactly when disk has caught up
/// with the channel head.
fn replay_loop(
    state: Arc<State>,
    conn: Arc<ConnShared>,
    chan: u32,
    log: Arc<ChannelLog>,
    from: u64,
    delivered: Arc<AtomicU64>,
) {
    if let Some(store) = &state.store {
        store.metrics().replays.inc();
    }
    // Retention may have retired segments below `from`; start at the
    // oldest record still on disk rather than failing the subscribe.
    let mut next = from.max(log.oldest());
    state.flight.record(FL_REPLAY_START, conn.id, chan, 0, next);
    // Format ids are assigned per daemon run; a record appended before a
    // restart may carry an id the current registry assigned to a
    // different layout (or none). Each segment is self-describing, so
    // re-register its meta and map recorded id → current id as we go.
    let mut fmt_map: HashMap<u32, Option<u32>> = HashMap::new();
    // Pace replay off the subscriber's queue: stream a chunk, then wait
    // for the writer to drain below a low-water mark before the next.
    // Replayed history must never be drop-oldest'd — the whole point of
    // `subscribe_from` is losslessness.
    let chunk = (state.queue_capacity / 4).max(16);
    let low_water = chunk;
    loop {
        if !conn.alive.load(Ordering::Relaxed) || state.shutdown.load(Ordering::Relaxed) {
            return;
        }
        while conn.outbound.event_backlog() > low_water {
            if !conn.alive.load(Ordering::Relaxed) || state.shutdown.load(Ordering::Relaxed) {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let readable = log.readable();
        if next < readable {
            let to = readable.min(next + chunk as u64);
            let sent = log.read_range(next, to, &mut |item| match item {
                ReplayItem::Meta { format, meta } => {
                    let current = fmt_map.entry(format).or_insert_with(|| {
                        state.formats.register_meta(meta).ok().map(|(id, _, _)| id)
                    });
                    let Some(current) = *current else { return };
                    let mut ann = conn.announced.lock().unwrap_or_else(|p| p.into_inner());
                    if ann.insert(current) {
                        if let Some(m) = state.formats.meta(current) {
                            conn.send(Frame::with_body(K_ANNOUNCE, current, 0, WireBuf::from(m)));
                        }
                    }
                }
                ReplayItem::Event {
                    offset,
                    format,
                    payload,
                } => {
                    let Some(Some(current)) = fmt_map.get(&format) else {
                        // Its meta failed to register — undecodable for
                        // this daemon, skip rather than ship garbage.
                        return;
                    };
                    let mut v = Vec::with_capacity(payload.len() + OFFSET_TRAILER_LEN);
                    v.extend_from_slice(payload);
                    v.extend_from_slice(&offset.to_be_bytes());
                    conn.send(Frame::with_body(
                        K_EVENT,
                        chan,
                        current | OFFSET_FLAG,
                        WireBuf::from(v),
                    ));
                }
            });
            match sent {
                Ok(_) => {
                    next = to;
                    // The streamed chunk is delivered: the lag watermark
                    // tracks replay progress, not just live delivery.
                    delivered.fetch_max(next, Ordering::Relaxed);
                }
                Err(e) => {
                    send_error(&state, &conn, E_CHANNEL, format!("replay failed: {e}"));
                    return;
                }
            }
            continue;
        }
        // Disk is caught up with everything flushed. Try the handoff: if,
        // under the fan-out lock, nothing is still in flight between the
        // flushed frontier and the head (publishers reserve offsets under
        // this same lock, so the head is frozen here), a live
        // subscription registered now continues the sequence gaplessly.
        let Some(fanout) = state.channel(chan) else {
            return;
        };
        let mut f = fanout.lock().unwrap_or_else(|p| p.into_inner());
        if log.readable() >= log.head() && next >= log.head() {
            let sub = RemoteSubscriber {
                conn: conn.clone(),
                channel: chan,
                predicate: None,
                compiled: HashMap::new(),
                formats: state.formats.clone(),
                sink: state.hops.clone(),
                hops: state.chan_hops(chan),
                evicted_stalled: state.metrics.evicted_stalled.clone(),
                delivered: Some(delivered.clone()),
            };
            let id = f.subscribe(sub);
            drop(f);
            state
                .flight
                .record(FL_REPLAY_FINISH, conn.id, chan, 0, next);
            conn.durable_subs
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .push((chan, id));
            // Closes the race with connection teardown: if the conn died
            // between registration and our push, its teardown may have
            // drained `durable_subs` before we added this entry — remove
            // our own registration (idempotent with teardown's).
            if !conn.alive.load(Ordering::Relaxed) {
                fanout
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .retain(|sid, _| sid != id);
            }
            return;
        }
        drop(f);
        // Appends are still in flight between `readable` and `head`;
        // yield until the store writer flushes them.
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outbound_drops_oldest_event_but_never_control_frames() {
        let out = Outbound::new(2, Duration::from_secs(60));
        assert!(matches!(
            out.send(Frame::with_body(K_EVENT, 0, 0, vec![1])),
            Enqueue::Sent
        ));
        assert!(matches!(
            out.send(Frame::with_body(K_EVENT, 0, 0, vec![2])),
            Enqueue::Sent
        ));
        // Control frame squeezes in regardless of the event budget.
        assert!(matches!(
            out.send(Frame::control(K_SUBSCRIBE_ACK, 0, 0)),
            Enqueue::Sent
        ));
        // Third event evicts the oldest event, not the ack.
        assert!(matches!(
            out.send(Frame::with_body(K_EVENT, 0, 0, vec![3])),
            Enqueue::DroppedOldest
        ));
        out.close();
        let mut kinds_bodies: Vec<(u8, Vec<u8>)> = Vec::new();
        while let Some(f) = out.pop() {
            kinds_bodies.push((f.kind, f.body.to_vec()));
        }
        assert_eq!(
            kinds_bodies,
            vec![
                (K_EVENT, vec![2]),
                (K_SUBSCRIBE_ACK, vec![]),
                (K_EVENT, vec![3]),
            ]
        );
    }

    #[test]
    fn try_pop_batch_drains_everything_queued() {
        let out = Outbound::new(8, Duration::from_secs(60));
        for i in 0..5u8 {
            out.send(Frame::with_body(K_EVENT, 0, 0, vec![i]));
        }
        out.send(Frame::control(K_SUBSCRIBE_ACK, 0, 0));
        let mut batch = Vec::new();
        let mut traces = Vec::new();
        assert!(matches!(
            out.try_pop_batch(&mut batch, &mut traces, MAX_WRITE_BATCH),
            Drained::Got
        ));
        assert_eq!(batch.len(), 6, "one wakeup drains the whole queue");
        assert_eq!(traces.len(), 6, "trace slots stay parallel to frames");
        // An empty open queue reports Empty, not end-of-stream.
        batch.clear();
        traces.clear();
        assert!(matches!(
            out.try_pop_batch(&mut batch, &mut traces, MAX_WRITE_BATCH),
            Drained::Empty
        ));
        // Event accounting went down with the drain: room for more again.
        for i in 0..8u8 {
            assert!(matches!(
                out.send(Frame::with_body(K_EVENT, 0, 0, vec![i])),
                Enqueue::Sent
            ));
        }
        let mut rest = Vec::new();
        let mut rest_traces = Vec::new();
        assert!(matches!(
            out.try_pop_batch(&mut rest, &mut rest_traces, 3),
            Drained::Got
        ));
        assert_eq!(rest.len(), 3, "batch size is capped by `max`");
        out.close();
        let mut tail = Vec::new();
        let mut tail_traces = Vec::new();
        assert!(matches!(
            out.try_pop_batch(&mut tail, &mut tail_traces, MAX_WRITE_BATCH),
            Drained::Got
        ));
        assert_eq!(tail.len(), 5, "close still drains queued frames");
        assert!(matches!(
            out.try_pop_batch(&mut tail, &mut tail_traces, MAX_WRITE_BATCH),
            Drained::Done
        ));
    }

    #[test]
    fn outbound_close_drains_then_ends() {
        let out = Outbound::new(4, Duration::from_secs(60));
        out.send(Frame::control(K_BYE_ACK, 0, 0));
        out.close();
        assert!(matches!(
            out.send(Frame::control(K_BYE_ACK, 0, 0)),
            Enqueue::Closed
        ));
        assert_eq!(out.pop().map(|f| f.kind), Some(K_BYE_ACK));
        assert!(out.pop().is_none());
    }

    #[test]
    fn open_channel_is_create_or_get() {
        let state = State::new(&ServConfig {
            queue_capacity: 4,
            stats_interval: None,
            ..ServConfig::default()
        })
        .unwrap();
        let a = state.open_channel("alpha");
        let b = state.open_channel("beta");
        assert_ne!(a, b);
        assert_eq!(state.open_channel("alpha"), a);
        assert!(state.channel(a).is_some());
        assert!(state.channel(99).is_none());
        // The stats channel is pre-opened and create-or-get finds it.
        assert_eq!(state.open_channel(STATS_CHANNEL), state.stats_channel);
    }

    #[test]
    fn encoded_stats_dedup_until_the_metric_set_changes() {
        let state = State::new(&ServConfig::default()).unwrap();
        state.metrics.events_in.add(3);
        let (fmt_a, wire_a) = state.encode_stats().expect("snapshot encodes");
        let (fmt_b, _) = state.encode_stats().expect("snapshot encodes");
        assert_eq!(
            fmt_a, fmt_b,
            "equal metric sets produce one registered format"
        );
        assert!(!wire_a.is_empty());
        // A new metric changes the schema, hence the format id.
        state.registry.counter("serv_extra").inc();
        let (fmt_c, _) = state.encode_stats().expect("snapshot encodes");
        assert_ne!(fmt_a, fmt_c);
    }
}
