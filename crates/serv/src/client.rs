//! The blocking client: one TCP session with a serv daemon.
//!
//! A [`ServClient`] plays either or both protocol roles:
//!
//! * **publisher** — register formats once ([`ServClient::register_format`]
//!   ships the serialized layout; the daemon dedups it against every other
//!   session's), then [`ServClient::publish`] native bytes with no
//!   per-event encoding at all: the NDR sender-side O(1) cost.
//! * **subscriber** — [`ServClient::subscribe`] with an optional
//!   [`Predicate`] (evaluated on the daemon, against the publisher's wire
//!   format, before transmission), then [`ServClient::poll`] events. All
//!   receive-side conversion runs here, in an embedded [`pbio::Reader`]:
//!   homogeneous publisher/subscriber pairs stay zero-copy, heterogeneous
//!   pairs get a DCG conversion compiled on first contact with the format.
//!
//! Every received frame comes through one loop, `ServClient::recv`: the
//! blocking socket read into the [`FrameDecoder`] the daemon and mesh
//! links use, one read per call under a timeout armed to the caller's
//! deadline, so a frame stalled halfway waits in the decoder instead of
//! holding the caller. Control frames are handled there once; corrupt
//! and oversized frames are counted and skipped; an event's payload is
//! viewed (or converted) where it lies in the decoder's buffer. Events
//! that race an acknowledged request wait in a bounded queue instead.
//! Each publish is one borrowed `writev`.
//!
//! With [`ClientConfig::resume`] enabled the session is **fault
//! tolerant**: a broken connection flips the client into an outage state
//! instead of erroring, publishes buffer locally (bounded, drop-oldest,
//! counted), and every subsequent call drives a reconnect with capped
//! exponential backoff plus deterministic jitter. On reconnect the client
//! resumes under a bumped session epoch ([`crate::protocol::K_RESUME`]),
//! replays its format registrations, channel opens, and subscriptions,
//! then flushes the buffered publishes — callers never see the outage
//! beyond the counters and the latency.

use std::collections::HashMap;
use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pbio::{BufPool, PbioError, Reader, RecordView};
use pbio_chan::filter::Predicate;
use pbio_chan::wire::serialize_predicate;
use pbio_net::buf::WireBuf;
use pbio_net::clock::ClockSync;
use pbio_net::frame::{
    write_frame_raw, Frame, FrameDecoder, FrameError, FrameHeader, FRAME_HEADER_SIZE,
};
use pbio_obs::export::{
    hop_schema, hop_value, snapshot_from_value, stats_schema, stats_value, topo_from_value,
    StatsHeader, TopoSnapshot, ROLE_CLIENT,
};
use pbio_obs::{
    epoch_ns, Bounded, Counter, Histogram, Overflow, Registry, Snapshot, Span, TraceCtx, TraceHop,
    TraceSampler, TraceSink, HOP_DECODE,
};
use pbio_types::arch::ArchProfile;
use pbio_types::layout::Layout;
use pbio_types::meta::{deserialize_layout, serialize_layout};
use pbio_types::schema::Schema;
use pbio_types::value::{decode_native, encode_native_into, RecordValue};

use crate::error::ServError;
use crate::protocol::*;

/// Smallest read timeout we arm (zero would disable the timeout entirely).
const MIN_TIMEOUT: Duration = Duration::from_millis(1);

/// Default per-call timeout for handshake and acknowledged requests.
const DEFAULT_TIMEOUT: Duration = Duration::from_secs(5);

/// One event delivered to a subscriber: the record, viewed through the
/// subscriber's own layout (converted if the publisher's architecture
/// differs, borrowed straight from the receive buffer if not).
pub struct Event<'a> {
    /// Channel the event arrived on.
    pub channel: u32,
    /// Daemon-global format id of the record.
    pub format: u32,
    /// The event's offset in the channel's segment log — present only on
    /// durable channels with the durable capability negotiated.
    pub offset: Option<u64>,
    /// The record itself.
    pub view: RecordView<'a>,
}

/// Client-side counters — the same shape of books the daemon keeps, so a
/// monitoring consumer can line both up stage by stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Events received.
    pub events: u64,
    /// Events used directly from the receive buffer (no conversion).
    pub zero_copy_events: u64,
    /// Events that went through a generated conversion.
    pub converted_events: u64,
    /// Frame bytes received (headers + bodies).
    pub bytes_in: u64,
    /// Frame bytes sent (headers + bodies).
    pub bytes_out: u64,
    /// Scratch-buffer requests served from the pool.
    pub pool_hits: u64,
    /// Scratch-buffer requests that had to allocate.
    pub pool_misses: u64,
    /// Events discarded because they raced an acknowledged request and
    /// overflowed the bounded pending queue.
    pub dropped: u64,
    /// Publish calls made (whether sent directly or buffered).
    pub publishes: u64,
    /// Publishes buffered locally during an outage (sent-direct count is
    /// `publishes - buffered`).
    pub buffered: u64,
    /// Buffered publishes replayed to the daemon after a reconnect.
    pub buffered_replayed: u64,
    /// Buffered publishes discarded by the outage buffer's drop-oldest
    /// bound before any reconnect succeeded.
    pub buffer_dropped: u64,
    /// Completed reconnect + resume + replay cycles.
    pub reconnects: u64,
    /// Inbound frames rejected (failed checksum or oversized length) and
    /// skipped without tearing the session down.
    pub frames_rejected: u64,
    /// Publishes the daemon acknowledged as durable (flushed to its
    /// segment log) via [`crate::protocol::K_PUBLISH_ACK`].
    pub publishes_acked: u64,
}

/// Pre-resolved handles into the client's per-instance registry.
struct ClientMetrics {
    events: Arc<Counter>,
    zero_copy_events: Arc<Counter>,
    converted_events: Arc<Counter>,
    bytes_in: Arc<Counter>,
    bytes_out: Arc<Counter>,
    dropped: Arc<Counter>,
    publishes: Arc<Counter>,
    buffered: Arc<Counter>,
    buffered_replayed: Arc<Counter>,
    buffer_dropped: Arc<Counter>,
    reconnects: Arc<Counter>,
    frames_rejected: Arc<Counter>,
    publishes_acked: Arc<Counter>,
    /// Time encoding a [`RecordValue`] in [`ServClient::publish_value`].
    encode_ns: Arc<Histogram>,
    /// Time converting a received record that was not zero-copy.
    convert_ns: Arc<Histogram>,
}

impl ClientMetrics {
    fn resolve(reg: &Registry) -> ClientMetrics {
        ClientMetrics {
            events: reg.counter("client_events"),
            zero_copy_events: reg.counter("client_zero_copy_events"),
            converted_events: reg.counter("client_converted_events"),
            bytes_in: reg.counter("client_bytes_in"),
            bytes_out: reg.counter("client_bytes_out"),
            dropped: reg.counter("client_dropped"),
            publishes: reg.counter("client_publishes"),
            buffered: reg.counter("client_buffered"),
            buffered_replayed: reg.counter("client_buffered_replayed"),
            buffer_dropped: reg.counter("client_buffer_dropped"),
            reconnects: reg.counter("client_reconnects"),
            frames_rejected: reg.counter("client_frames_rejected"),
            publishes_acked: reg.counter("client_publishes_acked"),
            encode_ns: reg.histogram("client_encode_ns"),
            convert_ns: reg.histogram("client_convert_ns"),
        }
    }
}

/// Events buffered while awaiting an acknowledgement before drop-oldest
/// kicks in (control frames are never dropped).
const MAX_PENDING_EVENTS: usize = 256;

/// Bounded capacity of the client-side hop sink (decode hops accumulate
/// here until [`ServClient::publish_trace`] or
/// [`ServClient::take_trace_hops`] drains them).
const TRACE_SINK_CAPACITY: usize = 256;

/// Client connection options.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Offer the distributed-tracing capability in the handshake. When
    /// the daemon grants it, sampled publishes carry a trace trailer and
    /// received traced events are stamped with a `decode` hop. `false`
    /// makes this client indistinguishable from a pre-tracing one.
    pub trace: bool,
    /// Offer the session-resume capability and auto-reconnect on
    /// connection loss. When granted by the daemon, a broken socket is an
    /// *outage* rather than an error: publishes buffer locally and the
    /// session (formats, channels, subscriptions) is re-established
    /// transparently under a new epoch once the daemon is reachable.
    pub resume: bool,
    /// First reconnect backoff step; doubles per failed attempt.
    pub backoff_initial: Duration,
    /// Backoff ceiling (the "capped" in capped exponential backoff).
    pub backoff_max: Duration,
    /// Publishes buffered during an outage before drop-oldest discards
    /// the oldest (each discard is counted in
    /// [`ClientStats::buffer_dropped`]).
    pub outage_buffer: usize,
    /// Offer the durable-channels capability in the handshake. When the
    /// daemon grants it (it runs a store), events on durable channels
    /// arrive with their log offset, publishes are acknowledged once on
    /// disk ([`crate::protocol::K_PUBLISH_ACK`]), and
    /// [`ServClient::subscribe_from`] replays history. `false` makes
    /// this client indistinguishable from a pre-durability one.
    pub durable: bool,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            trace: true,
            resume: false,
            backoff_initial: Duration::from_millis(25),
            backoff_max: Duration::from_secs(1),
            outage_buffer: 256,
            durable: true,
        }
    }
}

/// A blocking connection to a [`crate::ServDaemon`].
pub struct ServClient {
    /// The socket: blocking, one fd, written frame by frame.
    stream: TcpStream,
    /// Reassembles the frames read off `stream`; bodies are viewed in
    /// place in its buffer.
    dec: FrameDecoder,
    profile: ArchProfile,
    reader: Reader,
    /// Daemon-global format id -> this client's native layout (for
    /// encoding values to publish).
    formats: HashMap<u32, Arc<Layout>>,
    /// Frames that arrived while awaiting an acknowledgement.
    pending: Bounded<Frame>,
    /// Scratch pool: trailer-stamped publishes and value encodings cycle
    /// through it.
    pool: Arc<BufPool>,
    /// Body of the frame being served from `pending` (a zero-copy view
    /// of a raced event borrows it); `None` while frames come straight
    /// from the decoder.
    raced: Option<WireBuf>,
    timeout: Duration,
    next_token: u32,
    /// Daemon-assigned connection id (from the HELLO ack) — stamps this
    /// client's stats records.
    conn_id: u32,
    /// Per-client metric registry ([`ClientStats`] is a view of it).
    registry: Arc<Registry>,
    metrics: ClientMetrics,
    /// Wire layouts by format id, from ANNOUNCE frames: enough to decode
    /// any announced record without a declared expectation.
    wire_layouts: HashMap<u32, Arc<Layout>>,
    /// Cached `$stats` schema/format pair, re-registered only when the
    /// metric set (hence the schema) changes.
    stats_format: Option<(Schema, u32)>,
    stats_seq: u64,
    /// Capability bits granted by the daemon ([`CAP_TRACE`]…).
    caps: u32,
    /// Offset into the daemon's timebase, measured around the handshake;
    /// every trace stamp this client produces is pre-corrected through it.
    clock: ClockSync,
    /// Head-based publish sampler (modulus adopted from the HELLO ack;
    /// 0 whenever tracing is off, making [`TraceSampler::try_sample`] a
    /// single relaxed load on the publish path).
    sampler: TraceSampler,
    /// Decode hops recorded for received traced events.
    trace_hops: Arc<TraceSink>,
    /// Channel names by id (from [`ServClient::open_channel`]), for hop
    /// and drop metric labels.
    chan_names: HashMap<u32, String>,
    /// Per-channel `hop_decode_ns{chan=…}`, resolved lazily on the
    /// sampled path only.
    decode_hists: HashMap<u32, Arc<Histogram>>,
    /// Per-channel `client_dropped{chan=…}`, resolved lazily on the drop
    /// path only.
    drop_counters: HashMap<u32, Arc<Counter>>,
    /// Cached hop-record format id (registered on first
    /// [`ServClient::publish_trace`]).
    trace_format: Option<u32>,
    /// Connection options (resume, backoff, tracing offer).
    config: ClientConfig,
    /// Resolved daemon address, kept for reconnects.
    addr: SocketAddr,
    /// Process-unique identity this client resumes sessions under.
    client_id: u64,
    /// Monotonic session epoch: bumped for every [`K_RESUME`], so the
    /// daemon can tell the surviving connection from stale duplicates.
    epoch: u32,
    /// Resume was offered *and* granted: connection loss is an outage,
    /// not an error.
    resume_on: bool,
    /// Present while disconnected: the reconnect backoff schedule.
    outage: Option<Outage>,
    /// Publishes buffered during an outage (public channel + format ids,
    /// native bytes), drained oldest-first after a successful resume.
    outage_buf: Bounded<(u32, u32, Vec<u8>)>,
    /// Format registrations in order, by public id, for session replay
    /// (the layout itself lives in `formats`).
    journal_formats: Vec<u32>,
    /// Channel opens in order: `(name, public id, flags)` — flags carry
    /// [`CHAN_DURABLE`] so a replayed open re-attaches the segment log.
    journal_channels: Vec<(String, u32, u32)>,
    /// Subscriptions in order: `(public channel, predicate flag,
    /// serialized predicate)`.
    journal_subs: Vec<(u32, u32, Vec<u8>)>,
    /// Offset subscriptions in order: `(public channel, starting
    /// offset)`. On resume each replays from
    /// `max(start, last seen offset + 1)` — lossless across the outage.
    journal_subs_from: Vec<(u32, u64)>,
    /// Per public channel: highest event offset seen by the poll loop
    /// (drives lossless `subscribe_from` resume).
    last_offsets: HashMap<u32, u64>,
    /// Per public channel: last offset the daemon acked as durable
    /// ([`K_PUBLISH_ACK`]).
    durable_offsets: HashMap<u32, u64>,
    /// Set when an ack advances `durable_offsets`; cleared as a poll
    /// starts, so that poll returns once its acks made progress.
    acks_advanced: bool,
    /// Public→wire id maps. Public ids are what callers hold; wire ids
    /// are what the *current* daemon session assigned. Identity until a
    /// daemon restart makes them diverge.
    fmt_to_wire: HashMap<u32, u32>,
    fmt_from_wire: HashMap<u32, u32>,
    chan_to_wire: HashMap<u32, u32>,
    chan_from_wire: HashMap<u32, u32>,
    /// Mint for public ids whose wire id collided with an existing
    /// public id after a daemon restart.
    next_public: u32,
}

/// Reconnect schedule while disconnected.
struct Outage {
    /// Failed attempts so far (drives the exponential step).
    attempts: u32,
    /// Next moment a reconnect may be attempted.
    next_try: Instant,
}

/// One event delivered raw: the publisher's untouched NDR bytes plus the
/// wire layout they were announced with (see [`ServClient::poll_raw`]).
#[derive(Debug)]
pub struct RawEvent<'a> {
    /// Channel the event arrived on.
    pub channel: u32,
    /// Daemon-global format id of the record.
    pub format: u32,
    /// The event's offset in the channel's segment log — present only on
    /// durable channels with the durable capability negotiated.
    pub offset: Option<u64>,
    /// The publisher's layout, as announced.
    pub layout: Arc<Layout>,
    /// The record's native bytes, exactly as published.
    pub bytes: &'a [u8],
}

impl ServClient {
    /// Connect and complete the session handshake with default options
    /// (tracing offered; see [`ClientConfig`]).
    pub fn connect(
        addr: impl ToSocketAddrs,
        profile: &ArchProfile,
    ) -> Result<ServClient, ServError> {
        ServClient::connect_with(addr, profile, ClientConfig::default())
    }

    /// Connect and complete the session handshake.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        profile: &ArchProfile,
        config: ClientConfig,
    ) -> Result<ServClient, ServError> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address"))?;
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let pool = BufPool::new();
        let registry = Arc::new(Registry::new());
        let metrics = ClientMetrics::resolve(&registry);
        // Adopt the pool's counters so the registry reads them through.
        registry.register_counter("pool_hits", pool.hit_counter().clone());
        registry.register_counter("pool_misses", pool.miss_counter().clone());
        let mut client = ServClient {
            stream,
            dec: FrameDecoder::new(),
            profile: profile.clone(),
            reader: Reader::new(profile),
            formats: HashMap::new(),
            pending: Bounded::with_exempt(MAX_PENDING_EVENTS, Overflow::DropOldest, |f| {
                f.kind == K_EVENT
            }),
            pool,
            raced: None,
            timeout: DEFAULT_TIMEOUT,
            next_token: 0,
            conn_id: 0,
            registry,
            metrics,
            wire_layouts: HashMap::new(),
            stats_format: None,
            stats_seq: 0,
            caps: 0,
            clock: ClockSync::identity(),
            sampler: TraceSampler::new(0),
            trace_hops: Arc::new(TraceSink::new(TRACE_SINK_CAPACITY, Arc::default())),
            chan_names: HashMap::new(),
            decode_hists: HashMap::new(),
            drop_counters: HashMap::new(),
            trace_format: None,
            outage_buf: Bounded::new(config.outage_buffer, Overflow::DropOldest),
            config,
            addr,
            client_id: fresh_client_id(),
            epoch: 0,
            resume_on: false,
            outage: None,
            journal_formats: Vec::new(),
            journal_channels: Vec::new(),
            journal_subs: Vec::new(),
            journal_subs_from: Vec::new(),
            last_offsets: HashMap::new(),
            durable_offsets: HashMap::new(),
            acks_advanced: false,
            fmt_to_wire: HashMap::new(),
            fmt_from_wire: HashMap::new(),
            chan_to_wire: HashMap::new(),
            chan_from_wire: HashMap::new(),
            next_public: 0,
        };
        client.handshake()?;
        if client.resume_on {
            // Register the resume identity immediately: epoch 1 for the
            // first session, so any later reconnect's epoch supersedes it.
            client.send_resume()?;
        }
        Ok(client)
    }

    /// The HELLO exchange over the current socket: version and
    /// capability negotiation plus the clock-offset sample. Used by the
    /// initial connect and every reconnect.
    fn handshake(&mut self) -> Result<(), ServError> {
        // The HELLO round trip doubles as the clock-offset exchange: the
        // daemon samples its clock while serving it, and the local stamps
        // bracketing the round trip bound the error to rtt/2.
        let mut offered = 0;
        if self.config.trace {
            offered |= CAP_TRACE;
        }
        if self.config.resume {
            offered |= CAP_RESUME;
        }
        if self.config.durable {
            offered |= CAP_DURABLE;
        }
        let name = self.profile.name.as_bytes().to_vec();
        let t_send = epoch_ns();
        self.send_raw(K_HELLO, PROTOCOL_VERSION, offered, &name)?;
        let ack = self.await_ack(K_HELLO_ACK, PROTOCOL_VERSION)?;
        let t_recv = epoch_ns();
        debug_assert_eq!(ack.kind, K_HELLO_ACK);
        self.conn_id = ack.b;
        self.caps = 0;
        // Old daemons send an empty ack body: no capabilities, no clock
        // sample, tracing stays off.
        if ack.body.len() >= 16 {
            let granted = u32::from_be_bytes(ack.body[0..4].try_into().unwrap());
            let t_peer = u64::from_be_bytes(ack.body[4..12].try_into().unwrap());
            let sample_mod = u32::from_be_bytes(ack.body[12..16].try_into().unwrap());
            self.caps = granted & offered;
            if self.caps & CAP_TRACE != 0 {
                self.clock = ClockSync::from_exchange(t_send, t_peer, t_recv);
                self.sampler.set_modulus(sample_mod);
            }
        }
        self.resume_on = self.config.resume && self.caps & CAP_RESUME != 0;
        Ok(())
    }

    /// This client's architecture profile.
    pub fn profile(&self) -> &ArchProfile {
        &self.profile
    }

    /// Register a format for publishing. The layout is computed for this
    /// client's architecture, serialized, and shipped once; the returned
    /// id is the daemon-global format id (identical layouts registered by
    /// any session share it).
    /// The ids handed back are **public**: stable across reconnects.
    /// While the session never breaks they equal the daemon's wire ids;
    /// after a daemon restart the replay re-registers everything and the
    /// client maps between the caller's ids and the new session's.
    pub fn register_format(&mut self, schema: &Schema) -> Result<u32, ServError> {
        self.ensure_connected()?;
        let layout = Arc::new(Layout::of(schema, &self.profile).map_err(PbioError::from)?);
        let meta = serialize_layout(&layout);
        let wire = self.request_format(&meta)?;
        let public = match self.fmt_from_wire.get(&wire) {
            Some(&p) => p,
            None => {
                // Adopt the wire id as the public id unless a previous
                // session already claimed it for a different format.
                let p = if self.formats.contains_key(&wire) {
                    self.mint_public()
                } else {
                    wire
                };
                self.fmt_from_wire.insert(wire, p);
                self.fmt_to_wire.insert(p, wire);
                self.journal_formats.push(p);
                p
            }
        };
        self.formats.insert(public, layout);
        Ok(public)
    }

    /// Create or open the named channel; returns its (public) id.
    pub fn open_channel(&mut self, name: &str) -> Result<u32, ServError> {
        self.open_channel_flags(name, 0)
    }

    /// Create or open the named channel as **durable**: the daemon
    /// appends every event published on it to its segment log, acks
    /// publishers once bytes are flushed ([`ClientStats::publishes_acked`],
    /// [`ServClient::last_durable_offset`]), and serves history through
    /// [`ServClient::subscribe_from`]. Fails if the daemon runs without a
    /// store. Durability is sticky daemon-side: later plain opens of the
    /// same name share the durable channel.
    pub fn open_channel_durable(&mut self, name: &str) -> Result<u32, ServError> {
        self.open_channel_flags(name, CHAN_DURABLE)
    }

    fn open_channel_flags(&mut self, name: &str, flags: u32) -> Result<u32, ServError> {
        self.ensure_connected()?;
        let wire = self.request_channel(name, flags)?;
        let public = match self.chan_from_wire.get(&wire) {
            Some(&p) => {
                // An already-open channel re-opened with stronger flags:
                // upgrade the journal entry so a resume replays them.
                if flags != 0 {
                    if let Some(e) = self.journal_channels.iter_mut().find(|(n, _, _)| n == name) {
                        e.2 |= flags;
                    }
                }
                p
            }
            None => {
                let journaled = self
                    .journal_channels
                    .iter()
                    .find(|(n, _, _)| n == name)
                    .map(|&(_, p, _)| p);
                let p = match journaled {
                    Some(p) => p,
                    None => {
                        let p = if self.journal_channels.iter().any(|&(_, jp, _)| jp == wire) {
                            self.mint_public()
                        } else {
                            wire
                        };
                        self.journal_channels.push((name.to_owned(), p, flags));
                        p
                    }
                };
                self.chan_from_wire.insert(wire, p);
                self.chan_to_wire.insert(p, wire);
                p
            }
        };
        // Remember the name so per-channel metrics label by it rather
        // than by a bare id.
        self.chan_names
            .entry(public)
            .or_insert_with(|| name.to_owned());
        Ok(public)
    }

    /// One K_FORMAT round trip; returns the daemon's wire format id.
    fn request_format(&mut self, meta: &[u8]) -> Result<u32, ServError> {
        let token = self.next_token;
        self.next_token += 1;
        self.send_raw(K_FORMAT, token, 0, meta)?;
        Ok(self.await_ack(K_FORMAT_ACK, token)?.b)
    }

    /// One K_CHANNEL round trip; returns the daemon's wire channel id.
    fn request_channel(&mut self, name: &str, flags: u32) -> Result<u32, ServError> {
        let token = self.next_token;
        self.next_token += 1;
        self.send_raw(K_CHANNEL, token, flags, name.as_bytes())?;
        Ok(self.await_ack(K_CHANNEL_ACK, token)?.b)
    }

    /// A public id not colliding with any id a daemon session might
    /// assign (wire ids count up from zero; this mints from a high range).
    fn mint_public(&mut self) -> u32 {
        self.next_public += 1;
        0x4000_0000 + self.next_public
    }

    /// Register this client's resume identity under a freshly bumped
    /// epoch ([`K_RESUME`]). The daemon evicts any stale predecessor
    /// connection still holding the identity and acks; an `E_STALE`
    /// answer means *this* connection is the stale one.
    fn send_resume(&mut self) -> Result<(), ServError> {
        self.epoch += 1;
        let body = self.client_id.to_be_bytes();
        self.send_raw(K_RESUME, self.epoch, self.client_id as u32, &body)?;
        self.await_ack(K_RESUME_ACK, self.epoch)?;
        Ok(())
    }

    /// One full reconnect cycle: dial, handshake, resume under a new
    /// epoch, replay the session journal, flush the outage buffer. Any
    /// failure leaves the client disconnected for the caller to
    /// reschedule.
    fn reconnect_now(&mut self) -> Result<(), ServError> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        self.stream = stream;
        self.dec = FrameDecoder::new();
        self.pending.drain().for_each(drop);
        self.handshake()?;
        if !self.resume_on {
            return Err(ServError::Protocol(
                "daemon stopped granting session resume".into(),
            ));
        }
        self.send_resume()?;
        self.replay_session()?;
        self.outage = None;
        self.metrics.reconnects.inc();
        self.flush_outage()
    }

    /// Re-establish everything the caller set up before the outage:
    /// formats, channels, subscriptions — in registration order, against
    /// whatever wire ids the (possibly restarted) daemon now assigns.
    fn replay_session(&mut self) -> Result<(), ServError> {
        self.fmt_to_wire.clear();
        self.fmt_from_wire.clear();
        self.chan_to_wire.clear();
        self.chan_from_wire.clear();
        for public in self.journal_formats.clone() {
            let layout = self
                .formats
                .get(&public)
                .ok_or(ServError::UnknownFormat(public))?
                .clone();
            let meta = serialize_layout(&layout);
            let wire = self.request_format(&meta)?;
            self.fmt_to_wire.insert(public, wire);
            self.fmt_from_wire.insert(wire, public);
        }
        for (name, public, flags) in self.journal_channels.clone() {
            let wire = self.request_channel(&name, flags)?;
            self.chan_to_wire.insert(public, wire);
            self.chan_from_wire.insert(wire, public);
        }
        for (public, flagged, body) in self.journal_subs.clone() {
            let wire = self.chan_to_wire.get(&public).copied().unwrap_or(public);
            self.send_raw(K_SUBSCRIBE, wire, flagged, &body)?;
            self.await_ack(K_SUBSCRIBE_ACK, wire)?;
        }
        // Offset subscriptions resume from one past the last event this
        // client actually saw — the outage loses nothing: the daemon
        // replays the gap from its segment log.
        for (public, start) in self.journal_subs_from.clone() {
            let from = match self.last_offsets.get(&public) {
                Some(&last) => start.max(last + 1),
                None => start,
            };
            let wire = self.chan_to_wire.get(&public).copied().unwrap_or(public);
            self.send_raw(K_SUBSCRIBE_FROM, wire, 0, &from.to_be_bytes())?;
            self.await_ack(K_SUBSCRIBE_ACK, wire)?;
        }
        Ok(())
    }

    /// Replay buffered publishes oldest-first. An entry leaves the
    /// buffer only once sent — nothing is lost to a reconnect that itself
    /// dies mid-flush.
    fn flush_outage(&mut self) -> Result<(), ServError> {
        while let Some((channel, format, native)) = self.outage_buf.front().cloned() {
            self.send_publish(channel, format, &native)?;
            self.outage_buf.pop();
            self.metrics.buffered_replayed.inc();
        }
        Ok(())
    }

    /// Enter the outage state (idempotent): first detection schedules an
    /// immediate reconnect attempt.
    fn mark_outage(&mut self) {
        if self.outage.is_none() {
            self.outage = Some(Outage {
                attempts: 0,
                next_try: Instant::now(),
            });
        }
    }

    /// Push the next attempt out by capped exponential backoff plus
    /// deterministic jitter (a hash of identity and attempt number — the
    /// same client replays the same schedule, which keeps seeded fault
    /// runs reproducible while still de-synchronizing distinct clients).
    fn schedule_retry(&mut self) {
        let Some(o) = self.outage.as_mut() else {
            return;
        };
        o.attempts += 1;
        let shift = (o.attempts - 1).min(10);
        let backoff = self
            .config
            .backoff_initial
            .saturating_mul(1u32 << shift)
            .min(self.config.backoff_max);
        let quarter = (backoff.as_nanos() as u64 / 4).max(1);
        let jitter = splitmix64(self.client_id ^ u64::from(o.attempts)) % quarter;
        o.next_try = Instant::now() + backoff + Duration::from_nanos(jitter);
    }

    /// One reconnect attempt right now; on failure the retry is
    /// rescheduled and `false` comes back.
    fn try_reconnect(&mut self) -> bool {
        match self.reconnect_now() {
            Ok(()) => true,
            Err(_) => {
                self.mark_outage();
                self.schedule_retry();
                false
            }
        }
    }

    /// `true` when connected — possibly by completing a due reconnect
    /// attempt on the spot. `false` while the backoff clock still runs.
    fn reconnect_if_due(&mut self) -> bool {
        match &self.outage {
            None => true,
            Some(o) if Instant::now() >= o.next_try => self.try_reconnect(),
            Some(_) => false,
        }
    }

    /// Block (bounded by the client timeout) until connected — the gate
    /// acknowledged requests go through, since unlike publishes they
    /// cannot be buffered.
    fn ensure_connected(&mut self) -> Result<(), ServError> {
        if self.outage.is_none() {
            return Ok(());
        }
        let deadline = Instant::now() + self.timeout;
        while !self.reconnect_if_due() {
            if !self.nap_until_retry(deadline) {
                return Err(ServError::Timeout);
            }
        }
        Ok(())
    }

    /// Sleep toward the next reconnect attempt, bounded by `deadline`
    /// instead of spinning; `false` once the deadline has passed.
    fn nap_until_retry(&self, deadline: Instant) -> bool {
        let now = Instant::now();
        if now >= deadline {
            return false;
        }
        let wait = self
            .outage
            .as_ref()
            .map(|o| o.next_try.saturating_duration_since(now))
            .unwrap_or_default()
            .min(deadline - now)
            .max(MIN_TIMEOUT);
        std::thread::sleep(wait);
        true
    }

    /// Subscribe to a channel. `schema` declares the record this
    /// subscriber expects (laid out for its own architecture; fields are
    /// matched by name, PBIO type-extension rules apply). `filter`, if
    /// given, is shipped to the daemon and evaluated there — at the
    /// source — so rejected events are never transmitted.
    pub fn subscribe(
        &mut self,
        channel: u32,
        schema: &Schema,
        filter: Option<&Predicate>,
    ) -> Result<(), ServError> {
        self.reader.expect(schema)?;
        self.subscribe_raw(channel, filter)
    }

    /// Subscribe without declaring an expected record schema. Events on
    /// such a channel must be consumed through [`ServClient::poll_raw`],
    /// which hands back the publisher's bytes and announced layout — the
    /// path for consumers (like stats monitors) that discover record
    /// shapes dynamically from the announcements themselves.
    pub fn subscribe_raw(
        &mut self,
        channel: u32,
        filter: Option<&Predicate>,
    ) -> Result<(), ServError> {
        self.ensure_connected()?;
        let (flagged, body) = match filter {
            Some(p) => (1, serialize_predicate(p)),
            None => (0, Vec::new()),
        };
        let wire = self.chan_to_wire.get(&channel).copied().unwrap_or(channel);
        self.send_raw(K_SUBSCRIBE, wire, flagged, &body)?;
        self.await_ack(K_SUBSCRIBE_ACK, wire)?;
        let entry = (channel, flagged, body);
        if !self.journal_subs.contains(&entry) {
            self.journal_subs.push(entry);
        }
        Ok(())
    }

    /// Subscribe to a **durable** channel starting at log offset `from`
    /// (0 = everything retained). The daemon streams history from its
    /// segment log — each event stamped with its offset — then hands off
    /// to live delivery with no gap and no duplicates. `schema` declares
    /// the expected record, as in [`ServClient::subscribe`].
    ///
    /// Requires the durable capability (offered by default, granted by
    /// daemons running a store) and a channel opened with
    /// [`ServClient::open_channel_durable`]. With resume negotiated, an
    /// outage resumes from one past the last offset this client saw —
    /// lossless reconnection.
    pub fn subscribe_from(
        &mut self,
        channel: u32,
        schema: &Schema,
        from: u64,
    ) -> Result<(), ServError> {
        self.reader.expect(schema)?;
        self.ensure_connected()?;
        if self.caps & CAP_DURABLE == 0 {
            return Err(ServError::Protocol(
                "durable capability not negotiated with this daemon".into(),
            ));
        }
        let wire = self.chan_to_wire.get(&channel).copied().unwrap_or(channel);
        self.send_raw(K_SUBSCRIBE_FROM, wire, 0, &from.to_be_bytes())?;
        self.await_ack(K_SUBSCRIBE_ACK, wire)?;
        if !self.journal_subs_from.iter().any(|&(c, _)| c == channel) {
            self.journal_subs_from.push((channel, from));
        }
        Ok(())
    }

    /// Publish one event: the record's native bytes, sent as-is (no
    /// translation — the wire format *is* this machine's memory layout).
    /// Fire-and-forget; delivery errors surface on the daemon side.
    ///
    /// With resume negotiated, a dead connection never errors here: the
    /// publish lands in the bounded outage buffer (drop-oldest, counted)
    /// and is replayed after the next successful reconnect.
    pub fn publish(&mut self, channel: u32, format: u32, native: &[u8]) -> Result<(), ServError> {
        let layout = self
            .formats
            .get(&format)
            .ok_or(ServError::UnknownFormat(format))?;
        if native.len() < layout.size() {
            return Err(ServError::Protocol(format!(
                "payload is {} bytes, format {format} requires {}",
                native.len(),
                layout.size()
            )));
        }
        self.publish_native(channel, format, native)
    }

    /// The outage-aware publish tail: send directly while connected,
    /// buffer (bounded) while not, and convert a send that *discovers*
    /// the outage into a buffered publish rather than an error.
    fn publish_native(
        &mut self,
        channel: u32,
        format: u32,
        native: &[u8],
    ) -> Result<(), ServError> {
        self.metrics.publishes.inc();
        if !self.resume_on {
            return self.send_publish(channel, format, native);
        }
        if self.outage.is_some() && !self.reconnect_if_due() {
            self.buffer_publish(channel, format, native);
            return Ok(());
        }
        match self.send_publish(channel, format, native) {
            Ok(()) => Ok(()),
            Err(e) if is_disconnect(&e) => {
                self.mark_outage();
                self.buffer_publish(channel, format, native);
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// The publish tail shared by [`ServClient::publish`] and
    /// [`ServClient::publish_value`]: map public ids to the current
    /// session's wire ids, then stamp a trace trailer onto the 1-in-N
    /// sampled publishes and send everything else untouched. With tracing
    /// off (not negotiated, or modulus 0) the extra cost is one relaxed
    /// atomic load — no branch on the wire, no allocation.
    fn send_publish(&mut self, channel: u32, format: u32, native: &[u8]) -> Result<(), ServError> {
        let wire_chan = self.chan_to_wire.get(&channel).copied().unwrap_or(channel);
        let wire_fmt = self.fmt_to_wire.get(&format).copied().unwrap_or(format);
        if self.caps & CAP_TRACE != 0 && self.sampler.try_sample() {
            let trailers = Trailers {
                trace: Some(self.sampler.next_ctx(self.clock.to_peer(epoch_ns()))),
                offset: None,
            };
            let mut buf = self.pool.get(native.len() + trailers.wire_len());
            let b = trailers.append(&mut buf, wire_fmt, native);
            return self.send_raw(K_PUBLISH, wire_chan, b, &buf);
        }
        self.send_raw(K_PUBLISH, wire_chan, wire_fmt, native)
    }

    /// Park a publish in the outage buffer, evicting oldest-first past
    /// the configured bound. Every entry and eviction is counted, so
    /// `buffered == buffered_replayed + buffer_dropped` once the buffer
    /// drains.
    fn buffer_publish(&mut self, channel: u32, format: u32, native: &[u8]) {
        self.metrics.buffered.inc();
        let entry = (channel, format, native.to_vec());
        if self.outage_buf.push(entry).is_some() {
            self.metrics.buffer_dropped.inc();
        }
    }

    /// Publish a dynamic value, encoding it through the registered
    /// layout first (convenience for tests and tools; hot paths publish
    /// native bytes directly).
    pub fn publish_value(
        &mut self,
        channel: u32,
        format: u32,
        value: &RecordValue,
    ) -> Result<(), ServError> {
        let layout = self
            .formats
            .get(&format)
            .ok_or(ServError::UnknownFormat(format))?
            .clone();
        let mut native = self.pool.get(layout.size());
        {
            let _span = Span::enter(&self.metrics.encode_ns);
            encode_native_into(value, &layout, &mut native).map_err(PbioError::from)?;
        }
        self.publish_native(channel, format, &native)
    }

    /// Wait up to `timeout` for the next event. Returns `Ok(None)` when
    /// the timeout elapses with no event, or earlier, once a publish ack
    /// read in this call has advanced
    /// [`ServClient::last_durable_offset`] and no event is ready: a
    /// durable publisher drains its acks here without sleeping out the
    /// timeout. Format announcements are consumed transparently (they
    /// prepare the reader's conversion — or zero-copy — path before the
    /// first record of each format).
    pub fn poll(&mut self, timeout: Duration) -> Result<Option<Event<'_>>, ServError> {
        let deadline = Instant::now() + timeout;
        self.acks_advanced = false;
        loop {
            let Some((kind, a, b)) = self.next_frame(deadline)? else {
                return Ok(None);
            };
            match kind {
                K_ANNOUNCE => {
                    self.reader
                        .on_format(a, frame_body(&self.raced, &self.dec))?;
                }
                K_EVENT => {
                    // The reader runs on wire ids (announcements carry
                    // them); the caller sees its stable public ids.
                    let (format, len, channel, format_pub, offset) = self.take_event(a, b)?;
                    let zero_copy = self.reader.is_zero_copy(format);
                    if zero_copy {
                        self.metrics.zero_copy_events.inc();
                    } else {
                        self.metrics.converted_events.inc();
                    }
                    let convert_hist = (!zero_copy).then(|| self.metrics.convert_ns.clone());
                    let _span = convert_hist.as_ref().map(|h| Span::enter(h));
                    let payload = &frame_body(&self.raced, &self.dec)[..len];
                    let view = self.reader.on_data(format, payload)?;
                    return Ok(Some(Event {
                        channel,
                        format: format_pub,
                        offset,
                        view,
                    }));
                }
                other => {
                    let body = frame_body(&self.raced, &self.dec);
                    return Err(unexpected(other, a, body, "while polling"));
                }
            }
        }
    }

    /// [`ServClient::poll`] without the embedded reader: events come back
    /// as the publisher's untouched bytes plus the announced wire layout,
    /// for subscriptions made with [`ServClient::subscribe_raw`]. Returns
    /// early on ack progress as `poll` does.
    pub fn poll_raw(&mut self, timeout: Duration) -> Result<Option<RawEvent<'_>>, ServError> {
        let deadline = Instant::now() + timeout;
        self.acks_advanced = false;
        loop {
            let Some((kind, a, b)) = self.next_frame(deadline)? else {
                return Ok(None);
            };
            match kind {
                // `recv` noted the layout when the frame arrived.
                K_ANNOUNCE => {}
                K_EVENT => {
                    let (format, len, channel, format_pub, offset) = self.take_event(a, b)?;
                    let Some(layout) = self.wire_layouts.get(&format).cloned() else {
                        return Err(ServError::Protocol(format!(
                            "event for unannounced format {format}"
                        )));
                    };
                    return Ok(Some(RawEvent {
                        channel,
                        format: format_pub,
                        offset,
                        layout,
                        bytes: &frame_body(&self.raced, &self.dec)[..len],
                    }));
                }
                other => {
                    let body = frame_body(&self.raced, &self.dec);
                    return Err(unexpected(other, a, body, "while polling"));
                }
            }
        }
    }

    /// The next frame [`ServClient::poll`] and [`ServClient::poll_raw`]
    /// see, as `(kind, a, b)`: one that raced an acknowledgement first,
    /// else the socket's. Its body is [`frame_body`]. With resume
    /// negotiated, a dead socket is an outage that [`ServClient::recv`]
    /// keeps reconnecting until `deadline`. `None` also once acks made
    /// progress and nothing else is buffered.
    fn next_frame(&mut self, deadline: Instant) -> Result<Option<(u8, u32, u32)>, ServError> {
        self.raced = None;
        if let Some(f) = self.pending.pop() {
            self.raced = Some(f.body);
            return Ok(Some((f.kind, f.a, f.b)));
        }
        let resume = self.resume_on;
        Ok(self
            .recv(deadline, resume, true)?
            .map(|h| (h.kind, h.a, h.b)))
    }

    /// The client's one receive loop: the header of the next frame off
    /// the socket that the caller must see, its body left in place as
    /// [`FrameDecoder::last_body`]; `None` once `deadline` passes.
    ///
    /// A frame already in the decoder costs no syscall. Otherwise the
    /// socket's read timeout is armed to what is left of `deadline` and
    /// one read is made, so a frame that stalls halfway cannot hold the
    /// caller past its deadline: the decoder keeps the partial bytes for
    /// the next call. Pings are answered, pongs dropped, publish acks
    /// and announced layouts noted here, once for every caller. Corrupt
    /// and oversized frames are counted in
    /// [`ClientStats::frames_rejected`] and skipped; the decoder stays in
    /// sync. A lost connection is an outage when `resume` is set — this
    /// then sleeps and redials on the backoff schedule until `deadline`
    /// — and an error otherwise. With `ack_ends_wait`, a decoder left
    /// empty after an ack advanced a durable offset ends the wait early.
    fn recv(
        &mut self,
        deadline: Instant,
        resume: bool,
        ack_ends_wait: bool,
    ) -> Result<Option<FrameHeader>, ServError> {
        loop {
            if resume && self.outage.is_some() && !self.reconnect_if_due() {
                if !self.nap_until_retry(deadline) {
                    return Ok(None);
                }
                continue;
            }
            let next = self.dec.next().map(|f| f.map(|(h, _)| h));
            match next {
                Ok(Some(h)) => {
                    self.metrics
                        .bytes_in
                        .add((FRAME_HEADER_SIZE + h.len) as u64);
                    match h.kind {
                        // Liveness probes are answered even mid-request:
                        // a client blocked in a long call must not look
                        // dead to the daemon.
                        K_PING => self.send_raw(K_PONG, h.a, 0, &[])?,
                        K_PONG => {}
                        K_PUBLISH_ACK => {
                            let last = self.dec.last_body().get(..8).map(|b| {
                                u64::from_be_bytes(b.try_into().expect("an 8-byte slice"))
                            });
                            self.note_publish_ack(h.a, h.b, last);
                        }
                        K_ANNOUNCE => {
                            // Noted at once, so a reply that depends on it
                            // (K_STATS_ACK) decodes even while the frame
                            // itself waits in `pending`.
                            if let Ok(layout) = deserialize_layout(self.dec.last_body()) {
                                self.wire_layouts.insert(h.a, Arc::new(layout));
                            }
                            return Ok(Some(h));
                        }
                        _ => return Ok(Some(h)),
                    }
                    continue;
                }
                Ok(None) if ack_ends_wait && self.acks_advanced => return Ok(None),
                Ok(None) => {}
                Err(_) => {
                    self.metrics.frames_rejected.inc();
                    continue;
                }
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            self.stream
                .set_read_timeout(Some((deadline - now).max(MIN_TIMEOUT)))?;
            let lost = match self.dec.fill(&mut self.stream) {
                Ok(0) => ServError::Frame(FrameError::Closed),
                Ok(_) => continue,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    continue
                }
                Err(e) => ServError::Io(e),
            };
            if !resume {
                return Err(lost);
            }
            self.mark_outage();
        }
    }

    /// Record the highest event offset seen per (public) channel — the
    /// resume point for lossless `subscribe_from` reconnection.
    fn note_offset(&mut self, channel: u32, offset: u64) {
        let e = self.last_offsets.entry(channel).or_insert(offset);
        *e = (*e).max(offset);
    }

    /// Account one [`K_PUBLISH_ACK`]: `count` events on (wire) channel
    /// `wire_chan` became durable, the last at offset `last` (from the
    /// body).
    fn note_publish_ack(&mut self, wire_chan: u32, count: u32, last: Option<u64>) {
        self.metrics.publishes_acked.add(u64::from(count));
        if let Some(last) = last {
            let public = self
                .chan_from_wire
                .get(&wire_chan)
                .copied()
                .unwrap_or(wire_chan);
            if self.durable_offsets.get(&public) < Some(&last) {
                self.durable_offsets.insert(public, last);
                self.acks_advanced = true;
            }
        }
    }

    /// The `K_EVENT` prologue [`ServClient::poll`] and
    /// [`ServClient::poll_raw`] share: split the trailers off the body,
    /// note the offset and stamp the decode hop. Returns the wire format
    /// id and payload length, then the public channel, format and the
    /// offset. The payload stays where it is: [`frame_body`]`[..len]`.
    fn take_event(
        &mut self,
        a: u32,
        b: u32,
    ) -> Result<(u32, usize, u32, u32, Option<u64>), ServError> {
        self.metrics.events.inc();
        let ev = split_event(b, frame_body(&self.raced, &self.dec))
            .map_err(|e| ServError::Protocol(e.to_string()))?;
        let (format, len, Trailers { trace, offset }) = (ev.format, ev.payload.len(), ev.trailers);
        let channel = self.chan_from_wire.get(&a).copied().unwrap_or(a);
        let format_pub = self.fmt_from_wire.get(&format).copied().unwrap_or(format);
        if let Some(off) = offset {
            self.note_offset(channel, off);
        }
        if let Some(ctx) = trace.filter(TraceCtx::sampled) {
            self.record_decode_hop(channel, &ctx);
        }
        Ok((format, len, channel, format_pub, offset))
    }

    /// Stamp the final hop of a traced event: it reached this subscriber
    /// and is about to be decoded. Times are mapped into the daemon's
    /// timebase so the hop lines up with the daemon-side stamps.
    fn record_decode_hop(&mut self, channel: u32, ctx: &TraceCtx) {
        let t = self.clock.to_peer(epoch_ns());
        let hop = ctx.hop(HOP_DECODE, self.conn_id, channel, t);
        let hist = self.decode_hists.entry(channel).or_insert_with(|| {
            let label = self
                .chan_names
                .get(&channel)
                .cloned()
                .unwrap_or_else(|| channel.to_string());
            self.registry
                .histogram_labeled("hop_decode_ns", "chan", &label)
        });
        hist.record(hop.dur_ns);
        self.trace_hops.push(hop);
    }

    /// Whether records of a format reach this subscriber zero-copy
    /// (unknown formats report `false`).
    pub fn is_zero_copy(&self, format: u32) -> bool {
        let wire = self.fmt_to_wire.get(&format).copied().unwrap_or(format);
        self.reader.is_zero_copy(wire)
    }

    /// DCG compile statistics for a format — `None` when no conversion
    /// was ever built (zero-copy path, or format not yet seen).
    pub fn dcg_stats(&self, format: u32) -> Option<pbio::CompileStats> {
        let wire = self.fmt_to_wire.get(&format).copied().unwrap_or(format);
        self.reader.dcg_stats(wire)
    }

    /// Counters (a fixed-field view of [`ServClient::registry`]).
    pub fn stats(&self) -> ClientStats {
        let pool = self.pool.stats();
        ClientStats {
            events: self.metrics.events.get(),
            zero_copy_events: self.metrics.zero_copy_events.get(),
            converted_events: self.metrics.converted_events.get(),
            bytes_in: self.metrics.bytes_in.get(),
            bytes_out: self.metrics.bytes_out.get(),
            pool_hits: pool.hits,
            pool_misses: pool.misses,
            dropped: self.metrics.dropped.get(),
            publishes: self.metrics.publishes.get(),
            buffered: self.metrics.buffered.get(),
            buffered_replayed: self.metrics.buffered_replayed.get(),
            buffer_dropped: self.metrics.buffer_dropped.get(),
            reconnects: self.metrics.reconnects.get(),
            frames_rejected: self.metrics.frames_rejected.get(),
            publishes_acked: self.metrics.publishes_acked.get(),
        }
    }

    /// Whether session resume was negotiated (offered *and* granted) —
    /// i.e. whether connection loss is an outage instead of an error.
    pub fn resume_negotiated(&self) -> bool {
        self.resume_on
    }

    /// The current session epoch (0 when resume was never negotiated;
    /// otherwise 1 for the initial session, +1 per reconnect).
    pub fn session_epoch(&self) -> u32 {
        self.epoch
    }

    /// Whether the client is currently in the outage state (disconnected,
    /// buffering publishes, driving the reconnect schedule).
    pub fn in_outage(&self) -> bool {
        self.outage.is_some()
    }

    /// Publishes currently parked in the outage buffer (awaiting replay
    /// after the next successful reconnect). With this term,
    /// `buffered == buffered_replayed + buffer_dropped + outage_backlog()`
    /// holds at every instant, not just after the buffer drains.
    pub fn outage_backlog(&self) -> usize {
        self.outage_buf.len()
    }

    /// This client's metric registry: every [`ClientStats`] field plus
    /// the encode/convert latency histograms.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The daemon-assigned connection id (echoed in the HELLO ack).
    pub fn conn_id(&self) -> u32 {
        self.conn_id
    }

    /// Whether the distributed-tracing capability was negotiated on this
    /// session (offered by this client *and* granted by the daemon).
    pub fn trace_negotiated(&self) -> bool {
        self.caps & CAP_TRACE != 0
    }

    /// Whether the durable-channels capability was negotiated (offered by
    /// this client *and* granted — i.e. the daemon runs a store).
    pub fn durable_negotiated(&self) -> bool {
        self.caps & CAP_DURABLE != 0
    }

    /// Last offset the daemon acknowledged as durable on `channel`
    /// (`None` until the first [`K_PUBLISH_ACK`] arrives). Everything at
    /// or below it survives a daemon crash.
    pub fn last_durable_offset(&self, channel: u32) -> Option<u64> {
        self.durable_offsets.get(&channel).copied()
    }

    /// Highest event offset this client has seen on `channel` (`None`
    /// before the first stamped event) — the basis for lossless
    /// `subscribe_from` resume.
    pub fn last_seen_offset(&self, channel: u32) -> Option<u64> {
        self.last_offsets.get(&channel).copied()
    }

    /// Change this client's head-sampling modulus locally (0 disables
    /// stamping; the daemon's advertised default was adopted at connect).
    pub fn set_trace_sampling(&self, modulus: u32) {
        self.sampler.set_modulus(modulus);
    }

    /// Current head-sampling modulus (0 = off).
    pub fn trace_sampling(&self) -> u32 {
        self.sampler.modulus()
    }

    /// Set the *daemon's* sampling modulus ([`K_TRACE_CTL`]): the value
    /// advertised to sessions that connect from now on (0 disables).
    /// Returns the modulus that was in effect before.
    pub fn set_daemon_trace(&mut self, modulus: u32) -> Result<u32, ServError> {
        let token = self.next_token;
        self.next_token += 1;
        self.send_raw(K_TRACE_CTL, token, modulus, &[])?;
        Ok(self.await_ack(K_TRACE_CTL_ACK, token)?.b)
    }

    /// Switch the daemon's wire tap ([`K_TAP_CTL`]) to `mode`. Returns
    /// the wire code of the mode previously in effect. The daemon
    /// answers `ERROR` if it was started without
    /// [`crate::ServConfig::tap`], or for an unknown mode (including a
    /// zero sampling modulus) — both surface as [`ServError::Remote`].
    pub fn tap_ctl(&mut self, mode: crate::tap::TapMode) -> Result<u32, ServError> {
        let token = self.next_token;
        self.next_token += 1;
        let (mode, param) = mode.to_wire();
        let body: &[u8] = &param.to_be_bytes();
        // Parameterless modes send an empty body.
        let body = if param == 0 { &[] } else { body };
        self.send_raw(K_TAP_CTL, token, mode, body)?;
        Ok(self.await_ack(K_TAP_CTL_ACK, token)?.b)
    }

    /// Drain the decode hops recorded by this client's poll loop.
    pub fn take_trace_hops(&mut self) -> Vec<TraceHop> {
        self.trace_hops.drain()
    }

    /// Publish this client's accumulated decode hops on `channel`
    /// (normally the daemon's [`TRACE_CHANNEL`], opened by name). Hop
    /// records travel as self-describing PBIO records like everything
    /// else; this path never stamps trailers of its own, so exporting a
    /// trace cannot generate further traces. Returns the number of hop
    /// records published.
    pub fn publish_trace(&mut self, channel: u32) -> Result<usize, ServError> {
        let hops = self.trace_hops.drain();
        if hops.is_empty() {
            return Ok(0);
        }
        let format = match self.trace_format {
            Some(f) => f,
            None => {
                let f = self.register_format(&hop_schema())?;
                self.trace_format = Some(f);
                f
            }
        };
        let layout = self
            .formats
            .get(&format)
            .ok_or(ServError::UnknownFormat(format))?
            .clone();
        // Hop records never stamp trailers of their own, so this maps ids
        // and sends directly rather than going through `send_publish`.
        let wire_chan = self.chan_to_wire.get(&channel).copied().unwrap_or(channel);
        let wire_fmt = self.fmt_to_wire.get(&format).copied().unwrap_or(format);
        let mut buf = self.pool.get(layout.size());
        for hop in &hops {
            buf.clear();
            encode_native_into(&hop_value(hop), &layout, &mut buf).map_err(PbioError::from)?;
            self.send_raw(K_PUBLISH, wire_chan, wire_fmt, &buf)?;
        }
        Ok(hops.len())
    }

    /// Pull a one-shot stats snapshot from the daemon ([`K_STATS`]). The
    /// record arrives as native bytes in the daemon's own stats layout
    /// (announced first), and is decoded here — across architectures if
    /// need be — into a header plus [`Snapshot`].
    pub fn pull_stats(&mut self) -> Result<(StatsHeader, Snapshot), ServError> {
        let token = self.next_token;
        self.next_token += 1;
        self.send_raw(K_STATS, token, 0, &[])?;
        let ack = self.await_ack(K_STATS_ACK, token)?;
        let layout = self.wire_layouts.get(&ack.b).cloned().ok_or_else(|| {
            ServError::Protocol(format!("stats format {} was never announced", ack.b))
        })?;
        let value = decode_native(&ack.body, &layout).map_err(PbioError::from)?;
        snapshot_from_value(&value)
            .ok_or_else(|| ServError::Protocol("stats record lacks header fields".into()))
    }

    /// Pull a live topology snapshot from the daemon ([`K_INSPECT`]):
    /// per-connection queue depths and liveness, per-channel fan-out and
    /// durable-log footprint, per-shard reactor load, consumer-lag
    /// watermarks, and the flight-recorder tail — one self-describing
    /// PBIO record under the fixed `$topo` format, decoded here across
    /// architectures like any other event.
    pub fn inspect(&mut self) -> Result<TopoSnapshot, ServError> {
        let token = self.next_token;
        self.next_token += 1;
        self.send_raw(K_INSPECT, token, 0, &[])?;
        let ack = self.await_ack(K_INSPECT_ACK, token)?;
        let layout = self.wire_layouts.get(&ack.b).cloned().ok_or_else(|| {
            ServError::Protocol(format!("topology format {} was never announced", ack.b))
        })?;
        let value = decode_native(&ack.body, &layout).map_err(PbioError::from)?;
        topo_from_value(&value)
            .ok_or_else(|| ServError::Protocol("topology record lacks required fields".into()))
    }

    /// Publish a snapshot of this client's own registry on `channel`
    /// (normally the daemon's `$stats` channel, opened by name via
    /// [`ServClient::open_channel`]). The snapshot's schema is generated
    /// from the metric set and registered like any other format — stats
    /// travel the wire as ordinary PBIO records, laid out for *this*
    /// client's architecture.
    pub fn publish_stats(&mut self, channel: u32) -> Result<(), ServError> {
        let snap = self.registry.snapshot();
        let t = epoch_ns();
        let header = StatsHeader {
            role: ROLE_CLIENT,
            id: self.conn_id,
            seq: self.stats_seq,
            t_ns: t,
            snapshot_ns: t,
        };
        self.stats_seq += 1;
        let schema = stats_schema(&snap);
        let format = match &self.stats_format {
            Some((cached, id)) if *cached == schema => *id,
            _ => {
                let id = self.register_format(&schema)?;
                self.stats_format = Some((schema.clone(), id));
                id
            }
        };
        let value = stats_value(&header, &snap);
        self.publish_value(channel, format, &value)
    }

    /// Graceful disconnect: announce departure and wait for the daemon's
    /// acknowledgement (bounded by the client timeout), so queued frames
    /// are flushed on both sides before the socket closes. A connection
    /// the daemon has already closed (say, after evicting this client)
    /// counts as disconnected.
    pub fn disconnect(mut self) -> Result<(), ServError> {
        self.send_raw(K_BYE, 0, 0, &[])?;
        let deadline = Instant::now() + self.timeout;
        loop {
            let h = match self.recv(deadline, false, false) {
                Ok(Some(h)) => h,
                Ok(None) => return Err(ServError::Timeout),
                Err(e) if is_disconnect(&e) => return Ok(()),
                Err(e) => return Err(e),
            };
            match h.kind {
                K_BYE_ACK => return Ok(()),
                // Late events and announcements racing the goodbye:
                // discard.
                K_EVENT | K_ANNOUNCE => {}
                other => {
                    return Err(unexpected(
                        other,
                        h.a,
                        self.dec.last_body(),
                        "during disconnect",
                    ))
                }
            }
        }
    }

    /// Write one frame, borrowing the body from the caller: a stack
    /// header plus a vectored write, no intermediate buffer.
    fn send_raw(&mut self, kind: u8, a: u32, b: u32, body: &[u8]) -> Result<(), ServError> {
        write_frame_raw(&mut self.stream, kind, a, b, body)?;
        self.stream.flush()?;
        self.metrics
            .bytes_out
            .add((FRAME_HEADER_SIZE + body.len()) as u64);
        Ok(())
    }

    /// Read until the expected acknowledgement (kind + echoed token in
    /// `a`) arrives, buffering any events or announcements that race it.
    fn await_ack(&mut self, kind: u8, token: u32) -> Result<Frame, ServError> {
        let deadline = Instant::now() + self.timeout;
        loop {
            let h = self
                .recv(deadline, false, false)?
                .ok_or(ServError::Timeout)?;
            let f = Frame::with_body(h.kind, h.a, h.b, WireBuf::copy_from(self.dec.last_body()));
            if f.kind == kind && f.a == token {
                return Ok(f);
            }
            match f.kind {
                K_ANNOUNCE | K_EVENT => self.buffer_raced(f),
                other => {
                    let context = format!("while awaiting {kind:#04x}");
                    return Err(unexpected(other, f.a, &f.body, &context));
                }
            }
        }
    }

    /// Buffer a frame that raced an acknowledged request, dropping the
    /// oldest buffered *event* (never an announcement) once the bounded
    /// budget is exhausted — the client-side mirror of the daemon's
    /// outbound drop-oldest policy.
    fn buffer_raced(&mut self, f: Frame) {
        let Some(evicted) = self.pending.push(f) else {
            return;
        };
        self.metrics.dropped.inc();
        // Attribute the drop to the channel it hit, not just the global
        // total — the label resolves once per channel.
        let chan = evicted.a;
        self.drop_counters
            .entry(chan)
            .or_insert_with(|| {
                let label = self
                    .chan_names
                    .get(&chan)
                    .cloned()
                    .unwrap_or_else(|| chan.to_string());
                self.registry
                    .counter_labeled("client_dropped", "chan", &label)
            })
            .inc();
    }
}

/// The body of the frame [`ServClient::next_frame`] returned: a raced
/// frame's own buffer, else the decoder's. A free function over the two
/// fields, so the body can be borrowed beside `&mut` the reader.
fn frame_body<'a>(raced: &'a Option<WireBuf>, dec: &'a FrameDecoder) -> &'a [u8] {
    match raced {
        Some(body) => body,
        None => dec.last_body(),
    }
}

/// The error for a frame the caller had no use for: the daemon's own
/// [`K_ERROR`] (code in `a`, message in the body) as
/// [`ServError::Remote`], any other kind as a protocol error.
fn unexpected(kind: u8, a: u32, body: &[u8], context: &str) -> ServError {
    if kind == K_ERROR {
        return ServError::Remote {
            code: a,
            message: String::from_utf8_lossy(body).into_owned(),
        };
    }
    ServError::Protocol(format!("unexpected frame kind {kind:#04x} {context}"))
}

/// A process-unique resume identity: wall clock, a per-process sequence,
/// and the pid, mixed so two clients — even in two processes started the
/// same nanosecond — do not collide.
fn fresh_client_id() -> u64 {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    splitmix64(epoch_ns() ^ seq.rotate_left(32) ^ (u64::from(std::process::id()) << 16))
}

/// SplitMix64 finalizer: the dependency-free mixer behind client ids and
/// reconnect jitter.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Errors that mean "the connection is gone", as opposed to a protocol
/// violation or a caller mistake — only these flip a resuming client
/// into the outage state.
fn is_disconnect(e: &ServError) -> bool {
    matches!(
        e,
        ServError::Io(_) | ServError::Frame(FrameError::Closed | FrameError::Io(_))
    )
}
