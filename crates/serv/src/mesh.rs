//! Daemon↔daemon federation: sharded channels over a static peer mesh.
//!
//! A mesh of N daemons partitions the channel namespace by a
//! deterministic hash ([`home_of`]): every channel name has exactly one
//! *home* daemon, and that daemon's fan-out is the channel's single
//! ordering point. Any daemon accepts any publish — a publish arriving
//! at a non-home daemon is forwarded over one inter-daemon link to the
//! home, and the home fans it out to every subscriber, local or relayed.
//! Reserved `$`-channels (`$stats`, `$trace`, `$topo`) describe one
//! daemon and are always local — they never route.
//!
//! Links speak the ordinary frame protocol. Every daemon *dials* every
//! peer it knows about; a dialed link is a dedicated thread owning a
//! nonblocking socket, while the inbound half of each pairing rides the
//! acceptor's normal reactor path as a client that negotiated
//! [`CAP_PEER`](crate::protocol::CAP_PEER). All asymmetric state —
//! peer-namespace channel/format id maps, the pending-forward queue,
//! relay subscriptions — lives on the dialing side; the acceptor just
//! serves, with two exceptions keyed off the granted capability:
//!
//! * publishes arriving on a `CAP_PEER` connection always fan out
//!   locally and are never re-forwarded (the structural loop guard);
//! * granting `CAP_PEER` triggers a format-gossip dump, and fresh
//!   registrations are re-broadcast to every peer, so a layout
//!   registered anywhere decodes everywhere. Gossip converges because
//!   [`FormatServer`](pbio_core::registry::FormatServer) deduplicates
//!   by exact metadata bytes: a re-received layout is not fresh, so the
//!   echo dies after one round.
//!
//! Relay fan-out is the zero-copy property end to end: one `K_EVENT`
//! crossing a link becomes N local deliveries by refcount bumps on the
//! far side, exactly like a local publish. A sampled trace trailer
//! survives the crossing and each link stamps a
//! [`HOP_RELAY`](pbio_obs::HOP_RELAY) hop at egress and injection.
//!
//! Failure model: a link that loses its socket reconnects with the
//! capped backoff of [`pbio_net::dial`], re-subscribes its relay
//! subscriptions, and re-dumps formats (both dedup on the far side).
//! Forwards that cannot resolve — link down, channel or format id not
//! yet mapped — park in a bounded pending queue (drop-oldest, counted),
//! so the accounting invariant `attempted == relayed + dropped +
//! pending` holds at every instant and a healed partition drains its
//! backlog exactly once.

use std::collections::{HashMap, HashSet, VecDeque};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pbio_net::buf::WireBuf;
use pbio_net::dial::backoff_delay;
use pbio_net::frame::{read_frame, write_frame, Frame, FrameHeader, WriteBatch};
use pbio_obs::{epoch_ns, TraceCtx, TRACE_TRAILER_LEN};
use pbio_types::arch::ArchProfile;

use crate::protocol::*;

/// One peer in a [`MeshConfig`]: its mesh index and dialable address.
#[derive(Debug, Clone)]
pub struct PeerAddr {
    /// The peer's mesh index (its `MeshConfig::index`).
    pub index: u32,
    /// Address the peer's daemon listens on, e.g. `"127.0.0.1:7000"`.
    pub addr: String,
}

/// Static mesh membership for one daemon.
#[derive(Debug, Clone)]
pub struct MeshConfig {
    /// This daemon's position in the mesh, `0..size`.
    pub index: u32,
    /// Total daemon count the channel hash shards over. Every member
    /// must agree on `size` or they will disagree on channel homes.
    pub size: u32,
    /// The other members this daemon dials at bind time. Late joiners
    /// can be added with [`crate::ServDaemon::connect_peer`].
    pub peers: Vec<PeerAddr>,
}

impl MeshConfig {
    /// A convenience constructor for tests and benches.
    pub fn new(index: u32, size: u32, peers: Vec<PeerAddr>) -> MeshConfig {
        MeshConfig { index, size, peers }
    }
}

/// The home daemon of channel `name` in a mesh of `size` daemons:
/// FNV-1a of the name, mod `size`. Deterministic and dependency-free,
/// so every member computes the same shard map from the name alone.
/// Reserved `$`-channels are the caller's business — daemons pin them
/// local before consulting the hash.
pub fn home_of(name: &str, size: u32) -> u32 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    if size == 0 {
        return 0;
    }
    (h % u64::from(size)) as u32
}

/// A point-in-time view of one peer link, as surfaced by
/// [`crate::ServDaemon::peer_stats`] and the `$topo` peers section.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeerStats {
    /// The peer's mesh index.
    pub peer: u32,
    /// Whether the dialed link currently holds a live session.
    pub connected: bool,
    /// Publish forwards handed to the peer's socket.
    pub relay_tx: u64,
    /// Relayed events received from the peer and injected locally.
    pub relay_rx: u64,
    /// Forwards discarded by the pending queue's drop-oldest bound.
    pub relay_dropped: u64,
    /// Forwards parked awaiting link or id-map resolution.
    pub pending: u64,
    /// [`epoch_ns`] of the last frame received from this peer.
    pub last_rx_ns: u64,
    /// Sessions established on this link (1 = the initial connect).
    pub connects: u64,
}

/// What the mesh needs from the daemon it lives in, kept narrow so the
/// link machinery stays free of daemon internals (and testable without
/// them).
pub(crate) trait MeshHost: Send + Sync {
    /// Register serialized layout metadata, returning the local format
    /// id and whether this call created the entry.
    fn register_meta(&self, meta: &[u8]) -> Option<(u32, bool)>;
    /// Serialized metadata for a local format id.
    fn format_meta(&self, id: u32) -> Option<Arc<[u8]>>;
    /// Number of registered formats; ids are contiguous `0..count`.
    fn format_count(&self) -> u32;
    /// Fan a relayed event out on local channel `chan`. `format`
    /// carries the *local* format id plus any [`TRACE_FLAG`] /
    /// [`OFFSET_FLAG`] bits describing trailers still on `body`.
    fn inject_event(&self, chan: u32, format: u32, body: WireBuf, peer: u32);
    /// Record a [`HOP_RELAY`](pbio_obs::HOP_RELAY) trace hop against
    /// `peer`'s link.
    fn relay_hop(&self, ctx: &TraceCtx, chan: u32, peer: u32);
}

/// Work items the daemon hands a link thread.
enum LinkMsg {
    /// Forward a publish to the channel's home daemon.
    Forward {
        chan: Arc<str>,
        format: u32,
        traced: bool,
        body: WireBuf,
    },
    /// Ensure a relay subscription: events published on `chan` at the
    /// peer should flow back and fan out on local channel `local_chan`.
    Subscribe { chan: Arc<str>, local_chan: u32 },
    /// Announce a freshly registered local format to the peer.
    Gossip { format: u32 },
}

/// Counters shared between a link thread and observers.
struct LinkShared {
    connected: AtomicBool,
    relay_tx: AtomicU64,
    relay_rx: AtomicU64,
    relay_dropped: AtomicU64,
    pending: AtomicU64,
    last_rx_ns: AtomicU64,
    connects: AtomicU64,
    /// Test hook: while set, the link severs its socket and refuses to
    /// redial — a partition. Clearing it is the heal.
    partitioned: AtomicBool,
}

impl LinkShared {
    fn new() -> LinkShared {
        LinkShared {
            connected: AtomicBool::new(false),
            relay_tx: AtomicU64::new(0),
            relay_rx: AtomicU64::new(0),
            relay_dropped: AtomicU64::new(0),
            pending: AtomicU64::new(0),
            last_rx_ns: AtomicU64::new(0),
            connects: AtomicU64::new(0),
            partitioned: AtomicBool::new(false),
        }
    }
}

/// The daemon-side handle on one dialed link.
struct PeerHandle {
    tx: Sender<LinkMsg>,
    shared: Arc<LinkShared>,
    thread: Option<JoinHandle<()>>,
}

/// The mesh: this daemon's membership plus one dialed link per peer.
pub(crate) struct Mesh {
    pub(crate) index: u32,
    pub(crate) size: u32,
    links: Mutex<HashMap<u32, PeerHandle>>,
    shutdown: Arc<AtomicBool>,
}

impl Mesh {
    pub(crate) fn new(index: u32, size: u32) -> Mesh {
        Mesh {
            index,
            size: size.max(1),
            links: Mutex::new(HashMap::new()),
            shutdown: Arc::new(AtomicBool::new(false)),
        }
    }

    /// The home daemon for `name`, with reserved `$`-channels pinned to
    /// this daemon.
    pub(crate) fn home(&self, name: &str) -> u32 {
        if name.starts_with('$') {
            self.index
        } else {
            home_of(name, self.size)
        }
    }

    /// Spawn (or replace) the dialed link to `peer` at `addr`.
    pub(crate) fn add_peer(&self, peer: u32, addr: String, host: Arc<dyn MeshHost>) {
        let (tx, rx) = channel();
        let shared = Arc::new(LinkShared::new());
        let ctx = LinkCtx {
            peer,
            addr,
            rx,
            shared: shared.clone(),
            shutdown: self.shutdown.clone(),
            host,
        };
        let thread = std::thread::Builder::new()
            .name(format!("pbio-serv-peer{peer}"))
            .spawn(move || link_loop(ctx))
            .ok();
        let mut links = self.links.lock().unwrap_or_else(|p| p.into_inner());
        // A replaced link winds down on its own: dropping its handle
        // drops its sender, and the orphaned thread exits when the
        // mailbox reports the disconnect within one tick.
        links.insert(peer, PeerHandle { tx, shared, thread });
    }

    /// Hand a publish to the link that dials `home`. Returns false when
    /// no such link exists (a home outside the configured mesh).
    pub(crate) fn forward(
        &self,
        home: u32,
        chan: Arc<str>,
        format: u32,
        traced: bool,
        body: WireBuf,
    ) -> bool {
        let links = self.links.lock().unwrap_or_else(|p| p.into_inner());
        match links.get(&home) {
            Some(l) => {
                l.tx.send(LinkMsg::Forward {
                    chan,
                    format,
                    traced,
                    body,
                })
                .is_ok()
            }
            None => false,
        }
    }

    /// Ensure events on `chan` (homed at `home`) relay back to local
    /// channel `local_chan`. Idempotent — the link dedups by name.
    pub(crate) fn ensure_relay_sub(&self, home: u32, chan: Arc<str>, local_chan: u32) {
        let links = self.links.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(l) = links.get(&home) {
            let _ = l.tx.send(LinkMsg::Subscribe { chan, local_chan });
        }
    }

    /// Broadcast a freshly registered local format to every peer link.
    pub(crate) fn gossip(&self, format: u32) {
        let links = self.links.lock().unwrap_or_else(|p| p.into_inner());
        for l in links.values() {
            let _ = l.tx.send(LinkMsg::Gossip { format });
        }
    }

    /// Snapshot every link's counters, sorted by peer index.
    pub(crate) fn peer_stats(&self) -> Vec<PeerStats> {
        let links = self.links.lock().unwrap_or_else(|p| p.into_inner());
        let mut out: Vec<PeerStats> = links
            .iter()
            .map(|(peer, l)| PeerStats {
                peer: *peer,
                connected: l.shared.connected.load(Ordering::Relaxed),
                relay_tx: l.shared.relay_tx.load(Ordering::Relaxed),
                relay_rx: l.shared.relay_rx.load(Ordering::Relaxed),
                relay_dropped: l.shared.relay_dropped.load(Ordering::Relaxed),
                pending: l.shared.pending.load(Ordering::Relaxed),
                last_rx_ns: l.shared.last_rx_ns.load(Ordering::Relaxed),
                connects: l.shared.connects.load(Ordering::Relaxed),
            })
            .collect();
        out.sort_by_key(|s| s.peer);
        out
    }

    /// Sever (or heal) the link to `peer`. Returns false for an unknown
    /// peer. A severed link parks forwards in its pending queue and
    /// drains them on heal.
    pub(crate) fn set_partitioned(&self, peer: u32, partitioned: bool) -> bool {
        let links = self.links.lock().unwrap_or_else(|p| p.into_inner());
        match links.get(&peer) {
            Some(l) => {
                l.shared.partitioned.store(partitioned, Ordering::Release);
                true
            }
            None => false,
        }
    }

    /// Stop every link thread and join it.
    pub(crate) fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let handles: Vec<JoinHandle<()>> = {
            let mut links = self.links.lock().unwrap_or_else(|p| p.into_inner());
            links.values_mut().filter_map(|l| l.thread.take()).collect()
        };
        for h in handles {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------------
// The link thread.

/// Mailbox poll granularity; also the socket poll cadence, so the link
/// adds at most ~1 ms to the relay path when otherwise idle.
const TICK: Duration = Duration::from_millis(1);
/// Dial backoff bounds.
const BACKOFF_MIN: Duration = Duration::from_millis(10);
const BACKOFF_MAX: Duration = Duration::from_millis(500);
/// Handshake frame-read timeout.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);
/// Idle time before the link probes the peer with `K_PING`.
const PING_IDLE: Duration = Duration::from_secs(2);
/// Silence past which the session is declared dead and redialed.
const DEAD_IDLE: Duration = Duration::from_secs(8);
/// Bound on forwards parked awaiting resolution; beyond it the oldest
/// is discarded and counted in `relay_dropped`.
const PENDING_CAP: usize = 1024;
/// Socket reads drained per tick before yielding to writes.
const MAX_FILLS: usize = 16;

struct LinkCtx {
    peer: u32,
    addr: String,
    rx: Receiver<LinkMsg>,
    shared: Arc<LinkShared>,
    shutdown: Arc<AtomicBool>,
    host: Arc<dyn MeshHost>,
}

/// A forward that could not resolve yet (link down, or the peer's
/// channel/format ids not mapped).
struct PendingForward {
    chan: Arc<str>,
    format: u32,
    traced: bool,
    body: WireBuf,
}

/// Per-session state, rebuilt from scratch on every (re)connect — peer
/// ids are meaningless across that peer's restarts.
struct Session {
    stream: TcpStream,
    dec: pbio_net::frame::FrameDecoder,
    outq: VecDeque<Frame>,
    /// The head of `outq` in the act of being written: headers encoded,
    /// partial-write offset kept.
    batch: WriteBatch,
    /// channel name → peer channel id.
    chan_peer: HashMap<Arc<str>, u32>,
    /// in-flight channel-open token → name.
    chan_tokens: HashMap<u32, Arc<str>>,
    /// names with an open request already in flight or resolved.
    chan_requested: HashSet<Arc<str>>,
    /// peer channel id → local channel id, for relayed events.
    chan_rev: HashMap<u32, u32>,
    /// local format id → peer format id.
    fmt_peer: HashMap<u32, u32>,
    /// peer format id → local format id.
    fmt_rev: HashMap<u32, u32>,
    /// local format ids with a registration already in flight.
    fmt_requested: HashSet<u32>,
    next_token: u32,
    last_rx: Instant,
    last_ping: Instant,
}

fn link_loop(ctx: LinkCtx) {
    // Survives reconnects: what we relay-subscribe (name → local chan)
    // and the forwards still owed to the peer.
    let mut subs: HashMap<Arc<str>, u32> = HashMap::new();
    let mut pending: VecDeque<PendingForward> = VecDeque::new();
    let mut attempt = 0u32;
    loop {
        if ctx.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // While partitioned, keep draining the mailbox into the pending
        // queue (that is the partition's observable contract) without
        // touching the network.
        if ctx.shared.partitioned.load(Ordering::Acquire) {
            if !absorb_offline(&ctx, &mut subs, &mut pending) {
                return;
            }
            std::thread::sleep(TICK);
            continue;
        }
        let Some(stream) = dial_handshake(&ctx) else {
            if ctx.shutdown.load(Ordering::SeqCst) {
                return;
            }
            // Dial failed or was interrupted: back off, but keep
            // absorbing mail in small slices so forwards issued while
            // the peer is down land in the (counted) pending queue
            // rather than an invisible mailbox.
            let mut left = backoff_delay(BACKOFF_MIN, BACKOFF_MAX, attempt);
            attempt = attempt.saturating_add(1);
            while left > Duration::ZERO {
                if ctx.shutdown.load(Ordering::SeqCst)
                    || ctx.shared.partitioned.load(Ordering::Acquire)
                {
                    break;
                }
                if !absorb_offline(&ctx, &mut subs, &mut pending) {
                    return;
                }
                let nap = left.min(Duration::from_millis(10));
                std::thread::sleep(nap);
                left = left.saturating_sub(nap);
            }
            if !absorb_offline(&ctx, &mut subs, &mut pending) {
                return;
            }
            continue;
        };
        attempt = 0;
        ctx.shared.connected.store(true, Ordering::Relaxed);
        ctx.shared.connects.fetch_add(1, Ordering::Relaxed);
        let mut s = Session {
            stream,
            dec: pbio_net::frame::FrameDecoder::new(),
            outq: VecDeque::new(),
            batch: WriteBatch::new(),
            chan_peer: HashMap::new(),
            chan_tokens: HashMap::new(),
            chan_requested: HashSet::new(),
            chan_rev: HashMap::new(),
            fmt_peer: HashMap::new(),
            fmt_rev: HashMap::new(),
            fmt_requested: HashSet::new(),
            next_token: 1,
            last_rx: Instant::now(),
            last_ping: Instant::now(),
        };
        // Format-gossip dump: every local layout, ids in order. The
        // acks map our ids into the peer's namespace.
        for id in 0..ctx.host.format_count() {
            if let Some(meta) = ctx.host.format_meta(id) {
                s.outq
                    .push_back(Frame::with_body(K_FORMAT, id, 0, WireBuf::from(meta)));
                s.fmt_requested.insert(id);
            }
        }
        // Re-subscribe relays and re-request pending channels.
        for name in subs.keys() {
            request_channel(&mut s, name.clone());
        }
        for p in &pending {
            request_channel(&mut s, p.chan.clone());
        }
        let alive = run_session(&ctx, &mut s, &mut subs, &mut pending);
        ctx.shared.connected.store(false, Ordering::Relaxed);
        let _ = s.stream.shutdown(std::net::Shutdown::Both);
        if !alive {
            return;
        }
    }
}

/// Drain the mailbox while no session exists: forwards park in the
/// bounded pending queue, subscriptions accumulate, gossip is dropped
/// (the next connect re-dumps every format anyway). Returns false when
/// the mesh dropped its sender — the link is being replaced or torn
/// down.
fn absorb_offline(
    ctx: &LinkCtx,
    subs: &mut HashMap<Arc<str>, u32>,
    pending: &mut VecDeque<PendingForward>,
) -> bool {
    loop {
        match ctx.rx.try_recv() {
            Ok(LinkMsg::Forward {
                chan,
                format,
                traced,
                body,
            }) => {
                park(
                    ctx,
                    pending,
                    PendingForward {
                        chan,
                        format,
                        traced,
                        body,
                    },
                );
            }
            Ok(LinkMsg::Subscribe { chan, local_chan }) => {
                subs.insert(chan, local_chan);
            }
            Ok(LinkMsg::Gossip { .. }) => {}
            Err(std::sync::mpsc::TryRecvError::Empty) => return true,
            Err(std::sync::mpsc::TryRecvError::Disconnected) => return false,
        }
    }
}

/// Park one forward in the bounded pending queue, dropping the oldest
/// beyond the cap.
fn park(ctx: &LinkCtx, pending: &mut VecDeque<PendingForward>, fwd: PendingForward) {
    if pending.len() >= PENDING_CAP {
        pending.pop_front();
        ctx.shared.relay_dropped.fetch_add(1, Ordering::Relaxed);
    }
    pending.push_back(fwd);
    ctx.shared
        .pending
        .store(pending.len() as u64, Ordering::Relaxed);
}

/// One dial-and-handshake attempt, offering
/// `CAP_PEER | CAP_TRACE | CAP_DURABLE` (trace and durability so event
/// trailers cross the link intact). `None` means the attempt failed —
/// peer unreachable, handshake error, or `CAP_PEER` refused — and the
/// caller owns the backoff (it keeps absorbing mail while waiting).
fn dial_handshake(ctx: &LinkCtx) -> Option<TcpStream> {
    if ctx.shutdown.load(Ordering::SeqCst) || ctx.shared.partitioned.load(Ordering::Acquire) {
        return None;
    }
    let mut stream = dial_once(&ctx.addr)?;
    let _ = stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT));
    let offered = CAP_PEER | CAP_TRACE | CAP_DURABLE;
    let hello = Frame::with_body(
        K_HELLO,
        PROTOCOL_VERSION,
        offered,
        ArchProfile::X86_64.name.as_bytes().to_vec(),
    );
    if write_frame(&mut stream, &hello).is_err() {
        return None;
    }
    let ack = read_frame(&mut stream).ok()?;
    if ack.kind != K_HELLO_ACK || ack.body.len() < 4 {
        return None;
    }
    let granted = u32::from_be_bytes(ack.body[..4].try_into().ok()?);
    if granted & CAP_PEER == 0 {
        // Not a mesh daemon (or an old one): the caller's backoff keeps
        // us from spinning against it.
        return None;
    }
    let _ = stream.set_read_timeout(None);
    stream.set_nonblocking(true).ok()?;
    Some(stream)
}

/// One bounded, immediate dial attempt.
fn dial_once(addr: &str) -> Option<TcpStream> {
    use std::net::ToSocketAddrs;
    let a = addr.to_socket_addrs().ok()?.next()?;
    let s = TcpStream::connect_timeout(&a, Duration::from_millis(250)).ok()?;
    let _ = s.set_nodelay(true);
    Some(s)
}

/// The steady-state session loop. Returns false when the link should
/// exit entirely (mesh dropped the mailbox), true to reconnect.
fn run_session(
    ctx: &LinkCtx,
    s: &mut Session,
    subs: &mut HashMap<Arc<str>, u32>,
    pending: &mut VecDeque<PendingForward>,
) -> bool {
    loop {
        if ctx.shutdown.load(Ordering::SeqCst) {
            return false;
        }
        if ctx.shared.partitioned.load(Ordering::Acquire) {
            return true;
        }
        let mut resolved = false;
        // 1. Mailbox: drain whatever the daemon queued.
        loop {
            match ctx.rx.try_recv() {
                Ok(msg) => {
                    if handle_msg(ctx, s, subs, pending, msg) {
                        resolved = true;
                    }
                }
                Err(std::sync::mpsc::TryRecvError::Empty) => break,
                Err(std::sync::mpsc::TryRecvError::Disconnected) => return false,
            }
        }
        // 2. Reads: pull frames until the socket runs dry (bounded per
        // tick), processing as we go — acks here resolve id maps.
        let mut dead = false;
        for _ in 0..MAX_FILLS {
            match s.dec.fill(&mut s.stream) {
                Ok(0) => {
                    dead = true;
                    break;
                }
                Ok(_) => {
                    s.last_rx = Instant::now();
                    ctx.shared.last_rx_ns.store(epoch_ns(), Ordering::Relaxed);
                    loop {
                        match s.dec.next() {
                            Ok(Some((header, body))) => {
                                let body = WireBuf::copy_from(body);
                                if handle_peer_frame(ctx, s, subs, &header, body) {
                                    resolved = true;
                                }
                            }
                            Ok(None) => break,
                            Err(_) => {
                                // Corrupt frame: the decoder already
                                // resynced; skip it.
                                break;
                            }
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    dead = true;
                    break;
                }
            }
        }
        if dead {
            return true;
        }
        // 3. Retry parked forwards once something resolved.
        if resolved && !pending.is_empty() {
            let mut keep = VecDeque::with_capacity(pending.len());
            while let Some(fwd) = pending.pop_front() {
                if !try_forward(ctx, s, fwd.chan.clone(), fwd.format, fwd.traced, &fwd.body) {
                    keep.push_back(fwd);
                }
            }
            *pending = keep;
            ctx.shared
                .pending
                .store(pending.len() as u64, Ordering::Relaxed);
        }
        // 4. Liveness.
        let idle = s.last_rx.elapsed();
        if idle > DEAD_IDLE {
            return true;
        }
        if idle > PING_IDLE && s.last_ping.elapsed() > PING_IDLE {
            s.outq.push_back(Frame::control(K_PING, 0, 0));
            s.last_ping = Instant::now();
        }
        // 5. Writes: flush as much of the queue as the socket takes.
        loop {
            while !s.batch.is_full() {
                let Some(frame) = s.outq.pop_front() else {
                    break;
                };
                s.batch.push(frame);
            }
            if s.batch.is_empty() {
                break;
            }
            match s.batch.flush(&mut s.stream, drop) {
                Ok(progress) if progress.blocked => break,
                Ok(_) => {}
                Err(_) => return true,
            }
        }
        // 6. Sleep only when fully idle; any arriving mail wakes us.
        if s.outq.is_empty() && s.batch.is_empty() && pending.is_empty() {
            match ctx.rx.recv_timeout(TICK) {
                Ok(msg) => {
                    handle_msg(ctx, s, subs, pending, msg);
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return false,
            }
        } else {
            std::thread::sleep(TICK);
        }
    }
}

/// Apply one mailbox message to the live session. Returns true when it
/// may have resolved a pending forward (new subscription acks pending
/// drains come from frames, so only rarely).
fn handle_msg(
    ctx: &LinkCtx,
    s: &mut Session,
    subs: &mut HashMap<Arc<str>, u32>,
    pending: &mut VecDeque<PendingForward>,
    msg: LinkMsg,
) -> bool {
    match msg {
        LinkMsg::Forward {
            chan,
            format,
            traced,
            body,
        } => {
            if !try_forward(ctx, s, chan.clone(), format, traced, &body) {
                park(
                    ctx,
                    pending,
                    PendingForward {
                        chan,
                        format,
                        traced,
                        body,
                    },
                );
            }
            false
        }
        LinkMsg::Subscribe { chan, local_chan } => {
            let fresh = subs.insert(chan.clone(), local_chan).is_none();
            if fresh {
                if let Some(&pchan) = s.chan_peer.get(&chan) {
                    s.chan_rev.insert(pchan, local_chan);
                    s.outq.push_back(Frame::control(K_SUBSCRIBE, pchan, 0));
                } else {
                    request_channel(s, chan);
                }
            }
            false
        }
        LinkMsg::Gossip { format } => {
            if s.fmt_requested.insert(format) {
                if let Some(meta) = ctx.host.format_meta(format) {
                    s.outq
                        .push_back(Frame::with_body(K_FORMAT, format, 0, WireBuf::from(meta)));
                }
            }
            false
        }
    }
}

/// Queue a channel-open request for `name` unless one is in flight.
fn request_channel(s: &mut Session, name: Arc<str>) {
    if !s.chan_requested.insert(name.clone()) {
        return;
    }
    let token = s.next_token;
    s.next_token += 1;
    s.chan_tokens.insert(token, name.clone());
    s.outq.push_back(Frame::with_body(
        K_CHANNEL,
        token,
        0,
        name.as_bytes().to_vec(),
    ));
}

/// Attempt to put one forward on the wire. False means an id is still
/// unresolved (the needed request is queued as a side effect).
fn try_forward(
    ctx: &LinkCtx,
    s: &mut Session,
    chan: Arc<str>,
    format: u32,
    traced: bool,
    body: &WireBuf,
) -> bool {
    let Some(&pchan) = s.chan_peer.get(&chan) else {
        request_channel(s, chan);
        return false;
    };
    let Some(&pfmt) = s.fmt_peer.get(&format) else {
        if s.fmt_requested.insert(format) {
            if let Some(meta) = ctx.host.format_meta(format) {
                s.outq
                    .push_back(Frame::with_body(K_FORMAT, format, 0, WireBuf::from(meta)));
            }
        }
        return false;
    };
    let b = if traced { pfmt | TRACE_FLAG } else { pfmt };
    if traced && body.len() >= TRACE_TRAILER_LEN {
        if let Some(tc) = TraceCtx::decode(&body[body.len() - TRACE_TRAILER_LEN..]) {
            if tc.sampled() {
                ctx.host.relay_hop(&tc, pchan, ctx.peer);
            }
        }
    }
    s.outq
        .push_back(Frame::with_body(K_PUBLISH, pchan, b, body.clone()));
    ctx.shared.relay_tx.fetch_add(1, Ordering::Relaxed);
    true
}

/// Process one frame from the peer. Returns true when an id map gained
/// an entry (worth a pending-queue drain).
fn handle_peer_frame(
    ctx: &LinkCtx,
    s: &mut Session,
    subs: &HashMap<Arc<str>, u32>,
    header: &FrameHeader,
    body: WireBuf,
) -> bool {
    match header.kind {
        K_FORMAT_ACK => {
            // a = our local id (echoed), b = the peer's id for it.
            s.fmt_peer.insert(header.a, header.b);
            s.fmt_rev.insert(header.b, header.a);
            true
        }
        K_CHANNEL_ACK => {
            // a = our token (echoed), b = the peer's channel id.
            let Some(name) = s.chan_tokens.remove(&header.a) else {
                return false;
            };
            s.chan_peer.insert(name.clone(), header.b);
            if let Some(&local_chan) = subs.get(&name) {
                s.chan_rev.insert(header.b, local_chan);
                s.outq.push_back(Frame::control(K_SUBSCRIBE, header.b, 0));
            }
            true
        }
        // The peer's gossip push (its local id in `a`): register the
        // layout here; dedup makes re-receipt free, and the shared id
        // maps gain both directions without an ack round trip.
        K_FORMAT => {
            if let Some((local, _fresh)) = ctx.host.register_meta(&body) {
                s.fmt_rev.insert(header.a, local);
                s.fmt_peer.insert(local, header.a);
                return true;
            }
            false
        }
        // Announce preceding a relayed event's first use of a format on
        // this connection.
        K_ANNOUNCE => {
            if let Some((local, _fresh)) = ctx.host.register_meta(&body) {
                s.fmt_rev.insert(header.a, local);
                s.fmt_peer.insert(local, header.a);
                return true;
            }
            false
        }
        // A relayed event: translate ids into the local namespace and
        // fan it out — one frame in, N refcount bumps out.
        K_EVENT => {
            let flags = header.b & (TRACE_FLAG | OFFSET_FLAG);
            let pfmt = header.b & !(TRACE_FLAG | OFFSET_FLAG);
            let Some(&local_fmt) = s.fmt_rev.get(&pfmt) else {
                return false;
            };
            let Some(&local_chan) = s.chan_rev.get(&header.a) else {
                return false;
            };
            if flags & TRACE_FLAG != 0 {
                let off = if flags & OFFSET_FLAG != 0 {
                    OFFSET_TRAILER_LEN
                } else {
                    0
                };
                if body.len() >= off + TRACE_TRAILER_LEN {
                    let t = &body[body.len() - off - TRACE_TRAILER_LEN..body.len() - off];
                    if let Some(tc) = TraceCtx::decode(t) {
                        if tc.sampled() {
                            ctx.host.relay_hop(&tc, local_chan, ctx.peer);
                        }
                    }
                }
            }
            ctx.shared.relay_rx.fetch_add(1, Ordering::Relaxed);
            ctx.host
                .inject_event(local_chan, local_fmt | flags, body, ctx.peer);
            false
        }
        K_PING => {
            s.outq.push_back(Frame::control(K_PONG, header.a, 0));
            false
        }
        // Acks and errors with no link-side state to update.
        K_PONG | K_SUBSCRIBE_ACK | K_PUBLISH_ACK | K_ERROR | K_BYE_ACK => false,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn home_hash_is_stable_and_spread() {
        // Pinned values: every mesh member must agree forever.
        assert_eq!(home_of("fanout-bench", 2), home_of("fanout-bench", 2));
        assert_eq!(home_of("anything", 1), 0);
        assert_eq!(home_of("x", 0), 0);
        // The hash actually spreads: among a small family of names at
        // least two distinct homes appear for size 4.
        let homes: std::collections::HashSet<u32> =
            (0..16).map(|i| home_of(&format!("chan-{i}"), 4)).collect();
        assert!(homes.len() >= 2, "hash failed to spread: {homes:?}");
    }

    #[test]
    fn peer_stats_snapshot_orders_by_index() {
        let mesh = Mesh::new(0, 3);
        // No links: empty, not a panic.
        assert!(mesh.peer_stats().is_empty());
        assert!(!mesh.set_partitioned(1, true));
    }
}
