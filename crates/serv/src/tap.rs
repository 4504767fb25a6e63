//! Wire-tap capture plane: per-connection frame capture, the capture
//! file codec, and deterministic session replay.
//!
//! The daemon's other observability surfaces summarize (`$stats`),
//! sample (`$trace`), or snapshot (`$topo`). The tap shows the wire
//! itself: with [`crate::ServConfig::tap`] set, every frame the daemon
//! receives or sends — direction, monotonic timestamp, connection id,
//! and the exact bytes — is recorded into a bounded in-memory ring,
//! which the background thread drains into crash-safe `pbio-store`
//! capture segments. Event bodies are captured by `WireBuf` refcount
//! bump, so the hot path stays zero-copy; with the tap off the cost is
//! one relaxed load per frame (enforced by the `obs_overhead --guard`
//! bench).
//!
//! A capture file is *self-describing*: it contains the session's own
//! `FORMAT`/`ANNOUNCE` frames, so the layouts needed to decode event
//! bodies travel inside the capture ([`capture_layouts`]) — `pbio-ctl dump`
//! decodes a capture offline, record by record, with no daemon and no
//! out-of-band schema. And because the capture holds the client's exact
//! inbound frame sequence, a session can be *re-driven* against a fresh
//! daemon ([`replay_session`]) and the delivered event stream diffed
//! byte-for-byte against the captured one — any production capture is a
//! deterministic regression test.
//!
//! On-disk, each captured frame is one record in an ordinary store
//! segment (CRC-checked entries, torn-tail recovery on open), appended
//! under [`pbio_store::FORMAT_RAW`]:
//!
//! ```text
//! record := dir:u8  t_ns:u64be  conn:u32be  frame-wire-bytes
//! frame-wire-bytes := kind:u8 a:u32be b:u32be len:u32be crc:u32be body[len]
//! ```
//!
//! The embedded frame keeps its own header CRC, verified again at
//! decode time — a capture can never present a corrupted frame as
//! clean.

use std::collections::HashMap;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use pbio_net::frame::{
    encode_header, read_frame, write_frame, Frame, FrameError, FrameHeader, FRAME_HEADER_SIZE,
};
use pbio_net::WireBuf;
use pbio_obs::{Bounded, Overflow};
use pbio_store::{ReplayItem, Store, StoreConfig};
use pbio_types::layout::Layout;
use pbio_types::meta::deserialize_layout;

use crate::protocol::{
    format_id, with_format, K_ANNOUNCE, K_BYE_ACK, K_CHANNEL, K_CHANNEL_ACK, K_ERROR, K_EVENT,
    K_FORMAT, K_FORMAT_ACK, K_HELLO, K_HELLO_ACK, K_PING, K_PONG, K_PUBLISH, K_SUBSCRIBE,
    K_SUBSCRIBE_FROM, TAP_CHANNEL, TAP_FULL, TAP_OFF, TAP_SAMPLED,
};

/// Direction tag of an inbound captured frame (client → daemon).
pub const TAP_IN: u8 = 0;
/// Direction tag of an outbound captured frame (daemon → client).
pub const TAP_OUT: u8 = 1;

/// Store channel name capture records are appended under (one channel
/// per capture directory).
pub const CAPTURE_CHANNEL: &str = "capture";

/// Fixed prefix a capture record adds before the frame's wire bytes:
/// `dir:u8 t_ns:u64be conn:u32be`.
const CAPTURE_PREFIX: usize = 13;

// ---------------------------------------------------------------------------
// Configuration.

/// What the tap records while it is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TapMode {
    /// Record nothing (the hot path pays one relaxed load per frame).
    Off,
    /// Record every frame, both directions.
    Full,
    /// Record every control frame, but only one event frame
    /// (`PUBLISH`/`EVENT`) in N. The capture stays self-describing —
    /// handshakes, format registrations and announces are never sampled
    /// away — while the event volume drops by the modulus.
    Sampled(u32),
    /// Record every control frame, but only the event frames of one
    /// channel id.
    Channel(u32),
}

impl TapMode {
    /// The `(mode, param)` pair this mode crosses the wire as
    /// ([`crate::protocol::K_TAP_CTL`]).
    pub fn to_wire(self) -> (u32, u32) {
        match self {
            TapMode::Off => (TAP_OFF, 0),
            TapMode::Full => (TAP_FULL, 0),
            TapMode::Sampled(n) => (TAP_SAMPLED, n),
            TapMode::Channel(c) => (TAP_CHANNEL, c),
        }
    }

    /// Parse a wire `(mode, param)` pair; `None` for unknown modes or a
    /// zero sampling modulus.
    pub fn from_wire(mode: u32, param: u32) -> Option<TapMode> {
        match mode {
            TAP_OFF => Some(TapMode::Off),
            TAP_FULL => Some(TapMode::Full),
            TAP_SAMPLED if param > 0 => Some(TapMode::Sampled(param)),
            TAP_CHANNEL => Some(TapMode::Channel(param)),
            _ => None,
        }
    }
}

/// Wire-tap configuration ([`crate::ServConfig::tap`]).
#[derive(Debug, Clone)]
pub struct TapConfig {
    /// Directory the capture segments are written under (a `pbio-store`
    /// root, flushed every drained batch like a flight dump).
    pub dir: PathBuf,
    /// Mode the tap starts in. Changeable at run time with
    /// [`crate::protocol::K_TAP_CTL`]
    /// ([`crate::ServClient::tap_ctl`]).
    pub mode: TapMode,
    /// Bound on frames buffered between background drains. When the
    /// ring is full the *newest* frame is dropped (and counted): the
    /// session prefix already captured — handshake, formats, announces —
    /// is what keeps a capture decodable, so it is never evicted to
    /// admit more events.
    pub ring_capacity: usize,
}

impl TapConfig {
    /// Capture everything under `dir` with the default ring bound.
    pub fn new(dir: impl Into<PathBuf>) -> TapConfig {
        TapConfig {
            dir: dir.into(),
            mode: TapMode::Full,
            ring_capacity: 4096,
        }
    }
}

// ---------------------------------------------------------------------------
// The live tap: mode switch + bounded ring.

/// One captured frame, in memory, between the tap point and the drain.
/// The body is the frame's own [`WireBuf`] (outbound) or one copy of
/// the decoder's bytes (inbound) — either way the hot path never
/// re-encodes.
#[derive(Debug, Clone)]
pub struct TapEntry {
    /// [`pbio_obs::epoch_ns`] at the tap point.
    pub t_ns: u64,
    /// Daemon-assigned connection id.
    pub conn: u32,
    /// [`TAP_IN`] or [`TAP_OUT`].
    pub dir: u8,
    /// Frame kind.
    pub kind: u8,
    /// First kind-defined argument.
    pub a: u32,
    /// Second kind-defined argument.
    pub b: u32,
    /// Frame body (shared, not copied out of the send path).
    pub body: WireBuf,
}

impl TapEntry {
    /// Append this entry's capture record (prefix + frame wire bytes,
    /// CRC recomputed) to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(self.dir);
        out.extend_from_slice(&self.t_ns.to_be_bytes());
        out.extend_from_slice(&self.conn.to_be_bytes());
        let body = self.body.as_slice();
        out.extend_from_slice(&encode_header(self.kind, self.a, self.b, body));
        out.extend_from_slice(body);
    }
}

/// The runtime tap switch and capture buffer, shared by every reactor.
///
/// The disabled fast path is a single relaxed load ([`TapState::enabled`])
/// with no allocation — the property `obs_overhead --guard` enforces.
/// Enabled paths copy (inbound) or refcount-bump (outbound) the body and
/// push under a short mutex; the store append happens later, on the
/// background thread.
pub struct TapState {
    mode: AtomicU32,
    param: AtomicU32,
    /// Event frames seen by the sampler (mode [`TapMode::Sampled`]).
    seq: AtomicU64,
    /// Drops the newest frame when full: the session prefix already
    /// captured is what makes a capture self-describing.
    ring: Mutex<Bounded<TapEntry>>,
}

impl TapState {
    /// A tap starting in `mode`, buffering at most `ring_capacity`
    /// frames between drains.
    pub fn new(mode: TapMode, ring_capacity: usize) -> TapState {
        let (m, p) = mode.to_wire();
        TapState {
            mode: AtomicU32::new(m),
            param: AtomicU32::new(p),
            seq: AtomicU64::new(0),
            ring: Mutex::new(Bounded::new(ring_capacity.max(1), Overflow::DropNewest)),
        }
    }

    fn ring(&self) -> MutexGuard<'_, Bounded<TapEntry>> {
        self.ring.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// One relaxed load: the per-frame cost of a disabled tap.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.mode.load(Ordering::Relaxed) != TAP_OFF
    }

    /// The mode currently in effect.
    pub fn mode(&self) -> TapMode {
        let m = self.mode.load(Ordering::Relaxed);
        let p = self.param.load(Ordering::Relaxed);
        TapMode::from_wire(m, p).unwrap_or(TapMode::Off)
    }

    /// Switch modes, returning the one previously in effect. Param is
    /// published before mode so a concurrent reader never pairs the new
    /// mode with the old parameter's *absence* — at worst it applies
    /// the old scope for one frame.
    pub fn set_mode(&self, mode: TapMode) -> TapMode {
        let prev = self.mode();
        let (m, p) = mode.to_wire();
        self.param.store(p, Ordering::Relaxed);
        self.mode.store(m, Ordering::Relaxed);
        prev
    }

    /// Whether an *event* frame (`PUBLISH`/`EVENT`) on `chan` should be
    /// captured under the current mode. Control frames are always
    /// captured while the tap is on (they make the capture
    /// self-describing); callers consult this only for event frames.
    #[inline]
    pub fn wants_event(&self, chan: u32) -> bool {
        match self.mode.load(Ordering::Relaxed) {
            TAP_FULL => true,
            TAP_SAMPLED => {
                let m = u64::from(self.param.load(Ordering::Relaxed).max(1));
                self.seq.fetch_add(1, Ordering::Relaxed).is_multiple_of(m)
            }
            TAP_CHANNEL => chan == self.param.load(Ordering::Relaxed),
            _ => false,
        }
    }

    /// Push one captured frame; drops (and counts) when the ring is at
    /// capacity — never blocks the reactor on the drain.
    pub fn push(&self, entry: TapEntry) {
        // A refused entry outlives the guard: it is freed unlocked.
        let _refused = self.ring().push(entry);
    }

    /// Move everything buffered into `into` (drain order = capture
    /// order: the ring is FIFO and drops newest on overflow).
    pub fn drain(&self, into: &mut Vec<TapEntry>) {
        into.extend(self.ring().drain());
    }

    /// Frames pushed into the ring since the daemon started.
    pub fn captured(&self) -> u64 {
        let c = self.ring().counts();
        c.pushed - c.dropped
    }

    /// Frames dropped on ring overflow since the daemon started.
    pub fn dropped(&self) -> u64 {
        self.ring().counts().dropped
    }
}

// ---------------------------------------------------------------------------
// Capture files: decode.

/// One frame decoded back out of a capture file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapturedFrame {
    /// Capture timestamp (daemon timebase, ns).
    pub t_ns: u64,
    /// Connection the frame crossed.
    pub conn: u32,
    /// [`TAP_IN`] or [`TAP_OUT`].
    pub dir: u8,
    /// The frame itself, CRC-verified at decode time.
    pub frame: Frame,
}

/// A decoded capture directory: every frame that survived on disk, plus
/// what recovery had to repair to read them.
#[derive(Debug)]
pub struct CaptureFile {
    /// Captured frames in capture order.
    pub frames: Vec<CapturedFrame>,
    /// Torn tails truncated while opening the capture segments.
    pub torn_tails: u64,
    /// Bytes those truncations discarded.
    pub truncated_bytes: u64,
}

/// Decode one capture record ([`TapEntry::encode_into`]'s inverse). The
/// embedded frame's CRC is re-verified: a record whose frame bytes do
/// not match their checksum is an error, never silently returned as a
/// clean frame.
fn decode_capture_record(payload: &[u8]) -> Result<CapturedFrame, String> {
    if payload.len() < CAPTURE_PREFIX + FRAME_HEADER_SIZE {
        return Err(format!(
            "capture record too short ({} bytes)",
            payload.len()
        ));
    }
    let dir = payload[0];
    if dir > TAP_OUT {
        return Err(format!("capture record direction {dir} is invalid"));
    }
    let t_ns = u64::from_be_bytes(payload[1..9].try_into().unwrap());
    let conn = u32::from_be_bytes(payload[9..13].try_into().unwrap());
    let (h, body) = payload[CAPTURE_PREFIX..]
        .split_first_chunk::<FRAME_HEADER_SIZE>()
        .expect("length checked above");
    let header = FrameHeader::parse(h).map_err(|e| format!("captured {e}"))?;
    if body.len() != header.len {
        return Err(format!(
            "captured frame announces {} body bytes but the record holds {}",
            header.len,
            body.len()
        ));
    }
    header.verify(body).map_err(|e| format!("captured {e}"))?;
    Ok(CapturedFrame {
        t_ns,
        conn,
        dir,
        frame: Frame {
            kind: header.kind,
            a: header.a,
            b: header.b,
            body: WireBuf::copy_from(body),
        },
    })
}

/// Open a capture directory through the ordinary store reader (crash
/// recovery included) and decode every record. Fails on the first
/// record whose embedded frame does not match its checksum.
pub fn read_capture(dir: impl Into<PathBuf>) -> Result<CaptureFile, String> {
    let store = Store::open(StoreConfig::new(dir.into()))
        .map_err(|e| format!("open capture store: {e}"))?;
    let log = store
        .channel(CAPTURE_CHANNEL)
        .map_err(|e| format!("open capture channel: {e}"))?;
    let recovery = log.recovery();
    let mut frames = Vec::new();
    let mut bad: Option<String> = None;
    log.read_range(log.oldest(), log.readable(), &mut |item| {
        if bad.is_some() {
            return;
        }
        if let ReplayItem::Event { payload, .. } = item {
            match decode_capture_record(payload) {
                Ok(f) => frames.push(f),
                Err(e) => bad = Some(e),
            }
        }
    })
    .map_err(|e| format!("replay capture segments: {e}"))?;
    if let Some(e) = bad {
        return Err(e);
    }
    Ok(CaptureFile {
        frames,
        torn_tails: recovery.torn_tails,
        truncated_bytes: recovery.truncated_bytes,
    })
}

/// Distinct connection ids present in a capture, ascending.
pub fn capture_connections(frames: &[CapturedFrame]) -> Vec<u32> {
    let mut ids: Vec<u32> = frames.iter().map(|f| f.conn).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// Reconstruct `format id → layout` from the capture itself: outbound
/// `ANNOUNCE` frames carry `(id, meta)` directly, and each inbound
/// `FORMAT` registration pairs with its outbound `FORMAT_ACK` (token →
/// daemon-assigned id) on the same connection. This is what makes a
/// capture decodable offline with no daemon and no schema registry.
pub fn capture_layouts(frames: &[CapturedFrame]) -> HashMap<u32, Layout> {
    let mut layouts = HashMap::new();
    // (conn, token) → the registered meta bytes, until the ack names it.
    let mut pending: HashMap<(u32, u32), &[u8]> = HashMap::new();
    for f in frames {
        match (f.dir, f.frame.kind) {
            (TAP_IN, K_FORMAT) => {
                pending.insert((f.conn, f.frame.a), f.frame.body.as_slice());
            }
            (TAP_OUT, K_FORMAT_ACK) => {
                if let Some(meta) = pending.remove(&(f.conn, f.frame.a)) {
                    if let Ok(layout) = deserialize_layout(meta) {
                        layouts.insert(f.frame.b, layout);
                    }
                }
            }
            (TAP_OUT, K_ANNOUNCE) => {
                if let Ok(layout) = deserialize_layout(f.frame.body.as_slice()) {
                    layouts.insert(f.frame.a, layout);
                }
            }
            _ => {}
        }
    }
    layouts
}

// ---------------------------------------------------------------------------
// Session replay.

/// Replay pacing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplaySpeed {
    /// Reproduce the captured inter-frame delays (each gap capped at
    /// one second so a capture of an idle session cannot stall a
    /// replay indefinitely).
    Original,
    /// Send each frame as soon as the protocol allows.
    Max,
}

/// Knobs for [`replay_session`].
#[derive(Debug, Clone)]
pub struct ReplayOptions {
    /// Pacing of the re-driven frames.
    pub speed: ReplaySpeed,
    /// How long to keep waiting for deliveries after the last frame is
    /// sent (and the bound on each ack wait).
    pub settle: Duration,
}

impl Default for ReplayOptions {
    fn default() -> ReplayOptions {
        ReplayOptions {
            speed: ReplaySpeed::Max,
            settle: Duration::from_secs(5),
        }
    }
}

/// The outcome of re-driving one captured session.
#[derive(Debug)]
pub struct ReplayReport {
    /// Frames re-driven into the fresh daemon.
    pub frames_sent: u64,
    /// Event bodies the *capture* shows were delivered to this session.
    pub expected: Vec<Vec<u8>>,
    /// Event bodies the fresh daemon delivered during the replay.
    pub delivered: Vec<Vec<u8>>,
    /// `ERROR` frames the fresh daemon answered with, if any.
    pub errors: Vec<String>,
}

impl ReplayReport {
    /// Index of the first delivered event differing from the capture
    /// (or the length of the shorter stream); `None` when the streams
    /// are byte-identical.
    pub fn divergence(&self) -> Option<usize> {
        if self.expected.len() != self.delivered.len() {
            let n = self.expected.len().min(self.delivered.len());
            let first = (0..n).find(|&i| self.expected[i] != self.delivered[i]);
            return Some(first.unwrap_or(n));
        }
        (0..self.expected.len()).find(|&i| self.expected[i] != self.delivered[i])
    }

    /// True when the replayed daemon delivered exactly the captured
    /// event stream, byte for byte, in order.
    pub fn byte_identical(&self) -> bool {
        self.divergence().is_none()
    }
}

/// Ids the fresh daemon assigned, keyed by the ids the captured daemon
/// assigned — rebuilt live from the replayed acks.
struct IdMaps {
    formats: HashMap<u32, u32>,
    channels: HashMap<u32, u32>,
}

/// Re-drive connection `conn` of a capture against a fresh daemon at
/// `addr`, and report the delivered event stream against the captured
/// one.
///
/// The captured inbound frames are sent in order. Daemon-assigned ids
/// need not match across runs, so the replay rewrites them on the fly:
/// each `FORMAT`/`CHANNEL` request waits for its live ack and maps the
/// captured id to the fresh one; `PUBLISH` and `SUBSCRIBE` frames are
/// rewritten through those maps (flag bits preserved). Everything else
/// — including the `HELLO` capabilities and any predicate bodies — is
/// replayed verbatim. Captured `PONG`s are skipped; the replay answers
/// the fresh daemon's own pings instead.
pub fn replay_session(
    capture: &[CapturedFrame],
    conn: u32,
    addr: &str,
    opts: &ReplayOptions,
) -> Result<ReplayReport, String> {
    let inbound: Vec<&CapturedFrame> = capture
        .iter()
        .filter(|f| f.conn == conn && f.dir == TAP_IN)
        .collect();
    if inbound.is_empty() {
        return Err(format!("capture holds no inbound frames for conn {conn}"));
    }
    // Captured token → captured id, from the recorded acks: the "old"
    // side of the rewrite maps.
    let mut old_fmt_by_token: HashMap<u32, u32> = HashMap::new();
    let mut old_chan_by_token: HashMap<u32, u32> = HashMap::new();
    let mut expected: Vec<Vec<u8>> = Vec::new();
    for f in capture
        .iter()
        .filter(|f| f.conn == conn && f.dir == TAP_OUT)
    {
        match f.frame.kind {
            K_FORMAT_ACK => {
                old_fmt_by_token.insert(f.frame.a, f.frame.b);
            }
            K_CHANNEL_ACK => {
                old_chan_by_token.insert(f.frame.a, f.frame.b);
            }
            K_EVENT => expected.push(f.frame.body.as_slice().to_vec()),
            _ => {}
        }
    }

    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .map_err(|e| format!("set timeout: {e}"))?;
    let _ = stream.set_nodelay(true);

    let mut maps = IdMaps {
        formats: HashMap::new(),
        channels: HashMap::new(),
    };
    let mut delivered: Vec<Vec<u8>> = Vec::new();
    let mut errors: Vec<String> = Vec::new();
    let mut frames_sent = 0u64;
    let mut prev_t = inbound[0].t_ns;
    for f in &inbound {
        if opts.speed == ReplaySpeed::Original {
            let gap =
                Duration::from_nanos(f.t_ns.saturating_sub(prev_t)).min(Duration::from_secs(1));
            prev_t = f.t_ns;
            let deadline = Instant::now() + gap;
            // Keep serving the socket while honoring the gap: events and
            // pings arrive on the original schedule too.
            loop {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break;
                }
                pump(&mut stream, &mut delivered, &mut errors)?;
            }
        }
        let frame = &f.frame;
        match frame.kind {
            // Skip: answers to the *old* daemon's probes. The pump
            // answers the fresh daemon's pings with fresh tokens.
            K_PONG => continue,
            K_HELLO => {
                send(&mut stream, frame)?;
                frames_sent += 1;
                wait_ack(
                    &mut stream,
                    K_HELLO_ACK,
                    None,
                    opts,
                    &mut delivered,
                    &mut errors,
                )?;
            }
            K_FORMAT => {
                send(&mut stream, frame)?;
                frames_sent += 1;
                let ack = wait_ack(
                    &mut stream,
                    K_FORMAT_ACK,
                    Some(frame.a),
                    opts,
                    &mut delivered,
                    &mut errors,
                )?;
                if let Some(&old) = old_fmt_by_token.get(&frame.a) {
                    maps.formats.insert(old, ack.b);
                }
            }
            K_CHANNEL => {
                send(&mut stream, frame)?;
                frames_sent += 1;
                let ack = wait_ack(
                    &mut stream,
                    K_CHANNEL_ACK,
                    Some(frame.a),
                    opts,
                    &mut delivered,
                    &mut errors,
                )?;
                if let Some(&old) = old_chan_by_token.get(&frame.a) {
                    maps.channels.insert(old, ack.b);
                }
            }
            K_SUBSCRIBE | K_SUBSCRIBE_FROM => {
                let a = *maps.channels.get(&frame.a).unwrap_or(&frame.a);
                send(
                    &mut stream,
                    &Frame {
                        a,
                        body: frame.body.clone(),
                        ..*frame
                    },
                )?;
                frames_sent += 1;
            }
            K_PUBLISH => {
                let a = *maps.channels.get(&frame.a).unwrap_or(&frame.a);
                let id = format_id(frame.b);
                let b = with_format(frame.b, *maps.formats.get(&id).unwrap_or(&id));
                send(
                    &mut stream,
                    &Frame {
                        a,
                        b,
                        body: frame.body.clone(),
                        ..*frame
                    },
                )?;
                frames_sent += 1;
            }
            _ => {
                send(&mut stream, frame)?;
                frames_sent += 1;
            }
        }
    }

    // Settle: keep reading until the captured event count has arrived
    // (or nothing more comes within the settle budget).
    let mut quiet_since = Instant::now();
    while delivered.len() < expected.len() || expected.is_empty() {
        let before = delivered.len();
        if !pump(&mut stream, &mut delivered, &mut errors)? {
            break;
        }
        if delivered.len() != before {
            quiet_since = Instant::now();
        } else if quiet_since.elapsed() >= opts.settle {
            break;
        }
        if expected.is_empty() {
            break;
        }
    }
    Ok(ReplayReport {
        frames_sent,
        expected,
        delivered,
        errors,
    })
}

fn send(stream: &mut TcpStream, frame: &Frame) -> Result<(), String> {
    write_frame(stream, frame).map_err(|e| format!("replay write: {e}"))
}

/// Read (at most) one frame, folding it into the replay's running
/// state. Returns `false` once the daemon has closed the connection.
fn pump(
    stream: &mut TcpStream,
    delivered: &mut Vec<Vec<u8>>,
    errors: &mut Vec<String>,
) -> Result<bool, String> {
    match read_frame(stream) {
        Ok(f) => {
            absorb(stream, f, delivered, errors);
            Ok(true)
        }
        Err(FrameError::Timeout) => Ok(true),
        Err(FrameError::Closed) => Ok(false),
        Err(e) => Err(format!("replay read: {e}")),
    }
}

/// Fold one received frame into the replay state: events are collected,
/// pings answered, errors recorded, everything else ignored.
fn absorb(
    stream: &mut TcpStream,
    f: Frame,
    delivered: &mut Vec<Vec<u8>>,
    errors: &mut Vec<String>,
) {
    match f.kind {
        K_EVENT => delivered.push(f.body.as_slice().to_vec()),
        K_PING => {
            let _ = write_frame(stream, &Frame::control(K_PONG, f.a, 0));
        }
        K_ERROR => errors.push(format!(
            "E{}: {}",
            f.a,
            String::from_utf8_lossy(f.body.as_slice())
        )),
        K_BYE_ACK => {}
        _ => {}
    }
}

/// Read until an ack of `kind` (and token, when given) arrives, folding
/// everything else into the replay state.
fn wait_ack(
    stream: &mut TcpStream,
    kind: u8,
    token: Option<u32>,
    opts: &ReplayOptions,
    delivered: &mut Vec<Vec<u8>>,
    errors: &mut Vec<String>,
) -> Result<Frame, String> {
    let deadline = Instant::now() + opts.settle;
    loop {
        match read_frame(stream) {
            Ok(f) if f.kind == kind && token.is_none_or(|t| f.a == t) => return Ok(f),
            Ok(f) => absorb(stream, f, delivered, errors),
            Err(FrameError::Timeout) => {}
            Err(e) => return Err(format!("replay read awaiting {kind:#04x}: {e}")),
        }
        if Instant::now() > deadline {
            return Err(format!(
                "replay timed out awaiting ack {kind:#04x} (daemon said: {errors:?})"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(kind: u8, a: u32, b: u32, body: &[u8]) -> TapEntry {
        TapEntry {
            t_ns: 42,
            conn: 7,
            dir: TAP_OUT,
            kind,
            a,
            b,
            body: WireBuf::copy_from(body),
        }
    }

    #[test]
    fn capture_record_round_trips() {
        let e = entry(K_EVENT, 3, 9, b"payload bytes");
        let mut buf = Vec::new();
        e.encode_into(&mut buf);
        let f = decode_capture_record(&buf).expect("decodes");
        assert_eq!(f.t_ns, 42);
        assert_eq!(f.conn, 7);
        assert_eq!(f.dir, TAP_OUT);
        assert_eq!(f.frame.kind, K_EVENT);
        assert_eq!((f.frame.a, f.frame.b), (3, 9));
        assert_eq!(f.frame.body.as_slice(), b"payload bytes");
    }

    #[test]
    fn corrupted_capture_record_is_never_marked_clean() {
        let e = entry(K_EVENT, 3, 9, b"payload bytes");
        let mut buf = Vec::new();
        e.encode_into(&mut buf);
        // Flip one body byte: the embedded frame CRC must catch it.
        let last = buf.len() - 1;
        buf[last] ^= 0x40;
        assert!(decode_capture_record(&buf).is_err());
        // And a truncated record is an error, not a short frame.
        buf[last] ^= 0x40;
        assert!(decode_capture_record(&buf[..buf.len() - 2]).is_err());
    }

    #[test]
    fn tap_modes_cross_the_wire_and_back() {
        for mode in [
            TapMode::Off,
            TapMode::Full,
            TapMode::Sampled(64),
            TapMode::Channel(3),
        ] {
            let (m, p) = mode.to_wire();
            assert_eq!(TapMode::from_wire(m, p), Some(mode));
        }
        assert_eq!(TapMode::from_wire(TAP_SAMPLED, 0), None);
        assert_eq!(TapMode::from_wire(99, 0), None);
    }

    #[test]
    fn sampling_keeps_one_event_in_n() {
        let tap = TapState::new(TapMode::Sampled(4), 64);
        let kept = (0..40).filter(|_| tap.wants_event(1)).count();
        assert_eq!(kept, 10);
        let chan = TapState::new(TapMode::Channel(3), 64);
        assert!(chan.wants_event(3));
        assert!(!chan.wants_event(4));
    }

    #[test]
    fn full_ring_drops_newest_and_counts() {
        let tap = TapState::new(TapMode::Full, 2);
        for i in 0..5u32 {
            tap.push(entry(K_EVENT, i, 0, b""));
        }
        assert_eq!(tap.captured(), 2);
        assert_eq!(tap.dropped(), 3);
        let mut out = Vec::new();
        tap.drain(&mut out);
        // The *oldest* frames survived: the self-describing prefix wins.
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].a, 0);
        assert_eq!(out[1].a, 1);
        assert_eq!(tap.set_mode(TapMode::Off), TapMode::Full);
        assert!(!tap.enabled());
    }
}
