//! The serv session protocol: frame kinds and error codes.
//!
//! Every exchange is a [`pbio_net::frame::Frame`]:
//!
//! ```text
//! frame := kind:u8  a:u32be  b:u32be  len:u32be  body[len]
//! ```
//!
//! with `a`/`b` meanings assigned per kind below. A session runs:
//!
//! ```text
//! client                                  daemon
//!   | HELLO    a=version b=caps            |   (b: capability bits the
//!   |          body=arch name              |    client offers; old
//!   |  -------------------------------->    |    clients send 0)
//!   |            HELLO_ACK a=version b=conn |   (body: granted caps +
//!   |  <--------------------------------    |    clock sample, may be
//!   |                                       |    empty from old daemons)
//!   | FORMAT   a=token     body=layout meta |   (once per distinct format;
//!   |  -------------------------------->    |    daemon dedups via its
//!   |            FORMAT_ACK a=token b=fmt   |    shared FormatServer)
//!   |  <--------------------------------    |
//!   | CHANNEL  a=token     body=name        |   (create-or-open by name)
//!   |  -------------------------------->    |
//!   |            CHANNEL_ACK a=token b=chan |
//!   |  <--------------------------------    |
//!   | SUBSCRIBE a=chan b=1? body=predicate  |   (b=1: body is a serialized
//!   |  -------------------------------->    |    pbio-chan predicate, to be
//!   |            SUBSCRIBE_ACK a=chan       |    evaluated at the source)
//!   |  <--------------------------------    |
//!   | SUBSCRIBE_FROM a=chan body=offset     |   (durable channels only:
//!   |  -------------------------------->    |    replay history from
//!   |            SUBSCRIBE_ACK a=chan       |    offset, then hand off
//!   |  <--------------------------------    |    seamlessly to live)
//!   | PUBLISH  a=chan b=fmt body=NDR bytes  |   (fire-and-forget; durable
//!   |  -------------------------------->    |    channels ack once the
//!   |            PUBLISH_ACK a=chan b=n     |    bytes are on disk, body
//!   |  <--------------------------------    |    = last durable offset)
//!   |            ANNOUNCE a=fmt body=meta   |   (once per (conn, format),
//!   |  <--------------------------------    |    before its first event)
//!   |            EVENT    a=chan b=fmt      |   (sender's untouched native
//!   |  <--------------------------------    |    bytes; receiver converts)
//!   | BYE                                   |
//!   |  -------------------------------->    |
//!   |            BYE_ACK                    |
//!   |  <--------------------------------    |
//! ```
//!
//! Event bodies are the publisher's NDR bytes, forwarded verbatim: the
//! daemon never converts. Filters run on the daemon against the
//! *publisher's* wire format, so rejected events cost no transmission —
//! the paper's "filter at the source" (§5) for derived event channels.
//!
//! ## Event bodies
//!
//! A `PUBLISH` or `EVENT` body may end in up to two trailers, each
//! announced by a bit of `b` above the format id:
//!
//! ```text
//! body   := payload  trace?  offset?
//! payload   the record's native (NDR) bytes, untouched
//! trace     24 bytes, b bit 31 (TRACE_FLAG): trace_id:u64be origin_ns:u64be
//!           span_id:u32be flags:u8 reserved:3 zero bytes  (pbio_obs::TraceCtx)
//! offset    8 bytes, b bit 30 (OFFSET_FLAG): durable channel offset, u64be;
//!           EVENT only, appended by the daemon, so always outermost
//! ```
//!
//! A peer sees a trailer only if it negotiated the capability covering
//! it: [`CAP_TRACE`] for the trace, [`CAP_DURABLE`] for the offset. Only
//! [`split_event`], [`Trailers::append`] and [`project_event`] read or
//! write this layout.

use std::fmt;

use pbio_net::buf::WireBuf;
use pbio_obs::{TraceCtx, TRACE_TRAILER_LEN};

/// Protocol version carried in `HELLO`/`HELLO_ACK`.
pub const PROTOCOL_VERSION: u32 = 1;

/// Name of the reserved channel the daemon publishes its own metric
/// snapshots on (clients may publish theirs too). Opened at daemon
/// startup; `open_channel(STATS_CHANNEL)` from any client returns it.
pub const STATS_CHANNEL: &str = "$stats";

/// Name of the reserved channel completed distributed-tracing hop
/// records are published on, as self-describing PBIO records — the same
/// dogfooding as [`STATS_CHANNEL`]. Opened at daemon startup.
pub const TRACE_CHANNEL: &str = "$trace";

/// Name of the reserved channel the daemon pushes live topology
/// snapshots on ([`pbio_obs::export::topo_schema`] records: per
/// connection, channel, shard, consumer-lag watermark, plus the recent
/// flight-recorder tail). Opened at daemon startup; push is suppressed
/// while the channel has zero subscribers. One-shot pulls ride
/// [`K_INSPECT`].
pub const TOPO_CHANNEL: &str = "$topo";

/// Capability bit (in `HELLO.b` / the HELLO ack body): the peer speaks
/// the trace-trailer extension. Tracing is in effect on a session only
/// when *both* sides advertise it; old peers advertise nothing and see
/// plain frames, which is the whole negotiation.
pub const CAP_TRACE: u32 = 0x1;

/// Capability bit (in `HELLO.b` / the HELLO ack body): the client may
/// resume its session after a reconnect via [`K_RESUME`]. Granted
/// unconditionally by resume-aware daemons; its absence from an ack
/// tells the client the daemon will treat every connection as brand new
/// (so the client re-registers from scratch instead of resuming).
pub const CAP_RESUME: u32 = 0x2;

/// Capability bit (in `HELLO.b` / the HELLO ack body): durable
/// channels. Granted only by daemons configured with
/// `ServConfig::durability`; a client holding the grant may open
/// channels with [`CHAN_DURABLE`], replay history with
/// [`K_SUBSCRIBE_FROM`], and receives [`K_PUBLISH_ACK`] durability
/// acknowledgements plus offset trailers ([`OFFSET_FLAG`]) on events.
pub const CAP_DURABLE: u32 = 0x4;

/// Capability bit (in `HELLO.b` / the HELLO ack body): the connecting
/// peer is another daemon's mesh link, not an application client.
/// Granted only by daemons configured with a `ServConfig::peers` mesh.
/// Publishes arriving on a peer connection are home-side deliveries:
/// they fan out locally and are **never** forwarded again (the
/// structural loop guard of the relay mesh). Granting the bit also
/// triggers the format-registry gossip dump: the daemon pushes every
/// registered layout to the new link as `FORMAT` frames so
/// remote-origin events decode everywhere.
pub const CAP_PEER: u32 = 0x8;

/// Bit 31 of `b` on [`K_PUBLISH`]/[`K_EVENT`]: the body carries a trace
/// trailer ([layout](self#event-bodies)). Format ids never reach it.
pub const TRACE_FLAG: u32 = 0x8000_0000;

/// Bit 30 of `b` on [`K_EVENT`]: the body ends with the durable offset
/// trailer ([layout](self#event-bodies)). Format ids never reach it.
pub const OFFSET_FLAG: u32 = 0x4000_0000;

const TRAILER_FLAGS: u32 = TRACE_FLAG | OFFSET_FLAG;

/// Channel-flags bit (in `K_CHANNEL.b`): open the channel *durable* —
/// every event published to it is appended to the daemon's pbio-store
/// segment log and replayable by offset. Requires a daemon configured
/// with `ServConfig::durability` (else `ERROR(E_CHANNEL)`); opening an
/// already-durable channel without the bit is fine (durability is a
/// channel property, not a per-subscriber one).
pub const CHAN_DURABLE: u32 = 0x1;

/// Bytes an [`OFFSET_FLAG`] trailer adds to an event body.
const OFFSET_TRAILER_LEN: usize = 8;

/// Client → daemon: open a session. `a` = version, `b` = capability
/// bits ([`CAP_TRACE`]; old clients send 0), body = architecture
/// profile name (e.g. `"sparc-v8"`).
pub const K_HELLO: u8 = 0x01;
/// Daemon → client: session accepted. `a` = version, `b` = connection
/// id. The body, absent from pre-tracing daemons and ignored by
/// pre-tracing clients, is `granted_caps:u32be  t_ns:u64be
/// sample_mod:u32be`: the intersection of offered and supported
/// capabilities, the daemon's clock sampled while serving the HELLO
/// (one half of the [`pbio_net::clock::ClockSync`] offset exchange),
/// and the daemon's head-sampling modulus for publishers to adopt.
pub const K_HELLO_ACK: u8 = 0x02;
/// Client → daemon: register a format. `a` = client token, body =
/// serialized layout meta-information.
pub const K_FORMAT: u8 = 0x10;
/// Daemon → client: format registered. `a` = echoed token, `b` = the
/// daemon-global format id.
pub const K_FORMAT_ACK: u8 = 0x11;
/// Client → daemon: create-or-open a named channel. `a` = client token,
/// body = UTF-8 channel name.
pub const K_CHANNEL: u8 = 0x12;
/// Daemon → client: channel ready. `a` = echoed token, `b` = channel id.
pub const K_CHANNEL_ACK: u8 = 0x13;
/// Client → daemon: subscribe to a channel. `a` = channel id, `b` = 1 if
/// the body carries a serialized predicate ([`pbio_chan::wire`]), else 0.
pub const K_SUBSCRIBE: u8 = 0x14;
/// Daemon → client: subscription active. `a` = channel id.
pub const K_SUBSCRIBE_ACK: u8 = 0x15;
/// Client → daemon: subscribe to a channel *from a durable offset*.
/// `a` = channel id, body = `offset:u64be`. The daemon streams history
/// from that offset (clamped to what retention kept), then hands off
/// seamlessly to live events — the subscriber sees one gapless,
/// offset-stamped sequence. Requires [`CAP_DURABLE`] and a durable
/// channel; acked with [`K_SUBSCRIBE_ACK`] before the first replayed
/// event.
pub const K_SUBSCRIBE_FROM: u8 = 0x16;
/// Client → daemon: publish an event. `a` = channel id, `b` = format id,
/// body = the record's native (NDR) bytes. No acknowledgement on
/// transient channels; on durable channels the daemon answers (possibly
/// batched) with [`K_PUBLISH_ACK`] once the bytes are on disk.
pub const K_PUBLISH: u8 = 0x20;
/// Daemon → subscriber: an event. `a` = channel id, `b` = format id,
/// body = the *publisher's* NDR bytes, forwarded without conversion.
pub const K_EVENT: u8 = 0x21;
/// Daemon → publisher: durability acknowledgement for a durable
/// channel. `a` = channel id, `b` = how many of the publisher's events
/// this ack newly covers, body = `last_offset:u64be` — the highest
/// channel offset now on disk for this publisher. Sent only to
/// [`CAP_DURABLE`] connections; an acked event survives a daemon crash
/// and replays via [`K_SUBSCRIBE_FROM`].
pub const K_PUBLISH_ACK: u8 = 0x23;
/// Daemon → subscriber: format meta for an id the subscriber is about to
/// see. `a` = format id, body = serialized layout. Sent once per
/// (connection, format), always before that format's first [`K_EVENT`].
pub const K_ANNOUNCE: u8 = 0x22;
/// Client → daemon: request a one-shot stats snapshot. `a` = client
/// token. The daemon answers with [`K_STATS_ACK`], preceded — once per
/// connection — by a [`K_ANNOUNCE`] for the snapshot's format.
pub const K_STATS: u8 = 0x40;
/// Daemon → client: a stats snapshot. `a` = echoed token, `b` = the
/// snapshot's daemon-global format id, body = the snapshot record's
/// native (NDR) bytes — the same encoding the `$stats` channel carries.
pub const K_STATS_ACK: u8 = 0x41;
/// Client → daemon: set the daemon's trace sampling at run time. `a` =
/// client token, `b` = the new head-sampling modulus (sample one publish
/// in `b`; `0` disables tracing daemon-wide). Answered with
/// [`K_TRACE_CTL_ACK`].
pub const K_TRACE_CTL: u8 = 0x42;
/// Daemon → client: sampling updated. `a` = echoed token, `b` = the
/// modulus that was in effect before this change.
pub const K_TRACE_CTL_ACK: u8 = 0x43;
/// Client → daemon: request a one-shot topology snapshot (the
/// introspection plane's pull side). `a` = client token. The daemon
/// captures live state — per-connection queue depths, per-channel
/// fan-out and durable-log footprint, per-shard load, consumer-lag
/// watermarks, the flight-recorder tail — and answers with
/// [`K_INSPECT_ACK`], preceded (once per connection) by a
/// [`K_ANNOUNCE`] for the topology format.
pub const K_INSPECT: u8 = 0x44;
/// Daemon → client: a topology snapshot. `a` = echoed token, `b` = the
/// snapshot's daemon-global format id, body = the record's native (NDR)
/// bytes — the same encoding the `$topo` channel pushes.
pub const K_INSPECT_ACK: u8 = 0x45;
/// Client → daemon: reconfigure the wire tap at run time. `a` = client
/// token, `b` = the new tap mode ([`TAP_OFF`], [`TAP_FULL`],
/// [`TAP_SAMPLED`], [`TAP_CHANNEL`]); for the parameterized modes the
/// body is `param:u32be` — the sampling modulus (capture one event
/// frame in `param`) or the channel id to scope to. Control frames are
/// always captured while any mode is on, so a capture stays
/// self-describing. Requires a daemon configured with
/// `ServConfig::tap` (else `ERROR(E_PROTOCOL)`); answered with
/// [`K_TAP_CTL_ACK`].
pub const K_TAP_CTL: u8 = 0x46;
/// Daemon → client: tap reconfigured. `a` = echoed token, `b` = the tap
/// mode that was in effect before this change.
pub const K_TAP_CTL_ACK: u8 = 0x47;

/// [`K_TAP_CTL`] mode: capture nothing (the hot path pays one relaxed
/// load per frame and no more).
pub const TAP_OFF: u32 = 0;
/// [`K_TAP_CTL`] mode: capture every frame, both directions.
pub const TAP_FULL: u32 = 1;
/// [`K_TAP_CTL`] mode: capture every control frame but only one event
/// frame ([`K_PUBLISH`]/[`K_EVENT`]) in `param`.
pub const TAP_SAMPLED: u32 = 2;
/// [`K_TAP_CTL`] mode: capture every control frame but only the event
/// frames of channel `param`.
pub const TAP_CHANNEL: u32 = 3;
/// Daemon → client: liveness probe, sent when a connection has been
/// silent for longer than the daemon's ping budget. `a` = a probe token
/// the pong must echo. Clients answer transparently from their poll
/// loop; a peer that answers nothing for the daemon's dead budget is
/// evicted.
pub const K_PING: u8 = 0x50;
/// Client → daemon: liveness answer. `a` = the echoed probe token.
/// (Any inbound frame refreshes liveness; the PONG matters for clients
/// with nothing else to say.)
pub const K_PONG: u8 = 0x51;
/// Client → daemon, instead of a fresh handshake's first post-HELLO
/// frame: resume a previous session. `a` = session epoch (monotonic per
/// client identity, bumped on every reconnect), `b` = low 32 bits of the
/// client identity, body = `client_id:u64be`. The daemon discards state
/// held for lower epochs of the same identity (a stale predecessor
/// connection is evicted) and answers [`K_RESUME_ACK`]; a resume with an
/// epoch at or below the registered one is answered with
/// `ERROR(E_STALE)` and the connection closed.
pub const K_RESUME: u8 = 0x52;
/// Daemon → client: resume accepted. `a` = the echoed epoch. The client
/// then replays FORMAT/CHANNEL/SUBSCRIBE registrations (the daemon may
/// have restarted and lost them; replay is idempotent either way).
pub const K_RESUME_ACK: u8 = 0x53;
/// Client → daemon: graceful disconnect.
pub const K_BYE: u8 = 0x30;
/// Daemon → client: disconnect acknowledged; no further frames follow.
pub const K_BYE_ACK: u8 = 0x31;
/// Daemon → client: request failed. `a` = error code ([`E_PROTOCOL`]…),
/// body = UTF-8 description.
pub const K_ERROR: u8 = 0x7F;

/// Malformed or unexpected frame.
pub const E_PROTOCOL: u32 = 1;
/// `HELLO` carried an unsupported protocol version.
pub const E_VERSION: u32 = 2;
/// `HELLO` named an unknown architecture profile.
pub const E_ARCH: u32 = 3;
/// Bad format metadata, or a publish for an unregistered format id.
pub const E_FORMAT: u32 = 4;
/// Unknown channel id.
pub const E_CHANNEL: u32 = 5;
/// Undecodable subscription predicate.
pub const E_PREDICATE: u32 = 6;
/// A [`K_RESUME`] carried an epoch no newer than the one already
/// registered for that client identity: the resuming connection is the
/// stale duplicate, not the survivor.
pub const E_STALE: u32 = 7;
/// The daemon is at its concurrency limit for the requested work (e.g.
/// [`K_SUBSCRIBE_FROM`] when every replay slot is busy). Transient: the
/// request may be retried once load subsides; the session stays open.
pub const E_BUSY: u32 = 8;

/// Human-readable name for a frame kind — what `pbio-ctl dump` prints per
/// captured frame. Unknown kinds render as `"?"` (a capture may come
/// from a newer daemon).
pub fn kind_name(kind: u8) -> &'static str {
    match kind {
        K_HELLO => "HELLO",
        K_HELLO_ACK => "HELLO_ACK",
        K_FORMAT => "FORMAT",
        K_FORMAT_ACK => "FORMAT_ACK",
        K_CHANNEL => "CHANNEL",
        K_CHANNEL_ACK => "CHANNEL_ACK",
        K_SUBSCRIBE => "SUBSCRIBE",
        K_SUBSCRIBE_ACK => "SUBSCRIBE_ACK",
        K_SUBSCRIBE_FROM => "SUBSCRIBE_FROM",
        K_PUBLISH => "PUBLISH",
        K_EVENT => "EVENT",
        K_ANNOUNCE => "ANNOUNCE",
        K_PUBLISH_ACK => "PUBLISH_ACK",
        K_STATS => "STATS",
        K_STATS_ACK => "STATS_ACK",
        K_TRACE_CTL => "TRACE_CTL",
        K_TRACE_CTL_ACK => "TRACE_CTL_ACK",
        K_INSPECT => "INSPECT",
        K_INSPECT_ACK => "INSPECT_ACK",
        K_TAP_CTL => "TAP_CTL",
        K_TAP_CTL_ACK => "TAP_CTL_ACK",
        K_PING => "PING",
        K_PONG => "PONG",
        K_RESUME => "RESUME",
        K_RESUME_ACK => "RESUME_ACK",
        K_BYE => "BYE",
        K_BYE_ACK => "BYE_ACK",
        K_ERROR => "ERROR",
        _ => "?",
    }
}

/// `b` without its trailer flags: the bare format id.
pub fn format_id(b: u32) -> u32 {
    b & !TRAILER_FLAGS
}

/// `b` with its format id replaced and its trailer flags kept — for
/// translating ids between namespaces.
pub fn with_format(b: u32, format: u32) -> u32 {
    format | (b & TRAILER_FLAGS)
}

/// The trailers an event body carries after its payload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Trailers {
    /// The trace context, sampled or not.
    pub trace: Option<TraceCtx>,
    /// The durable channel offset.
    pub offset: Option<u64>,
}

impl Trailers {
    /// Bytes the trailers occupy on the wire.
    pub fn wire_len(&self) -> usize {
        self.trace.map_or(0, |_| TRACE_TRAILER_LEN) + self.offset.map_or(0, |_| OFFSET_TRAILER_LEN)
    }

    /// Append `payload` and then the trailers to `out`, returning
    /// `format` flagged to match. Reserves what it writes up front, so a
    /// fresh `Vec` costs one allocation.
    pub fn append(&self, out: &mut Vec<u8>, format: u32, payload: &[u8]) -> u32 {
        out.reserve(payload.len() + self.wire_len());
        out.extend_from_slice(payload);
        let mut b = format;
        if let Some(ctx) = &self.trace {
            out.extend_from_slice(&ctx.encode());
            b |= TRACE_FLAG;
        }
        if let Some(offset) = self.offset {
            out.extend_from_slice(&offset.to_be_bytes());
            b |= OFFSET_FLAG;
        }
        b
    }
}

/// An event body split along the trailers its `b` flags announce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventBody<'a> {
    /// The bare format id.
    pub format: u32,
    /// The record's native bytes.
    pub payload: &'a [u8],
    /// What followed them.
    pub trailers: Trailers,
}

/// Why an event body does not hold what its flags announce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrailerError {
    /// The body is shorter than its flagged offset trailer.
    ShortOffset,
    /// The body is shorter than its flagged trace trailer.
    ShortTrace,
    /// The trace trailer does not decode (unknown flags, nonzero
    /// reserved bytes).
    MalformedTrace,
}

impl fmt::Display for TrailerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TrailerError::ShortOffset => "event shorter than its offset trailer",
            TrailerError::ShortTrace => "event shorter than its trace trailer",
            TrailerError::MalformedTrace => "malformed trace trailer",
        })
    }
}

impl std::error::Error for TrailerError {}

/// Split `body` into payload and trailers as `b` flags them, outermost
/// (offset) first.
pub fn split_event(b: u32, body: &[u8]) -> Result<EventBody<'_>, TrailerError> {
    let (trace_len, off_len) = trailer_lens(b);
    let rest = body
        .len()
        .checked_sub(off_len)
        .ok_or(TrailerError::ShortOffset)?;
    let end = rest
        .checked_sub(trace_len)
        .ok_or(TrailerError::ShortTrace)?;
    let trace = match &body[end..rest] {
        [] => None,
        t => Some(TraceCtx::decode(t).ok_or(TrailerError::MalformedTrace)?),
    };
    let offset = <[u8; OFFSET_TRAILER_LEN]>::try_from(&body[rest..]).ok();
    Ok(EventBody {
        format: format_id(b),
        payload: &body[..end],
        trailers: Trailers {
            trace,
            offset: offset.map(u64::from_be_bytes),
        },
    })
}

/// Lengths of the trace and offset trailers `b` flags.
fn trailer_lens(b: u32) -> (usize, usize) {
    let len = |flag: u32, n: usize| if b & flag != 0 { n } else { 0 };
    (
        len(TRACE_FLAG, TRACE_TRAILER_LEN),
        len(OFFSET_FLAG, OFFSET_TRAILER_LEN),
    )
}

/// One receiver's view of a shared event: `b` and `wire` as
/// [`Trailers::append`] built them or [`split_event`] accepted them, cut
/// to the trailers `caps` covers ([`CAP_TRACE`], [`CAP_DURABLE`]). Cutting
/// outer trailers is a window on the shared storage; cutting the trace
/// trailer from under a kept offset is the one case that copies.
pub fn project_event(b: u32, wire: &WireBuf, caps: u32) -> (u32, WireBuf) {
    let mut keep = b & TRAILER_FLAGS;
    if caps & CAP_TRACE == 0 {
        keep &= !TRACE_FLAG;
    }
    if caps & CAP_DURABLE == 0 {
        keep &= !OFFSET_FLAG;
    }
    if keep == b & TRAILER_FLAGS {
        return (b, wire.clone());
    }
    let out = format_id(b) | keep;
    let (trace_len, off_len) = trailer_lens(b);
    if keep & OFFSET_FLAG == 0 {
        let cut = trace_len + off_len - trailer_lens(keep).0;
        return (out, wire.slice(0, wire.len().saturating_sub(cut)));
    }
    let tail = wire.len().saturating_sub(off_len);
    let payload = tail.saturating_sub(trace_len);
    let mut v = Vec::with_capacity(payload + off_len);
    v.extend_from_slice(&wire[..payload]);
    v.extend_from_slice(&wire[tail..]);
    (out, WireBuf::from(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbio_obs::FLAG_SAMPLED;
    use proptest::prelude::*;

    const CTX: TraceCtx = TraceCtx {
        trace_id: 0x0102_0304_0506_0708,
        origin_ns: 0x1112_1314_1516_1718,
        span_id: 0x2122_2324,
        flags: FLAG_SAMPLED,
    };

    fn all_trailers() -> [Trailers; 4] {
        [
            Trailers::default(),
            Trailers {
                trace: Some(CTX),
                offset: None,
            },
            Trailers {
                trace: None,
                offset: Some(0xA1A2_A3A4_A5A6_A7A8),
            },
            Trailers {
                trace: Some(CTX),
                offset: Some(7),
            },
        ]
    }

    #[test]
    fn append_then_split_round_trips() {
        for trailers in all_trailers() {
            for len in [0usize, 1, 23, 24, 31, 32, 100] {
                let payload: Vec<u8> = (0..len).map(|i| i as u8 ^ 0x5a).collect();
                let mut body = Vec::new();
                let b = trailers.append(&mut body, 42, &payload);
                assert_eq!(body.len(), len + trailers.wire_len());
                assert_eq!(b & TRACE_FLAG != 0, trailers.trace.is_some());
                assert_eq!(b & OFFSET_FLAG != 0, trailers.offset.is_some());
                let ev = split_event(b, &body).unwrap();
                assert_eq!(
                    ev,
                    EventBody {
                        format: 42,
                        payload: &payload,
                        trailers
                    }
                );
            }
        }
    }

    /// Payload, then trace, then offset — bits 31 and 30.
    #[test]
    fn golden_bytes_pin_the_order() {
        let trailers = Trailers {
            trace: Some(CTX),
            offset: Some(0x3132_3334_3536_3738),
        };
        let mut body = Vec::new();
        let b = trailers.append(&mut body, 9, b"pay");
        assert_eq!(b, 0xC000_0009);
        let want: Vec<u8> = [
            &b"pay"[..],
            &[1, 2, 3, 4, 5, 6, 7, 8],
            &[0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18],
            &[0x21, 0x22, 0x23, 0x24, FLAG_SAMPLED, 0, 0, 0],
            &[0x31, 0x32, 0x33, 0x34, 0x35, 0x36, 0x37, 0x38],
        ]
        .concat();
        assert_eq!(body, want);
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        for trailers in all_trailers().into_iter().skip(1) {
            let mut body = Vec::new();
            let b = trailers.append(&mut body, 3, &[]);
            for cut in 0..body.len() {
                let err = split_event(b, &body[..cut]).unwrap_err();
                let want = if trailers.offset.is_some() && cut < OFFSET_TRAILER_LEN {
                    TrailerError::ShortOffset
                } else {
                    TrailerError::ShortTrace
                };
                assert_eq!(err, want, "{trailers:?} cut to {cut}");
            }
        }
        let mut bad = CTX.encode();
        bad[23] = 1;
        assert_eq!(
            split_event(TRACE_FLAG, &bad),
            Err(TrailerError::MalformedTrace)
        );
    }

    #[test]
    fn projection_keeps_exactly_the_covered_trailers() {
        let payload = b"0123456789";
        for trailers in all_trailers() {
            let mut body = Vec::new();
            let b = trailers.append(&mut body, 5, payload);
            let wire = WireBuf::from(body);
            for caps in [0, CAP_TRACE, CAP_DURABLE, CAP_TRACE | CAP_DURABLE] {
                let covered = Trailers {
                    trace: trailers.trace.filter(|_| caps & CAP_TRACE != 0),
                    offset: trailers.offset.filter(|_| caps & CAP_DURABLE != 0),
                };
                let mut want = Vec::new();
                let want_b = covered.append(&mut want, 5, payload);
                let (got_b, got) = project_event(b, &wire, caps);
                assert_eq!((got_b, got.to_vec()), (want_b, want), "caps {caps:#x}");
                let copies = covered.offset.is_some() && trailers.trace != covered.trace;
                assert_eq!(got.as_ptr() != wire.as_ptr(), copies, "caps {caps:#x}");
            }
        }
    }

    proptest! {
        /// Hostile bodies and flag words: split either succeeds with a
        /// payload that is a prefix of the body, or fails typed — never
        /// panics — and projecting an accepted body never panics either.
        #[test]
        fn split_never_panics(
            body in proptest::collection::vec(any::<u8>(), 0..64),
            b in any::<u32>(),
        ) {
            if let Ok(ev) = split_event(b, &body) {
                prop_assert_eq!(ev.format, format_id(b));
                prop_assert_eq!(ev.payload, &body[..ev.payload.len()]);
                prop_assert_eq!(ev.payload.len() + ev.trailers.wire_len(), body.len());
                let (pb, _) = project_event(b, &WireBuf::from(body.clone()), b);
                prop_assert_eq!(format_id(pb), format_id(b));
            }
        }
    }
}
