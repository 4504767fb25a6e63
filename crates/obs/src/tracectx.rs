//! Wire-propagated trace context and per-hop trace records.
//!
//! A sampled publish carries a compact [`TraceCtx`] in a fixed-size
//! trailer appended to the event's NDR bytes. Every stage that touches
//! the event — daemon ingress, filter evaluation, fan-out enqueue,
//! writer-thread flush, client decode — re-stamps the context into a
//! [`TraceHop`] record, which is buffered in a bounded [`TraceSink`] and
//! later exported over the reserved `$trace` channel as an ordinary PBIO
//! record (see [`crate::export::hop_schema`]).
//!
//! Head-based sampling lives in [`TraceSampler`]: when sampling is off
//! the decision is a single relaxed atomic load, so the tracing
//! machinery costs the untraced hot path no allocation and no lock.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::bounded::{Bounded, Overflow};
use crate::metric::Counter;

/// Byte length of the trace trailer carried on `PUBLISH`/`EVENT` frames:
/// `trace_id:u64be  origin_ns:u64be  span_id:u32be  flags:u8  reserved[3]`.
pub const TRACE_TRAILER_LEN: usize = 24;

/// [`TraceCtx::flags`] bit: this trace was selected by head-based
/// sampling at the publisher. Currently the only defined flag; a decoder
/// rejects trailers with unknown flag bits or nonzero reserved bytes.
pub const FLAG_SAMPLED: u8 = 0x01;

/// Hop kind: the publisher stamped the event (duration 0; the timestamp
/// is the trailer's origin).
pub const HOP_PUBLISH: u32 = 0;
/// Hop kind: the daemon read the event off the publisher's socket.
pub const HOP_INGRESS: u32 = 1;
/// Hop kind: subscriber filters were evaluated for the event's channel.
pub const HOP_FILTER: u32 = 2;
/// Hop kind: the event was enqueued on one subscriber's outbound queue.
pub const HOP_ENQUEUE: u32 = 3;
/// Hop kind: a reactor shard flushed the event's frame to the socket.
pub const HOP_FLUSH: u32 = 4;
/// Hop kind: a subscribing client decoded (or zero-copy viewed) the event.
pub const HOP_DECODE: u32 = 5;
/// Hop kind: the event crossed a daemon↔daemon mesh link — stamped once
/// per link crossing (publish forwarded to the channel's home daemon, or
/// a home-side event injected into a peer's local fan-out). Only meshed
/// deployments record it; single-daemon timelines never do.
pub const HOP_RELAY: u32 = 6;
/// Number of hop kinds (array-sizing bound for per-hop tables).
pub const HOP_COUNT: usize = 7;
/// Number of hop kinds every complete end-to-end timeline carries —
/// the kinds below [`HOP_RELAY`], which is optional (mesh-only).
pub const HOP_REQUIRED: usize = 6;

/// Human-readable name of a hop kind.
pub fn hop_name(hop: u32) -> &'static str {
    match hop {
        HOP_PUBLISH => "publish",
        HOP_INGRESS => "ingress",
        HOP_FILTER => "filter",
        HOP_ENQUEUE => "enqueue",
        HOP_FLUSH => "flush",
        HOP_DECODE => "decode",
        HOP_RELAY => "relay",
        _ => "unknown",
    }
}

/// The trace context a sampled event carries across the wire.
///
/// Timestamps are nanoseconds in the *daemon's* observation timebase:
/// clients stamp `origin_ns` already corrected through the clock offset
/// measured during the session handshake, so every hop of one trace is
/// directly comparable no matter which process recorded it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// Process-unique random id shared by every hop of one event.
    pub trace_id: u64,
    /// Publisher-assigned span id (0 for a root publish).
    pub span_id: u32,
    /// Publish timestamp, daemon timebase.
    pub origin_ns: u64,
    /// [`FLAG_SAMPLED`] and future bits.
    pub flags: u8,
}

impl TraceCtx {
    /// Whether the sampling bit is set.
    pub fn sampled(&self) -> bool {
        self.flags & FLAG_SAMPLED != 0
    }

    /// Serialize to the fixed-size wire trailer.
    pub fn encode(&self) -> [u8; TRACE_TRAILER_LEN] {
        let mut out = [0u8; TRACE_TRAILER_LEN];
        out[0..8].copy_from_slice(&self.trace_id.to_be_bytes());
        out[8..16].copy_from_slice(&self.origin_ns.to_be_bytes());
        out[16..20].copy_from_slice(&self.span_id.to_be_bytes());
        out[20] = self.flags;
        out
    }

    /// Parse a wire trailer. Returns `None` if the slice is not exactly
    /// [`TRACE_TRAILER_LEN`] bytes, carries unknown flag bits, or has
    /// nonzero reserved bytes — the "malformed trailer" protocol error.
    pub fn decode(trailer: &[u8]) -> Option<TraceCtx> {
        if trailer.len() != TRACE_TRAILER_LEN {
            return None;
        }
        let flags = trailer[20];
        if flags & !FLAG_SAMPLED != 0 || trailer[21..24] != [0, 0, 0] {
            return None;
        }
        Some(TraceCtx {
            trace_id: u64::from_be_bytes(trailer[0..8].try_into().unwrap()),
            origin_ns: u64::from_be_bytes(trailer[8..16].try_into().unwrap()),
            span_id: u32::from_be_bytes(trailer[16..20].try_into().unwrap()),
            flags,
        })
    }

    /// The record of this event reaching stage `hop` at `t_ns` (daemon
    /// timebase), timed from its publish origin.
    pub fn hop(&self, hop: u32, conn: u32, channel: u32, t_ns: u64) -> TraceHop {
        TraceHop {
            trace_id: self.trace_id,
            span_id: self.span_id,
            hop,
            conn,
            channel,
            t_ns,
            dur_ns: t_ns.saturating_sub(self.origin_ns),
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Head-based trace sampler: selects 1 in `modulus` publishes and mints
/// fresh trace ids for them. A modulus of 0 disables sampling entirely;
/// the disabled check is one relaxed load, no allocation, no lock.
pub struct TraceSampler {
    counter: AtomicU64,
    modulus: AtomicU32,
    seed: AtomicU64,
}

impl TraceSampler {
    /// A sampler selecting 1 in `modulus` publishes (0 = off).
    pub fn new(modulus: u32) -> TraceSampler {
        let sampler = TraceSampler {
            counter: AtomicU64::new(0),
            modulus: AtomicU32::new(modulus),
            seed: AtomicU64::new(0),
        };
        // Seed trace-id generation from process identity and the
        // sampler's own address, so concurrent publisher processes mint
        // disjoint id streams without a shared randomness source.
        let addr = &sampler as *const TraceSampler as u64;
        let seed = splitmix64(crate::epoch_ns() ^ ((std::process::id() as u64) << 32) ^ addr);
        sampler.seed.store(seed, Ordering::Relaxed);
        sampler
    }

    /// Current sampling modulus (0 = off).
    pub fn modulus(&self) -> u32 {
        self.modulus.load(Ordering::Relaxed)
    }

    /// Change the sampling modulus (0 disables).
    pub fn set_modulus(&self, modulus: u32) {
        self.modulus.store(modulus, Ordering::Relaxed);
    }

    /// Head-based sampling decision for the next publish.
    #[inline]
    pub fn try_sample(&self) -> bool {
        let m = self.modulus.load(Ordering::Relaxed);
        if m == 0 {
            return false;
        }
        self.counter
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(u64::from(m))
    }

    /// Mint the context for a sampled publish stamped at `origin_ns`.
    pub fn next_ctx(&self, origin_ns: u64) -> TraceCtx {
        let n = self
            .seed
            .fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed);
        TraceCtx {
            trace_id: splitmix64(n) | 1, // never 0, so 0 can mean "absent"
            span_id: 0,
            origin_ns,
            flags: FLAG_SAMPLED,
        }
    }
}

/// One completed hop of a trace: where an event was at `t_ns` and how
/// long that stage took. All fields are fixed-size scalars, so hop
/// records export as self-describing PBIO records with no string table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceHop {
    /// Trace id from the event's [`TraceCtx`].
    pub trace_id: u64,
    /// Span id (hop records stamp their hop kind here).
    pub span_id: u32,
    /// [`HOP_PUBLISH`]…[`HOP_DECODE`].
    pub hop: u32,
    /// Connection id of the session involved (0 when daemon-internal).
    pub conn: u32,
    /// Channel id the event travelled on.
    pub channel: u32,
    /// Stage completion time, daemon timebase.
    pub t_ns: u64,
    /// Stage duration in nanoseconds.
    pub dur_ns: u64,
}

/// A bounded buffer of completed [`TraceHop`]s awaiting export, shared
/// by every tracing stage. Pushes past the capacity evict the oldest
/// record (fresh data beats stale data, the same policy as the event
/// queues the hops describe) and count it in the owner's counter.
pub struct TraceSink {
    hops: Mutex<Bounded<TraceHop>>,
    dropped: Arc<Counter>,
}

impl TraceSink {
    /// A sink holding at most `capacity` hop records (min 1), counting
    /// evictions in `dropped`.
    pub fn new(capacity: usize, dropped: Arc<Counter>) -> TraceSink {
        TraceSink {
            hops: Mutex::new(Bounded::new(capacity.max(1), Overflow::DropOldest)),
            dropped,
        }
    }

    fn hops(&self) -> MutexGuard<'_, Bounded<TraceHop>> {
        self.hops.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Append a hop record, evicting the oldest when full.
    pub fn push(&self, hop: TraceHop) {
        if self.hops().push(hop).is_some() {
            self.dropped.inc();
        }
    }

    /// Take every buffered hop record, oldest first.
    pub fn drain(&self) -> Vec<TraceHop> {
        self.hops().drain().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trailer_round_trips() {
        let ctx = TraceCtx {
            trace_id: 0xdead_beef_1234_5678,
            span_id: 42,
            origin_ns: 987_654_321,
            flags: FLAG_SAMPLED,
        };
        let wire = ctx.encode();
        assert_eq!(wire.len(), TRACE_TRAILER_LEN);
        assert_eq!(TraceCtx::decode(&wire), Some(ctx));
    }

    #[test]
    fn malformed_trailers_are_rejected() {
        let ctx = TraceCtx {
            trace_id: 7,
            span_id: 0,
            origin_ns: 1,
            flags: FLAG_SAMPLED,
        };
        let good = ctx.encode();
        assert!(TraceCtx::decode(&good[..20]).is_none(), "short");
        let mut bad_flags = good;
        bad_flags[20] = 0x80;
        assert!(TraceCtx::decode(&bad_flags).is_none(), "unknown flag");
        let mut bad_reserved = good;
        bad_reserved[23] = 1;
        assert!(TraceCtx::decode(&bad_reserved).is_none(), "reserved");
    }

    #[test]
    fn sampler_selects_one_in_n() {
        let s = TraceSampler::new(4);
        let hits = (0..16).filter(|_| s.try_sample()).count();
        assert_eq!(hits, 4);
        s.set_modulus(0);
        assert!((0..100).all(|_| !s.try_sample()));
        s.set_modulus(1);
        assert!((0..10).all(|_| s.try_sample()));
    }

    #[test]
    fn sampler_mints_distinct_nonzero_ids() {
        let s = TraceSampler::new(1);
        let a = s.next_ctx(10);
        let b = s.next_ctx(20);
        assert_ne!(a.trace_id, 0);
        assert_ne!(a.trace_id, b.trace_id);
        assert!(a.sampled());
        assert_eq!(a.origin_ns, 10);
    }

    #[test]
    fn hop_is_timed_from_the_origin() {
        let ctx = TraceSampler::new(1).next_ctx(100);
        let hop = ctx.hop(HOP_FLUSH, 3, 4, 350);
        assert_eq!(
            (hop.trace_id, hop.span_id, hop.hop, hop.conn, hop.channel),
            (ctx.trace_id, ctx.span_id, HOP_FLUSH, 3, 4)
        );
        assert_eq!((hop.t_ns, hop.dur_ns), (350, 250));
        assert_eq!(ctx.hop(HOP_PUBLISH, 3, 4, 100).dur_ns, 0);
        // A stamp behind the origin (clock correction residue) is 0, not
        // a wrapped huge duration.
        assert_eq!(ctx.hop(HOP_DECODE, 3, 4, 90).dur_ns, 0);
    }

    #[test]
    fn sink_bounds_and_drains() {
        let dropped = Arc::new(Counter::new());
        let sink = TraceSink::new(3, dropped.clone());
        for i in 0..5u64 {
            sink.push(TraceHop {
                trace_id: i,
                ..TraceHop::default()
            });
        }
        assert_eq!(dropped.get(), 2);
        let ids: Vec<u64> = sink.drain().iter().map(|h| h.trace_id).collect();
        assert_eq!(ids, [2, 3, 4]);
        assert!(sink.drain().is_empty());
    }
}
