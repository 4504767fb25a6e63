//! Flight recorder: a bounded lock-free ring of structured lifecycle
//! events — the daemon's black box.
//!
//! Unlike the metric registry (aggregates) and the trace ring (sampled
//! data-path hops), the flight recorder captures *discrete control-plane
//! moments*: a connection arrived, a session resumed, a peer was evicted,
//! a protocol error was answered, a torn tail was repaired, a replay
//! started or finished. Events are rare but their ordering is exactly
//! what a post-mortem needs, so recording must be safe from any thread
//! without a lock: each slot is a seqlock — the writer claims a unique
//! generation with one `fetch_add`, marks the slot in-progress, stores
//! the all-scalar payload, then publishes the generation. Readers detect
//! (and skip) slots torn by a concurrent wrap instead of blocking them.
//!
//! Dumps are decodable forever: [`crate::export::flight_schema`]
//! describes an event as an ordinary self-describing PBIO record, so a
//! recorder drained into a `pbio-store` segment file is readable by the
//! same machinery that replays durable channels.

use std::sync::atomic::{fence, AtomicU64, Ordering};

use crate::registry::epoch_ns;

/// A connection completed its handshake (`conn`, `aux` = granted caps).
pub const FL_CONNECT: u32 = 1;
/// A connection was torn down (`code` = caller-defined eviction reason).
pub const FL_EVICT: u32 = 2;
/// A session resumed under a new epoch (`aux` = epoch).
pub const FL_RESUME: u32 = 3;
/// A protocol error was answered (`code` = wire error code).
pub const FL_PROTO_ERROR: u32 = 4;
/// Deterministic fault injection armed (`aux` = seed).
pub const FL_FAULT: u32 = 5;
/// The store repaired a torn tail while appending (`aux` = total so far).
pub const FL_REPAIR: u32 = 6;
/// A historical replay started (`aux` = starting offset).
pub const FL_REPLAY_START: u32 = 7;
/// A historical replay handed off to live delivery (`aux` = end offset).
pub const FL_REPLAY_FINISH: u32 = 8;
/// The daemon began an orderly shutdown.
pub const FL_SHUTDOWN: u32 = 9;
/// The wire tap was switched on or reconfigured (`conn` = requester, 0
/// at boot; `code` = mode, `aux` = mode parameter).
pub const FL_TAP_START: u32 = 10;
/// The wire tap was switched off (`conn` = requester, `aux` = frames
/// captured so far).
pub const FL_TAP_STOP: u32 = 11;
/// The capture log rotated into a new segment (`aux` = segment count).
pub const FL_TAP_ROTATE: u32 = 12;
/// The capture ring overflowed and dropped frames (`aux` = total frames
/// dropped so far).
pub const FL_TAP_DROP: u32 = 13;

/// Human-readable name for a flight-event kind.
pub fn flight_kind_name(kind: u32) -> &'static str {
    match kind {
        FL_CONNECT => "connect",
        FL_EVICT => "evict",
        FL_RESUME => "resume",
        FL_PROTO_ERROR => "proto_error",
        FL_FAULT => "fault",
        FL_REPAIR => "repair",
        FL_REPLAY_START => "replay_start",
        FL_REPLAY_FINISH => "replay_finish",
        FL_SHUTDOWN => "shutdown",
        FL_TAP_START => "tap_start",
        FL_TAP_STOP => "tap_stop",
        FL_TAP_ROTATE => "tap_rotate",
        FL_TAP_DROP => "tap_drop",
        _ => "unknown",
    }
}

/// One recorded lifecycle event. All fields are scalars so the event
/// stores into ring slots atomically-per-field and exports as a
/// fixed-size PBIO record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlightEvent {
    /// [`epoch_ns`] timestamp stamped at record time.
    pub t_ns: u64,
    /// Event kind ([`FL_CONNECT`]…).
    pub kind: u32,
    /// Connection id, when the event concerns one (else 0).
    pub conn: u32,
    /// Channel id, when the event concerns one (else 0).
    pub chan: u32,
    /// Kind-specific code (eviction reason, protocol error code…).
    pub code: u32,
    /// Kind-specific auxiliary value (offset, epoch, seed…).
    pub aux: u64,
}

/// One seqlock slot. `seq` holds `generation + 1` once a write completes
/// and 0 while a write is in flight; readers accept a slot only when the
/// generation they expect is published both before and after the field
/// reads.
struct Slot {
    seq: AtomicU64,
    t_ns: AtomicU64,
    kind: AtomicU64,
    conn: AtomicU64,
    chan: AtomicU64,
    code: AtomicU64,
    aux: AtomicU64,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            t_ns: AtomicU64::new(0),
            kind: AtomicU64::new(0),
            conn: AtomicU64::new(0),
            chan: AtomicU64::new(0),
            code: AtomicU64::new(0),
            aux: AtomicU64::new(0),
        }
    }
}

/// Bounded lock-free ring of [`FlightEvent`]s, overwriting oldest-first.
///
/// Recording never blocks, never allocates, and never contends on a
/// lock: a `fetch_add` claims the slot, per-field relaxed stores fill
/// it, and a release store publishes it. The only losses are events
/// overwritten after the ring wraps (by design) and slots a reader
/// observes mid-write (skipped, not blocked on).
pub struct FlightRecorder {
    slots: Vec<Slot>,
    /// Total events ever recorded; `slot = generation % slots.len()`.
    head: AtomicU64,
}

impl FlightRecorder {
    /// New ring holding the most recent `capacity` events (min 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            slots: (0..capacity).map(|_| Slot::new()).collect(),
            head: AtomicU64::new(0),
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever recorded (including ones since overwritten).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Record one event, stamped with [`epoch_ns`] now.
    pub fn record(&self, kind: u32, conn: u32, chan: u32, code: u32, aux: u64) {
        self.record_event(FlightEvent {
            t_ns: epoch_ns(),
            kind,
            conn,
            chan,
            code,
            aux,
        });
    }

    /// Record a pre-stamped event.
    fn record_event(&self, ev: FlightEvent) {
        let g = self.head.fetch_add(1, Ordering::AcqRel);
        let slot = &self.slots[(g % self.slots.len() as u64) as usize];
        // Mark in-progress; the RMW's acquire side keeps the field stores
        // below from being hoisted above it.
        slot.seq.swap(0, Ordering::AcqRel);
        slot.t_ns.store(ev.t_ns, Ordering::Relaxed);
        slot.kind.store(u64::from(ev.kind), Ordering::Relaxed);
        slot.conn.store(u64::from(ev.conn), Ordering::Relaxed);
        slot.chan.store(u64::from(ev.chan), Ordering::Relaxed);
        slot.code.store(u64::from(ev.code), Ordering::Relaxed);
        slot.aux.store(ev.aux, Ordering::Relaxed);
        // Publish: generation + 1 distinguishes "written as g" from the
        // in-progress 0 and from every other generation of this slot.
        slot.seq.store(g + 1, Ordering::Release);
    }

    /// Read the slot holding `g`, validating the seqlock; `None` when
    /// the slot was overwritten or is mid-write.
    fn read_gen(&self, g: u64) -> Option<FlightEvent> {
        let slot = &self.slots[(g % self.slots.len() as u64) as usize];
        let seq1 = slot.seq.load(Ordering::Acquire);
        if seq1 != g + 1 {
            return None;
        }
        let ev = FlightEvent {
            t_ns: slot.t_ns.load(Ordering::Relaxed),
            kind: slot.kind.load(Ordering::Relaxed) as u32,
            conn: slot.conn.load(Ordering::Relaxed) as u32,
            chan: slot.chan.load(Ordering::Relaxed) as u32,
            code: slot.code.load(Ordering::Relaxed) as u32,
            aux: slot.aux.load(Ordering::Relaxed),
        };
        fence(Ordering::Acquire);
        (slot.seq.load(Ordering::Relaxed) == g + 1).then_some(ev)
    }

    /// The most recent events still in the ring, oldest first. Slots torn
    /// by a concurrent writer are skipped, never blocked on.
    pub fn recent(&self) -> Vec<FlightEvent> {
        self.drain_since(0).0
    }

    /// Events with generation at or after `cursor` (clamped to what the
    /// ring still holds), oldest first, plus the next cursor — the basis
    /// for incremental dumps: pass the returned cursor back and only new
    /// events come out.
    pub fn drain_since(&self, cursor: u64) -> (Vec<FlightEvent>, u64) {
        let head = self.head.load(Ordering::Acquire);
        let floor = head.saturating_sub(self.slots.len() as u64);
        let start = cursor.max(floor);
        let mut out = Vec::with_capacity((head - start) as usize);
        for g in start..head {
            if let Some(ev) = self.read_gen(g) {
                out.push(ev);
            }
        }
        (out, head)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn records_and_reads_in_order() {
        let r = FlightRecorder::new(8);
        r.record(FL_CONNECT, 1, 0, 0, 0);
        r.record(FL_EVICT, 1, 0, 2, 0);
        let evs = r.recent();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].kind, FL_CONNECT);
        assert_eq!(evs[1].kind, FL_EVICT);
        assert!(evs[0].t_ns <= evs[1].t_ns);
        assert_eq!(r.recorded(), 2);
    }

    #[test]
    fn wraps_keeping_newest() {
        let r = FlightRecorder::new(4);
        for i in 0..10u64 {
            r.record(FL_RESUME, i as u32, 0, 0, i);
        }
        let evs = r.recent();
        assert_eq!(evs.len(), 4);
        assert_eq!(
            evs.iter().map(|e| e.aux).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
    }

    #[test]
    fn incremental_drain_sees_each_event_once() {
        let r = FlightRecorder::new(16);
        r.record(FL_CONNECT, 1, 0, 0, 0);
        let (first, cursor) = r.drain_since(0);
        assert_eq!(first.len(), 1);
        let (none, cursor2) = r.drain_since(cursor);
        assert!(none.is_empty());
        assert_eq!(cursor2, cursor);
        r.record(FL_SHUTDOWN, 0, 0, 0, 0);
        let (next, _) = r.drain_since(cursor2);
        assert_eq!(next.len(), 1);
        assert_eq!(next[0].kind, FL_SHUTDOWN);
    }

    #[test]
    fn concurrent_recording_never_yields_torn_events() {
        let r = Arc::new(FlightRecorder::new(32));
        let writers: Vec<_> = (0..4u64)
            .map(|t| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for i in 0..2000u64 {
                        // Every valid event satisfies aux == conn * 10_000 + code.
                        let conn = (t * 2000 + i) as u32 % 97;
                        let code = i as u32 % 13;
                        r.record(
                            FL_EVICT,
                            conn,
                            0,
                            code,
                            u64::from(conn) * 10_000 + u64::from(code),
                        );
                    }
                })
            })
            .collect();
        let reader = {
            let r = r.clone();
            std::thread::spawn(move || {
                for _ in 0..200 {
                    for ev in r.recent() {
                        assert_eq!(
                            ev.aux,
                            u64::from(ev.conn) * 10_000 + u64::from(ev.code),
                            "torn event surfaced"
                        );
                    }
                }
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        reader.join().unwrap();
        assert_eq!(r.recorded(), 8000);
        assert_eq!(r.recent().len(), 32);
    }
}
