//! Deterministic, seeded fault injection for byte transports.
//!
//! The serv layer's recovery paths — reconnect, session resume, heartbeat
//! eviction, checksum rejection — are only trustworthy if they are
//! *exercised*, and the network faults that trigger them (resets, stalls,
//! half-open peers, bit flips, torn writes) do not occur on a quiet
//! loopback. [`FaultyStream`] wraps any `Read + Write` transport and
//! injects faults from a [`FaultPlan`]: a sorted list of [`FaultOp`]s,
//! each anchored to a **byte offset** in the stream rather than to wall
//! time, which is what makes runs reproducible — the same seed and plan
//! fire the same faults at the same points in the byte stream no matter
//! how the OS segments reads and writes or how threads are scheduled.
//!
//! Plans compose: hand-built (`FaultPlan::new().corrupt_read(40, 0x01)`)
//! for targeted regression tests, or generated from a seed
//! ([`FaultPlan::from_seed`]) for the CI fault matrix. Every fault that
//! actually fires is appended to a shared [`FaultLog`], so tests can
//! assert the injected sequence — not just the observed damage — is
//! identical across runs.
//!
//! The wrapper is deliberately passive once its plan is exhausted: a
//! drained [`FaultyStream`] is byte-transparent, so a recovered session
//! keeps running at full fidelity after its faults have fired.

use std::fmt;
use std::io::{self, IoSlice, Read, Write};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rand::{rngs::StdRng, Rng, SeedableRng};

/// One injected fault, anchored to a byte offset within one direction of
/// a stream (offsets count bytes delivered to/accepted from the wrapped
/// transport in that direction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// The write covering offset `at` is truncated to at most `max`
    /// bytes (min 1): a torn `write`/`writev`, exercising every caller's
    /// short-write completion loop.
    PartialWrite {
        /// Stream offset the truncation anchors to.
        at: u64,
        /// Maximum bytes the anchored write may move.
        max: usize,
    },
    /// The read that would deliver offset `at` first sleeps `millis`:
    /// a stalled peer, exercising timeout arming and heartbeat paths.
    ReadStall {
        /// Stream offset the stall anchors to.
        at: u64,
        /// Stall duration in milliseconds (keep small in tests).
        millis: u32,
    },
    /// The byte at offset `at` is XORed with `xor` in flight. With
    /// `xor != 0` this guarantees the delivered byte differs — the frame
    /// checksum must catch it.
    CorruptByte {
        /// Stream offset of the corrupted byte.
        at: u64,
        /// Mask XORed into the byte.
        xor: u8,
    },
    /// The direction is severed once offset `at` is reached: reads
    /// return EOF (a peer that vanished, possibly mid-frame), writes
    /// fail with `ConnectionReset`.
    Disconnect {
        /// Stream offset after which the direction is dead.
        at: u64,
    },
}

impl FaultOp {
    /// The byte offset this fault anchors to.
    pub fn at(&self) -> u64 {
        match *self {
            FaultOp::PartialWrite { at, .. }
            | FaultOp::ReadStall { at, .. }
            | FaultOp::CorruptByte { at, .. }
            | FaultOp::Disconnect { at } => at,
        }
    }
}

impl fmt::Display for FaultOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultOp::PartialWrite { at, max } => write!(f, "partial-write@{at} (max {max})"),
            FaultOp::ReadStall { at, millis } => write!(f, "read-stall@{at} ({millis}ms)"),
            FaultOp::CorruptByte { at, xor } => write!(f, "corrupt@{at} (^{xor:#04x})"),
            FaultOp::Disconnect { at } => write!(f, "disconnect@{at}"),
        }
    }
}

/// A composable fault schedule: one sorted op list per direction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Faults applied to bytes read from the transport.
    pub read: Vec<FaultOp>,
    /// Faults applied to bytes written to the transport.
    pub write: Vec<FaultOp>,
}

impl FaultPlan {
    /// An empty (transparent) plan.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Generate a deterministic plan from a seed: a mix of partial
    /// writes, short read stalls, and byte corruption in the first
    /// ~64 KiB of each direction, and (for odd seeds) a mid-stream
    /// disconnect — the profile of a flaky LAN rather than a dead one.
    /// The same seed always yields the same plan.
    pub fn from_seed(seed: u64) -> FaultPlan {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = FaultPlan::new();
        for dir in 0..2u8 {
            let ops = rng.gen_range(1..=3usize);
            let mut v: Vec<FaultOp> = Vec::with_capacity(ops + 1);
            for _ in 0..ops {
                let at = rng.gen_range(64..65_536u64);
                v.push(match rng.gen_range(0..3u8) {
                    0 if dir == 1 => FaultOp::PartialWrite {
                        at,
                        max: rng.gen_range(1..=7usize),
                    },
                    0 | 1 => FaultOp::ReadStall {
                        at,
                        millis: rng.gen_range(1..=15u32),
                    },
                    _ => FaultOp::CorruptByte {
                        at,
                        xor: rng.gen_range(1..=255u64) as u8,
                    },
                });
            }
            if seed % 2 == 1 {
                v.push(FaultOp::Disconnect {
                    at: rng.gen_range(4_096..131_072u64),
                });
            }
            v.sort_by_key(FaultOp::at);
            if dir == 0 {
                plan.read = v;
            } else {
                plan.write = v;
            }
        }
        plan
    }

    /// Derive the plan for one connection of a multi-connection run: a
    /// distinct but seed-deterministic stream per `conn` index.
    pub fn for_conn(seed: u64, conn: u64) -> FaultPlan {
        FaultPlan::from_seed(seed ^ conn.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Add a read-side corruption.
    pub fn corrupt_read(mut self, at: u64, xor: u8) -> FaultPlan {
        self.read.push(FaultOp::CorruptByte { at, xor });
        self.read.sort_by_key(FaultOp::at);
        self
    }

    /// Add a write-side corruption.
    pub fn corrupt_write(mut self, at: u64, xor: u8) -> FaultPlan {
        self.write.push(FaultOp::CorruptByte { at, xor });
        self.write.sort_by_key(FaultOp::at);
        self
    }

    /// Add a read-side stall.
    pub fn stall_read(mut self, at: u64, millis: u32) -> FaultPlan {
        self.read.push(FaultOp::ReadStall { at, millis });
        self.read.sort_by_key(FaultOp::at);
        self
    }

    /// Add a write-side truncation.
    pub fn partial_write(mut self, at: u64, max: usize) -> FaultPlan {
        self.write.push(FaultOp::PartialWrite { at, max });
        self.write.sort_by_key(FaultOp::at);
        self
    }

    /// Add a *short write on flush*: the write covering offset `at`
    /// accepts at most `keep` bytes and every later write fails, as if
    /// the process died (or the disk vanished) mid-append. This is the
    /// torn-tail generator for durable-log recovery tests: exactly
    /// `keep` bytes of the in-flight record land, the completion loop's
    /// retry is refused, and whatever was buffered past the tear never
    /// reaches the file.
    pub fn short_write_on_flush(self, at: u64, keep: usize) -> FaultPlan {
        self.partial_write(at, keep.max(1))
            .disconnect_write(at + keep.max(1) as u64)
    }

    /// Sever the read direction at `at` (the peer vanishes mid-frame).
    pub fn disconnect_read(mut self, at: u64) -> FaultPlan {
        self.read.push(FaultOp::Disconnect { at });
        self.read.sort_by_key(FaultOp::at);
        self
    }

    /// Sever the write direction at `at`.
    pub fn disconnect_write(mut self, at: u64) -> FaultPlan {
        self.write.push(FaultOp::Disconnect { at });
        self.write.sort_by_key(FaultOp::at);
        self
    }

    /// This plan with only its read-side ops (for wrapping the read half
    /// of a split connection).
    pub fn read_half(&self) -> FaultPlan {
        FaultPlan {
            read: self.read.clone(),
            write: Vec::new(),
        }
    }

    /// This plan with only its write-side ops.
    pub fn write_half(&self) -> FaultPlan {
        FaultPlan {
            read: Vec::new(),
            write: self.write.clone(),
        }
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.read.is_empty() && self.write.is_empty()
    }
}

/// One fault that actually fired, as recorded in a [`FaultLog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// `true` if the fault fired on the write direction.
    pub write: bool,
    /// The op that fired (anchor offset included).
    pub op: FaultOp,
}

/// Shared, append-only record of every fault a [`FaultyStream`] injected.
/// Ops fire in plan order per direction, so for a fixed seed + plan the
/// per-direction sequences are identical across runs — the property the
/// reproducibility test asserts.
#[derive(Debug, Clone, Default)]
pub struct FaultLog {
    events: Arc<Mutex<Vec<FaultEvent>>>,
}

impl FaultLog {
    /// A fresh, empty log.
    pub fn new() -> FaultLog {
        FaultLog::default()
    }

    fn push(&self, write: bool, op: FaultOp) {
        self.events
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(FaultEvent { write, op });
    }

    /// Snapshot of every fault fired so far (both directions, in firing
    /// order).
    pub fn events(&self) -> Vec<FaultEvent> {
        self.events
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// The fired ops of one direction, in order.
    pub fn direction(&self, write: bool) -> Vec<FaultOp> {
        self.events()
            .into_iter()
            .filter(|e| e.write == write)
            .map(|e| e.op)
            .collect()
    }
}

/// Per-direction injection state.
struct DirState {
    /// Pending ops, sorted by anchor offset; drained as they fire.
    ops: Vec<FaultOp>,
    /// Next pending op index.
    next: usize,
    /// Bytes moved in this direction so far.
    offset: u64,
    /// Set once a [`FaultOp::Disconnect`] fired.
    severed: bool,
}

impl DirState {
    fn new(mut ops: Vec<FaultOp>) -> DirState {
        ops.sort_by_key(FaultOp::at);
        DirState {
            ops,
            next: 0,
            offset: 0,
            severed: false,
        }
    }

    fn peek(&self) -> Option<FaultOp> {
        self.ops.get(self.next).copied()
    }

    fn pop(&mut self) -> Option<FaultOp> {
        let op = self.peek();
        if op.is_some() {
            self.next += 1;
        }
        op
    }
}

/// A `Read + Write` wrapper that injects the faults of a [`FaultPlan`]
/// into the wrapped transport. See the module docs for semantics.
pub struct FaultyStream<S> {
    inner: S,
    read: DirState,
    write: DirState,
    log: FaultLog,
    /// Scratch for write-side corruption (a corrupted write goes out of a
    /// modified copy; reused so steady state allocates nothing).
    scratch: Vec<u8>,
    /// The slices of one `write_vectored` call, joined so they pass
    /// through the planned [`write`](Write::write) as one write.
    joined: Vec<u8>,
}

impl<S> FaultyStream<S> {
    /// Wrap `inner` with `plan`, recording fired faults into `log`.
    pub fn new(inner: S, plan: FaultPlan, log: FaultLog) -> FaultyStream<S> {
        FaultyStream {
            inner,
            read: DirState::new(plan.read),
            write: DirState::new(plan.write),
            log,
            scratch: Vec::new(),
            joined: Vec::new(),
        }
    }

    /// The wrapped transport.
    pub fn get_ref(&self) -> &S {
        &self.inner
    }

    /// The shared fault log.
    pub fn log(&self) -> &FaultLog {
        &self.log
    }
}

impl<S: Read> Read for FaultyStream<S> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if out.is_empty() {
            return self.inner.read(out);
        }
        // Fire every matured stall/disconnect before touching the inner
        // transport, then clamp the request so the next offset-anchored
        // fault lands exactly on its boundary.
        let mut want = out.len();
        while let Some(op) = self.read.peek() {
            match op {
                FaultOp::ReadStall { at, millis } if at <= self.read.offset => {
                    self.read.pop();
                    self.log.push(false, op);
                    std::thread::sleep(Duration::from_millis(millis as u64));
                }
                FaultOp::Disconnect { at } if at <= self.read.offset => {
                    self.read.pop();
                    self.log.push(false, op);
                    self.read.severed = true;
                }
                FaultOp::ReadStall { at, .. } | FaultOp::Disconnect { at } => {
                    want = want.min((at - self.read.offset) as usize);
                    break;
                }
                // Corruption is applied to delivered bytes below; it
                // never bounds the read size.
                FaultOp::CorruptByte { .. } | FaultOp::PartialWrite { .. } => break,
            }
        }
        if self.read.severed {
            return Ok(0);
        }
        let want = want.max(1).min(out.len());
        let n = self.inner.read(&mut out[..want])?;
        if n > 0 {
            let end = self.read.offset + n as u64;
            while let Some(op) = self.read.peek() {
                match op {
                    FaultOp::CorruptByte { at, xor } if at < end => {
                        self.read.pop();
                        if at >= self.read.offset {
                            out[(at - self.read.offset) as usize] ^= xor;
                            self.log.push(false, op);
                        }
                    }
                    // A stray write-side op in a read plan is inert.
                    FaultOp::PartialWrite { at, .. } if at < end => {
                        self.read.pop();
                        let _ = at;
                    }
                    _ => break,
                }
            }
            self.read.offset = end;
        }
        Ok(n)
    }
}

impl<S: Write> Write for FaultyStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return self.inner.write(buf);
        }
        if self.write.severed {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "injected disconnect",
            ));
        }
        let mut want = buf.len();
        // Only the first pending op can shape this write; later ops wait
        // for the offset to reach them. Nothing is popped or logged until
        // the inner write *succeeds*: a nonblocking transport returning
        // `WouldBlock` must leave every op pending so it fires on the
        // retry instead of being silently consumed.
        let mut partial_pending = false;
        if let Some(op) = self.write.peek() {
            match op {
                FaultOp::Disconnect { at } if at <= self.write.offset => {
                    self.write.pop();
                    self.log.push(true, op);
                    self.write.severed = true;
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionReset,
                        "injected disconnect",
                    ));
                }
                FaultOp::PartialWrite { at, max } if at <= self.write.offset => {
                    partial_pending = true;
                    want = want.min(max.max(1));
                }
                FaultOp::Disconnect { at } | FaultOp::PartialWrite { at, .. } => {
                    want = want.min((at - self.write.offset) as usize).max(1);
                }
                // Read-side ops in a write plan are inert; corruption is
                // applied to the accepted bytes below.
                FaultOp::ReadStall { .. } | FaultOp::CorruptByte { .. } => {}
            }
        }
        let want = want.max(1).min(buf.len());
        // Apply any corruption landing inside this write to a scratch
        // copy, so the caller's buffer is never mutated. The ops stay in
        // the plan for now — corrupted bytes past what the transport
        // accepts are re-corrupted identically on the retry.
        let end = self.write.offset + want as u64;
        let mut corrupted = false;
        let mut probe = self.write.next;
        while let Some(op) = self.write.ops.get(probe).copied() {
            if op.at() >= end {
                break;
            }
            if let FaultOp::CorruptByte { at, .. } = op {
                if at >= self.write.offset {
                    corrupted = true;
                    break;
                }
            }
            probe += 1;
        }
        let n = if corrupted {
            self.scratch.clear();
            self.scratch.extend_from_slice(&buf[..want]);
            let mut i = self.write.next;
            while let Some(op) = self.write.ops.get(i).copied() {
                if op.at() >= end {
                    break;
                }
                if let FaultOp::CorruptByte { at, xor } = op {
                    if at >= self.write.offset {
                        self.scratch[(at - self.write.offset) as usize] ^= xor;
                    }
                }
                i += 1;
            }
            let scratch = std::mem::take(&mut self.scratch);
            let r = self.inner.write(&scratch);
            self.scratch = scratch;
            r?
        } else {
            self.inner.write(&buf[..want])?
        };
        // The write landed: now retire the ops it consumed, bounded by the
        // bytes the transport actually accepted.
        let accepted_end = self.write.offset + n as u64;
        if partial_pending {
            if let Some(op) = self.write.pop() {
                self.log.push(true, op);
            }
        }
        while let Some(op) = self.write.peek() {
            match op {
                FaultOp::CorruptByte { at, xor } if at < accepted_end => {
                    self.write.pop();
                    let _ = xor;
                    if at >= self.write.offset {
                        self.log.push(true, op);
                    }
                }
                FaultOp::ReadStall { at, .. } if at < accepted_end => {
                    self.write.pop();
                    let _ = at;
                }
                _ => break,
            }
        }
        self.write.offset = accepted_end;
        Ok(n)
    }

    /// Joins the slices and sends them through the planned
    /// [`write`](Self::write): faults fire at the same byte offsets as
    /// for one `write` of those bytes, and a fault-injected connection
    /// issues the same multi-frame writes as a plain one.
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        let mut joined = std::mem::take(&mut self.joined);
        joined.clear();
        for b in bufs {
            joined.extend_from_slice(b);
        }
        let r = self.write(&joined);
        self.joined = joined;
        r
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// A transport that is either transparent or fault-injected, decided at
/// connection setup: the daemon compiles fault injection in permanently
/// and pays one enum discriminant test per I/O call when it is off.
///
/// Every `Write` method is forwarded, `write_vectored` included: std's
/// default sends only the first slice, which would split each batched
/// `writev` into one syscall per header and per body.
pub enum MaybeFaulty<S> {
    /// Pass-through (production path).
    Plain(S),
    /// Fault-injected (test/bench path).
    Faulty(Box<FaultyStream<S>>),
}

impl<S> MaybeFaulty<S> {
    /// Wrap `inner`: transparent when `plan` is `None`.
    pub fn new(inner: S, plan: Option<FaultPlan>, log: FaultLog) -> MaybeFaulty<S> {
        match plan {
            None => MaybeFaulty::Plain(inner),
            Some(p) => MaybeFaulty::Faulty(Box::new(FaultyStream::new(inner, p, log))),
        }
    }

    /// The wrapped transport.
    pub fn get_ref(&self) -> &S {
        match self {
            MaybeFaulty::Plain(s) => s,
            MaybeFaulty::Faulty(f) => f.get_ref(),
        }
    }
}

impl<S: Read> Read for MaybeFaulty<S> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        match self {
            MaybeFaulty::Plain(s) => s.read(out),
            MaybeFaulty::Faulty(f) => f.read(out),
        }
    }
}

impl<S: Write> Write for MaybeFaulty<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            MaybeFaulty::Plain(s) => s.write(buf),
            MaybeFaulty::Faulty(f) => f.write(buf),
        }
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        match self {
            MaybeFaulty::Plain(s) => s.write_vectored(bufs),
            MaybeFaulty::Faulty(f) => f.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            MaybeFaulty::Plain(s) => s.flush(),
            MaybeFaulty::Faulty(f) => f.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{write_frame, Frame, WriteBatch, MAX_WRITE_BATCH};
    use std::io::Cursor;

    fn drain(r: &mut impl Read) -> (Vec<u8>, Option<io::Error>) {
        let mut out = Vec::new();
        let mut chunk = [0u8; 7]; // odd size: exercises offset spans
        loop {
            match r.read(&mut chunk) {
                Ok(0) => return (out, None),
                Ok(n) => out.extend_from_slice(&chunk[..n]),
                Err(e) => return (out, Some(e)),
            }
        }
    }

    #[test]
    fn corruption_fires_at_the_exact_offset() {
        let data: Vec<u8> = (0u8..=99).collect();
        let plan = FaultPlan::new()
            .corrupt_read(10, 0xFF)
            .corrupt_read(63, 0x01);
        let log = FaultLog::new();
        let mut s = FaultyStream::new(Cursor::new(data.clone()), plan, log.clone());
        let (got, err) = drain(&mut s);
        assert!(err.is_none());
        let mut want = data;
        want[10] ^= 0xFF;
        want[63] ^= 0x01;
        assert_eq!(got, want);
        assert_eq!(log.direction(false).len(), 2);
    }

    #[test]
    fn read_disconnect_truncates_at_the_offset() {
        let data = vec![7u8; 100];
        let plan = FaultPlan::new().disconnect_read(40);
        let mut s = FaultyStream::new(Cursor::new(data), plan, FaultLog::new());
        let (got, err) = drain(&mut s);
        assert!(err.is_none(), "read disconnect is EOF, not an error");
        assert_eq!(got.len(), 40, "exactly the pre-disconnect bytes arrive");
    }

    #[test]
    fn write_faults_truncate_and_sever() {
        let plan = FaultPlan::new().partial_write(0, 3).disconnect_write(10);
        let mut s = FaultyStream::new(Vec::new(), plan, FaultLog::new());
        // First write is clamped to 3 bytes.
        assert_eq!(s.write(&[1u8; 8]).unwrap(), 3);
        // Next writes are clamped at the disconnect boundary, then fail.
        assert_eq!(s.write(&[2u8; 8]).unwrap(), 7);
        let err = s.write(&[3u8; 8]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        assert_eq!(s.get_ref().len(), 10);
    }

    #[test]
    fn write_corruption_modifies_a_copy_not_the_caller_buffer() {
        let plan = FaultPlan::new().corrupt_write(2, 0x80);
        let mut s = FaultyStream::new(Vec::new(), plan, FaultLog::new());
        let buf = [0u8; 6];
        let mut written = 0;
        while written < buf.len() {
            written += s.write(&buf[written..]).unwrap();
        }
        assert_eq!(buf, [0u8; 6], "caller buffer untouched");
        assert_eq!(s.get_ref().as_slice(), &[0, 0, 0x80, 0, 0, 0]);
    }

    #[test]
    fn seeded_plans_and_logs_are_reproducible() {
        for seed in [0u64, 1, 7, 0xDEAD_BEEF] {
            assert_eq!(FaultPlan::from_seed(seed), FaultPlan::from_seed(seed));
            let data = vec![0x5Au8; 200_000];
            let run = |seed: u64| {
                let log = FaultLog::new();
                let mut s = FaultyStream::new(
                    Cursor::new(data.clone()),
                    FaultPlan::from_seed(seed).read_half(),
                    log.clone(),
                );
                let (got, _) = drain(&mut s);
                (got, log.direction(false))
            };
            let (a_bytes, a_log) = run(seed);
            let (b_bytes, b_log) = run(seed);
            assert_eq!(a_bytes, b_bytes, "seed {seed}: delivered bytes differ");
            assert_eq!(a_log, b_log, "seed {seed}: fault sequences differ");
            assert!(!a_log.is_empty(), "seed {seed}: plan fired nothing");
        }
        assert_ne!(
            FaultPlan::from_seed(1),
            FaultPlan::from_seed(2),
            "distinct seeds produce distinct plans"
        );
    }

    #[test]
    fn write_faults_survive_wouldblock_and_fire_on_retry() {
        /// Refuses the first attempt at every offset, then accepts — a
        /// nonblocking socket with a momentarily full buffer.
        struct Congested {
            out: Vec<u8>,
            open: bool,
        }
        impl Write for Congested {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if !self.open {
                    self.open = true;
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "full"));
                }
                self.open = false;
                self.out.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let plan = FaultPlan::new().partial_write(0, 3).corrupt_write(5, 0x80);
        let log = FaultLog::new();
        let mut s = FaultyStream::new(
            Congested {
                out: Vec::new(),
                open: false,
            },
            plan,
            log.clone(),
        );
        let data = [0u8; 10];
        let mut written = 0;
        while written < data.len() {
            match s.write(&data[written..]) {
                Ok(n) => written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
                Err(e) => panic!("unexpected write error: {e}"),
            }
        }
        // Both faults fired exactly once despite every offset first
        // hitting WouldBlock: the truncation clamped the opening write
        // and the corruption landed at byte 5.
        assert_eq!(s.get_ref().out, [0, 0, 0, 0, 0, 0x80, 0, 0, 0, 0]);
        assert_eq!(log.direction(true).len(), 2);
    }

    /// Accepts everything, recording the shape of each call.
    #[derive(Default)]
    struct Recorder {
        out: Vec<u8>,
        /// Plain `write` calls.
        writes: usize,
        /// Slice count of each `write_vectored` call.
        vectored: Vec<usize>,
    }
    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.out.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.vectored.push(bufs.len());
            let before = self.out.len();
            for b in bufs {
                self.out.extend_from_slice(b);
            }
            Ok(self.out.len() - before)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A full batch of frames that each have a body (two slices apiece),
    /// and the bytes sequential `write_frame` calls would send.
    fn full_batch() -> (WriteBatch, Vec<u8>) {
        let mut batch = WriteBatch::new();
        let mut wire = Vec::new();
        for i in 0..MAX_WRITE_BATCH as u32 {
            let f = Frame::with_body(0x31, i, 0, vec![i as u8; 1 + i as usize]);
            write_frame(&mut wire, &f).unwrap();
            batch.push(f);
        }
        (batch, wire)
    }

    #[test]
    fn plain_forwards_a_batch_as_one_write_vectored() {
        let (mut batch, wire) = full_batch();
        let mut w = MaybeFaulty::new(Recorder::default(), None, FaultLog::new());
        let p = batch.flush(&mut w, |_| {}).unwrap();
        assert_eq!((p.frames_done, p.writes), (MAX_WRITE_BATCH, 1));
        let r = w.get_ref();
        assert_eq!(r.vectored, [2 * MAX_WRITE_BATCH], "one call, every slice");
        assert_eq!(r.writes, 0);
        assert_eq!(r.out, wire);
    }

    #[test]
    fn faulty_with_an_empty_plan_sends_a_batch_as_one_write() {
        let (mut batch, wire) = full_batch();
        let mut w = MaybeFaulty::new(Recorder::default(), Some(FaultPlan::new()), FaultLog::new());
        let p = batch.flush(&mut w, |_| {}).unwrap();
        assert_eq!((p.frames_done, p.writes), (MAX_WRITE_BATCH, 1));
        let r = w.get_ref();
        assert_eq!((r.writes, r.vectored.len()), (1, 0), "one inner write");
        assert_eq!(r.out, wire);
    }

    #[test]
    fn vectored_writes_fire_faults_at_the_offsets_plain_writes_do() {
        let plan = FaultPlan::new()
            .partial_write(20, 3)
            .corrupt_write(50, 0x80)
            .corrupt_write(200, 0x01);
        let (mut batch, wire) = full_batch();
        let log = FaultLog::new();
        let mut vectored = FaultyStream::new(Vec::new(), plan.clone(), log.clone());
        while !batch.is_empty() {
            batch.flush(&mut vectored, |_| {}).unwrap();
        }
        let plain_log = FaultLog::new();
        let mut plain = FaultyStream::new(Vec::new(), plan, plain_log.clone());
        let mut written = 0;
        while written < wire.len() {
            written += plain.write(&wire[written..]).unwrap();
        }
        let mut want = wire;
        want[50] ^= 0x80;
        want[200] ^= 0x01;
        assert_eq!(vectored.get_ref(), &want);
        assert_eq!(plain.get_ref(), &want);
        assert_eq!(log.direction(true), plain_log.direction(true));
        assert_eq!(log.direction(true).len(), 3);
    }

    #[test]
    fn drained_plan_is_transparent() {
        let plan = FaultPlan::new().corrupt_read(0, 0x01);
        let data = vec![0u8; 50];
        let mut s = FaultyStream::new(Cursor::new(data), plan, FaultLog::new());
        let (got, err) = drain(&mut s);
        assert!(err.is_none());
        assert_eq!(got[0], 0x01);
        assert!(got[1..].iter().all(|&b| b == 0), "tail untouched");
    }
}
