//! Session-frame codec for networked PBIO services.
//!
//! `pbio-serv` (and anything else that runs PBIO over a socket) speaks a
//! stream of fixed-header frames, one level *below* the PBIO record stream:
//! PBIO's own format/data messages ride inside frame bodies, while the
//! frame header carries session-protocol concerns (frame kind plus two
//! 32-bit arguments whose meaning the kind defines — channel ids, format
//! ids, status codes).
//!
//! ```text
//! frame := kind:u8  a:u32be  b:u32be  len:u32be  crc:u32be  body[len]
//! ```
//!
//! `crc` is a CRC-32 (IEEE) over the 13 header bytes that precede it plus
//! the body. The stream has no other redundancy, so without it a single
//! flipped bit in flight silently delivers a *wrong record* — the checksum
//! turns every corruption into a typed, counted [`FrameError::Corrupt`]
//! instead. It detects all single-byte errors and all burst errors up to
//! 32 bits, which covers the failure modes a TCP-borne stream (bad NIC,
//! proxy truncation, in-memory scribbles) realistically produces.
//!
//! Frame bodies are [`WireBuf`]s — shared immutable buffers — so a frame
//! queued to many connections is one allocation plus refcount bumps.
//! Writes are vectored: the header goes out in the same `writev` as the
//! (borrowed) body, and [`write_frames`] coalesces a batch of queued
//! frames into ~one syscall.
//!
//! A frame is checksummed **once per hop**, at memory speed ([`crate::crc`]).
//! The blocking writers encode each header on the stack just before the
//! write that cannot come back short. The nonblocking path cannot promise
//! that — a `writev` may stop anywhere and be retried many wakeups later —
//! so [`WriteBatch`] encodes a frame's header when the frame is pushed
//! and keeps the 17 bytes beside it: a resumed flush re-sends stored
//! bytes, it never sums the body again. [`encode_header`],
//! [`FrameHeader::parse`] and [`FrameHeader::verify`] are the only code
//! that knows the header layout.
//!
//! The codec is transport-agnostic over `std::io` streams and is
//! timeout-aware: with a read timeout armed on the underlying socket,
//! [`read_frame`] returns [`FrameError::Timeout`] *only* when it fires
//! before the first byte of a frame. Once a header byte has arrived the
//! codec keeps reading until the frame completes — senders write frames
//! atomically, so a partially received frame means bytes in flight, not an
//! idle peer — which keeps the stream from desynchronizing on a timeout.

use std::collections::VecDeque;
use std::fmt;
use std::io::{self, IoSlice, Read, Write};

use crate::buf::WireBuf;
use crate::metrics::net_metrics;

/// Size of the fixed frame header (kind + a + b + len + crc).
pub const FRAME_HEADER_SIZE: usize = 17;

/// Bytes of the header covered by the checksum (everything before it).
const CRC_PREFIX: usize = 13;

pub use crate::crc::{crc32, crc32_finish, crc32_update, CRC_INIT};

/// Upper bound on a frame body; larger lengths are rejected as corrupt
/// (protects the reader from allocating on a garbage length field).
pub const MAX_FRAME_BODY: usize = 64 << 20;

/// Most frames [`write_frames`] and [`WriteBatch`] coalesce into one
/// vectored write. Two iovecs per frame (header + body) keeps the batch
/// within a typical `IOV_MAX` by a wide margin while still amortizing the
/// syscall.
pub const MAX_WRITE_BATCH: usize = 16;

/// One session frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Frame kind; meanings are assigned by the protocol layer above.
    pub kind: u8,
    /// First kind-defined argument.
    pub a: u32,
    /// Second kind-defined argument.
    pub b: u32,
    /// Frame body — shared, so queueing one frame to many peers is
    /// refcount bumps, not copies.
    pub body: WireBuf,
}

impl Frame {
    /// A frame with an empty body.
    pub fn control(kind: u8, a: u32, b: u32) -> Frame {
        Frame {
            kind,
            a,
            b,
            body: WireBuf::empty(),
        }
    }

    /// A frame with a body.
    pub fn with_body(kind: u8, a: u32, b: u32, body: impl Into<WireBuf>) -> Frame {
        Frame {
            kind,
            a,
            b,
            body: body.into(),
        }
    }
}

/// The fixed-size part of a frame, decoded. [`read_frame_header`] +
/// [`read_frame_body`] let callers place the body in storage of their
/// choosing (a pooled scratch buffer, a reused receive buffer) instead of
/// a fresh allocation per frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Frame kind.
    pub kind: u8,
    /// First kind-defined argument.
    pub a: u32,
    /// Second kind-defined argument.
    pub b: u32,
    /// Body length in bytes (already validated against [`MAX_FRAME_BODY`]).
    pub len: usize,
    /// Checksum announced by the sender (CRC-32 over the 13 preceding
    /// header bytes plus the body); verified when the body is read.
    pub crc: u32,
}

impl FrameHeader {
    /// Decode the 17 header bytes ([`encode_header`]'s inverse). A length
    /// field above [`MAX_FRAME_BODY`] is [`FrameError::TooLarge`] — the
    /// error carries the announced length, so a caller that must skip the
    /// body still can.
    pub fn parse(h: &[u8; FRAME_HEADER_SIZE]) -> Result<FrameHeader, FrameError> {
        let word = |at: usize| u32::from_be_bytes([h[at], h[at + 1], h[at + 2], h[at + 3]]);
        let len = word(9) as usize;
        if len > MAX_FRAME_BODY {
            return Err(FrameError::TooLarge(len));
        }
        Ok(FrameHeader {
            kind: h[0],
            a: word(1),
            b: word(5),
            len,
            crc: word(13),
        })
    }

    /// Check `body` against the checksum this header announced:
    /// [`FrameError::Corrupt`] unless header fields and body are exactly
    /// what the sender summed. One pass over the body.
    pub fn verify(&self, body: &[u8]) -> Result<(), FrameError> {
        let sent = encode_header(self.kind, self.a, self.b, body);
        let actual = u32::from_be_bytes([sent[13], sent[14], sent[15], sent[16]]);
        if actual != self.crc || body.len() != self.len {
            return Err(FrameError::Corrupt {
                expected: self.crc,
                actual,
            });
        }
        Ok(())
    }
}

/// Errors surfaced by the frame codec.
#[derive(Debug)]
pub enum FrameError {
    /// The socket's read timeout fired while waiting for a frame to begin.
    Timeout,
    /// The peer closed the connection cleanly (EOF between frames).
    Closed,
    /// The header announced a body longer than [`MAX_FRAME_BODY`].
    TooLarge(usize),
    /// The frame's checksum did not match its header + body bytes: the
    /// stream was corrupted in flight (or desynchronized). The frame must
    /// not be interpreted.
    Corrupt {
        /// Checksum the sender announced.
        expected: u32,
        /// Checksum of the bytes actually received.
        actual: u32,
    },
    /// Connection truncated mid-frame, or any other I/O failure.
    Io(io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Timeout => write!(f, "timed out waiting for a frame"),
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::TooLarge(n) => {
                write!(
                    f,
                    "frame body of {n} bytes exceeds the {MAX_FRAME_BODY} byte limit"
                )
            }
            FrameError::Corrupt { expected, actual } => {
                write!(
                    f,
                    "frame checksum mismatch (announced {expected:#010x}, computed {actual:#010x})"
                )
            }
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> FrameError {
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => FrameError::Timeout,
            _ => FrameError::Io(e),
        }
    }
}

/// True for the error kinds a read timeout produces (platform-dependent).
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Fill `buf` completely, retrying through timeouts and interrupts.
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> Result<(), FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted || is_timeout(&e) => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

/// Encode a frame's 17 header bytes: `kind a b len crc`, with `crc` the
/// CRC-32 of the 13 bytes before it plus `body` — the one pass over the
/// body a sender makes.
pub fn encode_header(kind: u8, a: u32, b: u32, body: &[u8]) -> [u8; FRAME_HEADER_SIZE] {
    debug_assert!(body.len() <= MAX_FRAME_BODY);
    let mut h = [0u8; FRAME_HEADER_SIZE];
    h[0] = kind;
    h[1..5].copy_from_slice(&a.to_be_bytes());
    h[5..9].copy_from_slice(&b.to_be_bytes());
    h[9..13].copy_from_slice(&(body.len() as u32).to_be_bytes());
    let crc = crc32_finish(crc32_update(crc32_update(CRC_INIT, &h[..CRC_PREFIX]), body));
    h[13..17].copy_from_slice(&crc.to_be_bytes());
    h
}

/// Drive `write_vectored` until every buffer is fully written (the stable
/// subset of `Write::write_all_vectored`). Degrades gracefully on writers
/// whose `write_vectored` only takes the first buffer per call.
fn write_all_vectored(w: &mut impl Write, mut bufs: &mut [IoSlice<'_>]) -> io::Result<()> {
    // Trim leading empty slices so the remaining-length check is exact.
    IoSlice::advance_slices(&mut bufs, 0);
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "failed to write whole frame batch",
                ))
            }
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Serialize `frame` to `w`: one vectored write of a stack header plus the
/// borrowed body — no per-frame allocation, and still atomic at frame
/// granularity when each frame is written under the same lock.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    write_frame_raw(w, frame.kind, frame.a, frame.b, &frame.body)
}

/// [`write_frame`] without a `Frame`: send-side hot paths (a client
/// publishing its own native bytes) borrow the body straight from the
/// caller, so a send allocates nothing at all.
pub fn write_frame_raw(
    w: &mut impl Write,
    kind: u8,
    a: u32,
    b: u32,
    body: &[u8],
) -> io::Result<()> {
    let h = encode_header(kind, a, b, body);
    let mut slices = [IoSlice::new(&h), IoSlice::new(body)];
    write_all_vectored(w, &mut slices)?;
    let m = net_metrics();
    m.writes.inc();
    m.frames_out.inc();
    m.bytes_out.add((FRAME_HEADER_SIZE + body.len()) as u64);
    Ok(())
}

/// Write a batch of frames, coalescing up to [`MAX_WRITE_BATCH`] frames
/// (headers on the stack, bodies borrowed) into each vectored write — a
/// hot connection pays ~one syscall per batch instead of per frame.
/// Returns the total number of bytes written.
pub fn write_frames(w: &mut impl Write, frames: &[Frame]) -> io::Result<usize> {
    let m = net_metrics();
    let mut total = 0;
    for chunk in frames.chunks(MAX_WRITE_BATCH) {
        let mut headers = [[0u8; FRAME_HEADER_SIZE]; MAX_WRITE_BATCH];
        for (h, frame) in headers.iter_mut().zip(chunk) {
            *h = encode_header(frame.kind, frame.a, frame.b, &frame.body);
        }
        let mut slices = [IoSlice::new(&[]); 2 * MAX_WRITE_BATCH];
        let mut n = 0;
        let mut chunk_bytes = 0;
        for (h, frame) in headers.iter().zip(chunk) {
            slices[n] = IoSlice::new(h);
            n += 1;
            if !frame.body.is_empty() {
                slices[n] = IoSlice::new(&frame.body);
                n += 1;
            }
            chunk_bytes += FRAME_HEADER_SIZE + frame.body.len();
        }
        write_all_vectored(w, &mut slices[..n])?;
        total += chunk_bytes;
        m.writes.inc();
        m.write_batch.record(chunk.len() as u64);
        m.frames_out.add(chunk.len() as u64);
        m.bytes_out.add(chunk_bytes as u64);
    }
    Ok(total)
}

/// Read and decode one frame header from `r`.
///
/// With a read timeout armed on `r`, returns [`FrameError::Timeout`] if it
/// fires before a frame begins, and [`FrameError::Closed`] on EOF at a
/// frame boundary. Once the first byte has arrived the frame is read to
/// completion, so a mid-header EOF is an [`FrameError::Io`] error.
pub fn read_frame_header(r: &mut impl Read) -> Result<FrameHeader, FrameError> {
    // First byte separately: a timeout or EOF *here* is an idle peer or a
    // clean close, not a protocol error.
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Err(FrameError::Closed),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if is_timeout(&e) => return Err(FrameError::Timeout),
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let mut h = [0u8; FRAME_HEADER_SIZE];
    h[0] = first[0];
    read_full(r, &mut h[1..])?;
    let header = FrameHeader::parse(&h)?;
    let m = net_metrics();
    m.frames_in.inc();
    m.bytes_in.add(FRAME_HEADER_SIZE as u64);
    Ok(header)
}

/// Read and throw away the `len`-byte body that follows a
/// [`read_frame_header`] — the recovery path for a frame the session
/// refuses to buffer (e.g. one whose announced length exceeds the
/// receiver's budget): the stream stays in sync without the receiver
/// ever allocating proportionally to the hostile length field.
///
/// Timeouts are retried only while the drain makes progress. A long run
/// of zero-progress timeouts means the announced bytes are not coming —
/// a desynced stream (the length field itself was damaged) or a stalled
/// hostile peer — and the drain gives up with [`FrameError::Timeout`] so
/// the caller can tear the connection down instead of blocking forever.
pub fn discard_frame_body(r: &mut impl Read, len: usize) -> Result<(), FrameError> {
    const STALL_LIMIT: u32 = 20;
    let mut chunk = [0u8; 4096];
    let mut remaining = len;
    let mut stalled = 0u32;
    while remaining > 0 {
        let want = remaining.min(chunk.len());
        match r.read(&mut chunk[..want]) {
            Ok(0) => {
                return Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                )))
            }
            Ok(n) => {
                remaining -= n;
                stalled = 0;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if is_timeout(&e) => {
                stalled += 1;
                if stalled >= STALL_LIMIT {
                    return Err(FrameError::Timeout);
                }
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    net_metrics().bytes_in.add(len as u64);
    Ok(())
}

/// Read the body announced by `header` (from [`read_frame_header`]) into
/// `buf` (cleared, then filled to exactly `header.len`; its capacity is
/// reused), then verify the frame's checksum.
///
/// The length is re-validated against [`MAX_FRAME_BODY`] here, *before*
/// any allocation, so the bound holds even for callers that construct a
/// [`FrameHeader`] themselves rather than going through
/// [`read_frame_header`] — a hostile 4-byte length field can never drive
/// a proportional allocation.
///
/// The body is read through `Read::take` + `read_to_end` into the cleared
/// vector, so reused capacity is *not* redundantly zero-filled before being
/// overwritten — on the steady-state receive path that removed a memset of
/// every frame body. Timeouts and interrupts mid-body are retried just as
/// [`read_full`] would: partial data read before the error stays appended
/// and the `take` limit accounts for it.
pub fn read_frame_body(
    r: &mut impl Read,
    header: &FrameHeader,
    buf: &mut Vec<u8>,
) -> Result<(), FrameError> {
    let len = header.len;
    if len > MAX_FRAME_BODY {
        return Err(FrameError::TooLarge(len));
    }
    buf.clear();
    if len > 0 {
        // +1 so the final length-check read in `read_to_end` lands in spare
        // capacity instead of triggering an amortized (doubling) grow when
        // the capacity is exactly `len`.
        buf.reserve(len + 1);
        let mut take = Read::take(r, len as u64);
        loop {
            match take.read_to_end(buf) {
                Ok(_) if buf.len() >= len => break,
                Ok(_) => {
                    // `read_to_end` returned before the limit: inner EOF.
                    return Err(FrameError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-frame",
                    )));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted || is_timeout(&e) => continue,
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
    }
    let m = net_metrics();
    m.bytes_in.add(len as u64);
    header.verify(buf).inspect_err(|_| m.frames_corrupt.inc())
}

/// Read one frame, placing its body in `buf` — the steady-state receive
/// path: callers that cycle `buf` through a pool (or just keep it) decode
/// an unbounded frame stream with no per-frame allocation.
pub fn read_frame_into(r: &mut impl Read, buf: &mut Vec<u8>) -> Result<FrameHeader, FrameError> {
    let header = read_frame_header(r)?;
    read_frame_body(r, &header, buf)?;
    Ok(header)
}

/// Read one frame from `r` into an owned [`Frame`] (allocates a fresh
/// shared body per call; hot receive loops use [`read_frame_into`]).
///
/// Timeout semantics are those of [`read_frame_header`].
pub fn read_frame(r: &mut impl Read) -> Result<Frame, FrameError> {
    let header = read_frame_header(r)?;
    let mut body = Vec::new();
    read_frame_body(r, &header, &mut body)?;
    Ok(Frame {
        kind: header.kind,
        a: header.a,
        b: header.b,
        body: WireBuf::from(body),
    })
}

// ---------------------------------------------------------------------------
// Nonblocking-path codec: incremental decode + resumable batched writes.

/// Read-side scratch size for [`FrameDecoder::fill`] — one `read(2)` pulls
/// up to this much off the socket per call.
const DECODE_SCRATCH: usize = 64 * 1024;

/// Accumulation threshold past which the decoder compacts its buffer by
/// memmoving unconsumed bytes to the front rather than letting the
/// consumed prefix grow without bound.
const COMPACT_THRESHOLD: usize = 16 * 1024;

/// Incremental frame decoder for nonblocking streams.
///
/// The blocking read path ([`read_frame`]) can simply block until a frame
/// completes; a readiness loop cannot — a wakeup delivers *some* bytes,
/// which may be half a header, three frames and a tail, or the middle of
/// a body. `FrameDecoder` owns that reassembly: [`fill`](Self::fill)
/// moves whatever the socket has into an internal buffer, and
/// [`next`](Self::next) yields complete frames from it until it runs dry.
///
/// Error recovery mirrors the blocking path's session semantics: a
/// [`FrameError::Corrupt`] frame is consumed (the stream stays in sync —
/// framing is still trustworthy, the CRC just failed) and decoding
/// continues with the next frame; a [`FrameError::TooLarge`] header arms
/// an internal skip state so the announced body is discarded as it
/// arrives without ever being buffered — the nonblocking equivalent of
/// [`discard_frame_body`].
#[derive(Debug)]
pub struct FrameDecoder {
    scratch: Box<[u8]>,
    buf: Vec<u8>,
    /// Consumed prefix of `buf`.
    pos: usize,
    /// Remaining body bytes of an oversized frame to discard on arrival.
    skip: u64,
}

impl Default for FrameDecoder {
    fn default() -> FrameDecoder {
        FrameDecoder::new()
    }
}

impl FrameDecoder {
    /// A fresh decoder (one 64 KiB read scratch, empty reassembly buffer).
    pub fn new() -> FrameDecoder {
        FrameDecoder {
            scratch: vec![0u8; DECODE_SCRATCH].into_boxed_slice(),
            buf: Vec::new(),
            pos: 0,
            skip: 0,
        }
    }

    /// Bytes buffered but not yet consumed by [`next`](Self::next).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Pull one `read`'s worth of bytes from `r` into the decoder.
    ///
    /// Returns the byte count on success — `Ok(0)` means EOF. A
    /// `WouldBlock` error propagates (the readiness loop's "drained for
    /// now" signal); `Interrupted` is retried internally. Bytes owed to
    /// an armed oversized-frame skip are discarded here and still count
    /// toward the return value.
    pub fn fill(&mut self, r: &mut impl Read) -> io::Result<usize> {
        let n = loop {
            match r.read(&mut self.scratch) {
                Ok(n) => break n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        };
        if n == 0 {
            return Ok(0);
        }
        let mut fresh = &self.scratch[..n];
        if self.skip > 0 {
            let discard = (self.skip).min(fresh.len() as u64) as usize;
            self.skip -= discard as u64;
            net_metrics().bytes_in.add(discard as u64);
            fresh = &fresh[discard..];
        }
        if !fresh.is_empty() {
            if self.pos == self.buf.len() {
                self.buf.clear();
                self.pos = 0;
            } else if self.pos >= COMPACT_THRESHOLD {
                self.buf.drain(..self.pos);
                self.pos = 0;
            }
            self.buf.extend_from_slice(fresh);
        }
        Ok(n)
    }

    /// Decode the next complete frame out of the buffered bytes.
    ///
    /// `Ok(None)` means more bytes are needed ([`fill`](Self::fill)
    /// again on the next readiness event). `Ok(Some(_))` borrows the body
    /// from the decoder's buffer — process it before the next call.
    /// `Err(Corrupt)`/`Err(TooLarge)` consume the offending frame and
    /// leave the decoder in sync for the one after it.
    // Not an Iterator: items borrow from the decoder's buffer (lending),
    // and errors are in-band — the signature cannot be `Option<Item>`.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<(FrameHeader, &[u8])>, FrameError> {
        let avail = self.buf.len() - self.pos;
        if avail < FRAME_HEADER_SIZE {
            return Ok(None);
        }
        let h: &[u8; FRAME_HEADER_SIZE] = self.buf[self.pos..self.pos + FRAME_HEADER_SIZE]
            .try_into()
            .expect("slice is header-sized");
        let header = match FrameHeader::parse(h) {
            Ok(header) => header,
            Err(FrameError::TooLarge(len)) => {
                // Consume the header plus any body bytes already buffered
                // and arm the skip for the rest, so a hostile length never
                // drives a proportional allocation (same bound as
                // read_frame_body).
                let buffered_body = (avail - FRAME_HEADER_SIZE).min(len);
                self.pos += FRAME_HEADER_SIZE + buffered_body;
                self.skip = (len - buffered_body) as u64;
                net_metrics()
                    .bytes_in
                    .add((FRAME_HEADER_SIZE + buffered_body) as u64);
                return Err(FrameError::TooLarge(len));
            }
            Err(e) => return Err(e),
        };
        if avail < FRAME_HEADER_SIZE + header.len {
            return Ok(None);
        }
        let body_start = self.pos + FRAME_HEADER_SIZE;
        let checked = header.verify(&self.buf[body_start..body_start + header.len]);
        self.pos += FRAME_HEADER_SIZE + header.len;
        let m = net_metrics();
        m.frames_in.inc();
        m.bytes_in.add((FRAME_HEADER_SIZE + header.len) as u64);
        checked.inspect_err(|_| m.frames_corrupt.inc())?;
        Ok(Some((
            header,
            &self.buf[body_start..body_start + header.len],
        )))
    }
}

/// What one [`WriteBatch::flush`] call accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushProgress {
    /// Frames written to completion, each handed to the caller's
    /// `on_done` in queue order.
    pub frames_done: usize,
    /// Bytes written by this call (partial frames included).
    pub bytes: usize,
    /// Successful `write_vectored` calls this flush made — on a socket,
    /// `writev` syscalls.
    pub writes: usize,
    /// The socket refused further bytes (`WouldBlock`): the caller should
    /// arm writable interest and resume on the next wakeup.
    pub blocked: bool,
}

/// A frame staged for a nonblocking write, with its header bytes.
#[derive(Debug)]
struct Staged {
    header: [u8; FRAME_HEADER_SIZE],
    frame: Frame,
}

/// The frames one nonblocking connection is currently writing: at most
/// [`MAX_WRITE_BATCH`] of them, each with the header encoded when it was
/// pushed, plus how far into the front frame the socket has got.
///
/// [`push`](Self::push) is the only place the nonblocking path encodes a
/// header — and therefore the only place it reads a body. Call it on the
/// thread that flushes, after the frame has left whatever queue fed it:
/// never under that queue's lock, and never for a frame the queue may
/// still discard. [`flush`](Self::flush) then issues batched `writev`s
/// (the shape of [`write_frames`]) and survives `WouldBlock` at any byte
/// boundary — mid-header included — because what remains to be sent is
/// stored bytes, not something to recompute.
#[derive(Debug, Default)]
pub struct WriteBatch {
    staged: VecDeque<Staged>,
    /// Bytes of the front frame (header first) already on the wire.
    offset: usize,
}

impl WriteBatch {
    /// An empty batch.
    pub fn new() -> WriteBatch {
        WriteBatch::default()
    }

    /// Nothing staged: every pushed frame is fully on the wire.
    pub fn is_empty(&self) -> bool {
        self.staged.is_empty()
    }

    /// The batch holds [`MAX_WRITE_BATCH`] frames; flush before pushing.
    pub fn is_full(&self) -> bool {
        self.staged.len() >= MAX_WRITE_BATCH
    }

    /// Stage `frame` behind those already here, checksumming it now. Legal
    /// while the front frame is partly written.
    ///
    /// # Panics
    ///
    /// When the batch [`is_full`](Self::is_full).
    pub fn push(&mut self, frame: Frame) {
        assert!(!self.is_full(), "WriteBatch holds MAX_WRITE_BATCH frames");
        let header = encode_header(frame.kind, frame.a, frame.b, &frame.body);
        self.staged.push_back(Staged { header, frame });
    }

    /// Write as much of the batch as `w` accepts. Each frame whose last
    /// byte went out is removed and handed to `on_done`, oldest first. On
    /// `WouldBlock` the call returns with `blocked` set and the batch
    /// remembers where to resume; any other error is returned as is and
    /// the connection should be dropped.
    pub fn flush(
        &mut self,
        w: &mut impl Write,
        mut on_done: impl FnMut(Frame),
    ) -> io::Result<FlushProgress> {
        let m = net_metrics();
        let mut progress = FlushProgress {
            frames_done: 0,
            bytes: 0,
            writes: 0,
            blocked: false,
        };
        while !self.staged.is_empty() {
            let mut slices = [IoSlice::new(&[]); 2 * MAX_WRITE_BATCH];
            let mut n = 0;
            // The front frame enters the iovec list at its resume offset,
            // which may fall inside the header or the body.
            let mut skip = self.offset;
            for Staged { header, frame } in &self.staged {
                let hdr = &header[skip.min(FRAME_HEADER_SIZE)..];
                let body = &frame.body[skip.saturating_sub(FRAME_HEADER_SIZE)..];
                skip = 0;
                for part in [hdr, body] {
                    if !part.is_empty() {
                        slices[n] = IoSlice::new(part);
                        n += 1;
                    }
                }
            }
            let written = match w.write_vectored(&slices[..n]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "failed to write whole frame batch",
                    ))
                }
                Ok(written) => written,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    progress.blocked = true;
                    break;
                }
                Err(e) => return Err(e),
            };
            progress.bytes += written;
            progress.writes += 1;
            m.writes.inc();
            m.bytes_out.add(written as u64);
            // Attribute the written bytes to frames: those fully covered
            // are finished; the remainder is the new front frame's offset.
            self.offset += written;
            let mut fin = 0u64;
            while let Some(front) = self.staged.front() {
                let size = FRAME_HEADER_SIZE + front.frame.body.len();
                if self.offset < size {
                    break;
                }
                self.offset -= size;
                fin += 1;
                let done = self.staged.pop_front().expect("front was just seen");
                on_done(done.frame);
            }
            if fin > 0 {
                m.frames_out.add(fin);
                m.write_batch.record(fin);
                progress.frames_done += fin as usize;
            }
        }
        Ok(progress)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn round_trip() {
        let frames = [
            Frame::control(0x10, 7, 9),
            Frame::with_body(0x22, 0, u32::MAX, b"payload".to_vec()),
            Frame::with_body(0x01, 1, 2, vec![0u8; 100_000]),
        ];
        let mut wire = Vec::new();
        for f in &frames {
            write_frame(&mut wire, f).unwrap();
        }
        let mut r = Cursor::new(wire);
        for f in &frames {
            assert_eq!(&read_frame(&mut r).unwrap(), f);
        }
        assert!(matches!(read_frame(&mut r), Err(FrameError::Closed)));
    }

    #[test]
    fn batched_write_is_byte_identical_to_sequential() {
        // More frames than one batch, mixed control/body, so the chunking
        // and empty-body iovec elision paths are all exercised.
        let mut frames = Vec::new();
        for i in 0..(MAX_WRITE_BATCH as u32 * 2 + 3) {
            if i % 3 == 0 {
                frames.push(Frame::control(0x30, i, i * 2));
            } else {
                frames.push(Frame::with_body(0x31, i, 0, vec![i as u8; i as usize]));
            }
        }
        let mut sequential = Vec::new();
        for f in &frames {
            write_frame(&mut sequential, f).unwrap();
        }
        let mut batched = Vec::new();
        let n = write_frames(&mut batched, &frames).unwrap();
        assert_eq!(batched, sequential);
        assert_eq!(n, batched.len());
        // And the batch decodes back to the same frames.
        let mut r = Cursor::new(batched);
        for f in &frames {
            assert_eq!(&read_frame(&mut r).unwrap(), f);
        }
    }

    #[test]
    fn write_vectored_partial_writes_are_completed() {
        /// Writes at most 5 bytes of the first buffer per call: it
        /// implements only `write`, so std's default `write_vectored`
        /// hands it the first non-empty slice alone — the shape
        /// `write_all_vectored` must degrade to.
        struct Trickle(Vec<u8>);
        impl Write for Trickle {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                let n = buf.len().min(5);
                self.0.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let frame = Frame::with_body(0x11, 1, 2, b"a somewhat longer body".to_vec());
        let mut t = Trickle(Vec::new());
        write_frame(&mut t, &frame).unwrap();
        let mut r = Cursor::new(t.0);
        assert_eq!(read_frame(&mut r).unwrap(), frame);
    }

    #[test]
    fn read_into_reuses_the_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::with_body(0x21, 3, 4, vec![7u8; 64])).unwrap();
        write_frame(&mut wire, &Frame::with_body(0x22, 5, 6, vec![9u8; 8])).unwrap();
        let mut r = Cursor::new(wire);
        let mut buf = Vec::new();
        let h1 = read_frame_into(&mut r, &mut buf).unwrap();
        assert_eq!((h1.kind, h1.a, h1.b, h1.len), (0x21, 3, 4, 64));
        assert_eq!(buf, vec![7u8; 64]);
        let cap = buf.capacity();
        let h2 = read_frame_into(&mut r, &mut buf).unwrap();
        assert_eq!((h2.kind, h2.len), (0x22, 8));
        assert_eq!(buf, vec![9u8; 8]);
        assert_eq!(buf.capacity(), cap, "smaller body reuses the allocation");
    }

    #[test]
    fn body_read_retries_through_mid_body_timeouts() {
        /// Yields the wire three bytes at a time with a timeout between
        /// every chunk, as a socket under load would.
        struct Stutter {
            data: Vec<u8>,
            pos: usize,
            ready: bool,
        }
        impl Read for Stutter {
            fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
                if !self.ready {
                    self.ready = true;
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "timeout"));
                }
                self.ready = false;
                let n = out.len().min(3).min(self.data.len() - self.pos);
                out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
                self.pos += n;
                Ok(n)
            }
        }
        let frame = Frame::with_body(0x21, 1, 2, (0u8..100).collect::<Vec<u8>>());
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).unwrap();
        let mut r = Stutter {
            data: wire,
            pos: 0,
            ready: false,
        };
        let mut buf = Vec::new();
        // The header's first byte surfaces the timeout (idle peer)…
        assert!(matches!(
            read_frame_into(&mut r, &mut buf),
            Err(FrameError::Timeout)
        ));
        // …after which the frame reads to completion through every
        // mid-header and mid-body timeout.
        let h = read_frame_into(&mut r, &mut buf).unwrap();
        assert_eq!((h.kind, h.len), (0x21, 100));
        assert_eq!(buf, (0u8..100).collect::<Vec<u8>>());
    }

    #[test]
    fn body_reads_leave_no_stale_bytes() {
        // A big body then a small one through the same buffer: the second
        // read must end at exactly `len` with the first frame's bytes gone.
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::with_body(0x21, 0, 0, vec![0xAAu8; 300])).unwrap();
        write_frame(&mut wire, &Frame::with_body(0x22, 0, 0, vec![0x55u8; 5])).unwrap();
        write_frame(&mut wire, &Frame::control(0x23, 0, 0)).unwrap();
        let mut r = Cursor::new(wire);
        let mut buf = Vec::new();
        read_frame_into(&mut r, &mut buf).unwrap();
        assert_eq!(buf, vec![0xAAu8; 300]);
        read_frame_into(&mut r, &mut buf).unwrap();
        assert_eq!(buf, vec![0x55u8; 5]);
        let h = read_frame_into(&mut r, &mut buf).unwrap();
        assert_eq!(h.len, 0);
        assert!(buf.is_empty(), "zero-length body clears the buffer");
    }

    #[test]
    fn oversized_length_rejected() {
        let mut wire = Vec::new();
        wire.push(0x10);
        wire.extend_from_slice(&0u32.to_be_bytes());
        wire.extend_from_slice(&0u32.to_be_bytes());
        wire.extend_from_slice(&(MAX_FRAME_BODY as u32 + 1).to_be_bytes());
        wire.extend_from_slice(&0u32.to_be_bytes());
        let mut r = Cursor::new(wire);
        assert!(matches!(read_frame(&mut r), Err(FrameError::TooLarge(_))));
    }

    #[test]
    fn oversized_length_rejected_before_any_allocation_in_body_read() {
        // A caller that hand-builds a header cannot drive an allocation:
        // the bound is re-checked inside `read_frame_body` itself.
        let header = FrameHeader {
            kind: 0x10,
            a: 0,
            b: 0,
            len: usize::MAX,
            crc: 0,
        };
        let mut buf = Vec::new();
        let mut r = Cursor::new(Vec::new());
        assert!(matches!(
            read_frame_body(&mut r, &header, &mut buf),
            Err(FrameError::TooLarge(_))
        ));
        assert_eq!(buf.capacity(), 0, "rejected before reserving");
    }

    /// Body sizes on both sides of every checksum-kernel boundary: empty,
    /// shorter than a 16-byte block, one short of / exactly / one past the
    /// folding kernel's 64-byte minimum, several folds plus a tail, and
    /// the benchmark's 10 KB record.
    const BODY_SIZES: [usize; 7] = [0, 13, 63, 64, 65, 300, 10_240];

    #[test]
    fn golden_wire_image_is_unchanged() {
        // The bytes the commit before the checksum kernels changed wrote
        // for this frame (and `zlib.crc32` agrees): old peers, capture
        // files and segment logs stay readable only while this holds.
        let mut wire = Vec::new();
        write_frame_raw(&mut wire, 0x21, 7, 9, b"123456789").unwrap();
        let hex: String = wire.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, "21000000070000000900000009a90eb485313233343536373839");
    }

    #[test]
    fn header_parse_inverts_encode_and_verify_checks_every_field() {
        let body = b"some body";
        let h = encode_header(0x21, 7, u32::MAX, body);
        let header = FrameHeader::parse(&h).unwrap();
        assert_eq!(
            (header.kind, header.a, header.b, header.len),
            (0x21, 7, u32::MAX, body.len())
        );
        header.verify(body).unwrap();
        for bad in [
            FrameHeader {
                kind: 0x22,
                ..header
            },
            FrameHeader { a: 8, ..header },
            FrameHeader { b: 0, ..header },
            FrameHeader {
                crc: !header.crc,
                ..header
            },
        ] {
            assert!(matches!(bad.verify(body), Err(FrameError::Corrupt { .. })));
        }
        assert!(matches!(
            header.verify(&body[1..]),
            Err(FrameError::Corrupt { .. })
        ));
        let mut oversized = h;
        oversized[9..13].copy_from_slice(&(MAX_FRAME_BODY as u32 + 1).to_be_bytes());
        assert!(matches!(
            FrameHeader::parse(&oversized),
            Err(FrameError::TooLarge(n)) if n == MAX_FRAME_BODY + 1
        ));
    }

    #[test]
    fn corrupted_byte_is_detected_anywhere_in_the_frame() {
        for size in BODY_SIZES {
            let frame =
                Frame::with_body(0x21, 7, 9, (0..size).map(|i| i as u8).collect::<Vec<u8>>());
            let mut wire = Vec::new();
            write_frame(&mut wire, &frame).unwrap();
            // Flip one byte at every offset: header corruption surfaces as
            // Corrupt or TooLarge (when the length field inflates past the
            // cursor's EOF, as Io); body corruption is always Corrupt. No
            // offset ever yields a silently different frame.
            for i in 0..wire.len() {
                let mut bad = wire.clone();
                bad[i] ^= 0x40;
                let mut r = Cursor::new(bad);
                match read_frame(&mut r) {
                    Ok(f) => panic!("size {size}: corruption at byte {i} went undetected: {f:?}"),
                    Err(FrameError::Corrupt { .. }) => {}
                    Err(FrameError::TooLarge(_) | FrameError::Io(_) | FrameError::Closed)
                        if i < FRAME_HEADER_SIZE => {}
                    Err(e) => {
                        panic!("size {size}: unexpected error for corruption at byte {i}: {e}")
                    }
                }
            }
            // The pristine wire still decodes.
            let mut r = Cursor::new(wire);
            assert_eq!(read_frame(&mut r).unwrap(), frame);
        }
    }

    #[test]
    fn discard_skips_the_body_and_resyncs() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::with_body(0x21, 1, 2, vec![0xEE; 5000])).unwrap();
        write_frame(&mut wire, &Frame::control(0x22, 3, 4)).unwrap();
        let mut r = Cursor::new(wire);
        let h = read_frame_header(&mut r).unwrap();
        assert_eq!(h.len, 5000);
        discard_frame_body(&mut r, h.len).unwrap();
        let next = read_frame(&mut r).unwrap();
        assert_eq!((next.kind, next.a, next.b), (0x22, 3, 4));
    }

    #[test]
    fn truncated_mid_frame_is_io_error() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::with_body(0x11, 1, 2, b"abcdef".to_vec())).unwrap();
        wire.truncate(wire.len() - 3);
        let mut r = Cursor::new(wire);
        assert!(matches!(read_frame(&mut r), Err(FrameError::Io(_))));
    }

    #[test]
    fn timeout_maps_to_typed_error() {
        struct TimeoutReader;
        impl Read for TimeoutReader {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::new(
                    std::io::ErrorKind::WouldBlock,
                    "timeout",
                ))
            }
        }
        assert!(matches!(
            read_frame(&mut TimeoutReader),
            Err(FrameError::Timeout)
        ));
    }

    /// Yields at most `step` bytes per read — a socket delivering a frame
    /// stream in arbitrary fragments.
    struct Dribble {
        data: Vec<u8>,
        pos: usize,
        step: usize,
    }
    impl Read for Dribble {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = out.len().min(self.step).min(self.data.len() - self.pos);
            out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn decoder_reassembles_frames_from_any_fragmentation() {
        let frames = [
            Frame::control(0x10, 7, 9),
            Frame::with_body(0x21, 1, 2, (0u8..200).collect::<Vec<u8>>()),
            Frame::with_body(0x22, 3, 4, b"tail".to_vec()),
        ];
        let mut wire = Vec::new();
        for f in &frames {
            write_frame(&mut wire, f).unwrap();
        }
        // Worst case: one byte per read. Every header and body boundary
        // is split.
        for step in [1usize, 3, 16, 4096] {
            let mut r = Dribble {
                data: wire.clone(),
                pos: 0,
                step,
            };
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            loop {
                let n = dec.fill(&mut r).unwrap();
                while let Some((h, body)) = dec.next().unwrap() {
                    got.push(Frame::with_body(h.kind, h.a, h.b, body.to_vec()));
                }
                if n == 0 {
                    break;
                }
            }
            assert_eq!(got.as_slice(), &frames, "fragmentation step {step}");
            assert_eq!(dec.buffered(), 0);
        }
    }

    #[test]
    fn decoder_consumes_a_corrupt_frame_and_stays_in_sync() {
        let tail = Frame::control(0x22, 5, 6);
        // Every body byte of every size, so each position a checksum
        // kernel sums — block, fold lane, tail — is flipped at least once.
        for size in BODY_SIZES {
            let good = Frame::with_body(0x21, 1, 2, vec![0xAB; size]);
            for corrupt_at in FRAME_HEADER_SIZE..FRAME_HEADER_SIZE + size {
                let mut wire = Vec::new();
                write_frame(&mut wire, &good).unwrap();
                wire[corrupt_at] ^= 0x40;
                write_frame(&mut wire, &tail).unwrap();
                let mut dec = FrameDecoder::new();
                let mut r = Cursor::new(wire);
                dec.fill(&mut r).unwrap();
                assert!(
                    matches!(dec.next(), Err(FrameError::Corrupt { .. })),
                    "size {size}, flipped byte {corrupt_at}"
                );
                let (h, _) = dec.next().unwrap().expect("frame after the corrupt one");
                assert_eq!((h.kind, h.a, h.b), (0x22, 5, 6));
            }
        }
    }

    #[test]
    fn decoder_skips_an_oversized_body_without_buffering_it() {
        let announced = MAX_FRAME_BODY + 1;
        let mut bad_header = Vec::new();
        bad_header.push(0x21u8);
        bad_header.extend_from_slice(&1u32.to_be_bytes());
        bad_header.extend_from_slice(&2u32.to_be_bytes());
        bad_header.extend_from_slice(&(announced as u32).to_be_bytes());
        bad_header.extend_from_slice(&0u32.to_be_bytes());
        let mut tail_wire = Vec::new();
        write_frame(&mut tail_wire, &Frame::control(0x22, 7, 8)).unwrap();
        // Oversized header, then the announced body (produced lazily, so
        // the test itself never allocates 64 MB), then a valid frame.
        let mut r = Cursor::new(bad_header)
            .chain(io::repeat(0xEE).take(announced as u64))
            .chain(Cursor::new(tail_wire));
        let mut dec = FrameDecoder::new();
        let mut saw_too_large = false;
        let mut tail = None;
        loop {
            let n = dec.fill(&mut r).unwrap();
            loop {
                match dec.next() {
                    Ok(Some((h, _))) => tail = Some(h),
                    Ok(None) => break,
                    Err(FrameError::TooLarge(len)) => {
                        assert_eq!(len, announced);
                        saw_too_large = true;
                    }
                    Err(e) => panic!("unexpected decode error: {e}"),
                }
            }
            assert!(
                dec.buffered() <= DECODE_SCRATCH,
                "oversized body must not accumulate"
            );
            if n == 0 {
                break;
            }
        }
        assert!(saw_too_large);
        let h = tail.expect("frame after the oversized one");
        assert_eq!((h.kind, h.a, h.b), (0x22, 7, 8));
    }

    /// Accepts at most `budget` bytes per call, spread across the slices
    /// as a socket's `writev` does, and interleaves WouldBlock between
    /// every acceptance — a congested nonblocking socket. One call can
    /// finish several frames and stop inside the next one.
    struct Choked {
        out: Vec<u8>,
        open: bool,
        budget: usize,
    }
    impl Write for Choked {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            if !self.open {
                self.open = true;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "full"));
            }
            self.open = false;
            let mut left = self.budget;
            for b in bufs {
                let n = b.len().min(left);
                self.out.extend_from_slice(&b[..n]);
                left -= n;
            }
            Ok(self.budget - left)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Per-call budgets for [`Choked`]: inside one header, a few frames
    /// per call, and a whole batch per call.
    const BUDGETS: [usize; 3] = [5, 40, 4096];

    /// Mixed control/body frames, more than one batch's worth.
    fn mixed_frames() -> Vec<Frame> {
        (0..(MAX_WRITE_BATCH as u32 + 5))
            .map(|i| {
                if i % 4 == 0 {
                    Frame::control(0x30, i, i)
                } else {
                    Frame::with_body(0x31, i, 0, vec![i as u8; 3 + i as usize])
                }
            })
            .collect()
    }

    fn sequential_wire(frames: &[Frame]) -> Vec<u8> {
        let mut wire = Vec::new();
        for f in frames {
            write_frame(&mut wire, f).unwrap();
        }
        wire
    }

    #[test]
    fn nonblocking_writes_resume_byte_identically_through_wouldblock() {
        let frames = mixed_frames();
        for budget in BUDGETS {
            let mut w = Choked {
                out: Vec::new(),
                open: false,
                budget,
            };
            let mut queue: VecDeque<Frame> = frames.iter().cloned().collect();
            let mut batch = WriteBatch::new();
            let mut done = Vec::new();
            let mut spins = 0;
            while !(queue.is_empty() && batch.is_empty()) {
                // Refill only once drained, as the daemon's flush does.
                if batch.is_empty() {
                    while !batch.is_full() {
                        let Some(f) = queue.pop_front() else { break };
                        batch.push(f);
                    }
                }
                let before = done.len();
                let p = batch.flush(&mut w, |f| done.push(f)).unwrap();
                assert_eq!(p.frames_done, done.len() - before);
                // Choked accepts at most one call between refusals.
                assert_eq!(p.writes, usize::from(p.bytes > 0), "budget {budget}");
                assert!(p.blocked || batch.is_empty());
                spins += 1;
                assert!(spins < 10_000, "writer failed to make progress");
            }
            assert_eq!(w.out, sequential_wire(&frames), "budget {budget}");
            assert_eq!(done, frames, "every frame reported done, in order");
        }
    }

    #[test]
    fn nonblocking_batch_accepts_pushes_while_the_front_frame_is_mid_body() {
        let frames = mixed_frames();
        for budget in BUDGETS {
            let mut w = Choked {
                out: Vec::new(),
                open: true,
                budget,
            };
            let mut queue: VecDeque<Frame> = frames.iter().cloned().collect();
            let mut batch = WriteBatch::new();
            // At 5 bytes a call the front frame sits in its header, then in
            // its body, for many rounds; larger budgets finish several
            // frames a call and stop inside the next.
            batch.push(queue.pop_front().unwrap());
            batch.push(queue.pop_front().unwrap());
            let mut done = 0;
            let mut spins = 0;
            while !(queue.is_empty() && batch.is_empty()) {
                // Top the batch up after *every* flush — the mesh link's
                // shape — so pushes land at every resume offset.
                let p = batch.flush(&mut w, |_| done += 1).unwrap();
                assert!(p.bytes <= budget);
                while !batch.is_full() {
                    let Some(f) = queue.pop_front() else { break };
                    batch.push(f);
                }
                spins += 1;
                assert!(spins < 10_000, "writer failed to make progress");
            }
            assert_eq!(w.out, sequential_wire(&frames), "budget {budget}");
            assert_eq!(done, frames.len());
        }
    }

    #[test]
    fn nonblocking_write_progress_accounting_is_exact() {
        let frames = vec![
            Frame::with_body(0x21, 1, 2, vec![7u8; 40]),
            Frame::control(0x22, 3, 4),
        ];
        let mut out = Vec::new();
        let mut batch = WriteBatch::new();
        for f in &frames {
            batch.push(f.clone());
        }
        let mut done = Vec::new();
        let p = batch.flush(&mut out, |f| done.push(f)).unwrap();
        assert_eq!(p.frames_done, 2);
        assert_eq!(p.writes, 1, "Vec takes every slice in one call");
        assert!(!p.blocked);
        assert!(batch.is_empty());
        assert_eq!(p.bytes, out.len());
        assert_eq!(done, frames);
        let mut r = Cursor::new(out);
        assert_eq!(read_frame(&mut r).unwrap(), frames[0]);
        assert_eq!(read_frame(&mut r).unwrap(), frames[1]);
        // An empty batch flushes to nothing without touching the writer.
        let p = batch
            .flush(
                &mut Choked {
                    out: Vec::new(),
                    open: false,
                    budget: 5,
                },
                |_| {},
            )
            .unwrap();
        assert_eq!(
            (p.frames_done, p.bytes, p.writes, p.blocked),
            (0, 0, 0, false)
        );
    }
}
