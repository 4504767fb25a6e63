//! A thin, dependency-free readiness selector.
//!
//! The serv daemon's reactor threads need one primitive the standard
//! library does not expose: "sleep until any of these sockets is readable
//! or writable, or until someone wakes me". [`Poller`] provides it over
//! `ppoll(2)`, issued as a raw syscall through the crate's one shim — no
//! `libc`, no new crates. The registered set is rebuilt as a `pollfd`
//! array per call, which makes interest changes free and keeps the
//! implementation small; at the few thousand descriptors a single
//! reactor shard owns, the kernel-side scan is not the bottleneck (the
//! daemon shards connections across reactors precisely so no single set
//! grows unboundedly).
//!
//! Cross-thread wakeups come from a [`Waker`]: a self-connected
//! nonblocking UDP socket whose descriptor is part of every poll set (one
//! datagram = one wakeup, drained inside [`Poller::poll`]). A `Waker` is
//! cheaply cloneable and may be fired from any thread.

use std::collections::HashMap;
use std::io;
use std::net::UdpSocket;
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::Arc;
use std::time::Duration;

use crate::sys::{check, syscall, SYS_PPOLL};

/// The OS-level identity of a pollable source: its raw file descriptor.
pub type RawSource = RawFd;

/// The raw readiness source of a socket-like object.
pub fn source_of(s: &impl AsRawFd) -> RawSource {
    s.as_raw_fd()
}

/// What a registration wants to be woken for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the source has bytes (or EOF / an error) to read.
    pub readable: bool,
    /// Wake when the source can accept bytes without blocking.
    pub writable: bool,
}

impl Interest {
    /// Readable only — the steady state of an idle connection.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Readable and writable — armed while a partial write is pending.
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness event out of [`Poller::poll`]. Error and hang-up
/// conditions are folded into `readable`/`writable` (the handler's next
/// read or write surfaces the actual error), the convention every
/// readiness-based loop uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token the source was registered with.
    pub token: usize,
    /// The source is readable (or in an error/EOF state a read reveals).
    pub readable: bool,
    /// The source is writable (or in an error state a write reveals).
    pub writable: bool,
}

/// Cross-thread wakeup handle paired with one [`Poller`]: firing it makes
/// the poller's current (or next) [`Poller::poll`] return promptly.
/// Cloneable, cheap, and safe to fire from any thread; coalescing
/// multiple wakes into one poll return is allowed and expected.
#[derive(Clone)]
pub struct Waker(Arc<UdpSocket>);

impl Waker {
    /// Wake the paired poller. Never blocks; errors (e.g. a full socket
    /// buffer, which already implies a pending wakeup) are swallowed.
    pub fn wake(&self) {
        let _ = self.0.send(&[1u8]);
    }
}

/// Build a [`Poller`] paired with its [`Waker`].
pub fn poller() -> io::Result<(Poller, Waker)> {
    // A UDP socket connected to itself: the cheapest self-pipe. One
    // datagram per wake, drained on poll return.
    let sock = UdpSocket::bind("127.0.0.1:0")?;
    sock.connect(sock.local_addr()?)?;
    sock.set_nonblocking(true)?;
    let sock = Arc::new(sock);
    let poller = Poller {
        registered: HashMap::new(),
        fds: Vec::new(),
        tokens: Vec::new(),
        wake_rx: sock.clone(),
    };
    Ok((poller, Waker(sock)))
}

/// `struct pollfd` as the kernel ABI defines it.
#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

const POLLIN: i16 = 0x001;
const POLLPRI: i16 = 0x002;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

const EINTR: i32 = 4;

/// Raw `ppoll(2)`. The kernel may update the timespec in place (the raw
/// syscall writes back remaining time), which is why a fresh one is
/// built per call. An interrupted wait (`EINTR`) reads as zero ready.
fn ppoll(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    let mut ts = Timespec {
        sec: timeout.as_secs().min(i64::MAX as u64) as i64,
        nsec: timeout.subsec_nanos() as i64,
    };
    // SAFETY: ppoll reads `fds.len()` pollfd structs from `fds` (a live
    // mutable slice), writes their `revents`, and may write back `ts`; a
    // null sigmask leaves the signal mask alone.
    let ret = unsafe {
        syscall(
            SYS_PPOLL,
            [
                fds.as_mut_ptr() as usize,
                fds.len(),
                &mut ts as *mut Timespec as usize,
                0,
                0,
            ],
        )
    };
    match check(ret) {
        Err(e) if e.raw_os_error() == Some(EINTR) => Ok(0),
        r => r,
    }
}

/// A readiness selector over a set of registered sources.
///
/// Not thread-safe by design: each reactor owns its poller outright.
/// Cross-thread signalling goes through the paired [`Waker`] instead.
pub struct Poller {
    /// Registered sources: fd → (token, interest). Order is irrelevant —
    /// the pollfd array is rebuilt per call.
    registered: HashMap<RawSource, (usize, Interest)>,
    /// Reused pollfd array (slot 0 is always the waker socket).
    fds: Vec<PollFd>,
    /// Tokens parallel to `fds`, rebuilt with it.
    tokens: Vec<usize>,
    /// Receive side of the self-connected waker socket.
    wake_rx: Arc<UdpSocket>,
}

impl Poller {
    /// Add `src` to the set under `token`. Registering an already-present
    /// source updates its token and interest.
    pub fn register(&mut self, src: RawSource, token: usize, interest: Interest) {
        self.registered.insert(src, (token, interest));
    }

    /// Change the interest (and token) of an already-registered source.
    pub fn modify(&mut self, src: RawSource, token: usize, interest: Interest) {
        self.registered.insert(src, (token, interest));
    }

    /// Remove `src` from the set. Unknown sources are ignored.
    pub fn deregister(&mut self, src: RawSource) {
        self.registered.remove(&src);
    }

    /// Wait up to `timeout` for readiness, appending events to `events`
    /// (which the caller clears). Returns early — possibly with zero
    /// events — when the paired [`Waker`] fires. Interrupted waits
    /// (`EINTR`) are reported as an empty, successful poll.
    pub fn poll(&mut self, events: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
        self.fds.clear();
        self.tokens.clear();
        self.fds.push(PollFd {
            fd: source_of(&*self.wake_rx),
            events: POLLIN,
            revents: 0,
        });
        self.tokens.push(usize::MAX);
        for (&fd, &(token, interest)) in &self.registered {
            let mut ev = 0i16;
            if interest.readable {
                ev |= POLLIN;
            }
            if interest.writable {
                ev |= POLLOUT;
            }
            self.fds.push(PollFd {
                fd,
                events: ev,
                revents: 0,
            });
            self.tokens.push(token);
        }
        let n = ppoll(&mut self.fds, timeout)?;
        if n == 0 {
            return Ok(());
        }
        // Waker datagrams are drained here: the wakeup's purpose is the
        // poll return itself.
        if self.fds[0].revents != 0 {
            let mut sink = [0u8; 64];
            while self.wake_rx.recv(&mut sink).is_ok() {}
        }
        for (pfd, &token) in self.fds.iter().zip(&self.tokens).skip(1) {
            let r = pfd.revents;
            if r == 0 {
                continue;
            }
            // ERR/HUP/NVAL surface as readable *and* writable so whichever
            // operation the connection is blocked on runs and observes the
            // failure directly.
            let fail = r & (POLLERR | POLLHUP | POLLNVAL) != 0;
            events.push(Event {
                token,
                readable: r & (POLLIN | POLLPRI) != 0 || fail,
                writable: r & POLLOUT != 0 || fail,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    /// Readiness round trip:
    /// writable when the send buffer is empty, readable once bytes land.
    #[test]
    fn tcp_readiness_round_trip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let (mut p, _waker) = poller().unwrap();
        p.register(source_of(&server), 7, Interest::READ_WRITE);

        let mut events = Vec::new();
        p.poll(&mut events, Duration::from_millis(500)).unwrap();
        let ev = events.iter().find(|e| e.token == 7).expect("event");
        assert!(ev.writable, "fresh socket has send-buffer space");

        let mut tx = client.try_clone().unwrap();
        tx.write_all(b"ping").unwrap();
        // Readable-only interest must still surface the inbound bytes.
        p.modify(source_of(&server), 7, Interest::READABLE);
        let mut got = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while got.len() < 4 && std::time::Instant::now() < deadline {
            events.clear();
            p.poll(&mut events, Duration::from_millis(100)).unwrap();
            if events.iter().any(|e| e.token == 7 && e.readable) {
                let mut buf = [0u8; 16];
                let mut s = &server;
                match s.read(&mut buf) {
                    Ok(n) => got.extend_from_slice(&buf[..n]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(e) => panic!("read failed: {e}"),
                }
            }
        }
        assert_eq!(got, b"ping");
    }

    /// A waker fired from another thread ends a long poll early.
    #[test]
    fn waker_interrupts_poll() {
        let (mut p, waker) = poller().unwrap();
        let t0 = std::time::Instant::now();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            waker.wake();
        });
        let mut events = Vec::new();
        p.poll(&mut events, Duration::from_secs(30)).unwrap();
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "waker cut the 30s poll short"
        );
        handle.join().unwrap();
    }

    /// Wakes are level-cheap: many wakes coalesce, and a drained poller
    /// sleeps the full timeout again afterwards.
    #[test]
    fn wakes_coalesce_and_drain() {
        let (mut p, waker) = poller().unwrap();
        for _ in 0..32 {
            waker.wake();
        }
        let mut events = Vec::new();
        p.poll(&mut events, Duration::from_secs(5)).unwrap();
        // All pending wakes consumed: the next short poll times out
        // rather than returning instantly forever.
        let t0 = std::time::Instant::now();
        p.poll(&mut events, Duration::from_millis(40)).unwrap();
        assert!(
            t0.elapsed() >= Duration::from_millis(20),
            "stale wakeups left behind"
        );
    }

    /// Deregistered sources produce no further events.
    #[test]
    fn deregister_silences_a_source() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        let (mut p, _w) = poller().unwrap();
        p.register(source_of(&server), 3, Interest::READ_WRITE);
        p.deregister(source_of(&server));
        drop(client);
        let mut events = Vec::new();
        p.poll(&mut events, Duration::from_millis(50)).unwrap();
        assert!(
            events.iter().all(|e| e.token != 3),
            "deregistered source still reported"
        );
    }
}
