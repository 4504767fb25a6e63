//! A thin, dependency-free readiness-polling abstraction.
//!
//! The serv daemon's reactor threads need one primitive the standard
//! library does not expose: "sleep until any of these sockets is readable
//! or writable, or until someone wakes me". This module provides it as a
//! [`Poller`] trait with two implementations, selected at runtime by
//! [`poller()`]:
//!
//! * On Linux (x86_64 / aarch64) a real `ppoll(2)` backend, invoked as a
//!   raw syscall through `core::arch::asm!` — no `libc`, no new crates.
//!   The registered set is rebuilt as a `pollfd` array per call, which
//!   makes interest changes free and keeps the implementation small; at
//!   the few thousand descriptors a single reactor shard owns, the
//!   kernel-side scan is not the bottleneck (the daemon shards
//!   connections across reactors precisely so no single set grows
//!   unboundedly).
//! * Everywhere else, a portable fallback that sleeps in short slices and
//!   reports every registered source as ready. Spurious readiness is safe
//!   by construction: reactor handlers treat `WouldBlock` as "nothing to
//!   do", so the fallback costs latency and idle wakeups, never
//!   correctness.
//!
//! Cross-thread wakeups come from a [`Waker`]: on the syscall backend a
//! self-connected nonblocking UDP socket whose descriptor is part of every
//! poll set (one datagram = one wakeup, drained inside [`Poller::poll`]),
//! on the fallback a flag + condvar. A `Waker` is cheaply cloneable and
//! may be fired from any thread.

use std::io;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// The OS-level identity of a pollable source. On Unix this is the raw
/// file descriptor; elsewhere it is an opaque integer the fallback poller
/// carries but never interprets.
#[cfg(unix)]
pub type RawSource = std::os::unix::io::RawFd;
/// The OS-level identity of a pollable source (non-Unix placeholder).
#[cfg(not(unix))]
pub type RawSource = i32;

/// The raw readiness source of a socket-like object.
#[cfg(unix)]
pub fn source_of(s: &impl std::os::unix::io::AsRawFd) -> RawSource {
    s.as_raw_fd()
}

/// The raw readiness source of a socket-like object (non-Unix: sources
/// are opaque and the fallback poller reports them all ready anyway).
#[cfg(not(unix))]
pub fn source_of<T>(_s: &T) -> RawSource {
    0
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

/// A readiness selector over a set of registered sources.
///
/// Not thread-safe by design: each reactor owns its poller outright.
/// Cross-thread signalling goes through the paired [`Waker`] instead.
pub trait Poller: Send {
    /// Add `src` to the set under `token`. Registering an already-present
    /// source updates its token and interest.
    fn register(&mut self, src: RawSource, token: usize, interest: Interest);
    /// Change the interest (and token) of an already-registered source.
    fn modify(&mut self, src: RawSource, token: usize, interest: Interest);
    /// Remove `src` from the set. Unknown sources are ignored.
    fn deregister(&mut self, src: RawSource);
    /// Wait up to `timeout` for readiness, appending events to `events`
    /// (which the caller clears). Returns early — possibly with zero
    /// events — when the paired [`Waker`] fires. Interrupted waits
    /// (`EINTR`) are reported as an empty, successful poll.
    fn poll(&mut self, events: &mut Vec<Event>, timeout: Duration) -> io::Result<()>;
}

/// Cross-thread wakeup handle paired with one [`Poller`]: firing it makes
/// the poller's current (or next) [`Poller::poll`] return promptly.
/// Cloneable, cheap, and safe to fire from any thread; coalescing
/// multiple wakes into one poll return is allowed and expected.
#[derive(Clone)]
pub struct Waker(WakerInner);

#[derive(Clone)]
enum WakerInner {
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    Udp(Arc<std::net::UdpSocket>),
    #[allow(dead_code)]
    Flag(Arc<(Mutex<bool>, Condvar)>),
}

impl Waker {
    /// Wake the paired poller. Never blocks; errors (e.g. a full socket
    /// buffer, which already implies a pending wakeup) are swallowed.
    pub fn wake(&self) {
        match &self.0 {
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            WakerInner::Udp(sock) => {
                let _ = sock.send(&[1u8]);
            }
            WakerInner::Flag(flag) => {
                let (lock, cond) = &**flag;
                *lock.lock().unwrap_or_else(|p| p.into_inner()) = true;
                cond.notify_all();
            }
        }
    }
}

/// Build the best poller available on this platform, paired with its
/// [`Waker`].
pub fn poller() -> io::Result<(Box<dyn Poller>, Waker)> {
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    {
        let (p, w) = SysPoller::new()?;
        Ok((Box::new(p), w))
    }
    #[cfg(not(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    )))]
    {
        let (p, w) = FallbackPoller::new();
        Ok((Box::new(p), w))
    }
}

// ---------------------------------------------------------------------------
// Linux ppoll(2) backend — raw syscalls, no libc.

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    use std::io;
    use std::time::Duration;

    /// `struct pollfd` as the kernel ABI defines it.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub(super) struct PollFd {
        pub(super) fd: i32,
        pub(super) events: i16,
        pub(super) revents: i16,
    }

    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }

    pub(super) const POLLIN: i16 = 0x001;
    pub(super) const POLLPRI: i16 = 0x002;
    pub(super) const POLLOUT: i16 = 0x004;
    pub(super) const POLLERR: i16 = 0x008;
    pub(super) const POLLHUP: i16 = 0x010;
    pub(super) const POLLNVAL: i16 = 0x020;

    const EINTR: isize = 4;

    #[cfg(target_arch = "x86_64")]
    const SYS_PPOLL: isize = 271;
    #[cfg(target_arch = "aarch64")]
    const SYS_PPOLL: isize = 73;

    /// Raw `ppoll(2)`. The kernel may update the timespec in place (the
    /// raw syscall writes back remaining time), which is why a fresh one
    /// is built per call.
    pub(super) fn ppoll(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
        let mut ts = Timespec {
            sec: timeout.as_secs().min(i64::MAX as u64) as i64,
            nsec: timeout.subsec_nanos() as i64,
        };
        let ret = sys_ppoll(fds.as_mut_ptr(), fds.len(), &mut ts);
        if ret < 0 {
            if -ret == EINTR {
                return Ok(0);
            }
            return Err(io::Error::from_raw_os_error(-ret as i32));
        }
        Ok(ret as usize)
    }

    #[cfg(target_arch = "x86_64")]
    fn sys_ppoll(fds: *mut PollFd, nfds: usize, ts: *mut Timespec) -> isize {
        let ret: isize;
        // SAFETY: ppoll reads `nfds` pollfd structs from `fds` (a live
        // mutable slice), writes their `revents`, and may write back the
        // timespec; a null sigmask (r10) leaves the signal mask alone.
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") SYS_PPOLL => ret,
                in("rdi") fds,
                in("rsi") nfds,
                in("rdx") ts,
                in("r10") 0usize,
                in("r8") 0usize,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    #[cfg(target_arch = "aarch64")]
    fn sys_ppoll(fds: *mut PollFd, nfds: usize, ts: *mut Timespec) -> isize {
        let ret: isize;
        // SAFETY: as above; aarch64 passes the syscall number in x8 and
        // arguments in x0..x4 (sigmask and its size are null/zero).
        unsafe {
            core::arch::asm!(
                "svc 0",
                in("x8") SYS_PPOLL,
                inlateout("x0") fds => ret,
                in("x1") nfds,
                in("x2") ts,
                in("x3") 0usize,
                in("x4") 0usize,
                options(nostack),
            );
        }
        ret
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
struct SysPoller {
    /// Registered sources: fd → (token, interest). Order is irrelevant —
    /// the pollfd array is rebuilt per call.
    registered: std::collections::HashMap<RawSource, (usize, Interest)>,
    /// Reused pollfd array (slot 0 is always the waker socket).
    fds: Vec<sys::PollFd>,
    /// Tokens parallel to `fds`, rebuilt with it.
    tokens: Vec<usize>,
    /// Receive side of the self-connected waker socket.
    wake_rx: Arc<std::net::UdpSocket>,
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
impl SysPoller {
    fn new() -> io::Result<(SysPoller, Waker)> {
        // A UDP socket connected to itself: the cheapest portable
        // self-pipe. One datagram per wake, drained on poll return.
        let sock = std::net::UdpSocket::bind("127.0.0.1:0")?;
        sock.connect(sock.local_addr()?)?;
        sock.set_nonblocking(true)?;
        let sock = Arc::new(sock);
        let poller = SysPoller {
            registered: std::collections::HashMap::new(),
            fds: Vec::new(),
            tokens: Vec::new(),
            wake_rx: sock.clone(),
        };
        Ok((poller, Waker(WakerInner::Udp(sock))))
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
impl Poller for SysPoller {
    fn register(&mut self, src: RawSource, token: usize, interest: Interest) {
        self.registered.insert(src, (token, interest));
    }

    fn modify(&mut self, src: RawSource, token: usize, interest: Interest) {
        self.registered.insert(src, (token, interest));
    }

    fn deregister(&mut self, src: RawSource) {
        self.registered.remove(&src);
    }

    fn poll(&mut self, events: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
        use sys::*;
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

// ---------------------------------------------------------------------------
// Portable fallback: timed sleep + report-everything-ready.

/// Longest slice the fallback sleeps before spuriously reporting
/// readiness — its worst-case added latency per event.
#[allow(dead_code)]
const FALLBACK_SLICE: Duration = Duration::from_millis(2);

#[allow(dead_code)]
struct FallbackPoller {
    registered: Vec<(RawSource, usize, Interest)>,
    flag: Arc<(Mutex<bool>, Condvar)>,
}

#[allow(dead_code)]
impl FallbackPoller {
    fn new() -> (FallbackPoller, Waker) {
        let flag = Arc::new((Mutex::new(false), Condvar::new()));
        (
            FallbackPoller {
                registered: Vec::new(),
                flag: flag.clone(),
            },
            Waker(WakerInner::Flag(flag)),
        )
    }
}

impl Poller for FallbackPoller {
    fn register(&mut self, src: RawSource, token: usize, interest: Interest) {
        self.deregister(src);
        self.registered.push((src, token, interest));
    }

    fn modify(&mut self, src: RawSource, token: usize, interest: Interest) {
        self.register(src, token, interest);
    }

    fn deregister(&mut self, src: RawSource) {
        self.registered.retain(|&(s, _, _)| s != src);
    }

    fn poll(&mut self, events: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
        let (lock, cond) = &*self.flag;
        let mut woken = lock.lock().unwrap_or_else(|p| p.into_inner());
        if !*woken && !self.registered.is_empty() {
            // Readiness is unknowable here, so trade latency for
            // correctness: nap briefly, then report everything ready and
            // let WouldBlock sort out the truth.
            let (g, _) = cond
                .wait_timeout(woken, timeout.min(FALLBACK_SLICE))
                .unwrap_or_else(|p| p.into_inner());
            woken = g;
        } else if !*woken {
            let (g, _) = cond
                .wait_timeout(woken, timeout)
                .unwrap_or_else(|p| p.into_inner());
            woken = g;
        }
        *woken = false;
        drop(woken);
        for &(_, token, interest) in &self.registered {
            events.push(Event {
                token,
                readable: interest.readable,
                writable: interest.writable,
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

    /// Readiness round trip on whatever backend this platform builds:
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
