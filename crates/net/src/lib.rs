//! # pbio-net — network model, frame codec, and socket plumbing
//!
//! The paper's evaluation ran between a Sun Ultra 30 and a Pentium II over
//! 100 Mbps Ethernet. Figures 1 and 5 decompose each message round-trip
//! into *encode → network → decode* legs; the network component is a
//! size-proportional term, the encode/decode components are measured CPU
//! time. This crate provides:
//!
//! * [`link::SimLink`] — a latency + bandwidth model of the wire, including
//!   [`link::SimLink::paper_ethernet`], calibrated so that its one-way times
//!   for 100 B / 1 KB / 10 KB / 100 KB messages match the network components
//!   the paper reports in Figure 1,
//! * [`clock::ClockSync`] — estimates cross-process clock offsets from
//!   one timestamp exchange (distributed tracing's skew correction),
//! * [`frame`] — the timeout-aware session-frame codec `pbio-serv` speaks
//!   on the wire (PBIO record streams ride inside frame bodies), with a
//!   CRC-32 header checksum so in-flight corruption is detected rather
//!   than decoded,
//! * [`crc`] — that checksum: CRC-32 by carry-less-multiply folding where
//!   the CPU has it, slice-by-16 tables elsewhere,
//! * [`fault`] — seeded, deterministic fault injection
//!   ([`fault::FaultyStream`]) for exercising the serv layer's recovery
//!   paths from tests, benches, and the daemon's `--faults` mode,
//! * [`dial`] — blocking connect with a deterministic capped-backoff
//!   schedule, shared by resuming clients and daemon mesh links,
//! * [`buf`] — [`buf::WireBuf`], the shared immutable byte buffer frame
//!   bodies are made of, so fanning one event out to many connections is
//!   refcount bumps rather than copies,
//! * [`poll`] — a dependency-free readiness selector ([`poll::Poller`]
//!   over raw `ppoll(2)`) plus a cross-thread [`poll::Waker`], the
//!   foundation of the serv daemon's sharded reactor event loop,
//! * [`affinity`] — thread → CPU pinning (raw `sched_setaffinity(2)`) so
//!   those reactor shards can stop migrating between cores.
//!
//! Both issue their syscalls through one private shim with no `libc`,
//! so the crate builds for Linux on x86_64 or aarch64 only.
//!
//! The harness that times encode/decode legs against [`link::SimLink`] for
//! the paper's Figures 1 and 5 lives in `pbio-bench`.

#![warn(missing_docs)]

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
compile_error!("pbio-net supports Linux on x86_64 or aarch64 only");

pub mod affinity;
pub mod buf;
pub mod clock;
pub mod crc;
pub mod dial;
pub mod fault;
pub mod frame;
pub mod link;
mod metrics;
pub mod poll;
mod sys;

pub use buf::WireBuf;
pub use clock::ClockSync;
pub use dial::{backoff_delay, dial_retry};
pub use fault::{FaultLog, FaultOp, FaultPlan, FaultyStream, MaybeFaulty};
pub use frame::{read_frame, write_frame, Frame, FrameError};
pub use link::SimLink;
pub use poll::{poller, Event as PollEvent, Interest, Poller, Waker};
