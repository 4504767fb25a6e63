//! # pbio-bench — workloads and measurement plumbing for the evaluation
//!
//! Everything the `figures` binary needs to regenerate the paper's
//! figures and the design ablations:
//!
//! * [`workloads`] — the mixed-field record schemas at the paper's four
//!   message sizes (100 B, 1 KB, 10 KB, 100 KB on the Sparc), value
//!   generation, and the format-mismatch variants of §4.4,
//! * [`prepare`] / [`ProtoBench`] — uniform prepared encode/decode
//!   closures for every wire format under test (PBIO zero-copy /
//!   interpreted / DCG, MPICH-model, CORBA CDR, XML), so every figure
//!   times the same per-record work,
//! * [`exchange`] — `time_avg` and the encode / network / decode leg
//!   breakdown of Figures 1 and 5,
//! * [`era`] — scaling of those legs' CPU components to the paper's 1999
//!   hosts,
//! * [`cli`] — the flag loop and schema-bearing JSON envelope shared by
//!   the `pbio-*` observability tools.
//!
//! See `DESIGN.md` (per-experiment index) and `EXPERIMENTS.md`
//! (paper-vs-measured results).

#![warn(missing_docs)]

pub mod cli;
pub mod era;
pub mod exchange;
mod protocols;
pub mod workloads;

pub use protocols::{prepare, ProtoBench, WireFormat};
pub use workloads::{MsgSize, Workload};
