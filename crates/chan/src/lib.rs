//! # pbio-chan — event channels with dynamically-compiled filters
//!
//! The paper closes (§5) with the systems its approach enables: "loosely
//! coupled or 'plug-and-play' codes … composed into efficient, distributed
//! applications", and ongoing work to place "selected message operations
//! 'into' the communication co-processors". The authors' follow-on systems
//! (DataExchange, ECho) built exactly this: publish/subscribe **event
//! channels** over PBIO, where each subscriber may attach a *derived
//! channel* — a predicate over record fields, **compiled at run time with
//! the same DCG machinery as the conversions**, and evaluated at the source
//! against the sender's native bytes so that unwanted events are never
//! transmitted or converted.
//!
//! This crate implements the parts of that layer the `pbio-serv` daemon
//! runs each channel on:
//!
//! * [`filter::Predicate`] — a small boolean expression language over
//!   scalar record fields (`lt`/`le`/`gt`/`ge`/`eq`/`ne`, `and`/`or`/`not`),
//! * [`filter::FilterProgram`] — the predicate compiled to a `pbio-vrisc`
//!   program that reads fields straight out of the *wire-format* record
//!   (byte order and widths handled by the generated code), plus an
//!   interpreted reference evaluator used for differential testing,
//! * [`dispatch::Fanout`] — the per-event loop (filter gate, counters,
//!   delivery outcomes) behind each channel of the networked daemon in
//!   `pbio-serv`, where subscribers on any architecture attach over TCP,
//! * [`wire`] — a compact serialization for predicates, so a remote
//!   subscriber can ship its filter to the daemon for evaluation at the
//!   source.

#![warn(missing_docs)]

pub mod dispatch;
pub mod filter;
pub mod wire;

pub use dispatch::{
    DeliveryOutcome, DispatchStats, Fanout, FanoutObs, FanoutTraceObs, Subscriber, SubscriptionId,
};
pub use filter::{CmpOp, FilterError, FilterProgram, Literal, Predicate};
pub use wire::{deserialize_predicate, serialize_predicate};
