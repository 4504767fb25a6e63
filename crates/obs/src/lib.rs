//! `pbio-obs` — low-overhead instrumentation for the PBIO stack.
//!
//! The paper's analysis (Figure 1) decomposes a message exchange into
//! encode / send / receive / convert; this crate provides the machinery to
//! measure those components on the live paths:
//!
//! * [`Counter`] / [`Gauge`] — single relaxed atomics;
//! * [`Histogram`] — fixed-bucket log2 latency histogram, sharded across a
//!   few cache lines so concurrent recorders don't contend;
//! * [`Registry`] — name → metric map; resolve a handle once, record through
//!   the `Arc` forever after (the hot path never touches the registry);
//! * [`Span`] — RAII timer recording elapsed ns into a histogram on drop,
//!   globally disableable via [`set_enabled`] for overhead comparisons;
//! * [`Bounded`] — the one bounded FIFO: capacity, overflow policy and
//!   the `pushed == popped + dropped + len` drop accounting, stated once
//!   for every queue and ring in the stack that can lose data;
//! * [`TraceCtx`] / [`TraceHop`] / [`TraceSampler`] / [`TraceSink`] —
//!   wire-propagated distributed tracing: a sampled publish carries a
//!   compact context in a frame trailer, every stage re-stamps it into a
//!   hop record, and completed hops export over the `$trace` channel;
//! * [`FlightRecorder`] — bounded lock-free seqlock ring of structured
//!   lifecycle events (connect/evict/resume, protocol errors, repairs,
//!   replays): the black box behind daemon post-mortems;
//! * [`export`] — describes a registry [`Snapshot`] as a PBIO record so
//!   stats travel the wire format they measure (the `$stats` channel),
//!   plus topology snapshots (`$topo`) and flight-event records.
//!
//! Module-level instrumentation (encoders, converters, frame I/O) records
//! into [`Registry::global`]; daemons and clients own per-instance
//! registries so components sharing a process keep separate books.

mod bounded;
pub mod export;
mod flight;
mod metric;
mod registry;
mod span;
mod tracectx;

pub use bounded::{Bounded, Counts, Overflow};
pub use flight::{
    flight_kind_name, FlightEvent, FlightRecorder, FL_CONNECT, FL_EVICT, FL_FAULT, FL_PROTO_ERROR,
    FL_REPAIR, FL_REPLAY_FINISH, FL_REPLAY_START, FL_RESUME, FL_SHUTDOWN, FL_TAP_DROP,
    FL_TAP_ROTATE, FL_TAP_START, FL_TAP_STOP,
};
pub use metric::{
    bucket_index, bucket_lower, bucket_upper, Counter, Gauge, Histogram, HistogramSnapshot, BUCKETS,
};
pub use registry::{
    enabled, epoch_ns, labeled, labeled2, set_enabled, Registry, Snapshot, TRACE_EXPORT_CAP,
};
pub use span::Span;
pub use tracectx::{
    hop_name, TraceCtx, TraceHop, TraceSampler, TraceSink, FLAG_SAMPLED, HOP_COUNT, HOP_DECODE,
    HOP_ENQUEUE, HOP_FILTER, HOP_FLUSH, HOP_INGRESS, HOP_PUBLISH, HOP_RELAY, HOP_REQUIRED,
    TRACE_TRAILER_LEN,
};

/// Shorthand for [`Registry::global`].
pub fn global() -> &'static std::sync::Arc<Registry> {
    Registry::global()
}
