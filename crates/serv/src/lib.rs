//! # pbio-serv — a networked event-channel service over NDR
//!
//! The deployment the paper's systems (DataExchange, ECho) ran in
//! production: a daemon that many processes — simulations, monitors,
//! visualizations, each compiled for its own architecture — connect to
//! over TCP, publishing and subscribing on named event channels. The
//! properties the paper measures survive the network hop intact:
//!
//! * **Sender-side O(1)**: publishers transmit records in their native
//!   memory layout. The daemon forwards those bytes verbatim; nothing in
//!   the path re-encodes a record, ever.
//! * **Receiver-side conversion**: each subscriber's client embeds a
//!   [`pbio::Reader`]; conversions are generated on first contact with
//!   each publisher's wire format. A subscriber on the publisher's own
//!   architecture stays zero-copy end to end.
//! * **Formats registered once**: the daemon holds one shared
//!   [`pbio::FormatServer`]. Format metadata crosses each publisher's
//!   socket once, and identical formats from different publishers share
//!   one daemon-global id.
//! * **Filtering at the source** (§5): a subscription may carry a
//!   predicate. The daemon compiles it against each publisher's wire
//!   format with the same DCG machinery as the conversions and evaluates
//!   it *before* transmission, so unwanted events never touch the wire.
//!
//! * **Stats are dogfooded**: the daemon and every client keep their
//!   books in a [`pbio_obs::Registry`]; the daemon publishes periodic
//!   snapshots on the reserved `$stats` channel *as PBIO records*,
//!   described by their own generated format — heterogeneous monitors
//!   receive the measurements through the very conversion machinery the
//!   measurements describe. One-shot pulls ride the `STATS` frame.
//!
//! * **Traces are wire-propagated**: sessions that negotiate the
//!   [`protocol::CAP_TRACE`] capability stamp 1-in-N publishes with a
//!   trace trailer ([event-body layout](protocol#event-bodies)); every
//!   stage — publish, daemon ingress, filter, enqueue, flush, subscriber
//!   decode — records a hop against the same trace id on one
//!   skew-corrected time axis, and completed hops are published on the
//!   reserved `$trace` channel as self-describing PBIO records. Old peers
//!   negotiate nothing and see plain frames.
//!
//! * **Sessions survive faults**: peers that negotiate
//!   [`protocol::CAP_RESUME`] treat a broken socket as an *outage*, not
//!   an error — the client reconnects with capped exponential backoff,
//!   resumes under a bumped session epoch, replays its registrations and
//!   subscriptions, and flushes the publishes it buffered while away.
//!   The daemon pings idle connections and evicts dead or persistently
//!   stalled ones; corrupt or oversized frames are rejected (counted,
//!   answered with `ERROR`) without tearing the session down. For
//!   deterministic fault testing the daemon can wrap every connection in
//!   a seeded [`pbio_net::fault::FaultyStream`] via
//!   [`ServConfig::fault_seed`].
//!
//! * **The daemon is introspectable**: an `INSPECT` exchange (and the
//!   reserved `$topo` push channel) returns a live topology snapshot —
//!   per-connection queue depth and shard assignment, per-channel
//!   subscriber counts and durable heads, per-shard reactor load,
//!   consumer-lag watermarks for every durable subscriber (including
//!   replays in progress), and the tail of a lock-free **flight
//!   recorder** of lifecycle events (connects, evictions, resumes,
//!   protocol errors, fault injections, store repairs). The snapshot is
//!   itself a self-describing PBIO record; with
//!   [`ServConfig::flight_dump`] the recorder also drains incrementally
//!   to a crash-safe `pbio-store` segment a post-mortem can decode.
//!
//! * **The wire itself can be captured**: a daemon configured with
//!   [`ServConfig::tap`] records frames — direction, timestamp,
//!   connection id, exact bytes — into crash-safe capture segments
//!   ([`tap`]), toggleable per-mode at run time over the wire
//!   ([`protocol::K_TAP_CTL`]: full / 1-in-N sampled / single-channel).
//!   Captures are self-describing (the session's own `FORMAT` frames
//!   travel inside), decodable offline frame-by-frame and record-by-
//!   record, and *replayable*: [`tap::replay_session`] re-drives a
//!   captured client session against a fresh daemon and diffs the
//!   delivered event stream byte-for-byte. Disabled, the tap costs one
//!   relaxed load per frame.
//!
//! * **Channels can be durable**: a daemon configured with
//!   [`ServConfig::durability`] appends every event published on a
//!   [`protocol::CHAN_DURABLE`] channel to a `pbio-store` append-only
//!   segment log — off the hot loop, on a dedicated writer thread —
//!   and acks publishers once bytes are flushed
//!   ([`protocol::K_PUBLISH_ACK`]). Events on durable channels carry
//!   their log offset in a trailer ([event-body
//!   layout](protocol#event-bodies)); subscribers replay history
//!   from any offset with [`ServClient::subscribe_from`], which streams
//!   the log and hands off to live delivery gaplessly. Crash recovery
//!   (CRC-checked scan, torn tails truncated) runs when the store
//!   reopens; with resume negotiated a client reconnects and resumes
//!   from the last offset it saw — lossless across daemon restarts.
//!
//! * **Federation** ([`mesh`]): daemons peer over the same frame
//!   protocol ([`protocol::CAP_PEER`]). Channels shard across the mesh
//!   by a deterministic name hash ([`mesh::home_of`]); any daemon
//!   accepts any publish and forwards it to the channel's home daemon,
//!   whose fan-out is the single ordering point; format-registry
//!   gossip makes remote-origin events decode everywhere; and one
//!   relayed frame fans out to N local subscribers by refcount bumps.
//!
//! Layering: [`protocol`] defines the session frames (carried by
//! [`pbio_net::frame`]); [`daemon`] is an event-driven server — a small
//! fixed set of sharded readiness reactors (built on
//! [`pbio_net::poll`]) multiplexing every connection over nonblocking
//! sockets, with fan-out routed through
//! [`pbio_chan::dispatch::Fanout`]; [`client`] is the blocking client
//! library. Daemon thread count is O(shards), not O(connections):
//! each connection is one file descriptor owned by exactly one
//! reactor, which decodes its inbound frames, drains its bounded
//! outbound queue with batched vectored writes, and resumes partial
//! writes when the socket next reports writable. Only the durable
//! store writer and historical-replay streams (bounded by
//! [`ServConfig::max_replay`]) run on dedicated threads, and even
//! their output is handed back to the owning reactor's queue.

#![warn(missing_docs)]

pub mod client;
pub mod daemon;
pub mod error;
pub mod mesh;
pub mod protocol;
pub mod tap;

pub use client::{ClientConfig, ClientStats, Event, RawEvent, ServClient};
pub use daemon::{ConnStats, ServConfig, ServDaemon, ServStats, TraceConfig};
pub use error::ServError;
pub use mesh::{home_of, MeshConfig, PeerAddr, PeerStats};
pub use pbio_store::{FlushPolicy, StoreConfig};
pub use protocol::{
    CAP_DURABLE, CAP_PEER, CAP_RESUME, CAP_TRACE, CHAN_DURABLE, STATS_CHANNEL, TOPO_CHANNEL,
    TRACE_CHANNEL,
};
pub use tap::{
    read_capture, replay_session, CaptureFile, CapturedFrame, ReplayOptions, ReplayReport,
    ReplaySpeed, TapConfig, TapMode,
};
