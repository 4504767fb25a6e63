//! Dogfooding: the daemon's own observability records as PBIO records.
//!
//! Every record the observability plane exports is an ordinary PBIO
//! format — laid out for the publisher's architecture, registered like
//! any other format and published on a reserved channel — so
//! heterogeneous subscribers receive it through the exact conversion
//! machinery it measures. A record shape is described in one of two ways.
//!
//! **`$stats` is generated from metric names.** Its schema follows a
//! registry [`Snapshot`]'s metric set (all fields fixed-size, so the
//! record stays zero-copy eligible):
//!
//! | metric              | fields                                            |
//! |---------------------|---------------------------------------------------|
//! | header              | `role: u32`, `id: u32`, `seq: u64`, `t_ns: u64`   |
//! | counter `x`         | `c_x: u64`                                        |
//! | gauge `x`           | `g_x: i64`                                        |
//! | histogram `x`       | `h_x_count: u64`, `h_x_sum: u64`, `h_x_b: u64[B]` |
//! | trace ring          | `tr_count: u64`, `tr_stage/tr_at/tr_value: u64[T]`|
//!
//! The trace-ring arrays are fixed at [`TRACE_EXPORT_CAP`] slots whether
//! or not the ring is full, so the schema — and hence the registered
//! format id — depends only on the metric set. Stage labels travel as
//! their first 8 bytes packed big-endian into a `u64`.
//!
//! **`$trace` hops, `$flight` events and `$topo` captures are column
//! tables.** Each fixed shape is written once, as a private table of
//! columns: field name, wire atom, and how a value is read from and
//! written back into its struct. The schema ([`hop_schema`],
//! [`flight_schema`], [`topo_schema`]), the encoder (`*_value`) and the
//! parser (`*_from_value`) all follow that one table. Hop and flight
//! records are one scalar field per column. A topology capture is a
//! scalar header plus six capped sections (connections, channels,
//! shards, lags, flight events, mesh peers), each a row count and one
//! `u64[cap]` array per column, so its schema never varies with daemon
//! load. Adding a field is one column line plus an update of the golden
//! wire images in `tests/obs.rs`.

use pbio_types::schema::AtomType::{self, U32, U64};
use pbio_types::schema::{FieldDecl, Schema, TypeDesc};
use pbio_types::value::{RecordValue, Value};

use crate::flight::FlightEvent;
use crate::metric::{HistogramSnapshot, BUCKETS};
use crate::registry::{Snapshot, TRACE_EXPORT_CAP};
use crate::tracectx::TraceHop;

/// Name of the generated stats format and of the reserved channel.
const STATS_FORMAT_NAME: &str = "$stats";

/// Name of the hop-record format and of the reserved trace channel.
const TRACE_FORMAT_NAME: &str = "$trace";

/// Name of the topology-snapshot format and of the reserved channel.
const TOPO_FORMAT_NAME: &str = "$topo";

/// Name of the flight-recorder event format (used both for `$topo`
/// embedding and for segment-file dumps).
const FLIGHT_FORMAT_NAME: &str = "$flight";

/// Snapshot publisher roles carried in the `role` header field.
pub const ROLE_DAEMON: u32 = 0;
/// See [`ROLE_DAEMON`].
pub const ROLE_CLIENT: u32 = 1;

/// Identity of one stats record: who published it and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsHeader {
    /// [`ROLE_DAEMON`] or [`ROLE_CLIENT`].
    pub role: u32,
    /// Publisher id (daemon: 0; client: its connection id).
    pub id: u32,
    /// Monotonic sequence number per publisher.
    pub seq: u64,
    /// Publisher-local monotonic timestamp in ns (for rate computation).
    pub t_ns: u64,
    /// Guaranteed-monotonic snapshot time in ns, strictly process-local:
    /// never skew-corrected or remapped into a peer timebase, so a
    /// monitor can compute correct rates between two snapshots of the
    /// same publisher without assuming the publish interval. Records
    /// from pre-`snapshot_ns` publishers parse back as 0.
    pub snapshot_ns: u64,
}

/// Map a metric name to a PBIO field-name-safe form.
fn sanitize_metric_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Generate the PBIO schema describing `snap`. Field order follows the
/// snapshot's (sorted) metric order, so equal metric sets produce equal
/// schemas — and equal serialized `FormatMeta`, letting the format registry
/// dedup successive publications.
pub fn stats_schema(snap: &Snapshot) -> Schema {
    let mut fields = vec![
        FieldDecl::atom("role", AtomType::U32),
        FieldDecl::atom("id", AtomType::U32),
        FieldDecl::atom("seq", AtomType::U64),
        FieldDecl::atom("t_ns", AtomType::U64),
        FieldDecl::atom("snapshot_ns", AtomType::U64),
    ];
    let mut push = |f: FieldDecl| {
        if !fields.iter().any(|e| e.name == f.name) {
            fields.push(f);
        }
    };
    for (name, _) in &snap.counters {
        push(FieldDecl::atom(
            format!("c_{}", sanitize_metric_name(name)),
            AtomType::U64,
        ));
    }
    for (name, _) in &snap.gauges {
        push(FieldDecl::atom(
            format!("g_{}", sanitize_metric_name(name)),
            AtomType::I64,
        ));
    }
    for (name, _) in &snap.histograms {
        let base = sanitize_metric_name(name);
        push(FieldDecl::atom(format!("h_{base}_count"), AtomType::U64));
        push(FieldDecl::atom(format!("h_{base}_sum"), AtomType::U64));
        // Precomputed quantile bounds ride alongside the raw buckets so
        // downstream consumers don't reimplement the quantile math.
        push(FieldDecl::atom(format!("h_{base}_p50"), AtomType::U64));
        push(FieldDecl::atom(format!("h_{base}_p90"), AtomType::U64));
        push(FieldDecl::atom(format!("h_{base}_p99"), AtomType::U64));
        push(FieldDecl::new(
            format!("h_{base}_b"),
            TypeDesc::array(AtomType::U64, BUCKETS),
        ));
    }
    fields.push(FieldDecl::atom("tr_count", AtomType::U64));
    for name in ["tr_stage", "tr_at", "tr_value"] {
        fields.push(FieldDecl::new(
            name,
            TypeDesc::array(AtomType::U64, TRACE_EXPORT_CAP),
        ));
    }
    Schema::new(STATS_FORMAT_NAME, fields).expect("stats schema is always valid")
}

/// Pack a stage label's first 8 bytes into a big-endian `u64`.
fn pack_stage(stage: &str) -> u64 {
    let mut bytes = [0u8; 8];
    let n = stage.len().min(8);
    bytes[..n].copy_from_slice(&stage.as_bytes()[..n]);
    u64::from_be_bytes(bytes)
}

/// Inverse of [`pack_stage`] (truncated labels stay truncated).
fn unpack_stage(packed: u64) -> String {
    let bytes = packed.to_be_bytes();
    let end = bytes.iter().position(|&b| b == 0).unwrap_or(8);
    String::from_utf8_lossy(&bytes[..end]).into_owned()
}

/// Build the record value carrying `snap` under `header`, matching
/// [`stats_schema`]`(snap)` field for field.
pub fn stats_value(header: &StatsHeader, snap: &Snapshot) -> RecordValue {
    let mut rv = RecordValue::new()
        .with("role", header.role)
        .with("id", header.id)
        .with("seq", header.seq)
        .with("t_ns", header.t_ns)
        .with("snapshot_ns", header.snapshot_ns);
    for (name, v) in &snap.counters {
        rv.set(format!("c_{}", sanitize_metric_name(name)), *v);
    }
    for (name, v) in &snap.gauges {
        rv.set(format!("g_{}", sanitize_metric_name(name)), *v);
    }
    for (name, h) in &snap.histograms {
        let base = sanitize_metric_name(name);
        rv.set(format!("h_{base}_count"), h.count);
        rv.set(format!("h_{base}_sum"), h.sum);
        rv.set(format!("h_{base}_p50"), h.quantile(0.50));
        rv.set(format!("h_{base}_p90"), h.quantile(0.90));
        rv.set(format!("h_{base}_p99"), h.quantile(0.99));
        rv.set(
            format!("h_{base}_b"),
            Value::Array(h.buckets.iter().map(|&b| Value::U64(b)).collect()),
        );
    }
    let traces = &snap.traces[snap.traces.len().saturating_sub(TRACE_EXPORT_CAP)..];
    rv.set("tr_count", traces.len() as u64);
    let column = |f: &dyn Fn(&(String, u64, u64)) -> u64| {
        let mut col: Vec<Value> = traces.iter().map(|t| Value::U64(f(t))).collect();
        col.resize(TRACE_EXPORT_CAP, Value::U64(0));
        Value::Array(col)
    };
    rv.set("tr_stage", column(&|t| pack_stage(&t.0)));
    rv.set("tr_at", column(&|t| t.1));
    rv.set("tr_value", column(&|t| t.2));
    rv
}

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::U64(n) => Some(*n),
        Value::I64(n) => u64::try_from(*n).ok(),
        _ => None,
    }
}

/// Parse a stats record (decoded or converted from the wire) back into a
/// header and snapshot. Unknown fields are ignored; returns `None` if the
/// record lacks the header fields entirely.
pub fn snapshot_from_value(rv: &RecordValue) -> Option<(StatsHeader, Snapshot)> {
    let header = StatsHeader {
        role: as_u64(rv.get("role")?)? as u32,
        id: as_u64(rv.get("id")?)? as u32,
        seq: as_u64(rv.get("seq")?)?,
        t_ns: as_u64(rv.get("t_ns")?)?,
        snapshot_ns: rv.get("snapshot_ns").and_then(as_u64).unwrap_or(0),
    };
    let mut snap = Snapshot::default();
    let tr_count = rv.get("tr_count").and_then(as_u64).unwrap_or(0) as usize;
    if tr_count > 0 {
        let col = |name: &str| -> Vec<u64> {
            rv.get(name)
                .and_then(|v| v.as_array())
                .map(|a| a.iter().filter_map(as_u64).collect())
                .unwrap_or_default()
        };
        let (stages, ats, values) = (col("tr_stage"), col("tr_at"), col("tr_value"));
        for i in 0..tr_count.min(stages.len()).min(ats.len()).min(values.len()) {
            snap.traces
                .push((unpack_stage(stages[i]), ats[i], values[i]));
        }
    }
    for (name, value) in rv.fields() {
        if let Some(rest) = name.strip_prefix("c_") {
            if let Some(v) = as_u64(value) {
                snap.counters.push((rest.to_owned(), v));
            }
        } else if let Some(rest) = name.strip_prefix("g_") {
            if let Some(v) = value.as_i64() {
                snap.gauges.push((rest.to_owned(), v));
            }
        } else if let Some(rest) = name.strip_prefix("h_") {
            // Keyed off the `_count` field; `_sum` and `_b` are looked up.
            let Some(base) = rest.strip_suffix("_count") else {
                continue;
            };
            let mut h = HistogramSnapshot {
                count: as_u64(value)?,
                ..HistogramSnapshot::default()
            };
            if let Some(sum) = rv.get(&format!("h_{base}_sum")).and_then(as_u64) {
                h.sum = sum;
            }
            if let Some(buckets) = rv.get(&format!("h_{base}_b")).and_then(|v| v.as_array()) {
                for (slot, v) in h.buckets.iter_mut().zip(buckets.iter()) {
                    *slot = as_u64(v).unwrap_or(0);
                }
            }
            snap.histograms.push((base.to_owned(), h));
        }
    }
    snap.counters.sort_by(|a, b| a.0.cmp(&b.0));
    snap.gauges.sort_by(|a, b| a.0.cmp(&b.0));
    snap.histograms.sort_by(|a, b| a.0.cmp(&b.0));
    Some((header, snap))
}

// ---------------------------------------------------------------------
// Fixed record shapes: each written once, as a table of columns.
// ---------------------------------------------------------------------

/// One fixed-width column of a record shape: its field name, its wire
/// atom (the element type, for a topology array), and how a row's value
/// is read out as and written back from a `u64`.
struct Col<T> {
    name: &'static str,
    atom: AtomType,
    get: fn(&T) -> u64,
    set: fn(&mut T, u64),
}

/// One scalar field per column.
fn scalar_fields<T>(cols: &[Col<T>]) -> Vec<FieldDecl> {
    cols.iter()
        .map(|c| FieldDecl::atom(c.name, c.atom))
        .collect()
}

/// The schema of an all-scalar record.
fn scalar_schema<T>(name: &str, cols: &[Col<T>]) -> Schema {
    Schema::new(name, scalar_fields(cols)).expect("fixed record schemas are always valid")
}

/// The record value for one row of an all-scalar record.
fn scalar_value<T>(cols: &[Col<T>], row: &T) -> RecordValue {
    let mut rv = RecordValue::new();
    for c in cols {
        rv.set(c.name, (c.get)(row));
    }
    rv
}

/// Parse one row of an all-scalar record; `None` if any column is
/// missing — e.g. the record isn't of this shape at all.
fn scalar_from_value<T: Default>(cols: &[Col<T>], rv: &RecordValue) -> Option<T> {
    let mut row = T::default();
    for c in cols {
        (c.set)(&mut row, as_u64(rv.get(c.name)?)?);
    }
    Some(row)
}

#[rustfmt::skip]
const HOP_COLS: &[Col<TraceHop>] = &[
    Col { name: "trace_id", atom: U64, get: |h| h.trace_id, set: |h, v| h.trace_id = v },
    Col { name: "span_id", atom: U32, get: |h| h.span_id.into(), set: |h, v| h.span_id = v as u32 },
    Col { name: "hop", atom: U32, get: |h| h.hop.into(), set: |h, v| h.hop = v as u32 },
    Col { name: "conn", atom: U32, get: |h| h.conn.into(), set: |h, v| h.conn = v as u32 },
    Col { name: "chan", atom: U32, get: |h| h.channel.into(), set: |h, v| h.channel = v as u32 },
    Col { name: "t_ns", atom: U64, get: |h| h.t_ns, set: |h, v| h.t_ns = v },
    Col { name: "dur_ns", atom: U64, get: |h| h.dur_ns, set: |h, v| h.dur_ns = v },
];

#[rustfmt::skip]
const FLIGHT_COLS: &[Col<FlightEvent>] = &[
    Col { name: "t_ns", atom: U64, get: |e| e.t_ns, set: |e, v| e.t_ns = v },
    Col { name: "kind", atom: U32, get: |e| e.kind.into(), set: |e, v| e.kind = v as u32 },
    Col { name: "conn", atom: U32, get: |e| e.conn.into(), set: |e, v| e.conn = v as u32 },
    Col { name: "chan", atom: U32, get: |e| e.chan.into(), set: |e, v| e.chan = v as u32 },
    Col { name: "code", atom: U32, get: |e| e.code.into(), set: |e, v| e.code = v as u32 },
    Col { name: "aux", atom: U64, get: |e| e.aux, set: |e, v| e.aux = v },
];

/// The PBIO schema for one distributed-tracing hop record — all scalar
/// fields, so homogeneous monitors view `$trace` events zero-copy.
pub fn hop_schema() -> Schema {
    scalar_schema(TRACE_FORMAT_NAME, HOP_COLS)
}

/// Build the record value for one hop, matching [`hop_schema`].
pub fn hop_value(hop: &TraceHop) -> RecordValue {
    scalar_value(HOP_COLS, hop)
}

/// Parse a hop record decoded (or converted) from the wire. Returns
/// `None` if any field is missing — e.g. the record isn't a hop at all.
pub fn hop_from_value(rv: &RecordValue) -> Option<TraceHop> {
    scalar_from_value(HOP_COLS, rv)
}

/// The PBIO schema for one flight-recorder event — all scalar fields,
/// used for segment-file dumps (one record per event).
pub fn flight_schema() -> Schema {
    scalar_schema(FLIGHT_FORMAT_NAME, FLIGHT_COLS)
}

/// Build the record value for one flight event, matching
/// [`flight_schema`].
pub fn flight_value(ev: &FlightEvent) -> RecordValue {
    scalar_value(FLIGHT_COLS, ev)
}

/// Parse a flight event decoded (or converted) from a dump. Returns
/// `None` if any field is missing.
pub fn flight_from_value(rv: &RecordValue) -> Option<FlightEvent> {
    scalar_from_value(FLIGHT_COLS, rv)
}

// ---------------------------------------------------------------------
// Topology snapshots: live daemon state as one self-describing record.
// ---------------------------------------------------------------------

/// Connections carried per topology record (columnar, fixed).
pub const TOPO_CONN_CAP: usize = 64;
/// Channels carried per topology record.
pub const TOPO_CHAN_CAP: usize = 64;
/// Reactor shards carried per topology record.
pub const TOPO_SHARD_CAP: usize = 32;
/// Consumer-lag watermarks carried per topology record.
pub const TOPO_LAG_CAP: usize = 64;
/// Flight-recorder events embedded per topology record.
pub const FLIGHT_EXPORT_CAP: usize = 64;
/// Mesh peer links carried per topology record.
pub const TOPO_PEER_CAP: usize = 16;

/// Per-connection topology: one live session as the daemon sees it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TopoConn {
    /// Daemon-assigned connection id.
    pub conn: u32,
    /// Reactor shard owning this connection's fd.
    pub shard: u32,
    /// Capability bits negotiated at the handshake.
    pub caps: u32,
    /// Event frames currently queued outbound (the backpressure signal).
    pub queue_depth: u64,
    /// Frame bytes written to this connection so far.
    pub bytes_sent: u64,
    /// Frames written to this connection so far.
    pub frames_sent: u64,
    /// Frames the wire tap captured on this connection (both directions;
    /// 0 when the tap is off or the daemon has none).
    pub tapped: u64,
    /// [`crate::epoch_ns`] of the last inbound activity (read or pong).
    pub last_active_ns: u64,
}

/// Per-channel topology: fan-out plus durable-log footprint.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TopoChannel {
    /// Daemon-assigned channel id.
    pub id: u32,
    /// Channel name (truncated to 8 bytes on the wire).
    pub name: String,
    /// Live subscribers attached to the fan-out.
    pub subscribers: u64,
    /// Events published on this channel since the daemon started.
    pub publishes: u64,
    /// Whether the channel is backed by a segment log.
    pub durable: bool,
    /// Next offset the durable log will assign (0 when not durable).
    pub head: u64,
    /// Segment files backing the channel (0 when not durable).
    pub segments: u64,
    /// Bytes on disk across those segments (0 when not durable).
    pub disk_bytes: u64,
    /// Shard-map home: the mesh index of the daemon that owns this
    /// channel's fan-out (the snapshotting daemon's own index for local
    /// and reserved channels; always 0 without a mesh).
    pub home: u32,
}

/// One daemon↔daemon mesh link as the dialing side sees it: liveness
/// plus the relay counters `pbio-ctl top` renders per peer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TopoPeer {
    /// The peer daemon's mesh index.
    pub peer: u32,
    /// Whether the link session is currently established.
    pub connected: bool,
    /// Publishes forwarded to the peer (frames written to the link).
    pub relay_tx: u64,
    /// Relayed events received from the peer and injected locally.
    pub relay_rx: u64,
    /// Forwards dropped (pending-queue overflow while resolving ids or
    /// riding out a disconnect).
    pub relay_dropped: u64,
    /// Forwards parked awaiting id resolution or reconnect.
    pub pending: u64,
    /// [`crate::epoch_ns`] of the last frame received from the peer.
    pub last_rx_ns: u64,
}

/// Per-shard topology: one readiness reactor's load.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TopoShard {
    /// Shard index.
    pub shard: u32,
    /// Connections currently owned by this shard.
    pub conns: i64,
    /// File descriptors the last poll wakeup reported ready.
    pub ready: i64,
    /// Poll wakeups since the daemon started.
    pub wakeups: u64,
    /// CPU this shard's reactor thread is pinned to, or -1 when
    /// unpinned (pinning off, or `sched_setaffinity` unavailable).
    pub cpu: i64,
}

/// One consumer-lag watermark: how far a durable subscriber trails the
/// log head. `delivered` counts events delivered (equivalently: the next
/// offset due), so `lag() == 0` means fully caught up — including a
/// replay that has handed off to live delivery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TopoLag {
    /// Channel id.
    pub chan: u32,
    /// Subscriber's connection id.
    pub conn: u32,
    /// Log head (next offset to be assigned) at snapshot time.
    pub head: u64,
    /// Events delivered to this subscriber (next offset due).
    pub delivered: u64,
}

impl TopoLag {
    /// Events between the log head and this consumer.
    pub fn lag(&self) -> u64 {
        self.head.saturating_sub(self.delivered)
    }
}

/// A whole topology capture: what `K_INSPECT` answers and the `$topo`
/// channel pushes. The `*_total` fields carry true population sizes so a
/// consumer can tell when the fixed wire caps truncated a section.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TopoSnapshot {
    /// [`crate::epoch_ns`] capture time (daemon timebase).
    pub t_ns: u64,
    /// Live connections (may exceed `conns.len()`).
    pub conn_total: u64,
    /// Channels (may exceed `channels.len()`).
    pub chan_total: u64,
    /// Lag watermarks (may exceed `lags.len()`).
    pub lag_total: u64,
    /// Flight events ever recorded (the ring keeps the newest).
    pub flight_total: u64,
    /// Per-connection rows, capped at [`TOPO_CONN_CAP`].
    pub conns: Vec<TopoConn>,
    /// Per-channel rows, capped at [`TOPO_CHAN_CAP`].
    pub channels: Vec<TopoChannel>,
    /// Per-shard rows, capped at [`TOPO_SHARD_CAP`].
    pub shards: Vec<TopoShard>,
    /// Consumer-lag watermarks, capped at [`TOPO_LAG_CAP`].
    pub lags: Vec<TopoLag>,
    /// Most recent flight events, capped at [`FLIGHT_EXPORT_CAP`].
    pub flight: Vec<FlightEvent>,
    /// Mesh peer links, capped at [`TOPO_PEER_CAP`] (empty without a
    /// mesh, and when parsing records from pre-mesh daemons).
    pub peers: Vec<TopoPeer>,
}

/// The topology record's scalar header. `t_ns` and `cn_total` mark a
/// record as topology; the others parse as 0 when absent.
#[rustfmt::skip]
const TOPO_HEADER: &[Col<TopoSnapshot>] = &[
    Col { name: "t_ns", atom: U64, get: |t| t.t_ns, set: |t, v| t.t_ns = v },
    Col { name: "cn_total", atom: U64, get: |t| t.conn_total, set: |t, v| t.conn_total = v },
    Col { name: "ch_total", atom: U64, get: |t| t.chan_total, set: |t, v| t.chan_total = v },
    Col { name: "lag_total", atom: U64, get: |t| t.lag_total, set: |t, v| t.lag_total = v },
    Col { name: "fl_total", atom: U64, get: |t| t.flight_total, set: |t, v| t.flight_total = v },
];

/// One capped section of the topology record: its row-count field, its
/// wire capacity, its columns (each a `u64[cap]` array) and where its
/// rows live in a [`TopoSnapshot`]. `rows` yields the rows to export,
/// of which the first `cap` go on the wire.
struct Section<T: 'static> {
    count: &'static str,
    cap: usize,
    cols: &'static [Col<T>],
    rows: fn(&TopoSnapshot) -> &[T],
    rows_mut: fn(&mut TopoSnapshot) -> &mut Vec<T>,
}

/// A [`Section`] with its row type erased, so the topology codec is one
/// loop over all six.
trait TopoSection {
    fn count(&self) -> &'static str;
    fn columns(&self, fields: &mut Vec<FieldDecl>);
    fn put(&self, topo: &TopoSnapshot, rv: &mut RecordValue);
    fn take(&self, rv: &RecordValue, topo: &mut TopoSnapshot);
}

impl<T: Default> TopoSection for Section<T> {
    fn count(&self) -> &'static str {
        self.count
    }

    fn columns(&self, fields: &mut Vec<FieldDecl>) {
        for c in self.cols {
            fields.push(FieldDecl::new(c.name, TypeDesc::array(c.atom, self.cap)));
        }
    }

    fn put(&self, topo: &TopoSnapshot, rv: &mut RecordValue) {
        let rows = (self.rows)(topo);
        let rows = &rows[..rows.len().min(self.cap)];
        rv.set(self.count, rows.len() as u64);
        for c in self.cols {
            let mut col: Vec<Value> = rows.iter().map(|r| Value::U64((c.get)(r))).collect();
            col.resize(self.cap, Value::U64(0));
            rv.set(c.name, Value::Array(col));
        }
    }

    /// Rows are as many as the count field says, bounded by the first
    /// column's length; a missing column reads as zeros, so records from
    /// daemons that predate a column still parse.
    fn take(&self, rv: &RecordValue, topo: &mut TopoSnapshot) {
        let cols: Vec<Vec<u64>> = self
            .cols
            .iter()
            .map(|c| {
                rv.get(c.name)
                    .and_then(|v| v.as_array())
                    .map(|a| a.iter().filter_map(as_u64).collect())
                    .unwrap_or_default()
            })
            .collect();
        let count = rv.get(self.count).and_then(as_u64).unwrap_or(0) as usize;
        let rows = (self.rows_mut)(topo);
        for i in 0..count.min(cols[0].len()) {
            let mut row = T::default();
            for (c, col) in self.cols.iter().zip(&cols) {
                (c.set)(&mut row, col.get(i).copied().unwrap_or(0));
            }
            rows.push(row);
        }
    }
}

#[rustfmt::skip]
const CONN_COLS: &[Col<TopoConn>] = &[
    Col { name: "cn_id", atom: U64, get: |c| c.conn.into(), set: |c, v| c.conn = v as u32 },
    Col { name: "cn_shard", atom: U64, get: |c| c.shard.into(), set: |c, v| c.shard = v as u32 },
    Col { name: "cn_caps", atom: U64, get: |c| c.caps.into(), set: |c, v| c.caps = v as u32 },
    Col { name: "cn_queue", atom: U64, get: |c| c.queue_depth, set: |c, v| c.queue_depth = v },
    Col { name: "cn_bytes", atom: U64, get: |c| c.bytes_sent, set: |c, v| c.bytes_sent = v },
    Col { name: "cn_frames", atom: U64, get: |c| c.frames_sent, set: |c, v| c.frames_sent = v },
    Col { name: "cn_tap", atom: U64, get: |c| c.tapped, set: |c, v| c.tapped = v },
    Col { name: "cn_active_ns", atom: U64, get: |c| c.last_active_ns, set: |c, v| c.last_active_ns = v },
];

/// Channel names travel as their first 8 bytes packed into a `u64`.
#[rustfmt::skip]
const CHAN_COLS: &[Col<TopoChannel>] = &[
    Col { name: "ch_id", atom: U64, get: |c| c.id.into(), set: |c, v| c.id = v as u32 },
    Col { name: "ch_name", atom: U64, get: |c| pack_stage(&c.name), set: |c, v| c.name = unpack_stage(v) },
    Col { name: "ch_subs", atom: U64, get: |c| c.subscribers, set: |c, v| c.subscribers = v },
    Col { name: "ch_pubs", atom: U64, get: |c| c.publishes, set: |c, v| c.publishes = v },
    Col { name: "ch_durable", atom: U64, get: |c| c.durable.into(), set: |c, v| c.durable = v != 0 },
    Col { name: "ch_head", atom: U64, get: |c| c.head, set: |c, v| c.head = v },
    Col { name: "ch_segs", atom: U64, get: |c| c.segments, set: |c, v| c.segments = v },
    Col { name: "ch_disk", atom: U64, get: |c| c.disk_bytes, set: |c, v| c.disk_bytes = v },
    Col { name: "ch_home", atom: U64, get: |c| c.home.into(), set: |c, v| c.home = v as u32 },
];

/// Negative load gauges go on the wire as 0. CPU pins are biased by one
/// so the all-zero padding of an unused slot reads back as "unpinned"
/// (-1), not "CPU 0".
#[rustfmt::skip]
const SHARD_COLS: &[Col<TopoShard>] = &[
    Col { name: "sh_id", atom: U64, get: |s| s.shard.into(), set: |s, v| s.shard = v as u32 },
    Col { name: "sh_conns", atom: U64, get: |s| s.conns.max(0) as u64, set: |s, v| s.conns = v as i64 },
    Col { name: "sh_ready", atom: U64, get: |s| s.ready.max(0) as u64, set: |s, v| s.ready = v as i64 },
    Col { name: "sh_wakeups", atom: U64, get: |s| s.wakeups, set: |s, v| s.wakeups = v },
    Col { name: "sh_cpu", atom: U64, get: |s| (s.cpu + 1).max(0) as u64, set: |s, v| s.cpu = v as i64 - 1 },
];

#[rustfmt::skip]
const LAG_COLS: &[Col<TopoLag>] = &[
    Col { name: "lag_chan", atom: U64, get: |l| l.chan.into(), set: |l, v| l.chan = v as u32 },
    Col { name: "lag_conn", atom: U64, get: |l| l.conn.into(), set: |l, v| l.conn = v as u32 },
    Col { name: "lag_head", atom: U64, get: |l| l.head, set: |l, v| l.head = v },
    Col { name: "lag_delivered", atom: U64, get: |l| l.delivered, set: |l, v| l.delivered = v },
];

#[rustfmt::skip]
const TOPO_FLIGHT_COLS: &[Col<FlightEvent>] = &[
    Col { name: "fl_t", atom: U64, get: |e| e.t_ns, set: |e, v| e.t_ns = v },
    Col { name: "fl_kind", atom: U64, get: |e| e.kind.into(), set: |e, v| e.kind = v as u32 },
    Col { name: "fl_conn", atom: U64, get: |e| e.conn.into(), set: |e, v| e.conn = v as u32 },
    Col { name: "fl_chan", atom: U64, get: |e| e.chan.into(), set: |e, v| e.chan = v as u32 },
    Col { name: "fl_code", atom: U64, get: |e| e.code.into(), set: |e, v| e.code = v as u32 },
    Col { name: "fl_aux", atom: U64, get: |e| e.aux, set: |e, v| e.aux = v },
];

#[rustfmt::skip]
const PEER_COLS: &[Col<TopoPeer>] = &[
    Col { name: "pe_id", atom: U64, get: |p| p.peer.into(), set: |p, v| p.peer = v as u32 },
    Col { name: "pe_up", atom: U64, get: |p| p.connected.into(), set: |p, v| p.connected = v != 0 },
    Col { name: "pe_tx", atom: U64, get: |p| p.relay_tx, set: |p, v| p.relay_tx = v },
    Col { name: "pe_rx", atom: U64, get: |p| p.relay_rx, set: |p, v| p.relay_rx = v },
    Col { name: "pe_drop", atom: U64, get: |p| p.relay_dropped, set: |p, v| p.relay_dropped = v },
    Col { name: "pe_pend", atom: U64, get: |p| p.pending, set: |p, v| p.pending = v },
    Col { name: "pe_last_ns", atom: U64, get: |p| p.last_rx_ns, set: |p, v| p.last_rx_ns = v },
];

/// The six sections in wire order. Flight exports its *newest* events
/// when over cap.
#[rustfmt::skip]
const TOPO_SECTIONS: [&dyn TopoSection; 6] = [
    &Section {
        count: "cn_count", cap: TOPO_CONN_CAP, cols: CONN_COLS,
        rows: |t| &t.conns, rows_mut: |t| &mut t.conns,
    },
    &Section {
        count: "ch_count", cap: TOPO_CHAN_CAP, cols: CHAN_COLS,
        rows: |t| &t.channels, rows_mut: |t| &mut t.channels,
    },
    &Section {
        count: "sh_count", cap: TOPO_SHARD_CAP, cols: SHARD_COLS,
        rows: |t| &t.shards, rows_mut: |t| &mut t.shards,
    },
    &Section {
        count: "lag_count", cap: TOPO_LAG_CAP, cols: LAG_COLS,
        rows: |t| &t.lags, rows_mut: |t| &mut t.lags,
    },
    &Section {
        count: "fl_count", cap: FLIGHT_EXPORT_CAP, cols: TOPO_FLIGHT_COLS,
        rows: |t| &t.flight[t.flight.len().saturating_sub(FLIGHT_EXPORT_CAP)..],
        rows_mut: |t| &mut t.flight,
    },
    &Section {
        count: "pe_count", cap: TOPO_PEER_CAP, cols: PEER_COLS,
        rows: |t| &t.peers, rows_mut: |t| &mut t.peers,
    },
];

/// The fixed PBIO schema describing a [`TopoSnapshot`]: the header, the
/// six row counts, then every section's columns. Like the trace ring,
/// every section is a fixed-capacity columnar array plus a count, so
/// the schema — and hence the registered format id — never varies with
/// daemon load.
pub fn topo_schema() -> Schema {
    let mut fields = scalar_fields(TOPO_HEADER);
    fields.extend(
        TOPO_SECTIONS
            .iter()
            .map(|s| FieldDecl::atom(s.count(), U64)),
    );
    for s in TOPO_SECTIONS {
        s.columns(&mut fields);
    }
    Schema::new(TOPO_FORMAT_NAME, fields).expect("topo schema is always valid")
}

/// Build the record value for `topo`, matching [`topo_schema`] field for
/// field. Sections longer than their caps are truncated (the `*_total`
/// fields still carry the true sizes).
pub fn topo_value(topo: &TopoSnapshot) -> RecordValue {
    let mut rv = scalar_value(TOPO_HEADER, topo);
    for s in TOPO_SECTIONS {
        s.put(topo, &mut rv);
    }
    rv
}

/// Parse a topology record (decoded or converted from the wire) back
/// into a [`TopoSnapshot`]. Returns `None` if the record lacks `t_ns` or
/// `cn_total`.
pub fn topo_from_value(rv: &RecordValue) -> Option<TopoSnapshot> {
    as_u64(rv.get("t_ns")?)?;
    as_u64(rv.get("cn_total")?)?;
    let mut topo = TopoSnapshot::default();
    for c in TOPO_HEADER {
        (c.set)(&mut topo, rv.get(c.name).and_then(as_u64).unwrap_or(0));
    }
    for s in TOPO_SECTIONS {
        s.take(rv, &mut topo);
    }
    Some(topo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use pbio_types::arch::ArchProfile;
    use pbio_types::layout::Layout;
    use pbio_types::value::{decode_native, encode_native};

    fn sample() -> (StatsHeader, Snapshot) {
        let r = Registry::new();
        r.counter("events_in").add(17);
        r.counter("bytes.out").add(4096); // needs sanitizing
        r.gauge("active_connections").set(3);
        let h = r.histogram("encode_ns");
        h.record(0);
        h.record(800);
        h.record(70_000);
        let header = StatsHeader {
            role: ROLE_DAEMON,
            id: 0,
            seq: 9,
            t_ns: 123_456,
            snapshot_ns: 123_456,
        };
        (header, r.snapshot())
    }

    #[test]
    fn schema_and_value_field_sets_match() {
        let (header, snap) = sample();
        let schema = stats_schema(&snap);
        let value = stats_value(&header, &snap);
        assert_eq!(schema.fields().len(), value.len());
        for f in schema.fields() {
            assert!(value.get(&f.name).is_some(), "value missing {}", f.name);
        }
    }

    #[test]
    fn native_round_trip_preserves_snapshot() {
        let (header, snap) = sample();
        let schema = stats_schema(&snap);
        let value = stats_value(&header, &snap);
        let layout = Layout::of(&schema, &ArchProfile::X86_64).unwrap();
        let bytes = encode_native(&value, &layout).unwrap();
        let decoded = decode_native(&bytes, &layout).unwrap();
        let (header2, snap2) = snapshot_from_value(&decoded).unwrap();
        assert_eq!(header, header2);
        assert_eq!(snap2.counter("events_in"), Some(17));
        assert_eq!(snap2.counter("bytes_out"), Some(4096));
        assert_eq!(snap2.gauge("active_connections"), Some(3));
        let h = snap2.histogram("encode_ns").unwrap();
        assert_eq!(h, snap.histogram("encode_ns").unwrap());
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 70_800);
    }

    #[test]
    fn equal_metric_sets_produce_equal_schemas() {
        let (_, snap) = sample();
        let (_, snap2) = sample();
        assert_eq!(stats_schema(&snap), stats_schema(&snap2));
    }

    #[test]
    fn trace_ring_rides_the_stats_record() {
        let r = Registry::new();
        r.counter("events").inc();
        r.trace("drop", 3);
        r.trace("tick", 4);
        let snap = r.snapshot();
        assert_eq!(snap.traces.len(), 2);

        let header = StatsHeader::default();
        let schema = stats_schema(&snap);
        let value = stats_value(&header, &snap);
        let layout = Layout::of(&schema, &ArchProfile::X86_64).unwrap();
        let bytes = encode_native(&value, &layout).unwrap();
        let decoded = decode_native(&bytes, &layout).unwrap();
        let (_, snap2) = snapshot_from_value(&decoded).unwrap();
        assert_eq!(snap2.traces, snap.traces);

        // A fuller ring changes the payload but never the schema: the
        // arrays are fixed-size, so the format id stays dedupable.
        r.trace("more", 5);
        let snap3 = r.snapshot();
        assert_eq!(stats_schema(&snap3), schema);
    }

    #[test]
    fn stage_labels_pack_to_eight_bytes() {
        assert_eq!(unpack_stage(pack_stage("drop")), "drop");
        assert_eq!(unpack_stage(pack_stage("exactly8")), "exactly8");
        assert_eq!(unpack_stage(pack_stage("stats_publish")), "stats_pu");
        assert_eq!(unpack_stage(0), "");
    }

    #[test]
    fn quantiles_ride_the_stats_record() {
        let (header, snap) = sample();
        let schema = stats_schema(&snap);
        let value = stats_value(&header, &snap);
        let layout = Layout::of(&schema, &ArchProfile::X86_64).unwrap();
        let bytes = encode_native(&value, &layout).unwrap();
        let decoded = decode_native(&bytes, &layout).unwrap();
        let h = snap.histogram("encode_ns").unwrap();
        for (field, q) in [
            ("h_encode_ns_p50", 0.50),
            ("h_encode_ns_p90", 0.90),
            ("h_encode_ns_p99", 0.99),
        ] {
            assert_eq!(
                decoded.get(field).and_then(as_u64),
                Some(h.quantile(q)),
                "{field}"
            );
        }
        // And the precomputed fields don't confuse the snapshot parser.
        let (_, snap2) = snapshot_from_value(&decoded).unwrap();
        assert_eq!(snap2.histogram("encode_ns"), Some(h));
    }

    #[test]
    fn topo_snapshot_round_trips_natively() {
        let topo = TopoSnapshot {
            t_ns: 42,
            conn_total: 2,
            chan_total: 1,
            lag_total: 1,
            flight_total: 3,
            conns: vec![
                TopoConn {
                    conn: 1,
                    shard: 0,
                    caps: 0x7,
                    queue_depth: 5,
                    bytes_sent: 1024,
                    frames_sent: 10,
                    tapped: 6,
                    last_active_ns: 99,
                },
                TopoConn {
                    conn: 2,
                    shard: 1,
                    ..TopoConn::default()
                },
            ],
            channels: vec![TopoChannel {
                id: 3,
                name: "ticks".into(),
                subscribers: 2,
                publishes: 4000,
                durable: true,
                head: 4000,
                segments: 2,
                disk_bytes: 468_000,
                home: 1,
            }],
            shards: vec![
                TopoShard {
                    shard: 0,
                    conns: 2,
                    ready: 1,
                    wakeups: 77,
                    cpu: 3,
                },
                // An unpinned shard: -1 must survive the biased wire column.
                TopoShard {
                    shard: 1,
                    conns: 0,
                    ready: 0,
                    wakeups: 1,
                    cpu: -1,
                },
            ],
            lags: vec![TopoLag {
                chan: 3,
                conn: 2,
                head: 4000,
                delivered: 1500,
            }],
            flight: vec![FlightEvent {
                t_ns: 40,
                kind: crate::flight::FL_CONNECT,
                conn: 1,
                chan: 0,
                code: 0,
                aux: 7,
            }],
            peers: vec![
                TopoPeer {
                    peer: 1,
                    connected: true,
                    relay_tx: 300,
                    relay_rx: 120,
                    relay_dropped: 2,
                    pending: 5,
                    last_rx_ns: 41,
                },
                TopoPeer {
                    peer: 2,
                    ..TopoPeer::default()
                },
            ],
        };
        let schema = topo_schema();
        let layout = Layout::of(&schema, &ArchProfile::SPARC_V8).unwrap();
        let bytes = encode_native(&topo_value(&topo), &layout).unwrap();
        let decoded = decode_native(&bytes, &layout).unwrap();
        let back = topo_from_value(&decoded).unwrap();
        assert_eq!(back, topo);
        assert_eq!(back.lags[0].lag(), 2500);
        assert!(topo_from_value(&RecordValue::new()).is_none());
    }

    #[test]
    fn topo_value_truncates_but_reports_totals() {
        let mut topo = TopoSnapshot::default();
        for i in 0..(TOPO_CONN_CAP + 5) {
            topo.conns.push(TopoConn {
                conn: i as u32,
                ..TopoConn::default()
            });
        }
        topo.conn_total = topo.conns.len() as u64;
        let schema = topo_schema();
        let layout = Layout::of(&schema, &ArchProfile::X86_64).unwrap();
        let bytes = encode_native(&topo_value(&topo), &layout).unwrap();
        let back = topo_from_value(&decode_native(&bytes, &layout).unwrap()).unwrap();
        assert_eq!(back.conns.len(), TOPO_CONN_CAP);
        assert_eq!(back.conn_total, (TOPO_CONN_CAP + 5) as u64);
    }

    #[test]
    fn flight_event_round_trips_natively() {
        let ev = FlightEvent {
            t_ns: 1_000,
            kind: crate::flight::FL_REPLAY_FINISH,
            conn: 9,
            chan: 3,
            code: 0,
            aux: 4096,
        };
        let schema = flight_schema();
        let layout = Layout::of(&schema, &ArchProfile::X86_64).unwrap();
        let bytes = encode_native(&flight_value(&ev), &layout).unwrap();
        let decoded = decode_native(&bytes, &layout).unwrap();
        assert_eq!(flight_from_value(&decoded), Some(ev));
        assert!(flight_from_value(&RecordValue::new()).is_none());
    }

    #[test]
    fn hop_record_round_trips_natively() {
        let hop = TraceHop {
            trace_id: 0x1234_5678_9abc_def0,
            span_id: 3,
            hop: crate::HOP_FLUSH,
            conn: 7,
            channel: 2,
            t_ns: 1_000_000,
            dur_ns: 512,
        };
        let schema = hop_schema();
        let layout = Layout::of(&schema, &ArchProfile::SPARC_V8).unwrap();
        let bytes = encode_native(&hop_value(&hop), &layout).unwrap();
        let decoded = decode_native(&bytes, &layout).unwrap();
        assert_eq!(hop_from_value(&decoded), Some(hop));
        assert!(hop_from_value(&RecordValue::new()).is_none());
    }
}
