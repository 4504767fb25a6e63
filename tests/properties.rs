//! Property-based tests: random schemas × random values × random
//! architecture pairs, through every data path in the workspace.

use std::sync::Arc;

use proptest::prelude::*;

use pbio::{BufPool, CodegenMode, DcgConverter, InterpConverter, Plan};
use pbio_cdr::CdrCodec;
use pbio_integration::{profile_strategy, schema_and_value, var_schema_and_value};
use pbio_mpi::{mpi_pack, mpi_unpack, packed_size, Datatype};
use pbio_obs::export::{
    flight_from_value, flight_schema, flight_value, hop_from_value, hop_schema, hop_value,
    topo_from_value, topo_schema, topo_value, TopoChannel, TopoConn, TopoLag, TopoPeer, TopoShard,
    TopoSnapshot, FLIGHT_EXPORT_CAP, TOPO_CHAN_CAP, TOPO_CONN_CAP, TOPO_LAG_CAP, TOPO_PEER_CAP,
    TOPO_SHARD_CAP,
};
use pbio_obs::{Bounded, FlightEvent, Overflow, TraceHop};
use pbio_types::arch::ArchProfile;
use pbio_types::layout::Layout;
use pbio_types::meta::{deserialize_layout, serialize_layout};
use pbio_types::schema::Schema;
use pbio_types::value::RecordValue;
use pbio_types::value::{decode_native, encode_native};
use pbio_xml::{emit_record, XmlDecoder};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Native image encode/decode is the identity on every profile.
    #[test]
    fn native_round_trip((schema, value) in var_schema_and_value(), p in profile_strategy()) {
        let layout = Layout::of(&schema, p).unwrap();
        let img = encode_native(&value, &layout).unwrap();
        let back = decode_native(&img, &layout).unwrap();
        prop_assert_eq!(back, value);
    }

    /// Format metadata serialization round-trips for any schema/profile.
    #[test]
    fn meta_round_trip((schema, _) in var_schema_and_value(), p in profile_strategy()) {
        let layout = Layout::of(&schema, p).unwrap();
        let bytes = serialize_layout(&layout);
        prop_assert_eq!(deserialize_layout(&bytes).unwrap(), layout);
    }

    /// The three PBIO conversion backends agree bit-for-bit and reproduce
    /// the original value across any (sender, receiver) profile pair.
    #[test]
    fn conversion_backends_agree(
        (schema, value) in var_schema_and_value(),
        sp in profile_strategy(),
        dp in profile_strategy(),
    ) {
        let slay = Arc::new(Layout::of(&schema, sp).unwrap());
        let dlay = Arc::new(Layout::of(&schema, dp).unwrap());
        let wire = encode_native(&value, &slay).unwrap();
        let plan = Arc::new(Plan::build(slay, dlay.clone()));

        let a = InterpConverter::new(plan.clone()).convert(&wire).unwrap();
        let b = DcgConverter::compile(plan.clone(), CodegenMode::Naive).unwrap().convert(&wire).unwrap();
        let c = DcgConverter::compile(plan, CodegenMode::Optimized).unwrap().convert(&wire).unwrap();
        prop_assert_eq!(&a, &b, "interp vs naive DCG");
        prop_assert_eq!(&a, &c, "interp vs optimized DCG");
        prop_assert_eq!(decode_native(&a, &dlay).unwrap(), value);
    }

    /// Converting through a pooled buffer — including one recycled from an
    /// earlier conversion of a *different* record, so stale bytes and stale
    /// capacity are both in play — is byte-identical to a fresh allocation.
    #[test]
    fn pooled_conversion_matches_fresh(
        (schema, value) in var_schema_and_value(),
        (schema2, value2) in var_schema_and_value(),
        sp in profile_strategy(),
        dp in profile_strategy(),
    ) {
        let pool = BufPool::new();
        // Dirty the pool with a conversion of an unrelated layout.
        {
            let slay = Arc::new(Layout::of(&schema2, dp).unwrap());
            let dlay = Arc::new(Layout::of(&schema2, sp).unwrap());
            let wire = encode_native(&value2, &slay).unwrap();
            let plan = Arc::new(Plan::build(slay, dlay));
            let _ = InterpConverter::new(plan).convert_pooled(&wire, &pool).unwrap();
        }
        let slay = Arc::new(Layout::of(&schema, sp).unwrap());
        let dlay = Arc::new(Layout::of(&schema, dp).unwrap());
        let wire = encode_native(&value, &slay).unwrap();
        let plan = Arc::new(Plan::build(slay, dlay.clone()));

        let interp = InterpConverter::new(plan.clone());
        let dcg = DcgConverter::compile(plan, CodegenMode::Optimized).unwrap();
        let fresh_i = interp.convert(&wire).unwrap();
        let fresh_d = dcg.convert(&wire).unwrap();
        // Two pooled conversions back to back: the second reuses the
        // buffer the first returned.
        for _ in 0..2 {
            let pi = interp.convert_pooled(&wire, &pool).unwrap();
            prop_assert_eq!(&fresh_i[..], &pi[..], "interp pooled vs fresh");
        }
        for _ in 0..2 {
            let pd = dcg.convert_pooled(&wire, &pool).unwrap();
            prop_assert_eq!(&fresh_d[..], &pd[..], "dcg pooled vs fresh");
        }
        // Every pooled conversion drew from the pool (hit or miss; a buffer
        // grown past its class by a variable region may re-file higher and
        // miss the next same-size get, so hits alone aren't deterministic).
        let s = pool.stats();
        prop_assert_eq!(s.hits + s.misses, 5);
        prop_assert_eq!(decode_native(&fresh_i, &dlay).unwrap(), value);
    }

    /// Receiver-side type extension: the receiver expects a subset of the
    /// sender's fields (we drop the last field); all surviving fields
    /// convert correctly and nothing crashes.
    #[test]
    fn subset_receiver_gets_matching_fields(
        (schema, value) in schema_and_value(),
        sp in profile_strategy(),
        dp in profile_strategy(),
    ) {
        prop_assume!(schema.fields().len() >= 2);
        let last = schema.fields().last().unwrap().name.clone();
        let receiver = schema.without_field(&last).unwrap();
        let slay = Arc::new(Layout::of(&schema, sp).unwrap());
        let dlay = Arc::new(Layout::of(&receiver, dp).unwrap());
        let wire = encode_native(&value, &slay).unwrap();
        let plan = Arc::new(Plan::build(slay, dlay.clone()));
        let out = DcgConverter::compile(plan, CodegenMode::Optimized).unwrap().convert(&wire).unwrap();
        let got = decode_native(&out, &dlay).unwrap();
        prop_assert!(got.subset_of(&value), "got {} from {}", got, value);
    }

    /// MPI pack/unpack reproduces the value across any profile pair, and the
    /// wire size is architecture-independent.
    #[test]
    fn mpi_round_trip(
        (schema, value) in schema_and_value(),
        sp in profile_strategy(),
        dp in profile_strategy(),
    ) {
        let sdt = Datatype::from_schema(&schema, sp).unwrap();
        let ddt = Datatype::from_schema(&schema, dp).unwrap();
        prop_assert_eq!(packed_size(&sdt), packed_size(&ddt));
        let slay = Layout::of(&schema, sp).unwrap();
        let dlay = Layout::of(&schema, dp).unwrap();
        let native = encode_native(&value, &slay).unwrap();
        let wire = mpi_pack(&sdt, sp, &native).unwrap();
        prop_assert_eq!(wire.len(), packed_size(&sdt));
        let out = mpi_unpack(&ddt, dp, &wire).unwrap();
        prop_assert_eq!(decode_native(&out, &dlay).unwrap(), value);
    }

    /// CDR marshal/unmarshal reproduces the value across any profile pair.
    #[test]
    fn cdr_round_trip(
        (schema, value) in var_schema_and_value(),
        sp in profile_strategy(),
        dp in profile_strategy(),
    ) {
        let sc = CdrCodec::new(&schema, sp).unwrap();
        let dc = CdrCodec::new(&schema, dp).unwrap();
        let native = encode_native(&value, sc.layout()).unwrap();
        let wire = sc.marshal(&native).unwrap();
        let out = dc.unmarshal(&wire).unwrap();
        prop_assert_eq!(decode_native(&out, dc.layout()).unwrap(), value);
    }

    /// XML emit/parse reproduces the value across any profile pair.
    #[test]
    fn xml_round_trip(
        (schema, value) in var_schema_and_value(),
        sp in profile_strategy(),
        dp in profile_strategy(),
    ) {
        let slay = Layout::of(&schema, sp).unwrap();
        let dlay = Layout::of(&schema, dp).unwrap();
        let native = encode_native(&value, &slay).unwrap();
        let xml = emit_record(&slay, &native).unwrap();
        let out = XmlDecoder::new(&dlay).decode(&xml).unwrap();
        prop_assert_eq!(decode_native(&out, &dlay).unwrap(), value);
    }

    /// Truncating a wire record never panics any converter — it errors.
    #[test]
    fn truncation_never_panics(
        (schema, value) in schema_and_value(),
        sp in profile_strategy(),
        dp in profile_strategy(),
        cut_ppm in 0u32..1_000_000,
    ) {
        let slay = Arc::new(Layout::of(&schema, sp).unwrap());
        let dlay = Arc::new(Layout::of(&schema, dp).unwrap());
        let wire = encode_native(&value, &slay).unwrap();
        let cut = (wire.len() as u64 * cut_ppm as u64 / 1_000_000) as usize;
        prop_assume!(cut < wire.len());
        let plan = Arc::new(Plan::build(slay, dlay));
        // Any result is fine as long as it is an Err, not a panic — unless
        // the truncated prefix still covers every byte the plan reads.
        let _ = InterpConverter::new(plan.clone()).convert(&wire[..cut]);
        let _ = DcgConverter::compile(plan, CodegenMode::Optimized).unwrap().convert(&wire[..cut]);
    }

    /// Corrupting arbitrary wire bytes never panics the PBIO receive path
    /// (values may of course differ).
    #[test]
    fn corruption_never_panics(
        (schema, value) in var_schema_and_value(),
        sp in profile_strategy(),
        dp in profile_strategy(),
        idx_ppm in 0u32..1_000_000,
        byte in 0u8..=255,
    ) {
        let slay = Arc::new(Layout::of(&schema, sp).unwrap());
        let dlay = Arc::new(Layout::of(&schema, dp).unwrap());
        let mut wire = encode_native(&value, &slay).unwrap();
        let idx = (wire.len() as u64 * idx_ppm as u64 / 1_000_000) as usize;
        prop_assume!(idx < wire.len());
        wire[idx] = byte;
        let plan = Arc::new(Plan::build(slay, dlay));
        let _ = InterpConverter::new(plan.clone()).convert(&wire);
        let _ = DcgConverter::compile(plan, CodegenMode::Optimized).unwrap().convert(&wire);
    }
}

/// One operation on a [`Bounded`] in the model test.
#[derive(Debug, Clone, Copy)]
enum QueueOp {
    /// Push an item that counts against the bound.
    Push,
    /// Push an exempt item.
    PushExempt,
    Pop,
    PopBatch(usize),
    /// Keep only the items whose id is not a multiple of the argument.
    Retain(u32),
    Drain,
}

fn queue_op() -> impl Strategy<Value = QueueOp> {
    prop_oneof![
        6 => Just(QueueOp::Push),
        2 => Just(QueueOp::PushExempt),
        2 => Just(QueueOp::Pop),
        1 => (0usize..4).prop_map(QueueOp::PopBatch),
        1 => (2u32..4).prop_map(QueueOp::Retain),
        1 => Just(QueueOp::Drain),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `Bounded` against a naive model: a `Vec` of `(id, counted)` items
    /// and three totals. After every operation the queue holds exactly
    /// the model's items in order, `pushed == popped + dropped + len`,
    /// the bound holds, and only counted items are ever dropped:
    /// `DropOldest` gives up the oldest counted item (the incoming one
    /// when none is held), `DropNewest` the incoming one.
    #[test]
    fn bounded_matches_a_naive_model(
        capacity in 0usize..5,
        drop_oldest in any::<bool>(),
        ops in proptest::collection::vec(queue_op(), 0..64),
    ) {
        let overflow = if drop_oldest { Overflow::DropOldest } else { Overflow::DropNewest };
        let mut q = Bounded::with_exempt(capacity, overflow, |&(_, counted): &(u32, bool)| counted);
        let mut model: Vec<(u32, bool)> = Vec::new();
        let (mut pushed, mut popped, mut dropped) = (0u64, 0u64, 0u64);
        for (id, op) in (0u32..).zip(ops) {
            match op {
                QueueOp::Push | QueueOp::PushExempt => {
                    let item = (id, matches!(op, QueueOp::Push));
                    pushed += 1;
                    let held = model.iter().filter(|i| i.1).count();
                    let expected = if !item.1 || held < capacity {
                        model.push(item);
                        None
                    } else {
                        dropped += 1;
                        match (overflow, model.iter().position(|i| i.1)) {
                            (Overflow::DropOldest, Some(at)) => {
                                model.push(item);
                                Some(model.remove(at))
                            }
                            _ => Some(item),
                        }
                    };
                    let evicted = q.push(item);
                    prop_assert_eq!(evicted, expected);
                    prop_assert!(evicted.is_none_or(|e| e.1), "an exempt item was dropped");
                }
                QueueOp::Pop => {
                    let expected = (!model.is_empty()).then(|| model.remove(0));
                    popped += u64::from(expected.is_some());
                    prop_assert_eq!(q.pop(), expected);
                }
                QueueOp::PopBatch(max) => {
                    let expected: Vec<_> = model.drain(..max.min(model.len())).collect();
                    popped += expected.len() as u64;
                    prop_assert_eq!(q.pop_batch(max).collect::<Vec<_>>(), expected);
                }
                QueueOp::Retain(m) => {
                    let before = model.len();
                    model.retain(|i| i.0 % m != 0);
                    popped += (before - model.len()) as u64;
                    q.retain(|i| i.0 % m != 0);
                }
                QueueOp::Drain => {
                    popped += model.len() as u64;
                    prop_assert_eq!(q.drain().collect::<Vec<_>>(), std::mem::take(&mut model));
                }
            }
            let c = q.counts();
            prop_assert_eq!((c.pushed, c.popped, c.dropped), (pushed, popped, dropped));
            prop_assert_eq!(c.pushed, c.popped + c.dropped + q.len() as u64);
            prop_assert!(q.held() <= capacity);
            prop_assert_eq!(q.held(), model.iter().filter(|i| i.1).count());
            prop_assert_eq!(q.iter().copied().collect::<Vec<_>>(), model.clone());
            prop_assert_eq!(q.front(), model.first());
        }
    }
}

fn topo_conn() -> impl Strategy<Value = TopoConn> {
    (
        (any::<u32>(), any::<u32>(), any::<u32>()),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
        ),
    )
        .prop_map(
            |(
                (conn, shard, caps),
                (queue_depth, bytes_sent, frames_sent, tapped, last_active_ns),
            )| {
                TopoConn {
                    conn,
                    shard,
                    caps,
                    queue_depth,
                    bytes_sent,
                    frames_sent,
                    tapped,
                    last_active_ns,
                }
            },
        )
}

fn topo_channel() -> impl Strategy<Value = TopoChannel> {
    (
        (
            any::<u32>(),
            "[a-z0-9_-]{0,12}",
            any::<bool>(),
            any::<u32>(),
        ),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
        ),
    )
        .prop_map(
            |((id, name, durable, home), (subscribers, publishes, head, segments, disk_bytes))| {
                TopoChannel {
                    id,
                    name,
                    subscribers,
                    publishes,
                    durable,
                    head,
                    segments,
                    disk_bytes,
                    home,
                }
            },
        )
}

fn topo_shard() -> impl Strategy<Value = TopoShard> {
    (
        any::<u32>(),
        any::<i64>(),
        any::<i64>(),
        any::<u64>(),
        -4i64..256,
    )
        .prop_map(|(shard, conns, ready, wakeups, cpu)| TopoShard {
            shard,
            conns,
            ready,
            wakeups,
            cpu,
        })
}

fn topo_lag() -> impl Strategy<Value = TopoLag> {
    (any::<u32>(), any::<u32>(), any::<u64>(), any::<u64>()).prop_map(
        |(chan, conn, head, delivered)| TopoLag {
            chan,
            conn,
            head,
            delivered,
        },
    )
}

fn flight_event() -> impl Strategy<Value = FlightEvent> {
    (
        any::<u64>(),
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        any::<u64>(),
    )
        .prop_map(|(t_ns, kind, conn, chan, code, aux)| FlightEvent {
            t_ns,
            kind,
            conn,
            chan,
            code,
            aux,
        })
}

fn topo_peer() -> impl Strategy<Value = TopoPeer> {
    (
        (any::<u32>(), any::<bool>()),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
        ),
    )
        .prop_map(
            |((peer, connected), (relay_tx, relay_rx, relay_dropped, pending, last_rx_ns))| {
                TopoPeer {
                    peer,
                    connected,
                    relay_tx,
                    relay_rx,
                    relay_dropped,
                    pending,
                    last_rx_ns,
                }
            },
        )
}

/// A topology capture whose every section runs from empty to eight rows
/// past its wire cap.
fn topo_snapshot() -> impl Strategy<Value = TopoSnapshot> {
    use proptest::collection::vec;
    (
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
        ),
        (
            vec(topo_conn(), 0..=TOPO_CONN_CAP + 8),
            vec(topo_channel(), 0..=TOPO_CHAN_CAP + 8),
            vec(topo_shard(), 0..=TOPO_SHARD_CAP + 8),
            vec(topo_lag(), 0..=TOPO_LAG_CAP + 8),
            vec(flight_event(), 0..=FLIGHT_EXPORT_CAP + 8),
            vec(topo_peer(), 0..=TOPO_PEER_CAP + 8),
        ),
    )
        .prop_map(
            |((t_ns, conn_total, chan_total, lag_total, flight_total), sections)| {
                let (conns, channels, shards, lags, flight, peers) = sections;
                TopoSnapshot {
                    t_ns,
                    conn_total,
                    chan_total,
                    lag_total,
                    flight_total,
                    conns,
                    channels,
                    shards,
                    lags,
                    flight,
                    peers,
                }
            },
        )
}

/// What a topology capture reads back as after one trip over the wire:
/// each section cut to its cap (flight keeps the newest events), channel
/// names cut to their 8 packed bytes, negative shard gauges clamped to 0
/// and CPU pins below "unpinned" (-1) read as unpinned.
fn topo_after_wire(mut t: TopoSnapshot) -> TopoSnapshot {
    t.conns.truncate(TOPO_CONN_CAP);
    t.channels.truncate(TOPO_CHAN_CAP);
    for c in &mut t.channels {
        c.name.truncate(8);
    }
    t.shards.truncate(TOPO_SHARD_CAP);
    for s in &mut t.shards {
        s.conns = s.conns.max(0);
        s.ready = s.ready.max(0);
        s.cpu = s.cpu.max(-1);
    }
    t.lags.truncate(TOPO_LAG_CAP);
    t.flight
        .drain(..t.flight.len().saturating_sub(FLIGHT_EXPORT_CAP));
    t.peers.truncate(TOPO_PEER_CAP);
    t
}

/// Encode `value` natively under `schema` laid out for `profile`, and
/// decode it back.
fn through_wire(value: &RecordValue, schema: &Schema, profile: &ArchProfile) -> RecordValue {
    let layout = Layout::of(schema, profile).unwrap();
    decode_native(&encode_native(value, &layout).unwrap(), &layout).unwrap()
}

const OBS_PROFILES: [&ArchProfile; 2] = [&ArchProfile::X86_64, &ArchProfile::SPARC_V8];

proptest! {
    /// Every fixed observability record survives value → native bytes →
    /// value → parse on a little- and a big-endian layout, up to the
    /// documented caps and clamps.
    #[test]
    fn topo_records_round_trip_up_to_caps(topo in topo_snapshot()) {
        let want = topo_after_wire(topo.clone());
        for profile in OBS_PROFILES {
            let back = through_wire(&topo_value(&topo), &topo_schema(), profile);
            prop_assert_eq!(topo_from_value(&back), Some(want.clone()));
        }
    }

    #[test]
    fn hop_records_round_trip(
        (trace_id, span_id, hop, conn, channel) in
            (any::<u64>(), any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
        (t_ns, dur_ns) in (any::<u64>(), any::<u64>()),
    ) {
        let hop = TraceHop { trace_id, span_id, hop, conn, channel, t_ns, dur_ns };
        for profile in OBS_PROFILES {
            let back = through_wire(&hop_value(&hop), &hop_schema(), profile);
            prop_assert_eq!(hop_from_value(&back), Some(hop));
        }
    }

    #[test]
    fn flight_records_round_trip(ev in flight_event()) {
        for profile in OBS_PROFILES {
            let back = through_wire(&flight_value(&ev), &flight_schema(), profile);
            prop_assert_eq!(flight_from_value(&back), Some(ev));
        }
    }
}
