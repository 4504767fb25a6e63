//! Observability integration: the `$stats` channel end to end, one-shot
//! `STATS` pulls, cross-architecture decoding of stats records through the
//! real conversion machinery, client/daemon stats parity, and the
//! protocol-robustness guarantee that an unknown frame kind draws an
//! `ERROR` reply without killing the session.

use std::collections::HashSet;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pbio::Reader;
use pbio_net::frame::{read_frame, write_frame_raw};
use pbio_obs::export::{
    flight_schema, flight_value, hop_schema, hop_value, snapshot_from_value, stats_schema,
    stats_value, topo_schema, topo_value, StatsHeader, TopoChannel, TopoConn, TopoLag, TopoPeer,
    TopoShard, TopoSnapshot, FLIGHT_EXPORT_CAP, ROLE_CLIENT, ROLE_DAEMON, TOPO_CONN_CAP,
};
use pbio_obs::{
    FlightEvent, HistogramSnapshot, Registry, Snapshot, TraceHop, FL_PROTO_ERROR, HOP_FLUSH,
};
use pbio_serv::protocol::{
    E_PROTOCOL, K_CHANNEL, K_CHANNEL_ACK, K_ERROR, K_HELLO, K_HELLO_ACK, PROTOCOL_VERSION,
};
use pbio_serv::{
    FlushPolicy, ServClient, ServConfig, ServDaemon, StoreConfig, TraceConfig, STATS_CHANNEL,
};
use pbio_types::arch::ArchProfile;
use pbio_types::layout::Layout;
use pbio_types::meta::serialize_layout;
use pbio_types::schema::{AtomType, FieldDecl, Schema};
use pbio_types::value::{decode_native, encode_native, RecordValue};

fn tick_schema() -> Schema {
    Schema::new(
        "tick",
        vec![
            FieldDecl::atom("seq", AtomType::CInt),
            FieldDecl::atom("level", AtomType::CDouble),
        ],
    )
    .unwrap()
}

fn tick(seq: i32) -> RecordValue {
    RecordValue::new().with("seq", seq).with("level", 0.5f64)
}

/// An unknown frame kind must draw `ERROR(E_PROTOCOL)` and leave the
/// session fully functional — spoken raw so the bogus frame is under the
/// test's control rather than a client library's.
#[test]
fn unknown_frame_kind_gets_error_and_keeps_the_session() {
    let daemon = ServDaemon::bind_with(
        "127.0.0.1:0",
        ServConfig {
            queue_capacity: 8,
            stats_interval: None,
            trace: TraceConfig::default(),
            ..ServConfig::default()
        },
    )
    .unwrap();
    let mut stream = TcpStream::connect(daemon.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    write_frame_raw(
        &mut stream,
        K_HELLO,
        PROTOCOL_VERSION,
        0,
        ArchProfile::X86_64.name.as_bytes(),
    )
    .unwrap();
    let ack = read_frame(&mut stream).unwrap();
    assert_eq!(ack.kind, K_HELLO_ACK);

    // A frame kind the protocol never assigned.
    write_frame_raw(&mut stream, 0x6E, 1, 2, b"junk").unwrap();
    let err = read_frame(&mut stream).unwrap();
    assert_eq!(err.kind, K_ERROR);
    assert_eq!(err.a, E_PROTOCOL);
    assert!(
        String::from_utf8_lossy(&err.body).contains("0x6e"),
        "error names the offending kind"
    );

    // The session is still alive: a valid request round-trips.
    write_frame_raw(&mut stream, K_CHANNEL, 7, 0, b"survivor").unwrap();
    let ack = read_frame(&mut stream).unwrap();
    assert_eq!(ack.kind, K_CHANNEL_ACK);
    assert_eq!(ack.a, 7);
    daemon.shutdown();
}

/// Daemon snapshots arrive on `$stats` as PBIO records at both a
/// homogeneous and a big-endian subscriber, carry the daemon's live
/// counters, and sit alongside client-published snapshots on the same
/// channel.
#[test]
fn stats_channel_feeds_homogeneous_and_heterogeneous_subscribers() {
    let daemon = ServDaemon::bind_with(
        "127.0.0.1:0",
        ServConfig {
            queue_capacity: 256,
            stats_interval: Some(Duration::from_millis(100)),
            trace: TraceConfig::default(),
            ..ServConfig::default()
        },
    )
    .unwrap();
    let addr = daemon.local_addr();

    // Traffic for the daemon to account: a publisher on its own channel,
    // which also publishes its *own* registry snapshot on `$stats`.
    let mut publisher = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
    let schema = tick_schema();
    let format = publisher.register_format(&schema).unwrap();
    let chan = publisher.open_channel("ticks").unwrap();
    let stats_chan = publisher.open_channel(STATS_CHANNEL).unwrap();
    for seq in 0..5 {
        publisher.publish_value(chan, format, &tick(seq)).unwrap();
    }
    publisher.publish_stats(stats_chan).unwrap();

    for profile in [&ArchProfile::X86_64, &ArchProfile::SPARC_V8] {
        let mut sub = ServClient::connect(addr, profile).unwrap();
        let stats_chan = sub.open_channel(STATS_CHANNEL).unwrap();
        sub.subscribe_raw(stats_chan, None).unwrap();

        let deadline = Instant::now() + Duration::from_secs(10);
        let mut daemon_snap = None;
        let mut client_snap = None;
        while (daemon_snap.is_none() || client_snap.is_none()) && Instant::now() < deadline {
            // Client snapshots predate this subscription; re-publishing
            // each round keeps one in flight.
            publisher.publish_stats(stats_chan).unwrap();
            let Some(ev) = sub.poll_raw(Duration::from_millis(200)).unwrap() else {
                continue;
            };
            let value = decode_native(ev.bytes, &ev.layout).unwrap();
            let (header, snap) = snapshot_from_value(&value).unwrap();
            match header.role {
                ROLE_DAEMON => daemon_snap = Some(snap),
                ROLE_CLIENT => client_snap = Some((header, snap)),
                other => panic!("unknown stats role {other}"),
            }
        }

        let daemon_snap = daemon_snap.expect("daemon snapshot arrived");
        assert!(daemon_snap.counter("serv_events_in").unwrap() >= 5);
        assert!(daemon_snap.counter("serv_bytes_in").unwrap() > 0);
        assert!(daemon_snap.counter("serv_bytes_out").unwrap() > 0);
        assert!(daemon_snap.histogram("serv_recv_ns").unwrap().count > 0);
        // Module-level metrics ride along via the global registry merge.
        assert!(daemon_snap.counter("net_bytes_in").is_some());
        // Per-shard reactor accounting flows over `$stats` too, labeled
        // by shard index (names arrive field-sanitized); shard 0 must
        // have woken at least once to serve this very subscriber.
        assert!(
            daemon_snap
                .counter("serv_shard_wakeups_shard__0__")
                .unwrap()
                > 0
        );
        assert!(daemon_snap
            .histogram("serv_shard_frames_per_wakeup_shard__0__")
            .is_some());

        let (header, client_snap) = client_snap.expect("client snapshot arrived");
        assert_eq!(header.id, publisher.conn_id());
        assert!(client_snap.histogram("client_encode_ns").unwrap().count > 0);
        assert!(client_snap.counter("client_bytes_out").unwrap() > 0);
    }
    daemon.shutdown();
}

/// `pull_stats` round-trips a one-shot snapshot over the `STATS` frame,
/// announced and decoded like any other record.
#[test]
fn pull_stats_returns_the_daemon_books() {
    let daemon = ServDaemon::bind_with(
        "127.0.0.1:0",
        ServConfig {
            queue_capacity: 8,
            stats_interval: None,
            trace: TraceConfig::default(),
            ..ServConfig::default()
        },
    )
    .unwrap();
    let mut client = ServClient::connect(daemon.local_addr(), &ArchProfile::SPARC_V8).unwrap();
    let schema = tick_schema();
    let format = client.register_format(&schema).unwrap();
    let chan = client.open_channel("ticks").unwrap();
    for seq in 0..3 {
        client.publish_value(chan, format, &tick(seq)).unwrap();
    }

    let (header, snap) = client.pull_stats().unwrap();
    assert_eq!(header.role, ROLE_DAEMON);
    // The daemon may not have drained all three publishes yet, but the
    // pull itself is ordered behind them on this connection.
    assert_eq!(snap.counter("serv_events_in"), Some(3));
    assert_eq!(snap.gauge("serv_active_connections"), Some(1));
    assert!(snap.counter("pool_hits").is_some());

    // A second pull reuses the announced format and moves forward.
    let (header2, snap2) = client.pull_stats().unwrap();
    assert!(header2.seq > header.seq);
    assert!(snap2.counter("serv_bytes_in").unwrap() >= snap.counter("serv_bytes_in").unwrap());
    client.disconnect().unwrap();
    daemon.shutdown();
}

/// A stats record encoded on a big-endian ILP32 architecture survives the
/// *real* receive path of a little-endian reader — `Reader::expect` +
/// announced wire format + DCG conversion — field for field.
#[test]
fn stats_snapshot_converts_across_architectures() {
    let reg = Registry::new();
    reg.counter("events_in").add(1234);
    reg.gauge("depth").set(-7);
    let h = reg.histogram("encode_ns");
    h.record(0);
    h.record(900);
    h.record(1 << 20);
    let snap = reg.snapshot();
    let header = StatsHeader {
        role: ROLE_CLIENT,
        id: 42,
        seq: 3,
        t_ns: 999_999,
        snapshot_ns: 999_999,
    };

    let schema = stats_schema(&snap);
    let value = stats_value(&header, &snap);
    let sparc_layout = Layout::of(&schema, &ArchProfile::SPARC_V8).unwrap();
    let wire = encode_native(&value, &sparc_layout).unwrap();

    let mut reader = Reader::new(&ArchProfile::X86_64);
    reader.expect(&schema).unwrap();
    reader
        .on_format(9, &serialize_layout(&Arc::new(sparc_layout)))
        .unwrap();
    assert!(!reader.is_zero_copy(9), "sparc -> x86-64 must convert");
    let view = reader.on_data(9, &wire).unwrap();
    let decoded = view.to_value().unwrap();

    let (header2, snap2) = snapshot_from_value(&decoded).unwrap();
    assert_eq!(header2, header);
    assert_eq!(snap2, snap);
}

/// Client-side books mirror the daemon's: byte counters both ways, pool
/// use (publish encodes only — received events are viewed in place),
/// and the bounded pending queue's drop-oldest policy
/// surfacing in `ClientStats::dropped`.
#[test]
fn client_stats_track_bytes_pool_and_poll_overflow_drops() {
    let daemon = ServDaemon::bind_with(
        "127.0.0.1:0",
        ServConfig {
            queue_capacity: 1024,
            stats_interval: None,
            trace: TraceConfig::default(),
            ..ServConfig::default()
        },
    )
    .unwrap();
    let addr = daemon.local_addr();
    let schema = tick_schema();

    let mut sub = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
    let chan = sub.open_channel("flood").unwrap();
    sub.subscribe(chan, &schema, None).unwrap();

    let mut publisher = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
    let format = publisher.register_format(&schema).unwrap();
    let chan = publisher.open_channel("flood").unwrap();
    const FLOOD: usize = 400;
    for seq in 0..FLOOD {
        publisher
            .publish_value(chan, format, &tick(seq as i32))
            .unwrap();
    }
    // Sync barrier: this ack is processed by the daemon strictly after
    // every publish above, so all events sit in the subscriber's outbound
    // queue (and on the socket, ahead of any later reply to it).
    publisher.open_channel("sync").unwrap();

    // The subscriber now makes an acknowledged request; all FLOOD events
    // arrive before its ack and must be buffered — but only up to the
    // bounded budget, dropping oldest beyond it.
    sub.open_channel("extra").unwrap();
    let stats = sub.stats();
    assert!(
        stats.dropped > 0,
        "pending-queue overflow must drop events (got {stats:?})"
    );

    let mut received = 0;
    while sub.poll(Duration::from_millis(300)).unwrap().is_some() {
        received += 1;
    }
    let stats = sub.stats();
    assert_eq!(
        received as u64 + stats.dropped,
        FLOOD as u64,
        "every flooded event was either delivered or counted dropped"
    );
    assert_eq!(stats.events, received as u64);
    assert_eq!(stats.zero_copy_events, received as u64);
    assert!(stats.bytes_in > 0);
    assert!(stats.bytes_out > 0);
    assert_eq!(
        stats.pool_hits + stats.pool_misses,
        0,
        "events are viewed in the receive buffer, never copied into pooled scratch"
    );

    // The registry view and the fixed-field view are the same books.
    let reg_snap = sub.registry().snapshot();
    assert_eq!(reg_snap.counter("client_events"), Some(stats.events));
    assert_eq!(reg_snap.counter("client_dropped"), Some(stats.dropped));
    assert_eq!(reg_snap.counter("pool_hits"), Some(stats.pool_hits));

    let pub_stats = publisher.stats();
    assert!(pub_stats.bytes_out > 0);
    assert!(
        pub_stats.pool_hits > 0,
        "steady-state encodes recycle the pool"
    );
    let pub_reg = publisher.registry().snapshot();
    assert!(pub_reg.histogram("client_encode_ns").unwrap().count >= FLOOD as u64);
    daemon.shutdown();
}

/// Cross-shard traffic shows up in per-shard accounting twice over: the
/// topology snapshot's per-shard rows (each reactor's connection count
/// and wakeups) and the `$stats` registry's labeled metrics (names
/// arrive field-sanitized, one per shard index).
#[test]
fn per_shard_metrics_label_every_reactor() {
    let daemon = ServDaemon::bind_with(
        "127.0.0.1:0",
        ServConfig {
            shards: 2,
            stats_interval: None,
            trace: TraceConfig::default(),
            ..ServConfig::default()
        },
    )
    .unwrap();
    let addr = daemon.local_addr();
    let schema = tick_schema();

    // Round-robin accept: these two land on different reactors, so the
    // publish below crosses shards on its way to the subscriber.
    let mut sub = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
    let chan = sub.open_channel("cross").unwrap();
    sub.subscribe(chan, &schema, None).unwrap();
    let mut publisher = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
    let format = publisher.register_format(&schema).unwrap();
    let chan = publisher.open_channel("cross").unwrap();
    const EVENTS: i32 = 20;
    for seq in 0..EVENTS {
        publisher.publish_value(chan, format, &tick(seq)).unwrap();
    }
    let mut got = 0;
    let deadline = Instant::now() + Duration::from_secs(10);
    while got < EVENTS && Instant::now() < deadline {
        if sub.poll(Duration::from_millis(100)).unwrap().is_some() {
            got += 1;
        }
    }
    assert_eq!(got, EVENTS, "cross-shard events all arrived");

    // Topology view: both reactors exist, each owns one of the two
    // connections, and each has woken to serve its side of the traffic.
    let topo = daemon.topology();
    assert_eq!(topo.shards.len(), 2);
    assert_eq!(topo.shards.iter().map(|s| s.conns).sum::<i64>(), 2);
    for sh in &topo.shards {
        assert!(sh.wakeups > 0, "shard {} never woke", sh.shard);
    }
    let owners: HashSet<u32> = topo.conns.iter().map(|c| c.shard).collect();
    assert_eq!(owners.len(), 2, "connections spread across both shards");

    // The same accounting flows over `$stats` as labeled per-shard
    // metrics, one set per shard index.
    let (_, snap) = publisher.pull_stats().unwrap();
    for shard in 0..2 {
        assert!(
            snap.counter(&format!("serv_shard_wakeups_shard__{shard}__"))
                .unwrap()
                > 0
        );
        assert!(snap
            .gauge(&format!("serv_shard_conns_shard__{shard}__"))
            .is_some());
    }
    daemon.shutdown();
}

/// Consumer-lag watermarks on a durable channel: a subscriber's
/// delivered offset is tracked per (channel, connection) with publisher
/// and subscriber pinned to different reactor shards, converges to the
/// log head once the subscriber drains, is exported both in the
/// topology snapshot and as a labeled `serv_consumer_lag` gauge on
/// `$stats`, and disappears when the subscriber leaves.
#[test]
fn consumer_lag_watermarks_converge_across_shards() {
    let dir = std::env::temp_dir().join(format!("pbio-obs-lag-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let daemon = ServDaemon::bind_with(
        "127.0.0.1:0",
        ServConfig {
            shards: 2,
            stats_interval: None,
            trace: TraceConfig::default(),
            durability: Some(StoreConfig {
                flush: FlushPolicy::EveryBatch,
                ..StoreConfig::new(dir.clone())
            }),
            ..ServConfig::default()
        },
    )
    .unwrap();
    let addr = daemon.local_addr();
    let schema = tick_schema();

    let mut publisher = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
    let format = publisher.register_format(&schema).unwrap();
    let chan = publisher.open_channel_durable("lagged").unwrap();
    const HISTORY: u64 = 50;
    for seq in 0..HISTORY {
        publisher
            .publish_value(chan, format, &tick(seq as i32))
            .unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(15);
    while publisher.stats().publishes_acked < HISTORY && Instant::now() < deadline {
        let _ = publisher.poll(Duration::from_millis(50)).unwrap();
    }
    assert_eq!(publisher.stats().publishes_acked, HISTORY);

    // Live durable subscriber on the other shard: its watermark starts
    // at the head it joined at, then tracks the tail publishes.
    let mut sub = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
    let sub_chan = sub.open_channel("lagged").unwrap();
    sub.subscribe(sub_chan, &schema, None).unwrap();
    const TAIL: u64 = 30;
    for seq in HISTORY..HISTORY + TAIL {
        publisher
            .publish_value(chan, format, &tick(seq as i32))
            .unwrap();
    }
    let mut got = 0;
    let deadline = Instant::now() + Duration::from_secs(10);
    while got < TAIL && Instant::now() < deadline {
        if sub.poll(Duration::from_millis(100)).unwrap().is_some() {
            got += 1;
        }
    }
    assert_eq!(got, TAIL, "subscriber drained the tail");

    // The watermark converges to exactly the log head.
    let total = HISTORY + TAIL;
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let topo = daemon.topology();
        let row = topo
            .lags
            .iter()
            .find(|l| l.chan == sub_chan && l.conn == sub.conn_id());
        if let Some(row) = row {
            if row.head == total && row.delivered == total {
                assert_eq!(row.lag(), 0);
                break;
            }
        }
        assert!(
            Instant::now() < deadline,
            "lag never converged: {:?}",
            daemon.topology().lags
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // The same watermark rides `$stats` as a two-label gauge, keyed by
    // channel name and connection id (sanitized for the wire schema).
    let (_, snap) = publisher.pull_stats().unwrap();
    let gauge = format!("serv_consumer_lag_chan__lagged__conn__{}__", sub.conn_id());
    assert_eq!(snap.gauge(&gauge), Some(0), "exported lag gauge is 0");

    // Teardown drops the watermark with the connection.
    sub.disconnect().unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while !daemon.topology().lags.is_empty() {
        assert!(
            Instant::now() < deadline,
            "lag entries survived their subscriber"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Golden wire images of the records the bounded buffers carry: a change
/// to how a queue holds them must never change what reaches the wire.
/// Each is pinned as its length plus a CRC-32 of the native x86-64 image.
fn golden(value: &RecordValue, schema: &Schema) -> (usize, u32) {
    let layout = Layout::of(schema, &ArchProfile::X86_64).unwrap();
    let bytes = encode_native(value, &layout).unwrap();
    (bytes.len(), pbio_net::crc::crc32(&bytes))
}

#[test]
fn golden_trace_hop_record() {
    let hop = TraceHop {
        trace_id: 0x0123_4567_89ab_cdef,
        span_id: 7,
        hop: HOP_FLUSH,
        conn: 42,
        channel: 3,
        t_ns: 1_000_000_123,
        dur_ns: 4_567,
    };
    let got = golden(&hop_value(&hop), &hop_schema());
    assert_eq!(got, (40, 2_338_268_018));
}

#[test]
fn golden_stats_record() {
    let mut h = HistogramSnapshot {
        count: 3,
        sum: 70_800,
        ..HistogramSnapshot::default()
    };
    h.buckets[10] = 1;
    h.buckets[16] = 2;
    let snap = Snapshot {
        counters: vec![("serv_events_in".into(), 12), ("serv_dropped".into(), 1)],
        gauges: vec![("serv_connections".into(), -2)],
        histograms: vec![("serv_fanout_ns".into(), h)],
        traces: vec![("drop".into(), 1_000, 3), ("stats_tick".into(), 2_000, 4)],
    };
    let header = StatsHeader {
        role: ROLE_DAEMON,
        id: 9,
        seq: 5,
        t_ns: 123_456_789,
        snapshot_ns: 987_654_321,
    };
    let got = golden(&stats_value(&header, &snap), &stats_schema(&snap));
    assert_eq!(got, (1960, 1_545_545_255));
}

/// A topology capture that fills every section, overflows `conns` and
/// `flight` past their wire caps, and carries the values the encoder
/// special-cases: an unpinned shard (`cpu: -1`), a negative `ready`
/// gauge and a channel name longer than the 8 packed bytes.
fn golden_topo() -> TopoSnapshot {
    let n = |i: usize| i as u64;
    TopoSnapshot {
        t_ns: 1_700_000_000_000,
        conn_total: n(TOPO_CONN_CAP + 3),
        chan_total: 2,
        lag_total: 2,
        flight_total: n(FLIGHT_EXPORT_CAP + 5),
        conns: (0..TOPO_CONN_CAP + 3)
            .map(|i| TopoConn {
                conn: i as u32 + 1,
                shard: (i % 2) as u32,
                caps: 0x7,
                queue_depth: n(i % 5),
                bytes_sent: n(i * 1000),
                frames_sent: n(i * 10),
                tapped: n(i / 2),
                last_active_ns: n(5_000 + i),
            })
            .collect(),
        channels: vec![
            TopoChannel {
                id: 1,
                name: "ticks".into(),
                subscribers: 3,
                publishes: 4_000,
                durable: true,
                head: 4_000,
                segments: 2,
                disk_bytes: 468_000,
                home: 1,
            },
            TopoChannel {
                id: 2,
                name: "a-long-channel-name".into(),
                subscribers: 1,
                publishes: 9,
                ..TopoChannel::default()
            },
        ],
        shards: vec![
            TopoShard {
                shard: 0,
                conns: 40,
                ready: 2,
                wakeups: 77,
                cpu: 1,
            },
            TopoShard {
                shard: 1,
                conns: 27,
                ready: -3,
                wakeups: 12,
                cpu: -1,
            },
        ],
        lags: vec![
            TopoLag {
                chan: 1,
                conn: 4,
                head: 4_000,
                delivered: 1_500,
            },
            TopoLag {
                chan: 1,
                conn: 5,
                head: 4_000,
                delivered: 4_000,
            },
        ],
        flight: (0..FLIGHT_EXPORT_CAP + 5)
            .map(|i| FlightEvent {
                t_ns: n(10_000 + i),
                kind: (i % 13) as u32 + 1,
                conn: i as u32,
                chan: (i % 3) as u32,
                code: (i % 2) as u32,
                aux: n(i * 7),
            })
            .collect(),
        peers: vec![
            TopoPeer {
                peer: 1,
                connected: true,
                relay_tx: 300,
                relay_rx: 120,
                relay_dropped: 2,
                pending: 5,
                last_rx_ns: 9_999,
            },
            TopoPeer {
                peer: 2,
                ..TopoPeer::default()
            },
        ],
    }
}

#[test]
fn golden_topo_record() {
    let got = golden(&topo_value(&golden_topo()), &topo_schema());
    assert_eq!(got, (16_088, 1_969_541_159));
}

#[test]
fn golden_flight_record() {
    let ev = FlightEvent {
        t_ns: 1_234_567_890,
        kind: FL_PROTO_ERROR,
        conn: 17,
        chan: 4,
        code: 2,
        aux: 0xdead_beef,
    };
    let got = golden(&flight_value(&ev), &flight_schema());
    assert_eq!(got, (32, 2_699_071_474));
}

/// The record bytes alone do not pin field names, so the serialized
/// layout metadata of every fixed observability record is pinned too,
/// for both a little- and a big-endian profile.
#[test]
fn golden_observability_layouts() {
    let crc = |schema: &Schema, profile: &ArchProfile| {
        let layout = Layout::of(schema, profile).unwrap();
        pbio_net::crc::crc32(&serialize_layout(&layout))
    };
    let got: Vec<(u32, u32)> = [topo_schema(), flight_schema(), hop_schema()]
        .iter()
        .map(|s| (crc(s, &ArchProfile::X86_64), crc(s, &ArchProfile::SPARC_V8)))
        .collect();
    let want = vec![
        (3_065_325_553, 4_250_939_014),
        (2_641_329_689, 826_764_619),
        (3_180_211_656, 1_038_085_876),
    ];
    assert_eq!(got, want);
}
