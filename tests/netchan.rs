//! End-to-end exercise of the `pbio-serv` event-channel daemon over
//! loopback TCP: a heterogeneous publisher, subscribers on other
//! architectures (one with a source-side filter), and the zero-copy
//! guarantee for a homogeneous subscriber.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pbio_chan::Predicate;
use pbio_serv::{ServClient, ServConfig, ServDaemon, ServError, TraceConfig};
use pbio_types::arch::ArchProfile;
use pbio_types::schema::{AtomType, FieldDecl, Schema};
use pbio_types::value::{RecordValue, Value};

fn telemetry_schema() -> Schema {
    Schema::new(
        "telemetry",
        vec![
            FieldDecl::atom("seq", AtomType::CInt),
            FieldDecl::atom("temp", AtomType::CDouble),
            FieldDecl::atom("alarm", AtomType::Bool),
        ],
    )
    .unwrap()
}

fn reading(seq: i32, temp: f64, alarm: bool) -> RecordValue {
    RecordValue::new()
        .with("seq", seq)
        .with("temp", temp)
        .with("alarm", alarm)
}

/// Poll `client` until `n` events arrive (bounded), returning
/// `(seq, temp, zero_copy)` per event.
fn collect(client: &mut ServClient, n: usize) -> Vec<(i64, f64, bool)> {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut out = Vec::new();
    while out.len() < n && Instant::now() < deadline {
        let Some(event) = client.poll(Duration::from_millis(200)).unwrap() else {
            continue;
        };
        let Some(Value::I64(seq)) = event.view.get("seq") else {
            panic!("seq missing or mistyped")
        };
        let Some(Value::F64(temp)) = event.view.get("temp") else {
            panic!("temp missing or mistyped")
        };
        out.push((seq, temp, event.view.is_zero_copy()));
    }
    out
}

#[test]
fn cross_architecture_pubsub_with_source_side_filter() {
    let daemon = ServDaemon::bind("127.0.0.1:0").unwrap();
    let addr = daemon.local_addr();
    let schema = telemetry_schema();

    // Publisher compiled for big-endian SPARC; subscribers on two
    // little-endian x86 flavors. All conversion happens at the receivers.
    let mut publisher = ServClient::connect(addr, &ArchProfile::SPARC_V8).unwrap();
    let fmt = publisher.register_format(&schema).unwrap();
    let chan = publisher.open_channel("telemetry").unwrap();

    let mut plain = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
    let plain_chan = plain.open_channel("telemetry").unwrap();
    assert_eq!(plain_chan, chan, "channels are shared by name");
    plain.subscribe(plain_chan, &schema, None).unwrap();

    let mut filtered = ServClient::connect(addr, &ArchProfile::X86).unwrap();
    let filtered_chan = filtered.open_channel("telemetry").unwrap();
    let hot = Predicate::gt("temp", 30.0);
    filtered
        .subscribe(filtered_chan, &schema, Some(&hot))
        .unwrap();

    let readings = [
        reading(1, 25.0, false),
        reading(2, 35.5, false),
        reading(3, 10.0, true),
        reading(4, 40.25, false),
    ];
    for r in &readings {
        publisher.publish_value(chan, fmt, r).unwrap();
    }

    // The unfiltered x86-64 subscriber sees everything, converted.
    let got = collect(&mut plain, 4);
    assert_eq!(
        got,
        vec![
            (1, 25.0, false),
            (2, 35.5, false),
            (3, 10.0, false),
            (4, 40.25, false),
        ],
        "sparc-v8 records must convert exactly on x86-64"
    );
    assert!(!plain.is_zero_copy(fmt));
    assert_eq!(plain.stats().converted_events, 4);
    assert_eq!(plain.stats().zero_copy_events, 0);

    // The filtered x86 subscriber sees only the hot readings; the cold
    // ones were suppressed on the daemon, before transmission.
    let got = collect(&mut filtered, 2);
    assert_eq!(got, vec![(2, 35.5, false), (4, 40.25, false)]);
    assert!(
        filtered.poll(Duration::from_millis(200)).unwrap().is_none(),
        "no extra events"
    );

    let stats = daemon.stats();
    assert_eq!(stats.events_in, 4);
    assert_eq!(
        stats.filtered_at_source, 2,
        "two cold readings filtered at the source"
    );
    assert_eq!(stats.dropped, 0);
    assert_eq!(
        stats.events_out, 6,
        "4 to the plain subscriber + 2 to the filtered one"
    );
    assert_eq!(stats.active_connections, 3);

    publisher.disconnect().unwrap();
    plain.disconnect().unwrap();
    filtered.disconnect().unwrap();
    daemon.shutdown();
}

#[test]
fn homogeneous_subscriber_stays_zero_copy() {
    let daemon = ServDaemon::bind("127.0.0.1:0").unwrap();
    let addr = daemon.local_addr();
    let schema = telemetry_schema();

    let mut publisher = ServClient::connect(addr, &ArchProfile::SPARC_V9_64).unwrap();
    let fmt = publisher.register_format(&schema).unwrap();
    let chan = publisher.open_channel("telemetry").unwrap();

    let mut same_arch = ServClient::connect(addr, &ArchProfile::SPARC_V9_64).unwrap();
    let sub_chan = same_arch.open_channel("telemetry").unwrap();
    same_arch.subscribe(sub_chan, &schema, None).unwrap();

    for i in 0..3 {
        publisher
            .publish_value(chan, fmt, &reading(i, f64::from(i) * 1.5, false))
            .unwrap();
    }

    let got = collect(&mut same_arch, 3);
    assert_eq!(
        got,
        vec![(0, 0.0, true), (1, 1.5, true), (2, 3.0, true)],
        "same-architecture records are used straight from the receive buffer"
    );
    assert!(same_arch.is_zero_copy(fmt));
    assert!(
        same_arch.dcg_stats(fmt).is_none(),
        "no conversion plan may be compiled for the homogeneous path"
    );
    assert_eq!(same_arch.stats().zero_copy_events, 3);
    assert_eq!(same_arch.stats().converted_events, 0);

    publisher.disconnect().unwrap();
    same_arch.disconnect().unwrap();
    daemon.shutdown();
}

#[test]
fn format_metadata_is_registered_once_across_publishers() {
    let daemon = ServDaemon::bind("127.0.0.1:0").unwrap();
    let addr = daemon.local_addr();
    let schema = telemetry_schema();

    let mut p1 = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
    let mut p2 = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
    let mut p3 = ServClient::connect(addr, &ArchProfile::MIPS_64).unwrap();
    let f1 = p1.register_format(&schema).unwrap();
    let f2 = p2.register_format(&schema).unwrap();
    let f3 = p3.register_format(&schema).unwrap();
    assert_eq!(
        f1, f2,
        "identical layouts from different sessions share one id"
    );
    assert_ne!(
        f1, f3,
        "a different architecture is a different wire format"
    );
    assert_eq!(daemon.formats().len(), 2);

    p1.disconnect().unwrap();
    p2.disconnect().unwrap();
    p3.disconnect().unwrap();
    daemon.shutdown();
}

#[test]
fn daemon_rejects_bad_requests_with_typed_errors() {
    let daemon = ServDaemon::bind("127.0.0.1:0").unwrap();
    let addr = daemon.local_addr();
    let schema = telemetry_schema();

    let mut client = ServClient::connect(addr, &ArchProfile::X86).unwrap();

    // Subscribing to a channel nobody opened.
    let err = client.subscribe(42, &schema, None).unwrap_err();
    assert!(
        matches!(err, ServError::Remote { code, .. } if code == pbio_serv::protocol::E_CHANNEL),
        "{err}"
    );

    // Publishing with a format id this client never registered fails
    // locally, before any bytes hit the wire.
    let chan = client.open_channel("telemetry").unwrap();
    let err = client.publish(chan, 7, &[0u8; 64]).unwrap_err();
    assert!(matches!(err, ServError::UnknownFormat(7)), "{err}");

    // A payload shorter than the registered layout is refused locally too.
    let fmt = client.register_format(&schema).unwrap();
    let err = client.publish(chan, fmt, &[0u8; 2]).unwrap_err();
    assert!(matches!(err, ServError::Protocol(_)), "{err}");

    // The session is still healthy after the rejections.
    client.subscribe(chan, &schema, None).unwrap();
    client
        .publish_value(chan, fmt, &reading(9, 1.0, false))
        .unwrap();
    let got = collect(&mut client, 1);
    assert_eq!(got, vec![(9, 1.0, true)]);

    client.disconnect().unwrap();
    daemon.shutdown();
}

#[test]
fn slow_subscriber_backpressure_drops_oldest_not_newest() {
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
    let addr = daemon.local_addr();
    let schema = telemetry_schema();

    let mut publisher = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
    let fmt = publisher.register_format(&schema).unwrap();
    let chan = publisher.open_channel("firehose").unwrap();

    let mut slow = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
    let sub_chan = slow.open_channel("firehose").unwrap();
    slow.subscribe(sub_chan, &schema, None).unwrap();

    // Flood far past the queue capacity without the subscriber draining.
    let total = 500;
    for i in 0..total {
        publisher
            .publish_value(chan, fmt, &reading(i, 0.0, false))
            .unwrap();
    }

    // Wait for the daemon to ingest the whole flood.
    let deadline = Instant::now() + Duration::from_secs(10);
    while daemon.stats().events_in < u64::from(total as u32) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(daemon.stats().events_in, 500);

    // Drain: the subscriber must observe a suffix-biased subset ending in
    // the *newest* event — drop-oldest never sacrifices fresh data.
    let mut seqs = Vec::new();
    let drain_deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < drain_deadline {
        match slow.poll(Duration::from_millis(300)).unwrap() {
            Some(event) => {
                let Some(Value::I64(seq)) = event.view.get("seq") else {
                    panic!()
                };
                seqs.push(seq);
            }
            None => break,
        }
    }
    assert!(!seqs.is_empty());
    assert!(
        seqs.windows(2).all(|w| w[0] < w[1]),
        "delivery preserves publish order"
    );
    assert_eq!(
        *seqs.last().unwrap(),
        499,
        "the newest event always survives"
    );
    let stats = daemon.stats();
    assert_eq!(
        stats.dropped + stats.events_out,
        500,
        "every event was either delivered or counted as dropped"
    );

    publisher.disconnect().unwrap();
    slow.disconnect().unwrap();
    daemon.shutdown();
}

#[test]
fn drop_oldest_accounting_is_exact_across_many_slow_subscribers() {
    // Several subscribers behind tiny queues, flooded while none of them
    // drain: the batched writer and the drop-oldest policy together must
    // keep the global ledger exact — every (subscriber, event) pair is
    // either written to a socket or counted as dropped, never both, never
    // neither — and each subscriber still sees an ordered, newest-ending
    // suffix of the flood.
    const SUBS: usize = 3;
    const TOTAL: i32 = 400;

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
    let addr = daemon.local_addr();
    let schema = telemetry_schema();

    let mut publisher = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
    let fmt = publisher.register_format(&schema).unwrap();
    let chan = publisher.open_channel("firehose").unwrap();

    let mut subs = Vec::new();
    for _ in 0..SUBS {
        let mut s = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
        let c = s.open_channel("firehose").unwrap();
        s.subscribe(c, &schema, None).unwrap();
        subs.push(s);
    }

    for i in 0..TOTAL {
        publisher
            .publish_value(chan, fmt, &reading(i, 0.0, false))
            .unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while daemon.stats().events_in < TOTAL as u64 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(daemon.stats().events_in, TOTAL as u64);

    // Drain every subscriber to exhaustion; the flood has fully landed, so
    // once a poll times out that subscriber's stream is finished.
    let mut received_total = 0u64;
    for (n, sub) in subs.iter_mut().enumerate() {
        let mut seqs = Vec::new();
        let drain_deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < drain_deadline {
            match sub.poll(Duration::from_millis(300)).unwrap() {
                Some(event) => {
                    let Some(Value::I64(seq)) = event.view.get("seq") else {
                        panic!()
                    };
                    seqs.push(seq);
                }
                None => break,
            }
        }
        assert!(!seqs.is_empty(), "subscriber {n} starved");
        assert!(
            seqs.windows(2).all(|w| w[0] < w[1]),
            "subscriber {n} saw out-of-order delivery"
        );
        assert_eq!(
            *seqs.last().unwrap(),
            i64::from(TOTAL - 1),
            "subscriber {n} lost the newest event"
        );
        received_total += seqs.len() as u64;
    }

    let stats = daemon.stats();
    assert_eq!(
        stats.events_out + stats.dropped,
        TOTAL as u64 * SUBS as u64,
        "ledger must balance: {stats:?}"
    );
    assert_eq!(
        stats.events_out, received_total,
        "every written event was received exactly once"
    );
    assert_eq!(stats.filtered_at_source, 0);
    assert!(stats.dropped > 0, "the flood must overrun a queue of 8");
    assert!(stats.writes > 0 && stats.bytes_out > 0);
    // Per-connection ledgers sum to the global one (plus control traffic:
    // acks and the one ANNOUNCE per subscriber are frames too).
    let conn_frames: u64 = daemon.conn_stats().iter().map(|c| c.frames_sent).sum();
    assert!(
        conn_frames >= received_total,
        "per-connection frame counts ({conn_frames}) must cover all \
         delivered events ({received_total})"
    );
    // `writes` counts writev syscalls. 400 small events never fill a
    // loopback socket buffer, so every writev carries at least one whole
    // frame; a header and its body sent as two writes would break this.
    let conn_writes: u64 = daemon.conn_stats().iter().map(|c| c.writes).sum();
    assert!(
        conn_writes <= conn_frames,
        "{conn_writes} writev calls for {conn_frames} frames"
    );

    publisher.disconnect().unwrap();
    for s in subs {
        s.disconnect().unwrap();
    }
    daemon.shutdown();
}

/// High-connection smoke for the reactor core: 512 concurrent
/// subscribers on a handful of shards, every one of them receiving every
/// event exactly once and in order, while the daemon's thread count
/// stays O(shards) — the property the event-driven rewrite exists for.
#[test]
fn five_hundred_twelve_subscribers_exact_delivery() {
    const SUBS: usize = 512;
    const EVENTS: i64 = 16;

    let daemon = ServDaemon::bind_with(
        "127.0.0.1:0",
        ServConfig {
            queue_capacity: 64,
            stats_interval: None,
            // No background stats/trace publisher: the thread-count
            // assertion below is exact.
            trace: TraceConfig {
                sample_mod: 0,
                publish_interval: None,
                sink_capacity: 16,
            },
            shards: 4,
            ..ServConfig::default()
        },
    )
    .unwrap();
    let addr = daemon.local_addr();
    let schema = telemetry_schema();

    let ready = Arc::new(AtomicUsize::new(0));
    let mut threads = Vec::with_capacity(SUBS);
    for n in 0..SUBS {
        let schema = schema.clone();
        let ready = ready.clone();
        // The subscribers are load, not the system under test: small
        // stacks keep 512 of them cheap.
        let t = std::thread::Builder::new()
            .stack_size(128 * 1024)
            .spawn(move || {
                let mut client = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
                let chan = client.open_channel("smoke").unwrap();
                client.subscribe(chan, &schema, None).unwrap();
                ready.fetch_add(1, Ordering::Release);
                let mut seqs = Vec::new();
                let deadline = Instant::now() + Duration::from_secs(60);
                while (seqs.len() as i64) < EVENTS && Instant::now() < deadline {
                    if let Some(ev) = client.poll(Duration::from_millis(200)).unwrap() {
                        let Some(Value::I64(seq)) = ev.view.get("seq") else {
                            panic!("subscriber {n}: seq missing")
                        };
                        seqs.push(seq);
                    }
                }
                assert_eq!(
                    seqs,
                    (0..EVENTS).collect::<Vec<_>>(),
                    "subscriber {n} must see every event exactly once, in order"
                );
                client.disconnect().unwrap();
            })
            .unwrap();
        threads.push(t);
    }

    let mut publisher = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
    let fmt = publisher.register_format(&schema).unwrap();
    let chan = publisher.open_channel("smoke").unwrap();
    let setup = Instant::now();
    while ready.load(Ordering::Acquire) < SUBS {
        assert!(
            setup.elapsed() < Duration::from_secs(60),
            "subscribers stalled at {}/{SUBS}",
            ready.load(Ordering::Acquire)
        );
        std::thread::yield_now();
    }

    // All 513 connections live on a fixed reactor pool: one accept
    // thread plus four shards, nothing per-connection.
    assert_eq!(
        daemon.thread_count(),
        5,
        "daemon threads must be O(shards), not O(connections)"
    );

    for seq in 0..EVENTS {
        publisher
            .publish_value(chan, fmt, &reading(seq as i32, 0.0, false))
            .unwrap();
    }
    for t in threads {
        t.join().expect("subscriber thread");
    }
    let stats = daemon.stats();
    assert_eq!(stats.dropped, 0, "deep queues: nothing may drop: {stats:?}");
    assert_eq!(stats.events_in, EVENTS as u64);
    assert_eq!(stats.events_out, EVENTS as u64 * SUBS as u64);

    publisher.disconnect().unwrap();
    daemon.shutdown();
}

/// Publish ordering across shard boundaries: the publisher's connection
/// lives on one reactor shard, the subscribers on others, and the
/// cross-shard handoff (publish under the fan-out lock → per-connection
/// queue → owning shard's flush) must preserve publish order for every
/// subscriber with no event lost or duplicated.
#[test]
fn cross_shard_publish_ordering_is_exact() {
    const SUBS: usize = 6;
    const EVENTS: i64 = 300;

    let daemon = ServDaemon::bind_with(
        "127.0.0.1:0",
        ServConfig {
            queue_capacity: EVENTS as usize + 16,
            stats_interval: None,
            trace: TraceConfig::default(),
            // More connections than shards, so publisher and subscribers
            // are spread round-robin across distinct reactors.
            shards: 3,
            ..ServConfig::default()
        },
    )
    .unwrap();
    let addr = daemon.local_addr();
    let schema = telemetry_schema();

    let mut publisher = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
    let fmt = publisher.register_format(&schema).unwrap();
    let chan = publisher.open_channel("ordered").unwrap();

    let mut subs = Vec::new();
    for _ in 0..SUBS {
        let mut s = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
        let c = s.open_channel("ordered").unwrap();
        s.subscribe(c, &schema, None).unwrap();
        subs.push(s);
    }

    for seq in 0..EVENTS {
        publisher
            .publish_value(chan, fmt, &reading(seq as i32, 0.0, false))
            .unwrap();
    }

    for (n, sub) in subs.iter_mut().enumerate() {
        let mut seqs = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(20);
        while (seqs.len() as i64) < EVENTS && Instant::now() < deadline {
            if let Some(ev) = sub.poll(Duration::from_millis(200)).unwrap() {
                let Some(Value::I64(seq)) = ev.view.get("seq") else {
                    panic!()
                };
                seqs.push(seq);
            }
        }
        assert_eq!(
            seqs,
            (0..EVENTS).collect::<Vec<_>>(),
            "subscriber {n} must see the exact publish order across shards"
        );
    }
    assert_eq!(daemon.stats().dropped, 0);

    publisher.disconnect().unwrap();
    for s in subs {
        s.disconnect().unwrap();
    }
    daemon.shutdown();
}
