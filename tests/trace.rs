//! Distributed tracing end to end: wire-propagated trace context,
//! six-hop timeline reconstruction over the `$trace` channel, trailer
//! negotiation interop in both directions (old client ↔ new daemon,
//! new client ↔ old daemon), malformed-trailer rejection with the
//! session intact, and the runtime sampling toggle.

use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use pbio_net::frame::{read_frame, write_frame, Frame};
use pbio_obs::export::hop_from_value;
use pbio_obs::{TraceCtx, TraceHop, FLAG_SAMPLED, HOP_DECODE, HOP_PUBLISH, HOP_REQUIRED};
use pbio_serv::protocol::PROTOCOL_VERSION;
use pbio_serv::protocol::{
    E_CHANNEL, E_PROTOCOL, K_ANNOUNCE, K_BYE, K_BYE_ACK, K_CHANNEL, K_CHANNEL_ACK, K_EVENT,
    K_FORMAT, K_FORMAT_ACK, K_HELLO, K_HELLO_ACK, K_PUBLISH, K_SUBSCRIBE, K_SUBSCRIBE_ACK,
    OFFSET_FLAG, TRACE_FLAG,
};
use pbio_serv::{
    FlushPolicy, ServClient, ServConfig, ServDaemon, ServError, StoreConfig, TraceConfig,
    CAP_DURABLE, CAP_TRACE, CHAN_DURABLE, TRACE_CHANNEL,
};
use pbio_types::arch::ArchProfile;
use pbio_types::layout::Layout;
use pbio_types::meta::serialize_layout;
use pbio_types::schema::{AtomType, FieldDecl, Schema};
use pbio_types::value::{decode_native, RecordValue};

fn sample_schema() -> Schema {
    Schema::new(
        "trace-e2e",
        vec![
            FieldDecl::atom("seq", AtomType::U32),
            FieldDecl::atom("load", AtomType::CDouble),
        ],
    )
    .unwrap()
}

fn traced_daemon(sample_mod: u32) -> ServDaemon {
    ServDaemon::bind_with(
        "127.0.0.1:0",
        ServConfig {
            queue_capacity: 1024,
            stats_interval: None,
            trace: TraceConfig {
                sample_mod,
                publish_interval: Some(Duration::from_millis(50)),
                sink_capacity: 4096,
            },
            ..ServConfig::default()
        },
    )
    .unwrap()
}

/// The tentpole acceptance: a traced publish crosses the wire, every
/// stage stamps a hop, and a monitor on `$trace` reconstructs the full
/// publish → ingress → filter → enqueue → flush → decode timeline in
/// causal order on one time axis.
#[test]
fn traced_publish_reconstructs_six_hop_timeline() {
    let daemon = traced_daemon(1); // sample every publish
    let addr = daemon.local_addr();
    let schema = sample_schema();

    let mut monitor = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
    let trace_chan = monitor.open_channel(TRACE_CHANNEL).unwrap();
    monitor.subscribe_raw(trace_chan, None).unwrap();

    let mut subscriber = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
    let chan = subscriber.open_channel("trace-e2e").unwrap();
    let sub_trace_chan = subscriber.open_channel(TRACE_CHANNEL).unwrap();
    subscriber.subscribe(chan, &schema, None).unwrap();

    let mut publisher = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
    assert!(publisher.trace_negotiated());
    assert_eq!(publisher.trace_sampling(), 1, "modulus adopted from HELLO");
    let fmt = publisher.register_format(&schema).unwrap();
    let pub_chan = publisher.open_channel("trace-e2e").unwrap();

    for seq in 0..10u32 {
        let value = RecordValue::new().with("seq", seq).with("load", 0.5f64);
        publisher.publish_value(pub_chan, fmt, &value).unwrap();
    }

    // Drain the events at the subscriber (stamping decode hops), then
    // export those hops onto $trace.
    let mut received = 0;
    let deadline = Instant::now() + Duration::from_secs(10);
    while received < 10 && Instant::now() < deadline {
        if subscriber
            .poll(Duration::from_millis(100))
            .unwrap()
            .is_some()
        {
            received += 1;
        }
    }
    assert_eq!(received, 10);
    assert!(subscriber.publish_trace(sub_trace_chan).unwrap() > 0);

    // Collect hop records until some trace id has all six stages.
    let mut hops: Vec<TraceHop> = Vec::new();
    let complete = 'collect: loop {
        assert!(
            Instant::now() < deadline,
            "no complete timeline after {} hops: {hops:?}",
            hops.len()
        );
        let Some(ev) = monitor.poll_raw(Duration::from_millis(200)).unwrap() else {
            continue;
        };
        let value = decode_native(ev.bytes, &ev.layout).unwrap();
        if let Some(hop) = hop_from_value(&value) {
            hops.push(hop);
        }
        let Some(last) = hops.last() else { continue };
        let id = last.trace_id;
        let mut seen = [false; HOP_REQUIRED];
        for h in hops.iter().filter(|h| h.trace_id == id) {
            seen[h.hop as usize] = true;
        }
        if seen.iter().all(|&s| s) {
            break 'collect id;
        }
    };

    let timeline: Vec<&TraceHop> = hops.iter().filter(|h| h.trace_id == complete).collect();
    // Earliest stamp per stage must be causally ordered (one shared
    // daemon timebase; allow a little cross-process correction residue).
    let mut earliest = [u64::MAX; HOP_REQUIRED];
    for h in &timeline {
        earliest[h.hop as usize] = earliest[h.hop as usize].min(h.t_ns);
    }
    const SLACK_NS: u64 = 2_000_000;
    for stage in 1..HOP_REQUIRED {
        assert!(
            earliest[stage] + SLACK_NS >= earliest[stage - 1],
            "stage {stage} out of causal order: {timeline:?}"
        );
    }

    let publish = timeline.iter().find(|h| h.hop == HOP_PUBLISH).unwrap();
    assert_eq!(publish.dur_ns, 0, "publish is the origin");
    assert_eq!(publish.channel, pub_chan);
    let decode = timeline.iter().find(|h| h.hop == HOP_DECODE).unwrap();
    assert_eq!(decode.conn, subscriber.conn_id());
    assert!(
        decode.dur_ns < 10_000_000_000,
        "decode latency implausible: {decode:?}"
    );

    // The subscriber recorded the per-channel decode histogram under the
    // channel's *name*, resolved without touching the untraced path.
    let snap = subscriber.registry().snapshot();
    let decode_hist = snap.histogram("hop_decode_ns{chan=\"trace-e2e\"}").unwrap();
    assert!(decode_hist.count >= 10);

    daemon.shutdown();
}

/// Minimal frame-level peer: what a pre-tracing client looks like on
/// the wire (or a misbehaving one, when we want to hand-craft frames).
struct RawPeer {
    stream: TcpStream,
}

impl RawPeer {
    fn connect(addr: std::net::SocketAddr, caps: u32) -> RawPeer {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        write_frame(
            &mut stream,
            &Frame::with_body(K_HELLO, PROTOCOL_VERSION, caps, b"x86-64".as_slice()),
        )
        .unwrap();
        let ack = read_frame(&mut stream).unwrap();
        assert_eq!(ack.kind, K_HELLO_ACK);
        RawPeer { stream }
    }

    fn send(&mut self, frame: &Frame) {
        write_frame(&mut self.stream, frame).unwrap();
    }

    fn recv(&mut self) -> Frame {
        read_frame(&mut self.stream).unwrap()
    }

    fn roundtrip(&mut self, frame: &Frame) -> Frame {
        self.send(frame);
        self.recv()
    }

    fn register(&mut self, layout: &Layout) -> u32 {
        let ack = self.roundtrip(&Frame::with_body(K_FORMAT, 1, 0, serialize_layout(layout)));
        assert_eq!(ack.kind, K_FORMAT_ACK);
        ack.b
    }

    fn open(&mut self, name: &str) -> u32 {
        self.open_flags(name, 0)
    }

    fn open_flags(&mut self, name: &str, flags: u32) -> u32 {
        let ack = self.roundtrip(&Frame::with_body(K_CHANNEL, 2, flags, name.as_bytes()));
        assert_eq!(ack.kind, K_CHANNEL_ACK);
        ack.b
    }

    fn subscribe(&mut self, chan: u32) {
        let ack = self.roundtrip(&Frame::control(K_SUBSCRIBE, chan, 0));
        assert_eq!((ack.kind, ack.a), (K_SUBSCRIBE_ACK, chan));
    }

    /// The next `K_EVENT`, skipping the `K_ANNOUNCE` frames before it.
    fn next_event(&mut self) -> Frame {
        loop {
            let f = self.recv();
            match f.kind {
                K_EVENT => return f,
                K_ANNOUNCE => {}
                other => panic!("expected an event, got frame kind {other:#04x}"),
            }
        }
    }

    fn bye(mut self) {
        let ack = self.roundtrip(&Frame::control(K_BYE, 0, 0));
        assert_eq!(ack.kind, K_BYE_ACK, "session must still be serviceable");
    }
}

/// Interop, old client → new daemon: a subscriber that never offered
/// `CAP_TRACE` receives plain events — no `TRACE_FLAG`, no trailer —
/// even while the publisher's events are sampled and traced.
#[test]
fn old_subscriber_receives_untraced_frames() {
    let daemon = traced_daemon(1);
    let addr = daemon.local_addr();
    let schema = sample_schema();
    let layout = Layout::of(&schema, &ArchProfile::X86_64).unwrap();

    let mut old = RawPeer::connect(addr, 0); // offers no capabilities
    let chan = old.open("trace-e2e");
    let ack = old.roundtrip(&Frame::control(K_SUBSCRIBE, chan, 0));
    assert_eq!(ack.kind, K_SUBSCRIBE_ACK);

    let mut publisher = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
    assert!(publisher.trace_negotiated());
    let fmt = publisher.register_format(&schema).unwrap();
    let pub_chan = publisher.open_channel("trace-e2e").unwrap();
    let value = RecordValue::new().with("seq", 7u32).with("load", 1.0f64);
    publisher.publish_value(pub_chan, fmt, &value).unwrap();

    // ANNOUNCE precedes the event; the event must be pre-tracing clean.
    let mut event = old.recv();
    while event.kind != K_EVENT {
        event = old.recv();
    }
    assert_eq!(event.a, chan);
    assert_eq!(
        event.b & TRACE_FLAG,
        0,
        "no trailer flag without negotiation"
    );
    assert_eq!(
        event.body.len(),
        layout.size(),
        "no trailer bytes without negotiation"
    );
    old.bye();
    daemon.shutdown();
}

/// Interop, new client → old daemon: a daemon that answers HELLO with
/// an empty ack body (no capability grant) gets trailer-free publishes
/// from a tracing-capable client.
#[test]
fn new_client_sends_no_trailer_to_old_daemon() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (tx, rx) = mpsc::channel();
    let server = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        loop {
            let f = read_frame(&mut s).unwrap();
            match f.kind {
                // Empty ack body — the pre-tracing daemon's handshake.
                K_HELLO => {
                    write_frame(&mut s, &Frame::control(K_HELLO_ACK, PROTOCOL_VERSION, 9)).unwrap()
                }
                K_FORMAT => write_frame(&mut s, &Frame::control(K_FORMAT_ACK, f.a, 4)).unwrap(),
                K_CHANNEL => write_frame(&mut s, &Frame::control(K_CHANNEL_ACK, f.a, 2)).unwrap(),
                K_PUBLISH => {
                    tx.send((f.b, f.body.len())).unwrap();
                    break;
                }
                other => panic!("old daemon got unexpected frame kind {other:#04x}"),
            }
        }
    });

    let schema = sample_schema();
    let layout = Layout::of(&schema, &ArchProfile::X86_64).unwrap();
    let mut client = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
    assert!(!client.trace_negotiated(), "empty ack body grants nothing");
    assert_eq!(client.trace_sampling(), 0, "sampler stays off");
    let fmt = client.register_format(&schema).unwrap();
    let chan = client.open_channel("trace-e2e").unwrap();
    let value = RecordValue::new().with("seq", 1u32).with("load", 2.0f64);
    client.publish_value(chan, fmt, &value).unwrap();

    let (b, body_len) = rx.recv_timeout(Duration::from_secs(5)).unwrap();
    assert_eq!(b & TRACE_FLAG, 0, "publish must not be flagged");
    assert_eq!(b, fmt);
    assert_eq!(body_len, layout.size(), "no trailer appended");
    server.join().unwrap();
}

/// A peer that never negotiated `CAP_TRACE` but flags a publish anyway
/// is answered with `E_PROTOCOL` — and the session survives the error.
#[test]
fn unnegotiated_trailer_is_rejected_session_survives() {
    let daemon = traced_daemon(1);
    let addr = daemon.local_addr();
    let layout = Layout::of(&sample_schema(), &ArchProfile::X86_64).unwrap();

    let mut peer = RawPeer::connect(addr, 0);
    let fmt = peer.register(&layout);
    let chan = peer.open("trace-e2e");
    let ctx = TraceCtx {
        trace_id: 9,
        span_id: 0,
        origin_ns: 1,
        flags: FLAG_SAMPLED,
    };
    let mut body = vec![0u8; layout.size()];
    body.extend_from_slice(&ctx.encode());
    let err = peer.roundtrip(&Frame::with_body(K_PUBLISH, chan, fmt | TRACE_FLAG, body));
    assert_eq!(err.kind, pbio_serv::protocol::K_ERROR);
    assert_eq!(err.a, E_PROTOCOL);
    assert!(
        String::from_utf8_lossy(&err.body).contains("capability"),
        "error should name the negotiation failure"
    );
    peer.bye();
    daemon.shutdown();
}

/// A flagged publish whose trailer fails to parse (bad reserved bytes,
/// short body) is `E_PROTOCOL`; well-formed publishes on the same
/// session keep flowing afterwards.
#[test]
fn malformed_trailer_is_rejected_session_survives() {
    let daemon = traced_daemon(1);
    let addr = daemon.local_addr();
    let layout = Layout::of(&sample_schema(), &ArchProfile::X86_64).unwrap();

    let mut peer = RawPeer::connect(addr, CAP_TRACE);
    let fmt = peer.register(&layout);
    let chan = peer.open("trace-e2e");

    // Valid length, corrupt reserved byte.
    let ctx = TraceCtx {
        trace_id: 3,
        span_id: 0,
        origin_ns: 1,
        flags: FLAG_SAMPLED,
    };
    let mut trailer = ctx.encode();
    trailer[23] = 0xff;
    let mut body = vec![0u8; layout.size()];
    body.extend_from_slice(&trailer);
    let err = peer.roundtrip(&Frame::with_body(K_PUBLISH, chan, fmt | TRACE_FLAG, body));
    assert_eq!(
        (err.kind, err.a),
        (pbio_serv::protocol::K_ERROR, E_PROTOCOL)
    );
    assert!(String::from_utf8_lossy(&err.body).contains("trailer"));

    // A flagged body too short to hold any trailer at all.
    let err = peer.roundtrip(&Frame::with_body(
        K_PUBLISH,
        chan,
        fmt | TRACE_FLAG,
        vec![0u8; 3],
    ));
    assert_eq!(
        (err.kind, err.a),
        (pbio_serv::protocol::K_ERROR, E_PROTOCOL)
    );

    // The session still publishes: a well-formed traced publish lands.
    let mut body = vec![0u8; layout.size()];
    body.extend_from_slice(&ctx.encode());
    peer.send(&Frame::with_body(K_PUBLISH, chan, fmt | TRACE_FLAG, body));
    let deadline = Instant::now() + Duration::from_secs(5);
    while daemon.stats().events_in == 0 {
        assert!(Instant::now() < deadline, "good publish never landed");
        std::thread::sleep(Duration::from_millis(10));
    }
    peer.bye();
    daemon.shutdown();
}

/// `subscribe_raw` against a channel id the daemon never allocated is a
/// remote `E_CHANNEL` error, and the client object remains usable.
#[test]
fn subscribe_raw_unknown_channel_is_remote_error() {
    let daemon = traced_daemon(0);
    let addr = daemon.local_addr();
    let mut client = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
    match client.subscribe_raw(0xdead, None) {
        Err(ServError::Remote { code, .. }) => assert_eq!(code, E_CHANNEL),
        other => panic!("expected remote E_CHANNEL, got {other:?}"),
    }
    // The same session recovers: a real subscription still works.
    let chan = client.open_channel("recover").unwrap();
    client.subscribe_raw(chan, None).unwrap();
    daemon.shutdown();
}

/// Client-side event decoding error paths, driven by a hand-rolled
/// daemon: an event for a format never announced, a flagged event with
/// a malformed (or impossible) trailer — each surfaces `E_PROTOCOL`-
/// class [`ServError::Protocol`] without poisoning the session, and a
/// well-formed traced event afterwards still delivers with its trailer
/// stripped.
#[test]
fn poll_raw_error_paths_leave_session_alive() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let schema = sample_schema();
    let layout = Layout::of(&schema, &ArchProfile::X86_64).unwrap();
    let record = vec![0u8; layout.size()];

    let meta = serialize_layout(&layout);
    let good_ctx = TraceCtx {
        trace_id: 11,
        span_id: 0,
        origin_ns: 1,
        flags: FLAG_SAMPLED,
    };
    let record_size = record.len();
    let server = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let hello = read_frame(&mut s).unwrap();
        assert_eq!(hello.kind, K_HELLO);
        write_frame(&mut s, &Frame::control(K_HELLO_ACK, PROTOCOL_VERSION, 5)).unwrap();

        // 1. Event for a format that was never announced.
        write_frame(&mut s, &Frame::with_body(K_EVENT, 1, 4, record.clone())).unwrap();
        // 2. Announce, then a flagged event with a corrupt trailer.
        write_frame(
            &mut s,
            &Frame::with_body(pbio_serv::protocol::K_ANNOUNCE, 4, 0, meta),
        )
        .unwrap();
        let mut bad = record.clone();
        let mut trailer = good_ctx.encode();
        trailer[21] = 0xee; // nonzero reserved byte
        bad.extend_from_slice(&trailer);
        write_frame(&mut s, &Frame::with_body(K_EVENT, 1, 4 | TRACE_FLAG, bad)).unwrap();
        // 3. A flagged event physically too short for any trailer.
        write_frame(
            &mut s,
            &Frame::with_body(K_EVENT, 1, 4 | TRACE_FLAG, vec![1u8, 2, 3]),
        )
        .unwrap();
        // 4. A well-formed traced event.
        let mut good = record.clone();
        good.extend_from_slice(&good_ctx.encode());
        write_frame(&mut s, &Frame::with_body(K_EVENT, 1, 4 | TRACE_FLAG, good)).unwrap();
        // Keep the socket open until the client is done reading.
        let _ = read_frame(&mut s);
    });

    let mut client = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
    let timeout = Duration::from_secs(5);

    match client.poll_raw(timeout) {
        Err(ServError::Protocol(msg)) => assert!(msg.contains("unannounced"), "{msg}"),
        other => panic!("expected unannounced-format error, got {other:?}"),
    }
    match client.poll_raw(timeout) {
        Err(ServError::Protocol(msg)) => assert!(msg.contains("malformed"), "{msg}"),
        other => panic!("expected malformed-trailer error, got {other:?}"),
    }
    match client.poll_raw(timeout) {
        Err(ServError::Protocol(msg)) => assert!(msg.contains("shorter"), "{msg}"),
        other => panic!("expected short-body error, got {other:?}"),
    }
    let ev = client.poll_raw(timeout).unwrap().expect("good event");
    assert_eq!(ev.channel, 1);
    assert_eq!(ev.format, 4, "flag bit stripped from the format id");
    assert_eq!(ev.bytes.len(), record_size, "trailer stripped from body");
    assert_eq!(client.take_trace_hops().len(), 1, "decode hop stamped");

    drop(client);
    server.join().unwrap();
}

/// The runtime toggle: `K_TRACE_CTL` swaps the daemon-wide sampling
/// modulus, reports the previous value, and new sessions adopt the
/// updated modulus at handshake.
#[test]
fn runtime_sampling_toggle_round_trips() {
    let daemon = traced_daemon(64);
    let addr = daemon.local_addr();

    let mut ctl = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
    assert_eq!(ctl.trace_sampling(), 64, "handshake adopted the default");
    assert_eq!(ctl.set_daemon_trace(8).unwrap(), 64, "previous modulus");
    assert_eq!(daemon.trace_sampling(), 8);

    // Sessions opened after the toggle adopt the new modulus; the local
    // sampler can still be overridden independently.
    let late = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
    assert_eq!(late.trace_sampling(), 8);
    late.set_trace_sampling(0);
    assert_eq!(late.trace_sampling(), 0);

    assert_eq!(
        ctl.set_daemon_trace(0).unwrap(),
        8,
        "0 disables daemon-wide"
    );
    assert_eq!(daemon.trace_sampling(), 0);
    let off = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
    assert_eq!(off.trace_sampling(), 0);
    daemon.shutdown();
}

/// Every trailer combination an event can carry, against every
/// capability set a subscriber can hold. Each subscriber receives
/// exactly `payload ‖ trace? ‖ offset?`: the trailers its capabilities
/// cover, flagged in `b`, and nothing else. The publisher is a raw peer,
/// so the traced row is sampled by construction; the last row flags a
/// well-formed but unsampled trailer, which the daemon drops at ingress.
#[test]
fn trailer_matrix_follows_subscriber_capabilities() {
    let dir = std::env::temp_dir().join(format!("pbio-trailer-matrix-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let daemon = ServDaemon::bind_with(
        "127.0.0.1:0",
        ServConfig {
            queue_capacity: 1024,
            stats_interval: None,
            trace: TraceConfig {
                sample_mod: 1,
                publish_interval: None,
                sink_capacity: 4096,
            },
            durability: Some(StoreConfig {
                flush: FlushPolicy::EveryBatch,
                ..StoreConfig::new(dir.clone())
            }),
            ..ServConfig::default()
        },
    )
    .unwrap();
    let addr = daemon.local_addr();
    let layout = Layout::of(&sample_schema(), &ArchProfile::X86_64).unwrap();

    let mut publisher = RawPeer::connect(addr, CAP_TRACE);
    let fmt = publisher.register(&layout);
    let plain = publisher.open("matrix-plain");
    let durable = publisher.open_flags("matrix-durable", CHAN_DURABLE);

    let mut subs: Vec<(u32, RawPeer)> = [0, CAP_TRACE, CAP_DURABLE, CAP_TRACE | CAP_DURABLE]
        .into_iter()
        .map(|caps| {
            let mut peer = RawPeer::connect(addr, caps);
            peer.subscribe(plain);
            peer.subscribe(durable);
            (caps, peer)
        })
        .collect();

    let sampled = TraceCtx {
        trace_id: 0x0123_4567_89ab_cdef,
        span_id: 77,
        origin_ns: 5,
        flags: FLAG_SAMPLED,
    };
    let unsampled = TraceCtx {
        flags: 0,
        ..sampled
    };
    let rows = [
        ("untraced", None),
        ("traced", Some(sampled)),
        ("unsampled", Some(unsampled)),
    ];
    let mut next_offset = 0u64;
    let mut cell = 0u8;
    for (row, ctx) in rows {
        for (chan, chan_name) in [(plain, "plain"), (durable, "durable")] {
            cell += 1;
            let payload: Vec<u8> = (0..layout.size()).map(|i| cell ^ i as u8).collect();
            let mut body = payload.clone();
            let mut b = fmt;
            if let Some(c) = ctx {
                body.extend_from_slice(&c.encode());
                b |= TRACE_FLAG;
            }
            publisher.send(&Frame::with_body(K_PUBLISH, chan, b, body));
            let offset = (chan == durable).then(|| {
                next_offset += 1;
                next_offset - 1
            });
            for (caps, sub) in &mut subs {
                let mut want_b = fmt;
                let mut want = payload.clone();
                if let Some(c) = ctx.filter(|c| c.sampled() && *caps & CAP_TRACE != 0) {
                    want.extend_from_slice(&c.encode());
                    want_b |= TRACE_FLAG;
                }
                if let Some(off) = offset.filter(|_| *caps & CAP_DURABLE != 0) {
                    want.extend_from_slice(&off.to_be_bytes());
                    want_b |= OFFSET_FLAG;
                }
                let ev = sub.next_event();
                let what = format!("{row} publish, {chan_name} channel, caps {caps:#x}");
                assert_eq!((ev.a, ev.b), (chan, want_b), "{what}: channel and b");
                assert_eq!(ev.body, want, "{what}: body bytes");
            }
        }
    }

    for (_, sub) in subs {
        sub.bye();
    }
    publisher.bye();
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// With no `$trace` exporter draining it, the hop sink overflows within a
/// few traced publishes. Every hop it evicts is counted in the daemon's
/// books, so sampled hops never vanish unaccounted.
#[test]
fn hop_sink_evictions_are_counted_in_the_registry() {
    let daemon = ServDaemon::bind_with(
        "127.0.0.1:0",
        ServConfig {
            stats_interval: None,
            trace: TraceConfig {
                sample_mod: 1,
                publish_interval: None,
                sink_capacity: 4,
            },
            ..ServConfig::default()
        },
    )
    .unwrap();
    let addr = daemon.local_addr();
    let schema = sample_schema();
    let mut subscriber = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
    let chan = subscriber.open_channel("hop-overflow").unwrap();
    subscriber.subscribe(chan, &schema, None).unwrap();
    let mut publisher = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
    let fmt = publisher.register_format(&schema).unwrap();
    let pub_chan = publisher.open_channel("hop-overflow").unwrap();
    for seq in 0..32u32 {
        let value = RecordValue::new().with("seq", seq).with("load", 1.0f64);
        publisher.publish_value(pub_chan, fmt, &value).unwrap();
    }
    let mut received = 0;
    let deadline = Instant::now() + Duration::from_secs(10);
    while received < 32 && Instant::now() < deadline {
        if subscriber
            .poll(Duration::from_millis(100))
            .unwrap()
            .is_some()
        {
            received += 1;
        }
    }
    assert_eq!(received, 32);
    let dropped = daemon
        .registry()
        .snapshot()
        .counter("serv_trace_hops_dropped");
    assert!(
        dropped.is_some_and(|n| n > 0),
        "32 traced events through a 4-hop sink: {dropped:?}"
    );
    daemon.shutdown();
}
