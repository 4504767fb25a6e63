//! Fault-tolerance suite for the serv layer: deterministic fault
//! injection, oversized/corrupt frame rejection, heartbeat and
//! stalled-writer eviction, and the daemon kill/restart resume storm.
//!
//! The seeded tests honor `PBIO_FAULT_SEED` (default 1) so CI can run the
//! same workload across a matrix of seeds; every seed must pass with the
//! invariant that a delivered event is byte-identical to a published one
//! — corruption is only ever a *counted, rejected* frame, never a
//! silently wrong record.

use std::io::{Cursor, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use pbio_net::fault::{FaultLog, FaultPlan, FaultyStream};
use pbio_net::frame::{
    crc32, read_frame, write_frame_raw, FrameError, FRAME_HEADER_SIZE, MAX_FRAME_BODY,
};
use pbio_serv::protocol::{
    E_PROTOCOL, K_CHANNEL, K_CHANNEL_ACK, K_ERROR, K_HELLO, K_HELLO_ACK, K_PUBLISH, K_SUBSCRIBE,
    K_SUBSCRIBE_ACK, PROTOCOL_VERSION,
};
use pbio_serv::{ClientConfig, ServClient, ServConfig, ServDaemon, TraceConfig};
use pbio_types::arch::ArchProfile;
use pbio_types::schema::{AtomType, FieldDecl, Schema, TypeDesc};
use pbio_types::value::{RecordValue, Value};

/// The CI fault-matrix seeds (mirrored in `.github/workflows/ci.yml`).
const MATRIX_SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 0xDEAD_BEEF];

/// Seed under test: `PBIO_FAULT_SEED` from the environment (the CI
/// matrix sets it), defaulting to 1 — an odd seed, so the generated
/// plans include a mid-stream disconnect.
fn fault_seed() -> u64 {
    std::env::var("PBIO_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

fn quiet_config() -> ServConfig {
    ServConfig {
        stats_interval: None,
        trace: TraceConfig {
            sample_mod: 0,
            publish_interval: None,
            sink_capacity: 16,
        },
        ..ServConfig::default()
    }
}

fn resume_client() -> ClientConfig {
    ClientConfig {
        resume: true,
        backoff_initial: Duration::from_millis(10),
        backoff_max: Duration::from_millis(200),
        outage_buffer: 64,
        ..ClientConfig::default()
    }
}

fn tick_schema() -> Schema {
    Schema::new(
        "tick",
        vec![
            FieldDecl::atom("seq", AtomType::I64),
            FieldDecl::atom("temp", AtomType::F64),
        ],
    )
    .unwrap()
}

fn tick(seq: i64) -> RecordValue {
    RecordValue::new()
        .with("seq", seq)
        .with("temp", seq as f64 * 0.5)
}

/// The plan generator is a pure function of the seed: the property the
/// whole CI matrix rests on. (Byte-level reproducibility of a wrapped
/// stream is asserted in `pbio-net`'s own fault tests.)
#[test]
fn seeded_fault_plans_are_deterministic() {
    for seed in MATRIX_SEEDS {
        assert_eq!(
            FaultPlan::from_seed(seed),
            FaultPlan::from_seed(seed),
            "seed {seed}: plan not reproducible"
        );
        for conn in 0..4 {
            assert_eq!(
                FaultPlan::for_conn(seed, conn),
                FaultPlan::for_conn(seed, conn),
                "seed {seed} conn {conn}: per-connection plan not reproducible"
            );
        }
        assert!(
            !FaultPlan::from_seed(seed).is_empty(),
            "seed {seed}: plan injects nothing"
        );
    }
    assert_ne!(FaultPlan::from_seed(1), FaultPlan::from_seed(2));
}

/// Handcraft one frame with full control over the length and checksum
/// fields (the client library would never emit these).
fn raw_frame(kind: u8, a: u32, b: u32, len: u32, crc: u32) -> [u8; FRAME_HEADER_SIZE] {
    let mut h = [0u8; FRAME_HEADER_SIZE];
    h[0] = kind;
    h[1..5].copy_from_slice(&a.to_be_bytes());
    h[5..9].copy_from_slice(&b.to_be_bytes());
    h[9..13].copy_from_slice(&len.to_be_bytes());
    h[13..17].copy_from_slice(&crc.to_be_bytes());
    h
}

fn raw_hello(stream: &mut TcpStream) {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write_frame_raw(
        stream,
        K_HELLO,
        PROTOCOL_VERSION,
        0,
        ArchProfile::X86_64.name.as_bytes(),
    )
    .unwrap();
    let ack = read_frame(stream).unwrap();
    assert_eq!(ack.kind, K_HELLO_ACK);
}

/// Regression for the oversized-length bugfix: a header announcing a
/// body over [`MAX_FRAME_BODY`] must not drive a proportional
/// allocation; the daemon drains the announced bytes, answers
/// `ERROR(E_PROTOCOL)`, counts the reject, and keeps the session.
#[test]
fn oversized_frame_is_rejected_without_killing_the_session() {
    let daemon = ServDaemon::bind_with("127.0.0.1:0", quiet_config()).unwrap();
    let mut stream = TcpStream::connect(daemon.local_addr()).unwrap();
    raw_hello(&mut stream);

    let hostile = (MAX_FRAME_BODY + 1) as u32;
    stream
        .write_all(&raw_frame(K_PUBLISH, 0, 0, hostile, 0))
        .unwrap();
    // Stream the announced body so the connection stays in sync; the
    // daemon discards it in bounded chunks.
    let chunk = vec![0u8; 64 * 1024];
    let mut remaining = hostile as usize;
    while remaining > 0 {
        let n = remaining.min(chunk.len());
        stream.write_all(&chunk[..n]).unwrap();
        remaining -= n;
    }

    let err = read_frame(&mut stream).unwrap();
    assert_eq!(err.kind, K_ERROR);
    assert_eq!(err.a, E_PROTOCOL);
    assert!(
        String::from_utf8_lossy(&err.body).contains("exceeds"),
        "error names the length violation"
    );

    // Session still alive: a channel round trip works.
    write_frame_raw(&mut stream, K_CHANNEL, 9, 0, b"survivor").unwrap();
    let ack = read_frame(&mut stream).unwrap();
    assert_eq!(ack.kind, K_CHANNEL_ACK);
    assert_eq!(ack.a, 9);
    assert_eq!(daemon.stats().frames_rejected, 1);
    daemon.shutdown();
}

/// A frame whose checksum does not cover its bytes is rejected and
/// counted, and — because the body was fully consumed — the session
/// survives in sync.
#[test]
fn corrupt_checksum_is_rejected_without_killing_the_session() {
    let daemon = ServDaemon::bind_with("127.0.0.1:0", quiet_config()).unwrap();
    let mut stream = TcpStream::connect(daemon.local_addr()).unwrap();
    raw_hello(&mut stream);

    // A structurally valid CHANNEL frame with a flipped checksum.
    let body = b"not-a-channel";
    let mut prefix = [0u8; FRAME_HEADER_SIZE - 4];
    prefix[0] = K_CHANNEL;
    prefix[1..5].copy_from_slice(&7u32.to_be_bytes());
    prefix[9..13].copy_from_slice(&(body.len() as u32).to_be_bytes());
    let mut checksummed = prefix.to_vec();
    checksummed.extend_from_slice(body);
    let good = crc32(&checksummed);
    stream
        .write_all(&raw_frame(K_CHANNEL, 7, 0, body.len() as u32, good ^ 0x1))
        .unwrap();
    stream.write_all(body).unwrap();

    let err = read_frame(&mut stream).unwrap();
    assert_eq!(err.kind, K_ERROR);
    assert_eq!(err.a, E_PROTOCOL);
    assert!(
        String::from_utf8_lossy(&err.body).contains("checksum"),
        "error names the checksum mismatch"
    );

    // The same frame with the correct checksum now succeeds.
    stream
        .write_all(&raw_frame(K_CHANNEL, 7, 0, body.len() as u32, good))
        .unwrap();
    stream.write_all(body).unwrap();
    let ack = read_frame(&mut stream).unwrap();
    assert_eq!(ack.kind, K_CHANNEL_ACK);
    assert_eq!(ack.a, 7);
    assert_eq!(daemon.stats().frames_rejected, 1);
    daemon.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The corruption property: for *any* byte-corruption plan over a
    /// stream of frames, every frame the reader accepts is byte-identical
    /// to one that was written, in order — damage is always a detected
    /// error, never a silently wrong record.
    #[test]
    fn corruption_never_yields_a_wrong_frame(
        // Bodies long enough that most flipped bytes are summed by the
        // folding checksum kernel, not only by the short-input path.
        bodies in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..2048), 1..12),
        hits in proptest::collection::vec((any::<u16>(), 1u8..=255), 0..6),
    ) {
        // Serialize the stream once, clean.
        let mut wire = Vec::new();
        for (i, body) in bodies.iter().enumerate() {
            write_frame_raw(&mut wire, 0x21, i as u32, 0, body).unwrap();
        }
        let plan = hits.iter().fold(FaultPlan::new(), |p, &(at, xor)| {
            p.corrupt_read(at as u64 % (wire.len() as u64 + 1), xor)
        });
        let mut faulty = FaultyStream::new(Cursor::new(wire), plan, FaultLog::new());

        // Read frames until the first error or EOF. Accepted frames must
        // match the originals positionally and byte-for-byte.
        let mut delivered = 0usize;
        loop {
            match read_frame(&mut faulty) {
                Ok(f) => {
                    prop_assert!(delivered < bodies.len(), "phantom frame accepted");
                    prop_assert_eq!(f.a, delivered as u32);
                    prop_assert_eq!(
                        &f.body[..], &bodies[delivered][..],
                        "accepted frame differs from what was published"
                    );
                    delivered += 1;
                }
                Err(FrameError::Closed) => break,
                // Any detected damage ends the check: everything accepted
                // up to here was verified identical.
                Err(_) => break,
            }
        }
        prop_assert!(delivered <= bodies.len());
    }
}

/// The tentpole acceptance: kill the daemon mid-publish-storm, restart
/// it on the same port, and watch both clients resume — formats,
/// channels, and subscriptions replayed, buffered publishes flushed —
/// with the outage accounted for *exactly* in the client counters.
#[test]
fn daemon_kill_and_restart_resumes_both_sides_with_exact_accounting() {
    let daemon = ServDaemon::bind_with("127.0.0.1:0", quiet_config()).unwrap();
    let addr = daemon.local_addr();
    let schema = tick_schema();

    let mut publisher =
        ServClient::connect_with(addr, &ArchProfile::X86_64, resume_client()).unwrap();
    assert!(publisher.resume_negotiated());
    assert_eq!(publisher.session_epoch(), 1);
    let format = publisher.register_format(&schema).unwrap();
    let chan = publisher.open_channel("storm").unwrap();

    let mut subscriber =
        ServClient::connect_with(addr, &ArchProfile::X86_64, resume_client()).unwrap();
    let sub_chan = subscriber.open_channel("storm").unwrap();
    subscriber.subscribe(sub_chan, &schema, None).unwrap();

    let mut published: u64 = 0;
    let mut seq: i64 = 0;
    let publish_next = |p: &mut ServClient, published: &mut u64, seq: &mut i64| {
        p.publish_value(chan, format, &tick(*seq)).unwrap();
        *published += 1;
        *seq += 1;
    };

    // Pre-outage traffic, received zero-copy.
    for _ in 0..10 {
        publish_next(&mut publisher, &mut published, &mut seq);
    }
    let mut received: Vec<(i64, f64)> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(10);
    while received.len() < 10 && Instant::now() < deadline {
        if let Some(ev) = subscriber.poll(Duration::from_millis(100)).unwrap() {
            let Some(Value::I64(s)) = ev.view.get("seq") else {
                panic!("seq missing")
            };
            let Some(Value::F64(t)) = ev.view.get("temp") else {
                panic!("temp missing")
            };
            received.push((s, t));
        }
    }
    assert_eq!(received.len(), 10, "pre-outage events all arrive");

    // Kill the daemon mid-storm and keep publishing into the outage:
    // more than the outage buffer holds, so drop-oldest must fire.
    daemon.shutdown();
    for _ in 0..300 {
        publish_next(&mut publisher, &mut published, &mut seq);
    }
    let mid = publisher.stats();
    assert_eq!(mid.publishes, published);
    assert!(mid.buffered > 64, "storm overflowed into the outage buffer");
    assert!(
        mid.buffer_dropped > 0,
        "drop-oldest fired past the buffer bound"
    );
    assert_eq!(mid.buffered_replayed, 0, "nothing replayed while down");

    // Restart on the same port. Nobody calls a "reconnect" API: the
    // subscriber's poll loop and the publisher's publishes drive resume.
    let daemon2 = ServDaemon::bind_with(addr, quiet_config()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(15);
    while subscriber.stats().reconnects == 0 && Instant::now() < deadline {
        let _ = subscriber.poll(Duration::from_millis(100));
    }
    assert!(
        subscriber.stats().reconnects >= 1,
        "subscriber resumed by polling alone"
    );
    while publisher.in_outage() && Instant::now() < deadline {
        publish_next(&mut publisher, &mut published, &mut seq);
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        !publisher.in_outage(),
        "publisher resumed by publishing alone"
    );

    // Post-resume tail: these must flow end to end.
    let tail_first = seq;
    for _ in 0..10 {
        publish_next(&mut publisher, &mut published, &mut seq);
    }
    let last = seq - 1;
    let mut tail_seen = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(15);
    while Instant::now() < deadline {
        match subscriber.poll(Duration::from_millis(100)) {
            Ok(Some(ev)) => {
                let Some(Value::I64(s)) = ev.view.get("seq") else {
                    panic!("seq missing")
                };
                let Some(Value::F64(t)) = ev.view.get("temp") else {
                    panic!("temp missing")
                };
                assert_eq!(t, s as f64 * 0.5, "delivered record is self-consistent");
                if s >= tail_first {
                    tail_seen.push(s);
                }
                if s == last {
                    break;
                }
            }
            Ok(None) => {}
            Err(e) => panic!("subscriber poll failed after resume: {e}"),
        }
    }
    assert_eq!(
        tail_seen,
        (tail_first..=last).collect::<Vec<_>>(),
        "every post-resume event arrived, in order"
    );

    // The exact books. Every publish call is accounted: it either went
    // to a live socket (publishes - buffered) or into the buffer, and
    // every buffered event was either replayed or counted dropped —
    // the buffer is empty once the outage ends.
    let p = publisher.stats();
    assert_eq!(p.publishes, published);
    assert_eq!(
        p.buffered,
        p.buffered_replayed + p.buffer_dropped,
        "outage buffer fully drained and accounted"
    );
    assert!(p.reconnects >= 1);
    assert!(publisher.session_epoch() >= 2, "epoch bumped per resume");
    let d = daemon2.stats();
    assert!(d.resumes >= 2, "both clients resumed on the new daemon");
    assert_eq!(d.resumes_stale, 0);
    daemon2.shutdown();
}

/// A peer that answers nothing is probed after `heartbeat_ping` and
/// evicted after `heartbeat_dead`; a client that merely *polls* answers
/// the probes transparently and is never evicted.
#[test]
fn silent_peer_is_pinged_then_evicted_while_a_polling_client_survives() {
    let daemon = ServDaemon::bind_with(
        "127.0.0.1:0",
        ServConfig {
            heartbeat_ping: Duration::from_millis(300),
            heartbeat_dead: Duration::from_millis(900),
            ..quiet_config()
        },
    )
    .unwrap();
    let addr = daemon.local_addr();

    // A live client with nothing to say: it only polls.
    let mut idle_client = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();

    // A raw peer that completes the handshake and then plays dead.
    let mut zombie = TcpStream::connect(addr).unwrap();
    raw_hello(&mut zombie);

    let deadline = Instant::now() + Duration::from_secs(10);
    while daemon.stats().evicted_dead == 0 && Instant::now() < deadline {
        // Polling answers K_PING under the hood, keeping this client off
        // the eviction list for the whole wait.
        let _ = idle_client.poll(Duration::from_millis(100)).unwrap();
    }
    let stats = daemon.stats();
    assert!(stats.pings >= 1, "silent peer was probed");
    assert_eq!(stats.evicted_dead, 1, "only the zombie was evicted");

    // The zombie's socket is dead; the polling client's is not.
    let mut probe = [0u8; 1];
    zombie
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // Drain until EOF: pings queued to the zombie arrive first.
    loop {
        match zombie.read(&mut probe) {
            Ok(0) => break,    // clean FIN after eviction
            Ok(_) => continue, // draining the queued pings
            Err(_) => break,   // or an abortive close — either proves death
        }
    }
    let ch = idle_client.open_channel("still-here").unwrap();
    assert!(ch < 0x4000_0000);
    daemon.shutdown();
}

/// A subscriber whose writer makes no progress past the stall budget is
/// escalated from drop-oldest to eviction, unblocking the daemon.
#[test]
fn stalled_subscriber_is_evicted_after_the_stall_budget() {
    let daemon = ServDaemon::bind_with(
        "127.0.0.1:0",
        ServConfig {
            queue_capacity: 8,
            stall_budget: Duration::from_millis(300),
            ..quiet_config()
        },
    )
    .unwrap();
    let addr = daemon.local_addr();

    // Bulky records so the kernel socket buffers fill quickly once the
    // subscriber stops reading.
    let blob_schema = Schema::new(
        "blob",
        vec![FieldDecl::new(
            "bytes",
            TypeDesc::array(AtomType::U8, 16 * 1024),
        )],
    )
    .unwrap();

    let mut publisher = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
    let format = publisher.register_format(&blob_schema).unwrap();
    let chan = publisher.open_channel("firehose").unwrap();

    // Raw subscriber: subscribes, then never reads another byte.
    let mut stalled = TcpStream::connect(addr).unwrap();
    raw_hello(&mut stalled);
    write_frame_raw(&mut stalled, K_CHANNEL, 1, 0, b"firehose").unwrap();
    let ack = read_frame(&mut stalled).unwrap();
    assert_eq!(ack.kind, K_CHANNEL_ACK);
    let wire_chan = ack.b;
    write_frame_raw(&mut stalled, K_SUBSCRIBE, wire_chan, 0, &[]).unwrap();
    let ack = read_frame(&mut stalled).unwrap();
    assert_eq!(ack.kind, K_SUBSCRIBE_ACK);

    let payload = vec![0xA5u8; 16 * 1024];
    let deadline = Instant::now() + Duration::from_secs(20);
    while daemon.stats().evicted_stalled == 0 && Instant::now() < deadline {
        publisher.publish(chan, format, &payload).unwrap();
    }
    let stats = daemon.stats();
    assert!(
        stats.evicted_stalled >= 1,
        "stall escalated to eviction (dropped {} events first)",
        stats.dropped
    );
    assert!(
        stats.dropped > 0,
        "drop-oldest ran before escalation kicked in"
    );
    daemon.shutdown();
}

/// The CI fault-matrix workload: a daemon whose every connection is
/// wrapped in a seeded fault plan (corruption, stalls, torn writes,
/// mid-frame disconnects), under a resume publisher and subscriber.
/// Whatever the seed throws, three invariants must hold: the run
/// terminates, every delivered record is self-consistent (byte-identical
/// to a published one), and damage shows up in the reject/reconnect
/// counters rather than in the data.
#[test]
fn seeded_fault_matrix_workload_never_corrupts_delivered_events() {
    let seed = fault_seed();
    let daemon = ServDaemon::bind_with(
        "127.0.0.1:0",
        ServConfig {
            fault_seed: Some(seed),
            ..quiet_config()
        },
    )
    .unwrap();
    let addr = daemon.local_addr();
    let schema = tick_schema();

    // Connecting itself runs through the faulty transport; retry a few
    // times (each attempt is a new connection with a new derived plan).
    let connect = |what: &str| -> ServClient {
        for _ in 0..10 {
            if let Ok(c) = ServClient::connect_with(addr, &ArchProfile::X86_64, resume_client()) {
                return c;
            }
        }
        panic!("seed {seed}: {what} could not establish any session");
    };
    let mut publisher = connect("publisher");
    let retry = |r: Result<u32, pbio_serv::ServError>,
                 publisher: &mut ServClient,
                 schema: &Schema,
                 name: &str|
     -> u32 {
        match r {
            Ok(id) => id,
            // A fault landed on the ack round trip: the session-level
            // request is retried on the (possibly reconnected) session.
            Err(_) => {
                for _ in 0..20 {
                    let again = if name.is_empty() {
                        publisher.register_format(schema)
                    } else {
                        publisher.open_channel(name)
                    };
                    if let Ok(id) = again {
                        return id;
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
                panic!("seed {seed}: request never succeeded");
            }
        }
    };
    let r = publisher.register_format(&schema);
    let format = retry(r, &mut publisher, &schema, "");
    let r = publisher.open_channel("matrix");
    let chan = retry(r, &mut publisher, &schema, "matrix");

    let mut subscriber = connect("subscriber");
    let r = subscriber.open_channel("matrix");
    let sub_chan = retry(r, &mut subscriber, &schema, "matrix");
    let mut subscribed = subscriber.subscribe(sub_chan, &schema, None).is_ok();
    for _ in 0..20 {
        if subscribed {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
        subscribed = subscriber.subscribe(sub_chan, &schema, None).is_ok();
    }
    assert!(subscribed, "seed {seed}: subscription never stuck");

    // The storm. Publish errors that are not outages (e.g. a remote
    // E_PROTOCOL for a frame the fault plan garbled) are tolerated —
    // they are exactly the "counted protocol error" arm of the property.
    // Big enough that each direction of each session moves well past the
    // largest fault offset a plan can hold (128 KiB), so corruption and
    // disconnect ops inside the plans actually fire.
    const STORM: i64 = 5_000;
    let mut publish_errors = 0u64;
    for seq in 0..STORM {
        if publisher.publish_value(chan, format, &tick(seq)).is_err() {
            publish_errors += 1;
        }
    }

    // Collect until quiet. Poll errors (corrupt announce, remote error)
    // are counted and polling continues — never fatal, never wrong data.
    let mut seen: Vec<i64> = Vec::new();
    let mut poll_errors = 0u64;
    let mut quiet = 0u32;
    let deadline = Instant::now() + Duration::from_secs(30);
    while quiet < 8 && Instant::now() < deadline {
        match subscriber.poll(Duration::from_millis(125)) {
            Ok(Some(ev)) => {
                quiet = 0;
                let Some(Value::I64(s)) = ev.view.get("seq") else {
                    panic!("seed {seed}: seq missing from delivered event")
                };
                let Some(Value::F64(t)) = ev.view.get("temp") else {
                    panic!("seed {seed}: temp missing from delivered event")
                };
                assert!(
                    (0..STORM).contains(&s),
                    "seed {seed}: delivered seq {s} was never published"
                );
                assert_eq!(
                    t,
                    s as f64 * 0.5,
                    "seed {seed}: delivered record differs from published bytes"
                );
                seen.push(s);
            }
            Ok(None) => quiet += 1,
            Err(_) => {
                poll_errors += 1;
                quiet += 1;
            }
        }
    }

    // Per-session ordering survives faults: replay is FIFO and direct
    // sends are FIFO, so the subscriber's view is strictly increasing.
    assert!(
        seen.windows(2).all(|w| w[0] < w[1]),
        "seed {seed}: delivered sequence reordered or duplicated"
    );

    let p = publisher.stats();
    let s = subscriber.stats();
    let d = daemon.stats();
    assert_eq!(
        p.publishes, STORM as u64,
        "every publish call is accounted, buffered or not"
    );
    assert_eq!(
        p.buffered,
        p.buffered_replayed + p.buffer_dropped + publisher.outage_backlog() as u64,
        "outage buffer accounting balances"
    );
    // Whatever the plan did — and some plans are pure latency (read
    // stalls), which is *supposed* to be invisible in the counters — it
    // landed in counters or in nothing, never in the data. Summarize for
    // the CI log so each matrix cell shows what its seed exercised.
    eprintln!(
        "seed {seed}: delivered {}/{STORM}, daemon rejected {} evicted {} resumed {}, \
         client reconnects {}+{} rejected {}+{}, errors {}+{}",
        seen.len(),
        d.frames_rejected,
        d.evicted_dead + d.evicted_stalled,
        d.resumes,
        p.reconnects,
        s.reconnects,
        p.frames_rejected,
        s.frames_rejected,
        publish_errors,
        poll_errors,
    );
    daemon.shutdown();
}
