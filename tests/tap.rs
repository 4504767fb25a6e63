//! Wire-tap capture plane integration suite: runtime tap control over
//! the protocol, capture → replay round-trips (byte-identical delivery
//! against a fresh daemon), crash recovery of capture segments, and the
//! seeded fault matrix run with the tap enabled.
//!
//! The capture invariant mirrors the wire invariant: a frame that reads
//! back clean from a capture always decodes — corruption is only ever a
//! *truncated tail*, never a silently wrong record. The seeded test
//! honors `PBIO_FAULT_SEED` (default 1) like the rest of the fault
//! matrix.

use std::path::{Path, PathBuf};
use std::time::Duration;

use pbio_serv::protocol::{E_PROTOCOL, K_EVENT, K_PUBLISH};
use pbio_serv::tap::{capture_layouts, TapEntry, TAP_IN, TAP_OUT};
use pbio_serv::{
    read_capture, replay_session, ClientConfig, ReplayOptions, ReplaySpeed, ServClient, ServConfig,
    ServDaemon, ServError, TapConfig, TapMode, TraceConfig,
};
use pbio_types::arch::ArchProfile;
use pbio_types::schema::{AtomType, FieldDecl, Schema};
use pbio_types::value::RecordValue;

fn fault_seed() -> u64 {
    std::env::var("PBIO_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
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

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pbio-tap-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tapped_config(dir: &Path) -> ServConfig {
    ServConfig {
        stats_interval: None,
        trace: TraceConfig {
            sample_mod: 0,
            publish_interval: None,
            sink_capacity: 16,
        },
        queue_capacity: 4096,
        tap: Some(TapConfig::new(dir)),
        ..ServConfig::default()
    }
}

/// Record a deterministic self-subscribing session under a tapped
/// daemon and return the capture directory.
fn record_session(tag: &str, events: i64) -> PathBuf {
    let dir = temp_dir(tag);
    let daemon = ServDaemon::bind_with("127.0.0.1:0", tapped_config(&dir)).expect("bind");
    let mut client =
        ServClient::connect(daemon.local_addr(), &ArchProfile::X86_64).expect("connect");
    let schema = tick_schema();
    let chan = client.open_channel("tap-rt").expect("open");
    client.subscribe(chan, &schema, None).expect("subscribe");
    let format = client.register_format(&schema).expect("register");
    for seq in 0..events {
        client
            .publish_value(chan, format, &tick(seq))
            .expect("publish");
    }
    let mut received = 0;
    while received < events {
        match client.poll(Duration::from_secs(5)).expect("poll") {
            Some(_) => received += 1,
            None => panic!("delivery stalled at {received}/{events}"),
        }
    }
    client.disconnect().expect("bye");
    daemon.shutdown();
    dir
}

#[test]
fn capture_replays_byte_identical_against_a_fresh_daemon() {
    let dir = record_session("roundtrip", 100);
    let capture = read_capture(&dir).expect("read capture");
    assert_eq!(capture.torn_tails, 0, "clean shutdown must not tear");

    let fresh = ServDaemon::bind_with(
        "127.0.0.1:0",
        ServConfig {
            stats_interval: None,
            queue_capacity: 4096,
            ..ServConfig::default()
        },
    )
    .expect("bind fresh");
    let report = replay_session(
        &capture.frames,
        0,
        &fresh.local_addr().to_string(),
        &ReplayOptions {
            speed: ReplaySpeed::Max,
            ..ReplayOptions::default()
        },
    )
    .expect("replay");
    fresh.shutdown();

    assert_eq!(report.expected.len(), 100, "capture holds all deliveries");
    assert_eq!(
        report.delivered.len(),
        100,
        "replay re-delivers every event (errors: {:?})",
        report.errors
    );
    assert!(
        report.byte_identical(),
        "delivery diverged at {:?}",
        report.divergence()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tap_ctl_toggles_capture_at_runtime() {
    let dir = temp_dir("ctl");
    let mut config = tapped_config(&dir);
    // Start with the plane configured but off: nothing is captured
    // until a client turns it on over the protocol.
    config.tap = Some(TapConfig {
        mode: TapMode::Off,
        ..TapConfig::new(&dir)
    });
    let daemon = ServDaemon::bind_with("127.0.0.1:0", config).expect("bind");
    let mut client =
        ServClient::connect(daemon.local_addr(), &ArchProfile::X86_64).expect("connect");
    let schema = tick_schema();
    let chan = client.open_channel("tap-ctl").expect("open");
    client.subscribe(chan, &schema, None).expect("subscribe");
    let format = client.register_format(&schema).expect("register");

    // Published while the tap is off: must not appear in the capture.
    client
        .publish_value(chan, format, &tick(-1))
        .expect("publish");
    assert!(client.poll(Duration::from_secs(5)).expect("poll").is_some());

    let prev = client.tap_ctl(TapMode::Full).expect("tap on");
    assert_eq!(prev, TapMode::Off.to_wire().0, "ack reports prior mode");
    for seq in 0..10 {
        client
            .publish_value(chan, format, &tick(seq))
            .expect("publish");
    }
    for _ in 0..10 {
        assert!(client.poll(Duration::from_secs(5)).expect("poll").is_some());
    }
    let prev = client.tap_ctl(TapMode::Off).expect("tap off");
    assert_eq!(prev, TapMode::Full.to_wire().0);

    // Published after the tap went off again: also invisible.
    client
        .publish_value(chan, format, &tick(-2))
        .expect("publish");
    assert!(client.poll(Duration::from_secs(5)).expect("poll").is_some());
    client.disconnect().expect("bye");
    daemon.shutdown();

    let capture = read_capture(&dir).expect("read capture");
    let publishes: Vec<i64> = capture
        .frames
        .iter()
        .filter(|f| f.frame.kind == K_PUBLISH)
        // Bodies are the publisher's native layout; X86_64 is LE.
        .map(|f| i64::from_le_bytes(f.frame.body.as_slice()[..8].try_into().unwrap()))
        .collect();
    assert_eq!(
        publishes,
        (0..10).collect::<Vec<i64>>(),
        "capture holds exactly the tapped window"
    );
    let events = capture
        .frames
        .iter()
        .filter(|f| f.frame.kind == K_EVENT)
        .count();
    assert_eq!(events, 10, "deliveries outside the window are not captured");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tap_ctl_without_a_capture_plane_is_a_typed_error() {
    let daemon = ServDaemon::bind_with(
        "127.0.0.1:0",
        ServConfig {
            stats_interval: None,
            ..ServConfig::default()
        },
    )
    .expect("bind");
    let mut client =
        ServClient::connect(daemon.local_addr(), &ArchProfile::X86_64).expect("connect");
    match client.tap_ctl(TapMode::Full) {
        Err(ServError::Remote { code, .. }) => assert_eq!(code, E_PROTOCOL),
        other => panic!("expected a typed protocol error, got {other:?}"),
    }
    // The rejection must not kill the session.
    client.open_channel("still-alive").expect("open");
    client.disconnect().expect("bye");
    daemon.shutdown();
}

#[test]
fn torn_capture_tail_is_truncated_to_clean_frames_on_reopen() {
    let dir = record_session("torn", 50);
    let clean = read_capture(&dir).expect("read capture");
    assert!(clean.frames.len() > 50);

    // Tear the newest segment mid-record, as a crash would.
    let mut segments: Vec<PathBuf> = Vec::new();
    let mut stack = vec![dir.clone()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).expect("read dir") {
            let path = entry.expect("entry").path();
            if path.is_dir() {
                stack.push(path);
            } else {
                segments.push(path);
            }
        }
    }
    segments.sort();
    let tail = segments.last().expect("capture has a segment");
    let len = std::fs::metadata(tail).expect("stat").len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(tail)
        .expect("open segment")
        .set_len(len - 7)
        .expect("truncate");

    let torn = read_capture(&dir).expect("recovery must yield a readable capture");
    assert!(
        torn.torn_tails >= 1 || torn.truncated_bytes > 0,
        "recovery reports the tear"
    );
    assert!(
        torn.frames.len() < clean.frames.len(),
        "the torn record is gone, not repaired"
    );
    // Everything that survived decodes (read_capture fails otherwise);
    // the surviving prefix is exactly the clean capture's prefix.
    for (a, b) in torn.frames.iter().zip(clean.frames.iter()) {
        assert_eq!(a, b, "surviving frames are a prefix of the clean capture");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fault_matrix_with_tap_enabled_never_captures_a_corrupt_frame_as_clean() {
    let seed = fault_seed();
    let dir = temp_dir("faults");
    let daemon = ServDaemon::bind_with(
        "127.0.0.1:0",
        ServConfig {
            fault_seed: Some(seed),
            stats_interval: None,
            trace: TraceConfig {
                sample_mod: 0,
                publish_interval: None,
                sink_capacity: 16,
            },
            queue_capacity: 4096,
            heartbeat_ping: Duration::from_millis(250),
            heartbeat_dead: Duration::from_millis(750),
            stall_budget: Duration::from_millis(250),
            tap: Some(TapConfig::new(&dir)),
            ..ServConfig::default()
        },
    )
    .expect("bind");
    let resume = ClientConfig {
        resume: true,
        backoff_initial: Duration::from_millis(10),
        backoff_max: Duration::from_millis(200),
        outage_buffer: 64,
        ..ClientConfig::default()
    };
    let mut client = ServClient::connect_with(daemon.local_addr(), &ArchProfile::X86_64, resume)
        .expect("connect");
    let schema = tick_schema();
    let chan = client.open_channel("tap-faults").expect("open");
    client.subscribe(chan, &schema, None).expect("subscribe");
    let format = client.register_format(&schema).expect("register");
    // Publishes may fail mid-outage; the resume client rides it out.
    // This exercise is about the capture, not delivery accounting.
    for seq in 0..500 {
        let _ = client.publish_value(chan, format, &tick(seq));
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while std::time::Instant::now() < deadline {
        match client.poll(Duration::from_millis(100)) {
            Ok(Some(_)) => {}
            Ok(None) => break,
            Err(_) => break,
        }
    }
    drop(client);
    daemon.shutdown();

    // Every frame the capture yields decoded through its embedded CRC;
    // read_capture fails outright on a corrupt record marked clean.
    let capture = read_capture(&dir)
        .unwrap_or_else(|e| panic!("seed {seed}: capture failed to recover clean: {e}"));
    assert!(
        !capture.frames.is_empty(),
        "seed {seed}: tap was on but captured nothing"
    );
    // The faulty wire rejected frames must never have reached the tap:
    // every captured publish/event still decodes through the capture's
    // own layouts.
    let layouts = capture_layouts(&capture.frames);
    for f in &capture.frames {
        if f.frame.kind == K_PUBLISH || f.frame.kind == K_EVENT {
            let body = f.frame.body.as_slice();
            assert!(
                body.len() >= 16,
                "seed {seed}: captured event frame too short to be a tick record"
            );
        }
    }
    assert!(
        !layouts.is_empty(),
        "seed {seed}: capture lost its format descriptions"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Golden capture records: one inbound publish and one outbound event,
/// exact bytes (direction, timestamp, connection, then the frame's own
/// header and body). A capture written today must read back tomorrow.
#[test]
fn golden_capture_records() {
    let hex = |bytes: &[u8]| -> String { bytes.iter().map(|b| format!("{b:02x}")).collect() };
    let inbound = TapEntry {
        t_ns: 0x0102_0304_0506_0708,
        conn: 7,
        dir: TAP_IN,
        kind: K_PUBLISH,
        a: 3,
        b: 1,
        body: vec![0xde, 0xad, 0xbe, 0xef].into(),
    };
    let outbound = TapEntry {
        t_ns: 0x1112_1314_1516_1718,
        conn: 9,
        dir: TAP_OUT,
        kind: K_EVENT,
        a: 3,
        b: 1,
        body: vec![0xca, 0xfe].into(),
    };
    let mut buf = Vec::new();
    inbound.encode_into(&mut buf);
    assert_eq!(
        hex(&buf),
        concat!(
            "00",               // dir
            "0102030405060708", // t_ns
            "00000007",         // conn
            "20",               // kind, then a, b, len, crc
            "00000003",
            "00000001",
            "00000004",
            "e5a5614c",
            "deadbeef", // body
        )
    );
    buf.clear();
    outbound.encode_into(&mut buf);
    assert_eq!(
        hex(&buf),
        concat!(
            "01",
            "1112131415161718",
            "00000009",
            "21",
            "00000003",
            "00000001",
            "00000002",
            "b1ecbf95",
            "cafe",
        )
    );
}
