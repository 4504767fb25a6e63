//! Daemon federation: sharded channels over a mesh of daemons.
//!
//! Exercises the four mesh guarantees end to end over loopback TCP:
//! byte-identical delivery across a relay hop, format-gossip
//! convergence for a late joiner, exactly-once delivery across a
//! partition + heal, and exact relay accounting when the peer daemon is
//! killed mid-stream (with the home daemon running a seeded fault plan,
//! like the CI fault matrix does).

use std::collections::HashMap;
use std::io::{ErrorKind, Write};
use std::net::TcpListener;
use std::time::{Duration, Instant};

use pbio_net::frame::{read_frame, write_frame, Frame};
use pbio_serv::protocol::{
    K_CHANNEL, K_CHANNEL_ACK, K_EVENT, K_FORMAT, K_HELLO, K_HELLO_ACK, K_SUBSCRIBE, OFFSET_FLAG,
    PROTOCOL_VERSION,
};
use pbio_serv::{
    home_of, MeshConfig, ServClient, ServConfig, ServDaemon, TraceConfig, CAP_DURABLE, CAP_PEER,
    CAP_TRACE,
};
use pbio_types::arch::ArchProfile;
use pbio_types::layout::Layout;
use pbio_types::meta::serialize_layout;
use pbio_types::schema::{AtomType, FieldDecl, Schema};

fn ev_schema() -> Schema {
    Schema::new("mesh-ev", vec![FieldDecl::atom("seq", AtomType::U64)]).unwrap()
}

fn ev_bytes(seq: u64) -> [u8; 8] {
    // x86-64 native layout of the one-field record: little-endian u64.
    seq.to_le_bytes()
}

fn mesh_config(index: u32, size: u32) -> ServConfig {
    ServConfig {
        peers: Some(MeshConfig::new(index, size, Vec::new())),
        stats_interval: None,
        trace: TraceConfig {
            publish_interval: None,
            ..TraceConfig::default()
        },
        queue_capacity: 4096,
        ..ServConfig::default()
    }
}

/// Two daemons, indices 0 and 1, dialing each other. Ports are only
/// known after binding, so peers are wired with `connect_peer`.
fn mesh_pair() -> (ServDaemon, ServDaemon) {
    let d0 = ServDaemon::bind_with("127.0.0.1:0", mesh_config(0, 2)).unwrap();
    let d1 = ServDaemon::bind_with("127.0.0.1:0", mesh_config(1, 2)).unwrap();
    assert!(d0.connect_peer(1, d1.local_addr().to_string()));
    assert!(d1.connect_peer(0, d0.local_addr().to_string()));
    wait_for(
        || {
            let up = |d: &ServDaemon| d.peer_stats().iter().any(|p| p.connected);
            up(&d0) && up(&d1)
        },
        "both peer links to connect",
    );
    (d0, d1)
}

/// A channel name whose home is mesh index `home` in a mesh of `size`.
fn name_homed(home: u32, size: u32) -> String {
    (0..)
        .map(|i| format!("mesh-chan-{i}"))
        .find(|n| home_of(n, size) == home)
        .unwrap()
}

fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(15);
    while Instant::now() < deadline {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("timed out waiting for {what}");
}

/// Drain raw events until every seq in `want` has been seen (plus a
/// short grace window to catch duplicates), returning seq → (bytes,
/// delivery count). Events outside `want` (e.g. probes) are recorded
/// but don't gate completion.
fn collect_seqs(
    client: &mut ServClient,
    want: std::ops::Range<u64>,
) -> HashMap<u64, (Vec<u8>, usize)> {
    let deadline = Instant::now() + Duration::from_secs(15);
    let mut out: HashMap<u64, (Vec<u8>, usize)> = HashMap::new();
    let mut complete_at: Option<Instant> = None;
    loop {
        let now = Instant::now();
        if now >= deadline || complete_at.is_some_and(|t| now >= t) {
            break;
        }
        if let Some(ev) = client.poll_raw(Duration::from_millis(100)).unwrap() {
            let seq = u64::from_le_bytes(ev.bytes[..8].try_into().unwrap());
            let entry = out.entry(seq).or_insert_with(|| (ev.bytes.to_vec(), 0));
            entry.1 += 1;
        }
        if complete_at.is_none() && want.clone().all(|s| out.contains_key(&s)) {
            complete_at = Some(Instant::now() + Duration::from_millis(300));
        }
    }
    out
}

/// The publish travels d0 → (relay) → d1 (home fan-out) → (relay) → d0,
/// and what the relayed subscriber sees is byte-identical to both the
/// published record and what a home-local subscriber sees. `$topo` on
/// both daemons reports the peer links and the channel's home.
#[test]
fn relay_delivers_byte_identical_events() {
    let (d0, d1) = mesh_pair();
    let name = name_homed(1, 2);

    // Subscriber at d0: interest in a channel homed at d1 — served via
    // a relay subscription over the peer link.
    let mut relay_sub = ServClient::connect(d0.local_addr(), &ArchProfile::X86_64).unwrap();
    let chan0 = relay_sub.open_channel(&name).unwrap();
    relay_sub.subscribe_raw(chan0, None).unwrap();

    // Subscriber at d1: sees the home fan-out directly.
    let mut home_sub = ServClient::connect(d1.local_addr(), &ArchProfile::X86_64).unwrap();
    let chan1 = home_sub.open_channel(&name).unwrap();
    home_sub.subscribe_raw(chan1, None).unwrap();

    // Publisher at d0 — the wrong daemon, deliberately. Every publish
    // is forwarded to the home.
    let mut publisher = ServClient::connect(d0.local_addr(), &ArchProfile::X86_64).unwrap();
    let fmt = publisher.register_format(&ev_schema()).unwrap();
    let pchan = publisher.open_channel(&name).unwrap();

    // Probe until the relay subscription is live end to end (publishes
    // that race its establishment reach the home but not the relay).
    wait_for(
        || {
            publisher.publish(pchan, fmt, &ev_bytes(0)).unwrap();
            relay_sub
                .poll_raw(Duration::from_millis(100))
                .unwrap()
                .is_some()
        },
        "relay subscription to become live",
    );

    const N: u64 = 20;
    for seq in 1..=N {
        publisher.publish(pchan, fmt, &ev_bytes(seq)).unwrap();
    }

    let relayed = collect_seqs(&mut relay_sub, 1..N + 1);
    let homed = collect_seqs(&mut home_sub, 1..N + 1);
    for seq in 1..=N {
        let (bytes, count) = relayed
            .get(&seq)
            .unwrap_or_else(|| panic!("relay subscriber missed seq {seq}"));
        assert_eq!(*count, 1, "seq {seq} delivered more than once via relay");
        assert_eq!(
            bytes.as_slice(),
            &ev_bytes(seq),
            "relayed bytes differ from published bytes for seq {seq}"
        );
        let (hbytes, _) = homed
            .get(&seq)
            .unwrap_or_else(|| panic!("home subscriber missed seq {seq}"));
        assert_eq!(bytes, hbytes, "relay hop altered bytes for seq {seq}");
    }

    // Introspection: both daemons report their peer link, and the
    // channel's home is index 1 on both shard maps.
    let topo0 = relay_sub.inspect().unwrap();
    let peer = topo0
        .peers
        .iter()
        .find(|p| p.peer == 1)
        .expect("d0 $topo lists peer 1");
    assert!(peer.connected);
    assert!(peer.relay_tx >= N, "forwards counted: {}", peer.relay_tx);
    assert!(
        peer.relay_rx >= N,
        "relayed events counted: {}",
        peer.relay_rx
    );
    let ch = topo0
        .channels
        .iter()
        .find(|c| c.id == chan0)
        .expect("channel in d0 $topo");
    assert_eq!(ch.home, 1, "shard map owner surfaces in $topo");
    let topo1 = home_sub.inspect().unwrap();
    assert!(topo1.peers.iter().any(|p| p.peer == 0 && p.connected));
}

/// Formats registered before a peer ever connects reach it through the
/// connect-time gossip dump; formats registered after reach it through
/// the fresh-registration broadcast.
#[test]
fn format_gossip_converges_for_late_joiner() {
    let d0 = ServDaemon::bind_with("127.0.0.1:0", mesh_config(0, 2)).unwrap();
    let mut c0 = ServClient::connect(d0.local_addr(), &ArchProfile::X86_64).unwrap();
    c0.register_format(&ev_schema()).unwrap();
    let before = d0.formats().len();
    assert!(before >= 1);

    // The late joiner: a daemon that starts after the format existed.
    let d1 = ServDaemon::bind_with("127.0.0.1:0", mesh_config(1, 2)).unwrap();
    assert_eq!(d1.formats().len(), 0, "late joiner starts empty");
    assert!(d0.connect_peer(1, d1.local_addr().to_string()));
    assert!(d1.connect_peer(0, d0.local_addr().to_string()));

    // Connect-time dump: the pre-existing format appears at d1.
    wait_for(
        || d1.formats().len() >= before,
        "gossip dump to reach the late joiner",
    );

    // Fresh-registration broadcast: a format registered at d0 *after*
    // the mesh converged appears at d1 without any publish traffic.
    let extra = Schema::new(
        "mesh-late",
        vec![
            FieldDecl::atom("seq", AtomType::U64),
            FieldDecl::atom("value", AtomType::CDouble),
        ],
    )
    .unwrap();
    c0.register_format(&extra).unwrap();
    let after = d0.formats().len();
    assert!(after > before);
    wait_for(
        || d1.formats().len() >= after,
        "fresh registration to broadcast",
    );

    // Convergence is by content: every meta registered at d0 decodes to
    // the same id-able bytes at d1.
    for id in 0..after as u32 {
        let meta = d0.formats().meta(id).expect("d0 meta");
        let (d1_id, _, fresh) = d1.formats().register_meta(&meta).expect("d1 decode");
        assert!(!fresh, "d1 should already know format {id} (got {d1_id})");
    }
}

/// A severed link parks forwards in its bounded pending queue; healing
/// drains the backlog. The home-side subscriber sees every event
/// exactly once — nothing lost, nothing duplicated.
#[test]
fn partition_and_heal_delivers_exactly_once() {
    let (d0, d1) = mesh_pair();
    let name = name_homed(1, 2);

    let mut sub = ServClient::connect(d1.local_addr(), &ArchProfile::X86_64).unwrap();
    let chan1 = sub.open_channel(&name).unwrap();
    sub.subscribe_raw(chan1, None).unwrap();

    let mut publisher = ServClient::connect(d0.local_addr(), &ArchProfile::X86_64).unwrap();
    let fmt = publisher.register_format(&ev_schema()).unwrap();
    let pchan = publisher.open_channel(&name).unwrap();

    // Phase 1: healthy mesh. (Early publishes may park briefly while
    // the link resolves ids; the pending queue guarantees they arrive.)
    for seq in 0..10u64 {
        publisher.publish(pchan, fmt, &ev_bytes(seq)).unwrap();
    }
    let phase1 = collect_seqs(&mut sub, 0..10);
    assert_eq!(phase1.len(), 10, "phase 1 events all arrive");

    // Phase 2: partition, then publish into the outage.
    assert!(d0.partition_peer(1, true));
    wait_for(
        || d0.peer_stats().iter().any(|p| p.peer == 1 && !p.connected),
        "partition to take effect",
    );
    for seq in 10..30u64 {
        publisher.publish(pchan, fmt, &ev_bytes(seq)).unwrap();
    }
    wait_for(
        || {
            d0.peer_stats()
                .iter()
                .any(|p| p.peer == 1 && p.pending == 20)
        },
        "20 forwards to park in the pending queue",
    );
    assert!(
        sub.poll_raw(Duration::from_millis(300)).unwrap().is_none(),
        "nothing crosses a severed link"
    );

    // Phase 3: heal. The backlog drains in order, exactly once.
    assert!(d0.partition_peer(1, false));
    let phase3 = collect_seqs(&mut sub, 10..30);
    let mut all = phase1;
    for (seq, v) in phase3 {
        let e = all.entry(seq).or_insert_with(|| (v.0.clone(), 0));
        e.1 += v.1;
    }
    for seq in 0..30u64 {
        let (bytes, count) = all
            .get(&seq)
            .unwrap_or_else(|| panic!("seq {seq} lost across the partition"));
        assert_eq!(*count, 1, "seq {seq} duplicated across the heal");
        assert_eq!(bytes.as_slice(), &ev_bytes(seq));
    }
    let stats = d0.peer_stats();
    let p = stats.iter().find(|p| p.peer == 1).unwrap();
    assert_eq!(p.pending, 0, "backlog fully drained");
    assert_eq!(p.relay_dropped, 0, "nothing hit the drop-oldest bound");
    assert_eq!(p.relay_tx, 30, "every forward accounted as transmitted");
}

/// Kill the home daemon mid-stream — while its connections run a seeded
/// fault plan, as in the CI fault matrix — and keep publishing. Every
/// forward must be accounted for exactly: transmitted, dropped by the
/// bounded pending queue, or still parked.
#[test]
fn peer_killed_mid_relay_keeps_exact_accounting() {
    let seed = std::env::var("PBIO_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7u64);
    let d0 = ServDaemon::bind_with("127.0.0.1:0", mesh_config(0, 2)).unwrap();
    let mut cfg1 = mesh_config(1, 2);
    cfg1.fault_seed = Some(seed);
    let d1 = ServDaemon::bind_with("127.0.0.1:0", cfg1).unwrap();
    assert!(d0.connect_peer(1, d1.local_addr().to_string()));
    assert!(d1.connect_peer(0, d0.local_addr().to_string()));
    wait_for(
        || d0.peer_stats().iter().any(|p| p.connected),
        "link to the faulty home daemon",
    );

    let name = name_homed(1, 2);
    let mut publisher = ServClient::connect(d0.local_addr(), &ArchProfile::X86_64).unwrap();
    let fmt = publisher.register_format(&ev_schema()).unwrap();
    let pchan = publisher.open_channel(&name).unwrap();

    const ALIVE: u64 = 50;
    // More than the link's pending bound (1024), so the drop-oldest
    // path is exercised too once the peer is gone.
    const DEAD: u64 = 1300;
    for seq in 0..ALIVE {
        publisher.publish(pchan, fmt, &ev_bytes(seq)).unwrap();
    }
    wait_for(
        || {
            let s = d0.peer_stats();
            let p = s.iter().find(|p| p.peer == 1).unwrap();
            p.relay_tx + p.relay_dropped + p.pending == ALIVE
        },
        "pre-kill forwards to be accounted",
    );

    d1.shutdown();
    // Wait until d0's link thread has observed the death before the
    // overflow burst: otherwise the kernel socket buffer can swallow
    // (and count as transmitted) frames written to the dead peer, and
    // the drop-oldest path below would depend on EOF-detection timing.
    wait_for(
        || !d0.peer_stats().iter().any(|p| p.connected),
        "link to notice the dead peer",
    );
    for seq in ALIVE..ALIVE + DEAD {
        publisher.publish(pchan, fmt, &ev_bytes(seq)).unwrap();
    }

    // The invariant must converge: every forward transmitted, dropped,
    // or parked — none silently vanished.
    wait_for(
        || {
            let s = d0.peer_stats();
            let p = s.iter().find(|p| p.peer == 1).unwrap();
            p.relay_tx + p.relay_dropped + p.pending == ALIVE + DEAD
        },
        "exact accounting after the peer died",
    );
    let s = d0.peer_stats();
    let p = s.iter().find(|p| p.peer == 1).unwrap();
    assert!(
        p.pending <= 1024,
        "pending queue respects its bound: {}",
        p.pending
    );
    assert!(
        p.relay_dropped > 0,
        "publishing past the bound must hit drop-oldest"
    );
    // The publisher's own session (to the live d0) is unaffected.
    publisher.publish(pchan, fmt, &ev_bytes(u64::MAX)).unwrap();
    publisher.disconnect().unwrap();
}

/// A relayed event is hostile input from another process: a body
/// shorter than its flagged trailers, or than its format's layout, is
/// dropped and counted in `frames_rejected`, and the link keeps relaying.
/// The home daemon here is a plain socket speaking the peer protocol.
#[test]
fn short_relayed_event_is_rejected_and_the_link_survives() {
    const PEER_CHAN: u32 = 5;
    const PEER_FMT: u32 = 3;
    let home = TcpListener::bind("127.0.0.1:0").unwrap();
    let home_addr = home.local_addr().unwrap();
    let meta = serialize_layout(&Layout::of(&ev_schema(), &ArchProfile::X86_64).unwrap());
    let fake_home = std::thread::spawn(move || {
        let (mut s, _) = home.accept().unwrap();
        s.set_read_timeout(Some(Duration::from_secs(15))).unwrap();
        let hello = read_frame(&mut s).unwrap();
        assert_eq!(hello.kind, K_HELLO);
        let mut granted = (CAP_PEER | CAP_TRACE | CAP_DURABLE).to_be_bytes().to_vec();
        granted.extend_from_slice(&[0; 12]);
        write_frame(
            &mut s,
            &Frame::with_body(K_HELLO_ACK, PROTOCOL_VERSION, 1, granted),
        )
        .unwrap();
        // Serve the link until its relay subscription arrives, then
        // gossip the format and relay three events on it.
        while let Ok(f) = read_frame(&mut s) {
            match f.kind {
                K_CHANNEL => {
                    write_frame(&mut s, &Frame::control(K_CHANNEL_ACK, f.a, PEER_CHAN)).unwrap()
                }
                K_SUBSCRIBE if f.a == PEER_CHAN => {
                    let frames = [
                        Frame::with_body(K_FORMAT, PEER_FMT, 0, meta.clone()),
                        // Flags an 8-byte offset trailer on a 3-byte body.
                        Frame::with_body(K_EVENT, PEER_CHAN, PEER_FMT | OFFSET_FLAG, vec![1u8; 3]),
                        // No trailers, but short of the 8-byte layout.
                        Frame::with_body(K_EVENT, PEER_CHAN, PEER_FMT, vec![2u8; 3]),
                        // Well formed, but damaged in flight: a bad CRC.
                        Frame::with_body(K_EVENT, PEER_CHAN, PEER_FMT, ev_bytes(7).to_vec()),
                        Frame::with_body(K_EVENT, PEER_CHAN, PEER_FMT, ev_bytes(42).to_vec()),
                    ];
                    // One write: the link reads every frame in one go, so
                    // the good event sits behind the bad one in its buffer.
                    let mut wire = Vec::new();
                    for (i, f) in frames.iter().enumerate() {
                        write_frame(&mut wire, f).unwrap();
                        if i == 3 {
                            *wire.last_mut().unwrap() ^= 0x01;
                        }
                    }
                    s.write_all(&wire).unwrap();
                }
                _ => {}
            }
        }
    });

    let d0 = ServDaemon::bind_with("127.0.0.1:0", mesh_config(0, 2)).unwrap();
    assert!(d0.connect_peer(1, home_addr.to_string()));
    let mut sub = ServClient::connect(d0.local_addr(), &ArchProfile::X86_64).unwrap();
    let chan = sub.open_channel(&name_homed(1, 2)).unwrap();
    sub.subscribe_raw(chan, None).unwrap();

    let deadline = Instant::now() + Duration::from_secs(15);
    let bytes = loop {
        assert!(Instant::now() < deadline, "well-formed relay never arrived");
        if let Some(ev) = sub.poll_raw(Duration::from_millis(100)).unwrap() {
            break ev.bytes.to_vec();
        }
    };
    assert_eq!(
        bytes,
        ev_bytes(42),
        "the first delivery is the well-formed event"
    );
    assert_eq!(
        d0.stats().frames_rejected,
        3,
        "both short events and the bad-CRC frame counted"
    );
    let link = d0.peer_stats();
    assert!(link.iter().any(|p| p.peer == 1 && p.connected));
    d0.shutdown();
    fake_home.join().unwrap();
}

/// A peer that stalls halfway through its `HELLO_ACK` is given up on at
/// the handshake deadline and redialed; the link thread never hangs.
#[test]
fn peer_stalling_mid_handshake_is_redialed() {
    let peer = TcpListener::bind("127.0.0.1:0").unwrap();
    let d0 = ServDaemon::bind_with("127.0.0.1:0", mesh_config(0, 2)).unwrap();
    assert!(d0.connect_peer(1, peer.local_addr().unwrap().to_string()));
    let (mut first, _) = peer.accept().unwrap();
    first
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    assert_eq!(read_frame(&mut first).unwrap().kind, K_HELLO);
    let mut granted = (CAP_PEER | CAP_TRACE | CAP_DURABLE).to_be_bytes().to_vec();
    granted.extend_from_slice(&[0; 12]);
    let mut ack = Vec::new();
    write_frame(
        &mut ack,
        &Frame::with_body(K_HELLO_ACK, PROTOCOL_VERSION, 1, granted),
    )
    .unwrap();
    first.write_all(&ack[..5]).unwrap();
    let stalled_at = Instant::now();
    // The 5 s handshake deadline, the 0.5 s backoff ceiling, and 2 s of
    // slack.
    let budget = Duration::from_millis(7_500);
    peer.set_nonblocking(true).unwrap();
    let redial = loop {
        match peer.accept() {
            Ok((s, _)) => break s,
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                assert!(
                    stalled_at.elapsed() < budget,
                    "no redial within {budget:?} of the stall"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("accept failed: {e}"),
        }
    };
    drop((redial, first));
    d0.shutdown();
}
