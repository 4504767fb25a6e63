//! Durable-channel suite: publish acks, `subscribe_from` replay with a
//! gapless handoff to live delivery, daemon kill/restart with exact
//! accounting (every event acked before the crash is delivered after
//! it), torn-tail crash recovery, and live store-fault recovery.

use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use pbio_net::fault::FaultPlan;
use pbio_obs::export::TopoSnapshot;
use pbio_obs::labeled2;
use pbio_serv::{
    ClientConfig, FlushPolicy, ServClient, ServConfig, ServDaemon, StoreConfig, TraceConfig,
};
use pbio_types::arch::ArchProfile;
use pbio_types::schema::{AtomType, FieldDecl, Schema};
use pbio_types::value::{RecordValue, Value};

/// A test-unique store directory under the system temp dir.
fn store_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("pbio-durable-{tag}-{}-{seq}", std::process::id()))
}

fn durable_config(dir: &Path) -> ServConfig {
    ServConfig {
        stats_interval: None,
        trace: TraceConfig {
            sample_mod: 0,
            publish_interval: None,
            sink_capacity: 16,
        },
        durability: Some(StoreConfig {
            flush: FlushPolicy::EveryBatch,
            ..StoreConfig::new(dir.to_path_buf())
        }),
        ..ServConfig::default()
    }
}

fn resume_client() -> ClientConfig {
    ClientConfig {
        resume: true,
        backoff_initial: Duration::from_millis(10),
        backoff_max: Duration::from_millis(200),
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

fn seq_of(ev: &pbio_serv::Event<'_>) -> i64 {
    let Some(Value::I64(s)) = ev.view.get("seq") else {
        panic!("seq missing from delivered event")
    };
    let Some(Value::F64(t)) = ev.view.get("temp") else {
        panic!("temp missing from delivered event")
    };
    assert_eq!(t, s as f64 * 0.5, "delivered record is self-consistent");
    s
}

/// Block until the publisher has seen acks for all `n` publishes.
fn await_acks(publisher: &mut ServClient, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(15);
    while publisher.stats().publishes_acked < n {
        assert!(Instant::now() < deadline, "acks stalled at {}/{n}", {
            publisher.stats().publishes_acked
        });
        // Acks are consumed transparently by the poll loop.
        let _ = publisher.poll(Duration::from_millis(50)).unwrap();
    }
}

/// Happy path: events on a durable channel arrive stamped with
/// contiguous offsets, publishes are acked once on disk, and a *late*
/// subscriber reading from offset 0 receives the full history followed
/// gaplessly by live events.
#[test]
fn durable_channel_acks_replays_and_hands_off_gaplessly() {
    let dir = store_dir("handoff");
    let daemon = ServDaemon::bind_with("127.0.0.1:0", durable_config(&dir)).unwrap();
    let addr = daemon.local_addr();
    let schema = tick_schema();

    let mut publisher = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
    assert!(publisher.durable_negotiated());
    let format = publisher.register_format(&schema).unwrap();
    let chan = publisher.open_channel_durable("events").unwrap();

    // Live subscriber from the start: sees offsets stamped on the
    // ordinary subscription path too.
    let mut live = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
    let live_chan = live.open_channel("events").unwrap();
    live.subscribe(live_chan, &schema, None).unwrap();

    const HISTORY: i64 = 200;
    for seq in 0..HISTORY {
        publisher.publish_value(chan, format, &tick(seq)).unwrap();
    }
    await_acks(&mut publisher, HISTORY as u64);
    assert_eq!(
        publisher.last_durable_offset(chan),
        Some(HISTORY as u64 - 1),
        "ack carries the last durable offset"
    );

    // The live subscriber sees every event with its offset.
    let mut live_seen = 0i64;
    let deadline = Instant::now() + Duration::from_secs(10);
    while live_seen < HISTORY && Instant::now() < deadline {
        if let Some(ev) = live.poll(Duration::from_millis(100)).unwrap() {
            assert_eq!(seq_of(&ev), live_seen);
            assert_eq!(ev.offset, Some(live_seen as u64), "offset rides the event");
            live_seen += 1;
        }
    }
    assert_eq!(live_seen, HISTORY, "live subscriber saw the full stream");

    // Late subscriber: full replay from 0, then live events, one gapless
    // contiguous sequence. Publish the live tail *while* replay streams.
    let mut late = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
    let late_chan = late.open_channel("events").unwrap();
    late.subscribe_from(late_chan, &schema, 0).unwrap();
    const TAIL: i64 = 100;
    for seq in HISTORY..HISTORY + TAIL {
        publisher.publish_value(chan, format, &tick(seq)).unwrap();
    }
    let mut next = 0i64;
    let deadline = Instant::now() + Duration::from_secs(20);
    while next < HISTORY + TAIL && Instant::now() < deadline {
        if let Some(ev) = late.poll(Duration::from_millis(100)).unwrap() {
            assert_eq!(
                seq_of(&ev),
                next,
                "replay → live handoff is gapless and duplicate-free"
            );
            assert_eq!(ev.offset, Some(next as u64));
            next += 1;
        }
    }
    assert_eq!(next, HISTORY + TAIL, "replay handed off to live delivery");
    assert_eq!(
        late.last_seen_offset(late_chan),
        Some((HISTORY + TAIL - 1) as u64)
    );

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The tentpole acceptance: kill the daemon mid-storm, restart it over
/// the same store directory, and verify **every event acked before the
/// crash is delivered** to a `subscribe_from` reader after the restart —
/// exact accounting, zero silent loss.
#[test]
fn kill_and_restart_preserves_every_acked_event() {
    let dir = store_dir("restart");
    let daemon = ServDaemon::bind_with("127.0.0.1:0", durable_config(&dir)).unwrap();
    let addr = daemon.local_addr();
    let schema = tick_schema();

    let mut publisher =
        ServClient::connect_with(addr, &ArchProfile::X86_64, resume_client()).unwrap();
    let format = publisher.register_format(&schema).unwrap();
    let chan = publisher.open_channel_durable("storm").unwrap();

    const STORM: i64 = 500;
    for seq in 0..STORM {
        publisher.publish_value(chan, format, &tick(seq)).unwrap();
    }
    await_acks(&mut publisher, STORM as u64);
    let acked_through = publisher.last_durable_offset(chan).unwrap();
    assert_eq!(acked_through, STORM as u64 - 1);

    // Crash. (Graceful shutdown also syncs; the torn-tail variant below
    // simulates the un-synced case.)
    daemon.shutdown();

    // Restart over the same store directory, same port.
    let daemon2 = ServDaemon::bind_with(addr, durable_config(&dir)).unwrap();

    // A fresh subscriber replays everything that was ever acked.
    let mut reader = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
    let r_chan = reader.open_channel_durable("storm").unwrap();
    reader.subscribe_from(r_chan, &schema, 0).unwrap();
    let mut next = 0i64;
    let deadline = Instant::now() + Duration::from_secs(20);
    while next <= acked_through as i64 && Instant::now() < deadline {
        if let Some(ev) = reader.poll(Duration::from_millis(100)).unwrap() {
            assert_eq!(
                seq_of(&ev),
                next,
                "acked event lost or reordered by restart"
            );
            assert_eq!(ev.offset, Some(next as u64));
            next += 1;
        }
    }
    assert_eq!(
        next - 1,
        acked_through as i64,
        "every event acked before the crash was delivered after it"
    );

    // The publisher's socket died with the old daemon; poll until it
    // notices and resumes (publishes to an undetected-dead socket would
    // vanish into the kernel buffer).
    let deadline = Instant::now() + Duration::from_secs(15);
    while publisher.stats().reconnects == 0 && Instant::now() < deadline {
        let _ = publisher.poll(Duration::from_millis(50));
    }
    assert!(publisher.stats().reconnects >= 1, "publisher resumed");

    // New publishes continue the offset sequence past the recovered head.
    publisher.publish_value(chan, format, &tick(STORM)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut tail = None;
    while tail.is_none() && Instant::now() < deadline {
        if let Some(ev) = reader.poll(Duration::from_millis(100)).unwrap() {
            tail = Some((seq_of(&ev), ev.offset));
        }
    }
    let (tail_seq, tail_off) = tail.expect("post-restart publish flows to the replay reader");
    assert_eq!(tail_seq, STORM);
    assert_eq!(tail_off, Some(STORM as u64), "offsets continue, no reuse");

    daemon2.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash mid-write leaves a torn final record. Restarting must
/// truncate exactly the torn tail (counted), keep every intact record,
/// and never refuse to start.
#[test]
fn torn_final_record_is_truncated_and_counted_on_restart() {
    let dir = store_dir("torn");
    let daemon = ServDaemon::bind_with("127.0.0.1:0", durable_config(&dir)).unwrap();
    let addr = daemon.local_addr();
    let schema = tick_schema();

    let mut publisher = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
    let format = publisher.register_format(&schema).unwrap();
    let chan = publisher.open_channel_durable("torn").unwrap();
    const N: i64 = 50;
    for seq in 0..N {
        publisher.publish_value(chan, format, &tick(seq)).unwrap();
    }
    await_acks(&mut publisher, N as u64);
    daemon.shutdown();

    // Simulate dying mid-append: a partial entry at the tail of the
    // active segment (a plausible header announcing more bytes than
    // follow).
    let seg = newest_segment(&dir);
    let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
    f.write_all(&[2u8]).unwrap(); // REC_EVENT kind
    f.write_all(&1000u32.to_be_bytes()).unwrap(); // length the crash never wrote
    f.write_all(&[0xAA; 7]).unwrap(); // a fragment of what should be 1008 bytes
    drop(f);

    let daemon2 = ServDaemon::bind_with(addr, durable_config(&dir)).unwrap();

    // Recovery runs when the channel log is first reopened — which
    // happens as soon as a client opens the durable channel.
    let mut reader = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
    let r_chan = reader.open_channel_durable("torn").unwrap();
    let metrics = daemon2.store().unwrap().metrics().clone();
    assert_eq!(metrics.torn_tails.get(), 1, "the torn tail was counted");
    assert!(metrics.truncated_bytes.get() >= 12, "and its bytes tallied");

    // All intact records replay; the torn one is gone without a trace.
    reader.subscribe_from(r_chan, &schema, 0).unwrap();
    let mut next = 0i64;
    let deadline = Instant::now() + Duration::from_secs(15);
    while next < N && Instant::now() < deadline {
        if let Some(ev) = reader.poll(Duration::from_millis(100)).unwrap() {
            assert_eq!(seq_of(&ev), next);
            next += 1;
        }
    }
    assert_eq!(next, N, "every intact record survived the torn tail");

    daemon2.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Live store-fault recovery: a short write injected into the segment
/// log *while the daemon is running* must not lose any event the daemon
/// acked — the store seals the damaged segment, re-appends the suffix,
/// and only then acks.
#[test]
fn injected_short_write_on_the_live_store_loses_nothing_acked() {
    let dir = store_dir("live-fault");
    let mut config = durable_config(&dir);
    // The CI fault matrix sets `PBIO_FAULT_SEED`; each seed tears the
    // stream at a different byte position, so the matrix walks distinct
    // torn-entry boundaries (mid-header, mid-payload, between entries).
    let seed: u64 = std::env::var("PBIO_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    if let Some(store) = &mut config.durability {
        // Tear the stream mid-record a few KiB in; the plan is one-shot,
        // so recovery faces a clean segment afterwards.
        let at = 2048 + (seed % 97) * 53;
        store.fault = Some(FaultPlan::new().short_write_on_flush(at, (seed % 17) as usize));
    }
    let daemon = ServDaemon::bind_with("127.0.0.1:0", config).unwrap();
    let addr = daemon.local_addr();
    let schema = tick_schema();

    let mut publisher = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
    let format = publisher.register_format(&schema).unwrap();
    let chan = publisher.open_channel_durable("frail").unwrap();
    const N: i64 = 400;
    for seq in 0..N {
        publisher.publish_value(chan, format, &tick(seq)).unwrap();
    }
    await_acks(&mut publisher, N as u64);
    let metrics = daemon.store().unwrap().metrics().clone();
    assert!(
        metrics.torn_tails.get() >= 1,
        "the injected fault actually fired and was recovered live"
    );

    // Everything acked replays, in order, despite the mid-run tear.
    let mut reader = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
    let r_chan = reader.open_channel_durable("frail").unwrap();
    reader.subscribe_from(r_chan, &schema, 0).unwrap();
    let mut next = 0i64;
    let deadline = Instant::now() + Duration::from_secs(20);
    while next < N && Instant::now() < deadline {
        if let Some(ev) = reader.poll(Duration::from_millis(100)).unwrap() {
            assert_eq!(seq_of(&ev), next, "acked event lost to the live fault");
            next += 1;
        }
    }
    assert_eq!(next, N, "all acked events recovered after the live tear");

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reconnect-resume over a durable channel is lossless: after the daemon
/// restarts, a resuming `subscribe_from` client continues from the last
/// offset it saw — the outage gap is replayed from the log, nothing is
/// duplicated.
#[test]
fn resume_over_durable_channel_replays_the_outage_gap() {
    let dir = store_dir("resume");
    let daemon = ServDaemon::bind_with("127.0.0.1:0", durable_config(&dir)).unwrap();
    let addr = daemon.local_addr();
    let schema = tick_schema();

    let mut publisher =
        ServClient::connect_with(addr, &ArchProfile::X86_64, resume_client()).unwrap();
    let format = publisher.register_format(&schema).unwrap();
    let chan = publisher.open_channel_durable("gap").unwrap();

    let mut reader = ServClient::connect_with(addr, &ArchProfile::X86_64, resume_client()).unwrap();
    let r_chan = reader.open_channel_durable("gap").unwrap();
    reader.subscribe_from(r_chan, &schema, 0).unwrap();

    const FIRST: i64 = 100;
    for seq in 0..FIRST {
        publisher.publish_value(chan, format, &tick(seq)).unwrap();
    }
    let mut next = 0i64;
    let deadline = Instant::now() + Duration::from_secs(10);
    while next < FIRST && Instant::now() < deadline {
        if let Some(ev) = reader.poll(Duration::from_millis(100)).unwrap() {
            assert_eq!(seq_of(&ev), next);
            next += 1;
        }
    }
    assert_eq!(next, FIRST);

    // Daemon dies; restart over the same store. The publisher's next
    // publishes buffer through the outage; the reader's poll loop drives
    // its own resume, replaying `subscribe_from` from the last offset.
    daemon.shutdown();
    let daemon2 = ServDaemon::bind_with(addr, durable_config(&dir)).unwrap();

    const SECOND: i64 = 100;
    // The publisher hasn't *noticed* the outage yet (a write to a
    // freshly-dead socket can vanish into the kernel buffer without an
    // error) — poll until it has actually reconnected before publishing.
    let deadline = Instant::now() + Duration::from_secs(15);
    while publisher.stats().reconnects == 0 && Instant::now() < deadline {
        let _ = publisher.poll(Duration::from_millis(50));
    }
    assert!(publisher.stats().reconnects >= 1, "publisher resumed");
    for seq in FIRST..FIRST + SECOND {
        publisher.publish_value(chan, format, &tick(seq)).unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(20);
    while next < FIRST + SECOND && Instant::now() < deadline {
        if let Ok(Some(ev)) = reader.poll(Duration::from_millis(100)) {
            assert_eq!(
                seq_of(&ev),
                next,
                "resume lost or duplicated events across the restart"
            );
            next += 1;
        }
    }
    assert_eq!(next, FIRST + SECOND, "the outage gap was replayed exactly");
    assert!(
        reader.stats().reconnects >= 1,
        "the reader actually resumed"
    );

    daemon2.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Consumer-lag watermarks during historical replay: a
/// `subscribe_from(0)` reader over 4000 events of history shows a
/// visibly nonzero lag while the replay is wedged against its bounded
/// queue, and the watermark converges to exactly 0 once the reader
/// drains and replay hands off to live delivery.
#[test]
fn subscribe_from_replay_surfaces_then_clears_consumer_lag() {
    const EVENTS: u64 = 4_000;
    let dir = store_dir("lag");
    let daemon = ServDaemon::bind_with(
        "127.0.0.1:0",
        ServConfig {
            // A small queue wedges the replay stream until the reader
            // polls, freezing a mid-replay watermark for inspection.
            queue_capacity: 32,
            ..durable_config(&dir)
        },
    )
    .unwrap();
    let addr = daemon.local_addr();
    let schema = tick_schema();

    let mut publisher = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
    let format = publisher.register_format(&schema).unwrap();
    let chan = publisher.open_channel_durable("lagged").unwrap();
    for seq in 0..EVENTS {
        publisher
            .publish_value(chan, format, &tick(seq as i64))
            .unwrap();
    }
    await_acks(&mut publisher, EVENTS);

    // Replay from 0 without polling: the lag entry is seeded at the
    // requested offset, so the watermark is immediately the full
    // backlog, shrinking only as far as the wedged queue allows.
    let mut reader = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
    let r_chan = reader.open_channel("lagged").unwrap();
    reader.subscribe_from(r_chan, &schema, 0).unwrap();
    let topo = daemon.topology();
    let row = topo
        .lags
        .iter()
        .find(|l| l.chan == r_chan && l.conn == reader.conn_id())
        .expect("replay-in-progress consumer has a watermark");
    assert_eq!(row.head, EVENTS);
    assert!(
        row.delivered < EVENTS && row.lag() > 0,
        "mid-replay watermark is visibly behind: {row:?}"
    );

    // Drain; replay hands off to live delivery and the watermark
    // converges to exactly 0.
    let mut got = 0u64;
    let deadline = Instant::now() + Duration::from_secs(60);
    while got < EVENTS && Instant::now() < deadline {
        if reader.poll(Duration::from_millis(100)).unwrap().is_some() {
            got += 1;
        }
    }
    assert_eq!(got, EVENTS, "replay delivered the full history");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let topo = daemon.topology();
        let row = topo
            .lags
            .iter()
            .find(|l| l.chan == r_chan && l.conn == reader.conn_id())
            .expect("watermark persists while the reader is connected");
        if row.delivered == EVENTS && row.head == EVENTS {
            assert_eq!(row.lag(), 0, "lag converged to exactly 0");
            break;
        }
        assert!(Instant::now() < deadline, "lag never converged: {row:?}");
        std::thread::sleep(Duration::from_millis(20));
    }

    publisher.disconnect().unwrap();
    reader.disconnect().unwrap();
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The newest segment file anywhere under the store directory.
fn newest_segment(dir: &Path) -> PathBuf {
    let mut segs = Vec::new();
    for chan in std::fs::read_dir(dir).unwrap() {
        let chan = chan.unwrap().path();
        if chan.is_dir() {
            for f in std::fs::read_dir(&chan).unwrap() {
                let f = f.unwrap().path();
                if f.extension().is_some_and(|e| e == "pbio") {
                    segs.push(f);
                }
            }
        }
    }
    segs.sort();
    segs.pop().expect("store has at least one segment")
}

/// `ServConfig::max_replay` bounds concurrent replay threads. While the
/// single allowed replay is wedged against a subscriber that is not
/// draining (20MB of history cannot fit in its queue plus socket
/// buffers), a second `subscribe_from` must be refused with the typed
/// `E_BUSY` error — and once the first drains and its slot frees, a
/// retry succeeds and delivers the full history.
#[test]
fn replay_concurrency_limit_returns_typed_busy_error() {
    use pbio_bench::workloads::{workload, MsgSize};
    use pbio_types::layout::Layout;
    use pbio_types::value::encode_native;

    const EVENTS: u64 = 2_000;
    let dir = store_dir("busy");
    let daemon = ServDaemon::bind_with(
        "127.0.0.1:0",
        ServConfig {
            max_replay: 1,
            // A small queue makes replay pace itself in small chunks
            // (but still ≥ the 16-frame chunk floor, so pacing — not
            // drop-oldest — is what bounds it), and wedge, slot held,
            // against a non-draining subscriber.
            queue_capacity: 32,
            ..durable_config(&dir)
        },
    )
    .unwrap();
    let addr = daemon.local_addr();

    // 2000 × 10KB of durable history: far more than any loopback socket
    // buffering, so a replay cannot complete unless its reader drains.
    let w = workload(MsgSize::K10);
    let mut publisher = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
    let fmt = publisher.register_format(&w.schema).unwrap();
    let chan = publisher.open_channel_durable("history").unwrap();
    let layout = Layout::of(&w.schema, &ArchProfile::X86_64).unwrap();
    let native = encode_native(&w.value, &layout).unwrap();
    for _ in 0..EVENTS {
        publisher.publish(chan, fmt, &native).unwrap();
    }
    await_acks(&mut publisher, EVENTS);

    // First reader claims the only replay slot and then sits on it by
    // not polling.
    let mut wedged = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
    let w_chan = wedged.open_channel("history").unwrap();
    wedged.subscribe_from(w_chan, &w.schema, 0).unwrap();

    // Second reader: the limit is enforced as a typed, retryable error.
    let mut refused = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
    let r_chan = refused.open_channel("history").unwrap();
    let err = refused.subscribe_from(r_chan, &w.schema, 0).unwrap_err();
    assert!(
        matches!(
            err,
            pbio_serv::ServError::Remote { code, .. }
                if code == pbio_serv::protocol::E_BUSY
        ),
        "expected E_BUSY, got: {err}"
    );

    // The wedged reader drains; its replay finishes and frees the slot.
    let mut got = 0u64;
    let deadline = Instant::now() + Duration::from_secs(60);
    while got < EVENTS && Instant::now() < deadline {
        if wedged.poll(Duration::from_millis(100)).unwrap().is_some() {
            got += 1;
        }
    }
    assert_eq!(got, EVENTS, "first replay delivers the full history");

    // Retry until the slot frees (the thread exits shortly after the
    // last frame is queued), then the refused reader gets everything.
    let retry_deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match refused.subscribe_from(r_chan, &w.schema, 0) {
            Ok(()) => break,
            Err(e) => {
                assert!(
                    Instant::now() < retry_deadline,
                    "slot never freed, last error: {e}"
                );
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
    let mut got = 0u64;
    let deadline = Instant::now() + Duration::from_secs(60);
    while got < EVENTS && Instant::now() < deadline {
        if refused.poll(Duration::from_millis(100)).unwrap().is_some() {
            got += 1;
        }
    }
    assert_eq!(got, EVENTS, "retry after E_BUSY replays the full history");

    publisher.disconnect().unwrap();
    wedged.disconnect().unwrap();
    refused.disconnect().unwrap();
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Poll `daemon.topology()` until `done` holds, or panic with the last
/// snapshot after 10 s — teardown reaches the books within a reactor
/// tick, not synchronously with the client's disconnect.
fn await_topology(
    daemon: &ServDaemon,
    what: &str,
    done: impl Fn(&TopoSnapshot) -> bool,
) -> TopoSnapshot {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let topo = daemon.topology();
        if done(&topo) {
            return topo;
        }
        assert!(Instant::now() < deadline, "{what}: {topo:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn subscribers(topo: &TopoSnapshot, chan: u32) -> u64 {
    topo.channels
        .iter()
        .find(|c| c.id == chan)
        .map_or(u64::MAX, |c| c.subscribers)
}

/// One connection holds both kinds of subscription a durable channel
/// has — a live `subscribe` on A and a `subscribe_from(0)` on B that has
/// handed off to live delivery — and its disconnect removes both, along
/// with every consumer-lag row it owned.
#[test]
fn disconnect_drops_live_and_handed_off_subscriptions() {
    let dir = store_dir("teardown");
    let daemon = ServDaemon::bind_with("127.0.0.1:0", durable_config(&dir)).unwrap();
    let addr = daemon.local_addr();
    let schema = tick_schema();

    let mut publisher = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
    let format = publisher.register_format(&schema).unwrap();
    let a = publisher.open_channel_durable("teardown-a").unwrap();
    let b = publisher.open_channel_durable("teardown-b").unwrap();
    const HISTORY: i64 = 50;
    for seq in 0..HISTORY {
        publisher.publish_value(b, format, &tick(seq)).unwrap();
    }
    await_acks(&mut publisher, HISTORY as u64);

    let mut client = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
    let ca = client.open_channel("teardown-a").unwrap();
    let cb = client.open_channel("teardown-b").unwrap();
    assert_eq!((ca, cb), (a, b));
    client.subscribe(ca, &schema, None).unwrap();
    client.subscribe_from(cb, &schema, 0).unwrap();
    let mut next = 0i64;
    let deadline = Instant::now() + Duration::from_secs(10);
    while next < HISTORY && Instant::now() < deadline {
        if let Some(ev) = client.poll(Duration::from_millis(100)).unwrap() {
            assert_eq!(seq_of(&ev), next);
            next += 1;
        }
    }
    assert_eq!(next, HISTORY, "the replay delivered all history");
    // The replay registers its live subscription once disk has caught up
    // with the head; wait for it so the handoff path is the one torn down.
    await_topology(&daemon, "both subscriptions registered", |t| {
        subscribers(t, a) == 1 && subscribers(t, b) == 1
    });
    let conn = client.conn_id();
    assert_eq!(
        daemon
            .topology()
            .lags
            .iter()
            .filter(|l| l.conn == conn)
            .count(),
        2,
        "both subscriptions keep a lag watermark"
    );

    client.disconnect().unwrap();
    let topo = await_topology(&daemon, "subscriptions outlived their connection", |t| {
        subscribers(t, a) == 0 && subscribers(t, b) == 0
    });
    assert!(
        topo.lags.iter().all(|l| l.conn != conn),
        "no lag row outlives its connection: {:?}",
        topo.lags
    );

    publisher.disconnect().unwrap();
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Durability is sticky: a channel first opened plain becomes durable
/// when a later opener asks for it, and every publish after that is
/// logged, stamped with its offset and acked; a plain open after that
/// still finds the same channel.
#[test]
fn plain_channel_becomes_durable_on_a_later_durable_open() {
    let dir = store_dir("sticky");
    let daemon = ServDaemon::bind_with("127.0.0.1:0", durable_config(&dir)).unwrap();
    let addr = daemon.local_addr();
    let schema = tick_schema();

    let mut plain = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
    let chan = plain.open_channel("sticky").unwrap();
    plain.subscribe(chan, &schema, None).unwrap();

    let mut publisher = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
    let format = publisher.register_format(&schema).unwrap();
    assert_eq!(publisher.open_channel_durable("sticky").unwrap(), chan);
    const N: i64 = 40;
    for seq in 0..N {
        publisher.publish_value(chan, format, &tick(seq)).unwrap();
    }
    await_acks(&mut publisher, N as u64);
    assert_eq!(publisher.last_durable_offset(chan), Some(N as u64 - 1));

    let mut next = 0i64;
    let deadline = Instant::now() + Duration::from_secs(10);
    while next < N && Instant::now() < deadline {
        if let Some(ev) = plain.poll(Duration::from_millis(100)).unwrap() {
            assert_eq!(seq_of(&ev), next);
            assert_eq!(ev.offset, Some(next as u64), "offset rides the event");
            next += 1;
        }
    }
    assert_eq!(next, N, "the plain subscriber saw every event");

    let topo = daemon.topology();
    let row = topo
        .channels
        .iter()
        .find(|c| c.id == chan)
        .expect("the channel has a $topo row");
    assert!(row.durable, "durability stuck: {row:?}");
    assert_eq!(row.head, N as u64);

    let mut late = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
    assert_eq!(late.open_channel("sticky").unwrap(), chan);

    late.disconnect().unwrap();
    plain.disconnect().unwrap();
    publisher.disconnect().unwrap();
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A subscriber that joined while its channel was plain gets the same
/// consumer-lag books as one that joined a durable channel, once a later
/// durable open makes the channel durable: a `$topo` `lags` row that
/// tracks its deliveries and a `serv_consumer_lag{chan,conn}` gauge.
#[test]
fn subscriber_from_before_a_durable_upgrade_gets_a_lag_entry() {
    let dir = store_dir("upgrade-lag");
    let daemon = ServDaemon::bind_with("127.0.0.1:0", durable_config(&dir)).unwrap();
    let addr = daemon.local_addr();
    let schema = tick_schema();

    let mut early = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
    let chan = early.open_channel("upgraded").unwrap();
    early.subscribe(chan, &schema, None).unwrap();

    let mut publisher = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
    let format = publisher.register_format(&schema).unwrap();
    assert_eq!(publisher.open_channel_durable("upgraded").unwrap(), chan);
    const N: u64 = 10;
    for seq in 0..N as i64 {
        publisher.publish_value(chan, format, &tick(seq)).unwrap();
    }
    await_acks(&mut publisher, N);
    let mut got = 0;
    let deadline = Instant::now() + Duration::from_secs(10);
    while got < N && Instant::now() < deadline {
        if early.poll(Duration::from_millis(100)).unwrap().is_some() {
            got += 1;
        }
    }
    assert_eq!(got, N, "the early subscriber saw every event");

    let conn = early.conn_id();
    let topo = daemon.topology();
    let row = topo
        .lags
        .iter()
        .find(|l| l.chan == chan && l.conn == conn)
        .expect("the early subscriber has a lag row");
    assert_eq!((row.head, row.delivered), (N, N), "{row:?}");
    let gauge = labeled2(
        "serv_consumer_lag",
        "chan",
        "upgraded",
        "conn",
        &conn.to_string(),
    );
    assert_eq!(daemon.registry().snapshot().gauge(&gauge), Some(0));

    early.disconnect().unwrap();
    publisher.disconnect().unwrap();
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A durable subscriber's `serv_consumer_lag{chan,conn}` gauge lives
/// exactly as long as the subscriber: after a disconnect no `$stats`
/// snapshot carries it, not even one taken after the teardown.
#[test]
fn departed_subscriber_lag_gauge_leaves_the_registry() {
    let dir = store_dir("gauge");
    let daemon = ServDaemon::bind_with("127.0.0.1:0", durable_config(&dir)).unwrap();
    let addr = daemon.local_addr();
    let schema = tick_schema();

    let mut publisher = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
    let format = publisher.register_format(&schema).unwrap();
    let chan = publisher.open_channel_durable("gauged").unwrap();
    let mut client = ServClient::connect(addr, &ArchProfile::X86_64).unwrap();
    client.open_channel("gauged").unwrap();
    client.subscribe(chan, &schema, None).unwrap();
    for seq in 0..10 {
        publisher.publish_value(chan, format, &tick(seq)).unwrap();
    }
    await_acks(&mut publisher, 10);

    let conn = client.conn_id();
    let gauge = labeled2(
        "serv_consumer_lag",
        "chan",
        "gauged",
        "conn",
        &conn.to_string(),
    );
    // A topology capture refreshes the lag gauges, as a stats encode does.
    let _ = daemon.topology();
    assert!(
        daemon.registry().snapshot().gauge(&gauge).is_some(),
        "a live durable subscriber has a lag gauge"
    );

    client.disconnect().unwrap();
    await_topology(&daemon, "lag row outlived its connection", |t| {
        t.lags.iter().all(|l| l.conn != conn)
    });
    let _ = daemon.topology();
    assert_eq!(
        daemon.registry().snapshot().gauge(&gauge),
        None,
        "the departed subscriber's gauge left the registry"
    );

    publisher.disconnect().unwrap();
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A durable publisher draining acks through `poll` is not held to the
/// timeout: each call returns once its acks advanced the durable
/// offset, so the whole drain takes far less than one 5 s timeout.
#[test]
fn poll_returns_once_acks_make_progress() {
    let dir = store_dir("poll-ack");
    let daemon = ServDaemon::bind_with("127.0.0.1:0", durable_config(&dir)).unwrap();
    let schema = tick_schema();
    let mut publisher = ServClient::connect(daemon.local_addr(), &ArchProfile::X86_64).unwrap();
    let format = publisher.register_format(&schema).unwrap();
    let chan = publisher.open_channel_durable("acked").unwrap();
    const N: u64 = 50;
    for seq in 0..N as i64 {
        publisher.publish_value(chan, format, &tick(seq)).unwrap();
    }
    let start = Instant::now();
    while publisher.last_durable_offset(chan) != Some(N - 1) {
        assert!(
            publisher.poll(Duration::from_secs(5)).unwrap().is_none(),
            "the publisher subscribed to nothing"
        );
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "a poll slept out its timeout with acks at {:?}",
            publisher.last_durable_offset(chan)
        );
    }
    assert!(start.elapsed() < Duration::from_secs(2));

    publisher.disconnect().unwrap();
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A durable open refused for want of a store leaves the daemon as it
/// was: the channel is not created plain on the way to the refusal.
#[test]
fn refused_durable_open_creates_no_channel() {
    let daemon = ServDaemon::bind_with(
        "127.0.0.1:0",
        ServConfig {
            stats_interval: None,
            ..ServConfig::default()
        },
    )
    .unwrap();
    let mut client = ServClient::connect(daemon.local_addr(), &ArchProfile::X86_64).unwrap();
    let names = || -> Vec<(u32, String)> {
        let topo = daemon.topology();
        topo.channels.into_iter().map(|c| (c.id, c.name)).collect()
    };
    let before = names();
    assert!(client.open_channel_durable("nostore").is_err());
    assert_eq!(names(), before, "the refused open left a channel behind");

    client.disconnect().unwrap();
    daemon.shutdown();
}

/// The store thread's CPU as its kernel mask reads it:
/// `Cpus_allowed_list` of every `pbio-serv-store` thread in this process.
fn store_thread_cpu_lists() -> Vec<String> {
    let mut out = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").into_iter().flatten() {
        let path = task.unwrap().path();
        let comm = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
        if comm.trim_end() != "pbio-serv-store" {
            continue;
        }
        let status = std::fs::read_to_string(path.join("status")).unwrap_or_default();
        if let Some(list) = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        {
            out.push(list.trim().to_string());
        }
    }
    out
}

/// With `pin_shards` the store thread of a one-shard daemon joins that
/// shard's CPU, and says so in the `serv_store_cpu` gauge; the kernel's
/// mask for the thread agrees. Skips where the host refuses the pin.
#[test]
fn pinned_daemon_puts_the_store_thread_on_shard_zeros_cpu() {
    let dir = store_dir("pinned");
    let config = ServConfig {
        shards: 1,
        pin_shards: true,
        ..durable_config(&dir)
    };
    let daemon = ServDaemon::bind_with("127.0.0.1:0", config).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    let (shard_cpu, store_cpu) = loop {
        let shard = daemon.topology().shards[0].cpu;
        let store = daemon.registry().snapshot().gauge("serv_store_cpu");
        if (shard >= 0 && store == Some(shard)) || Instant::now() > deadline {
            break (shard, store);
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    if shard_cpu < 0 {
        eprintln!("skipping: this host refused to pin shard 0");
    } else {
        assert_eq!(
            store_cpu,
            Some(shard_cpu),
            "the store thread joined shard 0"
        );
        // Only this test pins a store thread, so one thread with that
        // one-CPU mask must exist among any running daemons'.
        let lists = store_thread_cpu_lists();
        assert!(
            lists.contains(&shard_cpu.to_string()),
            "no pbio-serv-store thread is pinned to CPU {shard_cpu}: {lists:?}"
        );
    }
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// With `pin_shards` and more than one shard the store thread stays
/// unpinned: the gauge still says -1 once an acked publish shows the
/// thread has started serving.
#[test]
fn pinned_multi_shard_daemon_leaves_the_store_thread_unpinned() {
    let dir = store_dir("pinned-multi");
    let config = ServConfig {
        shards: 2,
        pin_shards: true,
        ..durable_config(&dir)
    };
    let daemon = ServDaemon::bind_with("127.0.0.1:0", config).unwrap();
    let mut publisher = ServClient::connect(daemon.local_addr(), &ArchProfile::X86_64).unwrap();
    let format = publisher.register_format(&tick_schema()).unwrap();
    let chan = publisher.open_channel_durable("multi").unwrap();
    publisher.publish_value(chan, format, &tick(0)).unwrap();
    await_acks(&mut publisher, 1);
    assert_eq!(
        daemon.registry().snapshot().gauge("serv_store_cpu"),
        Some(-1)
    );
    drop(publisher);
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Without `pin_shards` the store thread is not pinned and the gauge
/// says -1.
#[test]
fn unpinned_daemon_reports_no_store_cpu() {
    let dir = store_dir("unpinned");
    let daemon = ServDaemon::bind_with("127.0.0.1:0", durable_config(&dir)).unwrap();
    assert_eq!(
        daemon.registry().snapshot().gauge("serv_store_cpu"),
        Some(-1)
    );
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
