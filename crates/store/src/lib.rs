//! # pbio-store — durable event channels as self-describing segment logs
//!
//! The paper's PBIO wire format is self-describing: a record stream
//! carries the serialized layout meta-information a reader needs, so no
//! out-of-band schema registry is required. That property makes the wire
//! format a natural *on-disk* log format too — this crate persists each
//! channel as an append-only sequence of segment files in which every
//! format's layout meta precedes its first record, so a segment can be
//! decoded years later by anything that speaks PBIO.
//!
//! ```text
//! <dir>/<channel>/seg-00000000000000000000.pbio
//!                 seg-00000000000000002481.pbio     (base = first offset)
//!                 seg-00000000000000005120.pbio     (active tail)
//! ```
//!
//! Records are *offset-addressed*: every event on a durable channel gets
//! a dense, monotonically increasing `u64` offset, which is the replay
//! cursor, the retention unit, and the exactly-once accounting token.
//!
//! Durability is crash-tolerant, not crash-proof: appends are batched,
//! flushed to the OS per batch (that advances
//! [`ChannelLog::readable`]), and fsynced per [`FlushPolicy`]. A torn
//! tail — from a crash mid-append or an injected
//! [`pbio_net::fault::FaultPlan`] short write — is detected by CRC on
//! open *and* live, truncated at the last valid entry boundary, counted,
//! and the log keeps going. Recovery never refuses to start.

#![warn(missing_docs)]

mod log;
mod segment;

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use pbio_net::fault::FaultPlan;
use pbio_obs::{Counter, Registry};

pub use crate::log::{Append, ChannelLog, RecoveryReport, ReplayItem};

/// Reserved format id for *raw* (non-PBIO) record payloads.
///
/// Most channels store self-describing PBIO records, with each format's
/// serialized layout written once per segment. Some logs — the wire
/// tap's frame captures, notably — store payloads whose structure is
/// defined by the payload bytes themselves (a captured frame carries
/// its own header and CRC). Appending under `FORMAT_RAW` with a
/// `meta_for` that returns `None` marks the records as opaque: segments
/// stay CRC-checked and crash-recoverable like any other, but no layout
/// meta precedes them and [`ReplayItem::Meta`] is never emitted for
/// this id. Daemon-global PBIO format ids count up from zero and never
/// reach this value.
pub const FORMAT_RAW: u32 = u32::MAX;

/// How often appended bytes are fsynced to stable storage.
///
/// Independently of this knob, every batch is flushed to the OS before
/// [`ChannelLog::readable`] advances — so acked records survive a
/// *process* crash under every policy; the policy only decides what
/// survives a power failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushPolicy {
    /// Never fsync mid-stream (segments still sync when sealed). The
    /// fastest option and the default.
    Never,
    /// fsync after every append batch — power-failure durable acks.
    EveryBatch,
    /// fsync once at least this many bytes have accumulated.
    Bytes(u64),
}

/// Configuration for a [`Store`] (and, via `pbio-serv`, for
/// `ServConfig::durability`).
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Root directory; one subdirectory per durable channel.
    pub dir: PathBuf,
    /// Seal the active segment once it reaches this many bytes.
    pub segment_max_bytes: u64,
    /// Also seal once the active segment is this old.
    pub segment_max_age: Option<Duration>,
    /// Keep at most this many *sealed* segments per channel, deleting
    /// the oldest (compaction-by-retirement). `0` = keep everything.
    pub retain_segments: usize,
    /// fsync cadence.
    pub flush: FlushPolicy,
    /// Deterministic write-fault injection for the first segment each
    /// channel creates — how CI reaches the torn-tail recovery path.
    pub fault: Option<FaultPlan>,
}

impl StoreConfig {
    /// Defaults: 8 MiB segments, no age limit, unlimited retention,
    /// [`FlushPolicy::Never`], no faults.
    pub fn new(dir: impl Into<PathBuf>) -> StoreConfig {
        StoreConfig {
            dir: dir.into(),
            segment_max_bytes: 8 << 20,
            segment_max_age: None,
            retain_segments: 0,
            flush: FlushPolicy::Never,
            fault: None,
        }
    }
}

/// Durability counters, shared by every [`ChannelLog`] of a [`Store`].
///
/// All fields are plain [`pbio_obs::Counter`]s so a daemon can adopt
/// them into its metric [`Registry`] with
/// [`StoreMetrics::register`] — after which they flow through the
/// `$stats` channel like every other metric, and `pbio-ctl stats` displays
/// them with no tool changes.
#[derive(Debug)]
pub struct StoreMetrics {
    /// Segment files created.
    pub segments: Arc<Counter>,
    /// Event records appended.
    pub appended_records: Arc<Counter>,
    /// Bytes appended (entries, including per-segment format metas).
    pub appended_bytes: Arc<Counter>,
    /// `write` calls made by appends, segment headers included: a
    /// batch that stays in one segment costs one.
    pub appended_writes: Arc<Counter>,
    /// Replay streams started (`subscribe_from` and resume-from-offset).
    pub replays: Arc<Counter>,
    /// Event records delivered from disk by replays.
    pub replayed_records: Arc<Counter>,
    /// Torn tails truncated (at open or live after a failed append).
    pub torn_tails: Arc<Counter>,
    /// Bytes dropped by those truncations.
    pub truncated_bytes: Arc<Counter>,
    /// Sealed segments deleted by retention.
    pub retired_segments: Arc<Counter>,
    /// Append batches abandoned after repeated failures.
    pub append_errors: Arc<Counter>,
}

impl Default for StoreMetrics {
    fn default() -> StoreMetrics {
        StoreMetrics {
            segments: Arc::new(Counter::new()),
            appended_records: Arc::new(Counter::new()),
            appended_bytes: Arc::new(Counter::new()),
            appended_writes: Arc::new(Counter::new()),
            replays: Arc::new(Counter::new()),
            replayed_records: Arc::new(Counter::new()),
            torn_tails: Arc::new(Counter::new()),
            truncated_bytes: Arc::new(Counter::new()),
            retired_segments: Arc::new(Counter::new()),
            append_errors: Arc::new(Counter::new()),
        }
    }
}

impl StoreMetrics {
    /// Adopt every counter into `registry` under `store_*` names.
    pub fn register(&self, registry: &Registry) {
        registry.register_counter("store_segments", self.segments.clone());
        registry.register_counter("store_appended_records", self.appended_records.clone());
        registry.register_counter("store_appended_bytes", self.appended_bytes.clone());
        registry.register_counter("store_appended_writes", self.appended_writes.clone());
        registry.register_counter("store_replays", self.replays.clone());
        registry.register_counter("store_replayed_records", self.replayed_records.clone());
        registry.register_counter("store_torn_tails", self.torn_tails.clone());
        registry.register_counter("store_truncated_bytes", self.truncated_bytes.clone());
        registry.register_counter("store_retired_segments", self.retired_segments.clone());
        registry.register_counter("store_append_errors", self.append_errors.clone());
    }
}

/// Store-level failure.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure.
    Io(io::Error),
    /// A flushed entry failed its CRC — on-disk corruption (distinct
    /// from a torn tail, which recovery repairs silently).
    Corrupt {
        /// The damaged segment file.
        segment: PathBuf,
        /// Byte offset of the first undecodable entry.
        at: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Corrupt { segment, at } => {
                write!(f, "corrupt segment {} at byte {at}", segment.display())
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Corrupt { .. } => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

/// A collection of per-channel [`ChannelLog`]s under one root directory.
pub struct Store {
    config: StoreConfig,
    channels: Mutex<HashMap<String, Arc<ChannelLog>>>,
    metrics: Arc<StoreMetrics>,
}

impl Store {
    /// Open (creating the root directory if needed). Channel logs open
    /// lazily — and run crash recovery — on first
    /// [`channel`](Store::channel) call.
    pub fn open(config: StoreConfig) -> io::Result<Store> {
        fs::create_dir_all(&config.dir)?;
        Ok(Store {
            config,
            channels: Mutex::new(HashMap::new()),
            metrics: Arc::new(StoreMetrics::default()),
        })
    }

    /// Open or create the log for `name`, recovering any torn tail.
    pub fn channel(&self, name: &str) -> io::Result<Arc<ChannelLog>> {
        let mut channels = self.channels.lock().unwrap();
        if let Some(log) = channels.get(name) {
            return Ok(log.clone());
        }
        let dir = self.config.dir.join(channel_dir_name(name));
        let log = Arc::new(ChannelLog::open(
            dir,
            self.config.clone(),
            self.metrics.clone(),
        )?);
        channels.insert(name.to_string(), log.clone());
        Ok(log)
    }

    /// The shared durability counters.
    pub fn metrics(&self) -> &Arc<StoreMetrics> {
        &self.metrics
    }

    /// The configuration this store was opened with.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// fsync every open channel log; used by graceful shutdown.
    pub fn sync_all(&self) -> io::Result<()> {
        let channels = self.channels.lock().unwrap();
        for log in channels.values() {
            log.sync()?;
        }
        Ok(())
    }
}

/// Directory name for a channel: a sanitized prefix for humans plus an
/// FNV-1a hash for uniqueness (channel names are arbitrary UTF-8, e.g.
/// `$stats`).
fn channel_dir_name(name: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    let safe: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') {
                c
            } else {
                '_'
            }
        })
        .take(48)
        .collect();
    format!("{safe}-{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::path::Path;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_root(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "pbio-store-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn append_n(log: &ChannelLog, n: u64, payload_len: usize) {
        let payload = vec![0xAB; payload_len];
        for _ in 0..n {
            let off = log.reserve(1);
            let rec = Append {
                offset: off,
                format: 1,
                payload: &payload,
            };
            log.append_batch(&[rec], &mut |_| Some(Arc::from(&b"meta-bytes"[..])))
                .unwrap();
        }
    }

    fn collect_events(log: &ChannelLog, from: u64, to: u64) -> Vec<(u64, Vec<u8>)> {
        let mut out = Vec::new();
        log.read_range(from, to, &mut |item| {
            if let ReplayItem::Event {
                offset, payload, ..
            } = item
            {
                out.push((offset, payload.to_vec()));
            }
        })
        .unwrap();
        out
    }

    #[test]
    fn append_read_round_trip_with_metas() {
        let root = temp_root("roundtrip");
        let store = Store::open(StoreConfig::new(&root)).unwrap();
        let log = store.channel("ticks").unwrap();
        let base = log.reserve(3);
        assert_eq!(base, 0);
        let recs: Vec<Append<'_>> = (0..3)
            .map(|i| Append {
                offset: i,
                format: 42,
                payload: b"hello",
            })
            .collect();
        log.append_batch(&recs, &mut |id| {
            assert_eq!(id, 42);
            Some(Arc::from(&b"layout!"[..]))
        })
        .unwrap();
        assert_eq!(log.readable(), 3);

        let mut metas = 0;
        let mut events = Vec::new();
        log.read_range(0, 3, &mut |item| match item {
            ReplayItem::Meta { format, meta } => {
                assert_eq!((format, meta), (42, &b"layout!"[..]));
                metas += 1;
            }
            ReplayItem::Event {
                offset,
                format,
                payload,
            } => {
                assert_eq!((format, payload), (42, &b"hello"[..]));
                events.push(offset);
            }
        })
        .unwrap();
        assert_eq!(metas, 1, "meta written once per segment");
        assert_eq!(events, vec![0, 1, 2]);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn rotation_and_retention_retire_old_segments() {
        let root = temp_root("rotate");
        let mut cfg = StoreConfig::new(&root);
        cfg.segment_max_bytes = 256;
        cfg.retain_segments = 2;
        let store = Store::open(cfg).unwrap();
        let log = store.channel("c").unwrap();
        append_n(&log, 40, 64);
        assert!(log.segment_count() <= 3, "retention caps sealed segments");
        assert!(log.oldest() > 0, "old offsets retired");
        assert!(store.metrics().retired_segments.get() > 0);
        // Replay from 0 silently starts at the oldest surviving offset.
        let got = collect_events(&log, 0, log.readable());
        assert_eq!(got.first().unwrap().0, log.oldest());
        assert_eq!(got.last().unwrap().0, 39);
        let offs: Vec<u64> = got.iter().map(|(o, _)| *o).collect();
        let want: Vec<u64> = (log.oldest()..40).collect();
        assert_eq!(offs, want, "contiguous after the retention horizon");
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn reopen_recovers_torn_tail_and_replays_prefix() {
        let root = temp_root("torn");
        {
            let store = Store::open(StoreConfig::new(&root)).unwrap();
            let log = store.channel("c").unwrap();
            append_n(&log, 10, 32);
        }
        // Tear the tail: append garbage to the one segment file.
        let seg = find_segments(&root)[0].clone();
        let pre_len = fs::metadata(&seg).unwrap().len();
        {
            use std::io::Write;
            let mut f = fs::OpenOptions::new().append(true).open(&seg).unwrap();
            f.write_all(&[0x02, 0xFF, 0xFF]).unwrap(); // half an entry header
        }
        let store = Store::open(StoreConfig::new(&root)).unwrap();
        let log = store.channel("c").unwrap();
        assert_eq!(log.recovery().torn_tails, 1);
        assert_eq!(log.recovery().truncated_bytes, 3);
        assert_eq!(log.head(), 10, "valid prefix fully recovered");
        assert_eq!(fs::metadata(&seg).unwrap().len(), pre_len);
        let got = collect_events(&log, 0, 10);
        assert_eq!(got.len(), 10);
        // And the log accepts new appends after the repair.
        append_n(&log, 5, 32);
        assert_eq!(collect_events(&log, 0, 15).len(), 15);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn live_short_write_recovers_without_losing_acked_records() {
        let root = temp_root("live-fault");
        let mut cfg = StoreConfig::new(&root);
        // Tear the stream 200 bytes in: a short write then a dead file
        // handle, like a disk yanked mid-append.
        cfg.fault = Some(FaultPlan::new().short_write_on_flush(200, 7));
        let store = Store::open(cfg).unwrap();
        let log = store.channel("c").unwrap();
        append_n(&log, 50, 64);
        assert_eq!(log.readable(), 50, "every append eventually durable");
        assert!(
            store.metrics().torn_tails.get() >= 1,
            "the injected tear was hit and recovered"
        );
        let got = collect_events(&log, 0, 50);
        let offs: Vec<u64> = got.iter().map(|(o, _)| *o).collect();
        assert_eq!(offs, (0..50).collect::<Vec<u64>>(), "no loss, no dupes");
        // Reopen: everything still replays.
        drop(log);
        drop(store);
        let store = Store::open(StoreConfig::new(&root)).unwrap();
        let log = store.channel("c").unwrap();
        assert_eq!(log.head(), 50);
        assert_eq!(collect_events(&log, 0, 50).len(), 50);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn batched_append_is_one_flush_boundary() {
        let root = temp_root("batch");
        let store = Store::open(StoreConfig::new(&root)).unwrap();
        let log = store.channel("c").unwrap();
        let payload = vec![1u8; 16];
        let base = log.reserve(100);
        let recs: Vec<Append<'_>> = (0..100)
            .map(|i| Append {
                offset: base + i,
                format: 9,
                payload: &payload,
            })
            .collect();
        log.append_batch(&recs, &mut |_| Some(Arc::from(&b"m"[..])))
            .unwrap();
        assert_eq!(log.readable(), 100);
        assert_eq!(store.metrics().appended_records.get(), 100);
        assert_eq!(
            store.metrics().appended_writes.get(),
            2,
            "the segment header, then one write for all 100 records"
        );
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn large_runs_write_early_and_keep_a_bounded_scratch() {
        use crate::log::{SCRATCH_KEEP_BYTES, SCRATCH_WRITE_BYTES};
        let root = temp_root("large-run");
        let store = Store::open(StoreConfig::new(&root)).unwrap();
        // Several channels, each fed one 1 MiB run of 16 KiB records
        // and then one record four times the write bound.
        const N: u64 = 64;
        let payloads: Vec<Vec<u8>> = (0..N)
            .map(|i| vec![i as u8; 16 * 1024])
            .chain(std::iter::once(vec![0xEE; 4 * SCRATCH_WRITE_BYTES]))
            .collect();
        for c in 0..3 {
            let log = store.channel(&format!("c{c}")).unwrap();
            let base = log.reserve(N + 1);
            let recs: Vec<Append<'_>> = payloads
                .iter()
                .enumerate()
                .map(|(i, p)| Append {
                    offset: base + i as u64,
                    format: 1,
                    payload: p,
                })
                .collect();
            let writes = store.metrics().appended_writes.get();
            log.append_batch(&recs[..N as usize], &mut |_| None)
                .unwrap();
            assert!(
                store.metrics().appended_writes.get() - writes >= 8,
                "a 1 MiB run is written in pieces of at most {SCRATCH_WRITE_BYTES} bytes"
            );
            assert!(log.scratch_capacity() <= SCRATCH_KEEP_BYTES);
            log.append_batch(&recs[N as usize..], &mut |_| None)
                .unwrap();
            assert!(
                log.scratch_capacity() <= SCRATCH_KEEP_BYTES,
                "an oversized record does not stay in scratch"
            );
            assert_eq!(log.readable(), N + 1);
            let got = collect_events(&log, 0, N + 1);
            assert_eq!(got.len(), N as usize + 1);
            for (off, bytes) in &got {
                assert_eq!(bytes, &payloads[*off as usize], "record {off} intact");
            }
        }
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn tear_inside_a_batched_write_recovers_the_whole_batch() {
        const N: u64 = 64;
        const PAYLOAD: usize = 40;
        // Entry = kind + len + crc (9) + offset + format (12) + payload.
        let event_len = 9 + 12 + PAYLOAD as u64;
        let meta = b"meta-bytes";
        let meta_len = 9 + 4 + meta.len() as u64;
        let root = temp_root("batch-tear");
        let mut cfg = StoreConfig::new(&root);
        // Tear 7 bytes into record 31 of the one batched write: a short
        // write, then a dead handle.
        let at = segment::HEADER_LEN + meta_len + 31 * event_len + 7;
        cfg.fault = Some(FaultPlan::new().short_write_on_flush(at, 3));
        let store = Store::open(cfg).unwrap();
        let log = store.channel("c").unwrap();
        let payloads: Vec<Vec<u8>> = (0..N)
            .map(|i| (0..PAYLOAD).map(|j| (i as usize * 7 + j) as u8).collect())
            .collect();
        let base = log.reserve(N);
        let recs: Vec<Append<'_>> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| Append {
                offset: base + i as u64,
                format: 1,
                payload: p,
            })
            .collect();
        log.append_batch(&recs, &mut |_| Some(Arc::from(&meta[..])))
            .unwrap();
        assert_eq!(store.metrics().torn_tails.get(), 1, "the tear fired");
        assert_eq!(log.readable(), N, "readable covers the whole batch");
        assert_eq!(
            store.metrics().appended_records.get(),
            N,
            "each record counted once: the whole ones before the tear, the rest on re-append"
        );
        let got = collect_events(&log, 0, N);
        let offs: Vec<u64> = got.iter().map(|(o, _)| *o).collect();
        assert_eq!(offs, (0..N).collect::<Vec<u64>>(), "no loss, no dupes");
        for (off, bytes) in &got {
            assert_eq!(bytes, &payloads[*off as usize], "record {off} intact");
        }
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn read_range_clamps_and_windows() {
        let root = temp_root("window");
        let store = Store::open(StoreConfig::new(&root)).unwrap();
        let log = store.channel("c").unwrap();
        append_n(&log, 20, 8);
        let got = collect_events(&log, 5, 9);
        assert_eq!(
            got.iter().map(|(o, _)| *o).collect::<Vec<_>>(),
            vec![5, 6, 7, 8]
        );
        assert!(collect_events(&log, 20, 20).is_empty());
        fs::remove_dir_all(&root).ok();
    }

    fn find_segments(root: &Path) -> Vec<PathBuf> {
        let mut out = Vec::new();
        for e in fs::read_dir(root).unwrap() {
            let dir = e.unwrap().path();
            if dir.is_dir() {
                for f in fs::read_dir(&dir).unwrap() {
                    let p = f.unwrap().path();
                    if p.extension().is_some_and(|x| x == "pbio") {
                        out.push(p);
                    }
                }
            }
        }
        out.sort();
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Any single flipped byte (or truncation point) in a segment
        /// file must leave recovery terminating with a typed result:
        /// reopen never panics, never loops, and every event it *does*
        /// expose replays with intact CRC-verified bytes.
        #[test]
        fn recovery_survives_arbitrary_single_byte_damage(
            records in 1u64..30,
            damage_kind in 0u8..2,
            pos_frac in 0.0f64..1.0,
            xor in 1u8..=255,
        ) {
            let root = temp_root("prop");
            {
                let store = Store::open(StoreConfig::new(&root)).unwrap();
                let log = store.channel("c").unwrap();
                append_n(&log, records, 24);
            }
            let seg = find_segments(&root)[0].clone();
            let bytes = fs::read(&seg).unwrap();
            let pos = ((bytes.len() as f64 - 1.0) * pos_frac) as usize;
            if damage_kind == 0 {
                // Truncate at an arbitrary byte.
                let f = fs::OpenOptions::new().write(true).open(&seg).unwrap();
                f.set_len(pos as u64).unwrap();
            } else {
                // Flip bits in one byte.
                let mut b = bytes.clone();
                b[pos] ^= xor;
                fs::write(&seg, &b).unwrap();
            }
            let store = Store::open(StoreConfig::new(&root)).unwrap();
            let log = store.channel("c").unwrap();
            let head = log.head();
            prop_assert!(head <= records);
            // Whatever survived replays cleanly, in offset order.
            let mut seen = Vec::new();
            let res = log.read_range(0, head, &mut |item| {
                if let ReplayItem::Event { offset, payload, .. } = item {
                    seen.push((offset, payload.len()));
                }
            });
            prop_assert!(res.is_ok(), "recovered prefix must be readable: {res:?}");
            for (i, (off, len)) in seen.iter().enumerate() {
                prop_assert_eq!(*off, i as u64);
                prop_assert_eq!(*len, 24);
            }
            fs::remove_dir_all(&root).ok();
        }
    }
}
