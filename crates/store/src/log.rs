//! [`ChannelLog`]: one channel's append-only offset-addressed log.

use std::collections::HashSet;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::io::{self};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pbio_net::fault::{FaultLog, FaultPlan, MaybeFaulty};

use crate::segment::{
    parse_segment_name, push_entry, push_header, segment_file_name, Scan, SegmentScanner,
    HEADER_LEN, REC_EVENT, REC_META,
};
use crate::{FlushPolicy, StoreConfig, StoreError, StoreMetrics};

/// One record handed to [`ChannelLog::append_batch`].
#[derive(Debug, Clone, Copy)]
pub struct Append<'a> {
    /// The record's channel offset, from [`ChannelLog::reserve`].
    pub offset: u64,
    /// Registry format id of the payload.
    pub format: u32,
    /// The record's native (NDR) bytes, trailer-free.
    pub payload: &'a [u8],
}

/// One item streamed by [`ChannelLog::read_range`].
#[derive(Debug)]
pub enum ReplayItem<'a> {
    /// Serialized layout meta for `format`, seen before that format's
    /// first event in each segment. Idempotent: a range spanning several
    /// segments repeats it.
    Meta {
        /// Format id the meta bytes describe (as recorded at append time).
        format: u32,
        /// Serialized layout meta-information.
        meta: &'a [u8],
    },
    /// One event record.
    Event {
        /// Channel offset.
        offset: u64,
        /// Format id (as recorded at append time).
        format: u32,
        /// The publisher's NDR bytes.
        payload: &'a [u8],
    },
}

/// What crash recovery found (and repaired) when the log was opened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Torn tails truncated (including header-torn files removed whole).
    pub torn_tails: u64,
    /// Bytes dropped by those truncations.
    pub truncated_bytes: u64,
    /// Next offset after recovery — every offset below this replays.
    pub head: u64,
}

struct Active {
    base: u64,
    path: PathBuf,
    /// Write handle, optionally fault-wrapped (tests/CI fault matrix).
    w: MaybeFaulty<File>,
    /// Plain clone of the same file for fsync, outside fault injection.
    raw: File,
    len: u64,
    events: u64,
    created: Instant,
    /// Formats whose meta this segment already carries.
    metas: HashSet<u32>,
}

/// A run's encoded entries are written once they reach this many bytes,
/// so the scratch buffer never holds more than this plus one record.
/// The daemon's store thread drains at most 512 requests at a time;
/// with payloads up to about 200 B that is one write per run.
pub(crate) const SCRATCH_WRITE_BYTES: usize = 128 * 1024;

/// Scratch capacity kept between writes: a record larger than
/// [`SCRATCH_WRITE_BYTES`] grows the buffer for its own write only.
pub(crate) const SCRATCH_KEEP_BYTES: usize = 2 * SCRATCH_WRITE_BYTES;

struct Inner {
    active: Option<Active>,
    /// Sealed segment base offsets, ascending.
    sealed: Vec<u64>,
    /// One-shot fault plan: consumed by the next segment created, so a
    /// torn write is injected exactly once and recovery is bounded.
    fault: Option<FaultPlan>,
    bytes_since_sync: u64,
    /// Entries encoded for the next `write`.
    scratch: Vec<u8>,
    /// Where each event entry in `scratch` ends. A meta entry always
    /// precedes its event, so the last end is the buffer's length.
    ends: Vec<usize>,
}

/// A per-channel append-only segment log.
///
/// Writers call [`reserve`](ChannelLog::reserve) to claim offsets (cheap,
/// lock-free) and [`append_batch`](ChannelLog::append_batch) to persist
/// them. Readers poll [`readable`](ChannelLog::readable) and stream
/// flushed records with [`read_range`](ChannelLog::read_range) from
/// independent file handles, concurrently with appends.
pub struct ChannelLog {
    dir: PathBuf,
    config: StoreConfig,
    metrics: Arc<StoreMetrics>,
    /// Next offset to hand out.
    head: AtomicU64,
    /// Offsets below this are on disk and flushed to the OS.
    readable: AtomicU64,
    /// Oldest offset still on disk (moves forward under retention).
    oldest: AtomicU64,
    recovery: RecoveryReport,
    inner: Mutex<Inner>,
}

impl ChannelLog {
    pub(crate) fn open(
        dir: PathBuf,
        config: StoreConfig,
        metrics: Arc<StoreMetrics>,
    ) -> io::Result<ChannelLog> {
        fs::create_dir_all(&dir)?;
        let mut bases: Vec<u64> = fs::read_dir(&dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| parse_segment_name(&e.file_name().to_string_lossy()))
            .collect();
        bases.sort_unstable();

        let mut report = RecoveryReport::default();
        // Walk backwards past any header-torn files, then scan the last
        // intact segment, truncating its torn tail if it has one.
        // Earlier segments were sealed behind a flush and are trusted.
        while let Some(&base) = bases.last() {
            let path = dir.join(segment_file_name(base));
            // The header base must agree with the filename (the base is
            // not covered by an entry CRC; the redundancy is the check).
            match SegmentScanner::open(&path)?.filter(|&(_, b)| b == base) {
                None => {
                    let sz = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                    fs::remove_file(&path)?;
                    report.torn_tails += 1;
                    report.truncated_bytes += sz;
                    bases.pop();
                }
                Some((mut sc, _)) => {
                    report.head = report.head.max(base);
                    loop {
                        match sc.next()? {
                            Scan::Eof => break,
                            Scan::Torn => {
                                let at = sc.entry_start();
                                let total = fs::metadata(&path)?.len();
                                let f = OpenOptions::new().write(true).open(&path)?;
                                f.set_len(at)?;
                                f.sync_all().ok();
                                report.torn_tails += 1;
                                report.truncated_bytes += total - at;
                                break;
                            }
                            Scan::Event { offset, .. } => report.head = report.head.max(offset + 1),
                            Scan::Meta { .. } => {}
                        }
                    }
                    break;
                }
            }
        }
        metrics.torn_tails.add(report.torn_tails);
        metrics.truncated_bytes.add(report.truncated_bytes);

        let oldest = bases.first().copied().unwrap_or(report.head);
        let fault = config.fault.clone().filter(|p| !p.is_empty());
        Ok(ChannelLog {
            dir,
            config,
            metrics,
            head: AtomicU64::new(report.head),
            readable: AtomicU64::new(report.head),
            oldest: AtomicU64::new(oldest),
            recovery: report,
            inner: Mutex::new(Inner {
                active: None,
                sealed: bases,
                fault,
                bytes_since_sync: 0,
                scratch: Vec::new(),
                ends: Vec::new(),
            }),
        })
    }

    /// Claim `n` consecutive offsets; returns the first.
    pub fn reserve(&self, n: u64) -> u64 {
        self.head.fetch_add(n, Ordering::SeqCst)
    }

    /// Next offset that [`reserve`](ChannelLog::reserve) would hand out.
    pub fn head(&self) -> u64 {
        self.head.load(Ordering::SeqCst)
    }

    /// Offsets below this are appended and flushed — safe to read.
    pub fn readable(&self) -> u64 {
        self.readable.load(Ordering::Acquire)
    }

    /// Oldest offset still on disk (later ones may have been retired by
    /// retention; replay from below this silently starts here).
    pub fn oldest(&self) -> u64 {
        self.oldest.load(Ordering::Acquire)
    }

    /// What crash recovery repaired when this log was opened.
    pub fn recovery(&self) -> RecoveryReport {
        self.recovery
    }

    /// Total bytes currently on disk for this channel.
    pub fn disk_bytes(&self) -> io::Result<u64> {
        let mut total = 0;
        for e in fs::read_dir(&self.dir)? {
            let e = e?;
            if parse_segment_name(&e.file_name().to_string_lossy()).is_some() {
                total += e.metadata()?.len();
            }
        }
        Ok(total)
    }

    /// Capacity of the scratch buffer appends encode into.
    #[cfg(test)]
    pub(crate) fn scratch_capacity(&self) -> usize {
        self.inner.lock().unwrap().scratch.capacity()
    }

    /// Number of segment files (sealed + active).
    pub fn segment_count(&self) -> usize {
        let inner = self.inner.lock().unwrap();
        inner.sealed.len() + usize::from(inner.active.is_some())
    }

    /// Append a batch of records in offset order. `meta_for` resolves a
    /// format id to its serialized layout (written once per segment, so
    /// every segment is self-describing).
    ///
    /// A torn write (I/O error mid-batch) triggers *live* recovery: the
    /// damaged tail is truncated and counted, a fresh segment is opened,
    /// and the not-yet-durable suffix of the batch is re-appended. Only
    /// after the whole batch is on disk and flushed does
    /// [`readable`](ChannelLog::readable) advance — callers ack
    /// publishers on that boundary, which is what makes the ack a
    /// durability promise.
    pub fn append_batch(
        &self,
        recs: &[Append<'_>],
        meta_for: &mut dyn FnMut(u32) -> Option<Arc<[u8]>>,
    ) -> io::Result<()> {
        let Some(last) = recs.last() else {
            return Ok(());
        };
        let mut inner = self.inner.lock().unwrap();
        let mut start = 0;
        let mut attempts = 0;
        loop {
            match self.try_append(&mut inner, &recs[start..], meta_for) {
                Ok(()) => break,
                Err(e) => {
                    attempts += 1;
                    if attempts > 3 {
                        self.metrics.append_errors.inc();
                        return Err(e);
                    }
                    let next = self.recover_active(&mut inner)?;
                    start = recs
                        .iter()
                        .position(|r| r.offset >= next)
                        .unwrap_or(recs.len());
                }
            }
        }
        match self.config.flush {
            FlushPolicy::Never => {}
            FlushPolicy::EveryBatch => {
                if let Some(a) = &inner.active {
                    a.raw.sync_data()?;
                }
                inner.bytes_since_sync = 0;
            }
            FlushPolicy::Bytes(n) => {
                if inner.bytes_since_sync >= n {
                    if let Some(a) = &inner.active {
                        a.raw.sync_data()?;
                    }
                    inner.bytes_since_sync = 0;
                }
            }
        }
        self.readable.fetch_max(last.offset + 1, Ordering::Release);
        Ok(())
    }

    /// Encode `recs` into the scratch buffer and write them with one
    /// `write`; a segment roll, or [`SCRATCH_WRITE_BYTES`] encoded,
    /// writes what is encoded so far early.
    fn try_append(
        &self,
        inner: &mut Inner,
        recs: &[Append<'_>],
        meta_for: &mut dyn FnMut(u32) -> Option<Arc<[u8]>>,
    ) -> io::Result<()> {
        inner.scratch.clear();
        inner.ends.clear();
        for rec in recs {
            let roll = match &inner.active {
                None => true,
                // Never roll a segment that holds no events yet: a fresh
                // segment accepts at least one record however large.
                Some(a) => {
                    a.events + inner.ends.len() as u64 > 0
                        && (a.len + inner.scratch.len() as u64 >= self.config.segment_max_bytes
                            || self
                                .config
                                .segment_max_age
                                .is_some_and(|age| a.created.elapsed() >= age))
                }
            };
            if roll {
                self.write_encoded(inner)?;
                self.roll(inner, rec.offset)?;
            }
            let Inner {
                active,
                scratch,
                ends,
                ..
            } = &mut *inner;
            let a = active.as_mut().unwrap();
            if !a.metas.contains(&rec.format) {
                if let Some(meta) = meta_for(rec.format) {
                    push_entry(scratch, REC_META, &[&rec.format.to_be_bytes(), &meta]);
                }
                // Unresolvable metas are not retried per event; the
                // segment simply lacks that descriptor.
                a.metas.insert(rec.format);
            }
            push_entry(
                scratch,
                REC_EVENT,
                &[
                    &rec.offset.to_be_bytes(),
                    &rec.format.to_be_bytes(),
                    rec.payload,
                ],
            );
            ends.push(scratch.len());
            if scratch.len() >= SCRATCH_WRITE_BYTES {
                self.write_encoded(inner)?;
            }
        }
        self.write_encoded(inner)?;
        if let Some(a) = inner.active.as_mut() {
            a.w.flush()?;
        }
        Ok(())
    }

    /// Write the encoded entries to the active segment and count what
    /// reached it. After a short write only the events whose entries
    /// landed whole are counted; [`ChannelLog::recover_active`] rescans
    /// the file for the rest.
    fn write_encoded(&self, inner: &mut Inner) -> io::Result<()> {
        let Inner {
            active,
            scratch,
            ends,
            bytes_since_sync,
            ..
        } = &mut *inner;
        let Some(a) = active.as_mut().filter(|_| !scratch.is_empty()) else {
            return Ok(());
        };
        let (written, res) = self.write_counted(&mut a.w, scratch);
        let events = ends.partition_point(|&end| end <= written);
        let bytes = events.checked_sub(1).map_or(0, |last| ends[last]) as u64;
        a.len += bytes;
        a.events += events as u64;
        *bytes_since_sync += bytes;
        self.metrics.appended_records.add(events as u64);
        self.metrics.appended_bytes.add(bytes);
        scratch.clear();
        scratch.shrink_to(SCRATCH_KEEP_BYTES);
        ends.clear();
        res
    }

    /// `write_all`, counting every `write` call in
    /// [`StoreMetrics::appended_writes`]; returns the bytes written too,
    /// which on error is the torn prefix.
    fn write_counted(&self, w: &mut MaybeFaulty<File>, buf: &[u8]) -> (usize, io::Result<()>) {
        let mut done = 0;
        while done < buf.len() {
            self.metrics.appended_writes.inc();
            match w.write(&buf[done..]) {
                Ok(0) => return (done, Err(io::ErrorKind::WriteZero.into())),
                Ok(n) => done += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return (done, Err(e)),
            }
        }
        (done, Ok(()))
    }

    /// Seal the active segment (if any), enforce retention, and open a
    /// fresh segment whose base is `base`.
    fn roll(&self, inner: &mut Inner, base: u64) -> io::Result<()> {
        if let Some(mut a) = inner.active.take() {
            a.w.flush()?;
            a.raw.sync_data().ok();
            inner.sealed.push(a.base);
        }
        if self.config.retain_segments > 0 {
            while inner.sealed.len() > self.config.retain_segments {
                let old = inner.sealed.remove(0);
                fs::remove_file(self.dir.join(segment_file_name(old))).ok();
                self.metrics.retired_segments.inc();
                let next_oldest = inner.sealed.first().copied().unwrap_or(base);
                self.oldest.store(next_oldest, Ordering::Release);
            }
        }
        let path = self.dir.join(segment_file_name(base));
        // A recovered segment that kept no events can share our base;
        // drop it so the name is free (its metas are rewritten anyway).
        if let Some(i) = inner.sealed.iter().position(|&b| b == base) {
            inner.sealed.remove(i);
            fs::remove_file(&path).ok();
        }
        let f = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)?;
        let raw = f.try_clone()?;
        let mut w = MaybeFaulty::new(
            f,
            inner.fault.take().map(|p| p.write_half()),
            FaultLog::new(),
        );
        inner.scratch.clear();
        push_header(&mut inner.scratch, base);
        let (_, res) = self.write_counted(&mut w, &inner.scratch);
        inner.scratch.clear();
        res?;
        inner.active = Some(Active {
            base,
            path,
            w,
            raw,
            len: HEADER_LEN,
            events: 0,
            created: Instant::now(),
            metas: HashSet::new(),
        });
        self.metrics.segments.inc();
        Ok(())
    }

    /// Live torn-tail recovery: close the damaged active segment,
    /// truncate it at its last valid entry, and report the next offset
    /// that still needs appending. The truncated remainder is kept as a
    /// sealed segment when it still holds events.
    fn recover_active(&self, inner: &mut Inner) -> io::Result<u64> {
        let Some(a) = inner.active.take() else {
            // Failure before any segment existed (e.g. a torn header
            // write): nothing on disk to salvage for this batch.
            return Ok(self.readable());
        };
        let (base, path) = (a.base, a.path.clone());
        drop(a);
        let mut next = base;
        let mut events = 0u64;
        match SegmentScanner::open(&path)? {
            None => {
                let sz = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                fs::remove_file(&path)?;
                self.metrics.torn_tails.inc();
                self.metrics.truncated_bytes.add(sz);
            }
            Some((mut sc, _)) => {
                loop {
                    match sc.next()? {
                        Scan::Eof => break,
                        Scan::Torn => {
                            let at = sc.entry_start();
                            let total = fs::metadata(&path)?.len();
                            let f = OpenOptions::new().write(true).open(&path)?;
                            f.set_len(at)?;
                            f.sync_all().ok();
                            self.metrics.torn_tails.inc();
                            self.metrics.truncated_bytes.add(total - at);
                            break;
                        }
                        Scan::Event { offset, .. } => {
                            next = next.max(offset + 1);
                            events += 1;
                        }
                        Scan::Meta { .. } => {}
                    }
                }
                if events > 0 {
                    inner.sealed.push(base);
                } else {
                    fs::remove_file(&path).ok();
                }
            }
        }
        Ok(next)
    }

    /// Stream records with offsets in `[from, to)` (clamped to what is
    /// still on disk) to `f`, interleaved with the [`ReplayItem::Meta`]
    /// entries that make them decodable. `to` must not exceed
    /// [`readable`](ChannelLog::readable). Returns the number of events
    /// delivered. A CRC failure below `readable` is real corruption and
    /// surfaces as [`StoreError::Corrupt`] — never a panic or a loop.
    pub fn read_range(
        &self,
        from: u64,
        to: u64,
        f: &mut dyn FnMut(ReplayItem<'_>),
    ) -> Result<u64, StoreError> {
        if to <= from {
            return Ok(0);
        }
        let segments: Vec<u64> = {
            let inner = self.inner.lock().unwrap();
            let mut v = inner.sealed.clone();
            if let Some(a) = &inner.active {
                v.push(a.base);
            }
            v.sort_unstable();
            v
        };
        let start = segments.partition_point(|&b| b <= from).saturating_sub(1);
        let mut delivered = 0u64;
        for &base in &segments[start..] {
            if base >= to {
                break;
            }
            let path = self.dir.join(segment_file_name(base));
            let Some((mut sc, _)) = SegmentScanner::open(&path)?.filter(|&(_, b)| b == base) else {
                return Err(StoreError::Corrupt {
                    segment: path,
                    at: 0,
                });
            };
            loop {
                match sc.next()? {
                    Scan::Eof => break,
                    Scan::Torn => {
                        return Err(StoreError::Corrupt {
                            segment: path,
                            at: sc.entry_start(),
                        })
                    }
                    Scan::Meta { format } => f(ReplayItem::Meta {
                        format,
                        meta: &sc.body()[4..],
                    }),
                    Scan::Event { offset, format } => {
                        if offset >= to {
                            return Ok(delivered);
                        }
                        if offset >= from {
                            f(ReplayItem::Event {
                                offset,
                                format,
                                payload: &sc.body()[12..],
                            });
                            delivered += 1;
                            self.metrics.replayed_records.inc();
                        }
                        if offset + 1 >= to {
                            return Ok(delivered);
                        }
                    }
                }
            }
        }
        Ok(delivered)
    }

    /// Flush and fsync everything; used by graceful shutdown.
    pub fn sync(&self) -> io::Result<()> {
        let mut inner = self.inner.lock().unwrap();
        if let Some(a) = inner.active.as_mut() {
            a.w.flush()?;
            a.raw.sync_data()?;
        }
        inner.bytes_since_sync = 0;
        Ok(())
    }
}
