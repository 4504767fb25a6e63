//! Sharded metric registry and whole-registry snapshots.
//!
//! Metric *lookup* (by name) takes a shard lock once; hot paths hold the
//! returned `Arc` handle and never touch the registry again. A process-global
//! registry backs module-level instrumentation (encode, convert, frame I/O);
//! daemons and clients own per-instance registries so parallel components in
//! one process keep separate books.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::bounded::{Bounded, Overflow};
use crate::metric::{Counter, Gauge, Histogram, HistogramSnapshot};

const REG_SHARDS: usize = 8;

/// Most recent trace-ring events carried in a [`Snapshot`] (and exported
/// over the wire by [`crate::export`]).
pub const TRACE_EXPORT_CAP: usize = 64;

/// Render the canonical labeled metric name `name{key="value"}`.
///
/// Labels are resolved into ordinary registry entries: the composed name
/// allocates once, at handle-resolution time, and the returned handle is
/// then held by the hot path like any other metric — recording through
/// it never touches strings again.
pub fn labeled(name: &str, key: &str, value: &str) -> String {
    format!("{name}{{{key}=\"{value}\"}}")
}

/// Render a two-label metric name `name{k1="v1",k2="v2"}` — used for
/// per-(channel, connection) dimensions like consumer lag.
pub fn labeled2(name: &str, k1: &str, v1: &str, k2: &str, v2: &str) -> String {
    format!("{name}{{{k1}=\"{v1}\",{k2}=\"{v2}\"}}")
}

#[derive(Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A named collection of metrics plus a bounded trace ring.
pub struct Registry {
    shards: [Mutex<Vec<(String, Metric)>>; REG_SHARDS],
    /// The 256 most recent `(stage, at_ns, value)` events, oldest first.
    trace: Mutex<Bounded<(&'static str, u64, u64)>>,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

fn shard_for(name: &str) -> usize {
    // FNV-1a; cheap and stable, only used at handle-resolution time.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h as usize) % REG_SHARDS
}

impl Registry {
    /// New empty registry.
    pub fn new() -> Registry {
        Registry {
            shards: std::array::from_fn(|_| Mutex::new(Vec::new())),
            trace: Mutex::new(Bounded::new(256, Overflow::DropOldest)),
        }
    }

    /// The process-global registry used by module-level instrumentation
    /// (encode/convert timings, frame-level byte counters).
    pub fn global() -> &'static Arc<Registry> {
        static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
        GLOBAL.get_or_init(|| Arc::new(Registry::new()))
    }

    fn resolve<T, F, G>(&self, name: &str, extract: F, create: G) -> Arc<T>
    where
        F: Fn(&Metric) -> Option<&Arc<T>>,
        G: FnOnce() -> (Arc<T>, Metric),
    {
        let mut shard = self.shards[shard_for(name)].lock().unwrap();
        if let Some((_, m)) = shard.iter().find(|(n, _)| n == name) {
            return extract(m)
                .unwrap_or_else(|| panic!("metric {name:?} already registered as a {}", m.kind()))
                .clone();
        }
        let (handle, metric) = create();
        shard.push((name.to_owned(), metric));
        handle
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.resolve(
            name,
            |m| match m {
                Metric::Counter(c) => Some(c),
                _ => None,
            },
            || {
                let c = Arc::new(Counter::new());
                (c.clone(), Metric::Counter(c))
            },
        )
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.resolve(
            name,
            |m| match m {
                Metric::Gauge(g) => Some(g),
                _ => None,
            },
            || {
                let g = Arc::new(Gauge::new());
                (g.clone(), Metric::Gauge(g))
            },
        )
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.resolve(
            name,
            |m| match m {
                Metric::Histogram(h) => Some(h),
                _ => None,
            },
            || {
                let h = Arc::new(Histogram::new());
                (h.clone(), Metric::Histogram(h))
            },
        )
    }

    /// Get or create the counter `name{key="value"}` — per-dimension
    /// accounting (e.g. drops per channel) through one composed name.
    pub fn counter_labeled(&self, name: &str, key: &str, value: &str) -> Arc<Counter> {
        self.counter(&labeled(name, key, value))
    }

    /// Get or create the histogram `name{key="value"}`.
    pub fn histogram_labeled(&self, name: &str, key: &str, value: &str) -> Arc<Histogram> {
        self.histogram(&labeled(name, key, value))
    }

    /// Get or create the gauge `name{key="value"}` — per-dimension level
    /// tracking (e.g. connections per shard) through one composed name.
    pub fn gauge_labeled(&self, name: &str, key: &str, value: &str) -> Arc<Gauge> {
        self.gauge(&labeled(name, key, value))
    }

    /// Remove the metric `name`, of whatever kind; `false` if there was
    /// none. Handles already resolved keep working, but the metric leaves
    /// every later snapshot — for a metric whose subject is gone, like a
    /// departed subscriber's lag gauge.
    pub fn remove(&self, name: &str) -> bool {
        let mut shard = self.shards[shard_for(name)].lock().unwrap();
        let found = shard.iter().position(|(n, _)| n == name);
        found.map(|i| shard.swap_remove(i)).is_some()
    }

    /// Register (or replace) `name` with an externally-owned counter — used to
    /// adopt counters that live inside another component (e.g. a `BufPool`).
    pub fn register_counter(&self, name: &str, counter: Arc<Counter>) {
        let mut shard = self.shards[shard_for(name)].lock().unwrap();
        if let Some(slot) = shard.iter_mut().find(|(n, _)| n == name) {
            slot.1 = Metric::Counter(counter);
        } else {
            shard.push((name.to_owned(), Metric::Counter(counter)));
        }
    }

    /// Append an event to the bounded trace ring, stamped with
    /// [`epoch_ns`]; the oldest event is evicted when the ring is full.
    pub fn trace(&self, stage: &'static str, value: u64) {
        let at_ns = epoch_ns();
        self.trace.lock().unwrap().push((stage, at_ns, value));
    }

    /// A consistent-enough copy of every metric, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        for shard in &self.shards {
            let shard = shard.lock().unwrap();
            for (name, metric) in shard.iter() {
                match metric {
                    Metric::Counter(c) => snap.counters.push((name.clone(), c.get())),
                    Metric::Gauge(g) => snap.gauges.push((name.clone(), g.get())),
                    Metric::Histogram(h) => snap.histograms.push((name.clone(), h.snapshot())),
                }
            }
        }
        let events = self.trace.lock().unwrap();
        let skip = events.len().saturating_sub(TRACE_EXPORT_CAP);
        snap.traces = events
            .iter()
            .skip(skip)
            .map(|&(stage, at_ns, value)| (stage.to_owned(), at_ns, value))
            .collect();
        snap.sort();
        snap
    }
}

/// A point-in-time copy of a registry's metrics, sorted by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values by name.
    pub gauges: Vec<(String, i64)>,
    /// Histogram snapshots by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// The most recent trace-ring events as `(stage, at_ns, value)`,
    /// oldest first, bounded to [`TRACE_EXPORT_CAP`].
    pub traces: Vec<(String, u64, u64)>,
}

impl Snapshot {
    fn sort(&mut self) {
        self.counters.sort_by(|a, b| a.0.cmp(&b.0));
        self.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        self.histograms.sort_by(|a, b| a.0.cmp(&b.0));
    }

    /// Counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Histogram snapshot by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Merge another snapshot into this one: counters and gauges add,
    /// histograms merge bucket-wise, names union.
    pub fn merge_from(&mut self, other: &Snapshot) {
        for (name, v) in &other.counters {
            match self.counters.iter_mut().find(|(n, _)| n == name) {
                Some(slot) => slot.1 += v,
                None => self.counters.push((name.clone(), *v)),
            }
        }
        for (name, v) in &other.gauges {
            match self.gauges.iter_mut().find(|(n, _)| n == name) {
                Some(slot) => slot.1 += v,
                None => self.gauges.push((name.clone(), *v)),
            }
        }
        for (name, h) in &other.histograms {
            match self.histograms.iter_mut().find(|(n, _)| n == name) {
                Some(slot) => slot.1.merge(h),
                None => self.histograms.push((name.clone(), *h)),
            }
        }
        // Trace events interleave by time; the bound keeps the freshest.
        self.traces.extend(other.traces.iter().cloned());
        self.traces.sort_by_key(|&(_, at_ns, _)| at_ns);
        let skip = self.traces.len().saturating_sub(TRACE_EXPORT_CAP);
        self.traces.drain(..skip);
        self.sort();
    }
}

/// Whether span timing is enabled (checked by [`crate::Span::enter`]).
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Globally enable or disable span timing. Counters are unaffected; spans
/// become no-ops so the overhead of `Instant::now()` can be measured away.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether span timing is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Nanoseconds since the process-wide observation epoch (first call).
pub fn epoch_ns() -> u64 {
    static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(std::time::Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared() {
        let r = Registry::new();
        let a = r.counter("events");
        let b = r.counter("events");
        a.add(3);
        b.inc();
        assert_eq!(r.snapshot().counter("events"), Some(4));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x");
        r.histogram("x");
    }

    #[test]
    fn snapshot_is_sorted_and_merges() {
        let r = Registry::new();
        r.counter("b").add(1);
        r.counter("a").add(2);
        r.gauge("depth").set(-3);
        r.histogram("lat").record(100);

        let mut s1 = r.snapshot();
        let names: Vec<&str> = s1.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a", "b"]);

        r.counter("c").add(7);
        r.histogram("lat").record(200);
        let s2 = r.snapshot();
        s1.merge_from(&s2);
        assert_eq!(s1.counter("a"), Some(4));
        assert_eq!(s1.counter("c"), Some(7));
        assert_eq!(s1.gauge("depth"), Some(-6));
        assert_eq!(s1.histogram("lat").unwrap().count, 3);
    }

    #[test]
    fn remove_drops_a_metric_from_snapshots_and_a_later_get_recreates_it() {
        let r = Registry::new();
        let lag = labeled2("lag", "chan", "a", "conn", "7");
        let g = r.gauge(&lag);
        g.set(5);
        r.gauge("other").set(1);
        assert!(r.remove(&lag));
        assert!(!r.remove(&lag), "a second remove finds nothing");
        assert!(!r.remove("never-registered"));
        // The held handle still works, but no longer reports.
        g.set(9);
        let snap = r.snapshot();
        assert_eq!(snap.gauge(&lag), None);
        assert_eq!(snap.gauge("other"), Some(1));
        // The name is free again, for any kind.
        r.counter(&lag).inc();
        assert_eq!(r.snapshot().counter(&lag), Some(1));
    }

    #[test]
    fn labeled_metrics_are_plain_entries() {
        let r = Registry::new();
        r.counter_labeled("dropped", "chan", "alpha").add(2);
        r.counter_labeled("dropped", "chan", "beta").inc();
        r.histogram_labeled("enqueue_ns", "chan", "alpha")
            .record(50);
        let snap = r.snapshot();
        assert_eq!(snap.counter("dropped{chan=\"alpha\"}"), Some(2));
        assert_eq!(snap.counter("dropped{chan=\"beta\"}"), Some(1));
        assert_eq!(
            snap.histogram(&labeled("enqueue_ns", "chan", "alpha"))
                .unwrap()
                .count,
            1
        );
    }

    #[test]
    fn snapshot_carries_bounded_trace_ring() {
        let r = Registry::new();
        for i in 0..(TRACE_EXPORT_CAP as u64 + 10) {
            r.trace("tick", i);
        }
        let snap = r.snapshot();
        assert_eq!(snap.traces.len(), TRACE_EXPORT_CAP);
        assert_eq!(snap.traces[0].2, 10, "oldest beyond the cap trimmed");
        assert_eq!(snap.traces.last().unwrap().2, TRACE_EXPORT_CAP as u64 + 9);

        let mut merged = Snapshot::default();
        merged.merge_from(&snap);
        merged.merge_from(&snap);
        assert_eq!(merged.traces.len(), TRACE_EXPORT_CAP, "merge keeps bound");
    }

    #[test]
    fn adopted_counter_is_read_through() {
        let r = Registry::new();
        let external = Arc::new(Counter::new());
        external.add(41);
        r.register_counter("pool_hits", external.clone());
        external.inc();
        assert_eq!(r.snapshot().counter("pool_hits"), Some(42));
    }
}
