//! Subscriber fan-out: the dispatch engine behind each channel of the
//! networked daemon (`pbio-serv`).
//!
//! The engine owns the per-event loop — skip inactive subscribers, ask each
//! one's filter, count filtered/delivered/dropped — while subscriber
//! behavior stays pluggable through the [`Subscriber`] trait: the daemon's
//! subscriber compiles the filter per incoming wire format and enqueues
//! the untouched wire bytes on a bounded outbound queue (which may drop,
//! hence [`DeliveryOutcome::Dropped`]).
//!
//! Delivery hands each subscriber a shared [`WireBuf`], so fanning one
//! event out to N subscribers costs at most one allocation total (and
//! none at all when every filter rejects it, or when the publisher
//! already holds shared bytes — [`Fanout::publish_shared`]).

use std::sync::Arc;

use pbio_net::buf::WireBuf;
use pbio_obs::{epoch_ns, Counter, Histogram, Span, TraceCtx, TraceHop, TraceSink, HOP_FILTER};

/// Identifies one subscription on a fan-out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubscriptionId(pub(crate) usize);

/// What a subscriber did with an event it accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryOutcome {
    /// The event reached the subscriber (invoked, or enqueued for it).
    Delivered,
    /// The subscriber's queue was full and policy discarded an event.
    Dropped,
}

/// One subscriber endpoint: a filter decision plus a delivery action.
pub trait Subscriber {
    /// Error type surfaced through [`Fanout::publish`].
    type Error;

    /// Should this event (format id + wire-format bytes) be delivered?
    /// Runs *before* any conversion or copying — the "filter at the
    /// source" the paper's §5 envisions.
    fn accepts(&mut self, format: u32, wire: &[u8]) -> Result<bool, Self::Error>;

    /// Deliver the accepted event. The body is shared: subscribers that
    /// need to keep it (e.g. queue it for a connection's reactor flush)
    /// clone the [`WireBuf`] — a refcount bump, not a copy.
    ///
    /// `trace` is the event's sampled trace context, when it carries
    /// one: delivery sites that constitute a hop (the daemon's enqueue
    /// onto a subscriber's outbound queue) re-stamp it into their own
    /// hop records. Untraced events — the overwhelming majority under
    /// head-based sampling — pass `None` and pay nothing for it.
    fn deliver(
        &mut self,
        format: u32,
        wire: &WireBuf,
        trace: Option<&TraceCtx>,
    ) -> Result<DeliveryOutcome, Self::Error>;
}

/// Event-loop counters, shared by every fan-out user.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Events published into the fan-out.
    pub published: u64,
    /// (subscriber, event) deliveries performed.
    pub delivered: u64,
    /// (subscriber, event) pairs suppressed by filters before any work.
    pub filtered_out: u64,
    /// Events discarded by subscriber backpressure policy.
    pub dropped: u64,
}

struct Entry<S> {
    id: SubscriptionId,
    sub: S,
    active: bool,
}

/// Optional registry-backed observation hooks for a fan-out. Installed by
/// owners that keep a metric registry (the daemon); when absent the publish
/// loop stays exactly as cheap as before.
pub struct FanoutObs {
    /// Time spent in the whole per-event fan-out loop.
    pub fanout_ns: Arc<Histogram>,
    /// Time spent evaluating subscriber filters (per subscriber ask).
    pub filter_ns: Arc<Histogram>,
    /// Events discarded by subscriber backpressure (mirrors
    /// [`DispatchStats::dropped`] into a registry).
    pub dropped: Arc<Counter>,
    /// Distributed-tracing hooks, installed per channel by owners that
    /// export hop records. `None` keeps the loop byte-identical to the
    /// untraced one.
    pub trace: Option<FanoutTraceObs>,
}

/// Where a fan-out's `filter` hop records go: the owning channel's id, a
/// per-channel labeled histogram, and the shared hop sink.
pub struct FanoutTraceObs {
    /// Hop-record sink shared with the other stages (ingress, flush…).
    pub sink: Arc<TraceSink>,
    /// Channel id stamped into this fan-out's hop records.
    pub channel: u32,
    /// Per-channel filter-stage latency (labeled, e.g.
    /// `hop_filter_ns{chan="ticks"}`).
    pub hop_filter_ns: Arc<Histogram>,
}

/// The shared fan-out engine: an ordered set of subscribers and the
/// publish loop over them.
pub struct Fanout<S> {
    subs: Vec<Entry<S>>,
    next: usize,
    stats: DispatchStats,
    obs: Option<FanoutObs>,
}

impl<S> Default for Fanout<S> {
    fn default() -> Fanout<S> {
        Fanout::new()
    }
}

impl<S> Fanout<S> {
    /// An empty fan-out.
    pub fn new() -> Fanout<S> {
        Fanout {
            subs: Vec::new(),
            next: 0,
            stats: DispatchStats::default(),
            obs: None,
        }
    }

    /// Install observation hooks (see [`FanoutObs`]).
    pub fn set_obs(&mut self, obs: FanoutObs) {
        self.obs = Some(obs);
    }

    /// Add a subscriber; ids are never reused.
    pub fn subscribe(&mut self, sub: S) -> SubscriptionId {
        let id = SubscriptionId(self.next);
        self.next += 1;
        self.subs.push(Entry {
            id,
            sub,
            active: true,
        });
        id
    }

    /// Deactivate a subscription. Returns `false` if the id is unknown.
    pub fn unsubscribe(&mut self, id: SubscriptionId) -> bool {
        match self.subs.iter_mut().find(|e| e.id == id) {
            Some(e) => {
                e.active = false;
                true
            }
            None => false,
        }
    }

    /// Number of active subscriptions.
    pub fn active_count(&self) -> usize {
        self.subs.iter().filter(|e| e.active).count()
    }

    /// Mutable access to one subscriber (daemon bookkeeping).
    pub fn get_mut(&mut self, id: SubscriptionId) -> Option<&mut S> {
        self.subs
            .iter_mut()
            .find(|e| e.id == id)
            .map(|e| &mut e.sub)
    }

    /// Drop subscriptions (active or not) failing the predicate — used by
    /// the daemon to reap subscribers whose connection went away.
    pub fn retain(&mut self, mut keep: impl FnMut(SubscriptionId, &mut S) -> bool) {
        self.subs.retain_mut(|e| keep(e.id, &mut e.sub));
    }

    /// Counters so far.
    pub fn stats(&self) -> DispatchStats {
        self.stats
    }
}

impl<S: Subscriber> Fanout<S> {
    /// Publish one event to every active subscriber whose filter accepts
    /// it. Returns the number of deliveries.
    ///
    /// The shared delivery buffer is materialized lazily, on the first
    /// acceptance: an event every filter rejects allocates nothing, and
    /// one any number of subscribers accept allocates exactly once.
    pub fn publish(&mut self, format: u32, wire: &[u8]) -> Result<usize, S::Error> {
        self.publish_impl(format, wire, None, None)
    }

    /// [`Fanout::publish`] for a publisher that already holds the event
    /// in shared storage (the daemon's ingest path): delivery is pure
    /// refcount bumps, zero allocations.
    pub fn publish_shared(&mut self, format: u32, wire: &WireBuf) -> Result<usize, S::Error> {
        self.publish_impl(format, wire, Some(wire.clone()), None)
    }

    /// [`Fanout::publish_shared`] with the event's trace context, when
    /// it carries one. A sampled context switches the loop into two
    /// passes — every filter first, then every delivery — so the
    /// `filter` hop is stamped strictly before any `enqueue` hop and
    /// the reconstructed timeline stays causal.
    pub fn publish_traced(
        &mut self,
        format: u32,
        wire: &WireBuf,
        trace: Option<&TraceCtx>,
    ) -> Result<usize, S::Error> {
        self.publish_impl(format, wire, Some(wire.clone()), trace)
    }

    fn publish_impl(
        &mut self,
        format: u32,
        wire: &[u8],
        shared: Option<WireBuf>,
        trace: Option<&TraceCtx>,
    ) -> Result<usize, S::Error> {
        self.stats.published += 1;
        let fanout_hist = self.obs.as_ref().map(|o| o.fanout_ns.clone());
        let _fanout_span = fanout_hist.as_ref().map(|h| Span::enter(h));
        match trace.filter(|c| c.sampled()) {
            Some(ctx) => self.publish_two_pass(format, wire, shared, ctx),
            None => self.publish_one_pass(format, wire, shared),
        }
    }

    /// The hot path: filter and deliver each subscriber in one sweep.
    fn publish_one_pass(
        &mut self,
        format: u32,
        wire: &[u8],
        mut shared: Option<WireBuf>,
    ) -> Result<usize, S::Error> {
        let mut delivered = 0usize;
        for entry in &mut self.subs {
            if !entry.active {
                continue;
            }
            let accepted = {
                let _filter_span = self.obs.as_ref().map(|o| Span::enter(&o.filter_ns));
                entry.sub.accepts(format, wire)?
            };
            if !accepted {
                self.stats.filtered_out += 1;
                continue;
            }
            let buf = shared.get_or_insert_with(|| WireBuf::copy_from(wire));
            match entry.sub.deliver(format, buf, None)? {
                DeliveryOutcome::Delivered => {
                    delivered += 1;
                    self.stats.delivered += 1;
                }
                DeliveryOutcome::Dropped => {
                    self.stats.dropped += 1;
                    if let Some(o) = &self.obs {
                        o.dropped.inc();
                    }
                }
            }
        }
        Ok(delivered)
    }

    /// The sampled path: all filters, the `filter` hop stamp, then all
    /// deliveries. The verdict vector allocates — only 1-in-N sampled
    /// events ever reach here.
    fn publish_two_pass(
        &mut self,
        format: u32,
        wire: &[u8],
        mut shared: Option<WireBuf>,
        ctx: &TraceCtx,
    ) -> Result<usize, S::Error> {
        let t0 = epoch_ns();
        let mut verdicts = Vec::with_capacity(self.subs.len());
        for entry in &mut self.subs {
            let accepted = entry.active && {
                let _filter_span = self.obs.as_ref().map(|o| Span::enter(&o.filter_ns));
                entry.sub.accepts(format, wire)?
            };
            if entry.active && !accepted {
                self.stats.filtered_out += 1;
            }
            verdicts.push(accepted);
        }
        let t1 = epoch_ns();
        if let Some(tr) = self.obs.as_ref().and_then(|o| o.trace.as_ref()) {
            let dur = t1.saturating_sub(t0);
            tr.hop_filter_ns.record(dur);
            tr.sink.push(TraceHop {
                trace_id: ctx.trace_id,
                span_id: HOP_FILTER,
                hop: HOP_FILTER,
                conn: 0,
                channel: tr.channel,
                t_ns: t1,
                dur_ns: dur,
            });
        }
        let mut delivered = 0usize;
        for (entry, accepted) in self.subs.iter_mut().zip(verdicts) {
            if !accepted {
                continue;
            }
            let buf = shared.get_or_insert_with(|| WireBuf::copy_from(wire));
            match entry.sub.deliver(format, buf, Some(ctx))? {
                DeliveryOutcome::Delivered => {
                    delivered += 1;
                    self.stats.delivered += 1;
                }
                DeliveryOutcome::Dropped => {
                    self.stats.dropped += 1;
                    if let Some(o) = &self.obs {
                        o.dropped.inc();
                    }
                }
            }
        }
        Ok(delivered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TestSub {
        threshold: u8,
        seen: Vec<u8>,
        bufs: Vec<WireBuf>,
        capacity: usize,
        traced: usize,
    }

    fn sub(threshold: u8, capacity: usize) -> TestSub {
        TestSub {
            threshold,
            seen: Vec::new(),
            bufs: Vec::new(),
            capacity,
            traced: 0,
        }
    }

    impl Subscriber for TestSub {
        type Error = ();

        fn accepts(&mut self, _format: u32, wire: &[u8]) -> Result<bool, ()> {
            Ok(wire[0] >= self.threshold)
        }

        fn deliver(
            &mut self,
            _format: u32,
            wire: &WireBuf,
            trace: Option<&TraceCtx>,
        ) -> Result<DeliveryOutcome, ()> {
            if self.seen.len() >= self.capacity {
                return Ok(DeliveryOutcome::Dropped);
            }
            self.seen.push(wire[0]);
            self.bufs.push(wire.clone());
            self.traced += usize::from(trace.is_some());
            Ok(DeliveryOutcome::Delivered)
        }
    }

    #[test]
    fn filters_deliveries_and_drops_are_counted() {
        let mut fanout = Fanout::new();
        let all = fanout.subscribe(sub(0, 2));
        let high = fanout.subscribe(sub(10, 99));
        for v in [1u8, 5, 20, 30] {
            fanout.publish(0, &[v]).unwrap();
        }
        assert_eq!(fanout.stats().published, 4);
        // `all` accepts everything but its capacity drops the last two.
        assert_eq!(fanout.get_mut(all).unwrap().seen, vec![1, 5]);
        assert_eq!(fanout.get_mut(high).unwrap().seen, vec![20, 30]);
        assert_eq!(fanout.stats().filtered_out, 2);
        assert_eq!(fanout.stats().dropped, 2);
        assert_eq!(fanout.stats().delivered, 4);
    }

    #[test]
    fn deliveries_share_one_buffer_per_event() {
        let mut fanout = Fanout::new();
        let ids: Vec<_> = (0..4).map(|_| fanout.subscribe(sub(0, 9))).collect();
        fanout.publish(0, &[42]).unwrap();
        let first = fanout.get_mut(ids[0]).unwrap().bufs[0].clone();
        for &id in &ids {
            let b = &fanout.get_mut(id).unwrap().bufs[0];
            assert!(
                WireBuf::ptr_eq(b, &first),
                "every subscriber sees the same shared storage"
            );
        }
        // publish_shared hands the caller's buffer through untouched.
        let shared = WireBuf::copy_from(&[43]);
        fanout.publish_shared(0, &shared).unwrap();
        let b = &fanout.get_mut(ids[1]).unwrap().bufs[1];
        assert!(WireBuf::ptr_eq(b, &shared));
    }

    #[test]
    fn traced_publish_stamps_filter_before_delivery() {
        use pbio_obs::{Registry, FLAG_SAMPLED};

        let reg = Registry::new();
        let sink = Arc::new(TraceSink::new(16, reg.counter("hops_dropped")));
        let mut fanout = Fanout::new();
        fanout.set_obs(FanoutObs {
            fanout_ns: reg.histogram("fanout_ns"),
            filter_ns: reg.histogram("filter_ns"),
            dropped: reg.counter("dropped"),
            trace: Some(FanoutTraceObs {
                sink: sink.clone(),
                channel: 9,
                hop_filter_ns: reg.histogram_labeled("hop_filter_ns", "chan", "nine"),
            }),
        });
        let lo = fanout.subscribe(sub(0, 99));
        let hi = fanout.subscribe(sub(50, 99));

        let ctx = TraceCtx {
            trace_id: 77,
            span_id: 0,
            origin_ns: 1,
            flags: FLAG_SAMPLED,
        };
        let wire = WireBuf::copy_from(&[10]);
        let n = fanout.publish_traced(3, &wire, Some(&ctx)).unwrap();
        assert_eq!(n, 1, "only the low-threshold subscriber accepts");
        assert_eq!(fanout.get_mut(lo).unwrap().traced, 1, "ctx forwarded");
        assert_eq!(fanout.get_mut(hi).unwrap().traced, 0);
        assert_eq!(fanout.stats().filtered_out, 1);

        let hops = sink.drain();
        assert_eq!(hops.len(), 1);
        assert_eq!(hops[0].hop, HOP_FILTER);
        assert_eq!(hops[0].trace_id, 77);
        assert_eq!(hops[0].channel, 9);
        assert_eq!(
            reg.snapshot()
                .histogram("hop_filter_ns{chan=\"nine\"}")
                .unwrap()
                .count,
            1
        );

        // An unsampled (or absent) context takes the one-pass loop and
        // records nothing.
        fanout.publish_traced(3, &wire, None).unwrap();
        let unsampled = TraceCtx { flags: 0, ..ctx };
        fanout.publish_traced(3, &wire, Some(&unsampled)).unwrap();
        assert!(sink.drain().is_empty());
        assert_eq!(fanout.get_mut(lo).unwrap().traced, 1);
    }

    #[test]
    fn unsubscribe_and_retain() {
        let mut fanout = Fanout::new();
        let a = fanout.subscribe(sub(0, 9));
        let b = fanout.subscribe(sub(0, 9));
        assert_eq!(fanout.active_count(), 2);
        assert!(fanout.unsubscribe(a));
        assert!(!fanout.unsubscribe(SubscriptionId(99)));
        assert_eq!(fanout.active_count(), 1);
        fanout.publish(0, &[3]).unwrap();
        assert_eq!(fanout.get_mut(b).unwrap().seen, vec![3]);
        fanout.retain(|id, _| id != b);
        assert_eq!(fanout.active_count(), 0);
    }
}
