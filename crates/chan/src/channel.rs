//! Single-process event channels: one source format, many heterogeneous
//! subscribers, per-subscriber filters evaluated at the source.
//!
//! This models the deployment the paper motivates (§1): a simulation
//! publishing records that monitoring/visualization components consume, each
//! possibly compiled on a different architecture, each declaring only the
//! fields it cares about, and each optionally attaching a predicate so
//! uninteresting events are dropped *before* any conversion or delivery
//! work is spent on them — the "derived event channel" idea, with the
//! filter compiled by the same DCG machinery as the conversions.
//!
//! The per-event loop (filter gate, counters, delivery) lives in
//! [`crate::dispatch`], shared with the networked daemon in `pbio-serv`;
//! this module supplies the *local* subscriber: convert for the
//! subscriber's architecture and invoke its callback.

use std::sync::Arc;

use pbio::{CodegenMode, DcgConverter, PbioError, Plan, RecordView};
use pbio_types::arch::ArchProfile;
use pbio_types::layout::Layout;
use pbio_types::schema::Schema;
use pbio_types::value::{encode_native, RecordValue};

use crate::dispatch::{DeliveryOutcome, Fanout, Subscriber};
use crate::filter::{FilterError, FilterProgram, Predicate};

pub use crate::dispatch::SubscriptionId;

/// Per-channel delivery counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Events published.
    pub published: u64,
    /// (subscriber, event) deliveries performed.
    pub delivered: u64,
    /// (subscriber, event) pairs suppressed by filters before conversion.
    pub filtered_out: u64,
}

/// Channel errors.
#[derive(Debug)]
pub enum ChannelError {
    /// Error from the PBIO layer.
    Pbio(PbioError),
    /// Error from a filter.
    Filter(FilterError),
    /// Unknown subscription id.
    UnknownSubscription(SubscriptionId),
}

impl std::fmt::Display for ChannelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChannelError::Pbio(e) => write!(f, "pbio error: {e}"),
            ChannelError::Filter(e) => write!(f, "filter error: {e}"),
            ChannelError::UnknownSubscription(id) => write!(f, "unknown subscription {id:?}"),
        }
    }
}

impl std::error::Error for ChannelError {}

impl From<PbioError> for ChannelError {
    fn from(e: PbioError) -> ChannelError {
        ChannelError::Pbio(e)
    }
}

impl From<FilterError> for ChannelError {
    fn from(e: FilterError) -> ChannelError {
        ChannelError::Filter(e)
    }
}

enum Delivery {
    /// Wire and native layouts are zero-copy compatible.
    ZeroCopy { native: Arc<Layout> },
    /// Generated conversion per delivered event.
    Convert {
        conv: Box<DcgConverter>,
        native: Arc<Layout>,
        buf: Vec<u8>,
    },
}

/// The local (in-process) subscriber: filter gate plus convert-and-invoke.
struct LocalSubscriber {
    filter: Option<FilterProgram>,
    delivery: Delivery,
    sink: Box<dyn FnMut(RecordView<'_>) + Send>,
}

impl Subscriber for LocalSubscriber {
    type Error = ChannelError;

    fn accepts(&mut self, _format: u32, wire: &[u8]) -> Result<bool, ChannelError> {
        match &self.filter {
            Some(filter) => Ok(filter.matches(wire)?),
            None => Ok(true),
        }
    }

    fn deliver(
        &mut self,
        _format: u32,
        wire: &pbio_net::buf::WireBuf,
        _trace: Option<&pbio_obs::TraceCtx>,
    ) -> Result<DeliveryOutcome, ChannelError> {
        match &mut self.delivery {
            Delivery::ZeroCopy { native } => {
                (self.sink)(RecordView::borrowed(wire, native.clone()));
            }
            Delivery::Convert { conv, native, buf } => {
                conv.convert_into(wire, buf)?;
                (self.sink)(RecordView::converted(buf, native.clone()));
            }
        }
        Ok(DeliveryOutcome::Delivered)
    }
}

/// An event channel: publish records in the source's native representation;
/// each subscriber receives them filtered and converted for its own
/// architecture and declared schema.
pub struct Channel {
    source: Arc<Layout>,
    fanout: Fanout<LocalSubscriber>,
}

impl Channel {
    /// Create a channel whose source publishes `schema` records from a
    /// machine with `profile`.
    pub fn new(schema: &Schema, profile: &ArchProfile) -> Result<Channel, ChannelError> {
        let source = Arc::new(Layout::of(schema, profile).map_err(PbioError::from)?);
        Ok(Channel {
            source,
            fanout: Fanout::new(),
        })
    }

    /// The source's wire layout (what subscribers' filters run against).
    pub fn source_layout(&self) -> &Arc<Layout> {
        &self.source
    }

    /// Attach a subscriber: its own architecture, its own expected schema
    /// (fields matched by name, PBIO type-extension rules apply) and an
    /// optional predicate compiled against the source format.
    pub fn subscribe<F>(
        &mut self,
        schema: &Schema,
        profile: &ArchProfile,
        filter: Option<Predicate>,
        sink: F,
    ) -> Result<SubscriptionId, ChannelError>
    where
        F: FnMut(RecordView<'_>) + Send + 'static,
    {
        let native = Arc::new(Layout::of(schema, profile).map_err(PbioError::from)?);
        let plan = Arc::new(Plan::build(self.source.clone(), native.clone()));
        let delivery = if plan.zero_copy {
            Delivery::ZeroCopy { native }
        } else {
            Delivery::Convert {
                conv: Box::new(DcgConverter::compile(plan, CodegenMode::Optimized)?),
                native,
                buf: Vec::new(),
            }
        };
        let filter = match filter {
            None => None,
            Some(p) => Some(FilterProgram::compile(p, self.source.clone())?),
        };
        Ok(self.fanout.subscribe(LocalSubscriber {
            filter,
            delivery,
            sink: Box::new(sink),
        }))
    }

    /// Cancel a subscription.
    pub fn unsubscribe(&mut self, id: SubscriptionId) -> Result<(), ChannelError> {
        if self.fanout.unsubscribe(id) {
            Ok(())
        } else {
            Err(ChannelError::UnknownSubscription(id))
        }
    }

    /// Publish one event given as the source's native bytes. Returns the
    /// number of subscribers it was delivered to.
    pub fn publish(&mut self, native: &[u8]) -> Result<usize, ChannelError> {
        self.fanout.publish(0, native)
    }

    /// Publish a dynamic value (encoded through the source layout first —
    /// convenience for tests and tools; real sources publish native bytes).
    pub fn publish_value(&mut self, value: &RecordValue) -> Result<usize, ChannelError> {
        let native = encode_native(value, &self.source).map_err(PbioError::from)?;
        self.publish(&native)
    }

    /// Delivery counters.
    pub fn stats(&self) -> ChannelStats {
        let s = self.fanout.stats();
        ChannelStats {
            published: s.published,
            delivered: s.delivered,
            filtered_out: s.filtered_out,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbio_types::schema::{AtomType, FieldDecl};
    use pbio_types::value::Value;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    fn schema() -> Schema {
        Schema::new(
            "reading",
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

    #[test]
    fn fan_out_to_heterogeneous_subscribers() {
        let mut chan = Channel::new(&schema(), &ArchProfile::SPARC_V8).unwrap();
        let a = Arc::new(AtomicU64::new(0));
        let b = Arc::new(AtomicU64::new(0));
        let (a2, b2) = (a.clone(), b.clone());
        chan.subscribe(&schema(), &ArchProfile::SPARC_V8, None, move |view| {
            assert!(view.is_zero_copy(), "homogeneous subscriber is zero-copy");
            a2.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        chan.subscribe(&schema(), &ArchProfile::X86_64, None, move |view| {
            assert!(!view.is_zero_copy());
            assert!(view.get("temp").is_some());
            b2.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();

        for i in 0..5 {
            let n = chan
                .publish_value(&reading(i, 20.0 + i as f64, false))
                .unwrap();
            assert_eq!(n, 2);
        }
        assert_eq!(a.load(Ordering::Relaxed), 5);
        assert_eq!(b.load(Ordering::Relaxed), 5);
        assert_eq!(chan.stats().published, 5);
        assert_eq!(chan.stats().delivered, 10);
    }

    #[test]
    fn filters_suppress_before_conversion() {
        let mut chan = Channel::new(&schema(), &ArchProfile::SPARC_V8).unwrap();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        chan.subscribe(
            &schema(),
            &ArchProfile::X86,
            Some(Predicate::gt("temp", 30.0).or(Predicate::eq("alarm", true))),
            move |view| {
                seen2.lock().unwrap().push(view.get("seq").unwrap());
            },
        )
        .unwrap();

        chan.publish_value(&reading(1, 25.0, false)).unwrap(); // filtered
        chan.publish_value(&reading(2, 35.0, false)).unwrap(); // temp
        chan.publish_value(&reading(3, 10.0, true)).unwrap(); // alarm
        chan.publish_value(&reading(4, 29.9, false)).unwrap(); // filtered

        let seen = seen.lock().unwrap();
        assert_eq!(*seen, vec![Value::I64(2), Value::I64(3)]);
        assert_eq!(chan.stats().filtered_out, 2);
        assert_eq!(chan.stats().delivered, 2);
    }

    #[test]
    fn subscriber_with_subset_schema() {
        // Subscriber only wants `seq` — type extension in the small.
        let subset = Schema::new("reading", vec![FieldDecl::atom("seq", AtomType::CInt)]).unwrap();
        let mut chan = Channel::new(&schema(), &ArchProfile::X86).unwrap();
        let got = Arc::new(Mutex::new(Vec::new()));
        let got2 = got.clone();
        chan.subscribe(&subset, &ArchProfile::SPARC_V9_64, None, move |view| {
            assert!(view.get("temp").is_none());
            got2.lock().unwrap().push(view.get("seq").unwrap());
        })
        .unwrap();
        chan.publish_value(&reading(7, 1.0, false)).unwrap();
        assert_eq!(*got.lock().unwrap(), vec![Value::I64(7)]);
    }

    #[test]
    fn unsubscribe_stops_delivery() {
        let mut chan = Channel::new(&schema(), &ArchProfile::X86).unwrap();
        let count = Arc::new(AtomicU64::new(0));
        let c2 = count.clone();
        let id = chan
            .subscribe(&schema(), &ArchProfile::X86, None, move |_| {
                c2.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        chan.publish_value(&reading(1, 0.0, false)).unwrap();
        chan.unsubscribe(id).unwrap();
        chan.publish_value(&reading(2, 0.0, false)).unwrap();
        assert_eq!(count.load(Ordering::Relaxed), 1);
        assert!(matches!(
            chan.unsubscribe(SubscriptionId(99)),
            Err(ChannelError::UnknownSubscription(_))
        ));
    }

    #[test]
    fn bad_filter_rejected_at_subscribe_time() {
        let mut chan = Channel::new(&schema(), &ArchProfile::X86).unwrap();
        let err = chan
            .subscribe(
                &schema(),
                &ArchProfile::X86,
                Some(Predicate::lt("nope", 1)),
                |_| {},
            )
            .unwrap_err();
        assert!(matches!(
            err,
            ChannelError::Filter(FilterError::UnknownField(_))
        ));
    }
}
