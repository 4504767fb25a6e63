//! Fan-out allocation guard: heap allocations per published event stay
//! O(1) in the subscriber count.
//!
//! One daemon, one x86-64 publisher and N homogeneous subscribers, all in
//! this process, over loopback TCP. A counting global allocator wraps
//! `System`, so the count covers the publisher's encode and send, the
//! daemon's fan-out and reactor flushes, and every subscriber's receive.
//! Shared event buffers make a fan-out to more subscribers refcount bumps,
//! not copies; a per-delivery allocation would add about one allocation
//! per event per subscriber and fail the bound below.
//!
//! This file is its own test binary on purpose: a `#[global_allocator]`
//! counts for the whole binary, so it must hold no other test.

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pbio_bench::workloads::{workload, MsgSize};
use pbio_serv::{ServClient, ServConfig, ServDaemon, TraceConfig};
use pbio_types::arch::ArchProfile;
use pbio_types::layout::Layout;
use pbio_types::value::encode_native;

/// Counts every allocation and reallocation in the process.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: AllocLayout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const CHANNEL: &str = "fanout-allocs";
const WARMUP: u64 = 200;
const EVENTS: u64 = 1_000;
const DEADLINE: Duration = Duration::from_secs(60);

/// Wait until every subscriber's counter reaches `target`.
fn wait_for(counters: &[Arc<AtomicU64>], target: u64, what: &str) {
    let start = Instant::now();
    while !counters.iter().all(|c| c.load(Ordering::Acquire) >= target) {
        if start.elapsed() > DEADLINE {
            let got: Vec<u64> = counters.iter().map(|c| c.load(Ordering::Acquire)).collect();
            panic!("timed out waiting for {what}: want {target} per subscriber, got {got:?}");
        }
        std::thread::yield_now();
    }
}

/// Allocations per event while `subscribers` homogeneous subscribers
/// receive [`EVENTS`] 100-byte records, after [`WARMUP`] records have
/// announced the format and brought every buffer to its steady size.
fn allocs_per_event(subscribers: usize) -> f64 {
    let w = workload(MsgSize::B100);
    let total = WARMUP + EVENTS;
    let daemon = ServDaemon::bind_with(
        "127.0.0.1:0",
        ServConfig {
            // Room for the whole burst, so nothing is dropped, and no
            // stats or trace publisher allocating beside the event path.
            queue_capacity: total as usize + 64,
            stats_interval: None,
            trace: TraceConfig {
                sample_mod: 0,
                publish_interval: None,
                sink_capacity: 16,
            },
            ..ServConfig::default()
        },
    )
    .expect("bind daemon");
    let addr = daemon.local_addr();

    let received: Vec<Arc<AtomicU64>> = (0..subscribers)
        .map(|_| Arc::new(AtomicU64::new(0)))
        .collect();
    let ready = Arc::new(AtomicUsize::new(0));
    let threads: Vec<_> = received
        .iter()
        .map(|counter| {
            let counter = Arc::clone(counter);
            let ready = Arc::clone(&ready);
            let schema = w.schema.clone();
            std::thread::spawn(move || {
                let mut client =
                    ServClient::connect(addr, &ArchProfile::X86_64).expect("subscriber connect");
                let chan = client.open_channel(CHANNEL).expect("open channel");
                client.subscribe(chan, &schema, None).expect("subscribe");
                ready.fetch_add(1, Ordering::Release);
                let start = Instant::now();
                while counter.load(Ordering::Acquire) < total {
                    match client.poll(Duration::from_millis(200)) {
                        Ok(Some(_)) => {
                            counter.fetch_add(1, Ordering::Release);
                        }
                        Ok(None) => assert!(start.elapsed() < DEADLINE, "subscriber starved"),
                        Err(e) => panic!("subscriber poll failed: {e}"),
                    }
                }
                client.disconnect().expect("disconnect");
            })
        })
        .collect();

    let mut publisher = ServClient::connect(addr, &ArchProfile::X86_64).expect("publisher connect");
    let chan = publisher.open_channel(CHANNEL).expect("open channel");
    let format = publisher.register_format(&w.schema).expect("register");
    let layout = Layout::of(&w.schema, &ArchProfile::X86_64).expect("layout");
    let native = encode_native(&w.value, &layout).expect("encode");
    let start = Instant::now();
    while ready.load(Ordering::Acquire) < subscribers {
        assert!(start.elapsed() < DEADLINE, "subscribers never subscribed");
        std::thread::yield_now();
    }

    for _ in 0..WARMUP {
        publisher.publish(chan, format, &native).expect("publish");
    }
    wait_for(&received, WARMUP, "warm-up delivery");
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..EVENTS {
        publisher.publish(chan, format, &native).expect("publish");
    }
    wait_for(&received, total, "measured delivery");
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    for t in threads {
        t.join().expect("subscriber thread");
    }
    publisher.disconnect().expect("publisher disconnect");
    let stats = daemon.stats();
    assert_eq!(stats.dropped, 0, "the guard must run drop-free: {stats:?}");
    daemon.shutdown();
    (after - before) as f64 / EVENTS as f64
}

/// The seed's cost model was 3·subs + 3 allocations per event; shared
/// buffers brought it to about 1 whatever the width (EXPERIMENTS.md
/// "Fan-out throughput"). Eight subscribers may cost at most one
/// allocation per event more than one subscriber.
#[test]
fn allocations_per_event_stay_flat_in_subscriber_count() {
    let one = allocs_per_event(1);
    let eight = allocs_per_event(8);
    eprintln!("allocations per event: 1 subscriber {one:.2}, 8 subscribers {eight:.2}");
    assert!(
        eight <= one + 1.0,
        "fan-out allocates per subscriber: {one:.2} allocations/event with 1 subscriber, \
         {eight:.2} with 8"
    );
}
