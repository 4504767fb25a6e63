//! Observability overhead guard.
//!
//! The obs layer's contract is that instrumentation is cheap enough to
//! leave on: a span is two monotonic-clock reads and one sharded atomic
//! histogram record. This bench times the instrumented encode hot path
//! ([`pbio::Writer::write_value`], which wraps its encode in a span)
//! with spans enabled and with spans disabled (`pbio_obs::set_enabled`
//! turns `Span::enter` into a no-op), prints both, and in `--guard` mode
//! fails if the enabled path exceeds a generous noise bound over the
//! disabled one — a CI tripwire against accidentally putting locks or
//! allocation into the measurement path.
//!
//! The distributed-tracing machinery makes the same promise in the
//! other direction: with sampling *disabled* (modulus 0), the per-publish
//! decision is one relaxed atomic load — no allocation, no lock, and a
//! throughput cost lost in the noise. The second section measures the
//! encode loop with and without a disabled [`pbio_obs::TraceSampler`]
//! consulted per op, under a counting global allocator, and in `--guard`
//! mode fails if the sampler added any allocation or more than 1% + a
//! few ns of latency.
//!
//! The wire-tap capture plane repeats the promise a third time: with the
//! tap off, the per-frame decision is one relaxed atomic load
//! ([`TapState::enabled`]). The third section measures the encode loop
//! with and without a disabled tap consulted per op, under the same
//! allocator and bounds.
//!
//! Runs as a plain `harness = false` binary (like `fanout`): `--guard`
//! enforces the bound, the default just reports.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use pbio::Writer;
use pbio_bench::workloads::{workload, MsgSize};
use pbio_obs::TraceSampler;
use pbio_serv::tap::{TapMode, TapState};
use pbio_types::arch::ArchProfile;

/// Iterations per timed repetition.
const ITERS: u32 = 30_000;
/// Repetitions; the minimum is reported (least-noise estimate).
const REPS: usize = 31;

/// [`System`] allocator with an allocation counter, so the guard can
/// assert a code path allocates exactly as much as its baseline.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counter has no effect on
// the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// ns/op and allocations/rep for one encode pass over the workload
/// record — the span-gating comparison, re-run with spans toggled.
fn measure() -> (f64, u64) {
    let w = workload(MsgSize::B100);
    let mut writer = Writer::new(&ArchProfile::X86_64);
    let id = writer.register(&w.schema).expect("register");
    let mut out = Vec::with_capacity(4096);
    // Warm the pool and the format announcement out of the timed region.
    for _ in 0..1_000 {
        out.clear();
        writer.write_value(id, &w.value, &mut out).expect("encode");
    }
    let mut best = f64::INFINITY;
    let mut allocs = u64::MAX;
    for _ in 0..REPS {
        let before = ALLOCS.load(Ordering::Relaxed);
        let start = Instant::now();
        for _ in 0..ITERS {
            out.clear();
            writer.write_value(id, &w.value, &mut out).expect("encode");
        }
        let ns = start.elapsed().as_nanos() as f64 / f64::from(ITERS);
        best = best.min(ns);
        allocs = allocs.min(ALLOCS.load(Ordering::Relaxed) - before);
    }
    (best, allocs)
}

/// Baseline encode vs encode + a per-op probe (a disabled sampler or a
/// disabled tap check), measured as *interleaved* repetition pairs: two
/// long sequential phases would let clock-frequency drift (thermal
/// throttling, co-tenant load) bias a 1% bound, whereas alternating reps
/// exposes both variants to the same drift and each keeps its own
/// minimum. The probe must return `false` — it models a disabled path.
fn measure_vs(probe: &dyn Fn() -> bool) -> ((f64, u64), (f64, u64)) {
    let w = workload(MsgSize::B100);
    let mut writer = Writer::new(&ArchProfile::X86_64);
    let id = writer.register(&w.schema).expect("register");
    let mut out = Vec::with_capacity(4096);
    for _ in 0..1_000 {
        out.clear();
        writer.write_value(id, &w.value, &mut out).expect("encode");
    }
    let mut base = (f64::INFINITY, u64::MAX);
    let mut traced = (f64::INFINITY, u64::MAX);
    for _ in 0..REPS {
        for with_probe in [false, true] {
            let before = ALLOCS.load(Ordering::Relaxed);
            let start = Instant::now();
            for _ in 0..ITERS {
                out.clear();
                writer.write_value(id, &w.value, &mut out).expect("encode");
                if with_probe && black_box(probe()) {
                    unreachable!("disabled probe never fires");
                }
            }
            let ns = start.elapsed().as_nanos() as f64 / f64::from(ITERS);
            let allocs = ALLOCS.load(Ordering::Relaxed) - before;
            let slot = if with_probe { &mut traced } else { &mut base };
            slot.0 = slot.0.min(ns);
            slot.1 = slot.1.min(allocs);
        }
    }
    (base, traced)
}

fn main() {
    let guard = std::env::args().any(|a| a == "--guard");
    let mut failed = false;

    pbio_obs::set_enabled(true);
    let (enabled_ns, _) = measure();
    pbio_obs::set_enabled(false);
    let (disabled_ns, _) = measure();
    pbio_obs::set_enabled(true);

    let delta = enabled_ns - disabled_ns;
    let ratio = enabled_ns / disabled_ns;
    println!("encode with spans enabled:  {enabled_ns:>8.1} ns/op");
    println!("encode with spans disabled: {disabled_ns:>8.1} ns/op");
    println!("overhead: {delta:+.1} ns/op ({ratio:.3}x)");

    // Span cost is ~two clock reads + one atomic histogram record; the
    // bound is deliberately loose so scheduler noise cannot trip it, while
    // a lock or allocation smuggled into the span path still will.
    if guard && delta > 300.0 && ratio > 2.0 {
        eprintln!("GUARD FAILED: span overhead exceeds noise bound");
        failed = true;
    }

    let sampler = TraceSampler::new(0);
    let ((base_ns, base_allocs), (traced_ns, traced_allocs)) = measure_vs(&|| sampler.try_sample());

    let delta = traced_ns - base_ns;
    let ratio = traced_ns / base_ns;
    println!("\nencode without sampler:     {base_ns:>8.1} ns/op ({base_allocs} allocs/rep)");
    println!("encode + disabled sampler:  {traced_ns:>8.1} ns/op ({traced_allocs} allocs/rep)");
    println!("tracing-off overhead: {delta:+.1} ns/op ({ratio:.3}x)");

    // The disabled path is one relaxed load: any extra allocation is a
    // regression outright, and the latency bound is 1% plus a few ns of
    // slack (1% of a ~100 ns op is below timer noise on its own).
    if guard && traced_allocs > base_allocs {
        eprintln!(
            "GUARD FAILED: disabled sampler allocated \
             ({traced_allocs} vs {base_allocs} allocs/rep)"
        );
        failed = true;
    }
    if guard && delta > 20.0 && ratio > 1.01 {
        eprintln!("GUARD FAILED: disabled sampler exceeds 1% throughput bound");
        failed = true;
    }

    let tap = TapState::new(TapMode::Off, 16);
    let ((base_ns, base_allocs), (tapped_ns, tapped_allocs)) = measure_vs(&|| tap.enabled());

    let delta = tapped_ns - base_ns;
    let ratio = tapped_ns / base_ns;
    println!("\nencode without tap check:   {base_ns:>8.1} ns/op ({base_allocs} allocs/rep)");
    println!("encode + disabled tap:      {tapped_ns:>8.1} ns/op ({tapped_allocs} allocs/rep)");
    println!("tap-off overhead: {delta:+.1} ns/op ({ratio:.3}x)");

    // Same contract as the sampler: the tap-disabled decision is one
    // relaxed load per frame, so zero added allocations and within the
    // 1% + slack latency bound.
    if guard && tapped_allocs > base_allocs {
        eprintln!(
            "GUARD FAILED: disabled tap allocated \
             ({tapped_allocs} vs {base_allocs} allocs/rep)"
        );
        failed = true;
    }
    if guard && delta > 20.0 && ratio > 1.01 {
        eprintln!("GUARD FAILED: disabled tap exceeds 1% throughput bound");
        failed = true;
    }

    if guard {
        if failed {
            std::process::exit(1);
        }
        println!("\nGUARD OK");
    }
}
