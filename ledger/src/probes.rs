//! Standalone layer probes: each times one public function of one layer
//! from outside, at the paper's four record sizes. They run after the
//! traced workload and give the per-layer numbers the reconciliation
//! (`ledger.layer_sum_us`) is built from.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pbio::{BufPool, CodegenMode, DcgConverter, InterpConverter, Plan, Reader, Writer};
use pbio_chan::dispatch::{DeliveryOutcome, Fanout, Subscriber};
use pbio_net::buf::WireBuf;
use pbio_net::frame::{crc32, write_frame_raw, write_frames, Frame, FrameDecoder};
use pbio_obs::TraceCtx;
use pbio_store::{Append, ReplayItem, Store, StoreConfig};
use pbio_types::arch::ArchProfile;
use pbio_types::meta::serialize_layout;

use crate::calib::Calibrator;
use crate::gen::{self, SizeClass, StreamInputs};
use crate::run::Checks;
use crate::stats;
use crate::wire::WireRig;

/// Timed probes in [`run_all`]; the probe share of a traced run is split
/// evenly between them.
pub const TIMED_PROBES: u32 = 37;

/// Mean nominal ns per call of `f`: the median over batches, each batch
/// sized to about half a millisecond so the clock reads cost nothing, the
/// whole probe bracketed by speed calibrations.
fn time_ns(calibrator: &Calibrator, budget: Duration, mut f: impl FnMut()) -> f64 {
    let before = calibrator.factor();
    let start = Instant::now();
    let mut calls = 0u64;
    while calls < 3 || (start.elapsed() < Duration::from_micros(300) && calls < 1 << 20) {
        f();
        calls += 1;
    }
    let per_call = start.elapsed().as_nanos() as f64 / calls as f64;
    let batch = ((500_000.0 / per_call) as u64).clamp(1, 1 << 20);
    let mut means = Vec::new();
    while means.len() < 5 || start.elapsed() < budget {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        means.push(t0.elapsed().as_nanos() as f64 / batch as f64);
    }
    stats::median(&means) / ((before + calibrator.factor()) / 2.0)
}

/// One size class, prepared for the conversion and codec probes.
struct Fixture {
    size: SizeClass,
    inputs: StreamInputs,
    plan: Arc<Plan>,
    dcg: DcgConverter,
    interp: InterpConverter,
}

impl Fixture {
    fn new(size: SizeClass, seed: u64) -> Result<Fixture, String> {
        let schema = gen::schema(size);
        let inputs = StreamInputs::generate(
            &mut gen::rng_for(seed),
            &schema,
            &schema,
            &ArchProfile::X86_64,
            &ArchProfile::SPARC_V8,
            1,
        );
        let plan = Arc::new(Plan::build(inputs.src.clone(), inputs.dst.clone()));
        Ok(Fixture {
            size,
            dcg: DcgConverter::compile(plan.clone(), CodegenMode::Optimized)
                .map_err(|e| e.to_string())?,
            interp: InterpConverter::new(plan.clone()),
            plan,
            inputs,
        })
    }

    fn native(&self) -> &[u8] {
        &self.inputs.templates[0].native
    }
}

/// A fan-out subscriber that accepts everything and keeps nothing: what
/// remains is the engine's own per-subscriber cost.
struct NullSub;

impl Subscriber for NullSub {
    type Error = std::convert::Infallible;

    fn accepts(&mut self, _format: u32, _wire: &[u8]) -> Result<bool, Self::Error> {
        Ok(true)
    }

    fn deliver(
        &mut self,
        _format: u32,
        wire: &WireBuf,
        _trace: Option<&TraceCtx>,
    ) -> Result<DeliveryOutcome, Self::Error> {
        black_box(wire.len());
        Ok(DeliveryOutcome::Delivered)
    }
}

fn fanout_probe(calibrator: &Calibrator, budget: Duration, subs: usize, event: &WireBuf) -> f64 {
    let mut fanout = Fanout::new();
    for _ in 0..subs {
        fanout.subscribe(NullSub);
    }
    time_ns(calibrator, budget, || {
        let Ok(n) = fanout.publish_shared(7, black_box(event));
        black_box(n);
    })
}

/// `append_batch` of 64 × 100 B records, `read_range` over what was
/// written, and the bytes the log holds per event. Bounded by count, not
/// time: the log it writes is deleted afterwards but is real disk I/O.
fn store_probes(
    calibrator: &Calibrator,
    scratch: &Path,
    fixture: &Fixture,
    smoke: bool,
) -> Result<[f64; 3], String> {
    const BATCH: usize = 64;
    let batches = if smoke { 20 } else { 1500 };
    let dir = scratch.join("probe-store");
    let _ = std::fs::remove_dir_all(&dir);
    let before = calibrator.factor();
    let run = || -> Result<[f64; 3], String> {
        let store = Store::open(StoreConfig::new(dir.clone())).map_err(|e| e.to_string())?;
        let log = store.channel("probe").map_err(|e| e.to_string())?;
        let meta: Arc<[u8]> = Arc::from(serialize_layout(&fixture.inputs.src));
        let payload = fixture.native();
        let mut per_batch = Vec::with_capacity(batches);
        for _ in 0..batches {
            let first = log.reserve(BATCH as u64);
            let recs: Vec<Append<'_>> = (0..BATCH as u64)
                .map(|i| Append {
                    offset: first + i,
                    format: 1,
                    payload,
                })
                .collect();
            let t0 = Instant::now();
            log.append_batch(&recs, &mut |_| Some(meta.clone()))
                .map_err(|e| e.to_string())?;
            per_batch.push(t0.elapsed().as_nanos() as f64 / BATCH as f64);
        }
        let events = (batches * BATCH) as u64;
        let mut read_rates = Vec::new();
        for _ in 0..3 {
            let mut seen = 0u64;
            let t0 = Instant::now();
            let n = log
                .read_range(0, log.readable(), &mut |item| {
                    if let ReplayItem::Event { payload, .. } = item {
                        seen += black_box(payload.len()) as u64;
                    }
                })
                .map_err(|e| e.to_string())?;
            read_rates.push(t0.elapsed().as_nanos() as f64 / n.max(1) as f64);
            if n != events || seen != events * payload.len() as u64 {
                return Err(format!("store probe read back {n} of {events} events"));
            }
        }
        let disk = log.disk_bytes().map_err(|e| e.to_string())? as f64 / events as f64;
        let factor = (before + calibrator.factor()) / 2.0;
        Ok([
            stats::median(&per_batch) / factor,
            stats::median(&read_rates) / factor,
            disk,
        ])
    };
    let result = run();
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Allocations per round trip of the mixed wire workload in steady state.
fn allocs_per_rec(seed: u64) -> Result<f64, String> {
    let mut rig = WireRig::setup(seed)?;
    let mut checks = Checks::default();
    let before = crate::alloc::allocations();
    let mut events = 0;
    for _ in 0..2 {
        events += rig.cycle(&mut checks, None).0;
    }
    let allocs = crate::alloc::allocations() - before;
    if checks.failed > 0 {
        return Err(format!(
            "allocation probe failed its checks: {:?}",
            checks.notes
        ));
    }
    Ok(allocs as f64 / events as f64)
}

/// Run every probe; `budget` is the time each timed probe may take.
pub fn run_all(
    seed: u64,
    calibrator: &Calibrator,
    budget: Duration,
    scratch: &Path,
    smoke: bool,
) -> Result<Vec<(String, f64)>, String> {
    let mut out: Vec<(String, f64)> = Vec::new();
    let fixtures = SizeClass::ALL
        .iter()
        .map(|&s| Fixture::new(s, seed))
        .collect::<Result<Vec<_>, _>>()?;

    for f in &fixtures {
        let sz = f.size.label();
        let native = f.native();
        let mut put = |layer: &str, value: f64| out.push((format!("{layer}.{sz}"), value));

        // vrisc: the compiled program alone, as `convert_into` runs it.
        let program = f.dcg.program();
        let mut dst = vec![0u8; f.inputs.dst.size()];
        let run_ns = match f.dcg.extents() {
            Some(extents) => time_ns(calibrator, budget, || {
                pbio_vrisc::run_straightline(program, &extents, black_box(native), &mut dst)
                    .expect("compiled program runs on its own record");
            }),
            None => time_ns(calibrator, budget, || {
                pbio_vrisc::run(program, black_box(native), &mut dst, &[])
                    .expect("compiled program runs on its own record");
            }),
        };
        put("vrisc.run_ns", run_ns);
        put("vrisc.prog_len", program.len() as f64);

        // core: NDR encode, the two converters, plan build and compile.
        let mut writer = Writer::new(&ArchProfile::X86_64);
        let fmt = writer
            .register(&f.inputs.schema)
            .map_err(|e| e.to_string())?;
        let mut stream = Vec::new();
        put(
            "core.writer_write_ns",
            time_ns(calibrator, budget, || {
                stream.clear();
                writer
                    .write(fmt, black_box(native), &mut stream)
                    .expect("registered format writes");
            }),
        );
        let mut converted = Vec::new();
        put(
            "core.dcg_convert_ns",
            time_ns(calibrator, budget, || {
                f.dcg
                    .convert_into(black_box(native), &mut converted)
                    .expect("generated record converts");
            }),
        );
        let dcg_out = converted.clone();
        put(
            "core.interp_convert_ns",
            time_ns(calibrator, budget, || {
                f.interp
                    .convert_into(black_box(native), &mut converted)
                    .expect("generated record converts");
            }),
        );
        if converted != dcg_out || converted != f.inputs.templates[0].reference {
            return Err(format!("{sz}: interpreted and DCG outputs differ"));
        }
        put(
            "core.plan_build_us",
            time_ns(calibrator, budget, || {
                black_box(Plan::build(f.inputs.src.clone(), f.inputs.dst.clone()));
            }) / 1e3,
        );
        put(
            "core.dcg_compile_us",
            time_ns(calibrator, budget, || {
                black_box(
                    DcgConverter::compile(f.plan.clone(), CodegenMode::Optimized)
                        .expect("plan compiles"),
                );
            }) / 1e3,
        );

        // net: one frame into memory, one frame out of memory.
        let mut wire = Vec::new();
        put(
            "net.frame_encode_ns",
            time_ns(calibrator, budget, || {
                wire.clear();
                write_frame_raw(&mut wire, 0x10, 1, 2, black_box(native))
                    .expect("writing to memory cannot fail");
            }),
        );
        let mut decoder = FrameDecoder::new();
        let mut bad_frames = 0u64;
        put(
            "net.frame_decode_ns",
            time_ns(calibrator, budget, || {
                let mut unread: &[u8] = black_box(&wire);
                while !unread.is_empty() {
                    decoder
                        .fill(&mut unread)
                        .expect("reading memory cannot fail");
                }
                match decoder.next() {
                    Ok(Some((_, body))) if body.len() == native.len() => {}
                    _ => bad_frames += 1,
                }
            }),
        );
        if bad_frames > 0 {
            return Err(format!("{sz}: {bad_frames} probe frames failed to decode"));
        }
    }

    let small = &fixtures[SizeClass::B100.index()];

    // Zero-copy receive: wire layout == native layout.
    let mut reader = Reader::new(&ArchProfile::X86_64);
    reader
        .expect(&small.inputs.schema)
        .map_err(|e| e.to_string())?;
    reader
        .on_format(0, &serialize_layout(&small.inputs.src))
        .map_err(|e| e.to_string())?;
    if !reader.is_zero_copy(0) {
        return Err("homogeneous receive is not zero-copy".into());
    }
    out.push((
        "core.reader_zero_copy_ns.100b".into(),
        time_ns(calibrator, budget, || {
            let view = reader
                .on_data(0, black_box(small.native()))
                .expect("registered format reads");
            black_box(view.bytes().len());
        }),
    ));

    out.push(("core.allocs_per_rec".into(), allocs_per_rec(seed)?));

    let pool = BufPool::new();
    for _ in 0..10_000 {
        black_box(
            small
                .dcg
                .convert_pooled(small.native(), &pool)
                .map_err(|e| e.to_string())?,
        );
    }
    let pool_stats = pool.stats();
    out.push((
        "core.pool_hit_ratio".into(),
        pool_stats.hits as f64 / (pool_stats.hits + pool_stats.misses).max(1) as f64,
    ));

    // CRC over a buffer far larger than a record, in GB/s.
    let block = vec![0xA5u8; 1 << 20];
    let crc_ns = time_ns(calibrator, budget, || {
        black_box(crc32(black_box(&block)));
    });
    out.push(("net.crc32_gb_per_s".into(), block.len() as f64 / crc_ns));

    // Sixteen 100 B frames in one vectored write into a sink.
    let frames: Vec<Frame> = (0..16)
        .map(|i| Frame::with_body(0x10, 1, i, WireBuf::copy_from(small.native())))
        .collect();
    out.push((
        "net.write_frames16_ns".into(),
        time_ns(calibrator, budget, || {
            black_box(
                write_frames(&mut std::io::sink(), black_box(&frames))
                    .expect("writing to a sink cannot fail"),
            );
        }),
    ));

    let event = WireBuf::copy_from(small.native());
    out.push((
        "chan.fanout_publish_ns.1sub".into(),
        fanout_probe(calibrator, budget, 1, &event),
    ));
    out.push((
        "chan.fanout_publish_ns.8sub".into(),
        fanout_probe(calibrator, budget, 8, &event),
    ));

    let [append, read, disk] = store_probes(calibrator, scratch, small, smoke)?;
    out.push(("store.append_ns_per_event".into(), append));
    out.push(("store.read_ns_per_event".into(), read));
    out.push(("store.disk_bytes_per_event".into(), disk));
    Ok(out)
}

/// Look a probe value up by name.
pub fn value(probes: &[(String, f64)], name: &str) -> f64 {
    probes
        .iter()
        .find(|(n, _)| n == name)
        .map_or(f64::NAN, |(_, v)| *v)
}
