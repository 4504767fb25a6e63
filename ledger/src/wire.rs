//! Workload `wire_roundtrip_mixed`: the paper's Figure 5 round trip with
//! no daemon and no kernel socket. An x86-64 endpoint sends a native
//! record through `Writer::write` and the frame codec into memory; a
//! SPARC-V8 endpoint decodes the frame, converts the record with generated
//! code, and sends *its* native record back the same way. `vrisc`, `core`
//! and `net::frame` do all the work; `serv`, `chan` and `store` do none.

use std::sync::Arc;

use pbio::message::{parse_message, Message};
use pbio::{FormatId, InterpConverter, Plan, Reader, RecordView, Writer};
use pbio_net::frame::{write_frame_raw, FrameDecoder, FRAME_HEADER_SIZE};
use pbio_types::arch::ArchProfile;
use pbio_types::layout::Layout;

use crate::calib::{Bracket, Calibrator};
use crate::gen::{self, InputHash, SeqSlot, SizeClass, StreamInputs};
use crate::pace::{self, Clock, MonoClock, Schedule};
use crate::run::{Checks, FloodResult, RunPlan, CHECK_EVERY};
use crate::spans::SpanLog;
use crate::stats::{LatencySummary, SegmentLatency};

/// Frame kind of a record-stream frame; `a` is the stream, `b` the seq.
const K_DATA: u8 = 0x10;

/// Streams per size class; the last one's sender registers the extended
/// schema, so every fourth record takes Figure 6's mismatch path.
const STREAMS_PER_CLASS: usize = 4;

/// One flood repetition is this many passes over the 1111-record mix
/// (about 50 ms).
const REP_CYCLES: u64 = 10;

/// Open-loop rate of the paced phase, events per second (about a sixth
/// of what the flood phase sustains on the 2-core reference box).
pub const PACED_RATE: u64 = 40_000;

pub const SPAN_NAMES: [&str; 5] = [
    "wire.roundtrip",
    "core.writer_write",
    "net.frame_encode",
    "net.frame_decode",
    "core.reader_on_data",
];
const SP_ROUNDTRIP: u16 = 0;
const SP_WRITE: u16 = 1;
const SP_ENCODE: u16 = 2;
const SP_DECODE: u16 = 3;
const SP_ON_DATA: u16 = 4;

struct WireTemplate {
    /// The x86-64 sender's native record (base or extended layout).
    native: Vec<u8>,
    /// What the SPARC side must hold after conversion.
    sparc_ref: Vec<u8>,
    /// What the x86-64 side must hold after the return trip.
    x86_ref: Vec<u8>,
}

struct WireStream {
    id: u32,
    fmt: FormatId,
    src_seq: SeqSlot,
    templates: Vec<WireTemplate>,
    next: usize,
}

struct Class {
    streams: Vec<WireStream>,
    next_stream: usize,
    sparc_fmt: FormatId,
    sparc_seq: SeqSlot,
    x86_seq: SeqSlot,
}

struct Endpoint {
    writer: Writer,
    reader: Reader,
    decoder: FrameDecoder,
}

impl Endpoint {
    fn new(profile: &ArchProfile) -> Endpoint {
        Endpoint {
            writer: Writer::new(profile),
            reader: Reader::new(profile),
            decoder: FrameDecoder::new(),
        }
    }
}

/// Everything set up and warm: the state `setup_s` pays for.
pub struct WireRig {
    x86: Endpoint,
    sparc: Endpoint,
    classes: Vec<Class>,
    mix: Vec<SizeClass>,
    msg: Vec<u8>,
    wire: Vec<u8>,
    seq: u64,
    /// Frame + message header bytes per round trip, last observed.
    overhead_bytes: u64,
    pub input_hash: u64,
}

fn templates_for(size: SizeClass) -> usize {
    match size {
        SizeClass::B100 => 8,
        SizeClass::K1 => 4,
        SizeClass::K10 => 2,
        SizeClass::K100 => 1,
    }
}

/// Timestamps around the four layer calls of one leg (all zero untraced).
type LegStamps = [u64; 5];

/// One direction: `Writer::write` → `write_frame` into memory →
/// `FrameDecoder` → `Reader::on_data`.
#[allow(clippy::too_many_arguments)]
fn leg<'a>(
    tx: &mut Writer,
    fmt: FormatId,
    record: &[u8],
    stream: u32,
    seq: u32,
    msg: &mut Vec<u8>,
    wire: &mut Vec<u8>,
    rx_decoder: &'a mut FrameDecoder,
    rx_reader: &'a mut Reader,
    clock: Option<&MonoClock>,
) -> Result<(RecordView<'a>, LegStamps), String> {
    let now = || clock.map_or(0, |c| c.now_ns());
    let mut stamps = [0u64; 5];
    stamps[0] = now();
    msg.clear();
    tx.write(fmt, record, msg).map_err(|e| e.to_string())?;
    stamps[1] = now();
    wire.clear();
    write_frame_raw(wire, K_DATA, stream, seq, msg).map_err(|e| e.to_string())?;
    stamps[2] = now();
    let mut unread: &[u8] = wire;
    while !unread.is_empty() {
        rx_decoder.fill(&mut unread).map_err(|e| e.to_string())?;
    }
    let (header, body) = rx_decoder
        .next()
        .map_err(|e| e.to_string())?
        .ok_or("frame did not reassemble")?;
    stamps[3] = now();
    if (header.kind, header.a, header.b) != (K_DATA, stream, seq) {
        return Err(format!("frame header mangled: {header:?}"));
    }
    let mut rest = body;
    let mut data = None;
    while !rest.is_empty() {
        let (message, used) = parse_message(rest)
            .map_err(|e| e.to_string())?
            .ok_or("truncated message in frame body")?;
        match message {
            Message::Format { id, meta } => {
                rx_reader.on_format(id, meta).map_err(|e| e.to_string())?;
            }
            Message::Data { id, payload } => data = Some((id, payload)),
        }
        rest = &rest[used..];
    }
    let (id, payload) = data.ok_or("frame carried no record")?;
    let view = rx_reader.on_data(id, payload).map_err(|e| e.to_string())?;
    stamps[4] = now();
    Ok((view, stamps))
}

impl WireRig {
    /// Generate inputs from `seed`, build both endpoints, register every
    /// format, and run one warm-up pass over the mix (format messages
    /// cross, plans build, conversions compile).
    pub fn setup(seed: u64) -> Result<WireRig, String> {
        let mut rng = gen::rng_for(seed);
        let mut hash = InputHash::new();
        let mut x86 = Endpoint::new(&ArchProfile::X86_64);
        let mut sparc = Endpoint::new(&ArchProfile::SPARC_V8);
        let mut classes = Vec::new();
        for size in SizeClass::ALL {
            let base = gen::schema(size);
            let extended = gen::extended_schema_prepended(&base);
            // Each side expects the base schema in its own layout.
            x86.reader.expect(&base).map_err(|e| e.to_string())?;
            sparc.reader.expect(&base).map_err(|e| e.to_string())?;
            let sparc_layout =
                Arc::new(Layout::of(&base, &ArchProfile::SPARC_V8).map_err(|e| e.to_string())?);
            let x86_layout =
                Arc::new(Layout::of(&base, &ArchProfile::X86_64).map_err(|e| e.to_string())?);
            let back = InterpConverter::new(Arc::new(Plan::build(
                sparc_layout.clone(),
                x86_layout.clone(),
            )));
            let mut streams = Vec::new();
            for s in 0..STREAMS_PER_CLASS {
                let sender_schema = if s == STREAMS_PER_CLASS - 1 {
                    &extended
                } else {
                    &base
                };
                let inputs = StreamInputs::generate(
                    &mut rng,
                    sender_schema,
                    &base,
                    &ArchProfile::X86_64,
                    &ArchProfile::SPARC_V8,
                    templates_for(size),
                );
                hash.feed_stream(&inputs);
                let fmt = x86
                    .writer
                    .register(sender_schema)
                    .map_err(|e| e.to_string())?;
                let templates = inputs
                    .templates
                    .into_iter()
                    .map(|t| {
                        Ok(WireTemplate {
                            x86_ref: back.convert(&t.reference).map_err(|e| e.to_string())?,
                            native: t.native,
                            sparc_ref: t.reference,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                streams.push(WireStream {
                    id: (size.index() * STREAMS_PER_CLASS + s) as u32,
                    fmt,
                    src_seq: inputs.src_seq,
                    templates,
                    next: 0,
                });
            }
            classes.push(Class {
                streams,
                next_stream: 0,
                sparc_fmt: sparc.writer.register(&base).map_err(|e| e.to_string())?,
                sparc_seq: SeqSlot::of(&sparc_layout),
                x86_seq: SeqSlot::of(&x86_layout),
            });
        }
        let mix = gen::shuffled_mix(&mut rng);
        for &s in &mix {
            hash.feed(&[s as u8]);
        }
        let mut rig = WireRig {
            x86,
            sparc,
            classes,
            mix,
            msg: Vec::new(),
            wire: Vec::new(),
            seq: 0,
            overhead_bytes: 0,
            input_hash: hash.finish(),
        };
        // Warm-up: every stream of every class at least once, checked.
        let mut warm = Checks::default();
        for i in 0..rig.mix.len() {
            rig.roundtrip(rig.mix[i], &mut warm, None);
        }
        if warm.failed > 0 {
            return Err(format!("warm-up failed its checks: {:?}", warm.notes));
        }
        Ok(rig)
    }

    /// One round trip of a record of class `size`; returns the native
    /// payload bytes moved (both directions). Failures are counted into
    /// `checks`, never panicked on.
    fn roundtrip(
        &mut self,
        size: SizeClass,
        checks: &mut Checks,
        trace: Option<(&MonoClock, &mut SpanLog)>,
    ) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        checks.attempted += 1;
        let WireRig {
            x86,
            sparc,
            classes,
            msg,
            wire,
            overhead_bytes,
            ..
        } = self;
        let class = &mut classes[size.index()];
        let stream_ix = class.next_stream;
        class.next_stream = (stream_ix + 1) % STREAMS_PER_CLASS;
        let stream = &mut class.streams[stream_ix];
        let t_ix = stream.next;
        stream.next = (t_ix + 1) % stream.templates.len();
        let template = &mut stream.templates[t_ix];
        let seq32 = seq as u32;
        stream.src_seq.put(&mut template.native, seq32);
        let deep_check = seq.is_multiple_of(CHECK_EVERY);
        let (clock, log) = match trace {
            Some((c, l)) => (Some(c), Some(l)),
            None => (None, None),
        };

        let forward = leg(
            &mut x86.writer,
            stream.fmt,
            &template.native,
            stream.id,
            seq32,
            msg,
            wire,
            &mut sparc.decoder,
            &mut sparc.reader,
            clock,
        );
        let (sparc_view, fwd_stamps) = match forward {
            Ok(v) => v,
            Err(e) => {
                checks.fail(1, || format!("seq {seq} forward leg: {e}"));
                return 0;
            }
        };
        let forward_wire = wire.len();
        let mut bad = None;
        if class.sparc_seq.get(sparc_view.bytes()) != Some(seq32) {
            bad = Some("sparc side read the wrong seq");
        } else if deep_check
            && !class
                .sparc_seq
                .same_but_seq(sparc_view.bytes(), &template.sparc_ref)
        {
            bad = Some("sparc record differs from the interpreted reference");
        }

        // The converted side sends its own native record back.
        let sparc_bytes = sparc_view.bytes().len();
        let back = leg(
            &mut sparc.writer,
            class.sparc_fmt,
            sparc_view.bytes(),
            stream.id,
            seq32,
            msg,
            wire,
            &mut x86.decoder,
            &mut x86.reader,
            clock,
        );
        let (x86_view, back_stamps) = match back {
            Ok(v) => v,
            Err(e) => {
                checks.fail(1, || format!("seq {seq} return leg: {e}"));
                return 0;
            }
        };
        if bad.is_none() {
            if class.x86_seq.get(x86_view.bytes()) != Some(seq32) {
                bad = Some("x86 side read the wrong seq");
            } else if deep_check
                && !class
                    .x86_seq
                    .same_but_seq(x86_view.bytes(), &template.x86_ref)
            {
                bad = Some("returned record differs from the interpreted reference");
            }
        }
        let payload = (template.native.len() + sparc_bytes) as u64;
        *overhead_bytes = (forward_wire + wire.len()) as u64 - payload;
        if let Some(what) = bad {
            checks.fail(1, || format!("seq {seq} ({size:?}): {what}"));
        }
        if let (Some(clock), Some(log)) = (clock, log) {
            let root = log.open(SP_ROUNDTRIP, seq, fwd_stamps[0]);
            for stamps in [fwd_stamps, back_stamps] {
                for (k, name) in [SP_WRITE, SP_ENCODE, SP_DECODE, SP_ON_DATA]
                    .into_iter()
                    .enumerate()
                {
                    log.child(name, root.0, SP_ROUNDTRIP, seq, stamps[k], stamps[k + 1]);
                }
            }
            log.close(SP_ROUNDTRIP, root, clock.now_ns());
        }
        payload
    }

    /// One pass over the shuffled mix (1111 round trips); returns the
    /// events and native payload bytes moved.
    pub fn cycle(
        &mut self,
        checks: &mut Checks,
        mut trace: Option<(&MonoClock, &mut SpanLog)>,
    ) -> (u64, u64) {
        let mut payload = 0;
        for i in 0..self.mix.len() {
            let tr = trace.as_mut().map(|(c, l)| (*c, &mut **l));
            payload += self.roundtrip(self.mix[i], checks, tr);
        }
        (self.mix.len() as u64, payload)
    }

    /// Closed loop, one caller: fixed-size repetitions until the budget
    /// is spent.
    pub fn flood(
        &mut self,
        plan: &RunPlan,
        share: f64,
        calibrator: &Calibrator,
        checks: &mut Checks,
        mut trace: Option<(&MonoClock, &mut SpanLog)>,
    ) -> FloodResult {
        let cycles = plan.rep_events(REP_CYCLES * 1111).div_ceil(1111);
        let measured = FloodResult::measure(plan, share, calibrator, || {
            let (mut events, mut bytes) = (0, 0);
            for _ in 0..cycles {
                let tr = trace.as_mut().map(|(c, l)| (*c, &mut **l));
                let (n, b) = self.cycle(checks, tr);
                events += n;
                bytes += b;
            }
            Ok((events, bytes))
        });
        measured.expect("a wire repetition reports failures through `checks`")
    }

    /// Open loop on the one thread, in segments: within a segment record
    /// `i` is due at `t0 + i/rate` and its latency runs from that due time
    /// to the end of its round trip, so a 100 KB record shows in the
    /// latency of the small records queued behind it. Returns the latency
    /// summary and how late each round trip started (ns) — here not a
    /// harness artefact but the queueing itself, the caller being the
    /// system.
    pub fn paced(
        &mut self,
        plan: &RunPlan,
        share: f64,
        calibrator: &Calibrator,
        checks: &mut Checks,
    ) -> (Option<LatencySummary>, Vec<u64>) {
        let per_segment = ((PACED_RATE as f64 * plan.segment().as_secs_f64()) as u64).max(1);
        let budget = plan.budget(share);
        let clock = MonoClock::new();
        let mut bracket = Bracket::new(calibrator);
        let mut summary = SegmentLatency::new();
        let mut late = Vec::with_capacity((PACED_RATE as f64 * budget.as_secs_f64()) as usize);
        let mix_len = self.mix.len() as u64;
        let mut sent = 0u64;
        let start = clock.now_ns();
        while sent == 0 || clock.now_ns() - start < budget.as_nanos() as u64 {
            let mut latencies = Vec::with_capacity(per_segment as usize);
            let ((), timed) = bracket.time(|| {
                let schedule = Schedule::at_rate(clock.now_ns() + 100_000, PACED_RATE);
                pace::open_loop(&clock, schedule, per_segment, &mut late, |i| {
                    let size = self.mix[((sent + i) % mix_len) as usize];
                    self.roundtrip(size, checks, None);
                    latencies.push(clock.now_ns() - schedule.due_ns(i));
                });
            });
            sent += per_segment;
            summary.add_segment(latencies, timed.factor);
        }
        (summary.finish(), late)
    }

    /// Header bytes per round trip beyond the native records themselves:
    /// two frame headers and two message headers.
    pub fn overhead_bytes(&self) -> u64 {
        debug_assert!(self.overhead_bytes >= 2 * FRAME_HEADER_SIZE as u64);
        self.overhead_bytes
    }

    /// Round trips per pass over the mix, by class — the weights of the
    /// layer-sum reconciliation.
    pub fn mix_counts(&self) -> [u64; 4] {
        let mut counts = [0u64; 4];
        for s in &self.mix {
            counts[s.index()] += 1;
        }
        counts
    }
}
