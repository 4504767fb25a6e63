//! The paper's evaluation in one run: Figures 1–7, the wire sizes and the
//! design ablations, one table each.
//!
//! ```text
//! cargo run -p pbio-bench --release --bin figures [-- --era]
//! ```
//!
//! * Fig. 1 — MPICH round-trip cost breakdown, sparc <-> x86 over the
//!   modeled 100 Mbps Ethernet: six components, total and CPU fraction
//! * Fig. 2 — send-side encode times on the Sparc (XML / MPICH / CORBA / PBIO)
//! * Fig. 3 — receive-side decode times on the Sparc, heterogeneous
//!   (x86 sender), interpreted converters
//! * Fig. 4 — receive-side: MPICH vs PBIO interpreted vs PBIO DCG
//! * Fig. 5 — PBIO DCG vs MPICH round trips, and the PBIO legs
//! * Fig. 6 — PBIO DCG receive with/without an unexpected field, heterogeneous
//! * Fig. 7 — same, homogeneous (matched case is zero-copy), beside a
//!   memcpy of the record
//! * wire sizes, and the six ablation groups DESIGN.md cites
//!
//! Times are per-record microseconds, each the mean of many iterations
//! ([`time_avg`]). A configuration — wire format, sender schema, sender and
//! receiver architecture, size — is measured once per run, as one encode /
//! decode leg, and every table that shows it reads that leg. `--era` scales
//! the CPU components of the round-trip tables (Figs. 1 and 5) to the
//! paper's 1999 hosts (see `pbio_bench::era`); every other table is raw
//! host CPU time.

use std::collections::HashMap;
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use pbio::{CodegenMode, DcgConverter, Plan};
use pbio_bench::era::{scale_leg, SPARC_FACTOR, X86_FACTOR};
use pbio_bench::exchange::{measure_leg, time_avg, LegCosts, RoundTripCosts};
use pbio_bench::workloads::{
    extended_schema_appended, extended_schema_prepended, extended_value, particle_schema,
    particle_value, workload, MsgSize,
};
use pbio_bench::{prepare, WireFormat};
use pbio_chan::{FilterProgram, Predicate};
use pbio_net::SimLink;
use pbio_types::arch::ArchProfile;
use pbio_types::layout::Layout;
use pbio_types::value::encode_native;

const SPARC: &ArchProfile = &ArchProfile::SPARC_V8;
const X86: &ArchProfile = &ArchProfile::X86;
const USAGE: &str = "usage: figures [--era]";

const PAPER_FIG1: &str = "\
Paper (Figure 1) reference components, microseconds:
  100b : sparc enc 34,  net 227,  i86 dec 63,   i86 enc 10,  net 227,  sparc dec 104
  1Kb  : sparc enc 86,  net 345,  i86 dec 106,  i86 enc 46,  net 345,  sparc dec 186
  10Kb : sparc enc 971, net 1940, i86 dec 1190, i86 enc 876, net 1940, sparc dec 1510
  100Kb: sparc enc 13310, net 15390, i86 dec 11630, i86 enc 8950, net 15390, sparc dec 15410
";

const PAPER_FIG5: &str = "\
Paper PBIO DCG reference (µs): 100b rt=620; 1Kb rt=870; 10Kb rt=4300; 100Kb rt=35270
Paper PBIO legs at 100Kb: enc 2, net 15390, i86 dec 3320 | enc 1, net 15390, sparc dec 1160
";

fn iters_for(size: MsgSize) -> u32 {
    match size {
        MsgSize::B100 => 30_000,
        MsgSize::K1 => 10_000,
        MsgSize::K10 => 2_000,
        MsgSize::K100 => 300,
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The sender's record format relative to the receiver's (§4.4).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Sender {
    /// The receiver's own schema.
    Matched,
    /// One unexpected field ahead of every expected one: all offsets shift.
    Prepended,
    /// One unexpected field after them, the evolution the paper recommends.
    Appended,
}

type Config = (WireFormat, Sender, &'static str, &'static str, MsgSize);

/// Every leg measured so far in this run, keyed by configuration.
struct Legs {
    link: SimLink,
    measured: HashMap<Config, LegCosts>,
}

impl Legs {
    /// The `sp` → `dp` leg of `fmt` at `size`: measured on first request,
    /// then reused.
    fn get(
        &mut self,
        fmt: WireFormat,
        sender: Sender,
        sp: &ArchProfile,
        dp: &ArchProfile,
        size: MsgSize,
    ) -> LegCosts {
        let link = self.link;
        *self
            .measured
            .entry((fmt, sender, sp.name, dp.name, size))
            .or_insert_with(|| {
                let w = workload(size);
                let (schema, value) = match sender {
                    Sender::Matched => (w.schema.clone(), w.value.clone()),
                    Sender::Prepended => (
                        extended_schema_prepended(&w.schema),
                        extended_value(&w.value),
                    ),
                    Sender::Appended => (
                        extended_schema_appended(&w.schema),
                        extended_value(&w.value),
                    ),
                };
                let mut pb = prepare(fmt, &schema, &w.schema, sp, dp, &value);
                measure_leg(&link, &mut *pb.encode, &mut *pb.decode, iters_for(size))
            })
    }

    /// Sparc-side decode of a record sent from `sp`.
    fn decode_us(
        &mut self,
        fmt: WireFormat,
        sender: Sender,
        sp: &ArchProfile,
        size: MsgSize,
    ) -> f64 {
        us(self.get(fmt, sender, sp, SPARC, size).decode)
    }

    /// The sparc → x86 → sparc round trip of `fmt`, era-scaled if asked.
    fn round_trip(&mut self, fmt: WireFormat, size: MsgSize, era: bool) -> RoundTripCosts {
        let mut forward = self.get(fmt, Sender::Matched, SPARC, X86, size);
        let mut back = self.get(fmt, Sender::Matched, X86, SPARC, size);
        if era {
            forward = scale_leg(forward, SPARC_FACTOR, X86_FACTOR);
            back = scale_leg(back, X86_FACTOR, SPARC_FACTOR);
        }
        RoundTripCosts { forward, back }
    }
}

/// The six components of a round trip, in the paper's order, in µs.
fn components_us(rt: &RoundTripCosts) -> Vec<f64> {
    let (f, b) = (rt.forward, rt.back);
    [f.encode, f.network, f.decode, b.encode, b.network, b.decode]
        .map(us)
        .to_vec()
}

fn cpu_us(rt: &RoundTripCosts) -> f64 {
    us(rt.forward.encode + rt.forward.decode + rt.back.encode + rt.back.decode)
}

/// One row per size, labelled with the paper's size names.
fn per_size(sizes: &[MsgSize], mut f: impl FnMut(MsgSize) -> Vec<f64>) -> Vec<(String, Vec<f64>)> {
    sizes
        .iter()
        .map(|&s| (s.label().to_string(), f(s)))
        .collect()
}

/// What a table's cells hold: times (and the percentages beside them) keep
/// two decimals, three below 1; byte counts print whole.
#[derive(Clone, Copy)]
enum Unit {
    Micros,
    Bytes,
}

fn print_table(title: &str, unit: Unit, columns: &[&str], rows: &[(String, Vec<f64>)]) {
    println!("{title}");
    let label_w = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0).max(6);
    let widths: Vec<usize> = columns.iter().map(|c| c.chars().count().max(10)).collect();
    print!("{:>label_w$}", "");
    for (c, w) in columns.iter().zip(&widths) {
        print!(" | {c:>w$}");
    }
    println!();
    println!(
        "{}",
        "-".repeat(label_w + widths.iter().map(|w| w + 3).sum::<usize>())
    );
    for (label, vals) in rows {
        print!("{label:>label_w$}");
        for (v, w) in vals.iter().zip(&widths) {
            let v = match unit {
                Unit::Bytes => format!("{v:.0}"),
                Unit::Micros if *v < 1.0 => format!("{v:.3}"),
                Unit::Micros => format!("{v:.2}"),
            };
            print!(" | {v:>w$}");
        }
        println!();
    }
    println!();
}

/// The receiver-side plan for a Fig. 4 exchange (x86 sender, Sparc
/// receiver), with its source and destination layouts.
fn x86_to_sparc_plan(size: MsgSize) -> (Arc<Layout>, Arc<Layout>, Arc<Plan>) {
    let w = workload(size);
    let slay = Arc::new(Layout::of(&w.schema, X86).unwrap());
    let dlay = Arc::new(Layout::of(&w.schema, SPARC).unwrap());
    let plan = Arc::new(Plan::build(slay.clone(), dlay.clone()));
    (slay, dlay, plan)
}

fn main() -> ExitCode {
    let mut era = false;
    for arg in std::env::args().skip(1) {
        if arg == "--era" {
            era = true;
        } else {
            eprintln!("unknown argument {arg:?}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    }
    let all = MsgSize::all();
    let ablation_sizes = [MsgSize::K1, MsgSize::K100];
    let mut legs = Legs {
        link: SimLink::paper_ethernet(),
        measured: HashMap::new(),
    };

    if era {
        println!("(--era: Figs. 1 and 5 scale CPU components to the paper's 1999 hosts; see pbio_bench::era)\n");
    } else {
        println!(
            "(raw host CPU times; pass --era to scale Figs. 1 and 5 to the paper's 1999 hosts)\n"
        );
    }

    // ---- Figure 1: MPICH round-trip breakdown ----
    let rows = per_size(&all, |size| {
        let rt = legs.round_trip(WireFormat::Mpi, size, era);
        let mut row = components_us(&rt);
        row.extend([us(rt.total()), rt.cpu_fraction() * 100.0]);
        row
    });
    print_table(
        "Figure 1 — MPICH round-trip cost breakdown, sparc <-> x86, modeled 100 Mbps Ethernet (µs)\n\
         (paper round trips: 100b=660, 1Kb=1110, 10Kb=8430, 100Kb=80090)",
        Unit::Micros,
        &["sparc enc", "network", "i86 dec", "i86 enc", "network", "sparc dec", "total", "cpu %"],
        &rows,
    );
    println!("{PAPER_FIG1}");

    // ---- Figure 2: sender encode on the Sparc ----
    let formats2 = [
        WireFormat::Xml,
        WireFormat::Mpi,
        WireFormat::Cdr,
        WireFormat::PbioDcg,
    ];
    let rows = per_size(&all, |size| {
        formats2
            .map(|f| us(legs.get(f, Sender::Matched, SPARC, X86, size).encode))
            .to_vec()
    });
    print_table(
        "Figure 2 — sender encode times on the Sparc (µs)\n\
         (paper: MPICH 34 µs -> 13 ms with size; PBIO flat ~3 µs; XML far above all)",
        Unit::Micros,
        &["XML", "MPICH", "CORBA", "PBIO"],
        &rows,
    );

    // ---- Figure 3: receiver decode on the Sparc, heterogeneous ----
    let formats3 = [
        WireFormat::Xml,
        WireFormat::Mpi,
        WireFormat::Cdr,
        WireFormat::PbioInterp,
    ];
    let rows = per_size(&all, |size| {
        formats3
            .map(|f| legs.decode_us(f, Sender::Matched, X86, size))
            .to_vec()
    });
    print_table(
        "Figure 3 — receiver decode times on the Sparc, x86 sender (µs)\n\
         (paper: XML 1-2 orders of magnitude above PBIO interpreted; PBIO < MPICH)",
        Unit::Micros,
        &["XML", "MPICH", "CORBA", "PBIO interp"],
        &rows,
    );

    // ---- Figure 4: interpreted vs DCG receive ----
    let formats4 = [WireFormat::Mpi, WireFormat::PbioInterp, WireFormat::PbioDcg];
    let rows = per_size(&all, |size| {
        formats4
            .map(|f| legs.decode_us(f, Sender::Matched, X86, size))
            .to_vec()
    });
    print_table(
        "Figure 4 — receiver decode: interpreted vs DCG conversions (µs)\n\
         (paper: DCG 'significantly faster', near copy speed)",
        Unit::Micros,
        &["MPICH", "PBIO interp", "PBIO DCG"],
        &rows,
    );

    // ---- Figure 5: PBIO DCG vs MPICH round trips ----
    let rows = per_size(&all, |size| {
        let mpi = legs.round_trip(WireFormat::Mpi, size, era);
        let pbio = legs.round_trip(WireFormat::PbioDcg, size, era);
        let ratio = us(pbio.total()) / us(mpi.total()) * 100.0;
        vec![
            us(mpi.total()),
            cpu_us(&mpi),
            us(pbio.total()),
            cpu_us(&pbio),
            ratio,
        ]
    });
    print_table(
        "Figure 5 — round-trip comparison: PBIO DCG vs MPICH, sparc <-> x86 (µs)\n\
         (paper: PBIO 100Kb round trip = 35270 vs MPICH 80090, ratio 44%)",
        Unit::Micros,
        &[
            "MPICH total",
            "MPICH cpu",
            "PBIO total",
            "PBIO cpu",
            "PBIO/MPICH %",
        ],
        &rows,
    );
    let rows = per_size(&all, |size| {
        components_us(&legs.round_trip(WireFormat::PbioDcg, size, era))
    });
    print_table(
        "Figure 5, lower half — the PBIO DCG legs (µs)",
        Unit::Micros,
        &[
            "sparc enc",
            "network",
            "i86 dec",
            "i86 enc",
            "network",
            "sparc dec",
        ],
        &rows,
    );
    println!("{PAPER_FIG5}");

    // ---- Figure 6: heterogeneous receive, matched vs unexpected field ----
    let rows = per_size(&all, |size| {
        [Sender::Matched, Sender::Prepended]
            .map(|s| legs.decode_us(WireFormat::PbioDcg, s, X86, size))
            .to_vec()
    });
    print_table(
        "Figure 6 — heterogeneous receive (sparc side): matched vs unexpected leading field (µs)\n\
         (paper: 'the extra field has no effect upon the receive-side performance')",
        Unit::Micros,
        &["matched", "mismatched"],
        &rows,
    );

    // ---- Figure 7: homogeneous receive, matched vs unexpected field ----
    let rows = per_size(&all, |size| {
        let mut row = [Sender::Matched, Sender::Prepended]
            .map(|s| legs.decode_us(WireFormat::PbioDcg, s, SPARC, size))
            .to_vec();
        // The paper compares the mismatch overhead to a memcpy of the same
        // amount of data.
        let n = Layout::of(&workload(size).schema, SPARC).unwrap().size();
        let (src, mut dst) = (vec![7u8; n], vec![0u8; n]);
        let memcpy = time_avg(
            || {
                dst.copy_from_slice(&src);
                black_box(&mut dst);
            },
            iters_for(size),
        );
        row.push(us(memcpy));
        row
    });
    print_table(
        "Figure 7 — homogeneous receive (sparc-sparc): matched (zero-copy) vs unexpected field (µs)\n\
         (paper: mismatch forces conversion; overhead ~= memcpy of the data)",
        Unit::Micros,
        &["matched_zero_copy", "mismatched", "memcpy_reference"],
        &rows,
    );

    // ---- Wire sizes (the paper's compactness discussion, §4.1/§5) ----
    let rows = per_size(&all, |size| {
        let native = Layout::of(&workload(size).schema, SPARC).unwrap().size();
        let mut row = vec![native as f64];
        for f in [
            WireFormat::PbioDcg,
            WireFormat::Mpi,
            WireFormat::Cdr,
            WireFormat::Xml,
        ] {
            row.push(legs.get(f, Sender::Matched, SPARC, X86, size).wire_bytes as f64);
        }
        row.push(row[4] / row[0] * 100.0);
        row
    });
    print_table(
        "Wire sizes in bytes (native record on the Sparc vs bytes on the wire)\n\
         (paper: XML expansion of 6-8x is not unusual for mixed text/numeric records)",
        Unit::Bytes,
        &["native", "PBIO", "MPICH", "CORBA", "XML", "XML/native %"],
        &rows,
    );

    // ---- Ablations of the design choices DESIGN.md calls out ----
    // Interpreted vs naive DCG vs optimized DCG: the DCG win and the
    // peephole win separately.
    let backends = [
        WireFormat::PbioInterp,
        WireFormat::PbioDcgNaive,
        WireFormat::PbioDcg,
    ];
    let rows = per_size(&ablation_sizes, |size| {
        backends
            .map(|f| legs.decode_us(f, Sender::Matched, X86, size))
            .to_vec()
    });
    print_table(
        "ablation_conversion_backend — receiver decode, x86 -> sparc (µs)",
        Unit::Micros,
        &backends.map(WireFormat::label),
        &rows,
    );

    // Where the unexpected field goes (§4.4 last paragraph), homogeneous
    // so the mismatch is the only conversion.
    let rows = per_size(&ablation_sizes, |size| {
        [Sender::Prepended, Sender::Appended]
            .map(|s| legs.decode_us(WireFormat::PbioDcg, s, SPARC, size))
            .to_vec()
    });
    print_table(
        "ablation_extension_position — homogeneous sparc receive, PBIO DCG (µs)",
        Unit::Micros,
        &["prepended_worst_case", "appended_recommended"],
        &rows,
    );

    // The one-time code generation the per-record savings amortize (§3).
    let rows = per_size(&ablation_sizes, |size| {
        let (_, _, plan) = x86_to_sparc_plan(size);
        [CodegenMode::Naive, CodegenMode::Optimized]
            .map(|mode| {
                us(time_avg(
                    || {
                        black_box(DcgConverter::compile(plan.clone(), mode).unwrap());
                    },
                    5_000,
                ))
            })
            .to_vec()
    });
    print_table(
        "ablation_dcg_compile_cost — generating the x86 -> sparc converter (µs)",
        Unit::Micros,
        &["naive", "optimized"],
        &rows,
    );

    // Compiled event-channel filter vs its interpreted reference.
    let rows = per_size(&[MsgSize::K1], |size| {
        let w = workload(size);
        let layout = Arc::new(Layout::of(&w.schema, SPARC).unwrap());
        let bytes = encode_native(&w.value, &layout).unwrap();
        let pred = Predicate::gt("time", 1.0)
            .and(Predicate::ne("seq", 0))
            .or(Predicate::eq("valid", true));
        let prog = FilterProgram::compile(pred, layout).unwrap();
        vec![
            us(time_avg(
                || _ = black_box(prog.matches(&bytes).unwrap()),
                100_000,
            )),
            us(time_avg(
                || _ = black_box(prog.matches_interpreted(&bytes).unwrap()),
                100_000,
            )),
        ]
    });
    print_table(
        "ablation_filter_backend — one predicate over a sparc record (µs)",
        Unit::Micros,
        &["compiled", "interpreted"],
        &rows,
    );

    // Per-access checked dispatch vs the single up-front bounds check the
    // static analysis enables (validate once, run fast).
    let rows = per_size(&ablation_sizes, |size| {
        let (slay, dlay, plan) = x86_to_sparc_plan(size);
        let wire = encode_native(&workload(size).value, &slay).unwrap();
        let conv = DcgConverter::compile(plan, CodegenMode::Optimized).unwrap();
        let extents = conv.extents().expect("fixed records compile straight-line");
        let prog = conv.program();
        let mut out = vec![0u8; dlay.size()];
        let checked = time_avg(
            || {
                pbio_vrisc::run(prog, &wire, &mut out, &[]).unwrap();
            },
            iters_for(size),
        );
        let single = time_avg(
            || pbio_vrisc::run_straightline(prog, &extents, &wire, &mut out).unwrap(),
            iters_for(size),
        );
        vec![us(checked), us(single)]
    });
    print_table(
        "ablation_bounds_checking — running the x86 -> sparc converter (µs)",
        Unit::Micros,
        &["per_access_checked", "single_check"],
        &rows,
    );

    // Nested records, runtime-sized arrays and strings: shapes MPI's
    // a-priori datatypes cannot express. Receive cost of the formats that
    // can.
    let var_formats = [WireFormat::PbioDcg, WireFormat::Cdr, WireFormat::Xml];
    let schema = particle_schema();
    let rows: Vec<_> = [4usize, 256]
        .iter()
        .map(|&neighbors| {
            let value = particle_value(neighbors as u64, neighbors);
            let vals = var_formats.map(|f| {
                let mut pb = prepare(f, &schema, &schema, SPARC, &ArchProfile::X86_64, &value);
                us(time_avg(|| (pb.decode)(), 5_000))
            });
            (format!("{neighbors}nbrs"), vals.to_vec())
        })
        .collect();
    print_table(
        "ablation_var_length_records — particle receive, sparc -> x86-64 (µs)",
        Unit::Micros,
        &var_formats.map(WireFormat::label),
        &rows,
    );
    ExitCode::SUCCESS
}
