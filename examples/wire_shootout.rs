//! Wire-format shootout: one record, four wire formats.
//!
//! Sends the same mixed-field record through PBIO (NDR), the MPICH-model
//! packed format, CORBA CDR and XML — printing wire sizes and rough
//! per-record encode/decode costs for a heterogeneous exchange
//! (Sparc sender, x86 receiver).
//!
//! ```text
//! cargo run -p pbio-examples --release --bin wire_shootout
//! ```

use pbio_bench::exchange::time_avg;
use pbio_bench::workloads::{workload, MsgSize};
use pbio_bench::{prepare, WireFormat};
use pbio_types::ArchProfile;

fn main() {
    let sparc = &ArchProfile::SPARC_V8;
    let x86 = &ArchProfile::X86;
    let size = MsgSize::K1;
    let w = workload(size);

    println!(
        "One {} mixed-field record ({} fields), sparc-v8 -> x86:\n",
        size.label(),
        w.schema.fields().len()
    );
    println!(
        "{:<18} {:>12} {:>16} {:>16}",
        "wire format", "wire bytes", "encode (µs)", "decode (µs)"
    );
    println!("{}", "-".repeat(66));

    for fmt in [
        WireFormat::PbioDcg,
        WireFormat::PbioInterp,
        WireFormat::Mpi,
        WireFormat::Cdr,
        WireFormat::Xml,
    ] {
        let mut pb = prepare(fmt, &w.schema, &w.schema, sparc, x86, &w.value);
        let iters = 5_000;
        let enc = time_avg(
            || {
                (pb.encode)();
            },
            iters,
        )
        .as_secs_f64()
            * 1e6;
        let dec = time_avg(|| (pb.decode)(), iters).as_secs_f64() * 1e6;
        println!(
            "{:<18} {:>12} {:>16.2} {:>16.2}",
            fmt.label(),
            pb.wire.len(),
            enc,
            dec
        );
    }

    println!();
    println!("Things to notice (the paper's Figures 2-4 in miniature):");
    println!(" * PBIO's wire carries native padding + a 9-byte header, yet encode");
    println!("   cost is near zero — the bytes go out as they sit in memory.");
    println!(" * The packed formats (MPICH, CDR) have slightly smaller wires but");
    println!("   pay per-element copies on BOTH ends.");
    println!(" * XML's wire is several times larger and its text conversion");
    println!("   dominates everything else.");
}
