//! Prepared encode/decode closures per wire format.
//!
//! Each [`prepare`] call sets up one (wire format, sender arch, receiver
//! arch, schema) combination exactly as a steady-state application would run
//! it — formats registered/announced, conversion routines generated, buffers
//! pre-allocated — and returns closures measuring only the *per-record* work
//! the paper's figures charge to each system:
//!
//! | format | sender cost | receiver cost |
//! |---|---|---|
//! | PBIO (NDR) | frame header + buffered copy of native bytes | zero-copy view, or one generated-code conversion |
//! | PBIO interpreted | same | table-driven plan walk |
//! | MPICH model | interpreted pack into contiguous buffer | interpreted unpack into a **fresh** buffer (MPICH behaviour) |
//! | CORBA CDR | stub-compiled marshal (copy, writer's order) | stub-compiled unmarshal (copy, swap iff orders differ) |
//! | XML | binary→ASCII emit | streaming parse + ASCII→binary |

use std::sync::Arc;

use pbio::{CodegenMode, DcgConverter, InterpConverter, Plan, RecordView, Writer};
use pbio_cdr::CdrCodec;
use pbio_mpi::{mpi_pack_into, mpi_unpack, Datatype};
use pbio_types::arch::ArchProfile;
use pbio_types::layout::Layout;
use pbio_types::schema::Schema;
use pbio_types::value::{encode_native, RecordValue};
use pbio_xml::{emitter, XmlDecoder};

/// The systems under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireFormat {
    /// PBIO with optimized dynamic code generation (the paper's "PBIO DCG").
    PbioDcg,
    /// PBIO with unoptimized generated code (ablation).
    PbioDcgNaive,
    /// PBIO with the table-driven interpreted converter (the paper's "PBIO").
    PbioInterp,
    /// The MPICH-model baseline.
    Mpi,
    /// The CORBA IIOP/CDR baseline.
    Cdr,
    /// The XML baseline.
    Xml,
}

impl WireFormat {
    /// Display name used in figure output.
    pub fn label(self) -> &'static str {
        match self {
            WireFormat::PbioDcg => "PBIO DCG",
            WireFormat::PbioDcgNaive => "PBIO DCG (naive)",
            WireFormat::PbioInterp => "PBIO",
            WireFormat::Mpi => "MPICH",
            WireFormat::Cdr => "CORBA",
            WireFormat::Xml => "XML",
        }
    }
}

/// A prepared benchmark: steady-state per-record closures plus the wire
/// image they exchange.
pub struct ProtoBench {
    /// Bytes as they cross the wire (for size accounting).
    pub wire: Vec<u8>,
    /// Sender-side per-record work; returns wire byte count.
    pub encode: Box<dyn FnMut() -> usize>,
    /// Receiver-side per-record work (decode `wire` into usable native data).
    pub decode: Box<dyn FnMut()>,
}

/// Prepare one (format, sender, receiver) combination. The sender transmits
/// records of `sender_schema`; the receiver expects `receiver_schema`
/// (usually the same — Figures 6/7 pass an extended sender schema).
pub fn prepare(
    format: WireFormat,
    sender_schema: &Schema,
    receiver_schema: &Schema,
    sp: &ArchProfile,
    dp: &ArchProfile,
    value: &RecordValue,
) -> ProtoBench {
    match format {
        WireFormat::PbioDcg => prepare_pbio(
            sender_schema,
            receiver_schema,
            sp,
            dp,
            value,
            Backend::Dcg(CodegenMode::Optimized),
        ),
        WireFormat::PbioDcgNaive => prepare_pbio(
            sender_schema,
            receiver_schema,
            sp,
            dp,
            value,
            Backend::Dcg(CodegenMode::Naive),
        ),
        WireFormat::PbioInterp => prepare_pbio(
            sender_schema,
            receiver_schema,
            sp,
            dp,
            value,
            Backend::Interp,
        ),
        WireFormat::Mpi => prepare_mpi(sender_schema, receiver_schema, sp, dp, value),
        WireFormat::Cdr => prepare_cdr(sender_schema, receiver_schema, sp, dp, value),
        WireFormat::Xml => prepare_xml(sender_schema, receiver_schema, sp, dp, value),
    }
}

enum Backend {
    Interp,
    Dcg(CodegenMode),
}

fn prepare_pbio(
    sender_schema: &Schema,
    receiver_schema: &Schema,
    sp: &ArchProfile,
    dp: &ArchProfile,
    value: &RecordValue,
    backend: Backend,
) -> ProtoBench {
    let mut writer = Writer::new(sp);
    let fmt = writer.register(sender_schema).expect("register");
    let native = writer.encode_value(fmt, value).expect("encode value");

    // Steady state: announce the format once so per-record framing is just
    // the data header.
    let mut warmup = Vec::new();
    writer
        .write(fmt, &native, &mut warmup)
        .expect("warmup write");

    let mut out = Vec::with_capacity(native.len() + 64);
    writer.write(fmt, &native, &mut out).expect("wire write");
    let wire = out.clone();

    let native_enc = native.clone();
    let mut enc_buf: Vec<u8> = Vec::with_capacity(wire.len());
    let encode = Box::new(move || {
        enc_buf.clear();
        writer.write(fmt, &native_enc, &mut enc_buf).expect("write");
        enc_buf.len()
    });

    // Receiver side: the data payload is the native record itself (NDR).
    let payload = native;
    let slay = Arc::new(Layout::of(sender_schema, sp).expect("sender layout"));
    let dlay = Arc::new(Layout::of(receiver_schema, dp).expect("receiver layout"));
    let plan = Arc::new(Plan::build(slay, dlay.clone()));

    let decode: Box<dyn FnMut()> = if plan.zero_copy {
        // Zero-copy: receiving is constructing a view over the buffer.
        Box::new(move || {
            let view = RecordView::borrowed(&payload, dlay.clone());
            std::hint::black_box(view.bytes().len());
        })
    } else {
        match backend {
            Backend::Interp => {
                let conv = InterpConverter::new(plan);
                let mut buf = Vec::with_capacity(dlay.size() + 64);
                Box::new(move || {
                    conv.convert_into(&payload, &mut buf).expect("convert");
                    std::hint::black_box(buf.len());
                })
            }
            Backend::Dcg(mode) => {
                let conv = DcgConverter::compile(plan, mode).expect("compile");
                let mut buf = Vec::with_capacity(dlay.size() + 64);
                Box::new(move || {
                    conv.convert_into(&payload, &mut buf).expect("convert");
                    std::hint::black_box(buf.len());
                })
            }
        }
    };

    ProtoBench {
        wire,
        encode,
        decode,
    }
}

fn prepare_mpi(
    sender_schema: &Schema,
    receiver_schema: &Schema,
    sp: &ArchProfile,
    dp: &ArchProfile,
    value: &RecordValue,
) -> ProtoBench {
    let sdt = Datatype::from_schema(sender_schema, sp).expect("sender datatype");
    let ddt = Datatype::from_schema(receiver_schema, dp).expect("receiver datatype");
    let slay = Layout::of(sender_schema, sp).expect("layout");
    let native = encode_native(value, &slay).expect("encode");

    let mut wire = Vec::new();
    mpi_pack_into(&sdt, sp, &native, &mut wire).expect("pack");

    let sp2 = sp.clone();
    let native_enc = native.clone();
    let mut enc_buf: Vec<u8> = Vec::with_capacity(wire.len());
    let encode = Box::new(move || {
        enc_buf.clear();
        mpi_pack_into(&sdt, &sp2, &native_enc, &mut enc_buf).expect("pack");
        enc_buf.len()
    });

    let dp2 = dp.clone();
    let wire_dec = wire.clone();
    let decode = Box::new(move || {
        // MPICH model: a separate unpack buffer per message (§4.3).
        let out = mpi_unpack(&ddt, &dp2, &wire_dec).expect("unpack");
        std::hint::black_box(out.len());
    });

    ProtoBench {
        wire,
        encode,
        decode,
    }
}

fn prepare_cdr(
    sender_schema: &Schema,
    receiver_schema: &Schema,
    sp: &ArchProfile,
    dp: &ArchProfile,
    value: &RecordValue,
) -> ProtoBench {
    let sc = CdrCodec::new(sender_schema, sp).expect("sender codec");
    let dc = CdrCodec::new(receiver_schema, dp).expect("receiver codec");
    let native = encode_native(value, sc.layout()).expect("encode");
    let wire = sc.marshal(&native).expect("marshal");

    let native_enc = native.clone();
    let mut enc_buf: Vec<u8> = Vec::with_capacity(wire.len());
    let encode = Box::new(move || {
        sc.marshal_into(&native_enc, &mut enc_buf).expect("marshal");
        enc_buf.len()
    });

    let wire_dec = wire.clone();
    let mut dec_buf: Vec<u8> = Vec::new();
    let decode = Box::new(move || {
        dc.unmarshal_into(&wire_dec, &mut dec_buf)
            .expect("unmarshal");
        std::hint::black_box(dec_buf.len());
    });

    ProtoBench {
        wire,
        encode,
        decode,
    }
}

fn prepare_xml(
    sender_schema: &Schema,
    receiver_schema: &Schema,
    sp: &ArchProfile,
    dp: &ArchProfile,
    value: &RecordValue,
) -> ProtoBench {
    let slay = Layout::of(sender_schema, sp).expect("sender layout");
    let dlay = Layout::of(receiver_schema, dp).expect("receiver layout");
    let native = encode_native(value, &slay).expect("encode");
    let xml = emitter::emit_record(&slay, &native).expect("emit");
    let wire = xml.clone().into_bytes();

    let native_enc = native.clone();
    let slay2 = slay.clone();
    let mut enc_buf = String::with_capacity(xml.len() + 64);
    let encode = Box::new(move || {
        enc_buf.clear();
        emitter::emit_into(&slay2, &native_enc, &mut enc_buf).expect("emit");
        enc_buf.len()
    });

    let decoder = XmlDecoder::new(&dlay);
    let mut dec_buf: Vec<u8> = Vec::with_capacity(dlay.size() + 64);
    let decode = Box::new(move || {
        decoder.decode_into(&xml, &mut dec_buf).expect("decode");
        std::hint::black_box(dec_buf.len());
    });

    ProtoBench {
        wire,
        encode,
        decode,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{workload, MsgSize};

    #[test]
    fn every_format_prepares_and_runs() {
        let w = workload(MsgSize::B100);
        for fmt in [
            WireFormat::PbioDcg,
            WireFormat::PbioDcgNaive,
            WireFormat::PbioInterp,
            WireFormat::Mpi,
            WireFormat::Cdr,
            WireFormat::Xml,
        ] {
            let mut pb = prepare(
                fmt,
                &w.schema,
                &w.schema,
                &ArchProfile::SPARC_V8,
                &ArchProfile::X86,
                &w.value,
            );
            let n = (pb.encode)();
            assert!(n > 0, "{fmt:?}");
            assert_eq!(n, pb.wire.len(), "{fmt:?}: steady-state wire size");
            (pb.decode)();
        }
    }

    #[test]
    fn pbio_wire_is_smallest_mpi_packed_xml_biggest() {
        let w = workload(MsgSize::K1);
        let sizes: Vec<(WireFormat, usize)> =
            [WireFormat::PbioDcg, WireFormat::Mpi, WireFormat::Xml]
                .into_iter()
                .map(|f| {
                    let pb = prepare(
                        f,
                        &w.schema,
                        &w.schema,
                        &ArchProfile::SPARC_V8,
                        &ArchProfile::X86,
                        &w.value,
                    );
                    (f, pb.wire.len())
                })
                .collect();
        let pbio = sizes[0].1;
        let mpi = sizes[1].1;
        let xml = sizes[2].1;
        // MPI wire is packed (no padding) but PBIO carries padding + header;
        // both are within a few dozen bytes. XML is several times larger.
        assert!(xml > 2 * pbio, "xml {xml} vs pbio {pbio}");
        assert!(xml > 2 * mpi, "xml {xml} vs mpi {mpi}");
    }

    #[test]
    fn homogeneous_pbio_is_zero_copy_path() {
        let w = workload(MsgSize::B100);
        let mut pb = prepare(
            WireFormat::PbioDcg,
            &w.schema,
            &w.schema,
            &ArchProfile::SPARC_V8,
            &ArchProfile::SPARC_V8,
            &w.value,
        );
        (pb.decode)(); // must not panic; plan.identical path
    }

    #[test]
    fn mismatched_schemas_prepare() {
        let w = workload(MsgSize::B100);
        let extended = crate::workloads::extended_schema_prepended(&w.schema);
        let value = crate::workloads::extended_value(&w.value);
        let mut pb = prepare(
            WireFormat::PbioDcg,
            &extended,
            &w.schema,
            &ArchProfile::X86,
            &ArchProfile::X86,
            &value,
        );
        (pb.encode)();
        (pb.decode)();
    }
}
