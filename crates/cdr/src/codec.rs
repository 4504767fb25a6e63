//! The CDR codec: precompiled marshal/unmarshal operation lists.

use std::fmt;

use pbio_types::arch::{ArchProfile, Endianness};
use pbio_types::error::TypeError;
use pbio_types::layout::{round_up, ConcreteType, Layout};
use pbio_types::prim;
use pbio_types::schema::{Schema, TypeDesc};

/// Errors from CDR marshalling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CdrError {
    /// Buffer too small for the operation.
    Truncated {
        /// What was happening.
        context: String,
        /// Bytes needed.
        need: usize,
        /// Bytes available.
        have: usize,
    },
    /// Schema could not be laid out or contains unsupported shapes.
    BadSchema(String),
    /// Malformed stream (bad header flag).
    BadStream(String),
}

impl fmt::Display for CdrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CdrError::Truncated {
                context,
                need,
                have,
            } => {
                write!(f, "truncated while {context}: need {need}, have {have}")
            }
            CdrError::BadSchema(m) => write!(f, "bad schema: {m}"),
            CdrError::BadStream(m) => write!(f, "bad CDR stream: {m}"),
        }
    }
}

impl std::error::Error for CdrError {}

impl From<TypeError> for CdrError {
    fn from(e: TypeError) -> CdrError {
        CdrError::BadSchema(e.to_string())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Signed,
    Unsigned,
    Float,
    Byte,
}

#[derive(Debug, Clone)]
enum Op {
    /// One scalar: native (offset, width) <-> wire (aligned, canonical width).
    Scalar {
        off: usize,
        nw: u8,
        ww: u8,
        kind: Kind,
    },
    /// A string field (native descriptor at `off`).
    Str { off: usize },
    /// A sequence (var array): native descriptor at `off`, element ops with
    /// element-relative native offsets, native element stride.
    Seq {
        off: usize,
        stride: usize,
        elem: Vec<Op>,
    },
}

/// Size of the GIOP-style message header (flag byte + padding).
pub const HEADER_SIZE: usize = 4;

/// A per-(schema, architecture) CDR marshaller — the analogue of an IDL
/// compiler's generated stub for one machine.
pub struct CdrCodec {
    profile: ArchProfile,
    layout: Layout,
    ops: Vec<Op>,
}

impl CdrCodec {
    /// Compile the operation list for `schema` on `profile`.
    pub fn new(schema: &Schema, profile: &ArchProfile) -> Result<CdrCodec, CdrError> {
        let layout = Layout::of(schema, profile)?;
        let mut ops = Vec::new();
        for (decl, field) in schema.fields().iter().zip(layout.fields()) {
            flatten(&decl.ty, &field.ty, field.offset, &mut ops)?;
        }
        Ok(CdrCodec {
            profile: profile.clone(),
            layout,
            ops,
        })
    }

    /// The native layout this codec reads/writes.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Marshal one native record into a CDR message (header + packed body),
    /// written in this machine's byte order ("reader makes right").
    pub fn marshal(&self, native: &[u8]) -> Result<Vec<u8>, CdrError> {
        let mut out = Vec::with_capacity(HEADER_SIZE + self.layout.size());
        self.marshal_into(native, &mut out)?;
        Ok(out)
    }

    /// [`CdrCodec::marshal`] into a reusable buffer (cleared first).
    pub fn marshal_into(&self, native: &[u8], out: &mut Vec<u8>) -> Result<(), CdrError> {
        out.clear();
        out.resize(HEADER_SIZE, 0);
        out[0] = match self.profile.endianness {
            Endianness::Big => 0,
            Endianness::Little => 1,
        };
        marshal_ops(&self.ops, native, 0, self.profile.endianness, out)?;
        Ok(())
    }

    /// Unmarshal a CDR message into a native record image for this machine.
    /// Always copies — the stream is packed, the native layout is padded.
    pub fn unmarshal(&self, wire: &[u8]) -> Result<Vec<u8>, CdrError> {
        let mut out = Vec::new();
        self.unmarshal_into(wire, &mut out)?;
        Ok(out)
    }

    /// [`CdrCodec::unmarshal`] into a reusable buffer (cleared first).
    pub fn unmarshal_into(&self, wire: &[u8], out: &mut Vec<u8>) -> Result<(), CdrError> {
        if wire.len() < HEADER_SIZE {
            return Err(CdrError::Truncated {
                context: "reading header".into(),
                need: HEADER_SIZE,
                have: wire.len(),
            });
        }
        let se = match wire[0] {
            0 => Endianness::Big,
            1 => Endianness::Little,
            other => return Err(CdrError::BadStream(format!("bad byte-order flag {other}"))),
        };
        out.clear();
        out.resize(self.layout.size(), 0);
        let body = &wire[HEADER_SIZE..];
        let mut cursor = 0usize;
        unmarshal_ops(
            &self.ops,
            body,
            &mut cursor,
            se,
            out,
            0,
            self.profile.endianness,
        )?;
        Ok(())
    }
}

/// Map a (logical, concrete) type pair to flat ops. Wire widths come from
/// the *logical* type (IDL-style, architecture-independent); native offsets
/// and widths from the concrete layout.
fn flatten(
    lty: &TypeDesc,
    cty: &ConcreteType,
    off: usize,
    ops: &mut Vec<Op>,
) -> Result<(), CdrError> {
    match (lty, cty) {
        (TypeDesc::Atom(atom), _) => {
            let (nw, kind) = match cty {
                ConcreteType::Int {
                    bytes,
                    signed: true,
                } => (*bytes, Kind::Signed),
                ConcreteType::Int {
                    bytes,
                    signed: false,
                } => (*bytes, Kind::Unsigned),
                ConcreteType::Float { bytes } => (*bytes, Kind::Float),
                ConcreteType::Char | ConcreteType::Bool => (1, Kind::Byte),
                other => return Err(CdrError::BadSchema(format!("atom resolved to {other:?}"))),
            };
            let ww = wire_width_of(*atom);
            ops.push(Op::Scalar { off, nw, ww, kind });
            Ok(())
        }
        (
            TypeDesc::Fixed(linner, n),
            ConcreteType::FixedArray {
                elem,
                count,
                stride,
            },
        ) => {
            debug_assert_eq!(n, count);
            for i in 0..*count {
                flatten(linner, elem, off + i * stride, ops)?;
            }
            Ok(())
        }
        (TypeDesc::Record(sub_schema), ConcreteType::Record(sub_layout)) => {
            for (decl, field) in sub_schema.fields().iter().zip(sub_layout.fields()) {
                flatten(&decl.ty, &field.ty, off + field.offset, ops)?;
            }
            Ok(())
        }
        (TypeDesc::String, ConcreteType::String) => {
            ops.push(Op::Str { off });
            Ok(())
        }
        (TypeDesc::Var(linner, _), ConcreteType::VarArray { elem, stride, .. }) => {
            let mut elem_ops = Vec::new();
            flatten(linner, elem, 0, &mut elem_ops)?;
            ops.push(Op::Seq {
                off,
                stride: *stride,
                elem: elem_ops,
            });
            Ok(())
        }
        (l, c) => Err(CdrError::BadSchema(format!(
            "mismatched types {l:?} vs {c:?}"
        ))),
    }
}

/// Architecture-independent wire width for a logical atom (IDL fixed types;
/// `long` maps to 64 bits to be lossless across LP64/ILP32, see crate docs).
fn wire_width_of(atom: pbio_types::schema::AtomType) -> u8 {
    use pbio_types::schema::AtomType as A;
    match atom {
        A::I8 | A::U8 | A::Char | A::Bool => 1,
        A::I16 | A::U16 | A::CShort | A::CUShort => 2,
        A::I32 | A::U32 | A::CInt | A::CUInt | A::F32 | A::CFloat => 4,
        A::I64 | A::U64 | A::CLong | A::CULong | A::F64 | A::CDouble => 8,
    }
}

fn align_out(out: &mut Vec<u8>, a: usize) -> usize {
    let body_len = out.len() - HEADER_SIZE;
    let aligned = round_up(body_len, a);
    out.resize(HEADER_SIZE + aligned, 0);
    aligned
}

fn marshal_ops(
    ops: &[Op],
    native: &[u8],
    base: usize,
    we: Endianness,
    out: &mut Vec<u8>,
) -> Result<(), CdrError> {
    for op in ops {
        match op {
            Op::Scalar { off, nw, ww, kind } => {
                let at = base + off;
                if at + *nw as usize > native.len() {
                    return Err(CdrError::Truncated {
                        context: "marshalling scalar".into(),
                        need: at + *nw as usize,
                        have: native.len(),
                    });
                }
                let pos = align_out(out, *ww as usize);
                out.resize(HEADER_SIZE + pos + *ww as usize, 0);
                let dst = HEADER_SIZE + pos;
                match kind {
                    Kind::Byte => out[dst] = native[at],
                    Kind::Signed => {
                        let v = prim::read_int(native, at, *nw, we);
                        prim::write_uint(out, dst, *ww, we, v as u64);
                    }
                    Kind::Unsigned => {
                        let v = prim::read_uint(native, at, *nw, we);
                        prim::write_uint(out, dst, *ww, we, v);
                    }
                    Kind::Float => {
                        let v = prim::read_float(native, at, *nw, we);
                        prim::write_float(out, dst, *ww, we, v);
                    }
                }
            }
            Op::Str { off } => {
                let (start, count) = read_descriptor(native, base + off, we)?;
                if start + count > native.len() {
                    return Err(CdrError::Truncated {
                        context: "marshalling string payload".into(),
                        need: start + count,
                        have: native.len(),
                    });
                }
                let pos = align_out(out, 4);
                out.resize(HEADER_SIZE + pos + 4, 0);
                // CORBA string length includes the terminating NUL.
                prim::write_uint(out, HEADER_SIZE + pos, 4, we, (count + 1) as u64);
                out.extend_from_slice(&native[start..start + count]);
                out.push(0);
            }
            Op::Seq { off, stride, elem } => {
                let (start, count) = read_descriptor(native, base + off, we)?;
                let pos = align_out(out, 4);
                out.resize(HEADER_SIZE + pos + 4, 0);
                prim::write_uint(out, HEADER_SIZE + pos, 4, we, count as u64);
                for i in 0..count {
                    marshal_ops(elem, native, start + i * stride, we, out)?;
                }
            }
        }
    }
    Ok(())
}

fn read_descriptor(native: &[u8], at: usize, e: Endianness) -> Result<(usize, usize), CdrError> {
    if at + 8 > native.len() {
        return Err(CdrError::Truncated {
            context: "reading var descriptor".into(),
            need: at + 8,
            have: native.len(),
        });
    }
    Ok((
        prim::read_uint(native, at, 4, e) as usize,
        prim::read_uint(native, at + 4, 4, e) as usize,
    ))
}

#[allow(clippy::too_many_arguments)]
fn unmarshal_ops(
    ops: &[Op],
    body: &[u8],
    cursor: &mut usize,
    se: Endianness,
    out: &mut Vec<u8>,
    base: usize,
    de: Endianness,
) -> Result<(), CdrError> {
    for op in ops {
        match op {
            Op::Scalar { off, nw, ww, kind } => {
                *cursor = round_up(*cursor, *ww as usize);
                if *cursor + *ww as usize > body.len() {
                    return Err(CdrError::Truncated {
                        context: "unmarshalling scalar".into(),
                        need: *cursor + *ww as usize,
                        have: body.len(),
                    });
                }
                let dst = base + off;
                match kind {
                    Kind::Byte => out[dst] = body[*cursor],
                    Kind::Signed => {
                        let v = prim::read_int(body, *cursor, *ww, se);
                        prim::write_uint(out, dst, *nw, de, v as u64);
                    }
                    Kind::Unsigned => {
                        let v = prim::read_uint(body, *cursor, *ww, se);
                        prim::write_uint(out, dst, *nw, de, v);
                    }
                    Kind::Float => {
                        let v = prim::read_float(body, *cursor, *ww, se);
                        prim::write_float(out, dst, *nw, de, v);
                    }
                }
                *cursor += *ww as usize;
            }
            Op::Str { off } => {
                *cursor = round_up(*cursor, 4);
                if *cursor + 4 > body.len() {
                    return Err(CdrError::Truncated {
                        context: "unmarshalling string length".into(),
                        need: *cursor + 4,
                        have: body.len(),
                    });
                }
                let len_with_nul = prim::read_uint(body, *cursor, 4, se) as usize;
                *cursor += 4;
                if len_with_nul == 0 || *cursor + len_with_nul > body.len() {
                    return Err(CdrError::BadStream("bad string length".into()));
                }
                let count = len_with_nul - 1;
                let start = append_var(out);
                let payload = &body[*cursor..*cursor + count];
                out.extend_from_slice(payload);
                write_native_descriptor(out, base + off, de, start, count);
                *cursor += len_with_nul;
            }
            Op::Seq { off, stride, elem } => {
                *cursor = round_up(*cursor, 4);
                if *cursor + 4 > body.len() {
                    return Err(CdrError::Truncated {
                        context: "unmarshalling sequence length".into(),
                        need: *cursor + 4,
                        have: body.len(),
                    });
                }
                let count = prim::read_uint(body, *cursor, 4, se) as usize;
                *cursor += 4;
                if count > body.len() {
                    return Err(CdrError::BadStream("absurd sequence length".into()));
                }
                let start = append_var(out);
                out.resize(start + count * stride, 0);
                for i in 0..count {
                    unmarshal_ops(elem, body, cursor, se, out, start + i * stride, de)?;
                }
                write_native_descriptor(out, base + off, de, start, count);
            }
        }
    }
    Ok(())
}

fn append_var(out: &mut Vec<u8>) -> usize {
    let start = round_up(out.len(), 8);
    out.resize(start, 0);
    start
}

fn write_native_descriptor(out: &mut [u8], at: usize, de: Endianness, start: usize, count: usize) {
    prim::write_uint(out, at, 4, de, start as u64);
    prim::write_uint(out, at + 4, 4, de, count as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbio_types::schema::{AtomType, FieldDecl};
    use pbio_types::value::{decode_native, encode_native, RecordValue, Value};

    /// Whether `codec` unmarshalling a message with this flag byte would
    /// need byte-swapping (false on homogeneous exchanges —
    /// reader-makes-right's one saving).
    fn needs_swap(codec: &CdrCodec, wire: &[u8]) -> bool {
        !wire.is_empty() && (wire[0] == 1) != (codec.profile.endianness == Endianness::Little)
    }

    fn mixed() -> Schema {
        Schema::new(
            "mixed",
            vec![
                FieldDecl::atom("tag", AtomType::Char),
                FieldDecl::atom("x", AtomType::CDouble),
                FieldDecl::atom("count", AtomType::CInt),
                FieldDecl::atom("id", AtomType::CLong),
                FieldDecl::new("v", TypeDesc::array(AtomType::CFloat, 3)),
            ],
        )
        .unwrap()
    }

    fn mixed_value() -> RecordValue {
        RecordValue::new()
            .with("tag", Value::Char(b'C'))
            .with("x", -0.125f64)
            .with("count", 77i32)
            .with("id", -1_000_000i64)
            .with("v", Value::Array(vec![1.0.into(), 2.0.into(), 3.0.into()]))
    }

    #[test]
    fn round_trips_across_all_profile_pairs() {
        let schema = mixed();
        let value = mixed_value();
        for sp in ArchProfile::all() {
            for dp in ArchProfile::all() {
                let sc = CdrCodec::new(&schema, sp).unwrap();
                let dc = CdrCodec::new(&schema, dp).unwrap();
                let native = encode_native(&value, sc.layout()).unwrap();
                let wire = sc.marshal(&native).unwrap();
                let out = dc.unmarshal(&wire).unwrap();
                let got = decode_native(&out, dc.layout()).unwrap();
                assert_eq!(got, value, "{} -> {}", sp.name, dp.name);
            }
        }
    }

    #[test]
    fn wire_is_packed_and_flagged() {
        let schema = mixed();
        let value = mixed_value();
        let be = CdrCodec::new(&schema, &ArchProfile::SPARC_V8).unwrap();
        let le = CdrCodec::new(&schema, &ArchProfile::X86).unwrap();
        let wb = be
            .marshal(&encode_native(&value, be.layout()).unwrap())
            .unwrap();
        let wl = le
            .marshal(&encode_native(&value, le.layout()).unwrap())
            .unwrap();
        assert_eq!(wb[0], 0, "BE flag");
        assert_eq!(wl[0], 1, "LE flag");
        // Same logical content, same packed body length regardless of sender.
        assert_eq!(wb.len(), wl.len());
        // CDR alignment: char pads to 8 before the double, so body is
        // 8(char+pad) + 8 + 4(int) + pad4 + 8(long) + 12(3 floats) = 44.
        assert_eq!(wb.len(), HEADER_SIZE + 44);
    }

    #[test]
    fn reader_makes_right_homogeneous_no_swap() {
        let schema = mixed();
        let a = CdrCodec::new(&schema, &ArchProfile::X86).unwrap();
        let b = CdrCodec::new(&schema, &ArchProfile::X86_64).unwrap();
        let native = encode_native(&mixed_value(), a.layout()).unwrap();
        let wire = a.marshal(&native).unwrap();
        assert!(!needs_swap(&b, &wire), "same byte order: no swapping");
        let c = CdrCodec::new(&schema, &ArchProfile::SPARC_V8).unwrap();
        assert!(needs_swap(&c, &wire), "cross order: reader swaps");
    }

    #[test]
    fn unmarshal_still_copies_when_homogeneous() {
        // The paper's point: even homogeneous CDR can't be zero-copy because
        // the packed body layout differs from the padded native layout.
        let schema = mixed();
        let codec = CdrCodec::new(&schema, &ArchProfile::X86).unwrap();
        let native = encode_native(&mixed_value(), codec.layout()).unwrap();
        let wire = codec.marshal(&native).unwrap();
        let body = &wire[HEADER_SIZE..];
        let common = body.len().min(native.len());
        assert!(
            body.len() != native.len() || body[..common] != native[..common],
            "packed body differs from padded native bytes"
        );
        let back = codec.unmarshal(&wire).unwrap();
        assert_eq!(back, native);
    }

    #[test]
    fn strings_and_sequences() {
        let schema = Schema::new(
            "v",
            vec![
                FieldDecl::atom("n", AtomType::CInt),
                FieldDecl::new(
                    "data",
                    TypeDesc::Var(Box::new(TypeDesc::Atom(AtomType::CDouble)), "n".into()),
                ),
                FieldDecl::new("name", TypeDesc::String),
            ],
        )
        .unwrap();
        let value = RecordValue::new()
            .with("n", 2i32)
            .with("data", Value::Array(vec![4.5.into(), (-4.5).into()]))
            .with("name", "corba");
        for (sp, dp) in [
            (&ArchProfile::SPARC_V8, &ArchProfile::X86),
            (&ArchProfile::X86_64, &ArchProfile::MIPS_N32),
        ] {
            let sc = CdrCodec::new(&schema, sp).unwrap();
            let dc = CdrCodec::new(&schema, dp).unwrap();
            let native = encode_native(&value, sc.layout()).unwrap();
            let wire = sc.marshal(&native).unwrap();
            let out = dc.unmarshal(&wire).unwrap();
            assert_eq!(decode_native(&out, dc.layout()).unwrap(), value);
        }
    }

    #[test]
    fn truncated_and_corrupt_streams_error() {
        let schema = mixed();
        let codec = CdrCodec::new(&schema, &ArchProfile::X86).unwrap();
        let native = encode_native(&mixed_value(), codec.layout()).unwrap();
        let wire = codec.marshal(&native).unwrap();
        assert!(matches!(
            codec.unmarshal(&wire[..2]),
            Err(CdrError::Truncated { .. })
        ));
        assert!(matches!(
            codec.unmarshal(&wire[..wire.len() - 2]),
            Err(CdrError::Truncated { .. })
        ));
        let mut bad = wire.clone();
        bad[0] = 9;
        assert!(matches!(codec.unmarshal(&bad), Err(CdrError::BadStream(_))));
    }

    #[test]
    fn marshal_into_reuses_buffer() {
        let schema = mixed();
        let codec = CdrCodec::new(&schema, &ArchProfile::X86).unwrap();
        let native = encode_native(&mixed_value(), codec.layout()).unwrap();
        let mut buf = Vec::with_capacity(4096);
        let p = buf.as_ptr();
        codec.marshal_into(&native, &mut buf).unwrap();
        assert_eq!(buf.as_ptr(), p);
        let mut out = Vec::with_capacity(4096);
        let q = out.as_ptr();
        codec.unmarshal_into(&buf, &mut out).unwrap();
        assert_eq!(out.as_ptr(), q);
        assert_eq!(out, native);
    }
}
