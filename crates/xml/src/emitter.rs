//! Binary record → XML text.
//!
//! This is the sending side of the paper's XML baseline: "the processing
//! necessary to convert the data from binary to string form and to copy the
//! element begin/end blocks into the output string" (§4.2). Every scalar is
//! formatted to ASCII; the resulting document is typically 6-8× the binary
//! record size.

use pbio_types::arch::Endianness;
use pbio_types::error::TypeError;
use pbio_types::layout::{ConcreteType, Layout};
use pbio_types::prim;

use crate::parser::escape_into;

/// Element name used for anonymous array members.
const ELEM_TAG: &str = "e";

/// Encode a native record image into an XML document string.
pub fn emit_record(layout: &Layout, native: &[u8]) -> Result<String, TypeError> {
    let mut out = String::with_capacity(native.len() * 6);
    emit_into(layout, native, &mut out)?;
    Ok(out)
}

/// [`emit_record`] appending to a reusable string buffer.
pub fn emit_into(layout: &Layout, native: &[u8], out: &mut String) -> Result<(), TypeError> {
    let name = sanitize(layout.format_name());
    out.push('<');
    out.push_str(&name);
    out.push('>');
    emit_fields(layout, native, 0, out)?;
    out.push_str("</");
    out.push_str(&name);
    out.push('>');
    Ok(())
}

fn sanitize(name: &str) -> String {
    // Format names become element names; keep them XML-safe.
    let mut s: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if s.is_empty() || s.chars().next().unwrap().is_ascii_digit() {
        s.insert(0, '_');
    }
    s
}

fn emit_fields(
    layout: &Layout,
    native: &[u8],
    base: usize,
    out: &mut String,
) -> Result<(), TypeError> {
    let endian = layout.endianness();
    for f in layout.fields() {
        let name = sanitize(&f.name);
        out.push('<');
        out.push_str(&name);
        out.push('>');
        emit_value(&f.ty, native, base + f.offset, endian, out)?;
        out.push_str("</");
        out.push_str(&name);
        out.push('>');
    }
    Ok(())
}

fn emit_value(
    ty: &ConcreteType,
    native: &[u8],
    at: usize,
    endian: Endianness,
    out: &mut String,
) -> Result<(), TypeError> {
    let need = match ty {
        ConcreteType::String | ConcreteType::VarArray { .. } => 8,
        other => other.fixed_size(),
    };
    if at + need > native.len() {
        return Err(TypeError::Truncated {
            context: format!("emitting XML at offset {at}"),
        });
    }
    match ty {
        ConcreteType::Int {
            bytes,
            signed: true,
        } => {
            let v = prim::read_int(native, at, *bytes, endian);
            push_i64(out, v);
        }
        ConcreteType::Int {
            bytes,
            signed: false,
        } => {
            let v = prim::read_uint(native, at, *bytes, endian);
            out.push_str(&v.to_string());
        }
        ConcreteType::Float { bytes } => {
            let v = prim::read_float(native, at, *bytes, endian);
            // `{}` is Rust's shortest round-trip formatting.
            out.push_str(&format!("{v}"));
        }
        ConcreteType::Char => {
            let c = native[at] as char;
            let mut buf = [0u8; 4];
            escape_into(c.encode_utf8(&mut buf), out);
        }
        ConcreteType::Bool => out.push_str(if native[at] != 0 { "true" } else { "false" }),
        ConcreteType::FixedArray {
            elem,
            count,
            stride,
        } => {
            for i in 0..*count {
                out.push('<');
                out.push_str(ELEM_TAG);
                out.push('>');
                emit_value(elem, native, at + i * stride, endian, out)?;
                out.push_str("</");
                out.push_str(ELEM_TAG);
                out.push('>');
            }
        }
        ConcreteType::Record(sub) => emit_fields(sub, native, at, out)?,
        ConcreteType::String => {
            let start = prim::read_uint(native, at, 4, endian) as usize;
            let count = prim::read_uint(native, at + 4, 4, endian) as usize;
            if start + count > native.len() {
                return Err(TypeError::Truncated {
                    context: "emitting string payload".into(),
                });
            }
            let s = std::str::from_utf8(&native[start..start + count])
                .map_err(|_| TypeError::BadMeta("string payload is not UTF-8".into()))?;
            escape_into(s, out);
        }
        ConcreteType::VarArray { elem, stride, .. } => {
            let start = prim::read_uint(native, at, 4, endian) as usize;
            let count = prim::read_uint(native, at + 4, 4, endian) as usize;
            if start + count * stride > native.len() {
                return Err(TypeError::Truncated {
                    context: "emitting var array payload".into(),
                });
            }
            for i in 0..count {
                out.push('<');
                out.push_str(ELEM_TAG);
                out.push('>');
                emit_value(elem, native, start + i * stride, endian, out)?;
                out.push_str("</");
                out.push_str(ELEM_TAG);
                out.push('>');
            }
        }
    }
    Ok(())
}

fn push_i64(out: &mut String, v: i64) {
    out.push_str(&v.to_string());
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbio_types::arch::ArchProfile;
    use pbio_types::schema::{AtomType, FieldDecl, Schema, TypeDesc};
    use pbio_types::value::{encode_native, RecordValue, Value};

    fn schema() -> Schema {
        Schema::new(
            "sample",
            vec![
                FieldDecl::atom("n", AtomType::CInt),
                FieldDecl::atom("x", AtomType::CDouble),
                FieldDecl::atom("c", AtomType::Char),
                FieldDecl::atom("ok", AtomType::Bool),
                FieldDecl::new("v", TypeDesc::array(AtomType::CFloat, 2)),
                FieldDecl::new("name", TypeDesc::String),
            ],
        )
        .unwrap()
    }

    #[test]
    fn emits_expected_document() {
        let layout = pbio_types::layout::Layout::of(&schema(), &ArchProfile::SPARC_V8).unwrap();
        let value = RecordValue::new()
            .with("n", -3i32)
            .with("x", 1.5f64)
            .with("c", Value::Char(b'<'))
            .with("ok", true)
            .with("v", Value::Array(vec![0.5.into(), 2.0.into()]))
            .with("name", "a&b");
        let native = encode_native(&value, &layout).unwrap();
        let xml = emit_record(&layout, &native).unwrap();
        assert_eq!(
            xml,
            "<sample><n>-3</n><x>1.5</x><c>&lt;</c><ok>true</ok>\
             <v><e>0.5</e><e>2</e></v><name>a&amp;b</name></sample>"
        );
    }

    #[test]
    fn expansion_factor_is_realistic() {
        // A numeric-heavy record should expand severalfold (paper: 6-8x).
        let s = Schema::new(
            "w",
            vec![FieldDecl::new("d", TypeDesc::array(AtomType::CDouble, 100))],
        )
        .unwrap();
        let layout = pbio_types::layout::Layout::of(&s, &ArchProfile::X86).unwrap();
        let value = RecordValue::new().with(
            "d",
            Value::Array(
                (0..100)
                    .map(|i| Value::F64(i as f64 * 0.123456789 + 1000.0))
                    .collect(),
            ),
        );
        let native = encode_native(&value, &layout).unwrap();
        let xml = emit_record(&layout, &native).unwrap();
        let factor = xml.len() as f64 / native.len() as f64;
        assert!(factor > 2.0, "factor {factor}");
    }

    #[test]
    fn identical_text_from_any_architecture() {
        // The document depends only on the values, not the sender's arch.
        let value = RecordValue::new()
            .with("n", 42i32)
            .with("x", -2.25f64)
            .with("c", Value::Char(b'z'))
            .with("ok", false)
            .with("v", Value::Array(vec![1.0.into(), 2.0.into()]))
            .with("name", "same");
        let mut docs = Vec::new();
        for p in ArchProfile::all() {
            let layout = pbio_types::layout::Layout::of(&schema(), p).unwrap();
            let native = encode_native(&value, &layout).unwrap();
            docs.push(emit_record(&layout, &native).unwrap());
        }
        assert!(docs.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn truncated_native_errors() {
        let layout = pbio_types::layout::Layout::of(&schema(), &ArchProfile::X86).unwrap();
        assert!(emit_record(&layout, &[0u8; 4]).is_err());
    }

    #[test]
    fn sanitizes_awkward_format_names() {
        let s = Schema::new("2 bad name!", vec![FieldDecl::atom("a", AtomType::CInt)]).unwrap();
        let layout = pbio_types::layout::Layout::of(&s, &ArchProfile::X86).unwrap();
        let native = vec![0u8; layout.size()];
        let xml = emit_record(&layout, &native).unwrap();
        assert!(xml.starts_with("<_2_bad_name_>"));
    }
}
