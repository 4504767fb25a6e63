//! Self-describing serialization of wire-format meta-information.
//!
//! PBIO messages carry format meta-information "somewhat like an XML-style
//! description of the message content" (§4.4): the complete field list of the
//! sender's native layout. This module defines that encoding. It is
//! deliberately byte-order-*independent* (fixed big-endian, like protocol
//! headers) and self-describing, so a receiver can interpret a format it has
//! never seen — the paper's *reflection* property.
//!
//! The encoding is hand-rolled rather than using `serde` because it *is* part
//! of the reproduced system: the cost of shipping format metadata once per
//! (format, connection) pair is part of PBIO's amortized-cost story.

use crate::arch::Endianness;
use crate::error::TypeError;
use crate::layout::{ConcreteType, Field, Layout};

/// Magic bytes opening a serialized format description.
const META_MAGIC: &[u8; 4] = b"PBIO";
/// Version byte of the metadata encoding.
const META_VERSION: u8 = 1;

const TAG_INT: u8 = 0x01;
const TAG_FLOAT: u8 = 0x02;
const TAG_CHAR: u8 = 0x03;
const TAG_BOOL: u8 = 0x04;
const TAG_FIXED_ARRAY: u8 = 0x05;
const TAG_RECORD: u8 = 0x06;
const TAG_STRING: u8 = 0x07;
const TAG_VAR_ARRAY: u8 = 0x08;

/// Serialize a [`Layout`] into a portable byte string.
pub fn serialize_layout(layout: &Layout) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + layout.fields().len() * 24);
    out.extend_from_slice(META_MAGIC);
    out.push(META_VERSION);
    put_layout(&mut out, layout);
    out
}

fn put_layout(out: &mut Vec<u8>, layout: &Layout) {
    put_str(out, layout.format_name());
    put_str(out, layout.arch_name());
    out.push(match layout.endianness() {
        Endianness::Big => 0,
        Endianness::Little => 1,
    });
    put_u32(out, layout.size() as u32);
    put_u32(out, layout.align() as u32);
    put_u16(out, layout.fields().len() as u16);
    for f in layout.fields() {
        put_str(out, &f.name);
        put_u32(out, f.offset as u32);
        put_u32(out, f.size as u32);
        put_type(out, &f.ty);
    }
}

fn put_type(out: &mut Vec<u8>, ty: &ConcreteType) {
    match ty {
        ConcreteType::Int { bytes, signed } => {
            out.push(TAG_INT);
            out.push(*bytes);
            out.push(*signed as u8);
        }
        ConcreteType::Float { bytes } => {
            out.push(TAG_FLOAT);
            out.push(*bytes);
        }
        ConcreteType::Char => out.push(TAG_CHAR),
        ConcreteType::Bool => out.push(TAG_BOOL),
        ConcreteType::FixedArray {
            elem,
            count,
            stride,
        } => {
            out.push(TAG_FIXED_ARRAY);
            put_u32(out, *count as u32);
            put_u32(out, *stride as u32);
            put_type(out, elem);
        }
        ConcreteType::Record(sub) => {
            out.push(TAG_RECORD);
            put_layout(out, sub);
        }
        ConcreteType::String => out.push(TAG_STRING),
        ConcreteType::VarArray {
            elem,
            stride,
            len_field,
        } => {
            out.push(TAG_VAR_ARRAY);
            put_u32(out, *stride as u32);
            put_str(out, len_field);
            put_type(out, elem);
        }
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= u16::MAX as usize);
    put_u16(out, s.len() as u16);
    out.extend_from_slice(s.as_bytes());
}

/// Deserialize a format description produced by [`serialize_layout`].
pub fn deserialize_layout(bytes: &[u8]) -> Result<Layout, TypeError> {
    let mut r = Reader { bytes, pos: 0 };
    let magic = r.take(4)?;
    if magic != META_MAGIC {
        return Err(TypeError::BadMeta("bad magic".into()));
    }
    let version = r.u8()?;
    if version != META_VERSION {
        return Err(TypeError::BadMeta(format!("unsupported version {version}")));
    }
    let layout = get_layout(&mut r)?;
    if r.pos != bytes.len() {
        return Err(TypeError::BadMeta(format!(
            "{} trailing bytes after format description",
            bytes.len() - r.pos
        )));
    }
    Ok(layout)
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], TypeError> {
        if self.pos + n > self.bytes.len() {
            return Err(TypeError::BadMeta("truncated metadata".into()));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, TypeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, TypeError> {
        let s = self.take(2)?;
        Ok(u16::from_be_bytes([s[0], s[1]]))
    }

    fn u32(&mut self) -> Result<u32, TypeError> {
        let s = self.take(4)?;
        Ok(u32::from_be_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn string(&mut self) -> Result<String, TypeError> {
        let len = self.u16()? as usize;
        let s = self.take(len)?;
        String::from_utf8(s.to_vec()).map_err(|_| TypeError::BadMeta("non-UTF-8 name".into()))
    }
}

fn get_layout(r: &mut Reader<'_>) -> Result<Layout, TypeError> {
    let format_name = r.string()?;
    let arch_name = r.string()?;
    let endianness = match r.u8()? {
        0 => Endianness::Big,
        1 => Endianness::Little,
        other => return Err(TypeError::BadMeta(format!("bad endianness byte {other}"))),
    };
    let size = r.u32()? as usize;
    let align = r.u32()? as usize;
    if align == 0 {
        return Err(TypeError::BadMeta("zero alignment".into()));
    }
    let nfields = r.u16()? as usize;
    let mut fields = Vec::with_capacity(nfields);
    for _ in 0..nfields {
        let name = r.string()?;
        let offset = r.u32()? as usize;
        let fsize = r.u32()? as usize;
        let ty = get_type(r)?;
        if offset + fsize > size {
            return Err(TypeError::BadMeta(format!(
                "field {name:?} ({offset}+{fsize}) exceeds record size {size}"
            )));
        }
        fields.push(Field {
            name,
            ty,
            offset,
            size: fsize,
        });
    }
    Ok(Layout::from_parts(
        format_name,
        arch_name,
        endianness,
        fields,
        size,
        align,
    ))
}

fn get_type(r: &mut Reader<'_>) -> Result<ConcreteType, TypeError> {
    Ok(match r.u8()? {
        TAG_INT => {
            let bytes = r.u8()?;
            if !matches!(bytes, 1 | 2 | 4 | 8) {
                return Err(TypeError::BadMeta(format!("bad int width {bytes}")));
            }
            let signed = match r.u8()? {
                0 => false,
                1 => true,
                other => return Err(TypeError::BadMeta(format!("bad signedness {other}"))),
            };
            ConcreteType::Int { bytes, signed }
        }
        TAG_FLOAT => {
            let bytes = r.u8()?;
            if !matches!(bytes, 4 | 8) {
                return Err(TypeError::BadMeta(format!("bad float width {bytes}")));
            }
            ConcreteType::Float { bytes }
        }
        TAG_CHAR => ConcreteType::Char,
        TAG_BOOL => ConcreteType::Bool,
        TAG_FIXED_ARRAY => {
            let count = r.u32()? as usize;
            let stride = r.u32()? as usize;
            let elem = get_type(r)?;
            if stride < elem.fixed_size() {
                return Err(TypeError::BadMeta(
                    "array stride smaller than element".into(),
                ));
            }
            ConcreteType::FixedArray {
                elem: Box::new(elem),
                count,
                stride,
            }
        }
        TAG_RECORD => ConcreteType::Record(std::sync::Arc::new(get_layout(r)?)),
        TAG_STRING => ConcreteType::String,
        TAG_VAR_ARRAY => {
            let stride = r.u32()? as usize;
            let len_field = r.string()?;
            let elem = get_type(r)?;
            if stride < elem.fixed_size() {
                return Err(TypeError::BadMeta(
                    "var-array stride smaller than element".into(),
                ));
            }
            ConcreteType::VarArray {
                elem: Box::new(elem),
                stride,
                len_field,
            }
        }
        other => return Err(TypeError::BadMeta(format!("unknown type tag {other:#x}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::ArchProfile;
    use crate::schema::{AtomType, FieldDecl, Schema, TypeDesc};

    fn rich_schema() -> Schema {
        let inner = std::sync::Arc::new(
            Schema::new(
                "point",
                vec![
                    FieldDecl::atom("x", AtomType::CDouble),
                    FieldDecl::atom("y", AtomType::CDouble),
                ],
            )
            .unwrap(),
        );
        Schema::new(
            "rich",
            vec![
                FieldDecl::atom("tag", AtomType::Char),
                FieldDecl::atom("n", AtomType::CInt),
                FieldDecl::new("pts", TypeDesc::Record(inner)),
                FieldDecl::new("m", TypeDesc::array(AtomType::CFloat, 4)),
                FieldDecl::new(
                    "samples",
                    TypeDesc::Var(Box::new(TypeDesc::Atom(AtomType::CDouble)), "n".into()),
                ),
                FieldDecl::new("label", TypeDesc::String),
            ],
        )
        .unwrap()
    }

    #[test]
    fn round_trip_all_profiles() {
        let schema = rich_schema();
        for p in ArchProfile::all() {
            let layout = Layout::of(&schema, p).unwrap();
            let bytes = serialize_layout(&layout);
            let back = deserialize_layout(&bytes).unwrap();
            assert_eq!(back, layout, "profile {}", p.name);
        }
    }

    #[test]
    fn rejects_bad_magic() {
        let layout = Layout::of(&rich_schema(), &ArchProfile::X86).unwrap();
        let mut bytes = serialize_layout(&layout);
        bytes[0] = b'X';
        assert!(matches!(
            deserialize_layout(&bytes),
            Err(TypeError::BadMeta(_))
        ));
    }

    #[test]
    fn rejects_bad_version() {
        let layout = Layout::of(&rich_schema(), &ArchProfile::X86).unwrap();
        let mut bytes = serialize_layout(&layout);
        bytes[4] = 99;
        assert!(matches!(
            deserialize_layout(&bytes),
            Err(TypeError::BadMeta(_))
        ));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let layout = Layout::of(&rich_schema(), &ArchProfile::SPARC_V8).unwrap();
        let bytes = serialize_layout(&layout);
        // Every strict prefix must fail cleanly, never panic.
        for cut in 0..bytes.len() {
            assert!(
                deserialize_layout(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes unexpectedly parsed"
            );
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let layout = Layout::of(&rich_schema(), &ArchProfile::X86).unwrap();
        let mut bytes = serialize_layout(&layout);
        bytes.push(0);
        assert!(matches!(
            deserialize_layout(&bytes),
            Err(TypeError::BadMeta(_))
        ));
    }

    #[test]
    fn rejects_field_exceeding_record() {
        let schema = Schema::new("one", vec![FieldDecl::atom("v", AtomType::CInt)]).unwrap();
        let layout = Layout::of(&schema, &ArchProfile::X86).unwrap();
        let mut bytes = serialize_layout(&layout);
        // The record size field is at offset 4(magic+ver) + 2+3("one") + 2+3("x86") + 1(endian).
        let size_off = 5 + 2 + 3 + 2 + 3 + 1;
        bytes[size_off..size_off + 4].copy_from_slice(&1u32.to_be_bytes());
        assert!(matches!(
            deserialize_layout(&bytes),
            Err(TypeError::BadMeta(_))
        ));
    }

    #[test]
    fn metadata_is_compact() {
        // The paper's pitch: meta-information once per format, not per record.
        // Sanity-check it stays small relative to records.
        let layout = Layout::of(&rich_schema(), &ArchProfile::SPARC_V8).unwrap();
        let bytes = serialize_layout(&layout);
        assert!(bytes.len() < 256, "meta is {} bytes", bytes.len());
    }
}
