//! The C-compiler layout engine.
//!
//! Given a logical [`Schema`] and an [`ArchProfile`], this module produces a
//! [`Layout`]: the concrete offsets, sizes, strides and padding that the
//! profile's C compiler would have given a struct with those fields. A
//! `Layout` is precisely the *format meta-information* that PBIO sends along
//! with NDR data: everything a receiver needs to interpret bytes written in
//! the sender's native representation.
//!
//! Variable-length fields (strings and `Var` arrays) cannot travel as raw
//! pointers, so — as in PBIO — they occupy an 8-byte descriptor
//! `{u32 offset, u32 count}` in the fixed part (offset relative to the start
//! of the record image, count in elements/bytes), with the payload packed in
//! a *variable region* appended after the fixed part.

use std::sync::Arc;

use crate::arch::{ArchProfile, Endianness};
use crate::error::TypeError;
use crate::schema::{AtomType, FieldDecl, Schema, TypeDesc};

/// Size in bytes of the `{u32 offset, u32 count}` descriptor that represents
/// a variable-length field inside the fixed part of a record image.
pub const VAR_DESCRIPTOR_SIZE: usize = 8;
/// Alignment of a variable-length field descriptor.
const VAR_DESCRIPTOR_ALIGN: usize = 4;

/// A concrete (architecture-resolved) field type. All sizes are final; no
/// architecture information is needed to interpret a buffer beyond what this
/// type and the record's [`Endianness`] carry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ConcreteType {
    /// Integer of 1, 2, 4 or 8 bytes.
    Int {
        /// Width in bytes.
        bytes: u8,
        /// Two's-complement signedness.
        signed: bool,
    },
    /// IEEE-754 float of 4 or 8 bytes.
    Float {
        /// Width in bytes.
        bytes: u8,
    },
    /// One text character (1 byte).
    Char,
    /// Boolean stored as one byte (0 or 1).
    Bool,
    /// Fixed-length array.
    FixedArray {
        /// Element type.
        elem: Box<ConcreteType>,
        /// Number of elements.
        count: usize,
        /// Distance in bytes between consecutive elements.
        stride: usize,
    },
    /// Nested record; offsets inside are relative to the nested record start.
    Record(Arc<Layout>),
    /// Variable-length string; fixed part holds a `{offset,count}` descriptor,
    /// count is the byte length.
    String,
    /// Variable-length array; fixed part holds a `{offset,count}` descriptor.
    VarArray {
        /// Element type (must be fixed-size).
        elem: Box<ConcreteType>,
        /// Distance in bytes between consecutive elements in the var region.
        stride: usize,
        /// Name of the integer field that carries the element count on the
        /// sending side (kept for cross-checks; the descriptor count is
        /// authoritative when decoding).
        len_field: String,
    },
}

impl ConcreteType {
    /// Size in bytes this type occupies in the *fixed part* of a record.
    pub fn fixed_size(&self) -> usize {
        match self {
            ConcreteType::Int { bytes, .. } => *bytes as usize,
            ConcreteType::Float { bytes } => *bytes as usize,
            ConcreteType::Char | ConcreteType::Bool => 1,
            ConcreteType::FixedArray { count, stride, .. } => count * stride,
            ConcreteType::Record(layout) => layout.size(),
            ConcreteType::String | ConcreteType::VarArray { .. } => VAR_DESCRIPTOR_SIZE,
        }
    }

    /// True if the type contains a string or variable-length array anywhere.
    pub fn has_variable_part(&self) -> bool {
        match self {
            ConcreteType::Int { .. }
            | ConcreteType::Float { .. }
            | ConcreteType::Char
            | ConcreteType::Bool => false,
            ConcreteType::String | ConcreteType::VarArray { .. } => true,
            ConcreteType::FixedArray { elem, .. } => elem.has_variable_part(),
            ConcreteType::Record(layout) => !layout.is_fixed_layout(),
        }
    }

    /// A short human-readable rendering, e.g. `i4`, `f8`, `f8[3]`.
    pub fn describe(&self) -> String {
        match self {
            ConcreteType::Int {
                bytes,
                signed: true,
            } => format!("i{bytes}"),
            ConcreteType::Int {
                bytes,
                signed: false,
            } => format!("u{bytes}"),
            ConcreteType::Float { bytes } => format!("f{bytes}"),
            ConcreteType::Char => "char".into(),
            ConcreteType::Bool => "bool".into(),
            ConcreteType::FixedArray { elem, count, .. } => {
                format!("{}[{count}]", elem.describe())
            }
            ConcreteType::Record(l) => format!("record {}", l.format_name()),
            ConcreteType::String => "string".into(),
            ConcreteType::VarArray {
                elem, len_field, ..
            } => {
                format!("{}[{len_field}]", elem.describe())
            }
        }
    }
}

/// One concretely laid-out field.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Field {
    /// Field name (the matching key between sender and receiver).
    pub name: String,
    /// Concrete type.
    pub ty: ConcreteType,
    /// Byte offset from the start of the record's fixed part.
    pub offset: usize,
    /// Size in the fixed part (descriptor size for variable fields).
    pub size: usize,
}

/// A concrete record layout for one architecture — PBIO's wire-format
/// meta-information.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Layout {
    format_name: String,
    arch_name: String,
    endianness: Endianness,
    fields: Vec<Field>,
    size: usize,
    align: usize,
}

impl Layout {
    /// Lay out `schema` as the C compiler of `profile` would.
    pub fn of(schema: &Schema, profile: &ArchProfile) -> Result<Layout, TypeError> {
        let mut fields = Vec::with_capacity(schema.fields().len());
        let mut offset = 0usize;
        let mut max_align = 1usize;
        for decl in schema.fields() {
            let (ty, align) = Self::resolve(decl, &decl.ty, profile)?;
            let size = ty.fixed_size();
            offset = round_up(offset, align);
            fields.push(Field {
                name: decl.name.clone(),
                ty,
                offset,
                size,
            });
            offset += size;
            max_align = max_align.max(align);
        }
        let size = round_up(offset.max(1), max_align);
        Ok(Layout {
            format_name: schema.name().to_owned(),
            arch_name: profile.name.to_owned(),
            endianness: profile.endianness,
            fields,
            size,
            align: max_align,
        })
    }

    fn resolve(
        decl: &FieldDecl,
        ty: &TypeDesc,
        profile: &ArchProfile,
    ) -> Result<(ConcreteType, usize), TypeError> {
        match ty {
            TypeDesc::Atom(atom) => {
                let concrete = resolve_atom(*atom, profile)?;
                let align = match &concrete {
                    ConcreteType::Char | ConcreteType::Bool => 1,
                    ConcreteType::Int { bytes, .. } | ConcreteType::Float { bytes } => {
                        profile.scalar_align(*bytes)
                    }
                    _ => unreachable!("atoms resolve to scalars"),
                };
                Ok((concrete, align))
            }
            TypeDesc::Fixed(inner, count) => {
                let (elem, align) = Self::resolve(decl, inner, profile)?;
                let stride = round_up(elem.fixed_size(), align);
                Ok((
                    ConcreteType::FixedArray {
                        elem: Box::new(elem),
                        count: *count,
                        stride,
                    },
                    align,
                ))
            }
            TypeDesc::Var(inner, len_field) => {
                let (elem, elem_align) = Self::resolve(decl, inner, profile)?;
                if elem.has_variable_part() {
                    return Err(TypeError::BadTypeString {
                        input: decl.name.clone(),
                        reason: "variable-length elements inside a var array are unsupported"
                            .into(),
                    });
                }
                let stride = round_up(elem.fixed_size(), elem_align);
                Ok((
                    ConcreteType::VarArray {
                        elem: Box::new(elem),
                        stride,
                        len_field: len_field.clone(),
                    },
                    VAR_DESCRIPTOR_ALIGN,
                ))
            }
            TypeDesc::String => Ok((ConcreteType::String, VAR_DESCRIPTOR_ALIGN)),
            TypeDesc::Record(sub) => {
                let sub_layout = Layout::of(sub, profile)?;
                let align = sub_layout.align;
                Ok((ConcreteType::Record(Arc::new(sub_layout)), align))
            }
        }
    }

    /// Reassemble a layout from already-validated parts (used by metadata
    /// deserialization; offsets and sizes are trusted as transmitted, exactly
    /// as PBIO trusts the sender's format description).
    pub(crate) fn from_parts(
        format_name: String,
        arch_name: String,
        endianness: Endianness,
        fields: Vec<Field>,
        size: usize,
        align: usize,
    ) -> Layout {
        Layout {
            format_name,
            arch_name,
            endianness,
            fields,
            size,
            align,
        }
    }

    /// The record/format name.
    pub fn format_name(&self) -> &str {
        &self.format_name
    }

    /// Name of the architecture profile this layout was produced for.
    pub fn arch_name(&self) -> &str {
        &self.arch_name
    }

    /// Byte order of all multi-byte scalars in a record image.
    pub fn endianness(&self) -> Endianness {
        self.endianness
    }

    /// The laid-out fields in declaration order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Find a field by name.
    pub fn field(&self, name: &str) -> Option<&Field> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// Size of the fixed part, including trailing padding.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Struct alignment (max field alignment).
    pub fn align(&self) -> usize {
        self.align
    }

    /// True if the record has no variable-length parts; such records are
    /// transmitted by PBIO as a single verbatim copy of sender memory.
    pub fn is_fixed_layout(&self) -> bool {
        self.fields.iter().all(|f| !f.ty.has_variable_part())
    }

    /// Total bytes of compiler-inserted padding in the fixed part (gaps
    /// between fields plus trailing padding). This is the "contiguity
    /// mismatch" of §4.3 that forces packed wire formats to copy.
    pub fn padding_bytes(&self) -> usize {
        let mut used = 0usize;
        for f in &self.fields {
            used += f.size;
        }
        self.size - used
    }

    /// True if records laid out by `self` and `other` are bit-for-bit
    /// interchangeable: same byte order and identical field names, types,
    /// offsets and total size. When this holds for sender and receiver, PBIO
    /// uses the received buffer directly (zero-copy).
    pub fn wire_identical(&self, other: &Layout) -> bool {
        self.endianness == other.endianness
            && self.size == other.size
            && self.fields.len() == other.fields.len()
            && self.fields.iter().zip(&other.fields).all(|(a, b)| {
                a.name == b.name && a.offset == b.offset && types_identical(&a.ty, &b.ty)
            })
    }

    /// True if a record written with wire layout `wire` can be used
    /// *in place* by a receiver expecting `self`: every expected field
    /// exists in the wire record with an identical type at an identical
    /// offset, byte orders match, and the wire record is at least as large.
    ///
    /// This is weaker than [`Layout::wire_identical`]: the wire record may
    /// carry *extra* fields, as long as they live past (or between) the
    /// expected ones without disturbing them. It is what makes the paper's
    /// §4.4 advice real: a sender that *appends* new fields leaves old
    /// homogeneous receivers on the zero-copy path, while inserting fields
    /// up front shifts every offset and forces a conversion (Figure 7).
    pub fn zero_copy_prefix_of(&self, wire: &Layout) -> bool {
        self.endianness == wire.endianness
            && self.size <= wire.size
            && self.fields.iter().all(|want| {
                wire.field(&want.name).is_some_and(|have| {
                    have.offset == want.offset && types_identical(&have.ty, &want.ty)
                })
            })
    }
}

fn types_identical(a: &ConcreteType, b: &ConcreteType) -> bool {
    match (a, b) {
        (
            ConcreteType::Int {
                bytes: ab,
                signed: asg,
            },
            ConcreteType::Int {
                bytes: bb,
                signed: bsg,
            },
        ) => ab == bb && asg == bsg,
        (ConcreteType::Float { bytes: ab }, ConcreteType::Float { bytes: bb }) => ab == bb,
        (ConcreteType::Char, ConcreteType::Char) | (ConcreteType::Bool, ConcreteType::Bool) => true,
        (
            ConcreteType::FixedArray {
                elem: ae,
                count: ac,
                stride: ast,
            },
            ConcreteType::FixedArray {
                elem: be,
                count: bc,
                stride: bst,
            },
        ) => ac == bc && ast == bst && types_identical(ae, be),
        (ConcreteType::Record(al), ConcreteType::Record(bl)) => al.wire_identical(bl),
        (ConcreteType::String, ConcreteType::String) => true,
        (
            ConcreteType::VarArray {
                elem: ae,
                stride: ast,
                ..
            },
            ConcreteType::VarArray {
                elem: be,
                stride: bst,
                ..
            },
        ) => ast == bst && types_identical(ae, be),
        _ => false,
    }
}

/// Round `n` up to the next multiple of `align` (`align` must be a power of
/// two or any positive integer; this uses the general formula).
pub fn round_up(n: usize, align: usize) -> usize {
    debug_assert!(align > 0);
    n.div_ceil(align) * align
}

/// Resolve a logical atom to its concrete width and kind on `profile`.
pub fn resolve_atom(atom: AtomType, profile: &ArchProfile) -> Result<ConcreteType, TypeError> {
    let t = match atom {
        AtomType::I8 => ConcreteType::Int {
            bytes: 1,
            signed: true,
        },
        AtomType::I16 => ConcreteType::Int {
            bytes: 2,
            signed: true,
        },
        AtomType::I32 => ConcreteType::Int {
            bytes: 4,
            signed: true,
        },
        AtomType::I64 => ConcreteType::Int {
            bytes: 8,
            signed: true,
        },
        AtomType::U8 => ConcreteType::Int {
            bytes: 1,
            signed: false,
        },
        AtomType::U16 => ConcreteType::Int {
            bytes: 2,
            signed: false,
        },
        AtomType::U32 => ConcreteType::Int {
            bytes: 4,
            signed: false,
        },
        AtomType::U64 => ConcreteType::Int {
            bytes: 8,
            signed: false,
        },
        AtomType::F32 | AtomType::CFloat => ConcreteType::Float { bytes: 4 },
        AtomType::F64 | AtomType::CDouble => ConcreteType::Float { bytes: 8 },
        AtomType::Char => ConcreteType::Char,
        AtomType::Bool => ConcreteType::Bool,
        AtomType::CShort => ConcreteType::Int {
            bytes: profile.short_bytes,
            signed: true,
        },
        AtomType::CUShort => ConcreteType::Int {
            bytes: profile.short_bytes,
            signed: false,
        },
        AtomType::CInt => ConcreteType::Int {
            bytes: profile.int_bytes,
            signed: true,
        },
        AtomType::CUInt => ConcreteType::Int {
            bytes: profile.int_bytes,
            signed: false,
        },
        AtomType::CLong => ConcreteType::Int {
            bytes: profile.long_bytes,
            signed: true,
        },
        AtomType::CULong => ConcreteType::Int {
            bytes: profile.long_bytes,
            signed: false,
        },
    };
    if let ConcreteType::Int { bytes, .. } | ConcreteType::Float { bytes } = &t {
        if !matches!(bytes, 1 | 2 | 4 | 8) {
            return Err(TypeError::BadAtomSize(*bytes));
        }
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::FieldDecl;

    fn mixed_schema() -> Schema {
        // struct { char tag; double x; int count; short flag; long id; }
        Schema::new(
            "mixed",
            vec![
                FieldDecl::atom("tag", AtomType::Char),
                FieldDecl::atom("x", AtomType::CDouble),
                FieldDecl::atom("count", AtomType::CInt),
                FieldDecl::atom("flag", AtomType::CShort),
                FieldDecl::atom("id", AtomType::CLong),
            ],
        )
        .unwrap()
    }

    #[test]
    fn sparc_v8_layout_natural_alignment() {
        let l = Layout::of(&mixed_schema(), &ArchProfile::SPARC_V8).unwrap();
        // char @0, pad to 8, double @8..16, int @16..20, short @20..22,
        // pad to 24, long(4B!) @24..28 -> wait, long is 4B on v8, align 4:
        // short @20..22, pad to 24? No: long align 4 -> offset 24 is wrong,
        // 22 rounds to 24? 22 -> 24 (align 4). size 28 rounded to align 8 -> 32.
        let offs: Vec<usize> = l.fields().iter().map(|f| f.offset).collect();
        assert_eq!(offs, vec![0, 8, 16, 20, 24]);
        assert_eq!(l.size(), 32);
        assert_eq!(l.align(), 8);
        assert_eq!(l.endianness(), Endianness::Big);
    }

    #[test]
    fn x86_layout_caps_double_alignment() {
        let l = Layout::of(&mixed_schema(), &ArchProfile::X86).unwrap();
        // i386: double aligned to 4 -> char @0, pad to 4, double @4..12,
        // int @12..16, short @16..18, pad to 20, long @20..24; align 4 -> 24.
        let offs: Vec<usize> = l.fields().iter().map(|f| f.offset).collect();
        assert_eq!(offs, vec![0, 4, 12, 16, 20]);
        assert_eq!(l.size(), 24);
        assert_eq!(l.align(), 4);
        assert_eq!(l.endianness(), Endianness::Little);
    }

    #[test]
    fn lp64_long_is_eight_bytes() {
        let l = Layout::of(&mixed_schema(), &ArchProfile::SPARC_V9_64).unwrap();
        let id = l.field("id").unwrap();
        assert_eq!(id.size, 8);
        // char @0 pad8, double @8, int @16, short @20, pad to 24, long @24..32.
        assert_eq!(id.offset, 24);
        assert_eq!(l.size(), 32);
    }

    #[test]
    fn padding_is_reported() {
        let l = Layout::of(&mixed_schema(), &ArchProfile::SPARC_V8).unwrap();
        // used = 1+8+4+2+4 = 19; size 32 -> padding 13.
        assert_eq!(l.padding_bytes(), 13);
    }

    #[test]
    fn fixed_array_stride() {
        let s = Schema::new(
            "arr",
            vec![FieldDecl::new("v", TypeDesc::array(AtomType::CDouble, 5))],
        )
        .unwrap();
        let l = Layout::of(&s, &ArchProfile::SPARC_V8).unwrap();
        match &l.fields()[0].ty {
            ConcreteType::FixedArray { count, stride, .. } => {
                assert_eq!(*count, 5);
                assert_eq!(*stride, 8);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(l.size(), 40);
    }

    #[test]
    fn nested_record_layout() {
        let inner = Schema::new(
            "inner",
            vec![
                FieldDecl::atom("a", AtomType::Char),
                FieldDecl::atom("b", AtomType::CDouble),
            ],
        )
        .unwrap();
        let outer = Schema::new(
            "outer",
            vec![
                FieldDecl::atom("pre", AtomType::Char),
                FieldDecl::new("in", TypeDesc::Record(std::sync::Arc::new(inner))),
            ],
        )
        .unwrap();
        let l = Layout::of(&outer, &ArchProfile::SPARC_V8).unwrap();
        // inner: char@0 pad, double@8 -> size 16 align 8.
        // outer: char@0, pad to 8, inner@8..24 -> size 24 align 8.
        assert_eq!(l.fields()[1].offset, 8);
        assert_eq!(l.fields()[1].size, 16);
        assert_eq!(l.size(), 24);

        // On x86 the nested double aligns to 4: inner size 12, align 4.
        let lx = Layout::of(&outer, &ArchProfile::X86).unwrap();
        assert_eq!(lx.fields()[1].offset, 4);
        assert_eq!(lx.fields()[1].size, 12);
        assert_eq!(lx.size(), 16);
    }

    #[test]
    fn var_fields_use_descriptors() {
        let s = Schema::new(
            "v",
            vec![
                FieldDecl::atom("n", AtomType::CInt),
                FieldDecl::new(
                    "data",
                    TypeDesc::Var(Box::new(TypeDesc::Atom(AtomType::CDouble)), "n".into()),
                ),
                FieldDecl::new("label", TypeDesc::String),
            ],
        )
        .unwrap();
        let l = Layout::of(&s, &ArchProfile::SPARC_V9_64).unwrap();
        assert!(!l.is_fixed_layout());
        assert_eq!(l.field("data").unwrap().size, VAR_DESCRIPTOR_SIZE);
        assert_eq!(l.field("label").unwrap().size, VAR_DESCRIPTOR_SIZE);
        assert_eq!(l.field("data").unwrap().offset, 4);
        assert_eq!(l.field("label").unwrap().offset, 12);
    }

    #[test]
    fn wire_identity_detects_homogeneous_pairs() {
        let s = mixed_schema();
        let a = Layout::of(&s, &ArchProfile::SPARC_V8).unwrap();
        let b = Layout::of(&s, &ArchProfile::SPARC_V8).unwrap();
        let c = Layout::of(&s, &ArchProfile::X86).unwrap();
        let d = Layout::of(&s, &ArchProfile::MIPS_N32).unwrap(); // same reps as sparc-v8
        assert!(a.wire_identical(&b));
        assert!(!a.wire_identical(&c));
        assert!(a.wire_identical(&d));
    }

    #[test]
    fn zero_copy_prefix_compatibility() {
        let s = mixed_schema();
        let extended = s
            .with_field_appended(FieldDecl::atom("extra", AtomType::CInt))
            .unwrap();
        let native = Layout::of(&s, &ArchProfile::SPARC_V8).unwrap();
        let wire_app = Layout::of(&extended, &ArchProfile::SPARC_V8).unwrap();
        // Appended extension: expected fields untouched -> in-place usable.
        assert!(native.zero_copy_prefix_of(&wire_app));
        assert!(
            !wire_app.zero_copy_prefix_of(&native),
            "reverse needs the extra field"
        );

        // Prepended extension shifts offsets -> not in-place usable.
        let prepended = s
            .with_field_prepended(FieldDecl::atom("extra", AtomType::CInt))
            .unwrap();
        let wire_pre = Layout::of(&prepended, &ArchProfile::SPARC_V8).unwrap();
        assert!(!native.zero_copy_prefix_of(&wire_pre));

        // A different representation (byte order and long width) is never
        // in-place usable.
        let wire_le = Layout::of(&extended, &ArchProfile::ALPHA).unwrap();
        assert!(!native.zero_copy_prefix_of(&wire_le));

        // Identity implies prefix compatibility.
        assert!(native.zero_copy_prefix_of(&Layout::of(&s, &ArchProfile::SPARC_V8).unwrap()));
    }

    #[test]
    fn wire_identity_is_field_sensitive() {
        let s1 = mixed_schema();
        let s2 = s1
            .with_field_appended(FieldDecl::atom("extra", AtomType::CInt))
            .unwrap();
        let a = Layout::of(&s1, &ArchProfile::SPARC_V8).unwrap();
        let b = Layout::of(&s2, &ArchProfile::SPARC_V8).unwrap();
        assert!(!a.wire_identical(&b));
    }

    #[test]
    fn round_up_basics() {
        assert_eq!(round_up(0, 8), 0);
        assert_eq!(round_up(1, 8), 8);
        assert_eq!(round_up(8, 8), 8);
        assert_eq!(round_up(9, 4), 12);
        assert_eq!(round_up(22, 4), 24);
    }

    #[test]
    fn describe_strings() {
        let l = Layout::of(&mixed_schema(), &ArchProfile::SPARC_V8).unwrap();
        assert_eq!(l.field("x").unwrap().ty.describe(), "f8");
        assert_eq!(l.field("tag").unwrap().ty.describe(), "char");
        assert_eq!(l.field("id").unwrap().ty.describe(), "i4");
    }

    #[test]
    fn all_profiles_lay_out_mixed_schema() {
        for p in ArchProfile::all() {
            let l = Layout::of(&mixed_schema(), p).unwrap();
            assert!(l.size() > 0);
            assert!(l.size().is_multiple_of(l.align()));
            // Offsets are monotonically increasing and within bounds.
            let mut prev_end = 0;
            for f in l.fields() {
                assert!(f.offset >= prev_end);
                prev_end = f.offset + f.size;
            }
            assert!(prev_end <= l.size());
        }
    }
}
