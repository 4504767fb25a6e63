//! Logical record schemas — the information a PBIO user declares.
//!
//! A [`Schema`] corresponds to PBIO's `IOFieldList`: an ordered list of
//! (field name, field type) pairs. Types are *logical* (`integer`, `long`,
//! `double`, arrays, nested records); their concrete size, offset and padding
//! are produced per-architecture by the [`crate::layout`] engine, exactly as a
//! C compiler would have produced them on that machine.

use std::sync::Arc;

use crate::error::TypeError;

/// A logical atomic field type.
///
/// The `C*` variants have architecture-dependent sizes (resolved at layout
/// time); the fixed-width variants always occupy the stated number of bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomType {
    /// Signed 8-bit integer.
    I8,
    /// Signed 16-bit integer.
    I16,
    /// Signed 32-bit integer.
    I32,
    /// Signed 64-bit integer.
    I64,
    /// Unsigned 8-bit integer.
    U8,
    /// Unsigned 16-bit integer.
    U16,
    /// Unsigned 32-bit integer.
    U32,
    /// Unsigned 64-bit integer.
    U64,
    /// IEEE-754 single precision.
    F32,
    /// IEEE-754 double precision.
    F64,
    /// One character (one byte, as in C `char` used for text).
    Char,
    /// Boolean, stored as one byte.
    Bool,
    /// C `short` — size from the architecture profile.
    CShort,
    /// C `unsigned short`.
    CUShort,
    /// C `int` — PBIO type string `"integer"`.
    CInt,
    /// C `unsigned int` — PBIO type string `"unsigned integer"`.
    CUInt,
    /// C `long` — 4 bytes on ILP32, 8 on LP64.
    CLong,
    /// C `unsigned long`.
    CULong,
    /// C `float` — PBIO type string `"float"`.
    CFloat,
    /// C `double` — PBIO type string `"double"`.
    CDouble,
}

impl AtomType {
    /// Whether the atom is an integer (signed or unsigned, any width).
    fn is_integer(self) -> bool {
        !matches!(
            self,
            AtomType::F32 | AtomType::F64 | AtomType::CFloat | AtomType::CDouble
        )
    }

    /// The canonical PBIO type string for this atom.
    pub fn type_string(self) -> &'static str {
        match self {
            AtomType::I8 => "int8",
            AtomType::I16 => "int16",
            AtomType::I32 => "int32",
            AtomType::I64 => "int64",
            AtomType::U8 => "uint8",
            AtomType::U16 => "uint16",
            AtomType::U32 => "uint32",
            AtomType::U64 => "uint64",
            AtomType::F32 => "float32",
            AtomType::F64 => "float64",
            AtomType::Char => "char",
            AtomType::Bool => "boolean",
            AtomType::CShort => "short",
            AtomType::CUShort => "unsigned short",
            AtomType::CInt => "integer",
            AtomType::CUInt => "unsigned integer",
            AtomType::CLong => "long",
            AtomType::CULong => "unsigned long",
            AtomType::CFloat => "float",
            AtomType::CDouble => "double",
        }
    }
}

/// A logical field type: an atom, a (possibly multi-dimensional) fixed array,
/// a variable-length array whose length is given by an earlier integer field,
/// a string, or a nested record.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TypeDesc {
    /// A single atomic value.
    Atom(AtomType),
    /// Fixed-size array. Multi-dimensional arrays nest `Fixed` descriptors;
    /// `Fixed(Fixed(Atom(F64), 3), 10)` is C's `double x[10][3]`.
    Fixed(Box<TypeDesc>, usize),
    /// Variable-length array; the element count is carried at runtime by the
    /// named integer field, which must be declared earlier in the record
    /// (PBIO's `"double[dimen]"` notation).
    Var(Box<TypeDesc>, String),
    /// A NUL-free variable-length string (PBIO's `"string"`).
    String,
    /// A nested record with its own schema.
    Record(Arc<Schema>),
}

impl TypeDesc {
    /// Convenience constructor for a fixed array of atoms.
    pub fn array(elem: AtomType, n: usize) -> TypeDesc {
        TypeDesc::Fixed(Box::new(TypeDesc::Atom(elem)), n)
    }

    /// The innermost element type of any array nesting (self for non-arrays).
    pub fn element(&self) -> &TypeDesc {
        match self {
            TypeDesc::Fixed(inner, _) | TypeDesc::Var(inner, _) => inner.element(),
            other => other,
        }
    }

    /// True if this type (or any nested part) is variable-length.
    pub fn has_variable_part(&self) -> bool {
        match self {
            TypeDesc::Atom(_) => false,
            TypeDesc::String | TypeDesc::Var(..) => true,
            TypeDesc::Fixed(inner, _) => inner.has_variable_part(),
            TypeDesc::Record(schema) => schema.has_variable_part(),
        }
    }
}

/// One declared field: a name plus a logical type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FieldDecl {
    /// Field name. PBIO matches sender and receiver fields by name only.
    pub name: String,
    /// Logical type of the field.
    pub ty: TypeDesc,
}

impl FieldDecl {
    /// Create a field declaration.
    pub fn new(name: impl Into<String>, ty: TypeDesc) -> FieldDecl {
        FieldDecl {
            name: name.into(),
            ty,
        }
    }

    /// Shorthand for an atomic field.
    pub fn atom(name: impl Into<String>, atom: AtomType) -> FieldDecl {
        FieldDecl::new(name, TypeDesc::Atom(atom))
    }
}

/// A named, ordered list of field declarations — PBIO's record format as the
/// application declares it, before any machine-specific layout is applied.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Schema {
    name: String,
    fields: Vec<FieldDecl>,
}

impl Schema {
    /// Build and validate a schema.
    ///
    /// Validation enforces: at least one field, unique field names, and that
    /// every `Var` length reference names an integer field declared earlier.
    pub fn new(name: impl Into<String>, fields: Vec<FieldDecl>) -> Result<Schema, TypeError> {
        let name = name.into();
        if fields.is_empty() {
            return Err(TypeError::EmptySchema(name));
        }
        let mut seen: Vec<&str> = Vec::with_capacity(fields.len());
        for (idx, f) in fields.iter().enumerate() {
            if seen.contains(&f.name.as_str()) {
                return Err(TypeError::DuplicateField(f.name.clone()));
            }
            seen.push(&f.name);
            Self::check_var_refs(&f.ty, &fields[..idx], &f.name)?;
        }
        Ok(Schema { name, fields })
    }

    fn check_var_refs(
        ty: &TypeDesc,
        earlier: &[FieldDecl],
        field_name: &str,
    ) -> Result<(), TypeError> {
        match ty {
            TypeDesc::Var(inner, len_field) => {
                let ok = earlier.iter().any(|e| {
                    e.name == *len_field && matches!(&e.ty, TypeDesc::Atom(a) if a.is_integer())
                });
                if !ok {
                    return Err(TypeError::BadLengthField {
                        field: field_name.to_owned(),
                        len_field: len_field.clone(),
                    });
                }
                Self::check_var_refs(inner, earlier, field_name)
            }
            TypeDesc::Fixed(inner, _) => Self::check_var_refs(inner, earlier, field_name),
            _ => Ok(()),
        }
    }

    /// The record (format) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The declared fields, in declaration order.
    pub fn fields(&self) -> &[FieldDecl] {
        &self.fields
    }

    /// Find a field declaration by name.
    pub fn field(&self, name: &str) -> Option<&FieldDecl> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// True if any field is variable-length (string or var array), directly
    /// or through nesting.
    pub fn has_variable_part(&self) -> bool {
        self.fields.iter().any(|f| f.ty.has_variable_part())
    }

    /// A copy of this schema with an extra field appended — models the
    /// paper's *type extension* scenario (§4.4): an evolving application adds
    /// fields at the end of the record to minimize mismatch overhead.
    pub fn with_field_appended(&self, field: FieldDecl) -> Result<Schema, TypeError> {
        let mut fields = self.fields.clone();
        fields.push(field);
        Schema::new(self.name.clone(), fields)
    }

    /// A copy of this schema with an extra field *prepended* — the worst-case
    /// extension the paper measures in Figures 6 and 7 (every expected field
    /// shifts to a different offset).
    pub fn with_field_prepended(&self, field: FieldDecl) -> Result<Schema, TypeError> {
        let mut fields = vec![field];
        fields.extend(self.fields.iter().cloned());
        Schema::new(self.name.clone(), fields)
    }

    /// A copy of this schema without the named field — models a receiver that
    /// expects a field the sender no longer provides.
    pub fn without_field(&self, name: &str) -> Result<Schema, TypeError> {
        let fields: Vec<FieldDecl> = self
            .fields
            .iter()
            .filter(|f| f.name != name)
            .cloned()
            .collect();
        Schema::new(self.name.clone(), fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple() -> Schema {
        Schema::new(
            "point",
            vec![
                FieldDecl::atom("x", AtomType::CDouble),
                FieldDecl::atom("y", AtomType::CDouble),
                FieldDecl::atom("tag", AtomType::CInt),
            ],
        )
        .unwrap()
    }

    #[test]
    fn basic_construction() {
        let s = simple();
        assert_eq!(s.name(), "point");
        assert_eq!(s.fields().len(), 3);
        assert_eq!(s.field("tag").unwrap().ty, TypeDesc::Atom(AtomType::CInt));
        assert!(s.field("nope").is_none());
        assert!(!s.has_variable_part());
    }

    #[test]
    fn duplicate_fields_rejected() {
        let err = Schema::new(
            "dup",
            vec![
                FieldDecl::atom("a", AtomType::CInt),
                FieldDecl::atom("a", AtomType::CFloat),
            ],
        )
        .unwrap_err();
        assert_eq!(err, TypeError::DuplicateField("a".into()));
    }

    #[test]
    fn empty_schema_rejected() {
        assert!(matches!(
            Schema::new("none", vec![]),
            Err(TypeError::EmptySchema(_))
        ));
    }

    #[test]
    fn var_length_requires_earlier_integer_field() {
        // Valid: len declared before data.
        let ok = Schema::new(
            "v",
            vec![
                FieldDecl::atom("dimen", AtomType::CInt),
                FieldDecl::new(
                    "data",
                    TypeDesc::Var(Box::new(TypeDesc::Atom(AtomType::CDouble)), "dimen".into()),
                ),
            ],
        );
        assert!(ok.is_ok());

        // Invalid: length field declared after.
        let err = Schema::new(
            "v",
            vec![
                FieldDecl::new(
                    "data",
                    TypeDesc::Var(Box::new(TypeDesc::Atom(AtomType::CDouble)), "dimen".into()),
                ),
                FieldDecl::atom("dimen", AtomType::CInt),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, TypeError::BadLengthField { .. }));

        // Invalid: length field is a float.
        let err = Schema::new(
            "v",
            vec![
                FieldDecl::atom("dimen", AtomType::CFloat),
                FieldDecl::new(
                    "data",
                    TypeDesc::Var(Box::new(TypeDesc::Atom(AtomType::CDouble)), "dimen".into()),
                ),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, TypeError::BadLengthField { .. }));
    }

    #[test]
    fn variable_part_detection() {
        let s = Schema::new(
            "v",
            vec![
                FieldDecl::atom("n", AtomType::CInt),
                FieldDecl::new("name", TypeDesc::String),
            ],
        )
        .unwrap();
        assert!(s.has_variable_part());

        let nested = Schema::new(
            "outer",
            vec![FieldDecl::new("inner", TypeDesc::Record(Arc::new(s)))],
        )
        .unwrap();
        assert!(nested.has_variable_part());
    }

    #[test]
    fn extension_helpers() {
        let s = simple();
        let appended = s
            .with_field_appended(FieldDecl::atom("extra", AtomType::CLong))
            .unwrap();
        assert_eq!(appended.fields().last().unwrap().name, "extra");

        let prepended = s
            .with_field_prepended(FieldDecl::atom("extra", AtomType::CLong))
            .unwrap();
        assert_eq!(prepended.fields()[0].name, "extra");

        let without = s.without_field("tag").unwrap();
        assert!(without.field("tag").is_none());
        assert_eq!(without.fields().len(), 2);
    }

    #[test]
    fn multidim_element_type() {
        let t = TypeDesc::Fixed(Box::new(TypeDesc::array(AtomType::F64, 3)), 10);
        assert_eq!(t.element(), &TypeDesc::Atom(AtomType::F64));
        assert!(!t.has_variable_part());
    }

    #[test]
    fn atom_classification() {
        assert!(AtomType::CInt.is_integer());
        assert!(!AtomType::CDouble.is_integer());
        assert!(AtomType::Bool.is_integer()); // stored and converted as u8
    }
}
