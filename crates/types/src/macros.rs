//! The [`schema!`](crate::schema!) declaration macro.
//!
//! PBIO applications declare formats as a field list with string type names
//! (`IOFieldList`). The [`crate::typestr`] parser handles the type strings;
//! this macro provides the surrounding declaration syntax so a schema reads
//! like the C it models:
//!
//! ```
//! use pbio_types::schema;
//!
//! let s = schema! {
//!     mech_record {
//!         seq: "integer",
//!         timestep: "long",
//!         coords: "double[30]",
//!         label: "string",
//!     }
//! };
//! assert_eq!(s.name(), "mech_record");
//! assert_eq!(s.fields().len(), 4);
//! ```
//!
//! Panics on invalid type strings or duplicate fields — schema declarations
//! are static program structure, so failing loudly at construction matches
//! how a C compiler would reject the corresponding struct.

/// Declare a [`crate::Schema`] from field/type-string pairs (see the
/// [module docs](crate::macros)).
#[macro_export]
macro_rules! schema {
    ( $name:ident { $( $field:ident : $ty:expr ),+ $(,)? } ) => {{
        let fields = vec![
            $(
                $crate::schema::FieldDecl::new(
                    stringify!($field),
                    $crate::typestr::parse_type_string($ty)
                        .unwrap_or_else(|e| panic!(
                            "schema! field `{}`: {e}", stringify!($field)
                        )),
                ),
            )+
        ];
        $crate::schema::Schema::new(stringify!($name), fields)
            .unwrap_or_else(|e| panic!("schema! {}: {e}", stringify!($name)))
    }};
}

#[cfg(test)]
mod tests {
    use crate::schema::{AtomType, TypeDesc};

    #[test]
    fn declares_mixed_schema() {
        let s = schema! {
            reading {
                seq: "integer",
                t: "double",
                id: "unsigned long",
                tag: "char",
                ok: "boolean",
                m: "float[2][3]",
                n: "int32",
                data: "double[n]",
                name: "string",
            }
        };
        assert_eq!(s.name(), "reading");
        assert_eq!(s.fields().len(), 9);
        assert_eq!(s.field("seq").unwrap().ty, TypeDesc::Atom(AtomType::CInt));
        assert_eq!(s.field("id").unwrap().ty, TypeDesc::Atom(AtomType::CULong));
        assert!(matches!(s.field("m").unwrap().ty, TypeDesc::Fixed(..)));
        assert!(matches!(s.field("data").unwrap().ty, TypeDesc::Var(..)));
        assert_eq!(s.field("name").unwrap().ty, TypeDesc::String);
    }

    #[test]
    #[should_panic(expected = "schema! field `bad`")]
    fn bad_type_string_panics() {
        let _ = schema! {
            oops { bad: "floot" }
        };
    }

    #[test]
    #[should_panic(expected = "schema! broken")]
    fn invalid_schema_panics() {
        // Var length field referencing a later field.
        let _ = schema! {
            broken {
                data: "double[n]",
                n: "integer",
            }
        };
    }

    #[test]
    fn trailing_comma_optional() {
        let a = schema! { one { x: "integer" } };
        let b = schema! { one { x: "integer", } };
        assert_eq!(a, b);
    }
}
