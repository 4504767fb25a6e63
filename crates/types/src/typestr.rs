//! Parser for PBIO-style field type strings.
//!
//! PBIO applications declare field types as strings, e.g. `"integer"`,
//! `"unsigned integer"`, `"float"`, `"double[3]"`, `"char[20]"`, `"string"`,
//! or with a runtime dimension taken from another field: `"double[dimen]"`.
//! This module parses those strings into [`TypeDesc`] values.
//!
//! Grammar:
//!
//! ```text
//! type     := base dims*
//! base     := "integer" | "unsigned integer" | "short" | "unsigned short"
//!           | "long" | "unsigned long" | "float" | "double" | "char"
//!           | "boolean" | "string"
//!           | "int8" | "int16" | "int32" | "int64"
//!           | "uint8" | "uint16" | "uint32" | "uint64"
//!           | "float32" | "float64"
//! dims     := "[" (number | identifier) "]"
//! ```
//!
//! As in C, the leftmost dimension varies slowest: `"double[10][3]"` is ten
//! rows of three. A runtime (identifier) dimension is only permitted as the
//! leftmost dimension.

use crate::error::TypeError;
use crate::schema::{AtomType, TypeDesc};

/// Parse a PBIO type string into a logical [`TypeDesc`].
pub fn parse_type_string(input: &str) -> Result<TypeDesc, TypeError> {
    let s = input.trim();
    let bracket = s.find('[');
    let (base_str, dims_str) = match bracket {
        Some(i) => (s[..i].trim(), &s[i..]),
        None => (s, ""),
    };

    let base = parse_base(base_str).ok_or_else(|| TypeError::BadTypeString {
        input: input.to_owned(),
        reason: format!("unknown base type {base_str:?}"),
    })?;

    let dims = parse_dims(input, dims_str)?;
    build(input, base, &dims)
}

enum Base {
    Atom(AtomType),
    Str,
}

fn parse_base(s: &str) -> Option<Base> {
    // Normalize interior whitespace ("unsigned   integer" == "unsigned integer").
    let norm: Vec<&str> = s.split_whitespace().collect();
    let joined = norm.join(" ");
    let atom = match joined.as_str() {
        "integer" | "int" => AtomType::CInt,
        "unsigned integer" | "unsigned int" | "unsigned" => AtomType::CUInt,
        "short" | "short int" => AtomType::CShort,
        "unsigned short" => AtomType::CUShort,
        "long" | "long int" => AtomType::CLong,
        "unsigned long" => AtomType::CULong,
        "float" => AtomType::CFloat,
        "double" => AtomType::CDouble,
        "char" => AtomType::Char,
        "boolean" | "bool" => AtomType::Bool,
        "string" => return Some(Base::Str),
        "int8" => AtomType::I8,
        "int16" => AtomType::I16,
        "int32" => AtomType::I32,
        "int64" => AtomType::I64,
        "uint8" => AtomType::U8,
        "uint16" => AtomType::U16,
        "uint32" => AtomType::U32,
        "uint64" => AtomType::U64,
        "float32" => AtomType::F32,
        "float64" => AtomType::F64,
        _ => return None,
    };
    Some(Base::Atom(atom))
}

enum Dim {
    Fixed(usize),
    Runtime(String),
}

fn parse_dims(whole: &str, mut s: &str) -> Result<Vec<Dim>, TypeError> {
    let mut dims = Vec::new();
    s = s.trim();
    while !s.is_empty() {
        if !s.starts_with('[') {
            return Err(TypeError::BadTypeString {
                input: whole.to_owned(),
                reason: format!("expected '[' at {s:?}"),
            });
        }
        let close = s.find(']').ok_or_else(|| TypeError::BadTypeString {
            input: whole.to_owned(),
            reason: "unterminated '['".into(),
        })?;
        let body = s[1..close].trim();
        if body.is_empty() {
            return Err(TypeError::BadTypeString {
                input: whole.to_owned(),
                reason: "empty dimension".into(),
            });
        }
        if body.chars().all(|c| c.is_ascii_digit()) {
            let n: usize = body.parse().map_err(|_| TypeError::BadTypeString {
                input: whole.to_owned(),
                reason: format!("bad dimension {body:?}"),
            })?;
            if n == 0 {
                return Err(TypeError::BadTypeString {
                    input: whole.to_owned(),
                    reason: "zero-length dimension".into(),
                });
            }
            dims.push(Dim::Fixed(n));
        } else if body.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
            && !body.chars().next().unwrap().is_ascii_digit()
        {
            dims.push(Dim::Runtime(body.to_owned()));
        } else {
            return Err(TypeError::BadTypeString {
                input: whole.to_owned(),
                reason: format!("bad dimension {body:?}"),
            });
        }
        s = s[close + 1..].trim();
    }
    Ok(dims)
}

fn build(whole: &str, base: Base, dims: &[Dim]) -> Result<TypeDesc, TypeError> {
    let mut ty = match base {
        Base::Atom(a) => TypeDesc::Atom(a),
        Base::Str => TypeDesc::String,
    };
    if matches!(ty, TypeDesc::String) && !dims.is_empty() {
        return Err(TypeError::BadTypeString {
            input: whole.to_owned(),
            reason: "arrays of strings are unsupported".into(),
        });
    }
    // Build from the rightmost (fastest-varying) dimension inward.
    for (i, d) in dims.iter().enumerate().rev() {
        match d {
            Dim::Fixed(n) => ty = TypeDesc::Fixed(Box::new(ty), *n),
            Dim::Runtime(name) => {
                if i != 0 {
                    return Err(TypeError::BadTypeString {
                        input: whole.to_owned(),
                        reason: "a runtime dimension must be the leftmost dimension".into(),
                    });
                }
                ty = TypeDesc::Var(Box::new(ty), name.clone());
            }
        }
    }
    Ok(ty)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Render a [`TypeDesc`] back into PBIO type-string notation (inverse of
    /// [`parse_type_string`] for the subset it covers; nested records render as
    /// their format name in braces and do not round-trip through the parser).
    fn type_string_of(ty: &TypeDesc) -> String {
        fn dims<'a>(ty: &'a TypeDesc, out: &mut String) -> &'a TypeDesc {
            match ty {
                TypeDesc::Fixed(inner, n) => {
                    out.push_str(&format!("[{n}]"));
                    dims(inner, out)
                }
                TypeDesc::Var(inner, name) => {
                    out.push_str(&format!("[{name}]"));
                    dims(inner, out)
                }
                other => other,
            }
        }
        let mut suffix = String::new();
        let base = dims(ty, &mut suffix);
        let base_str = match base {
            TypeDesc::Atom(a) => a.type_string().to_owned(),
            TypeDesc::String => "string".to_owned(),
            TypeDesc::Record(s) => format!("{{{}}}", s.name()),
            TypeDesc::Fixed(..) | TypeDesc::Var(..) => unreachable!("dims strips arrays"),
        };
        format!("{base_str}{suffix}")
    }

    #[test]
    fn scalar_bases() {
        assert_eq!(
            parse_type_string("integer").unwrap(),
            TypeDesc::Atom(AtomType::CInt)
        );
        assert_eq!(
            parse_type_string("unsigned integer").unwrap(),
            TypeDesc::Atom(AtomType::CUInt)
        );
        assert_eq!(
            parse_type_string(" double ").unwrap(),
            TypeDesc::Atom(AtomType::CDouble)
        );
        assert_eq!(parse_type_string("string").unwrap(), TypeDesc::String);
        assert_eq!(
            parse_type_string("uint64").unwrap(),
            TypeDesc::Atom(AtomType::U64)
        );
    }

    #[test]
    fn fixed_arrays() {
        assert_eq!(
            parse_type_string("float[3]").unwrap(),
            TypeDesc::array(AtomType::CFloat, 3)
        );
        // double[10][3]: ten rows of three.
        let t = parse_type_string("double[10][3]").unwrap();
        assert_eq!(
            t,
            TypeDesc::Fixed(Box::new(TypeDesc::array(AtomType::CDouble, 3)), 10)
        );
    }

    #[test]
    fn runtime_dimension() {
        let t = parse_type_string("double[dimen]").unwrap();
        assert_eq!(
            t,
            TypeDesc::Var(Box::new(TypeDesc::Atom(AtomType::CDouble)), "dimen".into())
        );
        // Runtime dim with fixed inner dims: matrix with runtime row count.
        let t = parse_type_string("double[nrows][3]").unwrap();
        assert_eq!(
            t,
            TypeDesc::Var(
                Box::new(TypeDesc::array(AtomType::CDouble, 3)),
                "nrows".into()
            )
        );
    }

    #[test]
    fn runtime_dim_must_be_leftmost() {
        let err = parse_type_string("double[3][n]").unwrap_err();
        assert!(matches!(err, TypeError::BadTypeString { .. }));
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "floot",
            "integer[",
            "integer[]",
            "integer[0]",
            "integer[3",
            "integer[3]x",
            "string[4]",
            "integer[-1]",
            "integer[a b]",
        ] {
            assert!(parse_type_string(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn round_trip_rendering() {
        for s in [
            "integer",
            "unsigned integer",
            "double[10][3]",
            "char[20]",
            "string",
            "float[dimen]",
            "uint32",
        ] {
            let t = parse_type_string(s).unwrap();
            let rendered = type_string_of(&t);
            let reparsed = parse_type_string(&rendered).unwrap();
            assert_eq!(t, reparsed, "{s} -> {rendered}");
        }
    }
}
