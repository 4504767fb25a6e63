//! Workload generation: the paper's mixed-field records.
//!
//! The evaluation uses "messages of a selection of sizes (from a real
//! mechanical engineering application)" (§4.1): mixed-field structures of
//! roughly 100 B, 1 KB, 10 KB and 100 KB. We synthesize the same shape: a
//! handful of header scalars of mixed types (the part that exercises
//! byte-order, size and offset conversion) plus dense numeric arrays (nodal
//! coordinates/displacements in the mechanical-engineering reading) that
//! set the record size.

use pbio_types::arch::ArchProfile;
use pbio_types::layout::Layout;
use pbio_types::schema::{AtomType, FieldDecl, Schema};
use pbio_types::typestr::parse_type_string;
use pbio_types::value::{RecordValue, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The paper's four message sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgSize {
    /// ~100 bytes.
    B100,
    /// ~1 KB.
    K1,
    /// ~10 KB.
    K10,
    /// ~100 KB.
    K100,
}

impl MsgSize {
    /// All sizes, smallest first.
    pub fn all() -> [MsgSize; 4] {
        [MsgSize::B100, MsgSize::K1, MsgSize::K10, MsgSize::K100]
    }

    /// Target native record size in bytes (on the reference Sparc V8).
    pub fn target_bytes(self) -> usize {
        match self {
            MsgSize::B100 => 100,
            MsgSize::K1 => 1_000,
            MsgSize::K10 => 10_000,
            MsgSize::K100 => 100_000,
        }
    }

    /// Label used in figures ("100b", "1Kb", ...), matching the paper.
    pub fn label(self) -> &'static str {
        match self {
            MsgSize::B100 => "100b",
            MsgSize::K1 => "1Kb",
            MsgSize::K10 => "10Kb",
            MsgSize::K100 => "100Kb",
        }
    }
}

/// A generated workload: schema + one record instance.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The record schema.
    pub schema: Schema,
    /// A deterministic record instance.
    pub value: RecordValue,
    /// The size class it was generated for.
    pub size: MsgSize,
}

/// The fixed header fields every workload record carries — deliberately
/// mixed types so conversions exercise byte order, integer width (`long`)
/// and offset moves.
fn header_fields() -> Vec<FieldDecl> {
    vec![
        FieldDecl::atom("seq", AtomType::CInt),
        FieldDecl::atom("tag", AtomType::Char),
        FieldDecl::atom("valid", AtomType::Bool),
        FieldDecl::atom("timestep", AtomType::CLong),
        FieldDecl::atom("time", AtomType::CDouble),
        FieldDecl::atom("residual", AtomType::CFloat),
        FieldDecl::atom("node_count", AtomType::CUInt),
    ]
}

/// Build the workload schema for one size class. The double array count is
/// chosen so the native record on the reference architecture (the paper's
/// Sparc) is as close as possible to the target size.
fn sized_schema(size: MsgSize) -> Schema {
    let reference = &ArchProfile::SPARC_V8;
    let base = Schema::new("mech_record", header_fields()).expect("valid header schema");
    let base_size = Layout::of(&base, reference).expect("layout").size();
    let target = size.target_bytes();
    let doubles = target.saturating_sub(base_size) / 8;
    let mut fields = header_fields();
    if doubles > 0 {
        fields.push(FieldDecl::new(
            "coords",
            parse_type_string(&format!("double[{doubles}]")).expect("valid type string"),
        ));
    }
    Schema::new("mech_record", fields).expect("valid workload schema")
}

/// Deterministically generate a record instance for `schema`.
///
/// Values are chosen to survive every conversion in the test matrix: `long`
/// fields stay within i32 (ILP32 architectures), floats are f32-exact where
/// the field is `float`.
fn value_for(schema: &Schema, seed: u64) -> RecordValue {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut v = RecordValue::new();
    for f in schema.fields() {
        match f.name.as_str() {
            "seq" => v.set("seq", rng.gen_range(0..1_000_000i32)),
            "tag" => v.set("tag", Value::Char(b'A' + rng.gen_range(0..26u8))),
            "valid" => v.set("valid", rng.gen_bool(0.5)),
            "timestep" => v.set("timestep", rng.gen_range(-1_000_000i64..1_000_000)),
            "time" => v.set("time", rng.gen_range(0.0..1.0e6f64)),
            "residual" => v.set("residual", rng.gen_range(-1.0..1.0f32)),
            "node_count" => v.set("node_count", rng.gen_range(0..100_000u32)),
            "coords" => {
                // Count comes from the schema's fixed array length.
                if let pbio_types::schema::TypeDesc::Fixed(_, n) = &f.ty {
                    let items = (0..*n)
                        .map(|_| Value::F64(rng.gen_range(-1.0e3..1.0e3)))
                        .collect();
                    v.set("coords", Value::Array(items));
                }
            }
            other => panic!("unknown workload field {other:?}"),
        }
    }
    v
}

/// Generate the workload for one size class (deterministic).
pub fn workload(size: MsgSize) -> Workload {
    let schema = sized_schema(size);
    let value = value_for(&schema, 0x5EED_0000 + size.target_bytes() as u64);
    Workload {
        schema,
        value,
        size,
    }
}

/// A second workload family: particle/molecular-dynamics records with a
/// nested record, a variable-length neighbor list and a string tag — the
/// full type system in one schema. Used by integration tests and the
/// `ablation_var_length_records` table of `figures` (MPI cannot describe
/// these records at all, which is itself one of the paper's points about
/// a-priori-agreement systems).
pub fn particle_schema() -> Schema {
    let vec3 = std::sync::Arc::new(
        Schema::new(
            "vec3",
            vec![
                FieldDecl::atom("x", AtomType::CDouble),
                FieldDecl::atom("y", AtomType::CDouble),
                FieldDecl::atom("z", AtomType::CDouble),
            ],
        )
        .expect("valid vec3 schema"),
    );
    Schema::new(
        "particle",
        vec![
            FieldDecl::atom("id", AtomType::CLong),
            FieldDecl::atom("species", AtomType::Char),
            FieldDecl::atom("charge", AtomType::CFloat),
            FieldDecl::new(
                "position",
                pbio_types::schema::TypeDesc::Record(vec3.clone()),
            ),
            FieldDecl::new("velocity", pbio_types::schema::TypeDesc::Record(vec3)),
            FieldDecl::atom("n_neighbors", AtomType::CUInt),
            FieldDecl::new(
                "neighbors",
                parse_type_string("int32[n_neighbors]").expect("valid type string"),
            ),
            FieldDecl::new("origin", pbio_types::schema::TypeDesc::String),
        ],
    )
    .expect("valid particle schema")
}

/// A deterministic particle record with `neighbors` neighbors.
pub fn particle_value(seed: u64, neighbors: usize) -> RecordValue {
    let mut rng = StdRng::seed_from_u64(seed);
    let vec3 = |rng: &mut StdRng| {
        Value::Record(
            RecordValue::new()
                .with("x", rng.gen_range(-10.0..10.0f64))
                .with("y", rng.gen_range(-10.0..10.0f64))
                .with("z", rng.gen_range(-10.0..10.0f64)),
        )
    };
    let p = vec3(&mut rng);
    let v = vec3(&mut rng);
    RecordValue::new()
        .with("id", rng.gen_range(0..1_000_000i64))
        .with("species", Value::Char(b'A' + rng.gen_range(0..4u8)))
        .with("charge", rng.gen_range(-2.0..2.0f32))
        .with("position", p)
        .with("velocity", v)
        .with("n_neighbors", neighbors as u32)
        .with(
            "neighbors",
            Value::Array(
                (0..neighbors)
                    .map(|_| Value::I64(rng.gen_range(0..1_000_000i32) as i64))
                    .collect(),
            ),
        )
        .with(
            "origin",
            format!("rank-{}", rng.gen_range(0..64u32)).as_str(),
        )
}

/// The §4.4 mismatch scenario: the sender's format with one *unexpected*
/// field prepended — the worst case, shifting every expected field's offset
/// (Figures 6 and 7).
pub fn extended_schema_prepended(schema: &Schema) -> Schema {
    schema
        .with_field_prepended(FieldDecl::atom("unexpected", AtomType::CInt))
        .expect("extension is valid")
}

/// The benign evolution the paper recommends: the new field appended at the
/// end of the record, leaving expected offsets untouched.
pub fn extended_schema_appended(schema: &Schema) -> Schema {
    schema
        .with_field_appended(FieldDecl::atom("unexpected", AtomType::CInt))
        .expect("extension is valid")
}

/// A value for an extended schema: the base value plus the new field.
pub fn extended_value(base: &RecordValue) -> RecordValue {
    let mut v = base.clone();
    v.set("unexpected", 0xBEEF_i32);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbio_types::value::encode_native;

    #[test]
    fn sizes_hit_targets_on_reference_arch() {
        for size in MsgSize::all() {
            let w = workload(size);
            let layout = Layout::of(&w.schema, &ArchProfile::SPARC_V8).unwrap();
            let actual = layout.size();
            let target = size.target_bytes();
            let err = (actual as f64 - target as f64).abs() / target as f64;
            assert!(err < 0.12, "{}: {actual} vs {target}", size.label());
        }
    }

    #[test]
    fn workloads_encode_on_every_profile() {
        for size in [MsgSize::B100, MsgSize::K1] {
            let w = workload(size);
            for p in ArchProfile::all() {
                let layout = Layout::of(&w.schema, p).unwrap();
                let native = encode_native(&w.value, &layout).unwrap();
                assert_eq!(native.len(), layout.size());
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = workload(MsgSize::K1);
        let b = workload(MsgSize::K1);
        assert_eq!(a.value, b.value);
        assert_eq!(a.schema, b.schema);
    }

    #[test]
    fn different_sizes_differ() {
        assert_ne!(workload(MsgSize::B100).schema, workload(MsgSize::K1).schema);
    }

    #[test]
    fn extension_variants() {
        let w = workload(MsgSize::B100);
        let pre = extended_schema_prepended(&w.schema);
        assert_eq!(pre.fields()[0].name, "unexpected");
        let app = extended_schema_appended(&w.schema);
        assert_eq!(app.fields().last().unwrap().name, "unexpected");
        let v = extended_value(&w.value);
        assert!(v.get("unexpected").is_some());
        // Extended values encode under extended schemas.
        let layout = Layout::of(&pre, &ArchProfile::X86).unwrap();
        encode_native(&v, &layout).unwrap();
    }

    #[test]
    fn particle_workload_round_trips_everywhere() {
        let schema = particle_schema();
        for neighbors in [0, 1, 17] {
            let value = particle_value(42, neighbors);
            for p in ArchProfile::all() {
                let layout = Layout::of(&schema, p).unwrap();
                let native = encode_native(&value, &layout).unwrap();
                let back = pbio_types::value::decode_native(&native, &layout).unwrap();
                assert_eq!(back, value, "{} n={neighbors}", p.name);
            }
        }
    }

    #[test]
    fn mixed_header_survives_heterogeneous_conversion_semantics() {
        // Values must fit in 4-byte longs (ILP32 targets).
        for size in MsgSize::all() {
            let w = workload(size);
            let ts = w.value.get("timestep").unwrap().as_i64().unwrap();
            assert!(ts >= i32::MIN as i64 && ts <= i32::MAX as i64);
        }
    }
}
