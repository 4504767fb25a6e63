//! Seeded input generation: the paper's mixed-field records at its four
//! message sizes, the Figure 6 mismatch variant, and the shuffled size mix.
//! The same seed always yields the same bytes; the program under test sees
//! only these generated inputs, never the seed.

use std::sync::Arc;

use pbio::{InterpConverter, Plan};
use pbio_types::arch::{ArchProfile, Endianness};
use pbio_types::layout::Layout;
use pbio_types::schema::{AtomType, FieldDecl, Schema, TypeDesc};
use pbio_types::typestr::parse_type_string;
use pbio_types::value::{encode_native, RecordValue, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The paper's four message sizes (§4.1), as native bytes on the SPARC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizeClass {
    B100,
    K1,
    K10,
    K100,
}

impl SizeClass {
    pub const ALL: [SizeClass; 4] = [
        SizeClass::B100,
        SizeClass::K1,
        SizeClass::K10,
        SizeClass::K100,
    ];

    pub fn target_bytes(self) -> usize {
        match self {
            SizeClass::B100 => 100,
            SizeClass::K1 => 1_000,
            SizeClass::K10 => 10_000,
            SizeClass::K100 => 100_000,
        }
    }

    /// Suffix used in metric names.
    pub fn label(self) -> &'static str {
        match self {
            SizeClass::B100 => "100b",
            SizeClass::K1 => "1k",
            SizeClass::K10 => "10k",
            SizeClass::K100 => "100k",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// Header scalars of deliberately mixed types, so a conversion exercises
/// byte order, integer width (`long`) and offset moves. `seq` is the
/// event's identity: checks and latency due times are recovered from it.
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

/// The record schema of one size class: the header plus a `double` array
/// sized so the native record on the SPARC lands on the target. Each class
/// has its own format name, because receivers match formats by name.
pub fn schema(size: SizeClass) -> Schema {
    let name = format!("mech_{}", size.label());
    let header = Schema::new(name.as_str(), header_fields()).expect("header schema is valid");
    let header_bytes = Layout::of(&header, &ArchProfile::SPARC_V8)
        .expect("header lays out")
        .size();
    let doubles = size.target_bytes().saturating_sub(header_bytes) / 8;
    let mut fields = header_fields();
    if doubles > 0 {
        fields.push(FieldDecl::new(
            "coords",
            parse_type_string(&format!("double[{doubles}]")).expect("array type string is valid"),
        ));
    }
    Schema::new(name.as_str(), fields).expect("record schema is valid")
}

/// Figure 6's mismatch: the sender's format carries one unexpected field
/// in front, shifting the offset of every field the receiver expects.
pub fn extended_schema_prepended(base: &Schema) -> Schema {
    base.with_field_prepended(FieldDecl::atom("unexpected", AtomType::CInt))
        .expect("prepending a fresh field is valid")
}

/// A random record for `schema`. `long` values stay within 32 bits so they
/// survive the trip through an ILP32 profile unchanged.
fn random_value(schema: &Schema, rng: &mut StdRng) -> RecordValue {
    let mut v = RecordValue::new();
    for f in schema.fields() {
        match f.name.as_str() {
            "unexpected" => v.set("unexpected", rng.gen_range(0..1_000_000i32)),
            "seq" => v.set("seq", 0i32),
            "tag" => v.set("tag", Value::Char(b'A' + rng.gen_range(0..26u8))),
            "valid" => v.set("valid", rng.gen_bool(0.5)),
            "timestep" => v.set("timestep", rng.gen_range(-1_000_000i64..1_000_000)),
            "time" => v.set("time", rng.gen_range(0.0..1.0e6f64)),
            "residual" => v.set("residual", rng.gen_range(-1.0..1.0f32)),
            "node_count" => v.set("node_count", rng.gen_range(0..100_000u32)),
            "coords" => {
                let TypeDesc::Fixed(_, n) = &f.ty else {
                    unreachable!("coords is a fixed array");
                };
                let items = (0..*n)
                    .map(|_| Value::F64(rng.gen_range(-1.0e3..1.0e3)))
                    .collect();
                v.set("coords", Value::Array(items));
            }
            other => unreachable!("unknown generated field {other}"),
        }
    }
    v
}

/// Where a record's `seq` lives, so the generator can stamp it and a check
/// can ignore it without decoding the record.
#[derive(Debug, Clone, Copy)]
pub struct SeqSlot {
    offset: usize,
    endian: Endianness,
}

impl SeqSlot {
    pub fn of(layout: &Layout) -> SeqSlot {
        let f = layout.field("seq").expect("generated records carry seq");
        SeqSlot {
            offset: f.offset,
            endian: layout.endianness(),
        }
    }

    #[inline]
    pub fn put(&self, record: &mut [u8], seq: u32) {
        let bytes = match self.endian {
            Endianness::Little => seq.to_le_bytes(),
            Endianness::Big => seq.to_be_bytes(),
        };
        record[self.offset..self.offset + 4].copy_from_slice(&bytes);
    }

    #[inline]
    pub fn get(&self, record: &[u8]) -> Option<u32> {
        let b: [u8; 4] = record.get(self.offset..self.offset + 4)?.try_into().ok()?;
        Some(match self.endian {
            Endianness::Little => u32::from_le_bytes(b),
            Endianness::Big => u32::from_be_bytes(b),
        })
    }

    /// Byte-compare two records everywhere except the `seq` field.
    pub fn same_but_seq(&self, a: &[u8], b: &[u8]) -> bool {
        a.len() == b.len()
            && a[..self.offset] == b[..self.offset]
            && a[self.offset + 4..] == b[self.offset + 4..]
    }
}

/// One generated record: the sender's native bytes, and what a receiver on
/// `dst` must end up with — computed at set-up by the *interpreted*
/// converter, so every check against it also checks interpreted ≡ DCG.
#[derive(Debug, Clone)]
pub struct Template {
    pub native: Vec<u8>,
    pub reference: Vec<u8>,
}

/// A stream of records of one format between two profiles.
#[derive(Debug, Clone)]
pub struct StreamInputs {
    pub schema: Schema,
    pub src: Arc<Layout>,
    pub dst: Arc<Layout>,
    pub src_seq: SeqSlot,
    pub dst_seq: SeqSlot,
    pub templates: Vec<Template>,
}

impl StreamInputs {
    /// Generate `count` records of `sender_schema` laid out for `src`, with
    /// references converted to `receiver_schema` laid out for `dst`.
    pub fn generate(
        rng: &mut StdRng,
        sender_schema: &Schema,
        receiver_schema: &Schema,
        src: &ArchProfile,
        dst: &ArchProfile,
        count: usize,
    ) -> StreamInputs {
        let src_layout = Arc::new(Layout::of(sender_schema, src).expect("sender layout"));
        let dst_layout = Arc::new(Layout::of(receiver_schema, dst).expect("receiver layout"));
        let interp = InterpConverter::new(Arc::new(Plan::build(
            src_layout.clone(),
            dst_layout.clone(),
        )));
        let templates = (0..count)
            .map(|_| {
                let value = random_value(sender_schema, rng);
                let native = encode_native(&value, &src_layout).expect("generated value encodes");
                let reference = interp.convert(&native).expect("reference conversion");
                Template { native, reference }
            })
            .collect();
        StreamInputs {
            schema: sender_schema.clone(),
            src_seq: SeqSlot::of(&src_layout),
            dst_seq: SeqSlot::of(&dst_layout),
            src: src_layout,
            dst: dst_layout,
            templates,
        }
    }
}

/// FNV-1a over a byte stream — the generated-input fingerprint.
#[derive(Debug, Clone, Copy)]
pub struct InputHash(u64);

impl InputHash {
    pub fn new() -> InputHash {
        InputHash(0xcbf2_9ce4_8422_2325)
    }

    pub fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn feed_stream(&mut self, s: &StreamInputs) {
        for t in &s.templates {
            self.feed(&t.native);
            self.feed(&t.reference);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// One cycle of the mixed workload: sizes in counts 1000:100:10:1 (equal
/// bytes per class), order shuffled by the seed.
pub fn shuffled_mix(rng: &mut StdRng) -> Vec<SizeClass> {
    let mut mix: Vec<SizeClass> = SizeClass::ALL
        .iter()
        .flat_map(|&s| std::iter::repeat_n(s, 100_000 / s.target_bytes()))
        .collect();
    for i in (1..mix.len()).rev() {
        mix.swap(i, rng.gen_range(0..=i));
    }
    mix
}

pub fn rng_for(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_for(seed: u64) -> u64 {
        let mut rng = rng_for(seed);
        let mut h = InputHash::new();
        for size in [SizeClass::B100, SizeClass::K1] {
            let base = schema(size);
            let s = StreamInputs::generate(
                &mut rng,
                &extended_schema_prepended(&base),
                &base,
                &ArchProfile::X86_64,
                &ArchProfile::SPARC_V8,
                3,
            );
            h.feed_stream(&s);
        }
        for s in shuffled_mix(&mut rng) {
            h.feed(&[s as u8]);
        }
        h.finish()
    }

    #[test]
    fn same_seed_same_inputs_different_seed_different_inputs() {
        assert_eq!(hash_for(7), hash_for(7));
        assert_ne!(hash_for(7), hash_for(8));
    }

    #[test]
    fn sizes_land_on_their_targets() {
        for size in SizeClass::ALL {
            let bytes = Layout::of(&schema(size), &ArchProfile::SPARC_V8)
                .unwrap()
                .size();
            let err = (bytes as f64 - size.target_bytes() as f64).abs();
            assert!(
                err / (size.target_bytes() as f64) < 0.12,
                "{size:?}: {bytes}"
            );
        }
    }

    #[test]
    fn mix_has_equal_bytes_per_class() {
        let mix = shuffled_mix(&mut rng_for(1));
        assert_eq!(mix.len(), 1111);
        for size in SizeClass::ALL {
            let n = mix.iter().filter(|&&s| s == size).count();
            assert_eq!(n * size.target_bytes(), 100_000);
        }
        assert_ne!(mix, shuffled_mix(&mut rng_for(2)));
    }

    #[test]
    fn seq_slot_stamps_both_byte_orders_and_the_reference_ignores_it() {
        let base = schema(SizeClass::B100);
        let s = StreamInputs::generate(
            &mut rng_for(3),
            &extended_schema_prepended(&base),
            &base,
            &ArchProfile::X86_64,
            &ArchProfile::SPARC_V8,
            1,
        );
        let mut native = s.templates[0].native.clone();
        s.src_seq.put(&mut native, 0x0102_0304);
        assert_eq!(s.src_seq.get(&native), Some(0x0102_0304));
        // The prepended field shifted seq off offset 0 on the sender only.
        assert_ne!(s.src_seq.offset, s.dst_seq.offset);
        let plan = Arc::new(Plan::build(s.src.clone(), s.dst.clone()));
        let converted = InterpConverter::new(plan).convert(&native).unwrap();
        assert_eq!(s.dst_seq.get(&converted), Some(0x0102_0304));
        assert!(s
            .dst_seq
            .same_but_seq(&converted, &s.templates[0].reference));
        assert_ne!(converted, s.templates[0].reference);
    }
}
