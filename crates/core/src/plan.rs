//! Conversion planning: match an incoming wire format against the receiver's
//! native layout and produce an executable plan.
//!
//! PBIO's receiver establishes "correspondence between fields in incoming and
//! expected records … by field name, with no weight placed on size or
//! ordering" (§3). The plan built here captures every discrepancy the paper
//! enumerates: byte order, data type sizes (`long` vs `int`), and compiler
//! structure layout — plus the type-extension cases of §4.4 (unexpected
//! incoming fields are skipped; expected-but-missing fields are zero-filled
//! and reported).
//!
//! A [`Plan`] is backend-neutral: the table-driven interpreter
//! ([`crate::interp`]) walks it per record (the paper's "initial choice"),
//! while the DCG backend ([`crate::codegen`]) compiles it once into a
//! `pbio-vrisc` program.

use std::sync::Arc;

use pbio_types::arch::Endianness;
use pbio_types::layout::{ConcreteType, Layout};

/// Scalar classification used by conversion steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarKind {
    /// Two's-complement signed integer.
    Signed,
    /// Unsigned integer.
    Unsigned,
    /// IEEE-754 float.
    Float,
    /// Text character (1 byte).
    Char,
    /// Boolean (1 byte).
    Bool,
}

/// Width + kind + byte order of one scalar as it sits in a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScalarSig {
    /// Width in bytes (1, 2, 4 or 8).
    pub w: u8,
    /// Scalar class.
    pub kind: ScalarKind,
    /// Byte order in the buffer.
    pub endian: Endianness,
}

impl ScalarSig {
    fn of(ty: &ConcreteType, endian: Endianness) -> Option<ScalarSig> {
        Some(match ty {
            ConcreteType::Int {
                bytes,
                signed: true,
            } => ScalarSig {
                w: *bytes,
                kind: ScalarKind::Signed,
                endian,
            },
            ConcreteType::Int {
                bytes,
                signed: false,
            } => ScalarSig {
                w: *bytes,
                kind: ScalarKind::Unsigned,
                endian,
            },
            ConcreteType::Float { bytes } => ScalarSig {
                w: *bytes,
                kind: ScalarKind::Float,
                endian,
            },
            ConcreteType::Char => ScalarSig {
                w: 1,
                kind: ScalarKind::Char,
                endian,
            },
            ConcreteType::Bool => ScalarSig {
                w: 1,
                kind: ScalarKind::Bool,
                endian,
            },
            _ => return None,
        })
    }

    /// True if a scalar with this signature can be moved to `dst` by a plain
    /// byte copy.
    fn copy_compatible(&self, dst: &ScalarSig) -> bool {
        self.w == dst.w && self.kind == dst.kind && (self.w == 1 || self.endian == dst.endian)
    }

    /// True if the only difference from `dst` is byte order.
    fn swap_compatible(&self, dst: &ScalarSig) -> bool {
        self.w == dst.w && self.kind == dst.kind && self.w > 1 && self.endian != dst.endian
    }
}

/// One conversion step. Offsets are relative to the current record (or array
/// element) base on each side.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Bytes are representation-identical: copy them verbatim.
    CopyBytes {
        /// Source offset.
        src: usize,
        /// Destination offset.
        dst: usize,
        /// Length in bytes.
        len: usize,
    },
    /// Same scalar, opposite byte order: swap while moving.
    SwapScalar {
        /// Scalar width (2, 4 or 8).
        w: u8,
        /// Source offset.
        src: usize,
        /// Destination offset.
        dst: usize,
    },
    /// `count` same-width swaps over dense runs on both sides — what a run
    /// of adjacent [`Step::SwapScalar`]s fuses into (the swap analogue of
    /// the contiguous-copy merge): one step, and one block instruction in
    /// the DCG backend, per run instead of per field.
    SwapRun {
        /// Scalar width (2, 4 or 8).
        w: u8,
        /// Source offset of element 0.
        src: usize,
        /// Destination offset of element 0.
        dst: usize,
        /// Number of scalars in the run.
        count: usize,
    },
    /// General scalar conversion (size, signedness, class and/or order).
    ConvScalar {
        /// Signature in the incoming buffer.
        from: ScalarSig,
        /// Signature expected by the receiver.
        to: ScalarSig,
        /// Source offset.
        src: usize,
        /// Destination offset.
        dst: usize,
    },
    /// Zero destination bytes (missing or incompatible source field, or the
    /// tail of a shrunken array).
    ZeroFill {
        /// Destination offset.
        dst: usize,
        /// Length in bytes.
        len: usize,
    },
    /// Convert `count` array elements; body offsets are element-relative.
    FixedLoop {
        /// Number of elements to convert.
        count: usize,
        /// Source element stride.
        src_stride: usize,
        /// Destination element stride.
        dst_stride: usize,
        /// Source offset of element 0.
        src: usize,
        /// Destination offset of element 0.
        dst: usize,
        /// Per-element steps.
        body: Vec<Step>,
    },
    /// Copy a string payload: read the source descriptor, append the bytes to
    /// the destination's variable region, write the destination descriptor.
    VarBytes {
        /// Source descriptor offset.
        src: usize,
        /// Destination descriptor offset.
        dst: usize,
    },
    /// Convert a variable-length array: runtime element count comes from the
    /// source descriptor.
    VarLoop {
        /// Source descriptor offset.
        src: usize,
        /// Destination descriptor offset.
        dst: usize,
        /// Source element stride.
        src_stride: usize,
        /// Destination element stride.
        dst_stride: usize,
        /// Per-element steps (element-relative offsets).
        body: Vec<Step>,
    },
}

impl Step {
    /// True if this step (or any nested step) touches the variable region.
    fn is_variable(&self) -> bool {
        match self {
            Step::VarBytes { .. } | Step::VarLoop { .. } => true,
            Step::FixedLoop { body, .. } => body.iter().any(Step::is_variable),
            _ => false,
        }
    }
}

/// Why a receiver field did or did not get data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldStatus {
    /// Matched a sender field by name.
    Matched,
    /// The sender does not provide this field; it was zero-filled.
    Missing,
    /// A sender field with this name exists but its shape is incompatible
    /// (e.g. scalar vs record); the receiver field was zero-filled.
    Incompatible,
}

/// Per-receiver-field match report.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldReport {
    /// Receiver field name.
    pub name: String,
    /// Outcome.
    pub status: FieldStatus,
}

/// A complete conversion plan from one wire format to one native layout.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The incoming (sender-native) layout.
    pub src: Arc<Layout>,
    /// The receiver's native layout.
    pub dst: Arc<Layout>,
    /// Steps whose effects stay within the fixed parts of both records.
    pub fixed_steps: Vec<Step>,
    /// Steps that produce variable-region data (strings, var arrays).
    pub var_steps: Vec<Step>,
    /// Per-receiver-field outcomes.
    pub reports: Vec<FieldReport>,
    /// True when the two layouts are bit-for-bit interchangeable.
    pub identical: bool,
    /// True when the receiver can use the wire record in place — either the
    /// layouts are identical, or the wire record is a compatible superset
    /// (extra fields appended without moving expected ones, §4.4). This is
    /// the condition for the zero-copy receive path.
    pub zero_copy: bool,
    /// Sender fields with no receiver counterpart (ignored, per §4.4).
    pub ignored_fields: Vec<String>,
}

impl Plan {
    /// Build a conversion plan from `src` (wire) to `dst` (native).
    pub fn build(src: Arc<Layout>, dst: Arc<Layout>) -> Plan {
        let _span = pbio_obs::Span::enter(crate::metrics::plan_build_ns());
        let identical = src.wire_identical(&dst);
        let zero_copy = identical || dst.zero_copy_prefix_of(&src);
        let mut fixed_steps = Vec::new();
        let mut var_steps = Vec::new();
        let mut reports = Vec::with_capacity(dst.fields().len());

        for dfield in dst.fields() {
            match src.field(&dfield.name) {
                None => {
                    reports.push(FieldReport {
                        name: dfield.name.clone(),
                        status: FieldStatus::Missing,
                    });
                    fixed_steps.push(Step::ZeroFill {
                        dst: dfield.offset,
                        len: dfield.size,
                    });
                }
                Some(sfield) => {
                    let mut steps = Vec::new();
                    let ok = build_pair(
                        &sfield.ty,
                        &dfield.ty,
                        sfield.offset,
                        dfield.offset,
                        src.endianness(),
                        dst.endianness(),
                        &mut steps,
                    );
                    if ok {
                        reports.push(FieldReport {
                            name: dfield.name.clone(),
                            status: FieldStatus::Matched,
                        });
                        for s in steps {
                            if s.is_variable() {
                                var_steps.push(s);
                            } else {
                                fixed_steps.push(s);
                            }
                        }
                    } else {
                        reports.push(FieldReport {
                            name: dfield.name.clone(),
                            status: FieldStatus::Incompatible,
                        });
                        fixed_steps.push(Step::ZeroFill {
                            dst: dfield.offset,
                            len: dfield.size,
                        });
                    }
                }
            }
        }

        let ignored_fields = src
            .fields()
            .iter()
            .filter(|sf| dst.field(&sf.name).is_none())
            .map(|sf| sf.name.clone())
            .collect();

        let fixed_steps = merge_copies(fixed_steps);
        Plan {
            src,
            dst,
            fixed_steps,
            var_steps,
            reports,
            identical,
            zero_copy,
            ignored_fields,
        }
    }

    /// All steps, fixed first (the order the interpreter executes them).
    pub fn steps(&self) -> impl Iterator<Item = &Step> {
        self.fixed_steps.iter().chain(self.var_steps.iter())
    }

    /// Report for one receiver field.
    pub fn report(&self, name: &str) -> Option<FieldStatus> {
        self.reports
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.status)
    }
}

/// Build steps converting one (src type, dst type) pair. Returns false if the
/// shapes are incompatible (caller zero-fills).
fn build_pair(
    sty: &ConcreteType,
    dty: &ConcreteType,
    soff: usize,
    doff: usize,
    se: Endianness,
    de: Endianness,
    out: &mut Vec<Step>,
) -> bool {
    // Scalar -> scalar.
    if let (Some(ssig), Some(dsig)) = (ScalarSig::of(sty, se), ScalarSig::of(dty, de)) {
        out.push(scalar_step(ssig, dsig, soff, doff));
        return true;
    }
    match (sty, dty) {
        (
            ConcreteType::FixedArray {
                elem: selem,
                count: scount,
                stride: sstride,
            },
            ConcreteType::FixedArray {
                elem: delem,
                count: dcount,
                stride: dstride,
            },
        ) => {
            let n = (*scount).min(*dcount);
            if !emit_array(selem, delem, *sstride, *dstride, n, soff, doff, se, de, out) {
                return false;
            }
            if dcount > scount {
                out.push(Step::ZeroFill {
                    dst: doff + n * dstride,
                    len: (dcount - n) * dstride,
                });
            }
            true
        }
        (ConcreteType::Record(slay), ConcreteType::Record(dlay)) => {
            // Recursive by-name matching of subfields, inlined with adjusted
            // offsets (the paper's "subroutines to convert complex subtypes").
            for df in dlay.fields() {
                match slay.field(&df.name) {
                    None => out.push(Step::ZeroFill {
                        dst: doff + df.offset,
                        len: df.size,
                    }),
                    Some(sf) => {
                        if !build_pair(
                            &sf.ty,
                            &df.ty,
                            soff + sf.offset,
                            doff + df.offset,
                            slay.endianness(),
                            dlay.endianness(),
                            out,
                        ) {
                            out.push(Step::ZeroFill {
                                dst: doff + df.offset,
                                len: df.size,
                            });
                        }
                    }
                }
            }
            true
        }
        (ConcreteType::String, ConcreteType::String) => {
            out.push(Step::VarBytes {
                src: soff,
                dst: doff,
            });
            true
        }
        (
            ConcreteType::VarArray {
                elem: selem,
                stride: sstride,
                ..
            },
            ConcreteType::VarArray {
                elem: delem,
                stride: dstride,
                ..
            },
        ) => {
            let mut body = Vec::new();
            if !build_pair(selem, delem, 0, 0, se, de, &mut body) {
                return false;
            }
            out.push(Step::VarLoop {
                src: soff,
                dst: doff,
                src_stride: *sstride,
                dst_stride: *dstride,
                body,
            });
            true
        }
        _ => false,
    }
}

fn scalar_step(from: ScalarSig, to: ScalarSig, src: usize, dst: usize) -> Step {
    if from.copy_compatible(&to) {
        Step::CopyBytes {
            src,
            dst,
            len: from.w as usize,
        }
    } else if from.swap_compatible(&to) {
        Step::SwapScalar {
            w: from.w,
            src,
            dst,
        }
    } else {
        Step::ConvScalar { from, to, src, dst }
    }
}

#[allow(clippy::too_many_arguments)]
fn emit_array(
    selem: &ConcreteType,
    delem: &ConcreteType,
    sstride: usize,
    dstride: usize,
    n: usize,
    soff: usize,
    doff: usize,
    se: Endianness,
    de: Endianness,
    out: &mut Vec<Step>,
) -> bool {
    if n == 0 {
        return true;
    }
    let mut body = Vec::new();
    if !build_pair(selem, delem, 0, 0, se, de, &mut body) {
        return false;
    }
    // Whole-array fast paths when elements are dense on both sides.
    if body.len() == 1 {
        match body[0] {
            Step::CopyBytes {
                src: 0,
                dst: 0,
                len,
            } if len == sstride && len == dstride => {
                out.push(Step::CopyBytes {
                    src: soff,
                    dst: doff,
                    len: n * len,
                });
                return true;
            }
            _ => {}
        }
    }
    out.push(Step::FixedLoop {
        count: n,
        src_stride: sstride,
        dst_stride: dstride,
        src: soff,
        dst: doff,
        body,
    });
    true
}

/// Merge adjacent steps that are contiguous on both sides: `CopyBytes` runs
/// become one big copy (what makes the homogeneous mismatch case of Figure 7
/// cost roughly one `memcpy` per contiguous region rather than one per
/// field), `ZeroFill` runs coalesce, and runs of same-width `SwapScalar`s
/// whose scalars are dense on both sides fuse into a single
/// [`Step::SwapRun`] — one step (and one DCG block instruction) per run, so
/// a struct of many like-typed fields converts like an array.
fn merge_copies(steps: Vec<Step>) -> Vec<Step> {
    let mut out: Vec<Step> = Vec::with_capacity(steps.len());
    for s in steps {
        if let (
            Some(Step::CopyBytes {
                src: psrc,
                dst: pdst,
                len: plen,
            }),
            Step::CopyBytes { src, dst, len },
        ) = (out.last_mut(), &s)
        {
            if *psrc + *plen == *src && *pdst + *plen == *dst {
                *plen += *len;
                continue;
            }
        }
        // Merge adjacent zero-fills too.
        if let (
            Some(Step::ZeroFill {
                dst: pdst,
                len: plen,
            }),
            Step::ZeroFill { dst, len },
        ) = (out.last_mut(), &s)
        {
            if *pdst + *plen == *dst {
                *plen += *len;
                continue;
            }
        }
        // Fuse same-width byte-swaps over dense runs. A pair of adjacent
        // SwapScalars starts a SwapRun; further scalars extend it.
        if let Step::SwapScalar { w, src, dst } = &s {
            let stride = *w as usize;
            let pair = match out.last() {
                Some(Step::SwapScalar {
                    w: pw,
                    src: psrc,
                    dst: pdst,
                }) if pw == w && *psrc + stride == *src && *pdst + stride == *dst => {
                    Some(Step::SwapRun {
                        w: *w,
                        src: *psrc,
                        dst: *pdst,
                        count: 2,
                    })
                }
                _ => None,
            };
            if let Some(run) = pair {
                *out.last_mut().unwrap() = run;
                continue;
            }
            if let Some(Step::SwapRun {
                w: pw,
                src: psrc,
                dst: pdst,
                count,
            }) = out.last_mut()
            {
                if *pw == *w && *psrc + *count * stride == *src && *pdst + *count * stride == *dst {
                    *count += 1;
                    continue;
                }
            }
        }
        out.push(s);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbio_types::arch::ArchProfile;
    use pbio_types::schema::{AtomType, FieldDecl, Schema, TypeDesc};

    /// True if every receiver field matched a sender field.
    fn fully_matched(plan: &Plan) -> bool {
        plan.reports
            .iter()
            .all(|r| r.status == FieldStatus::Matched)
    }

    fn layouts(schema: &Schema, sp: &ArchProfile, dp: &ArchProfile) -> (Arc<Layout>, Arc<Layout>) {
        (
            Arc::new(Layout::of(schema, sp).unwrap()),
            Arc::new(Layout::of(schema, dp).unwrap()),
        )
    }

    fn mixed() -> Schema {
        Schema::new(
            "mixed",
            vec![
                FieldDecl::atom("tag", AtomType::Char),
                FieldDecl::atom("x", AtomType::CDouble),
                FieldDecl::atom("count", AtomType::CInt),
                FieldDecl::atom("id", AtomType::CLong),
            ],
        )
        .unwrap()
    }

    #[test]
    fn identical_layouts_plan_is_zero_copy() {
        let (s, d) = layouts(&mixed(), &ArchProfile::SPARC_V8, &ArchProfile::SPARC_V8);
        let plan = Plan::build(s, d);
        assert!(plan.identical);
        assert!(fully_matched(&plan));
    }

    #[test]
    fn heterogeneous_plan_swaps_and_resizes() {
        // sparc-v8 (BE, long=4) -> x86-64 (LE, long=8): doubles swap, longs
        // swap *and* widen.
        let (s, d) = layouts(&mixed(), &ArchProfile::SPARC_V8, &ArchProfile::X86_64);
        let plan = Plan::build(s, d);
        assert!(!plan.identical);
        assert!(fully_matched(&plan));
        let has_swap = plan
            .fixed_steps
            .iter()
            .any(|s| matches!(s, Step::SwapScalar { .. }));
        let has_conv = plan
            .fixed_steps
            .iter()
            .any(|s| matches!(s, Step::ConvScalar { from, to, .. } if from.w == 4 && to.w == 8));
        assert!(has_swap, "{:?}", plan.fixed_steps);
        assert!(has_conv, "{:?}", plan.fixed_steps);
    }

    #[test]
    fn same_endian_layout_shift_uses_copies() {
        // sparc-v8 vs mips-64: both BE, but long width differs (4 vs 8) so
        // offsets shift; most fields become copies at different offsets.
        let (s, d) = layouts(&mixed(), &ArchProfile::SPARC_V8, &ArchProfile::MIPS_64);
        let plan = Plan::build(s, d);
        assert!(!plan.identical);
        assert!(fully_matched(&plan));
        assert!(plan
            .fixed_steps
            .iter()
            .all(|s| !matches!(s, Step::SwapScalar { .. })));
    }

    #[test]
    fn contiguous_copies_merge() {
        // Homogeneous pair: every field is CopyBytes and everything is
        // contiguous -> a single merged copy of the full record.
        let (s, d) = layouts(&mixed(), &ArchProfile::X86, &ArchProfile::X86);
        let plan = Plan::build(s, d);
        // char@0 + pad + double/int/long contiguous from 4: two regions at
        // most; padding gaps break merges only where fields aren't adjacent.
        let copies: Vec<_> = plan
            .fixed_steps
            .iter()
            .filter(|s| matches!(s, Step::CopyBytes { .. }))
            .collect();
        assert!(copies.len() <= 2, "{copies:?}");
    }

    #[test]
    fn adjacent_swaps_fuse_into_a_run() {
        // 16 consecutive i32 fields across an endianness flip: dense,
        // same-width swaps on both sides fuse into one SwapRun.
        let schema = Schema::new(
            "regs",
            (0..16)
                .map(|i| FieldDecl::atom(format!("r{i}"), AtomType::I32))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let (s, d) = layouts(&schema, &ArchProfile::SPARC_V8, &ArchProfile::X86);
        let plan = Plan::build(s, d);
        assert_eq!(plan.fixed_steps.len(), 1, "{:?}", plan.fixed_steps);
        assert!(matches!(
            plan.fixed_steps[0],
            Step::SwapRun {
                w: 4,
                src: 0,
                dst: 0,
                count: 16
            }
        ));
    }

    #[test]
    fn swap_runs_stop_at_width_changes_and_gaps() {
        // i32 i32 | i64 i64 | i16: three runs (one per width; the pair
        // fusions), never one — widths must match and offsets stay dense.
        let schema = Schema::new(
            "mixedw",
            vec![
                FieldDecl::atom("a", AtomType::I32),
                FieldDecl::atom("b", AtomType::I32),
                FieldDecl::atom("c", AtomType::I64),
                FieldDecl::atom("d", AtomType::I64),
                FieldDecl::atom("e", AtomType::I16),
            ],
        )
        .unwrap();
        let (s, d) = layouts(&schema, &ArchProfile::SPARC_V8, &ArchProfile::X86);
        let plan = Plan::build(s, d);
        let runs: Vec<_> = plan
            .fixed_steps
            .iter()
            .filter_map(|s| match s {
                Step::SwapRun { w, count, .. } => Some((*w, *count)),
                _ => None,
            })
            .collect();
        assert_eq!(runs, vec![(4, 2), (8, 2)], "{:?}", plan.fixed_steps);
        assert!(plan
            .fixed_steps
            .iter()
            .any(|s| matches!(s, Step::SwapScalar { w: 2, .. })));
    }

    #[test]
    fn unexpected_field_is_ignored() {
        let sender = mixed()
            .with_field_prepended(FieldDecl::atom("extra", AtomType::CInt))
            .unwrap();
        let s = Arc::new(Layout::of(&sender, &ArchProfile::X86).unwrap());
        let d = Arc::new(Layout::of(&mixed(), &ArchProfile::X86).unwrap());
        let plan = Plan::build(s, d);
        assert!(fully_matched(&plan));
        assert_eq!(plan.ignored_fields, vec!["extra".to_string()]);
        assert!(!plan.identical, "offsets shifted; conversion required");
    }

    #[test]
    fn missing_field_is_zero_filled_and_reported() {
        let sender = mixed().without_field("id").unwrap();
        let s = Arc::new(Layout::of(&sender, &ArchProfile::X86).unwrap());
        let d = Arc::new(Layout::of(&mixed(), &ArchProfile::X86).unwrap());
        let plan = Plan::build(s, d);
        assert_eq!(plan.report("id"), Some(FieldStatus::Missing));
        assert!(plan
            .fixed_steps
            .iter()
            .any(|s| matches!(s, Step::ZeroFill { .. })));
    }

    #[test]
    fn incompatible_shape_is_reported() {
        let sender = Schema::new(
            "mixed",
            vec![FieldDecl::new("x", TypeDesc::array(AtomType::CDouble, 2))],
        )
        .unwrap();
        let receiver = Schema::new("mixed", vec![FieldDecl::atom("x", AtomType::CDouble)]).unwrap();
        let s = Arc::new(Layout::of(&sender, &ArchProfile::X86).unwrap());
        let d = Arc::new(Layout::of(&receiver, &ArchProfile::X86).unwrap());
        let plan = Plan::build(s, d);
        assert_eq!(plan.report("x"), Some(FieldStatus::Incompatible));
    }

    #[test]
    fn dense_same_repr_array_becomes_single_copy() {
        let schema = Schema::new(
            "arr",
            vec![FieldDecl::new("v", TypeDesc::array(AtomType::CDouble, 100))],
        )
        .unwrap();
        let (s, d) = layouts(&schema, &ArchProfile::X86, &ArchProfile::X86_64);
        // Same endianness, same f64: the whole array is one CopyBytes.
        let plan = Plan::build(s, d);
        assert_eq!(plan.fixed_steps.len(), 1);
        assert!(matches!(
            plan.fixed_steps[0],
            Step::CopyBytes { len: 800, .. }
        ));
    }

    #[test]
    fn swapped_array_becomes_loop() {
        let schema = Schema::new(
            "arr",
            vec![FieldDecl::new("v", TypeDesc::array(AtomType::CDouble, 100))],
        )
        .unwrap();
        let (s, d) = layouts(&schema, &ArchProfile::SPARC_V8, &ArchProfile::X86);
        let plan = Plan::build(s, d);
        assert_eq!(plan.fixed_steps.len(), 1);
        match &plan.fixed_steps[0] {
            Step::FixedLoop {
                count: 100, body, ..
            } => {
                assert_eq!(body.len(), 1);
                assert!(matches!(body[0], Step::SwapScalar { w: 8, .. }));
            }
            other => panic!("expected loop, got {other:?}"),
        }
    }

    #[test]
    fn array_shrink_and_grow() {
        let sender = Schema::new(
            "a",
            vec![FieldDecl::new("v", TypeDesc::array(AtomType::CInt, 4))],
        )
        .unwrap();
        let recv_small = Schema::new(
            "a",
            vec![FieldDecl::new("v", TypeDesc::array(AtomType::CInt, 2))],
        )
        .unwrap();
        let recv_big = Schema::new(
            "a",
            vec![FieldDecl::new("v", TypeDesc::array(AtomType::CInt, 8))],
        )
        .unwrap();
        let s = Arc::new(Layout::of(&sender, &ArchProfile::X86).unwrap());
        let d1 = Arc::new(Layout::of(&recv_small, &ArchProfile::X86).unwrap());
        let d2 = Arc::new(Layout::of(&recv_big, &ArchProfile::X86).unwrap());
        let p1 = Plan::build(s.clone(), d1);
        assert!(matches!(p1.fixed_steps[0], Step::CopyBytes { len: 8, .. }));
        let p2 = Plan::build(s, d2);
        assert!(p2
            .fixed_steps
            .iter()
            .any(|s| matches!(s, Step::ZeroFill { len: 16, .. })));
    }

    #[test]
    fn var_fields_split_into_var_steps() {
        let schema = Schema::new(
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
        let (s, d) = layouts(&schema, &ArchProfile::SPARC_V8, &ArchProfile::X86);
        let plan = Plan::build(s, d);
        assert_eq!(plan.var_steps.len(), 2);
        assert!(matches!(plan.var_steps[0], Step::VarLoop { .. }));
        assert!(matches!(plan.var_steps[1], Step::VarBytes { .. }));
    }

    #[test]
    fn nested_record_fields_match_by_name() {
        let inner_s = Arc::new(
            Schema::new(
                "inner",
                vec![
                    FieldDecl::atom("a", AtomType::CInt),
                    FieldDecl::atom("b", AtomType::CDouble),
                ],
            )
            .unwrap(),
        );
        // Receiver's inner record has reversed field order: matched by name.
        let inner_d = Arc::new(
            Schema::new(
                "inner",
                vec![
                    FieldDecl::atom("b", AtomType::CDouble),
                    FieldDecl::atom("a", AtomType::CInt),
                ],
            )
            .unwrap(),
        );
        let outer_s =
            Schema::new("o", vec![FieldDecl::new("in", TypeDesc::Record(inner_s))]).unwrap();
        let outer_d =
            Schema::new("o", vec![FieldDecl::new("in", TypeDesc::Record(inner_d))]).unwrap();
        let s = Arc::new(Layout::of(&outer_s, &ArchProfile::X86).unwrap());
        let d = Arc::new(Layout::of(&outer_d, &ArchProfile::X86).unwrap());
        let plan = Plan::build(s, d);
        assert!(fully_matched(&plan));
        assert_eq!(
            plan.fixed_steps
                .iter()
                .filter(|s| matches!(s, Step::CopyBytes { .. }))
                .count(),
            2
        );
    }
}
