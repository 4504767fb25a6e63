//! The dynamic-code-generation backend: compile a [`Plan`] once into a
//! `pbio-vrisc` program, then run that program per record.
//!
//! This reproduces §4.3's "Optimizing receiver-side costs for PBIO": "our
//! solution … is to employ dynamic code generation to create a customized
//! conversion subroutine for every incoming record type. These routines are
//! generated by the receiver on the fly, as soon as the wire format is
//! known." The generated code "accesses and stores data elements, converts
//! elements between basic types and calls subroutines to convert complex
//! subtypes" (§3) — here, field accesses become load/swap/store triples,
//! basic-type conversions become `Cvt*`/`SExt` instructions, and nested
//! types are inlined or compiled to counted loops.
//!
//! Two compilation modes mirror the paper's DCG-with/without-optimization
//! ablation:
//!
//! * [`CodegenMode::Naive`] — a literal translation: one `Ld;Bswap;St`
//!   triple per scalar, counted loops for arrays (what plain Vcode macro
//!   emission would produce).
//! * [`CodegenMode::Optimized`] — small arrays unrolled, uniform swap loops
//!   emitted as block [`pbio_vrisc::Inst::SwapRun`] ops, then the
//!   [`pbio_vrisc::opt`] peephole pass fuses and coalesces the rest.
//!
//! Variable-length steps (strings, var arrays) are executed by the
//! interpreter after the generated fixed-part code runs — the analogue of
//! generated code calling into runtime support routines.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pbio_types::arch::Endianness;
use pbio_vrisc::analysis::{analyze, Extents};
use pbio_vrisc::inst::{abi, Reg, Space};
use pbio_vrisc::opt::{optimize_with_stats, OptStats};
use pbio_vrisc::{run, run_straightline, Assembler, Program};

use crate::error::PbioError;
use crate::interp;
use crate::plan::{Plan, ScalarKind, ScalarSig, Step};
use crate::pool::{BufPool, PooledBuf};

/// Scratch register used for scalar traffic.
const SCRATCH: Reg = Reg(2);
/// First register of the per-loop-depth register file (3 per depth).
const LOOP_BASE: u8 = 4;
/// Maximum loop nesting depth the generator supports.
const MAX_LOOP_DEPTH: usize = 9;

/// Arrays up to this many elements are fully unrolled in optimized mode
/// (letting the peephole pass coalesce them); longer arrays get counted
/// loops (naive) or block ops (optimized).
const UNROLL_LIMIT: usize = 32;

/// How conversion code is generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodegenMode {
    /// Literal per-scalar translation with counted loops.
    Naive,
    /// Unrolling, block emission and peephole optimization.
    Optimized,
}

/// Compilation statistics (the one-time DCG cost the paper amortizes).
#[derive(Debug, Clone, Copy)]
pub struct CompileStats {
    /// Wall time spent generating and optimizing.
    pub elapsed: Duration,
    /// Instructions in the final program.
    pub program_len: usize,
    /// Peephole statistics (zeroed in naive mode).
    pub opt: OptStats,
}

/// A compiled conversion routine: one vrisc program per (wire format,
/// native format) pair, plus the interpreter residue for variable parts.
#[derive(Debug, Clone)]
pub struct DcgConverter {
    plan: Arc<Plan>,
    program: Program,
    stats: CompileStats,
    /// Proven memory footprint when the program is straight-line, enabling
    /// the single-bounds-check execution path.
    extents: Option<Extents>,
}

impl DcgConverter {
    /// Generate conversion code for `plan`.
    pub fn compile(plan: Arc<Plan>, mode: CodegenMode) -> Result<DcgConverter, PbioError> {
        let _span = pbio_obs::Span::enter(crate::metrics::dcg_compile_ns());
        let start = Instant::now();
        let mut gen = Gen {
            asm: Assembler::new(),
            mode,
            depth: 0,
        };
        gen.steps(&plan.fixed_steps, abi::SRC, abi::DST)?;
        let program = gen
            .asm
            .finish()
            .map_err(|e| PbioError::Protocol(format!("codegen produced invalid program: {e}")))?;
        let (program, opt) = match mode {
            CodegenMode::Naive => {
                let len = program.len();
                (
                    program,
                    OptStats {
                        before: len,
                        after: len,
                        ..OptStats::default()
                    },
                )
            }
            CodegenMode::Optimized => optimize_with_stats(&program),
        };
        let stats = CompileStats {
            elapsed: start.elapsed(),
            program_len: program.len(),
            opt,
        };
        let extents = analyze(&program);
        Ok(DcgConverter {
            plan,
            program,
            stats,
            extents,
        })
    }

    /// The proven memory footprint when the generated program is
    /// straight-line (fixed records compile to straight-line code; records
    /// with big counted loops or variable parts do not).
    pub fn extents(&self) -> Option<Extents> {
        self.extents
    }

    /// The compiled program (inspectable, like dumping generated code).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Compilation statistics.
    pub fn stats(&self) -> &CompileStats {
        &self.stats
    }

    /// The plan this converter was compiled from.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Convert one record into a reusable output buffer.
    pub fn convert_into(&self, src: &[u8], out: &mut Vec<u8>) -> Result<(), PbioError> {
        let _span = pbio_obs::Span::enter(crate::metrics::convert_dcg_ns());
        let dst_size = self.plan.dst.size();
        out.clear();
        out.resize(dst_size, 0);
        match &self.extents {
            // Straight-line program: one bounds check for the whole record.
            Some(extents) => run_straightline(&self.program, extents, src, &mut out[..])?,
            None => {
                run(&self.program, src, &mut out[..], &[])?;
            }
        }
        if !self.plan.var_steps.is_empty() {
            interp::exec_steps(
                &self.plan.var_steps,
                src,
                0,
                out,
                0,
                self.plan.src.endianness(),
                self.plan.dst.endianness(),
            )?;
        }
        Ok(())
    }

    /// Convert one record, allocating the output.
    ///
    /// A convenience for tests and one-shot tools. Hot paths use
    /// [`DcgConverter::convert_into`] (a caller-reused buffer) or
    /// [`DcgConverter::convert_pooled`].
    pub fn convert(&self, src: &[u8]) -> Result<Vec<u8>, PbioError> {
        let mut out = Vec::new();
        self.convert_into(src, &mut out)?;
        Ok(out)
    }

    /// Convert into a buffer drawn from `pool` (it returns to the pool when
    /// the result drops): the steady state recycles a few buffers forever
    /// instead of allocating per record.
    pub fn convert_pooled(&self, src: &[u8], pool: &Arc<BufPool>) -> Result<PooledBuf, PbioError> {
        let mut out = pool.get(self.plan.dst.size());
        self.convert_into(src, &mut out)?;
        Ok(out)
    }
}

struct Gen {
    asm: Assembler,
    mode: CodegenMode,
    depth: usize,
}

impl Gen {
    fn steps(&mut self, steps: &[Step], sbase: Reg, dbase: Reg) -> Result<(), PbioError> {
        for step in steps {
            self.step(step, sbase, dbase, 0, 0)?;
        }
        Ok(())
    }

    /// Emit one step; `soff`/`doff` are extra displacements applied when a
    /// loop has been unrolled.
    fn step(
        &mut self,
        step: &Step,
        sbase: Reg,
        dbase: Reg,
        soff: i64,
        doff: i64,
    ) -> Result<(), PbioError> {
        match step {
            Step::CopyBytes { src, dst, len } => {
                self.asm.memcpy_imm(
                    sbase,
                    (*src as i64 + soff) as i32,
                    dbase,
                    (*dst as i64 + doff) as i32,
                    *len as u32,
                );
            }
            Step::ZeroFill { dst, len } => {
                self.asm
                    .memset_zero(dbase, (*dst as i64 + doff) as i32, *len as u32);
            }
            Step::SwapScalar { w, src, dst } => {
                let s = (*src as i64 + soff) as i32;
                let d = (*dst as i64 + doff) as i32;
                self.asm.ld(*w, SCRATCH, Space::Src, sbase, s);
                self.asm.bswap(*w, SCRATCH);
                self.asm.st(*w, dbase, d, SCRATCH);
            }
            Step::SwapRun { w, src, dst, count } => {
                let s = (*src as i64 + soff) as i32;
                let d = (*dst as i64 + doff) as i32;
                match self.mode {
                    // One block instruction for the whole run.
                    CodegenMode::Optimized => {
                        self.asm.swap_run(*w, sbase, s, dbase, d, *count as u32);
                    }
                    // Literal translation: the triples the unfused
                    // SwapScalars would have produced.
                    CodegenMode::Naive => {
                        let stride = *w as i32;
                        for i in 0..*count as i32 {
                            self.asm.ld(*w, SCRATCH, Space::Src, sbase, s + i * stride);
                            self.asm.bswap(*w, SCRATCH);
                            self.asm.st(*w, dbase, d + i * stride, SCRATCH);
                        }
                    }
                }
            }
            Step::ConvScalar { from, to, src, dst } => {
                let s = (*src as i64 + soff) as i32;
                let d = (*dst as i64 + doff) as i32;
                self.conv_scalar(*from, *to, sbase, s, dbase, d);
            }
            Step::FixedLoop {
                count,
                src_stride,
                dst_stride,
                src,
                dst,
                body,
            } => {
                self.fixed_loop(
                    *count,
                    *src_stride,
                    *dst_stride,
                    *src,
                    *dst,
                    body,
                    sbase,
                    dbase,
                    soff,
                    doff,
                )?;
            }
            Step::VarBytes { .. } | Step::VarLoop { .. } => {
                // Variable steps are executed by the interpreter residue; the
                // plan split guarantees none reach the generator.
                return Err(PbioError::Protocol(
                    "variable-length step reached the code generator".into(),
                ));
            }
        }
        Ok(())
    }

    /// Emit the canonical scalar conversion sequence (see module docs).
    fn conv_scalar(
        &mut self,
        from: ScalarSig,
        to: ScalarSig,
        sbase: Reg,
        s: i32,
        dbase: Reg,
        d: i32,
    ) {
        self.asm.ld(from.w, SCRATCH, Space::Src, sbase, s);
        if from.endian == Endianness::Big && from.w > 1 {
            self.asm.bswap(from.w, SCRATCH);
        }
        let from_float = from.kind == ScalarKind::Float;
        let to_float = to.kind == ScalarKind::Float;
        match (from_float, to_float) {
            (true, true) => {
                if from.w == 4 && to.w == 8 {
                    self.asm.cvt_f32_f64(SCRATCH);
                } else if from.w == 8 && to.w == 4 {
                    self.asm.cvt_f64_f32(SCRATCH);
                }
            }
            (true, false) => {
                if from.w == 4 {
                    self.asm.cvt_f32_f64(SCRATCH);
                }
                self.asm.cvt_f64_i64(SCRATCH);
            }
            (false, true) => {
                if from.kind == ScalarKind::Signed && from.w < 8 {
                    self.asm.sext(from.w, SCRATCH);
                }
                self.asm.cvt_i64_f64(SCRATCH);
                if to.w == 4 {
                    self.asm.cvt_f64_f32(SCRATCH);
                }
            }
            (false, false) => {
                if from.kind == ScalarKind::Signed && to.w > from.w {
                    self.asm.sext(from.w, SCRATCH);
                }
            }
        }
        if to.endian == Endianness::Big && to.w > 1 {
            self.asm.bswap(to.w, SCRATCH);
        }
        self.asm.st(to.w, dbase, d, SCRATCH);
    }

    #[allow(clippy::too_many_arguments)]
    fn fixed_loop(
        &mut self,
        count: usize,
        src_stride: usize,
        dst_stride: usize,
        src: usize,
        dst: usize,
        body: &[Step],
        sbase: Reg,
        dbase: Reg,
        soff: i64,
        doff: i64,
    ) -> Result<(), PbioError> {
        let s0 = src as i64 + soff;
        let d0 = dst as i64 + doff;

        if self.mode == CodegenMode::Optimized {
            // Uniform byte-swap loop -> a single block SwapRun.
            if let [Step::SwapScalar { w, src: 0, dst: 0 }] = body {
                if src_stride == *w as usize && dst_stride == *w as usize {
                    self.asm
                        .swap_run(*w, sbase, s0 as i32, dbase, d0 as i32, count as u32);
                    return Ok(());
                }
            }
            // Small loops: unroll and let the peephole coalesce.
            if count <= UNROLL_LIMIT {
                for i in 0..count {
                    for st in body {
                        self.step(
                            st,
                            sbase,
                            dbase,
                            s0 + (i * src_stride) as i64,
                            d0 + (i * dst_stride) as i64,
                        )?;
                    }
                }
                return Ok(());
            }
        }

        // Counted loop with fresh cursor registers for this nesting depth.
        if self.depth >= MAX_LOOP_DEPTH {
            return Err(PbioError::Protocol(format!(
                "array nesting deeper than {MAX_LOOP_DEPTH} levels"
            )));
        }
        let rs = Reg(LOOP_BASE + 3 * self.depth as u8);
        let rd = Reg(LOOP_BASE + 3 * self.depth as u8 + 1);
        let rc = Reg(LOOP_BASE + 3 * self.depth as u8 + 2);
        self.depth += 1;
        self.asm.add_imm(rs, sbase, s0);
        self.asm.add_imm(rd, dbase, d0);
        self.asm.mov_imm(rc, count as u64);
        let top = self.asm.new_label();
        self.asm.bind(top);
        for st in body {
            self.step(st, rs, rd, 0, 0)?;
        }
        self.asm.add_imm(rs, rs, src_stride as i64);
        self.asm.add_imm(rd, rd, dst_stride as i64);
        self.asm.add_imm(rc, rc, -1);
        self.asm.brnz(rc, top);
        self.depth -= 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbio_types::arch::ArchProfile;
    use pbio_types::layout::Layout;
    use pbio_types::schema::{AtomType, FieldDecl, Schema, TypeDesc};
    use pbio_types::value::{decode_native, encode_native, RecordValue, Value};

    use crate::interp::InterpConverter;

    fn mixed() -> Schema {
        Schema::new(
            "mixed",
            vec![
                FieldDecl::atom("tag", AtomType::Char),
                FieldDecl::atom("x", AtomType::CDouble),
                FieldDecl::atom("count", AtomType::CInt),
                FieldDecl::atom("flag", AtomType::Bool),
                FieldDecl::atom("id", AtomType::CLong),
                FieldDecl::atom("ratio", AtomType::CFloat),
                FieldDecl::new("samples", TypeDesc::array(AtomType::CDouble, 40)),
            ],
        )
        .unwrap()
    }

    fn mixed_value() -> RecordValue {
        RecordValue::new()
            .with("tag", Value::Char(b'Q'))
            .with("x", -17.625f64)
            .with("count", 123_456i32)
            .with("flag", true)
            .with("id", -98_765i64)
            .with("ratio", 0.25f64)
            .with(
                "samples",
                Value::Array((0..40).map(|i| Value::F64(i as f64 * 0.5 - 3.0)).collect()),
            )
    }

    /// Interp, naive DCG and optimized DCG must agree byte-for-byte.
    fn assert_backends_agree(
        schema_s: &Schema,
        schema_d: &Schema,
        sp: &ArchProfile,
        dp: &ArchProfile,
        value: &RecordValue,
    ) -> Vec<u8> {
        let slay = Arc::new(Layout::of(schema_s, sp).unwrap());
        let dlay = Arc::new(Layout::of(schema_d, dp).unwrap());
        let wire = encode_native(value, &slay).unwrap();
        let plan = Arc::new(Plan::build(slay, dlay));
        let interp = InterpConverter::new(plan.clone()).convert(&wire).unwrap();
        let naive = DcgConverter::compile(plan.clone(), CodegenMode::Naive)
            .unwrap()
            .convert(&wire)
            .unwrap();
        let opt = DcgConverter::compile(plan, CodegenMode::Optimized)
            .unwrap()
            .convert(&wire)
            .unwrap();
        assert_eq!(interp, naive, "interp vs naive DCG");
        assert_eq!(interp, opt, "interp vs optimized DCG");
        interp
    }

    #[test]
    fn all_profile_pairs_all_backends() {
        let schema = mixed();
        let value = mixed_value();
        for sp in ArchProfile::all() {
            for dp in ArchProfile::all() {
                let dlay = Layout::of(&schema, dp).unwrap();
                let out = assert_backends_agree(&schema, &schema, sp, dp, &value);
                let got = decode_native(&out, &dlay).unwrap();
                assert_eq!(got, value, "{} -> {}", sp.name, dp.name);
            }
        }
    }

    #[test]
    fn optimized_program_is_much_smaller_for_uniform_arrays() {
        let schema = Schema::new(
            "arr",
            vec![FieldDecl::new(
                "v",
                TypeDesc::array(AtomType::CDouble, 1000),
            )],
        )
        .unwrap();
        let slay = Arc::new(Layout::of(&schema, &ArchProfile::SPARC_V8).unwrap());
        let dlay = Arc::new(Layout::of(&schema, &ArchProfile::X86).unwrap());
        let plan = Arc::new(Plan::build(slay, dlay));
        let naive = DcgConverter::compile(plan.clone(), CodegenMode::Naive).unwrap();
        let opt = DcgConverter::compile(plan, CodegenMode::Optimized).unwrap();
        // Naive: a counted loop (~10 instructions). Optimized: one SwapRun.
        assert!(opt.program().len() < naive.program().len());
        assert!(opt.program().len() <= 2, "{}", opt.program());
    }

    #[test]
    fn fused_swap_runs_agree_across_backends() {
        // 16 consecutive i32s fuse into one SwapRun at the plan level; the
        // optimized backend emits a block instruction, naive unrolls the
        // triples, the interpreter loops — all byte-identical.
        let schema = Schema::new(
            "regs",
            (0..16)
                .map(|i| FieldDecl::atom(format!("r{i}"), AtomType::I32))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let mut value = RecordValue::new();
        for i in 0..16 {
            value.set(format!("r{i}"), Value::I64(i64::from(i) * -7_654_321));
        }
        let slay = Arc::new(Layout::of(&schema, &ArchProfile::SPARC_V8).unwrap());
        let dlay = Arc::new(Layout::of(&schema, &ArchProfile::X86).unwrap());
        let plan = Arc::new(Plan::build(slay, dlay.clone()));
        assert!(matches!(
            plan.fixed_steps[..],
            [Step::SwapRun {
                w: 4,
                count: 16,
                ..
            }]
        ));
        let out = assert_backends_agree(
            &schema,
            &schema,
            &ArchProfile::SPARC_V8,
            &ArchProfile::X86,
            &value,
        );
        assert_eq!(decode_native(&out, &dlay).unwrap(), value);
        // And the optimized program is a single block op (plus halt).
        let opt = DcgConverter::compile(plan, CodegenMode::Optimized).unwrap();
        assert!(opt.program().len() <= 2, "{}", opt.program());
    }

    #[test]
    fn unexpected_field_conversion_matches_across_backends() {
        let sender = mixed()
            .with_field_prepended(FieldDecl::atom("extra", AtomType::CDouble))
            .unwrap();
        let mut value = mixed_value();
        value.set("extra", 1.5f64);
        // Homogeneous (fig 7) and heterogeneous (fig 6) mismatch cases.
        assert_backends_agree(
            &sender,
            &mixed(),
            &ArchProfile::X86,
            &ArchProfile::X86,
            &value,
        );
        assert_backends_agree(
            &sender,
            &mixed(),
            &ArchProfile::SPARC_V8,
            &ArchProfile::X86,
            &value,
        );
    }

    #[test]
    fn deep_nesting_within_limit_compiles() {
        // 3-dimensional array of i16 with swaps: nested loops in naive mode.
        let schema = Schema::new(
            "deep",
            vec![FieldDecl::new(
                "m",
                TypeDesc::Fixed(
                    Box::new(TypeDesc::Fixed(
                        Box::new(TypeDesc::array(AtomType::I16, 40)),
                        5,
                    )),
                    4,
                ),
            )],
        )
        .unwrap();
        let mut items = Vec::new();
        for i in 0..4 {
            let mut rows = Vec::new();
            for j in 0..5 {
                rows.push(Value::Array(
                    (0..40)
                        .map(|k| Value::I64(((i * 200 + j * 40 + k) as i64) - 300))
                        .collect(),
                ));
            }
            items.push(Value::Array(rows));
        }
        let value = RecordValue::new().with("m", Value::Array(items));
        assert_backends_agree(
            &schema,
            &schema,
            &ArchProfile::SPARC_V8,
            &ArchProfile::X86,
            &value,
        );
    }

    #[test]
    fn var_fields_use_hybrid_path() {
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
        let value = RecordValue::new()
            .with("n", 3i32)
            .with(
                "data",
                Value::Array(vec![1.0.into(), 2.0.into(), 3.0.into()]),
            )
            .with("label", "hybrid");
        let out = assert_backends_agree(
            &schema,
            &schema,
            &ArchProfile::SPARC_V8,
            &ArchProfile::X86_64,
            &value,
        );
        let dlay = Layout::of(&schema, &ArchProfile::X86_64).unwrap();
        assert_eq!(decode_native(&out, &dlay).unwrap(), value);
    }

    #[test]
    fn compile_stats_populated() {
        let schema = mixed();
        let slay = Arc::new(Layout::of(&schema, &ArchProfile::SPARC_V8).unwrap());
        let dlay = Arc::new(Layout::of(&schema, &ArchProfile::X86).unwrap());
        let plan = Arc::new(Plan::build(slay, dlay));
        let conv = DcgConverter::compile(plan, CodegenMode::Optimized).unwrap();
        assert!(conv.stats().program_len > 0);
        assert!(conv.stats().opt.before >= conv.stats().opt.after);
    }

    #[test]
    fn truncated_message_faults_cleanly() {
        let schema = mixed();
        let slay = Arc::new(Layout::of(&schema, &ArchProfile::SPARC_V8).unwrap());
        let dlay = Arc::new(Layout::of(&schema, &ArchProfile::X86).unwrap());
        let wire = encode_native(&mixed_value(), &slay).unwrap();
        let plan = Arc::new(Plan::build(slay, dlay));
        let conv = DcgConverter::compile(plan, CodegenMode::Optimized).unwrap();
        assert!(matches!(conv.convert(&wire[..10]), Err(PbioError::Exec(_))));
    }
}
