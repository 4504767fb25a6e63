//! The Vcode-style assembler: generate instructions into a buffer, bind
//! labels, seal into an executable [`Program`].
//!
//! Mirrors Vcode's usage pattern: the PBIO conversion code generator calls
//! emission methods (`ld_u`, `bswap`, `st`, `brnz`, ...) as it walks the
//! incoming wire format, then calls [`Assembler::finish`] once. `finish`
//! resolves label fixups and *validates the whole program* (register bounds,
//! widths, bound labels, in-range targets), so the executors never have to —
//! the validate-once / run-fast split idiomatic to HPC Rust.

use std::fmt;

use crate::inst::{Inst, Reg, Space, NUM_REGS};

/// An abstract jump target handed out by [`Assembler::new_label`] and bound
/// with [`Assembler::bind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(u32);

/// Errors detected while sealing a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A label was used in a branch but never bound.
    UnboundLabel(u32),
    /// A label was bound twice.
    ReboundLabel(u32),
    /// A register index ≥ [`NUM_REGS`].
    BadRegister(u8),
    /// A load/store/extend width outside {1, 2, 4, 8}, or a 1-byte swap.
    BadWidth(u8),
    /// The program has no instructions.
    Empty,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UnboundLabel(l) => write!(f, "label L{l} used but never bound"),
            AsmError::ReboundLabel(l) => write!(f, "label L{l} bound twice"),
            AsmError::BadRegister(r) => write!(f, "register r{r} out of range"),
            AsmError::BadWidth(w) => write!(f, "invalid access width {w}"),
            AsmError::Empty => write!(f, "empty program"),
        }
    }
}

impl std::error::Error for AsmError {}

/// A sealed, validated instruction sequence ready for execution.
///
/// Programs always end with [`Inst::Halt`] (appended by [`Assembler::finish`]
/// if the generator did not emit one), so the executor's program counter can
/// never run off the end.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    insts: Vec<Inst>,
}

impl Program {
    /// The validated instructions.
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// Number of instructions (a proxy for generated-code size, reported by
    /// the DCG statistics in benchmarks).
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if the program is just a `Halt`.
    pub fn is_empty(&self) -> bool {
        self.insts.len() <= 1
    }

    /// Build a program directly from instructions (used by the optimizer,
    /// which transforms already-validated programs). Validates the result.
    pub fn from_insts(insts: Vec<Inst>) -> Result<Program, AsmError> {
        validate(&insts)?;
        Ok(Program { insts })
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, inst) in self.insts.iter().enumerate() {
            writeln!(f, "{i:4}: {inst:?}")?;
        }
        Ok(())
    }
}

const UNBOUND: u32 = u32::MAX;

/// Incremental program builder with label fixup — the Vcode emission API.
#[derive(Debug, Default)]
pub struct Assembler {
    insts: Vec<Inst>,
    /// Label id -> bound instruction index (UNBOUND until bound).
    labels: Vec<u32>,
    /// (instruction index, label id) pairs needing fixup at finish.
    fixups: Vec<(u32, u32)>,
    errors: Vec<AsmError>,
}

impl Assembler {
    /// Start an empty program.
    pub fn new() -> Assembler {
        Assembler::default()
    }

    /// Allocate a fresh, unbound label.
    pub fn new_label(&mut self) -> Label {
        let id = self.labels.len() as u32;
        self.labels.push(UNBOUND);
        Label(id)
    }

    /// Bind `label` to the *next* emitted instruction.
    pub fn bind(&mut self, label: Label) {
        let slot = &mut self.labels[label.0 as usize];
        if *slot != UNBOUND {
            self.errors.push(AsmError::ReboundLabel(label.0));
            return;
        }
        *slot = self.insts.len() as u32;
    }

    fn check_reg(&mut self, r: Reg) -> Reg {
        if (r.0 as usize) >= NUM_REGS {
            self.errors.push(AsmError::BadRegister(r.0));
        }
        r
    }

    fn check_width(&mut self, w: u8) -> u8 {
        if !matches!(w, 1 | 2 | 4 | 8) {
            self.errors.push(AsmError::BadWidth(w));
        }
        w
    }

    fn emit(&mut self, inst: Inst) {
        self.insts.push(inst);
    }

    /// Emit `r <- zext(mem[space][base+disp], w)`.
    pub fn ld(&mut self, w: u8, r: Reg, space: Space, base: Reg, disp: i32) {
        let w = self.check_width(w);
        let r = self.check_reg(r);
        let base = self.check_reg(base);
        self.emit(Inst::Ld {
            w,
            r,
            space,
            base,
            disp,
        });
    }

    /// Emit a store of the low `w` bytes of `r` to `Dst[base+disp]`.
    pub fn st(&mut self, w: u8, base: Reg, disp: i32, r: Reg) {
        let w = self.check_width(w);
        let r = self.check_reg(r);
        let base = self.check_reg(base);
        self.emit(Inst::St { w, base, disp, r });
    }

    /// Emit an in-place byte swap of the low `w` bytes of `r` (w ∈ {2,4,8}).
    pub fn bswap(&mut self, w: u8, r: Reg) {
        if !matches!(w, 2 | 4 | 8) {
            self.errors.push(AsmError::BadWidth(w));
        }
        let r = self.check_reg(r);
        self.emit(Inst::Bswap { w, r });
    }

    /// Emit an in-place sign extension of the low `from` bytes of `r`.
    pub fn sext(&mut self, from: u8, r: Reg) {
        let from = self.check_width(from);
        let r = self.check_reg(r);
        self.emit(Inst::SExt { from, r });
    }

    /// Emit `r <- v`.
    pub fn mov_imm(&mut self, r: Reg, v: u64) {
        let r = self.check_reg(r);
        self.emit(Inst::MovImm { r, v });
    }

    /// Emit `r <- a + b`.
    pub fn add(&mut self, r: Reg, a: Reg, b: Reg) {
        let r = self.check_reg(r);
        let a = self.check_reg(a);
        let b = self.check_reg(b);
        self.emit(Inst::Add { r, a, b });
    }

    /// Emit `r <- a + v`.
    pub fn add_imm(&mut self, r: Reg, a: Reg, v: i64) {
        let r = self.check_reg(r);
        let a = self.check_reg(a);
        self.emit(Inst::AddImm { r, a, v });
    }

    fn alu3(&mut self, r: Reg, a: Reg, b: Reg, make: impl FnOnce(Reg, Reg, Reg) -> Inst) {
        let r = self.check_reg(r);
        let a = self.check_reg(a);
        let b = self.check_reg(b);
        self.emit(make(r, a, b));
    }

    /// Emit `r <- a - b`.
    pub fn sub(&mut self, r: Reg, a: Reg, b: Reg) {
        self.alu3(r, a, b, |r, a, b| Inst::Sub { r, a, b });
    }

    /// Emit `r <- a & b`.
    pub fn and(&mut self, r: Reg, a: Reg, b: Reg) {
        self.alu3(r, a, b, |r, a, b| Inst::And { r, a, b });
    }

    /// Emit `r <- a | b`.
    pub fn or(&mut self, r: Reg, a: Reg, b: Reg) {
        self.alu3(r, a, b, |r, a, b| Inst::Or { r, a, b });
    }

    /// Emit a signed set-less-than.
    pub fn slt(&mut self, r: Reg, a: Reg, b: Reg) {
        self.alu3(r, a, b, |r, a, b| Inst::Slt { r, a, b });
    }

    /// Emit an unsigned set-less-than.
    pub fn sltu(&mut self, r: Reg, a: Reg, b: Reg) {
        self.alu3(r, a, b, |r, a, b| Inst::Sltu { r, a, b });
    }

    /// Emit an f64 set-less-than (operands are f64 bit patterns).
    pub fn flt_f64(&mut self, r: Reg, a: Reg, b: Reg) {
        self.alu3(r, a, b, |r, a, b| Inst::FltF64 { r, a, b });
    }

    /// Emit `r <- (a == 0) ? 1 : 0`.
    pub fn set_eqz(&mut self, r: Reg, a: Reg) {
        let r = self.check_reg(r);
        let a = self.check_reg(a);
        self.emit(Inst::SetEqZ { r, a });
    }

    /// Emit an f32→f64 widening of the bits in `r`.
    pub fn cvt_f32_f64(&mut self, r: Reg) {
        let r = self.check_reg(r);
        self.emit(Inst::CvtF32F64 { r });
    }

    /// Emit an f64→f32 narrowing of the bits in `r`.
    pub fn cvt_f64_f32(&mut self, r: Reg) {
        let r = self.check_reg(r);
        self.emit(Inst::CvtF64F32 { r });
    }

    /// Emit an i64→f64 conversion of `r`.
    pub fn cvt_i64_f64(&mut self, r: Reg) {
        let r = self.check_reg(r);
        self.emit(Inst::CvtI64F64 { r });
    }

    /// Emit an f64→i64 conversion of `r`.
    pub fn cvt_f64_i64(&mut self, r: Reg) {
        let r = self.check_reg(r);
        self.emit(Inst::CvtF64I64 { r });
    }

    fn branch(&mut self, label: Label, make: impl FnOnce(u32) -> Inst) {
        let idx = self.insts.len() as u32;
        self.fixups.push((idx, label.0));
        self.emit(make(UNBOUND));
    }

    /// Emit an unconditional jump to `label`.
    pub fn jmp(&mut self, label: Label) {
        self.branch(label, |t| Inst::Jmp { target: t });
    }

    /// Emit a branch to `label` if `r != 0`.
    pub fn brnz(&mut self, r: Reg, label: Label) {
        let r = self.check_reg(r);
        self.branch(label, |t| Inst::Brnz { r, target: t });
    }

    /// Emit a branch to `label` if `r == 0`.
    pub fn brz(&mut self, r: Reg, label: Label) {
        let r = self.check_reg(r);
        self.branch(label, |t| Inst::Brz { r, target: t });
    }

    /// Emit a fixed-length block copy from `Src` to `Dst`.
    pub fn memcpy_imm(
        &mut self,
        src_base: Reg,
        src_disp: i32,
        dst_base: Reg,
        dst_disp: i32,
        len: u32,
    ) {
        let src_base = self.check_reg(src_base);
        let dst_base = self.check_reg(dst_base);
        self.emit(Inst::MemcpyImm {
            src_base,
            src_disp,
            dst_base,
            dst_disp,
            len,
        });
    }

    /// Emit a runtime-length block copy from `Src` to `Dst`.
    pub fn memcpy_reg(
        &mut self,
        src_base: Reg,
        src_disp: i32,
        dst_base: Reg,
        dst_disp: i32,
        len: Reg,
    ) {
        let src_base = self.check_reg(src_base);
        let dst_base = self.check_reg(dst_base);
        let len = self.check_reg(len);
        self.emit(Inst::MemcpyReg {
            src_base,
            src_disp,
            dst_base,
            dst_disp,
            len,
        });
    }

    /// Emit a zero-fill of `len` bytes in `Dst`.
    pub fn memset_zero(&mut self, base: Reg, disp: i32, len: u32) {
        let base = self.check_reg(base);
        self.emit(Inst::MemsetZero { base, disp, len });
    }

    /// Emit a byte-swapping block copy of `count` scalars of width `w`.
    /// Normally a peephole product, but code generators that statically know
    /// an array is a uniform swap may emit it directly.
    pub fn swap_run(
        &mut self,
        w: u8,
        src_base: Reg,
        src_disp: i32,
        dst_base: Reg,
        dst_disp: i32,
        count: u32,
    ) {
        if !matches!(w, 2 | 4 | 8) {
            self.errors.push(AsmError::BadWidth(w));
        }
        let src_base = self.check_reg(src_base);
        let dst_base = self.check_reg(dst_base);
        self.emit(Inst::SwapRun {
            w,
            src_base,
            src_disp,
            dst_base,
            dst_disp,
            count,
        });
    }

    /// Emit `Halt`.
    pub fn halt(&mut self) {
        self.emit(Inst::Halt);
    }

    /// Number of instructions emitted so far.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Resolve fixups, validate, and seal the program.
    pub fn finish(mut self) -> Result<Program, AsmError> {
        if let Some(e) = self.errors.into_iter().next() {
            return Err(e);
        }
        if self.insts.is_empty() {
            return Err(AsmError::Empty);
        }
        if !matches!(self.insts.last(), Some(Inst::Halt)) {
            self.insts.push(Inst::Halt);
        }
        for (inst_idx, label_id) in self.fixups {
            let target = self.labels[label_id as usize];
            if target == UNBOUND {
                return Err(AsmError::UnboundLabel(label_id));
            }
            self.insts[inst_idx as usize].set_branch_target(target);
        }
        validate(&self.insts)?;
        Ok(Program { insts: self.insts })
    }
}

/// Full-program validation shared by the assembler and the optimizer.
fn validate(insts: &[Inst]) -> Result<(), AsmError> {
    if insts.is_empty() {
        return Err(AsmError::Empty);
    }
    let n = insts.len() as u32;
    for inst in insts {
        if let Some(t) = inst.branch_target() {
            if t >= n {
                // A target past the end can only arise from a bug in the
                // optimizer's index remapping; report it as unbound.
                return Err(AsmError::UnboundLabel(t));
            }
        }
        let regs: &[Reg] = match inst {
            Inst::Ld { r, base, .. } => &[*r, *base],
            Inst::St { base, r, .. } => &[*base, *r],
            Inst::Bswap { r, .. }
            | Inst::SExt { r, .. }
            | Inst::MovImm { r, .. }
            | Inst::CvtF32F64 { r }
            | Inst::CvtF64F32 { r }
            | Inst::CvtI64F64 { r }
            | Inst::CvtF64I64 { r }
            | Inst::Brnz { r, .. }
            | Inst::Brz { r, .. } => &[*r],
            Inst::Mov { r, from } => &[*r, *from],
            Inst::Add { r, a, b }
            | Inst::Sub { r, a, b }
            | Inst::And { r, a, b }
            | Inst::Or { r, a, b }
            | Inst::Slt { r, a, b }
            | Inst::Sltu { r, a, b }
            | Inst::FltF64 { r, a, b } => &[*r, *a, *b],
            Inst::AddImm { r, a, .. } | Inst::SetEqZ { r, a } => &[*r, *a],
            Inst::MemcpyImm {
                src_base, dst_base, ..
            } => &[*src_base, *dst_base],
            Inst::MemcpyReg {
                src_base,
                dst_base,
                len,
                ..
            } => &[*src_base, *dst_base, *len],
            Inst::MemsetZero { base, .. } => &[*base],
            Inst::SwapMove {
                src_base, dst_base, ..
            }
            | Inst::SwapRun {
                src_base, dst_base, ..
            } => &[*src_base, *dst_base],
            Inst::Jmp { .. } | Inst::Halt => &[],
        };
        for r in regs {
            if (r.0 as usize) >= NUM_REGS {
                return Err(AsmError::BadRegister(r.0));
            }
        }
        match inst {
            Inst::Ld { w, .. } | Inst::St { w, .. } | Inst::SExt { from: w, .. }
                if !matches!(w, 1 | 2 | 4 | 8) =>
            {
                return Err(AsmError::BadWidth(*w));
            }
            Inst::Bswap { w, .. } | Inst::SwapMove { w, .. } | Inst::SwapRun { w, .. }
                if !matches!(w, 2 | 4 | 8) =>
            {
                return Err(AsmError::BadWidth(*w));
            }
            _ => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::abi;

    #[test]
    fn simple_program_builds() {
        let mut a = Assembler::new();
        a.ld(4, abi::SCRATCH0, Space::Src, abi::SRC, 0);
        a.bswap(4, abi::SCRATCH0);
        a.st(4, abi::DST, 0, abi::SCRATCH0);
        let p = a.finish().unwrap();
        // Halt appended automatically.
        assert_eq!(p.len(), 4);
        assert_eq!(p.insts().last(), Some(&Inst::Halt));
    }

    #[test]
    fn labels_resolve_forward_and_backward() {
        let mut a = Assembler::new();
        let top = a.new_label();
        let out = a.new_label();
        a.mov_imm(Reg(2), 3);
        a.bind(top);
        a.brz(Reg(2), out); // forward reference
        a.add_imm(Reg(2), Reg(2), -1);
        a.jmp(top); // backward reference
        a.bind(out);
        a.halt();
        let p = a.finish().unwrap();
        assert_eq!(
            p.insts()[1],
            Inst::Brz {
                r: Reg(2),
                target: 4
            }
        );
        assert_eq!(p.insts()[3], Inst::Jmp { target: 1 });
    }

    #[test]
    fn unbound_label_rejected() {
        let mut a = Assembler::new();
        let l = a.new_label();
        a.jmp(l);
        assert_eq!(a.finish().unwrap_err(), AsmError::UnboundLabel(0));
    }

    #[test]
    fn rebound_label_rejected() {
        let mut a = Assembler::new();
        let l = a.new_label();
        a.bind(l);
        a.halt();
        a.bind(l);
        a.halt();
        assert_eq!(a.finish().unwrap_err(), AsmError::ReboundLabel(0));
    }

    #[test]
    fn bad_register_rejected() {
        let mut a = Assembler::new();
        a.mov_imm(Reg(200), 1);
        assert_eq!(a.finish().unwrap_err(), AsmError::BadRegister(200));
    }

    #[test]
    fn bad_width_rejected() {
        let mut a = Assembler::new();
        a.ld(3, Reg(2), Space::Src, abi::SRC, 0);
        assert_eq!(a.finish().unwrap_err(), AsmError::BadWidth(3));

        let mut a = Assembler::new();
        a.bswap(1, Reg(2));
        assert_eq!(a.finish().unwrap_err(), AsmError::BadWidth(1));
    }

    #[test]
    fn empty_program_rejected() {
        assert_eq!(Assembler::new().finish().unwrap_err(), AsmError::Empty);
    }

    #[test]
    fn from_insts_validates_targets() {
        let bad = vec![Inst::Jmp { target: 10 }, Inst::Halt];
        assert!(Program::from_insts(bad).is_err());
        let ok = vec![Inst::Jmp { target: 1 }, Inst::Halt];
        assert!(Program::from_insts(ok).is_ok());
    }

    #[test]
    fn display_lists_instructions() {
        let mut a = Assembler::new();
        a.halt();
        let p = a.finish().unwrap();
        assert!(p.to_string().contains("Halt"));
    }
}
