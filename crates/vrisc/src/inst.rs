//! The virtual RISC instruction set.
//!
//! Registers are 64-bit and untyped (float conversions reinterpret register
//! bits, as a real RISC would move values between integer and FP register
//! files). Loads zero-extend; sign extension is an explicit instruction so
//! that byte-swapped foreign-endian values can be extended *after* the swap,
//! which is exactly the order generated conversion code needs.
//!
//! Memory is two disjoint spaces:
//! * [`Space::Src`] — the read-only receive buffer (foreign wire data),
//! * [`Space::Dst`] — the writable native record being produced.
//!
//! Loads may address either space; stores always write `Dst`. Addresses are
//! `register + displacement`; there are no absolute addresses, so a program
//! is position-independent with respect to the buffers it is run against.
//!
//! Scalar loads/stores move bytes in **little-endian** register order (the
//! virtual machine's native order). Foreign byte order is handled by
//! explicit [`Inst::Bswap`] instructions, mirroring how Vcode-generated
//! native code byte-swaps on the host.

/// A register index (0..[`NUM_REGS`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u8);

/// Number of general-purpose registers.
pub const NUM_REGS: usize = 32;

/// Conventional register assignments used by the PBIO conversion code
/// generator (the optimizer recognizes runs relative to these cursors, and
/// callers initialize them before running a program).
pub mod abi {
    use super::Reg;
    /// Cursor into the source (wire) buffer.
    pub const SRC: Reg = Reg(0);
    /// Cursor into the destination (native) buffer.
    pub const DST: Reg = Reg(1);
    /// First scratch register available to generated code.
    pub const SCRATCH0: Reg = Reg(8);
}

/// Which memory space an access addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Space {
    /// The read-only receive buffer.
    Src,
    /// The writable output record.
    Dst,
}

/// An unresolved branch target (see [`crate::asm::Label`]); stored as raw
/// index once a program is sealed.
pub type Target = u32;

/// One virtual RISC instruction.
///
/// Widths (`w`, `from`) are always 1, 2, 4 or 8 bytes; the assembler rejects
/// anything else at generation time so the executor never re-validates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Inst {
    /// `r <- zext(mem[space][base + disp], w)`.
    Ld {
        /// Access width in bytes.
        w: u8,
        /// Destination register.
        r: Reg,
        /// Memory space to read.
        space: Space,
        /// Base address register.
        base: Reg,
        /// Constant displacement added to the base.
        disp: i32,
    },
    /// `mem[Dst][base + disp] <- low w bytes of r`.
    St {
        /// Access width in bytes.
        w: u8,
        /// Base address register.
        base: Reg,
        /// Constant displacement added to the base.
        disp: i32,
        /// Source register.
        r: Reg,
    },
    /// Byte-swap the low `w` bytes of `r`, zero-extending the result.
    Bswap {
        /// Width in bytes (2, 4 or 8; 1 is a no-op the assembler rejects).
        w: u8,
        /// Register to swap in place.
        r: Reg,
    },
    /// Sign-extend the low `from` bytes of `r` to 64 bits.
    SExt {
        /// Width of the value currently in the register.
        from: u8,
        /// Register to extend in place.
        r: Reg,
    },
    /// `r <- imm`.
    MovImm {
        /// Destination register.
        r: Reg,
        /// Immediate value.
        v: u64,
    },
    /// `r <- from`.
    Mov {
        /// Destination register.
        r: Reg,
        /// Source register.
        from: Reg,
    },
    /// `r <- a + b` (wrapping).
    Add {
        /// Destination register.
        r: Reg,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// `r <- a + v` (wrapping).
    AddImm {
        /// Destination register.
        r: Reg,
        /// Operand register.
        a: Reg,
        /// Signed immediate.
        v: i64,
    },
    /// `r <- a - b` (wrapping).
    Sub {
        /// Destination register.
        r: Reg,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// `r <- a & b`.
    And {
        /// Destination register.
        r: Reg,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// `r <- a | b`.
    Or {
        /// Destination register.
        r: Reg,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// `r <- (a as i64) < (b as i64) ? 1 : 0` (set-less-than, signed).
    Slt {
        /// Destination register.
        r: Reg,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// `r <- a < b ? 1 : 0` (unsigned).
    Sltu {
        /// Destination register.
        r: Reg,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// `r <- f64(a) < f64(b) ? 1 : 0` (IEEE semantics: false on NaN).
    FltF64 {
        /// Destination register.
        r: Reg,
        /// Left operand (f64 bits).
        a: Reg,
        /// Right operand (f64 bits).
        b: Reg,
    },
    /// `r <- (a == 0) ? 1 : 0` (RISC-V `seqz`).
    SetEqZ {
        /// Destination register.
        r: Reg,
        /// Operand.
        a: Reg,
    },
    /// Reinterpret the low 32 bits of `r` as an `f32` and widen: `r <-
    /// bits(f64(f32_bits(r)))`.
    CvtF32F64 {
        /// Register converted in place.
        r: Reg,
    },
    /// Narrow the f64 bit pattern in `r` to an f32 bit pattern (low 32 bits).
    CvtF64F32 {
        /// Register converted in place.
        r: Reg,
    },
    /// `r <- bits(f64(r as i64))` — integer to double.
    CvtI64F64 {
        /// Register converted in place.
        r: Reg,
    },
    /// `r <- f64_bits(r) as i64` (saturating toward zero, like Rust `as`).
    CvtF64I64 {
        /// Register converted in place.
        r: Reg,
    },
    /// Unconditional jump.
    Jmp {
        /// Instruction index to jump to.
        target: Target,
    },
    /// Branch if `r != 0`.
    Brnz {
        /// Condition register.
        r: Reg,
        /// Instruction index to jump to.
        target: Target,
    },
    /// Branch if `r == 0`.
    Brz {
        /// Condition register.
        r: Reg,
        /// Instruction index to jump to.
        target: Target,
    },
    /// Copy `len` bytes `Src[src_base+src_disp ..] -> Dst[dst_base+dst_disp ..]`.
    MemcpyImm {
        /// Source cursor register.
        src_base: Reg,
        /// Source displacement.
        src_disp: i32,
        /// Destination cursor register.
        dst_base: Reg,
        /// Destination displacement.
        dst_disp: i32,
        /// Number of bytes to copy.
        len: u32,
    },
    /// Copy `len_reg` bytes (runtime length) between the cursors.
    MemcpyReg {
        /// Source cursor register.
        src_base: Reg,
        /// Source displacement.
        src_disp: i32,
        /// Destination cursor register.
        dst_base: Reg,
        /// Destination displacement.
        dst_disp: i32,
        /// Register carrying the byte count.
        len: Reg,
    },
    /// Zero `len` bytes at `Dst[base+disp ..]` (used to clear padding).
    MemsetZero {
        /// Destination cursor register.
        base: Reg,
        /// Destination displacement.
        disp: i32,
        /// Number of bytes to zero.
        len: u32,
    },
    /// Fused by the optimizer: load `w` bytes at `Src[src_base+src_disp]`,
    /// byte-swap, store at `Dst[dst_base+dst_disp]`.
    SwapMove {
        /// Scalar width (2, 4 or 8).
        w: u8,
        /// Source cursor register.
        src_base: Reg,
        /// Source displacement.
        src_disp: i32,
        /// Destination cursor register.
        dst_base: Reg,
        /// Destination displacement.
        dst_disp: i32,
    },
    /// Fused by the optimizer: `count` consecutive [`Inst::SwapMove`]s of the
    /// same width with contiguous displacements — a byte-swapping block copy.
    SwapRun {
        /// Scalar width (2, 4 or 8).
        w: u8,
        /// Source cursor register.
        src_base: Reg,
        /// Source displacement of the first scalar.
        src_disp: i32,
        /// Destination cursor register.
        dst_base: Reg,
        /// Destination displacement of the first scalar.
        dst_disp: i32,
        /// Number of scalars.
        count: u32,
    },
    /// Stop execution successfully.
    Halt,
}

impl Inst {
    /// Branch target, if any.
    pub fn branch_target(&self) -> Option<Target> {
        match self {
            Inst::Jmp { target } | Inst::Brnz { target, .. } | Inst::Brz { target, .. } => {
                Some(*target)
            }
            _ => None,
        }
    }

    /// Rewrite the branch target (no-op for non-branches).
    pub fn set_branch_target(&mut self, new: Target) {
        match self {
            Inst::Jmp { target } | Inst::Brnz { target, .. } | Inst::Brz { target, .. } => {
                *target = new
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn branch_helpers() {
        let mut j = Inst::Jmp { target: 7 };
        assert_eq!(j.branch_target(), Some(7));
        j.set_branch_target(9);
        assert_eq!(j.branch_target(), Some(9));

        let mut ld = Inst::Ld {
            w: 4,
            r: Reg(2),
            space: Space::Src,
            base: abi::SRC,
            disp: 0,
        };
        assert_eq!(ld.branch_target(), None);
        ld.set_branch_target(3); // no-op
        assert_eq!(ld.branch_target(), None);
    }

    #[test]
    fn abi_registers_are_distinct() {
        assert_ne!(abi::SRC, abi::DST);
        // Constant by construction, but guards against careless edits.
        #[allow(clippy::assertions_on_constants)]
        {
            assert!(abi::SCRATCH0.0 > abi::DST.0);
            assert!((abi::SCRATCH0.0 as usize) < NUM_REGS);
        }
    }
}
