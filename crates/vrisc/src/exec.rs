//! Execution engines for sealed programs.
//!
//! [`run`] is the production engine: the analogue of jumping into Vcode's
//! generated native code. The program was validated once when sealed, so the
//! dispatch loop does no per-instruction validation beyond memory bounds
//! checks (which a correct conversion program never trips; they exist so a
//! malformed *message* cannot cause undefined behaviour).
//!
//! [`run_reference`] is a deliberately naive engine used only in tests: it
//! recomputes everything defensively on every step. Differential testing of
//! the two engines (plus the optimizer, see [`crate::opt`]) is the crate's
//! core correctness argument.

use std::fmt;

use crate::asm::Program;
use crate::inst::{Inst, Reg, Space, NUM_REGS};

/// Runtime failures. With a validated program these can only be caused by
/// buffers smaller than the program expects (e.g. a truncated message).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A memory access fell outside the buffer.
    OutOfBounds {
        /// Program counter of the faulting instruction.
        pc: usize,
        /// Faulting byte address (space-relative).
        addr: u64,
        /// Access length.
        len: u64,
        /// Which space was accessed.
        space: Space,
        /// Size of that space's buffer.
        space_len: usize,
    },
    /// The step budget was exhausted (runaway loop).
    StepLimit {
        /// The budget that was exceeded.
        limit: u64,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::OutOfBounds { pc, addr, len, space, space_len } => write!(
                f,
                "out-of-bounds access at pc {pc}: {len} bytes at {addr} in {space:?} (size {space_len})"
            ),
            ExecError::StepLimit { limit } => write!(f, "step limit {limit} exceeded"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Execution statistics, used by benchmarks to report dynamic instruction
/// counts (the paper's "raw number of operations" discussion in §4.3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Dynamically executed instruction count.
    pub executed: u64,
}

/// Default step budget. Conversion programs execute O(record size)
/// instructions; 2^32 steps is far beyond any record this workspace builds.
const DEFAULT_STEP_LIMIT: u64 = 1 << 32;

#[inline]
fn addr_of(regs: &[u64; NUM_REGS], base: Reg, disp: i32) -> u64 {
    (regs[base.0 as usize]).wrapping_add(disp as i64 as u64)
}

#[inline]
fn check_range(
    pc: usize,
    addr: u64,
    len: u64,
    space: Space,
    space_len: usize,
) -> Result<usize, ExecError> {
    let end = addr.checked_add(len);
    match end {
        Some(e) if e <= space_len as u64 => Ok(addr as usize),
        _ => Err(ExecError::OutOfBounds {
            pc,
            addr,
            len,
            space,
            space_len,
        }),
    }
}

#[inline]
fn load(buf: &[u8], at: usize, w: u8) -> u64 {
    // Little-endian register order; `at..at+w` is pre-checked.
    match w {
        1 => buf[at] as u64,
        2 => u16::from_le_bytes([buf[at], buf[at + 1]]) as u64,
        4 => u32::from_le_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]]) as u64,
        _ => u64::from_le_bytes([
            buf[at],
            buf[at + 1],
            buf[at + 2],
            buf[at + 3],
            buf[at + 4],
            buf[at + 5],
            buf[at + 6],
            buf[at + 7],
        ]),
    }
}

#[inline]
fn store(buf: &mut [u8], at: usize, w: u8, v: u64) {
    match w {
        1 => buf[at] = v as u8,
        2 => buf[at..at + 2].copy_from_slice(&(v as u16).to_le_bytes()),
        4 => buf[at..at + 4].copy_from_slice(&(v as u32).to_le_bytes()),
        _ => buf[at..at + 8].copy_from_slice(&v.to_le_bytes()),
    }
}

#[inline]
fn bswap(v: u64, w: u8) -> u64 {
    match w {
        2 => (v as u16).swap_bytes() as u64,
        4 => (v as u32).swap_bytes() as u64,
        _ => v.swap_bytes(),
    }
}

#[inline]
fn sext(v: u64, from: u8) -> u64 {
    let shift = 64 - (from as u32) * 8;
    (((v << shift) as i64) >> shift) as u64
}

/// Run a sealed program against a source and destination buffer with the
/// default step budget. `init` sets registers before execution (typically
/// the [`crate::inst::abi`] cursors).
pub fn run(
    prog: &Program,
    src: &[u8],
    dst: &mut [u8],
    init: &[(Reg, u64)],
) -> Result<Stats, ExecError> {
    run_with_limit(prog, src, dst, init, DEFAULT_STEP_LIMIT)
}

/// [`run`] with an explicit step budget.
fn run_with_limit(
    prog: &Program,
    src: &[u8],
    dst: &mut [u8],
    init: &[(Reg, u64)],
    limit: u64,
) -> Result<Stats, ExecError> {
    let mut regs = [0u64; NUM_REGS];
    for (r, v) in init {
        regs[r.0 as usize] = *v;
    }
    let insts = prog.insts();
    let mut pc = 0usize;
    let mut executed = 0u64;
    loop {
        executed += 1;
        if executed > limit {
            return Err(ExecError::StepLimit { limit });
        }
        // Targets were validated at seal time; pc is always in range.
        let inst = insts[pc];
        pc += 1;
        match inst {
            Inst::Ld {
                w,
                r,
                space,
                base,
                disp,
            } => {
                let addr = addr_of(&regs, base, disp);
                let buf: &[u8] = match space {
                    Space::Src => src,
                    Space::Dst => dst,
                };
                let at = check_range(pc - 1, addr, w as u64, space, buf.len())?;
                regs[r.0 as usize] = load(buf, at, w);
            }
            Inst::St { w, base, disp, r } => {
                let addr = addr_of(&regs, base, disp);
                let at = check_range(pc - 1, addr, w as u64, Space::Dst, dst.len())?;
                store(dst, at, w, regs[r.0 as usize]);
            }
            Inst::Bswap { w, r } => {
                let slot = &mut regs[r.0 as usize];
                *slot = bswap(*slot, w);
            }
            Inst::SExt { from, r } => {
                let slot = &mut regs[r.0 as usize];
                *slot = sext(*slot, from);
            }
            Inst::MovImm { r, v } => regs[r.0 as usize] = v,
            Inst::Mov { r, from } => regs[r.0 as usize] = regs[from.0 as usize],
            Inst::Add { r, a, b } => {
                regs[r.0 as usize] = regs[a.0 as usize].wrapping_add(regs[b.0 as usize])
            }
            Inst::AddImm { r, a, v } => {
                regs[r.0 as usize] = regs[a.0 as usize].wrapping_add(v as u64)
            }
            Inst::Sub { r, a, b } => {
                regs[r.0 as usize] = regs[a.0 as usize].wrapping_sub(regs[b.0 as usize])
            }
            Inst::And { r, a, b } => regs[r.0 as usize] = regs[a.0 as usize] & regs[b.0 as usize],
            Inst::Or { r, a, b } => regs[r.0 as usize] = regs[a.0 as usize] | regs[b.0 as usize],
            Inst::Slt { r, a, b } => {
                regs[r.0 as usize] =
                    ((regs[a.0 as usize] as i64) < (regs[b.0 as usize] as i64)) as u64
            }
            Inst::Sltu { r, a, b } => {
                regs[r.0 as usize] = (regs[a.0 as usize] < regs[b.0 as usize]) as u64
            }
            Inst::FltF64 { r, a, b } => {
                regs[r.0 as usize] =
                    (f64::from_bits(regs[a.0 as usize]) < f64::from_bits(regs[b.0 as usize])) as u64
            }
            Inst::SetEqZ { r, a } => regs[r.0 as usize] = (regs[a.0 as usize] == 0) as u64,
            Inst::CvtF32F64 { r } => {
                let slot = &mut regs[r.0 as usize];
                *slot = (f32::from_bits(*slot as u32) as f64).to_bits();
            }
            Inst::CvtF64F32 { r } => {
                let slot = &mut regs[r.0 as usize];
                *slot = (f64::from_bits(*slot) as f32).to_bits() as u64;
            }
            Inst::CvtI64F64 { r } => {
                let slot = &mut regs[r.0 as usize];
                *slot = ((*slot as i64) as f64).to_bits();
            }
            Inst::CvtF64I64 { r } => {
                let slot = &mut regs[r.0 as usize];
                *slot = (f64::from_bits(*slot) as i64) as u64;
            }
            Inst::Jmp { target } => pc = target as usize,
            Inst::Brnz { r, target } => {
                if regs[r.0 as usize] != 0 {
                    pc = target as usize;
                }
            }
            Inst::Brz { r, target } => {
                if regs[r.0 as usize] == 0 {
                    pc = target as usize;
                }
            }
            Inst::MemcpyImm {
                src_base,
                src_disp,
                dst_base,
                dst_disp,
                len,
            } => {
                memcpy(
                    &regs,
                    pc - 1,
                    src,
                    dst,
                    src_base,
                    src_disp,
                    dst_base,
                    dst_disp,
                    len as u64,
                )?;
            }
            Inst::MemcpyReg {
                src_base,
                src_disp,
                dst_base,
                dst_disp,
                len,
            } => {
                let n = regs[len.0 as usize];
                memcpy(
                    &regs,
                    pc - 1,
                    src,
                    dst,
                    src_base,
                    src_disp,
                    dst_base,
                    dst_disp,
                    n,
                )?;
            }
            Inst::MemsetZero { base, disp, len } => {
                let addr = addr_of(&regs, base, disp);
                let at = check_range(pc - 1, addr, len as u64, Space::Dst, dst.len())?;
                dst[at..at + len as usize].fill(0);
            }
            Inst::SwapMove {
                w,
                src_base,
                src_disp,
                dst_base,
                dst_disp,
            } => {
                let saddr = addr_of(&regs, src_base, src_disp);
                let daddr = addr_of(&regs, dst_base, dst_disp);
                let sat = check_range(pc - 1, saddr, w as u64, Space::Src, src.len())?;
                let dat = check_range(pc - 1, daddr, w as u64, Space::Dst, dst.len())?;
                swap_copy(src, sat, dst, dat, w);
            }
            Inst::SwapRun {
                w,
                src_base,
                src_disp,
                dst_base,
                dst_disp,
                count,
            } => {
                let total = (w as u64) * (count as u64);
                let saddr = addr_of(&regs, src_base, src_disp);
                let daddr = addr_of(&regs, dst_base, dst_disp);
                let sat = check_range(pc - 1, saddr, total, Space::Src, src.len())?;
                let dat = check_range(pc - 1, daddr, total, Space::Dst, dst.len())?;
                swap_run(src, sat, dst, dat, w, count as usize);
            }
            Inst::Halt => return Ok(Stats { executed }),
        }
    }
}

#[allow(clippy::too_many_arguments)]
#[inline]
fn memcpy(
    regs: &[u64; NUM_REGS],
    pc: usize,
    src: &[u8],
    dst: &mut [u8],
    src_base: Reg,
    src_disp: i32,
    dst_base: Reg,
    dst_disp: i32,
    len: u64,
) -> Result<(), ExecError> {
    let saddr = addr_of(regs, src_base, src_disp);
    let daddr = addr_of(regs, dst_base, dst_disp);
    let sat = check_range(pc, saddr, len, Space::Src, src.len())?;
    let dat = check_range(pc, daddr, len, Space::Dst, dst.len())?;
    let n = len as usize;
    dst[dat..dat + n].copy_from_slice(&src[sat..sat + n]);
    Ok(())
}

#[inline]
fn swap_copy(src: &[u8], sat: usize, dst: &mut [u8], dat: usize, w: u8) {
    match w {
        2 => {
            dst[dat] = src[sat + 1];
            dst[dat + 1] = src[sat];
        }
        4 => {
            let v = u32::from_le_bytes([src[sat], src[sat + 1], src[sat + 2], src[sat + 3]])
                .swap_bytes();
            dst[dat..dat + 4].copy_from_slice(&v.to_le_bytes());
        }
        _ => {
            let mut b = [0u8; 8];
            b.copy_from_slice(&src[sat..sat + 8]);
            let v = u64::from_le_bytes(b).swap_bytes();
            dst[dat..dat + 8].copy_from_slice(&v.to_le_bytes());
        }
    }
}

/// Byte-swapping block copy: the op the optimizer emits for contiguous
/// arrays of same-width scalars. Bounds were checked by the caller, so the
/// inner loop is pure data movement (this is the "near memcpy" fast path).
fn swap_run(src: &[u8], sat: usize, dst: &mut [u8], dat: usize, w: u8, count: usize) {
    let total = count * w as usize;
    let s = &src[sat..sat + total];
    let d = &mut dst[dat..dat + total];
    match w {
        2 => {
            for (so, do_) in s.chunks_exact(2).zip(d.chunks_exact_mut(2)) {
                do_[0] = so[1];
                do_[1] = so[0];
            }
        }
        4 => {
            for (so, do_) in s.chunks_exact(4).zip(d.chunks_exact_mut(4)) {
                let v = u32::from_le_bytes([so[0], so[1], so[2], so[3]]).swap_bytes();
                do_.copy_from_slice(&v.to_le_bytes());
            }
        }
        _ => {
            for (so, do_) in s.chunks_exact(8).zip(d.chunks_exact_mut(8)) {
                let mut b = [0u8; 8];
                b.copy_from_slice(so);
                let v = u64::from_le_bytes(b).swap_bytes();
                do_.copy_from_slice(&v.to_le_bytes());
            }
        }
    }
}

/// Execute a straight-line program whose memory footprint was proven by
/// [`crate::analysis::analyze`], with a **single** up-front bounds check
/// instead of one per access.
///
/// All registers start at zero (the analysis assumes it). Returns an error
/// if either buffer is smaller than the proven extents; after that check,
/// every access is in bounds by construction and uses unchecked indexing.
pub fn run_straightline(
    prog: &Program,
    extents: &crate::analysis::Extents,
    src: &[u8],
    dst: &mut [u8],
) -> Result<(), ExecError> {
    if src.len() < extents.src_needed {
        return Err(ExecError::OutOfBounds {
            pc: 0,
            addr: 0,
            len: extents.src_needed as u64,
            space: Space::Src,
            space_len: src.len(),
        });
    }
    if dst.len() < extents.dst_needed {
        return Err(ExecError::OutOfBounds {
            pc: 0,
            addr: 0,
            len: extents.dst_needed as u64,
            space: Space::Dst,
            space_len: dst.len(),
        });
    }
    debug_assert_eq!(
        prog.insts().len(),
        extents.inst_count,
        "extents from another program"
    );

    let mut regs = [0u64; NUM_REGS];
    for inst in prog.insts() {
        // Straight-line: every base register is provably zero, so addresses
        // are the (non-negative) displacements themselves.
        match *inst {
            Inst::Ld {
                w, r, space, disp, ..
            } => {
                let buf: &[u8] = match space {
                    Space::Src => src,
                    Space::Dst => dst,
                };
                let at = disp as usize;
                debug_assert!(at + w as usize <= buf.len());
                // SAFETY: analyze() bounded disp + w by the checked extents.
                regs[r.0 as usize] = unsafe { load_unchecked(buf, at, w) };
            }
            Inst::St { w, disp, r, .. } => {
                let at = disp as usize;
                debug_assert!(at + w as usize <= dst.len());
                // SAFETY: as above, for the destination extent.
                unsafe { store_unchecked(dst, at, w, regs[r.0 as usize]) };
            }
            Inst::Bswap { w, r } => regs[r.0 as usize] = bswap(regs[r.0 as usize], w),
            Inst::SExt { from, r } => regs[r.0 as usize] = sext(regs[r.0 as usize], from),
            Inst::MovImm { r, v } => regs[r.0 as usize] = v,
            Inst::Mov { r, from } => regs[r.0 as usize] = regs[from.0 as usize],
            Inst::Add { r, a, b } => {
                regs[r.0 as usize] = regs[a.0 as usize].wrapping_add(regs[b.0 as usize])
            }
            Inst::AddImm { r, a, v } => {
                regs[r.0 as usize] = regs[a.0 as usize].wrapping_add(v as u64)
            }
            Inst::Sub { r, a, b } => {
                regs[r.0 as usize] = regs[a.0 as usize].wrapping_sub(regs[b.0 as usize])
            }
            Inst::And { r, a, b } => regs[r.0 as usize] = regs[a.0 as usize] & regs[b.0 as usize],
            Inst::Or { r, a, b } => regs[r.0 as usize] = regs[a.0 as usize] | regs[b.0 as usize],
            Inst::Slt { r, a, b } => {
                regs[r.0 as usize] =
                    ((regs[a.0 as usize] as i64) < (regs[b.0 as usize] as i64)) as u64
            }
            Inst::Sltu { r, a, b } => {
                regs[r.0 as usize] = (regs[a.0 as usize] < regs[b.0 as usize]) as u64
            }
            Inst::FltF64 { r, a, b } => {
                regs[r.0 as usize] =
                    (f64::from_bits(regs[a.0 as usize]) < f64::from_bits(regs[b.0 as usize])) as u64
            }
            Inst::SetEqZ { r, a } => regs[r.0 as usize] = (regs[a.0 as usize] == 0) as u64,
            Inst::CvtF32F64 { r } => {
                regs[r.0 as usize] = (f32::from_bits(regs[r.0 as usize] as u32) as f64).to_bits()
            }
            Inst::CvtF64F32 { r } => {
                regs[r.0 as usize] = (f64::from_bits(regs[r.0 as usize]) as f32).to_bits() as u64
            }
            Inst::CvtI64F64 { r } => {
                regs[r.0 as usize] = ((regs[r.0 as usize] as i64) as f64).to_bits()
            }
            Inst::CvtF64I64 { r } => {
                regs[r.0 as usize] = (f64::from_bits(regs[r.0 as usize]) as i64) as u64
            }
            Inst::MemcpyImm {
                src_disp,
                dst_disp,
                len,
                ..
            } => {
                let (s, d, n) = (src_disp as usize, dst_disp as usize, len as usize);
                debug_assert!(s + n <= src.len() && d + n <= dst.len());
                // SAFETY: both ranges are within the checked extents.
                unsafe {
                    std::ptr::copy_nonoverlapping(src.as_ptr().add(s), dst.as_mut_ptr().add(d), n);
                }
            }
            Inst::MemsetZero { disp, len, .. } => {
                let (d, n) = (disp as usize, len as usize);
                debug_assert!(d + n <= dst.len());
                // SAFETY: within the checked destination extent.
                unsafe { std::ptr::write_bytes(dst.as_mut_ptr().add(d), 0, n) };
            }
            Inst::SwapMove {
                w,
                src_disp,
                dst_disp,
                ..
            } => {
                let (s, d) = (src_disp as usize, dst_disp as usize);
                debug_assert!(s + w as usize <= src.len() && d + w as usize <= dst.len());
                // SAFETY: within the checked extents.
                unsafe {
                    let v = bswap(load_unchecked(src, s, w), w);
                    store_unchecked(dst, d, w, v);
                }
            }
            Inst::SwapRun {
                w,
                src_disp,
                dst_disp,
                count,
                ..
            } => {
                let ws = w as usize;
                for i in 0..count as usize {
                    let (s, d) = (src_disp as usize + i * ws, dst_disp as usize + i * ws);
                    debug_assert!(s + ws <= src.len() && d + ws <= dst.len());
                    // SAFETY: the whole run is within the checked extents.
                    unsafe {
                        let v = bswap(load_unchecked(src, s, w), w);
                        store_unchecked(dst, d, w, v);
                    }
                }
            }
            Inst::Halt => break,
            Inst::Jmp { .. } | Inst::Brnz { .. } | Inst::Brz { .. } | Inst::MemcpyReg { .. } => {
                unreachable!("analyze() rejects control flow and runtime-length copies")
            }
        }
    }
    Ok(())
}

/// # Safety
/// `at + w <= buf.len()` must hold.
#[inline]
unsafe fn load_unchecked(buf: &[u8], at: usize, w: u8) -> u64 {
    let p = buf.as_ptr().add(at);
    match w {
        1 => *p as u64,
        2 => u16::from_le_bytes(*(p as *const [u8; 2])) as u64,
        4 => u32::from_le_bytes(*(p as *const [u8; 4])) as u64,
        _ => u64::from_le_bytes(*(p as *const [u8; 8])),
    }
}

/// # Safety
/// `at + w <= buf.len()` must hold.
#[inline]
unsafe fn store_unchecked(buf: &mut [u8], at: usize, w: u8, v: u64) {
    let p = buf.as_mut_ptr().add(at);
    match w {
        1 => *p = v as u8,
        2 => std::ptr::copy_nonoverlapping((v as u16).to_le_bytes().as_ptr(), p, 2),
        4 => std::ptr::copy_nonoverlapping((v as u32).to_le_bytes().as_ptr(), p, 4),
        _ => std::ptr::copy_nonoverlapping(v.to_le_bytes().as_ptr(), p, 8),
    }
}

/// Naive reference engine for differential testing: identical semantics to
/// [`run`], implemented with maximally defensive per-step code and none of
/// the block fast paths (fused ops are executed scalar by scalar).
pub fn run_reference(
    prog: &Program,
    src: &[u8],
    dst: &mut [u8],
    init: &[(Reg, u64)],
) -> Result<Stats, ExecError> {
    // Lower fused ops to scalar sequences and execute with the main engine
    // semantics but step-by-step. To keep the two engines genuinely
    // independent, this one interprets fused ops in place instead of using
    // the block helpers.
    let mut regs = [0u64; NUM_REGS];
    for (r, v) in init {
        regs[r.0 as usize] = *v;
    }
    let insts = prog.insts();
    let mut pc = 0usize;
    let mut executed = 0u64;
    loop {
        executed += 1;
        if executed > DEFAULT_STEP_LIMIT {
            return Err(ExecError::StepLimit {
                limit: DEFAULT_STEP_LIMIT,
            });
        }
        let inst = insts[pc];
        pc += 1;
        match inst {
            Inst::SwapMove {
                w,
                src_base,
                src_disp,
                dst_base,
                dst_disp,
            } => {
                scalar_swap_move(
                    &regs,
                    pc - 1,
                    src,
                    dst,
                    w,
                    src_base,
                    src_disp,
                    dst_base,
                    dst_disp,
                )?;
            }
            Inst::SwapRun {
                w,
                src_base,
                src_disp,
                dst_base,
                dst_disp,
                count,
            } => {
                for i in 0..count as i64 {
                    let off = (i * w as i64) as i32;
                    scalar_swap_move(
                        &regs,
                        pc - 1,
                        src,
                        dst,
                        w,
                        src_base,
                        src_disp + off,
                        dst_base,
                        dst_disp + off,
                    )?;
                }
            }
            Inst::MemcpyImm {
                src_base,
                src_disp,
                dst_base,
                dst_disp,
                len,
            } => {
                for i in 0..len as i64 {
                    let saddr = addr_of(&regs, src_base, src_disp + i as i32);
                    let daddr = addr_of(&regs, dst_base, dst_disp + i as i32);
                    let sat = check_range(pc - 1, saddr, 1, Space::Src, src.len())?;
                    let dat = check_range(pc - 1, daddr, 1, Space::Dst, dst.len())?;
                    dst[dat] = src[sat];
                }
            }
            Inst::Halt => return Ok(Stats { executed }),
            // Everything else shares one-step semantics with the fast engine;
            // run it through a single-instruction program. Branches are
            // handled locally.
            other => {
                match other {
                    Inst::Jmp { target } => {
                        pc = target as usize;
                        continue;
                    }
                    Inst::Brnz { r, target } => {
                        if regs[r.0 as usize] != 0 {
                            pc = target as usize;
                        }
                        continue;
                    }
                    Inst::Brz { r, target } => {
                        if regs[r.0 as usize] == 0 {
                            pc = target as usize;
                        }
                        continue;
                    }
                    _ => {}
                }
                step_simple(&mut regs, pc - 1, other, src, dst)?;
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn scalar_swap_move(
    regs: &[u64; NUM_REGS],
    pc: usize,
    src: &[u8],
    dst: &mut [u8],
    w: u8,
    src_base: Reg,
    src_disp: i32,
    dst_base: Reg,
    dst_disp: i32,
) -> Result<(), ExecError> {
    let saddr = addr_of(regs, src_base, src_disp);
    let daddr = addr_of(regs, dst_base, dst_disp);
    let sat = check_range(pc, saddr, w as u64, Space::Src, src.len())?;
    let dat = check_range(pc, daddr, w as u64, Space::Dst, dst.len())?;
    for i in 0..w as usize {
        dst[dat + i] = src[sat + w as usize - 1 - i];
    }
    Ok(())
}

fn step_simple(
    regs: &mut [u64; NUM_REGS],
    pc: usize,
    inst: Inst,
    src: &[u8],
    dst: &mut [u8],
) -> Result<(), ExecError> {
    match inst {
        Inst::Ld {
            w,
            r,
            space,
            base,
            disp,
        } => {
            let addr = addr_of(regs, base, disp);
            let buf: &[u8] = match space {
                Space::Src => src,
                Space::Dst => dst,
            };
            let at = check_range(pc, addr, w as u64, space, buf.len())?;
            let mut v = 0u64;
            for i in (0..w as usize).rev() {
                v = (v << 8) | buf[at + i] as u64;
            }
            regs[r.0 as usize] = v;
        }
        Inst::St { w, base, disp, r } => {
            let addr = addr_of(regs, base, disp);
            let at = check_range(pc, addr, w as u64, Space::Dst, dst.len())?;
            let mut v = regs[r.0 as usize];
            for i in 0..w as usize {
                dst[at + i] = v as u8;
                v >>= 8;
            }
        }
        Inst::Bswap { w, r } => regs[r.0 as usize] = bswap(regs[r.0 as usize], w),
        Inst::SExt { from, r } => regs[r.0 as usize] = sext(regs[r.0 as usize], from),
        Inst::MovImm { r, v } => regs[r.0 as usize] = v,
        Inst::Mov { r, from } => regs[r.0 as usize] = regs[from.0 as usize],
        Inst::Add { r, a, b } => {
            regs[r.0 as usize] = regs[a.0 as usize].wrapping_add(regs[b.0 as usize])
        }
        Inst::AddImm { r, a, v } => regs[r.0 as usize] = regs[a.0 as usize].wrapping_add(v as u64),
        Inst::Sub { r, a, b } => {
            regs[r.0 as usize] = regs[a.0 as usize].wrapping_sub(regs[b.0 as usize])
        }
        Inst::And { r, a, b } => regs[r.0 as usize] = regs[a.0 as usize] & regs[b.0 as usize],
        Inst::Or { r, a, b } => regs[r.0 as usize] = regs[a.0 as usize] | regs[b.0 as usize],
        Inst::Slt { r, a, b } => {
            regs[r.0 as usize] = ((regs[a.0 as usize] as i64) < (regs[b.0 as usize] as i64)) as u64
        }
        Inst::Sltu { r, a, b } => {
            regs[r.0 as usize] = (regs[a.0 as usize] < regs[b.0 as usize]) as u64
        }
        Inst::FltF64 { r, a, b } => {
            regs[r.0 as usize] =
                (f64::from_bits(regs[a.0 as usize]) < f64::from_bits(regs[b.0 as usize])) as u64
        }
        Inst::SetEqZ { r, a } => regs[r.0 as usize] = (regs[a.0 as usize] == 0) as u64,
        Inst::CvtF32F64 { r } => {
            regs[r.0 as usize] = (f32::from_bits(regs[r.0 as usize] as u32) as f64).to_bits()
        }
        Inst::CvtF64F32 { r } => {
            regs[r.0 as usize] = (f64::from_bits(regs[r.0 as usize]) as f32).to_bits() as u64
        }
        Inst::CvtI64F64 { r } => {
            regs[r.0 as usize] = ((regs[r.0 as usize] as i64) as f64).to_bits()
        }
        Inst::CvtF64I64 { r } => {
            regs[r.0 as usize] = (f64::from_bits(regs[r.0 as usize]) as i64) as u64
        }
        #[allow(clippy::manual_memcpy)] // the reference engine is deliberately naive
        Inst::MemcpyReg {
            src_base,
            src_disp,
            dst_base,
            dst_disp,
            len,
        } => {
            let n = regs[len.0 as usize];
            let saddr = addr_of(regs, src_base, src_disp);
            let daddr = addr_of(regs, dst_base, dst_disp);
            let sat = check_range(pc, saddr, n, Space::Src, src.len())?;
            let dat = check_range(pc, daddr, n, Space::Dst, dst.len())?;
            for i in 0..n as usize {
                dst[dat + i] = src[sat + i];
            }
        }
        Inst::MemsetZero { base, disp, len } => {
            let addr = addr_of(regs, base, disp);
            let at = check_range(pc, addr, len as u64, Space::Dst, dst.len())?;
            for b in &mut dst[at..at + len as usize] {
                *b = 0;
            }
        }
        Inst::Jmp { .. }
        | Inst::Brnz { .. }
        | Inst::Brz { .. }
        | Inst::MemcpyImm { .. }
        | Inst::SwapMove { .. }
        | Inst::SwapRun { .. }
        | Inst::Halt => unreachable!("handled by caller"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::inst::abi;

    fn both(prog: &Program, src: &[u8], dst_len: usize, init: &[(Reg, u64)]) -> (Vec<u8>, Vec<u8>) {
        let mut d1 = vec![0u8; dst_len];
        let mut d2 = vec![0u8; dst_len];
        run(prog, src, &mut d1, init).unwrap();
        run_reference(prog, src, &mut d2, init).unwrap();
        assert_eq!(d1, d2, "engines disagree");
        (d1, d2)
    }

    #[test]
    fn swap_move_scalar() {
        let mut a = Assembler::new();
        a.ld(4, abi::SCRATCH0, Space::Src, abi::SRC, 0);
        a.bswap(4, abi::SCRATCH0);
        a.st(4, abi::DST, 0, abi::SCRATCH0);
        let p = a.finish().unwrap();
        let (d, _) = both(&p, &[1, 2, 3, 4], 4, &[]);
        assert_eq!(d, vec![4, 3, 2, 1]);
    }

    #[test]
    fn sign_extension_after_swap_widens_correctly() {
        // Big-endian i16 = -2 (0xFF 0xFE on the wire) -> little-endian i64.
        let mut a = Assembler::new();
        a.ld(2, Reg(8), Space::Src, abi::SRC, 0);
        a.bswap(2, Reg(8));
        a.sext(2, Reg(8));
        a.st(8, abi::DST, 0, Reg(8));
        let p = a.finish().unwrap();
        let (d, _) = both(&p, &[0xFF, 0xFE], 8, &[]);
        assert_eq!(i64::from_le_bytes(d.try_into().unwrap()), -2);
    }

    #[test]
    fn float_narrowing() {
        // f64 0.5 little-endian on wire -> f32 little-endian.
        let mut a = Assembler::new();
        a.ld(8, Reg(8), Space::Src, abi::SRC, 0);
        a.cvt_f64_f32(Reg(8));
        a.st(4, abi::DST, 0, Reg(8));
        let p = a.finish().unwrap();
        let src = 0.5f64.to_bits().to_le_bytes();
        let (d, _) = both(&p, &src, 4, &[]);
        assert_eq!(f32::from_le_bytes(d.try_into().unwrap()), 0.5);
    }

    #[test]
    fn float_widening() {
        let mut a = Assembler::new();
        a.ld(4, Reg(8), Space::Src, abi::SRC, 0);
        a.cvt_f32_f64(Reg(8));
        a.st(8, abi::DST, 0, Reg(8));
        let p = a.finish().unwrap();
        let src = 2.25f32.to_bits().to_le_bytes();
        let (d, _) = both(&p, &src, 8, &[]);
        assert_eq!(f64::from_le_bytes(d.try_into().unwrap()), 2.25);
    }

    #[test]
    fn int_float_round_trip() {
        let mut a = Assembler::new();
        a.mov_imm(Reg(8), (-7i64) as u64);
        a.cvt_i64_f64(Reg(8));
        a.cvt_f64_i64(Reg(8));
        a.st(8, abi::DST, 0, Reg(8));
        let p = a.finish().unwrap();
        let (d, _) = both(&p, &[], 8, &[]);
        assert_eq!(i64::from_le_bytes(d.try_into().unwrap()), -7);
    }

    #[test]
    fn loop_copies_elements() {
        // Copy 5 u16s with byte swap, using a counted loop over cursors.
        let mut a = Assembler::new();
        let top = a.new_label();
        let done = a.new_label();
        a.mov_imm(Reg(9), 5);
        a.bind(top);
        a.brz(Reg(9), done);
        a.ld(2, Reg(8), Space::Src, abi::SRC, 0);
        a.bswap(2, Reg(8));
        a.st(2, abi::DST, 0, Reg(8));
        a.add_imm(abi::SRC, abi::SRC, 2);
        a.add_imm(abi::DST, abi::DST, 2);
        a.add_imm(Reg(9), Reg(9), -1);
        a.jmp(top);
        a.bind(done);
        a.halt();
        let p = a.finish().unwrap();
        let src: Vec<u8> = (0..10).collect();
        let (d, _) = both(&p, &src, 10, &[]);
        assert_eq!(d, vec![1, 0, 3, 2, 5, 4, 7, 6, 9, 8]);
    }

    #[test]
    fn memcpy_and_memset() {
        let mut a = Assembler::new();
        a.memcpy_imm(abi::SRC, 2, abi::DST, 1, 3);
        a.memset_zero(abi::DST, 0, 1);
        let p = a.finish().unwrap();
        let (d, _) = both(&p, &[9, 9, 7, 8, 9], 4, &[]);
        assert_eq!(d, vec![0, 7, 8, 9]);
    }

    #[test]
    fn memcpy_reg_runtime_length() {
        let mut a = Assembler::new();
        a.mov_imm(Reg(8), 4);
        a.memcpy_reg(abi::SRC, 0, abi::DST, 0, Reg(8));
        let p = a.finish().unwrap();
        let (d, _) = both(&p, &[1, 2, 3, 4, 5], 4, &[]);
        assert_eq!(d, vec![1, 2, 3, 4]);
    }

    #[test]
    fn fused_ops_match_scalar_semantics() {
        let p = Program::from_insts(vec![
            Inst::SwapMove {
                w: 4,
                src_base: abi::SRC,
                src_disp: 0,
                dst_base: abi::DST,
                dst_disp: 0,
            },
            Inst::SwapRun {
                w: 2,
                src_base: abi::SRC,
                src_disp: 4,
                dst_base: abi::DST,
                dst_disp: 4,
                count: 3,
            },
            Inst::Halt,
        ])
        .unwrap();
        let src: Vec<u8> = (1..=10).collect();
        let (d, _) = both(&p, &src, 10, &[]);
        assert_eq!(d, vec![4, 3, 2, 1, 6, 5, 8, 7, 10, 9]);
    }

    #[test]
    fn swap_run_all_widths() {
        for (w, count) in [(2u8, 7u32), (4, 5), (8, 3)] {
            let total = (w as usize) * (count as usize);
            let p = Program::from_insts(vec![
                Inst::SwapRun {
                    w,
                    src_base: abi::SRC,
                    src_disp: 0,
                    dst_base: abi::DST,
                    dst_disp: 0,
                    count,
                },
                Inst::Halt,
            ])
            .unwrap();
            let src: Vec<u8> = (0..total as u8).collect();
            let (d, _) = both(&p, &src, total, &[]);
            for c in 0..count as usize {
                for i in 0..w as usize {
                    assert_eq!(
                        d[c * w as usize + i],
                        src[c * w as usize + w as usize - 1 - i]
                    );
                }
            }
        }
    }

    #[test]
    fn out_of_bounds_reported_not_panicking() {
        let mut a = Assembler::new();
        a.ld(8, Reg(8), Space::Src, abi::SRC, 0);
        let p = a.finish().unwrap();
        let mut dst = vec![0u8; 8];
        let err = run(&p, &[1, 2, 3], &mut dst, &[]).unwrap_err();
        assert!(matches!(
            err,
            ExecError::OutOfBounds {
                space: Space::Src,
                ..
            }
        ));
        let err2 = run_reference(&p, &[1, 2, 3], &mut dst, &[]).unwrap_err();
        assert_eq!(err, err2);
    }

    #[test]
    fn negative_displacement_out_of_bounds() {
        let mut a = Assembler::new();
        a.ld(1, Reg(8), Space::Src, abi::SRC, -1);
        let p = a.finish().unwrap();
        let mut dst = vec![0u8; 1];
        assert!(matches!(
            run(&p, &[1], &mut dst, &[]),
            Err(ExecError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn negative_displacement_with_cursor_is_fine() {
        let mut a = Assembler::new();
        a.ld(1, Reg(8), Space::Src, abi::SRC, -1);
        a.st(1, abi::DST, 0, Reg(8));
        let p = a.finish().unwrap();
        let mut dst = vec![0u8; 1];
        run(&p, &[42, 7], &mut dst, &[(abi::SRC, 2)]).unwrap();
        assert_eq!(dst[0], 7);
    }

    #[test]
    fn infinite_loop_hits_step_limit() {
        let mut a = Assembler::new();
        let top = a.new_label();
        a.bind(top);
        a.jmp(top);
        let p = a.finish().unwrap();
        let mut dst = vec![];
        let err = run_with_limit(&p, &[], &mut dst, &[], 1000).unwrap_err();
        assert_eq!(err, ExecError::StepLimit { limit: 1000 });
    }

    #[test]
    fn alu_and_compare_ops() {
        let cases: &[(i64, i64)] = &[(3, 5), (5, 3), (-4, 4), (4, -4), (-7, -7), (0, 0)];
        for &(a, b) in cases {
            let mut asm = Assembler::new();
            asm.mov_imm(Reg(8), a as u64);
            asm.mov_imm(Reg(9), b as u64);
            asm.sub(Reg(10), Reg(8), Reg(9));
            asm.slt(Reg(11), Reg(8), Reg(9));
            asm.sltu(Reg(12), Reg(8), Reg(9));
            asm.set_eqz(Reg(13), Reg(10));
            asm.and(Reg(14), Reg(8), Reg(9));
            asm.or(Reg(15), Reg(8), Reg(9));
            asm.st(8, abi::DST, 0, Reg(10));
            asm.st(1, abi::DST, 8, Reg(11));
            asm.st(1, abi::DST, 9, Reg(12));
            asm.st(1, abi::DST, 10, Reg(13));
            asm.st(8, abi::DST, 16, Reg(14));
            asm.st(8, abi::DST, 24, Reg(15));
            let p = asm.finish().unwrap();
            let (d, _) = both(&p, &[], 32, &[]);
            assert_eq!(
                i64::from_le_bytes(d[0..8].try_into().unwrap()),
                a.wrapping_sub(b)
            );
            assert_eq!(d[8], (a < b) as u8, "slt {a} {b}");
            assert_eq!(d[9], ((a as u64) < (b as u64)) as u8, "sltu {a} {b}");
            assert_eq!(d[10], (a == b) as u8, "seqz {a} {b}");
            assert_eq!(
                u64::from_le_bytes(d[16..24].try_into().unwrap()),
                (a as u64) & (b as u64)
            );
            assert_eq!(
                u64::from_le_bytes(d[24..32].try_into().unwrap()),
                (a as u64) | (b as u64)
            );
        }
    }

    #[test]
    fn float_compare_op() {
        for (a, b, expect) in [
            (1.5f64, 2.5f64, 1u8),
            (2.5, 1.5, 0),
            (-1.0, 1.0, 1),
            (3.0, 3.0, 0),
            (f64::NAN, 1.0, 0),
            (1.0, f64::NAN, 0),
        ] {
            let mut asm = Assembler::new();
            asm.mov_imm(Reg(8), a.to_bits());
            asm.mov_imm(Reg(9), b.to_bits());
            asm.flt_f64(Reg(10), Reg(8), Reg(9));
            asm.st(1, abi::DST, 0, Reg(10));
            let p = asm.finish().unwrap();
            let (d, _) = both(&p, &[], 1, &[]);
            assert_eq!(d[0], expect, "{a} < {b}");
        }
    }

    #[test]
    fn straightline_engine_matches_checked_engine() {
        // A representative generated conversion: scalar conv + fused blocks.
        let mut a = Assembler::new();
        a.ld(4, Reg(8), Space::Src, abi::SRC, 0);
        a.bswap(4, Reg(8));
        a.sext(4, Reg(8));
        a.st(8, abi::DST, 0, Reg(8));
        a.memcpy_imm(abi::SRC, 4, abi::DST, 8, 6);
        a.memset_zero(abi::DST, 14, 2);
        a.swap_run(2, abi::SRC, 10, abi::DST, 16, 4);
        let p = a.finish().unwrap();
        let extents = crate::analysis::analyze(&p).unwrap();
        assert_eq!(extents.src_needed, 18);
        assert_eq!(extents.dst_needed, 24);

        let src: Vec<u8> = (0..18).map(|i| (i * 7 + 3) as u8).collect();
        let mut d1 = vec![0xAAu8; 24];
        let mut d2 = vec![0xAAu8; 24];
        run(&p, &src, &mut d1, &[]).unwrap();
        run_straightline(&p, &extents, &src, &mut d2).unwrap();
        assert_eq!(d1, d2);

        // Short buffers are rejected by the single up-front check.
        let mut short = vec![0u8; 10];
        assert!(matches!(
            run_straightline(&p, &extents, &src, &mut short),
            Err(ExecError::OutOfBounds {
                space: Space::Dst,
                ..
            })
        ));
        assert!(matches!(
            run_straightline(&p, &extents, &src[..4], &mut d2),
            Err(ExecError::OutOfBounds {
                space: Space::Src,
                ..
            })
        ));
    }

    #[test]
    fn stats_count_executed_instructions() {
        let mut a = Assembler::new();
        a.mov_imm(Reg(8), 1);
        a.mov_imm(Reg(9), 2);
        let p = a.finish().unwrap();
        let mut dst = vec![];
        let stats = run(&p, &[], &mut dst, &[]).unwrap();
        assert_eq!(stats.executed, 3); // 2 movs + halt
    }
}
