//! The crate's one raw-syscall shim: Linux on x86_64 or aarch64, no
//! libc. [`crate::poll`] issues `ppoll(2)` through it and
//! [`crate::affinity`] `sched_setaffinity(2)` and
//! `sched_setscheduler(2)`.

use std::io;

#[cfg(target_arch = "x86_64")]
pub(crate) const SYS_PPOLL: usize = 271;
#[cfg(target_arch = "aarch64")]
pub(crate) const SYS_PPOLL: usize = 73;
#[cfg(target_arch = "x86_64")]
pub(crate) const SYS_SCHED_SETSCHEDULER: usize = 144;
#[cfg(target_arch = "aarch64")]
pub(crate) const SYS_SCHED_SETSCHEDULER: usize = 119;
#[cfg(target_arch = "x86_64")]
pub(crate) const SYS_SCHED_SETAFFINITY: usize = 203;
#[cfg(target_arch = "aarch64")]
pub(crate) const SYS_SCHED_SETAFFINITY: usize = 122;

/// Issue syscall `nr` with up to five arguments (unused ones 0) and
/// return its result: non-negative on success, `-errno` on failure.
///
/// # Safety
///
/// Every pointer among `args` must be valid for whatever syscall `nr`
/// reads or writes through it, for the duration of the call.
pub(crate) unsafe fn syscall(nr: usize, args: [usize; 5]) -> isize {
    let ret: isize;
    // SAFETY: the register assignment is each architecture's Linux
    // syscall ABI: x86_64 takes the number in rax and arguments in rdi,
    // rsi, rdx, r10, r8, and the `syscall` instruction clobbers rcx and
    // r11; aarch64 takes the number in x8 and arguments in x0..x4 and
    // clobbers nothing else. The kernel touches no stack of ours
    // (`nostack`), and the memory it touches through the arguments is
    // the caller's contract above.
    unsafe {
        #[cfg(target_arch = "x86_64")]
        core::arch::asm!(
            "syscall",
            inlateout("rax") nr as isize => ret,
            in("rdi") args[0],
            in("rsi") args[1],
            in("rdx") args[2],
            in("r10") args[3],
            in("r8") args[4],
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        #[cfg(target_arch = "aarch64")]
        core::arch::asm!(
            "svc 0",
            in("x8") nr,
            inlateout("x0") args[0] => ret,
            in("x1") args[1],
            in("x2") args[2],
            in("x3") args[3],
            in("x4") args[4],
            options(nostack),
        );
    }
    ret
}

/// A syscall result as `io::Result`: the non-negative return value, or
/// the error its `-errno` names.
pub(crate) fn check(ret: isize) -> io::Result<usize> {
    if ret < 0 {
        return Err(io::Error::from_raw_os_error(-ret as i32));
    }
    Ok(ret as usize)
}
