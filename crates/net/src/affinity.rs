//! Thread → CPU pinning for reactor shards — raw `sched_setaffinity(2)`,
//! no libc.
//!
//! A sharded event loop gets most of its cache locality for free: every
//! connection's decode buffer, outbound queue, and frame scratch live on
//! exactly one reactor thread. Pinning each reactor to its own CPU
//! finishes the job — the thread stops migrating, so those structures
//! stop bouncing between L2s. This module is the mechanism; policy
//! (which shard goes where, and whether to pin at all) belongs to the
//! daemon's config.
//!
//! Like [`crate::poll`], the Linux path issues the syscall directly so
//! the crate stays dependency-free, and every other platform gets an
//! honest "unsupported" error the caller can treat as "run unpinned".

use std::io;

/// Pin the *calling* thread to `cpu` (a zero-based logical CPU index).
///
/// Returns `Ok(())` when the kernel accepted the mask. Errors are
/// non-fatal by design: an out-of-range CPU, a restrictive cgroup
/// cpuset, or a non-Linux host all surface as `Err`, and the right
/// caller response is to keep running unpinned (and report `-1` in
/// topology snapshots).
pub fn pin_current_thread(cpu: usize) -> io::Result<()> {
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    {
        sys::setaffinity(cpu)
    }
    #[cfg(not(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    )))]
    {
        let _ = cpu;
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "thread pinning is only implemented on Linux",
        ))
    }
}

// ---------------------------------------------------------------------------
// Linux sched_setaffinity(2) backend — raw syscalls, no libc.

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    use std::io;

    #[cfg(target_arch = "x86_64")]
    const SYS_SCHED_SETAFFINITY: isize = 203;
    #[cfg(target_arch = "aarch64")]
    const SYS_SCHED_SETAFFINITY: isize = 122;

    /// Bits in the affinity mask we pass (1024 CPUs, glibc's default
    /// `cpu_set_t` width — comfortably above any host this runs on).
    const MASK_BITS: usize = 1024;
    const MASK_WORDS: usize = MASK_BITS / 64;

    pub(super) fn setaffinity(cpu: usize) -> io::Result<()> {
        if cpu >= MASK_BITS {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "CPU index exceeds the affinity mask width",
            ));
        }
        let mut mask = [0u64; MASK_WORDS];
        mask[cpu / 64] = 1u64 << (cpu % 64);
        // pid 0 = the calling thread.
        let ret = sys_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
        if ret < 0 {
            return Err(io::Error::from_raw_os_error(-ret as i32));
        }
        Ok(())
    }

    #[cfg(target_arch = "x86_64")]
    fn sys_setaffinity(pid: usize, len: usize, mask: *const u64) -> isize {
        let ret: isize;
        // SAFETY: sched_setaffinity only *reads* `len` bytes of the mask
        // (a live stack array); no memory is written by the kernel.
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") SYS_SCHED_SETAFFINITY => ret,
                in("rdi") pid,
                in("rsi") len,
                in("rdx") mask,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    #[cfg(target_arch = "aarch64")]
    fn sys_setaffinity(pid: usize, len: usize, mask: *const u64) -> isize {
        let ret: isize;
        // SAFETY: as above; aarch64 passes the syscall number in x8.
        unsafe {
            core::arch::asm!(
                "svc 0",
                in("x8") SYS_SCHED_SETAFFINITY,
                inlateout("x0") pid => ret,
                in("x1") len,
                in("x2") mask,
                options(nostack),
            );
        }
        ret
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_os = "linux")]
    fn pinning_to_cpu_zero_succeeds() {
        // CPU 0 always exists; the call must take effect without error.
        pin_current_thread(0).expect("pin to CPU 0");
    }

    #[test]
    fn pinning_to_an_absurd_cpu_fails_cleanly() {
        assert!(pin_current_thread(1 << 20).is_err());
    }
}
