//! Thread → CPU pinning for reactor shards — raw `sched_setaffinity(2)`,
//! no libc — and the `SCHED_BATCH` policy for a helper thread pinned
//! beside one ([`batch_current_thread`]).
//!
//! A sharded event loop gets most of its cache locality for free: every
//! connection's decode buffer, outbound queue, and frame scratch live on
//! exactly one reactor thread. Pinning each reactor to its own CPU
//! finishes the job — the thread stops migrating, so those structures
//! stop bouncing between L2s. This module is the mechanism; policy
//! (which shard goes where, and whether to pin at all) belongs to the
//! daemon's config.
//!
//! Like [`crate::poll`], it issues the syscalls directly (through the
//! crate's one shim) so the crate stays dependency-free.

use std::io;

use crate::sys::{check, syscall, SYS_SCHED_SETAFFINITY, SYS_SCHED_SETSCHEDULER};

/// `SCHED_BATCH` from `<linux/sched.h>`.
const SCHED_BATCH: usize = 3;

/// Bits in the affinity mask we pass (1024 CPUs, glibc's default
/// `cpu_set_t` width — comfortably above any host this runs on).
const MASK_BITS: usize = 1024;
const MASK_WORDS: usize = MASK_BITS / 64;

/// Pin the *calling* thread to `cpu` (a zero-based logical CPU index).
///
/// Returns `Ok(())` when the kernel accepted the mask. Errors are
/// non-fatal by design: an out-of-range CPU or a restrictive cgroup
/// cpuset surface as `Err`, and the right caller response is to keep
/// running unpinned (and report `-1` in topology snapshots).
pub fn pin_current_thread(cpu: usize) -> io::Result<()> {
    if cpu >= MASK_BITS {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "CPU index exceeds the affinity mask width",
        ));
    }
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1u64 << (cpu % 64);
    // SAFETY: the kernel only reads `size_of_val(&mask)` bytes of the
    // mask, a live stack array. pid 0 = the calling thread.
    let ret = unsafe {
        syscall(
            SYS_SCHED_SETAFFINITY,
            [
                0,
                std::mem::size_of_val(&mask),
                mask.as_ptr() as usize,
                0,
                0,
            ],
        )
    };
    check(ret).map(drop)
}

/// Give the *calling* thread the `SCHED_BATCH` policy: same weight and
/// fair share as before, but its wakeups no longer preempt the thread
/// running on its CPU. It runs when that thread sleeps, or at the next
/// scheduler tick — the right shape for a helper pinned beside a
/// latency-bound thread that feeds it work, which then drains that
/// work in batches instead of one wakeup per item.
///
/// Unprivileged (switching between the normal policies needs no
/// capability). Errors are non-fatal like [`pin_current_thread`]'s: the
/// thread keeps its normal policy.
pub fn batch_current_thread() -> io::Result<()> {
    // `struct sched_param { int sched_priority; }`: 0 for the normal
    // policies.
    let param: i32 = 0;
    // SAFETY: the kernel only reads the live stack `param`.
    let ret = unsafe {
        syscall(
            SYS_SCHED_SETSCHEDULER,
            [0, SCHED_BATCH, &param as *const i32 as usize, 0, 0],
        )
    };
    check(ret).map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_to_cpu_zero_succeeds() {
        // CPU 0 always exists; the call must take effect without error.
        pin_current_thread(0).expect("pin to CPU 0");
    }

    #[test]
    fn pinning_to_an_absurd_cpu_fails_cleanly() {
        assert!(pin_current_thread(1 << 20).is_err());
    }

    #[test]
    fn batch_policy_takes_effect() {
        // On a thread of its own: the policy sticks to the caller.
        std::thread::spawn(|| {
            batch_current_thread().expect("SCHED_BATCH needs no privilege");
            let stat = std::fs::read_to_string("/proc/thread-self/stat").unwrap();
            // Field 41 is the policy; `comm` (field 2) may hold spaces,
            // so count from the closing parenthesis.
            let after_comm = &stat[stat.rfind(')').unwrap() + 2..];
            let policy = after_comm.split(' ').nth(41 - 3).unwrap();
            assert_eq!(policy, "3", "SCHED_BATCH");
        })
        .join()
        .unwrap();
    }
}
