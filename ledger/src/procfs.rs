//! What `/proc` says about this process: CPU time per named thread, peak
//! resident set, and the machine fingerprint stored with every result file.

use std::fs;
use std::path::Path;

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/*/stat`. The kernel ABI
/// fixes it at 100 on every Linux architecture Rust targets.
const TICKS_PER_SEC: f64 = 100.0;

/// The fields of one `/proc/<pid>/stat` (or `task/<tid>/stat`) line the
/// ledger uses.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskStat {
    pub comm: String,
    pub utime_ticks: u64,
    pub stime_ticks: u64,
}

impl TaskStat {
    pub fn cpu_seconds(&self) -> f64 {
        (self.utime_ticks + self.stime_ticks) as f64 / TICKS_PER_SEC
    }
}

/// Parse a `stat` line. `comm` sits in parentheses and may itself contain
/// spaces and parentheses, so the fields after it are located from the
/// *last* `)`.
pub fn parse_task_stat(line: &str) -> Option<TaskStat> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    if close < open {
        return None;
    }
    // After ") ": state is field 3, utime field 14, stime field 15.
    let mut rest = line[close + 1..].split_ascii_whitespace();
    let utime_ticks = rest.nth(11)?.parse().ok()?;
    let stime_ticks = rest.next()?.parse().ok()?;
    Some(TaskStat {
        comm: line[open + 1..close].to_owned(),
        utime_ticks,
        stime_ticks,
    })
}

/// CPU seconds (user + system) of the whole process, exited threads
/// included.
pub fn process_cpu_seconds() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_task_stat(&s))
        .map_or(0.0, |t| t.cpu_seconds())
}

/// CPU nanoseconds (user + system) the whole process has consumed, read
/// from the kernel's per-process CPU clock: exact to the nanosecond and
/// current to the instant of the call, where `/proc/self/stat` counts
/// 10 ms ticks — too coarse to cost a 50 ms repetition.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_ns() -> u64 {
    /// `struct timespec` on 64-bit Linux: two 64-bit signed fields.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` (libc, which std already links) writes one
    // `timespec` through `tp`; `ts` is a live, exclusively borrowed value
    // whose `#[repr(C)]` layout is that struct's on 64-bit Linux. The
    // clock id is a constant the call validates itself.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return (process_cpu_seconds() * 1e9) as u64;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Tick-resolution stand-in where the CPU clock's ABI is not pinned down.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn process_cpu_ns() -> u64 {
    (process_cpu_seconds() * 1e9) as u64
}

/// CPU seconds of every live thread, summed per thread name.
pub fn thread_cpu_seconds() -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = Vec::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        // A thread can exit between readdir and read; skip it.
        let Some(t) = fs::read_to_string(entry.path().join("stat"))
            .ok()
            .and_then(|s| parse_task_stat(&s))
        else {
            continue;
        };
        match out.iter_mut().find(|(name, _)| *name == t.comm) {
            Some((_, secs)) => *secs += t.cpu_seconds(),
            None => out.push((t.comm.clone(), t.cpu_seconds())),
        }
    }
    out
}

/// CPU seconds of the threads whose name starts with `prefix`, out of a
/// [`thread_cpu_seconds`] reading.
pub fn cpu_of(threads: &[(String, f64)], prefix: &str) -> f64 {
    threads
        .iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .map(|(_, secs)| secs)
        .sum()
}

/// Process and per-thread CPU at one instant; two of them bracket a phase.
#[derive(Debug, Clone)]
pub struct CpuSnapshot {
    process_s: f64,
    threads: Vec<(String, f64)>,
}

impl CpuSnapshot {
    pub fn take() -> CpuSnapshot {
        CpuSnapshot {
            threads: thread_cpu_seconds(),
            process_s: process_cpu_seconds(),
        }
    }

    /// CPU seconds the whole process spent since `earlier`.
    pub fn process_since(&self, earlier: &CpuSnapshot) -> f64 {
        self.process_s - earlier.process_s
    }

    /// CPU seconds spent since `earlier` by threads named `prefix*`.
    pub fn threads_since(&self, earlier: &CpuSnapshot, prefix: &str) -> f64 {
        (cpu_of(&self.threads, prefix) - cpu_of(&earlier.threads, prefix)).max(0.0)
    }

    /// CPU seconds spent since `earlier` by threads that are in neither
    /// listing's named set — in particular threads that started and exited
    /// in between, which `/proc/self/task` can no longer name but the
    /// process total still includes.
    pub fn unnamed_since(&self, earlier: &CpuSnapshot, named: &[&str]) -> f64 {
        let named_s: f64 = named.iter().map(|p| self.threads_since(earlier, p)).sum();
        (self.process_since(earlier) - named_s).max(0.0)
    }
}

fn status_kb(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_kb(&s, "VmHWM"))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Filesystem type of the mount holding `path`, from a `mountinfo` text
/// (longest mount-point prefix wins).
pub fn fs_type_of(mountinfo: &str, path: &Path) -> Option<String> {
    let mut best: Option<(usize, String)> = None;
    for line in mountinfo.lines() {
        // "<id> <parent> <maj:min> <root> <mount point> <opts> ... - <fstype> <src> ..."
        let mut halves = line.splitn(2, " - ");
        let (Some(left), Some(right)) = (halves.next(), halves.next()) else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (
            left.split_ascii_whitespace().nth(4),
            right.split_ascii_whitespace().next(),
        ) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_owned()));
        }
    }
    best.map(|(_, t)| t)
}

fn read_trimmed(path: &str) -> Option<String> {
    fs::read_to_string(path).ok().map(|s| s.trim().to_owned())
}

/// Machine fingerprint: the fields a reader needs to decide whether two
/// result files are comparable.
pub fn fingerprint(store_dir: &Path) -> Vec<(&'static str, String)> {
    let unknown = || "unknown".to_owned();
    let store_fs = fs::read_to_string("/proc/self/mountinfo")
        .ok()
        .and_then(|m| {
            let abs = fs::canonicalize(store_dir).unwrap_or_else(|_| store_dir.to_owned());
            fs_type_of(&m, &abs)
        })
        .unwrap_or_else(unknown);
    vec![
        (
            "nproc",
            std::thread::available_parallelism().map_or_else(|_| unknown(), |n| n.to_string()),
        ),
        (
            "kernel",
            read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_else(unknown),
        ),
        (
            "governor",
            read_trimmed("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
                .unwrap_or_else(unknown),
        ),
        ("rustc", env!("LEDGER_RUSTC").to_owned()),
        ("store_fs", store_fs),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_hostile_comm() {
        let line = "4242 (pbio) serv (x)) S 1 4242 4242 0 -1 4194560 100 0 0 0 \
                    37 5 0 0 20 0 3 0 12345 1000000 200 18446744073709551615";
        let t = parse_task_stat(line).unwrap();
        assert_eq!(t.comm, "pbio) serv (x)");
        assert_eq!((t.utime_ticks, t.stime_ticks), (37, 5));
        assert!((t.cpu_seconds() - 0.42).abs() < 1e-12);
    }

    #[test]
    fn rejects_truncated_stat() {
        assert_eq!(parse_task_stat(""), None);
        assert_eq!(parse_task_stat("1 (a) S 1 2 3"), None);
        assert_eq!(parse_task_stat("1 )a( S"), None);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let t0 = process_cpu_ns();
        let mut x = 1u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        let spent = process_cpu_ns() - t0;
        assert!(spent > 100_000, "{spent} ns for 5M multiplies ({x})");
        // And it agrees with the tick counter to within a few ticks.
        let ticks = process_cpu_seconds() * 1e9;
        assert!((process_cpu_ns() as f64 - ticks).abs() < 0.1e9);
    }

    #[test]
    fn reads_own_process() {
        assert!(peak_rss_mb() > 0.0);
        let threads = thread_cpu_seconds();
        assert!(!threads.is_empty());
        assert!(cpu_of(&threads, "no-such-thread") == 0.0);
    }

    #[test]
    fn status_and_mountinfo_fields() {
        let status = "Name:\tledger\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\n";
        assert_eq!(status_kb(status, "VmHWM"), Some(2048));
        assert_eq!(status_kb(status, "VmRSS"), None);
        let mounts = "22 1 254:0 / / rw,relatime - ext4 /dev/vda rw\n\
                      30 22 0:26 / /tmp rw,nosuid - tmpfs tmpfs rw\n";
        assert_eq!(
            fs_type_of(mounts, Path::new("/tmp/x")).as_deref(),
            Some("tmpfs")
        );
        assert_eq!(
            fs_type_of(mounts, Path::new("/root/x")).as_deref(),
            Some("ext4")
        );
    }
}
