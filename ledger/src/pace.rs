//! The open-loop load generator: sends happen on a fixed schedule that a
//! slow system cannot slow down, and every latency is taken from the
//! moment an event was *due*, not from when it was actually sent.

use std::time::{Duration, Instant};

/// Time source and waiting primitive, so the scheduler can be driven by a
/// fake clock in tests.
pub trait Clock {
    fn now_ns(&self) -> u64;
    /// Return no earlier than `t_ns`; return at once if it already passed.
    fn wait_until(&self, t_ns: u64);
}

/// Monotonic wall clock, ns since construction. One instance is shared by
/// the generator and the receiver so their timestamps are comparable.
#[derive(Debug, Clone, Copy)]
pub struct MonoClock {
    base: Instant,
}

impl MonoClock {
    pub fn new() -> MonoClock {
        MonoClock {
            base: Instant::now(),
        }
    }
}

impl Clock for MonoClock {
    #[inline]
    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Sleep while far away (a sleep overshoots by tens of µs on a busy
    /// 2-core box), yield while near, spin for the last stretch. Yielding
    /// rather than spinning all the way matters with three busy threads on
    /// two cores: a generator that never gives its core up is preempted at
    /// the scheduler's choosing and measured 10x later at p99.
    fn wait_until(&self, t_ns: u64) {
        loop {
            let now = self.now_ns();
            if now >= t_ns {
                return;
            }
            let left = t_ns - now;
            if left > 300_000 {
                std::thread::sleep(Duration::from_nanos(left - 150_000));
            } else if left > 20_000 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// A fixed-rate schedule: event `i` is due at `t0 + i * period`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    pub t0_ns: u64,
    pub period_ns: u64,
}

impl Schedule {
    pub fn at_rate(t0_ns: u64, events_per_s: u64) -> Schedule {
        assert!(events_per_s > 0);
        Schedule {
            t0_ns,
            period_ns: 1_000_000_000 / events_per_s,
        }
    }

    #[inline]
    pub fn due_ns(&self, i: u64) -> u64 {
        self.t0_ns + i * self.period_ns
    }
}

/// Send `n` events open-loop. The schedule is never re-based: after a
/// stall the overdue events go out back to back, each still measured
/// against its original due time, so the stall shows in *their* latency
/// too (no coordinated omission). Appends how late each send started
/// (start − due, ns) to `late_ns`.
pub fn open_loop<C: Clock>(
    clock: &C,
    schedule: Schedule,
    n: u64,
    late_ns: &mut Vec<u64>,
    mut send: impl FnMut(u64),
) {
    for i in 0..n {
        let due = schedule.due_ns(i);
        clock.wait_until(due);
        late_ns.push(clock.now_ns() - due);
        send(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    struct FakeClock(Cell<u64>);

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }
        fn wait_until(&self, t_ns: u64) {
            self.0.set(self.0.get().max(t_ns));
        }
    }

    /// A consumer that takes 10 ns per event, except one 1000 ns stall.
    #[test]
    fn a_stall_lengthens_the_latency_of_the_events_queued_behind_it() {
        let clock = FakeClock(Cell::new(0));
        let schedule = Schedule {
            t0_ns: 0,
            period_ns: 100,
        };
        let mut late = Vec::new();
        let mut from_due = Vec::new();
        let mut from_send = Vec::new();
        open_loop(&clock, schedule, 20, &mut late, |i| {
            let sent = clock.now_ns();
            clock.0.set(sent + if i == 5 { 1000 } else { 10 });
            from_due.push(clock.now_ns() - schedule.due_ns(i));
            from_send.push(clock.now_ns() - sent);
        });

        // Before the stall every event is on time and takes its 10 ns.
        assert!(late[..=5].iter().all(|&l| l == 0));
        assert!(from_due[..5].iter().all(|&l| l == 10));
        assert_eq!(from_due[5], 1000);
        // Events 6..=15 were due while the consumer was stalled: measured
        // from their due time they are slow, draining 90 ns per event...
        let expect: Vec<u64> = (6..=15).map(|i| 1510 + 10 * (i - 6) - 100 * i).collect();
        assert_eq!(&from_due[6..=15], &expect[..]);
        assert_eq!((from_due[6], from_due[15]), (910, 100));
        assert_eq!(late[6], 900);
        // ...while a clock started at the actual send would have called
        // every one of them fast: that is coordinated omission.
        assert!(from_send[6..].iter().all(|&l| l == 10));
        // Once the backlog is gone the schedule is met again.
        assert!(late[16..].iter().all(|&l| l == 0));
        assert!(from_due[16..].iter().all(|&l| l == 10));
    }

    #[test]
    fn real_clock_waits_and_does_not_run_backwards() {
        let clock = MonoClock::new();
        let t = clock.now_ns() + 2_000_000;
        clock.wait_until(t);
        assert!(clock.now_ns() >= t);
        clock.wait_until(0);
        assert_eq!(Schedule::at_rate(5, 20_000).due_ns(3), 5 + 3 * 50_000);
    }
}
