//! Speed calibration. The reference box is a shared 2-vCPU VM whose whole
//! clock steps between levels 1 : 1.15 : 1.28 apart every few seconds, as
//! its neighbours come and go. Wall-clock rates therefore differ by 15 %
//! between two runs of the same binary — but a fixed compute kernel timed
//! next to a repetition slows by the same factor: over five minutes the
//! ratio of the two stayed within ±1 % while each alone moved ±14 %.
//!
//! So every timed repetition is bracketed by this kernel, and times are
//! reported in *nominal* seconds: measured seconds divided by how many
//! times slower than nominal the box ran just then. On a quiet reference
//! box the factor is 1 and nominal seconds are seconds.

use std::hint::black_box;
use std::time::Instant;

/// Dependent steps per kernel run (each an L1 table lookup, a shift and
/// two xors: latency-bound, so it tracks the clock and nothing else).
const STEPS: u32 = 100_000;

/// What one kernel run takes on the reference box at its fastest level.
const NOMINAL_NS: f64 = 194_000.0;

/// Times the calibration kernel on the calling thread.
pub struct Calibrator {
    table: [u32; 256],
}

impl Calibrator {
    pub fn new() -> Calibrator {
        let mut table = [0u32; 256];
        for (i, t) in table.iter_mut().enumerate() {
            *t = (i as u32).wrapping_mul(2_654_435_761);
        }
        Calibrator { table }
    }

    fn kernel_ns(&self) -> f64 {
        let t0 = Instant::now();
        let mut x = 1u32;
        for i in 0..STEPS {
            x = self.table[((x ^ i) & 0xff) as usize] ^ (x >> 8);
        }
        black_box(x);
        t0.elapsed().as_nanos() as f64
    }

    /// How many times slower than nominal this thread runs right now
    /// (about 0.6 ms). The fastest of three timings: an interruption can
    /// only lengthen a timing, and a lengthened one would *flatter* the
    /// repetition it is applied to.
    pub fn factor(&self) -> f64 {
        let best = (0..3)
            .map(|_| self.kernel_ns())
            .fold(f64::INFINITY, f64::min);
        best / NOMINAL_NS
    }
}

/// A duration timed between two calibrations.
#[derive(Debug, Clone, Copy)]
pub struct Bracketed {
    pub seconds: f64,
    /// Mean of the speed factors before and after.
    pub factor: f64,
}

impl Bracketed {
    /// The duration in nominal seconds.
    pub fn nominal_seconds(&self) -> f64 {
        self.seconds / self.factor
    }
}

/// Calibrates between consecutive timed sections, reusing each "after"
/// reading as the next section's "before".
pub struct Bracket<'a> {
    calibrator: &'a Calibrator,
    last: f64,
}

impl<'a> Bracket<'a> {
    pub fn new(calibrator: &'a Calibrator) -> Bracket<'a> {
        Bracket {
            last: calibrator.factor(),
            calibrator,
        }
    }

    /// Time `section` (calibration excluded) and bracket it.
    pub fn time<T>(&mut self, section: impl FnOnce() -> T) -> (T, Bracketed) {
        let t0 = Instant::now();
        let value = section();
        let seconds = t0.elapsed().as_secs_f64();
        let after = self.calibrator.factor();
        let factor = (self.last + after) / 2.0;
        self.last = after;
        (value, Bracketed { seconds, factor })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_positive_and_repeatable() {
        let c = Calibrator::new();
        let readings: Vec<f64> = (0..20).map(|_| c.factor()).collect();
        assert!(readings.iter().all(|f| f.is_finite() && *f > 0.0));
        // Same kernel, same thread, back to back: the fastest two of
        // twenty readings agree closely whatever the box is doing.
        let mut sorted = readings.clone();
        sorted.sort_by(f64::total_cmp);
        assert!(sorted[1] / sorted[0] < 1.2, "{sorted:?}");
    }

    #[test]
    fn bracket_reports_nominal_time() {
        let b = Bracketed {
            seconds: 3.0,
            factor: 1.5,
        };
        assert_eq!(b.nominal_seconds(), 2.0);
        let c = Calibrator::new();
        let mut bracket = Bracket::new(&c);
        let (v, timed) = bracket.time(|| 7);
        assert_eq!(v, 7);
        assert!(timed.seconds >= 0.0 && timed.factor > 0.0);
    }
}
