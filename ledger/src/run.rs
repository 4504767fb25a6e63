//! What every workload shares: the run plan (how long, traced or not),
//! output-check accounting, and the shape of a finished run.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::calib::{Bracket, Calibrator};
use crate::json::Json;
use crate::procfs;
use crate::stats;

/// How one invocation measures.
#[derive(Debug, Clone)]
pub struct RunPlan {
    pub seed: u64,
    /// Measured seconds, split between a workload's phases.
    pub seconds: f64,
    /// Per-layer run: in-memory spans, counter and per-thread CPU deltas,
    /// standalone probes. End-to-end metrics come from untraced runs only.
    pub trace: bool,
    /// Same code paths at tiny counts.
    pub smoke: bool,
    /// Scratch directory inside the checkout (durable store, probe logs).
    pub scratch: PathBuf,
}

impl RunPlan {
    /// A share of the measured time.
    pub fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }

    /// The paced phase runs in segments of this length, each open-loop on
    /// its own schedule, with a speed calibration between them.
    pub fn segment(&self) -> Duration {
        Duration::from_millis(if self.smoke { 25 } else { 250 })
    }

    /// A fixed per-repetition event count, shrunk for `--smoke`.
    pub fn rep_events(&self, full: u64) -> u64 {
        if self.smoke {
            (full / 50).max(64)
        } else {
            full
        }
    }

    /// How many times set-up runs, at least and at most; `setup_s` is
    /// the median. A traced run reports no set-up time and sets up once.
    pub fn setups(&self) -> (usize, usize) {
        match (self.smoke, self.trace) {
            (true, _) => (2, 2),
            (false, true) => (1, 1),
            (false, false) => (5, 41),
        }
    }
}

/// No wait inside a phase outlasts this; events still missing then count
/// as failed.
pub const PHASE_DEADLINE: Duration = Duration::from_secs(60);

/// Every `CHECK_EVERY`-th record is byte-compared with its reference.
pub const CHECK_EVERY: u64 = 64;

/// Output-check accounting. Every event attempted is counted once; an
/// event that is lost, duplicated, out of order, wrong, dropped, unacked
/// or late past the deadline counts as failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the person reading the output.
    pub notes: Vec<String>,
}

impl Checks {
    pub fn fail(&mut self, events: u64, what: impl FnOnce() -> String) {
        if events == 0 {
            return;
        }
        self.failed += events;
        if self.notes.len() < 8 {
            self.notes.push(what());
        }
    }

    /// A run-level check (an accounting identity, a validity rule): fails
    /// the run without attributing the failure to particular events.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(1, what);
        }
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(n);
            }
        }
    }
}

/// The closed-loop phase: many short fixed-size repetitions, each timed,
/// costed and speed-calibrated on its own; the median is reported.
#[derive(Debug, Default)]
pub struct FloodResult {
    /// Events per nominal second of each repetition.
    pub rep_rates: Vec<f64>,
    /// Process CPU µs (nominal) per event of each repetition.
    pub rep_cpu_us: Vec<f64>,
    /// Speed factor of each repetition.
    pub rep_factors: Vec<f64>,
    pub events: u64,
    pub payload_bytes: u64,
    pub wall_s: f64,
}

impl FloodResult {
    /// Run fixed-size repetitions until `share` of the plan's time is
    /// spent and a minimum count is in. `rep` performs one and returns its
    /// events and payload bytes.
    pub fn measure(
        plan: &RunPlan,
        share: f64,
        calibrator: &Calibrator,
        mut rep: impl FnMut() -> Result<(u64, u64), String>,
    ) -> Result<FloodResult, String> {
        let (budget, min_reps) = (plan.budget(share), if plan.smoke { 3 } else { 10 });
        let mut out = FloodResult::default();
        let mut bracket = Bracket::new(calibrator);
        let start = Instant::now();
        while out.rep_rates.len() < min_reps || start.elapsed() < budget {
            let (done, timed) = bracket.time(|| {
                let cpu0 = procfs::process_cpu_ns();
                rep().map(|counts| (counts, procfs::process_cpu_ns() - cpu0))
            });
            let ((events, bytes), cpu_ns) = done?;
            out.rep_rates.push(events as f64 / timed.nominal_seconds());
            out.rep_cpu_us
                .push(cpu_ns as f64 / 1e3 / timed.factor / events.max(1) as f64);
            out.rep_factors.push(timed.factor);
            out.events += events;
            out.payload_bytes += bytes;
            out.wall_s += timed.seconds;
        }
        Ok(out)
    }

    pub fn events_per_s(&self) -> f64 {
        stats::median(&self.rep_rates)
    }

    /// Native record bytes per nominal second at the reported event rate.
    pub fn payload_mb_per_s(&self) -> f64 {
        self.events_per_s() * (self.payload_bytes as f64 / self.events.max(1) as f64) / 1e6
    }

    pub fn cpu_us_per_event(&self) -> f64 {
        stats::median(&self.rep_cpu_us)
    }

    pub fn speed_factor(&self) -> f64 {
        stats::median(&self.rep_factors)
    }

    /// Events per wall-clock second over the whole phase, uncalibrated.
    pub fn raw_events_per_s(&self) -> f64 {
        self.events as f64 / self.wall_s
    }
}

/// A finished run of one workload.
#[derive(Debug, Default)]
pub struct RunOutput {
    pub checks: Checks,
    /// `(metric name, value)` — every end-to-end metric for an untraced
    /// run, every per-layer metric for a traced one.
    pub metrics: Vec<(String, f64)>,
    /// Extra facts worth printing that are not metrics (sample counts,
    /// quartiles of the repetitions, the input hash).
    pub info: Vec<(String, String)>,
    pub spans: Option<Json>,
}

impl RunOutput {
    pub fn put(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_owned(), value));
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_owned(), value.to_string()));
    }

    pub fn correct(&self) -> bool {
        self.checks.failed == 0 && self.checks.attempted > 0
    }
}
