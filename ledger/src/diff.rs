//! `ledger diff A.json B.json`: per (metric, workload), is B the same as,
//! better than or worse than A — judged against the metric's bound and the
//! runs' own quartile spread.

use std::fmt::Write as _;

use crate::metrics::{self, Better};
use crate::result::ResultFile;
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// The run-to-run spread is wider than the bound (or than the
    /// difference): the runs cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison {
    pub verdict: Verdict,
    pub base: f64,
    pub other: f64,
    /// The wider of the two sides' inter-quartile spreads, as a share of
    /// that side's median.
    pub spread: f64,
}

/// Compare medians of `a` (base) and `b`. A difference counts only past
/// `bound`; it is believed only if it also exceeds the spread.
pub fn classify(a: &[f64], b: &[f64], better: Better, bound: f64) -> Comparison {
    let (base, other) = (stats::median(a), stats::median(b));
    let spread = stats::spread(a).max(stats::spread(b));
    let change = (other - base) / base.abs();
    let worse_by = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let verdict = if !worse_by.is_finite() {
        Verdict::Unresolved
    } else if worse_by.abs() > bound {
        if worse_by.abs() <= spread {
            Verdict::Unresolved
        } else if worse_by > 0.0 {
            Verdict::Worse
        } else {
            Verdict::Better
        }
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Same
    };
    Comparison {
        verdict,
        base,
        other,
        spread,
    }
}

/// The report and whether any row came out `worse`.
pub fn report(a: &ResultFile, b: &ResultFile, layers: bool) -> (String, bool) {
    let mut out = String::new();
    let mut any_worse = false;
    for (k, v) in &a.fingerprint {
        let other = b
            .fingerprint
            .iter()
            .find(|(bk, _)| bk == k)
            .map_or("?", |(_, bv)| bv.as_str());
        if v != other {
            let _ = writeln!(out, "note: fingerprint {k} differs: {v:?} vs {other:?}");
        }
    }
    let _ = writeln!(
        out,
        "{:<22} {:<18} {:<10} {:>14} {:>14} {:>8} {:>7} {:>6}  unit",
        "workload", "metric", "verdict", "base A", "B", "B/A", "spread", "n"
    );
    for w in &metrics::WORKLOADS {
        for m in &metrics::END_TO_END {
            let (va, vb) = (
                a.values(w.name, false, m.name),
                b.values(w.name, false, m.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let mut c = classify(&va, &vb, m.better, m.bound);
            // Set-up time is judged on its medians alone, as the driver
            // judges it: a few-ms set-up is all thread spawns and
            // handshakes, and its spread says more about the host than
            // about the code.
            if m.name == "setup_s" && c.verdict == Verdict::Unresolved {
                c.verdict = classify(&[c.base], &[c.other], m.better, m.bound).verdict;
            }
            any_worse |= c.verdict == Verdict::Worse;
            let _ = writeln!(
                out,
                "{:<22} {:<18} {:<10} {:>14.4} {:>14.4} {:>8.4} {:>7.4} {:>3}/{:<3} {}",
                w.name,
                m.name,
                c.verdict.as_str(),
                c.base,
                c.other,
                c.other / c.base,
                c.spread,
                va.len(),
                vb.len(),
                m.unit
            );
        }
        let failed = |f: &ResultFile| -> u64 {
            f.runs
                .iter()
                .filter(|r| r.workload == w.name)
                .map(|r| r.failed)
                .sum()
        };
        let (fa, fb) = (failed(a), failed(b));
        if fb > fa {
            any_worse = true;
        }
        let _ = writeln!(
            out,
            "{:<22} {:<18} {:<10} {:>14} {:>14}",
            w.name,
            "failed",
            if fb > fa { "worse" } else { "same" },
            fa,
            fb
        );
        if !layers {
            continue;
        }
        // Per-layer metrics carry no bound: ratios only, for the reader.
        for m in metrics::per_layer() {
            let (va, vb) = (
                a.values(w.name, true, &m.name),
                b.values(w.name, true, &m.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            let _ = writeln!(
                out,
                "{:<22} {:<34} {:>14.4} {:>14.4} {:>8.4} {}",
                w.name,
                m.name,
                ma,
                mb,
                mb / ma,
                m.unit
            );
        }
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIGHT_A: [f64; 5] = [100.0, 101.0, 99.0, 100.5, 99.5];

    fn scaled(v: &[f64], k: f64) -> Vec<f64> {
        v.iter().map(|x| x * k).collect()
    }

    #[test]
    fn classification_follows_direction_bound_and_spread() {
        let v = |b: &[f64], better| classify(&TIGHT_A, b, better, 0.10).verdict;
        // Within the bound either way: same.
        assert_eq!(v(&scaled(&TIGHT_A, 1.05), Better::Lower), Verdict::Same);
        assert_eq!(v(&scaled(&TIGHT_A, 0.95), Better::Higher), Verdict::Same);
        // Past the bound: direction decides.
        assert_eq!(v(&scaled(&TIGHT_A, 1.2), Better::Lower), Verdict::Worse);
        assert_eq!(v(&scaled(&TIGHT_A, 1.2), Better::Higher), Verdict::Better);
        assert_eq!(v(&scaled(&TIGHT_A, 0.8), Better::Lower), Verdict::Better);
        assert_eq!(v(&scaled(&TIGHT_A, 0.8), Better::Higher), Verdict::Worse);
        // A noisy side cannot certify "same"...
        let noisy = [80.0, 120.0, 100.0, 60.0, 140.0];
        assert_eq!(v(&noisy, Better::Lower), Verdict::Unresolved);
        // ...nor a difference smaller than its own spread...
        let noisy_up = scaled(&noisy, 1.3);
        assert_eq!(v(&noisy_up, Better::Lower), Verdict::Unresolved);
        // ...but a difference that clears the spread is still believed.
        assert_eq!(v(&scaled(&noisy, 3.0), Better::Lower), Verdict::Worse);
        let c = classify(&TIGHT_A, &scaled(&TIGHT_A, 1.2), Better::Lower, 0.10);
        assert_eq!((c.base, c.other), (100.0, 120.0));
        assert!(c.spread < 0.02);
    }
}
