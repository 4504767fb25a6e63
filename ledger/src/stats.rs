//! Order statistics: quartiles as the driver computes them, and the
//! windowed percentile estimator the latency metrics use.

/// Median of `values` (mean of the middle pair for an even count).
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them — the
/// rule the driver's spread check uses. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        // Signed: the clamp can push `j * 4` past `i * m` for tiny samples.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile distance as a share of the median (0 below two values).
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q3)) => (q3 - q1) / median(values).abs(),
        None => 0.0,
    }
}

/// Nearest-rank percentile of an ascending slice; `p` in `0.0..=1.0`.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// What [`SegmentLatency::finish`] reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Median over segments of each segment's median, in nominal ns.
    pub p50_ns: f64,
    /// 99th percentile, raw ns: the median of the segments' own p99 when
    /// every segment holds enough samples for one, else the p99 of all
    /// samples together.
    pub p99_ns: f64,
    pub samples: u64,
    pub segments: usize,
    /// Fastest and slowest segment median, nominal ns.
    pub p50_range_ns: (f64, f64),
}

/// A segment's p99 needs ten samples beyond it to mean anything.
const MIN_P99_SAMPLES: usize = 1000;

/// Latency percentiles per short segment of the paced phase, summarised
/// by the median across segments: a stall lands in one or two segments
/// and cannot move the reported figure, which a whole-phase percentile
/// over the same samples would. Each segment's median is divided by the
/// speed factor measured around that segment (see `calib`).
#[derive(Default)]
pub struct SegmentLatency {
    p50s: Vec<f64>,
    p99s: Vec<f64>,
    every_segment_has_p99: bool,
    merged: Vec<u64>,
}

impl SegmentLatency {
    pub fn new() -> SegmentLatency {
        SegmentLatency {
            every_segment_has_p99: true,
            ..SegmentLatency::default()
        }
    }

    /// Add one segment's latencies (ns), measured while the box ran
    /// `factor` times slower than nominal.
    pub fn add_segment(&mut self, mut latencies_ns: Vec<u64>, factor: f64) {
        if latencies_ns.is_empty() {
            return;
        }
        latencies_ns.sort_unstable();
        self.p50s
            .push(percentile_sorted(&latencies_ns, 0.50) as f64 / factor);
        if latencies_ns.len() >= MIN_P99_SAMPLES {
            self.p99s
                .push(percentile_sorted(&latencies_ns, 0.99) as f64);
        } else {
            self.every_segment_has_p99 = false;
        }
        self.merged.append(&mut latencies_ns);
    }

    pub fn finish(mut self) -> Option<LatencySummary> {
        if self.merged.is_empty() {
            return None;
        }
        let p99_ns = if self.every_segment_has_p99 {
            median(&self.p99s)
        } else {
            self.merged.sort_unstable();
            percentile_sorted(&self.merged, 0.99) as f64
        };
        Some(LatencySummary {
            p50_ns: median(&self.p50s),
            p99_ns,
            samples: self.merged.len() as u64,
            segments: self.p50s.len(),
            p50_range_ns: (
                self.p50s.iter().copied().fold(f64::INFINITY, f64::min),
                self.p50s.iter().copied().fold(0.0, f64::max),
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some((7.5, 22.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.50), 50);
        assert_eq!(percentile_sorted(&v, 0.99), 99);
        assert_eq!(percentile_sorted(&v, 1.0), 100);
        assert_eq!(percentile_sorted(&[7], 0.99), 7);
    }

    #[test]
    fn a_stalled_segment_does_not_move_the_reported_latency() {
        let mut lat = SegmentLatency::new();
        for segment in 0..5u64 {
            // Segment 2 is a hiccup: everything 100x slower.
            let values = (0..2000u64)
                .map(|i| {
                    if segment == 2 {
                        100_000
                    } else {
                        1_000 + i % 10
                    }
                })
                .collect();
            lat.add_segment(values, 1.0);
        }
        lat.add_segment(Vec::new(), 1.0);
        let s = lat.finish().unwrap();
        assert_eq!((s.segments, s.samples), (5, 10_000));
        assert_eq!(s.p99_ns, 1009.0);
        assert!(s.p50_ns >= 1000.0 && s.p50_ns <= 1009.0);
    }

    #[test]
    fn segment_medians_are_reported_in_nominal_time() {
        let mut lat = SegmentLatency::new();
        // The same work measured while the box ran 1x, 1.25x and 1.5x slow.
        for factor in [1.0, 1.25, 1.5] {
            lat.add_segment(vec![(4000.0 * factor) as u64; 100], factor);
        }
        let s = lat.finish().unwrap();
        assert_eq!(s.p50_ns, 4000.0);
        // Too few samples per segment for a p99 of their own: all 300
        // samples together, raw.
        assert_eq!(s.p99_ns, 6000.0);
        assert!(SegmentLatency::new().finish().is_none());
    }
}
