//! The network model: one-way transfer time as latency + bytes / throughput.

use std::time::Duration;

/// A point-to-point link model. Transfer time for an `n`-byte message is
/// `latency + n * byte_time` — the standard first-order model of a TCP
/// stream on a LAN, and exactly how the paper's figures account for the
/// network component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimLink {
    /// Fixed per-message cost (protocol stacks, interrupt handling,
    /// propagation).
    pub latency: Duration,
    /// Time per payload byte (inverse effective throughput).
    pub byte_time: Duration,
}

impl SimLink {
    /// A link calibrated to the paper's testbed (Figure 1): 100 Mbps
    /// Ethernet between Solaris 7 hosts, where the measured one-way network
    /// times were 0.227 ms (100 B), 0.345 ms (1 KB), 1.94 ms (10 KB) and
    /// 15.39 ms (100 KB). A least-squares fit of `latency + n·t_byte` gives
    /// ≈ 212 µs latency and ≈ 152 ns/byte (≈ 52 Mbps effective — TCP on
    /// 100 Mbps Ethernet of that era delivered roughly half the line rate
    /// for these message sizes).
    pub fn paper_ethernet() -> SimLink {
        SimLink {
            latency: Duration::from_nanos(212_000),
            byte_time: Duration::from_nanos(152),
        }
    }

    /// One-way transfer time for `bytes` payload bytes.
    pub fn transfer_time(&self, bytes: usize) -> Duration {
        self.latency + self.byte_time * (bytes as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_is_affine() {
        let l = SimLink {
            latency: Duration::from_micros(100),
            byte_time: Duration::from_nanos(100),
        };
        assert_eq!(l.transfer_time(0), Duration::from_micros(100));
        assert_eq!(l.transfer_time(1000), Duration::from_micros(200));
    }

    #[test]
    fn paper_calibration_matches_figure_1() {
        // One-way network times from Figure 1, with tolerance: the paper's
        // four points aren't exactly affine, so allow 15%.
        let l = SimLink::paper_ethernet();
        let cases = [
            (100usize, 227.0f64),
            (1_000, 345.0),
            (10_000, 1_940.0),
            (100_000, 15_390.0),
        ];
        for (bytes, expect_us) in cases {
            let got = l.transfer_time(bytes).as_secs_f64() * 1e6;
            let err = (got - expect_us).abs() / expect_us;
            assert!(
                err < 0.15,
                "{bytes} B: got {got:.1} µs, paper {expect_us} µs"
            );
        }
    }
}
