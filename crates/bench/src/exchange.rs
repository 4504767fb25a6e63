//! The exchange measurement harness.
//!
//! Produces the encode / network / decode breakdowns of Figures 1 and 5:
//! encode and decode closures are *measured* (real CPU time on the host,
//! averaged over iterations); the network leg is *modeled* from the wire
//! size through a [`SimLink`]. This mirrors how the paper reports its
//! numbers: CPU components measured on each machine, network component a
//! size-dependent term.

use std::time::{Duration, Instant};

use pbio_net::SimLink;

/// One direction of a message exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LegCosts {
    /// Sender-side CPU time to produce the wire bytes.
    pub encode: Duration,
    /// Modeled network transfer time for the wire bytes.
    pub network: Duration,
    /// Receiver-side CPU time to make the data usable.
    pub decode: Duration,
    /// Bytes that crossed the wire.
    pub wire_bytes: usize,
}

impl LegCosts {
    /// Total leg time.
    pub fn total(&self) -> Duration {
        self.encode + self.network + self.decode
    }

    /// Fraction of the leg spent on encode+decode CPU work.
    pub fn cpu_fraction(&self) -> f64 {
        let t = self.total();
        if t.is_zero() {
            return 0.0;
        }
        (self.encode + self.decode).as_secs_f64() / t.as_secs_f64()
    }
}

/// A full round trip (request leg + reply leg).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundTripCosts {
    /// The A→B leg.
    pub forward: LegCosts,
    /// The B→A leg.
    pub back: LegCosts,
}

impl RoundTripCosts {
    /// Total round-trip time.
    pub fn total(&self) -> Duration {
        self.forward.total() + self.back.total()
    }

    /// Combined CPU (encode+decode) fraction — the paper's "typically 66%"
    /// observation for MPI (§4.1).
    pub fn cpu_fraction(&self) -> f64 {
        let t = self.total();
        if t.is_zero() {
            return 0.0;
        }
        let cpu = self.forward.encode + self.forward.decode + self.back.encode + self.back.decode;
        cpu.as_secs_f64() / t.as_secs_f64()
    }
}

/// Average wall time of `f` over `iters` runs (at least one).
pub fn time_avg<F: FnMut()>(mut f: F, iters: u32) -> Duration {
    let iters = iters.max(1);
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed() / iters
}

/// Measure one leg: `encode` runs on the "sender" (returns the wire byte
/// count), `decode` on the "receiver". Each is averaged over `iters`
/// iterations; the network term comes from `link`.
pub fn measure_leg<E, D>(link: &SimLink, mut encode: E, decode: D, iters: u32) -> LegCosts
where
    E: FnMut() -> usize,
    D: FnMut(),
{
    let mut wire_bytes = 0usize;
    let encode_t = {
        let iters = iters.max(1);
        let start = Instant::now();
        for _ in 0..iters {
            wire_bytes = encode();
        }
        start.elapsed() / iters
    };
    let decode_t = time_avg(decode, iters);
    LegCosts {
        encode: encode_t,
        network: link.transfer_time(wire_bytes),
        decode: decode_t,
        wire_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leg_composition() {
        let link = SimLink {
            latency: Duration::from_micros(100),
            byte_time: Duration::from_nanos(100),
        };
        let leg = measure_leg(&link, || 1000, || {}, 10);
        assert_eq!(leg.wire_bytes, 1000);
        assert_eq!(leg.network, Duration::from_micros(200));
        assert!(leg.total() >= leg.network);
    }

    #[test]
    fn cpu_fraction_bounds() {
        let leg = LegCosts {
            encode: Duration::from_micros(30),
            network: Duration::from_micros(40),
            decode: Duration::from_micros(30),
            wire_bytes: 0,
        };
        assert!((leg.cpu_fraction() - 0.6).abs() < 1e-9);
        let rt = RoundTripCosts {
            forward: leg,
            back: leg,
        };
        assert!((rt.cpu_fraction() - 0.6).abs() < 1e-9);
        assert_eq!(rt.total(), Duration::from_micros(200));
    }

    #[test]
    fn time_avg_measures_something() {
        let d = time_avg(
            || {
                std::hint::black_box((0..1000).sum::<u64>());
            },
            100,
        );
        assert!(d > Duration::ZERO);
    }
}
