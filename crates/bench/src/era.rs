//! Era scaling: relating 2020s-host CPU measurements to the paper's 1999
//! testbed.
//!
//! The network model is calibrated to the paper's measured wire times
//! (1999-era TCP on 100 Mbps Ethernet), but encode/decode CPU work runs on
//! a modern host that is tens of times faster than a 247 MHz UltraSPARC or
//! a 450 MHz Pentium II. Reporting raw measurements therefore *understates*
//! every CPU-side effect relative to the network — the paper's "66% of
//! total cost is encode/decode" and "PBIO round-trip in 45% of MPICH's
//! time" both depend on the era's CPU:network balance.
//!
//! Era mode multiplies measured CPU components by per-machine factors
//! calibrated once, from Figure 1's MPICH components at 100 KB (the most
//! CPU-bound point): paper sparc encode 13 310 µs vs our ~456 µs → ≈ 29×;
//! paper x86 encode 8 950 µs vs our ~423 µs → ≈ 21×. The factors are a
//! *calibration of the substitution* (documented in DESIGN.md), not a knob:
//! the same two constants are applied to every wire format and every size.

use crate::exchange::LegCosts;

/// CPU slowdown of the paper's Sparc (Ultra 30, 247 MHz) vs this host,
/// calibrated from Figure 1's 100 KB MPI sparc-encode component.
pub const SPARC_FACTOR: f64 = 29.0;

/// CPU slowdown of the paper's x86 (Pentium II, 450 MHz) vs this host.
pub const X86_FACTOR: f64 = 21.0;

/// Scale a leg's CPU components: `enc_factor` applies to the sender's
/// encode, `dec_factor` to the receiver's decode. Network time is already
/// era-calibrated and is left untouched.
pub fn scale_leg(leg: LegCosts, enc_factor: f64, dec_factor: f64) -> LegCosts {
    LegCosts {
        encode: leg.encode.mul_f64(enc_factor),
        decode: leg.decode.mul_f64(dec_factor),
        ..leg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn scaling_touches_only_cpu_components() {
        let leg = LegCosts {
            encode: Duration::from_micros(10),
            network: Duration::from_micros(100),
            decode: Duration::from_micros(20),
            wire_bytes: 42,
        };
        let scaled = scale_leg(leg, 2.0, 3.0);
        assert_eq!(scaled.encode, Duration::from_micros(20));
        assert_eq!(scaled.decode, Duration::from_micros(60));
        assert_eq!(scaled.network, leg.network);
        assert_eq!(scaled.wire_bytes, 42);
    }
}
