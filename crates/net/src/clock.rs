//! A cross-process clock offset estimator for distributed tracing.

/// Estimated offset between this process's observation timebase and a
/// peer's, from one request/reply timestamp exchange (the classic
/// NTP-style midpoint estimate, bounded by half the round trip).
///
/// `pbio-obs` timestamps are nanoseconds since each process's *own*
/// first observation — two processes' raw stamps are incomparable, even
/// on one host. A client captures `t_send` before its `HELLO`, the
/// daemon replies with its local time `t_peer`, and the client captures
/// `t_recv` on receipt; [`ClockSync::to_peer`] then maps any later local
/// stamp into the peer's timebase, which is how every hop of one trace
/// ends up on a single comparable axis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClockSync {
    offset_ns: i64,
}

impl ClockSync {
    /// The identity correction (peer timebase == local timebase).
    pub fn identity() -> ClockSync {
        ClockSync::default()
    }

    /// Estimate the offset from one exchange: `t_send`/`t_recv` are
    /// local stamps around the round trip, `t_peer` is the peer's stamp
    /// taken while serving it. Assumes symmetric paths; the error is
    /// bounded by `rtt / 2`.
    pub fn from_exchange(t_send: u64, t_peer: u64, t_recv: u64) -> ClockSync {
        let midpoint = t_send.saturating_add(t_recv.saturating_sub(t_send) / 2);
        ClockSync {
            offset_ns: t_peer as i64 - midpoint as i64,
        }
    }

    /// Estimated `peer - local` offset in nanoseconds.
    pub fn offset_ns(&self) -> i64 {
        self.offset_ns
    }

    /// Map a local timestamp into the peer's timebase.
    pub fn to_peer(&self, local_ns: u64) -> u64 {
        local_ns.saturating_add_signed(self.offset_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_sync_recovers_a_known_offset() {
        // Peer's clock runs 1_000_000 ns ahead; symmetric 10_000 ns legs.
        let t_send = 5_000_000;
        let t_peer = (t_send + 10_000) + 1_000_000;
        let t_recv = t_send + 20_000;
        let sync = ClockSync::from_exchange(t_send, t_peer, t_recv);
        assert_eq!(sync.offset_ns(), 1_000_000);
        assert_eq!(sync.to_peer(t_recv), t_recv + 1_000_000);
    }

    #[test]
    fn clock_sync_handles_a_peer_behind_us() {
        let sync = ClockSync::from_exchange(2_000_000, 500_000, 2_002_000);
        assert!(sync.offset_ns() < 0);
        assert_eq!(
            sync.to_peer(2_001_000),
            (2_001_000i64 + sync.offset_ns()) as u64
        );
        assert_eq!(ClockSync::identity().to_peer(42), 42);
        // Saturation: a local stamp earlier than the offset clamps at
        // zero instead of wrapping.
        let far = ClockSync::from_exchange(2_000_000, 0, 2_002_000);
        assert_eq!(far.to_peer(5), 0);
    }
}
