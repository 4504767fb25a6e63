//! Process-global frame-I/O metrics.
//!
//! The frame codec counts bytes, frames, and vectored writes (≈ syscalls)
//! into the global obs registry, and records the batch size of every
//! coalesced write — the "send" component's raw material in the paper's
//! decomposition. Handles resolve once; counting is a relaxed atomic add.

use std::sync::{Arc, OnceLock};

use pbio_obs::{Counter, Histogram, Registry};

/// Pre-resolved handles for the frame codec's counters.
pub(crate) struct NetMetrics {
    /// Bytes read off the wire (headers + bodies).
    pub(crate) bytes_in: Arc<Counter>,
    /// Bytes written to the wire (headers + bodies).
    pub(crate) bytes_out: Arc<Counter>,
    /// Frames fully read.
    pub(crate) frames_in: Arc<Counter>,
    /// Frames rejected by the checksum (corrupted in flight).
    pub(crate) frames_corrupt: Arc<Counter>,
    /// Frames fully written.
    pub(crate) frames_out: Arc<Counter>,
    /// Vectored write calls issued (≈ syscalls on a raw socket).
    pub(crate) writes: Arc<Counter>,
    /// Frames coalesced per vectored write.
    pub(crate) write_batch: Arc<Histogram>,
}

/// The codec's metric handles (resolved into [`Registry::global`] once).
pub(crate) fn net_metrics() -> &'static NetMetrics {
    static M: OnceLock<NetMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = Registry::global();
        NetMetrics {
            bytes_in: r.counter("net_bytes_in"),
            bytes_out: r.counter("net_bytes_out"),
            frames_in: r.counter("net_frames_in"),
            frames_corrupt: r.counter("net_frames_corrupt"),
            frames_out: r.counter("net_frames_out"),
            writes: r.counter("net_writes"),
            write_batch: r.histogram("net_write_batch"),
        }
    })
}
