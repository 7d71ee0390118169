//! Host↔device transfer accounting and pipelining.

use crate::spec::DeviceSpec;
use crate::time::SimNanos;

/// Running totals of host↔device traffic. The paper reports exactly these
/// quantities in Fig 10 (c)/(d): bytes moved and time spent moving them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransferLedger {
    pub h2d_bytes: u64,
    pub d2h_bytes: u64,
    pub h2d_time: SimNanos,
    pub d2h_time: SimNanos,
    pub h2d_transfers: u64,
    pub d2h_transfers: u64,
    /// PCIe transactions avoided by staging several logical segments into a
    /// single coalesced H2D copy (each saved transaction would have paid the
    /// fixed link latency on its own).
    pub h2d_coalesced_saved: u64,
    /// PCIe transactions avoided by staging several logical copy-backs into
    /// a single coalesced D2H copy.
    pub d2h_coalesced_saved: u64,
}

impl TransferLedger {
    pub fn total_bytes(&self) -> u64 {
        self.h2d_bytes + self.d2h_bytes
    }

    pub fn total_time(&self) -> SimNanos {
        self.h2d_time + self.d2h_time
    }

    pub fn add(&mut self, other: &TransferLedger) {
        self.h2d_bytes += other.h2d_bytes;
        self.d2h_bytes += other.d2h_bytes;
        self.h2d_time += other.h2d_time;
        self.d2h_time += other.d2h_time;
        self.h2d_transfers += other.h2d_transfers;
        self.d2h_transfers += other.d2h_transfers;
        self.h2d_coalesced_saved += other.h2d_coalesced_saved;
        self.d2h_coalesced_saved += other.d2h_coalesced_saved;
    }
}

/// Duration of a single transfer of `bytes` on `spec`'s link.
pub fn transfer_time(spec: &DeviceSpec, bytes: u64) -> SimNanos {
    let wire = bytes as f64 / spec.pcie_bandwidth_bytes_per_sec;
    SimNanos(spec.pcie_latency_ns) + SimNanos::from_secs_f64(wire)
}

/// Makespan of a pipelined copy/compute schedule (paper §V-A: the GPU starts
/// cleaning the first batch of message lists while later batches are still
/// in flight).
///
/// `chunks` is a sequence of `(copy_time, compute_time)` pairs. Copies are
/// serialised on the link in order; chunk *i*'s compute starts once both its
/// copy has landed and chunk *i−1*'s compute has finished. Returns when the
/// last compute finishes.
pub fn pipelined_makespan(chunks: &[(SimNanos, SimNanos)]) -> SimNanos {
    let mut copy_done = SimNanos::ZERO;
    let mut compute_done = SimNanos::ZERO;
    for &(copy, compute) in chunks {
        copy_done += copy;
        compute_done = copy_done.max(compute_done) + compute;
    }
    compute_done
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_has_latency_floor() {
        let spec = DeviceSpec::test_tiny();
        let t = transfer_time(&spec, 0);
        assert_eq!(t, SimNanos(spec.pcie_latency_ns));
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let spec = DeviceSpec::test_tiny(); // 1 GB/s
        let t = transfer_time(&spec, 1_000_000_000);
        assert!((t.as_secs_f64() - 1.000001).abs() < 1e-4, "{t}");
    }

    #[test]
    fn ledger_accumulates() {
        let mut a = TransferLedger {
            h2d_bytes: 10,
            h2d_time: SimNanos(5),
            h2d_transfers: 1,
            ..Default::default()
        };
        a.add(&TransferLedger {
            h2d_bytes: 3,
            d2h_bytes: 7,
            d2h_time: SimNanos(2),
            d2h_transfers: 1,
            ..Default::default()
        });
        assert_eq!(a.total_bytes(), 20);
        assert_eq!(a.total_time(), SimNanos(7));
        assert_eq!(a.h2d_transfers, 1);
    }

    #[test]
    fn pipeline_overlaps_copy_and_compute() {
        // Three chunks: copy 10, compute 10 each.
        let chunks = [(SimNanos(10), SimNanos(10)); 3];
        // Serial would be 60; pipelined: copies at 10,20,30, computes at
        // 20,30,40 → makespan 40.
        assert_eq!(pipelined_makespan(&chunks), SimNanos(40));
    }

    #[test]
    fn pipeline_copy_bound() {
        // Copies dominate: compute hides entirely behind the next copy.
        let chunks = [(SimNanos(100), SimNanos(1)); 4];
        assert_eq!(pipelined_makespan(&chunks), SimNanos(401));
    }

    #[test]
    fn pipeline_compute_bound() {
        let chunks = [(SimNanos(1), SimNanos(100)); 4];
        assert_eq!(pipelined_makespan(&chunks), SimNanos(401));
    }

    #[test]
    fn pipeline_empty() {
        assert_eq!(pipelined_makespan(&[]), SimNanos::ZERO);
    }

    #[test]
    fn pipeline_beats_serial() {
        let chunks = [
            (SimNanos(30), SimNanos(20)),
            (SimNanos(10), SimNanos(40)),
            (SimNanos(25), SimNanos(15)),
        ];
        let serial: SimNanos = chunks.iter().map(|&(c, k)| c + k).sum();
        assert!(pipelined_makespan(&chunks) < serial);
    }
}
