//! The interface shared by every moving-object kNN index in the workspace
//! (G-Grid and the three baselines), so experiments and tests can drive
//! them interchangeably.

use gpu_sim::SimNanos;
use roadnet::graph::Distance;
use roadnet::EdgePosition;

use crate::message::{ObjectId, Timestamp};

/// Cumulative simulated-device costs of an index (zero for CPU-only
/// baselines). CPU costs are measured by the caller with a wall clock.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimCosts {
    /// Simulated kernel time.
    pub gpu_time: SimNanos,
    /// Simulated host↔device transfer time.
    pub transfer_time: SimNanos,
    pub h2d_bytes: u64,
    pub d2h_bytes: u64,
}

impl SimCosts {
    pub fn total_time(&self) -> SimNanos {
        self.gpu_time + self.transfer_time
    }

    /// Costs accrued between `earlier` and `self`.
    pub fn since(&self, earlier: &SimCosts) -> SimCosts {
        SimCosts {
            gpu_time: self.gpu_time.saturating_sub(earlier.gpu_time),
            transfer_time: self.transfer_time.saturating_sub(earlier.transfer_time),
            h2d_bytes: self.h2d_bytes - earlier.h2d_bytes,
            d2h_bytes: self.d2h_bytes - earlier.d2h_bytes,
        }
    }
}

/// Resident footprint of an index (paper Fig 6 reports CPU, GPU, and total).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IndexSize {
    pub cpu_bytes: u64,
    pub gpu_bytes: u64,
}

impl IndexSize {
    pub fn total(&self) -> u64 {
        self.cpu_bytes + self.gpu_bytes
    }
}

/// A snapshot-kNN index over moving objects in a road network.
pub trait MovingObjectIndex {
    /// Short display name, e.g. `"G-Grid"` or `"V-Tree"`.
    fn name(&self) -> &'static str;

    /// Process one location-update message `⟨o, e, d, t⟩`.
    fn handle_update(&mut self, object: ObjectId, position: EdgePosition, time: Timestamp);

    /// Process a run of location updates as one group commit. Semantically
    /// identical to calling [`Self::handle_update`] once per element in
    /// order; indexes with a batched ingest path (G-Grid, where
    /// `handle_update` is the one-update batch) override this to amortize
    /// per-message locking. Anything [`Self::ingest_buffered`] still stages
    /// is published first, so the paths can be mixed freely.
    fn ingest_batch(&mut self, updates: &[(ObjectId, EdgePosition, Timestamp)]) {
        for &(o, p, t) in updates {
            self.handle_update(o, p, t);
        }
    }

    /// Process a run of location updates through a *deferred-visibility*
    /// ingest path: the index may stage the messages and only publish them
    /// at the next [`Self::flush_ingest`] barrier (queries and direct
    /// ingest calls flush implicitly, so answers never change — only when
    /// the shared-structure locks are paid). Indexes without such a path
    /// fall back to the group commit.
    fn ingest_buffered(&mut self, updates: &[(ObjectId, EdgePosition, Timestamp)]) {
        self.ingest_batch(updates);
    }

    /// Publish everything [`Self::ingest_buffered`] still stages. A no-op
    /// for indexes whose ingest is immediately visible.
    fn flush_ingest(&mut self) {}

    /// Answer a kNN query issued at time `now`. Returns up to `k`
    /// `(object, network distance)` pairs, nearest first, ties on object id.
    fn knn(&mut self, q: EdgePosition, k: usize, now: Timestamp) -> Vec<(ObjectId, Distance)>;

    /// Cumulative simulated device costs (kernels + transfers).
    fn sim_costs(&self) -> SimCosts;

    /// Cumulative host wall-clock nanoseconds this index spent *emulating*
    /// device-side work (kernel bodies run on the host in this
    /// reproduction). Harnesses that measure wall time around calls must
    /// subtract this and add [`Self::sim_costs`] instead. Zero for
    /// CPU-only indexes.
    fn emulated_host_ns(&self) -> u64 {
        0
    }

    /// Current resident size.
    fn index_size(&self) -> IndexSize;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_costs_delta() {
        let a = SimCosts {
            gpu_time: SimNanos(100),
            transfer_time: SimNanos(50),
            h2d_bytes: 10,
            d2h_bytes: 4,
        };
        let b = SimCosts {
            gpu_time: SimNanos(150),
            transfer_time: SimNanos(70),
            h2d_bytes: 25,
            d2h_bytes: 9,
        };
        let d = b.since(&a);
        assert_eq!(d.gpu_time, SimNanos(50));
        assert_eq!(d.transfer_time, SimNanos(20));
        assert_eq!(d.h2d_bytes, 15);
        assert_eq!(d.total_time(), SimNanos(70));
    }

    #[test]
    fn index_size_total() {
        let s = IndexSize {
            cpu_bytes: 7,
            gpu_bytes: 5,
        };
        assert_eq!(s.total(), 12);
    }
}
