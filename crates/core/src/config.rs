//! Tunable parameters of the G-Grid (paper Table I and §VII-C1).

/// Configuration of a [`crate::server::GGridServer`].
///
/// Defaults are the values the paper tunes to in §VII-C1: δᶜ = 3, δᵛ = 2,
/// δᵇ = 128, bundles of 2^η = 32 threads (the warp size), ρ = 1.8.
#[derive(Clone, Debug)]
pub struct GGridConfig {
    /// δᶜ — maximum vertices per grid cell (sized so a cell fits an L1 line
    /// in the paper's layout).
    pub cell_capacity: usize,
    /// δᵛ — edge slots per (possibly virtual) vertex record.
    pub vertex_capacity: usize,
    /// δᵇ — messages per message-list bucket.
    pub bucket_capacity: usize,
    /// η — bundles contain 2^η threads for the X-shuffle.
    pub eta: u32,
    /// ρ — candidate over-provisioning factor balancing GPU vs CPU work
    /// (the query gathers at least ρ·k candidate objects before refining).
    pub rho: f64,
    /// t_Δ — maximum allowed interval between two location updates of the
    /// same object, in milliseconds. Messages older than `now - t_delta_ms`
    /// are obsolete by contract (§II) and are discarded during cleaning.
    pub t_delta_ms: u64,
    /// Upper bound on the message-list groups per cleaning round used to
    /// pipeline host→device copies against kernel execution (§V-A). Each
    /// round picks the group count in `1..=transfer_chunks` with the
    /// smallest modeled makespan (see `cleaning::plan_upload`); `1` always
    /// uploads in one copy.
    pub transfer_chunks: usize,
    /// Host workers for the CPU phases, in `1..=256`. Refinement
    /// (Algorithm 6) deals the unresolved vertices' bounded Dijkstra
    /// expansions over this many workers. Ingestion
    /// ([`crate::server::GGridServer::ingest_batch`]) gives each worker
    /// disjoint object-id shards (table phase) and disjoint cell stripes
    /// (append phase), so per-object order is preserved. Answers are
    /// identical for every width. `1` runs both on the calling thread;
    /// more runs them on that many scoped threads per call.
    pub host_workers: usize,
    /// Per-device memory budget (bytes), applied separately to each of the
    /// two residency stores. The cell store keeps consolidated message
    /// lists resident: re-cleaning a resident cell ships only the delta
    /// appended since its last clean and runs the fused merge kernel. The
    /// topology store keeps per-cell CSR slices resident, so repeated
    /// `GPU_SDist` rounds over hot cells skip the topology upload. Each
    /// store evicts least-recently-used cells once its own footprint would
    /// exceed this budget (or the card fills up), so a device may hold up
    /// to twice this amount. `0` disables both kinds of residency (ablation
    /// / tiny-device setups). Answers are identical either way.
    pub device_budget_bytes: u64,
    /// Bucket width δ of the frontier kernel's near/far split, in weight
    /// units. `0` (the default) picks the grid's mean edge weight.
    pub sdist_delta: u32,
    /// Maximum number of concurrently active kNN subscriptions
    /// ([`crate::server::GGridServer::subscribe_knn`]); registration
    /// beyond this panics (the server's admission control is the caller's
    /// job, this is the safety stop).
    pub max_subscriptions: usize,
    /// Slack factor applied to a subscription's guard radius: the guard is
    /// set to `(1 + guard_slack) ×` the distance of the (k+1)-th candidate.
    /// A wider guard means fewer full re-evaluations when the k-th and
    /// (k+1)-th neighbours trade places, at the cost of a larger guard
    /// region (more cells whose updates invalidate the subscription).
    /// `0.0` is correct but repairs more often.
    pub guard_slack: f64,
    /// Number of simulated devices the server shards cells over. Cells are partitioned into contiguous
    /// z-order ranges weighted by record count; each device owns its own
    /// residency/topology budget (`device_budget_bytes` is per device).
    /// `1` is the paper's single-GPU deployment; answers are byte-identical
    /// for every value.
    pub num_devices: usize,
    /// Busy-time skew factor that triggers the epoch rebalancer
    /// ([`crate::server::GGridServer::rebalance_shards`]): boundary cells
    /// migrate off the hottest shard when its epoch busy time exceeds
    /// `rebalance_threshold ×` the mean across shards. Only meaningful
    /// when `num_devices > 1`.
    pub rebalance_threshold: f64,
    /// Per-cell message cap of the ingest staging store
    /// ([`crate::server::GGridServer::ingest_buffered`]): a cell whose
    /// staged messages reach this count is committed to its shared message
    /// list at the end of the ingest call. Larger caps amortize more cell
    /// locks per flush at the cost of more deferred (invisible until
    /// flush/query) messages.
    pub ingest_buffer_cap: usize,
    /// Byte budget of the ingest staging store, which charges 40 bytes per
    /// staged message (an 8-byte placement key plus the wire message): when
    /// the staged footprint exceeds this, the end-of-call flush commits
    /// *every* staged cell. `0` disables the budget (cap-only flushing).
    pub ingest_buffer_bytes: u64,
    /// Let a query's frontier-SDist round scatter across every shard whose
    /// cells the expansion ring touches: each
    /// owning device is charged its slice of the relax work concurrently on
    /// the modeled timeline and the host min-merges the per-shard frontiers,
    /// so the round's modeled critical path is the max over owners instead
    /// of their sum. The planner scatters a round only when that saves more
    /// critical path than it adds work; `false` keeps every round on the
    /// primary. Answers are byte-identical either way; only meaningful
    /// when `num_devices > 1`.
    pub cross_shard_sdist: bool,
    /// Clean-skip read-heat threshold above which a remote cell's
    /// consolidated list + topology slice are replicated onto the reading
    /// (primary) device, under that device's `device_budget_bytes` LRU.
    /// Writes to the cell invalidate every replica through the dirtied-cell
    /// stream before the next read, and `rebalance_shards` prefers keeping
    /// (replicating) read-hot write-cold cells over migrating them. `0`
    /// disables replication. Answers are byte-identical either way.
    pub replicate_threshold: u64,
    /// Byte budget of the server's pool of vertex distance maps (8 bytes
    /// per vertex each), which the distance phase and the refinement
    /// searches both borrow from: idle maps beyond this are evicted
    /// oldest-first on release, so a burst of query workers cannot pin
    /// O(workers × |V|) memory forever. `0` disables the bound.
    pub scratch_budget_bytes: u64,
}

impl Default for GGridConfig {
    fn default() -> Self {
        Self {
            cell_capacity: 3,
            vertex_capacity: 2,
            bucket_capacity: 128,
            eta: 5,
            rho: 1.8,
            t_delta_ms: 10_000,
            transfer_chunks: 4,
            host_workers: 1,
            device_budget_bytes: 64 << 20,
            sdist_delta: 0,
            max_subscriptions: 65_536,
            guard_slack: 0.25,
            num_devices: 1,
            rebalance_threshold: 1.25,
            ingest_buffer_cap: 1024,
            ingest_buffer_bytes: 4 << 20,
            cross_shard_sdist: true,
            replicate_threshold: 4,
            scratch_budget_bytes: 32 << 20,
        }
    }
}

impl GGridConfig {
    /// Whether read-hot cell replication is in effect: it needs a nonzero
    /// heat threshold and more than one device (with a single device every
    /// cell is already local, so a replica would duplicate its own owner).
    pub(crate) fn replication_enabled(&self) -> bool {
        self.num_devices > 1 && self.replicate_threshold > 0
    }

    /// Validate invariants; called by the server constructor.
    pub fn validate(&self) {
        assert!(self.cell_capacity >= 1, "cell capacity must be >= 1");
        assert!(self.vertex_capacity >= 1, "vertex capacity must be >= 1");
        assert!(self.bucket_capacity >= 1, "bucket capacity must be >= 1");
        assert!(
            (1..=10).contains(&self.eta),
            "eta must be in 1..=10 (bundles of 2..1024 threads)"
        );
        assert!(self.rho >= 1.0, "rho must be >= 1");
        assert!(self.t_delta_ms > 0, "t_delta must be positive");
        assert!(
            self.transfer_chunks >= 1,
            "need at least one transfer chunk"
        );
        assert!(
            (1..=256).contains(&self.host_workers),
            "host_workers must be in 1..=256"
        );
        assert!(
            self.max_subscriptions >= 1,
            "max_subscriptions must be >= 1"
        );
        assert!(
            (0.0..=4.0).contains(&self.guard_slack),
            "guard_slack must be in 0.0..=4.0"
        );
        assert!(
            (1..=crate::shard::MAX_DEVICES).contains(&self.num_devices),
            "num_devices must be in 1..=16"
        );
        assert!(
            self.rebalance_threshold >= 1.0,
            "rebalance_threshold must be >= 1"
        );
        assert!(
            self.ingest_buffer_cap >= 1,
            "ingest_buffer_cap must be >= 1"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_tuning() {
        let c = GGridConfig::default();
        assert_eq!(c.cell_capacity, 3);
        assert_eq!(c.vertex_capacity, 2);
        assert_eq!(c.bucket_capacity, 128);
        assert_eq!(1 << c.eta, 32, "bundles of 32 threads");
        assert!((c.rho - 1.8).abs() < 1e-9);
        assert_eq!(c.host_workers, 1);
        assert_eq!(c.device_budget_bytes, 64 << 20);
        assert_eq!(c.sdist_delta, 0, "0 = auto (grid mean edge weight)");
        assert_eq!(c.max_subscriptions, 65_536);
        assert!((c.guard_slack - 0.25).abs() < 1e-9);
        assert_eq!(c.num_devices, 1, "paper's deployment is single-GPU");
        assert!((c.rebalance_threshold - 1.25).abs() < 1e-9);
        assert_eq!(c.ingest_buffer_cap, 1024);
        assert_eq!(c.ingest_buffer_bytes, 4 << 20);
        assert!(c.cross_shard_sdist);
        assert_eq!(c.replicate_threshold, 4, "0 would disable replication");
        assert_eq!(c.scratch_budget_bytes, 32 << 20);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "num_devices")]
    fn zero_devices_rejected() {
        GGridConfig {
            num_devices: 0,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "num_devices")]
    fn too_many_devices_rejected() {
        GGridConfig {
            num_devices: 17,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "rebalance_threshold")]
    fn sub_unity_rebalance_threshold_rejected() {
        GGridConfig {
            rebalance_threshold: 0.9,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "guard_slack")]
    fn bad_guard_slack_rejected() {
        GGridConfig {
            guard_slack: -0.1,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "host_workers")]
    fn zero_workers_rejected() {
        GGridConfig {
            host_workers: 0,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "host_workers")]
    fn too_many_host_workers_rejected() {
        GGridConfig {
            host_workers: 257,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "ingest_buffer_cap")]
    fn zero_ingest_buffer_cap_rejected() {
        GGridConfig {
            ingest_buffer_cap: 0,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "rho must be >= 1")]
    fn bad_rho_rejected() {
        GGridConfig {
            rho: 0.5,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "eta must be")]
    fn bad_eta_rejected() {
        GGridConfig {
            eta: 0,
            ..Default::default()
        }
        .validate();
    }
}
