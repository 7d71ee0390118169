//! Multi-device sharding: z-order cell partitioning, per-shard residency,
//! routed cleaning, and busy-time rebalancing.
//!
//! The G-Grid stores cells in z-order (§III-A), so a contiguous range of
//! cell indices is a spatially coherent tile — exactly the unit a
//! multi-device deployment wants to partition. A [`ShardSet`] owns `D`
//! simulated devices; shard `d` owns the cells in `map.range(d)` and keeps
//! **its own** residency and topology LRUs (the per-device
//! `device_budget_bytes`), while the immutable graph-grid mirror is
//! replicated on every device (queries route by data, not by topology).
//!
//! **Routing.** Mutable per-cell state (message lists, consolidated
//! residency) is partitioned: a cleaning round splits its cell set by owner
//! and drives each owner's device independently ([`ShardSet::clean_cells`]).
//! Per-cell cleaning is deterministic and independent of the batch
//! composition, so the merged output is byte-identical to the single-device
//! pass — the correctness argument for answers being independent of `D`.
//! Query-wide kernels (`GPU_SDist`, selection, unresolved) run on the
//! query's *primary* shard: the owner of the query's cell.
//!
//! **Rebalancing.** Contiguous ranges make migration cheap: moving the
//! boundary of two adjacent shards re-homes a z-run of cells. The epoch
//! rebalancer ([`ShardSet::maybe_rebalance`]) watches per-shard busy time
//! (kernel + transfer deltas since the last epoch), and when the hottest
//! shard exceeds `rebalance_threshold ×` the mean it migrates boundary
//! cells toward the neighbor — evicting the moved cells' resident state on
//! the old owner, so the next clean re-homes them on the new device (the
//! pending dirt in the host-side message lists replays there naturally).

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use gpu_sim::{Device, OpCounts, SimNanos};

use crate::cleaning::{clean_cells, clean_cells_with_heat, CleanedObjects, CleaningReport};
use crate::config::GGridConfig;
use crate::grid::{CellId, GraphGrid};
use crate::message::{CachedMessage, Timestamp};
use crate::message_list::CellLists;
use crate::residency::{ResidentCellStore, TopologyStore};

/// Hard cap on `num_devices`, sized so per-shard counter arrays stay
/// `Copy` (see [`crate::stats::ServerCounters`]).
pub const MAX_DEVICES: usize = 16;

/// Cell-index → shard mapping: shard `d` owns the contiguous z-range
/// `starts[d] .. starts[d + 1]` (the last shard runs to `num_cells`).
#[derive(Clone, Debug)]
pub struct ShardMap {
    /// `starts[0] == 0`; strictly increasing would forbid empty shards, so
    /// only monotone non-decreasing is required.
    starts: Vec<u32>,
    num_cells: u32,
}

impl ShardMap {
    pub fn from_ranges(ranges: &[Range<u32>], num_cells: u32) -> Self {
        assert!(!ranges.is_empty(), "need at least one shard range");
        assert_eq!(ranges[0].start, 0, "first range must start at cell 0");
        assert_eq!(
            ranges.last().unwrap().end,
            num_cells,
            "last range must end at num_cells"
        );
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start, "ranges must be contiguous");
        }
        Self {
            starts: ranges.iter().map(|r| r.start).collect(),
            num_cells,
        }
    }

    /// The shard that owns `cell`.
    pub fn owner_of(&self, cell: CellId) -> usize {
        let idx = cell.index() as u32;
        debug_assert!(idx < self.num_cells, "cell out of range");
        self.starts.partition_point(|&s| s <= idx) - 1
    }

    /// The z-range shard `d` owns.
    pub fn range(&self, d: usize) -> Range<u32> {
        let start = self.starts[d];
        let end = self.starts.get(d + 1).copied().unwrap_or(self.num_cells);
        start..end
    }
}

/// One simulated device plus the mutable stores it owns.
pub struct ShardState {
    pub device: Device,
    pub resident: ResidentCellStore,
    pub topo: TopologyStore,
    /// Lifetime busy-ns at the start of the current epoch.
    busy_snapshot_ns: u64,
}

impl ShardState {
    fn new(device: Device, config: &GGridConfig) -> Self {
        let resident = ResidentCellStore::new(config.device_budget_bytes);
        // Each store is bounded by the full budget on its own: a device may
        // hold up to twice `device_budget_bytes` across the two.
        let topo = TopologyStore::new(config.device_budget_bytes);
        Self {
            device,
            resident,
            topo,
            busy_snapshot_ns: 0,
        }
    }

    /// Lifetime busy time of this device: kernel execution plus bus
    /// transfers (both simulated clocks are monotone).
    pub fn lifetime_busy_ns(&self) -> u64 {
        self.device.kernel_time().0 + self.device.ledger().total_time().0
    }

    /// Busy time accumulated since the last [`ShardSet::snapshot_busy`].
    pub fn epoch_busy_ns(&self) -> u64 {
        self.lifetime_busy_ns() - self.busy_snapshot_ns
    }
}

/// What one rebalance epoch moved.
#[derive(Clone, Copy, Debug)]
pub struct MigrationReport {
    /// Shard the cells left.
    pub from: usize,
    /// Adjacent shard the cells joined.
    pub to: usize,
    /// Cells re-homed.
    pub cells_moved: u32,
    /// Dirt mass (per-cell dirtied counts) carried by the moved cells.
    pub dirt_moved: u64,
    /// Resident consolidated-list entries evicted off the old owner.
    pub resident_evicted: u64,
    /// Resident topology slices evicted off the old owner.
    pub topo_evicted: u64,
}

/// What a cross-device transfer shipped: its bytes and the modeled time
/// charged to the device ledgers.
#[derive(Clone, Copy, Debug, Default)]
pub struct Shipped {
    pub bytes: u64,
    pub time: SimNanos,
}

/// `D` devices with their stores and the cell → shard map.
pub struct ShardSet {
    shards: Vec<ShardState>,
    map: ShardMap,
    /// Per-cell clean-skip read tally (the replication signal, tallied by
    /// routed cleaning when `D > 1`; see `GGridConfig::replicate_threshold`).
    /// Atomic so cleaning can tally through a shared borrow while the
    /// owning shard is mutably borrowed.
    read_heat: Vec<AtomicU64>,
    /// Lifetime replica teardowns forced by writes or migrations (LRU
    /// evictions under budget pressure are counted as ordinary evictions).
    replica_invalidations: u64,
    /// Boundary cells the rebalancer declined to migrate because they were
    /// read-hot but write-cold.
    migrations_skipped_read_hot: u64,
}

impl ShardSet {
    /// Build `config.num_devices` shards over `grid`, splitting the z-order
    /// cell sequence into contiguous ranges weighted by per-cell record
    /// counts (the static proxy for object load before any update lands).
    /// Shard 0 wraps the caller's `device`; the rest clone its spec. Every
    /// device reserves the graph-grid mirror (§III-A), replicated per card.
    pub fn new(grid: &GraphGrid, config: &GGridConfig, device: Device) -> Self {
        let d = config.num_devices;
        assert!(
            (1..=MAX_DEVICES).contains(&d),
            "num_devices must be in 1..={MAX_DEVICES}"
        );
        let weights: Vec<u64> = grid
            .cell_ids()
            .map(|c| grid.cell(c).records.len() as u64 + 1)
            .collect();
        let ranges = roadnet::partition::weighted_contiguous_ranges(&weights, d);
        let map = ShardMap::from_ranges(&ranges, grid.num_cells() as u32);
        let spec = device.spec().clone();
        let mut devices = vec![device];
        for _ in 1..d {
            devices.push(Device::new(spec.clone()));
        }
        let mut shards = Vec::with_capacity(d);
        for mut dev in devices {
            dev.alloc(grid.grid_bytes())
                .expect("graph grid does not fit in device memory");
            shards.push(ShardState::new(dev, config));
        }
        let read_heat = (0..grid.num_cells()).map(|_| AtomicU64::new(0)).collect();
        Self {
            shards,
            map,
            read_heat,
            replica_invalidations: 0,
            migrations_skipped_read_hot: 0,
        }
    }

    /// A single-shard set over `num_cells` cells wrapping `device` — the
    /// `D = 1` degenerate case used by unit tests that drive the query
    /// pipeline directly (no grid mirror is reserved here).
    #[cfg(test)]
    pub fn single(device: Device, config: &GGridConfig, num_cells: usize) -> Self {
        let whole = std::iter::once(0..num_cells as u32).collect::<Vec<_>>();
        let map = ShardMap::from_ranges(&whole, num_cells as u32);
        Self {
            shards: vec![ShardState::new(device, config)],
            map,
            read_heat: (0..num_cells).map(|_| AtomicU64::new(0)).collect(),
            replica_invalidations: 0,
            migrations_skipped_read_hot: 0,
        }
    }

    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// The shard that owns `cell` (a query's *primary* shard is the owner
    /// of its own cell).
    pub fn owner_of(&self, cell: CellId) -> usize {
        self.map.owner_of(cell)
    }

    pub fn shard(&self, d: usize) -> &ShardState {
        &self.shards[d]
    }

    pub fn shard_mut(&mut self, d: usize) -> &mut ShardState {
        &mut self.shards[d]
    }

    /// Field-split borrow of shard `d`'s device and stores, for callers
    /// that need them simultaneously (the single-device kernel primitives).
    pub fn parts(&mut self, d: usize) -> (&mut Device, &mut ResidentCellStore, &mut TopologyStore) {
        let s = &mut self.shards[d];
        (&mut s.device, &mut s.resident, &mut s.topo)
    }

    /// Lifetime kernel launches summed over all devices.
    pub fn total_launches(&self) -> u64 {
        self.shards.iter().map(|s| s.device.launches()).sum()
    }

    /// Route one cleaning round: split `cells` by owner (preserving the
    /// caller's relative order within each owner), clean each owner's slice
    /// on its own device, and return the merged output next to the
    /// per-shard reports. Cells are disjoint across shards, so the merged
    /// [`CleanedObjects`] is identical to the single-device pass.
    pub fn clean_cells_routed(
        &mut self,
        lists: &CellLists,
        cells: &[CellId],
        config: &GGridConfig,
        now: Timestamp,
    ) -> (CleanedObjects, Vec<(usize, CleaningReport)>) {
        if self.shards.len() == 1 {
            let s = &mut self.shards[0];
            let (cleaned, rep) =
                clean_cells(&mut s.device, lists, &mut s.resident, cells, config, now);
            return (cleaned, vec![(0, rep)]);
        }
        let mut by_owner: Vec<Vec<CellId>> = vec![Vec::new(); self.shards.len()];
        for &c in cells {
            by_owner[self.map.owner_of(c)].push(c);
        }
        let mut merged = CleanedObjects::default();
        let mut reports = Vec::new();
        let heat = &self.read_heat;
        for (d, owned) in by_owner.into_iter().enumerate() {
            if owned.is_empty() {
                continue;
            }
            let s = &mut self.shards[d];
            let (cleaned, rep) = clean_cells_with_heat(
                &mut s.device,
                lists,
                &mut s.resident,
                &owned,
                config,
                now,
                Some(heat),
            );
            merged.absorb(cleaned);
            reports.push((d, rep));
        }
        (merged, reports)
    }

    /// Scatter one pre-metered kernel round across owner devices: each
    /// `(shard, threads, ops)` slice is charged to its own device as one
    /// launch, concurrently on the modeled timeline — the round's critical
    /// path is the *max* over the returned per-shard times, not their sum.
    /// The sibling of [`Self::clean_cells_routed`] for the frontier-SDist
    /// phase: the caller meters the kernel body once against a
    /// [`gpu_sim::KernelCtx::detached`] context, tallies per-owner op
    /// slices at the per-vertex charge sites, and replays them here.
    pub fn launch_scattered(
        &mut self,
        groups: &[(usize, usize, OpCounts)],
    ) -> Vec<(usize, SimNanos)> {
        groups
            .iter()
            .map(|&(d, threads, ops)| {
                let rep = self.shards[d].device.launch_ops(threads, ops);
                (d, rep.time)
            })
            .collect()
    }

    /// Clean-skip read heat of `cell` (see `GGridConfig::replicate_threshold`).
    pub fn read_heat_of(&self, cell: CellId) -> u64 {
        self.read_heat[cell.index()].load(Ordering::Relaxed)
    }

    /// Count one served read of `cell`'s consolidated list toward its read
    /// heat. The routed clean-skip path tallies internally; this is for
    /// reads served by caches in front of it (an earlier round's cleaned
    /// output, such as a batch's shared pass), which
    /// are exactly as "hot" a signal for replication as a skip.
    pub fn note_read(&self, cell: CellId) {
        self.read_heat[cell.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Halve every cell's read heat — called once per rebalance epoch so
    /// the replication signal tracks *recent* read traffic instead of
    /// lifetime totals (deterministic exponential decay).
    pub fn decay_read_heat(&mut self) {
        for h in &self.read_heat {
            let v = h.load(Ordering::Relaxed);
            if v > 0 {
                h.store(v / 2, Ordering::Relaxed);
            }
        }
    }

    /// Whether any shard currently hosts a read-replica of `cell`. Takes
    /// `&self` so the ingest path (which cannot mutate devices) can decide
    /// whether a write needs to queue a replica invalidation.
    pub fn has_replicas(&self, cell: CellId) -> bool {
        self.shards.iter().any(|s| s.resident.is_replica(cell))
    }

    /// Whether shard `host` holds a replica of `cell` that is valid against
    /// the cell's current `cleaned_epoch`. A stale replica is torn down on
    /// the spot (epoch check inside the store), so a `true` here means the
    /// replica's mirror is byte-identical to the owner's consolidated list.
    pub fn replica_valid(&mut self, host: usize, cell: CellId, cleaned_epoch: Option<u64>) -> bool {
        let s = &mut self.shards[host];
        s.resident.is_replica(cell)
            && s.resident
                .lookup(&mut s.device, cell, cleaned_epoch)
                .is_some()
    }

    /// Promote read-replicas of several cells (owned elsewhere) onto shard
    /// `host` in one coalesced transfer: each consolidated mirror is
    /// installed under the host's budget LRU with replica tagging, and the
    /// lists ship together, paying the PCIe latency once for the whole
    /// batch instead of once per cell. Returns the bytes shipped and the
    /// H2D time charged to `host`'s ledger (both zero when nothing was
    /// installed — budget too small, empty list, residency disabled).
    pub fn promote_replicas_coalesced(
        &mut self,
        host: usize,
        batch: &[(CellId, u64, &[CachedMessage])],
    ) -> Shipped {
        let mut bytes = 0u64;
        for &(cell, epoch, messages) in batch {
            debug_assert_ne!(host, self.map.owner_of(cell), "owner needs no replica");
            let s = &mut self.shards[host];
            if s.resident
                .install_replica(&mut s.device, cell, epoch, messages)
            {
                bytes += messages.len() as u64 * CachedMessage::WIRE_BYTES;
            }
        }
        let time = if bytes > 0 {
            self.shards[host].device.h2d(bytes)
        } else {
            SimNanos::ZERO
        };
        Shipped { bytes, time }
    }

    /// Model the read side of a routed candidate gather: a clean-skipped
    /// cell owned by a remote shard serves its consolidated list out of the
    /// owner's device-resident state, so the owner ships it — one coalesced
    /// D2H per owner covering every list it contributes to this ring.
    /// `channels[d]` is the caller's per-query streaming state: the first
    /// ring that reads from owner `d` pays the PCIe handshake, later rings
    /// stream on the open channel and pay wire time only. Cells for which
    /// `host` holds a valid replica are read locally instead (the saving
    /// read-hot promotion exists to buy). Returns the replica hits and what
    /// the owners shipped: the bytes, and the D2H time summed over the
    /// owners' ledgers.
    pub fn gather_remote_lists(
        &mut self,
        host: usize,
        skipped: &[CellId],
        lists: &CellLists,
        cleaned: &CleanedObjects,
        channels: &mut [bool],
    ) -> (u64, Shipped) {
        let mut per_owner = vec![0u64; self.shards.len()];
        let mut hits = 0u64;
        for &c in skipped {
            let d = self.map.owner_of(c);
            if d == host {
                continue;
            }
            let len = cleaned[c].len() as u64;
            if len == 0 {
                continue; // an empty cell has nothing to ship
            }
            let epoch = lists.lock(c.index()).cleaned_epoch();
            if self.replica_valid(host, c, epoch) {
                hits += 1;
            } else {
                per_owner[d] += len * CachedMessage::WIRE_BYTES;
            }
        }
        let mut shipped = Shipped::default();
        for (d, b) in per_owner.into_iter().enumerate() {
            if b > 0 {
                shipped.time += if channels[d] {
                    self.shards[d].device.d2h_streamed(b)
                } else {
                    channels[d] = true;
                    self.shards[d].device.d2h(b)
                };
                shipped.bytes += b;
            }
        }
        (hits, shipped)
    }

    /// Tear down every read-replica of `cell` (the write-path coherence
    /// action: a dirtied cell's replicas must die before the next read).
    /// The owner's own resident entry is untouched — it revalidates through
    /// its epoch like always. Returns the replicas removed.
    pub fn invalidate_replicas(&mut self, cell: CellId) -> u64 {
        let mut removed = 0u64;
        for s in &mut self.shards {
            if s.resident.is_replica(cell) {
                s.resident.invalidate(&mut s.device, cell);
                removed += 1;
            }
        }
        self.replica_invalidations += removed;
        removed
    }

    /// Read-replicas currently live across all hosting devices.
    pub fn replicas_active(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.resident.replica_cells() as u64)
            .sum()
    }

    /// Lifetime write/migration-forced replica teardowns.
    pub fn replica_invalidations(&self) -> u64 {
        self.replica_invalidations
    }

    /// Boundary cells the rebalancer declined to migrate because they were
    /// read-hot but write-cold.
    pub fn migrations_skipped_read_hot(&self) -> u64 {
        self.migrations_skipped_read_hot
    }

    /// As [`Self::clean_cells_routed`] with the reports folded into one
    /// (the per-query accounting path, where stream-level overlap is not
    /// being modeled).
    pub fn clean_cells(
        &mut self,
        lists: &CellLists,
        cells: &[CellId],
        config: &GGridConfig,
        now: Timestamp,
    ) -> (CleanedObjects, CleaningReport) {
        let (merged, reports) = self.clean_cells_routed(lists, cells, config, now);
        let mut total = CleaningReport::default();
        for (_, rep) in &reports {
            total.merge(rep);
        }
        (merged, total)
    }

    /// Per-shard busy time since the last snapshot.
    pub fn epoch_busy_ns(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.epoch_busy_ns()).collect()
    }

    /// Start a new busy-time epoch on every shard.
    pub fn snapshot_busy(&mut self) {
        for s in &mut self.shards {
            s.busy_snapshot_ns = s.lifetime_busy_ns();
        }
    }

    /// Epoch rebalancer: when the busiest shard's epoch busy time exceeds
    /// `threshold ×` the mean, migrate boundary cells from it toward the
    /// adjacent neighbor on the side carrying more of its dirt (ties go to
    /// the colder neighbor). Moves cells until the migrated dirt covers
    /// half the dirt imbalance against that neighbor, capped at half the
    /// hot shard's range. `cell_dirt[i]` is the caller's per-cell load
    /// signal (dirtied counts this epoch). Resets the busy epoch either
    /// way, so the next decision sees fresh deltas.
    ///
    /// `replicate_threshold > 0` makes the migrator *replication-aware*: a
    /// boundary cell that is read-hot (clean-skip heat at or above the
    /// threshold) but write-cold (zero dirt this epoch) stops the boundary
    /// run — replicating such a cell onto readers is strictly cheaper than
    /// re-homing it, since it carries no dirt to shed and migration would
    /// evict the very state the readers keep hitting. Pass `0` to disable
    /// (the pre-replication behavior).
    pub fn maybe_rebalance(
        &mut self,
        cell_dirt: &[u64],
        threshold: f64,
        replicate_threshold: u64,
    ) -> Option<MigrationReport> {
        let d = self.shards.len();
        let result = if d < 2 {
            None
        } else {
            self.try_migrate(cell_dirt, threshold, replicate_threshold)
        };
        self.snapshot_busy();
        result
    }

    /// Whether the rebalancer should leave `cell` where it is: read-hot
    /// (heat at or above the replication threshold), write-cold (no dirt
    /// this epoch), and *actually replicated* — the profile replication
    /// serves better than migration. The replica requirement keeps the
    /// skip surgical: ring expansion heats every cell a wide query sweeps,
    /// but only cells whose consolidated lists readers promoted are being
    /// served off-owner, and migrating one of those would evict the very
    /// state its readers keep hitting while doing nothing for the cells
    /// that merely sit inside large rings.
    fn read_hot_write_cold(&self, cell_dirt: &[u64], i: u32, replicate_threshold: u64) -> bool {
        replicate_threshold > 0
            && cell_dirt[i as usize] == 0
            && self.read_heat[i as usize].load(Ordering::Relaxed) >= replicate_threshold
            && self.has_replicas(CellId(i))
    }

    fn try_migrate(
        &mut self,
        cell_dirt: &[u64],
        threshold: f64,
        replicate_threshold: u64,
    ) -> Option<MigrationReport> {
        let busy = self.epoch_busy_ns();
        let total: u64 = busy.iter().sum();
        if total == 0 {
            return None;
        }
        let mean = total as f64 / busy.len() as f64;
        let hot = (0..busy.len()).max_by_key(|&i| busy[i])?;
        if (busy[hot] as f64) <= threshold * mean {
            return None;
        }
        let range = self.map.range(hot);
        if range.len() < 2 {
            return None; // must keep >= 1 cell
        }
        let dirt_in =
            |r: Range<u32>| -> u64 { cell_dirt[r.start as usize..r.end as usize].iter().sum() };
        let hot_dirt = dirt_in(range.clone());

        // Pick the migration side: the adjacent half of the hot range with
        // more dirt sheds load faster; ties go to the colder neighbor.
        let mid = range.start + range.len() as u32 / 2;
        let low_dirt = dirt_in(range.start..mid);
        let high_dirt = dirt_in(mid..range.end);
        let left_ok = hot > 0;
        let right_ok = hot + 1 < self.shards.len();
        let to = match (left_ok, right_ok) {
            (true, false) => hot - 1,
            (false, true) => hot + 1,
            (true, true) => {
                if low_dirt != high_dirt {
                    if low_dirt > high_dirt {
                        hot - 1
                    } else {
                        hot + 1
                    }
                } else if busy[hot - 1] <= busy[hot + 1] {
                    hot - 1
                } else {
                    hot + 1
                }
            }
            (false, false) => return None,
        };

        // Move cells from the shared boundary inward until the migrated
        // dirt covers half the imbalance, capped at half the hot range.
        let neighbor_dirt = dirt_in(self.map.range(to));
        let target = hot_dirt.saturating_sub(neighbor_dirt) / 2;
        let cap = (range.len() as u32 / 2).max(1);
        let mut moved_cells: Vec<u32> = Vec::new();
        let mut dirt_moved = 0u64;
        if to < hot {
            // Shed the low end of the hot range to the left neighbor.
            for i in range.clone() {
                if moved_cells.len() as u32 >= cap {
                    break;
                }
                if self.read_hot_write_cold(cell_dirt, i, replicate_threshold) {
                    // Truncating here keeps the moved run z-contiguous with
                    // the boundary — cells past the read-hot cell stay put.
                    self.migrations_skipped_read_hot += 1;
                    break;
                }
                moved_cells.push(i);
                dirt_moved += cell_dirt[i as usize];
                if dirt_moved >= target && !moved_cells.is_empty() {
                    break;
                }
            }
        } else {
            // Shed the high end to the right neighbor.
            for i in range.clone().rev() {
                if moved_cells.len() as u32 >= cap {
                    break;
                }
                if self.read_hot_write_cold(cell_dirt, i, replicate_threshold) {
                    self.migrations_skipped_read_hot += 1;
                    break;
                }
                moved_cells.push(i);
                dirt_moved += cell_dirt[i as usize];
                if dirt_moved >= target {
                    break;
                }
            }
        }
        if moved_cells.is_empty() {
            return None;
        }

        // Evict the moved cells' device state off the old owner; the next
        // clean re-homes each cell on the new device (the pending dirt in
        // the host-side lists replays there with no extra protocol).
        let mut resident_evicted = 0u64;
        let mut topo_evicted = 0u64;
        {
            let s = &mut self.shards[hot];
            for &i in &moved_cells {
                let cell = CellId(i);
                if s.resident.force_evict(&mut s.device, cell) {
                    resident_evicted += 1;
                }
                if s.topo.force_evict(&mut s.device, cell) {
                    topo_evicted += 1;
                }
            }
        }
        let n = moved_cells.len() as u32;
        if to < hot {
            self.map.starts[hot] += n;
        } else {
            self.map.starts[hot + 1] -= n;
        }
        // A re-homed cell's replicas were mirrors of the *old* owner's
        // consolidated state; the new owner rebuilds from the host lists,
        // so stale replicas must die with the migration.
        for &i in &moved_cells {
            self.invalidate_replicas(CellId(i));
        }

        Some(MigrationReport {
            from: hot,
            to,
            cells_moved: n,
            dirt_moved,
            resident_evicted,
            topo_evicted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;

    fn map4() -> ShardMap {
        ShardMap::from_ranges(&[0..4, 4..8, 8..12, 12..16], 16)
    }

    #[test]
    fn owner_of_routes_by_range() {
        let m = map4();
        assert_eq!(m.owner_of(CellId(0)), 0);
        assert_eq!(m.owner_of(CellId(3)), 0);
        assert_eq!(m.owner_of(CellId(4)), 1);
        assert_eq!(m.owner_of(CellId(11)), 2);
        assert_eq!(m.owner_of(CellId(15)), 3);
        assert_eq!(m.range(1), 4..8);
        assert_eq!(m.range(3), 12..16);
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn gapped_ranges_rejected() {
        ShardMap::from_ranges(&[0..4, 5..16], 16);
    }

    fn set(d: usize) -> ShardSet {
        let config = GGridConfig {
            num_devices: d,
            ..Default::default()
        };
        let mut shards = Vec::new();
        for _ in 0..d {
            shards.push(ShardState::new(
                Device::new(DeviceSpec::test_tiny()),
                &config,
            ));
        }
        let per = 16 / d as u32;
        let ranges: Vec<Range<u32>> = (0..d as u32)
            .map(|i| {
                (i * per)..if i as usize + 1 == d {
                    16
                } else {
                    (i + 1) * per
                }
            })
            .collect();
        ShardSet {
            shards,
            map: ShardMap::from_ranges(&ranges, 16),
            read_heat: (0..16).map(|_| AtomicU64::new(0)).collect(),
            replica_invalidations: 0,
            migrations_skipped_read_hot: 0,
        }
    }

    #[test]
    fn residency_stores_each_get_the_full_budget() {
        // `device_budget_bytes` bounds the cell store and the topology
        // store separately: filling one to the budget evicts nothing from
        // the other, so a device holds up to twice the budget.
        use crate::message::{CachedMessage, ObjectId, Timestamp};
        use roadnet::{EdgeId, EdgePosition};
        let budget = 8 * CachedMessage::WIRE_BYTES;
        let config = GGridConfig {
            device_budget_bytes: budget,
            ..Default::default()
        };
        let mut sh = ShardState::new(Device::new(DeviceSpec::test_tiny()), &config);
        assert_eq!(sh.resident.budget_bytes(), budget);
        assert_eq!(sh.topo.budget_bytes(), budget);

        let msgs: Vec<CachedMessage> = (0..8u64)
            .map(|o| {
                CachedMessage::update(
                    ObjectId(o),
                    EdgePosition::at_source(EdgeId(0)),
                    Timestamp(1),
                )
            })
            .collect();
        assert!(sh.resident.install(&mut sh.device, CellId(0), 1, &msgs));
        let staged = sh.topo.stage(
            &mut sh.device,
            [(CellId(1), budget / 2), (CellId(2), budget / 2)],
        );
        assert_eq!(staged.misses, 2);
        assert_eq!(sh.resident.resident_bytes(), budget);
        assert_eq!(sh.topo.resident_bytes(), budget);
        assert_eq!(sh.resident.evictions() + sh.topo.evictions(), 0);
    }

    #[test]
    fn rebalance_noop_when_balanced() {
        let mut s = set(4);
        let dirt = vec![1u64; 16];
        // No busy time at all: nothing to rebalance.
        assert!(s.maybe_rebalance(&dirt, 1.25, 0).is_none());
    }

    #[test]
    fn rebalance_moves_boundary_toward_cold_neighbor() {
        let mut s = set(4);
        // Shard 2 (cells 8..12) is hot: give it kernel time.
        s.shards[2].device.launch(32, |ctx| {
            ctx.charge_alu_all(1_000_000);
        });
        let mut dirt = vec![0u64; 16];
        dirt[8..12].fill(100); // uniform dirt inside the hot shard
        let rep = s
            .maybe_rebalance(&dirt, 1.25, 0)
            .expect("skew must trigger");
        assert_eq!(rep.from, 2);
        assert!(rep.to == 1 || rep.to == 3);
        assert!(rep.cells_moved >= 1 && rep.cells_moved <= 2);
        // The map moved the boundary: the re-homed cell now belongs to `to`.
        let moved_cell = if rep.to == 1 { CellId(8) } else { CellId(11) };
        assert_eq!(s.owner_of(moved_cell), rep.to);
        // Epoch reset: immediately after, the same skew no longer fires.
        assert!(s.maybe_rebalance(&dirt, 1.25, 0).is_none());
    }

    #[test]
    fn rebalance_prefers_dirtier_side() {
        let mut s = set(4);
        s.shards[1].device.launch(32, |ctx| {
            ctx.charge_alu_all(1_000_000);
        });
        let mut dirt = vec![0u64; 16];
        dirt[7] = 500; // all the hot shard's dirt sits at its high end
        let rep = s
            .maybe_rebalance(&dirt, 1.25, 0)
            .expect("skew must trigger");
        assert_eq!((rep.from, rep.to), (1, 2));
        assert_eq!(s.owner_of(CellId(7)), 2);
        assert!(rep.dirt_moved >= 250, "moved dirt must cover the imbalance");
    }

    #[test]
    fn rebalance_keeps_at_least_one_cell() {
        let config = GGridConfig::default();
        let shards = vec![
            ShardState::new(Device::new(DeviceSpec::test_tiny()), &config),
            ShardState::new(Device::new(DeviceSpec::test_tiny()), &config),
        ];
        let mut s = ShardSet {
            shards,
            map: ShardMap::from_ranges(&[0..1, 1..2], 2),
            read_heat: (0..2).map(|_| AtomicU64::new(0)).collect(),
            replica_invalidations: 0,
            migrations_skipped_read_hot: 0,
        };
        s.shards[0].device.launch(32, |ctx| {
            ctx.charge_alu_all(1_000_000);
        });
        assert!(s.maybe_rebalance(&[9, 9], 1.25, 0).is_none());
        assert_eq!(s.map.range(0), 0..1);
    }

    #[test]
    fn read_hot_write_cold_boundary_cell_blocks_migration() {
        // Same skew as rebalance_prefers_dirtier_side: shard 1 is hot and
        // all its dirt sits at cell 7, so the boundary run toward shard 2
        // starts at cell 7. Mark cell 7 read-hot and write-cold — wait, it
        // carries dirt, so instead pin the heat on it with zero dirt and
        // put the dirt one cell inward.
        use crate::message::ObjectId;
        use roadnet::{EdgeId, EdgePosition};
        let msgs = [CachedMessage::update(
            ObjectId(7),
            EdgePosition::new(EdgeId(0), 1),
            Timestamp(1),
        )];
        let mut s = set(4);
        s.shards[1].device.launch(32, |ctx| {
            ctx.charge_alu_all(1_000_000);
        });
        let mut dirt = vec![0u64; 16];
        dirt[6] = 500; // hot shard's dirt sits just inside the boundary
        s.read_heat[7].store(50, Ordering::Relaxed); // boundary cell: hot reads, no writes
        let installed = s.promote_replicas_coalesced(2, &[(CellId(7), 1, &msgs[..])]);
        assert!(installed.bytes > 0, "readers hold a replica");
        // With replication disabled the run would shed cell 7 (and 6)
        // rightward; with it enabled, cell 7 truncates the run immediately
        // and nothing moves in that direction.
        let rep = s.maybe_rebalance(&dirt, 1.25, 4);
        assert_eq!(s.migrations_skipped_read_hot(), 1, "skip must be counted");
        if let Some(rep) = rep {
            // If a migration still happened it must have gone the other way
            // (left), never through the read-hot boundary cell.
            assert_eq!(rep.to, 0);
            assert_eq!(s.owner_of(CellId(7)), 1, "read-hot cell stays home");
        }
        // Control: identical setup with replication off migrates cell 7.
        let mut c = set(4);
        c.shards[1].device.launch(32, |ctx| {
            ctx.charge_alu_all(1_000_000);
        });
        c.read_heat[7].store(50, Ordering::Relaxed);
        let rep = c.maybe_rebalance(&dirt, 1.25, 0).expect("control migrates");
        assert_eq!((rep.from, rep.to), (1, 2));
        assert_eq!(c.owner_of(CellId(7)), 2);
        assert_eq!(c.migrations_skipped_read_hot(), 0);
        // Heat alone, with no replica installed, must not block migration:
        // ring expansion heats every swept cell, and freezing the
        // rebalancer over all of them would be worse than either option.
        let mut n = set(4);
        n.shards[1].device.launch(32, |ctx| {
            ctx.charge_alu_all(1_000_000);
        });
        n.read_heat[7].store(50, Ordering::Relaxed);
        let rep = n
            .maybe_rebalance(&dirt, 1.25, 4)
            .expect("unreplicated migrates");
        assert_eq!((rep.from, rep.to), (1, 2));
        assert_eq!(n.migrations_skipped_read_hot(), 0);
    }

    #[test]
    fn launch_scattered_charges_each_owner_device() {
        let mut s = set(4);
        let before: Vec<u64> = s.shards.iter().map(|sh| sh.device.launches()).collect();
        let ops = OpCounts {
            alu: 10_000,
            global_read_bytes: 4_096,
            ..Default::default()
        };
        let times = s.launch_scattered(&[(0, 64, ops), (2, 32, ops), (3, 16, ops)]);
        assert_eq!(times.len(), 3);
        for &(d, t) in &times {
            assert!(t.0 > 0, "shard {d} must accrue modeled time");
        }
        for (d, sh) in s.shards.iter().enumerate() {
            let expect = before[d] + u64::from(d != 1);
            assert_eq!(sh.device.launches(), expect, "shard {d} launch count");
        }
        // Devices 0/2/3 ran concurrently: each device's clock advanced by
        // its own slice only, so the round's critical path is the max.
        let max = times.iter().map(|&(_, t)| t.0).max().unwrap();
        let sum: u64 = times.iter().map(|&(_, t)| t.0).sum();
        assert!(max < sum, "scatter must beat the serial sum");
    }

    #[test]
    fn replica_lifecycle_promote_hit_invalidate() {
        use crate::message::ObjectId;
        use roadnet::{EdgeId, EdgePosition};
        let mut s = set(2);
        let cell = CellId(2); // owned by shard 0
        assert_eq!(s.owner_of(cell), 0);
        let msgs = [CachedMessage::update(
            ObjectId(7),
            EdgePosition::new(EdgeId(0), 1),
            Timestamp(1),
        )];
        assert!(!s.has_replicas(cell));
        let h2d = |s: &ShardSet| s.shard(1).device.ledger().h2d_time;
        let before = h2d(&s);
        let shipped = s.promote_replicas_coalesced(1, &[(cell, 5, &msgs[..])]);
        assert_eq!(shipped.bytes, CachedMessage::WIRE_BYTES, "install fits");
        assert!(
            shipped.time > SimNanos::ZERO,
            "H2D copy must cost modeled time"
        );
        assert_eq!(h2d(&s) - before, shipped.time, "the time is the ledger's");
        assert!(s.has_replicas(cell));
        assert_eq!(s.replicas_active(), 1);
        assert!(s.replica_valid(1, cell, Some(5)));
        // A write bumps the epoch: the replica is stale and must not serve.
        assert!(!s.replica_valid(1, cell, Some(6)));
        assert!(!s.has_replicas(cell), "stale replica torn down on check");
        // Reinstall, then explicit invalidation (the dirtied-cell path).
        assert!(
            s.promote_replicas_coalesced(1, &[(cell, 6, &msgs[..])])
                .bytes
                > 0,
            "reinstall"
        );
        assert_eq!(s.invalidate_replicas(cell), 1);
        assert!(!s.has_replicas(cell));
        assert_eq!(s.replica_invalidations(), 1); // only the explicit teardown
    }
}
