//! The query server: G-Grid state plus the update and query entry points.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use gpu_sim::Device;
use parking_lot::Mutex;
use roadnet::dijkstra::{DijkstraEngine, SearchBounds};
use roadnet::graph::{Distance, Graph, INFINITY};
use roadnet::EdgePosition;

use crate::api::{IndexSize, MovingObjectIndex, SimCosts};
use crate::cleaning::CleanedObjects;
use crate::config::GGridConfig;
use crate::fanout::fan_out;
use crate::grid::{CellId, GraphGrid};
use crate::knn::{run_knn, KnnResult, QueryEnv};
use crate::message::{CachedMessage, ObjectId, Timestamp};
use crate::message_list::{CellLists, MessageList};
use crate::object_table::{FxBuildHasher, ShardedObjectTable};
use crate::scratch::ScratchPool;
use crate::shard::{MigrationReport, ShardSet};
use crate::stats::{guard_hist_bucket, IngestCounters, QueryBreakdown, ServerCounters};
use crate::subscription::{
    guard_cover, slacked, Subscription, SubscriptionId, SubscriptionRegistry,
    SubscriptionTickReport,
};

/// How many cell runs ahead the group commit prefetches a cell's lock and
/// list header: enough to cover a DRAM miss behind a run's append, few
/// enough that the lines are still cached when the loop reaches them.
const PREFETCH_RUNS: usize = 4;

/// What one staged message is charged against `ingest_buffer_bytes`: its
/// 8-byte placement key plus the wire message.
const STAGED_ENTRY_BYTES: u64 = 8 + CachedMessage::WIRE_BYTES;

type Update = (ObjectId, EdgePosition, Timestamp);

/// A group-commit placement packed into one word, so the commit sorts
/// 8-byte keys: the cell in the high 32 bits, then the update's batch
/// index, then a tombstone bit. Word order is `(cell, batch index)` order;
/// the message itself is rebuilt from the batch when it is written.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Placement(u64);

impl Placement {
    /// `index` must be below 2³¹ (`place` asserts it per batch).
    fn new(cell: CellId, index: usize, tombstone: bool) -> Self {
        Self((u64::from(cell.0) << 32) | ((index as u64) << 1) | u64::from(tombstone))
    }

    fn cell(self) -> CellId {
        CellId((self.0 >> 32) as u32)
    }

    fn is_tombstone(self) -> bool {
        self.0 & 1 == 1
    }

    /// The message this placement stands for in `batch`.
    fn message(self, batch: &[Update]) -> CachedMessage {
        let (o, position, time) = batch[(self.0 as u32 >> 1) as usize];
        if self.is_tombstone() {
            CachedMessage::tombstone(o, time)
        } else {
            CachedMessage::update(o, position, time)
        }
    }
}

/// Splits `(cell, index)`-sorted placements into one run per cell.
fn cell_runs(keys: &[Placement]) -> Vec<&[Placement]> {
    keys.chunk_by(|a, b| a.cell() == b.cell()).collect()
}

/// Measured time of one ingest call's worker phases, in nanoseconds.
#[derive(Default)]
struct Work {
    /// Summed over the workers (the serial work volume).
    busy: u64,
    /// The slowest worker of each phase, summed over the phases.
    critical: u64,
}

/// Run `job(w)` for workers `0..workers` through [`fan_out`], adding each
/// worker's time to `work`.
fn on_workers<T: Send>(workers: usize, work: &mut Work, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let parts: Vec<(T, u64)> = fan_out(workers, |w| {
        let started = Instant::now();
        let out = job(w);
        (out, started.elapsed().as_nanos() as u64)
    });
    work.busy += parts.iter().map(|&(_, ns)| ns).sum::<u64>();
    work.critical += parts.iter().map(|&(_, ns)| ns).max().unwrap_or(0);
    parts.into_iter().map(|(out, _)| out).collect()
}

/// The staging store of [`GGridServer::ingest_buffered`]: placed messages
/// waiting for a flush, per cell in arrival order, plus the figures
/// [`GGridServer::counters`] reports for it.
#[derive(Default)]
struct Staging {
    cells: HashMap<CellId, Vec<CachedMessage>, FxBuildHasher>,
    /// Messages staged now, over all cells.
    entries: u64,
    /// Messages ever staged.
    staged_total: u64,
    /// Largest footprint `entries × STAGED_ENTRY_BYTES` seen.
    high_water_bytes: u64,
    /// Flushes that committed at least one cell.
    flushes: u64,
}

impl Staging {
    fn bytes(&self) -> u64 {
        self.entries * STAGED_ENTRY_BYTES
    }

    /// Remove the runs of `cells` (of every staged cell for `None`), in
    /// ascending cell order.
    fn take(&mut self, cells: Option<&[CellId]>) -> Vec<(CellId, Vec<CachedMessage>)> {
        let mut runs: Vec<(CellId, Vec<CachedMessage>)> = match cells {
            Some(cells) => cells
                .iter()
                .filter_map(|c| self.cells.remove_entry(c))
                .collect(),
            None => self.cells.drain().collect(),
        };
        runs.sort_unstable_by_key(|&(c, _)| c);
        self.entries -= runs.iter().map(|(_, m)| m.len() as u64).sum::<u64>();
        runs
    }
}

/// A G-Grid query server (paper §III–§V).
///
/// Owns the graph grid (mirrored on the simulated GPU), the object table,
/// the per-cell message lists, and the device. Updates are O(1) cache
/// appends (Algorithm 1); queries run the CPU–GPU pipeline of Algorithm 4.
///
/// Shared state is lock-guarded for the concurrent query and ingest
/// engines: the message lists sit behind one mutex per cell and the object
/// table is sharded 64 ways, each shard behind its own reader–writer lock,
/// so refinement workers read
/// while ingest workers write — and the whole ingest path takes `&self`.
///
/// **Lock order** (documented invariant): the staging mutex of
/// [`Self::ingest_buffered`] comes first. It is taken before any table-shard
/// lock or cell mutex, never while one is held, and an `ingest_buffered` or
/// flush call holds it through its placement and commit. Below it, a cell
/// mutex and a table-shard lock are never held at the same time: placement
/// takes shard locks one at a time and releases the last before the commit
/// takes cell mutexes one at a time. The dirty-tracking queues are leaves
/// that nothing is acquired under. So no lock cycle can form.
///
/// Concurrent ingest callers must serialize updates *of the same object*
/// themselves (the parallel ingest workers do, by owning disjoint
/// object-id shards); calls for different objects may run freely in
/// parallel.
pub struct GGridServer {
    graph: Arc<Graph>,
    grid: Arc<GraphGrid>,
    config: GGridConfig,
    object_table: ShardedObjectTable,
    lists: CellLists,
    /// The simulated devices with their residency/topology stores and the
    /// cell → shard map (`config.num_devices` of them; one is the paper's
    /// single-GPU deployment).
    shards: ShardSet,
    pool: ScratchPool,
    counters: ServerCounters,
    ingest: IngestCounters,
    last_breakdown: QueryBreakdown,
    subs: SubscriptionRegistry,
    /// Cells dirtied by ingest since the last `tick_subscriptions`, drained
    /// by the tick. Only fed while at least one subscription exists (see
    /// `track_dirty`), so ingest pays nothing for the request/response use.
    subs_dirty: Mutex<Vec<CellId>>,
    /// Fast gate on `subs_dirty`: true once `subscribe_knn` has ever run.
    track_dirty: AtomicBool,
    /// Per-cell dirtied counts for the current rebalance epoch — the load
    /// signal [`Self::rebalance_shards`] migrates by. Empty (never tallied)
    /// while `num_devices == 1`, so single-device ingest pays nothing.
    cell_dirt: Vec<AtomicU64>,
    /// Replica-coherence queue: cells dirtied by the `&self` ingest paths
    /// while some shard hosted a read-replica of them. Drained by
    /// [`Self::sync_replicas`] at every `&mut` read entry point (right
    /// after the ingest flush), which tears the stale replicas down —
    /// so a dirtied cell's replicas are always invalidated *before* the
    /// next read could consult them. Only fed while `num_devices > 1` and
    /// a replica actually exists, so unreplicated ingest pays one
    /// `has_replicas` scan at most.
    replica_dirty: Mutex<Vec<CellId>>,
    /// Messages [`Self::ingest_buffered`] placed but has not committed yet
    /// (DESIGN.md §5.9), drained by [`Self::flush_ingest`], by the implicit
    /// barrier of every query/clean/tick entry point, and before every
    /// direct ingest call. First in the lock order.
    staging: Mutex<Staging>,
}

impl GGridServer {
    /// Build a server over `graph` with the paper's simulated evaluation
    /// device (Quadro P2000).
    pub fn new(graph: Graph, config: GGridConfig) -> Self {
        Self::with_device(graph, config, Device::quadro_p2000())
    }

    /// Build with an explicit simulated device.
    pub fn with_device(graph: Graph, config: GGridConfig, device: Device) -> Self {
        let graph = Arc::new(graph);
        let grid = Arc::new(GraphGrid::build(
            graph.clone(),
            config.cell_capacity,
            config.vertex_capacity,
        ));
        Self::with_shared_grid(grid, config, device)
    }

    /// Build a server over a pre-built (shared) graph grid. The grid is
    /// immutable after construction, so harnesses sweeping query-side
    /// parameters can partition the network once and spin up fresh servers
    /// cheaply.
    pub fn with_shared_grid(grid: Arc<GraphGrid>, config: GGridConfig, device: Device) -> Self {
        config.validate();
        assert!(grid.graph().num_vertices() > 0, "grid over an empty graph");
        // A shared grid must have been built with the same capacities the
        // config declares, or validation and size accounting would lie.
        assert_eq!(
            (grid.cell_capacity(), grid.vertex_capacity()),
            (config.cell_capacity, config.vertex_capacity),
            "shared grid was built with different δc/δv than the config"
        );
        let graph = grid.graph().clone();
        // Partition the z-ordered cells over the devices; every device
        // reserves the graph-grid mirror (§III-A) and owns its residency
        // stores (the per-device `device_budget_bytes`).
        let shards = ShardSet::new(&grid, &config, device);
        let lists = CellLists::new(grid.num_cells(), config.bucket_capacity);
        let pool = ScratchPool::with_budget(graph.num_vertices(), config.scratch_budget_bytes);
        let subs = SubscriptionRegistry::new(grid.num_cells());
        let cell_dirt = if config.num_devices > 1 {
            (0..grid.num_cells()).map(|_| AtomicU64::new(0)).collect()
        } else {
            Vec::new()
        };
        Self {
            graph,
            grid,
            config,
            object_table: ShardedObjectTable::new(),
            lists,
            shards,
            pool,
            counters: ServerCounters::default(),
            ingest: IngestCounters::default(),
            last_breakdown: QueryBreakdown::default(),
            subs,
            subs_dirty: Mutex::new(Vec::new()),
            track_dirty: AtomicBool::new(false),
            cell_dirt,
            replica_dirty: Mutex::new(Vec::new()),
            staging: Mutex::default(),
        }
    }

    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    pub fn grid(&self) -> &GraphGrid {
        &self.grid
    }

    pub fn config(&self) -> &GGridConfig {
        &self.config
    }

    /// Shard 0's device (the single device when `num_devices == 1`).
    pub fn device(&self) -> &Device {
        &self.shards.shard(0).device
    }

    /// Number of shard devices serving this index.
    pub fn num_shards(&self) -> usize {
        self.shards.num_shards()
    }

    /// The contiguous z-order cell range each shard currently owns.
    pub fn shard_ranges(&self) -> Vec<std::ops::Range<u32>> {
        (0..self.shards.num_shards())
            .map(|d| self.shards.map().range(d))
            .collect()
    }

    /// Lifetime kernel-launch count per shard device (tests: routing
    /// assertions).
    pub fn device_launches(&self) -> Vec<u64> {
        (0..self.shards.num_shards())
            .map(|d| self.shards.shard(d).device.launches())
            .collect()
    }

    /// The modeled ingest time so far, [`ServerCounters::modeled_ingest_ns`]
    /// over the ingest counters alone: its slab term counts the slabs
    /// ingest commits opened ([`IngestCounters::slabs_opened`]). Over any
    /// ingest call it moves exactly as the full [`Self::counters`]
    /// snapshot's figure does, which also counts the slabs cleaning opens.
    pub(crate) fn ingest_modeled_ns(&self) -> u64 {
        let mut c = ServerCounters::default();
        self.ingest.merge_into(&mut c);
        c.bucket_allocs = self.ingest.slabs_opened.load(Ordering::Relaxed);
        c.modeled_ingest_ns()
    }

    /// A point-in-time snapshot of the server counters: the query-side
    /// counters (owned by `&mut self` paths) merged with the atomic
    /// ingest-side counters and the lists' slab tally. It walks per-device
    /// state only, never the cells.
    pub fn counters(&self) -> ServerCounters {
        let mut c = self.counters;
        self.ingest.merge_into(&mut c);
        (c.bucket_allocs, c.bucket_reuses) = self.lists.slab_stats();
        let staging = self.staging.lock();
        c.ingest_flushes = staging.flushes;
        c.buffered_messages = staging.staged_total;
        c.buffer_bytes_high_water = staging.high_water_bytes;
        drop(staging);
        c.subs_active = self.subs.active() as u64;
        for d in 0..self.shards.num_shards() {
            c.shard_busy_ns[d] = self.shards.shard(d).lifetime_busy_ns();
        }
        // Replication gauges live on the shard set (promotions happen in
        // the query pipeline, teardowns in sync/migration paths).
        c.replicas_active = self.shards.replicas_active();
        c.replica_invalidations = self.shards.replica_invalidations();
        c.migrations_skipped_read_hot = self.shards.migrations_skipped_read_hot();
        c
    }

    /// Breakdown of the most recent query.
    pub fn last_breakdown(&self) -> &QueryBreakdown {
        &self.last_breakdown
    }

    /// Number of cells whose consolidated lists are device-resident
    /// (summed over all shards).
    pub fn resident_cells(&self) -> usize {
        (0..self.shards.num_shards())
            .map(|d| self.shards.shard(d).resident.resident_cells())
            .sum()
    }

    /// Bytes of consolidated cell state held in device memory (all shards).
    pub fn resident_bytes(&self) -> u64 {
        (0..self.shards.num_shards())
            .map(|d| self.shards.shard(d).resident.resident_bytes())
            .sum()
    }

    /// Whether the cell containing `edge` is device-resident right now
    /// (on its owning shard).
    pub fn is_resident(&self, edge: roadnet::EdgeId) -> bool {
        let cell = self.grid.cell_of_edge(edge);
        let owner = self.shards.owner_of(cell);
        self.shards.shard(owner).resident.contains(cell)
    }

    /// Forcibly evict the resident state of the cell containing `edge`
    /// (tests and ablations — simulates device-memory pressure from
    /// elsewhere). The next clean of that cell takes the full-upload path
    /// and re-promotes it.
    pub fn evict_resident(&mut self, edge: roadnet::EdgeId) -> bool {
        let cell = self.grid.cell_of_edge(edge);
        let owner = self.shards.owner_of(cell);
        let sh = self.shards.shard_mut(owner);
        let evicted = sh.resident.force_evict(&mut sh.device, cell);
        if evicted {
            self.counters.evictions += 1;
        }
        evicted
    }

    /// Forcibly evict every resident cell on every shard, adding the
    /// evictions each shard's store counts to [`ServerCounters::evictions`].
    pub fn evict_all_resident(&mut self) {
        for d in 0..self.shards.num_shards() {
            let sh = self.shards.shard_mut(d);
            let before = sh.resident.evictions();
            sh.resident.clear(&mut sh.device);
            self.counters.evictions += sh.resident.evictions() - before;
        }
    }

    /// Number of cells whose CSR topology slices are device-resident
    /// (summed over all shards).
    pub fn topology_resident_cells(&self) -> usize {
        (0..self.shards.num_shards())
            .map(|d| self.shards.shard(d).topo.resident_cells())
            .sum()
    }

    /// Bytes of topology slices held in device memory (all shards).
    pub fn topology_resident_bytes(&self) -> u64 {
        (0..self.shards.num_shards())
            .map(|d| self.shards.shard(d).topo.resident_bytes())
            .sum()
    }

    /// Forcibly evict every resident topology slice (tests and ablations —
    /// the next query re-uploads what it touches). Each shard's topology
    /// store counts the evictions; [`ServerCounters::evictions`] counts
    /// cell lists only.
    pub fn evict_all_topology(&mut self) {
        for d in 0..self.shards.num_shards() {
            let sh = self.shards.shard_mut(d);
            sh.topo.clear(&mut sh.device);
        }
    }

    /// Read access to the per-cell message lists (diagnostics/validation).
    pub(crate) fn cell_lists(&self) -> &CellLists {
        &self.lists
    }

    /// Read access to the object table (diagnostics/validation).
    pub(crate) fn object_table(&self) -> &ShardedObjectTable {
        &self.object_table
    }

    /// Number of messages currently cached across all cells.
    pub fn cached_messages(&self) -> usize {
        self.lists.sum_over(|l| l.total_messages())
    }

    /// Latest known position of an object, if it ever reported.
    pub fn object_position(&self, o: ObjectId) -> Option<(EdgePosition, Timestamp)> {
        self.object_table.get(o).map(|e| (e.position, e.time))
    }

    pub fn num_objects(&self) -> usize {
        self.object_table.len()
    }

    /// The cell an update lands in (Algorithm 1 line 2).
    fn cell_of(&self, position: EdgePosition) -> CellId {
        debug_assert!(position.is_valid(&self.graph), "invalid object position");
        self.grid.cell_of_edge(position.edge)
    }

    /// Algorithm 1: cache a location update. This is the one-update case
    /// of [`Self::ingest_batch`], with the same placement and commit: an
    /// update that changes cell also appends a tombstone to its previous
    /// cell, and each touched cell pays one lock hold and one dirty-epoch
    /// bump. Unlike `ingest_batch`, it does not count as a batch.
    pub fn handle_update(&self, object: ObjectId, position: EdgePosition, time: Timestamp) {
        self.ingest_direct(&[(object, position, time)], false);
    }

    /// Group-commit ingestion (the batched Algorithm 1): apply `updates`
    /// with per-object order preserved, acquiring each touched cell's mutex
    /// **once for the whole batch** and bumping its dirty epoch once, so a
    /// batch leaves untouched cells' clean-skip stamps warm and touched
    /// cells pay one invalidation instead of one per message.
    ///
    /// Anything [`Self::ingest_buffered`] still stages is committed first,
    /// so a cell's messages stay in arrival order across the two paths.
    /// The batch then runs the two phases every ingest path shares:
    /// placement through the object table, and the group commit of the
    /// sorted per-cell runs. The resulting per-cell message sequences are
    /// byte-identical to calling [`Self::handle_update`] once per element
    /// in order, for every `host_workers` count.
    ///
    /// Returns the cells whose dirty epoch the batch bumped, sorted, one
    /// entry per touched cell, so consumers like the subscription tick
    /// never re-derive them from message placement.
    pub fn ingest_batch(&self, updates: &[(ObjectId, EdgePosition, Timestamp)]) -> Vec<CellId> {
        if updates.is_empty() {
            return Vec::new();
        }
        self.ingest_direct(updates, true)
    }

    /// Buffered ingestion (DESIGN.md §5.9): apply `updates` to the object
    /// table now, but stage their messages instead of committing them to
    /// the shared message lists, so a hot cell shared by many small
    /// arrival batches pays its lock once per flush, not once per call.
    ///
    /// Staged messages become visible at a flush. At the end of this call,
    /// every cell whose staged count reached `config.ingest_buffer_cap` is
    /// committed, or every staged cell when the staged footprint exceeds
    /// `config.ingest_buffer_bytes`. The rest waits for
    /// [`Self::flush_ingest`], for the implicit barrier that every query,
    /// clean, subscription and rebalance entry point runs first, or for
    /// the next direct ingest call. Each flushed cell pays **one** lock
    /// hold and **one** dirty-epoch bump per flush, however many calls
    /// contributed.
    ///
    /// Calls hold the staging mutex throughout, and each call stages its
    /// messages in `(cell, batch index)` order, so every staged run is in
    /// arrival order and the per-cell sequences after a flush are
    /// byte-identical to [`Self::ingest_batch`] over the same calls, for
    /// every worker count (proptested in `tests/ingest_buffer.rs`).
    ///
    /// Returns the cells this call committed (empty while everything stays
    /// staged).
    pub fn ingest_buffered(&self, updates: &[(ObjectId, EdgePosition, Timestamp)]) -> Vec<CellId> {
        if updates.is_empty() {
            return Vec::new();
        }
        let mut staging = self.staging.lock();
        let t0 = Instant::now();
        let mut work = Work::default();
        let keys = self.place(updates, true, &mut work);
        let mut full = Vec::new();
        for run in cell_runs(&keys) {
            let cell = run[0].cell();
            let staged = staging.cells.entry(cell).or_default();
            staged.extend(run.iter().map(|p| p.message(updates)));
            // Every call commits the cells at the cap, so a cell at the
            // cap now reached it in this call.
            if staged.len() >= self.config.ingest_buffer_cap {
                full.push(cell);
            }
        }
        staging.entries += keys.len() as u64;
        staging.staged_total += keys.len() as u64;
        staging.high_water_bytes = staging.high_water_bytes.max(staging.bytes());
        let budget = self.config.ingest_buffer_bytes;
        let drain = (budget == 0 || staging.bytes() <= budget).then_some(full.as_slice());
        let committed = self.commit_staged(&mut staging, drain, &mut work);
        self.record_work(t0, work);
        committed
    }

    /// The explicit visibility barrier of [`Self::ingest_buffered`]: commit
    /// every staged message to the shared message lists (one lock hold and
    /// one dirty-epoch bump per touched cell) and return the cells
    /// committed. Every query/clean/subscription/rebalance entry point and
    /// every direct ingest call runs it first, so buffered ingestion never
    /// changes an answer or a cell's message order, only when the cell
    /// locks are paid.
    pub fn flush_ingest(&self) -> Vec<CellId> {
        let mut staging = self.staging.lock();
        if staging.entries == 0 {
            return Vec::new();
        }
        let t0 = Instant::now();
        let mut work = Work::default();
        let committed = self.commit_staged(&mut staging, None, &mut work);
        self.record_work(t0, work);
        committed
    }

    /// The direct path of `handle_update` and `ingest_batch`: commit what
    /// is staged, then place and commit `updates`.
    fn ingest_direct(&self, updates: &[Update], batched: bool) -> Vec<CellId> {
        self.flush_ingest();
        let t0 = Instant::now();
        let mut work = Work::default();
        let keys = self.place(updates, batched, &mut work);
        let dirty = self.commit(
            &cell_runs(&keys),
            &mut work,
            |run| run[0].cell(),
            |run, list| list.append_batch(run.iter().map(|p| p.message(updates))),
        );
        self.record_work(t0, work);
        dirty
    }

    /// Commit the staged runs of `cells` (of every staged cell for `None`);
    /// one buffer flush when any cell is committed.
    fn commit_staged(
        &self,
        staging: &mut Staging,
        cells: Option<&[CellId]>,
        work: &mut Work,
    ) -> Vec<CellId> {
        let runs = staging.take(cells);
        if runs.is_empty() {
            return Vec::new();
        }
        staging.flushes += 1;
        self.commit(
            &runs,
            work,
            |&(cell, _)| cell,
            |(_, messages), list| list.append_batch(messages.iter().copied()),
        )
    }

    /// Phase 1 of every ingest path: apply `updates` to the object table
    /// and return their placement keys in `(cell, batch index)` order.
    /// `batched` calls also count as a batch; per-call updates do not.
    ///
    /// [`ShardedObjectTable::set_batch`] runs once per worker: with `W`
    /// workers, worker `w` owns the table shards with `shard % W == w`, so
    /// all updates of one object are applied by one worker in batch order,
    /// and each touched shard's write lock is taken once. An update emits
    /// its destination placement and, on a cell move, a tombstone placement
    /// for the previous cell, both tagged with its batch index, and moves
    /// the object in the per-cell live-object tally
    /// ([`CellLists::track_move`]). One update puts at most one message in
    /// a cell, so `(cell, batch index)` is a total order: the sort is
    /// deterministic, and each cell's order is the sequential one.
    fn place(&self, updates: &[Update], batched: bool, work: &mut Work) -> Vec<Placement> {
        assert!(updates.len() < 1 << 31, "ingest batch too large");
        let workers = self.config.host_workers.clamp(1, updates.len());
        let parts = on_workers(workers, work, |w| {
            let mut keys = Vec::with_capacity(updates.len() / workers + 2);
            let locks = self.object_table.set_batch(
                updates,
                |s| s % workers == w,
                |p| self.cell_of(p),
                |idx, cell, prev| {
                    self.lists.track_move(prev.map(|prev| prev.cell), cell);
                    keys.push(Placement::new(cell, idx, false));
                    if let Some(prev) = prev.filter(|prev| prev.cell != cell) {
                        keys.push(Placement::new(prev.cell, idx, true));
                    }
                },
            );
            (keys, locks)
        });
        let mut parts = parts.into_iter();
        let (mut keys, mut locks) = parts.next().expect("at least one ingest worker");
        for (more, n) in parts {
            keys.extend(more);
            locks += n;
        }
        keys.sort_unstable();
        let tombstones = keys.iter().filter(|p| p.is_tombstone()).count() as u64;
        let ingest = &self.ingest;
        ingest.shard_locks.fetch_add(locks, Ordering::Relaxed);
        ingest
            .updates_ingested
            .fetch_add(updates.len() as u64, Ordering::Relaxed);
        ingest
            .tombstones_written
            .fetch_add(tombstones, Ordering::Relaxed);
        if batched {
            ingest.observe_batch(updates.len());
            ingest
                .batched_updates
                .fetch_add(updates.len() as u64, Ordering::Relaxed);
            ingest
                .tombstones_batched
                .fetch_add(tombstones, Ordering::Relaxed);
        }
        keys
    }

    /// Phase 2 of every ingest path, the group commit. `runs` hold one run
    /// per cell in ascending cell order, each in arrival order; `run_cell`
    /// names a run's cell and `append` writes the run. Each cell's run is
    /// appended under one lock hold with one dirty-epoch bump. Runs are
    /// striped over the workers, so no two workers touch one cell, and the
    /// loop prefetches a cell a few runs ahead and reads no clock (see
    /// [`CellLists::lock_metered`]), so the cache misses of consecutive
    /// runs overlap. The commit then records the dirty tracking: the
    /// subscriptions' dirty cells and, with several devices, the per-shard
    /// load and the replicas to invalidate. Returns the committed cells.
    fn commit<R: Sync>(
        &self,
        runs: &[R],
        work: &mut Work,
        run_cell: impl Fn(&R) -> CellId,
        append: impl Fn(&R, &mut MessageList) -> u64 + Sync,
    ) -> Vec<CellId> {
        let dirty: Vec<CellId> = runs.iter().map(run_cell).collect();
        let workers = self.config.host_workers.clamp(1, runs.len().max(1));
        let slabs = on_workers(workers, work, |w| {
            let (mut opened, mut reused) = (0u64, 0u64);
            for j in (w..runs.len()).step_by(workers) {
                if let Some(ahead) = dirty.get(j + PREFETCH_RUNS * workers) {
                    self.lists.prefetch(ahead.index());
                }
                let mut list = self
                    .lists
                    .lock_metered(dirty[j].index(), &self.ingest.cell_lock_wait_ns);
                let (a, r) = list.bucket_alloc_stats();
                append(&runs[j], &mut list);
                let (a2, r2) = list.bucket_alloc_stats();
                (opened, reused) = (opened + a2 - a, reused + r2 - r);
            }
            (opened, reused)
        });
        let (opened, reused) = slabs
            .iter()
            .fold((0, 0), |(a, r), &(a2, r2)| (a + a2, r + r2));
        self.lists.add_slabs(opened, reused);
        self.ingest
            .slabs_opened
            .fetch_add(opened, Ordering::Relaxed);
        let cells = dirty.len() as u64;
        self.ingest.cell_locks.fetch_add(cells, Ordering::Relaxed);
        self.ingest
            .cells_dirtied
            .fetch_add(cells, Ordering::Relaxed);
        if self.config.num_devices > 1 {
            for &c in &dirty {
                let owner = self.shards.owner_of(c);
                self.ingest.shard_dirtied[owner].fetch_add(1, Ordering::Relaxed);
                self.cell_dirt[c.index()].fetch_add(1, Ordering::Relaxed);
                if self.shards.has_replicas(c) {
                    self.replica_dirty.lock().push(c);
                }
            }
        }
        if self.track_dirty.load(Ordering::Relaxed) {
            self.subs_dirty.lock().extend_from_slice(&dirty);
        }
        dirty
    }

    /// Add one ingest call's time: its workers' `work`, plus the serial
    /// glue between the phases (sorting, splitting, staging), which is on
    /// the critical path of any worker count.
    fn record_work(&self, t0: Instant, work: Work) {
        let serial = (t0.elapsed().as_nanos() as u64).saturating_sub(work.busy);
        self.ingest
            .busy_ns
            .fetch_add(work.busy + serial, Ordering::Relaxed);
        self.ingest
            .critical_ns
            .fetch_add(work.critical + serial, Ordering::Relaxed);
    }

    /// The replica-coherence barrier: tear down the read-replicas of every
    /// cell the ingest stream dirtied since the last sync. Runs at every
    /// `&mut self` read entry point right after the ingest flush (ingest is
    /// `&self` and cannot mutate the devices itself), so no stale replica
    /// survives to the next read. Replicas are never consulted for answer
    /// bytes — answers come from the host-side consolidated lists — so this
    /// coherence is about the *modeled machine*: a replica's mirror must
    /// equal the owner's consolidated state whenever it is counted as a
    /// hit, and the epoch check in [`ShardSet::replica_valid`] backstops
    /// this invariant.
    fn sync_replicas(&mut self) {
        if self.config.num_devices <= 1 {
            return;
        }
        let mut dirty: Vec<CellId> = std::mem::take(&mut *self.replica_dirty.lock());
        if dirty.is_empty() {
            return;
        }
        dirty.sort_unstable();
        dirty.dedup();
        for c in dirty {
            self.shards.invalidate_replicas(c);
        }
    }

    /// Eagerly clean the message list of the cell containing `edge`
    /// (ablation support: calling this after every update degenerates the
    /// lazy strategy into the eager one the paper compares against).
    pub fn clean_cell_of_edge(&mut self, edge: roadnet::EdgeId, now: Timestamp) {
        self.flush_ingest();
        self.sync_replicas();
        let cell = self.grid.cell_of_edge(edge);
        let (_, rep, copy_back) = self
            .shards
            .clean_cells(&self.lists, &[cell], &self.config, now);
        self.counters.record_cleaning(&rep, copy_back);
    }

    /// Eagerly clean every cell (used by tests and ablations).
    pub fn clean_all(&mut self, now: Timestamp) {
        self.flush_ingest();
        self.sync_replicas();
        let cells: Vec<CellId> = self.grid.cell_ids().collect();
        let (_, rep, copy_back) = self
            .shards
            .clean_cells(&self.lists, &cells, &self.config, now);
        self.counters.record_cleaning(&rep, copy_back);
    }

    /// Answer a kNN query issued at `now`; returns up to `k`
    /// `(object, distance)` pairs, nearest first.
    pub fn knn(&mut self, q: EdgePosition, k: usize, now: Timestamp) -> Vec<(ObjectId, Distance)> {
        self.knn_detailed(q, k, now).items
    }

    /// Process a batch of queries, sharing one device cleaning pass for
    /// the union of their candidate regions (paper Fig 5's "G-Grid" vs
    /// "G-Grid (L)" distinction).
    pub fn knn_batch(
        &mut self,
        queries: &[(EdgePosition, usize)],
        now: Timestamp,
    ) -> crate::batch::BatchResult {
        self.flush_ingest();
        self.sync_replicas();
        let env = QueryEnv::new(&self.grid, &self.lists, &self.pool, &self.config);
        let result = crate::batch::run_knn_batch(&mut self.shards, env, queries, now);
        // The shared pass is already attributed into the per-query
        // breakdowns (exact proportional split), so recording those covers
        // the whole batch with no special case for the shared record.
        for b in &result.per_query {
            self.counters.record_query(b);
        }
        self.counters.batch_shared_cells += result.shared_cells as u64;
        self.counters.kernel_launches = self.shards.total_launches();
        result
    }

    /// As [`Self::knn`] but returning the full cost breakdown.
    pub fn knn_detailed(&mut self, q: EdgePosition, k: usize, now: Timestamp) -> KnnResult {
        self.flush_ingest();
        self.sync_replicas();
        let result = self.query_pipeline(q, k, now, None);
        self.counters.record_query(&result.breakdown);
        result
    }

    /// The shared full-pipeline path: ad-hoc queries and subscription full
    /// (re-)evaluations both come through here, so there is exactly one
    /// refinement implementation behind every entry point. The caller
    /// records the breakdown (as a query or as subscription work).
    fn query_pipeline(
        &mut self,
        q: EdgePosition,
        k: usize,
        now: Timestamp,
        cache: Option<&CleanedObjects>,
    ) -> KnnResult {
        let env = QueryEnv::new(&self.grid, &self.lists, &self.pool, &self.config);
        let result = run_knn(&mut self.shards, env, q, k, now, cache);
        self.last_breakdown = result.breakdown;
        self.counters.kernel_launches = self.shards.total_launches();
        result
    }

    /// End a rebalance epoch: if the busiest shard's device busy time since
    /// the previous call exceeds `rebalance_threshold` × the mean, migrate
    /// a run of boundary cells (with their pending dirt, evicting their
    /// resident state) from it to its colder neighbour in z-order. Call
    /// once per serving epoch; a no-op while `num_devices == 1`. See
    /// DESIGN.md §5.8.
    pub fn rebalance_shards(&mut self) -> Option<MigrationReport> {
        if self.config.num_devices <= 1 {
            return None;
        }
        // Buffered dirt must land in `cell_dirt` before the epoch is read,
        // and stale replicas must die before the migrator reasons about
        // which cells replication is already serving.
        self.flush_ingest();
        self.sync_replicas();
        let dirt: Vec<u64> = self
            .cell_dirt
            .iter()
            .map(|d| d.load(Ordering::Relaxed))
            .collect();
        let replicate = if self.config.replication_enabled() {
            self.config.replicate_threshold
        } else {
            0
        };
        let report = self
            .shards
            .maybe_rebalance(&dirt, self.config.rebalance_threshold, replicate);
        if let Some(rep) = report {
            self.counters.rebalances += 1;
            self.counters.cells_migrated += rep.cells_moved as u64;
            self.counters.evictions += rep.resident_evicted;
            // Migrated dirt has been re-homed; start the next epoch's tally
            // from zero so one hot burst doesn't keep ping-ponging cells.
            for d in &self.cell_dirt {
                d.store(0, Ordering::Relaxed);
            }
        }
        // Age the replication signal with the epoch, mirroring the dirt
        // reset above: recent read traffic decides what stays replicated.
        self.shards.decay_read_heat();
        report
    }
}

/// Continuous kNN subscriptions (standing queries). See
/// [`crate::subscription`] and DESIGN.md §5.7.
impl GGridServer {
    /// Register a standing kNN query. The result is evaluated once now and
    /// then kept incrementally correct: after each `ingest_batch` /
    /// `handle_update`, a [`Self::tick_subscriptions`] call re-validates
    /// exactly the subscriptions whose guard region intersects a dirtied
    /// cell (or whose members may have aged out), repairing them with a
    /// bounded delta search where possible. [`Self::subscription_result`]
    /// is byte-identical to a fresh `knn(q, k, now)` after every tick.
    ///
    /// Panics when `config.max_subscriptions` are already active.
    pub fn subscribe_knn(&mut self, q: EdgePosition, k: usize, now: Timestamp) -> SubscriptionId {
        assert!(k >= 1, "k must be at least 1");
        assert!(
            self.subs.active() < self.config.max_subscriptions,
            "subscription limit reached (max_subscriptions = {})",
            self.config.max_subscriptions
        );
        self.track_dirty.store(true, Ordering::Relaxed);
        self.flush_ingest();
        self.sync_replicas();
        let t0 = Instant::now();
        let mut inner = 0u64;
        let sub = self.evaluate_full(q, k, now, None, &mut inner);
        // Cover computation and registry bookkeeping, outside the pipeline.
        let extra = (t0.elapsed().as_nanos() as u64).saturating_sub(inner);
        self.counters.record_subscription(&QueryBreakdown {
            cpu_ns: extra,
            ..Default::default()
        });
        self.subs.insert(sub)
    }

    /// Drop a subscription. Returns false for an unknown/stale id.
    pub fn unsubscribe(&mut self, id: SubscriptionId) -> bool {
        self.subs.remove(id).is_some()
    }

    /// The subscription's maintained top-k (as of the last tick), nearest
    /// first, ties on object id.
    pub fn subscription_result(&self, id: SubscriptionId) -> Option<&[(ObjectId, Distance)]> {
        self.subs.get(id).map(|s| s.result.as_slice())
    }

    /// The subscription's guard state: `(guard radius, guard cells,
    /// covers_all)` (diagnostics and tests — e.g. picking an edge outside
    /// every guard region).
    pub fn subscription_guard(&self, id: SubscriptionId) -> Option<(Distance, Vec<CellId>, bool)> {
        self.subs
            .get(id)
            .map(|s| (s.guard_radius, s.guard_cells.clone(), s.covers_all))
    }

    /// Number of active subscriptions.
    pub fn subscriptions_active(&self) -> usize {
        self.subs.active()
    }

    /// Re-validate the standing queries against everything ingested since
    /// the last tick. Subscriptions whose guard region intersects no
    /// dirtied cell (and whose members cannot have aged out) are skipped
    /// at zero device cost; the rest are repaired by the bounded delta
    /// search, falling back to a full re-query through the shared pipeline
    /// when the guard cannot certify the answer.
    pub fn tick_subscriptions(&mut self, now: Timestamp) -> SubscriptionTickReport {
        // Barrier before the dirty drain: buffered cells must register as
        // dirtied so the tick re-validates the subscriptions they touch.
        self.flush_ingest();
        self.sync_replicas();
        let wall0 = Instant::now();
        let subs_ns0 = self.counters.subs_modeled_ns();
        let mut dirty: Vec<CellId> = std::mem::take(&mut *self.subs_dirty.lock());
        dirty.sort_unstable();
        dirty.dedup();
        let active = self.subs.active();
        let mut report = SubscriptionTickReport {
            active,
            dirty_cells: dirty.len(),
            ..Default::default()
        };
        if active == 0 {
            return report;
        }
        let affected = self.subs.affected(&dirty, now);
        report.invalidated = affected.len();
        report.skipped = active - affected.len();

        let mut tick_b = QueryBreakdown::default();
        let mut inner = 0u64;

        // Shared pre-clean: every guard cell a repair will read,
        // consolidated in one pass whose output is the epoch-checked cache
        // the repairs read — untouched cells cost a host snapshot, no
        // device work. Dirty cells under no guard are left alone; the
        // next ad-hoc query that actually visits them cleans them.
        let cache = if affected.is_empty() {
            None
        } else {
            let mut union: Vec<CellId> = Vec::new();
            for &id in &affected {
                if let Some(sub) = self.subs.get(id) {
                    union.extend_from_slice(&sub.guard_cells);
                }
            }
            union.sort_unstable();
            union.dedup();
            let t0 = Instant::now();
            let (cleaned, rep, copy_back) =
                self.shards
                    .clean_cells(&self.lists, &union, &self.config, now);
            tick_b.emulation_ns += t0.elapsed().as_nanos() as u64;
            tick_b.record_cleaning(&rep, copy_back);
            Some(cleaned)
        };

        for id in affected {
            let Some(mut sub) = self.subs.take(id) else {
                continue;
            };
            if !sub.covers_all && self.try_delta_repair(&mut sub, now, cache.as_ref(), &mut tick_b)
            {
                report.repaired_delta += 1;
            } else {
                sub = self.evaluate_full(sub.q, sub.k, now, cache.as_ref(), &mut inner);
                report.repaired_full += 1;
            }
            self.subs.put_back(id, sub);
        }

        self.counters.subs_ticks += 1;
        self.counters.subs_invalidated += report.invalidated as u64;
        self.counters.subs_repaired_delta += report.repaired_delta as u64;
        self.counters.subs_repaired_full += report.repaired_full as u64;
        self.counters.subs_skipped += report.skipped as u64;
        self.counters.subs_active = active as u64;

        // Tick bookkeeping (drain, invalidation scan, delta searches) is
        // the wall time minus what the full evaluations and the emulated
        // device work already accounted for.
        tick_b.cpu_ns = (wall0.elapsed().as_nanos() as u64)
            .saturating_sub(tick_b.emulation_ns.saturating_add(inner));
        self.counters.record_subscription(&tick_b);
        self.counters
            .subs_tick_ns_hist
            .record(self.counters.subs_modeled_ns().saturating_sub(subs_ns0));
        report
    }

    /// Full (re-)evaluation of a standing query through the shared
    /// pipeline: a k+1 query yields the top-k plus the guard distance; the
    /// guard cover is read off one bounded Dijkstra. `inner` accumulates
    /// the host time the pipeline already accounted for.
    fn evaluate_full(
        &mut self,
        q: EdgePosition,
        k: usize,
        now: Timestamp,
        cache: Option<&CleanedObjects>,
        inner: &mut u64,
    ) -> Subscription {
        let r = self.query_pipeline(q, k + 1, now, cache);
        self.counters.record_subscription(&r.breakdown);
        *inner += r.breakdown.cpu_ns + r.breakdown.emulation_ns;
        let mut items = r.items;
        let guard_seed = if items.len() == k + 1 {
            items[k].1
        } else {
            // Fewer than k+1 candidates exist: nothing bounds where the
            // next arrival may matter, so the whole network guards.
            INFINITY
        };
        items.truncate(k);
        let guard_radius = slacked(guard_seed, self.config.guard_slack);
        let (guard_cells, covers_all) = self.compute_cover(q, guard_radius);
        let expires_at = self.member_expiry(items.iter().map(|&(o, _)| {
            self.object_table
                .get(o)
                .map(|e| e.time)
                .unwrap_or(Timestamp(u64::MAX))
        }));
        self.counters.guard_radius_hist[guard_hist_bucket(guard_radius)] += 1;
        Subscription {
            q,
            k,
            result: items,
            guard_radius,
            guard_cells,
            covers_all,
            expires_at,
        }
    }

    /// The guard-cell cover of `ball(q, guard)` (see
    /// [`crate::subscription::guard_cover`]).
    fn compute_cover(&self, q: EdgePosition, guard: Distance) -> (Vec<CellId>, bool) {
        if guard >= INFINITY {
            return (Vec::new(), true);
        }
        let mut engine = DijkstraEngine::with_scratch(&self.graph, self.pool.acquire_map());
        engine.run_from_position(q, SearchBounds::radius(guard));
        let cells = guard_cover(
            &self.grid,
            &self.graph,
            engine.settled(),
            |v| engine.distance(v),
            guard,
            q,
        );
        self.pool.release_map(engine.into_scratch());
        (cells, false)
    }

    /// Earliest instant at which a member's report leaves the freshness
    /// horizon: `min(report time) + t_Δ + 1` (cleaning keeps messages with
    /// `time ≥ now − t_Δ`, so the first dead instant is one past the sum).
    fn member_expiry(&self, times: impl Iterator<Item = Timestamp>) -> Timestamp {
        let mut earliest = u64::MAX;
        for t in times {
            earliest = earliest.min(t.0.saturating_add(self.config.t_delta_ms).saturating_add(1));
        }
        Timestamp(earliest)
    }

    /// Bounded delta repair: re-rank the live objects of the guard cells
    /// with one Dijkstra bounded by the guard radius. Succeeds when at
    /// least k candidates score within the guard — every other object is
    /// provably farther (DESIGN.md §5.7), so the top-k is exact. The guard
    /// may shrink (never grow) from the fresh (k+1)-th distance, keeping
    /// the cover recomputation within the already-settled ball. Returns
    /// false (caller falls back to a full re-query) otherwise.
    fn try_delta_repair(
        &mut self,
        sub: &mut Subscription,
        now: Timestamp,
        cache: Option<&CleanedObjects>,
        tick_b: &mut QueryBreakdown,
    ) -> bool {
        let guard = sub.guard_radius;
        debug_assert!(guard < INFINITY);
        let mut msgs: Vec<CachedMessage> = Vec::new();
        let mut misses: Vec<CellId> = Vec::new();
        for &c in &sub.guard_cells {
            match cache.and_then(|ca| ca.current(&self.lists, c)) {
                Some(m) => {
                    msgs.extend_from_slice(m);
                    tick_b.cells_skipped += 1;
                }
                None => misses.push(c),
            }
        }
        if !misses.is_empty() {
            let t0 = Instant::now();
            let (cleaned, rep, copy_back) =
                self.shards
                    .clean_cells(&self.lists, &misses, &self.config, now);
            tick_b.emulation_ns += t0.elapsed().as_nanos() as u64;
            tick_b.record_cleaning(&rep, copy_back);
            for c in &misses {
                msgs.extend_from_slice(&cleaned[*c]);
            }
        }

        let mut engine = DijkstraEngine::with_scratch(&self.graph, self.pool.acquire_map());
        engine.run_from_position(sub.q, SearchBounds::radius(guard));
        let mut scored: Vec<(Distance, ObjectId, Timestamp)> = msgs
            .iter()
            .filter_map(|m| {
                let p = m.position?;
                let d = engine.position_distance(sub.q, p);
                // Only distances within the bound are exact; candidates
                // beyond it are dominated by the guard argument anyway.
                (d <= guard).then_some((d, m.object, m.time))
            })
            .collect();
        scored.sort_unstable_by_key(|&(d, o, _)| (d, o));
        tick_b.refine_settled += engine.settled().len() as u64;
        tick_b.refine_relaxed += engine.relaxed();

        let k = sub.k;
        if scored.len() < k {
            // The true k-th neighbour may lie beyond the guard; the guard
            // cannot certify a short answer.
            self.pool.release_map(engine.into_scratch());
            return false;
        }
        sub.result = scored[..k].iter().map(|&(d, o, _)| (o, d)).collect();
        if scored.len() > k {
            let new_guard = slacked(scored[k].0, self.config.guard_slack).min(guard);
            if new_guard < guard {
                sub.guard_radius = new_guard;
                sub.guard_cells = guard_cover(
                    &self.grid,
                    &self.graph,
                    engine.settled(),
                    |v| engine.distance(v),
                    new_guard,
                    sub.q,
                );
            }
        }
        sub.expires_at = self.member_expiry(scored[..k].iter().map(|&(_, _, t)| t));
        self.counters.guard_radius_hist[guard_hist_bucket(sub.guard_radius)] += 1;
        self.pool.release_map(engine.into_scratch());
        true
    }
}

impl MovingObjectIndex for GGridServer {
    fn name(&self) -> &'static str {
        "G-Grid"
    }

    fn handle_update(&mut self, object: ObjectId, position: EdgePosition, time: Timestamp) {
        GGridServer::handle_update(self, object, position, time)
    }

    fn ingest_batch(&mut self, updates: &[(ObjectId, EdgePosition, Timestamp)]) {
        let _ = GGridServer::ingest_batch(self, updates);
    }

    fn ingest_buffered(&mut self, updates: &[(ObjectId, EdgePosition, Timestamp)]) {
        let _ = GGridServer::ingest_buffered(self, updates);
    }

    fn flush_ingest(&mut self) {
        let _ = GGridServer::flush_ingest(self);
    }

    fn knn(&mut self, q: EdgePosition, k: usize, now: Timestamp) -> Vec<(ObjectId, Distance)> {
        GGridServer::knn(self, q, k, now)
    }

    fn sim_costs(&self) -> SimCosts {
        let mut costs = SimCosts::default();
        for d in 0..self.shards.num_shards() {
            let dev = &self.shards.shard(d).device;
            let ledger = dev.ledger();
            costs.gpu_time.0 += dev.kernel_time().0;
            costs.transfer_time.0 += ledger.total_time().0;
            costs.h2d_bytes += ledger.h2d_bytes;
            costs.d2h_bytes += ledger.d2h_bytes;
        }
        costs
    }

    fn emulated_host_ns(&self) -> u64 {
        self.counters.emulation_ns
    }

    /// Message lists are counted in the paper's layout, one full δᵇ-slot
    /// array per bucket (`MessageList::size_bytes`), not by the host
    /// slabs behind them, which are sized by what they hold.
    fn index_size(&self) -> IndexSize {
        let lists: u64 = self.lists.sum_over(|l| l.size_bytes());
        IndexSize {
            // Graph grid + object table + message lists and their
            // live-object tally + pooled scratch and staged ingest buffers
            // live on the CPU.
            cpu_bytes: self.grid.grid_bytes()
                + self.object_table.size_bytes()
                + lists
                + self.lists.tally_bytes()
                + self.pool.scratch_bytes()
                + self.staging.lock().bytes(),
            // Every shard device holds a mirror of the graph grid to
            // streamline the computation (Fig 6's "G-Grid (GPU)") plus
            // whatever consolidated cell lists and topology slices are
            // resident on that shard. Read-replicas are counted here too:
            // each replica's bytes sit in the *hosting* shard's resident
            // store (tagged `BufferTag::Replica` on its device ledger) and
            // leave both sums the moment the replica is invalidated.
            gpu_bytes: self.grid.grid_bytes() * self.shards.num_shards() as u64
                + self.resident_bytes()
                + self.topology_resident_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::SimNanos;
    use roadnet::dijkstra::reference_knn;
    use roadnet::gen;
    use roadnet::EdgeId;

    fn small_config() -> GGridConfig {
        GGridConfig {
            bucket_capacity: 8,
            eta: 4,
            ..Default::default()
        }
    }

    fn pos(e: u32, d: u32) -> EdgePosition {
        EdgePosition::new(EdgeId(e), d)
    }

    #[test]
    fn single_object_found() {
        let g = gen::toy(42);
        let mut s = GGridServer::new(g, small_config());
        s.handle_update(ObjectId(1), pos(0, 0), Timestamp(100));
        let r = s.knn(pos(3, 0), 1, Timestamp(200));
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].0, ObjectId(1));
    }

    #[test]
    fn updates_are_cached_not_applied() {
        let g = gen::toy(42);
        let mut s = GGridServer::new(g, small_config());
        for t in 0..50 {
            s.handle_update(ObjectId(1), pos(0, 0), Timestamp(100 + t));
        }
        // All 50 messages cached; no cleaning happened yet.
        assert_eq!(
            s.cached_messages() as u64,
            50 + s.counters().tombstones_written
        );
        // A query cleans the touched region.
        s.knn(pos(0, 0), 1, Timestamp(200));
        assert!(s.cached_messages() < 50);
    }

    #[test]
    fn tombstone_written_on_cell_change() {
        let g = gen::toy(42);
        let grid_probe = {
            let s = GGridServer::new(g.clone(), small_config());
            // Find two edges in different cells.
            let c0 = s.grid().cell_of_edge(EdgeId(0));
            let mut other = None;
            for e in g.edge_ids() {
                if s.grid().cell_of_edge(e) != c0 {
                    other = Some(e);
                    break;
                }
            }
            let other = other.expect("toy graph spans multiple cells");
            s.handle_update(ObjectId(5), pos(0, 0), Timestamp(10));
            assert_eq!(s.counters().tombstones_written, 0);
            s.handle_update(ObjectId(5), EdgePosition::at_source(other), Timestamp(20));
            assert_eq!(s.counters().tombstones_written, 1);
            s
        };
        let _ = grid_probe;
    }

    /// Every cell's message sequence, oldest first.
    fn cell_sequences(s: &GGridServer) -> Vec<Vec<CachedMessage>> {
        (0..s.grid().num_cells())
            .map(|i| {
                let list = s.cell_lists().lock(i);
                list.buckets()
                    .flat_map(|b| b.messages.iter().copied())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn direct_ingest_lands_after_staged_messages() {
        let g = gen::toy(42);
        let s = GGridServer::new(g.clone(), small_config());
        let a = pos(0, 0);
        let b = g
            .edge_ids()
            .find(|&e| s.grid().cell_of_edge(e) != s.cell_of(a))
            .map(EdgePosition::at_source)
            .expect("toy graph spans multiple cells");
        let (o, first, second) = (ObjectId(1), Timestamp(100), Timestamp(101));
        let reference = GGridServer::new(g.clone(), small_config());
        reference.ingest_batch(&[(o, a, first)]);
        reference.ingest_batch(&[(o, b, second)]);
        let want = cell_sequences(&reference);
        let direct: [fn(&GGridServer, Update); 2] = [
            |s, u| drop(s.ingest_batch(&[u])),
            |s, (o, p, t)| s.handle_update(o, p, t),
        ];
        for (i, direct) in direct.iter().enumerate() {
            let s = GGridServer::new(g.clone(), small_config());
            s.ingest_buffered(&[(o, a, first)]);
            // The move's tombstone must follow the staged update in a's cell.
            direct(&s, (o, b, second));
            s.flush_ingest();
            assert_eq!(cell_sequences(&s), want, "direct path {i}");
        }
    }

    #[test]
    fn matches_reference_knn() {
        let g = gen::toy(7);
        let mut s = GGridServer::new(g.clone(), small_config());
        // Scatter 12 objects deterministically.
        let objects: Vec<(u64, EdgePosition)> = (0..12u64)
            .map(|i| {
                let e = EdgeId(((i * 13 + 5) % g.num_edges() as u64) as u32);
                let off = (i % (g.edge(e).weight as u64 + 1)) as u32;
                (i, EdgePosition::new(e, off))
            })
            .collect();
        for &(i, p) in &objects {
            s.handle_update(ObjectId(i), p, Timestamp(100 + i));
        }
        for (qi, k) in [(0u32, 1usize), (5, 3), (10, 5), (20, 12)] {
            let q = EdgePosition::at_source(EdgeId(qi % g.num_edges() as u32));
            let got = s.knn(q, k, Timestamp(500));
            let want = reference_knn(&g, q, &objects, k);
            let got_d: Vec<Distance> = got.iter().map(|&(_, d)| d).collect();
            let want_d: Vec<Distance> = want.iter().map(|&(_, d)| d).collect();
            assert_eq!(got_d, want_d, "distances diverge for k={k} q={q:?}");
        }
    }

    #[test]
    fn object_move_reflected_in_answers() {
        let g = gen::toy(42);
        let mut s = GGridServer::new(g.clone(), small_config());
        s.handle_update(ObjectId(1), pos(0, 0), Timestamp(10));
        // Move far away (edge in another cell).
        let far = g
            .edge_ids()
            .find(|&e| {
                GGridServer::new(g.clone(), small_config())
                    .grid()
                    .cell_of_edge(e)
                    != s.grid().cell_of_edge(EdgeId(0))
            })
            .unwrap();
        s.handle_update(ObjectId(1), EdgePosition::at_source(far), Timestamp(20));
        let r = s.knn(EdgePosition::at_source(far), 1, Timestamp(30));
        assert_eq!(r.len(), 1);
        // The reported distance must be to the *new* location.
        let want = reference_knn(
            &g,
            EdgePosition::at_source(far),
            &[(1, EdgePosition::at_source(far))],
            1,
        );
        assert_eq!(r[0].1, want[0].1);
    }

    #[test]
    fn expired_objects_disappear() {
        let g = gen::toy(42);
        let cfg = GGridConfig {
            t_delta_ms: 100,
            ..small_config()
        };
        let mut s = GGridServer::new(g, cfg);
        s.handle_update(ObjectId(1), pos(0, 0), Timestamp(10));
        // Way past t_Δ: the object violated the contract; it is gone.
        let r = s.knn(pos(0, 0), 1, Timestamp(10_000));
        assert!(r.is_empty());
    }

    #[test]
    fn k_larger_than_population() {
        let g = gen::toy(42);
        let mut s = GGridServer::new(g, small_config());
        s.handle_update(ObjectId(1), pos(0, 0), Timestamp(10));
        s.handle_update(ObjectId(2), pos(1, 0), Timestamp(10));
        let r = s.knn(pos(0, 0), 10, Timestamp(20));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn no_objects_empty_answer() {
        let g = gen::toy(42);
        let mut s = GGridServer::new(g, small_config());
        let r = s.knn(pos(0, 0), 3, Timestamp(20));
        assert!(r.is_empty());
    }

    #[test]
    fn counters_and_sizes_populate() {
        let g = gen::toy(42);
        let mut s = GGridServer::new(g, small_config());
        for i in 0..20 {
            s.handle_update(ObjectId(i), pos((i % 10) as u32, 0), Timestamp(10 + i));
        }
        s.knn(pos(0, 0), 4, Timestamp(100));
        assert_eq!(s.counters().updates_ingested, 20);
        assert_eq!(s.counters().queries, 1);
        assert!(s.counters().gpu_time > gpu_sim::SimNanos::ZERO);
        let sz = s.index_size();
        assert!(sz.cpu_bytes > 0 && sz.gpu_bytes > 0);
        let costs = s.sim_costs();
        assert!(costs.h2d_bytes > 0);
        assert!(costs.total_time() > gpu_sim::SimNanos::ZERO);
    }

    /// The counters snapshot's slab figures come from the writers' tally,
    /// not from a walk over the cells; after every kind of writer has run
    /// they must equal the walk.
    #[test]
    fn slab_tally_matches_the_walk() {
        for d in [1usize, 4] {
            let g = gen::toy(42);
            let edges = g.num_edges() as u32;
            let mut s = GGridServer::new(
                g,
                GGridConfig {
                    bucket_capacity: 5,
                    eta: 4,
                    num_devices: d,
                    ..Default::default()
                },
            );
            let at = |i: u64| pos((i * 7 % edges as u64) as u32, 0);
            for round in 0..6u64 {
                let t = 100 * (round + 1);
                let wave: Vec<_> = (0..40u64)
                    .map(|i| (ObjectId(i), at(i + round * 3), Timestamp(t + i)))
                    .collect();
                match round % 3 {
                    0 => {
                        s.ingest_batch(&wave);
                    }
                    1 => {
                        s.ingest_buffered(&wave);
                        s.flush_ingest();
                    }
                    _ => {
                        for &(o, p, ts) in &wave {
                            s.handle_update(o, p, ts);
                        }
                    }
                }
                s.knn(at(round), 4, Timestamp(t + 50));
                let queries: Vec<_> = (0..4).map(|i| (at(round + i * 11), 3)).collect();
                s.knn_batch(&queries, Timestamp(t + 60));
                if round % 2 == 1 {
                    s.clean_all(Timestamp(t + 70));
                }
            }
            let walk = s.lists.bucket_alloc_stats();
            assert!(
                walk.0 > 0 && walk.1 > 0,
                "slabs opened and reused at D = {d}"
            );
            let c = s.counters();
            assert_eq!((c.bucket_allocs, c.bucket_reuses), walk, "D = {d}");
        }
    }

    /// The message lists pinned through a fixed ingest, clean and restore
    /// stream with a δᵇ that is not a power of two: each cell's message
    /// sequence, every bucket's length and `latest`, every cleaning report
    /// and the consolidated output it returns, and the slab counters. How
    /// the host allocates a bucket's slab must move none of them.
    #[test]
    fn message_lists_match_golden() {
        use crate::knn::golden::Digest;

        let g = gen::toy(42);
        let edges = g.num_edges() as u64;
        let mut s = GGridServer::new(
            g,
            GGridConfig {
                bucket_capacity: 5,
                t_delta_ms: 900,
                eta: 4,
                ..Default::default()
            },
        );
        let cells = s.grid.num_cells();
        let mut rng = 0x5EED_u64;
        let mut next = |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        let mut d = Digest::new();
        let (mut delta_cells, mut full_cells) = (0, 0);
        let word_msg = |d: &mut Digest, m: &CachedMessage| {
            d.word(m.object.0);
            d.word(m.time.0);
            match m.position {
                Some(p) => {
                    d.word(p.edge.0 as u64);
                    d.word(p.offset as u64);
                }
                None => d.word(u64::MAX),
            }
        };
        for round in 0..24u64 {
            let now = 1_000 + 250 * round;
            // A hot corner of objects re-reporting and a long tail of rare
            // ones, so some cells span several buckets and others expire.
            let batch: Vec<_> = (0..40 + next(80))
                .map(|i| {
                    let o = if i % 3 == 0 { next(400) } else { next(24) };
                    let e = EdgeId(next(edges) as u32);
                    (
                        ObjectId(o),
                        EdgePosition::at_source(e),
                        Timestamp(now + i / 8),
                    )
                })
                .collect();
            s.ingest_batch(&batch);
            for _ in 0..next(6) {
                let e = EdgeId(next(edges) as u32);
                s.handle_update(ObjectId(next(400)), pos(e.0, 0), Timestamp(now + 20));
            }
            if round % 7 == 6 {
                s.evict_all_resident();
            }
            let pick = next(3);
            let dirty: Vec<CellId> = s
                .grid
                .cell_ids()
                .filter(|c| round % 5 == 4 || c.index() as u64 % 3 == pick)
                .collect();
            s.flush_ingest();
            let (cleaned, rep, copy_back) =
                s.shards
                    .clean_cells(&s.lists, &dirty, &s.config, Timestamp(now + 30));
            delta_cells += rep.resident_hits;
            full_cells += rep.cells_cleaned - rep.resident_hits;
            for w in [
                (rep.compute_time + copy_back).0,
                rep.compute_time.0,
                copy_back.0,
                rep.kernel_time.0,
                rep.h2d_bytes,
                rep.h2d_delta_bytes,
                rep.h2d_full_bytes,
                rep.d2h_bytes,
                rep.buckets as u64,
                rep.messages as u64,
                rep.cells_cleaned as u64,
                rep.cells_skipped as u64,
                rep.resident_hits as u64,
                rep.evictions,
                rep.max_duplicates_seen as u64,
            ] {
                d.word(w);
            }
            // The cells that yielded live objects (the output also records
            // the empty ones, which the digest has never covered).
            let mut cleaned: Vec<_> = cleaned.iter().filter(|(_, m)| !m.is_empty()).collect();
            cleaned.sort_unstable_by_key(|(c, _)| *c);
            for (c, msgs) in &cleaned {
                d.word(c.index() as u64);
                msgs.iter().for_each(|m| word_msg(&mut d, m));
            }
        }
        let (mut allocs, mut reuses, mut pooled, mut buckets) = (0, 0, 0, 0);
        for c in 0..cells {
            let l = s.lists.lock(c);
            d.word(c as u64);
            for b in l.buckets() {
                d.word(b.messages.len() as u64);
                d.word(b.latest.0);
                b.messages.iter().for_each(|m| word_msg(&mut d, m));
            }
            let (a, r) = l.bucket_alloc_stats();
            allocs += a;
            reuses += r;
            pooled += l.free_slabs();
            buckets += l.num_buckets();
        }
        assert!(delta_cells > 0 && full_cells > 0, "both cleaning paths ran");
        assert_eq!(
            (allocs, reuses, pooled, buckets, d.0),
            (194, 941, 92, 102, 14149332358050565825),
            "message lists moved"
        );
    }

    /// One serve schedule replayed on two fresh servers gives the same
    /// index size, term by term. The serve loop's batch boundaries depend
    /// on measured refinement time, so the two replays may batch the
    /// queries differently; no size term may depend on that.
    #[test]
    fn serve_replay_sizes_match() {
        use crate::serve::{serve, ServeConfig, ServeQueue};

        let replay = || {
            let g = gen::toy(9);
            let edges = g.num_edges() as u64;
            let mut s = GGridServer::new(g, small_config());
            let cfg = ServeConfig {
                epoch_requests: 64,
                ..Default::default()
            };
            let mut queue = ServeQueue::new(&cfg);
            let mut client = queue.client();
            let mut rng = 0xC0FFEE_u64;
            let mut next = |n: u64| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng % n
            };
            let mut at_ns = 0;
            for i in 0..600u64 {
                at_ns += next(600_000);
                let now = Timestamp(1_000 + at_ns / 1_000_000);
                if i % 8 == 0 {
                    let wave = (0..16)
                        .map(|_| {
                            let e = EdgeId(next(edges) as u32);
                            (ObjectId(next(200)), EdgePosition::at_source(e), now)
                        })
                        .collect();
                    client.ingest(wave, at_ns);
                } else {
                    let q = EdgePosition::at_source(EdgeId(next(edges) as u32));
                    client.query(q, 1 + next(8) as usize, now, at_ns);
                }
            }
            drop(client);
            let out = serve(&mut s, &cfg, queue);
            assert!(out.report.batches > 0);
            let size = s.index_size();
            let staged = s.staging.lock().bytes();
            [
                s.grid.grid_bytes(),
                s.object_table.size_bytes(),
                s.lists.sum_over(|l| l.size_bytes()),
                s.pool.scratch_bytes(),
                staged,
                s.resident_bytes(),
                s.topology_resident_bytes(),
                size.cpu_bytes,
                size.gpu_bytes,
            ]
        };
        assert_eq!(replay(), replay());
    }

    #[test]
    fn pooled_scratch_stops_growing_under_batches() {
        // SDist and refinement borrow vertex maps from one pool, and a
        // refinement result is a map held from one query's refinement to
        // its finalisation; a batch keeps at most one query in flight, so
        // over 200 queries the pool must settle at a fixed footprint
        // instead of growing with the query count.
        let g = gen::toy(77);
        let edges = g.num_edges() as u32;
        let host_workers = 3;
        let mut s = GGridServer::new(
            g,
            GGridConfig {
                host_workers,
                ..small_config()
            },
        );
        for o in 0..40u64 {
            let e = EdgeId((o * 11 % edges as u64) as u32);
            s.handle_update(ObjectId(o), EdgePosition::at_source(e), Timestamp(100));
        }
        let mut settled = 0;
        let mut footprints = Vec::new();
        for batch in 0..25u32 {
            let queries: Vec<_> = (0..8u32)
                .map(|i| (pos((batch * 8 + i) * 7 % edges, 0), 4usize))
                .collect();
            let out = s.knn_batch(&queries, Timestamp(500));
            settled += out.per_query.iter().map(|b| b.refine_settled).sum::<u64>();
            footprints.push((s.pool.pooled_maps(), s.pool.scratch_bytes()));
        }
        assert!(settled > 0, "the batches must refine");
        // Every vertex map the pool ever made is idle between batches. A
        // refinement fans out over at most `host_workers` maps while the
        // query before it still holds its result, and SDist hands its map
        // back before its query refines, so it needs no map of its own.
        let bound = host_workers + 1;
        let map_bytes = s.graph.num_vertices() as u64 * 8;
        assert!(
            footprints.iter().all(|&(m, _)| (1..=bound).contains(&m)),
            "{footprints:?}"
        );
        assert!(
            footprints.iter().all(|&(m, bytes)| {
                let maps = m as u64 * map_bytes;
                bytes >= maps && bytes - maps < map_bytes
            }),
            "a pooled map is one 8-byte distance per vertex: {footprints:?}"
        );
        let tail = &footprints[footprints.len() - 10..];
        assert!(
            tail.iter().all(|f| *f == tail[0]),
            "pool still growing: {footprints:?}"
        );
    }

    #[test]
    fn repeated_queries_stay_consistent() {
        let g = gen::toy(3);
        let mut s = GGridServer::new(g, small_config());
        for i in 0..15 {
            s.handle_update(ObjectId(i), pos((i % 8) as u32, 0), Timestamp(50 + i));
        }
        let q = pos(2, 0);
        let first = s.knn(q, 5, Timestamp(100));
        for _ in 0..3 {
            assert_eq!(s.knn(q, 5, Timestamp(100)), first);
        }
    }

    /// At four devices, the gather and promotion times a batch's
    /// breakdowns record are the ledger time those transfers added: every
    /// D2H the batch made is a copy-back, a result copy or a gather, and
    /// once messages and topology are resident every H2D is a promotion.
    #[test]
    fn gather_and_promote_times_match_the_ledgers() {
        let g = gen::toy(77);
        // Replication starts off, so the warm-up rounds promote nothing.
        let mut s = GGridServer::new(
            g.clone(),
            GGridConfig {
                eta: 4,
                num_devices: 4,
                replicate_threshold: 0,
                ..Default::default()
            },
        );
        for o in 0..40u64 {
            for t in 0..5u64 {
                let e = EdgeId(((o * 11 + t) % g.num_edges() as u64) as u32);
                s.handle_update(ObjectId(o), EdgePosition::at_source(e), Timestamp(100 + t));
            }
        }
        // A batch's shared pass cleans every cell its queries' first rounds
        // need, so only a cell it read by clean skip is gathered: clean
        // everything, then dirty a few cells again, so the first batch
        // both cleans and gathers.
        s.clean_all(Timestamp(400));
        for o in 0..8u64 {
            let e = EdgeId((o * 17 % g.num_edges() as u64) as u32);
            s.handle_update(ObjectId(o), EdgePosition::at_source(e), Timestamp(450));
        }
        let queries: Vec<(EdgePosition, usize)> = (0..12u32)
            .map(|i| (EdgePosition::at_source(EdgeId(i * 29 % 160)), 8))
            .collect();
        let ledgers = |s: &GGridServer| -> (SimNanos, SimNanos) {
            (0..s.shards.num_shards()).fold((SimNanos::ZERO, SimNanos::ZERO), |(h, d), i| {
                let l = s.shards.shard(i).device.ledger();
                (h + l.h2d_time, d + l.d2h_time)
            })
        };
        for round in 0..3 {
            if round == 2 {
                // The warm-up left the cells read-hot: this round promotes.
                // A replica hit moves SDist work onto the primary, so stage
                // the whole topology everywhere first.
                s.config.replicate_threshold = 4;
                for d in 0..s.shards.num_shards() {
                    let sh = s.shards.shard_mut(d);
                    let cells = s.grid.cell_ids().map(|c| (c, s.grid.topology(c).bytes()));
                    sh.topo.stage(&mut sh.device, cells);
                }
            }
            let (h2d0, d2h0) = ledgers(&s);
            let batch = s.knn_batch(&queries, Timestamp(500));
            let (h2d1, d2h1) = ledgers(&s);
            let sum = |f: fn(&QueryBreakdown) -> SimNanos| {
                batch
                    .per_query
                    .iter()
                    .fold(SimNanos::ZERO, |acc, b| acc + f(b))
            };
            let gather = sum(|b| b.remote_gather);
            let copies = sum(|b| b.copy_back + b.transfer_out);
            assert_eq!(d2h1 - d2h0, copies + gather, "round {round}");
            assert!(gather > SimNanos::ZERO, "round {round} must gather");
            if round == 2 {
                let uploads: usize = batch
                    .per_query
                    .iter()
                    .map(|b| b.messages_cleaned + b.topo_misses)
                    .sum();
                assert_eq!(uploads, 0, "warm-up left nothing to upload");
                let promote = sum(|b| b.replica_promote);
                assert!(promote > SimNanos::ZERO, "read-hot cells must promote");
                assert_eq!(h2d1 - h2d0, promote);
            }
        }
    }

    mod tally {
        use super::*;
        use proptest::prelude::*;

        /// Assert that each cell's live-object tally counts the objects
        /// the object table places in it.
        fn assert_tally_matches_table(s: &GGridServer) {
            let mut placed = vec![0usize; s.grid.num_cells()];
            for (_, entry) in s.object_table.snapshot() {
                placed[entry.cell.index()] += 1;
            }
            for c in s.grid.cell_ids() {
                assert_eq!(s.lists.live_objects(c), placed[c.index()], "{c:?}");
            }
        }

        /// Clean every cell at `now`: per cell, the live objects the clean
        /// yields and the cell's tally.
        fn yields(s: &mut GGridServer, now: Timestamp) -> Vec<(usize, usize)> {
            s.flush_ingest();
            let cells: Vec<CellId> = s.grid.cell_ids().collect();
            let (cleaned, ..) = s.shards.clean_cells(&s.lists, &cells, &s.config, now);
            let live = |c: CellId| cleaned[c].iter().filter(|m| m.position.is_some()).count();
            cells
                .iter()
                .map(|&c| (live(c), s.lists.live_objects(c)))
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// Every ingest path keeps each cell's tally equal to the
            /// objects the object table places in it, through cell moves
            /// and repeated same-cell updates (stamps rise, so each
            /// object's are unique); no clean yields more live objects than
            /// its cell's tally, and every cell yields exactly its tally
            /// while nothing has expired.
            #[test]
            fn live_tally_matches_the_object_table(
                workers in 1usize..4,
                steps in prop::collection::vec(
                    (0u8..3, prop::collection::vec((0u64..12, 0u32..160, prop::bool::ANY), 1..20)),
                    1..12,
                ),
            ) {
                let g = gen::toy(9);
                let edges = g.num_edges() as u32;
                let mut s = GGridServer::new(g, GGridConfig {
                    host_workers: workers,
                    ..small_config()
                });
                let mut last: HashMap<u64, EdgePosition> = HashMap::new();
                let mut t = 100u64;
                for (path, draws) in steps {
                    let updates: Vec<(ObjectId, EdgePosition, Timestamp)> = draws
                        .into_iter()
                        .map(|(o, e, stay)| {
                            t += 1;
                            let fresh = pos(e % edges, 0);
                            let p = if stay { *last.entry(o).or_insert(fresh) } else { fresh };
                            last.insert(o, p);
                            (ObjectId(o), p, Timestamp(t))
                        })
                        .collect();
                    match path {
                        0 => updates.iter().for_each(|&(o, p, t)| s.handle_update(o, p, t)),
                        1 => drop(s.ingest_batch(&updates)),
                        _ => drop(s.ingest_buffered(&updates)),
                    }
                    assert_tally_matches_table(&s);
                }
                for (live, tally) in yields(&mut s, Timestamp(t + 1)) {
                    prop_assert_eq!(live, tally);
                }
                // Once the older half of the stamps has expired.
                let later = Timestamp((100 + t) / 2 + s.config.t_delta_ms);
                for (live, tally) in yields(&mut s, later) {
                    prop_assert!(live <= tally);
                }
            }
        }
    }
}
