//! The query server: G-Grid state plus the update and query entry points.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use gpu_sim::Device;
use parking_lot::Mutex;
use roadnet::dijkstra::{DijkstraEngine, SearchBounds};
use roadnet::graph::{Distance, Graph, INFINITY};
use roadnet::EdgePosition;

use crate::api::{IndexSize, MovingObjectIndex, SimCosts};
use crate::batch::BatchCleanCache;
use crate::cleaning::{CleanedObjects, CleaningReport};
use crate::config::GGridConfig;
use crate::grid::{CellId, GraphGrid};
use crate::ingest_buffer::{BufferedEntry, ThreadIngestDispatcher};
use crate::knn::{run_knn, KnnResult};
use crate::message::{CachedMessage, ObjectId, Timestamp};
use crate::message_list::CellLists;
use crate::object_table::ShardedObjectTable;
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

/// A group-commit placement packed into one word, so phase 2 of
/// [`GGridServer::ingest_batch`] sorts 8-byte keys: the cell in the high
/// 32 bits, then the update's batch index, then a tombstone bit. Word
/// order is `(cell, batch index)` order; the message itself is rebuilt
/// from the batch at commit time.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Placement(u64);

impl Placement {
    /// `index` must be below 2³¹ (`ingest_batch` asserts it per batch).
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
    fn message(self, batch: &[(ObjectId, EdgePosition, Timestamp)]) -> CachedMessage {
        let (o, position, time) = batch[(self.0 as u32 >> 1) as usize];
        if self.is_tombstone() {
            CachedMessage::tombstone(o, time)
        } else {
            CachedMessage::update(o, position, time)
        }
    }
}

/// A G-Grid query server (paper §III–§V).
///
/// Owns the graph grid (mirrored on the simulated GPU), the object table,
/// the per-cell message lists, and the device. Updates are O(1) cache
/// appends (Algorithm 1); queries run the CPU–GPU pipeline of Algorithm 4.
///
/// Shared state is lock-guarded for the concurrent query and ingest
/// engines: the message lists sit behind one mutex per cell ([`CellLists`])
/// and the object table is sharded 64 ways, each shard behind its own
/// reader–writer lock ([`ShardedObjectTable`]), so refinement workers read
/// while ingest workers write — and the whole ingest path takes `&self`.
///
/// **Lock order** (documented invariant): a cell mutex and a table-shard
/// lock are never held at the same time. The ingest path acquires them
/// strictly alternately (dest-cell mutex → release → shard lock → release →
/// prev-cell mutex), and no path acquires two cell mutexes or two shard
/// locks simultaneously, so no lock cycle can form.
///
/// Concurrent `handle_update`/`ingest_batch` callers must serialize updates
/// *of the same object* themselves (the parallel ingest workers do, by
/// owning disjoint object-id shards); calls for different objects may run
/// freely in parallel.
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
    /// Thread-local ingest buffers (DESIGN.md §5.9): the lock-free fast
    /// path of [`Self::ingest_buffered`], drained into the shared message
    /// lists by [`Self::flush_ingest`] and the implicit barriers on every
    /// query/clean/tick entry point.
    dispatch: ThreadIngestDispatcher,
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
        let dispatch = ThreadIngestDispatcher::new(config.ingest_workers);
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
            dispatch,
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

    /// A point-in-time snapshot of the server counters: the query-side
    /// counters (owned by `&mut self` paths) merged with the atomic
    /// ingest-side counters and the per-cell bucket-pool statistics.
    pub fn counters(&self) -> ServerCounters {
        let mut c = self.counters;
        self.ingest.merge_into(&mut c);
        (c.bucket_allocs, c.bucket_reuses) = self.lists.bucket_alloc_stats();
        let (flushes, buffered, high_water) = self.dispatch.stats();
        c.ingest_flushes = flushes;
        c.buffered_messages = buffered;
        c.buffer_bytes_high_water = high_water;
        c.snapshot_reuses = self.object_table.snapshot_reuses();
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

    /// Forcibly evict every resident cell on every shard.
    pub fn evict_all_resident(&mut self) {
        for d in 0..self.shards.num_shards() {
            let sh = self.shards.shard_mut(d);
            self.counters.evictions += sh.resident.resident_cells() as u64;
            sh.resident.clear(&mut sh.device);
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
    /// the next query re-uploads what it touches).
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

    /// Append `m` to one cell's message list, metering the lock.
    fn append_one(&self, cell: CellId, m: CachedMessage) {
        let mut list = self
            .lists
            .lock_metered(cell.index(), &self.ingest.cell_lock_wait_ns);
        self.ingest.cell_locks.fetch_add(1, Ordering::Relaxed);
        list.append(m);
    }

    /// The cell an update lands in (Algorithm 1 line 2).
    fn cell_of(&self, position: EdgePosition) -> CellId {
        debug_assert!(position.is_valid(&self.graph), "invalid object position");
        self.grid.cell_of_edge(position.edge)
    }

    /// Algorithm 1: cache a location update.
    ///
    /// Lock scope is as narrow as it gets: the destination cell's mutex is
    /// released before the table shard lock is taken, and the shard lock is
    /// released before the previous cell's mutex is taken — no two locks
    /// are ever held together, and [`ShardedObjectTable::set`] returning
    /// the previous entry makes the old lookup-then-set double walk a
    /// single probe.
    pub fn handle_update(&self, object: ObjectId, position: EdgePosition, time: Timestamp) {
        let t0 = Instant::now();
        let cell = self.cell_of(position);
        self.append_one(cell, CachedMessage::update(object, position, time));
        let mut dirtied = 1u64;
        let prev = self.object_table.set(object, cell, position, time);
        self.ingest.shard_locks.fetch_add(1, Ordering::Relaxed);
        let mut tombstone_cell = None;
        if let Some(prev) = prev {
            if prev.cell != cell {
                self.append_one(prev.cell, CachedMessage::tombstone(object, time));
                self.ingest
                    .tombstones_written
                    .fetch_add(1, Ordering::Relaxed);
                dirtied = 2;
                tombstone_cell = Some(prev.cell);
            }
        }
        self.ingest
            .cells_dirtied
            .fetch_add(dirtied, Ordering::Relaxed);
        if self.track_dirty.load(Ordering::Relaxed) {
            let mut pending = self.subs_dirty.lock();
            pending.push(cell);
            pending.extend(tombstone_cell);
        }
        if self.config.num_devices > 1 {
            for c in std::iter::once(cell).chain(tombstone_cell) {
                let owner = self.shards.owner_of(c);
                self.ingest.shard_dirtied[owner].fetch_add(1, Ordering::Relaxed);
                self.cell_dirt[c.index()].fetch_add(1, Ordering::Relaxed);
                if self.shards.has_replicas(c) {
                    self.replica_dirty.lock().push(c);
                }
            }
        }
        self.ingest.updates_ingested.fetch_add(1, Ordering::Relaxed);
        let ns = t0.elapsed().as_nanos() as u64;
        self.ingest.busy_ns.fetch_add(ns, Ordering::Relaxed);
        self.ingest.critical_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Group-commit ingestion (the batched Algorithm 1): apply `updates`
    /// with per-object order preserved, acquiring each touched cell's mutex
    /// **once for the whole batch** and bumping its dirty epoch once, so a
    /// batch leaves untouched cells' clean-skip stamps warm and touched
    /// cells pay one invalidation instead of one per message.
    ///
    /// The resulting per-cell message sequences are byte-identical to
    /// calling [`Self::handle_update`] once per element in order — and
    /// identical for every `ingest_workers` count:
    ///
    /// * **Phase 1 (table)** applies the batch through
    ///   [`ShardedObjectTable::set_batch`]: each touched object-table
    ///   shard's write lock is taken once, and its updates are applied in
    ///   batch order. With `W` workers, worker `w` owns the object shards
    ///   with `shard % W == w`, so all updates of one object are applied by
    ///   one worker in batch order. Each update emits its destination
    ///   placement and, on a cell move, a tombstone placement for the
    ///   previous cell, both tagged with the update's batch index.
    /// * **Phase 2 (append)** sorts placements by `(cell, batch index)` —
    ///   a total order, since one update contributes at most one message
    ///   per cell — and appends each cell's run under one lock hold.
    ///   Runs are striped over the workers; no two workers touch one cell.
    ///   The loop prefetches the cell a few runs ahead and reads no clock
    ///   (see [`CellLists::lock_metered`]), so the cache misses of
    ///   consecutive runs overlap.
    ///
    /// Returns the set of cells whose dirty epoch the batch bumped (the
    /// run heads — one entry per touched cell, sorted), so consumers like
    /// the subscription tick never re-derive it from message placement.
    /// Materialising that set costs an allocation per batch, so it is only
    /// built when someone will consume it — a registered subscription
    /// (`track_dirty`) or shard routing/rebalancing (`num_devices > 1`);
    /// otherwise the returned vector is empty.
    pub fn ingest_batch(&self, updates: &[(ObjectId, EdgePosition, Timestamp)]) -> Vec<CellId> {
        if updates.is_empty() {
            return Vec::new();
        }
        assert!(updates.len() < 1 << 31, "ingest batch too large");
        let t0 = Instant::now();
        let workers = self.config.ingest_workers.clamp(1, updates.len());
        self.ingest.observe_batch(updates.len());
        self.ingest
            .batched_updates
            .fetch_add(updates.len() as u64, Ordering::Relaxed);

        // Phase 1 — object table, one lock per touched shard (set returns
        // the previous entry: single probe).
        let place = |w: usize| -> (Vec<Placement>, u64, u64) {
            let started = Instant::now();
            let mut out: Vec<Placement> = Vec::with_capacity(updates.len() / workers + 2);
            let locks = self.object_table.set_batch(
                updates,
                |s| s % workers == w,
                |p| self.cell_of(p),
                |idx, cell, prev| {
                    out.push(Placement::new(cell, idx, false));
                    if let Some(prev) = prev.filter(|prev| prev.cell != cell) {
                        out.push(Placement::new(prev.cell, idx, true));
                    }
                },
            );
            (out, locks, started.elapsed().as_nanos() as u64)
        };
        let (mut placements, shard_locks, busy1, critical1) = if workers == 1 {
            let (out, locks, ns) = place(0);
            (out, locks, ns, ns)
        } else {
            let parts = crossbeam::thread::scope(|s| {
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        let place = &place;
                        s.spawn(move |_| place(w))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("ingest worker panicked"))
                    .collect::<Vec<_>>()
            })
            .expect("ingest scope failed");
            let mut merged = Vec::with_capacity(updates.len());
            let (mut locks, mut busy, mut critical) = (0u64, 0u64, 0u64);
            for (out, n, ns) in parts {
                merged.extend(out);
                locks += n;
                busy += ns;
                critical = critical.max(ns);
            }
            (merged, locks, busy, critical)
        };
        self.ingest
            .shard_locks
            .fetch_add(shard_locks, Ordering::Relaxed);
        let tombstones = placements.iter().filter(|p| p.is_tombstone()).count() as u64;
        self.ingest
            .tombstones_written
            .fetch_add(tombstones, Ordering::Relaxed);
        self.ingest
            .tombstones_batched
            .fetch_add(tombstones, Ordering::Relaxed);

        // Phase 2 — group-commit appends. (cell, batch-index) keys are
        // unique, so the sort is deterministic, and the per-cell order
        // equals the sequential interleave.
        placements.sort_unstable();
        let mut runs: Vec<&[Placement]> = Vec::new();
        let mut rest = placements.as_slice();
        while let Some(&head) = rest.first() {
            let len = rest.iter().take_while(|p| p.cell() == head.cell()).count();
            let (run, tail) = rest.split_at(len);
            runs.push(run);
            rest = tail;
        }
        let sharded = self.config.num_devices > 1;
        let dirty: Vec<CellId> = if self.track_dirty.load(Ordering::Relaxed) || sharded {
            runs.iter().map(|run| run[0].cell()).collect()
        } else {
            Vec::new()
        };
        if sharded {
            for &c in &dirty {
                let owner = self.shards.owner_of(c);
                self.ingest.shard_dirtied[owner].fetch_add(1, Ordering::Relaxed);
                self.cell_dirt[c.index()].fetch_add(1, Ordering::Relaxed);
                if self.shards.has_replicas(c) {
                    self.replica_dirty.lock().push(c);
                }
            }
        }
        self.ingest
            .cells_dirtied
            .fetch_add(runs.len() as u64, Ordering::Relaxed);
        let commit = |w: usize| -> u64 {
            let started = Instant::now();
            for j in (w..runs.len()).step_by(workers) {
                if let Some(ahead) = runs.get(j + PREFETCH_RUNS * workers) {
                    self.lists.prefetch(ahead[0].cell().index());
                }
                let run = runs[j];
                let mut list = self
                    .lists
                    .lock_metered(run[0].cell().index(), &self.ingest.cell_lock_wait_ns);
                list.append_batch(run.iter().map(|p| p.message(updates)));
            }
            started.elapsed().as_nanos() as u64
        };
        let (busy2, critical2) = if workers == 1 {
            let ns = commit(0);
            (ns, ns)
        } else {
            let times = crossbeam::thread::scope(|s| {
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        let commit = &commit;
                        s.spawn(move |_| commit(w))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("ingest worker panicked"))
                    .collect::<Vec<_>>()
            })
            .expect("ingest scope failed");
            let busy: u64 = times.iter().sum();
            (busy, times.into_iter().max().unwrap_or(0))
        };
        self.ingest
            .cell_locks
            .fetch_add(runs.len() as u64, Ordering::Relaxed);
        self.ingest
            .updates_ingested
            .fetch_add(updates.len() as u64, Ordering::Relaxed);

        // Serial glue (sorting, run splitting) is on the critical path of
        // either worker count; the phase barriers add their slowest worker.
        let serial = (t0.elapsed().as_nanos() as u64).saturating_sub(busy1 + busy2);
        self.ingest
            .busy_ns
            .fetch_add(busy1 + busy2 + serial, Ordering::Relaxed);
        self.ingest
            .critical_ns
            .fetch_add(critical1 + critical2 + serial, Ordering::Relaxed);
        if self.track_dirty.load(Ordering::Relaxed) {
            self.subs_dirty.lock().extend_from_slice(&dirty);
        }
        dirty
    }

    /// Buffered ingestion (the lock-free Algorithm 1, DESIGN.md §5.9):
    /// apply `updates` to the object table now, but stage the resulting
    /// cell placements/tombstones in thread-private buffers instead of the
    /// shared message lists. During the parallel phase **no worker touches
    /// a cell mutex** — each worker locks only its own (uncontended)
    /// buffer slot once per call — so a hot cell shared by every arrival
    /// batch costs zero contention in steady state.
    ///
    /// Buffered messages become visible at the next flush: a cell whose
    /// buffered count reaches `config.ingest_buffer_cap` (or everything,
    /// when the footprint exceeds `config.ingest_buffer_bytes`) is
    /// committed at the end of this call; the rest waits for
    /// [`Self::flush_ingest`] or the implicit barrier every query, clean,
    /// subscription and rebalance entry point runs first. Each flushed
    /// cell pays **one** lock hold and **one** dirty-epoch bump per flush,
    /// however many ingest calls contributed.
    ///
    /// Every staged message carries a global monotone sequence number (an
    /// update and its departure tombstone share one), and the flush merges
    /// the workers' per-cell runs in sequence order — so the per-cell
    /// message sequences after a flush are byte-identical to
    /// [`Self::ingest_batch`] over the same calls, for every worker count
    /// (proptested in `tests/ingest_buffer.rs`).
    ///
    /// Returns the cells committed by this call's end-of-call flush (empty
    /// while everything still sits in the buffers).
    pub fn ingest_buffered(&self, updates: &[(ObjectId, EdgePosition, Timestamp)]) -> Vec<CellId> {
        if updates.is_empty() {
            return Vec::new();
        }
        let t0 = Instant::now();
        let workers = self.config.ingest_workers.clamp(1, updates.len());
        self.ingest.observe_batch(updates.len());
        self.ingest
            .batched_updates
            .fetch_add(updates.len() as u64, Ordering::Relaxed);
        let base = self.dispatch.next_seq(updates.len());

        // Phase 1 — object table + private buffers. Same object sharding
        // and shard grouping as `ingest_batch` (worker `w` owns the object
        // shards with `shard % workers == w`, so per-object order is
        // preserved); the only lock a worker takes besides one per touched
        // table shard is its own buffer slot, once.
        let place = |w: usize| -> (u64, u64, u64, u64) {
            let started = Instant::now();
            let mut buf = self.dispatch.worker(w);
            let (mut staged, mut tombstones) = (0u64, 0u64);
            let locks = self.object_table.set_batch(
                updates,
                |s| s % workers == w,
                |p| self.cell_of(p),
                |idx, cell, prev| {
                    let (o, position, time) = updates[idx];
                    let seq = base + idx as u64;
                    buf.push(cell, seq, CachedMessage::update(o, position, time));
                    staged += 1;
                    if let Some(prev) = prev.filter(|prev| prev.cell != cell) {
                        buf.push(prev.cell, seq, CachedMessage::tombstone(o, time));
                        staged += 1;
                        tombstones += 1;
                    }
                },
            );
            (
                staged,
                tombstones,
                locks,
                started.elapsed().as_nanos() as u64,
            )
        };
        let parts: Vec<(u64, u64, u64, u64)> = if workers == 1 {
            vec![place(0)]
        } else {
            crossbeam::thread::scope(|s| {
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        let place = &place;
                        s.spawn(move |_| place(w))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("ingest worker panicked"))
                    .collect()
            })
            .expect("ingest scope failed")
        };
        let staged: u64 = parts.iter().map(|&(n, _, _, _)| n).sum();
        let tombstones: u64 = parts.iter().map(|&(_, t, _, _)| t).sum();
        let shard_locks: u64 = parts.iter().map(|&(_, _, l, _)| l).sum();
        let busy1: u64 = parts.iter().map(|&(_, _, _, ns)| ns).sum();
        let critical1: u64 = parts.iter().map(|&(_, _, _, ns)| ns).max().unwrap_or(0);
        self.dispatch.note_buffered(staged);
        self.ingest
            .shard_locks
            .fetch_add(shard_locks, Ordering::Relaxed);
        self.ingest
            .tombstones_written
            .fetch_add(tombstones, Ordering::Relaxed);
        self.ingest
            .tombstones_batched
            .fetch_add(tombstones, Ordering::Relaxed);
        self.ingest
            .updates_ingested
            .fetch_add(updates.len() as u64, Ordering::Relaxed);

        // End-of-call flush: everything, when the global byte budget is
        // blown; otherwise only the cells whose buffers filled up.
        let over_budget = self.config.ingest_buffer_bytes > 0
            && self.dispatch.buffered_bytes() > self.config.ingest_buffer_bytes;
        let committed = if over_budget {
            self.commit_buffered(self.dispatch.drain_all())
        } else {
            let full: Vec<(CellId, Vec<BufferedEntry>)> = self
                .dispatch
                .cells_over(self.config.ingest_buffer_cap)
                .into_iter()
                .filter_map(|c| self.dispatch.drain_cell(c).map(|run| (c, run)))
                .collect();
            self.commit_buffered(full)
        };

        // The phase barrier puts serial glue (flushing included) on the
        // critical path of every worker count.
        let serial = (t0.elapsed().as_nanos() as u64).saturating_sub(busy1);
        self.ingest
            .busy_ns
            .fetch_add(busy1 + serial, Ordering::Relaxed);
        self.ingest
            .critical_ns
            .fetch_add(critical1 + serial, Ordering::Relaxed);
        committed
    }

    /// The explicit visibility barrier of [`Self::ingest_buffered`]: drain
    /// every thread-local ingest buffer into the shared message lists (one
    /// lock + one dirty-epoch bump per touched cell) and return the cells
    /// committed. Every query/clean/subscription/rebalance entry point
    /// calls this implicitly, so buffered ingestion never changes an
    /// answer — only when the cell locks are paid.
    pub fn flush_ingest(&self) -> Vec<CellId> {
        let groups = self.dispatch.drain_all();
        self.commit_buffered(groups)
    }

    /// Commit drained buffer groups to their cells: per cell one metered
    /// lock hold, one `append_batch` (sequence order), one epoch bump —
    /// plus the same dirty-tracking side effects as the other ingest
    /// paths. No buffer-slot mutex is held in here (the groups are owned),
    /// so the cell locks nest under nothing. Like the `ingest_batch`
    /// commit, the loop prefetches a few cells ahead and reads no clock.
    fn commit_buffered(&self, groups: Vec<(CellId, Vec<BufferedEntry>)>) -> Vec<CellId> {
        if groups.is_empty() {
            return Vec::new();
        }
        let t0 = Instant::now();
        let sharded = self.config.num_devices > 1;
        let track = self.track_dirty.load(Ordering::Relaxed);
        // One entry per committed cell — cheap relative to the commit
        // itself (a flush amortizes many messages per cell), so unlike
        // `ingest_batch` it is always materialised.
        let dirty: Vec<CellId> = groups.iter().map(|&(c, _)| c).collect();
        for (j, (cell, run)) in groups.into_iter().enumerate() {
            if let Some(ahead) = dirty.get(j + PREFETCH_RUNS) {
                self.lists.prefetch(ahead.index());
            }
            let mut list = self
                .lists
                .lock_metered(cell.index(), &self.ingest.cell_lock_wait_ns);
            list.append_batch(run.iter().map(|&(_, m)| m));
            drop(list);
            self.ingest.cell_locks.fetch_add(1, Ordering::Relaxed);
            self.ingest.cells_dirtied.fetch_add(1, Ordering::Relaxed);
            if sharded {
                let owner = self.shards.owner_of(cell);
                self.ingest.shard_dirtied[owner].fetch_add(1, Ordering::Relaxed);
                self.cell_dirt[cell.index()].fetch_add(1, Ordering::Relaxed);
                if self.shards.has_replicas(cell) {
                    self.replica_dirty.lock().push(cell);
                }
            }
            self.dispatch.recycle(run);
        }
        self.dispatch.note_flush();
        if track {
            self.subs_dirty.lock().extend_from_slice(&dirty);
        }
        let ns = t0.elapsed().as_nanos() as u64;
        self.ingest.busy_ns.fetch_add(ns, Ordering::Relaxed);
        self.ingest.critical_ns.fetch_add(ns, Ordering::Relaxed);
        dirty
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

    /// The one cell-cleaning entry point on the server: the eager-clean
    /// calls ([`Self::clean_all`], [`Self::clean_cell_of_edge`]) and the
    /// subscription tick's shared pre-clean and delta repairs all go
    /// through here, so there is exactly one place that drives
    /// [`crate::cleaning::clean_cells`] from `&mut self`. Callers fold the
    /// report into the counters themselves (queries and subscriptions
    /// attribute it differently).
    fn clean_cells_shared(
        &mut self,
        cells: &[CellId],
        now: Timestamp,
    ) -> (CleanedObjects, CleaningReport) {
        self.shards
            .clean_cells(&self.lists, cells, &self.config, now)
    }

    /// Eagerly clean the message list of the cell containing `edge`
    /// (ablation support: calling this after every update degenerates the
    /// lazy strategy into the eager one the paper compares against).
    pub fn clean_cell_of_edge(&mut self, edge: roadnet::EdgeId, now: Timestamp) {
        self.flush_ingest();
        self.sync_replicas();
        let cell = self.grid.cell_of_edge(edge);
        let (_, rep) = self.clean_cells_shared(&[cell], now);
        self.counters.record_cleaning(&rep);
    }

    /// Eagerly clean every cell (used by tests and ablations).
    pub fn clean_all(&mut self, now: Timestamp) {
        self.flush_ingest();
        self.sync_replicas();
        let cells: Vec<CellId> = self.grid.cell_ids().collect();
        let (_, rep) = self.clean_cells_shared(&cells, now);
        self.counters.record_cleaning(&rep);
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
        let result = crate::batch::run_knn_batch(
            &mut self.shards,
            &self.grid,
            &self.lists,
            &self.pool,
            &self.config,
            queries,
            now,
        );
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
        cache: Option<&BatchCleanCache>,
    ) -> KnnResult {
        let result = run_knn(
            &mut self.shards,
            &self.grid,
            &self.lists,
            &self.pool,
            &self.config,
            q,
            k,
            now,
            cache,
        );
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
        // consolidated in one pass and served to the repairs through the
        // epoch-checked cache — untouched cells cost a host snapshot, no
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
            let (cleaned, rep) = self.clean_cells_shared(&union, now);
            tick_b.emulation_ns += t0.elapsed().as_nanos() as u64;
            tick_b.record_cleaning(&rep);
            Some(BatchCleanCache::build(&self.lists, &union, &cleaned))
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
        cache: Option<&BatchCleanCache>,
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
        let mut engine = DijkstraEngine::with_scratch(&self.graph, self.pool.acquire_engine());
        engine.run_from_position(q, SearchBounds::radius(guard));
        let cells = guard_cover(
            &self.grid,
            &self.graph,
            engine.settled(),
            |v| engine.distance(v),
            guard,
            q,
        );
        self.pool.release_engine(engine.into_scratch());
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
        cache: Option<&BatchCleanCache>,
        tick_b: &mut QueryBreakdown,
    ) -> bool {
        let guard = sub.guard_radius;
        debug_assert!(guard < INFINITY);
        let mut msgs: Vec<CachedMessage> = Vec::new();
        let mut misses: Vec<CellId> = Vec::new();
        for &c in &sub.guard_cells {
            match cache.and_then(|ca| ca.lookup(&self.lists, c)) {
                Some(m) => {
                    msgs.extend_from_slice(m);
                    tick_b.cells_skipped += 1;
                }
                None => misses.push(c),
            }
        }
        if !misses.is_empty() {
            let t0 = Instant::now();
            let (cleaned, rep) = self.clean_cells_shared(&misses, now);
            tick_b.emulation_ns += t0.elapsed().as_nanos() as u64;
            tick_b.record_cleaning(&rep);
            for c in &misses {
                if let Some(m) = cleaned.get(c) {
                    msgs.extend_from_slice(m);
                }
            }
        }

        let mut engine = DijkstraEngine::with_scratch(&self.graph, self.pool.acquire_engine());
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
            self.pool.release_engine(engine.into_scratch());
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
        self.pool.release_engine(engine.into_scratch());
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

    fn index_size(&self) -> IndexSize {
        let lists: u64 = self.lists.sum_over(|l| l.size_bytes());
        IndexSize {
            // Graph grid + object table + message lists + pooled scratch
            // and staged ingest buffers live on the CPU.
            cpu_bytes: self.grid.grid_bytes()
                + self.object_table.size_bytes()
                + lists
                + self.pool.scratch_bytes()
                + self.dispatch.buffered_bytes(),
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
}
