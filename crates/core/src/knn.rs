//! kNN query processing (paper §V, Algorithms 4–6).
//!
//! The query runs as a CPU–GPU pipeline:
//!
//! 1. **Candidate cells** — starting from the query's cell, expand through
//!    cell adjacency, cleaning each frontier on the device, until at least
//!    ρ·k live objects are known (Algorithm 4 lines 1–4).
//! 2. **Candidate distances** — shortest distances over the subgraph
//!    induced by the candidate cells (Algorithm 5, `GPU_SDist`), computed
//!    by a near–far frontier kernel that reaches the same fixed point as
//!    the paper's parallel Bellman–Ford; object distances follow
//!    as `D[source(o.e)] + o.d`, and a parallel selection yields the k best
//!    (`GPU_First_k`).
//! 3. **Unresolved vertices** — boundary vertices of the candidate region
//!    closer than the k-th candidate (`GPU_Unresolved`, Definition 3).
//! 4. **Refinement** — the CPU runs a bounded Dijkstra seeded at every
//!    unresolved vertex over the *full* graph (Algorithm 6), lazily
//!    cleaning any newly touched cells, and merges the improved distance
//!    estimates into the final answer.
//!
//! Step 4 makes the answer exact: any true shortest path that leaves the
//! candidate region must exit through an unresolved vertex `v` with
//! `D[v] < l`, and the refinement search from `v` has radius `l − D[v]`,
//! enough to reach every such answer object.
//!
//! ## Concurrency
//!
//! The pipeline is split into three phases so a batch scheduler can overlap
//! queries: `knn_device_phase` (steps 1–3, needs the device and the
//! message lists), `refine_unresolved` (step 4's Dijkstra expansions —
//! pure CPU, no shared state, so the batch timeline can model it
//! overlapping the next query's device phase), and `knn_finalize` (lazy
//! cleaning of refinement-touched cells plus the final selection).
//! `refine_unresolved` itself deals the unresolved vertices out over
//! `GGridConfig::host_workers` workers; per-worker distance maps are merged
//! with `min`, which is commutative and associative, so the merged result —
//! and therefore the answer — is bit-identical for every worker count.
//!
//! ## Planning and execution
//!
//! Every decision about a query's rounds is made in one place, the planner
//! `QueryPlan`, from one cost model; the executors only run the plan.
//!
//! - **The first ring** (the query's cell and its neighbours) is a cleaning
//!   round of its own. It is also what a batch's shared pass cleans, so a
//!   batched query serves its first round from that pass, and the single,
//!   batch and sharded paths run one plan.
//! - **Later rings merge** into one cleaning round while the objects known
//!   plus the merged rings' live-object tallies stay below ⌈ρk⌉. The tally
//!   (`CellLists::live_objects`, kept by the ingest placement and read
//!   without a cell mutex) bounds what a clean of the cell can yield, so
//!   every merged ring is one ring-by-ring expansion would clean as well:
//!   the cells cleaned are exactly ring-by-ring's, and only the number of
//!   rounds (each an upload, a launch and a copy-back) falls.
//! - **An SDist round scatters** over its cells' effective owners only when
//!   that pays. The kernel is metered once, before anything is charged,
//!   and both placements are priced: each participant's launch of its
//!   metered slice and residual share, and the topology staging each
//!   placement would miss. The round scatters when the critical path it
//!   saves exceeds the work it adds; `GGridConfig::cross_shard_sdist`
//!   off keeps every round on the primary.
//!
//! `Executor::clean` cleans a round's cells, serving those a supplied
//! [`CleanedObjects`] still holds, and promotes the round's read-hot remote
//! cells in one transfer; `MeteredSdist::run` meters an SDist round once
//! and `MeteredSdist::replay` charges it on the placement the planner
//! chose, a primary-only round being the one-device case.
//!
//! ## One distance map
//!
//! SDist and refinement both write a `VertexId → Distance` map whose
//! entries only fall, and both borrow it from the same [`ScratchPool`]
//! (roadnet's [`DijkstraScratch`]). A map can come out of the pool holding
//! its last user's entries, and clearing it costs O(written), so each
//! clear runs on the clock of the phase that pays for it: SDist clears its
//! map when it seeds it and again before handing it back, both inside the
//! emulated kernel bracket, and a refinement search clears its map when it
//! starts, on the refinement clock. A refinement that borrows the map
//! SDist just returned therefore starts on an empty map.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use gpu_sim::{Device, OpCounts, SimNanos};
use roadnet::dijkstra::{DijkstraEngine, DijkstraScratch, SearchBounds};
use roadnet::graph::{Distance, VertexId, INFINITY};
use roadnet::EdgePosition;

use crate::busytime::BusyClock;
use crate::cleaning::CleanedObjects;
use crate::config::GGridConfig;
use crate::fanout::fan_out;
use crate::grid::{CellId, GraphGrid};
use crate::message::{CachedMessage, ObjectId, Timestamp};
use crate::message_list::CellLists;
use crate::object_table::FxBuildHasher;
use crate::scratch::{CellSet, CellTags, ScratchPool};
use crate::shard::{ShardSet, MAX_DEVICES};
use crate::stats::QueryBreakdown;

/// Result of a kNN query.
#[derive(Clone, Debug)]
pub struct KnnResult {
    /// Up to `k` `(object, network distance)` pairs, nearest first; ties
    /// break on object id.
    pub items: Vec<(ObjectId, Distance)>,
    pub breakdown: QueryBreakdown,
}

/// State of a query between the device phase and finalisation.
///
/// Everything here is owned, so a batch scheduler can hold a query until
/// the next query's device phase has run.
pub(crate) struct PendingKnn {
    pub k: usize,
    /// The candidate cells, in expansion order (pooled; returned to the
    /// [`ScratchPool`] when the query finalises).
    pub cells: CellSet,
    pub objects: Vec<CachedMessage>,
    pub estimates: HashMap<ObjectId, Distance, FxBuildHasher>,
    pub positions: HashMap<ObjectId, EdgePosition, FxBuildHasher>,
    /// Distance of the k-th candidate (Definition 3).
    pub l: Distance,
    pub unresolved: Vec<(VertexId, Distance)>,
    /// The query's primary shard (owner of the query's own cell).
    pub primary: usize,
    /// Per-device modeled time of the remote legs of cooperative
    /// (cross-shard) SDist rounds: `(shard, duration)`, one entry per
    /// remote launch. The primary's share is inside `breakdown` like
    /// always; the batch scheduler charges these on the remote devices'
    /// streams so the timeline sees the concurrency.
    pub remote_ns: Vec<(usize, SimNanos)>,
    pub breakdown: QueryBreakdown,
}

/// Result of the CPU refinement phase (Algorithm 6's searches).
#[derive(Default)]
pub(crate) struct RefineOutcome {
    /// `best_outer[u]` = min over unresolved `v` of `D[v] + dist_v(u)` —
    /// the pooled engine scratch the searches ran in (`None` when nothing
    /// was refined); its finite entries are exactly the vertices some
    /// search settled.
    pub best_outer: Option<DijkstraScratch>,
    /// Cells outside the candidate set the searches settled vertices in,
    /// sorted and deduplicated.
    pub touched_cells: Vec<CellId>,
    /// Measured wall time of the phase on this host.
    pub wall_ns: u64,
    /// Summed busy time across workers (the serial work volume).
    pub busy_ns: u64,
    /// Critical path: the busiest single worker. This is the phase's
    /// modeled duration on a host with ≥ `workers` free cores — the
    /// refinement analogue of the simulated device clock, and what the
    /// batch pipeline charges on its host stream.
    pub critical_ns: u64,
    /// Vertices settled across all searches (each worker's multi-source
    /// search settles a shared vertex once).
    pub settled: u64,
    /// Edges examined (relaxation attempts) across all searches.
    pub relaxed: u64,
}

/// What a query reads besides the devices: the grid, the message lists,
/// the scratch pool and the configuration.
#[derive(Clone, Copy)]
pub(crate) struct QueryEnv<'a> {
    pub grid: &'a GraphGrid,
    pub lists: &'a CellLists,
    pub pool: &'a ScratchPool,
    pub config: &'a GGridConfig,
}

impl<'a> QueryEnv<'a> {
    pub(crate) fn new(
        grid: &'a GraphGrid,
        lists: &'a CellLists,
        pool: &'a ScratchPool,
        config: &'a GGridConfig,
    ) -> Self {
        Self {
            grid,
            lists,
            pool,
            config,
        }
    }
}

/// Execute a kNN query against the G-Grid state.
///
/// This is the single full-pipeline entry point: ad-hoc queries
/// (`GGridServer::knn`), the batch scheduler's per-query legs, and
/// subscription full re-evaluations all run through here, optionally
/// serving cleaning rounds from an earlier round's [`CleanedObjects`]
/// (epoch-checked, so answers are byte-identical with or without one).
pub(crate) fn run_knn(
    shards: &mut ShardSet,
    env: QueryEnv,
    q: EdgePosition,
    k: usize,
    now: Timestamp,
    cache: Option<&CleanedObjects>,
) -> KnnResult {
    let pending = knn_device_phase(shards, env, q, k, now, cache);
    let refined = refine_unresolved(env.grid, &pending, env.config.host_workers, env.pool);
    knn_finalize(shards, env, now, pending, refined, cache)
}

/// The round executor of one query phase: runs the phase's planned
/// cleaning rounds, keeping the live objects they find and what they cost.
struct Executor<'a> {
    env: QueryEnv<'a>,
    now: Timestamp,
    /// An earlier round's output, served from while its cells are current.
    cache: Option<&'a CleanedObjects>,
    primary: usize,
    /// Owners this phase has opened a gather stream from.
    channels: [bool; MAX_DEVICES],
    objects: Vec<CachedMessage>,
    breakdown: QueryBreakdown,
    /// Host time spent emulating kernels, kept off the CPU clock.
    emulation: Duration,
}

impl<'a> Executor<'a> {
    fn new(
        env: QueryEnv<'a>,
        now: Timestamp,
        cache: Option<&'a CleanedObjects>,
        primary: usize,
        objects: Vec<CachedMessage>,
        breakdown: QueryBreakdown,
    ) -> Self {
        Self {
            env,
            now,
            cache,
            primary,
            channels: [false; MAX_DEVICES],
            objects,
            breakdown,
            emulation: Duration::ZERO,
        }
    }

    /// One cleaning round: clean `cells` (already added to the candidate
    /// set by the planner) and merge their live objects into the pool.
    ///
    /// When an earlier round's output is supplied as the cache (a batch's
    /// shared pass, a subscription tick's pre-clean), cells it read whose
    /// list epoch proves no message landed since are served from it at zero
    /// device cost (counted as skips); everything else falls through to
    /// [`ShardSet::clean_cells`], which routes each cell to its owning device.
    ///
    /// Read-hot *remote* cells of the round, cache-served or freshly
    /// cleaned, whose clean-skip read heat crossed
    /// `GGridConfig::replicate_threshold` are promoted as read-replicas onto
    /// the query's primary device after the clean, in one transfer — the
    /// one place consolidated messages and their list epoch are both in
    /// hand.
    fn clean(&mut self, shards: &mut ShardSet, cells: &[CellId]) {
        let (lists, config, primary) = (self.env.lists, self.env.config, self.primary);
        let breakdown = &mut self.breakdown;
        let mut fresh: Vec<CellId> = Vec::with_capacity(cells.len());
        let mut served: Vec<(CellId, &[CachedMessage])> = Vec::new();
        for &c in cells {
            let Some(msgs) = self.cache.and_then(|cache| cache.current(lists, c)) else {
                fresh.push(c);
                continue;
            };
            self.objects.extend_from_slice(msgs);
            breakdown.cells_skipped += 1;
            if shards.num_shards() > 1 {
                // A hot remote cell served out of the cache is exactly the
                // read the scatter path keeps paying for: a device replica
                // folds later frontier rounds' work onto this primary.
                shards.note_read(c);
                served.push((c, msgs));
            }
        }
        let mut cleaned = CleanedObjects::default();
        if !fresh.is_empty() {
            // The cells the routed clean will serve from the clean-skip
            // cache (the predicate the skip branch itself uses, evaluated
            // pre-clean): remote-owned ones are read out of their owner's
            // device below.
            let gather: Vec<CellId> = if shards.num_shards() > 1 {
                fresh
                    .iter()
                    .copied()
                    .filter(|&c| shards.owner_of(c) != primary && lists.lock(c.index()).is_clean())
                    .collect()
            } else {
                Vec::new()
            };
            let t0 = Instant::now();
            let (out, rep) = shards.clean_cells(lists, &fresh, config, self.now);
            cleaned = out;
            self.emulation += t0.elapsed();
            breakdown.record_cleaning(&rep);
            if !gather.is_empty() {
                let (hits, shipped) = shards.gather_remote_lists(
                    primary,
                    &gather,
                    lists,
                    &cleaned,
                    &mut self.channels,
                );
                breakdown.replica_hits += hits;
                breakdown.d2h_bytes += shipped.bytes;
                breakdown.remote_gather += shipped.time;
            }
        }
        if config.replication_enabled() {
            let round = served
                .into_iter()
                .chain(fresh.iter().map(|&c| (c, &cleaned[c][..])));
            let mut promote: Vec<(CellId, u64, &[CachedMessage])> = Vec::new();
            for (c, msgs) in round {
                if let Some(epoch) = replica_epoch(shards, lists, config, primary, c, msgs) {
                    promote.push((c, epoch, msgs));
                }
            }
            if !promote.is_empty() {
                let shipped = shards.promote_replicas_coalesced(primary, &promote);
                breakdown.h2d_bytes += shipped.bytes;
                breakdown.replica_promote += shipped.time;
            }
        }
        for c in fresh {
            self.objects.extend_from_slice(&cleaned[c]);
        }
    }
}

/// The list epoch at which to promote `c`'s consolidated `msgs` as a
/// read-replica onto `primary`, if it should be: replication is on, `c` is
/// remote, read-hot, non-empty and consolidated, and `primary` holds no
/// valid replica of it yet (a stale one is torn down by the check).
fn replica_epoch(
    shards: &mut ShardSet,
    lists: &CellLists,
    config: &GGridConfig,
    primary: usize,
    c: CellId,
    msgs: &[CachedMessage],
) -> Option<u64> {
    if !config.replication_enabled()
        || shards.owner_of(c) == primary
        || shards.read_heat_of(c) < config.replicate_threshold
        || msgs.is_empty()
    {
        return None;
    }
    let epoch = lists.lock(c.index()).cleaned_epoch()?;
    (!shards.replica_valid(primary, c, Some(epoch))).then_some(epoch)
}

/// The first ring of a query whose own cell is `c_q`: the cell, then its
/// neighbours (sorted, never `c_q` itself). The one rule for where a query
/// starts: its first cleaning round, and the batch's shared pass, which
/// cleans the union of its queries' first rings.
pub(crate) fn first_ring(grid: &GraphGrid, c_q: CellId) -> impl Iterator<Item = CellId> + '_ {
    std::iter::once(c_q).chain(grid.neighbors(c_q).iter().copied())
}

/// The query planner: the one place that decides which cells a query
/// cleans in which round and where its SDist rounds run. The single, batch
/// and sharded paths all execute its plan; none plans for itself.
struct QueryPlan<'a> {
    env: QueryEnv<'a>,
    /// The query's own cell.
    c_q: CellId,
    /// The query's primary shard, the owner of its own cell: where its
    /// query-wide kernels run.
    primary: usize,
    /// Live objects the expansion stops at: ⌈ρ·k⌉, and at least k.
    target: usize,
    /// The candidate set L, in expansion order (pooled).
    cells: CellSet,
    /// The ring added to L last.
    ring: Vec<CellId>,
    /// Effective owner per candidate cell (pooled; only when `D > 1`).
    owners: Option<CellTags<u8>>,
}

impl<'a> QueryPlan<'a> {
    /// An empty plan for a k-query at `q`.
    fn new(env: QueryEnv<'a>, shards: &ShardSet, q: EdgePosition, k: usize) -> Self {
        let (grid, pool) = (env.grid, env.pool);
        let c_q = grid.cell_of_edge(q.edge);
        Self {
            env,
            c_q,
            primary: shards.owner_of(c_q),
            target: ((env.config.rho * k as f64).ceil() as usize).max(k),
            cells: pool.acquire_cells(grid.num_cells()),
            ring: Vec::new(),
            owners: (shards.num_shards() > 1).then(|| pool.acquire_owners(grid.num_cells())),
        }
    }

    /// Add the next ring to the candidate set and return it: the
    /// [`first_ring`] while the set is empty, then `neighbors(L) \ L`.
    /// Empty once the expansion has reached every connected cell.
    fn advance(&mut self) -> &[CellId] {
        let (grid, cells) = (self.env.grid, &mut self.cells);
        self.ring = if cells.is_empty() {
            first_ring(grid, self.c_q)
                .filter(|&c| cells.insert(c))
                .collect()
        } else {
            next_ring(grid, cells, &self.ring)
        };
        &self.ring
    }

    /// The next cleaning round of the expansion (Algorithm 4 lines 1–4),
    /// given the `known` live objects so far; `None` once ρ·k are known or
    /// the expansion is exhausted.
    ///
    /// The first ring is a round of its own: it is what a batch's shared
    /// pass cleans, so a batched query serves it from that pass. Every
    /// later round is the next ring, merged with the rings after it while
    /// they are sure to be needed: a clean of a cell yields at most its
    /// live-object tally ([`CellLists::live_objects`]), so while the
    /// objects known plus the tallies of the rings queued for this round
    /// stay below the target, ring-by-ring expansion would certainly clean
    /// the next ring as well. The cells cleaned are the same; each merged
    /// ring saves an upload, a launch and a copy-back.
    fn cleaning_round(&mut self, known: usize) -> Option<Vec<CellId>> {
        if known >= self.target {
            return None;
        }
        let first = self.cells.is_empty();
        let mut round = self.advance().to_vec();
        if round.is_empty() {
            return None;
        }
        if first {
            return Some(round);
        }
        let mut bound = known;
        while stays_below(self.env.lists, &self.ring, &mut bound, self.target) {
            let next = self.advance();
            if next.is_empty() {
                break;
            }
            round.extend_from_slice(next);
        }
        Some(round)
    }

    /// Place an SDist round over the candidate set, with its kernel
    /// metered by `meter` (which runs the kernel once and charges nothing).
    ///
    /// Each cell's effective owner is its owner, except that a remote cell
    /// with a *valid* replica on the primary counts as primary-owned (a
    /// replica hit): its relax work stays local, shrinking the round's
    /// device span. A round that spans several devices, with
    /// `GGridConfig::cross_shard_sdist` on, is metered per owner and both
    /// placements are priced before anything is charged
    /// ([`MeteredSdist::price`]); it scatters over the owners only when
    /// the critical path it saves exceeds the work it adds. Otherwise, and
    /// always at `D = 1`, it runs on the primary alone.
    fn sdist_round(
        &mut self,
        shards: &mut ShardSet,
        breakdown: &mut QueryBreakdown,
        meter: impl FnOnce(SdistRound) -> MeteredSdist,
    ) -> (SdistRound<'_>, MeteredSdist) {
        let (grid, lists, config) = (self.env.grid, self.env.lists, self.env.config);
        let primary = self.primary;
        let mut span = 0;
        if let Some(owners) = self.owners.as_mut() {
            let mut seen = [false; MAX_DEVICES];
            for &c in self.cells.tagged() {
                let own = shards.owner_of(c);
                let eff = if own != primary
                    && config.replication_enabled()
                    && shards.replica_valid(primary, c, lists.lock(c.index()).cleaned_epoch())
                {
                    breakdown.replica_hits += 1;
                    primary
                } else {
                    own
                };
                owners.set(c, eff as u8);
                seen[eff] = true;
            }
            span = seen.iter().filter(|&&s| s).count();
            breakdown.ring_span = breakdown.ring_span.max(span);
        }
        let solo = SdistRound {
            in_set: self.cells.tags(),
            set: self.cells.tagged(),
            primary,
            owners: None,
        };
        let owners = match &self.owners {
            Some(owners) if span > 1 && config.cross_shard_sdist => owners.tags(),
            _ => return (solo, meter(solo)),
        };
        let spread = SdistRound {
            owners: Some(owners),
            ..solo
        };
        let metered = meter(spread);
        let (solo_time, _) = metered.price(shards, grid, solo);
        let (critical, work) = metered.price(shards, grid, spread);
        // Saved critical path `solo − critical` against added work
        // `work − solo` (negative when the owners hold topology the
        // primary would have to stage).
        if 2 * solo_time.0 > critical.0 + work.0 {
            breakdown.cross_shard_rounds += 1;
            return (spread, metered);
        }
        (solo, metered)
    }

    /// Release the pooled owner map and hand back the candidate set.
    fn finish(self) -> CellSet {
        if let Some(owners) = self.owners {
            self.env.pool.release_owners(owners);
        }
        self.cells
    }
}

/// Steps 1–3: everything that needs the devices and the message lists,
/// executing the query's [`QueryPlan`].
///
/// Cleaning rounds route each cell to its owning shard; the query-wide
/// kernels (`GPU_SDist`, selection, unresolved) run on the query's
/// *primary* shard — the owner of the query's own cell — with SDist's
/// relax work scattered over the owners when the plan says so.
pub(crate) fn knn_device_phase(
    shards: &mut ShardSet,
    env: QueryEnv,
    q: EdgePosition,
    k: usize,
    now: Timestamp,
    cache: Option<&CleanedObjects>,
) -> PendingKnn {
    let QueryEnv {
        grid, pool, config, ..
    } = env;
    assert!(k >= 1, "k must be at least 1");
    let graph = grid.graph().clone();
    assert!(q.is_valid(&graph), "query position invalid for this graph");
    let launches0 = shards.total_launches();
    let cpu_start = Instant::now();
    let mut plan = QueryPlan::new(env, shards, q, k);
    let primary = plan.primary;
    let mut ex = Executor::new(env, now, cache, primary, Vec::new(), Default::default());

    // ---- Step 1: candidate cells (Algorithm 4 lines 1-4) ----
    while let Some(round) = plan.cleaning_round(ex.objects.len()) {
        ex.clean(shards, &round);
    }

    // ---- Step 2: candidate distances, with a robustness loop: if fewer
    // than k candidates are reachable inside the induced subgraph, keep
    // expanding one ring at a time (degenerate topologies only; normally
    // runs once). ----
    let mut dist = pool.acquire_map();
    let mut remote_ns: Vec<(usize, SimNanos)> = Vec::new();
    let warp = shards.shard(primary).device.spec().warp_size as usize;
    let candidates = loop {
        let t0 = Instant::now();
        let objects = &ex.objects;
        let (round, metered) = plan.sdist_round(shards, &mut ex.breakdown, |round| {
            MeteredSdist::run(warp, round, grid, config, q, objects, k, &mut dist)
        });
        let (s, legs) = metered.replay(shards, round, grid);
        remote_ns.extend(legs);
        let device = &mut shards.shard_mut(primary).device;
        let (candidates, firstk_time) = gpu_first_k(device, q, &dist, &ex.objects, &graph);
        ex.emulation += t0.elapsed();
        let b = &mut ex.breakdown;
        b.candidate += s.time + firstk_time;
        b.sdist_time += s.time;
        b.sdist_rounds += s.rounds;
        b.sdist_frontier_sum += s.frontier_sum;
        b.sdist_frontier_max = b.sdist_frontier_max.max(s.frontier_max);
        b.sdist_settled += s.settled;
        b.sdist_vertices += s.vertices;
        b.sdist_pruned += s.pruned;
        b.h2d_topo_bytes += s.h2d_topo_bytes;
        b.h2d_bytes += s.h2d_topo_bytes;
        b.topo_hits += s.topo_hits;
        b.topo_misses += s.topo_misses;
        b.h2d_coalesced_saved += s.h2d_coalesced_saved;

        let finite = candidates.iter().filter(|c| c.1 < INFINITY).count();
        if finite >= k.min(ex.objects.len()) {
            break candidates;
        }
        let ring = plan.advance();
        if ring.is_empty() {
            break candidates;
        }
        ex.clean(shards, ring);
    };
    let cells = plan.finish();
    let Executor {
        objects,
        mut breakdown,
        mut emulation,
        ..
    } = ex;
    breakdown.candidates = candidates.len();

    // Best estimate per object so far.
    let mut estimates: HashMap<ObjectId, Distance, FxBuildHasher> =
        HashMap::with_capacity_and_hasher(candidates.len(), FxBuildHasher::default());
    let mut positions: HashMap<ObjectId, EdgePosition, FxBuildHasher> =
        HashMap::with_capacity_and_hasher(candidates.len(), FxBuildHasher::default());
    for &(o, d, p) in &candidates {
        estimates.insert(o, d);
        positions.insert(o, p);
    }

    // l = distance of the k-th candidate (Definition 3).
    let l = kth_distance(&candidates, k);

    // ---- Step 3: unresolved vertices ----
    let all_covered = cells.len() == grid.num_cells();
    let unresolved: Vec<(VertexId, Distance)> = if all_covered || l >= INFINITY {
        Vec::new()
    } else {
        let t0 = Instant::now();
        let device = &mut shards.shard_mut(primary).device;
        let (u, t) = gpu_unresolved(device, grid, cells.tags(), cells.tagged(), &dist, l);
        emulation += t0.elapsed();
        breakdown.candidate += t;
        u
    };
    breakdown.unresolved = unresolved.len();
    // Hand the map back empty, inside the emulated bracket: a refinement
    // that borrows it next would otherwise clear SDist's entries on the
    // host clock.
    let t0 = Instant::now();
    dist.clear();
    emulation += t0.elapsed();
    pool.release_map(dist);

    // Copy the candidate set and unresolved set back to the host
    // (Algorithm 4 line 10 input).
    let out_bytes = candidates.len() as u64 * 16 + unresolved.len() as u64 * 12;
    if out_bytes > 0 {
        let device = &mut shards.shard_mut(primary).device;
        breakdown.transfer_out += device.d2h(out_bytes);
        breakdown.d2h_bytes += out_bytes;
    }

    let wall = cpu_start.elapsed();
    breakdown.cpu_ns += wall.saturating_sub(emulation).as_nanos() as u64;
    breakdown.emulation_ns += emulation.as_nanos() as u64;
    breakdown.kernel_launches += shards.total_launches() - launches0;

    PendingKnn {
        k,
        cells,
        objects,
        estimates,
        positions,
        l,
        unresolved,
        primary,
        remote_ns,
        breakdown,
    }
}

/// Step 4's searches (Algorithm 6) for a query past its device phase:
/// bounded Dijkstra expansion from its unresolved vertices over the full
/// graph, fanned out over `workers` workers (inline for one).
///
/// Each worker runs **one** shared search seeded at `(v, D[v])` for its
/// whole source group under `radius(l)`. The engine settles each vertex `u`
/// at `min_v(D[v] + dist_v(u))` — exactly the pointwise minimum of one
/// bounded search per unresolved vertex, because a search from `v` under
/// `radius(l − D[v])` settles `u` iff `D[v] + dist_v(u) ≤ l` (the same
/// absolute bound), and the min over sources is reached by a source
/// satisfying it. Shared shortest-path subtrees are settled once instead of
/// once per source; DESIGN.md §5.6 has the full argument.
///
/// Each worker's pooled engine scratch *is* its distance map, and worker
/// 0's scratch becomes `best_outer`, with no copy in between. That is
/// sound because under `radius(l)` every vertex the search writes is
/// settled: a vertex is written only when its distance is `≤ l` (every
/// seed has `D[v] < l`, Definition 3), and the search pops every heap
/// entry `≤ l` before it stops, so the map's finite entries are exactly
/// the settled set, at their final distances.
///
/// Pure CPU and side-effect free: it never touches the device or the
/// message lists, which is what lets a batch scheduler model it
/// overlapping another query's device phase. Determinism: worker 0's map
/// absorbs the other workers' entries by `min` (order-independent), and
/// `touched_cells` is recomputed from the merged map and sorted — so the
/// outcome is identical for every worker count, including 1.
pub(crate) fn refine_unresolved(
    grid: &GraphGrid,
    pending: &PendingKnn,
    workers: usize,
    pool: &ScratchPool,
) -> RefineOutcome {
    let (unresolved, l) = (&pending.unresolved[..], pending.l);
    if unresolved.is_empty() {
        return RefineOutcome::default();
    }
    let graph = grid.graph().clone();
    let t0 = Instant::now();

    let expand = |chunk: &[(VertexId, Distance)]| {
        // Pool bookkeeping sits outside the timed region: `busy_ns` is the
        // time workers spend *searching*, the quantity multi-source
        // refinement shrinks. Attaching pooled scratch is O(1) after the
        // first query, so nothing material is hidden from the clock. The
        // clock is per-thread CPU time, not wall time: preemption under
        // background load must not be charged to the search.
        let mut engine = DijkstraEngine::with_scratch(&graph, pool.acquire_map());
        let started = BusyClock::start();
        // Seed costs are the absolute `D[v]`, so settled values are already
        // absolute distances through some unresolved vertex.
        engine.run_seeded(chunk, SearchBounds::radius(l));
        let ns = started.elapsed_ns();
        let relaxed = engine.relaxed();
        let map = engine.into_scratch();
        debug_assert_eq!(
            map.entries().count(),
            map.settled().len(),
            "a radius search settles every vertex it writes"
        );
        (map, relaxed, ns)
    };

    // Deal vertices round-robin: adjacent unresolved vertices sit on the
    // same stretch of the region boundary and have correlated search radii,
    // so contiguous chunks would load one worker with all the heavy
    // expansions. Striding spreads them evenly; the min-merge makes the
    // partition irrelevant to the result. One worker searches the whole
    // slice in place.
    let workers = workers.max(1).min(unresolved.len());
    let mut partials = fan_out(workers, |w| {
        if workers == 1 {
            return expand(unresolved);
        }
        let stride = unresolved.iter().skip(w).step_by(workers);
        expand(&stride.copied().collect::<Vec<_>>())
    })
    .into_iter();
    let (mut best_outer, mut relaxed, first_ns) = partials.next().expect("at least one worker");
    let mut settled = best_outer.settled().len() as u64;
    let mut busy_ns = first_ns;
    let mut critical_ns = first_ns;
    for (map, worker_relaxed, worker_ns) in partials {
        busy_ns += worker_ns;
        critical_ns = critical_ns.max(worker_ns);
        settled += map.settled().len() as u64;
        relaxed += worker_relaxed;
        // min-merge is commutative and associative: the merged map is
        // identical for every worker count and merge order.
        best_outer.absorb(&map);
        pool.release_map(map);
    }

    let mut touched_cells: Vec<CellId> = best_outer
        .entries()
        .map(|(u, _)| grid.cell_of_vertex(u))
        .filter(|&c| !pending.cells.contains(c))
        .collect();
    touched_cells.sort_unstable();
    touched_cells.dedup();

    let wall_ns = t0.elapsed().as_nanos() as u64;
    busy_ns = busy_ns.max(1);
    critical_ns = critical_ns.max(1);
    RefineOutcome {
        best_outer: Some(best_outer),
        touched_cells,
        wall_ns: wall_ns.max(1),
        busy_ns,
        critical_ns,
        settled,
        relaxed,
    }
}

/// Close out a query: lazily clean the refinement-touched cells, improve
/// the estimates through the unresolved vertices, and select the answer.
pub(crate) fn knn_finalize(
    shards: &mut ShardSet,
    env: QueryEnv,
    now: Timestamp,
    pending: PendingKnn,
    refined: RefineOutcome,
    cache: Option<&CleanedObjects>,
) -> KnnResult {
    let PendingKnn {
        k,
        mut cells,
        objects,
        mut estimates,
        mut positions,
        unresolved,
        primary,
        breakdown,
        ..
    } = pending;
    let (graph, pool) = (env.grid.graph(), env.pool);
    let launches0 = shards.total_launches();
    let cpu_start = Instant::now();
    let mut ex = Executor::new(env, now, cache, primary, objects, breakdown);

    if !unresolved.is_empty() {
        let b = &mut ex.breakdown;
        b.refine_ns = refined.wall_ns;
        b.refine_busy_ns = refined.busy_ns;
        b.refine_critical_ns = refined.critical_ns;
        b.refine_settled = refined.settled;
        b.refine_relaxed = refined.relaxed;

        // Lazily clean the cells the refinement wandered into and add their
        // objects to the pool.
        for &c in &refined.touched_cells {
            cells.insert(c);
        }
        ex.clean(shards, &refined.touched_cells);
        for m in &ex.objects {
            if let Some(p) = m.position {
                positions.entry(m.object).or_insert(p);
            }
        }

        // Improve estimates through the unresolved vertices: a finite
        // entry is a vertex some search settled.
        if let Some(outer_map) = refined.best_outer.as_ref() {
            for (&o, &p) in positions.iter() {
                let src = graph.edge(p.edge).source;
                let outer = outer_map.distance(src);
                if outer < INFINITY {
                    let est = outer.saturating_add(p.from_source());
                    estimates
                        .entry(o)
                        .and_modify(|d| *d = (*d).min(est))
                        .or_insert(est);
                }
            }
        }
    }
    if let Some(s) = refined.best_outer {
        pool.release_map(s);
    }
    pool.release_cells(cells);
    let Executor {
        mut breakdown,
        emulation,
        ..
    } = ex;

    // ---- Final selection ----
    let mut final_items: Vec<(ObjectId, Distance)> = estimates
        .into_iter()
        .filter(|&(_, d)| d < INFINITY)
        .collect();
    final_items.sort_by_key(|&(o, d)| (d, o));
    final_items.truncate(k);

    let wall = cpu_start.elapsed();
    // Refinement wall time counts as CPU work (it did before the split).
    breakdown.cpu_ns += wall.saturating_sub(emulation).as_nanos() as u64 + breakdown.refine_ns;
    breakdown.emulation_ns += emulation.as_nanos() as u64;
    breakdown.kernel_launches += shards.total_launches() - launches0;

    KnnResult {
        items: final_items,
        breakdown,
    }
}

/// The next expansion ring, `neighbors(ring) \ L`, sorted and added to
/// the candidate set `L`. When `ring` is the ring added last this is the
/// whole frontier `neighbors(L) \ L`: every earlier ring's neighbours are
/// already members, so only the last ring needs scanning.
fn next_ring(grid: &GraphGrid, cells: &mut CellSet, ring: &[CellId]) -> Vec<CellId> {
    let mut out: Vec<CellId> = ring
        .iter()
        .flat_map(|&c| grid.neighbors(c).iter().copied())
        .filter(|&c| cells.insert(c))
        .collect();
    out.sort_unstable();
    out
}

/// Add the live-object tallies of `cells` to `bound` — a clean of a cell
/// yields at most that many live objects — and report whether it stays
/// below `target`. Counting stops as soon as it does not. Reads no cell
/// mutex.
fn stays_below(lists: &CellLists, cells: &[CellId], bound: &mut usize, target: usize) -> bool {
    for &c in cells {
        *bound += lists.live_objects(c);
        if *bound >= target {
            return false;
        }
    }
    true
}

/// Distance of the k-th nearest candidate, or `INFINITY` when fewer than k
/// candidates are reachable.
fn kth_distance(candidates: &[(ObjectId, Distance, EdgePosition)], k: usize) -> Distance {
    let mut ds: Vec<Distance> = candidates
        .iter()
        .map(|&(_, d, _)| d)
        .filter(|&d| d < INFINITY)
        .collect();
    if ds.len() < k {
        return INFINITY;
    }
    ds.sort_unstable();
    ds[k - 1]
}

/// Instrumentation of one `GPU_SDist` invocation.
#[derive(Clone, Copy, Debug, Default)]
pub struct SdistStats {
    /// Simulated time: topology upload + kernel.
    pub time: gpu_sim::SimNanos,
    /// Relaxation rounds executed.
    pub rounds: u64,
    /// Summed per-round frontier sizes.
    pub frontier_sum: u64,
    /// Largest single-round frontier.
    pub frontier_max: u64,
    /// Vertices whose final distance the kernel settled.
    pub settled: u64,
    /// Candidate vertices in the induced subgraph.
    pub vertices: u64,
    /// Touched-but-unsettled vertices abandoned by k-bounded pruning.
    pub pruned: u64,
    /// Topology bytes uploaded for this call.
    pub h2d_topo_bytes: u64,
    /// Candidate cells whose CSR slice was already resident.
    pub topo_hits: usize,
    /// Candidate cells whose CSR slice had to be uploaded.
    pub topo_misses: usize,
    /// PCIe transactions avoided by coalescing the round's topology misses
    /// into one staged transfer.
    pub h2d_coalesced_saved: u64,
}

/// One planned SDist round: the candidate cells and where their work runs.
#[derive(Clone, Copy, Debug)]
pub struct SdistRound<'a> {
    /// Candidate-set membership, indexed by `CellId::index()`.
    pub in_set: &'a [bool],
    /// The candidate cells.
    pub set: &'a [CellId],
    /// The device that launches the kernel and pays its coordination.
    pub primary: usize,
    /// Effective owner per cell, indexed by `CellId::index()`, when the
    /// round scatters over its owners; `None` runs all of it on `primary`.
    pub owners: Option<&'a [u8]>,
}

impl SdistRound<'_> {
    /// The device that runs `c`'s share of the round.
    fn owner(&self, c: CellId) -> usize {
        self.owners.map_or(self.primary, |o| o[c.index()] as usize)
    }
}

/// Algorithm 5 `GPU_SDist` in one call: shortest distances over the
/// subgraph induced by the round's candidate cells, landing in `scratch`
/// (cleared here), metered once and replayed on the round's placement. The
/// query pipeline runs the two halves apart, so its planner can price both
/// placements in between; tests run them together.
///
/// Runs as near–far (two-bucket delta-stepping) SSSP over the candidate
/// cells' resident CSR slices. Only active vertices relax their out-edges;
/// each bucket phase drains the near pile to a fixpoint — sealing every
/// vertex whose final distance is below the bucket threshold — then feeds
/// the sealed vertices' objects into a running k-th candidate bound and
/// stops as soon as every remaining tentative distance exceeds it (k-bounded
/// pruning; `k = 0` disables it and computes the full induced fixpoint). The
/// result is the fixed point the paper's parallel Bellman–Ford reaches; the
/// exactness argument is in DESIGN.md §5.3.
#[cfg(test)]
#[allow(clippy::too_many_arguments)]
fn gpu_sdist_frontier(
    shards: &mut ShardSet,
    round: SdistRound,
    grid: &GraphGrid,
    config: &GGridConfig,
    q: EdgePosition,
    objects: &[CachedMessage],
    k: usize,
    scratch: &mut DijkstraScratch,
) -> (SdistStats, Vec<(usize, SimNanos)>) {
    let warp = shards.shard(round.primary).device.spec().warp_size as usize;
    MeteredSdist::run(warp, round, grid, config, q, objects, k, scratch).replay(shards, round, grid)
}

/// A frontier SDist round run once on the host under a detached metering
/// context, before any device is charged: the kernel's counters, its whole
/// op profile, and, when the round names owners, each owner's per-vertex
/// op slice and hosted vertices. The relaxation runs on the shared
/// host-side scratch, so the distances (and the answers) do not depend on
/// the placement; only the cost attribution does.
struct MeteredSdist {
    stats: SdistStats,
    ops: OpCounts,
    slices: [OpCounts; MAX_DEVICES],
    /// Candidate vertices per owner (all on the primary without owners).
    threads: [usize; MAX_DEVICES],
}

impl MeteredSdist {
    /// Meter the kernel over `round`'s candidate cells on a context of
    /// `warp`-wide warps, tallying each per-vertex charge site against the
    /// owner of the vertex's cell when the round names owners.
    #[allow(clippy::too_many_arguments)]
    fn run(
        warp: usize,
        round: SdistRound,
        grid: &GraphGrid,
        config: &GGridConfig,
        q: EdgePosition,
        objects: &[CachedMessage],
        k: usize,
        scratch: &mut DijkstraScratch,
    ) -> Self {
        let mut stats = SdistStats::default();
        let mut threads = [0usize; MAX_DEVICES];
        for &c in round.set {
            threads[round.owner(c)] += grid.topology(c).num_vertices();
        }
        let total_vertices: usize = threads.iter().sum();
        stats.vertices = total_vertices as u64;
        let in_set = round.in_set;
        let prelude = FrontierPrelude::new(grid, config, in_set, q, grid.graph(), objects, scratch);
        let mut ctx = gpu_sim::KernelCtx::detached(warp, total_vertices.max(1));
        let mut slices = [OpCounts::default(); MAX_DEVICES];
        let mut scatter =
            |v: VertexId, ops: OpCounts| slices[round.owner(grid.cell_of_vertex(v))].add(&ops);
        let mut local = |_: VertexId, _: OpCounts| {};
        let tally: &mut dyn FnMut(VertexId, OpCounts) = if round.owners.is_some() {
            &mut scatter
        } else {
            &mut local
        };
        frontier_relax_body(
            &mut ctx, grid, in_set, &prelude, k, scratch, &mut stats, tally,
        );
        Self {
            stats,
            ops: *ctx.ops(),
            slices,
            threads,
        }
    }

    /// The launches of the metered kernel on a placement: the primary's
    /// op profile and each remote owner's `(device, threads, ops)`.
    ///
    /// Scattered, the per-vertex tallies cover relax and object-bound
    /// work; the metered residual (near/far compaction, reductions,
    /// frontier bookkeeping) is data-parallel over the whole frontier, so
    /// the cooperative launch splits it across the participants in
    /// proportion to the vertices each hosts, the primary keeping the rest
    /// (the coordination that in a real deployment rides the host-side
    /// min-merge of the per-shard frontiers). Barriers are the exception:
    /// every sub-kernel runs the same rounds, so each participant pays the
    /// full sync count. A primary-only round is one launch of the whole
    /// profile, priced exactly as a direct launch of the body.
    fn launches(&self, primary: usize, scatter: bool) -> (OpCounts, Vec<(usize, usize, OpCounts)>) {
        if !scatter {
            return (self.ops, Vec::new());
        }
        let total_vertices = self.stats.vertices.max(1);
        let mut remote_total = OpCounts::default();
        let mut groups: Vec<(usize, usize, OpCounts)> = Vec::new();
        for (d, slice) in self.slices.iter().enumerate() {
            if d == primary || !slice.any() {
                continue;
            }
            remote_total.add(slice);
            groups.push((d, self.threads[d].max(1), *slice));
        }
        let residual = self.ops.saturating_sub(&remote_total);
        let mut primary_ops = residual;
        for (_, threads, ops) in &mut groups {
            let mut share = residual.scaled(*threads as u64, total_vertices);
            primary_ops = primary_ops.saturating_sub(&share);
            share.syncs = residual.syncs;
            ops.add(&share);
        }
        primary_ops.syncs = residual.syncs;
        (primary_ops, groups)
    }

    /// Modeled `(critical path, work)` of running the metered kernel on
    /// `round`'s placement, charging nothing: each participant's topology
    /// staging (the slices its [`crate::residency::TopologyStore`] does not
    /// hold, in one transfer) plus its launch, through the device's
    /// [`gpu_sim::CostModel::launch_time`]. The critical path is the
    /// slowest participant; the work is their sum.
    fn price(
        &self,
        shards: &ShardSet,
        grid: &GraphGrid,
        round: SdistRound,
    ) -> (SimNanos, SimNanos) {
        let mut missed: [Option<u64>; MAX_DEVICES] = [None; MAX_DEVICES];
        for &c in round.set {
            let d = round.owner(c);
            if !shards.shard(d).topo.contains(c) {
                *missed[d].get_or_insert(0) += grid.topology(c).bytes();
            }
        }
        let mut busy = [SimNanos::ZERO; MAX_DEVICES];
        for (d, bytes) in missed.iter().enumerate() {
            if let Some(bytes) = *bytes {
                busy[d] += gpu_sim::xfer::transfer_time(shards.shard(d).device.spec(), bytes);
            }
        }
        let launch = |d: usize, threads: usize, ops: &OpCounts| {
            let device = &shards.shard(d).device;
            device.cost_model().launch_time(device.spec(), threads, ops)
        };
        let (primary_ops, groups) = self.launches(round.primary, round.owners.is_some());
        for (d, threads, ops) in &groups {
            busy[*d] += launch(*d, *threads, ops);
        }
        let threads = self.stats.vertices as usize;
        busy[round.primary] += launch(round.primary, threads.max(1), &primary_ops);
        let critical = busy.iter().copied().max().unwrap_or(SimNanos::ZERO);
        (critical, busy.iter().copied().sum())
    }

    /// Charge the metered kernel on `round`'s placement, which must be the
    /// one it was metered under or primary-only. Each participating device
    /// stages its own cells' CSR slices (a hot slice is already on the card
    /// and skips the upload; a device's misses ride one staged transfer, a
    /// single PCIe latency) and runs its launch; the remote launches are
    /// concurrent sub-kernels. The round's modeled time is the slowest
    /// participant's, and the remote legs come back as `(shard, time)` so a
    /// batch scheduler can place them on their devices' streams.
    fn replay(
        self,
        shards: &mut ShardSet,
        round: SdistRound,
        grid: &GraphGrid,
    ) -> (SdistStats, Vec<(usize, SimNanos)>) {
        let mut stats = self.stats;
        let num_shards = shards.num_shards();
        let mut device_ns = vec![SimNanos::ZERO; num_shards];
        let mut holds = [false; MAX_DEVICES];
        for &c in round.set {
            holds[round.owner(c)] = true;
        }
        for d in (0..num_shards).filter(|&d| holds[d]) {
            let (device, _, topo) = shards.parts(d);
            let slice = round.set.iter().filter(|&&c| round.owner(c) == d);
            let staged = topo.stage(device, slice.map(|&c| (c, grid.topology(c).bytes())));
            stats.topo_hits += staged.hits as usize;
            stats.topo_misses += staged.misses as usize;
            stats.h2d_topo_bytes += staged.bytes;
            stats.h2d_coalesced_saved += staged.transactions_saved;
            device_ns[d] += staged.time;
        }
        let (primary_ops, groups) = self.launches(round.primary, round.owners.is_some());
        for (d, t) in shards.launch_scattered(&groups) {
            device_ns[d] += t;
        }
        let threads = self.stats.vertices as usize;
        let report = shards
            .shard_mut(round.primary)
            .device
            .launch_ops(threads.max(1), primary_ops);
        device_ns[round.primary] += report.time;

        let legs: Vec<(usize, SimNanos)> = device_ns
            .iter()
            .enumerate()
            .filter(|&(d, t)| d != round.primary && *t > SimNanos::ZERO)
            .map(|(d, &t)| (d, t))
            .collect();
        stats.time += device_ns.iter().copied().max().unwrap_or(SimNanos::ZERO);
        (stats, legs)
    }
}

/// What the frontier kernel derives from the query before relaxing: the
/// bucket width δ, the live objects per source vertex, and the seed at the
/// query edge's destination.
struct FrontierPrelude {
    delta: u64,
    /// Live objects per source vertex, for the running k-th candidate
    /// bound. The bound deliberately ignores `object_distance`'s same-edge
    /// shortcut, so it over-estimates the true l and never over-prunes.
    objects_at: HashMap<VertexId, Vec<Distance>, FxBuildHasher>,
    q_dest: VertexId,
    /// Whether `q_dest`'s cell made the candidate set — the only way off
    /// the query edge.
    seeded: bool,
}

impl FrontierPrelude {
    /// Build the prelude, clearing `scratch` and seeding it at `q_dest`.
    fn new(
        grid: &GraphGrid,
        config: &GGridConfig,
        in_set: &[bool],
        q: EdgePosition,
        graph: &roadnet::Graph,
        objects: &[CachedMessage],
        scratch: &mut DijkstraScratch,
    ) -> Self {
        let delta = if config.sdist_delta > 0 {
            config.sdist_delta as u64
        } else {
            grid.mean_edge_weight()
        }
        .max(1);
        let mut objects_at: HashMap<VertexId, Vec<Distance>, FxBuildHasher> =
            HashMap::with_hasher(FxBuildHasher::default());
        for m in objects {
            if let Some(p) = m.position {
                objects_at
                    .entry(graph.edge(p.edge).source)
                    .or_default()
                    .push(p.from_source());
            }
        }
        scratch.clear();
        let q_dest = graph.edge(q.edge).dest;
        let seeded = in_set[grid.cell_of_vertex(q_dest).index()];
        if seeded {
            scratch.lower(q_dest, q.to_dest(graph));
        }
        Self {
            delta,
            objects_at,
            q_dest,
            seeded,
        }
    }
}

/// The near–far relaxation of `GPU_SDist` (see [`MeteredSdist::run`]).
/// Every per-vertex charge site reports the same op slice through `tally`,
/// keyed by the vertex whose owning device should pay for it; collectives,
/// barriers, and far-pile compaction charge only `ctx` — they are
/// coordination work, left in the residual a scattered round bills to the
/// primary device. Round, frontier, settled and pruned counts accumulate
/// into `stats`.
#[allow(clippy::too_many_arguments)]
fn frontier_relax_body(
    ctx: &mut gpu_sim::KernelCtx,
    grid: &GraphGrid,
    in_set: &[bool],
    prelude: &FrontierPrelude,
    k: usize,
    scratch: &mut DijkstraScratch,
    stats: &mut SdistStats,
    tally: &mut dyn FnMut(VertexId, OpCounts),
) {
    let FrontierPrelude {
        delta,
        ref objects_at,
        q_dest,
        seeded,
    } = *prelude;
    // Running k-bound: max-heap of the k smallest evaluated
    // candidate distances; its top is the bound l_run ≥ l.
    let mut k_heap = std::collections::BinaryHeap::new();

    if seeded {
        let d0 = scratch.distance(q_dest);
        let mut cur_threshold = (d0 / delta + 1) * delta;
        let mut near: Vec<VertexId> = vec![q_dest];
        let mut far: Vec<VertexId> = Vec::new();
        loop {
            // ---- drain the near pile at this threshold ----
            let mut sealed_phase: Vec<VertexId> = Vec::new();
            while !near.is_empty() {
                stats.rounds += 1;
                stats.frontier_sum += near.len() as u64;
                stats.frontier_max = stats.frontier_max.max(near.len() as u64);
                let mut next_near: Vec<VertexId> = Vec::new();
                for &v in &near {
                    sealed_phase.push(v);
                    let t = grid.topology(grid.cell_of_vertex(v));
                    let slot = grid.topo_slot_of(v);
                    let deg = t.out_degree_of(slot) as u64;
                    ctx.charge_alu_one(2 + 3 * deg);
                    ctx.charge_read(8 + 12 * deg);
                    tally(
                        v,
                        OpCounts {
                            alu: 2 + 3 * deg,
                            global_read_bytes: 8 + 12 * deg,
                            ..Default::default()
                        },
                    );
                    let dv = scratch.distance(v);
                    for (dest, dest_cell, w) in t.out_edges_of(slot) {
                        if !in_set[dest_cell as usize] {
                            continue; // induced subgraph only
                        }
                        let nd = dv.saturating_add(w as Distance);
                        if scratch.lower(dest, nd) {
                            ctx.charge_write(8);
                            tally(
                                dest,
                                OpCounts {
                                    global_write_bytes: 8,
                                    ..Default::default()
                                },
                            );
                            if nd < cur_threshold {
                                next_near.push(dest);
                            } else {
                                far.push(dest);
                            }
                        }
                    }
                }
                ctx.sync_threads();
                next_near.sort_unstable_by_key(|v| v.0);
                next_near.dedup();
                near = next_near;
            }

            // ---- seal the phase; sealed distances are final, so
            // their objects' candidate distances are valid bound
            // food. Sealed sets of different phases are disjoint,
            // so no object is ever counted twice. ----
            sealed_phase.sort_unstable_by_key(|v| v.0);
            sealed_phase.dedup();
            stats.settled += sealed_phase.len() as u64;
            for &v in &sealed_phase {
                if let Some(list) = objects_at.get(&v) {
                    ctx.charge_alu_one(2 * list.len() as u64);
                    ctx.charge_read(16 * list.len() as u64);
                    tally(
                        v,
                        OpCounts {
                            alu: 2 * list.len() as u64,
                            global_read_bytes: 16 * list.len() as u64,
                            ..Default::default()
                        },
                    );
                    let dv = scratch.distance(v);
                    for &fs in list {
                        let cd = dv.saturating_add(fs);
                        if k_heap.len() < k {
                            k_heap.push(cd);
                        } else if let Some(mut worst) = k_heap.peek_mut() {
                            if cd < *worst {
                                *worst = cd;
                            }
                        }
                    }
                }
            }
            let l_run = if k > 0 && k_heap.len() >= k {
                k_heap.peek().copied().unwrap_or(INFINITY)
            } else {
                INFINITY
            };

            // ---- compact the far pile: leftovers now below the
            // threshold were sealed above and drop out; the rest
            // are exactly the touched-but-unsettled vertices. ----
            far.sort_unstable_by_key(|v| v.0);
            far.dedup();
            ctx.charge_alu_one(far.len() as u64);
            let (kept, _) = gpu_sim::collective::partition_by(ctx, &far, |&v| {
                scratch.distance(v) >= cur_threshold
            });
            far = kept;
            if far.is_empty() {
                break;
            }
            let min_far = gpu_sim::collective::reduce(
                ctx,
                far.iter().map(|&v| scratch.distance(v)).collect(),
                |a, b: Distance| a.min(b),
            )
            .unwrap_or(INFINITY);

            // k-bounded pruning: `min_far` equals the smallest
            // *final* distance among unsettled vertices, so once it
            // exceeds the k-th candidate bound no remaining vertex
            // can host a top-k object.
            if min_far > l_run {
                stats.pruned += far.len() as u64;
                break;
            }

            cur_threshold = (min_far / delta + 1) * delta;
            let (n2, f2) = gpu_sim::collective::partition_by(ctx, &far, |&v| {
                scratch.distance(v) < cur_threshold
            });
            near = n2;
            far = f2;
        }
    }
}

/// Distance from the query to an object position given the induced vertex
/// distances, including the along-the-edge shortcut when both share an edge.
fn object_distance(
    q: EdgePosition,
    p: EdgePosition,
    dist: &DijkstraScratch,
    graph: &roadnet::Graph,
) -> Distance {
    let src = graph.edge(p.edge).source;
    let via = dist.distance(src).saturating_add(p.from_source());
    if p.edge == q.edge && p.offset >= q.offset {
        via.min((p.offset - q.offset) as Distance)
    } else {
        via
    }
}

/// `GPU_First_k`: per-object distance computation and parallel selection.
/// Returns every candidate `(object, distance, position)` sorted ascending
/// by `(distance, object)`.
fn gpu_first_k(
    device: &mut Device,
    q: EdgePosition,
    dist: &DijkstraScratch,
    objects: &[CachedMessage],
    graph: &roadnet::Graph,
) -> (Vec<(ObjectId, Distance, EdgePosition)>, gpu_sim::SimNanos) {
    let live: Vec<(ObjectId, EdgePosition)> = objects
        .iter()
        .filter_map(|m| m.position.map(|p| (m.object, p)))
        .collect();
    let n = live.len();
    type SortKey = (Distance, u64, u32, u32);
    const SENTINEL: SortKey = (u64::MAX, u64::MAX, u32::MAX, u32::MAX);
    let (scored, report) = device.launch(n.max(1), |ctx| {
        // One thread per object: distance = D[source(o.e)] + o.d.
        ctx.charge_alu_all(6);
        ctx.charge_read(32 * n as u64);
        let keys: Vec<SortKey> = live
            .iter()
            .map(|&(o, p)| (object_distance(q, p, dist, graph), o.0, p.edge.0, p.offset))
            .collect();
        // Parallel bitonic sort on the device (the paper's O(log ρk)
        // parallel selection); comparisons are charged by the network.
        let sorted = gpu_sim::collective::bitonic_sort(ctx, keys, SENTINEL);
        ctx.charge_write(16 * n as u64);
        sorted
            .into_iter()
            .map(|(d, o, e, off)| (ObjectId(o), d, EdgePosition::new(roadnet::EdgeId(e), off)))
            .collect::<Vec<_>>()
    });
    (scored, report.time)
}

/// `GPU_Unresolved`: boundary vertices of the candidate region closer to
/// the query than the k-th candidate (Definition 3). A vertex is on the
/// boundary when one of its out-edges leaves the region; each thread
/// performs the O(out-degree) boolean check against the cell's CSR slice,
/// whose out-records carry the destination cell — no host graph probe.
fn gpu_unresolved(
    device: &mut Device,
    grid: &GraphGrid,
    in_set: &[bool],
    set: &[CellId],
    dist: &DijkstraScratch,
    l: Distance,
) -> (Vec<(VertexId, Distance)>, gpu_sim::SimNanos) {
    let total_vertices: usize = set.iter().map(|&c| grid.topology(c).num_vertices()).sum();
    let (out, report) = device.launch(total_vertices.max(1), |ctx| {
        let mut found = Vec::new();
        for &c in set {
            let t = grid.topology(c);
            for slot in 0..t.num_vertices() {
                let v = t.verts[slot];
                let deg = t.out_degree_of(slot) as u64;
                ctx.charge_alu_one(1 + deg);
                ctx.charge_read(8 + 12 * deg);
                let dv = dist.distance(v);
                if dv >= l {
                    continue;
                }
                let on_boundary = t
                    .out_edges_of(slot)
                    .any(|(_, dest_cell, _)| !in_set[dest_cell as usize]);
                if on_boundary {
                    found.push((v, dv));
                }
            }
        }
        found
    });
    (out, report.time)
}

#[cfg(test)]
pub(crate) mod golden;

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;
    use roadnet::gen;
    use roadnet::EdgeId;
    use std::sync::Arc;

    fn setup(seed: u64) -> (Arc<GraphGrid>, CellLists, Device, GGridConfig) {
        let graph = Arc::new(gen::toy(seed));
        let config = GGridConfig {
            eta: 4,
            bucket_capacity: 8,
            ..Default::default()
        };
        let grid = Arc::new(GraphGrid::build(
            graph,
            config.cell_capacity,
            config.vertex_capacity,
        ));
        let lists = CellLists::new(grid.num_cells(), config.bucket_capacity);
        (grid, lists, Device::new(DeviceSpec::test_tiny()), config)
    }

    /// A round over `set` run on device 0 alone.
    fn on_primary<'a>(in_set: &'a [bool], set: &'a [CellId]) -> SdistRound<'a> {
        SdistRound {
            in_set,
            set,
            primary: 0,
            owners: None,
        }
    }

    /// The full induced-subgraph fixed point: `gpu_sdist_frontier` with
    /// pruning disabled (`k = 0`) on a cold device.
    fn induced_sdist(
        grid: &GraphGrid,
        in_set: &[bool],
        set: &[CellId],
        q: EdgePosition,
        dist: &mut DijkstraScratch,
    ) -> SdistStats {
        let config = GGridConfig::default();
        let device = Device::new(DeviceSpec::test_tiny());
        let mut shards = ShardSet::single(device, &config, grid.num_cells());
        let round = on_primary(in_set, set);
        gpu_sdist_frontier(&mut shards, round, grid, &config, q, &[], 0, dist).0
    }

    /// Place each of `objects` (new objects, one update each) in its cell:
    /// its message, and its move in the live-object tally.
    fn place(grid: &GraphGrid, lists: &CellLists, objects: &[(u64, EdgePosition)], t: u64) {
        for &(o, p) in objects {
            let cell = grid.cell_of_edge(p.edge);
            lists.track_move(None, cell);
            lists
                .lock(cell.index())
                .append(CachedMessage::update(ObjectId(o), p, Timestamp(t)));
        }
    }

    /// The refinement fixture: the toy query leaves no unresolved vertex
    /// at all, so seed twelve spread over the graph under l = 40, enough
    /// for every worker count below to have work to split.
    fn refine_fixture() -> (Arc<GraphGrid>, ScratchPool, PendingKnn) {
        let (grid, lists, device, config) = setup(7);
        let objects: Vec<(u64, EdgePosition)> = (0..10u64)
            .map(|o| (o, EdgePosition::at_source(EdgeId((o * 37 % 160) as u32))))
            .collect();
        place(&grid, &lists, &objects, 100);
        let mut shards = ShardSet::single(device, &config, grid.num_cells());
        let pool = ScratchPool::new(grid.graph().num_vertices());
        let env = QueryEnv::new(&grid, &lists, &pool, &config);
        let q = EdgePosition::at_source(EdgeId(2));
        let mut pending = knn_device_phase(&mut shards, env, q, 4, Timestamp(200), None);
        pending.l = 40;
        pending.unresolved = (0..12u32)
            .map(|i| (VertexId(i * 5), (i % 4) as Distance * 6))
            .collect();
        (grid, pool, pending)
    }

    #[test]
    fn frontier_expands_and_respects_set() {
        let (grid, ..) = setup(3);
        let start = grid.cell_of_edge(EdgeId(0));
        let mut cells = CellSet::new(grid.num_cells(), false);
        cells.insert(start);
        let frontier = next_ring(&grid, &mut cells, &[start]);
        assert!(!frontier.is_empty());
        assert!(!frontier.contains(&start));
        // Sorted, deduplicated, and added to the set.
        let mut sorted = frontier.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(frontier, sorted);
        assert_eq!(&cells.tagged()[1..], &frontier[..]);
        // The ring after it never re-visits a member.
        let second = next_ring(&grid, &mut cells, &frontier);
        assert!(second.iter().all(|c| *c != start && !frontier.contains(c)));
    }

    #[test]
    fn sparse_rings_merge_into_one_cleaning_round() {
        let (grid, lists, device, config) = setup(5);
        let graph = grid.graph().clone();
        // One object on every fourth edge: the rings around the query hold
        // fewer than ⌈ρk⌉ messages, so several must be expanded.
        let objects: Vec<(u64, EdgePosition)> = (0..graph.num_edges() as u32)
            .step_by(4)
            .map(|e| (e as u64, EdgePosition::at_source(EdgeId(e))))
            .collect();
        place(&grid, &lists, &objects, 100);
        let q = EdgePosition::at_source(EdgeId(0));
        let k = 8;
        let target = ((config.rho * k as f64).ceil() as usize).max(k);

        // Ring-by-ring expansion from `grid.neighbors`, stopping once ρ·k
        // objects are known. Every object is placed once, fresh, so a
        // cell yields exactly as many live objects as it holds messages.
        let live = |cells: &[CellId]| -> usize {
            cells
                .iter()
                .map(|c| lists.lock(c.index()).total_messages())
                .sum()
        };
        let c_q = grid.cell_of_edge(q.edge);
        let mut expected = vec![c_q];
        expected.extend(grid.neighbors(c_q).iter().filter(|&&c| c != c_q));
        let mut known = live(&expected);
        let mut rings = 1;
        while known < target {
            let mut frontier: Vec<CellId> = expected
                .iter()
                .flat_map(|&c| grid.neighbors(c).iter().copied())
                .filter(|c| !expected.contains(c))
                .collect();
            frontier.sort_unstable();
            frontier.dedup();
            if frontier.is_empty() {
                break;
            }
            known += live(&frontier);
            expected.extend_from_slice(&frontier);
            rings += 1;
        }
        assert!(rings >= 3, "fixture must expand several rings, got {rings}");

        let mut shards = ShardSet::single(device, &config, grid.num_cells());
        let pool = ScratchPool::new(graph.num_vertices());
        let env = QueryEnv::new(&grid, &lists, &pool, &config);
        let d2h = |shards: &ShardSet| shards.shard(0).device.ledger().d2h_transfers;
        let before = d2h(&shards);
        let pending = knn_device_phase(&mut shards, env, q, k, Timestamp(200), None);
        // One copy-back carries the candidates and unresolved vertices;
        // every other D2H is a cleaning round's.
        let cleaning_d2h = d2h(&shards) - before - 1;
        assert!(
            cleaning_d2h < rings,
            "{cleaning_d2h} cleaning copy-backs for {rings} rings"
        );
        let mut got = pending.cells.tagged().to_vec();
        got.sort_unstable();
        expected.sort_unstable();
        assert_eq!(got, expected, "merged rounds must clean the same cells");

        let refined = refine_unresolved(&grid, &pending, 1, &pool);
        let result = knn_finalize(&mut shards, env, Timestamp(200), pending, refined, None);
        let want = roadnet::dijkstra::reference_knn(&graph, q, &objects, k);
        let got_d: Vec<u64> = result.items.iter().map(|&(_, d)| d).collect();
        let want_d: Vec<u64> = want.iter().map(|&(_, d)| d).collect();
        assert_eq!(got_d, want_d);
    }

    /// What planning and running one SDist round did.
    struct Placed {
        /// Each candidate cell's device in the placement; `None` when the
        /// round ran on the primary alone.
        scattered: Option<Vec<(CellId, usize)>>,
        /// Each candidate cell's effective owner (only when `D > 1`).
        effective: Vec<(CellId, usize)>,
        /// The devices the round launched on.
        launched: Vec<usize>,
        b: QueryBreakdown,
    }

    /// Plan a 4-query at edge `e` with no objects known, add up to `rings`
    /// rings of candidates, then place and run its SDist round.
    fn place_round(env: QueryEnv, shards: &mut ShardSet, e: u32, rings: usize) -> Placed {
        let q = EdgePosition::at_source(EdgeId(e));
        let mut plan = QueryPlan::new(env, shards, q, 4);
        for _ in 0..rings {
            if plan.advance().is_empty() {
                break;
            }
        }
        let launches = |shards: &ShardSet| -> Vec<u64> {
            let devices = 0..shards.num_shards();
            devices.map(|d| shards.shard(d).device.launches()).collect()
        };
        let before = launches(shards);
        let mut b = QueryBreakdown::default();
        let mut dist = DijkstraScratch::with_capacity(env.grid.graph().num_vertices());
        let warp = shards.shard(plan.primary).device.spec().warp_size as usize;
        let (round, metered) = plan.sdist_round(shards, &mut b, |round| {
            MeteredSdist::run(warp, round, env.grid, env.config, q, &[], 4, &mut dist)
        });
        let scattered = round.owners.map(|o| {
            let owner = |&c: &CellId| (c, o[c.index()] as usize);
            round.set.iter().map(owner).collect()
        });
        metered.replay(shards, round, env.grid);
        let after = launches(shards);
        let launched = (0..after.len()).filter(|&d| after[d] > before[d]).collect();
        let effective = match &plan.owners {
            Some(o) => {
                let owner = |&c: &CellId| (c, o.tags()[c.index()] as usize);
                plan.cells.tagged().iter().map(owner).collect()
            }
            None => Vec::new(),
        };
        plan.finish();
        Placed {
            scattered,
            effective,
            launched,
            b,
        }
    }

    /// Four devices over `grid`, and the first edge whose first ring spans
    /// `wanted(span)` of them.
    fn four_devices(grid: &GraphGrid, wanted: fn(usize) -> bool) -> (GGridConfig, ShardSet, u32) {
        let config = GGridConfig {
            num_devices: 4,
            ..setup(5).3
        };
        let shards = ShardSet::new(grid, &config, Device::new(DeviceSpec::test_tiny()));
        let span = |e: u32| {
            let mut owners: Vec<usize> = first_ring(grid, grid.cell_of_edge(EdgeId(e)))
                .map(|c| shards.owner_of(c))
                .collect();
            owners.sort_unstable();
            owners.dedup();
            owners.len()
        };
        let e = (0..grid.graph().num_edges() as u32)
            .find(|&e| wanted(span(e)))
            .expect("fixture has such a query");
        (config, shards, e)
    }

    #[test]
    fn a_round_scatters_only_when_it_pays() {
        let (grid, lists, device, config) = setup(5);
        let pool = ScratchPool::new(grid.graph().num_vertices());
        let mut one = ShardSet::single(device, &config, grid.num_cells());
        let env = QueryEnv::new(&grid, &lists, &pool, &config);
        let p = place_round(env, &mut one, 0, 1);
        assert!(p.scattered.is_none() && p.b.ring_span == 0, "D = 1");

        let (four, mut shards, local) = four_devices(&grid, |span| span == 1);
        let env = QueryEnv::new(&grid, &lists, &pool, &four);
        let p = place_round(env, &mut shards, local, 1);
        assert!(
            p.scattered.is_none() && p.b.ring_span == 1,
            "all on the primary"
        );

        // A first ring over several devices is a few cells: another
        // device's staging latency and launch cost more than its share of
        // the relaxation saves, so the round stays on the primary.
        let (four, mut shards, cross) = four_devices(&grid, |span| span > 1);
        let env = QueryEnv::new(&grid, &lists, &pool, &four);
        let primary = shards.owner_of(grid.cell_of_edge(EdgeId(cross)));
        let p = place_round(env, &mut shards, cross, 1);
        assert!(p.scattered.is_none(), "a light round runs on the primary");
        assert_eq!(p.launched, vec![primary]);
        assert!(p.b.ring_span > 1 && p.b.cross_shard_rounds == 0);

        // The whole of a larger city: the relaxation outweighs the staging
        // and the extra launches, so the round scatters over its owners.
        let city = Arc::new(GraphGrid::build(
            Arc::new(gen::grid_city(&gen::GridCityParams {
                rows: 40,
                cols: 40,
                edge_ratio: 2.5,
                weight_range: (1, 20),
                seed: 5,
            })),
            config.cell_capacity,
            config.vertex_capacity,
        ));
        let city_lists = CellLists::new(city.num_cells(), config.bucket_capacity);
        let pool = ScratchPool::new(city.graph().num_vertices());
        let (four, mut shards, cross) = four_devices(&city, |span| span > 1);
        let env = QueryEnv::new(&city, &city_lists, &pool, &four);
        let p = place_round(env, &mut shards, cross, usize::MAX);
        let scattered = p.scattered.expect("a heavy round scatters");
        assert!(scattered.iter().all(|&(c, d)| d == shards.owner_of(c)));
        let mut owners: Vec<usize> = scattered.iter().map(|&(_, d)| d).collect();
        owners.sort_unstable();
        owners.dedup();
        assert_eq!(
            p.launched, owners,
            "one launch on each owner, none elsewhere"
        );
        assert!(p.b.ring_span == 4 && p.b.cross_shard_rounds == 1);

        // With cooperative SDist off, not even a heavy round scatters.
        let baseline = GGridConfig {
            cross_shard_sdist: false,
            ..four
        };
        let env = QueryEnv::new(&city, &city_lists, &pool, &baseline);
        let primary = shards.owner_of(city.cell_of_edge(EdgeId(cross)));
        let p = place_round(env, &mut shards, cross, usize::MAX);
        assert!(p.scattered.is_none() && p.launched == vec![primary]);
        assert!(p.b.ring_span == 4 && p.b.cross_shard_rounds == 0);
    }

    #[test]
    fn replica_on_the_primary_counts_as_primary_owned() {
        let (grid, lists, ..) = setup(5);
        let pool = ScratchPool::new(grid.graph().num_vertices());
        let (four, mut shards, e) = four_devices(&grid, |span| span > 1);
        let env = QueryEnv::new(&grid, &lists, &pool, &four);
        let c_q = grid.cell_of_edge(EdgeId(e));
        let primary = shards.owner_of(c_q);
        let remote = first_ring(&grid, c_q)
            .find(|&c| shards.owner_of(c) != primary)
            .unwrap();
        // Consolidate one object in the remote cell.
        let on = (0..grid.graph().num_edges() as u32)
            .find(|&e| grid.cell_of_edge(EdgeId(e)) == remote)
            .unwrap();
        place(
            &grid,
            &lists,
            &[(1, EdgePosition::at_source(EdgeId(on)))],
            100,
        );
        let (cleaned, _) = shards.clean_cells(&lists, &[remote], &four, Timestamp(100));
        let remote_owner =
            |owners: Vec<(CellId, usize)>| owners.iter().find(|o| o.0 == remote).unwrap().1;

        let p = place_round(env, &mut shards, e, 1);
        assert_eq!(remote_owner(p.effective), shards.owner_of(remote));
        assert_eq!(p.b.replica_hits, 0);

        let epoch = lists.lock(remote.index()).cleaned_epoch().unwrap();
        let promote = [(remote, epoch, &cleaned[remote])];
        assert!(shards.promote_replicas_coalesced(primary, &promote).bytes > 0);
        let p = place_round(env, &mut shards, e, 1);
        assert_eq!(p.b.replica_hits, 1);
        assert_eq!(remote_owner(p.effective), primary);
    }

    #[test]
    fn a_round_promotes_its_replicas_in_one_transfer() {
        let (grid, lists, ..) = setup(5);
        let pool = ScratchPool::new(grid.graph().num_vertices());
        let (four, mut shards, _) = four_devices(&grid, |span| span > 1);
        let env = QueryEnv::new(&grid, &lists, &pool, &four);
        let primary = 0;
        // Two remote cells, each with an object on one of its edges.
        let mut remote: Vec<(CellId, u32)> = (0..grid.graph().num_edges() as u32)
            .map(|e| (grid.cell_of_edge(EdgeId(e)), e))
            .filter(|&(c, _)| shards.owner_of(c) != primary)
            .collect();
        remote.sort_by_key(|&(c, _)| c);
        remote.dedup_by_key(|&mut (c, _)| c);
        let [(served, e1), (fresh, e2)] = [remote[0], remote[1]];
        // `served` comes out of an earlier round's output; `fresh` is
        // dirty, so this round cleans it. Both are read-hot.
        place(
            &grid,
            &lists,
            &[(1, EdgePosition::at_source(EdgeId(e1)))],
            100,
        );
        let (cache, _) = shards.clean_cells(&lists, &[served], &four, Timestamp(100));
        place(
            &grid,
            &lists,
            &[(2, EdgePosition::at_source(EdgeId(e2)))],
            100,
        );
        for c in [served, fresh] {
            (0..four.replicate_threshold).for_each(|_| shards.note_read(c));
        }

        let h2d = |shards: &ShardSet| shards.shard(primary).device.ledger().h2d_transfers;
        let before = h2d(&shards);
        let mut ex = Executor::new(
            env,
            Timestamp(100),
            Some(&cache),
            primary,
            Vec::new(),
            QueryBreakdown::default(),
        );
        ex.clean(&mut shards, &[served, fresh]);
        assert_eq!(
            ex.breakdown.cells_skipped, 1,
            "one cell served from the output"
        );
        assert_eq!(
            h2d(&shards) - before,
            1,
            "one promotion transfer for the round"
        );
        for c in [served, fresh] {
            let epoch = lists.lock(c.index()).cleaned_epoch();
            assert!(shards.replica_valid(primary, c, epoch), "{c:?} promoted");
        }
    }

    #[test]
    fn kth_distance_semantics() {
        let p = EdgePosition::at_source(EdgeId(0));
        let c = |d: u64| (ObjectId(d), d, p);
        assert_eq!(kth_distance(&[c(5), c(2), c(9)], 2), 5);
        assert_eq!(kth_distance(&[c(5), c(2)], 3), INFINITY);
        assert_eq!(
            kth_distance(&[(ObjectId(1), INFINITY, p), c(2)], 2),
            INFINITY
        );
        assert_eq!(kth_distance(&[], 1), INFINITY);
    }

    #[test]
    fn sdist_matches_dijkstra_when_all_cells_included() {
        let (grid, _, device, config) = setup(9);
        let graph = grid.graph().clone();
        let set: Vec<crate::grid::CellId> = grid.cell_ids().collect();
        let in_set = vec![true; grid.num_cells()];
        let q = EdgePosition::at_source(EdgeId(4));
        // With pruning disabled (k = 0) the kernel settles the exact
        // full-graph distances: every cell is in the induced subgraph.
        let mut shards = ShardSet::single(device, &config, grid.num_cells());
        let mut fdist = DijkstraScratch::with_capacity(graph.num_vertices());
        let mut run = |fdist: &mut DijkstraScratch| {
            let round = on_primary(&in_set, &set);
            gpu_sdist_frontier(&mut shards, round, &grid, &config, q, &[], 0, fdist)
        };
        let (cold, legs) = run(&mut fdist);
        assert!(legs.is_empty(), "a primary-only round has no remote legs");
        assert!(cold.time > gpu_sim::SimNanos::ZERO);
        assert!(cold.rounds > 0 && cold.h2d_topo_bytes > 0);
        assert_eq!(cold.pruned, 0, "k = 0 never prunes");
        let mut engine = DijkstraEngine::new(&graph);
        engine.run_from_position(q, SearchBounds::UNBOUNDED);
        for v in graph.vertices() {
            assert_eq!(fdist.distance(v), engine.distance(v), "{v:?} diverges");
        }
        // A hot store pays zero topology upload for the same answer.
        let (warm, _) = run(&mut fdist);
        assert_eq!(warm.h2d_topo_bytes, 0, "warm store must skip uploads");
        assert_eq!(warm.topo_hits, set.len());
        assert!(warm.settled > 0 && warm.frontier_max > 0);
        for v in graph.vertices() {
            assert_eq!(
                fdist.distance(v),
                engine.distance(v),
                "frontier {v:?} diverges"
            );
        }
    }

    #[test]
    fn sdist_induced_overestimates_full_graph() {
        // With only part of the grid included, induced distances can only
        // be larger or equal — never smaller.
        let (grid, ..) = setup(9);
        let graph = grid.graph().clone();
        let q = EdgePosition::at_source(EdgeId(4));
        let set: Vec<CellId> = first_ring(&grid, grid.cell_of_edge(q.edge)).collect();
        let mut in_set = vec![false; grid.num_cells()];
        for c in &set {
            in_set[c.index()] = true;
        }
        let mut dist = DijkstraScratch::with_capacity(graph.num_vertices());
        induced_sdist(&grid, &in_set, &set, q, &mut dist);
        let mut engine = DijkstraEngine::new(&graph);
        engine.run_from_position(q, SearchBounds::UNBOUNDED);
        for (v, d) in dist.entries() {
            assert!(d >= engine.distance(v), "{v:?}: induced {d} < exact");
        }
    }

    #[test]
    fn first_k_orders_by_distance_then_id() {
        let (grid, _, mut device, _) = setup(5);
        let graph = grid.graph().clone();
        let q = EdgePosition::at_source(EdgeId(0));
        let set: Vec<crate::grid::CellId> = grid.cell_ids().collect();
        let in_set = vec![true; grid.num_cells()];
        let mut dist = DijkstraScratch::with_capacity(graph.num_vertices());
        induced_sdist(&grid, &in_set, &set, q, &mut dist);
        let objects: Vec<CachedMessage> = (0..10u64)
            .map(|o| {
                CachedMessage::update(
                    ObjectId(o),
                    EdgePosition::at_source(EdgeId((o * 17 % graph.num_edges() as u64) as u32)),
                    Timestamp(1),
                )
            })
            .collect();
        let (scored, _) = gpu_first_k(&mut device, q, &dist, &objects, &graph);
        assert_eq!(scored.len(), 10);
        for w in scored.windows(2) {
            assert!((w[0].1, w[0].0) <= (w[1].1, w[1].0));
        }
    }

    #[test]
    fn unresolved_only_boundary_vertices_below_l() {
        let (grid, _, mut device, _) = setup(7);
        let graph = grid.graph().clone();
        let q = EdgePosition::at_source(EdgeId(2));
        let set: Vec<CellId> = first_ring(&grid, grid.cell_of_edge(q.edge)).collect();
        let mut in_set = vec![false; grid.num_cells()];
        for c in &set {
            in_set[c.index()] = true;
        }
        let mut dist = DijkstraScratch::with_capacity(graph.num_vertices());
        induced_sdist(&grid, &in_set, &set, q, &mut dist);
        let l = 50;
        let (unresolved, _) = gpu_unresolved(&mut device, &grid, &in_set, &set, &dist, l);
        for &(v, d) in &unresolved {
            assert!(d < l);
            let boundary = graph
                .out_edges(v)
                .any(|e| !in_set[grid.cell_of_vertex(graph.edge(e).dest).index()]);
            assert!(boundary, "{v:?} not on the boundary");
        }
    }

    #[test]
    fn run_knn_invalid_query_panics() {
        let (grid, lists, device, config) = setup(3);
        let bad = EdgePosition::new(EdgeId(0), 10_000);
        let mut shards = ShardSet::single(device, &config, grid.num_cells());
        let pool = ScratchPool::new(grid.graph().num_vertices());
        let env = QueryEnv::new(&grid, &lists, &pool, &config);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_knn(&mut shards, env, bad, 1, Timestamp(1), None)
        }));
        assert!(result.is_err());
    }

    #[test]
    fn run_knn_direct() {
        let (grid, lists, device, config) = setup(3);
        let objects: Vec<(u64, EdgePosition)> = (0..8u64)
            .map(|o| (o, EdgePosition::at_source(EdgeId((o * 19 % 160) as u32))))
            .collect();
        place(&grid, &lists, &objects, 100);
        let q = EdgePosition::at_source(EdgeId(1));
        let mut shards = ShardSet::single(device, &config, grid.num_cells());
        let pool = ScratchPool::new(grid.graph().num_vertices());
        let env = QueryEnv::new(&grid, &lists, &pool, &config);
        let result = run_knn(&mut shards, env, q, 3, Timestamp(200), None);
        assert_eq!(result.items.len(), 3);
        let want = roadnet::dijkstra::reference_knn(grid.graph(), q, &objects, 3);
        let got_d: Vec<u64> = result.items.iter().map(|&(_, d)| d).collect();
        let want_d: Vec<u64> = want.iter().map(|&(_, d)| d).collect();
        assert_eq!(got_d, want_d);
        assert!(result.breakdown.cells_cleaned > 0);
        assert!(result.breakdown.sdist_rounds > 0, "sdist must be counted");
        assert!(result.breakdown.sdist_vertices > 0);
        assert!(pool.pooled_maps() > 0, "scratch must return to the pool");
    }

    #[test]
    fn answers_identical_across_worker_counts() {
        // The refinement merge is order-independent, so every worker count
        // must produce bit-identical answers.
        let answers = |workers: usize| -> Vec<Vec<(ObjectId, Distance)>> {
            let (grid, lists, device, mut config) = setup(11);
            config.host_workers = workers;
            let objects: Vec<(u64, EdgePosition)> = (0..20u64)
                .map(|o| (o, EdgePosition::at_source(EdgeId((o * 23 % 160) as u32))))
                .collect();
            place(&grid, &lists, &objects, 100);
            let mut shards = ShardSet::single(device, &config, grid.num_cells());
            let pool = ScratchPool::new(grid.graph().num_vertices());
            let env = QueryEnv::new(&grid, &lists, &pool, &config);
            (0..5u32)
                .map(|i| {
                    let q = EdgePosition::at_source(EdgeId(i * 31 % 160));
                    run_knn(&mut shards, env, q, 6, Timestamp(200), None).items
                })
                .collect()
        };
        let reference = answers(1);
        for workers in [2usize, 4, 8] {
            assert_eq!(answers(workers), reference, "workers={workers}");
        }
    }

    #[test]
    fn refine_outcome_matches_sequential_reference() {
        // Cross-check the parallel refinement against an in-test sequential
        // re-implementation of the original single-threaded loop.
        let (grid, pool, pending) = refine_fixture();
        assert!(!pending.unresolved.is_empty(), "nothing to refine");

        let graph = grid.graph().clone();
        let mut engine = DijkstraEngine::new(&graph);
        let mut want: HashMap<VertexId, Distance, FxBuildHasher> =
            HashMap::with_hasher(FxBuildHasher::default());
        for &(v, dv) in &pending.unresolved {
            engine.run_seeded(&[(v, 0)], SearchBounds::radius(pending.l - dv));
            for &u in engine.settled() {
                let du = dv + engine.distance(u);
                want.entry(u)
                    .and_modify(|d| *d = (*d).min(du))
                    .or_insert(du);
            }
        }

        for workers in [1usize, 3, 8] {
            let got = refine_unresolved(&grid, &pending, workers, &pool);
            let got_map: HashMap<VertexId, Distance, FxBuildHasher> = got
                .best_outer
                .as_ref()
                .expect("unresolved non-empty => scratch present")
                .entries()
                .collect();
            assert_eq!(got_map, want, "workers={workers}");
            assert!(got.touched_cells.windows(2).all(|w| w[0] < w[1]));
            assert!(got.settled > 0 && got.relaxed > 0);
        }
    }

    #[test]
    fn best_outer_holds_exactly_the_settled_set() {
        // No copy sits between the searches and the result: the returned
        // map's finite entries must be the union of what the workers'
        // searches settled, replayed here worker by worker.
        let (grid, pool, pending) = refine_fixture();
        let graph = grid.graph().clone();
        let mut engine = DijkstraEngine::new(&graph);
        for workers in [1usize, 3, 8] {
            let (mut want, mut settled) = (Vec::new(), 0);
            for w in 0..workers {
                let chunk: Vec<_> = pending
                    .unresolved
                    .iter()
                    .skip(w)
                    .step_by(workers)
                    .copied()
                    .collect();
                engine.run_seeded(&chunk, SearchBounds::radius(pending.l));
                want.extend_from_slice(engine.settled());
                settled += engine.settled().len() as u64;
            }
            want.sort_unstable();
            want.dedup();
            let got = refine_unresolved(&grid, &pending, workers, &pool);
            let map = got.best_outer.expect("unresolved non-empty");
            let mut entries: Vec<VertexId> = map.entries().map(|(v, _)| v).collect();
            entries.sort_unstable();
            assert_eq!(entries, want, "workers={workers}");
            assert!(map.entries().all(|(_, d)| d <= pending.l));
            assert_eq!(got.settled, settled, "workers={workers}");
            pool.release_map(map);
        }
    }

    #[test]
    fn multi_source_refine_does_less_work() {
        // The shared search settles overlapping subtrees once; with several
        // unresolved sources whose balls overlap (the fixture's do) it
        // settles and relaxes strictly less than one bounded search per
        // vertex (which settles shared vertices once per source), replayed
        // here as the reference.
        let (grid, pool, pending) = refine_fixture();
        assert!(pending.unresolved.len() >= 2, "no sharing to measure");
        let graph = grid.graph().clone();
        let mut engine = DijkstraEngine::new(&graph);
        let (mut settled, mut relaxed) = (0u64, 0u64);
        for &(v, dv) in &pending.unresolved {
            engine.run_seeded(&[(v, 0)], SearchBounds::radius(pending.l - dv));
            settled += engine.settled().len() as u64;
            relaxed += engine.relaxed();
        }
        let fused = refine_unresolved(&grid, &pending, 1, &pool);
        assert!(
            fused.settled < settled,
            "fused {} vs per-vertex {settled}",
            fused.settled
        );
        assert!(fused.relaxed < relaxed);
        if let Some(a) = fused.best_outer {
            pool.release_map(a);
        }
    }
    /// `in_set` for `set` over `grid`.
    fn membership(grid: &GraphGrid, set: &[CellId]) -> Vec<bool> {
        let mut in_set = vec![false; grid.num_cells()];
        for c in set {
            in_set[c.index()] = true;
        }
        in_set
    }

    /// A map's finite entries, sorted.
    fn sorted_entries(map: &DijkstraScratch) -> Vec<(VertexId, Distance)> {
        let mut entries: Vec<_> = map.entries().collect();
        entries.sort_unstable();
        entries
    }

    /// Host Dijkstra over the subgraph induced by the candidate cells: the
    /// fixed point of the paper's parallel Bellman–Ford, which the frontier
    /// kernel must reproduce.
    fn induced_dijkstra(grid: &GraphGrid, in_set: &[bool], q: EdgePosition) -> Vec<Distance> {
        let graph = grid.graph();
        let inside = |v: VertexId| in_set[grid.cell_of_vertex(v).index()];
        let mut dist = vec![INFINITY; graph.num_vertices()];
        let q_dest = graph.edge(q.edge).dest;
        if !inside(q_dest) {
            return dist;
        }
        let mut heap = std::collections::BinaryHeap::new();
        dist[q_dest.index()] = q.to_dest(graph);
        heap.push(std::cmp::Reverse((q.to_dest(graph), q_dest)));
        while let Some(std::cmp::Reverse((d, v))) = heap.pop() {
            if d > dist[v.index()] {
                continue;
            }
            for e in graph.out_edges(v) {
                let edge = graph.edge(e);
                let nd = d.saturating_add(edge.weight as Distance);
                if inside(edge.dest) && nd < dist[edge.dest.index()] {
                    dist[edge.dest.index()] = nd;
                    heap.push(std::cmp::Reverse((nd, edge.dest)));
                }
            }
        }
        dist
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Frontier kernel == induced-subgraph Dijkstra, with pruning
        /// disabled (k = 0, no objects), across random toy graphs, query
        /// edges, bucket widths, candidate-set shapes, and topology budgets,
        /// including a forced mid-stream eviction between two runs.
        #[test]
        fn frontier_matches_dense_and_dijkstra(
            seed in 0u64..40,
            edge in 0u32..160,
            offset_frac in 0u32..4,
            delta_sel in 0usize..5,
            all_cells in proptest::prelude::prop::bool::weighted(0.5),
            budget_sel in 0usize..3,
        ) {
            let grid = GraphGrid::build(Arc::new(gen::toy(seed)), 3, 2);
            let graph = grid.graph();
            let weight = graph.edge(EdgeId(edge)).weight;
            let q = EdgePosition::new(EdgeId(edge), weight * offset_frac / 4);
            let mut set: Vec<CellId> = if all_cells {
                grid.cell_ids().collect()
            } else {
                first_ring(&grid, grid.cell_of_edge(q.edge)).collect()
            };
            set.sort_unstable();
            let in_set = membership(&grid, &set);
            let want = induced_dijkstra(&grid, &in_set, q);

            let budget = [0u64, 600, 64 << 20][budget_sel];
            let config = GGridConfig {
                eta: 4,
                bucket_capacity: 16,
                sdist_delta: [0u32, 1, 7, 300, 100_000][delta_sel],
                device_budget_bytes: budget,
                ..Default::default()
            };
            let device = Device::new(DeviceSpec::test_tiny());
            let mut shards = ShardSet::single(device, &config, grid.num_cells());
            let round = on_primary(&in_set, &set);
            let mut map = DijkstraScratch::with_capacity(graph.num_vertices());
            let check = |map: &DijkstraScratch, label: &str| {
                for &c in &set {
                    for v in grid.vertices_in(c) {
                        assert_eq!(map.distance(v), want[v.index()], "{label}: {v:?}");
                    }
                }
            };
            gpu_sdist_frontier(&mut shards, round, &grid, &config, q, &[], 0, &mut map);
            check(&map, "frontier");

            // Evict the query's cell mid-stream and re-run: the re-upload
            // must not change a single distance.
            let shard = shards.shard_mut(0);
            shard.topo.force_evict(&mut shard.device, grid.cell_of_edge(q.edge));
            gpu_sdist_frontier(&mut shards, round, &grid, &config, q, &[], 0, &mut map);
            check(&map, "frontier after eviction");
            proptest::prop_assert!(shards.shard(0).topo.resident_bytes() <= budget);
        }
    }

    #[test]
    fn pruning_engages_on_clustered_objects() {
        // Many objects right next to the query with a large candidate
        // region: the k-bound closes fast and the far pile is abandoned.
        let grid = GraphGrid::build(Arc::new(gen::toy(4)), 3, 2);
        let q = EdgePosition::at_source(EdgeId(0));
        let set: Vec<CellId> = grid.cell_ids().collect();
        let in_set = membership(&grid, &set);
        let objects: Vec<CachedMessage> = (0..12u64)
            .map(|o| {
                let p = EdgePosition::at_source(EdgeId(o as u32 % 4));
                CachedMessage::update(ObjectId(o), p, Timestamp(1))
            })
            .collect();
        let config = GGridConfig {
            eta: 4,
            bucket_capacity: 16,
            device_budget_bytes: 64 << 20,
            ..Default::default()
        };
        let device = Device::new(DeviceSpec::test_tiny());
        let mut shards = ShardSet::single(device, &config, grid.num_cells());
        let round = on_primary(&in_set, &set);
        let mut map = DijkstraScratch::with_capacity(grid.graph().num_vertices());
        let (stats, _) =
            gpu_sdist_frontier(&mut shards, round, &grid, &config, q, &objects, 2, &mut map);
        assert!(
            stats.pruned > 0,
            "clustered objects must trigger k-bounded pruning"
        );
        assert!(stats.settled + stats.pruned <= stats.vertices);

        // Pruning must not disturb the answers the query pipeline reads:
        // no tentative distance falls below its exact induced distance.
        let want = induced_dijkstra(&grid, &in_set, q);
        for (v, d) in map.entries() {
            assert!(d >= want[v.index()], "{v:?}: tentative {d} below exact");
        }
    }

    #[test]
    fn sdist_and_refinement_share_one_map() {
        let (grid, pool, pending) = refine_fixture();
        let n = grid.graph().num_vertices();
        // The device phase hands its map back with no finite entry.
        assert_eq!(pool.pooled_maps(), 1);
        let map = pool.acquire_map();
        assert_eq!(map.entries().count(), 0, "SDist must release an empty map");
        pool.release_map(map);

        // Refinement in the map SDist handed back == in a fresh map.
        let reused = refine_unresolved(&grid, &pending, 1, &pool);
        let fresh = refine_unresolved(&grid, &pending, 1, &ScratchPool::new(n));
        let mut dirty = reused.best_outer.expect("the fixture refines");
        let fresh_map = fresh.best_outer.expect("the fixture refines");
        assert_eq!(sorted_entries(&dirty), sorted_entries(&fresh_map));
        assert_eq!(reused.touched_cells, fresh.touched_cells);
        assert_eq!(reused.settled, fresh.settled);

        // SDist in the map that refinement left dirty == in a fresh map.
        assert!(dirty.entries().count() > 0);
        let q = EdgePosition::at_source(EdgeId(2));
        let set: Vec<CellId> = first_ring(&grid, grid.cell_of_edge(q.edge)).collect();
        let in_set = membership(&grid, &set);
        let mut clean = DijkstraScratch::with_capacity(n);
        let on_dirty = induced_sdist(&grid, &in_set, &set, q, &mut dirty);
        let on_clean = induced_sdist(&grid, &in_set, &set, q, &mut clean);
        assert_eq!(sorted_entries(&dirty), sorted_entries(&clean));
        assert_eq!(format!("{on_dirty:?}"), format!("{on_clean:?}"));

        // Whole queries on a pool holding a refinement-dirty map answer as
        // on a fresh pool.
        let answers = |pool: &ScratchPool| -> Vec<Vec<(ObjectId, Distance)>> {
            let (grid, lists, device, config) = setup(7);
            let objects: Vec<(u64, EdgePosition)> = (0..10u64)
                .map(|o| (o, EdgePosition::at_source(EdgeId((o * 37 % 160) as u32))))
                .collect();
            place(&grid, &lists, &objects, 100);
            let mut shards = ShardSet::single(device, &config, grid.num_cells());
            let env = QueryEnv::new(&grid, &lists, pool, &config);
            (0..6u32)
                .map(|i| {
                    let q = EdgePosition::at_source(EdgeId(i * 29 % 160));
                    run_knn(&mut shards, env, q, 3, Timestamp(200), None).items
                })
                .collect()
        };
        let dirty_pool = ScratchPool::new(n);
        dirty_pool.release_map(fresh_map);
        assert_eq!(answers(&dirty_pool), answers(&ScratchPool::new(n)));
    }
}
