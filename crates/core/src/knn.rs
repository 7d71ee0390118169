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
//! pure CPU, no shared state, safe to run on a worker thread while the
//! device serves the next query), and `knn_finalize` (lazy cleaning of
//! refinement-touched cells plus the final selection). `refine_unresolved`
//! itself fans the unresolved vertices out over
//! `GGridConfig::refine_workers` scoped threads; per-worker distance maps
//! are merged with `min`, which is commutative and associative, so the
//! merged result — and therefore the answer — is bit-identical for every
//! worker count.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use gpu_sim::{Device, OpCounts, SimNanos};
use roadnet::dijkstra::{DijkstraEngine, SearchBounds};
use roadnet::graph::{Distance, VertexId, INFINITY};
use roadnet::EdgePosition;

use crate::batch::BatchCleanCache;
use crate::busytime::BusyClock;
use crate::config::GGridConfig;
use crate::grid::{CellId, GraphGrid};
use crate::message::{CachedMessage, ObjectId, Timestamp};
use crate::message_list::CellLists;
use crate::object_table::FxBuildHasher;
use crate::residency::{StagedTopo, TopologyStore};
use crate::scratch::{CellSet, DenseScratch, ScratchPool};
use crate::shard::ShardSet;
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
/// Everything here is owned, so a batch scheduler can hold several pending
/// queries while their refinements run on worker threads.
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
pub(crate) struct RefineOutcome {
    /// `best_outer[u]` = min over unresolved `v` of `D[v] + dist_v(u)` —
    /// a pooled dense scratch (`None` when nothing was refined); entries
    /// are exactly the vertices some search settled, all finite.
    pub best_outer: Option<DenseScratch>,
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
    /// Worker threads actually used.
    pub workers: usize,
    /// Vertices settled across all searches (each worker's multi-source
    /// search settles a shared vertex once).
    pub settled: u64,
    /// Edges examined (relaxation attempts) across all searches.
    pub relaxed: u64,
}

impl RefineOutcome {
    fn empty() -> Self {
        Self {
            best_outer: None,
            touched_cells: Vec::new(),
            wall_ns: 0,
            busy_ns: 0,
            critical_ns: 0,
            workers: 0,
            settled: 0,
            relaxed: 0,
        }
    }
}

/// Execute a kNN query against the G-Grid state.
///
/// This is the single full-pipeline entry point: ad-hoc queries
/// (`GGridServer::knn`), the batch scheduler's per-query legs, and
/// subscription full re-evaluations all run through here, optionally
/// serving cleaning rounds from a shared [`BatchCleanCache`] (epoch-checked,
/// so answers are byte-identical with or without one).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_knn(
    shards: &mut ShardSet,
    grid: &GraphGrid,
    lists: &CellLists,
    pool: &ScratchPool,
    config: &GGridConfig,
    q: EdgePosition,
    k: usize,
    now: Timestamp,
    cache: Option<&BatchCleanCache>,
) -> KnnResult {
    let pending = knn_device_phase(shards, grid, lists, pool, config, q, k, now, cache);
    let refined = refine_unresolved(
        grid,
        &pending.unresolved,
        pending.l,
        pending.cells.tags(),
        config.refine_workers,
        pool,
    );
    knn_finalize(
        shards, grid, lists, config, now, pending, refined, pool, cache,
    )
}

/// One cleaning round of the expansion: clean `cells` (already added to
/// the candidate set by the caller) and merge their live objects into the
/// pool.
///
/// When a [`BatchCleanCache`] is supplied, cells whose consolidated state
/// the batch's shared pass already produced — and whose list epoch proves
/// no message landed since — are served from the cache at zero device cost
/// (counted as skips); everything else falls through to
/// [`ShardSet::clean_cells`], which routes each cell to its owning device.
///
/// Freshly cleaned *remote* cells whose clean-skip read heat crossed
/// `GGridConfig::replicate_threshold` are promoted as read-replicas onto
/// the query's `primary` device here — the one place consolidated messages
/// and their list epoch are both in hand.
#[allow(clippy::too_many_arguments)]
fn clean_round(
    shards: &mut ShardSet,
    lists: &CellLists,
    config: &GGridConfig,
    now: Timestamp,
    primary: usize,
    cells: &[CellId],
    objects: &mut Vec<CachedMessage>,
    breakdown: &mut QueryBreakdown,
    cpu_excluded: &mut Duration,
    cache: Option<&BatchCleanCache>,
    channels: &mut [bool],
) {
    let mut fresh: Vec<CellId> = Vec::with_capacity(cells.len());
    let mut promote: Vec<(CellId, u64, &[CachedMessage])> = Vec::new();
    for &c in cells {
        if let Some(cache) = cache {
            if let Some(msgs) = cache.lookup(lists, c) {
                objects.extend_from_slice(msgs);
                breakdown.cells_skipped += 1;
                if shards.num_shards() > 1 {
                    shards.note_read(c);
                    // A hot remote cell served out of the host batch cache is
                    // exactly the read the scatter path keeps paying for:
                    // install a device replica so later frontier rounds fold
                    // its work onto this primary.
                    if config.replication_enabled()
                        && shards.owner_of(c) != primary
                        && shards.read_heat_of(c) >= config.replicate_threshold
                        && !msgs.is_empty()
                    {
                        if let Some(epoch) = lists.lock(c.index()).cleaned_epoch() {
                            if !shards.replica_valid(primary, c, Some(epoch)) {
                                promote.push((c, epoch, msgs));
                            }
                        }
                    }
                }
                continue;
            }
        }
        fresh.push(c);
    }
    if !promote.is_empty() {
        breakdown.h2d_bytes += shards.promote_replicas_coalesced(primary, &promote);
    }
    if fresh.is_empty() {
        return;
    }
    // The cells the routed clean will serve from the clean-skip cache
    // (the predicate the skip branch itself uses, evaluated pre-clean):
    // remote-owned ones are read out of their owner's device below.
    let gather: Vec<CellId> = if shards.num_shards() > 1 && config.clean_skip {
        fresh
            .iter()
            .copied()
            .filter(|&c| shards.owner_of(c) != primary && lists.lock(c.index()).is_clean())
            .collect()
    } else {
        Vec::new()
    };
    let t0 = Instant::now();
    let (cleaned, rep) = shards.clean_cells(lists, &fresh, config, now);
    *cpu_excluded += t0.elapsed();
    breakdown.record_cleaning(&rep);
    if !gather.is_empty() {
        let (hits, bytes) = shards.gather_remote_lists(primary, &gather, lists, &cleaned, channels);
        breakdown.replica_hits += hits;
        breakdown.d2h_bytes += bytes;
    }
    if config.replication_enabled() {
        let mut batch: Vec<(CellId, u64, &[CachedMessage])> = Vec::new();
        for &c in &fresh {
            if shards.owner_of(c) == primary || shards.read_heat_of(c) < config.replicate_threshold
            {
                continue;
            }
            let Some(msgs) = cleaned.get(&c) else {
                continue;
            };
            let Some(epoch) = lists.lock(c.index()).cleaned_epoch() else {
                continue;
            };
            if shards.replica_valid(primary, c, Some(epoch)) {
                continue; // already hosted and current
            }
            batch.push((c, epoch, msgs));
        }
        if !batch.is_empty() {
            breakdown.h2d_bytes += shards.promote_replicas_coalesced(primary, &batch);
        }
    }
    for c in fresh {
        if let Some(msgs) = cleaned.get(&c) {
            objects.extend_from_slice(msgs);
        }
    }
}

/// Steps 1–3: everything that needs the devices and the message lists.
///
/// Cleaning rounds route each cell to its owning shard; the query-wide
/// kernels (`GPU_SDist`, selection, unresolved) run on the query's
/// *primary* shard — the owner of the query's own cell.
#[allow(clippy::too_many_arguments)]
pub(crate) fn knn_device_phase(
    shards: &mut ShardSet,
    grid: &GraphGrid,
    lists: &CellLists,
    pool: &ScratchPool,
    config: &GGridConfig,
    q: EdgePosition,
    k: usize,
    now: Timestamp,
    cache: Option<&BatchCleanCache>,
) -> PendingKnn {
    assert!(k >= 1, "k must be at least 1");
    let graph = grid.graph().clone();
    assert!(q.is_valid(&graph), "query position invalid for this graph");
    let mut breakdown = QueryBreakdown::default();
    let launches0 = shards.total_launches();
    let cpu_start = Instant::now();
    let mut cpu_excluded = Duration::ZERO; // host time spent emulating kernels
    let mut channels = [false; crate::shard::MAX_DEVICES]; // per-query gather streams

    // ---- Step 1: candidate cells (Algorithm 4 lines 1-4) ----
    let mut cells = pool.acquire_cells(grid.num_cells());
    let c_q = grid.cell_of_edge(q.edge);
    let primary = shards.owner_of(c_q);
    let mut ring: Vec<CellId> = std::iter::once(c_q)
        .chain(grid.neighbors(c_q).iter().copied())
        .filter(|&c| cells.insert(c))
        .collect();

    let mut objects: Vec<CachedMessage> = Vec::new();
    let target = ((config.rho * k as f64).ceil() as usize).max(k);

    // Expand ring by ring until ρ·k live objects are known. A cell cannot
    // yield more live objects than its list holds messages, so while the
    // objects already known plus the messages of the rings queued for this
    // round stay below the target, ring-by-ring expansion would certainly
    // clean the next ring as well: queue it into the same round. The cells
    // cleaned are the same; each merged ring saves an upload, a launch and
    // a copy-back.
    loop {
        let mut round = ring.clone();
        let mut bound = objects.len();
        while stays_below(lists, &ring, &mut bound, target) {
            let next = next_ring(grid, &mut cells, &ring);
            if next.is_empty() {
                break;
            }
            round.extend_from_slice(&next);
            ring = next;
        }
        clean_round(
            shards,
            lists,
            config,
            now,
            primary,
            &round,
            &mut objects,
            &mut breakdown,
            &mut cpu_excluded,
            cache,
            &mut channels,
        );
        if objects.len() >= target {
            break;
        }
        ring = next_ring(grid, &mut cells, &ring);
        if ring.is_empty() {
            break;
        }
    }

    // ---- Step 2: candidate distances, with a robustness loop: if fewer
    // than k candidates are reachable inside the induced subgraph, keep
    // expanding (degenerate topologies only; normally runs once). ----
    let mut dist = pool.acquire();
    let mut remote_ns: Vec<(usize, SimNanos)> = Vec::new();
    let mut owners = (shards.num_shards() > 1).then(|| pool.acquire_owners(grid.num_cells()));
    let candidates = loop {
        let t0 = Instant::now();
        // Effective owner per ring cell: a remote cell with a *valid*
        // replica on the primary counts as primary-owned (a replica hit) —
        // its relax work stays local, shrinking the ring's device span.
        let mut span = 1usize;
        if let Some(owners) = owners.as_mut() {
            let mut seen = [false; crate::shard::MAX_DEVICES];
            for &c in cells.tagged() {
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
        let cooperative = span > 1 && config.cross_shard_sdist;
        let s = if let Some(owners) = owners.as_ref().filter(|_| cooperative) {
            // Cooperative round: every owning device relaxes its slice of
            // the ring concurrently; the modeled critical path is the max
            // over owners instead of their sum.
            breakdown.cross_shard_rounds += 1;
            let (s, legs) = gpu_sdist_frontier_scattered(
                shards,
                primary,
                owners.tags(),
                grid,
                config,
                cells.tags(),
                cells.tagged(),
                q,
                &graph,
                &objects,
                k,
                &mut dist,
            );
            remote_ns.extend(legs);
            s
        } else {
            let (device, _, topo) = shards.parts(primary);
            gpu_sdist_frontier(
                device,
                grid,
                topo,
                config,
                cells.tags(),
                cells.tagged(),
                q,
                &graph,
                &objects,
                k,
                &mut dist,
            )
        };
        let device = &mut shards.shard_mut(primary).device;
        let (candidates, firstk_time) = gpu_first_k(device, q, &dist, &objects, &graph);
        cpu_excluded += t0.elapsed();
        breakdown.candidate += s.time + firstk_time;
        breakdown.sdist_time += s.time;
        breakdown.sdist_rounds += s.rounds;
        breakdown.sdist_frontier_sum += s.frontier_sum;
        breakdown.sdist_frontier_max = breakdown.sdist_frontier_max.max(s.frontier_max);
        breakdown.sdist_settled += s.settled;
        breakdown.sdist_vertices += s.vertices;
        breakdown.sdist_pruned += s.pruned;
        breakdown.h2d_topo_bytes += s.h2d_topo_bytes;
        breakdown.h2d_bytes += s.h2d_topo_bytes;
        breakdown.topo_hits += s.topo_hits;
        breakdown.topo_misses += s.topo_misses;
        breakdown.h2d_coalesced_saved += s.h2d_coalesced_saved;

        let finite = candidates.iter().filter(|c| c.1 < INFINITY).count();
        if finite >= k.min(objects.len()) {
            break candidates;
        }
        ring = next_ring(grid, &mut cells, &ring);
        if ring.is_empty() {
            break candidates;
        }
        clean_round(
            shards,
            lists,
            config,
            now,
            primary,
            &ring,
            &mut objects,
            &mut breakdown,
            &mut cpu_excluded,
            cache,
            &mut channels,
        );
    };
    if let Some(owners) = owners {
        pool.release_owners(owners);
    }
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
        cpu_excluded += t0.elapsed();
        breakdown.candidate += t;
        u
    };
    breakdown.unresolved = unresolved.len();
    pool.release(dist);

    // Copy the candidate set and unresolved set back to the host
    // (Algorithm 4 line 10 input).
    let out_bytes = candidates.len() as u64 * 16 + unresolved.len() as u64 * 12;
    if out_bytes > 0 {
        let device = &mut shards.shard_mut(primary).device;
        breakdown.transfer_out += device.d2h(out_bytes);
        breakdown.d2h_bytes += out_bytes;
    }

    let wall = cpu_start.elapsed();
    breakdown.cpu_ns += wall.saturating_sub(cpu_excluded).as_nanos() as u64;
    breakdown.emulation_ns += cpu_excluded.as_nanos() as u64;
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

/// Step 4's searches (Algorithm 6): bounded Dijkstra expansion from the
/// unresolved vertices over the full graph, fanned out over `workers`
/// scoped threads.
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
/// Pure CPU and side-effect free: it never touches the device or the
/// message lists, which is what lets a batch scheduler run it concurrently
/// with another query's device phase. Determinism: each worker builds a
/// local `best_outer`, maps are merged with `min` (order-independent), and
/// `touched_cells` is recomputed from the merged map and sorted — so the
/// outcome is identical for every worker count, including 1.
pub(crate) fn refine_unresolved(
    grid: &GraphGrid,
    unresolved: &[(VertexId, Distance)],
    l: Distance,
    in_set: &[bool],
    workers: usize,
    pool: &ScratchPool,
) -> RefineOutcome {
    if unresolved.is_empty() {
        return RefineOutcome::empty();
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
        let mut engine = DijkstraEngine::with_scratch(&graph, pool.acquire_engine());
        let mut local = pool.acquire();
        let started = BusyClock::start();
        // Seed costs are the absolute `D[v]`, so settled values are already
        // absolute distances through some unresolved vertex.
        engine.run_seeded(chunk, SearchBounds::radius(l));
        for &u in engine.settled() {
            local.min_in(u, engine.distance(u));
        }
        let settled = engine.settled().len() as u64;
        let relaxed = engine.relaxed();
        let ns = started.elapsed_ns();
        pool.release_engine(engine.into_scratch());
        (local, settled, relaxed, ns)
    };

    let workers = workers.max(1).min(unresolved.len());
    let (best_outer, settled, relaxed, mut busy_ns, mut critical_ns) = if workers == 1 {
        let (local, settled, relaxed, ns) = expand(unresolved);
        (local, settled, relaxed, ns, ns)
    } else {
        // Deal vertices round-robin: adjacent unresolved vertices sit on
        // the same stretch of the region boundary and have correlated
        // search radii, so contiguous chunks would load one worker with
        // all the heavy expansions. Striding spreads them evenly; the
        // min-merge makes the partition irrelevant to the result.
        let partials = crossbeam::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let chunk: Vec<(VertexId, Distance)> = unresolved
                        .iter()
                        .skip(w)
                        .step_by(workers)
                        .copied()
                        .collect();
                    let expand = &expand;
                    s.spawn(move |_| expand(&chunk))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("refinement worker panicked"))
                .collect::<Vec<_>>()
        })
        .expect("refinement scope failed");

        let mut partials = partials.into_iter();
        let (mut merged, mut settled, mut relaxed, first_ns) =
            partials.next().expect("at least one worker");
        let mut busy = first_ns;
        let mut critical = first_ns;
        for (local, worker_settled, worker_relaxed, worker_ns) in partials {
            busy += worker_ns;
            critical = critical.max(worker_ns);
            settled += worker_settled;
            relaxed += worker_relaxed;
            // min-merge is commutative and associative: the merged scratch
            // is identical for every worker count and merge order.
            for (u, du) in local.iter_touched() {
                merged.min_in(u, du);
            }
            pool.release(local);
        }
        (merged, settled, relaxed, busy, critical)
    };

    let mut touched_cells: Vec<CellId> = best_outer
        .iter_touched()
        .map(|(u, _)| grid.cell_of_vertex(u))
        .filter(|c| !in_set[c.index()])
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
        workers,
        settled,
        relaxed,
    }
}

/// Close out a query: lazily clean the refinement-touched cells, improve
/// the estimates through the unresolved vertices, and select the answer.
#[allow(clippy::too_many_arguments)]
pub(crate) fn knn_finalize(
    shards: &mut ShardSet,
    grid: &GraphGrid,
    lists: &CellLists,
    config: &GGridConfig,
    now: Timestamp,
    pending: PendingKnn,
    refined: RefineOutcome,
    pool: &ScratchPool,
    cache: Option<&BatchCleanCache>,
) -> KnnResult {
    let PendingKnn {
        k,
        mut cells,
        mut objects,
        mut estimates,
        mut positions,
        l: _,
        unresolved,
        primary,
        remote_ns: _,
        mut breakdown,
    } = pending;
    let graph = grid.graph();
    let launches0 = shards.total_launches();
    let cpu_start = Instant::now();
    let mut cpu_excluded = Duration::ZERO;
    let mut channels = [false; crate::shard::MAX_DEVICES]; // per-query gather streams

    if !unresolved.is_empty() {
        breakdown.refine_ns = refined.wall_ns;
        breakdown.refine_busy_ns = refined.busy_ns;
        breakdown.refine_critical_ns = refined.critical_ns;
        breakdown.refine_workers = refined.workers;
        breakdown.refine_settled = refined.settled;
        breakdown.refine_relaxed = refined.relaxed;

        // Lazily clean the cells the refinement wandered into and add their
        // objects to the pool.
        for &c in &refined.touched_cells {
            cells.insert(c);
        }
        clean_round(
            shards,
            lists,
            config,
            now,
            primary,
            &refined.touched_cells,
            &mut objects,
            &mut breakdown,
            &mut cpu_excluded,
            cache,
            &mut channels,
        );
        for m in &objects {
            if let Some(p) = m.position {
                positions.entry(m.object).or_insert(p);
            }
        }

        // Improve estimates through the unresolved vertices. Scratch
        // entries are finite by construction, so `< INFINITY` is exactly
        // the old map's key-present test.
        if let Some(outer_map) = refined.best_outer.as_ref() {
            for (&o, &p) in positions.iter() {
                let src = graph.edge(p.edge).source;
                let outer = outer_map.get(src);
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
        pool.release(s);
    }
    pool.release_cells(cells);

    // ---- Final selection ----
    let mut final_items: Vec<(ObjectId, Distance)> = estimates
        .into_iter()
        .filter(|&(_, d)| d < INFINITY)
        .collect();
    final_items.sort_by_key(|&(o, d)| (d, o));
    final_items.truncate(k);

    let wall = cpu_start.elapsed();
    // Refinement wall time counts as CPU work (it did before the split).
    breakdown.cpu_ns += wall.saturating_sub(cpu_excluded).as_nanos() as u64 + breakdown.refine_ns;
    breakdown.emulation_ns += cpu_excluded.as_nanos() as u64;
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

/// Add the messages held by `cells`' lists to `bound` — a clean of a cell
/// yields at most that many live objects — and report whether it stays
/// below `target`. Counting stops as soon as it does not.
fn stays_below(lists: &CellLists, cells: &[CellId], bound: &mut usize, target: usize) -> bool {
    for c in cells {
        *bound += lists.lock(c.index()).total_messages();
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
#[doc(hidden)]
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

impl SdistStats {
    /// Fold one device's staged topology upload into the counters (its
    /// time is charged by the caller, per device).
    fn record_staged(&mut self, staged: &StagedTopo) {
        self.topo_hits += staged.hits as usize;
        self.topo_misses += staged.misses as usize;
        self.h2d_topo_bytes += staged.bytes;
        self.h2d_coalesced_saved += staged.transactions_saved;
    }
}

/// Algorithm 5 `GPU_SDist`: shortest distances over the subgraph induced by
/// the candidate cells, landing in `scratch` (reset here).
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
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn gpu_sdist_frontier(
    device: &mut Device,
    grid: &GraphGrid,
    topo: &mut TopologyStore,
    config: &GGridConfig,
    in_set: &[bool],
    set: &[CellId],
    q: EdgePosition,
    graph: &roadnet::Graph,
    objects: &[CachedMessage],
    k: usize,
    scratch: &mut DenseScratch,
) -> SdistStats {
    let mut stats = SdistStats::default();

    // Resident topology: a hot cell's slice is already on the card and
    // skips the upload entirely; the round's misses ride one staged
    // transfer (a single PCIe latency charge).
    let staged = topo.stage(device, set.iter().map(|&c| (c, grid.topology(c).bytes())));
    stats.record_staged(&staged);
    stats.time += staged.time;

    let total_vertices: usize = set.iter().map(|&c| grid.topology(c).num_vertices()).sum();
    stats.vertices = total_vertices as u64;

    let prelude = FrontierPrelude::new(grid, config, in_set, q, graph, objects, scratch);
    let ((), report) = device.launch(total_vertices.max(1), |ctx| {
        frontier_relax_body(
            ctx,
            grid,
            in_set,
            &prelude,
            k,
            scratch,
            &mut stats,
            &mut |_, _| {},
        )
    });
    stats.time += report.time;
    stats
}

/// What both frontier kernels derive identically from the query before
/// relaxing: the bucket width δ, the live objects per source vertex, and
/// the seed at the query edge's destination.
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
    /// Build the prelude, resetting `scratch` and seeding it at `q_dest`.
    fn new(
        grid: &GraphGrid,
        config: &GGridConfig,
        in_set: &[bool],
        q: EdgePosition,
        graph: &roadnet::Graph,
        objects: &[CachedMessage],
        scratch: &mut DenseScratch,
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
        scratch.reset();
        let q_dest = graph.edge(q.edge).dest;
        let seeded = in_set[grid.cell_of_vertex(q_dest).index()];
        if seeded {
            scratch.set(q_dest, q.to_dest(graph));
        }
        Self {
            delta,
            objects_at,
            q_dest,
            seeded,
        }
    }
}

/// The near–far relaxation shared by [`gpu_sdist_frontier`] and its
/// cross-shard scattered variant. Every per-vertex charge site reports the
/// same op slice through `tally`, keyed by the vertex whose owning device
/// should pay for it; collectives, barriers, and far-pile compaction charge
/// only `ctx` — they are coordination work, left in the residual the scatter
/// path bills to the primary device. Round, frontier, settled and pruned
/// counts accumulate into `stats`.
#[allow(clippy::too_many_arguments)]
fn frontier_relax_body(
    ctx: &mut gpu_sim::KernelCtx,
    grid: &GraphGrid,
    in_set: &[bool],
    prelude: &FrontierPrelude,
    k: usize,
    scratch: &mut DenseScratch,
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
        let d0 = scratch.get(q_dest);
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
                    let dv = scratch.get(v);
                    for (dest, dest_cell, w) in t.out_edges_of(slot) {
                        if !in_set[dest_cell as usize] {
                            continue; // induced subgraph only
                        }
                        let nd = dv.saturating_add(w as Distance);
                        if nd < scratch.get(dest) {
                            scratch.set(dest, nd);
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
                    let dv = scratch.get(v);
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
            let (kept, _) =
                gpu_sim::collective::partition_by(ctx, &far, |&v| scratch.get(v) >= cur_threshold);
            far = kept;
            if far.is_empty() {
                break;
            }
            let min_far = gpu_sim::collective::reduce(
                ctx,
                far.iter().map(|&v| scratch.get(v)).collect(),
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
            let (n2, f2) =
                gpu_sim::collective::partition_by(ctx, &far, |&v| scratch.get(v) < cur_threshold);
            near = n2;
            far = f2;
        }
    }
}

/// Cooperative cross-shard `GPU_SDist`: the ring's cells are grouped by
/// *effective* owner (replica-hosted remote cells count as the primary's),
/// each owning device stages its own topology slice and is charged exactly
/// the relaxation work its vertices generate, and the modeled round time is
/// the **max** over the participating devices instead of their sum.
///
/// The relaxation itself runs once, on the shared host-side scratch, under a
/// detached metering context — so the distances (and therefore the answers)
/// are byte-identical to the single-device path; only the cost attribution
/// moves. The primary device pays the metered total minus the carved-out
/// remote slices: its own vertices' work plus every collective, barrier, and
/// far-pile compaction (the coordination that in a real deployment rides the
/// host-side min-merge of the per-shard frontiers).
#[allow(clippy::too_many_arguments)]
fn gpu_sdist_frontier_scattered(
    shards: &mut ShardSet,
    primary: usize,
    owners: &[u8],
    grid: &GraphGrid,
    config: &GGridConfig,
    in_set: &[bool],
    set: &[CellId],
    q: EdgePosition,
    graph: &roadnet::Graph,
    objects: &[CachedMessage],
    k: usize,
    scratch: &mut DenseScratch,
) -> (SdistStats, Vec<(usize, SimNanos)>) {
    let mut stats = SdistStats::default();
    let num_shards = shards.num_shards();
    let mut device_ns = vec![SimNanos::ZERO; num_shards];

    // Group the ring by effective owner; each owner stages its own slice of
    // the candidate topology on its own device.
    let mut groups: Vec<Vec<CellId>> = vec![Vec::new(); num_shards];
    for &c in set {
        groups[owners[c.index()] as usize].push(c);
    }
    for (d, cells) in groups.iter().enumerate() {
        if cells.is_empty() {
            continue;
        }
        let (device, _, topo) = shards.parts(d);
        let staged = topo.stage(device, cells.iter().map(|&c| (c, grid.topology(c).bytes())));
        stats.record_staged(&staged);
        device_ns[d] += staged.time;
    }

    let total_vertices: usize = set.iter().map(|&c| grid.topology(c).num_vertices()).sum();
    stats.vertices = total_vertices as u64;

    let prelude = FrontierPrelude::new(grid, config, in_set, q, graph, objects, scratch);
    // Meter the relaxation once, tallying each per-vertex charge site
    // against the device that owns the vertex's cell.
    let warp = shards.shard(primary).device.spec().warp_size as usize;
    let mut ctx = gpu_sim::KernelCtx::detached(warp, total_vertices.max(1));
    let mut slices = vec![OpCounts::default(); num_shards];
    frontier_relax_body(
        &mut ctx,
        grid,
        in_set,
        &prelude,
        k,
        scratch,
        &mut stats,
        &mut |v, ops| slices[owners[grid.cell_of_vertex(v).index()] as usize].add(&ops),
    );

    // Replay the remote slices on their devices. The per-vertex tallies
    // cover relax and object-bound work; the metered residual (near/far
    // compaction, reductions, frontier bookkeeping) is data-parallel over
    // the whole frontier, so the cooperative launch splits it across the
    // participants in proportion to the vertices each hosts. Barriers are
    // the exception: every sub-kernel runs the same rounds, so each
    // participant pays the full sync count.
    let mut remote_total = OpCounts::default();
    let mut scatter_groups: Vec<(usize, usize, OpCounts)> = Vec::new();
    for (d, slice) in slices.iter().enumerate() {
        if d == primary || !slice.any() {
            continue;
        }
        remote_total.add(slice);
        let threads: usize = groups[d]
            .iter()
            .map(|&c| grid.topology(c).num_vertices())
            .sum();
        scatter_groups.push((d, threads.max(1), *slice));
    }
    let residual = ctx.ops().saturating_sub(&remote_total);
    let mut primary_ops = residual;
    for (_, threads, ops) in &mut scatter_groups {
        let mut share = residual.scaled(*threads as u64, total_vertices.max(1) as u64);
        primary_ops = primary_ops.saturating_sub(&share);
        share.syncs = residual.syncs;
        ops.add(&share);
    }
    primary_ops.syncs = residual.syncs;
    for (d, t) in shards.launch_scattered(&scatter_groups) {
        device_ns[d] += t;
    }
    let report = shards
        .shard_mut(primary)
        .device
        .launch_ops(total_vertices.max(1), primary_ops);
    device_ns[primary] += report.time;

    // Remote legs go back to the caller so a batch scheduler can place them
    // on the remote devices' streams; the round's modeled duration is the
    // slowest participant.
    let legs: Vec<(usize, SimNanos)> = device_ns
        .iter()
        .enumerate()
        .filter(|&(d, t)| d != primary && *t > SimNanos::ZERO)
        .map(|(d, &t)| (d, t))
        .collect();
    stats.time += device_ns.iter().copied().max().unwrap_or(SimNanos::ZERO);
    (stats, legs)
}

/// Distance from the query to an object position given the induced vertex
/// distances, including the along-the-edge shortcut when both share an edge.
fn object_distance(
    q: EdgePosition,
    p: EdgePosition,
    dist: &DenseScratch,
    graph: &roadnet::Graph,
) -> Distance {
    let src = graph.edge(p.edge).source;
    let via = dist.get(src).saturating_add(p.from_source());
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
    dist: &DenseScratch,
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
    dist: &DenseScratch,
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
                let dv = dist.get(v);
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
mod golden;

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

    /// The full induced-subgraph fixed point: `gpu_sdist_frontier` with
    /// pruning disabled (`k = 0`) on a cold topology store.
    fn induced_sdist(
        device: &mut Device,
        grid: &GraphGrid,
        in_set: &[bool],
        set: &[CellId],
        q: EdgePosition,
        dist: &mut DenseScratch,
    ) -> SdistStats {
        let config = GGridConfig::default();
        let mut topo = TopologyStore::new(config.device_budget_bytes);
        let graph = grid.graph().clone();
        gpu_sdist_frontier(
            device,
            grid,
            &mut topo,
            &config,
            in_set,
            set,
            q,
            &graph,
            &[],
            0,
            dist,
        )
    }

    fn place(grid: &GraphGrid, lists: &CellLists, objects: &[(u64, EdgePosition)], t: u64) {
        for &(o, p) in objects {
            let cell = grid.cell_of_edge(p.edge);
            lists
                .lock(cell.index())
                .append(CachedMessage::update(ObjectId(o), p, Timestamp(t)));
        }
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
        let d2h = |shards: &ShardSet| shards.shard(0).device.ledger().d2h_transfers;
        let before = d2h(&shards);
        let pending = knn_device_phase(
            &mut shards,
            &grid,
            &lists,
            &pool,
            &config,
            q,
            k,
            Timestamp(200),
            None,
        );
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

        let refined = refine_unresolved(
            &grid,
            &pending.unresolved,
            pending.l,
            pending.cells.tags(),
            1,
            &pool,
        );
        let result = knn_finalize(
            &mut shards,
            &grid,
            &lists,
            &config,
            Timestamp(200),
            pending,
            refined,
            &pool,
            None,
        );
        let want = roadnet::dijkstra::reference_knn(&graph, q, &objects, k);
        let got_d: Vec<u64> = result.items.iter().map(|&(_, d)| d).collect();
        let want_d: Vec<u64> = want.iter().map(|&(_, d)| d).collect();
        assert_eq!(got_d, want_d);
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
        let (grid, _, mut device, config) = setup(9);
        let graph = grid.graph().clone();
        let set: Vec<crate::grid::CellId> = grid.cell_ids().collect();
        let in_set = vec![true; grid.num_cells()];
        let q = EdgePosition::at_source(EdgeId(4));
        // With pruning disabled (k = 0) the kernel settles the exact
        // full-graph distances: every cell is in the induced subgraph.
        let mut topo = TopologyStore::new(config.device_budget_bytes);
        let mut fdist = DenseScratch::new(graph.num_vertices());
        let cold = gpu_sdist_frontier(
            &mut device,
            &grid,
            &mut topo,
            &config,
            &in_set,
            &set,
            q,
            &graph,
            &[],
            0,
            &mut fdist,
        );
        assert!(cold.time > gpu_sim::SimNanos::ZERO);
        assert!(cold.rounds > 0 && cold.h2d_topo_bytes > 0);
        assert_eq!(cold.pruned, 0, "k = 0 never prunes");
        let mut engine = DijkstraEngine::new(&graph);
        engine.run_from_position(q, SearchBounds::UNBOUNDED);
        for v in graph.vertices() {
            assert_eq!(fdist.get(v), engine.distance(v), "{v:?} diverges");
        }
        // A hot store pays zero topology upload for the same answer.
        let warm = gpu_sdist_frontier(
            &mut device,
            &grid,
            &mut topo,
            &config,
            &in_set,
            &set,
            q,
            &graph,
            &[],
            0,
            &mut fdist,
        );
        assert_eq!(warm.h2d_topo_bytes, 0, "warm store must skip uploads");
        assert_eq!(warm.topo_hits, set.len());
        assert!(warm.settled > 0 && warm.frontier_max > 0);
        for v in graph.vertices() {
            assert_eq!(fdist.get(v), engine.distance(v), "frontier {v:?} diverges");
        }
    }

    #[test]
    fn sdist_induced_overestimates_full_graph() {
        // With only part of the grid included, induced distances can only
        // be larger or equal — never smaller.
        let (grid, _, mut device, _) = setup(9);
        let graph = grid.graph().clone();
        let q = EdgePosition::at_source(EdgeId(4));
        let c_q = grid.cell_of_edge(q.edge);
        let mut set = vec![c_q];
        set.extend_from_slice(grid.neighbors(c_q));
        set.sort_unstable();
        set.dedup();
        let mut in_set = vec![false; grid.num_cells()];
        for c in &set {
            in_set[c.index()] = true;
        }
        let mut dist = DenseScratch::new(graph.num_vertices());
        induced_sdist(&mut device, &grid, &in_set, &set, q, &mut dist);
        let mut engine = DijkstraEngine::new(&graph);
        engine.run_from_position(q, SearchBounds::UNBOUNDED);
        for (v, d) in dist.iter_touched() {
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
        let mut dist = DenseScratch::new(graph.num_vertices());
        induced_sdist(&mut device, &grid, &in_set, &set, q, &mut dist);
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
        let c_q = grid.cell_of_edge(q.edge);
        let mut set = vec![c_q];
        set.extend_from_slice(grid.neighbors(c_q));
        set.sort_unstable();
        set.dedup();
        let mut in_set = vec![false; grid.num_cells()];
        for c in &set {
            in_set[c.index()] = true;
        }
        let mut dist = DenseScratch::new(graph.num_vertices());
        induced_sdist(&mut device, &grid, &in_set, &set, q, &mut dist);
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
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_knn(
                &mut shards,
                &grid,
                &lists,
                &pool,
                &config,
                bad,
                1,
                Timestamp(1),
                None,
            )
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
        let result = run_knn(
            &mut shards,
            &grid,
            &lists,
            &pool,
            &config,
            q,
            3,
            Timestamp(200),
            None,
        );
        assert_eq!(result.items.len(), 3);
        let want = roadnet::dijkstra::reference_knn(grid.graph(), q, &objects, 3);
        let got_d: Vec<u64> = result.items.iter().map(|&(_, d)| d).collect();
        let want_d: Vec<u64> = want.iter().map(|&(_, d)| d).collect();
        assert_eq!(got_d, want_d);
        assert!(result.breakdown.cells_cleaned > 0);
        assert!(result.breakdown.sdist_rounds > 0, "sdist must be counted");
        assert!(result.breakdown.sdist_vertices > 0);
        assert!(pool.pooled() > 0, "scratch must return to the pool");
    }

    #[test]
    fn answers_identical_across_worker_counts() {
        // The refinement merge is order-independent, so every worker count
        // must produce bit-identical answers.
        let reference: Vec<Vec<(ObjectId, Distance)>> = {
            let (grid, lists, device, config) = setup(11);
            let objects: Vec<(u64, EdgePosition)> = (0..20u64)
                .map(|o| (o, EdgePosition::at_source(EdgeId((o * 23 % 160) as u32))))
                .collect();
            place(&grid, &lists, &objects, 100);
            let mut shards = ShardSet::single(device, &config, grid.num_cells());
            let pool = ScratchPool::new(grid.graph().num_vertices());
            (0..5u32)
                .map(|i| {
                    let q = EdgePosition::at_source(EdgeId(i * 31 % 160));
                    run_knn(
                        &mut shards,
                        &grid,
                        &lists,
                        &pool,
                        &config,
                        q,
                        6,
                        Timestamp(200),
                        None,
                    )
                    .items
                })
                .collect()
        };
        for workers in [2usize, 4, 8] {
            let (grid, lists, device, mut config) = setup(11);
            config.refine_workers = workers;
            let objects: Vec<(u64, EdgePosition)> = (0..20u64)
                .map(|o| (o, EdgePosition::at_source(EdgeId((o * 23 % 160) as u32))))
                .collect();
            place(&grid, &lists, &objects, 100);
            let mut shards = ShardSet::single(device, &config, grid.num_cells());
            let pool = ScratchPool::new(grid.graph().num_vertices());
            for (i, want) in reference.iter().enumerate() {
                let q = EdgePosition::at_source(EdgeId(i as u32 * 31 % 160));
                let got = run_knn(
                    &mut shards,
                    &grid,
                    &lists,
                    &pool,
                    &config,
                    q,
                    6,
                    Timestamp(200),
                    None,
                )
                .items;
                assert_eq!(&got, want, "workers={workers} query {i} diverged");
            }
        }
    }

    #[test]
    fn refine_outcome_matches_sequential_reference() {
        // Cross-check the parallel refinement against an in-test sequential
        // re-implementation of the original single-threaded loop.
        let (grid, lists, device, config) = setup(7);
        let objects: Vec<(u64, EdgePosition)> = (0..10u64)
            .map(|o| (o, EdgePosition::at_source(EdgeId((o * 37 % 160) as u32))))
            .collect();
        place(&grid, &lists, &objects, 100);
        let q = EdgePosition::at_source(EdgeId(2));
        let mut shards = ShardSet::single(device, &config, grid.num_cells());
        let pool = ScratchPool::new(grid.graph().num_vertices());
        let pending = knn_device_phase(
            &mut shards,
            &grid,
            &lists,
            &pool,
            &config,
            q,
            4,
            Timestamp(200),
            None,
        );
        if pending.unresolved.is_empty() {
            return; // nothing to refine on this topology
        }

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
            let got = refine_unresolved(
                &grid,
                &pending.unresolved,
                pending.l,
                pending.cells.tags(),
                workers,
                &pool,
            );
            let got_map: HashMap<VertexId, Distance, FxBuildHasher> = got
                .best_outer
                .as_ref()
                .expect("unresolved non-empty => scratch present")
                .iter_touched()
                .collect();
            assert_eq!(got_map, want, "workers={workers}");
            assert!(got.touched_cells.windows(2).all(|w| w[0] < w[1]));
            assert!(got.settled > 0 && got.relaxed > 0);
        }
    }

    #[test]
    fn multi_source_refine_does_less_work() {
        // The shared search settles overlapping subtrees once; with several
        // unresolved sources its settled count can only be <= that of one
        // bounded search per vertex (which settles shared vertices once per
        // source), replayed here as the reference.
        let (grid, lists, device, config) = setup(7);
        let objects: Vec<(u64, EdgePosition)> = (0..10u64)
            .map(|o| (o, EdgePosition::at_source(EdgeId((o * 37 % 160) as u32))))
            .collect();
        place(&grid, &lists, &objects, 100);
        let q = EdgePosition::at_source(EdgeId(2));
        let mut shards = ShardSet::single(device, &config, grid.num_cells());
        let pool = ScratchPool::new(grid.graph().num_vertices());
        let pending = knn_device_phase(
            &mut shards,
            &grid,
            &lists,
            &pool,
            &config,
            q,
            4,
            Timestamp(200),
            None,
        );
        if pending.unresolved.len() < 2 {
            return; // no sharing to measure on this topology
        }
        let graph = grid.graph().clone();
        let mut engine = DijkstraEngine::new(&graph);
        let (mut settled, mut relaxed) = (0u64, 0u64);
        for &(v, dv) in &pending.unresolved {
            engine.run_seeded(&[(v, 0)], SearchBounds::radius(pending.l - dv));
            settled += engine.settled().len() as u64;
            relaxed += engine.relaxed();
        }
        let fused = refine_unresolved(
            &grid,
            &pending.unresolved,
            pending.l,
            pending.cells.tags(),
            1,
            &pool,
        );
        assert!(
            fused.settled <= settled,
            "fused {} vs per-vertex {settled}",
            fused.settled
        );
        assert!(fused.relaxed <= relaxed);
        if let Some(a) = fused.best_outer {
            pool.release(a);
        }
    }
}
