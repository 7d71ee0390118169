//! Multi-query batch processing.
//!
//! The paper's "G-Grid" series in Fig 5 reports the *overall* response time
//! of a query stream, which beats the per-query sum ("G-Grid (L)") because
//! the server processes multiple queries in parallel: their message
//! cleaning shares one device pass, and host refinement of one query
//! overlaps device work of another.
//!
//! [`run_knn_batch`] makes the **batch** the unit of device work:
//!
//! * **Batch-fused cleaning** — the union of all queries' first candidate
//!   rings is cleaned in one X-shuffle round (one kernel launch, one
//!   chunked H2D schedule). The consolidated output is kept in a
//!   [`BatchCleanCache`] keyed by list epoch, so every per-query pipeline
//!   serves those cells from host memory at zero device cost — no
//!   re-launch, no re-upload, not even a list freeze.
//! * **Coalesced topology staging** — the union's CSR slices are staged
//!   onto the device in one transfer (one PCIe latency for all misses)
//!   before the first query runs, so the per-query `GPU_SDist` rounds hit
//!   the resident topology store.
//! * **Overlapped refinement** — queries are staged through the
//!   device-phase → refine → finalise pipeline of [`crate::knn`]: while
//!   query *i*'s CPU refinement runs on a worker thread, the device
//!   already executes query *i+1*'s phase. The overlap is accounted on a
//!   [`StreamTimeline`] with one device stream and one transfer stream
//!   *per shard* plus one host stream (`2D + 1` streams; `D = 1`
//!   degenerates to the classic device/host/transfer trio), yielding the
//!   batch's pipelined makespan next to the serial sum of the same
//!   operations. Under sharding (`num_devices > 1`) the shared cleaning
//!   pass is routed per owning shard and those legs run concurrently on
//!   their own streams; each query's kernels occupy only its primary
//!   shard's streams, so disjoint queries overlap across devices.
//!
//! **Attribution.** The shared pass is real per-query work done once, so
//! its cost is split across the queries proportionally to how much of the
//! union each asked for: query *i*'s weight is `Σ_{c ∈ ring_i} 1/mult(c)`,
//! where `mult(c)` counts the queries whose first ring contains `c` — a
//! cell wanted by four queries bills each a quarter. The integer split
//! ([`crate::stats::split_u64`]) telescopes exactly, so the per-query
//! breakdowns sum to precisely the work the batch did and
//! [`BatchResult::gpu_total`] needs no separate shared term. The unsplit
//! record stays available in [`BatchResult::shared`] for diagnostics.
//!
//! Answers are byte-identical to running [`crate::knn::run_knn`] per query
//! in input order: cleaning is semantically idempotent (a query's view of
//! a cell's live objects does not depend on when the cell was last
//! consolidated), the cache returns exactly what a fresh clean or a
//! clean-skip snapshot of the same epoch would, and the refinement merge
//! is order-independent. DESIGN.md §5.6 carries the full argument.

use std::collections::HashMap;

use gpu_sim::{SimNanos, StreamTimeline};
use roadnet::graph::Distance;
use roadnet::EdgePosition;

use crate::cleaning::CleanedObjects;
use crate::config::GGridConfig;
use crate::grid::{CellId, GraphGrid};
use crate::knn::{knn_device_phase, knn_finalize, refine_unresolved};
use crate::message::{CachedMessage, ObjectId, Timestamp};
use crate::message_list::CellLists;
use crate::object_table::FxBuildHasher;
use crate::scratch::{CellSet, ScratchPool};
use crate::shard::ShardSet;
use crate::stats::QueryBreakdown;

/// Stream layout of the batch timeline for `d` shards: device stream of
/// shard `i` at index `i`, its transfer stream at `d + i` (D2H copy-backs
/// overlap the next kernel there, still ordered after their own compute),
/// and the single host (refinement) stream last. `d = 1` reproduces the
/// original device/transfer/host trio.
fn device_stream(_d: usize, shard: usize) -> usize {
    shard
}
fn transfer_stream(d: usize, shard: usize) -> usize {
    d + shard
}
fn host_stream(d: usize) -> usize {
    2 * d
}

/// Weight scale for the proportional attribution of the shared pass:
/// `lcm(1..=13)`, so `ATTR_SCALE / mult` is exact for any realistic cell
/// multiplicity (larger multiplicities round down harmlessly — only the
/// ratios matter, and the integer split preserves totals regardless).
const ATTR_SCALE: u64 = 720_720;

/// Host-side cache of the batch's shared cleaning pass: for each union
/// cell, the consolidated live objects and the list epoch they correspond
/// to. A per-query cleaning round hits the cache only while the list's
/// epoch still equals the recorded one — i.e. no message has landed in the
/// cell since the shared pass — which is exactly the condition under which
/// the shared output *is* what cleaning the cell now would produce.
pub(crate) struct BatchCleanCache {
    entries: HashMap<CellId, (u64, Vec<CachedMessage>), FxBuildHasher>,
}

impl BatchCleanCache {
    /// Record the shared pass's output. Cells whose list was appended to
    /// between the pass and this call (epoch moved past the cleaned stamp)
    /// are left out — serving them from the cache would drop the new
    /// messages, so they fall through to a real clean instead.
    pub(crate) fn build(lists: &CellLists, union: &[CellId], cleaned: &CleanedObjects) -> Self {
        let mut entries: HashMap<CellId, (u64, Vec<CachedMessage>), FxBuildHasher> =
            HashMap::default();
        for &c in union {
            let list = lists.lock(c.index());
            if list.is_clean() {
                let epoch = list.epoch();
                drop(list);
                let msgs = cleaned.get(&c).cloned().unwrap_or_default();
                entries.insert(c, (epoch, msgs));
            }
        }
        Self { entries }
    }

    /// The cached consolidation of `cell`, if it is still current (the
    /// list's epoch has not moved since the shared pass).
    pub(crate) fn lookup(&self, lists: &CellLists, cell: CellId) -> Option<&[CachedMessage]> {
        let (epoch, msgs) = self.entries.get(&cell)?;
        let list = lists.lock(cell.index());
        if list.epoch() == *epoch {
            Some(msgs)
        } else {
            None
        }
    }
}

/// Result of a query batch.
#[derive(Debug)]
pub struct BatchResult {
    /// Per-query answers, in input order.
    pub answers: Vec<Vec<(ObjectId, Distance)>>,
    /// The shared pass (fused cleaning + staged topology), unsplit. Its
    /// cost is *also* attributed into `per_query` proportionally, so sum
    /// `per_query` — not `shared` — for totals.
    pub shared: QueryBreakdown,
    /// Per-query breakdowns: each query's residual work plus its
    /// proportional share of the shared pass.
    pub per_query: Vec<QueryBreakdown>,
    /// Cells the shared pass cleaned once on behalf of the whole batch
    /// (the size of the first-ring union).
    pub shared_cells: usize,
    /// Makespan of the batch with host refinement overlapping device work
    /// (device time is simulated, refinement time is measured host time).
    pub pipelined_time: SimNanos,
    /// The same operations executed back to back, for comparison; always
    /// `>= pipelined_time`.
    pub serial_time: SimNanos,
}

impl BatchResult {
    /// Total simulated device time of the batch. The shared pass is
    /// already attributed into `per_query`, so this is a plain sum.
    pub fn gpu_total(&self) -> gpu_sim::SimNanos {
        self.per_query
            .iter()
            .fold(gpu_sim::SimNanos::ZERO, |acc, b| acc + b.gpu_total())
    }
}

/// Execute a batch of kNN queries sharing one fused cleaning + staging
/// pass and overlapping host refinement with device work.
#[allow(clippy::too_many_arguments)]
pub fn run_knn_batch(
    shards: &mut ShardSet,
    grid: &GraphGrid,
    lists: &CellLists,
    pool: &ScratchPool,
    config: &GGridConfig,
    queries: &[(EdgePosition, usize)],
    now: Timestamp,
) -> BatchResult {
    let d = shards.num_shards();

    // Per-query first candidate rings (own cell + neighbours) and their
    // union; ring multiplicities drive the attribution weights. A query's
    // *primary* shard — where its kernels run — owns its own cell.
    let mut rings: Vec<Vec<CellId>> = Vec::with_capacity(queries.len());
    let mut primaries: Vec<usize> = Vec::with_capacity(queries.len());
    let mut union: Vec<CellId> = Vec::new();
    for &(q, _) in queries {
        let c = grid.cell_of_edge(q.edge);
        primaries.push(shards.owner_of(c));
        let mut ring = vec![c];
        ring.extend_from_slice(grid.neighbors(c));
        ring.sort_unstable();
        ring.dedup();
        union.extend_from_slice(&ring);
        rings.push(ring);
    }
    union.sort_unstable();
    union.dedup();

    let mut multiplicity: HashMap<CellId, u64, FxBuildHasher> = HashMap::default();
    for ring in &rings {
        for &c in ring {
            *multiplicity.entry(c).or_insert(0) += 1;
        }
    }
    let weights: Vec<u64> = rings
        .iter()
        .map(|ring| ring.iter().map(|c| ATTR_SCALE / multiplicity[c]).sum())
        .collect();

    let mut timeline = StreamTimeline::new(2 * d + 1);
    let mut serial_time = SimNanos::ZERO;

    let mut shared = QueryBreakdown::default();
    let mut cache: Option<BatchCleanCache> = None;
    if !union.is_empty() && !queries.is_empty() {
        let launches0 = shards.total_launches();
        let t0 = std::time::Instant::now();
        // The fused pass routes each union cell to its owning shard; the
        // per-shard legs are independent and run concurrently on their own
        // device streams.
        let (cleaned, reports) = shards.clean_cells_routed(lists, &union, config, now);
        cache = Some(BatchCleanCache::build(lists, &union, &cleaned));
        shared.emulation_ns = t0.elapsed().as_nanos() as u64;
        for (owner, rep) in &reports {
            shared.record_cleaning(rep);
            // Copy-back is strictly after this leg's compute but runs on
            // the owner's transfer stream, so the first query's device
            // phase starts as soon as the kernel is done — not when the
            // result lands on host.
            let compute = SimNanos(rep.time.0 - rep.copy_back_time.0);
            let compute_end = timeline.push(device_stream(d, *owner), SimNanos::ZERO, compute);
            timeline.push(transfer_stream(d, *owner), compute_end, rep.copy_back_time);
            serial_time += rep.time;
        }
        shared.kernel_launches = shards.total_launches() - launches0;

        // Stage each primary group's topology in one coalesced transfer per
        // shard, so the per-query sdist rounds find every first-ring CSR
        // slice resident on the device they will run on. With one shard the
        // single group is exactly the union.
        let mut per_primary: Vec<Vec<CellId>> = vec![Vec::new(); d];
        for (ring, &p) in rings.iter().zip(&primaries) {
            per_primary[p].extend_from_slice(ring);
        }
        for (p, mut cells) in per_primary.into_iter().enumerate() {
            if cells.is_empty() {
                continue;
            }
            cells.sort_unstable();
            cells.dedup();
            let sh = shards.shard_mut(p);
            let staged = sh.topo.stage(
                &mut sh.device,
                cells.iter().map(|&c| (c, grid.topology(c).bytes())),
            );
            shared.candidate += staged.time;
            shared.h2d_topo_bytes += staged.bytes;
            shared.h2d_bytes += staged.bytes;
            shared.topo_hits += staged.hits as usize;
            shared.topo_misses += staged.misses as usize;
            shared.h2d_coalesced_saved += staged.transactions_saved;
            timeline.push(device_stream(d, p), SimNanos::ZERO, staged.time);
            serial_time += staged.time;
        }
    }

    // Charge the clean-cache's host-pinned mirror bytes against the owning
    // devices' residency budgets for the lifetime of the batch, so eviction
    // decisions see the true memory pressure (released before returning).
    let mut cache_charges: Vec<u64> = vec![0; d];
    if let Some(cache) = &cache {
        for (&c, (_, msgs)) in &cache.entries {
            cache_charges[shards.owner_of(c)] += msgs.len() as u64 * CachedMessage::WIRE_BYTES;
        }
        for (i, &bytes) in cache_charges.iter().enumerate() {
            if bytes > 0 {
                let sh = shards.shard_mut(i);
                sh.resident.reserve_external(&mut sh.device, bytes);
            }
        }
    }

    // Stage the queries through the pipeline. The main thread owns the
    // device and the lists; refinement — pure CPU — runs on a worker
    // thread one query behind, so finalising query i happens after the
    // device phase of query i+1 (exactly what the timeline records).
    let n = queries.len();
    let mut answers = Vec::with_capacity(n);
    let mut per_query = Vec::with_capacity(n);

    crossbeam::thread::scope(|s| {
        let cache = cache.as_ref();
        // (pending state, refine handle, device-phase end time, primary)
        let mut in_flight = None;
        for (&(q, k), &primary) in queries.iter().zip(&primaries) {
            let mut pending = knn_device_phase(shards, grid, lists, pool, config, q, k, now, cache);
            // Compute on the primary shard's device stream, copy-back on
            // its transfer stream (ordered after the compute). Refinement
            // reads the copied-back results, so it waits for the transfer
            // end; the next query's kernels only wait for the compute end
            // — and only if they share the primary.
            let gpu = pending.breakdown.gpu_total();
            let copy_back = pending.breakdown.copy_back;
            let compute_end = timeline.push(
                device_stream(d, primary),
                SimNanos::ZERO,
                SimNanos(gpu.0 - copy_back.0),
            );
            let device_end = timeline.push(transfer_stream(d, primary), compute_end, copy_back);
            serial_time += gpu;
            // Cooperative SDist rounds also occupied other shards'
            // devices; charge those legs on their own device streams so
            // cross-query contention there is modeled. They ran
            // concurrently with the primary's round (the breakdown
            // already carries the max), not after it.
            for &(shard, t) in &pending.remote_ns {
                timeline.push(device_stream(d, shard), SimNanos::ZERO, t);
                serial_time += t;
            }

            if let Some((prev, handle, prev_device_end, prev_primary)) = in_flight.take() {
                finalize_one(
                    shards,
                    grid,
                    lists,
                    pool,
                    config,
                    now,
                    prev,
                    handle,
                    prev_device_end,
                    prev_primary,
                    cache,
                    &mut timeline,
                    &mut serial_time,
                    &mut answers,
                    &mut per_query,
                );
            }

            // Hand the refinement inputs to a worker; the next loop
            // iteration drives the device while it runs. The candidate set
            // travels to the worker and comes back with the outcome.
            let unresolved = pending.unresolved.clone();
            let cells = std::mem::take(&mut pending.cells);
            let l = pending.l;
            let workers = config.refine_workers;
            let handle = s.spawn(move |_| {
                let refined = refine_unresolved(grid, &unresolved, l, cells.tags(), workers, pool);
                (refined, cells)
            });
            in_flight = Some((pending, handle, device_end, primary));
        }
        if let Some((prev, handle, prev_device_end, prev_primary)) = in_flight.take() {
            finalize_one(
                shards,
                grid,
                lists,
                pool,
                config,
                now,
                prev,
                handle,
                prev_device_end,
                prev_primary,
                cache,
                &mut timeline,
                &mut serial_time,
                &mut answers,
                &mut per_query,
            );
        }
    })
    .expect("batch scope failed");

    // Release the clean-cache's budget charges: the cache dies with the
    // batch.
    for (i, &bytes) in cache_charges.iter().enumerate() {
        if bytes > 0 {
            shards.shard_mut(i).resident.release_external(bytes);
        }
    }

    // Attribute the shared pass: each query absorbs its proportional
    // share, and the shares telescope exactly to the shared totals.
    if !per_query.is_empty() {
        for (b, share) in per_query.iter_mut().zip(shared.split_shares(&weights)) {
            b.absorb(&share);
        }
    }

    BatchResult {
        answers,
        shared,
        per_query,
        shared_cells: union.len(),
        pipelined_time: timeline.makespan(),
        serial_time,
    }
}

/// Join a query's refinement, finalise it, and record its host/device
/// operations on the timeline.
#[allow(clippy::too_many_arguments)]
fn finalize_one<'scope>(
    shards: &mut ShardSet,
    grid: &GraphGrid,
    lists: &CellLists,
    pool: &ScratchPool,
    config: &GGridConfig,
    now: Timestamp,
    mut pending: crate::knn::PendingKnn,
    handle: crossbeam::thread::ScopedJoinHandle<'scope, (crate::knn::RefineOutcome, CellSet)>,
    device_end: SimNanos,
    primary: usize,
    cache: Option<&BatchCleanCache>,
    timeline: &mut StreamTimeline,
    serial_time: &mut SimNanos,
    answers: &mut Vec<Vec<(ObjectId, Distance)>>,
    per_query: &mut Vec<QueryBreakdown>,
) {
    let d = shards.num_shards();
    let (refined, cells) = handle.join().expect("refinement worker panicked");
    pending.cells = cells;

    // Host stream: the refinement, eligible once its device phase ended.
    // Charged at its critical path (busiest worker) — the modeled duration
    // on a host with enough free cores, consistent with the simulated
    // device clock on the other stream.
    let refine_end = timeline.push(host_stream(d), device_end, SimNanos(refined.critical_ns));
    *serial_time += SimNanos(refined.critical_ns);

    let gpu_before = pending.breakdown.gpu_total();
    let copy_back_before = pending.breakdown.copy_back;
    let result = knn_finalize(
        shards, grid, lists, config, now, pending, refined, pool, cache,
    );

    // Primary device stream: the finalisation's lazy cleaning, after the
    // refine; its copy-back again overlaps on the transfer stream.
    let finalize_gpu = SimNanos(result.breakdown.gpu_total().0 - gpu_before.0);
    let finalize_copy = SimNanos(result.breakdown.copy_back.0 - copy_back_before.0);
    let compute_end = timeline.push(
        device_stream(d, primary),
        refine_end,
        SimNanos(finalize_gpu.0 - finalize_copy.0),
    );
    timeline.push(transfer_stream(d, primary), compute_end, finalize_copy);
    *serial_time += finalize_gpu;

    answers.push(result.items);
    per_query.push(result.breakdown);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::GGridServer;
    use roadnet::{gen, EdgeId};

    fn loaded_server_with(config: GGridConfig) -> GGridServer {
        let g = gen::toy(77);
        let s = GGridServer::new(g.clone(), config);
        for o in 0..40u64 {
            for t in 0..5u64 {
                let e = EdgeId(((o * 11 + t) % g.num_edges() as u64) as u32);
                s.handle_update(ObjectId(o), EdgePosition::at_source(e), Timestamp(100 + t));
            }
        }
        s
    }

    fn loaded_server() -> GGridServer {
        loaded_server_with(GGridConfig {
            eta: 4,
            ..Default::default()
        })
    }

    fn queries() -> Vec<(EdgePosition, usize)> {
        (0..6u32)
            .map(|i| (EdgePosition::at_source(EdgeId(i * 13 % 160)), 4usize))
            .collect()
    }

    #[test]
    fn batch_matches_individual_queries() {
        let mut a = loaded_server();
        let mut b = loaded_server();
        let queries = queries();
        let batch = a.knn_batch(&queries, Timestamp(500));
        let individual: Vec<_> = queries
            .iter()
            .map(|&(q, k)| b.knn(q, k, Timestamp(500)))
            .collect();
        assert_eq!(batch.answers, individual);
    }

    #[test]
    fn batch_matches_individual_with_worker_pool() {
        // Same identity under a multi-threaded refinement pool.
        let config = GGridConfig {
            eta: 4,
            refine_workers: 4,
            ..Default::default()
        };
        let mut a = loaded_server_with(config.clone());
        let mut b = loaded_server();
        let queries = queries();
        let batch = a.knn_batch(&queries, Timestamp(500));
        let individual: Vec<_> = queries
            .iter()
            .map(|&(q, k)| b.knn(q, k, Timestamp(500)))
            .collect();
        assert_eq!(batch.answers, individual);
    }

    #[test]
    fn batch_shares_cleaning() {
        let mut a = loaded_server();
        let mut b = loaded_server();
        let queries = queries();
        let batch = a.knn_batch(&queries, Timestamp(500));
        // The batch's win is device time: one big pipelined pass replaces
        // many small launches and transfers with per-call overheads, and
        // the batch clean-cache spares the per-query re-cleans afterwards.
        let mut individual_gpu = gpu_sim::SimNanos::ZERO;
        for &(q, k) in &queries {
            b.knn(q, k, Timestamp(500));
            individual_gpu += b.last_breakdown().gpu_total();
        }
        let batch_gpu = batch.gpu_total();
        assert!(
            batch_gpu <= individual_gpu,
            "batched device time must not exceed individual ({batch_gpu} vs {individual_gpu})"
        );
        assert!(batch.shared.messages_cleaned > 0);
        assert!(batch.shared_cells > 0);
        // The shared pass consolidated the union; the per-query pipelines
        // must have hit the batch cache.
        let skips: usize = batch.per_query.iter().map(|b| b.cells_skipped).sum();
        assert!(skips > 0, "per-query passes should skip shared cells");
    }

    #[test]
    fn shared_pass_attributed_exactly() {
        let mut s = loaded_server();
        let batch = s.knn_batch(&queries(), Timestamp(500));
        // The per-query breakdowns absorb the shared pass exactly: their
        // message totals cover the shared pass's messages, and the batch
        // total equals serial per-query accounting (shared included once).
        let msgs: usize = batch.per_query.iter().map(|b| b.messages_cleaned).sum();
        assert!(msgs >= batch.shared.messages_cleaned);
        let per_query_gpu = batch.gpu_total();
        assert!(per_query_gpu >= batch.shared.gpu_total());
        let launches: u64 = batch.per_query.iter().map(|b| b.kernel_launches).sum();
        assert!(launches >= batch.shared.kernel_launches);
    }

    #[test]
    fn upfront_staging_pays_one_latency() {
        // Fresh server, cold topology store: the fused path stages the
        // whole union in one transaction and records the saved ones.
        let mut s = loaded_server();
        let batch = s.knn_batch(&queries(), Timestamp(500));
        assert!(batch.shared.topo_misses > 0, "cold store must miss");
        assert_eq!(
            batch.shared.h2d_coalesced_saved,
            batch.shared.topo_misses as u64 - 1
        );
    }

    #[test]
    fn pipelined_makespan_bounded_by_serial() {
        let mut s = loaded_server();
        let batch = s.knn_batch(&queries(), Timestamp(500));
        assert!(batch.pipelined_time <= batch.serial_time);
        assert!(batch.serial_time > SimNanos::ZERO);
    }

    #[test]
    fn empty_batch() {
        let mut s = loaded_server();
        let batch = s.knn_batch(&[], Timestamp(500));
        assert!(batch.answers.is_empty());
        assert_eq!(batch.shared.messages_cleaned, 0);
        assert_eq!(batch.shared_cells, 0);
        assert_eq!(batch.pipelined_time, SimNanos::ZERO);
    }

    #[test]
    fn cache_rejects_stale_epochs() {
        // Build a cache over a consolidated cell, dirty it, and check the
        // lookup refuses the stale entry.
        let mut sv = loaded_server();
        sv.clean_all(Timestamp(500));
        let cell = sv.grid().cell_of_edge(EdgeId(0));
        let union = [cell];
        let cleaned = CleanedObjects::default();
        let cache = BatchCleanCache::build(sv.cell_lists(), &union, &cleaned);
        assert!(cache.lookup(sv.cell_lists(), cell).is_some());
        // A new message moves the epoch; the entry must go stale.
        sv.handle_update(
            ObjectId(999),
            EdgePosition::at_source(EdgeId(0)),
            Timestamp(600),
        );
        assert!(cache.lookup(sv.cell_lists(), cell).is_none());
    }
}
