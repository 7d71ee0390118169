//! Multi-query batch processing.
//!
//! The paper's "G-Grid" series in Fig 5 reports the *overall* response time
//! of a query stream, which beats the per-query sum ("G-Grid (L)") because
//! the server processes multiple queries in parallel: their message
//! cleaning shares one device pass, and host refinement of one query
//! overlaps device work of another.
//!
//! `run_knn_batch` makes the **batch** the unit of device work:
//!
//! * **Batch-fused cleaning** — the union of all queries' planned first
//!   cleaning rounds, as the query planner draws them from the live-object
//!   tallies before any object is known ([`crate::knn`]), is cleaned in
//!   one X-shuffle round per owning device (one kernel launch, one chunked
//!   H2D schedule, one copy-back). The round's output records each cell's
//!   list epoch, so it is itself the cache every per-query pipeline serves
//!   those cells from, at zero device cost while the epoch holds — no
//!   re-launch, no re-upload, not even a list freeze. Each query's own
//!   later rounds follow its plan as they would outside a batch.
//! * **Coalesced topology staging** — the CSR slices of the queries' first
//!   rings (the cells around each query, which every SDist round of it
//!   contains) are staged onto each primary in one transfer (one PCIe
//!   latency for all misses) before the first query runs, so the
//!   per-query `GPU_SDist` rounds hit the resident topology store. The
//!   rest of a planned first round is staged by whichever devices the
//!   planner places its SDist work on.
//! * **Overlapped refinement** — queries are staged through the
//!   device-phase → refine → finalise pipeline of [`crate::knn`], one
//!   query behind: query *i* is finalised after query *i+1*'s device
//!   phase. The host runs each refinement inline, right after its own
//!   device phase; the overlap of query *i*'s refinement with query
//!   *i+1*'s device work is modeled on a [`StreamTimeline`], which
//!   charges the refinement's critical path to the host stream from the
//!   end of query *i*'s result copy. The timeline has one device stream
//!   and one copy stream *per shard* plus one host stream (`2D + 1`
//!   streams; `D = 1` degenerates to the classic device/copy/host trio),
//!   yielding the batch's pipelined makespan next to the serial sum of the
//!   same operations.
//! * **Overlapped copies** — every device-to-host copy runs on its
//!   device's copy stream, ready at the end of its own compute: the
//!   cleaning copy-backs and each query's result copy (the candidate and
//!   unresolved sets refinement reads). The next query's kernels wait only
//!   for compute, so queries sharing a primary no longer pay one link
//!   latency each, back to back.
//! * **Empty operations hold nothing** — an operation of zero length does
//!   not move its stream's clock. Most finalisations clean nothing on the
//!   device (their cells are skip-served), so the next query's kernels do
//!   not wait behind the earlier query's refinement for them.
//!
//! Under sharding (`num_devices > 1`) the shared cleaning pass is routed
//! per owning shard and those legs run concurrently on their own streams;
//! each query's kernels occupy only its primary shard's streams, so
//! disjoint queries overlap across devices. A cooperative SDist round's
//! remote legs go on their own devices' streams, starting no earlier than
//! their query's device phase.
//!
//! **Attribution.** The shared pass is real per-query work done once, so
//! its cost is split across the queries proportionally to how much of the
//! union each asked for: query *i*'s weight is `Σ_{c ∈ round_i} 1/mult(c)`,
//! where `mult(c)` counts the queries whose planned first round contains
//! `c` — a cell wanted by four queries bills each a quarter. The integer split
//! ([`crate::stats::split_u64`]) telescopes exactly, so the per-query
//! breakdowns sum to precisely the work the batch did and
//! [`BatchResult::gpu_total`] needs no separate shared term. The unsplit
//! record stays available in [`BatchResult::shared`] for diagnostics.
//!
//! Answers are byte-identical to running `run_knn` per query
//! in input order: cleaning is semantically idempotent (a query's view of
//! a cell's live objects does not depend on when the cell was last
//! consolidated), the cache returns exactly what a fresh clean or a
//! clean-skip snapshot of the same epoch would, and the refinement merge
//! is order-independent. DESIGN.md §5.6 carries the full argument.

use gpu_sim::{SimNanos, StreamTimeline};
use roadnet::graph::Distance;
use roadnet::EdgePosition;

use crate::cleaning::CleanedObjects;
use crate::grid::CellId;
use crate::knn::{
    first_ring, first_round, knn_device_phase, knn_finalize, refine_unresolved, QueryEnv,
};
use crate::message::{CachedMessage, ObjectId, Timestamp};
use crate::shard::ShardSet;
use crate::stats::QueryBreakdown;

/// The batch's modeled schedule over `d` shards: a [`StreamTimeline`] with
/// shard `i`'s device stream at index `i`, its copy stream at `d + i` and
/// the single host (refinement) stream last, plus the serial sum of the
/// same operations. `d = 1` reproduces the original device/copy/host trio.
///
/// Every device-to-host copy goes on its device's copy stream: the cleaning
/// copy-backs and each query's result copy alike. A copy starts at the end
/// of its own compute, so the next kernel on the device stream waits only
/// for compute, while the host-side reader (refinement) waits for the copy.
///
/// Only work that runs holds a stream: an operation of zero length (a
/// finalisation whose lazy clean ran nothing on the device, a query with no
/// copies, a cooperative leg of zero length) passes its ready time on to
/// its dependents but does not move its stream's end
/// ([`StreamTimeline::push`]). So the next query's kernels never wait for an
/// earlier query's refinement unless that query's finalisation really
/// cleaned something on the device.
struct Schedule {
    d: usize,
    timeline: StreamTimeline,
    serial: SimNanos,
}

impl Schedule {
    fn new(d: usize) -> Self {
        Self {
            d,
            timeline: StreamTimeline::new(2 * d + 1),
            serial: SimNanos::ZERO,
        }
    }

    /// Topology staging of `dur` on `shard`'s device stream, with no
    /// dependency.
    fn stage(&mut self, shard: usize, dur: SimNanos) {
        self.serial += dur;
        self.timeline.push(shard, SimNanos::ZERO, dur);
    }

    /// Device work of `total` on `shard`, ready at `ready`: its compute on
    /// the device stream, then its `copies` on the copy stream. Returns the
    /// copy end.
    fn device(
        &mut self,
        shard: usize,
        ready: SimNanos,
        total: SimNanos,
        copies: SimNanos,
    ) -> SimNanos {
        let compute_end = self.timeline.push(shard, ready, total - copies);
        self.serial += total;
        self.timeline.push(self.d + shard, compute_end, copies)
    }

    /// One query's device phase: `total` on its `primary`, of which
    /// `copies` are device-to-host copies (cleaning copy-backs and the
    /// result copy), plus the remote `legs` of its cooperative SDist rounds
    /// on their own devices' streams. The legs ran concurrently with the
    /// primary's round (`total` already carries the max), so none starts
    /// before the query's compute does. Returns the copy end, where
    /// refinement may start.
    fn query(
        &mut self,
        primary: usize,
        total: SimNanos,
        copies: SimNanos,
        legs: &[(usize, SimNanos)],
    ) -> SimNanos {
        let start = self.timeline.end(primary);
        let copy_end = self.device(primary, SimNanos::ZERO, total, copies);
        for &(shard, t) in legs {
            self.serial += t;
            self.timeline.push(shard, start, t);
        }
        copy_end
    }

    /// Host work of `ns`, ready at `ready`; returns its end.
    fn host(&mut self, ready: SimNanos, ns: u64) -> SimNanos {
        self.serial += SimNanos(ns);
        self.timeline.push(2 * self.d, ready, SimNanos(ns))
    }
}

/// Weight scale for the proportional attribution of the shared pass:
/// `lcm(1..=13)`, so `ATTR_SCALE / mult` is exact for any realistic cell
/// multiplicity (larger multiplicities round down harmlessly — only the
/// ratios matter, and the integer split preserves totals regardless).
const ATTR_SCALE: u64 = 720_720;

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
    /// (the size of the union of the planned first rounds).
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
pub(crate) fn run_knn_batch(
    shards: &mut ShardSet,
    env: QueryEnv,
    queries: &[(EdgePosition, usize)],
    now: Timestamp,
) -> BatchResult {
    let QueryEnv {
        grid,
        lists,
        pool,
        config,
    } = env;
    let d = shards.num_shards();

    // Per-query planned first rounds and their union; cell multiplicities
    // drive the attribution weights. A query's *primary* shard — where its
    // kernels run — owns its own cell.
    let mut rounds: Vec<Vec<CellId>> = Vec::with_capacity(queries.len());
    let mut primaries: Vec<usize> = Vec::with_capacity(queries.len());
    for &(q, k) in queries {
        primaries.push(shards.owner_of(grid.cell_of_edge(q.edge)));
        rounds.push(first_round(shards, env, q, k));
    }
    // Every round cell once per round holding it, sorted: a cell's run
    // length is its multiplicity.
    let mut union: Vec<CellId> = rounds.concat();
    union.sort_unstable();
    let multiplicity =
        |c: &CellId| union.partition_point(|x| x <= c) - union.partition_point(|x| x < c);
    let weights: Vec<u64> = rounds
        .iter()
        .map(|round| {
            round
                .iter()
                .map(|c| ATTR_SCALE / multiplicity(c) as u64)
                .sum()
        })
        .collect();
    union.dedup();

    let mut schedule = Schedule::new(d);

    let mut shared = QueryBreakdown::default();
    let mut cache: Option<CleanedObjects> = None;
    if !union.is_empty() && !queries.is_empty() {
        let launches0 = shards.total_launches();
        let t0 = std::time::Instant::now();
        // The fused pass routes each union cell to its owning shard; the
        // per-shard legs are independent and run concurrently on their own
        // device streams, each settling its copy-back at once.
        let (cleaned, reports) = shards.clean_cells_routed(lists, &union, config, now);
        cache = Some(cleaned);
        for (owner, rep) in &reports {
            let copy_back = shards.settle(*owner, rep);
            shared.record_cleaning(rep, copy_back);
            // Copy-back is strictly after this leg's compute but runs on
            // the owner's copy stream, so the first query's device
            // phase starts as soon as the kernel is done — not when the
            // result lands on host.
            let total = rep.compute_time + copy_back;
            schedule.device(*owner, SimNanos::ZERO, total, copy_back);
        }
        shared.emulation_ns = t0.elapsed().as_nanos() as u64;
        shared.kernel_launches = shards.total_launches() - launches0;

        // Stage each primary group's first rings in one coalesced transfer
        // per shard, so the per-query sdist rounds find the CSR slices
        // around each query resident on the device they will run on. The
        // cells further out are left to the SDist placement: staging them
        // all on the primary would price every round onto it.
        let mut per_primary: Vec<Vec<CellId>> = vec![Vec::new(); d];
        for (&(q, _), &p) in queries.iter().zip(&primaries) {
            per_primary[p].extend(first_ring(grid, grid.cell_of_edge(q.edge)));
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
            schedule.stage(p, staged.time);
        }
    }

    // Charge the shared pass's cleaned lists (host-pinned mirror bytes)
    // against the owning devices' residency budgets for the lifetime of the
    // batch, so eviction decisions see the true memory pressure (released
    // before returning).
    let mut cache_charges: Vec<u64> = vec![0; d];
    if let Some(cache) = &cache {
        for (c, msgs) in cache.iter() {
            cache_charges[shards.owner_of(c)] += msgs.len() as u64 * CachedMessage::WIRE_BYTES;
        }
        for (i, &bytes) in cache_charges.iter().enumerate() {
            if bytes > 0 {
                let sh = shards.shard_mut(i);
                sh.resident.reserve_external(&mut sh.device, bytes);
            }
        }
    }

    // Stage the queries through the pipeline, one query behind: each
    // iteration runs query i's device phase and refinement, then finalises
    // query i-1, so the device operations keep the pipelined order. The
    // host runs each refinement inline, right after its own device phase;
    // the timeline models it overlapping the next query's device phase, on
    // the host stream from its own device end.
    let mut answers = Vec::with_capacity(queries.len());
    let mut per_query = Vec::with_capacity(queries.len());
    let cache = cache.as_ref();
    // (pending state, refinement, device-phase end, primary)
    let mut in_flight = None;
    // Every query, then `None` to drain the last one.
    let queued = queries.iter().zip(&primaries).map(Some).chain([None]);
    for query in queued {
        let started = query.map(|(&(q, k), &primary)| {
            let pending = knn_device_phase(shards, env, q, k, now, cache);
            // Refinement reads the copied-back results, so it waits for
            // the copy end; the next query's kernels only wait for the
            // compute end, and only if they share the primary.
            let b = &pending.breakdown;
            let device_end = schedule.query(
                primary,
                b.gpu_total(),
                b.copy_back + b.transfer_out,
                &pending.remote_ns,
            );
            let refined = refine_unresolved(grid, &pending, config.host_workers, pool);
            (pending, refined, device_end, primary)
        });

        // Query i-1 leaves the pipeline as query i enters it.
        let finished = std::mem::replace(&mut in_flight, started);
        if let Some((pending, refined, device_end, primary)) = finished {
            // Host stream: the refinement, eligible once its device phase
            // ended, charged at its critical path (busiest worker) — the
            // modeled duration on a host with enough free cores.
            let refine_end = schedule.host(device_end, refined.critical_ns);
            let gpu_before = pending.breakdown.gpu_total();
            let copy_back_before = pending.breakdown.copy_back;
            let result = knn_finalize(shards, env, now, pending, refined, cache);
            // Primary device stream: the finalisation's lazy cleaning,
            // after the refine; its copy-back again overlaps on the
            // copy stream.
            schedule.device(
                primary,
                refine_end,
                result.breakdown.gpu_total() - gpu_before,
                result.breakdown.copy_back - copy_back_before,
            );
            answers.push(result.items);
            per_query.push(result.breakdown);
        }
    }

    // Release the shared pass's budget charges: its output dies with the
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
        pipelined_time: schedule.timeline.makespan(),
        serial_time: schedule.serial,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GGridConfig;
    use crate::knn::golden::Digest;
    use crate::server::GGridServer;
    use gpu_sim::{Device, DeviceSpec};
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
        // Same identity with several host workers.
        let queries = queries();
        let mut b = loaded_server();
        let individual: Vec<_> = queries
            .iter()
            .map(|&(q, k)| b.knn(q, k, Timestamp(500)))
            .collect();
        for host_workers in [2usize, 4] {
            let mut a = loaded_server_with(GGridConfig {
                eta: 4,
                host_workers,
                ..Default::default()
            });
            let batch = a.knn_batch(&queries, Timestamp(500));
            assert_eq!(batch.answers, individual, "host_workers={host_workers}");
        }
    }

    #[test]
    fn batch_shares_cleaning() {
        let mut a = loaded_server();
        let mut b = loaded_server();
        let queries = queries();
        let batch = a.knn_batch(&queries, Timestamp(500));
        // The batch's win is device time: one big pipelined pass replaces
        // many small launches and transfers with per-call overheads, and
        // the shared pass's output spares the per-query re-cleans afterwards.
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
    fn result_copies_overlap_the_next_query() {
        let ns = SimNanos;
        // One device: two queries of 30 ns, 10 of them copies.
        let mut s = Schedule::new(1);
        let copy0 = s.query(0, ns(30), ns(10), &[]);
        assert_eq!(copy0, ns(30), "compute 0..20, copy 20..30");
        let copy1 = s.query(0, ns(30), ns(10), &[]);
        // Query 1's compute starts at query 0's compute end (20), not at
        // the end of its copy (30).
        assert_eq!(copy1, ns(50), "compute 20..40, copy 40..50");
        // Refinement waits for its query's copy.
        assert_eq!(s.host(copy0, 5), ns(35));
        assert_eq!(s.host(copy1, 5), ns(55));
        assert_eq!(s.serial, ns(70));
        assert!(s.timeline.makespan() <= s.serial);
        assert_eq!(s.timeline.makespan(), ns(55));

        // Two devices: a query on device 0 queued behind 20 ns of compute,
        // with a 5 ns remote leg on device 1. The leg starts with its query
        // (20), not at time zero.
        let mut s = Schedule::new(2);
        s.query(0, ns(20), ns(0), &[]);
        let end = s.query(0, ns(15), ns(5), &[(1, ns(5))]);
        assert_eq!(end, ns(35), "compute 20..30, copy 30..35");
        assert_eq!(s.timeline.end(1), ns(25), "leg 20..25 on device 1");
        assert_eq!(s.serial, ns(40));
        assert!(s.timeline.makespan() <= s.serial);
    }

    #[test]
    fn empty_finalisation_does_not_hold_the_device() {
        let ns = SimNanos;
        // One device: query 0 (20 ns, no copies) refines for 50 ns; its
        // finalisation is ready at the refinement's end (70). Query 1's
        // compute comes after that finalisation on the device stream.
        let run = |finalise: SimNanos| {
            let mut s = Schedule::new(1);
            let end0 = s.query(0, ns(20), ns(0), &[]);
            let refine_end = s.host(end0, 50);
            s.device(0, refine_end, finalise, ns(0));
            let end1 = s.query(0, ns(20), ns(0), &[]);
            assert!(s.timeline.makespan() <= s.serial);
            (end1, s.timeline.makespan(), s.serial)
        };
        // Nothing cleaned on the device: query 1 runs right after query 0's
        // compute, overlapping the refinement.
        assert_eq!(run(ns(0)), (ns(40), ns(70), ns(90)));
        // A real clean still holds the device until it is done.
        assert_eq!(run(ns(5)), (ns(95), ns(95), ns(95)));
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

    /// The batch's device operations, recorded once from a known-good
    /// build at one and four devices: a digest of the answers, a digest of
    /// each query's device counters, and the device-only part of the serial
    /// time (the serial sum minus the measured refinement in it). Where and
    /// when the host runs refinement must not move any of them; a plan
    /// change moves the last two, never the answers.
    #[test]
    fn batch_device_order_matches_golden() {
        let queries: Vec<(EdgePosition, usize)> = (0..12u32)
            .map(|i| {
                let q = EdgePosition::at_source(EdgeId(i * 29 % 160));
                (q, 1 + (i as usize * 5) % 8)
            })
            .collect();
        let mut got = Vec::new();
        for d in [1usize, 4] {
            let mut s = loaded_server_with(GGridConfig {
                eta: 4,
                num_devices: d,
                ..Default::default()
            });
            let batch = s.knn_batch(&queries, Timestamp(500));
            let (mut answers, mut counters) = (Digest::new(), Digest::new());
            for (answer, b) in batch.answers.iter().zip(&batch.per_query) {
                answers.word(answer.len() as u64);
                for &(o, dist) in answer {
                    answers.word(o.0);
                    answers.word(dist);
                }
                counters.word(b.gpu_total().0);
                counters.word(b.copy_back.0);
                counters.word(b.topo_hits as u64);
                counters.word(b.topo_misses as u64);
                counters.word(b.cells_skipped as u64);
                counters.word(b.kernel_launches);
            }
            let refine: u64 = batch.per_query.iter().map(|b| b.refine_critical_ns).sum();
            assert!(refine > 0, "the batch must refine at D = {d}");
            got.push((answers.0, counters.0, batch.serial_time.0 - refine));
        }
        let want = [
            (
                17_933_386_209_648_488_112,
                2_798_516_273_969_838_814,
                375_110,
            ),
            (
                17_933_386_209_648_488_112,
                16_205_375_463_710_603_615,
                508_268,
            ),
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn cache_rejects_stale_epochs() {
        // A round's output serves a cell only while no message has landed
        // in it since: every cell it read (empty ones included) is current
        // until a new message moves that cell's epoch.
        let sv = loaded_server();
        let (grid, lists, config) = (sv.grid(), sv.cell_lists(), sv.config());
        let device = Device::new(DeviceSpec::test_tiny());
        let mut shards = ShardSet::single(device, config, grid.num_cells());
        let cells: Vec<CellId> = grid.cell_ids().collect();
        let (cleaned, ..) = shards.clean_cells(lists, &cells, config, Timestamp(500));
        assert!(cells.iter().all(|&c| cleaned.current(lists, c).is_some()));
        assert!(cells.iter().any(|&c| cleaned[c].is_empty()));
        let cell = grid.cell_of_edge(EdgeId(0));
        sv.handle_update(
            ObjectId(999),
            EdgePosition::at_source(EdgeId(0)),
            Timestamp(600),
        );
        assert!(cleaned.current(lists, cell).is_none());
        assert!(cells
            .iter()
            .all(|&c| c == cell || cleaned.current(lists, c).is_some()));
    }

    #[test]
    fn shared_pass_cleans_the_planned_first_rings() {
        let mut s = loaded_server();
        let queries = queries();
        let (grid, lists, config) = (s.grid(), s.cell_lists(), s.config());
        // Each query's planned first round, drawn ring by ring: its first
        // ring, then each next ring while the rings so far tally fewer live
        // objects than ⌈ρk⌉.
        let planned = |q: EdgePosition, k: usize| -> Vec<CellId> {
            let target = ((config.rho * k as f64).ceil() as usize).max(k);
            let mut round: Vec<CellId> = first_ring(grid, grid.cell_of_edge(q.edge)).collect();
            let mut ring = round.clone();
            let tally =
                |cells: &[CellId]| -> usize { cells.iter().map(|&c| lists.live_objects(c)).sum() };
            while tally(&round) < target {
                let mut next: Vec<CellId> = ring
                    .iter()
                    .flat_map(|&c| grid.neighbors(c).iter().copied())
                    .filter(|c| !round.contains(c))
                    .collect();
                next.sort_unstable();
                next.dedup();
                if next.is_empty() {
                    break;
                }
                round.extend_from_slice(&next);
                ring = next;
            }
            round
        };
        let mut union: Vec<CellId> = queries.iter().flat_map(|&(q, k)| planned(q, k)).collect();
        union.sort_unstable();
        union.dedup();
        let rings: usize = queries
            .iter()
            .flat_map(|&(q, _)| first_ring(grid, grid.cell_of_edge(q.edge)))
            .collect::<std::collections::HashSet<_>>()
            .len();
        assert!(union.len() > rings, "the fixture must merge later rings");
        let batch = s.knn_batch(&queries, Timestamp(500));
        // The shared pass reads each union cell once, cleaning or skipping it.
        assert_eq!(batch.shared_cells, union.len());
        let shared = &batch.shared;
        assert_eq!(shared.cells_cleaned + shared.cells_skipped, union.len());
        assert!(union
            .iter()
            .all(|c| s.cell_lists().lock(c.index()).is_clean()));
    }
}
