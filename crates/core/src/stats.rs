//! Instrumentation: per-query breakdowns and cumulative counters.
//!
//! The paper reports amortised times `(T_u + T_q)/n_q`, DRAM↔GPU transfer
//! volumes and durations (Fig 10 c/d), and kernel-level effects (Fig 4).
//! Everything needed to regenerate those plots is collected here.

use std::sync::atomic::{AtomicU64, Ordering};

use gpu_sim::SimNanos;

use crate::cleaning::CleaningReport;

/// Simulated-device cost of one kNN query, by phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryBreakdown {
    /// Message cleaning: pipelined transfer + X-shuffle kernel (§IV).
    pub cleaning: SimNanos,
    /// Shortest-distance kernel (Algorithm 5) + candidate selection.
    pub candidate: SimNanos,
    /// Result copy back: the candidate and unresolved sets refinement
    /// reads. They ride the staged copy that settles everything the
    /// query's device phase owes its primary; this is their share of it
    /// (the link latency and their wire time). The batch pipeline schedules
    /// it on the primary's copy stream with the cleaning copy-backs, after
    /// the query's compute.
    pub transfer_out: SimNanos,
    /// D2H copy-back portion of `cleaning` (consolidated lists streaming
    /// back to the host): each device's share of the staged copy its
    /// query phase settled there. Modeled as strictly after all cleaning
    /// compute; the batch pipeline schedules it on a dedicated copy stream.
    pub copy_back: SimNanos,
    /// D2H time remote owners spent shipping this query's clean-skipped
    /// lists (`ShardSet::gather_remote_lists`), as their share of the
    /// staged copy settled on each owner. The owners' device ledgers carry
    /// it; [`Self::gpu_total`] does not.
    pub remote_gather: SimNanos,
    /// H2D time of the read-replica promotions this query installed on its
    /// primary (`ShardSet::promote_replicas_coalesced`).
    /// The primary's device ledger carries it; [`Self::gpu_total`] does
    /// not.
    pub replica_promote: SimNanos,
    /// Host→device bytes moved for this query.
    pub h2d_bytes: u64,
    /// Portion of `h2d_bytes` shipped as deltas to device-resident cells.
    pub h2d_delta_bytes: u64,
    /// Portion of `h2d_bytes` shipped as full (cold-path) uploads.
    pub h2d_full_bytes: u64,
    /// Device→host bytes moved for this query.
    pub d2h_bytes: u64,
    /// Live-object counts read back before the phase settled: one small
    /// D2H per device per cleaning round the planner chose the next round
    /// after (inside `cleaning`).
    pub count_reads: u64,
    /// Cells whose lists the cleaning kernel actually processed.
    pub cells_cleaned: usize,
    /// Cells served straight from the epoch-based clean-skip cache (no
    /// kernel launch, no transfer).
    pub cells_skipped: usize,
    /// Cells cleaned through the device-resident delta-merge path (subset
    /// of `cells_cleaned`).
    pub resident_hits: usize,
    /// Resident cells evicted while serving this query (LRU pressure or
    /// staleness).
    pub evictions: u64,
    /// Messages shipped to the device.
    pub messages_cleaned: usize,
    /// Candidate objects considered before refinement.
    pub candidates: usize,
    /// Unresolved boundary vertices refined on the CPU.
    pub unresolved: usize,
    /// Measured wall-clock nanoseconds of the CPU-side phases (expansion
    /// control flow, candidate selection, Dijkstra refinement). Kernel
    /// bodies execute on the host in this reproduction but their cost is
    /// *simulated*, so they are deliberately excluded from this figure.
    pub cpu_ns: u64,
    /// Wall-clock nanoseconds spent emulating device-side work on the host
    /// (the part excluded from `cpu_ns`).
    pub emulation_ns: u64,
    /// Wall-clock nanoseconds of the refinement phase (also included in
    /// `cpu_ns`; broken out so the worker pool's effect is visible).
    pub refine_ns: u64,
    /// Summed busy nanoseconds across all refinement workers. With `w`
    /// workers, `refine_busy_ns / (w * refine_ns)` is pool utilisation.
    pub refine_busy_ns: u64,
    /// Critical path of the refinement pool: the busiest single worker.
    /// This is the phase's modeled duration on a host with at least
    /// `host_workers` free cores — the refinement analogue of the
    /// simulated device clock, so worker scaling stays observable even on
    /// core-starved CI machines where `refine_ns` cannot shrink.
    pub refine_critical_ns: u64,
    /// Simulated device time of the shortest-distance kernel alone,
    /// including its topology upload (subset of `candidate`).
    pub sdist_time: SimNanos,
    /// Relaxation rounds the shortest-distance kernel ran (frontier drains,
    /// summed over robustness retries).
    pub sdist_rounds: u64,
    /// Summed frontier sizes across those rounds.
    pub sdist_frontier_sum: u64,
    /// Largest single-round frontier.
    pub sdist_frontier_max: u64,
    /// Candidate vertices whose final distance the kernel settled.
    pub sdist_settled: u64,
    /// Total candidate vertices in the induced subgraph.
    pub sdist_vertices: u64,
    /// Candidate vertices abandoned by k-bounded pruning (their distance
    /// already exceeded the running k-th candidate bound).
    pub sdist_pruned: u64,
    /// H2D bytes spent uploading candidate-cell topology this query.
    pub h2d_topo_bytes: u64,
    /// Candidate cells whose CSR slice was already device-resident.
    pub topo_hits: usize,
    /// Candidate cells whose CSR slice had to be uploaded.
    pub topo_misses: usize,
    /// PCIe transactions avoided by coalescing H2D transfers: for a staged
    /// upload of `n` segments, `n - 1` per-transfer latency charges are
    /// saved relative to shipping each segment on its own.
    pub h2d_coalesced_saved: u64,
    /// Vertices settled by the CPU refinement searches (each worker's
    /// multi-source search settles a vertex at most once).
    pub refine_settled: u64,
    /// Out-edges examined (relaxation attempts) by the refinement searches.
    pub refine_relaxed: u64,
    /// Simulated kernel launches this query triggered.
    pub kernel_launches: u64,
    /// SDist rounds whose frontier work was scattered across several shard
    /// devices (the cross-shard cooperative path; subset of `sdist_rounds`).
    pub cross_shard_rounds: u64,
    /// Remote cells this query served from a local read-replica instead of
    /// crossing to the owner device.
    pub replica_hits: u64,
    /// Largest number of distinct owner devices any one expansion set of
    /// this query spanned (1 = the whole query stayed on its primary).
    pub ring_span: usize,
}

/// Split `total` into `weights.len()` integer shares proportional to
/// `weights`, preserving the total exactly.
///
/// Cumulative rounding: share *i* is the difference of consecutive rounded
/// prefix targets `⌊total · W_i / W⌋`, so the shares telescope to `total`
/// with no drift regardless of weight skew. All-zero weights fall back to
/// an equal split. Deterministic (pure integer arithmetic).
pub(crate) fn split_u64(total: u64, weights: &[u64]) -> Vec<u64> {
    if weights.is_empty() {
        return Vec::new();
    }
    let sum: u128 = weights.iter().map(|&w| w as u128).sum();
    let ones = vec![1u64; weights.len()];
    let weights = if sum == 0 { &ones[..] } else { weights };
    let sum: u128 = weights.iter().map(|&w| w as u128).sum();
    let mut out = Vec::with_capacity(weights.len());
    let mut acc_w: u128 = 0;
    let mut assigned: u64 = 0;
    for &w in weights {
        acc_w += w as u128;
        let target = (total as u128 * acc_w / sum) as u64;
        out.push(target - assigned);
        assigned = target;
    }
    debug_assert_eq!(assigned, total);
    out
}

impl QueryBreakdown {
    /// Total simulated device time attributable to the query: cleaning,
    /// candidate kernels and the result copy. `remote_gather` and
    /// `replica_promote` stay outside it.
    pub fn gpu_total(&self) -> SimNanos {
        self.cleaning + self.candidate + self.transfer_out
    }

    /// Fold one cleaning round's report into the breakdown — the single
    /// place that knows which [`CleaningReport`] fields a query absorbs, so
    /// the expansion loop, the batch pipeline's shared pass, and the
    /// server's eager-clean entry points cannot drift apart. `copy_back`
    /// is the time of the copy the caller settled for the report
    /// ([`CleaningReport::settle`]); a query that still owes it passes
    /// zero and adds the copy when its phase settles.
    pub(crate) fn record_cleaning(&mut self, rep: &CleaningReport, copy_back: SimNanos) {
        self.cleaning += rep.compute_time + copy_back;
        self.copy_back += copy_back;
        self.h2d_bytes += rep.h2d_bytes;
        self.h2d_delta_bytes += rep.h2d_delta_bytes;
        self.h2d_full_bytes += rep.h2d_full_bytes;
        self.d2h_bytes += rep.d2h_bytes;
        self.messages_cleaned += rep.messages;
        self.cells_cleaned += rep.cells_cleaned;
        self.cells_skipped += rep.cells_skipped;
        self.resident_hits += rep.resident_hits;
        self.evictions += rep.evictions;
    }

    /// The hybrid query clock: measured CPU time + simulated device time.
    pub fn total_ns(&self) -> u64 {
        self.cpu_ns + self.gpu_total().0
    }

    /// Split this breakdown into per-query shares proportional to
    /// `weights`, for attributing a batch's shared pass. Every additive
    /// counter is divided with [`split_u64`], so folding all shares back
    /// with [`Self::absorb`] reconstructs this breakdown exactly (the
    /// max-style fields `sdist_frontier_max` / `refine_workers` are copied,
    /// not divided).
    pub(crate) fn split_shares(&self, weights: &[u64]) -> Vec<QueryBreakdown> {
        let mut out = vec![QueryBreakdown::default(); weights.len()];
        macro_rules! split {
            (nanos $($f:ident),+) => {$(
                for (o, s) in out.iter_mut().zip(split_u64(self.$f.0, weights)) {
                    o.$f = SimNanos(s);
                }
            )+};
            (u64 $($f:ident),+) => {$(
                for (o, s) in out.iter_mut().zip(split_u64(self.$f, weights)) {
                    o.$f = s;
                }
            )+};
            (usize $($f:ident),+) => {$(
                for (o, s) in out.iter_mut().zip(split_u64(self.$f as u64, weights)) {
                    o.$f = s as usize;
                }
            )+};
        }
        split!(nanos cleaning, candidate, transfer_out, copy_back, remote_gather,
               replica_promote, sdist_time);
        split!(u64 h2d_bytes, h2d_delta_bytes, h2d_full_bytes, d2h_bytes, count_reads, evictions,
               cpu_ns, emulation_ns, refine_ns, refine_busy_ns, refine_critical_ns,
               sdist_rounds, sdist_frontier_sum, sdist_settled, sdist_vertices,
               sdist_pruned, h2d_topo_bytes, h2d_coalesced_saved, refine_settled,
               refine_relaxed, kernel_launches, cross_shard_rounds, replica_hits);
        split!(usize cells_cleaned, cells_skipped, resident_hits, messages_cleaned,
               candidates, unresolved, topo_hits, topo_misses);
        for o in &mut out {
            o.sdist_frontier_max = self.sdist_frontier_max;
            o.ring_span = self.ring_span;
        }
        out
    }

    /// Add another breakdown's counters into this one (used to fold a
    /// batch's attributed share into a query's own breakdown). Additive
    /// fields sum; the max-style fields take the max.
    pub(crate) fn absorb(&mut self, other: &QueryBreakdown) {
        macro_rules! add {
            ($($f:ident),+) => { $( self.$f += other.$f; )+ };
        }
        add!(
            cleaning,
            candidate,
            transfer_out,
            copy_back,
            remote_gather,
            replica_promote,
            sdist_time
        );
        add!(
            h2d_bytes,
            h2d_delta_bytes,
            h2d_full_bytes,
            d2h_bytes,
            count_reads,
            evictions,
            cpu_ns,
            emulation_ns,
            refine_ns,
            refine_busy_ns,
            refine_critical_ns,
            sdist_rounds,
            sdist_frontier_sum,
            sdist_settled,
            sdist_vertices,
            sdist_pruned,
            h2d_topo_bytes,
            h2d_coalesced_saved,
            refine_settled,
            refine_relaxed,
            kernel_launches,
            cross_shard_rounds,
            replica_hits
        );
        add!(
            cells_cleaned,
            cells_skipped,
            resident_hits,
            messages_cleaned,
            candidates,
            unresolved,
            topo_hits,
            topo_misses
        );
        self.sdist_frontier_max = self.sdist_frontier_max.max(other.sdist_frontier_max);
        self.ring_span = self.ring_span.max(other.ring_span);
    }

    /// Average refinement concurrency: summed worker-busy time over the
    /// phase's wall time (1.0 ≈ serial, approaching `refine_workers` when
    /// the pool is saturated). `None` when the query had no refinement.
    pub fn refine_concurrency(&self) -> Option<f64> {
        if self.refine_ns == 0 {
            return None;
        }
        Some(self.refine_busy_ns as f64 / self.refine_ns as f64)
    }

    /// Modeled parallel speedup of the refinement pool: serial work volume
    /// over the critical path. Host-core independent — on a single-core
    /// machine the workers time-slice, but the per-worker busy times still
    /// reflect how evenly the work was split. `None` when the query had no
    /// refinement.
    pub fn refine_parallel_speedup(&self) -> Option<f64> {
        if self.refine_critical_ns == 0 {
            return None;
        }
        Some(self.refine_busy_ns as f64 / self.refine_critical_ns as f64)
    }
}

/// Number of buckets in the log-bucketed [`Hist`]: values 0–3 get exact
/// buckets, every octave above splits into 4 sub-buckets (HDR-histogram
/// style, 2 significant bits), up to `u64::MAX`.
pub(crate) const HIST_BUCKETS: usize = 252;

/// Bucket index of `v` in the log-bucketed histogram. Values 0–3 map to
/// buckets 0–3; larger values map to `(h-1)*4 + sub` where `h` is the
/// highest set bit and `sub` the next two bits — so each bucket spans at
/// most 25% of its lower bound and percentile reads stay within that
/// relative error.
#[inline]
pub(crate) fn hist_bucket(v: u64) -> usize {
    if v < 4 {
        return v as usize;
    }
    let h = 63 - v.leading_zeros() as usize;
    let sub = ((v >> (h - 2)) & 3) as usize;
    (h - 1) * 4 + sub
}

/// Inclusive `(lo, hi)` value range of bucket `idx` (inverse of
/// [`hist_bucket`]).
pub(crate) fn hist_bucket_bounds(idx: usize) -> (u64, u64) {
    if idx < 4 {
        return (idx as u64, idx as u64);
    }
    let h = idx / 4 + 1;
    let sub = (idx % 4) as u64;
    let width = 1u64 << (h - 2);
    let lo = (1u64 << h) + sub * width;
    (lo, lo + (width - 1))
}

/// A reusable log-bucketed histogram for latencies, batch sizes, and other
/// non-negative counts. Fixed 252-bucket footprint, `Copy`, mergeable —
/// replaces the ad-hoc fixed-bound `batch_size_hist`-style arrays. Records
/// are O(1); percentiles are read back with ≤25% relative error (exact
/// below 4) and clamped to the true observed max.
#[derive(Clone, Copy, Debug)]
pub struct Hist {
    pub counts: [u64; HIST_BUCKETS],
    pub count: u64,
    pub sum: u64,
    pub max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Self {
            counts: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Hist {
    pub(crate) fn record(&mut self, v: u64) {
        self.counts[hist_bucket(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    pub(crate) fn merge(&mut self, other: &Hist) {
        for (d, s) in self.counts.iter_mut().zip(&other.counts) {
            *d += s;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Nearest-rank percentile (`p` in 0–100): the upper bound of the
    /// bucket holding the `⌈p/100·count⌉`-th smallest value, clamped to
    /// the observed max. Returns 0 on an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return hist_bucket_bounds(idx).1.min(self.max);
            }
        }
        self.max
    }

    /// The non-empty buckets as `(lo, count)` pairs, for compact JSON
    /// emission.
    pub fn nonzero(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (hist_bucket_bounds(i).0, c))
            .collect()
    }
}

/// Lock-free sibling of [`Hist`] for counter paths that take `&self` from
/// many threads (the ingest side, the serve queue). All stores are relaxed;
/// [`Self::snapshot`] folds it into a plain [`Hist`].
pub(crate) struct AtomicHist {
    counts: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl std::fmt::Debug for AtomicHist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AtomicHist")
            .field("count", &self.count.load(Ordering::Relaxed))
            .field("sum", &self.sum.load(Ordering::Relaxed))
            .field("max", &self.max.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for AtomicHist {
    fn default() -> Self {
        Self {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl AtomicHist {
    pub(crate) fn record(&self, v: u64) {
        self.counts[hist_bucket(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> Hist {
        let mut h = Hist::default();
        for (d, s) in h.counts.iter_mut().zip(&self.counts) {
            *d = s.load(Ordering::Relaxed);
        }
        h.count = self.count.load(Ordering::Relaxed);
        h.sum = self.sum.load(Ordering::Relaxed);
        h.max = self.max.load(Ordering::Relaxed);
        h
    }
}

/// Number of buckets in the subscription guard-radius histogram.
pub(crate) const GUARD_HIST_BUCKETS: usize = 8;

/// Upper bounds (inclusive, in weight units) of the guard-radius histogram
/// buckets; the last bucket is open-ended and also absorbs the unbounded
/// (`covers_all`) guards of subscriptions with fewer than k+1 candidates.
pub(crate) const GUARD_HIST_BOUNDS: [u64; GUARD_HIST_BUCKETS - 1] =
    [64, 256, 1_024, 4_096, 16_384, 65_536, 262_144];

/// Histogram bucket index for a guard radius `r`.
pub(crate) fn guard_hist_bucket(r: u64) -> usize {
    GUARD_HIST_BOUNDS
        .iter()
        .position(|&b| r <= b)
        .unwrap_or(GUARD_HIST_BUCKETS - 1)
}

/// The modeled cost of ingestion's structural operations, in nanoseconds.
///
/// The container the reproduction runs on is single-core, so wall-clock
/// ingest time cannot show the batching win; like the simulated device
/// clock and `refine_critical_ns`, these constants model the cost of each
/// *counted* operation so the improvement is deterministic and
/// host-independent. Values are calibrated to uncontended `parking_lot`
/// lock round-trips and small-`Vec` heap traffic on a ~3 GHz core; only
/// the *ratios* matter for the batched-vs-per-call comparison.
pub(crate) mod ingest_model {
    /// One cell-mutex acquire/release pair.
    pub const CELL_LOCK_NS: u64 = 48;
    /// One object-table shard RwLock write acquire/release pair.
    pub const SHARD_LOCK_NS: u64 = 20;
    /// Appending one message to a bucket (slot write + epoch arithmetic).
    pub const APPEND_NS: u64 = 8;
    /// Heap-allocating a fresh bucket slab (avoided by the free-list pool).
    /// Charged once per bucket opened from the heap; a slab growing inside
    /// its bucket as messages arrive is left to the measured clock.
    pub const BUCKET_ALLOC_NS: u64 = 150;
}

/// Cumulative counters for a server's lifetime (drained by benchmarks).
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerCounters {
    pub updates_ingested: u64,
    pub tombstones_written: u64,
    pub queries: u64,
    pub gpu_time: SimNanos,
    pub h2d_bytes: u64,
    pub d2h_bytes: u64,
    pub transfer_time: SimNanos,
    pub messages_cleaned: u64,
    pub kernel_launches: u64,
    /// Cumulative host nanoseconds spent emulating device work.
    pub emulation_ns: u64,
    /// Cells served from the clean-skip cache (kernel launch avoided).
    pub clean_skip_hits: u64,
    /// Cells that needed a real kernel clean.
    pub clean_skip_misses: u64,
    /// H2D bytes shipped as deltas to device-resident cells.
    pub h2d_delta_bytes: u64,
    /// H2D bytes shipped as full (cold-path) uploads.
    pub h2d_full_bytes: u64,
    /// Cells cleaned through the resident delta-merge path.
    pub resident_hits: u64,
    /// Resident cell lists evicted: LRU pressure, staleness, forced
    /// evictions and clears. Topology-slice evictions are not counted here.
    pub evictions: u64,
    /// Cumulative refinement wall time.
    pub refine_ns: u64,
    /// Cumulative summed refinement worker-busy time.
    pub refine_busy_ns: u64,
    /// Cumulative refinement critical-path time (busiest worker per query).
    pub refine_critical_ns: u64,
    /// Cumulative simulated time of the shortest-distance kernel.
    pub sdist_time: SimNanos,
    /// Cumulative shortest-distance relaxation rounds.
    pub sdist_rounds: u64,
    /// Cumulative summed frontier sizes.
    pub sdist_frontier_sum: u64,
    /// Cumulative settled candidate vertices.
    pub sdist_settled: u64,
    /// Cumulative candidate vertices across queries.
    pub sdist_vertices: u64,
    /// Cumulative vertices abandoned by k-bounded pruning.
    pub sdist_pruned: u64,
    /// Cumulative H2D bytes spent on candidate-cell topology.
    pub h2d_topo_bytes: u64,
    /// Candidate cells served from the resident topology store.
    pub topo_hits: u64,
    /// Candidate cells whose topology had to be uploaded.
    pub topo_misses: u64,
    /// Cumulative PCIe transactions avoided by coalesced (staged) H2D
    /// transfers.
    pub h2d_coalesced_saved: u64,
    /// Cumulative vertices settled by CPU refinement searches.
    pub refine_settled: u64,
    /// Cumulative out-edges examined by CPU refinement searches.
    pub refine_relaxed: u64,
    /// Cells cleaned once by a batch's shared pass on behalf of several
    /// queries (the size of each batch's union of planned first rounds,
    /// accumulated).
    pub batch_shared_cells: u64,
    /// Cumulative measured CPU nanoseconds of the query path (the `cpu_ns`
    /// of every recorded breakdown), for throughput figures.
    pub query_cpu_ns: u64,
    /// Non-empty `ingest_batch` and `ingest_buffered` calls (a
    /// `handle_update` call is not a batch).
    pub ingest_batches: u64,
    /// Updates that arrived through `ingest_batch` or `ingest_buffered`
    /// (subset of `updates_ingested`).
    pub batched_updates: u64,
    /// Tombstones emitted by `ingest_batch` and `ingest_buffered` calls
    /// (subset of `tombstones_written`).
    pub tombstones_batched: u64,
    /// Cell-mutex acquisitions performed by the ingest path (the batched
    /// path takes each touched cell's lock once per batch; the per-call
    /// path once per message, twice on a cell move).
    pub ingest_cell_locks: u64,
    /// Measured wall nanoseconds ingest spent blocked on contended cell
    /// mutexes. Uncontended acquisitions are not timed (they read no
    /// clock), so this is 0 on a single ingest thread.
    pub ingest_cell_lock_wait_ns: u64,
    /// Object-table shard-lock acquisitions performed by the ingest path:
    /// one per call of `handle_update`, one per touched shard per call of
    /// `ingest_batch` and `ingest_buffered` (whatever the worker count:
    /// each shard belongs to one worker).
    pub ingest_shard_locks: u64,
    /// Measured wall nanoseconds inside ingest calls, summed across all
    /// ingest workers (the serial work volume).
    pub ingest_busy_ns: u64,
    /// Critical path of the ingest worker pool: the busiest single worker,
    /// per batch, accumulated — the modeled batch duration on a host with
    /// `host_workers` free cores (see `refine_critical_ns`).
    pub ingest_critical_ns: u64,
    /// Ingest batch-size histogram (log-bucketed, see [`Hist`]).
    pub batch_size_hist: Hist,
    /// Message-list bucket slabs heap-allocated.
    pub bucket_allocs: u64,
    /// Message-list bucket slabs recycled from the cleaning free list
    /// (steady-state ingest allocates nothing).
    pub bucket_reuses: u64,
    /// Flushes of the ingest staging store that committed at least one
    /// cell to its shared message list (`ingest_buffered`, `flush_ingest`,
    /// or a direct ingest call finding messages staged). A direct call's
    /// own commit is not a flush.
    pub ingest_flushes: u64,
    /// Messages that passed through the ingest staging store (lifetime;
    /// subset of `updates_ingested + tombstones_written`).
    pub buffered_messages: u64,
    /// High-water mark of the ingest staging store's footprint, in bytes
    /// (gauge).
    pub buffer_bytes_high_water: u64,
    /// Distinct cells whose dirty epoch an ingest commit bumped (the run
    /// heads of the group commit), accumulated.
    pub cells_dirtied: u64,
    /// Currently active kNN subscriptions (gauge, refreshed each tick).
    pub subs_active: u64,
    /// `tick_subscriptions` invocations that found at least one active
    /// subscription.
    pub subs_ticks: u64,
    /// Subscriptions whose guard region intersected a dirtied cell (or
    /// whose result could expire) and were re-validated, accumulated over
    /// ticks.
    pub subs_invalidated: u64,
    /// Invalidated subscriptions repaired by the bounded delta search.
    pub subs_repaired_delta: u64,
    /// Invalidated subscriptions that fell back to a full re-query (guard
    /// exceeded, fewer than k candidates inside the guard, or an unbounded
    /// guard).
    pub subs_repaired_full: u64,
    /// Subscriptions left untouched by a tick because no dirtied cell
    /// intersected their guard region — the re-evaluations avoided.
    pub subs_skipped: u64,
    /// Guard-radius histogram over every (re)computed guard; the bucket
    /// bounds are `GUARD_HIST_BOUNDS` (inclusive; the last is open-ended).
    pub guard_radius_hist: [u64; GUARD_HIST_BUCKETS],
    /// Modeled nanoseconds per `tick_subscriptions` invocation (hybrid
    /// clock: measured host + simulated device), log-bucketed.
    pub subs_tick_ns_hist: Hist,
    /// Measured CPU nanoseconds of the subscription path (initial
    /// evaluations, tick bookkeeping, repairs) — the subscription analogue
    /// of `query_cpu_ns`.
    pub subs_cpu_ns: u64,
    /// Simulated device time consumed by the subscription path (subset of
    /// `gpu_time`).
    pub subs_gpu_time: SimNanos,
    /// Lifetime busy time (simulated kernel + transfer ns) per shard
    /// device; slots `>= num_devices` stay zero (gauge, refreshed on
    /// [`crate::server::GGridServer::counters`]).
    pub shard_busy_ns: [u64; crate::shard::MAX_DEVICES],
    /// Dirtied-cell events attributed to each shard's owned z-range,
    /// accumulated over ingest (only tallied when `num_devices > 1`).
    pub shard_dirtied: [u64; crate::shard::MAX_DEVICES],
    /// Epoch rebalances that actually migrated cells.
    pub rebalances: u64,
    /// Boundary cells re-homed across all rebalances.
    pub cells_migrated: u64,
    /// Read-replicas currently live across all hosting devices (gauge,
    /// refreshed on [`crate::server::GGridServer::counters`]).
    pub replicas_active: u64,
    /// Remote cells served from a local read-replica instead of crossing to
    /// the owner device.
    pub replica_hits: u64,
    /// Replica copies torn down because their cell was written (or its cell
    /// migrated) — the dirtied-cell stream's coherence work.
    pub replica_invalidations: u64,
    /// SDist rounds scattered across several shard devices (the cross-shard
    /// cooperative path).
    pub cross_shard_rounds: u64,
    /// Histogram of each query's widest owner-device span (1 = stayed on
    /// its primary shard; log-bucketed, see [`Hist`]).
    pub ring_span_hist: Hist,
    /// Boundary cells the rebalancer declined to migrate because they were
    /// read-hot but write-cold (replication serves them better).
    pub migrations_skipped_read_hot: u64,
}

impl ServerCounters {
    pub(crate) fn record_query(&mut self, b: &QueryBreakdown) {
        self.record_breakdown(b);
        self.queries += 1;
        self.query_cpu_ns += b.cpu_ns;
        if b.ring_span > 0 {
            self.ring_span_hist.record(b.ring_span as u64);
        }
    }

    /// Fold a subscription-path breakdown (initial evaluation, tick
    /// bookkeeping, delta or full repair) into the lifetime counters. Device
    /// and cleaning work lands in the same global fields as ad-hoc queries
    /// — it is real server work — but the host time is attributed to
    /// `subs_cpu_ns` instead of `query_cpu_ns` and no ad-hoc query is
    /// counted, so `query_cpu_ns` stays an ad-hoc figure and
    /// [`Self::subs_modeled_ns`] a subscription one.
    pub(crate) fn record_subscription(&mut self, b: &QueryBreakdown) {
        self.record_breakdown(b);
        self.subs_cpu_ns += b.cpu_ns;
        self.subs_gpu_time += b.gpu_total();
    }

    fn record_breakdown(&mut self, b: &QueryBreakdown) {
        self.gpu_time += b.gpu_total();
        self.h2d_bytes += b.h2d_bytes;
        self.d2h_bytes += b.d2h_bytes;
        self.messages_cleaned += b.messages_cleaned as u64;
        self.emulation_ns += b.emulation_ns;
        self.clean_skip_hits += b.cells_skipped as u64;
        self.clean_skip_misses += b.cells_cleaned as u64;
        self.h2d_delta_bytes += b.h2d_delta_bytes;
        self.h2d_full_bytes += b.h2d_full_bytes;
        self.resident_hits += b.resident_hits as u64;
        self.evictions += b.evictions;
        self.refine_ns += b.refine_ns;
        self.refine_busy_ns += b.refine_busy_ns;
        self.refine_critical_ns += b.refine_critical_ns;
        self.sdist_time += b.sdist_time;
        self.sdist_rounds += b.sdist_rounds;
        self.sdist_frontier_sum += b.sdist_frontier_sum;
        self.sdist_settled += b.sdist_settled;
        self.sdist_vertices += b.sdist_vertices;
        self.sdist_pruned += b.sdist_pruned;
        self.h2d_topo_bytes += b.h2d_topo_bytes;
        self.topo_hits += b.topo_hits as u64;
        self.topo_misses += b.topo_misses as u64;
        self.h2d_coalesced_saved += b.h2d_coalesced_saved;
        self.refine_settled += b.refine_settled;
        self.refine_relaxed += b.refine_relaxed;
        self.cross_shard_rounds += b.cross_shard_rounds;
        self.replica_hits += b.replica_hits;
    }

    /// Fold one cleaning round's report into the lifetime counters — used
    /// by the server's eager-clean entry points (`clean_cell_of_edge`,
    /// `clean_all`) so neither can silently drop a field the other records.
    /// `copy_back` is the time of the copy-back settled for the report.
    pub(crate) fn record_cleaning(&mut self, rep: &CleaningReport, copy_back: SimNanos) {
        self.gpu_time += rep.compute_time + copy_back;
        self.h2d_bytes += rep.h2d_bytes;
        self.h2d_delta_bytes += rep.h2d_delta_bytes;
        self.h2d_full_bytes += rep.h2d_full_bytes;
        self.d2h_bytes += rep.d2h_bytes;
        self.messages_cleaned += rep.messages as u64;
        self.clean_skip_hits += rep.cells_skipped as u64;
        self.clean_skip_misses += rep.cells_cleaned as u64;
        self.resident_hits += rep.resident_hits as u64;
        self.evictions += rep.evictions;
    }

    /// Modeled nanoseconds the ingest path spent on structural operations
    /// (locks, appends, slab allocations), per the `ingest_model`
    /// constants. Deterministic for a given workload: it counts operations,
    /// not wall time, so the group-commit saving is visible even on a
    /// single-core host where the measured clock cannot shrink.
    pub fn modeled_ingest_ns(&self) -> u64 {
        self.ingest_cell_locks * ingest_model::CELL_LOCK_NS
            + self.ingest_shard_locks * ingest_model::SHARD_LOCK_NS
            + (self.updates_ingested + self.tombstones_written) * ingest_model::APPEND_NS
            + self.bucket_allocs * ingest_model::BUCKET_ALLOC_NS
    }

    /// Measured ingest throughput in updates per second (wall clock,
    /// summed worker-busy time — the serial figure).
    pub fn updates_per_sec_measured(&self) -> f64 {
        if self.ingest_busy_ns == 0 {
            return 0.0;
        }
        self.updates_ingested as f64 * 1e9 / self.ingest_busy_ns as f64
    }

    /// Modeled ingest throughput in updates per second, from
    /// [`Self::modeled_ingest_ns`].
    pub fn updates_per_sec_modeled(&self) -> f64 {
        let ns = self.modeled_ingest_ns();
        if ns == 0 {
            return 0.0;
        }
        self.updates_ingested as f64 * 1e9 / ns as f64
    }

    /// Modeled parallel speedup of the ingest worker pool: summed busy
    /// time over the critical path (see `refine_parallel_speedup`).
    pub fn ingest_parallel_speedup(&self) -> f64 {
        if self.ingest_critical_ns == 0 {
            return 0.0;
        }
        self.ingest_busy_ns as f64 / self.ingest_critical_ns as f64
    }

    /// Total modeled nanoseconds of the subscription path: measured host
    /// time plus simulated device time (the hybrid clock, like
    /// [`QueryBreakdown::total_ns`]).
    pub fn subs_modeled_ns(&self) -> u64 {
        self.subs_cpu_ns + self.subs_gpu_time.0
    }

    /// Modeled nanoseconds per subscription tick.
    pub fn subs_modeled_ns_per_tick(&self) -> u64 {
        self.subs_modeled_ns() / self.subs_ticks.max(1)
    }

    /// Per-tick standing-query evaluations the guard region avoided or
    /// downgraded: skipped entirely or repaired by the bounded delta search,
    /// over all evaluations a re-query-everything server would have run.
    pub fn subs_avoided_rate(&self) -> f64 {
        let total = self.subs_skipped + self.subs_repaired_delta + self.subs_repaired_full;
        if total == 0 {
            return 0.0;
        }
        (self.subs_skipped + self.subs_repaired_delta) as f64 / total as f64
    }

    /// Modeled standing-query throughput: results delivered per second of
    /// subscription-path hybrid-clock time. Every active subscription
    /// delivers one (maintained) result per tick, so skipped subscriptions
    /// count as served — that is the point of the guard region.
    pub fn subs_per_sec_modeled(&self) -> f64 {
        let served = self.subs_skipped + self.subs_repaired_delta + self.subs_repaired_full;
        let ns = self.subs_modeled_ns();
        if ns == 0 {
            return 0.0;
        }
        served as f64 * 1e9 / ns as f64
    }

    /// Fraction of bucket-slab demands served from the cleaning free list.
    pub fn bucket_reuse_rate(&self) -> f64 {
        let total = self.bucket_allocs + self.bucket_reuses;
        if total == 0 {
            return 0.0;
        }
        self.bucket_reuses as f64 / total as f64
    }

    /// Fraction of candidate-cell topology lookups served from the
    /// resident store (no upload owed).
    pub fn topo_hit_rate(&self) -> f64 {
        let total = self.topo_hits + self.topo_misses;
        if total == 0 {
            return 0.0;
        }
        self.topo_hits as f64 / total as f64
    }

    /// Fraction of cell-clean requests served from the epoch cache.
    pub fn clean_skip_hit_rate(&self) -> f64 {
        let total = self.clean_skip_hits + self.clean_skip_misses;
        if total == 0 {
            return 0.0;
        }
        self.clean_skip_hits as f64 / total as f64
    }

    /// Fraction of kernel-cleaned cells that took the resident delta-merge
    /// path instead of a full upload.
    pub fn resident_hit_rate(&self) -> f64 {
        if self.clean_skip_misses == 0 {
            return 0.0;
        }
        self.resident_hits as f64 / self.clean_skip_misses as f64
    }

    /// Average refinement concurrency across the server's lifetime (see
    /// [`QueryBreakdown::refine_concurrency`]).
    pub fn refine_concurrency(&self) -> f64 {
        if self.refine_ns == 0 {
            return 0.0;
        }
        self.refine_busy_ns as f64 / self.refine_ns as f64
    }

    /// Lifetime modeled parallel speedup of refinement (see
    /// [`QueryBreakdown::refine_parallel_speedup`]).
    pub fn refine_parallel_speedup(&self) -> f64 {
        if self.refine_critical_ns == 0 {
            return 0.0;
        }
        self.refine_busy_ns as f64 / self.refine_critical_ns as f64
    }
}

/// Ingest-side counters, kept as atomics so `handle_update` and
/// `ingest_batch` can take `&self` and run from many threads at once. The
/// query-side counters stay in the plain [`ServerCounters`] behind
/// `&mut self`; `GGridServer::counters` merges the two into one snapshot.
#[derive(Debug, Default)]
pub(crate) struct IngestCounters {
    pub updates_ingested: AtomicU64,
    pub tombstones_written: AtomicU64,
    pub ingest_batches: AtomicU64,
    pub batched_updates: AtomicU64,
    pub tombstones_batched: AtomicU64,
    pub cell_locks: AtomicU64,
    pub cell_lock_wait_ns: AtomicU64,
    pub shard_locks: AtomicU64,
    pub busy_ns: AtomicU64,
    pub critical_ns: AtomicU64,
    pub cells_dirtied: AtomicU64,
    /// Bucket slabs the group commits opened from the heap: the ingest
    /// share of [`ServerCounters::bucket_allocs`], which also counts the
    /// slabs cleaning opens.
    pub slabs_opened: AtomicU64,
    pub batch_size_hist: AtomicHist,
    /// Dirtied-cell events per owning shard (tallied only when
    /// `num_devices > 1` — the rebalancer's load signal).
    pub shard_dirtied: [AtomicU64; crate::shard::MAX_DEVICES],
}

impl IngestCounters {
    /// Record one batch of `n` updates in the size histogram.
    pub(crate) fn observe_batch(&self, n: usize) {
        self.ingest_batches.fetch_add(1, Ordering::Relaxed);
        self.batch_size_hist.record(n as u64);
    }

    /// Merge a relaxed snapshot of the atomics into `c`.
    pub(crate) fn merge_into(&self, c: &mut ServerCounters) {
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
        c.updates_ingested += ld(&self.updates_ingested);
        c.tombstones_written += ld(&self.tombstones_written);
        c.ingest_batches += ld(&self.ingest_batches);
        c.batched_updates += ld(&self.batched_updates);
        c.tombstones_batched += ld(&self.tombstones_batched);
        c.ingest_cell_locks += ld(&self.cell_locks);
        c.ingest_cell_lock_wait_ns += ld(&self.cell_lock_wait_ns);
        c.ingest_shard_locks += ld(&self.shard_locks);
        c.ingest_busy_ns += ld(&self.busy_ns);
        c.ingest_critical_ns += ld(&self.critical_ns);
        c.cells_dirtied += ld(&self.cells_dirtied);
        c.batch_size_hist.merge(&self.batch_size_hist.snapshot());
        for (dst, src) in c.shard_dirtied.iter_mut().zip(&self.shard_dirtied) {
            *dst += ld(src);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_totals() {
        let b = QueryBreakdown {
            cleaning: SimNanos(100),
            candidate: SimNanos(50),
            transfer_out: SimNanos(25),
            ..Default::default()
        };
        assert_eq!(b.gpu_total(), SimNanos(175));
    }

    #[test]
    fn counters_accumulate_queries() {
        let mut c = ServerCounters::default();
        let b = QueryBreakdown {
            cleaning: SimNanos(10),
            h2d_bytes: 5,
            messages_cleaned: 3,
            ..Default::default()
        };
        c.record_query(&b);
        c.record_query(&b);
        assert_eq!(c.queries, 2);
        assert_eq!(c.gpu_time, SimNanos(20));
        assert_eq!(c.h2d_bytes, 10);
        assert_eq!(c.messages_cleaned, 6);
    }

    #[test]
    fn skip_hit_rate() {
        let mut c = ServerCounters::default();
        assert_eq!(c.clean_skip_hit_rate(), 0.0);
        c.record_query(&QueryBreakdown {
            cells_cleaned: 1,
            cells_skipped: 3,
            ..Default::default()
        });
        assert!((c.clean_skip_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn residency_counters_accumulate() {
        let mut c = ServerCounters::default();
        c.record_query(&QueryBreakdown {
            cells_cleaned: 4,
            resident_hits: 3,
            h2d_delta_bytes: 100,
            h2d_full_bytes: 300,
            evictions: 2,
            ..Default::default()
        });
        assert_eq!(c.resident_hits, 3);
        assert_eq!(c.h2d_delta_bytes, 100);
        assert_eq!(c.h2d_full_bytes, 300);
        assert_eq!(c.evictions, 2);
        assert!((c.resident_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(ServerCounters::default().resident_hit_rate(), 0.0);
    }

    #[test]
    fn sdist_counters_accumulate() {
        let mut c = ServerCounters::default();
        c.record_query(&QueryBreakdown {
            sdist_time: SimNanos(40),
            sdist_rounds: 5,
            sdist_frontier_sum: 30,
            sdist_frontier_max: 12,
            sdist_settled: 9,
            sdist_vertices: 14,
            sdist_pruned: 5,
            h2d_topo_bytes: 256,
            topo_hits: 3,
            topo_misses: 1,
            ..Default::default()
        });
        assert_eq!(c.sdist_time, SimNanos(40));
        assert_eq!(c.sdist_rounds, 5);
        assert_eq!(c.sdist_frontier_sum, 30);
        assert_eq!(c.sdist_settled, 9);
        assert_eq!(c.sdist_vertices, 14);
        assert_eq!(c.sdist_pruned, 5);
        assert_eq!(c.h2d_topo_bytes, 256);
        assert!((c.topo_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(ServerCounters::default().topo_hit_rate(), 0.0);
    }

    #[test]
    fn refine_concurrency_ratio() {
        let b = QueryBreakdown {
            refine_ns: 100,
            refine_busy_ns: 180,
            refine_critical_ns: 90,
            ..Default::default()
        };
        assert!((b.refine_concurrency().unwrap() - 1.8).abs() < 1e-12);
        assert_eq!(QueryBreakdown::default().refine_concurrency(), None);
        let mut c = ServerCounters::default();
        assert_eq!(c.refine_concurrency(), 0.0);
        c.record_query(&b);
        assert!((c.refine_concurrency() - 1.8).abs() < 1e-12);
    }

    #[test]
    fn split_u64_preserves_total_exactly() {
        // Skewed weights that do not divide the total.
        let shares = split_u64(1_000_003, &[7, 1, 992, 0, 3]);
        assert_eq!(shares.len(), 5);
        assert_eq!(shares.iter().sum::<u64>(), 1_000_003);
        // Proportionality: the heavy weight takes the lion's share.
        assert!(shares[2] > 980_000);
        assert_eq!(split_u64(0, &[1, 2, 3]), vec![0, 0, 0]);
        assert_eq!(split_u64(10, &[]), Vec::<u64>::new());
        // All-zero weights fall back to an equal split, still exact.
        assert_eq!(split_u64(10, &[0, 0, 0]).iter().sum::<u64>(), 10);
    }

    #[test]
    fn split_shares_telescopes_back_to_original() {
        let shared = QueryBreakdown {
            cleaning: SimNanos(1_000_001),
            candidate: SimNanos(37),
            copy_back: SimNanos(501),
            remote_gather: SimNanos(71),
            replica_promote: SimNanos(43),
            h2d_bytes: 999,
            h2d_full_bytes: 800,
            h2d_delta_bytes: 199,
            d2h_bytes: 55,
            cells_cleaned: 13,
            cells_skipped: 4,
            resident_hits: 2,
            messages_cleaned: 777,
            emulation_ns: 123_457,
            h2d_topo_bytes: 4096,
            topo_hits: 3,
            topo_misses: 7,
            h2d_coalesced_saved: 6,
            kernel_launches: 1,
            evictions: 3,
            sdist_frontier_max: 11,
            ..Default::default()
        };
        let weights = [5, 0, 2, 9];
        let shares = shared.split_shares(&weights);
        assert_eq!(shares.len(), 4);
        let mut folded = QueryBreakdown::default();
        for s in &shares {
            folded.absorb(s);
        }
        assert_eq!(folded.gpu_total(), shared.gpu_total());
        assert_eq!(folded.copy_back, shared.copy_back);
        assert_eq!(folded.remote_gather, shared.remote_gather);
        assert_eq!(folded.replica_promote, shared.replica_promote);
        assert_eq!(folded.h2d_bytes, shared.h2d_bytes);
        assert_eq!(folded.h2d_full_bytes, shared.h2d_full_bytes);
        assert_eq!(folded.h2d_delta_bytes, shared.h2d_delta_bytes);
        assert_eq!(folded.d2h_bytes, shared.d2h_bytes);
        assert_eq!(folded.cells_cleaned, shared.cells_cleaned);
        assert_eq!(folded.cells_skipped, shared.cells_skipped);
        assert_eq!(folded.messages_cleaned, shared.messages_cleaned);
        assert_eq!(folded.emulation_ns, shared.emulation_ns);
        assert_eq!(folded.h2d_topo_bytes, shared.h2d_topo_bytes);
        assert_eq!(folded.topo_hits, shared.topo_hits);
        assert_eq!(folded.topo_misses, shared.topo_misses);
        assert_eq!(folded.h2d_coalesced_saved, shared.h2d_coalesced_saved);
        assert_eq!(folded.kernel_launches, shared.kernel_launches);
        assert_eq!(folded.evictions, shared.evictions);
        assert_eq!(folded.sdist_frontier_max, shared.sdist_frontier_max);
        // Proportionality: the weight-9 query carries more than the
        // weight-2 one, and the weight-0 query carries (almost) nothing.
        assert!(shares[3].cleaning > shares[2].cleaning);
        assert_eq!(shares[1].h2d_bytes, 0);
    }

    #[test]
    fn query_throughput_counters() {
        let mut c = ServerCounters::default();
        c.record_query(&QueryBreakdown {
            cleaning: SimNanos(300),
            cpu_ns: 500,
            emulation_ns: 700,
            h2d_coalesced_saved: 4,
            refine_settled: 10,
            refine_relaxed: 25,
            kernel_launches: 3,
            ..Default::default()
        });
        assert_eq!(c.query_cpu_ns, 500);
        assert_eq!(c.h2d_coalesced_saved, 4);
        assert_eq!(c.refine_settled, 10);
        assert_eq!(c.refine_relaxed, 25);
    }

    #[test]
    fn hist_buckets_cover_all_values() {
        // Exact buckets below 4, then 4 sub-buckets per octave.
        assert_eq!(hist_bucket(0), 0);
        assert_eq!(hist_bucket(3), 3);
        assert_eq!(hist_bucket(4), 4);
        assert_eq!(hist_bucket(7), 7);
        assert_eq!(hist_bucket(8), 8);
        assert_eq!(hist_bucket(9), 8);
        assert_eq!(hist_bucket(10), 9);
        assert_eq!(hist_bucket(u64::MAX), HIST_BUCKETS - 1);
        // Bounds invert the bucket index and tile the line contiguously.
        let mut expect_lo = 0u64;
        for idx in 0..HIST_BUCKETS {
            let (lo, hi) = hist_bucket_bounds(idx);
            assert_eq!(lo, expect_lo, "bucket {idx} not contiguous");
            assert!(hi >= lo);
            assert_eq!(hist_bucket(lo), idx);
            assert_eq!(hist_bucket(hi), idx);
            // ≤25% relative width above the exact range.
            if lo >= 4 {
                assert!(hi - lo <= lo / 4);
            }
            expect_lo = hi.wrapping_add(1);
        }
        assert_eq!(expect_lo, 0, "last bucket must end at u64::MAX");
    }

    #[test]
    fn hist_percentiles_within_bucket_error() {
        let mut h = Hist::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count, 1000);
        assert_eq!(h.max, 1000);
        assert_eq!(h.sum, 500_500);
        for (p, exact) in [(50.0, 500u64), (99.0, 990), (99.9, 999)] {
            let got = h.percentile(p);
            assert!(got >= exact, "p{p} read {got} below exact {exact}");
            assert!(
                got as f64 <= exact as f64 * 1.25 + 1.0,
                "p{p} read {got} exceeds 25% error over {exact}"
            );
        }
        // Percentiles never exceed the observed max.
        assert_eq!(h.percentile(100.0), 1000);
        assert_eq!(Hist::default().percentile(99.0), 0);
    }

    #[test]
    fn hist_merge_and_nonzero() {
        let mut a = Hist::default();
        let mut b = Hist::default();
        a.record(2);
        a.record(100);
        b.record(7000);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.sum, 7102);
        assert_eq!(a.max, 7000);
        let nz = a.nonzero();
        assert_eq!(nz.len(), 3);
        assert_eq!(nz[0], (2, 1));
        assert!(!a.is_empty() && Hist::default().is_empty());
    }

    #[test]
    fn atomic_hist_snapshot_matches_plain() {
        let ah = AtomicHist::default();
        let mut h = Hist::default();
        for v in [0u64, 5, 63, 4096, 123_456_789] {
            ah.record(v);
            h.record(v);
        }
        let snap = ah.snapshot();
        assert_eq!(snap.count, h.count);
        assert_eq!(snap.sum, h.sum);
        assert_eq!(snap.max, h.max);
        assert_eq!(snap.counts, h.counts);
        assert!(format!("{ah:?}").contains("count"));
    }

    #[test]
    fn guard_hist_buckets_cover_all_radii() {
        assert_eq!(guard_hist_bucket(0), 0);
        assert_eq!(guard_hist_bucket(64), 0);
        assert_eq!(guard_hist_bucket(65), 1);
        assert_eq!(guard_hist_bucket(262_144), GUARD_HIST_BUCKETS - 2);
        assert_eq!(guard_hist_bucket(u64::MAX / 4), GUARD_HIST_BUCKETS - 1);
    }

    #[test]
    fn subscription_counters_and_rates() {
        let mut c = ServerCounters::default();
        assert_eq!(c.subs_avoided_rate(), 0.0);
        assert_eq!(c.subs_per_sec_modeled(), 0.0);
        c.record_subscription(&QueryBreakdown {
            cleaning: SimNanos(300),
            cpu_ns: 700,
            ..Default::default()
        });
        // Subscription work is not an ad-hoc query...
        assert_eq!(c.queries, 0);
        assert_eq!(c.query_cpu_ns, 0);
        // ...but it is real device work.
        assert_eq!(c.gpu_time, SimNanos(300));
        assert_eq!(c.subs_gpu_time, SimNanos(300));
        assert_eq!(c.subs_cpu_ns, 700);
        assert_eq!(c.subs_modeled_ns(), 1000);
        c.subs_ticks = 2;
        assert_eq!(c.subs_modeled_ns_per_tick(), 500);
        c.subs_skipped = 6;
        c.subs_repaired_delta = 2;
        c.subs_repaired_full = 2;
        assert!((c.subs_avoided_rate() - 0.8).abs() < 1e-12);
        // 10 served results over 1000 hybrid ns.
        assert!((c.subs_per_sec_modeled() - 1e7).abs() < 1e-3);
    }

    #[test]
    fn ingest_counters_merge_snapshot() {
        let i = IngestCounters::default();
        i.updates_ingested.store(10, Ordering::Relaxed);
        i.tombstones_written.store(3, Ordering::Relaxed);
        i.cell_locks.store(7, Ordering::Relaxed);
        i.shard_locks.store(10, Ordering::Relaxed);
        i.observe_batch(5);
        i.observe_batch(700);
        let mut c = ServerCounters::default();
        i.merge_into(&mut c);
        assert_eq!(c.updates_ingested, 10);
        assert_eq!(c.tombstones_written, 3);
        assert_eq!(c.ingest_cell_locks, 7);
        assert_eq!(c.ingest_batches, 2);
        assert_eq!(c.batch_size_hist.count, 2);
        assert_eq!(c.batch_size_hist.counts[hist_bucket(5)], 1);
        assert_eq!(c.batch_size_hist.counts[hist_bucket(700)], 1);
        assert_eq!(c.batch_size_hist.max, 700);
        // The model charges every counted operation.
        assert_eq!(
            c.modeled_ingest_ns(),
            7 * ingest_model::CELL_LOCK_NS
                + 10 * ingest_model::SHARD_LOCK_NS
                + 13 * ingest_model::APPEND_NS
        );
    }

    #[test]
    fn record_cleaning_accumulates_all_byte_counters() {
        let rep = CleaningReport {
            compute_time: SimNanos(40),
            h2d_bytes: 100,
            h2d_delta_bytes: 40,
            h2d_full_bytes: 60,
            d2h_bytes: 30,
            messages: 5,
            cells_cleaned: 2,
            cells_skipped: 1,
            resident_hits: 1,
            evictions: 1,
            ..Default::default()
        };
        let mut c = ServerCounters::default();
        c.record_cleaning(&rep, SimNanos(10));
        c.record_cleaning(&rep, SimNanos(10));
        assert_eq!(c.gpu_time, SimNanos(100));
        assert_eq!(c.h2d_bytes, 200);
        assert_eq!(c.h2d_delta_bytes, 80);
        assert_eq!(c.h2d_full_bytes, 120);
        assert_eq!(c.d2h_bytes, 60);
        assert_eq!(c.messages_cleaned, 10);
        assert_eq!(c.clean_skip_hits, 2);
        assert_eq!(c.clean_skip_misses, 4);
        let mut b = QueryBreakdown::default();
        b.record_cleaning(&rep, SimNanos(10));
        assert_eq!(b.cleaning, SimNanos(50));
        assert_eq!(b.copy_back, SimNanos(10));
        assert_eq!(b.h2d_bytes, 100);
        assert_eq!(b.d2h_bytes, 30);
        assert_eq!(b.evictions, 1);
    }

    #[test]
    fn ingest_throughput_and_speedup() {
        let c = ServerCounters {
            updates_ingested: 1_000,
            ingest_busy_ns: 500_000,
            ingest_critical_ns: 250_000,
            ingest_cell_locks: 100,
            ingest_shard_locks: 1_000,
            ..Default::default()
        };
        assert!((c.updates_per_sec_measured() - 2e6).abs() < 1.0);
        assert!(c.updates_per_sec_modeled() > 0.0);
        assert!((c.ingest_parallel_speedup() - 2.0).abs() < 1e-12);
        assert_eq!(ServerCounters::default().updates_per_sec_measured(), 0.0);
        assert_eq!(ServerCounters::default().updates_per_sec_modeled(), 0.0);
        assert_eq!(ServerCounters::default().ingest_parallel_speedup(), 0.0);
        assert_eq!(ServerCounters::default().bucket_reuse_rate(), 0.0);
        let c2 = ServerCounters {
            bucket_allocs: 1,
            bucket_reuses: 3,
            ..Default::default()
        };
        assert!((c2.bucket_reuse_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn cooperative_counters_accumulate() {
        let mut c = ServerCounters::default();
        c.record_query(&QueryBreakdown {
            cross_shard_rounds: 2,
            replica_hits: 3,
            ring_span: 3,
            ..Default::default()
        });
        c.record_query(&QueryBreakdown {
            ring_span: 1,
            ..Default::default()
        });
        assert_eq!(c.cross_shard_rounds, 2);
        assert_eq!(c.replica_hits, 3);
        assert_eq!(c.ring_span_hist.count, 2);
        assert_eq!(c.ring_span_hist.max, 3);
        // Shares fold back exactly; ring_span copies like the max fields.
        let shared = QueryBreakdown {
            cross_shard_rounds: 5,
            replica_hits: 7,
            ring_span: 4,
            ..Default::default()
        };
        let mut folded = QueryBreakdown::default();
        for s in shared.split_shares(&[3, 1]) {
            folded.absorb(&s);
        }
        assert_eq!(folded.cross_shard_rounds, 5);
        assert_eq!(folded.replica_hits, 7);
        assert_eq!(folded.ring_span, 4);
    }

    #[test]
    fn refine_parallel_speedup_ratio() {
        // Two workers, perfectly balanced: speedup = 2, independent of how
        // the host scheduled the threads (wall time does not appear).
        let b = QueryBreakdown {
            refine_ns: 200, // single-core host: wall ≈ busy
            refine_busy_ns: 200,
            refine_critical_ns: 100,
            ..Default::default()
        };
        assert!((b.refine_parallel_speedup().unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(QueryBreakdown::default().refine_parallel_speedup(), None);
        let mut c = ServerCounters::default();
        assert_eq!(c.refine_parallel_speedup(), 0.0);
        c.record_query(&b);
        assert!((c.refine_parallel_speedup() - 2.0).abs() < 1e-12);
    }
}
