//! Pooled dense distance scratch (epoch-stamped).
//!
//! The distance phase used to build a fresh `HashMap<VertexId, Distance>`
//! per query — per-query allocation plus hash churn on every relax. A
//! [`DenseScratch`] replaces the map with three flat arrays indexed by
//! `VertexId::index()`:
//!
//! * `dist[v]` — the tentative distance, valid only when
//! * `stamp[v]` equals the scratch's current `epoch`, and
//! * `touched` — the list of vertices written this epoch.
//!
//! A `get` of an unstamped vertex returns [`INFINITY`], exactly the
//! semantics of a missing `HashMap` key in the old code, so the scratch is
//! a drop-in replacement. Clearing is an epoch bump — O(touched), not
//! O(|V|) — which is what makes reuse across queries free.
//!
//! [`CellTags`] is the per-cell analogue: a dense tag array over the grid's
//! cells that remembers which cells it tagged, so a kNN query's candidate
//! set (and, on a sharded server, its per-cell owner map) resets in
//! O(|set|) instead of being allocated at O(cells) per query.
//!
//! [`ScratchPool`] keeps retired scratches on the server so the distance
//! phase, the refinement workers and the batch pipeline can each borrow
//! one without reallocating; `acquire` resets before handing out. The
//! refinement borrows Dijkstra scratch ([`DijkstraScratch`]) only: its
//! search map is its result, so it needs no dense copy.

use parking_lot::Mutex;
use roadnet::dijkstra::DijkstraScratch;
use roadnet::graph::{Distance, VertexId, INFINITY};

use crate::grid::CellId;

/// A dense `VertexId → Distance` map with O(touched) clearing.
#[derive(Debug)]
pub struct DenseScratch {
    dist: Vec<Distance>,
    stamp: Vec<u32>,
    epoch: u32,
    touched: Vec<u32>,
}

impl DenseScratch {
    pub fn new(num_vertices: usize) -> Self {
        Self {
            dist: vec![INFINITY; num_vertices],
            stamp: vec![0; num_vertices],
            epoch: 1,
            touched: Vec::new(),
        }
    }

    /// Vertices this scratch can index (the graph it was sized for).
    pub fn capacity(&self) -> usize {
        self.dist.len()
    }

    /// Tentative distance of `v`; [`INFINITY`] when `v` was not written
    /// this epoch (the `HashMap` miss of the old code).
    #[inline]
    pub fn get(&self, v: VertexId) -> Distance {
        if self.stamp[v.index()] == self.epoch {
            self.dist[v.index()]
        } else {
            INFINITY
        }
    }

    /// Whether `v` was written this epoch.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        self.stamp[v.index()] == self.epoch
    }

    /// Write `d`, stamping `v` into the current epoch.
    #[inline]
    pub fn set(&mut self, v: VertexId, d: Distance) {
        let i = v.index();
        if self.stamp[i] != self.epoch {
            self.stamp[i] = self.epoch;
            self.touched.push(i as u32);
        }
        self.dist[i] = d;
    }

    /// Number of vertices written this epoch.
    pub fn touched_len(&self) -> usize {
        self.touched.len()
    }

    /// `(vertex, distance)` pairs written this epoch, in first-write order.
    pub fn iter_touched(&self) -> impl Iterator<Item = (VertexId, Distance)> + '_ {
        self.touched
            .iter()
            .map(|&i| (VertexId(i), self.dist[i as usize]))
    }

    /// Resident bytes of the graph-sized dist/stamp pair. The touched list
    /// is left out: its capacity is the high-water mark of whichever
    /// queries this scratch happened to serve (see
    /// [`ScratchPool::scratch_bytes`]), and it is negligible next to the
    /// O(|V|) arrays.
    pub fn size_bytes(&self) -> u64 {
        (self.dist.capacity() * std::mem::size_of::<Distance>()
            + self.stamp.capacity() * std::mem::size_of::<u32>()) as u64
    }

    /// Clear the map by bumping the epoch: O(touched). On the (u32) epoch
    /// wrapping around, the stamps are rewritten once — still amortised
    /// O(touched).
    pub fn reset(&mut self) {
        self.touched.clear();
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }
}

/// A dense `CellId → T` tag array with O(tagged) reset.
///
/// Every cell reads `blank` until tagged; [`Self::tagged`] lists the cells
/// tagged since the last reset, in first-tag order. The kNN path uses
/// [`CellSet`] for its candidate set (membership mask plus the set in
/// expansion order) and `CellTags<u8>` for the sharded owner map.
#[derive(Debug)]
pub struct CellTags<T> {
    tags: Vec<T>,
    tagged: Vec<CellId>,
    blank: T,
}

/// A set of cells: the membership mask and the members in insertion order.
pub type CellSet = CellTags<bool>;

impl<T: Copy + PartialEq> CellTags<T> {
    pub fn new(num_cells: usize, blank: T) -> Self {
        Self {
            tags: vec![blank; num_cells],
            tagged: Vec::new(),
            blank,
        }
    }

    /// Cells this array can index (the grid it was sized for).
    pub fn capacity(&self) -> usize {
        self.tags.len()
    }

    /// Tag `c` with `v`; the first tag since the reset records `c` in
    /// [`Self::tagged`]. `v` must not be the blank value.
    #[inline]
    pub fn set(&mut self, c: CellId, v: T) {
        debug_assert!(v != self.blank, "tagging a cell blank");
        if self.tags[c.index()] == self.blank {
            self.tagged.push(c);
        }
        self.tags[c.index()] = v;
    }

    /// The dense tag array, indexed by `CellId::index()`.
    pub fn tags(&self) -> &[T] {
        &self.tags
    }

    /// Cells tagged since the last reset, in first-tag order.
    pub fn tagged(&self) -> &[CellId] {
        &self.tagged
    }

    /// Blank every tagged cell: O(tagged).
    pub fn reset(&mut self) {
        for &c in &self.tagged {
            self.tags[c.index()] = self.blank;
        }
        self.tagged.clear();
    }

    /// Resident bytes of the grid-sized tag array; like
    /// [`DenseScratch::size_bytes`], the tagged list's history-dependent
    /// capacity is left out.
    pub fn size_bytes(&self) -> u64 {
        (self.tags.capacity() * std::mem::size_of::<T>()) as u64
    }
}

impl CellSet {
    /// Add `c`; returns whether it was new.
    #[inline]
    pub fn insert(&mut self, c: CellId) -> bool {
        let fresh = !self.tags[c.index()];
        if fresh {
            self.set(c, true);
        }
        fresh
    }

    #[inline]
    pub fn contains(&self, c: CellId) -> bool {
        self.tags[c.index()]
    }

    /// Number of member cells.
    pub fn len(&self) -> usize {
        self.tagged.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tagged.is_empty()
    }
}

/// A pool of [`DenseScratch`]es and [`DijkstraScratch`]es sized for one
/// graph, shared by the query path and the refinement workers (batch mode
/// borrows several at once).
///
/// The pool is byte-budgeted: once the *idle* scratches (dense + Dijkstra)
/// exceed `budget_bytes`, releases evict the oldest pooled buffers instead
/// of hoarding them — before the capacity push a warmed pool pinned
/// O(workers × |V|) memory forever, which at 300k vertices is ~2.4 MB per
/// retired worker scratch. A budget of `0` disables the bound.
#[derive(Debug)]
pub struct ScratchPool {
    num_vertices: usize,
    budget_bytes: u64,
    pool: Mutex<Vec<DenseScratch>>,
    engines: Mutex<Vec<DijkstraScratch>>,
    cell_sets: Mutex<Vec<CellSet>>,
    owner_maps: Mutex<Vec<CellTags<u8>>>,
}

impl ScratchPool {
    pub fn new(num_vertices: usize) -> Self {
        Self::with_budget(num_vertices, 0)
    }

    /// A pool whose idle buffers are bounded to `budget_bytes` (0 =
    /// unbounded).
    pub fn with_budget(num_vertices: usize, budget_bytes: u64) -> Self {
        Self {
            num_vertices,
            budget_bytes,
            pool: Mutex::new(Vec::new()),
            engines: Mutex::new(Vec::new()),
            cell_sets: Mutex::new(Vec::new()),
            owner_maps: Mutex::new(Vec::new()),
        }
    }

    /// Borrow a scratch (freshly reset). Allocates only when the pool is
    /// empty — steady state reuses retired scratches.
    pub fn acquire(&self) -> DenseScratch {
        let mut s = self
            .pool
            .lock()
            .pop()
            .unwrap_or_else(|| DenseScratch::new(self.num_vertices));
        s.reset();
        s
    }

    /// Return a scratch to the pool. Scratches sized for another graph are
    /// dropped instead of pooled; pooling past the byte budget evicts the
    /// oldest idle buffers first.
    pub fn release(&self, s: DenseScratch) {
        if s.capacity() == self.num_vertices {
            self.pool.lock().push(s);
            self.enforce_budget();
        }
    }

    /// Scratches currently idle in the pool.
    pub fn pooled(&self) -> usize {
        self.pool.lock().len()
    }

    /// Bytes held by idle scratches (dense, Dijkstra and cell tags),
    /// counted by their graph- and grid-sized arrays. Counted into the
    /// server's `index_size` so capacity benches see pool growth.
    ///
    /// The per-query lists (touched vertices, tagged cells, the Dijkstra
    /// heap and settled list) are left out. A pooled list keeps the
    /// capacity of the largest query it served, and which query a pooled
    /// scratch serves depends on batch boundaries. The serve loop draws
    /// those on a timeline that includes measured refinement time, so
    /// counting list capacities made the figure differ between two runs
    /// of one schedule.
    pub fn scratch_bytes(&self) -> u64 {
        // Lock order: pool before engines, everywhere in this module.
        let pool = self.pool.lock();
        let engines = self.engines.lock();
        pool.iter().map(DenseScratch::size_bytes).sum::<u64>()
            + engines.iter().map(DijkstraScratch::size_bytes).sum::<u64>()
            + self
                .cell_sets
                .lock()
                .iter()
                .map(CellTags::size_bytes)
                .sum::<u64>()
            + self
                .owner_maps
                .lock()
                .iter()
                .map(CellTags::size_bytes)
                .sum::<u64>()
    }

    /// Evict oldest idle buffers until the pooled footprint fits the
    /// budget. Dense scratches evict first (largest), then engines.
    fn enforce_budget(&self) {
        if self.budget_bytes == 0 {
            return;
        }
        let mut pool = self.pool.lock();
        let mut engines = self.engines.lock();
        let mut total = pool.iter().map(DenseScratch::size_bytes).sum::<u64>()
            + engines.iter().map(DijkstraScratch::size_bytes).sum::<u64>();
        while total > self.budget_bytes && !pool.is_empty() {
            total = total.saturating_sub(pool.remove(0).size_bytes());
        }
        while total > self.budget_bytes && !engines.is_empty() {
            total = total.saturating_sub(engines.remove(0).size_bytes());
        }
    }

    /// Borrow Dijkstra working memory for a refinement search. Like
    /// [`acquire`](Self::acquire), allocation happens only on a cold pool:
    /// steady state re-attaches a retired scratch in O(1), keeping the
    /// O(|V|) distance-array build out of the per-query path.
    pub fn acquire_engine(&self) -> DijkstraScratch {
        self.engines
            .lock()
            .pop()
            .unwrap_or_else(|| DijkstraScratch::with_capacity(self.num_vertices))
    }

    /// Return Dijkstra working memory to the pool. It may still hold its
    /// last search's map: the next search run in it clears what that one
    /// wrote. Scratches sized for another graph are dropped instead of
    /// pooled; pooling past the byte budget evicts the oldest idle buffers
    /// first.
    pub fn release_engine(&self, s: DijkstraScratch) {
        if s.capacity() == self.num_vertices {
            self.engines.lock().push(s);
            self.enforce_budget();
        }
    }

    /// Engine scratches currently idle in the pool.
    pub fn pooled_engines(&self) -> usize {
        self.engines.lock().len()
    }

    /// Borrow an empty candidate-cell set for a grid of `num_cells` cells.
    /// Steady state reuses a retired set, reset in O(|set|).
    pub fn acquire_cells(&self, num_cells: usize) -> CellSet {
        acquire_tags(&self.cell_sets, num_cells, false)
    }

    /// Return a candidate-cell set to the pool.
    pub fn release_cells(&self, s: CellSet) {
        self.cell_sets.lock().push(s);
    }

    /// Borrow a blank per-cell owner map (blank = `u8::MAX`).
    pub fn acquire_owners(&self, num_cells: usize) -> CellTags<u8> {
        acquire_tags(&self.owner_maps, num_cells, u8::MAX)
    }

    /// Return a per-cell owner map to the pool.
    pub fn release_owners(&self, s: CellTags<u8>) {
        self.owner_maps.lock().push(s);
    }
}

/// Pop a pooled tag array sized for `num_cells` (dropping any sized for
/// another grid), or allocate one; reset before handing out. Tag arrays
/// are not byte-budgeted: a query holds at most one of each kind, so the
/// pool never grows past the number of queries in flight.
fn acquire_tags<T: Copy + PartialEq>(
    pool: &Mutex<Vec<CellTags<T>>>,
    num_cells: usize,
    blank: T,
) -> CellTags<T> {
    let mut pool = pool.lock();
    while let Some(mut s) = pool.pop() {
        if s.capacity() == num_cells {
            s.reset();
            return s;
        }
    }
    CellTags::new(num_cells, blank)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_miss_semantics() {
        let mut s = DenseScratch::new(8);
        assert_eq!(s.get(VertexId(3)), INFINITY);
        assert!(!s.contains(VertexId(3)));
        s.set(VertexId(3), 42);
        assert_eq!(s.get(VertexId(3)), 42);
        assert!(s.contains(VertexId(3)));
        assert_eq!(s.get(VertexId(4)), INFINITY);
        assert_eq!(s.touched_len(), 1);
    }

    #[test]
    fn explicit_infinity_still_counts_as_touched() {
        // The dense Bellman–Ford seeds every candidate vertex with INFINITY;
        // those entries must read back as INFINITY either way, but count as
        // touched (they were written).
        let mut s = DenseScratch::new(4);
        s.set(VertexId(0), INFINITY);
        assert!(s.contains(VertexId(0)));
        assert_eq!(s.get(VertexId(0)), INFINITY);
        assert_eq!(s.touched_len(), 1);
    }

    #[test]
    fn reset_clears_in_o_touched() {
        let mut s = DenseScratch::new(1000);
        s.set(VertexId(5), 1);
        s.set(VertexId(900), 2);
        s.reset();
        assert_eq!(s.get(VertexId(5)), INFINITY);
        assert_eq!(s.get(VertexId(900)), INFINITY);
        assert_eq!(s.touched_len(), 0);
        s.set(VertexId(5), 9);
        assert_eq!(s.get(VertexId(5)), 9);
    }

    #[test]
    fn epoch_wrap_survives() {
        let mut s = DenseScratch::new(4);
        s.set(VertexId(0), 7);
        s.epoch = u32::MAX - 1;
        // Stale stamp from epoch 1 must not leak through the wrap.
        s.stamp[0] = 1;
        s.reset(); // -> u32::MAX
        assert_eq!(s.get(VertexId(0)), INFINITY);
        s.set(VertexId(1), 3);
        s.reset(); // wraps: stamps rewritten, epoch back to 1
        assert_eq!(s.epoch, 1);
        assert_eq!(s.get(VertexId(0)), INFINITY);
        assert_eq!(s.get(VertexId(1)), INFINITY);
        s.set(VertexId(2), 5);
        assert_eq!(s.get(VertexId(2)), 5);
    }

    #[test]
    fn iter_touched_lists_pairs() {
        let mut s = DenseScratch::new(8);
        s.set(VertexId(6), 60);
        s.set(VertexId(2), 20);
        s.set(VertexId(6), 61);
        let got: Vec<_> = s.iter_touched().collect();
        assert_eq!(got, vec![(VertexId(6), 61), (VertexId(2), 20)]);
    }

    #[test]
    fn pool_reuses_and_resets() {
        let pool = ScratchPool::new(16);
        let mut a = pool.acquire();
        a.set(VertexId(3), 3);
        pool.release(a);
        assert_eq!(pool.pooled(), 1);
        let b = pool.acquire();
        assert_eq!(b.get(VertexId(3)), INFINITY, "acquire must reset");
        assert_eq!(pool.pooled(), 0);
        pool.release(b);

        // A scratch for another graph is dropped, not pooled.
        pool.release(DenseScratch::new(4));
        assert_eq!(pool.pooled(), 1);
    }

    #[test]
    fn engine_pool_round_trips() {
        let pool = ScratchPool::new(16);
        let s = pool.acquire_engine();
        assert_eq!(s.capacity(), 16);
        pool.release_engine(s);
        assert_eq!(pool.pooled_engines(), 1);
        let _again = pool.acquire_engine();
        assert_eq!(pool.pooled_engines(), 0);

        // Mismatched capacity is dropped, not pooled.
        pool.release_engine(DijkstraScratch::with_capacity(4));
        assert_eq!(pool.pooled_engines(), 0);
    }

    #[test]
    fn budget_evicts_oldest_idle_scratch() {
        let one = DenseScratch::new(16).size_bytes();
        // Budget fits exactly two dense scratches.
        let pool = ScratchPool::with_budget(16, 2 * one);
        let (a, b, c) = (pool.acquire(), pool.acquire(), pool.acquire());
        pool.release(a);
        pool.release(b);
        assert_eq!(pool.pooled(), 2);
        assert!(pool.scratch_bytes() <= 2 * one);
        pool.release(c);
        assert_eq!(pool.pooled(), 2, "third release must evict the oldest");
        assert!(pool.scratch_bytes() <= 2 * one);

        // Engines share the same budget and evict once dense is drained.
        let e = pool.acquire_engine();
        pool.release_engine(e);
        assert!(pool.scratch_bytes() <= 2 * one);
        assert!(pool.pooled() + pool.pooled_engines() >= 1);
    }

    #[test]
    fn zero_budget_is_unbounded() {
        let pool = ScratchPool::new(1000);
        for _ in 0..8 {
            pool.release(DenseScratch::new(1000));
        }
        assert_eq!(pool.pooled(), 8);
        assert!(pool.scratch_bytes() > 0);
    }

    #[test]
    fn cell_set_resets_only_its_members() {
        let pool = ScratchPool::new(4);
        let mut set = pool.acquire_cells(1000);
        assert!(set.insert(CellId(7)));
        assert!(set.insert(CellId(900)));
        assert!(!set.insert(CellId(7)), "re-insert is a no-op");
        assert_eq!(set.tagged(), &[CellId(7), CellId(900)]);
        assert!(set.contains(CellId(900)) && set.tags()[7]);
        pool.release_cells(set);
        let again = pool.acquire_cells(1000);
        assert!(again.is_empty() && again.tags().iter().all(|&t| !t));
        assert!(pool.scratch_bytes() == 0, "acquired set left the pool");
        pool.release_cells(again);
        assert!(pool.scratch_bytes() >= 1000);

        // A set for another grid is dropped, not handed out.
        assert_eq!(pool.acquire_cells(10).capacity(), 10);
    }

    #[test]
    fn owner_map_reads_blank_after_reset() {
        let pool = ScratchPool::new(4);
        let mut owners = pool.acquire_owners(16);
        owners.set(CellId(3), 2);
        owners.set(CellId(3), 1);
        assert_eq!(owners.tags()[3], 1);
        assert_eq!(owners.tagged(), &[CellId(3)]);
        pool.release_owners(owners);
        let owners = pool.acquire_owners(16);
        assert_eq!(owners.tags()[3], u8::MAX);
        assert!(owners.tagged().is_empty());
    }

    #[test]
    fn pooled_bytes_do_not_depend_on_which_query_used_which_scratch() {
        use roadnet::dijkstra::{DijkstraEngine, SearchBounds};

        // Three queries, two large (every vertex and cell, a whole-graph
        // search) and one small, served on two pooled scratches. Each
        // per-query list keeps the capacity of the largest query it
        // served, so the split of queries over scratches — which batch
        // boundaries decide — must not move the pool's footprint.
        let g = roadnet::gen::toy(1);
        let n = g.num_vertices();
        let footprint = |plan: [&[bool]; 2]| {
            let pool = ScratchPool::new(n);
            let mut dense = [pool.acquire(), pool.acquire()];
            let mut cells = [pool.acquire_cells(n), pool.acquire_cells(n)];
            let mut engines = [pool.acquire_engine(), pool.acquire_engine()];
            for (i, queries) in plan.into_iter().enumerate() {
                for &big in queries {
                    dense[i].reset();
                    cells[i].reset();
                    let touch = if big { n as u32 } else { 1 };
                    for v in 0..touch {
                        dense[i].set(VertexId(v), v as Distance);
                        cells[i].insert(CellId(v));
                    }
                    let scratch =
                        std::mem::replace(&mut engines[i], DijkstraScratch::with_capacity(0));
                    let mut engine = DijkstraEngine::with_scratch(&g, scratch);
                    let radius = if big { INFINITY } else { 0 };
                    engine.run_seeded(&[(VertexId(0), 0)], SearchBounds::radius(radius));
                    engines[i] = engine.into_scratch();
                }
            }
            let [d0, d1] = dense;
            let [c0, c1] = cells;
            let [e0, e1] = engines;
            pool.release(d0);
            pool.release(d1);
            pool.release_cells(c0);
            pool.release_cells(c1);
            pool.release_engine(e0);
            pool.release_engine(e1);
            pool.scratch_bytes()
        };
        assert_eq!(
            footprint([&[true, true], &[false]]),
            footprint([&[true, false], &[true]])
        );
    }

    #[test]
    fn pool_hands_out_multiple_concurrently() {
        let pool = ScratchPool::new(8);
        let a = pool.acquire();
        let b = pool.acquire();
        assert_eq!(a.capacity(), 8);
        assert_eq!(b.capacity(), 8);
        pool.release(a);
        pool.release(b);
        assert_eq!(pool.pooled(), 2);
    }
}
