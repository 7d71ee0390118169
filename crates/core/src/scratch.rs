//! Pooled per-query working memory.
//!
//! Both halves of a query's distance computation build the same thing: a
//! `VertexId → Distance` map over the road graph whose entries only fall.
//! The device-side `GPU_SDist` relaxation (Algorithm 5) and the host-side
//! refinement searches (Algorithm 6) therefore share one type for it,
//! roadnet's [`DijkstraScratch`]: one `Distance` per vertex,
//! [`INFINITY`](roadnet::graph::INFINITY) meaning unwritten, plus the list
//! of vertices written since the last clear, so a clear costs O(written),
//! not O(|V|).
//!
//! [`CellTags`] is the per-cell analogue: a dense tag array over the grid's
//! cells that remembers which cells it tagged, so a kNN query's candidate
//! set (and, on a sharded server, its per-cell owner map) resets in
//! O(|set|) instead of being allocated at O(cells) per query.
//!
//! [`ScratchPool`] keeps retired maps and tag arrays on the server so the
//! distance phase, the refinement workers and the batch pipeline can each
//! borrow one without reallocating. A borrowed map may still hold its last
//! user's entries: whoever writes into it clears it first, on the clock
//! that user's phase is charged to (see [`ScratchPool::acquire_map`]).

use parking_lot::Mutex;
use roadnet::dijkstra::DijkstraScratch;

use crate::grid::CellId;

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
    /// [`DijkstraScratch::size_bytes`], the tagged list's history-dependent
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

/// A pool of vertex distance maps ([`DijkstraScratch`]) sized for one
/// graph, shared by the distance phase and the refinement workers (batch
/// mode borrows several at once), plus the per-cell tag arrays.
///
/// The maps are byte-budgeted: once the idle maps exceed `budget_bytes`,
/// releases evict the oldest pooled maps instead of hoarding them, so a
/// warmed pool does not pin O(workers × |V|) memory forever. A budget of
/// `0` disables the bound.
#[derive(Debug)]
pub struct ScratchPool {
    num_vertices: usize,
    budget_bytes: u64,
    maps: Mutex<Vec<DijkstraScratch>>,
    cell_sets: Mutex<Vec<CellSet>>,
    owner_maps: Mutex<Vec<CellTags<u8>>>,
}

impl ScratchPool {
    #[cfg(test)]
    pub fn new(num_vertices: usize) -> Self {
        Self::with_budget(num_vertices, 0)
    }

    /// A pool whose idle maps are bounded to `budget_bytes` (0 =
    /// unbounded).
    pub fn with_budget(num_vertices: usize, budget_bytes: u64) -> Self {
        Self {
            num_vertices,
            budget_bytes,
            maps: Mutex::new(Vec::new()),
            cell_sets: Mutex::new(Vec::new()),
            owner_maps: Mutex::new(Vec::new()),
        }
    }

    /// Borrow a vertex distance map. Allocates only when the pool is empty:
    /// steady state re-attaches a retired map in O(1), keeping the O(|V|)
    /// array build out of the per-query path.
    ///
    /// The map is handed out as it was released, so it may hold entries:
    /// the distance phase clears it inside its emulated kernel bracket and
    /// hands it back empty, and a refinement search clears it when it
    /// starts. No clear runs here, on the caller's host clock.
    pub fn acquire_map(&self) -> DijkstraScratch {
        self.maps
            .lock()
            .pop()
            .unwrap_or_else(|| DijkstraScratch::with_capacity(self.num_vertices))
    }

    /// Return a map to the pool. Maps sized for another graph are dropped
    /// instead of pooled; pooling past the byte budget evicts the oldest
    /// idle maps first.
    pub fn release_map(&self, s: DijkstraScratch) {
        if s.capacity() != self.num_vertices {
            return;
        }
        let mut maps = self.maps.lock();
        maps.push(s);
        if self.budget_bytes == 0 {
            return;
        }
        let mut total: u64 = maps.iter().map(DijkstraScratch::size_bytes).sum();
        while total > self.budget_bytes && !maps.is_empty() {
            total = total.saturating_sub(maps.remove(0).size_bytes());
        }
    }

    /// Maps currently idle in the pool.
    #[cfg(test)]
    pub fn pooled_maps(&self) -> usize {
        self.maps.lock().len()
    }

    /// Bytes held by idle maps and cell tags, counted by their graph- and
    /// grid-sized arrays. Counted into the server's `index_size` so
    /// capacity benches see pool growth.
    ///
    /// The per-query lists (written vertices, tagged cells, the Dijkstra
    /// heap and settled list) are left out. A pooled list keeps the
    /// capacity of the largest query it served, and which query a pooled
    /// map serves depends on batch boundaries. The serve loop draws those
    /// on a timeline that includes measured refinement time, so counting
    /// list capacities made the figure differ between two runs of one
    /// schedule.
    pub fn scratch_bytes(&self) -> u64 {
        let maps: u64 = self
            .maps
            .lock()
            .iter()
            .map(DijkstraScratch::size_bytes)
            .sum();
        let cells: u64 = self.cell_sets.lock().iter().map(CellTags::size_bytes).sum();
        let owners: u64 = self
            .owner_maps
            .lock()
            .iter()
            .map(CellTags::size_bytes)
            .sum();
        maps + cells + owners
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
    use roadnet::graph::{VertexId, INFINITY};

    #[test]
    fn get_set_miss_semantics() {
        let pool = ScratchPool::new(8);
        let mut map = pool.acquire_map();
        assert_eq!(map.distance(VertexId(3)), INFINITY);
        assert!(map.lower(VertexId(3), 42));
        assert_eq!(map.distance(VertexId(3)), 42);
        assert!(!map.lower(VertexId(3), 42), "an equal distance is no fall");
        assert!(!map.lower(VertexId(3), 50), "entries only fall");
        assert_eq!(map.distance(VertexId(4)), INFINITY);
        assert_eq!(map.entries().count(), 1);
    }

    #[test]
    fn reset_clears_in_o_touched() {
        let pool = ScratchPool::new(1000);
        let mut map = pool.acquire_map();
        map.lower(VertexId(5), 1);
        map.lower(VertexId(900), 2);
        map.clear();
        assert_eq!(map.distance(VertexId(5)), INFINITY);
        assert_eq!(map.distance(VertexId(900)), INFINITY);
        assert_eq!(map.entries().count(), 0);
        map.lower(VertexId(5), 9);
        assert_eq!(map.distance(VertexId(5)), 9);
    }

    #[test]
    fn iter_touched_lists_pairs() {
        let pool = ScratchPool::new(8);
        let mut map = pool.acquire_map();
        map.lower(VertexId(6), 61);
        map.lower(VertexId(2), 20);
        map.lower(VertexId(6), 60);
        let got: Vec<_> = map.entries().collect();
        assert_eq!(got, vec![(VertexId(6), 60), (VertexId(2), 20)]);
    }

    #[test]
    fn pool_reuses_and_resets() {
        let pool = ScratchPool::new(16);
        let mut a = pool.acquire_map();
        a.lower(VertexId(3), 3);
        pool.release_map(a);
        assert_eq!(pool.pooled_maps(), 1);
        // The pool hands a map back as it was released: clearing is the
        // writer's job, on the clock of the phase that writes.
        let mut b = pool.acquire_map();
        assert_eq!(b.distance(VertexId(3)), 3, "acquire must not clear");
        assert_eq!(pool.pooled_maps(), 0);
        b.clear();
        pool.release_map(b);

        // A map for another graph is dropped, not pooled.
        pool.release_map(DijkstraScratch::with_capacity(4));
        assert_eq!(pool.pooled_maps(), 1);
        assert_eq!(pool.acquire_map().entries().count(), 0);
    }

    #[test]
    fn engine_pool_round_trips() {
        let pool = ScratchPool::new(16);
        let s = pool.acquire_map();
        assert_eq!(s.capacity(), 16);
        pool.release_map(s);
        assert_eq!(pool.pooled_maps(), 1);
        let _again = pool.acquire_map();
        assert_eq!(pool.pooled_maps(), 0);

        // Mismatched capacity is dropped, not pooled.
        pool.release_map(DijkstraScratch::with_capacity(4));
        assert_eq!(pool.pooled_maps(), 0);
    }

    #[test]
    fn budget_evicts_oldest_idle_scratch() {
        let one = DijkstraScratch::with_capacity(16).size_bytes();
        // Budget fits exactly two maps.
        let pool = ScratchPool::with_budget(16, 2 * one);
        let (mut a, b, c) = (pool.acquire_map(), pool.acquire_map(), pool.acquire_map());
        a.lower(VertexId(1), 1);
        pool.release_map(a);
        pool.release_map(b);
        assert_eq!(pool.pooled_maps(), 2);
        assert!(pool.scratch_bytes() <= 2 * one);
        pool.release_map(c);
        assert_eq!(pool.pooled_maps(), 2, "third release must evict the oldest");
        assert!(pool.scratch_bytes() <= 2 * one);
        let maps = [pool.acquire_map(), pool.acquire_map()];
        assert!(
            maps.iter().all(|m| m.entries().count() == 0),
            "the oldest map, the written one, went first"
        );
    }

    #[test]
    fn zero_budget_is_unbounded() {
        let pool = ScratchPool::new(1000);
        for _ in 0..8 {
            pool.release_map(DijkstraScratch::with_capacity(1000));
        }
        assert_eq!(pool.pooled_maps(), 8);
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
        use roadnet::graph::Distance;

        // Three queries, two large (every vertex and cell, a whole-graph
        // search) and one small, served on two pooled scratches. Each
        // per-query list keeps the capacity of the largest query it
        // served, so the split of queries over scratches — which batch
        // boundaries decide — must not move the pool's footprint.
        let g = roadnet::gen::toy(1);
        let n = g.num_vertices();
        let footprint = |plan: [&[bool]; 2]| {
            let pool = ScratchPool::new(n);
            let mut cells = [pool.acquire_cells(n), pool.acquire_cells(n)];
            let mut maps = [pool.acquire_map(), pool.acquire_map()];
            for (i, queries) in plan.into_iter().enumerate() {
                for &big in queries {
                    // The distance phase's writes, then a refinement search
                    // in the same map.
                    cells[i].reset();
                    maps[i].clear();
                    let touch = if big { n as u32 } else { 1 };
                    for v in 0..touch {
                        maps[i].lower(VertexId(v), v as Distance);
                        cells[i].insert(CellId(v));
                    }
                    let map = std::mem::replace(&mut maps[i], DijkstraScratch::with_capacity(0));
                    let mut engine = DijkstraEngine::with_scratch(&g, map);
                    let radius = if big { INFINITY } else { 0 };
                    engine.run_seeded(&[(VertexId(0), 0)], SearchBounds::radius(radius));
                    maps[i] = engine.into_scratch();
                }
            }
            let [c0, c1] = cells;
            let [m0, m1] = maps;
            pool.release_cells(c0);
            pool.release_cells(c1);
            pool.release_map(m0);
            pool.release_map(m1);
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
        let a = pool.acquire_map();
        let b = pool.acquire_map();
        assert_eq!(a.capacity(), 8);
        assert_eq!(b.capacity(), 8);
        pool.release_map(a);
        pool.release_map(b);
        assert_eq!(pool.pooled_maps(), 2);
    }
}
