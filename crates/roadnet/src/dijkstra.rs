//! Shortest-path searches.
//!
//! Three flavours are provided, all built on the same engine with reusable
//! scratch memory (the "workhorse collection" idiom — a search allocates
//! nothing after the first call):
//!
//! * full single-source Dijkstra,
//! * bounded-radius Dijkstra from arbitrary seed costs (used by G-Grid's
//!   unresolved-vertex refinement, Algorithm 6, and by the baselines),
//! * an exact reference kNN over objects located on edges — the ground truth
//!   every index in the workspace is tested against.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::graph::{Distance, Graph, VertexId, INFINITY};
use crate::position::EdgePosition;

/// Limits for a bounded search.
#[derive(Clone, Copy, Debug)]
pub struct SearchBounds {
    /// Stop settling vertices farther than this.
    pub max_dist: Distance,
    /// Stop after settling this many vertices (safety valve).
    pub max_settled: usize,
}

impl SearchBounds {
    pub fn radius(max_dist: Distance) -> Self {
        Self {
            max_dist,
            max_settled: usize::MAX,
        }
    }

    pub const UNBOUNDED: SearchBounds = SearchBounds {
        max_dist: INFINITY,
        max_settled: usize::MAX,
    };
}

/// A `VertexId → Distance` map whose entries only ever fall, plus the
/// working memory of a [`DijkstraEngine`] (heap and settled list).
///
/// The map is one `Distance` per vertex, [`INFINITY`] meaning unvisited,
/// plus the list of vertices written since the last [`Self::clear`]; a
/// clear walks that list back to [`INFINITY`], so reuse costs O(written),
/// not O(|V|), and a lookup is one load. Construction is O(|V|); a scratch
/// detached with [`DijkstraEngine::into_scratch`] can be re-attached to
/// another engine over the same graph with [`DijkstraEngine::with_scratch`]
/// in O(1), so callers that run many short searches pay the allocation
/// once per pool slot instead of once per query.
///
/// The map is usable without an engine through [`Self::lower`]: G-Grid's
/// device-side distance phase relaxes into the same pooled maps its
/// refinement searches run in. A detached scratch still holds the last
/// search's map, readable through [`Self::distance`] and [`Self::entries`];
/// G-Grid's refinement hands it on as its result.
#[derive(Debug)]
pub struct DijkstraScratch {
    dist: Vec<Distance>,
    written: Vec<u32>,
    heap: BinaryHeap<Reverse<(Distance, u32)>>,
    settled: Vec<VertexId>,
}

impl DijkstraScratch {
    pub fn with_capacity(n: usize) -> Self {
        Self {
            dist: vec![INFINITY; n],
            written: Vec::new(),
            heap: BinaryHeap::new(),
            settled: Vec::new(),
        }
    }

    /// Number of vertices this scratch is sized for.
    pub fn capacity(&self) -> usize {
        self.dist.len()
    }

    /// Resident bytes of the graph-sized distance map. The written, heap
    /// and settled lists are left out: their capacity is the largest
    /// search this scratch has run, so it depends on which searches it
    /// served, and it is small next to the O(|V|) map.
    pub fn size_bytes(&self) -> u64 {
        (self.dist.capacity() * std::mem::size_of::<Distance>()) as u64
    }

    /// Distance of `v` in the map; [`INFINITY`] when `v` was not written.
    #[inline]
    pub fn distance(&self, v: VertexId) -> Distance {
        self.dist[v.index()]
    }

    /// Vertices settled by the most recent search, in settling order.
    pub fn settled(&self) -> &[VertexId] {
        &self.settled
    }

    /// `(vertex, distance)` of every finite entry, in first-write order.
    pub fn entries(&self) -> impl Iterator<Item = (VertexId, Distance)> + '_ {
        self.written
            .iter()
            .map(|&i| (VertexId(i), self.dist[i as usize]))
    }

    /// `map[v] = min(map[v], d)` for every finite entry `(v, d)` of
    /// `other`: the map becomes the pointwise minimum of the two, whatever
    /// the order of absorption. `other` must be sized for the same graph.
    pub fn absorb(&mut self, other: &DijkstraScratch) {
        for (v, d) in other.entries() {
            self.lower(v, d);
        }
    }

    /// Write `d` to `v` when it is below the entry, returning whether it
    /// was; a first write records `v` for the next clear. Entries are
    /// always finite.
    #[inline]
    pub fn lower(&mut self, v: VertexId, d: Distance) -> bool {
        let cur = &mut self.dist[v.index()];
        if d >= *cur {
            return false;
        }
        if *cur == INFINITY {
            self.written.push(v.0);
        }
        *cur = d;
        true
    }

    /// Walk every written vertex back to [`INFINITY`] and empty the lists:
    /// O(written).
    pub fn clear(&mut self) {
        for &v in &self.written {
            self.dist[v as usize] = INFINITY;
        }
        self.written.clear();
        self.heap.clear();
        self.settled.clear();
    }
}

/// Reusable Dijkstra engine over one graph.
///
/// Distances from the most recent search remain readable until the next
/// search. Reuse is O(written): the next search resets only the vertices
/// the last one wrote.
pub struct DijkstraEngine<'g> {
    graph: &'g Graph,
    scratch: DijkstraScratch,
    relaxed: u64,
}

impl<'g> DijkstraEngine<'g> {
    pub fn new(graph: &'g Graph) -> Self {
        Self::with_scratch(graph, DijkstraScratch::with_capacity(graph.num_vertices()))
    }

    /// Build an engine around pooled working memory. A scratch sized for a
    /// smaller graph is grown (the new slots read as unvisited); a larger
    /// one is kept as-is.
    pub fn with_scratch(graph: &'g Graph, mut scratch: DijkstraScratch) -> Self {
        let n = graph.num_vertices();
        if scratch.dist.len() < n {
            scratch.dist.resize(n, INFINITY);
        }
        Self {
            graph,
            scratch,
            relaxed: 0,
        }
    }

    /// Detach the working memory for pooling (see [`DijkstraScratch`]).
    pub fn into_scratch(self) -> DijkstraScratch {
        self.scratch
    }

    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// Distance to `v` from the seeds of the most recent search.
    #[inline]
    pub fn distance(&self, v: VertexId) -> Distance {
        self.scratch.distance(v)
    }

    /// Vertices settled by the most recent search, in settling order.
    pub fn settled(&self) -> &[VertexId] {
        self.scratch.settled()
    }

    /// Edges examined (relaxation attempts) by the most recent search.
    pub fn relaxed(&self) -> u64 {
        self.relaxed
    }

    /// Run Dijkstra from arbitrary `(vertex, initial_cost)` seeds under
    /// `bounds`. Returns the number of settled vertices.
    ///
    /// This is a true *multi-source* search: with seeds `(vᵢ, cᵢ)` it settles
    /// each vertex `u` at `min_i(cᵢ + dist(vᵢ, u))`, i.e. exactly the
    /// pointwise minimum over the per-seed single-source searches, in a
    /// single pass. Shared shortest-path subtrees are settled once instead of
    /// once per seed, which is where G-Grid's fused refinement (Algorithm 6)
    /// gets its CPU win.
    pub fn run_seeded(&mut self, seeds: &[(VertexId, Distance)], bounds: SearchBounds) -> usize {
        let graph = self.graph;
        let s = &mut self.scratch;
        s.clear();
        let mut relaxed = 0;
        for &(v, d) in seeds {
            if s.lower(v, d) {
                s.heap.push(Reverse((d, v.0)));
            }
        }
        while let Some(Reverse((d, v))) = s.heap.pop() {
            if d > s.dist[v as usize] {
                continue; // stale entry
            }
            if d > bounds.max_dist {
                break;
            }
            s.settled.push(VertexId(v));
            if s.settled.len() >= bounds.max_settled {
                break;
            }
            let arcs = graph.out_arcs(VertexId(v));
            relaxed += arcs.len() as u64;
            for &(dest, w) in arcs {
                let nd = d + w as Distance;
                if nd <= bounds.max_dist && s.lower(VertexId(dest), nd) {
                    s.heap.push(Reverse((nd, dest)));
                }
            }
        }
        self.relaxed = relaxed;
        s.settled.len()
    }

    /// Full single-source Dijkstra from a vertex.
    pub fn run_from_vertex(&mut self, src: VertexId) -> usize {
        self.run_seeded(&[(src, 0)], SearchBounds::UNBOUNDED)
    }

    /// Dijkstra from a position on an edge: the only way off the edge is its
    /// destination vertex, seeded with the residual edge cost.
    pub fn run_from_position(&mut self, q: EdgePosition, bounds: SearchBounds) -> usize {
        let dest = self.graph.edge(q.edge).dest;
        let seed = q.to_dest(self.graph);
        self.run_seeded(&[(dest, seed)], bounds)
    }

    /// Network distance from position `q` to position `p` using the most
    /// recent `run_from_position(q, ..)` state.
    ///
    /// `dist(q, p) = dist(q, source(p.edge)) + p.offset`, with the shortcut
    /// for two positions on the same edge where `p` lies ahead of `q`.
    pub fn position_distance(&self, q: EdgePosition, p: EdgePosition) -> Distance {
        let via_source = self
            .distance(self.graph.edge(p.edge).source)
            .saturating_add(p.from_source());
        if p.edge == q.edge && p.offset >= q.offset {
            let along = (p.offset - q.offset) as Distance;
            along.min(via_source)
        } else {
            via_source
        }
    }
}

/// Exact network distance between two edge positions (fresh search).
pub fn position_to_position(graph: &Graph, q: EdgePosition, p: EdgePosition) -> Distance {
    let mut engine = DijkstraEngine::new(graph);
    engine.run_from_position(q, SearchBounds::UNBOUNDED);
    engine.position_distance(q, p)
}

/// Reference exact kNN: the `k` objects nearest to `q`, `(object, distance)`
/// sorted by distance then object id. Ground truth for every index.
pub fn reference_knn(
    graph: &Graph,
    q: EdgePosition,
    objects: &[(u64, EdgePosition)],
    k: usize,
) -> Vec<(u64, Distance)> {
    let mut engine = DijkstraEngine::new(graph);
    engine.run_from_position(q, SearchBounds::UNBOUNDED);
    let mut scored: Vec<(u64, Distance)> = objects
        .iter()
        .map(|&(id, p)| (id, engine.position_distance(q, p)))
        .filter(|&(_, d)| d < INFINITY)
        .collect();
    scored.sort_by_key(|&(id, d)| (d, id));
    scored.truncate(k);
    scored
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{EdgeId, GraphBuilder};

    /// 4-cycle with a chord: 0→1(1), 1→2(1), 2→3(1), 3→0(1), 0→2(5).
    fn ring() -> Graph {
        let mut b = GraphBuilder::with_vertices(4);
        b.add_edge(VertexId(0), VertexId(1), 1);
        b.add_edge(VertexId(1), VertexId(2), 1);
        b.add_edge(VertexId(2), VertexId(3), 1);
        b.add_edge(VertexId(3), VertexId(0), 1);
        b.add_edge(VertexId(0), VertexId(2), 5);
        b.build()
    }

    #[test]
    fn single_source_distances() {
        let g = ring();
        let mut d = DijkstraEngine::new(&g);
        d.run_from_vertex(VertexId(0));
        assert_eq!(d.distance(VertexId(0)), 0);
        assert_eq!(d.distance(VertexId(1)), 1);
        assert_eq!(d.distance(VertexId(2)), 2); // via 1, not the chord
        assert_eq!(d.distance(VertexId(3)), 3);
    }

    #[test]
    fn engine_reuse_resets_state() {
        let g = ring();
        let mut d = DijkstraEngine::new(&g);
        d.run_from_vertex(VertexId(0));
        d.run_from_vertex(VertexId(2));
        assert_eq!(d.distance(VertexId(2)), 0);
        assert_eq!(d.distance(VertexId(0)), 2);
        assert_eq!(d.distance(VertexId(1)), 3);
    }

    #[test]
    fn bounded_radius_stops() {
        let g = ring();
        let mut d = DijkstraEngine::new(&g);
        let settled = d.run_seeded(&[(VertexId(0), 0)], SearchBounds::radius(1));
        assert_eq!(settled, 2); // vertex 0 and vertex 1
        assert_eq!(d.distance(VertexId(3)), INFINITY);
    }

    #[test]
    fn max_settled_stops() {
        let g = ring();
        let mut d = DijkstraEngine::new(&g);
        let bounds = SearchBounds {
            max_dist: INFINITY,
            max_settled: 1,
        };
        assert_eq!(d.run_seeded(&[(VertexId(0), 0)], bounds), 1);
    }

    #[test]
    fn multi_source_is_pointwise_min_of_single_sources() {
        let g = ring();
        let seeds = [(VertexId(0), 2), (VertexId(2), 0)];
        let mut multi = DijkstraEngine::new(&g);
        multi.run_seeded(&seeds, SearchBounds::UNBOUNDED);
        let mut single = DijkstraEngine::new(&g);
        for v in 0..4 {
            let v = VertexId(v);
            let mut best = INFINITY;
            for &(s, c) in &seeds {
                single.run_seeded(&[(s, c)], SearchBounds::UNBOUNDED);
                best = best.min(single.distance(v));
            }
            assert_eq!(multi.distance(v), best, "vertex {v:?}");
        }
    }

    #[test]
    fn multi_source_shares_subtrees() {
        // Two seeds whose searches overlap: the fused search must examine
        // fewer edges than the sum of the per-seed searches.
        let g = ring();
        let seeds = [(VertexId(0), 0), (VertexId(1), 0)];
        let mut engine = DijkstraEngine::new(&g);
        engine.run_seeded(&seeds, SearchBounds::UNBOUNDED);
        let fused = engine.relaxed();
        let mut split = 0;
        for &(s, c) in &seeds {
            engine.run_seeded(&[(s, c)], SearchBounds::UNBOUNDED);
            split += engine.relaxed();
        }
        assert!(fused < split, "fused {fused} vs split {split}");
    }

    #[test]
    fn relaxed_counter_resets_per_search() {
        let g = ring();
        let mut d = DijkstraEngine::new(&g);
        d.run_from_vertex(VertexId(0));
        let first = d.relaxed();
        assert!(first > 0);
        d.run_seeded(&[(VertexId(3), 0)], SearchBounds::radius(0));
        assert!(d.relaxed() < first);
    }

    #[test]
    fn disconnected_vertex_unreachable() {
        let mut b = GraphBuilder::with_vertices(3);
        b.add_edge(VertexId(0), VertexId(1), 1);
        let g = b.build();
        let mut d = DijkstraEngine::new(&g);
        d.run_from_vertex(VertexId(0));
        assert_eq!(d.distance(VertexId(2)), INFINITY);
    }

    #[test]
    fn position_distance_same_edge_forward() {
        let g = ring();
        // Both on edge 0 (0→1, weight 1): q at offset 0, p at offset 1.
        let q = EdgePosition::new(EdgeId(0), 0);
        let p = EdgePosition::new(EdgeId(0), 1);
        assert_eq!(position_to_position(&g, q, p), 1);
    }

    #[test]
    fn position_distance_same_edge_behind_wraps() {
        let g = ring();
        // p behind q on the same edge: must loop the ring 1→2→3→0 then re-enter.
        let q = EdgePosition::new(EdgeId(0), 1);
        let p = EdgePosition::new(EdgeId(0), 0);
        // q is at vertex 1 effectively; loop to 0 costs 3, re-enter edge 0 offset 0.
        assert_eq!(position_to_position(&g, q, p), 3);
    }

    #[test]
    fn position_distance_cross_edges() {
        let g = ring();
        let q = EdgePosition::new(EdgeId(0), 0); // on 0→1 at source
        let p = EdgePosition::new(EdgeId(2), 1); // on 2→3 at dest side
                                                 // to vertex 1: 1, to vertex 2: 2, plus offset 1 = 3.
        assert_eq!(position_to_position(&g, q, p), 3);
    }

    #[test]
    fn reference_knn_orders_and_truncates() {
        let g = ring();
        let q = EdgePosition::new(EdgeId(0), 0);
        let objects = vec![
            (10, EdgePosition::new(EdgeId(2), 0)), // dist 2
            (11, EdgePosition::new(EdgeId(0), 1)), // dist 1
            (12, EdgePosition::new(EdgeId(3), 1)), // dist 4
        ];
        let knn = reference_knn(&g, q, &objects, 2);
        assert_eq!(knn, vec![(11, 1), (10, 2)]);
    }

    #[test]
    fn reference_knn_ties_break_by_id() {
        let g = ring();
        let q = EdgePosition::new(EdgeId(0), 0);
        let objects = vec![
            (7, EdgePosition::new(EdgeId(1), 0)),
            (3, EdgePosition::new(EdgeId(1), 0)),
        ];
        let knn = reference_knn(&g, q, &objects, 2);
        assert_eq!(knn[0].0, 3);
        assert_eq!(knn[1].0, 7);
    }

    #[test]
    fn scratch_round_trips_between_engines() {
        let g = ring();
        let mut e1 = DijkstraEngine::new(&g);
        e1.run_from_vertex(VertexId(0));
        let want: Vec<Distance> = g.vertices().map(|v| e1.distance(v)).collect();
        let scratch = e1.into_scratch();
        // Re-attached scratch carries the first search's map; the next
        // run must start from a clean one.
        let mut e2 = DijkstraEngine::with_scratch(&g, scratch);
        e2.run_from_vertex(VertexId(0));
        let got: Vec<Distance> = g.vertices().map(|v| e2.distance(v)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn undersized_scratch_grows_to_fit() {
        let g = ring();
        let mut e = DijkstraEngine::with_scratch(&g, DijkstraScratch::with_capacity(1));
        e.run_from_vertex(VertexId(0));
        assert_eq!(e.settled().len(), g.num_vertices());
    }

    #[test]
    fn reattached_scratch_forgets_the_last_search() {
        // The first search stops on its settle cap, so it also writes
        // vertices it never settles; the reset must clear those too.
        let g = crate::gen::toy(4);
        let mut first = DijkstraEngine::new(&g);
        let capped = SearchBounds {
            max_dist: INFINITY,
            max_settled: 20,
        };
        first.run_seeded(&[(VertexId(0), 0)], capped);
        let scratch = first.into_scratch();
        let written: Vec<VertexId> = scratch.entries().map(|(v, _)| v).collect();
        assert!(written.len() > scratch.settled().len());

        let far = VertexId(g.num_vertices() as u32 - 1);
        let bounds = SearchBounds::radius(30);
        let mut again = DijkstraEngine::with_scratch(&g, scratch);
        again.run_seeded(&[(far, 0)], bounds);
        let mut fresh = DijkstraEngine::new(&g);
        fresh.run_seeded(&[(far, 0)], bounds);
        for &v in &written {
            let resettled = again.settled().contains(&v);
            let want = if resettled {
                fresh.distance(v)
            } else {
                INFINITY
            };
            assert_eq!(again.distance(v), want, "vertex {v:?}");
        }
        for v in g.vertices() {
            assert_eq!(again.distance(v), fresh.distance(v), "vertex {v:?}");
        }
        assert_eq!(again.settled(), fresh.settled());
    }

    #[test]
    fn absorb_is_the_pointwise_min() {
        let g = crate::gen::toy(2);
        let bounds = SearchBounds::radius(25);
        let search = |seed: u32| {
            let mut e = DijkstraEngine::new(&g);
            e.run_seeded(&[(VertexId(seed), 0)], bounds);
            e.into_scratch()
        };
        let (a, b) = (search(0), search(9));
        let mut ab = search(0);
        ab.absorb(&b);
        let mut ba = search(9);
        ba.absorb(&a);
        for v in g.vertices() {
            let want = a.distance(v).min(b.distance(v));
            assert_eq!(ab.distance(v), want);
            assert_eq!(ba.distance(v), want);
        }
        let mut written: Vec<_> = ab.entries().collect();
        written.sort_unstable();
        let mut other: Vec<_> = ba.entries().collect();
        other.sort_unstable();
        assert_eq!(written, other, "each finite entry listed once");
    }

    #[test]
    fn reference_knn_skips_unreachable() {
        let mut b = GraphBuilder::with_vertices(4);
        b.add_edge(VertexId(0), VertexId(1), 1);
        b.add_edge(VertexId(2), VertexId(3), 1); // island
        let g = b.build();
        let q = EdgePosition::new(EdgeId(0), 0);
        let objects = vec![(1, EdgePosition::new(EdgeId(1), 0))];
        assert!(reference_knn(&g, q, &objects, 1).is_empty());
    }
}
