//! Array-based directed graph model.
//!
//! The graph is stored in compressed sparse row (CSR) form twice — once by
//! source vertex (for forward searches) and once by destination vertex (the
//! layout the G-Grid cells need, where every vertex carries the edges it is
//! the *destination* of, see paper §III-A). Edge ids are stable indexes into
//! a single edge array so both adjacency views and all downstream indexes
//! (inverted edge index, object table) can refer to edges by id.
//!
//! The forward view also carries each out-edge's `(dest, weight)` inline
//! ([`Graph::out_arcs`]), so a search relaxes a vertex's edges with one
//! sequential read instead of one random [`Edge`] load per edge.

use std::fmt;

/// Network distance. Edge weights are `u32`; path lengths use `u64` so that
/// even the full-USA-scale graphs cannot overflow.
pub type Distance = u64;

/// Sentinel for "unreachable". Chosen well below `u64::MAX` so that
/// `INFINITY + w` never wraps during relaxation.
pub const INFINITY: Distance = u64::MAX / 4;

/// Identifier of a vertex; index into the graph's vertex arrays.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VertexId(pub u32);

/// Identifier of an edge; index into the graph's edge array.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl VertexId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A directed edge `source → dest` with travel cost `weight`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edge {
    pub source: VertexId,
    pub dest: VertexId,
    pub weight: u32,
}

/// A directed road network.
///
/// Construct with [`GraphBuilder`]. Immutable after construction: the moving
/// parts of the system (objects, messages) live in the indexes, not here.
#[derive(Clone)]
pub struct Graph {
    edges: Vec<Edge>,
    // CSR by source vertex.
    out_offsets: Vec<u32>,
    out_edges: Vec<EdgeId>,
    /// `(dest, weight)` of `out_edges[i]` at index `i`: the same offsets
    /// slice both.
    out_arcs: Vec<(u32, u32)>,
    // CSR by destination vertex.
    in_offsets: Vec<u32>,
    in_edges: Vec<EdgeId>,
    /// Optional planar coordinates (DIMACS `.co`), used by generators and for
    /// debugging; algorithms never require them.
    coords: Vec<(f32, f32)>,
}

impl Graph {
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.out_offsets.len() - 1
    }

    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    #[inline]
    pub fn edge(&self, e: EdgeId) -> Edge {
        self.edges[e.index()]
    }

    /// Edges leaving `v` (v is the source vertex).
    #[inline]
    pub fn out_edges(&self, v: VertexId) -> impl Iterator<Item = EdgeId> + '_ {
        let lo = self.out_offsets[v.index()] as usize;
        let hi = self.out_offsets[v.index() + 1] as usize;
        self.out_edges[lo..hi].iter().copied()
    }

    /// `(dest, weight)` of every edge leaving `v`, in [`Self::out_edges`]
    /// order: the adjacency Dijkstra relaxes through.
    #[inline]
    pub fn out_arcs(&self, v: VertexId) -> &[(u32, u32)] {
        let lo = self.out_offsets[v.index()] as usize;
        let hi = self.out_offsets[v.index() + 1] as usize;
        &self.out_arcs[lo..hi]
    }

    /// Edges entering `v` (v is the destination vertex). This is the view the
    /// graph grid stores per vertex (paper §III-A).
    #[inline]
    pub fn in_edges(&self, v: VertexId) -> impl Iterator<Item = EdgeId> + '_ {
        let lo = self.in_offsets[v.index()] as usize;
        let hi = self.in_offsets[v.index() + 1] as usize;
        self.in_edges[lo..hi].iter().copied()
    }

    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        (self.out_offsets[v.index() + 1] - self.out_offsets[v.index()]) as usize
    }

    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        (self.in_offsets[v.index() + 1] - self.in_offsets[v.index()]) as usize
    }

    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        (0..self.num_vertices() as u32).map(VertexId)
    }

    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> {
        (0..self.num_edges() as u32).map(EdgeId)
    }

    /// Planar coordinate of `v`, or `(0, 0)` when the graph carries none.
    #[inline]
    pub fn coord(&self, v: VertexId) -> (f32, f32) {
        self.coords.get(v.index()).copied().unwrap_or((0.0, 0.0))
    }

    pub fn has_coords(&self) -> bool {
        !self.coords.is_empty()
    }

    /// Approximate resident size in bytes; used by the index-size experiment
    /// (Fig 6) to account for the raw graph each index embeds.
    pub fn heap_size_bytes(&self) -> usize {
        self.edges.len() * std::mem::size_of::<Edge>()
            + (self.out_offsets.len() + self.in_offsets.len()) * 4
            + (self.out_edges.len() + self.in_edges.len()) * 4
            + self.out_arcs.len() * std::mem::size_of::<(u32, u32)>()
            + self.coords.len() * 8
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("vertices", &self.num_vertices())
            .field("edges", &self.num_edges())
            .finish()
    }
}

/// Incremental builder for [`Graph`].
#[derive(Default)]
pub struct GraphBuilder {
    num_vertices: u32,
    edges: Vec<Edge>,
    coords: Vec<(f32, f32)>,
}

impl GraphBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-declare `n` vertices (ids `0..n`).
    pub fn with_vertices(n: usize) -> Self {
        Self {
            num_vertices: n as u32,
            edges: Vec::new(),
            coords: Vec::new(),
        }
    }

    /// Add a vertex and return its id.
    pub fn add_vertex(&mut self) -> VertexId {
        let id = VertexId(self.num_vertices);
        self.num_vertices += 1;
        id
    }

    /// Add a vertex with a planar coordinate.
    pub fn add_vertex_at(&mut self, x: f32, y: f32) -> VertexId {
        let id = self.add_vertex();
        if self.coords.len() < id.index() {
            self.coords.resize(id.index(), (0.0, 0.0));
        }
        self.coords.push((x, y));
        id
    }

    /// Add a directed edge and return its id.
    ///
    /// # Panics
    /// Panics if either endpoint has not been declared or if `weight == 0`
    /// (zero-weight road segments break the strictly-positive-distance
    /// assumptions of every search in the workspace).
    pub fn add_edge(&mut self, source: VertexId, dest: VertexId, weight: u32) -> EdgeId {
        assert!(
            source.0 < self.num_vertices && dest.0 < self.num_vertices,
            "edge endpoint out of range"
        );
        assert!(weight > 0, "edge weight must be positive");
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge {
            source,
            dest,
            weight,
        });
        id
    }

    /// Add a pair of directed edges modelling an undirected road segment.
    pub fn add_bidirectional(&mut self, a: VertexId, b: VertexId, weight: u32) -> (EdgeId, EdgeId) {
        (self.add_edge(a, b, weight), self.add_edge(b, a, weight))
    }

    pub fn num_vertices(&self) -> usize {
        self.num_vertices as usize
    }

    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Finalise into CSR form.
    pub fn build(mut self) -> Graph {
        let n = self.num_vertices as usize;
        if !self.coords.is_empty() {
            self.coords.resize(n, (0.0, 0.0));
        }
        // Both grew by doubling; the graph keeps them for its lifetime, and
        // slack on a reused heap page is resident memory.
        self.edges.shrink_to_fit();
        self.coords.shrink_to_fit();
        let (out_offsets, out_edges) = csr_by(&self.edges, n, |e| e.source);
        let out_arcs = out_edges
            .iter()
            .map(|&e| {
                let edge = self.edges[e.index()];
                (edge.dest.0, edge.weight)
            })
            .collect();
        let (in_offsets, in_edges) = csr_by(&self.edges, n, |e| e.dest);
        Graph {
            edges: self.edges,
            out_offsets,
            out_edges,
            out_arcs,
            in_offsets,
            in_edges,
            coords: self.coords,
        }
    }
}

/// Build a CSR adjacency keyed by `key(edge)` using counting sort, preserving
/// edge-id order within each bucket.
fn csr_by(edges: &[Edge], n: usize, key: impl Fn(&Edge) -> VertexId) -> (Vec<u32>, Vec<EdgeId>) {
    let mut offsets = vec![0u32; n + 1];
    for e in edges {
        offsets[key(e).index() + 1] += 1;
    }
    for i in 1..=n {
        offsets[i] += offsets[i - 1];
    }
    let mut cursor = offsets.clone();
    let mut adj = vec![EdgeId(0); edges.len()];
    for (i, e) in edges.iter().enumerate() {
        let k = key(e).index();
        adj[cursor[k] as usize] = EdgeId(i as u32);
        cursor[k] += 1;
    }
    (offsets, adj)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph {
        // 0 -> 1 -> 3, 0 -> 2 -> 3, plus back edge 3 -> 0.
        let mut b = GraphBuilder::with_vertices(4);
        b.add_edge(VertexId(0), VertexId(1), 2);
        b.add_edge(VertexId(1), VertexId(3), 2);
        b.add_edge(VertexId(0), VertexId(2), 1);
        b.add_edge(VertexId(2), VertexId(3), 1);
        b.add_edge(VertexId(3), VertexId(0), 10);
        b.build()
    }

    #[test]
    fn counts() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 5);
    }

    #[test]
    fn out_adjacency() {
        let g = diamond();
        let outs: Vec<_> = g.out_edges(VertexId(0)).map(|e| g.edge(e).dest).collect();
        assert_eq!(outs, vec![VertexId(1), VertexId(2)]);
        assert_eq!(g.out_degree(VertexId(3)), 1);
    }

    /// The inline arcs mirror `out_edges` exactly: same order, same
    /// destination and weight, for every vertex.
    fn assert_arcs_mirror_edges(g: &Graph) {
        for v in g.vertices() {
            let want: Vec<(u32, u32)> = g
                .out_edges(v)
                .map(|e| (g.edge(e).dest.0, g.edge(e).weight))
                .collect();
            assert_eq!(g.out_arcs(v), &want[..], "vertex {v:?}");
        }
    }

    #[test]
    fn out_arcs_mirror_out_edges() {
        assert_arcs_mirror_edges(&diamond());
        assert_arcs_mirror_edges(&crate::gen::toy(3));
        assert_arcs_mirror_edges(&crate::gen::dataset(crate::gen::Dataset::NY, 12, 5));
    }

    #[test]
    fn in_adjacency() {
        let g = diamond();
        let ins: Vec<_> = g.in_edges(VertexId(3)).map(|e| g.edge(e).source).collect();
        assert_eq!(ins, vec![VertexId(1), VertexId(2)]);
        assert_eq!(g.in_degree(VertexId(0)), 1);
    }

    #[test]
    fn edge_lookup_is_stable() {
        let mut b = GraphBuilder::with_vertices(2);
        let e0 = b.add_edge(VertexId(0), VertexId(1), 7);
        let e1 = b.add_edge(VertexId(1), VertexId(0), 9);
        let g = b.build();
        assert_eq!(g.edge(e0).weight, 7);
        assert_eq!(g.edge(e1).weight, 9);
        assert_eq!(g.edge(e1).source, VertexId(1));
    }

    #[test]
    fn bidirectional_adds_two_edges() {
        let mut b = GraphBuilder::with_vertices(2);
        let (ab, ba) = b.add_bidirectional(VertexId(0), VertexId(1), 5);
        let g = b.build();
        assert_eq!(g.edge(ab).source, VertexId(0));
        assert_eq!(g.edge(ba).source, VertexId(1));
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    #[should_panic(expected = "weight must be positive")]
    fn zero_weight_rejected() {
        let mut b = GraphBuilder::with_vertices(2);
        b.add_edge(VertexId(0), VertexId(1), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn dangling_edge_rejected() {
        let mut b = GraphBuilder::with_vertices(1);
        b.add_edge(VertexId(0), VertexId(1), 1);
    }

    #[test]
    fn coords_default_to_origin() {
        let g = diamond();
        assert!(!g.has_coords());
        assert_eq!(g.coord(VertexId(2)), (0.0, 0.0));
    }

    #[test]
    fn coords_round_trip() {
        let mut b = GraphBuilder::new();
        let v = b.add_vertex_at(1.5, -2.0);
        let w = b.add_vertex_at(3.0, 4.0);
        b.add_edge(v, w, 1);
        let g = b.build();
        assert!(g.has_coords());
        assert_eq!(g.coord(v), (1.5, -2.0));
        assert_eq!(g.coord(w), (3.0, 4.0));
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }
}
