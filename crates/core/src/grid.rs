//! The graph grid (paper §III-A).
//!
//! The road network is partitioned into `2^ψ × 2^ψ` cells of at most δᶜ
//! vertices each, using the multilevel bisection partitioner; sibling parts
//! of the recursion land in neighbouring cells. Cells are stored in one
//! array ordered by Z-value so nearby cells co-locate in memory — the layout
//! both the CPU and the (simulated) GPU copy of the grid share.
//!
//! Every vertex record stores the edges *entering* that vertex (destination
//! layout), capped at δᵛ per record; vertices with more in-edges spill into
//! *virtual vertices* — extra records in the same cell with the same vertex
//! id. An inverted index maps every edge to the cell of its **source**
//! vertex, which is the cell an object travelling on that edge belongs to.

use std::sync::Arc;

use roadnet::graph::{EdgeId, Graph, VertexId};
use roadnet::partition::hierarchical_bisection;
use roadnet::zorder;

/// Identifier of a grid cell: its Z-value / position in the cell array.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct CellId(pub u32);

impl CellId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An edge stored with its destination vertex: `e = ⟨id, v_s, w⟩`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GridEdge {
    pub edge: EdgeId,
    pub source: VertexId,
    pub weight: u32,
}

/// One vertex record: `v = ⟨id, 𝒜_e, n⟩`. A vertex with more than δᵛ
/// in-edges occupies several records (the extras are *virtual vertices*).
/// The record's edges are a range of the grid's one in-edge array; read
/// them with [`Cell::edges`].
#[derive(Clone, Copy, Debug)]
pub struct VertexRecord {
    pub vertex: VertexId,
    /// True for spill records of a vertex that exceeded δᵛ.
    pub is_virtual: bool,
    edges_start: u32,
    edges_end: u32,
}

/// One grid cell: `c = ⟨𝒜_v, n_v, n_e⟩`, a view into the grid's arrays.
#[derive(Clone, Copy, Debug)]
pub struct Cell<'a> {
    pub records: &'a [VertexRecord],
    /// Real (non-virtual) vertices in the cell.
    pub num_vertices: u32,
    /// Edges whose source vertex is in this cell.
    pub num_out_edges: u32,
    /// The whole grid's in-edge array, which the records index.
    in_edges: &'a [GridEdge],
}

impl<'a> Cell<'a> {
    /// The (at most δᵛ) in-edges stored in record `r` of this cell.
    pub fn edges(&self, r: &VertexRecord) -> &'a [GridEdge] {
        &self.in_edges[r.edges_start as usize..r.edges_end as usize]
    }
}

/// An out-edge in a [`CellTopology`]: destination, the destination's cell
/// (Z-value) — the boundary check reads this instead of chasing the
/// destination's cell through the vertex map — and weight.
#[derive(Clone, Copy, Debug)]
struct TopoOutEdge {
    dest: VertexId,
    dest_cell: u32,
    weight: u32,
}

/// Per-cell CSR slice of the graph, in the layout the device keeps
/// resident: a dense vertex list plus in- and out-edge arrays indexed by
/// the vertex's *local* slot. Unlike the δᵛ-capped [`VertexRecord`]s, the
/// CSR stores every edge of every vertex exactly once (virtual spill
/// records are merged back), which is what the frontier kernel and the
/// boundary check relax over.
///
/// A view into the grid's arrays: the offsets are the cell's window of
/// grid-wide offset arrays, so they index the grid-wide edge arrays.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CellTopology<'a> {
    /// Real vertices of the cell, in record order.
    pub verts: &'a [VertexId],
    /// `in_offsets[i]..in_offsets[i+1]` indexes `verts[i]`'s in-edges in
    /// the grid's in-edge array.
    in_offsets: &'a [u32],
    /// `out_offsets[i]..out_offsets[i+1]` indexes `verts[i]`'s out-edges.
    out_offsets: &'a [u32],
    out_edges: &'a [TopoOutEdge],
}

impl<'a> CellTopology<'a> {
    pub fn num_vertices(&self) -> usize {
        self.verts.len()
    }

    /// Out-edges of the vertex at local slot `i`:
    /// `(dest, dest_cell, weight)` triples.
    pub(crate) fn out_edges_of(&self, i: usize) -> impl Iterator<Item = (VertexId, u32, u32)> + 'a {
        let (a, b) = (
            self.out_offsets[i] as usize,
            self.out_offsets[i + 1] as usize,
        );
        self.out_edges[a..b]
            .iter()
            .map(|e| (e.dest, e.dest_cell, e.weight))
    }

    pub(crate) fn out_degree_of(&self, i: usize) -> usize {
        (self.out_offsets[i + 1] - self.out_offsets[i]) as usize
    }

    /// Wire footprint of the slice on the device: 4-byte vertex ids, 8-byte
    /// in-edge entries (source, weight), 12-byte out-edge entries (dest,
    /// dest cell, weight), plus both offset arrays.
    pub(crate) fn bytes(&self) -> u64 {
        let n = self.verts.len();
        let ins = (self.in_offsets[n] - self.in_offsets[0]) as u64;
        let outs = (self.out_offsets[n] - self.out_offsets[0]) as u64;
        let offs = 2 * (n as u64 + 1) * 4;
        n as u64 * 4 + ins * 8 + outs * 12 + offs
    }
}

/// The graph grid.
///
/// Every per-cell and per-vertex list lives in one grid-wide array, sliced
/// by an offsets array (CSR): the build makes a fixed handful of
/// allocations however many cells there are, and the per-cell views
/// ([`Cell`], the CSR topology slices, [`GraphGrid::neighbors`]) borrow
/// from them.
pub struct GraphGrid {
    graph: Arc<Graph>,
    psi: u32,
    cell_of_vertex: Vec<u32>,
    /// Inverted index: edge → cell of its source vertex.
    cell_of_edge: Vec<u32>,
    /// Cell adjacency: cells connected by at least one edge in either
    /// direction (`getNeighbors` in Algorithm 4); cell `c`'s neighbours are
    /// `neighbor_cells[neighbor_offsets[c]..neighbor_offsets[c + 1]]`.
    neighbor_offsets: Vec<u32>,
    neighbor_cells: Vec<CellId>,
    /// Every vertex, cell by cell (ascending id inside a cell); cell `c`
    /// holds `verts[cell_verts[c]..cell_verts[c + 1]]`. A vertex's index
    /// here is its *grid slot*.
    cell_verts: Vec<u32>,
    verts: Vec<VertexId>,
    /// In-edges by grid slot (`in_offsets`, |V| + 1 entries), in the
    /// graph's in-edge order: the topology's in-edge CSR, and the edges the
    /// vertex records chunk by δᵛ.
    in_offsets: Vec<u32>,
    in_edges: Vec<GridEdge>,
    /// Out-edges by grid slot (`out_offsets`, |V| + 1 entries).
    out_offsets: Vec<u32>,
    out_edges: Vec<TopoOutEdge>,
    /// Vertex records; cell `c` holds
    /// `records[cell_records[c]..cell_records[c + 1]]`.
    cell_records: Vec<u32>,
    records: Vec<VertexRecord>,
    /// Local slot of each vertex inside its cell's [`CellTopology`].
    topo_slot: Vec<u32>,
    /// Mean edge weight, rounded down (≥ 1); the frontier kernel's default
    /// bucket width δ.
    mean_edge_weight: u64,
    cell_capacity: usize,
    vertex_capacity: usize,
}

impl GraphGrid {
    /// Build the grid: choose ψ from `⌈½·log₂(|V|/δᶜ)⌉`, partition, and
    /// deepen if balance slack ever overflows a cell.
    pub fn build(graph: Arc<Graph>, cell_capacity: usize, vertex_capacity: usize) -> Self {
        assert!(cell_capacity >= 1 && vertex_capacity >= 1);
        let n = graph.num_vertices().max(1);
        let ratio = (n as f64 / cell_capacity as f64).max(1.0);
        let mut psi = ((ratio.log2() / 2.0).ceil() as u32).min(15);
        loop {
            let partition = hierarchical_bisection(&graph, 2 * psi);
            let sizes = partition.part_sizes();
            if sizes.iter().all(|&s| s <= cell_capacity) || psi >= 15 {
                return Self::assemble(
                    graph,
                    psi,
                    partition.assignment,
                    cell_capacity,
                    vertex_capacity,
                );
            }
            psi += 1;
        }
    }

    /// Lay a finished partition out as the grid: `part_of_vertex` is
    /// [`hierarchical_bisection`]'s assignment at depth `2ψ`, and every
    /// part becomes the cell at the Z-value of its de-interleaved id.
    pub fn assemble(
        graph: Arc<Graph>,
        psi: u32,
        part_of_vertex: Vec<u32>,
        cell_capacity: usize,
        vertex_capacity: usize,
    ) -> Self {
        let side = 1u32 << psi;
        let num_cells = (side as usize) * (side as usize);
        let n = graph.num_vertices();

        // Map each part id (a 2ψ-bit string of bisection choices, MSB first)
        // onto grid coordinates by de-interleaving: even splits refine x,
        // odd splits refine y. Store the cell at the Z-value of (x, y).
        let part_to_z = |part: u32| -> u32 {
            let depth = 2 * psi;
            let (mut x, mut y) = (0u32, 0u32);
            for i in 0..depth {
                let bit = (part >> (depth - 1 - i)) & 1;
                if i % 2 == 0 {
                    x = (x << 1) | bit;
                } else {
                    y = (y << 1) | bit;
                }
            }
            zorder::encode(x, y)
        };

        // Cell membership by counting sort: vertices placed in ascending id
        // order inside each cell.
        let mut cell_of_vertex = vec![0u32; n];
        let mut cell_verts = vec![0u32; num_cells + 1];
        for v in graph.vertices() {
            let z = part_to_z(part_of_vertex[v.index()]);
            cell_of_vertex[v.index()] = z;
            cell_verts[z as usize + 1] += 1;
        }
        drop(part_of_vertex);
        for i in 0..num_cells {
            cell_verts[i + 1] += cell_verts[i];
        }
        let mut verts = vec![VertexId(0); n];
        let mut cursor = cell_verts.clone();
        for v in graph.vertices() {
            let z = cell_of_vertex[v.index()] as usize;
            verts[cursor[z] as usize] = v;
            cursor[z] += 1;
        }
        drop(cursor);

        // Edges by grid slot, and the vertex records: one per δᵛ chunk of
        // a vertex's in-edges (one empty record for a vertex with none),
        // the chunks after the first being virtual.
        let chunk_len = vertex_capacity.min(u32::MAX as usize) as u32;
        let mut topo_slot = vec![0u32; n];
        let mut in_offsets = Vec::with_capacity(n + 1);
        let mut in_edges = Vec::with_capacity(graph.num_edges());
        let mut out_offsets = Vec::with_capacity(n + 1);
        let mut out_edges = Vec::with_capacity(graph.num_edges());
        let mut cell_records = Vec::with_capacity(num_cells + 1);
        let mut records = Vec::with_capacity(n);
        in_offsets.push(0);
        out_offsets.push(0);
        cell_records.push(0);
        for c in 0..num_cells {
            let members = &verts[cell_verts[c] as usize..cell_verts[c + 1] as usize];
            for (slot, &v) in members.iter().enumerate() {
                topo_slot[v.index()] = slot as u32;
                let start = in_edges.len() as u32;
                in_edges.extend(graph.in_edges(v).map(|e| {
                    let edge = graph.edge(e);
                    GridEdge {
                        edge: e,
                        source: edge.source,
                        weight: edge.weight,
                    }
                }));
                let end = in_edges.len() as u32;
                in_offsets.push(end);
                let mut chunk = start;
                loop {
                    let chunk_end = end.min(chunk.saturating_add(chunk_len));
                    records.push(VertexRecord {
                        vertex: v,
                        is_virtual: chunk > start,
                        edges_start: chunk,
                        edges_end: chunk_end,
                    });
                    chunk = chunk_end;
                    if chunk == end {
                        break;
                    }
                }
                out_edges.extend(graph.out_edges(v).map(|e| {
                    let edge = graph.edge(e);
                    TopoOutEdge {
                        dest: edge.dest,
                        dest_cell: cell_of_vertex[edge.dest.index()],
                        weight: edge.weight,
                    }
                }));
                out_offsets.push(out_edges.len() as u32);
            }
            cell_records.push(records.len() as u32);
        }

        // Inverted index.
        let cell_of_edge: Vec<u32> = graph
            .edge_ids()
            .map(|e| cell_of_vertex[graph.edge(e).source.index()])
            .collect();

        // Cell adjacency from edges crossing cells (either direction): one
        // global pair list, sorted and deduplicated, then counted into
        // offsets.
        let mut cross: Vec<(u32, u32)> = Vec::new();
        for e in graph.edge_ids() {
            let edge = graph.edge(e);
            let a = cell_of_vertex[edge.source.index()];
            let b = cell_of_vertex[edge.dest.index()];
            if a != b {
                cross.push((a, b));
                cross.push((b, a));
            }
        }
        cross.sort_unstable();
        cross.dedup();
        let mut neighbor_offsets = vec![0u32; num_cells + 1];
        for &(a, _) in &cross {
            neighbor_offsets[a as usize + 1] += 1;
        }
        for i in 0..num_cells {
            neighbor_offsets[i + 1] += neighbor_offsets[i];
        }
        let neighbor_cells = cross.iter().map(|&(_, b)| CellId(b)).collect();
        drop(cross);

        let weight_sum: u64 = graph.edge_ids().map(|e| graph.edge(e).weight as u64).sum();
        let mean_edge_weight = (weight_sum / graph.num_edges().max(1) as u64).max(1);

        Self {
            graph,
            psi,
            cell_of_vertex,
            cell_of_edge,
            neighbor_offsets,
            neighbor_cells,
            cell_verts,
            verts,
            in_offsets,
            in_edges,
            out_offsets,
            out_edges,
            cell_records,
            records,
            topo_slot,
            mean_edge_weight,
            cell_capacity,
            vertex_capacity,
        }
    }

    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    pub fn psi(&self) -> u32 {
        self.psi
    }

    /// δᶜ this grid was built with.
    pub fn cell_capacity(&self) -> usize {
        self.cell_capacity
    }

    /// δᵛ this grid was built with.
    pub fn vertex_capacity(&self) -> usize {
        self.vertex_capacity
    }

    /// Grid side length `2^ψ`.
    pub fn side(&self) -> u32 {
        1 << self.psi
    }

    pub fn num_cells(&self) -> usize {
        self.cell_verts.len() - 1
    }

    pub fn cell(&self, c: CellId) -> Cell<'_> {
        let (a, b) = self.slot_range(c);
        Cell {
            records: &self.records
                [self.cell_records[c.index()] as usize..self.cell_records[c.index() + 1] as usize],
            num_vertices: (b - a) as u32,
            num_out_edges: self.out_offsets[b] - self.out_offsets[a],
            in_edges: &self.in_edges,
        }
    }

    pub(crate) fn cell_ids(&self) -> impl Iterator<Item = CellId> {
        (0..self.num_cells() as u32).map(CellId)
    }

    /// Grid slots of cell `c`'s vertices.
    #[inline]
    fn slot_range(&self, c: CellId) -> (usize, usize) {
        (
            self.cell_verts[c.index()] as usize,
            self.cell_verts[c.index() + 1] as usize,
        )
    }

    /// Cell an object on `e` belongs to (cell of `e`'s source vertex) — the
    /// `getCell` of Algorithms 1 and 4, backed by the inverted index.
    pub fn cell_of_edge(&self, e: EdgeId) -> CellId {
        CellId(self.cell_of_edge[e.index()])
    }

    pub fn cell_of_vertex(&self, v: VertexId) -> CellId {
        CellId(self.cell_of_vertex[v.index()])
    }

    /// Cells connected to `c` by at least one edge.
    pub fn neighbors(&self, c: CellId) -> &[CellId] {
        &self.neighbor_cells[self.neighbor_offsets[c.index()] as usize
            ..self.neighbor_offsets[c.index() + 1] as usize]
    }

    /// Real vertices of a cell (virtual records deduplicated), in record
    /// order.
    pub fn vertices_in(&self, c: CellId) -> impl Iterator<Item = VertexId> + '_ {
        self.topology(c).verts.iter().copied()
    }

    /// CSR slice of cell `c` — the layout kept resident on the device for
    /// the frontier kernel and the boundary check.
    pub(crate) fn topology(&self, c: CellId) -> CellTopology<'_> {
        let (a, b) = self.slot_range(c);
        CellTopology {
            verts: &self.verts[a..b],
            in_offsets: &self.in_offsets[a..=b],
            out_offsets: &self.out_offsets[a..=b],
            out_edges: &self.out_edges,
        }
    }

    /// Local slot of `v` inside its cell's [`CellTopology`].
    pub(crate) fn topo_slot_of(&self, v: VertexId) -> usize {
        self.topo_slot[v.index()] as usize
    }

    /// Mean edge weight (≥ 1): the frontier kernel's default bucket width δ
    /// when `GGridConfig::sdist_delta` is 0 (auto).
    pub fn mean_edge_weight(&self) -> u64 {
        self.mean_edge_weight
    }

    /// Bytes of the grid in the paper's §VII-C1 layout: 32-byte vertex
    /// records (δᵛ = 2 edges of 12 bytes plus header), cells padded to
    /// 128-byte lines, plus the inverted index (8 bytes per edge) and the
    /// vertex→cell map.
    pub fn grid_bytes(&self) -> u64 {
        let record_bytes = 8 + 12 * self.vertex_capacity as u64;
        let cell_payload = 8 + record_bytes * self.cell_capacity as u64;
        let cell_bytes = cell_payload.div_ceil(128) * 128;
        let cells = self.num_cells() as u64 * cell_bytes;
        let inverted = self.cell_of_edge.len() as u64 * 8;
        let vmap = self.cell_of_vertex.len() as u64 * 4;
        cells + inverted + vmap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::golden::Digest;
    use roadnet::gen;

    /// In-edges of the vertex at local slot `i` of a cell's CSR slice:
    /// `(source, weight)` pairs.
    fn in_edges_of<'a>(
        grid: &'a GraphGrid,
        t: &CellTopology,
        i: usize,
    ) -> impl Iterator<Item = (VertexId, u32)> + 'a {
        let (a, b) = (t.in_offsets[i] as usize, t.in_offsets[i + 1] as usize);
        grid.in_edges[a..b].iter().map(|e| (e.source, e.weight))
    }

    fn build_toy() -> GraphGrid {
        let g = Arc::new(gen::toy(42));
        GraphGrid::build(g, 3, 2)
    }

    #[test]
    fn every_vertex_lands_in_exactly_one_cell() {
        let grid = build_toy();
        let mut seen = vec![false; grid.graph().num_vertices()];
        for c in grid.cell_ids() {
            for v in grid.vertices_in(c) {
                assert!(!seen[v.index()], "{v:?} appears twice");
                seen[v.index()] = true;
                assert_eq!(grid.cell_of_vertex(v), c);
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn cell_capacity_respected() {
        let grid = build_toy();
        for c in grid.cell_ids() {
            assert!(grid.cell(c).num_vertices as usize <= 3);
        }
    }

    #[test]
    fn vertex_capacity_spills_to_virtual() {
        let grid = build_toy();
        let mut any_virtual = false;
        for c in grid.cell_ids() {
            let cell = grid.cell(c);
            for r in cell.records {
                assert!(cell.edges(r).len() <= 2, "record over vertex capacity");
                any_virtual |= r.is_virtual;
            }
        }
        // toy graph has degree-3+ vertices, so spill must occur with δᵛ=2.
        assert!(any_virtual);
    }

    #[test]
    fn all_in_edges_stored_exactly_once() {
        let grid = build_toy();
        let g = grid.graph().clone();
        let mut stored = vec![0u32; g.num_edges()];
        for c in grid.cell_ids() {
            let cell = grid.cell(c);
            for r in cell.records {
                for ge in cell.edges(r) {
                    stored[ge.edge.index()] += 1;
                    // The record's cell is the destination's cell.
                    assert_eq!(grid.cell_of_vertex(r.vertex), c);
                    assert_eq!(g.edge(ge.edge).dest, r.vertex);
                    assert_eq!(g.edge(ge.edge).source, ge.source);
                }
            }
        }
        assert!(stored.iter().all(|&s| s == 1));
    }

    #[test]
    fn inverted_index_points_to_source_cell() {
        let grid = build_toy();
        let g = grid.graph().clone();
        for e in g.edge_ids() {
            let src = g.edge(e).source;
            assert_eq!(grid.cell_of_edge(e), grid.cell_of_vertex(src));
        }
    }

    #[test]
    fn out_edge_counts_sum_to_total() {
        let grid = build_toy();
        let total: u32 = grid.cell_ids().map(|c| grid.cell(c).num_out_edges).sum();
        assert_eq!(total as usize, grid.graph().num_edges());
    }

    #[test]
    fn neighbors_symmetric_and_irreflexive() {
        let grid = build_toy();
        for c in grid.cell_ids() {
            for &n in grid.neighbors(c) {
                assert_ne!(n, c);
                assert!(grid.neighbors(n).contains(&c), "{c:?} ↔ {n:?}");
            }
        }
    }

    #[test]
    fn cross_cell_edges_imply_neighborhood() {
        let grid = build_toy();
        let g = grid.graph().clone();
        for e in g.edge_ids() {
            let edge = g.edge(e);
            let a = grid.cell_of_vertex(edge.source);
            let b = grid.cell_of_vertex(edge.dest);
            if a != b {
                assert!(grid.neighbors(a).contains(&b));
            }
        }
    }

    #[test]
    fn psi_formula() {
        // 64 vertices, δᶜ = 3 → |V|/δᶜ ≈ 21.3 → ψ = ⌈log₂(21.3)/2⌉ = 3 or
        // deeper if balance required; grid must have ≥ ceil(64/3) cells.
        let grid = build_toy();
        assert!(grid.num_cells() >= 22);
        assert_eq!(grid.num_cells(), (grid.side() * grid.side()) as usize);
    }

    #[test]
    fn single_cell_degenerate_grid() {
        let g = Arc::new(gen::toy(1));
        let grid = GraphGrid::build(g.clone(), g.num_vertices(), 8);
        assert_eq!(grid.num_cells(), 1);
        assert!(grid.neighbors(CellId(0)).is_empty());
        assert_eq!(grid.vertices_in(CellId(0)).count(), g.num_vertices());
    }

    #[test]
    fn unbounded_vertex_capacity_keeps_one_record_per_vertex() {
        let g = Arc::new(gen::toy(42));
        let grid = GraphGrid::build(g.clone(), 3, usize::MAX);
        assert_eq!(grid.records.len(), g.num_vertices());
        for c in grid.cell_ids() {
            let cell = grid.cell(c);
            for r in cell.records {
                assert!(!r.is_virtual);
                assert_eq!(cell.edges(r).len(), g.in_degree(r.vertex));
            }
        }
    }

    #[test]
    fn topology_matches_graph_edges_exactly_once() {
        let grid = build_toy();
        let g = grid.graph().clone();
        let mut in_stored = vec![0u32; g.num_edges()];
        let mut out_stored = vec![0u32; g.num_edges()];
        for c in grid.cell_ids() {
            let t = grid.topology(c);
            assert_eq!(t.num_vertices() as u32, grid.cell(c).num_vertices);
            for (slot, &v) in t.verts.iter().enumerate() {
                assert_eq!(grid.cell_of_vertex(v), c);
                assert_eq!(grid.topo_slot_of(v), slot);
                for (src, w) in in_edges_of(&grid, &t, slot) {
                    let e = g
                        .in_edges(v)
                        .find(|&e| {
                            g.edge(e).source == src
                                && g.edge(e).weight == w
                                && in_stored[e.index()] == 0
                        })
                        .expect("in-edge not in graph");
                    in_stored[e.index()] += 1;
                }
                for (dest, dest_cell, w) in t.out_edges_of(slot) {
                    assert_eq!(CellId(dest_cell), grid.cell_of_vertex(dest));
                    let e = g
                        .out_edges(v)
                        .find(|&e| {
                            g.edge(e).dest == dest
                                && g.edge(e).weight == w
                                && out_stored[e.index()] == 0
                        })
                        .expect("out-edge not in graph");
                    out_stored[e.index()] += 1;
                }
                assert_eq!(t.out_degree_of(slot), g.out_degree(v));
            }
        }
        // Every edge appears exactly once on each side — virtual spill
        // records are merged back into one CSR slot.
        assert!(in_stored.iter().all(|&s| s == 1));
        assert!(out_stored.iter().all(|&s| s == 1));
    }

    #[test]
    fn topology_bytes_positive_and_mean_weight_sane() {
        let grid = build_toy();
        let total: u64 = grid.cell_ids().map(|c| grid.topology(c).bytes()).sum();
        assert!(total > 0);
        let g = grid.graph().clone();
        let max_w = g.edge_ids().map(|e| g.edge(e).weight as u64).max().unwrap();
        assert!(grid.mean_edge_weight() >= 1);
        assert!(grid.mean_edge_weight() <= max_w);
    }

    #[test]
    fn grid_bytes_positive_and_scales() {
        let small = build_toy();
        let big = GraphGrid::build(
            Arc::new(gen::grid_city(&gen::GridCityParams {
                rows: 16,
                cols: 16,
                ..Default::default()
            })),
            3,
            2,
        );
        assert!(small.grid_bytes() > 0);
        assert!(big.grid_bytes() > small.grid_bytes());
    }

    /// FNV-1a over every array the grid exposes, in a fixed order: the
    /// vertex and edge maps, then per cell its neighbours in order, its
    /// records with their edges, its counts, and its topology slice slot by
    /// slot, then the topology slots and the scalars.
    fn grid_digest(grid: &GraphGrid) -> u64 {
        let mut h = Digest::new();
        let mut word = |w: u64| h.word(w);
        let g = grid.graph().clone();
        word(grid.psi() as u64);
        for v in g.vertices() {
            word(grid.cell_of_vertex(v).0 as u64);
        }
        for e in g.edge_ids() {
            word(grid.cell_of_edge(e).0 as u64);
        }
        for c in grid.cell_ids() {
            word(grid.neighbors(c).len() as u64);
            for n in grid.neighbors(c) {
                word(n.0 as u64);
            }
            let cell = grid.cell(c);
            word(cell.records.len() as u64);
            for r in cell.records {
                word(r.vertex.0 as u64);
                word(r.is_virtual as u64);
                word(cell.edges(r).len() as u64);
                for ge in cell.edges(r) {
                    word(ge.edge.0 as u64);
                    word(ge.source.0 as u64);
                    word(ge.weight as u64);
                }
            }
            word(cell.num_vertices as u64);
            word(cell.num_out_edges as u64);
            let t = grid.topology(c);
            word(t.num_vertices() as u64);
            word(t.bytes());
            for (slot, v) in t.verts.iter().enumerate() {
                word(v.0 as u64);
                for (src, w) in in_edges_of(grid, &t, slot) {
                    word(src.0 as u64);
                    word(w as u64);
                }
                word(u64::MAX);
                for (dest, dest_cell, w) in t.out_edges_of(slot) {
                    word(dest.0 as u64);
                    word(dest_cell as u64);
                    word(w as u64);
                }
                word(u64::MAX);
            }
        }
        for v in g.vertices() {
            word(grid.topo_slot_of(v) as u64);
        }
        word(grid.mean_edge_weight());
        word(grid.records.len() as u64);
        word(grid.grid_bytes());
        h.0
    }

    /// Grids recorded once from a known-good build; any change to the build
    /// that moves one array entry moves a modeled number and must be
    /// deliberate.
    #[test]
    fn grid_matches_golden() {
        let ny = Arc::new(gen::dataset(gen::Dataset::NY, 12, 1));
        let got = [
            grid_digest(&build_toy()),
            grid_digest(&GraphGrid::build(ny, 3, 2)),
        ];
        let want: [u64; 2] = [825_778_086_771_085_150, 13_283_348_130_303_081_857];
        assert_eq!(got, want);
    }
}
