//! Multilevel graph partitioning (Karypis–Kumar style).
//!
//! The paper partitions the road network with the multilevel scheme of
//! Karypis and Kumar \[5\]: recursively bisect the vertex set into equal-sized
//! halves while minimising the edge cut; sibling halves become neighbouring
//! cells (§III-A). This module implements that scheme:
//!
//! * **coarsening** via heavy-edge matching,
//! * **initial bisection** via weighted BFS region growing,
//! * **refinement** via a boundary Kernighan–Lin pass at every level,
//! * **recursion** producing a bit-string part id per vertex, where bit `i`
//!   records the side taken at bisection level `i` — exactly the shape the
//!   G-Grid needs to lay parts onto a `2^ψ × 2^ψ` cell lattice, and the shape
//!   V-Tree needs for its partition hierarchy.

use crate::graph::Graph;

/// Result of partitioning: `assignment[v]` is the part id of vertex `v`.
#[derive(Clone, Debug)]
pub struct Partition {
    pub assignment: Vec<u32>,
    pub num_parts: u32,
}

impl Partition {
    /// Number of directed edges crossing parts.
    pub fn cut_edges(&self, graph: &Graph) -> usize {
        graph
            .edge_ids()
            .filter(|&e| {
                let edge = graph.edge(e);
                self.assignment[edge.source.index()] != self.assignment[edge.dest.index()]
            })
            .count()
    }

    /// Sizes of each part.
    pub fn part_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_parts as usize];
        for &p in &self.assignment {
            sizes[p as usize] += 1;
        }
        sizes
    }
}

/// A working graph of one bisection: undirected, with weighted vertices
/// (the number of original vertices each one contains) and weighted
/// edges (the number of original directed edges each one stands for).
/// `span[v]` slices `edges` to `v`'s adjacency, sorted by neighbour id
/// with parallel edges merged and no self-loops; `tot[v]` is the weight
/// of all of `v`'s edges.
#[derive(Clone, Copy)]
struct View<'a> {
    vwt: &'a [u32],
    tot: &'a [u64],
    span: &'a [(u32, u32)],
    edges: &'a [(u32, u32)],
}

impl<'a> View<'a> {
    fn len(&self) -> usize {
        self.span.len()
    }

    #[inline]
    fn neighbors(&self, v: usize) -> &'a [(u32, u32)] {
        let (start, end) = self.span[v];
        &self.edges[start as usize..end as usize]
    }
}

/// Add the edge `(u, w)` to the segment `edges[start..]`, which is sorted
/// by neighbour id with parallel edges merged, and keep it so. Neighbours
/// arrive nearly sorted, so the scan back from the end is short.
#[inline]
fn push_merged(edges: &mut Vec<(u32, u32)>, start: usize, u: u32, w: u32) {
    let segment = &mut edges[start..];
    let mut i = segment.len();
    while i > 0 && segment[i - 1].0 > u {
        i -= 1;
    }
    if i > 0 && segment[i - 1].0 == u {
        segment[i - 1].1 += w;
    } else if i == segment.len() {
        edges.push((u, w));
    } else {
        edges.insert(start + i, (u, w));
    }
}

/// One coarsening level: the coarse graph and the map onto it.
#[derive(Default)]
struct CoarseLevel {
    /// `map[v]` is the coarse vertex that contains the finer graph's `v`.
    map: Vec<u32>,
    vwt: Vec<u32>,
    tot: Vec<u64>,
    span: Vec<(u32, u32)>,
    edges: Vec<(u32, u32)>,
}

impl CoarseLevel {
    fn view(&self) -> View<'_> {
        View {
            vwt: &self.vwt,
            tot: &self.tot,
            span: &self.span,
            edges: &self.edges,
        }
    }
}

/// Buffers every bisection of one recursion reuses, so a `bisect` call
/// allocates nothing once the first (largest) call has sized them.
#[derive(Default)]
struct Scratch {
    /// The current graph's sides (`true` = the left child's).
    side: Vec<bool>,
    /// Per vertex, the weight of its edges to the other side.
    ext: Vec<u64>,
    /// The next finer graph's `side` and `ext` while they are projected.
    fine_side: Vec<bool>,
    fine_ext: Vec<u64>,
    queue: Vec<u32>,
    seen: Vec<bool>,
    /// Each coarse vertex's one or two members in the finer graph.
    members: Vec<(u32, u32)>,
    candidates: Vec<(i64, u32, u32)>,
    /// Each vertex's id within its side, while a region splits.
    local: Vec<u32>,
    /// The right child of a splitting region, until the left is packed.
    right_ids: Vec<u32>,
    right_tot: Vec<u64>,
    right_span: Vec<(u32, u32)>,
    right_edges: Vec<(u32, u32)>,
}

/// Marks a coarse vertex with a single member.
const NO_MATE: u32 = u32::MAX;

/// Heavy-edge matching: visit `g`'s vertices in index order and match each
/// unmatched one with its heaviest unmatched neighbour (the first on a
/// tie). Coarse ids follow the first member's index. Returns false, and
/// builds no coarse graph, when matching would not shrink `g` by at least
/// 1/16: a stalling match (e.g. a hub whose leaves all stay single) would
/// shed a handful of vertices per level, turning the multilevel recursion
/// O(|V|) deep.
fn coarsen(g: View, lvl: &mut CoarseLevel, members: &mut Vec<(u32, u32)>) -> bool {
    let n = g.len();
    let map = &mut lvl.map;
    map.clear();
    map.resize(n, u32::MAX);
    members.clear();
    for v in 0..n {
        if map[v] != u32::MAX {
            continue;
        }
        let mut best: Option<(u32, u32)> = None;
        for &(u, w) in g.neighbors(v) {
            if map[u as usize] == u32::MAX && best.is_none_or(|(_, bw)| w > bw) {
                best = Some((u, w));
            }
        }
        let id = members.len() as u32;
        map[v] = id;
        let mate = best.map_or(NO_MATE, |(u, _)| {
            map[u as usize] = id;
            u
        });
        members.push((v as u32, mate));
    }
    if members.len() >= n - n / 16 {
        return false;
    }
    // One pass: each coarse vertex's segment is its members' edges to
    // other coarse vertices, kept sorted and merged as it is written.
    lvl.vwt.clear();
    lvl.tot.clear();
    lvl.span.clear();
    lvl.edges.clear();
    for (c, &(a, b)) in members.iter().enumerate() {
        let start = lvl.edges.len();
        let (mut wt, mut tot) = (0, 0);
        for m in [a, b] {
            if m == NO_MATE {
                break;
            }
            wt += g.vwt[m as usize];
            for &(u, w) in g.neighbors(m as usize) {
                let cu = map[u as usize];
                if cu as usize != c {
                    push_merged(&mut lvl.edges, start, cu, w);
                    tot += w as u64;
                }
            }
        }
        lvl.vwt.push(wt);
        lvl.tot.push(tot);
        lvl.span.push((start as u32, lvl.edges.len() as u32));
    }
    true
}

/// Multilevel bisection of `g`, whose vertex weights sum to `total`:
/// coarsen while that shrinks the graph meaningfully, bisect the coarsest
/// graph, then project the sides back one level at a time, refining and
/// rebalancing at each. Leaves `g`'s sides in `s.side`.
fn bisect(g: View, total: u64, levels: &mut Vec<CoarseLevel>, s: &mut Scratch) {
    let mut depth = 0;
    loop {
        if levels.len() == depth {
            levels.push(CoarseLevel::default());
        }
        let (done, rest) = levels.split_at_mut(depth);
        let fine = done.last().map_or(g, CoarseLevel::view);
        if fine.len() <= 16 || !coarsen(fine, &mut rest[0], &mut s.members) {
            break;
        }
        depth += 1;
    }
    let coarsest = levels[..depth].last().map_or(g, CoarseLevel::view);
    let mut wa = initial_bisection(coarsest, total, s);
    wa = refine(coarsest, total, wa, s);
    wa = rebalance(coarsest, total, wa, s);
    for d in (0..depth).rev() {
        let fine = levels[..d].last().map_or(g, CoarseLevel::view);
        let map = &levels[d].map;
        s.fine_side.clear();
        s.fine_ext.clear();
        for v in 0..fine.len() {
            let c = map[v] as usize;
            let sd = s.side[c];
            // A coarse vertex with no cut edge has members with none: each
            // member's edges lead to its mate or into a coarse neighbour,
            // and every coarse neighbour is on its side.
            let mut ext = 0;
            if s.ext[c] > 0 {
                for &(u, w) in fine.neighbors(v) {
                    if s.side[map[u as usize] as usize] != sd {
                        ext += w as u64;
                    }
                }
            }
            s.fine_side.push(sd);
            s.fine_ext.push(ext);
        }
        std::mem::swap(&mut s.side, &mut s.fine_side);
        std::mem::swap(&mut s.ext, &mut s.fine_ext);
        // Projection keeps each side's weight.
        wa = refine(fine, total, wa, s);
        wa = rebalance(fine, total, wa, s);
    }
}

/// Initial bisection by BFS region growing from vertex 0 until half of the
/// total weight is collected. `side[v] = true` marks the grown region,
/// whose weight is returned; `s.ext` gets each vertex's cut weight.
fn initial_bisection(g: View, total: u64, s: &mut Scratch) -> u64 {
    let n = g.len();
    let half = total / 2;
    s.side.clear();
    s.side.resize(n, false);
    s.seen.clear();
    s.seen.resize(n, false);
    s.queue.clear();
    let mut head = 0;
    let mut grown = 0u64;
    let mut start = 0usize;
    while grown < half {
        // Handle disconnected working graphs by restarting BFS.
        while start < n && s.seen[start] {
            start += 1;
        }
        if start >= n {
            break;
        }
        s.queue.push(start as u32);
        s.seen[start] = true;
        while head < s.queue.len() {
            let v = s.queue[head] as usize;
            head += 1;
            if grown >= half {
                break;
            }
            s.side[v] = true;
            grown += g.vwt[v] as u64;
            for &(u, _) in g.neighbors(v) {
                if !s.seen[u as usize] {
                    s.seen[u as usize] = true;
                    s.queue.push(u);
                }
            }
        }
    }
    s.ext.clear();
    for v in 0..n {
        let cut = g
            .neighbors(v)
            .iter()
            .filter(|&&(u, _)| s.side[u as usize] != s.side[v]);
        s.ext.push(cut.map(|&(_, w)| w as u64).sum());
    }
    grown
}

/// Move `v` to the other side and keep every cut weight current: `v`'s
/// external and internal weights swap, and each neighbour's external
/// weight gains or loses the edge.
#[inline]
fn flip(g: View, s: &mut Scratch, v: usize) {
    let now = !s.side[v];
    s.side[v] = now;
    s.ext[v] = g.tot[v] - s.ext[v];
    for &(u, w) in g.neighbors(v) {
        let u = u as usize;
        if s.side[u] == now {
            s.ext[u] -= w as u64;
        } else {
            s.ext[u] += w as u64;
        }
    }
}

/// One boundary Kernighan–Lin refinement pass: greedily move vertices
/// whose external edge weight exceeds their internal weight while keeping
/// both sides ≥ 1/5 of the total weight. Runs at most four sweeps. A visit
/// reads the vertex's cut weight in `s.ext`; only a move pays O(degree).
/// `wa` is the `true` side's weight before, and the return value after.
fn refine(g: View, total: u64, mut wa: u64, s: &mut Scratch) -> u64 {
    let n = g.len();
    let min_side = total / 5; // keep sides within 20–80%; callers rebalance
    for _sweep in 0..4 {
        let mut moved_any = false;
        for v in 0..n {
            // External weight beats internal weight (`tot - ext`).
            if 2 * s.ext[v] > g.tot[v] {
                // Check balance before moving v to the other side.
                let wt = g.vwt[v] as u64;
                let from = if s.side[v] { wa } else { total - wa };
                if from - wt.min(from) < min_side {
                    continue;
                }
                if s.side[v] {
                    wa -= wt;
                } else {
                    wa += wt;
                }
                flip(g, s, v);
                moved_any = true;
            }
        }
        if !moved_any {
            break;
        }
    }
    wa
}

/// Force the two sides within one (weighted) vertex of perfect balance by
/// moving cheapest-to-move vertices. The paper's cells have a hard capacity
/// δᶜ, so balance is a correctness requirement, not just a quality goal.
/// `wa` is the `true` side's weight before, and the return value after.
fn rebalance(g: View, total: u64, wa: u64, s: &mut Scratch) -> u64 {
    let total = total as i64;
    let mut wa = wa as i64;
    // One O(n) scan per *round*, not per move: collect every heavy-side
    // vertex with its cut gain, then drain the imbalance through them in
    // descending-gain order. The old one-scan-per-move loop was quadratic
    // on large subsets (refinement can leave the sides tens of thousands
    // of moves apart), which dominated 300k-vertex grid builds.
    loop {
        let heavy_is_a = wa >= total - wa;
        let signed_diff = |wa: i64| {
            if heavy_is_a {
                2 * wa - total
            } else {
                total - 2 * wa
            }
        };
        if signed_diff(wa) <= 1 {
            break;
        }
        s.candidates.clear();
        s.candidates.extend(
            (0..g.len())
                .filter(|&v| s.side[v] == heavy_is_a)
                // Gain: external minus internal weight.
                .map(|v| (2 * s.ext[v] as i64 - g.tot[v] as i64, g.vwt[v], v as u32)),
        );
        // Best cut gain first; vertex id breaks ties, so the order is total
        // and deterministic. Every move shrinks the difference by at least
        // 2, so at most ⌈diff/2⌉ moves happen: sort only that many leading
        // candidates, and the rest only when skipped (overshooting) ones
        // use the prefix up before the sides balance. The consumed order is
        // exactly that of a full sort.
        let by_gain = |a: &(i64, u32, u32), b: &(i64, u32, u32)| b.0.cmp(&a.0).then(a.2.cmp(&b.2));
        let mut sorted = (signed_diff(wa) as usize / 2 + 1).min(s.candidates.len());
        if sorted < s.candidates.len() {
            s.candidates.select_nth_unstable_by(sorted, by_gain);
        }
        s.candidates[..sorted].sort_unstable_by(by_gain);
        let mut moved_any = false;
        let mut next = 0;
        loop {
            let diff = signed_diff(wa);
            if diff <= 1 {
                break;
            }
            if next == sorted {
                if sorted == s.candidates.len() {
                    break;
                }
                s.candidates[sorted..].sort_unstable_by(by_gain);
                sorted = s.candidates.len();
            }
            let (_, wt, v) = s.candidates[next];
            next += 1;
            // A move shifts the difference by 2·wt; skip vertices that
            // would overshoot past ±1.
            if 2 * wt as i64 > diff + 1 {
                continue;
            }
            let v = v as usize;
            if s.side[v] {
                wa -= wt as i64;
            } else {
                wa += wt as i64;
            }
            flip(g, s, v);
            moved_any = true;
        }
        if !moved_any {
            break; // nothing movable without overshooting
        }
    }
    wa as u64
}

/// Recursively bisect `graph` to `depth` levels.
///
/// Returns a part id per vertex in `0..2^depth`; bit `depth-1-i` of the id is
/// the side chosen at recursion level `i` (most significant bit = first
/// split), so sibling parts differ in their lowest bits — interleaving the
/// bits of the id yields the neighbouring-cell layout of the paper.
pub fn hierarchical_bisection(graph: &Graph, depth: u32) -> Partition {
    let mut assignment = vec![0u32; graph.num_vertices()];
    if depth > 0 && graph.num_vertices() > 0 {
        let n = graph.num_vertices();
        Recursion::new(graph).split_recursive(0..n, depth, 0, &mut assignment);
    }
    Partition {
        assignment,
        num_parts: 1 << depth,
    }
}

/// The state of one [`hierarchical_bisection`]. Every recursion node's
/// level-0 working graph (all vertex weights 1) lives in one set of
/// arrays: a node owns a contiguous range of vertex positions, and its
/// edges are one contiguous run of `edges`. Splitting a node packs its
/// two children into its own range, so the whole recursion works in the
/// root's memory plus one [`Scratch`] and one stack of coarsening levels.
struct Recursion {
    /// The original vertex at each position.
    ids: Vec<u32>,
    tot: Vec<u64>,
    span: Vec<(u32, u32)>,
    edges: Vec<(u32, u32)>,
    /// Level-0 vertex weights: all 1.
    unit: Vec<u32>,
    levels: Vec<CoarseLevel>,
    scratch: Scratch,
}

impl Recursion {
    /// The root's working graph: edge directions are ignored, self-loops
    /// dropped and parallel edges merged. This is the only pass over
    /// `graph`.
    fn new(graph: &Graph) -> Self {
        let n = graph.num_vertices();
        assert!(
            2 * graph.num_edges() <= u32::MAX as usize,
            "edge positions must fit the u32 spans"
        );
        let mut span = Vec::with_capacity(n);
        let mut tot = Vec::with_capacity(n);
        let mut edges = Vec::with_capacity(2 * graph.num_edges());
        for v in graph.vertices() {
            let start = edges.len();
            let out = graph.out_edges(v).map(|e| graph.edge(e).dest);
            let inc = graph.in_edges(v).map(|e| graph.edge(e).source);
            let mut deg = 0;
            for u in out.chain(inc).filter(|&u| u != v) {
                push_merged(&mut edges, start, u.0, 1);
                deg += 1;
            }
            span.push((start as u32, edges.len() as u32));
            tot.push(deg);
        }
        Self {
            ids: (0..n as u32).collect(),
            tot,
            span,
            edges,
            unit: vec![1; n],
            levels: Vec::new(),
            scratch: Scratch::default(),
        }
    }

    /// Bisect the node at positions `range`, and recurse into both sides
    /// `levels_left - 1` more times.
    fn split_recursive(
        &mut self,
        range: std::ops::Range<usize>,
        levels_left: u32,
        prefix: u32,
        assignment: &mut [u32],
    ) {
        let g = View {
            vwt: &self.unit[..range.len()],
            tot: &self.tot[range.clone()],
            span: &self.span[range.clone()],
            edges: &self.edges,
        };
        bisect(g, range.len() as u64, &mut self.levels, &mut self.scratch);
        let ids = [prefix << 1, (prefix << 1) | 1];
        if levels_left == 1 {
            for (&v, &left) in self.ids[range].iter().zip(&self.scratch.side) {
                assignment[v as usize] = ids[!left as usize];
            }
            return;
        }
        let mid = range.start + self.split(range.clone());
        for (child, id) in [(range.start..mid, ids[0]), (mid..range.end, ids[1])] {
            if !child.is_empty() {
                self.split_recursive(child, levels_left - 1, id, assignment);
            }
        }
    }

    /// Split the node at `range` by `scratch.side`, in place: the `true`
    /// side's vertices move to the front and the rest follow, each side in
    /// its old order, and each vertex keeps only its edges to its own side.
    /// The renaming is monotone, so every segment stays sorted and merged,
    /// and each child is exactly the working graph a fresh build would give
    /// its vertex subset. Returns the size of the `true` side.
    fn split(&mut self, range: std::ops::Range<usize>) -> usize {
        let s = &mut self.scratch;
        let side = &s.side[..range.len()];
        s.local.clear();
        let mut counts = [0u32; 2];
        for &left in side {
            s.local.push(counts[left as usize]);
            counts[left as usize] += 1;
        }
        let local = &s.local;
        // The right child, renumbered, to the side buffers.
        s.right_ids.clear();
        s.right_tot.clear();
        s.right_span.clear();
        s.right_edges.clear();
        for (i, v) in range.clone().enumerate() {
            if side[i] {
                continue;
            }
            let start = s.right_edges.len() as u32;
            let (a, b) = self.span[v];
            let mut tot = 0;
            for &(u, w) in &self.edges[a as usize..b as usize] {
                if !side[u as usize] {
                    s.right_edges.push((local[u as usize], w));
                    tot += w as u64;
                }
            }
            s.right_ids.push(self.ids[v]);
            s.right_tot.push(tot);
            s.right_span.push((start, s.right_edges.len() as u32));
        }
        // The left child packs forward from the node's first edge: every
        // write lands at or before the position it was read from.
        let mut at = range.start;
        let mut w = self.span[range.start].0 as usize;
        for (i, v) in range.clone().enumerate() {
            if !side[i] {
                continue;
            }
            let start = w;
            let (a, b) = self.span[v];
            let mut tot = 0;
            for k in a as usize..b as usize {
                let (u, wt) = self.edges[k];
                if side[u as usize] {
                    self.edges[w] = (local[u as usize], wt);
                    w += 1;
                    tot += wt as u64;
                }
            }
            self.ids[at] = self.ids[v];
            self.tot[at] = tot;
            self.span[at] = (start as u32, w as u32);
            at += 1;
        }
        // The right child follows it.
        let base = w as u32;
        self.ids[at..range.end].copy_from_slice(&s.right_ids);
        self.tot[at..range.end].copy_from_slice(&s.right_tot);
        for (span, &(a, b)) in self.span[at..range.end].iter_mut().zip(&s.right_span) {
            *span = (base + a, base + b);
        }
        self.edges[w..w + s.right_edges.len()].copy_from_slice(&s.right_edges);
        counts[1] as usize
    }
}

/// Partition into parts of at most `max_part_size` vertices by choosing the
/// smallest bisection depth that guarantees the capacity.
pub fn partition_with_capacity(graph: &Graph, max_part_size: usize) -> Partition {
    assert!(max_part_size >= 1);
    let n = graph.num_vertices().max(1);
    // Start from the information-theoretic depth and deepen until the
    // *actual* largest part fits; bisection balance keeps this loop to a
    // couple of iterations. Depth is capped where every part is a single
    // vertex (⌈log₂ n⌉ plus slack for odd-split drift).
    let mut depth = (n as f64 / max_part_size as f64).log2().ceil().max(0.0) as u32;
    let max_depth = (n as f64).log2().ceil() as u32 + 2;
    loop {
        let p = hierarchical_bisection(graph, depth);
        if depth >= max_depth || p.part_sizes().iter().all(|&s| s <= max_part_size) {
            return p;
        }
        depth += 1;
    }
}

/// Split a z-ordered weight array into `parts` contiguous index ranges with
/// near-equal weight sums.
///
/// This is the shard splitter for multi-device serving: index `i` is the
/// z-value of grid cell `i`, `weights[i]` is that cell's load proxy (vertex
/// records at build time, object counts once a fleet is loaded), and each
/// returned range is one device's slice of the z-curve. A greedy prefix walk
/// re-targets the remaining weight before each cut, so an early overweight
/// cell does not starve the trailing parts.
///
/// Every part is non-empty while items remain (`weights.len() >= parts`
/// guarantees no empty range); with fewer items than parts the trailing
/// ranges are empty. The ranges always concatenate to `0..weights.len()`.
pub fn weighted_contiguous_ranges(weights: &[u64], parts: usize) -> Vec<std::ops::Range<u32>> {
    assert!(parts >= 1, "parts must be >= 1");
    assert!(
        weights.len() <= u32::MAX as usize,
        "weight array exceeds u32 index space"
    );
    let n = weights.len() as u32;
    let total: u64 = weights.iter().sum();
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0u32;
    let mut consumed = 0u64;
    for p in 0..parts {
        if p + 1 == parts {
            ranges.push(start..n);
            break;
        }
        let parts_left = (parts - p) as u64;
        // Even share of the *remaining* weight, so rounding drift does not
        // accumulate across cuts.
        let target = (total - consumed).div_ceil(parts_left);
        let mut end = start;
        let mut acc = 0u64;
        // Leave at least one item for each remaining part when possible.
        while end < n && (n - end) as usize > parts - p - 1 {
            let w = weights[end as usize];
            // Stop short of the target when overshooting by `w` lands
            // farther from it than stopping here does.
            if acc > 0 && acc + w > target && acc + w - target > target - acc {
                break;
            }
            acc += w;
            end += 1;
            if acc >= target {
                break;
            }
        }
        consumed += acc;
        ranges.push(start..end);
        start = end;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::graph::{GraphBuilder, VertexId};

    #[test]
    fn weighted_ranges_cover_and_balance_uniform() {
        let weights = vec![1u64; 64];
        let ranges = weighted_contiguous_ranges(&weights, 4);
        assert_eq!(ranges.len(), 4);
        assert_eq!(ranges[0].start, 0);
        assert_eq!(ranges[3].end, 64);
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start, "ranges must be contiguous");
        }
        for r in &ranges {
            assert_eq!(r.end - r.start, 16, "uniform weights split evenly");
        }
    }

    #[test]
    fn weighted_ranges_track_skewed_weight() {
        // All the weight in the first quarter: the first parts must be
        // narrow and the trailing parts wide, but every part non-empty.
        let mut weights = vec![0u64; 64];
        for w in weights.iter_mut().take(16) {
            *w = 100;
        }
        let ranges = weighted_contiguous_ranges(&weights, 4);
        assert_eq!(ranges.len(), 4);
        assert_eq!(ranges[3].end, 64);
        let sums: Vec<u64> = ranges
            .iter()
            .map(|r| weights[r.start as usize..r.end as usize].iter().sum())
            .collect();
        let max = *sums.iter().max().unwrap();
        // Greedy walk keeps the heaviest part within 2x of the even share.
        assert!(max <= 2 * (1600 / 4), "max part weight {max} too skewed");
        for r in &ranges {
            assert!(r.start < r.end, "no empty parts when items >= parts");
        }
    }

    #[test]
    fn weighted_ranges_more_parts_than_items() {
        let weights = vec![5u64; 3];
        let ranges = weighted_contiguous_ranges(&weights, 8);
        assert_eq!(ranges.len(), 8);
        assert_eq!(ranges[7].end, 3);
        let nonempty = ranges.iter().filter(|r| r.start < r.end).count();
        assert_eq!(nonempty, 3, "each item lands in its own part");
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn bisection_balances() {
        let g = gen::toy(11);
        let p = hierarchical_bisection(&g, 1);
        let sizes = p.part_sizes();
        assert_eq!(sizes.len(), 2);
        assert_eq!(sizes[0] + sizes[1], g.num_vertices());
        assert!((sizes[0] as i64 - sizes[1] as i64).abs() <= 1, "{sizes:?}");
    }

    #[test]
    fn depth_two_gives_four_parts() {
        let g = gen::toy(5);
        let p = hierarchical_bisection(&g, 2);
        assert_eq!(p.num_parts, 4);
        let sizes = p.part_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), g.num_vertices());
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(max - min <= 3, "{sizes:?}");
    }

    #[test]
    fn cut_is_better_than_random() {
        let g = gen::grid_city(&gen::GridCityParams {
            rows: 16,
            cols: 16,
            ..Default::default()
        });
        let p = hierarchical_bisection(&g, 1);
        // A random balanced split of a 16x16 grid city cuts ~half the edges;
        // a decent partitioner should cut far fewer.
        let cut = p.cut_edges(&g);
        assert!(
            cut * 4 < g.num_edges(),
            "cut {cut} of {} edges",
            g.num_edges()
        );
    }

    #[test]
    fn capacity_partition_respects_capacity() {
        let g = gen::toy(9);
        for cap in [3usize, 5, 8, 17, 64] {
            let p = partition_with_capacity(&g, cap);
            for (i, s) in p.part_sizes().iter().enumerate() {
                assert!(*s <= cap, "part {i} size {s} > cap {cap}");
            }
        }
    }

    #[test]
    fn capacity_one_vertex_per_part() {
        let g = gen::toy(2);
        let p = partition_with_capacity(&g, 1);
        assert!(p.part_sizes().iter().all(|&s| s <= 1));
    }

    #[test]
    fn zero_depth_single_part() {
        let g = gen::toy(1);
        let p = hierarchical_bisection(&g, 0);
        assert_eq!(p.num_parts, 1);
        assert!(p.assignment.iter().all(|&a| a == 0));
    }

    #[test]
    fn deterministic() {
        let g = gen::toy(77);
        let a = hierarchical_bisection(&g, 3);
        let b = hierarchical_bisection(&g, 3);
        assert_eq!(a.assignment, b.assignment);
    }

    #[test]
    fn assignment_ids_in_range() {
        let g = gen::toy(4);
        let p = hierarchical_bisection(&g, 3);
        assert!(p.assignment.iter().all(|&a| a < p.num_parts));
    }

    /// FNV-1a over the assignment, one little-endian `u32` per vertex.
    fn assignment_digest(p: &Partition) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for a in &p.assignment {
            for b in a.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Assignments recorded once from a known-good build. A rewrite of the
    /// bisection's internals (working-graph layout, recursion, sort order)
    /// must reproduce every one of them bit for bit: the grid's cells, and
    /// so every answer and modeled number, follow from the assignment.
    #[test]
    fn assignments_match_golden() {
        let mut got = Vec::new();
        for seed in 1..=5 {
            let g = gen::toy(seed);
            for depth in 1..=6 {
                got.push(assignment_digest(&hierarchical_bisection(&g, depth)));
            }
        }
        let city = gen::grid_city(&gen::GridCityParams {
            rows: 16,
            cols: 16,
            ..Default::default()
        });
        got.push(assignment_digest(&hierarchical_bisection(&city, 4)));
        let ny = gen::dataset(gen::Dataset::NY, 12, 1);
        got.push(assignment_digest(&hierarchical_bisection(&ny, 12)));
        let want: [u64; 32] = [
            // toy(1), depths 1..=6
            17609979029335065605,
            15277245743724826741,
            1323189921157883157,
            17039844461343729749,
            9073039722787028597,
            1103505257300531061,
            // toy(2), depths 1..=6
            980285279467587509,
            7472675056436422101,
            11385629720800579205,
            971011540362926133,
            13650221030616755845,
            13305422931884497301,
            // toy(3), depths 1..=6
            7710708108594811189,
            8891757742881689893,
            13145518078419424597,
            10815207811384523157,
            4920478175489128165,
            10898394760218034549,
            // toy(4), depths 1..=6
            9002996061627248165,
            3449103336831239397,
            17349882317572212421,
            6132577420913566325,
            13992776633368370645,
            4888914395427582645,
            // toy(5), depths 1..=6
            8748684326558129109,
            3976935964892245061,
            7484255219234632677,
            17360991844409229333,
            6431957470977427221,
            3355544113438118517,
            // grid_city 16x16, depth 4
            6306740625272779381,
            // NY at scale 12, depth 12
            11825720582186310040,
        ];
        assert_eq!(got, want);
    }

    /// Four hubs in a ring, each with 60 leaves (every tenth leaf also
    /// has a one-way edge to the next hub). Heavy-edge matching pairs each
    /// hub with one leaf and leaves every other leaf single, so the top
    /// levels take the coarsening-stall fallback.
    fn hub_graph() -> Graph {
        let mut b = GraphBuilder::with_vertices(244);
        for h in 0..4u32 {
            b.add_bidirectional(VertexId(h), VertexId((h + 1) % 4), 1);
        }
        for i in 0..240u32 {
            let leaf = VertexId(4 + i);
            b.add_bidirectional(leaf, VertexId(i % 4), 1);
            if i % 10 == 0 {
                b.add_edge(leaf, VertexId((i + 1) % 4), 1);
            }
        }
        b.build()
    }

    /// Eleven interleaved paths (vertex `v` is on path `v mod 11`) with a
    /// one-way chord on every third vertex. The working graph is
    /// disconnected at every level, so the initial bisection's BFS
    /// restarts from the next unseen vertex.
    fn disconnected_graph() -> Graph {
        let mut b = GraphBuilder::with_vertices(150);
        for v in 0..150u32 {
            if v + 11 < 150 {
                b.add_bidirectional(VertexId(v), VertexId(v + 11), 1);
            }
            if v % 3 == 0 && v + 22 < 150 {
                b.add_edge(VertexId(v), VertexId(v + 22), 1);
            }
        }
        b.build()
    }

    /// Digests of graphs that reach the bisection's rarer paths, recorded
    /// from the same known-good build as [`assignments_match_golden`]:
    /// the coarsening-stall fallback (`hub_graph`), BFS restarts on a
    /// disconnected working graph (`disconnected_graph`), and rebalance
    /// skipping coarse (weighted) vertices whose move would overshoot
    /// (the odd-sized grid cities).
    #[test]
    fn rare_paths_match_golden() {
        let hub = hub_graph();
        let disconnected = disconnected_graph();
        let odd_city = |rows, cols, seed| {
            gen::grid_city(&gen::GridCityParams {
                rows,
                cols,
                edge_ratio: 2.2,
                weight_range: (1, 20),
                seed,
            })
        };
        let mut got = Vec::new();
        for depth in [1, 3, 5] {
            got.push(assignment_digest(&hierarchical_bisection(&hub, depth)));
        }
        for depth in [1, 3, 5] {
            got.push(assignment_digest(&hierarchical_bisection(
                &disconnected,
                depth,
            )));
        }
        for (rows, cols, seed) in [(13, 11, 7), (9, 23, 3)] {
            let g = odd_city(rows, cols, seed);
            got.push(assignment_digest(&hierarchical_bisection(&g, 5)));
        }
        let want: [u64; 8] = [
            // hub_graph, depths 1, 3, 5
            13492812947756940309,
            1985563596944792197,
            5599906009719168325,
            // disconnected_graph, depths 1, 3, 5
            1595513725421790388,
            9031175840049441233,
            6575523036086148342,
            // 13x11 and 9x23 grid cities, depth 5
            15097801128201757886,
            1020306160878037993,
        ];
        assert_eq!(got, want);
    }

    /// The benchmark's own graph (NY at scale 2, graph seed 0x6E79) at the
    /// grid's depth 16: 132,496 vertices, about a second in a release
    /// build. Run with `cargo test --release -p roadnet -- --ignored`.
    #[test]
    #[ignore = "release-scale: run with --release -- --ignored"]
    fn benchmark_graph_assignment_matches_golden() {
        let g = gen::dataset(gen::Dataset::NY, 2, 0x6E79);
        assert_eq!(g.num_vertices(), 132_496);
        let got = assignment_digest(&hierarchical_bisection(&g, 16));
        assert_eq!(got, 1810569877713598929);
    }
}
