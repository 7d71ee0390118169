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

use crate::graph::{Graph, VertexId};

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

/// Undirected weighted working graph used during multilevel bisection.
/// Vertices carry weights (number of original vertices they contain).
/// Adjacency is a flat CSR (`off[v]..off[v+1]` slices `edges`), each
/// segment sorted by neighbour id with parallel edges merged.
struct WorkGraph {
    vwt: Vec<u64>,
    off: Vec<u32>,
    edges: Vec<(u32, u64)>,
}

impl WorkGraph {
    fn len(&self) -> usize {
        self.vwt.len()
    }

    fn total_weight(&self) -> u64 {
        self.vwt.iter().sum()
    }

    #[inline]
    fn neighbors(&self, v: usize) -> &[(u32, u64)] {
        &self.edges[self.off[v] as usize..self.off[v + 1] as usize]
    }

    /// The level-0 working graph of all of `graph`: edge directions are
    /// ignored, self-loops dropped and parallel edges merged. This is the
    /// only pass over `graph`; every recursion node below the root derives
    /// its working graph from its parent's with [`Self::split`].
    fn from_graph(graph: &Graph) -> Self {
        let n = graph.num_vertices();
        let mut off = vec![0u32; n + 1];
        for v in graph.vertices() {
            let out = graph.out_edges(v).filter(|&e| graph.edge(e).dest != v);
            let inc = graph.in_edges(v).filter(|&e| graph.edge(e).source != v);
            off[v.index() + 1] = (out.count() + inc.count()) as u32;
        }
        for i in 0..n {
            off[i + 1] += off[i];
        }
        let mut edges = vec![(0u32, 0u64); off[n] as usize];
        let mut cursor: Vec<u32> = off[..n].to_vec();
        for v in graph.vertices() {
            let out = graph.out_edges(v).map(|e| graph.edge(e).dest);
            let inc = graph.in_edges(v).map(|e| graph.edge(e).source);
            for u in out.chain(inc).filter(|&u| u != v) {
                edges[cursor[v.index()] as usize] = (u.0, 1);
                cursor[v.index()] += 1;
            }
        }
        merge_parallel(&mut off, &mut edges);
        Self {
            vwt: vec![1; n],
            off,
            edges,
        }
    }

    /// The induced subgraphs of the two sides of a bisection (`side[v]`
    /// true, then false). Each side keeps its vertices in this graph's
    /// order, so the renaming is monotone: every adjacency segment stays
    /// sorted and merged, and each child is exactly the working graph a
    /// fresh build from the original graph would give its vertex subset.
    fn split(&self, side: &[bool]) -> (WorkGraph, WorkGraph) {
        let mut local = vec![0u32; self.len()];
        let mut counts = [0u32; 2];
        let mut degree_sums = [0usize; 2];
        for v in 0..self.len() {
            let s = side[v] as usize;
            local[v] = counts[s];
            counts[s] += 1;
            degree_sums[s] += self.neighbors(v).len();
        }
        let mut halves = [0, 1].map(|s| {
            let mut off = Vec::with_capacity(counts[s] as usize + 1);
            off.push(0);
            WorkGraph {
                vwt: Vec::with_capacity(counts[s] as usize),
                off,
                edges: Vec::with_capacity(degree_sums[s]),
            }
        });
        for v in 0..self.len() {
            let half = &mut halves[side[v] as usize];
            half.vwt.push(self.vwt[v]);
            for &(u, w) in self.neighbors(v) {
                if side[u as usize] == side[v] {
                    half.edges.push((local[u as usize], w));
                }
            }
            half.off.push(half.edges.len() as u32);
        }
        let [right, left] = halves;
        (left, right)
    }
}

/// Sort each CSR segment by neighbour id and merge parallel edges in
/// place, rewriting `off` to the compacted offsets.
fn merge_parallel(off: &mut [u32], edges: &mut Vec<(u32, u64)>) {
    let n = off.len() - 1;
    let mut w = 0usize;
    let mut start = 0usize;
    for v in 0..n {
        let end = off[v + 1] as usize;
        edges[start..end].sort_unstable_by_key(|&(j, _)| j);
        let mut i = start;
        while i < end {
            let (j, mut wt) = edges[i];
            i += 1;
            while i < end && edges[i].0 == j {
                wt += edges[i].1;
                i += 1;
            }
            edges[w] = (j, wt);
            w += 1;
        }
        start = end;
        off[v + 1] = w as u32;
    }
    edges.truncate(w);
}

/// Heavy-edge matching coarsening: returns (coarse graph, map fine→coarse).
fn coarsen(g: &WorkGraph) -> (WorkGraph, Vec<u32>) {
    let n = g.len();
    let mut matched = vec![u32::MAX; n];
    let mut next = 0u32;
    // Visit in index order; deterministic. Match each unmatched vertex with
    // its heaviest unmatched neighbour.
    for v in 0..n {
        if matched[v] != u32::MAX {
            continue;
        }
        let mut best: Option<(u32, u64)> = None;
        for &(u, w) in g.neighbors(v) {
            if matched[u as usize] == u32::MAX && best.is_none_or(|(_, bw)| w > bw) {
                best = Some((u, w));
            }
        }
        let id = next;
        next += 1;
        matched[v] = id;
        if let Some((u, _)) = best {
            matched[u as usize] = id;
        }
    }
    let cn = next as usize;
    let mut vwt = vec![0u64; cn];
    let mut off = vec![0u32; cn + 1];
    for v in 0..n {
        let cv = matched[v] as usize;
        vwt[cv] += g.vwt[v];
        for &(u, _) in g.neighbors(v) {
            if matched[u as usize] as usize != cv {
                off[cv + 1] += 1;
            }
        }
    }
    for c in 0..cn {
        off[c + 1] += off[c];
    }
    let mut edges = vec![(0u32, 0u64); off[cn] as usize];
    let mut cursor: Vec<u32> = off[..cn].to_vec();
    for v in 0..n {
        let cv = matched[v] as usize;
        for &(u, w) in g.neighbors(v) {
            let cu = matched[u as usize];
            if cu as usize != cv {
                edges[cursor[cv] as usize] = (cu, w);
                cursor[cv] += 1;
            }
        }
    }
    merge_parallel(&mut off, &mut edges);
    (WorkGraph { vwt, off, edges }, matched)
}

/// Initial bisection by BFS region growing from vertex 0 until half of the
/// total weight is collected. `side[v] = true` marks the grown region.
fn initial_bisection(g: &WorkGraph) -> Vec<bool> {
    let n = g.len();
    let half = g.total_weight() / 2;
    let mut side = vec![false; n];
    let mut grown = 0u64;
    let mut queue = std::collections::VecDeque::new();
    let mut seen = vec![false; n];
    let mut start = 0usize;
    while grown < half {
        // Handle disconnected working graphs by restarting BFS.
        while start < n && seen[start] {
            start += 1;
        }
        if start >= n {
            break;
        }
        queue.push_back(start as u32);
        seen[start] = true;
        while let Some(v) = queue.pop_front() {
            if grown >= half {
                break;
            }
            side[v as usize] = true;
            grown += g.vwt[v as usize];
            for &(u, _) in g.neighbors(v as usize) {
                if !seen[u as usize] {
                    seen[u as usize] = true;
                    queue.push_back(u);
                }
            }
        }
    }
    side
}

/// One boundary Kernighan–Lin refinement pass: greedily move boundary
/// vertices with positive cut gain while keeping both sides ≥ `min_frac`
/// of the total weight. Runs a bounded number of sweeps.
fn refine(g: &WorkGraph, side: &mut [bool]) {
    let total = g.total_weight();
    let min_side = total / 5; // keep sides within 20–80%; callers rebalance
    let mut wa: u64 = (0..g.len()).filter(|&v| side[v]).map(|v| g.vwt[v]).sum();
    for _sweep in 0..4 {
        let mut moved_any = false;
        for v in 0..g.len() {
            let (mut internal, mut external) = (0u64, 0u64);
            for &(u, w) in g.neighbors(v) {
                if side[u as usize] == side[v] {
                    internal += w;
                } else {
                    external += w;
                }
            }
            if external > internal {
                // Check balance before moving v to the other side.
                let wb = total - wa;
                let (from, _to) = if side[v] { (wa, wb) } else { (wb, wa) };
                if from - g.vwt[v].min(from) < min_side {
                    continue;
                }
                if side[v] {
                    wa -= g.vwt[v];
                } else {
                    wa += g.vwt[v];
                }
                side[v] = !side[v];
                moved_any = true;
            }
        }
        if !moved_any {
            break;
        }
    }
}

/// Multilevel bisection of a working graph into two sides.
fn bisect(g: &WorkGraph) -> Vec<bool> {
    if g.len() <= 16 {
        let mut side = initial_bisection(g);
        refine(g, &mut side);
        rebalance(g, &mut side);
        return side;
    }
    let (coarse, map) = coarsen(g);
    // Recurse only while matching shrinks the graph meaningfully. A strict
    // `<` test lets a stalling match (e.g. a hub vertex whose leaves all
    // become singletons) shed a handful of vertices per level, turning the
    // recursion O(|V|) deep — quadratic work and a blown stack on
    // 10⁵-vertex subsets.
    let mut side = if coarse.len() < g.len() - g.len() / 16 {
        let cside = bisect(&coarse);
        map.iter().map(|&c| cside[c as usize]).collect()
    } else {
        initial_bisection(g) // coarsening stalled
    };
    refine(g, &mut side);
    rebalance(g, &mut side);
    side
}

/// Force the two sides within one (weighted) vertex of perfect balance by
/// moving cheapest-to-move vertices. The paper's cells have a hard capacity
/// δᶜ, so balance is a correctness requirement, not just a quality goal.
fn rebalance(g: &WorkGraph, side: &mut [bool]) {
    let total = g.total_weight() as i64;
    let mut wa: i64 = (0..g.len())
        .filter(|&v| side[v])
        .map(|v| g.vwt[v] as i64)
        .sum();
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
        let mut candidates: Vec<(i64, u64, u32)> = (0..g.len())
            .filter(|&v| side[v] == heavy_is_a)
            .map(|v| {
                let mut gain = 0i64;
                for &(u, w) in g.neighbors(v) {
                    gain += if side[u as usize] == side[v] {
                        -(w as i64)
                    } else {
                        w as i64
                    };
                }
                (gain, g.vwt[v], v as u32)
            })
            .collect();
        // Best cut gain first; vertex id breaks ties, so the order is total
        // and deterministic. Every move shrinks the difference by at least
        // 2, so at most ⌈diff/2⌉ moves happen: sort only that many leading
        // candidates, and the rest only when skipped (overshooting) ones
        // use the prefix up before the sides balance. The consumed order is
        // exactly that of a full sort.
        let by_gain = |a: &(i64, u64, u32), b: &(i64, u64, u32)| b.0.cmp(&a.0).then(a.2.cmp(&b.2));
        let mut sorted = (signed_diff(wa) as usize / 2 + 1).min(candidates.len());
        if sorted < candidates.len() {
            candidates.select_nth_unstable_by(sorted, by_gain);
        }
        candidates[..sorted].sort_unstable_by(by_gain);
        let mut moved_any = false;
        let mut next = 0;
        loop {
            let diff = signed_diff(wa);
            if diff <= 1 {
                break;
            }
            if next == sorted {
                if sorted == candidates.len() {
                    break;
                }
                candidates[sorted..].sort_unstable_by(by_gain);
                sorted = candidates.len();
            }
            let (_, wt, v) = candidates[next];
            next += 1;
            // A move shifts the difference by 2·wt; skip vertices that
            // would overshoot past ±1.
            if 2 * wt as i64 > diff + 1 {
                continue;
            }
            let v = v as usize;
            if side[v] {
                wa -= wt as i64;
            } else {
                wa += wt as i64;
            }
            side[v] = !side[v];
            moved_any = true;
        }
        if !moved_any {
            break; // nothing movable without overshooting
        }
    }
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
        let all: Vec<VertexId> = graph.vertices().collect();
        split_recursive(
            WorkGraph::from_graph(graph),
            &all,
            depth,
            0,
            &mut assignment,
        );
    }
    Partition {
        assignment,
        num_parts: 1 << depth,
    }
}

/// Bisect `wg`, the level-0 working graph of the non-empty `subset` (in
/// subset order), and recurse into both sides `levels_left - 1` more times.
fn split_recursive(
    wg: WorkGraph,
    subset: &[VertexId],
    levels_left: u32,
    prefix: u32,
    assignment: &mut [u32],
) {
    let side = bisect(&wg);
    let (mut left, mut right) = (Vec::new(), Vec::new());
    for (i, &v) in subset.iter().enumerate() {
        if side[i] {
            left.push(v);
        } else {
            right.push(v);
        }
    }
    let ids = [prefix << 1, (prefix << 1) | 1];
    if levels_left == 1 {
        for (part, id) in [(&left, ids[0]), (&right, ids[1])] {
            for &v in part {
                assignment[v.index()] = id;
            }
        }
        return;
    }
    let (left_wg, right_wg) = wg.split(&side);
    drop((wg, side));
    for (child, part, id) in [(left_wg, left, ids[0]), (right_wg, right, ids[1])] {
        if !part.is_empty() {
            split_recursive(child, &part, levels_left - 1, id, assignment);
        }
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
}
