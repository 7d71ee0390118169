//! Integration tests for the frontier `GPU_SDist` kernel, the resident
//! topology store, and the dense-scratch plumbing.
//!
//! The contract under test: the near–far frontier kernel and a host-side
//! Dijkstra restricted to the induced subgraph settle the *same
//! distances* — the fixed point of the paper's parallel Bellman–Ford —
//! under every grid, bucket width δ, topology budget, and eviction
//! pattern; and a server's kNN answers carry the exact full-graph
//! distances, including under multi-worker refinement and batch mode.

use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

use ggrid::grid::{CellId, GraphGrid};
use ggrid::knn::{gpu_sdist_frontier, SdistRound};
use ggrid::prelude::*;
use ggrid::scratch::DenseScratch;
use ggrid::shard::ShardSet;
use gpu_sim::{Device, DeviceSpec};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use roadnet::dijkstra::reference_knn;
use roadnet::graph::{Distance, Graph, VertexId, INFINITY};
use roadnet::{gen, EdgeId};

const EDGES: u32 = 160; // gen::toy edge count

fn toy_grid(seed: u64) -> Arc<GraphGrid> {
    Arc::new(GraphGrid::build(Arc::new(gen::toy(seed)), 3, 2))
}

/// The candidate set used by a query at `q`: its cell plus the neighbour
/// ring (one expansion round), or every cell.
fn candidate_set(grid: &GraphGrid, q: EdgePosition, all: bool) -> (Vec<bool>, Vec<CellId>) {
    let mut set: Vec<CellId> = if all {
        grid.cell_ids().collect()
    } else {
        let c_q = grid.cell_of_edge(q.edge);
        let mut s = vec![c_q];
        s.extend_from_slice(grid.neighbors(c_q));
        s
    };
    set.sort_unstable();
    set.dedup();
    let mut in_set = vec![false; grid.num_cells()];
    for c in &set {
        in_set[c.index()] = true;
    }
    (in_set, set)
}

/// Host Dijkstra over the subgraph induced by the candidate cells — the
/// ground truth the kernel must reproduce.
fn induced_dijkstra(
    graph: &Graph,
    grid: &GraphGrid,
    in_set: &[bool],
    q: EdgePosition,
) -> HashMap<VertexId, Distance> {
    let mut dist: HashMap<VertexId, Distance> = HashMap::new();
    let q_dest = graph.edge(q.edge).dest;
    if !in_set[grid.cell_of_vertex(q_dest).index()] {
        return dist;
    }
    let mut heap: BinaryHeap<(std::cmp::Reverse<Distance>, VertexId)> = BinaryHeap::new();
    dist.insert(q_dest, q.to_dest(graph));
    heap.push((std::cmp::Reverse(q.to_dest(graph)), q_dest));
    while let Some((std::cmp::Reverse(d), v)) = heap.pop() {
        if d > dist[&v] {
            continue;
        }
        for e in graph.out_edges(v) {
            let edge = graph.edge(e);
            if !in_set[grid.cell_of_vertex(edge.dest).index()] {
                continue;
            }
            let nd = d.saturating_add(edge.weight as Distance);
            if nd < dist.get(&edge.dest).copied().unwrap_or(INFINITY) {
                dist.insert(edge.dest, nd);
                heap.push((std::cmp::Reverse(nd), edge.dest));
            }
        }
    }
    dist
}

/// Compare a scratch against the reference over every candidate vertex
/// (untouched scratch slots read INFINITY, absent reference keys too).
fn assert_matches_reference(
    label: &str,
    grid: &GraphGrid,
    set: &[CellId],
    scratch: &DenseScratch,
    want: &HashMap<VertexId, Distance>,
) {
    for &c in set {
        for v in grid.vertices_in(c) {
            assert_eq!(
                scratch.get(v),
                want.get(&v).copied().unwrap_or(INFINITY),
                "{label}: {v:?} diverges"
            );
        }
    }
}

fn frontier_config(delta: u32) -> GGridConfig {
    GGridConfig {
        eta: 4,
        bucket_capacity: 16,
        sdist_delta: delta,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Frontier kernel == induced-subgraph Dijkstra, with pruning disabled
    /// (k = 0, no objects), across random toy graphs, query edges, bucket
    /// widths, candidate-set shapes, and topology budgets — including a
    /// forced mid-stream eviction between two runs.
    #[test]
    fn frontier_matches_dense_and_dijkstra(
        seed in 0u64..40,
        edge in 0u32..EDGES,
        offset_frac in 0u32..4,
        delta_sel in 0usize..5,
        all_cells in prop::bool::weighted(0.5),
        budget_sel in 0usize..3,
    ) {
        let delta = [0u32, 1, 7, 300, 100_000][delta_sel];
        let grid = toy_grid(seed);
        let graph = grid.graph().clone();
        let q = EdgePosition::new(
            EdgeId(edge),
            graph.edge(EdgeId(edge)).weight * offset_frac / 4,
        );
        let (in_set, set) = candidate_set(&grid, q, all_cells);
        let want = induced_dijkstra(&graph, &grid, &in_set, q);

        let budget = [0u64, 600, 64 << 20][budget_sel];
        let config = GGridConfig { device_budget_bytes: budget, ..frontier_config(delta) };
        let device = Device::new(DeviceSpec::test_tiny());
        let mut shards = ShardSet::single(device, &config, grid.num_cells());
        let round = SdistRound { in_set: &in_set, set: &set, primary: 0, owners: None };
        let mut frontier = DenseScratch::new(graph.num_vertices());
        gpu_sdist_frontier(&mut shards, round, &grid, &config, q, &[], 0, &mut frontier);
        assert_matches_reference("frontier", &grid, &set, &frontier, &want);

        // Evict the query's cell mid-stream and re-run: the re-upload must
        // not change a single distance.
        let shard = shards.shard_mut(0);
        shard.topo.force_evict(&mut shard.device, grid.cell_of_edge(q.edge));
        gpu_sdist_frontier(&mut shards, round, &grid, &config, q, &[], 0, &mut frontier);
        assert_matches_reference("frontier after eviction", &grid, &set, &frontier, &want);
        prop_assert!(shards.shard(0).topo.resident_bytes() <= budget);
    }
}

/// A server loaded with three rounds of random updates, plus the latest
/// position per object (the ground truth's object set).
fn loaded_server(seed: u64, workers: usize) -> (GGridServer, HashMap<u64, EdgePosition>) {
    let cfg = GGridConfig {
        eta: 4,
        bucket_capacity: 16,
        host_workers: workers,
        ..Default::default()
    };
    let s = GGridServer::new(gen::toy(seed), cfg);
    let mut latest = HashMap::new();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xdead);
    for round in 0..3u64 {
        for o in 0..25u64 {
            let p = EdgePosition::at_source(EdgeId(rng.gen_range(0..EDGES)));
            s.handle_update(ObjectId(o), p, Timestamp(100 + round));
            latest.insert(o, p);
        }
    }
    (s, latest)
}

/// The full-graph Dijkstra kNN distances of `q` over `latest`.
fn reference_distances(
    graph: &Graph,
    q: EdgePosition,
    latest: &HashMap<u64, EdgePosition>,
    k: usize,
) -> Vec<Distance> {
    let objs: Vec<(u64, EdgePosition)> = latest.iter().map(|(&o, &p)| (o, p)).collect();
    reference_knn(graph, q, &objs, k)
        .into_iter()
        .map(|(_, d)| d)
        .collect()
}

fn distances(answer: &[(ObjectId, Distance)]) -> Vec<Distance> {
    answer.iter().map(|&(_, d)| d).collect()
}

#[test]
fn knn_answers_identical_dense_vs_frontier() {
    // Repeated queries with interleaved updates: every answer carries the
    // exact full-graph distances, and the answer stream is byte-identical
    // across refinement worker counts.
    let mut streams: Vec<Vec<Vec<(ObjectId, Distance)>>> = Vec::new();
    for workers in [1usize, 4] {
        let (mut s, mut latest) = loaded_server(21, workers);
        let graph = s.grid().graph().clone();
        let mut rng = SmallRng::seed_from_u64(77);
        let mut t = 900u64;
        let mut stream = Vec::new();
        for round in 0..10 {
            let q = EdgePosition::at_source(EdgeId(rng.gen_range(0..EDGES)));
            let k = 1 + (round % 7);
            let got = s.knn(q, k, Timestamp(t));
            assert_eq!(
                distances(&got),
                reference_distances(&graph, q, &latest, k),
                "workers {workers}, round {round}, k {k}"
            );
            stream.push(got);
            for o in 0..4u64 {
                t += 1;
                let p = EdgePosition::at_source(EdgeId(rng.gen_range(0..EDGES)));
                s.handle_update(ObjectId(o), p, Timestamp(t));
                latest.insert(o, p);
            }
        }
        streams.push(stream);
    }
    assert_eq!(streams[0], streams[1], "worker count changed an answer");
}

#[test]
fn batch_answers_identical_dense_vs_frontier() {
    // Batch answers equal one-at-a-time answers on a twin server, and
    // carry the exact full-graph distances.
    let (mut batched, latest) = loaded_server(33, 3);
    let (mut single, _) = loaded_server(33, 3);
    let graph = batched.grid().graph().clone();
    let queries: Vec<(EdgePosition, usize)> = (0..6u32)
        .map(|i| (EdgePosition::at_source(EdgeId(i * 13 % EDGES)), 4usize))
        .collect();
    let batch = batched.knn_batch(&queries, Timestamp(500));
    for (answer, &(q, k)) in batch.answers.iter().zip(&queries) {
        assert_eq!(answer, &single.knn(q, k, Timestamp(500)));
        assert_eq!(
            distances(answer),
            reference_distances(&graph, q, &latest, k)
        );
    }
}

#[test]
fn frontier_instrumentation_populates() {
    let (mut s, _) = loaded_server(9, 1);
    let q = EdgePosition::at_source(EdgeId(13));
    s.knn(q, 5, Timestamp(900));
    // Cold query: the topology slices had to be shipped.
    let c = s.counters();
    assert!(c.sdist_rounds > 0, "rounds must be counted");
    assert!(c.sdist_frontier_sum > 0, "frontier work must be counted");
    assert!(c.sdist_settled > 0 && c.sdist_settled <= c.sdist_vertices);
    assert!(c.sdist_time > gpu_sim::SimNanos::ZERO);
    assert!(c.h2d_topo_bytes > 0, "cold topology upload must be charged");
    assert!(c.topo_misses > 0);
    assert!(s.topology_resident_cells() > 0);
    assert!(s.topology_resident_bytes() > 0);
    let bd = s.last_breakdown();
    assert!(bd.sdist_frontier_max > 0 && bd.sdist_frontier_max <= bd.sdist_frontier_sum);

    // Warm re-query: every candidate slice is already on the card.
    let (topo_bytes, misses) = (s.counters().h2d_topo_bytes, s.counters().topo_misses);
    s.knn(q, 5, Timestamp(901));
    assert_eq!(
        s.counters().h2d_topo_bytes,
        topo_bytes,
        "warm query must not re-ship topology"
    );
    assert_eq!(s.counters().topo_misses, misses);
    assert!(s.counters().topo_hits > 0);
    assert!(s.counters().topo_hit_rate() > 0.0);

    // Force-evict everything: the next query re-ships and re-promotes.
    s.evict_all_topology();
    assert_eq!(s.topology_resident_cells(), 0);
    let got = s.knn(q, 5, Timestamp(902));
    assert!(s.counters().h2d_topo_bytes > topo_bytes);
    assert!(s.topology_resident_cells() > 0);
    assert_eq!(got, s.knn(q, 5, Timestamp(903)), "eviction changed answers");
}

#[test]
fn pruning_engages_on_clustered_objects() {
    // Many objects right next to the query with a large candidate region:
    // the k-bound closes fast and the far pile is abandoned.
    let grid = toy_grid(4);
    let graph = grid.graph().clone();
    let q = EdgePosition::at_source(EdgeId(0));
    let (in_set, set) = candidate_set(&grid, q, true);
    let objects: Vec<ggrid::CachedMessage> = (0..12u64)
        .map(|o| {
            ggrid::CachedMessage::update(
                ObjectId(o),
                EdgePosition::at_source(EdgeId(o as u32 % 4)),
                Timestamp(1),
            )
        })
        .collect();
    let config = GGridConfig {
        device_budget_bytes: 64 << 20,
        ..frontier_config(0)
    };
    let device = Device::new(DeviceSpec::test_tiny());
    let mut shards = ShardSet::single(device, &config, grid.num_cells());
    let round = SdistRound {
        in_set: &in_set,
        set: &set,
        primary: 0,
        owners: None,
    };
    let mut scratch = DenseScratch::new(graph.num_vertices());
    let (stats, _) = gpu_sdist_frontier(
        &mut shards,
        round,
        &grid,
        &config,
        q,
        &objects,
        2,
        &mut scratch,
    );
    assert!(
        stats.pruned > 0,
        "clustered objects must trigger k-bounded pruning"
    );
    assert!(stats.settled + stats.pruned <= stats.vertices);

    // Pruning must not disturb the answers the query pipeline reads: every
    // vertex the kernel *did* settle carries its exact induced distance.
    let want = induced_dijkstra(&graph, &grid, &in_set, q);
    for (v, d) in scratch.iter_touched() {
        if d < INFINITY {
            let exact = want[&v];
            assert!(d >= exact, "{v:?}: tentative {d} below exact {exact}");
        }
    }
}

#[test]
fn disabled_topology_residency_always_uploads() {
    let cfg = GGridConfig {
        eta: 4,
        bucket_capacity: 16,
        device_budget_bytes: 0,
        ..Default::default()
    };
    let mut s = GGridServer::new(gen::toy(5), cfg);
    for o in 0..10u64 {
        s.handle_update(
            ObjectId(o),
            EdgePosition::at_source(EdgeId((o * 7 % EDGES as u64) as u32)),
            Timestamp(100),
        );
    }
    let q = EdgePosition::at_source(EdgeId(3));
    s.knn(q, 3, Timestamp(900));
    let cold = s.counters().h2d_topo_bytes;
    assert!(cold > 0);
    s.knn(q, 3, Timestamp(901));
    assert!(
        s.counters().h2d_topo_bytes >= 2 * cold,
        "with residency off every query re-ships its topology"
    );
    assert_eq!(s.topology_resident_cells(), 0);
    assert_eq!(s.counters().topo_hits, 0);
}
