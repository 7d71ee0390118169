//! Integration tests for the frontier `GPU_SDist` kernel and the resident
//! topology store, driven through the server.
//!
//! The contract under test: a server's kNN answers carry the exact
//! full-graph distances, including under multi-worker refinement and batch
//! mode, and the kernel's instrumentation and topology residency show up in
//! the server's counters. The kernel's own fixed-point checks against an
//! induced-subgraph Dijkstra are `knn`'s unit tests.

use std::collections::HashMap;

use ggrid::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use roadnet::dijkstra::reference_knn;
use roadnet::graph::{Distance, Graph};
use roadnet::{gen, EdgeId};

const EDGES: u32 = 160; // gen::toy edge count

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
