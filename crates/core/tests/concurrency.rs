//! Integration tests for the concurrent query engine: the batch pipeline
//! and the multi-worker refinement must return answers byte-identical to
//! the sequential path, and the epoch-based clean-skip cache must never
//! serve stale data.

use std::collections::BTreeMap;

use ggrid::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use roadnet::dijkstra::reference_knn;
use roadnet::{gen, EdgeId, Graph};

const EDGES: u32 = 160; // gen::toy edge count

fn config(workers: usize) -> GGridConfig {
    GGridConfig {
        eta: 4,
        bucket_capacity: 16,
        host_workers: workers,
        ..Default::default()
    }
}

/// Deterministically scatter a fleet and a few movement rounds.
fn seeded_server(seed: u64, workers: usize) -> GGridServer {
    let graph = gen::toy(seed);
    let s = GGridServer::new(graph, config(workers));
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
    for round in 0..4u64 {
        for o in 0..30u64 {
            let e = EdgeId(rng.gen_range(0..EDGES));
            s.handle_update(
                ObjectId(o),
                EdgePosition::at_source(e),
                Timestamp(100 + round),
            );
        }
    }
    s
}

fn query_stream(seed: u64, n: usize) -> Vec<(EdgePosition, usize)> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37);
    (0..n)
        .map(|_| {
            (
                EdgePosition::at_source(EdgeId(rng.gen_range(0..EDGES))),
                rng.gen_range(1..8usize),
            )
        })
        .collect()
}

#[test]
fn batch_answers_identical_to_sequential() {
    for seed in [3u64, 21, 77] {
        let queries = query_stream(seed, 8);
        // Sequential reference: one query at a time, single worker.
        let mut sequential = seeded_server(seed, 1);
        let want: Vec<Vec<(ObjectId, Distance)>> = queries
            .iter()
            .map(|&(q, k)| sequential.knn(q, k, Timestamp(900)))
            .collect();
        // Batch pipeline at every host-worker width.
        for workers in [1usize, 2, 4] {
            let mut concurrent = seeded_server(seed, workers);
            let batch = concurrent.knn_batch(&queries, Timestamp(900));
            assert_eq!(batch.answers, want, "seed {seed}, workers {workers}");
        }
    }
}

#[test]
fn repeated_query_stream_hits_the_skip_cache() {
    let mut s = seeded_server(9, 1);
    let q = EdgePosition::at_source(EdgeId(13));
    s.knn(q, 4, Timestamp(900));
    let hits_after_first = s.counters().clean_skip_hits;
    for _ in 0..3 {
        s.knn(q, 4, Timestamp(900));
    }
    assert!(
        s.counters().clean_skip_hits > hits_after_first,
        "repeated identical query did not hit the skip cache"
    );
}

/// The exact answer over every object's latest position, as the engine
/// reports it.
fn exact_knn(
    graph: &Graph,
    latest: &BTreeMap<u64, EdgePosition>,
    q: EdgePosition,
    k: usize,
) -> Vec<(ObjectId, Distance)> {
    let objects: Vec<(u64, EdgePosition)> = latest.iter().map(|(&o, &p)| (o, p)).collect();
    reference_knn(graph, q, &objects, k)
        .into_iter()
        .map(|(o, d)| (ObjectId(o), d))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The epoch cache never serves a stale cell: after any interleaving of
    /// updates and queries, every answer, ids and distances, is the exact
    /// kNN over each object's latest position — in particular an append
    /// after a clean invalidates the cell, so the newest position always
    /// wins.
    #[test]
    fn epoch_cache_never_stale(seed in 0u64..1000, ops in prop::collection::vec((0u64..12, 0u32..160, 0u32..2), 4..40) ) {
        let graph = gen::toy(7);
        let mut server = GGridServer::new(graph.clone(), config(2));
        let mut latest: BTreeMap<u64, EdgePosition> = BTreeMap::new();
        let mut t = 100u64;
        for &(obj, edge, kind) in &ops {
            t += 1;
            let e = EdgeId(edge % EDGES);
            if kind == 0 {
                // Update: lands in a cell the cache may have marked clean.
                let p = EdgePosition::at_source(e);
                server.handle_update(ObjectId(obj ^ seed), p, Timestamp(t));
                latest.insert(obj ^ seed, p);
            } else {
                // Query: must reflect every update made so far.
                let q = EdgePosition::at_source(e);
                let got = server.knn(q, 3, Timestamp(t));
                let want = exact_knn(&graph, &latest, q, 3);
                prop_assert_eq!(got, want, "stale answer after {} ops", ops.len());
            }
        }
        // Closing full-coverage query: every object's final position.
        let q = EdgePosition::at_source(EdgeId(seed as u32 % EDGES));
        prop_assert_eq!(
            server.knn(q, 12, Timestamp(t + 1)),
            exact_knn(&graph, &latest, q, 12)
        );
    }
}
