//! Integration tests for the concurrent query engine: the batch pipeline
//! and the multi-worker refinement must return answers byte-identical to
//! the sequential path, and the epoch-based clean-skip cache must never
//! serve stale data.

use ggrid::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use roadnet::{gen, EdgeId};

const EDGES: u32 = 160; // gen::toy edge count

fn config(workers: usize, clean_skip: bool) -> GGridConfig {
    GGridConfig {
        eta: 4,
        bucket_capacity: 16,
        host_workers: workers,
        clean_skip,
        ..Default::default()
    }
}

/// Deterministically scatter a fleet and a few movement rounds.
fn seeded_server(seed: u64, workers: usize, clean_skip: bool) -> GGridServer {
    let graph = gen::toy(seed);
    let s = GGridServer::new(graph, config(workers, clean_skip));
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
        let mut sequential = seeded_server(seed, 1, true);
        let want: Vec<Vec<(ObjectId, Distance)>> = queries
            .iter()
            .map(|&(q, k)| sequential.knn(q, k, Timestamp(900)))
            .collect();
        // Batch pipeline at every host-worker width.
        for workers in [1usize, 2, 4] {
            let mut concurrent = seeded_server(seed, workers, true);
            let batch = concurrent.knn_batch(&queries, Timestamp(900));
            assert_eq!(batch.answers, want, "seed {seed}, workers {workers}");
        }
    }
}

#[test]
fn clean_skip_ablation_answers_identical() {
    // The cache only removes simulated device work — never changes answers.
    for seed in [5u64, 42] {
        let queries = query_stream(seed, 8);
        let mut with_skip = seeded_server(seed, 2, true);
        let mut without = seeded_server(seed, 2, false);
        for &(q, k) in &queries {
            assert_eq!(
                with_skip.knn(q, k, Timestamp(900)),
                without.knn(q, k, Timestamp(900)),
                "seed {seed}"
            );
        }
        assert!(with_skip.counters().clean_skip_hits > 0);
        assert_eq!(without.counters().clean_skip_hits, 0);
    }
}

#[test]
fn repeated_query_stream_hits_the_skip_cache() {
    let mut s = seeded_server(9, 1, true);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The epoch cache never serves a stale cell: after any interleaving of
    /// updates and queries, a query sees exactly what a cache-disabled
    /// server sees — in particular an append after a clean invalidates the
    /// cell, so the newest position always wins.
    #[test]
    fn epoch_cache_never_stale(seed in 0u64..1000, ops in prop::collection::vec((0u64..12, 0u32..160, 0u32..2), 4..40) ) {
        let graph = gen::toy(7);
        let mut cached = GGridServer::new(graph.clone(), config(2, true));
        let mut reference = GGridServer::new(graph, config(1, false));
        let mut t = 100u64;
        for &(obj, edge, kind) in &ops {
            t += 1;
            let e = EdgeId(edge % EDGES);
            if kind == 0 {
                // Update: lands in a cell the cache may have marked clean.
                let p = EdgePosition::at_source(e);
                cached.handle_update(ObjectId(obj ^ seed), p, Timestamp(t));
                reference.handle_update(ObjectId(obj ^ seed), p, Timestamp(t));
            } else {
                // Query: must reflect every update made so far.
                let q = EdgePosition::at_source(e);
                let got = cached.knn(q, 3, Timestamp(t));
                let want = reference.knn(q, 3, Timestamp(t));
                prop_assert_eq!(got, want, "stale answer after {} ops", ops.len());
            }
        }
        // Closing full-coverage query: every object's final position.
        let q = EdgePosition::at_source(EdgeId(seed as u32 % EDGES));
        prop_assert_eq!(
            cached.knn(q, 12, Timestamp(t + 1)),
            reference.knn(q, 12, Timestamp(t + 1))
        );
    }
}
