//! Property-based equivalence of the cross-query fused batch path.
//!
//! Two identities are enforced on arbitrary small road networks, object
//! streams, and query mixes:
//!
//! * **Batch == sequential** — `knn_batch` answers are byte-identical to
//!   running the same queries one at a time in the same order, under
//!   random batch permutations (the fused cleaning, staged topology, and
//!   pipelined refinement must not leak one query's schedule into
//!   another's answer).
//! * **Refinement is worker-count independent and exact** — sweeping
//!   `host_workers ∈ {1, 2, 4}` never changes an answer, tie-breaking
//!   included (answers are sorted by `(distance, object id)`, so any tie
//!   mishandling surfaces as a reordered or truncated result), and the
//!   distances equal a full-graph Dijkstra reference.

use std::collections::HashMap;

use ggrid::prelude::*;
use proptest::prelude::*;
use roadnet::dijkstra::reference_knn;
use roadnet::gen::{self, GridCityParams};
use roadnet::graph::Graph;
use roadnet::EdgeId;

#[derive(Debug, Clone)]
struct Case {
    graph: Graph,
    objects: Vec<(u64, EdgePosition)>,
    queries: Vec<(EdgePosition, usize)>,
    eta: u32,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        (3u32..7, 3u32..7, 0u64..400),
        prop::collection::vec((0u64..25, 0u32..10_000, 0u32..100), 1..20),
        prop::collection::vec((0u32..10_000, 1usize..7), 1..7),
        2u32..6,
    )
        .prop_map(|((rows, cols, seed), raw_objects, raw_queries, eta)| {
            let graph = gen::grid_city(&GridCityParams {
                rows,
                cols,
                edge_ratio: 2.5,
                weight_range: (1, 30),
                seed,
            });
            let ne = graph.num_edges() as u32;
            let objects: Vec<(u64, EdgePosition)> = raw_objects
                .into_iter()
                .map(|(o, e, off)| {
                    let e = EdgeId(e % ne);
                    let off = off % (graph.edge(e).weight + 1);
                    (o, EdgePosition::new(e, off))
                })
                .collect();
            let queries: Vec<(EdgePosition, usize)> = raw_queries
                .into_iter()
                .map(|(e, k)| (EdgePosition::at_source(EdgeId(e % ne)), k))
                .collect();
            Case {
                graph,
                objects,
                queries,
                eta,
            }
        })
}

fn loaded(case: &Case, config: GGridConfig) -> GGridServer {
    let server = GGridServer::new(case.graph.clone(), config);
    for (i, &(o, p)) in case.objects.iter().enumerate() {
        server.handle_update(ObjectId(o), p, Timestamp(100 + i as u64));
    }
    server
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Batch-fused answers equal one-query-at-a-time answers, for a random
    /// permutation of the batch.
    #[test]
    fn batch_fused_matches_sequential_under_permutation(
        case in arb_case(),
        perm_seed in 0usize..720,
    ) {
        // Deterministic permutation of the query list from perm_seed
        // (factorial-number-system decode — covers all orders for n <= 6).
        let mut queries = case.queries.clone();
        let mut pool: Vec<(EdgePosition, usize)> = queries.clone();
        let mut s = perm_seed;
        queries.clear();
        while !pool.is_empty() {
            let i = s % pool.len();
            s /= pool.len().max(1);
            queries.push(pool.remove(i));
        }

        let config = GGridConfig { eta: case.eta, ..Default::default() };
        let mut a = loaded(&case, config.clone());
        let mut b = loaded(&case, config);
        let batch = a.knn_batch(&queries, Timestamp(10_000));
        let individual: Vec<_> = queries
            .iter()
            .map(|&(q, k)| b.knn(q, k, Timestamp(10_000)))
            .collect();
        prop_assert_eq!(batch.answers, individual);
    }

    /// The multi-source refinement returns identical answers for every
    /// worker count — ties included — and their distances are the exact
    /// full-graph ones.
    #[test]
    fn multi_source_refinement_matches_per_vertex(case in arb_case()) {
        // Ground truth uses the *latest* position per object.
        let latest: HashMap<u64, EdgePosition> = case.objects.iter().copied().collect();
        let objs: Vec<(u64, EdgePosition)> = latest.into_iter().collect();
        let mut first: Option<Vec<Vec<(ObjectId, u64)>>> = None;
        for workers in [1usize, 2, 4] {
            let config = GGridConfig {
                eta: case.eta,
                host_workers: workers,
                ..Default::default()
            };
            let mut s = loaded(&case, config);
            let got: Vec<_> = case
                .queries
                .iter()
                .map(|&(q, k)| s.knn(q, k, Timestamp(10_000)))
                .collect();
            for (answer, &(q, k)) in got.iter().zip(&case.queries) {
                let want = reference_knn(&case.graph, q, &objs, k);
                let got_d: Vec<u64> = answer.iter().map(|&(_, d)| d).collect();
                let want_d: Vec<u64> = want.iter().map(|&(_, d)| d).collect();
                prop_assert_eq!(got_d, want_d, "host_workers={}", workers);
            }
            match &first {
                None => first = Some(got),
                Some(want) => prop_assert_eq!(&got, want, "host_workers={}", workers),
            }
        }
    }
}
