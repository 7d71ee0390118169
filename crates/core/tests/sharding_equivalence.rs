//! Multi-device sharding must be invisible in answers.
//!
//! The shard map decides *where* cleaning and SDist kernels run, never
//! *what* they compute: cleaning a cell is deterministic on any device and
//! the host-side merge re-runs the same refinement the single-device path
//! does. So every query answer — ad-hoc `knn`, fused `knn_batch`, and
//! maintained subscription results — must be byte-identical for every
//! device count, including under skewed hot-window ingest, forced
//! per-shard evictions, and a mid-stream rebalance that migrates cells
//! between shards. The proptest here drives all three surfaces through
//! the same scripted stream for `D ∈ {1, 2, 4, 8}` and compares against
//! the `D = 1` reference.

use ggrid::prelude::*;
use proptest::prelude::*;
use roadnet::gen::{self, GridCityParams};
use roadnet::graph::Graph;
use roadnet::EdgeId;

#[derive(Debug, Clone)]
struct Step {
    /// Raw update draws, mapped onto hot-window edges at run time.
    updates: Vec<(u64, u32, u32)>,
    advance_ms: u64,
    evict: bool,
}

#[derive(Debug, Clone)]
struct Case {
    graph: Graph,
    initial: Vec<(u64, u32, u32)>,
    queries: Vec<(u32, usize)>,
    steps: Vec<Step>,
    eta: u32,
    /// Host workers of the sharded runs; the `D = 1` reference uses one.
    host_workers: usize,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        (3u32..7, 3u32..7, 0u64..400),
        prop::collection::vec((0u64..20, 0u32..10_000, 0u32..100), 1..16),
        prop::collection::vec((0u32..10_000, 1usize..6), 1..5),
        prop::collection::vec(
            (
                prop::collection::vec((0u64..20, 0u32..10_000, 0u32..100), 1..12),
                1u64..500,
                prop::bool::ANY,
            ),
            1..5,
        ),
        (2u32..6, 0usize..3),
    )
        .prop_map(
            |((rows, cols, seed), initial, queries, raw_steps, (eta, workers_idx))| Case {
                graph: gen::grid_city(&GridCityParams {
                    rows,
                    cols,
                    edge_ratio: 2.5,
                    weight_range: (1, 30),
                    seed,
                }),
                initial,
                queries,
                steps: raw_steps
                    .into_iter()
                    .map(|(updates, advance_ms, evict)| Step {
                        updates,
                        advance_ms,
                        evict,
                    })
                    .collect(),
                eta,
                host_workers: [1, 2, 4][workers_idx],
            },
        )
}

/// Map a raw `(object, edge draw, offset draw)` onto a valid position on
/// one of `edges`, keeping only each object's last report in the batch.
fn batch_on(
    graph: &Graph,
    edges: &[EdgeId],
    raw: &[(u64, u32, u32)],
    now: Timestamp,
) -> Vec<(ObjectId, EdgePosition, Timestamp)> {
    let mut batch: Vec<(ObjectId, EdgePosition, Timestamp)> = Vec::new();
    for &(o, e, off) in raw {
        let edge = edges[e as usize % edges.len()];
        let p = EdgePosition::new(edge, off % (graph.edge(edge).weight + 1));
        if let Some(slot) = batch.iter_mut().find(|u| u.0 == ObjectId(o)) {
            slot.1 = p;
        } else {
            batch.push((ObjectId(o), p, now));
        }
    }
    batch
}

/// Everything observable a run produces, for byte-for-byte comparison.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    knn: Vec<Vec<Vec<(ObjectId, Distance)>>>,
    batch: Vec<Vec<Vec<(ObjectId, Distance)>>>,
    subs: Vec<Vec<Vec<(ObjectId, Distance)>>>,
}

/// Drive the scripted stream on a `num_devices = d` server with
/// `host_workers` workers and collect every answer surface after each
/// step. `replication` and `cross_shard` toggle the cooperative
/// multi-device paths; both only change *where* modeled work lands, never
/// answers.
fn run_stream(
    case: &Case,
    d: usize,
    host_workers: usize,
    replication: bool,
    cross_shard: bool,
) -> Observed {
    let config = GGridConfig {
        eta: case.eta,
        num_devices: d,
        host_workers,
        // Low bar so the mid-stream rebalance actually fires when skewed.
        rebalance_threshold: 1.05,
        // Low bar so repeated clean-skips promote replicas within the
        // scripted stream (forcing invalidations from the hot-window
        // writes that follow).
        replicate_threshold: if replication { 1 } else { 0 },
        cross_shard_sdist: cross_shard,
        ..Default::default()
    };
    let mut server = GGridServer::new(case.graph.clone(), config);

    // Hot window: the low half of the z-order cell index space, so the
    // skewed wave pounds the low shard(s) and leaves the rest cold.
    let num_cells = server.grid().num_cells() as u32;
    let hot_edges: Vec<EdgeId> = (0..case.graph.num_edges() as u32)
        .map(EdgeId)
        .filter(|&e| (server.grid().cell_of_edge(e).index() as u32) < num_cells.div_ceil(2))
        .collect();
    let all_edges: Vec<EdgeId> = (0..case.graph.num_edges() as u32).map(EdgeId).collect();
    let hot = if hot_edges.is_empty() {
        &all_edges
    } else {
        &hot_edges
    };

    let ne = case.graph.num_edges() as u32;
    let queries: Vec<(EdgePosition, usize)> = case
        .queries
        .iter()
        .map(|&(e, k)| (EdgePosition::at_source(EdgeId(e % ne)), k))
        .collect();

    let mut now = Timestamp(1_000);
    server.ingest_batch(&batch_on(&case.graph, &all_edges, &case.initial, now));
    let subs: Vec<SubscriptionId> = queries
        .iter()
        .map(|&(q, k)| server.subscribe_knn(q, k, now))
        .collect();

    let mut observed = Observed {
        knn: Vec::new(),
        batch: Vec::new(),
        subs: Vec::new(),
    };
    let mid = case.steps.len() / 2;
    for (i, step) in case.steps.iter().enumerate() {
        now = Timestamp(now.0 + step.advance_ms);
        server.ingest_batch(&batch_on(&case.graph, hot, &step.updates, now));
        if step.evict {
            server.evict_all_resident();
            server.evict_all_topology();
        }
        if i == mid {
            // Mid-stream rebalance: may migrate boundary cells (a no-op at
            // d == 1). Answers must not move either way.
            server.rebalance_shards();
        }
        server.tick_subscriptions(now);

        observed.subs.push(
            subs.iter()
                .map(|&id| server.subscription_result(id).expect("live").to_vec())
                .collect(),
        );
        observed.knn.push(
            queries
                .iter()
                .map(|&(q, k)| server.knn(q, k, now))
                .collect(),
        );
        observed.batch.push(server.knn_batch(&queries, now).answers);
    }
    observed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every answer surface is byte-identical across device counts ×
    /// replication on/off × cross-shard SDist on/off, and between one host
    /// worker (the reference) and the case's width. The stream's skewed
    /// hot-window writes land in cells the repeated queries replicate, so
    /// replica invalidation is exercised, and the mid-stream rebalance
    /// migrates cells out from under live replicas.
    #[test]
    fn answers_identical_across_device_counts(case in arb_case()) {
        let reference = run_stream(&case, 1, 1, false, false);
        for d in [2usize, 4, 8] {
            for (replication, cross_shard) in
                [(false, false), (false, true), (true, false), (true, true)]
            {
                let got = run_stream(&case, d, case.host_workers, replication, cross_shard);
                prop_assert_eq!(
                    &got,
                    &reference,
                    "answers diverged at D={} host_workers={} replication={} cross_shard={}",
                    d,
                    case.host_workers,
                    replication,
                    cross_shard
                );
            }
        }
    }
}

/// A query whose candidate rings stay inside one shard's cell range must
/// launch kernels on exactly that one device — routing, not replication.
#[test]
fn single_shard_query_touches_one_device() {
    let graph = gen::grid_city(&GridCityParams {
        rows: 8,
        cols: 8,
        edge_ratio: 2.5,
        weight_range: (1, 30),
        seed: 11,
    });
    let mut server = GGridServer::new(
        graph.clone(),
        GGridConfig {
            eta: 3,
            num_devices: 4,
            ..Default::default()
        },
    );
    assert_eq!(server.num_shards(), 4);

    // Confine all objects (and the query) to cells owned by shard 0, so
    // cleaning and SDist both route there.
    let range0 = server.shard_ranges()[0].clone();
    let shard0_edges: Vec<EdgeId> = (0..graph.num_edges() as u32)
        .map(EdgeId)
        .filter(|&e| range0.contains(&(server.grid().cell_of_edge(e).index() as u32)))
        .collect();
    assert!(
        !shard0_edges.is_empty(),
        "shard 0 owns no edges; enlarge the test graph"
    );
    let now = Timestamp(1_000);
    for (i, &e) in shard0_edges.iter().enumerate().take(12) {
        server.handle_update(ObjectId(i as u64), EdgePosition::at_source(e), now);
    }

    let before = server.device_launches();
    let got = server.knn(
        EdgePosition::at_source(shard0_edges[0]),
        3,
        Timestamp(2_000),
    );
    assert!(!got.is_empty(), "query should find the planted objects");
    let after = server.device_launches();

    let touched: Vec<usize> = (0..4).filter(|&d| after[d] > before[d]).collect();
    assert_eq!(
        touched,
        vec![0],
        "kernels must launch on the owning shard only (launches: {before:?} -> {after:?})"
    );
}

/// Four tiny devices over a `side`² grid city with an object on every
/// `stride`-th edge, all reported at time 1,000. Replication is off, so
/// every cell's effective owner is its owner.
fn four_tiny_devices(side: u32, stride: usize, cross_shard_sdist: bool) -> GGridServer {
    let graph = gen::grid_city(&GridCityParams {
        rows: side,
        cols: side,
        edge_ratio: 2.5,
        weight_range: (1, 30),
        seed: 3,
    });
    let config = GGridConfig {
        eta: 3,
        num_devices: 4,
        replicate_threshold: 0,
        cross_shard_sdist,
        ..Default::default()
    };
    let device = gpu_sim::Device::new(gpu_sim::DeviceSpec::test_tiny());
    let server = GGridServer::with_device(graph.clone(), config, device);
    assert_eq!(server.num_shards(), 4);
    for (i, e) in (0..graph.num_edges() as u32).step_by(stride).enumerate() {
        let p = EdgePosition::at_source(EdgeId(e));
        server.handle_update(ObjectId(i as u64), p, Timestamp(1_000));
    }
    server
}

/// Run a k-query at `q` twice at one instant and return the devices the
/// repeat launched on. The first run cleans every candidate cell, so the
/// repeat serves them all from the clean-skip cache: its launches are the
/// query-wide kernels alone (SDist, selection, unresolved).
fn repeat_launches(server: &mut GGridServer, q: EdgeId, k: usize) -> Vec<usize> {
    let q = EdgePosition::at_source(q);
    let first = server.knn(q, k, Timestamp(2_000));
    let before = server.device_launches();
    let again = server.knn(q, k, Timestamp(2_000));
    assert_eq!(again, first);
    assert_eq!(server.last_breakdown().cells_cleaned, 0, "all served");
    let after = server.device_launches();
    (0..4).filter(|&d| after[d] > before[d]).collect()
}

/// The shard that owns cell `cell`.
fn owner_of(server: &GGridServer, cell: usize) -> usize {
    let ranges = server.shard_ranges();
    ranges
        .iter()
        .position(|r| r.contains(&(cell as u32)))
        .unwrap()
}

/// A query whose first ring spans three shards and already holds ρ·k
/// objects: its SDist round relaxes a few cells, less than another
/// device's staging latency and launch would save, so it runs on the
/// primary alone.
#[test]
fn light_spanning_round_runs_on_the_primary() {
    let mut server = four_tiny_devices(8, 3, true);
    let grid = server.grid();
    let q = (0..grid.graph().num_edges() as u32)
        .map(EdgeId)
        .find(|&e| {
            let c = grid.cell_of_edge(e);
            let mut owners: Vec<usize> = std::iter::once(c)
                .chain(grid.neighbors(c).iter().copied())
                .map(|c| owner_of(&server, c.index()))
                .collect();
            owners.sort_unstable();
            owners.dedup();
            owners.len() == 3
        })
        .expect("an 8x8 grid over 4 z-contiguous shards has a 3-shard ring");
    let primary = owner_of(&server, grid.cell_of_edge(q).index());
    assert_eq!(repeat_launches(&mut server, q, 3), vec![primary]);
    let b = server.last_breakdown();
    assert_eq!(b.ring_span, 3);
    assert_eq!(
        b.cross_shard_rounds, 0,
        "a light round stays on the primary"
    );
}
/// A query far from a sparse fleet: its candidates grow over a larger
/// city, and its SDist round's relaxation outweighs the staging and the
/// extra launches, so it scatters: it launches on exactly its owners and
/// counts one cooperative round. With cooperative SDist off, the same
/// round runs on the primary alone.
#[test]
fn heavy_spanning_round_scatters_over_its_owners() {
    for cross_shard_sdist in [true, false] {
        let mut server = four_tiny_devices(24, 97, cross_shard_sdist);
        let q = EdgeId(0);
        let primary = owner_of(&server, server.grid().cell_of_edge(q).index());
        let launched = repeat_launches(&mut server, q, 8);
        let b = server.last_breakdown();
        assert_eq!(b.ring_span, 4, "the candidates span every device");
        if cross_shard_sdist {
            assert_eq!(launched, vec![0, 1, 2, 3]);
            assert_eq!(b.cross_shard_rounds, 1);
        } else {
            assert_eq!(launched, vec![primary]);
            assert_eq!(b.cross_shard_rounds, 0);
        }
    }
}

/// A replica made stale by a write is torn down before the next read:
/// answers keep matching the single-device reference, and the invalidation
/// counter proves the coherence path actually fired.
#[test]
fn stale_replica_never_serves_reads() {
    let graph = gen::grid_city(&GridCityParams {
        rows: 6,
        cols: 6,
        edge_ratio: 2.5,
        weight_range: (1, 30),
        seed: 7,
    });
    let make = |d: usize| {
        GGridServer::new(
            graph.clone(),
            GGridConfig {
                eta: 3,
                num_devices: d,
                // Promote on the first clean-skip.
                replicate_threshold: 1,
                ..Default::default()
            },
        )
    };
    let mut sharded = make(2);
    let mut reference = make(1);
    assert_eq!(sharded.num_shards(), 2);

    let now = Timestamp(1_000);
    let seed_objects: Vec<(ObjectId, EdgePosition, Timestamp)> = (0..graph.num_edges() as u32)
        .step_by(2)
        .enumerate()
        .map(|(i, e)| (ObjectId(i as u64), EdgePosition::at_source(EdgeId(e)), now))
        .collect();
    sharded.ingest_batch(&seed_objects);
    reference.ingest_batch(&seed_objects);

    // A query on shard 0 whose ring reaches shard 1's cells.
    let ranges = sharded.shard_ranges();
    let q = (0..graph.num_edges() as u32)
        .map(EdgeId)
        .find(|&e| {
            let c = sharded.grid().cell_of_edge(e);
            ranges[0].contains(&(c.index() as u32))
                && sharded
                    .grid()
                    .neighbors(c)
                    .iter()
                    .any(|n| ranges[1].contains(&(n.index() as u32)))
        })
        .expect("some shard-0 cell borders shard 1");
    let qp = EdgePosition::at_source(q);

    // Warm up: first query cleans the remote cells, second skips them
    // (heat crosses the threshold) and promotes replicas onto shard 0.
    for t in [2_000u64, 2_100] {
        assert_eq!(
            sharded.knn(qp, 4, Timestamp(t)),
            reference.knn(qp, 4, Timestamp(t))
        );
    }
    assert!(
        sharded.counters().replicas_active > 0,
        "warm-up must promote at least one replica"
    );

    // Write into every replicated remote cell: new objects parked right at
    // the query's ring, each landing a dirtied-cell invalidation.
    let remote_ring: Vec<EdgeId> = (0..graph.num_edges() as u32)
        .map(EdgeId)
        .filter(|&e| {
            let c = sharded.grid().cell_of_edge(e);
            ranges[1].contains(&(c.index() as u32))
        })
        .collect();
    for (i, &e) in remote_ring.iter().enumerate().take(6) {
        let o = ObjectId(10_000 + i as u64);
        let p = EdgePosition::at_source(e);
        sharded.handle_update(o, p, Timestamp(3_000));
        reference.handle_update(o, p, Timestamp(3_000));
    }

    // The next read must see the writes — the stale replicas are
    // invalidated before any kernel runs, never served.
    assert_eq!(
        sharded.knn(qp, 4, Timestamp(3_500)),
        reference.knn(qp, 4, Timestamp(3_500))
    );
    assert!(
        sharded.counters().replica_invalidations > 0,
        "the writes must have torn down the stale replicas"
    );
}
