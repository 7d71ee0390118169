//! Extension study (beyond the paper): paper-scale capacity sweep.
//!
//! Two questions in one harness:
//!
//! 1. **Capacity curves** — build the index over synthetic road grids of
//!    |V| ∈ {3k, 30k, 300k} and serve fleets of |𝒪| ∈ {1k, 100k, 1M}
//!    (quick mode runs the 3k × 1k point only). Each point reports the
//!    grid build time, the resident index bytes, the hybrid-clock time
//!    per kNN query, and the modeled ingest throughput. The 300k/1M point
//!    is the paper's full-scale regime — before the capacity push
//!    (epoch-stamped partition scratch, streaming grid assembly,
//!    scratch-pool budget) it did not complete.
//! 2. **Hot-window buffered ingest** — the PR-4 group commit versus the
//!    thread-buffered path (`ingest_buffered` + query auto-flush) on a
//!    fleet that reports in *small arrival batches* over a hot window of
//!    edges. Small batches are the realistic ingest shape (messages
//!    arrive as they are received, not pre-grouped per round), and they
//!    are where the group commit still pays ≈1 cell lock per message.
//!    The buffered path defers everything to one flush per round, so its
//!    per-message cell-lock cost collapses. Answers are asserted
//!    byte-identical; the report (`BENCH_8.json`) records the floored
//!    `ingest_speedup_x` and `cell_lock_reduction_x`.

use std::sync::Arc;
use std::time::Instant;

use ggrid::api::MovingObjectIndex;
use ggrid::grid::GraphGrid;
use ggrid::prelude::*;
use ggrid::stats::ServerCounters;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use roadnet::graph::Graph;
use roadnet::{gen, EdgeId};

use crate::csvout::{fmt_bytes, ResultTable};
use crate::experiments::ExpConfig;
use crate::report::{ns, table, Column, Report, Val};
use crate::runner::server_on;

/// Queries per capacity point (fixed positions, k = 16).
const POINT_QUERIES: usize = 8;
/// Hot-window rounds / fleet size / window width / arrival batch.
const HW_ROUNDS: usize = 6;
const HW_FLEET: u64 = 500;
const HW_WINDOW: u32 = 32;
const HW_ARRIVAL: usize = 4;

/// Result-table columns over the report rows.
const COLUMNS: &[Column] = &[
    ("|V|", "vertices", Val::text),
    ("|E|", "edges", Val::text),
    ("|O|", "objects", Val::text),
    ("Cells", "cells", Val::text),
    ("Grid build", "grid_build_ms", |v| {
        format!("{:.1}ms", v.f64())
    }),
    ("Index size", "index_bytes", |v| fmt_bytes(v.u64())),
    ("Query", "query_ns", ns),
    ("Ingest upd/s model", "updates_per_sec_modeled", |v| {
        format!("{:.1}k", v.f64() / 1e3)
    }),
    ("Flushes", "ingest_flushes", Val::text),
];

/// One measured (|V|, |O|) sweep point.
struct Point {
    vertices: usize,
    edges: usize,
    objects: usize,
    cells: usize,
    grid_build_ms: f64,
    index_bytes: u64,
    query_ns: u64,
    counters: ServerCounters,
}

/// Index config for the capacity points: paper defaults, but with a
/// freshness horizon wide enough that a 1M-update wave (1 ms apart) stays
/// entirely live at query time.
fn point_config() -> GGridConfig {
    GGridConfig {
        t_delta_ms: 1 << 40,
        ..Default::default()
    }
}

pub fn run(cfg: &ExpConfig) -> (ResultTable, Report) {
    let vertex_tiers: &[usize] = if cfg.quick {
        &[3_000]
    } else {
        &[3_000, 30_000, 300_000]
    };
    let object_tiers: &[usize] = if cfg.quick {
        &[1_000]
    } else {
        &[1_000, 100_000, 1_000_000]
    };

    let mut points = Vec::new();
    let mut hot = None;
    for (i, &nv) in vertex_tiers.iter().enumerate() {
        let graph = Arc::new(gen::synthetic_grid(nv, cfg.seed ^ nv as u64));
        let params = point_config();
        let t0 = Instant::now();
        // One grid per vertex tier, shared across the object sweep (and
        // the hot-window study on the smallest tier).
        let grid = Arc::new(GraphGrid::build(
            graph.clone(),
            params.cell_capacity,
            params.vertex_capacity,
        ));
        let grid_build_ms = t0.elapsed().as_secs_f64() * 1e3;
        for &no in object_tiers {
            points.push(measure_point(&graph, &grid, grid_build_ms, no, cfg.seed));
        }
        if i == 0 {
            hot = Some(hot_window_compare(&graph, &grid, cfg.seed));
        }
    }
    let hot = hot.expect("at least one vertex tier");

    let rows: Vec<Val> = points.iter().map(point).collect();
    let title = "Extension: capacity sweep (synthetic road grids, k=16)";
    let t = table(title, COLUMNS, &rows);
    println!(
        "hot window ({} msgs/round in arrival batches of {}): buffered ingest {:.2}x modeled speedup, {:.1}x fewer cell locks",
        HW_FLEET,
        HW_ARRIVAL,
        hot.get("ingest_speedup_x").f64(),
        hot.get("cell_lock_reduction_x").f64()
    );

    let fields = vec![
        ("quick", Val::Bool(cfg.quick)),
        ("seed", cfg.seed.into()),
        ("points", Val::Rows(rows)),
        ("hot_window", hot),
    ];
    (t, Report::new("BENCH_8", "capacity", fields))
}

/// Build a server on the shared grid, ingest one full-fleet wave through
/// the buffered path, and serve a fixed query frontier.
fn measure_point(
    graph: &Arc<Graph>,
    grid: &Arc<GraphGrid>,
    grid_build_ms: f64,
    objects: usize,
    seed: u64,
) -> Point {
    let mut server = server_on(grid, point_config());
    let ne = graph.num_edges() as u32;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xca9);
    let mut t = 100u64;
    // The wave arrives in ingest-sized chunks; the byte budget drains the
    // buffers periodically, the final barrier publishes the tail.
    let mut wave = Vec::with_capacity(4096);
    for o in 0..objects as u64 {
        t += 1;
        wave.push((
            ObjectId(o),
            EdgePosition::at_source(EdgeId(rng.gen_range(0..ne))),
            Timestamp(t),
        ));
        if wave.len() == 4096 {
            server.ingest_buffered(&wave);
            wave.clear();
        }
    }
    server.ingest_buffered(&wave);
    GGridServer::flush_ingest(&server);

    let sim0 = server.sim_costs();
    let emu0 = server.emulated_host_ns();
    let q0 = Instant::now();
    let mut answered = 0usize;
    for q in 0..POINT_QUERIES as u32 {
        let pos = EdgePosition::at_source(EdgeId(q * (ne / POINT_QUERIES as u32).max(1) % ne));
        answered += server.knn(pos, 16, Timestamp(t + 1)).len();
    }
    assert!(answered > 0, "capacity point answered nothing");
    let wall = q0.elapsed().as_nanos() as u64;
    let emulated = server.emulated_host_ns() - emu0;
    let sim = server.sim_costs().since(&sim0).total_time().0;
    let query_ns = wall.saturating_sub(emulated).saturating_add(sim) / POINT_QUERIES as u64;

    Point {
        vertices: graph.num_vertices(),
        edges: graph.num_edges(),
        objects,
        cells: grid.num_cells(),
        grid_build_ms,
        index_bytes: server.index_size().total(),
        query_ns,
        counters: server.counters(),
    }
}

/// Replay the same small-arrival-batch hot-window stream through the PR-4
/// group commit and the thread-buffered path; answers must be identical.
/// Returns the report's `hot_window` object.
fn hot_window_compare(graph: &Arc<Graph>, grid: &Arc<GraphGrid>, seed: u64) -> Val {
    let ne = graph.num_edges() as u32;
    let window = ne.min(HW_WINDOW);
    // Pre-draw the whole stream once so both servers replay identical
    // rounds (the rng must not depend on how updates are committed).
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x407);
    let mut t = 100u64;
    let rounds: Vec<Vec<(ObjectId, EdgePosition, Timestamp)>> = (0..HW_ROUNDS)
        .map(|_| {
            (0..HW_FLEET)
                .map(|o| {
                    t += 1;
                    let e = EdgeId(rng.gen_range(0..window));
                    (ObjectId(o), EdgePosition::at_source(e), Timestamp(t))
                })
                .collect()
        })
        .collect();
    let positions: Vec<EdgePosition> = (0..4u32)
        .map(|p| EdgePosition::at_source(EdgeId((p * (window / 4)).min(ne - 1))))
        .collect();

    let replay = |buffered: bool| {
        let mut server = server_on(grid, point_config());
        let mut answers = Vec::new();
        let mut qt = t;
        for wave in &rounds {
            // Messages arrive in small batches, as a receiver would see
            // them — this is where per-round group commits degenerate
            // toward per-message locking and buffering pays off.
            for chunk in wave.chunks(HW_ARRIVAL) {
                if buffered {
                    server.ingest_buffered(chunk);
                } else {
                    server.ingest_batch(chunk);
                }
            }
            qt += 1;
            for &q in &positions {
                // The first query of the round auto-flushes the buffers.
                answers.push(server.knn(q, 16, Timestamp(qt)));
            }
        }
        (server.counters(), answers)
    };
    let (batched, batched_answers) = replay(false);
    let (buffered, buffered_answers) = replay(true);
    assert_eq!(
        batched_answers, buffered_answers,
        "buffered ingest changed hot-window answers"
    );

    let speedup_x =
        buffered.updates_per_sec_modeled() / batched.updates_per_sec_modeled().max(1e-9);
    let lock_reduction_x =
        batched.ingest_cell_locks as f64 / buffered.ingest_cell_locks.max(1) as f64;
    let side = |c: &ServerCounters| {
        Val::Obj(vec![
            ("updates", c.updates_ingested.into()),
            ("cell_locks", c.ingest_cell_locks.into()),
            ("shard_locks", c.ingest_shard_locks.into()),
            ("modeled_ingest_ns", c.modeled_ingest_ns().into()),
            (
                "updates_per_sec_modeled",
                Val::Num(c.updates_per_sec_modeled(), 1),
            ),
            ("ingest_flushes", c.ingest_flushes.into()),
            ("buffered_messages", c.buffered_messages.into()),
        ])
    };
    Val::Block(vec![
        ("rounds", HW_ROUNDS.into()),
        ("fleet", HW_FLEET.into()),
        ("window_edges", HW_WINDOW.into()),
        ("arrival_batch", HW_ARRIVAL.into()),
        ("batched", side(&batched)),
        ("buffered", side(&buffered)),
        ("ingest_speedup_x", Val::Num(speedup_x, 2)),
        ("cell_lock_reduction_x", Val::Num(lock_reduction_x, 2)),
    ])
}

fn point(p: &Point) -> Val {
    let c = &p.counters;
    Val::Obj(vec![
        ("vertices", p.vertices.into()),
        ("edges", p.edges.into()),
        ("objects", p.objects.into()),
        ("cells", p.cells.into()),
        ("grid_build_ms", Val::Num(p.grid_build_ms, 2)),
        ("index_bytes", p.index_bytes.into()),
        ("query_ns", p.query_ns.into()),
        (
            "updates_per_sec_modeled",
            Val::Num(c.updates_per_sec_modeled(), 1),
        ),
        ("modeled_ingest_ns", c.modeled_ingest_ns().into()),
        ("ingest_flushes", c.ingest_flushes.into()),
        ("buffered_messages", c.buffered_messages.into()),
        ("buffer_bytes_high_water", c.buffer_bytes_high_water.into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::check_floors;

    #[test]
    fn buffered_ingest_floors_hold() {
        let (t, report) = run(&ExpConfig::quick());
        assert_eq!(t.rows.len(), 1, "quick mode sweeps one point");
        // The buffered-messages floor is written out as this product.
        assert_eq!(HW_ROUNDS * HW_FLEET as usize, 3000);
        check_floors(&report);
    }

    /// The 30k-vertex tier — an order of magnitude past every other test
    /// in the suite — must build and serve briskly. The wall bound only
    /// applies to release builds (`cargo test -q` compiles without
    /// optimisation, where the same work is ~20x slower).
    #[test]
    fn thirty_k_vertices_build_and_serve() {
        let t0 = Instant::now();
        let params = point_config();
        let graph = Arc::new(gen::synthetic_grid(30_000, 11));
        let grid = Arc::new(GraphGrid::build(
            graph.clone(),
            params.cell_capacity,
            params.vertex_capacity,
        ));
        let p = measure_point(&graph, &grid, 0.0, 20_000, 11);
        assert!(p.vertices >= 30_000);
        assert_eq!(p.objects, 20_000);
        assert!(p.index_bytes > 0);
        assert!(p.counters.updates_ingested == 20_000);
        let elapsed = t0.elapsed();
        #[cfg(not(debug_assertions))]
        assert!(
            elapsed < std::time::Duration::from_secs(5),
            "30k-vertex capacity point took {elapsed:?}"
        );
        #[cfg(debug_assertions)]
        assert!(
            elapsed < std::time::Duration::from_secs(120),
            "30k-vertex capacity point took {elapsed:?} even for a debug build"
        );
    }
}
