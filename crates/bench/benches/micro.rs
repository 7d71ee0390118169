//! Micro-benchmarks of the building blocks: Z-curve encoding, graph
//! partitioning, the graph-grid build (also on the repository benchmark's
//! graph), Dijkstra (also refinement-shaped searches on the benchmark's
//! graph), the X-shuffle kernel, message caching, and the object table.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ggrid::grid::{CellId, GraphGrid};
use ggrid::message::{CachedMessage, ObjectId, Timestamp};
use ggrid::xshuffle::{xshuffle_clean, WireMessage};
use gpu_sim::{Device, DeviceSpec};
use roadnet::dijkstra::{DijkstraEngine, SearchBounds};
use roadnet::graph::{Distance, VertexId};
use roadnet::{gen, partition, zorder, EdgeId, EdgePosition};

fn bench_zorder(c: &mut Criterion) {
    c.bench_function("zorder_encode_4096", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for x in 0..64u32 {
                for y in 0..64u32 {
                    acc = acc.wrapping_add(zorder::encode(x, y));
                }
            }
            acc
        })
    });
}

fn bench_partition(c: &mut Criterion) {
    let g = gen::grid_city(&gen::GridCityParams {
        rows: 24,
        cols: 24,
        ..Default::default()
    });
    c.bench_function("partition_576v_cap8", |b| {
        b.iter(|| partition::partition_with_capacity(&g, 8).num_parts)
    });
}

/// The index build on NY at scale 12 (~22k vertices, ψ = 7 at δᶜ = 3):
/// the bisection and the cell layout timed apart.
fn bench_grid_build(c: &mut Criterion) {
    let g = std::sync::Arc::new(gen::dataset(gen::Dataset::NY, 12, 1));
    let psi = GraphGrid::build(g.clone(), 3, 2).psi();
    let assignment = partition::hierarchical_bisection(&g, 2 * psi).assignment;
    let mut group = c.benchmark_group("grid_build_ny12");
    group.bench_function("partition", |b| {
        b.iter(|| partition::hierarchical_bisection(&g, 2 * psi).num_parts)
    });
    group.bench_function("assemble", |b| {
        b.iter(|| GraphGrid::assemble(g.clone(), psi, assignment.clone(), 3, 2).num_cells())
    });
    group.finish();
}

/// The bisection at the repository benchmark's shape: NY at scale 2
/// (132,496 vertices, graph seed 0x6E79) at the grid's depth 16.
fn bench_grid_build_ny2(c: &mut Criterion) {
    let g = gen::dataset(gen::Dataset::NY, 2, 0x6E79);
    let mut group = c.benchmark_group("grid_build_ny2");
    group.bench_function("partition", |b| {
        b.iter(|| partition::hierarchical_bisection(&g, 16).num_parts)
    });
    group.finish();
}

fn bench_dijkstra(c: &mut Criterion) {
    let g = gen::grid_city(&gen::GridCityParams {
        rows: 32,
        cols: 32,
        ..Default::default()
    });
    let mut engine = DijkstraEngine::new(&g);
    c.bench_function("dijkstra_full_1024v", |b| {
        b.iter(|| engine.run_from_vertex(VertexId(0)))
    });
}

/// Refinement-shaped searches on the repository benchmark's graph (NY at
/// scale 2, graph seed 0x6E79, the default δᶜ = 3 grid): one bounded
/// multi-source Dijkstra per sampled cell, seeded at cost 0 at every vertex
/// of the cell and its neighbours with an edge leaving that region, radius
/// five mean edge weights, all on one reused engine as a pooled refinement
/// worker runs them. 64 cells are sampled evenly along the Z-order. A
/// search settles about 78 vertices and relaxes about 227 edges, close to
/// a `sharded_hot` refinement's 70 and 207.
/// Unlike `dijkstra_full_1024v`, the graph and the distance map are far
/// larger than the caches, so this case shows the adjacency and map
/// layout.
fn bench_refine_boundary_ny2(c: &mut Criterion) {
    let g = std::sync::Arc::new(gen::dataset(gen::Dataset::NY, 2, 0x6E79));
    let grid = GraphGrid::build(g.clone(), 3, 2);
    let step = grid.num_cells() / 64;
    let seeds: Vec<Vec<(VertexId, Distance)>> = (0..64)
        .map(|i| {
            let cell = CellId((i * step) as u32);
            let mut region = vec![cell];
            region.extend_from_slice(grid.neighbors(cell));
            let inside = |v: VertexId| region.contains(&grid.cell_of_vertex(v));
            region
                .iter()
                .flat_map(|&c| grid.vertices_in(c))
                .filter(|&v| g.out_edges(v).any(|e| !inside(g.edge(e).dest)))
                .map(|v| (v, 0))
                .collect()
        })
        .collect();
    let bounds = SearchBounds::radius(5 * grid.mean_edge_weight());
    let mut engine = DijkstraEngine::new(&g);
    c.bench_function("refine_boundary_ny2", |b| {
        b.iter(|| {
            seeds
                .iter()
                .map(|s| engine.run_seeded(s, bounds))
                .sum::<usize>()
        })
    });
}

fn bench_xshuffle(c: &mut Criterion) {
    // 64 buckets of 8 messages over 12 objects: two 32-lane bundles.
    let buckets: Vec<Vec<WireMessage>> = (0..64u64)
        .map(|i| {
            (0..8u64)
                .map(|j| WireMessage {
                    msg: CachedMessage::update(
                        ObjectId((i * 8 + j) % 12),
                        EdgePosition::new(EdgeId(0), 0),
                        Timestamp(1000 + i * 8 + j),
                    ),
                    cell: CellId((i % 4) as u32),
                })
                .collect()
        })
        .collect();
    let mut group = c.benchmark_group("xshuffle_clean_512msgs");
    for eta in [4u32, 5] {
        group.bench_with_input(BenchmarkId::from_parameter(1 << eta), &eta, |b, &eta| {
            b.iter(|| {
                let mut dev = Device::new(DeviceSpec::test_tiny());
                let (out, _) = dev.launch(buckets.len(), |ctx| {
                    xshuffle_clean(ctx, &buckets, eta, Timestamp(0))
                });
                out.objects_seen
            })
        });
    }
    group.finish();
}

fn bench_update_path(c: &mut Criterion) {
    use ggrid::{GGridConfig, GGridServer};
    let g = gen::grid_city(&gen::GridCityParams {
        rows: 16,
        cols: 16,
        ..Default::default()
    });
    c.bench_function("ggrid_handle_update_x1000", |b| {
        let server = GGridServer::new(g.clone(), GGridConfig::default());
        let mut t = 0u64;
        b.iter(|| {
            for o in 0..1000u64 {
                t += 1;
                let e = EdgeId(((o * 13) % g.num_edges() as u64) as u32);
                server.handle_update(ObjectId(o), EdgePosition::at_source(e), Timestamp(t));
            }
        })
    });
}

criterion_group!(
    benches,
    bench_zorder,
    bench_partition,
    bench_grid_build,
    bench_grid_build_ny2,
    bench_dijkstra,
    bench_refine_boundary_ny2,
    bench_xshuffle,
    bench_update_path
);
criterion_main!(benches);
