//! Builds each index over a dataset and replays a scenario against it.
//!
//! Index substrates that are immutable after construction — the G-Grid's
//! graph grid and the baselines' region matrices — are cached per dataset
//! in a [`BenchWorld`], so a parameter sweep partitions the network once
//! instead of once per configuration.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use baselines::region::RegionIndex;
use baselines::{Road, VTree, VTreeGpu};
use ggrid::api::{IndexSize, MovingObjectIndex};
use ggrid::grid::GraphGrid;
use ggrid::{GGridConfig, GGridServer};
use roadnet::graph::Graph;
use workload::scenario::{run_scenario, ScenarioConfig, ScenarioReport};

use crate::csvout::fmt_ns;

/// Per-dataset cache of the expensive immutable substrates.
pub struct BenchWorld {
    pub graph: Arc<Graph>,
    grids: Mutex<HashMap<(usize, usize), Arc<GraphGrid>>>,
    regions: Mutex<HashMap<usize, Arc<RegionIndex>>>,
}

impl BenchWorld {
    pub fn new(graph: Arc<Graph>) -> Self {
        Self {
            graph,
            grids: Mutex::new(HashMap::new()),
            regions: Mutex::new(HashMap::new()),
        }
    }

    /// The graph grid for (δᶜ, δᵛ), built once.
    pub fn grid(&self, cell_capacity: usize, vertex_capacity: usize) -> Arc<GraphGrid> {
        self.grids
            .lock()
            .expect("grid cache poisoned")
            .entry((cell_capacity, vertex_capacity))
            .or_insert_with(|| {
                Arc::new(GraphGrid::build(
                    self.graph.clone(),
                    cell_capacity,
                    vertex_capacity,
                ))
            })
            .clone()
    }

    /// A G-Grid server for `config` on this world's cached grid.
    pub fn server(&self, config: GGridConfig) -> GGridServer {
        server_on(
            &self.grid(config.cell_capacity, config.vertex_capacity),
            config,
        )
    }

    /// The region substrate for a leaf capacity, built once.
    pub fn regions(&self, leaf_capacity: usize) -> Arc<RegionIndex> {
        self.regions
            .lock()
            .expect("region cache poisoned")
            .entry(leaf_capacity)
            .or_insert_with(|| Arc::new(RegionIndex::build(self.graph.clone(), leaf_capacity)))
            .clone()
    }
}

/// A G-Grid server on a shared grid, on the paper's device (Quadro P2000).
pub fn server_on(grid: &Arc<GraphGrid>, config: GGridConfig) -> GGridServer {
    GGridServer::with_shared_grid(grid.clone(), config, gpu_sim::Device::quadro_p2000())
}

/// The four competitors of the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexKind {
    GGrid,
    VTree,
    VTreeGpu,
    Road,
}

impl IndexKind {
    pub const ALL: [IndexKind; 4] = [
        IndexKind::GGrid,
        IndexKind::VTree,
        IndexKind::VTreeGpu,
        IndexKind::Road,
    ];

    pub fn name(self) -> &'static str {
        match self {
            IndexKind::GGrid => "G-Grid",
            IndexKind::VTree => "V-Tree",
            IndexKind::VTreeGpu => "V-Tree (G)",
            IndexKind::Road => "ROAD",
        }
    }
}

/// Shared index-construction parameters.
#[derive(Clone, Debug)]
pub struct IndexParams {
    pub ggrid: GGridConfig,
    pub leaf_capacity: usize,
    pub t_delta_ms: u64,
}

impl Default for IndexParams {
    fn default() -> Self {
        Self {
            ggrid: GGridConfig::default(),
            leaf_capacity: 64,
            t_delta_ms: 10_000,
        }
    }
}

/// Result of one (index, scenario) run.
pub struct RunOutcome {
    pub kind: IndexKind,
    /// `None` when the index could not be built (V-Tree (G) out of device
    /// memory — the paper's USA omission).
    pub report: Option<ScenarioReport>,
    pub index_size: IndexSize,
    pub build_skipped: bool,
}

impl RunOutcome {
    /// Amortised `(T_u + T_q)/n_q` with serial CPU+GPU accounting — the
    /// paper's "G-Grid (L)" latency clock for GPU indexes.
    pub fn serial_ns_per_query(&self) -> Option<u64> {
        self.report.as_ref().map(|r| r.amortized_ns_per_query())
    }

    /// Amortised time with CPU/GPU overlap across queries — the paper's
    /// "G-Grid" clock (the server processes multiple queries in parallel,
    /// so host work of one query hides device work of another).
    pub fn overlapped_ns_per_query(&self) -> Option<u64> {
        self.report.as_ref().map(|r| {
            let cpu = (r.update_wall_ns + r.query_wall_ns).saturating_sub(r.emulated_ns);
            let total = cpu.max(r.sim.total_time().0);
            total / r.queries.max(1) as u64
        })
    }
}

/// Build one index over `graph`, reusing `world`'s cached substrates.
pub fn build_index_in(
    world: &BenchWorld,
    kind: IndexKind,
    params: &IndexParams,
) -> Option<Box<dyn MovingObjectIndex>> {
    match kind {
        IndexKind::GGrid => Some(Box::new(world.server(GGridConfig {
            t_delta_ms: params.t_delta_ms,
            ..params.ggrid.clone()
        }))),
        IndexKind::VTree => Some(Box::new(VTree::from_regions(
            world.graph.clone(),
            world.regions(params.leaf_capacity),
            params.t_delta_ms,
        ))),
        IndexKind::VTreeGpu => VTreeGpu::from_regions(
            world.graph.clone(),
            world.regions(params.leaf_capacity),
            params.t_delta_ms,
            gpu_sim::Device::quadro_p2000(),
        )
        .ok()
        .map(|v| Box::new(v) as Box<dyn MovingObjectIndex>),
        IndexKind::Road => Some(Box::new(Road::from_regions(
            world.graph.clone(),
            world.regions(params.leaf_capacity),
            params.t_delta_ms,
        ))),
    }
}

/// Build one index over `graph` (uncached convenience wrapper).
pub fn build_index(
    kind: IndexKind,
    graph: &Arc<Graph>,
    params: &IndexParams,
) -> Option<Box<dyn MovingObjectIndex>> {
    build_index_in(&BenchWorld::new(graph.clone()), kind, params)
}

/// Run `scenario` against one index kind, reusing cached substrates.
pub fn run_one_in(
    world: &BenchWorld,
    kind: IndexKind,
    params: &IndexParams,
    scenario: &ScenarioConfig,
) -> RunOutcome {
    let graph = &world.graph;
    match build_index_in(world, kind, params) {
        Some(mut index) => {
            let report = run_scenario(graph, index.as_mut(), scenario, params.t_delta_ms, false);
            RunOutcome {
                kind,
                index_size: index.index_size(),
                report: Some(report),
                build_skipped: false,
            }
        }
        None => RunOutcome {
            kind,
            report: None,
            index_size: IndexSize::default(),
            build_skipped: true,
        },
    }
}

/// Run `scenario` against every index in `kinds`, sharing substrates.
pub fn run_all_indexes(
    graph: &Arc<Graph>,
    params: &IndexParams,
    scenario: &ScenarioConfig,
    kinds: &[IndexKind],
) -> Vec<RunOutcome> {
    let world = BenchWorld::new(graph.clone());
    kinds
        .iter()
        .map(|&k| run_one_in(&world, k, params, scenario))
        .collect()
}

/// Run against every index in `kinds` with an existing world.
pub fn run_all_in(
    world: &BenchWorld,
    params: &IndexParams,
    scenario: &ScenarioConfig,
    kinds: &[IndexKind],
) -> Vec<RunOutcome> {
    kinds
        .iter()
        .map(|&k| run_one_in(world, k, params, scenario))
        .collect()
}

/// Run `scenario` against `kinds`: the row `label` followed by each
/// index's serial per-query time, `-` where it could not be built.
pub fn serial_row(
    world: &BenchWorld,
    params: &IndexParams,
    scenario: &ScenarioConfig,
    kinds: &[IndexKind],
    label: String,
) -> Vec<String> {
    let outcomes = run_all_in(world, params, scenario, kinds);
    let times = outcomes.iter().map(|o| {
        o.serial_ns_per_query()
            .map(fmt_ns)
            .unwrap_or_else(|| "-".into())
    });
    std::iter::once(label).chain(times).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::moto::MotoConfig;

    /// Every index on a toy graph with a tiny fleet and three queries.
    fn tiny_outcomes() -> Vec<RunOutcome> {
        let scenario = ScenarioConfig {
            moto: MotoConfig {
                num_objects: 20,
                update_period_ms: 300,
                seed: 4,
                ..Default::default()
            },
            k: 3,
            query_interval_ms: 400,
            num_queries: 3,
            warmup_ms: 350,
            query_seed: 8,
            buffered_ingest: false,
        };
        let params = IndexParams {
            ggrid: GGridConfig {
                eta: 4,
                ..Default::default()
            },
            leaf_capacity: 8,
            t_delta_ms: 10_000,
        };
        let graph = Arc::new(roadnet::gen::toy(2));
        run_all_indexes(&graph, &params, &scenario, &IndexKind::ALL)
    }

    #[test]
    fn all_four_indexes_run() {
        let outcomes = tiny_outcomes();
        assert_eq!(outcomes.len(), 4);
        for o in &outcomes {
            assert!(!o.build_skipped, "{} failed to build", o.kind.name());
            let r = o.report.as_ref().unwrap();
            assert_eq!(r.queries, 3);
            assert!(o.serial_ns_per_query().unwrap() > 0);
            assert!(o.overlapped_ns_per_query().unwrap() <= o.serial_ns_per_query().unwrap());
        }
    }

    #[test]
    fn indexes_agree_on_answers() {
        let outcomes = tiny_outcomes();
        let dists: Vec<Vec<Vec<u64>>> = outcomes
            .iter()
            .map(|o| {
                o.report
                    .as_ref()
                    .unwrap()
                    .answers
                    .iter()
                    .map(|a| a.iter().map(|&(_, d)| d).collect())
                    .collect()
            })
            .collect();
        for other in &dists[1..] {
            assert_eq!(&dists[0], other, "indexes disagree");
        }
    }
}
