//! Ablations of G-Grid's design choices (DESIGN.md §5).
//!
//! * **lazy vs eager** — the headline: the same index with cleaning forced
//!   after every message (the eager strategy of the baselines) vs the lazy
//!   query-time cleaning.
//! * **pipelined vs synchronous transfer** — up to 4 planned upload groups
//!   per cleaning round (the default `transfer_chunks` cap) vs a cap of `1`.
//! * **X-shuffle width** — warp-wide bundles (2^η = 32) vs degenerate
//!   2-lane bundles, isolating the butterfly dedup's benefit.

use std::sync::Arc;

use ggrid::api::{IndexSize, MovingObjectIndex, SimCosts};
use ggrid::message::{ObjectId, Timestamp};
use ggrid::{GGridConfig, GGridServer};
use roadnet::graph::{Distance, Graph};
use roadnet::EdgePosition;

use crate::csvout::{fmt_ns, ResultTable};
use crate::datasets::{build_dataset, DatasetSpec};
use crate::experiments::ExpConfig;
use crate::runner::IndexParams;

/// A G-Grid that cleans the touched cell after *every* message — the
/// eager-update strategy the paper's lazy design replaces.
pub struct EagerGGrid {
    inner: GGridServer,
}

impl EagerGGrid {
    pub fn new(graph: Graph, config: GGridConfig) -> Self {
        Self {
            inner: GGridServer::new(graph, config),
        }
    }
}

impl MovingObjectIndex for EagerGGrid {
    fn name(&self) -> &'static str {
        "G-Grid (eager)"
    }

    fn handle_update(&mut self, object: ObjectId, position: EdgePosition, time: Timestamp) {
        self.inner.handle_update(object, position, time);
        self.inner.clean_cell_of_edge(position.edge, time);
    }

    fn knn(&mut self, q: EdgePosition, k: usize, now: Timestamp) -> Vec<(ObjectId, Distance)> {
        self.inner.knn(q, k, now)
    }

    fn sim_costs(&self) -> SimCosts {
        self.inner.sim_costs()
    }

    fn index_size(&self) -> IndexSize {
        self.inner.index_size()
    }

    fn emulated_host_ns(&self) -> u64 {
        self.inner.emulated_host_ns()
    }
}

fn measure(
    graph: &Arc<Graph>,
    index: &mut dyn MovingObjectIndex,
    cfg: &ExpConfig,
    params: &IndexParams,
) -> u64 {
    let report =
        workload::scenario::run_scenario(graph, index, &cfg.scenario(), params.t_delta_ms, false);
    report.amortized_ns_per_query()
}

pub fn run(cfg: &ExpConfig) -> ResultTable {
    let ds = roadnet::gen::Dataset::NY;
    let graph = build_dataset(&DatasetSpec::new(ds, cfg.scale));
    let params = cfg.index_params();
    let mut t = ResultTable::new(
        &format!("Ablations ({}, k=16)", ds.name()),
        &["Variant", "time/query"],
    );

    let base_cfg = GGridConfig {
        t_delta_ms: params.t_delta_ms,
        ..GGridConfig::default()
    };

    let mut lazy = GGridServer::new((*graph).clone(), base_cfg.clone());
    t.row(vec![
        "lazy (paper)".into(),
        fmt_ns(measure(&graph, &mut lazy, cfg, &params)),
    ]);

    let mut eager = EagerGGrid::new((*graph).clone(), base_cfg.clone());
    t.row(vec![
        "eager (clean per message)".into(),
        fmt_ns(measure(&graph, &mut eager, cfg, &params)),
    ]);

    let mut sync_xfer = GGridServer::new(
        (*graph).clone(),
        GGridConfig {
            transfer_chunks: 1,
            ..base_cfg.clone()
        },
    );
    t.row(vec![
        "synchronous transfer (chunks=1)".into(),
        fmt_ns(measure(&graph, &mut sync_xfer, cfg, &params)),
    ]);

    let mut narrow = GGridServer::new((*graph).clone(), GGridConfig { eta: 1, ..base_cfg });
    t.row(vec![
        "2-lane bundles (eta=1)".into(),
        fmt_ns(measure(&graph, &mut narrow, cfg, &params)),
    ]);

    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eager_answers_match_lazy() {
        let graph = Arc::new(roadnet::gen::toy(19));
        let cfg = GGridConfig {
            eta: 4,
            ..Default::default()
        };
        let mut lazy = GGridServer::new((*graph).clone(), cfg.clone());
        let mut eager = EagerGGrid::new((*graph).clone(), cfg);
        // The lazy server takes the updates as one group commit; the eager
        // wrapper cleans per message via the trait default — answers agree.
        let updates: Vec<(ObjectId, EdgePosition, Timestamp)> = (0..25u64)
            .map(|i| {
                let e = roadnet::EdgeId((i % graph.num_edges() as u64) as u32);
                (ObjectId(i), EdgePosition::at_source(e), Timestamp(10 + i))
            })
            .collect();
        lazy.ingest_batch(&updates);
        MovingObjectIndex::ingest_batch(&mut eager, &updates);
        let q = EdgePosition::at_source(roadnet::EdgeId(3));
        assert_eq!(
            MovingObjectIndex::knn(&mut lazy, q, 5, Timestamp(100)),
            eager.knn(q, 5, Timestamp(100))
        );
    }

    #[test]
    fn ablation_table_runs() {
        let cfg = ExpConfig {
            scale: 4000,
            objects: 100,
            queries: 2,
            ..ExpConfig::quick()
        };
        let t = run(&cfg);
        assert_eq!(t.rows.len(), 4);
    }
}
