//! Ablations of G-Grid's design choices (DESIGN.md §5).
//!
//! * **lazy vs eager** — the headline: the same index with cleaning forced
//!   after every message (the eager strategy of the baselines) vs the lazy
//!   query-time cleaning.
//! * **pipelined vs synchronous transfer** — up to 4 planned upload groups
//!   per cleaning round (the default `transfer_chunks` cap) vs a cap of `1`.
//! * **X-shuffle width** — warp-wide bundles (2^η = 32) vs degenerate
//!   2-lane bundles, isolating the butterfly dedup's benefit.

use ggrid::api::{IndexSize, MovingObjectIndex, SimCosts};
use ggrid::message::{ObjectId, Timestamp};
use ggrid::{GGridConfig, GGridServer};
use roadnet::graph::{Distance, Graph};
use roadnet::EdgePosition;
use workload::scenario::run_scenario;

use crate::csvout::{fmt_ns, ResultTable};
use crate::datasets::{build_dataset, DatasetSpec};
use crate::experiments::ExpConfig;

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

pub fn run(cfg: &ExpConfig) -> ResultTable {
    let ds = roadnet::gen::Dataset::NY;
    let graph = build_dataset(&DatasetSpec::new(ds, cfg.scale));
    let t_delta_ms = cfg.index_params().t_delta_ms;
    let base = GGridConfig {
        t_delta_ms,
        ..GGridConfig::default()
    };
    let server = |config| Box::new(GGridServer::new((*graph).clone(), config));
    let variants: [(&str, Box<dyn MovingObjectIndex>); 4] = [
        ("lazy (paper)", server(base.clone())),
        (
            "eager (clean per message)",
            Box::new(EagerGGrid::new((*graph).clone(), base.clone())),
        ),
        (
            "synchronous transfer (chunks=1)",
            server(GGridConfig {
                transfer_chunks: 1,
                ..base.clone()
            }),
        ),
        (
            "2-lane bundles (eta=1)",
            server(GGridConfig { eta: 1, ..base }),
        ),
    ];
    let mut t = ResultTable::new(
        &format!("Ablations ({}, k=16)", ds.name()),
        &["Variant", "time/query"],
    );
    for (label, mut index) in variants {
        let report = run_scenario(&graph, index.as_mut(), &cfg.scenario(), t_delta_ms, false);
        t.row(vec![label.into(), fmt_ns(report.amortized_ns_per_query())]);
    }
    t
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

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
