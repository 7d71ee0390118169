//! Fig 7: running time vs k (USA and NY in the paper).
//!
//! Expected shapes: G-Grid wins throughout; G-Grid and V-Tree grow with k;
//! ROAD stays nearly flat (updates dominate it); V-Tree (G) overtakes
//! V-Tree at large k thanks to parallel distance evaluation.

use crate::csvout::ResultTable;
use crate::datasets::{build_dataset, DatasetSpec};
use crate::experiments::ExpConfig;
use crate::runner::{serial_row, BenchWorld, IndexKind};

const KS: [usize; 6] = [8, 16, 32, 64, 128, 256];

pub fn run(cfg: &ExpConfig) -> Vec<ResultTable> {
    let datasets = if cfg.quick {
        vec![roadnet::gen::Dataset::NY]
    } else {
        vec![roadnet::gen::Dataset::USA, roadnet::gen::Dataset::NY]
    };
    datasets
        .into_iter()
        .map(|ds| {
            let world = BenchWorld::new(build_dataset(&DatasetSpec::new(ds, cfg.scale)));
            let mut t = ResultTable::new(
                &format!("Fig 7: query time vs k ({})", ds.name()),
                &["k", "G-Grid", "V-Tree", "V-Tree (G)", "ROAD"],
            );
            for &k in &KS {
                let mut scenario = cfg.scenario();
                scenario.k = k;
                t.row(serial_row(
                    &world,
                    &cfg.index_params(),
                    &scenario,
                    &IndexKind::ALL,
                    k.to_string(),
                ));
            }
            t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_per_dataset_and_row_per_k() {
        let cfg = ExpConfig {
            scale: 4000,
            objects: 300,
            queries: 2,
            ..ExpConfig::quick()
        };
        let ts = run(&cfg);
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].rows.len(), KS.len());
    }
}
