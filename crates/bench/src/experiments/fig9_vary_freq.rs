//! Fig 9: running time vs the update frequency f — the lazy-update
//! headline.
//!
//! Paper shape: G-Grid barely moves with f (updates are O(1) cache
//! appends, and cleaning only ever touches queried cells), while the eager
//! baselines degrade rapidly because every message costs index maintenance.

use crate::csvout::ResultTable;
use crate::datasets::{build_dataset, DatasetSpec};
use crate::experiments::ExpConfig;
use crate::runner::{serial_row, BenchWorld, IndexKind};

const FREQS: [f64; 6] = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0];

pub fn run(cfg: &ExpConfig) -> ResultTable {
    let ds = roadnet::gen::Dataset::NY;
    let world = BenchWorld::new(build_dataset(&DatasetSpec::new(ds, cfg.scale)));
    let mut t = ResultTable::new(
        &format!("Fig 9: query time vs update frequency f ({})", ds.name()),
        &["f (1/s)", "G-Grid", "V-Tree", "V-Tree (G)", "ROAD"],
    );
    let freqs: &[f64] = if cfg.quick { &[0.5, 1.0, 4.0] } else { &FREQS };
    for &f in freqs {
        let mut sub = cfg.clone();
        sub.f_per_sec = f;
        let mut scenario = sub.scenario();
        scenario.moto.num_objects = cfg.objects;
        t.row(serial_row(
            &world,
            &sub.index_params(),
            &scenario,
            &IndexKind::ALL,
            format!("{f}"),
        ));
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_frequencies() {
        let cfg = ExpConfig {
            scale: 4000,
            objects: 150,
            queries: 2,
            ..ExpConfig::quick()
        };
        let t = run(&cfg);
        assert_eq!(t.rows.len(), 3);
    }
}
