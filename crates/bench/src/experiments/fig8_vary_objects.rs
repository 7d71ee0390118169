//! Fig 8: running time vs the number of objects |𝒪|.
//!
//! Paper shape: all four indexes slow down as the fleet grows, but G-Grid
//! grows by less than 10× across the sweep while the eager baselines grow
//! by around 100× — the lazy strategy only ever pays for the objects near
//! queries.

use crate::csvout::ResultTable;
use crate::datasets::{build_dataset, DatasetSpec};
use crate::experiments::ExpConfig;
use crate::runner::{serial_row, BenchWorld, IndexKind};

/// |𝒪| sweep. The paper goes to 10⁶; the default harness stops at 10⁵ to
/// keep single-core wall time sane and notes the truncation in the output.
const SIZES: [usize; 4] = [100, 1_000, 10_000, 100_000];

pub fn run(cfg: &ExpConfig) -> ResultTable {
    let ds = roadnet::gen::Dataset::NY;
    let world = BenchWorld::new(build_dataset(&DatasetSpec::new(ds, cfg.scale)));
    let mut t = ResultTable::new(
        &format!(
            "Fig 8: query time vs |O| ({}; paper sweeps to 1e6, harness to {})",
            ds.name(),
            SIZES[SIZES.len() - 1]
        ),
        &["|O|", "G-Grid", "V-Tree", "V-Tree (G)", "ROAD"],
    );
    let sizes: &[usize] = if cfg.quick { &SIZES[..3] } else { &SIZES };
    for &n in sizes {
        let mut scenario = cfg.scenario();
        scenario.moto.num_objects = n;
        // Cap queries for the biggest fleets: ROAD's O(|O|)-per-message
        // directory rebuild makes each interval expensive by design.
        if n >= 100_000 {
            scenario.num_queries = scenario.num_queries.min(3);
        }
        t.row(serial_row(
            &world,
            &cfg.index_params(),
            &scenario,
            &IndexKind::ALL,
            n.to_string(),
        ));
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_object_counts() {
        let cfg = ExpConfig {
            scale: 4000,
            queries: 2,
            ..ExpConfig::quick()
        };
        let t = run(&cfg);
        assert_eq!(t.rows.len(), 3);
        assert_eq!(t.rows[0][0], "100");
    }
}
