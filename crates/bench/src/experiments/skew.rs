//! Extension study (beyond the paper): object skew.
//!
//! The paper evaluates uniformly distributed fleets. Real fleets cluster —
//! rush-hour downtowns, airport queues — and skew is where a lazy index
//! should shine brightest: queries inside a hotspot touch few, dense cells
//! (one cleaning pass covers many objects), while queries elsewhere touch
//! almost-empty lists. This experiment compares uniform vs hotspot
//! placements for G-Grid and V-Tree.

use workload::moto::Placement;

use crate::csvout::ResultTable;
use crate::datasets::{build_dataset, DatasetSpec};
use crate::experiments::ExpConfig;
use crate::runner::{serial_row, BenchWorld, IndexKind};

pub fn run(cfg: &ExpConfig) -> ResultTable {
    let ds = roadnet::gen::Dataset::NY;
    let world = BenchWorld::new(build_dataset(&DatasetSpec::new(ds, cfg.scale)));
    let mut t = ResultTable::new(
        &format!("Extension: object skew ({}, k=16)", ds.name()),
        &["Placement", "G-Grid", "V-Tree"],
    );
    let placements = [
        ("uniform", Placement::Uniform),
        (
            "hotspot (4 centers, 3 hops)",
            Placement::Hotspot {
                centers: 4,
                radius_hops: 3,
            },
        ),
        (
            "hotspot (1 center, 2 hops)",
            Placement::Hotspot {
                centers: 1,
                radius_hops: 2,
            },
        ),
    ];
    for (label, placement) in placements {
        let mut scenario = cfg.scenario();
        scenario.moto.placement = placement;
        let kinds = [IndexKind::GGrid, IndexKind::VTree];
        let params = cfg.index_params();
        t.row(serial_row(&world, &params, &scenario, &kinds, label.into()));
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skew_table_runs() {
        let cfg = ExpConfig {
            scale: 4000,
            objects: 100,
            queries: 2,
            ..ExpConfig::quick()
        };
        let t = run(&cfg);
        assert_eq!(t.rows.len(), 3);
    }
}
