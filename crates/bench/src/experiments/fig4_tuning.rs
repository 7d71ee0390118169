//! Fig 4: tuning the system parameters δᵇ, 2^η, and ρ.
//!
//! * (a) bucket capacity δᵇ from 4 to 256 — U-shaped running time: small
//!   buckets mean many threads and a large intermediate table, huge buckets
//!   under-occupy the device;
//! * (b) bundle width 2^η — widths beyond the 32-lane warp must stage
//!   shuffles through shared memory and lose;
//! * (c) ρ — the GPU/CPU workload balance knob.

use ggrid::GGridConfig;

use crate::csvout::{fmt_ns, ResultTable};
use crate::datasets::{build_dataset, DatasetSpec};
use crate::experiments::ExpConfig;
use crate::runner::{run_one_in, BenchWorld, IndexKind};

const DELTA_B: [usize; 7] = [4, 8, 16, 32, 64, 128, 256];
const ETA: [u32; 5] = [3, 4, 5, 6, 7]; // bundle widths 8..128
const RHO: [f64; 6] = [1.4, 1.6, 1.8, 2.0, 2.4, 3.0];

/// One sweep: a row per value, a column per dataset, each cell the
/// serial per-query time of G-Grid with `set(config, value)` applied.
fn sweep<T: Copy>(
    cfg: &ExpConfig,
    title: &str,
    param: &str,
    values: &[T],
    label: impl Fn(T) -> String,
    set: impl Fn(&mut GGridConfig, T),
) -> ResultTable {
    use roadnet::gen::Dataset;
    let datasets = if cfg.quick {
        vec![Dataset::NY]
    } else {
        vec![Dataset::NY, Dataset::FLA, Dataset::USA]
    };
    let worlds: Vec<BenchWorld> = datasets
        .iter()
        .map(|&ds| BenchWorld::new(build_dataset(&DatasetSpec::new(ds, cfg.scale))))
        .collect();
    let mut headers = vec![param];
    headers.extend(datasets.iter().map(|d| d.name()));
    let mut t = ResultTable::new(title, &headers);
    for &v in values {
        let mut row = vec![label(v)];
        let mut params = cfg.index_params();
        set(&mut params.ggrid, v);
        for world in &worlds {
            let outcome = run_one_in(world, IndexKind::GGrid, &params, &cfg.scenario());
            let ns = outcome.serial_ns_per_query().expect("G-Grid always builds");
            row.push(fmt_ns(ns));
        }
        t.row(row);
    }
    t
}

/// Fig 4a: vary δᵇ on NY, FLA, USA.
pub fn run_a(cfg: &ExpConfig) -> ResultTable {
    let title = "Fig 4a: query time vs bucket capacity δ^b";
    let set = |c: &mut GGridConfig, db| c.bucket_capacity = db;
    sweep(cfg, title, "delta_b", &DELTA_B, |db| db.to_string(), set)
}

/// Fig 4b: vary the bundle width 2^η.
pub fn run_b(cfg: &ExpConfig) -> ResultTable {
    let title = "Fig 4b: query time vs bundle width 2^eta (warp = 32)";
    let label = |eta: u32| (1u32 << eta).to_string();
    sweep(cfg, title, "bundle(2^eta)", &ETA, label, |c, eta| {
        c.eta = eta
    })
}

/// Fig 4c: vary ρ.
pub fn run_c(cfg: &ExpConfig) -> ResultTable {
    let title = "Fig 4c: query time vs rho (GPU/CPU balance)";
    let label = |rho: f64| format!("{rho:.1}");
    sweep(cfg, title, "rho", &RHO, label, |c, rho| c.rho = rho)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpConfig {
        ExpConfig {
            scale: 4000,
            objects: 100,
            queries: 2,
            ..ExpConfig::quick()
        }
    }

    #[test]
    fn fig4a_rows() {
        let t = run_a(&tiny());
        assert_eq!(t.rows.len(), DELTA_B.len());
    }

    #[test]
    fn fig4b_rows() {
        let t = run_b(&tiny());
        assert_eq!(t.rows.len(), ETA.len());
    }

    #[test]
    fn fig4c_rows() {
        let t = run_c(&tiny());
        assert_eq!(t.rows.len(), RHO.len());
    }
}
