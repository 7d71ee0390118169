//! Extension study (beyond the paper): multi-device sharded serving.
//!
//! The same NY-shaped stream — group-commit ingest waves followed by a
//! fused `knn_batch` per epoch — replayed against `D ∈ {1, 2, 4, 8}`
//! simulated devices, each owning a contiguous z-order range of grid
//! cells. Two movement patterns:
//!
//! * **uniform** — updates and queries scatter network-wide, the
//!   best case for a static weighted partition (scale-out efficiency);
//! * **hotspot** — updates and queries crowd a fixed window of cells
//!   sitting right at a shard boundary, the worst case for a static
//!   partition: one shard soaks up nearly every cleaning round and SDist
//!   launch while its peers idle.
//!
//! Each `(variant, D)` point runs twice, with and without the busy-time
//! rebalancer ([`GGridServer::rebalance_shards`] once per epoch), and
//! every run's batch answers are asserted byte-identical to the `D = 1`
//! reference — sharding may move work, never answers.
//!
//! The modeled serving time `T(D)` is the sum over epochs of the busiest
//! shard's busy-time delta (kernel + transfer: the critical path of a
//! fully concurrent epoch). Headlines of the report (`BENCH_7.json`):
//!
//! * `efficiency_d4_uniform` — `T(1) / (4 · T(4))` on uniform load;
//! * `rebalance_recovery_hotspot` — the fraction of the hotspot skew
//!   penalty `T(D) − T(1)/D` at `D = 4` that rebalancing wins back;
//! * `merge_overhead_pct` — extra total busy-time sharding costs at
//!   `D = 4` uniform (duplicated staging, per-shard cleaning rounds)
//!   relative to the single-device run.

use std::sync::Arc;

use ggrid::grid::GraphGrid;
use ggrid::prelude::*;
use workload::CellWindowSampler;

use crate::csvout::ResultTable;
use crate::datasets::{build_dataset, DatasetSpec};
use crate::experiments::multidevice::{edge_window, replay, sweep, EpochAnswers, Script, Wave};
use crate::experiments::ExpConfig;
use crate::report::{find, ns, share, table, Column, Report, Val};
use crate::runner::{server_on, BenchWorld};

const K: usize = 8;

/// Result-table columns over the report rows.
const COLUMNS: &[Column] = &[
    ("Movement", "variant", Val::text),
    ("D", "devices", Val::text),
    ("Rebalance", "rebalance", |v| on_off(v.text() == "true")),
    ("T(D)", "critical_ns", ns),
    ("Efficiency", "efficiency", share),
    ("Max share", "max_busy_share", share),
    ("Rebalances", "rebalances", Val::text),
    ("Migrated", "cells_migrated", Val::text),
];

fn on_off(on: bool) -> String {
    if on { "on" } else { "off" }.to_string()
}

pub fn run(cfg: &ExpConfig) -> (ResultTable, Report) {
    let ds = roadnet::gen::Dataset::NY;
    let world = BenchWorld::new(build_dataset(&DatasetSpec::new(ds, cfg.scale)));
    let base = cfg.index_params().ggrid;
    let grid = world.grid(base.cell_capacity, base.vertex_capacity);

    let objects = cfg.objects.max(512);
    let wave = (objects / 8).max(64);
    let epochs = if cfg.quick { 6 } else { 10 };
    // Enough queries per epoch that uniform primaries spread statistically
    // evenly over 8 shards; cfg.queries stays the floor for tiny runs.
    let queries = cfg.queries.max(24);

    // T(1) of the variant, from its D = 1 run that comes first.
    let mut t1 = 0;
    let script = |variant: &str| build_script(&grid, cfg, variant, objects, wave, epochs, queries);
    let rows = sweep(
        &["uniform", "hotspot"],
        &[false, true],
        script,
        |variant, d, rebalance, script| {
            let (row, answers) = run_stream(
                &grid,
                &base,
                variant,
                d,
                rebalance,
                (d > 1).then_some(t1),
                script,
            );
            if d == 1 {
                t1 = row.get("critical_ns").u64();
            }
            (row, answers)
        },
    );

    let title = format!(
        "Extension: multi-device sharding ({}, {} objects, wave {}, {} epochs, {} queries/epoch, k={K})",
        ds.name(),
        objects,
        wave,
        epochs,
        queries
    );
    let t = table(&title, COLUMNS, &rows);
    let at = |filter: &str, key: &str| find(&rows, filter).get(key).f64();

    // Headlines at D = 4 (the mid-sweep point both floors are set on).
    let efficiency_d4_uniform = at("variant=uniform,devices=4,rebalance=false", "efficiency");
    let h1 = at("variant=hotspot,devices=1", "critical_ns");
    let p_static = at("variant=hotspot,devices=4,rebalance=false", "critical_ns") - h1 / 4.0;
    let p_rebal = at("variant=hotspot,devices=4,rebalance=true", "critical_ns") - h1 / 4.0;
    let rebalance_recovery_hotspot = if p_static > 0.0 {
        (p_static - p_rebal) / p_static
    } else {
        0.0
    };
    let u4_busy = at("variant=uniform,devices=4,rebalance=false", "total_busy_ns");
    let u1_busy = at("variant=uniform,devices=1", "total_busy_ns");
    let merge_overhead_pct = 100.0 * (u4_busy / u1_busy.max(1.0) - 1.0);

    let fields = vec![
        ("dataset", "NY".into()),
        ("scale", cfg.scale.into()),
        ("objects", objects.into()),
        ("wave", wave.into()),
        ("epochs", epochs.into()),
        ("queries_per_epoch", queries.into()),
        ("k", K.into()),
        ("rows", Val::Rows(rows)),
        ("efficiency_d4_uniform", Val::Num(efficiency_d4_uniform, 4)),
        (
            "rebalance_recovery_hotspot",
            Val::Num(rebalance_recovery_hotspot, 4),
        ),
        ("merge_overhead_pct", Val::Num(merge_overhead_pct, 2)),
    ];
    (t, Report::new("BENCH_7", "sharding", fields))
}

fn efficiency(t1: u64, d: usize, td: u64) -> f64 {
    t1 as f64 / (d as f64 * td.max(1) as f64)
}

/// Build the deterministic per-epoch waves and query batches. `hotspot`
/// confines both to a window of cells starting at the middle of the
/// z-order index space — right where a shard boundary lands at every
/// even D, so a static partition funnels the whole window to one shard.
fn build_script(
    grid: &Arc<GraphGrid>,
    cfg: &ExpConfig,
    variant: &str,
    objects: usize,
    wave: usize,
    epochs: usize,
    queries: usize,
) -> Script {
    let num_cells = grid.num_cells() as u32;
    let window = if variant == "hotspot" {
        edge_window(grid, num_cells / 2, num_cells / 16)
    } else {
        0..num_cells
    };
    let mut sampler = CellWindowSampler::new(grid, window, cfg.seed ^ 0x7D7);
    let mut uniform = CellWindowSampler::whole_grid(grid, cfg.seed ^ 0x11A);

    // Seed fleet spread over the whole network in both variants, so the
    // weighted partition starts balanced and the skew comes from movement.
    let seed_wave: Wave = (0..objects as u64)
        .map(|o| (ObjectId(o), uniform.position(), Timestamp(100)))
        .collect();

    let epochs = (0..epochs)
        .map(|e| {
            let t = Timestamp(1_000 * (e as u64 + 1));
            // hotspot: a fixed pool of `wave` objects shuttles inside the
            // window (after the first epoch their tombstones land there
            // too, keeping all dirt local). uniform: the wave rotates
            // through the fleet.
            let wave_updates: Wave = (0..wave as u64)
                .map(|j| {
                    let o = if variant == "hotspot" {
                        j
                    } else {
                        (e as u64 * wave as u64 + j) % objects as u64
                    };
                    (ObjectId(o), sampler.position(), t)
                })
                .collect();
            let query_batch: Vec<(EdgePosition, usize)> =
                (0..queries).map(|_| (sampler.position(), K)).collect();
            (wave_updates, query_batch)
        })
        .collect();

    Script { seed_wave, epochs }
}

fn run_stream(
    grid: &Arc<GraphGrid>,
    base: &GGridConfig,
    variant: &'static str,
    devices: usize,
    rebalance: bool,
    t1: Option<u64>,
    script: &Script,
) -> (Val, EpochAnswers) {
    let config = GGridConfig {
        num_devices: devices,
        ..base.clone()
    };
    let mut server = server_on(grid, config);
    server.ingest_batch(&script.seed_wave);
    let run = replay(&mut server, devices, script, false, rebalance);

    // Lifetime busy (the modeled total work) and the busiest shard's share.
    let c = server.counters();
    let total: u64 = c.shard_busy_ns[..devices].iter().sum();
    let max = c.shard_busy_ns[..devices]
        .iter()
        .max()
        .copied()
        .unwrap_or(0);
    let t1 = t1.unwrap_or(run.critical_ns);
    let row = Val::Obj(vec![
        ("variant", variant.into()),
        ("devices", devices.into()),
        ("rebalance", Val::Bool(rebalance)),
        ("critical_ns", run.critical_ns.into()),
        ("total_busy_ns", total.into()),
        (
            "efficiency",
            Val::Num(efficiency(t1, devices, run.critical_ns), 4),
        ),
        (
            "max_busy_share",
            Val::Num(max as f64 / total.max(1) as f64, 4),
        ),
        ("rebalances", c.rebalances.into()),
        ("cells_migrated", c.cells_migrated.into()),
    ]);
    (row, run.answers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::check_floors;

    #[test]
    fn scale_out_floors_hold() {
        let cfg = ExpConfig {
            scale: 50,
            objects: 1000,
            queries: 6,
            ..ExpConfig::quick()
        };
        let (t, report) = run(&cfg);
        // 2 variants × (D=1 once + three D>1 points × two arms).
        assert_eq!(t.rows.len(), 14);
        check_floors(&report);
    }
}
