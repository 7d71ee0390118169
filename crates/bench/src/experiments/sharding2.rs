//! Extension study: cooperative multi-device execution (cross-shard SDist
//! plus read-hot cell replication) on top of the routed sharding of the
//! `sharding` experiment.
//!
//! Three feature arms replay identical scripted streams at each
//! `D ∈ {1, 2, 4, 8}` (the busy-time rebalancer runs once per epoch in
//! every arm, so migration is always available):
//!
//! * **baseline** — routed cleaning only: every query's SDist runs whole
//!   on its primary shard (the previous sharded-serving behaviour);
//! * **coop** — `cross_shard_sdist`: a query ring spanning several shards
//!   scatters its relaxation across the owning devices and the round
//!   costs the *max* over owners instead of their sum;
//! * **coop_repl** — additionally `replicate_threshold`: read-hot remote
//!   cells are promoted onto reader devices, folding their relax work
//!   back into the reader's primary and spreading hot-cell load over the
//!   readers instead of funnelling it to the one owner.
//!
//! Three movement patterns pick the regimes apart:
//!
//! * **uniform** — updates and queries network-wide (control);
//! * **widering** — a sparse, slowly-moving fleet and a pinned query
//!   window: every query expands a wide candidate ring from the same
//!   primary shard, the showcase for cooperative SDist (baseline funnels
//!   all relaxation to that one device);
//! * **readhot** — the whole fleet lives in a fixed hot window of cells
//!   and barely moves (a small trickle of in-window updates keeps the
//!   dirtied-cell stream honest) while queries arrive network-wide: with
//!   cooperative SDist alone every query ships a scattered leg to the hot
//!   cells' one owner, and replication is what folds that work back onto
//!   the reader devices.
//!
//! Every run replays the same stream in a cold-topology regime: device
//! topology caches are flushed once per epoch (the churn regime of the
//! capacity study), so per-ring staging recurs and is paid by whichever
//! device runs the relaxation over the staged cells.
//!
//! Every run's per-epoch fused-batch answers are asserted byte-identical
//! to the `D = 1` reference — the cooperative paths move modeled cost,
//! never answers. Headlines of the report (`BENCH_10.json`):
//!
//! * `cross_shard_critical_cut` — fraction of the widering critical path
//!   `T(4)` that the coop arm cuts off the baseline arm;
//! * `replication_skew_recovery` — fraction of the readhot skew penalty
//!   (the busiest device's serving busy beyond the perfect-balance share
//!   `total/D`, at D = 4 under migration-only coop) that the replication
//!   arm wins back.

use std::sync::Arc;

use ggrid::grid::GraphGrid;
use ggrid::prelude::*;
use workload::CellWindowSampler;

use crate::csvout::ResultTable;
use crate::datasets::{build_dataset, DatasetSpec};
use crate::experiments::multidevice::{
    edge_window, replay, sweep, EpochAnswers, QueryBatch, Script, Wave,
};
use crate::experiments::ExpConfig;
use crate::report::{find, ns, share, table, Column, Report, Val};
use crate::runner::{server_on, BenchWorld};

const K: usize = 16;

/// (name, cross_shard_sdist, replication); the gates only act when there
/// are shards, so D = 1 runs the baseline alone.
const ARMS: [(&str, bool, bool); 3] = [
    ("baseline", false, false),
    ("coop", true, false),
    ("coop_repl", true, true),
];

/// Result-table columns over the report rows.
const COLUMNS: &[Column] = &[
    ("Movement", "variant", Val::text),
    ("Arm", "arm", Val::text),
    ("D", "devices", Val::text),
    ("T(D)", "critical_ns", ns),
    ("Max share", "max_busy_share", share),
    ("Skew", "skew_ns", ns),
    ("Coop rounds", "cross_shard_rounds", Val::text),
    ("Replica hits", "replica_hits", Val::text),
    ("Invalidations", "replica_invalidations", Val::text),
    ("Migrated", "cells_migrated", Val::text),
];

pub fn run(cfg: &ExpConfig) -> (ResultTable, Report) {
    let ds = roadnet::gen::Dataset::NY;
    let world = BenchWorld::new(build_dataset(&DatasetSpec::new(ds, cfg.scale)));
    let base = cfg.index_params().ggrid;
    let grid = world.grid(base.cell_capacity, base.vertex_capacity);

    let objects = cfg.objects.max(512);
    let epochs = if cfg.quick { 4 } else { 8 };
    let queries = cfg.queries.max(8);

    let script = |variant: &str| {
        // readhot is the read-amplification regime: double the reader batch
        // so the per-read folding replication buys dominates the fixed
        // once-per-epoch promotion/invalidation churn it pays for.
        let q = queries * if variant == "readhot" { 2 } else { 1 };
        build_script(&grid, cfg, variant, objects, epochs, q)
    };
    let variants = ["uniform", "widering", "readhot"];
    let rows = sweep(
        &variants,
        &ARMS,
        script,
        |variant, d, (arm, cross, repl), script| {
            run_stream(&grid, &base, variant, arm, d, cross, repl, script)
        },
    );

    let title = format!(
        "Extension: cooperative multi-device execution ({}, {} objects, {} epochs, {} queries/epoch, k={K})",
        ds.name(),
        objects,
        epochs,
        queries
    );
    let t = table(&title, COLUMNS, &rows);
    let at = |filter: &str, key: &str| find(&rows, filter).get(key).f64();

    // Headlines at D = 4.
    let wide_base = at("variant=widering,arm=baseline,devices=4", "critical_ns");
    let wide_coop = at("variant=widering,arm=coop,devices=4", "critical_ns");
    let cross_shard_critical_cut = if wide_base > 0.0 {
        1.0 - wide_coop / wide_base
    } else {
        0.0
    };

    // The read-hotspot skew penalty of an arm is the serving busy-time
    // its busiest device carries beyond the perfect-balance share — under
    // migration-only cooperative SDist the hot cells' one owner serves
    // every query's gather and scattered leg, so that excess is exactly
    // what read-hot replication exists to win back.
    let p_coop = at("variant=readhot,arm=coop,devices=4", "skew_ns");
    let p_repl = at("variant=readhot,arm=coop_repl,devices=4", "skew_ns");
    let replication_skew_recovery = if p_coop > 0.0 {
        (p_coop - p_repl) / p_coop
    } else {
        0.0
    };

    let fields = vec![
        ("dataset", "NY".into()),
        ("scale", cfg.scale.into()),
        ("objects", objects.into()),
        ("epochs", epochs.into()),
        ("queries_per_epoch", queries.into()),
        ("k", K.into()),
        ("rows", Val::Rows(rows)),
        (
            "cross_shard_critical_cut",
            Val::Num(cross_shard_critical_cut, 4),
        ),
        (
            "replication_skew_recovery",
            Val::Num(replication_skew_recovery, 4),
        ),
    ];
    (t, Report::new("BENCH_10", "sharding2", fields))
}

/// Deterministic per-epoch waves and query batches for one variant.
fn build_script(
    grid: &Arc<GraphGrid>,
    cfg: &ExpConfig,
    variant: &str,
    objects: usize,
    epochs: usize,
    queries: usize,
) -> Script {
    let num_cells = grid.num_cells() as u32;
    let mut uniform = CellWindowSampler::whole_grid(grid, cfg.seed ^ 0x51A);

    // readhot: a deliberately narrow hot window in the *interior* of one
    // shard at every swept D (9/16 of the z space avoids the D ∈ {2,4,8}
    // boundaries) — the whole fleet packs into a few dense cells with one
    // unambiguous owner. widering: queries come from a window pressed
    // against the z = 1/2 boundary from below, so every query has a single
    // primary but its candidate ring immediately spills across the
    // boundary into the neighbouring shards (z-order locality would keep a
    // mid-shard window's rings home-owned).
    let hot = edge_window(grid, num_cells / 16 * 9, (num_cells / 256).max(1));
    let pinned_w = (num_cells / 32).max(1);
    let pinned = edge_window(grid, num_cells / 2 - pinned_w.min(num_cells / 2), pinned_w);
    let mut hot_sampler = CellWindowSampler::new(grid, hot, cfg.seed ^ 0x7D7);
    let mut pinned_sampler = CellWindowSampler::new(grid, pinned, cfg.seed ^ 0x3B3);

    // readhot queries are stratified over eight equal z-slices (aligned
    // with the shard boundaries of every swept D), so the reader load is
    // spread evenly over primaries and the only busy-time imbalance left
    // is the one the hot cells' owner carries — the signal the skew
    // headline isolates.
    let slice = (num_cells / 8).max(1);
    let mut strata: Vec<CellWindowSampler> = (0..8u32)
        .map(|i| {
            let lo = (i * slice).min(num_cells.saturating_sub(1));
            CellWindowSampler::new(
                grid,
                edge_window(grid, lo, slice),
                cfg.seed ^ (0xA11 + u64::from(i)),
            )
        })
        .collect();

    // widering thins the fleet so candidate rings must expand wide, and
    // only a sliver of it moves each epoch (wide rings over a mostly
    // clean index — the regime the cooperative scatter targets). readhot
    // keeps the fleet write-cold: a small trickle of in-window moves per
    // epoch dirties a hot cell or two so replica invalidation stays on
    // the critical path without churning every replica every epoch.
    let fleet = if variant == "widering" {
        (objects / 32).max(24)
    } else {
        objects
    };
    let wave = match variant {
        "widering" => (fleet / 8).max(4),
        "readhot" => (fleet / 256).max(4),
        _ => (fleet / 8).max(64),
    };
    let seed_wave: Wave = (0..fleet as u64)
        .map(|o| {
            let p = if variant == "readhot" {
                hot_sampler.position()
            } else {
                uniform.position()
            };
            (ObjectId(o), p, Timestamp(100))
        })
        .collect();

    let epochs = (0..epochs)
        .map(|e| {
            let t = Timestamp(1_000 * (e as u64 + 1));
            let wave_updates: Wave = (0..wave.min(fleet) as u64)
                .map(|j| {
                    let o = (e as u64 * wave as u64 + j) % fleet as u64;
                    let p = if variant == "readhot" {
                        hot_sampler.position()
                    } else {
                        uniform.position()
                    };
                    (ObjectId(o), p, t)
                })
                .collect();
            let query_batch: QueryBatch = (0..queries)
                .map(|j| {
                    let p = match variant {
                        "widering" => pinned_sampler.position(),
                        "readhot" => strata[j % 8].position(),
                        _ => uniform.position(),
                    };
                    (p, K)
                })
                .collect();
            (wave_updates, query_batch)
        })
        .collect();

    Script { seed_wave, epochs }
}

#[allow(clippy::too_many_arguments)]
fn run_stream(
    grid: &Arc<GraphGrid>,
    base: &GGridConfig,
    variant: &'static str,
    arm: &'static str,
    devices: usize,
    cross_shard: bool,
    replication: bool,
    script: &Script,
) -> (Val, EpochAnswers) {
    let config = GGridConfig {
        num_devices: devices,
        cross_shard_sdist: cross_shard,
        // The default threshold: a handful of reads per epoch (heat halves
        // at every rebalance) marks a cell read-hot. Ring expansion heats
        // every swept cell, but promotion only fires for non-empty
        // consolidated lists and the migration skip only honours cells
        // with live replicas, so the low threshold stays surgical.
        replicate_threshold: if replication { 4 } else { 0 },
        ..base.clone()
    };
    let mut server = server_on(grid, config);
    server.ingest_batch(&script.seed_wave);
    server.clean_all(Timestamp(500));
    let run = replay(&mut server, devices, script, true, true);

    // Busy time over the serving epochs only: the seed ingest/clean is
    // identical in every arm.
    let c = server.counters();
    let total: u64 = run.served_ns.iter().sum();
    let max = run.served_ns.iter().max().copied().unwrap_or(0);
    let row = Val::Obj(vec![
        ("variant", variant.into()),
        ("arm", arm.into()),
        ("devices", devices.into()),
        ("critical_ns", run.critical_ns.into()),
        ("total_busy_ns", total.into()),
        (
            "max_busy_share",
            Val::Num(max as f64 / total.max(1) as f64, 4),
        ),
        // Imbalance: the busiest device's serving busy beyond the
        // perfect-balance share — the busy time a hotspot adds to the
        // critical path beyond what the workload costs under even spread.
        (
            "skew_ns",
            max.saturating_sub(total / devices.max(1) as u64).into(),
        ),
        ("cross_shard_rounds", c.cross_shard_rounds.into()),
        ("replica_hits", c.replica_hits.into()),
        ("replica_invalidations", c.replica_invalidations.into()),
        ("replicas_active", c.replicas_active.into()),
        ("cells_migrated", c.cells_migrated.into()),
    ]);
    (row, run.answers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::check_floors;

    #[test]
    fn cooperative_floors_hold() {
        // Scale 12 (≈22k vertices, 16k cells) is the smallest NY cut where
        // per-query relaxation dominates the fixed launch/PCIe overheads
        // enough for the cooperative headline effects to be measurable.
        let cfg = ExpConfig {
            scale: 12,
            objects: 1000,
            queries: 8,
            ..ExpConfig::quick()
        };
        let (t, report) = run(&cfg);
        // 3 variants × (D=1 baseline once + three D>1 points × three arms).
        assert_eq!(t.rows.len(), 30);
        check_floors(&report);
    }
}
