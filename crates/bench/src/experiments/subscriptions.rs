//! Extension study (beyond the paper): continuous kNN subscriptions kept
//! incrementally correct by guard-radius re-evaluation, against a
//! re-query-everything baseline.
//!
//! A fleet on the NY-shaped dataset, riders registered as standing queries.
//! Each tick one group commit lands (`ingest_batch`), then the server runs
//! `tick_subscriptions`: only subscriptions whose guard region intersects a
//! dirtied cell are re-validated, and most of those are repaired by the
//! bounded delta search instead of a fresh full query. The sweep varies the
//! subscriber count and the movement pattern:
//!
//! * **uniform** — the moving slice of the fleet scatters network-wide
//!   (dirt everywhere, the guard's worst case);
//! * **hot-window** — all movement crowds a drifting window of edges (the
//!   dispatch-zone pattern the guard index is built for: almost every
//!   rider's guard region stays untouched).
//!
//! The baseline replays the identical waves on a second server and issues a
//! fresh `knn` per rider per tick; both sides must return byte-identical
//! answers (the subscription path *is* the query path, incrementally
//! maintained). The report (`BENCH_6.json`) records the fraction of
//! per-tick re-evaluations the guard avoided or downgraded, and the
//! modeled speedup of the subscription path over re-querying everything.

use ggrid::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use roadnet::EdgeId;

use crate::csvout::{fmt_rate, ResultTable};
use crate::datasets::{build_dataset, DatasetSpec};
use crate::experiments::ExpConfig;
use crate::report::{ns, table, Column, Report, Val};
use crate::runner::BenchWorld;

const K: usize = 8;
/// Edges in the hot window all movement crowds into (hot-window variant).
const WINDOW: u32 = 96;

/// Result-table columns over the report rows.
const COLUMNS: &[Column] = &[
    ("Movement", "variant", Val::text),
    ("Subs", "subs", Val::text),
    ("Skipped", "skipped", Val::text),
    ("Delta", "repaired_delta", Val::text),
    ("Full", "repaired_full", Val::text),
    ("Avoided", "avoided_pct", |v| format!("{:.1}%", v.f64())),
    ("ns/tick", "subs_modeled_ns_per_tick", ns),
    ("Subs/s model", "subs_per_sec_modeled", |v| {
        fmt_rate(v.f64())
    }),
    ("Requery ns/tick", "baseline_ns_per_tick", ns),
    ("Speedup", "speedup", |v| format!("{:.2}x", v.f64())),
];

pub fn run(cfg: &ExpConfig) -> (ResultTable, Report) {
    let ds = roadnet::gen::Dataset::NY;
    let world = BenchWorld::new(build_dataset(&DatasetSpec::new(ds, cfg.scale)));
    let params = cfg.index_params();
    // Density drives the guard radius: enough objects that the distance to
    // the (k+1)-th candidate stays tight at any dataset scale.
    let objects = cfg.objects.max(world.graph.num_edges() / 2);
    let wave = (objects / 32).max(32);
    let ticks = if cfg.quick { 20 } else { 32 };
    let sub_counts = if cfg.quick { [16, 48] } else { [64, 192] };

    let mut points = Vec::new();
    for &variant in &["uniform", "hot-window"] {
        for &n_subs in &sub_counts {
            points.push(run_point(
                &world,
                &params.ggrid,
                cfg,
                variant,
                objects,
                wave,
                n_subs,
                ticks,
            ));
        }
    }

    let title = format!(
        "Extension: continuous subscriptions ({}, {} objects, wave {}, {} ticks, k={K})",
        ds.name(),
        objects,
        wave,
        ticks
    );
    // Headline figures from the hot-window rows — the localized-churn
    // deployment the guard index targets (the uniform rows are reported
    // alongside as the adversarial case).
    let (mut skipped, mut delta, mut full) = (0u64, 0u64, 0u64);
    let (mut subs_ns, mut base_ns) = (0u64, 0u64);
    for (row, point_subs_ns, point_base_ns) in &points {
        if row.get("variant").text() == "hot-window" {
            skipped += row.get("skipped").u64();
            delta += row.get("repaired_delta").u64();
            full += row.get("repaired_full").u64();
            subs_ns += point_subs_ns;
            base_ns += point_base_ns;
        }
    }
    let avoided_pct = 100.0 * (skipped + delta) as f64 / (skipped + delta + full).max(1) as f64;
    let speedup = base_ns as f64 / subs_ns.max(1) as f64;

    let rows: Vec<Val> = points.into_iter().map(|p| p.0).collect();
    let t = table(&title, COLUMNS, &rows);
    let fields = vec![
        ("dataset", "NY".into()),
        ("scale", cfg.scale.into()),
        ("objects", objects.into()),
        ("wave", wave.into()),
        ("ticks", ticks.into()),
        ("k", K.into()),
        ("rows", Val::Rows(rows)),
        ("avoided_pct", Val::Num(avoided_pct, 2)),
        ("speedup_vs_requery", Val::Num(speedup, 2)),
    ];
    (t, Report::new("BENCH_6", "subscriptions", fields))
}

/// One sweep point: a subscription server and a re-query baseline replay
/// the identical seed + waves; answers are asserted byte-identical every
/// tick for every rider. Returns the report row, the subscription path's
/// modeled ns and the baseline's (re-query-everything) modeled ns.
#[allow(clippy::too_many_arguments)]
fn run_point(
    world: &BenchWorld,
    base_config: &GGridConfig,
    cfg: &ExpConfig,
    variant: &'static str,
    objects: usize,
    wave: usize,
    n_subs: usize,
    ticks: usize,
) -> (Val, u64, u64) {
    let config = GGridConfig {
        // Expiry churn is exercised by the core tests; the sweep isolates
        // movement-driven invalidation, so reports never go stale.
        t_delta_ms: 1 << 40,
        ..base_config.clone()
    };
    let mut server = world.server(config.clone());
    let mut baseline = world.server(config);

    let ne = world.graph.num_edges() as u32;
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x5B5);
    let mut t = 100u64;

    // Seed fleet spread over the whole network: dense coverage keeps every
    // rider's guard radius (distance to the (k+1)-th candidate) tight.
    let seed_wave: Vec<(ObjectId, EdgePosition, Timestamp)> = (0..objects as u64)
        .map(|o| {
            let e = EdgeId(((o as u32).wrapping_mul(2_654_435_761)) % ne);
            (ObjectId(o), EdgePosition::at_source(e), Timestamp(t))
        })
        .collect();
    server.ingest_batch(&seed_wave);
    baseline.ingest_batch(&seed_wave);

    // Riders at evenly spaced positions.
    let riders: Vec<EdgePosition> = (0..n_subs as u32)
        .map(|i| EdgePosition::at_source(EdgeId((i * (ne / n_subs as u32).max(1)) % ne)))
        .collect();
    let subs: Vec<SubscriptionId> = riders
        .iter()
        .map(|&q| server.subscribe_knn(q, K, Timestamp(t)))
        .collect();

    let mut baseline_ns = 0u64;
    for round in 0..ticks {
        t += 1_000;
        // hot-window: a dedicated pool of `wave` objects (ids 0..wave)
        // shuttles inside a slowly drifting window of edges — after the
        // first tick even their tombstones land in the window, so the dirt
        // stays local. uniform: the wave rotates through the whole fleet
        // and scatters network-wide, so churn moves in and out of every
        // guard region (the adversarial case).
        let first = (round * wave) as u64 % objects as u64;
        let base = (round as u32 * (WINDOW / 8)) % ne.saturating_sub(WINDOW).max(1);
        let updates: Vec<(ObjectId, EdgePosition, Timestamp)> = (0..wave as u64)
            .map(|j| {
                let (o, e) = if variant == "hot-window" {
                    (j, EdgeId(base + rng.gen_range(0..WINDOW.min(ne))))
                } else {
                    ((first + j) % objects as u64, EdgeId(rng.gen_range(0..ne)))
                };
                (ObjectId(o), EdgePosition::at_source(e), Timestamp(t))
            })
            .collect();
        server.ingest_batch(&updates);
        baseline.ingest_batch(&updates);

        server.tick_subscriptions(Timestamp(t));

        let b0 = baseline.counters();
        for (&id, &q) in subs.iter().zip(&riders) {
            let fresh = baseline.knn(q, K, Timestamp(t));
            assert_eq!(
                server.subscription_result(id).unwrap(),
                &fresh[..],
                "maintained answer diverged from a fresh query ({variant}, tick {round})"
            );
        }
        let b1 = baseline.counters();
        baseline_ns += (b1.query_cpu_ns - b0.query_cpu_ns) + (b1.gpu_time.0 - b0.gpu_time.0);
    }

    let c = server.counters();
    let row = Val::Obj(vec![
        ("variant", variant.into()),
        ("subs", n_subs.into()),
        ("ticks", ticks.into()),
        ("wave", wave.into()),
        ("invalidated", c.subs_invalidated.into()),
        ("repaired_delta", c.subs_repaired_delta.into()),
        ("repaired_full", c.subs_repaired_full.into()),
        ("skipped", c.subs_skipped.into()),
        ("avoided_pct", Val::Num(100.0 * c.subs_avoided_rate(), 2)),
        (
            "subs_modeled_ns_per_tick",
            c.subs_modeled_ns_per_tick().into(),
        ),
        (
            "subs_per_sec_modeled",
            Val::Num(c.subs_per_sec_modeled(), 1),
        ),
        (
            "baseline_ns_per_tick",
            (baseline_ns / ticks.max(1) as u64).into(),
        ),
        (
            "speedup",
            Val::Num(baseline_ns as f64 / c.subs_modeled_ns().max(1) as f64, 2),
        ),
        (
            "guard_radius_hist",
            Val::List(c.guard_radius_hist.iter().map(|&v| v.into()).collect()),
        ),
    ]);
    (row, c.subs_modeled_ns(), baseline_ns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::check_floors;

    #[test]
    fn guard_radius_avoids_requery_work() {
        let cfg = ExpConfig {
            scale: 50,
            objects: 1000,
            queries: 6,
            ..ExpConfig::quick()
        };
        let (t, report) = run(&cfg);
        assert_eq!(t.rows.len(), 4);
        check_floors(&report);
    }
}
