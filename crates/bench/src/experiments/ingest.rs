//! Extension study (beyond the paper): high-throughput update ingestion.
//!
//! A hot-window fleet workload on the NY-shaped dataset: every round the
//! whole fleet reports a new position drawn from a small window of edges,
//! so each round's updates concentrate in a handful of grid cells, then a
//! fixed query frontier is revisited (which forces cleaning and recycles
//! message buckets). The sweep isolates the ingestion path:
//!
//! * **per-call** — one `handle_update` per message: every message takes
//!   its destination cell's mutex (and the previous cell's for the
//!   tombstone) individually;
//! * **batched** — the same stream through `ingest_batch`: messages are
//!   pre-grouped by destination cell, so each touched cell's mutex is
//!   taken once per batch and its dirty epoch bumps once per batch;
//! * **batched-w2 / batched-w4** — the group commit with 2 and 4 host
//!   workers (disjoint object-id shards in phase 1, striped cell runs in
//!   phase 2).
//!
//! Answers are byte-identical across every row — batching and the worker
//! pool reorder nothing observable. Wall-clock throughput depends on the
//! host's free cores, so the headline figures are the *modeled* ingest
//! clock (DESIGN.md §5.1) and the counted lock traffic. The report
//! (`BENCH_4.json`) records the per-batch cell-lock reduction and the
//! modeled ingest-time saving of the group commit.

use ggrid::prelude::*;
use ggrid::stats::ServerCounters;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use roadnet::EdgeId;

use crate::csvout::{fmt_ns, fmt_rate, ResultTable};
use crate::datasets::{build_dataset, DatasetSpec};
use crate::experiments::ExpConfig;
use crate::report::{Report, Val};
use crate::runner::BenchWorld;

/// Counters + answers of one sweep point.
struct Outcome {
    label: &'static str,
    counters: ServerCounters,
    answers: Vec<Vec<(ObjectId, Distance)>>,
}

pub fn run(cfg: &ExpConfig) -> (ResultTable, Report) {
    let ds = roadnet::gen::Dataset::NY;
    let world = BenchWorld::new(build_dataset(&DatasetSpec::new(ds, cfg.scale)));
    let params = cfg.index_params();
    let rounds = cfg.queries.max(6);
    // (label, host workers, group commit?)
    let sweep: [(&'static str, usize, bool); 4] = [
        ("per-call", 1, false),
        ("batched", 1, true),
        ("batched-w2", 2, true),
        ("batched-w4", 4, true),
    ];
    let outcomes: Vec<Outcome> = sweep
        .iter()
        .map(|&(label, workers, batched)| {
            let config = GGridConfig {
                host_workers: workers,
                t_delta_ms: params.t_delta_ms,
                ..params.ggrid.clone()
            };
            let mut server = world.server(config);
            let answers = hot_window_workload(&world, &mut server, cfg, rounds, batched);
            Outcome {
                label,
                counters: server.counters(),
                answers,
            }
        })
        .collect();

    // Group commit and the worker pool are ingestion-cost optimisations
    // only: every sweep point must return byte-identical answers.
    for o in &outcomes[1..] {
        assert_eq!(
            o.answers, outcomes[0].answers,
            "{} changed answers",
            o.label
        );
    }

    let mut t = ResultTable::new(
        &format!("Extension: batched update ingestion ({}, k=16)", ds.name()),
        &[
            "Ingest",
            "Upd/s model",
            "Upd/s wall",
            "Modeled",
            "Cell locks",
            "Lock wait",
            "Shard locks",
            "Batches",
            "Tombst batched",
            "Bucket reuse",
            "Speedup",
        ],
    );
    for o in &outcomes {
        let c = &o.counters;
        t.row(vec![
            o.label.to_string(),
            fmt_rate(c.updates_per_sec_modeled()),
            fmt_rate(c.updates_per_sec_measured()),
            fmt_ns(c.modeled_ingest_ns()),
            c.ingest_cell_locks.to_string(),
            fmt_ns(c.ingest_cell_lock_wait_ns),
            c.ingest_shard_locks.to_string(),
            c.ingest_batches.to_string(),
            c.tombstones_batched.to_string(),
            format!("{:.1}%", 100.0 * c.bucket_reuse_rate()),
            format!("{:.2}x", c.ingest_parallel_speedup()),
        ]);
    }

    let by = |label: &str| outcomes.iter().find(|o| o.label == label).unwrap();
    let (per_call, batched) = (by("per-call"), by("batched"));
    let cell_lock_reduction_x = per_call.counters.ingest_cell_locks as f64
        / batched.counters.ingest_cell_locks.max(1) as f64;
    let (per_call_ns, batched_ns) = (
        per_call.counters.modeled_ingest_ns(),
        batched.counters.modeled_ingest_ns(),
    );
    let modeled_saved_pct =
        100.0 * per_call_ns.saturating_sub(batched_ns) as f64 / per_call_ns.max(1) as f64;
    let point = |o: &Outcome| {
        let c = &o.counters;
        let hist = c
            .batch_size_hist
            .nonzero()
            .iter()
            .map(|&(lo, n)| Val::List(vec![lo.into(), n.into()]))
            .collect();
        Val::Obj(vec![
            ("updates", c.updates_ingested.into()),
            ("tombstones", c.tombstones_written.into()),
            ("batches", c.ingest_batches.into()),
            ("batched_updates", c.batched_updates.into()),
            ("tombstones_batched", c.tombstones_batched.into()),
            ("cell_locks", c.ingest_cell_locks.into()),
            ("cell_lock_wait_ns", c.ingest_cell_lock_wait_ns.into()),
            ("shard_locks", c.ingest_shard_locks.into()),
            ("modeled_ingest_ns", c.modeled_ingest_ns().into()),
            (
                "updates_per_sec_modeled",
                Val::Num(c.updates_per_sec_modeled(), 1),
            ),
            (
                "updates_per_sec_measured",
                Val::Num(c.updates_per_sec_measured(), 1),
            ),
            ("parallel_speedup", Val::Num(c.ingest_parallel_speedup(), 3)),
            ("bucket_allocs", c.bucket_allocs.into()),
            ("bucket_reuses", c.bucket_reuses.into()),
            ("ingest_flushes", c.ingest_flushes.into()),
            ("buffered_messages", c.buffered_messages.into()),
            ("buffer_bytes_high_water", c.buffer_bytes_high_water.into()),
            ("batch_size_p50", c.batch_size_hist.percentile(50.0).into()),
            ("batch_size_p99", c.batch_size_hist.percentile(99.0).into()),
            ("batch_size_hist", Val::List(hist)),
        ])
    };
    let fields = vec![
        ("dataset", "NY".into()),
        ("scale", cfg.scale.into()),
        ("objects", cfg.objects.max(64).into()),
        ("rounds", rounds.into()),
        ("queries", per_call.answers.len().into()),
        ("per_call", point(per_call)),
        ("batched", point(batched)),
        ("batched_w2", point(by("batched-w2"))),
        ("batched_w4", point(by("batched-w4"))),
        ("cell_lock_reduction_x", Val::Num(cell_lock_reduction_x, 2)),
        ("modeled_saved_pct", Val::Num(modeled_saved_pct, 2)),
    ];
    (t, Report::new("BENCH_4", "ingest", fields))
}

/// Every round the whole fleet reports from a small hot window of edges,
/// then a fixed query frontier is revisited. Identical and deterministic
/// for every server it is replayed against — the rng draws do not depend
/// on how updates are committed.
fn hot_window_workload(
    world: &BenchWorld,
    server: &mut GGridServer,
    cfg: &ExpConfig,
    rounds: usize,
    batched: bool,
) -> Vec<Vec<(ObjectId, Distance)>> {
    let ne = world.graph.num_edges() as u32;
    let window = ne.min(48);
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x1467);
    let objects = cfg.objects.max(64) as u64;
    let positions: Vec<EdgePosition> = (0..4u32)
        .map(|p| EdgePosition::at_source(EdgeId((p * (window / 4)).min(ne - 1))))
        .collect();
    let mut answers = Vec::new();
    let mut t = 100u64;
    for _ in 0..rounds {
        // One whole-fleet report wave into the hot window.
        let wave: Vec<(ObjectId, EdgePosition, Timestamp)> = (0..objects)
            .map(|o| {
                t += 1;
                let e = EdgeId(rng.gen_range(0..window));
                (ObjectId(o), EdgePosition::at_source(e), Timestamp(t))
            })
            .collect();
        if batched {
            server.ingest_batch(&wave);
        } else {
            for &(o, p, ts) in &wave {
                server.handle_update(o, p, ts);
            }
        }
        t += 1;
        for &q in &positions {
            answers.push(server.knn(q, 16, Timestamp(t)));
        }
    }
    answers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::check_floors;

    #[test]
    fn group_commit_cuts_cell_locks_and_modeled_time() {
        let cfg = ExpConfig {
            scale: 4000,
            objects: 150,
            queries: 6,
            ..ExpConfig::quick()
        };
        let (t, report) = run(&cfg);
        assert_eq!(t.rows.len(), 4);
        check_floors(&report);
    }
}
