//! Extension study (beyond the paper): device-resident cell state.
//!
//! A repeated-query workload on the NY-shaped dataset: the fleet is
//! scattered once, then a fixed set of query positions is revisited round
//! after round while a small slice of the fleet moves between rounds. The
//! moved objects dirty their cells, so every round re-cleans the query
//! frontier:
//!
//! * with residency **off** (`device_budget_bytes = 0`) each re-clean
//!   re-ships the cell's whole consolidated list over the bus;
//! * with residency **on** the consolidated state stays in device memory
//!   and only the delta (the movers' messages) crosses, feeding the fused
//!   merge kernel; copy-back shrinks to the objects that changed;
//! * a deliberately **tight** budget forces constant LRU eviction, so the
//!   fallback path (full upload, then re-promotion) is exercised too.
//!
//! Answers are identical across every row — the sweep isolates bus traffic
//! and simulated time, not what is computed. The report (`BENCH_2.json`)
//! records the simulated time and H2D bytes residency saves.

use ggrid::prelude::*;
use ggrid::stats::ServerCounters;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use roadnet::EdgeId;

use crate::csvout::{fmt_bytes, fmt_ns, ResultTable};
use crate::datasets::{build_dataset, DatasetSpec};
use crate::experiments::ExpConfig;
use crate::report::{Report, Val};
use crate::runner::BenchWorld;

/// Device budgets swept: disabled, eviction-churning, comfortable.
pub const TIGHT_BUDGET: u64 = 256;
pub const FULL_BUDGET: u64 = 64 << 20;

/// Counters + answers of one sweep point.
struct Outcome {
    label: &'static str,
    budget: u64,
    counters: ServerCounters,
    resident_cells: usize,
    answers: Vec<Vec<(ObjectId, Distance)>>,
}

pub fn run(cfg: &ExpConfig) -> (ResultTable, Report) {
    let ds = roadnet::gen::Dataset::NY;
    let world = BenchWorld::new(build_dataset(&DatasetSpec::new(ds, cfg.scale)));
    let params = cfg.index_params();
    let rounds = cfg.queries.max(6);
    let outcomes: Vec<Outcome> = [("off", 0u64), ("tight", TIGHT_BUDGET), ("on", FULL_BUDGET)]
        .iter()
        .map(|&(label, budget)| {
            let config = GGridConfig {
                device_budget_bytes: budget,
                t_delta_ms: params.t_delta_ms,
                ..params.ggrid.clone()
            };
            let mut server = world.server(config);
            let answers = repeated_query_workload(&world, &mut server, cfg, rounds);
            Outcome {
                label,
                budget,
                counters: server.counters(),
                resident_cells: server.resident_cells(),
                answers,
            }
        })
        .collect();

    // Residency is a cost optimisation only: every sweep point must return
    // byte-identical answers.
    for o in &outcomes[1..] {
        assert_eq!(
            o.answers, outcomes[0].answers,
            "budget {} changed answers",
            o.budget
        );
    }

    let mut t = ResultTable::new(
        &format!(
            "Extension: device-resident cell state ({}, k=16)",
            ds.name()
        ),
        &[
            "Residency",
            "Budget",
            "Sim time",
            "H2D total",
            "H2D delta",
            "H2D full",
            "D2H",
            "Resident hits",
            "Hit rate",
            "Evictions",
            "Resident cells",
        ],
    );
    for o in &outcomes {
        let c = &o.counters;
        t.row(vec![
            o.label.to_string(),
            if o.budget == 0 {
                "0".to_string()
            } else {
                fmt_bytes(o.budget)
            },
            fmt_ns(c.gpu_time.0),
            fmt_bytes(c.h2d_bytes),
            fmt_bytes(c.h2d_delta_bytes),
            fmt_bytes(c.h2d_full_bytes),
            fmt_bytes(c.d2h_bytes),
            c.resident_hits.to_string(),
            format!("{:.1}%", 100.0 * c.resident_hit_rate()),
            c.evictions.to_string(),
            o.resident_cells.to_string(),
        ]);
    }

    let by = |label: &str| outcomes.iter().find(|o| o.label == label).unwrap();
    let (off, on) = (by("off"), by("on"));
    let saved_bytes = off.counters.h2d_bytes.saturating_sub(on.counters.h2d_bytes);
    let saved_pct = 100.0 * saved_bytes as f64 / off.counters.h2d_bytes.max(1) as f64;
    let (off_ns, on_ns) = (off.counters.gpu_time.0, on.counters.gpu_time.0);
    let time_saved_pct = 100.0 * off_ns.saturating_sub(on_ns) as f64 / off_ns.max(1) as f64;
    let point = |o: &Outcome| {
        Val::Obj(vec![
            ("budget_bytes", o.budget.into()),
            ("sim_ns", o.counters.gpu_time.0.into()),
            ("h2d_bytes", o.counters.h2d_bytes.into()),
            ("h2d_delta_bytes", o.counters.h2d_delta_bytes.into()),
            ("h2d_full_bytes", o.counters.h2d_full_bytes.into()),
            ("d2h_bytes", o.counters.d2h_bytes.into()),
            ("resident_hits", o.counters.resident_hits.into()),
            ("evictions", o.counters.evictions.into()),
            ("resident_cells", o.resident_cells.into()),
        ])
    };
    let fields = vec![
        ("dataset", "NY".into()),
        ("scale", cfg.scale.into()),
        ("objects", cfg.objects.max(32).into()),
        ("rounds", rounds.into()),
        ("queries", off.answers.len().into()),
        ("off", point(off)),
        ("tight", point(by("tight"))),
        ("on", point(on)),
        ("h2d_saved_bytes", saved_bytes.into()),
        ("h2d_saved_pct", Val::Num(saved_pct, 2)),
        ("sim_time_saved_pct", Val::Num(time_saved_pct, 2)),
    ];
    (t, Report::new("BENCH_2", "residency", fields))
}

/// Scatter the fleet, then revisit a fixed query frontier for `rounds`
/// rounds, moving a small slice of the fleet between rounds. Identical and
/// deterministic for every server it is replayed against.
fn repeated_query_workload(
    world: &BenchWorld,
    server: &mut GGridServer,
    cfg: &ExpConfig,
    rounds: usize,
) -> Vec<Vec<(ObjectId, Distance)>> {
    let ne = world.graph.num_edges() as u32;
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x7e51);
    let objects = cfg.objects.max(32) as u64;
    // Initial scatter: one group commit for the whole fleet.
    let scatter: Vec<(ObjectId, EdgePosition, Timestamp)> = (0..objects)
        .map(|o| {
            let e = EdgeId(rng.gen_range(0..ne));
            (ObjectId(o), EdgePosition::at_source(e), Timestamp(100))
        })
        .collect();
    server.ingest_batch(&scatter);
    let positions: Vec<EdgePosition> = (0..4u32)
        .map(|p| EdgePosition::at_source(EdgeId((p * (ne / 4)).min(ne - 1))))
        .collect();
    let movers = (objects / 20).max(1);
    let mut answers = Vec::new();
    let mut t = 200u64;
    for _ in 0..rounds {
        let moves: Vec<(ObjectId, EdgePosition, Timestamp)> = (0..movers)
            .map(|_| {
                t += 1;
                let o = ObjectId(rng.gen_range(0..objects));
                let e = EdgeId(rng.gen_range(0..ne));
                (o, EdgePosition::at_source(e), Timestamp(t))
            })
            .collect();
        server.ingest_batch(&moves);
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
    fn residency_saves_h2d_and_time() {
        let cfg = ExpConfig {
            scale: 4000,
            objects: 150,
            queries: 6,
            ..ExpConfig::quick()
        };
        let (t, report) = run(&cfg);
        assert_eq!(t.rows.len(), 3);
        check_floors(&report);
    }
}
