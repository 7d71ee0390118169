//! Extension study (beyond the paper): SLO-driven serving loop under
//! open-loop load.
//!
//! The paper measures amortised per-query cost on a closed loop; a served
//! index additionally pays *queueing* and *batch-forming* delay, which only
//! an open-loop driver exposes (a closed loop can never overload the
//! server). This harness drives [`ggrid::serve::serve`] with Poisson
//! arrivals from [`workload::openloop`] and compares batching policies:
//!
//! * **fixed-1** — every query is its own device batch (no batch wait,
//!   maximal per-batch overhead);
//! * **fixed-32** — batches close only when full (maximal amortisation,
//!   unbounded batch wait at low load);
//! * **adaptive-8 / adaptive-32** — batches close at `max_batch_size` OR a
//!   modeled-ns deadline, whichever first.
//!
//! The sweep crosses arrival rate × deadline × max batch size. All rates
//! and the deadline are *calibrated* against the measured+simulated batch
//! service time, so the same three regimes — low, moderate (a handful of
//! arrivals per deadline window), and saturating — emerge on any build
//! profile. `BENCH_9.json` records per-point p50/p99/p99.9 modeled latency
//! (queue wait + batch wait + device + refine), SLO attainment, and
//! saturation throughput, plus the two enforced floors:
//!
//! * `adaptive_saturation_speedup_x` ≥ 1.5 — deadline batching beats
//!   fixed-1 on saturated throughput;
//! * at moderate load, `adaptive_slo_attainment` ≥ 0.9 while
//!   `fixed_slo_attainment` < 0.5 — the deadline meets an SLO that
//!   fill-only batching structurally misses.

use std::sync::Arc;

use ggrid::grid::GraphGrid;
use ggrid::prelude::*;
use roadnet::{gen, EdgeId};
use workload::openloop::{poisson_arrivals, split_round_robin, Arrival, OpenLoopConfig};

use crate::csvout::{fmt_ns, ResultTable};
use crate::experiments::ExpConfig;
use crate::report::{find, ns, table, Column, Report, Val};
use crate::runner::server_on;

/// Queries per serve run (quick mode shrinks this).
const QUERIES: usize = 512;
const QUERIES_QUICK: usize = 256;
/// Client lanes feeding the queue.
const LANES: usize = 4;
/// Fleet size cap (the serving study is about queueing, not capacity).
const FLEET_CAP: usize = 10_000;
/// k of every served query.
const K: usize = 8;
/// Maintenance epoch cadence (released requests per epoch).
const EPOCH_REQUESTS: u64 = 128;

/// One batching policy of the sweep: name, max batch size, and batch
/// deadline in modeled ns (`u64::MAX` = fill-only).
type Policy = (&'static str, usize, u64);

/// Result-table columns over the report rows.
const COLUMNS: &[Column] = &[
    ("Load", "load", Val::text),
    ("Policy", "policy", Val::text),
    ("p50", "p50_modeled_ns", ns),
    ("p99", "p99_modeled_ns", ns),
    ("p99.9", "p999_modeled_ns", ns),
    ("SLO%", "slo_attainment", |v| {
        format!("{:.1}%", v.f64() * 100.0)
    }),
    ("Thruput q/s", "throughput_qps_modeled", |v| {
        format!("{:.0}", v.f64())
    }),
    ("Mean batch", "mean_batch", |v| format!("{:.1}", v.f64())),
    ("Deadline closes", "deadline_closes", Val::text),
    ("Epochs", "epochs", Val::text),
];

fn server_config() -> GGridConfig {
    GGridConfig {
        host_workers: 8,
        t_delta_ms: 1 << 40,
        ..Default::default()
    }
}

fn fresh_server(grid: &Arc<GraphGrid>, fleet: usize) -> GGridServer {
    let server = server_on(grid, server_config());
    let ne = grid.graph().num_edges() as u32;
    let wave: Vec<(ObjectId, EdgePosition, Timestamp)> = (0..fleet as u64)
        .map(|o| {
            (
                ObjectId(o),
                EdgePosition::at_source(EdgeId((o as u32 * 131) % ne)),
                Timestamp(900),
            )
        })
        .collect();
    server.ingest_batch(&wave);
    server
}

/// Measured service times: mean modeled ns per singleton batch and per
/// 32-batch, on a warmed server. Everything else is derived from these, so
/// the sweep self-scales between debug and release builds.
struct Calibration {
    s1_ns: u64,
    s32_ns: u64,
}

fn calibrate(grid: &Arc<GraphGrid>, fleet: usize) -> Calibration {
    let mut server = fresh_server(grid, fleet);
    let ne = grid.graph().num_edges() as u32;
    let pos = |i: u32| EdgePosition::at_source(EdgeId((i * 977) % ne));
    // Warm the topology store and clean the touched cells once.
    let warm: Vec<(EdgePosition, usize)> = (0..32).map(|i| (pos(i), K)).collect();
    server.knn_batch(&warm, Timestamp(901));

    let singles = 8u32;
    let mut s1 = 0u64;
    for i in 0..singles {
        s1 += server
            .knn_batch(&[(pos(100 + i), K)], Timestamp(902))
            .pipelined_time
            .0;
    }
    let rounds = 4u32;
    let mut s32 = 0u64;
    for r in 0..rounds {
        let batch: Vec<(EdgePosition, usize)> =
            (0..32).map(|i| (pos(200 + r * 32 + i), K)).collect();
        s32 += server.knn_batch(&batch, Timestamp(903)).pipelined_time.0;
    }
    Calibration {
        s1_ns: (s1 / singles as u64).max(1),
        s32_ns: (s32 / rounds as u64).max(1),
    }
}

/// Drive one (rate, policy) point: generate the open-loop schedule, feed
/// it through `LANES` client threads, and serve.
#[allow(clippy::too_many_arguments)]
fn run_point(
    grid: &Arc<GraphGrid>,
    fleet: usize,
    seed: u64,
    queries: usize,
    rate_label: &'static str,
    rate_qps: f64,
    policy: Policy,
    deadline_ns: u64,
    slo_ns: u64,
) -> Val {
    let schedule = poisson_arrivals(
        grid.graph(),
        &OpenLoopConfig {
            seed: seed ^ 0x5e12,
            queries,
            query_rate_hz: rate_qps,
            ingest_rate_hz: rate_qps / 48.0,
            ingest_wave: 8,
            objects: fleet as u64,
            k: K,
            // Wide enough that a deadline window (and a 32-fill at moderate
            // load) almost always stays inside one timestamp quantum.
            now_quantum_ns: deadline_ns.saturating_mul(64).max(10_000_000),
            base_ms: 1_000,
        },
    );
    let lanes = split_round_robin(schedule, LANES);

    let mut server = fresh_server(grid, fleet);
    let cfg = ServeConfig {
        max_batch_size: policy.1,
        deadline_ns: policy.2,
        epoch_requests: EPOCH_REQUESTS,
        ..Default::default()
    };
    let mut queue = ServeQueue::new(&cfg);
    let clients: Vec<ServeClient> = (0..LANES).map(|_| queue.client()).collect();
    let mut outcome = None;
    std::thread::scope(|scope| {
        for (mut client, lane) in clients.into_iter().zip(lanes) {
            scope.spawn(move || {
                for a in lane {
                    match a {
                        Arrival::Query { at_ns, q, k, now } => client.query(q, k, now, at_ns),
                        Arrival::Ingest { at_ns, updates } => client.ingest(updates, at_ns),
                    }
                }
            });
        }
        outcome = Some(serve(&mut server, &cfg, queue));
    });
    let outcome = outcome.unwrap();

    let answered: Vec<_> = outcome.records.iter().filter(|r| !r.shed).collect();
    let within = answered.iter().filter(|r| r.latency_ns() <= slo_ns).count();
    let slo_attainment = within as f64 / answered.len().max(1) as f64;
    let r = outcome.report;
    Val::Obj(vec![
        ("load", rate_label.into()),
        ("policy", policy.0.into()),
        ("rate_qps", Val::Num(rate_qps, 1)),
        ("max_batch", policy.1.into()),
        ("deadline_ns", deadline_ns.into()),
        ("queries", r.queries.into()),
        ("shed", r.shed.into()),
        ("batches", r.batches.into()),
        (
            "mean_batch",
            Val::Num(r.queries as f64 / r.batches.max(1) as f64, 2),
        ),
        ("fill_closes", r.fill_closes.into()),
        ("deadline_closes", r.deadline_closes.into()),
        ("boundary_closes", r.boundary_closes.into()),
        ("epochs", r.epochs.into()),
        ("ingest_events", r.ingest_events.into()),
        ("p50_modeled_ns", r.latency_hist.percentile(50.0).into()),
        ("p99_modeled_ns", r.latency_hist.percentile(99.0).into()),
        ("p999_modeled_ns", r.latency_hist.percentile(99.9).into()),
        (
            "queue_wait_p99_ns",
            r.queue_wait_hist.percentile(99.0).into(),
        ),
        ("slo_attainment", Val::Num(slo_attainment, 4)),
        ("throughput_qps_modeled", Val::Num(r.throughput_qps(), 1)),
    ])
}

pub fn run(cfg: &ExpConfig) -> (ResultTable, Report) {
    let nv = if cfg.quick { 3_000 } else { 10_000 };
    let graph = Arc::new(gen::synthetic_grid(nv, cfg.seed ^ nv as u64));
    let params = server_config();
    let grid = Arc::new(GraphGrid::build(
        graph,
        params.cell_capacity,
        params.vertex_capacity,
    ));
    let fleet = cfg.objects.min(FLEET_CAP);
    let queries = if cfg.quick { QUERIES_QUICK } else { QUERIES };

    let cal = calibrate(&grid, fleet);
    // The adaptive deadline: two 32-batch service times. The SLO grants a
    // deadline plus two service times of headroom.
    let deadline_ns = 2 * cal.s32_ns;
    let slo_ns = deadline_ns + 2 * cal.s32_ns;
    // Low: ~1 arrival per deadline window. Moderate: ~6 per window — far
    // below the 32-fill, so fill-only batching must stall. Saturate: 4x
    // the 32-batch service capacity.
    let rates: [(&'static str, f64); 3] = [
        ("low", 1e9 / deadline_ns as f64),
        ("moderate", 6e9 / deadline_ns as f64),
        ("saturate", 4.0 * 32e9 / cal.s32_ns as f64),
    ];
    let policies: [Policy; 4] = [
        ("fixed-1", 1, 0),
        ("adaptive-8", 8, deadline_ns),
        ("adaptive-32", 32, deadline_ns),
        ("fixed-32", 32, u64::MAX),
    ];
    let point = |&(label, rate): &(&'static str, f64), policy| {
        run_point(
            &grid,
            fleet,
            cfg.seed,
            queries,
            label,
            rate,
            policy,
            deadline_ns,
            slo_ns,
        )
    };
    let points: Vec<Val> = rates
        .iter()
        .flat_map(|r| policies.map(|p| point(r, p)))
        .collect();

    let title = format!(
        "Extension: open-loop serving (deadline {}, SLO {}, {} queries/run)",
        fmt_ns(deadline_ns),
        fmt_ns(slo_ns),
        queries
    );
    let t = table(&title, COLUMNS, &points);
    let at = |filter: &str, key: &str| find(&points, filter).get(key).f64();
    let speedup = at("load=saturate,policy=adaptive-32", "throughput_qps_modeled")
        / at("load=saturate,policy=fixed-1", "throughput_qps_modeled").max(1e-9);
    let adaptive_slo = at("load=moderate,policy=adaptive-32", "slo_attainment");
    let fixed_slo = at("load=moderate,policy=fixed-32", "slo_attainment");
    println!(
        "serving floors: adaptive saturation speedup {speedup:.2}x vs fixed-1, \
         moderate-load SLO attainment {:.0}% adaptive vs {:.0}% fill-only",
        adaptive_slo * 100.0,
        fixed_slo * 100.0
    );

    let floors = vec![
        ("adaptive_saturation_speedup_x", Val::Num(speedup, 2)),
        ("adaptive_slo_attainment", Val::Num(adaptive_slo, 4)),
        ("fixed_slo_attainment", Val::Num(fixed_slo, 4)),
    ];
    let fields = vec![
        ("quick", Val::Bool(cfg.quick)),
        ("seed", cfg.seed.into()),
        (
            "calibration",
            Val::Obj(vec![
                ("service_single_ns", cal.s1_ns.into()),
                ("service_batch32_ns", cal.s32_ns.into()),
                ("deadline_ns", deadline_ns.into()),
                ("slo_ns", slo_ns.into()),
            ]),
        ),
        ("points", Val::Rows(points)),
        ("floors", Val::Block(floors)),
    ];
    (t, Report::new("BENCH_9", "serving", fields))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::check_floors;

    /// The enforced serving floors, on the quick sweep: adaptive batching
    /// must beat fixed-1 on saturated throughput by 1.5x, and at moderate
    /// load the deadline must meet an SLO that fill-only batching misses.
    #[test]
    fn serving_floors_hold() {
        let cfg = ExpConfig {
            objects: 4_000,
            ..ExpConfig::quick()
        };
        let (t, report) = run(&cfg);
        assert_eq!(t.rows.len(), 12, "3 load levels x 4 policies");
        check_floors(&report);
    }
}
