//! `paper_mix`: the paper's protocol (§VII-A) on one device with the
//! default configuration. A MOTO-style fleet reports at frequency f; every
//! round is one `ingest_batch` of the arrivals since the last query, then
//! one kNN query. The batch, serve and shard layers are bypassed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ggrid::{GGridConfig, GGridServer, MovingObjectIndex, ObjectId, Timestamp};
use roadnet::gen::{self, Dataset};
use roadnet::{EdgePosition, Graph};
use workload::{Moto, MotoConfig, QueryStream};

use crate::common::{
    build_server, clocks, counter_layers, cpu_s, oracle, snap, Reported, Sample, SetupTimes,
};
use crate::metrics::{peak_rss_mb, tail_percentile, Values};
use crate::trace::{Span, Tracer};
use crate::{Phase, SLO_NS};

/// The network: the NY dataset shape at 1/2 scale (~132k vertices), from
/// a fixed generator seed so every run serves the same roads.
const SCALE: u32 = 2;
const GRAPH_SEED: u64 = 0x6E79;
/// Fleet size |O|, reporting period 1/f and query interval: 40k objects at
/// f = 1 Hz with a query every 10 ms is 400 messages per query.
const FLEET: usize = 40_000;
const PERIOD_MS: u64 = 1_000;
const QUERY_INTERVAL_MS: u64 = 10;
const K: usize = 16;
/// Every this-many rounds one answer is held back for the oracle, up to
/// `MAX_SAMPLES` of them.
const SAMPLE_EVERY: u64 = 64;
const MAX_SAMPLES: usize = 40;

pub fn graph() -> Graph {
    gen::dataset(Dataset::NY, SCALE, GRAPH_SEED)
}

pub struct World {
    server: GGridServer,
    graph: Arc<Graph>,
    moto: Moto,
    stream: QueryStream,
    reported: Reported,
    t_delta_ms: u64,
}

/// Untimed rounds before measuring. Per-cell backlogs grow until the
/// random queries have swept the grid (about 800 rounds here); after these
/// every run measures the same steady state, however fast the server is.
const WARMUP_ROUNDS: u64 = 1_000;

pub fn setup(seed: u64) -> (World, SetupTimes) {
    let config = GGridConfig::default();
    let t_delta_ms = config.t_delta_ms;
    let (server, mut times) = build_server(graph, config);
    let graph = server.graph().clone();
    let t0 = cpu_s();
    let mut moto = Moto::new(
        graph.clone(),
        &MotoConfig {
            num_objects: FLEET,
            update_period_ms: PERIOD_MS,
            seed,
            ..Default::default()
        },
    );
    // One full reporting period: every object reports once.
    let warm = to_updates(&moto.advance_to(Timestamp(PERIOD_MS)));
    server.ingest_batch(&warm);
    times.fleet_s = cpu_s() - t0;
    let mut reported = Reported::new(FLEET);
    reported.apply(&warm);
    let stream = QueryStream::new(K, QUERY_INTERVAL_MS, Timestamp(PERIOD_MS), seed ^ 0xABCD);
    let world = World {
        server,
        graph,
        moto,
        stream,
        reported,
        t_delta_ms,
    };
    (world, times)
}

fn to_updates(msgs: &[workload::UpdateMessage]) -> Vec<(ObjectId, EdgePosition, Timestamp)> {
    msgs.iter()
        .map(|m| (m.object, m.position, m.time))
        .collect()
}

pub fn measure(mut w: World, seconds: f64, mut tracer: Option<&mut Tracer>) -> Phase {
    let server = &mut w.server;
    for _ in 0..WARMUP_ROUNDS {
        let (qt, q, k) = w.stream.draw(&w.graph);
        let updates = to_updates(&w.moto.advance_to(qt));
        w.reported.apply(&updates);
        server.ingest_batch(&updates);
        server.knn(q, k, qt);
    }
    // Sizes after a fixed amount of work, so they do not depend on how
    // many rounds the timed phase gets through.
    let index_mb = server.index_size().total() as f64 / 1e6;
    let rss_mb = peak_rss_mb();

    let mut hybrid_ns: Vec<u64> = Vec::new();
    let mut round_hybrid_ns = 0u64;
    let (mut wall_ns, mut ingest_wall_ns) = (0u64, 0u64);
    let mut knn_host_ns = 0u64;
    let mut unattributed_ns = 0u64;
    let mut overlap_ns = 0u64;
    let mut messages = 0u64;
    let mut candidates = 0u64;
    let mut unresolved = 0u64;
    let mut ring_spans: Vec<u64> = Vec::new();
    let mut samples: Vec<Sample> = Vec::new();
    let (mut failed, mut recon_failures) = (0u64, 0u64);

    let before = snap(server);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut round = 0u64;
    while Instant::now() < deadline {
        // Generating the workload and holding back oracle samples is the
        // benchmark's own work, left out of the round's wall time.
        let (qt, q, k) = w.stream.draw(&w.graph);
        let updates = to_updates(&w.moto.advance_to(qt));
        let sampled = round.is_multiple_of(SAMPLE_EVERY) && samples.len() < MAX_SAMPLES;
        w.reported.apply(&updates);
        let live = sampled.then(|| w.reported.live(qt, w.t_delta_ms));

        let s0 = clocks(server);
        let t0 = Instant::now();
        let ingest_ok = catch_unwind(AssertUnwindSafe(|| {
            server.ingest_batch(&updates);
        }))
        .is_ok();
        let t1 = Instant::now();
        let s1 = clocks(server);
        let result = catch_unwind(AssertUnwindSafe(|| server.knn_detailed(q, k, qt)));
        let t2 = Instant::now();
        let s2 = clocks(server);

        let ingest_ns = (t1 - t0).as_nanos() as u64;
        let knn_wall = (t2 - t1).as_nanos() as u64;
        let knn_emu = s2.emu - s1.emu;
        let knn_sim = s2.sim.since(&s1.sim).total_time().0;
        let hybrid = s1.hybrid(&s2, knn_wall);
        round_hybrid_ns += s0.hybrid(&s1, ingest_ns) + hybrid;
        messages += updates.len() as u64;
        hybrid_ns.push(hybrid);
        knn_host_ns += knn_wall.saturating_sub(knn_emu);

        match result {
            Ok(r) if ingest_ok => {
                let b = &r.breakdown;
                // Reconciliation on one device: the ledger's busy time
                // covers the breakdown's device time (the breakdown counts
                // the cleaning pipeline's makespan, the ledger every busy
                // transfer and kernel, so they differ by the overlap), and
                // host time net of emulation covers the breakdown's CPU time.
                let host = knn_wall.saturating_sub(knn_emu);
                if knn_sim < b.gpu_total().0 || host < b.cpu_ns {
                    recon_failures += 1;
                }
                overlap_ns += knn_sim - b.gpu_total().0.min(knn_sim);
                unattributed_ns += knn_wall.saturating_sub(knn_emu).saturating_sub(b.cpu_ns);
                candidates += b.candidates as u64;
                unresolved += b.unresolved as u64;
                ring_spans.push(b.ring_span as u64);
                if let Some(tr) = tracer.as_deref_mut() {
                    let parent = tr.span(Span {
                        layer: "round",
                        request: round,
                        parent: None,
                        start_ns: tr.at(t0),
                        end_ns: tr.at(t2),
                        clock: "measured",
                        counts: vec![("messages", updates.len() as u64)],
                    });
                    tr.span(Span {
                        layer: "ingest",
                        request: round,
                        parent,
                        start_ns: tr.at(t0),
                        end_ns: tr.at(t1),
                        clock: "measured",
                        counts: vec![("messages", updates.len() as u64)],
                    });
                    tr.span(Span {
                        layer: "knn",
                        request: round,
                        parent,
                        start_ns: tr.at(t1),
                        end_ns: tr.at(t2),
                        clock: "measured",
                        counts: vec![
                            ("emulation_ns", knn_emu),
                            ("cpu_ns", b.cpu_ns),
                            ("cleaning_ns", b.cleaning.0),
                            ("sdist_ns", b.sdist_time.0),
                            ("refine_ns", b.refine_ns),
                            ("cells_cleaned", b.cells_cleaned as u64),
                            ("cells_skipped", b.cells_skipped as u64),
                            ("messages_cleaned", b.messages_cleaned as u64),
                            ("sdist_rounds", b.sdist_rounds),
                            ("candidates", b.candidates as u64),
                            ("unresolved", b.unresolved as u64),
                            ("h2d_bytes", b.h2d_bytes),
                            ("d2h_bytes", b.d2h_bytes),
                        ],
                    });
                }
                if let Some(live) = live {
                    samples.push(Sample {
                        q,
                        k,
                        live,
                        answer: r.items,
                    });
                }
            }
            _ => failed += 1,
        }
        wall_ns += t0.elapsed().as_nanos() as u64;
        ingest_wall_ns += ingest_ns;
        round += 1;
    }
    let after = snap(server);
    let queries = round;
    failed += oracle(&w.graph, &samples);

    let mut v = Values::default();
    v.latency("knn_p50_us", "knn_p99_us", &hybrid_ns);
    // A closed loop never queues: a request's serve latency is its
    // issue-to-answer time.
    v.latency("serve_p50_us", "serve_p99_us", &hybrid_ns);
    v.latency("serve.service_p50_us", "serve.service_p99_us", &hybrid_ns);
    v.set(
        "amortized_us",
        round_hybrid_ns as f64 / queries.max(1) as f64 / 1e3,
    );
    v.set(
        "ingest_mps",
        messages as f64 * 1e9 / ingest_wall_ns.max(1) as f64,
    );
    v.set("wall_qps", queries as f64 * 1e9 / wall_ns.max(1) as f64);
    v.set(
        "slo_frac",
        hybrid_ns.iter().filter(|&&h| h <= SLO_NS).count() as f64 / queries.max(1) as f64,
    );
    v.set("index_mb", index_mb);
    v.set("peak_rss_mb", rss_mb);

    counter_layers(&mut v, &before, &after, queries, wall_ns);
    let q = queries.max(1) as f64;
    v.set(
        "ingest.us_per_1k_msgs",
        ingest_wall_ns as f64 / 1e3 / (messages.max(1) as f64 / 1e3),
    );
    v.set("sdist.candidates", candidates as f64 / q);
    v.set("refine.unresolved", unresolved as f64 / q);
    v.set("knn.host_us", knn_host_ns as f64 / q / 1e3);
    v.set("knn.unattributed_us", unattributed_ns as f64 / q / 1e3);
    v.set("batch.size_mean", 1.0);
    v.set("batch.shared_cells", 0.0);
    v.set("batch.pipelined_over_serial", 1.0);
    for name in [
        "serve.queue_wait_p50_us",
        "serve.queue_wait_p99_us",
        "serve.batch_wait_p50_us",
        "serve.batch_wait_p99_us",
        "serve.deadline_close_frac",
        "serve.fill_close_frac",
        "serve.shed",
        "serve.queue_depth_max",
        "shard.rebalance_us",
    ] {
        v.set(name, 0.0);
    }
    v.set(
        "serve.ingest_modeled_us",
        (after.c.modeled_ingest_ns() - before.c.modeled_ingest_ns()) as f64 / q / 1e3,
    );
    ring_spans.sort_unstable();
    v.set("shard.ring_span_p99", tail_percentile(&ring_spans).0 as f64);

    let budget = server.config().device_budget_bytes;
    v.note(format!(
        "network |V|={} |E|={}, fleet {FLEET} at f=1/{PERIOD_MS}ms, query every {QUERY_INTERVAL_MS} ms (~{:.0} msgs/query), k={K}",
        w.graph.num_vertices(),
        w.graph.num_edges(),
        messages as f64 / q
    ));
    v.note(format!(
        "{queries} queries in {:.2} s of round wall time after {WARMUP_ROUNDS} untimed warm-up rounds; index_mb and peak_rss_mb are read after the warm-up",
        wall_ns as f64 / 1e9
    ));
    v.note(format!(
        "device budget {:.1} MB; device-resident at end {:.1} MB (lists {:.1} MB + topology {:.1} MB), cached messages {}",
        budget as f64 / 1e6,
        (server.resident_bytes() + server.topology_resident_bytes()) as f64 / 1e6,
        server.resident_bytes() as f64 / 1e6,
        server.topology_resident_bytes() as f64 / 1e6,
        server.cached_messages()
    ));
    v.note(format!("oracle: {} sampled answers checked", samples.len()));
    v.note(format!(
        "reconciliation: {recon_failures} failures; the ledger's device time exceeds the breakdown's by {:.1} us/query of cleaning pipeline overlap",
        overlap_ns as f64 / q / 1e3
    ));

    Phase {
        values: v,
        attempted: queries,
        failed,
        recon_failures,
    }
}
