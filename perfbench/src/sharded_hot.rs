//! `sharded_hot`: four simulated devices with cooperative SDist and
//! read-hot replication at their defaults. Requests are `knn_batch` calls
//! of a fixed size whose readers alternate between a read-hot window in
//! the interior of one shard (where most of the fleet lives) and a window
//! pressed against a shard boundary (whose candidate rings spill into the
//! neighbouring shard). A write trickle runs alongside and
//! `rebalance_shards` closes every epoch.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ggrid::grid::GraphGrid;
use ggrid::{GGridConfig, GGridServer, MovingObjectIndex, ObjectId, Timestamp};
use roadnet::{EdgeId, EdgePosition, Graph};
use workload::CellWindowSampler;

use crate::common::{
    build_server, clocks, counter_layers, cpu_s, oracle, snap, Reported, Sample, SetupTimes,
};
use crate::metrics::{peak_rss_mb, tail_percentile, Values};
use crate::trace::{Span, Tracer};
use crate::{Phase, SLO_NS};

const DEVICES: usize = 4;
/// Fleet: `HOT_FLEET` objects live in the hot window, the rest anywhere.
const FLEET: usize = 20_000;
const HOT_FLEET: usize = 10_000;
/// Per round: a trickle of `TRICKLE` moves (round-robin over the fleet, so
/// every object reports within `FLEET / TRICKLE * ROUND_MS` = 6.25 s,
/// inside t_Δ), then one batch of `BATCH` queries.
const TRICKLE: usize = 64;
const BATCH: usize = 16;
const ROUND_MS: u64 = 20;
const EPOCH_ROUNDS: u64 = 8;
/// Untimed rounds before measuring, so replicas, residency and the shard
/// map have settled.
const WARMUP_ROUNDS: u64 = 200;
const K: usize = 16;
/// Every this-many rounds two answers of the batch are held back for the
/// oracle, up to `MAX_SAMPLES`.
const SAMPLE_EVERY: u64 = 32;
const MAX_SAMPLES: usize = 40;

pub struct World {
    server: GGridServer,
    graph: Arc<Graph>,
    hot: CellWindowSampler,
    ring: CellWindowSampler,
    uniform: CellWindowSampler,
    reported: Reported,
    t_delta_ms: u64,
}

/// A z-order cell window starting at `lo`, widened until it owns edges.
fn edge_window(grid: &GraphGrid, lo: u32, width: u32) -> Range<u32> {
    let cells = grid.num_cells() as u32;
    let mut w = width.max(1);
    loop {
        let hi = (lo + w).min(cells);
        let has_edges = (0..grid.graph().num_edges() as u32)
            .any(|e| (lo..hi).contains(&(grid.cell_of_edge(EdgeId(e)).index() as u32)));
        if has_edges || hi == cells {
            return lo..hi;
        }
        w *= 2;
    }
}

pub fn setup(seed: u64) -> (World, SetupTimes) {
    let config = GGridConfig {
        num_devices: DEVICES,
        ..Default::default()
    };
    let t_delta_ms = config.t_delta_ms;
    let (server, mut times) = build_server(crate::paper_mix::graph, config);
    let t0 = cpu_s();
    let graph = server.graph().clone();
    let grid = server.grid();
    let cells = grid.num_cells() as u32;
    // The hot window sits in the middle of shard 2's initial range; the
    // ring window ends at the boundary between shards 1 and 2.
    let ranges = server.shard_ranges();
    let mid = (ranges[2].start + ranges[2].end) / 2;
    let hot = edge_window(grid, mid, (cells / 256).max(1));
    let ring_w = (cells / 32).max(1);
    let ring = edge_window(grid, ranges[2].start.saturating_sub(ring_w), ring_w);
    let mut w = World {
        hot: CellWindowSampler::new(grid, hot, seed ^ 0x7D7),
        ring: CellWindowSampler::new(grid, ring, seed ^ 0x3B3),
        uniform: CellWindowSampler::whole_grid(grid, seed ^ 0x51A),
        reported: Reported::new(FLEET),
        graph,
        server,
        t_delta_ms,
    };
    let fleet: Vec<_> = (0..FLEET as u64)
        .map(|o| (ObjectId(o), w.home(o), Timestamp(0)))
        .collect();
    w.server.ingest_batch(&fleet);
    w.reported.apply(&fleet);
    times.fleet_s = cpu_s() - t0;
    (w, times)
}

impl World {
    /// A fresh position in object `o`'s home region.
    fn home(&mut self, o: u64) -> EdgePosition {
        if (o as usize) < HOT_FLEET {
            self.hot.position()
        } else {
            self.uniform.position()
        }
    }

    /// Round `round`'s timestamp, write trickle and query batch; the
    /// trickle is applied to the reported positions.
    fn next_round(&mut self, round: u64) -> (Timestamp, Wave, Vec<(EdgePosition, usize)>) {
        let now = Timestamp(ROUND_MS * (round + 1));
        let trickle: Wave = (0..TRICKLE as u64)
            .map(|j| {
                let o = (round * TRICKLE as u64 + j) % FLEET as u64;
                (ObjectId(o), self.home(o), now)
            })
            .collect();
        let readers = if round.is_multiple_of(2) {
            &mut self.hot
        } else {
            &mut self.ring
        };
        let batch = (0..BATCH).map(|_| (readers.position(), K)).collect();
        self.reported.apply(&trickle);
        (now, trickle, batch)
    }
}

type Wave = Vec<(ObjectId, EdgePosition, Timestamp)>;

pub fn measure(mut w: World, seconds: f64, mut tracer: Option<&mut Tracer>) -> Phase {
    for round in 0..WARMUP_ROUNDS {
        let (now, trickle, batch) = w.next_round(round);
        w.server.ingest_batch(&trickle);
        w.server.knn_batch(&batch, now);
        if (round + 1).is_multiple_of(EPOCH_ROUNDS) {
            w.server.rebalance_shards();
        }
    }
    // Sizes after a fixed amount of work, so they do not depend on how
    // many rounds the timed phase gets through.
    let index_mb = w.server.index_size().total() as f64 / 1e6;
    let rss_mb = peak_rss_mb();

    let mut latency_ns: Vec<u64> = Vec::new();
    let mut total_hybrid_ns = 0u64;
    let (mut wall_ns, mut ingest_wall_ns) = (0u64, 0u64);
    let (mut host_ns, mut unattributed_ns) = (0u64, 0u64);
    let (mut candidates, mut unresolved, mut shared_cells) = (0u64, 0u64, 0u64);
    let (mut pipelined_ns, mut serial_ns) = (0u64, 0u64);
    let (mut rebalance_ns, mut rebalances) = (0u64, 0u64);
    let mut ring_spans: Vec<u64> = Vec::new();
    let mut samples: Vec<Sample> = Vec::new();
    let (mut queries, mut failed, mut messages) = (0u64, 0u64, 0u64);

    let before = snap(&w.server);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut round = WARMUP_ROUNDS;
    while Instant::now() < deadline {
        // Generating the round and holding back oracle samples is the
        // benchmark's own work, left out of the round's wall time.
        let (now, trickle, batch) = w.next_round(round);
        let sampled = round.is_multiple_of(SAMPLE_EVERY) && samples.len() < MAX_SAMPLES;
        let live = sampled.then(|| w.reported.live(now, w.t_delta_ms));

        let server = &mut w.server;
        let c0 = clocks(server);
        let t0 = Instant::now();
        let ingest_ok = catch_unwind(AssertUnwindSafe(|| {
            server.ingest_batch(&trickle);
        }))
        .is_ok();
        let t1 = Instant::now();
        let c1 = clocks(server);
        let result = catch_unwind(AssertUnwindSafe(|| server.knn_batch(&batch, now)));
        let t2 = Instant::now();
        let c2 = clocks(server);
        let ingest_ns = (t1 - t0).as_nanos() as u64;
        messages += trickle.len() as u64;
        total_hybrid_ns += c0.hybrid(&c1, ingest_ns);
        queries += BATCH as u64;

        match result {
            Ok(r) if ingest_ok => {
                // Every query of the batch waits for the batch makespan.
                let makespan = r.pipelined_time.0;
                latency_ns.extend(std::iter::repeat_n(makespan, BATCH));
                total_hybrid_ns += makespan;
                pipelined_ns += makespan;
                serial_ns += r.serial_time.0;
                shared_cells += r.shared_cells as u64;
                let host = ((t2 - t1).as_nanos() as u64).saturating_sub(c2.emu - c1.emu);
                let cpu: u64 = r.per_query.iter().map(|b| b.cpu_ns).sum();
                host_ns += host;
                unattributed_ns += host.saturating_sub(cpu);
                for b in &r.per_query {
                    candidates += b.candidates as u64;
                    unresolved += b.unresolved as u64;
                    ring_spans.push(b.ring_span as u64);
                }
                if let Some(tr) = tracer.as_deref_mut() {
                    let parent = tr.span(Span {
                        layer: "round",
                        request: round,
                        parent: None,
                        start_ns: tr.at(t0),
                        end_ns: tr.at(t2),
                        clock: "measured",
                        counts: vec![("messages", TRICKLE as u64), ("queries", BATCH as u64)],
                    });
                    tr.span(Span {
                        layer: "ingest",
                        request: round,
                        parent,
                        start_ns: tr.at(t0),
                        end_ns: tr.at(t1),
                        clock: "measured",
                        counts: vec![("messages", TRICKLE as u64)],
                    });
                    tr.span(Span {
                        layer: "knn_batch",
                        request: round,
                        parent,
                        start_ns: tr.at(t1),
                        end_ns: tr.at(t2),
                        clock: "measured",
                        counts: vec![
                            ("emulation_ns", c2.emu - c1.emu),
                            ("pipelined_ns", makespan),
                            ("serial_ns", r.serial_time.0),
                            ("shared_cells", r.shared_cells as u64),
                            (
                                "cross_shard_rounds",
                                r.per_query.iter().map(|b| b.cross_shard_rounds).sum(),
                            ),
                            (
                                "replica_hits",
                                r.per_query.iter().map(|b| b.replica_hits).sum(),
                            ),
                        ],
                    });
                }
                if let Some(live) = live {
                    for (i, &(q, k)) in batch.iter().enumerate().take(2) {
                        samples.push(Sample {
                            q,
                            k,
                            live: live.clone(),
                            answer: r.answers[i].clone(),
                        });
                    }
                }
            }
            _ => failed += BATCH as u64,
        }

        if (round + 1).is_multiple_of(EPOCH_ROUNDS) {
            let t3 = Instant::now();
            let c3 = clocks(server);
            let moved = catch_unwind(AssertUnwindSafe(|| server.rebalance_shards()));
            let t4 = Instant::now();
            let ns = (t4 - t3).as_nanos() as u64;
            total_hybrid_ns += c3.hybrid(&clocks(server), ns);
            rebalance_ns += ns;
            rebalances += 1;
            if moved.is_err() {
                failed += 1;
            }
            if let Some(tr) = tracer.as_deref_mut() {
                tr.span(Span {
                    layer: "rebalance",
                    request: round,
                    parent: None,
                    start_ns: tr.at(t3),
                    end_ns: tr.at(t4),
                    clock: "measured",
                    counts: vec![],
                });
            }
        }
        wall_ns += t0.elapsed().as_nanos() as u64;
        ingest_wall_ns += ingest_ns;
        round += 1;
    }
    let after = snap(&w.server);
    failed += oracle(&w.graph, &samples);

    let server = &w.server;
    let q = queries.max(1) as f64;
    let mut v = Values::default();
    v.latency("knn_p50_us", "knn_p99_us", &latency_ns);
    // A closed loop never queues: serve latency is issue-to-answer.
    v.latency("serve_p50_us", "serve_p99_us", &latency_ns);
    v.latency("serve.service_p50_us", "serve.service_p99_us", &latency_ns);
    v.set("amortized_us", total_hybrid_ns as f64 / q / 1e3);
    v.set(
        "ingest_mps",
        messages as f64 * 1e9 / ingest_wall_ns.max(1) as f64,
    );
    v.set("wall_qps", queries as f64 * 1e9 / wall_ns.max(1) as f64);
    v.set(
        "slo_frac",
        latency_ns.iter().filter(|&&l| l <= SLO_NS).count() as f64 / q,
    );
    v.set("index_mb", index_mb);
    v.set("peak_rss_mb", rss_mb);

    counter_layers(&mut v, &before, &after, queries, wall_ns);
    v.set(
        "ingest.us_per_1k_msgs",
        ingest_wall_ns as f64 / 1e3 / (messages.max(1) as f64 / 1e3),
    );
    v.set("sdist.candidates", candidates as f64 / q);
    v.set("refine.unresolved", unresolved as f64 / q);
    v.set("knn.host_us", host_ns as f64 / q / 1e3);
    v.set("knn.unattributed_us", unattributed_ns as f64 / q / 1e3);
    v.set("batch.size_mean", BATCH as f64);
    v.set("batch.shared_cells", shared_cells as f64 * BATCH as f64 / q);
    v.set(
        "batch.pipelined_over_serial",
        crate::metrics::ratio(pipelined_ns as f64, serial_ns as f64),
    );
    for name in [
        "serve.queue_wait_p50_us",
        "serve.queue_wait_p99_us",
        "serve.batch_wait_p50_us",
        "serve.batch_wait_p99_us",
        "serve.deadline_close_frac",
        "serve.fill_close_frac",
        "serve.shed",
        "serve.queue_depth_max",
    ] {
        v.set(name, 0.0);
    }
    v.set(
        "serve.ingest_modeled_us",
        (after.c.modeled_ingest_ns() - before.c.modeled_ingest_ns()) as f64 / q / 1e3,
    );
    ring_spans.sort_unstable();
    v.set("shard.ring_span_p99", tail_percentile(&ring_spans).0 as f64);
    v.set(
        "shard.rebalance_us",
        rebalance_ns as f64 / rebalances.max(1) as f64 / 1e3,
    );

    v.note(format!(
        "network |V|={} |E|={}, {DEVICES} devices, fleet {FLEET} ({HOT_FLEET} in the hot window), trickle {TRICKLE}/round, batches of {BATCH}, k={K}, rebalance every {EPOCH_ROUNDS} rounds",
        w.graph.num_vertices(),
        w.graph.num_edges()
    ));
    v.note(format!(
        "device budget {:.1} MB per device; device-resident at end {:.1} MB over {DEVICES} devices",
        server.config().device_budget_bytes as f64 / 1e6,
        (server.resident_bytes() + server.topology_resident_bytes()) as f64 / 1e6
    ));
    v.note(format!("oracle: {} sampled answers checked", samples.len()));
    v.note(format!(
        "{queries} queries in {:.2} s of round wall time: {:.1} q/s at the machine's speed during the run",
        wall_ns as f64 / 1e9,
        queries as f64 * 1e9 / wall_ns.max(1) as f64
    ));

    Phase {
        values: v,
        attempted: queries,
        failed,
        recon_failures: 0,
    }
}
