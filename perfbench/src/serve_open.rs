//! `serve_open`: open-loop Poisson arrivals at one fixed offered rate on
//! the modeled clock, served by `serve` with the default adaptive
//! `ServeConfig` and maintenance epochs on. Standing subscriptions are
//! registered at set-up and ingest waves are light. At this rate most
//! batches close on the deadline, well below `max_batch_size`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ggrid::serve::{serve, QueryRecord, ServeConfig, ServeQueue, ServeReport};
use ggrid::subscription::SubscriptionId;
use ggrid::{GGridConfig, GGridServer, MovingObjectIndex, ObjectId, Timestamp};
use roadnet::{EdgePosition, Graph};
use workload::{poisson_arrivals, Arrival, CellWindowSampler, OpenLoopConfig};

use crate::common::{
    build_server, counter_layers, cpu_s, oracle, snap, Reported, Sample, SetupTimes,
};
use crate::metrics::{peak_rss_mb, ratio, Values};
use crate::trace::{Span, Tracer};
use crate::{Phase, SLO_NS};

/// Offered load: Poisson queries at `RATE_HZ` per modeled second (about
/// six per 2 ms deadline window), plus `WAVE_HZ` ingest waves of `WAVE`
/// updates each.
const RATE_HZ: f64 = 3_000.0;
const WAVE_HZ: f64 = 50.0;
const WAVE: usize = 64;
const FLEET: usize = 20_000;
const K: usize = 8;
const SUBSCRIPTIONS: usize = 32;
const EPOCH_REQUESTS: u64 = 256;
/// Arrivals within one quantum share a timestamp (one `Timestamp` unit),
/// so a batch can span them; a new timestamp closes the open batch.
const QUANTUM_NS: u64 = 50_000_000;
const BASE: u64 = 1_000;
/// Queries per schedule chunk. One chunk (about 1,040 requests with its
/// ingest waves) is enqueued whole before `serve` drains it, so it must
/// stay below `ServeConfig::client_queue_bound` (4,096).
const CHUNK: usize = 1_024;
/// Chunks served untimed before measuring: the first few thousand queries
/// clean the set-up's fleet load and upload topology, and run at half the
/// steady speed.
const WARMUP_CHUNKS: usize = 4;
/// Every this-many offered queries one is held back for the oracle, up to
/// `MAX_SAMPLES`.
const SAMPLE_EVERY: u64 = 256;
const MAX_SAMPLES: usize = 40;

pub struct World {
    server: GGridServer,
    graph: Arc<Graph>,
    reported: Reported,
    subs: Vec<(SubscriptionId, EdgePosition)>,
    t_delta_ms: u64,
    schedule: Schedule,
}

pub fn setup(seed: u64) -> (World, SetupTimes) {
    let config = GGridConfig::default();
    let t_delta_ms = config.t_delta_ms;
    let (mut server, mut times) = build_server(crate::paper_mix::graph, config);
    let t0 = cpu_s();
    let graph = server.graph().clone();
    let mut sampler = CellWindowSampler::whole_grid(server.grid(), seed ^ 0xF1EE7);
    // One stamp before the schedule's first, so no object's fleet-load
    // report shares a timestamp with its first move.
    let fleet: Vec<_> = (0..FLEET as u64)
        .map(|o| (ObjectId(o), sampler.position(), Timestamp(BASE - 1)))
        .collect();
    server.ingest_batch(&fleet);
    let subs = (0..SUBSCRIPTIONS)
        .map(|_| {
            let q = sampler.position();
            (server.subscribe_knn(q, K, Timestamp(BASE - 1)), q)
        })
        .collect();
    times.fleet_s = cpu_s() - t0;
    let mut reported = Reported::new(FLEET);
    reported.apply(&fleet);
    let world = World {
        server,
        graph,
        reported,
        subs,
        t_delta_ms,
        schedule: Schedule {
            seed,
            chunk: 0,
            offset_ns: 0,
            cursor: 0,
        },
    };
    (world, times)
}

/// The open-loop arrival schedule, drawn chunk by chunk so it never runs
/// out: each chunk is `CHUNK` Poisson queries plus the ingest waves over
/// the same horizon, shifted to start one quantum after the previous chunk
/// ends, so timestamps keep increasing and the server is idle across the
/// gap. Ingest waves update the fleet round-robin, so no object reports
/// twice within one timestamp.
struct Schedule {
    seed: u64,
    chunk: u64,
    offset_ns: u64,
    cursor: u64,
}

impl Schedule {
    fn next_chunk(&mut self, graph: &Graph) -> Vec<Arrival> {
        let mut arrivals = poisson_arrivals(
            graph,
            &OpenLoopConfig {
                seed: self.seed ^ self.chunk.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                queries: CHUNK,
                query_rate_hz: RATE_HZ,
                ingest_rate_hz: WAVE_HZ,
                ingest_wave: WAVE,
                objects: FLEET as u64,
                k: K,
                now_quantum_ns: QUANTUM_NS,
                base_ms: BASE + self.offset_ns / QUANTUM_NS,
            },
        );
        let mut end = 0;
        for a in &mut arrivals {
            let at_ns = match a {
                Arrival::Query { at_ns, .. } => at_ns,
                Arrival::Ingest { at_ns, updates } => {
                    for u in updates {
                        u.0 = ObjectId(self.cursor);
                        self.cursor = (self.cursor + 1) % FLEET as u64;
                    }
                    at_ns
                }
            };
            end = end.max(*at_ns);
            *at_ns += self.offset_ns;
        }
        self.chunk += 1;
        self.offset_ns = (self.offset_ns + end).div_ceil(QUANTUM_NS) * QUANTUM_NS + QUANTUM_NS;
        arrivals
    }
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        epoch_requests: EPOCH_REQUESTS,
        ..Default::default()
    }
}

/// Everything the measured segments served, in order.
#[derive(Default)]
struct Served {
    offered: u64,
    records: Vec<QueryRecord>,
    report: ServeReport,
    samples: Vec<Sample>,
    /// Held-back queries whose record never came back.
    lost_samples: u64,
    last_now: Timestamp,
    /// Wall ns inside `serve`: the timed part of the phase.
    serve_ns: u64,
}

/// Enqueue the schedule's next chunk and serve it on this thread. The
/// schedule is on the modeled clock, so delivering a chunk before `serve`
/// starts changes no answer and no modeled latency, and the run needs no
/// second thread. Each chunk starts after an idle gap, so no backlog spans
/// two `serve` calls.
fn serve_segment(w: &mut World, served: &mut Served) {
    let cfg = serve_config();
    let mut queue = ServeQueue::new(&cfg);
    let mut client = queue.client();
    // Held-back queries by client sequence number; answers filled in below.
    let mut held: Vec<(u64, Sample)> = Vec::new();
    for (seq, a) in w.schedule.next_chunk(&w.graph).into_iter().enumerate() {
        match a {
            Arrival::Query { at_ns, q, k, now } => {
                if served.offered.is_multiple_of(SAMPLE_EVERY)
                    && served.samples.len() + held.len() < MAX_SAMPLES
                {
                    let live = w.reported.live(now, w.t_delta_ms);
                    held.push((
                        seq as u64,
                        Sample {
                            q,
                            k,
                            live,
                            answer: Vec::new(),
                        },
                    ));
                }
                served.last_now = served.last_now.max(now);
                client.query(q, k, now, at_ns);
                served.offered += 1;
            }
            Arrival::Ingest { at_ns, updates } => {
                w.reported.apply(&updates);
                client.ingest(updates, at_ns);
            }
        }
    }
    drop(client);
    let t0 = Instant::now();
    let outcome = serve(&mut w.server, &cfg, queue);
    served.serve_ns += t0.elapsed().as_nanos() as u64;

    for (seq, mut sample) in held {
        match outcome.records.iter().find(|r| r.seq == seq) {
            Some(r) => {
                sample.answer = r.answer.clone();
                served.samples.push(sample);
            }
            None => served.lost_samples += 1,
        }
    }
    let (t, r) = (&mut served.report, &outcome.report);
    t.shed += r.shed;
    t.batches += r.batches;
    t.fill_closes += r.fill_closes;
    t.deadline_closes += r.deadline_closes;
    t.boundary_closes += r.boundary_closes;
    t.epochs += r.epochs;
    t.ingest_modeled_ns += r.ingest_modeled_ns;
    served.records.extend(outcome.records);
}

pub fn measure(mut w: World, seconds: f64, tracer: Option<&mut Tracer>) -> Phase {
    for _ in 0..WARMUP_CHUNKS {
        serve_segment(&mut w, &mut Served::default());
    }
    // Sizes after a fixed amount of work, so they do not depend on how
    // many chunks the timed phase gets through.
    let index_mb = w.server.index_size().total() as f64 / 1e6;
    let rss_mb = peak_rss_mb();
    let cfg = serve_config();
    let before = snap(&w.server);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut served = Served::default();
    while Instant::now() < deadline {
        serve_segment(&mut w, &mut served);
    }
    let serve_end = Instant::now();
    let wall_ns = served.serve_ns;
    let after = snap(&w.server);
    let (records, report, samples) = (&served.records, &served.report, &served.samples);

    let mut failed = 0u64;
    // Every offered query is either answered or shed.
    failed += served.offered.abs_diff(records.len() as u64);
    failed += report.shed;

    // Oracle over the held-back queries, then the standing queries.
    failed += served.lost_samples;
    failed += oracle(&w.graph, samples);
    w.server.tick_subscriptions(served.last_now);
    for &(id, q) in &w.subs {
        let maintained = w.server.subscription_result(id).map(<[_]>::to_vec);
        if maintained != Some(w.server.knn(q, K, served.last_now)) {
            failed += 1;
        }
    }

    let answered: Vec<&QueryRecord> = records.iter().filter(|r| !r.shed).collect();
    let (batch_service_ns, recon_failures) = batches(&answered);
    let n = answered.len() as u64;
    let q = n.max(1) as f64;
    let lat: Vec<u64> = answered.iter().map(|r| r.latency_ns()).collect();
    let service: Vec<u64> = answered.iter().map(|r| r.service_ns).collect();
    let busy_ns = batch_service_ns.iter().sum::<u64>() + report.ingest_modeled_ns;

    let mut v = Values::default();
    v.latency("serve_p50_us", "serve_p99_us", &lat);
    // Issue-to-answer once the batch launches: the hybrid batch makespan
    // plus the ingest flush it forces.
    v.latency("knn_p50_us", "knn_p99_us", &service);
    v.latency("serve.service_p50_us", "serve.service_p99_us", &service);
    v.latency(
        "serve.queue_wait_p50_us",
        "serve.queue_wait_p99_us",
        &answered.iter().map(|r| r.queue_wait_ns).collect::<Vec<_>>(),
    );
    v.latency(
        "serve.batch_wait_p50_us",
        "serve.batch_wait_p99_us",
        &answered.iter().map(|r| r.batch_wait_ns).collect::<Vec<_>>(),
    );
    v.set("amortized_us", busy_ns as f64 / q / 1e3);
    let ingested = (after.c.updates_ingested - before.c.updates_ingested) as f64;
    let ingest_busy = (after.c.ingest_busy_ns - before.c.ingest_busy_ns) as f64;
    // The serve loop's ingest calls are timed inside the server.
    v.set("ingest_mps", ratio(ingested * 1e9, ingest_busy));
    v.set("wall_qps", n as f64 * 1e9 / wall_ns.max(1) as f64);
    v.set(
        "slo_frac",
        ratio(
            lat.iter().filter(|&&l| l <= SLO_NS).count() as f64,
            served.offered as f64,
        ),
    );
    v.set("index_mb", index_mb);
    v.set("peak_rss_mb", rss_mb);

    counter_layers(&mut v, &before, &after, n, wall_ns);
    v.set("ingest.us_per_1k_msgs", ratio(ingest_busy, ingested));
    let emu = (after.c.emulation_ns - before.c.emulation_ns) as f64;
    let host = (wall_ns as f64 - emu).max(0.0);
    let cpu = (after.c.query_cpu_ns - before.c.query_cpu_ns) as f64
        + (after.c.subs_cpu_ns - before.c.subs_cpu_ns) as f64
        + ingest_busy;
    v.set("knn.host_us", host / q / 1e3);
    v.set("knn.unattributed_us", (host - cpu).max(0.0) / q / 1e3);
    // `serve` does not hand out the per-query breakdowns or the batch's
    // serial time, so these read zero here; sharded_hot reports them.
    v.set("sdist.candidates", 0.0);
    v.set("refine.unresolved", 0.0);
    v.set("batch.pipelined_over_serial", 0.0);
    v.set("batch.size_mean", ratio(n as f64, report.batches as f64));
    v.set(
        "batch.shared_cells",
        ratio(
            (after.c.batch_shared_cells - before.c.batch_shared_cells) as f64,
            report.batches as f64,
        ),
    );
    v.set(
        "serve.deadline_close_frac",
        ratio(report.deadline_closes as f64, report.batches as f64),
    );
    v.set(
        "serve.fill_close_frac",
        ratio(report.fill_closes as f64, report.batches as f64),
    );
    v.set("serve.shed", report.shed as f64);
    v.set("serve.queue_depth_max", max_waiting(&answered) as f64);
    v.set(
        "serve.ingest_modeled_us",
        report.ingest_modeled_ns as f64 / q / 1e3,
    );
    // One device: every candidate ring stays on it, and rebalancing is a
    // no-op the serve loop runs internally.
    v.set("shard.ring_span_p99", 1.0);
    v.set("shard.rebalance_us", 0.0);

    v.note(format!(
        "network |V|={} |E|={}, fleet {FLEET}, {SUBSCRIPTIONS} subscriptions, offered {RATE_HZ} q/s + {WAVE_HZ} waves/s x {WAVE} updates (modeled), k={K}, deadline {} us, max batch {}, epoch every {EPOCH_REQUESTS} requests, SLO {} us",
        w.graph.num_vertices(),
        w.graph.num_edges(),
        cfg.deadline_ns / 1000,
        cfg.max_batch_size,
        SLO_NS / 1000
    ));
    v.note(format!(
        "offered {} queries, answered {n}, shed {}, {} batches ({} deadline, {} fill, {} boundary closes), {} epochs",
        served.offered,
        report.shed,
        report.batches,
        report.deadline_closes,
        report.fill_closes,
        report.boundary_closes,
        report.epochs
    ));
    v.note(format!(
        "oracle: {} sampled answers and {} subscriptions checked; amortized_us counts each batch's ingest flush in both service and ingest_modeled_ns",
        samples.len(),
        w.subs.len()
    ));
    v.note("sdist.candidates, refine.unresolved and batch.pipelined_over_serial are not exposed by serve and read 0");

    if let Some(tr) = tracer {
        let root = tr.span(Span {
            layer: "timed_phase",
            request: 0,
            parent: None,
            start_ns: tr.at(start),
            end_ns: tr.at(serve_end),
            clock: "measured",
            counts: vec![("offered", served.offered), ("batches", report.batches)],
        });
        for r in &answered {
            let a = r.arrival_ns;
            let open = a + r.queue_wait_ns;
            let launch = open + r.batch_wait_ns;
            let parent = tr.span(Span {
                layer: "query",
                request: r.seq,
                parent: root,
                start_ns: a,
                end_ns: a + r.latency_ns(),
                clock: "modeled",
                counts: vec![("batch_size", r.batch_size as u64)],
            });
            for (layer, s, e) in [
                ("queue_wait", a, open),
                ("batch_wait", open, launch),
                ("service", launch, launch + r.service_ns),
            ] {
                tr.span(Span {
                    layer,
                    request: r.seq,
                    parent,
                    start_ns: s,
                    end_ns: e,
                    clock: "modeled",
                    counts: vec![],
                });
            }
        }
    }

    Phase {
        values: v,
        attempted: served.offered,
        failed,
        recon_failures,
    }
}

/// The most queries waiting at once on the modeled timeline: arrived but
/// not yet launched, queued behind a busy server or forming a batch. (The
/// real channel's depth says nothing here, since each chunk is enqueued
/// whole before `serve` starts.)
fn max_waiting(answered: &[&QueryRecord]) -> i64 {
    let mut events: Vec<(u64, i64)> = answered
        .iter()
        .flat_map(|r| {
            let launch = r.arrival_ns + r.queue_wait_ns + r.batch_wait_ns;
            [(r.arrival_ns, 1), (launch, -1)]
        })
        .collect();
    // At equal instants launches go first: a query launched at t no longer
    // waits at t.
    events.sort_unstable();
    events
        .iter()
        .scan(0i64, |depth, &(_, d)| {
            *depth += d;
            Some(*depth)
        })
        .max()
        .unwrap_or(0)
}

/// Group answered records into their batches (each batch's members are
/// contiguous, `batch_size` of them) and reconcile every record: its
/// waits and service sum to its latency, and every member of one batch
/// launched at the same modeled instant. Returns each batch's service time
/// and the number of records that failed.
fn batches(answered: &[&QueryRecord]) -> (Vec<u64>, u64) {
    let mut out = Vec::new();
    let mut failures = 0u64;
    let mut i = 0;
    while i < answered.len() {
        let size = answered[i].batch_size.max(1);
        let members = &answered[i..(i + size).min(answered.len())];
        let launch = |r: &QueryRecord| r.arrival_ns + r.queue_wait_ns + r.batch_wait_ns;
        let t_start = launch(members[0]);
        for r in members {
            let sum = r.queue_wait_ns + r.batch_wait_ns + r.service_ns;
            if sum != r.latency_ns()
                || launch(r) != t_start
                || r.service_ns != members[0].service_ns
                || r.batch_size != size
            {
                failures += 1;
            }
        }
        out.push(members[0].service_ns);
        i += size;
    }
    (out, failures)
}
