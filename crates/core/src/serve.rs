//! The serving loop: SLO-driven adaptive batching over an MPSC request
//! queue (DESIGN.md §5.10).
//!
//! [`GGridServer::knn_batch`] made the batch the unit of device work, but
//! until now batches were formed synchronously by the caller. This module
//! adds the missing serving layer: concurrent client threads enqueue
//! queries and ingest messages onto one MPSC channel, and a single loop
//! thread — the one holding `&mut GGridServer` — forms device batches out
//! of the merged stream, closing each batch on **fill**
//! ([`ServeConfig::max_batch_size`]) or on a **modeled-ns deadline**
//! ([`ServeConfig::deadline_ns`]), whichever comes first. Admission
//! control sheds queries whose modeled backlog wait exceeds
//! [`ServeConfig::shed_wait_ns`], and a per-client depth bound
//! backpressures producers that outrun the loop.
//!
//! ## Determinism and byte-identity
//!
//! Thread scheduling must not change answers. Every request carries a
//! client-assigned **modeled arrival stamp** (nanoseconds on the same
//! virtual clock the batch former runs on), monotone per client; the loop
//! releases requests in the total order `(arrival_ns, client, seq)` using
//! a watermark merge — a request is released only once every still-open
//! client has a queued request (or has closed), so no later-arriving
//! smaller stamp can exist. Batch formation, shedding, and latency
//! accounting are all functions of that deterministic order and the
//! modeled clock, so for a fixed request schedule the answers are
//! byte-identical to replaying the same events against
//! [`GGridServer::knn_batch`] / [`GGridServer::ingest_batch`] directly —
//! for every client count and every host-thread interleaving (proptested
//! in `tests/serve.rs`).
//!
//! ## Latency accounting
//!
//! Per completed query, with `a` its arrival stamp, `t_open` the moment
//! its batch opened (`max(server-free time, first arrival)`) and `t_start`
//! the moment the batch launched:
//!
//! ```text
//! queue_wait = max(0, t_open − a)        backlog: server busy on arrival
//! batch_wait = t_start − max(t_open, a)  waiting for fill or deadline
//! service    = flush cost + BatchResult::pipelined_time
//! latency    = queue_wait + batch_wait + service = completion − a
//! ```
//!
//! Ingest is buffered ([`GGridServer::ingest_buffered`]) at its stamp slot
//! and each ingest call is charged what it added to the server's own model,
//! [`ServerCounters::modeled_ingest_ns`] (locks, appends, tombstones, slab
//! allocations, per the `ingest_model` constants); the cost of the flush
//! is paid when a query batch (which must observe the messages) executes —
//! so query batches and ingest flushes interleave on the one modeled
//! timeline and neither starves the other.
//!
//! [`ServerCounters::modeled_ingest_ns`]: crate::stats::ServerCounters::modeled_ingest_ns

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};

use roadnet::{Distance, EdgePosition};

use crate::message::{ObjectId, Timestamp};
use crate::server::GGridServer;
use crate::stats::Hist;

/// Knobs of the serving loop. All times are modeled nanoseconds (the same
/// hybrid clock as [`crate::stats::QueryBreakdown::total_ns`]).
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// A batch launches as soon as it holds this many queries.
    pub max_batch_size: usize,
    /// A batch launches at `t_open + deadline_ns` even if not full, where
    /// `t_open = max(server-free time, first arrival)`. `u64::MAX` disables
    /// the deadline (fixed-fill batching). `0` takes in only the queries
    /// that arrived by `t_open`: on an idle server, those sharing the
    /// opening arrival instant; on a busy one, every query that arrived
    /// before the server came free, all launching together at that moment.
    pub deadline_ns: u64,
    /// Admission control: a query whose modeled backlog wait (time until
    /// the server is free) already exceeds this at release is shed instead
    /// of queued for service. `u64::MAX` never sheds. Ingest is never shed.
    pub shed_wait_ns: u64,
    /// Backpressure: a client blocks in [`ServeClient`] while it has this
    /// many requests in flight (sent but not yet released by the loop).
    /// `0` disables the bound. This is a *real* (not modeled) bound — it
    /// caps queue memory without affecting answers.
    pub client_queue_bound: usize,
    /// Every this-many released requests the loop runs a maintenance
    /// epoch: flush buffered ingest, [`GGridServer::tick_subscriptions`]
    /// at the newest timestamp seen, and [`GGridServer::rebalance_shards`]
    /// — so standing queries stay fresh under open-loop load without an
    /// external caller. `0` disables epochs.
    pub epoch_requests: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch_size: 32,
            deadline_ns: 2_000_000,
            shed_wait_ns: u64::MAX,
            client_queue_bound: 4096,
            epoch_requests: 0,
        }
    }
}

impl ServeConfig {
    /// Panics on nonsensical settings.
    pub fn validate(&self) {
        assert!(self.max_batch_size >= 1, "max_batch_size must be >= 1");
    }
}

/// Lock-free per-queue counters (the snippet-3 playbook: atomics on the
/// counter path, never a mutex). Clients bump `enqueued`/`depth`; the loop
/// bumps `dequeued`/`shed`. Everything else the serve loop shares across
/// threads is the MPSC channel itself and the server.
#[derive(Debug, Default)]
pub(crate) struct QueueCounters {
    /// Requests sent by clients.
    pub enqueued: AtomicU64,
    /// Requests released (in stamp order) by the loop.
    pub dequeued: AtomicU64,
    /// Queries shed by admission control (subset of `dequeued`).
    pub shed: AtomicU64,
    /// Current queue depth (enqueued − released).
    pub depth: AtomicU64,
    /// High-water mark of `depth`.
    pub depth_high_water: AtomicU64,
}

impl QueueCounters {
    fn note_enqueue(&self) {
        self.enqueued.fetch_add(1, Ordering::Relaxed);
        let d = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.depth_high_water.fetch_max(d, Ordering::Relaxed);
    }

    fn note_dequeue(&self) {
        self.dequeued.fetch_add(1, Ordering::Relaxed);
        self.depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Relaxed point-in-time copy.
    pub(crate) fn snapshot(&self) -> QueueSnapshot {
        QueueSnapshot {
            enqueued: self.enqueued.load(Ordering::Relaxed),
            dequeued: self.dequeued.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            depth_high_water: self.depth_high_water.load(Ordering::Relaxed),
        }
    }
}

/// Plain-integer snapshot of the serve queue's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueSnapshot {
    pub enqueued: u64,
    pub dequeued: u64,
    pub shed: u64,
    pub depth_high_water: u64,
}

enum Payload {
    Query {
        q: EdgePosition,
        k: usize,
        now: Timestamp,
    },
    Ingest(Vec<(ObjectId, EdgePosition, Timestamp)>),
    Close,
}

struct Envelope {
    client: u32,
    seq: u64,
    arrival_ns: u64,
    payload: Payload,
}

/// The request queue: create one, hand a [`ServeClient`] to each producer
/// thread, then pass the queue to [`serve`]. Clients must all be created
/// *before* the loop runs (the queue is consumed by [`serve`], so the
/// borrow checker enforces this).
pub struct ServeQueue {
    tx: mpsc::Sender<Envelope>,
    rx: mpsc::Receiver<Envelope>,
    counters: Arc<QueueCounters>,
    inflight: Vec<Arc<AtomicU64>>,
    bound: usize,
}

impl ServeQueue {
    pub fn new(cfg: &ServeConfig) -> Self {
        cfg.validate();
        let (tx, rx) = mpsc::channel();
        Self {
            tx,
            rx,
            counters: Arc::new(QueueCounters::default()),
            inflight: Vec::new(),
            bound: cfg.client_queue_bound,
        }
    }

    /// Register a new client. Each client owns a monotone arrival-stamp
    /// lane in the merge; a client that stops sending without being
    /// dropped stalls the loop (the watermark cannot advance past it), so
    /// move clients into their threads and let them drop on completion.
    pub fn client(&mut self) -> ServeClient {
        let inflight = Arc::new(AtomicU64::new(0));
        self.inflight.push(Arc::clone(&inflight));
        ServeClient {
            tx: self.tx.clone(),
            id: (self.inflight.len() - 1) as u32,
            seq: 0,
            last_arrival: 0,
            inflight,
            counters: Arc::clone(&self.counters),
            bound: self.bound,
        }
    }
}

/// A producer handle onto the serve queue. Cheap to move across threads;
/// dropping it closes the client's lane. Arrival stamps are modeled
/// nanoseconds and must be non-decreasing per client.
pub struct ServeClient {
    tx: mpsc::Sender<Envelope>,
    id: u32,
    seq: u64,
    last_arrival: u64,
    inflight: Arc<AtomicU64>,
    counters: Arc<QueueCounters>,
    bound: usize,
}

impl ServeClient {
    /// Enqueue a kNN query arriving at modeled time `arrival_ns`.
    pub fn query(&mut self, q: EdgePosition, k: usize, now: Timestamp, arrival_ns: u64) {
        self.send(arrival_ns, Payload::Query { q, k, now });
    }

    /// Enqueue a batch of location updates arriving at `arrival_ns`.
    pub fn ingest(&mut self, updates: Vec<(ObjectId, EdgePosition, Timestamp)>, arrival_ns: u64) {
        if updates.is_empty() {
            return;
        }
        self.send(arrival_ns, Payload::Ingest(updates));
    }

    fn send(&mut self, arrival_ns: u64, payload: Payload) {
        assert!(
            arrival_ns >= self.last_arrival,
            "per-client arrival stamps must be non-decreasing"
        );
        self.last_arrival = arrival_ns;
        if self.bound > 0 {
            // Backpressure: spin-yield until the loop drains our lane. The
            // loop never needs *new* input from a lane that has pending
            // requests, so this cannot deadlock the watermark merge.
            while self.inflight.load(Ordering::Acquire) >= self.bound as u64 {
                std::thread::yield_now();
            }
        }
        self.inflight.fetch_add(1, Ordering::Release);
        self.counters.note_enqueue();
        let env = Envelope {
            client: self.id,
            seq: self.seq,
            arrival_ns,
            payload,
        };
        self.seq += 1;
        self.tx.send(env).expect("serve loop hung up");
    }
}

impl Drop for ServeClient {
    fn drop(&mut self) {
        let _ = self.tx.send(Envelope {
            client: self.id,
            seq: self.seq,
            arrival_ns: self.last_arrival,
            payload: Payload::Close,
        });
    }
}

/// One completed (or shed) query, with its latency decomposition.
#[derive(Clone, Debug)]
pub struct QueryRecord {
    pub client: u32,
    pub seq: u64,
    /// Modeled arrival stamp.
    pub arrival_ns: u64,
    /// Backlog wait: server still busy when the query arrived.
    pub queue_wait_ns: u64,
    /// Batch-forming wait: fill or deadline.
    pub batch_wait_ns: u64,
    /// Modeled batch service time (shared by all queries of the batch).
    pub service_ns: u64,
    /// Queries in the batch that served this one (0 when shed).
    pub batch_size: usize,
    /// True when admission control dropped the query unanswered.
    pub shed: bool,
    pub answer: Vec<(ObjectId, Distance)>,
}

impl QueryRecord {
    /// Modeled end-to-end latency (0 for shed queries).
    pub fn latency_ns(&self) -> u64 {
        self.queue_wait_ns + self.batch_wait_ns + self.service_ns
    }
}

/// Aggregate report of one [`serve`] run.
#[derive(Clone, Debug, Default)]
pub struct ServeReport {
    /// Queries answered (excludes shed).
    pub queries: u64,
    /// Queries shed by admission control.
    pub shed: u64,
    /// Query batches launched.
    pub batches: u64,
    /// Batches closed by reaching `max_batch_size`.
    pub fill_closes: u64,
    /// Batches closed by the modeled deadline.
    pub deadline_closes: u64,
    /// Batches closed by a stream boundary (timestamp change, ingest at
    /// its slot, maintenance epoch, or end of stream).
    pub boundary_closes: u64,
    /// Ingest envelopes applied.
    pub ingest_events: u64,
    /// Maintenance epochs run.
    pub epochs: u64,
    /// Subscriptions re-validated across all epoch ticks.
    pub subs_invalidated: u64,
    /// Modeled ns charged to ingest: the sum of what each ingest call and
    /// flush added to [`ServerCounters::modeled_ingest_ns`].
    ///
    /// [`ServerCounters::modeled_ingest_ns`]: crate::stats::ServerCounters::modeled_ingest_ns
    pub ingest_modeled_ns: u64,
    /// End-to-end modeled latency of answered queries.
    pub latency_hist: Hist,
    /// Backlog-wait component.
    pub queue_wait_hist: Hist,
    /// Launched batch sizes.
    pub batch_size_hist: Hist,
    /// Modeled time the last work item completed.
    pub end_ns: u64,
    /// Arrival stamp of the first request.
    pub first_arrival_ns: u64,
    /// Queue counters at loop exit.
    pub queue: QueueSnapshot,
}

impl ServeReport {
    /// Answered queries per second of modeled serving time.
    pub fn throughput_qps(&self) -> f64 {
        let span = self.end_ns.saturating_sub(self.first_arrival_ns);
        if span == 0 {
            return 0.0;
        }
        self.queries as f64 * 1e9 / span as f64
    }
}

/// Everything [`serve`] produces: per-query records (in service order,
/// shed included) plus the aggregate report.
pub struct ServeOutcome {
    pub records: Vec<QueryRecord>,
    pub report: ServeReport,
}

/// Watermark merge over the per-client lanes: a request is released only
/// when every open lane can prove no smaller stamp is still in flight.
struct Merge {
    rx: mpsc::Receiver<Envelope>,
    lanes: Vec<VecDeque<Envelope>>,
    open: Vec<bool>,
}

impl Merge {
    fn new(rx: mpsc::Receiver<Envelope>, clients: usize) -> Self {
        Self {
            rx,
            lanes: (0..clients).map(|_| VecDeque::new()).collect(),
            open: vec![true; clients],
        }
    }

    fn ready(&self) -> bool {
        self.lanes
            .iter()
            .zip(&self.open)
            .all(|(l, &o)| !o || !l.is_empty())
    }

    fn next(&mut self) -> Option<Envelope> {
        loop {
            while !self.ready() {
                match self.rx.recv() {
                    Ok(env) => {
                        let c = env.client as usize;
                        match env.payload {
                            Payload::Close => self.open[c] = false,
                            _ => self.lanes[c].push_back(env),
                        }
                    }
                    // Every sender dropped: no lane can grow again.
                    Err(_) => self.open.iter_mut().for_each(|o| *o = false),
                }
            }
            let head = self
                .lanes
                .iter()
                .enumerate()
                .filter_map(|(c, l)| l.front().map(|e| (e.arrival_ns, c, e.seq)))
                .min();
            match head {
                Some((_, c, _)) => return self.lanes[c].pop_front(),
                None if self.open.iter().any(|&o| o) => continue,
                None => return None,
            }
        }
    }
}

/// An open (not yet launched) batch in the former.
struct OpenBatch {
    now: Timestamp,
    t_open: u64,
    queries: Vec<(EdgePosition, usize)>,
    meta: Vec<(u32, u64, u64)>, // (client, seq, arrival_ns)
}

impl OpenBatch {
    fn deadline_close(&self, cfg: &ServeConfig) -> u64 {
        self.t_open.saturating_add(cfg.deadline_ns)
    }
}

/// Why a batch is being launched; determines its modeled start time.
enum Close {
    /// Reached `max_batch_size`; launches at the filling query's arrival.
    Fill,
    /// An event at `at` proved nothing more joins (incompatible query,
    /// ingest, epoch) — launches at `min(at, deadline)`.
    Boundary(u64),
    /// Every client disconnected, so nothing more can join; launches
    /// immediately (flush-on-EOF) rather than waiting out the deadline.
    End,
}

/// Run one ingest call on `server` and return its modeled cost: what it
/// added to [`ServerCounters::modeled_ingest_ns`], the server's one ingest
/// model (read through `GGridServer::ingest_modeled_ns`, which walks no
/// cell list).
///
/// [`ServerCounters::modeled_ingest_ns`]: crate::stats::ServerCounters::modeled_ingest_ns
fn billed<T>(server: &GGridServer, call: impl FnOnce(&GGridServer) -> T) -> u64 {
    let before = server.ingest_modeled_ns();
    call(server);
    server.ingest_modeled_ns() - before
}

/// Run the serving loop to completion: release requests in stamp order,
/// form and execute query batches, apply ingest, run maintenance epochs,
/// and account modeled latency. Returns when every client has closed and
/// the queue drained. Single-threaded over `&mut server` — the only state
/// shared with client threads is the MPSC channel and the queue counters.
pub fn serve(server: &mut GGridServer, cfg: &ServeConfig, queue: ServeQueue) -> ServeOutcome {
    cfg.validate();
    let ServeQueue {
        tx,
        rx,
        counters,
        inflight,
        ..
    } = queue;
    // Drop the queue's own sender so channel disconnect backstops any
    // client that vanishes without a Close envelope.
    drop(tx);
    let mut merge = Merge::new(rx, inflight.len());

    let mut out = ServeOutcome {
        records: Vec::new(),
        report: ServeReport::default(),
    };
    let mut free_ns = 0u64;
    let mut batch: Option<OpenBatch> = None;
    let mut released = 0u64;
    let mut first_arrival: Option<u64> = None;
    let mut last_now = Timestamp(0);

    // Launch `b` and record every member's latency decomposition.
    let execute = |server: &mut GGridServer,
                   b: OpenBatch,
                   why: Close,
                   free_ns: &mut u64,
                   out: &mut ServeOutcome| {
        let last_arrival = b.meta.last().map(|&(_, _, a)| a).unwrap_or(b.t_open);
        let deadline = b.deadline_close(cfg);
        let t_start = match why {
            Close::Fill => b.t_open.max(last_arrival),
            Close::Boundary(at) => b.t_open.max(at.min(deadline)),
            Close::End => b.t_open.max(last_arrival),
        };
        match why {
            Close::Fill => out.report.fill_closes += 1,
            Close::Boundary(at) if at > deadline => out.report.deadline_closes += 1,
            Close::Boundary(_) => out.report.boundary_closes += 1,
            Close::End => out.report.boundary_closes += 1,
        }
        // Pay the buffered-ingest flush the batch forces (the queries must
        // observe every message with a smaller stamp), then the batch.
        let flush_ns = billed(server, GGridServer::flush_ingest);
        out.report.ingest_modeled_ns += flush_ns;
        let result = server.knn_batch(&b.queries, b.now);
        let service_ns = flush_ns + result.pipelined_time.0;
        *free_ns = t_start + service_ns;
        out.report.batches += 1;
        out.report.queries += b.queries.len() as u64;
        out.report.batch_size_hist.record(b.queries.len() as u64);
        for (&(client, seq, a), answer) in b.meta.iter().zip(result.answers) {
            let queue_wait_ns = b.t_open.saturating_sub(a);
            let batch_wait_ns = t_start - b.t_open.max(a);
            let rec = QueryRecord {
                client,
                seq,
                arrival_ns: a,
                queue_wait_ns,
                batch_wait_ns,
                service_ns,
                batch_size: b.queries.len(),
                shed: false,
                answer,
            };
            out.report.latency_hist.record(rec.latency_ns());
            out.report.queue_wait_hist.record(queue_wait_ns);
            out.records.push(rec);
        }
    };

    while let Some(env) = merge.next() {
        counters.note_dequeue();
        inflight[env.client as usize].fetch_sub(1, Ordering::Release);
        released += 1;
        first_arrival.get_or_insert(env.arrival_ns);

        match env.payload {
            Payload::Query { q, k, now } => {
                last_now = last_now.max(now);
                if let Some(b) = &batch {
                    let fits = now == b.now
                        && b.queries.len() < cfg.max_batch_size
                        && env.arrival_ns <= b.deadline_close(cfg);
                    if !fits {
                        let b = batch.take().unwrap();
                        execute(
                            server,
                            b,
                            Close::Boundary(env.arrival_ns),
                            &mut free_ns,
                            &mut out,
                        );
                    }
                }
                let backlog = free_ns.saturating_sub(env.arrival_ns);
                if backlog > cfg.shed_wait_ns {
                    counters.shed.fetch_add(1, Ordering::Relaxed);
                    out.report.shed += 1;
                    out.records.push(QueryRecord {
                        client: env.client,
                        seq: env.seq,
                        arrival_ns: env.arrival_ns,
                        queue_wait_ns: backlog,
                        batch_wait_ns: 0,
                        service_ns: 0,
                        batch_size: 0,
                        shed: true,
                        answer: Vec::new(),
                    });
                } else {
                    let b = batch.get_or_insert_with(|| OpenBatch {
                        now,
                        t_open: free_ns.max(env.arrival_ns),
                        queries: Vec::with_capacity(cfg.max_batch_size),
                        meta: Vec::with_capacity(cfg.max_batch_size),
                    });
                    b.queries.push((q, k));
                    b.meta.push((env.client, env.seq, env.arrival_ns));
                    if b.queries.len() == cfg.max_batch_size {
                        let b = batch.take().unwrap();
                        execute(server, b, Close::Fill, &mut free_ns, &mut out);
                    }
                }
            }
            Payload::Ingest(updates) => {
                if let Some(b) = batch.take() {
                    execute(
                        server,
                        b,
                        Close::Boundary(env.arrival_ns),
                        &mut free_ns,
                        &mut out,
                    );
                }
                if let Some(ts) = updates.iter().map(|&(_, _, t)| t).max() {
                    last_now = last_now.max(ts);
                }
                let ingest_ns = billed(server, |s| s.ingest_buffered(&updates));
                out.report.ingest_modeled_ns += ingest_ns;
                free_ns = free_ns.max(env.arrival_ns) + ingest_ns;
                out.report.ingest_events += 1;
            }
            Payload::Close => unreachable!("Close envelopes are consumed by the merge"),
        }

        if cfg.epoch_requests > 0 && released.is_multiple_of(cfg.epoch_requests) {
            if let Some(b) = batch.take() {
                let at = b.meta.last().map(|&(_, _, a)| a).unwrap_or(b.t_open);
                execute(server, b, Close::Boundary(at), &mut free_ns, &mut out);
            }
            let flush_ns = billed(server, GGridServer::flush_ingest);
            out.report.ingest_modeled_ns += flush_ns;
            free_ns += flush_ns;
            // Maintenance runs off the query critical path (a second
            // stream in a real deployment): only its flush contends.
            let tick = server.tick_subscriptions(last_now);
            out.report.subs_invalidated += tick.invalidated as u64;
            server.rebalance_shards();
            out.report.epochs += 1;
        }
    }
    if let Some(b) = batch.take() {
        execute(server, b, Close::End, &mut free_ns, &mut out);
    }
    out.report.ingest_modeled_ns += billed(server, GGridServer::flush_ingest);

    out.report.end_ns = free_ns;
    out.report.first_arrival_ns = first_arrival.unwrap_or(0);
    out.report.queue = counters.snapshot();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GGridConfig;
    use roadnet::{gen, EdgeId};

    fn server() -> GGridServer {
        GGridServer::new(
            gen::toy(42),
            GGridConfig {
                t_delta_ms: 1 << 40,
                ..Default::default()
            },
        )
    }

    fn pos(e: u32) -> EdgePosition {
        EdgePosition::at_source(EdgeId(e))
    }

    #[test]
    fn single_client_round_trip() {
        let mut s = server();
        let cfg = ServeConfig::default();
        let mut queue = ServeQueue::new(&cfg);
        let mut c = queue.client();
        c.ingest(vec![(ObjectId(7), pos(0), Timestamp(10))], 0);
        c.query(pos(5), 1, Timestamp(11), 100);
        drop(c);
        let out = serve(&mut s, &cfg, queue);
        assert_eq!(out.report.queries, 1);
        assert_eq!(out.report.ingest_events, 1);
        let q = out.records.iter().find(|r| !r.shed).unwrap();
        assert_eq!(q.answer.len(), 1);
        assert_eq!(q.answer[0].0, ObjectId(7));
        assert!(q.latency_ns() > 0);
        assert_eq!(out.report.queue.enqueued, 2);
        assert_eq!(out.report.queue.dequeued, 2);
    }

    #[test]
    fn ingest_is_billed_on_the_servers_own_model() {
        let mut s = server();
        let edges = s.grid().graph().num_edges() as u64;
        let cfg = ServeConfig {
            epoch_requests: 2,
            ..Default::default()
        };
        let mut queue = ServeQueue::new(&cfg);
        let mut c = queue.client();
        // Forty objects reported in six waves, moving between waves: the
        // moves across cells write tombstones, and the lists open slabs.
        for wave in 0..6u64 {
            let updates = (0..40u64)
                .map(|o| {
                    let e = (o * 7 + wave * 31) % edges;
                    (ObjectId(o), pos(e as u32), Timestamp(10 + wave))
                })
                .collect();
            c.ingest(updates, wave * 1_000);
        }
        drop(c);
        let before = s.counters();
        let out = serve(&mut s, &cfg, queue);
        let after = s.counters();
        assert!(after.tombstones_written > before.tombstones_written);
        assert!(after.bucket_allocs > before.bucket_allocs);
        assert!(out.report.epochs > 0, "epoch flushes are billed too");
        assert_eq!(
            out.report.ingest_modeled_ns,
            after.modeled_ingest_ns() - before.modeled_ingest_ns()
        );
    }

    #[test]
    fn deadline_closes_partial_batch() {
        let mut s = server();
        s.ingest_batch(&[(ObjectId(1), pos(0), Timestamp(1))]);
        let cfg = ServeConfig {
            max_batch_size: 8,
            deadline_ns: 1_000,
            ..Default::default()
        };
        let mut queue = ServeQueue::new(&cfg);
        let mut c = queue.client();
        // Two queries inside one deadline window, a third far outside it:
        // the former must close the first batch at t_open + deadline with
        // only two members.
        c.query(pos(1), 1, Timestamp(2), 0);
        c.query(pos(2), 1, Timestamp(2), 500);
        c.query(pos(3), 1, Timestamp(2), 10_000_000_000);
        drop(c);
        let out = serve(&mut s, &cfg, queue);
        assert_eq!(out.report.batches, 2);
        // First batch deadline-closes; the trailing singleton is flushed
        // on stream end (every client gone), which is a boundary close.
        assert_eq!(out.report.deadline_closes, 1);
        assert_eq!(out.report.boundary_closes, 1);
        assert_eq!(out.records[0].batch_size, 2);
        // The second member waited out the rest of the deadline window.
        assert_eq!(out.records[1].batch_wait_ns, 500);
        assert_eq!(out.records[0].batch_wait_ns, 1_000);
    }

    #[test]
    fn zero_deadline_gathers_the_busy_period() {
        let mut s = server();
        s.ingest_batch(&[(ObjectId(1), pos(0), Timestamp(1))]);
        let cfg = ServeConfig {
            max_batch_size: 8,
            deadline_ns: 0,
            ..Default::default()
        };
        let mut queue = ServeQueue::new(&cfg);
        let mut c = queue.client();
        // The first query keeps the server busy well past t = 2; the next
        // two arrive during that busy period, and a fourth long after.
        c.query(pos(1), 1, Timestamp(2), 0);
        c.query(pos(2), 1, Timestamp(2), 1);
        c.query(pos(3), 1, Timestamp(2), 2);
        c.query(pos(4), 1, Timestamp(2), 10_000_000_000);
        drop(c);
        let out = serve(&mut s, &cfg, queue);
        assert_eq!(out.report.batches, 3);
        let r = &out.records;
        assert_eq!(r[0].batch_size, 1);
        let free_ns = r[0].arrival_ns + r[0].latency_ns();
        assert!(free_ns > 2, "the first batch must outlast both arrivals");
        // Both busy-period arrivals share one batch launched at `free_ns`:
        // all their wait is queueing, none is batching.
        for rec in &r[1..3] {
            assert_eq!(rec.batch_size, 2);
            assert_eq!(rec.queue_wait_ns, free_ns - rec.arrival_ns);
            assert_eq!(rec.batch_wait_ns, 0);
        }
        assert_eq!(r[3].batch_size, 1);
    }

    #[test]
    fn fill_closes_at_max_batch_size() {
        let mut s = server();
        s.ingest_batch(&[(ObjectId(1), pos(0), Timestamp(1))]);
        let cfg = ServeConfig {
            max_batch_size: 4,
            deadline_ns: u64::MAX,
            ..Default::default()
        };
        let mut queue = ServeQueue::new(&cfg);
        let mut c = queue.client();
        for i in 0..8u32 {
            c.query(pos(i % 6), 1, Timestamp(2), u64::from(i));
        }
        drop(c);
        let out = serve(&mut s, &cfg, queue);
        assert_eq!(out.report.batches, 2);
        assert_eq!(out.report.fill_closes, 2);
        assert!(out.records.iter().all(|r| r.batch_size == 4));
    }

    #[test]
    fn shed_on_overflow_drops_backlogged_queries() {
        let mut s = server();
        s.ingest_batch(&[(ObjectId(1), pos(0), Timestamp(1))]);
        let cfg = ServeConfig {
            max_batch_size: 1,
            deadline_ns: 0,
            shed_wait_ns: 0,
            ..Default::default()
        };
        let mut queue = ServeQueue::new(&cfg);
        let mut c = queue.client();
        // Both arrive at t=0; the first occupies the server past t=0, so
        // the second's modeled backlog wait exceeds the zero bound.
        c.query(pos(1), 1, Timestamp(2), 0);
        c.query(pos(2), 1, Timestamp(2), 0);
        drop(c);
        let out = serve(&mut s, &cfg, queue);
        assert_eq!(out.report.queries, 1);
        assert_eq!(out.report.shed, 1);
        assert_eq!(out.report.queue.shed, 1);
        let shed: Vec<_> = out.records.iter().filter(|r| r.shed).collect();
        assert_eq!(shed.len(), 1);
        assert!(shed[0].answer.is_empty());
        assert!(shed[0].queue_wait_ns > 0);
    }

    #[test]
    fn timestamp_change_closes_batch() {
        let mut s = server();
        s.ingest_batch(&[(ObjectId(1), pos(0), Timestamp(1))]);
        let cfg = ServeConfig {
            max_batch_size: 8,
            deadline_ns: u64::MAX,
            ..Default::default()
        };
        let mut queue = ServeQueue::new(&cfg);
        let mut c = queue.client();
        c.query(pos(1), 1, Timestamp(2), 0);
        c.query(pos(2), 1, Timestamp(3), 1);
        drop(c);
        let out = serve(&mut s, &cfg, queue);
        assert_eq!(out.report.batches, 2);
        assert_eq!(out.report.boundary_closes, 2);
    }

    #[test]
    fn epoch_cadence_ticks_subscriptions() {
        let mut s = server();
        s.ingest_batch(&[
            (ObjectId(1), pos(0), Timestamp(1)),
            (ObjectId(2), pos(3), Timestamp(1)),
        ]);
        let id = s.subscribe_knn(pos(5), 1, Timestamp(1));
        let before = s.counters().subs_ticks;
        let cfg = ServeConfig {
            epoch_requests: 2,
            ..Default::default()
        };
        let mut queue = ServeQueue::new(&cfg);
        let mut c = queue.client();
        for i in 0..6u64 {
            c.ingest(
                vec![(ObjectId(10 + i), pos((i % 6) as u32), Timestamp(2 + i))],
                i * 10,
            );
        }
        drop(c);
        let out = serve(&mut s, &cfg, queue);
        assert_eq!(out.report.epochs, 3);
        assert_eq!(s.counters().subs_ticks - before, 3);
        // The standing query is fresh: identical to a fresh evaluation at
        // the last ticked timestamp.
        let fresh = s.knn(pos(5), 1, Timestamp(7));
        assert_eq!(s.subscription_result(id).unwrap(), &fresh[..]);
        assert!(!fresh.is_empty());
    }

    #[test]
    fn monotone_arrival_enforced() {
        let cfg = ServeConfig::default();
        let mut queue = ServeQueue::new(&cfg);
        let mut c = queue.client();
        c.query(pos(0), 1, Timestamp(1), 100);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.query(pos(0), 1, Timestamp(1), 50);
        }));
        assert!(r.is_err());
    }
}
