//! Integration tests for the serving loop (DESIGN.md §5.10): answers must
//! be byte-identical to replaying the same stamped event schedule against
//! `knn_batch` / `ingest_batch` directly — for every deadline (including 0
//! and ∞), client count, worker count, epoch cadence, and real host-thread
//! interleaving — and the queue counters must balance under a 256-client
//! stampede whose only shared state is the MPSC channel and the server.

use ggrid::prelude::*;
use ggrid::serve::QueueSnapshot;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use roadnet::{gen, EdgeId};

const EDGES: u32 = 160; // gen::toy edge count

type Update = (ObjectId, EdgePosition, Timestamp);

/// One stamped request in the schedule handed to a client lane.
#[derive(Clone, Debug)]
enum Event {
    Query {
        at_ns: u64,
        q: EdgePosition,
        k: usize,
        now: Timestamp,
    },
    Ingest {
        at_ns: u64,
        updates: Vec<Update>,
    },
}

impl Event {
    fn at_ns(&self) -> u64 {
        match self {
            Event::Query { at_ns, .. } | Event::Ingest { at_ns, .. } => *at_ns,
        }
    }
}

fn config(host_workers: usize) -> GGridConfig {
    GGridConfig {
        eta: 4,
        bucket_capacity: 16,
        host_workers,
        t_delta_ms: 1 << 40,
        ..Default::default()
    }
}

/// Deterministic mixed schedule: `n` events, ~1-in-4 an ingest wave, with
/// non-decreasing arrival stamps (duplicates included) and a coarsely
/// quantized query timestamp so batches can form. Ingest timestamps are
/// placeholders until [`stamp_updates`] rewrites them in release order.
fn schedule(seed: u64, n: usize) -> Vec<Event> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5e7e);
    let mut at = 0u64;
    (0..n)
        .map(|_| {
            // Bursty arrivals: half the gaps are zero (same instant).
            if rng.gen_bool(0.5) {
                at += rng.gen_range(1..5_000u64);
            }
            let now = Timestamp(1_000 + at / 50_000);
            if rng.gen_bool(0.25) {
                let wave = (0..rng.gen_range(1..6usize))
                    .map(|_| {
                        (
                            ObjectId(rng.gen_range(0..48u64)),
                            EdgePosition::at_source(EdgeId(rng.gen_range(0..EDGES))),
                            Timestamp(0), // stamped later, in release order
                        )
                    })
                    .collect();
                Event::Ingest {
                    at_ns: at,
                    updates: wave,
                }
            } else {
                Event::Query {
                    at_ns: at,
                    q: EdgePosition::at_source(EdgeId(rng.gen_range(0..EDGES))),
                    k: rng.gen_range(1..6usize),
                    now,
                }
            }
        })
        .collect()
}

/// Rewrite every ingest update's timestamp to be strictly increasing in
/// the serve loop's release order `(arrival, client, seq)`. The index
/// contract (like a MOTO trace) is that an object never reports twice at
/// one timestamp: a duplicate ties the object table's last-write-wins
/// against cleaning's newest-timestamp-wins and the resulting position is
/// ambiguous — not a serving-loop concern. Stamps start far above every
/// query `now`; cleaning has no future filter, so visibility is unchanged.
fn stamp_updates(lanes: &mut [Vec<Event>]) {
    let mut order: Vec<(u64, usize, usize)> = Vec::new();
    for (c, lane) in lanes.iter().enumerate() {
        for (seq, e) in lane.iter().enumerate() {
            order.push((e.at_ns(), c, seq));
        }
    }
    order.sort_unstable();
    let mut t = 100_000u64;
    for (_, c, seq) in order {
        if let Event::Ingest { updates, .. } = &mut lanes[c][seq] {
            for u in updates {
                u.2 = Timestamp(t);
                t += 1;
            }
        }
    }
}

fn seed_fleet(s: &GGridServer) {
    let wave: Vec<Update> = (0..48u64)
        .map(|o| {
            (
                ObjectId(o),
                EdgePosition::at_source(EdgeId((o as u32 * 13) % EDGES)),
                Timestamp(900),
            )
        })
        .collect();
    s.ingest_batch(&wave);
}

/// Split the schedule round-robin into `clients` lanes (each lane keeps
/// its stamp order) and tag events with their lane-local (client, seq),
/// mirroring how `ServeClient` stamps them.
fn lanes_of(events: &[Event], clients: usize) -> Vec<Vec<Event>> {
    let mut lanes: Vec<Vec<Event>> = (0..clients).map(|_| Vec::new()).collect();
    for (i, e) in events.iter().enumerate() {
        lanes[i % clients].push(e.clone());
    }
    lanes
}

/// The reference: replay the schedule in the serve loop's release order —
/// `(arrival, client, seq)` — applying ingest via `ingest_batch` and
/// answering maximal same-timestamp query runs via one direct `knn_batch`
/// call per run. Returns answers keyed by (client, seq).
#[allow(clippy::type_complexity)]
fn reference_answers(
    lanes: &[Vec<Event>],
    host_workers: usize,
) -> Vec<((u32, u64), Vec<(ObjectId, Distance)>)> {
    let mut server = GGridServer::new(gen::toy(42), config(host_workers));
    seed_fleet(&server);
    // Release order.
    let mut merged: Vec<(u64, u32, u64, &Event)> = Vec::new();
    for (c, lane) in lanes.iter().enumerate() {
        for (seq, e) in lane.iter().enumerate() {
            merged.push((e.at_ns(), c as u32, seq as u64, e));
        }
    }
    merged.sort_by_key(|&(at, c, s, _)| (at, c, s));

    let mut out = Vec::new();
    let mut run: Vec<(EdgePosition, usize)> = Vec::new();
    let mut run_meta: Vec<(u32, u64)> = Vec::new();
    let mut run_now = Timestamp(0);
    let flush = |server: &mut GGridServer,
                 run: &mut Vec<(EdgePosition, usize)>,
                 run_meta: &mut Vec<(u32, u64)>,
                 now: Timestamp,
                 out: &mut Vec<((u32, u64), Vec<(ObjectId, Distance)>)>| {
        if run.is_empty() {
            return;
        }
        let result = server.knn_batch(run, now);
        for (meta, ans) in run_meta.drain(..).zip(result.answers) {
            out.push((meta, ans));
        }
        run.clear();
    };
    for (_, c, s, e) in merged {
        match e {
            Event::Query { q, k, now, .. } => {
                if *now != run_now {
                    flush(&mut server, &mut run, &mut run_meta, run_now, &mut out);
                    run_now = *now;
                }
                run.push((*q, *k));
                run_meta.push((c, s));
            }
            Event::Ingest { updates, .. } => {
                flush(&mut server, &mut run, &mut run_meta, run_now, &mut out);
                server.ingest_batch(updates);
            }
        }
    }
    flush(&mut server, &mut run, &mut run_meta, run_now, &mut out);
    out.sort_by_key(|&(meta, _)| meta);
    out
}

/// Drive the lanes through real client threads into `serve`, returning
/// answers keyed by (client, seq) plus the queue snapshot.
#[allow(clippy::type_complexity)]
fn serve_answers(
    lanes: Vec<Vec<Event>>,
    cfg: &ggrid::serve::ServeConfig,
    host_workers: usize,
) -> (Vec<((u32, u64), Vec<(ObjectId, Distance)>)>, QueueSnapshot) {
    let mut server = GGridServer::new(gen::toy(42), config(host_workers));
    seed_fleet(&server);
    let mut queue = ServeQueue::new(cfg);
    let clients: Vec<ServeClient> = (0..lanes.len()).map(|_| queue.client()).collect();
    let mut outcome = None;
    crossbeam::thread::scope(|scope| {
        for (mut client, lane) in clients.into_iter().zip(lanes) {
            scope.spawn(move |_| {
                for e in lane {
                    match e {
                        Event::Query { at_ns, q, k, now } => client.query(q, k, now, at_ns),
                        Event::Ingest { at_ns, updates } => client.ingest(updates, at_ns),
                    }
                }
            });
        }
        outcome = Some(serve(&mut server, cfg, queue));
    })
    .expect("serve scope failed");
    let outcome = outcome.unwrap();
    let mut answers: Vec<((u32, u64), Vec<(ObjectId, Distance)>)> = outcome
        .records
        .into_iter()
        .filter(|r| !r.shed)
        .map(|r| ((r.client, r.seq), r.answer))
        .collect();
    answers.sort_by_key(|&(meta, _)| meta);
    (answers, outcome.report.queue)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole invariant: for deadlines {0, mid, ∞} × clients
    /// {1, 4, 16}, with ingest interleaved, maintenance epochs on or off,
    /// and 1, 2 or 4 host workers, the serve loop's answers are
    /// byte-identical to the direct `knn_batch` replay of the same
    /// stamped multiset — under real thread interleaving.
    #[test]
    fn serve_matches_direct_knn_batch(
        seed in 0u64..1_000,
        deadline_i in 0usize..3,
        clients_i in 0usize..3,
        max_batch_i in 0usize..3,
        workers_i in 0usize..3,
        epoch_i in 0usize..2,
    ) {
        let deadline = [0u64, 40_000, u64::MAX][deadline_i];
        let clients = [1usize, 4, 16][clients_i];
        let max_batch = [1usize, 3, 32][max_batch_i];
        let host_workers = [1usize, 2, 4][workers_i];
        let epoch = [0u64, 7][epoch_i];
        let events = schedule(seed, 60);
        let mut lanes = lanes_of(&events, clients);
        stamp_updates(&mut lanes);
        let reference = reference_answers(&lanes, host_workers);
        let cfg = ggrid::serve::ServeConfig {
            max_batch_size: max_batch,
            deadline_ns: deadline,
            epoch_requests: epoch,
            ..Default::default()
        };
        let (got, queue) = serve_answers(lanes, &cfg, host_workers);
        prop_assert_eq!(got.len(), reference.len());
        for (g, r) in got.iter().zip(&reference) {
            prop_assert_eq!(g, r);
        }
        prop_assert_eq!(queue.enqueued, events.len() as u64);
        prop_assert_eq!(queue.dequeued, events.len() as u64);
        prop_assert_eq!(queue.shed, 0);
    }
}

/// 256 concurrent clients hammering one queue under a tight per-client
/// bound: the loop's only cross-thread state is the MPSC channel, the
/// atomic queue counters, and the server itself — so everything must
/// drain without deadlock, the counters must balance exactly, and the
/// answers must still match the single-threaded reference.
#[test]
fn stress_256_clients_counters_balance() {
    const CLIENTS: usize = 256;
    let events = schedule(0xC0FFEE, 2 * CLIENTS);
    let mut lanes = lanes_of(&events, CLIENTS);
    stamp_updates(&mut lanes);
    let reference = reference_answers(&lanes, 1);
    let cfg = ggrid::serve::ServeConfig {
        max_batch_size: 8,
        deadline_ns: 20_000,
        client_queue_bound: 2, // force real backpressure
        ..Default::default()
    };
    let (got, queue) = serve_answers(lanes, &cfg, 1);
    assert_eq!(got, reference);
    assert_eq!(queue.enqueued, events.len() as u64);
    assert_eq!(queue.dequeued, events.len() as u64);
    assert_eq!(queue.shed, 0);
    assert!(queue.depth_high_water >= 1);
    // The per-client bound caps what any lane can have in flight, so the
    // global high-water cannot exceed bound × clients.
    assert!(queue.depth_high_water <= (CLIENTS * cfg.client_queue_bound) as u64);
}

/// Shedding is sound: dropping a query never perturbs another query's
/// answer. Every survivor's answer equals the no-shedding reference at
/// the same (client, seq), and answered + shed accounts for every query.
/// (Which queries shed depends on the hybrid clock's measured component,
/// so the shed *set* is load-dependent by design — only answers are
/// guaranteed.)
#[test]
fn shedding_never_perturbs_surviving_answers() {
    let events = schedule(7, 80);
    let total_queries = events
        .iter()
        .filter(|e| matches!(e, Event::Query { .. }))
        .count() as u64;
    let mut lanes = lanes_of(&events, 4);
    stamp_updates(&mut lanes);
    let reference = reference_answers(&lanes, 1);
    let cfg = ggrid::serve::ServeConfig {
        max_batch_size: 4,
        deadline_ns: 10_000,
        shed_wait_ns: 0, // shed every backlogged query
        ..Default::default()
    };
    let (survivors, queue) = serve_answers(lanes, &cfg, 1);
    assert_eq!(survivors.len() as u64 + queue.shed, total_queries);
    for (meta, ans) in &survivors {
        let r = reference
            .iter()
            .find(|(m, _)| m == meta)
            .expect("survivor missing from reference");
        assert_eq!(ans, &r.1, "survivor answer diverged at {meta:?}");
    }
}
