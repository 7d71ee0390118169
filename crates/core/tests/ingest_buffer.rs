//! Integration tests for thread-buffered ingestion: `ingest_buffered` +
//! `flush_ingest` must leave the server byte-identical to the PR-4
//! `ingest_batch` group commit — for every worker count, with queries and
//! subscription ticks interleaved, and regardless of where mid-stream
//! flush barriers land.

use ggrid::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use roadnet::{gen, EdgeId};
use std::sync::Barrier;

const EDGES: u32 = 160; // gen::toy edge count

fn config(ingest_workers: usize) -> GGridConfig {
    GGridConfig {
        eta: 4,
        bucket_capacity: 16,
        ingest_workers,
        ..Default::default()
    }
}

type Update = (ObjectId, EdgePosition, Timestamp);

/// A deterministic update stream with plenty of cell-to-cell moves.
fn update_stream(seed: u64, n: usize) -> Vec<Update> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xb0ff);
    let mut t = 100u64;
    (0..n)
        .map(|_| {
            t += 1;
            (
                ObjectId(rng.gen_range(0..40u64)),
                EdgePosition::at_source(EdgeId(rng.gen_range(0..EDGES))),
                Timestamp(t),
            )
        })
        .collect()
}

/// Full observable ingest state of a server, for byte-for-byte comparison.
#[allow(clippy::type_complexity)]
fn state_of(
    s: &GGridServer,
    objects: u64,
) -> (usize, usize, u64, Vec<Option<(EdgePosition, Timestamp)>>) {
    (
        s.num_objects(),
        s.cached_messages(),
        s.counters().tombstones_written,
        (0..objects)
            .map(|o| s.object_position(ObjectId(o)))
            .collect(),
    )
}

#[test]
fn buffered_matches_batched_with_midstream_barriers() {
    for seed in [7u64, 23, 91] {
        let updates = update_stream(seed, 300);
        let graph = gen::toy(seed);
        let reference = GGridServer::new(graph.clone(), config(1));
        for chunk in updates.chunks(37) {
            reference.ingest_batch(chunk);
        }
        let want = state_of(&reference, 40);
        for workers in [1usize, 2, 4] {
            let s = GGridServer::new(graph.clone(), config(workers));
            for (i, chunk) in updates.chunks(37).enumerate() {
                s.ingest_buffered(chunk);
                // A barrier after every third chunk: flushes may land
                // anywhere in the stream without changing the result.
                if i % 3 == 2 {
                    s.flush_ingest();
                }
            }
            s.flush_ingest();
            assert_eq!(
                state_of(&s, 40),
                want,
                "seed {seed}, {workers} ingest workers"
            );
            let c = s.counters();
            assert_eq!(c.updates_ingested, updates.len() as u64);
            assert!(c.buffered_messages >= updates.len() as u64);
            assert!(c.ingest_flushes > 0);
            assert!(c.buffer_bytes_high_water > 0);
        }
    }
}

#[test]
fn queries_auto_flush_buffered_messages() {
    let graph = gen::toy(3);
    let mut s = GGridServer::new(graph, config(2));
    let pos = EdgePosition::at_source(EdgeId(0));
    s.ingest_buffered(&[(ObjectId(9), pos, Timestamp(100))]);
    // No explicit barrier: the query itself must make the message visible.
    let ans = s.knn(pos, 1, Timestamp(200));
    assert_eq!(ans.len(), 1);
    assert_eq!(ans[0].0, ObjectId(9));
    assert!(s.counters().ingest_flushes >= 1);
}

#[test]
fn full_cells_spill_at_the_buffer_cap() {
    let graph = gen::toy(3);
    let s = GGridServer::new(
        graph,
        GGridConfig {
            eta: 4,
            bucket_capacity: 16,
            ingest_buffer_cap: 4,
            ..Default::default()
        },
    );
    // 12 updates into one cell with a cap of 4: the end-of-call check must
    // spill the cell without any explicit barrier.
    let pos = EdgePosition::at_source(EdgeId(0));
    let batch: Vec<Update> = (0..12u64)
        .map(|i| (ObjectId(1), pos, Timestamp(100 + i)))
        .collect();
    s.ingest_buffered(&batch);
    let c = s.counters();
    assert!(c.ingest_flushes >= 1, "cap breach must trigger a flush");
    assert!(s.cached_messages() > 0, "messages must have landed");
}

#[test]
fn byte_budget_drains_the_whole_buffer() {
    let graph = gen::toy(3);
    let s = GGridServer::new(
        graph,
        GGridConfig {
            eta: 4,
            bucket_capacity: 16,
            ingest_buffer_cap: 1_000_000,
            ingest_buffer_bytes: 64, // under two entries
            ..Default::default()
        },
    );
    let updates = update_stream(5, 40);
    for chunk in updates.chunks(8) {
        s.ingest_buffered(chunk);
    }
    let c = s.counters();
    assert!(c.ingest_flushes >= 4, "byte budget must force drains");
    // Budget breaches drain everything, so nothing stays buffered between
    // calls beyond one batch's worth (each update may also buffer one
    // cell-move tombstone, hence the factor of two).
    assert!(c.buffer_bytes_high_water <= 2 * 8 * 40);
}

#[test]
fn empty_flush_is_a_noop() {
    let graph = gen::toy(1);
    let s = GGridServer::new(graph, config(4));
    let dirty = s.flush_ingest();
    assert!(dirty.is_empty());
    let c = s.counters();
    assert_eq!(c.ingest_flushes, 0);
    assert_eq!(c.ingest_cell_locks, 0);
    assert_eq!(c.buffered_messages, 0);
}

#[test]
fn buffered_bytes_appear_in_index_size_until_flushed() {
    let graph = gen::toy(3);
    let s = GGridServer::new(
        graph,
        GGridConfig {
            eta: 4,
            bucket_capacity: 16,
            ingest_buffer_cap: 1_000_000,
            ingest_buffer_bytes: 0,
            ..Default::default()
        },
    );
    let before = s.index_size().cpu_bytes;
    s.ingest_buffered(&update_stream(9, 64));
    let held = s.index_size().cpu_bytes;
    assert!(held > before, "buffered entries must be accounted");
    s.flush_ingest();
    // After the barrier the buffer bytes are gone (the messages now live in
    // the cell slabs, which may cost a different amount).
    let c = s.counters();
    // 64 updates plus a buffered tombstone per cell move.
    assert!(c.buffered_messages >= 64);
    assert!(c.ingest_flushes >= 1);
}

#[test]
fn concurrent_batch_and_buffered_callers_match_sequential() {
    let graph = gen::toy(13);
    // Disjoint object sets: even ids go through `ingest_batch`, odd ids
    // through `ingest_buffered`, from two threads at once.
    let (evens, odds): (Vec<Update>, Vec<Update>) = update_stream(13, 400)
        .into_iter()
        .partition(|&(o, _, _)| o.0 % 2 == 0);
    let reference = GGridServer::new(graph.clone(), config(1));
    reference.ingest_batch(&evens);
    reference.ingest_batch(&odds);
    let want = state_of(&reference, 40);
    for workers in [1usize, 2] {
        let s = GGridServer::new(
            graph.clone(),
            GGridConfig {
                // A small cap makes the buffered thread commit cells while
                // the batch thread commits its own.
                ingest_buffer_cap: 4,
                ..config(workers)
            },
        );
        // Both threads start every round together.
        const ROUNDS: usize = 25;
        fn round(v: &[Update], i: usize) -> &[Update] {
            &v[i * v.len() / ROUNDS..(i + 1) * v.len() / ROUNDS]
        }
        let barrier = Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 0..ROUNDS {
                    barrier.wait();
                    s.ingest_batch(round(&evens, i));
                }
            });
            scope.spawn(|| {
                for i in 0..ROUNDS {
                    barrier.wait();
                    s.ingest_buffered(round(&odds, i));
                }
            });
        });
        s.flush_ingest();
        assert_eq!(state_of(&s, 40), want, "{workers} ingest workers");
        assert_eq!(s.validate(Timestamp(1_000)), vec![], "{workers} workers");
    }
}

#[test]
fn direct_paths_keep_their_counter_meanings() {
    let graph = gen::toy(3);
    let s = GGridServer::new(graph, config(2));
    let updates = update_stream(3, 120);
    let (per_call, batch) = updates.split_at(60);
    for &(o, p, t) in per_call {
        s.handle_update(o, p, t);
    }
    let c = s.counters();
    assert_eq!(c.updates_ingested, 60);
    assert!(c.tombstones_written > 0, "the stream must move objects");
    assert_eq!(
        (c.ingest_batches, c.batched_updates, c.tombstones_batched),
        (0, 0, 0),
        "per-call updates are not batches"
    );
    s.ingest_batch(batch);
    let c = s.counters();
    assert_eq!((c.ingest_batches, c.batched_updates), (1, 60));
    assert_eq!(
        (
            c.ingest_flushes,
            c.buffered_messages,
            c.buffer_bytes_high_water
        ),
        (0, 0, 0),
        "direct ingest with nothing staged is no buffer flush"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any interleaving of buffered ingestion (1/2/4 workers), kNN queries,
    /// subscription ticks, and mid-stream flush barriers matches the
    /// `ingest_batch` reference byte-for-byte: identical object table,
    /// cached-message count, tombstone count, answers, and maintained
    /// subscription results.
    #[test]
    fn buffered_interleaved_with_queries_and_ticks_matches_batched(
        seed in 0u64..1000,
        ops in prop::collection::vec((0u64..24, 0u32..160, 0u32..5), 6..60),
    ) {
        let graph = gen::toy(5);
        let mut reference = GGridServer::new(graph.clone(), config(1));
        let mut servers: Vec<GGridServer> = [1usize, 2, 4]
            .iter()
            .map(|&w| GGridServer::new(graph.clone(), config(w)))
            .collect();

        // One standing query per server, registered up front at the same
        // position and time, so ticks exercise the subscription path over
        // buffered dirt.
        let sub_pos = EdgePosition::at_source(EdgeId(seed as u32 % EDGES));
        let ref_sub = reference.subscribe_knn(sub_pos, 3, Timestamp(50));
        let subs: Vec<SubscriptionId> = servers
            .iter_mut()
            .map(|s| s.subscribe_knn(sub_pos, 3, Timestamp(50)))
            .collect();

        let mut t = 100u64;
        let mut pending: Vec<Update> = Vec::new();
        let flush = |pending: &mut Vec<Update>,
                         reference: &mut GGridServer,
                         servers: &mut Vec<GGridServer>| {
            reference.ingest_batch(pending);
            for s in servers.iter_mut() {
                s.ingest_buffered(pending);
            }
            pending.clear();
        };
        for &(obj, edge, kind) in &ops {
            t += 1;
            let e = EdgePosition::at_source(EdgeId(edge % EDGES));
            match kind {
                0 | 1 => {
                    // Update: queued into the current group commit.
                    pending.push((ObjectId(obj ^ seed), e, Timestamp(t)));
                }
                2 => {
                    // Query: commits the group, then every server must
                    // agree. The buffered servers rely on the query's own
                    // auto-flush — no explicit barrier.
                    flush(&mut pending, &mut reference, &mut servers);
                    let want = reference.knn(e, 4, Timestamp(t));
                    for s in servers.iter_mut() {
                        prop_assert_eq!(&s.knn(e, 4, Timestamp(t)), &want);
                    }
                }
                3 => {
                    // Subscription tick over whatever dirt has accumulated.
                    flush(&mut pending, &mut reference, &mut servers);
                    reference.tick_subscriptions(Timestamp(t));
                    let want = reference
                        .subscription_result(ref_sub)
                        .map(|r| r.to_vec());
                    for (s, &id) in servers.iter_mut().zip(&subs) {
                        s.tick_subscriptions(Timestamp(t));
                        prop_assert_eq!(
                            &s.subscription_result(id).map(|r| r.to_vec()),
                            &want
                        );
                    }
                }
                _ => {
                    // Explicit mid-stream barrier on the buffered servers
                    // only — must be invisible to the final state.
                    for s in servers.iter_mut() {
                        s.flush_ingest();
                    }
                }
            }
        }
        flush(&mut pending, &mut reference, &mut servers);
        for s in servers.iter_mut() {
            s.flush_ingest();
        }
        let want = state_of(&reference, 24 + 1024);
        for s in &servers {
            prop_assert_eq!(&state_of(s, 24 + 1024), &want);
        }
    }
}
