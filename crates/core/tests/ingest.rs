//! Integration tests for concurrent batched ingestion: `ingest_batch` must
//! leave the server in a state byte-identical to per-call `handle_update`
//! — for every `host_workers` count — and the group commit must touch
//! each cell's dirty epoch exactly once per batch.

use ggrid::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use roadnet::{gen, EdgeId};

const EDGES: u32 = 160; // gen::toy edge count

fn config(host_workers: usize) -> GGridConfig {
    GGridConfig {
        eta: 4,
        bucket_capacity: 16,
        host_workers,
        ..Default::default()
    }
}

type Update = (ObjectId, EdgePosition, Timestamp);

/// A deterministic update stream with plenty of cell-to-cell moves.
fn update_stream(seed: u64, n: usize) -> Vec<Update> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x16e57);
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
fn batch_matches_sequential_reference() {
    for seed in [3u64, 21, 77] {
        let updates = update_stream(seed, 300);
        let graph = gen::toy(seed);
        let reference = GGridServer::new(graph.clone(), config(1));
        for &(o, p, t) in &updates {
            reference.handle_update(o, p, t);
        }
        let want = state_of(&reference, 40);
        for workers in [1usize, 2, 4] {
            let s = GGridServer::new(graph.clone(), config(workers));
            // Commit in uneven chunks so batches straddle cell moves.
            for chunk in updates.chunks(37) {
                s.ingest_batch(chunk);
            }
            assert_eq!(
                state_of(&s, 40),
                want,
                "seed {seed}, {workers} ingest workers"
            );
            let c = s.counters();
            assert_eq!(c.updates_ingested, updates.len() as u64);
            assert_eq!(c.batched_updates, updates.len() as u64);
            assert_eq!(c.tombstones_batched, c.tombstones_written);
            assert!(c.ingest_batches > 0);
            assert!(c.ingest_cell_locks > 0);
        }
    }
}

#[test]
fn answers_identical_across_worker_counts() {
    let seed = 11u64;
    let updates = update_stream(seed, 240);
    let queries: Vec<EdgePosition> = (0..8u32)
        .map(|i| EdgePosition::at_source(EdgeId(i * 19 % EDGES)))
        .collect();
    let graph = gen::toy(seed);
    // Reference: sequential handle_update, queries interleaved.
    let mut reference = GGridServer::new(graph.clone(), config(1));
    let mut want = Vec::new();
    for (round, chunk) in updates.chunks(60).enumerate() {
        for &(o, p, t) in chunk {
            reference.handle_update(o, p, t);
        }
        for &q in &queries {
            want.push(reference.knn(q, 5, Timestamp(1000 + round as u64)));
        }
    }
    for workers in [1usize, 2, 4] {
        let mut s = GGridServer::new(graph.clone(), config(workers));
        let mut got = Vec::new();
        for (round, chunk) in updates.chunks(60).enumerate() {
            s.ingest_batch(chunk);
            for &q in &queries {
                got.push(s.knn(q, 5, Timestamp(1000 + round as u64)));
            }
        }
        assert_eq!(got, want, "{workers} ingest workers changed answers");
    }
}

#[test]
fn cross_object_order_in_batch_cannot_change_answers() {
    // Cleaning dedups to newest-per-object with a deterministic tiebreak
    // and kNN orders by (distance, object id), so permuting updates of
    // *distinct* objects inside a batch must not change any answer.
    let seed = 29u64;
    let updates = update_stream(seed, 120);
    let graph = gen::toy(seed);
    let mut forward = GGridServer::new(graph.clone(), config(1));
    forward.ingest_batch(&updates);

    // Reverse the batch but keep each object's own updates in order.
    let mut by_object: std::collections::BTreeMap<u64, Vec<Update>> = Default::default();
    for &u in &updates {
        by_object.entry(u.0 .0).or_default().push(u);
    }
    let mut reversed: Vec<Update> = Vec::with_capacity(updates.len());
    for (_, runs) in by_object.iter_mut().rev() {
        reversed.append(runs);
    }
    assert_ne!(reversed, updates, "permutation should actually permute");
    let mut permuted = GGridServer::new(graph, config(1));
    permuted.ingest_batch(&reversed);

    for i in 0..10u32 {
        let q = EdgePosition::at_source(EdgeId(i * 17 % EDGES));
        assert_eq!(
            forward.knn(q, 6, Timestamp(1000)),
            permuted.knn(q, 6, Timestamp(1000)),
            "cross-object batch order leaked into an answer"
        );
    }
}

#[test]
fn batch_bumps_touched_cell_epoch_once_and_leaves_others_warm() {
    let graph = gen::toy(42);
    let mut s = GGridServer::new(graph, config(1));
    // Two objects in (very likely) different cells; warm both cells' skip
    // stamps with one query each.
    let a = EdgePosition::at_source(EdgeId(0));
    let b = EdgePosition::at_source(EdgeId(EDGES - 1));
    s.handle_update(ObjectId(1), a, Timestamp(100));
    s.handle_update(ObjectId(2), b, Timestamp(100));
    s.knn(a, 1, Timestamp(200));
    s.knn(b, 1, Timestamp(200));
    s.knn(a, 1, Timestamp(201));
    s.knn(b, 1, Timestamp(201));
    let misses_warm = s.counters().clean_skip_misses;

    // A batch of 12 updates, all landing on edge 0's cell.
    let batch: Vec<Update> = (0..12u64)
        .map(|i| (ObjectId(1), a, Timestamp(300 + i)))
        .collect();
    s.ingest_batch(&batch);

    // Twelve appends under one group commit cost ONE re-clean in total —
    // the touched cell's single epoch bump — while every untouched cell in
    // both query regions stays warm.
    let hits_before = s.counters().clean_skip_hits;
    s.knn(b, 1, Timestamp(400));
    s.knn(a, 1, Timestamp(401));
    let after = s.counters();
    assert!(after.clean_skip_hits > hits_before, "warm cells went cold");
    assert_eq!(
        after.clean_skip_misses,
        misses_warm + 1,
        "a 12-update batch into one cell must cost exactly one invalidation"
    );

    // Everything is consolidated again: repeats are pure hits.
    s.knn(a, 1, Timestamp(402));
    s.knn(b, 1, Timestamp(403));
    assert_eq!(s.counters().clean_skip_misses, misses_warm + 1);
}

#[test]
fn shard_locks_count_one_per_touched_shard() {
    use ggrid::shard_of;
    use std::collections::HashSet;
    let graph = gen::toy(9);
    let updates = update_stream(9, 300);
    let shards = updates
        .iter()
        .map(|&(o, _, _)| shard_of(o))
        .collect::<HashSet<_>>()
        .len() as u64;
    assert!(shards > 1, "the stream must span several object shards");
    let locks = |s: &GGridServer| s.counters().ingest_shard_locks;
    for workers in [1usize, 2, 4] {
        let s = GGridServer::new(graph.clone(), config(workers));
        s.ingest_batch(&updates);
        assert_eq!(locks(&s), shards, "ingest_batch, {workers} workers");
        s.ingest_buffered(&updates);
        assert_eq!(locks(&s), 2 * shards, "ingest_buffered, {workers} workers");
        let (o, p, t) = updates[0];
        s.handle_update(o, p, Timestamp(t.0 + 1_000));
        assert_eq!(locks(&s), 2 * shards + 1, "handle_update takes one");
    }
}

#[test]
fn empty_batch_is_a_noop() {
    let graph = gen::toy(1);
    let s = GGridServer::new(graph, config(4));
    s.ingest_batch(&[]);
    let c = s.counters();
    assert_eq!(c.updates_ingested, 0);
    assert_eq!(c.ingest_batches, 0);
    assert_eq!(c.ingest_cell_locks, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any interleaving of batched ingestion (across 1/2/4 workers) and
    /// kNN queries matches the per-call sequential reference: identical
    /// object table, cached-message count, tombstone count, and answers.
    #[test]
    fn batched_ingest_interleaved_with_knn_matches_sequential(
        seed in 0u64..1000,
        ops in prop::collection::vec((0u64..24, 0u32..160, 0u32..3), 6..60),
    ) {
        let graph = gen::toy(5);
        let mut reference = GGridServer::new(graph.clone(), config(1));
        let mut servers: Vec<GGridServer> = [1usize, 2, 4]
            .iter()
            .map(|&w| GGridServer::new(graph.clone(), config(w)))
            .collect();
        let mut t = 100u64;
        let mut pending: Vec<Update> = Vec::new();
        let flush = |pending: &mut Vec<Update>,
                         reference: &mut GGridServer,
                         servers: &mut Vec<GGridServer>| {
            for &(o, p, ts) in pending.iter() {
                reference.handle_update(o, p, ts);
            }
            for s in servers.iter_mut() {
                s.ingest_batch(pending);
            }
            pending.clear();
        };
        for &(obj, edge, kind) in &ops {
            t += 1;
            let e = EdgePosition::at_source(EdgeId(edge % EDGES));
            if kind < 2 {
                // Update: queued into the current group commit.
                pending.push((ObjectId(obj ^ seed), e, Timestamp(t)));
            } else {
                // Query: forces a flush, then every server must agree.
                flush(&mut pending, &mut reference, &mut servers);
                let want = reference.knn(e, 4, Timestamp(t));
                for s in servers.iter_mut() {
                    prop_assert_eq!(&s.knn(e, 4, Timestamp(t)), &want);
                }
            }
        }
        flush(&mut pending, &mut reference, &mut servers);
        let want = state_of(&reference, 24 + 1024);
        for s in &servers {
            prop_assert_eq!(&state_of(s, 24 + 1024), &want);
        }
    }
}
