//! The scripted multi-device stream the `sharding` and `sharding2`
//! experiments replay: per epoch one group-commit ingest wave and one
//! fused `knn_batch`, with the critical path read off the per-shard busy
//! clocks.

use std::ops::Range;

use ggrid::grid::GraphGrid;
use ggrid::prelude::*;
use roadnet::EdgeId;

use crate::report::Val;

pub type Wave = Vec<(ObjectId, EdgePosition, Timestamp)>;
pub type QueryBatch = Vec<(EdgePosition, usize)>;
/// Per epoch per query: the fused batch's `(object, distance)` answers.
pub type EpochAnswers = Vec<Vec<Vec<(ObjectId, Distance)>>>;

/// The scripted workload every arm replays identically at every D.
pub struct Script {
    pub seed_wave: Wave,
    /// Per epoch: one ingest wave and one query batch.
    pub epochs: Vec<(Wave, QueryBatch)>,
}

/// A z-order cell window starting at `lo`, widened until it owns edges
/// (z-values over empty cells carry none).
pub fn edge_window(grid: &GraphGrid, lo: u32, start_width: u32) -> Range<u32> {
    let num_cells = grid.num_cells() as u32;
    let mut w = start_width.max(1);
    loop {
        let hi = (lo + w).min(num_cells);
        let has_edges = (0..grid.graph().num_edges() as u32)
            .map(EdgeId)
            .any(|e| (lo..hi).contains(&(grid.cell_of_edge(e).index() as u32)));
        if has_edges || hi == num_cells {
            break lo..hi;
        }
        w *= 2;
    }
}

/// Busy-time readings and answers of one replay.
pub struct Replay {
    /// `T(D)`: Σ over epochs of the busiest shard's busy delta (the
    /// critical path of fully concurrent epochs).
    pub critical_ns: u64,
    /// Per device: busy time summed over the epochs.
    pub served_ns: Vec<u64>,
    pub answers: EpochAnswers,
}

/// Replay `script`'s epochs on `server`, whose seed wave is already
/// ingested. Each epoch optionally flushes the device topology caches,
/// ingests its wave, runs its fused batch, and optionally rebalances.
pub fn replay(
    server: &mut GGridServer,
    devices: usize,
    script: &Script,
    cold_topology: bool,
    rebalance: bool,
) -> Replay {
    let mut prev = server.counters().shard_busy_ns;
    let mut critical_ns = 0u64;
    let mut served_ns = vec![0u64; devices];
    let mut answers = Vec::with_capacity(script.epochs.len());
    for (wave, queries) in &script.epochs {
        let t = wave.first().map(|u| u.2).unwrap_or(Timestamp(1_000));
        if cold_topology {
            server.evict_all_topology();
        }
        server.ingest_batch(wave);
        answers.push(server.knn_batch(queries, t).answers);
        if rebalance {
            server.rebalance_shards();
        }
        let busy = server.counters().shard_busy_ns;
        critical_ns += (0..devices).map(|i| busy[i] - prev[i]).max().unwrap_or(0);
        for (acc, d) in served_ns.iter_mut().zip(0..devices) {
            *acc += busy[d] - prev[d];
        }
        prev = busy;
    }
    Replay {
        critical_ns,
        served_ns,
        answers,
    }
}

/// Device counts every sweep replays.
pub const DEVICE_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Replay each variant's script at every D under every arm (only the
/// first arm at D = 1, where the arms' gates have nothing to act on), and
/// return each run's report row in order. Sharding moves work, never
/// answers: every run must return its variant's D = 1 answers.
pub fn sweep<A: Copy + std::fmt::Debug>(
    variants: &[&'static str],
    arms: &[A],
    script: impl Fn(&str) -> Script,
    mut run: impl FnMut(&'static str, usize, A, &Script) -> (Val, EpochAnswers),
) -> Vec<Val> {
    let mut rows = Vec::new();
    for &variant in variants {
        let script = script(variant);
        let mut reference: Option<EpochAnswers> = None;
        for d in DEVICE_COUNTS {
            for &arm in if d == 1 { &arms[..1] } else { arms } {
                let (row, answers) = run(variant, d, arm, &script);
                let want = reference.get_or_insert_with(|| answers.clone());
                assert!(
                    answers == *want,
                    "{variant} D={d} {arm:?}: answers diverged from D=1"
                );
                rows.push(row);
            }
        }
    }
    rows
}
