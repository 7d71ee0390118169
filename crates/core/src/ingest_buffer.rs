//! Lock-free thread-local ingest buffering (DESIGN.md §5.9).
//!
//! PR 4's group commit made ingestion *low-contention*: one cell-mutex
//! acquisition and one dirty-epoch bump per touched cell per batch. But a
//! hot cell still serializes its commit on every batch — a fleet reporting
//! in small arrival batches pays the shared-cell toll once per batch even
//! though nothing reads the messages until the next query. The
//! [`ThreadIngestDispatcher`] removes that toll from the steady state,
//! following the `BucketsThreadDispatcher` pattern (thread-private
//! per-bucket buffers, flushed to the shared structure in bulk):
//!
//! * each ingest worker owns a private per-cell buffer set — during the
//!   placement phase it appends `(sequence, message)` entries there and
//!   **never touches a shared [`MessageList`]**;
//! * the shared list is touched only on *flush*: all workers' entries for a
//!   cell are gathered, merged into global-sequence order, and committed
//!   under **one** lock hold with **one** epoch bump — regardless of how
//!   many ingest calls contributed;
//! * flushes fire when a cell's buffered count crosses
//!   `ingest_buffer_cap`, when the global buffered footprint crosses
//!   `ingest_buffer_bytes`, or at an explicit
//!   [`flush_ingest`](crate::server::GGridServer::flush_ingest) barrier
//!   (queries, cleans, and subscription ticks flush implicitly, so
//!   visibility semantics are unchanged).
//!
//! Every buffered entry carries a global monotone sequence number assigned
//! at ingest entry, and an update and its departure tombstone share one
//! sequence. Sorting a cell's gathered entries by sequence therefore
//! reconstructs exactly the per-cell arrival interleave of the sequential
//! reference — the same `(cell, batch index)` total order PR 4's group
//! commit sorts by — so flushed state is byte-identical to the unbuffered
//! path (proptested in `tests/ingest_buffer.rs`).
//!
//! **Lock order.** A worker-slot mutex may be held around object-table
//! shard locks (the placement phase buffers while it walks the table), but
//! never around a cell mutex: draining returns owned entry vectors before
//! the commit path takes any cell lock. Cell mutexes and shard locks keep
//! their existing never-held-together invariant, so no new cycle is
//! possible. Worker slots are touched by their owning worker only during a
//! call, so the slot mutexes are uncontended in steady state — the shared
//! path is lock-free in the sense that matters: zero contended
//! acquisitions per buffered message.
//!
//! Retired per-cell buffer vectors recycle through a per-worker slab pool
//! (the dispatcher's analogue of the message lists' bucket free lists), so
//! steady-state buffering allocates nothing; the commit itself then reuses
//! each cell's bucket slabs through [`MessageList::append_batch`].
//!
//! [`MessageList`]: crate::message_list::MessageList

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{Mutex, MutexGuard};

use crate::grid::CellId;
use crate::message::CachedMessage;
use crate::object_table::FxBuildHasher;

/// A buffered placement: global ingest sequence plus the message itself.
pub type BufferedEntry = (u64, CachedMessage);

/// Bytes one buffered entry occupies (sequence word + wire message).
pub const ENTRY_BYTES: u64 = 8 + CachedMessage::WIRE_BYTES;

/// Slabs pooled per worker — enough to absorb a barrier flush's worth of
/// retirements without hoarding memory on quiet workers.
const SLAB_POOL_CAP: usize = 64;

/// One ingest worker's private buffers: per-cell entry vectors plus a slab
/// pool recycling retired vectors.
#[derive(Default)]
pub struct WorkerBuffers {
    cells: HashMap<CellId, Vec<BufferedEntry>, FxBuildHasher>,
    free: Vec<Vec<BufferedEntry>>,
}

impl WorkerBuffers {
    /// Append an entry to this worker's buffer for `cell`. The worker walks
    /// its updates grouped by object-table shard and in batch order within
    /// a shard, so a per-cell vector is a few ascending runs; draining
    /// sorts it back into sequence order.
    #[inline]
    pub fn push(&mut self, cell: CellId, seq: u64, m: CachedMessage) {
        let buf = self.cells.entry(cell).or_insert_with(|| {
            self.free
                .pop()
                .unwrap_or_else(|| Vec::with_capacity(SLAB_POOL_CAP))
        });
        buf.push((seq, m));
    }

    fn recycle(&mut self, mut slab: Vec<BufferedEntry>) {
        if self.free.len() < SLAB_POOL_CAP {
            slab.clear();
            self.free.push(slab);
        }
    }
}

/// Thread-local ingest buffering for a server: one private buffer set per
/// ingest worker, flushed to the shared cell lists in bulk. See the module
/// docs for the protocol and lock-order argument.
pub struct ThreadIngestDispatcher {
    workers: Vec<Mutex<WorkerBuffers>>,
    /// Global ingest sequence: each update claims one value; an update and
    /// its tombstone share it (exactly PR 4's batch-index tagging, made
    /// monotone across calls).
    seq: AtomicU64,
    /// Entries currently buffered across all workers.
    buffered_now: AtomicU64,
    /// Lifetime entries that passed through the buffers.
    buffered_total: AtomicU64,
    /// High-water mark of the buffered footprint, in bytes.
    bytes_high_water: AtomicU64,
    /// Flush events that committed at least one cell.
    flushes: AtomicU64,
}

impl ThreadIngestDispatcher {
    pub fn new(num_workers: usize) -> Self {
        Self {
            workers: (0..num_workers.max(1))
                .map(|_| Mutex::new(WorkerBuffers::default()))
                .collect(),
            seq: AtomicU64::new(0),
            buffered_now: AtomicU64::new(0),
            buffered_total: AtomicU64::new(0),
            bytes_high_water: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
        }
    }

    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Claim `n` consecutive sequence numbers; returns the first.
    pub fn next_seq(&self, n: usize) -> u64 {
        self.seq.fetch_add(n as u64, Ordering::Relaxed)
    }

    /// Lock worker `w`'s private buffer set for a placement phase. Each
    /// worker locks only its own slot, so this never contends within one
    /// ingest call.
    pub fn worker(&self, w: usize) -> MutexGuard<'_, WorkerBuffers> {
        self.workers[w % self.workers.len()].lock()
    }

    /// Account `n` entries buffered by a finished placement phase and
    /// refresh the byte high-water mark.
    pub fn note_buffered(&self, n: u64) {
        if n == 0 {
            return;
        }
        let now = self.buffered_now.fetch_add(n, Ordering::Relaxed) + n;
        self.buffered_total.fetch_add(n, Ordering::Relaxed);
        self.bytes_high_water
            .fetch_max(now * ENTRY_BYTES, Ordering::Relaxed);
    }

    /// Entries currently buffered (all workers).
    pub fn buffered_entries(&self) -> u64 {
        self.buffered_now.load(Ordering::Relaxed)
    }

    /// Current buffered footprint in bytes.
    pub fn buffered_bytes(&self) -> u64 {
        self.buffered_entries() * ENTRY_BYTES
    }

    /// `(flush events, lifetime buffered entries, byte high-water)`.
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.flushes.load(Ordering::Relaxed),
            self.buffered_total.load(Ordering::Relaxed),
            self.bytes_high_water.load(Ordering::Relaxed),
        )
    }

    /// Cells whose buffered entry count (summed over workers) reached
    /// `cap`, in ascending cell order.
    pub fn cells_over(&self, cap: usize) -> Vec<CellId> {
        let mut totals: HashMap<CellId, usize, FxBuildHasher> = HashMap::default();
        for slot in &self.workers {
            let g = slot.lock();
            for (&cell, buf) in &g.cells {
                *totals.entry(cell).or_default() += buf.len();
            }
        }
        let mut over: Vec<CellId> = totals
            .into_iter()
            .filter(|&(_, n)| n >= cap)
            .map(|(c, _)| c)
            .collect();
        over.sort_unstable();
        over
    }

    /// Remove and merge every worker's buffered entries for `cell`,
    /// returning them in global sequence order (`None` if nothing was
    /// buffered). Worker-slot locks are taken one at a time and released
    /// before the caller takes the cell mutex — see the lock-order note.
    pub fn drain_cell(&self, cell: CellId) -> Option<Vec<BufferedEntry>> {
        let mut merged: Option<Vec<BufferedEntry>> = None;
        for slot in &self.workers {
            let mut g = slot.lock();
            if let Some(run) = g.cells.remove(&cell) {
                match &mut merged {
                    None => merged = Some(run),
                    Some(m) => {
                        m.extend_from_slice(&run);
                        g.recycle(run);
                    }
                }
            }
        }
        let mut merged = merged?;
        // Per-worker vectors are a handful of ascending runs; their
        // concatenation sorts in near-linear time. Sequences are unique, so
        // the unstable sort is deterministic.
        merged.sort_unstable_by_key(|&(seq, _)| seq);
        self.buffered_now
            .fetch_sub(merged.len() as u64, Ordering::Relaxed);
        Some(merged)
    }

    /// Remove **all** buffered entries, grouped per cell in ascending cell
    /// order, each group in global sequence order.
    pub fn drain_all(&self) -> Vec<(CellId, Vec<BufferedEntry>)> {
        let mut groups: HashMap<CellId, Vec<BufferedEntry>, FxBuildHasher> = HashMap::default();
        let mut drained = 0u64;
        for slot in &self.workers {
            let mut g = slot.lock();
            let cells = std::mem::take(&mut g.cells);
            for (cell, run) in cells {
                drained += run.len() as u64;
                match groups.entry(cell) {
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(run);
                    }
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        e.get_mut().extend_from_slice(&run);
                        g.recycle(run);
                    }
                }
            }
        }
        self.buffered_now.fetch_sub(drained, Ordering::Relaxed);
        let mut out: Vec<(CellId, Vec<BufferedEntry>)> = groups.into_iter().collect();
        out.sort_unstable_by_key(|&(c, _)| c);
        for (_, run) in &mut out {
            run.sort_unstable_by_key(|&(seq, _)| seq);
        }
        out
    }

    /// Return a drained (committed) entry vector to the slab pool.
    pub fn recycle(&self, slab: Vec<BufferedEntry>) {
        self.workers[0].lock().recycle(slab);
    }

    /// Record one flush event that committed at least one cell.
    pub fn note_flush(&self) {
        self.flushes.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{ObjectId, Timestamp};
    use roadnet::{EdgeId, EdgePosition};

    fn msg(o: u64, t: u64) -> CachedMessage {
        CachedMessage::update(
            ObjectId(o),
            EdgePosition::at_source(EdgeId(0)),
            Timestamp(t),
        )
    }

    #[test]
    fn drain_cell_merges_workers_in_sequence_order() {
        let d = ThreadIngestDispatcher::new(2);
        let base = d.next_seq(4);
        assert_eq!(base, 0);
        d.worker(0).push(CellId(7), 0, msg(0, 10));
        d.worker(1).push(CellId(7), 1, msg(1, 11));
        d.worker(0).push(CellId(7), 2, msg(0, 12));
        d.worker(1).push(CellId(9), 3, msg(3, 13));
        d.note_buffered(4);
        assert_eq!(d.buffered_entries(), 4);

        let run = d.drain_cell(CellId(7)).unwrap();
        let seqs: Vec<u64> = run.iter().map(|&(s, _)| s).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(d.buffered_entries(), 1);
        assert!(d.drain_cell(CellId(7)).is_none());
        d.recycle(run);

        let rest = d.drain_all();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].0, CellId(9));
        assert_eq!(d.buffered_entries(), 0);
    }

    #[test]
    fn cells_over_reports_combined_counts() {
        let d = ThreadIngestDispatcher::new(2);
        for i in 0..3u64 {
            d.worker(0).push(CellId(1), i, msg(i, i));
        }
        for i in 3..5u64 {
            d.worker(1).push(CellId(1), i, msg(i, i));
        }
        d.worker(1).push(CellId(2), 5, msg(5, 5));
        d.note_buffered(6);
        assert_eq!(d.cells_over(5), vec![CellId(1)]);
        assert_eq!(d.cells_over(1), vec![CellId(1), CellId(2)]);
        assert!(d.cells_over(7).is_empty());
    }

    #[test]
    fn stats_track_totals_and_high_water() {
        let d = ThreadIngestDispatcher::new(1);
        d.worker(0).push(CellId(0), 0, msg(0, 1));
        d.worker(0).push(CellId(0), 1, msg(1, 2));
        d.note_buffered(2);
        let _ = d.drain_all();
        d.note_flush();
        d.worker(0).push(CellId(0), 2, msg(2, 3));
        d.note_buffered(1);
        let (flushes, total, high) = d.stats();
        assert_eq!(flushes, 1);
        assert_eq!(total, 3);
        assert_eq!(high, 2 * ENTRY_BYTES);
        assert_eq!(d.buffered_bytes(), ENTRY_BYTES);
    }

    #[test]
    fn slabs_recycle_through_the_pool() {
        let d = ThreadIngestDispatcher::new(1);
        d.worker(0).push(CellId(3), 0, msg(0, 1));
        d.note_buffered(1);
        let run = d.drain_cell(CellId(3)).unwrap();
        let cap = run.capacity();
        d.recycle(run);
        // The next buffer for any cell must come from the pool.
        d.worker(0).push(CellId(4), 1, msg(1, 2));
        let g = d.worker(0);
        assert_eq!(g.cells[&CellId(4)].capacity(), cap);
    }
}
