//! The object table (paper §III-B): `o.id ↦ ⟨c.id, e.id, d⟩`.
//!
//! A CPU-resident hash table holding the latest reported location of every
//! object. Algorithm 1 consults it on every incoming message to detect
//! cell-to-cell moves (which require a departure tombstone in the old cell)
//! and then overwrites the entry. Uses an Fx-style hasher: object ids are
//! dense integers, and the default SipHash is needlessly slow for them.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use roadnet::EdgePosition;

use crate::grid::CellId;
use crate::message::{ObjectId, Timestamp};

/// Latest known location of one object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObjectEntry {
    pub cell: CellId,
    pub position: EdgePosition,
    pub time: Timestamp,
}

/// FxHash (the rustc hasher): multiply-xor over 8-byte words. Quality is
/// plenty for dense integer keys and it is far faster than SipHash.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.hash = (self.hash.rotate_left(5) ^ n).wrapping_mul(SEED);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// The object table.
#[derive(Default)]
pub struct ObjectTable {
    map: HashMap<ObjectId, ObjectEntry, FxBuildHasher>,
}

impl ObjectTable {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn get(&self, o: ObjectId) -> Option<&ObjectEntry> {
        self.map.get(&o)
    }

    /// `setOT` (Algorithm 1 line 6): overwrite the latest location. Returns
    /// the previous entry, if any.
    pub fn set(
        &mut self,
        o: ObjectId,
        cell: CellId,
        position: EdgePosition,
        time: Timestamp,
    ) -> Option<ObjectEntry> {
        self.map.insert(
            o,
            ObjectEntry {
                cell,
                position,
                time,
            },
        )
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, &ObjectEntry)> {
        self.map.iter().map(|(&o, e)| (o, e))
    }

    /// Approximate resident bytes: entry payload plus hash-table slot
    /// overhead (space cost O(|𝒪|), §VI-A).
    pub fn size_bytes(&self) -> u64 {
        let slot = (std::mem::size_of::<ObjectId>() + std::mem::size_of::<ObjectEntry>()) as u64;
        self.map.capacity() as u64 * slot
    }
}

/// Number of shards in [`ShardedObjectTable`]. A power of two so the shard
/// of an object is a mask, and large enough (64) that ingest workers rarely
/// collide even with hundreds of threads.
pub const NUM_SHARDS: usize = 64;

/// Shard owning `o`: object ids are dense, so a plain modulo spreads them
/// evenly and — crucially for the parallel ingest workers — makes shard
/// ownership a pure function of the id.
#[inline]
pub fn shard_of(o: ObjectId) -> usize {
    (o.0 % NUM_SHARDS as u64) as usize
}

/// The object table sharded [`NUM_SHARDS`] ways, each shard behind its own
/// reader–writer lock, so the ingest path takes `&self` and concurrent
/// updates to different objects proceed without contention.
///
/// Lock order (see DESIGN.md §5.5): a shard lock is only ever held alone —
/// callers must never acquire a cell mutex while holding one.
pub struct ShardedObjectTable {
    shards: Vec<parking_lot::RwLock<ObjectTable>>,
}

impl Default for ShardedObjectTable {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedObjectTable {
    pub fn new() -> Self {
        Self {
            shards: (0..NUM_SHARDS)
                .map(|_| parking_lot::RwLock::new(ObjectTable::new()))
                .collect(),
        }
    }

    /// Latest entry for `o`, by value (the shard lock is released before
    /// returning, so no guard escapes).
    pub fn get(&self, o: ObjectId) -> Option<ObjectEntry> {
        self.shards[shard_of(o)].read().get(o).copied()
    }

    /// `setOT` for one object: overwrite the latest location, returning the
    /// previous entry. The reference [`Self::set_batch`] is checked against.
    #[cfg(test)]
    pub fn set(
        &self,
        o: ObjectId,
        cell: CellId,
        position: EdgePosition,
        time: Timestamp,
    ) -> Option<ObjectEntry> {
        self.shards[shard_of(o)]
            .write()
            .set(o, cell, position, time)
    }

    /// Batched `setOT`: apply every update of `batch` whose shard satisfies
    /// `owned`, taking each touched shard's write lock **once**. Returns the
    /// number of shard locks taken.
    ///
    /// A counting sort groups the batch indices by shard, resolving each
    /// update's cell on the way (a tight loop, so those lookups overlap);
    /// each shard's updates are then applied in batch order, so every
    /// object sees its updates in order and each `prev` is exactly what a
    /// sequential single-object `setOT` per update would have returned.
    ///
    /// `visit(index, cell, prev)` runs once per applied update, under that
    /// shard's lock and grouped by shard — callers that emit messages must
    /// order them by `index` themselves (the ingest path sorts by
    /// `(cell, index)`). `visit` must not take a cell mutex.
    pub fn set_batch(
        &self,
        batch: &[(ObjectId, EdgePosition, Timestamp)],
        owned: impl Fn(usize) -> bool,
        cell_of: impl Fn(EdgePosition) -> CellId,
        mut visit: impl FnMut(usize, CellId, Option<ObjectEntry>),
    ) -> u64 {
        assert!(batch.len() <= u32::MAX as usize, "batch too large to index");
        let own: [bool; NUM_SHARDS] = std::array::from_fn(&owned);
        let mut starts = [0u32; NUM_SHARDS + 1];
        for &(o, _, _) in batch {
            let s = shard_of(o);
            if own[s] {
                starts[s + 1] += 1;
            }
        }
        for s in 0..NUM_SHARDS {
            starts[s + 1] += starts[s];
        }
        let mut fill = starts;
        let mut order = vec![(0u32, CellId(0)); starts[NUM_SHARDS] as usize];
        for (i, &(o, position, _)) in batch.iter().enumerate() {
            let s = shard_of(o);
            if own[s] {
                order[fill[s] as usize] = (i as u32, cell_of(position));
                fill[s] += 1;
            }
        }
        let mut locks = 0u64;
        for s in 0..NUM_SHARDS {
            let run = &order[starts[s] as usize..starts[s + 1] as usize];
            if run.is_empty() {
                continue;
            }
            let mut shard = self.shards[s].write();
            for &(i, cell) in run {
                let (o, position, time) = batch[i as usize];
                let prev = shard.set(o, cell, position, time);
                visit(i as usize, cell, prev);
            }
            locks += 1;
        }
        locks
    }

    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    pub fn size_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.read().size_bytes()).sum()
    }

    /// A point-in-time copy of every entry, sorted by object id. Shards are
    /// collected one at a time under their read locks (never all locked at
    /// once), so this is a *consistent-per-shard* snapshot — exact when no
    /// writer is active, which is how validation and tests use it.
    pub fn snapshot(&self) -> Vec<(ObjectId, ObjectEntry)> {
        let mut all: Vec<(ObjectId, ObjectEntry)> = Vec::with_capacity(self.len());
        for s in &self.shards {
            all.extend(s.read().iter().map(|(o, e)| (o, *e)));
        }
        all.sort_unstable_by_key(|&(o, _)| o);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadnet::EdgeId;

    fn pos(e: u32, d: u32) -> EdgePosition {
        EdgePosition::new(EdgeId(e), d)
    }

    #[test]
    fn set_get_overwrite() {
        let mut t = ObjectTable::new();
        assert!(t.get(ObjectId(1)).is_none());
        assert!(t
            .set(ObjectId(1), CellId(3), pos(5, 2), Timestamp(10))
            .is_none());
        let prev = t
            .set(ObjectId(1), CellId(4), pos(6, 0), Timestamp(20))
            .unwrap();
        assert_eq!(prev.cell, CellId(3));
        let cur = t.get(ObjectId(1)).unwrap();
        assert_eq!(cur.cell, CellId(4));
        assert_eq!(cur.time, Timestamp(20));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn iteration_covers_all() {
        let mut t = ObjectTable::new();
        for i in 0..100 {
            t.set(ObjectId(i), CellId(i as u32 % 7), pos(0, 0), Timestamp(i));
        }
        assert_eq!(t.iter().count(), 100);
        let sum: u64 = t.iter().map(|(o, _)| o.0).sum();
        assert_eq!(sum, (0..100).sum::<u64>());
    }

    #[test]
    fn size_grows_with_entries() {
        let mut t = ObjectTable::new();
        let empty = t.size_bytes();
        for i in 0..1000 {
            t.set(ObjectId(i), CellId(0), pos(0, 0), Timestamp(0));
        }
        assert!(t.size_bytes() > empty);
    }

    #[test]
    fn sharded_set_get_overwrite() {
        let t = ShardedObjectTable::new();
        assert_eq!(t.len(), 0);
        assert!(t
            .set(ObjectId(1), CellId(3), pos(5, 2), Timestamp(10))
            .is_none());
        let prev = t
            .set(ObjectId(1), CellId(4), pos(6, 0), Timestamp(20))
            .unwrap();
        assert_eq!(prev.cell, CellId(3));
        assert_eq!(t.get(ObjectId(1)).unwrap().cell, CellId(4));
        assert_eq!(t.len(), 1);
        assert!(t.get(ObjectId(2)).is_none());
    }

    #[test]
    fn sharded_snapshot_sorted_and_complete() {
        let t = ShardedObjectTable::new();
        // Ids chosen to land in many different shards, inserted unsorted.
        for i in (0..200u64).rev() {
            t.set(
                ObjectId(i * 7),
                CellId((i % 5) as u32),
                pos(0, 0),
                Timestamp(i),
            );
        }
        let snap = t.snapshot();
        assert_eq!(snap.len(), 200);
        assert!(snap.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(t.size_bytes(), {
            let mut plain = ObjectTable::new();
            for &(o, e) in snap.iter() {
                plain.set(o, e.cell, e.position, e.time);
            }
            // Sharded capacity is spread over 64 tables, so only check the
            // total is nonzero and covers the payload.
            assert!(plain.size_bytes() > 0);
            t.size_bytes()
        });
        assert!(t.size_bytes() > 0);
    }

    #[test]
    fn set_batch_matches_sequential_sets() {
        // Repeated objects across several shards, with cell moves.
        let batch: Vec<(ObjectId, EdgePosition, Timestamp)> = (0..300u64)
            .map(|i| (ObjectId(i * 7 % 97), pos((i % 11) as u32, 0), Timestamp(i)))
            .collect();
        let cell_of = |p: EdgePosition| CellId(p.edge.0 % 5);
        let reference = ShardedObjectTable::new();
        let want: Vec<Option<ObjectEntry>> = batch
            .iter()
            .map(|&(o, p, t)| reference.set(o, cell_of(p), p, t))
            .collect();

        let t = ShardedObjectTable::new();
        let mut got = vec![None; batch.len()];
        let mut visited = 0;
        let locks = t.set_batch(
            &batch,
            |_| true,
            cell_of,
            |i, cell, prev| {
                assert_eq!(cell, cell_of(batch[i].1));
                got[i] = prev;
                visited += 1;
            },
        );
        assert_eq!(visited, batch.len());
        assert_eq!(got, want, "each prev equals the sequential set's");
        assert_eq!(t.snapshot(), reference.snapshot());
        let shards: std::collections::HashSet<usize> =
            batch.iter().map(|&(o, _, _)| shard_of(o)).collect();
        assert_eq!(locks, shards.len() as u64, "one lock per touched shard");

        // An ownership filter applies only the owned shards.
        let even = ShardedObjectTable::new();
        let locks = even.set_batch(
            &batch,
            |s| s.is_multiple_of(2),
            cell_of,
            |i, _, _| {
                assert!(shard_of(batch[i].0).is_multiple_of(2));
            },
        );
        assert_eq!(
            locks,
            shards.iter().filter(|s| s.is_multiple_of(2)).count() as u64
        );
        assert!(even
            .snapshot()
            .iter()
            .all(|&(o, _)| shard_of(o).is_multiple_of(2)));
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for i in 0..1000u64 {
            let s = shard_of(ObjectId(i));
            assert!(s < NUM_SHARDS);
            assert_eq!(s, shard_of(ObjectId(i)));
        }
        // Dense ids cover every shard.
        let covered: std::collections::HashSet<usize> =
            (0..64u64).map(|i| shard_of(ObjectId(i))).collect();
        assert_eq!(covered.len(), NUM_SHARDS);
    }

    #[test]
    fn fx_hasher_distributes() {
        // Dense keys should not all collide into few buckets: check that
        // hashing 0..64 yields many distinct values.
        use std::hash::Hash;
        let mut seen = std::collections::HashSet::new();
        for i in 0..64u64 {
            let mut h = FxHasher::default();
            ObjectId(i).hash(&mut h);
            seen.insert(h.finish());
        }
        assert_eq!(seen.len(), 64);
    }
}
