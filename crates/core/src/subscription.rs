//! Continuous kNN subscriptions: standing queries kept incrementally
//! correct across the ingest stream.
//!
//! A subscription stores its current top-k together with a **guard
//! radius** — (1 + slack) × the network distance of the (k+1)-th candidate
//! at the last full evaluation — and the **guard cells**: every grid cell
//! containing an edge whose source vertex lies within the guard radius of
//! the query point (plus the query's own cell). The registry here keeps a
//! cell→subscriptions inverted index over those guard regions, so when an
//! ingest batch reports the cells whose dirty epoch it bumped, only the
//! subscriptions whose guard region intersects a dirtied cell need any
//! work at all; the rest are provably still correct (see DESIGN.md §5.7
//! for the argument) and are skipped without touching the device.
//!
//! The approach follows the safe-region idea of Lettich et al.
//! (arXiv:1412.6170; companion range-query work arXiv:1411.3212): reuse
//! per-query state across ticks instead of re-answering from scratch.
//!
//! Index maintenance is eager and exact: `insert`/`remove` and the tick's
//! take-repair-put-back cycle keep `by_cell` free of stale entries, so the
//! invalidation scan is a plain lookup with no tombstone filtering.

use roadnet::graph::{Distance, Graph, VertexId, INFINITY};
use roadnet::EdgePosition;

use crate::grid::{CellId, GraphGrid};
use crate::message::{ObjectId, Timestamp};

/// Handle of a standing kNN query, returned by
/// [`crate::server::GGridServer::subscribe_knn`]. Generation-tagged: a
/// handle kept across `unsubscribe` never aliases a later subscription
/// that reuses the same slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubscriptionId(u64);

impl SubscriptionId {
    fn new(slot: u32, gen: u32) -> Self {
        Self(((gen as u64) << 32) | slot as u64)
    }

    fn slot(self) -> usize {
        (self.0 & 0xFFFF_FFFF) as usize
    }

    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// State of one standing query.
#[derive(Clone, Debug)]
pub(crate) struct Subscription {
    pub q: EdgePosition,
    pub k: usize,
    /// Current top-k, nearest first, ties on object id — byte-identical to
    /// what a fresh `knn(q, k, now)` would return.
    pub result: Vec<(ObjectId, Distance)>,
    /// Distance below which the result set is provably closed under
    /// updates outside the guard cells. `INFINITY` when the last
    /// evaluation found no (k+1)-th candidate (the whole network guards).
    pub guard_radius: Distance,
    /// Sorted, deduplicated cell cover of the guard ball; empty when
    /// `covers_all`.
    pub guard_cells: Vec<CellId>,
    pub covers_all: bool,
    /// Earliest instant at which a current member's last report may leave
    /// the freshness horizon t_Δ — the one way the result can change with
    /// no cell dirtied, so a tick at/after this time re-validates even
    /// without a guard intersection.
    pub expires_at: Timestamp,
}

/// Outcome of one [`crate::server::GGridServer::tick_subscriptions`] call.
#[derive(Clone, Copy, Debug, Default)]
pub struct SubscriptionTickReport {
    /// Subscriptions active when the tick ran.
    pub active: usize,
    /// Distinct dirtied cells the tick drained from the ingest stream.
    pub dirty_cells: usize,
    /// Subscriptions re-validated (guard intersection or possible expiry).
    pub invalidated: usize,
    /// Re-validated subscriptions repaired by the bounded delta search.
    pub repaired_delta: usize,
    /// Re-validated subscriptions that fell back to a full re-query.
    pub repaired_full: usize,
    /// Subscriptions untouched by this tick (avoided re-evaluations).
    pub skipped: usize,
}

/// Slab of subscriptions plus the cell→subscriptions inverted index.
#[derive(Debug, Default)]
pub(crate) struct SubscriptionRegistry {
    slots: Vec<Option<Subscription>>,
    gens: Vec<u32>,
    free: Vec<u32>,
    /// `by_cell[c]` = ids of live subscriptions whose guard cells include
    /// `c`. Maintained eagerly; no stale entries.
    by_cell: Vec<Vec<SubscriptionId>>,
    /// Live subscriptions with an unbounded guard (`covers_all`): every
    /// dirtied cell invalidates them.
    global: Vec<SubscriptionId>,
    active: usize,
}

impl SubscriptionRegistry {
    pub fn new(num_cells: usize) -> Self {
        Self {
            by_cell: vec![Vec::new(); num_cells],
            ..Self::default()
        }
    }

    pub fn active(&self) -> usize {
        self.active
    }

    pub fn insert(&mut self, sub: Subscription) -> SubscriptionId {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(None);
                self.gens.push(0);
                (self.slots.len() - 1) as u32
            }
        };
        self.gens[slot as usize] = self.gens[slot as usize].wrapping_add(1);
        let id = SubscriptionId::new(slot, self.gens[slot as usize]);
        self.index(id, &sub);
        self.slots[slot as usize] = Some(sub);
        self.active += 1;
        id
    }

    pub fn get(&self, id: SubscriptionId) -> Option<&Subscription> {
        if self.gens.get(id.slot()) != Some(&id.gen()) {
            return None;
        }
        self.slots[id.slot()].as_ref()
    }

    pub fn remove(&mut self, id: SubscriptionId) -> Option<Subscription> {
        let sub = self.take(id)?;
        self.free.push(id.slot() as u32);
        Some(sub)
    }

    /// Detach a subscription for repair: the slot stays reserved (the same
    /// id is restored by [`Self::put_back`]) but its index entries are
    /// removed, so the repair can rewrite the guard cover freely.
    pub fn take(&mut self, id: SubscriptionId) -> Option<Subscription> {
        if self.gens.get(id.slot()) != Some(&id.gen()) {
            return None;
        }
        let sub = self.slots[id.slot()].take()?;
        self.unindex(id, &sub);
        self.active -= 1;
        Some(sub)
    }

    pub(crate) fn put_back(&mut self, id: SubscriptionId, sub: Subscription) {
        debug_assert_eq!(self.gens[id.slot()], id.gen());
        debug_assert!(self.slots[id.slot()].is_none());
        self.index(id, &sub);
        self.slots[id.slot()] = Some(sub);
        self.active += 1;
    }

    fn index(&mut self, id: SubscriptionId, sub: &Subscription) {
        if sub.covers_all {
            self.global.push(id);
        } else {
            for &c in &sub.guard_cells {
                self.by_cell[c.index()].push(id);
            }
        }
    }

    fn unindex(&mut self, id: SubscriptionId, sub: &Subscription) {
        if sub.covers_all {
            self.global.retain(|&x| x != id);
        } else {
            for &c in &sub.guard_cells {
                self.by_cell[c.index()].retain(|&x| x != id);
            }
        }
    }

    /// Ids of every subscription a tick at `now` over `dirty` (sorted,
    /// deduplicated cells) must re-validate: guard region intersects a
    /// dirtied cell, unbounded guard with any dirt at all, or a member's
    /// report may have left the freshness horizon. Sorted by id, so the
    /// repair order — and every counter downstream — is deterministic.
    pub(crate) fn affected(&self, dirty: &[CellId], now: Timestamp) -> Vec<SubscriptionId> {
        let mut out: Vec<SubscriptionId> = Vec::new();
        for &c in dirty {
            out.extend_from_slice(&self.by_cell[c.index()]);
        }
        if !dirty.is_empty() {
            out.extend_from_slice(&self.global);
        }
        for (slot, sub) in self.slots.iter().enumerate() {
            if let Some(sub) = sub {
                if now >= sub.expires_at {
                    out.push(SubscriptionId::new(slot as u32, self.gens[slot]));
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// The guard-cell cover of `ball(q, guard)`, read off a bounded Dijkstra
/// from `q` whose settled set includes every vertex within `guard`: the
/// cell of every out-edge of every settled vertex within the radius, plus
/// the query's own cell (an object on `q.edge` behind the query point is
/// at distance `offset` difference without passing any vertex).
///
/// Any object strictly outside these cells sits on an edge whose source
/// vertex is farther than `guard`, hence at network distance > guard from
/// `q` — the containment DESIGN.md §5.7's correctness argument rests on.
pub(crate) fn guard_cover(
    grid: &GraphGrid,
    graph: &Graph,
    settled: &[VertexId],
    dist: impl Fn(VertexId) -> Distance,
    guard: Distance,
    q: EdgePosition,
) -> Vec<CellId> {
    let mut cells: Vec<CellId> = vec![grid.cell_of_edge(q.edge)];
    for &v in settled {
        if dist(v) > guard {
            continue;
        }
        for e in graph.out_edges(v) {
            cells.push(grid.cell_of_edge(e));
        }
    }
    cells.sort_unstable();
    cells.dedup();
    cells
}

/// Widen a guard distance by the configured slack, saturating at
/// `INFINITY` (an unbounded guard).
pub(crate) fn slacked(d: Distance, slack: f64) -> Distance {
    if d >= INFINITY {
        return INFINITY;
    }
    let widened = d.saturating_add((d as f64 * slack) as Distance);
    widened.min(INFINITY)
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadnet::EdgeId;

    fn sub_with_cells(cells: Vec<u32>) -> Subscription {
        Subscription {
            q: EdgePosition::at_source(EdgeId(0)),
            k: 1,
            result: Vec::new(),
            guard_radius: 10,
            guard_cells: cells.into_iter().map(CellId).collect(),
            covers_all: false,
            expires_at: Timestamp(u64::MAX),
        }
    }

    #[test]
    fn ids_are_generation_tagged() {
        let mut r = SubscriptionRegistry::new(4);
        let a = r.insert(sub_with_cells(vec![0]));
        r.remove(a);
        let b = r.insert(sub_with_cells(vec![1]));
        // Slot reuse must not revive the old handle.
        assert_eq!(a.slot(), b.slot());
        assert_ne!(a, b);
        assert!(r.get(a).is_none());
        assert!(r.get(b).is_some());
    }

    #[test]
    fn affected_matches_guard_intersections() {
        let mut r = SubscriptionRegistry::new(4);
        let a = r.insert(sub_with_cells(vec![0, 1]));
        let b = r.insert(sub_with_cells(vec![2]));
        let never = Timestamp(0);
        assert_eq!(r.affected(&[CellId(1)], never), vec![a]);
        assert_eq!(r.affected(&[CellId(2)], never), vec![b]);
        assert_eq!(r.affected(&[CellId(1), CellId(2)], never), vec![a, b]);
        assert!(r.affected(&[CellId(3)], never).is_empty());
        assert!(r.affected(&[], never).is_empty());
    }

    #[test]
    fn covers_all_hit_by_any_dirt_and_expiry_needs_none() {
        let mut r = SubscriptionRegistry::new(4);
        let mut s = sub_with_cells(vec![]);
        s.covers_all = true;
        s.expires_at = Timestamp(100);
        let a = r.insert(s);
        assert_eq!(r.affected(&[CellId(3)], Timestamp(0)), vec![a]);
        // No dirt, but the member may have expired.
        assert_eq!(r.affected(&[], Timestamp(100)), vec![a]);
        assert!(r.affected(&[], Timestamp(99)).is_empty());
    }

    #[test]
    fn take_put_back_reindexes_new_cover() {
        let mut r = SubscriptionRegistry::new(4);
        let a = r.insert(sub_with_cells(vec![0]));
        let mut sub = r.take(a).unwrap();
        assert_eq!(r.active(), 0);
        assert!(r.affected(&[CellId(0)], Timestamp(0)).is_empty());
        sub.guard_cells = vec![CellId(3)];
        r.put_back(a, sub);
        assert_eq!(r.active(), 1);
        assert!(r.affected(&[CellId(0)], Timestamp(0)).is_empty());
        assert_eq!(r.affected(&[CellId(3)], Timestamp(0)), vec![a]);
    }

    #[test]
    fn slack_widens_and_saturates() {
        assert_eq!(slacked(100, 0.25), 125);
        assert_eq!(slacked(100, 0.0), 100);
        assert_eq!(slacked(INFINITY, 0.25), INFINITY);
        assert_eq!(slacked(INFINITY - 1, 4.0), INFINITY);
    }
}
