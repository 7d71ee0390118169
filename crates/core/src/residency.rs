//! Device-resident consolidated cell state.
//!
//! After a cell's first full cleaning pass its consolidated list (one
//! message per live object) is left *on the device*: a handle-tracked
//! buffer in [`gpu_sim::Device`] plus a host mirror of the contents here.
//! The next time the cell needs cleaning, only the **delta** — messages
//! appended since the clean — crosses the bus, and the fused
//! [`crate::xshuffle::xshuffle_merge`] kernel combines it with the resident
//! state in one launch.
//!
//! Validity is epoch-based: an entry records the list epoch at which it was
//! installed, and is usable exactly while the cell's
//! [`crate::message_list::MessageList::cleaned_epoch`] still equals it —
//! i.e. the list's consolidated prefix is byte-for-byte the mirrored data.
//! Anything else (a full re-clean through another path, an eviction, a
//! restart) just means the next clean takes the full-upload path;
//! **correctness never depends on residency**.
//!
//! Residency is bounded twice over: by `GGridConfig::device_budget_bytes`
//! (`0` disables the store) and by the card's physical capacity enforced in
//! [`gpu_sim::mem`]. When either bound is hit, least-recently-used cells
//! are evicted until the new entry fits; a cell whose consolidated list
//! alone exceeds the budget is simply never promoted. The
//! [`TopologyStore`] applies the same budget on its own, separately from
//! the cell store, so a device holds up to twice the budget across both.
//!
//! ## Bookkeeping cost
//!
//! Both stores sit on the query's hit path (every cleaning round looks up
//! and installs cell lists; every `GPU_SDist` round stages topology), so
//! their bookkeeping is amortised O(1) per operation, never a walk over the
//! resident set:
//!
//! * **Running totals.** Resident bytes (and, for the cell store, the
//!   replica count and bytes) are counters that every insert and remove
//!   updates in the same place, so every byte and count accessor is O(1).
//! * **Recency order.** Every install and hit appends a `(tick, cell)`
//!   stamp to a `Recency` queue, in tick order, and records the tick as
//!   the entry's `last_used`. The LRU victim is the oldest stamp that is
//!   still its cell's `last_used` — exactly the `min (last_used, cell)` a
//!   scan over every entry would pick. Superseded stamps are dropped as the
//!   victim search passes them and compacted away in bulk, so a touch is
//!   O(1) and a victim amortised O(1).

use std::collections::{HashMap, VecDeque};

use gpu_sim::{BufferId, BufferTag, Device};

use crate::grid::CellId;
use crate::message::CachedMessage;
use crate::object_table::FxBuildHasher;

/// Recency order of a store's resident cells: an append-only queue of
/// `(tick, cell)` stamps in tick order.
///
/// Every install and every hit pushes a fresh stamp — ticks strictly
/// increase, so the queue stays sorted — and records the tick as the
/// entry's `last_used`. A stamp is *live* while it is still its cell's
/// `last_used`; the one a later touch or a removal supersedes goes stale in
/// place. The LRU victim is the first live stamp: the entry with the
/// smallest `last_used`, which is exactly the `min (last_used, cell)` a
/// scan over every entry picks (ticks are unique, so the cell never has to
/// break a tie). The victim search pops the stale stamps it passes, and the
/// queue is compacted once stale stamps outnumber live ones several times
/// over, so every operation is amortised O(1).
#[derive(Debug, Default)]
struct Recency {
    tick: u64,
    stamps: VecDeque<(u64, CellId)>,
}

impl Recency {
    /// Stamp `cell` as the most recently used; returns its new tick.
    fn stamp(&mut self, cell: CellId) -> u64 {
        self.tick += 1;
        self.stamps.push_back((self.tick, cell));
        self.tick
    }

    /// The least-recently-used cell. `last_used(cell)` is the cell's
    /// current tick, `None` if it is not resident.
    fn victim(&mut self, last_used: impl Fn(CellId) -> Option<u64>) -> Option<CellId> {
        while let Some(&(tick, cell)) = self.stamps.front() {
            if last_used(cell) == Some(tick) {
                return Some(cell);
            }
            self.stamps.pop_front();
        }
        None
    }

    /// Drop the stale stamps once the queue holds more than four per
    /// `live` entry (plus slack): O(queue) work at most once per O(queue)
    /// stamps pushed.
    fn compact(&mut self, live: usize, last_used: impl Fn(CellId) -> Option<u64>) {
        if self.stamps.len() > 4 * live + 16 {
            self.stamps
                .retain(|&(tick, cell)| last_used(cell) == Some(tick));
        }
    }

    /// Live stamps, recounted (consistency checks).
    fn live(&self, last_used: impl Fn(CellId) -> Option<u64>) -> usize {
        self.stamps
            .iter()
            .filter(|&&(tick, cell)| last_used(cell) == Some(tick))
            .count()
    }
}

/// One cell's device-resident consolidated state.
#[derive(Debug)]
struct ResidentEntry {
    buffer: BufferId,
    /// List epoch at install time; the mirror is valid while the cell's
    /// `cleaned_epoch()` equals this.
    epoch: u64,
    /// Host mirror of the device buffer (the simulator computes on host
    /// data; a real port would keep only the device pointer).
    mirror: Vec<CachedMessage>,
    last_used: u64,
    /// How the entry's device buffer is tagged: [`BufferTag::General`] for
    /// the owner's consolidated state, [`BufferTag::Replica`] for a
    /// read-replica of a cell another shard owns.
    tag: BufferTag,
}

impl ResidentEntry {
    fn bytes(&self) -> u64 {
        self.mirror.len() as u64 * CachedMessage::WIRE_BYTES
    }
}

/// LRU store of device-resident consolidated cell lists.
#[derive(Debug)]
pub struct ResidentCellStore {
    budget_bytes: u64,
    entries: HashMap<CellId, ResidentEntry, FxBuildHasher>,
    recency: Recency,
    /// Running totals over `entries`, kept by [`Self::insert_entry`] and
    /// [`Self::remove_entry`].
    resident_bytes: u64,
    replica_cells: usize,
    replica_bytes: u64,
    evictions: u64,
    /// Bytes other device-resident structures (the batch clean-cache)
    /// have charged against this budget; eviction decisions count them as
    /// pressure even though no resident entry backs them.
    external_bytes: u64,
}

impl ResidentCellStore {
    /// `budget_bytes = 0` disables residency entirely: every lookup misses
    /// and every install is a no-op.
    pub fn new(budget_bytes: u64) -> Self {
        Self {
            budget_bytes,
            entries: HashMap::with_hasher(FxBuildHasher::default()),
            recency: Recency::default(),
            resident_bytes: 0,
            replica_cells: 0,
            replica_bytes: 0,
            evictions: 0,
            external_bytes: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.budget_bytes > 0
    }

    pub fn budget_bytes(&self) -> u64 {
        self.budget_bytes
    }

    /// Bytes currently mirrored on the device.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    pub fn resident_cells(&self) -> usize {
        self.entries.len()
    }

    /// Bytes currently charged by external structures
    /// (see [`Self::reserve_external`]).
    pub fn external_bytes(&self) -> u64 {
        self.external_bytes
    }

    /// Charge `bytes` of device memory held by an external structure (the
    /// batch clean-cache) against this budget, evicting LRU residents to
    /// make room. Best-effort: the charge is recorded even if the budget
    /// cannot be met (the external structure exists regardless; the ledger
    /// must reflect the true pressure). No-op while residency is disabled.
    pub fn reserve_external(&mut self, device: &mut Device, bytes: u64) {
        if !self.enabled() || bytes == 0 {
            return;
        }
        while self.resident_bytes + self.external_bytes + bytes > self.budget_bytes {
            if self.evict_lru(device).is_none() {
                break;
            }
        }
        self.external_bytes += bytes;
    }

    /// Release an earlier [`Self::reserve_external`] charge.
    pub fn release_external(&mut self, bytes: u64) {
        self.external_bytes = self.external_bytes.saturating_sub(bytes);
    }

    pub fn contains(&self, cell: CellId) -> bool {
        self.entries.contains_key(&cell)
    }

    /// Lifetime LRU/stale evictions (monotone; callers diff across a round).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// The resident mirror of `cell`, valid against the cell's current
    /// `cleaned_epoch`. A stale entry (the list was re-consolidated through
    /// a path that did not update the store) is dropped on the spot — its
    /// device buffer is freed — and the lookup misses.
    pub fn lookup(
        &mut self,
        device: &mut Device,
        cell: CellId,
        cleaned_epoch: Option<u64>,
    ) -> Option<&[CachedMessage]> {
        match self.entries.get(&cell) {
            None => None,
            Some(e) if cleaned_epoch != Some(e.epoch) => {
                let e = self.remove_entry(cell).expect("entry just seen");
                device.free_buffer(e.buffer);
                self.evictions += 1;
                None
            }
            Some(_) => {
                self.compact_recency();
                let e = self.entries.get_mut(&cell).expect("entry just seen");
                e.last_used = self.recency.stamp(cell);
                Some(&e.mirror)
            }
        }
    }

    /// Install (or refresh) the resident state of `cell` after a cleaning
    /// pass consolidated it to `messages` at list epoch `epoch`. Evicts
    /// least-recently-used cells as needed to respect both the configured
    /// budget and the card's capacity; returns whether the cell is resident
    /// afterwards. An empty consolidated list is never kept resident (the
    /// clean-skip cache already serves it for free).
    pub fn install(
        &mut self,
        device: &mut Device,
        cell: CellId,
        epoch: u64,
        messages: &[CachedMessage],
    ) -> bool {
        self.install_tagged(device, cell, epoch, messages, BufferTag::General)
    }

    /// [`Self::install`] for a *read-replica* of a cell another shard owns:
    /// the device buffer is tagged [`BufferTag::Replica`], so the hosting
    /// device's ledger charges the bytes to itself (never the owner) and
    /// releases them on invalidation. Shares the same budget and LRU as the
    /// owner-state entries.
    pub fn install_replica(
        &mut self,
        device: &mut Device,
        cell: CellId,
        epoch: u64,
        messages: &[CachedMessage],
    ) -> bool {
        self.install_tagged(device, cell, epoch, messages, BufferTag::Replica)
    }

    fn install_tagged(
        &mut self,
        device: &mut Device,
        cell: CellId,
        epoch: u64,
        messages: &[CachedMessage],
        tag: BufferTag,
    ) -> bool {
        if !self.enabled() || messages.is_empty() {
            self.invalidate(device, cell);
            return false;
        }
        let bytes = messages.len() as u64 * CachedMessage::WIRE_BYTES;
        if bytes > self.budget_bytes {
            self.invalidate(device, cell);
            return false;
        }

        // Free the cell's previous buffer first: the new allocation below
        // must not be blocked by state it is replacing.
        if let Some(e) = self.remove_entry(cell) {
            device.free_buffer(e.buffer);
        }

        // Budget eviction (never counts the slot being refreshed; external
        // charges squeeze the same budget).
        while self.resident_bytes + self.external_bytes + bytes > self.budget_bytes {
            if self.evict_lru(device).is_none() {
                return false; // bytes <= budget and store empty (or all external)
            }
        }

        // Capacity eviction: the card itself may be fuller than the budget
        // assumes (other structures share it).
        let buffer = loop {
            match device.alloc_buffer_tagged(bytes, tag) {
                Ok(b) => break b,
                Err(_) => {
                    if self.evict_lru(device).is_none() {
                        return false;
                    }
                }
            }
        };

        self.compact_recency();
        let last_used = self.recency.stamp(cell);
        self.insert_entry(
            cell,
            ResidentEntry {
                buffer,
                epoch,
                mirror: messages.to_vec(),
                last_used,
                tag,
            },
        );
        true
    }

    /// Drop stale recency stamps when they pile up (see [`Recency`]); run
    /// before each new stamp, while every entry's stamp is live.
    fn compact_recency(&mut self) {
        let entries = &self.entries;
        self.recency
            .compact(entries.len(), |c| entries.get(&c).map(|e| e.last_used));
    }

    /// The one place an entry enters the map: updates every running total.
    /// The caller has already stamped `entry.last_used` into the recency
    /// order.
    fn insert_entry(&mut self, cell: CellId, entry: ResidentEntry) {
        self.resident_bytes += entry.bytes();
        if entry.tag == BufferTag::Replica {
            self.replica_cells += 1;
            self.replica_bytes += entry.bytes();
        }
        let prev = self.entries.insert(cell, entry);
        debug_assert!(prev.is_none(), "{cell:?} installed twice");
    }

    /// The one place an entry leaves the map: updates every running total
    /// (its recency stamp goes stale). The caller frees the device buffer.
    fn remove_entry(&mut self, cell: CellId) -> Option<ResidentEntry> {
        let entry = self.entries.remove(&cell)?;
        self.resident_bytes -= entry.bytes();
        if entry.tag == BufferTag::Replica {
            self.replica_cells -= 1;
            self.replica_bytes -= entry.bytes();
        }
        Some(entry)
    }

    /// Recompute every running total from the entries and check it.
    fn debug_check_totals(&self) {
        let replicas = || {
            self.entries
                .values()
                .filter(|e| e.tag == BufferTag::Replica)
        };
        debug_assert_eq!(
            self.resident_bytes,
            self.entries.values().map(ResidentEntry::bytes).sum::<u64>()
        );
        debug_assert_eq!(self.replica_cells, replicas().count());
        debug_assert_eq!(
            self.replica_bytes,
            replicas().map(ResidentEntry::bytes).sum::<u64>()
        );
        debug_assert_eq!(
            self.recency
                .live(|c| self.entries.get(&c).map(|e| e.last_used)),
            self.entries.len()
        );
    }

    /// Whether `cell`'s resident entry is a read-replica (installed through
    /// [`Self::install_replica`]).
    pub fn is_replica(&self, cell: CellId) -> bool {
        self.entries
            .get(&cell)
            .is_some_and(|e| e.tag == BufferTag::Replica)
    }

    /// Read-replica entries currently resident.
    pub fn replica_cells(&self) -> usize {
        self.replica_cells
    }

    /// Bytes currently held by read-replica entries.
    pub fn replica_bytes(&self) -> u64 {
        self.replica_bytes
    }

    /// Drop `cell`'s resident state, if any. Returns the bytes freed.
    pub fn invalidate(&mut self, device: &mut Device, cell: CellId) -> u64 {
        match self.remove_entry(cell) {
            Some(e) => device.free_buffer(e.buffer),
            None => 0,
        }
    }

    /// Evict the least-recently-used resident cell — the smallest
    /// `(last_used, cell)`. Returns the victim.
    pub fn evict_lru(&mut self, device: &mut Device) -> Option<CellId> {
        let entries = &self.entries;
        let victim = self
            .recency
            .victim(|c| entries.get(&c).map(|e| e.last_used))?;
        self.invalidate(device, victim);
        self.evictions += 1;
        Some(victim)
    }

    /// Forcibly evict a specific cell (tests, ablations). Returns whether
    /// the cell was resident.
    pub fn force_evict(&mut self, device: &mut Device, cell: CellId) -> bool {
        let was = self.invalidate(device, cell) > 0;
        if was {
            self.evictions += 1;
        }
        was
    }

    /// Drop everything (e.g. before reconfiguring the device).
    pub fn clear(&mut self, device: &mut Device) {
        self.debug_check_totals();
        let cells: Vec<CellId> = self.entries.keys().copied().collect();
        for c in cells {
            self.invalidate(device, c);
        }
    }
}

/// Accounting for one [`TopologyStore::stage`] round.
#[derive(Clone, Copy, Debug, Default)]
pub struct StagedTopo {
    /// Simulated duration of the coalesced upload (zero when nothing missed).
    pub time: gpu_sim::SimNanos,
    /// Bytes shipped (sum of the missed slices).
    pub bytes: u64,
    /// Cells already resident — no upload owed.
    pub hits: u64,
    /// Cells whose slice rode the staged transfer.
    pub misses: u64,
    /// PCIe transactions avoided vs one transfer per missed cell.
    pub transactions_saved: u64,
}

/// One cell's device-resident CSR topology slice.
#[derive(Debug)]
struct TopoEntry {
    buffer: BufferId,
    bytes: u64,
    last_used: u64,
}

/// LRU store of device-resident per-cell CSR topology slices.
///
/// Unlike [`ResidentCellStore`] there is no epoch validity: the road network
/// is immutable, so a slice installed once is correct forever — the only
/// reason a lookup misses is that the cell was never uploaded or was evicted
/// under memory pressure. The host keeps no mirror either; the grid's
/// [`crate::grid::CellTopology`] *is* the data, and the store only accounts
/// for which cells have paid their H2D.
#[derive(Debug)]
pub struct TopologyStore {
    budget_bytes: u64,
    entries: HashMap<CellId, TopoEntry, FxBuildHasher>,
    recency: Recency,
    /// Running total of `entries`' bytes.
    resident_bytes: u64,
    evictions: u64,
    hits: u64,
    misses: u64,
}

impl TopologyStore {
    /// `budget_bytes = 0` disables the store: every [`Self::ensure`] misses
    /// (the caller pays the per-query upload) and nothing is kept resident.
    pub fn new(budget_bytes: u64) -> Self {
        Self {
            budget_bytes,
            entries: HashMap::with_hasher(FxBuildHasher::default()),
            recency: Recency::default(),
            resident_bytes: 0,
            evictions: 0,
            hits: 0,
            misses: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.budget_bytes > 0
    }

    pub fn budget_bytes(&self) -> u64 {
        self.budget_bytes
    }

    pub fn resident_cells(&self) -> usize {
        self.entries.len()
    }

    /// Bytes of topology currently resident on the device.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    pub fn contains(&self, cell: CellId) -> bool {
        self.entries.contains_key(&cell)
    }

    /// Lifetime evictions (monotone).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Lifetime lookup hits (cell already resident — no H2D owed).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime lookup misses (caller owes the upload).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Make `cell`'s slice (`bytes` wide) resident if possible. Returns
    /// `true` on a hit — the slice was already on the device and the caller
    /// owes no H2D — and `false` on a miss, in which case the caller charges
    /// the upload and the store installs the slice (evicting LRU victims to
    /// fit the budget and the card) so the *next* query hits. A slice wider
    /// than the whole budget is never installed.
    pub fn ensure(&mut self, device: &mut Device, cell: CellId, bytes: u64) -> bool {
        self.compact_recency();
        if let Some(e) = self.entries.get_mut(&cell) {
            e.last_used = self.recency.stamp(cell);
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if !self.enabled() || bytes == 0 || bytes > self.budget_bytes {
            return false;
        }

        while self.resident_bytes + bytes > self.budget_bytes {
            if self.evict_lru(device).is_none() {
                return false; // unreachable: bytes <= budget and store empty
            }
        }
        let buffer = loop {
            match device.alloc_buffer_tagged(bytes, BufferTag::Topology) {
                Ok(b) => break b,
                Err(_) => {
                    if self.evict_lru(device).is_none() {
                        return false;
                    }
                }
            }
        };

        let last_used = self.recency.stamp(cell);
        self.resident_bytes += bytes;
        self.entries.insert(
            cell,
            TopoEntry {
                buffer,
                bytes,
                last_used,
            },
        );
        false
    }

    /// Drop stale recency stamps when they pile up (see [`Recency`]); run
    /// before each new stamp, while every entry's stamp is live.
    fn compact_recency(&mut self) {
        let entries = &self.entries;
        self.recency
            .compact(entries.len(), |c| entries.get(&c).map(|e| e.last_used));
    }

    /// Ensure a whole set of slices in one *staged* transfer: every cell is
    /// looked up (and installed on miss) exactly as [`Self::ensure`] does,
    /// but the missed slices are shipped as a single coalesced H2D copy that
    /// pays the PCIe fixed latency once for the round instead of once per
    /// cell. Returns the accounting for the stage.
    pub fn stage(
        &mut self,
        device: &mut Device,
        cells: impl IntoIterator<Item = (CellId, u64)>,
    ) -> StagedTopo {
        let mut out = StagedTopo::default();
        for (cell, bytes) in cells {
            if self.ensure(device, cell, bytes) {
                out.hits += 1;
            } else {
                out.misses += 1;
                out.bytes += bytes;
            }
        }
        out.time = device.h2d_staged(out.misses as usize, out.bytes);
        out.transactions_saved = out.misses.saturating_sub(1);
        out
    }

    /// Evict the least-recently-used resident slice — the smallest
    /// `(last_used, cell)`. Returns the victim.
    pub fn evict_lru(&mut self, device: &mut Device) -> Option<CellId> {
        let entries = &self.entries;
        let victim = self
            .recency
            .victim(|c| entries.get(&c).map(|e| e.last_used))?;
        self.force_evict(device, victim);
        Some(victim)
    }

    /// Forcibly evict a specific cell (tests, ablations). Returns whether
    /// the cell was resident.
    pub fn force_evict(&mut self, device: &mut Device, cell: CellId) -> bool {
        match self.entries.remove(&cell) {
            Some(e) => {
                self.resident_bytes -= e.bytes;
                device.free_buffer(e.buffer);
                self.evictions += 1;
                true
            }
            None => false,
        }
    }

    /// Recompute the running total from the entries and check it.
    fn debug_check_totals(&self) {
        debug_assert_eq!(
            self.resident_bytes,
            self.entries.values().map(|e| e.bytes).sum::<u64>()
        );
        debug_assert_eq!(
            self.recency
                .live(|c| self.entries.get(&c).map(|e| e.last_used)),
            self.entries.len()
        );
    }

    /// Drop everything.
    pub fn clear(&mut self, device: &mut Device) {
        self.debug_check_totals();
        let cells: Vec<CellId> = self.entries.keys().copied().collect();
        for c in cells {
            self.force_evict(device, c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{ObjectId, Timestamp};
    use gpu_sim::DeviceSpec;
    use roadnet::{EdgeId, EdgePosition};

    fn msg(o: u64, t: u64) -> CachedMessage {
        CachedMessage::update(ObjectId(o), EdgePosition::new(EdgeId(0), 0), Timestamp(t))
    }

    fn msgs(n: u64) -> Vec<CachedMessage> {
        (0..n).map(|o| msg(o, 100 + o)).collect()
    }

    fn dev() -> Device {
        Device::new(DeviceSpec::test_tiny())
    }

    #[test]
    fn disabled_store_never_installs() {
        let mut d = dev();
        let mut s = ResidentCellStore::new(0);
        assert!(!s.install(&mut d, CellId(0), 1, &msgs(3)));
        assert!(s.lookup(&mut d, CellId(0), Some(1)).is_none());
        assert_eq!(d.residency().live_buffers, 0);
    }

    #[test]
    fn install_lookup_roundtrip() {
        let mut d = dev();
        let mut s = ResidentCellStore::new(1 << 20);
        let m = msgs(4);
        assert!(s.install(&mut d, CellId(2), 7, &m));
        assert_eq!(s.lookup(&mut d, CellId(2), Some(7)).unwrap(), &m[..]);
        assert_eq!(d.residency().live_buffers, 1);
        assert_eq!(s.resident_bytes(), 4 * CachedMessage::WIRE_BYTES);
    }

    #[test]
    fn stale_epoch_drops_entry() {
        let mut d = dev();
        let mut s = ResidentCellStore::new(1 << 20);
        s.install(&mut d, CellId(2), 7, &msgs(4));
        assert!(s.lookup(&mut d, CellId(2), Some(8)).is_none());
        assert!(!s.contains(CellId(2)), "stale entry must be dropped");
        assert_eq!(d.residency().live_buffers, 0);
        assert_eq!(s.evictions(), 1);
    }

    #[test]
    fn external_charge_squeezes_budget() {
        let mut d = dev();
        // Budget fits two 4-message cells but not three.
        let mut s = ResidentCellStore::new(9 * CachedMessage::WIRE_BYTES);
        s.install(&mut d, CellId(0), 1, &msgs(4));
        s.install(&mut d, CellId(1), 1, &msgs(4));
        // An external charge of 4 messages' worth must evict the LRU cell.
        s.reserve_external(&mut d, 4 * CachedMessage::WIRE_BYTES);
        assert_eq!(s.external_bytes(), 4 * CachedMessage::WIRE_BYTES);
        assert!(!s.contains(CellId(0)), "external pressure must evict LRU");
        assert!(s.contains(CellId(1)));
        // While the charge is live, installs see the squeezed budget.
        assert!(s.install(&mut d, CellId(2), 1, &msgs(4)));
        assert!(!s.contains(CellId(1)));
        // Releasing restores the full budget: both cells fit again.
        s.release_external(4 * CachedMessage::WIRE_BYTES);
        assert_eq!(s.external_bytes(), 0);
        assert!(s.install(&mut d, CellId(3), 1, &msgs(4)));
        assert!(s.contains(CellId(2)) && s.contains(CellId(3)));
    }

    #[test]
    fn external_charge_noop_when_disabled() {
        let mut d = dev();
        let mut s = ResidentCellStore::new(0);
        s.reserve_external(&mut d, 1 << 20);
        assert_eq!(s.external_bytes(), 0);
    }

    #[test]
    fn budget_evicts_lru() {
        let mut d = dev();
        // Budget fits two 4-message cells but not three.
        let mut s = ResidentCellStore::new(9 * CachedMessage::WIRE_BYTES);
        s.install(&mut d, CellId(0), 1, &msgs(4));
        s.install(&mut d, CellId(1), 1, &msgs(4));
        // Touch cell 0 so cell 1 is the LRU victim.
        assert!(s.lookup(&mut d, CellId(0), Some(1)).is_some());
        s.install(&mut d, CellId(2), 1, &msgs(4));
        assert!(s.contains(CellId(0)));
        assert!(!s.contains(CellId(1)), "LRU cell must be evicted");
        assert!(s.contains(CellId(2)));
        assert_eq!(s.evictions(), 1);
        assert_eq!(d.residency().live_buffers, 2);
    }

    #[test]
    fn oversized_cell_never_promoted() {
        let mut d = dev();
        let mut s = ResidentCellStore::new(2 * CachedMessage::WIRE_BYTES);
        assert!(!s.install(&mut d, CellId(0), 1, &msgs(3)));
        assert_eq!(s.resident_cells(), 0);
        assert_eq!(d.residency().live_buffers, 0);
    }

    #[test]
    fn reinstall_replaces_buffer() {
        let mut d = dev();
        let mut s = ResidentCellStore::new(1 << 20);
        s.install(&mut d, CellId(0), 1, &msgs(4));
        s.install(&mut d, CellId(0), 3, &msgs(2));
        assert_eq!(s.resident_cells(), 1);
        assert_eq!(s.resident_bytes(), 2 * CachedMessage::WIRE_BYTES);
        assert_eq!(d.residency().live_buffers, 1);
        assert!(s.lookup(&mut d, CellId(0), Some(1)).is_none());
    }

    #[test]
    fn empty_consolidation_invalidates() {
        let mut d = dev();
        let mut s = ResidentCellStore::new(1 << 20);
        s.install(&mut d, CellId(0), 1, &msgs(4));
        assert!(!s.install(&mut d, CellId(0), 2, &[]));
        assert!(!s.contains(CellId(0)));
        assert_eq!(d.residency().live_buffers, 0);
    }

    #[test]
    fn device_capacity_forces_eviction() {
        // test_tiny card: 1 MiB. Budget is larger than the card, so the
        // capacity loop (not the budget loop) must evict.
        let mut d = dev();
        d.alloc(1024 * 1024 - 64 * CachedMessage::WIRE_BYTES)
            .unwrap();
        let mut s = ResidentCellStore::new(1 << 30);
        assert!(s.install(&mut d, CellId(0), 1, &msgs(40)));
        assert!(s.install(&mut d, CellId(1), 1, &msgs(40)));
        assert!(!s.contains(CellId(0)), "card pressure must evict LRU");
        assert!(s.contains(CellId(1)));
    }

    #[test]
    fn force_evict_and_clear() {
        let mut d = dev();
        let mut s = ResidentCellStore::new(1 << 20);
        s.install(&mut d, CellId(0), 1, &msgs(2));
        s.install(&mut d, CellId(1), 1, &msgs(2));
        assert!(s.force_evict(&mut d, CellId(0)));
        assert!(!s.force_evict(&mut d, CellId(0)));
        assert_eq!(s.evictions(), 1);
        s.clear(&mut d);
        assert_eq!(s.resident_cells(), 0);
        assert_eq!(d.residency().live_buffers, 0);
    }

    #[test]
    fn replica_install_tags_bytes_on_hosting_device() {
        let mut d = dev();
        let mut s = ResidentCellStore::new(1 << 20);
        let m = msgs(4);
        assert!(s.install_replica(&mut d, CellId(5), 3, &m));
        assert!(s.is_replica(CellId(5)));
        assert_eq!(s.replica_cells(), 1);
        assert_eq!(s.replica_bytes(), 4 * CachedMessage::WIRE_BYTES);
        assert_eq!(
            d.resident_bytes_tagged(gpu_sim::BufferTag::Replica),
            4 * CachedMessage::WIRE_BYTES,
            "replica bytes must be charged to the hosting device under the Replica tag"
        );
        // Owner-state installs stay untagged and are not replicas.
        assert!(s.install(&mut d, CellId(1), 1, &msgs(2)));
        assert!(!s.is_replica(CellId(1)));
        assert_eq!(s.replica_cells(), 1);
        // Lookup serves the replica mirror while its epoch holds...
        assert_eq!(s.lookup(&mut d, CellId(5), Some(3)).unwrap(), &m[..]);
        // ...and invalidation releases exactly its bytes from the device.
        let freed = s.invalidate(&mut d, CellId(5));
        assert_eq!(freed, 4 * CachedMessage::WIRE_BYTES);
        assert_eq!(d.resident_bytes_tagged(gpu_sim::BufferTag::Replica), 0);
        assert!(!s.is_replica(CellId(5)));
        assert_eq!(s.replica_bytes(), 0);
    }

    #[test]
    fn replica_shares_budget_with_owner_state() {
        let mut d = dev();
        // Budget fits two 4-message entries but not three.
        let mut s = ResidentCellStore::new(9 * CachedMessage::WIRE_BYTES);
        assert!(s.install(&mut d, CellId(0), 1, &msgs(4)));
        assert!(s.install_replica(&mut d, CellId(9), 1, &msgs(4)));
        // A third entry evicts the LRU regardless of kind.
        assert!(s.install(&mut d, CellId(1), 1, &msgs(4)));
        assert!(!s.contains(CellId(0)), "LRU owner entry evicted first");
        assert!(s.is_replica(CellId(9)));
    }

    #[test]
    fn stale_replica_dropped_on_lookup() {
        let mut d = dev();
        let mut s = ResidentCellStore::new(1 << 20);
        s.install_replica(&mut d, CellId(2), 7, &msgs(3));
        // The owner re-consolidated to epoch 9: the replica must never be
        // served, and the lookup itself tears it down.
        assert!(s.lookup(&mut d, CellId(2), Some(9)).is_none());
        assert!(!s.contains(CellId(2)));
        assert_eq!(d.resident_bytes_tagged(gpu_sim::BufferTag::Replica), 0);
    }

    #[test]
    fn topology_miss_installs_then_hits() {
        let mut d = dev();
        let mut s = TopologyStore::new(1 << 20);
        assert!(!s.ensure(&mut d, CellId(3), 400), "first touch is a miss");
        assert!(s.contains(CellId(3)));
        assert!(s.ensure(&mut d, CellId(3), 400), "second touch hits");
        assert_eq!((s.hits(), s.misses()), (1, 1));
        assert_eq!(s.resident_bytes(), 400);
        assert_eq!(
            d.resident_bytes_tagged(gpu_sim::BufferTag::Topology),
            400,
            "topology bytes must be tagged on the device"
        );
    }

    #[test]
    fn topology_disabled_never_installs() {
        let mut d = dev();
        let mut s = TopologyStore::new(0);
        assert!(!s.ensure(&mut d, CellId(0), 100));
        assert!(!s.ensure(&mut d, CellId(0), 100), "stays a miss");
        assert_eq!(s.resident_cells(), 0);
        assert_eq!(d.residency().live_buffers, 0);
        assert_eq!(s.misses(), 2);
    }

    #[test]
    fn topology_budget_evicts_lru() {
        let mut d = dev();
        let mut s = TopologyStore::new(1000);
        s.ensure(&mut d, CellId(0), 400);
        s.ensure(&mut d, CellId(1), 400);
        assert!(s.ensure(&mut d, CellId(0), 400), "touch 0 → 1 is LRU");
        s.ensure(&mut d, CellId(2), 400);
        assert!(s.contains(CellId(0)));
        assert!(!s.contains(CellId(1)), "LRU slice must be evicted");
        assert!(s.contains(CellId(2)));
        assert_eq!(s.evictions(), 1);
    }

    #[test]
    fn topology_oversized_slice_never_installed() {
        let mut d = dev();
        let mut s = TopologyStore::new(100);
        assert!(!s.ensure(&mut d, CellId(0), 101));
        assert!(!s.contains(CellId(0)));
        assert_eq!(d.residency().live_buffers, 0);
    }

    #[test]
    fn topology_card_capacity_forces_eviction() {
        // test_tiny card: 1 MiB; budget larger than the card, so the
        // capacity loop (not the budget loop) must evict.
        let mut d = dev();
        d.alloc(1024 * 1024 - 600).unwrap();
        let mut s = TopologyStore::new(1 << 30);
        assert!(!s.ensure(&mut d, CellId(0), 500));
        assert!(!s.ensure(&mut d, CellId(1), 500));
        assert!(!s.contains(CellId(0)), "card pressure must evict LRU");
        assert!(s.contains(CellId(1)));
    }

    #[test]
    fn staged_round_pays_one_latency_for_all_misses() {
        let mut d = dev();
        let latency = d.spec().pcie_latency_ns;
        let mut s = TopologyStore::new(1 << 20);
        s.ensure(&mut d, CellId(0), 100); // pre-resident → stage hit
        let before = d.ledger().h2d_time;
        let staged = s.stage(
            &mut d,
            [(CellId(0), 100), (CellId(1), 200), (CellId(2), 300)],
        );
        assert_eq!((staged.hits, staged.misses), (1, 2));
        assert_eq!(staged.bytes, 500);
        assert_eq!(staged.transactions_saved, 1);
        assert_eq!(d.ledger().h2d_transfers, 1);
        assert_eq!(d.ledger().h2d_coalesced_saved, 1);
        // One latency charge for the whole stage.
        let wire = gpu_sim::SimNanos::from_secs_f64(500.0 / d.spec().pcie_bandwidth_bytes_per_sec);
        assert_eq!(
            d.ledger().h2d_time - before,
            gpu_sim::SimNanos(latency) + wire
        );
        // Both missed cells are now resident.
        assert!(s.contains(CellId(1)) && s.contains(CellId(2)));
        let again = s.stage(&mut d, [(CellId(1), 200), (CellId(2), 300)]);
        assert_eq!((again.hits, again.misses), (2, 0));
        assert_eq!(again.time, gpu_sim::SimNanos::ZERO);
        assert_eq!(d.ledger().h2d_transfers, 1, "all-hit stage ships nothing");
    }

    #[test]
    fn staged_round_with_store_disabled_still_ships_once() {
        // budget 0: nothing installs, but the round's uploads still coalesce.
        let mut d = dev();
        let mut s = TopologyStore::new(0);
        let staged = s.stage(&mut d, [(CellId(0), 100), (CellId(1), 100)]);
        assert_eq!((staged.hits, staged.misses), (0, 2));
        assert_eq!(d.ledger().h2d_transfers, 1);
        assert_eq!(s.resident_cells(), 0);
    }

    #[test]
    fn topology_force_evict_and_clear() {
        let mut d = dev();
        let mut s = TopologyStore::new(1 << 20);
        s.ensure(&mut d, CellId(0), 100);
        s.ensure(&mut d, CellId(1), 100);
        assert!(s.force_evict(&mut d, CellId(0)));
        assert!(!s.force_evict(&mut d, CellId(0)));
        assert!(!s.ensure(&mut d, CellId(0), 100), "evicted → miss again");
        s.clear(&mut d);
        assert_eq!(s.resident_cells(), 0);
        assert_eq!(d.residency().live_buffers, 0);
    }
}

/// Both stores against a reference model that keeps every entry in a
/// sorted map and recomputes everything by scanning it: byte sums summed on
/// demand, victims picked as the smallest `(last_used, cell)`, and the
/// card's free memory derived from what is resident.
#[cfg(test)]
mod proptests {
    use super::*;
    use crate::message::{ObjectId, Timestamp};
    use gpu_sim::DeviceSpec;
    use proptest::prelude::*;
    use roadnet::{EdgeId, EdgePosition};
    use std::collections::BTreeMap;

    const CELLS: u32 = 12;
    const BUDGETS: [u64; 3] = [512, 4 << 10, 64 << 20];

    #[derive(Clone, Copy, Debug)]
    struct RefEntry {
        epoch: u64,
        bytes: u64,
        last_used: u64,
        replica: bool,
    }

    /// One store's reference state (the topology store leaves `epoch`,
    /// `replica` and `external` unused).
    #[derive(Default)]
    struct RefStore {
        budget: u64,
        entries: BTreeMap<u32, RefEntry>,
        tick: u64,
        evictions: u64,
        external: u64,
        hits: u64,
        misses: u64,
    }

    impl RefStore {
        fn bytes(&self) -> u64 {
            self.entries.values().map(|e| e.bytes).sum()
        }

        fn victim(&self) -> Option<u32> {
            self.entries
                .iter()
                .min_by_key(|(c, e)| (e.last_used, **c))
                .map(|(&c, _)| c)
        }

        fn remove(&mut self, card_free: &mut u64, cell: u32) -> Option<RefEntry> {
            let e = self.entries.remove(&cell)?;
            *card_free += e.bytes;
            Some(e)
        }

        fn evict_lru(&mut self, card_free: &mut u64) -> Option<u32> {
            let victim = self.victim()?;
            self.remove(card_free, victim);
            self.evictions += 1;
            Some(victim)
        }

        /// The shared tail of both stores' installs: budget eviction, then
        /// capacity eviction, then the insert.
        fn admit(&mut self, card_free: &mut u64, cell: u32, mut e: RefEntry) -> bool {
            while self.bytes() + self.external + e.bytes > self.budget {
                if self.evict_lru(card_free).is_none() {
                    return false;
                }
            }
            while *card_free < e.bytes {
                if self.evict_lru(card_free).is_none() {
                    return false;
                }
            }
            *card_free -= e.bytes;
            self.tick += 1;
            e.last_used = self.tick;
            self.entries.insert(cell, e);
            true
        }

        fn install(
            &mut self,
            card_free: &mut u64,
            cell: u32,
            epoch: u64,
            n: u64,
            replica: bool,
        ) -> bool {
            let bytes = n * CachedMessage::WIRE_BYTES;
            self.remove(card_free, cell);
            if self.budget == 0 || n == 0 || bytes > self.budget {
                return false;
            }
            let e = RefEntry {
                epoch,
                bytes,
                last_used: 0,
                replica,
            };
            self.admit(card_free, cell, e)
        }

        fn lookup(&mut self, card_free: &mut u64, cell: u32, epoch: Option<u64>) -> Option<u64> {
            let e = *self.entries.get(&cell)?;
            if epoch != Some(e.epoch) {
                self.remove(card_free, cell);
                self.evictions += 1;
                return None;
            }
            self.tick += 1;
            self.entries.get_mut(&cell).unwrap().last_used = self.tick;
            Some(e.bytes / CachedMessage::WIRE_BYTES)
        }

        fn reserve_external(&mut self, card_free: &mut u64, bytes: u64) {
            if self.budget == 0 || bytes == 0 {
                return;
            }
            while self.bytes() + self.external + bytes > self.budget {
                if self.evict_lru(card_free).is_none() {
                    break;
                }
            }
            self.external += bytes;
        }

        fn ensure(&mut self, card_free: &mut u64, cell: u32, bytes: u64) -> bool {
            if let Some(e) = self.entries.get_mut(&cell) {
                self.tick += 1;
                e.last_used = self.tick;
                self.hits += 1;
                return true;
            }
            self.misses += 1;
            if self.budget == 0 || bytes == 0 || bytes > self.budget {
                return false;
            }
            let e = RefEntry {
                epoch: 0,
                bytes,
                last_used: 0,
                replica: false,
            };
            self.admit(card_free, cell, e);
            false
        }
    }

    /// The consolidated list a test installs for `(cell, epoch)`.
    fn list(cell: u32, epoch: u64, n: u64) -> Vec<CachedMessage> {
        (0..n)
            .map(|o| {
                CachedMessage::update(
                    ObjectId(o * 100 + cell as u64),
                    EdgePosition::new(EdgeId(cell), o as u32),
                    Timestamp(epoch),
                )
            })
            .collect()
    }

    fn check(
        d: &Device,
        cells: &ResidentCellStore,
        topo: &TopologyStore,
        rc: &RefStore,
        rt: &RefStore,
        prealloc: u64,
    ) {
        cells.debug_check_totals();
        topo.debug_check_totals();
        assert_eq!(cells.resident_bytes(), rc.bytes());
        assert_eq!(cells.resident_cells(), rc.entries.len());
        assert_eq!(cells.evictions(), rc.evictions);
        assert_eq!(cells.external_bytes(), rc.external);
        let replicas = || rc.entries.values().filter(|e| e.replica);
        assert_eq!(cells.replica_cells(), replicas().count());
        assert_eq!(
            cells.replica_bytes(),
            replicas().map(|e| e.bytes).sum::<u64>()
        );
        assert_eq!(topo.resident_bytes(), rt.bytes());
        assert_eq!(topo.resident_cells(), rt.entries.len());
        assert_eq!(topo.evictions(), rt.evictions);
        assert_eq!((topo.hits(), topo.misses()), (rt.hits, rt.misses));
        for c in 0..CELLS {
            assert_eq!(
                cells.contains(CellId(c)),
                rc.entries.contains_key(&c),
                "cell {c}"
            );
            assert_eq!(
                cells.is_replica(CellId(c)),
                rc.entries.get(&c).is_some_and(|e| e.replica)
            );
            assert_eq!(
                topo.contains(CellId(c)),
                rt.entries.contains_key(&c),
                "topo {c}"
            );
        }
        assert_eq!(d.residency().resident_bytes, rc.bytes() + rt.bytes());
        assert_eq!(d.memory().in_use(), prealloc + rc.bytes() + rt.bytes());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random interleavings of every store operation on one shared
        /// card, at budgets that evict constantly, sometimes, and never
        /// (the last with the card itself nearly full, so capacity evicts):
        /// both stores make the reference model's decisions — same hits,
        /// same victims in the same order, same counters — and every
        /// running total equals its recomputed sum after every step.
        #[test]
        fn stores_match_the_reference_model(
            budget_idx in 0usize..3,
            squeeze in prop::bool::weighted(0.5),
            ops in prop::collection::vec(
                (0u8..16, 0u32..CELLS, 0u64..25, 0u8..3, 1u64..4, 0u64..800), 1..600),
        ) {
            let budget = BUDGETS[budget_idx];
            let mut d = Device::new(DeviceSpec::test_tiny());
            let capacity = d.memory().capacity();
            let prealloc = if squeeze { capacity - 6 * 1024 } else { 0 };
            d.alloc(prealloc).unwrap();
            let mut card_free = capacity - prealloc;
            let mut cells = ResidentCellStore::new(budget);
            let mut topo = TopologyStore::new(budget);
            let mut rc = RefStore { budget, ..Default::default() };
            let mut rt = RefStore { budget, ..Default::default() };

            for (kind, cell, n, sel, epoch, bytes) in ops {
                let c = CellId(cell);
                match kind {
                    0 | 1 => {
                        let m = list(cell, epoch, n);
                        let replica = kind == 1;
                        let got = if replica {
                            cells.install_replica(&mut d, c, epoch, &m)
                        } else {
                            cells.install(&mut d, c, epoch, &m)
                        };
                        prop_assert_eq!(got, rc.install(&mut card_free, cell, epoch, n, replica));
                    }
                    2..=5 => {
                        // sel 0: the entry's own epoch (a hit); 1: another
                        // epoch (a stale drop unless it matches); 2: never
                        // cleaned.
                        let ep = match sel {
                            0 => rc.entries.get(&cell).map(|e| e.epoch).or(Some(epoch)),
                            1 => Some(epoch),
                            _ => None,
                        };
                        let want = rc.lookup(&mut card_free, cell, ep);
                        let got = cells.lookup(&mut d, c, ep).map(<[CachedMessage]>::to_vec);
                        let want = want.zip(ep).map(|(len, ep)| list(cell, ep, len));
                        prop_assert_eq!(got, want);
                    }
                    6 => {
                        let freed = cells.invalidate(&mut d, c);
                        let e = rc.remove(&mut card_free, cell);
                        prop_assert_eq!(freed, e.map_or(0, |e| e.bytes));
                    }
                    7 => {
                        let was = rc.remove(&mut card_free, cell).is_some();
                        rc.evictions += was as u64;
                        prop_assert_eq!(cells.force_evict(&mut d, c), was);
                    }
                    8 => {
                        cells.reserve_external(&mut d, bytes);
                        rc.reserve_external(&mut card_free, bytes);
                    }
                    9 => {
                        cells.release_external(bytes);
                        rc.external = rc.external.saturating_sub(bytes);
                    }
                    10 => {
                        prop_assert_eq!(cells.evict_lru(&mut d).map(|c| c.0), rc.evict_lru(&mut card_free));
                    }
                    11..=13 => {
                        // A staged round over up to three consecutive cells.
                        let round: Vec<(CellId, u64)> = (0..=u32::from(sel))
                            .map(|i| (CellId((cell + i) % CELLS), (bytes + 97 * i as u64) % 800))
                            .collect();
                        let mut want = StagedTopo::default();
                        for &(rcell, b) in &round {
                            if rt.ensure(&mut card_free, rcell.0, b) {
                                want.hits += 1;
                            } else {
                                want.misses += 1;
                                want.bytes += b;
                            }
                        }
                        let got = topo.stage(&mut d, round);
                        prop_assert_eq!((got.hits, got.misses, got.bytes), (want.hits, want.misses, want.bytes));
                    }
                    14 => {
                        let was = rt.remove(&mut card_free, cell).is_some();
                        rt.evictions += was as u64;
                        prop_assert_eq!(topo.force_evict(&mut d, c), was);
                    }
                    _ => {
                        prop_assert_eq!(topo.evict_lru(&mut d).map(|c| c.0), rt.evict_lru(&mut card_free));
                    }
                }
                check(&d, &cells, &topo, &rc, &rt, prealloc);
            }
            cells.clear(&mut d);
            topo.clear(&mut d);
            prop_assert_eq!(d.memory().in_use(), prealloc);
        }
    }
}
