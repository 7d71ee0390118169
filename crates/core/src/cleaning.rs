//! Message cleaning (paper Algorithm 2).
//!
//! Given a set of cells, freeze their message lists, ship the surviving
//! buckets to the device in pipelined groups (§V-A; the group count is
//! planned per round against the link latency, see `plan_upload`), run
//! the X-shuffle kernel, copy the result table ℛ back, and write the
//! consolidated per-object messages back into the cells' lists.
//!
//! Cells whose lists are still exactly the result of their last cleaning
//! pass (no append since — see the epoch tracking in
//! [`crate::message_list`]) are **skipped**: their consolidated messages
//! are served straight from the host cache, filtered by the caller's
//! expiry horizon, with no kernel launch and no transfer. The skip is
//! answer-preserving because cleaning a consolidated list is idempotent;
//! it only removes simulated device time and bus traffic.
//!
//! Cells that are dirty but whose last consolidated state is still
//! **device-resident** (see [`crate::residency`]) take the *delta-merge*
//! path: only the messages appended since the clean cross the bus, and the
//! fused [`xshuffle_merge`] kernel combines them with the resident state in
//! the same launch that cleans the cold cells. Copy-back for merged cells
//! ships only the objects that actually changed. Cold or evicted cells take
//! the full-upload path — residency is purely a cost optimisation and is
//! never required for correctness.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use gpu_sim::xfer::transfer_time;
use gpu_sim::{pipelined_makespan, Device, DeviceSpec, SimNanos};

use crate::config::GGridConfig;
use crate::grid::CellId;
use crate::message::{CachedMessage, ObjectId, Timestamp};
use crate::message_list::CellLists;
use crate::object_table::FxBuildHasher;
use crate::residency::ResidentCellStore;
use crate::xshuffle::{xshuffle_clean, xshuffle_merge, WireMessage};

/// Cost report of one cleaning round.
#[derive(Clone, Copy, Debug, Default)]
pub struct CleaningReport {
    /// End-to-end simulated time: pipelined upload+kernel, plus the result
    /// copy back.
    pub time: SimNanos,
    /// Upload + kernel portion of `time` (copy-back excluded): everything
    /// that must finish before the result starts streaming back.
    pub compute_time: SimNanos,
    /// D2H copy-back portion of `time`, strictly after all compute. Callers
    /// that overlap streams (the batch pipeline) schedule this on a
    /// copy stream so later kernels need not wait on it.
    pub copy_back_time: SimNanos,
    pub kernel_time: SimNanos,
    pub h2d_bytes: u64,
    /// Portion of `h2d_bytes` that was a delta upload to a resident cell.
    pub h2d_delta_bytes: u64,
    /// Portion of `h2d_bytes` that was a full (cold-path) upload.
    pub h2d_full_bytes: u64,
    pub d2h_bytes: u64,
    pub buckets: usize,
    pub messages: usize,
    /// Cells the kernel actually processed this round.
    pub cells_cleaned: usize,
    /// Cells served from the epoch-based clean-skip cache.
    pub cells_skipped: usize,
    /// Cells cleaned through the resident delta-merge path.
    pub resident_hits: usize,
    /// Resident cells evicted during this round (LRU or staleness).
    pub evictions: u64,
    /// Diagnostic surfaced from the kernel (Theorem 1 check).
    pub max_duplicates_seen: u32,
}

impl CleaningReport {
    /// Fold another report into this one: every counter and simulated
    /// clock is additive (callers modeling stream overlap use the
    /// per-shard reports directly instead), except the duplicate
    /// diagnostic, which is a max.
    pub fn merge(&mut self, other: &Self) {
        self.time += other.time;
        self.compute_time += other.compute_time;
        self.copy_back_time += other.copy_back_time;
        self.kernel_time += other.kernel_time;
        self.h2d_bytes += other.h2d_bytes;
        self.h2d_delta_bytes += other.h2d_delta_bytes;
        self.h2d_full_bytes += other.h2d_full_bytes;
        self.d2h_bytes += other.d2h_bytes;
        self.buckets += other.buckets;
        self.messages += other.messages;
        self.cells_cleaned += other.cells_cleaned;
        self.cells_skipped += other.cells_skipped;
        self.resident_hits += other.resident_hits;
        self.evictions += other.evictions;
        self.max_duplicates_seen = self.max_duplicates_seen.max(other.max_duplicates_seen);
    }
}

/// What a cleaning round read, for every cell it consolidated or skipped
/// (empty ones included): the live objects, newest position per object,
/// and the list epoch they are current at. While a cell's list stays at
/// that epoch its entry *is* what cleaning the cell again would yield, so
/// one round's output is the cache later rounds serve from
/// ([`Self::current`]): a batch's shared pass and a subscription tick's
/// pre-clean hand theirs to the queries and repairs that follow.
#[derive(Debug, Default)]
pub struct CleanedObjects {
    cells: HashMap<CellId, (u64, Vec<CachedMessage>), FxBuildHasher>,
}

impl CleanedObjects {
    /// `cell`'s live objects if the round read it and no message has
    /// landed in its list since: exactly what cleaning it now would yield.
    pub fn current(&self, lists: &CellLists, cell: CellId) -> Option<&[CachedMessage]> {
        let (epoch, msgs) = self.cells.get(&cell)?;
        (lists.lock(cell.index()).epoch() == *epoch).then_some(msgs.as_slice())
    }

    /// Every cell the round read, with its live objects, in no set order.
    pub fn iter(&self) -> impl Iterator<Item = (CellId, &[CachedMessage])> {
        self.cells
            .iter()
            .map(|(&c, (_, msgs))| (c, msgs.as_slice()))
    }

    /// Fold in another round's output over disjoint cells.
    pub(crate) fn absorb(&mut self, other: Self) {
        self.cells.extend(other.cells);
    }

    fn insert(&mut self, cell: CellId, epoch: u64, msgs: Vec<CachedMessage>) {
        self.cells.insert(cell, (epoch, msgs));
    }
}

impl std::ops::Index<CellId> for CleanedObjects {
    type Output = [CachedMessage];

    /// The live objects the round found in `cell`; panics if it did not.
    fn index(&self, cell: CellId) -> &[CachedMessage] {
        let (_, msgs) = self.cells.get(&cell).expect("cell not read by this round");
        msgs
    }
}

/// Clean the message lists of `cells`.
///
/// `lists` is the per-cell message-list array (indexed by cell id). After
/// the call, each cleaned cell's list holds one consolidated message per
/// surviving object (plus anything that arrived during the simulated GPU
/// processing), and is stamped clean at its current epoch so repeat
/// requests can skip the kernel while no new message lands in the cell.
pub fn clean_cells(
    device: &mut Device,
    lists: &CellLists,
    resident: &mut ResidentCellStore,
    cells: &[CellId],
    config: &GGridConfig,
    now: Timestamp,
) -> (CleanedObjects, CleaningReport) {
    clean_cells_with_heat(device, lists, resident, cells, config, now, None)
}

/// [`clean_cells`] with an optional per-cell read-heat tally: every cell
/// served from the clean-skip cache bumps `read_heat[cell]`. This is the
/// replication signal of the sharded server — a cell that is repeatedly
/// read while already consolidated is exactly one whose list is worth
/// promoting onto the reading devices (see `GGridConfig::replicate_threshold`).
/// The tally never affects the cleaning output.
#[allow(clippy::too_many_arguments)]
pub fn clean_cells_with_heat(
    device: &mut Device,
    lists: &CellLists,
    resident: &mut ResidentCellStore,
    cells: &[CellId],
    config: &GGridConfig,
    now: Timestamp,
    read_heat: Option<&[AtomicU64]>,
) -> (CleanedObjects, CleaningReport) {
    let horizon = now.saturating_sub_ms(config.t_delta_ms);
    let mut out = CleanedObjects::default();
    let mut rep = CleaningReport::default();
    let evictions_before = resident.evictions();

    // Preprocessing (Algorithm 2 lines 1–5): three-way split. Cells whose
    // lists are untouched since the last clean are served from the host
    // cache (skip). Dirty cells whose consolidated state is still
    // device-resident ship only their delta (merge). Everything else
    // freezes and ships its full list (full). Messages are annotated with
    // their cell id; expired whole buckets never leave the host. Buckets
    // are laid end to end in one flat array, each a range of `wire`, and
    // each merge cell's resident mirror is one range of `resident_msgs` —
    // its prior state for the copy-back diff.
    let mut work: Vec<CellId> = Vec::with_capacity(cells.len());
    let mut merge: Vec<(CellId, Range<usize>)> = Vec::new();
    let mut wire: Vec<WireMessage> = Vec::new();
    let mut bucket_ranges: Vec<Range<usize>> = Vec::new();
    let mut full_msgs: usize = 0;
    let mut delta_msgs: usize = 0;
    let mut resident_msgs: Vec<WireMessage> = Vec::new();
    for &c in cells {
        let mut list = lists.lock(c.index());
        if list.is_clean() {
            rep.cells_skipped += 1;
            if let Some(heat) = read_heat {
                heat[c.index()].fetch_add(1, Ordering::Relaxed);
            }
            out.insert(c, list.epoch(), list.snapshot_clean(horizon));
            continue;
        }
        let frozen = match resident.lookup(device, c, list.cleaned_epoch()) {
            Some(mirror) => {
                debug_assert_eq!(mirror.len(), list.consolidated_len());
                let start = resident_msgs.len();
                resident_msgs.extend(mirror.iter().map(|&msg| WireMessage { msg, cell: c }));
                merge.push((c, start..resident_msgs.len()));
                let delta = list.take_delta_for_cleaning(now, config.t_delta_ms);
                delta_msgs += delta.iter().map(|b| b.messages.len()).sum::<usize>();
                delta
            }
            None => {
                work.push(c);
                let full = list.take_for_cleaning(now, config.t_delta_ms);
                full_msgs += full.iter().map(|b| b.messages.len()).sum::<usize>();
                full
            }
        };
        for bucket in frozen {
            let start = wire.len();
            wire.extend(
                bucket
                    .messages
                    .iter()
                    .map(|&msg| WireMessage { msg, cell: c }),
            );
            bucket_ranges.push(start..wire.len());
            // The frozen slab has served its purpose: pool it for the next
            // append (same lock acquisition — no extra locking).
            list.recycle(bucket.messages);
        }
    }
    rep.cells_cleaned = work.len() + merge.len();
    rep.resident_hits = merge.len();

    if bucket_ranges.is_empty() && resident_msgs.is_empty() {
        // Nothing survived the freeze: the worked cells are now empty,
        // which is the (trivial) consolidated state — stamp them so the
        // next request skips straight to the cache.
        for &c in work.iter().chain(merge.iter().map(|(c, _)| c)) {
            let mut list = lists.lock(c.index());
            list.mark_clean();
            out.insert(c, list.epoch(), Vec::new());
            resident.invalidate(device, c);
        }
        rep.evictions = resident.evictions() - evictions_before;
        return (out, rep);
    }
    let buckets: Vec<&[WireMessage]> = bucket_ranges.iter().map(|r| &wire[r.clone()]).collect();

    // Upload in pipelined groups: the device starts cleaning the first
    // group while later groups are still on the wire (§V-A). Resident
    // state is already on the card and ships nothing.
    let mut h2d_bytes = 0u64;
    let overlapped;
    if !buckets.is_empty() {
        // Parallel processing (Algorithm 2 lines 6–9): one thread per
        // bucket, fused with the resident merge when any cell took the
        // delta path. Launching first makes the kernel time known to the
        // upload planner.
        let (output, report) = device.launch(buckets.len().max(resident_msgs.len()), |ctx| {
            if resident_msgs.is_empty() {
                xshuffle_clean(ctx, &buckets, config.eta, horizon)
            } else {
                xshuffle_merge(ctx, &resident_msgs, &buckets, config.eta, horizon)
            }
        });

        let bucket_bytes: Vec<u64> = buckets
            .iter()
            .map(|b| b.len() as u64 * CachedMessage::WIRE_BYTES)
            .collect();
        let (groups, makespan) = plan_upload(
            device.spec(),
            &bucket_bytes,
            report.time,
            config.transfer_chunks,
        );
        for &bytes in &groups {
            device.h2d(bytes);
            h2d_bytes += bytes;
        }
        overlapped = makespan;

        finish_round(
            device,
            lists,
            resident,
            &work,
            &merge,
            &resident_msgs,
            output,
            &mut out,
            &mut rep,
        );
        rep.kernel_time = report.time;
    } else {
        // Delta-only round where every delta bucket expired on the host:
        // the merge kernel runs on resident state alone.
        let (output, report) = device.launch(resident_msgs.len(), |ctx| {
            xshuffle_merge::<&[WireMessage]>(ctx, &resident_msgs, &[], config.eta, horizon)
        });
        finish_round(
            device,
            lists,
            resident,
            &work,
            &merge,
            &resident_msgs,
            output,
            &mut out,
            &mut rep,
        );
        rep.kernel_time = report.time;
        overlapped = report.time;
    }

    // Byte split between the cold path and the delta path. Every shipped
    // message is counted on exactly one path when it is frozen, so the
    // split is exact even when full and delta cells share a round.
    rep.h2d_full_bytes = full_msgs as u64 * CachedMessage::WIRE_BYTES;
    rep.h2d_delta_bytes = delta_msgs as u64 * CachedMessage::WIRE_BYTES;
    debug_assert_eq!(rep.h2d_full_bytes + rep.h2d_delta_bytes, h2d_bytes);

    rep.compute_time = overlapped;
    rep.time = rep.compute_time + rep.copy_back_time;
    rep.h2d_bytes = h2d_bytes;
    rep.buckets = buckets.len();
    rep.messages = wire.len();
    rep.evictions = resident.evictions() - evictions_before;
    (out, rep)
}

/// Plan the pipelined upload of one cleaning round (§V-A).
///
/// Splitting the upload into `c` groups lets the kernel start on the first
/// group while later ones are still on the wire, but every group pays the
/// link's fixed latency. The planner tries every `c` in `1..=cap` (capped
/// by the bucket count), splitting the buckets in order into groups of
/// `⌈buckets / c⌉`, each carrying a byte-proportional share of
/// `kernel_time`, and keeps the `c` with the smallest
/// [`pipelined_makespan`]; on a tie the fewer groups win. Returns the
/// chosen groups' byte sizes and their makespan.
fn plan_upload(
    spec: &DeviceSpec,
    bucket_bytes: &[u64],
    kernel_time: SimNanos,
    cap: usize,
) -> (Vec<u64>, SimNanos) {
    let total: u64 = bucket_bytes.iter().sum();
    let mut best: (Vec<u64>, SimNanos) = (Vec::new(), SimNanos(u64::MAX));
    let mut schedule: Vec<(SimNanos, SimNanos)> = Vec::new();
    for c in 1..=cap.clamp(1, bucket_bytes.len().max(1)) {
        let groups: Vec<u64> = bucket_bytes
            .chunks(bucket_bytes.len().div_ceil(c).max(1))
            .map(|g| g.iter().sum())
            .collect();
        schedule.clear();
        schedule.extend(groups.iter().map(|&bytes| {
            let share = if total == 0 {
                SimNanos::ZERO
            } else {
                SimNanos((kernel_time.0 as f64 * (bytes as f64 / total as f64)) as u64)
            };
            (transfer_time(spec, bytes), share)
        }));
        let makespan = pipelined_makespan(&schedule);
        if makespan < best.1 {
            best = (groups, makespan);
        }
    }
    best
}

/// Copy-back accounting + CPU-side installation for one cleaning round.
///
/// Cells cleaned through the full path copy their whole consolidated list
/// back; cells cleaned through the resident merge path copy back only the
/// objects that changed relative to the prior resident mirror (their range
/// of `resident_msgs`), plus 8-byte ids for removed objects, and their
/// device buffer is refreshed in place. Every cleaned cell is stamped clean
/// and, when the store accepts it, (re-)promoted to device residency.
#[allow(clippy::too_many_arguments)]
fn finish_round(
    device: &mut Device,
    lists: &CellLists,
    resident: &mut ResidentCellStore,
    work: &[CellId],
    merge: &[(CellId, Range<usize>)],
    resident_msgs: &[WireMessage],
    mut output: crate::xshuffle::CleanOutput,
    out: &mut CleanedObjects,
    rep: &mut CleaningReport,
) {
    let mut d2h_bytes = 0u64;
    // The prior mirror of the merge cell being diffed, by object; reused
    // across cells. Mirrors and kernel output both hold at most one message
    // per object.
    let mut before: HashMap<ObjectId, CachedMessage, FxBuildHasher> = HashMap::default();
    // Slabs the installs open and reuse, tallied once for the round.
    let (mut opened, mut reused) = (0, 0);
    let full = work.iter().map(|&c| (c, None));
    let merged = merge.iter().map(|(c, r)| (*c, Some(r.clone())));
    for (c, prior) in full.chain(merged) {
        let msgs = output.per_cell.remove(&c).unwrap_or_default();
        match prior {
            Some(range) => {
                // Merge path, one pass over each side: an output message is
                // changed unless it matches its prior copy, and the prior
                // objects left unmatched were removed.
                before.clear();
                before.extend(resident_msgs[range].iter().map(|w| (w.msg.object, w.msg)));
                let changed = msgs
                    .iter()
                    .filter(|m| before.remove(&m.object) != Some(**m))
                    .count() as u64;
                let removed = before.len() as u64;
                d2h_bytes += changed * CachedMessage::WIRE_BYTES + removed * 8;
            }
            None => d2h_bytes += msgs.len() as u64 * CachedMessage::WIRE_BYTES,
        }

        // Satellite of Algorithm 2 line 11: install move-only — the
        // consolidated list is written into the cell, stamped, promoted,
        // and handed to the caller without an extra copy.
        let mut list = lists.lock(c.index());
        let (a, r) = list.bucket_alloc_stats();
        list.restore_consolidated(&msgs);
        let (a2, r2) = list.bucket_alloc_stats();
        (opened, reused) = (opened + a2 - a, reused + r2 - r);
        list.mark_clean();
        let epoch = list.epoch();
        drop(list);
        resident.install(device, c, epoch, &msgs);
        out.insert(c, epoch, msgs);
    }
    lists.add_slabs(opened, reused);
    rep.copy_back_time = device.d2h(d2h_bytes);
    rep.d2h_bytes = d2h_bytes;
    rep.max_duplicates_seen = rep.max_duplicates_seen.max(output.max_duplicates_seen);
    // Anything left in the kernel output belongs to cells outside the
    // round (cannot happen: wire messages carry their cell id).
    debug_assert!(output.per_cell.is_empty());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::ObjectId;
    use roadnet::{EdgeId, EdgePosition};

    fn msg(o: u64, t: u64) -> CachedMessage {
        CachedMessage::update(ObjectId(o), EdgePosition::new(EdgeId(0), 0), Timestamp(t))
    }

    fn config() -> GGridConfig {
        GGridConfig {
            eta: 4,
            bucket_capacity: 4,
            transfer_chunks: 2,
            t_delta_ms: 1000,
            ..Default::default()
        }
    }

    fn setup(n_cells: usize) -> (Device, CellLists, ResidentCellStore) {
        (
            Device::new(DeviceSpec::test_tiny()),
            CellLists::new(n_cells, 4),
            ResidentCellStore::new(GGridConfig::default().device_budget_bytes),
        )
    }

    #[test]
    fn cleans_only_requested_cells() {
        let (mut dev, lists, mut resident) = setup(3);
        lists.lock(0).append(msg(1, 100));
        lists.lock(1).append(msg(2, 100));
        lists.lock(2).append(msg(3, 100));
        let (objs, rep) = clean_cells(
            &mut dev,
            &lists,
            &mut resident,
            &[CellId(0), CellId(2)],
            &config(),
            Timestamp(150),
        );
        assert!(objs.current(&lists, CellId(0)).is_some());
        assert!(objs.current(&lists, CellId(2)).is_some());
        assert!(objs.current(&lists, CellId(1)).is_none());
        assert_eq!(rep.messages, 2);
        assert_eq!(rep.cells_cleaned, 2);
        // Cell 1 untouched.
        assert_eq!(lists.lock(1).total_messages(), 1);
    }

    #[test]
    fn consolidation_shrinks_lists() {
        let (mut dev, lists, mut resident) = setup(1);
        for t in 0..20 {
            lists.lock(0).append(msg(1, 100 + t));
            lists.lock(0).append(msg(2, 100 + t));
        }
        assert_eq!(lists.lock(0).total_messages(), 40);
        let (objs, _) = clean_cells(
            &mut dev,
            &lists,
            &mut resident,
            &[CellId(0)],
            &config(),
            Timestamp(200),
        );
        assert_eq!(objs[CellId(0)].len(), 2);
        // List now holds exactly one message per live object.
        assert_eq!(lists.lock(0).total_messages(), 2);
        // And they are the newest ones.
        let newest: Vec<u64> = objs[CellId(0)].iter().map(|m| m.time.0).collect();
        assert!(newest.iter().all(|&t| t == 119));
    }

    #[test]
    fn empty_cells_cost_nothing() {
        let (mut dev, lists, mut resident) = setup(2);
        let (objs, rep) = clean_cells(
            &mut dev,
            &lists,
            &mut resident,
            &[CellId(0), CellId(1)],
            &config(),
            Timestamp(100),
        );
        // Both cells are read and yield nothing.
        assert!(objs[CellId(0)].is_empty() && objs[CellId(1)].is_empty());
        assert_eq!(rep.time, SimNanos::ZERO);
        assert_eq!(dev.ledger().h2d_transfers, 0);
    }

    #[test]
    fn transfers_metered_on_device() {
        let (mut dev, lists, mut resident) = setup(1);
        for t in 0..10 {
            lists.lock(0).append(msg(t, 100 + t));
        }
        let cfg = GGridConfig {
            transfer_chunks: 3,
            ..config()
        };
        let (_, rep) = clean_cells(
            &mut dev,
            &lists,
            &mut resident,
            &[CellId(0)],
            &cfg,
            Timestamp(200),
        );
        assert_eq!(rep.h2d_bytes, 10 * CachedMessage::WIRE_BYTES);
        assert_eq!(dev.ledger().h2d_bytes, rep.h2d_bytes);
        assert_eq!(dev.ledger().d2h_bytes, rep.d2h_bytes);
        assert!(rep.time > SimNanos::ZERO);
    }

    /// Fill cell 0 with `n` fresh messages over `n / 4` objects.
    fn fill(lists: &CellLists, n: u64) {
        let mut list = lists.lock(0);
        for i in 0..n {
            list.append(msg(i % (n / 4).max(1), 100 + i % 50));
        }
    }

    #[test]
    fn small_round_uploads_in_one_copy() {
        // A few KB: the wire time is far below the link latency, so every
        // extra group would only add latency.
        let mut dev = Device::new(DeviceSpec::quadro_p2000());
        let lists = CellLists::new(1, 8);
        let mut resident = ResidentCellStore::new(GGridConfig::default().device_budget_bytes);
        fill(&lists, 200);
        let cfg = GGridConfig {
            transfer_chunks: 4,
            ..config()
        };
        let (_, rep) = clean_cells(
            &mut dev,
            &lists,
            &mut resident,
            &[CellId(0)],
            &cfg,
            Timestamp(200),
        );
        assert!(rep.buckets >= 4, "round must be splittable");
        assert!(rep.h2d_bytes < 16 * 1024);
        assert_eq!(dev.ledger().h2d_transfers, 1);
    }

    #[test]
    fn large_round_uploads_in_several_copies() {
        // Megabytes on the wire: pipelining hides kernel time behind the
        // later copies, which pays for the extra latencies.
        let mut dev = Device::new(DeviceSpec::quadro_p2000());
        let lists = CellLists::new(1, 256);
        let mut resident = ResidentCellStore::new(GGridConfig::default().device_budget_bytes);
        fill(&lists, 60_000);
        let cfg = GGridConfig {
            transfer_chunks: 4,
            ..config()
        };
        let (_, rep) = clean_cells(
            &mut dev,
            &lists,
            &mut resident,
            &[CellId(0)],
            &cfg,
            Timestamp(200),
        );
        let wire =
            SimNanos::from_secs_f64(rep.h2d_bytes as f64 / dev.spec().pcie_bandwidth_bytes_per_sec);
        assert!(wire.0 > 10 * dev.spec().pcie_latency_ns, "wire {wire}");
        assert!(dev.ledger().h2d_transfers > 1);
        assert!(dev.ledger().h2d_transfers <= 4, "transfer_chunks caps it");
    }

    #[test]
    fn planned_upload_beats_every_fixed_group_count() {
        let spec = DeviceSpec::quadro_p2000();
        let fixed = |bytes: &[u64], kernel: SimNanos, c: usize| -> SimNanos {
            let total: u64 = bytes.iter().sum();
            let schedule: Vec<(SimNanos, SimNanos)> = bytes
                .chunks(bytes.len().div_ceil(c))
                .map(|g| {
                    let b: u64 = g.iter().sum();
                    let share = kernel.0 as f64 * b as f64 / total as f64;
                    (transfer_time(&spec, b), SimNanos(share as u64))
                })
                .collect();
            pipelined_makespan(&schedule)
        };
        let cases: [(usize, u64, u64); 6] = [
            (1, 400, 5_000),
            (7, 400, 5_000),
            (20, 2_000, 80_000),
            (64, 40_000, 40_000),
            (64, 400_000, 1_000_000),
            (300, 10_000, 2_000_000),
        ];
        for (n, per_bucket, kernel_ns) in cases {
            // Uneven buckets, so groups differ in size.
            let bytes: Vec<u64> = (0..n as u64).map(|i| per_bucket + 40 * (i % 5)).collect();
            let kernel = SimNanos(kernel_ns);
            for cap in 1..=6 {
                let (groups, planned) = plan_upload(&spec, &bytes, kernel, cap);
                assert!(!groups.is_empty() && groups.len() <= cap.min(n));
                assert_eq!(groups.iter().sum::<u64>(), bytes.iter().sum::<u64>());
                for c in 1..=cap.min(n) {
                    assert!(
                        planned <= fixed(&bytes, kernel, c),
                        "n={n} cap={cap}: planned {planned} > fixed c={c}"
                    );
                }
            }
        }
    }

    #[test]
    fn expired_buckets_not_shipped() {
        let (mut dev, lists, mut resident) = setup(1);
        lists.lock(0).append(msg(1, 10));
        lists.lock(0).append(msg(1, 11));
        lists.lock(0).append(msg(1, 12));
        lists.lock(0).append(msg(1, 13)); // bucket 0 full (cap 4), latest 13
        lists.lock(0).append(msg(2, 5000)); // bucket 1
        let cfg = GGridConfig {
            transfer_chunks: 1,
            t_delta_ms: 500,
            ..config()
        };
        let (objs, rep) = clean_cells(
            &mut dev,
            &lists,
            &mut resident,
            &[CellId(0)],
            &cfg,
            Timestamp(5100),
        );
        assert_eq!(rep.messages, 1, "stale bucket must be dropped on the CPU");
        assert_eq!(objs[CellId(0)].len(), 1);
        assert_eq!(objs[CellId(0)][0].object, ObjectId(2));
    }

    #[test]
    fn repeated_cleaning_is_idempotent() {
        let (mut dev, lists, mut resident) = setup(1);
        lists.lock(0).append(msg(7, 100));
        let cfg = GGridConfig {
            transfer_chunks: 1,
            ..config()
        };
        let (a, _) = clean_cells(
            &mut dev,
            &lists,
            &mut resident,
            &[CellId(0)],
            &cfg,
            Timestamp(150),
        );
        let (b, _) = clean_cells(
            &mut dev,
            &lists,
            &mut resident,
            &[CellId(0)],
            &cfg,
            Timestamp(160),
        );
        assert_eq!(a[CellId(0)], b[CellId(0)]);
    }

    #[test]
    fn second_clean_skips_the_kernel() {
        let (mut dev, lists, mut resident) = setup(1);
        for t in 0..8 {
            lists.lock(0).append(msg(t, 100 + t));
        }
        let cfg = config();
        let (a, rep_a) = clean_cells(
            &mut dev,
            &lists,
            &mut resident,
            &[CellId(0)],
            &cfg,
            Timestamp(200),
        );
        assert_eq!(rep_a.cells_cleaned, 1);
        assert_eq!(rep_a.cells_skipped, 0);
        let launches = dev.launches();
        let (b, rep_b) = clean_cells(
            &mut dev,
            &lists,
            &mut resident,
            &[CellId(0)],
            &cfg,
            Timestamp(210),
        );
        assert_eq!(rep_b.cells_skipped, 1);
        assert_eq!(rep_b.cells_cleaned, 0);
        assert_eq!(rep_b.time, SimNanos::ZERO);
        assert_eq!(dev.launches(), launches, "skip must not launch a kernel");
        assert_eq!(a[CellId(0)], b[CellId(0)]);
    }

    #[test]
    fn append_invalidates_the_skip() {
        let (mut dev, lists, mut resident) = setup(1);
        lists.lock(0).append(msg(1, 100));
        let cfg = config();
        clean_cells(
            &mut dev,
            &lists,
            &mut resident,
            &[CellId(0)],
            &cfg,
            Timestamp(150),
        );
        lists.lock(0).append(msg(2, 160));
        let (objs, rep) = clean_cells(
            &mut dev,
            &lists,
            &mut resident,
            &[CellId(0)],
            &cfg,
            Timestamp(170),
        );
        assert_eq!(rep.cells_cleaned, 1, "appended cell must be re-cleaned");
        assert_eq!(rep.cells_skipped, 0);
        assert_eq!(objs[CellId(0)].len(), 2);
    }

    #[test]
    fn skip_respects_a_later_horizon() {
        // A cached consolidated message that expires between two cleans
        // must not be served by the skip path.
        let (mut dev, lists, mut resident) = setup(1);
        lists.lock(0).append(msg(1, 100));
        lists.lock(0).append(msg(2, 4000));
        let cfg = GGridConfig {
            t_delta_ms: 500,
            ..config()
        };
        // First clean (horizon 3600) drops object 1, keeps object 2.
        let (first, _) = clean_cells(
            &mut dev,
            &lists,
            &mut resident,
            &[CellId(0)],
            &cfg,
            Timestamp(4100),
        );
        assert_eq!(first[CellId(0)].len(), 1);
        // Second clean (horizon 4100) skips, and the cached t=4000 message
        // is now past the horizon — the cell must come back empty.
        let (objs, rep) = clean_cells(
            &mut dev,
            &lists,
            &mut resident,
            &[CellId(0)],
            &cfg,
            Timestamp(4600),
        );
        assert_eq!(rep.cells_skipped, 1);
        assert!(objs[CellId(0)].is_empty());
    }

    #[test]
    fn second_clean_after_append_ships_only_the_delta() {
        let (mut dev, lists, mut resident) = setup(1);
        for o in 0..8 {
            lists.lock(0).append(msg(o, 100 + o));
        }
        let cfg = config();
        let (_, rep_a) = clean_cells(
            &mut dev,
            &lists,
            &mut resident,
            &[CellId(0)],
            &cfg,
            Timestamp(200),
        );
        assert_eq!(rep_a.h2d_full_bytes, 8 * CachedMessage::WIRE_BYTES);
        assert_eq!(rep_a.h2d_delta_bytes, 0);
        assert!(
            resident.contains(CellId(0)),
            "first clean promotes the cell"
        );

        // One appended message dirties the cell; only it crosses the bus.
        lists.lock(0).append(msg(3, 210));
        let (objs, rep_b) = clean_cells(
            &mut dev,
            &lists,
            &mut resident,
            &[CellId(0)],
            &cfg,
            Timestamp(250),
        );
        assert_eq!(rep_b.resident_hits, 1);
        assert_eq!(rep_b.cells_cleaned, 1);
        assert_eq!(rep_b.h2d_full_bytes, 0);
        assert_eq!(rep_b.h2d_delta_bytes, CachedMessage::WIRE_BYTES);
        // Copy-back is a diff: one changed object, not the whole list.
        assert_eq!(rep_b.d2h_bytes, CachedMessage::WIRE_BYTES);
        assert!(rep_b.d2h_bytes < rep_a.d2h_bytes);
        // Answer matches a from-scratch consolidation.
        assert_eq!(objs[CellId(0)].len(), 8);
        let newest = objs[CellId(0)]
            .iter()
            .find(|m| m.object == ObjectId(3))
            .unwrap();
        assert_eq!(newest.time, Timestamp(210));
    }

    #[test]
    fn merge_copy_back_counts_added_changed_and_removed_objects() {
        // Cell 0 is resident with objects 0..6. Its delta then adds object
        // 6, moves object 1 within the cell, deletes object 2, and moves
        // object 3 to cell 1; objects 0, 4 and 5 are untouched.
        let (mut dev, lists, mut resident) = setup(2);
        for o in 0..6 {
            lists.lock(0).append(msg(o, 100));
        }
        let cfg = config();
        clean_cells(
            &mut dev,
            &lists,
            &mut resident,
            &[CellId(0)],
            &cfg,
            Timestamp(150),
        );
        assert!(resident.contains(CellId(0)));
        let moved =
            CachedMessage::update(ObjectId(1), EdgePosition::new(EdgeId(0), 3), Timestamp(160));
        lists.lock(0).append(msg(6, 160));
        lists.lock(0).append(moved);
        lists
            .lock(0)
            .append(CachedMessage::tombstone(ObjectId(2), Timestamp(160)));
        lists
            .lock(0)
            .append(CachedMessage::tombstone(ObjectId(3), Timestamp(160)));
        lists.lock(1).append(msg(3, 160));
        let (objs, rep) = clean_cells(
            &mut dev,
            &lists,
            &mut resident,
            &[CellId(0), CellId(1)],
            &cfg,
            Timestamp(200),
        );
        assert_eq!(rep.resident_hits, 1);
        let mut live: Vec<u64> = objs[CellId(0)].iter().map(|m| m.object.0).collect();
        live.sort_unstable();
        assert_eq!(live, [0, 1, 4, 5, 6]);
        // Merged cell 0: two changed objects (6 added, 1 moved) ship whole,
        // two removed ones (2, 3) ship as 8-byte ids. Cold cell 1 ships its
        // whole list (object 3).
        let expect = 2 * CachedMessage::WIRE_BYTES + 2 * 8 + CachedMessage::WIRE_BYTES;
        assert_eq!(rep.d2h_bytes, expect);
        assert_eq!(rep.d2h_bytes, 112, "copy-back bytes of the reference build");
    }

    #[test]
    fn mixed_round_splits_full_and_delta_bytes_exactly() {
        // One resident cell shipping a delta and one cold cell shipping its
        // full list in the *same* round: each path's bytes are attributed
        // exactly, and the two buckets sum to the round's H2D total.
        let (mut dev, lists, mut resident) = setup(2);
        for o in 0..4 {
            lists.lock(0).append(msg(o, 100));
        }
        let cfg = config();
        clean_cells(
            &mut dev,
            &lists,
            &mut resident,
            &[CellId(0)],
            &cfg,
            Timestamp(150),
        );
        assert!(resident.contains(CellId(0)));
        lists.lock(0).append(msg(0, 160)); // delta of one message
        for o in 10..13 {
            lists.lock(1).append(msg(o, 160)); // cold cell, full path
        }
        let (_, rep) = clean_cells(
            &mut dev,
            &lists,
            &mut resident,
            &[CellId(0), CellId(1)],
            &cfg,
            Timestamp(200),
        );
        assert_eq!(rep.resident_hits, 1);
        assert_eq!(rep.cells_cleaned, 2);
        assert_eq!(rep.h2d_delta_bytes, CachedMessage::WIRE_BYTES);
        assert_eq!(rep.h2d_full_bytes, 3 * CachedMessage::WIRE_BYTES);
        assert_eq!(rep.h2d_bytes, rep.h2d_full_bytes + rep.h2d_delta_bytes);
    }

    #[test]
    fn merge_report_splits_compute_and_copy_back() {
        let (mut dev, lists, mut resident) = setup(1);
        for o in 0..8 {
            lists.lock(0).append(msg(o, 100));
        }
        let cfg = config();
        let (_, rep) = clean_cells(
            &mut dev,
            &lists,
            &mut resident,
            &[CellId(0)],
            &cfg,
            Timestamp(200),
        );
        assert!(rep.copy_back_time > SimNanos::ZERO);
        assert_eq!(rep.time, rep.compute_time + rep.copy_back_time);
    }

    #[test]
    fn zero_budget_disables_the_delta_path() {
        let (mut dev, lists, mut resident) = (
            Device::new(DeviceSpec::test_tiny()),
            CellLists::new(1, 4),
            ResidentCellStore::new(0),
        );
        lists.lock(0).append(msg(1, 100));
        let cfg = config();
        clean_cells(
            &mut dev,
            &lists,
            &mut resident,
            &[CellId(0)],
            &cfg,
            Timestamp(150),
        );
        assert!(!resident.contains(CellId(0)));
        lists.lock(0).append(msg(2, 160));
        let (_, rep) = clean_cells(
            &mut dev,
            &lists,
            &mut resident,
            &[CellId(0)],
            &cfg,
            Timestamp(170),
        );
        assert_eq!(rep.resident_hits, 0);
        assert_eq!(rep.h2d_delta_bytes, 0);
        assert_eq!(rep.h2d_full_bytes, 2 * CachedMessage::WIRE_BYTES);
    }

    #[test]
    fn evicted_cell_falls_back_to_full_upload_then_repromotes() {
        let (mut dev, lists, mut resident) = setup(1);
        for o in 0..4 {
            lists.lock(0).append(msg(o, 100));
        }
        let cfg = config();
        clean_cells(
            &mut dev,
            &lists,
            &mut resident,
            &[CellId(0)],
            &cfg,
            Timestamp(150),
        );
        assert!(resident.force_evict(&mut dev, CellId(0)));

        // Dirty the evicted cell: the clean must take the full path again.
        lists.lock(0).append(msg(9, 160));
        let (objs, rep) = clean_cells(
            &mut dev,
            &lists,
            &mut resident,
            &[CellId(0)],
            &cfg,
            Timestamp(200),
        );
        assert_eq!(rep.resident_hits, 0);
        assert_eq!(rep.h2d_delta_bytes, 0);
        assert_eq!(rep.h2d_full_bytes, 5 * CachedMessage::WIRE_BYTES);
        assert_eq!(objs[CellId(0)].len(), 5);
        // ... and the cell is resident once more afterwards.
        assert!(resident.contains(CellId(0)));
    }

    #[test]
    fn delta_only_round_with_expired_delta_still_consolidates() {
        // The appended delta expires on the host before the second clean;
        // the merge kernel runs on resident state alone and the surviving
        // consolidated messages stay correct.
        let (mut dev, lists, mut resident) = setup(1);
        lists.lock(0).append(msg(1, 4000));
        let cfg = GGridConfig {
            t_delta_ms: 500,
            ..config()
        };
        clean_cells(
            &mut dev,
            &lists,
            &mut resident,
            &[CellId(0)],
            &cfg,
            Timestamp(4100),
        );
        lists.lock(0).append(msg(2, 4150));
        // Horizon 4700: the delta (t=4150) is expired, resident msg (t=4000)
        // too — everything dies, cell consolidates to empty.
        let (objs, rep) = clean_cells(
            &mut dev,
            &lists,
            &mut resident,
            &[CellId(0)],
            &cfg,
            Timestamp(5200),
        );
        assert_eq!(rep.resident_hits, 1);
        assert_eq!(rep.h2d_bytes, 0, "expired delta must not ship");
        assert!(objs[CellId(0)].is_empty());
        assert_eq!(lists.lock(0).total_messages(), 0);
        assert!(
            !resident.contains(CellId(0)),
            "empty consolidation must drop residency"
        );
    }

    #[test]
    fn cleaning_pools_retired_slabs_for_reuse() {
        let (mut dev, lists, mut resident) = setup(1);
        for o in 0..12 {
            lists.lock(0).append(msg(o, 100));
        }
        let cfg = config();
        clean_cells(
            &mut dev,
            &lists,
            &mut resident,
            &[CellId(0)],
            &cfg,
            Timestamp(150),
        );
        // Warm-up cycle: one object keeps moving, population stays at 12,
        // so every later clean/append cycle recirculates the same slabs.
        lists.lock(0).append(msg(0, 200));
        clean_cells(
            &mut dev,
            &lists,
            &mut resident,
            &[CellId(0)],
            &cfg,
            Timestamp(250),
        );
        let (allocs_warm, reuses_warm) = lists.lock(0).bucket_alloc_stats();
        for round in 0..4u64 {
            lists.lock(0).append(msg(0, 300 + round));
            clean_cells(
                &mut dev,
                &lists,
                &mut resident,
                &[CellId(0)],
                &cfg,
                Timestamp(350 + round),
            );
        }
        let (allocs, reuses) = lists.lock(0).bucket_alloc_stats();
        assert_eq!(
            allocs, allocs_warm,
            "steady-state clean/append cycles must not hit the heap"
        );
        assert!(reuses > reuses_warm, "cycles must run on pooled slabs");
    }

    #[test]
    fn clean_skip_tallies_read_heat() {
        let (mut dev, lists, mut resident) = setup(2);
        lists.lock(0).append(msg(1, 100));
        let cfg = config();
        let heat: Vec<AtomicU64> = (0..2).map(|_| AtomicU64::new(0)).collect();
        // First clean is a miss: no heat.
        clean_cells_with_heat(
            &mut dev,
            &lists,
            &mut resident,
            &[CellId(0)],
            &cfg,
            Timestamp(150),
            Some(&heat),
        );
        assert_eq!(heat[0].load(Ordering::Relaxed), 0);
        // Two skip-served reads: two heat ticks, only on the read cell.
        for t in [160, 170] {
            clean_cells_with_heat(
                &mut dev,
                &lists,
                &mut resident,
                &[CellId(0)],
                &cfg,
                Timestamp(t),
                Some(&heat),
            );
        }
        assert_eq!(heat[0].load(Ordering::Relaxed), 2);
        assert_eq!(heat[1].load(Ordering::Relaxed), 0);
    }
}
