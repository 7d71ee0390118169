//! The lock-free X-shuffle message-cleaning kernel (paper Algorithm 3).
//!
//! Threads are grouped into bundles of `2^η` lanes. Each thread owns one
//! message bucket and the bundle repeatedly performs butterfly
//! `shuffle_xor` exchanges with lane masks `2^{η-1}, 2^{η-2}, …, 1`,
//! merging the travelling message with a small per-lane cache Γ, so that
//! duplicates of the same object collapse without any locking. Theorem 1
//! (the `mu` module) bounds the surviving duplicates per object per bundle by
//! μ(η), which caps the number of write attempts each lane needs against
//! the intermediate table 𝒯.
//!
//! The kernel here executes the exact lane program on the simulated device
//! and returns the cleaned result: the newest message per object, grouped
//! by the cell that message belongs to.
//!
//! The emulation runs over flat, reused buffers: one set of lane caches
//! and one list of the lanes holding a message per launch, and one running
//! newest message per object standing in for that object's slot column of
//! 𝒯 (see `SlotTable`). Every charge is the one the lane program makes
//! for the whole bundle, so the modeled cost does not depend on how the
//! host emulates it.

use std::collections::HashMap;

use gpu_sim::device::KernelCtx;

use crate::grid::CellId;
use crate::message::{CachedMessage, ObjectId, Timestamp};
use crate::mu::mu;
use crate::object_table::FxBuildHasher;

/// A message annotated with the cell it belongs to — the 5-tuple
/// `⟨o, c, e, d, t⟩` shipped to the GPU (§IV-B1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireMessage {
    pub msg: CachedMessage,
    pub cell: CellId,
}

/// `true` when `a` should replace `b` as the latest message of an object.
///
/// Later timestamps win; on a timestamp tie a real update beats the
/// departure tombstone Algorithm 1 wrote with the same time; remaining ties
/// break on the payload so the winner is a *total* order — the lock-free
/// kernel processes messages in a data-dependent order and must converge to
/// the same answer as any sequential scan.
#[inline]
pub(crate) fn replaces(a: &WireMessage, b: &WireMessage) -> bool {
    order_key(a) > order_key(b)
}

#[inline]
fn order_key(w: &WireMessage) -> (Timestamp, bool, u32, u32, u32) {
    let (e, d) = match w.msg.position {
        Some(p) => (p.edge.0, p.offset),
        None => (0, 0),
    };
    (w.msg.time, !w.msg.is_tombstone(), w.cell.0, e, d)
}

/// Output of a cleaning kernel run.
#[derive(Debug, Default)]
pub struct CleanOutput {
    /// Newest *live* (non-tombstone, non-expired) message per object,
    /// grouped by the cell of that message — the final table ℛ.
    pub per_cell: HashMap<CellId, Vec<CachedMessage>, FxBuildHasher>,
    /// Diagnostic: the largest number of distinct surviving messages of one
    /// object observed in any bundle after the shuffles. Theorem 1 bounds
    /// this by μ(η); tests assert it.
    pub max_duplicates_seen: u32,
    /// Objects that were processed (live or tombstoned).
    pub objects_seen: usize,
}

/// Intermediate table 𝒯. On the device every object owns one candidate
/// slot per bundle (plus, for the fused merge kernel, one slot for the
/// device-resident state), and the result computation folds each slot
/// column into the newest message. The emulation keeps only that fold's
/// running value: slots are written in column order (bundle 0, 1, …, then
/// the resident slot), and [`replaces`] is a strict total order under which
/// equal keys are equal messages, so folding each write as it lands yields
/// exactly the newest message the column fold would. Objects enter the
/// table at their first write, as they would claim their slot row.
type SlotTable = HashMap<ObjectId, WireMessage, FxBuildHasher>;

/// Keep the newer of `w` and `object`'s current candidate in `table`.
#[inline]
fn write_slot(table: &mut SlotTable, w: WireMessage) {
    table
        .entry(w.msg.object)
        .and_modify(|cur| {
            if replaces(&w, cur) {
                *cur = w;
            }
        })
        .or_insert(w);
}

/// Bundles of `2^η` lanes covering `buckets` buckets (at least one).
fn bundles(buckets: usize, eta: u32) -> usize {
    buckets.div_ceil(1usize << eta).max(1)
}

/// Run the X-shuffle cleaning kernel over `buckets` (one bucket per thread).
///
/// Messages with `time < horizon` are expired by the update contract and are
/// skipped at load time. `eta` selects the bundle width `2^η`.
pub fn xshuffle_clean<B: AsRef<[WireMessage]>>(
    ctx: &mut KernelCtx,
    buckets: &[B],
    eta: u32,
    horizon: Timestamp,
) -> CleanOutput {
    let mut table = SlotTable::default();
    let max_dup = shuffle_into_table(ctx, buckets, eta, horizon, &mut table);
    collect_table(ctx, table, bundles(buckets.len(), eta), max_dup)
}

/// The fused incremental-merge kernel: X-shuffle the *delta* buckets (the
/// only data that crossed the bus this round) and merge the result with the
/// `resident` consolidated state already sitting in device memory, in one
/// launch. Resident entries are already deduplicated — one message per
/// object from the previous clean — so they bypass the butterfly and enter
/// the result computation directly through a dedicated slot of 𝒯, costing
/// one global read each instead of a PCIe crossing. Entries older than
/// `horizon` expire during the merge exactly as a full re-clean would
/// expire them.
pub(crate) fn xshuffle_merge<B: AsRef<[WireMessage]>>(
    ctx: &mut KernelCtx,
    resident: &[WireMessage],
    delta_buckets: &[B],
    eta: u32,
    horizon: Timestamp,
) -> CleanOutput {
    let mut table = SlotTable::default();
    let max_dup = shuffle_into_table(ctx, delta_buckets, eta, horizon, &mut table);

    // Merge step: one thread per resident entry loads it from device
    // global memory (no transfer — it never left the card) and claims the
    // resident slot, the last of the object's column. Entries are unique per
    // object by construction, so the write is contention-free (no μ(η)
    // retry budget needed). Two cells' resident lists can both hold the
    // object (the older one a stale copy not yet superseded by a tombstone
    // it never saw); the shared slot resolves with the same total order the
    // butterfly uses.
    for &w in resident {
        ctx.charge_read(CachedMessage::WIRE_BYTES);
        ctx.charge_alu_one(2);
        if w.msg.time < horizon {
            continue;
        }
        ctx.charge_write(CachedMessage::WIRE_BYTES);
        write_slot(&mut table, w);
    }

    // One extra slot column for the resident state.
    collect_table(ctx, table, bundles(delta_buckets.len(), eta) + 1, max_dup)
}

/// Algorithm 3's bundle loop: butterfly-shuffle every bucket group and
/// write the survivors into `table`. Returns the largest duplicate count
/// observed (Theorem 1 diagnostic).
fn shuffle_into_table<B: AsRef<[WireMessage]>>(
    ctx: &mut KernelCtx,
    buckets: &[B],
    eta: u32,
    horizon: Timestamp,
    table: &mut SlotTable,
) -> u32 {
    let width = 1usize << eta;
    let mu_eta = mu(eta) as u64;
    let mut max_dup = 0u32;
    let lane_bucket = |bundle_id: usize, lane: usize| -> &[WireMessage] {
        buckets
            .get(bundle_id * width + lane)
            .map_or(&[], |b| b.as_ref())
    };

    // Per-lane message caches Γ (size η, Algorithm 3 line 1), reused by
    // every bundle. Cache entries are stamped with the read round they were
    // last touched in: the μ(η) bound relies on a lane remembering every
    // message that reached it *within the current round* (a round inserts
    // at most η entries, exactly Γ's capacity), so eviction must only take
    // entries from earlier rounds.
    let mut caches: Vec<Vec<(WireMessage, usize)>> = vec![Vec::with_capacity(eta as usize); width];
    // The bundle's live registers as `(lane, message)`. A lane without a
    // message executes every step as a no-op (it never touches its cache),
    // so only lanes holding one are emulated; every collective is still
    // charged for the whole bundle.
    let mut regs: Vec<(usize, WireMessage)> = Vec::with_capacity(width);
    // Distinct `(object, time)` survivors of one read round (the set the
    // paper calls 𝒮), for the duplicate diagnostic.
    let mut survivors: Vec<(ObjectId, Timestamp)> = Vec::with_capacity(width);

    for bundle_id in 0..bundles(buckets.len(), eta) {
        let depth = (0..width)
            .map(|lane| lane_bucket(bundle_id, lane).len())
            .max()
            .unwrap_or(0);
        caches.iter_mut().for_each(Vec::clear);
        let mut warp = ctx.bundle(width);

        // Threads walk their buckets from the last message to the first
        // (Algorithm 3 line 3), one synchronous read per step.
        for i in (0..depth).rev() {
            warp.charge_global_read(CachedMessage::WIRE_BYTES);
            regs.clear();
            regs.extend((0..width).filter_map(|lane| {
                let w = *lane_bucket(bundle_id, lane).get(i)?;
                (w.msg.time >= horizon).then_some((lane, w))
            }));

            for j in 1..=eta {
                // Merge the travelling message with the lane cache: one op
                // per lane plus the O(η) cache scan.
                warp.charge_alu(1 + eta as u64);
                regs.retain_mut(|(lane, m)| {
                    match merge_with_cache(&mut caches[*lane], eta as usize, i, Some(*m)) {
                        Some(next) => {
                            *m = next;
                            true
                        }
                        None => false,
                    }
                });
                let mask = 1usize << (eta - j);
                warp.charge_shuffle_xor(mask);
                regs.iter_mut().for_each(|(lane, _)| *lane ^= mask);
            }
            // One more cache comparison after the final shuffle: Theorem 2
            // counts coverings at every shuffle k ∈ [1, η], including the
            // last, so a message arriving on the η-th exchange must still be
            // checked against the lane cache before the 𝒯 write — otherwise
            // pairs that first meet on the last exchange survive as
            // duplicates and the μ(η) bound breaks. Unlike the in-flight
            // merges this one *discards* a superseded message instead of
            // substituting the cached newer one: there are no further
            // exchanges to propagate through, and re-injecting a cached copy
            // can resurrect a message that was already replaced elsewhere.
            warp.charge_alu(1 + eta as u64);
            regs.retain(|(lane, m)| {
                !caches[*lane]
                    .iter()
                    .find(|(c, _)| c.msg.object == m.msg.object)
                    .is_some_and(|(c, _)| replaces(c, m))
            });

            // Diagnostics: distinct surviving messages per object in this
            // read round.
            survivors.clear();
            survivors.extend(regs.iter().map(|(_, w)| (w.msg.object, w.msg.time)));
            survivors.sort_unstable();
            survivors.dedup();
            for run in survivors.chunk_by(|a, b| a.0 == b.0) {
                max_dup = max_dup.max(run.len() as u32);
            }

            // Step 2: every lane attempts the 𝒯 write up to μ(η) times
            // (Algorithm 3 lines 11–13). The simulation is sequential so a
            // single pass, in lane order, suffices for the value; the cost
            // is charged as the μ(η) attempts the lock-free kernel needs.
            warp.charge_atomics(mu_eta * width as u64);
            warp.charge_global_write(CachedMessage::WIRE_BYTES * mu_eta);
            regs.sort_unstable_by_key(|&(lane, _)| lane);
            for &(_, w) in &regs {
                write_slot(table, w);
            }
        }
    }

    max_dup
}

/// Result computation (Algorithm 2 step 4 / GPU_Collect): one thread per
/// object folds its `n_slots`-wide slot column into the newest message and
/// inserts it into ℛ keyed by that message's cell.
fn collect_table(
    ctx: &mut KernelCtx,
    table: SlotTable,
    n_slots: usize,
    max_duplicates_seen: u32,
) -> CleanOutput {
    let objects_seen = table.len();
    // Charged to the same launch context: |T| threads scanning n_slots
    // slots each.
    ctx.charge_alu_one((objects_seen * n_slots) as u64);
    ctx.charge_read(CachedMessage::WIRE_BYTES * (objects_seen * n_slots) as u64);
    ctx.charge_write(CachedMessage::WIRE_BYTES * objects_seen as u64);
    let mut per_cell: HashMap<CellId, Vec<CachedMessage>, FxBuildHasher> =
        HashMap::with_hasher(FxBuildHasher::default());
    for w in table.into_values() {
        if !w.msg.is_tombstone() {
            per_cell.entry(w.cell).or_default().push(w.msg);
        }
    }
    CleanOutput {
        per_cell,
        max_duplicates_seen,
        objects_seen,
    }
}

/// Cache-merge step of Algorithm 3 (lines 5–9) for one lane.
///
/// Looks up the travelling message's object in the lane cache: inserts when
/// absent (evicting the oldest entry if Γ is full), replaces when the cached
/// entry is older, and otherwise forwards the cached (newer) message.
fn merge_with_cache(
    cache: &mut Vec<(WireMessage, usize)>,
    max_entries: usize,
    round: usize,
    reg: Option<WireMessage>,
) -> Option<WireMessage> {
    let m = reg?;
    match cache.iter_mut().find(|(c, _)| c.msg.object == m.msg.object) {
        None => {
            if cache.len() >= max_entries {
                // Evict an entry from an *earlier* round (there is always
                // one: a round inserts at most η = capacity entries);
                // current-round entries are load-bearing for Theorem 1.
                if let Some(idx) = (0..cache.len())
                    .filter(|&i| cache[i].1 != round)
                    .min_by_key(|&i| (cache[i].1, cache[i].0.msg.time, cache[i].0.msg.object.0))
                {
                    cache.swap_remove(idx);
                } else {
                    // Defensive: should be unreachable, keep the cache sane.
                    cache.swap_remove(0);
                }
            }
            cache.push((m, round));
            Some(m)
        }
        Some((c, r)) if replaces(&m, c) => {
            *c = m;
            *r = round;
            Some(m)
        }
        Some((_, r)) => {
            // The cache holds a newer message of the same object: the
            // travelling message is superseded and *dies*. The paper's
            // Algorithm 3 line 9 instead substitutes the cached newer
            // message (`m ← m_Γ`), but that forks an extra copy of the
            // newer message onto the dead message's butterfly trajectory
            // and breaks the μ(η) bound of Theorem 1 (e.g. four messages of
            // one object at lanes {2, 5, 8, 11} of a 16-lane bundle leave
            // three distinct survivors under substitution). With discard,
            // survivors are pairwise non-covering — an exclusive set — so
            // Theorem 1 holds; the proptest below checks it. See DESIGN.md.
            *r = round;
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{Device, DeviceSpec};
    use roadnet::{EdgeId, EdgePosition};

    fn wire(o: u64, t: u64, cell: u32) -> WireMessage {
        WireMessage {
            msg: CachedMessage::update(
                ObjectId(o),
                EdgePosition::new(EdgeId(o as u32 % 7), (t % 5) as u32),
                Timestamp(t),
            ),
            cell: CellId(cell),
        }
    }

    fn tomb(o: u64, t: u64, cell: u32) -> WireMessage {
        WireMessage {
            msg: CachedMessage::tombstone(ObjectId(o), Timestamp(t)),
            cell: CellId(cell),
        }
    }

    fn run(buckets: &[Vec<WireMessage>], eta: u32, horizon: u64) -> CleanOutput {
        let mut dev = Device::new(DeviceSpec::test_tiny());
        let (out, _) = dev.launch(buckets.len().max(1), |ctx| {
            xshuffle_clean(ctx, buckets, eta, Timestamp(horizon))
        });
        out
    }

    /// Reference cleaning: newest message per object, tombstones and expiry
    /// applied, grouped by cell.
    fn reference(buckets: &[Vec<WireMessage>], horizon: u64) -> HashMap<(u64, u32), u64> {
        let mut newest: HashMap<u64, WireMessage> = HashMap::new();
        for b in buckets {
            for w in b {
                if w.msg.time < Timestamp(horizon) {
                    continue;
                }
                let e = newest.entry(w.msg.object.0);
                match e {
                    std::collections::hash_map::Entry::Vacant(v) => {
                        v.insert(*w);
                    }
                    std::collections::hash_map::Entry::Occupied(mut o) => {
                        if replaces(w, o.get()) {
                            o.insert(*w);
                        }
                    }
                }
            }
        }
        newest
            .into_values()
            .filter(|w| !w.msg.is_tombstone())
            .map(|w| ((w.msg.object.0, w.cell.0), w.msg.time.0))
            .collect()
    }

    fn flatten(out: &CleanOutput) -> HashMap<(u64, u32), u64> {
        let mut m = HashMap::new();
        for (&cell, msgs) in &out.per_cell {
            for msg in msgs {
                m.insert((msg.object.0, cell.0), msg.time.0);
            }
        }
        m
    }

    #[test]
    fn single_message_survives() {
        let out = run(&[vec![wire(1, 100, 3)]], 4, 0);
        assert_eq!(out.per_cell[&CellId(3)].len(), 1);
        assert_eq!(out.per_cell[&CellId(3)][0].time, Timestamp(100));
    }

    #[test]
    fn newest_wins_within_one_bucket() {
        let out = run(
            &[vec![wire(1, 100, 3), wire(1, 300, 3), wire(1, 200, 3)]],
            4,
            0,
        );
        assert_eq!(flatten(&out), [((1, 3), 300)].into_iter().collect());
    }

    #[test]
    fn newest_wins_across_buckets_in_bundle() {
        let buckets: Vec<Vec<WireMessage>> = (0..16).map(|i| vec![wire(7, 100 + i, 2)]).collect();
        let out = run(&buckets, 4, 0);
        assert_eq!(flatten(&out), [((7, 2), 115)].into_iter().collect());
    }

    #[test]
    fn newest_wins_across_bundles() {
        // 32 buckets with η=4 → two bundles; the newest is in bundle 1.
        let buckets: Vec<Vec<WireMessage>> = (0..32).map(|i| vec![wire(9, 100 + i, 1)]).collect();
        let out = run(&buckets, 4, 0);
        assert_eq!(flatten(&out), [((9, 1), 131)].into_iter().collect());
    }

    #[test]
    fn tombstone_excludes_object() {
        let out = run(&[vec![wire(1, 100, 3), tomb(1, 200, 3)]], 4, 0);
        assert!(out.per_cell.is_empty());
        assert_eq!(out.objects_seen, 1);
    }

    #[test]
    fn tie_prefers_real_update_over_tombstone() {
        // Algorithm 1 writes the tombstone and the move-in message with the
        // same timestamp; the real update must win.
        let out = run(&[vec![tomb(1, 200, 3)], vec![wire(1, 200, 5)]], 4, 0);
        assert_eq!(flatten(&out), [((1, 5), 200)].into_iter().collect());
    }

    #[test]
    fn expired_messages_skipped() {
        let out = run(&[vec![wire(1, 50, 3), wire(2, 500, 3)]], 4, 100);
        assert_eq!(flatten(&out), [((2, 3), 500)].into_iter().collect());
    }

    #[test]
    fn empty_input() {
        let out = run(&[], 5, 0);
        assert!(out.per_cell.is_empty());
        assert_eq!(out.objects_seen, 0);
    }

    #[test]
    fn duplicates_bounded_by_mu_eta4() {
        // Adversarial: every one of the 16 lanes reads a message of the same
        // object with distinct timestamps. Theorem 1: at most μ(4) = 2
        // distinct messages survive the shuffles.
        let buckets: Vec<Vec<WireMessage>> = (0..16).map(|i| vec![wire(1, 1000 - i, 0)]).collect();
        let out = run(&buckets, 4, 0);
        assert!(
            out.max_duplicates_seen <= crate::mu::mu(4),
            "saw {} duplicates, μ(4) = {}",
            out.max_duplicates_seen,
            crate::mu::mu(4)
        );
        assert_eq!(flatten(&out), [((1, 0), 1000)].into_iter().collect());
    }

    #[test]
    fn matches_reference_on_mixed_batch() {
        let mut buckets = Vec::new();
        for t in 0..24u64 {
            let mut b = Vec::new();
            for o in 0..6u64 {
                if (t + o) % 3 != 0 {
                    b.push(wire(o, 1000 + t * 7 + o, (o % 4) as u32));
                }
                if (t + o) % 5 == 0 {
                    b.push(tomb(o, 1000 + t * 7 + o + 1, (o % 4) as u32));
                }
            }
            buckets.push(b);
        }
        let out = run(&buckets, 4, 1010);
        assert_eq!(flatten(&out), reference(&buckets, 1010));
    }

    #[test]
    fn bundle_width_does_not_change_result() {
        let buckets: Vec<Vec<WireMessage>> = (0..40)
            .map(|i| {
                (0..3)
                    .map(|j| wire((i * 3 + j) % 5, 100 + (i * 7 + j * 13) % 90, (i % 3) as u32))
                    .collect()
            })
            .collect();
        let small = flatten(&run(&buckets, 2, 0));
        let mid = flatten(&run(&buckets, 4, 0));
        let large = flatten(&run(&buckets, 6, 0));
        assert_eq!(small, mid);
        assert_eq!(mid, large);
    }

    fn run_merge(
        resident: &[WireMessage],
        buckets: &[Vec<WireMessage>],
        eta: u32,
        horizon: u64,
    ) -> CleanOutput {
        let mut dev = Device::new(DeviceSpec::test_tiny());
        let (out, _) = dev.launch(buckets.len().max(resident.len()).max(1), |ctx| {
            xshuffle_merge(ctx, resident, buckets, eta, Timestamp(horizon))
        });
        out
    }

    #[test]
    fn merge_equals_full_clean_of_combined_input() {
        // Resident state = result of a previous clean; delta = new appends.
        // The fused merge must agree with a full clean over everything.
        let resident = vec![wire(1, 100, 3), wire(2, 150, 4), wire(3, 90, 3)];
        let delta = vec![
            vec![wire(1, 300, 5), tomb(2, 400, 4)],
            vec![wire(4, 250, 3)],
        ];
        let merged = run_merge(&resident, &delta, 4, 0);
        let mut combined = delta.clone();
        combined.push(resident.clone());
        let full = run(&combined, 4, 0);
        assert_eq!(flatten(&merged), flatten(&full));
    }

    #[test]
    fn merge_expires_stale_resident_entries() {
        let resident = vec![wire(1, 50, 3), wire(2, 500, 3)];
        let merged = run_merge(&resident, &[], 4, 100);
        assert_eq!(flatten(&merged), [((2, 3), 500)].into_iter().collect());
    }

    #[test]
    fn merge_with_empty_delta_keeps_resident() {
        let resident = vec![wire(1, 100, 3), wire(2, 150, 4)];
        let merged = run_merge(&resident, &[], 4, 0);
        assert_eq!(
            flatten(&merged),
            [((1, 3), 100), ((2, 4), 150)].into_iter().collect()
        );
    }

    #[test]
    fn merge_delta_tombstone_kills_resident_object() {
        let resident = vec![wire(7, 100, 2)];
        let merged = run_merge(&resident, &[vec![tomb(7, 200, 2)]], 4, 0);
        assert!(merged.per_cell.is_empty());
        assert_eq!(merged.objects_seen, 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use gpu_sim::{Device, DeviceSpec};
    use proptest::prelude::*;
    use roadnet::{EdgeId, EdgePosition};

    fn arb_message() -> impl Strategy<Value = WireMessage> {
        (0u64..12, 0u64..1000, 0u32..6, prop::bool::weighted(0.15)).prop_map(
            |(o, t, c, tombstone)| WireMessage {
                msg: if tombstone {
                    CachedMessage::tombstone(ObjectId(o), Timestamp(t))
                } else {
                    CachedMessage::update(
                        ObjectId(o),
                        EdgePosition::new(EdgeId(o as u32), (t % 3) as u32),
                        Timestamp(t),
                    )
                },
                cell: CellId(c),
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The kernel computes exactly the newest live message per object
        /// (tombstone tie-break included) for arbitrary batches and bundle
        /// widths, and duplicates stay within μ(η).
        #[test]
        fn kernel_matches_reference(
            buckets in prop::collection::vec(
                prop::collection::vec(arb_message(), 0..6), 0..40),
            eta in 2u32..6,
            horizon in 0u64..500,
        ) {
            let mut dev = Device::new(DeviceSpec::test_tiny());
            let (out, _) = dev.launch(buckets.len().max(1), |ctx| {
                xshuffle_clean(ctx, &buckets, eta, Timestamp(horizon))
            });
            // Reference result.
            let mut newest: std::collections::HashMap<u64, WireMessage> = Default::default();
            for b in &buckets {
                for w in b {
                    if w.msg.time.0 < horizon { continue; }
                    newest
                        .entry(w.msg.object.0)
                        .and_modify(|cur| if replaces(w, cur) { *cur = *w; })
                        .or_insert(*w);
                }
            }
            let expect: std::collections::HashMap<(u64, u32), u64> = newest
                .values()
                .filter(|w| !w.msg.is_tombstone())
                .map(|w| ((w.msg.object.0, w.cell.0), w.msg.time.0))
                .collect();
            let mut got = std::collections::HashMap::new();
            for (&cell, msgs) in &out.per_cell {
                for m in msgs {
                    got.insert((m.object.0, cell.0), m.time.0);
                }
            }
            prop_assert_eq!(got, expect);
            prop_assert!(out.max_duplicates_seen <= crate::mu::mu(eta));
        }

        /// The fused merge kernel agrees with a full clean over resident ∪
        /// delta, for any consolidated resident set (unique per object) and
        /// any delta batch.
        #[test]
        fn merge_matches_full_clean(
            resident_raw in prop::collection::vec(arb_message(), 0..12),
            buckets in prop::collection::vec(
                prop::collection::vec(arb_message(), 0..5), 0..24),
            eta in 2u32..6,
            horizon in 0u64..500,
        ) {
            // Consolidate the raw resident set the way a prior clean would:
            // newest live message per object.
            let mut newest: std::collections::HashMap<u64, WireMessage> = Default::default();
            for w in &resident_raw {
                newest
                    .entry(w.msg.object.0)
                    .and_modify(|cur| if replaces(w, cur) { *cur = *w; })
                    .or_insert(*w);
            }
            let resident: Vec<WireMessage> =
                newest.into_values().filter(|w| !w.msg.is_tombstone()).collect();

            let mut dev = Device::new(DeviceSpec::test_tiny());
            let (merged, _) = dev.launch(buckets.len().max(1), |ctx| {
                xshuffle_merge(ctx, &resident, &buckets, eta, Timestamp(horizon))
            });
            let mut combined = buckets.clone();
            combined.push(resident.clone());
            let (full, _) = dev.launch(combined.len(), |ctx| {
                xshuffle_clean(ctx, &combined, eta, Timestamp(horizon))
            });
            let as_map = |out: &CleanOutput| {
                let mut m = std::collections::HashMap::new();
                for (&cell, msgs) in &out.per_cell {
                    for msg in msgs {
                        m.insert((msg.object.0, cell.0), msg.time.0);
                    }
                }
                m
            };
            prop_assert_eq!(as_map(&merged), as_map(&full));
        }
    }
}
