//! Per-cell message lists (paper §III-C).
//!
//! Each grid cell owns a list of δᵇ-message buckets holding the cached
//! location updates that landed in the cell, in arrival order. Buckets whose
//! newest message is older than `now − t_Δ` are discarded wholesale during
//! cleaning: the update contract (§II) guarantees every object has sent a
//! fresher message somewhere by then.
//!
//! The paper's list carries three pointers — head `p_h`, tail `p_t`, and a
//! lock pointer `p_l` marking the prefix frozen while the GPU processes it,
//! so new messages keep landing behind the lock. The simulation is
//! single-threaded, so the freeze is expressed structurally:
//! [`MessageList::take_for_cleaning`] removes the frozen prefix (appending
//! the fresh tail bucket exactly like Algorithm 2's `ζ_new`), and
//! [`MessageList::restore_consolidated`] pushes the cleaning result back in
//! front of whatever arrived meanwhile.

//! ## Epochs and the clean-skip cache
//!
//! Each list carries a *dirty epoch* bumped on every append and a
//! *cleaned-at epoch* stamped when a cleaning pass consolidates the list.
//! While the two agree the list is **clean**: it holds exactly one message
//! per live object, so a query can serve the cell straight from the cache
//! ([`MessageList::snapshot_clean`]) instead of re-launching the X-shuffle
//! kernel. The skip is answer-preserving because the snapshot re-filters by
//! the caller's expiry horizon — exactly the per-message filtering the
//! kernel would have applied — and cleaning an already-consolidated list is
//! idempotent.

//! ## Logical buckets, sized slabs
//!
//! δᵇ is the *logical* bucket size: a bucket is full at δᵇ messages, so
//! bucket boundaries, expiry, the delta split, the X-shuffle lanes and the
//! transfer plan all see the paper's layout. The host slab behind a bucket
//! is sized by what it holds instead. A slab opens with `min(δᵇ,
//! OPEN_SLOTS)` slots, or with a consolidated chunk's length when that is
//! longer, and doubles as its bucket fills, never past δᵇ; a slab retired
//! to the pool shrinks back to the opening size. Most cells cache a
//! handful of messages, so a full δᵇ slab per bucket would mostly hold
//! nothing.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::{Mutex, MutexGuard};

use crate::grid::CellId;
use crate::message::{CachedMessage, Timestamp};

/// A bucket: `ζ = ⟨𝒜_m, n, t, p_n⟩` (the link is implicit in the deque).
#[derive(Clone, Debug, Default)]
pub struct Bucket {
    pub messages: Vec<CachedMessage>,
    /// Time of the latest message in the bucket (`ζ.t`).
    pub latest: Timestamp,
}

/// The message list of one cell.
///
/// The list is `buckets ++ tail`: the newest bucket, the one appends land
/// in, is kept inline rather than at the back of the deque, so an append
/// loads the list header and then the slab — two dependent loads, not
/// three. `tail` is `None` exactly when the list is empty.
#[derive(Debug)]
pub struct MessageList {
    /// Every bucket but the newest, oldest first.
    buckets: VecDeque<Bucket>,
    /// The newest bucket (`p_t`).
    tail: Option<Bucket>,
    bucket_capacity: usize,
    /// Bumped on every append; compared against `cleaned_epoch`.
    dirty_epoch: u64,
    /// Epoch at which the list was last consolidated, if ever.
    cleaned_epoch: Option<u64>,
    /// Number of leading messages (in flattened deque order) that are the
    /// consolidated result of the last cleaning pass. Appends land strictly
    /// after this prefix (the tail bucket preserves within-bucket arrival
    /// order), so the prefix stays intact until the next freeze; both
    /// freezes reset it. A device-resident mirror of the consolidated state
    /// is exactly this prefix, which is what makes
    /// [`Self::take_delta_for_cleaning`] sound.
    consolidated_len: usize,
    /// Retired bucket slabs recycled from cleaning: emptied `Vec`s, shrunk
    /// to the opening size, so steady-state ingest reuses them instead of
    /// allocating. Bounded by [`FREE_LIST_CAP`].
    free: Vec<Vec<CachedMessage>>,
    /// Bucket slabs allocated fresh from the heap (lifetime count).
    bucket_allocs: u64,
    /// Bucket slabs served from the free list (lifetime count).
    bucket_reuses: u64,
}

/// Upper bound on pooled slabs per cell — enough to absorb a cleaning
/// pass's worth of retirements without hoarding memory on quiet cells.
const FREE_LIST_CAP: usize = 32;

/// Slots a bucket's slab opens with when δᵇ is larger.
const OPEN_SLOTS: usize = 16;

impl MessageList {
    pub fn new(bucket_capacity: usize) -> Self {
        assert!(bucket_capacity >= 1);
        Self {
            buckets: VecDeque::new(),
            tail: None,
            bucket_capacity,
            dirty_epoch: 0,
            cleaned_epoch: None,
            consolidated_len: 0,
            free: Vec::new(),
            bucket_allocs: 0,
            bucket_reuses: 0,
        }
    }

    /// A fresh bucket for `len` messages, its slab served from the
    /// free-list pool when possible so steady-state ingest (recycled slabs
    /// from cleaning) stays off the allocator. The slab has exactly the
    /// opening size or `len` slots, whichever is more.
    fn alloc_bucket(&mut self, len: usize) -> Bucket {
        let len = len.max(self.open_slots());
        let messages = match self.free.pop() {
            Some(mut slab) => {
                self.bucket_reuses += 1;
                slab.reserve_exact(len);
                slab
            }
            None => {
                self.bucket_allocs += 1;
                Vec::with_capacity(len)
            }
        };
        Bucket {
            messages,
            latest: Timestamp(0),
        }
    }

    /// Slots a bucket's slab opens with, and the size a pooled slab
    /// shrinks back to.
    fn open_slots(&self) -> usize {
        self.bucket_capacity.min(OPEN_SLOTS)
    }

    /// Return a retired bucket slab to the pool (cleaning calls this under
    /// the same per-cell lock acquisition it already holds). The slab is
    /// cleared and shrunk to the opening size; slabs with no capacity or
    /// beyond the per-cell pool bound are dropped.
    pub fn recycle(&mut self, mut slab: Vec<CachedMessage>) {
        if self.free.len() < FREE_LIST_CAP && slab.capacity() > 0 {
            slab.clear();
            slab.shrink_to(self.open_slots());
            self.free.push(slab);
        }
    }

    /// Slabs currently pooled for reuse.
    #[cfg(test)]
    pub fn free_slabs(&self) -> usize {
        self.free.len()
    }

    /// Lifetime `(heap allocations, free-list reuses)` of bucket slabs.
    pub fn bucket_alloc_stats(&self) -> (u64, u64) {
        (self.bucket_allocs, self.bucket_reuses)
    }

    /// Append one message to the tail bucket, opening a new bucket when
    /// full (the `append` of Algorithm 1), and return the list's new dirty
    /// epoch: the single-message reference [`Self::append_batch`] must
    /// match.
    #[cfg(test)]
    pub fn append(&mut self, m: CachedMessage) -> u64 {
        self.dirty_epoch += 1;
        self.push_tail(m);
        self.dirty_epoch
    }

    /// Group-commit append: the whole run lands under ONE epoch bump, so a
    /// batch touching a cell invalidates its clean-skip stamp exactly once
    /// (and untouched cells stay warm). Message order within the run is
    /// preserved, exactly as if each message had been `append`ed singly.
    /// Returns the new dirty epoch (unchanged for an empty run — the cell
    /// was not dirtied).
    pub fn append_batch(&mut self, msgs: impl IntoIterator<Item = CachedMessage>) -> u64 {
        let mut it = msgs.into_iter().peekable();
        if it.peek().is_none() {
            return self.dirty_epoch;
        }
        self.dirty_epoch += 1;
        for m in it {
            self.push_tail(m);
        }
        self.dirty_epoch
    }

    fn push_tail(&mut self, m: CachedMessage) {
        let b = match &mut self.tail {
            Some(b) if b.messages.len() < self.bucket_capacity => b,
            _ => {
                let fresh = self.alloc_bucket(1);
                if let Some(full) = self.tail.replace(fresh) {
                    self.buckets.push_back(full);
                }
                self.tail.as_mut().expect("just opened a tail bucket")
            }
        };
        let len = b.messages.len();
        if len == b.messages.capacity() {
            // Double, but never past δᵇ: the bucket is full there.
            b.messages
                .reserve_exact(len.min(self.bucket_capacity - len));
        }
        b.latest = b.latest.max(m.time);
        b.messages.push(m);
    }

    /// Remove every bucket, oldest first, leaving the list empty.
    fn take_all(&mut self) -> impl Iterator<Item = Bucket> {
        let tail = self.tail.take();
        std::mem::take(&mut self.buckets).into_iter().chain(tail)
    }

    /// Freeze and remove every current bucket for cleaning, discarding
    /// buckets whose newest message is older than `now − t_Δ` (Algorithm 2,
    /// preprocessing). Returns the surviving buckets.
    pub fn take_for_cleaning(&mut self, now: Timestamp, t_delta_ms: u64) -> Vec<Bucket> {
        let horizon = now.saturating_sub_ms(t_delta_ms);
        self.consolidated_len = 0;
        let mut kept = Vec::with_capacity(self.num_buckets());
        for b in self.take_all() {
            if b.latest >= horizon {
                kept.push(b);
            } else {
                // Expired wholesale: pool the slab instead of freeing it.
                self.recycle(b.messages);
            }
        }
        kept
    }

    /// Freeze and remove every current bucket, returning only the **delta**:
    /// the messages appended *after* the consolidated prefix of the last
    /// cleaning pass. The prefix itself is dropped on the host — the caller
    /// holds a device-resident mirror of it (validated by epoch) and merges
    /// the delta into that on the device, so the prefix never crosses the
    /// bus again. Expired whole-delta buckets are discarded exactly like in
    /// [`Self::take_for_cleaning`].
    pub fn take_delta_for_cleaning(&mut self, now: Timestamp, t_delta_ms: u64) -> Vec<Bucket> {
        let horizon = now.saturating_sub_ms(t_delta_ms);
        let mut skip = self.consolidated_len;
        self.consolidated_len = 0;
        let mut delta = Vec::new();
        for mut b in self.take_all() {
            if skip >= b.messages.len() {
                // Entirely consolidated prefix: the caller holds a device
                // mirror of it, so the slab retires to the pool here.
                skip -= b.messages.len();
                self.recycle(b.messages);
                continue;
            }
            if skip > 0 {
                // Bucket straddles the prefix boundary: the head is
                // consolidated, the tail arrived later.
                b.messages.drain(..skip);
                b.latest = b
                    .messages
                    .iter()
                    .map(|m| m.time)
                    .max()
                    .unwrap_or(Timestamp(0));
                skip = 0;
            }
            if b.latest >= horizon {
                delta.push(b);
            } else {
                self.recycle(b.messages);
            }
        }
        delta
    }

    /// Install the consolidated result of a cleaning pass (newest message
    /// per surviving object) *before* any messages that arrived while the
    /// GPU was busy.
    pub fn restore_consolidated(&mut self, messages: &[CachedMessage]) {
        self.consolidated_len = messages.len();
        if messages.is_empty() {
            return;
        }
        for chunk in messages.chunks(self.bucket_capacity).rev() {
            let mut b = self.alloc_bucket(chunk.len());
            b.messages.extend_from_slice(chunk);
            b.latest = chunk.iter().map(|m| m.time).max().unwrap_or(Timestamp(0));
            // On an empty list the last chunk becomes the open tail, so
            // later appends fill it up exactly as they would a deque back.
            if self.tail.is_none() {
                self.tail = Some(b);
            } else {
                self.buckets.push_front(b);
            }
        }
    }

    /// Current dirty epoch (monotone append counter).
    pub fn epoch(&self) -> u64 {
        self.dirty_epoch
    }

    /// Epoch stamped by the last cleaning pass, if any. A device-resident
    /// mirror of the consolidated state is valid exactly when its recorded
    /// epoch equals this value (the list's consolidated prefix is then the
    /// mirrored data, and everything after it is the delta).
    pub fn cleaned_epoch(&self) -> Option<u64> {
        self.cleaned_epoch
    }

    /// Length of the consolidated prefix (messages the last cleaning pass
    /// installed, still at the front of the list).
    pub fn consolidated_len(&self) -> usize {
        self.consolidated_len
    }

    /// Stamp the list as consolidated at its current epoch. Called by the
    /// cleaning pass after [`Self::restore_consolidated`]; any later append
    /// bumps `dirty_epoch` past the stamp and invalidates it.
    pub fn mark_clean(&mut self) {
        self.cleaned_epoch = Some(self.dirty_epoch);
    }

    /// Whether the list's content is exactly the result of its last
    /// cleaning pass (or the list is empty, which is trivially clean).
    pub fn is_clean(&self) -> bool {
        self.is_empty() || self.cleaned_epoch == Some(self.dirty_epoch)
    }

    /// Serve a clean cell from the cache: the consolidated messages still
    /// alive at `horizon`, in stored order. Only meaningful when
    /// [`Self::is_clean`] holds — the list then contains one update per
    /// live object, so horizon filtering is all a kernel pass would add.
    pub fn snapshot_clean(&self, horizon: Timestamp) -> Vec<CachedMessage> {
        debug_assert!(self.is_clean(), "snapshot of a dirty list");
        self.buckets()
            .flat_map(|b| b.messages.iter())
            .filter(|m| m.time >= horizon && !m.is_tombstone())
            .copied()
            .collect()
    }

    pub fn is_empty(&self) -> bool {
        self.tail.is_none()
    }

    /// Read access to the buckets, oldest first (diagnostics/validation).
    pub fn buckets(&self) -> impl Iterator<Item = &Bucket> {
        self.buckets.iter().chain(&self.tail)
    }

    pub fn num_buckets(&self) -> usize {
        self.buckets.len() + usize::from(self.tail.is_some())
    }

    pub fn total_messages(&self) -> usize {
        self.buckets().map(|b| b.messages.len()).sum()
    }

    /// Resident bytes in the paper's layout: one full δᵇ-slot array per
    /// bucket. This is the index-size model, not the host's footprint —
    /// host slabs are sized by what they hold (see the module docs) and
    /// are not counted here.
    pub fn size_bytes(&self) -> u64 {
        self.num_buckets() as u64 * (self.bucket_capacity as u64 * CachedMessage::WIRE_BYTES + 24)
    }
}

/// The per-cell message lists of a server, each behind its own lock.
///
/// Lock granularity is one mutex per cell: updates and cleaning touch
/// disjoint cells far more often than not, and the refinement worker pool
/// never holds more than one cell's lock at a time, so there is no lock
/// ordering to get wrong (acquire, read/write, release — never nested).
///
/// Slab allocations and reuses are also tallied here, by the two writers
/// that open slabs (the ingest group commit and cleaning's
/// [`MessageList::restore_consolidated`]), so the server's counters read
/// them without locking any cell.
///
/// Each cell also carries a tally of the objects whose latest placement
/// is that cell (`CellLists::track_move`), kept by the ingest placement and
/// read by the query planner without the cell's mutex: a clean of the
/// cell yields at most that many live objects.
#[derive(Debug)]
pub struct CellLists {
    cells: Vec<Mutex<MessageList>>,
    live: Vec<AtomicU32>,
    slabs_opened: AtomicU64,
    slabs_reused: AtomicU64,
}

impl CellLists {
    pub fn new(num_cells: usize, bucket_capacity: usize) -> Self {
        Self {
            cells: (0..num_cells)
                .map(|_| Mutex::new(MessageList::new(bucket_capacity)))
                .collect(),
            live: (0..num_cells).map(|_| AtomicU32::new(0)).collect(),
            slabs_opened: AtomicU64::new(0),
            slabs_reused: AtomicU64::new(0),
        }
    }

    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Lock one cell's list. Callers must not hold another cell's guard.
    pub fn lock(&self, cell_index: usize) -> MutexGuard<'_, MessageList> {
        self.cells[cell_index].lock()
    }

    /// Lock one cell's list, adding the time spent blocked to `wait_ns`.
    ///
    /// The fast path is a `try_lock` and reads no clock. On a TSC clock
    /// source a clock read is an ordered `rdtsc` that waits for every
    /// outstanding load, so timing every acquisition would serialize the
    /// cache misses of a batch's appends. Only an acquisition that blocks
    /// is timed: `wait_ns` is the time spent blocked on contended locks.
    pub fn lock_metered(
        &self,
        cell_index: usize,
        wait_ns: &AtomicU64,
    ) -> MutexGuard<'_, MessageList> {
        let cell = &self.cells[cell_index];
        if let Some(guard) = cell.try_lock() {
            return guard;
        }
        let w0 = Instant::now();
        let guard = cell.lock();
        wait_ns.fetch_add(w0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        guard
    }

    /// Hint the CPU to start loading one cell's lock and list header (the
    /// open tail bucket included), so a commit loop walking cells in order
    /// overlaps the cache misses of the next few cells with the appends of
    /// the current one. A no-op off x86-64.
    #[inline]
    pub fn prefetch(&self, cell_index: usize) {
        #[cfg(target_arch = "x86_64")]
        if let Some(cell) = self.cells.get(cell_index) {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let p = (cell as *const Mutex<MessageList>).cast::<i8>();
            let size = std::mem::size_of::<Mutex<MessageList>>();
            // Every cache line the cell spans: the lock word and the list
            // header need not share one.
            for offset in (0..size).step_by(64).chain([size - 1]) {
                // SAFETY: SSE is part of the x86-64 baseline, the address
                // lies inside `cell`, and a prefetch is only a hint: it
                // never faults and writes nothing.
                unsafe { _mm_prefetch::<_MM_HINT_T0>(p.add(offset)) };
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = cell_index;
    }

    /// Record that an object's latest placement moved from `prev` (`None`
    /// for a new object) to `cell`: the cell it enters gains one live
    /// object and the cell it leaves loses one; an update within one cell
    /// changes nothing. The ingest placement calls this once per applied
    /// update, in each object's update order.
    pub(crate) fn track_move(&self, prev: Option<CellId>, cell: CellId) {
        if prev == Some(cell) {
            return;
        }
        self.live[cell.index()].fetch_add(1, Ordering::Relaxed);
        if let Some(prev) = prev {
            self.live[prev.index()].fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Objects whose latest placement is `cell`, read without its mutex.
    /// A clean of the cell yields at most this many live objects (an
    /// object is live in one cell, the one its newest message names) when
    /// each object's updates carry increasing stamps; DESIGN.md §5.6 has
    /// the equal-stamp exception.
    pub(crate) fn live_objects(&self, cell: CellId) -> usize {
        self.live[cell.index()].load(Ordering::Relaxed) as usize
    }

    /// Bytes of the live-object tally (part of the index size).
    pub(crate) fn tally_bytes(&self) -> u64 {
        (self.live.len() * std::mem::size_of::<AtomicU32>()) as u64
    }

    /// Sum of `f` over all cells (diagnostics; locks one cell at a time).
    pub fn sum_over<T: std::iter::Sum>(&self, f: impl Fn(&MessageList) -> T) -> T {
        self.cells.iter().map(|c| f(&c.lock())).sum()
    }

    /// Lifetime `(heap allocations, free-list reuses)` of bucket slabs over
    /// all cells, as tallied by their writers: the group commit and
    /// cleaning's [`MessageList::restore_consolidated`].
    pub(crate) fn slab_stats(&self) -> (u64, u64) {
        (
            self.slabs_opened.load(Ordering::Relaxed),
            self.slabs_reused.load(Ordering::Relaxed),
        )
    }

    /// Tally slabs a writer opened from the heap and reused from the
    /// free lists, each cell's share being the change of its
    /// [`MessageList::bucket_alloc_stats`] under the writer's lock.
    pub(crate) fn add_slabs(&self, opened: u64, reused: u64) {
        self.slabs_opened.fetch_add(opened, Ordering::Relaxed);
        self.slabs_reused.fetch_add(reused, Ordering::Relaxed);
    }

    /// [`Self::slab_stats`] the slow way, summed over every cell (one lock
    /// per cell): the oracle the tally is tested against.
    #[cfg(test)]
    pub(crate) fn bucket_alloc_stats(&self) -> (u64, u64) {
        self.cells.iter().fold((0, 0), |(allocs, reuses), c| {
            let (a, r) = c.lock().bucket_alloc_stats();
            (allocs + a, reuses + r)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::ObjectId;
    use roadnet::{EdgeId, EdgePosition};

    fn msg(o: u64, t: u64) -> CachedMessage {
        CachedMessage::update(ObjectId(o), EdgePosition::new(EdgeId(0), 0), Timestamp(t))
    }

    #[test]
    fn append_fills_buckets_in_order() {
        let mut l = MessageList::new(3);
        for i in 0..7 {
            l.append(msg(i, i));
        }
        assert_eq!(l.num_buckets(), 3);
        assert_eq!(l.total_messages(), 7);
    }

    #[test]
    fn bucket_latest_tracks_max() {
        let mut l = MessageList::new(8);
        l.append(msg(1, 5));
        l.append(msg(2, 3));
        let buckets = l.take_for_cleaning(Timestamp(6), 100);
        assert_eq!(buckets.len(), 1);
        assert_eq!(buckets[0].latest, Timestamp(5));
    }

    #[test]
    fn take_discards_expired_buckets() {
        let mut l = MessageList::new(2);
        l.append(msg(1, 10));
        l.append(msg(2, 11)); // bucket 0, latest 11
        l.append(msg(3, 500)); // bucket 1, latest 500
        let kept = l.take_for_cleaning(Timestamp(600), 200);
        // horizon = 400: bucket 0 (latest 11) dropped, bucket 1 kept.
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].messages[0].object, ObjectId(3));
        assert!(l.is_empty());
    }

    #[test]
    fn take_keeps_bucket_with_one_fresh_message() {
        // A bucket is kept if its *latest* message is fresh, even if earlier
        // messages in it are stale — per-message filtering happens on GPU.
        let mut l = MessageList::new(8);
        l.append(msg(1, 10));
        l.append(msg(2, 1000));
        let kept = l.take_for_cleaning(Timestamp(1100), 200);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].messages.len(), 2);
    }

    #[test]
    fn delta_skips_consolidated_prefix() {
        let mut l = MessageList::new(2);
        l.restore_consolidated(&[msg(1, 10), msg(2, 11), msg(3, 12)]);
        l.mark_clean();
        assert_eq!(l.consolidated_len(), 3);
        l.append(msg(4, 20));
        l.append(msg(5, 21));
        let delta = l.take_delta_for_cleaning(Timestamp(30), 100);
        let ids: Vec<u64> = delta
            .iter()
            .flat_map(|b| b.messages.iter().map(|m| m.object.0))
            .collect();
        assert_eq!(ids, vec![4, 5], "delta must exclude the prefix");
        assert!(l.is_empty());
        assert_eq!(l.consolidated_len(), 0);
    }

    #[test]
    fn delta_splits_straddling_bucket() {
        // Capacity 4: prefix of 3 leaves one free slot in the front bucket,
        // so the first append lands in a bucket that is part prefix.
        let mut l = MessageList::new(4);
        l.restore_consolidated(&[msg(1, 10), msg(2, 11), msg(3, 12)]);
        l.mark_clean();
        l.append(msg(4, 20));
        l.append(msg(5, 21));
        let delta = l.take_delta_for_cleaning(Timestamp(30), 100);
        let ids: Vec<u64> = delta
            .iter()
            .flat_map(|b| b.messages.iter().map(|m| m.object.0))
            .collect();
        assert_eq!(ids, vec![4, 5]);
        // The straddling bucket's latest reflects the remaining tail only.
        assert!(delta.iter().all(|b| b.latest >= Timestamp(20)));
    }

    #[test]
    fn delta_drops_expired_buckets() {
        let mut l = MessageList::new(2);
        l.restore_consolidated(&[msg(1, 10)]);
        l.mark_clean();
        l.append(msg(2, 11)); // completes the straddling bucket (latest 11)
        l.append(msg(3, 12));
        l.append(msg(4, 5000)); // shares a bucket with msg 3 (latest 5000)
        let delta = l.take_delta_for_cleaning(Timestamp(5100), 500);
        let ids: Vec<u64> = delta
            .iter()
            .flat_map(|b| b.messages.iter().map(|m| m.object.0))
            .collect();
        // horizon = 4600: the [2] remainder (latest 11) is dropped wholesale;
        // [3, 4] survives as a bucket (per-message expiry is the kernel's).
        assert_eq!(ids, vec![3, 4], "stale delta bucket must be dropped");
    }

    #[test]
    fn full_freeze_resets_prefix() {
        let mut l = MessageList::new(4);
        l.restore_consolidated(&[msg(1, 10)]);
        l.mark_clean();
        let _ = l.take_for_cleaning(Timestamp(20), 100);
        assert_eq!(l.consolidated_len(), 0);
    }

    #[test]
    fn restore_goes_before_new_arrivals() {
        let mut l = MessageList::new(4);
        l.append(msg(1, 10));
        let _frozen = l.take_for_cleaning(Timestamp(11), 100);
        // A message arrives "while the GPU is busy".
        l.append(msg(2, 12));
        l.restore_consolidated(&[msg(1, 10)]);
        // Consolidated bucket first, arrival after.
        let all = l.take_for_cleaning(Timestamp(13), 100);
        assert_eq!(all[0].messages[0].object, ObjectId(1));
        assert_eq!(all[1].messages[0].object, ObjectId(2));
    }

    #[test]
    fn restore_chunks_by_capacity() {
        let mut l = MessageList::new(2);
        l.restore_consolidated(&(0..5).map(|i| msg(i, i)).collect::<Vec<_>>());
        assert_eq!(l.num_buckets(), 3);
        assert_eq!(l.total_messages(), 5);
        // Order preserved across chunks.
        let taken = l.take_for_cleaning(Timestamp(10), 100);
        let ids: Vec<u64> = taken
            .iter()
            .flat_map(|b| b.messages.iter().map(|m| m.object.0))
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn restore_empty_is_noop() {
        let mut l = MessageList::new(2);
        l.restore_consolidated(&[]);
        assert!(l.is_empty());
    }

    #[test]
    fn epochs_track_appends_and_cleaning() {
        let mut l = MessageList::new(4);
        assert!(l.is_clean(), "empty list is trivially clean");
        l.append(msg(1, 10));
        assert!(!l.is_clean(), "append dirties the list");
        let e = l.epoch();
        // Simulate a cleaning pass: freeze, restore, stamp.
        let _frozen = l.take_for_cleaning(Timestamp(11), 100);
        l.restore_consolidated(&[msg(1, 10)]);
        l.mark_clean();
        assert!(l.is_clean());
        assert_eq!(l.epoch(), e, "cleaning does not advance the epoch");
        l.append(msg(2, 12));
        assert!(!l.is_clean(), "stamp invalidated by a later append");
        assert!(l.epoch() > e);
    }

    #[test]
    fn snapshot_filters_by_horizon() {
        let mut l = MessageList::new(4);
        l.restore_consolidated(&[msg(1, 10), msg(2, 500), msg(3, 600)]);
        l.mark_clean();
        let fresh = l.snapshot_clean(Timestamp(400));
        let ids: Vec<u64> = fresh.iter().map(|m| m.object.0).collect();
        assert_eq!(ids, vec![2, 3], "expired message 1 filtered out");
        // List content itself is untouched by the snapshot.
        assert_eq!(l.total_messages(), 3);
        assert!(l.is_clean());
    }

    #[test]
    fn cell_lists_lock_independently() {
        let lists = CellLists::new(3, 4);
        lists.lock(0).append(msg(1, 10));
        // Holding cell 0's guard does not block cell 1.
        let g0 = lists.lock(0);
        lists.lock(1).append(msg(2, 20));
        drop(g0);
        let total: usize = lists.sum_over(|l| l.total_messages());
        assert_eq!(total, 2);
        assert_eq!(lists.len(), 3);
    }

    #[test]
    fn metered_lock_times_only_contended_acquisitions() {
        let lists = CellLists::new(2, 4);
        let wait = AtomicU64::new(0);
        lists.lock_metered(0, &wait).append(msg(1, 10));
        assert_eq!(
            wait.load(Ordering::Relaxed),
            0,
            "an uncontended acquisition adds nothing"
        );
        // Hold cell 1 for about 1 ms while another thread asks for it. The
        // barrier puts the waiter right at the lock before the hold starts
        // counting; a retry covers a waiter descheduled past the whole hold.
        for _ in 0..5 {
            let held = lists.lock(1);
            let ready = std::sync::Barrier::new(2);
            std::thread::scope(|s| {
                s.spawn(|| {
                    ready.wait();
                    lists.lock_metered(1, &wait).append(msg(2, 20));
                });
                ready.wait();
                std::thread::sleep(std::time::Duration::from_millis(1));
                drop(held);
            });
            if wait.load(Ordering::Relaxed) > 0 {
                break;
            }
        }
        assert!(
            wait.load(Ordering::Relaxed) > 0,
            "an acquisition that blocked must be timed"
        );
    }

    #[test]
    fn bucket_alloc_stats_sum_over_cells() {
        let lists = CellLists::new(3, 2);
        for i in 0..5 {
            lists.lock(i % 3).append(msg(i as u64, i as u64));
        }
        // Cells 0 and 1 hold two messages (one slab each), cell 2 one.
        assert_eq!(lists.bucket_alloc_stats(), (3, 0));
    }

    #[test]
    fn appends_fill_the_open_tail_before_opening_a_new_bucket() {
        let sizes =
            |l: &MessageList| -> Vec<usize> { l.buckets().map(|b| b.messages.len()).collect() };
        let mut l = MessageList::new(3);
        // On an empty list the last consolidated chunk is the open tail.
        l.restore_consolidated(&(0..4).map(|i| msg(i, i)).collect::<Vec<_>>());
        assert_eq!(sizes(&l), vec![3, 1]);
        l.append_batch([msg(4, 4), msg(5, 5), msg(6, 6)]);
        assert_eq!(sizes(&l), vec![3, 3, 1]);
        // On a non-empty list consolidated chunks go in front of the tail.
        let _ = l.take_for_cleaning(Timestamp(10), 100);
        l.append(msg(7, 7));
        l.restore_consolidated(&[msg(8, 8)]);
        assert_eq!(sizes(&l), vec![1, 1]);
        let ids: Vec<u64> = l
            .buckets()
            .flat_map(|b| b.messages.iter().map(|m| m.object.0))
            .collect();
        assert_eq!(ids, vec![8, 7]);
        assert_eq!(l.total_messages(), 2);
        assert_eq!(l.num_buckets(), 2);
    }

    #[test]
    fn append_batch_bumps_epoch_once() {
        let mut l = MessageList::new(3);
        let e0 = l.epoch();
        l.append_batch([msg(1, 10), msg(2, 11), msg(3, 12), msg(4, 13)]);
        assert_eq!(l.epoch(), e0 + 1, "one bump for the whole run");
        assert_eq!(l.total_messages(), 4);
        assert_eq!(l.num_buckets(), 2);
        // Order matches singly-appended messages.
        let mut single = MessageList::new(3);
        for i in 1..=4 {
            single.append(msg(i, 9 + i));
        }
        let a: Vec<u64> = l
            .take_for_cleaning(Timestamp(20), 100)
            .iter()
            .flat_map(|b| b.messages.iter().map(|m| m.object.0))
            .collect();
        let b: Vec<u64> = single
            .take_for_cleaning(Timestamp(20), 100)
            .iter()
            .flat_map(|b| b.messages.iter().map(|m| m.object.0))
            .collect();
        assert_eq!(a, b);
        // Empty batch is a no-op: no epoch bump, clean stamp untouched.
        let e = l.epoch();
        l.append_batch([]);
        assert_eq!(l.epoch(), e);
    }

    #[test]
    fn recycled_slabs_are_reused() {
        let mut l = MessageList::new(4);
        for i in 0..8 {
            l.append(msg(i, i));
        }
        let (allocs0, reuses0) = l.bucket_alloc_stats();
        assert_eq!((allocs0, reuses0), (2, 0));
        // Retire the frozen buckets back into the pool.
        for b in l.take_for_cleaning(Timestamp(10), 100) {
            l.recycle(b.messages);
        }
        assert_eq!(l.free_slabs(), 2);
        for i in 0..8 {
            l.append(msg(i, i));
        }
        let (allocs1, reuses1) = l.bucket_alloc_stats();
        assert_eq!(
            (allocs1, reuses1),
            (2, 2),
            "steady-state appends must come from the pool, not the heap"
        );
        assert_eq!(l.free_slabs(), 0);
    }

    #[test]
    fn recycle_pools_any_slab_at_the_opening_size() {
        let mut l = MessageList::new(64);
        l.recycle(Vec::new());
        assert_eq!(l.free_slabs(), 0, "a slab with no capacity holds nothing");
        l.recycle(Vec::with_capacity(2));
        l.recycle(Vec::with_capacity(64));
        assert_eq!(l.free_slabs(), 2, "undersized slabs are pooled too");
        let caps: Vec<usize> = l.free.iter().map(Vec::capacity).collect();
        assert_eq!(
            caps,
            vec![2, OPEN_SLOTS],
            "full slabs shrink to the opening size"
        );
        // A pooled slab grows on demand: a restored chunk gets its length,
        // and an undersized slab reopens at the opening size.
        l.restore_consolidated(&(0..40).map(|i| msg(i, i)).collect::<Vec<_>>());
        assert_eq!(l.bucket_alloc_stats(), (0, 1));
        assert_eq!(l.buckets().next().unwrap().messages.capacity(), 40);
        let _ = l.take_for_cleaning(Timestamp(50), 100);
        l.append(msg(0, 50));
        assert_eq!(l.bucket_alloc_stats(), (0, 2));
        assert_eq!(l.buckets().next().unwrap().messages.capacity(), OPEN_SLOTS);
    }

    #[test]
    fn slabs_grow_by_doubling_up_to_the_bucket_capacity() {
        let caps = |l: &MessageList| -> Vec<usize> {
            l.buckets().map(|b| b.messages.capacity()).collect()
        };
        let mut l = MessageList::new(40);
        l.append(msg(0, 0));
        assert_eq!(caps(&l), vec![OPEN_SLOTS]);
        l.append_batch((1..17).map(|i| msg(i, i)));
        assert_eq!(caps(&l), vec![32]);
        l.append_batch((17..41).map(|i| msg(i, i)));
        assert_eq!(
            caps(&l),
            vec![40, OPEN_SLOTS],
            "capped at δᵇ, then a new bucket"
        );
        // Below the opening size the slab opens at δᵇ.
        let mut small = MessageList::new(3);
        small.append(msg(0, 0));
        assert_eq!(caps(&small), vec![3]);
    }

    #[test]
    fn size_bytes_counts_slabs() {
        let mut l = MessageList::new(4);
        assert_eq!(l.size_bytes(), 0);
        l.append(msg(1, 1));
        let one = l.size_bytes();
        for i in 0..4 {
            l.append(msg(i, 2));
        }
        assert!(l.size_bytes() > one);
    }

    /// Every slab the list holds (its buckets and its pool) fits the
    /// bucket: at most δᵇ slots, and at most twice its length or the
    /// opening size.
    fn assert_slabs_fit(l: &MessageList) {
        let d = l.bucket_capacity;
        for b in l.buckets() {
            let (len, cap) = (b.messages.len(), b.messages.capacity());
            assert!(cap <= d, "bucket slab of {cap} slots past δᵇ = {d}");
            assert!(
                cap <= (2 * len).max(OPEN_SLOTS),
                "{cap} slots for {len} messages"
            );
        }
        for slab in &l.free {
            assert!(slab.is_empty() && slab.capacity() <= l.open_slots());
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// Random interleavings of every operation that opens, fills,
        /// retires or restores a bucket, at δᵇ both powers of two and
        /// not, keep every slab sized to what it holds.
        #[test]
        fn slabs_stay_sized_to_their_contents(
            cap_idx in 0usize..7,
            ops in proptest::prop::collection::vec((0u8..7, 0u64..300, 0u64..50), 1..200),
        ) {
            let mut l = MessageList::new([1, 2, 3, 5, 16, 20, 128][cap_idx]);
            let mut clock = 0u64;
            for (kind, n, o) in ops {
                clock += n % 7;
                match kind {
                    0 => {
                        l.append(msg(o, clock));
                    }
                    1 => {
                        l.append_batch((0..n).map(|i| msg(o + i, clock)));
                    }
                    2 | 3 => {
                        let taken = if kind == 2 {
                            l.take_for_cleaning(Timestamp(clock), n)
                        } else {
                            l.take_delta_for_cleaning(Timestamp(clock), n)
                        };
                        for b in taken {
                            l.recycle(b.messages);
                        }
                    }
                    4 | 5 => {
                        let msgs: Vec<_> = (0..n % 150).map(|i| msg(o + i, clock)).collect();
                        l.restore_consolidated(&msgs);
                        if kind == 5 {
                            l.mark_clean();
                        }
                    }
                    _ => l.recycle(Vec::with_capacity(n as usize)),
                }
                assert_slabs_fit(&l);
            }
        }
    }
}
