//! Device memory accounting.
//!
//! The simulator does not copy real bytes around — kernels run on host data —
//! but every index that claims residence on the device must *reserve* its
//! footprint here. Capacity is enforced: the paper omits V-Tree (G) on the
//! USA dataset precisely because its index exceeds the card's 5 GB, and the
//! reproduction must fail the same way.
//!
//! Two layers:
//!
//! * [`DeviceMemory`] — raw byte reservations against the card's capacity
//!   (used for structures sized once, like the graph-grid mirror).
//! * [`BufferTable`] — a handle-based allocator on top of it for state that
//!   comes and goes (resident consolidated cell lists): each allocation
//!   returns an opaque [`BufferId`] remembering its size, so frees and
//!   resizes can't desynchronise the ledger, and an occupancy ledger
//!   ([`ResidencyLedger`]) tracks live buffers / bytes / churn for the
//!   eviction instrumentation.

use std::collections::HashMap;
use std::fmt;

/// Error returned when a reservation would exceed device memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutOfDeviceMemory {
    pub requested: u64,
    pub in_use: u64,
    pub capacity: u64,
}

impl fmt::Display for OutOfDeviceMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "out of device memory: requested {} bytes with {}/{} in use",
            self.requested, self.in_use, self.capacity
        )
    }
}

impl std::error::Error for OutOfDeviceMemory {}

/// Tracks reserved device memory against a capacity.
#[derive(Clone, Debug)]
pub struct DeviceMemory {
    capacity: u64,
    in_use: u64,
    peak: u64,
}

impl DeviceMemory {
    pub fn new(capacity: u64) -> Self {
        Self {
            capacity,
            in_use: 0,
            peak: 0,
        }
    }

    /// Reserve `bytes`; fails if it would exceed capacity.
    pub fn alloc(&mut self, bytes: u64) -> Result<(), OutOfDeviceMemory> {
        if self.in_use + bytes > self.capacity {
            return Err(OutOfDeviceMemory {
                requested: bytes,
                in_use: self.in_use,
                capacity: self.capacity,
            });
        }
        self.in_use += bytes;
        self.peak = self.peak.max(self.in_use);
        Ok(())
    }

    /// Release `bytes` previously reserved.
    ///
    /// # Panics
    /// Panics if more is freed than is in use (an accounting bug upstream).
    pub fn free(&mut self, bytes: u64) {
        assert!(
            bytes <= self.in_use,
            "freeing more device memory than allocated"
        );
        self.in_use -= bytes;
    }

    pub fn in_use(&self) -> u64 {
        self.in_use
    }

    pub fn peak(&self) -> u64 {
        self.peak
    }

    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    pub fn available(&self) -> u64 {
        self.capacity - self.in_use
    }
}

/// Opaque handle to a device buffer allocated through [`BufferTable`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BufferId(u64);

/// What a buffer holds — lets instrumentation split resident bytes by
/// subsystem (consolidated cell state vs read-only topology slices).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BufferTag {
    /// Anything untagged, including a device's own consolidated cell state.
    #[default]
    General,
    /// Per-cell CSR topology slices (read-only, immutable).
    Topology,
    /// Read-only replicas of cell state owned by another device (PR 10
    /// read-hot replication) — split out so replica bytes are visibly
    /// charged to the hosting device, never the owner.
    Replica,
}

/// Occupancy ledger of the handle-based allocator: what is resident right
/// now and how much churn got it there.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResidencyLedger {
    /// Buffers currently live.
    pub live_buffers: u64,
    /// Bytes currently reserved through the buffer table.
    pub resident_bytes: u64,
    /// High-water mark of `resident_bytes`.
    pub peak_resident_bytes: u64,
    /// Lifetime allocations.
    pub total_allocs: u64,
    /// Lifetime frees.
    pub total_frees: u64,
}

/// Handle-based device allocator: sizes are remembered per buffer, so
/// callers free by handle rather than by byte count.
#[derive(Clone, Debug, Default)]
pub struct BufferTable {
    sizes: HashMap<u64, (u64, BufferTag)>,
    next_id: u64,
    ledger: ResidencyLedger,
}

impl BufferTable {
    /// Reserve a buffer of `bytes` in `mem`; fails (without reserving) when
    /// the card is out of memory. Tagged [`BufferTag::General`].
    pub fn alloc(
        &mut self,
        mem: &mut DeviceMemory,
        bytes: u64,
    ) -> Result<BufferId, OutOfDeviceMemory> {
        self.alloc_tagged(mem, bytes, BufferTag::General)
    }

    /// [`Self::alloc`] with an explicit subsystem tag.
    pub fn alloc_tagged(
        &mut self,
        mem: &mut DeviceMemory,
        bytes: u64,
        tag: BufferTag,
    ) -> Result<BufferId, OutOfDeviceMemory> {
        mem.alloc(bytes)?;
        let id = self.next_id;
        self.next_id += 1;
        self.sizes.insert(id, (bytes, tag));
        self.ledger.live_buffers += 1;
        self.ledger.resident_bytes += bytes;
        self.ledger.total_allocs += 1;
        self.ledger.peak_resident_bytes = self
            .ledger
            .peak_resident_bytes
            .max(self.ledger.resident_bytes);
        Ok(BufferId(id))
    }

    /// Release a buffer, returning the bytes it held.
    ///
    /// # Panics
    /// Panics on an unknown (already freed) handle — a double free upstream.
    pub fn free(&mut self, mem: &mut DeviceMemory, id: BufferId) -> u64 {
        let (bytes, _) = self
            .sizes
            .remove(&id.0)
            .expect("freeing an unknown device buffer");
        mem.free(bytes);
        self.ledger.live_buffers -= 1;
        self.ledger.resident_bytes -= bytes;
        self.ledger.total_frees += 1;
        bytes
    }

    /// Size of a live buffer, if the handle is valid.
    pub fn bytes_of(&self, id: BufferId) -> Option<u64> {
        self.sizes.get(&id.0).map(|&(b, _)| b)
    }

    /// Bytes currently resident under `tag`.
    pub fn bytes_of_tag(&self, tag: BufferTag) -> u64 {
        self.sizes
            .values()
            .filter(|&&(_, t)| t == tag)
            .map(|&(b, _)| b)
            .sum()
    }

    pub fn ledger(&self) -> &ResidencyLedger {
        &self.ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_cycle() {
        let mut m = DeviceMemory::new(1000);
        m.alloc(400).unwrap();
        m.alloc(500).unwrap();
        assert_eq!(m.in_use(), 900);
        assert_eq!(m.available(), 100);
        m.free(500);
        assert_eq!(m.in_use(), 400);
        assert_eq!(m.peak(), 900);
    }

    #[test]
    fn over_capacity_rejected() {
        let mut m = DeviceMemory::new(100);
        m.alloc(60).unwrap();
        let err = m.alloc(50).unwrap_err();
        assert_eq!(err.requested, 50);
        assert_eq!(err.in_use, 60);
        assert_eq!(m.in_use(), 60, "failed alloc must not reserve");
    }

    #[test]
    fn exact_fit_allowed() {
        let mut m = DeviceMemory::new(100);
        m.alloc(100).unwrap();
        assert_eq!(m.available(), 0);
    }

    #[test]
    #[should_panic(expected = "freeing more")]
    fn over_free_panics() {
        let mut m = DeviceMemory::new(100);
        m.alloc(10).unwrap();
        m.free(11);
    }

    #[test]
    fn error_displays() {
        let e = OutOfDeviceMemory {
            requested: 5,
            in_use: 1,
            capacity: 4,
        };
        assert!(e.to_string().contains("out of device memory"));
    }

    #[test]
    fn buffer_table_tracks_sizes_and_ledger() {
        let mut mem = DeviceMemory::new(1000);
        let mut tab = BufferTable::default();
        let a = tab.alloc(&mut mem, 300).unwrap();
        let b = tab.alloc(&mut mem, 200).unwrap();
        assert_ne!(a, b);
        assert_eq!(tab.bytes_of(a), Some(300));
        assert_eq!(mem.in_use(), 500);
        let l = *tab.ledger();
        assert_eq!((l.live_buffers, l.resident_bytes), (2, 500));
        assert_eq!(tab.free(&mut mem, a), 300);
        assert_eq!(mem.in_use(), 200);
        assert_eq!(tab.bytes_of(a), None);
        assert_eq!(tab.ledger().total_frees, 1);
        assert_eq!(tab.ledger().peak_resident_bytes, 500);
    }

    #[test]
    fn buffer_alloc_over_capacity_rejected() {
        let mut mem = DeviceMemory::new(100);
        let mut tab = BufferTable::default();
        assert!(tab.alloc(&mut mem, 101).is_err());
        assert_eq!(tab.ledger().live_buffers, 0);
        assert_eq!(mem.in_use(), 0);
    }

    #[test]
    fn tags_split_resident_bytes() {
        let mut mem = DeviceMemory::new(1000);
        let mut tab = BufferTable::default();
        let a = tab
            .alloc_tagged(&mut mem, 100, BufferTag::Topology)
            .unwrap();
        let b = tab.alloc_tagged(&mut mem, 200, BufferTag::Replica).unwrap();
        tab.alloc(&mut mem, 50).unwrap();
        assert_eq!(tab.bytes_of_tag(BufferTag::Topology), 100);
        assert_eq!(tab.bytes_of_tag(BufferTag::Replica), 200);
        assert_eq!(tab.bytes_of_tag(BufferTag::General), 50);
        // Free drops a buffer's bytes from its own tag only.
        tab.free(&mut mem, b);
        assert_eq!(tab.bytes_of_tag(BufferTag::Replica), 0);
        assert_eq!(tab.bytes_of_tag(BufferTag::Topology), 100);
        tab.free(&mut mem, a);
        assert_eq!(tab.bytes_of_tag(BufferTag::Topology), 0);
        assert_eq!(tab.bytes_of_tag(BufferTag::General), 50);
    }

    #[test]
    #[should_panic(expected = "unknown device buffer")]
    fn buffer_double_free_panics() {
        let mut mem = DeviceMemory::new(100);
        let mut tab = BufferTable::default();
        let a = tab.alloc(&mut mem, 10).unwrap();
        tab.free(&mut mem, a);
        tab.free(&mut mem, a);
    }
}
