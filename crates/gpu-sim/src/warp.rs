//! Lock-step warp execution with lane collectives.
//!
//! A *bundle* (the paper's term for a group of `2^η` threads, §IV-C1) is
//! modelled as a set of lanes whose registers advance together through
//! whole-bundle collective operations. This mirrors how the real kernel is
//! written: straight-line SIMT code where every lane executes the same
//! instruction, exchanging registers via the butterfly `shuffle_xor`.
//!
//! Cost semantics faithful to hardware:
//! * `shuffle_xor` with a lane mask smaller than the warp size is a cheap
//!   register exchange;
//! * a mask that crosses warp boundaries (bundle wider than a warp) must be
//!   staged through shared memory with a block barrier — much slower. This
//!   is exactly the effect the paper measures in Fig 4b, where bundles wider
//!   than the 32-lane warp stop paying off.

use crate::ops::OpCounts;

/// One register per lane of a bundle.
#[derive(Clone, Debug, PartialEq)]
pub struct Lanes<T> {
    vals: Vec<T>,
}

impl<T> Lanes<T> {
    pub fn from_vec(vals: Vec<T>) -> Self {
        Self { vals }
    }

    pub fn from_fn(width: usize, f: impl FnMut(usize) -> T) -> Self {
        Self {
            vals: (0..width).map(f).collect(),
        }
    }

    pub fn width(&self) -> usize {
        self.vals.len()
    }

    pub fn get(&self, lane: usize) -> &T {
        &self.vals[lane]
    }

    pub fn as_slice(&self) -> &[T] {
        &self.vals
    }

    pub fn into_vec(self) -> Vec<T> {
        self.vals
    }
}

/// Executes collectives over a bundle of `width` lanes, charging every
/// operation to an [`OpCounts`] accumulator.
pub struct WarpExecutor<'a> {
    warp_size: usize,
    width: usize,
    ops: &'a mut OpCounts,
}

impl<'a> WarpExecutor<'a> {
    /// # Panics
    /// Panics unless `width` is a power of two (bundles are `2^η` lanes).
    pub fn new(ops: &'a mut OpCounts, warp_size: usize, width: usize) -> Self {
        assert!(
            width.is_power_of_two(),
            "bundle width must be a power of two"
        );
        assert!(warp_size.is_power_of_two());
        Self {
            warp_size,
            width,
            ops,
        }
    }

    pub fn width(&self) -> usize {
        self.width
    }

    /// Whether this bundle spans more than one hardware warp.
    pub fn spans_warps(&self) -> bool {
        self.width > self.warp_size
    }

    /// Per-lane pure computation: one ALU op per lane (charge more work via
    /// [`Self::charge_alu`] when the closure does more than O(1)).
    pub fn map<T, U>(&mut self, lanes: &Lanes<T>, mut f: impl FnMut(usize, &T) -> U) -> Lanes<U> {
        assert_eq!(lanes.width(), self.width);
        self.ops.alu += self.width as u64;
        Lanes::from_fn(self.width, |i| f(i, &lanes.vals[i]))
    }

    /// Per-lane in-place mutation against external state.
    pub fn for_each(&mut self, mut f: impl FnMut(usize)) {
        self.ops.alu += self.width as u64;
        for i in 0..self.width {
            f(i);
        }
    }

    /// Butterfly exchange: lane `i` receives lane `i ^ mask`'s register.
    ///
    /// # Panics
    /// Panics unless `0 < mask < width` (CUDA's `__shfl_xor` lane-mask rule
    /// restricted to in-bundle exchanges).
    pub fn shuffle_xor<T: Copy>(&mut self, lanes: &Lanes<T>, mask: usize) -> Lanes<T> {
        assert_eq!(lanes.width(), self.width);
        self.charge_shuffle_xor(mask);
        Lanes::from_fn(self.width, |i| lanes.vals[i ^ mask])
    }

    /// Charge one [`Self::shuffle_xor`] exchange without moving registers,
    /// for emulations that track only the lanes holding data (lane `i`'s
    /// register moves to lane `i ^ mask`).
    ///
    /// # Panics
    /// As [`Self::shuffle_xor`].
    pub fn charge_shuffle_xor(&mut self, mask: usize) {
        assert!(mask > 0 && mask < self.width, "lane mask out of range");
        if mask >= self.warp_size {
            // Crosses warp boundaries: shared-memory staging + barrier.
            self.ops.cross_warp_shuffle += self.width as u64;
            self.ops.syncs += 1;
        } else {
            self.ops.shuffle += self.width as u64;
        }
    }

    /// Ballot: bitmask (little-endian by lane) of lanes whose predicate holds.
    pub fn ballot<T>(&mut self, lanes: &Lanes<T>, mut pred: impl FnMut(&T) -> bool) -> u64 {
        assert!(
            self.width <= 64,
            "ballot modelled for bundles up to 64 lanes"
        );
        self.ops.alu += self.width as u64;
        let mut mask = 0u64;
        for (i, v) in lanes.vals.iter().enumerate() {
            if pred(v) {
                mask |= 1 << i;
            }
        }
        mask
    }

    /// Charge extra per-lane ALU work performed inside closures.
    pub fn charge_alu(&mut self, per_lane_ops: u64) {
        self.ops.alu += per_lane_ops * self.width as u64;
    }

    /// Charge a global-memory read performed by every lane.
    pub fn charge_global_read(&mut self, bytes_per_lane: u64) {
        self.ops.global_read_bytes += bytes_per_lane * self.width as u64;
    }

    /// Charge a global-memory write performed by every lane.
    pub fn charge_global_write(&mut self, bytes_per_lane: u64) {
        self.ops.global_write_bytes += bytes_per_lane * self.width as u64;
    }

    /// Charge an atomic RMW performed by a subset of lanes.
    pub fn charge_atomics(&mut self, count: u64) {
        self.ops.atomics += count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exec(ops: &mut OpCounts, width: usize) -> WarpExecutor<'_> {
        WarpExecutor::new(ops, 32, width)
    }

    #[test]
    fn shuffle_xor_permutes() {
        let mut ops = OpCounts::default();
        let mut w = exec(&mut ops, 8);
        let lanes = Lanes::from_fn(8, |i| i as u32);
        let out = w.shuffle_xor(&lanes, 4);
        assert_eq!(out.as_slice(), &[4, 5, 6, 7, 0, 1, 2, 3]);
    }

    #[test]
    fn charge_only_shuffle_matches_shuffle_xor() {
        for (width, mask) in [(8, 1), (8, 4), (16, 5), (64, 32), (64, 12)] {
            let lanes = Lanes::from_fn(width, |i| i as u32);
            let (mut a, mut b) = (OpCounts::default(), OpCounts::default());
            WarpExecutor::new(&mut a, 32, width).shuffle_xor(&lanes, mask);
            WarpExecutor::new(&mut b, 32, width).charge_shuffle_xor(mask);
            assert_eq!(a, b, "width {width} mask {mask}");
        }
    }

    #[test]
    fn shuffle_xor_is_involution() {
        let mut ops = OpCounts::default();
        let mut w = exec(&mut ops, 16);
        let lanes = Lanes::from_fn(16, |i| i as u32 * 3);
        let twice = {
            let once = w.shuffle_xor(&lanes, 5);
            w.shuffle_xor(&once, 5)
        };
        assert_eq!(twice, lanes);
    }

    #[test]
    fn paper_example_exchange() {
        // Paper §IV-C2: with 4 threads, shuffle_xor(2) exchanges lanes
        // 0↔2 and 1↔3.
        let mut ops = OpCounts::default();
        let mut w = exec(&mut ops, 4);
        let lanes = Lanes::from_vec(vec!['a', 'b', 'c', 'd']);
        let out = w.shuffle_xor(&lanes, 2);
        assert_eq!(out.as_slice(), &['c', 'd', 'a', 'b']);
    }

    #[test]
    fn within_warp_shuffle_is_cheap() {
        let mut ops = OpCounts::default();
        {
            let mut w = exec(&mut ops, 32);
            let lanes = Lanes::from_fn(32, |i| i);
            w.shuffle_xor(&lanes, 16);
        }
        assert_eq!(ops.shuffle, 32);
        assert_eq!(ops.cross_warp_shuffle, 0);
        assert_eq!(ops.syncs, 0);
    }

    #[test]
    fn cross_warp_shuffle_charges_sync() {
        let mut ops = OpCounts::default();
        {
            let mut w = exec(&mut ops, 64);
            let lanes = Lanes::from_fn(64, |i| i);
            w.shuffle_xor(&lanes, 32); // crosses the 32-lane warp boundary
        }
        assert_eq!(ops.cross_warp_shuffle, 64);
        assert_eq!(ops.syncs, 1);
        assert_eq!(ops.shuffle, 0);
    }

    #[test]
    #[should_panic(expected = "lane mask out of range")]
    fn mask_must_be_in_bundle() {
        let mut ops = OpCounts::default();
        let mut w = exec(&mut ops, 8);
        let lanes = Lanes::from_fn(8, |i| i);
        w.shuffle_xor(&lanes, 8);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn width_must_be_power_of_two() {
        let mut ops = OpCounts::default();
        WarpExecutor::new(&mut ops, 32, 12);
    }

    #[test]
    fn ballot_collects_predicate() {
        let mut ops = OpCounts::default();
        let mut w = exec(&mut ops, 8);
        let lanes = Lanes::from_fn(8, |i| i as u32);
        let mask = w.ballot(&lanes, |&v| v % 2 == 0);
        assert_eq!(mask, 0b0101_0101);
    }

    #[test]
    fn map_charges_alu() {
        let mut ops = OpCounts::default();
        {
            let mut w = exec(&mut ops, 16);
            let lanes = Lanes::from_fn(16, |i| i as u64);
            let doubled = w.map(&lanes, |_, &v| v * 2);
            assert_eq!(*doubled.get(3), 6);
        }
        assert_eq!(ops.alu, 16);
    }

    #[test]
    fn memory_charges_scale_with_width() {
        let mut ops = OpCounts::default();
        {
            let mut w = exec(&mut ops, 32);
            w.charge_global_read(24);
            w.charge_global_write(8);
        }
        assert_eq!(ops.global_read_bytes, 24 * 32);
        assert_eq!(ops.global_write_bytes, 8 * 32);
    }
}
