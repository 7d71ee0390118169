//! The simulated device: kernels, transfers, memory, and the clock.

use crate::mem::{
    BufferId, BufferTable, BufferTag, DeviceMemory, OutOfDeviceMemory, ResidencyLedger,
};
use crate::ops::{CostModel, OpCounts};
use crate::spec::DeviceSpec;
use crate::time::SimNanos;
use crate::warp::WarpExecutor;
use crate::xfer::{transfer_time, TransferLedger};

/// Result of one kernel launch.
#[derive(Clone, Copy, Debug)]
pub struct LaunchReport {
    /// Simulated duration of the launch (overhead + max(compute, memory)).
    pub time: SimNanos,
    /// Threads launched.
    pub threads: usize,
    /// Operations executed across all threads.
    pub ops: OpCounts,
}

/// Execution context handed to a kernel body. All work performed by the
/// kernel must be charged here; the launch's simulated duration is derived
/// from these counters when the body returns.
pub struct KernelCtx {
    warp_size: usize,
    threads: usize,
    ops: OpCounts,
}

impl KernelCtx {
    /// A context not bound to any device, for *metering* a kernel body
    /// without charging a device's clock. Pair with [`Device::launch_ops`]
    /// to replay slices of the metered work on the devices that own them
    /// (the cross-shard scatter path).
    pub fn detached(warp_size: usize, threads: usize) -> Self {
        Self {
            warp_size: warp_size.max(1),
            threads: threads.max(1),
            ops: OpCounts::default(),
        }
    }

    pub fn threads(&self) -> usize {
        self.threads
    }

    pub fn warp_size(&self) -> usize {
        self.warp_size
    }

    /// Open a `width`-lane bundle executor (the paper's `2^η`-thread bundle).
    pub fn bundle(&mut self, width: usize) -> WarpExecutor<'_> {
        WarpExecutor::new(&mut self.ops, self.warp_size, width)
    }

    /// Charge `n` ALU ops executed by *every* thread of the launch.
    pub fn charge_alu_all(&mut self, n: u64) {
        self.ops.alu += n * self.threads as u64;
    }

    /// Charge `n` ALU ops executed by a single thread.
    pub fn charge_alu_one(&mut self, n: u64) {
        self.ops.alu += n;
    }

    /// Charge a global read of `bytes` performed by a single thread.
    pub fn charge_read(&mut self, bytes: u64) {
        self.ops.global_read_bytes += bytes;
    }

    /// Charge a global write of `bytes` performed by a single thread.
    pub fn charge_write(&mut self, bytes: u64) {
        self.ops.global_write_bytes += bytes;
    }

    /// Charge `n` global atomics.
    pub fn charge_atomics(&mut self, n: u64) {
        self.ops.atomics += n;
    }

    /// Block-wide barrier across all threads of the launch (Algorithm 5's
    /// `sync_threads`). Charged once per warp in flight.
    pub fn sync_threads(&mut self) {
        let warps = self.threads.div_ceil(self.warp_size) as u64;
        self.ops.syncs += warps;
    }

    /// Operations charged so far.
    pub fn ops(&self) -> &OpCounts {
        &self.ops
    }
}

/// A simulated GPU.
pub struct Device {
    spec: DeviceSpec,
    cost: CostModel,
    mem: DeviceMemory,
    buffers: BufferTable,
    ledger: TransferLedger,
    kernel_time: SimNanos,
    launches: u64,
}

impl Device {
    pub fn new(spec: DeviceSpec) -> Self {
        let mem = DeviceMemory::new(spec.global_mem_bytes);
        Self {
            spec,
            cost: CostModel::default(),
            mem,
            buffers: BufferTable::default(),
            ledger: TransferLedger::default(),
            kernel_time: SimNanos::ZERO,
            launches: 0,
        }
    }

    /// The paper's evaluation device.
    pub fn quadro_p2000() -> Self {
        Self::new(DeviceSpec::quadro_p2000())
    }

    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Reserve device memory for a resident structure.
    pub fn alloc(&mut self, bytes: u64) -> Result<(), OutOfDeviceMemory> {
        self.mem.alloc(bytes)
    }

    pub fn free(&mut self, bytes: u64) {
        self.mem.free(bytes)
    }

    pub fn memory(&self) -> &DeviceMemory {
        &self.mem
    }

    /// Allocate a handle-tracked device buffer (resident state that comes
    /// and goes, e.g. consolidated cell lists). Fails without reserving
    /// when the card is out of memory.
    pub fn alloc_buffer(&mut self, bytes: u64) -> Result<BufferId, OutOfDeviceMemory> {
        self.buffers.alloc(&mut self.mem, bytes)
    }

    /// [`Self::alloc_buffer`] with a subsystem tag, so instrumentation can
    /// split resident bytes (cell state vs topology).
    pub fn alloc_buffer_tagged(
        &mut self,
        bytes: u64,
        tag: BufferTag,
    ) -> Result<BufferId, OutOfDeviceMemory> {
        self.buffers.alloc_tagged(&mut self.mem, bytes, tag)
    }

    /// Bytes currently resident in handle-tracked buffers under `tag`.
    pub fn resident_bytes_tagged(&self, tag: BufferTag) -> u64 {
        self.buffers.bytes_of_tag(tag)
    }

    /// Free a handle-tracked buffer, returning the bytes released.
    pub fn free_buffer(&mut self, id: BufferId) -> u64 {
        self.buffers.free(&mut self.mem, id)
    }

    /// Size of a live handle-tracked buffer.
    pub fn buffer_bytes(&self, id: BufferId) -> Option<u64> {
        self.buffers.bytes_of(id)
    }

    /// Occupancy ledger of the handle-tracked (resident) buffers.
    pub fn residency(&self) -> &ResidencyLedger {
        self.buffers.ledger()
    }

    /// Copy `bytes` host→device; returns the simulated duration.
    pub fn h2d(&mut self, bytes: u64) -> SimNanos {
        let t = transfer_time(&self.spec, bytes);
        self.ledger.h2d_bytes += bytes;
        self.ledger.h2d_time += t;
        self.ledger.h2d_transfers += 1;
        t
    }

    /// Copy `segments` logical host-side segments totalling `bytes` in one
    /// coalesced host→device transfer: the fixed PCIe latency is paid once
    /// for the whole stage rather than once per segment. Zero segments cost
    /// nothing. Returns the simulated duration.
    pub fn h2d_staged(&mut self, segments: usize, bytes: u64) -> SimNanos {
        if segments == 0 {
            return SimNanos::ZERO;
        }
        let t = self.h2d(bytes);
        self.ledger.h2d_coalesced_saved += segments as u64 - 1;
        t
    }

    /// Copy `bytes` device→host; returns the simulated duration.
    pub fn d2h(&mut self, bytes: u64) -> SimNanos {
        let t = transfer_time(&self.spec, bytes);
        self.ledger.d2h_bytes += bytes;
        self.ledger.d2h_time += t;
        self.ledger.d2h_transfers += 1;
        t
    }

    /// Copy `segments` logical device-side segments totalling `bytes` back
    /// to the host in one coalesced device→host transfer: the fixed PCIe
    /// latency is paid once for the whole stage rather than once per
    /// segment. Zero segments cost nothing. Returns the simulated duration.
    pub fn d2h_staged(&mut self, segments: usize, bytes: u64) -> SimNanos {
        if segments == 0 {
            return SimNanos::ZERO;
        }
        let t = self.d2h(bytes);
        self.ledger.d2h_coalesced_saved += segments as u64 - 1;
        t
    }

    /// Launch a kernel of `threads` threads. The body runs on the host and
    /// must charge its work to the [`KernelCtx`]; the returned report holds
    /// the simulated duration.
    pub fn launch<R>(
        &mut self,
        threads: usize,
        body: impl FnOnce(&mut KernelCtx) -> R,
    ) -> (R, LaunchReport) {
        let mut ctx = KernelCtx {
            warp_size: self.spec.warp_size as usize,
            threads: threads.max(1),
            ops: OpCounts::default(),
        };
        let result = body(&mut ctx);
        let time = self.cost.launch_time(&self.spec, ctx.threads, &ctx.ops);
        self.kernel_time += time;
        self.launches += 1;
        (
            result,
            LaunchReport {
                time,
                threads: ctx.threads,
                ops: ctx.ops,
            },
        )
    }

    /// Charge a pre-metered operation profile as one kernel launch of
    /// `threads` threads. This is the replay half of the scatter path: the
    /// body runs once against a [`KernelCtx::detached`] context while the
    /// caller tallies per-owner op slices, then each owner's slice is
    /// launched here on its own device — same total work, attributed to the
    /// devices that own the data it touched.
    pub fn launch_ops(&mut self, threads: usize, ops: OpCounts) -> LaunchReport {
        let threads = threads.max(1);
        let time = self.cost.launch_time(&self.spec, threads, &ops);
        self.kernel_time += time;
        self.launches += 1;
        LaunchReport { time, threads, ops }
    }

    /// Transfer ledger since the last [`Self::reset_counters`].
    pub fn ledger(&self) -> &TransferLedger {
        &self.ledger
    }

    /// Total simulated kernel time since the last reset.
    pub fn kernel_time(&self) -> SimNanos {
        self.kernel_time
    }

    pub fn launches(&self) -> u64 {
        self.launches
    }

    /// Clear the ledger and kernel-time accumulators (memory reservations
    /// are left alone — resident indexes stay resident).
    pub fn reset_counters(&mut self) {
        self.ledger = TransferLedger::default();
        self.kernel_time = SimNanos::ZERO;
        self.launches = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_reports_ops_and_time() {
        let mut dev = Device::new(DeviceSpec::test_tiny());
        let (sum, report) = dev.launch(64, |ctx| {
            ctx.charge_alu_all(10);
            (0..64u64).sum::<u64>()
        });
        assert_eq!(sum, 2016);
        assert_eq!(report.ops.alu, 640);
        assert!(report.time >= SimNanos(dev.spec().launch_overhead_ns));
        assert_eq!(dev.launches(), 1);
    }

    #[test]
    fn kernel_time_accumulates_and_resets() {
        let mut dev = Device::new(DeviceSpec::test_tiny());
        dev.launch(1, |_| ());
        dev.launch(1, |_| ());
        assert!(dev.kernel_time() > SimNanos::ZERO);
        dev.reset_counters();
        assert_eq!(dev.kernel_time(), SimNanos::ZERO);
        assert_eq!(dev.launches(), 0);
    }

    #[test]
    fn transfers_metered() {
        let mut dev = Device::new(DeviceSpec::test_tiny());
        dev.h2d(1000);
        dev.h2d(500);
        dev.d2h(200);
        let l = dev.ledger();
        assert_eq!(l.h2d_bytes, 1500);
        assert_eq!(l.d2h_bytes, 200);
        assert_eq!(l.h2d_transfers, 2);
        assert!(l.h2d_time > l.d2h_time);
    }

    #[test]
    fn staged_transfer_pays_latency_once() {
        let mut dev = Device::new(DeviceSpec::test_tiny());
        let latency = dev.spec().pcie_latency_ns;
        let staged = dev.h2d_staged(4, 4000);
        let mut per_seg = Device::new(DeviceSpec::test_tiny());
        let split: SimNanos = (0..4).map(|_| per_seg.h2d(1000)).sum();
        // Same bytes, but three fewer latency charges.
        assert_eq!(split - staged, SimNanos(3 * latency));
        let l = dev.ledger();
        assert_eq!(l.h2d_bytes, 4000);
        assert_eq!(l.h2d_transfers, 1);
        assert_eq!(l.h2d_coalesced_saved, 3);
    }

    #[test]
    fn staged_transfer_empty_is_free() {
        let mut dev = Device::new(DeviceSpec::test_tiny());
        assert_eq!(dev.h2d_staged(0, 0), SimNanos::ZERO);
        assert_eq!(dev.ledger().h2d_transfers, 0);
        assert_eq!(dev.ledger().h2d_coalesced_saved, 0);
    }

    #[test]
    fn staged_single_segment_matches_plain_h2d() {
        let mut a = Device::new(DeviceSpec::test_tiny());
        let mut b = Device::new(DeviceSpec::test_tiny());
        assert_eq!(a.h2d_staged(1, 777), b.h2d(777));
        assert_eq!(a.ledger().h2d_coalesced_saved, 0);
    }

    #[test]
    fn staged_copy_back_pays_latency_once() {
        let mut dev = Device::new(DeviceSpec::test_tiny());
        let latency = dev.spec().pcie_latency_ns;
        let staged = dev.d2h_staged(3, 3000);
        let mut per_seg = Device::new(DeviceSpec::test_tiny());
        let split: SimNanos = (0..3).map(|_| per_seg.d2h(1000)).sum();
        // Same bytes, two fewer latency charges.
        assert_eq!(split - staged, SimNanos(2 * latency));
        let l = dev.ledger();
        assert_eq!(l.d2h_bytes, per_seg.ledger().d2h_bytes);
        assert_eq!((l.d2h_transfers, per_seg.ledger().d2h_transfers), (1, 3));
        assert_eq!(l.d2h_coalesced_saved, 2);
        assert_eq!(l.h2d_coalesced_saved, 0);
        // Zero segments ship nothing; one is a plain copy.
        assert_eq!(dev.d2h_staged(0, 0), SimNanos::ZERO);
        let mut one = Device::new(DeviceSpec::test_tiny());
        assert_eq!(one.d2h_staged(1, 777), per_seg.d2h(777));
        assert_eq!(dev.ledger().d2h_transfers, 1);
        assert_eq!(one.ledger().d2h_coalesced_saved, 0);
    }

    #[test]
    fn memory_capacity_enforced() {
        let mut dev = Device::new(DeviceSpec::test_tiny()); // 1 MB
        dev.alloc(1024 * 1024).unwrap();
        assert!(dev.alloc(1).is_err());
        dev.free(1024 * 1024);
        assert!(dev.alloc(1).is_ok());
    }

    #[test]
    fn buffers_share_capacity_with_raw_allocs() {
        let mut dev = Device::new(DeviceSpec::test_tiny()); // 1 MB
        dev.alloc(512 * 1024).unwrap();
        let b = dev.alloc_buffer(256 * 1024).unwrap();
        assert_eq!(dev.memory().in_use(), 768 * 1024);
        assert!(dev.alloc_buffer(512 * 1024).is_err());
        assert_eq!(dev.residency().live_buffers, 1);
        assert_eq!(dev.free_buffer(b), 256 * 1024);
        assert_eq!(dev.residency().resident_bytes, 0);
        assert_eq!(dev.memory().in_use(), 512 * 1024);
    }

    #[test]
    fn sync_threads_charges_per_warp() {
        let mut dev = Device::new(DeviceSpec::test_tiny());
        let (_, report) = dev.launch(96, |ctx| ctx.sync_threads());
        assert_eq!(report.ops.syncs, 3); // 96 threads = 3 warps
    }

    #[test]
    fn bundle_inside_kernel() {
        let mut dev = Device::new(DeviceSpec::test_tiny());
        let (out, report) = dev.launch(32, |ctx| {
            let mut w = ctx.bundle(4);
            let lanes = crate::warp::Lanes::from_fn(4, |i| i as u32);
            w.shuffle_xor(&lanes, 1).into_vec()
        });
        assert_eq!(out, vec![1, 0, 3, 2]);
        assert_eq!(report.ops.shuffle, 4);
    }

    #[test]
    fn metered_replay_matches_direct_launch() {
        // Metering with a detached ctx and replaying via launch_ops must
        // charge the same time as running the body through launch().
        let mut direct = Device::new(DeviceSpec::test_tiny());
        let (_, report) = direct.launch(64, |ctx| {
            ctx.charge_alu_all(10);
            ctx.charge_read(4096);
            ctx.sync_threads();
        });
        let mut meter = KernelCtx::detached(DeviceSpec::test_tiny().warp_size as usize, 64);
        meter.charge_alu_all(10);
        meter.charge_read(4096);
        meter.sync_threads();
        let mut replay = Device::new(DeviceSpec::test_tiny());
        let replayed = replay.launch_ops(64, *meter.ops());
        assert_eq!(replayed.time, report.time);
        assert_eq!(replayed.ops, report.ops);
        assert_eq!(replay.launches(), 1);
        assert_eq!(replay.kernel_time(), direct.kernel_time());
    }

    #[test]
    fn zero_thread_launch_clamped() {
        let mut dev = Device::new(DeviceSpec::test_tiny());
        let (_, report) = dev.launch(0, |_| ());
        assert_eq!(report.threads, 1);
    }
}
