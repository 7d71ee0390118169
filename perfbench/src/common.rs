//! Pieces every workload shares: set-up timing, counter deltas, the
//! per-layer metrics derived from them, and the correctness oracle.

use std::sync::Arc;

use ggrid::grid::GraphGrid;
use ggrid::stats::ServerCounters;
use ggrid::{GGridConfig, GGridServer, MovingObjectIndex, ObjectId, SimCosts, Timestamp};
use roadnet::{Distance, EdgePosition, Graph};

use crate::metrics::{ratio, Values};

/// CPU seconds of each set-up step (see [`cpu_s`]), scaled by the
/// reference task once the set-up is done (see [`reference_cpu_s`]).
#[derive(Clone, Copy, Default)]
pub struct SetupTimes {
    pub graph_s: f64,
    pub grid_s: f64,
    pub server_s: f64,
    pub fleet_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.graph_s + self.grid_s + self.server_s + self.fleet_s
    }

    pub fn scaled(&self, f: f64) -> SetupTimes {
        SetupTimes {
            graph_s: self.graph_s * f,
            grid_s: self.grid_s * f,
            server_s: self.server_s * f,
            fleet_s: self.fleet_s * f,
        }
    }
}

/// CPU seconds this process has run so far, all threads together
/// (`CLOCK_PROCESS_CPUTIME_ID`). Set-up is timed on this clock: on a
/// shared host the wall clock also counts the time other tenants hold the
/// cores, and that moved the median wall set-up of the same code by more
/// than a quarter between two sets of runs. Work moved into set-up, on any
/// thread, still shows.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub fn cpu_s() -> f64 {
    const SYS_CLOCK_GETTIME: i64 = 228;
    const CLOCK_PROCESS_CPUTIME_ID: i64 = 2;
    // struct timespec { tv_sec: i64, tv_nsec: i64 }
    let mut ts = [0i64; 2];
    let ret: i64;
    // SAFETY: clock_gettime writes one timespec to the buffer passed in
    // rsi and touches no other memory; the syscall instruction clobbers
    // only rcx and r11.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_CLOCK_GETTIME => ret,
            in("rdi") CLOCK_PROCESS_CPUTIME_ID,
            in("rsi") ts.as_mut_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    assert_eq!(ret, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts[0] as f64 + ts[1] as f64 * 1e-9
}

/// Elsewhere the process clock is not read; wall seconds since the first
/// call stand in.
#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
pub fn cpu_s() -> f64 {
    use std::time::Instant;
    static ORIGIN: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// The reference task's CPU seconds on the host `setup_s` is scaled to
/// (about its time on a quiet 2-vCPU Xeon, Sapphire Rapids, KVM guest).
pub const REFERENCE_NOMINAL_S: f64 = 0.15;

/// CPU seconds of a fixed task of the benchmark's own, which no change to
/// the library can speed up or slow down: fill 32 MiB with xorshift words,
/// gather from random slots, and sort. On a shared host the CPU seconds of
/// the same set-up drift by up to 70% within a minute, as other tenants
/// come and go on the caches and memory bus; this task drifts with it (the
/// ratio of the two moved about a tenth over the same spells). `setup_s` is
/// therefore the set-up's CPU time scaled by `REFERENCE_NOMINAL_S` over
/// this task's time, taken right before and right after the set-up.
pub fn reference_cpu_s() -> f64 {
    let t0 = cpu_s();
    let n = 1usize << 22;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut v: Vec<u64> = (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    let mut acc = 0u64;
    for i in 0..n {
        acc = acc.wrapping_add(v[(v[i] as usize) & (n - 1)]);
    }
    v.sort_unstable();
    std::hint::black_box(acc ^ v[n / 2]);
    cpu_s() - t0
}

/// Generate the network, partition it into the grid and construct the
/// server, timing each step. The caller times the fleet load.
pub fn build_server(
    make_graph: impl FnOnce() -> Graph,
    config: GGridConfig,
) -> (GGridServer, SetupTimes) {
    let t0 = cpu_s();
    let graph = Arc::new(make_graph());
    let t1 = cpu_s();
    let grid = Arc::new(GraphGrid::build(
        graph,
        config.cell_capacity,
        config.vertex_capacity,
    ));
    let t2 = cpu_s();
    let server = GGridServer::with_shared_grid(grid, config, gpu_sim::Device::quadro_p2000());
    let t3 = cpu_s();
    let times = SetupTimes {
        graph_s: t1 - t0,
        grid_s: t2 - t1,
        server_s: t3 - t2,
        fleet_s: 0.0,
    };
    (server, times)
}

/// The server's counters and device costs at one instant.
#[derive(Clone, Copy)]
pub struct Snap {
    pub c: ServerCounters,
    pub sim: SimCosts,
}

/// The two cheap clock readings a per-call hybrid time needs (the full
/// [`snap`] walks every cell list and is taken only around a phase).
pub fn clocks(server: &GGridServer) -> Clocks {
    Clocks {
        sim: server.sim_costs(),
        emu: server.emulated_host_ns(),
    }
}

#[derive(Clone, Copy)]
pub struct Clocks {
    pub sim: SimCosts,
    pub emu: u64,
}

impl Clocks {
    /// Hybrid nanoseconds of a call that took `wall_ns` between `self` and
    /// `later`: wall minus emulation, plus modeled device time.
    pub fn hybrid(&self, later: &Clocks, wall_ns: u64) -> u64 {
        wall_ns.saturating_sub(later.emu - self.emu) + later.sim.since(&self.sim).total_time().0
    }
}

pub fn snap(server: &GGridServer) -> Snap {
    Snap {
        c: server.counters(),
        sim: server.sim_costs(),
    }
}

/// Per-layer metrics every workload derives the same way: deltas of
/// `counters()` and `sim_costs()` between `a` and `b`, per answered
/// query (`queries`), over a measured phase of `wall_ns`.
pub fn counter_layers(v: &mut Values, a: &Snap, b: &Snap, queries: u64, wall_ns: u64) {
    let (a, b, sa, sb) = (&a.c, &b.c, &a.sim, &b.sim);
    let q = queries.max(1) as f64;
    let d = |x: u64, y: u64| y.saturating_sub(x) as f64;
    let per_q = |x: u64, y: u64| d(x, y) / q;

    let msgs = d(a.updates_ingested, b.updates_ingested);
    v.set(
        "ingest.cell_locks_per_msg",
        ratio(d(a.ingest_cell_locks, b.ingest_cell_locks), msgs),
    );
    v.set(
        "ingest.shard_locks_per_msg",
        ratio(d(a.ingest_shard_locks, b.ingest_shard_locks), msgs),
    );
    let reuses = d(a.bucket_reuses, b.bucket_reuses);
    v.set(
        "ingest.bucket_reuse_frac",
        ratio(reuses, reuses + d(a.bucket_allocs, b.bucket_allocs)),
    );
    v.set(
        "ingest.modeled_ns_per_msg",
        ratio(d(a.modeled_ingest_ns(), b.modeled_ingest_ns()), msgs),
    );

    // Device time outside SDist: the cleaning kernels and their
    // transfers, plus candidate selection and the result copy-back.
    let gpu = d(a.gpu_time.0, b.gpu_time.0);
    let sdist = d(a.sdist_time.0, b.sdist_time.0);
    v.set("cleaning.device_us", (gpu - sdist).max(0.0) / q / 1e3);
    v.set(
        "cleaning.messages",
        per_q(a.messages_cleaned, b.messages_cleaned),
    );
    let hits = d(a.clean_skip_hits, b.clean_skip_hits);
    let misses = d(a.clean_skip_misses, b.clean_skip_misses);
    v.set("cleaning.skip_frac", ratio(hits, hits + misses));
    v.set(
        "cleaning.resident_hit_frac",
        ratio(d(a.resident_hits, b.resident_hits), misses),
    );
    v.set("cleaning.evictions", per_q(a.evictions, b.evictions));
    v.set(
        "cleaning.h2d_bytes",
        (d(a.h2d_delta_bytes, b.h2d_delta_bytes) + d(a.h2d_full_bytes, b.h2d_full_bytes)) / q,
    );
    v.set("cleaning.d2h_bytes", per_q(a.d2h_bytes, b.d2h_bytes));

    v.set("sdist.device_us", sdist / q / 1e3);
    v.set("sdist.rounds", per_q(a.sdist_rounds, b.sdist_rounds));
    v.set(
        "sdist.frontier_sum",
        per_q(a.sdist_frontier_sum, b.sdist_frontier_sum),
    );
    let vertices = d(a.sdist_vertices, b.sdist_vertices);
    v.set(
        "sdist.settled_frac",
        ratio(d(a.sdist_settled, b.sdist_settled), vertices),
    );
    v.set(
        "sdist.pruned_frac",
        ratio(d(a.sdist_pruned, b.sdist_pruned), vertices),
    );
    let topo_hits = d(a.topo_hits, b.topo_hits);
    v.set(
        "sdist.topo_hit_frac",
        ratio(topo_hits, topo_hits + d(a.topo_misses, b.topo_misses)),
    );
    v.set(
        "sdist.h2d_topo_bytes",
        per_q(a.h2d_topo_bytes, b.h2d_topo_bytes),
    );

    v.set("refine.host_us", per_q(a.refine_ns, b.refine_ns) / 1e3);
    v.set("refine.settled", per_q(a.refine_settled, b.refine_settled));
    v.set("refine.relaxed", per_q(a.refine_relaxed, b.refine_relaxed));

    let emu = d(a.emulation_ns, b.emulation_ns);
    v.set(
        "device.kernel_launches",
        per_q(a.kernel_launches, b.kernel_launches),
    );
    v.set(
        "device.transfer_us",
        d(sa.transfer_time.0, sb.transfer_time.0) / q / 1e3,
    );
    v.set("device.emulation_us", emu / q / 1e3);
    v.set("device.emulation_frac", ratio(emu, wall_ns as f64));

    v.set(
        "batch.h2d_coalesced_saved",
        per_q(a.h2d_coalesced_saved, b.h2d_coalesced_saved),
    );

    let skipped = d(a.subs_skipped, b.subs_skipped);
    let invalidated = d(a.subs_invalidated, b.subs_invalidated);
    let ticks = d(a.subs_ticks, b.subs_ticks);
    v.set(
        "subs.modeled_us_per_epoch",
        ratio(d(a.subs_modeled_ns(), b.subs_modeled_ns()), ticks) / 1e3,
    );
    v.set("subs.skip_frac", ratio(skipped, skipped + invalidated));
    v.set(
        "subs.delta_repair_frac",
        ratio(d(a.subs_repaired_delta, b.subs_repaired_delta), invalidated),
    );

    let busy: Vec<f64> = a
        .shard_busy_ns
        .iter()
        .zip(&b.shard_busy_ns)
        .map(|(&x, &y)| d(x, y))
        .filter(|&x| x > 0.0)
        .collect();
    let max = busy.iter().cloned().fold(0.0, f64::max);
    let mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
    v.set("shard.busy_skew", ratio(max, mean));
    v.set(
        "shard.cross_shard_rounds",
        per_q(a.cross_shard_rounds, b.cross_shard_rounds),
    );
    v.set("shard.replica_hits", per_q(a.replica_hits, b.replica_hits));
    v.set(
        "shard.replica_invalidations",
        d(a.replica_invalidations, b.replica_invalidations),
    );
    v.set("shard.replicas_active", b.replicas_active as f64);
    v.set(
        "shard.cells_migrated",
        d(a.cells_migrated, b.cells_migrated),
    );
}

/// Latest reported position per object: the ground truth an exact
/// snapshot index must answer from.
pub struct Reported {
    positions: Vec<Option<(EdgePosition, Timestamp)>>,
}

impl Reported {
    pub fn new(objects: usize) -> Self {
        Self {
            positions: vec![None; objects],
        }
    }

    pub fn apply(&mut self, updates: &[(ObjectId, EdgePosition, Timestamp)]) {
        for &(o, p, t) in updates {
            self.positions[o.0 as usize] = Some((p, t));
        }
    }

    /// Objects whose latest report is still fresh at `now`.
    pub fn live(&self, now: Timestamp, t_delta_ms: u64) -> Vec<(u64, EdgePosition)> {
        let horizon = now.saturating_sub_ms(t_delta_ms);
        self.positions
            .iter()
            .enumerate()
            .filter_map(|(o, e)| match e {
                Some((p, t)) if *t >= horizon => Some((o as u64, *p)),
                _ => None,
            })
            .collect()
    }
}

/// One answer held back for the oracle, with the fleet it must match.
pub struct Sample {
    pub q: EdgePosition,
    pub k: usize,
    pub live: Vec<(u64, EdgePosition)>,
    pub answer: Vec<(ObjectId, Distance)>,
}

/// Compare each sampled answer with `reference_knn` over the reported
/// positions; returns the number of mismatches.
pub fn oracle(graph: &Graph, samples: &[Sample]) -> u64 {
    samples
        .iter()
        .filter(|s| {
            let want: Vec<(ObjectId, Distance)> =
                roadnet::dijkstra::reference_knn(graph, s.q, &s.live, s.k)
                    .into_iter()
                    .map(|(o, d)| (ObjectId(o), d))
                    .collect();
            if want != s.answer {
                eprintln!(
                    "oracle mismatch at {:?} k={}: got {:?}, want {:?}",
                    s.q, s.k, s.answer, want
                );
                true
            } else {
                false
            }
        })
        .count() as u64
}
