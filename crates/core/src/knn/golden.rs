//! Golden values for the device kernels.
//!
//! Every kernel runs on fixed, seeded inputs and is checked against values
//! recorded once from a known-good build: the operation counts it charges,
//! the simulated time they cost, and a digest of its complete output
//! (including the order of every output list, which later cleaning rounds
//! see as bucket layout). Host-side rewrites of a kernel's emulation must
//! leave all of them bit-identical; a change that moves any of them changes
//! a modeled number and must be deliberate.

use super::*;
use crate::xshuffle::{xshuffle_clean, xshuffle_merge, CleanOutput, WireMessage};
use gpu_sim::{DeviceSpec, KernelCtx};
use roadnet::EdgeId;
use std::sync::Arc;

/// xorshift64: a value stream owned by this test, independent of any
/// random-number crate.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn below(&mut self, n: u64) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x % n
    }
}

/// FNV-1a over a stream of words; the crate's golden tests digest their
/// outputs with it.
#[derive(Clone, Copy)]
pub(crate) struct Digest(pub(crate) u64);

impl Digest {
    pub(crate) fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn msg(&mut self, m: &CachedMessage) {
        self.word(m.object.0);
        self.word(m.time.0);
        match m.position {
            Some(p) => {
                self.word(p.edge.0 as u64);
                self.word(p.offset as u64);
            }
            None => self.word(u64::MAX),
        }
    }
}

/// Ops as one comparable tuple:
/// `(alu, shuffle, cross_warp_shuffle, syncs, read, write, atomics)`.
type Ops = (u64, u64, u64, u64, u64, u64, u64);

fn ops(o: &OpCounts) -> Ops {
    (
        o.alu,
        o.shuffle,
        o.cross_warp_shuffle,
        o.syncs,
        o.global_read_bytes,
        o.global_write_bytes,
        o.atomics,
    )
}

fn arb_wire(rng: &mut Rng, objects: u64, cells: u64) -> WireMessage {
    let o = rng.below(objects);
    let t = 100 + rng.below(2000);
    let cell = CellId(rng.below(cells) as u32);
    let msg = if rng.below(100) < 15 {
        CachedMessage::tombstone(ObjectId(o), Timestamp(t))
    } else {
        CachedMessage::update(
            ObjectId(o),
            EdgePosition::new(EdgeId((o % 13) as u32), (t % 7) as u32),
            Timestamp(t),
        )
    };
    WireMessage { msg, cell }
}

fn arb_buckets(rng: &mut Rng, n: usize, objects: u64, cells: u64) -> Vec<Vec<WireMessage>> {
    (0..n)
        .map(|_| {
            let len = rng.below(9);
            (0..len).map(|_| arb_wire(rng, objects, cells)).collect()
        })
        .collect()
}

/// `(max_duplicates_seen, objects_seen, live messages, digest)`; cells in
/// id order, each cell's list in output order.
fn clean_digest(out: &CleanOutput) -> (u32, usize, usize, u64) {
    let mut cells: Vec<&CellId> = out.per_cell.keys().collect();
    cells.sort_unstable();
    let mut d = Digest::new();
    let mut live = 0;
    for c in cells {
        let msgs = &out.per_cell[c];
        d.word(c.0 as u64);
        d.word(msgs.len() as u64);
        for m in msgs {
            d.msg(m);
        }
        live += msgs.len();
    }
    (out.max_duplicates_seen, out.objects_seen, live, d.0)
}

type KernelGolden = (Ops, u64, (u32, usize, usize, u64));

/// `(seed, η, horizon, buckets)` for the X-shuffle cleaning kernel. η = 6
/// runs 64-lane bundles, so its shuffles cross the 32-lane warp.
const CLEAN_CASES: [(u64, u32, u64, usize); 5] = [
    (1, 2, 0, 9),
    (2, 4, 600, 37),
    (3, 4, 0, 1),
    (4, 5, 0, 70),
    (5, 6, 900, 130),
];

const CLEAN_GOLDEN: [KernelGolden; 5] = [
    (
        (753, 152, 0, 0, 4640, 10464, 304),
        4301,
        (1, 23, 18, 0x3d2b042ca95c4cfd),
    ),
    (
        (9738, 1536, 0, 0, 16704, 26048, 768),
        4496,
        (2, 46, 38, 0x06cbaaad2ff1b68a),
    ),
    (
        (1203, 192, 0, 0, 1632, 3168, 96),
        4124,
        (1, 3, 3, 0x661eccb2b616797c),
    ),
    (
        (27792, 3840, 0, 0, 29184, 99840, 3072),
        5204,
        (2, 48, 44, 0x602de506ebdb7d24),
    ),
    (
        (59728, 6080, 1216, 19, 43520, 312832, 9728),
        6545,
        (3, 48, 40, 0x6ace04a6e725fdb1),
    ),
];

/// `(seed, η, horizon, resident objects, delta buckets)` for the fused
/// merge kernel; the zero-bucket case is the delta-only round whose delta
/// all expired on the host.
const MERGE_CASES: [(u64, u32, u64, u64, usize); 4] = [
    (11, 4, 0, 40, 20),
    (12, 5, 700, 90, 45),
    (13, 4, 400, 25, 0),
    (14, 6, 0, 120, 80),
];

const MERGE_GOLDEN: [KernelGolden; 4] = [
    (
        (6585, 1024, 0, 0, 13312, 18624, 512),
        4664,
        (2, 45, 43, 0x7a9a96892f6fbfc3),
    ),
    (
        (18821, 2560, 0, 0, 26688, 69568, 2048),
        4805,
        (2, 85, 78, 0xb6432870614d430c),
    ),
    (
        (66, 0, 0, 0, 1536, 960, 0),
        4018,
        (0, 15, 15, 0x91fae9da0a16a8f0),
    ),
    (
        (50737, 5120, 1024, 16, 47936, 269056, 8192),
        7146,
        (2, 129, 118, 0xba98be90b9c0498a),
    ),
];

#[test]
fn xshuffle_clean_matches_golden() {
    let mut got = Vec::new();
    for &(seed, eta, horizon, n) in &CLEAN_CASES {
        let mut rng = Rng::new(seed);
        let buckets = arb_buckets(&mut rng, n, 48, 9);
        let mut dev = Device::new(DeviceSpec::quadro_p2000());
        let (out, report) = dev.launch(buckets.len().max(1), |ctx| {
            xshuffle_clean(ctx, &buckets, eta, Timestamp(horizon))
        });
        got.push((ops(&report.ops), report.time.0, clean_digest(&out)));
    }
    assert_eq!(got, CLEAN_GOLDEN, "{got:#?}");
}

#[test]
fn xshuffle_merge_matches_golden() {
    let mut got = Vec::new();
    for &(seed, eta, horizon, objects, n) in &MERGE_CASES {
        let mut rng = Rng::new(seed);
        // Consolidated resident state: at most one message per object,
        // spread over a few cells, in shuffled order.
        let mut resident: Vec<WireMessage> = Vec::new();
        for o in 0..objects {
            if rng.below(4) == 0 {
                continue;
            }
            let t = Timestamp(100 + rng.below(1500));
            resident.push(WireMessage {
                msg: CachedMessage::update(
                    ObjectId(o),
                    EdgePosition::new(EdgeId((o % 11) as u32), (o % 5) as u32),
                    t,
                ),
                cell: CellId(rng.below(4) as u32),
            });
        }
        let len = resident.len();
        for i in 0..len {
            resident.swap(i, rng.below(len as u64) as usize);
        }
        let delta = arb_buckets(&mut rng, n, objects + 10, 4);
        let mut dev = Device::new(DeviceSpec::quadro_p2000());
        let (out, report) = dev.launch(n.max(resident.len()).max(1), |ctx| {
            xshuffle_merge(ctx, &resident, &delta, eta, Timestamp(horizon))
        });
        got.push((ops(&report.ops), report.time.0, clean_digest(&out)));
    }
    assert_eq!(got, MERGE_GOLDEN, "{got:#?}");
}

/// One query fixture on a synthetic city: the candidate set is the query
/// cell plus two rings, with objects on random edges of the whole graph.
struct Fixture {
    grid: GraphGrid,
    config: GGridConfig,
    q: EdgePosition,
    set: Vec<CellId>,
    in_set: Vec<bool>,
    objects: Vec<CachedMessage>,
}

fn fixture(seed: u64) -> Fixture {
    let graph = Arc::new(roadnet::gen::synthetic_grid(3000, seed));
    let config = GGridConfig::default();
    let grid = GraphGrid::build(graph.clone(), config.cell_capacity, config.vertex_capacity);
    let mut rng = Rng::new(seed);
    let q_edge = EdgeId(rng.below(graph.num_edges() as u64) as u32);
    let q = EdgePosition::new(q_edge, rng.below(graph.edge(q_edge).weight as u64) as u32);
    let mut cells = CellSet::new(grid.num_cells(), false);
    let c_q = grid.cell_of_edge(q.edge);
    let mut ring: Vec<CellId> = std::iter::once(c_q)
        .chain(grid.neighbors(c_q).iter().copied())
        .filter(|&c| cells.insert(c))
        .collect();
    for _ in 0..2 {
        ring = next_ring(&grid, &mut cells, &ring);
    }
    let set = cells.tagged().to_vec();
    let in_set = cells.tags().to_vec();
    let objects = (0..400u64)
        .map(|o| {
            let e = EdgeId(rng.below(graph.num_edges() as u64) as u32);
            let off = rng.below(graph.edge(e).weight as u64 + 1) as u32;
            CachedMessage::update(ObjectId(o), EdgePosition::new(e, off), Timestamp(1))
        })
        .collect();
    Fixture {
        grid,
        config,
        q,
        set,
        in_set,
        objects,
    }
}

/// `(rounds, frontier_sum, frontier_max, settled, vertices, pruned,
/// h2d_topo_bytes, topo_hits, topo_misses, h2d_coalesced_saved, time)`.
type SdistGolden = (u64, u64, u64, u64, u64, u64, u64, usize, usize, u64, u64);

fn sdist_fields(s: &SdistStats) -> SdistGolden {
    (
        s.rounds,
        s.frontier_sum,
        s.frontier_max,
        s.settled,
        s.vertices,
        s.pruned,
        s.h2d_topo_bytes,
        s.topo_hits,
        s.topo_misses,
        s.h2d_coalesced_saved,
        s.time.0,
    )
}

/// Per seed: the frontier kernel's relax-body ops and distance digest, its
/// stats on a cold and then a warm topology store (k = 8), then first-k's
/// time and digest, then unresolved's time and digest.
type KnnGolden = (Ops, u64, SdistGolden, SdistGolden, (u64, u64), (u64, u64));

const KNN_SEEDS: [u64; 3] = [21, 22, 23];

const KNN_GOLDEN: [KnnGolden; 3] = [
    (
        (2821, 0, 0, 42, 4020, 1344, 0),
        0x5a18d8afe19eecbc,
        (14, 53, 9, 53, 69, 4, 4532, 0, 23, 22, 14416),
        (14, 53, 9, 53, 69, 4, 0, 23, 0, 0, 4038),
        (6770, 0xd574e5d037a785dc),
        (4019, 0x2672a1a2b495fdbc),
    ),
    (
        (3182, 0, 0, 51, 4992, 1744, 0),
        0xa896220fed93c662,
        (17, 68, 10, 67, 68, 0, 4560, 0, 23, 22, 14428),
        (17, 68, 10, 67, 68, 0, 0, 23, 0, 0, 4048),
        (6770, 0x766953d56fb4f69b),
        (4019, 0xfe427d12c198338c),
    ),
    (
        (3547, 0, 0, 88, 4436, 1504, 0),
        0xc5f41a4019a50b0b,
        (22, 63, 10, 62, 97, 0, 6548, 0, 33, 32, 14588),
        (22, 63, 10, 62, 97, 0, 0, 33, 0, 0, 4042),
        (6770, 0x11134baaf3fdd6bc),
        (4027, 0xb678888a357ac5e2),
    ),
];

#[test]
fn knn_kernels_match_golden() {
    let k = 8;
    let mut got = Vec::new();
    for &seed in &KNN_SEEDS {
        let f = fixture(seed);
        let graph = f.grid.graph().clone();
        let mut dist = DijkstraScratch::with_capacity(graph.num_vertices());

        // The relax body on a detached context: its exact op counts.
        let prelude = FrontierPrelude::new(
            &f.grid, &f.config, &f.in_set, f.q, &graph, &f.objects, &mut dist,
        );
        let threads: usize = f
            .set
            .iter()
            .map(|&c| f.grid.topology(c).num_vertices())
            .sum();
        let mut ctx = KernelCtx::detached(32, threads);
        let mut stats = SdistStats::default();
        frontier_relax_body(
            &mut ctx,
            &f.grid,
            &f.in_set,
            &prelude,
            k,
            &mut dist,
            &mut stats,
            &mut |_, _| {},
        );
        let relax_ops = ops(ctx.ops());
        let mut touched: Vec<(VertexId, Distance)> = dist.entries().collect();
        touched.sort_unstable();
        let mut d = Digest::new();
        for (v, dv) in touched {
            d.word(v.0 as u64);
            d.word(dv);
        }
        let dist_digest = d.0;

        // The launched kernel, cold and then warm topology store.
        let device = Device::new(DeviceSpec::quadro_p2000());
        let mut shards = ShardSet::single(device, &f.config, f.grid.num_cells());
        let round = SdistRound {
            in_set: &f.in_set,
            set: &f.set,
            primary: 0,
            owners: None,
        };
        let mut run = |dist: &mut DijkstraScratch| {
            let c = &f.config;
            gpu_sdist_frontier(&mut shards, round, &f.grid, c, f.q, &f.objects, k, dist).0
        };
        let cold = sdist_fields(&run(&mut dist));
        let warm = sdist_fields(&run(&mut dist));
        let device = &mut shards.shard_mut(0).device;

        let (cands, t_first) = gpu_first_k(device, f.q, &dist, &f.objects, &graph);
        let mut d = Digest::new();
        for &(o, dv, p) in &cands {
            d.word(o.0);
            d.word(dv);
            d.word(p.edge.0 as u64);
            d.word(p.offset as u64);
        }
        let first = (t_first.0, d.0);

        let l = kth_distance(&cands, k);
        let (unres, t_unres) = gpu_unresolved(device, &f.grid, &f.in_set, &f.set, &dist, l);
        let mut d = Digest::new();
        for &(v, dv) in &unres {
            d.word(v.0 as u64);
            d.word(dv);
        }
        let unresolved = (t_unres.0, d.0);

        got.push((relax_ops, dist_digest, cold, warm, first, unresolved));
    }
    assert_eq!(got, KNN_GOLDEN, "{got:#?}");
}
