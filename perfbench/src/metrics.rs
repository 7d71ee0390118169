//! The metric catalogue and the helpers every workload reports through.
//!
//! Each metric names its clock, because three clocks run in this system
//! and a number on one of them says nothing about the others:
//!
//! * `measured` — real wall time (or a count of real events);
//! * `hybrid` — host wall time minus device emulation, plus the modeled
//!   device time (the paper's clock, `ScenarioReport::total_ns`);
//! * `modeled` — gpu-sim device time, the `ingest_model` constants and
//!   the serve-loop timeline, or a quantity the program computes rather
//!   than observes (index bytes).

use std::collections::BTreeMap;

/// Where a metric is reported.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    EndToEnd,
    Layer,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: &'static str,
    pub better: &'static str,
    pub kind: Kind,
    /// For a layer metric, the end-to-end metric it should move and on
    /// which workload; for an end-to-end metric, the workloads that
    /// exercise it most directly.
    pub moves: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    clock: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        clock,
        better,
        kind: Kind::EndToEnd,
        moves,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    clock: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        clock,
        better,
        kind: Kind::Layer,
        moves,
    }
}

const ALL_WORKLOADS: &str = "paper_mix, serve_open, sharded_hot";
const INGEST_MOVES: &str = "amortized_us on paper_mix (and ingest_mps)";
const CLEAN_MOVES: &str = "knn_p50_us, knn_p99_us on paper_mix";
const SDIST_MOVES: &str = "knn_p50_us on paper_mix and sharded_hot";
const REFINE_MOVES: &str = "knn_p99_us on paper_mix (and wall_qps)";
const DEVICE_MOVES: &str = "knn_p50_us on paper_mix (and wall_qps on every workload)";
const BATCH_MOVES: &str = "serve_p99_us on serve_open";
const SERVE_MOVES: &str = "serve_p50_us, serve_p99_us, slo_frac on serve_open";
const SHARD_MOVES: &str = "knn_p50_us, knn_p99_us on sharded_hot";

pub const CATALOGUE: &[Metric] = &[
    e2e("setup_s", "s", "measured", "lower", ALL_WORKLOADS),
    e2e(
        "knn_p50_us",
        "us",
        "hybrid",
        "lower",
        "paper_mix, sharded_hot",
    ),
    e2e(
        "knn_p99_us",
        "us",
        "hybrid",
        "lower",
        "paper_mix, sharded_hot",
    ),
    e2e(
        "amortized_us",
        "us",
        "hybrid",
        "lower",
        "paper_mix, sharded_hot",
    ),
    e2e("serve_p50_us", "us", "modeled", "lower", "serve_open"),
    e2e("serve_p99_us", "us", "modeled", "lower", "serve_open"),
    e2e("slo_frac", "frac", "modeled", "higher", "serve_open"),
    e2e("index_mb", "MB", "modeled", "lower", ALL_WORKLOADS),
    e2e("peak_rss_mb", "MB", "measured", "lower", ALL_WORKLOADS),
    // Measured throughputs. On a shared host their run-to-run spread
    // reaches the largest bound an end-to-end metric may have, so they are
    // reported without one.
    layer(
        "wall_qps",
        "q/s",
        "measured",
        "higher",
        "the measured counterpart of amortized_us on every workload",
    ),
    layer(
        "ingest_mps",
        "msg/s",
        "measured",
        "higher",
        "the measured counterpart of amortized_us on paper_mix",
    ),
    layer(
        "ingest.us_per_1k_msgs",
        "us",
        "measured",
        "lower",
        INGEST_MOVES,
    ),
    layer(
        "ingest.cell_locks_per_msg",
        "count",
        "measured",
        "lower",
        INGEST_MOVES,
    ),
    layer(
        "ingest.shard_locks_per_msg",
        "count",
        "measured",
        "lower",
        INGEST_MOVES,
    ),
    layer(
        "ingest.bucket_reuse_frac",
        "frac",
        "measured",
        "higher",
        INGEST_MOVES,
    ),
    layer(
        "ingest.modeled_ns_per_msg",
        "ns",
        "modeled",
        "lower",
        INGEST_MOVES,
    ),
    layer("cleaning.device_us", "us", "modeled", "lower", CLEAN_MOVES),
    layer(
        "cleaning.messages",
        "count",
        "measured",
        "lower",
        CLEAN_MOVES,
    ),
    layer(
        "cleaning.skip_frac",
        "frac",
        "measured",
        "higher",
        "knn_p50_us, knn_p99_us on paper_mix; knn_p50_us on sharded_hot",
    ),
    layer(
        "cleaning.resident_hit_frac",
        "frac",
        "measured",
        "higher",
        CLEAN_MOVES,
    ),
    layer(
        "cleaning.evictions",
        "count",
        "measured",
        "lower",
        CLEAN_MOVES,
    ),
    layer("cleaning.h2d_bytes", "B", "modeled", "lower", CLEAN_MOVES),
    layer("cleaning.d2h_bytes", "B", "modeled", "lower", CLEAN_MOVES),
    layer("sdist.device_us", "us", "modeled", "lower", SDIST_MOVES),
    layer("sdist.rounds", "count", "measured", "lower", SDIST_MOVES),
    layer(
        "sdist.frontier_sum",
        "count",
        "measured",
        "lower",
        SDIST_MOVES,
    ),
    layer(
        "sdist.settled_frac",
        "frac",
        "measured",
        "lower",
        SDIST_MOVES,
    ),
    layer(
        "sdist.pruned_frac",
        "frac",
        "measured",
        "higher",
        SDIST_MOVES,
    ),
    layer(
        "sdist.topo_hit_frac",
        "frac",
        "measured",
        "higher",
        SDIST_MOVES,
    ),
    layer("sdist.h2d_topo_bytes", "B", "modeled", "lower", SDIST_MOVES),
    layer(
        "sdist.candidates",
        "count",
        "measured",
        "lower",
        SDIST_MOVES,
    ),
    layer("refine.host_us", "us", "measured", "lower", REFINE_MOVES),
    layer(
        "refine.unresolved",
        "count",
        "measured",
        "lower",
        REFINE_MOVES,
    ),
    layer("refine.settled", "count", "measured", "lower", REFINE_MOVES),
    layer("refine.relaxed", "count", "measured", "lower", REFINE_MOVES),
    layer("knn.host_us", "us", "measured", "lower", REFINE_MOVES),
    layer(
        "knn.unattributed_us",
        "us",
        "measured",
        "lower",
        REFINE_MOVES,
    ),
    layer(
        "device.kernel_launches",
        "count",
        "measured",
        "lower",
        DEVICE_MOVES,
    ),
    layer("device.transfer_us", "us", "modeled", "lower", DEVICE_MOVES),
    layer(
        "device.emulation_us",
        "us",
        "measured",
        "lower",
        DEVICE_MOVES,
    ),
    layer(
        "device.emulation_frac",
        "frac",
        "measured",
        "lower",
        DEVICE_MOVES,
    ),
    layer(
        "batch.size_mean",
        "count",
        "measured",
        "higher",
        BATCH_MOVES,
    ),
    layer(
        "batch.shared_cells",
        "count",
        "measured",
        "higher",
        BATCH_MOVES,
    ),
    layer(
        "batch.pipelined_over_serial",
        "frac",
        "hybrid",
        "lower",
        BATCH_MOVES,
    ),
    layer(
        "batch.h2d_coalesced_saved",
        "count",
        "modeled",
        "higher",
        BATCH_MOVES,
    ),
    layer(
        "serve.queue_wait_p50_us",
        "us",
        "modeled",
        "lower",
        SERVE_MOVES,
    ),
    layer(
        "serve.queue_wait_p99_us",
        "us",
        "modeled",
        "lower",
        SERVE_MOVES,
    ),
    layer(
        "serve.batch_wait_p50_us",
        "us",
        "modeled",
        "lower",
        SERVE_MOVES,
    ),
    layer(
        "serve.batch_wait_p99_us",
        "us",
        "modeled",
        "lower",
        SERVE_MOVES,
    ),
    layer("serve.service_p50_us", "us", "hybrid", "lower", SERVE_MOVES),
    layer("serve.service_p99_us", "us", "hybrid", "lower", SERVE_MOVES),
    layer(
        "serve.deadline_close_frac",
        "frac",
        "modeled",
        "lower",
        SERVE_MOVES,
    ),
    layer(
        "serve.fill_close_frac",
        "frac",
        "modeled",
        "higher",
        SERVE_MOVES,
    ),
    layer("serve.shed", "count", "modeled", "lower", SERVE_MOVES),
    layer(
        "serve.queue_depth_max",
        "count",
        "modeled",
        "lower",
        SERVE_MOVES,
    ),
    layer(
        "serve.ingest_modeled_us",
        "us",
        "modeled",
        "lower",
        SERVE_MOVES,
    ),
    layer(
        "subs.modeled_us_per_epoch",
        "us",
        "hybrid",
        "lower",
        BATCH_MOVES,
    ),
    layer("subs.skip_frac", "frac", "measured", "higher", BATCH_MOVES),
    layer(
        "subs.delta_repair_frac",
        "frac",
        "measured",
        "higher",
        BATCH_MOVES,
    ),
    layer("shard.busy_skew", "ratio", "modeled", "lower", SHARD_MOVES),
    layer(
        "shard.cross_shard_rounds",
        "count",
        "measured",
        "lower",
        SHARD_MOVES,
    ),
    layer(
        "shard.ring_span_p99",
        "count",
        "measured",
        "lower",
        SHARD_MOVES,
    ),
    layer(
        "shard.replica_hits",
        "count",
        "measured",
        "higher",
        SHARD_MOVES,
    ),
    layer(
        "shard.replica_invalidations",
        "count",
        "measured",
        "lower",
        SHARD_MOVES,
    ),
    layer(
        "shard.replicas_active",
        "count",
        "measured",
        "lower",
        SHARD_MOVES,
    ),
    layer("shard.rebalance_us", "us", "measured", "lower", SHARD_MOVES),
    layer(
        "shard.cells_migrated",
        "count",
        "measured",
        "lower",
        SHARD_MOVES,
    ),
    layer(
        "setup.graph_s",
        "s",
        "measured",
        "lower",
        "setup_s on every workload",
    ),
    layer(
        "setup.grid_build_s",
        "s",
        "measured",
        "lower",
        "setup_s on every workload",
    ),
    layer(
        "setup.server_s",
        "s",
        "measured",
        "lower",
        "setup_s on every workload",
    ),
    layer(
        "setup.fleet_load_s",
        "s",
        "measured",
        "lower",
        "setup_s on every workload",
    ),
    layer(
        "trace.overhead_frac",
        "frac",
        "measured",
        "lower",
        "none: traced minus untraced wall time per query, over untraced",
    ),
    layer(
        "recon.failures",
        "count",
        "measured",
        "lower",
        "none: reconciliation checks that failed in the traced run",
    ),
];

pub fn lookup(name: &str) -> &'static Metric {
    CATALOGUE
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

/// Values of one run, by metric name, plus free-form notes (sample
/// counts, the percentile a tail metric fell back to).
#[derive(Default)]
pub struct Values {
    pub map: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
}

impl Values {
    pub fn set(&mut self, name: &'static str, v: f64) {
        lookup(name);
        self.map.insert(name, if v.is_finite() { v } else { 0.0 });
    }

    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Record a latency median and tail from raw per-request samples (ns),
    /// in µs, noting the sample count and the tail percentile used.
    pub fn latency(&mut self, p50: &'static str, p99: &'static str, samples_ns: &[u64]) {
        let mut s = samples_ns.to_vec();
        s.sort_unstable();
        let (tail, p) = tail_percentile(&s);
        self.set(p50, percentile(&s, 50.0) as f64 / 1e3);
        self.set(p99, tail as f64 / 1e3);
        self.note(format!("{p99}: p{p:.2} of n={}", s.len()));
    }
}

/// Nearest-rank percentile of sorted raw samples (0 when empty).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The p99 when at least ten samples lie beyond it; otherwise the highest
/// percentile that still has ten beyond it (the median when fewer than
/// twenty samples exist). Returns the value and the percentile used.
pub fn tail_percentile(sorted: &[u64]) -> (u64, f64) {
    let n = sorted.len();
    let p = if n >= 1000 {
        99.0
    } else if n >= 20 {
        100.0 * (1.0 - 10.0 / n as f64)
    } else {
        50.0
    };
    (percentile(sorted, p), p)
}

pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_uses_p99_only_with_ten_beyond() {
        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail_percentile(&s), (990, 99.0));
        let s: Vec<u64> = (1..=100).collect();
        let (v, p) = tail_percentile(&s);
        assert_eq!((v, p), (90, 90.0));
    }

    #[test]
    fn catalogue_names_are_unique() {
        let mut names: Vec<_> = CATALOGUE.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CATALOGUE.len());
    }
}
