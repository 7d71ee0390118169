//! One module per table/figure of the paper's evaluation (§VII).

pub mod ablation;
pub mod capacity;
pub mod concurrency;
pub mod fig10_scalability;
pub mod fig4_tuning;
pub mod fig5_datasets;
pub mod fig6_index_size;
pub mod fig7_vary_k;
pub mod fig8_vary_objects;
pub mod fig9_vary_freq;
pub mod ingest;
pub mod multidevice;
pub mod residency;
pub mod serving;
pub mod sharding;
pub mod sharding2;
pub mod skew;
pub mod subscriptions;
pub mod table2_datasets;

use std::path::PathBuf;

use ggrid::GGridConfig;
use roadnet::gen::Dataset;
use workload::moto::MotoConfig;
use workload::scenario::ScenarioConfig;

use crate::runner::IndexParams;

/// Every enforced floor of the `BENCH_N` experiments as `(bench, expr)`,
/// checked by each experiment's test on its report
/// ([`crate::report::check_floors`] gives the expression syntax).
pub const FLOORS: &[(&str, &str)] = &[
    // BENCH_2: residency saves bus traffic and time; the tight budget churns.
    ("residency", "h2d_saved_pct >= 30"),
    ("residency", "sim_time_saved_pct > 0"),
    ("residency", "tight.evictions > 0"),
    // BENCH_4: the group commit cuts lock traffic and modeled ingest time;
    // the batched row really batches and recycles slabs, per-call does not.
    ("ingest", "cell_lock_reduction_x >= 2"),
    ("ingest", "modeled_saved_pct >= 30"),
    ("ingest", "batched.batches > 0"),
    ("ingest", "batched.batched_updates = updates"),
    ("ingest", "batched.bucket_reuses > 0"),
    ("ingest", "per_call.batches = 0"),
    // BENCH_6: guard regions avoid re-evaluations and beat re-querying;
    // the delta path repairs somewhere and hot-window movement skips.
    ("subscriptions", "avoided_pct >= 60"),
    ("subscriptions", "speedup_vs_requery >= 3"),
    (
        "subscriptions",
        "avoided_pct < 100 | rows.repaired_delta > 0",
    ),
    ("subscriptions", "rows[variant=hot-window].skipped > 0"),
    // BENCH_7: uniform scale-out and hotspot rebalancing; the static
    // hotspot partition is skewed and the rebalancer migrates.
    ("sharding", "efficiency_d4_uniform >= 0.60"),
    ("sharding", "rebalance_recovery_hotspot >= 0.25"),
    (
        "sharding",
        "rows[variant=hotspot,devices=4,rebalance=false].max_busy_share > 0.5",
    ),
    (
        "sharding",
        "rows[variant=hotspot,devices=4,rebalance=true].cells_migrated > 0",
    ),
    // BENCH_8: buffered ingest on the hot window; the capacity point is a
    // real measurement, and all HW_ROUNDS × HW_FLEET = 3000 hot-window
    // messages went through the buffers.
    ("capacity", "hot_window.ingest_speedup_x >= 2"),
    ("capacity", "hot_window.cell_lock_reduction_x >= 5"),
    ("capacity", "points.index_bytes > 0"),
    ("capacity", "points.query_ns > 0"),
    ("capacity", "points.updates_per_sec_modeled > 0"),
    ("capacity", "hot_window.buffered.ingest_flushes > 0"),
    ("capacity", "hot_window.buffered.buffered_messages >= 3000"),
    // BENCH_9: deadline batching wins at saturation and meets the SLO
    // fill-only batching misses; every point is a real measurement.
    ("serving", "floors.adaptive_saturation_speedup_x >= 1.5"),
    ("serving", "floors.adaptive_slo_attainment >= 0.9"),
    ("serving", "floors.fixed_slo_attainment < 0.5"),
    ("serving", "points.p99_modeled_ns > 0"),
    ("serving", "points.throughput_qps_modeled > 0"),
    // BENCH_10: cooperative SDist cuts the wide-ring critical path and
    // replication recovers read-hot skew; both paths actually fired.
    ("sharding2", "cross_shard_critical_cut >= 0.20"),
    ("sharding2", "replication_skew_recovery >= 0.30"),
    (
        "sharding2",
        "rows[variant=widering,arm=coop,devices=4].cross_shard_rounds > 0",
    ),
    (
        "sharding2",
        "rows[variant=readhot,arm=coop_repl,devices=4].replica_hits > 0",
    ),
    (
        "sharding2",
        "rows[variant=readhot,arm=coop_repl,devices=4].replica_invalidations > 0",
    ),
];

/// Check `report` against its bench's entries of [`FLOORS`].
#[cfg(test)]
fn check_floors(report: &crate::report::Report) {
    crate::report::check_floors(report, FLOORS);
}

/// Shared experiment configuration.
#[derive(Clone, Debug)]
pub struct ExpConfig {
    /// Scale-down divisor applied to the real datasets' vertex counts.
    pub scale: u32,
    /// Number of moving objects |𝒪| (paper default 10⁴).
    pub objects: usize,
    /// Queries per measurement (paper reports averages over a stream).
    pub queries: usize,
    /// Update frequency f in updates per second (paper default 1).
    pub f_per_sec: f64,
    /// Where CSVs are written.
    pub out_dir: PathBuf,
    /// Quick mode: fewer datasets, smaller fleets.
    pub quick: bool,
    pub seed: u64,
}

impl Default for ExpConfig {
    fn default() -> Self {
        Self {
            scale: 500,
            objects: 10_000,
            queries: 10,
            f_per_sec: 1.0,
            out_dir: PathBuf::from("results"),
            quick: false,
            seed: 20180416, // ICDE 2018 week
        }
    }
}

impl ExpConfig {
    pub fn quick() -> Self {
        Self {
            scale: 1500,
            objects: 2_000,
            queries: 5,
            quick: true,
            ..Default::default()
        }
    }

    /// Datasets to sweep: three in quick mode, all six otherwise.
    pub fn datasets(&self) -> Vec<Dataset> {
        if self.quick {
            vec![Dataset::NY, Dataset::FLA, Dataset::USA]
        } else {
            Dataset::ALL.to_vec()
        }
    }

    /// The paper's default update period in ms (`1000 / f`).
    pub fn update_period_ms(&self) -> u64 {
        ((1000.0 / self.f_per_sec).round() as u64).max(1)
    }

    /// Default index parameters (paper §VII-C1 tuning).
    pub fn index_params(&self) -> IndexParams {
        IndexParams {
            ggrid: GGridConfig::default(),
            leaf_capacity: 64,
            t_delta_ms: (4 * self.update_period_ms()).max(4_000),
        }
    }

    /// Default scenario: k = 16, |𝒪| objects at frequency f, queries at a
    /// fixed interval.
    pub fn scenario(&self) -> ScenarioConfig {
        let period = self.update_period_ms();
        ScenarioConfig {
            moto: MotoConfig {
                num_objects: self.objects,
                update_period_ms: period,
                seed: self.seed,
                ..Default::default()
            },
            k: 16,
            query_interval_ms: 1000,
            num_queries: self.queries,
            warmup_ms: period + 100,
            query_seed: self.seed ^ 0xABCD,
            buffered_ingest: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_is_smaller() {
        let q = ExpConfig::quick();
        let f = ExpConfig::default();
        assert!(q.objects < f.objects);
        assert!(q.datasets().len() < f.datasets().len());
    }

    #[test]
    fn update_period_from_frequency() {
        let mut c = ExpConfig::default();
        assert_eq!(c.update_period_ms(), 1000);
        c.f_per_sec = 4.0;
        assert_eq!(c.update_period_ms(), 250);
        c.f_per_sec = 0.25;
        assert_eq!(c.update_period_ms(), 4000);
    }

    #[test]
    fn t_delta_covers_period() {
        let c = ExpConfig {
            f_per_sec: 0.1,
            ..Default::default()
        };
        let p = c.index_params();
        assert!(p.t_delta_ms >= c.update_period_ms());
    }
}
