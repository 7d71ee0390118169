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
