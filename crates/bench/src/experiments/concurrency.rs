//! Extension study (beyond the paper): the concurrent query engine.
//!
//! Sweeps the host worker count (`host_workers`, the width of refinement
//! and ingest) on the NY-shaped dataset and reports the amortised query time next to the engine's own
//! instrumentation: the clean-skip hit rate (cells served from the host
//! cache instead of a kernel launch) and the average refinement concurrency
//! (summed worker-busy time over refinement wall time).
//!
//! Answers are identical across every row — the sweep isolates *where time
//! goes*, not what is computed.
//!
//! The "Refine speedup" column is the modeled parallel speedup (summed
//! worker-busy time over the busiest worker's time): it is host-core
//! independent, so the worker sweep stays meaningful on single-core CI
//! machines where wall time cannot shrink.
//!
//! After the stream, each row replays a fixed 24-query batch through
//! `knn_batch` and reports its makespan with host refinement overlapping
//! device work ("Batch pipelined") next to the same operations back to
//! back ("Batch serial"). "Host cores" tells which regime the measured
//! clocks ran in.

use ggrid::prelude::*;
use roadnet::EdgeId;
use workload::scenario::run_scenario;

use crate::csvout::{fmt_ns, ResultTable};
use crate::datasets::{build_dataset, DatasetSpec};
use crate::experiments::ExpConfig;
use crate::runner::BenchWorld;

/// Worker counts swept (the paper's host is a multi-core Xeon).
pub const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];

pub fn run(cfg: &ExpConfig) -> ResultTable {
    let ds = roadnet::gen::Dataset::NY;
    let world = BenchWorld::new(build_dataset(&DatasetSpec::new(ds, cfg.scale)));
    let mut t = ResultTable::new(
        &format!("Extension: concurrent query engine ({}, k=16)", ds.name()),
        &[
            "Workers",
            "ns/query",
            "Skip hits",
            "Skip misses",
            "Hit rate",
            "Refine conc.",
            "Refine speedup",
            "Batch pipelined",
            "Batch serial",
            "Host cores",
        ],
    );
    let params = cfg.index_params();
    // Query *bursts*: the sweep measures query-stream throughput, so the
    // queries arrive 1 ms apart — faster than any fleet update period, so
    // no cell is re-dirtied mid-burst. This is the regime where the
    // clean-skip cache and the worker pool matter; with queries 500 ms
    // apart every cell is re-dirtied between them and the cache is
    // honestly useless.
    let mut scenario = cfg.scenario();
    scenario.query_interval_ms = 1;
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The batch: eight spread-out positions, three times over, issued
    // after the stream's last query.
    let ne = world.graph.num_edges() as u32;
    let batch: Vec<(EdgePosition, usize)> = (0..24u32)
        .map(|i| (EdgePosition::at_source(EdgeId(i % 8 * (ne / 8))), 16))
        .collect();
    let batch_at = Timestamp(scenario.warmup_ms + scenario.num_queries as u64);
    for workers in WORKER_SWEEP {
        let config = GGridConfig {
            host_workers: workers,
            t_delta_ms: params.t_delta_ms,
            ..params.ggrid.clone()
        };
        let mut server = world.server(config);
        let report = run_scenario(
            &world.graph,
            &mut server,
            &scenario,
            params.t_delta_ms,
            false,
        );
        let c = server.counters();
        let b = server.knn_batch(&batch, batch_at);
        t.row(vec![
            workers.to_string(),
            fmt_ns(report.amortized_ns_per_query()),
            c.clean_skip_hits.to_string(),
            c.clean_skip_misses.to_string(),
            format!("{:.1}%", 100.0 * c.clean_skip_hit_rate()),
            format!("{:.2}", c.refine_concurrency()),
            format!("{:.2}", c.refine_parallel_speedup()),
            fmt_ns(b.pipelined_time.0),
            fmt_ns(b.serial_time.0),
            host_cores.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrency_table_runs_and_skip_hits() {
        let cfg = ExpConfig {
            scale: 4000,
            objects: 150,
            queries: 4,
            ..ExpConfig::quick()
        };
        let t = run(&cfg);
        assert_eq!(t.rows.len(), WORKER_SWEEP.len());
        // A repeated-query stream must hit the skip path at every width.
        for row in &t.rows {
            let hits: u64 = row[2].parse().unwrap();
            assert!(hits > 0, "no skip hits in row {row:?}");
        }
    }
}
