//! # ggrid-bench — experiment harness
//!
//! Regenerates every table and figure of the G-Grid paper's evaluation
//! (§VII) on the synthetic, scale-preserving datasets of
//! [`roadnet::gen`]. The `experiments` binary prints each experiment as an
//! aligned table and writes a CSV next to it under `results/`; the
//! extension studies also write a [`report::Report`] as `BENCH_N.json`.
//!
//! Absolute numbers differ from the paper (the substrate is a simulator,
//! not the authors' Xeon + Quadro P2000 testbed, and the datasets are
//! scaled); the *shapes* — who wins, by roughly what factor, where the
//! crossovers fall — are the reproduction targets. See EXPERIMENTS.md for
//! the paper-vs-measured record.

pub mod csvout;
pub mod datasets;
pub mod experiments;
pub mod report;
pub mod runner;

pub use datasets::{build_dataset, DatasetSpec};
pub use runner::{run_all_indexes, IndexKind, RunOutcome};
