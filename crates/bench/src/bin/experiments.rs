//! Regenerate the paper's tables and figures, and the extension studies.
//!
//! ```text
//! experiments [EXPERIMENT...] [--quick] [--scale N] [--objects N]
//!             [--queries N] [--out DIR]
//! ```
//!
//! `--help` lists the experiments (default: all, in [`EXPERIMENTS`]
//! order). Each prints an aligned table and writes `<out>/<name>.csv`; the
//! `BENCH_N` studies also write their report as `<out>/BENCH_N.json` and
//! print its floor verdicts (the floor tests' fixtures are larger than
//! `--quick`, so a quick run can show a failed floor; the exit code does
//! not depend on them). Set
//! `GGRID_DIMACS_DIR` to a directory of real DIMACS `.gr` files to run on
//! the paper's original datasets.

use std::path::PathBuf;

use ggrid_bench::csvout::ResultTable;
use ggrid_bench::experiments::{
    ablation, capacity, concurrency, fig10_scalability, fig4_tuning, fig5_datasets,
    fig6_index_size, fig7_vary_k, fig8_vary_objects, fig9_vary_freq, ingest, residency, serving,
    sharding, sharding2, skew, subscriptions, table2_datasets, ExpConfig, FLOORS,
};
use ggrid_bench::report::{floor_verdicts, Report};

/// What one experiment produces: tables with their CSV names, and a
/// report for the `BENCH_N` studies.
type Output = (Vec<(String, ResultTable)>, Option<Report>);
type Run = fn(&ExpConfig) -> Output;

fn one(name: &str, table: ResultTable) -> Output {
    (vec![(name.to_string(), table)], None)
}

fn reported(name: &str, (table, report): (ResultTable, Report)) -> Output {
    (vec![(name.to_string(), table)], Some(report))
}

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: &[(&str, Run)] = &[
    ("table2", |c| one("table2", table2_datasets::run(c))),
    ("fig4a", |c| one("fig4a", fig4_tuning::run_a(c))),
    ("fig4b", |c| one("fig4b", fig4_tuning::run_b(c))),
    ("fig4c", |c| one("fig4c", fig4_tuning::run_c(c))),
    ("fig5", |c| one("fig5", fig5_datasets::run(c))),
    ("fig6", |c| one("fig6", fig6_index_size::run(c))),
    ("fig7", |c| {
        let tables = fig7_vary_k::run(c).into_iter().enumerate();
        (
            tables.map(|(i, t)| (format!("fig7_{i}"), t)).collect(),
            None,
        )
    }),
    ("fig8", |c| one("fig8", fig8_vary_objects::run(c))),
    ("fig9", |c| one("fig9", fig9_vary_freq::run(c))),
    ("fig10", |c| {
        let ab = fig10_scalability::run_time_throughput(c);
        let cd = fig10_scalability::run_transfers(c);
        (vec![("fig10_ab".into(), ab), ("fig10_cd".into(), cd)], None)
    }),
    ("ablation", |c| one("ablation", ablation::run(c))),
    ("skew", |c| one("skew", skew::run(c))),
    ("concurrency", |c| one("concurrency", concurrency::run(c))),
    ("residency", |c| reported("residency", residency::run(c))),
    ("ingest", |c| reported("ingest", ingest::run(c))),
    ("subscriptions", |c| {
        reported("subscriptions", subscriptions::run(c))
    }),
    ("sharding", |c| reported("sharding", sharding::run(c))),
    ("sharding2", |c| reported("sharding2", sharding2::run(c))),
    ("capacity", |c| reported("capacity", capacity::run(c))),
    ("serving", |c| reported("serving", serving::run(c))),
];

/// What the command line asks for.
#[derive(Debug)]
enum Cli {
    Help,
    Run(ExpConfig, Vec<&'static str>),
}

/// Parse the arguments after the program name; `Err` carries the message
/// to print above the usage text.
fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cfg = ExpConfig::default();
    let mut chosen = Vec::new();
    let mut all = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => {
                let base = ExpConfig::quick();
                cfg.scale = base.scale;
                cfg.objects = base.objects;
                cfg.queries = base.queries;
                cfg.quick = true;
            }
            "--scale" => cfg.scale = number(it.next(), "--scale")?,
            "--objects" => cfg.objects = number(it.next(), "--objects")?,
            "--queries" => cfg.queries = number(it.next(), "--queries")?,
            "--out" => match it.next() {
                Some(dir) => cfg.out_dir = PathBuf::from(dir),
                None => return Err("error: --out needs a directory".into()),
            },
            "--help" | "-h" => return Ok(Cli::Help),
            "all" => all = true,
            other if !other.starts_with('-') => match EXPERIMENTS.iter().find(|e| e.0 == other) {
                Some(e) => chosen.push(e.0),
                None => return Err(format!("unknown experiment `{other}`")),
            },
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if all || chosen.is_empty() {
        chosen = EXPERIMENTS.iter().map(|e| e.0).collect();
    }
    Ok(Cli::Run(cfg, chosen))
}

/// A positive number that fits the flag's field.
fn number<T: TryFrom<u64>>(value: Option<&String>, flag: &str) -> Result<T, String> {
    value
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|&n| n > 0)
        .and_then(|n| T::try_from(n).ok())
        .ok_or_else(|| format!("error: {flag} needs a positive number that fits its field"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cfg, chosen) = match parse_args(&args) {
        Ok(Cli::Run(cfg, chosen)) => (cfg, chosen),
        Ok(Cli::Help) => {
            println!("{HELP}");
            return;
        }
        Err(e) => {
            eprintln!("{e}\n{HELP}");
            std::process::exit(2);
        }
    };

    println!(
        "# G-Grid experiment harness — scale 1/{}, |O|={}, {} queries{}",
        cfg.scale,
        cfg.objects,
        cfg.queries,
        if cfg.quick { " (quick)" } else { "" }
    );

    for name in chosen {
        let started = std::time::Instant::now();
        let run = EXPERIMENTS
            .iter()
            .find(|e| e.0 == name)
            .expect("parsed name")
            .1;
        let (tables, report) = run(&cfg);
        for (file, table) in tables {
            println!("{}", table.render());
            if let Err(e) = table.write_csv(&cfg.out_dir, &file) {
                eprintln!("warning: failed to write {file}.csv: {e}");
            }
        }
        if let Some(r) = report {
            if let Err(e) = r.write(&cfg.out_dir) {
                eprintln!("warning: failed to write {}.json: {e}", r.file);
            }
            println!("{} floors:", r.file);
            for (expr, verdict) in floor_verdicts(&r, FLOORS) {
                match verdict {
                    Ok(()) => println!("  pass  {expr}"),
                    Err(e) => println!("  FAIL  {expr}  ({e})"),
                }
            }
        }
        eprintln!("[{name} done in {:.1}s]\n", started.elapsed().as_secs_f64());
    }
}

const HELP: &str = "usage: experiments [table2|fig4a|fig4b|fig4c|fig5|fig6|fig7|fig8|fig9|fig10|ablation|skew|concurrency|residency|ingest|subscriptions|sharding|sharding2|capacity|serving|all]...
  --quick           small datasets/fleets for a fast pass
  --scale N         divide real dataset sizes by N (default 500)
  --objects N       number of moving objects (default 10000)
  --queries N       queries per measurement (default 10)
  --out DIR         CSV and BENCH_N.json output directory (default results/)
  GGRID_DIMACS_DIR  directory of real DIMACS .gr files to use instead";

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn numbers_must_fit_their_field() {
        assert!(parse(&["table2", "--scale", "4294967296"]).is_err());
        assert!(parse(&["--scale", "0"]).is_err());
        assert!(parse(&["--queries", "-3"]).is_err());
        assert!(parse(&["--objects"]).is_err());
        match parse(&["table2", "--scale", "500", "--objects", "20"]) {
            Ok(Cli::Run(cfg, chosen)) => {
                assert_eq!((cfg.scale, cfg.objects), (500, 20));
                assert_eq!(chosen, ["table2"]);
            }
            other => panic!("expected a run, got {other:?}"),
        }
    }

    #[test]
    fn names_are_checked_before_anything_runs() {
        match parse(&["--quick"]) {
            Ok(Cli::Run(cfg, chosen)) => {
                assert!(cfg.quick);
                assert_eq!(chosen.len(), EXPERIMENTS.len());
            }
            other => panic!("expected a run, got {other:?}"),
        }
        assert!(matches!(parse(&["-h"]), Ok(Cli::Help)));
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["table2", "fig99"]).is_err());
        for (name, _) in EXPERIMENTS {
            assert!(HELP.contains(name), "--help does not list {name}");
        }
        match parse(&["table2", "all"]) {
            Ok(Cli::Run(_, chosen)) => assert_eq!(chosen.len(), EXPERIMENTS.len()),
            other => panic!("expected a run, got {other:?}"),
        }
    }
}
