//! Regenerate the paper's tables and figures.
//!
//! ```text
//! experiments [EXPERIMENT...] [--quick] [--scale N] [--objects N]
//!             [--queries N] [--out DIR]
//!
//! EXPERIMENT ∈ {table2, fig4a, fig4b, fig4c, fig5, fig6, fig7, fig8,
//!               fig9, fig10, ablation, skew, concurrency, residency,
//!               ingest, subscriptions, sharding, sharding2, capacity,
//!               serving, all}
//! (default: all)
//! ```
//!
//! Each experiment prints an aligned table and writes `results/<name>.csv`.
//! Set `GGRID_DIMACS_DIR` to a directory of real DIMACS `.gr` files to run
//! on the paper's original datasets.

use std::path::PathBuf;

use ggrid_bench::csvout::ResultTable;
use ggrid_bench::experiments::{
    ablation, capacity, concurrency, fig10_scalability, fig4_tuning, fig5_datasets,
    fig6_index_size, fig7_vary_k, fig8_vary_objects, fig9_vary_freq, ingest, residency, serving,
    sharding, sharding2, skew, subscriptions, table2_datasets, ExpConfig,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = ExpConfig::default();
    let mut chosen: Vec<String> = Vec::new();

    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => {
                let base = ExpConfig::quick();
                cfg.scale = base.scale;
                cfg.objects = base.objects;
                cfg.queries = base.queries;
                cfg.quick = true;
            }
            "--scale" => cfg.scale = expect_num(&mut it, "--scale") as u32,
            "--objects" => cfg.objects = expect_num(&mut it, "--objects") as usize,
            "--queries" => cfg.queries = expect_num(&mut it, "--queries") as usize,
            "--out" => match it.next() {
                Some(dir) => cfg.out_dir = PathBuf::from(dir),
                None => {
                    eprintln!("error: --out needs a directory\n{HELP}");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                println!("{}", HELP);
                return;
            }
            other if !other.starts_with('-') => chosen.push(other.to_string()),
            other => {
                eprintln!("unknown flag {other}\n{HELP}");
                std::process::exit(2);
            }
        }
    }
    if chosen.is_empty() || chosen.iter().any(|c| c == "all") {
        chosen = vec![
            "table2",
            "fig4a",
            "fig4b",
            "fig4c",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "ablation",
            "skew",
            "concurrency",
            "residency",
            "ingest",
            "subscriptions",
            "sharding",
            "sharding2",
            "capacity",
            "serving",
        ]
        .into_iter()
        .map(String::from)
        .collect();
    }

    println!(
        "# G-Grid experiment harness — scale 1/{}, |O|={}, {} queries{}",
        cfg.scale,
        cfg.objects,
        cfg.queries,
        if cfg.quick { " (quick)" } else { "" }
    );

    for name in &chosen {
        let started = std::time::Instant::now();
        let tables: Vec<(String, ResultTable)> = match name.as_str() {
            "table2" => vec![("table2".into(), table2_datasets::run(&cfg))],
            "fig4a" => vec![("fig4a".into(), fig4_tuning::run_a(&cfg))],
            "fig4b" => vec![("fig4b".into(), fig4_tuning::run_b(&cfg))],
            "fig4c" => vec![("fig4c".into(), fig4_tuning::run_c(&cfg))],
            "fig5" => vec![("fig5".into(), fig5_datasets::run(&cfg))],
            "fig6" => vec![("fig6".into(), fig6_index_size::run(&cfg))],
            "fig7" => fig7_vary_k::run(&cfg)
                .into_iter()
                .enumerate()
                .map(|(i, t)| (format!("fig7_{i}"), t))
                .collect(),
            "fig8" => vec![("fig8".into(), fig8_vary_objects::run(&cfg))],
            "fig9" => vec![("fig9".into(), fig9_vary_freq::run(&cfg))],
            "fig10" => vec![
                (
                    "fig10_ab".into(),
                    fig10_scalability::run_time_throughput(&cfg),
                ),
                ("fig10_cd".into(), fig10_scalability::run_transfers(&cfg)),
            ],
            "ablation" => vec![("ablation".into(), ablation::run(&cfg))],
            "skew" => vec![("skew".into(), skew::run(&cfg))],
            "concurrency" => vec![("concurrency".into(), concurrency::run(&cfg))],
            "residency" => vec![("residency".into(), residency::run(&cfg))],
            "ingest" => vec![("ingest".into(), ingest::run(&cfg))],
            "subscriptions" => vec![("subscriptions".into(), subscriptions::run(&cfg))],
            "sharding" => vec![("sharding".into(), sharding::run(&cfg))],
            "sharding2" => vec![("sharding2".into(), sharding2::run(&cfg))],
            "capacity" => vec![("capacity".into(), capacity::run(&cfg))],
            "serving" => vec![("serving".into(), serving::run(&cfg))],
            other => {
                eprintln!("unknown experiment `{other}`\n{HELP}");
                std::process::exit(2);
            }
        };
        for (file, table) in tables {
            println!("{}", table.render());
            if let Err(e) = table.write_csv(&cfg.out_dir, &file) {
                eprintln!("warning: failed to write {file}.csv: {e}");
            }
        }
        eprintln!("[{name} done in {:.1}s]\n", started.elapsed().as_secs_f64());
    }
}

fn expect_num(it: &mut std::iter::Peekable<std::slice::Iter<String>>, flag: &str) -> u64 {
    let bad = || -> ! {
        eprintln!("error: {flag} needs a positive number\n{HELP}");
        std::process::exit(2);
    };
    match it.next().map(|v| v.parse::<u64>()) {
        Some(Ok(n)) if n > 0 => n,
        _ => bad(),
    }
}

const HELP: &str = "usage: experiments [table2|fig4a|fig4b|fig4c|fig5|fig6|fig7|fig8|fig9|fig10|ablation|skew|concurrency|residency|ingest|subscriptions|sharding|sharding2|capacity|serving|all]...
  --quick           small datasets/fleets for a fast pass
  --scale N         divide real dataset sizes by N (default 500)
  --objects N       number of moving objects (default 10000)
  --queries N       queries per measurement (default 10)
  --out DIR         CSV output directory (default results/)
  GGRID_DIMACS_DIR  directory of real DIMACS .gr files to use instead";
