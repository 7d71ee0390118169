//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_mix --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Runs one workload through the public API of `ggrid` and `workload`,
//! checks a deterministic sample of answers against a Dijkstra oracle, and
//! prints every metric by name with its unit and clock. The last line of
//! standard output is one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
//! `--list` prints the metric catalogue.

mod common;
mod metrics;
mod paper_mix;
mod serve_open;
mod sharded_hot;
mod trace;

use std::process::ExitCode;

use common::SetupTimes;
use metrics::{lookup, median_f64, Kind, Values, CATALOGUE};
use trace::Tracer;

/// The latency limit of `slo_frac`, in ns of the metric's clock.
pub const SLO_NS: u64 = 3_000_000;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
const WORKLOADS: [&str; 3] = ["paper_mix", "serve_open", "sharded_hot"];

/// The outcome of one measured phase of a workload.
pub struct Phase {
    pub values: Values,
    /// Operations attempted and failed (wrong answers, shed queries,
    /// panics).
    pub attempted: u64,
    pub failed: u64,
    /// Reconciliation checks that failed.
    pub recon_failures: u64,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --list",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse(mut it: impl Iterator<Item = String>) -> Option<Args> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => return None,
        }
    }
    let workload = workload.filter(|w| WORKLOADS.contains(&w.as_str()))?;
    Some(Args {
        workload,
        seed: seed?,
        seconds: seconds?,
        trace: trace?,
    })
}

/// Set up the workload `SETUP_REPS` times, measuring on the last set-up
/// (`--trace 0`), or on the last two — untraced, then traced — each for
/// half the time (`--trace 1`). The reference task runs before the first
/// set-up and after each one; a set-up's CPU times are scaled by the mean
/// of the two references around it (see [`common::reference_cpu_s`]).
/// Returns the scaled times, and each set-up's raw CPU seconds with the
/// reference time it was scaled by.
fn run_workload<W>(
    args: &Args,
    setup: impl Fn(u64) -> (W, SetupTimes),
    measure: impl Fn(W, f64, Option<&mut Tracer>) -> Phase,
) -> (Vec<SetupTimes>, Vec<(f64, f64)>, Phase, Option<(Phase, Tracer)>) {
    let mut times = Vec::new();
    let mut raw = Vec::new();
    let mut untraced = None;
    let mut traced = None;
    let mut before = common::reference_cpu_s();
    for rep in 0..SETUP_REPS {
        let (world, t) = setup(args.seed);
        let after = common::reference_cpu_s();
        let reference = (before + after) / 2.0;
        times.push(t.scaled(common::REFERENCE_NOMINAL_S / reference));
        raw.push((t.total(), reference));
        before = after;
        let last = rep + 1 == SETUP_REPS;
        if !args.trace && last {
            untraced = Some(measure(world, args.seconds, None));
        } else if args.trace && rep + 2 == SETUP_REPS {
            untraced = Some(measure(world, args.seconds / 2.0, None));
        } else if args.trace && last {
            let mut tracer = Tracer::new();
            let phase = measure(world, args.seconds / 2.0, Some(&mut tracer));
            traced = Some((phase, tracer));
        }
    }
    (times, raw, untraced.expect("a measured phase ran"), traced)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("--list") {
        for m in CATALOGUE {
            let kind = if m.kind == Kind::EndToEnd {
                "end_to_end"
            } else {
                "per_layer"
            };
            println!(
                "{kind:10} {:30} {:6} {:8} better={:6} {}",
                m.name, m.unit, m.clock, m.better, m.moves
            );
        }
        return ExitCode::SUCCESS;
    }
    let Some(args) = parse(argv) else {
        return usage();
    };

    let (times, raw, untraced, traced) = match args.workload.as_str() {
        "paper_mix" => run_workload(&args, paper_mix::setup, paper_mix::measure),
        "serve_open" => run_workload(&args, serve_open::setup, serve_open::measure),
        _ => run_workload(&args, sharded_hot::setup, sharded_hot::measure),
    };

    let mut e2e = untraced.values;
    let total: Vec<f64> = times.iter().map(SetupTimes::total).collect();
    e2e.set("setup_s", median_f64(&total));
    e2e.note(format!(
        "setup_s: median of {} set-ups' CPU seconds scaled to a {} s reference task; (raw CPU s, reference CPU s) {:?}",
        total.len(),
        common::REFERENCE_NOMINAL_S,
        raw.iter()
            .map(|(s, r)| format!("({s:.3}, {r:.3})"))
            .collect::<Vec<_>>()
    ));
    let mut attempted = untraced.attempted;
    let mut failed = untraced.failed;
    let mut recon_failures = 0;

    let mut layers = None;
    if let Some((phase, tracer)) = traced {
        let mut v = phase.values;
        let part = |f: fn(&SetupTimes) -> f64| median_f64(&times.iter().map(f).collect::<Vec<_>>());
        v.set("setup.graph_s", part(|t| t.graph_s));
        v.set("setup.grid_build_s", part(|t| t.grid_s));
        v.set("setup.server_s", part(|t| t.server_s));
        v.set("setup.fleet_load_s", part(|t| t.fleet_s));
        // Wall time per query, traced over untraced, minus one.
        let qps = |v: &Values| v.map["wall_qps"];
        v.set(
            "trace.overhead_frac",
            metrics::ratio(qps(&e2e) - qps(&v), qps(&v)),
        );
        v.set("recon.failures", phase.recon_failures as f64);
        attempted += phase.attempted;
        failed += phase.failed;
        recon_failures = phase.recon_failures;
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/trace-{}-seed{}.json",
            args.workload, args.seed
        ));
        match tracer.write(&path) {
            Ok(()) => v.note(format!(
                "{} spans written to {}",
                tracer.len(),
                path.display()
            )),
            Err(e) => v.note(format!("could not write {}: {e}", path.display())),
        }
        layers = Some(v);
    }

    print_report(&args, &e2e, layers.as_ref(), attempted, failed);
    let correct = failed == 0 && recon_failures == 0;
    let shown = match &layers {
        Some(v) => (v, Kind::Layer),
        None => (&e2e, Kind::EndToEnd),
    };
    println!(
        "{}",
        result_json(correct, attempted, failed, shown.0, shown.1)
    );
    ExitCode::SUCCESS
}

fn print_report(args: &Args, e2e: &Values, layers: Option<&Values>, attempted: u64, failed: u64) {
    println!(
        "perfbench workload={} seed={} seconds={} trace={} threads=1 of {} available",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let print = |title: &str, v: &Values| {
        println!("{title}");
        for (name, value) in &v.map {
            let m = lookup(name);
            println!("  {name:30} {value:>16.4} {:6} [{}]", m.unit, m.clock);
        }
        for n in &v.notes {
            println!("  note: {n}");
        }
    };
    print("untraced phase (end-to-end and per-layer):", e2e);
    println!(
        "  {:30} {:>16.4} {:6} [measured]  ({failed} failed of {attempted} attempted)",
        "error_rate",
        metrics::ratio(failed as f64, attempted as f64),
        "frac"
    );
    if let Some(v) = layers {
        print("traced phase (per-layer figures come from here):", v);
    }
}

/// The final line: exactly the metrics of one kind, each with its value
/// and unit.
fn result_json(correct: bool, attempted: u64, failed: u64, v: &Values, kind: Kind) -> String {
    let metrics: Vec<String> = CATALOGUE
        .iter()
        .filter(|m| m.kind == kind)
        .map(|m| {
            let value = *v
                .map
                .get(m.name)
                .unwrap_or_else(|| panic!("workload did not report {}", m.name));
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// Every digit the measurement has (`{:?}` prints the shortest string
/// that round-trips the f64).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}
