//! Repository benchmark for hyperfex.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_loocv --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Runs one workload (see `README.md`) through the library's public API in
//! this process, checks every output, prints a human-readable report to
//! standard error and, as the last line of standard output, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` runs traced and untraced rounds
//! alternately and reports the per-layer metrics. `--manifest` prints the
//! `BENCHMARK.json` this program implements.

mod manifest;
mod procfs;
mod run;
mod stats;
mod trace;
mod workloads;

use std::process::exit;

use run::{Outcome, Workload};
use workloads::{
    paper_hybrid::PaperHybrid, paper_loocv::PaperLoocv, serve_ingest::ServeIngest,
    serve_query::ServeQuery,
};

const USAGE: &str = "usage: perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]\n       perfbench --manifest";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: manifest::RUN_SECONDS,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = value()?.clone(),
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !manifest::WORKLOADS
        .iter()
        .any(|(name, _)| *name == out.workload)
    {
        let names: Vec<&str> = manifest::WORKLOADS.iter().map(|(n, _)| *n).collect();
        return Err(format!("--workload must be one of {names:?}"));
    }
    Ok(out)
}

fn dispatch(args: &Args) -> Result<Outcome, String> {
    fn go<W: Workload>(args: &Args) -> Result<Outcome, String> {
        run::run::<W>(args.seed, args.seconds, args.trace)
    }
    match args.workload.as_str() {
        "paper_loocv" => go::<PaperLoocv>(args),
        "paper_hybrid" => go::<PaperHybrid>(args),
        "serve_query" => go::<ServeQuery>(args),
        "serve_ingest" => go::<ServeIngest>(args),
        other => Err(format!("no workload {other}")),
    }
}

/// The result line: every value printed with all its digits.
fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.checks.failed == 0,
        outcome.checks.attempted.max(1),
        outcome.checks.failed,
        metrics.join(", ")
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    if argv.first().map(String::as_str) == Some("--manifest") {
        match serde_json::to_string_pretty(&manifest::manifest()) {
            Ok(json) => println!("{json}"),
            Err(e) => {
                eprintln!("perfbench: {e}");
                exit(1);
            }
        }
        return;
    }
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            exit(2);
        }
    };
    let outcome = match dispatch(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            exit(1);
        }
    };

    eprintln!(
        "perfbench {} seed={} seconds={} trace={} nproc={} pool_threads={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        procfs::nproc(),
        rayon::current_num_threads()
    );
    for (name, value, unit) in outcome.metrics.iter().chain(&outcome.report) {
        eprintln!("  {name:<36} {value:>16.6} {unit}");
    }
    let checks = &outcome.checks;
    eprintln!(
        "  checks: {} attempted, {} failed (failed_share {:.6})",
        checks.attempted,
        checks.failed,
        checks.failed as f64 / checks.attempted.max(1) as f64
    );
    for message in &checks.messages {
        eprintln!("  FAILED: {message}");
    }
    println!("{}", result_line(&outcome));
}
