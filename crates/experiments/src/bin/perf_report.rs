//! Instrumented end-to-end performance run for `cargo xtask bench`.
//!
//! Requires the `obs` feature (`cargo run -p hyperfex-experiments
//! --features obs --bin perf_report`). Runs the paper's pipeline — cohort
//! encoding, Hamming 1-NN LOOCV, one hybrid model fit — under
//! [`hyperfex::obs`] instrumentation and emits a single JSON document:
//! headline end-to-end numbers (cohort encode wall time, LOOCV throughput,
//! peak span depth) plus the full span/counter/histogram snapshot.
//!
//! Flags: `--quick` (small dimensionality), `--seed N`, `--out PATH`
//! (default: stdout).

use hyperfex::experiments::{hv_features, Datasets, ExperimentConfig};
use hyperfex::models::{make_model, ModelKind};
use hyperfex::obs::{self, Recorder, RunReport};
use hyperfex::prelude::*;
use hyperfex_hdc::bitmatrix::BitMatrix;
use hyperfex_hdc::classify::LeaveOneOut;
use hyperfex_hdc::topk::top_k;
use serde::Serialize;
use std::hint::black_box;
use std::path::PathBuf;
use std::process::exit;
use std::time::Instant;

/// Bucket bounds for the per-query/per-record latency histograms (ns);
/// `cargo xtask bench` lifts their p50/p95 into the `BENCH_4.json` e2e
/// block.
const LATENCY_BOUNDS_NS: &[f64] = &[1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8];
/// Rows sampled for the latency histograms.
const LATENCY_SAMPLES: usize = 64;

/// Headline end-to-end numbers `cargo xtask bench` folds into
/// `BENCH_4.json`.
#[derive(Debug, Serialize)]
struct E2eMetrics {
    /// Rows in the encoded cohort.
    cohort_rows: usize,
    /// Hypervector dimensionality used.
    dim: usize,
    /// Wall seconds to encode the whole cohort.
    cohort_encode_secs: f64,
    /// Wall seconds for the full LOOCV pass.
    loocv_secs: f64,
    /// LOOCV classification throughput.
    loocv_rows_per_sec: f64,
    /// Wall seconds to fit one hybrid model on the hypervectors.
    hybrid_fit_secs: f64,
    /// Deepest span nesting observed anywhere in the run.
    peak_span_depth: usize,
}

#[derive(Debug, Serialize)]
struct PerfReport {
    mode: String,
    e2e: E2eMetrics,
    report: RunReport,
}

fn main() {
    let mut quick = false;
    let mut seed = 7u64;
    let mut out: Option<PathBuf> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--seed" => {
                seed = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--seed needs a number");
                        exit(2);
                    });
                i += 1;
            }
            "--out" => {
                out = Some(PathBuf::from(args.get(i + 1).cloned().unwrap_or_else(
                    || {
                        eprintln!("--out needs a path");
                        exit(2);
                    },
                )));
                i += 1;
            }
            "--help" | "-h" => {
                println!("usage: perf_report [--quick] [--seed N] [--out PATH]");
                exit(0);
            }
            other => {
                eprintln!("unknown flag `{other}` (try --help)");
                exit(2);
            }
        }
        i += 1;
    }

    let config = if quick {
        ExperimentConfig::quick()
    } else {
        ExperimentConfig::default()
    };
    let report = match run(&config, seed, quick) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perf_report failed: {e}");
            exit(1);
        }
    };
    let json = serde_json::to_string_pretty(&report).unwrap_or_else(|e| {
        eprintln!("perf_report: serialisation failed: {e}");
        exit(1);
    });
    match &out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("failed to write {}: {e}", path.display());
                exit(1);
            }
            println!("(perf report written to {})", path.display());
        }
        None => println!("{json}"),
    }
}

fn run(config: &ExperimentConfig, seed: u64, quick: bool) -> Result<PerfReport, HyperfexError> {
    let datasets = Datasets::generate(seed)?;
    let table = &datasets.pima_r;
    let dim = config.dim();

    let recorder = Recorder::start(if quick {
        "perf_report/quick"
    } else {
        "perf_report/full"
    });

    let encode = obs::timer("perf/encode_cohort");
    let mut extractor = HdcFeatureExtractor::new(dim, seed);
    let hvs = extractor.fit_transform(table)?;
    let cohort_encode_secs = encode.finish().as_secs_f64();

    let loocv = obs::timer("perf/loocv");
    let outcome = LeaveOneOut::new().run(&hvs, table.labels())?;
    let loocv_secs = loocv.finish().as_secs_f64();

    // Per-record encode and per-query 1-NN latency distributions, the
    // latter at full width and distilled to one-fifth width (2k bits at
    // paper scale) — the serving trade `reports/pareto.json` quantifies.
    let sample_rows: Vec<usize> = (0..table.n_rows().min(LATENCY_SAMPLES)).collect();
    for &row in &sample_rows {
        let start = Instant::now();
        black_box(extractor.transform(table, Some(&sample_rows[row..=row]))?);
        obs::observe(
            "perf/encode_record_ns",
            LATENCY_BOUNDS_NS,
            start.elapsed().as_secs_f64() * 1e9,
        );
    }
    let bank = BitMatrix::from_hypervectors(&hvs)?;
    let distilled = extractor.distill(table, None, (dim.get() / 5).max(1))?;
    let pruned_bank = distilled.selection().gather_matrix(&bank)?;
    for hv in hvs.iter().take(LATENCY_SAMPLES) {
        let query = BitMatrix::from_hypervectors(std::slice::from_ref(hv))?;
        let start = Instant::now();
        black_box(top_k(&query, &bank, 1, None)?);
        obs::observe(
            "perf/predict_query_ns",
            LATENCY_BOUNDS_NS,
            start.elapsed().as_secs_f64() * 1e9,
        );
        let pruned_query = distilled.selection().gather_matrix(&query)?;
        let start = Instant::now();
        black_box(top_k(&pruned_query, &pruned_bank, 1, None)?);
        obs::observe(
            "perf/pruned_predict_query_ns",
            LATENCY_BOUNDS_NS,
            start.elapsed().as_secs_f64() * 1e9,
        );
    }

    let fit = obs::timer("perf/hybrid_fit");
    let hv_matrix = hv_features(table, dim, seed)?;
    let mut model = make_model(ModelKind::LogisticRegression, seed, &config.budget);
    model.fit(&hv_matrix, table.labels())?;
    let hybrid_fit_secs = fit.finish().as_secs_f64();

    let report = recorder.finish();
    Ok(PerfReport {
        mode: if quick { "quick" } else { "full" }.to_string(),
        e2e: E2eMetrics {
            cohort_rows: outcome.total,
            dim: dim.get(),
            cohort_encode_secs,
            loocv_secs,
            loocv_rows_per_sec: outcome.total as f64 / loocv_secs.max(1e-12),
            hybrid_fit_secs,
            peak_span_depth: report.metrics.peak_span_depth,
        },
        report,
    })
}
