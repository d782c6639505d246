//! `paper_loocv`: the paper's pure-HDC results plus the dimension ablation.
//!
//! One pass: for both cohorts (Pima R and Sylhet) and every dimension of
//! the ablation, fit and encode the cohort, then run Hamming 1-NN
//! leave-one-out; at 10,000 bits also distil to 2,000 bits and run LOOCV on
//! the gathered bank. After the pass, single-patient leave-one-out queries
//! (encode one row, Hamming 1-NN over the rest of the 10k-bit cohort)
//! give the latency samples.

use std::hint::black_box;
use std::time::Instant;

use hyperfex::experiments::Datasets;
use hyperfex::prelude::*;
use hyperfex_hdc::binary::BinaryHypervector;
use hyperfex_hdc::classify::{HammingKnnClassifier, LeaveOneOut};

use crate::run::{Ctx, Round, Workload};

/// Dimensions of the ablation (bits).
const DIMS: [usize; 5] = [1_000, 2_000, 5_000, 10_000, 20_000];
/// The paper's dimension, distilled to `DISTILLED`.
const FULL: usize = 10_000;
/// Distilled dimension.
const DISTILLED: usize = 2_000;
/// Rows per cohort on which the pruned encoder is checked against
/// gather-after-encode.
const PRUNED_SAMPLE: usize = 8;
/// Single-patient queries after each pass.
const QUERIES_PER_ROUND: usize = 32;

pub struct PaperLoocv {
    seed: u64,
    cohorts: [(&'static str, Table); 2],
    /// The 10k-bit extractor fitted on the query cohort (Pima R).
    extractor: HdcFeatureExtractor,
    knn: HammingKnnClassifier,
    next_query: usize,
}

impl Workload for PaperLoocv {
    fn setup(seed: u64, ctx: &mut Ctx) -> Result<Self, String> {
        let datasets = ctx
            .tracer
            .leaf("data.generate", || Datasets::generate(seed))
            .map_err(|e| format!("generate: {e}"))?;
        let mut extractor = HdcFeatureExtractor::new(Dim::new(FULL), seed);
        let hvs = ctx
            .tracer
            .leaf("hdc.encoding.fit_transform", || {
                extractor.fit_transform(&datasets.pima_r)
            })
            .map_err(|e| format!("encode: {e}"))?;
        let mut knn = HammingKnnClassifier::new(1).map_err(|e| e.to_string())?;
        knn.fit(hvs, datasets.pima_r.labels().to_vec())
            .map_err(|e| format!("knn fit: {e}"))?;
        Ok(Self {
            seed,
            cohorts: [("pima_r", datasets.pima_r), ("sylhet", datasets.sylhet)],
            extractor,
            knn,
            next_query: 0,
        })
    }

    fn round(&mut self, ctx: &mut Ctx) -> Round {
        let start = Instant::now();
        let mut accuracies = Vec::new();
        for (name, table) in &self.cohorts {
            for dim in DIMS {
                let mut extractor = HdcFeatureExtractor::new(Dim::new(dim), self.seed);
                let encoded = ctx.tracer.leaf("hdc.encoding.fit_transform", || {
                    extractor.fit_transform(table)
                });
                let Some(hvs) = ctx.checks.ok("fit_transform", encoded) else {
                    continue;
                };
                accuracies.extend(loocv(ctx, name, table, &hvs));
                if dim == FULL {
                    accuracies.extend(distilled(ctx, name, table, &extractor, &hvs));
                }
            }
        }
        let pass_s = start.elapsed().as_secs_f64();

        let table = &self.cohorts[0].1;
        for _ in 0..QUERIES_PER_ROUND {
            let row = self.next_query % table.n_rows();
            self.next_query += 1;
            let t = Instant::now();
            let hv = ctx.tracer.leaf("hdc.encoding.encode_one", || {
                self.extractor.transform(table, Some(&[row]))
            });
            let predicted = hv.map_err(|e| e.to_string()).and_then(|hv| {
                ctx.tracer
                    .leaf("hdc.classify.knn_predict", || {
                        self.knn.predict_excluding(black_box(&hv[0]), row)
                    })
                    .map_err(|e| e.to_string())
            });
            ctx.query_us.push(t.elapsed().as_secs_f64() * 1e6);
            if let Some(label) = ctx.checks.ok("single-patient query", predicted) {
                ctx.checks
                    .check(label < 2, || format!("query predicted label {label}"));
            }
        }

        Round {
            pass_s,
            accuracy: accuracies.iter().sum::<f64>() / accuracies.len().max(1) as f64,
        }
    }
}

/// Hamming 1-NN LOOCV on `hvs`, checked; returns its accuracy.
fn loocv(ctx: &mut Ctx, cohort: &str, table: &Table, hvs: &[BinaryHypervector]) -> Option<f64> {
    let n = hvs.len();
    let run = ctx.tracer.leaf("hdc.loocv.run", || {
        LeaveOneOut::new().run(hvs, table.labels())
    });
    ctx.tracer.count("hdc.loocv.pairs", (n * (n - 1)) as f64);
    let outcome = ctx.checks.ok("loocv", run)?;
    ctx.checks.check(outcome.total == table.n_rows(), || {
        format!(
            "{cohort}: LOOCV total {} != {} rows",
            outcome.total,
            table.n_rows()
        )
    });
    ctx.checks.check(
        outcome.predictions.len() == n && outcome.predictions.iter().all(|&p| p < 2),
        || format!("{cohort}: LOOCV predictions are not valid labels"),
    );
    Some(outcome.accuracy())
}

/// Distils the 10k-bit extractor to 2k bits, runs LOOCV on the gathered
/// bank and checks the pruned encoder against gather-after-encode.
fn distilled(
    ctx: &mut Ctx,
    cohort: &str,
    table: &Table,
    extractor: &HdcFeatureExtractor,
    hvs: &[BinaryHypervector],
) -> Option<f64> {
    let distill = ctx.tracer.leaf("hdc.distill.distill", || {
        extractor.distill(table, None, DISTILLED)
    });
    let distilled = ctx.checks.ok("distill", distill)?;
    let gather = ctx
        .tracer
        .leaf("hdc.distill.gather", || distilled.gather(hvs));
    let gathered = ctx.checks.ok("gather", gather)?;
    let accuracy = loocv(ctx, cohort, table, &gathered);

    let rows: Vec<usize> = (0..PRUNED_SAMPLE)
        .map(|i| i * table.n_rows() / PRUNED_SAMPLE)
        .collect();
    let pruned = ctx.tracer.leaf("hdc.encoding.pruned_encode", || {
        distilled.transform(table, Some(&rows))
    });
    if let Some(pruned) = ctx.checks.ok("pruned encode", pruned) {
        ctx.checks.check(
            pruned.iter().zip(&rows).all(|(hv, &r)| *hv == gathered[r]),
            || format!("{cohort}: pruned encoder differs from gather-after-encode"),
        );
    }
    accuracy
}
