//! The four workloads, and the synthetic screening population the two
//! serving workloads share.

pub mod paper_hybrid;
pub mod paper_loocv;
pub mod serve_ingest;
pub mod serve_query;

use hyperfex::prelude::*;
use hyperfex_data::pima::{self, PimaConfig};
use hyperfex_data::split::{stratified_split, SplitFractions};

use crate::run::Ctx;

/// Full-width dimension the population is encoded at before distilling.
const FULL_DIM: usize = 10_000;
/// Distilled dimension the serving store holds.
pub const SERVE_DIM: usize = 2_048;
/// Rows the distillation ranking is computed from.
const DISTILL_ROWS: usize = 4_096;
/// Neighbours in every serving query.
pub const K: usize = 5;

/// A Pima-like population with every row complete, split into rows to
/// serve (or ingest) and held-out patients to query with.
pub struct Population {
    pub table: Table,
    pub train: Vec<usize>,
    pub held_out: Vec<usize>,
    /// 10k-bit extractor fitted on the training rows.
    pub extractor: HdcFeatureExtractor,
    /// The extractor distilled to `SERVE_DIM` bits.
    pub distilled: DistilledExtractor,
}

/// Generates `scale` times the Pima cohort, holds out `held_out` of it
/// (stratified) and distils a serving encoder from the rest.
pub fn population(
    seed: u64,
    scale: usize,
    held_out: f64,
    ctx: &mut Ctx,
) -> Result<Population, String> {
    let (negative, positive) = (500 * scale, 268 * scale);
    let config = PimaConfig {
        seed,
        n_negative: negative,
        n_positive: positive,
        complete_cases: (negative, positive),
        ..PimaConfig::default()
    };
    let table = ctx
        .tracer
        .leaf("data.generate", || pima::generate(&config))
        .map_err(|e| format!("generate: {e}"))?;
    let split = stratified_split(&table, SplitFractions::train_test(1.0 - held_out), seed)
        .map_err(|e| format!("split: {e}"))?;
    let mut extractor = HdcFeatureExtractor::new(Dim::new(FULL_DIM), seed);
    ctx.tracer
        .leaf("hdc.encoding.fit_transform", || {
            extractor.fit(&table, Some(&split.train))
        })
        .map_err(|e| format!("extractor fit: {e}"))?;
    // Rows are generated class by class; a strided sample keeps both.
    let n = split.train.len();
    let sample: Vec<usize> = (0..DISTILL_ROWS.min(n))
        .map(|i| split.train[i * n / DISTILL_ROWS.min(n)])
        .collect();
    let distilled = ctx
        .tracer
        .leaf("hdc.distill.distill", || {
            extractor.distill(&table, Some(&sample), SERVE_DIM)
        })
        .map_err(|e| format!("distill: {e}"))?;
    Ok(Population {
        table,
        train: split.train,
        held_out: split.test,
        extractor,
        distilled,
    })
}
