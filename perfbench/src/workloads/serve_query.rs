//! `serve_query`: read-only screening against a fixed store.
//!
//! Set-up encodes a Pima-like population 64 times the size of the Pima
//! cohort at 10,000 bits and builds a store pruned to the distilled
//! 2,048-bit space (about 12 MB of bank: several times a 2 MB L2). Load
//! is a closed loop with one client. One pass screens every held-out
//! patient in batches of 16 (encode the batch with the distilled encoder,
//! then `predict_batch`); then single-patient requests (encode one row,
//! `predict_batch` of one) give the latency samples and must agree with
//! the batch answers.

use std::time::Instant;

use hyperfex_hdc::binary::BinaryHypervector;
use hyperfex_serve::HvStore;

use super::{population, Population, K, SERVE_DIM};
use crate::run::{Ctx, Round, Workload};

/// Population size as a multiple of the Pima cohort (768 rows).
const SCALE: usize = 64;
/// Share of the population held out as query patients.
const HELD_OUT: f64 = 0.02;
/// Shards of the store. `predict_batch` spawns one thread per shard; two
/// keep a request at one thread per core of the two-core reference
/// machine, so its latency follows the scan rather than the scheduler.
const SHARDS: usize = 2;
/// Screening batch size.
const BATCH: usize = 16;
/// Single-patient requests after each pass.
const SINGLES_PER_ROUND: usize = 128;

pub struct ServeQuery {
    population: Population,
    store: HvStore,
    /// Held-out rows, truncated to whole batches.
    queries: Vec<usize>,
    /// The latest pass's batch answer per query.
    screened: Vec<usize>,
    next_single: usize,
    pass_s: Vec<f64>,
}

impl ServeQuery {
    fn bank_bytes(&self) -> f64 {
        (self.store.n_rows() * SERVE_DIM / 8) as f64
    }
}

impl Workload for ServeQuery {
    fn setup(seed: u64, ctx: &mut Ctx) -> Result<Self, String> {
        let population = population(seed, SCALE, HELD_OUT, ctx)?;
        let Population {
            table,
            train,
            extractor,
            distilled,
            ..
        } = &population;
        let hvs = ctx
            .tracer
            .leaf("hdc.encoding.fit_transform", || {
                extractor.transform(table, Some(train))
            })
            .map_err(|e| format!("encode: {e}"))?;
        let labels: Vec<usize> = train.iter().map(|&r| table.labels()[r]).collect();
        let store = ctx
            .tracer
            .leaf("serve.build_pruned", || {
                HvStore::build_pruned(&hvs, &labels, SHARDS, distilled.selection())
            })
            .map_err(|e| format!("build_pruned: {e}"))?;
        drop(hvs);
        let mut queries = population.held_out.clone();
        queries.truncate(queries.len() / BATCH * BATCH);
        Ok(Self {
            screened: vec![usize::MAX; queries.len()],
            population,
            store,
            queries,
            next_single: 0,
            pass_s: Vec::new(),
        })
    }

    fn round(&mut self, ctx: &mut Ctx) -> Round {
        let Population {
            table, distilled, ..
        } = &self.population;
        let start = Instant::now();
        for (i, batch) in self.queries.chunks(BATCH).enumerate() {
            let hvs = ctx.tracer.leaf("hdc.encoding.pruned_encode", || {
                distilled.transform(table, Some(batch))
            });
            let predicted = hvs.map_err(|e| e.to_string()).and_then(|hvs| {
                ctx.tracer
                    .leaf("serve.predict_16", || self.store.predict_batch(&hvs, K))
                    .map_err(|e| e.to_string())
            });
            let answers = &mut self.screened[i * BATCH..(i + 1) * BATCH];
            match ctx.checks.ok("screening batch", predicted) {
                Some(p) if p.len() == BATCH && p.iter().all(|&l| l < 2) => {
                    ctx.checks.check(true, String::new);
                    answers.copy_from_slice(&p);
                }
                Some(p) => ctx
                    .checks
                    .check(false, || format!("screening batch answered {p:?}")),
                None => answers.fill(usize::MAX),
            }
        }
        let pass_s = start.elapsed().as_secs_f64();
        self.pass_s.push(pass_s);

        let bank_bytes = self.bank_bytes();
        for _ in 0..SINGLES_PER_ROUND {
            let i = self.next_single % self.queries.len();
            self.next_single += 1;
            let row = self.queries[i];
            let t = Instant::now();
            let hv = ctx.tracer.leaf("hdc.encoding.encode_one", || {
                distilled.transform(table, Some(&[row]))
            });
            let predicted = hv
                .map_err(|e| e.to_string())
                .and_then(|hv: Vec<BinaryHypervector>| {
                    ctx.tracer
                        .leaf("serve.predict_one", || self.store.predict_batch(&hv, K))
                        .map_err(|e| e.to_string())
                });
            ctx.query_us.push(t.elapsed().as_secs_f64() * 1e6);
            ctx.tracer.count("serve.queries", 1.0);
            ctx.tracer.count("serve.bank_bytes_scanned", bank_bytes);
            if let Some(p) = ctx.checks.ok("single-patient query", predicted) {
                ctx.checks.check(p == [self.screened[i]], || {
                    format!(
                        "row {row}: single answer {p:?} != batch answer {}",
                        self.screened[i]
                    )
                });
            }
        }

        let labels = table.labels();
        let correct = self
            .queries
            .iter()
            .zip(&self.screened)
            .filter(|(&row, &p)| labels[row] == p)
            .count();
        Round {
            pass_s,
            accuracy: correct as f64 / self.queries.len() as f64,
        }
    }

    fn report(&self) -> Vec<(&'static str, f64, &'static str)> {
        // The first pass is the warm-up.
        let pass = crate::stats::median(&self.pass_s[self.pass_s.len().min(1)..]);
        vec![
            (
                "screen_rows_per_s",
                self.queries.len() as f64 / pass.max(1e-12),
                "1/s",
            ),
            ("store_rows", self.store.n_rows() as f64, "count"),
            ("bank_mb", self.bank_bytes() / 1e6, "MB"),
            ("query_patients", self.queries.len() as f64, "count"),
        ]
    }
}
