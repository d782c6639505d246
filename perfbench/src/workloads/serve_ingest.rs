//! `serve_ingest`: durable writes beside reads.
//!
//! One pass streams a Pima-like population (8 times the Pima cohort, in
//! a seeded order) from an `FnStream` through the distilled 2,048-bit
//! `StreamEncoder` into an empty store. Like `StoreAppendSink`, the
//! benchmark's sink calls `append_batch` and then `save_dirty` on every
//! micro-batch, each timed on its own; after every micro-batch one
//! single-patient query runs on the growing store. Then the pass reopens
//! the snapshot cleanly, junks one shard file and reopens it again
//! (recovery). `pass_s` is ingest plus both opens; output checks run
//! outside it. Ingest is deterministic, so every round must rebuild the
//! first round's store exactly; the held-out accuracy of that store is
//! measured once. The run is pinned to one CPU (see `ONE_CPU`).

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use hyperfex::prelude::*;
use hyperfex_hdc::binary::BinaryHypervector;
use hyperfex_hdc::rng::SplitMix64;
use hyperfex_hdc::stream::{FnStream, StreamEncoder, StreamSink};
use hyperfex_hdc::HdcError;
use hyperfex_serve::HvStore;

use super::{population, Population, K, SERVE_DIM};
use crate::procfs;
use crate::run::{Ctx, Round, Workload};

/// Population size as a multiple of the Pima cohort (768 rows). The
/// final bank (about 1.4 MB) stays within one core's L2, so a pass
/// measures the write path rather than memory bandwidth, which neighbours
/// on a shared host make swing by a factor of two.
const SCALE: usize = 8;
/// Share of the population held out as query patients: 614 of them, so
/// that the held-out accuracy of one seed's store is within a few percent
/// of another's.
const HELD_OUT: f64 = 0.1;
/// Rows per shard before the store rolls a new one.
const SHARD_CAPACITY: usize = 2_048;
/// Records per micro-batch (encode, append, rolling snapshot).
const MICRO_BATCH: usize = 256;
/// Held-out rows whose answers must match between the in-memory and the
/// reopened store.
const VERIFY_ROWS: usize = 32;
/// Queries per `predict_batch` when measuring held-out accuracy.
const SCREEN_BATCH: usize = 16;

pub struct ServeIngest {
    seed: u64,
    population: Population,
    /// Training rows in stream order.
    order: Vec<usize>,
    /// Held-out rows encoded at the serving width, for the final checks.
    held_out_hvs: Vec<BinaryHypervector>,
    dir: PathBuf,
    rounds: u64,
    /// The first round's store and its held-out accuracy.
    first: Option<(HvStore, f64)>,
    ingest_s: Vec<f64>,
    open_s: Vec<f64>,
    recover_s: Vec<f64>,
}

/// The benchmark's stream sink: one append and one rolling snapshot per
/// micro-batch, then one single-patient query.
struct Sink<'a> {
    ctx: &'a mut Ctx,
    store: &'a mut HvStore,
    dir: &'a Path,
    population: &'a Population,
    batch: Vec<BinaryHypervector>,
    labels: Vec<usize>,
    queries: usize,
}

impl Sink<'_> {
    fn flush(&mut self) -> Result<(), HdcError> {
        if self.batch.is_empty() {
            return Ok(());
        }
        let appended = self.ctx.tracer.leaf("serve.append_batch", || {
            self.store.append_batch(&self.batch, &self.labels)
        });
        appended.map_err(|e| HdcError::InvalidConfig(format!("append_batch: {e}")))?;
        let before = procfs::bytes_written().unwrap_or(0);
        let saved = self
            .ctx
            .tracer
            .leaf("serve.save_dirty", || self.store.save_dirty(self.dir));
        let bytes = procfs::bytes_written().unwrap_or(0).saturating_sub(before);
        let files = saved.map_err(|e| HdcError::InvalidConfig(format!("save_dirty: {e}")))?;
        self.ctx
            .tracer
            .count("serve.snapshot.files_written", files as f64);
        self.ctx
            .tracer
            .count("serve.snapshot.bytes_written", bytes as f64);
        self.batch.clear();
        self.labels.clear();
        self.query();
        Ok(())
    }

    fn query(&mut self) {
        let Population {
            table,
            held_out,
            distilled,
            ..
        } = self.population;
        let row = held_out[self.queries % held_out.len()];
        self.queries += 1;
        let t = Instant::now();
        let hv = self.ctx.tracer.leaf("hdc.encoding.encode_one", || {
            distilled.transform(table, Some(&[row]))
        });
        let predicted = hv.map_err(|e| e.to_string()).and_then(|hv| {
            self.ctx
                .tracer
                .leaf("serve.predict_one", || self.store.predict_batch(&hv, K))
                .map_err(|e| e.to_string())
        });
        self.ctx.query_us.push(t.elapsed().as_secs_f64() * 1e6);
        self.ctx.tracer.count("serve.queries", 1.0);
        let bank = (self.store.n_rows() * SERVE_DIM / 8) as f64;
        self.ctx.tracer.count("serve.bank_bytes_scanned", bank);
        if let Some(p) = self.ctx.checks.ok("single-patient query", predicted) {
            self.ctx
                .checks
                .check(p.len() == 1 && p[0] < 2, || format!("query answered {p:?}"));
        }
    }
}

impl StreamSink for Sink<'_> {
    fn absorb(
        &mut self,
        _seq: usize,
        label: usize,
        hv: &BinaryHypervector,
    ) -> Result<(), HdcError> {
        self.batch.push(hv.clone());
        self.labels.push(label);
        if self.batch.len() >= MICRO_BATCH {
            self.flush()?;
        }
        Ok(())
    }
}

impl Workload for ServeIngest {
    /// The pass alternates short parallel regions (a micro-batch encode, a
    /// query) with single-threaded appends and snapshots, so on two cores
    /// every region first waits for the idle core to be woken. On a shared
    /// host that wait follows the other tenants' load: with 3–13% of CPU
    /// time stolen, `pass_s` spread by 0.2 of its median across runs. On
    /// one core the pass takes within 5% as long, and the write path this
    /// workload isolates is single-threaded either way; the pool is
    /// measured by `paper_loocv` and `serve_query`.
    const ONE_CPU: bool = true;

    fn setup(seed: u64, ctx: &mut Ctx) -> Result<Self, String> {
        let population = population(seed, SCALE, HELD_OUT, ctx)?;
        let mut order = population.train.clone();
        SplitMix64::new(seed).shuffle(&mut order);
        let held_out_hvs = ctx
            .tracer
            .leaf("hdc.encoding.pruned_encode", || {
                population
                    .distilled
                    .transform(&population.table, Some(&population.held_out))
            })
            .map_err(|e| format!("encode held-out rows: {e}"))?;
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tmp")
            .join(format!("ingest-{}", std::process::id()));
        Ok(Self {
            seed,
            population,
            order,
            held_out_hvs,
            dir,
            rounds: 0,
            first: None,
            ingest_s: Vec::new(),
            open_s: Vec::new(),
            recover_s: Vec::new(),
        })
    }

    fn round(&mut self, ctx: &mut Ctx) -> Round {
        self.rounds += 1;
        drop(fs::remove_dir_all(&self.dir));
        let Some(mut store) = ctx.checks.ok(
            "new_empty",
            HvStore::new_empty(Dim::new(SERVE_DIM), SHARD_CAPACITY),
        ) else {
            return Round {
                pass_s: 0.0,
                accuracy: 0.0,
            };
        };
        let Population {
            table, distilled, ..
        } = &self.population;

        let start = Instant::now();
        let mut next = 0;
        let order = &self.order;
        let mut stream = FnStream::new(|values: &mut Vec<f64>| {
            let &row = order.get(next)?;
            next += 1;
            values.extend_from_slice(table.row(row));
            Some(table.labels()[row])
        });
        let encoder = StreamEncoder::new(distilled.encoder()).with_micro_batch(MICRO_BATCH);
        let span = ctx.tracer.enter("hdc.stream.encode");
        let streamed = {
            let mut sink = Sink {
                ctx: &mut *ctx,
                store: &mut store,
                dir: &self.dir,
                population: &self.population,
                batch: Vec::with_capacity(MICRO_BATCH),
                labels: Vec::with_capacity(MICRO_BATCH),
                queries: 0,
            };
            encoder
                .encode_stream(&mut stream, &mut sink)
                .and_then(|n| sink.flush().map(|()| n))
        };
        ctx.tracer.exit(span);
        let ingest_s = start.elapsed().as_secs_f64();
        if let Some(n) = ctx.checks.ok("stream ingest", streamed) {
            ctx.checks
                .check(n == order.len() && store.n_rows() == n, || {
                    format!(
                        "ingested {n} of {} records, store holds {}",
                        order.len(),
                        store.n_rows()
                    )
                });
        }

        let t = Instant::now();
        let opened = ctx.tracer.leaf("serve.open", || HvStore::open(&self.dir));
        let open_s = t.elapsed().as_secs_f64();
        let accuracy = self.verify_reopen(ctx, &store, opened);

        let victim = ctx.tracer.leaf("bench.verify", || self.junk_one_shard());
        let t = Instant::now();
        let recovered = ctx
            .tracer
            .leaf("serve.recover", || HvStore::open(&self.dir));
        let recover_s = t.elapsed().as_secs_f64();
        if let (Some(victim), Some((_, report))) = (
            ctx.checks.ok("junk a shard", victim),
            ctx.checks.ok("recovery open", recovered),
        ) {
            ctx.tracer.count(
                "serve.recovery.quarantined",
                report.quarantined.len() as f64,
            );
            ctx.checks.check(
                report.kept.len() + report.quarantined.len() == report.total_shards
                    && report.quarantined.len() == 1
                    && report.quarantined[0].file == victim,
                || format!("recovery after junking {victim}: {report:?}"),
            );
        }

        self.ingest_s.push(ingest_s);
        self.open_s.push(open_s);
        self.recover_s.push(recover_s);
        Round {
            pass_s: ingest_s + open_s + recover_s,
            accuracy,
        }
    }

    fn report(&self) -> Vec<(&'static str, f64, &'static str)> {
        // The first round is the warm-up.
        let measured = |v: &[f64]| crate::stats::median(&v[v.len().min(1)..]);
        vec![
            (
                "ingest_records_per_s",
                self.order.len() as f64 / measured(&self.ingest_s).max(1e-12),
                "1/s",
            ),
            ("reopen_s", measured(&self.open_s), "s"),
            ("recover_s", measured(&self.recover_s), "s"),
            ("records_per_pass", self.order.len() as f64, "count"),
        ]
    }

    fn cleanup(&mut self) {
        drop(fs::remove_dir_all(&self.dir));
        if let Some(parent) = self.dir.parent() {
            // Only removes the directory when no other run is using it.
            drop(fs::remove_dir(parent));
        }
    }
}

impl ServeIngest {
    /// Checks the clean reopen against the in-memory store and the store
    /// against the first round's, and returns its accuracy on every
    /// held-out patient.
    fn verify_reopen(
        &mut self,
        ctx: &mut Ctx,
        store: &HvStore,
        opened: Result<(HvStore, hyperfex_serve::RecoveryReport), hyperfex_serve::ServeError>,
    ) -> f64 {
        let span = ctx.tracer.enter("bench.verify");
        let mut accuracy = 0.0;
        if let Some((reopened, report)) = ctx.checks.ok("clean reopen", opened) {
            ctx.checks
                .check(report.quarantined.is_empty() && reopened == *store, || {
                    format!("clean reopen differs from the in-memory store: {report:?}")
                });
            let sample = &self.held_out_hvs[..VERIFY_ROWS.min(self.held_out_hvs.len())];
            let (a, b) = (
                store.predict_batch(sample, K),
                reopened.predict_batch(sample, K),
            );
            ctx.checks.check(a.is_ok() && a == b, || {
                "reopened store answers differently from the in-memory store".to_string()
            });
        }
        if let Some((first, first_accuracy)) = &self.first {
            ctx.checks.check(store == first, || {
                "the same stream built a different store than in the first round".to_string()
            });
            accuracy = *first_accuracy;
        } else {
            let labels = self.population.table.labels();
            // In screening-sized batches: `predict_batch` holds a query ×
            // shard-rows distance matrix per shard, and all held-out
            // queries at once would set the run's peak memory, not ingest.
            let screened: Result<Vec<Vec<usize>>, _> = self
                .held_out_hvs
                .chunks(SCREEN_BATCH)
                .map(|batch| store.predict_batch(batch, K))
                .collect();
            if let Some(p) = ctx
                .checks
                .ok("held-out screening", screened.map(|b| b.concat()))
            {
                let correct = p
                    .iter()
                    .zip(&self.population.held_out)
                    .filter(|(&p, &row)| p == labels[row])
                    .count();
                accuracy = correct as f64 / p.len().max(1) as f64;
            }
            self.first = Some((store.clone(), accuracy));
        }
        ctx.tracer.exit(span);
        accuracy
    }

    /// Overwrites one seeded shard file with junk; returns its file name.
    fn junk_one_shard(&self) -> Result<String, String> {
        let paths = HvStore::shard_paths(&self.dir).map_err(|e| e.to_string())?;
        let mut rng = SplitMix64::new(self.seed ^ self.rounds);
        let index = rng.next_bounded(paths.len() as u64) as usize;
        let victim = paths.get(index).ok_or("no shard files")?;
        fs::write(victim, b"not a shard").map_err(|e| e.to_string())?;
        Ok(victim
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default())
    }
}
