//! Distillation kernels at the paper's 10,000-bit width: the column
//! gather that prunes hypervectors and banks, the remapped pruned encoder,
//! and the batch Hamming top-k predict kernel at full vs pruned width — the
//! latency side of the `reports/pareto.json` trade.

use criterion::{criterion_group, criterion_main, Criterion};
use hyperfex_hdc::binary::Dim;
use hyperfex_hdc::bitmatrix::BitMatrix;
use hyperfex_hdc::distill::BitSelection;
use hyperfex_hdc::encoding::{FeatureSpec, LinearEncoder, PrunedLinearEncoder, RecordSchema};
use hyperfex_hdc::prelude::*;
use hyperfex_hdc::topk::top_k;
use std::hint::black_box;

/// Serving widths of the Pareto ladder exercised here.
const PRUNED_BITS: usize = 2_000;
/// Bank rows — roughly one cohort.
const BANK_ROWS: usize = 512;
/// Queries per predict batch.
const BATCH: usize = 16;
/// Neighbours per query, as the serving plane votes.
const K: usize = 5;

fn bench_gather(c: &mut Criterion) {
    let dim = Dim::PAPER;
    let mut rng = SplitMix64::new(17);
    let hv = BinaryHypervector::random(dim, &mut rng);
    let rows: Vec<BinaryHypervector> = (0..64)
        .map(|_| BinaryHypervector::random(dim, &mut rng))
        .collect();
    let bank = BitMatrix::from_hypervectors(&rows).unwrap();
    let sel = BitSelection::random(dim, PRUNED_BITS, 23).unwrap();

    let mut g = c.benchmark_group("distill_10k");
    g.bench_function("gather_hv_to_2k", |bch| {
        bch.iter(|| black_box(sel.gather_hypervector(black_box(&hv)).unwrap()));
    });
    g.bench_function("gather_bank64_to_2k", |bch| {
        bch.iter(|| black_box(sel.gather_matrix(black_box(&bank)).unwrap()));
    });
    g.finish();
}

fn bench_pruned_encode(c: &mut Criterion) {
    let dim = Dim::PAPER;
    let full = LinearEncoder::new(dim, 0.0, 200.0, 29).unwrap();
    let sel = BitSelection::random(dim, PRUNED_BITS, 31).unwrap();
    let pruned = PrunedLinearEncoder::new(&full, &sel).unwrap();
    let schema = RecordSchema::new(vec![
        FeatureSpec::continuous("glucose", 56.0, 198.0),
        FeatureSpec::continuous("bmi", 18.0, 68.0),
        FeatureSpec::binary("polyuria"),
    ]);
    let record = hyperfex_hdc::encoding::RecordEncoder::new(dim, schema, 29)
        .unwrap()
        .prune(&sel)
        .unwrap();
    let row = [127.3, 33.6, 1.0];

    let mut g = c.benchmark_group("pruned_encode_2k");
    g.bench_function("linear_encode_value", |bch| {
        bch.iter(|| black_box(pruned.encode(black_box(113.7))));
    });
    g.bench_function("full_linear_encode_value", |bch| {
        bch.iter(|| black_box(full.encode(black_box(113.7))));
    });
    g.bench_function("record_encode", |bch| {
        bch.iter(|| black_box(record.encode_record(black_box(&row)).unwrap()));
    });
    g.finish();
}

fn bench_pruned_predict(c: &mut Criterion) {
    let dim = Dim::PAPER;
    let mut rng = SplitMix64::new(37);
    let rows: Vec<BinaryHypervector> = (0..BANK_ROWS)
        .map(|_| BinaryHypervector::random(dim, &mut rng))
        .collect();
    let bank = BitMatrix::from_hypervectors(&rows).unwrap();
    let queries = BitMatrix::from_hypervectors(&rows[..BATCH]).unwrap();
    let sel = BitSelection::random(dim, PRUNED_BITS, 41).unwrap();
    let pruned_bank = sel.gather_matrix(&bank).unwrap();
    let pruned_queries = sel.gather_matrix(&queries).unwrap();

    let mut g = c.benchmark_group("predict_batch16_rows512");
    g.bench_function("hamming_10k", |bch| {
        bch.iter(|| black_box(top_k(black_box(&queries), black_box(&bank), K, None).unwrap()));
    });
    g.bench_function("hamming_pruned_2k", |bch| {
        bch.iter(|| {
            black_box(top_k(black_box(&pruned_queries), black_box(&pruned_bank), K, None).unwrap())
        });
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_gather, bench_pruned_encode, bench_pruned_predict
}
criterion_main!(benches);
