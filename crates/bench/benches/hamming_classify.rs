//! Leave-one-out Hamming classification cost on both cohorts — the paper's
//! "most cost-effective approach" (§III-A): encoding plus one O(n²)
//! distance sweep, the symmetric top-k kernel `topk::top_k_loocv` that
//! `LeaveOneOut::run` calls.

use criterion::{criterion_group, criterion_main, Criterion};
use hyperfex::HammingModel;
use hyperfex_hdc::binary::Dim;
use std::hint::black_box;

fn bench_loocv(c: &mut Criterion) {
    let datasets = hyperfex::experiments::Datasets::generate(42).unwrap();
    let mut g = c.benchmark_group("hamming_loocv_10k");
    g.sample_size(10);
    g.bench_function("pima_r_392", |b| {
        b.iter(|| {
            black_box(
                HammingModel::new(Dim::PAPER, 42)
                    .evaluate_loocv(&datasets.pima_r)
                    .unwrap(),
            )
        });
    });
    g.bench_function("sylhet_520", |b| {
        b.iter(|| {
            black_box(
                HammingModel::new(Dim::PAPER, 42)
                    .evaluate_loocv(&datasets.sylhet)
                    .unwrap(),
            )
        });
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_loocv
}
criterion_main!(benches);
