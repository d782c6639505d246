//! Online trainer costs: single-record `update` latency (the clinical
//! add-a-patient path) and pocketed batch fitting on a paper-scale
//! encoded cohort — the numbers behind the "integer prototype updates
//! instead of a retraining pass" claim.

use criterion::{criterion_group, criterion_main, Criterion};
use hyperfex::HdcFeatureExtractor;
use hyperfex_hdc::binary::{BinaryHypervector, Dim};
use hyperfex_hdc::classify::{
    fit_pocketed, ClassAccumulators, LvqTrainer, OnlineTrainer, PassiveAggressiveTrainer,
    PerceptronTrainer,
};
use hyperfex_hdc::rng::SplitMix64;
use std::hint::black_box;

/// A two-class stream of noisy paper-dimension records.
fn stream(n: usize) -> Vec<(BinaryHypervector, usize)> {
    let mut rng = SplitMix64::new(7);
    let a = BinaryHypervector::random(Dim::PAPER, &mut rng);
    let b = a.complement();
    (0..n)
        .map(|i| {
            let base = if i % 2 == 0 { &a } else { &b };
            let noisy = base.flip_balanced(Dim::PAPER.get() / 10, &mut rng).unwrap();
            (noisy, i % 2)
        })
        .collect()
}

fn bench_single_update(c: &mut Criterion) {
    let records = stream(64);
    let mut g = c.benchmark_group("online_trainer_10k");
    let mut run = |name: &str, mut trainer: Box<dyn OnlineTrainer>| {
        // Warm the trainer so the benchmark measures steady-state updates
        // (predict + occasional corrective accumulate), not cold seeding.
        for (hv, label) in &records {
            trainer.update(hv, *label).unwrap();
        }
        let mut i = 0usize;
        g.bench_function(format!("{name}/single_update"), |b| {
            b.iter(|| {
                let (hv, label) = &records[i % records.len()];
                i += 1;
                black_box(trainer.update(hv, *label).unwrap())
            });
        });
    };
    run("perceptron", Box::new(PerceptronTrainer::new(Dim::PAPER)));
    run(
        "passive_aggressive",
        Box::new(PassiveAggressiveTrainer::new(Dim::PAPER)),
    );
    run("lvq", Box::new(LvqTrainer::new(Dim::PAPER)));
    g.finish();
}

fn bench_fit_pocketed(c: &mut Criterion) {
    // Paper-scale cohort: Pima R encoded once at 10,000 bits; each
    // iteration refits from scratch (pocketed, up to 10 epochs with
    // early stop), so the row tracks epochs-to-converge cost.
    let datasets = hyperfex::experiments::Datasets::generate(42).unwrap();
    let mut extractor = HdcFeatureExtractor::new(Dim::PAPER, 42);
    let hvs = extractor.fit_transform(&datasets.pima_r).unwrap();
    let labels = datasets.pima_r.labels().to_vec();
    let mut g = c.benchmark_group("online_trainer_fit_10k");
    g.sample_size(10);
    g.bench_function("perceptron/fit_pocketed_pima_r_392", |b| {
        b.iter(|| {
            let mut trainer = PerceptronTrainer::new(Dim::PAPER);
            black_box(fit_pocketed(&mut trainer, &hvs, &labels, 10).unwrap())
        });
    });
    g.finish();
}

fn bench_accumulator_add(c: &mut Criterion) {
    // Bulk accumulation, the path a store build, an append or a
    // distillation fit takes: 4,096 paper-dimension rows into two classes,
    // then one read of each prototype.
    let records = stream(4_096);
    let mut g = c.benchmark_group("accumulator_10k");
    g.sample_size(10);
    g.bench_function("add_4096", |b| {
        b.iter(|| {
            let mut acc = ClassAccumulators::new(Dim::PAPER);
            acc.grow(1);
            for (hv, label) in &records {
                acc.add(*label, hv, 1);
            }
            black_box((acc.prototype(0).cloned(), acc.prototype(1).cloned()))
        });
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_single_update, bench_fit_pocketed, bench_accumulator_add
}
criterion_main!(benches);
