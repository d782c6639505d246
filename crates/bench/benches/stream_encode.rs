//! Streaming encode throughput at the paper's dimensionality: the same
//! cohort pushed through `StreamEncoder` (O(dim) resident state) versus
//! the materializing `encode_batch` path, plus the incremental
//! `HvStore::append_batch` ingest the stream feeds, and the snapshot
//! checksum every rolling save runs over its files. The `bench-compare`
//! gate tracks these medians, so the single-pass pipeline cannot quietly
//! lose its throughput parity with batch encode.

use criterion::{criterion_group, criterion_main, Criterion};
use hyperfex_hdc::binary::Dim;
use hyperfex_hdc::encoding::{FeatureSpec, RecordEncoder, RecordSchema};
use hyperfex_hdc::rng::SplitMix64;
use hyperfex_hdc::stream::{BundlerSink, RowStream, StreamEncoder};
use std::hint::black_box;

const ROWS: usize = 512;

fn cohort() -> (RecordEncoder, Vec<Vec<f64>>, Vec<usize>) {
    let schema = RecordSchema::new(vec![
        FeatureSpec::continuous("glucose", 56.0, 198.0),
        FeatureSpec::continuous("bmi", 18.0, 50.0),
        FeatureSpec::continuous("age", 21.0, 81.0),
        FeatureSpec::binary("on_insulin"),
    ]);
    let encoder = RecordEncoder::new(Dim::PAPER, schema, 7).unwrap();
    let mut rng = SplitMix64::new(11);
    let rows = (0..ROWS)
        .map(|_| {
            vec![
                56.0 + rng.next_f64() * 142.0,
                18.0 + rng.next_f64() * 32.0,
                21.0 + rng.next_f64() * 60.0,
                f64::from(rng.next_bounded(2) as u32),
            ]
        })
        .collect();
    let labels = (0..ROWS).map(|i| i % 2).collect();
    (encoder, rows, labels)
}

fn bench_stream_encode(c: &mut Criterion) {
    let (encoder, rows, labels) = cohort();

    let mut g = c.benchmark_group("stream_encode_10k");
    g.sample_size(10);
    g.bench_function("batch_encode_512", |b| {
        b.iter(|| black_box(encoder.encode_batch(black_box(&rows)).unwrap()));
    });
    g.bench_function("stream_encode_512", |b| {
        let stream_encoder = StreamEncoder::new(&encoder);
        b.iter(|| {
            let mut stream = RowStream::new(&rows, &labels).unwrap();
            let mut sink = BundlerSink::new(encoder.dim());
            stream_encoder
                .encode_stream(&mut stream, &mut sink)
                .unwrap();
            black_box(sink.finish().unwrap())
        });
    });
    g.bench_function("serve_append_512", |b| {
        let encoded = encoder.encode_batch(&rows).unwrap();
        b.iter(|| {
            let mut store = hyperfex_serve::HvStore::new_empty(encoder.dim(), 128).unwrap();
            black_box(store.append_batch(black_box(&encoded), &labels).unwrap())
        });
    });
    g.finish();
}

fn bench_snapshot_crc(c: &mut Criterion) {
    // The per-section snapshot checksum over 1 MB, about two full shards
    // of the serving store's 2,048-bit bank.
    let mut rng = SplitMix64::new(13);
    let bytes: Vec<u8> = (0..1 << 20).map(|_| rng.next_u64() as u8).collect();
    let mut g = c.benchmark_group("snapshot");
    g.bench_function("crc32_1mb", |b| {
        b.iter(|| black_box(hyperfex_serve::snapshot::crc32(black_box(&bytes))));
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_stream_encode, bench_snapshot_crc
}
criterion_main!(benches);
