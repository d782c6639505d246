//! Parity of the lazy, word-parallel `ClassAccumulators` with the eager,
//! set-bit-walking oracle in `reference::EagerAccumulators`.
//!
//! A random interleaving of `grow`, signed `add`s, prototype reads,
//! predictions, clones, equality checks and serde round trips must leave
//! the lazy accumulators with the oracle's counts and prototypes at every
//! step — whatever the cache held when the clone or round trip was taken —
//! across the tail-word classes of the dimensionality.

use hyperfex_hdc::binary::{BinaryHypervector, Dim};
use hyperfex_hdc::classify::ClassAccumulators;
use hyperfex_hdc::reference::EagerAccumulators;
use hyperfex_hdc::rng::SplitMix64;
use proptest::prelude::*;

const DIMS: [usize; 6] = [1, 63, 64, 65, 2_000, 10_050];
const MAX_CLASSES: u64 = 4;

/// Asserts the lazy state reads exactly like the oracle, class by class.
fn assert_matches(lazy: &ClassAccumulators, eager: &EagerAccumulators) {
    assert_eq!(lazy.parts(), eager.parts());
    for class in 0..lazy.n_classes() {
        assert_eq!(
            lazy.prototype(class),
            eager.prototype(class),
            "class {class}"
        );
    }
    assert_eq!(lazy.prototype(lazy.n_classes()), None);
}

fn run_interleaving(dim: Dim, seed: u64, steps: usize) {
    let mut rng = SplitMix64::new(seed);
    let mut lazy = ClassAccumulators::new(dim);
    let mut eager = EagerAccumulators::new(dim);
    for _ in 0..steps {
        match rng.next_bounded(7) {
            0 => {
                let label = rng.next_bounded(MAX_CLASSES) as usize;
                lazy.grow(label);
                eager.grow(label);
            }
            1 | 2 if lazy.n_classes() > 0 => {
                let class = rng.next_bounded(lazy.n_classes() as u64) as usize;
                let hv = BinaryHypervector::random(dim, &mut rng);
                let weight = rng.next_bounded(7) as i32 - 3;
                lazy.add(class, &hv, weight);
                eager.add(class, &hv, weight);
            }
            3 if lazy.n_classes() > 0 => {
                let class = rng.next_bounded(lazy.n_classes() as u64) as usize;
                assert_eq!(lazy.prototype(class), eager.prototype(class));
                let query = BinaryHypervector::random(dim, &mut rng);
                let expected: Vec<usize> = (0..lazy.n_classes())
                    .map(|c| query.try_hamming(eager.prototype(c).unwrap()).unwrap())
                    .collect();
                assert_eq!(lazy.hammings(&query).unwrap(), expected);
                let nearest = (0..expected.len()).min_by_key(|&c| expected[c]).unwrap();
                assert_eq!(lazy.predict(&query).unwrap(), nearest);
            }
            4 => {
                let copy = lazy.clone();
                assert_eq!(copy, lazy);
                lazy = copy;
            }
            5 => {
                // Equality ignores which prototypes are cached.
                let fresh = {
                    let (ones, totals) = lazy.parts();
                    ClassAccumulators::from_parts(dim, ones.to_vec(), totals.to_vec()).unwrap()
                };
                assert_eq!(fresh, lazy);
                assert_matches(&fresh, &eager);
            }
            6 => {
                let json = serde_json::to_string(&lazy).unwrap();
                let back: ClassAccumulators = serde_json::from_str(&json).unwrap();
                assert_eq!(back, lazy);
                // The JSON still carries every prototype, as the eager
                // representation serialized it.
                let value = serde::Serialize::to_value(&lazy);
                let protos = value.get_field("prototypes").unwrap();
                let protos: Vec<BinaryHypervector> =
                    serde::Deserialize::from_value(protos).unwrap();
                assert_eq!(protos.len(), lazy.n_classes());
                for (class, proto) in protos.iter().enumerate() {
                    assert_eq!(Some(proto), eager.prototype(class));
                }
                lazy = back;
            }
            _ => {}
        }
    }
    assert_matches(&lazy, &eager);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lazy_accumulators_match_the_eager_oracle(
        seed in any::<u64>(),
        dim_index in 0usize..DIMS.len(),
        steps in 1usize..40,
    ) {
        run_interleaving(Dim::new(DIMS[dim_index]), seed, steps);
    }
}

#[test]
fn every_tail_word_class_matches_the_oracle() {
    for (i, &dim) in DIMS.iter().enumerate() {
        run_interleaving(Dim::new(dim), 0xACC0 + i as u64, 60);
    }
}

#[test]
fn accumulators_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ClassAccumulators>();
}
