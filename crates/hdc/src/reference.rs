//! Scalar (bit-at-a-time) reference implementations of the word-level
//! kernels.
//!
//! Every routine here is the naive per-bit formulation of an operation that
//! [`crate::binary`], [`crate::bundle`] or [`crate::encoding`] implements
//! with packed word arithmetic. They are deliberately simple enough to
//! audit by eye and serve as oracles: property tests assert bit-for-bit
//! equality between each kernel and its scalar reference across
//! dimensionalities, including non-multiple-of-64 tail-word cases.

use crate::binary::BinaryHypervector;
use crate::bitmatrix::BitMatrix;
use crate::distill::BitSelection;
use crate::encoding::LinearEncoder;
use crate::error::HdcError;
use crate::topk::Neighbour;

/// Per-bit cyclic rotation: bit `i` of the input moves to `(i + k) % d`.
#[must_use]
pub fn permute(hv: &BinaryHypervector, k: usize) -> BinaryHypervector {
    let d = hv.len();
    let k = k % d;
    let mut out = BinaryHypervector::zeros(hv.dim());
    for i in 0..d {
        if hv.get(i) {
            out.set((i + k) % d, true);
        }
    }
    out
}

/// Per-bit level encoding: clone the seed, then flip the first
/// `flips/2` entries of each flip list one bit at a time.
#[must_use]
pub fn linear_encode(enc: &LinearEncoder, t: f64) -> BinaryHypervector {
    let half = enc.flips_for(t) / 2;
    let (ones, zeros) = enc.flip_order();
    let mut hv = enc.seed_hypervector().clone();
    for &i in &ones[..half] {
        hv.flip(i as usize);
    }
    for &i in &zeros[..half] {
        hv.flip(i as usize);
    }
    hv
}

/// Per-bit weighted majority vote with the paper's tie → 1 rule: bit `i`
/// of the result is 1 iff `2·Σ weightⱼ·bitⱼᵢ ≥ Σ weightⱼ`.
pub fn weighted_majority(
    inputs: &[(BinaryHypervector, u32)],
) -> Result<BinaryHypervector, HdcError> {
    let (first, _) = inputs.first().ok_or(HdcError::EmptyInput)?;
    let dim = first.dim();
    let mut total = 0u64;
    for (hv, w) in inputs {
        if hv.dim() != dim {
            return Err(HdcError::DimensionMismatch {
                left: dim.get(),
                right: hv.dim().get(),
            });
        }
        total += u64::from(*w);
    }
    if total == 0 {
        return Err(HdcError::EmptyInput);
    }
    let mut out = BinaryHypervector::zeros(dim);
    for i in 0..dim.get() {
        let count: u64 = inputs
            .iter()
            .filter(|(hv, _)| hv.get(i))
            .map(|(_, w)| u64::from(*w))
            .sum();
        if 2 * count >= total {
            out.set(i, true);
        }
    }
    Ok(out)
}

/// Per-bit unweighted majority vote (every input carries one vote).
pub fn majority(inputs: &[BinaryHypervector]) -> Result<BinaryHypervector, HdcError> {
    let weighted: Vec<(BinaryHypervector, u32)> = inputs.iter().map(|hv| (hv.clone(), 1)).collect();
    weighted_majority(&weighted)
}

/// Per-bit dot product of two [`BitMatrix`] rows: counts positions where
/// both bits are set, one bit at a time.
#[must_use]
pub fn popcount_dot(m: &BitMatrix, a: usize, b: usize) -> usize {
    (0..m.dim().get())
        .filter(|&c| m.get(a, c) && m.get(b, c))
        .count()
}

/// Per-bit Hamming distance between two [`BitMatrix`] rows.
#[must_use]
pub fn row_hamming(m: &BitMatrix, a: usize, b: usize) -> usize {
    (0..m.dim().get())
        .filter(|&c| m.get(a, c) != m.get(b, c))
        .count()
}

/// Per-bit weighted sum of a [`BitMatrix`] row: `Σⱼ wⱼ·xⱼ` accumulated in
/// naive left-to-right order. The word-level kernel uses four accumulator
/// lanes, so parity tests against this oracle must allow a relative
/// floating-point tolerance.
#[must_use]
pub fn masked_weight_sum(m: &BitMatrix, row: usize, weights: &[f64]) -> f64 {
    (0..m.dim().get())
        .filter(|&c| m.get(row, c))
        .map(|c| weights[c])
        .sum()
}

/// Per-bit scatter-add oracle: `out[c] += delta` for every set bit of the
/// given [`BitMatrix`] row. Additions are exact duals of each other in the
/// kernel and the oracle (one add per set bit, same order), so parity
/// tests may use bit equality.
pub fn masked_scatter_add(m: &BitMatrix, row: usize, delta: f64, out: &mut [f64]) {
    for c in (0..m.dim().get()).filter(|&c| m.get(row, c)) {
        out[c] += delta;
    }
}

/// Per-bit column gather: output bit `p` is input bit `selection.indices()[p]`,
/// read and written one bit at a time.
#[must_use]
pub fn gather_hypervector(selection: &BitSelection, hv: &BinaryHypervector) -> BinaryHypervector {
    let mut out = BinaryHypervector::zeros(selection.dim());
    for (p, &i) in selection.indices().iter().enumerate() {
        out.set(p, hv.get(i as usize));
    }
    out
}

/// Per-bit column gather over a [`BitMatrix`]: every row is gathered
/// independently with [`gather_hypervector`] semantics.
#[must_use]
pub fn gather_matrix(selection: &BitSelection, m: &BitMatrix) -> BitMatrix {
    let mut out = BitMatrix::zeros(m.n_rows(), selection.dim());
    for r in 0..m.n_rows() {
        for (p, &i) in selection.indices().iter().enumerate() {
            out.set(r, p, m.get(r, i as usize));
        }
    }
    out
}

/// Per-bit symmetric pairwise Hamming matrix, row-major `n·n` entries.
#[must_use]
pub fn pairwise_hamming(m: &BitMatrix) -> Vec<u32> {
    let n = m.n_rows();
    let mut out = vec![0u32; n * n];
    for i in 0..n {
        for j in 0..n {
            out[i * n + j] = row_hamming(m, i, j) as u32;
        }
    }
    out
}

/// Per-bit k-nearest-neighbour oracle: for every query row, the per-bit
/// Hamming distance to every bank row except `exclude`, fully sorted in
/// `(distance, row)` order and cut to the first `k`.
#[must_use]
pub fn top_k(
    queries: &BitMatrix,
    bank: &BitMatrix,
    k: usize,
    exclude: Option<usize>,
) -> Vec<Vec<Neighbour>> {
    (0..queries.n_rows())
        .map(|q| {
            let mut all: Vec<Neighbour> = (0..bank.n_rows())
                .filter(|&row| Some(row) != exclude)
                .map(|row| Neighbour {
                    distance: (0..bank.dim().get())
                        .filter(|&c| queries.get(q, c) != bank.get(row, c))
                        .count() as u32,
                    row,
                })
                .collect();
            all.sort_unstable();
            all.truncate(k);
            all
        })
        .collect()
}

/// Eager class-accumulator oracle: the per-class ones/total state of
/// [`crate::classify::ClassAccumulators`] with the opposite cost model.
/// Every [`EagerAccumulators::add`] walks the set bits one at a time with
/// `trailing_zeros` and requantises the class's prototype bit by bit on
/// the spot, so the lazy cache and the word-parallel scatter can be
/// checked against it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EagerAccumulators {
    dim: crate::binary::Dim,
    ones: Vec<Vec<i32>>,
    totals: Vec<i32>,
    prototypes: Vec<BinaryHypervector>,
}

impl EagerAccumulators {
    /// An empty accumulator set for `dim`-bit hypervectors.
    #[must_use]
    pub fn new(dim: crate::binary::Dim) -> Self {
        Self {
            dim,
            ones: Vec::new(),
            totals: Vec::new(),
            prototypes: Vec::new(),
        }
    }

    /// Grows the class set so `label` is addressable; a zero class
    /// quantises to all-ones (the `0 ≥ 0` tie).
    pub fn grow(&mut self, label: usize) {
        while self.ones.len() <= label {
            self.ones.push(vec![0; self.dim.get()]);
            self.totals.push(0);
            self.prototypes.push(BinaryHypervector::ones(self.dim));
        }
    }

    /// Adds `hv` to `class` with signed `weight`, walking set bits, then
    /// requantises that class: bit `i` is `2·ones[i] ≥ total`.
    pub fn add(&mut self, class: usize, hv: &BinaryHypervector, weight: i32) {
        for (word_idx, &word) in hv.words().iter().enumerate() {
            let mut mask = word;
            while mask != 0 {
                self.ones[class][word_idx * 64 + mask.trailing_zeros() as usize] += weight;
                mask &= mask - 1;
            }
        }
        self.totals[class] += weight;
        let total = self.totals[class];
        let mut proto = BinaryHypervector::zeros(self.dim);
        for (i, &count) in self.ones[class].iter().enumerate() {
            if 2 * count >= total {
                proto.set(i, true);
            }
        }
        self.prototypes[class] = proto;
    }

    /// The per-class set-bit counts and totals.
    #[must_use]
    pub fn parts(&self) -> (&[Vec<i32>], &[i32]) {
        (&self.ones, &self.totals)
    }

    /// The quantised prototype of `class`, if allocated.
    #[must_use]
    pub fn prototype(&self, class: usize) -> Option<&BinaryHypervector> {
        self.prototypes.get(class)
    }
}
