//! Shared integer class-accumulator state for the online trainers.
//!
//! Each class keeps a signed per-bit count of *set* contributions plus one
//! scalar total weight. For a class whose examples were added with signed
//! weights `w`, the classic centroid superposition at bit `i` (set → `+w`,
//! clear → `-w`) is recoverable as `s_i = 2·ones_i − total`, so the
//! centroid quantisation rule `s_i ≥ 0` becomes `2·ones_i ≥ total` — ties
//! still quantise to 1, bit-identical to [`CentroidClassifier`]'s rule.
//!
//! Storing set-counts instead of full ±1 superpositions is what makes the
//! online path fast: an update touches the incoming hypervector's words
//! (a branch-free per-bit scatter over each full word) plus a single
//! scalar, instead of all `d` counters of every class.
//!
//! Prototypes are derived state, computed lazily: an update only clears the
//! touched class's cached prototype, and the next read requantises it. Bulk
//! accumulation (a store build, an append, a distillation fit) therefore
//! pays for the data, not for one requantisation per record.
//!
//! [`CentroidClassifier`]: crate::classify::CentroidClassifier

use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use crate::binary::{debug_assert_tail_invariant, BinaryHypervector, Dim, WORD_BITS};
use crate::error::HdcError;

/// Integer class superpositions with per-class quantised prototypes.
///
/// Invariant: `ones`, `totals` and `prototypes` always have the same
/// length, every `ones[c]` has `dim` entries, and a filled `prototypes[c]`
/// is the quantisation of class `c`'s current accumulator state (an empty
/// slot is requantised on its next read).
///
/// Equality and serialization see only the accumulator state — `dim`,
/// `ones` and `totals` — never which prototypes happen to be cached.
///
/// The type is public so serving-plane stores can snapshot trainer state:
/// [`ClassAccumulators::parts`] exposes the raw integer accumulators for
/// serialization and [`ClassAccumulators::from_parts`] revalidates them on
/// load.
#[derive(Debug, Clone)]
pub struct ClassAccumulators {
    dim: Dim,
    /// Per class, per bit: signed sum of weights of contributions whose
    /// hypervector had that bit *set*.
    ones: Vec<Vec<i32>>,
    /// Per class: signed sum of all contribution weights.
    totals: Vec<i32>,
    /// Per class: the quantised prototype, filled on first read and
    /// cleared by every `add` to that class.
    prototypes: Vec<OnceLock<BinaryHypervector>>,
}

impl PartialEq for ClassAccumulators {
    fn eq(&self, other: &Self) -> bool {
        self.dim == other.dim && self.ones == other.ones && self.totals == other.totals
    }
}

impl Eq for ClassAccumulators {}

/// Emits `dim`, `ones`, `totals` and the (forced) `prototypes`, the same
/// JSON the eager representation serialized.
impl Serialize for ClassAccumulators {
    fn to_value(&self) -> serde::Value {
        let prototypes: Vec<&BinaryHypervector> = self.prototypes().collect();
        serde::Value::Map(vec![
            ("dim".to_string(), self.dim.to_value()),
            ("ones".to_string(), self.ones.to_value()),
            ("totals".to_string(), self.totals.to_value()),
            ("prototypes".to_string(), prototypes.to_value()),
        ])
    }
}

/// Revalidates through [`ClassAccumulators::from_parts`]; serialized
/// prototypes are ignored and requantised on demand.
impl Deserialize for ClassAccumulators {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let field = |name: &str| {
            v.get_field(name).ok_or_else(|| {
                serde::DeError(format!("missing field `{name}` of ClassAccumulators"))
            })
        };
        let dim = Dim::from_value(field("dim")?)?;
        let ones = Vec::from_value(field("ones")?)?;
        let totals = Vec::from_value(field("totals")?)?;
        Self::from_parts(dim, ones, totals).map_err(|e| serde::DeError(e.to_string()))
    }
}

impl ClassAccumulators {
    /// Creates an empty accumulator set for `dim`-bit hypervectors.
    #[must_use]
    pub fn new(dim: Dim) -> Self {
        Self {
            dim,
            ones: Vec::new(),
            totals: Vec::new(),
            prototypes: Vec::new(),
        }
    }

    /// The hypervector dimensionality.
    #[must_use]
    pub fn dim(&self) -> Dim {
        self.dim
    }

    /// Number of classes currently allocated.
    #[must_use]
    pub fn n_classes(&self) -> usize {
        self.ones.len()
    }

    /// Discards all accumulated state, keeping the dimensionality.
    pub fn reset(&mut self) {
        self.ones.clear();
        self.totals.clear();
        self.prototypes.clear();
    }

    /// Returns a typed error unless `hv` matches the configured dimension.
    pub fn check_dim(&self, hv: &BinaryHypervector) -> Result<(), HdcError> {
        if hv.dim() == self.dim {
            Ok(())
        } else {
            Err(HdcError::DimensionMismatch {
                left: self.dim.get(),
                right: hv.dim().get(),
            })
        }
    }

    /// Grows the class set so `label` is addressable. New classes start
    /// with a zero superposition, which quantises to all-ones under the
    /// `2·ones ≥ total` tie rule (0 ≥ 0).
    pub fn grow(&mut self, label: usize) {
        if label >= self.ones.len() {
            self.ones.resize(label + 1, vec![0i32; self.dim.get()]);
            self.totals.resize(label + 1, 0);
            self.prototypes.resize_with(label + 1, OnceLock::new);
        }
    }

    /// Adds `hv` to class `class` with signed `weight` and clears that
    /// class's cached prototype (only that one — classes quantise
    /// independently); the next read requantises it.
    ///
    /// Each full word scatters branch-free into its 64 counters, in two
    /// 32-bit halves the compiler vectorises; the partial tail word walks
    /// its set bits with `trailing_zeros`. An update costs O(d) adds with
    /// no data-dependent branch and no allocation.
    pub fn add(&mut self, class: usize, hv: &BinaryHypervector, weight: i32) {
        debug_assert!(class < self.ones.len(), "grow() must precede add()");
        let (Some(ones), Some(total), Some(prototype)) = (
            self.ones.get_mut(class),
            self.totals.get_mut(class),
            self.prototypes.get_mut(class),
        ) else {
            return;
        };
        scatter_add(ones, hv.words(), weight);
        *total += weight;
        prototype.take();
    }

    /// The quantised prototype of `class`, if allocated; requantised on
    /// the first read after an update.
    #[must_use]
    pub fn prototype(&self, class: usize) -> Option<&BinaryHypervector> {
        let (slot, ones, &total) = (
            self.prototypes.get(class)?,
            self.ones.get(class)?,
            self.totals.get(class)?,
        );
        Some(slot.get_or_init(|| quantize(self.dim, ones, total)))
    }

    /// Every class prototype in class order, requantising stale ones.
    fn prototypes(&self) -> impl Iterator<Item = &BinaryHypervector> {
        self.prototypes
            .iter()
            .zip(self.ones.iter().zip(&self.totals))
            .map(|(slot, (ones, &total))| slot.get_or_init(|| quantize(self.dim, ones, total)))
    }

    /// Hamming distance from `query` to every class prototype.
    pub fn hammings(&self, query: &BinaryHypervector) -> Result<Vec<usize>, HdcError> {
        if self.prototypes.is_empty() {
            return Err(HdcError::NotFitted);
        }
        self.prototypes().map(|p| query.try_hamming(p)).collect()
    }

    /// Nearest-prototype prediction; ties break to the lowest class index,
    /// matching [`CentroidClassifier::predict`].
    ///
    /// [`CentroidClassifier::predict`]: crate::classify::CentroidClassifier::predict
    pub fn predict(&self, query: &BinaryHypervector) -> Result<usize, HdcError> {
        if self.prototypes.is_empty() {
            return Err(HdcError::NotFitted);
        }
        let mut best = (usize::MAX, 0usize);
        for (c, proto) in self.prototypes().enumerate() {
            let d = query.try_hamming(proto)?;
            if d < best.0 {
                best = (d, c);
            }
        }
        Ok(best.1)
    }

    /// The raw accumulator state — per-class set-bit counts and scalar
    /// totals — for serialization. Prototypes are derived state and are
    /// deliberately not exposed: [`ClassAccumulators::from_parts`]
    /// recomputes them, so a snapshot cannot smuggle in a prototype that
    /// disagrees with its accumulators.
    #[must_use]
    pub fn parts(&self) -> (&[Vec<i32>], &[i32]) {
        (&self.ones, &self.totals)
    }

    /// Rebuilds an accumulator set from raw parts, revalidating every
    /// invariant: `ones` and `totals` must have the same class count and
    /// every per-class count vector must have exactly `dim` entries.
    /// Prototypes are requantised on first read.
    pub fn from_parts(dim: Dim, ones: Vec<Vec<i32>>, totals: Vec<i32>) -> Result<Self, HdcError> {
        if ones.len() != totals.len() {
            return Err(HdcError::InvalidConfig(format!(
                "accumulator parts disagree on class count: {} ones vectors vs {} totals",
                ones.len(),
                totals.len()
            )));
        }
        if let Some((bad, counts)) = ones.iter().enumerate().find(|(_, o)| o.len() != dim.get()) {
            return Err(HdcError::InvalidConfig(format!(
                "accumulator class {bad} has {} per-bit counts, expected dim {dim}",
                counts.len()
            )));
        }
        let mut prototypes = Vec::new();
        prototypes.resize_with(ones.len(), OnceLock::new);
        Ok(Self {
            dim,
            ones,
            totals,
            prototypes,
        })
    }
}

/// `ones[i] += weight` for every set bit `i` of `words`.
///
/// Full words take a branch-free scatter: each 32-bit half adds
/// `bit · weight` to its 32 counters, a fixed-trip loop the compiler turns
/// into vector shifts, masks and adds. Only a partial tail word (dim not a
/// multiple of 64) walks its set bits with `trailing_zeros`.
fn scatter_add(ones: &mut [i32], words: &[u64], weight: i32) {
    let full_words = ones.len() / WORD_BITS;
    let mut full = ones.chunks_exact_mut(WORD_BITS);
    for (counts, &word) in (&mut full).zip(words) {
        // lint: cast-ok (truncation keeps the low 32 bits, the shift the high 32)
        let halves = [word as u32, (word >> 32) as u32];
        for (half_counts, half) in counts.chunks_exact_mut(32).zip(halves) {
            for (j, count) in half_counts.iter_mut().enumerate() {
                // lint: cast-ok (a single bit, 0 or 1)
                *count += ((half >> j) & 1) as i32 * weight;
            }
        }
    }
    let tail = full.into_remainder();
    if let Some(&word) = words.get(full_words) {
        let mut mask = word;
        while mask != 0 {
            if let Some(count) = tail.get_mut(mask.trailing_zeros() as usize) {
                *count += weight;
            }
            mask &= mask - 1;
        }
    }
}

/// The quantised prototype of one class: bit `i` is `2·ones[i] ≥ total`,
/// packed a word at a time.
fn quantize(dim: Dim, ones: &[i32], total: i32) -> BinaryHypervector {
    let mut hv = BinaryHypervector::zeros(dim);
    for (word, counts) in hv.words_mut().iter_mut().zip(ones.chunks(WORD_BITS)) {
        *word = counts
            .iter()
            .enumerate()
            .fold(0u64, |w, (j, &o)| w | (u64::from(2 * o >= total) << j));
    }
    // Counters exist only below dim, so no tail bit was set.
    debug_assert_tail_invariant(dim, hv.words());
    hv
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hv(dim: Dim, bits: &[usize]) -> BinaryHypervector {
        let mut v = BinaryHypervector::zeros(dim);
        for &b in bits {
            v.set(b, true);
        }
        v
    }

    #[test]
    fn zero_class_quantises_to_all_ones() {
        let dim = Dim::new(70);
        let mut acc = ClassAccumulators::new(dim);
        acc.grow(0);
        assert_eq!(acc.prototype(0).unwrap(), &BinaryHypervector::ones(dim));
    }

    #[test]
    fn add_matches_centroid_sign_rule() {
        // Two examples: bit 3 set twice (s=+2 → 1), bit 5 set once
        // (s=0, tie → 1), bit 7 never set (s=-2 → 0).
        let dim = Dim::new(64);
        let mut acc = ClassAccumulators::new(dim);
        acc.grow(0);
        acc.add(0, &hv(dim, &[3, 5]), 1);
        acc.add(0, &hv(dim, &[3]), 1);
        let p = acc.prototype(0).unwrap();
        assert!(p.get(3));
        assert!(p.get(5));
        assert!(!p.get(7));
    }

    #[test]
    fn subtract_reverses_add() {
        let dim = Dim::new(130);
        let mut acc = ClassAccumulators::new(dim);
        acc.grow(1);
        let x = hv(dim, &[0, 64, 129]);
        let before = acc.prototype(1).unwrap().clone();
        acc.add(1, &x, 3);
        acc.add(1, &x, -3);
        assert_eq!(acc.prototype(1).unwrap(), &before);
    }

    #[test]
    fn predict_breaks_ties_to_lowest_class() {
        let dim = Dim::new(64);
        let mut acc = ClassAccumulators::new(dim);
        acc.grow(1);
        // Both classes still hold the all-ones prototype: equidistant.
        assert_eq!(acc.predict(&hv(dim, &[1])).unwrap(), 0);
    }

    #[test]
    fn unfitted_predict_errors() {
        let acc = ClassAccumulators::new(Dim::new(64));
        let q = BinaryHypervector::zeros(Dim::new(64));
        assert_eq!(acc.predict(&q), Err(HdcError::NotFitted));
        assert_eq!(acc.hammings(&q), Err(HdcError::NotFitted));
    }
}
