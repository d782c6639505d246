//! The one Hamming top-k kernel behind every k-nearest-neighbour path.
//!
//! Leave-one-out validation, [`crate::classify::HammingKnnClassifier`],
//! the ML crate's packed k-NN model and the serving plane's shard scan all
//! ask the same question: for each query row, which `k` bank rows are
//! nearest in Hamming distance? This module answers it in two shapes.
//!
//! * [`top_k`] — rectangular: every query row against every bank row,
//!   optionally skipping one bank row. It is fused: each distance is
//!   tested against that query's current k-th best as soon as it is
//!   computed, so no Q×N distance matrix is built and memory is O(Q·k)
//!   per share.
//! * [`top_k_loocv`] — symmetric leave-one-out: every bank row against
//!   every *other* bank row. Each unordered pair `i < j` is computed once
//!   and offered to the top-k of both rows, half the popcounts of the
//!   rectangular scan.
//!
//! **Tie order.** Neighbours compare by `(distance, row)` ([`Neighbour`]'s
//! derived order). Rows are distinct, so this is a total order on the
//! candidates of a query and the `k` smallest are unique: splitting the
//! scan into shares and merging them cannot change the result. Output is
//! bit-identical for every worker count.
//!
//! **Parallel region.** Work is cut into at most
//! [`rayon::current_num_threads`] shares, with no share below
//! `GRAIN_WORDS` popcount words; a call with less than two grains of work
//! (one query against a few hundred 10k-bit rows) runs inline on the
//! calling thread.
//! Otherwise the calling thread runs share 0 itself and spawns one thread
//! per further share. Each share writes only its own flat candidate buffer
//! (one `k`-slot list per output row), all of them allocated by the caller
//! before the region in one block; the shares allocate nothing. The caller
//! then merges the buffers list by list.

use crate::binary::{BinaryHypervector, Dim};
use crate::bitmatrix::{hamming_words, BitMatrix};
use crate::error::HdcError;
use std::ops::Range;
use std::sync::OnceLock;

/// A bank row near a query. The derived order — distance, then row — is
/// the tie order of every k-NN path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Neighbour {
    /// Hamming distance to the query.
    pub distance: u32,
    /// Index of the bank row.
    pub row: usize,
}

/// Filler of an unused slot: orders after every real neighbour (a real
/// distance is at most the dimension, far below `u32::MAX`).
const EMPTY: Neighbour = Neighbour {
    distance: u32::MAX,
    row: usize::MAX,
};

/// Popcount words a share must have before a thread is spawned for it:
/// about 130 µs of scan at ~1 ns per word against ~30 µs per spawn.
const GRAIN_WORDS: usize = 1 << 17;

/// Row storage the kernel scans: anything that hands out packed rows of
/// one common bit width.
pub trait PackedRows: Sync {
    /// Number of rows.
    fn n_rows(&self) -> usize;

    /// The packed words of each row in `rows`, in order; `rows` must lie
    /// within `0..n_rows()`.
    fn rows(&self, rows: Range<usize>) -> impl Iterator<Item = &[u64]>;

    /// The bit width every row shares, `None` when the storage has no
    /// rows to take it from.
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the rows disagree.
    fn common_dim(&self) -> Result<Option<Dim>, HdcError>;
}

impl PackedRows for BitMatrix {
    fn n_rows(&self) -> usize {
        BitMatrix::n_rows(self)
    }

    // lint: index-ok (the trait contract bounds rows within 0..n_rows)
    fn rows(&self, rows: Range<usize>) -> impl Iterator<Item = &[u64]> {
        let width = self.words_per_row().max(1);
        self.raw_words()[rows.start * width..rows.end * width].chunks_exact(width)
    }

    fn common_dim(&self) -> Result<Option<Dim>, HdcError> {
        Ok(Some(self.dim()))
    }
}

impl PackedRows for [BinaryHypervector] {
    fn n_rows(&self) -> usize {
        self.len()
    }

    // lint: index-ok (the trait contract bounds rows within 0..n_rows = 0..len)
    fn rows(&self, rows: Range<usize>) -> impl Iterator<Item = &[u64]> {
        self[rows].iter().map(BinaryHypervector::words)
    }

    fn common_dim(&self) -> Result<Option<Dim>, HdcError> {
        let Some(first) = self.first() else {
            return Ok(None);
        };
        let dim = first.dim();
        match self.iter().find(|hv| hv.dim() != dim) {
            Some(bad) => Err(HdcError::DimensionMismatch {
                left: dim.get(),
                right: bad.dim().get(),
            }),
            None => Ok(Some(dim)),
        }
    }
}

/// A bank split into segments, such as the serving plane's shards. Rows
/// are numbered consecutively across the segments, in slice order.
impl PackedRows for [&BitMatrix] {
    fn n_rows(&self) -> usize {
        self.iter().map(|m| m.n_rows()).sum()
    }

    fn rows(&self, rows: Range<usize>) -> impl Iterator<Item = &[u64]> {
        let mut start = 0;
        self.iter().flat_map(move |m| {
            let lo = start;
            start += m.n_rows();
            let local = rows.start.clamp(lo, start) - lo..rows.end.clamp(lo, start) - lo;
            PackedRows::rows(*m, local)
        })
    }

    fn common_dim(&self) -> Result<Option<Dim>, HdcError> {
        let Some(first) = self.first() else {
            return Ok(None);
        };
        match self.iter().find(|m| m.dim() != first.dim()) {
            Some(bad) => Err(HdcError::DimensionMismatch {
                left: first.dim().get(),
                right: bad.dim().get(),
            }),
            None => Ok(Some(first.dim())),
        }
    }
}

/// The nearest neighbours of every query: one list of at most `k` per
/// query, ascending in tie order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopK {
    n_queries: usize,
    k: usize,
    slots: Vec<Neighbour>,
}

impl TopK {
    /// The neighbours of query `q`, nearest first. Shorter than `k` when
    /// the bank has fewer candidate rows.
    ///
    /// # Panics
    /// Panics if `q` is not below the number of queries.
    #[must_use]
    // lint: index-ok (slots holds n_queries lists of k, and the assert bounds q)
    pub fn neighbours(&self, q: usize) -> &[Neighbour] {
        assert!(
            q < self.n_queries,
            "query {q} out of range {}",
            self.n_queries
        );
        let list = &self.slots[q * self.k..(q + 1) * self.k];
        &list[..list.partition_point(|n| *n < EMPTY)]
    }

    /// Every query's neighbour list, in query order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[Neighbour]> + '_ {
        (0..self.n_queries).map(|q| self.neighbours(q))
    }
}

/// The `k` nearest bank rows of every query row, skipping bank row
/// `exclude` if given. Fused and memory-bounded: see the module docs.
///
/// Returns [`HdcError::DimensionMismatch`] if the rows of `queries` and
/// `bank` do not share one bit width.
pub fn top_k<Q, B>(
    queries: &Q,
    bank: &B,
    k: usize,
    exclude: Option<usize>,
) -> Result<TopK, HdcError>
where
    Q: PackedRows + ?Sized,
    B: PackedRows + ?Sized,
{
    let words = match (queries.common_dim()?, bank.common_dim()?) {
        (Some(q), Some(b)) if q != b => {
            return Err(HdcError::DimensionMismatch {
                left: q.get(),
                right: b.get(),
            })
        }
        (Some(dim), _) | (_, Some(dim)) => dim.words(),
        (None, None) => 0,
    };
    let work = queries.n_rows() * bank.n_rows() * words;
    Ok(top_k_with(queries, bank, k, exclude, share_count(work)))
}

/// [`top_k`] with an explicit share count (tests pin it).
pub(crate) fn top_k_with<Q, B>(
    queries: &Q,
    bank: &B,
    k: usize,
    exclude: Option<usize>,
    shares: usize,
) -> TopK
where
    Q: PackedRows + ?Sized,
    B: PackedRows + ?Sized,
{
    let n_queries = queries.n_rows();
    let n = bank.n_rows();
    let k = k.min(n);
    let shares = shares.clamp(1, n.max(1));
    let block = n.div_ceil(shares);
    let scan = |share: usize, buffer: &mut [Neighbour]| {
        let rows = n.min(share * block)..n.min((share + 1) * block);
        for (list, query) in buffer.chunks_exact_mut(k).zip(queries.rows(0..n_queries)) {
            let mut worst = EMPTY;
            for (row, words) in rows.clone().zip(bank.rows(rows.clone())) {
                // lint: cast-ok (hamming <= d < 2^32, the u32-indexable bound)
                let candidate = Neighbour {
                    distance: hamming_words(query, words) as u32,
                    row,
                };
                if candidate < worst && Some(row) != exclude {
                    offer(list, candidate);
                    worst = list.last().copied().unwrap_or(EMPTY);
                }
            }
        }
    };
    TopK {
        n_queries,
        k,
        slots: run_shares(shares, n_queries * k, k, scan),
    }
}

/// The `k` nearest *other* rows of every bank row — leave-one-out
/// neighbours, computing each unordered pair once (see the module docs).
///
/// Returns [`HdcError::DimensionMismatch`] if the rows do not share one
/// bit width.
pub fn top_k_loocv<B: PackedRows + ?Sized>(bank: &B, k: usize) -> Result<TopK, HdcError> {
    let words = bank.common_dim()?.map_or(0, Dim::words);
    let n = bank.n_rows();
    let work = n * n.saturating_sub(1) / 2 * words;
    Ok(top_k_loocv_with(bank, k, share_count(work)))
}

/// [`top_k_loocv`] with an explicit share count (tests pin it).
// lint: index-ok (bounds has shares + 1 entries, and i < j < n indexes the n lists of k)
pub(crate) fn top_k_loocv_with<B: PackedRows + ?Sized>(bank: &B, k: usize, shares: usize) -> TopK {
    let n = bank.n_rows();
    let k = k.min(n.saturating_sub(1));
    let bounds = triangle_blocks(n, shares);
    let scan = |share: usize, buffer: &mut [Neighbour]| {
        let block = bounds[share]..bounds[share + 1];
        for (i, a) in block.clone().zip(bank.rows(block)) {
            for (j, b) in (i + 1..n).zip(bank.rows(i + 1..n)) {
                // lint: cast-ok (hamming <= d < 2^32, the u32-indexable bound)
                let distance = hamming_words(a, b) as u32;
                offer(
                    &mut buffer[i * k..(i + 1) * k],
                    Neighbour { distance, row: j },
                );
                offer(
                    &mut buffer[j * k..(j + 1) * k],
                    Neighbour { distance, row: i },
                );
            }
        }
    };
    TopK {
        n_queries: n,
        k,
        slots: run_shares(bounds.len() - 1, n * k, k, scan),
    }
}

/// Splits rows `0..n` of a leave-one-out scan into at most `shares`
/// contiguous blocks of about equal pair count (row `i` pairs with the
/// `n - 1 - i` rows after it). Returns the block boundaries, `0` first
/// and `n` last.
fn triangle_blocks(n: usize, shares: usize) -> Vec<usize> {
    let total = n * n.saturating_sub(1) / 2;
    let mut bounds = vec![0];
    let mut done = 0;
    for i in 0..n {
        if bounds.len() >= shares {
            break;
        }
        done += n - 1 - i;
        if done * shares >= total * bounds.len() && i + 1 < n {
            bounds.push(i + 1);
        }
    }
    bounds.push(n);
    bounds
}

/// The number of shares for `work_words` popcount words.
fn share_count(work_words: usize) -> usize {
    (work_words / GRAIN_WORDS).clamp(1, thread_count())
}

/// [`rayon::current_num_threads`], read once per process: it asks the OS
/// for the affinity mask and cgroup quota, which costs tens of
/// microseconds — as much as a small scan. A fixed count is also what a
/// rayon pool does.
fn thread_count() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(rayon::current_num_threads)
}

/// Runs `scan(share, buffer)` for every share, each on its own `len`-slot
/// candidate buffer of `k`-slot lists, then merges the buffers. Share 0
/// runs on the calling thread; the others on spawned threads.
fn run_shares<F>(shares: usize, len: usize, k: usize, scan: F) -> Vec<Neighbour>
where
    F: Fn(usize, &mut [Neighbour]) + Sync,
{
    if len == 0 {
        return Vec::new();
    }
    let mut buffers = vec![EMPTY; shares * len];
    let (first, rest) = buffers.split_at_mut(len);
    if rest.is_empty() {
        scan(0, first);
    } else {
        let scan = &scan;
        rayon::scope(|s| {
            for (share, buffer) in rest.chunks_exact_mut(len).enumerate() {
                s.spawn(move |_| scan(share + 1, buffer));
            }
            scan(0, first);
        });
        for other in rest.chunks_exact(len) {
            for (into, from) in first.chunks_exact_mut(k).zip(other.chunks_exact(k)) {
                // `from` is ascending: after its first reject, all are.
                for &candidate in from {
                    if !offer(into, candidate) {
                        break;
                    }
                }
            }
        }
    }
    buffers.truncate(len);
    buffers
}

/// Inserts `candidate` into the ascending list `list` if it orders before
/// the last entry, dropping that entry. Returns whether it was inserted.
#[inline]
// lint: index-ok (partition_point returns at <= list.len(), and at < len because candidate < last)
fn offer(list: &mut [Neighbour], candidate: Neighbour) -> bool {
    if list.last().is_none_or(|worst| candidate >= *worst) {
        return false;
    }
    let at = list.partition_point(|n| *n < candidate);
    list[at..].rotate_right(1);
    list[at] = candidate;
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use crate::rng::SplitMix64;
    use proptest::prelude::*;

    /// Dimensions with one-bit, word-exact, one-past-word and ragged
    /// tails, up to the paper scale.
    const DIMS: [usize; 6] = [1, 63, 64, 65, 2_000, 10_050];

    /// `n` rows drawn from `distinct` random rows, so that rows repeat and
    /// distance ties are forced.
    fn bank_with_duplicates(n: usize, distinct: usize, d: usize, seed: u64) -> BitMatrix {
        let mut rng = SplitMix64::new(seed);
        let pool: Vec<BinaryHypervector> = (0..distinct)
            .map(|_| BinaryHypervector::random(Dim::new(d), &mut rng))
            .collect();
        let rows: Vec<BinaryHypervector> = (0..n)
            .map(|i| pool[(i * 7 + 3) % distinct].clone())
            .collect();
        BitMatrix::from_hypervectors(&rows).unwrap()
    }

    fn lists(top: &TopK) -> Vec<Vec<Neighbour>> {
        top.iter().map(<[Neighbour]>::to_vec).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn top_k_matches_scalar_oracle(
            d_index in 0usize..DIMS.len(),
            seed in any::<u64>(),
            n in 2usize..14,
            distinct in 1usize..5,
            n_queries in 1usize..5,
            k_choice in 0usize..4,
            exclude_choice in 0usize..3,
        ) {
            let d = DIMS[d_index];
            let bank = bank_with_duplicates(n, distinct, d, seed);
            let queries = bank_with_duplicates(n_queries, distinct, d, seed ^ 1);
            let k = [1, 3, n - 1, n + 2][k_choice];
            // Unset, a bank row, or an index past the bank.
            let exclude = [None, Some(seed as usize % n), Some(n + 5)][exclude_choice];
            let expected = reference::top_k(&queries, &bank, k, exclude);
            for shares in [1, 2, 3, 4] {
                let got = top_k_with(&queries, &bank, k, exclude, shares);
                prop_assert_eq!(&lists(&got), &expected, "shares = {}", shares);
            }
            prop_assert_eq!(&lists(&top_k(&queries, &bank, k, exclude).unwrap()), &expected);
        }

        #[test]
        fn top_k_loocv_matches_scalar_oracle(
            d_index in 0usize..DIMS.len(),
            seed in any::<u64>(),
            n in 2usize..14,
            distinct in 1usize..5,
            k_choice in 0usize..4,
        ) {
            let d = DIMS[d_index];
            let bank = bank_with_duplicates(n, distinct, d, seed);
            let k = [1, 3, n - 1, n + 2][k_choice];
            let expected: Vec<Vec<Neighbour>> = (0..n)
                .map(|i| {
                    let query = bank.select_rows(&[i]);
                    reference::top_k(&query, &bank, k, Some(i)).remove(0)
                })
                .collect();
            for shares in [1, 2, 3, 4] {
                let got = top_k_loocv_with(&bank, k, shares);
                prop_assert_eq!(&lists(&got), &expected, "shares = {}", shares);
            }
            prop_assert_eq!(&lists(&top_k_loocv(&bank, k).unwrap()), &expected);
        }
    }

    #[test]
    fn hypervector_slices_and_matrices_agree() {
        let bank = bank_with_duplicates(9, 4, 130, 5);
        let rows: Vec<BinaryHypervector> = (0..9).map(|r| bank.row_hypervector(r)).collect();
        assert_eq!(
            top_k(rows.as_slice(), rows.as_slice(), 3, Some(2)).unwrap(),
            top_k(&bank, &bank, 3, Some(2)).unwrap()
        );
        assert_eq!(
            top_k_loocv(rows.as_slice(), 2).unwrap(),
            top_k_loocv(&bank, 2).unwrap()
        );
    }

    #[test]
    fn shares_past_the_last_row_block_scan_nothing() {
        // 5 rows in 4 shares of 2: the last share starts past the bank.
        let bank = bank_with_duplicates(5, 3, 100, 4);
        let rows: Vec<BinaryHypervector> = (0..5).map(|r| bank.row_hypervector(r)).collect();
        for exclude in [None, Some(4)] {
            let one = top_k_with(&bank, &bank, 2, exclude, 1);
            assert_eq!(top_k_with(&bank, &bank, 2, exclude, 4), one);
            assert_eq!(top_k_with(&bank, rows.as_slice(), 2, exclude, 4), one);
        }
    }

    #[test]
    fn segmented_banks_number_rows_across_segments() {
        let bank = bank_with_duplicates(11, 4, 130, 6);
        let parts = [
            bank.select_rows(&[0, 1, 2]),
            bank.select_rows(&[]),
            bank.select_rows(&[3, 4, 5, 6, 7]),
            bank.select_rows(&[8, 9, 10]),
        ];
        let segments: Vec<&BitMatrix> = parts.iter().collect();
        let queries = bank_with_duplicates(3, 4, 130, 7);
        for exclude in [None, Some(5)] {
            let whole = top_k_with(&queries, &bank, 4, exclude, 1);
            for shares in 1..=4 {
                let split = top_k_with(&queries, segments.as_slice(), 4, exclude, shares);
                assert_eq!(split, whole, "shares = {shares}");
            }
        }
        assert_eq!(
            top_k_loocv_with(segments.as_slice(), 2, 3),
            top_k_loocv_with(&bank, 2, 1)
        );
        let narrow = bank_with_duplicates(2, 2, 64, 8);
        let mixed = [&bank, &narrow];
        assert!(matches!(
            top_k(&queries, mixed.as_slice(), 1, None),
            Err(HdcError::DimensionMismatch {
                left: 130,
                right: 64
            })
        ));
    }

    #[test]
    fn mismatched_widths_are_typed_errors() {
        let a = bank_with_duplicates(3, 3, 64, 1);
        let b = bank_with_duplicates(3, 3, 65, 2);
        assert!(matches!(
            top_k(&a, &b, 1, None),
            Err(HdcError::DimensionMismatch {
                left: 64,
                right: 65
            })
        ));
        let mixed = vec![a.row_hypervector(0), b.row_hypervector(0)];
        assert!(matches!(
            top_k_loocv(mixed.as_slice(), 1),
            Err(HdcError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn empty_inputs_give_empty_lists() {
        let bank = bank_with_duplicates(4, 2, 70, 3);
        let none: [BinaryHypervector; 0] = [];
        let top = top_k(&bank, none.as_slice(), 3, None).unwrap();
        assert_eq!(top.iter().len(), 4);
        assert!(top.iter().all(<[Neighbour]>::is_empty));
        assert_eq!(
            top_k(none.as_slice(), &bank, 3, None).unwrap().iter().len(),
            0
        );
        let single = bank.select_rows(&[0]);
        let top = top_k_loocv(&single, 1).unwrap();
        assert_eq!(top.iter().len(), 1);
        assert!(top.neighbours(0).is_empty());
        assert!(top_k(&bank, &bank, 0, None)
            .unwrap()
            .neighbours(1)
            .is_empty());
    }

    #[test]
    fn triangle_blocks_balance_pairs_and_cover_every_row() {
        for n in 0..40 {
            for shares in 1..5 {
                let bounds = triangle_blocks(n, shares);
                assert_eq!(bounds.first(), Some(&0));
                assert_eq!(bounds.last(), Some(&n));
                assert!(bounds.len() - 1 <= shares.max(1));
                assert!(bounds.windows(2).all(|w| w[0] < w[1] || n == 0));
            }
        }
        // 392 rows in two shares: each holds about half the 76,636 pairs.
        let bounds = triangle_blocks(392, 2);
        let pairs = |lo: usize, hi: usize| (lo..hi).map(|i| 391 - i).sum::<usize>();
        let (a, b) = (pairs(bounds[0], bounds[1]), pairs(bounds[1], bounds[2]));
        assert!(a.abs_diff(b) <= 391, "{a} vs {b}");
    }

    #[test]
    fn only_work_above_the_grain_is_split() {
        assert_eq!(share_count(0), 1);
        assert_eq!(share_count(GRAIN_WORDS - 1), 1);
        assert!(share_count(usize::MAX) <= rayon::current_num_threads());
        assert_eq!(
            share_count(2 * GRAIN_WORDS),
            2.min(rayon::current_num_threads())
        );
        // One query against the 392-row Pima cohort at 10,000 bits.
        assert_eq!(share_count(392 * Dim::new(10_000).words()), 1);
    }
}
