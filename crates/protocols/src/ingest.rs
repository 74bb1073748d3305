//! The one in-process report fold for LF-GDPR.
//!
//! [`fold_reports`] turns one upload per user into a [`PerturbedView`];
//! [`PerturbedView::from_reports`], `LfGdpr::aggregate` and the in-process
//! `run_worlds` are thin entries onto it. The sharded collector service
//! folds out-of-order rows with the same kernel ([`fold_lower_words`]) and
//! finishes through the same [`finalize_lower`], so every view is folded
//! into the same slots whichever path the reports took.
//!
//! ## Slot ownership
//!
//! The protocol's lower-triangle rule — the undirected slot `{i, j}` with
//! `i > j` is taken from report `i` — is what makes the parallel fold
//! race-free:
//!
//! * report `i` writes only row `i` of the matrix, and only its bits
//!   `j < i` — a word-level OR of the report's words `0..⌈i/64⌉` (the
//!   word-wise form of [`BitSet::iter_ones_below`]'s bound), never walking
//!   the tail of the vector;
//! * rows are disjoint contiguous word ranges, handed to worker threads as
//!   exclusive chunk slices ([`ldp_graph::runtime::parallel_chunks_mut`]),
//!   so no slot is ever written by two reports.
//!
//! Only [`finalize_lower`] mirrors the accumulated lower triangle into the
//! upper one and derives the per-node perturbed degrees. The fold is
//! pinned slot by slot against a `BitSet::get` reference by
//! `tests/proptest_ingest.rs`.

use crate::lfgdpr::PerturbedView;
use crate::protocol::ProtocolError;
use crate::report::AdjacencyReport;
use ldp_graph::runtime::{default_threads, parallel_chunks_mut, parallel_map, threads_for_work};
use ldp_graph::{BitMatrix, BitSet};
use ldp_mechanisms::RandomizedResponse;

/// Folds one upload per user — report `i` is user `i`'s — into the
/// server-side [`PerturbedView`]: each report's owned lower-triangle words
/// are OR-ed into its matrix row in parallel, then [`finalize_lower`]
/// mirrors the triangle and counts the rows.
///
/// # Errors
/// [`ProtocolError::PopulationMismatch`] if a report spans a population
/// other than `reports.len()`; nothing is folded then.
pub fn fold_reports(
    reports: &[AdjacencyReport],
    rr: RandomizedResponse,
) -> Result<PerturbedView, ProtocolError> {
    let n = reports.len();
    if let Some(r) = reports.iter().find(|r| r.population() != n) {
        return Err(ProtocolError::PopulationMismatch {
            expected: n,
            got: r.population(),
        });
    }
    let mut matrix = BitMatrix::new(n);
    let wpr = matrix.words_per_row();
    // Report i only scans its first ⌈i/64⌉ words, so the fold work is
    // ~(n/2)/64 words per row.
    let fold_words = ((n / 2) / 64 + 1) * n;
    let threads = threads_for_work(fold_words, default_threads());
    // Dynamic chunk claiming balances the triangular cost profile
    // (row i costs O(i/64) words to scan).
    let rows_per_chunk = n.div_ceil(threads * 4).max(1);
    parallel_chunks_mut(
        matrix.rows_mut(0, n),
        rows_per_chunk * wpr,
        threads,
        |chunk_idx, chunk| {
            let first = chunk_idx * rows_per_chunk;
            for (k, row) in chunk.chunks_mut(wpr).enumerate() {
                fold_lower_bits(row, &reports[first + k].bits, first + k);
            }
        },
    );
    let reported_degrees = reports.iter().map(|r| r.degree).collect();
    Ok(finalize_lower(
        matrix,
        reported_degrees,
        rr,
        default_threads(),
    ))
}

/// Finalizes a lower-triangle aggregate into a [`PerturbedView`]: mirrors
/// the accumulated lower triangle into a symmetric matrix, derives the
/// per-node perturbed degrees, and assembles the view.
///
/// This is the single finalization path — used by [`fold_reports`], by
/// the sharded collector service's in-process finalize
/// (`ldp-collector`), and by [`crate::wire::decode_view`], which receives
/// the triangle the daemon shipped. However the lower triangle was
/// accumulated (the in-process fold, out-of-order shards, a `VIEW`
/// payload), identical triangles finalize into bit-identical views.
///
/// Mirroring ([`BitMatrix::mirror_lower`]) is a sequential pass of
/// `n²/8192` in-register 64×64 block transposes over the lower triangle;
/// the degree derivation that follows scans the full `n·⌈n/64⌉` words, so
/// that one is parallelized (read-only) whenever it outweighs spawn cost.
///
/// # Panics
/// Panics if `reported_degrees` does not cover the matrix population.
pub fn finalize_lower(
    mut matrix: BitMatrix,
    reported_degrees: Vec<f64>,
    rr: RandomizedResponse,
    threads: usize,
) -> PerturbedView {
    let n = matrix.num_nodes();
    assert_eq!(
        reported_degrees.len(),
        n,
        "{} reported degrees for a population of {n}",
        reported_degrees.len()
    );
    matrix.mirror_lower();
    let scan_words = n * matrix.words_per_row();
    let threads = threads_for_work(scan_words, threads.max(1));
    let perturbed_degrees = {
        let matrix = &matrix;
        parallel_map((0..n).collect(), threads, |&u| matrix.degree(u))
    };
    PerturbedView::from_parts(matrix, reported_degrees, perturbed_degrees, rr)
}

/// Folds the lower-triangle bits of report `i` into its matrix row: a
/// word-level OR of the report's owned words `0..⌈i/64⌉`, the last masked
/// below bit `i % 64` (see the module docs), whatever the report's density.
///
/// `row` must hold at least those words: a full matrix row, or a collector
/// shard's triangularly packed row, which the collector folds with this
/// same kernel through [`fold_lower_words`], reading the words in place
/// from the wire frame — one fold, one bit pattern, wherever the report
/// arrives.
///
/// # Panics
/// Panics if `row` is shorter than the owned word count.
// ldp-lint: hot-path(begin) -- the per-report OR-fold kernel; the collector
// calls it under a shard mutex, so it must stay lock-free
pub fn fold_lower_bits(row: &mut [u64], bits: &BitSet, i: usize) {
    fold_lower_words(row, bits.words().iter().copied(), i);
}

/// [`fold_lower_bits`] over row words from any source that yields them
/// from word 0 on; a source that ends early reads as zero words.
pub fn fold_lower_words(row: &mut [u64], words: impl Iterator<Item = u64>, i: usize) {
    let owned = &mut row[..i.div_ceil(64)];
    let kept = owned.last().copied().unwrap_or(0);
    for (dst, word) in owned.iter_mut().zip(words) {
        *dst |= word;
    }
    // Undo the bits at or above `i` the last word's OR let in.
    let mask = crate::wire::lower_row_mask(i);
    if let Some(last) = owned.last_mut() {
        *last = (*last & mask) | (kept & !mask);
    }
}
// ldp-lint: hot-path(end)

#[cfg(test)]
mod tests {
    use super::*;

    fn rr09() -> RandomizedResponse {
        RandomizedResponse::from_keep_probability(0.9).unwrap()
    }

    fn report(n: usize, ones: &[usize], degree: f64) -> AdjacencyReport {
        AdjacencyReport::new(BitSet::from_indices(n, ones.iter().copied()), degree)
    }

    #[test]
    fn non_owned_bits_are_ignored() {
        // Report 0 claims an edge to 3 (not owned) and report 2 its self
        // slot (excluded by the bound).
        let n = 4;
        let view = fold_reports(
            &[
                report(n, &[3], 0.0),
                report(n, &[], 0.0),
                report(n, &[2], 0.0),
                report(n, &[0, 1], 2.0),
            ],
            rr09(),
        )
        .unwrap();
        assert_eq!(view.matrix().num_edges(), 2);
        assert!(view.matrix().has_edge(3, 0) && view.matrix().has_edge(3, 1));
        assert!(!view.matrix().has_edge(0, 2));
    }

    #[test]
    fn zero_population() {
        let view = fold_reports(&[], rr09()).unwrap();
        assert_eq!(view.num_users(), 0);
    }

    #[test]
    #[should_panic(expected = "spans")]
    fn population_mismatch_rejected() {
        let reports = [
            report(3, &[], 0.0),
            report(4, &[], 0.0),
            report(3, &[], 0.0),
        ];
        assert_eq!(
            fold_reports(&reports, rr09()).unwrap_err(),
            ProtocolError::PopulationMismatch {
                expected: 3,
                got: 4
            }
        );
        PerturbedView::from_reports(&reports, rr09());
    }
}
