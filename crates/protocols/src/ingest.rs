//! Streaming, sharded report ingestion for LF-GDPR.
//!
//! [`PerturbedView::from_reports`] needs every report resident at once —
//! `O(N²)` bits for the reports on top of the `O(N²)`-bit matrix — which
//! caps experiment sizes far below what the server-side aggregate itself
//! requires. The [`StreamingAggregator`] removes that ceiling: reports are
//! consumed in bounded batches, each batch is folded in parallel into the
//! lower triangle of the aggregate [`BitMatrix`], and the batch can be
//! dropped before the next one is produced. Peak report memory is then
//! bounded by the batch size, never by the population.
//!
//! ## Slot ownership under batching
//!
//! The protocol's lower-triangle rule — the undirected slot `{i, j}` with
//! `i > j` is taken from report `i` — is what makes batched, parallel
//! folding race-free:
//!
//! * reports must arrive **in id order** (report `k` is the `k`-th one
//!   ingested), so a batch always covers a contiguous id range `lo..hi`;
//! * report `i` writes only row `i` of the matrix, and only its bits
//!   `j < i` — a word-level OR of the report's words `0..⌈i/64⌉` (the
//!   word-wise form of [`BitSet::iter_ones_below`]'s bound), never walking
//!   the tail of the vector;
//! * rows of a batch are disjoint contiguous word ranges, handed to worker
//!   threads as exclusive chunk slices
//!   ([`ldp_graph::runtime::parallel_chunks_mut`]) — no slot is ever
//!   written by two reports, in or across batches.
//!
//! Only [`StreamingAggregator::finalize`] mirrors the accumulated lower
//! triangle into the upper one and derives the per-node perturbed degrees,
//! producing the exact same [`PerturbedView`] — bit for bit — as the
//! one-shot path (`from_reports` is now a thin wrapper over this module;
//! the equivalence is pinned by `tests/proptest_ingest.rs`).

use crate::lfgdpr::PerturbedView;
use crate::report::AdjacencyReport;
use ldp_graph::runtime::{default_threads, parallel_chunks_mut, parallel_map, threads_for_work};
use ldp_graph::{BitMatrix, BitSet};
use ldp_mechanisms::RandomizedResponse;
use std::sync::atomic::{AtomicU64, Ordering};

/// Incremental builder of a [`PerturbedView`] from a stream of reports.
///
/// The population size is declared up front; reports are then ingested in
/// id order, one at a time or in batches, and [`Self::finalize`] yields
/// the view once all `N` reports have arrived. See the module docs for the
/// ownership argument that makes the batch fold embarrassingly parallel.
#[derive(Debug)]
pub struct StreamingAggregator {
    matrix: BitMatrix,
    reported_degrees: Vec<f64>,
    rr: RandomizedResponse,
    /// Running count of owned (lower-triangle) bits folded so far; equals
    /// the final edge count once every report is in.
    lower_edges: u64,
    threads: usize,
}

impl StreamingAggregator {
    /// Creates an aggregator for a population of `n` users, folding
    /// batches on [`default_threads`] workers.
    pub fn new(n: usize, rr: RandomizedResponse) -> Self {
        Self::with_threads(n, rr, default_threads())
    }

    /// Creates an aggregator folding batches on up to `threads` workers
    /// (clamped to at least one).
    pub fn with_threads(n: usize, rr: RandomizedResponse, threads: usize) -> Self {
        StreamingAggregator {
            matrix: BitMatrix::new(n),
            reported_degrees: Vec::with_capacity(n),
            rr,
            lower_edges: 0,
            threads: threads.max(1),
        }
    }

    /// Population size `N` declared at construction.
    pub fn population(&self) -> usize {
        self.matrix.num_nodes()
    }

    /// Number of reports ingested so far; the next report gets this id.
    pub fn ingested(&self) -> usize {
        self.reported_degrees.len()
    }

    /// Number of reports still outstanding before [`Self::finalize`].
    pub fn remaining(&self) -> usize {
        self.population() - self.ingested()
    }

    /// Running count of perturbed edges folded so far (each owned
    /// lower-triangle bit is one undirected edge).
    pub fn edges_ingested(&self) -> u64 {
        self.lower_edges
    }

    /// Running edge density over the slots owned by the reports ingested
    /// so far (`k` reports own the `k(k−1)/2` slots among themselves).
    /// Converges to the view's edge density as ingestion completes.
    pub fn running_edge_density(&self) -> f64 {
        let k = self.ingested() as f64;
        if k < 2.0 {
            return 0.0;
        }
        self.lower_edges as f64 / (k * (k - 1.0) / 2.0)
    }

    /// Ingests the next report (id = [`Self::ingested`]).
    ///
    /// # Panics
    /// Panics if the report spans a different population or the population
    /// is already fully ingested.
    pub fn ingest(&mut self, report: &AdjacencyReport) {
        self.ingest_batch(std::slice::from_ref(report));
    }

    /// Ingests the next `batch.len()` reports (ids
    /// `ingested()..ingested() + batch.len()`), folding their
    /// lower-triangle bits into the matrix in parallel.
    ///
    /// # Panics
    /// Panics if any report spans a different population, or if the batch
    /// would exceed the declared population.
    pub fn ingest_batch(&mut self, batch: &[AdjacencyReport]) {
        if batch.is_empty() {
            return;
        }
        let n = self.population();
        let lo = self.ingested();
        assert!(
            lo + batch.len() <= n,
            "batch of {} overruns the population: {lo} of {n} reports already ingested",
            batch.len()
        );
        for (k, report) in batch.iter().enumerate() {
            assert_eq!(
                report.population(),
                n,
                "report {} spans {} users but the aggregator spans {n}",
                lo + k,
                report.population()
            );
        }

        let wpr = self.matrix.words_per_row();
        // Report i only scans its first ⌈i/64⌉ words, so the batch's fold
        // work is ~avg(lo..hi)/64 words per row.
        let fold_words = (((lo + lo + batch.len()) / 2) / 64 + 1) * batch.len();
        let threads = threads_for_work(fold_words, self.threads);
        // Dynamic chunk claiming balances the triangular cost profile
        // (row i costs O(i/64) words to scan).
        let rows_per_chunk = batch.len().div_ceil(threads * 4).max(1);
        let edges = AtomicU64::new(0);
        let rows = self.matrix.rows_mut(lo, lo + batch.len());
        parallel_chunks_mut(rows, rows_per_chunk * wpr, threads, |chunk_idx, chunk| {
            let first = lo + chunk_idx * rows_per_chunk;
            let mut folded = 0u64;
            for (k, row) in chunk.chunks_mut(wpr).enumerate() {
                folded += fold_lower_bits(row, &batch[first + k - lo].bits, first + k);
            }
            edges.fetch_add(folded, Ordering::Relaxed);
        });
        self.lower_edges += edges.into_inner();
        self.reported_degrees.extend(batch.iter().map(|r| r.degree));
    }

    /// Completes aggregation: mirrors the lower triangle into a symmetric
    /// matrix, derives per-node perturbed degrees, and returns the view.
    ///
    /// # Panics
    /// Panics if fewer than `N` reports were ingested.
    pub fn finalize(self) -> PerturbedView {
        let n = self.population();
        assert_eq!(
            self.ingested(),
            n,
            "only {} of {n} reports ingested before finalize",
            self.ingested()
        );
        finalize_lower(self.matrix, self.reported_degrees, self.rr, self.threads)
    }
}

/// Finalizes a lower-triangle aggregate into a [`PerturbedView`]: mirrors
/// the accumulated lower triangle into a symmetric matrix, derives the
/// per-node perturbed degrees, and assembles the view.
///
/// This is the single finalization path — used by
/// [`StreamingAggregator::finalize`], by the sharded collector service's
/// in-process finalize (`ldp-collector`), and by
/// [`crate::wire::decode_view`], which receives the triangle the daemon
/// shipped. However the lower triangle was accumulated (in-order
/// batches, out-of-order shards, a `VIEW` payload), identical triangles
/// finalize into bit-identical views.
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

/// Folds the lower-triangle bits of report `i` into its matrix row,
/// returning how many bits were set.
///
/// Slot ownership makes row `i` exactly the report's words `0..⌈i/64⌉`
/// (last word masked below bit `i%64`), so the fold is a word-level OR +
/// popcount — the word-wise form of [`BitSet::iter_ones_below`]'s bound;
/// bits at or above `i` (non-owned slots, including the self slot) are
/// never even scanned, and cost is independent of report density.
///
/// `row` must hold at least the `⌈i/64⌉` owned words (a full matrix row
/// works, and so does the sharded collector's triangular packing, which
/// allots exactly that many). Public because the collector service folds
/// out-of-order, shard-owned rows with this same kernel — one fold, one
/// bit pattern, wherever the report arrives.
///
/// # Panics
/// Panics if `row` is shorter than the owned word count or `bits` spans
/// fewer than `i` slots.
// ldp-lint: hot-path(begin) -- the per-report OR-fold kernel; the collector
// calls it under a shard mutex, so it must stay lock-free
pub fn fold_lower_bits(row: &mut [u64], bits: &BitSet, i: usize) -> u64 {
    let src = bits.words();
    let full = i / 64;
    let mut folded = 0u64;
    for (dst, &word) in row[..full].iter_mut().zip(src) {
        *dst |= word;
        folded += u64::from(word.count_ones());
    }
    let rem = i % 64;
    if rem != 0 {
        let masked = src[full] & ((1u64 << rem) - 1);
        row[full] |= masked;
        folded += u64::from(masked.count_ones());
    }
    folded
}
// ldp-lint: hot-path(end)

/// Aggregates a report stream into a [`PerturbedView`] while holding at
/// most `batch_size` reports in memory: the convenience driver for callers
/// that can produce reports lazily (network intake, on-the-fly
/// simulation).
///
/// # Panics
/// Panics if `batch_size` is zero, the stream yields a number of reports
/// other than `n`, or any report spans a population other than `n`.
pub fn aggregate_stream<I>(
    n: usize,
    rr: RandomizedResponse,
    batch_size: usize,
    reports: I,
) -> PerturbedView
where
    I: IntoIterator<Item = AdjacencyReport>,
{
    assert!(batch_size > 0, "batch_size must be positive");
    let mut agg = StreamingAggregator::new(n, rr);
    let mut buf: Vec<AdjacencyReport> = Vec::with_capacity(batch_size.min(n.max(1)));
    for report in reports {
        buf.push(report);
        if buf.len() == batch_size {
            agg.ingest_batch(&buf);
            buf.clear();
        }
    }
    agg.ingest_batch(&buf);
    agg.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_graph::BitSet;

    fn rr09() -> RandomizedResponse {
        RandomizedResponse::from_keep_probability(0.9).unwrap()
    }

    fn report(n: usize, ones: &[usize], degree: f64) -> AdjacencyReport {
        AdjacencyReport::new(BitSet::from_indices(n, ones.iter().copied()), degree)
    }

    #[test]
    fn batched_equals_oneshot_small() {
        let n = 5;
        let reports = vec![
            report(n, &[1, 4], 1.0),
            report(n, &[0], 1.5),
            report(n, &[0, 1, 3], 2.0),
            report(n, &[2], 0.5),
            report(n, &[0, 3], 2.0),
        ];
        let oneshot = PerturbedView::from_reports(&reports, rr09());
        for batch_size in 1..=n {
            let mut agg = StreamingAggregator::new(n, rr09());
            for chunk in reports.chunks(batch_size) {
                agg.ingest_batch(chunk);
            }
            let streamed = agg.finalize();
            assert_eq!(streamed.matrix(), oneshot.matrix(), "batch {batch_size}");
            assert_eq!(streamed.reported_degrees(), oneshot.reported_degrees());
            for u in 0..n {
                assert_eq!(streamed.perturbed_degree(u), oneshot.perturbed_degree(u));
            }
        }
    }

    #[test]
    fn single_ingest_matches_batch() {
        let n = 4;
        let reports = vec![
            report(n, &[], 0.0),
            report(n, &[0], 1.0),
            report(n, &[0, 1], 2.0),
            report(n, &[2], 1.0),
        ];
        let mut one_by_one = StreamingAggregator::new(n, rr09());
        for r in &reports {
            one_by_one.ingest(r);
        }
        let a = one_by_one.finalize();
        let b = PerturbedView::from_reports(&reports, rr09());
        assert_eq!(a.matrix(), b.matrix());
    }

    #[test]
    fn running_accumulators_track_progress() {
        let n = 4;
        let mut agg = StreamingAggregator::new(n, rr09());
        assert_eq!(agg.remaining(), 4);
        assert_eq!(agg.running_edge_density(), 0.0);
        agg.ingest(&report(n, &[], 0.0));
        agg.ingest(&report(n, &[0], 1.0));
        assert_eq!(agg.edges_ingested(), 1);
        assert!((agg.running_edge_density() - 1.0).abs() < 1e-12);
        agg.ingest_batch(&[report(n, &[0, 1], 2.0), report(n, &[], 0.0)]);
        assert_eq!(agg.edges_ingested(), 3);
        assert_eq!(agg.remaining(), 0);
        let view = agg.finalize();
        assert_eq!(view.matrix().num_edges(), 3);
    }

    #[test]
    fn non_owned_bits_are_ignored() {
        // Report 0 claims an edge to 3 (not owned) and its self slot would
        // be bit 0 (excluded by the bound).
        let n = 4;
        let mut agg = StreamingAggregator::new(n, rr09());
        agg.ingest_batch(&[
            report(n, &[3], 0.0),
            report(n, &[], 0.0),
            report(n, &[], 0.0),
            report(n, &[0, 1], 2.0),
        ]);
        assert_eq!(agg.edges_ingested(), 2);
        let view = agg.finalize();
        assert!(view.matrix().has_edge(3, 0) && view.matrix().has_edge(3, 1));
        assert!(!view.matrix().has_edge(0, 2));
    }

    #[test]
    fn aggregate_stream_bounded_buffer() {
        let n = 7;
        let reports: Vec<AdjacencyReport> = (0..n)
            .map(|i| {
                report(
                    n,
                    &(0..i).filter(|j| (i + j) % 2 == 0).collect::<Vec<_>>(),
                    i as f64,
                )
            })
            .collect();
        let oneshot = PerturbedView::from_reports(&reports, rr09());
        let streamed = aggregate_stream(n, rr09(), 3, reports);
        assert_eq!(streamed.matrix(), oneshot.matrix());
        assert_eq!(streamed.reported_degrees(), oneshot.reported_degrees());
    }

    #[test]
    fn zero_population() {
        let agg = StreamingAggregator::new(0, rr09());
        let view = agg.finalize();
        assert_eq!(view.num_users(), 0);
    }

    #[test]
    #[should_panic(expected = "spans")]
    fn population_mismatch_rejected() {
        let mut agg = StreamingAggregator::new(3, rr09());
        agg.ingest(&report(4, &[], 0.0));
    }

    #[test]
    #[should_panic(expected = "overruns")]
    fn overrun_rejected() {
        let mut agg = StreamingAggregator::new(1, rr09());
        agg.ingest_batch(&[report(1, &[], 0.0), report(1, &[], 0.0)]);
    }

    #[test]
    #[should_panic(expected = "before finalize")]
    fn incomplete_finalize_rejected() {
        let mut agg = StreamingAggregator::new(2, rr09());
        agg.ingest(&report(2, &[], 0.0));
        agg.finalize();
    }

    #[test]
    #[should_panic(expected = "batch_size must be positive")]
    fn zero_batch_size_rejected() {
        aggregate_stream(1, rr09(), 0, std::iter::empty());
    }
}
