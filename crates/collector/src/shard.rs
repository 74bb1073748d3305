//! Per-shard aggregation state: the id-sharded heart of the collector.
//!
//! Reports arriving over the wire carry explicit user ids and arrive in
//! *arbitrary* order — and, since the ingest plane went concurrent, from
//! *multiple session threads at once*. The lower-triangle ownership rule
//! still saves the day: report `i` writes only the owned words of row `i`,
//! so partitioning rows by `user_id % shards` gives every shard an
//! exclusive, disjoint slice of the aggregate. Each shard sits behind its
//! own mutex; a session folds a report by locking exactly the one shard
//! that owns the id, so sessions touching different shards never contend
//! and the duplicate-id check (the shard's seen-bitmap) is race-free by
//! ownership. Finalize merges nothing: the daemon encodes the `VIEW`
//! reply straight from the shards, row `i` read from shard `i % shards`,
//! slot `i / shards` ([`FinalizedShards`]) — the shard states never
//! overlap, so the triangle they hold together is the whole view.
//!
//! Both channels use one shard shape, and it is exactly what a checkpoint
//! stores per shard: `(accepted, duplicates, seen words, floats, row
//! words)`. An adjacency shard stores its rows *triangularly packed* —
//! row `i` is allotted exactly its `⌈i/64⌉` owned words, so the whole
//! shard set costs one lower triangle (`≈ N²/16` bytes), the size of the
//! `VIEW` payload it encodes into — and its floats are the reported
//! degrees. A degree-vector shard has no rows; its floats are
//! running per-group sums — `O(groups)` per shard, which is what lets a
//! million-user degree-vector round run in constant aggregate memory.
//!
//! Determinism under concurrency: an adjacency fold ORs a report's owned
//! words into zeroed, exclusively-owned storage — a commutative,
//! first-write-wins operation — so the finalized bit pattern is independent
//! of arrival order and of how sessions interleave. Degree-vector sums
//! accumulate within a shard in arrival order; totals are exact (hence
//! order-independent) whenever the additions are, and each shard's
//! partial is summed in shard-index order at finalize.

use ldp_graph::{BitMatrix, BitSet};
use ldp_mechanisms::RandomizedResponse;
use ldp_protocols::ingest::{finalize_lower, fold_lower_bits};
use ldp_protocols::wire::{self, lower_row_mask, lower_row_words};
use ldp_protocols::{AdjacencyReport, PerturbedView};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Locks one shard. Fold closures are panic-free on the documented
/// preconditions, and the shard invariants (OR into owned words, counter
/// increments) hold at every await-free point, so a poisoned lock is
/// recovered rather than cascading panics across session threads.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn inner<T>(m: Mutex<T>) -> T {
    m.into_inner().unwrap_or_else(PoisonError::into_inner)
}

/// Why a report bounced off a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ShardReject {
    /// The user already reported this round.
    Duplicate,
}

/// One shard: the users `i ≡ shard (mod stride)`, user `i` in slot
/// `i / stride`. Its fields are the five pieces a checkpoint stores.
#[derive(Debug)]
pub(crate) struct Shard {
    pub(crate) accepted: u64,
    pub(crate) duplicates: u64,
    /// Which of this shard's slots have reported.
    pub(crate) seen: BitSet,
    /// Adjacency: the reported (Laplace) degree per slot. Degree vector:
    /// the running per-group sums.
    pub(crate) floats: Vec<f64>,
    /// Adjacency: triangular row storage, slot `s` owning
    /// `words[offsets[s]..offsets[s + 1]]`. Degree vector: empty.
    pub(crate) words: Vec<u64>,
}

/// Slots of shard `shard` out of `stride` over `n` users.
fn slots(n: usize, shard: usize, stride: usize) -> usize {
    n.saturating_sub(shard).div_ceil(stride)
}

fn shard(slots: usize, floats: usize, words: usize) -> Mutex<Shard> {
    Mutex::new(Shard {
        accepted: 0,
        duplicates: 0,
        seen: BitSet::new(slots),
        floats: vec![0.0; floats],
        words: vec![0; words],
    })
}

/// The shard set of one round, on either channel. Each shard sits behind
/// its own mutex so concurrent sessions fold without a global lock.
#[derive(Debug)]
pub(crate) struct Shards {
    n: usize,
    shards: Vec<Mutex<Shard>>,
    /// Row offsets of each adjacency shard (none on a degree-vector
    /// round): geometry fixed at construction, read by folds unlocked.
    offsets: Vec<Vec<usize>>,
}

impl Shards {
    /// The shards of an adjacency round over `n` users.
    pub(crate) fn adjacency(n: usize, num_shards: usize) -> Self {
        let stride = num_shards.max(1);
        let offsets: Vec<Vec<usize>> = (0..stride)
            .map(|s| {
                let mut total = 0;
                let ends = (0..slots(n, s, stride)).map(|slot| {
                    total += lower_row_words(s + slot * stride);
                    total
                });
                std::iter::once(0).chain(ends).collect()
            })
            .collect();
        let shards = offsets
            .iter()
            .map(|o| {
                // One degree per slot; the last offset is the row words.
                let slots = o.len() - 1;
                shard(slots, slots, o[slots])
            })
            .collect();
        Shards { n, shards, offsets }
    }

    /// The shards of a degree-vector round over `n` users and `groups`
    /// groups.
    pub(crate) fn degree_vector(n: usize, groups: usize, num_shards: usize) -> Self {
        let stride = num_shards.max(1);
        Shards {
            n,
            shards: (0..stride)
                .map(|s| shard(slots(n, s, stride), groups, 0))
                .collect(),
            offsets: Vec::new(),
        }
    }

    pub(crate) fn accepted(&self) -> u64 {
        self.shards.iter().map(|s| lock(s).accepted).sum()
    }

    pub(crate) fn duplicates(&self) -> u64 {
        self.shards.iter().map(|s| lock(s).duplicates).sum()
    }

    /// Folds one adjacency report under its owning shard's lock. The
    /// caller guarantees `user_id < n` on an adjacency round; duplicate
    /// ids are counted in the shard and rejected. `timed` also measures
    /// the shard-lock wait — the sampled probe behind the
    /// `ingest_shard_lock_wait_nanos` metric. Returns `(fold result,
    /// nanoseconds spent waiting for the mutex, 0 when untimed)`.
    pub(crate) fn fold_row(
        &self,
        user_id: usize,
        report: &AdjacencyReport,
        timed: bool,
    ) -> (Result<(), ShardReject>, u64) {
        let offsets = &self.offsets[user_id % self.shards.len()];
        self.fold(user_id, timed, |shard, slot| {
            // ldp-lint: hot-path(begin) -- runs under the shard's mutex on
            // every accepted report
            let row = &mut shard.words[offsets[slot]..offsets[slot + 1]];
            fold_lower_bits(row, &report.bits, user_id);
            shard.floats[slot] = report.degree;
            // ldp-lint: hot-path(end)
        })
    }

    /// [`Self::fold_row`] for a degree vector. The caller guarantees
    /// `user_id < n` and `vector.len() == groups` on a degree-vector round.
    pub(crate) fn fold_vector(
        &self,
        user_id: usize,
        vector: &[f64],
        timed: bool,
    ) -> (Result<(), ShardReject>, u64) {
        self.fold(user_id, timed, |shard, _| {
            // ldp-lint: hot-path(begin) -- runs under the shard's mutex on
            // every accepted vector
            for (acc, x) in shard.floats.iter_mut().zip(vector) {
                *acc += x;
            }
            // ldp-lint: hot-path(end)
        })
    }

    /// The duplicate check and counters both folds share; `apply` writes
    /// the report into the owning shard's slot.
    fn fold(
        &self,
        user_id: usize,
        timed: bool,
        apply: impl FnOnce(&mut Shard, usize),
    ) -> (Result<(), ShardReject>, u64) {
        let stride = self.shards.len();
        let begin = timed.then(Instant::now);
        let mut shard = lock(&self.shards[user_id % stride]);
        // ldp-lint: hot-path(begin) -- runs under this shard's mutex on every
        // report; acquiring any further lock here would serialize the whole
        // ingest plane (or deadlock against the checkpoint quiesce)
        let wait_nanos = begin.map_or(0, |b| b.elapsed().as_nanos() as u64);
        let slot = user_id / stride;
        if shard.seen.get(slot) {
            shard.duplicates += 1;
            return (Err(ShardReject::Duplicate), wait_nanos);
        }
        shard.seen.set(slot);
        apply(&mut shard, slot);
        shard.accepted += 1;
        (Ok(()), wait_nanos)
        // ldp-lint: hot-path(end)
    }

    /// Takes an adjacency round's shards out of their locks, unchanged:
    /// finalize copies, mirrors and counts nothing here. The shard set is
    /// consumed; `rr` and `threads` are what
    /// [`FinalizedShards::into_view`] finalizes with.
    pub(crate) fn finalize(self, rr: RandomizedResponse, threads: usize) -> FinalizedShards {
        let Shards { n, shards, offsets } = self;
        FinalizedShards {
            n,
            shards: shards.into_iter().map(inner).collect(),
            offsets,
            rr,
            threads,
        }
    }

    /// A degree-vector round's per-group totals: shard partials summed in
    /// shard order (deterministic for a fixed shard count and per-shard
    /// arrival order). The shard set is consumed.
    pub(crate) fn group_totals(self) -> Vec<f64> {
        let mut totals = Vec::new();
        for shard in self.shards.into_iter().map(inner) {
            // Every shard holds one sum per group; the totals start at +0.0.
            totals.resize(shard.floats.len(), 0.0f64);
            for (t, s) in totals.iter_mut().zip(&shard.floats) {
                *t += s;
            }
        }
        totals
    }

    /// Every shard in index order, for the checkpoint codec. Takes `&mut
    /// self` — the checkpointing caller holds the round's write lock, so
    /// shard access is exclusive and lock-free here.
    pub(crate) fn iter_mut(&mut self) -> impl ExactSizeIterator<Item = &mut Shard> {
        self.shards
            .iter_mut()
            .map(|m| m.get_mut().unwrap_or_else(PoisonError::into_inner))
    }
}

/// A finalized adjacency round, still in its triangularly packed shards.
///
/// The shards together hold the view's strict lower triangle and its
/// reported degrees, which is all a `VIEW` payload carries: the daemon
/// [`encode`](Self::encode)s the reply straight from them, and the
/// client's [`wire::decode_view`] mirrors the triangle once. In-process
/// callers take the view with [`into_view`](Self::into_view). Both read
/// the shards through one row accessor, and both finish on the
/// decoder's path, so `decode_view(encode)` equals `into_view()` bit for
/// bit.
#[derive(Debug)]
pub struct FinalizedShards {
    n: usize,
    shards: Vec<Shard>,
    offsets: Vec<Vec<usize>>,
    rr: RandomizedResponse,
    threads: usize,
}

impl FinalizedShards {
    /// User `i`'s reported degree and owned row words: shard `i %
    /// shards`, slot `i / shards`. The caller guarantees `i < N`.
    fn row(&self, i: usize) -> (f64, &[u64]) {
        let stride = self.shards.len();
        let (shard, offsets) = (&self.shards[i % stride], &self.offsets[i % stride]);
        let slot = i / stride;
        (
            shard.floats[slot],
            &shard.words[offsets[slot]..offsets[slot + 1]],
        )
    }

    /// Appends the round's `VIEW` reply payload
    /// ([`wire::encode_lower_view`]): the reported degrees, then every
    /// shard row in id order.
    pub fn encode(&self, out: &mut Vec<u8>) {
        wire::encode_lower_view(self.n, self.rr.p_keep(), |i| self.row(i), out);
    }

    /// The finalized view: the rows copied into the lower words of a
    /// [`BitMatrix`] (the last word masked below the diagonal, as the
    /// encoder ships it) and finalized by
    /// [`ldp_protocols::ingest::finalize_lower`] — the path
    /// [`wire::decode_view`] takes.
    pub fn into_view(self) -> PerturbedView {
        let n = self.n;
        let mut matrix = BitMatrix::new(n);
        let wpr = matrix.words_per_row().max(1);
        let mut degrees = Vec::with_capacity(n);
        for (i, dst) in matrix.rows_mut(0, n).chunks_exact_mut(wpr).enumerate() {
            let (degree, words) = self.row(i);
            let dst = &mut dst[..words.len()];
            dst.copy_from_slice(words);
            if let Some(last) = dst.last_mut() {
                *last &= lower_row_mask(i);
            }
            degrees.push(degree);
        }
        finalize_lower(matrix, degrees, self.rr, self.threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_graph::Xoshiro256pp;
    use ldp_protocols::StreamingAggregator;
    use rand::Rng;

    fn synth_reports(n: usize, seed: u64) -> Vec<AdjacencyReport> {
        let mut rng = Xoshiro256pp::new(seed);
        (0..n)
            .map(|_| {
                let mut bits = BitSet::new(n);
                for w in bits.words_mut() {
                    *w = rng.gen::<u64>() & rng.gen::<u64>();
                }
                bits.mask_tail();
                AdjacencyReport::new(bits, rng.gen_range(0.0..n as f64))
            })
            .collect()
    }

    fn fold_all(shards: &Shards, batch: &[(u64, AdjacencyReport)]) {
        for (id, report) in batch {
            let _ = shards.fold_row(*id as usize, report, false);
        }
    }

    #[test]
    fn out_of_order_sharded_fold_matches_in_order_streaming() {
        let n = 173;
        let rr = RandomizedResponse::from_keep_probability(0.85).unwrap();
        let reports = synth_reports(n, 0xC0FFEE);

        let mut agg = StreamingAggregator::new(n, rr);
        agg.ingest_batch(&reports);
        let reference = agg.finalize();

        for num_shards in [1, 3, 8, 64] {
            let shards = Shards::adjacency(n, num_shards);
            // Reverse arrival order, in two batches.
            let mut batch: Vec<(u64, AdjacencyReport)> = reports
                .iter()
                .enumerate()
                .map(|(i, r)| (i as u64, r.clone()))
                .rev()
                .collect();
            let second = batch.split_off(n / 3);
            fold_all(&shards, &batch);
            fold_all(&shards, &second);
            assert_eq!(shards.accepted(), n as u64);
            let view = shards.finalize(rr, 4).into_view();
            assert_eq!(view.matrix(), reference.matrix(), "{num_shards} shards");
            assert_eq!(view.reported_degrees(), reference.reported_degrees());
        }
    }

    #[test]
    fn concurrent_folds_match_sequential() {
        let n = 211;
        let rr = RandomizedResponse::from_keep_probability(0.9).unwrap();
        let reports = synth_reports(n, 0xFEED);

        let sequential = Shards::adjacency(n, 8);
        for (i, r) in reports.iter().enumerate() {
            sequential.fold_row(i, r, false).0.unwrap();
        }
        let reference = sequential.finalize(rr, 1).into_view();

        // Four threads racing interleaved id slices (i % 4 == t) into the
        // same shard set — plus every thread replaying thread 0's slice,
        // so duplicate races hit the seen-bitmaps from all sides.
        let concurrent = Shards::adjacency(n, 8);
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let shards = &concurrent;
                let reports = &reports;
                scope.spawn(move || {
                    for (i, r) in reports.iter().enumerate() {
                        if i % 4 == t || i % 4 == 0 {
                            let _ = shards.fold_row(i, r, t == 1);
                        }
                    }
                });
            }
        });
        assert_eq!(concurrent.accepted(), n as u64);
        // Thread 0's slice was replayed by the other three threads.
        assert_eq!(concurrent.duplicates(), 3 * (n as u64).div_ceil(4));
        let view = concurrent.finalize(rr, 1).into_view();
        assert_eq!(view.matrix(), reference.matrix());
        assert_eq!(view.reported_degrees(), reference.reported_degrees());
    }

    #[test]
    fn duplicates_are_rejected_not_refolded() {
        let n = 40;
        let reports = synth_reports(n, 7);
        let shards = Shards::adjacency(n, 4);
        for (i, r) in reports.iter().enumerate() {
            shards.fold_row(i, r, false).0.unwrap();
        }
        // Replay half the population with different contents.
        for (i, r) in synth_reports(n, 8).iter().enumerate().take(n / 2) {
            assert_eq!(shards.fold_row(i, r, false).0, Err(ShardReject::Duplicate));
        }
        assert_eq!(shards.accepted(), n as u64);
        assert_eq!(shards.duplicates(), (n / 2) as u64);

        // The finalized matrix matches the first-arrival-only fold.
        let rr = RandomizedResponse::from_keep_probability(0.9).unwrap();
        let view = shards.finalize(rr, 1).into_view();
        let mut agg = StreamingAggregator::new(n, rr);
        agg.ingest_batch(&reports);
        assert_eq!(view.matrix(), agg.finalize().matrix());
    }

    /// The daemon's encoder and the in-process view go through one
    /// layout: the bytes encoded from the shards are the bytes of the
    /// view they finalize into, and decode back to that view.
    #[test]
    fn shard_encoding_is_the_view_encoding() {
        let rr = RandomizedResponse::from_keep_probability(0.8).unwrap();
        for n in [1, 64, 65, 200] {
            let reports = synth_reports(n, n as u64);
            for num_shards in [1, 3, 8] {
                // Fisher–Yates arrival order.
                let mut order: Vec<usize> = (0..n).collect();
                let mut rng = Xoshiro256pp::new(num_shards as u64);
                for k in (1..n).rev() {
                    order.swap(k, rng.gen_range(0..k + 1));
                }
                let shards = Shards::adjacency(n, num_shards);
                for &i in &order {
                    shards.fold_row(i, &reports[i], false).0.unwrap();
                }
                let finalized = shards.finalize(rr, 2);
                let mut encoded = Vec::new();
                finalized.encode(&mut encoded);
                let view = finalized.into_view();
                let mut reencoded = Vec::new();
                wire::encode_view(&view, &mut reencoded);
                let at = format!("N = {n}, {num_shards} shards");
                assert_eq!(encoded, reencoded, "{at}");

                let decoded = wire::decode_view(&encoded).unwrap();
                assert_eq!(decoded.matrix(), view.matrix(), "{at}");
                assert_eq!(decoded.reported_degrees(), view.reported_degrees());
                for u in 0..n {
                    assert_eq!(decoded.perturbed_degree(u), view.perturbed_degree(u));
                }
                assert_eq!(decoded.rr().p_keep().to_bits(), rr.p_keep().to_bits());
            }
        }
    }

    #[test]
    fn degree_vector_totals_accumulate() {
        let n = 10;
        let k = 3;
        let shards = Shards::degree_vector(n, k, 4);
        for i in 0..n as u64 {
            shards
                .fold_vector(i as usize, &[1.0, 2.0, i as f64], i == 5)
                .0
                .unwrap();
        }
        // A duplicate upload changes nothing.
        assert_eq!(
            shards.fold_vector(3, &[100.0, 100.0, 100.0], false).0,
            Err(ShardReject::Duplicate)
        );
        assert_eq!(shards.accepted(), 10);
        assert_eq!(shards.duplicates(), 1);
        let totals = shards.group_totals();
        assert_eq!(totals[0], 10.0);
        assert_eq!(totals[1], 20.0);
        assert_eq!(totals[2], 45.0);
    }

    #[test]
    fn empty_and_tiny_populations() {
        let shards = Shards::adjacency(0, 8);
        assert_eq!(shards.accepted(), 0);
        let rr = RandomizedResponse::from_keep_probability(0.9).unwrap();
        let view = shards.finalize(rr, 1).into_view();
        assert_eq!(view.matrix().num_nodes(), 0);
        assert!(view.reported_degrees().is_empty());

        // More shards than users.
        let n = 3;
        let reports = synth_reports(n, 1);
        let shards = Shards::adjacency(n, 16);
        for (i, r) in reports.iter().enumerate() {
            shards.fold_row(i, r, false).0.unwrap();
        }
        assert_eq!(shards.accepted(), 3);
    }
}
