//! Per-shard aggregation state: the id-sharded heart of the collector.
//!
//! Reports arriving over the wire carry explicit user ids and arrive in
//! *arbitrary* order — and, since the ingest plane went concurrent, from
//! *multiple session threads at once*. The lower-triangle ownership rule
//! still saves the day: report `i` writes only the owned words of row `i`,
//! so partitioning rows by `user_id % shards` gives every shard an
//! exclusive, disjoint slice of the aggregate. Each shard sits behind its
//! own mutex; a session folds a frame's entries for a shard under one
//! lock of that shard, so sessions touching different shards never contend
//! and the duplicate-id check (the shard's seen-bitmap) is race-free by
//! ownership. Finalize merges nothing: the daemon streams the `VIEW`
//! reply from the shards, row `i` read from shard `i % shards`,
//! slot `i / shards` ([`FinalizedShards`]) — the shard states never
//! overlap, so the triangle they hold together is the whole view.
//!
//! Both channels use one shard shape, and it is exactly what a checkpoint
//! stores per shard: `(accepted, duplicates, seen words, floats, row
//! words)`. An adjacency shard stores its rows *triangularly packed* —
//! row `i` is allotted exactly its `⌈i/64⌉` owned words, so the whole
//! shard set costs one lower triangle (`≈ N²/16` bytes), the size of the
//! `VIEW` payload it streams out — and its floats are the reported
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

use ldp_graph::runtime::default_threads;
use ldp_graph::{BitMatrix, BitSet};
use ldp_mechanisms::RandomizedResponse;
use ldp_protocols::ingest::{finalize_lower, fold_lower_words};
use ldp_protocols::wire::{self, le_u64s, lower_row_mask, lower_row_words, ReportView};
use ldp_protocols::{PerturbedView, WireError};
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

/// One entry of a frame, admitted for a fold: its user, where that user
/// lives, and the report as read from the frame.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Admitted<'a> {
    pub(crate) user_id: usize,
    /// `user_id % shards`.
    pub(crate) shard: usize,
    /// `user_id / shards`.
    pub(crate) slot: usize,
    pub(crate) report: ReportView<'a>,
}

/// What one [`Shards::fold_run`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RunTally {
    pub(crate) accepted: u64,
    pub(crate) duplicates: u64,
    /// Nanoseconds spent waiting for the shard's lock (0 when untimed).
    pub(crate) wait_nanos: u64,
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

    /// Shards in the set: a report's shard is `user_id % stride`, its slot
    /// `user_id / stride`.
    pub(crate) fn stride(&self) -> usize {
        self.shards.len()
    }

    /// Folds one frame's run of admitted entries for shard `shard`, in
    /// the order given, under one acquisition of that shard's lock. Each
    /// entry passes the duplicate check (the shard's seen-bitmap), then an
    /// adjacency report ORs its owned row words into its slot and records
    /// its degree, and a degree vector adds into the shard's sums; both
    /// read the report in place from the frame. The caller guarantees that
    /// every entry routes to `shard` and was validated against this
    /// round's channel. `timed` also measures the lock wait — the sampled
    /// probe behind the `ingest_shard_lock_wait_nanos` metric.
    pub(crate) fn fold_run<'a>(
        &self,
        shard: usize,
        run: impl Iterator<Item = &'a Admitted<'a>>,
        timed: bool,
    ) -> RunTally {
        let Some(cell) = self.shards.get(shard) else {
            return RunTally::default();
        };
        let offsets = self.offsets.get(shard).map_or(&[][..], Vec::as_slice);
        let begin = timed.then(Instant::now);
        let mut guard = lock(cell);
        let state = &mut *guard;
        // ldp-lint: hot-path(begin) -- runs under this shard's mutex for a
        // whole run of a frame; acquiring any further lock here would
        // serialize the ingest plane (or deadlock against the checkpoint
        // quiesce)
        let mut tally = RunTally {
            wait_nanos: begin.map_or(0, |b| b.elapsed().as_nanos() as u64),
            ..RunTally::default()
        };
        for entry in run {
            let slot = entry.slot;
            if state.seen.get(slot) {
                tally.duplicates += 1;
                continue;
            }
            state.seen.set(slot);
            match entry.report {
                ReportView::Adjacency { degree, words, .. } => {
                    let row = &mut state.words[offsets[slot]..offsets[slot + 1]];
                    fold_lower_words(row, le_u64s(words), entry.user_id);
                    state.floats[slot] = degree;
                }
                ReportView::DegreeVector(values) => {
                    for (acc, x) in state.floats.iter_mut().zip(le_u64s(values)) {
                        *acc += f64::from_bits(x);
                    }
                }
            }
            tally.accepted += 1;
        }
        state.accepted += tally.accepted;
        state.duplicates += tally.duplicates;
        tally
        // ldp-lint: hot-path(end)
    }

    /// Takes an adjacency round's shards out of their locks, unchanged:
    /// finalize copies, mirrors and counts nothing here. The shard set is
    /// consumed; `rr` is what [`FinalizedShards::into_view`] finalizes
    /// with.
    pub(crate) fn finalize(self, rr: RandomizedResponse) -> FinalizedShards {
        let Shards { n, shards, offsets } = self;
        FinalizedShards {
            n,
            shards: shards.into_iter().map(inner).collect(),
            offsets,
            rr,
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
/// [`encode`](Self::encode)s the reply from them into its socket, and the
/// client's [`wire::decode_view`] mirrors the triangle once. In-process
/// callers take the view with [`into_view`](Self::into_view). Both read
/// the shards through one row accessor, and both finish on the
/// decoder's path, so `decode_view(encode)` equals `into_view()` bit for
/// bit.
#[derive(Debug)]
pub struct FinalizedShards {
    pub(crate) n: usize,
    shards: Vec<Shard>,
    offsets: Vec<Vec<usize>>,
    rr: RandomizedResponse,
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

    /// Writes the round's `VIEW` reply payload to `w` in pieces
    /// ([`wire::encode_lower_view`]): the reported degrees, then every
    /// shard row in id order.
    ///
    /// # Errors
    /// I/O errors from `w`.
    pub fn encode(&self, w: &mut impl std::io::Write) -> Result<(), WireError> {
        wire::encode_lower_view(self.n, self.rr.p_keep(), |i| self.row(i), w)
    }

    /// The finalized view: the rows copied into the lower words of a
    /// [`BitMatrix`] (the last word masked below the diagonal, as the
    /// encoder ships it) and finalized by
    /// [`ldp_protocols::ingest::finalize_lower`] on
    /// [`default_threads`] workers — the path [`wire::decode_view`]
    /// takes. The bits do not depend on the worker count.
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
        finalize_lower(matrix, degrees, self.rr, default_threads())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_graph::Xoshiro256pp;
    use ldp_protocols::AdjacencyReport;
    use rand::Rng;
    use std::io::Write;

    /// Folds one encoded report as a one-entry run, read in place from
    /// its bytes the way a frame's entries are.
    fn fold_bytes(shards: &Shards, user_id: usize, bytes: &[u8], timed: bool) -> RunTally {
        let (_, report) = wire::decode_report_view(bytes).unwrap();
        let stride = shards.stride();
        let entry = Admitted {
            user_id,
            shard: user_id % stride,
            slot: user_id / stride,
            report,
        };
        shards.fold_run(entry.shard, std::iter::once(&entry), timed)
    }

    fn fold_row(
        shards: &Shards,
        user_id: usize,
        report: &AdjacencyReport,
        timed: bool,
    ) -> RunTally {
        let mut bytes = Vec::new();
        wire::encode_adjacency_report(user_id as u64, report, &mut bytes);
        fold_bytes(shards, user_id, &bytes, timed)
    }

    fn fold_vector(shards: &Shards, user_id: usize, vector: &[f64], timed: bool) -> RunTally {
        let mut bytes = Vec::new();
        wire::encode_degree_vector_report(user_id as u64, vector, &mut bytes);
        fold_bytes(shards, user_id, &bytes, timed)
    }

    fn assert_accepted(tally: RunTally) {
        assert_eq!((tally.accepted, tally.duplicates), (1, 0));
    }

    fn assert_duplicate(tally: RunTally) {
        assert_eq!((tally.accepted, tally.duplicates), (0, 1));
    }

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
            let _ = fold_row(shards, *id as usize, report, false);
        }
    }

    #[test]
    fn out_of_order_sharded_fold_matches_in_order_streaming() {
        let n = 173;
        let rr = RandomizedResponse::from_keep_probability(0.85).unwrap();
        let reports = synth_reports(n, 0xC0FFEE);

        let reference = PerturbedView::from_reports(&reports, rr);

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
            let view = shards.finalize(rr).into_view();
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
            assert_accepted(fold_row(&sequential, i, r, false));
        }
        let reference = sequential.finalize(rr).into_view();

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
                            let _ = fold_row(shards, i, r, t == 1);
                        }
                    }
                });
            }
        });
        assert_eq!(concurrent.accepted(), n as u64);
        // Thread 0's slice was replayed by the other three threads.
        assert_eq!(concurrent.duplicates(), 3 * (n as u64).div_ceil(4));
        let view = concurrent.finalize(rr).into_view();
        assert_eq!(view.matrix(), reference.matrix());
        assert_eq!(view.reported_degrees(), reference.reported_degrees());
    }

    #[test]
    fn duplicates_are_rejected_not_refolded() {
        let n = 40;
        let reports = synth_reports(n, 7);
        let shards = Shards::adjacency(n, 4);
        for (i, r) in reports.iter().enumerate() {
            assert_accepted(fold_row(&shards, i, r, false));
        }
        // Replay half the population with different contents.
        for (i, r) in synth_reports(n, 8).iter().enumerate().take(n / 2) {
            assert_duplicate(fold_row(&shards, i, r, false));
        }
        assert_eq!(shards.accepted(), n as u64);
        assert_eq!(shards.duplicates(), (n / 2) as u64);

        // The finalized matrix matches the first-arrival-only fold.
        let rr = RandomizedResponse::from_keep_probability(0.9).unwrap();
        let view = shards.finalize(rr).into_view();
        let reference = PerturbedView::from_reports(&reports, rr);
        assert_eq!(view.matrix(), reference.matrix());
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
                    assert_accepted(fold_row(&shards, i, &reports[i], false));
                }
                let finalized = shards.finalize(rr);
                let mut encoded = Vec::new();
                finalized.encode(&mut encoded).unwrap();
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

    /// A writer that keeps each `write` call apart.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// The daemon streams a `VIEW` from the shards in pieces: the writes,
    /// joined, are the view's encoding, and none exceeds one piece. At
    /// 5,800 users the payload spans three pieces.
    #[test]
    fn streamed_encoding_is_the_view_encoding_in_bounded_pieces() {
        let rr = RandomizedResponse::from_keep_probability(0.7).unwrap();
        for n in [0, 1, 63, 64, 65, 200, 5_800] {
            let shards = Shards::adjacency(n, 3);
            for (i, r) in synth_reports(n, 3 * n as u64).iter().enumerate() {
                assert_accepted(fold_row(&shards, i, r, false));
            }
            let finalized = shards.finalize(rr);
            let mut writes = Writes::default();
            finalized.encode(&mut writes).unwrap();
            let mut expected = Vec::new();
            wire::encode_view(&finalized.into_view(), &mut expected);
            assert_eq!(writes.0.concat(), expected, "N = {n}");
            assert_eq!(expected.len(), wire::view_payload_len(n));
            assert!(
                writes.0.iter().all(|w| w.len() <= wire::VIEW_PIECE),
                "N = {n}"
            );
            if n == 5_800 {
                assert!(writes.0.len() >= 3, "{} pieces", writes.0.len());
            }
        }
    }

    #[test]
    fn degree_vector_totals_accumulate() {
        let n = 10;
        let k = 3;
        let shards = Shards::degree_vector(n, k, 4);
        for i in 0..n as u64 {
            assert_accepted(fold_vector(
                &shards,
                i as usize,
                &[1.0, 2.0, i as f64],
                i == 5,
            ));
        }
        // A duplicate upload changes nothing.
        assert_duplicate(fold_vector(&shards, 3, &[100.0, 100.0, 100.0], false));
        assert_eq!(shards.accepted(), 10);
        assert_eq!(shards.duplicates(), 1);
        let totals = shards.group_totals();
        assert_eq!(totals[0], 10.0);
        assert_eq!(totals[1], 20.0);
        assert_eq!(totals[2], 45.0);
    }

    /// The admission price covers what the shards allocate (every
    /// vector, plus each shard's lock and row-offset headers), within 136
    /// bytes per shard, on both channels and for populations that are no
    /// multiple of `64 · shards`.
    #[test]
    fn memory_cost_covers_what_the_shards_allocate() {
        use crate::round::{RoundChannel, MAX_SHARDS};
        use std::mem::size_of;
        fn allocated(shards: &Shards) -> u64 {
            let headers = size_of::<Mutex<Shard>>() + size_of::<Vec<usize>>();
            let vectors: usize = shards
                .shards
                .iter()
                .map(|m| {
                    let s = lock(m);
                    8 * s.seen.words().len()
                        + size_of::<f64>() * s.floats.capacity()
                        + 8 * s.words.capacity()
                })
                .chain(
                    shards
                        .offsets
                        .iter()
                        .map(|o| size_of::<usize>() * o.capacity()),
                )
                .sum();
            (vectors + headers * shards.stride()) as u64
        }
        for n in [0, 1, 63, 64, 65, 1000, 4097, 8191] {
            for stride in [1, 3, 8, MAX_SHARDS] {
                let mut cases = vec![(
                    RoundChannel::Adjacency {
                        population: n,
                        p_keep: 0.9,
                    },
                    Shards::adjacency(n, stride),
                )];
                for groups in [1, 5, 64] {
                    let channel = RoundChannel::DegreeVector {
                        population: n,
                        groups,
                    };
                    cases.push((channel, Shards::degree_vector(n, groups, stride)));
                }
                for (channel, shards) in cases {
                    let (used, cost) = (allocated(&shards), channel.memory_cost(stride));
                    let at = format!("{channel:?}, {stride} shards: {used} used, {cost} priced");
                    assert!(used <= cost, "{at}");
                    assert!(cost <= used + 136 * stride as u64, "{at}");
                }
            }
        }
    }

    #[test]
    fn empty_and_tiny_populations() {
        let shards = Shards::adjacency(0, 8);
        assert_eq!(shards.accepted(), 0);
        let rr = RandomizedResponse::from_keep_probability(0.9).unwrap();
        let view = shards.finalize(rr).into_view();
        assert_eq!(view.matrix().num_nodes(), 0);
        assert!(view.reported_degrees().is_empty());

        // More shards than users.
        let n = 3;
        let reports = synth_reports(n, 1);
        let shards = Shards::adjacency(n, 16);
        for (i, r) in reports.iter().enumerate() {
            assert_accepted(fold_row(&shards, i, r, false));
        }
        assert_eq!(shards.accepted(), 3);
    }
}
