//! Checkpoint/resume: snapshotting an in-flight round to disk.
//!
//! A round at a million users is minutes of intake; a collector restart
//! must not cost the epoch. [`RoundCollector::checkpoint`] writes one
//! named round's complete state — lifecycle metadata, owning tenant,
//! counters, and every shard's seen-bitmap, degrees/sums, and packed
//! rows — to a writer; [`RoundCollector::resume_round_into`] restores
//! it into an engine mid-round. Under the concurrent ingest plane,
//! checkpointing takes that round's *slot write* lock: every in-flight
//! ingest of the round (each holds the slot read lock for the duration
//! of one fold) drains first, so the snapshot always sits on a frame
//! boundary — a report is either fully folded into it or not in it at
//! all, never half-written. Other rounds in the registry keep ingesting,
//! untouched. Resumed intake continues exactly where it stopped: the
//! same duplicate set, the same quota charge, and a finalize
//! bit-identical to an uninterrupted run (pinned by the tests below and
//! by `tests/concurrent.rs` with sessions racing the snapshot).
//!
//! The format reuses the wire codec's primitives (varints, `f64`/`u64`
//! bit patterns) under its own magic `LDPK`, so a checkpoint is as
//! versioned and as type-checked on load as a network frame: every
//! malformed or geometry-mismatched snapshot is a typed
//! [`CollectorError::BadCheckpoint`]. Only the current version loads:
//! the journal, the one writer of snapshots (each is the payload of a
//! checkpoint record, [`ldp_protocols::wire::journal::REC_CHECKPOINT`]),
//! has only ever written version 3 (version 2 added the owning tenant,
//! version 3 the `rejected_malformed` counter), and every other version
//! is refused with a typed error.

use crate::codec::{decode_round_header, encode_round_header, RoundHeader};
use crate::error::CollectorError;
use crate::round::{write_lock, RoundCollector};
use ldp_obs::TraceEvent;
use ldp_protocols::wire::{get_u64s, get_varint, put_u64s, put_varint};
use std::io::{Read, Write};
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Magic bytes opening a checkpoint snapshot.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"LDPK";

/// Checkpoint format version (3: the `rejected_malformed` counter
/// follows `rejected_invalid`; 2 added the owning tenant).
pub const CHECKPOINT_VERSION: u8 = 3;

impl RoundCollector {
    /// Snapshots the named round to `w`. Quiesces that round's concurrent
    /// sessions at a frame boundary first (see the module docs); every
    /// other round keeps ingesting.
    ///
    /// # Errors
    /// [`CollectorError::UnknownRound`] when no round has this id; I/O
    /// errors from the writer.
    pub fn checkpoint(&self, round_id: u64, w: &mut impl Write) -> Result<(), CollectorError> {
        let checkpoint_begin = self.metrics().active().then(Instant::now);
        self.metrics()
            .emit(TraceEvent::QuiesceBegin { round: round_id });
        let slot = self.slot(round_id)?;
        let mut guard = write_lock(&slot.inner);
        let round = guard
            .as_mut()
            .ok_or(CollectorError::UnknownRound { round_id })?;
        let mut buf = Vec::new();
        buf.extend_from_slice(&CHECKPOINT_MAGIC);
        buf.push(CHECKPOINT_VERSION);
        let header = RoundHeader {
            round_id: round.round_id,
            tenant: slot.tenant,
            channel: round.channel,
            quota: round.quota,
        };
        encode_round_header(&header, &mut buf);
        put_varint(round.submitted.load(Ordering::Acquire), &mut buf);
        put_varint(round.rejected_quota.load(Ordering::Acquire), &mut buf);
        put_varint(round.rejected_invalid.load(Ordering::Acquire), &mut buf);
        put_varint(round.rejected_malformed.load(Ordering::Acquire), &mut buf);
        buf.push(u8::from(round.closed.load(Ordering::Acquire)));

        let shards = round.shards.iter_mut();
        put_varint(shards.len() as u64, &mut buf);
        for shard in shards {
            put_varint(shard.accepted, &mut buf);
            put_varint(shard.duplicates, &mut buf);
            put_words(shard.seen.words(), &mut buf);
            let bits: Vec<u64> = shard.floats.iter().map(|x| x.to_bits()).collect();
            put_words(&bits, &mut buf);
            put_words(&shard.words, &mut buf);
        }
        w.write_all(&buf)?;
        w.flush()?;
        self.metrics()
            .emit(TraceEvent::QuiesceEnd { round: round_id });
        if let Some(begin) = checkpoint_begin {
            self.metrics()
                .checkpoint_nanos
                .observe(begin.elapsed().as_nanos() as u64);
        }
        Ok(())
    }

    /// Restores one checkpoint produced by [`Self::checkpoint`] **into
    /// this engine** alongside whatever rounds it already holds — the one
    /// restore entry point, which journal recovery uses. The shard
    /// geometry must match this engine's exactly: a mismatch means another
    /// daemon's snapshot, refused rather than re-sharded. All or nothing:
    /// the round enters the registry only once the whole snapshot has
    /// decoded, so a refused snapshot leaves the engine as it was. Returns
    /// the restored round's id.
    ///
    /// # Errors
    /// [`CollectorError::BadCheckpoint`] on malformed bytes or a shard
    /// count differing from `config.shards`; admission refusals if the
    /// round no longer fits this engine's caps.
    pub fn resume_round_into(&self, r: &mut impl Read) -> Result<u64, CollectorError> {
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)?;
        let buf = &mut bytes.as_slice();
        let header = take(buf, 5)?;
        if !header.starts_with(&CHECKPOINT_MAGIC) {
            return Err(CollectorError::BadCheckpoint {
                detail: "bad magic",
            });
        }
        if header[4] != CHECKPOINT_VERSION {
            return Err(CollectorError::BadCheckpoint {
                detail: "unsupported checkpoint version",
            });
        }
        let header = decode_round_header(buf).map_err(|_| CollectorError::BadCheckpoint {
            detail: "malformed round header",
        })?;
        let submitted = get_varint(buf).map_err(malformed)?;
        let rejected_quota = get_varint(buf).map_err(malformed)?;
        let rejected_invalid = get_varint(buf).map_err(malformed)?;
        let rejected_malformed = get_varint(buf).map_err(malformed)?;
        let closed = take(buf, 1)?[0] != 0;
        let num_shards = get_varint(buf).map_err(malformed)?;
        if num_shards != self.config().shards as u64 {
            return Err(CollectorError::BadCheckpoint {
                detail: "shard geometry differs from the engine's configuration",
            });
        }
        let RoundHeader {
            round_id,
            tenant,
            channel,
            quota,
        } = header;
        self.admit(tenant, round_id, channel, quota, |round| {
            for shard in round.shards.iter_mut() {
                shard.accepted = get_varint(buf).map_err(malformed)?;
                shard.duplicates = get_varint(buf).map_err(malformed)?;
                get_words(buf, shard.seen.words_mut())?;
                shard.seen.mask_tail();
                // Floats travel as their bit patterns.
                let mut bits: Vec<u64> = shard.floats.iter().map(|x| x.to_bits()).collect();
                get_words(buf, &mut bits)?;
                for (x, b) in shard.floats.iter_mut().zip(bits) {
                    *x = f64::from_bits(b);
                }
                get_words(buf, &mut shard.words)?;
            }
            if !buf.is_empty() {
                return Err(CollectorError::BadCheckpoint {
                    detail: "trailing bytes",
                });
            }
            round.submitted.store(submitted, Ordering::Release);
            round
                .rejected_quota
                .store(rejected_quota, Ordering::Release);
            round
                .rejected_invalid
                .store(rejected_invalid, Ordering::Release);
            round
                .rejected_malformed
                .store(rejected_malformed, Ordering::Release);
            round.closed.store(closed, Ordering::Release);
            Ok(())
        })?;
        Ok(round_id)
    }
}

fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], CollectorError> {
    let (head, rest) = buf
        .split_at_checked(n)
        .ok_or(CollectorError::BadCheckpoint {
            detail: "truncated",
        })?;
    *buf = rest;
    Ok(head)
}

fn malformed<E>(_: E) -> CollectorError {
    CollectorError::BadCheckpoint {
        detail: "malformed integer field",
    }
}

/// Writes one length-prefixed `u64` array.
fn put_words(words: &[u64], buf: &mut Vec<u8>) {
    put_varint(words.len() as u64, buf);
    put_u64s(words, buf);
}

/// Reads one length-prefixed `u64` array into `dst`. The engine's shard
/// geometry sized `dst`, and a snapshot whose length disagrees is
/// refused, so nothing read from the snapshot sizes an allocation.
fn get_words(buf: &mut &[u8], dst: &mut [u64]) -> Result<(), CollectorError> {
    if get_varint(buf).map_err(malformed)? != dst.len() as u64 {
        return Err(CollectorError::BadCheckpoint {
            detail: "shard size differs from the round's geometry",
        });
    }
    get_u64s(buf, dst).map_err(|_| CollectorError::BadCheckpoint {
        detail: "truncated word array",
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round::{CollectorConfig, IngestOutcome, RoundChannel, RoundOutcome};
    use ldp_graph::{BitSet, Xoshiro256pp};
    use ldp_protocols::{AdjacencyReport, UserReport};
    use proptest::prelude::*;
    use rand::Rng;

    fn synth(n: usize, seed: u64) -> Vec<AdjacencyReport> {
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

    fn config() -> CollectorConfig {
        CollectorConfig {
            shards: 4,
            ..CollectorConfig::default()
        }
    }

    /// Restores `snapshot` into a fresh engine.
    fn resume(snapshot: &[u8]) -> Result<RoundCollector, CollectorError> {
        let engine = RoundCollector::new(config())?;
        engine.resume_round_into(&mut &snapshot[..])?;
        Ok(engine)
    }

    #[test]
    fn resume_mid_round_is_bit_identical_to_uninterrupted() {
        let n = 90;
        let reports = synth(n, 0xABCD);

        // Uninterrupted reference. Quota above n: the interrupted run will
        // also replay one duplicate, which charges the quota (flood
        // protection counts queued reports, not unique users).
        let reference = RoundCollector::new(config()).unwrap();
        reference
            .open_round(
                5,
                RoundChannel::Adjacency {
                    population: n,
                    p_keep: 0.91,
                },
                Some(n as u64 + 8),
            )
            .unwrap();
        for (i, r) in reports.iter().enumerate() {
            reference
                .ingest(5, i as u64, UserReport::Adjacency(r.clone()))
                .unwrap();
        }
        reference.close_round(5).unwrap();
        let RoundOutcome::Adjacency(finalized) = reference.finalize(5).unwrap() else {
            panic!("adjacency outcome expected");
        };
        let reference_view = finalized.into_view();

        // Interrupted run: ingest 40, checkpoint, drop, resume, finish.
        // Opened as tenant 9 to pin that resume restores ownership.
        let first = RoundCollector::new(config()).unwrap();
        first
            .open_round_as(
                9,
                5,
                RoundChannel::Adjacency {
                    population: n,
                    p_keep: 0.91,
                },
                Some(n as u64 + 8),
            )
            .unwrap();
        for (i, r) in reports.iter().enumerate().take(40) {
            first
                .ingest(5, i as u64, UserReport::Adjacency(r.clone()))
                .unwrap();
        }
        let mut snapshot = Vec::new();
        first.checkpoint(5, &mut snapshot).unwrap();
        drop(first);

        let resumed = resume(&snapshot).unwrap();
        assert_eq!(resumed.open_round_ids(), vec![5]);
        assert_eq!(resumed.round_tenant(5).unwrap(), 9);
        // A duplicate of an already-checkpointed id is still rejected
        // (and, like any queued upload, still charges the quota).
        assert_eq!(
            resumed
                .ingest(5, 3, UserReport::Adjacency(reports[3].clone()))
                .unwrap(),
            IngestOutcome::Duplicate
        );
        for (i, r) in reports.iter().enumerate().skip(40) {
            resumed
                .ingest(5, i as u64, UserReport::Adjacency(r.clone()))
                .unwrap();
        }
        let counters = resumed.close_round(5).unwrap();
        assert_eq!(counters.accepted, n as u64);
        assert_eq!(counters.rejected_duplicate, 1);
        let RoundOutcome::Adjacency(finalized) = resumed.finalize(5).unwrap() else {
            panic!("adjacency outcome expected");
        };
        let view = finalized.into_view();
        assert_eq!(view.matrix(), reference_view.matrix());
        assert_eq!(view.reported_degrees(), reference_view.reported_degrees());
        for u in 0..n {
            assert_eq!(view.perturbed_degree(u), reference_view.perturbed_degree(u));
        }
    }

    #[test]
    fn degree_vector_rounds_checkpoint_too() {
        let engine = RoundCollector::new(config()).unwrap();
        engine
            .open_round(
                2,
                RoundChannel::DegreeVector {
                    population: 9,
                    groups: 2,
                },
                None,
            )
            .unwrap();
        for i in 0..6u64 {
            engine
                .ingest(2, i, UserReport::DegreeVector(vec![1.0, i as f64]))
                .unwrap();
        }
        let mut snapshot = Vec::new();
        engine.checkpoint(2, &mut snapshot).unwrap();
        let resumed = resume(&snapshot).unwrap();
        for i in 6..9u64 {
            resumed
                .ingest(2, i, UserReport::DegreeVector(vec![1.0, i as f64]))
                .unwrap();
        }
        resumed.close_round(2).unwrap();
        let RoundOutcome::DegreeVector {
            group_totals,
            accepted,
        } = resumed.finalize(2).unwrap()
        else {
            panic!("degree-vector outcome expected");
        };
        assert_eq!(accepted, 9);
        assert_eq!(group_totals, vec![9.0, 36.0]);
    }

    /// The valid checkpoint of an open 30-user adjacency round.
    fn valid_checkpoint() -> Vec<u8> {
        let engine = RoundCollector::new(config()).unwrap();
        engine.open_round(1, adjacency(30), None).unwrap();
        let mut snapshot = Vec::new();
        engine.checkpoint(1, &mut snapshot).unwrap();
        snapshot
    }

    fn adjacency(population: usize) -> RoundChannel {
        RoundChannel::Adjacency {
            population,
            p_keep: 0.8,
        }
    }

    /// Files every engine must refuse: empty, bad magic, bad version, a
    /// version-2 header (the pre-`rejected_malformed` layout, which no
    /// writer produces), a valid checkpoint with its tail chopped off,
    /// and one with a trailing byte (refused only after every shard has
    /// decoded).
    fn malformed_checkpoints() -> Vec<Vec<u8>> {
        let mut truncated = valid_checkpoint();
        truncated.truncate(truncated.len() - 3);
        let mut trailing = valid_checkpoint();
        trailing.push(0);
        vec![
            Vec::new(),
            b"NOPE\x01".to_vec(),
            {
                let mut v = CHECKPOINT_MAGIC.to_vec();
                v.push(99);
                v
            },
            {
                let mut v = CHECKPOINT_MAGIC.to_vec();
                v.extend_from_slice(&[2, 2, 0, 1, 9, 2, 9, 6, 0, 0, 0]);
                v
            },
            truncated,
            trailing,
        ]
    }

    #[test]
    fn malformed_checkpoints_are_typed() {
        for bytes in malformed_checkpoints() {
            assert!(matches!(
                resume(&bytes),
                Err(CollectorError::BadCheckpoint { .. })
            ));
        }
    }

    /// Resume is all or nothing: a refused file leaves no round, no
    /// memory charge and no claim on the round id behind.
    #[test]
    fn a_refused_checkpoint_leaves_the_engine_empty() {
        let engine = RoundCollector::new(config()).unwrap();
        for bytes in malformed_checkpoints() {
            assert!(matches!(
                engine.resume_round_into(&mut &bytes[..]),
                Err(CollectorError::BadCheckpoint { .. })
            ));
            assert!(engine.open_round_ids().is_empty());
            assert_eq!(engine.memory_used(), 0);
        }
        engine.open_round(1, adjacency(30), None).unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn every_strict_prefix_is_refused_and_leaves_the_engine_empty(
            adjacency_round in 0u8..2,
            n in 1usize..90,
            folded in 0usize..90,
            seed in 0u64..1000,
        ) {
            let engine = RoundCollector::new(config()).unwrap();
            let channel = if adjacency_round == 1 {
                adjacency(n)
            } else {
                RoundChannel::DegreeVector { population: n, groups: 3 }
            };
            engine.open_round_as(2, 4, channel, Some(2 * n as u64)).unwrap();
            for (i, r) in synth(n, seed).into_iter().enumerate().take(folded) {
                let report = if adjacency_round == 1 {
                    UserReport::Adjacency(r)
                } else {
                    UserReport::DegreeVector(vec![r.degree, 1.0, -0.5])
                };
                engine.ingest(4, i as u64, report).unwrap();
            }
            let mut snapshot = Vec::new();
            engine.checkpoint(4, &mut snapshot).unwrap();

            let fresh = RoundCollector::new(config()).unwrap();
            for len in 0..snapshot.len() {
                let refused = fresh.resume_round_into(&mut &snapshot[..len]);
                prop_assert!(
                    matches!(refused, Err(CollectorError::BadCheckpoint { .. })),
                    "prefix of {} bytes: {:?}", len, refused
                );
                prop_assert!(fresh.open_round_ids().is_empty());
                prop_assert_eq!(fresh.memory_used(), 0);
            }
            prop_assert_eq!(fresh.resume_round_into(&mut &snapshot[..]).ok(), Some(4));
            prop_assert_eq!(fresh.counters(4).ok(), engine.counters(4).ok());
        }
    }
}
