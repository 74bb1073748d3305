//! Determinism and panic-freedom pins for the invariants `ldp-lint`
//! enforces statically (DESIGN.md §9): checkpoint bytes are
//! schedule-independent, registry enumeration is ordered however rounds
//! were opened, and the typed-error conversions on the finalize/resume
//! paths behave — a failed finalize leaves the round fully usable, and
//! malformed inputs surface as typed errors, never panics.

use ldp_collector::{
    CollectorConfig, CollectorError, IngestOutcome, RoundChannel, RoundCollector, RoundOutcome,
};
use ldp_graph::{BitSet, Xoshiro256pp};
use ldp_protocols::{AdjacencyReport, UserReport};
use rand::Rng;
use std::sync::Arc;

fn config() -> CollectorConfig {
    CollectorConfig {
        shards: 4,
        ..CollectorConfig::default()
    }
}

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

fn adjacency(n: usize) -> RoundChannel {
    RoundChannel::Adjacency {
        population: n,
        p_keep: 0.9,
    }
}

/// Ingests `reports` into a fresh round in the order given by `order` and
/// returns the round's checkpoint bytes.
fn checkpoint_after(order: &[usize], reports: &[AdjacencyReport]) -> Vec<u8> {
    let engine = RoundCollector::new(config()).unwrap();
    engine
        .open_round(7, adjacency(reports.len()), None)
        .unwrap();
    for &i in order {
        assert_eq!(
            engine
                .ingest(7, i as u64, UserReport::Adjacency(reports[i].clone()))
                .unwrap(),
            IngestOutcome::Queued
        );
    }
    let mut snapshot = Vec::new();
    engine.checkpoint(7, &mut snapshot).unwrap();
    snapshot
}

/// The `LDPK` bytes of a round must not depend on the order reports
/// arrived: ascending, descending, and an interleaved shuffle all fold to
/// the same shard state, so the serialized checkpoints are identical byte
/// for byte.
#[test]
fn checkpoint_bytes_are_ingest_order_independent() {
    let n = 70;
    let reports = synth(n, 0x5EED);

    let ascending: Vec<usize> = (0..n).collect();
    let descending: Vec<usize> = (0..n).rev().collect();
    // A deterministic shuffle: odd ids first, then even — a schedule two
    // racing sessions could plausibly produce.
    let interleaved: Vec<usize> = (0..n)
        .filter(|i| i % 2 == 1)
        .chain((0..n).filter(|i| i % 2 == 0))
        .collect();

    let reference = checkpoint_after(&ascending, &reports);
    assert_eq!(reference, checkpoint_after(&descending, &reports));
    assert_eq!(reference, checkpoint_after(&interleaved, &reports));
}

/// The same property under a *real* race: two threads ingest disjoint
/// halves concurrently; whatever interleaving the scheduler produced, the
/// checkpoint after both finish equals the sequential one.
#[test]
fn checkpoint_bytes_survive_a_concurrent_schedule() {
    let n = 64;
    let reports = synth(n, 0xC0FFEE);
    let sequential = checkpoint_after(&(0..n).collect::<Vec<_>>(), &reports);

    for trial in 0..4 {
        let engine = Arc::new(RoundCollector::new(config()).unwrap());
        engine.open_round(7, adjacency(n), None).unwrap();
        let halves: Vec<Vec<usize>> = vec![
            (0..n).filter(|i| i % 2 == trial % 2).collect(),
            (0..n).filter(|i| i % 2 != trial % 2).collect(),
        ];
        let threads: Vec<_> = halves
            .into_iter()
            .map(|ids| {
                let engine = Arc::clone(&engine);
                let reports = reports.clone();
                std::thread::spawn(move || {
                    for i in ids {
                        engine
                            .ingest(7, i as u64, UserReport::Adjacency(reports[i].clone()))
                            .unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let mut snapshot = Vec::new();
        engine.checkpoint(7, &mut snapshot).unwrap();
        assert_eq!(snapshot, sequential, "trial {trial} diverged");
    }
}

/// Round-id enumeration is ascending whatever order rounds were opened in
/// (the registry is an ordered map — pinned so a close-summary or
/// checkpoint sweep can never observe hash order).
#[test]
fn open_round_ids_are_sorted_regardless_of_open_order() {
    let engine = RoundCollector::new(config()).unwrap();
    for id in [9u64, 3, 7, 1] {
        engine.open_round(id, adjacency(8), None).unwrap();
    }
    assert_eq!(engine.open_round_ids(), vec![1, 3, 7, 9]);
}

/// Regression for the finalize conversion (`guard.take().expect(..)` →
/// typed path): an early finalize is a typed `RoundIncomplete` that puts
/// the round state *back* — intake continues and a later finalize matches
/// an uninterrupted run bit for bit.
#[test]
fn failed_finalize_leaves_the_round_usable() {
    let n = 40;
    let reports = synth(n, 0xBEEF);

    let reference = RoundCollector::new(config()).unwrap();
    reference.open_round(3, adjacency(n), None).unwrap();
    for (i, r) in reports.iter().enumerate() {
        reference
            .ingest(3, i as u64, UserReport::Adjacency(r.clone()))
            .unwrap();
    }
    let RoundOutcome::Adjacency(finalized) = reference.finalize(3).unwrap() else {
        panic!("adjacency outcome expected");
    };
    let reference_view = finalized.into_view();

    let engine = RoundCollector::new(config()).unwrap();
    engine.open_round(3, adjacency(n), None).unwrap();
    for (i, r) in reports.iter().enumerate().take(n / 2) {
        engine
            .ingest(3, i as u64, UserReport::Adjacency(r.clone()))
            .unwrap();
    }
    // Premature finalize: typed refusal, not a panic, not a poisoned round.
    assert!(matches!(
        engine.finalize(3),
        Err(CollectorError::RoundIncomplete { .. })
    ));
    // The round is still open, still counting, still finalizable.
    assert_eq!(engine.open_round_ids(), vec![3]);
    for (i, r) in reports.iter().enumerate().skip(n / 2) {
        assert_eq!(
            engine
                .ingest(3, i as u64, UserReport::Adjacency(r.clone()))
                .unwrap(),
            IngestOutcome::Queued
        );
    }
    let RoundOutcome::Adjacency(finalized) = engine.finalize(3).unwrap() else {
        panic!("adjacency outcome expected");
    };
    let view = finalized.into_view();
    assert_eq!(view.matrix(), reference_view.matrix());
    assert_eq!(view.reported_degrees(), reference_view.reported_degrees());
}

/// Regression for the open-time flip-mechanism construction (the
/// `expect("validated at open")` removal): a keep probability outside
/// (0.5, 1) is a typed refusal at open — finalize can no longer even see
/// an invalid one.
#[test]
fn invalid_keep_probability_is_refused_at_open() {
    let engine = RoundCollector::new(config()).unwrap();
    for p_keep in [0.0, 0.5, 1.0, 1.5, f64::NAN] {
        assert!(
            matches!(
                engine.open_round(
                    1,
                    RoundChannel::Adjacency {
                        population: 8,
                        p_keep,
                    },
                    None,
                ),
                Err(CollectorError::InvalidConfig { .. })
            ),
            "p_keep = {p_keep} was admitted"
        );
    }
    assert!(engine.open_round_ids().is_empty());
}

/// Regression for the resume conversion (`expect("round just opened")` →
/// typed path): a checkpoint whose shard payload disagrees with its own
/// recorded geometry is a typed `BadCheckpoint`, never a panic.
#[test]
fn geometry_mismatched_checkpoint_is_typed() {
    let engine = RoundCollector::new(config()).unwrap();
    engine.open_round(5, adjacency(30), None).unwrap();
    for (i, r) in synth(30, 1).iter().enumerate().take(10) {
        engine
            .ingest(5, i as u64, UserReport::Adjacency(r.clone()))
            .unwrap();
    }
    let mut snapshot = Vec::new();
    engine.checkpoint(5, &mut snapshot).unwrap();

    // Flip every byte position in turn; resume must always be total. (The
    // population/shard fields live near the head, so this sweeps geometry
    // mismatches as well as payload corruption.)
    for pos in 0..snapshot.len().min(64) {
        let mut bad = snapshot.clone();
        bad[pos] ^= 0xFF;
        let resumed = RoundCollector::new(config()).unwrap();
        match resumed.resume_round_into(&mut bad.as_slice()) {
            Ok(_) => {
                // Some flips only touch counters and still parse; the
                // engine must still be in a coherent, usable state.
                let _ = resumed.open_round_ids();
            }
            Err(e) => assert!(
                matches!(
                    e,
                    CollectorError::BadCheckpoint { .. }
                        | CollectorError::InvalidConfig { .. }
                        | CollectorError::PopulationCap { .. }
                        | CollectorError::GroupCap { .. }
                        | CollectorError::RoundAlreadyOpen { .. }
                        | CollectorError::MemoryBudget { .. }
                        | CollectorError::TenantQuota { .. }
                ),
                "byte {pos}: unexpected error {e:?}"
            ),
        }
    }
}

/// A fixed report for user `i` of an `n`-user round: a sparse arithmetic
/// neighbour pattern and a fractional degree, with no RNG in the way.
fn fixed_report(n: usize, i: usize) -> AdjacencyReport {
    let mut bits = BitSet::new(n);
    for j in (0..n).filter(|&j| j != i && (i * 7 + j * 3).is_multiple_of(5)) {
        bits.set(j);
    }
    AdjacencyReport::new(bits, i as f64 * 0.75 - 2.0)
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The `LDPK` v3 bytes of an open adjacency round: tenant 3, a quota of
/// 70 over 66 users (so rows 64 and 65 own two packed words), eight
/// accepted reports, one duplicate, one out-of-range id and one malformed
/// upload.
#[test]
fn adjacency_checkpoint_bytes_are_pinned() {
    let n = 66;
    let engine = RoundCollector::new(config()).unwrap();
    engine
        .open_round_as(
            3,
            11,
            RoundChannel::Adjacency {
                population: n,
                p_keep: 0.8,
            },
            Some(70),
        )
        .unwrap();
    for i in [65, 0, 1, 2, 3, 64, 10, 30] {
        let report = UserReport::Adjacency(fixed_report(n, i));
        assert_eq!(
            engine.ingest(11, i as u64, report).unwrap(),
            IngestOutcome::Queued
        );
    }
    let duplicate = UserReport::Adjacency(fixed_report(n, 4));
    assert_eq!(
        engine.ingest(11, 3, duplicate).unwrap(),
        IngestOutcome::Duplicate
    );
    let out_of_range = UserReport::Adjacency(fixed_report(n, 5));
    assert_eq!(
        engine.ingest(11, n as u64, out_of_range).unwrap(),
        IngestOutcome::Invalid
    );
    engine.note_invalid(11);
    let mut snapshot = Vec::new();
    engine.checkpoint(11, &mut snapshot).unwrap();
    assert_eq!(hex(&snapshot), GOLDEN_ADJACENCY);
}

/// The `LDPK` v3 bytes of a closed degree-vector round: tenant 5, a quota
/// of 12 over 10 users and 3 groups, six accepted vectors and one
/// duplicate.
#[test]
fn degree_vector_checkpoint_bytes_are_pinned() {
    let engine = RoundCollector::new(config()).unwrap();
    engine
        .open_round_as(
            5,
            12,
            RoundChannel::DegreeVector {
                population: 10,
                groups: 3,
            },
            Some(12),
        )
        .unwrap();
    let vector = |i: u64| UserReport::DegreeVector(vec![i as f64, 0.25, -1.5 * i as f64]);
    for i in 0..6 {
        assert_eq!(
            engine.ingest(12, i, vector(i)).unwrap(),
            IngestOutcome::Queued
        );
    }
    assert_eq!(
        engine.ingest(12, 2, vector(9)).unwrap(),
        IngestOutcome::Duplicate
    );
    engine.close_round(12).unwrap();
    let mut snapshot = Vec::new();
    engine.checkpoint(12, &mut snapshot).unwrap();
    assert_eq!(hex(&snapshot), GOLDEN_DEGREE_VECTOR);
}

// The `LDPK` v3 bytes the two tests above pin. A change to either is a
// checkpoint format change.
const GOLDEN_DEGREE_VECTOR: &str = concat!(
    "4c44504b030c05010a030c0700000001040200010300000000000000030000000000001040000000000000e0",
    "3f00000000000018c0000200010300000000000000030000000000001840000000000000e03f000000000000",
    "22c0000101010100000000000000030000000000000040000000000000d03f00000000000008c00001000101",
    "00000000000000030000000000000840000000000000d03f00000000000012c000",
);

const GOLDEN_ADJACENCY: &str = concat!(
    "4c44504b030b0300429a9999999999e93f4609000101000402000101000100000000001100000000000000c0",
    "0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000000000000000474010000000",
    "0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000104208218410420802000101000100",
    "0000000011000000000000f4bf00000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "0000000000006047401200000000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "00000000000021841042082184100000000000000000030001850000000000000010000000000000e0bf0000",
    "0000000000000000000000001640000000000000000000000000000000000000000000000000000000000000",
    "0000000000000080344000000000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000001000000000000000000000000000",
    "0000002100000000000000000000000000000000000000000000000000000000000000000000000000000021",
    "8410020000000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000101010100000000000000100000000000",
    "00d03f0000000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000000000100000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
);
