//! Property tests for the wire codec: `encode ∘ decode == id` for
//! arbitrary [`UserReport`]s of both channel variants, plus hand-written
//! malformed-frame cases asserting typed [`WireError`]s — the decoder must
//! never panic, whatever bytes arrive.

use ldp_graph::{BitSet, Xoshiro256pp};
use ldp_protocols::lfgdpr::estimate_clustering_at;
use ldp_protocols::wire::{
    self, decode_report, encode_report, put_f64, put_u64, put_varint, WireError,
};
use ldp_protocols::{AdjacencyReport, LfGdpr, PerturbedView, UserReport};
use proptest::prelude::*;
use rand::Rng;

/// Deterministically synthesizes an arbitrary report of either variant
/// from proptest-drawn knobs: population/length, bit density, degree.
fn synth_report(adjacency: bool, n: usize, density_shift: u32, seed: u64) -> UserReport {
    let mut rng = Xoshiro256pp::new(seed);
    if adjacency {
        let mut bits = BitSet::new(n);
        for w in bits.words_mut() {
            let mut word = rng.gen::<u64>();
            for _ in 0..density_shift {
                word &= rng.gen::<u64>();
            }
            *w = word;
        }
        bits.mask_tail();
        let degree = rng.gen_range(-1.0..n.max(1) as f64);
        UserReport::Adjacency(AdjacencyReport::new(bits, degree))
    } else {
        UserReport::DegreeVector((0..n).map(|_| rng.gen_range(-50.0..50.0)).collect())
    }
}

/// Walks `stream` with [`wire::split_frame`] and [`wire::read_frame`] side
/// by side: they must return the same frames in order, `split_frame` the
/// frame's exact bytes in place, and end alike — "incomplete" exactly
/// where `read_frame` reads a torn frame (or a clean end on an empty
/// rest), the same oversize refusal otherwise. Returns the frame count.
fn split_matches_read(stream: &[u8]) -> Result<usize, String> {
    let (mut rest, mut reader, mut payload) = (stream, stream, Vec::new());
    for count in 0.. {
        match (
            wire::split_frame(rest),
            wire::read_frame(&mut reader, &mut payload),
        ) {
            (Ok(Some((frame, tail))), Ok(Some(kind))) => {
                if (frame.kind, frame.payload) != (kind, &payload[..]) {
                    return Err(format!("frame {count} differs"));
                }
                if frame.bytes.len() + tail.len() != rest.len() || !rest.starts_with(frame.bytes) {
                    return Err(format!("frame {count} is not the head of the buffer"));
                }
                rest = tail;
            }
            (Ok(None), Ok(None)) if rest.is_empty() => return Ok(count),
            (Ok(None), Err(WireError::Io(std::io::ErrorKind::UnexpectedEof)))
                if !rest.is_empty() =>
            {
                return Ok(count)
            }
            (
                Err(WireError::OversizeFrame { len }),
                Err(WireError::OversizeFrame { len: read }),
            ) if len == read => return Ok(count),
            (split, read) => {
                return Err(format!("frame {count}: split {split:?}, read {read:?}"));
            }
        }
    }
    unreachable!("the walk ends within the stream")
}

fn assert_identical(a: &UserReport, b: &UserReport) -> Result<(), String> {
    match (a, b) {
        (UserReport::Adjacency(x), UserReport::Adjacency(y)) => {
            if x.bits != y.bits {
                return Err("adjacency bits differ".into());
            }
            if x.degree.to_bits() != y.degree.to_bits() {
                return Err("degree bits differ".into());
            }
            Ok(())
        }
        (UserReport::DegreeVector(x), UserReport::DegreeVector(y)) => {
            if x.len() != y.len() {
                return Err("vector lengths differ".into());
            }
            for (i, (p, q)) in x.iter().zip(y).enumerate() {
                if p.to_bits() != q.to_bits() {
                    return Err(format!("vector entry {i} differs"));
                }
            }
            Ok(())
        }
        _ => Err("channel variant flipped in transit".into()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Round-trip identity over both variants, all population regimes the
    /// bit packing cares about (empty, sub-word, word-aligned, multi-word).
    #[test]
    fn encode_decode_is_identity(
        variant in 0usize..2,
        n in 0usize..300,
        density_shift in 0u32..4,
        seed in 0u64..u64::MAX,
        user_id in 0u64..u64::MAX,
    ) {
        let report = synth_report(variant == 0, n, density_shift, seed);
        let mut out = Vec::new();
        encode_report(user_id, &report, &mut out);
        let (got_id, got) = decode_report(&out).expect("well-formed frame must decode");
        prop_assert_eq!(got_id, user_id);
        if let Err(msg) = assert_identical(&report, &got) {
            prop_assert!(false, "{}", msg);
        }
    }

    /// The computed entry length is the encoded one: a batch entry is the
    /// `encode_report` bytes behind a varint of exactly their length, and
    /// `varint_len` is what `put_varint` writes. Sparse rows (up to nine
    /// ANDed draws per word) ship trailing zero words; ids are drawn
    /// across every varint width.
    #[test]
    fn computed_entry_length_is_the_encoded_length(
        variant in 0usize..2,
        n in 0usize..300,
        density_shift in 0u32..9,
        seed in 0u64..u64::MAX,
        user_id in 0u64..u64::MAX,
        id_shift in 0u32..64,
    ) {
        let user_id = user_id >> id_shift;
        let report = synth_report(variant == 0, n, density_shift, seed);
        let mut bare = Vec::new();
        encode_report(user_id, &report, &mut bare);
        let mut id = Vec::new();
        put_varint(user_id, &mut id);
        prop_assert_eq!(wire::varint_len(user_id), id.len());
        // A one-entry batch of round 5: the round, the count, the entry.
        let mut expected = vec![5, 1];
        put_varint(bare.len() as u64, &mut expected);
        prop_assert_eq!(wire::varint_len(bare.len() as u64), expected.len() - 2);
        expected.extend_from_slice(&bare);
        let mut batch = Vec::new();
        wire::encode_routed_batch(5, &[(user_id, &report)], &mut batch);
        prop_assert_eq!(batch, expected);
    }

    /// Every truncation of a valid payload decodes to a typed error —
    /// never a panic, never a bogus success.
    #[test]
    fn truncations_never_panic(
        variant in 0usize..2,
        n in 1usize..200,
        seed in 0u64..u64::MAX,
    ) {
        let report = synth_report(variant == 0, n, 1, seed);
        let mut out = Vec::new();
        encode_report(7, &report, &mut out);
        for cut in 0..out.len() {
            prop_assert!(decode_report(&out[..cut]).is_err(), "cut at {} decoded", cut);
        }
    }

    /// Arbitrary byte soup decodes to a typed error or a valid report —
    /// the decoder is total.
    #[test]
    fn random_bytes_never_panic(len in 0usize..96, seed in 0u64..u64::MAX) {
        let mut rng = Xoshiro256pp::new(seed);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen::<u64>() as u8).collect();
        let _ = decode_report(&bytes);
    }

    /// REPORT_BATCH round-trip identity: an arbitrary mix of both report
    /// variants survives batch encode → decode bit for bit, ids and all.
    #[test]
    fn batch_encode_decode_is_identity(
        count in 0usize..12,
        n in 0usize..150,
        seed in 0u64..u64::MAX,
    ) {
        let entries: Vec<(u64, UserReport)> = (0..count)
            .map(|k| {
                let report = synth_report(k % 2 == 0, n, 1, seed ^ k as u64);
                (seed.wrapping_add(k as u64), report)
            })
            .collect();
        let mut out = Vec::new();
        wire::encode_routed_batch(seed, &entries, &mut out);
        let (round_id, mut batch) = wire::read_routed_batch(&out).expect("well-formed batch");
        prop_assert_eq!(round_id, seed);
        prop_assert_eq!(batch.remaining(), count);
        for (want_id, want) in &entries {
            let (id, got) = batch.next_entry()
                .expect("entry present")
                .expect("entry decodes");
            prop_assert_eq!(id, *want_id);
            if let Err(msg) = assert_identical(want, &got) {
                prop_assert!(false, "{}", msg);
            }
        }
        prop_assert!(batch.next_entry().is_none());
        prop_assert!(batch.finish().is_ok());
    }

    /// Every truncation of a valid batch payload surfaces a typed error
    /// (from the count, an entry frame, or an entry body) or decodes
    /// fewer entries — never a panic, never an entry that was not sent.
    #[test]
    fn batch_truncations_never_panic(
        count in 1usize..6,
        n in 1usize..100,
        seed in 0u64..u64::MAX,
        cut_frac in 0.0f64..1.0,
    ) {
        let entries: Vec<(u64, UserReport)> = (0..count)
            .map(|k| (k as u64, synth_report(k % 2 == 0, n, 1, seed ^ k as u64)))
            .collect();
        let mut out = Vec::new();
        wire::encode_routed_batch(seed, &entries, &mut out);
        let cut = ((out.len() as f64) * cut_frac) as usize;
        match wire::read_routed_batch(&out[..cut.min(out.len() - 1)]) {
            Err(_) => {}
            Ok((_, mut batch)) => {
                let mut decoded = 0usize;
                let mut errored = false;
                while let Some(entry) = batch.next_entry() {
                    match entry {
                        Ok(_) => decoded += 1,
                        Err(_) => errored = true,
                    }
                }
                // A strict prefix can never yield the whole batch clean.
                prop_assert!(decoded < count || errored || batch.finish().is_err());
            }
        }
    }

    /// Random byte soup through the batch decoder is total: typed errors
    /// or valid entries, never a panic, and never more entries than the
    /// (capped) count claims.
    #[test]
    fn batch_random_bytes_never_panic(len in 0usize..128, seed in 0u64..u64::MAX) {
        let mut rng = Xoshiro256pp::new(seed);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen::<u64>() as u8).collect();
        if let Ok((_, mut batch)) = wire::read_routed_batch(&bytes) {
            prop_assert!(batch.remaining() <= wire::MAX_REPORTS_PER_BATCH);
            let mut yielded = 0usize;
            while batch.next_entry().is_some() {
                yielded += 1;
            }
            prop_assert!(yielded <= wire::MAX_REPORTS_PER_BATCH);
        }
    }

    /// An interleaved stream of one-entry routed batches from random
    /// (round, user) pairs lands every payload with exactly the round id
    /// it was stamped with — routing is a pure function of the frame,
    /// never of decode order or of neighboring frames.
    #[test]
    fn interleaved_routed_frames_decode_to_their_own_round(
        frames in 1usize..24,
        rounds in 1u64..6,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = Xoshiro256pp::new(seed);
        let stream: Vec<(u64, u64, UserReport)> = (0..frames)
            .map(|k| {
                let round = rng.gen_range(0..rounds);
                let report = synth_report(k % 2 == 0, 1 + (k % 40), 1, seed ^ k as u64);
                (round, k as u64, report)
            })
            .collect();
        let encoded: Vec<Vec<u8>> = stream
            .iter()
            .map(|(round, id, report)| {
                let mut out = Vec::new();
                wire::encode_routed_batch(*round, &[(*id, report.clone())], &mut out);
                out
            })
            .collect();
        for ((round, id, report), bytes) in stream.iter().zip(&encoded) {
            let (got_round, mut batch) = wire::read_routed_batch(bytes).expect("decodes");
            let (got_id, got) = batch.next_entry().expect("one entry").expect("entry decodes");
            prop_assert_eq!(got_round, *round);
            prop_assert_eq!(got_id, *id);
            if let Err(msg) = assert_identical(report, &got) {
                prop_assert!(false, "{}", msg);
            }
        }
    }

    /// Routed batch round-trip: the round id rides the batch head, every
    /// entry decodes bit-identically, and truncating the head yields a
    /// typed error, never a batch assigned to a garbage round.
    #[test]
    fn routed_batch_round_trips_and_truncations_are_typed(
        count in 0usize..10,
        n in 0usize..120,
        seed in 0u64..u64::MAX,
        round_id in 0u64..u64::MAX,
    ) {
        let entries: Vec<(u64, UserReport)> = (0..count)
            .map(|k| (k as u64, synth_report(k % 2 == 0, n, 1, seed ^ k as u64)))
            .collect();
        let mut out = Vec::new();
        wire::encode_routed_batch(round_id, &entries, &mut out);
        let (got_round, mut batch) = wire::read_routed_batch(&out).expect("well-formed batch");
        prop_assert_eq!(got_round, round_id);
        prop_assert_eq!(batch.remaining(), count);
        for (want_id, want) in &entries {
            let (id, got) = batch.next_entry()
                .expect("entry present")
                .expect("entry decodes");
            prop_assert_eq!(id, *want_id);
            if let Err(msg) = assert_identical(want, &got) {
                prop_assert!(false, "{}", msg);
            }
        }
        prop_assert!(batch.finish().is_ok());
        // Cut inside the routing varint: typed, not misrouted.
        prop_assert!(wire::read_routed_batch(&[]).is_err());
    }

    /// STATS_REPLY round-trip identity over arbitrary registries — every
    /// value kind (counter, gauge, histogram), arbitrary names and bucket
    /// shapes — and totality under truncation: every cut of a valid
    /// payload is a typed error, never a panic or a bogus success.
    #[test]
    fn stats_reply_round_trips_and_rejects_truncation(
        count in 0usize..10,
        buckets in 0usize..9,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = Xoshiro256pp::new(seed);
        let entries: Vec<wire::StatsEntry> = (0..count)
            .map(|k| {
                let name: String = (0..rng.gen_range(1..24usize))
                    .map(|_| char::from(b'a' + (rng.gen::<u64>() % 26) as u8))
                    .collect();
                let value = match k % 3 {
                    0 => wire::StatsValue::Counter(rng.gen::<u64>()),
                    1 => wire::StatsValue::Gauge(rng.gen::<u64>()),
                    _ => wire::StatsValue::Histogram {
                        sum: rng.gen::<u64>(),
                        buckets: (0..buckets).map(|_| rng.gen::<u64>()).collect(),
                    },
                };
                wire::StatsEntry { name, value }
            })
            .collect();
        let mut out = Vec::new();
        wire::encode_stats_reply(&entries, &mut out);
        prop_assert_eq!(
            wire::decode_stats_reply(&out).expect("well-formed reply decodes"),
            entries
        );
        for cut in 0..out.len() {
            prop_assert!(
                wire::decode_stats_reply(&out[..cut]).is_err(),
                "cut at {} decoded",
                cut
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `VIEW` payload corruption: flipping bits anywhere in an encoded view
    /// either fails to decode with a typed error or yields a view that
    /// upholds the invariants the estimator relies on (symmetric matrix,
    /// zero diagonal, no bits past `N`, degrees equal to row popcounts).
    #[test]
    fn corrupted_views_decode_only_when_well_formed(
        n in 1usize..140,
        density_shift in 1u32..4,
        flips in 1usize..4,
        seed in 0u64..u64::MAX,
    ) {
        let reports: Vec<AdjacencyReport> = (0..n)
            .map(|i| match synth_report(true, n, density_shift, seed ^ i as u64) {
                UserReport::Adjacency(r) => r,
                UserReport::DegreeVector(_) => unreachable!("adjacency requested"),
            })
            .collect();
        let view = PerturbedView::from_reports(&reports, LfGdpr::new(2.0).unwrap().rr());
        let mut out = Vec::new();
        wire::encode_view(&view, &mut out);
        let mut rng = Xoshiro256pp::new(seed);
        for _ in 0..flips {
            let at = rng.gen_range(0..out.len());
            out[at] ^= 1 << rng.gen_range(0..8u32);
        }
        if let Ok(got) = wire::decode_view(&out) {
            let m = got.matrix();
            prop_assert!(m.is_well_formed());
            for u in 0..got.num_users() {
                prop_assert_eq!(got.perturbed_degree(u), m.degree(u));
            }
            let nodes: Vec<usize> = (0..got.num_users()).collect();
            prop_assert_eq!(estimate_clustering_at(&got, &nodes).len(), nodes.len());
        }
    }
}

/// An adjacency view over `n` users from [`synth_report`] rows.
fn synth_view(n: usize, density_shift: u32, seed: u64) -> PerturbedView {
    let reports: Vec<AdjacencyReport> = (0..n)
        .map(
            |i| match synth_report(true, n, density_shift, seed ^ i as u64) {
                UserReport::Adjacency(r) => r,
                UserReport::DegreeVector(_) => unreachable!("adjacency requested"),
            },
        )
        .collect();
    PerturbedView::from_reports(&reports, LfGdpr::new(2.0).unwrap().rr())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The v3 `VIEW` layout: the payload is exactly
    /// [`wire::view_payload_len`] bytes, it decodes to the view it came
    /// from, and setting any bit at or above the diagonal in a row's last
    /// owned word — the only non-lower bits the layout can express — is
    /// refused as a malformed matrix.
    #[test]
    fn lower_triangle_views_round_trip_and_refuse_upper_bits(
        n in 2usize..200,
        density_shift in 0u32..3,
        pick in 0u64..u64::MAX,
        seed in 0u64..u64::MAX,
    ) {
        let view = synth_view(n, density_shift, seed);
        let mut out = Vec::new();
        wire::encode_view(&view, &mut out);
        prop_assert_eq!(out.len(), wire::view_payload_len(n));
        let got = wire::decode_view(&out).expect("well-formed view decodes");
        prop_assert!(got.matrix() == view.matrix());
        prop_assert_eq!(got.reported_degrees(), view.reported_degrees());
        for u in 0..n {
            prop_assert_eq!(got.perturbed_degree(u), view.perturbed_degree(u));
        }

        // A row that is a multiple of 64 ends its last word at column
        // `row − 1`, so it has no such bit; step down to the row before.
        let row = 1 + (pick % (n as u64 - 1)) as usize;
        let row = row - usize::from(row.is_multiple_of(64));
        let top = 64 * wire::lower_row_words(row);
        let col = row + ((pick >> 32) % (top - row) as u64) as usize;
        let triangle = out.len() - 8 * wire::lower_triangle_words(n);
        let word = triangle + 8 * (wire::lower_triangle_words(row) + col / 64);
        out[word + (col % 64) / 8] |= 1 << (col % 8);
        let refused = matches!(
            wire::decode_view(&out),
            Err(WireError::BadValue { field: "matrix" })
        );
        prop_assert!(refused, "bit ({}, {}) of N = {} accepted", row, col, n);
    }
}

/// Every opcode in [`wire::frames`] — request and reply — survives a
/// `write_frame` → `read_frame` round trip with an arbitrary payload, and
/// the kind bytes are pairwise distinct so no frame can masquerade as
/// another. This table is the proptest mention the `ldp-lint`
/// `opcode-proptest` rule demands for each constant: extending the
/// protocol without extending this test fails CI.
#[test]
fn every_frame_opcode_round_trips_and_is_distinct() {
    use wire::frames::{
        ACK, CHECKPOINT, CLOSE, DEGREE_SUMMARY, ERR, FINALIZE, OPEN, REPORT_BATCH, SHUTDOWN, STATS,
        STATS_REPLY, SUMMARY, SYNC, VIEW,
    };
    let opcodes = [
        OPEN,
        CLOSE,
        FINALIZE,
        CHECKPOINT,
        SHUTDOWN,
        REPORT_BATCH,
        SYNC,
        STATS,
        ACK,
        ERR,
        SUMMARY,
        VIEW,
        DEGREE_SUMMARY,
        STATS_REPLY,
    ];
    for (i, &a) in opcodes.iter().enumerate() {
        for &b in &opcodes[i + 1..] {
            assert_ne!(a, b, "duplicate opcode byte {a:#04x}");
        }
        // 0x02 (the retired singleton REPORT) stays reserved.
        assert_ne!(a, 0x02, "opcode {a:#04x} reuses the reserved kind");
    }
    let mut rng = Xoshiro256pp::new(0xF4A3);
    for &kind in &opcodes {
        let payload: Vec<u8> = (0..rng.gen_range(0..64usize))
            .map(|_| rng.gen::<u64>() as u8)
            .collect();
        let mut stream = Vec::new();
        wire::write_frame(&mut stream, kind, &payload).expect("frame fits");
        let mut r = stream.as_slice();
        let mut got = Vec::new();
        let got_kind = wire::read_frame(&mut r, &mut got)
            .expect("well-formed frame")
            .expect("not eof");
        assert_eq!(got_kind, kind);
        assert_eq!(got, payload);
    }
}

#[test]
fn truncated_header_is_typed() {
    // A stream that dies inside the 6-byte header.
    let mut r: &[u8] = &wire::MAGIC[..3];
    assert!(matches!(
        wire::read_stream_header(&mut r),
        Err(WireError::Io(std::io::ErrorKind::UnexpectedEof))
    ));
}

#[test]
fn bad_version_is_typed() {
    let mut stream = Vec::new();
    stream.extend_from_slice(&wire::MAGIC);
    stream.extend_from_slice(&[wire::VERSION + 1, 0]);
    let mut r = stream.as_slice();
    assert!(matches!(
        wire::read_stream_header(&mut r),
        Err(WireError::UnsupportedVersion { .. })
    ));
}

#[test]
fn version_downgrade_is_typed_distinctly() {
    // A v1 peer has no round routing — its report frames would all land
    // on a garbage round. The handshake refuses it with a *downgrade*
    // error, distinct from the too-new case, carrying the offered
    // version.
    for old in 0..wire::VERSION {
        let mut stream = Vec::new();
        stream.extend_from_slice(&wire::MAGIC);
        stream.extend_from_slice(&[old, 0]);
        let mut r = stream.as_slice();
        match wire::read_stream_header(&mut r) {
            Err(WireError::VersionDowngrade { got }) => assert_eq!(got, old),
            other => panic!("version {old} accepted or mistyped: {other:?}"),
        }
    }
}

#[test]
fn oversize_length_prefix_is_typed() {
    for claimed in [0u32, (wire::MAX_FRAME_LEN as u32) + 1, u32::MAX] {
        let stream = claimed.to_le_bytes();
        let mut r = stream.as_slice();
        let mut payload = Vec::new();
        assert!(
            matches!(
                wire::read_frame(&mut r, &mut payload),
                Err(WireError::OversizeFrame { .. })
            ),
            "length {claimed} accepted"
        );
    }
}

#[test]
fn duplicate_user_id_is_caught_by_the_collector_not_the_codec() {
    // The codec is stateless: two frames with the same id both decode; the
    // round engine (ldp-collector) owns duplicate rejection. Pin that the
    // codec at least preserves ids faithfully for it to key on.
    let report = synth_report(true, 64, 1, 9);
    let mut a = Vec::new();
    let mut b = Vec::new();
    encode_report(42, &report, &mut a);
    encode_report(42, &report, &mut b);
    assert_eq!(decode_report(&a).unwrap().0, decode_report(&b).unwrap().0);
}

#[test]
fn adversarial_row_claims_are_typed() {
    // Oversize population claim.
    let mut out = Vec::new();
    put_varint(1, &mut out);
    out.push(0); // adjacency tag
    put_f64(1.0, &mut out);
    put_varint((wire::MAX_WIRE_POPULATION as u64) + 1, &mut out);
    assert!(matches!(
        decode_report(&out),
        Err(WireError::OversizePopulation { .. })
    ));

    // More words than the population allows.
    let mut out = Vec::new();
    put_varint(1, &mut out);
    out.push(0);
    put_f64(1.0, &mut out);
    put_varint(64, &mut out); // one word
    put_varint(3, &mut out); // but three shipped
    for _ in 0..3 {
        put_u64(u64::MAX, &mut out);
    }
    assert!(matches!(
        decode_report(&out),
        Err(WireError::RowOverrun { .. })
    ));

    // Padding bits at/beyond the population.
    let mut out = Vec::new();
    put_varint(1, &mut out);
    out.push(0);
    put_f64(1.0, &mut out);
    put_varint(5, &mut out);
    put_varint(1, &mut out);
    put_u64(1 << 5, &mut out);
    assert!(matches!(decode_report(&out), Err(WireError::BadPadding)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `split_frame` is total and agrees with `read_frame` on every prefix
    /// of a valid frame stream and on every single-byte corruption of it
    /// (one random corruption per byte position).
    #[test]
    fn split_frame_is_total_and_agrees_with_read_frame(
        count in 0usize..8,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = Xoshiro256pp::new(seed);
        let mut stream = Vec::new();
        for _ in 0..count {
            let payload: Vec<u8> = (0..rng.gen_range(0..40)).map(|_| rng.gen()).collect();
            wire::write_frame(&mut stream, rng.gen(), &payload).expect("frame encodes");
        }
        prop_assert_eq!(split_matches_read(&stream), Ok(count));
        for cut in 0..stream.len() {
            if let Err(msg) = split_matches_read(&stream[..cut]) {
                prop_assert!(false, "prefix of {} bytes: {}", cut, msg);
            }
        }
        for pos in 0..stream.len() {
            let mut corrupt = stream.clone();
            corrupt[pos] ^= rng.gen_range(1..=255u8);
            if let Err(msg) = split_matches_read(&corrupt) {
                prop_assert!(false, "byte {} corrupted: {}", pos, msg);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A row that is canonical except for exactly one bit at or beyond its
    /// population — the only padding the last shipped word can carry — is
    /// refused as [`WireError::BadPadding`]; the same row without that bit
    /// decodes to the report it came from.
    #[test]
    fn exactly_one_padding_bit_is_refused(
        n in 1usize..300,
        pick in 0u64..u64::MAX,
        seed in 0u64..u64::MAX,
    ) {
        // A population that ends on a word boundary has no padding bits.
        let n = n + usize::from(n.is_multiple_of(64));
        let UserReport::Adjacency(report) = synth_report(true, n, 0, seed) else {
            unreachable!("adjacency requested");
        };
        let padding = 64 * n.div_ceil(64) - n;
        let bit = n + (pick % padding as u64) as usize;
        let encode = |padded: bool| {
            let mut out = Vec::new();
            put_varint(3, &mut out);
            out.push(0); // adjacency tag
            put_f64(report.degree, &mut out);
            put_varint(n as u64, &mut out);
            let words = report.bits.words();
            put_varint(words.len() as u64, &mut out);
            for (k, &w) in words.iter().enumerate() {
                let pad = if padded && k == bit / 64 { 1 << (bit % 64) } else { 0 };
                put_u64(w | pad, &mut out);
            }
            out
        };
        let (_, clean) = decode_report(&encode(false)).expect("canonical row decodes");
        if let Err(msg) = assert_identical(&UserReport::Adjacency(report.clone()), &clean) {
            prop_assert!(false, "{}", msg);
        }
        prop_assert!(
            matches!(decode_report(&encode(true)), Err(WireError::BadPadding)),
            "padding bit {} of N = {} accepted",
            bit,
            n
        );
    }
}
