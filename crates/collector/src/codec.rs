//! The collector's payload codec: one encoder and one decoder for each
//! payload the client, the daemon and the checkpoint share. A round
//! header is an `OPEN` payload and also the head of every `LDPK`
//! checkpoint; `SUMMARY`, `DEGREE_SUMMARY` and `ERR` are the daemon's
//! typed replies. Every decoder is total: any byte string decodes or
//! gives a typed [`WireError`], never a panic.

use crate::client::DegreeVectorSummary;
use crate::error::CollectorError;
use crate::round::{RoundChannel, RoundCounters};
use crate::server::codes;
use ldp_protocols::wire::{self, get_f64, get_varint, put_f64, put_varint, WireError};

/// Channel tag of an adjacency round header.
const ADJACENCY: u8 = 0;
/// Channel tag of a degree-vector round header.
const DEGREE_VECTOR: u8 = 1;

/// What identifies a round: round id, tenant, channel tag and
/// parameters, quota.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RoundHeader {
    pub(crate) round_id: u64,
    pub(crate) tenant: u64,
    pub(crate) channel: RoundChannel,
    /// The raw quota. An `OPEN` sends 0 for "the population"; a
    /// checkpoint stores the round's real quota.
    pub(crate) quota: u64,
}

pub(crate) fn encode_round_header(h: &RoundHeader, out: &mut Vec<u8>) {
    put_varint(h.round_id, out);
    put_varint(h.tenant, out);
    match h.channel {
        RoundChannel::Adjacency { population, p_keep } => {
            out.push(ADJACENCY);
            put_varint(population as u64, out);
            put_f64(p_keep, out);
        }
        RoundChannel::DegreeVector { population, groups } => {
            out.push(DEGREE_VECTOR);
            put_varint(population as u64, out);
            put_varint(groups as u64, out);
        }
    }
    put_varint(h.quota, out);
}

/// Reads a round header off the front of `buf`, advancing it.
pub(crate) fn decode_round_header(buf: &mut &[u8]) -> Result<RoundHeader, WireError> {
    let round_id = get_varint(buf)?;
    let tenant = get_varint(buf)?;
    let (&tag, rest) = buf.split_first().ok_or(WireError::Truncated)?;
    *buf = rest;
    let channel = match tag {
        ADJACENCY => {
            let population = get_varint(buf)? as usize;
            let p_keep = get_f64(buf)?;
            RoundChannel::Adjacency { population, p_keep }
        }
        DEGREE_VECTOR => {
            let population = get_varint(buf)? as usize;
            let groups = get_varint(buf)? as usize;
            RoundChannel::DegreeVector { population, groups }
        }
        _ => return Err(WireError::UnknownReportTag { tag }),
    };
    let quota = get_varint(buf)?;
    Ok(RoundHeader {
        round_id,
        tenant,
        channel,
        quota,
    })
}

/// `SUMMARY`: the intake counters, then the finalized-at-close flag.
pub(crate) fn encode_summary(c: &RoundCounters, out: &mut Vec<u8>) {
    put_varint(c.accepted, out);
    put_varint(c.rejected_duplicate, out);
    put_varint(c.rejected_quota, out);
    put_varint(c.rejected_invalid, out);
    put_varint(c.rejected_malformed, out);
    out.push(u8::from(c.finalized_at_close));
}

pub(crate) fn decode_summary(payload: &[u8]) -> Result<RoundCounters, WireError> {
    let mut buf = payload;
    let accepted = get_varint(&mut buf)?;
    let rejected_duplicate = get_varint(&mut buf)?;
    let rejected_quota = get_varint(&mut buf)?;
    let rejected_invalid = get_varint(&mut buf)?;
    let rejected_malformed = get_varint(&mut buf)?;
    let (&finalized, rest) = buf.split_first().ok_or(WireError::Truncated)?;
    wire::expect_end(rest)?;
    Ok(RoundCounters {
        accepted,
        rejected_duplicate,
        rejected_quota,
        rejected_invalid,
        rejected_malformed,
        finalized_at_close: finalized != 0,
    })
}

/// `DEGREE_SUMMARY`: the accepted count, then the group totals.
pub(crate) fn encode_degree_summary(accepted: u64, group_totals: &[f64], out: &mut Vec<u8>) {
    put_varint(accepted, out);
    put_varint(group_totals.len() as u64, out);
    for &t in group_totals {
        put_f64(t, out);
    }
}

pub(crate) fn decode_degree_summary(payload: &[u8]) -> Result<DegreeVectorSummary, WireError> {
    let mut buf = payload;
    let accepted = get_varint(&mut buf)?;
    let k = wire::checked_len(get_varint(&mut buf)?, wire::MAX_WIRE_POPULATION)?;
    // Eight bytes per total: reserve no more than the payload can hold.
    let mut group_totals = Vec::with_capacity(k.min(buf.len() / 8));
    for _ in 0..k {
        group_totals.push(get_f64(&mut buf)?);
    }
    wire::expect_end(buf)?;
    Ok(DegreeVectorSummary {
        group_totals,
        accepted,
    })
}

/// The stable `ERR` code of a refusal.
pub(crate) fn error_code(e: &CollectorError) -> u8 {
    match e {
        CollectorError::PopulationCap { .. } | CollectorError::GroupCap { .. } => {
            codes::POPULATION_CAP
        }
        CollectorError::RoundAlreadyOpen { .. } => codes::ROUND_ALREADY_OPEN,
        CollectorError::UnknownRound { .. } => codes::NO_OPEN_ROUND,
        CollectorError::RoundClosed { .. } => codes::ROUND_CLOSED,
        CollectorError::TenantQuota { .. } => codes::TENANT_QUOTA,
        CollectorError::MemoryBudget { .. } => codes::MEMORY_BUDGET,
        CollectorError::SessionCap { .. } => codes::SESSION_CAP,
        CollectorError::RoundIncomplete { .. } => codes::ROUND_INCOMPLETE,
        CollectorError::Wire(_) | CollectorError::UnexpectedFrame { .. } => codes::BAD_FRAME,
        CollectorError::InvalidConfig { .. } => codes::BAD_FRAME,
        CollectorError::BadCheckpoint { .. } | CollectorError::BadJournal { .. } => {
            codes::CHECKPOINT_FAILED
        }
        _ => codes::INTERNAL,
    }
}

/// `ERR`: the code byte, then the length-prefixed message.
pub(crate) fn encode_error(e: &CollectorError, out: &mut Vec<u8>) {
    out.push(error_code(e));
    let message = e.to_string();
    put_varint(message.len() as u64, out);
    out.extend_from_slice(message.as_bytes());
}

/// Decodes an `ERR` payload into the [`CollectorError::Remote`] it
/// carries.
pub(crate) fn decode_error(payload: &[u8]) -> Result<CollectorError, WireError> {
    let (&code, mut buf) = payload.split_first().ok_or(WireError::Truncated)?;
    let len = get_varint(&mut buf)?;
    if buf.len() as u64 != len {
        return Err(WireError::Truncated);
    }
    let message = String::from_utf8_lossy(buf).into_owned();
    Ok(CollectorError::Remote { code, message })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Decodes every strict prefix and every single-byte corruption of a
    /// valid payload: each prefix must be a typed error, and no input may
    /// panic (a corruption may still decode, as a different value).
    fn assert_total<T>(payload: &[u8], decode: impl Fn(&[u8]) -> Result<T, WireError>) {
        for len in 0..payload.len() {
            assert!(decode(&payload[..len]).is_err(), "prefix of {len} bytes");
        }
        for pos in 0..payload.len() {
            for flip in [0x01, 0x80, 0xFF] {
                let mut bad = payload.to_vec();
                bad[pos] ^= flip;
                let _ = decode(&bad);
            }
        }
    }

    /// A whole-payload decoder over a round header, as `OPEN` reads it.
    fn decode_open(payload: &[u8]) -> Result<RoundHeader, WireError> {
        let mut buf = payload;
        let header = decode_round_header(&mut buf)?;
        wire::expect_end(buf)?;
        Ok(header)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn round_headers_round_trip(
            ids in (0u64..u64::MAX, 0u64..1 << 40, 0u64..u64::MAX),
            adjacency in 0u8..2,
            population in 0usize..1 << 30,
            p_keep_bits in 0u64..u64::MAX,
            groups in 0usize..1 << 20,
        ) {
            let (round_id, tenant, quota) = ids;
            let channel = if adjacency == 1 {
                RoundChannel::Adjacency { population, p_keep: f64::from_bits(p_keep_bits) }
            } else {
                RoundChannel::DegreeVector { population, groups }
            };
            let header = RoundHeader { round_id, tenant, channel, quota };
            let mut payload = Vec::new();
            encode_round_header(&header, &mut payload);
            let decoded = decode_open(&payload).map_err(|e| TestCaseError::Fail(e.to_string()))?;
            prop_assert_eq!(
                (decoded.round_id, decoded.tenant, decoded.quota),
                (round_id, tenant, quota)
            );
            match (decoded.channel, channel) {
                (
                    RoundChannel::Adjacency { population: a, p_keep: x },
                    RoundChannel::Adjacency { population: b, p_keep: y },
                ) => prop_assert_eq!((a, x.to_bits()), (b, y.to_bits())),
                (got, want) => prop_assert_eq!(got, want),
            }
            assert_total(&payload, decode_open);
        }

        #[test]
        fn summaries_round_trip(
            counts in (0u64..u64::MAX, 0u64..1 << 20, 0u64..1 << 20, 0u64..1 << 20, 0u64..300),
            finalized in 0u8..2,
        ) {
            let counters = RoundCounters {
                accepted: counts.0,
                rejected_duplicate: counts.1,
                rejected_quota: counts.2,
                rejected_invalid: counts.3,
                rejected_malformed: counts.4,
                finalized_at_close: finalized == 1,
            };
            let mut payload = Vec::new();
            encode_summary(&counters, &mut payload);
            prop_assert_eq!(decode_summary(&payload).ok(), Some(counters));
            assert_total(&payload, decode_summary);
        }

        #[test]
        fn degree_summaries_round_trip(
            accepted in 0u64..u64::MAX,
            bits in collection::vec(0u64..u64::MAX, 0..40),
        ) {
            let totals: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
            let mut payload = Vec::new();
            encode_degree_summary(accepted, &totals, &mut payload);
            let decoded = decode_degree_summary(&payload)
                .map_err(|e| TestCaseError::Fail(e.to_string()))?;
            prop_assert_eq!(decoded.accepted, accepted);
            let got: Vec<u64> = decoded.group_totals.iter().map(|t| t.to_bits()).collect();
            prop_assert_eq!(got, bits);
            assert_total(&payload, decode_degree_summary);
        }

        #[test]
        fn errors_round_trip(kind in 0u8..4, id in 0u64..u64::MAX) {
            let e = match kind {
                0 => CollectorError::UnknownRound { round_id: id },
                1 => CollectorError::RoundAlreadyOpen { round_id: id },
                2 => CollectorError::TenantQuota { tenant: id, open: 3, cap: 3 },
                _ => CollectorError::Remote { code: id as u8, message: format!("é{id}") },
            };
            let mut payload = Vec::new();
            encode_error(&e, &mut payload);
            match decode_error(&payload) {
                Ok(CollectorError::Remote { code, message }) => {
                    prop_assert_eq!(code, error_code(&e));
                    prop_assert_eq!(message, e.to_string());
                }
                other => return Err(TestCaseError::Fail(format!("decoded {other:?}"))),
            }
            assert_total(&payload, decode_error);
        }
    }
}
