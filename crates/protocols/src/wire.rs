//! Binary wire codec for report collection.
//!
//! The collection service (`ldp-collector`) moves [`UserReport`]s between
//! simulated users and the server over TCP. This module is the codec both
//! sides share: compact, allocation-conscious, `std`-only (the workspace is
//! hermetic), and **total** on the decode side — malformed input yields a
//! typed [`WireError`], never a panic and never an unbounded allocation.
//!
//! ## Stream header
//!
//! A connection opens with a 6-byte versioned header exchanged by both
//! sides: the magic `b"LDPC"`, a protocol [`VERSION`] byte, and a reserved
//! flags byte (zero). Peers speaking another protocol fail fast with
//! [`WireError::BadMagic`]; a peer on an *older* protocol version (v1 had
//! no round routing, v2 shipped the full finalized matrix) is a typed
//! [`WireError::VersionDowngrade`] (upgrade the peer), a *newer* one a
//! [`WireError::UnsupportedVersion`] (this side is the stale one).
//!
//! ## Frames
//!
//! Everything after the header travels in length-prefixed frames:
//!
//! | bytes | field |
//! |-------|-------|
//! | 4     | `len` — little-endian `u32`, length of kind + payload |
//! | 1     | `kind` — frame discriminator (owned by the collector protocol) |
//! | `len − 1` | payload |
//!
//! `len` is capped at [`MAX_FRAME_LEN`]; an oversize prefix is rejected
//! *before* any allocation ([`WireError::OversizeFrame`]), so a hostile
//! peer cannot OOM the collector with a 4 GiB length claim.
//! [`split_frame`] parses a frame in place at the head of a buffer; the
//! collector's journal records are the frames it applied, byte for byte,
//! so its session pump and its recovery share that one parser.
//!
//! ## Report payload
//!
//! [`encode_report`]/[`decode_report`] serialize one user upload:
//!
//! | field | encoding |
//! |-------|----------|
//! | user id | varint (LEB128) |
//! | channel tag | `u8`: 0 = adjacency, 1 = degree vector |
//! | adjacency: degree | `f64` bits, little-endian |
//! | adjacency: population `N` | varint |
//! | adjacency: word count `w` | varint (trailing zero words trimmed) |
//! | adjacency: bit-packed row | `w` × `u64` little-endian |
//! | degree vector: length `k` | varint |
//! | degree vector: entries | `k` × `f64` bits, little-endian |
//!
//! Trailing all-zero row words are elided (an RR-perturbed row is dense,
//! but crafted rows such as RNA's single bit compress well). A row setting
//! bits at or beyond `N` is refused ([`WireError::BadPadding`]), so decoded
//! reports are canonical. [`decode_report_view`] returns a [`ReportView`]
//! that reads the row words and vector entries in place; [`decode_report`]
//! is its owned conversion. `encode ∘ decode == id` for every well-formed
//! [`UserReport`] — pinned by `tests/proptest_wire.rs`.

use crate::ingest::finalize_lower;
use crate::lfgdpr::PerturbedView;
use crate::report::{AdjacencyReport, UserReport};
use ldp_graph::runtime::default_threads;
use ldp_graph::{BitMatrix, BitSet};
use ldp_mechanisms::RandomizedResponse;
use std::borrow::Borrow;
use std::fmt;
use std::io::{Read, Write};

/// Magic bytes opening every collection stream.
pub const MAGIC: [u8; 4] = *b"LDPC";

/// Wire protocol version this codec speaks: version 3 ships a finalized
/// view as its strict lower triangle ([`encode_lower_view`]). Older peers
/// (see the module docs) are refused with [`WireError::VersionDowngrade`].
pub const VERSION: u8 = 3;

/// Upper bound on one frame's `kind + payload` length (64 MiB). Large
/// enough for a finalized view at the collector's population cap, small
/// enough that a malicious length prefix cannot trigger an absurd
/// allocation.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Upper bound on a population size accepted by the decoder (2²⁷ users ⇒ a
/// 16 MiB row). Collector configuration caps populations far lower; this
/// bound only exists so a hostile varint cannot size a giant allocation.
pub const MAX_WIRE_POPULATION: usize = 1 << 27;

/// Upper bound on the report count a single `REPORT_BATCH` frame may
/// claim. Like every other length claim it is proved *before* any
/// per-entry work: a hostile count is a typed refusal, not a loop bound.
pub const MAX_REPORTS_PER_BATCH: usize = 1 << 16;

/// Frame kind bytes of the collection protocol (wire version 3).
///
/// `0x02` is reserved: it was the singleton `REPORT` frame, retired in
/// favour of a one-entry `REPORT_BATCH`. The daemon answers it like any
/// unknown kind, with a typed `ERR`.
///
/// The `ldp-lint` rules `opcode-arm` and `opcode-proptest` require every
/// constant here to have a collector decode arm and a proptest.
pub mod frames {
    /// Client → server: open a round (round id, tenant, channel, quota).
    pub const OPEN: u8 = 0x01;
    /// Client → server: close the named round, reply with the summary.
    pub const CLOSE: u8 = 0x03;
    /// Client → server: finalize the named closed round.
    pub const FINALIZE: u8 = 0x04;
    /// Client → server: snapshot the named round into the daemon's data
    /// directory.
    pub const CHECKPOINT: u8 = 0x05;
    /// Client → server: stop the daemon after this session.
    pub const SHUTDOWN: u8 = 0x06;
    /// Client → server: a routed batch of length-prefixed reports
    /// (unacknowledged).
    pub const REPORT_BATCH: u8 = 0x07;
    /// Client → server: barrier — acked once every prior frame of this
    /// session has been ingested.
    pub const SYNC: u8 = 0x08;
    /// Client → server: scrape the daemon's metrics registry (empty
    /// payload), answered with `STATS_REPLY`.
    pub const STATS: u8 = 0x09;
    /// Server → client: success, no payload.
    pub const ACK: u8 = 0x81;
    /// Server → client: refusal, code + message.
    pub const ERR: u8 = 0x82;
    /// Server → client: round intake summary.
    pub const SUMMARY: u8 = 0x83;
    /// Server → client: finalized adjacency view.
    pub const VIEW: u8 = 0x84;
    /// Server → client: finalized degree-vector totals.
    pub const DEGREE_SUMMARY: u8 = 0x85;
    /// Server → client: a metrics-registry snapshot (see
    /// [`super::encode_stats_reply`]).
    pub const STATS_REPLY: u8 = 0x86;
}

/// Typed decode/transport failures. Every malformed input maps to one of
/// these — the codec never panics on untrusted bytes.
#[derive(Debug)]
pub enum WireError {
    /// The stream header's magic bytes were not [`MAGIC`].
    BadMagic {
        /// The four bytes received instead.
        got: [u8; 4],
    },
    /// The peer speaks a protocol version *newer* than this codec.
    UnsupportedVersion {
        /// Version byte received.
        got: u8,
    },
    /// The peer speaks a protocol version *older* than this codec — its
    /// frames (report routing, the finalized-view layout) would be
    /// misread. The peer needs upgrading.
    VersionDowngrade {
        /// Version byte received.
        got: u8,
    },
    /// A frame's length prefix exceeds [`MAX_FRAME_LEN`] (or is zero).
    OversizeFrame {
        /// Claimed kind + payload length.
        len: usize,
    },
    /// The payload ended before the field being decoded.
    Truncated,
    /// A varint ran past 10 bytes or overflowed 64 bits.
    VarintOverflow,
    /// An unknown report channel tag.
    UnknownReportTag {
        /// Tag byte received.
        tag: u8,
    },
    /// A population, vector length or `STATS` count exceeds its cap
    /// ([`MAX_WIRE_POPULATION`], or a `MAX_STATS_*` cap).
    OversizePopulation {
        /// Claimed population / length / count.
        claimed: u64,
        /// The cap it exceeds.
        cap: usize,
    },
    /// A report batch claims more entries than [`MAX_REPORTS_PER_BATCH`].
    OversizeBatch {
        /// Claimed entry count.
        claimed: u64,
    },
    /// An adjacency row carried more words than its population allows.
    RowOverrun {
        /// Words transmitted.
        words: usize,
        /// Words a population of this size occupies.
        max_words: usize,
    },
    /// An adjacency row set bits at or beyond its population (non-canonical
    /// padding).
    BadPadding,
    /// Bytes remained after the last field of a payload.
    TrailingBytes {
        /// Number of unread bytes.
        extra: usize,
    },
    /// A field held a value its domain rejects (e.g. a keep probability
    /// outside `(0.5, 1)`).
    BadValue {
        /// Which field was malformed.
        field: &'static str,
    },
    /// An I/O failure underneath the codec.
    Io(std::io::ErrorKind),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic { got } => write!(f, "bad stream magic {got:02x?}"),
            WireError::UnsupportedVersion { got } => {
                write!(f, "unsupported wire version {got} (speaking {VERSION})")
            }
            WireError::VersionDowngrade { got } => {
                write!(
                    f,
                    "peer speaks wire version {got}, older than {VERSION}: its frames \
                     would be misread — upgrade the peer"
                )
            }
            WireError::OversizeFrame { len } => {
                write!(f, "frame length {len} outside 1..={MAX_FRAME_LEN}")
            }
            WireError::Truncated => write!(f, "payload truncated mid-field"),
            WireError::VarintOverflow => write!(f, "varint overflows 64 bits"),
            WireError::UnknownReportTag { tag } => write!(f, "unknown report channel tag {tag}"),
            WireError::OversizePopulation { claimed, cap } => {
                write!(f, "length claim {claimed} exceeds its cap {cap}")
            }
            WireError::OversizeBatch { claimed } => {
                write!(
                    f,
                    "report batch claims {claimed} entries, cap is {MAX_REPORTS_PER_BATCH}"
                )
            }
            WireError::RowOverrun { words, max_words } => {
                write!(
                    f,
                    "adjacency row has {words} words, population allows {max_words}"
                )
            }
            WireError::BadPadding => {
                write!(f, "adjacency row sets bits at or beyond its population")
            }
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the last field")
            }
            WireError::BadValue { field } => write!(f, "field {field} holds an invalid value"),
            WireError::Io(kind) => write!(f, "i/o failure: {kind:?}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e.kind())
    }
}

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

/// Appends a LEB128 varint.
pub fn put_varint(mut v: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint, advancing `buf`.
///
/// # Errors
/// [`WireError::Truncated`] on a short buffer, [`WireError::VarintOverflow`]
/// past 64 bits.
pub fn get_varint(buf: &mut &[u8]) -> Result<u64, WireError> {
    let mut v: u64 = 0;
    for shift in (0..64).step_by(7) {
        let (&byte, rest) = buf.split_first().ok_or(WireError::Truncated)?;
        *buf = rest;
        let low = u64::from(byte & 0x7f);
        if shift == 63 && low > 1 {
            return Err(WireError::VarintOverflow);
        }
        v |= low << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(WireError::VarintOverflow)
}

/// Appends an `f64` as its little-endian bit pattern (bit-exact transport).
pub fn put_f64(v: f64, out: &mut Vec<u8>) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Reads an `f64` bit pattern, advancing `buf`.
///
/// # Errors
/// [`WireError::Truncated`] on a short buffer.
pub fn get_f64(buf: &mut &[u8]) -> Result<f64, WireError> {
    let (bytes, rest) = buf.split_first_chunk().ok_or(WireError::Truncated)?;
    *buf = rest;
    Ok(f64::from_le_bytes(*bytes))
}

/// Appends a `u64` little-endian.
pub fn put_u64(v: u64, out: &mut Vec<u8>) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a whole `u64` slice little-endian — the bulk form of
/// [`put_u64`] for packed rows: one capacity reservation up front, then a
/// fixed-stride loop the compiler vectorizes.
pub fn put_u64s(words: &[u64], out: &mut Vec<u8>) {
    out.reserve(words.len() * 8);
    for &w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

/// Reads `dst.len()` little-endian `u64`s into `dst`, advancing `buf`:
/// one bounds check for the whole block, then a fixed-stride copy loop.
///
/// # Errors
/// [`WireError::Truncated`] if fewer than `8 * dst.len()` bytes remain.
pub fn get_u64s(buf: &mut &[u8], dst: &mut [u64]) -> Result<(), WireError> {
    let words = take_words(buf, dst.len())?;
    for (slot, word) in dst.iter_mut().zip(le_u64s(words)) {
        *slot = word;
    }
    Ok(())
}

/// Takes `count` little-endian 8-byte words off the front of `buf`.
fn take_words<'a>(buf: &mut &'a [u8], count: usize) -> Result<&'a [[u8; 8]], WireError> {
    let (bytes, rest) = buf
        .split_at_checked(count.saturating_mul(8))
        .ok_or(WireError::Truncated)?;
    *buf = rest;
    Ok(bytes.as_chunks().0)
}

/// The little-endian words of a payload as `u64`s, read in place.
pub fn le_u64s(words: &[[u8; 8]]) -> impl ExactSizeIterator<Item = u64> + '_ {
    words.iter().map(|w| u64::from_le_bytes(*w))
}

/// Asserts a payload was fully consumed.
///
/// # Errors
/// [`WireError::TrailingBytes`] if bytes remain.
pub fn expect_end(buf: &[u8]) -> Result<(), WireError> {
    if buf.is_empty() {
        Ok(())
    } else {
        Err(WireError::TrailingBytes { extra: buf.len() })
    }
}

// ---------------------------------------------------------------------------
// Stream header and frames
// ---------------------------------------------------------------------------

/// Writes the 6-byte versioned stream header.
///
/// # Errors
/// Propagates I/O failures.
pub fn write_stream_header(w: &mut impl Write) -> Result<(), WireError> {
    w.write_all(&MAGIC)?;
    w.write_all(&[VERSION, 0])?;
    Ok(())
}

/// Reads and validates the peer's stream header.
///
/// # Errors
/// [`WireError::BadMagic`] / [`WireError::UnsupportedVersion`] on a foreign
/// peer, I/O errors otherwise.
pub fn read_stream_header(r: &mut impl Read) -> Result<(), WireError> {
    let mut header = [0u8; 6];
    r.read_exact(&mut header)?;
    let got = [header[0], header[1], header[2], header[3]];
    if got != MAGIC {
        return Err(WireError::BadMagic { got });
    }
    if header[4] < VERSION {
        return Err(WireError::VersionDowngrade { got: header[4] });
    }
    if header[4] > VERSION {
        return Err(WireError::UnsupportedVersion { got: header[4] });
    }
    Ok(())
}

/// Writes one `kind + payload` frame with its length prefix.
///
/// # Errors
/// [`WireError::OversizeFrame`] if the payload exceeds [`MAX_FRAME_LEN`],
/// I/O errors otherwise.
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> Result<(), WireError> {
    write_frame_head(w, kind, payload.len())?;
    Ok(w.write_all(payload)?)
}

/// Writes a frame's length prefix and kind byte for a `payload_len`-byte
/// payload the caller writes next; errors as [`write_frame`].
pub fn write_frame_head(w: &mut impl Write, kind: u8, payload_len: usize) -> Result<(), WireError> {
    let len = payload_len + 1;
    if len > MAX_FRAME_LEN {
        return Err(WireError::OversizeFrame { len });
    }
    let [a, b, c, d] = (len as u32).to_le_bytes();
    Ok(w.write_all(&[a, b, c, d, kind])?)
}

/// Reads one frame into `payload` (cleared and refilled), returning its
/// kind byte. Returns `Ok(None)` on a clean EOF at a frame boundary.
///
/// # Errors
/// [`WireError::OversizeFrame`] on a hostile length prefix (checked before
/// any allocation), [`WireError::Io`] on transport failures or EOF inside
/// a frame.
pub fn read_frame(r: &mut impl Read, payload: &mut Vec<u8>) -> Result<Option<u8>, WireError> {
    let mut len_bytes = [0u8; 4];
    // EOF before the first byte is a clean end; after it, a torn frame.
    if r.read(&mut len_bytes[..1])? == 0 {
        return Ok(None);
    }
    r.read_exact(&mut len_bytes[1..])?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len == 0 || len > MAX_FRAME_LEN {
        return Err(WireError::OversizeFrame { len });
    }
    let mut kind = [0u8; 1];
    r.read_exact(&mut kind)?;
    payload.clear();
    payload.resize(len - 1, 0);
    r.read_exact(payload)?;
    Ok(Some(kind[0]))
}

/// One complete frame at the head of a buffer, read in place by
/// [`split_frame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawFrame<'a> {
    /// The whole frame as it sits in the buffer: length prefix, kind and
    /// payload (what the collector's journal stores as one record).
    pub bytes: &'a [u8],
    /// The frame's kind byte.
    pub kind: u8,
    /// The frame's payload.
    pub payload: &'a [u8],
}

/// Splits the complete frame at the head of `buf` from the bytes after
/// it, without copying or allocating: `Ok(None)` while `buf` holds less
/// than a length prefix and the frame it claims (an empty `buf`
/// included). The one frame parser of a session's read buffer and of a
/// journal segment.
///
/// # Errors
/// [`WireError::OversizeFrame`] on a zero or oversize length prefix,
/// refused before any of the bytes it claims are awaited.
pub fn split_frame(buf: &[u8]) -> Result<Option<(RawFrame<'_>, &[u8])>, WireError> {
    let Some((prefix, body)) = buf.split_first_chunk::<4>() else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(*prefix) as usize;
    if len == 0 || len > MAX_FRAME_LEN {
        return Err(WireError::OversizeFrame { len });
    }
    let Some((&kind, payload)) = body.get(..len).and_then(<[u8]>::split_first) else {
        return Ok(None);
    };
    let Some((bytes, rest)) = buf.split_at_checked(4 + len) else {
        return Ok(None);
    };
    Ok(Some((
        RawFrame {
            bytes,
            kind,
            payload,
        },
        rest,
    )))
}

// ---------------------------------------------------------------------------
// Report payloads
// ---------------------------------------------------------------------------

const TAG_ADJACENCY: u8 = 0;
const TAG_DEGREE_VECTOR: u8 = 1;

/// Encodes one user's upload (see the module docs for the layout).
pub fn encode_report(user_id: u64, report: &UserReport, out: &mut Vec<u8>) {
    match report {
        UserReport::Adjacency(r) => encode_adjacency_report(user_id, r, out),
        UserReport::DegreeVector(v) => encode_degree_vector_report(user_id, v, out),
    }
}

/// The degree-vector arm of [`encode_report`], from a borrowed slice.
pub fn encode_degree_vector_report(user_id: u64, vector: &[f64], out: &mut Vec<u8>) {
    out.reserve(21 + 8 * vector.len()); // two varints, the tag, the entries
    put_varint(user_id, out);
    out.push(TAG_DEGREE_VECTOR);
    put_varint(vector.len() as u64, out);
    for &x in vector {
        put_f64(x, out);
    }
}

/// The adjacency arm of [`encode_report`], from a borrowed report.
pub fn encode_adjacency_report(user_id: u64, report: &AdjacencyReport, out: &mut Vec<u8>) {
    let row = trimmed_row(report);
    out.reserve(39 + 8 * row.len()); // three varints, tag, degree, row
    put_varint(user_id, out);
    out.push(TAG_ADJACENCY);
    put_f64(report.degree, out);
    put_varint(report.population() as u64, out);
    put_varint(row.len() as u64, out);
    put_u64s(row, out);
}

/// The row words an adjacency report ships: trailing zero words trimmed.
fn trimmed_row(report: &AdjacencyReport) -> &[u64] {
    let words = report.bits.words();
    let zeros = words.iter().rev().take_while(|&&w| w == 0).count();
    &words[..words.len() - zeros]
}

/// Bytes [`put_varint`] writes for `v`, computed from its bit length.
pub const fn varint_len(v: u64) -> usize {
    (70 - (v | 1).leading_zeros() as usize) / 7
}

/// Appends a degree vector as one `REPORT_BATCH` entry: the report's
/// length, computed ([`varint_len`]), as a varint, then the report, with
/// no staging copy. With [`encode_adjacency_entry`], the one entry framing.
pub fn encode_degree_vector_entry(user_id: u64, vector: &[f64], out: &mut Vec<u8>) {
    let k = vector.len();
    let len = varint_len(user_id) + 1 + varint_len(k as u64) + 8 * k;
    put_varint(len as u64, out);
    encode_degree_vector_report(user_id, vector, out);
}

/// [`encode_degree_vector_entry`] for an adjacency report.
pub fn encode_adjacency_entry(user_id: u64, report: &AdjacencyReport, out: &mut Vec<u8>) {
    let (n, w) = (report.population() as u64, trimmed_row(report).len());
    let len = varint_len(user_id) + 9 + varint_len(n) + varint_len(w as u64) + 8 * w;
    put_varint(len as u64, out);
    encode_adjacency_report(user_id, report, out);
}

/// One report read in place: its row words or vector entries stay in the
/// payload, little-endian ([`le_u64s`]).
#[derive(Debug, Clone, Copy)]
pub enum ReportView<'a> {
    /// An adjacency report: degree, population `N`, and the shipped row
    /// words (trailing zero words trimmed, no bit at or beyond `N`).
    Adjacency {
        /// The reported degree.
        degree: f64,
        /// Population `N`.
        population: usize,
        /// The shipped row words.
        words: &'a [[u8; 8]],
    },
    /// A degree vector's entries, as `f64` bit patterns.
    DegreeVector(&'a [[u8; 8]]),
}

impl ReportView<'_> {
    /// The owned report (elided trailing row words restored as zeros).
    pub fn to_report(&self) -> UserReport {
        match *self {
            ReportView::Adjacency {
                degree,
                population,
                words,
            } => {
                let mut bits = BitSet::new(population);
                let dst = bits.words_mut().iter_mut();
                dst.zip(le_u64s(words)).for_each(|(dst, word)| *dst = word);
                UserReport::Adjacency(AdjacencyReport::new(bits, degree))
            }
            ReportView::DegreeVector(v) => {
                UserReport::DegreeVector(le_u64s(v).map(f64::from_bits).collect())
            }
        }
    }
}

/// Decodes one report payload produced by [`encode_report`], returning the
/// user id and the canonical report.
///
/// # Errors
/// A typed [`WireError`] on any malformed input: truncation, unknown tags,
/// oversize populations, row overruns, non-canonical padding, or trailing
/// bytes. Never panics.
pub fn decode_report(buf: &[u8]) -> Result<(u64, UserReport), WireError> {
    decode_report_view(buf).map(|(user_id, view)| (user_id, view.to_report()))
}

/// [`decode_report`] without the copy: the report as a view of `buf`.
///
/// # Errors
/// As [`decode_report`].
pub fn decode_report_view(mut buf: &[u8]) -> Result<(u64, ReportView<'_>), WireError> {
    let buf = &mut buf;
    let user_id = get_varint(buf)?;
    let (&tag, rest) = buf.split_first().ok_or(WireError::Truncated)?;
    *buf = rest;
    let report = match tag {
        TAG_ADJACENCY => {
            let degree = get_f64(buf)?;
            let n = checked_len(get_varint(buf)?, MAX_WIRE_POPULATION)?;
            let max_words = n.div_ceil(64);
            let words = get_varint(buf)? as usize;
            if words > max_words {
                return Err(WireError::RowOverrun { words, max_words });
            }
            let words = take_words(buf, words)?;
            // Decoded reports are canonical: only the row's last word can
            // reach past `N`, and then only in its bits at or above `N % 64`.
            let rem = n % 64;
            let last = words.last().map_or(0, |w| u64::from_le_bytes(*w));
            if rem != 0 && words.len() == max_words && last >> rem != 0 {
                return Err(WireError::BadPadding);
            }
            ReportView::Adjacency {
                degree,
                population: n,
                words,
            }
        }
        TAG_DEGREE_VECTOR => {
            let k = checked_len(get_varint(buf)?, MAX_WIRE_POPULATION)?;
            ReportView::DegreeVector(take_words(buf, k)?)
        }
        tag => return Err(WireError::UnknownReportTag { tag }),
    };
    expect_end(buf)?;
    Ok((user_id, report))
}

/// A length claim as a `usize`, refused as [`WireError::OversizePopulation`]
/// past `cap` before anything is sized by it.
pub fn checked_len(claimed: u64, cap: usize) -> Result<usize, WireError> {
    if claimed > cap as u64 {
        return Err(WireError::OversizePopulation { claimed, cap });
    }
    Ok(claimed as usize)
}

// ---------------------------------------------------------------------------
// Batched report payloads
// ---------------------------------------------------------------------------

/// Encodes a `REPORT_BATCH` payload: `varint round_id`, `varint K`, then
/// `K` entries of `varint len` + the [`encode_report`] bytes. Since wire
/// v2 every report-bearing frame names its round, so a daemon
/// multiplexing concurrent rounds routes each frame without per-session
/// state; the per-entry length prefix lets the decoder skip one
/// malformed entry without losing frame sync on the rest of the batch.
pub fn encode_routed_batch<R: Borrow<UserReport>>(
    round_id: u64,
    entries: &[(u64, R)],
    out: &mut Vec<u8>,
) {
    put_varint(round_id, out);
    put_varint(entries.len() as u64, out);
    for (user_id, report) in entries {
        match report.borrow() {
            UserReport::Adjacency(r) => encode_adjacency_entry(*user_id, r, out),
            UserReport::DegreeVector(v) => encode_degree_vector_entry(*user_id, v, out),
        }
    }
}

/// Incremental decoder over a `REPORT_BATCH` payload's entries.
///
/// Yields each entry's decode result: an `Err` from a malformed *entry*
/// (isolated by its length prefix) leaves the iterator able to continue
/// with the next entry, while an `Err` in the batch *framing* (a bad
/// length varint, an entry running past the payload) fuses the decoder —
/// there is no trustworthy boundary to resume at.
#[derive(Debug)]
pub struct ReportBatch<'a> {
    buf: &'a [u8],
    remaining: usize,
}

impl<'a> ReportBatch<'a> {
    /// Entries not yet decoded.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// The most entries still able to decode: the claimed count, capped at
    /// one per 4 bytes left (the shortest entry).
    pub fn entry_bound(&self) -> usize {
        self.remaining.min(self.buf.len() / 4)
    }

    /// Decodes the next entry; `None` once the claimed count is exhausted
    /// or after a framing error.
    pub fn next_entry(&mut self) -> Option<Result<(u64, UserReport), WireError>> {
        self.next_view()
            .map(|entry| entry.map(|(user_id, view)| (user_id, view.to_report())))
    }

    /// [`Self::next_entry`] as a view of the payload
    /// ([`decode_report_view`]), with no copy of the report.
    pub fn next_view(&mut self) -> Option<Result<(u64, ReportView<'a>), WireError>> {
        self.remaining = self.remaining.checked_sub(1)?;
        let entry = get_varint(&mut self.buf)
            .and_then(|len| (self.buf.split_at_checked(len as usize)).ok_or(WireError::Truncated));
        Some(match entry {
            Ok((entry, rest)) => {
                self.buf = rest;
                decode_report_view(entry)
            }
            // A framing error leaves no boundary to resume at: fuse.
            Err(e) => {
                (self.remaining, self.buf) = (0, &[]);
                Err(e)
            }
        })
    }

    /// Asserts the payload ended exactly at the last claimed entry.
    /// A no-op after a framing error (already surfaced by
    /// [`Self::next_entry`]).
    ///
    /// # Errors
    /// [`WireError::TrailingBytes`] on garbage after the last entry.
    pub fn finish(self) -> Result<(), WireError> {
        expect_end(self.buf)
    }
}

/// Opens a payload produced by [`encode_routed_batch`], returning the
/// round id every entry belongs to and the incremental entry decoder.
/// The claimed entry count is proved against [`MAX_REPORTS_PER_BATCH`]
/// before any per-entry work.
///
/// # Errors
/// [`WireError::Truncated`] / [`WireError::VarintOverflow`] on a malformed
/// round id or count, [`WireError::OversizeBatch`] past the cap.
pub fn read_routed_batch(payload: &[u8]) -> Result<(u64, ReportBatch<'_>), WireError> {
    let mut buf = payload;
    let round_id = get_varint(&mut buf)?;
    let claimed = get_varint(&mut buf)?;
    if claimed > MAX_REPORTS_PER_BATCH as u64 {
        return Err(WireError::OversizeBatch { claimed });
    }
    Ok((
        round_id,
        ReportBatch {
            buf,
            remaining: claimed as usize,
        },
    ))
}

// ---------------------------------------------------------------------------
// Stats-snapshot payload (STATS_REPLY)
// ---------------------------------------------------------------------------

/// Upper bound on the metric entries one `STATS_REPLY` may claim —
/// proved before any per-entry allocation, like every other length
/// claim in this codec.
pub const MAX_STATS_ENTRIES: usize = 4096;

/// Upper bound on a metric name's byte length.
pub const MAX_STATS_NAME_LEN: usize = 128;

/// Upper bound on a histogram's bucket count (a log₂-bucketed `u64`
/// histogram needs 65; the cap leaves headroom without letting a
/// hostile claim size an allocation).
pub const MAX_STATS_BUCKETS: usize = 128;

const STATS_TAG_COUNTER: u8 = 0;
const STATS_TAG_GAUGE: u8 = 1;
const STATS_TAG_HISTOGRAM: u8 = 2;

/// One named metric in a `STATS_REPLY` snapshot (name at most
/// [`MAX_STATS_NAME_LEN`] bytes) and its value: the registry's own
/// sample types, so the daemon serves its snapshot as is.
pub use ldp_obs::{Sample as StatsEntry, SampleValue as StatsValue};

/// Encodes a `STATS_REPLY` payload: `varint K`, then `K` entries of
/// `varint name_len + name bytes + tag u8 + value` (counter/gauge: one
/// varint; histogram: `varint sum`, `varint B`, `B` varints).
pub fn encode_stats_reply(entries: &[StatsEntry], out: &mut Vec<u8>) {
    put_varint(entries.len() as u64, out);
    for e in entries {
        put_varint(e.name.len() as u64, out);
        out.extend_from_slice(e.name.as_bytes());
        match &e.value {
            StatsValue::Counter(v) => {
                out.push(STATS_TAG_COUNTER);
                put_varint(*v, out);
            }
            StatsValue::Gauge(v) => {
                out.push(STATS_TAG_GAUGE);
                put_varint(*v, out);
            }
            StatsValue::Histogram { sum, buckets } => {
                out.push(STATS_TAG_HISTOGRAM);
                put_varint(*sum, out);
                put_varint(buckets.len() as u64, out);
                for &b in buckets {
                    put_varint(b, out);
                }
            }
        }
    }
}

/// Decodes a payload produced by [`encode_stats_reply`]. Total: every
/// length claim (entry count, name length, bucket count) is proved
/// against its `MAX_*` cap before the matching allocation, names must
/// be valid UTF-8, tags must be known, and trailing bytes are refused.
///
/// # Errors
/// A typed [`WireError`] on truncation, oversize claims, a non-UTF-8
/// name, an unknown value tag, or trailing bytes. Never panics.
pub fn decode_stats_reply(mut buf: &[u8]) -> Result<Vec<StatsEntry>, WireError> {
    let claimed = checked_len(get_varint(&mut buf)?, MAX_STATS_ENTRIES)?;
    let mut entries = Vec::with_capacity(claimed);
    for _ in 0..claimed {
        let name_len = checked_len(get_varint(&mut buf)?, MAX_STATS_NAME_LEN)?;
        let (name_bytes, rest) = buf.split_at_checked(name_len).ok_or(WireError::Truncated)?;
        buf = rest;
        let name = std::str::from_utf8(name_bytes)
            .map_err(|_| WireError::BadValue {
                field: "stats name",
            })?
            .to_string();
        let (&tag, rest) = buf.split_first().ok_or(WireError::Truncated)?;
        buf = rest;
        let value = match tag {
            STATS_TAG_COUNTER => StatsValue::Counter(get_varint(&mut buf)?),
            STATS_TAG_GAUGE => StatsValue::Gauge(get_varint(&mut buf)?),
            STATS_TAG_HISTOGRAM => {
                let sum = get_varint(&mut buf)?;
                let nbuckets = checked_len(get_varint(&mut buf)?, MAX_STATS_BUCKETS)?;
                let mut buckets = Vec::with_capacity(nbuckets);
                for _ in 0..nbuckets {
                    buckets.push(get_varint(&mut buf)?);
                }
                StatsValue::Histogram { sum, buckets }
            }
            tag => return Err(WireError::UnknownReportTag { tag }),
        };
        entries.push(StatsEntry { name, value });
    }
    expect_end(buf)?;
    Ok(entries)
}

// ---------------------------------------------------------------------------
// Finalized-view payload
// ---------------------------------------------------------------------------

/// Words row `i` owns in the strict lower triangle, `⌈i/64⌉`: its
/// columns `0..i`, where LF-GDPR's slot ownership puts every bit the
/// protocol carries (slot `{i, j}`, `i > j`, comes from report `i`).
pub fn lower_row_words(i: usize) -> usize {
    i.div_ceil(64)
}

/// Mask of the columns below the diagonal in row `i`'s last owned word
/// (all ones when `i` is a multiple of 64: that word ends at column
/// `i − 1`).
pub fn lower_row_mask(i: usize) -> u64 {
    match i % 64 {
        0 => u64::MAX,
        rem => (1 << rem) - 1,
    }
}

/// Words of an `N`-user strict lower triangle, `Σ_{i<N} ⌈i/64⌉`.
pub fn lower_triangle_words(n: usize) -> usize {
    // Rows 64(k−1)+1 ..= 64k own k words each; rows 1..N split into
    // `full` whole blocks of 64 plus `rem` rows owning `full + 1`.
    let Some(last) = n.checked_sub(1) else {
        return 0;
    };
    let (full, rem) = (last / 64, last % 64);
    (full + 1) * (32 * full + rem)
}

/// Exact byte length of a `VIEW` payload over `N` users (see
/// [`encode_lower_view`] for the layout).
pub fn view_payload_len(n: usize) -> usize {
    varint_len(n as u64) + 8 + 8 * n + 8 * lower_triangle_words(n)
}

/// Most bytes [`encode_lower_view`] hands its writer at once, bar a first
/// piece whose reported degrees alone pass it (over 131,070 users): a
/// view streamed into a socket is held one piece at a time, never whole.
pub const VIEW_PIECE: usize = 1 << 20;

/// Writes a `VIEW` payload — the one layout every finalized-view encoder
/// goes through — to `w` in pieces of at most [`VIEW_PIECE`] bytes,
/// staged in one buffer: a failed write leaves nothing to write again.
/// Layout: varint `N`, `f64` keep probability, `N` × `f64`
/// reported degrees, then the strict lower triangle: row `i`'s
/// [`lower_row_words`]`(i)` words, `u64` little-endian, rows in id order.
/// The upper triangle and the perturbed degrees are implied (the matrix
/// is symmetric, a degree is its row's popcount), so they stay off the
/// wire and [`decode_view`] rebuilds them.
///
/// `row(i)` yields user `i`'s reported degree and at least its owned
/// words; only those ship, the last masked below column `i`
/// ([`lower_row_mask`]). A full symmetric matrix row and a triangularly
/// packed row therefore encode alike.
///
/// # Errors
/// I/O errors from `w`.
pub fn encode_lower_view<'a>(
    n: usize,
    p_keep: f64,
    row: impl Fn(usize) -> (f64, &'a [u64]),
    w: &mut impl Write,
) -> Result<(), WireError> {
    let mut piece = Vec::with_capacity(view_payload_len(n).min(VIEW_PIECE));
    put_varint(n as u64, &mut piece);
    put_f64(p_keep, &mut piece);
    (0..n).for_each(|i| put_f64(row(i).0, &mut piece));
    for i in 0..n {
        let words = &row(i).1[..lower_row_words(i)];
        if let Some((&last, full)) = words.split_last() {
            if piece.len() + 8 * words.len() > VIEW_PIECE {
                w.write_all(&piece)?;
                piece.clear();
            }
            put_u64s(full, &mut piece);
            put_u64(last & lower_row_mask(i), &mut piece);
        }
    }
    Ok(w.write_all(&piece)?)
}

/// Encodes a finalized [`PerturbedView`] through [`encode_lower_view`].
pub fn encode_view(view: &PerturbedView, out: &mut Vec<u8>) {
    let (n, degrees, matrix) = (view.num_users(), view.reported_degrees(), view.matrix());
    out.reserve(view_payload_len(n));
    // Writing into a `Vec` cannot fail.
    let _ = encode_lower_view(n, view.rr().p_keep(), |i| (degrees[i], matrix.row(i)), out);
}

/// Decodes a payload produced by [`encode_lower_view`] back into the
/// identical [`PerturbedView`] (bit-exact degrees, matrix, and
/// mechanism). The triangle is read into the lower words of a
/// [`BitMatrix`] and finalized by [`finalize_lower`], the in-process
/// aggregator's path, so the view is symmetric, zero-diagonal and
/// degree-consistent by construction.
///
/// # Errors
/// A typed [`WireError`] on truncation, oversize populations, an invalid
/// keep probability, or trailing bytes; and [`WireError::BadValue`] for
/// `"matrix"` when a row sets a bit at or above its diagonal.
pub fn decode_view(mut buf: &[u8]) -> Result<PerturbedView, WireError> {
    let n = checked_len(get_varint(&mut buf)?, MAX_WIRE_POPULATION)?;
    let p_keep = get_f64(&mut buf)?;
    let rr = RandomizedResponse::from_keep_probability(p_keep)
        .map_err(|_| WireError::BadValue { field: "p_keep" })?;
    // Prove the degrees and the triangle are actually present *before*
    // allocating the O(N²/8) matrix: a hostile peer claiming a huge `n`
    // with a short payload must fail here, not in the allocator.
    if buf.len() < 8 * (n + lower_triangle_words(n)) {
        return Err(WireError::Truncated);
    }
    let reported = le_u64s(take_words(&mut buf, n)?)
        .map(f64::from_bits)
        .collect();
    let mut matrix = BitMatrix::new(n);
    let wpr = matrix.words_per_row().max(1);
    for (i, row) in matrix.rows_mut(0, n).chunks_exact_mut(wpr).enumerate() {
        let owned = &mut row[..lower_row_words(i)];
        get_u64s(&mut buf, owned)?;
        if owned.last().is_some_and(|&w| w & !lower_row_mask(i) != 0) {
            return Err(WireError::BadValue { field: "matrix" });
        }
    }
    expect_end(buf)?;
    Ok(finalize_lower(matrix, reported, rr, default_threads()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::AdjacencyReport;

    fn adj(n: usize, ones: &[usize], degree: f64) -> UserReport {
        UserReport::Adjacency(AdjacencyReport::new(
            BitSet::from_indices(n, ones.iter().copied()),
            degree,
        ))
    }

    #[test]
    fn varint_roundtrip_and_bounds() {
        let mut out = Vec::new();
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            out.clear();
            put_varint(v, &mut out);
            let mut buf = out.as_slice();
            assert_eq!(get_varint(&mut buf).unwrap(), v);
            assert!(buf.is_empty());
        }
        // 10 bytes of continuation overflow.
        let mut buf: &[u8] = &[0xff; 11];
        assert!(matches!(
            get_varint(&mut buf),
            Err(WireError::VarintOverflow)
        ));
        let mut buf: &[u8] = &[0x80];
        assert!(matches!(get_varint(&mut buf), Err(WireError::Truncated)));
    }

    #[test]
    fn report_roundtrips_both_variants() {
        for (id, report) in [
            (0u64, adj(130, &[0, 63, 64, 129], 4.5)),
            (77, adj(10, &[], 0.0)),
            (5, UserReport::DegreeVector(vec![1.5, -0.25, 0.0])),
            (u64::MAX, UserReport::DegreeVector(vec![])),
        ] {
            let mut out = Vec::new();
            encode_report(id, &report, &mut out);
            let (got_id, got) = decode_report(&out).unwrap();
            assert_eq!(got_id, id);
            match (&report, &got) {
                (UserReport::Adjacency(a), UserReport::Adjacency(b)) => {
                    assert_eq!(a.bits, b.bits);
                    assert_eq!(a.degree.to_bits(), b.degree.to_bits());
                }
                (UserReport::DegreeVector(a), UserReport::DegreeVector(b)) => {
                    assert_eq!(a.len(), b.len());
                    for (x, y) in a.iter().zip(b) {
                        assert_eq!(x.to_bits(), y.to_bits());
                    }
                }
                _ => panic!("variant flipped in transit"),
            }
        }
    }

    #[test]
    fn trailing_zero_words_are_trimmed() {
        let mut sparse = Vec::new();
        encode_report(3, &adj(100_000, &[1], 1.0), &mut sparse);
        // 100k users = 1563 words; a single low bit must not ship them all.
        assert!(
            sparse.len() < 64,
            "sparse row encoded {} bytes",
            sparse.len()
        );
    }

    #[test]
    fn malformed_payloads_yield_typed_errors() {
        let mut good = Vec::new();
        encode_report(9, &adj(70, &[0, 69], 2.0), &mut good);
        // Truncations at every prefix length decode to an error, never panic.
        for cut in 0..good.len() {
            assert!(decode_report(&good[..cut]).is_err(), "cut at {cut}");
        }
        // Unknown tag.
        let mut bad_tag = good.clone();
        bad_tag[1] = 9;
        assert!(matches!(
            decode_report(&bad_tag),
            Err(WireError::UnknownReportTag { tag: 9 })
        ));
        // Trailing garbage.
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(matches!(
            decode_report(&trailing),
            Err(WireError::TrailingBytes { extra: 1 })
        ));
    }

    #[test]
    fn oversize_population_is_rejected_before_allocating() {
        let mut out = Vec::new();
        put_varint(4, &mut out); // user id
        out.push(TAG_ADJACENCY);
        put_f64(1.0, &mut out);
        put_varint(u64::MAX, &mut out); // absurd population
        assert!(matches!(
            decode_report(&out),
            Err(WireError::OversizePopulation { .. })
        ));
    }

    #[test]
    fn row_overrun_and_padding_are_rejected() {
        // Claim population 10 (1 word max) but ship 2 words.
        let mut out = Vec::new();
        put_varint(0, &mut out);
        out.push(TAG_ADJACENCY);
        put_f64(0.0, &mut out);
        put_varint(10, &mut out);
        put_varint(2, &mut out);
        put_u64(1, &mut out);
        put_u64(1, &mut out);
        assert!(matches!(
            decode_report(&out),
            Err(WireError::RowOverrun {
                words: 2,
                max_words: 1
            })
        ));
        // Bit 10 set in a population of 10.
        let mut out = Vec::new();
        put_varint(0, &mut out);
        out.push(TAG_ADJACENCY);
        put_f64(0.0, &mut out);
        put_varint(10, &mut out);
        put_varint(1, &mut out);
        put_u64(1 << 10, &mut out);
        assert!(matches!(decode_report(&out), Err(WireError::BadPadding)));
    }

    #[test]
    fn report_batch_roundtrips_and_counts() {
        let entries = vec![
            (0u64, adj(130, &[0, 64, 129], 2.0)),
            (7, UserReport::DegreeVector(vec![1.0, -2.5])),
            (130, adj(130, &[], 0.0)),
        ];
        let mut out = Vec::new();
        encode_routed_batch(u64::MAX, &entries, &mut out);
        let (round_id, mut batch) = read_routed_batch(&out).unwrap();
        assert_eq!(round_id, u64::MAX);
        assert_eq!(batch.remaining(), 3);
        for (want_id, _) in &entries {
            let (id, _) = batch.next_entry().unwrap().unwrap();
            assert_eq!(id, *want_id);
        }
        assert!(batch.next_entry().is_none());
        batch.finish().unwrap();
        assert!(matches!(read_routed_batch(&[]), Err(WireError::Truncated)));
    }

    #[test]
    fn report_batch_isolates_malformed_entries() {
        // Entry 2 of 3 carries garbage bytes; 1 and 3 still decode.
        let mut one = Vec::new();
        encode_routed_batch(4, &[(1, adj(10, &[2], 1.0))], &mut one);
        let mut three = Vec::new();
        encode_routed_batch(4, &[(3, adj(10, &[5], 1.0))], &mut three);
        let mut out = vec![4, 3];
        out.extend_from_slice(&one[2..]);
        out.extend_from_slice(&[4, 0xff, 0xff, 0xff, 0xff]);
        out.extend_from_slice(&three[2..]);

        let (_, mut batch) = read_routed_batch(&out).unwrap();
        assert!(batch.next_entry().unwrap().is_ok());
        assert!(batch.next_entry().unwrap().is_err());
        let (id, _) = batch.next_entry().unwrap().unwrap();
        assert_eq!(id, 3);
        batch.finish().unwrap();
    }

    #[test]
    fn report_batch_framing_errors_fuse_and_cap_applies() {
        // Hostile count.
        let mut out = vec![1];
        put_varint(MAX_REPORTS_PER_BATCH as u64 + 1, &mut out);
        assert!(matches!(
            read_routed_batch(&out),
            Err(WireError::OversizeBatch { .. })
        ));
        // Entry length running past the payload fuses the decoder.
        let mut out = vec![1, 2];
        put_varint(100, &mut out);
        out.push(0);
        let (_, mut batch) = read_routed_batch(&out).unwrap();
        assert!(matches!(
            batch.next_entry(),
            Some(Err(WireError::Truncated))
        ));
        assert!(batch.next_entry().is_none());
        batch.finish().unwrap(); // already surfaced; finish is a no-op
                                 // Trailing garbage after the last entry is typed.
        let mut out = Vec::new();
        encode_routed_batch(1, &[(4, adj(5, &[1], 0.0))], &mut out);
        out.push(9);
        let (_, mut batch) = read_routed_batch(&out).unwrap();
        assert!(batch.next_entry().unwrap().is_ok());
        assert!(matches!(
            batch.finish(),
            Err(WireError::TrailingBytes { extra: 1 })
        ));
    }

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        let mut stream = Vec::new();
        write_stream_header(&mut stream).unwrap();
        write_frame(&mut stream, 0x42, b"hello").unwrap();
        write_frame(&mut stream, 0x01, b"").unwrap();

        let mut r = stream.as_slice();
        read_stream_header(&mut r).unwrap();
        let mut payload = Vec::new();
        assert_eq!(read_frame(&mut r, &mut payload).unwrap(), Some(0x42));
        assert_eq!(payload, b"hello");
        assert_eq!(read_frame(&mut r, &mut payload).unwrap(), Some(0x01));
        assert!(payload.is_empty());
        assert_eq!(read_frame(&mut r, &mut payload).unwrap(), None);
    }

    #[test]
    fn hostile_length_prefix_is_rejected_without_allocating() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut r = stream.as_slice();
        let mut payload = Vec::new();
        assert!(matches!(
            read_frame(&mut r, &mut payload),
            Err(WireError::OversizeFrame { .. })
        ));
        assert!(payload.capacity() < MAX_FRAME_LEN);
    }

    #[test]
    fn foreign_streams_fail_the_handshake() {
        let mut r: &[u8] = b"HTTP/1";
        assert!(matches!(
            read_stream_header(&mut r),
            Err(WireError::BadMagic { .. })
        ));
        let mut bad_version = Vec::new();
        bad_version.extend_from_slice(&MAGIC);
        bad_version.extend_from_slice(&[99, 0]);
        let mut r = bad_version.as_slice();
        assert!(matches!(
            read_stream_header(&mut r),
            Err(WireError::UnsupportedVersion { got: 99 })
        ));
        // A v1 peer (no round routing) is a typed *downgrade*, not a
        // generic version failure — the error names the remediation.
        let mut v1 = Vec::new();
        v1.extend_from_slice(&MAGIC);
        v1.extend_from_slice(&[1, 0]);
        let mut r = v1.as_slice();
        assert!(matches!(
            read_stream_header(&mut r),
            Err(WireError::VersionDowngrade { got: 1 })
        ));
    }

    #[test]
    fn stats_reply_roundtrips_and_rejects_hostile_claims() {
        let entries = vec![
            StatsEntry {
                name: "ingest_reports_folded_shard_0".to_string(),
                value: StatsValue::Counter(u64::MAX),
            },
            StatsEntry {
                name: "worker_queue_depth".to_string(),
                value: StatsValue::Gauge(7),
            },
            StatsEntry {
                name: "fold_nanos".to_string(),
                value: StatsValue::Histogram {
                    sum: 12_345,
                    buckets: vec![0, 1, 0, 9],
                },
            },
        ];
        let mut out = Vec::new();
        encode_stats_reply(&entries, &mut out);
        assert_eq!(decode_stats_reply(&out).unwrap(), entries);
        // Empty snapshot roundtrips too.
        let mut empty = Vec::new();
        encode_stats_reply(&[], &mut empty);
        assert_eq!(decode_stats_reply(&empty).unwrap(), Vec::new());
        // Every truncation is a typed error, never a panic.
        for cut in 0..out.len() {
            assert!(decode_stats_reply(&out[..cut]).is_err(), "cut at {cut}");
        }
        // Each hostile count is refused before its allocation, naming the
        // cap it exceeds: the entry count, a name length, a bucket count.
        let hostile = |entries: u64, name_len: u64, buckets: u64| {
            let mut bytes = Vec::new();
            put_varint(entries, &mut bytes);
            put_varint(name_len, &mut bytes);
            bytes.push(b'x');
            bytes.push(STATS_TAG_HISTOGRAM);
            put_varint(0, &mut bytes); // sum
            put_varint(buckets, &mut bytes);
            bytes
        };
        let over = |cap: usize| cap as u64 + 1;
        let cases = [
            (hostile(over(MAX_STATS_ENTRIES), 1, 0), MAX_STATS_ENTRIES),
            (hostile(1, over(MAX_STATS_NAME_LEN), 0), MAX_STATS_NAME_LEN),
            (hostile(1, 1, over(MAX_STATS_BUCKETS)), MAX_STATS_BUCKETS),
        ];
        for (bytes, expected) in cases {
            let err = decode_stats_reply(&bytes).unwrap_err();
            let WireError::OversizePopulation { claimed, cap } = err else {
                panic!("cap {expected}: refused as {err:?}");
            };
            assert_eq!((claimed, cap), (over(expected), expected));
            let message = err.to_string();
            assert!(message.ends_with(&format!("exceeds its cap {expected}")));
        }
        // Unknown value tag and trailing bytes are typed.
        let mut bad_tag = Vec::new();
        put_varint(1, &mut bad_tag);
        put_varint(1, &mut bad_tag);
        bad_tag.push(b'x');
        bad_tag.push(9);
        assert!(matches!(
            decode_stats_reply(&bad_tag),
            Err(WireError::UnknownReportTag { tag: 9 })
        ));
        let mut trailing = out.clone();
        trailing.push(0);
        assert!(matches!(
            decode_stats_reply(&trailing),
            Err(WireError::TrailingBytes { extra: 1 })
        ));
    }

    #[test]
    fn eof_inside_a_frame_is_an_error_not_a_clean_end() {
        let mut stream = Vec::new();
        write_frame(&mut stream, 7, b"abcdef").unwrap();
        stream.truncate(stream.len() - 2);
        let mut r = stream.as_slice();
        let mut payload = Vec::new();
        assert!(matches!(
            read_frame(&mut r, &mut payload),
            Err(WireError::Io(std::io::ErrorKind::UnexpectedEof))
        ));
    }

    #[test]
    fn view_roundtrips_bit_for_bit() {
        use ldp_graph::generate::caveman_graph;
        use ldp_graph::Xoshiro256pp;

        let g = caveman_graph(3, 5);
        let proto = crate::LfGdpr::new(4.0).unwrap();
        let reports = proto.collect_honest(&g, &Xoshiro256pp::new(8));
        let view = proto.aggregate(&reports);
        let mut out = Vec::new();
        encode_view(&view, &mut out);
        let got = decode_view(&out).unwrap();
        assert_eq!(got.matrix(), view.matrix());
        assert_eq!(got.reported_degrees(), view.reported_degrees());
        for u in 0..view.num_users() {
            assert_eq!(got.perturbed_degree(u), view.perturbed_degree(u));
        }
        assert_eq!(got.rr().p_keep().to_bits(), view.rr().p_keep().to_bits());
    }

    #[test]
    fn view_decode_rejects_malformed_input() {
        assert!(matches!(decode_view(&[]), Err(WireError::Truncated)));
        let mut out = Vec::new();
        put_varint(2, &mut out);
        put_f64(0.3, &mut out); // invalid keep probability
        assert!(matches!(
            decode_view(&out),
            Err(WireError::BadValue { field: "p_keep" })
        ));
    }

    /// A view over `n` users aggregated from random reports.
    fn random_view(n: usize, seed: u64) -> PerturbedView {
        use ldp_graph::Xoshiro256pp;
        use rand::Rng;

        let mut rng = Xoshiro256pp::new(seed);
        let reports: Vec<AdjacencyReport> = (0..n)
            .map(|_| {
                let mut bits = BitSet::new(n);
                for w in bits.words_mut() {
                    *w = rng.gen::<u64>();
                }
                bits.mask_tail();
                AdjacencyReport::new(bits, rng.gen_range(0.0..n as f64))
            })
            .collect();
        let rr = RandomizedResponse::from_keep_probability(0.9).unwrap();
        PerturbedView::from_reports(&reports, rr)
    }

    /// Encodes `random_view(n)` with bit `(row, col)` of the triangle
    /// flipped; `col` must fall in one of the row's owned words.
    fn flipped_view(n: usize, row: usize, col: usize) -> Vec<u8> {
        let mut out = Vec::new();
        encode_view(&random_view(n, 5), &mut out);
        // The triangle follows the header and the degrees; the words of
        // rows before `row` are exactly the triangle of `row` users.
        let triangle = view_payload_len(n) - 8 * lower_triangle_words(n);
        let word = triangle + 8 * (lower_triangle_words(row) + col / 64);
        out[word + (col % 64) / 8] ^= 1 << (col % 8);
        out
    }

    fn rejects_matrix(out: &[u8]) -> bool {
        matches!(
            decode_view(out),
            Err(WireError::BadValue { field: "matrix" })
        )
    }

    #[test]
    fn view_decode_rejects_a_bit_past_the_population() {
        // Row 129 of 130 owns three words (columns 0..192); columns 130
        // and up are users that do not exist.
        assert!(rejects_matrix(&flipped_view(130, 129, 131)));
        assert!(rejects_matrix(&flipped_view(130, 129, 191)));
    }

    #[test]
    fn view_decode_rejects_a_diagonal_bit() {
        assert!(rejects_matrix(&flipped_view(130, 40, 40)));
    }

    #[test]
    fn view_decode_rejects_bits_on_or_above_the_diagonal() {
        // The diagonal bit and the top bit of the last owned word, for
        // rows ending mid-word (1, 65) and a word short of a multiple of
        // 64 (63, 127).
        for row in [1, 63, 65, 127] {
            let top = 64 * lower_row_words(row) - 1;
            for col in [row, top] {
                assert!(
                    rejects_matrix(&flipped_view(130, row, col)),
                    "({row}, {col})"
                );
            }
        }
        // A strictly-lower flip is a different but well-formed view, and
        // it lands on both sides of the diagonal.
        let got = decode_view(&flipped_view(130, 65, 64)).unwrap();
        let base = random_view(130, 5);
        assert_ne!(
            got.matrix().has_edge(65, 64),
            base.matrix().has_edge(65, 64)
        );
        assert_eq!(got.matrix().has_edge(64, 65), got.matrix().has_edge(65, 64));
        assert!(got.matrix().is_well_formed());
    }

    #[test]
    fn view_payload_is_exactly_the_lower_triangle() {
        for n in [0usize, 1, 63, 64, 65, 130] {
            let mut out = Vec::new();
            encode_view(&random_view(n, 9), &mut out);
            let mut varint = Vec::new();
            put_varint(n as u64, &mut varint);
            let triangle: usize = (0..n).map(|i| i.div_ceil(64)).sum();
            let want = varint.len() + 8 + 8 * n + 8 * triangle;
            assert_eq!(out.len(), want, "N = {n}");
            assert_eq!(view_payload_len(n), want, "N = {n}");
            assert_eq!(lower_triangle_words(n), triangle, "N = {n}");
        }
    }

    #[test]
    fn view_decode_checks_matrix_bytes_before_allocating() {
        // A hostile peer claims a large population and ships every
        // reported degree but almost none of the triangle; the O(N²/8)
        // matrix (≈ 5 GB here) must never be allocated.
        let n: usize = 200_000;
        let mut out = Vec::new();
        put_varint(n as u64, &mut out);
        put_f64(0.9, &mut out);
        for _ in 0..n {
            put_f64(1.0, &mut out);
        }
        put_u64s(&[0; 64], &mut out);
        assert!(out.len() < view_payload_len(n));
        // Fails on the up-front length proof, before BitMatrix::new.
        assert!(matches!(decode_view(&out), Err(WireError::Truncated)));
    }
}
