//! The collection client: typed calls over the frame protocol.
//!
//! [`CollectorClient`] is what simulated users (perfbench, the benches), the
//! scenario bridge, and operational tooling speak to a
//! [`crate::server::CollectorServer`]. Reports are written through a
//! buffered stream and are unacknowledged (see the server docs for why);
//! control calls flush and wait for their reply frame, surfacing daemon
//! refusals as typed [`CollectorError::Remote`] values.
//!
//! ## The batched send path
//!
//! The hot path of a million-report round is
//! [`CollectorClient::queue_adjacency_report`] /
//! [`CollectorClient::queue_degree_vector`]: each call encodes one
//! length-prefixed entry straight into an in-memory batch
//! ([`wire::encode_degree_vector_entry`], no staging copy), and every
//! [`CollectorClient::with_batch_size`] entries the batch leaves as **one**
//! `REPORT_BATCH` frame — one length prefix, one frame dispatch, and one
//! engine round-trip on the daemon per *batch* instead of per report.
//! [`CollectorClient::send_batch`] flushes a partial batch explicitly;
//! every control call does so implicitly, so reports can never be
//! reordered around a close. Concurrent uploaders end their stream with
//! [`CollectorClient::sync`] — an acknowledged barrier proving the
//! daemon folded everything this session sent — before the coordinating
//! session closes the round.
//!
//! ## Round routing
//!
//! The daemon multiplexes concurrent rounds, so every report frame names
//! its round. The client tracks a **current round** — set by
//! [`CollectorClient::open_round`] or explicitly with
//! [`CollectorClient::set_round`] (uploader sessions that never open
//! anything use the latter) — and stamps it into each `REPORT_BATCH`
//! frame. Switching rounds flushes the queued batch
//! first, so a batch frame is always homogeneous in its round. Rounds
//! are owned by a tenant ([`CollectorClient::with_tenant`], default 0)
//! for the daemon's per-tenant admission quotas.
//!
//! ## Retries
//!
//! A client survives daemon crashes once given a [`RetryPolicy`] with
//! more than one attempt ([`CollectorClient::with_retry_policy`]; the
//! default is one attempt, a plain client). Every control call then runs
//! through one retry loop: a transport-class failure drops the
//! connection, backs off (seeded jitter), redials the addresses
//! [`CollectorClient::connect`] resolved, and tries again. Report frames
//! sent since the last acknowledged [`CollectorClient::sync`] are kept
//! whole — each with its own round-id head — in a **resend window** that
//! is replayed verbatim down every fresh connection, so a replayed frame
//! can only reach the round it was sent to. Every
//! [`CollectorClient::WINDOW_BATCHES`] frames an implicit `sync` releases
//! the window. A plain client keeps no window and sends no extra frames.
//!
//! The window makes delivery *at-least-once*: a frame in flight when the
//! daemon died is resent even though it may already have been folded.
//! The daemon's per-round duplicate-id rejection (which survives crashes
//! — the seen-bitmaps are rebuilt from the write-ahead journal) discards
//! the second copy, so the *fold* happens exactly once and the finalized
//! output is bit-identical to a fault-free run. Resent duplicates do
//! tick the round's `rejected_duplicate` counter — the visible (and
//! reconcilable) cost of the retry, not a correctness leak.

use crate::codec::{
    decode_degree_summary, decode_error, decode_summary, encode_round_header, RoundHeader,
};
use crate::error::CollectorError;
use crate::round::{RoundChannel, RoundCounters};
use crate::server::{codes, frames};
use ldp_protocols::wire::{
    self, put_varint, read_frame, read_stream_header, write_frame, write_stream_header, WireError,
};
use ldp_protocols::{AdjacencyReport, PerturbedView};
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Process-wide count of batches a dropped client failed to flush (see
/// the [`Drop`] impl): the destructor cannot return an error, so the
/// swallow is *counted* instead of silent, readable via
/// [`CollectorClient::pending_flush_failed`].
static PENDING_FLUSH_FAILURES: AtomicU64 = AtomicU64::new(0);

/// Entries a queued batch accumulates before it leaves as one
/// `REPORT_BATCH` frame (overridable per client with
/// [`CollectorClient::with_batch_size`]).
pub const DEFAULT_BATCH_REPORTS: usize = 256;

/// The close-time intake summary the daemon returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundSummary {
    /// Intake counters as the daemon saw them.
    pub counters: RoundCounters,
}

/// A finalized degree-vector round as seen by the client.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeVectorSummary {
    /// Per-group totals over all accepted vectors.
    pub group_totals: Vec<f64>,
    /// Vectors the daemon folded in.
    pub accepted: u64,
}

/// How a [`CollectorClient`] paces and bounds its reconnects (see the
/// module docs on retries).
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Attempts per operation before the last transport error surfaces
    /// (clamped to at least 1; 1 is a plain client).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each further attempt.
    pub base_backoff: Duration,
    /// Ceiling the exponential backoff saturates at.
    pub max_backoff: Duration,
    /// Seed of the deterministic backoff jitter — same seed, same
    /// schedule, so fault-injection tests replay identically.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            seed: 0x1d9_c011,
        }
    }
}

/// A connection to the collection daemon.
pub struct CollectorClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// The last reply frame's payload.
    payload: Vec<u8>,
    /// Accumulated length-prefixed batch entries awaiting one
    /// `REPORT_BATCH` frame, encoded in place.
    batch: Vec<u8>,
    batch_count: usize,
    batch_cap: usize,
    /// The round id stamped into outgoing report frames.
    round: u64,
    /// Tenant stamped into `OPEN` frames (admission quotas key on it).
    tenant: u64,
    /// What [`Self::connect`] resolved — where a reconnect dials.
    addrs: Vec<SocketAddr>,
    /// The [`Self::set_op_timeout`] deadline, re-applied on reconnect.
    op_timeout: Option<Duration>,
    policy: RetryPolicy,
    jitter_state: u64,
    /// Whole `REPORT_BATCH` frames sent since the last acknowledged
    /// `SYNC` — the at-least-once resend set (empty on a plain client).
    window: Vec<u8>,
    window_frames: usize,
    reconnects: u64,
}

impl CollectorClient {
    /// Report frames the resend window holds before an implicit
    /// [`Self::sync`] releases it, bounding both client memory and the
    /// resend burst after a crash.
    pub const WINDOW_BATCHES: usize = 4;

    /// Connects and performs the versioned handshake. A socket-level
    /// failure surfaces as [`CollectorError::Transport`] carrying the
    /// address (every resolved candidate is tried), so an operator — or a
    /// retry policy — reads *which* collector was unreachable instead of
    /// a bare I/O error.
    ///
    /// # Errors
    /// [`CollectorError::Transport`] on connect failures, or a peer that
    /// is not a collector daemon
    /// ([`ldp_protocols::WireError::BadMagic`] /
    /// [`ldp_protocols::WireError::UnsupportedVersion`]).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, CollectorError> {
        let addrs: Vec<SocketAddr> = addr
            .to_socket_addrs()
            .map_err(|error| CollectorError::Transport {
                target: "<address resolution>".to_string(),
                error,
            })?
            .collect();
        let (reader, writer) = dial(&addrs)?;
        let policy = RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        };
        Ok(CollectorClient {
            reader,
            writer,
            payload: Vec::new(),
            batch: Vec::new(),
            batch_count: 0,
            batch_cap: DEFAULT_BATCH_REPORTS,
            round: 0,
            tenant: 0,
            addrs,
            op_timeout: None,
            jitter_state: policy.seed,
            policy,
            window: Vec::new(),
            window_frames: 0,
            reconnects: 0,
        })
    }

    /// Bounds how long any single control call may block on the socket
    /// (read and write side): past the deadline the call fails with a
    /// transport-class error instead of hanging on a daemon that died
    /// mid-reply. `None` restores blocking calls. Reconnects keep it.
    ///
    /// # Errors
    /// Socket option failures.
    pub fn set_op_timeout(&mut self, timeout: Option<Duration>) -> Result<(), CollectorError> {
        self.reader.get_ref().set_read_timeout(timeout)?;
        self.writer.get_ref().set_write_timeout(timeout)?;
        self.op_timeout = timeout;
        Ok(())
    }

    /// How many dropped clients (process-wide) failed their implicit
    /// batch flush — the destructor's swallowed errors, counted instead
    /// of silent. Replacing a dead connection on reconnect counts nothing.
    pub fn pending_flush_failed() -> u64 {
        PENDING_FLUSH_FAILURES.load(Ordering::Relaxed)
    }

    /// Sets the tenant this session opens rounds as (default 0). The
    /// daemon's per-tenant round quotas key on it.
    pub fn with_tenant(mut self, tenant: u64) -> Self {
        self.tenant = tenant;
        self
    }

    /// Makes this client retry transport failures under `policy` (see
    /// the module docs on retries); `max_attempts` 1 keeps it plain.
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = RetryPolicy {
            max_attempts: policy.max_attempts.max(1),
            ..policy
        };
        self.jitter_state = policy.seed;
        self
    }

    /// Reconnections performed so far.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Severs the current connection without telling the daemon — the
    /// fault-injection hook crash tests use to exercise the reconnect
    /// and resend path deterministically.
    #[doc(hidden)]
    pub fn fault_disconnect(&mut self) {
        let _ = self.reader.get_ref().shutdown(std::net::Shutdown::Both);
    }

    /// Points subsequent report frames at `round_id` — how an uploader
    /// session that never opens a round picks its target, and how one
    /// session interleaves uploads across several rounds. Flushes any
    /// queued batch first so a `REPORT_BATCH` frame is always homogeneous
    /// in its round.
    ///
    /// # Errors
    /// Transport failures from the batch flush.
    pub fn set_round(&mut self, round_id: u64) -> Result<(), CollectorError> {
        if self.round != round_id {
            self.send_batch()?;
            self.round = round_id;
        }
        Ok(())
    }

    /// Sets how many queued reports accumulate before a `REPORT_BATCH`
    /// frame is emitted (clamped to
    /// `1..=`[`wire::MAX_REPORTS_PER_BATCH`]).
    pub fn with_batch_size(mut self, reports: usize) -> Self {
        self.batch_cap = reports.clamp(1, wire::MAX_REPORTS_PER_BATCH);
        self
    }

    /// Opens a round on the daemon (as this session's tenant) and makes
    /// it the current round for subsequent reports. `quota: None` lets
    /// the daemon default to the population size.
    ///
    /// A retrying client treats a `ROUND_ALREADY_OPEN` refusal as success
    /// when this call reconnected before it arrived: the open sent down
    /// the dead connection may have reached the daemon.
    ///
    /// # Errors
    /// Daemon refusals (cap or admission quota exceeded, duplicate round
    /// id) as [`CollectorError::Remote`]; transport failures otherwise.
    pub fn open_round(
        &mut self,
        round_id: u64,
        channel: RoundChannel,
        quota: Option<u64>,
    ) -> Result<(), CollectorError> {
        self.send_batch()?;
        let header = RoundHeader {
            round_id,
            tenant: self.tenant,
            channel,
            // 0 asks the daemon for a quota of the population.
            quota: quota.unwrap_or(0),
        };
        let mut payload = Vec::new();
        encode_round_header(&header, &mut payload);
        let reconnects = self.reconnects;
        match self.expect(frames::OPEN, &payload, frames::ACK) {
            Err(CollectorError::Remote { code, .. })
                if code == codes::ROUND_ALREADY_OPEN && self.reconnects > reconnects => {}
            other => other?,
        }
        self.round = round_id;
        Ok(())
    }

    /// Queues one report from a borrowed adjacency report for the batched
    /// send path; a full batch leaves as one `REPORT_BATCH` frame. The
    /// hot path of a million-report round. Entries themselves are
    /// unrouted — the batch frame's head carries the round id, stamped
    /// when the batch is emitted (see [`Self::set_round`] for why a batch
    /// is homogeneous).
    ///
    /// # Errors
    /// Transport failures (only when a full batch is emitted).
    pub fn queue_adjacency_report(
        &mut self,
        user_id: u64,
        report: &AdjacencyReport,
    ) -> Result<(), CollectorError> {
        wire::encode_adjacency_entry(user_id, report, &mut self.batch);
        self.entry_queued()
    }

    /// [`Self::queue_adjacency_report`] from a borrowed degree vector.
    ///
    /// # Errors
    /// As [`Self::queue_adjacency_report`].
    pub fn queue_degree_vector(
        &mut self,
        user_id: u64,
        vector: &[f64],
    ) -> Result<(), CollectorError> {
        wire::encode_degree_vector_entry(user_id, vector, &mut self.batch);
        self.entry_queued()
    }

    /// Counts the entry just encoded into the batch, and emits the batch
    /// once it reaches the configured count or
    /// [`Self::BATCH_FLUSH_BYTES`]: the byte bound keeps a legal round's
    /// batch frame far below [`wire::MAX_FRAME_LEN`] whatever the
    /// per-entry size (a 2¹⁶-group degree vector is ~512 KiB alone).
    fn entry_queued(&mut self) -> Result<(), CollectorError> {
        self.batch_count += 1;
        if self.batch_count >= self.batch_cap || self.batch.len() >= Self::BATCH_FLUSH_BYTES {
            self.send_batch()?;
        }
        Ok(())
    }

    /// Byte threshold past which a queued batch is emitted regardless of
    /// entry count (1 MiB — 64× under the frame cap, so even the largest
    /// legal single entry appended on top cannot overflow a frame).
    pub const BATCH_FLUSH_BYTES: usize = 1 << 20;

    /// Emits any queued reports as one `REPORT_BATCH` frame (buffered,
    /// unacknowledged). A no-op when nothing is queued; control calls
    /// invoke this implicitly. A retrying client recovers here from a
    /// failed write, and syncs once its window is full.
    ///
    /// # Errors
    /// Transport failures.
    pub fn send_batch(&mut self) -> Result<(), CollectorError> {
        if self.batch_count == 0 {
            return Ok(());
        }
        let sent = self.write_batch().map_err(CollectorError::from);
        // The failed frame is already in the window: reconnecting replays it.
        self.recover(sent, |_| Ok(()))?;
        if self.window_frames >= Self::WINDOW_BATCHES {
            self.sync()?;
        }
        Ok(())
    }

    /// Writes the queued batch as one frame — through the resend window
    /// on a retrying client — with no recovery.
    fn write_batch(&mut self) -> Result<(), WireError> {
        let mut head = Vec::with_capacity(20);
        put_varint(self.round, &mut head);
        put_varint(self.batch_count as u64, &mut head);
        let len = head.len() + self.batch.len();
        let (start, retrying) = (self.window.len(), self.policy.max_attempts > 1);
        let mut out: &mut dyn Write = if retrying {
            &mut self.window
        } else {
            &mut self.writer
        };
        wire::write_frame_head(&mut out, frames::REPORT_BATCH, len)?;
        out.write_all(&head)?;
        out.write_all(&self.batch)?;
        self.batch.clear();
        self.batch_count = 0;
        if retrying {
            self.window_frames += 1;
            self.writer.write_all(&self.window[start..])?;
        }
        Ok(())
    }

    /// Flushes queued and buffered report frames to the daemon (control
    /// calls flush implicitly; rate-paced senders flush at batch
    /// boundaries so the daemon sees a steady stream).
    ///
    /// # Errors
    /// Transport failures.
    pub fn flush(&mut self) -> Result<(), CollectorError> {
        self.send_batch()?;
        self.writer.flush()?;
        Ok(())
    }

    /// Acknowledged barrier: returns once the daemon has ingested every
    /// report this session sent so far, and releases the resend window.
    /// Concurrent uploaders call this before the coordinating session
    /// closes the round — the daemon processes a session's frames in
    /// order, so the `ACK` proves the close summary will include
    /// everything sent here.
    ///
    /// This is also where *asynchronous* typed errors land: reports are
    /// unacknowledged, so a misdirected frame (unknown or closed round)
    /// is answered with an `ERR` that arrives ahead of the barrier's
    /// `ACK`. The barrier reads through to its own `ACK` and surfaces
    /// the first such error — the reply stream stays aligned for the
    /// next control call even on the error path.
    ///
    /// # Errors
    /// Daemon refusals — including deferred refusals of earlier report
    /// frames — and transport failures.
    pub fn sync(&mut self) -> Result<(), CollectorError> {
        self.send_batch()?;
        let deferred = self.retry(|c| {
            write_frame(&mut c.writer, frames::SYNC, &[])?;
            let mut first_err = None;
            loop {
                match c.read_reply() {
                    Ok(kind) if kind == frames::ACK => return Ok(first_err),
                    Ok(kind) => return Err(CollectorError::UnexpectedFrame { kind }),
                    Err(e @ CollectorError::Remote { .. }) => first_err = first_err.or(Some(e)),
                    // Transport death (e.g. the daemon dropped a refused
                    // session): report the typed refusal if one arrived.
                    Err(e) => return Err(first_err.unwrap_or(e)),
                }
            }
        })?;
        self.window.clear();
        self.window_frames = 0;
        deferred.map_or(Ok(()), Err)
    }

    /// Closes intake and returns the daemon's summary. A retrying client
    /// syncs first when its window holds frames, so no replay can land
    /// after the close (closing an already-closed round is a daemon-level
    /// no-op, so a retried close is safe).
    ///
    /// # Errors
    /// Daemon refusals and transport failures.
    pub fn close_round(&mut self, round_id: u64) -> Result<RoundSummary, CollectorError> {
        self.send_batch()?;
        if self.window_frames > 0 {
            self.sync()?;
        }
        self.expect(frames::CLOSE, &round_payload(round_id), frames::SUMMARY)?;
        let counters = decode_summary(&self.payload)?;
        Ok(RoundSummary { counters })
    }

    /// Scrapes the daemon's metrics registry: every counter, gauge, and
    /// histogram as typed entries (see
    /// [`CollectorMetrics`](crate::CollectorMetrics) for the name set).
    /// Safe to call mid-round from any session — the snapshot is relaxed
    /// and never blocks ingest. With metrics disabled on the daemon the
    /// scrape still succeeds and reads zeros.
    ///
    /// # Errors
    /// Daemon refusals and transport failures.
    pub fn stats(&mut self) -> Result<Vec<wire::StatsEntry>, CollectorError> {
        self.expect(frames::STATS, &[], frames::STATS_REPLY)?;
        Ok(wire::decode_stats_reply(&self.payload)?)
    }

    /// Finalizes an adjacency round into the server view — bit-identical
    /// to aggregating the same reports in process. A retrying client
    /// retries it only until the daemon consumes the round: a reply lost
    /// after that retries into an unknown round.
    ///
    /// # Errors
    /// [`CollectorError::Remote`] while reports are outstanding or on a
    /// degree-vector round; transport failures otherwise.
    pub fn finalize_adjacency(&mut self, round_id: u64) -> Result<PerturbedView, CollectorError> {
        match self.request(frames::FINALIZE, &round_payload(round_id))? {
            frames::VIEW => Ok(wire::decode_view(&self.payload)?),
            frames::DEGREE_SUMMARY => Err(CollectorError::WrongChannel {
                expected: "adjacency",
            }),
            kind => Err(CollectorError::UnexpectedFrame { kind }),
        }
    }

    /// Finalizes a degree-vector round into its per-group totals.
    ///
    /// # Errors
    /// As [`Self::finalize_adjacency`], with the channels swapped.
    pub fn finalize_degree_vector(
        &mut self,
        round_id: u64,
    ) -> Result<DegreeVectorSummary, CollectorError> {
        match self.request(frames::FINALIZE, &round_payload(round_id))? {
            frames::DEGREE_SUMMARY => Ok(decode_degree_summary(&self.payload)?),
            frames::VIEW => Err(CollectorError::WrongChannel {
                expected: "degree-vector",
            }),
            kind => Err(CollectorError::UnexpectedFrame { kind }),
        }
    }

    /// Asks the daemon to snapshot `round_id` into its data directory.
    ///
    /// # Errors
    /// Daemon refusals (no data directory, unknown round) and transport
    /// failures.
    pub fn checkpoint(&mut self, round_id: u64) -> Result<(), CollectorError> {
        self.expect(frames::CHECKPOINT, &round_payload(round_id), frames::ACK)
    }

    /// Stops the daemon after this session.
    ///
    /// # Errors
    /// Transport failures.
    pub fn shutdown(&mut self) -> Result<(), CollectorError> {
        self.expect(frames::SHUTDOWN, &[], frames::ACK)
    }

    /// Convenience: runs one complete adjacency round — open, stream one
    /// report per user (ids are the slice indices) over the batched
    /// path, close, finalize.
    ///
    /// # Errors
    /// Any refusal or transport failure along the way — e.g. a
    /// `ROUND_INCOMPLETE` refusal from the finalize if the daemon
    /// rejected reports (the close summary is discarded).
    pub fn run_adjacency_round(
        &mut self,
        round_id: u64,
        p_keep: f64,
        reports: &[AdjacencyReport],
    ) -> Result<PerturbedView, CollectorError> {
        self.open_round(
            round_id,
            RoundChannel::Adjacency {
                population: reports.len(),
                p_keep,
            },
            None,
        )?;
        for (id, report) in reports.iter().enumerate() {
            self.queue_adjacency_report(id as u64, report)?;
        }
        self.close_round(round_id)?;
        self.finalize_adjacency(round_id)
    }

    /// Sends one control frame after any queued batch and reads its
    /// reply into the internal payload buffer, through the retry loop.
    fn request(&mut self, kind: u8, payload: &[u8]) -> Result<u8, CollectorError> {
        self.send_batch()?;
        self.retry(|c| {
            write_frame(&mut c.writer, kind, payload)?;
            c.read_reply()
        })
    }

    /// [`Self::request`], requiring the reply kind `reply`.
    fn expect(&mut self, kind: u8, payload: &[u8], reply: u8) -> Result<(), CollectorError> {
        let got = self.request(kind, payload)?;
        if got != reply {
            return Err(CollectorError::UnexpectedFrame { kind: got });
        }
        Ok(())
    }

    /// Flushes the report stream and reads the next reply frame into the
    /// internal payload buffer.
    fn read_reply(&mut self) -> Result<u8, CollectorError> {
        self.writer.flush()?;
        match read_frame(&mut self.reader, &mut self.payload)? {
            Some(frames::ERR) => Err(decode_error(&self.payload)?),
            Some(kind) => Ok(kind),
            None => Err(CollectorError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the session mid-call",
            ))),
        }
    }

    /// Runs `op` once, then as [`Self::recover`] says.
    fn retry<T>(
        &mut self,
        mut op: impl FnMut(&mut Self) -> Result<T, CollectorError>,
    ) -> Result<T, CollectorError> {
        let first = op(self);
        self.recover(first, op)
    }

    /// The one retry loop: while `result` is a transport-class failure
    /// and the policy's attempt budget lasts, back off, reconnect (which
    /// replays the window) and rerun `op`.
    fn recover<T>(
        &mut self,
        mut result: Result<T, CollectorError>,
        mut op: impl FnMut(&mut Self) -> Result<T, CollectorError>,
    ) -> Result<T, CollectorError> {
        let mut attempt = 1;
        while let Err(e) = &result {
            if attempt >= self.policy.max_attempts || !is_transport(e) {
                break;
            }
            std::thread::sleep(self.backoff(attempt));
            attempt += 1;
            result = self.reconnect().and_then(|()| op(self));
        }
        result
    }

    /// Replaces the connection with a fresh one to the same addresses —
    /// handshake, socket deadline, then the resend window replayed
    /// verbatim (its duplicates are the daemon's to reject). The old
    /// connection is dropped without going through [`Drop`], so a
    /// reconnect never counts as a failed flush.
    fn reconnect(&mut self) -> Result<(), CollectorError> {
        (self.reader, self.writer) = dial(&self.addrs)?;
        self.reconnects += 1;
        self.set_op_timeout(self.op_timeout)?;
        self.writer.write_all(&self.window)?;
        Ok(())
    }

    /// Exponential backoff before retry `attempt` (1-based), jittered
    /// deterministically into `[cap/2, cap)` so a fleet of clients with
    /// different seeds does not reconnect in lockstep.
    fn backoff(&mut self, attempt: u32) -> Duration {
        let doublings = attempt.saturating_sub(1).min(16);
        let cap = self
            .policy
            .base_backoff
            .saturating_mul(1 << doublings)
            .min(self.policy.max_backoff);
        let frac = (splitmix64(&mut self.jitter_state) >> 40) as f64 / (1u64 << 24) as f64;
        cap.mul_f64(0.5 + 0.5 * frac)
    }
}

/// A partially filled batch is best-effort flushed on drop, like the
/// bytes already sitting in the `BufWriter`. A failed flush cannot surface from a destructor, so it
/// is **counted** (process-wide, readable via
/// [`CollectorClient::pending_flush_failed`]) rather than silently
/// discarded — an uploader that needs delivery *proof* must still end
/// with [`CollectorClient::sync`]. The destructor never reconnects.
impl Drop for CollectorClient {
    fn drop(&mut self) {
        let flushed =
            (self.batch_count == 0 || self.write_batch().is_ok()) && self.writer.flush().is_ok();
        if !flushed {
            PENDING_FLUSH_FAILURES.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Dials each address in turn and performs the versioned handshake on
/// the first that accepts; a failure names every address tried.
fn dial(
    addrs: &[SocketAddr],
) -> Result<(BufReader<TcpStream>, BufWriter<TcpStream>), CollectorError> {
    let mut last: Option<std::io::Error> = None;
    for candidate in addrs {
        match TcpStream::connect(candidate) {
            Ok(stream) => {
                stream.set_nodelay(true)?;
                let mut writer = BufWriter::with_capacity(1 << 16, stream.try_clone()?);
                let mut reader = BufReader::with_capacity(1 << 16, stream);
                write_stream_header(&mut writer)?;
                writer.flush()?;
                read_stream_header(&mut reader)?;
                return Ok((reader, writer));
            }
            Err(error) => last = Some(error),
        }
    }
    let tried: Vec<String> = addrs.iter().map(SocketAddr::to_string).collect();
    Err(CollectorError::Transport {
        target: if tried.is_empty() {
            "<no addresses resolved>".to_string()
        } else {
            tried.join(", ")
        },
        error: last.unwrap_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::AddrNotAvailable,
                "the address resolved to nothing",
            )
        }),
    })
}

/// The payload of a frame that names only its round.
fn round_payload(round_id: u64) -> Vec<u8> {
    let mut payload = Vec::new();
    put_varint(round_id, &mut payload);
    payload
}

/// True for failures a reconnect can cure: socket-level errors and a
/// stream that died mid-frame. Typed daemon refusals and codec errors
/// are *not* retried — resending a refused frame re-refuses it.
fn is_transport(e: &CollectorError) -> bool {
    matches!(
        e,
        CollectorError::Io(_)
            | CollectorError::Transport { .. }
            | CollectorError::Wire(WireError::Io(_))
    )
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
