//! The collection daemon: a TCP front-end over the round engine.
//!
//! One [`CollectorServer`] owns a [`std::net::TcpListener`] and a
//! [`RoundCollector`]. Each admitted connection gets its own scoped
//! session thread: it reads straight into its session buffer, blocking
//! for at most a short tick (so it still sees a daemon shutdown and its
//! own stall clock), folds every complete frame the buffer then holds in
//! place, moves only the unparsed tail to the front, and writes the
//! replies under a write timeout set once at accept. So the daemon
//! copies a report once, the kernel's read into the session buffer (plus
//! the tail move when a read ends mid-frame), and the uploader at most
//! once, its `BufWriter` taking the batch frame the report was encoded
//! into. The daemon holds up to
//! [`CollectorConfig::max_sessions`](crate::CollectorConfig::max_sessions)
//! sessions, and a connect past that cap is refused with a typed
//! `ERR`/`SESSION_CAP` after a short bounded wait, never queued
//! indefinitely. A connection stuck mid-frame past the stall timeout
//! (unparsed bytes and no new ones: a half-written batch, a wedged peer)
//! is dropped rather than allowed to pin its buffer forever.
//!
//! Every report-bearing frame names its round: the engine multiplexes
//! any number of concurrent rounds (see [`crate::RoundCollector`]), and
//! sessions working different rounds share no lock. Reports naming an
//! unknown or closed round are counted and answered with **one** typed
//! `ERR` per (connection, round) — a misdirected client learns its
//! mistake; a hostile flood cannot turn the daemon into a reply
//! amplifier. The finalized view of every round is bit-identical however
//! sessions and other rounds interleave (OR-folds into
//! exclusively-owned rows commute).
//!
//! ## Frame protocol (wire version 3)
//!
//! | kind | direction | payload |
//! |------|-----------|---------|
//! | `OPEN` `0x01` | c→s | round id, tenant, channel tag + params, quota (varints/f64) |
//! | `0x02` | — | reserved (the retired singleton `REPORT`); answered `ERR`/`BAD_FRAME` |
//! | `CLOSE` `0x03` | c→s | round id |
//! | `FINALIZE` `0x04` | c→s | round id |
//! | `CHECKPOINT` `0x05` | c→s | round id (snapshots that round into the journal) |
//! | `SHUTDOWN` `0x06` | c→s | empty; stops the accept loop |
//! | `REPORT_BATCH` `0x07` | c→s | round id + varint count + length-prefixed reports (no ack) |
//! | `SYNC` `0x08` | c→s | empty; acked once every prior frame of this session is ingested |
//! | `STATS` `0x09` | c→s | empty; scrapes the daemon's metrics registry |
//! | `ACK` `0x81` | s→c | empty |
//! | `ERR` `0x82` | s→c | code byte + message |
//! | `SUMMARY` `0x83` | s→c | intake counters + finalized-at-close flag |
//! | `VIEW` `0x84` | s→c | a finalized [`PerturbedView`](ldp_protocols::PerturbedView) as `N`, keep probability, reported degrees and the strict lower triangle, streamed from the shards into the socket in [`wire::VIEW_PIECE`] pieces ([`wire::encode_lower_view`]) after the replies staged before it; the client mirrors it |
//! | `DEGREE_SUMMARY` `0x85` | s→c | group totals + accepted count |
//! | `STATS_REPLY` `0x86` | s→c | typed metric samples (see [`wire::decode_stats_reply`]) |
//!
//! `REPORT_BATCH` frames are deliberately unacknowledged —
//! per-report round-trips would cap throughput at the RTT; rejects
//! (duplicates, quota, malformed) are counted and returned in the `CLOSE`
//! summary, which is also where a poisoning analyst reads the attack
//! surface. `SYNC` is the barrier concurrent uploaders use: a session's
//! frames are processed in order, so its `ACK` proves every report this
//! session sent is folded — the coordinator can then `CLOSE` without
//! racing the uploaders' socket buffers.
//!
//! ## One apply path
//!
//! Every state-changing frame (`OPEN`, `REPORT_BATCH`, `CLOSE`,
//! `FINALIZE`, `CHECKPOINT`) goes through `apply_frame`, which owns
//! the decode, the write-ahead journal append, the fold and its
//! malformed-upload accounting, and the reply encoding. A journal
//! record is the applied frame byte for byte, and recovery
//! ([`crate::wal`]) splits records with the pump's own
//! [`wire::split_frame`] and replays them through the same function, so
//! a restarted daemon re-makes every accept/reject decision the live one
//! made because it runs the same code on the same bytes.

use crate::codec::{
    decode_round_header, encode_degree_summary, encode_error, encode_summary, error_code,
    RoundHeader,
};
use crate::error::CollectorError;
use crate::metrics::{observe_since, CollectorMetrics};
use crate::round::{CollectorConfig, FrameTally, RoundCollector, RoundOutcome};
use crate::shard::FinalizedShards;
use crate::wal::{DurableLog, FsyncPolicy, Journal, Recovery, SyncTicket};
use ldp_protocols::wire::{
    self, get_varint, write_frame, write_stream_header, RawFrame, WireError,
};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Frame kind bytes of the collection protocol, defined next to the
/// codec ([`ldp_protocols::wire::frames`]).
pub use ldp_protocols::wire::frames;

/// Stable error codes carried by `ERR` frames.
pub mod codes {
    /// Population exceeds the configured memory cap.
    pub const POPULATION_CAP: u8 = 1;
    /// A round with this id is already open.
    pub const ROUND_ALREADY_OPEN: u8 = 2;
    /// No round has the named id (never opened, or already finalized).
    pub const NO_OPEN_ROUND: u8 = 3;
    /// Historical (wire v1): frame named a round other than the single
    /// open one. Unused since the registry multiplexes rounds; the value
    /// is reserved so old captures stay readable.
    pub const ROUND_MISMATCH: u8 = 4;
    /// Finalize before every user reported.
    pub const ROUND_INCOMPLETE: u8 = 5;
    /// Malformed frame or parameter.
    pub const BAD_FRAME: u8 = 6;
    /// Checkpointing failed (no data directory configured, I/O failure).
    pub const CHECKPOINT_FAILED: u8 = 7;
    /// Anything else.
    pub const INTERNAL: u8 = 8;
    /// The daemon is at its connection cap.
    pub const SESSION_CAP: u8 = 9;
    /// The tenant is at its open-round quota.
    pub const TENANT_QUOTA: u8 = 10;
    /// Admitting the round would exceed the global memory budget.
    pub const MEMORY_BUDGET: u8 = 11;
    /// The named round's intake is already closed.
    pub const ROUND_CLOSED: u8 = 12;
}

/// Least read space a session buffer offers one socket read.
const READ_CHUNK: usize = 64 << 10;
/// Cap on the warn-once set of misdirected round ids per connection.
const WARN_CAP: usize = 32;
/// How long a reply write may block before the connection is declared
/// wedged and dropped.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);
/// Longest a session blocks in one socket read; bounds how stale its
/// view of the shutdown flag and of its stall clock can get.
const READ_TICK: Duration = Duration::from_millis(10);
/// Longest the acceptor waits for a session slot before refusing with a
/// typed `SESSION_CAP` error (polled; a disconnect frees its slot within
/// one read tick, so sequential clients reuse slots well inside this),
/// and the longest it then spends draining the refused peer.
const ADMIT_WAIT: Duration = Duration::from_secs(1);
const ADMIT_POLL: Duration = Duration::from_millis(10);

/// Default mid-frame stall timeout: how long a connection may hold a
/// partial frame without new bytes before the daemon drops it.
pub const DEFAULT_STALL_TIMEOUT: Duration = Duration::from_secs(60);

/// The TCP collection daemon.
pub struct CollectorServer {
    listener: TcpListener,
    engine: RoundCollector,
    stall_timeout: Duration,
    durable: Option<DurableLog>,
    recovery: Option<Recovery>,
}

impl CollectorServer {
    /// Binds the daemon to `addr` (use port 0 for an ephemeral port).
    ///
    /// # Errors
    /// Bind failures and invalid configurations.
    pub fn bind(addr: impl ToSocketAddrs, config: CollectorConfig) -> Result<Self, CollectorError> {
        Ok(CollectorServer {
            listener: TcpListener::bind(addr)?,
            engine: RoundCollector::new(config)?,
            stall_timeout: DEFAULT_STALL_TIMEOUT,
            durable: None,
            recovery: None,
        })
    }

    /// Turns on the crash-durability plane: every state-changing frame is
    /// write-ahead-journaled into `dir` under `policy` before it is acted
    /// on, and this call **recovers** whatever rounds a previous
    /// incarnation left there — checkpoint records first, then the
    /// journal tail, rebuilding each open round bit-identically (see
    /// [`crate::wal`]). Read what was rebuilt via [`Self::recovery`].
    ///
    /// # Errors
    /// I/O failures on `dir`, and [`CollectorError::BadJournal`] /
    /// [`CollectorError::BadCheckpoint`] when the directory holds
    /// corruption that truncation cannot explain.
    pub fn with_data_dir(
        mut self,
        dir: impl Into<PathBuf>,
        policy: FsyncPolicy,
    ) -> Result<Self, CollectorError> {
        let (log, recovery) = DurableLog::open(&dir.into(), policy, &self.engine)?;
        self.durable = Some(log);
        self.recovery = Some(recovery);
        Ok(self)
    }

    /// What [`Self::with_data_dir`] rebuilt, when it ran.
    pub fn recovery(&self) -> Option<&Recovery> {
        self.recovery.as_ref()
    }

    /// How long a connection may sit mid-frame (half-written batch,
    /// stalled peer) before the daemon drops it. Defaults to
    /// [`DEFAULT_STALL_TIMEOUT`]; fault-injection tests lower it.
    pub fn with_stall_timeout(mut self, timeout: Duration) -> Self {
        self.stall_timeout = timeout;
        self
    }

    /// The bound address (read the ephemeral port here).
    ///
    /// # Errors
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> Result<SocketAddr, CollectorError> {
        Ok(self.listener.local_addr()?)
    }

    /// Accepts and serves sessions until a client sends `SHUTDOWN`.
    /// Each admitted connection runs on its own session thread (see the
    /// module docs); session-level failures (a peer speaking garbage, a
    /// stalled frame) end that connection and the daemon keeps serving;
    /// only listener failures propagate. Returns once the shutdown is
    /// observed **and** every session thread has ended.
    ///
    /// # Errors
    /// Accept failures on the listener.
    pub fn serve(&mut self) -> Result<(), CollectorError> {
        let engine = &self.engine;
        let durable = self.durable.as_ref();
        let listener = &self.listener;
        let stall = self.stall_timeout;
        let metrics = engine.metrics();
        // The shutdown wake-up connects to ourselves; a wildcard bind
        // (0.0.0.0 / ::) is not connectable on every platform, so aim
        // the wake at loopback on the bound port instead.
        let mut wake_addr = self.local_addr()?;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr {
                SocketAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                SocketAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
            });
        }
        let shared = Shared {
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            wake_addr,
        };
        std::thread::scope(|scope| {
            let result = loop {
                let stream = match listener.accept() {
                    Ok((stream, _)) => stream,
                    Err(e) => break Err(e.into()),
                };
                if shared.shutdown.load(Ordering::Acquire) {
                    // Woken (or raced) by a shutting-down session; the
                    // throwaway connection is dropped here.
                    break Ok(());
                }
                let Some(conn) = admit(stream, engine.config().max_sessions, &shared, metrics)
                else {
                    continue;
                };
                let shared = &shared;
                let spawned = std::thread::Builder::new()
                    .name("ldp-session".into())
                    .spawn_scoped(scope, move || session(conn, shared, engine, durable, stall));
                if spawned.is_err() {
                    // The OS refused a thread; the connection went down
                    // with the closure, so release its slot.
                    retire(shared, metrics);
                }
            };
            // Every exit path — clean shutdown or listener failure — must
            // end the sessions, or the scope join would hang.
            shared.shutdown.store(true, Ordering::Release);
            result
        })
    }

    /// Binds to a loopback ephemeral port and serves on a background
    /// thread — the one-call setup tests and benches use. Returns the
    /// address to connect to and the thread handle (joins once a client
    /// sends `SHUTDOWN`).
    ///
    /// # Errors
    /// As [`Self::bind`].
    pub fn spawn(config: CollectorConfig) -> Result<Spawned, CollectorError> {
        CollectorServer::bind(("127.0.0.1", 0), config)?.serve_in_background()
    }

    /// [`Self::spawn`] with the crash-durability plane on: recovers
    /// whatever `dir` holds, then serves with every state-changing frame
    /// write-ahead-journaled under `policy`.
    ///
    /// # Errors
    /// As [`Self::bind`] and [`Self::with_data_dir`].
    pub fn spawn_durable(
        config: CollectorConfig,
        dir: impl Into<PathBuf>,
        policy: FsyncPolicy,
    ) -> Result<Spawned, CollectorError> {
        let server = CollectorServer::bind(("127.0.0.1", 0), config)?;
        server.with_data_dir(dir, policy)?.serve_in_background()
    }

    fn serve_in_background(mut self) -> Result<Spawned, CollectorError> {
        let addr = self.local_addr()?;
        Ok((addr, std::thread::spawn(move || self.serve())))
    }
}

/// What [`CollectorServer::spawn`] returns: the bound address and the
/// serving thread.
type Spawned = (
    SocketAddr,
    std::thread::JoinHandle<Result<(), CollectorError>>,
);

/// State shared between the acceptor and the session threads.
struct Shared {
    shutdown: AtomicBool,
    /// Live sessions. Incremented by the single-threaded acceptor,
    /// decremented by whichever session thread retires — so the
    /// acceptor's check-then-increment cannot race another incrementer.
    active: AtomicUsize,
    wake_addr: SocketAddr,
}

/// Admits one accepted socket as a session, taking a slot, or refuses it
/// with a typed `SESSION_CAP` error after a bounded wait for one.
fn admit(
    stream: TcpStream,
    cap: usize,
    shared: &Shared,
    metrics: &CollectorMetrics,
) -> Option<Conn> {
    let mut waited = Duration::ZERO;
    while shared.active.load(Ordering::Acquire) >= cap {
        if waited >= ADMIT_WAIT {
            refuse_session_cap(&stream, cap, metrics);
            return None;
        }
        std::thread::sleep(ADMIT_POLL);
        waited += ADMIT_POLL;
        if shared.shutdown.load(Ordering::Acquire) {
            return None;
        }
    }
    let conn = Conn::new(stream).ok()?;
    shared.active.fetch_add(1, Ordering::AcqRel);
    if metrics.active() {
        metrics.sessions_active.add(1);
    }
    Some(conn)
}

/// The typed connect refusal: a valid stream header followed by one
/// `ERR`/`SESSION_CAP` frame, so the latecomer's first reply read is a
/// clean [`CollectorError::Remote`] instead of a hang or a reset.
fn refuse_session_cap(stream: &TcpStream, cap: usize, metrics: &CollectorMetrics) {
    if metrics.active() {
        metrics.sessions_refused_cap.incr();
    }
    metrics.on_err(codes::SESSION_CAP);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    // Writes into a `Vec` cannot fail.
    let (mut out, mut reply) = (Vec::new(), Vec::new());
    let _ = write_stream_header(&mut out);
    encode_error(&CollectorError::SessionCap { cap }, &mut reply);
    let _ = write_frame(&mut out, frames::ERR, &reply);
    if (&*stream).write_all(&out).is_err() {
        return;
    }
    // Half-close and absorb whatever the peer already sent (its
    // handshake, typically a first frame too) before dropping the
    // socket: closing with unread bytes queued turns the close into an
    // RST, and an RST discards the refusal from the peer's receive
    // queue before it can be read. FIN keeps the typed error readable.
    // The whole drain shares one deadline: this runs on the acceptor, so
    // a peer that keeps trickling bytes must not hold the accept loop.
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let deadline = Instant::now() + ADMIT_WAIT;
    let mut sink = [0u8; 512];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero()
            || stream.set_read_timeout(Some(left)).is_err()
            || !matches!((&*stream).read(&mut sink), Ok(n) if n > 0)
        {
            return;
        }
    }
}

/// What one pump of a connection concluded.
enum Pump {
    /// The connection stays up.
    Open,
    /// The connection is finished (clean EOF, error, or refusal).
    Closed,
    /// The peer requested daemon shutdown (already acked).
    Shutdown,
}

/// One session's connection: a socket plus the incremental
/// frame-assembly state.
struct Conn {
    stream: TcpStream,
    /// The session buffer: `buf[..filled]` holds the unparsed inbound
    /// bytes (handshake, then length-prefixed frames), and the rest is
    /// read space, zeroed once, when the buffer grows.
    buf: Vec<u8>,
    filled: usize,
    handshaken: bool,
    /// Last moment bytes arrived; drives the mid-frame stall timeout.
    last_progress: Instant,
    session: Session,
}

/// What [`apply_frame`] reads and writes of a connection: staged
/// replies, the warn-once set, and the fold-sampling counter. Journal
/// recovery runs every record through one [`Session::replay`], and each
/// in-process report through a fresh one.
#[derive(Default)]
pub(crate) struct Session {
    /// Staged outbound replies, flushed once the frames buffered so far
    /// are processed, or before a `VIEW` is streamed.
    pub(crate) out: Vec<u8>,
    /// Misdirected round ids already answered with a typed ERR — one
    /// warning per (connection, round), so a flood of unknown-round
    /// reports cannot turn the daemon into a reply amplifier.
    warned: Vec<u64>,
    /// Plain count of the (frame, shard) runs this connection has
    /// folded — the latency-sampling key (every `1 << FOLD_SAMPLE_SHIFT`-th
    /// run gets timed), kept out of the registry so the decision costs no
    /// atomic.
    pub(crate) runs_seen: u64,
    /// The sync the last journaled batch owes, run once the guard drops.
    sync: Option<SyncTicket>,
    /// Set for journal recovery and in-process reports: no client is
    /// listening, so replies are not staged and nothing is counted as
    /// live traffic (`ingest_batches_decoded`, `ingest_batch_nanos`,
    /// `err_*`).
    replay: bool,
}

impl Session {
    /// The session journal recovery replays records through.
    pub(crate) fn replay() -> Self {
        Session {
            replay: true,
            ..Session::default()
        }
    }

    /// Stages a typed `ERR` reply and counts it by code.
    fn stage_err(&mut self, e: &CollectorError, metrics: &CollectorMetrics) {
        if self.replay {
            return;
        }
        let mut reply = Vec::new();
        encode_error(e, &mut reply);
        let _ = write_frame(&mut self.out, frames::ERR, &reply);
        metrics.on_err(error_code(e));
    }

    /// [`Self::stage_err`] for a misdirected (unknown/closed) round, at
    /// most once per round id per session.
    fn warn_once(&mut self, round_id: u64, e: &CollectorError, metrics: &CollectorMetrics) {
        if self.warned.contains(&round_id) || self.warned.len() >= WARN_CAP {
            return;
        }
        self.warned.push(round_id);
        self.stage_err(e, metrics);
    }
}

impl Conn {
    fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TICK))?;
        stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
        write_stream_header(&mut &stream).map_err(|_| ErrorKind::BrokenPipe)?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
            filled: 0,
            handshaken: false,
            last_progress: Instant::now(),
            session: Session::default(),
        })
    }

    /// Reads what arrives within one [`READ_TICK`], processes every
    /// complete frame the buffer then holds, and flushes staged replies.
    fn pump(&mut self, engine: &RoundCollector, durable: Option<&DurableLog>) -> Pump {
        let eof = match self.fill(engine.metrics()) {
            Ok(eof) => eof,
            Err(_) => return Pump::Closed,
        };
        // A peer that wrote and hung up still has every complete frame it
        // sent processed below. Then the connection ends: a clean close
        // at a frame boundary, or a mid-frame EOF from a peer that died
        // half-write — the partial frame is never half-ingested.
        let mut outcome = if eof { Pump::Closed } else { Pump::Open };
        let mut used = 0;
        if !self.handshaken {
            let Some(mut header) = self.buf.get(..6).filter(|_| self.filled >= 6) else {
                return outcome;
            };
            if wire::read_stream_header(&mut header).is_err() {
                // A foreign or downgraded peer: nothing it sends can be
                // routed; drop it (the peer reads our valid header and
                // types the mismatch on its own side).
                return Pump::Closed;
            }
            used = 6;
            self.handshaken = true;
        }

        loop {
            let unparsed = self.buf.get(used..self.filled).unwrap_or_default();
            let frame = match wire::split_frame(unparsed) {
                Ok(Some((frame, _))) => frame,
                Ok(None) => break,
                Err(e) => {
                    // Hostile or corrupt length prefix: answer typed, drop.
                    self.session
                        .stage_err(&CollectorError::Wire(e), engine.metrics());
                    outcome = Pump::Closed;
                    break;
                }
            };
            used += frame.bytes.len();
            match process_frame(&mut self.session, engine, durable, frame) {
                Frame::Continue | Frame::Refused(_) => {}
                Frame::View(shards) if self.send_view(&shards, engine.metrics()).is_ok() => {}
                Frame::Shutdown => {
                    outcome = Pump::Shutdown;
                    break;
                }
                // A `VIEW` the socket did not take ends the connection.
                Frame::Fatal | Frame::View(_) => {
                    outcome = Pump::Closed;
                    break;
                }
            }
        }
        // Only the unparsed tail moves, to the front of the buffer.
        if used > 0 {
            self.buf.copy_within(used..self.filled, 0);
            self.filled -= used;
        }

        // The write timeout set at accept makes a slow reader a typed I/O
        // failure on this connection, not an unbounded stall.
        let flushed = self.stream.write_all(&self.session.out);
        self.session.out.clear();
        if flushed.is_err() {
            return Pump::Closed;
        }
        outcome
    }

    /// Writes the staged replies and the `VIEW` frame head, then streams the
    /// payload from the shards in [`wire::VIEW_PIECE`]s ([`PieceWriter`]).
    fn send_view(&mut self, view: &FinalizedShards, m: &CollectorMetrics) -> Result<(), WireError> {
        let begin = m.active().then(Instant::now);
        let len = wire::view_payload_len(view.n);
        wire::write_frame_head(&mut self.session.out, frames::VIEW, len)?;
        self.stream.write_all(&self.session.out)?;
        self.session.out.clear();
        view.encode(&mut PieceWriter(&self.stream))?;
        observe_since(&m.view_send_nanos, begin);
        Ok(())
    }

    /// One socket read straight into the session buffer's read space,
    /// blocking at most one [`READ_TICK`]; the buffer grows (and only
    /// then zeroes bytes) when less than [`READ_CHUNK`] of space is left.
    /// Returns whether the peer hung up.
    fn fill(&mut self, metrics: &CollectorMetrics) -> std::io::Result<bool> {
        if self.buf.len() - self.filled < READ_CHUNK {
            self.buf.resize(self.filled + READ_CHUNK, 0);
        }
        let space = self.buf.get_mut(self.filled..).unwrap_or_default();
        match self.stream.read(space) {
            Ok(0) => Ok(true),
            Ok(n) => {
                // `read` never reports more than the space holds.
                self.filled = (self.filled + n).min(self.buf.len());
                self.last_progress = Instant::now();
                if metrics.active() {
                    metrics.bytes_read.add(n as u64);
                }
                Ok(false)
            }
            Err(e) => match e.kind() {
                ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted => Ok(false),
                _ => Err(e),
            },
        }
    }
}

/// What processing one frame concluded.
pub(crate) enum Frame {
    Continue,
    Shutdown,
    /// The connection must drop (a journal append, sync or reply failed).
    Fatal,
    /// A request was refused; its typed `ERR` is already staged. Journal
    /// recovery reads the error, the live path moves on.
    Refused(CollectorError),
    /// A finalized, journaled adjacency round, whose `VIEW` the pump streams.
    View(FinalizedShards),
}

/// Folds one `REPORT_BATCH` payload as a whole
/// ([`RoundCollector::fold_frame`]) — the one fold every report takes:
/// the daemon's sessions, journal replay and the in-process
/// [`RoundCollector::ingest_ref`] (a one-entry frame) all come here. An
/// unknown or closed round refuses the frame with a warn-once typed ERR;
/// per-report outcomes are counted by the engine, and the tally is
/// returned for `ingest_ref`.
pub(crate) fn fold_batch(
    session: &mut Session,
    engine: &RoundCollector,
    payload: &[u8],
) -> Result<FrameTally, CollectorError> {
    let metrics = engine.metrics();
    let batch_begin = (metrics.active() && !session.replay).then(Instant::now);
    let folded = match wire::read_routed_batch(payload) {
        Ok((round_id, batch)) => engine
            .fold_frame(round_id, batch, &mut session.runs_seen)
            .inspect_err(|e| session.warn_once(round_id, e, metrics)),
        Err(e) => {
            // Charge the garbage to its round if the id at least parses;
            // otherwise the frame is simply dropped (its length prefix
            // isolated it from the stream).
            let mut head = payload;
            if let Ok(round_id) = get_varint(&mut head) {
                engine.note_invalid(round_id);
            }
            Err(CollectorError::Wire(e))
        }
    };
    if batch_begin.is_some() {
        metrics.batches_decoded.incr();
    }
    observe_since(&metrics.batch_nanos, batch_begin);
    folded
}

/// Processes one complete frame, staging any reply into the session.
/// Read-only traffic (`SYNC`, `STATS`, `SHUTDOWN`) is answered here;
/// everything else goes to [`apply_frame`], under the journal guard
/// when the daemon is durable. The sync a journaled report batch owes
/// runs after the guard drops and before this returns, so a session reads
/// its next frame only once its record is as durable as the policy asks.
pub(crate) fn process_frame(
    session: &mut Session,
    engine: &RoundCollector,
    durable: Option<&DurableLog>,
    frame: RawFrame<'_>,
) -> Frame {
    let metrics = engine.metrics();
    if metrics.active() {
        metrics.frames_decoded.incr();
    }
    let (mut reply, payload) = (Vec::new(), frame.payload);
    let result = match frame.kind {
        // Frames are processed in order, so reaching here proves every
        // prior report of this session is folded.
        frames::SYNC => wire::expect_end(payload).map(|()| frames::ACK),
        frames::STATS => wire::expect_end(payload).map(|()| {
            wire::encode_stats_reply(&metrics.snapshot(), &mut reply);
            frames::STATS_REPLY
        }),
        frames::SHUTDOWN => {
            let _ = write_frame(&mut session.out, frames::ACK, &[]);
            return Frame::Shutdown;
        }
        _ => {
            // The guard covers append *and* fold, so a checkpoint (which
            // also takes it) never observes a fold its journal lacks. It
            // drops before the owed sync runs.
            let mut journal = durable.map(DurableLog::lock);
            let frame = apply_frame(engine, session, journal.as_deref_mut(), frame);
            drop(journal);
            return match session.sync.take() {
                // The fold happened, but its record may not be durable.
                Some(ticket) if ticket.wait(metrics).is_err() => Frame::Fatal,
                _ => frame,
            };
        }
    };
    stage_reply(
        session,
        metrics,
        result.map_err(CollectorError::Wire),
        reply,
    )
}

/// Applies one state-changing frame — the single path shared by the live
/// daemon and journal replay (which passes `journal: None`, since its
/// records are already on disk). Owns, exactly once:
///
/// * the decode;
/// * the write-ahead point: the frame itself is the journal record,
///   appended byte for byte — a `REPORT_BATCH` **before** the decode and
///   fold, so replay re-derives rejects, not just accepts;
///   `OPEN`/`CLOSE`/`FINALIZE` after the engine accepts them and
///   **before** the reply is staged,
///   so a crash at any instant leaves the journal covering at least
///   everything a client was told happened (the `ack-before-durable`
///   lint rule pins this order);
/// * the fold and its malformed-upload accounting;
/// * the `ACK`/`SUMMARY`/`DEGREE_SUMMARY` reply encoding, and the
///   handoff of a finalized adjacency round to the pump ([`Frame::View`]).
///
/// Without a journal, `CHECKPOINT` is a typed `CHECKPOINT_FAILED`: a
/// snapshot is a journal record, superseding the records before it.
pub(crate) fn apply_frame(
    engine: &RoundCollector,
    session: &mut Session,
    journal: Option<&mut Journal>,
    frame: RawFrame<'_>,
) -> Frame {
    let (metrics, payload) = (engine.metrics(), frame.payload);
    if frame.kind == frames::REPORT_BATCH {
        if let Some(journal) = journal {
            match journal.append(frame, metrics) {
                Ok(ticket) => session.sync = ticket,
                // The record is not durable; folding it anyway would let
                // a crash silently lose an ingested report. Dropping the
                // connection is the honest failure.
                Err(_) => return Frame::Fatal,
            }
        }
        // Unacknowledged: rejects are counted, and a misdirected frame
        // already staged its warn-once ERR.
        let _ = fold_batch(session, engine, payload);
        return Frame::Continue;
    }
    let mut reply = Vec::new();
    let result: Result<u8, CollectorError> = match frame.kind {
        frames::OPEN => decode_open(payload)
            .and_then(|h| {
                // An `OPEN` quota of 0 means "the population".
                let quota = (h.quota != 0).then_some(h.quota);
                engine.open_round_as(h.tenant, h.round_id, h.channel, quota)
            })
            .and_then(|()| append_accepted(journal, frame, metrics))
            .map(|()| frames::ACK),
        frames::CLOSE => decode_round_id(payload)
            .and_then(|id| engine.close_round(id))
            .and_then(|counters| {
                append_accepted(journal, frame, metrics)?;
                Ok(counters)
            })
            .map(|counters| {
                encode_summary(&counters, &mut reply);
                frames::SUMMARY
            }),
        // The record is journaled inside the engine's finalize
        // measurement, and before any reply is staged or handed over.
        frames::FINALIZE => match decode_round_id(payload).and_then(|id| {
            engine.finalize_then(id, |outcome| {
                append_accepted(journal, frame, metrics).map(|()| outcome)
            })
        }) {
            Ok(RoundOutcome::Adjacency(shards)) => return Frame::View(shards),
            Ok(RoundOutcome::DegreeVector {
                group_totals,
                accepted,
            }) => {
                encode_degree_summary(accepted, &group_totals, &mut reply);
                Ok(frames::DEGREE_SUMMARY)
            }
            Err(e) => Err(e),
        },
        frames::CHECKPOINT => decode_round_id(payload)
            .and_then(|id| match journal {
                Some(journal) => journal.checkpoint_round(engine, id, metrics),
                None => Err(CollectorError::BadCheckpoint {
                    detail: "checkpoints need a durable daemon (--data-dir)",
                }),
            })
            .map(|()| frames::ACK),
        kind => Err(CollectorError::UnexpectedFrame { kind }),
    };
    stage_reply(session, metrics, result, reply)
}

/// Journals one lifecycle frame the engine accepted (a no-op without a
/// journal). The journal itself syncs a `FINALIZE` whatever the policy.
fn append_accepted(
    journal: Option<&mut Journal>,
    frame: RawFrame<'_>,
    metrics: &CollectorMetrics,
) -> Result<(), CollectorError> {
    journal.map_or(Ok(()), |journal| journal.append(frame, metrics).map(drop))
}

/// Stages the outcome of a request/response frame: the typed reply on
/// success, a typed `ERR` otherwise.
fn stage_reply(
    session: &mut Session,
    metrics: &CollectorMetrics,
    result: Result<u8, CollectorError>,
    reply: Vec<u8>,
) -> Frame {
    match result {
        Ok(reply_kind) => {
            if !session.replay && write_frame(&mut session.out, reply_kind, &reply).is_err() {
                return Frame::Fatal;
            }
            Frame::Continue
        }
        Err(e) => {
            session.stage_err(&e, metrics);
            Frame::Refused(e)
        }
    }
}

/// A session socket whose write fails once it waits out [`WRITE_TIMEOUT`],
/// also when a peer that stopped reading took a few bytes meanwhile.
struct PieceWriter<'a>(&'a TcpStream);

impl Write for PieceWriter<'_> {
    fn write(&mut self, piece: &[u8]) -> std::io::Result<usize> {
        let begin = Instant::now();
        let taken = self.0.write(piece)?;
        if begin.elapsed() >= WRITE_TIMEOUT {
            return Err(ErrorKind::TimedOut.into());
        }
        Ok(taken)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One session thread: pumps its connection until the peer leaves, the
/// stall reaper drops it, or the daemon shuts down, then frees its slot.
/// A shutdown drops the connection unpumped, so a partial frame it holds
/// is never ingested.
fn session(
    mut conn: Conn,
    shared: &Shared,
    engine: &RoundCollector,
    durable: Option<&DurableLog>,
    stall: Duration,
) {
    let metrics = engine.metrics();
    while !shared.shutdown.load(Ordering::Acquire) {
        match conn.pump(engine, durable) {
            Pump::Open => {
                if conn.filled > 0 && conn.last_progress.elapsed() > stall {
                    // Wedged mid-frame past the timeout: drop it. The
                    // partial frame was never ingested, so every round's
                    // aggregate is exactly as if the bytes never arrived.
                    retire(shared, metrics);
                    if metrics.active() {
                        metrics.stall_reaps.incr();
                    }
                    return;
                }
            }
            Pump::Closed => break,
            Pump::Shutdown => {
                shared.shutdown.store(true, Ordering::Release);
                // Unblock the accept loop so it observes the flag.
                let _ = TcpStream::connect_timeout(&shared.wake_addr, WRITE_TIMEOUT);
                break;
            }
        }
    }
    retire(shared, metrics);
}

/// Retires one session: the live count and its gauge mirror move
/// together.
fn retire(shared: &Shared, metrics: &CollectorMetrics) {
    shared.active.fetch_sub(1, Ordering::AcqRel);
    if metrics.active() {
        metrics.sessions_active.sub(1);
    }
}

fn decode_open(payload: &[u8]) -> Result<RoundHeader, CollectorError> {
    let mut buf = payload;
    let header = decode_round_header(&mut buf)?;
    wire::expect_end(buf)?;
    Ok(header)
}

fn decode_round_id(payload: &[u8]) -> Result<u64, CollectorError> {
    let mut buf = payload;
    let id = get_varint(&mut buf)?;
    wire::expect_end(buf)?;
    Ok(id)
}
