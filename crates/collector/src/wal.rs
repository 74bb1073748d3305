//! Crash durability: the write-ahead report journal and its recovery.
//!
//! A daemon given a data directory ([`crate::CollectorServer::with_data_dir`])
//! journals every state-changing frame **before** acting on it: report
//! frames are appended verbatim ahead of the fold, lifecycle frames
//! (`OPEN`, `CLOSE`, `FINALIZE`) ahead of their `ACK`/`SUMMARY`. After a
//! crash — power loss, SIGKILL, a torn write mid-record — recovery
//! rebuilds every open round bit-identically by restoring the last
//! checkpoint record per round and replaying the journal tail on top
//! through the live daemon's own `server::apply_frame`, so rejects
//! (duplicates, quota, malformed entries) replay with the exact counter
//! moves of the original run. The journal segments are the only files
//! the data directory holds.
//!
//! A round's live history starts after its last `FINALIZE` record: a
//! finalized incarnation left no state, so its records — checkpoints
//! included — are skipped, and a round id reopened afterwards replays as
//! a fresh round.
//!
//! ## Journal format
//!
//! Segment files `wal-<seq>.ldpw`, each a 5-byte header
//! ([`journal::SEGMENT_MAGIC`] + version) followed by records framed by
//! the wire codec ([`wire::write_frame`]; kinds and payloads at
//! [`ldp_protocols::wire::journal`]), so every malformed byte sequence
//! decodes to a typed error and a torn record is detected by the same
//! end-of-stream logic as a half-written network frame. A **torn final
//! record** is a clean end of log: the live path appends before it folds,
//! so the record never acted. A torn record *followed by more segments*,
//! a bad magic or another segment version refuses with a typed
//! [`CollectorError::BadJournal`].
//!
//! ## Fsync policy
//!
//! [`FsyncPolicy`] trades durability for throughput. A process crash
//! (SIGKILL, abort, OOM-kill) loses nothing under any policy — written
//! bytes live in the page cache — while a **power cut** can drop or
//! reorder the pages no completed sync covered.
//!
//! * **Syncs under the journal guard:** `FINALIZE` and checkpoint records
//!   under every policy (a checkpoint lets segments be deleted; a lost
//!   `FINALIZE` would replay a consumed round as open); a due `OPEN` or
//!   `CLOSE` (each one under `Always`), before its reply; and rotation
//!   under `Always` and `EveryBytes`, so a torn tail stays in the last one.
//! * **After the guard drops:** the sync a `REC_BATCH` record owes, which
//!   `Journal::append` returns as a `SyncTicket` and the session runs
//!   before it reads its next frame. A sync covers every byte written
//!   before it started and raises the segment's `durable_upto` mark to
//!   that offset; a ticket the mark covers issues no sync, and one queued
//!   behind a running sync checks again when it returns — one `sync_data`
//!   serves every session whose records it covers (group commit). Append
//!   and fold stay under the guard, so journal order is fold order.
//!
//! What a power cut can lose: under `Always`, nothing acknowledged (a
//! batch record is durable before the session's next frame, so before
//! the `SYNC` after it is answered). Under `EveryBytes(n)`, the record
//! that brings the bytes since the last window to `n` or more owes the
//! window's sync, so a window is under `n` bytes plus that record, and
//! other sessions keep appending while its sync runs, each up to its own
//! due record: with `S` sessions appending, fewer than `S · (n + r)`
//! bytes, `r` the largest record (`n + r` for one session). Under `Off`,
//! whatever the OS has not flushed; recovery is then best-effort — a
//! cleanly torn tail lands on an earlier consistent state, holes refuse
//! as [`CollectorError::BadJournal`] (clear the data dir). The
//! `collector_smoke` bench prints each policy's ingest tax.
//!
//! ## Checkpoints
//!
//! A checkpoint of round `R` is one synced `REC_CHECKPOINT` record: `R`'s
//! id, then its `LDPK` snapshot ([`RoundCollector::checkpoint`]). It moves
//! `R`'s live start to its segment; every open round whose live start is
//! older is checkpointed too, the directory is synced, and the segments
//! before the record are deleted. Recovery restores `R` from its last
//! such record and replays the records after it; a torn one falls back to
//! the previous checkpoint, so the one write is crash-atomic. A durable
//! `OPEN` is refused when the snapshot could outgrow one record
//! (`check_snapshot_fits`).

use crate::error::CollectorError;
use crate::metrics::CollectorMetrics;
use crate::round::{RoundChannel, RoundCollector};
use crate::server::{apply_frame, frames, Frame, Session};
use ldp_obs::TraceEvent;
use ldp_protocols::wire::{self, get_varint, journal, put_varint, WireError};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// When the journal forces appended bytes to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Sync every record, a report batch's after the journal guard drops:
    /// a power cut loses nothing acknowledged. The durable default; also
    /// the slowest.
    Always,
    /// Sync once per `n` appended bytes and at segment rotation, a report
    /// batch's after the guard drops: a power cut loses fewer than
    /// `S · (n + r)` bytes, `S` sessions appending, `r` the largest record.
    EveryBytes(u64),
    /// Never sync on the append path, not even at rotation; checkpoint
    /// and `FINALIZE` records still sync under the guard.
    Off,
}

impl FsyncPolicy {
    /// Parses the operator spelling: `always`, `off`, or `every:<bytes>`
    /// (e.g. `every:1048576`).
    ///
    /// # Errors
    /// [`CollectorError::InvalidConfig`] on anything else.
    pub fn parse(s: &str) -> Result<Self, CollectorError> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "off" => Ok(FsyncPolicy::Off),
            _ => match s.strip_prefix("every:").map(str::parse::<u64>) {
                Some(Ok(n)) if n > 0 => Ok(FsyncPolicy::EveryBytes(n)),
                _ => Err(CollectorError::InvalidConfig {
                    detail: "fsync policy must be `always`, `off`, or `every:<bytes>`",
                }),
            },
        }
    }
}

/// Bytes a segment accumulates before the journal rotates to a new one.
pub const DEFAULT_SEGMENT_BYTES: u64 = 8 << 20;

/// What recovery rebuilt from a data directory.
#[derive(Debug)]
pub struct Recovery {
    /// Rounds open again after replay, ascending.
    pub rounds: Vec<u64>,
    /// Journal records re-applied (snapshot-superseded records are
    /// skipped and not counted).
    pub replayed_records: u64,
}

/// The durable plane a data-dir daemon shares among its sessions: one
/// journal behind a mutex. The mutex is the serialization point of the
/// durable path — an append and the engine mutation it covers happen
/// under one guard, so a checkpoint (which also takes the guard) can
/// never observe a fold whose record it does not cover.
#[derive(Debug)]
pub struct DurableLog {
    journal: Mutex<Journal>,
}

impl DurableLog {
    /// Opens the durable plane over `dir`: recovers every round the
    /// directory holds into `engine` (checkpoint records first, then the
    /// journal tail), starts a fresh journal segment, and checkpoints the
    /// recovered rounds into it so the next crash replays from here.
    ///
    /// # Errors
    /// I/O failures, [`CollectorError::BadJournal`] /
    /// [`CollectorError::BadCheckpoint`] on corrupt state, and admission
    /// refusals if a recovered round no longer fits `engine`'s caps.
    pub fn open(
        dir: &Path,
        policy: FsyncPolicy,
        engine: &RoundCollector,
    ) -> Result<(Self, Recovery), CollectorError> {
        std::fs::create_dir_all(dir)?;
        let (records, last_seq) = read_segments(dir)?;
        let per_round = apply_records(engine, &records)?;
        let replayed_records: u64 = per_round.values().sum();
        let rounds = engine.open_round_ids(); // ascending
        let metrics = engine.metrics();
        if metrics.active() {
            metrics.recovered_rounds.add(rounds.len() as u64);
            metrics.wal_replayed_frames.add(replayed_records);
            for &round in &rounds {
                metrics.emit(TraceEvent::RoundRecovered {
                    round,
                    replayed: per_round.get(&round).copied().unwrap_or(0),
                });
            }
            metrics.emit(TraceEvent::RecoveryComplete {
                rounds: rounds.len() as u64,
                replayed: replayed_records,
            });
        }
        let mut journal = Journal::create(dir, policy, last_seq + 1)?;
        // Crash-harness hook, armed *before* startup compaction so a
        // kill schedule can land inside recovery itself (the daemon
        // binary documents `LDP_WAL_KILL_AFTER_BYTES`; see
        // `tests/crash.rs`). Unset outside the harness.
        journal.kill_after = std::env::var("LDP_WAL_KILL_AFTER_BYTES")
            .ok()
            .and_then(|s| s.parse().ok());
        // Compact: checkpoint every recovered round into the new
        // segment, so the pre-crash segments are superseded and pruned —
        // repeated crash/restart cycles cannot grow the journal without
        // bound. Each round needs the old segments until its own record
        // is written, so one checkpoint writes them all. With no round
        // open nothing in them is needed.
        journal
            .live_since
            .extend(rounds.iter().map(|&round| (round, 0)));
        match rounds.first() {
            Some(&first) => journal.checkpoint_round(engine, first, metrics)?,
            None => journal.prune(),
        }
        let log = DurableLog {
            journal: Mutex::new(journal),
        };
        Ok((
            log,
            Recovery {
                rounds,
                replayed_records,
            },
        ))
    }

    /// Locks the journal for one durable operation (append + engine
    /// mutation under a single guard).
    pub fn lock(&self) -> MutexGuard<'_, Journal> {
        self.journal.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The segment being appended to, shared with the [`SyncTicket`]s its
/// report records hand out.
#[derive(Debug)]
struct Segment {
    file: File,
    /// The segment's end offset, header included; moved under the guard.
    written: AtomicU64,
    /// Every byte before this offset is durable: the group-commit mark,
    /// raised by each completed sync to the offset it started at.
    durable_upto: AtomicU64,
    /// Held while a ticket's sync runs, so the sessions queued behind it
    /// find their records covered when it returns.
    syncing: Mutex<()>,
}

impl Segment {
    fn create(dir: &Path, seq: u64) -> Result<Self, CollectorError> {
        let mut file = File::create(dir.join(format!("wal-{seq:016x}.ldpw")))?;
        file.write_all(&journal::SEGMENT_MAGIC)?;
        file.write_all(&[journal::SEGMENT_VERSION])?;
        Ok(Segment {
            file,
            written: AtomicU64::new(5),
            durable_upto: AtomicU64::new(0),
            syncing: Mutex::new(()),
        })
    }

    /// Forces the bytes written so far to stable storage (timed into
    /// `wal_fsync_nanos`), unless a completed sync already covers them.
    fn sync(&self, metrics: &CollectorMetrics) -> Result<(), CollectorError> {
        let upto = self.written.load(Ordering::Acquire);
        if self.durable_upto.load(Ordering::Acquire) >= upto {
            return Ok(());
        }
        let begin = metrics.active().then(Instant::now);
        self.file.sync_data()?;
        self.durable_upto.fetch_max(upto, Ordering::AcqRel);
        if let Some(begin) = begin {
            metrics
                .wal_fsync_nanos
                .observe(begin.elapsed().as_nanos() as u64);
        }
        Ok(())
    }
}

/// The sync a report record owes under the fsync policy, run by its
/// session after the journal guard drops and before it reads its next
/// frame: the segment, and the offset just past the record.
#[derive(Debug)]
pub(crate) struct SyncTicket(Arc<Segment>, u64);

impl SyncTicket {
    /// Returns once a completed sync covers the record: at once when one
    /// already has, else after the running sync, else after its own.
    ///
    /// # Errors
    /// Disk I/O failures; the record may not be durable.
    pub(crate) fn wait(&self, metrics: &CollectorMetrics) -> Result<(), CollectorError> {
        let SyncTicket(segment, end) = self;
        let covered = || segment.durable_upto.load(Ordering::Acquire) >= *end;
        if covered() {
            return Ok(());
        }
        let _running = segment
            .syncing
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if covered() {
            return Ok(());
        }
        segment.sync(metrics)
    }
}

/// The append side of the write-ahead journal. Obtain one via
/// [`DurableLog`]; all methods assume the caller holds the log's guard.
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    policy: FsyncPolicy,
    segment: Arc<Segment>,
    /// Sequence number of the segment currently appended to.
    seq: u64,
    /// Where the current sync window starts: every byte before it is
    /// durable or owed by a ticket.
    window_start: u64,
    rotate_bytes: u64,
    /// Per open round: the earliest segment still needed to recover it
    /// (its last checkpoint record's segment, or its `REC_OPEN`'s).
    /// Segments below the minimum are superseded and prunable.
    live_since: BTreeMap<u64, u64>,
    /// Fault hook: abort the process mid-write once this many total
    /// bytes have been appended, leaving a torn record on disk — how the
    /// crash harness pins torn-tail recovery (see `tests/crash.rs`).
    kill_after: Option<u64>,
    total_bytes: u64,
    frame_buf: Vec<u8>,
}

impl Journal {
    fn create(dir: &Path, policy: FsyncPolicy, seq: u64) -> Result<Self, CollectorError> {
        Ok(Journal {
            dir: dir.to_path_buf(),
            policy,
            segment: Arc::new(Segment::create(dir, seq)?),
            seq,
            window_start: 5,
            rotate_bytes: DEFAULT_SEGMENT_BYTES,
            live_since: BTreeMap::new(),
            kill_after: None,
            total_bytes: 0,
            frame_buf: Vec::new(),
        })
    }

    /// Appends one record (frame-coded) and applies the fsync policy.
    /// Report payloads are appended **verbatim and before decoding**, so
    /// replay re-derives every accept *and* reject decision from the
    /// same bytes the live path saw. `FINALIZE` and checkpoint records
    /// are synced whatever the policy, and a checkpoint record moves its
    /// round's live start to the segment it landed in — both before the
    /// append can rotate. A `REC_BATCH` record the policy owes a sync
    /// returns it as a ticket, for the caller to run once it drops the
    /// guard; every other sync runs here.
    ///
    /// # Errors
    /// Disk I/O failures; the record is not durable and the caller must
    /// not act on the frame.
    pub(crate) fn append(
        &mut self,
        kind: u8,
        payload: &[u8],
        metrics: &CollectorMetrics,
    ) -> Result<Option<SyncTicket>, CollectorError> {
        let mut buf = std::mem::take(&mut self.frame_buf);
        buf.clear();
        wire::write_frame(&mut buf, kind, payload)?;
        if let Some(limit) = self.kill_after {
            if self.total_bytes + buf.len() as u64 > limit {
                // Torn-write fault injection: persist a strict prefix of
                // the record, then die as abruptly as a power cut.
                let cut = limit.saturating_sub(self.total_bytes) as usize;
                let _ = (&self.segment.file).write_all(&buf[..cut.min(buf.len())]);
                let _ = self.segment.file.sync_data();
                std::process::abort();
            }
        }
        let n = buf.len() as u64;
        let write = (&self.segment.file).write_all(&buf);
        if kind != journal::REC_CHECKPOINT {
            // Reuse a batch-sized buffer; a snapshot-sized one is freed.
            self.frame_buf = buf;
        }
        write?;
        self.total_bytes += n;
        let end = self.segment.written.fetch_add(n, Ordering::Release) + n;
        if metrics.active() {
            metrics.wal_appended_bytes.add(n);
        }
        // `FINALIZE` and checkpoint records are synced under every policy,
        // before the reply leaves the socket and before `prune` deletes
        // what a checkpoint supersedes: a power cut that lost a `FINALIZE`
        // would replay a consumed round as still open, and one that lost
        // a checkpoint after the prune would lose its round.
        let forced = matches!(kind, journal::REC_FINALIZE | journal::REC_CHECKPOINT);
        let due = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryBytes(window) => end - self.window_start >= window,
            FsyncPolicy::Off => false,
        };
        let mut ticket = None;
        if due && kind == journal::REC_BATCH {
            self.window_start = end;
            ticket = Some(SyncTicket(Arc::clone(&self.segment), end));
        } else if forced || due {
            self.sync(metrics)?;
        }
        if let Ok(round) = get_varint(&mut &payload[..]) {
            if kind == journal::REC_FINALIZE {
                self.live_since.remove(&round);
            } else if kind == journal::REC_CHECKPOINT {
                self.live_since.insert(round, self.seq);
            } else {
                self.live_since.entry(round).or_insert(self.seq);
            }
        }
        if end >= self.rotate_bytes {
            // The rotation sync covers the ticket, which then runs none.
            self.rotate(metrics)?;
        }
        Ok(ticket)
    }

    /// Forces appended bytes to stable storage under the guard, closing
    /// the sync window.
    fn sync(&mut self, metrics: &CollectorMetrics) -> Result<(), CollectorError> {
        self.window_start = self.segment.written.load(Ordering::Relaxed);
        self.segment.sync(metrics)
    }

    /// Closes the current segment, synced first under every policy but
    /// [`FsyncPolicy::Off`] (rotation fsyncs were its dominant ingest
    /// tax), and opens the next.
    fn rotate(&mut self, metrics: &CollectorMetrics) -> Result<(), CollectorError> {
        if self.policy != FsyncPolicy::Off {
            self.sync(metrics)?;
        }
        self.seq += 1;
        self.segment = Arc::new(Segment::create(&self.dir, self.seq)?);
        self.window_start = 5;
        Ok(())
    }

    /// Snapshots `round_id` into one `REC_CHECKPOINT` record, which
    /// supersedes its journal prefix, checkpoints every round that still
    /// pins a segment before that record, then deletes the segments
    /// before it. See the module docs for why the single record is
    /// crash-atomic.
    ///
    /// # Errors
    /// [`CollectorError::UnknownRound`] when no round has this id; disk
    /// I/O failures.
    pub fn checkpoint_round(
        &mut self,
        engine: &RoundCollector,
        round_id: u64,
        metrics: &CollectorMetrics,
    ) -> Result<(), CollectorError> {
        // The record lands in this segment. A round pinning older ones
        // would keep its predecessors on disk, one snapshot more per
        // checkpoint without bound, so that round is checkpointed too.
        let since = self.seq;
        let pinning = (self.live_since.iter())
            .filter_map(|(&round, &s)| (s < since && round != round_id).then_some(round));
        let rounds: Vec<u64> = std::iter::once(round_id).chain(pinning).collect();
        for (i, round) in rounds.into_iter().enumerate() {
            let mut record = Vec::new();
            put_varint(round, &mut record);
            match engine.checkpoint(round, &mut record) {
                // A round the engine never admitted (a stray batch named
                // it) has nothing to recover.
                Err(CollectorError::UnknownRound { .. }) if i > 0 => {
                    self.live_since.remove(&round);
                    continue;
                }
                result => result?,
            }
            self.append(journal::REC_CHECKPOINT, &record, metrics)?;
        }
        self.prune();
        Ok(())
    }

    /// Deletes segments wholly superseded by checkpoints (every round's
    /// `live_since` is past them), after syncing the directory so the
    /// segments that supersede them cannot be lost while the unlinks
    /// survive a power cut. Best-effort: a failed sync or unlink costs
    /// disk, never correctness.
    fn prune(&mut self) {
        let min_live = self.live_since.values().fold(self.seq, |m, &s| m.min(s));
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        let doomed: Vec<PathBuf> = (entries.flatten())
            .filter(|e| segment_seq(&e.file_name().to_string_lossy()).is_some_and(|s| s < min_live))
            .map(|e| e.path())
            .collect();
        if doomed.is_empty() || File::open(&self.dir).and_then(|d| d.sync_all()).is_err() {
            return;
        }
        for path in doomed {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Refuses, as a [`CollectorError::GroupCap`], a round whose snapshot
/// could outgrow one record ([`wire::MAX_FRAME_LEN`]). Only a
/// degree-vector round can: no cap bounds its `N/8` seen-bitmap bytes
/// and `shards · groups` sums together, and the rest of a record is
/// under 128 bytes per shard plus 128. (An adjacency snapshot is at
/// most ≈ 33 MB, at the wire view cap.)
pub(crate) fn check_snapshot_fits(
    channel: &RoundChannel,
    shards: usize,
) -> Result<(), CollectorError> {
    let RoundChannel::DegreeVector { population, groups } = *channel else {
        return Ok(());
    };
    let fixed = population as u64 / 8 + 128 * (shards as u64 + 1);
    let cap = (wire::MAX_FRAME_LEN as u64).saturating_sub(fixed) / (8 * shards as u64);
    if groups as u64 > cap {
        return Err(CollectorError::GroupCap {
            requested: groups,
            cap: cap as usize,
        });
    }
    Ok(())
}

fn segment_seq(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("wal-")?.strip_suffix(".ldpw")?;
    u64::from_str_radix(hex, 16).ok()
}

/// One journal record as read back from disk.
struct Rec {
    kind: u8,
    payload: Vec<u8>,
}

/// Reads every segment in order into records, tolerating a torn tail on
/// the **last** segment only. Returns the records and the highest
/// segment sequence seen (`0` for an empty directory).
fn read_segments(dir: &Path) -> Result<(Vec<Rec>, u64), CollectorError> {
    let mut segments: Vec<(u64, PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(dir)?.flatten() {
        let name = entry.file_name();
        if let Some(seq) = segment_seq(&name.to_string_lossy()) {
            segments.push((seq, entry.path()));
        }
    }
    segments.sort_unstable_by_key(|(seq, _)| *seq);
    let last_seq = segments.last().map(|(seq, _)| *seq).unwrap_or(0);
    let mut records = Vec::new();
    let total = segments.len();
    for (i, (_, path)) in segments.into_iter().enumerate() {
        let is_last = i + 1 == total;
        let bytes = std::fs::read(&path)?;
        if bytes.len() < 5 {
            // A header torn mid-creation: only tolerable at the very end
            // of the log, where it reads as an empty final segment.
            if is_last {
                continue;
            }
            return Err(CollectorError::BadJournal {
                detail: "torn segment header followed by more segments",
            });
        }
        if bytes[..4] != journal::SEGMENT_MAGIC {
            return Err(CollectorError::BadJournal {
                detail: "bad segment magic",
            });
        }
        if bytes[4] != journal::SEGMENT_VERSION {
            return Err(CollectorError::BadJournal {
                detail: "unsupported segment version",
            });
        }
        let mut cursor = &bytes[5..];
        let mut payload = Vec::new();
        loop {
            match wire::read_frame(&mut cursor, &mut payload) {
                Ok(None) => break,
                Ok(Some(kind)) => {
                    if !matches!(
                        kind,
                        journal::REC_OPEN
                            | journal::REC_BATCH
                            | journal::REC_CLOSE
                            | journal::REC_FINALIZE
                            | journal::REC_CHECKPOINT
                    ) {
                        return Err(CollectorError::BadJournal {
                            detail: "unknown record kind",
                        });
                    }
                    records.push(Rec {
                        kind,
                        payload: std::mem::take(&mut payload),
                    });
                }
                Err(WireError::Io(std::io::ErrorKind::UnexpectedEof)) => {
                    // A record torn by the crash. Fine at the end of the
                    // log (the append never completed, so nothing acted
                    // on it); anywhere else it is corruption.
                    if is_last {
                        break;
                    }
                    return Err(CollectorError::BadJournal {
                        detail: "torn record followed by more segments",
                    });
                }
                Err(_) => {
                    return Err(CollectorError::BadJournal {
                        detail: "malformed record framing",
                    });
                }
            }
        }
    }
    Ok((records, last_seq))
}

/// Replays `records` into `engine`. Per round, the live history starts
/// just past its last `REC_FINALIZE` (an earlier incarnation left no
/// state), or at its last `REC_CHECKPOINT` after that, whose snapshot is
/// restored; every later record re-runs through [`apply_frame`] with a
/// replay session. Returns per-round applied-record counts.
fn apply_records(
    engine: &RoundCollector,
    records: &[Rec],
) -> Result<BTreeMap<u64, u64>, CollectorError> {
    // Pass 1: where each round's live history starts, and the snapshot
    // when that start is a checkpoint record.
    let mut start: BTreeMap<u64, (usize, Option<&[u8]>)> = BTreeMap::new();
    for (i, rec) in records.iter().enumerate() {
        let mut buf = rec.payload.as_slice();
        match rec.kind {
            journal::REC_FINALIZE => {
                if let Ok(round) = get_varint(&mut buf) {
                    start.insert(round, (i, None));
                }
            }
            journal::REC_CHECKPOINT => {
                // Never skipped: the records it superseded may be gone.
                let round = get_varint(&mut buf).map_err(|_| CollectorError::BadJournal {
                    detail: "malformed checkpoint record",
                })?;
                start.insert(round, (i, Some(buf)));
            }
            _ => {}
        }
    }
    // Restore each checkpointed round — its state at that record.
    for (&round, &(_, snapshot)) in &start {
        let Some(mut snapshot) = snapshot else {
            continue;
        };
        if engine.resume_round_into(&mut snapshot)? != round {
            return Err(CollectorError::BadJournal {
                detail: "snapshot round id disagrees with its record",
            });
        }
    }
    // Pass 2: apply everything after each round's start, in order,
    // through the live frame path — identical accept/reject decisions,
    // identical counter moves. One session for the whole log keeps
    // warn-once and the fold-sampling cadence those of a single client.
    let mut session = Session::replay();
    let mut applied: BTreeMap<u64, u64> = BTreeMap::new();
    for (i, rec) in records.iter().enumerate() {
        let Ok(round) = get_varint(&mut rec.payload.as_slice()) else {
            // The live path could not even attribute this payload to a
            // round; it changed nothing then and changes nothing now.
            continue;
        };
        if start.get(&round).is_some_and(|&(s, _)| i <= s) {
            continue;
        }
        let kind = match rec.kind {
            journal::REC_OPEN => frames::OPEN,
            journal::REC_BATCH => frames::REPORT_BATCH,
            journal::REC_CLOSE => frames::CLOSE,
            // Every FINALIZE and checkpoint record sits at or before its
            // round's start, so none gets here.
            _ => continue,
        };
        let outcome = apply_frame(engine, &mut session, None, kind, &rec.payload);
        if let (frames::OPEN, Frame::Refused(e)) = (kind, outcome) {
            // The live open succeeded; refusing it now means this
            // engine's caps no longer admit the round — say so rather
            // than drop its reports.
            return Err(e);
        }
        *applied.entry(round).or_insert(0) += 1;
    }
    Ok(applied)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round::{CollectorConfig, RoundOutcome};
    use crate::server::process_frame;
    use ldp_protocols::UserReport;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ldp-wal-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    fn config() -> CollectorConfig {
        CollectorConfig {
            shards: 2,
            ..CollectorConfig::default()
        }
    }

    fn engine() -> RoundCollector {
        RoundCollector::new(config()).expect("engine")
    }

    /// Bytes of the current segment no completed sync covers.
    fn unsynced(journal: &Journal) -> u64 {
        let segment = &journal.segment;
        let written = segment.written.load(Ordering::Acquire);
        written.saturating_sub(segment.durable_upto.load(Ordering::Acquire))
    }

    /// Applies an OPEN + a batch of degree vectors through the durable
    /// frame path, exactly as a live session would.
    fn journal_round(
        journal: &mut Journal,
        eng: &RoundCollector,
        round: u64,
        n: usize,
        upto: usize,
    ) {
        let mut open = Vec::new();
        put_varint(round, &mut open);
        put_varint(0, &mut open); // tenant
        open.push(1); // degree-vector tag
        put_varint(n as u64, &mut open);
        put_varint(2, &mut open); // groups
        put_varint(0, &mut open); // quota default
        let entries: Vec<(u64, UserReport)> = (0..upto as u64)
            .map(|u| (u, UserReport::DegreeVector(vec![1.0, u as f64])))
            .collect();
        let mut batch = Vec::new();
        wire::encode_routed_batch(round, &entries, &mut batch);
        for (kind, payload) in [(frames::OPEN, open), (frames::REPORT_BATCH, batch)] {
            let outcome = apply_frame(eng, &mut Session::default(), Some(journal), kind, &payload);
            assert!(matches!(outcome, Frame::Continue), "frame {kind:#04x}");
        }
        assert_eq!(eng.counters(round).expect("counters").accepted, upto as u64);
    }

    /// Group commit through the live frame path: two sessions on two
    /// threads upload report batches to one round, and the syncs their
    /// records owe run after the journal guard drops.
    #[test]
    fn report_batch_syncs_run_after_the_guard_and_cover_every_session() {
        const FRAMES: u64 = 24;
        let batch = |user: u64| {
            let mut payload = Vec::new();
            let entries = [(user, UserReport::DegreeVector(vec![1.0, user as f64]))];
            wire::encode_routed_batch(2, &entries, &mut payload);
            payload
        };
        // Every payload has the same length: ids < 128 are one byte.
        let record = 5 + batch(0).len() as u64;
        for policy in [FsyncPolicy::Always, FsyncPolicy::EveryBytes(3 * record)] {
            let dir = scratch_dir("group-commit");
            let eng = engine();
            let (log, _) = DurableLog::open(&dir, policy, &eng).expect("open");
            let mut open = Vec::new();
            for varint in [2, 0, 1, 2 * FRAMES + 2, 2, 0] {
                put_varint(varint, &mut open); // round, tenant, tag, N, groups, quota
            }
            let mut session = Session::default();
            let opened = process_frame(&mut session, &eng, Some(&log), frames::OPEN, &open);
            assert!(matches!(opened, Frame::Continue));
            let (segment, path) = {
                let journal = log.lock();
                let path = dir.join(format!("wal-{:016x}.ldpw", journal.seq));
                (Arc::clone(&journal.segment), path)
            };
            let fsyncs = || eng.metrics().wal_fsync_nanos.count();
            let upload = |user: u64| {
                let payload = batch(user);
                let mut session = Session::default();
                let frame = process_frame(
                    &mut session,
                    &eng,
                    Some(&log),
                    frames::REPORT_BATCH,
                    &payload,
                );
                assert!(matches!(frame, Frame::Continue), "user {user}");
                payload
            };
            if policy == FsyncPolicy::Always {
                // Both records are written while a sync holds the lock,
                // so the first ticket's sync covers the second record,
                // whose ticket then issues none.
                let running = segment.syncing.lock().expect("sync lock");
                let before = fsyncs();
                let end = segment.written.load(Ordering::Acquire) + 2 * record;
                std::thread::scope(|scope| {
                    let sessions =
                        [2 * FRAMES, 2 * FRAMES + 1].map(|u| scope.spawn(move || upload(u)));
                    while segment.written.load(Ordering::Acquire) < end {
                        std::thread::yield_now();
                    }
                    drop(running);
                    for session in sessions {
                        session.join().expect("session");
                    }
                });
                assert_eq!(fsyncs(), before + 1, "a covered ticket ran its own sync");
            }
            std::thread::scope(|scope| {
                for t in 0..2 {
                    let (segment, path, upload, log) = (&segment, &path, &upload, &log);
                    scope.spawn(move || {
                        for user in t * FRAMES..(t + 1) * FRAMES {
                            let payload = upload(user);
                            let durable = segment.durable_upto.load(Ordering::Acquire);
                            if let FsyncPolicy::EveryBytes(n) = policy {
                                // Bytes no sync has claimed stay under one
                                // window and a record; the unsynced bytes
                                // under that bound per session.
                                let journal = log.lock();
                                let end = journal.segment.written.load(Ordering::Acquire);
                                assert!(end - journal.window_start < n + record);
                                assert!(end - durable < 2 * (n + record), "user {user}");
                                continue;
                            }
                            // The record lies in the prefix a sync covered.
                            let bytes = std::fs::read(path).expect("read segment");
                            let mut prefix = bytes.get(5..durable as usize).unwrap_or_default();
                            let (mut found, mut rec) = (false, Vec::new());
                            while let Ok(Some(kind)) = wire::read_frame(&mut prefix, &mut rec) {
                                found |= kind == journal::REC_BATCH && rec == payload;
                            }
                            assert!(found, "user {user} returned before its record was durable");
                        }
                    });
                }
            });
            let accepted = eng.counters(2).expect("counters").accepted;
            assert_eq!(
                accepted,
                2 * FRAMES + 2 * u64::from(policy == FsyncPolicy::Always)
            );
            drop(log);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn fsync_policy_parses_the_operator_spellings() {
        assert_eq!(FsyncPolicy::parse("always").unwrap(), FsyncPolicy::Always);
        assert_eq!(FsyncPolicy::parse("off").unwrap(), FsyncPolicy::Off);
        assert_eq!(
            FsyncPolicy::parse("every:4096").unwrap(),
            FsyncPolicy::EveryBytes(4096)
        );
        for bad in ["", "sometimes", "every:", "every:0", "every:x"] {
            assert!(matches!(
                FsyncPolicy::parse(bad),
                Err(CollectorError::InvalidConfig { .. })
            ));
        }
    }

    #[test]
    fn replay_rebuilds_the_round_bit_identically() {
        let dir = scratch_dir("replay");
        let n = 24;
        {
            let eng = engine();
            let (log, recovery) =
                DurableLog::open(&dir, FsyncPolicy::Always, &eng).expect("fresh open");
            assert!(recovery.rounds.is_empty());
            let mut journal = log.lock();
            journal_round(&mut journal, &eng, 7, n, 15);
            // A batch misdirected at a round that never opened: journaled
            // ahead of its fold, refused live with one typed ERR.
            let mut stray = Vec::new();
            let entries = [(0, UserReport::DegreeVector(vec![1.0, 0.0]))];
            wire::encode_routed_batch(99, &entries, &mut stray);
            apply_frame(
                &eng,
                &mut Session::default(),
                Some(&mut journal),
                frames::REPORT_BATCH,
                &stray,
            );
            assert_eq!(eng.metrics().errs.iter().map(|c| c.get()).sum::<u64>(), 1);
            // No clean shutdown: the journal is simply dropped, as a
            // SIGKILL would leave it.
        }
        let eng = engine();
        let (_log, recovery) = DurableLog::open(&dir, FsyncPolicy::Always, &eng).expect("recover");
        assert_eq!(recovery.rounds, vec![7]);
        assert!(recovery.replayed_records >= 3);
        // Replay re-made the refusal but counted it as no live traffic:
        // no client sent these frames to this process.
        let m = eng.metrics();
        assert!(m.errs.iter().all(|c| c.get() == 0));
        assert_eq!(m.batches_decoded.get(), 0);
        assert_eq!(m.reports_folded(), 15);
        // Finish the round and compare with an uninterrupted run.
        for u in 15..n as u64 {
            eng.ingest(7, u, UserReport::DegreeVector(vec![1.0, u as f64]))
                .expect("resume ingest");
        }
        let counters = eng.close_round(7).expect("close");
        assert_eq!(counters.accepted, n as u64);
        let RoundOutcome::DegreeVector {
            group_totals,
            accepted,
        } = eng.finalize(7).expect("finalize")
        else {
            panic!("degree-vector outcome expected");
        };
        assert_eq!(accepted, n as u64);
        let expected: f64 = (0..n as u64).map(|u| u as f64).sum();
        assert_eq!(group_totals, vec![n as f64, expected]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_marker_supersedes_the_prefix_and_prunes() {
        let dir = scratch_dir("supersede");
        {
            let eng = engine();
            let (log, _) = DurableLog::open(&dir, FsyncPolicy::Off, &eng).expect("open");
            let mut journal = log.lock();
            journal.rotate_bytes = 64; // force rotation every few records
            journal_round(&mut journal, &eng, 3, 16, 10);
            journal
                .checkpoint_round(&eng, 3, eng.metrics())
                .expect("checkpoint");
            // Everything before the record now lives in its snapshot;
            // earlier segments are gone.
            let segments: Vec<u64> = std::fs::read_dir(&dir)
                .expect("read dir")
                .flatten()
                .filter_map(|e| segment_seq(&e.file_name().to_string_lossy()))
                .collect();
            assert!(
                segments.iter().all(|&s| s >= journal.live_since[&3]),
                "superseded segments survived prune: {segments:?}"
            );
        }
        let eng = engine();
        let (_log, recovery) = DurableLog::open(&dir, FsyncPolicy::Off, &eng).expect("recover");
        assert_eq!(recovery.rounds, vec![3]);
        // The replay skipped the superseded records: state comes from
        // the snapshot alone.
        assert_eq!(recovery.replayed_records, 0);
        let counters = eng.counters(3).expect("counters");
        assert_eq!(counters.accepted, 10);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn finalize_record_is_durable_before_its_snapshot_is_deleted() {
        let dir = scratch_dir("finalize-sync");
        let eng = engine();
        // `Off` never syncs on the append path, so only the FINALIZE
        // rule itself can make the record durable.
        let (log, _) = DurableLog::open(&dir, FsyncPolicy::Off, &eng).expect("open");
        let mut journal = log.lock();
        journal_round(&mut journal, &eng, 5, 4, 4);
        journal
            .checkpoint_round(&eng, 5, eng.metrics())
            .expect("checkpoint");
        let mut finalize = Vec::new();
        put_varint(5, &mut finalize);
        journal
            .append(journal::REC_FINALIZE, &finalize, eng.metrics())
            .expect("append");
        assert_eq!(
            unsynced(&journal),
            0,
            "the snapshot was deleted ahead of a durable FINALIZE record"
        );
        drop(journal);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_a_clean_end_but_torn_middle_refuses() {
        let dir = scratch_dir("torn");
        {
            let eng = engine();
            let (log, _) = DurableLog::open(&dir, FsyncPolicy::Off, &eng).expect("open");
            journal_round(&mut log.lock(), &eng, 9, 16, 12);
        }
        // Tear the (single) segment's tail: recovery lands on the state
        // the surviving prefix proves, whatever the cut point.
        let seg = std::fs::read_dir(&dir)
            .expect("read dir")
            .flatten()
            .find(|e| segment_seq(&e.file_name().to_string_lossy()).is_some())
            .expect("segment")
            .path();
        let intact = std::fs::read(&seg).expect("read segment");
        std::fs::write(&seg, &intact[..intact.len() - 7]).expect("tear");
        let eng = engine();
        let (_, recovery) = DurableLog::open(&dir, FsyncPolicy::Off, &eng).expect("torn recover");
        assert_eq!(recovery.rounds, vec![9]);
        // A torn record *followed by another segment* is corruption, and
        // so is a record of the reserved kind 0x02 (the retired singleton
        // report), even as the final record.
        let mut reserved = intact.clone();
        wire::write_frame(&mut reserved, 0x02, &[9, 0]).expect("frame");
        let corrupt: [&[(&str, &[u8])]; 2] = [
            &[
                ("wal-0000000000000001.ldpw", &intact[..intact.len() - 7]),
                ("wal-0000000000000002.ldpw", &intact),
            ],
            &[("wal-0000000000000001.ldpw", &reserved)],
        ];
        let dir2 = scratch_dir("torn-mid");
        for segments in corrupt {
            let _ = std::fs::remove_dir_all(&dir2);
            std::fs::create_dir_all(&dir2).expect("create dir");
            for (name, bytes) in segments {
                std::fs::write(dir2.join(name), bytes).expect("write segment");
            }
            assert!(matches!(
                DurableLog::open(&dir2, FsyncPolicy::Off, &engine()),
                Err(CollectorError::BadJournal { .. })
            ));
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
    }

    /// The data directory's file names, sorted.
    fn dir_files(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .expect("read dir")
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn a_torn_tail_with_no_open_round_survives_two_restarts() {
        let dir = scratch_dir("torn-no-round");
        {
            let eng = engine();
            let (log, _) = DurableLog::open(&dir, FsyncPolicy::Off, &eng).expect("open");
            journal_round(&mut log.lock(), &eng, 9, 16, 12);
        }
        // Only a torn OPEN survives: no round is open after recovery,
        // and the torn segment must not outlive the restart that read it.
        let seg = dir.join("wal-0000000000000001.ldpw");
        let intact = std::fs::read(&seg).expect("read segment");
        std::fs::write(&seg, &intact[..8]).expect("tear");
        for restart in 0..2 {
            let eng = engine();
            let (_log, recovery) = DurableLog::open(&dir, FsyncPolicy::Off, &eng)
                .unwrap_or_else(|e| panic!("restart {restart}: {e}"));
            assert!(recovery.rounds.is_empty());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_checkpoint_that_rotates_the_segment_survives_restart() {
        let dir = scratch_dir("checkpoint-rotates");
        {
            let eng = engine();
            let (log, _) = DurableLog::open(&dir, FsyncPolicy::Always, &eng).expect("open");
            let mut journal = log.lock();
            journal_round(&mut journal, &eng, 3, 16, 10);
            // The checkpoint record's own append crosses the rotation
            // threshold, so the journal moves on to a new segment.
            journal.rotate_bytes = journal.segment.written.load(Ordering::Relaxed) + 1;
            journal
                .checkpoint_round(&eng, 3, eng.metrics())
                .expect("checkpoint");
            assert!(journal.live_since[&3] < journal.seq, "the append rotated");
            let files = dir_files(&dir);
            assert!(
                files.iter().all(|f| segment_seq(f).is_some()),
                "a checkpoint left a file other than a segment: {files:?}"
            );
        }
        let eng = engine();
        let (_log, recovery) = DurableLog::open(&dir, FsyncPolicy::Always, &eng).expect("recover");
        assert_eq!(recovery.rounds, vec![3]);
        assert_eq!(eng.counters(3).expect("counters").accepted, 10);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_snapshot_record_falls_back_to_the_previous_one() {
        // Crash window: the second checkpoint record of round 4 is half
        // written. Recovery must restore the first (6 accepted), not
        // whatever the torn one would have held (9).
        let dir = scratch_dir("torn-snapshot");
        {
            let eng = engine();
            let (log, _) = DurableLog::open(&dir, FsyncPolicy::Off, &eng).expect("open");
            let mut journal = log.lock();
            journal_round(&mut journal, &eng, 4, 16, 6);
            journal
                .checkpoint_round(&eng, 4, eng.metrics())
                .expect("checkpoint");
            assert_eq!(unsynced(&journal), 0, "a checkpoint syncs under `Off`");
            for u in 6..9u64 {
                eng.ingest(4, u, UserReport::DegreeVector(vec![1.0, u as f64]))
                    .expect("ingest");
            }
            let mut record = Vec::new();
            put_varint(4, &mut record);
            eng.checkpoint(4, &mut record).expect("snapshot");
            let mut frame = Vec::new();
            wire::write_frame(&mut frame, journal::REC_CHECKPOINT, &record).expect("frame");
            (&journal.segment.file)
                .write_all(&frame[..frame.len() / 2])
                .expect("torn append");
        }
        let eng = engine();
        let (_log, recovery) = DurableLog::open(&dir, FsyncPolicy::Off, &eng).expect("recover");
        assert_eq!(recovery.rounds, vec![4]);
        assert_eq!(eng.counters(4).expect("counters").accepted, 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn repeated_checkpoints_while_another_round_stays_open_stay_bounded() {
        let dir = scratch_dir("retention");
        {
            let eng = engine();
            let (log, _) = DurableLog::open(&dir, FsyncPolicy::Off, &eng).expect("open");
            let mut journal = log.lock();
            journal.rotate_bytes = 64; // every record rotates
            journal_round(&mut journal, &eng, 3, 16, 5);
            journal_round(&mut journal, &eng, 4, 16, 6);
            // A stray batch names a round the engine never admitted.
            let mut stray = Vec::new();
            let entries = [(0, UserReport::DegreeVector(vec![1.0, 0.0]))];
            wire::encode_routed_batch(99, &entries, &mut stray);
            let mut session = Session::default();
            apply_frame(
                &eng,
                &mut session,
                Some(&mut journal),
                frames::REPORT_BATCH,
                &stray,
            );
            for u in 6..12u64 {
                eng.ingest(4, u, UserReport::DegreeVector(vec![1.0, u as f64]))
                    .expect("ingest");
                journal
                    .checkpoint_round(&eng, 4, eng.metrics())
                    .expect("checkpoint");
                // Round 3 never checkpoints itself, yet only the latest
                // snapshot of each round is kept.
                let (records, _) = read_segments(&dir).expect("read journal");
                let snapshots = records
                    .iter()
                    .filter(|r| r.kind == journal::REC_CHECKPOINT)
                    .count();
                assert_eq!(snapshots, 2, "after checkpoint {u}");
            }
        }
        let eng = engine();
        let (_log, recovery) = DurableLog::open(&dir, FsyncPolicy::Off, &eng).expect("recover");
        assert_eq!(recovery.rounds, vec![3, 4]);
        assert_eq!(eng.counters(3).expect("counters").accepted, 5);
        assert_eq!(eng.counters(4).expect("counters").accepted, 12);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_durable_open_whose_snapshot_outgrows_one_record_is_refused() {
        let dir = scratch_dir("snapshot-cap");
        let open = |round: u64, groups: u64| {
            let mut open = Vec::new();
            put_varint(round, &mut open);
            put_varint(0, &mut open); // tenant
            open.push(1); // degree-vector tag
            put_varint(1 << 10, &mut open);
            put_varint(groups, &mut open);
            put_varint(0, &mut open); // quota default
            open
        };
        let eng = RoundCollector::new(CollectorConfig {
            shards: 128,
            ..CollectorConfig::default()
        })
        .expect("engine");
        let (log, _) = DurableLog::open(&dir, FsyncPolicy::Off, &eng).expect("open");
        let mut journal = log.lock();
        // 128 shards × 65,536 groups × 8 bytes of sums is the whole
        // 64 MiB frame before any header.
        let mut session = Session::default();
        match apply_frame(
            &eng,
            &mut session,
            Some(&mut journal),
            frames::OPEN,
            &open(1, 1 << 16),
        ) {
            Frame::Refused(CollectorError::GroupCap { requested, cap }) => {
                assert_eq!(requested, 1 << 16);
                assert!(cap < 1 << 16);
            }
            _ => panic!("a 64 MiB snapshot was not refused with GroupCap"),
        }
        assert!(eng.open_round_ids().is_empty());
        assert!(read_segments(&dir).expect("read journal").0.is_empty());
        let outcome = apply_frame(
            &eng,
            &mut session,
            Some(&mut journal),
            frames::OPEN,
            &open(2, 64),
        );
        assert!(matches!(outcome, Frame::Continue));
        drop(journal);
        // A replayed `OPEN` is checked too: 2 shards hold 65,536 groups
        // in one record, so a restart with 128 refuses before compaction.
        let _ = std::fs::remove_dir_all(&dir);
        {
            let eng = engine(); // 2 shards
            let (log, _) = DurableLog::open(&dir, FsyncPolicy::Off, &eng).expect("open");
            let mut journal = log.lock();
            let outcome = apply_frame(
                &eng,
                &mut Session::default(),
                Some(&mut journal),
                frames::OPEN,
                &open(3, 1 << 16),
            );
            assert!(matches!(outcome, Frame::Continue));
        }
        assert!(matches!(
            DurableLog::open(&dir, FsyncPolicy::Off, &eng),
            Err(CollectorError::GroupCap { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
        // The check's per-shard slack holds for real records, with every
        // varint of the header at its widest.
        for (n, groups, shards) in [(1, 1, 1), (100, 3, 7), (1000, 50, 2), (4096, 1, 64)] {
            let eng = RoundCollector::new(CollectorConfig {
                shards,
                ..CollectorConfig::default()
            })
            .expect("engine");
            let channel = RoundChannel::DegreeVector {
                population: n,
                groups,
            };
            eng.open_round_as(u64::MAX, u64::MAX, channel, Some(u64::MAX))
                .expect("open");
            let mut record = Vec::new();
            put_varint(u64::MAX, &mut record);
            eng.checkpoint(u64::MAX, &mut record).expect("snapshot");
            let bound = n / 8 + 128 * (shards + 1) + 8 * shards * groups;
            assert!(
                record.len() < bound, // the frame adds one kind byte
                "{n} users, {groups} groups, {shards} shards"
            );
        }
    }

    #[test]
    fn corrupt_checkpoints_and_old_segments_refuse_typed() {
        let dir = scratch_dir("refusals");
        let eng = engine();
        let snapshot = {
            let (log, _) = DurableLog::open(&dir, FsyncPolicy::Off, &eng).expect("open");
            journal_round(&mut log.lock(), &eng, 3, 16, 10);
            let mut snapshot = Vec::new();
            eng.checkpoint(3, &mut snapshot).expect("snapshot");
            snapshot
        };
        let segment = |version: u8, payload: &[u8]| {
            let mut bytes = journal::SEGMENT_MAGIC.to_vec();
            bytes.push(version);
            wire::write_frame(&mut bytes, journal::REC_CHECKPOINT, payload).expect("frame");
            bytes
        };
        let with_id = |round: u64, snapshot: &[u8]| {
            let mut payload = Vec::new();
            put_varint(round, &mut payload);
            payload.extend_from_slice(snapshot);
            payload
        };
        let current = journal::SEGMENT_VERSION;
        let cases: [(Vec<u8>, &str); 4] = [
            // A version-1 segment: its markers carried an epoch.
            (segment(1, &[3, 1]), "unsupported segment version"),
            // The round id itself does not parse: never a silent skip.
            (segment(current, &[0x80]), "malformed checkpoint record"),
            (segment(current, &with_id(3, b"LDPKjunk")), "bad checkpoint"),
            (
                segment(current, &with_id(4, &snapshot)),
                "snapshot round id disagrees with its record",
            ),
        ];
        for (bytes, expected) in cases {
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("create dir");
            std::fs::write(dir.join("wal-0000000000000001.ldpw"), bytes).expect("write");
            match DurableLog::open(&dir, FsyncPolicy::Off, &engine()) {
                Err(CollectorError::BadJournal { detail }) => assert_eq!(detail, expected),
                Err(CollectorError::BadCheckpoint { .. }) => assert_eq!(expected, "bad checkpoint"),
                other => panic!("{expected}: refused as {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
