//! Crash durability: the write-ahead report journal and its recovery.
//!
//! A daemon given a data directory ([`crate::CollectorServer::with_data_dir`])
//! journals every state-changing frame **before** acting on it: report
//! frames are appended verbatim ahead of the fold, lifecycle frames
//! (`OPEN`, `CLOSE`, `FINALIZE`) ahead of their `ACK`/`SUMMARY`. After a
//! crash — power loss, SIGKILL, a torn write mid-record — recovery
//! rebuilds every open round bit-identically by reloading the last
//! checkpoint snapshot per round and replaying the journal tail on top
//! through the live daemon's own `server::apply_frame`, so rejects
//! (duplicates, quota, malformed entries) replay with the exact counter
//! moves of the original run.
//!
//! A round's live history starts after its last `FINALIZE` record: a
//! finalized incarnation left no state, so its records — and any
//! checkpoint marker it wrote, whose snapshot the finalize deleted — are
//! skipped, and a round id reopened afterwards replays as a fresh round.
//!
//! ## Journal format
//!
//! The journal is a sequence of segment files `wal-<seq>.ldpw`, each a
//! 5-byte header ([`journal::SEGMENT_MAGIC`] + version) followed by
//! records framed by the wire codec ([`wire::write_frame`]): 4-byte
//! little-endian length, record kind byte, payload. Record kinds and
//! payloads are documented at [`ldp_protocols::wire::journal`]. Reusing
//! the frame codec buys the journal the codec's totality discipline for
//! free: every malformed byte sequence decodes to a typed error, never a
//! panic, and a record torn by a crash is detected by the same
//! end-of-stream logic that detects a half-written network frame.
//!
//! A **torn final record** — the crash hit mid-append — is treated as a
//! clean end of log: the record never reached the fold on the live path
//! either (the append happens first), so dropping it recovers the exact
//! pre-crash state. A torn record *followed by more segments*, or a bad
//! magic, is real corruption and refuses with a typed
//! [`CollectorError::BadJournal`] rather than guessing.
//!
//! ## Fsync policy
//!
//! [`FsyncPolicy`] sets the durability/throughput trade: `Always` syncs
//! every append (no crash loses anything), `EveryBytes(n)` syncs once
//! per `n` appended bytes and at segment rotation (power-cut loss is
//! bounded to the unsynced window), `Off` never syncs on the append path
//! at all. The distinction that matters is *which* crash: a process
//! crash (SIGKILL, abort, OOM-kill) loses nothing under any policy —
//! written bytes live in the OS page cache, which survives the process —
//! while a **power cut** can drop or reorder unsynced pages, so under
//! `Off` recovery after power loss is best-effort: it lands on a
//! consistent earlier state when the tail tore cleanly, and refuses with
//! [`CollectorError::BadJournal`] (clear the data dir to proceed) when
//! the surviving pages have holes. Checkpoint markers and `FINALIZE`
//! records are synced under every policy — they gate deletions, which
//! are not take-backable. The `collector_smoke` bench prints the ingest
//! tax of each policy against a journal-less daemon and fails if `Off`
//! costs more than half the throughput.
//!
//! ## Checkpoint coordination
//!
//! A checkpoint of round `R` supersedes the journal prefix it covers:
//! the snapshot is written to `round-<id>.<epoch>.ldpk` **atomically**
//! (tmp file, fsync, rename, fsync the directory), then a
//! `REC_CHECKPOINT` marker carrying the epoch is appended and synced,
//! and only then are the previous epoch's file and any fully-superseded
//! segments deleted. Recovery loads the epoch named by the *last marker
//! on disk* — a crash between writing the new snapshot and appending its
//! marker leaves the old epoch's file in place and replays from the old
//! marker, so the orphaned newer snapshot is simply ignored. Epochs make
//! the snapshot/marker pair atomic without needing the two writes to be.

use crate::error::CollectorError;
use crate::metrics::CollectorMetrics;
use crate::round::RoundCollector;
use crate::server::{apply_frame, frames, Frame, Session};
use ldp_obs::TraceEvent;
use ldp_protocols::wire::{self, get_varint, journal, put_varint, WireError};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// When the journal forces appended bytes to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every appended record: a crash loses nothing that
    /// was folded. The durable default; also the slowest.
    Always,
    /// `fsync` once per this many appended bytes: a crash loses at most
    /// one sync window of reports (recovery still lands on a consistent
    /// earlier state).
    EveryBytes(u64),
    /// Never `fsync` on the append path; the OS flushes at its leisure.
    /// Rotation and checkpoint markers still sync, so loss is bounded to
    /// the current segment's tail.
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

/// The durable plane a data-dir daemon threads through its workers: one
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
    /// directory holds into `engine` (checkpoint snapshots first, then
    /// the journal tail), re-snapshots the recovered rounds so the next
    /// crash replays from here, and starts a fresh journal segment.
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
        let (per_round, epochs) = apply_records(engine, dir, &records)?;
        let replayed_records: u64 = per_round.values().sum();
        let mut rounds = engine.open_round_ids();
        rounds.sort_unstable();
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
        journal.epochs = epochs;
        // Crash-harness hook, armed *before* startup compaction so a
        // kill schedule can land inside recovery itself (the daemon
        // binary documents `LDP_WAL_KILL_AFTER_BYTES`; see
        // `tests/crash.rs`). Unset outside the harness.
        if let Some(bytes) = std::env::var("LDP_WAL_KILL_AFTER_BYTES")
            .ok()
            .and_then(|s| s.parse().ok())
        {
            journal.kill_after = Some(bytes);
        }
        // Compact: snapshot every recovered round into a fresh epoch, so
        // the pre-crash segments are superseded and pruned — repeated
        // crash/restart cycles cannot grow the journal without bound.
        for &round in &rounds {
            journal.checkpoint_round(engine, round, metrics)?;
        }
        Ok((
            DurableLog {
                journal: Mutex::new(journal),
            },
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

/// The append side of the write-ahead journal. Obtain one via
/// [`DurableLog`]; all methods assume the caller holds the log's guard.
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    policy: FsyncPolicy,
    file: File,
    /// Sequence number of the segment currently appended to.
    seq: u64,
    segment_bytes: u64,
    unsynced_bytes: u64,
    rotate_bytes: u64,
    /// Per open round: the earliest segment still needed to recover it
    /// (its last checkpoint marker's segment, or its `REC_OPEN`'s).
    /// Segments below the minimum are superseded and prunable.
    live_since: BTreeMap<u64, u64>,
    /// Per round: the snapshot epoch its last checkpoint marker named.
    epochs: BTreeMap<u64, u64>,
    /// Fault hook: abort the process mid-write once this many total
    /// bytes have been appended, leaving a torn record on disk — how the
    /// crash harness pins torn-tail recovery (see `tests/crash.rs`).
    kill_after: Option<u64>,
    total_bytes: u64,
    frame_buf: Vec<u8>,
}

impl Journal {
    fn create(dir: &Path, policy: FsyncPolicy, seq: u64) -> Result<Self, CollectorError> {
        let file = create_segment(dir, seq)?;
        Ok(Journal {
            dir: dir.to_path_buf(),
            policy,
            file,
            seq,
            segment_bytes: 5,
            unsynced_bytes: 0,
            rotate_bytes: DEFAULT_SEGMENT_BYTES,
            live_since: BTreeMap::new(),
            epochs: BTreeMap::new(),
            kill_after: None,
            total_bytes: 0,
            frame_buf: Vec::new(),
        })
    }

    /// Appends one record (frame-coded) and applies the fsync policy.
    /// Report payloads are appended **verbatim and before decoding**, so
    /// replay re-derives every accept *and* reject decision from the
    /// same bytes the live path saw.
    ///
    /// # Errors
    /// Disk I/O failures; the record is not durable and the caller must
    /// not act on the frame.
    pub fn append(
        &mut self,
        kind: u8,
        payload: &[u8],
        metrics: &CollectorMetrics,
    ) -> Result<(), CollectorError> {
        let mut buf = std::mem::take(&mut self.frame_buf);
        buf.clear();
        wire::write_frame(&mut buf, kind, payload)?;
        if let Some(limit) = self.kill_after {
            if self.total_bytes + buf.len() as u64 > limit {
                // Torn-write fault injection: persist a strict prefix of
                // the record, then die as abruptly as a power cut.
                let cut = limit.saturating_sub(self.total_bytes) as usize;
                let _ = self.file.write_all(&buf[..cut.min(buf.len())]);
                let _ = self.file.sync_data();
                std::process::abort();
            }
        }
        let n = buf.len() as u64;
        let write = self.file.write_all(&buf);
        self.frame_buf = buf;
        write?;
        self.total_bytes += n;
        self.segment_bytes += n;
        self.unsynced_bytes += n;
        if metrics.active() {
            metrics.wal_appended_bytes.add(n);
        }
        match kind {
            journal::REC_FINALIZE => {
                if let Ok(round) = get_varint(&mut &payload[..]) {
                    self.live_since.remove(&round);
                    self.epochs.remove(&round);
                    remove_round_files(&self.dir, round, None);
                }
            }
            // Checkpoint markers manage their own tracking (the caller
            // is `checkpoint_round`, which pins the marker's segment).
            journal::REC_CHECKPOINT => {}
            _ => {
                if let Ok(round) = get_varint(&mut &payload[..]) {
                    self.live_since.entry(round).or_insert(self.seq);
                }
            }
        }
        match self.policy {
            FsyncPolicy::Always => self.sync(metrics)?,
            FsyncPolicy::EveryBytes(window) => {
                if self.unsynced_bytes >= window {
                    self.sync(metrics)?;
                }
            }
            FsyncPolicy::Off => {}
        }
        if self.segment_bytes >= self.rotate_bytes {
            self.rotate(metrics)?;
        }
        Ok(())
    }

    /// Forces appended bytes to stable storage (timed into
    /// `wal_fsync_nanos`).
    ///
    /// # Errors
    /// Disk I/O failures.
    pub fn sync(&mut self, metrics: &CollectorMetrics) -> Result<(), CollectorError> {
        if self.unsynced_bytes == 0 {
            return Ok(());
        }
        let begin = metrics.active().then(Instant::now);
        self.file.sync_data()?;
        self.unsynced_bytes = 0;
        if let Some(begin) = begin {
            metrics
                .wal_fsync_nanos
                .observe(begin.elapsed().as_nanos() as u64);
        }
        Ok(())
    }

    /// Closes the current segment and opens the next. Policies that sync
    /// at all sync here regardless of their window, so a finished
    /// segment is durable before the next one takes records and a
    /// power-cut torn tail stays confined to the *last* segment.
    /// [`FsyncPolicy::Off`] skips even this (rotation fsyncs were its
    /// dominant ingest tax): process crashes still lose nothing — the
    /// page cache survives SIGKILL — and its power-cut contract is
    /// already best-effort (see the module docs).
    fn rotate(&mut self, metrics: &CollectorMetrics) -> Result<(), CollectorError> {
        if self.policy != FsyncPolicy::Off {
            self.unsynced_bytes = self.segment_bytes; // force the sync
            self.sync(metrics)?;
        }
        self.seq += 1;
        self.file = create_segment(&self.dir, self.seq)?;
        self.segment_bytes = 5;
        Ok(())
    }

    /// Snapshots `round_id` and supersedes its journal prefix: atomic
    /// snapshot write (next epoch), synced `REC_CHECKPOINT` marker, then
    /// deletion of the previous epoch's file and any segment every round
    /// has checkpointed past. See the module docs for why the epoch in
    /// the marker makes the snapshot/marker pair crash-atomic.
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
        let epoch = self.epochs.get(&round_id).copied().unwrap_or(0) + 1;
        let mut snapshot = Vec::new();
        engine.checkpoint(round_id, &mut snapshot)?;
        atomic_write_file(&self.dir.join(checkpoint_name(round_id, epoch)), &snapshot)?;
        let mut marker = Vec::new();
        put_varint(round_id, &mut marker);
        put_varint(epoch, &mut marker);
        self.append(journal::REC_CHECKPOINT, &marker, metrics)?;
        // The marker must be durable before anything it supersedes is
        // deleted — unconditionally, whatever the append-path policy.
        self.sync(metrics)?;
        self.epochs.insert(round_id, epoch);
        self.live_since.insert(round_id, self.seq);
        remove_round_files(&self.dir, round_id, Some(epoch));
        self.prune();
        Ok(())
    }

    /// Deletes segments wholly superseded by checkpoints (every round's
    /// `live_since` is past them). Best-effort: a failed unlink costs
    /// disk, never correctness.
    fn prune(&mut self) {
        let min_live = self
            .live_since
            .values()
            .min()
            .copied()
            .unwrap_or(self.seq)
            .min(self.seq);
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            if let Some(seq) = segment_seq(&name.to_string_lossy()) {
                if seq < min_live {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
    }
}

/// Writes `bytes` to `path` atomically: tmp file, fsync, rename over the
/// target, fsync the parent directory. A crash at any point leaves
/// either the old file or the new one — never a torn mix. Disk I/O
/// failures leave the target untouched.
fn atomic_write_file(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut file = File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            File::open(parent)?.sync_all()?;
        }
    }
    Ok(())
}

fn create_segment(dir: &Path, seq: u64) -> Result<File, CollectorError> {
    let mut file = File::create(dir.join(format!("wal-{seq:016x}.ldpw")))?;
    file.write_all(&journal::SEGMENT_MAGIC)?;
    file.write_all(&[journal::SEGMENT_VERSION])?;
    Ok(file)
}

fn segment_seq(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("wal-")?.strip_suffix(".ldpw")?;
    u64::from_str_radix(hex, 16).ok()
}

fn checkpoint_name(round_id: u64, epoch: u64) -> String {
    format!("round-{round_id:016x}.{epoch:016x}.ldpk")
}

/// Parses `round-<id>.<epoch>.ldpk` back into `(id, epoch)`.
fn checkpoint_file(name: &str) -> Option<(u64, u64)> {
    let rest = name.strip_prefix("round-")?.strip_suffix(".ldpk")?;
    let (id, epoch) = rest.split_once('.')?;
    Some((
        u64::from_str_radix(id, 16).ok()?,
        u64::from_str_radix(epoch, 16).ok()?,
    ))
}

/// Deletes `round_id`'s snapshot files, keeping only `keep_epoch` (all
/// of them when `None`). Best-effort.
fn remove_round_files(dir: &Path, round_id: u64, keep_epoch: Option<u64>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        if let Some((id, epoch)) = checkpoint_file(&name.to_string_lossy()) {
            if id == round_id && Some(epoch) != keep_epoch {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
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
/// state), or at its last `REC_CHECKPOINT` marker after that, whose
/// snapshot is loaded; every later record re-runs through
/// [`apply_frame`] with a replay session. Returns per-round
/// applied-record counts and the marker epochs (seeding the new
/// journal's epoch map).
#[allow(clippy::type_complexity)]
fn apply_records(
    engine: &RoundCollector,
    dir: &Path,
    records: &[Rec],
) -> Result<(BTreeMap<u64, u64>, BTreeMap<u64, u64>), CollectorError> {
    // Pass 1: where each round's live history starts, and the snapshot
    // epoch when that start is a checkpoint marker.
    let mut start: BTreeMap<u64, (usize, Option<u64>)> = BTreeMap::new();
    for (i, rec) in records.iter().enumerate() {
        let mut buf = rec.payload.as_slice();
        match rec.kind {
            journal::REC_FINALIZE => {
                if let Ok(round) = get_varint(&mut buf) {
                    start.insert(round, (i, None));
                }
            }
            journal::REC_CHECKPOINT => {
                let malformed = |_| CollectorError::BadJournal {
                    detail: "malformed checkpoint marker",
                };
                let round = get_varint(&mut buf).map_err(malformed)?;
                let epoch = get_varint(&mut buf).map_err(malformed)?;
                start.insert(round, (i, Some(epoch)));
            }
            _ => {}
        }
    }
    // Load each marked round's snapshot — the state at its marker.
    let mut epochs = BTreeMap::new();
    for (&round, &(_, epoch)) in &start {
        let Some(epoch) = epoch else { continue };
        let path = dir.join(checkpoint_name(round, epoch));
        let mut file = File::open(&path).map_err(|_| CollectorError::BadJournal {
            detail: "checkpoint marker without its snapshot file",
        })?;
        let restored = engine.resume_round_into(&mut file)?;
        if restored != round {
            return Err(CollectorError::BadJournal {
                detail: "snapshot round id disagrees with its marker",
            });
        }
        epochs.insert(round, epoch);
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
            // A round's history starts after its last FINALIZE, so every
            // FINALIZE was skipped above; superseded markers (an older
            // epoch) carry no state.
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
    Ok((applied, epochs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round::{CollectorConfig, RoundOutcome};
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
            // Everything before the marker now lives in the snapshot;
            // earlier segments are gone.
            let segments: Vec<u64> = std::fs::read_dir(&dir)
                .expect("read dir")
                .flatten()
                .filter_map(|e| segment_seq(&e.file_name().to_string_lossy()))
                .collect();
            assert!(
                segments.iter().all(|&s| s >= journal.seq),
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

    #[test]
    fn orphaned_newer_snapshot_is_ignored() {
        // Crash window: snapshot epoch N+1 written, marker never
        // appended. Recovery must load epoch N (the last *marked* one).
        let dir = scratch_dir("orphan");
        {
            let eng = engine();
            let (log, _) = DurableLog::open(&dir, FsyncPolicy::Always, &eng).expect("open");
            let mut journal = log.lock();
            journal_round(&mut journal, &eng, 4, 16, 6);
            journal
                .checkpoint_round(&eng, 4, eng.metrics())
                .expect("checkpoint");
            // Fake the torn second checkpoint: a newer-epoch snapshot
            // file with no marker, containing *more* state.
            for u in 6..9u64 {
                eng.ingest(4, u, UserReport::DegreeVector(vec![1.0, u as f64]))
                    .expect("ingest");
            }
            let mut snapshot = Vec::new();
            eng.checkpoint(4, &mut snapshot).expect("snapshot");
            std::fs::write(dir.join(checkpoint_name(4, 99)), &snapshot).expect("orphan");
        }
        let eng = engine();
        let (_log, recovery) = DurableLog::open(&dir, FsyncPolicy::Always, &eng).expect("recover");
        assert_eq!(recovery.rounds, vec![4]);
        // State is the *marked* epoch: 6 accepted, not the orphan's 9.
        assert_eq!(eng.counters(4).expect("counters").accepted, 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_replaces_never_tears() {
        let dir = scratch_dir("atomic");
        let target = dir.join("state.bin");
        atomic_write_file(&target, b"first-generation").expect("first write");
        assert_eq!(std::fs::read(&target).expect("read"), b"first-generation");
        atomic_write_file(&target, b"second").expect("second write");
        assert_eq!(std::fs::read(&target).expect("read"), b"second");
        // No tmp residue.
        assert_eq!(
            std::fs::read_dir(&dir).expect("read dir").flatten().count(),
            1
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
