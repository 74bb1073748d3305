//! Durability-plane integration tests, in-process where every byte
//! offset and every fault point can be swept exhaustively:
//!
//! * torn-tail truncation matrices over checkpoint snapshots (every cut
//!   must be a typed refusal) and journal segments (every cut must be a
//!   typed refusal or a clean-EOF prefix recovery — never a panic);
//! * the retrying client riding severed connections and daemon restarts
//!   with bit-identical finalize — the exactly-once property, pinned by
//!   a proptest over random disconnect/restart schedules;
//! * restarts after any lifecycle sequence — open, ingest, checkpoint,
//!   close, finalize, reopen — recovering exactly the state of a run
//!   that never restarted (a proptest over random sequences);
//! * the typed-transport and counted-lossy-flush satellite behaviours.
//!
//! The companion `tests/crash.rs` covers the same exactly-once claim
//! against a real daemon *process* killed with SIGKILL.

use ldp_collector::wal::DurableLog;
use ldp_collector::{
    CollectorClient, CollectorConfig, CollectorError, CollectorServer, FsyncPolicy, RetryPolicy,
    RoundChannel, RoundCollector,
};
use ldp_protocols::wire::StatsValue;
use ldp_protocols::UserReport;
use proptest::prelude::*;
use std::net::{TcpListener, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::Duration;

const SHARDS: usize = 2;
const GROUPS: usize = 3;
const ROUND: u64 = 11;

fn config() -> CollectorConfig {
    CollectorConfig {
        shards: SHARDS,
        ..CollectorConfig::default()
    }
}

fn channel(population: usize) -> RoundChannel {
    RoundChannel::DegreeVector {
        population,
        groups: GROUPS,
    }
}

fn vector(user: u64) -> Vec<f64> {
    vec![1.0, user as f64 + 0.25, (user % 7) as f64 * 0.5]
}

/// Duplicates charge the round quota (by design — a resend is a queued
/// upload like any other), so retry tests must provision headroom above
/// the population or resent window entries could starve fresh reports.
fn generous_quota(population: usize) -> Option<u64> {
    Some(16 * population as u64)
}

/// A fresh scratch directory unique across tests *and* proptest cases.
fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let unique = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "ldp-durability-{}-{tag}-{unique}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Tight backoffs so fault-riding tests spend milliseconds, not the
/// operator-scale defaults.
fn fast_retries() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 64,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(50),
        seed: 7,
    }
}

/// A client retrying under [`fast_retries`], with a 5 s socket deadline.
fn retrying_client(addr: impl ToSocketAddrs) -> CollectorClient {
    let mut client = CollectorClient::connect(addr)
        .expect("connect")
        .with_retry_policy(fast_retries());
    client
        .set_op_timeout(Some(Duration::from_secs(5)))
        .expect("op timeout");
    client
}

/// Runs one fault-free degree-vector round against a plain (non-durable)
/// daemon — the reference every faulted schedule must match bit for bit.
fn fault_free_reference(population: usize) -> (Vec<f64>, u64) {
    let (addr, handle) = CollectorServer::spawn(config()).expect("spawn reference daemon");
    let mut client = CollectorClient::connect(addr).expect("connect reference");
    client
        .open_round(ROUND, channel(population), generous_quota(population))
        .expect("open reference round");
    for user in 0..population as u64 {
        client
            .queue_degree_vector(user, &vector(user))
            .expect("queue reference report");
    }
    client.sync().expect("reference barrier");
    let summary = client.close_round(ROUND).expect("close reference round");
    assert_eq!(summary.counters.accepted, population as u64);
    let finalized = client
        .finalize_degree_vector(ROUND)
        .expect("finalize reference round");
    client.shutdown().expect("shut reference daemon down");
    handle
        .join()
        .expect("reference daemon thread")
        .expect("reference daemon exit");
    (finalized.group_totals, finalized.accepted)
}

// ---------------------------------------------------------------------------
// Torn-tail truncation matrices
// ---------------------------------------------------------------------------

/// Every strict prefix of a checkpoint snapshot must refuse with a typed
/// error — resuming half a round silently would be worse than crashing,
/// and panicking on operator-supplied bytes is forbidden outright.
#[test]
fn checkpoint_truncated_at_every_offset_is_a_typed_error() {
    let population = 24usize;
    let engine = RoundCollector::new(config()).expect("engine");
    engine
        .open_round_as(0, ROUND, channel(population), None)
        .expect("open");
    for user in 0..population as u64 {
        let outcome = engine
            .ingest(ROUND, user, UserReport::DegreeVector(vector(user)))
            .expect("ingest");
        assert_eq!(outcome, ldp_collector::IngestOutcome::Queued);
    }
    let mut snapshot = Vec::new();
    engine.checkpoint(ROUND, &mut snapshot).expect("snapshot");
    let resumed = RoundCollector::new(config()).expect("engine");
    resumed
        .resume_round_into(&mut snapshot.as_slice())
        .expect("the untruncated snapshot must resume");
    assert_eq!(
        resumed.counters(ROUND).expect("counters").accepted,
        population as u64
    );
    for cut in 0..snapshot.len() {
        let fresh = RoundCollector::new(config()).expect("engine");
        match fresh.resume_round_into(&mut &snapshot[..cut]) {
            Ok(_) => panic!(
                "a {cut}-byte prefix of a {}-byte snapshot resumed cleanly",
                snapshot.len()
            ),
            Err(CollectorError::BadCheckpoint { .. })
            | Err(CollectorError::Wire(_))
            | Err(CollectorError::Io(_)) => {}
            Err(other) => panic!("cut at {cut}: expected a parse-class error, got {other}"),
        }
    }
}

/// Every prefix of a journal segment — cutting through record frames,
/// the checkpoint marker, and the segment header alike — must either
/// recover a consistent prefix of the round (torn tail = clean end of
/// log) or refuse typed. The source directory is produced by a real
/// durable daemon, so the bytes under the knife are exactly what
/// production writes: OPEN + report batches + a checkpoint marker + a
/// post-marker tail of journaled duplicates.
#[test]
fn wal_segment_truncated_at_every_offset_recovers_or_refuses() {
    let population = 16usize;
    let dir = scratch_dir("wal-sweep-src");
    let (addr, handle) =
        CollectorServer::spawn_durable(config(), &dir, FsyncPolicy::Always).expect("spawn durable");
    let mut client = CollectorClient::connect(addr).expect("connect");
    client
        .open_round(ROUND, channel(population), generous_quota(population))
        .expect("open");
    for user in 0..population as u64 {
        client
            .queue_degree_vector(user, &vector(user))
            .expect("queue");
    }
    client.sync().expect("barrier");
    client.checkpoint(ROUND).expect("checkpoint marker");
    for user in 0..4u64 {
        // Duplicates: journaled verbatim, re-rejected on replay.
        client
            .queue_degree_vector(user, &vector(user))
            .expect("queue duplicate");
    }
    client.sync().expect("second barrier");
    client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread").expect("daemon exit");

    // Collect the directory: exactly one journal segment (nothing
    // rotated) plus the round's snapshot file(s) from the marker.
    let mut segment: Option<(std::ffi::OsString, Vec<u8>)> = None;
    let mut side_files: Vec<(std::ffi::OsString, Vec<u8>)> = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("read data dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name();
        let bytes = std::fs::read(entry.path()).expect("read file");
        if name.to_string_lossy().ends_with(".ldpw") {
            assert!(segment.is_none(), "expected a single journal segment");
            segment = Some((name, bytes));
        } else {
            side_files.push((name, bytes));
        }
    }
    let (segment_name, segment_bytes) = segment.expect("a journal segment must exist");
    assert!(
        !side_files.is_empty(),
        "the checkpoint marker must have written a snapshot file"
    );

    let sweep_root = scratch_dir("wal-sweep");
    for cut in 0..=segment_bytes.len() {
        let case_dir = sweep_root.join(format!("cut-{cut}"));
        std::fs::create_dir_all(&case_dir).expect("case dir");
        for (name, bytes) in &side_files {
            std::fs::write(case_dir.join(name), bytes).expect("copy side file");
        }
        std::fs::write(case_dir.join(&segment_name), &segment_bytes[..cut])
            .expect("write truncated segment");
        let engine = RoundCollector::new(config()).expect("fresh engine");
        match DurableLog::open(&case_dir, FsyncPolicy::Off, &engine) {
            Ok((_, recovery)) => {
                if recovery.rounds.is_empty() {
                    continue;
                }
                assert_eq!(recovery.rounds, vec![ROUND], "cut at {cut}");
                let counters = engine.counters(ROUND).expect("recovered counters");
                assert!(
                    counters.accepted <= population as u64,
                    "cut at {cut}: recovered more than was ever sent"
                );
                if cut == segment_bytes.len() {
                    assert_eq!(counters.accepted, population as u64, "full segment");
                    assert_eq!(counters.rejected_duplicate, 4, "full segment");
                }
            }
            Err(CollectorError::BadJournal { .. }) | Err(CollectorError::BadCheckpoint { .. }) => {}
            Err(other) => panic!("cut at {cut}: unexpected error class {other}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&sweep_root);
}

// ---------------------------------------------------------------------------
// Client-side satellites: typed transport errors, counted lossy flush
// ---------------------------------------------------------------------------

/// A connect refusal must say *which* address refused, not just "I/O
/// error" — the operator (and the retry loop's final error) needs the
/// target.
#[test]
fn transport_errors_name_the_target() {
    // Bind-then-drop finds a port that is currently closed.
    let port = TcpListener::bind(("127.0.0.1", 0))
        .expect("probe bind")
        .local_addr()
        .expect("probe addr")
        .port();
    let err = match CollectorClient::connect(("127.0.0.1", port)) {
        Ok(_) => panic!("connecting to a closed port must fail"),
        Err(e) => e,
    };
    match err {
        CollectorError::Transport { ref target, .. } => {
            assert!(
                target.contains(&port.to_string()),
                "target {target:?} does not name port {port}"
            );
            assert!(err.to_string().contains("127.0.0.1"));
        }
        other => panic!("expected CollectorError::Transport, got {other}"),
    }
}

/// Dropping a client with an undelivered batch flushes best-effort; when
/// that flush fails the failure is *counted*, not silently swallowed.
#[test]
fn a_dropped_client_counts_its_failed_flush() {
    let (addr, handle) = CollectorServer::spawn(config()).expect("spawn");
    let mut client = retrying_client(addr);
    client
        .open_round(21, channel(8), None)
        .expect("open round 21");
    client
        .queue_degree_vector(0, &vector(0))
        .expect("queue one report");
    let before = CollectorClient::pending_flush_failed();
    // Sever the socket, then drop with the report still batched: the
    // destructor's flush hits a dead socket and must tick the counter.
    client.fault_disconnect();
    drop(client);
    assert!(
        CollectorClient::pending_flush_failed() > before,
        "the failed destructor flush was not counted"
    );
    let mut admin = CollectorClient::connect(addr).expect("admin connect");
    admin.shutdown().expect("shutdown");
    handle.join().expect("daemon thread").expect("daemon exit");
}

// ---------------------------------------------------------------------------
// Retrying client: reconnect, resend, exactly-once
// ---------------------------------------------------------------------------

/// Severing the connection every few reports must change nothing about
/// the finalized output: the resend window replays, the daemon's
/// duplicate rejection absorbs the overlap, and the totals are
/// bit-identical to the fault-free reference.
#[test]
fn the_retrying_client_rides_disconnects_exactly_once() {
    let population = 48usize;
    let (reference_totals, reference_accepted) = fault_free_reference(population);
    let dir = scratch_dir("retry-rides");
    let (addr, handle) =
        CollectorServer::spawn_durable(config(), &dir, FsyncPolicy::Always).expect("spawn durable");
    let mut client = retrying_client(addr).with_batch_size(2);
    client
        .open_round(ROUND, channel(population), generous_quota(population))
        .expect("open");
    for user in 0..population as u64 {
        if user % 5 == 3 {
            client.fault_disconnect();
        }
        client
            .queue_degree_vector(user, &vector(user))
            .expect("queue across faults");
    }
    let summary = client.close_round(ROUND).expect("close");
    assert_eq!(summary.counters.accepted, population as u64);
    assert_eq!(summary.counters.rejected_quota, 0);
    assert_eq!(summary.counters.rejected_invalid, 0);
    assert_eq!(summary.counters.rejected_malformed, 0);
    let finalized = client.finalize_degree_vector(ROUND).expect("finalize");
    assert_eq!(finalized.accepted, reference_accepted);
    assert_eq!(
        finalized.group_totals, reference_totals,
        "faulted totals diverged from the fault-free reference"
    );
    assert!(
        client.reconnects() >= 1,
        "the schedule never exercised a reconnect"
    );
    client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread").expect("daemon exit");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Re-opening a round the daemon still holds (because the connection
/// died, not the daemon) is success for the retrying client.
#[test]
fn open_round_is_idempotent_across_reconnects() {
    let population = 8usize;
    let (addr, handle) = CollectorServer::spawn(config()).expect("spawn");
    let mut client = retrying_client(addr);
    client
        .open_round(ROUND, channel(population), None)
        .expect("first open");
    client.fault_disconnect();
    client
        .open_round(ROUND, channel(population), None)
        .expect("reopen over a fresh connection must be idempotent");
    for user in 0..population as u64 {
        client
            .queue_degree_vector(user, &vector(user))
            .expect("queue");
    }
    let summary = client.close_round(ROUND).expect("close");
    assert_eq!(summary.counters.accepted, population as u64);
    client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread").expect("daemon exit");
}

/// Regression: a reconnect replays each unacknowledged report into the
/// round it was sent to. Round A's reports, still unacknowledged when
/// the session moves on to round B, must not be replayed into B.
#[test]
fn a_reconnect_replays_reports_into_their_own_round() {
    let (round_a, round_b) = (41, 42);
    let (addr, handle) = CollectorServer::spawn(config()).expect("spawn");
    let mut client = retrying_client(addr);
    client
        .open_round(round_a, channel(8), generous_quota(8))
        .expect("open A");
    for user in 0..3u64 {
        client
            .queue_degree_vector(user, &vector(user))
            .expect("queue to A");
    }
    client
        .open_round(round_b, channel(8), generous_quota(8))
        .expect("open B without a barrier");
    client.fault_disconnect();
    client
        .queue_degree_vector(3, &vector(3))
        .expect("queue to B");
    let a = client.close_round(round_a).expect("close A");
    let b = client.close_round(round_b).expect("close B");
    assert_eq!(a.counters.accepted, 3, "round A");
    assert_eq!(
        b.counters.accepted, 1,
        "round B folded another round's reports"
    );
    assert!(
        client.reconnects() >= 1,
        "the fault never forced a reconnect"
    );
    client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread").expect("daemon exit");
}

/// Regression: `ROUND_ALREADY_OPEN` is success for a retrying client
/// only when its own earlier attempt may have opened the round. A round
/// id another tenant holds is refused on the first attempt.
#[test]
fn a_retrying_open_of_another_tenants_round_is_refused() {
    let (addr, handle) = CollectorServer::spawn(config()).expect("spawn");
    let mut owner = CollectorClient::connect(addr)
        .expect("connect owner")
        .with_tenant(1);
    owner
        .open_round(9, channel(8), None)
        .expect("tenant 1 opens 9");
    let mut client = retrying_client(addr).with_tenant(2);
    let adjacency = RoundChannel::Adjacency {
        population: 8,
        p_keep: 0.5,
    };
    match client.open_round(9, adjacency, None) {
        Err(CollectorError::Remote { code, .. }) => {
            assert_eq!(code, ldp_collector::server::codes::ROUND_ALREADY_OPEN)
        }
        other => panic!("tenant 2 reopened tenant 1's round: {other:?}"),
    }
    assert_eq!(client.reconnects(), 0);
    owner.shutdown().expect("shutdown");
    handle.join().expect("daemon thread").expect("daemon exit");
}

// ---------------------------------------------------------------------------
// Exactly-once under random fault schedules (proptest)
// ---------------------------------------------------------------------------

/// Binds port 0, reads the assigned port, releases it — the daemon
/// restart cycle needs a port that stays the same across restarts so the
/// client's reconnect target remains valid.
fn free_port() -> u16 {
    TcpListener::bind(("127.0.0.1", 0))
        .expect("probe bind")
        .local_addr()
        .expect("probe addr")
        .port()
}

/// Starts (or restarts) a durable daemon on a fixed port, retrying the
/// bind while the previous incarnation's listener drains.
fn start_durable_daemon(port: u16, dir: &Path) -> JoinHandle<Result<(), CollectorError>> {
    let mut last: Option<CollectorError> = None;
    for _ in 0..100 {
        match CollectorServer::bind(("127.0.0.1", port), config()) {
            Ok(server) => {
                let mut server = server
                    .with_data_dir(dir, FsyncPolicy::Always)
                    .expect("recover data dir");
                return std::thread::spawn(move || server.serve());
            }
            Err(e) => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
    panic!("could not rebind 127.0.0.1:{port}: {last:?}");
}

/// Cleanly stops the daemon on `port` and reaps its thread — standing in
/// for a crash whose journal made it to disk (fsync policy `always`
/// makes those equivalent; `tests/crash.rs` covers the impolite kinds).
fn stop_daemon(port: u16, handle: JoinHandle<Result<(), CollectorError>>) {
    let mut admin = CollectorClient::connect(("127.0.0.1", port)).expect("admin connect");
    admin.shutdown().expect("shutdown");
    handle.join().expect("daemon thread").expect("daemon exit");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The exactly-once pin: under any schedule of client-side
    /// disconnects and daemon restart-with-recovery cycles, at-least-once
    /// resend plus journal-recovered duplicate rejection folds every
    /// report exactly once — accepted equals the population and the
    /// finalized totals are bit-identical to the fault-free reference.
    #[test]
    fn random_fault_schedules_still_ingest_exactly_once(
        population in 8usize..40,
        disconnects in proptest::collection::vec(0u64..40, 0..4),
        restarts in proptest::collection::vec(0u64..40, 0..2),
    ) {
        let disconnects: std::collections::BTreeSet<u64> = disconnects.into_iter().collect();
        let restarts: std::collections::BTreeSet<u64> = restarts.into_iter().collect();
        let (reference_totals, reference_accepted) = fault_free_reference(population);
        let dir = scratch_dir("prop-schedule");
        let port = free_port();
        let mut handle = start_durable_daemon(port, &dir);
        let mut client = retrying_client(("127.0.0.1", port)).with_batch_size(2);
        client
            .open_round(ROUND, channel(population), generous_quota(population))
            .expect("open");
        let mut restarted = 0u64;
        for user in 0..population as u64 {
            if restarts.contains(&user) {
                stop_daemon(port, handle);
                handle = start_durable_daemon(port, &dir);
                restarted += 1;
            }
            if disconnects.contains(&user) {
                client.fault_disconnect();
            }
            client
                .queue_degree_vector(user, &vector(user))
                .expect("queue across the fault schedule");
        }
        let summary = client.close_round(ROUND).expect("close");
        prop_assert_eq!(summary.counters.accepted, population as u64);
        prop_assert_eq!(summary.counters.rejected_quota, 0);
        prop_assert_eq!(summary.counters.rejected_invalid, 0);
        prop_assert_eq!(summary.counters.rejected_malformed, 0);
        if restarted > 0 {
            // The serving daemon recovered the round at startup and must
            // say so on its scrape surface.
            let stats = client.stats().expect("stats");
            let recovered = stats
                .iter()
                .find(|e| e.name == "recovered_rounds")
                .map(|e| match e.value {
                    StatsValue::Counter(v) | StatsValue::Gauge(v) => v,
                    StatsValue::Histogram { sum, .. } => sum,
                })
                .unwrap_or(0);
            prop_assert!(recovered >= 1, "recovered_rounds not visible after restart");
        }
        let finalized = client.finalize_degree_vector(ROUND).expect("finalize");
        prop_assert_eq!(finalized.accepted, reference_accepted);
        prop_assert_eq!(
            finalized.group_totals,
            reference_totals,
            "schedule diverged from the fault-free reference"
        );
        client.shutdown().expect("shutdown");
        handle.join().expect("daemon thread").expect("daemon exit");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------------
// Restarts after arbitrary lifecycle sequences
// ---------------------------------------------------------------------------

/// Regression: a durable daemon that checkpoints a round and then closes
/// and finalizes it must restart on its data directory. The finalize
/// deleted the round's snapshot while its checkpoint marker survived in
/// the journal; recovery must not demand the snapshot of a round that
/// finalized later in the log. The id is then free for a fresh round.
#[test]
fn finalize_after_checkpoint_restarts_cleanly() {
    let population = 4usize;
    let dir = scratch_dir("finalize-after-checkpoint");
    let run_round = |client: &mut CollectorClient| {
        client
            .open_round(ROUND, channel(population), None)
            .expect("open");
        for user in 0..population as u64 {
            client
                .queue_degree_vector(user, &vector(user))
                .expect("queue");
        }
        client.sync().expect("barrier");
        client.checkpoint(ROUND).expect("checkpoint");
        client.close_round(ROUND).expect("close");
        client.finalize_degree_vector(ROUND).expect("finalize")
    };
    let (addr, handle) =
        CollectorServer::spawn_durable(config(), &dir, FsyncPolicy::Always).expect("spawn durable");
    let mut client = CollectorClient::connect(addr).expect("connect");
    let first = run_round(&mut client);
    client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread").expect("daemon exit");

    let mut server = CollectorServer::bind(("127.0.0.1", 0), config())
        .expect("bind")
        .with_data_dir(&dir, FsyncPolicy::Always)
        .expect("restart after a checkpointed round finalized");
    assert!(server.recovery().expect("durable").rounds.is_empty());
    let addr = server.local_addr().expect("addr");
    let handle = std::thread::spawn(move || server.serve());
    let mut client = CollectorClient::connect(addr).expect("reconnect");
    assert_eq!(run_round(&mut client), first, "the reopened round is fresh");
    client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread").expect("daemon exit");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Population of the lifecycle rounds: small, so random sequences often
/// complete a round. Ingested ids run past it, so out-of-range reports
/// are part of the sequences too.
const LIFECYCLE_POPULATION: usize = 2;

/// One durable daemon plus its client, restartable on the same data
/// directory.
struct Lifecycle {
    dir: PathBuf,
    handle: JoinHandle<Result<(), CollectorError>>,
    client: CollectorClient,
}

impl Lifecycle {
    fn lifecycle_config() -> CollectorConfig {
        CollectorConfig {
            worker_threads: 2,
            ..config()
        }
    }

    fn start(dir: PathBuf) -> Self {
        let (addr, handle) =
            CollectorServer::spawn_durable(Self::lifecycle_config(), &dir, FsyncPolicy::Off)
                .expect("every restart must recover");
        let client = CollectorClient::connect(addr).expect("connect");
        Lifecycle {
            dir,
            handle,
            client,
        }
    }

    fn stop(mut self) -> PathBuf {
        let _ = self.client.sync();
        self.client.shutdown().expect("shutdown");
        drop(self.client);
        self.handle
            .join()
            .expect("daemon thread")
            .expect("daemon exit");
        self.dir
    }

    /// Runs one step, rendering its observable outcome: typed refusal
    /// codes, close summaries, and finalized totals (bit patterns).
    fn step(
        mut self,
        op: u64,
        round: u64,
        first: u64,
        count: u64,
        restarts: bool,
    ) -> (Self, String) {
        fn code<T>(result: Result<T, CollectorError>, ok: impl FnOnce(T) -> String) -> String {
            match result {
                Ok(value) => ok(value),
                Err(CollectorError::Remote { code, .. }) => format!("err {code}"),
                Err(other) => panic!("untyped failure: {other}"),
            }
        }
        let client = &mut self.client;
        let outcome = match op {
            0 => code(
                client.open_round(round, channel(LIFECYCLE_POPULATION), Some(64)),
                |()| "opened".into(),
            ),
            1 | 6 => {
                client.set_round(round).expect("set round");
                for user in first..first + count {
                    client
                        .queue_degree_vector(user, &vector(user))
                        .expect("queue");
                }
                // Misdirected uploads warn once per connection, so the
                // barrier's reply is not compared; their counts are.
                let _ = client.sync();
                "ingested".into()
            }
            2 => code(client.checkpoint(round), |()| "checkpointed".into()),
            3 => code(client.close_round(round), |s| format!("{:?}", s.counters)),
            4 => code(client.finalize_degree_vector(round), |f| {
                let bits: Vec<u64> = f.group_totals.iter().map(|t| t.to_bits()).collect();
                format!("{} {bits:?}", f.accepted)
            }),
            _ => {
                if restarts {
                    let dir = self.stop();
                    return (Self::start(dir), "restarted".into());
                }
                "restarted".into()
            }
        };
        (self, outcome)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Restart at any point of any lifecycle sequence — open, ingest,
    /// checkpoint, close, finalize, reopen the same id — must succeed and
    /// leave the daemon in exactly the state of a run that never
    /// restarted: every later step observes the same refusals, close
    /// summaries, and finalized totals to the bit.
    #[test]
    fn restarts_after_any_lifecycle_sequence_match_an_uninterrupted_run(
        steps in proptest::collection::vec((0u64..7, 0u64..2, 0u64..3, 1u64..4), 1..24),
    ) {
        let mut outcomes = Vec::new();
        for restarts in [false, true] {
            let mut run = Lifecycle::start(scratch_dir("lifecycle"));
            let mut seen = Vec::new();
            for &(op, round, first, count) in &steps {
                let (next, outcome) = run.step(op, 7 + round, first, count, restarts);
                run = next;
                seen.push(outcome);
            }
            // One last restart, then read every round's final state.
            let (mut run, _) = run.step(5, 0, 0, 0, restarts);
            for round in [7, 8] {
                let (next, outcome) = run.step(3, round, 0, 0, restarts);
                run = next;
                seen.push(outcome);
            }
            let dir = run.stop();
            let _ = std::fs::remove_dir_all(&dir);
            outcomes.push(seen);
        }
        prop_assert_eq!(&outcomes[0], &outcomes[1], "steps {:?}", steps);
    }
}
