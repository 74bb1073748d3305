//! The crash harness: a real `ldp-collectord` process, killed for real.
//!
//! Each schedule spawns the daemon binary on a fixed port with a
//! journal directory under `target/crash-test/`, drives a degree-vector
//! round through a [`CollectorClient`] with a retry policy, and at
//! randomized ingest points either SIGKILLs the process or arms the
//! journal's torn-write fault hook (`LDP_WAL_KILL_AFTER_BYTES`) so the
//! daemon aborts *mid-append*, leaving a torn record on disk. After
//! every kill the daemon is restarted on the same directory and the
//! client rides the outage; at the end the schedule must be invisible:
//!
//! * the close summary reconciles exactly — `accepted == population`,
//!   zero quota/invalid/malformed rejects (duplicate rejects are the
//!   resend window's audited cost);
//! * the finalized totals are **bit-identical** to a fault-free run of
//!   the same binary, also when two uploaders on two threads race each
//!   other through the same schedule;
//! * the daemon's scrape surface shows the recovery
//!   (`recovered_rounds`, `wal_replayed_frames`);
//! * finalize after a checkpoint, then SIGKILL: the restarted daemon
//!   comes up with nothing open — the round's checkpoint record
//!   survives in the journal, but its `FINALIZE` comes later — and the
//!   round id is free again;
//! * no client is dropped with unflushed bytes — a reconnect replaces
//!   its dead connection without counting a failed flush, so
//!   `pending_flush_failed` reads 0.
//!
//! Schedule directories are removed on success and kept on failure — CI
//! uploads `target/crash-test/` as the post-mortem artifact.

use ldp_collector::{CollectorClient, RetryPolicy, RoundChannel};
use ldp_protocols::wire::StatsValue;
use std::collections::BTreeMap;
use std::io::BufRead;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const POPULATION: usize = 48;
const GROUPS: usize = 3;
const ROUND: u64 = 31;
const SHARDS: usize = 2;
/// Randomized kill schedules per run (the acceptance floor is 20).
const SCHEDULES: u64 = 22;
/// Kills land strictly before this index, leaving enough ingest behind
/// them that an armed torn-append is guaranteed to fire (and be
/// recovered from) before the round closes.
const LAST_KILL_INDEX: u64 = POPULATION as u64 - 16;

#[derive(Debug, Clone, Copy)]
enum Kill {
    /// SIGKILL between two reports.
    Sigkill,
    /// Abort mid-append once the journal has written this many bytes
    /// (counted from the restart that arms it) — the torn-tail case.
    TornAppend(u64),
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn vector(user: u64) -> Vec<f64> {
    vec![1.0, user as f64 + 0.25, (user % 7) as f64 * 0.5]
}

fn fast_retries() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 64,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(100),
        seed: 7,
    }
}

/// A client retrying under [`fast_retries`], with a 5 s socket deadline.
fn retrying_client(port: u16) -> CollectorClient {
    let mut client = CollectorClient::connect(("127.0.0.1", port))
        .expect("connect")
        .with_retry_policy(fast_retries())
        .with_batch_size(2);
    client
        .set_op_timeout(Some(Duration::from_secs(5)))
        .expect("op timeout");
    client
}

/// `target/crash-test/` — derived from the daemon binary's location so
/// the artifact path in CI is stable.
fn crash_root() -> PathBuf {
    let exe = PathBuf::from(env!("CARGO_BIN_EXE_ldp-collectord"));
    let target = exe
        .parent()
        .and_then(Path::parent)
        .expect("binary lives under target/<profile>/");
    target.join("crash-test")
}

fn free_port() -> u16 {
    TcpListener::bind(("127.0.0.1", 0))
        .expect("probe bind")
        .local_addr()
        .expect("probe addr")
        .port()
}

/// Spawns the daemon binary on `port` over `dir` and waits for its
/// `ADDR` line. `kill_after` arms the torn-write hook. Retries while the
/// previous incarnation's port drains.
fn spawn_daemon(dir: &Path, port: u16, kill_after: Option<u64>) -> Child {
    for _ in 0..100 {
        let mut command = Command::new(env!("CARGO_BIN_EXE_ldp-collectord"));
        command
            .arg("--addr")
            .arg(format!("127.0.0.1:{port}"))
            .arg("--data-dir")
            .arg(dir)
            .arg("--fsync")
            .arg("always")
            .arg("--shards")
            .arg(SHARDS.to_string())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .env_remove("LDP_WAL_KILL_AFTER_BYTES");
        if let Some(bytes) = kill_after {
            command.env("LDP_WAL_KILL_AFTER_BYTES", bytes.to_string());
        }
        let mut child = command.spawn().expect("spawn ldp-collectord");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        let read = std::io::BufReader::new(stdout).read_line(&mut line);
        if read.is_ok() && line.starts_with("ADDR ") {
            return child;
        }
        // The child lost the bind race against the dying incarnation —
        // reap it and try again.
        let _ = child.kill();
        let _ = child.wait();
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("ldp-collectord never came up on 127.0.0.1:{port}");
}

fn counter(stats: &[ldp_protocols::wire::StatsEntry], name: &str) -> Option<u64> {
    stats
        .iter()
        .find(|e| e.name == name)
        .map(|e| match e.value {
            StatsValue::Counter(v) | StatsValue::Gauge(v) => v,
            StatsValue::Histogram { sum, .. } => sum,
        })
}

/// Drives one full round against the child-process daemon under the
/// given kill schedule and returns the finalized totals. Panics (keeping
/// the schedule's data dir for the CI artifact) if the round does not
/// reconcile exactly.
fn run_schedule(tag: &str, kills: &BTreeMap<u64, Kill>) -> (Vec<f64>, u64) {
    run_uploaders(tag, kills, 1)
}

/// [`run_schedule`] with `uploaders` clients. With 2, a second client on
/// its own thread sends the odd users while this one sends the even
/// users and runs the schedule, so both sessions race each other through
/// every restart.
fn run_uploaders(tag: &str, kills: &BTreeMap<u64, Kill>, uploaders: u64) -> (Vec<f64>, u64) {
    let dir = crash_root().join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create schedule dir");
    let port = free_port();
    let mut daemon = Some(spawn_daemon(&dir, port, None));
    // A torn-append kill happens at a time of the *daemon's* choosing, so
    // the respawn is delegated to a watcher thread that waits for the
    // abort; the client keeps retrying across the gap.
    let mut watcher: Option<std::thread::JoinHandle<Child>> = None;

    let mut client = retrying_client(port);
    let channel = RoundChannel::DegreeVector {
        population: POPULATION,
        groups: GROUPS,
    };
    client
        // Resent duplicates charge quota; provision headroom.
        .open_round(ROUND, channel, Some(16 * POPULATION as u64))
        .expect("open round");
    let (odd_users, odd_rx) = std::sync::mpsc::channel::<u64>();
    let second = (uploaders == 2).then(|| {
        let mut second = retrying_client(port);
        second.set_round(ROUND).expect("second uploader's round");
        std::thread::spawn(move || {
            for user in odd_rx {
                second
                    .queue_degree_vector(user, &vector(user))
                    .expect("second uploader across the kill schedule");
            }
            second.sync().expect("second uploader's barrier");
        })
    });
    for user in 0..POPULATION as u64 {
        match kills.get(&user) {
            Some(Kill::Sigkill) => {
                let mut child = daemon.take().expect("a live daemon to kill");
                child.kill().expect("SIGKILL");
                child.wait().expect("reap");
                daemon = Some(spawn_daemon(&dir, port, None));
            }
            Some(&Kill::TornAppend(bytes)) => {
                let mut child = daemon.take().expect("a live daemon to re-arm");
                child.kill().expect("SIGKILL before arming");
                child.wait().expect("reap");
                let mut armed = spawn_daemon(&dir, port, Some(bytes));
                let respawn_dir = dir.clone();
                watcher = Some(std::thread::spawn(move || {
                    let _ = armed.wait();
                    spawn_daemon(&respawn_dir, port, None)
                }));
            }
            None => {}
        }
        if user % uploaders == 1 {
            odd_users.send(user).expect("the second uploader is alive");
            continue;
        }
        client
            .queue_degree_vector(user, &vector(user))
            .expect("queue across the kill schedule");
    }
    drop(odd_users);
    if let Some(handle) = second {
        handle.join().expect("second uploader");
    }
    if let Some(handle) = watcher.take() {
        daemon = Some(handle.join().expect("torn-append watcher"));
    }
    // Checkpoint the complete round, so the finalize below follows a
    // checkpoint record that stays in the journal.
    client.sync().expect("barrier before the checkpoint");
    CollectorClient::connect(("127.0.0.1", port))
        .and_then(|mut admin| admin.checkpoint(ROUND))
        .expect("checkpoint");

    let summary = client.close_round(ROUND).expect("close round");
    assert_eq!(
        summary.counters.accepted, POPULATION as u64,
        "{tag}: accepted must equal the population"
    );
    assert_eq!(summary.counters.rejected_quota, 0, "{tag}");
    assert_eq!(summary.counters.rejected_invalid, 0, "{tag}");
    assert_eq!(summary.counters.rejected_malformed, 0, "{tag}");
    if !kills.is_empty() {
        let stats = client.stats().expect("scrape the serving daemon");
        let recovered = counter(&stats, "recovered_rounds").unwrap_or(0);
        assert!(
            recovered >= 1,
            "{tag}: the restarted daemon must report its recovery"
        );
        assert!(
            counter(&stats, "wal_replayed_frames").is_some(),
            "{tag}: wal_replayed_frames must be on the scrape surface"
        );
    }
    let finalized = client.finalize_degree_vector(ROUND).expect("finalize");
    drop(client);
    let mut child = daemon.take().expect("the final daemon");
    child.kill().expect("SIGKILL after the finalize");
    child.wait().expect("reap");
    let mut child = spawn_daemon(&dir, port, None);
    let mut admin = CollectorClient::connect(("127.0.0.1", port)).expect("connect after restart");
    admin
        .open_round(ROUND, channel, None)
        .unwrap_or_else(|e| panic!("{tag}: the finalized round came back: {e}"));
    admin.shutdown().expect("shutdown");
    child.wait().expect("reap the final daemon");
    // Success: this schedule needs no post-mortem artifact.
    let _ = std::fs::remove_dir_all(&dir);
    (finalized.group_totals, finalized.accepted)
}

fn schedule(index: u64) -> BTreeMap<u64, Kill> {
    let mut state = 0x51ab_c011u64.wrapping_add(index.wrapping_mul(0x9E37_79B9));
    let mut kills = BTreeMap::new();
    for _ in 0..1 + splitmix64(&mut state) % 3 {
        kills.insert(splitmix64(&mut state) % LAST_KILL_INDEX, Kill::Sigkill);
    }
    if index % 3 == 2 {
        // One torn-append kill, strictly after the SIGKILLs so its
        // watcher never races another kill's respawn. The byte threshold
        // clears startup compaction (one checkpoint record, 98 bytes for
        // this round) but is crossed by the first post-restart report
        // batches.
        let last = kills.keys().max().copied().unwrap_or(0);
        let threshold = 128 + splitmix64(&mut state) % 128;
        kills.insert((last + 4).min(LAST_KILL_INDEX), Kill::TornAppend(threshold));
    }
    kills
}

/// ≥ 20 randomized kill schedules, every one of which must finalize
/// bit-identically to the fault-free reference run of the same binary.
#[test]
fn sigkill_schedules_finalize_bit_identically() {
    let reference = run_schedule("reference", &BTreeMap::new());
    assert_eq!(reference.1, POPULATION as u64);
    for index in 0..SCHEDULES {
        let kills = schedule(index);
        assert!(!kills.is_empty(), "every schedule must kill at least once");
        let tag = format!("schedule-{index}");
        let outcome = run_schedule(&tag, &kills);
        assert_eq!(
            outcome.1, reference.1,
            "{tag} ({kills:?}): accepted count diverged"
        );
        assert_eq!(
            outcome.0, reference.0,
            "{tag} ({kills:?}): finalized totals are not bit-identical"
        );
    }
    assert_eq!(
        CollectorClient::pending_flush_failed(),
        0,
        "a reconnect counted its dropped connection as a failed flush"
    );
}

/// The same schedules with two concurrent uploaders, whose records the
/// daemon journals and folds interleaved and whose syncs it shares: still
/// bit-identical to the fault-free single-uploader run. Every `vector()`
/// entry is a quarter-integer, so the totals are exact in any fold order.
#[test]
fn sigkill_schedules_with_two_uploaders_finalize_bit_identically() {
    let reference = run_schedule("two-uploaders-reference", &BTreeMap::new());
    assert_eq!(reference.1, POPULATION as u64);
    for index in 0..SCHEDULES {
        let kills = schedule(index);
        let tag = format!("two-uploaders-schedule-{index}");
        let outcome = run_uploaders(&tag, &kills, 2);
        assert_eq!(
            outcome.1, reference.1,
            "{tag} ({kills:?}): accepted count diverged"
        );
        assert_eq!(
            outcome.0, reference.0,
            "{tag} ({kills:?}): finalized totals are not bit-identical"
        );
    }
    assert_eq!(
        CollectorClient::pending_flush_failed(),
        0,
        "a reconnect counted its dropped connection as a failed flush"
    );
}

/// A reconnect that loses nothing counts nothing: the replaced
/// connection dies with its frames unflushed, but those frames are in
/// the resend window, and only a dropped client may count a failed
/// flush. Every test here ends by reading the process-wide counter.
#[test]
fn a_lossless_reconnect_counts_no_failed_flush() {
    let dir = crash_root().join("lossless-reconnect");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create dir");
    let port = free_port();
    let mut daemon = spawn_daemon(&dir, port, None);
    let mut client = retrying_client(port);
    let channel = RoundChannel::DegreeVector {
        population: 8,
        groups: GROUPS,
    };
    client.open_round(ROUND, channel, Some(64)).expect("open");
    for user in 0..3u64 {
        client
            .queue_degree_vector(user, &vector(user))
            .expect("queue");
    }
    client.fault_disconnect();
    let summary = client
        .close_round(ROUND)
        .expect("close across the reconnect");
    assert_eq!(summary.counters.accepted, 3);
    assert!(
        client.reconnects() >= 1,
        "the fault never forced a reconnect"
    );
    client.shutdown().expect("shutdown");
    daemon.wait().expect("reap");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        CollectorClient::pending_flush_failed(),
        0,
        "a reconnect counted its dropped connection as a failed flush"
    );
}

/// A daemon that dies while *recovering* (torn hook armed so tightly it
/// fires during startup compaction's checkpoint record) must still come
/// back on the next, unarmed restart — recovery itself is crash-safe.
#[test]
fn a_crash_during_recovery_is_recoverable() {
    let dir = crash_root().join("recovery-crash");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create dir");
    let port = free_port();
    let mut daemon = spawn_daemon(&dir, port, None);
    let mut client = retrying_client(port);
    client
        .open_round(
            ROUND,
            RoundChannel::DegreeVector {
                population: 16,
                groups: GROUPS,
            },
            Some(256),
        )
        .expect("open");
    for user in 0..8u64 {
        client
            .queue_degree_vector(user, &vector(user))
            .expect("queue");
    }
    client.sync().expect("barrier");
    daemon.kill().expect("SIGKILL");
    daemon.wait().expect("reap");
    // Threshold 1: startup compaction's own checkpoint-record append
    // crosses it, so this incarnation aborts mid-recovery before it ever
    // prints ADDR. spawn_daemon would retry such a death; spawn by hand
    // to give it exactly one shot.
    let mut command = Command::new(env!("CARGO_BIN_EXE_ldp-collectord"));
    command
        .arg("--addr")
        .arg(format!("127.0.0.1:{port}"))
        .arg("--data-dir")
        .arg(&dir)
        .arg("--shards")
        .arg(SHARDS.to_string())
        .env("LDP_WAL_KILL_AFTER_BYTES", "1")
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    let mut dying = command.spawn().expect("spawn the doomed incarnation");
    let status = dying.wait().expect("the doomed incarnation exits");
    assert!(!status.success(), "the armed daemon must abort in recovery");
    // The unarmed restart recovers everything the barrier made durable.
    let mut daemon = spawn_daemon(&dir, port, None);
    for user in 8..16u64 {
        client
            .queue_degree_vector(user, &vector(user))
            .expect("queue after recovery");
    }
    let summary = client.close_round(ROUND).expect("close");
    assert_eq!(summary.counters.accepted, 16);
    let finalized = client.finalize_degree_vector(ROUND).expect("finalize");
    assert_eq!(finalized.accepted, 16);
    client.shutdown().expect("shutdown");
    daemon.wait().expect("reap");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        CollectorClient::pending_flush_failed(),
        0,
        "a reconnect counted its dropped connection as a failed flush"
    );
}

/// A daemon that dies between two of startup compaction's checkpoint
/// records must lose neither round: the first round's record may not
/// prune the old segments the second round still needs.
#[test]
fn a_crash_between_compaction_checkpoints_loses_no_round() {
    let dir = crash_root().join("compaction-crash");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create dir");
    let port = free_port();
    let mut daemon = spawn_daemon(&dir, port, None);
    let mut client = retrying_client(port);
    let channel = RoundChannel::DegreeVector {
        population: 16,
        groups: GROUPS,
    };
    for round in [ROUND, ROUND + 1] {
        client.open_round(round, channel, Some(256)).expect("open");
        for user in 0..8u64 {
            client
                .queue_degree_vector(user, &vector(user))
                .expect("queue");
        }
    }
    client.sync().expect("barrier");
    daemon.kill().expect("SIGKILL");
    daemon.wait().expect("reap");
    // Each round's compaction record is 98 bytes, so a 128-byte
    // threshold lets the first one land and tears the second.
    let mut command = Command::new(env!("CARGO_BIN_EXE_ldp-collectord"));
    command
        .arg("--addr")
        .arg(format!("127.0.0.1:{port}"))
        .arg("--data-dir")
        .arg(&dir)
        .arg("--shards")
        .arg(SHARDS.to_string())
        .env("LDP_WAL_KILL_AFTER_BYTES", "128")
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    let mut dying = command.spawn().expect("spawn the doomed incarnation");
    // A daemon that outlives compaction would serve forever: bound the
    // wait, so a smaller record fails this test instead of hanging it.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while dying.try_wait().expect("poll").is_none() {
        if std::time::Instant::now() > deadline {
            let _ = dying.kill();
            let _ = dying.wait();
            panic!("the armed daemon survived startup compaction");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut daemon = spawn_daemon(&dir, port, None);
    for round in [ROUND, ROUND + 1] {
        let summary = client.close_round(round).expect("close a recovered round");
        assert_eq!(summary.counters.accepted, 8, "round {round}");
    }
    client.shutdown().expect("shutdown");
    daemon.wait().expect("reap");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        CollectorClient::pending_flush_failed(),
        0,
        "a reconnect counted its dropped connection as a failed flush"
    );
}
