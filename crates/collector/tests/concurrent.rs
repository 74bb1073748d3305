//! Concurrency equivalence: the acceptance pins of the parallel ingest
//! plane. M concurrent clients — disjoint slices, overlapping slices with
//! live duplicate races, batched frames, mid-stream checkpoints — must
//! finalize **bit-identical** to one sequential client, because the
//! adjacency fold is a commutative OR into id-sharded, exclusively-owned
//! rows.

use ldp_collector::{
    CollectorClient, CollectorConfig, CollectorError, CollectorServer, FsyncPolicy, IngestOutcome,
    RoundChannel, RoundCollector, RoundOutcome,
};
use ldp_graph::datasets::Dataset;
use ldp_graph::Xoshiro256pp;
use ldp_protocols::protocol::STREAM_ATTACK;
use ldp_protocols::wire;
use ldp_protocols::{AdjacencyReport, LfGdpr, UserReport};
use poison_core::{Attack, AttackerKnowledge, Mga, TargetMetric, ThreatModel};
use std::net::SocketAddr;
use std::path::Path;

fn spawn_daemon(
    max_sessions: usize,
) -> (
    SocketAddr,
    std::thread::JoinHandle<Result<(), CollectorError>>,
) {
    CollectorServer::spawn(CollectorConfig {
        shards: 4,
        max_sessions,
        ..CollectorConfig::default()
    })
    .expect("bind loopback daemon")
}

/// The `LDPK` snapshot in the data directory's last `CHECKPOINT`
/// journal record (the record's payload past its round id).
fn last_checkpoint_snapshot(dir: &Path) -> Option<Vec<u8>> {
    let mut segments: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "ldpw"))
        .collect();
    segments.sort();
    let mut snapshot = None;
    for segment in segments {
        let bytes = std::fs::read(segment).unwrap();
        let mut records = &bytes[5..];
        while let Some((record, rest)) = wire::split_frame(records).unwrap() {
            if record.kind == wire::frames::CHECKPOINT {
                let mut snap = record.payload;
                wire::get_varint(&mut snap).unwrap();
                snapshot = Some(snap.to_vec());
            }
            records = rest;
        }
    }
    snapshot
}

fn shutdown(addr: SocketAddr, handle: std::thread::JoinHandle<Result<(), CollectorError>>) {
    let mut client = CollectorClient::connect(addr).expect("connect for shutdown");
    client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread").expect("daemon exit");
}

fn honest_reports(n: usize, seed: u64) -> (LfGdpr, Vec<AdjacencyReport>) {
    let g = Dataset::Facebook.generate_with_nodes(n, 3);
    let proto = LfGdpr::new(4.0).unwrap();
    let reports = proto.collect_honest(&g, &Xoshiro256pp::new(seed));
    (proto, reports)
}

fn assert_views_identical(a: &ldp_protocols::PerturbedView, b: &ldp_protocols::PerturbedView) {
    assert_eq!(a.matrix(), b.matrix());
    assert_eq!(a.reported_degrees(), b.reported_degrees());
    for u in 0..a.num_users() {
        assert_eq!(a.perturbed_degree(u), b.perturbed_degree(u));
    }
}

/// [`honest_reports`] over `n - m_fake` genuine users, with the last
/// `m_fake` ids' reports crafted by MGA: every fake row sets the same
/// target columns, so uploaders fold crafted bits into shared columns.
fn mga_tailed_reports(n: usize, m_fake: usize, seed: u64) -> (LfGdpr, Vec<AdjacencyReport>) {
    let n_genuine = n - m_fake;
    let g = Dataset::Facebook
        .generate_with_nodes(n_genuine, 3)
        .with_isolated_nodes(m_fake);
    let proto = LfGdpr::new(4.0).unwrap();
    let base = Xoshiro256pp::new(seed);
    let mut reports = proto.collect_honest(&g, &base);
    let threat = ThreatModel::explicit(n_genuine, m_fake, (0..n_genuine).step_by(12).collect());
    let knowledge = AttackerKnowledge::derive(&proto, n, g.average_degree());
    let crafted = Mga::default().craft_adjacency(
        &proto,
        TargetMetric::DegreeCentrality,
        &threat,
        &knowledge,
        &mut base.derive(STREAM_ATTACK),
    );
    assert_eq!(crafted.len(), m_fake);
    reports.splice(n_genuine.., crafted);
    (proto, reports)
}

/// Four clients stream disjoint contiguous id slices concurrently (small
/// batch size, so many REPORT_BATCH frames interleave); the finalized
/// view is bit-identical to the in-process aggregation. Run on an honest
/// round and on one whose last 12 ids carry an MGA-crafted tail.
#[test]
fn disjoint_concurrent_clients_match_in_process() {
    let n = 240;
    let (addr, handle) = spawn_daemon(8);
    let mut coordinator = CollectorClient::connect(addr).unwrap();
    for (round, (proto, reports)) in [honest_reports(n, 21), mga_tailed_reports(n, 12, 21)]
        .into_iter()
        .enumerate()
    {
        let round = round as u64 + 1;
        let reference = proto.aggregate(&reports);
        coordinator
            .open_round(
                round,
                RoundChannel::Adjacency {
                    population: n,
                    p_keep: proto.p_keep(),
                },
                None,
            )
            .unwrap();
        let connections = 4;
        std::thread::scope(|scope| {
            for c in 0..connections {
                let reports = &reports;
                scope.spawn(move || {
                    let mut client = CollectorClient::connect(addr)
                        .expect("worker connect")
                        .with_batch_size(7);
                    client.set_round(round).expect("set round");
                    let lo = n * c / connections;
                    let hi = n * (c + 1) / connections;
                    for (id, report) in reports.iter().enumerate().take(hi).skip(lo) {
                        client.queue_adjacency_report(id as u64, report).unwrap();
                    }
                    // Barrier: the ACK proves this session's reports are
                    // folded before the coordinator closes.
                    client.sync().expect("sync");
                });
            }
        });
        let summary = coordinator.close_round(round).unwrap();
        assert_eq!(summary.counters.accepted, n as u64);
        assert_eq!(summary.counters.rejected_duplicate, 0);
        let view = coordinator.finalize_adjacency(round).unwrap();
        assert_views_identical(&view, &reference);
    }
    drop(coordinator);
    shutdown(addr, handle);
}

/// Overlapping id ranges: every client replays the full report set, so
/// the daemon sees live duplicate races on every id from all sessions at
/// once. First arrival wins per id — and since all arrivals carry the
/// same content, the finalize is bit-identical to one sequential client.
#[test]
fn overlapping_duplicate_races_match_sequential_client() {
    let n = 180;
    let (proto, reports) = honest_reports(n, 9);

    // Sequential single-client reference over the wire.
    let (addr, handle) = spawn_daemon(8);
    let mut client = CollectorClient::connect(addr).unwrap();
    let reference = client
        .run_adjacency_round(1, proto.p_keep(), &reports)
        .unwrap();

    // Three clients all replaying every id, concurrently. Quota must
    // admit the replays: duplicates charge it like any queued upload.
    let connections = 3u64;
    let mut coordinator = CollectorClient::connect(addr).unwrap();
    coordinator
        .open_round(
            2,
            RoundChannel::Adjacency {
                population: n,
                p_keep: proto.p_keep(),
            },
            Some(connections * n as u64),
        )
        .unwrap();
    std::thread::scope(|scope| {
        for _ in 0..connections {
            let reports = &reports;
            scope.spawn(move || {
                let mut client = CollectorClient::connect(addr)
                    .expect("worker connect")
                    .with_batch_size(16);
                client.set_round(2).expect("set round");
                for (id, report) in reports.iter().enumerate() {
                    client.queue_adjacency_report(id as u64, report).unwrap();
                }
                client.sync().expect("sync");
            });
        }
    });
    let summary = coordinator.close_round(2).unwrap();
    assert_eq!(summary.counters.accepted, n as u64);
    assert_eq!(
        summary.counters.rejected_duplicate,
        (connections - 1) * n as u64
    );
    let view = coordinator.finalize_adjacency(2).unwrap();
    assert_views_identical(&view, &reference);
    drop(coordinator);
    drop(client);
    shutdown(addr, handle);
}

/// Degree-vector rounds under concurrency: integral vectors (exact f64
/// sums, hence order-independent) from overlapping uploaders total
/// exactly once per user.
#[test]
fn concurrent_degree_vector_round_totals_exactly_once() {
    let n = 500usize;
    let groups = 4usize;
    let (addr, handle) = spawn_daemon(8);
    let mut coordinator = CollectorClient::connect(addr).unwrap();
    coordinator
        .open_round(
            5,
            RoundChannel::DegreeVector {
                population: n,
                groups,
            },
            Some(2 * n as u64),
        )
        .unwrap();
    // Two uploaders race the full id range with identical vectors.
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(move || {
                let mut client = CollectorClient::connect(addr)
                    .expect("worker connect")
                    .with_batch_size(32);
                client.set_round(5).expect("set round");
                for id in 0..n {
                    let v = [1.0, 2.0, (id % 7) as f64, (id / 3) as f64];
                    client.queue_degree_vector(id as u64, &v).unwrap();
                }
                client.sync().expect("sync");
            });
        }
    });
    let summary = coordinator.close_round(5).unwrap();
    assert_eq!(summary.counters.accepted, n as u64);
    assert_eq!(summary.counters.rejected_duplicate, n as u64);
    let out = coordinator.finalize_degree_vector(5).unwrap();
    assert_eq!(out.accepted, n as u64);
    let expect2: f64 = (0..n).map(|id| (id % 7) as f64).sum();
    let expect3: f64 = (0..n).map(|id| (id / 3) as f64).sum();
    assert_eq!(
        out.group_totals,
        vec![n as f64, 2.0 * n as f64, expect2, expect3]
    );
    drop(coordinator);
    shutdown(addr, handle);
}

/// Jumbo entries: degree vectors at the server's maximum group count
/// (~512 KiB each) must flush by *bytes* long before the entry-count
/// batch cap, so a legal round can never assemble a REPORT_BATCH frame
/// that overflows the wire's frame cap.
#[test]
fn jumbo_degree_vectors_flush_batches_by_bytes() {
    let n = 150usize;
    let groups = 1 << 16; // MAX_GROUPS — admitted
    let (addr, handle) = spawn_daemon(4);
    let mut client = CollectorClient::connect(addr).unwrap();
    client
        .open_round(
            1,
            RoundChannel::DegreeVector {
                population: n,
                groups,
            },
            None,
        )
        .unwrap();
    let mut vector = vec![0.0f64; groups];
    for id in 0..n {
        vector[0] = 1.0;
        vector[1] = (id % 3) as f64;
        // Default batch cap is 256 entries: without the byte bound this
        // would assemble one ~77 MB frame and die on OversizeFrame.
        client.queue_degree_vector(id as u64, &vector).unwrap();
    }
    let summary = client.close_round(1).unwrap();
    assert_eq!(summary.counters.accepted, n as u64);
    let out = client.finalize_degree_vector(1).unwrap();
    assert_eq!(out.group_totals[0], n as f64);
    assert_eq!(
        out.group_totals[1],
        (0..n).map(|id| (id % 3) as u64).sum::<u64>() as f64
    );
    drop(client);
    shutdown(addr, handle);
}

/// Checkpoint quiescence on a durable daemon: a CHECKPOINT frame races
/// two streaming sessions, and the live daemon then finalizes the round
/// bit-identical to the uninterrupted run. The snapshot lands on a frame
/// boundary — restored alone, with the full stream replayed over it, it
/// finalizes bit-identically too — and a daemon restarted on a copy of
/// the data directory taken before the live finalize recovers the round
/// (snapshot plus journal tail) and finalizes bit-identically as well.
#[test]
fn checkpoint_races_concurrent_sessions_and_resumes_bit_identical() {
    let n = 160;
    let (proto, reports) = honest_reports(n, 55);
    let reference = proto.aggregate(&reports);

    let dir = std::env::temp_dir().join(format!("ldp-concurrent-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = CollectorConfig {
        shards: 4,
        max_sessions: 8,
        ..CollectorConfig::default()
    };
    let (addr, handle) = CollectorServer::spawn_durable(config.clone(), &dir, FsyncPolicy::Off)
        .expect("bind durable loopback daemon");

    let mut coordinator = CollectorClient::connect(addr).unwrap();
    coordinator
        .open_round(
            3,
            RoundChannel::Adjacency {
                population: n,
                p_keep: proto.p_keep(),
            },
            // Replay headroom: the full set is re-sent after the snapshot.
            Some(4 * n as u64),
        )
        .unwrap();
    std::thread::scope(|scope| {
        for c in 0..2 {
            let reports = &reports;
            scope.spawn(move || {
                let mut client = CollectorClient::connect(addr)
                    .expect("worker connect")
                    .with_batch_size(5);
                client.set_round(3).expect("set round");
                for (id, report) in reports.iter().enumerate() {
                    if id % 2 == c {
                        client.queue_adjacency_report(id as u64, report).unwrap();
                    }
                }
                client.sync().expect("sync");
            });
        }
        // Race a snapshot against the streams.
        let coordinator = &mut coordinator;
        scope.spawn(move || {
            coordinator.checkpoint(3).expect("checkpoint");
        });
    });

    // Every session has synced, and journal appends are unbuffered
    // writes: a copy of the data directory taken now holds every record,
    // the checkpoint's included, as a crash at this instant would leave
    // them.
    let crashed = std::env::temp_dir().join(format!("ldp-concurrent-{}-copy", std::process::id()));
    let _ = std::fs::remove_dir_all(&crashed);
    std::fs::create_dir_all(&crashed).unwrap();
    for entry in std::fs::read_dir(&dir).unwrap().flatten() {
        std::fs::copy(entry.path(), crashed.join(entry.file_name())).unwrap();
    }

    // The live round still completes (reports were unacknowledged and
    // kept flowing after the snapshot).
    let summary = coordinator.close_round(3).unwrap();
    assert_eq!(summary.counters.accepted, n as u64);
    let live_view = coordinator.finalize_adjacency(3).unwrap();
    assert_views_identical(&live_view, &reference);
    drop(coordinator);
    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);

    // The snapshot alone, with the *full* stream replayed over it:
    // already-folded ids are rejected as duplicates, missing ids fold
    // now, and the finalize is bit-identical.
    let snapshot = last_checkpoint_snapshot(&crashed).expect("the checkpoint wrote a snapshot");
    let resumed = RoundCollector::new(config.clone()).unwrap();
    resumed
        .resume_round_into(&snapshot)
        .expect("restore snapshot");
    for (id, report) in reports.iter().enumerate() {
        let outcome = resumed
            .ingest_ref(3, id as u64, &UserReport::Adjacency(report.clone()))
            .unwrap();
        assert!(
            matches!(outcome, IngestOutcome::Queued | IngestOutcome::Duplicate),
            "unexpected outcome {outcome:?} for id {id}"
        );
    }
    resumed.close_round(3).unwrap();
    let RoundOutcome::Adjacency(finalized) = resumed.finalize(3).unwrap() else {
        panic!("adjacency round expected");
    };
    let resumed_view = finalized.into_view();
    assert_views_identical(&resumed_view, &reference);

    // Recovery: a daemon restarted on the copied directory holds every
    // report the sessions synced, and finalizes the round over the wire.
    let (addr, handle) =
        CollectorServer::spawn_durable(config, &crashed, FsyncPolicy::Off).expect("restart");
    let mut coordinator = CollectorClient::connect(addr).unwrap();
    let summary = coordinator.close_round(3).unwrap();
    assert_eq!(summary.counters.accepted, n as u64);
    let recovered_view = coordinator.finalize_adjacency(3).unwrap();
    assert_views_identical(&recovered_view, &reference);
    drop(coordinator);
    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&crashed);
}

/// A session cap of 1 still serves clients back to back (the worker
/// frees the slot when a session disconnects) — and when the cap is
/// genuinely held, a newcomer is *refused with a typed error* after a
/// bounded wait instead of parked forever behind a slot that may never
/// free. Regression for the session-gate starvation caveat: a client
/// fleet larger than the cap whose members depend on each other used to
/// deadlock in the accept queue; now the surplus connect fails fast with
/// `SESSION_CAP` and the caller can retry or rebalance.
#[test]
fn session_cap_refuses_typed_instead_of_starving() {
    let n = 40;
    let (proto, reports) = honest_reports(n, 2);
    let (addr, handle) = spawn_daemon(1);
    for round in 1..=2u64 {
        let mut client = CollectorClient::connect(addr).unwrap();
        let view = client
            .run_adjacency_round(round, proto.p_keep(), &reports)
            .unwrap();
        assert_eq!(view.num_users(), n);
        // Session must fully end before the next connect is served.
        drop(client);
    }

    // Hold the only slot, then connect again: the daemon answers the
    // newcomer with a stream header plus a typed refusal, so its first
    // call errors instead of hanging on a slot the holder never frees.
    let holder = CollectorClient::connect(addr).unwrap();
    let mut refused = CollectorClient::connect(addr).unwrap();
    let err = refused
        .open_round(
            9,
            RoundChannel::Adjacency {
                population: 4,
                p_keep: 0.9,
            },
            None,
        )
        .unwrap_err();
    assert!(
        matches!(
            err,
            CollectorError::Remote {
                code: ldp_collector::server::codes::SESSION_CAP,
                ..
            }
        ),
        "expected a SESSION_CAP refusal, got {err}"
    );
    drop(refused);
    drop(holder);
    shutdown(addr, handle);
}
