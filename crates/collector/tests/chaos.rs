//! Fault injection: a `ChaosClient` that speaks raw, *deliberately
//! broken* wire bytes at the daemon — frames truncated mid-write,
//! batches stalled half-written, connections dropped at seeded-random
//! byte offsets — while honest rounds run beside it.
//!
//! The pins: every chaos outcome is a typed, bounded failure (a dropped
//! connection, a reaped staller, a counted invalid) — never a panic, a
//! hang, or a half-ingested frame — and honest rounds sharing the daemon
//! finalize **bit-identical** to a chaos-free run.

use ldp_collector::{
    CollectorClient, CollectorConfig, CollectorError, CollectorServer, RoundChannel,
};
use ldp_graph::datasets::Dataset;
use ldp_graph::Xoshiro256pp;
use ldp_protocols::wire;
use ldp_protocols::{LfGdpr, UserReport};
use rand::Rng;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Spawns a daemon with a fault-friendly stall timeout so reap tests run
/// in milliseconds, not minutes.
fn spawn_chaos_daemon(
    config: CollectorConfig,
    stall: Duration,
) -> (
    SocketAddr,
    std::thread::JoinHandle<Result<(), CollectorError>>,
) {
    let mut server = CollectorServer::bind(("127.0.0.1", 0), config)
        .expect("bind loopback daemon")
        .with_stall_timeout(stall);
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.serve());
    (addr, handle)
}

fn shutdown(addr: SocketAddr, handle: std::thread::JoinHandle<Result<(), CollectorError>>) {
    let mut client = CollectorClient::connect(addr).expect("connect for shutdown");
    client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread").expect("daemon exit");
}

/// A raw-socket client that performs a *valid* handshake and then
/// misbehaves on purpose. All damage is byte-exact and seeded, so every
/// run injects the same faults.
struct ChaosClient {
    stream: TcpStream,
}

impl ChaosClient {
    fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut header = Vec::new();
        wire::write_stream_header(&mut header).expect("header encodes");
        (&stream).write_all(&header)?;
        let mut server_header = [0u8; 6];
        (&stream).read_exact(&mut server_header)?;
        wire::read_stream_header(&mut &server_header[..]).expect("server speaks the protocol");
        Ok(ChaosClient { stream })
    }

    /// One complete, well-formed one-entry `REPORT_BATCH` frame as raw
    /// bytes.
    fn report_frame(round_id: u64, user_id: u64, vector: &[f64]) -> Vec<u8> {
        Self::batch_frame(
            round_id,
            &[(user_id, UserReport::DegreeVector(vector.to_vec()))],
        )
    }

    /// One complete, well-formed routed `REPORT_BATCH` frame.
    fn batch_frame(round_id: u64, entries: &[(u64, UserReport)]) -> Vec<u8> {
        let mut payload = Vec::new();
        wire::encode_routed_batch(round_id, entries, &mut payload);
        let mut frame = Vec::new();
        wire::write_frame(
            &mut frame,
            ldp_collector::server::frames::REPORT_BATCH,
            &payload,
        )
        .expect("frame encodes");
        frame
    }

    fn write_all(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Writes exactly `cut` bytes of `bytes` — a frame truncated
    /// mid-write when `cut` lands inside it.
    fn write_truncated(&mut self, bytes: &[u8], cut: usize) -> std::io::Result<()> {
        self.stream.write_all(&bytes[..cut.min(bytes.len())])
    }
}

/// Chaos clients stream complete reports into a sacrificial round, then
/// truncate a frame mid-write and hang up. Everything complete folds
/// exactly once; the cut frame is never half-ingested; an honest round
/// running beside the carnage finalizes bit-identical to the in-process
/// aggregation.
#[test]
fn truncated_writers_fold_exactly_their_complete_frames() {
    let n = 100usize;
    let g = Dataset::Facebook.generate_with_nodes(n, 3);
    let proto = LfGdpr::new(4.0).unwrap();
    let reports = proto.collect_honest(&g, &Xoshiro256pp::new(17));
    let reference = proto.aggregate(&reports);

    let (addr, handle) = spawn_chaos_daemon(
        CollectorConfig {
            shards: 2,
            ..CollectorConfig::default()
        },
        Duration::from_millis(250),
    );
    let mut coordinator = CollectorClient::connect(addr).unwrap();
    coordinator
        .open_round(
            1,
            RoundChannel::Adjacency {
                population: n,
                p_keep: proto.p_keep(),
            },
            None,
        )
        .unwrap();
    // The sacrificial round the chaos fleet shoots at.
    let victims = 4u64;
    let per_victim = 25u64;
    coordinator
        .open_round(
            2,
            RoundChannel::DegreeVector {
                population: (victims * per_victim) as usize,
                groups: 2,
            },
            None,
        )
        .unwrap();

    std::thread::scope(|scope| {
        // Honest uploader for round 1 in parallel with the chaos fleet.
        let reports = &reports;
        scope.spawn(move || {
            let mut client = CollectorClient::connect(addr)
                .expect("honest connect")
                .with_batch_size(8);
            client.set_round(1).expect("set round");
            for (id, report) in reports.iter().enumerate() {
                client.queue_adjacency_report(id as u64, report).unwrap();
            }
            client.sync().expect("honest sync");
        });
        // Each chaos client: `per_victim` complete frames, then one
        // frame cut at a seeded-random interior byte, then hangup.
        for v in 0..victims {
            scope.spawn(move || {
                let mut rng = Xoshiro256pp::new(9000 + v);
                let mut chaos = ChaosClient::connect(addr).expect("chaos connect");
                for k in 0..per_victim {
                    let id = v * per_victim + k;
                    let frame = ChaosClient::report_frame(2, id, &[1.0, id as f64]);
                    chaos.write_all(&frame).expect("complete frame");
                }
                let doomed = ChaosClient::report_frame(2, 10_000 + v, &[7.0, 7.0]);
                let cut = rng.gen_range(1..doomed.len());
                chaos.write_truncated(&doomed, cut).expect("cut frame");
                // Drop: the connection dies with a partial frame queued.
            });
        }
    });

    // The chaos sockets are closed; give the pool a beat to pump their
    // buffered tails through to EOF before reading the counters.
    std::thread::sleep(Duration::from_millis(500));
    let summary = coordinator.close_round(2).unwrap();
    assert_eq!(
        summary.counters.accepted,
        victims * per_victim,
        "every complete frame folds exactly once"
    );
    assert_eq!(summary.counters.rejected_invalid, 0);
    let out = coordinator.finalize_degree_vector(2).unwrap();
    // The truncated frames' payloads (7.0 in group 0) must not appear.
    assert_eq!(out.group_totals[0], (victims * per_victim) as f64);

    let summary = coordinator.close_round(1).unwrap();
    assert_eq!(summary.counters.accepted, n as u64);
    let view = coordinator.finalize_adjacency(1).unwrap();
    assert_eq!(view.matrix(), reference.matrix());
    assert_eq!(view.reported_degrees(), reference.reported_degrees());
    drop(coordinator);
    shutdown(addr, handle);
}

/// A half-written batch that stops flowing is reaped by the stall
/// timeout: the staller's socket is dropped (it reads EOF), its session
/// slot frees, no partial entry reaches any aggregate, and honest
/// traffic is never blocked behind it.
#[test]
fn stalled_half_written_batches_are_reaped() {
    let n = 60usize;
    let g = Dataset::Facebook.generate_with_nodes(n, 5);
    let proto = LfGdpr::new(4.0).unwrap();
    let reports = proto.collect_honest(&g, &Xoshiro256pp::new(23));
    let reference = proto.aggregate(&reports);

    let stall = Duration::from_millis(200);
    let (addr, handle) = spawn_chaos_daemon(
        CollectorConfig {
            shards: 2,
            max_sessions: 4,
            ..CollectorConfig::default()
        },
        stall,
    );
    let mut coordinator = CollectorClient::connect(addr).unwrap();
    coordinator
        .open_round(
            2,
            RoundChannel::DegreeVector {
                population: 10,
                groups: 1,
            },
            None,
        )
        .unwrap();

    // Two stallers: each writes *half* of a well-formed batch frame and
    // then goes quiet, holding the socket open. With max_sessions = 4
    // and the coordinator holding one slot, unreaped stallers would
    // leave only one slot for the honest round below.
    let entries: Vec<(u64, UserReport)> = (0..8u64)
        .map(|id| (id, UserReport::DegreeVector(vec![1.0])))
        .collect();
    let frame = ChaosClient::batch_frame(2, &entries);
    let mut stallers = Vec::new();
    for _ in 0..2 {
        let mut staller = ChaosClient::connect(addr).expect("staller connect");
        staller
            .write_truncated(&frame, frame.len() / 2)
            .expect("half batch");
        stallers.push(staller);
    }
    std::thread::sleep(stall + Duration::from_millis(300));

    // Reaped: the daemon hung up on the stallers mid-frame.
    for staller in &mut stallers {
        staller
            .stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let mut sink = [0u8; 64];
        match staller.stream.read(&mut sink) {
            Ok(0) | Err(_) => {}
            Ok(k) => panic!("staller read {k} bytes from a supposedly dropped session"),
        }
    }

    // Their slots are free and their half-batch never folded: an honest
    // round still runs to a bit-identical finish.
    let mut honest = CollectorClient::connect(addr).unwrap();
    let view = honest
        .run_adjacency_round(1, proto.p_keep(), &reports)
        .unwrap();
    assert_eq!(view.matrix(), reference.matrix());
    let summary = coordinator.close_round(2).unwrap();
    assert_eq!(summary.counters.accepted, 0, "no half-batch entry folded");
    drop(honest);
    drop(stallers);
    drop(coordinator);
    shutdown(addr, handle);
}

/// The storm: a seeded fleet of chaos clients each builds a valid
/// multi-frame byte stream (reports and batches, aimed at a sacrificial
/// round and at rounds that do not exist) and hangs up at a random byte
/// offset — mid-handshake, between frames, mid-frame, anywhere. Two
/// honest rounds run through the storm and finalize bit-identical to
/// their references; the daemon survives to a clean shutdown.
#[test]
fn random_drop_storm_leaves_honest_rounds_bit_identical() {
    let n = 90usize;
    let g = Dataset::Facebook.generate_with_nodes(n, 7);
    let proto = LfGdpr::new(4.0).unwrap();
    let reports = proto.collect_honest(&g, &Xoshiro256pp::new(41));
    let reference = proto.aggregate(&reports);
    let dv_population = 40u64;

    let (addr, handle) = spawn_chaos_daemon(
        CollectorConfig {
            shards: 2,
            ..CollectorConfig::default()
        },
        Duration::from_millis(250),
    );
    let mut coordinator = CollectorClient::connect(addr).unwrap();
    coordinator
        .open_round(
            1,
            RoundChannel::Adjacency {
                population: n,
                p_keep: proto.p_keep(),
            },
            None,
        )
        .unwrap();
    coordinator
        .open_round(
            2,
            RoundChannel::DegreeVector {
                population: dv_population as usize,
                groups: 1,
            },
            None,
        )
        .unwrap();
    // The storm target nobody will ever read.
    coordinator
        .open_round(
            3,
            RoundChannel::DegreeVector {
                population: 1 << 16,
                groups: 4,
            },
            None,
        )
        .unwrap();

    std::thread::scope(|scope| {
        // Honest round 1 (adjacency, batched) and round 2 (degree
        // vectors, frame by frame) upload through the storm.
        let reports = &reports;
        scope.spawn(move || {
            let mut client = CollectorClient::connect(addr)
                .expect("honest connect")
                .with_batch_size(13);
            client.set_round(1).expect("set round");
            for (id, report) in reports.iter().enumerate() {
                client.queue_adjacency_report(id as u64, report).unwrap();
            }
            client.sync().expect("honest sync");
        });
        scope.spawn(move || {
            let mut client = CollectorClient::connect(addr)
                .expect("honest connect")
                .with_batch_size(1);
            client.set_round(2).expect("set round");
            for id in 0..dv_population {
                client.queue_degree_vector(id, &[id as f64]).unwrap();
            }
            client.sync().expect("honest sync");
        });
        for storm in 0..3u64 {
            scope.spawn(move || {
                let mut rng = Xoshiro256pp::new(31_000 + storm);
                for volley in 0..6u64 {
                    let Ok(mut chaos) = ChaosClient::connect(addr) else {
                        continue;
                    };
                    // A plausible byte stream: single reports and small
                    // batches, at the sacrificial round or at ghosts.
                    let mut bytes = Vec::new();
                    for k in 0..rng.gen_range(1..8u64) {
                        let round = if rng.gen_range(0..3u32) == 0 {
                            900 + rng.gen_range(0..20u64) // nobody opened these
                        } else {
                            3
                        };
                        let id = storm * 10_000 + volley * 100 + k;
                        if rng.gen_range(0..2u32) == 0 {
                            bytes.extend_from_slice(&ChaosClient::report_frame(
                                round,
                                id,
                                &[1.0, 2.0, 3.0, 4.0],
                            ));
                        } else {
                            let entries: Vec<(u64, UserReport)> = (0..4u64)
                                .map(|j| {
                                    (id + j, UserReport::DegreeVector(vec![1.0, 1.0, 1.0, 1.0]))
                                })
                                .collect();
                            bytes.extend_from_slice(&ChaosClient::batch_frame(round, &entries));
                        }
                    }
                    // Hang up anywhere — including byte 0.
                    let cut = rng.gen_range(0..=bytes.len());
                    chaos.write_truncated(&bytes, cut).expect("storm write");
                    // Half the time, linger a moment before dropping so
                    // the daemon sees both instant and delayed deaths.
                    if rng.gen_range(0..2u32) == 0 {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                }
            });
        }
    });

    let summary = coordinator.close_round(1).unwrap();
    assert_eq!(summary.counters.accepted, n as u64);
    assert_eq!(summary.counters.rejected_invalid, 0);
    let view = coordinator.finalize_adjacency(1).unwrap();
    assert_eq!(view.matrix(), reference.matrix());
    assert_eq!(view.reported_degrees(), reference.reported_degrees());

    let summary = coordinator.close_round(2).unwrap();
    assert_eq!(summary.counters.accepted, dv_population);
    let out = coordinator.finalize_degree_vector(2).unwrap();
    assert_eq!(
        out.group_totals,
        vec![(0..dv_population).sum::<u64>() as f64]
    );

    // The storm round absorbed only complete frames; the daemon is
    // healthy enough to close it and shut down cleanly.
    coordinator.close_round(3).unwrap();
    drop(coordinator);
    shutdown(addr, handle);
}

/// The named counter's value in a `STATS` scrape (counters only).
fn stat_counter(entries: &[wire::StatsEntry], name: &str) -> u64 {
    entries
        .iter()
        .find_map(|e| match e.value {
            wire::StatsValue::Counter(v) if e.name == name => Some(v),
            _ => None,
        })
        .unwrap_or_else(|| panic!("scrape has no counter named {name}"))
}

/// Sum of the per-shard fold counters — the registry-side twin of the
/// accepted count across every round the daemon ever served.
fn folded_total(entries: &[wire::StatsEntry]) -> u64 {
    entries
        .iter()
        .filter(|e| e.name.starts_with("ingest_reports_folded_shard_"))
        .map(|e| match e.value {
            wire::StatsValue::Counter(v) => v,
            _ => 0,
        })
        .sum()
}

/// The observability pin under chaos: whatever the adversarial schedule
/// — truncated writers, reaped stallers, late frames at a closed round —
/// the scraped counters reconcile **exactly** with the round's close
/// summary. Sum of per-shard fold counters == accepted; the stall-reap
/// counter == the number of injected stallers; a late report's typed
/// refusal shows up both as an `err_round_closed` tick and in the
/// re-close's malformed tally. A mid-intake scrape never overcounts.
#[test]
fn stats_reconcile_exactly_with_summaries_under_chaos() {
    let victims = 4u64;
    let per_victim = 25u64;
    let population = victims * per_victim;
    let stall = Duration::from_millis(200);
    let (addr, handle) = spawn_chaos_daemon(
        CollectorConfig {
            shards: 2,
            ..CollectorConfig::default()
        },
        stall,
    );
    let mut coordinator = CollectorClient::connect(addr).unwrap();
    coordinator
        .open_round(
            2,
            RoundChannel::DegreeVector {
                population: population as usize,
                groups: 2,
            },
            None,
        )
        .unwrap();

    std::thread::scope(|scope| {
        // Truncated writers: complete frames fold, the cut tail must not.
        for v in 0..victims {
            scope.spawn(move || {
                let mut rng = Xoshiro256pp::new(77_000 + v);
                let mut chaos = ChaosClient::connect(addr).expect("chaos connect");
                for k in 0..per_victim {
                    let id = v * per_victim + k;
                    let frame = ChaosClient::report_frame(2, id, &[1.0, id as f64]);
                    chaos.write_all(&frame).expect("complete frame");
                }
                let doomed = ChaosClient::report_frame(2, 10_000 + v, &[7.0, 7.0]);
                let cut = rng.gen_range(1..doomed.len());
                chaos.write_truncated(&doomed, cut).expect("cut frame");
            });
        }
        // A scrape racing the fleet is relaxed but never invents folds.
        let mid = coordinator.stats().expect("mid-intake scrape");
        assert!(
            folded_total(&mid) <= population,
            "mid-intake scrape overcounts folds"
        );
    });

    // Stallers for the reap counter: half a batch, then silence.
    let entries: Vec<(u64, UserReport)> = (0..8u64)
        .map(|id| (id, UserReport::DegreeVector(vec![1.0, 0.0])))
        .collect();
    let frame = ChaosClient::batch_frame(2, &entries);
    let mut stallers = Vec::new();
    for _ in 0..2 {
        let mut staller = ChaosClient::connect(addr).expect("staller connect");
        staller
            .write_truncated(&frame, frame.len() / 2)
            .expect("half batch");
        stallers.push(staller);
    }
    std::thread::sleep(stall + Duration::from_millis(400));

    let summary = coordinator.close_round(2).unwrap();
    assert_eq!(summary.counters.accepted, population);
    assert!(summary.counters.finalized_at_close);
    let scrape = coordinator.stats().unwrap();
    assert_eq!(
        folded_total(&scrape),
        summary.counters.accepted,
        "per-shard fold counters must reconcile exactly with the summary"
    );
    assert_eq!(
        stat_counter(&scrape, "stall_reaps"),
        stallers.len() as u64,
        "every injected staller reaps exactly once"
    );

    // One late report at the closed round: typed warn-once ERR, counted
    // by code in the registry and as malformed in the re-close summary.
    coordinator.queue_degree_vector(0, &[9.0, 9.0]).unwrap();
    let err = coordinator.sync().unwrap_err();
    assert!(matches!(
        err,
        CollectorError::Remote {
            code: ldp_collector::server::codes::ROUND_CLOSED,
            ..
        }
    ));
    let scrape = coordinator.stats().unwrap();
    assert_eq!(stat_counter(&scrape, "err_round_closed"), 1);
    let reclosed = coordinator.close_round(2).unwrap();
    assert_eq!(reclosed.counters.rejected_malformed, 1);
    assert_eq!(folded_total(&scrape), reclosed.counters.accepted);

    drop(stallers);
    drop(coordinator);
    shutdown(addr, handle);
}

/// A connect refused at the session cap ticks `sessions_refused_cap`
/// exactly once per refusal, and the scrape surface stays reachable the
/// moment a slot frees.
#[test]
fn session_cap_refusals_are_counted_exactly() {
    let (addr, handle) = spawn_chaos_daemon(
        CollectorConfig {
            shards: 1,
            max_sessions: 1,
            ..CollectorConfig::default()
        },
        Duration::from_secs(60),
    );
    let holder = CollectorClient::connect(addr).unwrap();
    // The cap is held, so this connect is refused after the bounded
    // admit wait; the refusal surfaces on the session's first call.
    let mut refused = CollectorClient::connect(addr).unwrap();
    let err = refused.sync().unwrap_err();
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

    let mut client = CollectorClient::connect(addr).unwrap();
    let scrape = client.stats().unwrap();
    assert_eq!(stat_counter(&scrape, "sessions_refused_cap"), 1);
    assert_eq!(stat_counter(&scrape, "err_session_cap"), 1);
    drop(client);
    shutdown(addr, handle);
}

/// A peer refused at the session cap that keeps trickling bytes cannot
/// hold the accept loop: the daemon drains a refused socket under one
/// bounded deadline, so the next client is admitted promptly once a
/// slot frees.
#[test]
fn a_trickling_refused_peer_cannot_hold_the_accept_loop() {
    use ldp_collector::server::{codes, frames};
    let (addr, handle) = spawn_chaos_daemon(
        CollectorConfig {
            shards: 1,
            max_sessions: 1,
            ..CollectorConfig::default()
        },
        Duration::from_secs(60),
    );
    let holder = CollectorClient::connect(addr).unwrap();
    // Refused after the bounded admit wait: a stream header, then one
    // typed ERR; the daemon then drains the socket.
    let mut refused = ChaosClient::connect(addr).expect("a refused peer still reads a header");
    let mut payload = Vec::new();
    assert_eq!(
        wire::read_frame(&mut &refused.stream, &mut payload).expect("refusal"),
        Some(frames::ERR)
    );
    assert_eq!(payload.first(), Some(&codes::SESSION_CAP));
    // One byte every 300 ms for 6 s, each well inside any per-read
    // timeout of the drain.
    let trickle = std::thread::spawn(move || {
        for _ in 0..20 {
            if refused.write_all(&[0]).is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(300));
        }
    });
    drop(holder);
    let freed = Instant::now();
    let mut client = CollectorClient::connect(addr).unwrap();
    client.sync().expect("admitted once the slot frees");
    let waited = freed.elapsed();
    assert!(
        waited < Duration::from_secs(2),
        "the next client was admitted {waited:?} after the slot freed"
    );
    drop(client);
    trickle.join().expect("trickle thread");
    shutdown(addr, handle);
}

/// A `SHUTDOWN` while other sessions are still open — one idle, one
/// holding a half-written batch — ends `serve` within a second, and the
/// partial frame is never folded: a restart on the journal recovers the
/// round with exactly the one complete report.
#[test]
fn shutdown_with_live_sessions_is_prompt_and_folds_no_partial_frame() {
    use ldp_collector::server::frames;
    use ldp_collector::{FsyncPolicy, RoundCounters};
    let dir = std::env::temp_dir().join(format!("ldp-chaos-shutdown-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = CollectorConfig {
        shards: 1,
        ..CollectorConfig::default()
    };
    let channel = RoundChannel::DegreeVector {
        population: 4,
        groups: 2,
    };
    let (addr, handle) =
        CollectorServer::spawn_durable(config.clone(), &dir, FsyncPolicy::Off).expect("daemon");
    let mut coordinator = CollectorClient::connect(addr).unwrap();
    coordinator.open_round(1, channel, None).unwrap();

    // The idle session folds one complete report, proves it with a SYNC
    // ack, then stays connected and quiet.
    let mut idle = ChaosClient::connect(addr).expect("idle connect");
    let mut bytes = ChaosClient::report_frame(1, 0, &[1.0, 2.0]);
    wire::write_frame(&mut bytes, frames::SYNC, &[]).expect("frame");
    idle.write_all(&bytes).expect("write");
    let mut payload = Vec::new();
    assert_eq!(
        wire::read_frame(&mut &idle.stream, &mut payload).expect("ack"),
        Some(frames::ACK)
    );
    // The other session stops halfway through a batch.
    let mut partial = ChaosClient::connect(addr).expect("partial connect");
    let frame = ChaosClient::report_frame(1, 1, &[3.0, 4.0]);
    partial
        .write_truncated(&frame, frame.len() / 2)
        .expect("write");
    std::thread::sleep(Duration::from_millis(100));

    coordinator.shutdown().expect("shutdown");
    let asked = Instant::now();
    while !handle.is_finished() {
        assert!(
            asked.elapsed() < Duration::from_secs(1),
            "serve still running 1 s after SHUTDOWN with live sessions"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.join().expect("daemon thread").expect("daemon exit");
    drop((idle, partial));

    let (addr, handle) =
        CollectorServer::spawn_durable(config, &dir, FsyncPolicy::Off).expect("recover");
    let mut client = CollectorClient::connect(addr).unwrap();
    let summary = client.close_round(1).unwrap();
    assert_eq!(
        summary.counters,
        RoundCounters {
            accepted: 1,
            ..RoundCounters::default()
        }
    );
    drop(client);
    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Opcode 0x02 — the retired singleton `REPORT` frame — is reserved: a
/// handshaken session that sends it gets exactly one typed
/// `ERR`/`BAD_FRAME`, and the session stays usable (its next `SYNC`
/// acks).
#[test]
fn the_retired_report_opcode_is_refused_typed() {
    use ldp_collector::server::{codes, frames};
    let (addr, handle) = spawn_chaos_daemon(
        CollectorConfig {
            shards: 1,
            ..CollectorConfig::default()
        },
        Duration::from_secs(60),
    );
    let mut chaos = ChaosClient::connect(addr).expect("chaos connect");
    chaos
        .stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    // What a v2 singleton report looked like: round 1, user 0, a
    // one-group degree vector.
    let mut bytes = Vec::new();
    wire::write_frame(&mut bytes, 0x02, &[1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0]).expect("frame");
    wire::write_frame(&mut bytes, frames::SYNC, &[]).expect("frame");
    chaos.write_all(&bytes).expect("write");
    let mut reader = &chaos.stream;
    let mut payload = Vec::new();
    assert_eq!(
        wire::read_frame(&mut reader, &mut payload).expect("reply"),
        Some(frames::ERR)
    );
    assert_eq!(payload.first(), Some(&codes::BAD_FRAME));
    assert_eq!(
        wire::read_frame(&mut reader, &mut payload).expect("reply"),
        Some(frames::ACK),
        "one ERR, then the SYNC acks"
    );
    drop(chaos);
    shutdown(addr, handle);
}

/// A peer that asks for a `VIEW` and stops reading holds its session for
/// one write timeout: the kernel's growing buffers still take a few bytes
/// per write, which must not restart the timeout, and the write that
/// times out ends the session without a second, flushing write.
#[test]
fn a_stalled_view_reader_holds_its_session_for_one_write_timeout() {
    use ldp_collector::server::frames;
    use ldp_collector::MAX_ADJACENCY_POPULATION;
    use ldp_graph::BitSet;
    use ldp_protocols::AdjacencyReport;
    // The daemon's timeout on each write to a session socket.
    const WRITE_TIMEOUT: Duration = Duration::from_secs(5);
    let n = MAX_ADJACENCY_POPULATION;
    let (addr, handle) = spawn_chaos_daemon(
        CollectorConfig {
            shards: 2,
            ..CollectorConfig::default()
        },
        Duration::from_secs(60),
    );
    let mut client = CollectorClient::connect(addr).unwrap();
    let channel = RoundChannel::Adjacency {
        population: n,
        p_keep: 0.9,
    };
    client.open_round(1, channel, None).unwrap();
    let empty = AdjacencyReport::new(BitSet::new(n), 0.0);
    for id in 0..n as u64 {
        client.queue_adjacency_report(id, &empty).unwrap();
    }
    client.sync().unwrap();

    // The ~17 MB view outgrows the loopback socket buffers, so the
    // daemon's writes block once the reader stops reading.
    let mut reader = ChaosClient::connect(addr).expect("reader connect");
    let mut finalize = Vec::new();
    wire::write_frame(&mut finalize, frames::FINALIZE, &[1]).expect("frame");
    reader.write_all(&finalize).expect("finalize");
    let mut head = [0u8; 1];
    reader
        .stream
        .read_exact(&mut head)
        .expect("the view starts");
    let streaming = Instant::now();

    let sessions_active = |client: &mut CollectorClient| {
        let scrape = client.stats().expect("scrape");
        scrape.iter().find_map(|e| match e.value {
            wire::StatsValue::Gauge(v) if e.name == "sessions_active" => Some(v),
            _ => None,
        })
    };
    // The scraping client's own session is the one left.
    while sessions_active(&mut client) != Some(1) {
        assert!(
            streaming.elapsed() < WRITE_TIMEOUT * 3 / 2,
            "the stalled reader's session is still open {:?} into the view",
            streaming.elapsed()
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    drop(reader);
    drop(client);
    shutdown(addr, handle);
}
