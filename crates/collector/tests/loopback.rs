//! Loopback integration: a real daemon on 127.0.0.1, a real client, and
//! the acceptance pin of this subsystem — a Scenario evaluated **over the
//! wire** (LF-GDPR + MGA + Detect2) bit-identical to the in-process
//! engine at the same seed.

use ldp_collector::server::frames;
use ldp_collector::{
    CollectorClient, CollectorConfig, CollectorError, CollectorServer, RoundChannel, ServeScenario,
    WireWorldRunner,
};
use ldp_graph::datasets::Dataset;
use ldp_graph::{BitSet, Xoshiro256pp};
use ldp_protocols::wire;
use ldp_protocols::{AdjacencyReport, LfGdpr, Metric, UserReport};
use poison_core::attack::Mga;
use poison_core::scenario::{Scenario, ScenarioReport};
use poison_core::{TargetSelection, ThreatModel};
use poison_defense::DegreeConsistencyDefense;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

fn spawn_daemon() -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<Result<(), CollectorError>>,
) {
    CollectorServer::spawn(CollectorConfig {
        shards: 4,
        ..CollectorConfig::default()
    })
    .expect("bind loopback daemon")
}

fn shutdown(
    addr: std::net::SocketAddr,
    handle: std::thread::JoinHandle<Result<(), CollectorError>>,
) {
    let mut client = CollectorClient::connect(addr).expect("connect for shutdown");
    client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread").expect("daemon exit");
}

#[test]
fn tcp_round_matches_in_process_aggregation() {
    let (addr, handle) = spawn_daemon();
    let g = Dataset::Facebook.generate_with_nodes(200, 3);
    let proto = LfGdpr::new(4.0).unwrap();
    let reports = proto.collect_honest(&g, &Xoshiro256pp::new(21));
    let reference = proto.aggregate(&reports);

    let mut client = CollectorClient::connect(addr).unwrap();
    let view = client
        .run_adjacency_round(1, proto.p_keep(), &reports)
        .unwrap();
    assert_eq!(view.matrix(), reference.matrix());
    assert_eq!(view.reported_degrees(), reference.reported_degrees());
    drop(client);
    shutdown(addr, handle);
}

#[test]
fn daemon_refusals_arrive_as_typed_remote_errors() {
    let (addr, handle) = spawn_daemon();
    let mut client = CollectorClient::connect(addr).unwrap();

    // Population over the cap → remote refusal carrying the cap code.
    let err = client
        .open_round(
            1,
            RoundChannel::Adjacency {
                population: 107_614,
                p_keep: 0.9,
            },
            None,
        )
        .unwrap_err();
    let CollectorError::Remote { code, message } = err else {
        panic!("expected a remote refusal");
    };
    assert_eq!(code, ldp_collector::server::codes::POPULATION_CAP);
    assert!(message.contains("O(N²/8)"), "message: {message}");

    // Finalize with nothing open → no-open-round code; session survives.
    let err = client.finalize_adjacency(9).unwrap_err();
    assert!(matches!(
        err,
        CollectorError::Remote {
            code: ldp_collector::server::codes::NO_OPEN_ROUND,
            ..
        }
    ));

    // Incomplete round → typed refusal, then completing it succeeds.
    client
        .open_round(
            2,
            RoundChannel::Adjacency {
                population: 3,
                p_keep: 0.8,
            },
            None,
        )
        .unwrap();
    for id in 0..2u64 {
        client
            .queue_adjacency_report(
                id,
                &ldp_protocols::AdjacencyReport::new(ldp_graph::BitSet::new(3), 0.0),
            )
            .unwrap();
    }
    let err = client.finalize_adjacency(2).unwrap_err();
    assert!(matches!(
        err,
        CollectorError::Remote {
            code: ldp_collector::server::codes::ROUND_INCOMPLETE,
            ..
        }
    ));
    client
        .queue_adjacency_report(
            2,
            &ldp_protocols::AdjacencyReport::new(ldp_graph::BitSet::new(3), 1.0),
        )
        .unwrap();
    let summary = client.close_round(2).unwrap();
    assert_eq!(summary.counters.accepted, 3);
    assert!(client.finalize_adjacency(2).is_ok());

    drop(client);
    shutdown(addr, handle);
}

#[test]
fn degree_vector_round_over_tcp() {
    let (addr, handle) = spawn_daemon();
    let mut client = CollectorClient::connect(addr).unwrap();
    let n = 50u64;
    client
        .open_round(
            1,
            RoundChannel::DegreeVector {
                population: n as usize,
                groups: 4,
            },
            None,
        )
        .unwrap();
    for id in 0..n {
        client
            .queue_degree_vector(id, &[1.0, 0.5, 0.0, id as f64])
            .unwrap();
    }
    let summary = client.close_round(1).unwrap();
    assert_eq!(summary.counters.accepted, n);
    let out = client.finalize_degree_vector(1).unwrap();
    assert_eq!(out.accepted, n);
    assert_eq!(out.group_totals[0], n as f64);
    assert_eq!(out.group_totals[3], (0..n).sum::<u64>() as f64);
    drop(client);
    shutdown(addr, handle);
}

/// The acceptance pin: LF-GDPR + MGA + Detect2, three trials, evaluated
/// once in process and once with every fold running over TCP — identical
/// to the bit.
#[test]
fn scenario_over_the_wire_is_bit_identical() {
    let graph = Dataset::Facebook.generate_with_nodes(250, 42);
    let protocol = LfGdpr::new(4.0).unwrap();
    let mut rng = Xoshiro256pp::new(9);
    let threat =
        ThreatModel::from_fractions(&graph, 0.05, 0.05, TargetSelection::UniformRandom, &mut rng);

    fn build<'a>(
        b: poison_core::scenario::ScenarioBuilder<'a>,
        threat: &ThreatModel,
    ) -> poison_core::scenario::ScenarioBuilder<'a> {
        b.attack(Mga::default())
            .metric(Metric::Degree)
            .defend(DegreeConsistencyDefense::default())
            .threat(threat.clone())
            .exact()
            .trials(3)
            .seed(2024)
    }
    let in_process = build(Scenario::on(protocol), &threat).run(&graph).unwrap();

    let (addr, handle) = spawn_daemon();
    let wired = build(Scenario::on(protocol).serve(addr).unwrap(), &threat)
        .run(&graph)
        .unwrap();
    assert_reports_identical(&in_process, &wired);
    shutdown(addr, handle);
}

/// The bridge falls back to in-process evaluation for protocols without
/// an adjacency channel (LDPGen) instead of failing the run.
#[test]
fn ldpgen_scenarios_fall_back_in_process() {
    use ldp_graph::generate::caveman_graph;
    use ldp_protocols::LdpGen;
    use poison_core::attack::Rva;

    let graph = caveman_graph(10, 8);
    let protocol = LdpGen::with_defaults(4.0).unwrap();
    let threat = ThreatModel::explicit(80, 8, vec![0, 8, 16, 24]);

    let in_process = Scenario::on(protocol)
        .attack(Rva)
        .metric(Metric::Clustering)
        .threat(threat.clone())
        .seed(5)
        .run(&graph)
        .unwrap();

    let (addr, handle) = spawn_daemon();
    let runner = WireWorldRunner::connect(addr).unwrap();
    let wired = Scenario::on(protocol)
        .attack(Rva)
        .metric(Metric::Clustering)
        .threat(threat)
        .seed(5)
        .via(runner)
        .run(&graph)
        .unwrap();
    assert_reports_identical(&in_process, &wired);
    shutdown(addr, handle);
}

#[test]
fn dead_daemon_is_a_typed_transport_error() {
    // Bind-then-drop leaves a port nothing listens on (racy in theory,
    // fine in practice for a just-freed ephemeral port).
    let addr = {
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        listener.local_addr().unwrap()
    };
    let protocol = LfGdpr::new(4.0).unwrap();
    let threat = ThreatModel::explicit(60, 3, vec![0]);
    let builder = Scenario::on(protocol)
        .attack(Mga::default())
        .threat(threat)
        .exact();
    assert!(builder.serve(addr).is_err());
}

/// Runs `client` against a stand-in daemon that handshakes and records
/// every frame the client sends until it hangs up.
fn captured_frames(client: impl FnOnce(SocketAddr)) -> Vec<(u8, Vec<u8>)> {
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let recorder = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        wire::write_stream_header(&mut stream).unwrap();
        wire::read_stream_header(&mut stream).unwrap();
        let (mut frames, mut payload) = (Vec::new(), Vec::new());
        while let Some(kind) = wire::read_frame(&mut stream, &mut payload).unwrap() {
            frames.push((kind, payload.clone()));
        }
        frames
    });
    client(addr);
    recorder.join().unwrap()
}

/// The `REPORT_BATCH` frames a client sends, in batches of `batch`,
/// while `queue` queues reports for round `round`.
fn client_batches(
    round: u64,
    batch: usize,
    queue: impl FnOnce(&mut CollectorClient) -> Result<(), CollectorError>,
) -> Vec<(u8, Vec<u8>)> {
    captured_frames(|addr| {
        let mut client = CollectorClient::connect(addr)
            .unwrap()
            .with_batch_size(batch);
        client.set_round(round).unwrap();
        queue(&mut client).unwrap();
        client.flush().unwrap();
    })
}

/// The frames `wire::encode_routed_batch` makes of `entries`, in batches
/// of `batch`, checked against the framing spelled out by hand: each
/// entry is its `encode_report` bytes behind their measured length.
fn codec_batches(round: u64, batch: usize, entries: &[(u64, UserReport)]) -> Vec<(u8, Vec<u8>)> {
    let frame = |chunk: &[(u64, UserReport)]| {
        let mut payload = Vec::new();
        wire::encode_routed_batch(round, chunk, &mut payload);
        let mut by_hand = Vec::new();
        wire::put_varint(round, &mut by_hand);
        wire::put_varint(chunk.len() as u64, &mut by_hand);
        for (user_id, report) in chunk {
            let mut bytes = Vec::new();
            wire::encode_report(*user_id, report, &mut bytes);
            wire::put_varint(bytes.len() as u64, &mut by_hand);
            by_hand.extend_from_slice(&bytes);
        }
        assert!(
            payload == by_hand,
            "entry lengths differ from the measured ones"
        );
        (frames::REPORT_BATCH, payload)
    };
    entries.chunks(batch).map(frame).collect()
}

/// The client's `REPORT_BATCH` bytes are `wire::encode_routed_batch`'s
/// for the same entries, on both channels: ids across every varint
/// width, vectors of width 0, 1 and 8, and adjacency rows with and
/// without trailing zero words.
#[test]
fn client_batches_are_the_routed_batch_codec_bytes() {
    const ROUND: u64 = 1 << 40;
    const BATCH: usize = 4;
    let (mut vectors, mut rows) = (Vec::new(), Vec::new());
    for id in [0, 127, 128, 1 << 21, u64::MAX] {
        for width in [0, 1, 8] {
            let vector = (0..width).map(|i| id as f64 * 0.5 + i as f64 - 3.25);
            vectors.push((id, vector.collect::<Vec<f64>>()));
        }
        // 200 users, four row words: three, one or no trailing zero words.
        for ones in [&[][..], &[3], &[3, 130], &[0, 199]] {
            let mut bits = BitSet::new(200);
            ones.iter().for_each(|&i| bits.set(i));
            rows.push((id, AdjacencyReport::new(bits, 2.5)));
        }
    }

    let sent = client_batches(ROUND, BATCH, |c| {
        (vectors.iter()).try_for_each(|(id, v)| c.queue_degree_vector(*id, v))
    });
    let entries: Vec<(u64, UserReport)> = (vectors.iter())
        .map(|(id, v)| (*id, UserReport::DegreeVector(v.clone())))
        .collect();
    assert_eq!(sent.len(), 4);
    assert!(sent == codec_batches(ROUND, BATCH, &entries));

    let sent = client_batches(ROUND, BATCH, |c| {
        (rows.iter()).try_for_each(|(id, r)| c.queue_adjacency_report(*id, r))
    });
    let entries: Vec<(u64, UserReport)> = (rows.iter())
        .map(|(id, r)| (*id, UserReport::Adjacency(r.clone())))
        .collect();
    assert_eq!(sent.len(), 5);
    assert!(sent == codec_batches(ROUND, BATCH, &entries));
}

/// The stall reaper drops a session only for unparsed bytes: a
/// handshaken session idle past the stall timeout (its buffer holds read
/// space but no unparsed byte) is still served, while a session holding
/// half a frame is reaped.
#[test]
fn the_stall_reaper_drops_half_frames_not_idle_sessions() {
    let stall = Duration::from_millis(100);
    let mut server = CollectorServer::bind(("127.0.0.1", 0), CollectorConfig::default())
        .unwrap()
        .with_stall_timeout(stall);
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.serve());

    let mut idle = CollectorClient::connect(addr).unwrap();
    let channel = RoundChannel::DegreeVector {
        population: 4,
        groups: 1,
    };
    idle.open_round(1, channel, None).unwrap();
    idle.queue_degree_vector(0, &[1.0]).unwrap();
    idle.sync().unwrap();

    let mut staller = TcpStream::connect(addr).unwrap();
    wire::write_stream_header(&mut staller).unwrap();
    wire::read_stream_header(&mut staller).unwrap();
    let mut frame = Vec::new();
    let mut payload = Vec::new();
    wire::encode_routed_batch(1, &[(1, UserReport::DegreeVector(vec![1.0]))], &mut payload);
    wire::write_frame(&mut frame, frames::REPORT_BATCH, &payload).unwrap();
    staller.write_all(&frame[..frame.len() / 2]).unwrap();

    std::thread::sleep(stall * 4);
    idle.queue_degree_vector(2, &[1.0]).unwrap();
    idle.sync()
        .expect("an idle session outlives the stall timeout");
    staller
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut sink = [0u8; 16];
    match staller.read(&mut sink) {
        Ok(0) => {}
        other => panic!("the half-frame session was not reaped: {other:?}"),
    }
    let reaps = idle
        .stats()
        .unwrap()
        .into_iter()
        .find_map(|e| match e.value {
            wire::StatsValue::Counter(v) if e.name == "stall_reaps" => Some(v),
            _ => None,
        });
    assert_eq!(reaps, Some(1));
    assert_eq!(idle.close_round(1).unwrap().counters.accepted, 2);
    drop((idle, staller));
    shutdown(addr, handle);
}

fn assert_reports_identical(a: &ScenarioReport, b: &ScenarioReport) {
    assert_eq!(a.trials.len(), b.trials.len());
    for (x, y) in a.trials.iter().zip(&b.trials) {
        assert_eq!(x.seed, y.seed);
        assert_eq!(
            x.outcome.before, y.outcome.before,
            "before estimates differ"
        );
        assert_eq!(x.outcome.after, y.outcome.after, "after estimates differ");
        assert_eq!(x.flagged_fake, y.flagged_fake);
        assert_eq!(x.flagged_genuine, y.flagged_genuine);
    }
    assert_eq!(a.mean_gain().to_bits(), b.mean_gain().to_bits());
}
