//! Loopback integration: a real daemon on 127.0.0.1, a real client, and
//! the acceptance pin of this subsystem — a Scenario evaluated **over the
//! wire** (LF-GDPR + MGA + Detect2) bit-identical to the in-process
//! engine at the same seed.

use ldp_collector::{
    CollectorClient, CollectorConfig, CollectorError, CollectorServer, RoundChannel, ServeScenario,
    WireWorldRunner,
};
use ldp_graph::datasets::Dataset;
use ldp_graph::Xoshiro256pp;
use ldp_protocols::{LfGdpr, Metric};
use poison_core::attack::Mga;
use poison_core::scenario::{Scenario, ScenarioReport};
use poison_core::{TargetSelection, ThreatModel};
use poison_defense::DegreeConsistencyDefense;

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
