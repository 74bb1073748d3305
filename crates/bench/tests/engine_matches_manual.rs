//! The scenario engine's exact LF-GDPR + MGA degree pipeline gives the
//! same bits as [`manual_exact_degree`], the pipeline written out by hand.
//! The two settings are the ones the timing comparisons have used: the
//! `scenario_smoke` binary's (400 nodes, seed 61) and the former in-process
//! engine benchmark's (500 nodes, seed 41).

use ldp_graph::datasets::Dataset;
use ldp_graph::Xoshiro256pp;
use ldp_protocols::{LfGdpr, Metric};
use poison_bench::manual_exact_degree;
use poison_core::scenario::Scenario;
use poison_core::{Mga, TargetSelection, ThreatModel};

fn assert_engine_matches_manual(nodes: usize, seed: u64) {
    let graph = Dataset::Facebook.generate_with_nodes(nodes, 21);
    let protocol = LfGdpr::new(4.0).unwrap();
    let mut rng = Xoshiro256pp::new(22);
    let threat =
        ThreatModel::from_fractions(&graph, 0.05, 0.05, TargetSelection::UniformRandom, &mut rng);

    let manual = manual_exact_degree(&graph, &protocol, &threat, seed);
    let engine = Scenario::on(protocol)
        .attack(Mga::default())
        .metric(Metric::Degree)
        .threat(threat.clone())
        .exact()
        .seed(seed)
        .run(&graph)
        .unwrap()
        .into_single_outcome();

    assert_eq!(manual.before.len(), threat.targets.len());
    assert_ne!(
        manual.before, manual.after,
        "the crafted tail moves the targets"
    );
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&engine.before),
        bits(&manual.before),
        "before, n={nodes}"
    );
    assert_eq!(bits(&engine.after), bits(&manual.after), "after, n={nodes}");
}

#[test]
fn engine_matches_manual_at_the_smoke_setting() {
    assert_engine_matches_manual(400, 61);
}

#[test]
fn engine_matches_manual_at_the_bench_setting() {
    assert_engine_matches_manual(500, 41);
}
