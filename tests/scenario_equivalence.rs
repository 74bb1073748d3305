//! Equivalence suite: pins `ScenarioBuilder` output **bit for bit**
//! against golden values captured from the pre-engine pipelines.
//!
//! The golden constants are `f64::to_bits` of gains produced by the
//! original per-protocol entry points (captured from commit `23b047d`,
//! before the engine existed). The deprecated wrappers that once
//! cross-checked them are gone; these constants remain the ground truth —
//! if the engine (or any backend refactor under it, like the
//! `WorldRunner` seam) ever drifts, these fail.

use graph_ldp_poisoning::attack::scenario::Scenario;
use graph_ldp_poisoning::attack::{
    attack_for, AttackOutcome, AttackStrategy, MgaOptions, TargetMetric, TargetSelection,
    ThreatModel,
};
use graph_ldp_poisoning::defense::{
    Defense, DegreeConsistencyDefense, FrequentItemsetDefense, NaiveDegreeTails, NaiveTopDegree,
};
use graph_ldp_poisoning::graph::datasets::Dataset;
use graph_ldp_poisoning::graph::generate::caveman_graph;
use graph_ldp_poisoning::graph::{CsrGraph, Xoshiro256pp};
use graph_ldp_poisoning::protocols::{LdpGen, LfGdpr, Metric};

fn small_world() -> (CsrGraph, LfGdpr, ThreatModel) {
    let graph = Dataset::Facebook.generate_with_nodes(300, 42);
    let protocol = LfGdpr::new(4.0).unwrap();
    let mut rng = Xoshiro256pp::new(9);
    let threat =
        ThreatModel::from_fractions(&graph, 0.05, 0.05, TargetSelection::UniformRandom, &mut rng);
    (graph, protocol, threat)
}

fn assert_bits(label: &str, value: f64, golden: u64) {
    assert_eq!(
        value.to_bits(),
        golden,
        "{label}: {value} != {} (drift from the pre-refactor pipeline)",
        f64::from_bits(golden)
    );
}

/// Golden `(gain, signed_gain)` bits of the exact LF-GDPR pipeline at
/// seed 7 on the `small_world` setup, per (metric, strategy).
const GOLDEN_LFGDPR_EXACT: [(TargetMetric, AttackStrategy, u64, u64); 6] = [
    (
        TargetMetric::DegreeCentrality,
        AttackStrategy::Rva,
        0x3fb461d59ae78a98,
        0x3fb11efb1bb84138,
    ),
    (
        TargetMetric::DegreeCentrality,
        AttackStrategy::Rna,
        0x3fb461d59ae78a9a,
        0x3fa1efb1bb84138c,
    ),
    (
        TargetMetric::DegreeCentrality,
        AttackStrategy::Mga,
        0x3fe3ab35cf15328b,
        0x3fe3ab35cf15328b,
    ),
    (
        TargetMetric::ClusteringCoefficient,
        AttackStrategy::Rva,
        0x3fc3be77ed29b7e1,
        0x3fab0caa9e19d2e3,
    ),
    (
        TargetMetric::ClusteringCoefficient,
        AttackStrategy::Rna,
        0x3fc209ad4546fc41,
        0x3f62e8d6b989ff40,
    ),
    (
        TargetMetric::ClusteringCoefficient,
        AttackStrategy::Mga,
        0x3fedac5bd989667d,
        0x3fe6dbf1dce83f04,
    ),
];

#[test]
fn lfgdpr_exact_pins_golden() {
    let (graph, protocol, threat) = small_world();
    for (metric, strategy, gain_bits, signed_bits) in GOLDEN_LFGDPR_EXACT {
        let label = format!("{metric:?}/{}", strategy.name());
        let outcome: AttackOutcome = Scenario::on(protocol)
            .attack(attack_for(strategy, MgaOptions::default()))
            .metric(metric.into())
            .threat(threat.clone())
            .exact()
            .seed(7)
            .run(&graph)
            .unwrap()
            .into_single_outcome();
        assert_bits(&label, outcome.gain(), gain_bits);
        assert_bits(&label, outcome.signed_gain(), signed_bits);
    }
}

/// Golden `(before, after)` bits of the modularity pipeline at seed 3 on
/// the caveman setup.
const GOLDEN_LFGDPR_MODULARITY: [(AttackStrategy, u64, u64); 3] = [
    (AttackStrategy::Rva, 0x3fea8e014b8432ae, 0x3fe62da81bddee5e),
    (AttackStrategy::Rna, 0x3fea8e014b8432ae, 0x3fe937adfbce81cc),
    (AttackStrategy::Mga, 0x3fea8e014b8432ae, 0x3febea37dada1f47),
];

#[test]
fn lfgdpr_modularity_pins_golden() {
    let graph = caveman_graph(8, 10);
    let protocol = LfGdpr::new(4.0).unwrap();
    let threat = ThreatModel::explicit(80, 8, vec![0, 10, 20, 30]);
    let partition: Vec<usize> = (0..80).map(|u| u / 10).collect();
    for (strategy, before_bits, after_bits) in GOLDEN_LFGDPR_MODULARITY {
        let outcome = Scenario::on(protocol)
            .attack(attack_for(strategy, MgaOptions::default()))
            .metric(Metric::Modularity)
            .threat(threat.clone())
            .partition(&partition)
            .exact()
            .seed(3)
            .run(&graph)
            .unwrap()
            .into_single_outcome();
        assert_bits(strategy.name(), outcome.before[0], before_bits);
        assert_bits(strategy.name(), outcome.after[0], after_bits);
    }
}

/// Golden `(gain, signed_gain)` bits of the analytic sampled pipeline at
/// seed 11 on the `small_world` setup.
const GOLDEN_SAMPLED: [(AttackStrategy, u64, u64); 3] = [
    (AttackStrategy::Rva, 0x3fb9461d59ae78aa, 0x3fb461d59ae78a9a),
    (AttackStrategy::Rna, 0x3fb60342da7f2f48, 0x3fabb8413911efb0),
    (AttackStrategy::Mga, 0x3fe4b01a16d3f979, 0x3fe4b01a16d3f979),
];

#[test]
fn sampled_degree_pins_golden() {
    let (graph, protocol, threat) = small_world();
    for (strategy, gain_bits, signed_bits) in GOLDEN_SAMPLED {
        let report = Scenario::on(protocol)
            .attack(attack_for(strategy, MgaOptions::default()))
            .metric(Metric::Degree)
            .threat(threat.clone())
            .sampled()
            .seed(11)
            .run(&graph)
            .unwrap();
        assert!(report.sampled, "sampled mode must actually run");
        let outcome = report.into_single_outcome();
        assert_bits(strategy.name(), outcome.gain(), gain_bits);
        assert_bits(strategy.name(), outcome.signed_gain(), signed_bits);
    }
}

/// Golden bits of the LDPGen pipeline at seed 5 on the caveman setup:
/// `(cc_gain, cc_signed, q_before, q_after)` per strategy.
const GOLDEN_LDPGEN: [(AttackStrategy, u64, u64, u64, u64); 3] = [
    (
        AttackStrategy::Rva,
        0x3fe279cfff9115d0,
        0xbfd5de0d1baf8178,
        0xbfaeb628e59d70b3,
        0xbfab84fa9295869b,
    ),
    (
        AttackStrategy::Rna,
        0x3fdb62ebfd58cda2,
        0xbfd96acc7b60ae20,
        0xbfaeb628e59d70b3,
        0xbfb0c69067587088,
    ),
    (
        AttackStrategy::Mga,
        0x3fe27ff34a7ff34a,
        0xbfd913faa913faa8,
        0xbfaeb628e59d70b3,
        0xbfb5362fa28ee7ad,
    ),
];

#[test]
fn ldpgen_pins_golden() {
    let graph = caveman_graph(10, 8);
    let protocol = LdpGen::with_defaults(4.0).unwrap();
    let threat = ThreatModel::explicit(80, 8, vec![0, 8, 16, 24]);
    let partition: Vec<usize> = (0..80).map(|u| u / 8).collect();
    for (strategy, cc_gain, cc_signed, q_before, q_after) in GOLDEN_LDPGEN {
        let cc = Scenario::on(protocol)
            .attack(attack_for(strategy, MgaOptions::default()))
            .metric(Metric::Clustering)
            .threat(threat.clone())
            .seed(5)
            .run(&graph)
            .unwrap()
            .into_single_outcome();
        assert_bits(strategy.name(), cc.gain(), cc_gain);
        assert_bits(strategy.name(), cc.signed_gain(), cc_signed);
        let q = Scenario::on(protocol)
            .attack(attack_for(strategy, MgaOptions::default()))
            .metric(Metric::Modularity)
            .threat(threat.clone())
            .partition(&partition)
            .seed(5)
            .run(&graph)
            .unwrap()
            .into_single_outcome();
        assert_bits(strategy.name(), q.before[0], q_before);
        assert_bits(strategy.name(), q.after[0], q_after);
    }
}

/// Golden bits of the defended pipeline at seed 11 on the 250-node
/// Facebook stand-in (seed 77, threat rng 5): `(gain, flagged_fake,
/// flagged_genuine)` per `(defense, strategy, metric)`.
#[test]
fn defended_runs_pin_golden() {
    let graph = Dataset::Facebook.generate_with_nodes(250, 77);
    let protocol = LfGdpr::new(4.0).unwrap();
    let mut rng = Xoshiro256pp::new(5);
    let threat =
        ThreatModel::from_fractions(&graph, 0.05, 0.05, TargetSelection::UniformRandom, &mut rng);
    type GoldenCell = (u64, usize, usize);
    let defenses: Vec<(Box<dyn Defense>, [GoldenCell; 2])> = vec![
        (
            Box::new(FrequentItemsetDefense::new(20)),
            [(0x3fd5168f33fc13a0, 12, 246), (0x3fe7514f45c24cd6, 11, 247)],
        ),
        (
            Box::new(DegreeConsistencyDefense::default()),
            [(0x3fdea6be48951690, 0, 0), (0x3fbf3faf05a3d63c, 4, 0)],
        ),
        (
            Box::new(NaiveTopDegree::default()),
            [(0x3fdee58469ee5848, 0, 8), (0x3fc8394acb10568b, 0, 8)],
        ),
        (
            Box::new(NaiveDegreeTails::default()),
            [(0x3fdc71c71c71c71d, 0, 16), (0x3fc8de193f987205, 6, 10)],
        ),
    ];
    let cases = [
        (AttackStrategy::Mga, TargetMetric::DegreeCentrality),
        (AttackStrategy::Rva, TargetMetric::ClusteringCoefficient),
    ];
    for (defense, golden) in &defenses {
        for ((strategy, metric), (gain_bits, ff, fg)) in cases.iter().zip(golden) {
            let label = format!("{}/{}", defense.name(), strategy.name());
            let report = Scenario::on(protocol)
                .attack(attack_for(*strategy, MgaOptions::default()))
                .metric(Metric::from(*metric))
                .defend(defense.as_ref() as &dyn Defense)
                .threat(threat.clone())
                .exact()
                .seed(11)
                .run(&graph)
                .unwrap();
            let trial = &report.trials[0];
            assert_eq!(trial.flagged_fake, Some(*ff), "{label} true positives");
            assert_eq!(trial.flagged_genuine, Some(*fg), "{label} false positives");
            assert_bits(&label, trial.outcome.gain(), *gain_bits);
        }
    }
}

#[test]
fn trials_fold_matches_the_runner_schedule() {
    // `.trials(k)` must reproduce k single-trial runs with the experiment
    // runner's seed schedule (base + i·0x9E37_79B9), gain for gain.
    let (graph, protocol, threat) = small_world();
    let report = Scenario::on(protocol)
        .attack(attack_for(AttackStrategy::Mga, MgaOptions::default()))
        .metric(Metric::Degree)
        .threat(threat.clone())
        .exact()
        .trials(3)
        .seed(500)
        .run(&graph)
        .unwrap();
    for (i, trial) in report.trials.iter().enumerate() {
        let seed = 500u64.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9));
        let single = Scenario::on(protocol)
            .attack(attack_for(AttackStrategy::Mga, MgaOptions::default()))
            .metric(Metric::Degree)
            .threat(threat.clone())
            .exact()
            .seed(seed)
            .run(&graph)
            .unwrap()
            .into_single_outcome();
        assert_eq!(trial.seed, seed);
        assert_eq!(trial.outcome.before, single.before);
        assert_eq!(trial.outcome.after, single.after);
    }
}
