//! Closed-form expected gains (Theorems 1–2) against the simulation.
//!
//! Theorem 1 is an exact expectation of the simulated quantity, so the two
//! must agree within sampling error. Theorem 2's combinatorial factor is
//! linear in `m` while the realized prioritized attack completes `C(m,2)`
//! fake-pair triangles per target, so there we check the *qualitative*
//! contracts: positivity, monotonicity in m, and that the simulation
//! dominates the bound (its `C(m,2)` term outgrows the linear factor).

use graph_ldp_poisoning::prelude::*;

#[test]
fn theorem1_matches_simulated_mga_degree_gain() {
    let graph = Dataset::Facebook.generate_with_nodes(800, 42);
    let protocol = LfGdpr::new(4.0).unwrap();
    let mut rng = Xoshiro256pp::new(17);
    let threat =
        ThreatModel::from_fractions(&graph, 0.05, 0.05, TargetSelection::UniformRandom, &mut rng);
    let simulated = Scenario::on(protocol)
        .attack(Mga::default())
        .metric(Metric::Degree)
        .threat(threat.clone())
        .exact()
        .trials(8)
        .seed(4_000)
        .run(&graph)
        .unwrap()
        .mean_gain();
    let d_tilde = protocol.expected_perturbed_degree(threat.population(), graph.average_degree());
    let theory = theorem1_degree_gain(
        threat.m_fake,
        threat.num_targets(),
        threat.population(),
        d_tilde,
    );
    let rel = (simulated - theory).abs() / theory;
    assert!(
        rel < 0.2,
        "simulation {simulated} vs Theorem 1 {theory} (relative error {rel:.3})"
    );
}

#[test]
fn theorem1_matches_sampled_mode_too() {
    let graph = Dataset::Enron.generate_with_nodes(2_000, 43);
    let protocol = LfGdpr::new(4.0).unwrap();
    let mut rng = Xoshiro256pp::new(19);
    let threat =
        ThreatModel::from_fractions(&graph, 0.05, 0.05, TargetSelection::UniformRandom, &mut rng);
    let simulated = Scenario::on(protocol)
        .attack(Mga::default())
        .metric(Metric::Degree)
        .threat(threat.clone())
        .sampled()
        .trials(8)
        .seed(5_000)
        .run(&graph)
        .unwrap()
        .mean_gain();
    let d_tilde = protocol.expected_perturbed_degree(threat.population(), graph.average_degree());
    let theory = theorem1_degree_gain(
        threat.m_fake,
        threat.num_targets(),
        threat.population(),
        d_tilde,
    );
    let rel = (simulated - theory).abs() / theory;
    assert!(
        rel < 0.2,
        "sampled {simulated} vs Theorem 1 {theory} (relative error {rel:.3})"
    );
}

#[test]
fn theorem1_epsilon_trend_matches_simulation() {
    // Both theory and simulation must fall as ε grows (Fig. 6's shape).
    // The falling trend needs the connection budget ⌊d̃⌋ to bind against r
    // at high ε *and* the baseline term to stay small, which requires
    // paper-like sparsity — the Enron stand-in (average degree ~10) at
    // 2,000 nodes gives a comfortable margin between the two ends.
    let graph = Dataset::Enron.generate_with_nodes(2_000, 44);
    let mut rng = Xoshiro256pp::new(23);
    let threat =
        ThreatModel::from_fractions(&graph, 0.05, 0.05, TargetSelection::UniformRandom, &mut rng);
    let at = |epsilon: f64| {
        let protocol = LfGdpr::new(epsilon).unwrap();
        let sim = Scenario::on(protocol)
            .attack(Mga::default())
            .metric(Metric::Degree)
            .threat(threat.clone())
            .exact()
            .trials(4)
            .seed(6_000)
            .run(&graph)
            .unwrap()
            .mean_gain();
        let theory = theorem1_degree_gain(
            threat.m_fake,
            threat.num_targets(),
            threat.population(),
            protocol.expected_perturbed_degree(threat.population(), graph.average_degree()),
        );
        (sim, theory)
    };
    let (sim_lo, th_lo) = at(1.0);
    let (sim_hi, th_hi) = at(8.0);
    assert!(th_lo > th_hi, "theory must fall with ε: {th_lo} vs {th_hi}");
    // Simulated MGA stays within the same ordering when the budget covers
    // all targets at both ends (min(r, ⌊d̃⌋) = r), so the drop comes from
    // the honest-baseline term.
    assert!(
        sim_lo >= sim_hi * 0.8,
        "simulation trend inverted: ε=1 gain {sim_lo}, ε=8 gain {sim_hi}"
    );
}

#[test]
fn theorem2_is_a_lower_envelope_of_the_realized_attack() {
    let graph = Dataset::AstroPh.generate_with_nodes(600, 45);
    let protocol = LfGdpr::new(4.0).unwrap();
    let mut rng = Xoshiro256pp::new(29);
    let threat =
        ThreatModel::from_fractions(&graph, 0.05, 0.05, TargetSelection::UniformRandom, &mut rng);
    let simulated = Scenario::on(protocol)
        .attack(Mga::default())
        .metric(Metric::Clustering)
        .threat(threat.clone())
        .trials(4)
        .seed(7_000)
        .run(&graph)
        .unwrap()
        .mean_gain();
    let theory = theorem2_clustering_gain(
        threat.m_fake,
        threat.num_targets(),
        threat.population(),
        protocol.expected_perturbed_degree(threat.population(), graph.average_degree()),
        protocol.p_keep(),
    );
    assert!(theory > 0.0);
    assert!(
        simulated >= theory,
        "realized MGA ({simulated}) should dominate the linear-in-m bound ({theory})"
    );
}

#[test]
fn theorems_are_monotone_in_attack_resources() {
    let population = 1_000;
    let d_tilde = 120.0;
    let p = 0.88;
    for (small, large) in [(10usize, 40usize), (20, 80)] {
        assert!(
            theorem1_degree_gain(large, 50, population, d_tilde)
                > theorem1_degree_gain(small, 50, population, d_tilde)
        );
        assert!(
            theorem2_clustering_gain(large, 50, population, d_tilde, p)
                > theorem2_clustering_gain(small, 50, population, d_tilde, p)
        );
    }
}
