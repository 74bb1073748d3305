//! Cross-validation of the two degree-centrality evaluation modes: the
//! exact (materialized `O(N²)` view) pipeline and the analytic-sampling
//! mode must agree in distribution — DESIGN.md §2's justification for
//! running the large datasets in sampled mode.

use graph_ldp_poisoning::prelude::*;

/// Runs `attack` on the 400-node Facebook stand-in (5% fake users, a
/// fraction `gamma` of targets) at budget `epsilon`, in exact and in
/// sampled mode, and checks the mean gains agree within `tolerance`.
fn compare(
    attack: impl Attack,
    epsilon: f64,
    gamma: f64,
    trials: u64,
    seed_base: u64,
    tolerance: f64,
) {
    let graph = Dataset::Facebook.generate_with_nodes(400, 9);
    let protocol = LfGdpr::new(epsilon).unwrap();
    let mut rng = Xoshiro256pp::new(31);
    let threat = ThreatModel::from_fractions(
        &graph,
        0.05,
        gamma,
        TargetSelection::UniformRandom,
        &mut rng,
    );
    let run_mode = |mode: EvalMode, seed: u64| {
        Scenario::on(protocol)
            .attack(&attack)
            .metric(Metric::Degree)
            .threat(threat.clone())
            .mode(mode)
            .trials(trials)
            .seed(seed)
            .run(&graph)
            .unwrap()
            .mean_gain()
    };
    let exact = run_mode(EvalMode::Exact, seed_base);
    let sampled = run_mode(EvalMode::Sampled, seed_base + 100_000);
    let rel = (exact - sampled).abs() / exact.max(1e-9);
    assert!(
        rel < tolerance,
        "{}: exact {exact} vs sampled {sampled} (relative gap {rel:.3})",
        attack.name()
    );
}

#[test]
fn mga_modes_agree() {
    compare(Mga::default(), 4.0, 0.05, 40, 11_000, 0.15);
}

#[test]
fn rva_modes_agree() {
    // RVA's gain is noise-dominated, so the band is wider.
    compare(Rva, 4.0, 0.05, 40, 12_000, 0.35);
}

#[test]
fn rna_modes_agree() {
    compare(Rna, 4.0, 0.05, 40, 13_000, 0.35);
}

/// MGA capped at one connection per fake user: the sampled footprint
/// must spend the same capped budget as the crafted rows.
#[test]
fn capped_mga_modes_agree() {
    let capped = Mga::new(MgaOptions {
        budget_override: Some(1),
        ..MgaOptions::default()
    });
    compare(capped, 8.0, 0.25, 10, 14_000, 0.15);
}

/// MGA with no connection cap reaches every target from every fake user,
/// in both modes.
#[test]
fn uncapped_mga_modes_agree() {
    let uncapped = Mga::new(MgaOptions {
        budget_override: Some(usize::MAX),
        ..MgaOptions::default()
    });
    compare(uncapped, 8.0, 0.25, 10, 15_000, 0.15);
}
