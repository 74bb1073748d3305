//! The three attacks adapted to LDPGen (paper Figs. 14b and 15b).
//!
//! LDPGen never sees adjacency bits — users upload Laplace-noisy degree
//! vectors toward server-chosen groups. A fake user therefore poisons the
//! protocol by crafting those vectors:
//!
//! * **RVA** — the connection budget spread uniformly at random across
//!   groups, target-oblivious (the paper caps every attack's claimed
//!   connections at the average degree to avoid trivial detection);
//! * **RNA** — one claimed connection toward the group of a random target,
//!   then honest Laplace noise on the vector;
//! * **MGA** — the full connection budget concentrated on the groups that
//!   contain targets (proportionally to how many targets each group holds),
//!   pulling the fake users into the targets' clusters and inflating the
//!   estimated edge mass incident to them.
//!
//! Gains are measured exactly like the LF-GDPR pipeline: metric estimates
//! on the synthetic graph of the honest world vs. the attacked world,
//! common randomness everywhere else.

use crate::strategy::AttackStrategy;
use crate::threat::ThreatModel;
use ldp_mechanisms::sampling::sample_laplace_vec;
use rand::Rng;

/// Crafts the phase reports of all `m` fake users for one LDPGen phase.
///
/// * `groups`/`num_groups` — the server's current grouping (the crafting
///   closure receives it per phase, mirroring the attacker's view);
/// * `budget` — connection budget per fake user (`⌊d̄⌋`, from the published
///   average degree — LDPGen has no RR channel, so the perturbed-degree
///   inflation of LF-GDPR does not apply);
/// * `noise_scale` — the per-phase Laplace scale honest users use, which
///   RNA mimics.
pub fn craft_degree_vectors<R: Rng>(
    strategy: AttackStrategy,
    threat: &ThreatModel,
    groups: &[usize],
    num_groups: usize,
    budget: usize,
    noise_scale: f64,
    rng: &mut R,
) -> Vec<Vec<f64>> {
    // How many targets live in each group right now.
    let mut targets_per_group = vec![0usize; num_groups];
    for &t in &threat.targets {
        targets_per_group[groups[t]] += 1;
    }
    let r = threat.targets.len().max(1);

    (0..threat.m_fake)
        .map(|_| {
            let mut v = vec![0.0f64; num_groups];
            match strategy {
                AttackStrategy::Rva => {
                    for _ in 0..budget {
                        v[rng.gen_range(0..num_groups)] += 1.0;
                    }
                }
                AttackStrategy::Rna => {
                    let t = threat.targets[rng.gen_range(0..threat.targets.len())];
                    v[groups[t]] += 1.0;
                    sample_laplace_vec(&mut v, noise_scale, rng);
                    for x in &mut v {
                        *x = x.max(0.0);
                    }
                }
                AttackStrategy::Mga => {
                    for (g, x) in v.iter_mut().enumerate() {
                        *x = budget as f64 * targets_per_group[g] as f64 / r as f64;
                    }
                }
            }
            v
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::attack_for;
    use crate::scenario::Scenario;
    use crate::strategy::MgaOptions;
    use ldp_graph::generate::caveman_graph;
    use ldp_graph::{CsrGraph, Xoshiro256pp};
    use ldp_protocols::{LdpGen, Metric};

    fn setup() -> (CsrGraph, LdpGen, ThreatModel) {
        let graph = caveman_graph(10, 8);
        let protocol = LdpGen::with_defaults(4.0).unwrap();
        let threat = ThreatModel::explicit(80, 8, vec![0, 8, 16, 24]);
        (graph, protocol, threat)
    }

    #[test]
    fn crafted_vectors_have_group_dimension() {
        let (_, _, threat) = setup();
        let groups = vec![0usize; 88];
        let mut rng = Xoshiro256pp::new(1);
        for strategy in AttackStrategy::ALL {
            let vs = craft_degree_vectors(strategy, &threat, &groups, 3, 5, 1.0, &mut rng);
            assert_eq!(vs.len(), 8);
            assert!(vs.iter().all(|v| v.len() == 3));
            assert!(vs.iter().flatten().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn mga_concentrates_on_target_groups() {
        let (_, _, threat) = setup();
        // Targets 0, 8, 16, 24: put first two in group 1, rest in group 0.
        let mut groups = vec![0usize; 88];
        groups[0] = 1;
        groups[8] = 1;
        let mut rng = Xoshiro256pp::new(2);
        let vs = craft_degree_vectors(AttackStrategy::Mga, &threat, &groups, 2, 10, 1.0, &mut rng);
        for v in vs {
            assert!(
                (v[1] - 5.0).abs() < 1e-12,
                "half the budget to group 1: {v:?}"
            );
            assert!((v[0] - 5.0).abs() < 1e-12);
        }
    }

    #[test]
    fn ldpgen_cc_attack_runs_and_is_finite() {
        let (graph, protocol, threat) = setup();
        for strategy in AttackStrategy::ALL {
            let outcome = Scenario::on(protocol)
                .attack(attack_for(strategy, MgaOptions::default()))
                .metric(Metric::Clustering)
                .threat(threat.clone())
                .seed(5)
                .run(&graph)
                .unwrap()
                .into_single_outcome();
            assert_eq!(outcome.num_targets(), 4);
            assert!(outcome.gain().is_finite());
        }
    }

    #[test]
    fn ldpgen_modularity_attack_runs() {
        let (graph, protocol, threat) = setup();
        let partition: Vec<usize> = (0..80).map(|u| u / 8).collect();
        let outcome = Scenario::on(protocol)
            .attack(attack_for(AttackStrategy::Mga, MgaOptions::default()))
            .metric(Metric::Modularity)
            .threat(threat.clone())
            .partition(&partition)
            .seed(7)
            .run(&graph)
            .unwrap()
            .into_single_outcome();
        assert_eq!(outcome.num_targets(), 1);
        assert!(outcome.gain().is_finite());
    }

    #[test]
    fn modularity_without_partition_is_a_typed_error() {
        let (graph, protocol, threat) = setup();
        let err = Scenario::on(protocol)
            .attack(attack_for(AttackStrategy::Mga, MgaOptions::default()))
            .metric(Metric::Modularity)
            .threat(threat)
            .seed(7)
            .run(&graph)
            .unwrap_err();
        assert!(matches!(
            err,
            crate::error::ScenarioError::MissingPartition { .. }
        ));
    }
}
