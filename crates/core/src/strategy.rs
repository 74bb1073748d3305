//! The knobs that select and configure the §IV-B attacks: the metric an
//! attack aims at ([`TargetMetric`]), the attack selector the figure
//! tables iterate ([`AttackStrategy`], realized by
//! [`crate::attack::attack_for`]) and MGA's options ([`MgaOptions`]). The
//! crafting itself lives in [`crate::attack`], one `impl Attack` per
//! attack.

/// Which graph metric the attack aims to distort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TargetMetric {
    /// Degree centrality `c_i = d_i/(N−1)` (paper §V).
    DegreeCentrality,
    /// Local clustering coefficient `cc_i` (paper §VI).
    ClusteringCoefficient,
}

/// The attack strategies of §IV-B.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackStrategy {
    /// Random Value Attack, [`crate::attack::Rva`].
    Rva,
    /// Random Node Attack, [`crate::attack::Rna`].
    Rna,
    /// Maximal Gain Attack, [`crate::attack::Mga`].
    Mga,
}

impl AttackStrategy {
    /// All strategies in presentation order.
    pub const ALL: [AttackStrategy; 3] = [
        AttackStrategy::Rva,
        AttackStrategy::Rna,
        AttackStrategy::Mga,
    ];

    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            AttackStrategy::Rva => "RVA",
            AttackStrategy::Rna => "RNA",
            AttackStrategy::Mga => "MGA",
        }
    }
}

/// Options tweaking MGA behaviour; defaults follow the paper.
#[derive(Debug, Clone, Copy)]
pub struct MgaOptions {
    /// Pad the crafted vector with random non-target connections up to the
    /// connection budget, disguising the fixed target pattern. Gains are
    /// unaffected; detectability (Fig. 12a) is. Paper: on.
    pub pad_to_budget: bool,
    /// For the clustering-coefficient variant: connect fake users among
    /// themselves before spending budget on targets (§VI's prioritized
    /// allocation). Paper: on. Turning this off is the ablation
    /// DESIGN.md §7 calls out.
    pub prioritize_fake_edges: bool,
    /// Overrides the per-fake-user connection budget (paper default:
    /// `⌊d̃⌋`, i.e. `None`). `Some(usize::MAX)` effectively removes the
    /// detection-avoidance cap — the gain-vs-detectability ablation.
    pub budget_override: Option<usize>,
}

impl Default for MgaOptions {
    fn default() -> Self {
        MgaOptions {
            pad_to_budget: true,
            prioritize_fake_edges: true,
            budget_override: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::{Attack, Mga, Rna, Rva};
    use crate::knowledge::AttackerKnowledge;
    use crate::threat::ThreatModel;
    use ldp_graph::Xoshiro256pp;
    use ldp_protocols::LfGdpr;

    fn setup(
        n: usize,
        m: usize,
        targets: Vec<usize>,
        epsilon: f64,
    ) -> (LfGdpr, ThreatModel, AttackerKnowledge) {
        let protocol = LfGdpr::new(epsilon).unwrap();
        let threat = ThreatModel::explicit(n, m, targets);
        let knowledge = AttackerKnowledge::derive(&protocol, threat.population(), 8.0);
        (protocol, threat, knowledge)
    }

    #[test]
    fn rva_respects_budget_and_randomness() {
        let (protocol, threat, knowledge) = setup(100, 10, vec![1, 2, 3], 4.0);
        let mut rng = Xoshiro256pp::new(1);
        let reports = Rva.craft_adjacency(
            &protocol,
            TargetMetric::DegreeCentrality,
            &threat,
            &knowledge,
            &mut rng,
        );
        assert_eq!(reports.len(), 10);
        let budget = knowledge.connection_budget();
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.bit_degree(), budget.min(threat.population() - 1));
            assert!(!r.bits.get(threat.n_genuine + i), "no self edge");
            assert!((0.0..=(threat.population() - 1) as f64).contains(&r.degree));
        }
    }

    #[test]
    fn rna_connects_to_exactly_one_target_before_perturbation() {
        // With huge ε the RR barely flips bits, so the crafted edge shows.
        let (protocol, threat, knowledge) = setup(50, 5, vec![7, 9], 24.0);
        let mut rng = Xoshiro256pp::new(2);
        let reports = Rna.craft_adjacency(
            &protocol,
            TargetMetric::DegreeCentrality,
            &threat,
            &knowledge,
            &mut rng,
        );
        for r in &reports {
            let ones = r.bits.to_indices();
            assert_eq!(ones.len(), 1, "one nearly-unperturbed edge expected");
            assert!(threat.targets.contains(&ones[0]));
        }
    }

    #[test]
    fn mga_degree_hits_every_target_when_budget_allows() {
        let (protocol, threat, knowledge) = setup(200, 8, vec![3, 50, 120], 2.0);
        let mut rng = Xoshiro256pp::new(3);
        let reports = Mga::default().craft_adjacency(
            &protocol,
            TargetMetric::DegreeCentrality,
            &threat,
            &knowledge,
            &mut rng,
        );
        assert!(
            knowledge.connection_budget() >= 3,
            "test premise: budget covers targets"
        );
        for r in &reports {
            for &t in &threat.targets {
                assert!(r.bits.get(t), "target {t} missing from crafted vector");
            }
        }
    }

    #[test]
    fn mga_degree_respects_small_budget() {
        // ε huge → d̃ ≈ d̄ = 8 → budget 8 < r = 20.
        let targets: Vec<usize> = (0..20).collect();
        let (protocol, threat, knowledge) = setup(500, 5, targets, 20.0);
        let budget = knowledge.connection_budget();
        assert!(budget < 20);
        let mut rng = Xoshiro256pp::new(4);
        let reports = Mga::new(MgaOptions {
            pad_to_budget: false,
            ..Default::default()
        })
        .craft_adjacency(
            &protocol,
            TargetMetric::DegreeCentrality,
            &threat,
            &knowledge,
            &mut rng,
        );
        for r in &reports {
            assert_eq!(r.bit_degree(), budget.min(20));
            for one in r.bits.to_indices() {
                assert!(threat.targets.contains(&one));
            }
        }
    }

    #[test]
    fn mga_padding_fills_to_budget() {
        let (protocol, threat, knowledge) = setup(300, 4, vec![5], 2.0);
        let mut rng = Xoshiro256pp::new(5);
        let reports = Mga::default().craft_adjacency(
            &protocol,
            TargetMetric::DegreeCentrality,
            &threat,
            &knowledge,
            &mut rng,
        );
        let budget = knowledge.connection_budget().min(threat.population() - 1);
        for r in &reports {
            assert_eq!(r.bit_degree(), budget);
            assert!(r.bits.get(5));
        }
    }

    #[test]
    fn mga_clustering_interconnects_fakes_then_targets() {
        let (protocol, threat, knowledge) = setup(100, 6, vec![1, 2], 1.0);
        let mut rng = Xoshiro256pp::new(6);
        let reports = Mga::default().craft_adjacency(
            &protocol,
            TargetMetric::ClusteringCoefficient,
            &threat,
            &knowledge,
            &mut rng,
        );
        // Budget at ε=1 on N=106 is ample: every fake pair linked, every
        // fake hits both targets.
        for (i, r) in reports.iter().enumerate() {
            for j in 0..6 {
                if j != i {
                    assert!(
                        r.bits.get(threat.n_genuine + j),
                        "fake {i} should connect to fake {j}"
                    );
                }
            }
            assert!(r.bits.get(1) && r.bits.get(2));
        }
    }

    #[test]
    fn mga_clustering_without_prioritization_skips_fake_edges() {
        let (protocol, threat, knowledge) = setup(100, 5, vec![1], 1.0);
        let mut rng = Xoshiro256pp::new(7);
        let reports = Mga::new(MgaOptions {
            prioritize_fake_edges: false,
            pad_to_budget: false,
            ..Default::default()
        })
        .craft_adjacency(
            &protocol,
            TargetMetric::ClusteringCoefficient,
            &threat,
            &knowledge,
            &mut rng,
        );
        for r in &reports {
            for j in 0..5 {
                assert!(!r.bits.get(threat.n_genuine + j));
            }
        }
    }

    #[test]
    fn strategy_names() {
        assert_eq!(AttackStrategy::Rva.name(), "RVA");
        assert_eq!(AttackStrategy::Rna.name(), "RNA");
        assert_eq!(AttackStrategy::Mga.name(), "MGA");
    }
}
