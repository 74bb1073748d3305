//! The three poisoning attacks of §IV-B, crafting LF-GDPR reports.
//!
//! Every strategy produces one [`AdjacencyReport`] per fake user. The crafted
//! bit vector covers the whole population; under the protocol's
//! lower-triangle slot ownership, a fake user (id `≥ n`) is authoritative
//! for every slot toward genuine users and toward lower-id fake users, so
//! crafted bits land in the server's view verbatim (unless the strategy
//! itself runs them through the mechanism, as RNA does).
//!
//! | strategy | connections | bits perturbed? | crafted degree |
//! |----------|-------------|-----------------|----------------|
//! | RVA | `⌊d̃⌋` uniform nodes | no | uniform over `[0, N−1]` |
//! | RNA | 1 random target | yes (RR) | Laplace-perturbed count |
//! | MGA (degree) | `min(r, ⌊d̃⌋)` targets (+ random padding) | no | Laplace-perturbed count |
//! | MGA (cc) | fake↔fake first, then targets, ≤ `⌊d̃⌋` | no | Laplace-perturbed count |

use crate::knowledge::AttackerKnowledge;
use crate::threat::ThreatModel;
use ldp_graph::BitSet;
use ldp_mechanisms::sampling::sample_distinct;
use ldp_protocols::{AdjacencyReport, LfGdpr};
use rand::Rng;

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
    /// Random Value Attack: random connections and a random degree value,
    /// target-oblivious (graph adaptation of Cao et al.'s RPA).
    Rva,
    /// Random Node Attack: one crafted edge to a random target, everything
    /// honestly perturbed (graph adaptation of RIA).
    Rna,
    /// Maximal Gain Attack: optimization-based crafting (Theorems 1–2).
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

impl MgaOptions {
    /// Resolves the effective connection budget for a population.
    fn effective_budget(&self, knowledge: &AttackerKnowledge, population: usize) -> usize {
        self.budget_override
            .unwrap_or_else(|| knowledge.connection_budget())
            .min(population.saturating_sub(1))
            .max(1)
    }
}

/// Crafts the `m` fake reports for the given strategy and metric.
///
/// `protocol` supplies the mechanisms RNA uses for honest-looking
/// perturbation and the Laplace noise MGA adds to its crafted degrees.
pub fn craft_reports<R: Rng>(
    strategy: AttackStrategy,
    metric: TargetMetric,
    protocol: &LfGdpr,
    threat: &ThreatModel,
    knowledge: &AttackerKnowledge,
    options: MgaOptions,
    rng: &mut R,
) -> Vec<AdjacencyReport> {
    match strategy {
        AttackStrategy::Rva => craft_rva(protocol, threat, knowledge, rng),
        AttackStrategy::Rna => craft_rna(protocol, threat, rng),
        AttackStrategy::Mga => match metric {
            TargetMetric::DegreeCentrality => {
                craft_mga_degree(protocol, threat, knowledge, options, rng)
            }
            TargetMetric::ClusteringCoefficient => {
                craft_mga_clustering(protocol, threat, knowledge, options, rng)
            }
        },
    }
}

/// RVA (§V, §VI): each fake user connects to `⌊d̃⌋` uniformly random other
/// nodes — connections are *not* perturbed — and reports a degree drawn
/// uniformly from the degree space `[0, N−1]`.
fn craft_rva<R: Rng>(
    _protocol: &LfGdpr,
    threat: &ThreatModel,
    knowledge: &AttackerKnowledge,
    rng: &mut R,
) -> Vec<AdjacencyReport> {
    let population = threat.population();
    let budget = knowledge.connection_budget().min(population - 1);
    threat
        .fake_ids()
        .map(|fake| {
            let mut bits = BitSet::new(population);
            // Sample `budget` distinct nodes from 0..N−1 excluding `fake`.
            for idx in sample_distinct(population - 1, budget, rng) {
                let node = if idx >= fake { idx + 1 } else { idx };
                bits.set(node);
            }
            let degree = rng.gen_range(0..=knowledge.degree_domain()) as f64;
            AdjacencyReport::new(bits, degree)
        })
        .collect()
}

/// RNA (§V, §VI): each fake user crafts a single edge to one random target
/// and then runs the genuine LDP pipeline over it: RR on the bit vector,
/// Laplace on the degree.
fn craft_rna<R: Rng>(protocol: &LfGdpr, threat: &ThreatModel, rng: &mut R) -> Vec<AdjacencyReport> {
    let population = threat.population();
    let flips = protocol.rr().flip_sampler();
    threat
        .fake_ids()
        .map(|fake| {
            let target = threat.targets[rng.gen_range(0..threat.targets.len())];
            let truth = BitSet::from_indices(population, [target]);
            let bits = flips.perturb_bitset(&truth, Some(fake), rng);
            let degree = protocol
                .laplace()
                .perturb_degree(1.0, (population - 1) as f64, rng);
            AdjacencyReport::new(bits, degree)
        })
        .collect()
}

/// MGA against degree centrality (§V): each fake user connects to
/// `min(r, ⌊d̃⌋)` targets (randomly chosen if the budget cannot cover all
/// `r`), optionally pads to the full budget with random non-targets, and
/// uploads the crafted vector unperturbed.
fn craft_mga_degree<R: Rng>(
    protocol: &LfGdpr,
    threat: &ThreatModel,
    knowledge: &AttackerKnowledge,
    options: MgaOptions,
    rng: &mut R,
) -> Vec<AdjacencyReport> {
    let population = threat.population();
    let budget = options.effective_budget(knowledge, population);
    let per_fake_targets = threat.targets.len().min(budget);
    threat
        .fake_ids()
        .map(|fake| {
            let mut bits = BitSet::new(population);
            if per_fake_targets == threat.targets.len() {
                for &t in &threat.targets {
                    bits.set(t);
                }
            } else {
                for idx in sample_distinct(threat.targets.len(), per_fake_targets, rng) {
                    bits.set(threat.targets[idx]);
                }
            }
            if options.pad_to_budget {
                pad_with_random(&mut bits, fake, budget, rng);
            }
            let degree = protocol.laplace().perturb_degree(
                bits.count_ones() as f64,
                (population - 1) as f64,
                rng,
            );
            AdjacencyReport::new(bits, degree)
        })
        .collect()
}

/// MGA against the clustering coefficient (§VI): prioritized allocation —
/// fake users first interconnect (every fake↔fake edge is a future triangle
/// side), then spend remaining budget on targets round-robin, so each
/// triangle `fake–fake–target` materializes with two target edges plus the
/// pre-paid fake edge. Vectors are uploaded unperturbed; degrees are
/// Laplace-consistent with the claimed connections.
fn craft_mga_clustering<R: Rng>(
    protocol: &LfGdpr,
    threat: &ThreatModel,
    knowledge: &AttackerKnowledge,
    options: MgaOptions,
    rng: &mut R,
) -> Vec<AdjacencyReport> {
    let population = threat.population();
    let budget = options.effective_budget(knowledge, population);
    let m = threat.m_fake;
    let fake_start = threat.n_genuine;
    let mut bit_rows: Vec<BitSet> = (0..m).map(|_| BitSet::new(population)).collect();
    let mut remaining: Vec<usize> = vec![budget; m];

    if options.prioritize_fake_edges {
        // Fake clique, budget permitting: iterate pairs (i, j), i < j.
        'outer: for i in 0..m {
            for j in (i + 1)..m {
                if remaining[i] == 0 {
                    continue 'outer;
                }
                if remaining[j] == 0 {
                    continue;
                }
                bit_rows[i].set(fake_start + j);
                bit_rows[j].set(fake_start + i);
                remaining[i] -= 1;
                remaining[j] -= 1;
            }
        }
    }

    // Then targets, round-robin over a randomly rotated target order per
    // fake user so coverage is even when budgets run short.
    let r = threat.targets.len();
    for i in 0..m {
        if r == 0 {
            break;
        }
        let offset = rng.gen_range(0..r);
        let take = remaining[i].min(r);
        for step in 0..take {
            let t = threat.targets[(offset + step) % r];
            bit_rows[i].set(t);
            remaining[i] -= 1;
        }
    }

    bit_rows
        .into_iter()
        .map(|bits| {
            let degree = protocol.laplace().perturb_degree(
                bits.count_ones() as f64,
                (population - 1) as f64,
                rng,
            );
            AdjacencyReport::new(bits, degree)
        })
        .collect()
}

/// Adds random non-target, non-self connections until `bits` has `budget`
/// ones (or the population is exhausted).
fn pad_with_random<R: Rng>(bits: &mut BitSet, own_id: usize, budget: usize, rng: &mut R) {
    let population = bits.capacity();
    let mut ones = bits.count_ones();
    let mut guard = 0usize;
    let max_tries = 20 * budget + 100;
    while ones < budget && guard < max_tries {
        let v = rng.gen_range(0..population);
        if v != own_id && !bits.get(v) {
            bits.set(v);
            ones += 1;
        }
        guard += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_graph::Xoshiro256pp;

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
        let reports = craft_reports(
            AttackStrategy::Rva,
            TargetMetric::DegreeCentrality,
            &protocol,
            &threat,
            &knowledge,
            MgaOptions::default(),
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
        let reports = craft_reports(
            AttackStrategy::Rna,
            TargetMetric::DegreeCentrality,
            &protocol,
            &threat,
            &knowledge,
            MgaOptions::default(),
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
        let reports = craft_reports(
            AttackStrategy::Mga,
            TargetMetric::DegreeCentrality,
            &protocol,
            &threat,
            &knowledge,
            MgaOptions::default(),
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
        let reports = craft_reports(
            AttackStrategy::Mga,
            TargetMetric::DegreeCentrality,
            &protocol,
            &threat,
            &knowledge,
            MgaOptions {
                pad_to_budget: false,
                ..Default::default()
            },
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
        let reports = craft_reports(
            AttackStrategy::Mga,
            TargetMetric::DegreeCentrality,
            &protocol,
            &threat,
            &knowledge,
            MgaOptions::default(),
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
        let reports = craft_reports(
            AttackStrategy::Mga,
            TargetMetric::ClusteringCoefficient,
            &protocol,
            &threat,
            &knowledge,
            MgaOptions::default(),
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
        let reports = craft_reports(
            AttackStrategy::Mga,
            TargetMetric::ClusteringCoefficient,
            &protocol,
            &threat,
            &knowledge,
            MgaOptions {
                prioritize_fake_edges: false,
                pad_to_budget: false,
                ..Default::default()
            },
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
