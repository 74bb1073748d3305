//! The paper's three poisoning attacks (§IV-B) and the object-safe
//! [`Attack`] trait the scenario engine runs them through.
//!
//! Each attack — [`Rva`], [`Rna`], [`Mga`] — is one `impl Attack` holding
//! its three crafts side by side:
//!
//! * [`Attack::craft_adjacency`] — one LF-GDPR [`AdjacencyReport`] per
//!   fake user;
//! * [`Attack::craft_degree_vectors`] — one LDPGen degree vector per fake
//!   user, toward the server's current grouping (Figs. 14b and 15b);
//! * [`Attack::degree_footprint`] — the fake→target crafted-edge counts
//!   that drive the analytic sampled mode for degree centrality, at
//!   `O(r)` per trial.
//!
//! [`Attack::craft`] is the one place that routes a protocol's
//! [`CraftContext`] to a channel. A fourth attack is one more
//! `impl Attack`; every protocol, metric and defense then composes with
//! it through the [`crate::scenario::ScenarioBuilder`].
//!
//! On the adjacency channel, a fake user (id `≥ n`) owns every slot toward
//! genuine users and toward lower-id fake users under the protocol's
//! lower-triangle slot ownership, so crafted bits land in the server's
//! view verbatim unless the attack itself runs them through the mechanism,
//! as RNA does.
//!
//! | attack | connections | bits perturbed? | crafted degree | LDPGen vector |
//! |--------|-------------|-----------------|----------------|---------------|
//! | RVA | `⌊d̃⌋` uniform nodes | no | uniform over `[0, N−1]` | `⌊d̄⌋` uniform groups |
//! | RNA | 1 random target | yes (RR) | Laplace-perturbed count | 1 toward a random target's group, Laplace noise |
//! | MGA (degree) | `min(r, ⌊d̃⌋)` targets (+ random padding) | no | Laplace-perturbed count | `⌊d̄⌋` split over the targets' groups |
//! | MGA (cc) | fake↔fake first, then targets, ≤ `⌊d̃⌋` | no | Laplace-perturbed count | as MGA (degree) |
//!
//! `Rng`'s methods need a sized receiver, so crafts draw through
//! `&mut &mut dyn RngCore`.

use crate::knowledge::AttackerKnowledge;
use crate::strategy::{AttackStrategy, MgaOptions, TargetMetric};
use crate::threat::ThreatModel;
use ldp_graph::BitSet;
use ldp_mechanisms::sampling::{sample_binomial, sample_distinct, sample_laplace_vec};
use ldp_protocols::{AdjacencyReport, CraftContext, LfGdpr, UserReport};
use rand::{Rng, RngCore};
use std::ops::Deref;

/// The per-target crafted-edge counts of one attack, for the analytic
/// degree-channel model.
#[derive(Debug, Clone)]
pub struct DegreeFootprint {
    /// Crafted fake→target edges per target (index-aligned with the
    /// threat model's target list).
    pub crafted_per_target: Vec<usize>,
    /// Whether the crafted bits pass through the LDP mechanism (RNA) or
    /// land in the view verbatim (RVA/MGA).
    pub perturbed: bool,
}

/// A poisoning attack, as seen by the scenario engine. Object-safe:
/// scenarios hold `Box<dyn Attack>`. Every craft expects a threat model
/// with at least one target, which the scenario engine enforces.
pub trait Attack {
    /// Display name (as used in the paper's figures).
    fn name(&self) -> &'static str;

    /// Crafts one LF-GDPR report per fake user, optimizing for `metric`
    /// (modularity scenarios craft with the clustering pattern).
    fn craft_adjacency(
        &self,
        protocol: &LfGdpr,
        metric: TargetMetric,
        threat: &ThreatModel,
        knowledge: &AttackerKnowledge,
        rng: &mut dyn RngCore,
    ) -> Vec<AdjacencyReport>;

    /// Crafts one LDPGen phase report per fake user toward the server's
    /// grouping, spending `budget` connections; `noise_scale` is the
    /// phase's honest Laplace scale.
    fn craft_degree_vectors(
        &self,
        threat: &ThreatModel,
        groups: &[usize],
        num_groups: usize,
        budget: usize,
        noise_scale: f64,
        rng: &mut dyn RngCore,
    ) -> Vec<Vec<f64>>;

    /// The crafted-edge counts toward each target, for the analytic
    /// sampled degree mode.
    fn degree_footprint(
        &self,
        threat: &ThreatModel,
        knowledge: &AttackerKnowledge,
        rng: &mut dyn RngCore,
    ) -> DegreeFootprint;

    /// Crafts one upload per fake user for the channel described by
    /// `ctx`: adjacency reports, or degree vectors at
    /// [`AttackerKnowledge::ldpgen_budget`].
    fn craft(
        &self,
        ctx: CraftContext<'_>,
        metric: TargetMetric,
        threat: &ThreatModel,
        knowledge: &AttackerKnowledge,
        rng: &mut dyn RngCore,
    ) -> Vec<UserReport> {
        match ctx {
            CraftContext::Adjacency { protocol } => self
                .craft_adjacency(protocol, metric, threat, knowledge, rng)
                .into_iter()
                .map(UserReport::Adjacency)
                .collect(),
            CraftContext::DegreeVectors {
                groups,
                num_groups,
                noise_scale,
                ..
            } => self
                .craft_degree_vectors(
                    threat,
                    groups,
                    num_groups,
                    knowledge.ldpgen_budget(),
                    noise_scale,
                    rng,
                )
                .into_iter()
                .map(UserReport::DegreeVector)
                .collect(),
        }
    }
}

impl<P: Deref<Target = A>, A: Attack + ?Sized> Attack for P {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn craft_adjacency(
        &self,
        protocol: &LfGdpr,
        metric: TargetMetric,
        threat: &ThreatModel,
        knowledge: &AttackerKnowledge,
        rng: &mut dyn RngCore,
    ) -> Vec<AdjacencyReport> {
        (**self).craft_adjacency(protocol, metric, threat, knowledge, rng)
    }

    fn craft_degree_vectors(
        &self,
        threat: &ThreatModel,
        groups: &[usize],
        num_groups: usize,
        budget: usize,
        noise_scale: f64,
        rng: &mut dyn RngCore,
    ) -> Vec<Vec<f64>> {
        (**self).craft_degree_vectors(threat, groups, num_groups, budget, noise_scale, rng)
    }

    fn degree_footprint(
        &self,
        threat: &ThreatModel,
        knowledge: &AttackerKnowledge,
        rng: &mut dyn RngCore,
    ) -> DegreeFootprint {
        (**self).degree_footprint(threat, knowledge, rng)
    }
}

/// Random Value Attack (§IV-B): target-oblivious random connections and a
/// random degree value (graph adaptation of Cao et al.'s RPA).
#[derive(Debug, Clone, Copy, Default)]
pub struct Rva;

impl Attack for Rva {
    fn name(&self) -> &'static str {
        "RVA"
    }

    /// Each fake user connects to `⌊d̃⌋` uniformly random other nodes —
    /// connections are *not* perturbed — and reports a degree drawn
    /// uniformly from the degree space `[0, N−1]` (§V, §VI).
    fn craft_adjacency(
        &self,
        _protocol: &LfGdpr,
        _metric: TargetMetric,
        threat: &ThreatModel,
        knowledge: &AttackerKnowledge,
        mut rng: &mut dyn RngCore,
    ) -> Vec<AdjacencyReport> {
        let rng = &mut rng;
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

    /// The connection budget spread uniformly at random across groups,
    /// target-oblivious.
    fn craft_degree_vectors(
        &self,
        threat: &ThreatModel,
        _groups: &[usize],
        num_groups: usize,
        budget: usize,
        _noise_scale: f64,
        mut rng: &mut dyn RngCore,
    ) -> Vec<Vec<f64>> {
        let rng = &mut rng;
        (0..threat.m_fake)
            .map(|_| {
                let mut v = vec![0.0f64; num_groups];
                for _ in 0..budget {
                    v[rng.gen_range(0..num_groups)] += 1.0;
                }
                v
            })
            .collect()
    }

    /// Each fake picks `budget` uniform nodes out of N−1, so a given
    /// target is hit with probability budget/(N−1).
    fn degree_footprint(
        &self,
        threat: &ThreatModel,
        knowledge: &AttackerKnowledge,
        mut rng: &mut dyn RngCore,
    ) -> DegreeFootprint {
        let rng = &mut rng;
        let budget = knowledge
            .connection_budget()
            .min(threat.population().saturating_sub(1));
        let p_hit = budget as f64 / (threat.population() as f64 - 1.0);
        DegreeFootprint {
            crafted_per_target: threat
                .targets
                .iter()
                .map(|_| sample_binomial(threat.m_fake, p_hit, rng))
                .collect(),
            perturbed: false,
        }
    }
}

/// Random Node Attack (§IV-B): one crafted edge to a random target,
/// everything honestly perturbed (graph adaptation of RIA).
#[derive(Debug, Clone, Copy, Default)]
pub struct Rna;

impl Attack for Rna {
    fn name(&self) -> &'static str {
        "RNA"
    }

    /// Each fake user crafts a single edge to one random target and then
    /// runs the genuine LDP pipeline over it: RR on the bit vector,
    /// Laplace on the degree (§V, §VI).
    fn craft_adjacency(
        &self,
        protocol: &LfGdpr,
        _metric: TargetMetric,
        threat: &ThreatModel,
        _knowledge: &AttackerKnowledge,
        mut rng: &mut dyn RngCore,
    ) -> Vec<AdjacencyReport> {
        let rng = &mut rng;
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

    /// One claimed connection toward the group of a random target, then
    /// honest Laplace noise on the vector.
    fn craft_degree_vectors(
        &self,
        threat: &ThreatModel,
        groups: &[usize],
        num_groups: usize,
        _budget: usize,
        noise_scale: f64,
        mut rng: &mut dyn RngCore,
    ) -> Vec<Vec<f64>> {
        let rng = &mut rng;
        (0..threat.m_fake)
            .map(|_| {
                let mut v = vec![0.0f64; num_groups];
                let t = threat.targets[rng.gen_range(0..threat.targets.len())];
                v[groups[t]] += 1.0;
                sample_laplace_vec(&mut v, noise_scale, rng);
                v.iter_mut().for_each(|x| *x = x.max(0.0));
                v
            })
            .collect()
    }

    /// One crafted edge per fake to a uniform target, perturbed by RR.
    fn degree_footprint(
        &self,
        threat: &ThreatModel,
        _knowledge: &AttackerKnowledge,
        mut rng: &mut dyn RngCore,
    ) -> DegreeFootprint {
        let rng = &mut rng;
        let r = threat.targets.len();
        let mut crafted = vec![0usize; r];
        for _ in 0..threat.m_fake {
            crafted[rng.gen_range(0..r)] += 1;
        }
        DegreeFootprint {
            crafted_per_target: crafted,
            perturbed: true,
        }
    }
}

/// Maximal Gain Attack (§IV-B, Theorems 1–2): optimization-based crafting,
/// with the paper's options absorbed as configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mga {
    /// Budget/padding/prioritization knobs (paper defaults via
    /// [`Default`]).
    pub options: MgaOptions,
}

impl Mga {
    /// MGA with explicit options.
    pub fn new(options: MgaOptions) -> Self {
        Mga { options }
    }

    /// The per-fake connection budget: the override, else `⌊d̃⌋`, within
    /// `[1, N − 1]`.
    fn budget(&self, knowledge: &AttackerKnowledge, threat: &ThreatModel) -> usize {
        self.options
            .budget_override
            .unwrap_or_else(|| knowledge.connection_budget())
            .min(threat.population().saturating_sub(1))
            .max(1)
    }

    /// MGA against degree centrality (§V): each fake user connects to
    /// `min(r, ⌊d̃⌋)` targets (randomly chosen if the budget cannot cover
    /// all `r`), optionally pads to the full budget with random
    /// non-targets, and uploads the crafted vector unperturbed.
    fn craft_degree<R: Rng>(
        &self,
        protocol: &LfGdpr,
        threat: &ThreatModel,
        knowledge: &AttackerKnowledge,
        rng: &mut R,
    ) -> Vec<AdjacencyReport> {
        let population = threat.population();
        let budget = self.budget(knowledge, threat);
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
                if self.options.pad_to_budget {
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

    /// MGA against the clustering coefficient (§VI): prioritized
    /// allocation — fake users first interconnect (every fake↔fake edge is
    /// a future triangle side), then spend remaining budget on targets
    /// round-robin, so each triangle `fake–fake–target` materializes with
    /// two target edges plus the pre-paid fake edge. Vectors are uploaded
    /// unperturbed; degrees are Laplace-consistent with the claimed
    /// connections.
    fn craft_clustering<R: Rng>(
        &self,
        protocol: &LfGdpr,
        threat: &ThreatModel,
        knowledge: &AttackerKnowledge,
        rng: &mut R,
    ) -> Vec<AdjacencyReport> {
        let population = threat.population();
        let budget = self.budget(knowledge, threat);
        let m = threat.m_fake;
        let fake_start = threat.n_genuine;
        let mut bit_rows: Vec<BitSet> = (0..m).map(|_| BitSet::new(population)).collect();
        let mut remaining: Vec<usize> = vec![budget; m];

        if self.options.prioritize_fake_edges {
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
}

impl Attack for Mga {
    fn name(&self) -> &'static str {
        "MGA"
    }

    fn craft_adjacency(
        &self,
        protocol: &LfGdpr,
        metric: TargetMetric,
        threat: &ThreatModel,
        knowledge: &AttackerKnowledge,
        mut rng: &mut dyn RngCore,
    ) -> Vec<AdjacencyReport> {
        let rng = &mut rng;
        match metric {
            TargetMetric::DegreeCentrality => self.craft_degree(protocol, threat, knowledge, rng),
            TargetMetric::ClusteringCoefficient => {
                self.craft_clustering(protocol, threat, knowledge, rng)
            }
        }
    }

    /// The full connection budget concentrated on the groups that contain
    /// targets, in proportion to how many targets each group holds,
    /// pulling the fake users into the targets' clusters.
    fn craft_degree_vectors(
        &self,
        threat: &ThreatModel,
        groups: &[usize],
        num_groups: usize,
        budget: usize,
        _noise_scale: f64,
        _rng: &mut dyn RngCore,
    ) -> Vec<Vec<f64>> {
        let mut targets_per_group = vec![0usize; num_groups];
        for &t in &threat.targets {
            targets_per_group[groups[t]] += 1;
        }
        let r = threat.targets.len().max(1);
        let v: Vec<f64> = targets_per_group
            .iter()
            .map(|&c| budget as f64 * c as f64 / r as f64)
            .collect();
        vec![v; threat.m_fake]
    }

    /// Each fake hits `min(r, budget)` distinct targets, at the budget its
    /// crafts spend.
    fn degree_footprint(
        &self,
        threat: &ThreatModel,
        knowledge: &AttackerKnowledge,
        mut rng: &mut dyn RngCore,
    ) -> DegreeFootprint {
        let rng = &mut rng;
        let r = threat.targets.len();
        let budget = self.budget(knowledge, threat);
        let mut crafted = vec![0usize; r];
        if budget >= r {
            crafted = vec![threat.m_fake; r];
        } else {
            for _ in 0..threat.m_fake {
                for idx in sample_distinct(r, budget, rng) {
                    crafted[idx] += 1;
                }
            }
        }
        DegreeFootprint {
            crafted_per_target: crafted,
            perturbed: false,
        }
    }
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

/// The attack realizing a `(strategy, options)` pair — the bridge the
/// sweep machinery uses to iterate attacks as data.
pub fn attack_for(strategy: AttackStrategy, options: MgaOptions) -> Box<dyn Attack> {
    match strategy {
        AttackStrategy::Rva => Box::new(Rva),
        AttackStrategy::Rna => Box::new(Rna),
        AttackStrategy::Mga => Box::new(Mga::new(options)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use ldp_graph::generate::caveman_graph;
    use ldp_graph::{CsrGraph, Xoshiro256pp};
    use ldp_protocols::{LdpGen, Metric};

    fn setup() -> (LfGdpr, ThreatModel, AttackerKnowledge) {
        let protocol = LfGdpr::new(4.0).unwrap();
        let threat = ThreatModel::explicit(100, 10, vec![1, 2, 3]);
        let knowledge = AttackerKnowledge::derive(&protocol, threat.population(), 8.0);
        (protocol, threat, knowledge)
    }

    fn ldpgen_setup() -> (CsrGraph, LdpGen, ThreatModel) {
        let graph = caveman_graph(10, 8);
        let protocol = LdpGen::with_defaults(4.0).unwrap();
        let threat = ThreatModel::explicit(80, 8, vec![0, 8, 16, 24]);
        (graph, protocol, threat)
    }

    /// `craft` routes each channel to the attack's own craft, bit for bit:
    /// adjacency under both metrics, and degree vectors at the LDPGen
    /// budget.
    #[test]
    fn trait_crafting_matches_free_functions() {
        let (protocol, threat, knowledge) = setup();
        assert_ne!(knowledge.ldpgen_budget(), knowledge.connection_budget());
        let groups: Vec<usize> = (0..threat.population()).map(|u| u % 3).collect();
        for strategy in AttackStrategy::ALL {
            let attack = attack_for(strategy, MgaOptions::default());
            for metric in [
                TargetMetric::DegreeCentrality,
                TargetMetric::ClusteringCoefficient,
            ] {
                let ctx = CraftContext::Adjacency {
                    protocol: &protocol,
                };
                let via_craft =
                    attack.craft(ctx, metric, &threat, &knowledge, &mut Xoshiro256pp::new(77));
                let direct = attack.craft_adjacency(
                    &protocol,
                    metric,
                    &threat,
                    &knowledge,
                    &mut Xoshiro256pp::new(77),
                );
                assert_eq!(via_craft.len(), direct.len());
                for (a, b) in via_craft.iter().zip(&direct) {
                    let UserReport::Adjacency(a) = a else {
                        panic!("adjacency channel")
                    };
                    assert_eq!(a.bits, b.bits, "{strategy:?}/{metric:?} bits must match");
                    assert_eq!(
                        a.degree.to_bits(),
                        b.degree.to_bits(),
                        "{strategy:?}/{metric:?} degree must match"
                    );
                }
            }
            let ctx = CraftContext::DegreeVectors {
                phase: 1,
                groups: &groups,
                num_groups: 3,
                noise_scale: 0.5,
            };
            let via_craft = attack.craft(
                ctx,
                TargetMetric::ClusteringCoefficient,
                &threat,
                &knowledge,
                &mut Xoshiro256pp::new(78),
            );
            let direct = attack.craft_degree_vectors(
                &threat,
                &groups,
                3,
                knowledge.ldpgen_budget(),
                0.5,
                &mut Xoshiro256pp::new(78),
            );
            assert_eq!(via_craft.len(), direct.len());
            for (a, b) in via_craft.iter().zip(&direct) {
                let UserReport::DegreeVector(a) = a else {
                    panic!("degree-vector channel")
                };
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(a), bits(b), "{strategy:?} vectors must match");
            }
        }
    }

    #[test]
    fn degree_vector_channel_produces_vectors() {
        let (_, threat, knowledge) = setup();
        let groups = vec![0usize; 110];
        let mut rng = Xoshiro256pp::new(5);
        for strategy in AttackStrategy::ALL {
            let attack = attack_for(strategy, MgaOptions::default());
            let crafted = attack.craft(
                CraftContext::DegreeVectors {
                    phase: 1,
                    groups: &groups,
                    num_groups: 3,
                    noise_scale: 0.5,
                },
                TargetMetric::ClusteringCoefficient,
                &threat,
                &knowledge,
                &mut rng,
            );
            assert_eq!(crafted.len(), threat.m_fake);
            assert!(crafted
                .iter()
                .all(|r| matches!(r, UserReport::DegreeVector(v) if v.len() == 3)));
        }
    }

    #[test]
    fn footprints_have_one_count_per_target() {
        let (_, threat, knowledge) = setup();
        let mut rng = Xoshiro256pp::new(9);
        for strategy in AttackStrategy::ALL {
            let attack = attack_for(strategy, MgaOptions::default());
            let fp = attack.degree_footprint(&threat, &knowledge, &mut rng);
            assert_eq!(fp.crafted_per_target.len(), threat.num_targets());
            assert_eq!(fp.perturbed, strategy == AttackStrategy::Rna);
            assert!(fp
                .crafted_per_target
                .iter()
                .all(|&c| c <= threat.m_fake * threat.num_targets()));
        }
    }

    #[test]
    fn mga_footprint_saturates_when_budget_covers_targets() {
        let (_, threat, knowledge) = setup();
        assert!(knowledge.connection_budget() >= threat.num_targets());
        let mut rng = Xoshiro256pp::new(1);
        let fp = Mga::default().degree_footprint(&threat, &knowledge, &mut rng);
        assert!(fp.crafted_per_target.iter().all(|&c| c == threat.m_fake));
    }

    #[test]
    fn names_and_strategies_align() {
        assert_eq!(Rva.name(), "RVA");
        assert_eq!(Rna.name(), "RNA");
        assert_eq!(Mga::default().name(), "MGA");
        for strategy in AttackStrategy::ALL {
            assert_eq!(
                attack_for(strategy, MgaOptions::default()).name(),
                strategy.name()
            );
        }
    }

    #[test]
    fn crafted_vectors_have_group_dimension() {
        let (_, _, threat) = ldpgen_setup();
        let groups = vec![0usize; 88];
        let mut rng = Xoshiro256pp::new(1);
        for strategy in AttackStrategy::ALL {
            let attack = attack_for(strategy, MgaOptions::default());
            let vs = attack.craft_degree_vectors(&threat, &groups, 3, 5, 1.0, &mut rng);
            assert_eq!(vs.len(), 8);
            assert!(vs.iter().all(|v| v.len() == 3));
            assert!(vs.iter().flatten().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn mga_concentrates_on_target_groups() {
        let (_, _, threat) = ldpgen_setup();
        // Targets 0, 8, 16, 24: put first two in group 1, rest in group 0.
        let mut groups = vec![0usize; 88];
        groups[0] = 1;
        groups[8] = 1;
        let mut rng = Xoshiro256pp::new(2);
        let vs = Mga::default().craft_degree_vectors(&threat, &groups, 2, 10, 1.0, &mut rng);
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
        let (graph, protocol, threat) = ldpgen_setup();
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
        let (graph, protocol, threat) = ldpgen_setup();
        let partition: Vec<usize> = (0..80).map(|u| u / 8).collect();
        let outcome = Scenario::on(protocol)
            .attack(Mga::default())
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
        let (graph, protocol, threat) = ldpgen_setup();
        let err = Scenario::on(protocol)
            .attack(Mga::default())
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
