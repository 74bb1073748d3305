//! The attack abstraction of the scenario engine: one object-safe
//! [`Attack`] trait whose implementors — [`Rva`], [`Rna`], [`Mga`] — craft
//! the fake tail's uploads for *any* protocol channel the engine evaluates.
//!
//! Each attack answers two questions:
//!
//! * [`Attack::craft`] — given a channel context (LF-GDPR adjacency
//!   reports or an LDPGen degree-vector phase), produce one upload per
//!   fake user. Delegates to the §IV-B crafting routines in
//!   [`crate::strategy`] and [`crate::ldpgen_attack`], so the byte streams
//!   match the legacy pipelines exactly.
//! * [`Attack::degree_footprint`] — the fake→target crafted-edge counts
//!   that drive the analytic sampled mode for degree centrality, at
//!   `O(r)` per trial.
//!
//! Adding a fourth attack to the matrix is one `impl Attack`; every
//! protocol, metric, and defense then composes with it through the
//! [`crate::scenario::ScenarioBuilder`].

use crate::knowledge::AttackerKnowledge;
use crate::ldpgen_attack::craft_degree_vectors;
use crate::strategy::{craft_reports, AttackStrategy, MgaOptions, TargetMetric};
use crate::threat::ThreatModel;
use ldp_mechanisms::sampling::{sample_binomial, sample_distinct};
use ldp_protocols::{CraftContext, UserReport};
use rand::{Rng, RngCore};

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
/// scenarios hold `Box<dyn Attack>`.
pub trait Attack {
    /// Display name (as used in the paper's figures).
    fn name(&self) -> &'static str;

    /// Crafts one upload per fake user for the channel described by
    /// `ctx`. `metric` is the metric the attack optimizes for (modularity
    /// scenarios craft with the clustering pattern, as in the paper).
    fn craft(
        &self,
        ctx: CraftContext<'_>,
        metric: TargetMetric,
        threat: &ThreatModel,
        knowledge: &AttackerKnowledge,
        rng: &mut dyn RngCore,
    ) -> Vec<UserReport>;

    /// The crafted-edge counts toward each target, for the analytic
    /// sampled degree mode.
    fn degree_footprint(
        &self,
        threat: &ThreatModel,
        knowledge: &AttackerKnowledge,
        rng: &mut dyn RngCore,
    ) -> DegreeFootprint;
}

impl<A: Attack + ?Sized> Attack for &A {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn craft(
        &self,
        ctx: CraftContext<'_>,
        metric: TargetMetric,
        threat: &ThreatModel,
        knowledge: &AttackerKnowledge,
        rng: &mut dyn RngCore,
    ) -> Vec<UserReport> {
        (**self).craft(ctx, metric, threat, knowledge, rng)
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

impl<A: Attack + ?Sized> Attack for Box<A> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn craft(
        &self,
        ctx: CraftContext<'_>,
        metric: TargetMetric,
        threat: &ThreatModel,
        knowledge: &AttackerKnowledge,
        rng: &mut dyn RngCore,
    ) -> Vec<UserReport> {
        (**self).craft(ctx, metric, threat, knowledge, rng)
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

/// Shared crafting body: all three attacks dispatch on the channel the
/// same way, differing only in strategy (and MGA's options).
fn craft_for_channel(
    strategy: AttackStrategy,
    options: MgaOptions,
    ctx: CraftContext<'_>,
    metric: TargetMetric,
    threat: &ThreatModel,
    knowledge: &AttackerKnowledge,
    rng: &mut dyn RngCore,
) -> Vec<UserReport> {
    let mut rng: &mut dyn RngCore = rng;
    match ctx {
        CraftContext::Adjacency { protocol } => craft_reports(
            strategy, metric, protocol, threat, knowledge, options, &mut rng,
        )
        .into_iter()
        .map(UserReport::Adjacency)
        .collect(),
        CraftContext::DegreeVectors {
            groups,
            num_groups,
            noise_scale,
            ..
        } => {
            // No RR channel in LDPGen, so the connection budget is the
            // published true average degree, not the perturbed one.
            let budget = knowledge.ldpgen_budget();
            craft_degree_vectors(
                strategy,
                threat,
                groups,
                num_groups,
                budget,
                noise_scale,
                &mut rng,
            )
            .into_iter()
            .map(UserReport::DegreeVector)
            .collect()
        }
    }
}

/// Shared analytic footprint: the fake→target edge counts each strategy
/// crafts, matching the crafting routines in distribution (and the legacy
/// sampled pipeline bit for bit).
fn footprint_for_strategy(
    strategy: AttackStrategy,
    threat: &ThreatModel,
    knowledge: &AttackerKnowledge,
    rng: &mut dyn RngCore,
) -> DegreeFootprint {
    let mut rng: &mut dyn RngCore = rng;
    let r = threat.targets.len();
    let budget = knowledge
        .connection_budget()
        .min(threat.population().saturating_sub(1));
    let mut crafted = vec![0usize; r];
    let mut perturbed = false;
    match strategy {
        AttackStrategy::Mga => {
            let per_fake = r.min(budget);
            if per_fake == r {
                crafted = vec![threat.m_fake; r];
            } else {
                for _ in 0..threat.m_fake {
                    for idx in sample_distinct(r, per_fake, &mut rng) {
                        crafted[idx] += 1;
                    }
                }
            }
        }
        AttackStrategy::Rva => {
            // Each fake picks `budget` uniform nodes out of N−1; a given
            // target is hit with probability budget/(N−1).
            let p_hit = budget as f64 / (threat.population() as f64 - 1.0);
            for c in crafted.iter_mut() {
                *c = sample_binomial(threat.m_fake, p_hit, &mut rng);
            }
        }
        AttackStrategy::Rna => {
            perturbed = true;
            for _ in 0..threat.m_fake {
                let idx = (&mut rng).gen_range(0..r);
                crafted[idx] += 1;
            }
        }
    }
    DegreeFootprint {
        crafted_per_target: crafted,
        perturbed,
    }
}

/// Random Value Attack (§IV-B): target-oblivious random connections and a
/// random degree value.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rva;

/// Random Node Attack (§IV-B): one crafted edge to a random target,
/// everything honestly perturbed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rna;

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
}

macro_rules! impl_attack {
    ($ty:ty, $strategy:expr, |$self_:ident| $options:expr) => {
        impl Attack for $ty {
            fn name(&self) -> &'static str {
                $strategy.name()
            }

            fn craft(
                &self,
                ctx: CraftContext<'_>,
                metric: TargetMetric,
                threat: &ThreatModel,
                knowledge: &AttackerKnowledge,
                rng: &mut dyn RngCore,
            ) -> Vec<UserReport> {
                let $self_ = self;
                craft_for_channel($strategy, $options, ctx, metric, threat, knowledge, rng)
            }

            fn degree_footprint(
                &self,
                threat: &ThreatModel,
                knowledge: &AttackerKnowledge,
                rng: &mut dyn RngCore,
            ) -> DegreeFootprint {
                footprint_for_strategy($strategy, threat, knowledge, rng)
            }
        }
    };
}

impl_attack!(Rva, AttackStrategy::Rva, |_s| MgaOptions::default());
impl_attack!(Rna, AttackStrategy::Rna, |_s| MgaOptions::default());
impl_attack!(Mga, AttackStrategy::Mga, |s| s.options);

/// The trait object realizing a `(strategy, options)` pair — the bridge
/// the sweep machinery uses to iterate attacks as data.
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
    use ldp_graph::Xoshiro256pp;
    use ldp_protocols::LfGdpr;

    fn setup() -> (LfGdpr, ThreatModel, AttackerKnowledge) {
        let protocol = LfGdpr::new(4.0).unwrap();
        let threat = ThreatModel::explicit(100, 10, vec![1, 2, 3]);
        let knowledge = AttackerKnowledge::derive(&protocol, threat.population(), 8.0);
        (protocol, threat, knowledge)
    }

    #[test]
    fn trait_crafting_matches_free_functions() {
        let (protocol, threat, knowledge) = setup();
        for strategy in AttackStrategy::ALL {
            let attack = attack_for(strategy, MgaOptions::default());
            let mut rng_a = Xoshiro256pp::new(77);
            let via_trait = attack.craft(
                CraftContext::Adjacency {
                    protocol: &protocol,
                },
                TargetMetric::DegreeCentrality,
                &threat,
                &knowledge,
                &mut rng_a,
            );
            let mut rng_b = Xoshiro256pp::new(77);
            let direct = craft_reports(
                strategy,
                TargetMetric::DegreeCentrality,
                &protocol,
                &threat,
                &knowledge,
                MgaOptions::default(),
                &mut rng_b,
            );
            assert_eq!(via_trait.len(), direct.len());
            for (a, b) in via_trait.iter().zip(&direct) {
                let a = a.as_adjacency().expect("adjacency channel");
                assert_eq!(a.bits, b.bits, "{strategy:?} bits must match");
                assert_eq!(a.degree, b.degree, "{strategy:?} degree must match");
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
                .all(|r| r.as_degree_vector().is_some_and(|v| v.len() == 3)));
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
    }
}
