//! The unified scenario engine: one composable API for every
//! (protocol × attack × metric × defense) combination the paper — and
//! anything beyond it — evaluates.
//!
//! A scenario is assembled with [`ScenarioBuilder`] and run against a
//! genuine graph; the engine owns the whole evaluation discipline:
//!
//! * **common random numbers** (paper Eq. 4): honest and attacked worlds
//!   share all genuine randomness, so per-target differences are caused by
//!   the fake uploads alone;
//! * **exact vs. analytic-sampled mode**: degree-centrality scenarios on
//!   protocols with a closed-form degree model switch to `O(r)`-per-trial
//!   sampling above [`SAMPLED_MODE_THRESHOLD`] users (or on request);
//! * **trials**: independent seeds per trial with the experiment runner's
//!   seed schedule, folded into a structured [`ScenarioReport`].
//!
//! # Example
//!
//! ```
//! use ldp_graph::datasets::Dataset;
//! use ldp_graph::Xoshiro256pp;
//! use ldp_protocols::{LfGdpr, Metric};
//! use poison_core::attack::Mga;
//! use poison_core::scenario::Scenario;
//! use poison_core::{TargetSelection, ThreatModel};
//!
//! let graph = Dataset::Facebook.generate_with_nodes(250, 7);
//! let mut rng = Xoshiro256pp::new(1);
//! let threat = ThreatModel::from_fractions(
//!     &graph, 0.05, 0.05, TargetSelection::UniformRandom, &mut rng);
//!
//! let report = Scenario::on(LfGdpr::new(4.0).unwrap())
//!     .attack(Mga::default())
//!     .metric(Metric::Degree)
//!     .threat(threat)
//!     .trials(2)
//!     .seed(42)
//!     .run(&graph)
//!     .unwrap();
//! assert!(report.mean_gain() > 0.0);
//! ```
//!
//! Swapping `LfGdpr` for `LdpGen`, `Mga` for `Rva`/`Rna`, the metric, or
//! adding `.defend(...)` (with the `poison-defense` crate) are all
//! one-line changes — no per-combination pipeline exists anymore.

use crate::attack::Attack;
use crate::defense::Defense;
use crate::error::ScenarioError;
use crate::gain::AttackOutcome;
use crate::knowledge::AttackerKnowledge;
use crate::strategy::TargetMetric;
use crate::threat::ThreatModel;
use ldp_graph::{CsrGraph, Xoshiro256pp};
use ldp_protocols::protocol::{WorldViews, STREAM_ATTACK};
use ldp_protocols::{
    AdjacencyReport, CraftContext, FilterDecision, GraphLdpProtocol, LfGdpr, Metric, ReportCrafter,
    ReportFilter, UserReport,
};
use rand::RngCore;

/// Above this genuine population, [`EvalMode::Auto`] degree scenarios
/// switch from the exact (materialized-view) pipeline to the analytic
/// sampling pipeline.
pub const SAMPLED_MODE_THRESHOLD: usize = 4_500;

/// Per-target RNG stream tag of the sampled mode's honest fake slots.
const STREAM_SAMPLED_HONEST_FAKE: u64 = 0x0BEF_0000_0000_0000;
/// Per-target RNG stream tag of the sampled mode's crafted fake slots.
const STREAM_SAMPLED_ATTACK_FAKE: u64 = 0x0AF7_0000_0000_0000;

/// Trial-seed stride: trial `i` of a scenario runs with `seed + i·STRIDE`
/// (wrapping).
const TRIAL_SEED_STRIDE: u64 = 0x9E37_79B9;

/// How the engine evaluates the scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalMode {
    /// Sampled when it is valid and the population is large (default).
    Auto,
    /// Always materialize the server view.
    Exact,
    /// Force the analytic sampled pipeline (degree metric, no defense,
    /// protocol with a degree model).
    Sampled,
}

/// The collection/aggregation backend of an exact trial: given the
/// protocol and the trial seed, build the honest and attacked world views.
///
/// The engine's default backend calls
/// [`GraphLdpProtocol::run_worlds`] in process. Alternative backends —
/// most notably `ldp-collector`'s wire bridge, which streams every upload
/// through a TCP collection daemon — implement this trait and are
/// installed with [`ScenarioBuilder::via`]; because the trait receives the
/// trial seed (not an advanced RNG), a faithful backend reproduces the
/// in-process randomness discipline exactly and its reports are
/// bit-identical.
///
/// `&self` receivers keep the builder immutable across trials; backends
/// with connection state use interior mutability.
pub trait WorldRunner {
    /// Backend display name (diagnostics).
    fn name(&self) -> &'static str;

    /// Builds the honest and (when a crafter is given) attacked views for
    /// one trial — the same contract as [`GraphLdpProtocol::run_worlds`],
    /// with the trial's base RNG specified by seed. `ingest_batch` has no
    /// effect (the scenario engine passes `None`); it stays so existing
    /// backends keep compiling.
    ///
    /// # Errors
    /// Protocol failures map to [`ScenarioError::Protocol`]; backend
    /// transport failures to [`ScenarioError::Transport`].
    #[allow(clippy::too_many_arguments)] // mirrors the protocol-trait signature it backends
    fn run_worlds(
        &self,
        protocol: &dyn GraphLdpProtocol,
        graph: &CsrGraph,
        trial_seed: u64,
        m_fake: usize,
        crafter: Option<&mut dyn ReportCrafter>,
        filter: Option<&mut dyn ReportFilter>,
        ingest_batch: Option<usize>,
    ) -> Result<WorldViews, ScenarioError>;
}

/// The default in-process backend: delegates straight to
/// [`GraphLdpProtocol::run_worlds`].
#[derive(Debug, Clone, Copy, Default)]
pub struct InProcessRunner;

impl WorldRunner for InProcessRunner {
    fn name(&self) -> &'static str {
        "in-process"
    }

    fn run_worlds(
        &self,
        protocol: &dyn GraphLdpProtocol,
        graph: &CsrGraph,
        trial_seed: u64,
        m_fake: usize,
        crafter: Option<&mut dyn ReportCrafter>,
        filter: Option<&mut dyn ReportFilter>,
        _ingest_batch: Option<usize>,
    ) -> Result<WorldViews, ScenarioError> {
        let base = Xoshiro256pp::new(trial_seed);
        Ok(protocol.run_worlds(graph, &base, m_fake, crafter, filter, None)?)
    }
}

/// Entry point of the builder: `Scenario::on(protocol)`.
pub struct Scenario;

impl Scenario {
    /// Starts a scenario on `protocol` (anything implementing
    /// [`GraphLdpProtocol`], owned or boxed).
    pub fn on<'a>(protocol: impl GraphLdpProtocol + 'a) -> ScenarioBuilder<'a> {
        ScenarioBuilder {
            protocol: Box::new(protocol),
            attack: None,
            defense: None,
            metric: Metric::Degree,
            threat: None,
            partition: None,
            trials: 1,
            seed: 0,
            mode: EvalMode::Auto,
            runner: None,
        }
    }
}

/// A fully described evaluation scenario; build with [`Scenario::on`] and
/// execute with [`ScenarioBuilder::run`].
pub struct ScenarioBuilder<'a> {
    protocol: Box<dyn GraphLdpProtocol + 'a>,
    attack: Option<Box<dyn Attack + 'a>>,
    defense: Option<Box<dyn Defense + 'a>>,
    metric: Metric,
    threat: Option<ThreatModel>,
    partition: Option<Vec<usize>>,
    trials: u64,
    seed: u64,
    mode: EvalMode,
    runner: Option<Box<dyn WorldRunner + 'a>>,
}

impl<'a> ScenarioBuilder<'a> {
    /// The attack crafting the fake tail's uploads. Omit for an
    /// honest-world baseline run.
    pub fn attack(mut self, attack: impl Attack + 'a) -> Self {
        self.attack = Some(Box::new(attack));
        self
    }

    /// The server-side countermeasure filtering uploads before
    /// aggregation (defenses operate on adjacency-report protocols).
    pub fn defend(mut self, defense: impl Defense + 'a) -> Self {
        self.defense = Some(Box::new(defense));
        self
    }

    /// The metric under attack (default: degree centrality).
    pub fn metric(mut self, metric: Metric) -> Self {
        self.metric = metric;
        self
    }

    /// The threat model: genuine/fake populations and targets. Required.
    pub fn threat(mut self, threat: ThreatModel) -> Self {
        self.threat = Some(threat);
        self
    }

    /// Community partition of the *genuine* users (required for
    /// modularity; fake users are appended round-robin, keeping community
    /// sizes balanced).
    pub fn partition(mut self, partition: &[usize]) -> Self {
        self.partition = Some(partition.to_vec());
        self
    }

    /// Independent trials; trial `i` runs with seed
    /// `seed + i·0x9E37_79B9` (wrapping), the experiment runner's
    /// schedule. Default 1.
    pub fn trials(mut self, trials: u64) -> Self {
        self.trials = trials;
        self
    }

    /// Base seed of the first trial. Default 0.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Evaluation mode (default [`EvalMode::Auto`]).
    pub fn mode(mut self, mode: EvalMode) -> Self {
        self.mode = mode;
        self
    }

    /// Shorthand for [`EvalMode::Exact`].
    pub fn exact(self) -> Self {
        self.mode(EvalMode::Exact)
    }

    /// Shorthand for [`EvalMode::Sampled`].
    pub fn sampled(self) -> Self {
        self.mode(EvalMode::Sampled)
    }

    /// Routes exact-mode collection/aggregation through an alternative
    /// [`WorldRunner`] backend — e.g. `ldp-collector`'s wire bridge,
    /// `.via(WireWorldRunner::connect(addr)?)`, which streams every upload
    /// through a TCP collection daemon. A faithful backend is bit-identical
    /// to the default in-process path; sampled-mode trials never
    /// materialize reports and ignore it.
    pub fn via(mut self, runner: impl WorldRunner + 'a) -> Self {
        self.runner = Some(Box::new(runner));
        self
    }

    /// Runs the scenario against the genuine graph.
    ///
    /// # Errors
    /// Returns a typed [`ScenarioError`] on a threat model without
    /// targets, population/partition mismatches, unsupported combinations
    /// (e.g. a defense on LDPGen, or a forced sampled mode the scenario
    /// cannot satisfy) or protocol-layer failures, instead of aborting.
    pub fn run(&self, graph: &CsrGraph) -> Result<ScenarioReport, ScenarioError> {
        let threat = self.threat.as_ref().ok_or(ScenarioError::MissingThreat)?;
        if threat.targets.is_empty() {
            return Err(ScenarioError::NoTargets);
        }
        if graph.num_nodes() != threat.n_genuine {
            return Err(ScenarioError::PopulationMismatch {
                graph_nodes: graph.num_nodes(),
                n_genuine: threat.n_genuine,
            });
        }
        if self.trials == 0 {
            return Err(ScenarioError::NoTrials);
        }

        // Modularity: validate the genuine partition and extend it over
        // the fake tail round-robin (once, shared by all trials).
        let full_partition = if self.metric.requires_partition() {
            let partition = self
                .partition
                .as_deref()
                .ok_or(ScenarioError::MissingPartition {
                    metric: self.metric,
                })?;
            if partition.len() != threat.n_genuine {
                return Err(ScenarioError::PartitionMismatch {
                    expected: threat.n_genuine,
                    got: partition.len(),
                });
            }
            let num_comms = partition.iter().copied().max().map_or(1, |c| c + 1);
            let mut full = partition.to_vec();
            full.extend((0..threat.m_fake).map(|i| i % num_comms));
            Some(full)
        } else {
            None
        };

        // Attacker knowledge from the protocol's published parameters.
        let knowledge = AttackerKnowledge::from_public(
            self.protocol
                .public_params(threat.population(), graph.average_degree()),
            threat.population(),
            graph.average_degree(),
        );

        let sampled = self.resolve_mode(graph, threat)?;
        let mut trials = Vec::with_capacity(self.trials as usize);
        for i in 0..self.trials {
            let trial_seed = self.seed.wrapping_add(i.wrapping_mul(TRIAL_SEED_STRIDE));
            let trial = if sampled {
                self.run_sampled_trial(graph, threat, &knowledge, trial_seed)?
            } else {
                self.run_exact_trial(
                    graph,
                    threat,
                    &knowledge,
                    full_partition.as_deref(),
                    trial_seed,
                )?
            };
            trials.push(trial);
        }

        Ok(ScenarioReport {
            protocol: self.protocol.name(),
            attack: self.attack.as_ref().map(|a| a.name()),
            defense: self.defense.as_ref().map(|d| d.name()),
            metric: self.metric,
            sampled,
            n_genuine: threat.n_genuine,
            m_fake: threat.m_fake,
            num_targets: threat.num_targets(),
            trials,
        })
    }

    /// Resolves exact vs. sampled for this scenario.
    fn resolve_mode(&self, graph: &CsrGraph, threat: &ThreatModel) -> Result<bool, ScenarioError> {
        let invalid: Option<&'static str> = if self.metric != Metric::Degree {
            Some("only degree-centrality has an analytic model")
        } else if self.defense.is_some() {
            Some("defenses need materialized reports")
        } else if self.attack.is_none() {
            Some("sampled mode evaluates an attack")
        } else if self
            .protocol
            .sampled_degree_model(threat.n_genuine, threat.m_fake)
            .is_none()
        {
            Some("protocol has no closed-form degree model")
        } else {
            None
        };
        match self.mode {
            EvalMode::Exact => Ok(false),
            EvalMode::Sampled => match invalid {
                Some(reason) => Err(ScenarioError::SampledModeUnavailable { reason }),
                None => Ok(true),
            },
            EvalMode::Auto => Ok(invalid.is_none() && graph.num_nodes() > SAMPLED_MODE_THRESHOLD),
        }
    }

    /// One exact trial: materialize honest/attacked (and defended) views
    /// through the protocol trait, estimate both.
    fn run_exact_trial(
        &self,
        graph: &CsrGraph,
        threat: &ThreatModel,
        knowledge: &AttackerKnowledge,
        full_partition: Option<&[usize]>,
        trial_seed: u64,
    ) -> Result<TrialOutcome, ScenarioError> {
        let extended = graph.with_isolated_nodes(threat.m_fake);

        // Modularity reuses the clustering-coefficient crafting: the
        // triangle-dense fake/target pattern is also what shifts community
        // edge mass (paper Fig. 15 evaluates the same three strategies).
        let craft_metric = match self.metric {
            Metric::Degree => TargetMetric::DegreeCentrality,
            Metric::Clustering | Metric::Modularity => TargetMetric::ClusteringCoefficient,
        };
        let mut crafter = self.attack.as_ref().map(|attack| AttackCrafter {
            attack: attack.as_ref(),
            metric: craft_metric,
            threat,
            knowledge,
        });
        let mut filter = self.defense.as_ref().map(|defense| DefenseFilter {
            defense: defense.as_ref(),
        });

        // The protocol validates that every crafting round covers the
        // declared fake tail exactly, so a miscounting attack fails with
        // a typed error before any genuine slot is overwritten.
        let runner: &dyn WorldRunner = match &self.runner {
            Some(r) => r.as_ref(),
            None => &InProcessRunner,
        };
        let views = runner.run_worlds(
            self.protocol.as_ref(),
            &extended,
            trial_seed,
            threat.m_fake,
            crafter.as_mut().map(|c| c as &mut dyn ReportCrafter),
            filter.as_mut().map(|f| f as &mut dyn ReportFilter),
            None,
        )?;

        let before =
            self.protocol
                .estimate(&views.honest, self.metric, &threat.targets, full_partition)?;
        let after = match &views.attacked {
            Some(view) => {
                self.protocol
                    .estimate(view, self.metric, &threat.targets, full_partition)?
            }
            None => before.clone(),
        };
        let (flagged_fake, flagged_genuine) = match &views.flagged {
            Some(flags) => (
                Some(flags[threat.n_genuine..].iter().filter(|&&f| f).count()),
                Some(flags[..threat.n_genuine].iter().filter(|&&f| f).count()),
            ),
            None => (None, None),
        };

        Ok(TrialOutcome {
            seed: trial_seed,
            outcome: AttackOutcome::new(before, after),
            flagged_fake,
            flagged_genuine,
        })
    }

    /// One analytic trial: sample each target's perturbed degree from its
    /// exact distribution — `O(r)` per world instead of `O(N²)`.
    fn run_sampled_trial(
        &self,
        graph: &CsrGraph,
        threat: &ThreatModel,
        knowledge: &AttackerKnowledge,
        trial_seed: u64,
    ) -> Result<TrialOutcome, ScenarioError> {
        let base = Xoshiro256pp::new(trial_seed);
        let mut rng = base.derive(STREAM_ATTACK);
        let attack = self.attack.as_ref().expect("resolve_mode requires attack");
        let model = self
            .protocol
            .sampled_degree_model(threat.n_genuine, threat.m_fake)
            .expect("resolve_mode requires model");
        let footprint = attack.degree_footprint(threat, knowledge, &mut rng);
        if footprint.crafted_per_target.len() != threat.num_targets() {
            return Err(ScenarioError::CraftedCountMismatch {
                expected: threat.num_targets(),
                got: footprint.crafted_per_target.len(),
            });
        }

        let r = threat.num_targets();
        let mut before = Vec::with_capacity(r);
        let mut after = Vec::with_capacity(r);
        for (idx, &t) in threat.targets.iter().enumerate() {
            let d_true = graph.degree(t);
            // Genuine-slot randomness is common to both worlds (those
            // users' reports do not change); fake-slot randomness is
            // independent per world, exactly as in the materialized
            // pipeline where the honest fake reports and the crafted ones
            // come from different streams.
            let mut genuine_rng = base.derive(t as u64);
            let genuine = model.sample_genuine_slots(d_true, &mut genuine_rng);
            let mut honest_fake_rng = base.derive(t as u64 ^ STREAM_SAMPLED_HONEST_FAKE);
            let d_before = genuine + model.sample_fake_honest(&mut honest_fake_rng);
            let crafted_t = footprint.crafted_per_target[idx].min(threat.m_fake);
            let d_after = if footprint.perturbed {
                let mut attack_fake_rng = base.derive(t as u64 ^ STREAM_SAMPLED_ATTACK_FAKE);
                genuine + model.sample_fake_crafted_perturbed(crafted_t, &mut attack_fake_rng)
            } else {
                genuine + model.fake_crafted_unperturbed(crafted_t)
            };
            before.push(model.centrality(d_before));
            after.push(model.centrality(d_after));
        }

        Ok(TrialOutcome {
            seed: trial_seed,
            outcome: AttackOutcome::new(before, after),
            flagged_fake: None,
            flagged_genuine: None,
        })
    }
}

/// Adapter: invokes the scenario's [`Attack`] whenever the protocol asks
/// for crafted uploads.
struct AttackCrafter<'a> {
    attack: &'a dyn Attack,
    metric: TargetMetric,
    threat: &'a ThreatModel,
    knowledge: &'a AttackerKnowledge,
}

impl ReportCrafter for AttackCrafter<'_> {
    fn craft(&mut self, ctx: CraftContext<'_>, rng: &mut dyn RngCore) -> Vec<UserReport> {
        // The protocol checks the returned count against the declared
        // fake tail, so no validation is needed here.
        self.attack
            .craft(ctx, self.metric, self.threat, self.knowledge, rng)
    }
}

/// Adapter: invokes the scenario's [`Defense`] whenever the protocol
/// filters an upload set.
struct DefenseFilter<'a> {
    defense: &'a dyn Defense,
}

impl ReportFilter for DefenseFilter<'_> {
    fn filter(
        &mut self,
        reports: &[AdjacencyReport],
        protocol: &LfGdpr,
        rng: &mut dyn RngCore,
    ) -> FilterDecision {
        self.defense.filter_reports(reports, protocol, rng)
    }
}

/// One trial's measurements.
#[derive(Debug, Clone)]
pub struct TrialOutcome {
    /// The seed this trial ran with.
    pub seed: u64,
    /// Per-target estimates before (honest/clean) and after
    /// (attacked-and-defended) — the quantity Eq. 4 differences.
    pub outcome: AttackOutcome,
    /// Fake users the defense flagged (true positives), when one ran.
    pub flagged_fake: Option<usize>,
    /// Genuine users the defense flagged (false positives), when one ran.
    pub flagged_genuine: Option<usize>,
}

impl TrialOutcome {
    /// Overall gain of this trial (Eq. 5).
    pub fn gain(&self) -> f64 {
        self.outcome.gain()
    }
}

/// The structured result of a scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Protocol display name.
    pub protocol: &'static str,
    /// Attack display name (`None` for an honest baseline).
    pub attack: Option<&'static str>,
    /// Defense display name (`None` when undefended).
    pub defense: Option<&'static str>,
    /// The metric evaluated.
    pub metric: Metric,
    /// Whether the analytic sampled pipeline served this run.
    pub sampled: bool,
    /// Genuine users.
    pub n_genuine: usize,
    /// Fake users.
    pub m_fake: usize,
    /// Targets.
    pub num_targets: usize,
    /// Per-trial measurements, in trial order.
    pub trials: Vec<TrialOutcome>,
}

impl ScenarioReport {
    /// Per-trial overall gains, in trial order.
    pub fn gains(&self) -> Vec<f64> {
        self.trials.iter().map(TrialOutcome::gain).collect()
    }

    /// Mean overall gain across trials — the quantity the paper's figures
    /// plot (summed in trial order, like the experiment runner).
    pub fn mean_gain(&self) -> f64 {
        self.trials.iter().map(TrialOutcome::gain).sum::<f64>() / self.trials.len() as f64
    }

    /// Mean signed gain across trials (positive when the attack raises
    /// the metric).
    pub fn mean_signed_gain(&self) -> f64 {
        self.trials
            .iter()
            .map(|t| t.outcome.signed_gain())
            .sum::<f64>()
            / self.trials.len() as f64
    }

    /// The single trial's outcome, for one-trial runs.
    ///
    /// # Panics
    /// Panics if the report holds more than one trial.
    pub fn into_single_outcome(mut self) -> AttackOutcome {
        assert_eq!(self.trials.len(), 1, "report holds multiple trials");
        self.trials.pop().expect("one trial").outcome
    }

    /// Mean detection recall over the fake population, when a defense ran.
    pub fn mean_recall(&self) -> Option<f64> {
        if self.m_fake == 0 {
            return None;
        }
        let recalls: Vec<f64> = self
            .trials
            .iter()
            .filter_map(|t| t.flagged_fake.map(|f| f as f64 / self.m_fake as f64))
            .collect();
        if recalls.is_empty() {
            return None;
        }
        Some(recalls.iter().sum::<f64>() / recalls.len() as f64)
    }

    /// Mean detection precision, when a defense ran and flagged anyone.
    pub fn mean_precision(&self) -> Option<f64> {
        let precisions: Vec<f64> = self
            .trials
            .iter()
            .filter_map(|t| match (t.flagged_fake, t.flagged_genuine) {
                (Some(tp), Some(fp)) if tp + fp > 0 => Some(tp as f64 / (tp + fp) as f64),
                _ => None,
            })
            .collect();
        if precisions.is_empty() {
            return None;
        }
        Some(precisions.iter().sum::<f64>() / precisions.len() as f64)
    }
}

/// Maps the metric an attack crafts for onto the metric the engine measures.
impl From<TargetMetric> for Metric {
    fn from(metric: TargetMetric) -> Self {
        match metric {
            TargetMetric::DegreeCentrality => Metric::Degree,
            TargetMetric::ClusteringCoefficient => Metric::Clustering,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::{attack_for, Mga, Rna, Rva};
    use crate::strategy::{AttackStrategy, MgaOptions};
    use crate::threat::TargetSelection;
    use ldp_graph::datasets::Dataset;
    use ldp_graph::generate::caveman_graph;
    use ldp_protocols::LdpGen;

    fn small_world() -> (CsrGraph, LfGdpr, ThreatModel) {
        let graph = Dataset::Facebook.generate_with_nodes(300, 42);
        let protocol = LfGdpr::new(4.0).unwrap();
        let mut rng = Xoshiro256pp::new(9);
        let threat = ThreatModel::from_fractions(
            &graph,
            0.05,
            0.05,
            TargetSelection::UniformRandom,
            &mut rng,
        );
        (graph, protocol, threat)
    }

    #[test]
    fn mga_beats_baselines_through_the_builder() {
        let (graph, protocol, threat) = small_world();
        let gain = |strategy| {
            Scenario::on(protocol)
                .attack(attack_for(strategy, MgaOptions::default()))
                .metric(Metric::Degree)
                .threat(threat.clone())
                .trials(3)
                .seed(100)
                .run(&graph)
                .unwrap()
                .mean_gain()
        };
        let mga = gain(AttackStrategy::Mga);
        assert!(mga > gain(AttackStrategy::Rva));
        assert!(mga > gain(AttackStrategy::Rna));
        assert!(mga > 0.0);
    }

    #[test]
    fn every_lfgdpr_combination_runs() {
        let (graph, protocol, threat) = small_world();
        let partition: Vec<usize> = (0..threat.n_genuine).map(|u| u % 4).collect();
        for metric in Metric::ALL {
            let report = Scenario::on(protocol)
                .attack(Mga::default())
                .metric(metric)
                .threat(threat.clone())
                .partition(&partition)
                .seed(3)
                .run(&graph)
                .unwrap();
            let expected = if metric == Metric::Modularity {
                1
            } else {
                threat.num_targets()
            };
            assert_eq!(report.trials[0].outcome.num_targets(), expected);
            assert!(report.mean_gain().is_finite());
        }
    }

    #[test]
    fn every_ldpgen_combination_runs() {
        let graph = caveman_graph(10, 8);
        let protocol = LdpGen::with_defaults(4.0).unwrap();
        let threat = ThreatModel::explicit(80, 8, vec![0, 8, 16, 24]);
        let partition: Vec<usize> = (0..80).map(|u| u / 8).collect();
        for metric in Metric::ALL {
            let report = Scenario::on(protocol)
                .attack(Rva)
                .metric(metric)
                .threat(threat.clone())
                .partition(&partition)
                .seed(5)
                .run(&graph)
                .unwrap();
            assert!(report.mean_gain().is_finite());
            assert_eq!(report.protocol, "LDPGen");
        }
    }

    #[test]
    fn honest_baseline_without_attack_has_zero_gain() {
        let (graph, protocol, threat) = small_world();
        let report = Scenario::on(protocol)
            .metric(Metric::Degree)
            .threat(threat)
            .seed(1)
            .run(&graph)
            .unwrap();
        assert_eq!(report.attack, None);
        assert_eq!(report.mean_gain(), 0.0);
    }

    #[test]
    fn population_mismatch_is_a_typed_error() {
        let graph = caveman_graph(2, 5);
        let protocol = LfGdpr::new(4.0).unwrap();
        let threat = ThreatModel::explicit(99, 2, vec![0]);
        let err = Scenario::on(protocol)
            .attack(Rva)
            .threat(threat)
            .run(&graph)
            .unwrap_err();
        assert!(matches!(err, ScenarioError::PopulationMismatch { .. }));
    }

    #[test]
    fn missing_threat_and_trials_are_typed_errors() {
        let graph = caveman_graph(2, 5);
        let protocol = LfGdpr::new(4.0).unwrap();
        assert!(matches!(
            Scenario::on(protocol).run(&graph),
            Err(ScenarioError::MissingThreat)
        ));
        let threat = ThreatModel::explicit(10, 2, vec![0]);
        assert!(matches!(
            Scenario::on(protocol).threat(threat).trials(0).run(&graph),
            Err(ScenarioError::NoTrials)
        ));
    }

    #[test]
    fn a_threat_without_targets_is_a_typed_error() {
        let graph = caveman_graph(10, 8);
        let threat = ThreatModel::explicit(80, 8, vec![]);
        let lfgdpr = LfGdpr::new(4.0).unwrap();
        let ldpgen = LdpGen::with_defaults(4.0).unwrap();
        let attacks: [&dyn Attack; 3] = [&Rva, &Rna, &Mga::default()];
        for attack in attacks {
            let lfgdpr_run = |mode| {
                Scenario::on(lfgdpr)
                    .attack(attack)
                    .threat(threat.clone())
                    .mode(mode)
                    .run(&graph)
            };
            let ldpgen_run = Scenario::on(ldpgen)
                .attack(attack)
                .metric(Metric::Clustering)
                .threat(threat.clone())
                .run(&graph);
            for run in [
                lfgdpr_run(EvalMode::Exact),
                lfgdpr_run(EvalMode::Sampled),
                ldpgen_run,
            ] {
                assert!(
                    matches!(run, Err(ScenarioError::NoTargets)),
                    "{}",
                    attack.name()
                );
            }
        }
    }

    #[test]
    fn modularity_partition_validation() {
        let graph = caveman_graph(2, 5);
        let protocol = LfGdpr::new(4.0).unwrap();
        let threat = ThreatModel::explicit(10, 2, vec![0]);
        assert!(matches!(
            Scenario::on(protocol)
                .metric(Metric::Modularity)
                .threat(threat.clone())
                .run(&graph),
            Err(ScenarioError::MissingPartition { .. })
        ));
        assert!(matches!(
            Scenario::on(protocol)
                .metric(Metric::Modularity)
                .threat(threat)
                .partition(&[0, 1])
                .run(&graph),
            Err(ScenarioError::PartitionMismatch { .. })
        ));
    }

    #[test]
    fn forced_sampled_mode_validates_the_scenario() {
        let (graph, protocol, threat) = small_world();
        // Clustering has no analytic model.
        let err = Scenario::on(protocol)
            .attack(Rna)
            .metric(Metric::Clustering)
            .threat(threat.clone())
            .sampled()
            .run(&graph)
            .unwrap_err();
        assert!(matches!(err, ScenarioError::SampledModeUnavailable { .. }));
        // Degree + attack + LF-GDPR is fine.
        let report = Scenario::on(protocol)
            .attack(Rna)
            .metric(Metric::Degree)
            .threat(threat)
            .sampled()
            .seed(11)
            .run(&graph)
            .unwrap();
        assert!(report.sampled);
        assert!(report.mean_gain().is_finite());
    }

    #[test]
    fn ldpgen_has_no_sampled_mode() {
        let graph = caveman_graph(10, 8);
        let protocol = LdpGen::with_defaults(4.0).unwrap();
        let threat = ThreatModel::explicit(80, 8, vec![0]);
        let err = Scenario::on(protocol)
            .attack(Mga::default())
            .metric(Metric::Degree)
            .threat(threat)
            .sampled()
            .run(&graph)
            .unwrap_err();
        assert!(matches!(err, ScenarioError::SampledModeUnavailable { .. }));
    }

    #[test]
    fn trial_seeds_follow_the_runner_schedule() {
        let (graph, protocol, threat) = small_world();
        let report = Scenario::on(protocol)
            .attack(Rva)
            .metric(Metric::Degree)
            .threat(threat)
            .trials(3)
            .seed(50)
            .run(&graph)
            .unwrap();
        assert_eq!(report.trials[0].seed, 50);
        assert_eq!(report.trials[1].seed, 50 + 0x9E37_79B9);
        assert_eq!(report.trials[2].seed, 50 + 2 * 0x9E37_79B9);
    }

    #[test]
    fn explicit_in_process_runner_is_bit_identical() {
        let (graph, protocol, threat) = small_world();
        let run = |builder: ScenarioBuilder<'_>| {
            builder
                .attack(Mga::default())
                .metric(Metric::Degree)
                .threat(threat.clone())
                .exact()
                .seed(13)
                .run(&graph)
                .unwrap()
                .into_single_outcome()
        };
        let implicit = run(Scenario::on(protocol));
        let explicit = run(Scenario::on(protocol).via(InProcessRunner));
        assert_eq!(implicit.before, explicit.before);
        assert_eq!(implicit.after, explicit.after);
    }

    #[test]
    fn custom_runner_is_dispatched_and_may_fail_typed() {
        /// A backend standing in for a dead collector daemon.
        struct DeadWire;
        impl WorldRunner for DeadWire {
            fn name(&self) -> &'static str {
                "dead-wire"
            }
            fn run_worlds(
                &self,
                _protocol: &dyn GraphLdpProtocol,
                _graph: &CsrGraph,
                _trial_seed: u64,
                _m_fake: usize,
                _crafter: Option<&mut dyn ReportCrafter>,
                _filter: Option<&mut dyn ReportFilter>,
                _ingest_batch: Option<usize>,
            ) -> Result<WorldViews, ScenarioError> {
                Err(ScenarioError::Transport {
                    detail: "connection refused".into(),
                })
            }
        }
        let (graph, protocol, threat) = small_world();
        let err = Scenario::on(protocol)
            .attack(Rva)
            .metric(Metric::Degree)
            .threat(threat)
            .exact()
            .via(DeadWire)
            .run(&graph)
            .unwrap_err();
        assert!(matches!(err, ScenarioError::Transport { .. }));
        assert!(err.to_string().contains("connection refused"));
    }

    #[test]
    fn report_statistics_fold_trials() {
        let (graph, protocol, threat) = small_world();
        let report = Scenario::on(protocol)
            .attack(Mga::default())
            .metric(Metric::Degree)
            .threat(threat)
            .trials(2)
            .seed(4)
            .run(&graph)
            .unwrap();
        let gains = report.gains();
        assert_eq!(gains.len(), 2);
        let mean = (gains[0] + gains[1]) / 2.0;
        assert_eq!(report.mean_gain(), mean);
        assert!(report.mean_signed_gain().is_finite());
        // Undefended: no verdicts.
        assert_eq!(report.mean_recall(), None);
        assert_eq!(report.mean_precision(), None);
    }
}
