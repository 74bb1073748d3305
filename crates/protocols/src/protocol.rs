//! The protocol abstraction of the scenario engine: one object-safe trait
//! ([`GraphLdpProtocol`]) that both LF-GDPR and LDPGen implement, so every
//! (protocol × attack × metric × defense) combination is expressible
//! through one composable API instead of per-protocol entry points.
//!
//! ## Shape
//!
//! * [`GraphLdpProtocol::run_worlds`] — the evaluation workhorse: builds
//!   the honest-world and (optionally) attacked-and-defended server views
//!   over *shared genuine randomness*, invoking the attack through a
//!   [`ReportCrafter`] callback (which returns the protocol-agnostic
//!   [`UserReport`] enum) and the defense through a [`ReportFilter`]
//!   callback. Putting both worlds in one call is what lets LF-GDPR
//!   collect its `O(N²)`-cost honest reports once and lets LDPGen keep its
//!   interactive per-phase crafting, while callers stay protocol-agnostic.
//! * [`GraphLdpProtocol::estimate`] — reads a [`Metric`] off a
//!   [`ServerView`]; the single place where metric dispatch lives
//!   (degree-centrality, calibrated clustering, calibrated modularity).
//!
//! ## Randomness discipline
//!
//! Every method takes the trial's base RNG and derives the same streams
//! the original pipelines used (per-user streams for collection,
//! [`STREAM_ATTACK`]/[`STREAM_DEFENSE`]/[`STREAM_LDPGEN_ATTACK`] for the
//! callbacks), so scenario-engine output is bit-for-bit identical to the
//! legacy entry points — pinned by `tests/scenario_equivalence.rs`.

use crate::ingest::fold_reports;
use crate::ldpgen::LdpGen;
use crate::lfgdpr::{
    estimate_clustering_at, estimate_modularity, LfGdpr, PerturbedView, SampledDegreeModel,
};
use crate::report::{AdjacencyReport, DegreeVector, UserReport};
use ldp_graph::metrics::{local_clustering_coefficients, modularity};
use ldp_graph::{CsrGraph, Xoshiro256pp};
use rand::RngCore;
use std::fmt;

/// RNG stream tag of the LF-GDPR attack crafter (kept distinct from the
/// per-user streams, which are derived from ids < 2³²).
pub const STREAM_ATTACK: u64 = 0xA77A_C4ED_0000_0001;
/// RNG stream tag of the LF-GDPR defense filter.
pub const STREAM_DEFENSE: u64 = 0xDEFE_2E00_0000_0001;
/// RNG stream tag of the LDPGen attack crafter (one stream continued
/// across both phases, as in the original pipeline).
pub const STREAM_LDPGEN_ATTACK: u64 = 0xA77A;
/// RNG stream tag of LDPGen's graph synthesis.
pub const STREAM_LDPGEN_SYNTH: u64 = 0x5E_ED;

/// The graph statistics the paper's scenarios estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Degree centrality `c_i = d_i/(N−1)` of each target (paper §V).
    Degree,
    /// Local clustering coefficient of each target (paper §VI).
    Clustering,
    /// Modularity of a supplied partition (global: one estimate).
    Modularity,
}

impl Metric {
    /// All metrics in presentation order.
    pub const ALL: [Metric; 3] = [Metric::Degree, Metric::Clustering, Metric::Modularity];

    /// Display name as used in figures and error messages.
    pub fn name(self) -> &'static str {
        match self {
            Metric::Degree => "degree-centrality",
            Metric::Clustering => "clustering-coefficient",
            Metric::Modularity => "modularity",
        }
    }

    /// Whether estimating this metric needs a community partition.
    pub fn requires_partition(self) -> bool {
        self == Metric::Modularity
    }
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Typed failures of the protocol layer (hand-rolled `thiserror` style; the
/// workspace is hermetic, so no derive macros).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// A report of one channel was handed to a protocol expecting another.
    WrongReportKind {
        /// Channel the protocol consumes.
        expected: &'static str,
        /// Channel the report carried.
        got: &'static str,
    },
    /// A server view of one protocol was handed to another's estimator.
    WrongViewKind {
        /// Protocol whose estimator ran.
        protocol: &'static str,
        /// View kind it needs.
        expected: &'static str,
    },
    /// Reports disagree with the declared population size.
    PopulationMismatch {
        /// Declared population.
        expected: usize,
        /// Population a report spans.
        got: usize,
    },
    /// More crafted reports than users in the population.
    CraftedOverrun {
        /// Population size.
        population: usize,
        /// Crafted reports supplied.
        crafted: usize,
    },
    /// A crafting round returned a different number of uploads than the
    /// declared fake tail.
    CraftedCountMismatch {
        /// Fake users declared to [`GraphLdpProtocol::run_worlds`].
        expected: usize,
        /// Crafted reports the round produced.
        got: usize,
    },
    /// A crafted degree vector has the wrong number of groups.
    GroupCountMismatch {
        /// Groups the server defined this phase.
        expected: usize,
        /// Entries the crafted vector carried.
        got: usize,
    },
    /// The metric needs a community partition and none was supplied.
    MissingPartition,
    /// The partition does not cover the view's population.
    PartitionLength {
        /// Population size.
        expected: usize,
        /// Partition entries supplied.
        got: usize,
    },
    /// A target id lies outside the population.
    TargetOutOfRange {
        /// The offending target id.
        target: usize,
        /// Population size.
        population: usize,
    },
    /// The protocol has no report-filtering defense surface.
    DefenseUnsupported {
        /// Protocol name.
        protocol: &'static str,
    },
    /// A defense filter returned a repaired set of the wrong shape.
    FilterShape {
        /// Population size.
        expected: usize,
        /// Repaired reports / flags returned.
        got: usize,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::WrongReportKind { expected, got } => {
                write!(f, "expected a {expected} report, got a {got} report")
            }
            ProtocolError::WrongViewKind { protocol, expected } => {
                write!(f, "{protocol} estimates from a {expected} view")
            }
            ProtocolError::PopulationMismatch { expected, got } => {
                write!(
                    f,
                    "report spans {got} users but the population is {expected}"
                )
            }
            ProtocolError::CraftedOverrun {
                population,
                crafted,
            } => {
                write!(
                    f,
                    "{crafted} crafted reports exceed the population of {population}"
                )
            }
            ProtocolError::CraftedCountMismatch { expected, got } => {
                write!(
                    f,
                    "crafting round produced {got} reports for {expected} fake users"
                )
            }
            ProtocolError::GroupCountMismatch { expected, got } => {
                write!(
                    f,
                    "crafted degree vector has {got} groups, server defined {expected}"
                )
            }
            ProtocolError::MissingPartition => {
                write!(f, "modularity needs a partition of genuine users")
            }
            ProtocolError::PartitionLength { expected, got } => {
                write!(
                    f,
                    "partition covers {got} users but the population is {expected}"
                )
            }
            ProtocolError::TargetOutOfRange { target, population } => {
                write!(f, "target {target} outside the population of {population}")
            }
            ProtocolError::DefenseUnsupported { protocol } => {
                write!(f, "{protocol} has no report-filtering defense surface")
            }
            ProtocolError::FilterShape { expected, got } => {
                write!(
                    f,
                    "defense returned {got} entries for a population of {expected}"
                )
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

/// The server-side state a protocol aggregates reports into; what
/// [`GraphLdpProtocol::estimate`] reads metrics from.
#[derive(Debug, Clone)]
pub enum ServerView {
    /// LF-GDPR: the materialized perturbed graph view.
    Perturbed(PerturbedView),
    /// LDPGen: the synthesized output graph.
    Synthetic(CsrGraph),
}

impl ServerView {
    /// Population the view spans.
    pub fn population(&self) -> usize {
        match self {
            ServerView::Perturbed(v) => v.num_users(),
            ServerView::Synthetic(g) => g.num_nodes(),
        }
    }

    /// The perturbed view inside, if this is the LF-GDPR variant.
    pub fn as_perturbed(&self) -> Option<&PerturbedView> {
        match self {
            ServerView::Perturbed(v) => Some(v),
            ServerView::Synthetic(_) => None,
        }
    }

    /// The synthetic graph inside, if this is the LDPGen variant.
    pub fn as_synthetic(&self) -> Option<&CsrGraph> {
        match self {
            ServerView::Perturbed(_) => None,
            ServerView::Synthetic(g) => Some(g),
        }
    }
}

/// What a protocol tells the attack layer when it asks for the fake tail's
/// uploads. Carries only protocol-side facts; the attacker's own state
/// (threat model, knowledge, options) lives in the crafter.
pub enum CraftContext<'a> {
    /// LF-GDPR's one-shot adjacency channel.
    Adjacency {
        /// The deployed protocol (mechanisms RNA/MGA reuse for
        /// honest-looking perturbation).
        protocol: &'a LfGdpr,
    },
    /// One LDPGen phase toward the server's current grouping.
    DegreeVectors {
        /// Phase number (1 or 2).
        phase: usize,
        /// Current group of every user.
        groups: &'a [usize],
        /// Number of groups this phase.
        num_groups: usize,
        /// Laplace scale honest users apply this phase (RNA mimics it).
        noise_scale: f64,
    },
}

/// Callback supplying the fake tail's uploads whenever the protocol runs a
/// collection round of the attacked world. Implemented by the scenario
/// engine's attack adapter; `rng` is the attack stream the protocol
/// derived for the whole run (one stream across rounds).
pub trait ReportCrafter {
    /// Crafts one upload per fake user for the round described by `ctx`.
    fn craft(&mut self, ctx: CraftContext<'_>, rng: &mut dyn RngCore) -> Vec<UserReport>;
}

/// The repaired upload set and per-user flags a defense filter returns.
pub struct FilterDecision {
    /// Reports the server aggregates instead (one per user).
    pub repaired: Vec<AdjacencyReport>,
    /// Which users were flagged as fake (one per user).
    pub flagged: Vec<bool>,
}

/// Callback applying a server-side countermeasure to an upload set before
/// aggregation. Implemented by the scenario engine's defense adapter;
/// `rng` is the defense stream the protocol derived for the run.
pub trait ReportFilter {
    /// Flags suspicious reports and repairs the upload set.
    fn filter(
        &mut self,
        reports: &[AdjacencyReport],
        protocol: &LfGdpr,
        rng: &mut dyn RngCore,
    ) -> FilterDecision;
}

/// The server views of one trial, built over shared genuine randomness.
#[derive(Debug, Clone)]
pub struct WorldViews {
    /// The honest (clean) world: every user reports truthfully.
    pub honest: ServerView,
    /// The attacked — and, if a filter ran, defended — world. `None` when
    /// neither a crafter nor a filter was supplied.
    pub attacked: Option<ServerView>,
    /// Per-user flags from the defense filter, when one ran.
    pub flagged: Option<Vec<bool>>,
}

/// An LDP protocol for graph-metric estimation, as seen by the scenario
/// engine. Object-safe: scenarios hold `Box<dyn GraphLdpProtocol>`.
///
/// Adding a protocol to the evaluation matrix is one `impl` of this trait;
/// every attack, metric, and defense then composes with it through
/// [`poison-core`'s `ScenarioBuilder`](https://docs.rs) with no new
/// pipeline code.
pub trait GraphLdpProtocol {
    /// Display name (as used in figures and error messages).
    fn name(&self) -> &'static str;

    /// Builds the honest world and, when a crafter is given, the attacked
    /// world — over shared genuine randomness, so per-target differences
    /// are caused by the fake uploads alone (paper Eq. 4). A filter, when
    /// given, repairs the (attacked) upload set before aggregation; the
    /// honest view stays the clean baseline.
    ///
    /// `graph` is the *extended* graph: genuine users plus the declared
    /// `m_fake`-user fake tail as isolated nodes — each crafting round
    /// must return exactly `m_fake` uploads, or the run fails with
    /// [`ProtocolError::CraftedCountMismatch`] before any slot is
    /// overwritten; a fake tail larger than the population fails with
    /// [`ProtocolError::CraftedOverrun`] before any crafting.
    ///
    /// `ingest_batch` has no effect: each world's upload set is folded in
    /// one pass. The argument stays so existing implementors and callers
    /// of this signature keep compiling.
    ///
    /// # Errors
    /// Returns a typed error on foreign report kinds, shape mismatches, or
    /// an unsupported filter.
    fn run_worlds(
        &self,
        graph: &CsrGraph,
        base: &Xoshiro256pp,
        m_fake: usize,
        crafter: Option<&mut dyn ReportCrafter>,
        filter: Option<&mut dyn ReportFilter>,
        ingest_batch: Option<usize>,
    ) -> Result<WorldViews, ProtocolError>;

    /// Estimates `metric` from a server view: per-target values for degree
    /// centrality and clustering, a single value for modularity (which
    /// needs `partition`, covering the view's full population).
    ///
    /// # Errors
    /// Returns a typed error on a foreign view, an out-of-range target, or
    /// a missing/short partition.
    fn estimate(
        &self,
        view: &ServerView,
        metric: Metric,
        targets: &[usize],
        partition: Option<&[usize]>,
    ) -> Result<Vec<f64>, ProtocolError>;

    /// The analytic degree-channel model, for protocols whose per-target
    /// perturbed degree has a closed-form distribution (LF-GDPR). Lets the
    /// engine evaluate degree scenarios at `O(r)` per trial instead of
    /// materializing the `O(N²)` view.
    fn sampled_degree_model(
        &self,
        _n_genuine: usize,
        _m_fake: usize,
    ) -> Option<SampledDegreeModel> {
        None
    }

    /// The public parameters an attacker derives its knowledge from
    /// (paper §IV-A: the perturbation runs client-side, so its parameters
    /// are known).
    fn public_params(&self, population: usize, avg_true_degree: f64) -> PublicParams;

    /// The concrete adjacency-channel protocol behind this trait object,
    /// when there is one (LF-GDPR). Consumers that must speak the
    /// adjacency channel specifically — report-filtering defenses, the
    /// wire-collection bridge in `ldp-collector` — recover it here instead
    /// of downcasting; protocols without an adjacency channel return
    /// `None` and those consumers fall back to the generic path.
    fn as_adjacency_protocol(&self) -> Option<&LfGdpr> {
        None
    }
}

/// Publicly known protocol parameters (see
/// [`GraphLdpProtocol::public_params`]).
#[derive(Debug, Clone, Copy)]
pub struct PublicParams {
    /// Keep probability of the adjacency channel (1 when there is none).
    pub p_keep: f64,
    /// Laplace scale of the degree channel.
    pub degree_noise_scale: f64,
    /// Expected average degree of the perturbed graph (equals the true
    /// average degree when there is no adjacency channel).
    pub avg_perturbed_degree: f64,
}

// ---------------------------------------------------------------------------
// LF-GDPR
// ---------------------------------------------------------------------------

impl LfGdpr {
    /// Builds the honest and the attacked world of one trial
    /// ([`GraphLdpProtocol::run_worlds`]) with `fold` turning each
    /// world's upload set into a server view: the in-process fold
    /// ([`crate::ingest::fold_reports`]), or a collection round over the
    /// wire. Collection, crafting and filtering run here, on the same
    /// derived streams either way, so both backends fold identical upload
    /// sets.
    ///
    /// # Errors
    /// The typed validation errors of [`GraphLdpProtocol::run_worlds`],
    /// and whatever `fold` returns.
    pub fn run_worlds_with<E: From<ProtocolError>>(
        &self,
        graph: &CsrGraph,
        base: &Xoshiro256pp,
        m_fake: usize,
        crafter: Option<&mut dyn ReportCrafter>,
        filter: Option<&mut dyn ReportFilter>,
        mut fold: impl FnMut(&[AdjacencyReport]) -> Result<ServerView, E>,
    ) -> Result<WorldViews, E> {
        let n = graph.num_nodes();
        if m_fake > n {
            return Err(ProtocolError::CraftedOverrun {
                population: n,
                crafted: m_fake,
            }
            .into());
        }
        // One collection pass serves both worlds: per-user derived streams
        // make the honest reports identical either way, and only the fake
        // tail changes between worlds.
        let mut reports = self.collect_honest(graph, base);
        let honest = fold(&reports)?;

        let attacked = if let Some(crafter) = crafter {
            let mut rng = base.derive(STREAM_ATTACK);
            let crafted = crafter.craft(CraftContext::Adjacency { protocol: self }, &mut rng);
            if crafted.len() != m_fake {
                return Err(ProtocolError::CraftedCountMismatch {
                    expected: m_fake,
                    got: crafted.len(),
                }
                .into());
            }
            for (offset, report) in crafted.into_iter().enumerate() {
                let report = report.into_adjacency()?;
                if report.population() != n {
                    return Err(ProtocolError::PopulationMismatch {
                        expected: n,
                        got: report.population(),
                    }
                    .into());
                }
                reports[n - m_fake + offset] = report;
            }
            true
        } else {
            false
        };

        let mut flagged = None;
        let attacked_view = if attacked || filter.is_some() {
            let working = if let Some(filter) = filter {
                let mut rng = base.derive(STREAM_DEFENSE);
                let decision = filter.filter(&reports, self, &mut rng);
                if decision.repaired.len() != n || decision.flagged.len() != n {
                    return Err(ProtocolError::FilterShape {
                        expected: n,
                        got: decision.repaired.len().min(decision.flagged.len()),
                    }
                    .into());
                }
                flagged = Some(decision.flagged);
                decision.repaired
            } else {
                reports
            };
            Some(fold(&working)?)
        } else {
            None
        };

        Ok(WorldViews {
            honest,
            attacked: attacked_view,
            flagged,
        })
    }
}

impl GraphLdpProtocol for LfGdpr {
    fn name(&self) -> &'static str {
        "LF-GDPR"
    }

    fn run_worlds(
        &self,
        graph: &CsrGraph,
        base: &Xoshiro256pp,
        m_fake: usize,
        crafter: Option<&mut dyn ReportCrafter>,
        filter: Option<&mut dyn ReportFilter>,
        _ingest_batch: Option<usize>,
    ) -> Result<WorldViews, ProtocolError> {
        self.run_worlds_with(graph, base, m_fake, crafter, filter, |reports| {
            fold_reports(reports, self.rr()).map(ServerView::Perturbed)
        })
    }

    fn estimate(
        &self,
        view: &ServerView,
        metric: Metric,
        targets: &[usize],
        partition: Option<&[usize]>,
    ) -> Result<Vec<f64>, ProtocolError> {
        let view = view.as_perturbed().ok_or(ProtocolError::WrongViewKind {
            protocol: "LF-GDPR",
            expected: "perturbed",
        })?;
        check_targets(targets, view.num_users())?;
        match metric {
            Metric::Degree => Ok(targets.iter().map(|&t| view.degree_centrality(t)).collect()),
            Metric::Clustering => Ok(estimate_clustering_at(view, targets)),
            Metric::Modularity => {
                let partition = check_partition(partition, view.num_users())?;
                Ok(vec![estimate_modularity(view, partition)])
            }
        }
    }

    fn sampled_degree_model(&self, n_genuine: usize, m_fake: usize) -> Option<SampledDegreeModel> {
        Some(SampledDegreeModel {
            n_genuine,
            m_fake,
            p_keep: self.p_keep(),
        })
    }

    fn public_params(&self, population: usize, avg_true_degree: f64) -> PublicParams {
        PublicParams {
            p_keep: self.p_keep(),
            degree_noise_scale: self.laplace().scale(),
            avg_perturbed_degree: self.expected_perturbed_degree(population, avg_true_degree),
        }
    }

    fn as_adjacency_protocol(&self) -> Option<&LfGdpr> {
        Some(self)
    }
}

// ---------------------------------------------------------------------------
// LDPGen
// ---------------------------------------------------------------------------

impl GraphLdpProtocol for LdpGen {
    fn name(&self) -> &'static str {
        "LDPGen"
    }

    fn run_worlds(
        &self,
        graph: &CsrGraph,
        base: &Xoshiro256pp,
        m_fake: usize,
        crafter: Option<&mut dyn ReportCrafter>,
        filter: Option<&mut dyn ReportFilter>,
        _ingest_batch: Option<usize>,
    ) -> Result<WorldViews, ProtocolError> {
        if filter.is_some() {
            // LDPGen collects degree vectors, not adjacency reports; the
            // paper's defenses have nothing to filter here.
            return Err(ProtocolError::DefenseUnsupported { protocol: "LDPGen" });
        }
        let n = graph.num_nodes();
        if m_fake > n {
            return Err(ProtocolError::CraftedOverrun {
                population: n,
                crafted: m_fake,
            });
        }
        let honest_agg = self.aggregate(graph, base);
        let mut synth_rng = base.derive(STREAM_LDPGEN_SYNTH);
        let honest = ServerView::Synthetic(self.synthesize(&honest_agg, &mut synth_rng));

        let attacked = match crafter {
            None => None,
            Some(crafter) => {
                let mut craft_rng = base.derive(STREAM_LDPGEN_ATTACK);
                let noise_scale = 2.0 / self.epsilon();
                let attacked_agg =
                    self.aggregate_with_crafted(graph, base, |phase, groups, num_groups| {
                        let crafted = crafter.craft(
                            CraftContext::DegreeVectors {
                                phase,
                                groups,
                                num_groups,
                                noise_scale,
                            },
                            &mut craft_rng,
                        );
                        if crafted.len() != m_fake {
                            return Err(ProtocolError::CraftedCountMismatch {
                                expected: m_fake,
                                got: crafted.len(),
                            });
                        }
                        let mut vectors: Vec<DegreeVector> = Vec::with_capacity(crafted.len());
                        for report in crafted {
                            let v = report.into_degree_vector()?;
                            if v.len() != num_groups {
                                return Err(ProtocolError::GroupCountMismatch {
                                    expected: num_groups,
                                    got: v.len(),
                                });
                            }
                            vectors.push(v);
                        }
                        Ok(vectors)
                    })?;
                let mut synth_rng = base.derive(STREAM_LDPGEN_SYNTH);
                Some(ServerView::Synthetic(
                    self.synthesize(&attacked_agg, &mut synth_rng),
                ))
            }
        };

        Ok(WorldViews {
            honest,
            attacked,
            flagged: None,
        })
    }

    fn estimate(
        &self,
        view: &ServerView,
        metric: Metric,
        targets: &[usize],
        partition: Option<&[usize]>,
    ) -> Result<Vec<f64>, ProtocolError> {
        let graph = view.as_synthetic().ok_or(ProtocolError::WrongViewKind {
            protocol: "LDPGen",
            expected: "synthetic",
        })?;
        let n = graph.num_nodes();
        check_targets(targets, n)?;
        match metric {
            Metric::Degree => {
                let denom = (n as f64 - 1.0).max(1.0);
                Ok(targets
                    .iter()
                    .map(|&t| graph.degree(t) as f64 / denom)
                    .collect())
            }
            Metric::Clustering => {
                let cc = local_clustering_coefficients(graph);
                Ok(targets.iter().map(|&t| cc[t]).collect())
            }
            Metric::Modularity => {
                let partition = check_partition(partition, n)?;
                Ok(vec![modularity(graph, partition)])
            }
        }
    }

    fn public_params(&self, _population: usize, avg_true_degree: f64) -> PublicParams {
        PublicParams {
            // No adjacency channel: nothing is flipped, nothing inflated.
            p_keep: 1.0,
            degree_noise_scale: 2.0 / self.epsilon(),
            avg_perturbed_degree: avg_true_degree,
        }
    }
}

fn check_targets(targets: &[usize], population: usize) -> Result<(), ProtocolError> {
    for &t in targets {
        if t >= population {
            return Err(ProtocolError::TargetOutOfRange {
                target: t,
                population,
            });
        }
    }
    Ok(())
}

fn check_partition(
    partition: Option<&[usize]>,
    population: usize,
) -> Result<&[usize], ProtocolError> {
    let partition = partition.ok_or(ProtocolError::MissingPartition)?;
    if partition.len() != population {
        return Err(ProtocolError::PartitionLength {
            expected: population,
            got: partition.len(),
        });
    }
    Ok(partition)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_graph::generate::caveman_graph;

    fn base() -> Xoshiro256pp {
        Xoshiro256pp::new(41)
    }

    #[test]
    fn lfgdpr_collect_aggregate_matches_inherent_pipeline() {
        let g = caveman_graph(4, 6);
        let proto = LfGdpr::new(4.0).unwrap();
        let trait_obj: &dyn GraphLdpProtocol = &proto;
        let views = trait_obj
            .run_worlds(&g, &base(), 0, None, None, None)
            .unwrap();
        let inherent = proto.aggregate(&proto.collect_honest(&g, &base()));
        let ServerView::Perturbed(v) = views.honest else {
            panic!("LF-GDPR must produce a perturbed view");
        };
        assert_eq!(v.matrix(), inherent.matrix());
        assert_eq!(v.reported_degrees(), inherent.reported_degrees());
    }

    #[test]
    fn ldpgen_collect_aggregate_matches_honest_run() {
        let g = caveman_graph(6, 6);
        let proto = LdpGen::with_defaults(4.0).unwrap();
        let trait_obj: &dyn GraphLdpProtocol = &proto;
        let views = trait_obj
            .run_worlds(&g, &base(), 0, None, None, None)
            .unwrap();
        let direct_agg = proto.aggregate(&g, &base());
        let mut synth_rng = base().derive(STREAM_LDPGEN_SYNTH);
        let direct = proto.synthesize(&direct_agg, &mut synth_rng);
        assert_eq!(views.honest.as_synthetic().unwrap(), &direct);
    }

    #[test]
    fn run_worlds_without_attack_has_no_attacked_view() {
        let g = caveman_graph(3, 5);
        let proto = LfGdpr::new(4.0).unwrap();
        let views = GraphLdpProtocol::run_worlds(&proto, &g, &base(), 0, None, None, None).unwrap();
        assert!(views.attacked.is_none());
        assert!(views.flagged.is_none());
        assert_eq!(views.honest.population(), 15);
    }

    /// A crafter whose uploads `craft` shapes from the round's context.
    struct Forger<F>(F);

    impl<F: FnMut(CraftContext<'_>) -> Vec<UserReport>> ReportCrafter for Forger<F> {
        fn craft(&mut self, ctx: CraftContext<'_>, _rng: &mut dyn RngCore) -> Vec<UserReport> {
            (self.0)(ctx)
        }
    }

    /// Runs both worlds with `m_fake` fakes crafted by `craft` and returns
    /// the error the run must fail with.
    fn forged_run(
        protocol: &dyn GraphLdpProtocol,
        g: &CsrGraph,
        m_fake: usize,
        craft: impl FnMut(CraftContext<'_>) -> Vec<UserReport>,
    ) -> ProtocolError {
        let mut crafter = Forger(craft);
        protocol
            .run_worlds(g, &base(), m_fake, Some(&mut crafter), None, None)
            .unwrap_err()
    }

    /// `count` uploads of the channel the round asks for, or of the other
    /// one when `swap`; degree vectors get `extra_groups` more entries.
    fn uploads(
        ctx: CraftContext<'_>,
        n: usize,
        count: usize,
        swap: bool,
        extra_groups: usize,
    ) -> Vec<UserReport> {
        let (adjacency, groups) = match ctx {
            CraftContext::Adjacency { .. } => (true, 4),
            CraftContext::DegreeVectors { num_groups, .. } => (false, num_groups),
        };
        let report = if adjacency != swap {
            UserReport::Adjacency(AdjacencyReport::new(ldp_graph::BitSet::new(n), 0.0))
        } else {
            UserReport::DegreeVector(vec![0.0; groups + extra_groups])
        };
        vec![report; count]
    }

    #[test]
    fn foreign_reports_are_rejected_with_typed_errors() {
        let g = caveman_graph(2, 4);
        let n = g.num_nodes();
        let lf = LfGdpr::new(4.0).unwrap();
        let lg = LdpGen::with_defaults(4.0).unwrap();
        for protocol in [&lf as &dyn GraphLdpProtocol, &lg] {
            let name = protocol.name();
            let err = forged_run(protocol, &g, 2, |ctx| uploads(ctx, n, 2, true, 0));
            assert!(
                matches!(err, ProtocolError::WrongReportKind { .. }),
                "{name}: got {err}"
            );
            let err = forged_run(protocol, &g, 2, |ctx| uploads(ctx, n, 3, false, 0));
            assert_eq!(
                err,
                ProtocolError::CraftedCountMismatch {
                    expected: 2,
                    got: 3
                },
                "{name}"
            );
        }
        let err = forged_run(&lg, &g, 2, |ctx| uploads(ctx, n, 2, false, 1));
        assert!(
            matches!(err, ProtocolError::GroupCountMismatch { expected, got } if got == expected + 1),
            "got {err}"
        );
    }

    #[test]
    fn fake_tail_overrunning_the_population_is_a_typed_error() {
        let g = caveman_graph(2, 4);
        let n = g.num_nodes();
        let lf = LfGdpr::new(4.0).unwrap();
        let lg = LdpGen::with_defaults(4.0).unwrap();
        for protocol in [&lf as &dyn GraphLdpProtocol, &lg] {
            let err = forged_run(protocol, &g, n + 1, |ctx| uploads(ctx, n, n + 1, false, 0));
            assert_eq!(
                err,
                ProtocolError::CraftedOverrun {
                    population: n,
                    crafted: n + 1
                },
                "{}",
                protocol.name()
            );
        }
    }

    #[test]
    fn cross_view_estimation_is_rejected() {
        let g = caveman_graph(3, 4);
        let lf = LfGdpr::new(4.0).unwrap();
        let lg = LdpGen::with_defaults(4.0).unwrap();
        let lf_view = GraphLdpProtocol::run_worlds(&lf, &g, &base(), 0, None, None, None)
            .unwrap()
            .honest;
        assert!(matches!(
            lg.estimate(&lf_view, Metric::Degree, &[0], None),
            Err(ProtocolError::WrongViewKind { .. })
        ));
    }

    #[test]
    fn estimate_validates_targets_and_partition() {
        let g = caveman_graph(3, 4);
        let lf = LfGdpr::new(4.0).unwrap();
        let view = GraphLdpProtocol::run_worlds(&lf, &g, &base(), 0, None, None, None)
            .unwrap()
            .honest;
        assert!(matches!(
            lf.estimate(&view, Metric::Degree, &[99], None),
            Err(ProtocolError::TargetOutOfRange { .. })
        ));
        assert!(matches!(
            lf.estimate(&view, Metric::Modularity, &[], None),
            Err(ProtocolError::MissingPartition)
        ));
        assert!(matches!(
            lf.estimate(&view, Metric::Modularity, &[], Some(&[0, 1])),
            Err(ProtocolError::PartitionLength { .. })
        ));
        let partition: Vec<usize> = (0..12).map(|u| u / 4).collect();
        let q = lf
            .estimate(&view, Metric::Modularity, &[], Some(&partition))
            .unwrap();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn miscounting_crafters_are_rejected_before_any_slot_is_written() {
        /// Returns one report too many, whatever the channel.
        struct Overeager;
        impl ReportCrafter for Overeager {
            fn craft(&mut self, ctx: CraftContext<'_>, rng: &mut dyn RngCore) -> Vec<UserReport> {
                match ctx {
                    CraftContext::Adjacency { protocol } => {
                        let g = caveman_graph(2, 6);
                        (0..3)
                            .map(|node| {
                                let mut rng: &mut dyn RngCore = rng;
                                UserReport::Adjacency(protocol.honest_report(&g, node, &mut rng))
                            })
                            .collect()
                    }
                    CraftContext::DegreeVectors { num_groups, .. } => {
                        vec![UserReport::DegreeVector(vec![0.0; num_groups]); 3]
                    }
                }
            }
        }
        let g = caveman_graph(2, 6);
        let lf = LfGdpr::new(4.0).unwrap();
        let lg = LdpGen::with_defaults(4.0).unwrap();
        for protocol in [&lf as &dyn GraphLdpProtocol, &lg] {
            let mut crafter = Overeager;
            let err = protocol
                .run_worlds(&g, &base(), 2, Some(&mut crafter), None, None)
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    ProtocolError::CraftedCountMismatch {
                        expected: 2,
                        got: 3
                    }
                ),
                "{}: got {err}",
                protocol.name()
            );
        }
    }

    #[test]
    fn ldpgen_rejects_filters() {
        struct NullFilter;
        impl ReportFilter for NullFilter {
            fn filter(
                &mut self,
                reports: &[AdjacencyReport],
                _protocol: &LfGdpr,
                _rng: &mut dyn RngCore,
            ) -> FilterDecision {
                FilterDecision {
                    repaired: reports.to_vec(),
                    flagged: vec![false; reports.len()],
                }
            }
        }
        let g = caveman_graph(2, 4);
        let lg = LdpGen::with_defaults(4.0).unwrap();
        let mut filter = NullFilter;
        assert!(matches!(
            GraphLdpProtocol::run_worlds(&lg, &g, &base(), 0, None, Some(&mut filter), None),
            Err(ProtocolError::DefenseUnsupported { .. })
        ));
    }

    #[test]
    fn metric_helpers() {
        assert_eq!(Metric::Degree.name(), "degree-centrality");
        assert!(Metric::Modularity.requires_partition());
        assert!(!Metric::Clustering.requires_partition());
        assert_eq!(Metric::ALL.len(), 3);
        assert_eq!(format!("{}", Metric::Modularity), "modularity");
    }

    #[test]
    fn errors_display_their_shape() {
        let e = ProtocolError::PopulationMismatch {
            expected: 10,
            got: 9,
        };
        assert!(e.to_string().contains("population is 10"));
        let e = ProtocolError::MissingPartition;
        assert!(e.to_string().contains("partition"));
    }

    #[test]
    fn public_params_match_the_protocols() {
        let lf = LfGdpr::new(4.0).unwrap();
        let p = GraphLdpProtocol::public_params(&lf, 100, 8.0);
        assert!((p.p_keep - lf.p_keep()).abs() < 1e-15);
        assert!((p.avg_perturbed_degree - lf.expected_perturbed_degree(100, 8.0)).abs() < 1e-12);
        let lg = LdpGen::with_defaults(4.0).unwrap();
        let p = GraphLdpProtocol::public_params(&lg, 100, 8.0);
        assert_eq!(p.p_keep, 1.0);
        assert!((p.degree_noise_scale - 0.5).abs() < 1e-15);
        assert_eq!(p.avg_perturbed_degree, 8.0);
    }
}
