//! # graph-ldp-poisoning
//!
//! A Rust reproduction of **"Data Poisoning Attacks to Local Differential
//! Privacy Protocols for Graphs"** (He, Huang, Ye, Hu — ICDE 2025).
//!
//! This facade crate re-exports the whole workspace so applications can
//! depend on one crate:
//!
//! * [`graph`] — graph substrate: bitsets, CSR/dense graphs, exact metrics,
//!   generators, dataset stand-ins ([`ldp_graph`]).
//! * [`mechanisms`] — LDP primitives: randomized response, Laplace and
//!   Binomial/Geometric samplers ([`ldp_mechanisms`]).
//! * [`protocols`] — LF-GDPR and LDPGen behind the object-safe
//!   `GraphLdpProtocol` trait ([`ldp_protocols`]).
//! * [`attack`] — the paper's contribution: the `Attack` trait
//!   (RVA/RNA/MGA), gain, theory, and the unified scenario engine
//!   ([`poison_core`]).
//! * [`defense`] — Detect1/Detect2 countermeasures and baselines behind
//!   the `Defense` trait ([`poison_defense`]).
//! * [`collector`] — the sharded report-collection service: binary wire
//!   codec, TCP daemon with a round lifecycle and checkpoint/resume, and
//!   the bridge that evaluates scenarios over the wire ([`ldp_collector`]).
//! * [`experiments`] — the harness regenerating every table and figure
//!   ([`poison_experiments`]).
//!
//! ## Quickstart
//!
//! Every evaluation — any protocol, attack, metric, defense — is one
//! [`Scenario`](poison_core::scenario::Scenario) run:
//!
//! ```
//! use graph_ldp_poisoning::prelude::*;
//!
//! // A decentralized social graph of 300 genuine users.
//! let graph = Dataset::Facebook.generate_with_nodes(300, 7);
//!
//! // An attacker controls 5% fake users and targets 5% of nodes.
//! let mut rng = Xoshiro256pp::new(1);
//! let threat = ThreatModel::from_fractions(
//!     &graph, 0.05, 0.05, TargetSelection::UniformRandom, &mut rng);
//!
//! // Maximal Gain Attack on LF-GDPR's degree-centrality estimates,
//! // filtered by the degree-consistency countermeasure.
//! let report = Scenario::on(LfGdpr::new(4.0).unwrap())
//!     .attack(Mga::default())
//!     .metric(Metric::Degree)
//!     .defend(DegreeConsistencyDefense::default())
//!     .threat(threat)
//!     .trials(3)
//!     .seed(42)
//!     .run(&graph)
//!     .unwrap();
//! assert!(report.mean_gain() > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use ldp_collector as collector;
pub use ldp_graph as graph;
pub use ldp_mechanisms as mechanisms;
pub use ldp_protocols as protocols;
pub use poison_core as attack;
pub use poison_defense as defense;
pub use poison_experiments as experiments;

/// The most common imports, bundled.
pub mod prelude {
    pub use ldp_graph::datasets::Dataset;
    pub use ldp_graph::{BitMatrix, BitSet, CsrGraph, GraphBuilder, Xoshiro256pp};
    pub use ldp_mechanisms::{LaplaceMechanism, RandomizedResponse};
    pub use ldp_protocols::{
        AdjacencyReport, GraphLdpProtocol, LdpGen, LfGdpr, Metric, PerturbedView, ServerView,
        UserReport,
    };
    pub use poison_core::scenario::{EvalMode, Scenario, ScenarioReport};
    pub use poison_core::{
        attack_for, theorem1_degree_gain, theorem2_clustering_gain, Attack, AttackOutcome,
        AttackStrategy, AttackerKnowledge, Defense, Mga, MgaOptions, Rna, Rva, ScenarioError,
        TargetMetric, TargetSelection, ThreatModel,
    };
    pub use poison_defense::{
        DegreeConsistencyDefense, FrequentItemsetDefense, NaiveDegreeTails, NaiveTopDegree,
    };

    pub use ldp_collector::{CollectorClient, CollectorConfig, CollectorServer, WireWorldRunner};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_resolve() {
        use crate::prelude::*;
        let g = Dataset::Facebook.generate_with_nodes(250, 1);
        assert_eq!(g.num_nodes(), 250);
        let _ = LfGdpr::new(4.0).unwrap();
    }
}
