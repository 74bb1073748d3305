//! # poison-core
//!
//! The paper's contribution: data poisoning attacks on LDP protocols for
//! graphs. An attacker controlling `m` fake users crafts their uploads to
//! distort the server's estimates of degree centrality, clustering
//! coefficient, and modularity for `r` chosen target nodes.
//!
//! * [`threat`] — the threat model of §IV-A: fake-user and target-node
//!   populations (fractions β and γ of the genuine users).
//! * [`knowledge`] — what the attacker is assumed to know (§IV-A): the
//!   budgets ε₁/ε₂, the population size, and the average perturbed degree
//!   `d̃`, from which the per-fake-user connection budget `⌊d̃⌋` follows.
//! * [`attack`] — the paper's three attacks, RVA, RNA and MGA (§IV-B):
//!   each is one `impl` of the object-safe [`attack::Attack`] trait
//!   holding its LF-GDPR adjacency craft, its LDPGen degree-vector craft
//!   and its sampled-mode footprint side by side.
//! * [`strategy`] — the knobs around them: the targeted metric, the
//!   [`strategy::AttackStrategy`] selector the figure tables iterate, and
//!   MGA's options.
//! * [`defense`] — the object-safe [`defense::Defense`] trait the
//!   countermeasures in `poison-defense` implement.
//! * [`scenario`] — the unified evaluation engine:
//!   `Scenario::on(protocol).attack(…).metric(…).defend(…).run(&graph)`
//!   covers every (protocol × attack × metric × defense) combination with
//!   common random numbers, exact/sampled mode selection, streaming
//!   ingest, and structured reports.
//! * [`gain`] — the overall gain `Gain = Σ_t |f̃_{t,a} − f̃_{t,b}|`
//!   (Eq. 4–5); [`theory`] — closed-form expected MGA gains
//!   (Theorems 1 and 2).
//! * [`error`] — the typed [`error::ScenarioError`] the engine returns
//!   instead of aborting.
//!
//! The engine's collection can be re-backed by
//! [`scenario::WorldRunner`] — `ldp-collector` uses that to evaluate
//! scenarios over a TCP collection daemon, bit for bit.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod attack;
pub mod defense;
pub mod error;
pub mod gain;
pub mod knowledge;
pub mod scenario;
pub mod strategy;
pub mod theory;
pub mod threat;

pub use attack::{attack_for, Attack, DegreeFootprint, Mga, Rna, Rva};
pub use defense::Defense;
pub use error::ScenarioError;
pub use gain::AttackOutcome;
pub use knowledge::AttackerKnowledge;
pub use ldp_protocols::{GraphLdpProtocol, Metric, ServerView};
pub use scenario::{
    EvalMode, InProcessRunner, Scenario, ScenarioBuilder, ScenarioReport, TrialOutcome, WorldRunner,
};
pub use strategy::{AttackStrategy, MgaOptions, TargetMetric};
pub use theory::{theorem1_degree_gain, theorem2_clustering_gain};
pub use threat::{TargetSelection, ThreatModel};
