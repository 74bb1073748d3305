//! # ldp-protocols
//!
//! The two LDP protocols for graph-metric estimation that the paper
//! attacks:
//!
//! * [`lfgdpr`] — **LF-GDPR** (Ye et al., TKDE'20): every user uploads a
//!   randomized-response-perturbed adjacency bit vector (budget ε₁) and a
//!   Laplace-perturbed degree (budget ε₂); the server aggregates them into
//!   a perturbed graph view and estimates degree centrality, clustering
//!   coefficients (via the three-case triangle calibration `R(·)`,
//!   paper Eq. 15–19) and modularity.
//! * [`ldpgen`] — **LDPGen** (Qin et al., CCS'17): users report
//!   Laplace-noisy degree vectors toward server-chosen groups over two
//!   phases; the server clusters users and synthesizes a whole graph from
//!   which any metric can be read.
//! * [`ingest`] — LF-GDPR's server-side fold: one function folds every
//!   report's owned words in parallel into the lower-triangle aggregate
//!   and finalizes it into a [`PerturbedView`]; `PerturbedView::from_reports`
//!   and `LfGdpr::aggregate` are entries onto it, and the collector
//!   service reuses its kernel and finalize.
//! * [`protocol`] — the object-safe [`GraphLdpProtocol`] trait both
//!   protocols implement, exchanging the protocol-agnostic [`UserReport`]
//!   enum ([`report`]): the surface the scenario engine in `poison-core`
//!   composes attacks, metrics, and defenses over.
//! * [`wire`] — the binary wire codec (length-prefixed frames, varint ids,
//!   bit-packed adjacency rows, versioned stream header) the collection
//!   service `ldp-collector` moves reports and finalized views over, with
//!   typed [`WireError`]s for every malformed frame.
//!
//! ## Edge-perturbation model
//!
//! Every undirected slot `{i, j}` is perturbed **exactly once**: the
//! higher-id endpoint's report is authoritative for the slot
//! (users effectively upload the lower-triangle half of their bit vector).
//! This matches the single-`p` algebra the paper's calibration uses
//! (triangle retention `p³`, Eq. 16) and gives the attacker of the upper
//! crates exactly the power the threat model grants: fake users — appended
//! after genuine ids — own every slot between themselves and genuine users.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ingest;
pub mod ldpgen;
pub mod lfgdpr;
pub mod protocol;
pub mod report;
pub mod wire;

pub use ldpgen::LdpGen;
pub use lfgdpr::{LfGdpr, PerturbedView};
pub use protocol::{
    CraftContext, FilterDecision, GraphLdpProtocol, Metric, ProtocolError, PublicParams,
    ReportCrafter, ReportFilter, ServerView, WorldViews,
};
pub use report::{AdjacencyReport, DegreeVector, UserReport};
pub use wire::WireError;
