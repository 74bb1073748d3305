//! # ldp-graph
//!
//! Graph substrate for local-differential-privacy (LDP) graph-metric
//! protocols and the data-poisoning attacks built on top of them.
//!
//! This crate provides everything the upper layers need to talk about
//! decentralized graphs:
//!
//! * [`BitSet`] — a packed bitset used as the *adjacency bit vector* each
//!   user holds locally and perturbs before upload.
//! * [`CsrGraph`] — a compact sparse-row undirected simple graph used for
//!   exact (ground-truth) metric computation.
//! * [`BitMatrix`] — a dense bit-matrix adjacency representation used by the
//!   server-side aggregation of perturbed bit vectors, where the perturbed
//!   graph is far denser than the original.
//! * Exact metrics: degree, degree centrality, per-node triangle counts,
//!   local/average clustering coefficient, modularity
//!   (see [`metrics`]).
//! * Community detection via label propagation (see [`community`]) to obtain
//!   the partitions that modularity estimation requires.
//! * Random graph generators (see [`generate`]): Erdős–Rényi, Barabási–Albert,
//!   Holme–Kim (powerlaw + clustering), Watts–Strogatz, planted partition,
//!   configuration model, and deterministic fixtures for tests.
//! * Synthetic stand-ins for the four SNAP datasets of the paper
//!   (see [`datasets`]), plus edge-list I/O (see [`io`]) so real datasets can
//!   be dropped in when available.
//! * Word-slice popcounts (see [`popcount`]), shared by every dense bit
//!   kernel, with an AVX-512 VPOPCNTDQ path selected at run time. It is
//!   the crate's one module allowed `unsafe` (the crate denies it
//!   elsewhere; every other crate forbids it).
//! * A shared parallel [`runtime`]: order-preserving `parallel_map` and
//!   disjoint-chunk `parallel_chunks_mut` over scoped threads, used by the
//!   protocol ingestion and experiment layers above.
//!
//! The crate is dependency-light by design: only `rand` (for generator
//! randomness) is pulled in, and a fast, reproducible [`rng::Xoshiro256pp`]
//! PRNG is provided for the simulation-heavy upper layers.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod bitset;
pub mod builder;
pub mod community;
pub mod csr;
pub mod datasets;
pub mod dense;
pub mod error;
pub mod generate;
pub mod io;
pub mod metrics;
#[allow(unsafe_code)]
pub mod popcount;
pub mod rng;
pub mod runtime;

pub use bitset::BitSet;
pub use builder::GraphBuilder;
pub use csr::CsrGraph;
pub use dense::BitMatrix;
pub use error::GraphError;
pub use rng::Xoshiro256pp;

/// Node identifier. Graphs in this workspace are arrays of contiguous node
/// ids `0..n`, so a plain index is the most transparent representation.
pub type NodeId = usize;
