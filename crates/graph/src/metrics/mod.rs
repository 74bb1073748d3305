//! Exact (non-private) graph metrics.
//!
//! These are the ground truths against which the LDP estimates and attack
//! gains are measured: degree centrality (paper Eq. 8), per-node triangle
//! counts, the local clustering coefficient (Eq. 12), and modularity.

pub mod clustering;
pub mod degree;
pub mod distribution;
pub mod modularity;
pub mod triangles;

pub use clustering::{
    average_clustering_coefficient, global_transitivity, local_clustering_coefficients,
};
pub use degree::{degree_centralities, degree_centrality};
pub use distribution::degree_gini;
pub use modularity::modularity;
pub use triangles::{total_triangles, triangles_per_node};
