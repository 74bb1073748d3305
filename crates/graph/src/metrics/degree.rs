//! Degree centrality (paper Eq. 8): `c_i = d_i / (N − 1)`.

use crate::csr::CsrGraph;

/// Normalized degree centrality of a single node.
///
/// Returns 0 for graphs with fewer than two nodes (the normalization is
/// undefined there, and a single node has no possible connections).
pub fn degree_centrality(g: &CsrGraph, u: usize) -> f64 {
    let n = g.num_nodes();
    if n < 2 {
        return 0.0;
    }
    g.degree(u) as f64 / (n as f64 - 1.0)
}

/// Degree centralities of every node.
pub fn degree_centralities(g: &CsrGraph) -> Vec<f64> {
    (0..g.num_nodes())
        .map(|u| degree_centrality(g, u))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_center_has_centrality_one() {
        // Star on 5 nodes: center 0 connects to all others.
        let g = CsrGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
        assert!((degree_centrality(&g, 0) - 1.0).abs() < 1e-12);
        assert!((degree_centrality(&g, 1) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn centralities_vector() {
        let g = CsrGraph::from_edges(3, &[(0, 1)]).unwrap();
        let c = degree_centralities(&g);
        assert_eq!(c.len(), 3);
        assert!((c[0] - 0.5).abs() < 1e-12);
        assert_eq!(c[2], 0.0);
    }

    #[test]
    fn degenerate_graphs() {
        let g1 = CsrGraph::from_edges(1, &[]).unwrap();
        assert_eq!(degree_centrality(&g1, 0), 0.0);
    }
}
