//! The server-side aggregate of all uploaded reports.

use crate::report::AdjacencyReport;
use ldp_graph::{BitMatrix, NodeId};
use ldp_mechanisms::RandomizedResponse;

/// The perturbed graph the server reconstructs from `N` reports, plus the
/// reported-degree vector.
///
/// Slot ownership: the undirected slot `{i, j}` with `i > j` is taken from
/// report `i` (lower-triangle authority), so each slot is perturbed exactly
/// once — see the crate docs.
#[derive(Debug, Clone)]
pub struct PerturbedView {
    matrix: BitMatrix,
    reported_degrees: Vec<f64>,
    perturbed_degrees: Vec<usize>,
    /// `Σd̃_i`, cached at construction so [`Self::edge_density`] and
    /// [`Self::average_perturbed_degree`] — called per estimate and per
    /// `calibration_threads` sizing — are O(1) instead of an O(N) sum.
    sum_perturbed_degrees: u64,
    rr: RandomizedResponse,
}

impl PerturbedView {
    /// Builds the view from one report per user: an entry onto
    /// [`crate::ingest::fold_reports`], the one in-process fold.
    ///
    /// # Panics
    /// Panics if a report spans a population other than the number of
    /// reports.
    pub fn from_reports(reports: &[AdjacencyReport], rr: RandomizedResponse) -> Self {
        crate::ingest::fold_reports(reports, rr).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Assembles a view from already-aggregated parts; reserved for
    /// [`crate::ingest::finalize_lower`], which upholds the invariants
    /// (symmetric, zero-diagonal matrix with no bits past `N`; degree
    /// vectors of length `N` consistent with it) by mirroring a strict
    /// lower triangle and counting the rows. Every view — aggregated in
    /// process or decoded by `wire::decode_view` — is built there.
    pub(crate) fn from_parts(
        matrix: BitMatrix,
        reported_degrees: Vec<f64>,
        perturbed_degrees: Vec<usize>,
        rr: RandomizedResponse,
    ) -> Self {
        debug_assert_eq!(matrix.num_nodes(), reported_degrees.len());
        debug_assert_eq!(matrix.num_nodes(), perturbed_degrees.len());
        let sum_perturbed_degrees = perturbed_degrees.iter().map(|&d| d as u64).sum();
        PerturbedView {
            matrix,
            reported_degrees,
            perturbed_degrees,
            sum_perturbed_degrees,
            rr,
        }
    }

    /// Population size `N`.
    pub fn num_users(&self) -> usize {
        self.reported_degrees.len()
    }

    /// The symmetrized perturbed adjacency matrix.
    pub fn matrix(&self) -> &BitMatrix {
        &self.matrix
    }

    /// The randomized-response mechanism the view assumes for calibration.
    pub fn rr(&self) -> RandomizedResponse {
        self.rr
    }

    /// Node `i`'s degree in the perturbed graph (row popcount) — `d̃_i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn perturbed_degree(&self, i: NodeId) -> usize {
        assert!(i < self.num_users(), "node {i} out of range");
        self.perturbed_degrees[i]
    }

    /// Node `i`'s self-reported (Laplace) degree.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn reported_degree(&self, i: NodeId) -> f64 {
        assert!(i < self.num_users(), "node {i} out of range");
        self.reported_degrees[i]
    }

    /// All reported degrees.
    pub fn reported_degrees(&self) -> &[f64] {
        &self.reported_degrees
    }

    /// Average perturbed degree `d̃` over all users. O(1): the degree sum
    /// is cached at construction.
    pub fn average_perturbed_degree(&self) -> f64 {
        if self.num_users() == 0 {
            return 0.0;
        }
        self.sum_perturbed_degrees as f64 / self.num_users() as f64
    }

    /// Edge density `θ̃` of the perturbed graph: `Σd̃_i / (N(N−1))`. O(1):
    /// the degree sum is cached at construction.
    ///
    /// (Paper Eq. 17 writes the numerator with τ̃; the quantity it names —
    /// "edge density of the perturbed graph" — is this one. See DESIGN.md.)
    pub fn edge_density(&self) -> f64 {
        let n = self.num_users() as f64;
        if n < 2.0 {
            return 0.0;
        }
        self.sum_perturbed_degrees as f64 / (n * (n - 1.0))
    }

    /// The degree-centrality estimate the paper's degree attacks target:
    /// `c̃_i = d̃_i / (N − 1)` on the perturbed graph (Theorem 1 operates on
    /// exactly this uncalibrated quantity).
    pub fn degree_centrality(&self, i: NodeId) -> f64 {
        let n = self.num_users();
        if n < 2 {
            return 0.0;
        }
        self.perturbed_degrees[i] as f64 / (n as f64 - 1.0)
    }

    /// RR-calibrated (unbiased) degree estimate from the adjacency channel:
    /// `(d̃_i − (N−1)(1−p)) / (2p−1)`.
    pub fn calibrated_degree(&self, i: NodeId) -> f64 {
        let n = self.num_users() as f64;
        self.rr
            .calibrate_count(self.perturbed_degrees[i] as f64, n - 1.0)
    }

    /// Calibrated degree-centrality estimate (ablation: shows the attack
    /// also moves the unbiased estimator, scaled by `1/(2p−1)`).
    pub fn calibrated_degree_centrality(&self, i: NodeId) -> f64 {
        let n = self.num_users();
        if n < 2 {
            return 0.0;
        }
        self.calibrated_degree(i) / (n as f64 - 1.0)
    }

    /// Triangles incident to each of `nodes` in the perturbed graph —
    /// `τ̃_i` — counted by [`BitMatrix::triangles_at_many`] on up to
    /// `threads` workers (results do not depend on `threads`).
    ///
    /// # Panics
    /// Panics if any node is out of range.
    pub fn perturbed_triangles_at(&self, nodes: &[NodeId], threads: usize) -> Vec<u64> {
        self.matrix.triangles_at_many(nodes, threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_graph::BitSet;

    fn rr09() -> RandomizedResponse {
        RandomizedResponse::from_keep_probability(0.9).unwrap()
    }

    /// Hand-built population of 4 users where user i's bits are given
    /// explicitly (only lower-triangle bits count).
    fn view_from_rows(rows: Vec<Vec<usize>>, degrees: Vec<f64>) -> PerturbedView {
        let n = rows.len();
        let reports: Vec<AdjacencyReport> = rows
            .into_iter()
            .zip(degrees)
            .map(|(ones, d)| AdjacencyReport::new(BitSet::from_indices(n, ones), d))
            .collect();
        PerturbedView::from_reports(&reports, rr09())
    }

    #[test]
    fn lower_triangle_ownership() {
        // User 0 claims an edge to 3 (ignored: 3 > 0); user 3 claims edges
        // to 0 and 1 (authoritative).
        let view = view_from_rows(
            vec![vec![3], vec![], vec![], vec![0, 1]],
            vec![0.0, 0.0, 0.0, 2.0],
        );
        assert!(view.matrix().has_edge(3, 0));
        assert!(view.matrix().has_edge(3, 1));
        assert!(!view.matrix().has_edge(0, 3) || view.matrix().has_edge(3, 0));
        assert_eq!(view.matrix().num_edges(), 2);
        assert_eq!(view.perturbed_degree(3), 2);
        assert_eq!(view.perturbed_degree(2), 0);
    }

    #[test]
    fn degree_centrality_uses_perturbed_degree() {
        let view = view_from_rows(vec![vec![], vec![0], vec![0, 1], vec![]], vec![0.0; 4]);
        // Node 0 has perturbed degree 2 (claimed by 1 and 2).
        assert_eq!(view.perturbed_degree(0), 2);
        assert!((view.degree_centrality(0) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn calibration_reverses_rr_bias_in_expectation() {
        let rr = rr09();
        // Perturbed degree exactly at its expectation for true degree 5 of 99 slots.
        let expected = rr.expected_observed(5.0, 99.0);
        let calibrated = rr.calibrate_count(expected, 99.0);
        assert!((calibrated - 5.0).abs() < 1e-9);
    }

    #[test]
    fn density_and_average_degree() {
        let view = view_from_rows(vec![vec![], vec![0], vec![1], vec![2]], vec![0.0; 4]);
        // 3 edges in a path; Σd̃ = 6.
        assert!((view.average_perturbed_degree() - 1.5).abs() < 1e-12);
        assert!((view.edge_density() - 6.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn perturbed_triangles_counts_matrix_triangles() {
        let view = view_from_rows(vec![vec![], vec![0], vec![0, 1], vec![]], vec![0.0; 4]);
        assert_eq!(view.perturbed_triangles_at(&[0, 3, 0], 1), vec![1, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "spans")]
    fn population_mismatch_panics() {
        let reports = vec![
            AdjacencyReport::new(BitSet::new(3), 0.0),
            AdjacencyReport::new(BitSet::new(4), 0.0),
            AdjacencyReport::new(BitSet::new(3), 0.0),
        ];
        PerturbedView::from_reports(&reports, rr09());
    }
}
