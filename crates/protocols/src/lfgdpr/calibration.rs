//! Triangle-count calibration `R(·)` and the clustering-coefficient
//! estimator (paper Eq. 15–19).
//!
//! The server counts `τ̃_i` triangles at node `i` in the perturbed graph.
//! Its expectation decomposes over the three cases of paper Fig. 4
//! (both/one/neither co-members are true neighbors):
//!
//! ```text
//! E[τ̃] = τ·p³ + (½d(d−1) − τ)·p²(1−p)            // case 1
//!       + d(N−d−1)·p(1−p)·θ̃                       // case 2
//!       + ½(N−d−1)(N−d−2)·(1−p)²·θ̃                // case 3
//!       = τ·p²(2p−1) + bias(d, N, p, θ̃)
//! ```
//!
//! so `R(τ̃) = (τ̃ − bias)/(p²(2p−1))` is the unbiased inverse — Eq. 16.

use super::view::PerturbedView;
use ldp_graph::metrics::clustering::clustering_from_parts;
use ldp_graph::runtime::{default_threads, kernel_threads, threads_for_work};

/// Word ops from which the triangle count also takes the core that
/// [`default_threads`] leaves out. Below it, on a 2-core host, waking
/// that core saved no time and slowed the caller's work after the
/// estimate: `fig13_defenses` (N ≈ 4,240, about 2^22 word ops per
/// estimate) read 0.82 of the parent's reports/s with every core and
/// 0.95 with cores − 1. The adjacency round's estimate (N = 16,384) is
/// about 2^27.5.
const EVERY_CORE_WORK: usize = 1 << 24;

/// Worker count for calibrating `targets` nodes of `view`: the
/// row-streamed triangle count intersects each target's `d̃` neighbor
/// rows over their prefixes, `N/128` words on average, so the job is
/// `targets · d̃ · N/128` word ops (the shared runtime threshold decides
/// when that amortizes a thread scope). The workers only read the view's
/// matrix and fill one count vector each, so a large count runs on every
/// core ([`kernel_threads`]).
fn calibration_threads(view: &PerturbedView, targets: usize) -> usize {
    let prefix_words = view.num_users().div_ceil(128).max(1);
    let work = (view.average_perturbed_degree() * targets as f64) as usize * prefix_words;
    let threads = if work < EVERY_CORE_WORK {
        default_threads()
    } else {
        kernel_threads()
    };
    threads_for_work(work, threads)
}

/// Applies Eq. 16: calibrates a perturbed triangle count back to an
/// unbiased estimate of the true count.
///
/// * `tau_tilde` — observed triangles at the node in the perturbed graph;
/// * `degree` — the node's degree estimate (LF-GDPR plugs in the reported
///   degree `ẽd_i`);
/// * `n` — population size `N`;
/// * `p` — RR keep probability (must exceed ½ for invertibility);
/// * `theta_tilde` — perturbed-graph edge density `θ̃` (Eq. 17).
pub fn calibrate_triangles(tau_tilde: f64, degree: f64, n: f64, p: f64, theta_tilde: f64) -> f64 {
    let q = 1.0 - p;
    let d = degree.max(0.0);
    let non_neighbors = (n - d - 1.0).max(0.0);
    let bias = 0.5 * d * (d - 1.0).max(0.0) * p * p * q
        + d * non_neighbors * p * q * theta_tilde
        + 0.5 * non_neighbors * (non_neighbors - 1.0).max(0.0) * q * q * theta_tilde;
    (tau_tilde - bias) / (p * p * (2.0 * p - 1.0))
}

/// The expected perturbed triangle count for a node with true triangle
/// count `tau`, true degree `d`, in a graph with perturbed density
/// `theta_tilde` — the forward direction of Eq. 16, exposed for tests and
/// for the analytic large-graph mode.
pub fn expected_perturbed_triangles(tau: f64, d: f64, n: f64, p: f64, theta_tilde: f64) -> f64 {
    let q = 1.0 - p;
    let non_neighbors = (n - d - 1.0).max(0.0);
    tau * p.powi(3)
        + (0.5 * d * (d - 1.0).max(0.0) - tau) * p * p * q
        + d * non_neighbors * p * q * theta_tilde
        + 0.5 * non_neighbors * (non_neighbors - 1.0).max(0.0) * q * q * theta_tilde
}

/// Which degree the estimator plugs into Eq. 15–16 as `ẽd_i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegreeSource {
    /// The node's degree in the perturbed graph (row popcount). This is
    /// what the paper's Eq. 15 and Theorem 2 normalize by ("the perturbed
    /// degree"), so it is the default for reproduction.
    #[default]
    PerturbedRow,
    /// The Laplace-reported degree — LF-GDPR's own (better-calibrated)
    /// choice; exposed as an ablation.
    Reported,
}

fn degree_of(view: &PerturbedView, i: usize, source: DegreeSource) -> f64 {
    match source {
        DegreeSource::PerturbedRow => view.perturbed_degree(i) as f64,
        DegreeSource::Reported => view.reported_degree(i),
    }
}

/// Counts `τ̃` at every node of `nodes` in one kernel call, then applies
/// Eq. 15–16 per node: `(R(τ̃_i), cc_i)` in the order of `nodes`.
fn calibrate_nodes(view: &PerturbedView, nodes: &[usize], source: DegreeSource) -> Vec<(f64, f64)> {
    let nf = view.num_users() as f64;
    let p = view.rr().p_keep();
    let theta = view.edge_density();
    let tau_tilde = view.perturbed_triangles_at(nodes, calibration_threads(view, nodes.len()));
    nodes
        .iter()
        .zip(tau_tilde)
        .map(|(&i, tau_tilde)| {
            let degree = degree_of(view, i, source);
            let tau = calibrate_triangles(tau_tilde as f64, degree, nf, p, theta);
            (tau, clustering_from_parts(tau, degree))
        })
        .collect()
}

/// The per-node output of the clustering-coefficient estimator.
#[derive(Debug, Clone)]
pub struct ClusteringEstimate {
    /// Estimated local clustering coefficient per node (Eq. 15).
    pub cc: Vec<f64>,
    /// Calibrated triangle counts `R(τ̃_i)` per node (Eq. 16).
    pub calibrated_triangles: Vec<f64>,
    /// The perturbed edge density `θ̃` used in the calibration.
    pub theta_tilde: f64,
}

/// Runs the full LF-GDPR clustering-coefficient estimation over a view:
/// `cc_i = 2·R(τ̃_i) / (ẽd_i(ẽd_i − 1))`, with `ẽd_i` chosen by `source`.
///
/// Triangle counting dominates; it is one call of the row-streamed
/// kernel over every node, chunk-parallelized on the shared runtime for
/// large views. Results are identical at any thread count.
pub fn estimate_clustering_with(view: &PerturbedView, source: DegreeSource) -> ClusteringEstimate {
    let nodes: Vec<usize> = (0..view.num_users()).collect();
    let (taus, cc) = calibrate_nodes(view, &nodes, source).into_iter().unzip();
    ClusteringEstimate {
        cc,
        calibrated_triangles: taus,
        theta_tilde: view.edge_density(),
    }
}

/// [`estimate_clustering_with`] at the paper-default degree source.
pub fn estimate_clustering(view: &PerturbedView) -> ClusteringEstimate {
    estimate_clustering_with(view, DegreeSource::default())
}

/// Clustering estimate restricted to chosen nodes (the attack pipeline only
/// needs targets, and triangle counting dominates the cost). Bit-identical
/// to the same nodes of [`estimate_clustering_with`].
pub fn estimate_clustering_at_with(
    view: &PerturbedView,
    nodes: &[usize],
    source: DegreeSource,
) -> Vec<f64> {
    calibrate_nodes(view, nodes, source)
        .into_iter()
        .map(|(_, cc)| cc)
        .collect()
}

/// [`estimate_clustering_at_with`] at the paper-default degree source.
pub fn estimate_clustering_at(view: &PerturbedView, nodes: &[usize]) -> Vec<f64> {
    estimate_clustering_at_with(view, nodes, DegreeSource::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lfgdpr::LfGdpr;
    use ldp_graph::generate::caveman_graph;
    use ldp_graph::metrics::local_clustering_coefficients;
    use ldp_graph::Xoshiro256pp;

    #[test]
    fn calibration_inverts_expectation() {
        let (tau, d, n, p, theta) = (40.0, 12.0, 500.0, 0.88, 0.12);
        let tilde = expected_perturbed_triangles(tau, d, n, p, theta);
        let recovered = calibrate_triangles(tilde, d, n, p, theta);
        assert!((recovered - tau).abs() < 1e-9, "recovered {recovered}");
    }

    #[test]
    fn calibration_near_identity_when_p_near_one() {
        let tau = calibrate_triangles(100.0, 10.0, 1000.0, 0.999_999, 0.01);
        assert!((tau - 100.0).abs() < 0.1, "tau {tau}");
    }

    #[test]
    fn degenerate_degrees_do_not_produce_nan() {
        let tau = calibrate_triangles(0.0, 0.0, 10.0, 0.9, 0.0);
        assert!(tau.is_finite());
        let tau = calibrate_triangles(0.0, 9.0, 10.0, 0.9, 0.5);
        assert!(tau.is_finite());
    }

    #[test]
    fn end_to_end_clustering_estimate_tracks_truth() {
        // Caveman graph: strong clustering signal. Large ε → small noise.
        let g = caveman_graph(8, 8);
        let proto = LfGdpr::new(14.0).unwrap();
        let base = Xoshiro256pp::new(11);
        let reports = proto.collect_honest(&g, &base);
        let view = proto.aggregate(&reports);
        let est = estimate_clustering(&view);
        let truth = local_clustering_coefficients(&g);
        let n = g.num_nodes() as f64;
        let mae: f64 = est
            .cc
            .iter()
            .zip(&truth)
            .map(|(e, t)| (e - t).abs())
            .sum::<f64>()
            / n;
        assert!(mae < 0.15, "mean absolute error {mae} too large");
    }

    #[test]
    fn estimate_at_subset_matches_full() {
        let g = caveman_graph(4, 6);
        let proto = LfGdpr::new(8.0).unwrap();
        let base = Xoshiro256pp::new(13);
        let view = proto.aggregate(&proto.collect_honest(&g, &base));
        let full = estimate_clustering(&view);
        let subset = estimate_clustering_at(&view, &[0, 5, 10]);
        assert_eq!(subset[0].to_bits(), full.cc[0].to_bits());
        assert_eq!(subset[1].to_bits(), full.cc[5].to_bits());
        assert_eq!(subset[2].to_bits(), full.cc[10].to_bits());
    }
}
