//! LF-GDPR: local perturbation and server-side aggregation.

mod calibration;
mod modularity;
mod sampled;
mod view;

pub use calibration::{
    calibrate_triangles, estimate_clustering, estimate_clustering_at, estimate_clustering_at_with,
    estimate_clustering_with, expected_perturbed_triangles, ClusteringEstimate, DegreeSource,
};
pub use modularity::estimate_modularity;
pub use sampled::SampledDegreeModel;
pub use view::PerturbedView;

use crate::report::AdjacencyReport;
use ldp_graph::runtime::{default_threads, parallel_map, threads_for_work};
use ldp_graph::CsrGraph;
use ldp_mechanisms::{FlipSampler, LaplaceMechanism, MechanismError, RandomizedResponse};
use rand::Rng;

/// The LF-GDPR protocol instance: the two local mechanisms of a total
/// budget ε, each spending ε/2.
#[derive(Debug, Clone, Copy)]
pub struct LfGdpr {
    rr: RandomizedResponse,
    laplace: LaplaceMechanism,
}

impl LfGdpr {
    /// Creates the protocol for a total budget ε, split evenly:
    /// ε₁ = ε₂ = ε/2 (the paper reports only total ε; see DESIGN.md §4).
    ///
    /// # Errors
    /// Returns [`MechanismError::InvalidBudget`] carrying ε unless ε is
    /// positive and finite.
    pub fn new(epsilon: f64) -> Result<Self, MechanismError> {
        if !(epsilon.is_finite() && epsilon > 0.0) {
            return Err(MechanismError::InvalidBudget(epsilon));
        }
        Ok(LfGdpr {
            rr: RandomizedResponse::new(epsilon * 0.5)?,
            // Degree sensitivity is 1 under edge-LDP.
            laplace: LaplaceMechanism::new(1.0, epsilon * 0.5)?,
        })
    }

    /// The randomized-response mechanism of the adjacency channel.
    pub fn rr(&self) -> RandomizedResponse {
        self.rr
    }

    /// The Laplace mechanism of the degree channel.
    pub fn laplace(&self) -> LaplaceMechanism {
        self.laplace
    }

    /// Keep probability `p = e^{ε₁}/(1+e^{ε₁})` of the adjacency channel.
    pub fn p_keep(&self) -> f64 {
        self.rr.p_keep()
    }

    /// Produces the honest report of `node` in `graph`. It prepares the
    /// RR flip sampler for this one report; [`Self::collect_honest`]
    /// prepares it once for the whole population.
    pub fn honest_report<R: Rng>(
        &self,
        graph: &CsrGraph,
        node: usize,
        rng: &mut R,
    ) -> AdjacencyReport {
        self.report_with(&self.rr.flip_sampler(), graph, node, rng)
    }

    /// [`Self::honest_report`] with a prepared flip sampler of `self.rr`.
    fn report_with<R: Rng>(
        &self,
        flips: &FlipSampler,
        graph: &CsrGraph,
        node: usize,
        rng: &mut R,
    ) -> AdjacencyReport {
        let truth = graph.adjacency_bit_vector(node);
        let bits = flips.perturb_bitset(&truth, Some(node), rng);
        let max_degree = (graph.num_nodes() - 1) as f64;
        let degree = self
            .laplace
            .perturb_degree(graph.degree(node) as f64, max_degree, rng);
        AdjacencyReport::new(bits, degree)
    }

    /// Collects honest reports from every node of `graph`. Each node draws
    /// from its own derived RNG stream, so a node's randomness does not
    /// depend on how many other nodes report — the common-random-numbers
    /// device the attack pipeline uses to isolate attack effects.
    ///
    /// The per-node streams also make the loop order-free, so large
    /// populations are collected in parallel; output is bit-identical at
    /// any thread count.
    pub fn collect_honest(
        &self,
        graph: &CsrGraph,
        base_rng: &ldp_graph::Xoshiro256pp,
    ) -> Vec<AdjacencyReport> {
        let n = graph.num_nodes();
        // Perturbation samples per adjacency bit, so the job is ~n² ops.
        let threads = threads_for_work(n.saturating_mul(n), default_threads());
        let flips = self.rr.flip_sampler();
        parallel_map((0..n).collect(), threads, |&node| {
            let mut rng = base_rng.derive(node as u64);
            self.report_with(&flips, graph, node, &mut rng)
        })
    }

    /// Aggregates reports into the server-side perturbed view (an entry
    /// onto [`crate::ingest::fold_reports`]).
    ///
    /// # Panics
    /// Panics if a report spans a population other than the number of
    /// reports.
    pub fn aggregate(&self, reports: &[AdjacencyReport]) -> PerturbedView {
        PerturbedView::from_reports(reports, self.rr)
    }

    /// Expected average perturbed degree for a graph of `n` nodes with true
    /// average degree `avg_degree`:
    /// `d̃ = p·d̄ + (1−p)(N−1−d̄)`.
    ///
    /// The paper's attacker computes this from public quantities (ε and the
    /// published average degree) to size its per-fake-user connection
    /// budget (§V, §VI).
    pub fn expected_perturbed_degree(&self, n: usize, avg_degree: f64) -> f64 {
        let p = self.p_keep();
        let others = (n as f64 - 1.0).max(0.0);
        p * avg_degree + (1.0 - p) * (others - avg_degree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_graph::generate::complete_graph;
    use ldp_graph::Xoshiro256pp;

    #[test]
    fn construction_from_total_budget() {
        for epsilon in [0.5, 1.0, 4.0, 7.3] {
            let proto = LfGdpr::new(epsilon).unwrap();
            let rr = RandomizedResponse::new(epsilon * 0.5).unwrap();
            let laplace = LaplaceMechanism::new(1.0, epsilon * 0.5).unwrap();
            assert_eq!(proto.rr().p_keep().to_bits(), rr.p_keep().to_bits());
            assert_eq!(proto.laplace().scale().to_bits(), laplace.scale().to_bits());
        }
        for epsilon in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            match LfGdpr::new(epsilon) {
                Err(MechanismError::InvalidBudget(got)) => {
                    assert_eq!(got.to_bits(), epsilon.to_bits());
                }
                other => panic!("ε = {epsilon} gave {other:?}"),
            }
        }
    }

    #[test]
    fn honest_report_shape() {
        let g = complete_graph(20);
        let proto = LfGdpr::new(6.0).unwrap();
        let mut rng = Xoshiro256pp::new(1);
        let r = proto.honest_report(&g, 3, &mut rng);
        assert_eq!(r.population(), 20);
        assert!(!r.bits.get(3), "self slot must be clear");
        assert!((0.0..=19.0).contains(&r.degree));
    }

    #[test]
    fn collect_honest_is_per_node_deterministic() {
        let g = complete_graph(10);
        let proto = LfGdpr::new(4.0).unwrap();
        let base = Xoshiro256pp::new(7);
        let a = proto.collect_honest(&g, &base);
        let b = proto.collect_honest(&g, &base);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.bits, y.bits);
            assert_eq!(x.degree, y.degree);
        }
    }

    #[test]
    fn expected_perturbed_degree_formula() {
        let proto = LfGdpr::new(4.0).unwrap();
        let p = proto.p_keep();
        let n = 101;
        let d = 10.0;
        let expected = p * d + (1.0 - p) * (100.0 - d);
        assert!((proto.expected_perturbed_degree(n, d) - expected).abs() < 1e-12);
    }

    #[test]
    fn reported_degree_tracks_truth_at_high_epsilon() {
        let g = complete_graph(30);
        let proto = LfGdpr::new(16.0).unwrap();
        let base = Xoshiro256pp::new(3);
        let reports = proto.collect_honest(&g, &base);
        for r in &reports {
            assert!(
                (r.degree - 29.0).abs() <= 2.0,
                "degree {} should be ~29",
                r.degree
            );
        }
    }
}
