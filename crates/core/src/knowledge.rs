//! The attacker's background knowledge (paper §IV-A).
//!
//! The perturbation runs on the user side, so the attacker knows the code
//! and its parameters: ε₁ (adjacency), ε₂ (degree), the degree domain, and
//! aggregate statistics such as the average degree of the perturbed graph.
//! From these it derives the per-fake-user *connection budget* — the number
//! of crafted edges that keeps a fake node's degree near the perturbed
//! average so it does not stand out (§V, §VI).

use ldp_protocols::{LfGdpr, PublicParams};

/// Everything the attacker is assumed to know.
#[derive(Debug, Clone, Copy)]
pub struct AttackerKnowledge {
    /// RR keep probability `p` of the adjacency channel (from ε₁).
    pub p_keep: f64,
    /// Laplace scale of the degree channel (from ε₂).
    pub degree_noise_scale: f64,
    /// Total population `N = n + m`.
    pub population: usize,
    /// Average degree of the *perturbed* graph, `d̃`.
    pub avg_perturbed_degree: f64,
    /// True average degree of the original graph (published statistic).
    pub avg_true_degree: f64,
}

impl AttackerKnowledge {
    /// Derives the knowledge from protocol parameters and the published
    /// average degree: `d̃ = p·d̄ + (1−p)(N−1−d̄)`.
    pub fn derive(protocol: &LfGdpr, population: usize, avg_true_degree: f64) -> Self {
        use ldp_protocols::GraphLdpProtocol;
        Self::from_public(
            protocol.public_params(population, avg_true_degree),
            population,
            avg_true_degree,
        )
    }

    /// Derives the knowledge from a protocol's published parameters — the
    /// protocol-agnostic constructor the scenario engine uses (any
    /// [`ldp_protocols::GraphLdpProtocol`] supplies its
    /// [`PublicParams`]).
    pub fn from_public(params: PublicParams, population: usize, avg_true_degree: f64) -> Self {
        AttackerKnowledge {
            p_keep: params.p_keep,
            degree_noise_scale: params.degree_noise_scale,
            population,
            avg_perturbed_degree: params.avg_perturbed_degree,
            avg_true_degree,
        }
    }

    /// The connection budget per fake user against LDPGen: the protocol
    /// has no RR channel, so the cap that avoids trivial detection is the
    /// published *true* average degree `⌊d̄⌋` (at least 1).
    pub fn ldpgen_budget(&self) -> usize {
        self.avg_true_degree.floor().max(1.0) as usize
    }

    /// The connection budget per fake user: `⌊d̃⌋` crafted edges keep the
    /// fake node's perturbed-graph degree indistinguishable from an honest
    /// node's (paper §V "Random Value Attack", §VI "Maximal Gain Attack").
    /// Capped at `N − 1` and at least 1 so degenerate configurations still
    /// attack.
    pub fn connection_budget(&self) -> usize {
        let cap = self.population.saturating_sub(1);
        (self.avg_perturbed_degree.floor() as usize).clamp(1, cap.max(1))
    }

    /// Degree-space upper bound `N − 1` (RVA samples its crafted degree
    /// uniformly from `[0, N−1]`).
    pub fn degree_domain(&self) -> usize {
        self.population.saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn knowledge(epsilon: f64, population: usize, avg_degree: f64) -> AttackerKnowledge {
        let protocol = LfGdpr::new(epsilon).unwrap();
        AttackerKnowledge::derive(&protocol, population, avg_degree)
    }

    #[test]
    fn perturbed_degree_grows_as_epsilon_shrinks() {
        let low_eps = knowledge(1.0, 4039, 43.7);
        let high_eps = knowledge(8.0, 4039, 43.7);
        assert!(
            low_eps.avg_perturbed_degree > high_eps.avg_perturbed_degree,
            "more noise should mean a denser perturbed graph"
        );
        assert!(low_eps.connection_budget() > high_eps.connection_budget());
    }

    #[test]
    fn budget_is_floor_of_d_tilde() {
        let k = knowledge(4.0, 1000, 20.0);
        assert_eq!(
            k.connection_budget(),
            k.avg_perturbed_degree.floor() as usize
        );
    }

    #[test]
    fn budget_capped_at_population() {
        let k = AttackerKnowledge {
            p_keep: 0.6,
            degree_noise_scale: 1.0,
            population: 10,
            avg_perturbed_degree: 50.0,
            avg_true_degree: 5.0,
        };
        assert_eq!(k.connection_budget(), 9);
    }

    #[test]
    fn degree_domain_is_population_minus_one() {
        assert_eq!(knowledge(2.0, 500, 12.0).degree_domain(), 499);
    }
}
