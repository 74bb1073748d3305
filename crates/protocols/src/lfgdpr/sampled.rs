//! Analytic-sampling mode for degree-centrality experiments at full paper
//! scale.
//!
//! Materializing the perturbed matrix is `O(N²)` bits; for Gplus
//! (N = 107,614) that is ~1.4 GB per run. But the degree-centrality gain
//! only needs the perturbed degrees *of the targets*, and under the
//! single-perturbation slot model each target's perturbed degree is an
//! exact sum of independent binomials:
//!
//! ```text
//! d̃_t = Binomial(d_t, p)                // true edges kept
//!      + Binomial(n − 1 − d_t, 1 − p)    // false genuine slots flipped on
//!      + Σ fake-slot contributions       // depends on the attack
//! ```
//!
//! Sampling these directly reproduces the estimator's exact distribution
//! (DESIGN.md §2) at `O(r)` cost per trial instead of `O(N²)`.
//! Cross-validated against the materialized pipeline in the integration
//! tests (`tests/sampled_vs_exact.rs`).

use ldp_mechanisms::sampling::sample_binomial;
use rand::Rng;

/// Degree-channel model of one population: `n` genuine users plus `m` fake
/// users, perturbation keep-probability `p`.
#[derive(Debug, Clone, Copy)]
pub struct SampledDegreeModel {
    /// Number of genuine users.
    pub n_genuine: usize,
    /// Number of fake users.
    pub m_fake: usize,
    /// RR keep probability of the adjacency channel.
    pub p_keep: f64,
}

impl SampledDegreeModel {
    /// Total population `N = n + m`.
    pub fn population(&self) -> usize {
        self.n_genuine + self.m_fake
    }

    /// Samples the genuine-slot part of a target's perturbed degree:
    /// `Binomial(d, p) + Binomial(n−1−d, 1−p)`. This part is *common* to
    /// the honest and attacked worlds (genuine users' randomness does not
    /// change), so the caller samples it once and reuses it.
    pub fn sample_genuine_slots<R: Rng>(&self, true_degree: usize, rng: &mut R) -> usize {
        let genuine_slots = self.n_genuine - 1;
        let kept = sample_binomial(true_degree, self.p_keep, rng);
        let flipped = sample_binomial(genuine_slots - true_degree, 1.0 - self.p_keep, rng);
        kept + flipped
    }

    /// Samples the fake-slot contribution in the honest world: every fake
    /// user perturbs an empty neighborhood, so each of the `m` slots flips
    /// on with probability `1 − p`.
    pub fn sample_fake_honest<R: Rng>(&self, rng: &mut R) -> usize {
        sample_binomial(self.m_fake, 1.0 - self.p_keep, rng)
    }

    /// Fake-slot contribution in the attacked world when crafted vectors
    /// bypass the mechanism (RVA/MGA): exactly the crafted edges.
    pub fn fake_crafted_unperturbed(&self, crafted_edges: usize) -> usize {
        assert!(
            crafted_edges <= self.m_fake,
            "more crafted edges than fake users"
        );
        crafted_edges
    }

    /// Samples the fake-slot contribution in the attacked world when fake
    /// users run the LDP perturbation over their crafted vectors (RNA):
    /// crafted edges survive w.p. `p`, unclaimed fake slots flip on w.p.
    /// `1 − p`. Independent of the honest world's fake randomness, exactly
    /// as in the materialized pipeline (the attacker redraws its noise).
    pub fn sample_fake_crafted_perturbed<R: Rng>(
        &self,
        crafted_edges: usize,
        rng: &mut R,
    ) -> usize {
        assert!(
            crafted_edges <= self.m_fake,
            "more crafted edges than fake users"
        );
        let crafted_kept = sample_binomial(crafted_edges, self.p_keep, rng);
        let fake_noise = sample_binomial(self.m_fake - crafted_edges, 1.0 - self.p_keep, rng);
        crafted_kept + fake_noise
    }

    /// Degree centrality from a sampled perturbed degree.
    pub fn centrality(&self, perturbed_degree: usize) -> f64 {
        let n = self.population();
        if n < 2 {
            return 0.0;
        }
        perturbed_degree as f64 / (n as f64 - 1.0)
    }

    /// Expected perturbed degree of a genuine node before any attack.
    pub fn expected_before(&self, true_degree: usize) -> f64 {
        let p = self.p_keep;
        let genuine_slots = (self.n_genuine - 1) as f64;
        true_degree as f64 * p
            + (genuine_slots - true_degree as f64) * (1.0 - p)
            + self.m_fake as f64 * (1.0 - p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_graph::Xoshiro256pp;

    fn model() -> SampledDegreeModel {
        SampledDegreeModel {
            n_genuine: 900,
            m_fake: 100,
            p_keep: 0.85,
        }
    }

    #[test]
    fn before_matches_expectation() {
        let m = model();
        let mut rng = Xoshiro256pp::new(1);
        let trials = 4_000;
        let d = 40;
        let mean: f64 = (0..trials)
            .map(|_| (m.sample_genuine_slots(d, &mut rng) + m.sample_fake_honest(&mut rng)) as f64)
            .sum::<f64>()
            / trials as f64;
        let expected = m.expected_before(d);
        assert!(
            (mean - expected).abs() < 0.02 * expected,
            "mean {mean} vs {expected}"
        );
    }

    #[test]
    fn crafted_edges_shift_the_degree() {
        let m = model();
        let mut rng = Xoshiro256pp::new(2);
        let trials = 4_000;
        let d = 40;
        let crafted = 80;
        let mean_after: f64 = (0..trials)
            .map(|_| {
                (m.sample_genuine_slots(d, &mut rng) + m.fake_crafted_unperturbed(crafted)) as f64
            })
            .sum::<f64>()
            / trials as f64;
        // After: fake noise replaced by exactly `crafted` deterministic ones.
        let expected = m.expected_before(d) - m.m_fake as f64 * (1.0 - m.p_keep) + crafted as f64;
        assert!(
            (mean_after - expected).abs() < 0.02 * expected,
            "mean {mean_after} vs {expected}"
        );
    }

    #[test]
    fn perturbed_crafting_attenuates_by_p() {
        let m = model();
        let mut rng = Xoshiro256pp::new(3);
        let trials = 6_000;
        let d = 10;
        let crafted = 50;
        let mean: f64 = (0..trials)
            .map(|_| {
                (m.sample_genuine_slots(d, &mut rng)
                    + m.sample_fake_crafted_perturbed(crafted, &mut rng)) as f64
            })
            .sum::<f64>()
            / trials as f64;
        let expected = d as f64 * m.p_keep
            + (899.0 - d as f64) * 0.15
            + crafted as f64 * m.p_keep
            + 50.0 * 0.15;
        assert!(
            (mean - expected).abs() < 0.03 * expected,
            "mean {mean} vs {expected}"
        );
    }

    #[test]
    fn centrality_normalization() {
        let m = model();
        assert!((m.centrality(999) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "more crafted edges")]
    fn crafted_edges_bounded_by_fakes() {
        let m = model();
        let mut rng = Xoshiro256pp::new(4);
        m.sample_fake_crafted_perturbed(101, &mut rng);
    }
}
