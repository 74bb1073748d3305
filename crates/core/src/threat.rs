//! The threat model of paper §IV-A.
//!
//! `n` genuine users, `m = ⌊βn⌋` fake users under attacker control (ids
//! `n..n+m`, appended after the genuine population), and `r = ⌊γn⌋`
//! attacker-chosen target nodes among the genuine users.

use ldp_graph::CsrGraph;
use ldp_mechanisms::sampling::sample_distinct;
use rand::Rng;

/// How the attacker picks its targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetSelection {
    /// Uniformly random genuine nodes (the paper's experimental setting).
    UniformRandom,
}

/// The attacker's population-level resources.
#[derive(Debug, Clone)]
pub struct ThreatModel {
    /// Number of genuine users `n`.
    pub n_genuine: usize,
    /// Number of fake users `m` the attacker controls.
    pub m_fake: usize,
    /// Target node ids (all `< n_genuine`), sorted ascending.
    pub targets: Vec<usize>,
}

impl ThreatModel {
    /// Builds the threat model from the paper's β/γ fractions. `m` and `r`
    /// are `max(1, ⌊fraction·n⌋)` so tiny test graphs still have an attack
    /// to run.
    pub fn from_fractions<R: Rng>(
        graph: &CsrGraph,
        beta: f64,
        gamma: f64,
        selection: TargetSelection,
        rng: &mut R,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&beta),
            "beta = {beta} must be in [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&gamma),
            "gamma = {gamma} must be in [0, 1]"
        );
        let n = graph.num_nodes();
        let m = ((beta * n as f64).floor() as usize).max(1);
        let r = ((gamma * n as f64).floor() as usize).clamp(1, n);
        let targets = match selection {
            TargetSelection::UniformRandom => sample_distinct(n, r, rng),
        };
        ThreatModel {
            n_genuine: n,
            m_fake: m,
            targets,
        }
    }

    /// Builds an explicit threat model (tests, hand-crafted scenarios).
    ///
    /// # Panics
    /// Panics if a target id is not a genuine user.
    pub fn explicit(n_genuine: usize, m_fake: usize, mut targets: Vec<usize>) -> Self {
        for &t in &targets {
            assert!(
                t < n_genuine,
                "target {t} is not a genuine user (n = {n_genuine})"
            );
        }
        targets.sort_unstable();
        targets.dedup();
        ThreatModel {
            n_genuine,
            m_fake,
            targets,
        }
    }

    /// Total population `N = n + m`.
    pub fn population(&self) -> usize {
        self.n_genuine + self.m_fake
    }

    /// Number of targets `r`.
    pub fn num_targets(&self) -> usize {
        self.targets.len()
    }

    /// The ids of the fake users: `n..n+m`.
    pub fn fake_ids(&self) -> std::ops::Range<usize> {
        self.n_genuine..self.population()
    }

    /// The β this model realizes.
    pub fn beta(&self) -> f64 {
        self.m_fake as f64 / self.n_genuine as f64
    }

    /// The γ this model realizes.
    pub fn gamma(&self) -> f64 {
        self.targets.len() as f64 / self.n_genuine as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_graph::generate::star_graph;
    use ldp_graph::Xoshiro256pp;

    #[test]
    fn fractions_determine_sizes() {
        let g = star_graph(1000);
        let mut rng = Xoshiro256pp::new(1);
        let t =
            ThreatModel::from_fractions(&g, 0.05, 0.01, TargetSelection::UniformRandom, &mut rng);
        assert_eq!(t.n_genuine, 1000);
        assert_eq!(t.m_fake, 50);
        assert_eq!(t.num_targets(), 10);
        assert_eq!(t.population(), 1050);
        assert_eq!(t.fake_ids(), 1000..1050);
        assert!((t.beta() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn minimums_enforced_on_tiny_graphs() {
        let g = star_graph(20);
        let mut rng = Xoshiro256pp::new(2);
        let t =
            ThreatModel::from_fractions(&g, 0.001, 0.001, TargetSelection::UniformRandom, &mut rng);
        assert_eq!(t.m_fake, 1);
        assert_eq!(t.num_targets(), 1);
    }

    #[test]
    fn targets_are_sorted_distinct_genuine() {
        let g = star_graph(200);
        let mut rng = Xoshiro256pp::new(5);
        let t =
            ThreatModel::from_fractions(&g, 0.05, 0.1, TargetSelection::UniformRandom, &mut rng);
        assert!(t.targets.windows(2).all(|w| w[0] < w[1]));
        assert!(t.targets.iter().all(|&x| x < 200));
    }

    #[test]
    #[should_panic(expected = "not a genuine user")]
    fn explicit_rejects_fake_targets() {
        ThreatModel::explicit(10, 2, vec![10]);
    }
}
