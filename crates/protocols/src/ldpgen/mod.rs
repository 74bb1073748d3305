//! LDPGen (Qin et al., CCS'17): synthetic decentralized social graphs
//! under LDP.
//!
//! The protocol never collects adjacency bits. Instead:
//!
//! 1. the server assigns all users to `k₀` random initial groups;
//! 2. every user reports a Laplace-noisy *degree vector* — how many of
//!    their neighbors fall in each group (budget ε/2);
//! 3. the server k-means-clusters users by their reported vectors into `k₁`
//!    refined groups;
//! 4. users report noisy degree vectors toward the refined groups (budget
//!    ε/2), and the server clusters once more;
//! 5. the server estimates the edge mass between every group pair and
//!    synthesizes a graph by Chung–Lu sampling within/between groups.
//!
//! Relative to the original, the cluster-count selection is a fixed
//! heuristic (`k₁ ≈ √d̄`, clamped) rather than the paper's
//! information-theoretic optimizer, and the generator is block Chung–Lu
//! rather than full BTER; the attack surface — crafted degree vectors
//! biasing grouping and edge mass — is identical. DESIGN.md §2 records
//! this substitution.

mod cluster;
mod synthesis;

pub use cluster::{kmeans, KMeansResult};
pub use synthesis::synthesize_block_graph;

use ldp_graph::{CsrGraph, Xoshiro256pp};
use ldp_mechanisms::{sampling::sample_laplace_vec, LaplaceMechanism, MechanismError};
use rand::Rng;
use std::convert::Infallible;

pub use crate::report::DegreeVector;

/// The LDPGen protocol instance.
#[derive(Debug, Clone, Copy)]
pub struct LdpGen {
    epsilon: f64,
    k0: usize,
}

/// Server-side state after both phases: final grouping and per-user
/// reported degree vectors toward the final groups.
#[derive(Debug, Clone)]
pub struct LdpGenAggregate {
    /// Final group id of every user.
    pub groups: Vec<usize>,
    /// Number of final groups.
    pub num_groups: usize,
    /// Phase-2 degree vectors (one per user, toward the final groups).
    pub degree_vectors: Vec<DegreeVector>,
}

impl LdpGen {
    /// Creates the protocol with total budget ε and `k0` initial groups.
    ///
    /// # Errors
    /// Returns an error for non-positive ε or `k0 == 0`.
    pub fn new(epsilon: f64, k0: usize) -> Result<Self, MechanismError> {
        if !(epsilon.is_finite() && epsilon > 0.0) {
            return Err(MechanismError::InvalidBudget(epsilon));
        }
        if k0 == 0 {
            return Err(MechanismError::InvalidParameter("k0 must be >= 1".into()));
        }
        Ok(LdpGen { epsilon, k0 })
    }

    /// Default configuration used in the experiments: ε with `k0 = 8`.
    ///
    /// # Errors
    /// Propagates invalid-ε errors.
    pub fn with_defaults(epsilon: f64) -> Result<Self, MechanismError> {
        Self::new(epsilon, 8)
    }

    /// Total privacy budget.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Initial group count `k0`.
    pub fn k0(&self) -> usize {
        self.k0
    }

    /// Per-phase Laplace mechanism: the degree vector has L1 sensitivity 1
    /// under edge-LDP (one edge moves one unit of count), and each of the
    /// two phases spends ε/2.
    fn phase_mechanism(&self) -> LaplaceMechanism {
        LaplaceMechanism::new(1.0, self.epsilon / 2.0).expect("validated at construction")
    }

    /// The honest degree vector of `node` toward `groups` (no noise).
    pub fn true_degree_vector(
        graph: &CsrGraph,
        node: usize,
        groups: &[usize],
        num_groups: usize,
    ) -> DegreeVector {
        let mut v = vec![0.0; num_groups];
        for &nb in graph.neighbors(node) {
            v[groups[nb as usize]] += 1.0;
        }
        v
    }

    /// One user's honest noisy report toward the given grouping.
    pub fn honest_degree_vector<R: Rng>(
        &self,
        graph: &CsrGraph,
        node: usize,
        groups: &[usize],
        num_groups: usize,
        rng: &mut R,
    ) -> DegreeVector {
        let mut v = Self::true_degree_vector(graph, node, groups, num_groups);
        let mech = self.phase_mechanism();
        sample_laplace_vec(&mut v, mech.scale(), rng);
        // Degrees cannot be negative; LDPGen post-processes to zero.
        for x in &mut v {
            *x = x.max(0.0);
        }
        v
    }

    /// Runs both phases over honest users, with optional crafted reports
    /// replacing the tail `crafted.len()` users' uploads in each phase
    /// (fake users — the attack entry point; return no vectors for the
    /// honest protocol). The crafting closure receives the phase, the
    /// current grouping and the group count, and returns one degree vector
    /// per fake user.
    ///
    /// # Errors
    /// The first error the crafting closure returns; the run stops there.
    ///
    /// # Panics
    /// Panics if the closure returns more vectors than `graph` has users,
    /// or a vector whose length is not the phase's group count.
    pub fn aggregate_with_crafted<F, E>(
        &self,
        graph: &CsrGraph,
        base_rng: &Xoshiro256pp,
        mut craft: F,
    ) -> Result<LdpGenAggregate, E>
    where
        F: FnMut(/*phase*/ usize, &[usize], usize) -> Result<Vec<DegreeVector>, E>,
    {
        // Phase 1: random initial grouping.
        let n = graph.num_nodes();
        let mut seed_rng = base_rng.derive(0xA11);
        let groups0: Vec<usize> = (0..n).map(|_| seed_rng.gen_range(0..self.k0)).collect();
        let crafted1 = craft(1, &groups0, self.k0)?;
        let vectors1 = self.collect_phase(graph, base_rng, 1, &groups0, self.k0, crafted1);

        // Refined cluster count: k1 ≈ √(average reported degree), clamped.
        let avg_degree: f64 =
            vectors1.iter().map(|v| v.iter().sum::<f64>()).sum::<f64>() / n.max(1) as f64;
        let k1 = (avg_degree.max(1.0).sqrt().round() as usize)
            .clamp(2, 32)
            .min(n.max(2));

        let mut kmeans_rng = base_rng.derive(0xB22);
        let phase1 = cluster::kmeans(&vectors1, k1, 25, &mut kmeans_rng);

        // Phase 2: report toward refined groups, cluster once more.
        let crafted2 = craft(2, &phase1.assignment, k1)?;
        let vectors2 = self.collect_phase(graph, base_rng, 2, &phase1.assignment, k1, crafted2);
        let mut kmeans_rng2 = base_rng.derive(0xC33);
        let phase2 = cluster::kmeans(&vectors2, k1, 25, &mut kmeans_rng2);

        Ok(LdpGenAggregate {
            groups: phase2.assignment,
            num_groups: k1,
            degree_vectors: vectors2,
        })
    }

    /// Collects one phase's degree vectors: honest users first (per-node
    /// derived streams), then the crafted tail verbatim.
    fn collect_phase(
        &self,
        graph: &CsrGraph,
        base_rng: &Xoshiro256pp,
        phase: usize,
        groups: &[usize],
        num_groups: usize,
        crafted: Vec<DegreeVector>,
    ) -> Vec<DegreeVector> {
        let n = graph.num_nodes();
        assert!(
            crafted.len() <= n,
            "{} crafted vectors overrun a population of {n}",
            crafted.len()
        );
        let honest_count = n - crafted.len();
        let mut vectors: Vec<DegreeVector> = (0..honest_count)
            .map(|node| {
                let mut rng = base_rng.derive((phase as u64) << 32 | node as u64);
                self.honest_degree_vector(graph, node, groups, num_groups, &mut rng)
            })
            .collect();
        for v in crafted {
            assert_eq!(v.len(), num_groups, "crafted vector has wrong group count");
            vectors.push(v);
        }
        vectors
    }

    /// The honest protocol: aggregate without any crafted reports.
    pub fn aggregate(&self, graph: &CsrGraph, base_rng: &Xoshiro256pp) -> LdpGenAggregate {
        let Ok(aggregate) =
            self.aggregate_with_crafted(graph, base_rng, |_, _, _| Ok::<_, Infallible>(Vec::new()));
        aggregate
    }

    /// Synthesizes the output graph from an aggregate. Deterministic in
    /// `rng`.
    pub fn synthesize<R: Rng>(&self, aggregate: &LdpGenAggregate, rng: &mut R) -> CsrGraph {
        synthesis::synthesize_block_graph(aggregate, rng)
    }

    /// Convenience: full honest pipeline from graph to synthetic graph —
    /// the honest world the scenario engine builds from the same `base_rng`.
    pub fn run(&self, graph: &CsrGraph, base_rng: &Xoshiro256pp) -> CsrGraph {
        let aggregate = self.aggregate(graph, base_rng);
        let mut rng = base_rng.derive(crate::protocol::STREAM_LDPGEN_SYNTH);
        self.synthesize(&aggregate, &mut rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_graph::generate::caveman_graph;

    #[test]
    fn construction_validates() {
        assert!(LdpGen::new(0.0, 4).is_err());
        assert!(LdpGen::new(1.0, 0).is_err());
        assert!(LdpGen::new(1.0, 4).is_ok());
    }

    #[test]
    fn true_degree_vector_counts_neighbors_per_group() {
        let g = caveman_graph(2, 4);
        let groups: Vec<usize> = (0..8).map(|u| u / 4).collect();
        let v = LdpGen::true_degree_vector(&g, 0, &groups, 2);
        // Node 0: 3 intra-clique neighbors in group 0, 1 ring edge to group 1.
        assert_eq!(v[0], 3.0);
        assert_eq!(v[1], 1.0);
    }

    #[test]
    fn honest_vector_is_noisy_but_nonnegative() {
        let g = caveman_graph(2, 4);
        let groups: Vec<usize> = (0..8).map(|u| u / 4).collect();
        let proto = LdpGen::new(2.0, 2).unwrap();
        let mut rng = Xoshiro256pp::new(5);
        for node in 0..8 {
            let v = proto.honest_degree_vector(&g, node, &groups, 2, &mut rng);
            assert!(v.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    #[should_panic(expected = "9 crafted vectors overrun a population of 8")]
    fn crafted_tail_overrunning_the_population_panics() {
        let g = caveman_graph(2, 4);
        let proto = LdpGen::new(2.0, 2).unwrap();
        let _ = proto.aggregate_with_crafted(&g, &Xoshiro256pp::new(3), |_, _, k| {
            Ok::<_, Infallible>(vec![vec![0.0; k]; 9])
        });
    }

    #[test]
    fn synthetic_graph_matches_scale() {
        let g = caveman_graph(6, 8);
        let proto = LdpGen::with_defaults(6.0).unwrap();
        let base = Xoshiro256pp::new(9);
        let synth = proto.run(&g, &base);
        assert_eq!(synth.num_nodes(), g.num_nodes());
        let (e_true, e_synth) = (g.num_edges() as f64, synth.num_edges() as f64);
        assert!(
            (e_synth - e_true).abs() / e_true < 0.5,
            "synthetic edges {e_synth} should be within 50% of {e_true}"
        );
    }

    #[test]
    fn run_is_the_engines_honest_world() {
        use crate::protocol::{GraphLdpProtocol, ServerView};
        let g = caveman_graph(6, 8);
        let proto = LdpGen::with_defaults(6.0).unwrap();
        let base = Xoshiro256pp::new(9);
        let worlds = proto.run_worlds(&g, &base, 0, None, None, None).unwrap();
        let ServerView::Synthetic(honest) = worlds.honest else {
            panic!("LDPGen's honest view is a synthetic graph");
        };
        assert_eq!(proto.run(&g, &base), honest);
    }

    #[test]
    fn pipeline_is_deterministic() {
        let g = caveman_graph(4, 6);
        let proto = LdpGen::with_defaults(4.0).unwrap();
        let base = Xoshiro256pp::new(3);
        let s1 = proto.run(&g, &base);
        let s2 = proto.run(&g, &base);
        assert_eq!(s1, s2);
    }

    #[test]
    fn crafted_vectors_enter_the_aggregate() {
        let g = caveman_graph(4, 6);
        let proto = LdpGen::with_defaults(4.0).unwrap();
        let base = Xoshiro256pp::new(4);
        let agg = proto
            .aggregate_with_crafted(&g, &base, |_, _, num_groups| {
                Ok::<_, Infallible>(vec![vec![99.0; num_groups]; 3])
            })
            .unwrap();
        let n = g.num_nodes();
        for v in &agg.degree_vectors[n - 3..] {
            assert!(v.iter().all(|&x| x == 99.0));
        }
    }
}
