//! Property-based invariants spanning the workspace (proptest).

use graph_ldp_poisoning::graph::generate::erdos_renyi_gnm;
use graph_ldp_poisoning::graph::metrics::{local_clustering_coefficients, triangles_per_node};
use graph_ldp_poisoning::prelude::*;
use graph_ldp_poisoning::protocols::lfgdpr::{calibrate_triangles, expected_perturbed_triangles};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CSR construction from arbitrary edge lists upholds its invariants:
    /// symmetry, sortedness, no self-loops, degree sum = 2E.
    #[test]
    fn csr_invariants(edges in proptest::collection::vec((0u32..40, 0u32..40), 0..200)) {
        let g = CsrGraph::from_edges(40, &edges).unwrap();
        let mut degree_sum = 0usize;
        for u in 0..40 {
            let nbrs = g.neighbors(u);
            degree_sum += nbrs.len();
            prop_assert!(nbrs.windows(2).all(|w| w[0] < w[1]), "row {u} not strictly sorted");
            for &v in nbrs {
                prop_assert!(v as usize != u, "self-loop at {u}");
                prop_assert!(g.has_edge(v as usize, u), "asymmetric edge ({u},{v})");
            }
        }
        prop_assert_eq!(degree_sum, 2 * g.num_edges());
    }

    /// BitSet agrees with a reference HashSet model under arbitrary
    /// set/clear/flip programs.
    #[test]
    fn bitset_matches_reference_model(ops in proptest::collection::vec((0u8..3, 0usize..150), 0..300)) {
        let mut bits = BitSet::new(150);
        let mut model = std::collections::HashSet::new();
        for (op, i) in ops {
            match op {
                0 => { bits.set(i); model.insert(i); }
                1 => { bits.clear(i); model.remove(&i); }
                _ => { bits.flip(i); if !model.remove(&i) { model.insert(i); } }
            }
        }
        prop_assert_eq!(bits.count_ones(), model.len());
        let mut expect: Vec<usize> = model.into_iter().collect();
        expect.sort_unstable();
        prop_assert_eq!(bits.to_indices(), expect);
    }

    /// Randomized-response count calibration exactly inverts the forward
    /// expectation for any keep probability in (½, 1).
    #[test]
    fn rr_calibration_inverts(p in 0.51f64..0.99, true_ones in 0f64..500.0, extra in 1f64..500.0) {
        let rr = RandomizedResponse::from_keep_probability(p).unwrap();
        let n = true_ones + extra;
        let observed = rr.expected_observed(true_ones, n);
        let recovered = rr.calibrate_count(observed, n);
        prop_assert!((recovered - true_ones).abs() < 1e-6);
    }

    /// Triangle calibration R(·) inverts its forward model for arbitrary
    /// parameters (Eq. 16).
    #[test]
    fn triangle_calibration_inverts(
        tau in 0f64..1000.0,
        d in 2f64..100.0,
        p in 0.55f64..0.99,
        theta in 0f64..0.5,
    ) {
        let n = 500.0;
        let tilde = expected_perturbed_triangles(tau, d, n, p, theta);
        let recovered = calibrate_triangles(tilde, d, n, p, theta);
        prop_assert!((recovered - tau).abs() < 1e-6, "recovered {} for tau {}", recovered, tau);
    }

    /// Local clustering coefficients always lie in [0, 1] on real graphs,
    /// and triangle counts respect the wedge bound τ ≤ C(d, 2).
    #[test]
    fn clustering_bounds(seed in 0u64..500, m in 1usize..300) {
        let mut rng = Xoshiro256pp::new(seed);
        let g = erdos_renyi_gnm(40, m.min(40 * 39 / 2), &mut rng).unwrap();
        let cc = local_clustering_coefficients(&g);
        let tau = triangles_per_node(&g);
        for u in 0..g.num_nodes() {
            prop_assert!((0.0..=1.0).contains(&cc[u]), "cc[{}] = {}", u, cc[u]);
            let d = g.degree(u) as u64;
            prop_assert!(tau[u] <= d * d.saturating_sub(1) / 2);
        }
    }

    /// The overall gain is always non-negative and zero when before ==
    /// after.
    #[test]
    fn gain_nonnegative(values in proptest::collection::vec(-10f64..10.0, 1..50)) {
        let outcome = AttackOutcome::new(values.clone(), values.clone());
        prop_assert_eq!(outcome.gain(), 0.0);
        let shifted: Vec<f64> = values.iter().map(|v| v + 1.0).collect();
        let outcome = AttackOutcome::new(values, shifted);
        prop_assert!(outcome.gain() >= 0.0);
    }

    /// Theorem 1 is bounded by the trivial maximum: every fake user adding
    /// one full edge to every target, i.e. m·r/(N−1).
    #[test]
    fn theorem1_bounded(m in 1usize..200, r in 1usize..200, extra in 2usize..2000, d in 1f64..500.0) {
        let population = m + r + extra;
        let gain = theorem1_degree_gain(m, r, population, d);
        let bound = m as f64 * r as f64 / (population as f64 - 1.0);
        prop_assert!(gain <= bound + 1e-9);
    }

    /// Crafted MGA reports never exceed the connection budget and always
    /// include target bits first.
    #[test]
    fn mga_reports_respect_budget(seed in 0u64..200, n in 50usize..150, m in 1usize..10) {
        let graph = Dataset::Facebook.generate_with_nodes(n.max(60), seed);
        let protocol = LfGdpr::new(4.0).unwrap();
        let threat = ThreatModel::explicit(graph.num_nodes(), m, vec![1, 2, 3]);
        let knowledge = AttackerKnowledge::derive(&protocol, threat.population(), graph.average_degree());
        let mut rng = Xoshiro256pp::new(seed);
        let reports = Mga::default().craft_adjacency(
            &protocol,
            TargetMetric::DegreeCentrality,
            &threat,
            &knowledge,
            &mut rng,
        );
        let budget = knowledge.connection_budget().min(threat.population() - 1);
        for r in &reports {
            prop_assert!(r.bit_degree() <= budget);
        }
    }
}
