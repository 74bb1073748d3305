//! Degree-distribution analysis.
//!
//! The dataset stand-ins (DESIGN.md §2) claim to match the paper's graphs
//! on degree *structure*, not just averages. The degree Gini coefficient
//! makes that claim checkable (Table II reports it).

use crate::csr::CsrGraph;

/// Gini coefficient of the degree sequence — 0 for perfectly regular
/// graphs, approaching 1 for hub-dominated ones. A compact "heavy tail"
/// indicator that is robust where a tail-exponent fit is noisy.
pub fn degree_gini(g: &CsrGraph) -> f64 {
    let n = g.num_nodes();
    if n == 0 {
        return 0.0;
    }
    let mut degrees: Vec<f64> = (0..n).map(|u| g.degree(u) as f64).collect();
    degrees.sort_by(f64::total_cmp);
    let total: f64 = degrees.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    let nf = n as f64;
    let weighted: f64 = degrees
        .iter()
        .enumerate()
        .map(|(i, &d)| (i as f64 + 1.0) * d)
        .sum();
    (2.0 * weighted) / (nf * total) - (nf + 1.0) / nf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{barabasi_albert, complete_graph, star_graph};
    use crate::rng::Xoshiro256pp;

    #[test]
    fn gini_orders_regular_vs_hub_graphs() {
        let regular = complete_graph(20);
        let hubby = star_graph(20);
        let g_regular = degree_gini(&regular);
        let g_hubby = degree_gini(&hubby);
        assert!(
            g_regular.abs() < 1e-9,
            "complete graph is perfectly equal: {g_regular}"
        );
        // The 20-node star's exact Gini is 0.45: one hub holds half the
        // degree mass, the rest is spread evenly over 19 leaves.
        assert!((g_hubby - 0.45).abs() < 1e-9, "star graph gini: {g_hubby}");
        assert!(g_hubby > g_regular);
    }

    #[test]
    fn gini_of_ba_between_extremes() {
        let mut rng = Xoshiro256pp::new(3);
        let g = barabasi_albert(1_000, 3, &mut rng).unwrap();
        let gini = degree_gini(&g);
        assert!((0.05..0.9).contains(&gini), "BA gini {gini}");
    }
}
