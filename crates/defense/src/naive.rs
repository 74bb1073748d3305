//! The naive detection baselines the paper compares against (§VIII-D).
//!
//! * **Naive1** (vs. Detect1, Fig. 12a): flag the top 3% of users by
//!   perturbed-bit-vector degree and reconstruct their connections.
//! * **Naive2** (vs. Detect2, Fig. 12b): flag the top *and* bottom 3% of
//!   the reported-degree distribution and remove their connections.

use crate::detect2::remove_flagged;
use ldp_graph::BitSet;
use ldp_protocols::{AdjacencyReport, FilterDecision, LfGdpr};
use poison_core::Defense;

/// Naive1: degree-rank flagging with reconstruction.
#[derive(Debug, Clone, Copy)]
pub struct NaiveTopDegree {
    /// Fraction of the population to flag (paper: 0.03).
    pub fraction: f64,
}

impl Default for NaiveTopDegree {
    fn default() -> Self {
        NaiveTopDegree { fraction: 0.03 }
    }
}

impl Defense for NaiveTopDegree {
    fn name(&self) -> &'static str {
        "Naive1"
    }

    fn filter_reports(
        &self,
        reports: &[AdjacencyReport],
        _protocol: &LfGdpr,
        _rng: &mut dyn rand::RngCore,
    ) -> FilterDecision {
        let n = reports.len();
        let k = ((n as f64 * self.fraction).round() as usize).min(n);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(reports[i].bit_degree()));
        let mut flagged = vec![false; n];
        for &i in order.iter().take(k) {
            flagged[i] = true;
        }
        let mut repaired: Vec<AdjacencyReport> = reports.to_vec();
        for (f, report) in repaired.iter_mut().enumerate() {
            if !flagged[f] {
                continue;
            }
            // Detect1 moves its mined columns instead; with ~3% flagged and
            // no transpose built here, probing column `f` row by row is cheaper.
            let mut rebuilt = BitSet::new(n);
            for (j, other) in reports.iter().enumerate() {
                if j != f && other.bits.get(f) {
                    rebuilt.set(j);
                }
            }
            report.bits = rebuilt;
            report.degree = report.bits.count_ones() as f64;
        }
        FilterDecision { repaired, flagged }
    }
}

/// Naive2: reported-degree tail flagging with removal.
#[derive(Debug, Clone, Copy)]
pub struct NaiveDegreeTails {
    /// Fraction flagged at *each* tail (paper: 0.03).
    pub fraction: f64,
}

impl Default for NaiveDegreeTails {
    fn default() -> Self {
        NaiveDegreeTails { fraction: 0.03 }
    }
}

impl Defense for NaiveDegreeTails {
    fn name(&self) -> &'static str {
        "Naive2"
    }

    fn filter_reports(
        &self,
        reports: &[AdjacencyReport],
        protocol: &LfGdpr,
        rng: &mut dyn rand::RngCore,
    ) -> FilterDecision {
        let n = reports.len();
        let k = ((n as f64 * self.fraction).round() as usize).min(n / 2);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| reports[a].degree.total_cmp(&reports[b].degree));
        let mut flagged = vec![false; n];
        for &i in order.iter().take(k) {
            flagged[i] = true;
        }
        for &i in order.iter().rev().take(k) {
            flagged[i] = true;
        }
        let repaired = remove_flagged(reports, &flagged, protocol, rng);
        FilterDecision { repaired, flagged }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_graph::Xoshiro256pp;

    fn population(degrees: &[f64]) -> Vec<AdjacencyReport> {
        let n = degrees.len();
        degrees
            .iter()
            .enumerate()
            .map(|(i, &d)| {
                // Give user i a bit vector with `i` claimed edges so the
                // bit-degree ranking is deterministic.
                let bits = BitSet::from_indices(n, (0..i.min(n - 1)).map(|j| (j + i + 1) % n));
                AdjacencyReport::new(bits, d)
            })
            .collect()
    }

    #[test]
    fn naive1_flags_exactly_the_top_fraction() {
        let reports = population(&[0.0; 100]);
        let protocol = LfGdpr::new(4.0).unwrap();
        let defense = NaiveTopDegree { fraction: 0.05 };
        let result = defense.filter_reports(&reports, &protocol, &mut Xoshiro256pp::new(0xD0));
        let count = result.flagged.iter().filter(|&&f| f).count();
        assert_eq!(count, 5);
        // The largest bit vectors belong to the highest indices.
        for i in 95..100 {
            assert!(result.flagged[i], "user {i} has the most claimed edges");
        }
    }

    #[test]
    fn naive2_flags_both_tails_of_reported_degree() {
        let degrees: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let reports = population(&degrees);
        let protocol = LfGdpr::new(4.0).unwrap();
        let defense = NaiveDegreeTails { fraction: 0.03 };
        let result = defense.filter_reports(&reports, &protocol, &mut Xoshiro256pp::new(0xD0));
        let count = result.flagged.iter().filter(|&&f| f).count();
        assert_eq!(count, 6);
        for i in [0, 1, 2, 97, 98, 99] {
            assert!(result.flagged[i]);
        }
        // Removal semantics: the crafted claims are replaced by a fresh
        // null-perturbation, so the 98 claimed edges of user 99 vanish and
        // only mechanism noise remains.
        assert!(result.repaired[99].bit_degree() < 30);
        assert!(result.repaired[99].degree < 5.0);
    }

    #[test]
    fn zero_fraction_flags_nobody() {
        let reports = population(&[1.0; 50]);
        let protocol = LfGdpr::new(4.0).unwrap();
        let r1 = NaiveTopDegree { fraction: 0.0 }.filter_reports(
            &reports,
            &protocol,
            &mut Xoshiro256pp::new(0xD0),
        );
        let r2 = NaiveDegreeTails { fraction: 0.0 }.filter_reports(
            &reports,
            &protocol,
            &mut Xoshiro256pp::new(0xD0),
        );
        assert!(r1.flagged.iter().all(|&f| !f));
        assert!(r2.flagged.iter().all(|&f| !f));
    }
}
