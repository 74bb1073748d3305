//! Frequent-itemset-based detection — "Detect1" (paper §VII-A).
//!
//! MGA fake users share crafted connection patterns (the target set, plus
//! the fake↔fake clique), which surface as high-support itemsets among the
//! uploaded bit vectors. The defense mines frequent pairs with Apriori,
//! scores every report by how many frequent pairs it contains, flags
//! reports above a threshold, and *reconstructs* a flagged user's
//! connections from the other endpoints' reports instead of dropping them
//! (step 3 of §VII-A, the difference from Cao et al.'s removal).

use crate::apriori::{item_columns, PairIndex};
use ldp_graph::BitSet;
use ldp_protocols::{AdjacencyReport, FilterDecision, LfGdpr};
use poison_core::Defense;

/// Configuration of the frequent-itemset defense.
#[derive(Debug, Clone, Copy)]
pub struct FrequentItemsetDefense {
    /// Absolute support threshold for the Apriori pass. `None` derives it
    /// from the data: the expected background co-occurrence of two
    /// independent RR-noised slots, `μ = N·q̄²`, plus six standard
    /// deviations (`6√μ`) — with `Θ(N²)` candidate pairs the cutoff must
    /// sit far out in the binomial tail or noise pairs swamp the miner,
    /// while MGA's crafted pairs (support `≥ m`) still clear it at the
    /// paper's β.
    pub min_support: Option<usize>,
    /// A report containing more than this many frequent pairs is flagged.
    /// This is the x-axis of Figs. 12a/13a.
    pub flag_threshold: usize,
}

impl FrequentItemsetDefense {
    /// Creates the defense with an automatic support threshold.
    pub fn new(flag_threshold: usize) -> Self {
        FrequentItemsetDefense {
            min_support: None,
            flag_threshold,
        }
    }

    fn resolve_min_support(&self, reports: &[AdjacencyReport]) -> usize {
        if let Some(s) = self.min_support {
            return s;
        }
        let n = reports.len();
        if n == 0 {
            return 4;
        }
        let mean_density = reports
            .iter()
            .map(|r| r.bit_degree() as f64 / r.population().max(1) as f64)
            .sum::<f64>()
            / n as f64;
        let background = n as f64 * mean_density * mean_density;
        ((background + 6.0 * background.sqrt()).ceil() as usize).max(4)
    }

    /// Mines the frequent pairs of `reports` and scores each report by the
    /// number it contains. Also returns the item columns the pairs were
    /// mined from: column `f` is every report claiming `f`, which is what
    /// reconstruction rebuilds a flagged row `f` from.
    fn mine(&self, reports: &[AdjacencyReport]) -> (Vec<BitSet>, Vec<usize>) {
        let columns = item_columns(reports.iter().map(|r| &r.bits));
        let min_support = self.resolve_min_support(reports);
        let index = PairIndex::mine(&columns, min_support);
        let scores = reports
            .iter()
            .map(|r| index.contained_pairs(&r.bits))
            .collect();
        (columns, scores)
    }
}

impl Defense for FrequentItemsetDefense {
    fn name(&self) -> &'static str {
        "Detect1"
    }

    fn filter_reports(
        &self,
        reports: &[AdjacencyReport],
        _protocol: &LfGdpr,
        _rng: &mut dyn rand::RngCore,
    ) -> FilterDecision {
        let n = reports.len();
        let (mut columns, scores) = self.mine(reports);
        let flagged: Vec<bool> = scores.iter().map(|&s| s > self.flag_threshold).collect();

        // Reconstruction: a flagged user's slots are re-derived from the
        // *other* endpoint's (original) report — the genuine side perturbed
        // honestly, so its claim is the best available evidence. Those
        // claims are exactly column `f` of the transpose, less `f`'s own.
        let repaired = reports
            .iter()
            .zip(&flagged)
            .enumerate()
            .map(|(f, (report, &flag))| {
                if !flag {
                    return report.clone();
                }
                // Rows are `n` bits wide, so every report id has a column.
                let mut bits = columns.get_mut(f).map_or_else(
                    || BitSet::new(n),
                    |column| std::mem::replace(column, BitSet::new(0)),
                );
                bits.clear(f);
                let degree = bits.count_ones() as f64;
                AdjacencyReport::new(bits, degree)
            })
            .collect();
        FilterDecision { repaired, flagged }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_graph::Xoshiro256pp;
    use ldp_mechanisms::RandomizedResponse;
    use rand::Rng;

    /// Builds a population where the last `m` reports share a crafted
    /// target pattern and the rest are RR noise.
    fn poisoned_population(
        n_genuine: usize,
        m_fake: usize,
        targets: &[usize],
        seed: u64,
    ) -> Vec<AdjacencyReport> {
        let n = n_genuine + m_fake;
        let flips = RandomizedResponse::from_keep_probability(0.9)
            .unwrap()
            .flip_sampler();
        let mut rng = Xoshiro256pp::new(seed);
        let mut reports = Vec::with_capacity(n);
        for i in 0..n_genuine {
            let truth = BitSet::new(n);
            let bits = flips.perturb_bitset(&truth, Some(i), &mut rng);
            let degree = bits.count_ones() as f64;
            reports.push(AdjacencyReport::new(bits, degree));
        }
        for _ in 0..m_fake {
            let mut bits = BitSet::from_indices(n, targets.iter().copied());
            // Some random padding, like MGA's disguise.
            for _ in 0..5 {
                bits.set(rng.gen_range(0..n));
            }
            let degree = bits.count_ones() as f64;
            reports.push(AdjacencyReport::new(bits, degree));
        }
        reports
    }

    #[test]
    fn flags_mga_style_fakes() {
        let targets: Vec<usize> = (0..12).collect();
        let reports = poisoned_population(200, 20, &targets, 1);
        let protocol = LfGdpr::new(4.0).unwrap();
        let defense = FrequentItemsetDefense::new(10);
        let result = defense.filter_reports(&reports, &protocol, &mut Xoshiro256pp::new(0xD0));
        let fake_flagged = result.flagged[200..].iter().filter(|&&f| f).count();
        let genuine_flagged = result.flagged[..200].iter().filter(|&&f| f).count();
        assert!(
            fake_flagged >= 18,
            "most fakes should be flagged, got {fake_flagged}/20"
        );
        assert!(
            genuine_flagged <= 10,
            "few genuine users should be flagged, got {genuine_flagged}/200"
        );
    }

    #[test]
    fn huge_threshold_flags_nobody() {
        let targets: Vec<usize> = (0..12).collect();
        let reports = poisoned_population(100, 10, &targets, 2);
        let protocol = LfGdpr::new(4.0).unwrap();
        let defense = FrequentItemsetDefense::new(usize::MAX - 1);
        let result = defense.filter_reports(&reports, &protocol, &mut Xoshiro256pp::new(0xD0));
        assert!(result.flagged.iter().all(|&f| !f));
        // Untouched reports.
        for (orig, rep) in reports.iter().zip(&result.repaired) {
            assert_eq!(orig.bits, rep.bits);
        }
    }

    #[test]
    fn reconstruction_uses_other_side_claims() {
        // 3 users; user 2 is flagged by force (threshold 0 and a crafted
        // pattern shared with nobody won't flag, so build mutual support:
        // users 1 and 2 share pairs (0,1)... instead verify mechanics via a
        // direct call: flag user 2, whose slots get rebuilt from reports
        // 0 and 1.
        let n = 3;
        let reports = vec![
            AdjacencyReport::new(BitSet::from_indices(n, [2usize]), 1.0), // 0 claims 2
            AdjacencyReport::new(BitSet::from_indices(n, [] as [usize; 0]), 0.0),
            AdjacencyReport::new(BitSet::from_indices(n, [0usize, 1]), 2.0),
        ];
        let protocol = LfGdpr::new(4.0).unwrap();
        // min_support=1 makes everything frequent; threshold 0 flags the
        // report containing at least one frequent pair — user 2 only.
        let defense = FrequentItemsetDefense {
            min_support: Some(1),
            flag_threshold: 0,
        };
        let result = defense.filter_reports(&reports, &protocol, &mut Xoshiro256pp::new(0xD0));
        assert!(result.flagged[2]);
        // Rebuilt from others: only user 0 claimed an edge to 2.
        assert_eq!(result.repaired[2].bits.to_indices(), vec![0]);
        assert_eq!(result.repaired[2].degree, 1.0);
    }

    #[test]
    fn everyone_flagged_rebuilds_rows_like_the_per_row_scan() {
        // 150 users (not a multiple of 64), rows dense enough that every
        // one holds a pair; min_support 1 makes every co-occurring pair
        // frequent, so threshold 0 flags everybody.
        let n = 150;
        let mut rng = Xoshiro256pp::new(7);
        let reports: Vec<AdjacencyReport> = (0..n)
            .map(|i| {
                let mut bits = BitSet::from_indices(n, (0..n).filter(|_| rng.gen_bool(0.2)));
                bits.set(i); // a self claim, which reconstruction must drop
                bits.set((i + 1) % n);
                let degree = rng.gen_range(0.0..50.0);
                AdjacencyReport::new(bits, degree)
            })
            .collect();
        let defense = FrequentItemsetDefense {
            min_support: Some(1),
            flag_threshold: 0,
        };
        let protocol = LfGdpr::new(4.0).unwrap();
        let result = defense.filter_reports(&reports, &protocol, &mut Xoshiro256pp::new(0xD0));
        assert!(result.flagged.iter().all(|&f| f));
        // Oracle: row `f` rebuilt by probing every other report's bit `f`.
        for (f, repaired) in result.repaired.iter().enumerate() {
            let mut rebuilt = BitSet::new(n);
            for (j, other) in reports.iter().enumerate() {
                if j != f && other.bits.get(f) {
                    rebuilt.set(j);
                }
            }
            let degree = rebuilt.count_ones() as f64;
            assert_eq!(repaired.bits, rebuilt, "row {f}");
            assert_eq!(repaired.degree.to_bits(), degree.to_bits(), "row {f}");
        }
    }

    #[test]
    fn mined_scores_count_contained_frequent_pairs() {
        let targets: Vec<usize> = (0..12).collect();
        let reports = poisoned_population(100, 10, &targets, 4);
        let protocol = LfGdpr::new(4.0).unwrap();
        let (_, scores) = FrequentItemsetDefense::new(10).mine(&reports);
        // Every fake holds the 12 targets, so at least their C(12,2) pairs.
        assert!(scores[100..].iter().all(|&s| s >= 66), "{scores:?}");
        let flagged = FrequentItemsetDefense::new(10)
            .filter_reports(&reports, &protocol, &mut Xoshiro256pp::new(0xD0))
            .flagged;
        for (s, f) in scores.iter().zip(flagged) {
            assert_eq!(*s > 10, f);
        }
    }

    #[test]
    fn auto_min_support_scales_with_density() {
        let sparse = poisoned_population(300, 5, &[0, 1], 3);
        let defense = FrequentItemsetDefense::new(50);
        let support = defense.resolve_min_support(&sparse);
        assert!(support >= 4);
        assert!(
            support < 300,
            "support {support} should stay below the population"
        );
    }
}
