//! Property test pinning LF-GDPR's one in-process fold
//! (`ldp_protocols::ingest::fold_reports`, behind
//! `PerturbedView::from_reports`) slot by slot against a reference built
//! from `BitSet::get` alone: report `i` owns every slot `{i, j}` with
//! `j < i`, nothing else it sets reaches the view, and the view's degrees
//! are its row popcounts.

use ldp_graph::{BitSet, Xoshiro256pp};
use ldp_mechanisms::RandomizedResponse;
use ldp_protocols::{AdjacencyReport, PerturbedView};
use proptest::prelude::*;
use rand::Rng;

/// Synthesizes `n` reports with word-level random bits at roughly the
/// given density (upper-triangle and self bits included on purpose — the
/// fold must ignore them).
fn random_reports(n: usize, density_shift: u32, seed: u64) -> Vec<AdjacencyReport> {
    let mut rng = Xoshiro256pp::new(seed);
    (0..n)
        .map(|_| {
            let mut bits = BitSet::new(n);
            for w in bits.words_mut() {
                // AND-ing k independent words gives density 2^-k.
                let mut word = rng.gen::<u64>();
                for _ in 0..density_shift {
                    word &= rng.gen::<u64>();
                }
                *w = word;
            }
            bits.mask_tail();
            let degree = rng.gen_range(0.0..n.max(1) as f64);
            AdjacencyReport::new(bits, degree)
        })
        .collect()
}

fn rr() -> RandomizedResponse {
    RandomizedResponse::from_keep_probability(0.85).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Up to ~130 users, rows span 1–3 words and the fold splits into
    /// several row chunks.
    #[test]
    fn fold_matches_per_slot_reference(
        n in 0usize..131,
        density_shift in 0u32..3,
        seed in 0u64..1_000_000,
    ) {
        let reports = random_reports(n, density_shift, seed);
        let view = PerturbedView::from_reports(&reports, rr());
        let matrix = view.matrix();
        for i in 0..n {
            let mut degree = 0;
            for j in 0..n {
                let owned = match i.cmp(&j) {
                    std::cmp::Ordering::Greater => reports[i].bits.get(j),
                    std::cmp::Ordering::Less => reports[j].bits.get(i),
                    std::cmp::Ordering::Equal => false,
                };
                prop_assert_eq!(matrix.has_edge(i, j), owned, "n={} slot ({}, {})", n, i, j);
                degree += usize::from(owned);
            }
            prop_assert_eq!(view.perturbed_degree(i), degree, "n={} row {}", n, i);
        }
        let reported: Vec<f64> = reports.iter().map(|r| r.degree).collect();
        prop_assert_eq!(view.reported_degrees(), &reported[..]);
    }
}
