//! Property tests for Detect1's scorer: the per-item partner index must
//! count exactly the pairs the brute-force per-pair scan counts.

use ldp_graph::{BitSet, Xoshiro256pp};
use poison_defense::apriori::{apriori, FrequentItemset, PairIndex};
use proptest::prelude::*;
use rand::Rng;

/// The per-pair scan the index replaces: a pair counts when both of its
/// items are set in `bits`.
fn brute_contained_pairs(bits: &BitSet, pairs: &[FrequentItemset]) -> usize {
    pairs
        .iter()
        .filter(|fi| fi.items.iter().all(|&item| bits.get(item as usize)))
        .count()
}

/// `rows` random transactions over `capacity` items, each bit set with
/// probability `density`.
fn transactions(rng: &mut Xoshiro256pp, rows: usize, capacity: usize, density: f64) -> Vec<BitSet> {
    (0..rows)
        .map(|_| BitSet::from_indices(capacity, (0..capacity).filter(|_| rng.gen_bool(density))))
        .collect()
}

fn pair(a: usize, b: usize) -> FrequentItemset {
    FrequentItemset {
        items: vec![a as u32, b as u32],
        support: 1,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Mined pairs: random transactions at capacities that straddle word
    /// boundaries, mined at a random support (high supports leave the pair
    /// set empty).
    #[test]
    fn index_matches_brute_force_on_mined_pairs(
        seed in 0u64..10_000,
        capacity in 1usize..200,
        rows in 1usize..60,
        min_support in 1usize..12,
        density in 0.02f64..0.6,
    ) {
        let mut rng = Xoshiro256pp::new(seed);
        let txs = transactions(&mut rng, rows, capacity, density);
        let mined = apriori(&txs, min_support, 2);
        let pairs = mined.frequent_pairs();
        let index = PairIndex::new(capacity, pairs);
        for t in &txs {
            prop_assert_eq!(index.contained_pairs(t), brute_contained_pairs(t, pairs));
        }
    }

    /// Arbitrary pair sets, always including pairs on item 0 and on the
    /// last item, given in either order.
    #[test]
    fn index_matches_brute_force_on_edge_pairs(
        seed in 0u64..10_000,
        capacity in 2usize..300,
        extra in 0usize..80,
        density in 0.05f64..0.9,
    ) {
        let mut rng = Xoshiro256pp::new(seed);
        let last = capacity - 1;
        let mut pairs = vec![pair(0, last), pair(last, rng.gen_range(0..last))];
        pairs.push(pair(0, rng.gen_range(1..capacity)));
        for _ in 0..extra {
            let (a, b) = (rng.gen_range(0..capacity), rng.gen_range(0..capacity));
            if a != b {
                pairs.push(pair(a, b));
            }
        }
        // A pair may come in either order, but only once.
        let key = |p: &FrequentItemset| (p.items[0].min(p.items[1]), p.items[0].max(p.items[1]));
        pairs.sort_by_key(key);
        pairs.dedup_by_key(|p| key(p));
        let index = PairIndex::new(capacity, &pairs);
        let mut rows = transactions(&mut rng, 20, capacity, density);
        rows.push(BitSet::from_indices(capacity, [0, last]));
        rows.push(BitSet::from_indices(capacity, 0..capacity));
        rows.push(BitSet::new(capacity));
        for t in &rows {
            prop_assert_eq!(index.contained_pairs(t), brute_contained_pairs(t, &pairs));
        }
    }

    /// An empty pair set scores every row zero.
    #[test]
    fn empty_pair_set_scores_zero(seed in 0u64..10_000, capacity in 0usize..200) {
        let mut rng = Xoshiro256pp::new(seed);
        let index = PairIndex::new(capacity, &[]);
        for t in transactions(&mut rng, 8, capacity, 0.5) {
            prop_assert_eq!(index.contained_pairs(&t), 0);
        }
    }
}
