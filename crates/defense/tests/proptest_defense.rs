//! Property tests for Detect1's miner and scorer: Apriori's level 2 must
//! find exactly the pairs and supports of a brute-force per-pair scan, and
//! the per-item partner index must count exactly the pairs that scan
//! counts.

use ldp_graph::{BitSet, Xoshiro256pp};
use poison_defense::apriori::{apriori, item_columns, FrequentItemset, PairIndex};
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

/// `k` distinct rows of `0..rows`, drawn by a partial Fisher–Yates shuffle.
fn distinct_rows(rng: &mut Xoshiro256pp, rows: usize, k: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..rows).collect();
    for i in 0..k {
        let j = rng.gen_range(i..rows);
        order.swap(i, j);
    }
    order.truncate(k);
    order
}

/// `rows` transactions over `frequent` items of support at least
/// `min_support`, with zero to three infrequent items before each of them
/// and after the last. A frequent item is set in `min_support` distinct
/// rows plus every other row with its own density, so its pairs' supports
/// fall on both sides of `min_support`; an infrequent item is set in fewer
/// than `min_support` rows. Returns the transactions and the frequent
/// items, ascending.
fn mixed_support_transactions(
    rng: &mut Xoshiro256pp,
    rows: usize,
    frequent: usize,
    min_support: usize,
) -> (Vec<BitSet>, Vec<u32>) {
    let mut is_frequent = Vec::new();
    for _ in 0..frequent {
        is_frequent.extend(std::iter::repeat_n(false, rng.gen_range(0..=3)));
        is_frequent.push(true);
    }
    is_frequent.extend(std::iter::repeat_n(false, rng.gen_range(0..=3)));
    let mut row_items = vec![Vec::new(); rows];
    for (item, &frequent) in is_frequent.iter().enumerate() {
        let k = if frequent {
            min_support
        } else {
            rng.gen_range(0..min_support)
        };
        let mut members = distinct_rows(rng, rows, k);
        if frequent {
            let density = rng.gen_range(0.0..0.7);
            members.extend((0..rows).filter(|_| rng.gen_bool(density)));
        }
        for row in members {
            row_items[row].push(item);
        }
    }
    let capacity = is_frequent.len();
    let txs = row_items
        .into_iter()
        .map(|items| BitSet::from_indices(capacity, items))
        .collect();
    let frequent_items = (0..capacity as u32)
        .filter(|&item| is_frequent[item as usize])
        .collect();
    (txs, frequent_items)
}

/// Level 2 by brute force: every pair of frequent items, its support
/// counted by probing both bits of every transaction, kept at or above
/// `min_support`, in ascending `(a, b)` order.
fn brute_level2(
    txs: &[BitSet],
    frequent_items: &[u32],
    min_support: usize,
) -> Vec<FrequentItemset> {
    let mut pairs = Vec::new();
    for (i, &a) in frequent_items.iter().enumerate() {
        for &b in &frequent_items[i + 1..] {
            let support = txs
                .iter()
                .filter(|t| t.get(a as usize) && t.get(b as usize))
                .count();
            if support >= min_support {
                pairs.push(FrequentItemset {
                    items: vec![a, b],
                    support,
                });
            }
        }
    }
    pairs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Level 2 over 1–20 frequent items (full and partial eight-item
    /// groups) with infrequent items between them, on up to 1,100
    /// transactions: 18 words per column, enough for the vector twin's
    /// unrolled 16-word body.
    #[test]
    fn level2_matches_brute_force_pair_scan(
        seed in 0u64..10_000,
        rows in 1usize..=1_100,
        frequent in 1usize..=20,
        support_fraction in 0.0f64..0.5,
    ) {
        let mut rng = Xoshiro256pp::new(seed);
        let min_support = (1 + (support_fraction * rows as f64) as usize).min(rows);
        let (txs, frequent_items) = mixed_support_transactions(&mut rng, rows, frequent, min_support);
        let mined = apriori(&txs, min_support);
        let level1: Vec<u32> = mined.levels[0].iter().map(|fi| fi.items[0]).collect();
        prop_assert_eq!(&level1, &frequent_items);
        let brute = brute_level2(&txs, &frequent_items, min_support);
        prop_assert_eq!(mined.frequent_pairs(), brute.as_slice());
    }

    /// `PairIndex::mine` scores every row as the index of the mined
    /// itemsets and the brute-force pair scan do.
    #[test]
    fn mined_index_scores_like_the_itemset_index(
        seed in 0u64..10_000,
        rows in 1usize..=1_100,
        frequent in 1usize..=20,
        support_fraction in 0.0f64..0.5,
    ) {
        let mut rng = Xoshiro256pp::new(seed);
        let min_support = (1 + (support_fraction * rows as f64) as usize).min(rows);
        let (mut txs, frequent_items) =
            mixed_support_transactions(&mut rng, rows, frequent, min_support);
        let capacity = txs[0].capacity();
        let mined = PairIndex::mine(&item_columns(&txs), min_support);
        let from_itemsets = PairIndex::new(capacity, apriori(&txs, min_support).frequent_pairs());
        let brute = brute_level2(&txs, &frequent_items, min_support);
        txs.push(BitSet::from_indices(capacity, 0..capacity));
        txs.push(BitSet::new(capacity));
        for t in &txs {
            let score = mined.contained_pairs(t);
            prop_assert_eq!(score, from_itemsets.contained_pairs(t));
            prop_assert_eq!(score, brute_contained_pairs(t, &brute));
        }
    }

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
        let mined = apriori(&txs, min_support);
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
