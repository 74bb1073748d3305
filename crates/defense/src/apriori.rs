//! Apriori frequent-itemset mining (Agrawal & Srikant, VLDB'94) over
//! bit-vector transactions.
//!
//! Transactions here are uploaded adjacency bit vectors: the items of
//! transaction `i` are the node ids user `i` claims as neighbors. Mining
//! stops at level 2, the only level the detector reads: by downward
//! closure ("every subset of a frequent itemset is frequent") the
//! candidate pairs are the pairs of frequent items. Pair support is
//! counted on *column* bitsets (reports containing each item), so it
//! costs one popcount-AND per candidate pair instead of a pass over all
//! transactions. One level-2 routine (`for_each_frequent_pair`) serves
//! both callers: it takes the frequent items eight at a time and reads each
//! later column once for all eight ([`and_popcount8`]).
//! [`apriori_on_columns`] collects and sorts the pairs it finds;
//! [`PairIndex::mine`] (Detect1's miner) sets them straight into per-item
//! partner bitsets, so no itemset is built and counting the pairs a
//! transaction contains is also word-parallel.

use ldp_graph::popcount::{and_popcount, and_popcount8};
use ldp_graph::BitSet;

/// Frequent items per level-2 pass: each later column is read once for
/// this many columns.
const PAIR_GROUP: usize = 8;

/// A frequent itemset: sorted item ids plus its support count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrequentItemset {
    /// The items, sorted ascending.
    pub items: Vec<u32>,
    /// Number of transactions containing every item.
    pub support: usize,
}

/// Mining output, grouped by itemset size: `levels[0]` holds the frequent
/// items and `levels[1]` the frequent pairs.
#[derive(Debug, Clone, Default)]
pub struct AprioriResult {
    /// Frequent itemsets per level.
    pub levels: Vec<Vec<FrequentItemset>>,
}

impl AprioriResult {
    /// All frequent pairs (level 2), the level the detector uses.
    pub fn frequent_pairs(&self) -> &[FrequentItemset] {
        self.levels.get(1).map_or(&[], |v| v.as_slice())
    }

    /// Total number of frequent itemsets across levels.
    pub fn total(&self) -> usize {
        self.levels.iter().map(|l| l.len()).sum()
    }
}

/// Column view (the transpose of the transactions): for each item, the
/// set of transactions containing it.
///
/// The items are the bit positions of the first transaction, and every
/// transaction must share its capacity. Each column has one bit per
/// transaction.
pub fn item_columns<'a, I>(transactions: I) -> Vec<BitSet>
where
    I: IntoIterator<Item = &'a BitSet>,
    I::IntoIter: ExactSizeIterator,
{
    let mut transactions = transactions.into_iter().peekable();
    let n = transactions.len();
    let num_items = transactions.peek().map_or(0, |bits| bits.capacity());
    let mut columns = vec![BitSet::new(n); num_items];
    for (t, bits) in transactions.enumerate() {
        for item in bits.iter_ones() {
            columns[item].set(t);
        }
    }
    columns
}

/// Runs Apriori's levels 1 and 2 — the frequent items and pairs — with
/// absolute support threshold `min_support`, on the [`item_columns`]
/// bitsets.
pub fn apriori(transactions: &[BitSet], min_support: usize) -> AprioriResult {
    apriori_on_columns(&item_columns(transactions), min_support)
}

/// [`apriori`] over an [`item_columns`] view built by the caller, so one
/// transpose can serve both the mining and other per-item work.
pub fn apriori_on_columns(columns: &[BitSet], min_support: usize) -> AprioriResult {
    // Level 1.
    let mut level1 = Vec::new();
    for (item, col) in columns.iter().enumerate() {
        let support = col.count_ones();
        if support >= min_support {
            level1.push(FrequentItemset {
                items: vec![item as u32],
                support,
            });
        }
    }

    // Level 2: candidate pairs of frequent items, counted by column AND
    // and sorted back into ascending `(a, b)` order.
    let frequent_items: Vec<u32> = level1.iter().map(|fi| fi.items[0]).collect();
    let mut pairs = Vec::new();
    for_each_frequent_pair(columns, &frequent_items, min_support, |a, b, support| {
        pairs.push((a, b, support));
    });
    pairs.sort_unstable();
    let level2 = pairs
        .into_iter()
        .map(|(a, b, support)| FrequentItemset {
            items: vec![a, b],
            support,
        })
        .collect();
    AprioriResult {
        levels: vec![level1, level2],
    }
}

/// Apriori's level 2: calls `visit(a, b, support)` for every pair `a < b`
/// of `frequent_items` whose columns share at least `min_support`
/// transactions.
///
/// `frequent_items` must be ascending. They are taken eight at a time:
/// the pairs inside a group are counted one by one, and each later
/// frequent column `b` is read once for all eight of the group's columns
/// ([`and_popcount8`]). Pairs are therefore visited group by group, not in
/// `(a, b)` order. Supports are exact, so the pairs and supports are
/// those of a per-pair scan.
///
/// # Panics
/// Panics if the frequent items' columns differ in capacity.
fn for_each_frequent_pair(
    columns: &[BitSet],
    frequent_items: &[u32],
    min_support: usize,
    mut visit: impl FnMut(u32, u32, usize),
) {
    if let Some((&first, rest)) = frequent_items.split_first() {
        let capacity = columns[first as usize].capacity();
        assert!(
            rest.iter()
                .all(|&b| columns[b as usize].capacity() == capacity),
            "item column capacities differ"
        );
    }
    for (g, group) in frequent_items.chunks(PAIR_GROUP).enumerate() {
        for (i, &a) in group.iter().enumerate() {
            for &b in &group[i + 1..] {
                let support = columns[a as usize].intersection_count(&columns[b as usize]);
                if support >= min_support {
                    visit(a, b, support);
                }
            }
        }
        // Only the last group can be short, and no item follows it.
        let Ok(group) = <[u32; PAIR_GROUP]>::try_from(group) else {
            continue;
        };
        let rows = group.map(|a| columns[a as usize].words());
        for &b in &frequent_items[(g + 1) * PAIR_GROUP..] {
            let supports = and_popcount8(columns[b as usize].words(), rows);
            for (&a, support) in group.iter().zip(supports) {
                let support = support as usize;
                if support >= min_support {
                    visit(a, b, support);
                }
            }
        }
    }
}

/// Frequent pairs indexed by their smaller item: the partners of `a` are
/// every `b > a` with `{a, b}` frequent.
///
/// The number of pairs a row contains is then `Σ_{a ∈ row} |partners(a) ∩
/// row|`: one word-AND popcount pass per set bit of the row, instead of
/// two bit probes per frequent pair. Partners of `a` lie above `a`, so the
/// pass starts at `a`'s word.
#[derive(Debug)]
pub struct PairIndex {
    /// `partners[a]`, or `None` when `a` is the smaller item of no pair.
    partners: Vec<Option<BitSet>>,
}

impl PairIndex {
    /// Indexes `pairs` (level-2 itemsets) over items `0..num_items`.
    ///
    /// # Panics
    /// Panics if a pair's items are not two distinct ids below `num_items`.
    pub fn new(num_items: usize, pairs: &[FrequentItemset]) -> Self {
        let mut partners: Vec<Option<BitSet>> = vec![None; num_items];
        for fi in pairs {
            assert_eq!(fi.items.len(), 2, "not a pair: {:?}", fi.items);
            let (x, y) = (fi.items[0], fi.items[1]);
            assert_ne!(x, y, "frequent pair of one item");
            let (a, b) = (x.min(y) as usize, x.max(y) as usize);
            partners[a]
                .get_or_insert_with(|| BitSet::new(num_items))
                .set(b);
        }
        PairIndex { partners }
    }

    /// Mines the frequent pairs of `columns` (an [`item_columns`] view)
    /// at `min_support` and indexes them over items `0..columns.len()`.
    ///
    /// The index equals `PairIndex::new(columns.len(),
    /// apriori_on_columns(columns, min_support).frequent_pairs())`, but
    /// each partner bit is set as the level-2 pass finds its pair, so no
    /// itemset is built.
    ///
    /// # Panics
    /// Panics if the frequent items' columns differ in capacity.
    pub fn mine(columns: &[BitSet], min_support: usize) -> Self {
        let num_items = columns.len();
        let frequent_items: Vec<u32> = (0..num_items as u32)
            .filter(|&item| columns[item as usize].count_ones() >= min_support)
            .collect();
        let mut partners: Vec<Option<BitSet>> = vec![None; num_items];
        for_each_frequent_pair(columns, &frequent_items, min_support, |a, b, _| {
            partners[a as usize]
                .get_or_insert_with(|| BitSet::new(num_items))
                .set(b as usize);
        });
        PairIndex { partners }
    }

    /// Number of indexed pairs whose two items are both set in `row` (the
    /// score Detect1 thresholds per report).
    ///
    /// # Panics
    /// Panics if `row`'s capacity differs from the indexed item count.
    pub fn contained_pairs(&self, row: &BitSet) -> usize {
        assert_eq!(
            row.capacity(),
            self.partners.len(),
            "row capacity differs from the indexed item count"
        );
        let words = row.words();
        row.iter_ones()
            .filter_map(|a| Some((a / 64, self.partners[a].as_ref()?)))
            .map(|(from, partners)| {
                and_popcount(&partners.words()[from..], &words[from..]) as usize
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(num_items: usize, items: &[usize]) -> BitSet {
        BitSet::from_indices(num_items, items.iter().copied())
    }

    /// Brute-force support of an itemset.
    fn brute_support(transactions: &[BitSet], items: &[u32]) -> usize {
        transactions
            .iter()
            .filter(|t| items.iter().all(|&i| t.get(i as usize)))
            .count()
    }

    fn market_basket() -> Vec<BitSet> {
        // Classic toy dataset with items 0..5.
        vec![
            tx(5, &[0, 1, 2]),
            tx(5, &[0, 1]),
            tx(5, &[0, 2]),
            tx(5, &[1, 2]),
            tx(5, &[0, 1, 2, 3]),
            tx(5, &[4]),
        ]
    }

    #[test]
    fn level1_supports_match_brute_force() {
        let txs = market_basket();
        let result = apriori(&txs, 2);
        for fi in &result.levels[0] {
            assert_eq!(fi.support, brute_support(&txs, &fi.items));
        }
        // Item 3 (support 1) and 4 (support 1) must be absent.
        assert!(result.levels[0].iter().all(|fi| fi.items[0] < 3));
    }

    #[test]
    fn level2_matches_brute_force() {
        let txs = market_basket();
        let result = apriori(&txs, 2);
        let pairs = result.frequent_pairs();
        // Frequent pairs with support >= 2: (0,1)=3, (0,2)=3, (1,2)=3.
        assert_eq!(pairs.len(), 3);
        for fi in pairs {
            assert_eq!(fi.support, brute_support(&txs, &fi.items));
            assert!(fi.support >= 2);
        }
    }

    #[test]
    fn downward_closure_prunes() {
        // (0,1) frequent, (2) infrequent → no candidate with 2 at level 2+.
        let txs = vec![tx(3, &[0, 1]), tx(3, &[0, 1]), tx(3, &[2])];
        let result = apriori(&txs, 2);
        assert!(result
            .frequent_pairs()
            .iter()
            .all(|fi| !fi.items.contains(&2)));
    }

    #[test]
    fn empty_input_mines_nothing() {
        assert_eq!(apriori(&[], 1).total(), 0);
    }

    #[test]
    fn contained_pairs_counts_correctly() {
        let txs = market_basket();
        let result = apriori(&txs, 2);
        let index = PairIndex::new(5, result.frequent_pairs());
        // Transaction {0,1,2} contains all three frequent pairs.
        assert_eq!(index.contained_pairs(&tx(5, &[0, 1, 2])), 3);
        // Transaction {0,1} contains exactly one.
        assert_eq!(index.contained_pairs(&tx(5, &[0, 1])), 1);
        // Transaction {4} contains none.
        assert_eq!(index.contained_pairs(&tx(5, &[4])), 0);
    }

    #[test]
    fn item_columns_is_the_transpose() {
        let txs = market_basket();
        let columns = item_columns(&txs);
        assert_eq!(columns.len(), 5);
        for (item, column) in columns.iter().enumerate() {
            assert_eq!(column.capacity(), txs.len());
            for (t, bits) in txs.iter().enumerate() {
                assert_eq!(column.get(t), bits.get(item), "item {item}, tx {t}");
            }
        }
    }

    #[test]
    fn high_min_support_yields_nothing() {
        let txs = market_basket();
        let result = apriori(&txs, 100);
        assert_eq!(result.total(), 0);
    }
}
