//! Apriori frequent-itemset mining (Agrawal & Srikant, VLDB'94) over
//! bit-vector transactions.
//!
//! Transactions here are uploaded adjacency bit vectors: the items of
//! transaction `i` are the node ids user `i` claims as neighbors. The
//! downward-closure property ("every subset of a frequent itemset is
//! frequent") drives candidate generation exactly as in the original
//! algorithm. Pair support is counted on *column* bitsets (reports
//! containing each item) so level 2 — the level the detector consumes —
//! costs one popcount-AND per candidate pair instead of a pass over all
//! transactions. [`PairIndex`] turns the frequent pairs back into per-item
//! partner bitsets, so counting the pairs a transaction contains is also
//! word-parallel.

use ldp_graph::popcount::and_popcount;
use ldp_graph::BitSet;

/// A frequent itemset: sorted item ids plus its support count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrequentItemset {
    /// The items, sorted ascending.
    pub items: Vec<u32>,
    /// Number of transactions containing every item.
    pub support: usize,
}

/// Mining output, grouped by itemset size (`levels[0]` = 1-itemsets, …).
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

/// Runs Apriori up to itemsets of size `max_level` with absolute support
/// threshold `min_support`.
///
/// Levels 1–2 use the [`item_columns`] bitsets; deeper levels intersect
/// the columns of candidate members, which stays cheap because downward
/// closure keeps candidate counts small at realistic supports.
pub fn apriori(transactions: &[BitSet], min_support: usize, max_level: usize) -> AprioriResult {
    if transactions.is_empty() {
        return AprioriResult::default();
    }
    apriori_on_columns(&item_columns(transactions), min_support, max_level)
}

/// [`apriori`] over an [`item_columns`] view built by the caller, so one
/// transpose can serve both the mining and other per-item work.
pub fn apriori_on_columns(
    columns: &[BitSet],
    min_support: usize,
    max_level: usize,
) -> AprioriResult {
    let mut result = AprioriResult::default();
    if max_level == 0 {
        return result;
    }

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
    result.levels.push(level1);
    if max_level == 1 {
        return result;
    }

    // Level 2: candidate pairs of frequent items, counted by column AND.
    let frequent_items: Vec<u32> = result.levels[0].iter().map(|fi| fi.items[0]).collect();
    let mut level2 = Vec::new();
    for (a_idx, &a) in frequent_items.iter().enumerate() {
        for &b in &frequent_items[a_idx + 1..] {
            let support = columns[a as usize].intersection_count(&columns[b as usize]);
            if support >= min_support {
                level2.push(FrequentItemset {
                    items: vec![a, b],
                    support,
                });
            }
        }
    }
    result.levels.push(level2);

    // Levels ≥ 3: classic join + prune on the previous level, support by
    // intersecting member columns.
    for level in 3..=max_level {
        let prev = &result.levels[level - 2];
        if prev.len() < 2 {
            break;
        }
        let prev_set: std::collections::HashSet<&[u32]> =
            prev.iter().map(|fi| fi.items.as_slice()).collect();
        let mut next = Vec::new();
        for (i, x) in prev.iter().enumerate() {
            for y in &prev[i + 1..] {
                // Join step: both share the first k−2 items.
                let k = x.items.len();
                if x.items[..k - 1] != y.items[..k - 1] {
                    continue;
                }
                let mut candidate = x.items.clone();
                candidate.push(y.items[k - 1]);
                candidate.sort_unstable();
                // Prune step: every (k)-subset must be frequent.
                let mut all_frequent = true;
                let mut subset = Vec::with_capacity(k);
                for skip in 0..candidate.len() {
                    subset.clear();
                    subset.extend(
                        candidate
                            .iter()
                            .enumerate()
                            .filter(|&(j, _)| j != skip)
                            .map(|(_, &v)| v),
                    );
                    if !prev_set.contains(subset.as_slice()) {
                        all_frequent = false;
                        break;
                    }
                }
                if !all_frequent {
                    continue;
                }
                // Count support by column intersection.
                let mut acc = columns[candidate[0] as usize].clone();
                for &item in &candidate[1..] {
                    acc.intersect_with(&columns[item as usize]);
                }
                let support = acc.count_ones();
                if support >= min_support {
                    next.push(FrequentItemset {
                        items: candidate,
                        support,
                    });
                }
            }
        }
        if next.is_empty() {
            break;
        }
        next.sort_by(|a, b| a.items.cmp(&b.items));
        next.dedup_by(|a, b| a.items == b.items);
        result.levels.push(next);
    }
    result
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
        let result = apriori(&txs, 2, 1);
        for fi in &result.levels[0] {
            assert_eq!(fi.support, brute_support(&txs, &fi.items));
        }
        // Item 3 (support 1) and 4 (support 1) must be absent.
        assert!(result.levels[0].iter().all(|fi| fi.items[0] < 3));
    }

    #[test]
    fn level2_matches_brute_force() {
        let txs = market_basket();
        let result = apriori(&txs, 2, 2);
        let pairs = result.frequent_pairs();
        // Frequent pairs with support >= 2: (0,1)=3, (0,2)=3, (1,2)=3.
        assert_eq!(pairs.len(), 3);
        for fi in pairs {
            assert_eq!(fi.support, brute_support(&txs, &fi.items));
            assert!(fi.support >= 2);
        }
    }

    #[test]
    fn level3_triple_found() {
        let txs = market_basket();
        let result = apriori(&txs, 2, 3);
        assert_eq!(result.levels.len(), 3);
        let triples = &result.levels[2];
        assert_eq!(triples.len(), 1);
        assert_eq!(triples[0].items, vec![0, 1, 2]);
        assert_eq!(triples[0].support, 2);
    }

    #[test]
    fn downward_closure_prunes() {
        // (0,1) frequent, (2) infrequent → no candidate with 2 at level 2+.
        let txs = vec![tx(3, &[0, 1]), tx(3, &[0, 1]), tx(3, &[2])];
        let result = apriori(&txs, 2, 3);
        assert!(result
            .frequent_pairs()
            .iter()
            .all(|fi| !fi.items.contains(&2)));
    }

    #[test]
    fn empty_and_zero_level_inputs() {
        assert_eq!(apriori(&[], 1, 2).total(), 0);
        let txs = market_basket();
        assert_eq!(apriori(&txs, 1, 0).total(), 0);
    }

    #[test]
    fn contained_pairs_counts_correctly() {
        let txs = market_basket();
        let result = apriori(&txs, 2, 2);
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
        let result = apriori(&txs, 100, 3);
        assert_eq!(result.total(), 0);
    }
}
