//! Community detection.
//!
//! Modularity estimation (paper Fig. 15, following LF-GDPR) needs a node
//! partition. We provide asynchronous label propagation — fast, decent
//! quality — seeded and deterministic for a given RNG.

use crate::csr::CsrGraph;
use rand::Rng;
use std::collections::HashMap;

/// Detects communities by asynchronous label propagation.
///
/// Every node starts in its own community; nodes adopt the most frequent
/// label among their neighbors (ties broken by smallest label) until a full
/// sweep changes nothing or `max_sweeps` is hit. Labels in the result are
/// compacted to `0..k`.
pub fn label_propagation<R: Rng>(g: &CsrGraph, max_sweeps: usize, rng: &mut R) -> Vec<usize> {
    let n = g.num_nodes();
    let mut labels: Vec<usize> = (0..n).collect();
    if n == 0 {
        return labels;
    }
    let mut order: Vec<usize> = (0..n).collect();
    let mut counts: HashMap<usize, usize> = HashMap::new();
    for _ in 0..max_sweeps {
        // Fisher–Yates shuffle for sweep order.
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let mut changed = false;
        for &u in &order {
            if g.degree(u) == 0 {
                continue;
            }
            counts.clear();
            for &v in g.neighbors(u) {
                *counts.entry(labels[v as usize]).or_insert(0) += 1;
            }
            // Most frequent neighbor label, smallest label on ties.
            let mut best = labels[u];
            let mut best_count = 0;
            // ldp-lint: allow(unordered-iter) -- max-count/min-label argmax
            // is a pure selection: the winner is the same whatever order
            // the (label, count) pairs are visited in
            for (&label, &count) in counts.iter() {
                if count > best_count || (count == best_count && label < best) {
                    best = label;
                    best_count = count;
                }
            }
            if best != labels[u] {
                labels[u] = best;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    compact_labels(&mut labels);
    labels
}

/// Renumbers labels to the dense range `0..k`, preserving first-appearance
/// order. Returns the number of communities `k`.
pub fn compact_labels(labels: &mut [usize]) -> usize {
    let mut remap: HashMap<usize, usize> = HashMap::new();
    for l in labels.iter_mut() {
        let next = remap.len();
        let id = *remap.entry(*l).or_insert(next);
        *l = id;
    }
    remap.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::modularity;
    use crate::rng::Xoshiro256pp;

    fn two_cliques() -> CsrGraph {
        // Two K5 cliques joined by a single bridge edge.
        let mut edges = Vec::new();
        for base in [0, 5] {
            for i in 0..5 {
                for j in (i + 1)..5 {
                    edges.push(((base + i) as u32, (base + j) as u32));
                }
            }
        }
        edges.push((4, 5));
        CsrGraph::from_edges(10, &edges).unwrap()
    }

    #[test]
    fn label_propagation_splits_cliques() {
        let g = two_cliques();
        let mut rng = Xoshiro256pp::new(3);
        let labels = label_propagation(&g, 20, &mut rng);
        // The two cliques should receive internally-consistent labels.
        for i in 1..5 {
            assert_eq!(labels[0], labels[i], "first clique fragmented: {labels:?}");
        }
        for i in 6..10 {
            assert_eq!(labels[5], labels[i], "second clique fragmented: {labels:?}");
        }
        assert!(modularity(&g, &labels) > 0.3);
    }

    #[test]
    fn compact_labels_renumbers_densely() {
        let mut labels = vec![7, 7, 3, 9, 3];
        let k = compact_labels(&mut labels);
        assert_eq!(k, 3);
        assert_eq!(labels, vec![0, 0, 1, 2, 1]);
    }

    #[test]
    fn isolated_nodes_keep_own_labels() {
        let g = CsrGraph::from_edges(4, &[(0, 1)]).unwrap();
        let mut rng = Xoshiro256pp::new(1);
        let labels = label_propagation(&g, 10, &mut rng);
        assert_eq!(labels[0], labels[1]);
        assert_ne!(labels[2], labels[3]);
    }

    #[test]
    fn empty_graph_ok() {
        let g = CsrGraph::from_edges(0, &[]).unwrap();
        let mut rng = Xoshiro256pp::new(1);
        let labels = label_propagation(&g, 20, &mut rng);
        assert!(labels.is_empty());
    }
}
