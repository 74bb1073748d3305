//! Incremental graph construction.
//!
//! [`GraphBuilder`] accumulates edges (from the generators and the dataset
//! stand-ins) and finalizes into a [`CsrGraph`]. Deduplication and
//! self-loop removal are delegated to the CSR constructor, so the builder
//! itself stays allocation-friendly: one growing edge vector.

use crate::csr::CsrGraph;
use crate::error::GraphError;

/// Accumulates edges for a graph on a fixed number of nodes.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    num_nodes: usize,
    edges: Vec<(u32, u32)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `num_nodes` nodes and no edges.
    pub fn new(num_nodes: usize) -> Self {
        GraphBuilder {
            num_nodes,
            edges: Vec::new(),
        }
    }

    /// Creates a builder pre-sized for an expected number of edges.
    pub fn with_capacity(num_nodes: usize, edges: usize) -> Self {
        GraphBuilder {
            num_nodes,
            edges: Vec::with_capacity(edges),
        }
    }

    /// Number of nodes the final graph will have.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of edge records added so far (before dedup).
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True if no edges have been added.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Adds an undirected edge. Out-of-range endpoints are detected at
    /// [`Self::build`] time; self-loops are silently dropped there too.
    #[inline]
    pub fn add_edge(&mut self, u: usize, v: usize) {
        self.edges.push((u as u32, v as u32));
    }

    /// Finalizes into a CSR graph.
    ///
    /// # Errors
    /// Returns [`GraphError::NodeOutOfRange`] if any recorded endpoint is
    /// `>= num_nodes()`.
    pub fn build(self) -> Result<CsrGraph, GraphError> {
        CsrGraph::from_edges(self.num_nodes, &self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_simple_graph() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let g = b.build().unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn out_of_range_detected_at_build() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 5);
        assert!(b.build().is_err());
    }

    #[test]
    fn len_counts_records_before_dedup() {
        let mut b = GraphBuilder::new(5);
        assert!(b.is_empty());
        for (u, v) in [(0, 1), (1, 2), (0, 1)] {
            b.add_edge(u, v);
        }
        assert_eq!(b.len(), 3);
        let g = b.build().unwrap();
        assert_eq!(g.num_edges(), 2, "duplicates removed at build");
    }
}
