//! Synthetic stand-ins for the paper's four SNAP datasets (Table II).
//!
//! The evaluation datasets of the paper are public SNAP graphs; this
//! environment is offline, so we generate seeded synthetic graphs matched on
//! the quantities the attacks actually depend on — node count `N`, edge
//! count `E` (hence average degree and density), a heavy-tailed degree
//! distribution, and a realistic clustering level — using the Holme–Kim
//! powerlaw-cluster model. The substitution rationale is recorded in
//! DESIGN.md §2. If you have the real edge lists, load them with
//! [`crate::io::read_edge_list_path`] instead; every downstream API takes a
//! plain [`CsrGraph`].

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::generate::holme_kim;
use crate::rng::Xoshiro256pp;
use rand::Rng;

/// The four evaluation datasets of the paper (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// Facebook ego-network survey graph: 4,039 nodes, 88,234 edges.
    Facebook,
    /// Enron email network: 36,692 nodes, 183,831 edges.
    Enron,
    /// arXiv Astro Physics collaboration network: 18,772 nodes, 198,110 edges.
    AstroPh,
    /// Google+ social circles: 107,614 nodes, 12,238,285 edges.
    ///
    /// **Memory footprint warning:** the LF-GDPR server view is a dense
    /// [`crate::BitMatrix`], `O(N²/8)` bytes — at `N = 107,614` that is
    /// `107,614² / 8 ≈ 1.45 GB` for the aggregate alone, before reports
    /// and shard state. Exact-mode evaluation at this scale needs a
    /// machine sized for it; the degree-centrality scenarios switch to the
    /// analytic sampled mode automatically, and the collection service
    /// (`ldp-collector`) *refuses* adjacency rounds above its configured
    /// population cap with a typed `PopulationCap` error rather than
    /// finding out from the OOM killer. See DESIGN.md §5.
    Gplus,
}

impl Dataset {
    /// All four datasets in the order the paper's figures use.
    pub const ALL: [Dataset; 4] = [
        Dataset::Facebook,
        Dataset::Enron,
        Dataset::AstroPh,
        Dataset::Gplus,
    ];

    /// Human-readable name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Facebook => "Facebook",
            Dataset::Enron => "Enron",
            Dataset::AstroPh => "AstroPh",
            Dataset::Gplus => "Gplus",
        }
    }

    /// Parses a dataset from its name, case-insensitively (the `--dataset`
    /// flag of the experiment binaries).
    pub fn from_name(name: &str) -> Option<Dataset> {
        Dataset::ALL
            .into_iter()
            .find(|d| d.name().eq_ignore_ascii_case(name))
    }

    /// Node count reported in Table II.
    pub fn paper_nodes(self) -> usize {
        match self {
            Dataset::Facebook => 4_039,
            Dataset::Enron => 36_692,
            Dataset::AstroPh => 18_772,
            Dataset::Gplus => 107_614,
        }
    }

    /// Edge count reported in Table II.
    pub fn paper_edges(self) -> usize {
        match self {
            Dataset::Facebook => 88_234,
            Dataset::Enron => 183_831,
            Dataset::AstroPh => 198_110,
            Dataset::Gplus => 12_238_285,
        }
    }

    /// Attachment parameter `m ≈ E/N` for the Holme–Kim generator.
    fn attachment(self) -> usize {
        let m = (self.paper_edges() as f64 / self.paper_nodes() as f64).round() as usize;
        m.max(1)
    }

    /// Triadic-closure probability, tuned to land in the clustering range
    /// of the real networks (social/collaboration graphs cluster heavily).
    fn triad_probability(self) -> f64 {
        match self {
            Dataset::Facebook => 0.70,
            Dataset::Enron => 0.50,
            Dataset::AstroPh => 0.65,
            Dataset::Gplus => 0.40,
        }
    }

    /// Generates the full-size synthetic stand-in. Deterministic in `seed`.
    ///
    /// Gplus at full size has ~12M edges; expect a few seconds and a few
    /// hundred MB. Prefer [`Dataset::generate_with_nodes`] for routine runs.
    pub fn generate(self, seed: u64) -> CsrGraph {
        self.generate_with_nodes(self.paper_nodes(), seed)
    }

    /// Generates a scaled stand-in with `nodes` nodes and the same average
    /// degree as the full dataset (density scales up accordingly).
    ///
    /// Structure: the node set is split into blocks of ~250–400 nodes; each
    /// block is an independent Holme–Kim powerlaw-cluster graph (hubs +
    /// triangles), and ~8% extra edges are sprinkled uniformly across
    /// blocks. The blocks give the stand-ins the community structure real
    /// social networks have — without it, modularity (Fig. 15) would be
    /// degenerate.
    pub fn generate_with_nodes(self, nodes: usize, seed: u64) -> CsrGraph {
        let mut rng = Xoshiro256pp::new(seed ^ (self as u64) << 32 ^ 0x5EED_DA7A);
        // Block sizes must comfortably exceed the attachment parameter.
        let min_block = (3 * self.attachment()).max(250);
        let num_blocks = (nodes / min_block).clamp(1, 12);
        let block_size = nodes / num_blocks;
        let mut builder = GraphBuilder::new(nodes);
        let mut intra_edges = 0usize;
        for b in 0..num_blocks {
            let start = b * block_size;
            let end = if b + 1 == num_blocks {
                nodes
            } else {
                start + block_size
            };
            let size = end - start;
            let m = self.attachment().min(size.saturating_sub(1) / 2).max(1);
            let mut block_rng = rng.derive(b as u64 + 1);
            let block = holme_kim(size, m, self.triad_probability(), &mut block_rng)
                .expect("dataset generation parameters are valid by construction");
            for (u, v) in block.edges() {
                builder.add_edge(start + u as usize, start + v as usize);
            }
            intra_edges += block.num_edges();
        }
        // Cross-block bridges: ~8% of the intra mass, uniform endpoints in
        // distinct blocks (skipped when there is a single block).
        if num_blocks > 1 {
            let bridges = intra_edges / 12;
            let block_of = |u: usize| (u / block_size).min(num_blocks - 1);
            let mut added = 0usize;
            let mut guard = 0usize;
            while added < bridges && guard < bridges * 20 {
                let u = rng.gen_range(0..nodes);
                let v = rng.gen_range(0..nodes);
                if block_of(u) != block_of(v) {
                    builder.add_edge(u, v);
                    added += 1;
                }
                guard += 1;
            }
        }
        builder
            .build()
            .expect("all endpoints in range by construction")
    }

    /// The ground-truth community of each node in a stand-in generated by
    /// [`Dataset::generate_with_nodes`] at the same `nodes` count (the
    /// block id). Used as the modularity partition.
    pub fn ground_truth_partition(self, nodes: usize) -> Vec<usize> {
        let min_block = (3 * self.attachment()).max(250);
        let num_blocks = (nodes / min_block).clamp(1, 12);
        let block_size = nodes / num_blocks;
        (0..nodes)
            .map(|u| (u / block_size).min(num_blocks - 1))
            .collect()
    }
}

/// One row of the paper's Table II, next to the synthetic stand-in actually
/// generated, so reports can show the substitution explicitly.
#[derive(Debug, Clone)]
pub struct DatasetStats {
    /// Which dataset.
    pub dataset: Dataset,
    /// Nodes in the paper's Table II.
    pub paper_nodes: usize,
    /// Edges in the paper's Table II.
    pub paper_edges: usize,
    /// Nodes in the generated stand-in.
    pub generated_nodes: usize,
    /// Edges in the generated stand-in.
    pub generated_edges: usize,
    /// Average degree of the stand-in.
    pub generated_avg_degree: f64,
    /// Gini coefficient of the stand-in's degree sequence — the heavy-tail
    /// indicator (social networks sit well above the ~0 of regular graphs).
    pub generated_degree_gini: f64,
    /// Maximum degree of the stand-in.
    pub generated_max_degree: usize,
}

/// Tabulates `g`, a stand-in for `dataset`, against Table II.
pub fn table2_row(dataset: Dataset, g: &CsrGraph) -> DatasetStats {
    DatasetStats {
        dataset,
        paper_nodes: dataset.paper_nodes(),
        paper_edges: dataset.paper_edges(),
        generated_nodes: g.num_nodes(),
        generated_edges: g.num_edges(),
        generated_avg_degree: g.average_degree(),
        generated_degree_gini: crate::metrics::degree_gini(g),
        generated_max_degree: g.max_degree(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::average_clustering_coefficient;

    #[test]
    fn from_name_is_case_insensitive_and_total() {
        assert_eq!(Dataset::from_name("facebook"), Some(Dataset::Facebook));
        assert_eq!(Dataset::from_name("GPLUS"), Some(Dataset::Gplus));
        assert_eq!(Dataset::from_name("AstroPh"), Some(Dataset::AstroPh));
        assert_eq!(Dataset::from_name("nope"), None);
        for d in Dataset::ALL {
            assert_eq!(Dataset::from_name(d.name()), Some(d));
        }
    }

    #[test]
    fn table2_constants_match_paper() {
        assert_eq!(Dataset::Facebook.paper_nodes(), 4_039);
        assert_eq!(Dataset::Facebook.paper_edges(), 88_234);
        assert_eq!(Dataset::Enron.paper_nodes(), 36_692);
        assert_eq!(Dataset::AstroPh.paper_edges(), 198_110);
        assert_eq!(Dataset::Gplus.paper_nodes(), 107_614);
    }

    #[test]
    fn scaled_facebook_matches_average_degree() {
        let g = Dataset::Facebook.generate_with_nodes(1_010, 7);
        let facebook = Dataset::Facebook;
        let paper_avg = 2.0 * facebook.paper_edges() as f64 / facebook.paper_nodes() as f64;
        let got = g.average_degree();
        assert!(
            (got - paper_avg).abs() / paper_avg < 0.15,
            "avg degree {got} should approximate paper {paper_avg}"
        );
    }

    #[test]
    fn stand_in_is_clustered() {
        let g = Dataset::Facebook.generate_with_nodes(800, 3);
        assert!(
            average_clustering_coefficient(&g) > 0.1,
            "social-network stand-in must have non-trivial clustering"
        );
    }

    #[test]
    fn deterministic_per_seed_and_distinct_across_datasets() {
        let a = Dataset::Enron.generate_with_nodes(500, 11);
        let b = Dataset::Enron.generate_with_nodes(500, 11);
        assert_eq!(a, b);
        let c = Dataset::AstroPh.generate_with_nodes(500, 11);
        assert_ne!(a, c, "different datasets must not reuse the RNG stream");
    }

    #[test]
    fn table2_row_reports_both_sides() {
        let g = Dataset::AstroPh.generate_with_nodes(939, 5);
        let row = table2_row(Dataset::AstroPh, &g);
        assert_eq!(row.paper_nodes, 18_772);
        assert_eq!(row.generated_nodes, 939);
        assert_eq!(row.generated_edges, g.num_edges());
        assert!(row.generated_edges > 0);
    }

    #[test]
    fn stand_in_has_community_structure() {
        use crate::metrics::modularity;
        let nodes = 900;
        let g = Dataset::Facebook.generate_with_nodes(nodes, 5);
        let partition = Dataset::Facebook.ground_truth_partition(nodes);
        assert_eq!(partition.len(), nodes);
        let q = modularity(&g, &partition);
        assert!(
            q > 0.3,
            "block partition should have high modularity, got {q}"
        );
    }

    #[test]
    fn ground_truth_partition_matches_blocks() {
        let p = Dataset::Enron.ground_truth_partition(1000);
        let k = p.iter().copied().max().unwrap() + 1;
        assert!(k >= 2, "1000 nodes should split into multiple blocks");
        assert!(p.windows(2).all(|w| w[1] >= w[0]), "blocks are contiguous");
    }
}
