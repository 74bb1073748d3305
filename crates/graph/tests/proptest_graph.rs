//! Property tests for the graph substrate: generator contracts, metric
//! bounds, and I/O roundtrips over randomized inputs.

use ldp_graph::datasets::Dataset;
use ldp_graph::generate::{
    barabasi_albert, caveman_graph, erdos_renyi_gnm, holme_kim, watts_strogatz,
};
use ldp_graph::io::{read_edge_list, write_edge_list};
use ldp_graph::metrics::{degree_centralities, modularity, total_triangles};
use ldp_graph::{BitMatrix, Xoshiro256pp};
use proptest::prelude::*;
use rand::Rng;

/// Populations around the 64-bit word and block boundaries.
const KERNEL_SIZES: [usize; 8] = [1, 2, 63, 64, 65, 127, 129, 200];

/// Populations whose row prefixes reach 9 and 17 words, so the triangle
/// kernel's prefix AND-popcount runs the vector loops of
/// `ldp_graph::popcount`, not only their scalar remainder.
const VECTOR_SIZES: [usize; 2] = [600, 1_100];

/// A random symmetric, zero-diagonal matrix; each slot is set with
/// probability `2^-density_shift`.
fn random_symmetric(n: usize, density_shift: u32, rng: &mut Xoshiro256pp) -> BitMatrix {
    let mut m = BitMatrix::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen::<u64>() >> (64 - density_shift) == 0 {
                m.set_edge(u, v);
            }
        }
    }
    m
}

/// The edges among `N(u)`, straight from the definition. Single-bit
/// probes only: the reference shares no code with the popcount kernels.
fn naive_triangles(m: &BitMatrix, u: usize) -> u64 {
    let n = m.num_nodes();
    let neighbors: Vec<usize> = (0..n).filter(|&v| m.has_edge(u, v)).collect();
    let mut count = 0;
    for (i, &v) in neighbors.iter().enumerate() {
        for &w in &neighbors[i + 1..] {
            count += u64::from(m.has_edge(v, w));
        }
    }
    count
}

/// The row-streamed kernel equals the naive count on an unsorted node
/// list of `len` random nodes plus a duplicate, on all nodes in reverse
/// order and on the empty list, at several thread counts.
fn check_triangles_at_many(
    n: usize,
    density_shift: u32,
    seed: u64,
    len: usize,
) -> Result<(), TestCaseError> {
    let mut rng = Xoshiro256pp::new(seed);
    let m = random_symmetric(n, density_shift, &mut rng);
    let naive: Vec<u64> = (0..n).map(|u| naive_triangles(&m, u)).collect();
    let mut nodes: Vec<usize> = (0..len).map(|_| rng.gen_range(0..n)).collect();
    if let Some(&first) = nodes.first() {
        nodes.push(first);
    }
    let reversed: Vec<usize> = (0..n).rev().collect();
    for threads in [1, 2, 3, 7] {
        let got = m.triangles_at_many(&nodes, threads);
        prop_assert_eq!(got, nodes.iter().map(|&u| naive[u]).collect::<Vec<_>>());
        let got = m.triangles_at_many(&reversed, threads);
        prop_assert_eq!(got, reversed.iter().map(|&u| naive[u]).collect::<Vec<_>>());
        prop_assert!(m.triangles_at_many(&[], threads).is_empty());
    }
    prop_assert_eq!(m.triangles_per_node(), naive);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Barabási–Albert: exact edge count, minimum degree ≥ m.
    #[test]
    fn ba_contract(seed in 0u64..1000, n in 20usize..120, m in 1usize..6) {
        prop_assume!(n > m + 1);
        let mut rng = Xoshiro256pp::new(seed);
        let g = barabasi_albert(n, m, &mut rng).unwrap();
        let expected = (m + 1) * m / 2 + m * (n - m - 1);
        prop_assert_eq!(g.num_edges(), expected);
        for u in 0..n {
            prop_assert!(g.degree(u) >= m, "node {} has degree {} < m", u, g.degree(u));
        }
    }

    /// Holme–Kim keeps the BA edge-count contract for any triad probability.
    #[test]
    fn holme_kim_edge_count(seed in 0u64..1000, p_triad in 0.0f64..1.0) {
        let mut rng = Xoshiro256pp::new(seed);
        let g = holme_kim(80, 3, p_triad, &mut rng).unwrap();
        prop_assert_eq!(g.num_edges(), 4 * 3 / 2 + 3 * (80 - 4));
    }

    /// Watts–Strogatz preserves the edge count under rewiring.
    #[test]
    fn ws_edge_count(seed in 0u64..1000, beta in 0.0f64..1.0) {
        let mut rng = Xoshiro256pp::new(seed);
        let g = watts_strogatz(60, 6, beta, &mut rng).unwrap();
        prop_assert_eq!(g.num_edges(), 60 * 3);
    }

    /// G(n, m) always returns exactly m edges, for any feasible m.
    #[test]
    fn gnm_exact(seed in 0u64..1000, m in 0usize..435) {
        let mut rng = Xoshiro256pp::new(seed);
        let g = erdos_renyi_gnm(30, m, &mut rng).unwrap();
        prop_assert_eq!(g.num_edges(), m);
    }

    /// Degree centralities always lie in [0, 1].
    #[test]
    fn centrality_bounds(seed in 0u64..1000, m in 1usize..200) {
        let mut rng = Xoshiro256pp::new(seed);
        let g = erdos_renyi_gnm(25, m.min(300), &mut rng).unwrap();
        for c in degree_centralities(&g) {
            prop_assert!((0.0..=1.0).contains(&c));
        }
    }

    /// Modularity is bounded above by 1 and the single-community partition
    /// scores exactly intra/E − 1 ≤ 0 ... = 0 for any graph.
    #[test]
    fn modularity_bounds(seed in 0u64..1000, m in 1usize..150) {
        let mut rng = Xoshiro256pp::new(seed);
        let g = erdos_renyi_gnm(30, m.min(435), &mut rng).unwrap();
        prop_assume!(g.num_edges() > 0);
        let single = vec![0usize; 30];
        prop_assert!(modularity(&g, &single).abs() < 1e-9);
        let per_node: Vec<usize> = (0..30).collect();
        let q = modularity(&g, &per_node);
        prop_assert!(q <= 1.0 + 1e-9);
    }

    /// Edge-list write/read roundtrips any generated graph.
    #[test]
    fn io_roundtrip(seed in 0u64..1000, m in 0usize..100) {
        let mut rng = Xoshiro256pp::new(seed);
        let g = erdos_renyi_gnm(20, m.min(190), &mut rng).unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let (g2, _) = read_edge_list(buf.as_slice()).unwrap();
        prop_assert_eq!(g.num_edges(), g2.num_edges());
        prop_assert_eq!(total_triangles(&g), total_triangles(&g2));
    }

    /// Dense and sparse triangle counting agree on arbitrary graphs.
    #[test]
    fn dense_sparse_triangles_agree(seed in 0u64..1000, m in 0usize..200) {
        let mut rng = Xoshiro256pp::new(seed);
        let g = erdos_renyi_gnm(35, m.min(595), &mut rng).unwrap();
        let dense = BitMatrix::from_csr(&g);
        prop_assert_eq!(
            ldp_graph::metrics::triangles_per_node(&g),
            dense.triangles_per_node()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The row-streamed kernel equals the naive count on unsorted node
    /// lists with duplicates (and the empty list), at any thread count.
    #[test]
    fn triangles_at_many_matches_naive(
        seed in 0u64..1_000_000,
        size in 0usize..8,
        density_shift in 1u32..4,
        len in 0usize..16,
    ) {
        check_triangles_at_many(KERNEL_SIZES[size], density_shift, seed, len)?;
    }

    /// The blocked mirror of a lower triangle, with some of its upper
    /// twins already written, equals the `set_edge`-built matrix and is
    /// idempotent.
    #[test]
    fn mirror_lower_matches_set_edge_reference(
        seed in 0u64..1_000_000,
        size in 0usize..8,
        density_shift in 1u32..4,
    ) {
        let n = KERNEL_SIZES[size];
        let mut rng = Xoshiro256pp::new(seed);
        let mut m = BitMatrix::new(n);
        let mut reference = BitMatrix::new(n);
        for u in 0..n {
            for v in 0..u {
                if rng.gen::<u64>() >> (64 - density_shift) == 0 {
                    m.rows_mut(u, u + 1)[v / 64] |= 1u64 << (v % 64);
                    reference.set_edge(u, v);
                    // Some upper twins are already set before the mirror.
                    if rng.gen::<bool>() {
                        m.rows_mut(v, v + 1)[u / 64] |= 1u64 << (u % 64);
                    }
                }
            }
        }
        m.mirror_lower();
        prop_assert!(m.is_well_formed());
        prop_assert_eq!(&m, &reference);
        m.mirror_lower();
        prop_assert_eq!(&m, &reference);
    }
}

proptest! {
    // The reference is cubic in the node count; fewer, sparser cases keep
    // the debug-build test time in check.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// As `triangles_at_many_matches_naive`, at populations large enough
    /// for the vector popcount loops.
    #[test]
    fn triangles_at_many_matches_naive_on_long_rows(
        seed in 0u64..1_000_000,
        size in 0usize..2,
        density_shift in 3u32..6,
        len in 0usize..16,
    ) {
        check_triangles_at_many(VECTOR_SIZES[size], density_shift, seed, len)?;
    }
}

/// The triangle kernel splits its distinct targets into blocks of 1 MiB
/// of rows. At N = 4,160 a row is 65 words (520 bytes), so a block holds
/// 2,016 targets (31.5 mask words): all nodes make 3 blocks, and block
/// boundaries fall inside mask words. Each block streams only the rows
/// adjacent to its own targets; in the caveman graph (260 cliques of 16)
/// those rows differ from block to block. The sparse CSR count shares no
/// code with the dense kernel.
#[test]
fn triangles_at_many_crosses_target_blocks() {
    const PER_BLOCK: usize = (1 << 20) / 520;
    let n = 4_160;
    let mut rng = Xoshiro256pp::new(0xB10C_4160);
    let graphs = [
        erdos_renyi_gnm(n, 32 * n, &mut rng).unwrap(),
        caveman_graph(260, 16),
    ];
    let all: Vec<usize> = (0..n).collect();
    // 3,330 distinct targets (2 blocks): the non-multiples of 5 in
    // decreasing order and two multiples; then the targets on both sides
    // of the block boundary, the first and the last again.
    let mut subset: Vec<usize> = (0..n).rev().filter(|v| v % 5 != 0).collect();
    subset.extend([2_015, 0]);
    let mut distinct = subset.clone();
    distinct.sort_unstable();
    subset.extend([distinct[PER_BLOCK], distinct[PER_BLOCK - 1], 0, n - 1]);
    for g in &graphs {
        let m = BitMatrix::from_csr(g);
        let expected = ldp_graph::metrics::triangles_per_node(g);
        let want: Vec<u64> = subset.iter().map(|&u| expected[u]).collect();
        for threads in [1, 2, 3] {
            let got = m.triangles_at_many(&all, threads);
            assert_eq!(got, expected, "all nodes, {threads} threads");
            let got = m.triangles_at_many(&subset, threads);
            assert_eq!(got, want, "subset, {threads} threads");
        }
    }
}

#[test]
fn caveman_triangle_count_closed_form() {
    for (cliques, size) in [(3usize, 4usize), (5, 6), (2, 8)] {
        let g = caveman_graph(cliques, size);
        let per_clique = size * (size - 1) * (size - 2) / 6;
        // The inter-clique ring contributes one extra triangle exactly when
        // it is itself a 3-cycle (three cliques).
        let ring_triangles = usize::from(cliques == 3);
        assert_eq!(
            total_triangles(&g) as usize,
            cliques * per_clique + ring_triangles
        );
    }
}

#[test]
fn dataset_stand_ins_deterministic_and_sized() {
    for d in Dataset::ALL {
        let g1 = d.generate_with_nodes(400, 9);
        let g2 = d.generate_with_nodes(400, 9);
        assert_eq!(g1, g2, "{} stand-in not deterministic", d.name());
        assert_eq!(g1.num_nodes(), 400);
        assert!(g1.num_edges() > 0);
    }
}
