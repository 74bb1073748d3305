//! Substrate performance: bitset kernels, graph construction, exact
//! metrics, generators, and randomized-response throughput (one row, and
//! one honest LF-GDPR collection at Fig. 13's size). These are the
//! primitives every experiment spends its time in.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ldp_graph::datasets::Dataset;
use ldp_graph::generate::{barabasi_albert, erdos_renyi_gnp, holme_kim};
use ldp_graph::metrics::{local_clustering_coefficients, triangles_per_node};
use ldp_graph::{BitMatrix, BitSet, CsrGraph, Xoshiro256pp};
use ldp_mechanisms::RandomizedResponse;
use ldp_protocols::LfGdpr;

fn bench_bitset_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitset");
    for nbits in [4_096usize, 65_536] {
        let a = BitSet::from_indices(nbits, (0..nbits).step_by(7));
        let b = BitSet::from_indices(nbits, (0..nbits).step_by(11));
        group.bench_with_input(
            BenchmarkId::new("intersection_count", nbits),
            &nbits,
            |bench, _| bench.iter(|| black_box(a.intersection_count(&b))),
        );
        group.bench_with_input(BenchmarkId::new("iter_ones", nbits), &nbits, |bench, _| {
            bench.iter(|| black_box(a.iter_ones().sum::<usize>()))
        });
    }
    group.finish();
}

fn bench_graph_construction(c: &mut Criterion) {
    let mut rng = Xoshiro256pp::new(1);
    let g = erdos_renyi_gnp(2_000, 0.01, &mut rng).unwrap();
    let edges: Vec<(u32, u32)> = g.edges().collect();
    c.bench_function("csr_from_edges_2000", |bench| {
        bench.iter(|| CsrGraph::from_edges(2_000, black_box(&edges)).unwrap())
    });
}

fn bench_triangle_counting(c: &mut Criterion) {
    let mut group = c.benchmark_group("triangles");
    let mut rng = Xoshiro256pp::new(2);
    let sparse = barabasi_albert(2_000, 10, &mut rng).unwrap();
    group.bench_function("csr_sparse_2000", |bench| {
        bench.iter(|| black_box(triangles_per_node(&sparse)))
    });
    let mut rng = Xoshiro256pp::new(3);
    let dense_graph = erdos_renyi_gnp(1_000, 0.2, &mut rng).unwrap();
    let dense = BitMatrix::from_csr(&dense_graph);
    group.bench_function("bitmatrix_dense_1000", |bench| {
        bench.iter(|| black_box(dense.triangles_per_node()))
    });
    group.finish();
}

fn bench_clustering(c: &mut Criterion) {
    let mut rng = Xoshiro256pp::new(4);
    let g = holme_kim(3_000, 10, 0.6, &mut rng).unwrap();
    c.bench_function("local_clustering_3000", |bench| {
        bench.iter(|| black_box(local_clustering_coefficients(&g)))
    });
}

fn bench_generators(c: &mut Criterion) {
    let mut group = c.benchmark_group("generate");
    group.sample_size(10);
    group.bench_function("holme_kim_5000_m10", |bench| {
        bench.iter(|| {
            let mut rng = Xoshiro256pp::new(5);
            black_box(holme_kim(5_000, 10, 0.6, &mut rng).unwrap())
        })
    });
    group.bench_function("facebook_stand_in_4039", |bench| {
        bench.iter(|| black_box(Dataset::Facebook.generate_with_nodes(4_039, 6)))
    });
    group.finish();
}

fn bench_randomized_response(c: &mut Criterion) {
    let mut group = c.benchmark_group("randomized_response");
    let n = 4_039;
    let truth = BitSet::from_indices(n, (0..n).step_by(90));
    for epsilon in [1.0f64, 4.0] {
        let flips = RandomizedResponse::new(epsilon / 2.0)
            .unwrap()
            .flip_sampler();
        group.bench_with_input(
            BenchmarkId::new("perturb_bitvector_4039", format!("eps{epsilon}")),
            &epsilon,
            |bench, _| {
                let mut rng = Xoshiro256pp::new(7);
                bench.iter(|| black_box(flips.perturb_bitset(&truth, Some(0), &mut rng)))
            },
        );
    }
    // Fig. 13's collection: the Facebook stand-in plus its 5% fake tail
    // (4,240 users) at ε = 4, so each of the N − 1 bits flips with
    // probability ≈ 0.119.
    let graph = Dataset::Facebook.generate_with_nodes(4_240, 6);
    let protocol = LfGdpr::new(4.0).unwrap();
    let base = Xoshiro256pp::new(8);
    group.sample_size(10);
    group.bench_function("collect_honest_4240", |bench| {
        bench.iter(|| black_box(protocol.collect_honest(&graph, &base)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_bitset_kernels,
    bench_graph_construction,
    bench_triangle_counting,
    bench_clustering,
    bench_generators,
    bench_randomized_response
);
criterion_main!(benches);
