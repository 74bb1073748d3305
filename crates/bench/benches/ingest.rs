//! Report-aggregation throughput: one-shot `from_reports` versus the
//! streaming engine at the population sizes the scaling roadmap targets.
//!
//! Reports are synthesized at the word level (≈12.5% density, the regime a
//! perturbed graph lives in) so the bench isolates ingestion cost from
//! randomized-response cost.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ldp_mechanisms::RandomizedResponse;
use ldp_protocols::{PerturbedView, StreamingAggregator};
use poison_bench::synthetic_reports;

fn rr() -> RandomizedResponse {
    RandomizedResponse::from_keep_probability(0.9).unwrap()
}

fn bench_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("ingest");
    group.sample_size(10);
    for nodes in [1_000usize, 5_000, 10_000] {
        let reports = synthetic_reports(nodes, 0xBE57 + nodes as u64);
        group.bench_with_input(BenchmarkId::new("oneshot", nodes), &nodes, |bench, _| {
            bench.iter(|| black_box(PerturbedView::from_reports(&reports, rr())))
        });
        group.bench_with_input(
            BenchmarkId::new("streamed_512", nodes),
            &nodes,
            |bench, &n| {
                bench.iter(|| {
                    let mut agg = StreamingAggregator::new(n, rr());
                    for chunk in reports.chunks(512) {
                        agg.ingest_batch(chunk);
                    }
                    black_box(agg.finalize())
                })
            },
        );
    }
    group.finish();
}

/// The clustering-estimation kernel over a finalized view: per-node
/// triangle counts on the dense matrix, one call of the row-streamed
/// `BitMatrix::triangles_at_many` over every node. Counting each triangle
/// once via the word prefix below `v` (mirroring the ingest fold's
/// `iter_ones_below` bound) halves the word traffic; this group records
/// the speedup.
fn bench_triangles(c: &mut Criterion) {
    let mut group = c.benchmark_group("triangles");
    group.sample_size(10);
    for nodes in [1_000usize, 4_000] {
        let reports = synthetic_reports(nodes, 0x7A1 + nodes as u64);
        let view = PerturbedView::from_reports(&reports, rr());
        group.bench_with_input(
            BenchmarkId::new("triangles_at_all", nodes),
            &nodes,
            |bench, _| {
                bench.iter(|| black_box(view.matrix().triangles_per_node().iter().sum::<u64>()))
            },
        );
        // The pre-PR-5 formulation (full-row intersection per neighbor,
        // halved at the end), kept as the baseline the kernel's speedup
        // is recorded against.
        group.bench_with_input(
            BenchmarkId::new("full_row_baseline", nodes),
            &nodes,
            |bench, &n| {
                bench.iter(|| {
                    let matrix = view.matrix();
                    let total: u64 = (0..n)
                        .map(|u| {
                            matrix
                                .row_indices(u)
                                .into_iter()
                                .map(|v| matrix.common_neighbors(u, v) as u64)
                                .sum::<u64>()
                                / 2
                        })
                        .sum();
                    black_box(total)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_ingest, bench_triangles);
criterion_main!(benches);
