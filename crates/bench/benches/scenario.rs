//! Scenario-engine overhead: the unified builder versus
//! [`manual_exact_degree`], the hand-inlined replica of the pre-refactor
//! pipeline (collect → aggregate → craft → swap tail → aggregate →
//! estimate). The engine's cost on top of the protocol work — trait
//! dispatch, report-enum wrapping, adapters — must stay in the noise
//! (the `scenario_smoke` binary gates the same comparison in CI).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ldp_graph::datasets::Dataset;
use ldp_graph::Xoshiro256pp;
use ldp_protocols::{LdpGen, LfGdpr, Metric};
use poison_bench::manual_exact_degree;
use poison_core::scenario::Scenario;
use poison_core::{AttackOutcome, Mga, TargetSelection, ThreatModel};

fn setup(nodes: usize) -> (ldp_graph::CsrGraph, LfGdpr, ThreatModel) {
    let graph = Dataset::Facebook.generate_with_nodes(nodes, 21);
    let protocol = LfGdpr::new(4.0).unwrap();
    let mut rng = Xoshiro256pp::new(22);
    let threat =
        ThreatModel::from_fractions(&graph, 0.05, 0.05, TargetSelection::UniformRandom, &mut rng);
    (graph, protocol, threat)
}

fn engine_exact_degree(
    graph: &ldp_graph::CsrGraph,
    protocol: &LfGdpr,
    threat: &ThreatModel,
    seed: u64,
) -> AttackOutcome {
    Scenario::on(*protocol)
        .attack(Mga::default())
        .metric(Metric::Degree)
        .threat(threat.clone())
        .exact()
        .seed(seed)
        .run(graph)
        .unwrap()
        .into_single_outcome()
}

fn bench_engine_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("scenario_engine");
    group.sample_size(10);
    let (graph, protocol, threat) = setup(500);
    // Sanity: the two paths are bit-identical before they are compared on
    // time.
    let a = manual_exact_degree(&graph, &protocol, &threat, 41);
    let b = engine_exact_degree(&graph, &protocol, &threat, 41);
    assert_eq!(a.before, b.before);
    assert_eq!(a.after, b.after);

    group.bench_function("manual_exact_degree_500", |bench| {
        bench.iter(|| black_box(manual_exact_degree(&graph, &protocol, &threat, 41)))
    });
    group.bench_function("builder_exact_degree_500", |bench| {
        bench.iter(|| black_box(engine_exact_degree(&graph, &protocol, &threat, 41)))
    });
    group.bench_function("builder_sampled_degree_500", |bench| {
        bench.iter(|| {
            black_box(
                Scenario::on(protocol)
                    .attack(Mga::default())
                    .metric(Metric::Degree)
                    .threat(threat.clone())
                    .sampled()
                    .seed(43)
                    .run(&graph)
                    .unwrap(),
            )
        })
    });
    group.finish();
}

fn bench_ldpgen_scenarios(c: &mut Criterion) {
    let mut group = c.benchmark_group("scenario_ldpgen");
    group.sample_size(10);
    let graph = Dataset::Facebook.generate_with_nodes(300, 23);
    let protocol = LdpGen::with_defaults(4.0).unwrap();
    let mut rng = Xoshiro256pp::new(24);
    let threat =
        ThreatModel::from_fractions(&graph, 0.05, 0.05, TargetSelection::UniformRandom, &mut rng);
    group.bench_function("builder_clustering_300", |bench| {
        bench.iter(|| {
            black_box(
                Scenario::on(protocol)
                    .attack(Mga::default())
                    .metric(Metric::Clustering)
                    .threat(threat.clone())
                    .seed(45)
                    .run(&graph)
                    .unwrap(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_engine_overhead, bench_ldpgen_scenarios);
criterion_main!(benches);
