//! Defense performance: Apriori mining over uploaded bit vectors and the
//! two detectors applied to a poisoned population, at 1,050 users and at
//! Fig. 13's scale (the full Facebook stand-in plus its 5% MGA tail).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ldp_graph::datasets::Dataset;
use ldp_graph::{BitSet, Xoshiro256pp};
use ldp_protocols::LfGdpr;
use poison_core::{
    craft_reports, AttackStrategy, AttackerKnowledge, MgaOptions, TargetMetric, TargetSelection,
    ThreatModel,
};
use poison_defense::apriori::{apriori, apriori_on_columns, item_columns, PairIndex};
use poison_defense::{Defense, DegreeConsistencyDefense, FrequentItemsetDefense};

/// A Facebook stand-in of `nodes` users plus a 5% MGA tail crafted
/// against `metric` on 5% uniform targets, collected under LF-GDPR at ε = 4.
fn poisoned_reports(
    nodes: usize,
    metric: TargetMetric,
) -> (Vec<ldp_protocols::AdjacencyReport>, LfGdpr) {
    let graph = Dataset::Facebook.generate_with_nodes(nodes, 41);
    let protocol = LfGdpr::new(4.0).unwrap();
    let mut rng = Xoshiro256pp::new(42);
    let threat =
        ThreatModel::from_fractions(&graph, 0.05, 0.05, TargetSelection::UniformRandom, &mut rng);
    let knowledge =
        AttackerKnowledge::derive(&protocol, threat.population(), graph.average_degree());
    let extended = graph.with_isolated_nodes(threat.m_fake);
    let base = Xoshiro256pp::new(43);
    let mut reports = protocol.collect_honest(&extended, &base);
    let mut attack_rng = Xoshiro256pp::new(44);
    let crafted = craft_reports(
        AttackStrategy::Mga,
        metric,
        &protocol,
        &threat,
        &knowledge,
        MgaOptions::default(),
        &mut attack_rng,
    );
    for (offset, report) in crafted.into_iter().enumerate() {
        reports[threat.n_genuine + offset] = report;
    }
    (reports, protocol)
}

/// Fig. 13(a)'s Detect1 input: the full Facebook stand-in (4,039 users)
/// with the clustering-targeted MGA tail, 4,240 reports.
fn fig13_reports() -> (Vec<ldp_protocols::AdjacencyReport>, LfGdpr) {
    poisoned_reports(
        Dataset::Facebook.paper_nodes(),
        TargetMetric::ClusteringCoefficient,
    )
}

fn bench_apriori(c: &mut Criterion) {
    let mut group = c.benchmark_group("apriori");
    group.sample_size(10);
    let (reports, _) = poisoned_reports(1_000, TargetMetric::DegreeCentrality);
    let transactions: Vec<BitSet> = reports.iter().map(|r| r.bits.clone()).collect();
    group.bench_function("pairs_1050_transactions", |bench| {
        bench.iter(|| black_box(apriori(&transactions, 60)))
    });
    // Level 2 at Fig. 13's size: Θ(F²·N/64) column AND-popcounts, the part
    // of Detect1 that the partner-index scorer leaves in place. Support
    // 117 is what Detect1 derives on the Fig. 13 input.
    let (reports, _) = fig13_reports();
    let columns = item_columns(reports.iter().map(|r| &r.bits));
    group.bench_function("pairs_4240_transactions", |bench| {
        bench.iter(|| black_box(apriori_on_columns(&columns, 117)))
    });
    // The same level 2 as Detect1 runs it: pairs set straight into the
    // partner index, with no itemsets built.
    group.bench_function("pair_index_4240_transactions", |bench| {
        bench.iter(|| black_box(PairIndex::mine(&columns, 117)))
    });
    group.finish();
}

fn bench_detectors(c: &mut Criterion) {
    let mut group = c.benchmark_group("detect");
    group.sample_size(10);
    let (reports, protocol) = poisoned_reports(1_000, TargetMetric::DegreeCentrality);
    let detect1 = FrequentItemsetDefense::new(100);
    group.bench_function("detect1_1050_users", |bench| {
        bench.iter(|| {
            let mut rng = Xoshiro256pp::new(45);
            black_box(detect1.filter_reports(&reports, &protocol, &mut rng))
        })
    });
    let detect2 = DegreeConsistencyDefense::default();
    group.bench_function("detect2_1050_users", |bench| {
        bench.iter(|| {
            let mut rng = Xoshiro256pp::new(46);
            black_box(detect2.filter_reports(&reports, &protocol, &mut rng))
        })
    });
    // One Fig. 13(a) Detect1 call: mining, scoring and reconstruction.
    // Every row scores above the threshold, so every row is rebuilt.
    let (reports, protocol) = fig13_reports();
    let detect1 = FrequentItemsetDefense::new(150);
    group.bench_function("detect1_4240_users", |bench| {
        bench.iter(|| {
            let mut rng = Xoshiro256pp::new(45);
            black_box(detect1.filter_reports(&reports, &protocol, &mut rng))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_apriori, bench_detectors);
criterion_main!(benches);
