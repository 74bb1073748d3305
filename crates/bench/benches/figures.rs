//! One bench per paper table/figure: each target times the harness that
//! regenerates the corresponding artifact, at a reduced (smoke) scale so
//! `cargo bench` completes in minutes. The full-scale artifacts come from
//! the `poison-experiments` binaries (`cargo run -p poison-experiments
//! --bin fig6`, …); these benches guarantee every regeneration path is
//! exercised and report its cost.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use poison_experiments as px;
use px::ExperimentConfig;

fn smoke() -> ExperimentConfig {
    ExperimentConfig {
        scale: 0.1,
        trials: 1,
        seed: 99,
    }
}

fn bench_tables(c: &mut Criterion) {
    let mut group = c.benchmark_group("tables");
    group.sample_size(10);
    let cfg = smoke();
    group.bench_function("table2", |b| b.iter(|| black_box(px::table2::run(&cfg))));
    group.bench_function("table3", |b| {
        b.iter(|| black_box(px::table3::to_markdown()))
    });
    group.finish();
}

fn bench_attack_figures(c: &mut Criterion) {
    let mut group = c.benchmark_group("figures_attack");
    group.sample_size(10);
    let cfg = smoke();
    group.bench_function("fig6_point", |b| {
        b.iter(|| black_box(px::sweep::FIG6.run_with_grid(&cfg, &[4.0], None)))
    });
    group.bench_function("fig7_point", |b| {
        b.iter(|| black_box(px::sweep::FIG7.run_with_grid(&cfg, &[0.05], None)))
    });
    group.bench_function("fig8_point", |b| {
        b.iter(|| black_box(px::sweep::FIG8.run_with_grid(&cfg, &[0.05], None)))
    });
    group.bench_function("fig9_point", |b| {
        b.iter(|| black_box(px::sweep::FIG9.run_with_grid(&cfg, &[4.0], None)))
    });
    group.bench_function("fig10_point", |b| {
        b.iter(|| black_box(px::sweep::FIG10.run_with_grid(&cfg, &[0.05], None)))
    });
    group.bench_function("fig11_point", |b| {
        b.iter(|| black_box(px::sweep::FIG11.run_with_grid(&cfg, &[0.05], None)))
    });
    group.finish();
}

fn bench_defense_figures(c: &mut Criterion) {
    let mut group = c.benchmark_group("figures_defense");
    group.sample_size(10);
    let cfg = smoke();
    group.bench_function("fig12a_point", |b| {
        b.iter(|| black_box(px::fig12::run_panel_a(&cfg, &[100])))
    });
    group.bench_function("fig12b_point", |b| {
        b.iter(|| black_box(px::fig12::run_panel_b(&cfg, &[0.05])))
    });
    group.bench_function("fig13a_point", |b| {
        b.iter(|| black_box(px::fig13::run_panel_a(&cfg, &[100])))
    });
    group.bench_function("fig13b_point", |b| {
        b.iter(|| black_box(px::fig13::run_panel_b(&cfg, &[0.05])))
    });
    group.finish();
}

fn bench_protocol_figures(c: &mut Criterion) {
    let mut group = c.benchmark_group("figures_protocols");
    group.sample_size(10);
    let cfg = smoke();
    group.bench_function("fig14a_point", |b| {
        b.iter(|| black_box(px::fig14::run_panel_a(&cfg, &[4.0])))
    });
    group.bench_function("fig14b_point", |b| {
        b.iter(|| black_box(px::fig14::run_panel_b(&cfg, &[4.0])))
    });
    group.bench_function("fig15a_point", |b| {
        b.iter(|| black_box(px::fig15::run_panel_a(&cfg, &[4.0])))
    });
    group.bench_function("fig15b_point", |b| {
        b.iter(|| black_box(px::fig15::run_panel_b(&cfg, &[4.0])))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_tables,
    bench_attack_figures,
    bench_defense_figures,
    bench_protocol_figures
);
criterion_main!(benches);
