//! Scenario-engine smoke benchmark, run in CI after the unit suites:
//! the unified builder versus [`manual_exact_degree`], the hand-inlined
//! replica of the pre-refactor exact pipeline.
//!
//! The two paths are asserted bit-identical first; then the
//! median-of-reps wall-clock of each and the engine's relative overhead
//! are printed to stderr. The overhead must stay small (the builder adds
//! trait dispatch and adapters, not protocol work — target ≤ 2%,
//! hard-failed at 25% to catch gross regressions without flaking on
//! machine noise).

use ldp_graph::datasets::Dataset;
use ldp_graph::Xoshiro256pp;
use ldp_protocols::{LfGdpr, Metric};
use poison_bench::manual_exact_degree;
use poison_core::scenario::Scenario;
use poison_core::{Mga, TargetSelection, ThreatModel};
use std::time::Instant;

const NODES: usize = 400;
const REPS: usize = 7;
const SEED: u64 = 61;

fn median_ms(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn main() {
    let graph = Dataset::Facebook.generate_with_nodes(NODES, 21);
    let protocol = LfGdpr::new(4.0).expect("valid budget");
    let mut rng = Xoshiro256pp::new(22);
    let threat =
        ThreatModel::from_fractions(&graph, 0.05, 0.05, TargetSelection::UniformRandom, &mut rng);

    let engine = |seed: u64| {
        Scenario::on(protocol)
            .attack(Mga::default())
            .metric(Metric::Degree)
            .threat(threat.clone())
            .exact()
            .seed(seed)
            .run(&graph)
            .expect("valid scenario")
            .into_single_outcome()
    };

    // Equivalence before timing.
    let manual = manual_exact_degree(&graph, &protocol, &threat, SEED);
    let built = engine(SEED);
    assert_eq!(manual.before, built.before, "paths must be bit-identical");
    assert_eq!(manual.after, built.after, "paths must be bit-identical");

    // Warm-up, then interleaved reps so drift hits both paths equally.
    let _ = manual_exact_degree(&graph, &protocol, &threat, SEED);
    let _ = engine(SEED);
    let mut manual_samples = Vec::with_capacity(REPS);
    let mut engine_samples = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let start = Instant::now();
        std::hint::black_box(manual_exact_degree(&graph, &protocol, &threat, SEED));
        manual_samples.push(start.elapsed().as_secs_f64() * 1e3);
        let start = Instant::now();
        std::hint::black_box(engine(SEED));
        engine_samples.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let manual_ms = median_ms(manual_samples);
    let builder_ms = median_ms(engine_samples);
    let overhead_pct = (builder_ms - manual_ms) / manual_ms * 100.0;

    eprintln!(
        "scenario engine: n={NODES}, {REPS} reps, manual {manual_ms:.3} ms, \
         builder {builder_ms:.3} ms, overhead {overhead_pct:.2}%"
    );

    assert!(
        overhead_pct < 25.0,
        "engine overhead {overhead_pct:.2}% is far beyond the ≤2% target"
    );
}
