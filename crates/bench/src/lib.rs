//! # poison-bench
//!
//! Criterion benchmark suites for the workspace. The crate exports only
//! shared bench fixtures ([`synthetic_reports`] and the reference
//! pipeline [`manual_exact_degree`]); see the `benches/` targets:
//!
//! * `substrate` — bitset kernels, CSR/bit-matrix triangle counting,
//!   generators, randomized-response throughput;
//! * `ingest` — one-shot vs. streamed report aggregation at n ∈ {1k, 5k,
//!   10k};
//! * `protocols` — LF-GDPR collection/aggregation/estimation, LDPGen
//!   end-to-end;
//! * `attacks` — report crafting and both evaluation pipelines;
//! * `defenses` — Apriori mining and the two detectors;
//! * `figures` — one bench per paper table/figure at smoke scale;
//! * `scenario` — the scenario engine against [`manual_exact_degree`].
//!
//! Two smoke binaries assert timing gates in CI and print to stderr:
//! `scenario_smoke` (engine overhead against [`manual_exact_degree`]) and
//! `collector_smoke` (loopback-daemon throughput floors, the metrics
//! overhead budget and the journal's fsync tax).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use ldp_graph::{BitSet, CsrGraph, Xoshiro256pp};
use ldp_protocols::protocol::STREAM_ATTACK;
use ldp_protocols::{AdjacencyReport, LfGdpr};
use poison_core::{
    craft_reports, AttackOutcome, AttackStrategy, AttackerKnowledge, MgaOptions, TargetMetric,
    ThreatModel,
};
use rand::Rng;

/// Synthesizes one report over `n` users with word-level random bits at
/// ≈12.5% density (three AND-ed words — the regime an RR-perturbed graph
/// lives in), so ingestion benches isolate aggregation cost from
/// randomized-response cost.
fn synthetic_report(n: usize, rng: &mut Xoshiro256pp) -> AdjacencyReport {
    let mut bits = BitSet::new(n);
    for w in bits.words_mut() {
        *w = rng.gen::<u64>() & rng.gen::<u64>() & rng.gen::<u64>();
    }
    bits.mask_tail();
    let degree = rng.gen_range(0.0..n.max(1) as f64);
    AdjacencyReport::new(bits, degree)
}

/// A full population of synthetic reports from one seed: `n` reports
/// over `n` users, word-level random bits at ≈12.5% density.
pub fn synthetic_reports(n: usize, seed: u64) -> Vec<AdjacencyReport> {
    let mut rng = Xoshiro256pp::new(seed);
    (0..n).map(|_| synthetic_report(n, &mut rng)).collect()
}

/// The exact LF-GDPR + MGA degree-centrality pipeline written out by
/// hand (collect → aggregate → craft → swap tail → aggregate →
/// estimate): what `run_lfgdpr_attack` did before it became a wrapper
/// over the scenario engine. The engine must match it to the bit, at a
/// cost in the noise.
pub fn manual_exact_degree(
    graph: &CsrGraph,
    protocol: &LfGdpr,
    threat: &ThreatModel,
    seed: u64,
) -> AttackOutcome {
    let extended = graph.with_isolated_nodes(threat.m_fake);
    let base = Xoshiro256pp::new(seed);
    let mut reports = protocol.collect_honest(&extended, &base);
    let view_before = protocol.aggregate(&reports);
    let before: Vec<f64> = threat
        .targets
        .iter()
        .map(|&t| view_before.degree_centrality(t))
        .collect();
    let knowledge =
        AttackerKnowledge::derive(protocol, threat.population(), graph.average_degree());
    let mut attack_rng = base.derive(STREAM_ATTACK);
    let crafted = craft_reports(
        AttackStrategy::Mga,
        TargetMetric::DegreeCentrality,
        protocol,
        threat,
        &knowledge,
        MgaOptions::default(),
        &mut attack_rng,
    );
    for (offset, report) in crafted.into_iter().enumerate() {
        reports[threat.n_genuine + offset] = report;
    }
    let view_after = protocol.aggregate(&reports);
    let after: Vec<f64> = threat
        .targets
        .iter()
        .map(|&t| view_after.degree_centrality(t))
        .collect();
    AttackOutcome::new(before, after)
}
