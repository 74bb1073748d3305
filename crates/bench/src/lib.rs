//! # poison-bench
//!
//! The reference pipeline [`manual_exact_degree`] and two smoke binaries
//! that assert timing gates in CI and print to stderr:
//! `scenario_smoke` (engine overhead against [`manual_exact_degree`]) and
//! `collector_smoke` (loopback-daemon throughput floors, the metrics
//! overhead budget and the journal's fsync tax). The tier-1 test
//! `tests/engine_matches_manual.rs` pins the scenario engine to
//! [`manual_exact_degree`] bit for bit. perfbench (`BENCHMARK.json`) is
//! the benchmark of record.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use ldp_graph::{CsrGraph, Xoshiro256pp};
use ldp_protocols::protocol::STREAM_ATTACK;
use ldp_protocols::LfGdpr;
use poison_core::{
    craft_reports, AttackOutcome, AttackStrategy, AttackerKnowledge, MgaOptions, TargetMetric,
    ThreatModel,
};

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
