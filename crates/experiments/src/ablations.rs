//! Ablation studies (DESIGN.md §7) — design choices the paper asserts but
//! does not isolate:
//!
//! * **A1 — connection-budget cap.** MGA capped at `⌊d̃⌋` (paper) vs.
//!   uncapped: the degree-centrality gain of each, and Detect1's recall
//!   over the same worlds.
//! * **A2 — MGA padding.** Random non-target padding on/off: the
//!   degree-centrality gain of each.
//! * **A3 — prioritized fake↔fake allocation** for MGA-cc (§VI): the
//!   fake-clique pre-pay roughly doubles the clustering gain.
//! * **A4 — clustering degree source.** Paper's `ẽd` (perturbed-row
//!   degree) vs. LF-GDPR's reported degree: honest estimation error under
//!   each.

use crate::config::{defaults, ExperimentConfig};
use crate::output::Figure;
use crate::runner::draw_threat;
use ldp_graph::datasets::Dataset;
use ldp_graph::metrics::local_clustering_coefficients;
use ldp_graph::{CsrGraph, Xoshiro256pp};
use ldp_protocols::lfgdpr::{estimate_clustering_with, DegreeSource};
use ldp_protocols::{LfGdpr, Metric};
use poison_core::scenario::{Scenario, ScenarioBuilder};
use poison_core::{Mga, MgaOptions, ScenarioError, ThreatModel};
use poison_defense::FrequentItemsetDefense;

/// The Facebook stand-in, LF-GDPR at `epsilon`, and a threat model with
/// the default β and target fraction `gamma`.
fn setup(cfg: &ExperimentConfig, epsilon: f64, gamma: f64) -> (CsrGraph, LfGdpr, ThreatModel) {
    let graph = cfg.graph_for(Dataset::Facebook);
    let protocol = LfGdpr::new(epsilon).expect("positive epsilon");
    let (threat, _) = draw_threat(&graph, defaults::BETA, gamma, cfg.seed ^ 0xAB1);
    (graph, protocol, threat)
}

/// The exact-mode scenario of one MGA variant.
fn mga_scenario<'a>(
    cfg: &ExperimentConfig,
    protocol: LfGdpr,
    threat: &ThreatModel,
    metric: Metric,
    options: MgaOptions,
    seed: u64,
) -> ScenarioBuilder<'a> {
    Scenario::on(protocol)
        .attack(Mga::new(options))
        .metric(metric)
        .threat(threat.clone())
        .exact()
        .trials(cfg.trials)
        .seed(seed)
}

/// Mean gain of each MGA variant at one seed, with the Table III defaults.
fn variant_gains(
    cfg: &ExperimentConfig,
    metric: Metric,
    seed: u64,
    variants: [MgaOptions; 2],
) -> Result<Vec<f64>, ScenarioError> {
    let (graph, protocol, threat) = setup(cfg, defaults::EPSILON, defaults::GAMMA);
    variants
        .into_iter()
        .map(|options| {
            let scenario = mga_scenario(cfg, protocol, &threat, metric, options, seed);
            Ok(scenario.run(&graph)?.mean_gain())
        })
        .collect()
}

/// A1: gain and Detect1 recall, capped vs. uncapped MGA (degree
/// centrality). The cap only matters when `⌊d̃⌋ < r`, so this ablation
/// runs at ε = 8 (smallest budget) with γ = 0.25 (largest target set) —
/// the regime where stealth costs the attacker real gain. The recall is
/// Detect1's over the same worlds the gain is measured on.
///
/// # Errors
/// Propagates the first scenario failure.
pub fn budget_cap_ablation(cfg: &ExperimentConfig) -> Result<Figure, ScenarioError> {
    let (graph, protocol, threat) = setup(cfg, 8.0, 0.25);
    let uncapped = MgaOptions {
        budget_override: Some(usize::MAX),
        ..Default::default()
    };
    let (mut gain, mut recall) = (Vec::new(), Vec::new());
    for options in [MgaOptions::default(), uncapped] {
        let scenario = || {
            mga_scenario(
                cfg,
                protocol,
                &threat,
                Metric::Degree,
                options,
                cfg.seed ^ 0xA1,
            )
        };
        gain.push(scenario().run(&graph)?.mean_gain());
        let defended = scenario()
            .defend(FrequentItemsetDefense::new(100))
            .run(&graph)?;
        recall.push(
            defended
                .mean_recall()
                .expect("Detect1 ran on a fake population"),
        );
    }
    let mut fig = Figure::new(
        "Ablation A1: MGA budget cap",
        "variant (0=capped, 1=uncapped)",
        "gain / Detect1 recall",
        vec![0.0, 1.0],
    );
    fig.push_series("gain", gain);
    fig.push_series("detect1_recall", recall);
    Ok(fig)
}

/// A2: MGA padding on/off — the degree-centrality gain of each.
///
/// # Errors
/// Propagates the first scenario failure.
pub fn padding_ablation(cfg: &ExperimentConfig) -> Result<Figure, ScenarioError> {
    let bare = MgaOptions {
        pad_to_budget: false,
        ..Default::default()
    };
    let gains = variant_gains(
        cfg,
        Metric::Degree,
        cfg.seed ^ 0xA2,
        [MgaOptions::default(), bare],
    )?;
    let mut fig = Figure::new(
        "Ablation A2: MGA padding",
        "variant (0=padded, 1=bare)",
        "degree-centrality gain",
        vec![0.0, 1.0],
    );
    fig.push_series("gain", gains);
    Ok(fig)
}

/// A3: prioritized fake↔fake allocation for MGA-cc.
///
/// # Errors
/// Propagates the first scenario failure.
pub fn prioritization_ablation(cfg: &ExperimentConfig) -> Result<Figure, ScenarioError> {
    let flat = MgaOptions {
        prioritize_fake_edges: false,
        ..Default::default()
    };
    let gains = variant_gains(
        cfg,
        Metric::Clustering,
        cfg.seed ^ 0xA3,
        [MgaOptions::default(), flat],
    )?;
    let mut fig = Figure::new(
        "Ablation A3: MGA-cc prioritized allocation",
        "variant (0=prioritized, 1=flat)",
        "clustering-coefficient gain",
        vec![0.0, 1.0],
    );
    fig.push_series("gain", gains);
    Ok(fig)
}

/// A4: honest clustering-estimation error under the two degree sources.
pub fn degree_source_ablation(cfg: &ExperimentConfig) -> Figure {
    let (graph, protocol, _) = setup(cfg, defaults::EPSILON, defaults::GAMMA);
    let truth = local_clustering_coefficients(&graph);
    let base = Xoshiro256pp::new(cfg.seed ^ 0xA4);
    let view = protocol.aggregate(&protocol.collect_honest(&graph, &base));
    let mae = |source: DegreeSource| {
        let est = estimate_clustering_with(&view, source);
        est.cc
            .iter()
            .zip(&truth)
            .map(|(e, t)| (e - t).abs())
            .sum::<f64>()
            / truth.len() as f64
    };
    let mut fig = Figure::new(
        "Ablation A4: clustering degree source",
        "variant (0=perturbed-row, 1=reported)",
        "honest-estimation MAE",
        vec![0.0, 1.0],
    );
    fig.push_series(
        "mae",
        vec![mae(DegreeSource::PerturbedRow), mae(DegreeSource::Reported)],
    );
    fig
}

/// Runs all four ablations.
///
/// # Errors
/// Propagates the first scenario failure.
pub fn run(cfg: &ExperimentConfig) -> Result<Vec<Figure>, ScenarioError> {
    Ok(vec![
        budget_cap_ablation(cfg)?,
        padding_ablation(cfg)?,
        prioritization_ablation(cfg)?,
        degree_source_ablation(cfg),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_cfg() -> ExperimentConfig {
        ExperimentConfig {
            scale: 0.08,
            trials: 1,
            seed: 61,
        }
    }

    #[test]
    fn budget_cap_uncapped_gains_more() {
        let fig = budget_cap_ablation(&smoke_cfg()).unwrap();
        let gain = &fig.series[0].values;
        assert!(
            gain[1] >= gain[0],
            "uncapped MGA ({}) should gain at least the capped one ({})",
            gain[1],
            gain[0]
        );
    }

    #[test]
    fn prioritization_pays_off() {
        let fig = prioritization_ablation(&smoke_cfg()).unwrap();
        let gain = &fig.series[0].values;
        assert!(
            gain[0] > gain[1],
            "prioritized allocation ({}) should beat flat ({})",
            gain[0],
            gain[1]
        );
    }

    #[test]
    fn reported_degree_estimates_better_honestly() {
        let fig = degree_source_ablation(&smoke_cfg());
        let mae = &fig.series[0].values;
        assert!(
            mae[1] < mae[0],
            "reported-degree MAE ({}) should undercut perturbed-row MAE ({})",
            mae[1],
            mae[0]
        );
    }

    #[test]
    fn padding_leaves_gain_roughly_unchanged() {
        let fig = padding_ablation(&smoke_cfg()).unwrap();
        let gain = &fig.series[0].values;
        assert!(gain[0].is_finite() && gain[1].is_finite());
        // Padding adds random non-target edges only; the target-edge count
        // is identical, so the gain ratio stays near 1.
        let ratio = gain[0] / gain[1].max(1e-9);
        assert!(
            (0.5..2.0).contains(&ratio),
            "gain ratio {ratio} too far from 1"
        );
    }
}
