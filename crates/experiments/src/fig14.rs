//! Exp 9 / Fig. 14: attacks on LF-GDPR and LDPGen for the **clustering
//! coefficient**, sweeping ε (Facebook stand-in).
//!
//! Both panels run through one generic ε-panel helper over the
//! [`GraphLdpProtocol`] trait — the only difference between them is which
//! protocol the ε grid instantiates. Expected shape: all attacks land on
//! both protocols; MGA generally best.

use crate::config::{defaults, grids, ExperimentConfig};
use crate::output::Figure;
use crate::runner::run_grid;
use ldp_graph::datasets::Dataset;
use ldp_graph::{CsrGraph, Xoshiro256pp};
use ldp_protocols::{GraphLdpProtocol, LdpGen, LfGdpr, Metric};
use poison_core::scenario::Scenario;
use poison_core::{
    attack_for, AttackStrategy, MgaOptions, ScenarioError, TargetSelection, ThreatModel,
};

/// The threat model both figures share (tagged per panel so the two
/// protocols face independently drawn targets, as in the paper runs).
pub(crate) fn panel_threat(cfg: &ExperimentConfig, graph: &CsrGraph, tag: u64) -> ThreatModel {
    let mut threat_rng = Xoshiro256pp::new(cfg.seed ^ tag);
    ThreatModel::from_fractions(
        graph,
        defaults::BETA,
        defaults::GAMMA,
        TargetSelection::UniformRandom,
        &mut threat_rng,
    )
}

/// One ε-sweep panel for *any* protocol: per grid point, instantiate the
/// protocol at ε and run all three attacks through the scenario engine.
/// This is the shape both Fig. 14 and Fig. 15 panels share — the protocol
/// enters only as a constructor, so adding a third protocol to these
/// figures is a one-line factory.
///
/// # Errors
/// Propagates the first scenario failure.
#[allow(clippy::too_many_arguments)] // one slot per figure knob, all named at call sites
pub(crate) fn epsilon_panel<P>(
    cfg: &ExperimentConfig,
    graph: &CsrGraph,
    threat: &ThreatModel,
    partition: Option<&[usize]>,
    make_protocol: impl Fn(f64) -> P + Sync,
    metric: Metric,
    epsilons: &[f64],
    title: &str,
    y_label: &str,
) -> Result<Figure, ScenarioError>
where
    P: GraphLdpProtocol + Copy,
{
    let rows = run_grid(epsilons, |xi, epsilon| {
        let protocol = make_protocol(epsilon);
        AttackStrategy::ALL
            .iter()
            .map(|&strategy| {
                let mut builder = Scenario::on(protocol)
                    .attack(attack_for(strategy, MgaOptions::default()))
                    .metric(metric)
                    .threat(threat.clone())
                    .trials(cfg.trials)
                    .seed(cfg.seed ^ ((xi as u64) << 12));
                if let Some(partition) = partition {
                    builder = builder.partition(partition);
                }
                builder.run(graph).map(|report| report.mean_gain())
            })
            .collect::<Result<Vec<f64>, ScenarioError>>()
    })?;
    Ok(Figure::new(title, "epsilon", y_label, epsilons.to_vec())
        .with_columns(AttackStrategy::ALL.map(|s| s.name()), &rows))
}

/// Panel (a): LF-GDPR clustering-coefficient gains over ε.
///
/// # Errors
/// Propagates the first scenario failure.
pub fn run_panel_a(cfg: &ExperimentConfig, epsilons: &[f64]) -> Result<Figure, ScenarioError> {
    let graph = cfg.graph_for(Dataset::Facebook);
    let threat = panel_threat(cfg, &graph, 0x0F14_000A);
    epsilon_panel(
        cfg,
        &graph,
        &threat,
        None,
        |epsilon| LfGdpr::new(epsilon).expect("positive epsilon grid"),
        Metric::Clustering,
        epsilons,
        "Fig 14(a) LF-GDPR",
        "clustering-coefficient gain",
    )
}

/// Panel (b): LDPGen clustering-coefficient gains over ε.
///
/// # Errors
/// Propagates the first scenario failure.
pub fn run_panel_b(cfg: &ExperimentConfig, epsilons: &[f64]) -> Result<Figure, ScenarioError> {
    let graph = cfg.graph_for(Dataset::Facebook);
    let threat = panel_threat(cfg, &graph, 0x0F14_000B);
    epsilon_panel(
        cfg,
        &graph,
        &threat,
        None,
        |epsilon| LdpGen::with_defaults(epsilon).expect("positive epsilon grid"),
        Metric::Clustering,
        epsilons,
        "Fig 14(b) LDPGen",
        "clustering-coefficient gain",
    )
}

/// Runs both panels on the paper's ε grid.
///
/// # Errors
/// Propagates the first scenario failure.
pub fn run(cfg: &ExperimentConfig) -> Result<Vec<Figure>, ScenarioError> {
    Ok(vec![
        run_panel_a(cfg, &grids::EPSILONS)?,
        run_panel_b(cfg, &grids::EPSILONS)?,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_panels_smoke() {
        let cfg = ExperimentConfig {
            scale: 0.25,
            trials: 1,
            seed: 53,
        };
        let a = run_panel_a(&cfg, &[4.0]).unwrap();
        let b = run_panel_b(&cfg, &[4.0]).unwrap();
        for fig in [a, b] {
            assert_eq!(fig.series.len(), 3);
            assert!(fig
                .series
                .iter()
                .all(|s| s.values.iter().all(|v| v.is_finite())));
        }
    }
}
