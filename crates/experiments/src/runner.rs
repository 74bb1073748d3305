//! Parallel grid execution.
//!
//! The points of a figure panel are independent, so [`run_grid`] fans
//! them out over the workspace-shared parallel runtime
//! ([`ldp_graph::runtime`], where `parallel_map` was promoted once the
//! protocol layer needed it too). Each point carries its own seeds;
//! results come back in grid order regardless of thread interleaving.
//! `draw_threat` is the one threat-model draw every figure and ablation
//! makes.

use ldp_graph::{CsrGraph, Xoshiro256pp};
use poison_core::{ScenarioError, TargetSelection, ThreatModel};

pub use ldp_graph::runtime::{default_threads, parallel_map};

/// Runs `row(index, x)` at every point of the grid `xs` in parallel and
/// returns the rows in grid order, or the first error in grid order.
///
/// # Errors
/// Propagates the first failing point's error.
pub fn run_grid<X, R, F>(xs: &[X], row: F) -> Result<Vec<R>, ScenarioError>
where
    X: Copy + Send + Sync,
    R: Send,
    F: Fn(usize, X) -> Result<R, ScenarioError> + Sync,
{
    let points: Vec<(usize, X)> = xs.iter().copied().enumerate().collect();
    parallel_map(points, default_threads(), |&(xi, x)| row(xi, x))
        .into_iter()
        .collect()
}

/// The threat model with fake fraction `beta` and uniformly drawn targets
/// (fraction `gamma`) on `graph`, drawn from a generator seeded with
/// `seed`. Returns the generator too, for draws that follow the threat.
pub(crate) fn draw_threat(
    graph: &CsrGraph,
    beta: f64,
    gamma: f64,
    seed: u64,
) -> (ThreatModel, Xoshiro256pp) {
    let mut rng = Xoshiro256pp::new(seed);
    let threat =
        ThreatModel::from_fractions(graph, beta, gamma, TargetSelection::UniformRandom, &mut rng);
    (threat, rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The thorough parallel_map suite (order, fast paths, chunk coverage)
    // lives with the implementation in ldp_graph::runtime; this pins the
    // re-export so sweep call sites keep compiling against this path.
    #[test]
    fn reexported_parallel_map_works() {
        let out = parallel_map((0..50).collect::<Vec<usize>>(), 4, |&x| x + 1);
        assert_eq!(out, (1..51).collect::<Vec<_>>());
    }

    #[test]
    fn run_grid_keeps_grid_order_and_returns_the_first_error() {
        let rows = run_grid(&[3.0, 1.0, 2.0], |i, x| Ok((i, x))).unwrap();
        assert_eq!(rows, vec![(0, 3.0), (1, 1.0), (2, 2.0)]);
        let err = run_grid(&[0usize, 1, 2, 3], |_, x| match x {
            2 => Err(ScenarioError::MissingThreat),
            3 => Err(ScenarioError::NoTrials),
            _ => Ok(x),
        });
        assert!(matches!(err, Err(ScenarioError::MissingThreat)));
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
    }
}
