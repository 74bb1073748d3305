//! Typed failures of the scenario engine (hand-rolled `thiserror` style:
//! an enum, a `Display` impl, `std::error::Error`, and `From` conversions —
//! the workspace is hermetic, so no derive macros).
//!
//! `Scenario::run` returns `Result`, and the experiment runner propagates
//! failures instead of dying mid-sweep.

use ldp_protocols::{Metric, ProtocolError};
use std::fmt;

/// Everything that can go wrong assembling or running a scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// The graph does not have exactly `n_genuine` nodes.
    PopulationMismatch {
        /// Nodes in the supplied graph.
        graph_nodes: usize,
        /// Genuine users the threat model declares.
        n_genuine: usize,
    },
    /// The partition does not cover the genuine users.
    PartitionMismatch {
        /// Genuine users the threat model declares.
        expected: usize,
        /// Partition entries supplied.
        got: usize,
    },
    /// The metric needs a community partition and none was supplied.
    MissingPartition {
        /// The metric that needs it.
        metric: Metric,
    },
    /// No threat model was supplied to the builder.
    MissingThreat,
    /// The threat model names no target node, so there is nothing to
    /// attack or to measure.
    NoTargets,
    /// Zero trials requested.
    NoTrials,
    /// Sampled mode was forced but the scenario cannot run analytically
    /// (wrong metric, a defense in play, no attack, or a protocol without
    /// a degree model).
    SampledModeUnavailable {
        /// Why the analytic path cannot serve this scenario.
        reason: &'static str,
    },
    /// The attack produced a different number of reports than the threat
    /// model's fake population.
    CraftedCountMismatch {
        /// Fake users the threat model declares.
        expected: usize,
        /// Crafted reports the attack produced.
        got: usize,
    },
    /// A failure surfaced by the protocol layer.
    Protocol(ProtocolError),
    /// A world-runner transport failed (e.g. the wire bridge to a remote
    /// collector lost its connection or was refused).
    Transport {
        /// Human-readable transport failure.
        detail: String,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::PopulationMismatch {
                graph_nodes,
                n_genuine,
            } => write!(
                f,
                "graph/threat population mismatch: graph has {graph_nodes} nodes, \
                 threat model declares {n_genuine} genuine users"
            ),
            ScenarioError::PartitionMismatch { expected, got } => write!(
                f,
                "partition must cover genuine users: got {got} entries for {expected} users"
            ),
            ScenarioError::MissingPartition { metric } => {
                write!(f, "{metric} needs a partition of genuine users")
            }
            ScenarioError::MissingThreat => {
                write!(
                    f,
                    "a scenario needs a threat model (ScenarioBuilder::threat)"
                )
            }
            ScenarioError::NoTargets => write!(f, "the threat model names no target node"),
            ScenarioError::NoTrials => write!(f, "at least one trial required"),
            ScenarioError::SampledModeUnavailable { reason } => {
                write!(f, "sampled mode unavailable: {reason}")
            }
            ScenarioError::CraftedCountMismatch { expected, got } => {
                write!(f, "attack crafted {got} reports for {expected} fake users")
            }
            ScenarioError::Protocol(e) => write!(f, "protocol error: {e}"),
            ScenarioError::Transport { detail } => write!(f, "transport error: {detail}"),
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Protocol(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ProtocolError> for ScenarioError {
    fn from(e: ProtocolError) -> Self {
        ScenarioError::Protocol(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_actionable() {
        let e = ScenarioError::PopulationMismatch {
            graph_nodes: 10,
            n_genuine: 12,
        };
        assert!(e.to_string().contains("population mismatch"));
        let e = ScenarioError::MissingPartition {
            metric: Metric::Modularity,
        };
        assert!(e.to_string().contains("needs a partition"));
        let e = ScenarioError::from(ProtocolError::MissingPartition);
        assert!(matches!(e, ScenarioError::Protocol(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
