//! The scenario bridge: run the evaluation engine *over the wire*.
//!
//! [`WireWorldRunner`] implements [`poison_core::scenario::WorldRunner`]
//! on the protocol's own world builder,
//! [`LfGdpr::run_worlds_with`](ldp_protocols::LfGdpr::run_worlds_with):
//! the honest collection, attack crafting, and defense filtering run
//! client side through the same code as the in-process engine (same RNG
//! streams, same validation, same order), and only the fold of an upload
//! set into a server view differs — here it is a *round over TCP*,
//! reports encoded frame by frame, sharded and aggregated by the daemon,
//! the finalized view shipped back. Because the daemon's sharded fold is
//! bit-identical to the in-process one, a `Scenario` run through this
//! bridge produces a `ScenarioReport` **bit-identical** to the in-process
//! engine at the same seed — pinned by `tests/loopback.rs`
//! (`scenario_over_the_wire_is_bit_identical`: MGA + Detect2, three
//! trials).
//!
//! ```no_run
//! use ldp_collector::WireWorldRunner;
//! use ldp_graph::datasets::Dataset;
//! use ldp_protocols::{LfGdpr, Metric};
//! use poison_core::attack::Mga;
//! use poison_core::scenario::Scenario;
//! use poison_core::{TargetSelection, ThreatModel};
//!
//! let graph = Dataset::Facebook.generate_with_nodes(300, 7);
//! let mut rng = ldp_graph::Xoshiro256pp::new(1);
//! let threat = ThreatModel::from_fractions(
//!     &graph, 0.05, 0.05, TargetSelection::UniformRandom, &mut rng);
//! let report = Scenario::on(LfGdpr::new(4.0).unwrap())
//!     .attack(Mga::default())
//!     .metric(Metric::Degree)
//!     .threat(threat)
//!     .via(WireWorldRunner::connect("127.0.0.1:7171").unwrap()) // remote fold
//!     .run(&graph)
//!     .unwrap();
//! ```
//!
//! Degree-vector protocols (LDPGen) have no adjacency channel to stream;
//! the bridge runs those scenarios in process (same results as the
//! default backend) rather than failing the run.

use crate::client::CollectorClient;
use crate::error::CollectorError;
use ldp_graph::{CsrGraph, Xoshiro256pp};
use ldp_protocols::{
    AdjacencyReport, GraphLdpProtocol, ReportCrafter, ReportFilter, ServerView, WorldViews,
};
use poison_core::scenario::{InProcessRunner, WorldRunner};
use poison_core::ScenarioError;
use std::cell::{Cell, RefCell};
use std::net::ToSocketAddrs;

/// A [`WorldRunner`] that folds every upload set through a remote
/// collection daemon. See the module docs.
pub struct WireWorldRunner {
    client: RefCell<CollectorClient>,
    next_round: Cell<u64>,
}

impl WireWorldRunner {
    /// Connects the bridge to a running daemon.
    ///
    /// # Errors
    /// Connection and handshake failures.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, CollectorError> {
        Ok(WireWorldRunner {
            client: RefCell::new(CollectorClient::connect(addr)?),
            next_round: Cell::new(1),
        })
    }

    /// One world fold = one wire round.
    fn fold_world(
        &self,
        p_keep: f64,
        reports: &[AdjacencyReport],
    ) -> Result<ServerView, ScenarioError> {
        let round_id = self.next_round.get();
        self.next_round.set(round_id + 1);
        let view = self
            .client
            .borrow_mut()
            .run_adjacency_round(round_id, p_keep, reports)
            .map_err(|e| ScenarioError::Transport {
                detail: e.to_string(),
            })?;
        Ok(ServerView::Perturbed(view))
    }
}

impl WorldRunner for WireWorldRunner {
    fn name(&self) -> &'static str {
        "wire-collector"
    }

    /// `LfGdpr::run_worlds_with` with each world's fold a wire round.
    fn run_worlds(
        &self,
        protocol: &dyn GraphLdpProtocol,
        graph: &CsrGraph,
        trial_seed: u64,
        m_fake: usize,
        crafter: Option<&mut dyn ReportCrafter>,
        filter: Option<&mut dyn ReportFilter>,
        _ingest_batch: Option<usize>,
    ) -> Result<WorldViews, ScenarioError> {
        let Some(lf) = protocol.as_adjacency_protocol() else {
            // No adjacency channel to stream (LDPGen): evaluate in process.
            return InProcessRunner
                .run_worlds(protocol, graph, trial_seed, m_fake, crafter, filter, None);
        };
        let base = Xoshiro256pp::new(trial_seed);
        lf.run_worlds_with(graph, &base, m_fake, crafter, filter, |reports| {
            self.fold_world(lf.p_keep(), reports)
        })
    }
}
