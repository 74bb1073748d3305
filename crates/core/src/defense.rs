//! The defense abstraction of the scenario engine.
//!
//! The trait is defined here — below `poison-defense` in the crate graph —
//! so the [`crate::scenario::ScenarioBuilder`] can hold `Box<dyn Defense>`
//! while the concrete countermeasures (Detect1's Apriori miner, Detect2's
//! degree-consistency screen, the naive baselines, and their composition)
//! live in `poison-defense`, which re-exports this trait and implements it.
//!
//! A defense answers one question, in [`Defense::filter_reports`]: which
//! uploads are suspicious, and what set should the server aggregate in
//! their place (the operation the paper's §VII evaluates).

use ldp_protocols::{AdjacencyReport, FilterDecision, LfGdpr};
use rand::RngCore;

/// A server-side countermeasure operating on collected adjacency reports.
/// Object-safe: scenarios hold `Box<dyn Defense>`.
///
/// `rng` supplies server-side randomness for repairs that *neutralize* a
/// flagged user by substituting a null-perturbation draw (an RR pass over
/// an empty neighborhood). Plain deletion would bias every downstream
/// calibration: all `N` rows are assumed to carry mechanism noise, and a
/// zeroed row removes noise the estimators correct for, creating a deficit
/// larger than the attack itself on sparse graphs.
pub trait Defense {
    /// Display name (as used in the paper's figures).
    fn name(&self) -> &'static str;

    /// Flags suspicious reports and repairs the upload set.
    fn filter_reports(
        &self,
        reports: &[AdjacencyReport],
        protocol: &LfGdpr,
        rng: &mut dyn RngCore,
    ) -> FilterDecision;
}

impl<D: Defense + ?Sized> Defense for &D {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn filter_reports(
        &self,
        reports: &[AdjacencyReport],
        protocol: &LfGdpr,
        rng: &mut dyn RngCore,
    ) -> FilterDecision {
        (**self).filter_reports(reports, protocol, rng)
    }
}

impl<D: Defense + ?Sized> Defense for Box<D> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn filter_reports(
        &self,
        reports: &[AdjacencyReport],
        protocol: &LfGdpr,
        rng: &mut dyn RngCore,
    ) -> FilterDecision {
        (**self).filter_reports(reports, protocol, rng)
    }
}
