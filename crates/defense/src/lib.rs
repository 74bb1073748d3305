//! # poison-defense
//!
//! The two countermeasures of paper §VII against graph-LDP poisoning and
//! their naive baselines, all implementing the unified [`Defense`] trait
//! (`name` plus `filter_reports`, which flags uploads and repairs the set),
//! so every one of them plugs into the scenario engine's
//! `Scenario::on(protocol).attack(…).defend(…)` builder:
//!
//! * [`apriori`] — a from-scratch Apriori miner of frequent items and
//!   pairs over adjacency bit vectors (transactions = reported one-sets).
//! * [`detect1`] — frequent-itemset-based detection (§VII-A): fake nodes
//!   reveal themselves by sharing crafted connection patterns; flagged
//!   nodes have their connections *reconstructed* from the genuine side's
//!   reports rather than removed.
//! * [`detect2`] — degree-consistency detection (§VII-B): the reported
//!   (Laplace) degree of a genuine node stays within Laplace noise of the
//!   degree implied by its perturbed bit vector; RVA's random degree value
//!   does not. Flagged nodes have their claimed connections removed.
//! * [`naive`] — the paper's comparison baselines: Naive1 flags the top 3%
//!   highest-degree nodes; Naive2 flags the top and bottom 3% of the
//!   reported-degree distribution and removes them with Detect2's repair.
//!
//! A defended run is `Scenario::on(protocol).attack(…).defend(defense)`,
//! and its verdict counters live on the returned `ScenarioReport` trials.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod apriori;
pub mod detect1;
pub mod detect2;
pub mod naive;

pub use detect1::FrequentItemsetDefense;
pub use detect2::DegreeConsistencyDefense;
pub use naive::{NaiveDegreeTails, NaiveTopDegree};
pub use poison_core::Defense;
