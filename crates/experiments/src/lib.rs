//! # poison-experiments
//!
//! The evaluation harness for the tables and figures of the paper's
//! §VIII, with one entry point: the `all_experiments` binary runs each
//! artifact by name ([`cli::EXPERIMENTS`]). Figs. 6–11 are rows of one
//! table ([`sweep::SweepFigure`]), Figs. 12–13 rows of another
//! ([`countermeasures::CountermeasureFigure`]) and Figs. 14–15 rows of a
//! third ([`protocols::ProtocolFigure`]). Every panel runs its grid
//! through [`runner::run_grid`], one [`Scenario`](poison_core::scenario::Scenario)
//! per cell, and every figure and ablation draws its threat model through
//! one function. Each experiment returns [`output::Figure`] values that
//! render as aligned text tables, CSV, and ASCII charts; `all_experiments`
//! writes them under `results/`.
//!
//! | paper artifact | code | name |
//! |----------------|--------|--------|
//! | Table II (datasets) | [`table2`] | `table2` |
//! | Table III (defaults) | [`table3`] | `table3` |
//! | Fig. 6 (degree centrality vs ε) | [`sweep::FIG6`] | `fig6` |
//! | Fig. 7 (degree centrality vs β) | [`sweep::FIG7`] | `fig7` |
//! | Fig. 8 (degree centrality vs γ) | [`sweep::FIG8`] | `fig8` |
//! | Fig. 9 (clustering coefficient vs ε) | [`sweep::FIG9`] | `fig9` |
//! | Fig. 10 (clustering coefficient vs β) | [`sweep::FIG10`] | `fig10` |
//! | Fig. 11 (clustering coefficient vs γ) | [`sweep::FIG11`] | `fig11` |
//! | Fig. 12 (countermeasures, degree) | [`countermeasures::FIG12`] | `fig12` |
//! | Fig. 13 (countermeasures, clustering) | [`countermeasures::FIG13`] | `fig13` |
//! | Fig. 14 (LF-GDPR vs LDPGen, cc) | [`protocols::FIG14`] | `fig14` |
//! | Fig. 15 (LF-GDPR vs LDPGen, modularity) | [`protocols::FIG15`] | `fig15` |
//! | Ablations A1–A4 (DESIGN.md §7) | [`ablations`] | `ablations` |
//!
//! The experiments run on seeded synthetic stand-ins (DESIGN.md §2
//! records the substitution). At the default scale 1.0 they have 4,039
//! (Facebook), 2,000 (Enron, AstroPh) and 900 (Gplus) nodes;
//! `ExperimentConfig::scale` multiplies these, with a floor of 250, and
//! the degree-centrality sweeps run Gplus at 20,000 × scale.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablations;
pub mod cli;
pub mod config;
pub mod countermeasures;
pub mod fig13;
pub mod output;
pub mod protocols;
pub mod runner;
pub mod sweep;
pub mod table2;
pub mod table3;

pub use config::ExperimentConfig;
pub use output::{Figure, Series};
