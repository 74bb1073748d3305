//! # ldp-mechanisms
//!
//! Local-differential-privacy primitives used by the graph protocols and by
//! the attacks. LF-GDPR splits its total budget ε evenly, ε₁ = ε₂ = ε/2,
//! between the two channels below:
//!
//! * [`laplace`] — the Laplace mechanism for numeric values (degree
//!   perturbation with budget ε₂).
//! * [`rr`] — symmetric randomized response over bits and packed bit
//!   vectors (adjacency perturbation with budget ε₁), including an
//!   `O(#flips)` sparse implementation ([`FlipSampler`]) and the unbiased
//!   count calibration.
//! * [`sampling`] — exact/approximate Binomial and Geometric samplers that
//!   make whole-population simulation tractable at the paper's scales.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod error;
pub mod laplace;
pub mod rr;
pub mod sampling;

pub use error::MechanismError;
pub use laplace::LaplaceMechanism;
pub use rr::{FlipSampler, RandomizedResponse};
