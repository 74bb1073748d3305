//! The wire formats of one user upload.
//!
//! Genuine users produce reports by perturbing their local view; fake users
//! *craft* reports directly (paper Fig. 2). Both travel in the same format,
//! which is precisely why the server cannot tell them apart a priori.
//!
//! Two channels exist across the protocols this crate implements:
//!
//! * [`AdjacencyReport`] — LF-GDPR's upload: a randomized-response bit
//!   vector plus a Laplace-perturbed degree;
//! * a [`DegreeVector`] — LDPGen's upload: a Laplace-noisy count of the
//!   user's neighbors per server-defined group, refreshed every phase.
//!
//! [`UserReport`] unifies the two as one protocol-agnostic enum, which is
//! what the [`crate::protocol::GraphLdpProtocol`] trait and the attack
//! crafting callbacks exchange. Protocol internals keep working on the
//! concrete types; the enum only appears at the trait boundary.

use crate::protocol::ProtocolError;
use ldp_graph::BitSet;

/// One user's count of their neighbors per server-defined group (LDPGen).
pub type DegreeVector = Vec<f64>;

/// One LF-GDPR user's upload: a (perturbed or crafted) adjacency bit vector
/// and a (perturbed or crafted) degree.
#[derive(Debug, Clone)]
pub struct AdjacencyReport {
    /// Adjacency bit vector over all `N` users. Only the entries toward
    /// lower ids are authoritative (lower-triangle ownership); the self
    /// slot is always zero.
    pub bits: BitSet,
    /// Reported degree, already rounded/clamped by the reporting side.
    pub degree: f64,
}

impl AdjacencyReport {
    /// Creates a report. The degree channel and the bit vector are
    /// independent in the protocol, so no cross-validation happens here —
    /// that is exactly the gap the degree-consistency defense (Detect2)
    /// later probes.
    pub fn new(bits: BitSet, degree: f64) -> Self {
        AdjacencyReport { bits, degree }
    }

    /// Number of users `N` this report spans.
    pub fn population(&self) -> usize {
        self.bits.capacity()
    }

    /// The degree implied by the bit vector alone (popcount). Detect2
    /// compares this against [`AdjacencyReport::degree`].
    pub fn bit_degree(&self) -> usize {
        self.bits.count_ones()
    }
}

/// A protocol-agnostic user upload: the payload of one collection round.
///
/// This is the report type the [`crate::protocol::GraphLdpProtocol`] trait
/// exchanges — every protocol's channel is one variant, so crafting code
/// (the attack layer) can produce uploads without knowing which protocol
/// consumes them, and a protocol rejects foreign variants with a typed
/// [`ProtocolError::WrongReportKind`] instead of a panic.
#[derive(Debug, Clone)]
pub enum UserReport {
    /// An LF-GDPR adjacency-channel upload.
    Adjacency(AdjacencyReport),
    /// An LDPGen degree-vector upload toward the current grouping.
    DegreeVector(DegreeVector),
}

impl UserReport {
    /// The adjacency report inside, if this is the LF-GDPR variant.
    pub fn as_adjacency(&self) -> Option<&AdjacencyReport> {
        match self {
            UserReport::Adjacency(r) => Some(r),
            UserReport::DegreeVector(_) => None,
        }
    }

    /// Unwraps the LF-GDPR variant.
    ///
    /// # Errors
    /// Returns [`ProtocolError::WrongReportKind`] on a degree-vector
    /// report.
    pub fn into_adjacency(self) -> Result<AdjacencyReport, ProtocolError> {
        match self {
            UserReport::Adjacency(r) => Ok(r),
            UserReport::DegreeVector(_) => Err(ProtocolError::WrongReportKind {
                expected: "adjacency",
                got: "degree-vector",
            }),
        }
    }

    /// The degree vector inside, if this is the LDPGen variant.
    pub fn as_degree_vector(&self) -> Option<&DegreeVector> {
        match self {
            UserReport::Adjacency(_) => None,
            UserReport::DegreeVector(v) => Some(v),
        }
    }

    /// Unwraps the LDPGen variant.
    ///
    /// # Errors
    /// Returns [`ProtocolError::WrongReportKind`] on an adjacency report.
    pub fn into_degree_vector(self) -> Result<DegreeVector, ProtocolError> {
        match self {
            UserReport::Adjacency(_) => Err(ProtocolError::WrongReportKind {
                expected: "degree-vector",
                got: "adjacency",
            }),
            UserReport::DegreeVector(v) => Ok(v),
        }
    }
}

impl From<AdjacencyReport> for UserReport {
    fn from(r: AdjacencyReport) -> Self {
        UserReport::Adjacency(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let r = AdjacencyReport::new(BitSet::from_indices(10, [1, 3, 5]), 2.0);
        assert_eq!(r.population(), 10);
        assert_eq!(r.bit_degree(), 3);
        assert_eq!(r.degree, 2.0);
    }

    #[test]
    fn enum_unwraps_the_right_variant() {
        let adj = UserReport::from(AdjacencyReport::new(BitSet::new(4), 1.0));
        assert!(adj.as_adjacency().is_some());
        assert!(adj.as_degree_vector().is_none());
        assert!(adj.clone().into_adjacency().is_ok());
        assert!(adj.into_degree_vector().is_err());

        let vec = UserReport::DegreeVector(vec![1.0, 0.0]);
        assert!(vec.as_degree_vector().is_some());
        assert!(vec.clone().into_degree_vector().is_ok());
        assert!(vec.into_adjacency().is_err());
    }
}
