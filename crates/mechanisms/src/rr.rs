//! Symmetric randomized response over bits and adjacency bit vectors.
//!
//! With budget ε the true bit is kept with probability
//! `p = e^ε / (1 + e^ε)` and flipped with probability `1 − p` — Warner's
//! randomized response, which is exactly the perturbation LF-GDPR applies
//! to each entry of the adjacency bit vector. Because the flip decision is
//! independent of the bit value, perturbation equals XOR-ing with a random
//! mask of density `1 − p`; sampling only the flip *positions* (geometric
//! skipping) makes perturbation `O(#flips)` instead of `O(N)`. A
//! [`FlipSampler`] prepares that skip sampler once for many rows.

use crate::error::MechanismError;
use crate::sampling::GeometricSampler;
use ldp_graph::BitSet;
use rand::Rng;

/// Symmetric (binary) randomized response.
#[derive(Debug, Clone, Copy)]
pub struct RandomizedResponse {
    p_keep: f64,
}

impl RandomizedResponse {
    /// Creates the mechanism for budget ε: `p = e^ε/(1+e^ε)`.
    ///
    /// # Errors
    /// Returns an error unless ε is positive and finite.
    pub fn new(epsilon: f64) -> Result<Self, MechanismError> {
        if !(epsilon.is_finite() && epsilon > 0.0) {
            return Err(MechanismError::InvalidBudget(epsilon));
        }
        let e = epsilon.exp();
        Ok(RandomizedResponse {
            p_keep: e / (1.0 + e),
        })
    }

    /// Builds directly from a keep probability `p ∈ (½, 1)` (used by tests
    /// and by theory code that reasons in terms of `p`).
    ///
    /// # Errors
    /// Returns an error if `p` is outside `(0.5, 1.0)` — values at or below
    /// ½ make the response non-invertible.
    pub fn from_keep_probability(p_keep: f64) -> Result<Self, MechanismError> {
        if !(p_keep > 0.5 && p_keep < 1.0) {
            return Err(MechanismError::InvalidParameter(format!(
                "keep probability {p_keep} must lie in (0.5, 1.0)"
            )));
        }
        Ok(RandomizedResponse { p_keep })
    }

    /// Probability of reporting the true bit.
    #[inline]
    pub fn p_keep(&self) -> f64 {
        self.p_keep
    }

    /// Probability of flipping the bit, `1 − p`.
    #[inline]
    pub fn p_flip(&self) -> f64 {
        1.0 - self.p_keep
    }

    /// The budget this keep-probability corresponds to, `ln(p/(1−p))`.
    pub fn epsilon(&self) -> f64 {
        (self.p_keep / (1.0 - self.p_keep)).ln()
    }

    /// Prepares the bit-vector perturbation: the flip-position sampler
    /// of [`FlipSampler`]. Build it once per batch of rows: building takes
    /// as many logarithms as 16 rows of 4,240 bits draw at ε = 2.
    pub fn flip_sampler(&self) -> FlipSampler {
        FlipSampler {
            skips: GeometricSampler::new(self.p_flip()),
        }
    }

    /// Unbiased estimate of the number of true ones among `n` perturbed
    /// bits given `observed` reported ones:
    /// `(observed − n(1−p)) / (2p − 1)`.
    pub fn calibrate_count(&self, observed: f64, n: f64) -> f64 {
        (observed - n * self.p_flip()) / (2.0 * self.p_keep - 1.0)
    }

    /// Expected number of reported ones when the truth has `true_ones` ones
    /// among `n` bits: `true_ones·p + (n − true_ones)(1 − p)`.
    pub fn expected_observed(&self, true_ones: f64, n: f64) -> f64 {
        true_ones * self.p_keep + (n - true_ones) * self.p_flip()
    }
}

/// A [`RandomizedResponse`] prepared to perturb bit vectors: its flip
/// positions come from a [`GeometricSampler`] at the flip probability
/// `1 − p`, built once by [`RandomizedResponse::flip_sampler`] and shared
/// by every row (and thread) that perturbs with it.
#[derive(Debug, Clone)]
pub struct FlipSampler {
    skips: GeometricSampler,
}

impl FlipSampler {
    /// Perturbs a bit vector in place, skipping the bit at `skip_self`
    /// (a node never reports a self-edge slot; pass `None` to perturb all
    /// bits). `O(#flips)` expected time.
    pub fn perturb_bitset_in_place<R: Rng>(
        &self,
        bits: &mut BitSet,
        skip_self: Option<usize>,
        rng: &mut R,
    ) {
        let n = bits.capacity();
        let mut pos = 0usize;
        loop {
            let skip = self.skips.sample(rng);
            pos = match pos.checked_add(skip) {
                Some(v) => v,
                None => break,
            };
            if pos >= n {
                break;
            }
            if Some(pos) != skip_self {
                bits.flip(pos);
            }
            pos += 1;
        }
        if let Some(s) = skip_self {
            if s < n {
                bits.clear(s);
            }
        }
    }

    /// Perturbs a copy of the bit vector; see
    /// [`Self::perturb_bitset_in_place`].
    pub fn perturb_bitset<R: Rng>(
        &self,
        bits: &BitSet,
        skip_self: Option<usize>,
        rng: &mut R,
    ) -> BitSet {
        let mut out = bits.clone();
        self.perturb_bitset_in_place(&mut out, skip_self, rng);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_graph::rng::Xoshiro256pp;

    #[test]
    fn keep_probability_from_epsilon() {
        let rr = RandomizedResponse::new(4.0).unwrap();
        let expected = 4.0f64.exp() / (1.0 + 4.0f64.exp());
        assert!((rr.p_keep() - expected).abs() < 1e-12);
        assert!((rr.epsilon() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn construction_validates() {
        assert!(RandomizedResponse::new(0.0).is_err());
        assert!(RandomizedResponse::new(f64::INFINITY).is_err());
        assert!(RandomizedResponse::from_keep_probability(0.5).is_err());
        assert!(RandomizedResponse::from_keep_probability(1.0).is_err());
        assert!(RandomizedResponse::from_keep_probability(0.75).is_ok());
    }

    #[test]
    fn bitset_perturbation_flip_rate() {
        let rr = RandomizedResponse::from_keep_probability(0.9).unwrap();
        let mut rng = Xoshiro256pp::new(2);
        let n = 50_000;
        let truth = BitSet::from_indices(n, (0..n).step_by(10));
        let perturbed = rr.flip_sampler().perturb_bitset(&truth, None, &mut rng);
        // Count disagreement positions.
        let mut flips = 0usize;
        for (a, b) in truth.words().iter().zip(perturbed.words()) {
            flips += (a ^ b).count_ones() as usize;
        }
        let rate = flips as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.01, "flip rate {rate}");
    }

    #[test]
    fn self_slot_is_never_reported() {
        let rr = RandomizedResponse::from_keep_probability(0.6).unwrap();
        let flips = rr.flip_sampler();
        let mut rng = Xoshiro256pp::new(3);
        for _ in 0..50 {
            let truth = BitSet::from_indices(100, [7usize, 50]);
            let perturbed = flips.perturb_bitset(&truth, Some(7), &mut rng);
            assert!(!perturbed.get(7), "self slot must stay clear");
        }
    }

    #[test]
    fn calibration_inverts_expectation() {
        let rr = RandomizedResponse::from_keep_probability(0.85).unwrap();
        let true_ones = 120.0;
        let n = 1000.0;
        let observed = rr.expected_observed(true_ones, n);
        let recovered = rr.calibrate_count(observed, n);
        assert!((recovered - true_ones).abs() < 1e-9);
    }

    #[test]
    fn calibration_is_unbiased_in_simulation() {
        let rr = RandomizedResponse::from_keep_probability(0.75).unwrap();
        let mut rng = Xoshiro256pp::new(4);
        let n = 2_000;
        let truth = BitSet::from_indices(n, (0..200).map(|i| i * 10));
        let trials = 400;
        let flips = rr.flip_sampler();
        let mut sum = 0.0;
        for _ in 0..trials {
            let perturbed = flips.perturb_bitset(&truth, None, &mut rng);
            sum += rr.calibrate_count(perturbed.count_ones() as f64, n as f64);
        }
        let mean = sum / trials as f64;
        assert!(
            (mean - 200.0).abs() < 8.0,
            "calibrated mean {mean} should be ~200"
        );
    }

    #[test]
    fn perturbation_preserves_capacity_and_tail() {
        let rr = RandomizedResponse::from_keep_probability(0.55).unwrap();
        let mut rng = Xoshiro256pp::new(5);
        let truth = BitSet::new(70);
        let perturbed = rr.flip_sampler().perturb_bitset(&truth, None, &mut rng);
        assert_eq!(perturbed.capacity(), 70);
        // No bits beyond capacity.
        assert!(perturbed.to_indices().iter().all(|&i| i < 70));
    }
}
