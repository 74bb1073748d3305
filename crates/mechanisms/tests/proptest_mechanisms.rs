//! Property tests for the LDP mechanisms: sampler supports and randomized
//! response algebra over randomized parameters.

use ldp_graph::{BitSet, Xoshiro256pp};
use ldp_mechanisms::sampling::{
    sample_binomial, sample_distinct, sample_geometric, GeometricSampler,
};
use ldp_mechanisms::RandomizedResponse;
use proptest::prelude::*;
use rand::RngCore;

/// Draws per case of `geometric_sampler_matches_formula`: moderate in a
/// debug build, heavy where the tests run optimized.
const SAMPLER_DRAWS: usize = if cfg!(debug_assertions) {
    20_000
} else {
    1_000_000
};

/// The success probability of one sampler case: `kind` picks a regime and
/// `x ∈ [0, 1)` places `p` inside it.
fn sampler_p(kind: usize, x: f64) -> f64 {
    match kind {
        // Anywhere in (0, 1).
        0 => x.max(f64::MIN_POSITIVE),
        // Tiny: down to 1e-15, where nearly every bucket falls back.
        1 => 10f64.powf(-15.0 * x - 1e-3),
        // Near 1: 1 − p down to 1e-12, where skip 0 fills the table.
        2 => 1.0 - 10f64.powf(-12.0 * x - 1e-3),
        // RR flip probabilities 1/(1 + e^ε) for ε ∈ [0, 16).
        3 => 1.0 / (1.0 + (16.0 * x).exp()),
        // Outside (0, 1): no draw is consumed.
        4 => -x,
        _ => 1.0 + x,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Binomial samples always land in [0, n].
    #[test]
    fn binomial_support(seed in 0u64..1000, n in 0usize..10_000, p in 0.0f64..1.0) {
        let mut rng = Xoshiro256pp::new(seed);
        let x = sample_binomial(n, p, &mut rng);
        prop_assert!(x <= n);
    }

    /// Geometric samples are finite for positive p.
    #[test]
    fn geometric_support(seed in 0u64..1000, p in 0.001f64..1.0) {
        let mut rng = Xoshiro256pp::new(seed);
        let x = sample_geometric(p, &mut rng);
        prop_assert!(x < usize::MAX);
    }

    /// The prepared geometric sampler returns `sample_geometric`'s skips
    /// draw for draw and leaves its RNG at the same stream position.
    #[test]
    fn geometric_sampler_matches_formula(seed in 0u64..u64::MAX, kind in 0usize..6, x in 0.0f64..1.0) {
        let p = sampler_p(kind, x);
        let sampler = GeometricSampler::new(p);
        let (mut prepared, mut formula) = (Xoshiro256pp::new(seed), Xoshiro256pp::new(seed));
        for draw in 0..SAMPLER_DRAWS {
            let (a, b) = (sampler.sample(&mut prepared), sample_geometric(p, &mut formula));
            prop_assert_eq!(a, b, "p {}, draw {}", p, draw);
        }
        prop_assert_eq!(prepared.next_u64(), formula.next_u64(), "p {}: stream position", p);
    }

    /// Distinct sampling: sorted, unique, in range, right count.
    #[test]
    fn distinct_contract(seed in 0u64..1000, n in 1usize..200, k_frac in 0.0f64..1.0) {
        let k = ((n as f64) * k_frac) as usize;
        let mut rng = Xoshiro256pp::new(seed);
        let v = sample_distinct(n, k, &mut rng);
        prop_assert_eq!(v.len(), k);
        prop_assert!(v.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(v.iter().all(|&x| x < n));
    }

    /// RR keep probability round-trips through epsilon.
    #[test]
    fn rr_epsilon_roundtrip(eps in 0.05f64..16.0) {
        let rr = RandomizedResponse::new(eps).unwrap();
        prop_assert!((rr.epsilon() - eps).abs() < 1e-9);
        prop_assert!(rr.p_keep() > 0.5 && rr.p_keep() < 1.0);
        prop_assert!((rr.p_keep() + rr.p_flip() - 1.0).abs() < 1e-12);
    }

    /// RR bitset perturbation never touches the self slot and preserves
    /// capacity.
    #[test]
    fn rr_self_slot(seed in 0u64..1000, eps in 0.1f64..8.0, own in 0usize..64) {
        let rr = RandomizedResponse::new(eps).unwrap();
        let mut rng = Xoshiro256pp::new(seed);
        let truth = BitSet::from_indices(64, [own]);
        let out = rr.flip_sampler().perturb_bitset(&truth, Some(own), &mut rng);
        prop_assert!(!out.get(own));
        prop_assert_eq!(out.capacity(), 64);
    }
}
