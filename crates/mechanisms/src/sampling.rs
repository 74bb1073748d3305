//! Distribution samplers for whole-population simulation.
//!
//! Simulating the LDP pipeline exactly requires per-node draws like
//! "how many of my `N−1−d` zero bits flipped to one?" — a Binomial with
//! huge `n`. Materializing every coin is `O(N²)` per graph, so the
//! simulators draw the *counts* directly:
//!
//! * small mean → exact geometric-skip sampling (`O(successes)`),
//! * large mean → Gaussian approximation with continuity correction, whose
//!   relative error is negligible at the regimes where it is used
//!   (`min(np, n(1−p)) ≥ 64`).
//!
//! [`GeometricSampler`] is [`sample_geometric`] prepared for many draws at
//! one `p`: a table lookup replaces the logarithm wherever that provably
//! gives the same skip (DESIGN.md §3).

use rand::Rng;

/// Threshold on `min(np, n(1-p))` above which the Gaussian approximation to
/// the Binomial is used. At 64 the Berry–Esseen error is already far below
/// the sampling noise of the experiments.
const NORMAL_APPROX_THRESHOLD: f64 = 64.0;

/// Uniform bits behind one draw: `gen::<f64>()` keeps the top 53 bits of a
/// `u64` and scales them by `2⁻⁵³`.
const UNIFORM_BITS: u32 = 53;
/// `2⁻⁵³`, the scale of one unit of those bits (exact in `f64`).
const UNIT: f64 = 1.0 / (1u64 << UNIFORM_BITS) as f64;
/// [`GeometricSampler`] indexes its table by the top 12 of the 53 bits.
const TABLE_BITS: u32 = 12;
/// Shift from the 53 uniform bits to the table index.
const TABLE_SHIFT: u32 = UNIFORM_BITS - TABLE_BITS;
/// Table entry meaning "this bucket holds more than one skip: compute it".
const FALLBACK: u8 = u8::MAX;
/// How far inside `(k, k + 1)` a bucket's real skip must stay at both
/// endpoints for the bucket to store `k`. Far above libm's `ln` error.
const MARGIN: f64 = 1e-9;

/// Samples the number of failures before the first success for success
/// probability `p` — i.e. `Geometric(p)` supported on `0, 1, 2, …`.
///
/// Returns `usize::MAX` for `p == 0` (no success ever); returns 0 for
/// `p >= 1`. Otherwise consumes one `u64`, read as `gen::<f64>()` reads it.
pub fn sample_geometric<R: Rng>(p: f64, rng: &mut R) -> usize {
    if p >= 1.0 {
        return 0;
    }
    if p <= 0.0 {
        return usize::MAX;
    }
    skip_at(rng.next_u64() >> (64 - UNIFORM_BITS), (1.0 - p).ln())
}

/// The real skip `ln(u)/ln(1−p)` for the uniform `u = m·2⁻⁵³`, with `u`
/// kept off zero.
fn real_skip(m: u64, ln_q: f64) -> f64 {
    (m as f64 * UNIT).max(f64::MIN_POSITIVE).ln() / ln_q
}

/// The geometric skip drawn by the 53 uniform bits `m`: the floor of
/// [`real_skip`], saturating at `usize::MAX`.
fn skip_at(m: u64, ln_q: f64) -> usize {
    let skips = real_skip(m, ln_q);
    if skips >= usize::MAX as f64 {
        usize::MAX
    } else {
        skips.floor() as usize
    }
}

/// [`sample_geometric`] prepared for many draws at one `p`.
///
/// [`Self::sample`] returns exactly what `sample_geometric(p, rng)`
/// returns from the same stream, draw for draw, and consumes the same
/// single `u64` per draw (none when `p ≤ 0` or `p ≥ 1`). The top 12 of
/// the draw's 53 uniform bits pick one of 4,096 buckets. A bucket stores
/// skip `k` only if the real skip at both of its endpoints floors to `k`
/// and sits more than `1e-9` inside `(k, k + 1)`; `ln` is monotone and
/// libm's error is far below that margin, so every draw in the bucket
/// floors to `k`. Every other bucket — the one holding `u = 0`, the one
/// next to `u = 1`, the deep tail — computes the skip with
/// `sample_geometric`'s own formula. Building the table costs 8,192
/// logarithms, as many as 16 rows of 4,240 bits draw at a flip
/// probability of 0.119, so build it once per batch of rows.
#[derive(Debug, Clone)]
pub struct GeometricSampler {
    p: f64,
    ln_q: f64,
    table: Box<[u8; 1 << TABLE_BITS]>,
}

impl GeometricSampler {
    /// Prepares the sampler for success probability `p`.
    pub fn new(p: f64) -> Self {
        let ln_q = (1.0 - p).ln();
        let mut table = Box::new([FALLBACK; 1 << TABLE_BITS]);
        if p > 0.0 && p < 1.0 {
            // The real skip falls as `u` grows, so a bucket's low end
            // carries its largest skip and its high end its smallest.
            for (bucket, slot) in table.iter_mut().enumerate() {
                let lo = (bucket as u64) << TABLE_SHIFT;
                let hi = lo + (1 << TABLE_SHIFT) - 1;
                let (top, bottom) = (real_skip(lo, ln_q), real_skip(hi, ln_q));
                let k = bottom.floor();
                let inside = bottom - k > MARGIN && k + 1.0 - top > MARGIN;
                if top.is_finite() && bottom.is_finite() && inside && k < f64::from(FALLBACK) {
                    *slot = k as u8;
                }
            }
        }
        GeometricSampler { p, ln_q, table }
    }

    /// Draws one skip: `sample_geometric(p, rng)` for the `p` the sampler
    /// was prepared for, bit for bit.
    #[inline]
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        if self.p >= 1.0 {
            return 0;
        }
        if self.p <= 0.0 {
            return usize::MAX;
        }
        let m = rng.next_u64() >> (64 - UNIFORM_BITS);
        match self.table.get((m >> TABLE_SHIFT) as usize) {
            Some(&k) if k != FALLBACK => usize::from(k),
            _ => skip_at(m, self.ln_q),
        }
    }
}

/// Samples `Binomial(n, p)` exactly by geometric skipping: expected cost
/// `O(np)`. Suitable when the mean is small.
pub fn sample_binomial_exact<R: Rng>(n: usize, p: f64, rng: &mut R) -> usize {
    if p <= 0.0 || n == 0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    let mut successes = 0usize;
    let mut pos = 0usize;
    loop {
        let skip = sample_geometric(p, rng);
        pos = match pos.checked_add(skip) {
            Some(v) => v,
            None => break,
        };
        if pos >= n {
            break;
        }
        successes += 1;
        pos += 1;
    }
    successes
}

/// Samples one standard normal deviate via Box–Muller.
pub fn sample_standard_normal<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Samples `Binomial(n, p)`, choosing exact geometric skipping for small
/// means and the Gaussian approximation (rounded, clamped to `[0, n]`) for
/// large means.
pub fn sample_binomial<R: Rng>(n: usize, p: f64, rng: &mut R) -> usize {
    if p <= 0.0 || n == 0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    let nf = n as f64;
    let mean = nf * p;
    let anti_mean = nf * (1.0 - p);
    if mean.min(anti_mean) < NORMAL_APPROX_THRESHOLD {
        // Sample the rarer side exactly and mirror if needed.
        if mean <= anti_mean {
            sample_binomial_exact(n, p, rng)
        } else {
            n - sample_binomial_exact(n, 1.0 - p, rng)
        }
    } else {
        let sd = (nf * p * (1.0 - p)).sqrt();
        let x = mean + sd * sample_standard_normal(rng);
        x.round().clamp(0.0, nf) as usize
    }
}

/// Adds independent zero-mean Laplace noise of scale `b` to every entry in
/// place (the vector form LDPGen's degree-vector reports use).
pub fn sample_laplace_vec<R: Rng>(values: &mut [f64], b: f64, rng: &mut R) {
    for v in values {
        *v += crate::laplace::sample_laplace(b, rng);
    }
}

/// Samples `k` distinct indices from `0..n` uniformly (Floyd's algorithm),
/// returned in ascending order.
///
/// # Panics
/// Panics if `k > n`.
pub fn sample_distinct<R: Rng>(n: usize, k: usize, rng: &mut R) -> Vec<usize> {
    assert!(k <= n, "cannot sample {k} distinct values from 0..{n}");
    let mut chosen = std::collections::HashSet::with_capacity(k * 2);
    let mut out = Vec::with_capacity(k);
    for j in (n - k)..n {
        let t = rng.gen_range(0..=j);
        let pick = if chosen.insert(t) { t } else { j };
        if pick != t {
            chosen.insert(pick);
        }
        out.push(pick);
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_graph::rng::Xoshiro256pp;
    use rand::RngCore;

    #[test]
    fn geometric_extremes() {
        let mut rng = Xoshiro256pp::new(1);
        assert_eq!(sample_geometric(1.0, &mut rng), 0);
        assert_eq!(sample_geometric(0.0, &mut rng), usize::MAX);
    }

    /// An `RngCore` that replays a script of words and counts them.
    struct Scripted {
        words: Vec<u64>,
        next: usize,
    }

    impl Scripted {
        /// One draw whose 53 uniform bits are `m`; the 11 low bits the
        /// draw discards are set, to show they are ignored.
        fn draw(m: u64) -> Self {
            Scripted {
                words: vec![m << 11 | 0x7FF],
                next: 0,
            }
        }
    }

    impl rand::RngCore for Scripted {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }
        fn next_u64(&mut self) -> u64 {
            let word = self.words[self.next];
            self.next += 1;
            word
        }
        fn fill_bytes(&mut self, _dest: &mut [u8]) {
            unreachable!("samplers draw whole words")
        }
    }

    /// `sample_geometric`'s skip for the uniform bits `m`.
    fn reference(p: f64, m: u64) -> usize {
        let mut rng = Scripted::draw(m);
        let skip = sample_geometric(p, &mut rng);
        assert_eq!(rng.next, 1, "the formula reads one word");
        skip
    }

    /// Asserts that the prepared sampler returns the formula's skip for
    /// the uniform bits `m`, from one word.
    fn assert_same(sampler: &GeometricSampler, p: f64, m: u64) {
        let mut rng = Scripted::draw(m);
        let skip = sampler.sample(&mut rng);
        assert_eq!(rng.next, 1, "p {p}, m {m:#x}: one word per draw");
        assert_eq!(skip, reference(p, m), "p {p}, m {m:#x}");
    }

    /// A spread of `p` over `(0, 1)`: the flip probability at ε₁ = 2
    /// (0.119) and both extremes, where the table stores almost nothing
    /// or nearly every bucket holds skip 0.
    const PROBE_PS: [f64; 9] = [
        1e-9,
        1e-4,
        0.01,
        0.119_202_922_022_117_57,
        0.3,
        0.5,
        0.8,
        0.99,
        0.999_999,
    ];

    #[test]
    fn sampler_matches_formula_at_bucket_endpoints_and_skip_boundaries() {
        let last = (1u64 << UNIFORM_BITS) - 1;
        for p in PROBE_PS {
            let sampler = GeometricSampler::new(p);
            assert_same(&sampler, p, 0);
            assert_same(&sampler, p, last);
            for bucket in 0..1u64 << TABLE_BITS {
                let lo = bucket << TABLE_SHIFT;
                assert_same(&sampler, p, lo);
                assert_same(&sampler, p, lo + (1 << TABLE_SHIFT) - 1);
            }
            // The formula's skip falls as `m` grows. For every skip `k` a
            // bucket can store, bisect for the first `m` that draws at most
            // `k`, and probe both sides of that boundary.
            for k in 0..=usize::from(FALLBACK) {
                if reference(p, last) > k {
                    continue;
                }
                let (mut above, mut at_most) = (0u64, last);
                if reference(p, 0) <= k {
                    at_most = 0;
                } else {
                    while at_most - above > 1 {
                        let mid = above + (at_most - above) / 2;
                        if reference(p, mid) <= k {
                            at_most = mid;
                        } else {
                            above = mid;
                        }
                    }
                    assert!(reference(p, above) > k);
                    assert_same(&sampler, p, above);
                }
                assert!(reference(p, at_most) <= k);
                assert_same(&sampler, p, at_most);
            }
        }
    }

    #[test]
    fn stored_buckets_sit_inside_their_margin() {
        for p in PROBE_PS {
            let sampler = GeometricSampler::new(p);
            let ln_q = (1.0 - p).ln();
            for (bucket, &k) in sampler.table.iter().enumerate() {
                if k == FALLBACK {
                    continue;
                }
                let lo = (bucket as u64) << TABLE_SHIFT;
                let hi = lo + (1 << TABLE_SHIFT) - 1;
                let k = f64::from(k);
                for skip in [real_skip(lo, ln_q), real_skip(hi, ln_q)] {
                    assert!(
                        skip > k + 1e-9 && skip < k + 1.0 - 1e-9,
                        "p {p}, bucket {bucket}: skip {skip} stored as {k}"
                    );
                }
            }
        }
        // At the paper's ε₁ = 2 nearly every draw is a lookup: the two end
        // buckets and the 56 that a skip boundary crosses fall back.
        let sampler = GeometricSampler::new(0.119_202_922_022_117_57);
        let stored = sampler.table.iter().filter(|&&k| k != FALLBACK).count();
        assert!(stored > 4_000, "{stored} buckets stored");
        assert_eq!(sampler.table[0], FALLBACK);
        assert_eq!(sampler.table[(1 << TABLE_BITS) - 1], FALLBACK);
    }

    #[test]
    fn a_bucket_endpoint_just_past_an_integer_falls_back() {
        // Choose `p` so that bucket 1,000's high end has a real skip
        // 1e-11 above 3: one floor at both ends, but inside the margin.
        let bucket = 1_000u64;
        let hi = ((bucket + 1) << TABLE_SHIFT) - 1;
        let ln_u = (hi as f64 * UNIT).ln();
        let p = 1.0 - (ln_u / (3.0 + 1e-11)).exp();
        let skip = real_skip(hi, (1.0 - p).ln());
        assert!(skip > 3.0 && skip < 3.0 + 1e-9, "skip {skip}");
        let sampler = GeometricSampler::new(p);
        assert_eq!(sampler.table[bucket as usize], FALLBACK);
        assert_same(&sampler, p, hi);
    }

    #[test]
    fn sampler_degenerate_probabilities_match_formula() {
        let tiny = f64::EPSILON / 4.0; // 1 − p rounds to 1: ln(1 − p) = 0.
        for p in [0.0, -0.0, -1.0, 1.0, 2.0, f64::NAN, tiny, 1e-300] {
            let sampler = GeometricSampler::new(p);
            let (mut a, mut b) = (Xoshiro256pp::new(12), Xoshiro256pp::new(12));
            for _ in 0..64 {
                assert_eq!(sampler.sample(&mut a), sample_geometric(p, &mut b), "p {p}");
            }
            assert_eq!(a.next_u64(), b.next_u64(), "p {p}: same stream position");
        }
    }

    #[test]
    fn geometric_mean_matches_theory() {
        let mut rng = Xoshiro256pp::new(2);
        let p = 0.2;
        let n = 100_000;
        let mean: f64 = (0..n)
            .map(|_| sample_geometric(p, &mut rng) as f64)
            .sum::<f64>()
            / n as f64;
        let expected = (1.0 - p) / p; // failures before success
        assert!(
            (mean - expected).abs() / expected < 0.05,
            "mean {mean} vs {expected}"
        );
    }

    #[test]
    fn binomial_exact_matches_moments() {
        let mut rng = Xoshiro256pp::new(3);
        let (n, p) = (50usize, 0.3);
        let trials = 50_000;
        let samples: Vec<f64> = (0..trials)
            .map(|_| sample_binomial_exact(n, p, &mut rng) as f64)
            .collect();
        let mean = samples.iter().sum::<f64>() / trials as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / trials as f64;
        assert!((mean - 15.0).abs() < 0.15, "mean {mean}");
        assert!((var - 10.5).abs() < 0.5, "var {var}");
    }

    #[test]
    fn binomial_hybrid_large_n() {
        let mut rng = Xoshiro256pp::new(4);
        let (n, p) = (1_000_000usize, 0.25);
        let trials = 2_000;
        let samples: Vec<f64> = (0..trials)
            .map(|_| sample_binomial(n, p, &mut rng) as f64)
            .collect();
        let mean = samples.iter().sum::<f64>() / trials as f64;
        let expected = 250_000.0;
        let sd = (n as f64 * p * (1.0 - p)).sqrt();
        assert!((mean - expected).abs() < 5.0 * sd / (trials as f64).sqrt());
    }

    #[test]
    fn binomial_high_p_mirrors() {
        let mut rng = Xoshiro256pp::new(5);
        let (n, p) = (100usize, 0.98);
        for _ in 0..500 {
            let x = sample_binomial(n, p, &mut rng);
            assert!(x <= n);
        }
        let mean: f64 = (0..20_000)
            .map(|_| sample_binomial(n, p, &mut rng) as f64)
            .sum::<f64>()
            / 20_000.0;
        assert!((mean - 98.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn binomial_edge_cases() {
        let mut rng = Xoshiro256pp::new(6);
        assert_eq!(sample_binomial(0, 0.5, &mut rng), 0);
        assert_eq!(sample_binomial(10, 0.0, &mut rng), 0);
        assert_eq!(sample_binomial(10, 1.0, &mut rng), 10);
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = Xoshiro256pp::new(7);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02);
        assert!((var - 1.0).abs() < 0.03);
    }

    #[test]
    fn distinct_sampling_is_distinct_and_in_range() {
        let mut rng = Xoshiro256pp::new(8);
        for _ in 0..100 {
            let v = sample_distinct(50, 12, &mut rng);
            assert_eq!(v.len(), 12);
            let set: std::collections::HashSet<_> = v.iter().collect();
            assert_eq!(set.len(), 12);
            assert!(v.iter().all(|&x| x < 50));
            assert!(v.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn distinct_sampling_full_range() {
        let mut rng = Xoshiro256pp::new(9);
        let v = sample_distinct(5, 5, &mut rng);
        assert_eq!(v, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn distinct_sampling_over_capacity_panics() {
        let mut rng = Xoshiro256pp::new(10);
        sample_distinct(3, 4, &mut rng);
    }

    #[test]
    fn distinct_sampling_is_roughly_uniform() {
        let mut rng = Xoshiro256pp::new(11);
        let mut counts = [0usize; 10];
        let trials = 20_000;
        for _ in 0..trials {
            for i in sample_distinct(10, 3, &mut rng) {
                counts[i] += 1;
            }
        }
        let expected = trials as f64 * 3.0 / 10.0;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expected).abs() < 0.05 * expected + 4.0 * expected.sqrt(),
                "index {i} drawn {c} times, expected ~{expected}"
            );
        }
    }
}
