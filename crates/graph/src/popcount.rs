//! Word-slice popcounts: the inner loop of every dense bit kernel.
//!
//! [`BitMatrix`](crate::BitMatrix)'s triangle kernel, degrees and common
//! neighbors, [`BitSet`](crate::BitSet)'s counts (Detect1's level-2
//! support counts) and the defense's pair index all count set bits over
//! `u64` slices through these two functions.
//!
//! Each function is one portable `count_ones` loop. On x86-64 the same
//! loop is compiled a second time with AVX-512F and AVX-512 VPOPCNTDQ
//! enabled, where LLVM vectorizes it to `vpopcntq` (eight words per
//! instruction). The twin runs only when `is_x86_feature_detected!`
//! reports every feature it enables; the answer is cached after the
//! first call. The build target does not change, so the portable loop is
//! what runs on CPUs without VPOPCNTDQ and on other architectures. The
//! counts are exact integers, so both paths return the same value.
//!
//! This is the one module of the crate allowed `unsafe`: calling a
//! `#[target_feature]` function is unsafe, and the feature check is the
//! proof that makes it sound.

/// Number of set bits in `words`.
#[inline]
pub fn popcount(words: &[u64]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if x86::has_vpopcntdq() {
        // SAFETY: the CPU supports every feature the twin enables.
        return unsafe { x86::popcount(words) };
    }
    popcount_portable(words)
}

/// `|a ∩ b|`: the number of set bits in the word-wise AND of `a` and
/// `b`. Only the common length counts: the longer slice's extra words
/// are ignored, as with `a.iter().zip(b)`.
#[inline]
pub fn and_popcount(a: &[u64], b: &[u64]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if x86::has_vpopcntdq() {
        // SAFETY: the CPU supports every feature the twin enables.
        return unsafe { x86::and_popcount(a, b) };
    }
    and_popcount_portable(a, b)
}

// `inline(always)` so that each twin below compiles this body with its
// own target features.
#[inline(always)]
fn popcount_portable(words: &[u64]) -> u64 {
    words.iter().map(|w| u64::from(w.count_ones())).sum()
}

#[inline(always)]
fn and_popcount_portable(a: &[u64], b: &[u64]) -> u64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| u64::from((x & y).count_ones()))
        .sum()
}

/// The AVX-512 twins: the portable loops, inlined into functions compiled
/// with the vector popcount enabled. Calling a twin is sound only after
/// `has_vpopcntdq` has returned `true`.
#[cfg(target_arch = "x86_64")]
mod x86 {
    /// Whether the CPU has every feature the twins below enable.
    #[inline]
    pub(super) fn has_vpopcntdq() -> bool {
        is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vpopcntdq")
    }

    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    pub(super) fn popcount(words: &[u64]) -> u64 {
        super::popcount_portable(words)
    }

    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    pub(super) fn and_popcount(a: &[u64], b: &[u64]) -> u64 {
        super::and_popcount_portable(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic words with every density from sparse to dense.
    fn words(len: usize, seed: u64) -> Vec<u64> {
        let mut state = seed | 1;
        (0..len)
            .map(|i| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                match i % 4 {
                    0 => state,
                    1 => state & state.rotate_left(17),
                    2 => !0,
                    _ => state & 1,
                }
            })
            .collect()
    }

    /// The per-bit reference: probes every bit.
    fn bits_set(words: &[u64]) -> u64 {
        let mut count = 0;
        for w in words {
            for b in 0..64 {
                count += (w >> b) & 1;
            }
        }
        count
    }

    fn and_words(a: &[u64], b: &[u64]) -> Vec<u64> {
        a.iter().zip(b).map(|(x, y)| x & y).collect()
    }

    /// Lengths 0..=40 cover an empty slice, every scalar remainder, and
    /// the twin's vector loops (eight words per `vpopcntq`, unrolled four
    /// times in the main body).
    const LENGTHS: std::ops::RangeInclusive<usize> = 0..=40;

    #[test]
    fn popcount_matches_per_bit_reference() {
        for len in LENGTHS {
            let w = words(len, 0x9E37_79B9_7F4A_7C15 ^ len as u64);
            assert_eq!(popcount(&w), bits_set(&w), "len {len}");
            assert_eq!(popcount_portable(&w), bits_set(&w), "len {len}");
        }
    }

    #[test]
    fn and_popcount_matches_per_bit_reference() {
        for len in LENGTHS {
            let a = words(len, 0x2545_F491_4F6C_DD1D ^ len as u64);
            let b = words(len, 0x1234_5678_9ABC_DEF1 ^ len as u64);
            let expected = bits_set(&and_words(&a, &b));
            assert_eq!(and_popcount(&a, &b), expected, "len {len}");
            assert_eq!(and_popcount_portable(&a, &b), expected, "len {len}");
        }
    }

    #[test]
    fn and_popcount_counts_the_common_length() {
        let a = vec![!0u64; 37];
        let b = vec![!0u64; 11];
        assert_eq!(and_popcount(&a, &b), 11 * 64);
        assert_eq!(and_popcount(&b, &a), 11 * 64);
        assert_eq!(and_popcount(&a, &[]), 0);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn vector_twin_matches_when_the_cpu_has_it() {
        if !x86::has_vpopcntdq() {
            return;
        }
        for len in LENGTHS {
            let a = words(len, 0xD1B5_4A32_D192_ED03 ^ len as u64);
            let b = words(len + 3, 0x8CB9_2BA7_2F3D_8DD7 ^ len as u64);
            // SAFETY: the CPU supports every feature the twins enable.
            let (ones, common) = unsafe { (x86::popcount(&a), x86::and_popcount(&a, &b)) };
            assert_eq!(ones, bits_set(&a), "len {len}");
            assert_eq!(common, bits_set(&and_words(&a, &b)), "len {len}");
        }
    }
}
