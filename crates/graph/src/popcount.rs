//! Word-slice popcounts: the inner loop of every dense bit kernel.
//!
//! [`BitMatrix`](crate::BitMatrix)'s triangle kernel, degrees and common
//! neighbors, [`BitSet`](crate::BitSet)'s counts and the defense's pair
//! index all count set bits over `u64` slices through these functions.
//! Detect1's level-2 support count (`poison_defense::apriori`) reads each
//! item column once for eight others through [`and_popcount8`].
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

/// `[|v ∩ rows[0]|, …, |v ∩ rows[3]|]` over the words of `v`: four
/// [`and_popcount`]s that read each word of `v` once. The triangle
/// kernel counts four targets per pass over a streamed row this way.
///
/// # Panics
/// Panics if any row is shorter than `v`.
#[inline]
pub fn and_popcount4(v: &[u64], rows: [&[u64]; 4]) -> [u64; 4] {
    #[cfg(target_arch = "x86_64")]
    if x86::has_vpopcntdq() {
        // SAFETY: the CPU supports every feature the twin enables.
        return unsafe { x86::and_popcount4(v, rows) };
    }
    and_popcount4_portable(v, rows)
}

/// `[|v ∩ rows[0]|, …, |v ∩ rows[7]|]` over the words of `v`: eight
/// [`and_popcount`]s that read each word of `v` once. Apriori's level 2
/// counts the supports of eight pairs per pass over one item column this
/// way.
///
/// # Panics
/// Panics if any row is shorter than `v`.
#[inline]
pub fn and_popcount8(v: &[u64], rows: [&[u64]; 8]) -> [u64; 8] {
    #[cfg(target_arch = "x86_64")]
    if x86::has_vpopcntdq() {
        // SAFETY: the CPU supports every feature the twin enables.
        return unsafe { x86::and_popcount8(v, rows) };
    }
    and_popcount8_portable(v, rows)
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

#[inline(always)]
fn and_popcount4_portable(v: &[u64], rows: [&[u64]; 4]) -> [u64; 4] {
    let [a, b, c, d] = rows.map(|row| &row[..v.len()]);
    let mut counts = [0u64; 4];
    for ((((&x, &a), &b), &c), &d) in v.iter().zip(a).zip(b).zip(c).zip(d) {
        counts[0] += u64::from((x & a).count_ones());
        counts[1] += u64::from((x & b).count_ones());
        counts[2] += u64::from((x & c).count_ones());
        counts[3] += u64::from((x & d).count_ones());
    }
    counts
}

#[inline(always)]
fn and_popcount8_portable(v: &[u64], rows: [&[u64]; 8]) -> [u64; 8] {
    let rows = rows.map(|row| &row[..v.len()]);
    let mut counts = [0u64; 8];
    for (i, &x) in v.iter().enumerate() {
        for (count, row) in counts.iter_mut().zip(&rows) {
            *count += u64::from((x & row[i]).count_ones());
        }
    }
    counts
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

    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    pub(super) fn and_popcount4(v: &[u64], rows: [&[u64]; 4]) -> [u64; 4] {
        super::and_popcount4_portable(v, rows)
    }

    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    pub(super) fn and_popcount8(v: &[u64], rows: [&[u64]; 8]) -> [u64; 8] {
        super::and_popcount8_portable(v, rows)
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

    /// Four rows of `len + extra` words each, from distinct seeds.
    fn four_rows(len: usize, extra: usize, seed: u64) -> [Vec<u64>; 4] {
        std::array::from_fn(|k| words(len + extra, seed ^ ((k as u64 + 1) << 40) ^ len as u64))
    }

    fn references4(v: &[u64], rows: &[Vec<u64>; 4]) -> [u64; 4] {
        std::array::from_fn(|k| bits_set(&and_words(v, &rows[k])))
    }

    #[test]
    fn and_popcount4_matches_per_bit_reference() {
        for len in LENGTHS {
            let v = words(len, 0x3C6E_F372_FE94_F82B ^ len as u64);
            let rows = four_rows(len, 0, 0xA54F_F53A_5F1D_36F1);
            let refs = rows.each_ref().map(Vec::as_slice);
            let expected = references4(&v, &rows);
            assert_eq!(and_popcount4(&v, refs), expected, "len {len}");
            assert_eq!(and_popcount4_portable(&v, refs), expected, "len {len}");
        }
    }

    #[test]
    fn and_popcount4_counts_the_words_of_v() {
        for len in LENGTHS {
            let v = words(len, 0x510E_527F_ADE6_82D1 ^ len as u64);
            let rows = four_rows(len, 1 + len % 9, 0x9B05_688C_2B3E_6C1F);
            let got = and_popcount4(&v, rows.each_ref().map(Vec::as_slice));
            assert_eq!(got, references4(&v, &rows), "len {len}");
            let singles: [u64; 4] = std::array::from_fn(|k| and_popcount(&v, &rows[k]));
            assert_eq!(got, singles, "len {len}");
        }
        let ones = [!0u64; 5];
        assert_eq!(and_popcount4(&ones[..2], [&ones; 4]), [128; 4]);
        assert_eq!(and_popcount4(&[], [&[], &ones, &[], &ones]), [0; 4]);
    }

    #[test]
    #[should_panic]
    fn and_popcount4_rejects_a_row_shorter_than_v() {
        let ones = [!0u64; 5];
        and_popcount4(&ones, [&ones, &ones, &ones[..4], &ones]);
    }

    /// Eight rows of `len + extra` words each, from distinct seeds.
    fn eight_rows(len: usize, extra: usize, seed: u64) -> [Vec<u64>; 8] {
        std::array::from_fn(|k| words(len + extra, seed ^ ((k as u64 + 1) << 40) ^ len as u64))
    }

    fn references8(v: &[u64], rows: &[Vec<u64>; 8]) -> [u64; 8] {
        std::array::from_fn(|k| bits_set(&and_words(v, &rows[k])))
    }

    #[test]
    fn and_popcount8_matches_per_bit_reference() {
        for len in LENGTHS {
            let v = words(len, 0x6A09_E667_F3BC_C908 ^ len as u64);
            let rows = eight_rows(len, 0, 0xBB67_AE85_84CA_A73B);
            let refs = rows.each_ref().map(Vec::as_slice);
            let expected = references8(&v, &rows);
            assert_eq!(and_popcount8(&v, refs), expected, "len {len}");
            assert_eq!(and_popcount8_portable(&v, refs), expected, "len {len}");
        }
    }

    #[test]
    fn and_popcount8_counts_the_words_of_v() {
        for len in LENGTHS {
            let v = words(len, 0x3C6E_F372_FE94_F82B ^ len as u64);
            let rows = eight_rows(len, 1 + len % 9, 0xA54F_F53A_5F1D_36F1);
            let got = and_popcount8(&v, rows.each_ref().map(Vec::as_slice));
            assert_eq!(got, references8(&v, &rows), "len {len}");
            let singles: [u64; 8] = std::array::from_fn(|k| and_popcount(&v, &rows[k]));
            assert_eq!(got, singles, "len {len}");
        }
        let ones = [!0u64; 5];
        assert_eq!(and_popcount8(&ones[..2], [&ones; 8]), [128; 8]);
        let mixed = [&[][..], &ones, &[], &ones, &ones, &[], &ones, &[]];
        assert_eq!(and_popcount8(&[], mixed), [0; 8]);
    }

    #[test]
    #[should_panic]
    fn and_popcount8_rejects_a_row_shorter_than_v() {
        let ones = [!0u64; 5];
        let mut rows = [&ones[..]; 8];
        rows[6] = &ones[..4];
        and_popcount8(&ones, rows);
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
            let rows = four_rows(len, 3, 0x1F83_D9AB_FB41_BD6B);
            // SAFETY: as above.
            let four = unsafe { x86::and_popcount4(&a, rows.each_ref().map(Vec::as_slice)) };
            assert_eq!(four, references4(&a, &rows), "len {len}");
            let rows = eight_rows(len, 3, 0x5BE0_CD19_137E_2179);
            // SAFETY: as above.
            let eight = unsafe { x86::and_popcount8(&a, rows.each_ref().map(Vec::as_slice)) };
            assert_eq!(eight, references8(&a, &rows), "len {len}");
        }
    }
}
