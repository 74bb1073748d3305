//! Dense bit-matrix adjacency representation.
//!
//! After randomized response with budget ε, the perturbed graph has edge
//! density on the order of `1/(1+e^ε)` — dense enough that the server-side
//! view is best stored as a packed bit matrix. Triangle counting then
//! reduces to row-AND + popcount, which is the only way the clustering
//! coefficient pipeline stays tractable at the paper's scales.

use crate::bitset::BitSet;
use crate::csr::CsrGraph;
use crate::popcount::{and_popcount, popcount};
use crate::runtime::parallel_map;

/// A square, symmetric bit matrix over `n` nodes.
///
/// Rows are contiguous `u64` words. The matrix is kept symmetric by the
/// mutators ([`BitMatrix::set_edge`], [`BitMatrix::clear_edge`]); the
/// diagonal is always zero (simple graphs, no self-loops).
#[derive(Clone, PartialEq, Eq)]
pub struct BitMatrix {
    n: usize,
    words_per_row: usize,
    bits: Vec<u64>,
}

const WORD_BITS: usize = 64;

impl BitMatrix {
    /// Creates an `n × n` all-zero matrix.
    pub fn new(n: usize) -> Self {
        let words_per_row = n.div_ceil(WORD_BITS);
        BitMatrix {
            n,
            words_per_row,
            bits: vec![0; n * words_per_row],
        }
    }

    /// Builds the dense representation of a sparse graph.
    pub fn from_csr(g: &CsrGraph) -> Self {
        let mut m = BitMatrix::new(g.num_nodes());
        for u in 0..g.num_nodes() {
            for &v in g.neighbors(u) {
                let v = v as usize;
                if u < v {
                    m.set_edge(u, v);
                }
            }
        }
        m
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Words per row (for raw-word consumers).
    #[inline]
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// Sets the undirected edge `{u, v}`. Setting a self-loop is a no-op.
    ///
    /// # Panics
    /// Panics if `u` or `v` is out of range.
    #[inline]
    pub fn set_edge(&mut self, u: usize, v: usize) {
        assert!(
            u < self.n && v < self.n,
            "edge ({u},{v}) out of range for {} nodes",
            self.n
        );
        if u == v {
            return;
        }
        self.bits[u * self.words_per_row + v / WORD_BITS] |= 1u64 << (v % WORD_BITS);
        self.bits[v * self.words_per_row + u / WORD_BITS] |= 1u64 << (u % WORD_BITS);
    }

    /// Clears the undirected edge `{u, v}`.
    ///
    /// # Panics
    /// Panics if `u` or `v` is out of range.
    #[inline]
    pub fn clear_edge(&mut self, u: usize, v: usize) {
        assert!(
            u < self.n && v < self.n,
            "edge ({u},{v}) out of range for {} nodes",
            self.n
        );
        if u == v {
            return;
        }
        self.bits[u * self.words_per_row + v / WORD_BITS] &= !(1u64 << (v % WORD_BITS));
        self.bits[v * self.words_per_row + u / WORD_BITS] &= !(1u64 << (u % WORD_BITS));
    }

    /// Tests the edge `{u, v}`.
    ///
    /// # Panics
    /// Panics if `u` or `v` is out of range.
    #[inline]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        assert!(
            u < self.n && v < self.n,
            "edge ({u},{v}) out of range for {} nodes",
            self.n
        );
        (self.bits[u * self.words_per_row + v / WORD_BITS] >> (v % WORD_BITS)) & 1 == 1
    }

    /// Raw words of row `u`.
    ///
    /// # Panics
    /// Panics if `u` is out of range.
    #[inline]
    pub fn row(&self, u: usize) -> &[u64] {
        assert!(u < self.n, "row {u} out of range for {} nodes", self.n);
        &self.bits[u * self.words_per_row..(u + 1) * self.words_per_row]
    }

    /// Exclusive access to the contiguous words of rows `lo..hi`, laid out
    /// row-major ([`Self::words_per_row`] words per row).
    ///
    /// This is the escape hatch for bulk ingestion: a batch of row owners
    /// writes its rows through disjoint sub-slices of this region (e.g. via
    /// [`crate::runtime::parallel_chunks_mut`]) with no shared state. The
    /// caller is responsible for keeping the diagonal zero and for
    /// restoring symmetry afterwards — [`Self::mirror_lower`] does the
    /// latter when only lower-triangle bits were written.
    ///
    /// # Panics
    /// Panics if `lo > hi` or `hi > num_nodes()`.
    pub fn rows_mut(&mut self, lo: usize, hi: usize) -> &mut [u64] {
        assert!(
            lo <= hi && hi <= self.n,
            "row range {lo}..{hi} out of bounds for {} nodes",
            self.n
        );
        &mut self.bits[lo * self.words_per_row..hi * self.words_per_row]
    }

    /// Mirrors every lower-triangle bit `(u, v)` with `v < u` into its
    /// upper twin `(v, u)`, restoring the symmetric invariant after a bulk
    /// lower-triangle write ([`Self::rows_mut`]). Existing upper-triangle
    /// bits are preserved; the diagonal is untouched.
    ///
    /// Works on 64×64 blocks: block `(I, J)` with `J ≤ I` (rows `64I..`,
    /// word `J`; strictly-lower bits only on the diagonal) is transposed in
    /// registers and OR-ed into rows `64J..` at word `I`. All-zero blocks
    /// are skipped. No block is read after a write lands in it, so the
    /// visiting order is free; it is cache-line tiled. That is `N²/8192` block transposes in place of one
    /// scattered column write per set bit. Sequential and allocation-free.
    pub fn mirror_lower(&mut self) {
        let mut block = [0u64; WORD_BITS];
        for (bi, bj) in lower_blocks(self.words_per_row) {
            self.load_block(bi, bj, &mut block);
            if bi == bj {
                for (r, word) in block.iter_mut().enumerate() {
                    *word &= (1u64 << r) - 1;
                }
            }
            if block.iter().all(|&w| w == 0) {
                continue;
            }
            transpose64(&mut block);
            let first = bj * WORD_BITS;
            let rows = (self.n - first).min(WORD_BITS);
            for (c, &word) in block[..rows].iter().enumerate() {
                self.bits[(first + c) * self.words_per_row + bi] |= word;
            }
        }
    }

    /// Whether the matrix is a simple undirected graph: symmetric, zero
    /// diagonal, and no bits at columns `≥ n`. The mutators keep these
    /// invariants, and so does [`Self::mirror_lower`] over a strict lower
    /// triangle — the only words a decoded view is built from. This is
    /// the oracle property tests check those paths against (words
    /// written through [`Self::rows_mut`], decoded payloads), not a check
    /// any decoder runs.
    ///
    /// Compares every 64×64 block `(I, J)`, `J ≤ I`, transposed, against
    /// block `(J, I)`; rows past `n` read as zero, so the comparison also
    /// proves the tail columns empty.
    pub fn is_well_formed(&self) -> bool {
        let mut lower = [0u64; WORD_BITS];
        let mut upper = [0u64; WORD_BITS];
        lower_blocks(self.words_per_row).all(|(bi, bj)| {
            self.load_block(bi, bj, &mut lower);
            if bi == bj && lower.iter().enumerate().any(|(r, &w)| (w >> r) & 1 == 1) {
                return false;
            }
            self.load_block(bj, bi, &mut upper);
            transpose64(&mut lower);
            lower == upper
        })
    }

    /// Loads word `word` of rows `64·block_row ..` into `block`, with zero
    /// for rows past `n`.
    fn load_block(&self, block_row: usize, word: usize, block: &mut [u64; WORD_BITS]) {
        let first = block_row * WORD_BITS;
        let rows = (self.n - first).min(WORD_BITS);
        for (r, slot) in block[..rows].iter_mut().enumerate() {
            *slot = self.bits[(first + r) * self.words_per_row + word];
        }
        block[rows..].fill(0);
    }

    /// Overwrites row `u` from a bitset of capacity `n` and mirrors the bits
    /// into the corresponding columns, so the matrix stays symmetric.
    ///
    /// This is how the server folds one user's (perturbed or crafted)
    /// adjacency bit vector into its aggregate view when the *row owner* is
    /// authoritative for its slots.
    pub fn assign_row_symmetric(&mut self, u: usize, row: &BitSet) {
        assert_eq!(row.capacity(), self.n, "row capacity must equal node count");
        // Clear u's old bits from the columns.
        let old: Vec<usize> = self.row_indices(u);
        for v in old {
            self.clear_edge(u, v);
        }
        for v in row.iter_ones() {
            self.set_edge(u, v);
        }
    }

    /// Degree of node `u` (popcount of its row).
    pub fn degree(&self, u: usize) -> usize {
        popcount(self.row(u)) as usize
    }

    /// Total number of undirected edges.
    pub fn num_edges(&self) -> usize {
        let total: usize = (0..self.n).map(|u| self.degree(u)).sum();
        total / 2
    }

    /// Indices of the set bits in row `u` (the neighbors of `u`).
    pub fn row_indices(&self, u: usize) -> Vec<usize> {
        let row = self.row(u);
        let mut out = Vec::new();
        for (wi, &w) in row.iter().enumerate() {
            let mut bits = w;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                out.push(wi * WORD_BITS + b);
                bits &= bits - 1;
            }
        }
        out
    }

    /// `|row(u) ∩ row(v)|` — number of common neighbors of `u` and `v`.
    #[inline]
    pub fn common_neighbors(&self, u: usize, v: usize) -> usize {
        and_popcount(self.row(u), self.row(v)) as usize
    }

    /// Number of triangles incident to node `u`:
    /// `τ_u = ½ Σ_{v ∈ N(u)} |N(u) ∩ N(v)|`. The one-node call of
    /// [`Self::triangles_at_many`].
    ///
    /// # Panics
    /// Panics if `u` is out of range.
    pub fn triangles_at(&self, u: usize) -> u64 {
        self.triangles_at_many(&[u], 1)[0]
    }

    /// Per-node triangle counts for the whole matrix: the all-node call of
    /// [`Self::triangles_at_many`].
    pub fn triangles_per_node(&self) -> Vec<u64> {
        let nodes: Vec<usize> = (0..self.n).collect();
        self.triangles_at_many(&nodes, 1)
    }

    /// Triangle counts at each of `nodes` (in order; duplicates allowed),
    /// on up to `threads` workers of the shared runtime.
    ///
    /// Row-streamed: every row `v` adjacent to some target is visited
    /// once, in increasing order. For each target `t` with bit `t` of row
    /// `v` set, `|row_t[..v) ∩ row_v[..v)|` is added to `t`'s count, so
    /// the triangle `{t, v, w}` with `w < v` is found exactly once (the
    /// word-wise form of [`BitSet::iter_ones_below`]'s bound). The
    /// targets' rows stay hot in cache while the other rows stream past
    /// once; the cost is `Σ_t d_t · n/128` word AND-popcounts
    /// ([`crate::popcount::and_popcount`], vectorized where the CPU has
    /// AVX-512 VPOPCNTDQ). Row ranges are counted in chunks and the chunk
    /// counts summed in chunk order; the sums are exact, so the result is
    /// the same at any thread count.
    ///
    /// Relies on the symmetric, zero-diagonal invariant
    /// ([`Self::is_well_formed`]).
    ///
    /// # Panics
    /// Panics if any node is out of range.
    pub fn triangles_at_many(&self, nodes: &[usize], threads: usize) -> Vec<u64> {
        if nodes.is_empty() {
            return Vec::new();
        }
        let wpr = self.words_per_row;
        let mut mask = vec![0u64; wpr];
        let mut union = vec![0u64; wpr];
        for &t in nodes {
            let row = self.row(t);
            let bit = 1u64 << (t % WORD_BITS);
            if mask[t / WORD_BITS] & bit == 0 {
                mask[t / WORD_BITS] |= bit;
                for (acc, &w) in union.iter_mut().zip(row) {
                    *acc |= w;
                }
            }
        }
        // Distinct targets get slots in increasing node order; `rank[k]`
        // is the slot of the lowest target in mask word `k`.
        let mut rank = Vec::with_capacity(wpr);
        let mut targets = Vec::new();
        let mut slots = 0;
        for (k, &w) in mask.iter().enumerate() {
            rank.push(slots);
            if w != 0 {
                targets.push(MaskWord {
                    index: k,
                    bits: w,
                    first_slot: slots,
                });
                slots += w.count_ones() as usize;
            }
        }
        let chunks = row_word_chunks(wpr, threads);
        let per_chunk = parallel_map(chunks, threads, |&(lo, hi)| {
            self.stream_triangles(&union[lo..hi], lo, &targets, slots)
        });
        let mut counts = vec![0u64; slots];
        for chunk in per_chunk {
            for (acc, c) in counts.iter_mut().zip(chunk) {
                *acc += c;
            }
        }
        nodes
            .iter()
            .map(|&t| {
                let below = mask[t / WORD_BITS] & ((1u64 << (t % WORD_BITS)) - 1);
                counts[rank[t / WORD_BITS] + below.count_ones() as usize]
            })
            .collect()
    }

    /// The per-chunk body of [`Self::triangles_at_many`]: streams the rows
    /// set in `union` (words `first_word..` of the union of the target
    /// rows) and returns the partial count of every target slot.
    fn stream_triangles(
        &self,
        union: &[u64],
        first_word: usize,
        targets: &[MaskWord],
        slots: usize,
    ) -> Vec<u64> {
        let mut counts = vec![0u64; slots];
        for (wi, &word) in union.iter().enumerate() {
            let mut rows = word;
            while rows != 0 {
                let v = (first_word + wi) * WORD_BITS + rows.trailing_zeros() as usize;
                rows &= rows - 1;
                let row_v = self.row(v);
                let full = v / WORD_BITS;
                let below_v = (1u64 << (v % WORD_BITS)) - 1;
                for target in targets {
                    let mut hits = row_v[target.index] & target.bits;
                    while hits != 0 {
                        let b = hits.trailing_zeros() as usize;
                        hits &= hits - 1;
                        let slot = target.first_slot
                            + (target.bits & ((1u64 << b) - 1)).count_ones() as usize;
                        let row_t = self.row(target.index * WORD_BITS + b);
                        counts[slot] += and_popcount(&row_t[..full], &row_v[..full])
                            + u64::from((row_t[full] & row_v[full] & below_v).count_ones());
                    }
                }
            }
        }
        counts
    }

    /// Converts to a sparse CSR graph (used in tests and for small matrices).
    pub fn to_csr(&self) -> CsrGraph {
        let mut edges = Vec::new();
        for u in 0..self.n {
            for v in self.row_indices(u) {
                if u < v {
                    edges.push((u as u32, v as u32));
                }
            }
        }
        CsrGraph::from_edges(self.n, &edges).expect("bit matrix always yields a valid graph")
    }

    /// Edge density `2E / (n(n-1))`.
    pub fn density(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        2.0 * self.num_edges() as f64 / (self.n as f64 * (self.n as f64 - 1.0))
    }
}

/// One non-zero word of the target mask in
/// [`BitMatrix::triangles_at_many`].
struct MaskWord {
    /// Word index within a row.
    index: usize,
    /// The targets in this word.
    bits: u64,
    /// Slot of the word's lowest target.
    first_slot: usize,
}

/// Splits the `words` row words into at most `4 · threads` contiguous
/// ranges of equal estimated work: row `v` costs ∝ `v` (its prefix), so
/// the cumulative cost grows as `v²` and the boundaries sit at
/// `words · √(k/K)`. One range when `threads` is 1.
fn row_word_chunks(words: usize, threads: usize) -> Vec<(usize, usize)> {
    let k = if threads <= 1 { 1 } else { threads * 4 };
    let mut chunks = Vec::with_capacity(k);
    let mut lo = 0;
    for i in 1..=k {
        let hi = if i == k {
            words
        } else {
            ((words as f64) * (i as f64 / k as f64).sqrt()) as usize
        };
        if hi > lo {
            chunks.push((lo, hi));
            lo = hi;
        }
    }
    chunks
}

/// The 64×64 blocks `(I, J)` with `J ≤ I` of a matrix `words` blocks
/// wide, in tiles of 8×8 blocks: a tile's blocks and their mirror blocks
/// `(J, I)` each span whole 64-byte cache lines of 512 rows, so the
/// strided block reads use every word of the lines they fetch.
fn lower_blocks(words: usize) -> impl Iterator<Item = (usize, usize)> {
    const TILE: usize = 8;
    (0..words).step_by(TILE).flat_map(move |ti| {
        (0..=ti).step_by(TILE).flat_map(move |tj| {
            (ti..(ti + TILE).min(words))
                .flat_map(move |bi| (tj..(tj + TILE).min(bi + 1)).map(move |bj| (bi, bj)))
        })
    })
}

/// Transposes a 64×64 bit block in place: afterwards bit `c` of
/// `block[r]` is what bit `r` of `block[c]` was. Six butterfly stages
/// swap the off-diagonal 32-, 16-, …, 1-bit sub-blocks.
fn transpose64(block: &mut [u64; WORD_BITS]) {
    let mut width = 32;
    let mut mask: u64 = 0x0000_0000_FFFF_FFFF;
    while width != 0 {
        for pair in block.chunks_exact_mut(2 * width) {
            let (low, high) = pair.split_at_mut(width);
            for (a, b) in low.iter_mut().zip(high) {
                let swap = ((*a >> width) ^ *b) & mask;
                *a ^= swap << width;
                *b ^= swap;
            }
        }
        width >>= 1;
        mask ^= mask << width;
    }
}

impl std::fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BitMatrix(n={}, edges={})", self.n, self.num_edges())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_query_symmetric() {
        let mut m = BitMatrix::new(100);
        m.set_edge(3, 70);
        assert!(m.has_edge(3, 70));
        assert!(m.has_edge(70, 3));
        assert_eq!(m.num_edges(), 1);
        m.clear_edge(70, 3);
        assert!(!m.has_edge(3, 70));
    }

    #[test]
    fn self_loop_is_noop() {
        let mut m = BitMatrix::new(10);
        m.set_edge(4, 4);
        assert!(!m.has_edge(4, 4));
        assert_eq!(m.num_edges(), 0);
    }

    #[test]
    fn triangle_count_on_k4() {
        // K4 has 3 triangles at each node.
        let mut m = BitMatrix::new(4);
        for u in 0..4 {
            for v in (u + 1)..4 {
                m.set_edge(u, v);
            }
        }
        for u in 0..4 {
            assert_eq!(m.triangles_at(u), 3);
        }
    }

    #[test]
    fn triangles_on_path_are_zero() {
        let mut m = BitMatrix::new(5);
        for u in 0..4 {
            m.set_edge(u, u + 1);
        }
        assert_eq!(m.triangles_per_node(), vec![0; 5]);
    }

    #[test]
    fn prefix_triangle_kernel_matches_naive_double_count() {
        // A deterministic pseudo-random symmetric matrix spanning several
        // words, including edges at word boundaries (63/64/65).
        let n = 150;
        let mut m = BitMatrix::new(n);
        let mut state = 0x9E3779B97F4A7C15u64;
        for u in 0..n {
            for v in (u + 1)..n {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                if state >> 61 == 0 {
                    m.set_edge(u, v);
                }
            }
        }
        for b in [63, 64, 65] {
            m.set_edge(10, b);
            m.set_edge(10, b + 5);
            m.set_edge(b, b + 5);
        }
        for u in 0..n {
            let twice: u64 = m
                .row_indices(u)
                .iter()
                .map(|&v| m.common_neighbors(u, v) as u64)
                .sum();
            assert_eq!(m.triangles_at(u), twice / 2, "node {u}");
        }
    }

    #[test]
    fn assign_row_symmetric_replaces_old_row() {
        let mut m = BitMatrix::new(6);
        m.set_edge(0, 1);
        m.set_edge(0, 2);
        let new_row = BitSet::from_indices(6, [3, 4]);
        m.assign_row_symmetric(0, &new_row);
        assert!(!m.has_edge(0, 1) && !m.has_edge(0, 2));
        assert!(m.has_edge(0, 3) && m.has_edge(4, 0));
        assert_eq!(m.degree(0), 2);
    }

    #[test]
    fn mirror_lower_restores_symmetry() {
        // Write lower-triangle bits only through rows_mut, then mirror.
        let mut m = BitMatrix::new(130);
        let wpr = m.words_per_row();
        {
            let rows = m.rows_mut(0, 130);
            // Row 70 claims {70,3} and {70,65}; row 129 claims {129,70}.
            rows[70 * wpr] |= 1u64 << 3;
            rows[70 * wpr + 1] |= 1u64 << 1; // bit 65
            rows[129 * wpr + 1] |= 1u64 << 6; // bit 70
        }
        m.mirror_lower();
        for (u, v) in [(70, 3), (70, 65), (129, 70)] {
            assert!(m.has_edge(u, v) && m.has_edge(v, u), "edge ({u},{v})");
        }
        assert_eq!(m.num_edges(), 3);
        // Result matches the set_edge-built matrix exactly.
        let mut reference = BitMatrix::new(130);
        reference.set_edge(70, 3);
        reference.set_edge(70, 65);
        reference.set_edge(129, 70);
        assert_eq!(m, reference);
    }

    #[test]
    fn mirror_lower_is_idempotent_on_symmetric() {
        let mut m = BitMatrix::new(67);
        m.set_edge(1, 2);
        m.set_edge(64, 3);
        let before = m.clone();
        m.mirror_lower();
        assert_eq!(m, before);
    }

    #[test]
    fn transpose64_matches_naive() {
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut block = [0u64; 64];
        for w in &mut block {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *w = state;
        }
        let original = block;
        transpose64(&mut block);
        for (r, &row) in original.iter().enumerate() {
            for (c, &column) in block.iter().enumerate() {
                assert_eq!((column >> r) & 1, (row >> c) & 1, "({r},{c})");
            }
        }
        transpose64(&mut block);
        assert_eq!(block, original);
    }

    #[test]
    fn well_formed_rejects_each_broken_invariant() {
        let mut m = BitMatrix::new(130);
        m.set_edge(3, 70);
        m.set_edge(129, 64);
        m.set_edge(1, 2);
        assert!(m.is_well_formed());
        assert!(BitMatrix::new(0).is_well_formed());
        let wpr = m.words_per_row();
        // Diagonal bit, one asymmetric bit in each block shape, tail bit.
        for (row, word, bit) in [(5, 0, 5), (70, 0, 4), (4, 1, 6), (100, 1, 37), (64, 2, 3)] {
            let mut broken = m.clone();
            broken.rows_mut(0, 130)[row * wpr + word] |= 1u64 << bit;
            assert!(!broken.is_well_formed(), "row {row} word {word} bit {bit}");
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn rows_mut_range_checked() {
        let mut m = BitMatrix::new(4);
        m.rows_mut(2, 5);
    }

    #[test]
    fn csr_roundtrip() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (3, 4)]).unwrap();
        let m = BitMatrix::from_csr(&g);
        let g2 = m.to_csr();
        assert_eq!(g.num_edges(), g2.num_edges());
        for u in 0..5 {
            assert_eq!(g.neighbors(u), g2.neighbors(u));
        }
    }

    #[test]
    fn common_neighbors_counts() {
        let mut m = BitMatrix::new(5);
        m.set_edge(0, 2);
        m.set_edge(0, 3);
        m.set_edge(1, 2);
        m.set_edge(1, 3);
        m.set_edge(1, 4);
        assert_eq!(m.common_neighbors(0, 1), 2);
    }

    #[test]
    fn density_of_complete_graph_is_one() {
        let mut m = BitMatrix::new(4);
        for u in 0..4 {
            for v in (u + 1)..4 {
                m.set_edge(u, v);
            }
        }
        assert!((m.density() - 1.0).abs() < 1e-12);
    }
}
