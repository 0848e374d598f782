//! The per-rank query summary: what `norm_sqr`, sampling weights and
//! `<Z_a Z_b>` need of a frozen state, reduced from one pass over the
//! rank's blocks so that every later query decodes nothing.
//!
//! A state is immutable between mutating commands, and these three
//! queries are linear in the probabilities `|amp|^2`, so they factor
//! through a small table:
//!
//! - the per-block squared norms (the sampling weights; their sum is the
//!   rank's term of the squared 2-norm), and
//! - the rank's term of `<Z_a Z_b>` for every qubit pair `a < b`, i.e.
//!   `sum_i (-1)^(bit_a(i) ^ bit_b(i)) |amp_i|^2` over the rank's
//!   amplitudes.
//!
//! Per block the parity sums come from one in-place Walsh–Hadamard
//! transform of the block's probabilities: coefficient `k` of the
//! transform is `sum_o (-1)^popcount(k & o) p[o]`, so coefficient 0 is the
//! block total, `1 << i` the `Z_i` sum and `(1 << i) | (1 << j)` the
//! `Z_i Z_j` sum of the in-block qubits. Qubits at or above `block_log2`
//! are constant across a block: they contribute a sign read off the
//! block's base index. A block is therefore reduced to
//! `1 + L + L(L-1)/2` numbers ([`QuerySummary::block_terms`]) and folded
//! into the rank table at once ([`QuerySummary::push_block`]); no
//! per-block pair table ever exists.
//!
//! Every value is a fixed-order function of the rank's compressed blocks:
//! the per-block reduce runs on one thread, and blocks are folded strictly
//! in block order. The summary of a state is therefore the same bits at
//! any rayon width, spilled or resident, in-process or behind a socket.
//!
//! Size: `8 * blocks_per_rank + 4 * n * (n - 1)` bytes per rank.

use qcs_cluster::Layout;

/// Index of the qubit pair `a < b` in a triangular table.
fn pair_index(a: usize, b: usize) -> usize {
    debug_assert!(a < b);
    b * (b - 1) / 2 + a
}

/// In-place unnormalized Walsh–Hadamard transform (`p.len()` a power of
/// two): `p[k]` becomes `sum_o (-1)^popcount(k & o) p[o]`.
fn walsh_hadamard(p: &mut [f64]) {
    let mut half = 1;
    while half < p.len() {
        for pair in p.chunks_exact_mut(2 * half) {
            let (lo, hi) = pair.split_at_mut(half);
            for (a, b) in lo.iter_mut().zip(hi) {
                let (x, y) = (*a, *b);
                *a = x + y;
                *b = x - y;
            }
        }
        half *= 2;
    }
}

/// One rank's answers to the linear queries of a frozen state.
#[derive(Debug)]
pub(crate) struct QuerySummary {
    layout: Layout,
    /// Squared norm of each folded block, in block order.
    weights: Vec<f64>,
    /// This rank's term of `<Z_a Z_b>` at `pair_index(a, b)`.
    zz: Vec<f64>,
}

impl QuerySummary {
    /// An empty summary awaiting the rank's blocks in block order.
    pub(crate) fn new(layout: Layout) -> Self {
        let n = layout.num_qubits as usize;
        Self {
            layout,
            weights: Vec::with_capacity(layout.blocks_per_rank()),
            zz: vec![0.0; n * n.saturating_sub(1) / 2],
        }
    }

    /// Reduce one decoded block (interleaved re/im, `2 << block_log2`
    /// values, consumed as scratch) to its squared norm and its Walsh row:
    /// the block total, the `block_log2` single-qubit sums, then the
    /// in-block pair sums in `pair_index` order.
    pub(crate) fn block_terms(layout: Layout, buf: &mut [f64]) -> (f64, Vec<f64>) {
        let amps = layout.block_amps();
        let l = layout.block_log2 as usize;
        assert_eq!(buf.len(), 2 * amps, "decoded block length");
        // Summed value by value, re and im alike: the sampling weights
        // have always been this expression and `sample` depends on its
        // exact bits.
        let weight = buf.iter().map(|v| v * v).sum();
        for o in 0..amps {
            buf[o] = buf[2 * o] * buf[2 * o] + buf[2 * o + 1] * buf[2 * o + 1];
        }
        let p = &mut buf[..amps];
        walsh_hadamard(p);
        let mut row = vec![0.0; 1 + l + l * l.saturating_sub(1) / 2];
        row[0] = p[0];
        for j in 0..l {
            row[1 + j] = p[1 << j];
            for i in 0..j {
                row[1 + l + pair_index(i, j)] = p[1 << i | 1 << j];
            }
        }
        (weight, row)
    }

    /// Fold the next block in block order: its squared norm and Walsh row
    /// from [`QuerySummary::block_terms`], and the global index `base` of
    /// its first amplitude (which fixes the sign of every qubit at or
    /// above `block_log2`).
    pub(crate) fn push_block(&mut self, base: u64, weight: f64, row: &[f64]) {
        let l = self.layout.block_log2 as usize;
        let sign = |q: usize| if base >> q & 1 == 1 { -1.0 } else { 1.0 };
        self.weights.push(weight);
        for b in 1..self.layout.num_qubits as usize {
            for a in 0..b {
                self.zz[pair_index(a, b)] += if b < l {
                    row[1 + l + pair_index(a, b)]
                } else if a < l {
                    sign(b) * row[1 + a]
                } else {
                    sign(a) * sign(b) * row[0]
                };
            }
        }
    }

    /// Per-block squared norms, in block order.
    pub(crate) fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// This rank's term of `<Z_a Z_b>` (`a != b`, either order).
    pub(crate) fn zz(&self, a: usize, b: usize) -> f64 {
        self.zz[pair_index(a.min(b), a.max(b))]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Direct signed sum over one rank's amplitudes.
    fn direct_zz(layout: Layout, rank: usize, state: &[f64], a: usize, b: usize) -> f64 {
        let base = layout.join(rank, 0, 0);
        state
            .chunks_exact(2)
            .enumerate()
            .map(|(o, v)| {
                let i = base + o as u64;
                let w = v[0] * v[0] + v[1] * v[1];
                if (i >> a ^ i >> b) & 1 == 0 {
                    w
                } else {
                    -w
                }
            })
            .sum()
    }

    fn summarize(layout: Layout, rank: usize, state: &[f64]) -> QuerySummary {
        let mut summary = QuerySummary::new(layout);
        for (b, block) in state.chunks_exact(2 * layout.block_amps()).enumerate() {
            let (weight, row) = QuerySummary::block_terms(layout, &mut block.to_vec());
            summary.push_block(layout.join(rank, b, 0), weight, &row);
        }
        summary
    }

    #[test]
    fn walsh_hadamard_matches_the_definition() {
        let p: Vec<f64> = (0..16).map(|i| (i as f64 * 0.37).sin().abs()).collect();
        let mut w = p.clone();
        walsh_hadamard(&mut w);
        for (k, got) in w.iter().enumerate() {
            let want: f64 = p
                .iter()
                .enumerate()
                .map(|(o, v)| {
                    if (k & o).count_ones() % 2 == 0 {
                        *v
                    } else {
                        -*v
                    }
                })
                .sum();
            assert!((got - want).abs() < 1e-12, "coefficient {k}");
        }
    }

    #[test]
    fn table_matches_direct_sums_in_every_geometry() {
        // (qubits, ranks_log2, block_log2): one-amplitude blocks, the
        // single-block rank, and in-block / block-index / rank-index mixes.
        for (n, ranks_log2, block_log2) in [(5, 0, 0), (5, 0, 5), (6, 1, 2), (6, 2, 3), (1, 0, 1)] {
            let layout = Layout::new(n, ranks_log2, block_log2);
            for rank in 0..layout.ranks() {
                let state: Vec<f64> = (0..2 * layout.amps_per_rank())
                    .map(|i| ((i + 31 * rank) as f64 * 0.7311).sin())
                    .collect();
                let summary = summarize(layout, rank, &state);
                assert_eq!(summary.weights().len(), layout.blocks_per_rank());
                for b in 1..n as usize {
                    for a in 0..b {
                        let want = direct_zz(layout, rank, &state, a, b);
                        let got = summary.zz(a, b);
                        assert!(
                            (got - want).abs() < 1e-12 * state.len() as f64,
                            "n={n} r={ranks_log2} l={block_log2} rank={rank} zz({a},{b}) = {got}, direct {want}"
                        );
                        assert_eq!(got.to_bits(), summary.zz(b, a).to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn weights_are_the_value_by_value_sum() {
        let layout = Layout::new(4, 0, 2);
        let state: Vec<f64> = (0..32).map(|i| (i as f64 * 1.3).cos() * 0.2).collect();
        let summary = summarize(layout, 0, &state);
        for (w, block) in summary.weights().iter().zip(state.chunks_exact(8)) {
            let want: f64 = block.iter().map(|v| v * v).sum();
            assert_eq!(w.to_bits(), want.to_bits());
        }
    }
}
