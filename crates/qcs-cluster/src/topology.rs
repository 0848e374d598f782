//! Rank/block layout and target-qubit routing (paper §3.1, §3.3, Fig. 3).
//!
//! The `2^n` amplitudes are divided equally over `r = 2^ranks_log2` ranks;
//! each rank's partial vector is divided into blocks of `2^block_log2`
//! amplitudes. A global amplitude index therefore splits into three
//! segments (most-significant first):
//!
//! ```text
//! [ rank (n - log2 r .. n) | block (log2 b .. n - log2 r) | offset (0 .. log2 b) ]
//! ```
//!
//! When a gate hits target qubit `q`, the paired amplitude index differs in
//! bit `q`, so the pair lives (a) in the same block, (b) in a different
//! block of the same rank, or (c) in a different rank — the three cases of
//! §3.3. Controls partition the same way (§3.3, two-qubit list).
//!
//! [`Layout`] is the one owner of that rule. Besides [`Layout::route`]
//! and [`Layout::control_scope`] it answers which slots a wave touches:
//! [`Layout::control_masks`] splits a gate's controls by scope, and the
//! slot functions ([`Layout::selected_blocks`], [`Layout::block_pairs`],
//! [`Layout::rank_pairs`], [`Layout::batch_units`]) list the blocks, block
//! pairs and rank pairs of each wave kind in the order a rank walks them.
//! The engine's rank workers and the schedule's access plan both call
//! them, so the plan and the walker agree by construction.

/// Where the two amplitudes of a gate pair live relative to each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `q < log2 b`: both amplitudes are in the same block.
    InBlock {
        /// Bit position within the block offset.
        offset_bit: u32,
    },
    /// `log2 b <= q < n - log2 r`: same rank, different blocks.
    InterBlock {
        /// Distance between the paired blocks, in blocks.
        block_stride: usize,
    },
    /// `q >= n - log2 r`: the pair spans two ranks; blocks must be
    /// exchanged between ranks (communication).
    InterRank {
        /// Distance between the paired ranks, in ranks.
        rank_stride: usize,
    },
}

/// Which part of the simulation a control qubit gates off (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlScope {
    /// `c < log2 b`: selects amplitudes within every block.
    InBlock {
        /// Bit position within the block offset.
        offset_bit: u32,
    },
    /// `log2 b <= c < n - log2 r`: whole blocks are skipped when the
    /// control bit is 0.
    BlockSelect {
        /// Bit position within the block index.
        block_bit: u32,
    },
    /// `c >= n - log2 r`: whole ranks are skipped.
    RankSelect {
        /// Bit position within the rank index.
        rank_bit: u32,
    },
}

/// The distributed layout of a state vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Total qubits `n`.
    pub num_qubits: u32,
    /// `log2` of the rank count.
    pub ranks_log2: u32,
    /// `log2` of the amplitudes per block.
    pub block_log2: u32,
}

impl Layout {
    /// Build a layout, validating that `n >= log2 r + log2 b`.
    pub fn new(num_qubits: u32, ranks_log2: u32, block_log2: u32) -> Self {
        assert!(
            num_qubits >= ranks_log2 + block_log2,
            "need 2^{num_qubits} >= 2^{ranks_log2} ranks x 2^{block_log2} amps"
        );
        Self {
            num_qubits,
            ranks_log2,
            block_log2,
        }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        1usize << self.ranks_log2
    }

    /// Amplitudes per block.
    pub fn block_amps(&self) -> usize {
        1usize << self.block_log2
    }

    /// Blocks per rank.
    pub fn blocks_per_rank(&self) -> usize {
        1usize << (self.num_qubits - self.ranks_log2 - self.block_log2)
    }

    /// Amplitudes per rank.
    pub fn amps_per_rank(&self) -> usize {
        1usize << (self.num_qubits - self.ranks_log2)
    }

    /// Total amplitudes `2^n`.
    pub fn total_amps(&self) -> u64 {
        1u64 << self.num_qubits
    }

    /// Split a global amplitude index into `(rank, block, offset)`.
    pub fn split(&self, index: u64) -> (usize, usize, usize) {
        let offset = (index & (self.block_amps() as u64 - 1)) as usize;
        let block = ((index >> self.block_log2) & (self.blocks_per_rank() as u64 - 1)) as usize;
        let rank = (index >> (self.num_qubits - self.ranks_log2)) as usize;
        (rank, block, offset)
    }

    /// Inverse of [`Layout::split`].
    pub fn join(&self, rank: usize, block: usize, offset: usize) -> u64 {
        debug_assert!(rank < self.ranks());
        debug_assert!(block < self.blocks_per_rank());
        debug_assert!(offset < self.block_amps());
        ((rank as u64) << (self.num_qubits - self.ranks_log2))
            | ((block as u64) << self.block_log2)
            | offset as u64
    }

    /// Classify a target qubit per §3.3 / Fig. 3.
    pub fn route(&self, target: u32) -> Route {
        assert!(target < self.num_qubits);
        if target < self.block_log2 {
            Route::InBlock { offset_bit: target }
        } else if target < self.num_qubits - self.ranks_log2 {
            Route::InterBlock {
                block_stride: 1usize << (target - self.block_log2),
            }
        } else {
            Route::InterRank {
                rank_stride: 1usize << (target - (self.num_qubits - self.ranks_log2)),
            }
        }
    }

    /// Classify a control qubit per §3.3.
    pub fn control_scope(&self, control: u32) -> ControlScope {
        assert!(control < self.num_qubits);
        if control < self.block_log2 {
            ControlScope::InBlock {
                offset_bit: control,
            }
        } else if control < self.num_qubits - self.ranks_log2 {
            ControlScope::BlockSelect {
                block_bit: control - self.block_log2,
            }
        } else {
            ControlScope::RankSelect {
                rank_bit: control - (self.num_qubits - self.ranks_log2),
            }
        }
    }

    /// The qubit a control scope was classified from: the inverse of
    /// [`Layout::control_scope`].
    pub fn scope_qubit(&self, scope: ControlScope) -> u32 {
        match scope {
            ControlScope::InBlock { offset_bit } => offset_bit,
            ControlScope::BlockSelect { block_bit } => self.block_log2 + block_bit,
            ControlScope::RankSelect { rank_bit } => self.num_qubits - self.ranks_log2 + rank_bit,
        }
    }

    /// For a qubit above the block — a block-index or rank-index bit —
    /// whether it reads 1 on every amplitude of block `block` of `rank`;
    /// `None` for an offset qubit, which splits each block.
    pub fn block_wide_bit(&self, scope: ControlScope, rank: usize, block: usize) -> Option<bool> {
        match scope {
            ControlScope::InBlock { .. } => None,
            ControlScope::BlockSelect { block_bit } => Some(block >> block_bit & 1 == 1),
            ControlScope::RankSelect { rank_bit } => Some(rank >> rank_bit & 1 == 1),
        }
    }

    /// Split controls by scope into `(offset, block, rank)` masks: a gate
    /// acts on the amplitudes whose offset, block index and rank index
    /// each cover their mask.
    pub fn control_masks(&self, controls: &[usize]) -> (usize, usize, usize) {
        let mut masks = (0, 0, 0);
        for &c in controls {
            match self.control_scope(c as u32) {
                ControlScope::InBlock { offset_bit } => masks.0 |= 1 << offset_bit,
                ControlScope::BlockSelect { block_bit } => masks.1 |= 1 << block_bit,
                ControlScope::RankSelect { rank_bit } => masks.2 |= 1 << rank_bit,
            }
        }
        masks
    }

    /// The blocks of a rank whose index covers `block_cmask`, ascending
    /// (every block for an empty mask).
    pub fn selected_blocks(&self, block_cmask: usize) -> impl Iterator<Item = usize> {
        (0..self.blocks_per_rank()).filter(move |b| b & block_cmask == block_cmask)
    }

    /// The `[b, b | stride]` block pairs of an inter-block wave on a
    /// selected rank, in ascending `b`.
    pub fn block_pairs(
        &self,
        block_stride: usize,
        block_cmask: usize,
    ) -> impl Iterator<Item = [usize; 2]> {
        (0..self.blocks_per_rank())
            .filter(move |b| b & block_stride == 0 && b & block_cmask == block_cmask)
            .map(move |b| [b, b | block_stride])
    }

    /// The `[lead, follow]` rank pairs of an inter-rank wave: rank `r`
    /// leads rank `r | stride`; pairs whose ranks miss `rank_cmask` sit
    /// the wave out.
    pub fn rank_pairs(
        &self,
        rank_stride: usize,
        rank_cmask: usize,
    ) -> impl Iterator<Item = [usize; 2]> {
        (0..self.ranks())
            .filter(move |r| r & rank_stride == 0 && r & rank_cmask == rank_cmask)
            .map(move |r| [r, r | rank_stride])
    }

    /// The units of an in-block batch wave on `rank`: every block some
    /// gate selects, ascending, with the mask of the gates that fire on
    /// it. `masks[i]` is gate `i`'s `(block_cmask, rank_cmask)`.
    pub fn batch_units(&self, rank: usize, masks: &[(usize, usize)]) -> Vec<(usize, u64)> {
        // Gates without a block-scope control fire on every block of a
        // rank they select; only the others are tested block by block.
        let (mut every, mut some) = (0u64, Vec::new());
        for (i, &(bcm, rcm)) in masks.iter().enumerate() {
            if rank & rcm != rcm {
                continue;
            }
            match bcm {
                0 => every |= 1 << i,
                _ => some.push((bcm, 1u64 << i)),
            }
        }
        let fired = |b: usize| {
            let hits = some.iter().filter(|&&(bcm, _)| b & bcm == bcm);
            hits.fold(every, |mask, &(_, bit)| mask | bit)
        };
        (0..self.blocks_per_rank())
            .map(|b| (b, fired(b)))
            .filter(|&(_, mask)| mask != 0)
            .collect()
    }

    /// Memory required for an uncompressed simulation: `2^{n+4}` bytes
    /// (double-precision complex amplitudes, paper §1).
    pub fn uncompressed_bytes(&self) -> u128 {
        1u128 << (self.num_qubits + 4)
    }
}

/// Maximum number of qubits whose full (uncompressed) state fits in
/// `bytes` of memory: `floor(log2(bytes)) - 4` (paper Table 1).
pub fn max_qubits_for_memory(bytes: u128) -> u32 {
    assert!(bytes >= 32, "need at least one amplitude pair");
    (127 - bytes.leading_zeros()) - 4
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_join_round_trip() {
        let l = Layout::new(12, 2, 4);
        for index in [0u64, 1, 15, 16, 1023, 4095, 2048, 2049] {
            let (r, b, o) = l.split(index);
            assert_eq!(l.join(r, b, o), index);
        }
    }

    #[test]
    fn partition_counts() {
        let l = Layout::new(20, 3, 10);
        assert_eq!(l.ranks(), 8);
        assert_eq!(l.block_amps(), 1024);
        assert_eq!(l.blocks_per_rank(), 128);
        assert_eq!(l.amps_per_rank(), 131072);
        assert_eq!(l.total_amps(), 1 << 20);
    }

    #[test]
    fn routing_three_cases() {
        // n=12, r=2^2, b=2^4: offsets 0-3, blocks 4-9, ranks 10-11.
        let l = Layout::new(12, 2, 4);
        assert_eq!(l.route(0), Route::InBlock { offset_bit: 0 });
        assert_eq!(l.route(3), Route::InBlock { offset_bit: 3 });
        assert_eq!(l.route(4), Route::InterBlock { block_stride: 1 });
        assert_eq!(l.route(9), Route::InterBlock { block_stride: 32 });
        assert_eq!(l.route(10), Route::InterRank { rank_stride: 1 });
        assert_eq!(l.route(11), Route::InterRank { rank_stride: 2 });
    }

    #[test]
    fn control_scopes_match_routes() {
        let l = Layout::new(12, 2, 4);
        assert_eq!(l.control_scope(2), ControlScope::InBlock { offset_bit: 2 });
        assert_eq!(
            l.control_scope(5),
            ControlScope::BlockSelect { block_bit: 1 }
        );
        assert_eq!(
            l.control_scope(11),
            ControlScope::RankSelect { rank_bit: 1 }
        );
    }

    #[test]
    fn pair_partner_locations_agree_with_route() {
        let l = Layout::new(10, 2, 3);
        for q in 0..10u32 {
            let route = l.route(q);
            // Check against explicit index arithmetic for a few indices.
            for idx in [0u64, 5, 63, 200, 700] {
                if idx >> q & 1 == 1 {
                    continue;
                }
                let partner = idx | (1 << q);
                let (r1, b1, _) = l.split(idx);
                let (r2, b2, _) = l.split(partner);
                match route {
                    Route::InBlock { .. } => {
                        assert_eq!((r1, b1), (r2, b2));
                    }
                    Route::InterBlock { block_stride } => {
                        assert_eq!(r1, r2);
                        assert_eq!(b2 - b1, block_stride);
                    }
                    Route::InterRank { rank_stride } => {
                        assert_eq!(r2 - r1, rank_stride);
                        assert_eq!(b1, b2);
                    }
                }
            }
        }
    }

    #[test]
    fn zero_rank_layout_is_single_node() {
        let l = Layout::new(8, 0, 4);
        assert_eq!(l.ranks(), 1);
        for q in 0..8u32 {
            assert!(!matches!(l.route(q), Route::InterRank { .. }));
        }
    }

    #[test]
    fn table1_max_qubit_capacities() {
        // Paper Table 1: Summit 2.8 PB -> 47, Sierra 1.38 PB -> 46,
        // Sunway TaihuLight 1.31 PB -> 46, Theta 0.8 PB -> 45.
        let pb = 1u128 << 50;
        assert_eq!(max_qubits_for_memory(28 * pb / 10), 47);
        assert_eq!(max_qubits_for_memory(138 * pb / 100), 46);
        assert_eq!(max_qubits_for_memory(131 * pb / 100), 46);
        assert_eq!(max_qubits_for_memory(8 * pb / 10), 45);
    }

    #[test]
    fn uncompressed_bytes_formula() {
        let l = Layout::new(30, 0, 20);
        assert_eq!(l.uncompressed_bytes(), 1u128 << 34); // 16 GiB
    }

    #[test]
    #[should_panic(expected = "need 2^")]
    fn undersized_layout_rejected() {
        Layout::new(5, 3, 3);
    }

    /// Every layout with `n <= 10`.
    fn layouts() -> impl Iterator<Item = Layout> {
        (1..=10u32)
            .flat_map(|n| (0..=n).flat_map(move |r| (0..=n - r).map(move |b| Layout::new(n, r, b))))
    }

    /// A gate of `l` drawn from `(target, control subset)` bits: the
    /// controls are the subset's qubits below `n`, minus the target.
    fn gate(l: &Layout, (t, subset): (u32, u16)) -> (u32, Vec<usize>) {
        let target = t % l.num_qubits;
        let controls = (0..l.num_qubits)
            .filter(|&c| c != target && subset >> c & 1 == 1)
            .map(|c| c as usize)
            .collect();
        (target, controls)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]
        #[test]
        fn slot_functions_match_a_brute_force(
            picks in proptest::collection::vec((0u32..64, proptest::prelude::any::<u16>()), 1..5)
        ) {
            for l in layouts() {
                let gates: Vec<_> = picks.iter().map(|&p| gate(&l, p)).collect();
                // Block `b` of rank `r` is in a gate's wave exactly when every
                // block- and rank-scope control reads 1 at its first index.
                let high = |c: &usize| *c as u32 >= l.block_log2;
                let sel = |cs: &[usize], r, b| {
                    let i = l.join(r, b, 0);
                    cs.iter().filter(|c| high(c)).all(|&c| i >> c & 1 == 1)
                };
                let masks: Vec<_> = gates
                    .iter()
                    .map(|(_, cs)| {
                        let (_, bcm, rcm) = l.control_masks(cs);
                        (bcm, rcm)
                    })
                    .collect();
                for r in 0..l.ranks() {
                    let expect: Vec<(usize, u64)> = (0..l.blocks_per_rank())
                        .map(|b| {
                            let fired = gates.iter().enumerate().filter(|(_, (_, cs))| sel(cs, r, b));
                            (b, fired.fold(0, |m, (i, _)| m | 1 << i))
                        })
                        .filter(|&(_, m)| m != 0)
                        .collect();
                    assert_eq!(l.batch_units(r, &masks), expect, "{l:?} rank {r}");
                }
                for (&(t, ref cs), &(bcm, rcm)) in gates.iter().zip(&masks) {
                    let bit = 1u64 << t;
                    match l.route(t) {
                        Route::InBlock { .. } => {}
                        Route::InterBlock { block_stride } => {
                            for r in 0..l.ranks() {
                                let got: Vec<_> = if r & rcm == rcm {
                                    l.block_pairs(block_stride, bcm).collect()
                                } else {
                                    vec![]
                                };
                                let expect: Vec<_> = (0..l.blocks_per_rank())
                                    .filter(|&b| l.join(r, b, 0) & bit == 0 && sel(cs, r, b))
                                    .map(|b| [b, l.split(l.join(r, b, 0) ^ bit).1])
                                    .collect();
                                assert_eq!(got, expect, "{l:?} target {t} controls {cs:?}");
                            }
                        }
                        Route::InterRank { rank_stride } => {
                            let rank_sel = |r| {
                                let i = l.join(r, 0, 0);
                                cs.iter().all(|&c| (c as u32) < l.num_qubits - l.ranks_log2 || i >> c & 1 == 1)
                            };
                            let expect: Vec<_> = (0..l.ranks())
                                .filter(|&r| l.join(r, 0, 0) & bit == 0 && rank_sel(r))
                                .map(|r| [r, l.split(l.join(r, 0, 0) ^ bit).0])
                                .collect();
                            let pairs: Vec<_> = l.rank_pairs(rank_stride, rcm).collect();
                            assert_eq!(pairs, expect, "{l:?} target {t} controls {cs:?}");
                            for [lead, follow] in pairs {
                                for r in [lead, follow] {
                                    let expect: Vec<_> =
                                        (0..l.blocks_per_rank()).filter(|&b| sel(cs, r, b)).collect();
                                    let got: Vec<_> = l.selected_blocks(bcm).collect();
                                    assert_eq!(got, expect, "{l:?} target {t} controls {cs:?}");
                                }
                            }
                        }
                    }
                }
                for q in 0..l.num_qubits {
                    let scope = l.control_scope(q);
                    assert_eq!(l.scope_qubit(scope), q);
                    for r in 0..l.ranks() {
                        for b in 0..l.blocks_per_rank() {
                            let bit = (q >= l.block_log2).then(|| l.join(r, b, 0) >> q & 1 == 1);
                            assert_eq!(l.block_wide_bit(scope, r, b), bit, "{l:?} qubit {q}");
                        }
                    }
                }
            }
        }
    }
}
