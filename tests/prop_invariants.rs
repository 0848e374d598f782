//! Property-based invariants across the workspace (proptest):
//! codec bound compliance, norm preservation, layout routing, and
//! compressed-vs-dense equivalence on random circuits.

use proptest::prelude::*;
use qcsim::circuits::Circuit;
use qcsim::cluster::{Layout, Route};
use qcsim::compress::{CodecId, ErrorBound};
use qcsim::{CompressedSimulator, GateKind, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Arbitrary finite-but-wild f64 data, including zeros and sign flips.
fn state_like_data() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        prop_oneof![
            3 => (-1.0f64..1.0).prop_map(|v| v * 1e-3),
            2 => (-1.0f64..1.0).prop_map(|v| v * 1e-9),
            1 => Just(0.0f64),
            1 => -1.0f64..1.0,
        ],
        1..600,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // The engine's lossy codec; the comparators' halves of this and the
    // next property are in `qcs-bench`'s `prop_comparators`.
    #[test]
    fn lossy_codecs_respect_relative_bounds(
        data in state_like_data(),
        eps_exp in 1u32..6,
    ) {
        let eps = 10f64.powi(-(eps_exp as i32));
        let codec = CodecId::SolutionC.build();
        let enc = codec
            .compress(&data, ErrorBound::PointwiseRelative(eps))
            .unwrap();
        let dec = codec.decompress(&enc).unwrap();
        prop_assert_eq!(dec.len(), data.len());
        for (a, b) in data.iter().zip(&dec) {
            prop_assert!(
                (a - b).abs() <= eps * a.abs() + f64::MIN_POSITIVE,
                "{}: |{} - {}| > {} * |{}|",
                codec.name(), a, b, eps, a
            );
        }
    }

    #[test]
    fn lossless_codecs_are_bit_exact(data in state_like_data(), pick in 0usize..2) {
        let codec = CodecId::ALL[pick].build();
        let enc = codec.compress(&data, ErrorBound::Lossless).unwrap();
        let dec = codec.decompress(&enc).unwrap();
        prop_assert_eq!(dec.len(), data.len());
        for (a, b) in data.iter().zip(&dec) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn layout_split_join_roundtrip(
        n in 4u32..26,
        ranks_log2 in 0u32..4,
        block_log2 in 1u32..8,
        seed in any::<u64>(),
    ) {
        prop_assume!(n >= ranks_log2 + block_log2);
        let l = Layout::new(n, ranks_log2, block_log2);
        let idx = seed % l.total_amps();
        let (r, b, o) = l.split(idx);
        prop_assert_eq!(l.join(r, b, o), idx);
        prop_assert!(r < l.ranks());
        prop_assert!(b < l.blocks_per_rank());
        prop_assert!(o < l.block_amps());
    }

    #[test]
    fn routing_cases_partition_target_qubits(
        n in 4u32..26,
        ranks_log2 in 0u32..4,
        block_log2 in 1u32..8,
    ) {
        prop_assume!(n >= ranks_log2 + block_log2);
        let l = Layout::new(n, ranks_log2, block_log2);
        let mut in_block = 0u32;
        let mut inter_block = 0u32;
        let mut inter_rank = 0u32;
        for q in 0..n {
            match l.route(q) {
                Route::InBlock { .. } => in_block += 1,
                Route::InterBlock { .. } => inter_block += 1,
                Route::InterRank { .. } => inter_rank += 1,
            }
        }
        prop_assert_eq!(in_block, block_log2);
        prop_assert_eq!(inter_rank, ranks_log2);
        prop_assert_eq!(inter_block, n - block_log2 - ranks_log2);
    }
}

/// A random short circuit drawn from the full gate vocabulary.
fn random_ops(n: usize) -> impl Strategy<Value = Circuit> {
    let gate = prop_oneof![
        Just(GateKind::H),
        Just(GateKind::X),
        Just(GateKind::T),
        Just(GateKind::SqrtY),
        (-3.0f64..3.0).prop_map(GateKind::Rz),
        (-3.0f64..3.0).prop_map(GateKind::Ry),
    ];
    prop::collection::vec((gate, 0..n, 0..n, 0..n, 0u8..4), 1..24).prop_map(move |specs| {
        let mut c = Circuit::new(n);
        for (g, a, b, t, kind) in specs {
            match kind {
                0 => {
                    c.push(qcsim::Op::Gate {
                        gate: g,
                        controls: vec![],
                        target: t,
                    });
                }
                1 if a != t => {
                    c.push(qcsim::Op::Gate {
                        gate: g,
                        controls: vec![a],
                        target: t,
                    });
                }
                2 if a != b && a != t && b != t => {
                    c.push(qcsim::Op::Gate {
                        gate: g,
                        controls: vec![a, b],
                        target: t,
                    });
                }
                3 if a != b => {
                    c.push(qcsim::Op::Swap { a, b });
                }
                _ => {
                    c.push(qcsim::Op::Gate {
                        gate: g,
                        controls: vec![],
                        target: t,
                    });
                }
            }
        }
        c
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn compressed_sim_matches_dense_on_random_circuits(c in random_ops(7)) {
        let cfg = SimConfig::default().with_block_log2(3).with_ranks_log2(2);
        let mut sim = CompressedSimulator::new(7, cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        sim.run(&c, &mut rng).unwrap();
        let dense = c.simulate_dense(&mut rng);
        let f = sim.snapshot_dense().unwrap().fidelity(&dense);
        prop_assert!(f > 1.0 - 1e-10, "fidelity {} on {:?}", f, c);
    }

    #[test]
    fn compressed_sim_preserves_norm(c in random_ops(7)) {
        let cfg = SimConfig::default().with_block_log2(3).with_ranks_log2(1);
        let mut sim = CompressedSimulator::new(7, cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        sim.run(&c, &mut rng).unwrap();
        let norm = sim.norm_sqr().unwrap();
        prop_assert!((norm - 1.0).abs() < 1e-9, "norm {}", norm);
    }

    #[test]
    fn interrank_exchange_roundtrip_is_byte_preserving_lossless(data in state_like_data()) {
        // The Route::InterRank protocol: the follower sends a compressed
        // block over a duplex link; the leader decompresses, (here: applies
        // no gate), and recompresses at the same bound before sending it
        // back. Under a lossless codec that full round trip must reproduce
        // the payload byte-for-byte — the exchange itself can never be a
        // fidelity event.
        use qcsim::cluster::duplex;
        use qcsim::core::block::{BlockCodec, CompressedBlock};
        let codec = BlockCodec::new(CodecId::SolutionC);
        let block = codec.compress(&data, ErrorBound::Lossless).unwrap();
        let (follower, leader) = duplex::<(usize, CompressedBlock)>();
        prop_assert!(follower.send((0, block.clone())));
        let (idx, inbound) = leader.recv().unwrap();
        prop_assert_eq!(idx, 0);
        prop_assert_eq!(&*inbound.bytes, &*block.bytes);
        let mut buf = Vec::new();
        codec.decompress(&inbound, &mut buf).unwrap();
        let outbound = codec.compress(&buf, ErrorBound::Lossless).unwrap();
        prop_assert!(leader.send((0, outbound)));
        let (_, returned) = follower.recv().unwrap();
        prop_assert_eq!(&*returned.bytes, &*block.bytes);
        prop_assert_eq!(returned.codec, block.codec);
    }

    #[test]
    fn lossy_sim_fidelity_above_ledger_bound(c in random_ops(6)) {
        let cfg = SimConfig::default()
            .with_block_log2(3)
            .with_fixed_bound(ErrorBound::PointwiseRelative(1e-3));
        let mut sim = CompressedSimulator::new(6, cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        sim.run(&c, &mut rng).unwrap();
        let dense = c.simulate_dense(&mut rng);
        let f = sim.snapshot_dense().unwrap().fidelity(&dense);
        let bound = sim.report().fidelity_lower_bound;
        prop_assert!(f >= bound - 1e-9, "fidelity {} < bound {}", f, bound);
    }
}
