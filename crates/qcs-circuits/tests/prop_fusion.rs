//! Property suite for the batch scheduler: fused/batched schedules must be
//! observationally identical to the source circuit, must never reorder
//! gates across two-qubit/controlled operations, and must only ever emit
//! unitary fused matrices.

use proptest::prelude::*;
use qcs_circuits::schedule::{schedule_circuit, FusionPolicy, ScheduledOp, MAX_BATCH_GATES};
use qcs_circuits::{Circuit, Op};
use qcs_statevec::{Complex64, GateKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 6;
const ONE: Complex64 = Complex64::ONE;
const ZERO: Complex64 = Complex64::ZERO;

fn gate_kind() -> impl Strategy<Value = GateKind> {
    prop_oneof![
        Just(GateKind::H),
        Just(GateKind::X),
        Just(GateKind::Y),
        Just(GateKind::T),
        Just(GateKind::S),
        Just(GateKind::SqrtX),
        Just(GateKind::SqrtY),
        (-3.0f64..3.0).prop_map(GateKind::Rx),
        (-3.0f64..3.0).prop_map(GateKind::Ry),
        (-3.0f64..3.0).prop_map(GateKind::Rz),
        (-3.0f64..3.0).prop_map(GateKind::Phase),
    ]
}

/// A random circuit biased toward fusable runs (consecutive singles on the
/// same qubit) interleaved with controlled gates, swaps and measurements.
fn random_circuit() -> impl Strategy<Value = Circuit> {
    prop::collection::vec((gate_kind(), 0..N, 0..N, 0..N, 0u8..8), 1..40).prop_map(|specs| {
        let mut c = Circuit::new(N);
        for (g, a, b, t, kind) in specs {
            match kind {
                // Weight single-qubit gates heavily so fusion runs form.
                0..=3 => {
                    c.push(single(g, t));
                }
                4 if a != t => {
                    c.push(Op::Gate {
                        gate: g,
                        controls: vec![a],
                        target: t,
                    });
                }
                5 if a != b && a != t && b != t => {
                    c.push(Op::Gate {
                        gate: g,
                        controls: vec![a, b],
                        target: t,
                    });
                }
                6 if a != b => {
                    c.push(Op::Swap { a, b });
                }
                7 => {
                    c.push(Op::Measure { target: t });
                }
                _ => {
                    c.push(single(g, t));
                }
            }
        }
        c
    })
}

fn single(gate: GateKind, target: usize) -> Op {
    Op::Gate {
        gate,
        controls: vec![],
        target,
    }
}

fn policy(block_log2: u32, enabled: bool) -> FusionPolicy {
    FusionPolicy {
        enabled,
        block_log2,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // Fused + batched replay is amplitude-equivalent to direct execution
    // on a dense state vector, for every block geometry.
    #[test]
    fn scheduled_execution_matches_direct(
        c in random_circuit(),
        block_log2 in 0u32..7,
        enabled in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let s = schedule_circuit(&c, &policy(block_log2, enabled));
        let mut rng_a = StdRng::seed_from_u64(seed);
        let mut rng_b = StdRng::seed_from_u64(seed);
        let direct = c.simulate_dense(&mut rng_a);
        let scheduled = s.simulate_dense(&mut rng_b);
        let max_err = direct
            .amplitudes()
            .iter()
            .zip(scheduled.amplitudes())
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0f64, f64::max);
        prop_assert!(max_err <= 1e-10, "max amplitude error {max_err:e}");
    }

    // The scheduler never reorders: every scheduled item covers a
    // contiguous source range and the ranges tile the circuit in order.
    // In particular no gate ever crosses a two-qubit, controlled, swap,
    // or measure op.
    #[test]
    fn schedule_is_order_preserving(
        c in random_circuit(),
        block_log2 in 0u32..7,
        enabled in any::<bool>(),
    ) {
        let s = schedule_circuit(&c, &policy(block_log2, enabled));
        let mut next = 0usize;
        for item in s.items() {
            let (start, len) = item.src_range();
            prop_assert_eq!(start, next);
            prop_assert!(len >= 1);
            next = start + len;
        }
        prop_assert_eq!(next, c.gate_count());
    }

    // Fused runs only ever swallow single-qubit gates on one qubit, and
    // two-qubit/controlled/swap/measure ops survive as their own items.
    #[test]
    fn fusion_only_merges_single_qubit_runs(
        c in random_circuit(),
        block_log2 in 0u32..7,
    ) {
        let s = schedule_circuit(&c, &policy(block_log2, true));
        let check_gate = |g: &qcs_circuits::FusedGate| {
            if g.src_len > 1 {
                for op in &c.ops()[g.src_start..g.src_start + g.src_len] {
                    match op {
                        Op::Gate { controls, target, .. } if controls.is_empty() => {
                            assert_eq!(*target, g.op.target, "fused run changed target");
                        }
                        other => panic!("fused run swallowed {other:?}"),
                    }
                }
            }
        };
        for item in s.items() {
            match item {
                ScheduledOp::Batch(b) => b.gates().iter().for_each(check_gate),
                ScheduledOp::Gate(g) => check_gate(g),
                ScheduledOp::Bare { op, src } => {
                    prop_assert!(
                        matches!(op, Op::Swap { .. } | Op::Measure { .. }),
                        "unitary left bare"
                    );
                    prop_assert_eq!(op, &c.ops()[*src]);
                }
            }
        }
    }

    // With the rewrites on and an in-block qubit to land on, no emitted
    // controlled gate is a `diag(1, lambda)` phase targeting a qubit at or
    // above the block split: every such phase runs as a per-block scalar.
    #[test]
    fn no_phase_targets_a_qubit_above_the_block(
        c in random_circuit(),
        block_log2 in 1u32..7,
    ) {
        let s = schedule_circuit(&c, &policy(block_log2, true));
        for item in s.items() {
            let gates: Vec<_> = match item {
                ScheduledOp::Batch(b) => b.gates().iter().collect(),
                ScheduledOp::Gate(g) => vec![g],
                ScheduledOp::Bare { .. } => vec![],
            };
            for g in gates {
                let m = g.op.gate.m;
                let phase = m[0][0] == ONE && m[0][1] == ZERO && m[1][0] == ZERO;
                prop_assert!(
                    !phase || g.op.controls.is_empty() || (g.op.target as u32) < block_log2,
                    "phase {m:?} still targets qubit {} (block_log2 {block_log2})",
                    g.op.target
                );
            }
        }
    }

    // Every fused matrix the scheduler emits is unitary: products of
    // unitaries stay unitary, and the scheduler must not degrade that
    // numerically beyond tolerance.
    #[test]
    fn fused_gates_stay_unitary(
        kinds in prop::collection::vec(gate_kind(), 1..24),
    ) {
        let mut c = Circuit::new(1);
        for g in kinds {
            c.push(single(g, 0));
        }
        let s = schedule_circuit(&c, &policy(1, true));
        let mut fused_seen = 0usize;
        for item in s.items() {
            let gates: Vec<_> = match item {
                ScheduledOp::Batch(b) => b.gates().iter().collect(),
                ScheduledOp::Gate(g) => vec![g],
                ScheduledOp::Bare { .. } => vec![],
            };
            for g in gates {
                fused_seen += g.src_len;
                prop_assert!(
                    g.op.gate.is_unitary(1e-9),
                    "fused matrix of {} gates lost unitarity",
                    g.src_len
                );
            }
        }
        prop_assert_eq!(fused_seen, c.gate_count());
    }

    // Batches only contain intra-block targets, hold at most the cap, and
    // only form with the rewrites on.
    #[test]
    fn batches_respect_block_routing_and_cap(
        c in random_circuit(),
        block_log2 in 0u32..7,
        enabled in any::<bool>(),
    ) {
        let s = schedule_circuit(&c, &policy(block_log2, enabled));
        for item in s.items() {
            if let ScheduledOp::Batch(b) = item {
                prop_assert!(enabled, "batch with the rewrites off");
                prop_assert!(b.len() >= 2, "degenerate batch");
                prop_assert!(b.len() <= MAX_BATCH_GATES);
                for g in b.gates() {
                    prop_assert!(
                        (g.op.target as u32) < block_log2,
                        "batched target {} not intra-block",
                        g.op.target
                    );
                }
            }
        }
    }
}
