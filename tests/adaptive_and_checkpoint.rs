//! Integration tests for the adaptive ladder (§3.7), Eq. 8 memory
//! accounting, and checkpoint/resume (§3.5) across crate boundaries.

use qcsim::circuits::{qft_benchmark_circuit, Circuit};
use qcsim::core::checkpoint;
use qcsim::{CompressedSimulator, ErrorBound, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn spread_circuit(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.h(q);
    }
    for q in 0..n {
        c.rz(0.37 * (q + 1) as f64, q);
    }
    for q in 0..n - 1 {
        c.cx(q, q + 1);
    }
    c
}

#[test]
fn ladder_escalates_monotonically_and_reports() {
    let n = 12u32;
    let budget = (1u64 << (n + 4)) / 6;
    let cfg = SimConfig::default()
        .with_block_log2(6)
        .with_ranks_log2(1)
        .with_memory_budget(budget);
    let mut sim = CompressedSimulator::new(n, cfg).unwrap();
    let mut rng = StdRng::seed_from_u64(0);
    let mut last_bound = 0.0f64;
    for op in spread_circuit(n as usize).ops() {
        sim.apply_op(op, &mut rng).unwrap();
        let b = sim.current_bound().magnitude();
        assert!(b >= last_bound, "ladder went backwards: {b} < {last_bound}");
        last_bound = b;
    }
    let report = sim.report();
    assert!(report.escalations > 0);
    assert!(report.fidelity_lower_bound < 1.0);
    assert!(report.peak_memory_bytes > 0);
    assert!(report.min_compression_ratio.is_finite());
}

#[test]
fn unbudgeted_simulation_stays_lossless() {
    let n = 12u32;
    let cfg = SimConfig::default().with_block_log2(6).with_ranks_log2(1);
    let mut sim = CompressedSimulator::new(n, cfg).unwrap();
    let mut rng = StdRng::seed_from_u64(0);
    sim.run(&spread_circuit(n as usize), &mut rng).unwrap();
    assert_eq!(sim.current_bound(), ErrorBound::Lossless);
    assert_eq!(sim.report().fidelity_lower_bound, 1.0);
    assert_eq!(sim.report().escalations, 0);
}

#[test]
fn memory_accounting_matches_eq8() {
    let n = 10u32;
    let cfg = SimConfig::default().with_block_log2(5).with_ranks_log2(2);
    let sim = CompressedSimulator::new(n, cfg).unwrap();
    // Eq. 8: sum of compressed blocks + 2 scratch blocks per rank.
    let scratch = 4 * 2 * (1u64 << 5) * 16;
    assert_eq!(sim.memory_bytes(), sim.compressed_bytes() + scratch);
    // Fresh |0...0> state compresses to almost nothing.
    assert!(sim.compressed_bytes() < 4096);
    assert!(sim.compression_ratio() > 50.0);
}

#[test]
fn checkpoint_resume_under_lossy_ladder_is_bit_exact() {
    let n = 10u32;
    let budget = (1u64 << (n + 4)) / 5;
    let cfg = SimConfig::default()
        .with_block_log2(5)
        .with_ranks_log2(1)
        .with_memory_budget(budget);
    let circuit = qft_benchmark_circuit(n as usize, 3);
    let ops = circuit.ops();
    let cut = ops.len() * 2 / 3;

    // One-shot run.
    let mut rng = StdRng::seed_from_u64(0);
    let mut oneshot = CompressedSimulator::new(n, cfg.clone()).unwrap();
    for op in ops {
        oneshot.apply_op(op, &mut rng).unwrap();
    }

    // Checkpointed run.
    let mut rng = StdRng::seed_from_u64(0);
    let mut first = CompressedSimulator::new(n, cfg.clone()).unwrap();
    for op in &ops[..cut] {
        first.apply_op(op, &mut rng).unwrap();
    }
    let path = std::env::temp_dir().join(format!("qcsim-int-{}.ckpt", std::process::id()));
    checkpoint::save(&first, &path).unwrap();
    let mut resumed = checkpoint::load(&path, cfg).unwrap();
    std::fs::remove_file(&path).ok();
    for op in &ops[cut..] {
        resumed.apply_op(op, &mut rng).unwrap();
    }

    let a = oneshot.snapshot_dense().unwrap();
    let b = resumed.snapshot_dense().unwrap();
    for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
        assert_eq!(x.re.to_bits(), y.re.to_bits());
        assert_eq!(x.im.to_bits(), y.im.to_bits());
    }
    // The ledger must carry across the checkpoint too.
    assert_eq!(
        oneshot.report().fidelity_lower_bound,
        resumed.report().fidelity_lower_bound
    );
}

#[test]
fn budget_is_enforced_after_escalation() {
    // Once the ladder escalates with recompression, Eq. 8 memory must not
    // exceed the budget unless the ladder is exhausted.
    let n = 12u32;
    let scratch = 2 * 2 * (1u64 << 6) * 16;
    let budget = scratch + (1u64 << (n + 4)) / 8;
    let cfg = SimConfig::default()
        .with_block_log2(6)
        .with_ranks_log2(1)
        .with_memory_budget(budget);
    let mut sim = CompressedSimulator::new(n, cfg).unwrap();
    let mut rng = StdRng::seed_from_u64(0);
    for op in spread_circuit(n as usize).ops() {
        sim.apply_op(op, &mut rng).unwrap();
        let exhausted = sim.current_bound() == ErrorBound::PointwiseRelative(1e-1);
        if !exhausted {
            assert!(
                sim.memory_bytes() <= budget,
                "over budget at bound {}",
                sim.current_bound()
            );
        }
    }
}

#[test]
fn time_breakdown_covers_all_phases() {
    let n = 12u32;
    let cfg = SimConfig::default().with_block_log2(5).with_ranks_log2(2);
    let mut sim = CompressedSimulator::new(n, cfg).unwrap();
    let mut rng = StdRng::seed_from_u64(0);
    sim.run(&spread_circuit(n as usize), &mut rng).unwrap();
    let bd = sim.report().breakdown;
    assert!(bd.compression.as_nanos() > 0);
    assert!(bd.decompression.as_nanos() > 0);
    assert!(bd.computation.as_nanos() > 0);
    // The spread circuit touches the rank bits (cx over the top qubits).
    assert!(bd.comm_bytes > 0);
    let pct = bd.percentages();
    assert!((pct.iter().sum::<f64>() - 100.0).abs() < 1e-6);
}

fn golden_checkpoint_cfg() -> SimConfig {
    SimConfig::default()
        .with_block_log2(3)
        .with_ranks_log2(1)
        .with_fixed_bound(ErrorBound::PointwiseRelative(1e-4))
}

fn golden_checkpoint_sim() -> CompressedSimulator {
    let mut sim = CompressedSimulator::new(6, golden_checkpoint_cfg()).unwrap();
    let mut c = Circuit::new(6);
    for q in 0..6 {
        c.h(q);
    }
    c.cx(0, 5).rz(0.4, 3).t(2);
    sim.run(&c, &mut StdRng::seed_from_u64(0)).unwrap();
    sim
}

/// `fixtures/checkpoint_v7_small.bin` was written from exactly this
/// simulator by the build whose lossless blocks may be qzstd palette
/// containers; its header bytes are those the hand-rolled header code of
/// commit 3a80267 wrote, under the new magic. It differs from
/// `checkpoint_v6_small.bin` only in the magic: none of its blocks takes
/// the palette. (The `QCSCKPT3` to `QCSCKPT6` files it replaced are stale
/// fixtures of `decoder_robustness.rs`.) To change the layout on purpose:
/// edit the `Header` declaration in `qcs-core/src/checkpoint.rs`, change
/// the magic, and regenerate the fixture in the same commit.
#[test]
fn checkpoint_bytes_match_the_parent_commit() {
    let fixture: &[u8] = include_bytes!("fixtures/checkpoint_v7_small.bin");
    assert_eq!(&fixture[..8], b"QCSCKPT7");
    let sim = golden_checkpoint_sim();
    let path = std::env::temp_dir().join(format!("qcsim-golden-{}.ckpt", std::process::id()));

    checkpoint::save(&sim, &path).unwrap();
    let saved = std::fs::read(&path).unwrap();
    assert_eq!(saved.len(), fixture.len());
    assert!(saved == fixture, "checkpoint encoding drifted");

    std::fs::write(&path, fixture).unwrap();
    let restored = checkpoint::load(&path, golden_checkpoint_cfg()).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(restored.ledger(), sim.ledger());
    assert_eq!(restored.current_bound(), sim.current_bound());
    let (want, got) = (
        sim.snapshot_dense().unwrap(),
        restored.snapshot_dense().unwrap(),
    );
    for (a, b) in want.amplitudes().iter().zip(got.amplitudes()) {
        assert_eq!(a.re.to_bits(), b.re.to_bits());
        assert_eq!(a.im.to_bits(), b.im.to_bits());
    }
}
