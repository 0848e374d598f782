//! Eviction differential harness: victim selection must be a pure
//! *performance* change. Whatever the spill tier evicts — Belady-MIN
//! victims chosen from the slots each wave announces — the amplitudes
//! must match the dense reference to 1e-10 on every circuit family.
//!
//! On top of the correctness matrix, the suite pins the two performance
//! contracts the policy exists for:
//!
//! * on a run whose every wave touches each of the N blocks once, MIN
//!   reads exactly N − B fetches per sweep with B blocks resident, the
//!   floor no policy can beat (the B residents are the only hits);
//! * peak memory stays within the residency budget plus scratch: the
//!   store buffers nothing beside its residents, and `peak_memory_bytes`
//!   must still count those.

use qcsim::circuits::supremacy::{random_circuit, Grid};
use qcsim::circuits::{
    grover_circuit, phase_estimation_circuit, qaoa_circuit, qft_benchmark_circuit,
    random_regular_graph, QaoaParams,
};
use qcsim::{Circuit, CompressedSimulator, ErrorBound, SimConfig, StateVector};
use rand::rngs::StdRng;
use rand::SeedableRng;

const TOL: f64 = 1e-10;

/// The five circuit families of the paper's evaluation, at geometries
/// small enough that the suite stays fast while
/// a 2-block budget still forces real spill traffic (2^n amplitudes over
/// 2^3-amplitude blocks = up to 64 blocks per family).
fn families() -> Vec<(&'static str, Circuit)> {
    vec![
        ("qft", qft_benchmark_circuit(9, 5)),
        ("grover", grover_circuit(7, 0b101_1010 & 0x7f, 4)),
        (
            "qaoa",
            qaoa_circuit(&random_regular_graph(9, 4, 5), &QaoaParams::standard(1)),
        ),
        ("phase_estimation", phase_estimation_circuit(6, 0.15625)),
        ("supremacy", random_circuit(Grid::new(3, 3), 8, 2)),
    ]
}

/// Lossless out-of-core config: `budget` resident blocks of 2^3
/// amplitudes on one rank.
fn spilled_cfg(budget: usize) -> SimConfig {
    SimConfig::default()
        .with_block_log2(3)
        .with_fixed_bound(ErrorBound::Lossless)
        .with_spill(budget)
}

fn run(c: &Circuit, cfg: SimConfig) -> CompressedSimulator {
    let n = c.num_qubits() as u32;
    let mut sim = CompressedSimulator::new(n, cfg).expect("sim");
    let mut rng = StdRng::seed_from_u64(2019);
    sim.run(c, &mut rng).expect("run");
    sim
}

/// Max absolute amplitude difference between the compressed snapshot and
/// the dense reference.
fn max_amp_error(sim: &CompressedSimulator, dense: &StateVector) -> f64 {
    let snap = sim.snapshot_dense().expect("snapshot");
    snap.amplitudes()
        .iter()
        .zip(dense.amplitudes())
        .map(|(a, b)| (*a - *b).abs())
        .fold(0.0f64, f64::max)
}

#[test]
fn every_family_matches_dense_out_of_core() {
    // All five families at a 2-block budget. Every run must actually go
    // out-of-core and still match the dense reference amplitude-wise.
    for (name, circuit) in families() {
        let mut rng = StdRng::seed_from_u64(2019);
        let dense = circuit.simulate_dense(&mut rng);
        let sim = run(&circuit, spilled_cfg(2));
        let report = sim.report();
        assert!(
            report.breakdown.spills > 0 && report.breakdown.fetches > 0,
            "{name}: the run must go out-of-core"
        );
        let err = max_amp_error(&sim, &dense);
        assert!(err <= TOL, "{name}: max amplitude error {err:e} > {TOL:e}");
        assert_eq!(
            report.fidelity_lower_bound, 1.0,
            "{name}: lossless run must keep the ledger at 1"
        );
    }
}

#[test]
fn planned_min_fetches_sit_at_the_sweep_floor() {
    // H on each qubit above the block split: every wave pairs each of the
    // N blocks with its partner and touches it once. With B blocks
    // resident, the B residents are the only hits a sweep can have, so
    // no policy reads fewer than N - B fetches per sweep, and MIN (the
    // plan hands it the wave's exact reference trace) reads exactly that.
    // Every fetch is a blocking read and the counters are deterministic,
    // so the pin is exact.
    let (n, block_log2) = (9usize, 3usize);
    let mut circuit = Circuit::new(n);
    for q in block_log2..n {
        circuit.h(q);
    }
    let blocks = 1u64 << (n - block_log2);
    let sweeps = (n - block_log2) as u64;
    for budget in [2u64, 4] {
        let sim = run(&circuit, spilled_cfg(budget as usize));
        let b = sim.report().breakdown;
        assert_eq!(b.prefetch_misses, b.fetches, "every fetch blocks");
        assert_eq!(
            b.fetches,
            sweeps * (blocks - budget),
            "budget {budget}: {sweeps} sweeps over {blocks} blocks"
        );
    }
}

#[test]
fn peak_memory_stays_within_budget_staging_and_dirty_bounds() {
    // The accounting regression (the footprint the escalation loop
    // steers by): the spill tier holds at most `budget` resident blocks
    // and no staging or dirty buffer, so `peak_memory_bytes` must stay
    // under budget + scratch while still counting the residents.
    let circuit = qft_benchmark_circuit(12, 7);
    let block_log2 = 6u32;
    let budget = 4usize;
    let cfg = SimConfig::default()
        .with_block_log2(block_log2)
        .with_fixed_bound(ErrorBound::Lossless)
        .with_spill(budget);
    let sim = run(&circuit, cfg);
    let report = sim.report();
    assert!(report.breakdown.spills > 0, "the run must go out-of-core");

    // Generous per-block ceiling: a lossless compressed frame never
    // exceeds the raw amplitudes plus codec/frame headers.
    let block_amps = 1u64 << block_log2;
    let block_cap = 16 * block_amps + 1024;
    let scratch = 2 * block_amps * 16; // one decoded block in flight (Eq. 8)
    let ceiling = budget as u64 * block_cap + scratch;
    assert!(
        report.peak_memory_bytes <= ceiling,
        "peak {} exceeds the budget+scratch ceiling {}",
        report.peak_memory_bytes,
        ceiling
    );
    // And the floor: the budget's worth of residents must register.
    assert!(
        report.peak_memory_bytes > scratch,
        "peak {} fails to count the resident tier at all",
        report.peak_memory_bytes
    );
}
