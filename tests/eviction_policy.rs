//! Eviction-policy differential harness: victim selection must be a pure
//! *performance* change. Whatever the spill tier evicts — least-recently-
//! used blocks or Belady-MIN victims chosen from the slots each wave
//! announces — the amplitudes must match the dense reference to 1e-10 on
//! every circuit family.
//!
//! On top of the correctness matrix, the suite pins the two performance
//! contracts the policies exist for:
//!
//! * `PlannedMin` never issues more blocking fetches than `Lru` on a
//!   planned workload (the plan is a perfect future-reference trace, so
//!   MIN victims can only help);
//! * peak memory stays within the residency budget plus scratch: the
//!   store buffers nothing beside its residents, and `peak_memory_bytes`
//!   must still count those.

use qcsim::circuits::supremacy::{random_circuit, Grid};
use qcsim::circuits::{
    grover_circuit, phase_estimation_circuit, qaoa_circuit, qft_benchmark_circuit,
    random_regular_graph, QaoaParams,
};
use qcsim::core::Eviction;
use qcsim::{Circuit, CompressedSimulator, ErrorBound, SimConfig, StateVector};
use rand::rngs::StdRng;
use rand::SeedableRng;

const TOL: f64 = 1e-10;

/// The five circuit families of the paper's evaluation, at geometries
/// small enough that the policy matrix stays fast while
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

/// Lossless out-of-core config: `budget` resident blocks and the given
/// victim policy.
fn spilled_cfg(budget: usize, eviction: Eviction) -> SimConfig {
    SimConfig::default()
        .with_block_log2(3)
        .with_fixed_bound(ErrorBound::Lossless)
        .with_spill(budget)
        .with_eviction(eviction)
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
fn every_family_matches_dense_across_policy_and_write_behind() {
    // {Lru, PlannedMin} on all five families at a 2-block budget (every
    // eviction write is synchronous; the write-behind flag is inert).
    // Every cell must actually go out-of-core and still match the dense
    // reference amplitude-wise.
    for (name, circuit) in families() {
        let mut rng = StdRng::seed_from_u64(2019);
        let dense = circuit.simulate_dense(&mut rng);
        for eviction in [Eviction::Lru, Eviction::PlannedMin] {
            let sim = run(&circuit, spilled_cfg(2, eviction));
            let report = sim.report();
            assert!(
                report.breakdown.spills > 0 && report.breakdown.fetches > 0,
                "{name} ({}): the run must go out-of-core",
                eviction.name()
            );
            let err = max_amp_error(&sim, &dense);
            assert!(
                err <= TOL,
                "{name} ({}): max amplitude error {err:e} > {TOL:e}",
                eviction.name()
            );
            assert_eq!(
                report.fidelity_lower_bound, 1.0,
                "{name}: lossless run must keep the ledger at 1"
            );
        }
    }
}

#[test]
fn planned_min_never_blocks_on_more_fetches_than_lru() {
    // Every fetch is a blocking seek-and-read and the counters are fully
    // deterministic, so the MIN-vs-LRU comparison is exact: the plan window hands
    // `PlannedMin` the true future reference trace, and Belady's
    // argument says its miss count is a lower bound on any plan-blind
    // policy's over the same window.
    for (name, circuit) in families() {
        for budget in [2usize, 4] {
            let lru = run(&circuit, spilled_cfg(budget, Eviction::Lru));
            let min = run(&circuit, spilled_cfg(budget, Eviction::PlannedMin));
            let (lru, min) = (lru.report(), min.report());
            assert_eq!(
                lru.breakdown.prefetch_misses, lru.breakdown.fetches,
                "{name}: every fetch blocks"
            );
            assert!(
                lru.breakdown.fetches > 0,
                "{name} (budget {budget}): the comparison needs spill traffic"
            );
            assert!(
                min.breakdown.prefetch_misses <= lru.breakdown.prefetch_misses,
                "{name} (budget {budget}): PlannedMin blocked on more \
                 fetches than Lru ({} vs {})",
                min.breakdown.prefetch_misses,
                lru.breakdown.prefetch_misses
            );
            assert!(
                min.breakdown.spill_bytes <= lru.breakdown.spill_bytes,
                "{name} (budget {budget}): PlannedMin wrote more spill \
                 bytes than Lru ({} vs {})",
                min.breakdown.spill_bytes,
                lru.breakdown.spill_bytes
            );
        }
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
        .with_spill(budget)
        .with_eviction(Eviction::PlannedMin);
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
