//! Eviction-policy differential harness: victim selection and write
//! scheduling must be pure *performance* changes. Whatever the spill tier
//! evicts — least-recently-used blocks or Belady-MIN victims chosen from
//! the slots each wave announces — and however it writes them out —
//! synchronously on the critical path or through the write-behind dirty
//! buffer — the amplitudes must match the dense reference to 1e-10 on
//! every circuit family.
//!
//! On top of the correctness matrix, the suite pins the two performance
//! contracts the policies exist for:
//!
//! * `PlannedMin` never issues more blocking fetches than `Lru` on a
//!   planned workload (the plan is a perfect future-reference trace, so
//!   MIN victims can only help);
//! * peak memory stays within the residency budget plus the two bounded
//!   side buffers (prefetch staging, write-behind dirty queue) — the
//!   accounting gap regression: both buffers hold real decoded frames and
//!   count in `peak_memory_bytes` whenever they are occupied at a wave
//!   boundary (staging never is: its window ends with the wave).

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
/// small enough that the full policy x write-mode matrix stays fast while
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

/// Lossless out-of-core config: `budget` resident blocks, the given
/// victim policy, and synchronous or write-behind eviction writes.
fn spilled_cfg(budget: usize, eviction: Eviction, write_behind: bool, prefetch: bool) -> SimConfig {
    SimConfig::default()
        .with_block_log2(3)
        .with_fixed_bound(ErrorBound::Lossless)
        .with_spill(budget)
        .with_prefetch(prefetch)
        .with_eviction(eviction)
        .with_write_behind(write_behind)
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
    // The full matrix: {Lru, PlannedMin} x {sync, write-behind} on all
    // five families at a 2-block budget. Every cell must actually go
    // out-of-core and still match the dense reference amplitude-wise.
    for (name, circuit) in families() {
        let mut rng = StdRng::seed_from_u64(2019);
        let dense = circuit.simulate_dense(&mut rng);
        for eviction in [Eviction::Lru, Eviction::PlannedMin] {
            for write_behind in [false, true] {
                let sim = run(&circuit, spilled_cfg(2, eviction, write_behind, true));
                let report = sim.report();
                assert!(
                    report.breakdown.spills > 0 && report.breakdown.fetches > 0,
                    "{name} ({} / wb={write_behind}): the run must go out-of-core",
                    eviction.name()
                );
                if write_behind {
                    assert!(
                        report.breakdown.write_behind_bytes <= report.breakdown.spill_bytes,
                        "{name}: write-behind bytes are a subset of spill bytes"
                    );
                } else {
                    assert_eq!(
                        report.breakdown.write_behind_spills,
                        0,
                        "{name} ({}): synchronous mode must never count \
                         write-behind spills",
                        eviction.name()
                    );
                }
                let err = max_amp_error(&sim, &dense);
                assert!(
                    err <= TOL,
                    "{name} ({} / wb={write_behind}): max amplitude error \
                     {err:e} > {TOL:e}",
                    eviction.name()
                );
                assert_eq!(
                    report.fidelity_lower_bound, 1.0,
                    "{name}: lossless run must keep the ledger at 1"
                );
            }
        }
    }
}

#[test]
fn planned_min_never_blocks_on_more_fetches_than_lru() {
    // With prefetch off every fetch is a blocking seek-and-read and the
    // counters are fully deterministic (no background-thread races), so
    // the MIN-vs-LRU comparison is exact: the plan window hands
    // `PlannedMin` the true future reference trace, and Belady's
    // argument says its miss count is a lower bound on any plan-blind
    // policy's over the same window.
    for (name, circuit) in families() {
        for budget in [2usize, 4] {
            let lru = run(&circuit, spilled_cfg(budget, Eviction::Lru, false, false));
            let min = run(
                &circuit,
                spilled_cfg(budget, Eviction::PlannedMin, false, false),
            );
            let (lru, min) = (lru.report(), min.report());
            assert_eq!(
                lru.breakdown.prefetch_hits, 0,
                "{name}: prefetch off must never stage blocks"
            );
            assert!(
                lru.breakdown.fetches > 0,
                "{name} (budget {budget}): the comparison needs spill traffic"
            );
            // With prefetch off, blocking fetches == fetches.
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
    // The accounting-gap regression (the footprint the escalation loop
    // steers by): with prefetch *and* write-behind on, the spill tier
    // holds at most `budget` resident blocks, `budget` staged frames
    // (the prefetch reservation cap), and `budget + 1` dirty frames (the
    // bounded enqueue admits one over before it stalls the evictor).
    // `peak_memory_bytes` must count all three tiers and stay under that
    // ceiling — a store that hid the side buffers would pass the old
    // resident-only bound while silently doubling its real footprint.
    let circuit = qft_benchmark_circuit(12, 7);
    let block_log2 = 6u32;
    let budget = 4usize;
    let cfg = SimConfig::default()
        .with_block_log2(block_log2)
        .with_fixed_bound(ErrorBound::Lossless)
        .with_spill(budget)
        .with_prefetch(true)
        .with_eviction(Eviction::PlannedMin)
        .with_write_behind(true);
    let sim = run(&circuit, cfg);
    let report = sim.report();
    assert!(report.breakdown.spills > 0, "the run must go out-of-core");
    assert!(
        report.breakdown.write_behind_spills > 0,
        "the writer thread must commit at least one frame"
    );

    // Generous per-block ceiling: a lossless compressed frame never
    // exceeds the raw amplitudes plus codec/frame headers.
    let block_amps = 1u64 << block_log2;
    let block_cap = 16 * block_amps + 1024;
    let tiers = (3 * budget as u64 + 1) * block_cap; // resident + staged + dirty
    let scratch = 2 * block_amps * 16; // one decoded block in flight (Eq. 8)
    let ceiling = tiers + scratch;
    assert!(
        report.peak_memory_bytes <= ceiling,
        "peak {} exceeds budget+staging+dirty ceiling {}",
        report.peak_memory_bytes,
        ceiling
    );
    // And the floor: the budget's worth of residents alone must register,
    // so an accounting regression that *undercounts* (e.g. drops the
    // staged or dirty tier again) has little room to hide.
    assert!(
        report.peak_memory_bytes > scratch,
        "peak {} fails to count the compressed tiers at all",
        report.peak_memory_bytes
    );
}
