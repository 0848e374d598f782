//! Differential harness: every circuit family, compressed (lossless qzstd)
//! vs. plain dense [`qcsim::StateVector`], amplitude-wise, with the batch
//! scheduler both on and off, swept across `ranks_log2 ∈ {0, 1, 2}` — a
//! single in-place worker, two rank workers, and four rank workers, so
//! the thread-per-rank cluster path and its compressed inter-rank
//! exchanges are held to the same contract as the single-node pipeline.
//!
//! Fidelity comparisons can hide systematic per-amplitude drift behind the
//! inner product; this suite asserts |a_i - b_i| <= 1e-10 for *every*
//! amplitude, which is the contract a lossless pipeline must meet.

use qcsim::circuits::supremacy::{random_circuit, Grid};
use qcsim::circuits::{
    grover_circuit, optimal_iterations, phase_estimation_circuit, qaoa_circuit,
    qft_benchmark_circuit, random_regular_graph, schedule_circuit, QaoaParams,
};
use qcsim::cluster::{Phase, TimeBreakdown};
use qcsim::core::{RunOutcome, WaveControl};
use qcsim::{Circuit, CompressedSimulator, ErrorBound, SimConfig, StateVector};
use rand::rngs::StdRng;
use rand::SeedableRng;

const TOL: f64 = 1e-10;

/// Lossless-only config: the ladder is pinned to `ErrorBound::Lossless`, so
/// every block goes through the qzstd leg and must round-trip bit-exactly.
fn lossless_cfg(block_log2: u32, ranks_log2: u32, fusion: bool) -> SimConfig {
    SimConfig::default()
        .with_block_log2(block_log2)
        .with_ranks_log2(ranks_log2)
        .with_fixed_bound(ErrorBound::Lossless)
        .with_fusion(fusion)
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

/// Run one family at every rank-worker count: a single in-place worker
/// (`ranks_log2 = 0`) and real multi-threaded clusters of 2 and 4 rank
/// workers, each with fusion on and off. Rank-crossing gates in the
/// cluster runs exercise the compressed exchange path.
fn assert_family_matches(name: &str, circuit: &Circuit, block_log2: u32) {
    let n = circuit.num_qubits() as u32;
    let mut rng = StdRng::seed_from_u64(2019);
    let dense = circuit.simulate_dense(&mut rng);
    for ranks_log2 in [0u32, 1, 2] {
        for fusion in [true, false] {
            let cfg = lossless_cfg(block_log2, ranks_log2, fusion);
            let mut sim = CompressedSimulator::new(n, cfg).expect("sim");
            let mut rng = StdRng::seed_from_u64(2019);
            sim.run(circuit, &mut rng).expect("run");
            let err = max_amp_error(&sim, &dense);
            assert!(
                err <= TOL,
                "{name} (ranks_log2={ranks_log2}, fusion={fusion}): \
                 max amplitude error {err:e} > {TOL:e}"
            );
            assert_eq!(
                sim.report().fidelity_lower_bound,
                1.0,
                "{name}: lossless run must keep the ledger at 1"
            );
        }
    }
}

#[test]
fn qft_differential() {
    let c = qft_benchmark_circuit(10, 7);
    assert_family_matches("qft", &c, 4);
}

#[test]
fn grover_differential() {
    let n = 8;
    let c = grover_circuit(n, 0b1011_0101, optimal_iterations(n));
    assert_family_matches("grover", &c, 4);
}

#[test]
fn qaoa_differential() {
    let g = random_regular_graph(10, 4, 11);
    let c = qaoa_circuit(&g, &QaoaParams::standard(2));
    assert_family_matches("qaoa", &c, 4);
}

#[test]
fn phase_estimation_differential() {
    // 7 precision qubits + 1 eigenstate qubit.
    let c = phase_estimation_circuit(7, 0.328125);
    assert_family_matches("phase_estimation", &c, 3);
}

#[test]
fn supremacy_differential() {
    let c = random_circuit(Grid::new(3, 4), 11, 5);
    assert_family_matches("supremacy", &c, 5);
}

/// Partial-decode differential: every family at a fixed tight lossy bound,
/// with the segment-addressable partial path on vs off, both against the
/// dense reference. The geometry is chosen so the partial path actually
/// fires (blocks larger than one segment, controls/targets at or above
/// segment granularity): any divergence between routing a diagonal gate
/// through `recompress_segments` and through a whole-block cycle shows up
/// here amplitude-wise.
#[test]
fn partial_decode_differential() {
    let n = 12u32;
    let circuits: Vec<(&str, Circuit)> = vec![
        ("qft", qft_benchmark_circuit(12, 7)),
        ("grover", grover_circuit(12, 0b1011_0101_0110, 3)),
        (
            "qaoa",
            qaoa_circuit(&random_regular_graph(12, 4, 11), &QaoaParams::standard(2)),
        ),
        ("phase_estimation", phase_estimation_circuit(11, 0.328125)),
        ("supremacy", random_circuit(Grid::new(3, 4), 11, 5)),
    ];
    let cfg = |partial: bool, fusion: bool| {
        SimConfig::default()
            .with_block_log2(11)
            .with_fixed_bound(ErrorBound::PointwiseRelative(1e-13))
            .with_fusion(fusion)
            .with_partial_decode(partial)
    };
    for (name, c) in &circuits {
        let mut rng = StdRng::seed_from_u64(2019);
        let dense = c.simulate_dense(&mut rng);
        for fusion in [true, false] {
            let run = |partial: bool| {
                let mut sim = CompressedSimulator::new(n, cfg(partial, fusion)).expect("sim");
                let mut rng = StdRng::seed_from_u64(2019);
                sim.run(c, &mut rng).expect("run");
                let snap = sim.snapshot_dense().expect("snapshot");
                (snap, sim.report())
            };
            let (on, on_report) = run(true);
            let (off, off_report) = run(false);
            assert_eq!(
                off_report.breakdown.partial_decodes, 0,
                "{name}: partial_decode=false must never route partially"
            );
            let vs_dense = on
                .amplitudes()
                .iter()
                .zip(dense.amplitudes())
                .map(|(a, b)| (*a - *b).abs())
                .fold(0.0f64, f64::max);
            assert!(
                vs_dense <= TOL,
                "{name} (fusion={fusion}): partial-on vs dense {vs_dense:e} > {TOL:e}"
            );
            let on_vs_off = on
                .amplitudes()
                .iter()
                .zip(off.amplitudes())
                .map(|(a, b)| (*a - *b).abs())
                .fold(0.0f64, f64::max);
            assert!(
                on_vs_off <= TOL,
                "{name} (fusion={fusion}): partial on vs off {on_vs_off:e} > {TOL:e}"
            );
            // The diagonal-heavy QFT must actually exercise the partial
            // path on its unfused gate waves (its cphase cascades carry
            // high-bit controls), and must decode strictly fewer
            // segments and bytes than whole-block decodes would have.
            if *name == "qft" && !fusion {
                let r = &on_report;
                assert!(
                    r.breakdown.partial_decodes > 0,
                    "qft: partial path never fired"
                );
                assert!(
                    r.breakdown.segments_decoded < r.breakdown.segments_full,
                    "qft: {} segments decoded, whole-block would be {}",
                    r.breakdown.segments_decoded,
                    r.breakdown.segments_full
                );
                assert!(
                    r.breakdown.segment_bytes_read < r.breakdown.segment_bytes_full,
                    "qft: {} bytes touched, whole-block would be {}",
                    r.breakdown.segment_bytes_read,
                    r.breakdown.segment_bytes_full
                );
            }
        }
    }
}

#[test]
fn fused_and_unfused_compressed_runs_agree_exactly() {
    // Beyond matching the dense reference, the two engine paths must agree
    // with each other amplitude-wise on every family.
    let circuits: Vec<(&str, Circuit)> = vec![
        ("qft", qft_benchmark_circuit(9, 3)),
        ("grover", grover_circuit(7, 0b101_1010 & 0x7f, 4)),
        (
            "qaoa",
            qaoa_circuit(&random_regular_graph(9, 4, 5), &QaoaParams::standard(1)),
        ),
        ("phase_estimation", phase_estimation_circuit(6, 0.15625)),
        ("supremacy", random_circuit(Grid::new(3, 3), 8, 2)),
    ];
    for (name, c) in circuits {
        let n = c.num_qubits() as u32;
        let snapshot = |fusion: bool| {
            let mut sim = CompressedSimulator::new(n, lossless_cfg(3, 1, fusion)).expect("sim");
            let mut rng = StdRng::seed_from_u64(42);
            sim.run(&c, &mut rng).expect("run");
            sim.snapshot_dense().expect("snap")
        };
        let (fused, unfused) = (snapshot(true), snapshot(false));
        let err = fused
            .amplitudes()
            .iter()
            .zip(unfused.amplitudes())
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0f64, f64::max);
        assert!(err <= TOL, "{name}: fused vs unfused max error {err:e}");
    }
}

#[test]
fn wave_deltas_sum_to_the_run_total() {
    // The per-item deltas `run_schedule_observed` streams (what the job
    // server forwards as `JobOut::Wave`) must account for the whole run:
    // summed field by field they equal the difference of the reports
    // around it, for every counter of the table. Phase lanes are wall
    // time, which background spill threads may still add to.
    let circuit = qft_benchmark_circuit(10, 3);
    for ranks_log2 in [0u32, 1] {
        let cfg = lossless_cfg(4, ranks_log2, true).with_spill(4);
        let schedule = schedule_circuit(&circuit, &cfg.fusion_policy());
        let mut sim = CompressedSimulator::new(10, cfg).expect("sim");
        let initial = sim.report().breakdown;
        let mut sum = TimeBreakdown::default();
        let mut rng = StdRng::seed_from_u64(2019);
        let outcome = sim
            .run_schedule_observed(&schedule, &mut rng, 0, &mut |status| {
                sum += &status.delta;
                WaveControl::Continue
            })
            .expect("run");
        assert_eq!(outcome, RunOutcome::Completed);
        let total = sim.report().breakdown.delta(&initial);
        assert!(total.block_touches > 0 && total.spills > 0 && total.fetches > 0);
        assert_eq!(total.exchanges > 0, ranks_log2 > 0);
        let (sum, total) = (sum.to_array(), total.to_array());
        for i in Phase::ALL.len()..TimeBreakdown::FIELDS {
            assert_eq!(
                sum[i],
                total[i],
                "ranks_log2={ranks_log2}: {} summed over waves vs run total",
                TimeBreakdown::FIELD_NAMES[i]
            );
        }
    }
}
