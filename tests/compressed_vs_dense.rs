//! Integration tests: the compressed simulator must reproduce the dense
//! Schrödinger reference across every circuit family, layout geometry, and
//! ladder configuration.

use qcsim::circuits::supremacy::{random_circuit, Grid};
use qcsim::circuits::{
    grover_circuit, grover_circuit_toffoli, optimal_iterations, qaoa_circuit,
    qft_benchmark_circuit, random_regular_graph, QaoaParams,
};
use qcsim::{Circuit, CompressedSimulator, ErrorBound, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fidelity_vs_dense(circuit: &Circuit, cfg: SimConfig) -> f64 {
    let n = circuit.num_qubits() as u32;
    let mut sim = CompressedSimulator::new(n, cfg).expect("sim");
    let mut rng = StdRng::seed_from_u64(0);
    sim.run(circuit, &mut rng).expect("run");
    let dense = circuit.simulate_dense(&mut rng);
    sim.snapshot_dense().expect("snapshot").fidelity(&dense)
}

#[test]
fn grover_lossless_exact() {
    let c = grover_circuit(8, 0b1011_0010, optimal_iterations(8));
    let cfg = SimConfig::default().with_block_log2(4).with_ranks_log2(2);
    assert!(fidelity_vs_dense(&c, cfg) > 1.0 - 1e-12);
}

#[test]
fn grover_toffoli_lossless_exact() {
    let c = grover_circuit_toffoli(6, 0b101101 & 63, 3);
    let cfg = SimConfig::default().with_block_log2(5).with_ranks_log2(1);
    assert!(fidelity_vs_dense(&c, cfg) > 1.0 - 1e-12);
}

#[test]
fn supremacy_lossless_exact() {
    let c = random_circuit(Grid::new(3, 4), 11, 9);
    let cfg = SimConfig::default().with_block_log2(6).with_ranks_log2(2);
    assert!(fidelity_vs_dense(&c, cfg) > 1.0 - 1e-10);
}

#[test]
fn qaoa_lossless_exact() {
    let g = random_regular_graph(12, 4, 4);
    let c = qaoa_circuit(&g, &QaoaParams::standard(2));
    let cfg = SimConfig::default().with_block_log2(7).with_ranks_log2(1);
    assert!(fidelity_vs_dense(&c, cfg) > 1.0 - 1e-10);
}

#[test]
fn qft_lossless_exact() {
    let c = qft_benchmark_circuit(11, 77);
    let cfg = SimConfig::default().with_block_log2(5).with_ranks_log2(2);
    assert!(fidelity_vs_dense(&c, cfg) > 1.0 - 1e-10);
}

#[test]
fn lossy_fidelity_respects_ledger_bound_across_families() {
    // The measured fidelity must never fall below the Eq. 11 lower bound.
    let circuits: Vec<Circuit> = vec![
        random_circuit(Grid::new(3, 3), 11, 1),
        qaoa_circuit(&random_regular_graph(9, 4, 2), &QaoaParams::standard(1)),
        qft_benchmark_circuit(9, 5),
    ];
    for c in circuits {
        for eps in [1e-5, 1e-3] {
            let n = c.num_qubits() as u32;
            let cfg = SimConfig::default()
                .with_block_log2(4)
                .with_ranks_log2(1)
                .with_fixed_bound(ErrorBound::PointwiseRelative(eps));
            let mut sim = CompressedSimulator::new(n, cfg).expect("sim");
            let mut rng = StdRng::seed_from_u64(0);
            sim.run(&c, &mut rng).expect("run");
            let dense = c.simulate_dense(&mut rng);
            let fid = sim.snapshot_dense().expect("snap").fidelity(&dense);
            let bound = sim.report().fidelity_lower_bound;
            assert!(
                fid >= bound - 1e-9,
                "eps={eps}: measured {fid} < bound {bound}"
            );
            // And at these small scales the lossy state should still be
            // close to ideal.
            assert!(fid > 0.9, "eps={eps}: fidelity {fid} too low");
        }
    }
}

#[test]
fn all_lossy_codecs_work_in_the_simulator() {
    let mut c = Circuit::new(8);
    for q in 0..8 {
        c.h(q);
    }
    for q in 0..7 {
        c.cx(q, q + 1);
    }
    for q in 0..8 {
        c.rz(0.2 * (q + 1) as f64, q);
    }
    // The engine runs one lossy codec, Solution C; the comparators keep
    // their codec-level pins in `qcs-bench`'s `prop_comparators`.
    let cfg = SimConfig::default()
        .with_block_log2(4)
        .with_ranks_log2(1)
        .with_lossy_codec(qcsim::CodecId::SolutionC)
        .with_fixed_bound(ErrorBound::PointwiseRelative(1e-4));
    let f = fidelity_vs_dense(&c, cfg);
    assert!(f > 0.999, "fidelity {f}");
}

#[test]
fn geometry_sweep_is_equivalent() {
    // The same circuit must produce the same state under every legal
    // (block_log2, ranks_log2) split — the three routing cases are an
    // implementation detail.
    let mut c = Circuit::new(9);
    for q in 0..9 {
        c.h(q);
    }
    c.ccx(0, 4, 8).cphase(0.31, 2, 7).swap(1, 8).cx(8, 0);
    let reference = {
        let cfg = SimConfig::default().with_block_log2(8).with_ranks_log2(0);
        let mut sim = CompressedSimulator::new(9, cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        sim.run(&c, &mut rng).unwrap();
        sim.snapshot_dense().unwrap()
    };
    for block_log2 in 2..=6u32 {
        for ranks_log2 in 0..=3u32 {
            if block_log2 + ranks_log2 + 1 > 9 {
                continue;
            }
            let cfg = SimConfig::default()
                .with_block_log2(block_log2)
                .with_ranks_log2(ranks_log2);
            let mut sim = CompressedSimulator::new(9, cfg).unwrap();
            let mut rng = StdRng::seed_from_u64(0);
            sim.run(&c, &mut rng).unwrap();
            let s = sim.snapshot_dense().unwrap();
            assert!(
                s.fidelity(&reference) > 1.0 - 1e-12,
                "geometry b={block_log2} r={ranks_log2} diverged"
            );
        }
    }
}

#[test]
fn intermediate_measurement_agrees_with_dense_statistics() {
    // Measure mid-circuit many times; outcome frequencies must match the
    // dense simulator's marginal.
    let mut prep = Circuit::new(6);
    prep.h(0).cx(0, 3).ry(0.7, 5).cx(5, 1);
    let cfg = SimConfig::default().with_block_log2(3).with_ranks_log2(1);
    let mut ones = 0;
    let trials = 200;
    for seed in 0..trials {
        let mut sim = CompressedSimulator::new(6, cfg.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        sim.run(&prep, &mut rng).unwrap();
        if sim.measure(3, &mut rng).unwrap() {
            ones += 1;
        }
    }
    // Dense marginal is exactly 0.5 (Bell pair on 0-3).
    let freq = ones as f64 / trials as f64;
    assert!((freq - 0.5).abs() < 0.12, "frequency {freq}");
}

#[test]
fn sampling_matches_dense_distribution() {
    let mut c = Circuit::new(6);
    c.h(0).h(1).cx(1, 4);
    let cfg = SimConfig::default().with_block_log2(3).with_ranks_log2(1);
    let mut sim = CompressedSimulator::new(6, cfg).unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    sim.run(&c, &mut rng).unwrap();
    let mut counts = std::collections::HashMap::new();
    for _ in 0..4000 {
        *counts
            .entry(sim.sample(&mut rng).unwrap())
            .or_insert(0usize) += 1;
    }
    // Support: {000000, 000001, 010010, 010011}; each with p=1/4.
    assert_eq!(counts.len(), 4);
    for (&k, &v) in &counts {
        assert!(k == 0 || k == 1 || k == 0b010010 || k == 0b010011, "{k:b}");
        let f = v as f64 / 4000.0;
        assert!((f - 0.25).abs() < 0.05, "state {k:b}: {f}");
    }
}
