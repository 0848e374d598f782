//! Workspace smoke test: every `qcsim` re-export is present and
//! constructible with defaults. This is the first test a fresh checkout
//! should run — it fails fast if a crate wiring or re-export regresses.

use qcsim::circuits::{hadamard_wall, random_regular_graph, QaoaParams};
use qcsim::cluster::{Layout, Metrics, Phase, Route};
use qcsim::compress::{ladder, PWR_LEVELS};
use qcsim::statevec::{NoiseModel, Pauli};
use qcsim::{
    Circuit, CodecId, Complex64, CompressedSimulator, ErrorBound, Gate1, GateKind, Op, SimConfig,
    StateVector,
};

#[test]
fn circuit_ir_constructs() {
    let mut c = Circuit::new(3);
    c.h(0).cx(0, 1);
    c.push(Op::Gate {
        gate: GateKind::T,
        controls: vec![],
        target: 2,
    });
    assert_eq!(c.num_qubits(), 3);
    assert_eq!(c.gate_count(), 3);
}

#[test]
fn every_codec_id_builds_and_round_trips() {
    let data: Vec<f64> = (0..256).map(|i| (i as f64 * 0.2).sin() * 1e-4).collect();
    for id in CodecId::ALL {
        let codec = id.build();
        assert!(!codec.name().is_empty(), "{id}");
        let bound = if codec.supports(ErrorBound::Lossless) {
            ErrorBound::Lossless
        } else {
            ErrorBound::PointwiseRelative(1e-3)
        };
        let enc = codec.compress(&data, bound).unwrap();
        let dec = codec.decompress(&enc).unwrap();
        assert_eq!(dec.len(), data.len(), "{id}");
    }
}

#[test]
fn error_bound_modes_and_ladder() {
    assert!(!ErrorBound::Lossless.is_lossy());
    assert!(ErrorBound::Absolute(1e-6).is_lossy());
    assert!(ErrorBound::PointwiseRelative(1e-3).is_lossy());
    assert_eq!(ladder().len(), 1 + PWR_LEVELS.len());
}

#[test]
fn compressed_simulator_with_default_config() {
    // The default config uses 2^12-amplitude blocks and requires at least
    // one inter-block qubit, so 13 qubits is the smallest register it can
    // host without geometry overrides.
    let mut sim = CompressedSimulator::new(13, SimConfig::default()).unwrap();
    let mut rng = {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(0)
    };
    sim.run(&hadamard_wall(13), &mut rng).unwrap();
    let report = sim.report();
    assert!((sim.norm_sqr().unwrap() - 1.0).abs() < 1e-9);
    assert!(report.fidelity_lower_bound > 0.0);
    assert!(report.min_compression_ratio > 0.0);
}

#[test]
fn dense_statevector_and_gates() {
    let mut s = StateVector::zero_state(2);
    s.apply_gate(&Gate1::h(), 0);
    s.apply_controlled(&Gate1::x(), 0, 1);
    assert!((s.prob_one(1) - 0.5).abs() < 1e-12);
    assert_eq!(Complex64::ZERO + Complex64::ONE, Complex64::new(1.0, 0.0));
}

#[test]
fn cluster_layout_and_metrics() {
    let l = Layout::new(6, 1, 2);
    assert_eq!(l.total_amps(), 64);
    let (r, b, o) = l.split(63);
    assert_eq!(l.join(r, b, o), 63);
    // Every qubit routes to exactly one of the three cases.
    for q in 0..6 {
        match l.route(q) {
            Route::InBlock { .. } | Route::InterBlock { .. } | Route::InterRank { .. } => {}
        }
    }
    let m = Metrics::new();
    m.add(Phase::Computation, std::time::Duration::from_millis(1));
}

#[test]
fn workload_generators_produce_circuits() {
    let g = random_regular_graph(6, 2, 0);
    let qaoa = qcsim::circuits::qaoa_circuit(&g, &QaoaParams::standard(2));
    assert!(qaoa.gate_count() > 0);
    let grover = qcsim::circuits::grover_circuit(5, 3, 1);
    assert!(grover.gate_count() > 0);
    let qft = qcsim::circuits::qft_circuit(5);
    assert!(qft.depth() > 0);
}

#[test]
fn noise_and_observables_construct() {
    let _noise = NoiseModel::ideal();
    let zz = [Pauli::Z, Pauli::I];
    assert_eq!(zz.len(), 2);
}
