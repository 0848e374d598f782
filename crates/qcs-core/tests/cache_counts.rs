//! Pins what the block cache *does* across changes to how its lines are
//! tagged: the tag function picks the shard a line lives in and nothing
//! else, so on a single-threaded run the hit and miss counts are a
//! property of the circuit.

use qcs_circuits::{qft_circuit, Circuit};
use qcs_core::{CompressedSimulator, SimConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The repo benchmark's `qft_lossless` shape at its smoke size (QFT of a
/// seeded product state, 10 qubits, 2^6-amp blocks, `ranks_log2 = 0`, one
/// thread). 28 hits / 228 misses is what the cache counts on this input;
/// the full-size shape (15 qubits, 2^8-amp blocks) counts 441 / 2375. The
/// hits are what the FNV-1a-tagged cache counted at commit 13c1fcc; the
/// misses fell from 252 (3047 full size) when controlled phases above the
/// block split started joining batches as per-block scalars, which
/// removed block touches, not cache lines that could hit.
#[test]
fn qft_lossless_smoke_shape_hits_and_misses_are_unchanged() {
    let mut rng = StdRng::seed_from_u64(1);
    let mut circuit = Circuit::new(10);
    for q in 0..10 {
        circuit.ry(rng.gen_range(0.3..2.8), q);
        circuit.rz(rng.gen_range(-3.0..3.0), q);
    }
    circuit.extend(&qft_circuit(10));

    let cfg = SimConfig::default()
        .with_block_log2(6)
        .with_threads_per_rank(1);
    let mut sim = CompressedSimulator::new(10, cfg).expect("sim");
    sim.run(&circuit, &mut StdRng::seed_from_u64(1))
        .expect("run");
    let report = sim.report();
    assert_eq!((report.cache_hits, report.cache_misses), (28, 228));
}
