//! Compare all compressors on a real quantum-state snapshot — a miniature
//! of the paper's §4 evaluation. Generates a QAOA state (the `qaoa_36`
//! analogue at laptop scale), then sweeps Solution C and the comparators
//! of `qcs_bench::comparators` over the five pointwise-relative error
//! bounds, printing ratio, speed, and max error.
//!
//! Run with: `cargo run --release --example codec_comparison`

use qcs_bench::comparators;
use qcsim::compress::stats::{lag1_autocorrelation, max_pointwise_relative_error};
use qcsim::compress::PWR_LEVELS;
use qcsim::{CodecId, ErrorBound};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    // Build the qaoa snapshot: 16 qubits = 1 MiB of amplitudes.
    let n = 16;
    let graph = qcsim::circuits::random_regular_graph(n, 4, 5);
    let circuit = qcsim::circuits::qaoa_circuit(&graph, &qcsim::circuits::QaoaParams::standard(2));
    let mut rng = StdRng::seed_from_u64(0);
    let state = circuit.simulate_dense(&mut rng);
    let data: Vec<f64> = state.as_f64_slice().to_vec();
    println!(
        "workload: qaoa_{n} state snapshot, {} doubles ({} KiB)\n",
        data.len(),
        data.len() * 8 / 1024
    );

    println!(
        "{:<22} {:>8} {:>10} {:>10} {:>10} {:>12}",
        "codec", "bound", "ratio", "MB/s cmp", "MB/s dec", "max rel err"
    );
    let mb = (data.len() * 8) as f64 / 1e6;
    for (id, codec) in comparators::evaluated() {
        for eps in PWR_LEVELS.iter().rev() {
            let bound = ErrorBound::PointwiseRelative(*eps);
            let t0 = Instant::now();
            let enc = codec.compress(&data, bound).expect("compress");
            let t_c = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let dec = codec.decompress(&enc).expect("decompress");
            let t_d = t1.elapsed().as_secs_f64();
            let ratio = (data.len() * 8) as f64 / enc.len() as f64;
            let max_err = max_pointwise_relative_error(&data, &dec);
            println!(
                "{:<22} {:>8.0e} {:>9.2}x {:>10.1} {:>10.1} {:>12.3e}",
                id,
                eps,
                ratio,
                mb / t_c,
                mb / t_d,
                max_err
            );
            assert!(max_err <= *eps, "{id} violated its bound");
        }
        println!();
    }

    // The paper's non-correlation argument (§4.2): Solution C errors have
    // lag-1 autocorrelation ~0.
    let codec = CodecId::SolutionC.build();
    let enc = codec
        .compress(&data, ErrorBound::PointwiseRelative(1e-3))
        .unwrap();
    let dec = codec.decompress(&enc).unwrap();
    let errors: Vec<f64> = data
        .iter()
        .zip(&dec)
        .filter(|(a, _)| **a != 0.0)
        .map(|(a, b)| (a - b) / a.abs())
        .collect();
    println!(
        "solution C error lag-1 autocorrelation: {:+.2e} (paper: within [-1e-4, 1e-4] on dense data)",
        lag1_autocorrelation(&errors)
    );
}
