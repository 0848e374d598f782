//! Regression pins for the allocation-free (de)compression hot path.
//!
//! The contract under test is the [`qcs_core::SimReport`] counter triple
//! (`codec_allocs`, `codec_bytes_alloc`, `scratch_reuse_hits`): once the
//! codec's scratch pool is warm, gate waves must checkout every amplitude
//! and byte buffer from the pool — a steady-state wave performs **zero**
//! codec-side heap allocations. Wall-clock numbers are too noisy to pin on
//! a shared box; the counters are deterministic and are the contract.

use qcs_circuits::qft_benchmark_circuit;
use qcs_core::{CompressedSimulator, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Fused QFT-14, everything resident (no spill): after one warm-up pass
/// fills the pool, a second identical pass must not allocate at the codec
/// seam at all.
#[test]
fn fused_qft14_steady_state_has_zero_codec_allocs() {
    let cfg = SimConfig::default().with_block_log2(10);
    let mut sim = CompressedSimulator::new(14, cfg).expect("sim");
    let circuit = qft_benchmark_circuit(14, 12);
    let mut rng = StdRng::seed_from_u64(1);

    // Warm-up pass: pool misses and first-touch buffer growth are allowed
    // here (the prewarm covers most of it, but this pins nothing yet).
    sim.run(&circuit, &mut rng).expect("warm-up run");
    let warm = sim.report();

    // Steady-state pass: the same wave mix against a warm pool.
    sim.run(&circuit, &mut rng).expect("steady-state run");
    let steady = sim.report();

    let allocs = steady.breakdown.codec_allocs - warm.breakdown.codec_allocs;
    let bytes = steady.breakdown.codec_bytes_alloc - warm.breakdown.codec_bytes_alloc;
    let hits = steady.breakdown.scratch_reuse_hits - warm.breakdown.scratch_reuse_hits;
    assert_eq!(
        allocs, 0,
        "steady-state waves allocated {allocs} codec scratch buffers \
         ({bytes} bytes); the warm pool must serve every checkout"
    );
    assert_eq!(bytes, 0, "steady-state buffer growth leaked {bytes} bytes");
    assert!(
        hits > 0,
        "steady-state pass reported no pool hits — the hot path is not \
         going through the pooled scratch API"
    );
}

/// Fused QFT-14 with a 4-block residency budget (spill on): the recycled
/// scratch must allocate strictly fewer bytes than the pre-pool hot path,
/// which heap-allocated a fresh block-sized buffer for every checkout.
#[test]
fn spilled_qft14_allocates_strictly_less_than_prepool_baseline() {
    let cfg = SimConfig::default().with_block_log2(10).with_spill(4);
    let mut sim = CompressedSimulator::new(14, cfg).expect("sim");
    let circuit = qft_benchmark_circuit(14, 12);
    let mut rng = StdRng::seed_from_u64(1);
    sim.run(&circuit, &mut rng).expect("run");
    let report = sim.report();

    // Analytic pre-PR baseline: every scratch checkout used to be a fresh
    // allocation of at least one block of amplitudes (2^10 amps = 2048
    // f64s = 16 KiB). The counters record every checkout either as a pool
    // hit or as an alloc, so the sum is the old allocation count.
    let block_bytes = (2u64 << 10) * 8;
    let checkouts = report.breakdown.codec_allocs + report.breakdown.scratch_reuse_hits;
    let baseline = checkouts * block_bytes;
    assert!(
        report.breakdown.scratch_reuse_hits > 0,
        "spill path reported no pool hits: {report:?}"
    );
    assert!(
        report.breakdown.codec_bytes_alloc < baseline,
        "codec allocated {} bytes, not below the {} byte pre-pool \
         baseline ({} checkouts x {} bytes/block)",
        report.breakdown.codec_bytes_alloc,
        baseline,
        checkouts,
        block_bytes
    );
}

/// Read-only queries against a prepared state go through the same pool as
/// gate waves: once one battery has warmed the calling thread's stripe, a
/// second battery (`prob_one` on every qubit, 100 `sample` draws,
/// `norm_sqr`, a dense snapshot) must not allocate at the codec seam.
#[test]
fn warm_query_battery_has_zero_codec_allocs() {
    let cfg = SimConfig::default().with_block_log2(10);
    let mut sim = CompressedSimulator::new(14, cfg).expect("sim");
    let mut rng = StdRng::seed_from_u64(1);
    sim.run(&qft_benchmark_circuit(14, 12), &mut rng)
        .expect("prepare state");

    let mut battery = |sim: &CompressedSimulator| {
        for q in 0..14 {
            sim.prob_one(q).expect("prob_one");
        }
        for _ in 0..100 {
            sim.sample(&mut rng).expect("sample");
        }
        sim.norm_sqr().expect("norm_sqr");
        sim.snapshot_dense().expect("snapshot");
        sim.report()
    };
    let warm = battery(&sim);
    let steady = battery(&sim);

    let allocs = steady.breakdown.codec_allocs - warm.breakdown.codec_allocs;
    let bytes = steady.breakdown.codec_bytes_alloc - warm.breakdown.codec_bytes_alloc;
    assert_eq!(
        allocs, 0,
        "a warm query battery allocated {allocs} codec scratch buffers \
         ({bytes} bytes); queries must check their buffers out of the pool"
    );
    assert_eq!(
        bytes, 0,
        "warm queries grew pooled buffers by {bytes} bytes"
    );
    assert!(
        steady.breakdown.scratch_reuse_hits > warm.breakdown.scratch_reuse_hits,
        "the query battery reported no pool hits"
    );
}
