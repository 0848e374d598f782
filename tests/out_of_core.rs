//! Out-of-core differential harness: the spill tier must be a pure
//! *storage* change. A simulation whose residency budget is far smaller
//! than its compressed working set has to produce the same amplitudes as
//! the all-in-RAM run — while actually spilling and fetching blocks
//! through the per-rank segment files.
//!
//! The headline tests run a 20-qubit circuit (2^20 amplitudes, 256
//! compressed blocks) with only 4 blocks resident per rank, the regime the
//! paper's storage hierarchy extends to: dense → compressed-resident →
//! spilled to disk, every cold block a read on the worker's thread.
//! The store does all of its I/O on the calling thread, so a spilled run
//! under a memory budget repeats exactly: the same amplitudes, peak,
//! spill and fetch counts and escalations on every rerun and thread
//! count.

use qcsim::circuits::{qaoa_circuit, random_regular_graph, QaoaParams};
use qcsim::core::{Eviction, SimConfig};
use qcsim::{Circuit, CompressedSimulator, ErrorBound};
use rand::rngs::StdRng;
use rand::SeedableRng;

const TOL: f64 = 1e-10;

/// Max absolute amplitude difference between two simulators' snapshots.
fn max_amp_error(a: &CompressedSimulator, b: &CompressedSimulator) -> f64 {
    let sa = a.snapshot_dense().expect("snapshot a");
    let sb = b.snapshot_dense().expect("snapshot b");
    sa.amplitudes()
        .iter()
        .zip(sb.amplitudes())
        .map(|(x, y)| (*x - *y).abs())
        .fold(0.0f64, f64::max)
}

fn lossless_cfg(block_log2: u32, ranks_log2: u32) -> SimConfig {
    SimConfig::default()
        .with_block_log2(block_log2)
        .with_ranks_log2(ranks_log2)
        .with_fixed_bound(ErrorBound::Lossless)
}

fn run(c: &Circuit, cfg: SimConfig) -> CompressedSimulator {
    let n = c.num_qubits() as u32;
    let mut sim = CompressedSimulator::new(n, cfg).expect("sim");
    let mut rng = StdRng::seed_from_u64(2019);
    sim.run(c, &mut rng).expect("run");
    sim
}

/// The 20-qubit workload: entangles across all routing segments so every
/// one of the 256 blocks carries real amplitude mass.
fn twenty_qubit_circuit() -> Circuit {
    let n = 20usize;
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.h(q);
    }
    c.t(0)
        .rz(0.37, 5)
        .cphase(0.81, 3, 17)
        .cx(19, 1)
        .rz(1.13, 14)
        .cphase(0.29, 12, 7)
        .t(16);
    c
}

#[test]
fn twenty_qubit_spilled_run_matches_in_ram() {
    // 20 qubits, 2^12-amplitude blocks -> 256 blocks on one rank, with a
    // 4-block residency budget: a storage-only change, so amplitudes must
    // match the all-in-RAM run while every cold block is a blocking
    // read.
    let c = twenty_qubit_circuit();

    let in_ram = run(&c, lossless_cfg(12, 0));
    // The compressed working set (all blocks hold nonzero amplitudes
    // after the Hadamard wall) is far larger than 4 blocks' worth, so
    // the spilled run cannot avoid going out-of-core.
    let spilled = run(&c, lossless_cfg(12, 0).with_spill(4));

    let report = spilled.report();
    assert!(
        spilled.resident_bytes() < spilled.compressed_bytes() / 8,
        "residency budget must be a small fraction of the working set: \
         {} resident of {} compressed",
        spilled.resident_bytes(),
        spilled.compressed_bytes()
    );
    assert!(report.breakdown.spills > 0, "no blocks were spilled");
    assert!(report.breakdown.fetches > 0, "no blocks were fetched back");
    assert!(report.breakdown.spill_bytes > 0 && report.breakdown.fetch_bytes > 0);
    assert_eq!(
        report.breakdown.prefetch_misses, report.breakdown.fetches,
        "every spilled fetch is a blocking read"
    );
    let err = max_amp_error(&in_ram, &spilled);
    assert!(
        err <= TOL,
        "spilled 20-qubit run diverged: max amplitude error {err:e} > {TOL:e}"
    );
}

#[test]
fn spilled_multi_rank_run_matches_in_ram() {
    // 4 rank workers, each over-budget: spilling must compose with the
    // compressed inter-rank exchange.
    let n = 12usize;
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.h(q);
    }
    c.cx(11, 0).t(10).cphase(0.55, 1, 11).rz(0.9, 6);

    let in_ram = run(&c, lossless_cfg(4, 2));
    let spilled = run(&c, lossless_cfg(4, 2).with_spill(3));

    let report = spilled.report();
    assert!(report.breakdown.spills > 0);
    assert!(
        report.breakdown.exchanges > 0,
        "rank-crossing gates must exchange"
    );
    let err = max_amp_error(&in_ram, &spilled);
    assert!(err <= TOL, "max amplitude error {err:e} > {TOL:e}");
}

#[test]
fn spilled_measurement_and_observables_match() {
    // Collapses and the read-only collectives (probabilities, norms,
    // expectation values, sampling) must see through the spill tier.
    let n = 10usize;
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.h(q);
    }
    c.cx(0, 9).rz(0.3, 4);

    let mut mem = run(&c, lossless_cfg(4, 0));
    let mut spill = run(&c, lossless_cfg(4, 0).with_spill(2));

    for q in [0usize, 4, 9] {
        let (a, b) = (mem.prob_one(q).unwrap(), spill.prob_one(q).unwrap());
        assert!((a - b).abs() < 1e-12, "prob_one({q}): {a} vs {b}");
    }
    assert!((mem.norm_sqr().unwrap() - spill.norm_sqr().unwrap()).abs() < 1e-12);
    let (za, zb) = (
        mem.expectation_zz(0, 9).unwrap(),
        spill.expectation_zz(0, 9).unwrap(),
    );
    assert!((za - zb).abs() < 1e-12);

    // Measure with identical RNG streams: outcomes and post-measurement
    // states must agree.
    let mut rng_a = StdRng::seed_from_u64(99);
    let mut rng_b = StdRng::seed_from_u64(99);
    let oa = mem.measure(3, &mut rng_a).unwrap();
    let ob = spill.measure(3, &mut rng_b).unwrap();
    assert_eq!(oa, ob);
    let err = max_amp_error(&mem, &spill);
    assert!(err <= TOL, "post-measurement divergence {err:e}");
    assert!(spill.report().breakdown.fetches > 0);
}

#[test]
fn a_budgeted_min_spill_run_repeats_exactly_on_every_rerun_and_thread_count() {
    // The `qaoa_budget_spill` benchmark shape at test size: QAOA p=2 on
    // 10 qubits over 2^5-amp blocks, 8 resident blocks under MIN, and a
    // memory budget of two scratch blocks plus 44 % of the resident set's
    // raw bytes, which the lossless level cannot meet, so the ladder
    // escalates. Nothing in the spill tier runs on a thread of its own,
    // so three reruns at one thread per rank and two at two read the
    // same amplitudes, peak, spill and fetch counts and escalations.
    let circuit = qaoa_circuit(
        &random_regular_graph(10, 4, 2019),
        &QaoaParams {
            gammas: vec![0.61, 0.47],
            betas: vec![0.38, 0.52],
        },
    );
    let block_log2 = 5u32;
    let resident_blocks = 8usize;
    let block_bytes = 16u64 << block_log2;
    let budget = 2 * block_bytes + (resident_blocks as f64 * block_bytes as f64 * 0.44) as u64;
    let observe = |threads: usize| {
        let cfg = SimConfig::default()
            .with_block_log2(block_log2)
            .with_threads_per_rank(threads)
            .with_memory_budget(budget)
            .with_spill(resident_blocks)
            .with_eviction(Eviction::PlannedMin)
            .with_write_behind(true);
        let sim = run(&circuit, cfg);
        let r = sim.report();
        assert_eq!(
            r.breakdown.prefetch_misses, r.breakdown.fetches,
            "threads={threads}: every fetch blocks"
        );
        let counts = (
            r.peak_memory_bytes,
            r.breakdown.spills,
            r.breakdown.spill_bytes,
            r.breakdown.fetches,
            r.escalations,
        );
        (sim.snapshot_f64().unwrap(), counts)
    };
    let (amps, counts) = observe(1);
    assert!(
        counts.1 > 0 && counts.3 > 0,
        "the run must go out-of-core: {counts:?}"
    );
    assert!(
        counts.4 > 0,
        "the budget must escalate the ladder: {counts:?}"
    );
    for threads in [1, 1, 2, 2] {
        let (a, c) = observe(threads);
        assert_eq!(
            c, counts,
            "threads={threads}: (peak, spills, spill bytes, fetches, escalations)"
        );
        assert!(
            a.iter()
                .map(|x| x.to_bits())
                .eq(amps.iter().map(|x| x.to_bits())),
            "threads={threads}: amplitudes differ"
        );
    }
}
