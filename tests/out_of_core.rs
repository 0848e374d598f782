//! Out-of-core differential harness: the spill tier must be a pure
//! *storage* change. A simulation whose residency budget is far smaller
//! than its compressed working set has to produce the same amplitudes as
//! the all-in-RAM run — while actually spilling and fetching blocks
//! through the per-rank segment files.
//!
//! The headline tests run a 20-qubit circuit (2^20 amplitudes, 256
//! compressed blocks) with only 4 blocks resident per rank, the regime the
//! paper's storage hierarchy extends to: dense → compressed-resident →
//! spilled to disk — once with the blocking pull-on-demand tier and once
//! with the planned prefetch pipeline, which must produce the same
//! amplitudes while moving spill reads off the critical path (non-zero
//! prefetch hits, strictly fewer blocking fetches). Prefetch stages only
//! inside a wave, so it moves *when* blocks are read and nothing else:
//! with synchronous eviction writes, prefetch on and off read the same
//! spill and fetch counts and the same peak.

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

/// The 20-qubit workload shared by the blocking and prefetching variants:
/// entangles across all routing segments so every one of the 256 blocks
/// carries real amplitude mass.
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
fn twenty_qubit_spilled_runs_match_in_ram_blocking_and_prefetched() {
    // 20 qubits, 2^12-amplitude blocks -> 256 blocks on one rank, with a
    // 4-block residency budget, in both spill pipelines (one run of each
    // — the in-RAM baseline and the two spilled variants are the suite's
    // heaviest sims, so every assertion shares them):
    //  * prefetch off — the pure pull-on-demand tier, every cold block a
    //    blocking seek-and-read;
    //  * prefetch on — each wave announces its slots and the wave's next
    //    chunk of spilled frames streams off disk (background fetch
    //    thread, coalesced reads) while the current chunk computes.
    // Both are storage-only changes: amplitudes must match the all-in-RAM
    // run, while with prefetch on the fetch traffic moves from blocking
    // reads to staged hits.
    let c = twenty_qubit_circuit();

    let in_ram = run(&c, lossless_cfg(12, 0));
    // The compressed working set (all blocks hold nonzero amplitudes
    // after the Hadamard wall) is far larger than 4 blocks' worth, so
    // neither spilled run can avoid going out-of-core.
    let blocking = run(&c, lossless_cfg(12, 0).with_spill(4).with_prefetch(false));
    let prefetched = run(&c, lossless_cfg(12, 0).with_spill(4).with_prefetch(true));

    let off = blocking.report();
    assert_eq!(
        off.breakdown.prefetch_hits, 0,
        "prefetch off must never serve staged blocks"
    );
    assert!(
        blocking.resident_bytes() < blocking.compressed_bytes() / 8,
        "residency budget must be a small fraction of the working set: \
         {} resident of {} compressed",
        blocking.resident_bytes(),
        blocking.compressed_bytes()
    );
    assert!(off.breakdown.spills > 0, "no blocks were spilled");
    assert!(off.breakdown.fetches > 0, "no blocks were fetched back");
    assert!(off.breakdown.spill_bytes > 0 && off.breakdown.fetch_bytes > 0);
    let err = max_amp_error(&in_ram, &blocking);
    assert!(
        err <= TOL,
        "spilled 20-qubit run diverged: max amplitude error {err:e} > {TOL:e}"
    );

    let on = prefetched.report();
    let err = max_amp_error(&in_ram, &prefetched);
    assert!(
        err <= TOL,
        "prefetched 20-qubit run diverged: max amplitude error {err:e} > {TOL:e}"
    );
    assert!(
        on.breakdown.spills > 0 && on.breakdown.fetches > 0,
        "the run must go out-of-core"
    );
    assert!(
        on.breakdown.prefetch_hits > 0,
        "planned access must produce staged (overlapped) fetches"
    );
    assert!(on.breakdown.overlapped_fetch_bytes > 0);
    assert_eq!(
        on.breakdown.prefetch_hits + on.breakdown.prefetch_misses,
        on.breakdown.fetches,
        "hits and misses must partition the fetch total"
    );
    assert!(
        on.breakdown.prefetch_misses < off.breakdown.prefetch_misses,
        "prefetch on must block on fewer fetches than off ({} vs {})",
        on.breakdown.prefetch_misses,
        off.breakdown.prefetch_misses
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
fn prefetch_changes_when_blocks_are_read_not_how_many_or_the_peak() {
    // A wave's staging window is the wave's own slots, so everything the
    // background fetcher stages is consumed before the wave ends: a wave
    // boundary, where the footprint is sampled, holds no staged block.
    // With synchronous eviction writes (write-behind off) nothing else
    // drains in the background, so prefetch on and off must evict, fetch
    // and read back the same blocks, sample the same peak, and leave the
    // same amplitudes, under either victim policy.
    let circuit = qaoa_circuit(&random_regular_graph(8, 4, 3), &QaoaParams::standard(1));
    for eviction in [Eviction::Lru, Eviction::PlannedMin] {
        let cfg = |prefetch| {
            lossless_cfg(3, 0)
                .with_spill(4)
                .with_eviction(eviction)
                .with_write_behind(false)
                .with_prefetch(prefetch)
        };
        let (off, on) = (run(&circuit, cfg(false)), run(&circuit, cfg(true)));
        let (a, b) = (off.report(), on.report());
        let counts = |r: &qcsim::SimReport| {
            (
                r.peak_memory_bytes,
                r.breakdown.spills,
                r.breakdown.fetches,
                r.breakdown.fetch_bytes,
            )
        };
        assert!(a.breakdown.spills > 0, "{eviction:?}: the run must spill");
        assert!(
            b.breakdown.prefetch_hits > 0,
            "{eviction:?}: prefetch on must stage blocks"
        );
        assert_eq!(
            counts(&a),
            counts(&b),
            "{eviction:?}: (peak, spills, fetches, fetch bytes), prefetch off vs on"
        );
        assert_eq!(
            off.snapshot_f64().unwrap(),
            on.snapshot_f64().unwrap(),
            "{eviction:?}: amplitudes"
        );
    }
}
