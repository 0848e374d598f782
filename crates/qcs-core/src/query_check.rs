//! In-crate checks of the per-rank query summary that need a seam the
//! public API does not offer: the recording store shim (what a warm query
//! reads), engines over hand-made states (accuracy of the `<Z_a Z_b>`
//! table against the direct signed sum), and a bare [`RankWorker`] (the
//! single-block rank, and the one mutating command — `Recompress` — the
//! facade never sends to a warm rank). The engine-level staleness matrix
//! lives in `tests/query_staleness.rs`.

use crate::block::{BlockCodec, CompressedBlock};
use crate::cache::BlockCache;
use crate::engine::CompressedSimulator;
use crate::fidelity_bound::FidelityLedger;
use crate::store::{trace, MemStore};
use crate::worker::{RankWorker, WorkerCmd, WorkerOut};
use crate::SimConfig;
use proptest::prelude::*;
use qcs_circuits::supremacy::{random_circuit, Grid};
use qcs_cluster::exec::Worker as _;
use qcs_cluster::{Layout, Metrics};
use qcs_compress::{CodecId, ErrorBound};
use qcs_statevec::StateVector;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// `state` (interleaved re/im) cut into losslessly compressed blocks.
fn compress_state(state: &[f64], block_log2: u32) -> Vec<Option<CompressedBlock>> {
    let codec = BlockCodec::new(CodecId::SolutionC);
    state
        .chunks_exact(2 << block_log2)
        .map(|block| {
            Some(
                codec
                    .compress(block, ErrorBound::Lossless)
                    .expect("compress"),
            )
        })
        .collect()
}

/// An engine holding exactly `state`.
fn engine_over(state: &[f64], n: u32, cfg: SimConfig) -> CompressedSimulator {
    let blocks = compress_state(state, cfg.block_log2);
    CompressedSimulator::from_checkpoint_parts(cfg, 0, FidelityLedger::new(), blocks, n)
        .expect("engine over a hand-made state")
}

/// A bare rank worker over `blocks`, all resident.
fn worker_over(layout: Layout, rank: usize, blocks: Vec<Option<CompressedBlock>>) -> RankWorker {
    RankWorker::new(
        rank,
        layout,
        Arc::new(BlockCodec::new(CodecId::SolutionC)),
        Arc::new(BlockCache::new(0)),
        Metrics::new(),
        Box::new(MemStore::new(blocks)),
        true,
    )
}

fn normalized(mut state: Vec<f64>) -> Vec<f64> {
    let norm = state.iter().map(|v| v * v).sum::<f64>().sqrt();
    state.iter_mut().for_each(|v| *v /= norm);
    state
}

/// `<Z_a Z_b>` summed directly over a dense state.
fn direct_zz(dense: &StateVector, a: usize, b: usize) -> f64 {
    dense
        .probabilities()
        .iter()
        .enumerate()
        .map(|(i, p)| if (i >> a ^ i >> b) & 1 == 0 { *p } else { -*p })
        .sum()
}

fn assert_table_matches_dense(sim: &CompressedSimulator, what: &str) {
    let dense = sim.snapshot_dense().expect("snapshot");
    let n = sim.num_qubits() as usize;
    for b in 1..n {
        for a in 0..b {
            let got = sim.expectation_zz(a, b).expect("zz");
            let want = direct_zz(&dense, a, b);
            assert!(
                (got - want).abs() <= 1e-12,
                "{what}: zz({a},{b}) = {got}, direct sum {want}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Six qubits as 2 ranks x 4 blocks x 4 amplitudes: qubits 0-1 sit in
    // the block, 2-4 in the block index, 5 in the rank index, so the 15
    // pairs cover every scope combination.
    #[test]
    fn zz_table_matches_the_direct_sum(
        raw in prop::collection::vec(-1.0f64..1.0, 128),
        measured in 2usize..5,
    ) {
        prop_assume!(raw.iter().any(|v| v.abs() > 1e-3));
        let cfg = SimConfig::default().with_block_log2(2).with_ranks_log2(1);
        let mut sim = engine_over(&normalized(raw), 6, cfg);
        assert_table_matches_dense(&sim, "random state");
        // Collapse a block-index qubit: half the blocks become all-zero.
        sim.measure(measured, &mut StdRng::seed_from_u64(3)).expect("measure");
        assert_table_matches_dense(&sim, "collapsed state");
    }

    // The single-block rank (`block_log2 = n`), which the facade's
    // config validation never builds: every pair is in-block.
    #[test]
    fn zz_table_on_a_single_block_rank(raw in prop::collection::vec(-1.0f64..1.0, 64)) {
        prop_assume!(raw.iter().any(|v| v.abs() > 1e-3));
        let state = normalized(raw);
        let layout = Layout::new(5, 0, 5);
        let worker = worker_over(layout, 0, compress_state(&state, 5));
        let dense = StateVector::from_amplitudes(
            state
                .chunks_exact(2)
                .map(|v| qcs_statevec::Complex64::new(v[0], v[1]))
                .collect(),
        );
        for b in 1..5 {
            for a in 0..b {
                let got = worker
                    .query(WorkerCmd::ExpectationZz { a, b })
                    .expect("zz")
                    .scalar();
                let want = direct_zz(&dense, a, b);
                prop_assert!((got - want).abs() <= 1e-12, "zz({a},{b}) = {got} vs {want}");
            }
        }
    }
}

/// Decode pin: once a rank's summary exists, `expectation_zz` and
/// `norm_sqr` read nothing from the store, and a `sample` draw reads
/// exactly the one block it scans.
#[test]
fn warm_queries_read_no_blocks() {
    for ranks_log2 in [0u32, 1] {
        for spill in [false, true] {
            let mut cfg = SimConfig::default()
                .with_block_log2(3)
                .with_ranks_log2(ranks_log2);
            if spill {
                cfg = cfg.with_spill(2).with_prefetch(false);
            }
            let what = format!("ranks_log2={ranks_log2} spill={spill}");
            let log = trace::access_log(1 << ranks_log2);
            let mut sim = CompressedSimulator::new_traced(8, cfg, log.clone()).expect("sim");
            let circuit = random_circuit(Grid::new(2, 4), 6, 5);
            sim.run(&circuit, &mut StdRng::seed_from_u64(1))
                .expect("run");
            let bpr = sim.layout().blocks_per_rank();
            let _ = trace::drain(&log);

            // Cold: one pass over each rank's blocks, in block order.
            sim.expectation_zz(0, 7).expect("first zz");
            let all: Vec<usize> = (0..bpr).collect();
            assert_eq!(
                trace::drain(&log),
                vec![all; 1 << ranks_log2],
                "{what}: the first query builds the summary in one pass"
            );

            // Warm: a hundred more queries, not one block read.
            for i in 0..100 {
                sim.expectation_zz(i % 7, 7).expect("warm zz");
                sim.norm_sqr().expect("warm norm");
            }
            let reads: usize = trace::drain(&log).iter().map(Vec::len).sum();
            assert_eq!(reads, 0, "{what}: warm zz/norm queries read blocks");

            // One draw: the weights come from the summary, the in-block
            // scan from the one block the draw landed in.
            let index = sim.sample(&mut StdRng::seed_from_u64(2)).expect("sample");
            let (rank, block, _) = sim.layout().split(index);
            let mut want = vec![Vec::new(); 1 << ranks_log2];
            want[rank].push(block);
            assert_eq!(trace::drain(&log), want, "{what}: one draw, one block read");
        }
    }
}

/// The arm of `RankWorker::handle` the facade only reaches behind a gate
/// or a collapse that already dropped the summary: `Recompress` on a warm
/// rank must drop it too.
#[test]
fn recompress_drops_a_warm_summary() {
    let layout = Layout::new(7, 0, 3);
    let state = normalized((0..256).map(|i| (i as f64 * 0.613).sin()).collect());
    let mut worker = worker_over(layout, 0, compress_state(&state, 3));
    let answers = |w: &RankWorker| {
        let mut bits = Vec::new();
        match w.query(WorkerCmd::Weights).expect("weights") {
            WorkerOut::Weights(ws) => bits.extend(ws.iter().map(|v| v.to_bits())),
            other => panic!("weights answered {other:?}"),
        }
        bits.push(
            w.query(WorkerCmd::NormSqr)
                .expect("norm")
                .scalar()
                .to_bits(),
        );
        for b in 1..7 {
            for a in 0..b {
                let zz = w.query(WorkerCmd::ExpectationZz { a, b }).expect("zz");
                bits.push(zz.scalar().to_bits());
            }
        }
        bits
    };
    let before = answers(&worker);
    let bound = ErrorBound::PointwiseRelative(1e-2);
    worker
        .handle(WorkerCmd::Recompress { bound })
        .expect("recompress");
    let after = answers(&worker);
    let blocks = match worker.query(WorkerCmd::SnapshotBlocks).expect("snapshot") {
        WorkerOut::Blocks(v) => v.into_iter().map(Some).collect(),
        other => panic!("snapshot answered {other:?}"),
    };
    let fresh = worker_over(layout, 0, blocks);
    assert_eq!(after, answers(&fresh), "answers came from a stale summary");
    assert_ne!(
        before, after,
        "precondition: a 1e-2 recompression moves the values"
    );
}
