//! Criterion kernels for querying a frozen state: what the first
//! `expectation_zz` / `norm_sqr` / `sample` after a mutation costs (one
//! pass over the rank's blocks that builds the query summary) against a
//! plain weights-only pass over the same blocks (decode, sum of squares —
//! what a single `norm_sqr` used to be), what the first `prob_one` after
//! a mutation costs (one whole-block pass that fills the rank's memo for
//! that qubit), and what the queries cost once the summary or memo is
//! warm.
//!
//! All passes run on one thread over Solution C blocks at 1e-3, at 2^10
//! and 2^14 amplitudes per block. `summary_build` and `prob_one` are
//! measured through the engine, so on top of the pass they pay the
//! facade's dispatch and the gate that invalidates the previous summary
//! and memo (a Z on one block, served by the block cache); `weights_only`
//! is the bare codec loop. The ratio between the two is therefore an
//! upper bound on what the summary adds to a cold query. `prob_one` asks
//! about offset bit 9, the lowest bit at the codec's segment granularity
//! (512-amplitude segments).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qcs_circuits::supremacy::{random_circuit, Grid};
use qcs_circuits::Op;
use qcs_compress::{CodecId, ErrorBound};
use qcs_core::{BlockCodec, CompressedBlock, CompressedSimulator, SimConfig};
use qcs_statevec::GateKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

const BOUND: ErrorBound = ErrorBound::PointwiseRelative(1e-3);

/// (label, supremacy grid, block_log2): 64 blocks of 2^10 amplitudes and
/// 16 blocks of 2^14.
const GEOMETRIES: [(&str, (usize, usize), u32); 2] =
    [("2^10_amps", (4, 4), 10), ("2^14_amps", (3, 6), 14)];

/// The qubit `prob_one` asks about: offset bit 9, at segment granularity.
const SEGMENT_BIT: usize = 9;

/// A depth-8 supremacy state on one single-threaded rank.
fn prepared(grid: (usize, usize), block_log2: u32) -> CompressedSimulator {
    let cfg = SimConfig::default()
        .with_block_log2(block_log2)
        .with_threads_per_rank(1)
        .with_fixed_bound(BOUND);
    let circuit = random_circuit(Grid::new(grid.0, grid.1), 8, 7);
    let mut sim = CompressedSimulator::new(circuit.num_qubits() as u32, cfg).expect("sim");
    sim.run(&circuit, &mut StdRng::seed_from_u64(7))
        .expect("prepare state");
    sim
}

/// The state's blocks, recompressed the way the engine holds them.
fn blocks_of(sim: &CompressedSimulator, codec: &BlockCodec) -> Vec<CompressedBlock> {
    let block_f64s = 2 * sim.layout().block_amps();
    sim.snapshot_f64()
        .expect("snapshot")
        .chunks_exact(block_f64s)
        .map(|block| codec.compress_pooled(block, BOUND).expect("compress"))
        .collect()
}

/// Cold query: summary build against a weights-only pass.
fn bench_cold_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_cold");
    group.sample_size(20);
    for (label, grid, block_log2) in GEOMETRIES {
        let mut sim = prepared(grid, block_log2);
        let n = sim.num_qubits() as usize;
        let codec = BlockCodec::new(CodecId::SolutionC);
        let blocks = blocks_of(&sim, &codec);

        group.bench_with_input(
            BenchmarkId::new("weights_only", label),
            &blocks,
            |b, blocks| {
                b.iter(|| {
                    let mut buf = codec.take_amp_buf();
                    let mut total = 0.0;
                    for blk in blocks {
                        codec.decompress(blk, &mut buf).expect("decode");
                        total += buf.iter().map(|v| v * v).sum::<f64>();
                    }
                    codec.put_amp_buf(buf);
                    total
                })
            },
        );

        // Controlled on every block-index qubit: mutates the last block
        // only, and drops the summary like any gate.
        let thaw = Op::MultiControlled {
            gate: GateKind::Z,
            controls: (block_log2 as usize..n).collect(),
            target: 0,
        };
        let mut rng = StdRng::seed_from_u64(1);
        group.bench_function(BenchmarkId::new("summary_build", label), |b| {
            b.iter(|| {
                sim.apply_op(&thaw, &mut rng).expect("thaw");
                sim.expectation_zz(0, n - 1).expect("cold zz")
            })
        });
        group.bench_function(BenchmarkId::new("prob_one", label), |b| {
            b.iter(|| {
                sim.apply_op(&thaw, &mut rng).expect("thaw");
                sim.prob_one(SEGMENT_BIT).expect("cold prob_one")
            })
        });
    }
    group.finish();
}

/// Warm queries: the summary and the `prob_one` memo exist, nothing but a
/// `sample` draw's one block is decoded.
fn bench_warm_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_warm");
    group.sample_size(20);
    for (label, grid, block_log2) in GEOMETRIES {
        let sim = prepared(grid, block_log2);
        let n = sim.num_qubits() as usize;
        sim.norm_sqr().expect("warm the summary");
        group.bench_function(BenchmarkId::new("expectation_zz", label), |b| {
            let mut pair = 0;
            b.iter(|| {
                pair = (pair + 1) % (n - 1);
                sim.expectation_zz(pair, n - 1).expect("warm zz")
            })
        });
        let mut rng = StdRng::seed_from_u64(2);
        group.bench_function(BenchmarkId::new("sample", label), |b| {
            b.iter(|| sim.sample(&mut rng).expect("warm sample"))
        });
        sim.prob_one(SEGMENT_BIT).expect("warm the memo");
        group.bench_function(BenchmarkId::new("prob_one", label), |b| {
            b.iter(|| sim.prob_one(SEGMENT_BIT).expect("warm prob_one"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_cold_query, bench_warm_query);
criterion_main!(benches);
