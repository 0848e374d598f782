//! Criterion kernels for the out-of-core block store: what shrinking the
//! residency budget costs end to end, and the raw spill/fetch round-trip
//! of the segment-file tier in isolation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qcs_circuits::Circuit;
use qcs_cluster::Metrics;
use qcs_compress::{CodecId, ErrorBound};
use qcs_core::store::{BlockStore, MemStore, SpillStore};
use qcs_core::{BlockCodec, CompressedSimulator, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The same entangling circuit at every residency budget, all-resident
/// down to 4 blocks of 64: the end-to-end price of the spill tier.
fn bench_budget_sweep(c: &mut Criterion) {
    let n = 16usize;
    let mut circuit = Circuit::new(n);
    for q in 0..n {
        circuit.h(q);
    }
    for q in 0..n - 1 {
        circuit.cx(q, q + 1);
    }
    for q in 0..n {
        circuit.rz(0.2 * (q + 1) as f64, q);
    }
    let mut group = c.benchmark_group("spill_budget_16q");
    group.sample_size(10);
    for (budget, prefetch) in [
        (None, false),
        (Some(16usize), false),
        (Some(16), true),
        (Some(4), false),
        (Some(4), true),
    ] {
        let label = match budget {
            None => "all".to_string(),
            Some(b) if prefetch => format!("{b}-prefetch"),
            Some(b) => format!("{b}-blocking"),
        };
        group.bench_with_input(
            BenchmarkId::new("resident", label),
            &(budget, prefetch),
            |b, &(budget, prefetch)| {
                b.iter(|| {
                    let mut cfg = SimConfig::default().with_block_log2(10).without_cache();
                    if let Some(blocks) = budget {
                        cfg = cfg.with_spill(blocks);
                    }
                    cfg = cfg.with_prefetch(prefetch);
                    let mut sim = CompressedSimulator::new(n as u32, cfg).unwrap();
                    let mut rng = StdRng::seed_from_u64(0);
                    sim.run(&circuit, &mut rng).unwrap();
                    sim.report().breakdown.spills
                })
            },
        );
    }
    group.finish();
}

/// Raw store round-trip: take + put every block once, through the
/// all-resident MemStore vs a SpillStore that can hold only 1/8 of them.
fn bench_store_round_trip(c: &mut Criterion) {
    let codec = BlockCodec::new(CodecId::SolutionC);
    let blocks: Vec<_> = (0..64)
        .map(|i| {
            let data: Vec<f64> = (0..2048)
                .map(|j| ((i * 2048 + j) as f64 * 0.37).sin() * 1e-3)
                .collect();
            Some(codec.compress(&data, ErrorBound::Lossless).unwrap())
        })
        .collect();
    let mut group = c.benchmark_group("store_round_trip_64blk");
    group.sample_size(10);
    group.bench_function("mem", |b| {
        let store = MemStore::new(blocks.clone());
        b.iter(|| {
            for i in 0..64 {
                let blk = store.take(i).unwrap();
                store.put(i, blk).unwrap();
            }
            store.resident_bytes()
        })
    });
    group.bench_function("spill_8_resident", |b| {
        let store = SpillStore::create(
            &std::env::temp_dir(),
            "bench",
            8,
            Metrics::new(),
            blocks.clone(),
        )
        .unwrap();
        b.iter(|| {
            for i in 0..64 {
                let blk = store.take(i).unwrap();
                store.put(i, blk).unwrap();
            }
            store.resident_bytes()
        })
    });
    // The same working set pulled one residency-budget chunk at a time
    // through the coalescing batched read instead of a take per block.
    group.bench_function("spill_8_resident_fetch_many", |b| {
        let store = SpillStore::create(
            &std::env::temp_dir(),
            "bench-many",
            8,
            Metrics::new(),
            blocks.clone(),
        )
        .unwrap();
        b.iter(|| {
            let slots: Vec<usize> = (0..64).collect();
            for chunk in slots.chunks(8) {
                let fetched = store.fetch_many(chunk).unwrap();
                for (&i, blk) in chunk.iter().zip(fetched) {
                    store.put(i, blk).unwrap();
                }
            }
            store.resident_bytes()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_budget_sweep, bench_store_round_trip);
criterion_main!(benches);
