//! Criterion kernels for the compression pipelines (Fig. 10/11 companions):
//! compression and decompression throughput of Solution C and the
//! comparators (Solutions A, B and D, ZFP, FPZIP) on a supremacy state
//! snapshot, and the lossless codec on one block per path of its repeat
//! probe.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qcs_bench::{comparators, qaoa_snapshot, supremacy_snapshot};
use qcs_compress::{bytes_to_f64s, Codec, ErrorBound, QzstdCodec};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::f64::consts::TAU;

fn bench_compress(c: &mut Criterion) {
    let snap = supremacy_snapshot(16, 0);
    let mut group = c.benchmark_group("compress_sup16");
    group.throughput(Throughput::Bytes(snap.bytes() as u64));
    group.sample_size(10);
    for (id, codec) in comparators::evaluated() {
        group.bench_with_input(BenchmarkId::new("pwr1e-3", id), &snap.data, |b, data| {
            b.iter(|| {
                codec
                    .compress(data, ErrorBound::PointwiseRelative(1e-3))
                    .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_decompress(c: &mut Criterion) {
    let snap = supremacy_snapshot(16, 0);
    let mut group = c.benchmark_group("decompress_sup16");
    group.throughput(Throughput::Bytes(snap.bytes() as u64));
    group.sample_size(10);
    for (id, codec) in comparators::solutions() {
        let enc = codec
            .compress(&snap.data, ErrorBound::PointwiseRelative(1e-3))
            .unwrap();
        group.bench_with_input(BenchmarkId::new("pwr1e-3", id), &enc, |b, enc| {
            b.iter(|| codec.decompress(enc).unwrap())
        });
    }
    group.finish();
}

fn bench_lossless(c: &mut Criterion) {
    let snap = supremacy_snapshot(16, 0);
    let bytes = qcs_compress::f64s_to_bytes(&snap.data);
    let mut group = c.benchmark_group("qzstd_sup16");
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.sample_size(10);
    group.bench_function("fast", |b| {
        b.iter(|| qcs_compress::qzstd::compress(&bytes, qcs_compress::qzstd::Level::Fast))
    });
    group.bench_function("high", |b| {
        b.iter(|| qcs_compress::qzstd::compress(&bytes, qcs_compress::qzstd::Level::High))
    });
    let zero = vec![0u8; bytes.len()];
    group.bench_function("zero_page", |b| {
        b.iter(|| qcs_compress::qzstd::compress(&zero, qcs_compress::qzstd::Level::High))
    });
    group.finish();
}

/// Complex Gaussian amplitudes (the Porter–Thomas statistics of a random
/// circuit's output) at a 2^20-amplitude register's scale.
fn porter_thomas(amps: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let scale = 1.0 / (2.0 * (1u64 << 20) as f64).sqrt();
    (0..amps)
        .flat_map(|_| {
            let (u, v) = (1.0 - rng.gen::<f64>(), rng.gen::<f64>());
            let r = (-2.0 * u.ln()).sqrt() * scale;
            [r * (TAU * v).cos(), r * (TAU * v).sin()]
        })
        .collect()
}

/// `QzstdCodec` on one block per path it picks: a block with no repeated
/// aligned word whose top bytes take at most 16 values takes the palette,
/// one whose top bytes take more goes to the container selection as one
/// literal run, and one with a repeat runs the LZ77 matcher. The container
/// mode each block lands in is asserted.
fn bench_lossless_codec(c: &mut Criterion) {
    let mut noise = vec![0u8; 8 << 9];
    StdRng::seed_from_u64(8).fill_bytes(&mut noise);
    let cases = [
        // A deep circuit's raw doubles: literal run, stored.
        ("full_entropy_2^8", bytes_to_f64s(&noise).unwrap(), 0u8),
        // A state's amplitudes: sign and exponent as palette indices.
        ("porter_thomas_2^10", porter_thomas(1 << 10, 3), 4),
        // Bit-flip symmetric amplitudes repeat: the matcher path.
        ("qaoa_2^7", qaoa_snapshot(7, 1).data, 1),
    ];
    let codec = QzstdCodec;
    let mut group = c.benchmark_group("qzstd_codec");
    group.sample_size(20);
    for (name, data, mode) in cases {
        let mut out = Vec::new();
        codec
            .compress_into(&data, ErrorBound::Lossless, &mut out)
            .unwrap();
        assert_eq!(out[0], mode, "{name}: container mode");
        group.throughput(Throughput::Bytes(8 * data.len() as u64));
        group.bench_with_input(BenchmarkId::new("compress", name), &data, |b, data| {
            b.iter(|| codec.compress_into(data, ErrorBound::Lossless, &mut out))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_compress,
    bench_decompress,
    bench_lossless,
    bench_lossless_codec
);
criterion_main!(benches);
