//! Criterion kernels for the entropy back end of `qcs-compress`, stage by
//! stage: Huffman encode/decode, LZ77 compress, and the `qzstd` container
//! at both levels.
//!
//! Each kernel runs at 2 KiB and 4 KiB (what Solution C's 1024-value
//! segments and the 2^7/2^8-amplitude blocks feed the backend), 64 KiB and
//! 256 KiB, so a per-call fixed cost (table fills, tree builds) and the
//! per-byte cost show separately: the first dominates the small sizes,
//! the second the large. Two inputs bracket what the simulator produces —
//! full-entropy bytes (a deep circuit's raw doubles: nothing to find) and
//! Solution C's packed bodies at 1e-3 (lead codes and truncated mantissa
//! bytes: skewed, with short matches).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qcs_bench::supremacy_snapshot;
use qcs_compress::qzstd::{self, Level};
use qcs_compress::trunc::SolutionC;
use qcs_compress::{huffman, lz77, Codec, ErrorBound};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

const SIZES: [(&str, usize); 4] = [
    ("2KiB", 2 << 10),
    ("4KiB", 4 << 10),
    ("64KiB", 64 << 10),
    ("256KiB", 256 << 10),
];

fn full_entropy(len: usize) -> Vec<u8> {
    let mut bytes = vec![0u8; len];
    StdRng::seed_from_u64(len as u64).fill_bytes(&mut bytes);
    bytes
}

/// The first `len` bytes of the pre-backend body Solution C builds for a
/// supremacy snapshot at `PointwiseRelative(1e-3)` (about 3.3 bytes per
/// value), recovered from the whole-stream container.
fn solution_c_body(values: &[f64], len: usize) -> Vec<u8> {
    let container = SolutionC::whole_stream()
        .compress(&values[..len / 3], ErrorBound::PointwiseRelative(1e-3))
        .expect("solution C compresses");
    let mut body = qzstd::decompress(&container).expect("own container decodes");
    body.truncate(len);
    assert_eq!(body.len(), len, "snapshot too small for a {len}-byte body");
    body
}

fn bench_stages(c: &mut Criterion, group: &str, input: impl Fn(usize) -> Vec<u8>) {
    let mut group = c.benchmark_group(group);
    group.sample_size(20);
    for (label, len) in SIZES {
        let data = input(len);
        group.throughput(Throughput::Bytes(len as u64));
        let mut out = Vec::new();
        group.bench_with_input(
            BenchmarkId::new("huffman_encode", label),
            &data,
            |b, data| {
                b.iter(|| {
                    out.clear();
                    huffman::encode_bytes_into(data, &mut out);
                    out.len()
                })
            },
        );
        let encoded = huffman::encode_bytes(&data);
        group.bench_with_input(
            BenchmarkId::new("huffman_decode", label),
            &encoded,
            |b, enc| {
                b.iter(|| {
                    out.clear();
                    huffman::decode_bytes_into(enc, &mut out).expect("own stream decodes");
                    out.len()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("lz77_compress", label),
            &data,
            |b, data| {
                b.iter(|| {
                    out.clear();
                    lz77::compress_into(data, &mut out);
                    out.len()
                })
            },
        );
        for (name, level) in [("qzstd_fast", Level::Fast), ("qzstd_high", Level::High)] {
            group.bench_with_input(BenchmarkId::new(name, label), &data, |b, data| {
                b.iter(|| {
                    out.clear();
                    qzstd::compress_into(data, level, &mut out);
                    out.len()
                })
            });
        }
    }
    group.finish();
}

fn bench_full_entropy(c: &mut Criterion) {
    bench_stages(c, "entropy_full", full_entropy);
}

fn bench_solution_c_bodies(c: &mut Criterion) {
    let snap = supremacy_snapshot(16, 0);
    bench_stages(c, "entropy_c_body", |len| solution_c_body(&snap.data, len));
}

criterion_group!(benches, bench_full_entropy, bench_solution_c_bodies);
criterion_main!(benches);
