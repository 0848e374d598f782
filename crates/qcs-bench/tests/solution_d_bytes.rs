//! The whole-stream Solution D comparator writes byte for byte the streams
//! `qcs_compress::trunc::SolutionD::whole_stream()` wrote before Solution D
//! left the codec crate (commit 0f87b01): the digest below is that build's
//! over the same seeded corpus and bounds.

use qcs_bench::comparators::SolutionD;
use qcs_compress::checksum::checksum64;
use qcs_compress::{Codec, ErrorBound};

/// Seeded blocks: lengths 0 to 4096 (odd ones included) of interleaved
/// values at two scales with zeros, subnormals and infinities, then a
/// QAOA and a supremacy state.
fn corpus() -> Vec<Vec<f64>> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        // splitmix64
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut out = Vec::new();
    for len in [0usize, 1, 7, 1001, 4096] {
        let mut v = Vec::with_capacity(len);
        for i in 0..len {
            let r = next();
            let mag = (r >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            v.push(match r % 16 {
                0 => 0.0,
                1 => f64::MIN_POSITIVE / 8.0,
                2 if i % 97 == 0 => f64::INFINITY,
                _ if i % 2 == 0 => mag * 1e-3,
                _ => mag * 1e-6,
            });
        }
        out.push(v);
    }
    out.push(qcs_bench::qaoa_snapshot(10, 1).data);
    out.push(qcs_bench::supremacy_snapshot(10, 7).data);
    out
}

#[test]
fn solution_d_streams_match_the_parent_commit() {
    let mut all = Vec::new();
    for data in corpus() {
        for bound in [
            ErrorBound::Lossless,
            ErrorBound::PointwiseRelative(1e-1),
            ErrorBound::PointwiseRelative(1e-3),
            ErrorBound::PointwiseRelative(1e-5),
        ] {
            let s = SolutionD.compress(&data, bound).unwrap();
            let dec = SolutionD.decompress(&s).unwrap();
            assert_eq!(dec.len(), data.len());
            all.extend_from_slice(&(s.len() as u64).to_le_bytes());
            all.extend_from_slice(&s);
        }
    }
    assert_eq!(
        (checksum64(&all), all.len()),
        (0xde3f_a4a4_6f79_d3c0, 151_361)
    );
}
