//! The lossless codec's literal path: [`QzstdCodec`] skips the LZ77 match
//! search on a block with no repeated aligned 4-byte word and hands the
//! container selection one literal run instead. Its bytes must stay the
//! bytes `qzstd::compress(.., Level::High)` writes for the same doubles:
//!
//! - on the block shapes a simulation holds, at 2^6–2^14 amplitudes;
//! - on edge values (zeros, signed zeros, subnormals, infinities, NaN);
//! - on random blocks with whole or half doubles repeated at random.
//!
//! A match the probe cannot see (shorter than 7 bytes, or at an offset
//! that is no multiple of four) can move the container's bytes. Two blocks
//! pin what that costs: nothing in correctness, and at most the stored
//! bound in length.

use proptest::prelude::*;
use qcs_compress::qzstd::{self, Level};
use qcs_compress::{f64s_to_bytes, lz77, Codec, ErrorBound, QzstdCodec};
use std::f64::consts::TAU;

/// Mode byte of a stored container and of an LZ77 + Huffman one.
const MODE_STORED: u8 = 0;
const MODE_LZ_HUFF: u8 = 2;

/// The container `QzstdCodec` writes for `data`.
fn codec_bytes(data: &[f64]) -> Vec<u8> {
    QzstdCodec.compress(data, ErrorBound::Lossless).unwrap()
}

/// `QzstdCodec`'s container equals the reference's and decodes bit-exactly.
fn assert_identical(what: &str, data: &[f64]) -> Vec<u8> {
    let got = codec_bytes(data);
    let want = qzstd::compress(&f64s_to_bytes(data), Level::High);
    assert!(got == want, "{what}: {} bytes vs {}", got.len(), want.len());
    let back = QzstdCodec.decompress(&got).unwrap();
    assert_eq!(back.len(), data.len(), "{what}");
    assert!(
        data.iter()
            .zip(&back)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "{what}: decode differs"
    );
    got
}

// ---------------------------------------------------------------------------
// Blocks
// ---------------------------------------------------------------------------

/// A block of `amps` amplitudes as interleaved (re, im) doubles.
fn complex_block(amps: usize, mut amp: impl FnMut(usize) -> (f64, f64)) -> Vec<f64> {
    (0..amps)
        .flat_map(|j| {
            let (re, im) = amp(j);
            [re, im]
        })
        .collect()
}

/// SplitMix64.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in (0, 1).
fn uniform(state: &mut u64) -> f64 {
    ((next(state) >> 11) as f64 + 0.5) / (1u64 << 53) as f64
}

/// Complex Gaussian amplitudes at a 2^20-amplitude register's scale: the
/// Porter–Thomas statistics of a random circuit's output.
fn porter_thomas(amps: usize, seed: u64) -> Vec<f64> {
    let mut s = seed;
    let scale = 1.0 / (2.0 * (1u64 << 20) as f64).sqrt();
    complex_block(amps, |_| {
        let (u, v) = (uniform(&mut s), uniform(&mut s));
        let r = (-2.0 * u.ln()).sqrt() * scale;
        (r * (TAU * v).cos(), r * (TAU * v).sin())
    })
}

/// A product of Ry rotations over the block's qubits.
fn ry_product(amps: usize) -> Vec<f64> {
    let qubits = amps.trailing_zeros() as usize;
    let halves: Vec<(f64, f64)> = (0..qubits)
        .map(|q| {
            let t = 0.3 + 0.17 * q as f64;
            ((t / 2.0).cos(), (t / 2.0).sin())
        })
        .collect();
    complex_block(amps, |j| {
        let amp = halves
            .iter()
            .enumerate()
            .map(|(q, &(c, s))| if j >> q & 1 == 1 { s } else { c })
            .product();
        (amp, 0.0)
    })
}

/// The first block of QFT|k> on a 2^20-amplitude register.
fn qft_basis(amps: usize, k: u64) -> Vec<f64> {
    let n = 1u64 << 20;
    let norm = 1.0 / (n as f64).sqrt();
    complex_block(amps, |j| {
        let phase = ((j as u64 * k) % n) as f64 / n as f64 * TAU;
        (norm * phase.cos(), norm * phase.sin())
    })
}

/// One amplitude in sixteen non-zero.
fn sparse_16(amps: usize) -> Vec<f64> {
    complex_block(amps, |j| {
        if j % 16 == 0 {
            let x = j as f64;
            ((x * 0.37).sin() / 32.0, (x * 0.11).cos() / 32.0)
        } else {
            (0.0, 0.0)
        }
    })
}

/// Three Grover iterations: one marked amplitude over a uniform rest.
fn grover(amps: usize) -> Vec<f64> {
    let n = amps as f64;
    let turn = 7.0 * (1.0 / n.sqrt()).asin();
    let (marked, rest) = (turn.sin(), turn.cos() / (n - 1.0).sqrt());
    complex_block(amps, |j| (if j == amps / 3 { marked } else { rest }, 0.0))
}

/// H on every qubit.
fn uniform_superposition(amps: usize) -> Vec<f64> {
    let a = 1.0 / (amps as f64).sqrt();
    complex_block(amps, |_| (a, 0.0))
}

/// One QAOA cost layer on a ring over the uniform superposition: equal
/// magnitudes, one phase per cut value.
fn qaoa_phase(amps: usize, gamma: f64) -> Vec<f64> {
    let qubits = amps.trailing_zeros();
    let a = 1.0 / (amps as f64).sqrt();
    complex_block(amps, |j| {
        let cut = (0..qubits)
            .filter(|&q| (j >> q & 1) != (j >> ((q + 1) % qubits) & 1))
            .count();
        let phase = -gamma * cut as f64;
        (a * phase.cos(), a * phase.sin())
    })
}

// ---------------------------------------------------------------------------
// Identity
// ---------------------------------------------------------------------------

#[test]
fn random_and_product_blocks_match_at_every_size() {
    for log2 in [6, 8, 10, 12, 14] {
        let amps = 1usize << log2;
        assert_identical(&format!("porter-thomas 2^{log2}"), &porter_thomas(amps, 7));
        assert_identical(&format!("ry product 2^{log2}"), &ry_product(amps));
    }
}

/// The case that forbids storing a probe-negative block raw: a 2^10-amp
/// Porter–Thomas block has no match for LZ77 at all, and Huffman over its
/// literal run still beats the stored container.
#[test]
fn a_match_free_block_can_still_take_the_entropy_stage() {
    let data = porter_thomas(1 << 10, 7);
    let bytes = f64s_to_bytes(&data);
    let lz = lz77::compress(&bytes);
    assert_eq!(lz[0] >> 4, 15, "the stream opens with a literal run");
    assert_eq!(
        &lz[lz.len() - 2 - bytes.len()..lz.len() - 2],
        &bytes[..],
        "one literal run, then the end-of-stream token"
    );
    let got = assert_identical("porter-thomas 2^10", &data);
    assert_eq!(got[0], MODE_LZ_HUFF);
    assert!(got.len() < bytes.len(), "{} of {}", got.len(), bytes.len());
}

#[test]
fn simulation_states_match() {
    let amps = 1 << 12;
    for (what, data) in [
        ("qft|8192>", qft_basis(amps, 8192)),
        ("qft|12345>", qft_basis(amps, 12345)),
        ("ry product", ry_product(amps)),
        ("1/16 sparse", sparse_16(amps)),
        ("grover", grover(amps)),
        ("uniform", uniform_superposition(amps)),
        ("qaoa phase", qaoa_phase(amps, 0.7)),
        ("qaoa phase 2^7", qaoa_phase(1 << 7, 0.7)),
    ] {
        assert_identical(what, &data);
    }
}

#[test]
fn edge_values_match() {
    let tiny = f64::MIN_POSITIVE / 3.0;
    let cases: Vec<(&str, Vec<f64>)> = vec![
        ("empty", vec![]),
        ("all zero", vec![0.0; 512]),
        ("one value", vec![0.5]),
        ("negative zero", vec![-0.0]),
        ("signed zeros", vec![0.0, -0.0, -0.0, 0.0]),
        ("subnormal", vec![tiny]),
        ("subnormals", vec![tiny, -tiny, tiny / 7.0, 1.5]),
        ("infinities", vec![f64::INFINITY, f64::NEG_INFINITY]),
        ("nan", vec![f64::NAN, 1.0]),
        ("mixed", vec![f64::NAN, -0.0, tiny, f64::INFINITY, 0.25]),
    ];
    for (what, data) in cases {
        let got = assert_identical(what, &data);
        if what == "empty" || what == "all zero" {
            assert_eq!(got.len(), 9, "{what}: header-only zero container");
            assert_eq!(got[0], 3, "{what}: the all-zero mode");
        }
    }
}

/// A block whose only LZ77 match sits at an offset the probe does not
/// look at (not a multiple of four): the match is lost, so the container
/// may differ from the reference, but it decodes exactly and stays within
/// the bound qzstd promises for any input.
#[test]
fn a_misaligned_match_costs_ratio_not_correctness() {
    let mut s = 11u64;
    let mut bytes: Vec<u8> = (0..512).flat_map(|_| next(&mut s).to_le_bytes()).collect();
    // 128 bytes copied 1901 bytes on: every aligned word of the copy was
    // a misaligned one of the source.
    bytes.copy_within(101..229, 2002);
    let data: Vec<f64> = bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    let got = codec_bytes(&data);
    let back = QzstdCodec.decompress(&got).unwrap();
    assert!(data
        .iter()
        .zip(&back)
        .all(|(a, b)| a.to_bits() == b.to_bits()));
    assert_eq!(back.len(), data.len());
    assert!(got.len() <= bytes.len() + 9, "{} bytes", got.len());
    // The matcher finds the 128-byte copy; the probe does not see it.
    assert_eq!(qzstd::compress(&bytes, Level::High)[0], 1, "LZ77 mode");
    assert_eq!(got[0], MODE_STORED);
}

/// The same on a block the simulator could hold: this 2^10-amp
/// Porter–Thomas block's only LZ77 matches are two 4-byte ones that
/// straddle two doubles (the top bytes of one, the low bytes of the next,
/// one or more doubles back). Both containers take the entropy stage; the
/// literal run's is the shorter, because a 4-byte match costs Huffman
/// more bits than the literals it replaces.
#[test]
fn a_straddling_match_moves_bytes_not_values() {
    let data = porter_thomas(1 << 10, 6);
    let bytes = f64s_to_bytes(&data);
    let want = qzstd::compress(&bytes, Level::High);
    let got = codec_bytes(&data);
    assert_ne!(got, want, "the probe does not see a straddling match");
    assert_eq!((got[0], want[0]), (MODE_LZ_HUFF, MODE_LZ_HUFF));
    assert!(got.len() <= want.len(), "{} vs {}", got.len(), want.len());
    let back = QzstdCodec.decompress(&got).unwrap();
    assert!(data
        .iter()
        .zip(&back)
        .all(|(a, b)| a.to_bits() == b.to_bits()));
    assert_eq!(back.len(), data.len());
}

// ---------------------------------------------------------------------------
// Random blocks with injected repeats
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Random doubles, then up to eight copies of a whole double or of one
    // of its 4-byte halves onto another aligned slot.
    #[test]
    fn random_blocks_with_injected_repeats_match(
        bits in prop::collection::vec(any::<u64>(), 0..700),
        copies in prop::collection::vec((any::<u32>(), any::<u32>(), 0usize..5), 0..8),
    ) {
        let mut bytes: Vec<u8> = bits.iter().flat_map(|b| b.to_le_bytes()).collect();
        let n = bits.len();
        for &(from, to, what) in &copies {
            if n == 0 {
                break;
            }
            let (from, to) = (from as usize % n * 8, to as usize % n * 8);
            // (source offset, target offset, length) within the doubles:
            // the whole double, or a half onto either half.
            let (src, dst, len) = [(0, 0, 8), (0, 0, 4), (4, 4, 4), (0, 4, 4), (4, 0, 4)][what];
            bytes.copy_within(from + src..from + src + len, to + dst);
        }
        let data: Vec<f64> = bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let got = codec_bytes(&data);
        prop_assert!(got == qzstd::compress(&bytes, Level::High), "{} values", n);
    }
}
