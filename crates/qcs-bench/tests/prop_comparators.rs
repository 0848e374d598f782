//! Property suite for the comparator codecs (`qcs_bench::comparators`):
//! every encode/decode round trip over random amplitude-like blocks
//! respects the declared [`ErrorBound`] — absolute bounds cap `|d - d'|`,
//! pointwise-relative bounds cap `|d - d'| / |d|`, lossless modes
//! round-trip bit-exactly — the `*_into` forms are bit-identical to the
//! allocating ones under any output-buffer reuse, and no decoder panics on
//! random bytes, a truncated stream or a flipped bit. Solution C and qzstd,
//! the engine's codecs, run the same properties in `qcs-compress`'s
//! `prop_bounds` and `prop_into` and the workspace's `prop_invariants` and
//! `decoder_robustness`.

use proptest::prelude::*;
use qcs_bench::comparators::{evaluated, solutions, FpzipLike, SolutionA};
use qcs_compress::{Codec, ErrorBound};
use std::alloc::{GlobalAlloc, Layout, System};

/// Refuses any single request above [`REFUSE_ABOVE`]: a decoder that
/// trusts a length read from garbage aborts this binary ("memory
/// allocation of .. bytes failed") instead of touching that memory.
struct BoundedAlloc;

/// Far above anything a test here decodes, far below what a hostile
/// header can declare.
const REFUSE_ABOVE: usize = 1 << 30;

// SAFETY: every served request is forwarded unchanged to `System`; a
// refused one returns null, which the `GlobalAlloc` contract allows.
unsafe impl GlobalAlloc for BoundedAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() <= REFUSE_ABOVE {
            System.alloc(layout)
        } else {
            std::ptr::null_mut()
        }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if layout.size() <= REFUSE_ABOVE {
            System.alloc_zeroed(layout)
        } else {
            std::ptr::null_mut()
        }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size <= REFUSE_ABOVE {
            System.realloc(ptr, layout, new_size)
        } else {
            std::ptr::null_mut()
        }
    }
}

#[global_allocator]
static ALLOC: BoundedAlloc = BoundedAlloc;

/// Random amplitude blocks with the statistical character of state-vector
/// snapshots (Fig. 9): spiky, sign-alternating, spanning many decades, with
/// exact-zero stretches from sparse states.
fn amplitude_block() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        prop_oneof![
            4 => (-1.0f64..1.0).prop_map(|v| v * 1e-2),
            3 => (-1.0f64..1.0).prop_map(|v| v * 1e-6),
            2 => (-1.0f64..1.0).prop_map(|v| v * 1e-12),
            2 => Just(0.0f64),
            1 => -1.0f64..1.0,
        ],
        1..800,
    )
}

/// Arbitrary finite-but-wild f64 data, including zeros and sign flips.
fn state_like_data() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        prop_oneof![
            3 => (-1.0f64..1.0).prop_map(|v| v * 1e-3),
            2 => (-1.0f64..1.0).prop_map(|v| v * 1e-9),
            1 => Just(0.0f64),
            1 => -1.0f64..1.0,
        ],
        1..600,
    )
}

/// Every bound mode the comparators span; each opts in via
/// `Codec::supports`.
const BOUNDS: [ErrorBound; 4] = [
    ErrorBound::Lossless,
    ErrorBound::Absolute(1e-6),
    ErrorBound::PointwiseRelative(1e-3),
    ErrorBound::PointwiseRelative(1e-6),
];

fn assert_same_values(a: &[f64], b: &[f64]) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        prop_assert_eq!(x.to_bits(), y.to_bits());
    }
    Ok(())
}

fn assert_relative(name: &str, data: &[f64], dec: &[f64], eps: f64) -> Result<(), TestCaseError> {
    prop_assert_eq!(dec.len(), data.len());
    for (i, (a, b)) in data.iter().zip(dec).enumerate() {
        prop_assert!(
            (a - b).abs() <= eps * a.abs() + f64::MIN_POSITIVE,
            "{} point {}: |{} - {}| > {} * |{}|",
            name,
            i,
            a,
            b,
            eps,
            a
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Pointwise-relative mode: `|d - d'| <= eps * |d|` at every point, for
    // every Solution.
    #[test]
    fn solutions_respect_pointwise_relative_bounds(
        data in amplitude_block(),
        eps_exp in 1u32..6,
    ) {
        let eps = 10f64.powi(-(eps_exp as i32));
        let bound = ErrorBound::PointwiseRelative(eps);
        for (name, codec) in solutions() {
            prop_assert!(codec.supports(bound), "{} must support pwr bounds", name);
            let enc = codec.compress(&data, bound).unwrap();
            assert_relative(name, &data, &codec.decompress(&enc).unwrap(), eps)?;
        }
    }

    // Absolute mode (where supported): max absolute error at or below the
    // declared bound.
    #[test]
    fn solutions_respect_absolute_bounds(
        data in amplitude_block(),
        e_exp in 2u32..9,
    ) {
        let e = 10f64.powi(-(e_exp as i32));
        let bound = ErrorBound::Absolute(e);
        for (name, codec) in solutions() {
            if !codec.supports(bound) {
                // Solutions C and D are relative/lossless-only by design;
                // the codec must refuse rather than silently miss the bound.
                prop_assert!(codec.compress(&data, bound).is_err(), "{}", name);
                continue;
            }
            let enc = codec.compress(&data, bound).unwrap();
            let dec = codec.decompress(&enc).unwrap();
            prop_assert_eq!(dec.len(), data.len());
            let max_err = data
                .iter()
                .zip(&dec)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            prop_assert!(max_err <= e, "{}: max abs error {} > {}", name, max_err, e);
        }
    }

    // Lossless mode (where supported): bit-exact round trip, including
    // signed zeros and denormals.
    #[test]
    fn lossless_modes_are_bit_exact(data in amplitude_block()) {
        for (name, codec) in solutions() {
            if !codec.supports(ErrorBound::Lossless) {
                prop_assert!(
                    codec.compress(&data, ErrorBound::Lossless).is_err(),
                    "{}", name
                );
                continue;
            }
            let enc = codec.compress(&data, ErrorBound::Lossless).unwrap();
            assert_same_values(&data, &codec.decompress(&enc).unwrap())?;
        }
    }

    // The relative bound on wilder data, FPZIP included.
    #[test]
    fn lossy_codecs_respect_relative_bounds(
        data in state_like_data(),
        eps_exp in 1u32..6,
    ) {
        let eps = 10f64.powi(-(eps_exp as i32));
        let bound = ErrorBound::PointwiseRelative(eps);
        let mut codecs = solutions();
        codecs.push(("fpzip-like", Box::new(FpzipLike)));
        for (name, codec) in codecs {
            let enc = codec.compress(&data, bound).unwrap();
            assert_relative(name, &data, &codec.decompress(&enc).unwrap(), eps)?;
        }
    }

    #[test]
    fn fpzip_lossless_is_bit_exact(data in state_like_data()) {
        let enc = FpzipLike.compress(&data, ErrorBound::Lossless).unwrap();
        assert_same_values(&data, &FpzipLike.decompress(&enc).unwrap())?;
    }

    #[test]
    fn sz_absolute_bound_holds(data in state_like_data(), e_exp in 2u32..9) {
        let e = 10f64.powi(-(e_exp as i32));
        let codec = SolutionA::default();
        let enc = codec.compress(&data, ErrorBound::Absolute(e)).unwrap();
        let dec = codec.decompress(&enc).unwrap();
        for (a, b) in data.iter().zip(&dec) {
            prop_assert!((a - b).abs() <= e);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // compress_into == compress, byte for byte, for every comparator x
    // bound, with the output buffer reused dirty, oversized, and
    // undersized; the allocating form returns exact capacity.
    #[test]
    fn compress_into_bit_identical_across_buffer_reuse(
        data in amplitude_block(),
        bound_sel in 0usize..BOUNDS.len(),
    ) {
        let bound = BOUNDS[bound_sel];
        for (_, codec) in evaluated() {
            if !codec.supports(bound) {
                continue;
            }
            let plain = codec.compress(&data, bound).unwrap();
            prop_assert_eq!(plain.capacity(), plain.len());
            let mut out = vec![0xEEu8; 3];
            codec.compress_into(&data, bound, &mut out).unwrap();
            prop_assert_eq!(&out[..], &plain[..]);
            codec.compress_into(&data, bound, &mut out).unwrap();
            prop_assert_eq!(&out[..], &plain[..]);
            let mut big = vec![0x55u8; plain.len() + 777];
            codec.compress_into(&data, bound, &mut big).unwrap();
            prop_assert_eq!(&big[..], &plain[..]);
        }
    }

    // decompress_into == decompress, bit for bit, under the same reuse
    // patterns, and so is decompress_capped_into at the true length.
    #[test]
    fn decompress_into_bit_identical_across_buffer_reuse(
        data in amplitude_block(),
        bound_sel in 0usize..BOUNDS.len(),
    ) {
        let bound = BOUNDS[bound_sel];
        for (_, codec) in evaluated() {
            if !codec.supports(bound) {
                continue;
            }
            let enc = codec.compress(&data, bound).unwrap();
            let plain = codec.decompress(&enc).unwrap();
            let mut out = vec![f64::NAN; 2];
            codec.decompress_into(&enc, &mut out).unwrap();
            assert_same_values(&plain, &out)?;
            codec.decompress_into(&enc, &mut out).unwrap();
            assert_same_values(&plain, &out)?;
            let mut big = vec![9.25f64; plain.len() + 123];
            codec.decompress_into(&enc, &mut big).unwrap();
            assert_same_values(&plain, &big)?;
            codec.decompress_capped_into(&enc, data.len(), &mut big).unwrap();
            assert_same_values(&plain, &big)?;
        }
    }
}

/// A valid stream of `codec` over 512 smooth values, at 1e-3 relative
/// where the codec takes it and 1e-6 absolute otherwise.
fn valid_payload(codec: &dyn Codec) -> Vec<u8> {
    let data: Vec<f64> = (0..512).map(|i| (i as f64 * 0.17).sin() * 1e-4).collect();
    let bound = if codec.supports(ErrorBound::PointwiseRelative(1e-3)) {
        ErrorBound::PointwiseRelative(1e-3)
    } else {
        ErrorBound::Absolute(1e-6)
    };
    codec.compress(&data, bound).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Every comparator decoder, on garbage: `Err` is the expected outcome,
    // a panic or an abort is a failure.
    #[test]
    fn decoders_survive_random_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        pick in 0usize..evaluated().len(),
    ) {
        let (_, codec) = evaluated().swap_remove(pick);
        let _ = codec.decompress(&bytes);
    }

    #[test]
    fn decoders_survive_truncation(
        frac in 0.0f64..1.0,
        pick in 0usize..evaluated().len(),
    ) {
        let (_, codec) = evaluated().swap_remove(pick);
        let payload = valid_payload(&*codec);
        let cut = ((payload.len() as f64) * frac) as usize;
        let _ = codec.decompress(&payload[..cut]);
    }

    #[test]
    fn decoders_survive_single_bit_flips(
        bit in 0usize..64,
        byte_frac in 0.0f64..1.0,
        pick in 0usize..evaluated().len(),
    ) {
        let (_, codec) = evaluated().swap_remove(pick);
        let mut payload = valid_payload(&*codec);
        let pos = ((payload.len() - 1) as f64 * byte_frac) as usize;
        payload[pos] ^= 1 << (bit % 8);
        // May decode to different values, but must not panic and, on Ok,
        // must return finite-length output.
        if let Ok(out) = codec.decompress(&payload) {
            prop_assert!(out.len() <= 1 << 24, "absurd length {}", out.len());
        }
    }
}
