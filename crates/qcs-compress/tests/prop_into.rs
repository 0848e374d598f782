//! Property suite for the allocation-free `*_into` codec API: for both
//! codecs and every bound mode they support, `compress_into` and
//! `decompress_into` must be bit-identical to the allocating `compress` /
//! `decompress` — including when the output buffer is reused dirty,
//! oversized, or undersized across calls — and every allocating `compress`
//! must return a vector whose capacity equals its length (so the
//! `Vec<u8> -> Arc<[u8]>` conversion in the engine never reallocates).
//! `decompress_capped_into` at the true value count must be
//! `decompress_into`, and a cap one value short must be refused. The
//! comparator codecs' half of this suite is `qcs-bench`'s
//! `prop_comparators`.

use proptest::prelude::*;
use qcs_compress::{CodecError, CodecId, ErrorBound};

/// Random amplitude blocks spanning many decades, with zero stretches.
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

/// Every bound mode; each codec opts in via `Codec::supports`.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // compress_into == compress, byte for byte, for every codec x bound,
    // with the output buffer reused dirty, oversized, and undersized.
    #[test]
    fn compress_into_bit_identical_across_buffer_reuse(
        data in amplitude_block(),
        bound_sel in 0usize..BOUNDS.len(),
    ) {
        let bound = BOUNDS[bound_sel];
        for id in CodecId::ALL {
            let codec = id.build();
            if !codec.supports(bound) {
                continue;
            }
            let plain = codec.compress(&data, bound).unwrap();
            prop_assert_eq!(plain.capacity(), plain.len());

            // Dirty, undersized buffer.
            let mut out = vec![0xEEu8; 3];
            codec.compress_into(&data, bound, &mut out).unwrap();
            prop_assert_eq!(&out[..], &plain[..]);

            // Same buffer again: now dirty with the previous result.
            codec.compress_into(&data, bound, &mut out).unwrap();
            prop_assert_eq!(&out[..], &plain[..]);

            // Oversized buffer with stale garbage beyond the result.
            let mut big = vec![0x55u8; plain.len() + 777];
            codec.compress_into(&data, bound, &mut big).unwrap();
            prop_assert_eq!(&big[..], &plain[..]);
        }
    }

    // decompress_into == decompress, bit for bit, under the same reuse
    // patterns.
    #[test]
    fn decompress_into_bit_identical_across_buffer_reuse(
        data in amplitude_block(),
        bound_sel in 0usize..BOUNDS.len(),
    ) {
        let bound = BOUNDS[bound_sel];
        for id in CodecId::ALL {
            let codec = id.build();
            if !codec.supports(bound) {
                continue;
            }
            let enc = codec.compress(&data, bound).unwrap();
            let plain = codec.decompress(&enc).unwrap();

            // Dirty, undersized buffer.
            let mut out = vec![f64::NAN; 2];
            codec.decompress_into(&enc, &mut out).unwrap();
            assert_same_values(&plain, &out)?;

            // Same buffer again (dirty with the previous result).
            codec.decompress_into(&enc, &mut out).unwrap();
            assert_same_values(&plain, &out)?;

            // Oversized dirty buffer.
            let mut big = vec![9.25f64; plain.len() + 123];
            codec.decompress_into(&enc, &mut big).unwrap();
            assert_same_values(&plain, &big)?;
        }
    }

    // decompress_capped_into at the stream's true value count == decompress,
    // bit for bit, into a dirty buffer; a cap one value short is refused.
    #[test]
    fn capped_decode_at_the_true_length_is_decompress(
        data in amplitude_block(),
        bound_sel in 0usize..BOUNDS.len(),
    ) {
        let bound = BOUNDS[bound_sel];
        for id in CodecId::ALL {
            let codec = id.build();
            if !codec.supports(bound) {
                continue;
            }
            let enc = codec.compress(&data, bound).unwrap();
            let plain = codec.decompress(&enc).unwrap();
            let mut out = vec![f64::NAN; 3];
            codec.decompress_capped_into(&enc, data.len(), &mut out).unwrap();
            assert_same_values(&plain, &out)?;
            let short = codec.decompress_capped_into(&enc, data.len() - 1, &mut out);
            prop_assert!(
                matches!(short, Err(CodecError::Corrupt(_))),
                "{:?} decoded {} values under a cap of {}: {:?}",
                id, data.len(), data.len() - 1, short
            );
        }
    }
}
