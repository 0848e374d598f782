//! Property suite for the paper's Solution C: every encode/decode round
//! trip over random amplitude-like blocks must respect the declared
//! [`ErrorBound`] — pointwise-relative bounds cap `|d - d'| / |d|`,
//! lossless mode round-trips bit-exactly, and absolute bounds, which
//! Solution C is not defined for, are refused. The comparators (Solutions
//! A, B and D) run the same properties in `qcs-bench`'s `prop_comparators`.

use proptest::prelude::*;
use qcs_compress::{CodecId, ErrorBound};

const SOLUTIONS: [CodecId; 1] = [CodecId::SolutionC];

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
        for id in SOLUTIONS {
            let codec = id.build();
            prop_assert!(codec.supports(bound), "{id} must support pwr bounds");
            let enc = codec.compress(&data, bound).unwrap();
            let dec = codec.decompress(&enc).unwrap();
            prop_assert_eq!(dec.len(), data.len());
            for (i, (a, b)) in data.iter().zip(&dec).enumerate() {
                prop_assert!(
                    (a - b).abs() <= eps * a.abs() + f64::MIN_POSITIVE,
                    "{} point {}: |{} - {}| > {} * |{}|",
                    id, i, a, b, eps, a
                );
            }
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
        for id in SOLUTIONS {
            let codec = id.build();
            if !codec.supports(bound) {
                // Solution C is relative/lossless-only by design; the
                // codec must refuse rather than silently miss the bound.
                prop_assert!(codec.compress(&data, bound).is_err(), "{}", id);
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
            prop_assert!(max_err <= e, "{}: max abs error {} > {}", id, max_err, e);
        }
    }

    // Lossless mode (where supported): bit-exact round trip, including
    // signed zeros and denormals.
    #[test]
    fn lossless_modes_are_bit_exact(data in amplitude_block()) {
        for id in SOLUTIONS {
            let codec = id.build();
            if !codec.supports(ErrorBound::Lossless) {
                prop_assert!(
                    codec.compress(&data, ErrorBound::Lossless).is_err(),
                    "{}", id
                );
                continue;
            }
            let enc = codec.compress(&data, ErrorBound::Lossless).unwrap();
            let dec = codec.decompress(&enc).unwrap();
            prop_assert_eq!(dec.len(), data.len());
            for (a, b) in data.iter().zip(&dec) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
