//! Property suite for the segmented Solution C format: a segmented
//! stream must decode to exactly the values the legacy whole-stream format
//! produces at the same bound, its length-prefixed bodies must tile the
//! whole stream, and a segment's body must depend on that segment's values
//! alone.

use proptest::prelude::*;
use qcs_compress::trunc::SolutionC;
use qcs_compress::{Codec, ErrorBound, DEFAULT_SEGMENT_VALUES};
use std::ops::Range;

/// Random amplitude blocks spanning many decades, with zero stretches.
fn amplitude_block() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        prop_oneof![
            4 => (-1.0f64..1.0).prop_map(|v| v * 1e-2),
            3 => (-1.0f64..1.0).prop_map(|v| v * 1e-6),
            2 => Just(0.0f64),
            1 => -1.0f64..1.0,
        ],
        1..3 * DEFAULT_SEGMENT_VALUES,
    )
}

fn bound_from(exp: u32) -> ErrorBound {
    if exp == 0 {
        ErrorBound::Lossless
    } else {
        ErrorBound::PointwiseRelative(10f64.powi(-(exp as i32)))
    }
}

/// Byte ranges of the bodies of a segmented stream: each behind its u32
/// length, from the end of the 12-byte header to the last byte.
fn body_ranges(stream: &[u8]) -> Vec<Range<usize>> {
    let mut ranges = Vec::new();
    let mut at = 12;
    while at < stream.len() {
        let len = u32::from_le_bytes(stream[at..at + 4].try_into().unwrap()) as usize;
        ranges.push(at + 4..at + 4 + len);
        at += 4 + len;
    }
    ranges
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // The segmented format is a pure re-framing: at every bound, decoding
    // a segmented stream yields bit-for-bit the values of the legacy
    // whole-stream format.
    #[test]
    fn segmented_matches_whole_stream_bitwise(
        data in amplitude_block(),
        bound_exp in 0u32..6,
    ) {
        let bound = bound_from(bound_exp);
        let seg_c = SolutionC::default();
        let whole_c = SolutionC::whole_stream();
        let ds = seg_c.decompress(&seg_c.compress(&data, bound).unwrap()).unwrap();
        let dw = whole_c.decompress(&whole_c.compress(&data, bound).unwrap()).unwrap();
        prop_assert_eq!(ds.len(), dw.len());
        for (a, b) in ds.iter().zip(&dw) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    // The stream is its header and one length-prefixed body per segment:
    // the value count is the input's, the bodies run back to back to the
    // last byte, and each decodes on its own to its segment's values.
    #[test]
    fn bodies_tile_the_whole_stream(
        data in amplitude_block(),
        bound_exp in 0u32..6,
    ) {
        let bound = bound_from(bound_exp);
        let codec = SolutionC::default();
        let enc = codec.compress(&data, bound).unwrap();
        let n_values = u64::from_le_bytes(enc[4..12].try_into().unwrap());
        prop_assert_eq!(n_values, data.len() as u64);
        let bodies = body_ranges(&enc);
        prop_assert_eq!(bodies.len(), data.len().div_ceil(DEFAULT_SEGMENT_VALUES));
        prop_assert_eq!(bodies.last().map(|b| b.end), Some(enc.len()));
        let whole = codec.decompress(&enc).unwrap();
        for (seg, body) in bodies.iter().enumerate() {
            let mut one = enc[..4].to_vec();
            let values = seg * DEFAULT_SEGMENT_VALUES
                ..((seg + 1) * DEFAULT_SEGMENT_VALUES).min(data.len());
            one.extend_from_slice(&(values.len() as u64).to_le_bytes());
            one.extend_from_slice(&enc[body.start - 4..body.end]);
            let part = codec.decompress(&one).unwrap();
            prop_assert!(part
                .iter()
                .zip(&whole[values])
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    // Segments are encoded independently: rewriting the values of one run
    // of segments leaves every other body byte for byte as it was, and the
    // rewritten run decodes inside the bound.
    #[test]
    fn editing_a_run_of_segments_changes_no_other_body(
        data in amplitude_block(),
        bound_exp in 1u32..6,
        pick in (0usize..1000, 0usize..1000),
        scale in 0.25f64..4.0,
    ) {
        let bound = bound_from(bound_exp);
        let eps = 10f64.powi(-(bound_exp as i32));
        let c = SolutionC::default();
        let enc = c.compress(&data, bound).unwrap();
        let bodies = body_ranges(&enc);
        let (a, b) = (pick.0 % bodies.len(), pick.1 % bodies.len());
        let segs = a.min(b)..a.max(b) + 1;
        let lo = segs.start * DEFAULT_SEGMENT_VALUES;
        let hi = (segs.end * DEFAULT_SEGMENT_VALUES).min(data.len());
        let mut edited = data.clone();
        for v in &mut edited[lo..hi] {
            *v *= scale;
        }
        let enc2 = c.compress(&edited, bound).unwrap();
        let bodies2 = body_ranges(&enc2);
        prop_assert_eq!(bodies2.len(), bodies.len());
        for seg in (0..bodies.len()).filter(|s| !segs.contains(s)) {
            prop_assert_eq!(&enc[bodies[seg].clone()], &enc2[bodies2[seg].clone()]);
        }
        let orig = c.decompress(&enc).unwrap();
        let dec = c.decompress(&enc2).unwrap();
        for i in 0..data.len() {
            if (lo..hi).contains(&i) {
                let want = edited[i];
                prop_assert!(
                    (dec[i] - want).abs() <= eps * want.abs(),
                    "edited value {}: {} vs {}", i, dec[i], want
                );
            } else {
                prop_assert!(
                    dec[i].to_bits() == orig[i].to_bits(),
                    "untouched value {} changed", i
                );
            }
        }
    }
}
