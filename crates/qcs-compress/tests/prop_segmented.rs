//! Property suite for the segmented Solution C/D formats: a segmented
//! stream must decode to exactly the values the legacy whole-stream format
//! produces at the same bound, its index must describe the whole stream,
//! and a segment's body must depend on that segment's values alone.

use proptest::prelude::*;
use qcs_compress::checksum::checksum64;
use qcs_compress::trunc::{SolutionC, SolutionD};
use qcs_compress::{segmented_prefix_len, Codec, ErrorBound, SegmentIndex, DEFAULT_SEGMENT_VALUES};

/// Random amplitude blocks spanning many decades, with zero stretches.
fn amplitude_block() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        prop_oneof![
            4 => (-1.0f64..1.0).prop_map(|v| v * 1e-2),
            3 => (-1.0f64..1.0).prop_map(|v| v * 1e-6),
            2 => Just(0.0f64),
            1 => -1.0f64..1.0,
        ],
        1..800,
    )
}

fn bound_from(exp: u32) -> ErrorBound {
    if exp == 0 {
        ErrorBound::Lossless
    } else {
        ErrorBound::PointwiseRelative(10f64.powi(-(exp as i32)))
    }
}

fn segmented_c(seg_values: usize) -> SolutionC {
    SolutionC {
        segment_values: Some(seg_values),
        ..SolutionC::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // The segmented format is a pure re-framing: at every bound, decoding
    // a segmented stream yields bit-for-bit the values of the legacy
    // whole-stream format, for both Solution C and Solution D, at any
    // segment size.
    #[test]
    fn segmented_matches_whole_stream_bitwise(
        data in amplitude_block(),
        seg_values in 1usize..200,
        bound_exp in 0u32..6,
    ) {
        let bound = bound_from(bound_exp);
        let seg_c = segmented_c(seg_values);
        let whole_c = SolutionC::whole_stream();
        let ds = seg_c.decompress(&seg_c.compress(&data, bound).unwrap()).unwrap();
        let dw = whole_c.decompress(&whole_c.compress(&data, bound).unwrap()).unwrap();
        prop_assert_eq!(ds.len(), dw.len());
        for (a, b) in ds.iter().zip(&dw) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }

        let d = SolutionD::default();
        let wd = SolutionD::whole_stream();
        let ds = d.decompress(&d.compress(&data, bound).unwrap()).unwrap();
        let dw = wd.decompress(&wd.compress(&data, bound).unwrap()).unwrap();
        prop_assert_eq!(ds.len(), dw.len());
        for (a, b) in ds.iter().zip(&dw) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    // The index describes the whole stream: the bodies run back to back
    // from the end of the prefix to the last byte, each under its own
    // checksum, and their value ranges tile the input.
    #[test]
    fn index_describes_the_whole_stream(
        data in amplitude_block(),
        seg_values in 1usize..200,
        bound_exp in 0u32..6,
    ) {
        let bound = bound_from(bound_exp);
        let codecs: [(&dyn Codec, usize); 2] = [
            (&segmented_c(seg_values), seg_values),
            (&SolutionD::default(), DEFAULT_SEGMENT_VALUES),
        ];
        for (codec, seg_values) in codecs {
            let enc = codec.compress(&data, bound).unwrap();
            let index = SegmentIndex::parse(&enc).unwrap().unwrap();
            prop_assert_eq!((index.n_values, index.seg_values), (data.len(), seg_values));
            prop_assert_eq!(segmented_prefix_len(&enc), Some(index.prefix_len()));
            let (mut next_value, mut next_byte) = (0, index.prefix_len());
            for seg in 0..index.n_segs() {
                let (values, bytes) = (index.value_range(seg), index.byte_range(seg));
                prop_assert_eq!((values.start, bytes.start), (next_value, next_byte));
                prop_assert!(!values.is_empty());
                prop_assert_eq!(checksum64(&enc[bytes.clone()]), index.entry(seg).checksum);
                (next_value, next_byte) = (values.end, bytes.end);
            }
            prop_assert_eq!((next_value, next_byte), (data.len(), enc.len()));
        }
    }

    // Segments are encoded independently: rewriting the values of one run
    // of segments leaves every other body byte for byte as it was, and the
    // rewritten run decodes inside the bound.
    #[test]
    fn editing_a_run_of_segments_changes_no_other_body(
        data in amplitude_block(),
        seg_values in 1usize..200,
        bound_exp in 1u32..6,
        pick in (0usize..1000, 0usize..1000),
        scale in 0.25f64..4.0,
    ) {
        let bound = bound_from(bound_exp);
        let eps = 10f64.powi(-(bound_exp as i32));
        let c = segmented_c(seg_values);
        let enc = c.compress(&data, bound).unwrap();
        let index = SegmentIndex::parse(&enc).unwrap().unwrap();
        let (a, b) = (pick.0 % index.n_segs(), pick.1 % index.n_segs());
        let segs = a.min(b)..a.max(b) + 1;
        let lo = index.value_range(segs.start).start;
        let hi = index.value_range(segs.end - 1).end;
        let mut edited = data.clone();
        for v in &mut edited[lo..hi] {
            *v *= scale;
        }
        let enc2 = c.compress(&edited, bound).unwrap();
        let index2 = SegmentIndex::parse(&enc2).unwrap().unwrap();
        prop_assert_eq!(index2.n_segs(), index.n_segs());
        for seg in (0..index.n_segs()).filter(|s| !segs.contains(s)) {
            prop_assert_eq!(&enc[index.byte_range(seg)], &enc2[index2.byte_range(seg)]);
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
