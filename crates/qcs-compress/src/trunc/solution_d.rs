//! Solution D: reshuffle (separate real/imaginary streams) + Solution C.

use crate::bitio::bytes;
use crate::codec::{Codec, CodecError};
use crate::error_bound::ErrorBound;

use super::segmented::{self, MAGIC_D};
use super::SolutionC;

/// Solution D compressor.
///
/// Input is interpreted as interleaved complex data (even indices = real
/// parts, odd indices = imaginary parts), reorganized into two contiguous
/// streams before the Solution C pipeline runs on each. The paper notes this
/// may help the dictionary stage find repeated patterns when the real and
/// imaginary parts occupy different value ranges, at the cost of the extra
/// shuffle pass. Odd-length inputs keep their trailing element in the even
/// stream. The default writes the segmented format (see
/// [`crate::trunc`]); [`SolutionD::whole_stream`] writes the legacy
/// whole-stream format. Either decodes both.
#[derive(Debug, Clone, Default)]
pub struct SolutionD {
    whole: bool,
}

impl SolutionD {
    /// Legacy whole-stream Solution D (the un-segmented paper format).
    pub fn whole_stream() -> Self {
        Self { whole: true }
    }

    /// Encode one run of values as a legacy D body — even/odd reshuffle,
    /// then a Solution C stream per half — *appending* it to `out`. Used
    /// whole-stream and as the per-segment body encoder of the segmented
    /// format. The half streams are encoded straight onto the tail of
    /// `out` (their length words backfilled), with the shuffled halves
    /// staged through recycled per-thread scratch.
    fn encode_shuffled_into(data: &[f64], m: u32, out: &mut Vec<u8>) {
        let mut even = crate::scratch::take_f64s();
        let mut odd = crate::scratch::take_f64s();
        even.reserve(data.len().div_ceil(2));
        odd.reserve(data.len() / 2);
        for (i, &v) in data.iter().enumerate() {
            if i % 2 == 0 {
                even.push(v);
            } else {
                odd.push(v);
            }
        }
        bytes::put_u32(out, MAGIC);
        for half in [&even, &odd] {
            let len_at = out.len();
            bytes::put_u64(out, 0); // stream length, backfilled below
            let start = out.len();
            SolutionC::encode_stream_into(half, m, out);
            let len = (out.len() - start) as u64;
            out[len_at..len_at + 8].copy_from_slice(&len.to_le_bytes());
        }
        crate::scratch::put_f64s(odd);
        crate::scratch::put_f64s(even);
    }

    /// Decode a stream of either layout into `out` (cleared first);
    /// `expect` as in [`segmented::decompress_into`].
    fn decode_any_into(
        data: &[u8],
        expect: Option<usize>,
        out: &mut Vec<f64>,
    ) -> Result<(), CodecError> {
        out.clear();
        segmented::decompress_into(
            MAGIC_D,
            data,
            expect,
            &|body, n, out| Self::decode_shuffled_into(body, Some(n), out),
            Self::decode_shuffled_into,
            out,
        )
    }

    /// Decode one legacy D body (the inverse of
    /// [`Self::encode_shuffled_into`]), *appending* the values to `out`.
    /// `expect` is the value count the container promises, when there is
    /// one. The half streams are staged through recycled per-thread
    /// scratch before interleaving.
    fn decode_shuffled_into(
        data: &[u8],
        expect: Option<usize>,
        out: &mut Vec<f64>,
    ) -> Result<(), CodecError> {
        let mut pos = 0usize;
        let magic = bytes::get_u32(data, &mut pos)
            .ok_or_else(|| CodecError::Corrupt("missing magic".into()))?;
        if magic != MAGIC {
            return Err(CodecError::Corrupt("bad magic".into()));
        }
        let e_len = bytes::get_u64(data, &mut pos)
            .ok_or_else(|| CodecError::Corrupt("missing even length".into()))?
            as usize;
        let e_bytes = data
            .get(pos..pos.saturating_add(e_len))
            .ok_or_else(|| CodecError::Corrupt("truncated even stream".into()))?;
        pos += e_len;
        let o_len = bytes::get_u64(data, &mut pos)
            .ok_or_else(|| CodecError::Corrupt("missing odd length".into()))?
            as usize;
        let o_bytes = data
            .get(pos..pos.saturating_add(o_len))
            .ok_or_else(|| CodecError::Corrupt("truncated odd stream".into()))?;

        let mut even = crate::scratch::take_f64s();
        let mut odd = crate::scratch::take_f64s();
        let res = SolutionC::decode_stream_into(e_bytes, expect.map(|n| n.div_ceil(2)), &mut even)
            .and_then(|()| SolutionC::decode_stream_into(o_bytes, expect.map(|n| n / 2), &mut odd))
            .and_then(|()| {
                if even.len() < odd.len() || even.len() > odd.len() + 1 {
                    return Err(CodecError::Corrupt(format!(
                        "inconsistent stream lengths: {} even, {} odd",
                        even.len(),
                        odd.len()
                    )));
                }
                out.reserve(even.len() + odd.len());
                for i in 0..even.len() {
                    out.push(even[i]);
                    if i < odd.len() {
                        out.push(odd[i]);
                    }
                }
                Ok(())
            });
        crate::scratch::put_f64s(odd);
        crate::scratch::put_f64s(even);
        res
    }
}

const MAGIC: u32 = 0x5143_5344; // "QCSD"

impl Codec for SolutionD {
    fn name(&self) -> &'static str {
        "sol_d"
    }

    fn compress_into(
        &self,
        data: &[f64],
        bound: ErrorBound,
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        let m = SolutionC::mantissa_bits(bound)?;
        out.clear();
        if self.whole {
            Self::encode_shuffled_into(data, m, out);
        } else {
            segmented::compress_into(
                MAGIC_D,
                data,
                |slice, out| Self::encode_shuffled_into(slice, m, out),
                out,
            );
        }
        Ok(())
    }

    fn decompress_into(&self, data: &[u8], out: &mut Vec<f64>) -> Result<(), CodecError> {
        Self::decode_any_into(data, None, out)
    }

    fn decompress_capped_into(
        &self,
        data: &[u8],
        max_values: usize,
        out: &mut Vec<f64>,
    ) -> Result<(), CodecError> {
        Self::decode_any_into(data, Some(max_values), out)
    }

    fn supports(&self, bound: ErrorBound) -> bool {
        !matches!(bound, ErrorBound::Absolute(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trunc::SolutionC;

    fn complex_like(n: usize) -> Vec<f64> {
        // Real parts around 1e-3, imaginary parts around 1e-6: the
        // non-overlapping ranges the reshuffle step is designed for.
        (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    ((i as f64) * 0.37).sin() * 1e-3
                } else {
                    ((i as f64) * 0.91).cos() * 1e-6
                }
            })
            .collect()
    }

    #[test]
    fn round_trip_lossless() {
        let data = complex_like(4096);
        let d = SolutionD::default();
        let enc = d.compress(&data, ErrorBound::Lossless).unwrap();
        let dec = d.decompress(&enc).unwrap();
        for (a, b) in data.iter().zip(&dec) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn relative_bound_respected() {
        let data = complex_like(4096);
        let d = SolutionD::default();
        for eps in [1e-1, 1e-3, 1e-5] {
            let enc = d
                .compress(&data, ErrorBound::PointwiseRelative(eps))
                .unwrap();
            let dec = d.decompress(&enc).unwrap();
            for (a, b) in data.iter().zip(&dec) {
                assert!((a - b).abs() <= eps * a.abs());
            }
        }
    }

    #[test]
    fn odd_length_input() {
        let data = complex_like(1001);
        let d = SolutionD::default();
        let enc = d.compress(&data, ErrorBound::Lossless).unwrap();
        let dec = d.decompress(&enc).unwrap();
        assert_eq!(dec.len(), 1001);
        assert_eq!(dec[1000].to_bits(), data[1000].to_bits());
    }

    #[test]
    fn empty_input() {
        let d = SolutionD::default();
        let enc = d.compress(&[], ErrorBound::Lossless).unwrap();
        assert!(d.decompress(&enc).unwrap().is_empty());
    }

    #[test]
    fn same_errors_as_solution_c() {
        // Paper Fig. 12: C and D curves overlap exactly because the shuffle
        // does not change per-value truncation.
        let data = complex_like(2048);
        let c = SolutionC::default();
        let d = SolutionD::default();
        let eps = 1e-3;
        let dc = c
            .decompress(
                &c.compress(&data, ErrorBound::PointwiseRelative(eps))
                    .unwrap(),
            )
            .unwrap();
        let dd = d
            .decompress(
                &d.compress(&data, ErrorBound::PointwiseRelative(eps))
                    .unwrap(),
            )
            .unwrap();
        for (a, b) in dc.iter().zip(&dd) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn corrupt_stream_rejected() {
        let d = SolutionD::default();
        let enc = d.compress(&complex_like(64), ErrorBound::Lossless).unwrap();
        assert!(d.decompress(&enc[..enc.len() / 3]).is_err());
        let mut bad = enc.clone();
        bad[0] ^= 0xFF;
        assert!(d.decompress(&bad).is_err());
    }

    #[test]
    fn a_segment_body_depends_only_on_its_own_values() {
        use crate::trunc::segmented::body_ranges;
        let data = complex_like(2500); // 3 segments, the last one short
        let d = SolutionD::default();
        let bound = ErrorBound::PointwiseRelative(1e-4);
        let enc = d.compress(&data, bound).unwrap();
        let mut edited = data.clone();
        for v in &mut edited[1024..2048] {
            *v = -*v;
        }
        let enc2 = d.compress(&edited, bound).unwrap();
        let (a, b) = (body_ranges(&enc), body_ranges(&enc2));
        assert_eq!((a.len(), b.len()), (3, 3));
        for seg in [0, 2] {
            assert_eq!(&enc[a[seg].clone()], &enc2[b[seg].clone()], "{seg}");
        }
        assert_ne!(&enc[a[1].clone()], &enc2[b[1].clone()]);
        let orig = d.decompress(&enc).unwrap();
        let dec = d.decompress(&enc2).unwrap();
        for (i, (x, y)) in orig.iter().zip(&dec).enumerate() {
            if (1024..2048).contains(&i) {
                assert_eq!(x.to_bits(), (-*y).to_bits(), "value {i}");
            } else {
                assert_eq!(x.to_bits(), y.to_bits(), "value {i}");
            }
        }
    }

    #[test]
    fn segmented_and_whole_stream_decode_identically() {
        let data = complex_like(3000);
        let seg = SolutionD::default();
        let whole = SolutionD::whole_stream();
        for bound in [ErrorBound::Lossless, ErrorBound::PointwiseRelative(1e-4)] {
            let ds = seg
                .decompress(&seg.compress(&data, bound).unwrap())
                .unwrap();
            let dw = whole
                .decompress(&whole.compress(&data, bound).unwrap())
                .unwrap();
            assert_eq!(ds.len(), dw.len());
            for (a, b) in ds.iter().zip(&dw) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
