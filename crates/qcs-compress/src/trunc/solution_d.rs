//! Solution D: reshuffle (separate real/imaginary streams) + Solution C.

use crate::bitio::bytes;
use crate::codec::{Codec, CodecError};
use crate::error_bound::ErrorBound;
use crate::partial::{PartialCodec, SegmentEdit, SegmentIndex, SEG_MAGIC_D};
use crate::qzstd;

use super::{segmented, SolutionC};

/// Solution D compressor.
///
/// Input is interpreted as interleaved complex data (even indices = real
/// parts, odd indices = imaginary parts), reorganized into two contiguous
/// streams before the Solution C pipeline runs on each. The paper notes this
/// may help the dictionary stage find repeated patterns when the real and
/// imaginary parts occupy different value ranges, at the cost of the extra
/// shuffle pass. Odd-length inputs keep their trailing element in the even
/// stream.
#[derive(Debug, Clone, Default)]
pub struct SolutionD {
    inner: SolutionC,
}

impl SolutionD {
    /// Use a specific lossless backend effort for both streams.
    pub fn with_backend(level: qzstd::Level) -> Self {
        Self {
            inner: SolutionC {
                backend_level: level,
                ..SolutionC::default()
            },
        }
    }

    /// Legacy whole-stream Solution D (the un-segmented paper format).
    pub fn whole_stream() -> Self {
        Self {
            inner: SolutionC::whole_stream(),
        }
    }

    /// Encode one run of values as a legacy D body — even/odd reshuffle,
    /// then a Solution C stream per half — *appending* it to `out`. Used
    /// whole-stream and as the per-segment body encoder of the segmented
    /// format. The half streams are encoded straight onto the tail of
    /// `out` (their length words backfilled), with the shuffled halves
    /// staged through recycled per-thread scratch.
    fn encode_shuffled_into(&self, data: &[f64], m: u32, out: &mut Vec<u8>) {
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
            self.inner.encode_stream_into(half, m, out);
            let len = (out.len() - start) as u64;
            out[len_at..len_at + 8].copy_from_slice(&len.to_le_bytes());
        }
        crate::scratch::put_f64s(odd);
        crate::scratch::put_f64s(even);
    }

    /// Decode a stream of either layout into `out` (cleared first);
    /// `expect` as in [`segmented::decompress_into`].
    fn decode_any_into(
        &self,
        data: &[u8],
        expect: Option<usize>,
        out: &mut Vec<f64>,
    ) -> Result<(), CodecError> {
        out.clear();
        segmented::decompress_into(
            data,
            expect,
            &|body, n, out| self.decode_shuffled_into(body, Some(n), out),
            |data, expect, out| self.decode_shuffled_into(data, expect, out),
            out,
        )
    }

    /// Decode one legacy D body (the inverse of
    /// [`Self::encode_shuffled_into`]), *appending* the values to `out`.
    /// `expect` is the value count an index promises, when there is one.
    /// The half streams are staged through recycled per-thread scratch
    /// before interleaving.
    fn decode_shuffled_into(
        &self,
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
        let res = self
            .inner
            .decode_stream_into(e_bytes, expect.map(|n| n.div_ceil(2)), &mut even)
            .and_then(|()| {
                self.inner
                    .decode_stream_into(o_bytes, expect.map(|n| n / 2), &mut odd)
            })
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
        match self.inner.segment_values {
            Some(sv) => segmented::compress_into(
                SEG_MAGIC_D,
                data,
                sv,
                |slice, out| self.encode_shuffled_into(slice, m, out),
                out,
            ),
            None => self.encode_shuffled_into(data, m, out),
        }
        Ok(())
    }

    fn decompress_into(&self, data: &[u8], out: &mut Vec<f64>) -> Result<(), CodecError> {
        self.decode_any_into(data, None, out)
    }

    fn decompress_capped_into(
        &self,
        data: &[u8],
        max_values: usize,
        out: &mut Vec<f64>,
    ) -> Result<(), CodecError> {
        self.decode_any_into(data, Some(max_values), out)
    }

    fn supports(&self, bound: ErrorBound) -> bool {
        self.inner.supports(bound)
    }

    fn as_partial(&self) -> Option<&dyn PartialCodec> {
        Some(self)
    }
}

impl PartialCodec for SolutionD {
    fn supports_partial(&self) -> bool {
        self.inner.segment_values.is_some()
    }

    fn segment_values(&self) -> Option<usize> {
        self.inner.segment_values
    }

    fn decompress_segment(
        &self,
        index: &SegmentIndex,
        seg: usize,
        body: &[u8],
        out: &mut Vec<f64>,
    ) -> Result<(), CodecError> {
        segmented::decode_segment(
            index,
            seg,
            body,
            &|b, n, o| self.decode_shuffled_into(b, Some(n), o),
            out,
        )
    }

    fn recompress_segments_into(
        &self,
        data: &[u8],
        edits: &[SegmentEdit<'_>],
        bound: ErrorBound,
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        let m = SolutionC::mantissa_bits(bound)?;
        out.clear();
        segmented::splice_into(
            SEG_MAGIC_D,
            data,
            edits,
            |slice, out| {
                self.encode_shuffled_into(slice, m, out);
                Ok(())
            },
            out,
        )
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

    #[test]
    fn decompress_range_matches_full_decode_sliced() {
        use crate::partial::{PartialCodec, SegmentIndex};
        let data = complex_like(2500);
        let d = SolutionD::default();
        let enc = d
            .compress(&data, ErrorBound::PointwiseRelative(1e-4))
            .unwrap();
        let full = d.decompress(&enc).unwrap();
        let index = SegmentIndex::parse(&enc).unwrap().unwrap();
        for segs in [0..1usize, 1..3, 2..3] {
            let mut part = Vec::new();
            d.decompress_range(&enc, segs.clone(), &mut part).unwrap();
            let lo = index.value_range(segs.start).start;
            let hi = index.value_range(segs.end - 1).end;
            for (a, b) in part.iter().zip(&full[lo..hi]) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
