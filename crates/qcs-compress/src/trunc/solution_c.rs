//! Solution C: XOR leading-zero reduction + bit-plane truncation + qzstd.

use crate::bitio::bytes;
use crate::codec::{Codec, CodecError};
use crate::error_bound::{mantissa_bits_for_relative, ErrorBound};
use crate::partial::{
    PartialCodec, SegmentEdit, SegmentIndex, DEFAULT_SEGMENT_VALUES, SEG_MAGIC_C,
};
use crate::qzstd;

use super::segmented;

/// Truncate `v` to `m` mantissa bits (toward zero).
///
/// For normal doubles this introduces a relative error strictly below
/// `2^-m`. Zeros pass through unchanged; callers must handle subnormals and
/// non-finite values separately (this crate records them as exceptions).
#[inline]
pub fn truncate_to_mantissa_bits(v: f64, m: u32) -> f64 {
    if m >= 52 {
        return v;
    }
    let mask = !((1u64 << (52 - m)) - 1);
    f64::from_bits(v.to_bits() & mask)
}

/// Exponent field of a double (11 bits).
#[inline]
fn exponent_field(bits: u64) -> u64 {
    (bits >> 52) & 0x7FF
}

/// A value whose truncation would not respect a relative bound
/// (subnormals) or that is non-finite (NaN/Inf). Stored exactly.
#[inline]
fn is_exception(bits: u64) -> bool {
    let e = exponent_field(bits);
    (e == 0 && (bits & 0x000F_FFFF_FFFF_FFFF) != 0) || e == 0x7FF
}

/// Solution C compressor.
#[derive(Debug, Clone)]
pub struct SolutionC {
    /// Lossless backend effort.
    pub backend_level: qzstd::Level,
    /// Values per segment of the segment-addressable stream format
    /// (`None` emits the legacy whole-stream format). Segmented streams
    /// reset the XOR-delta chain and run the lossless backend per
    /// segment, making every segment independently decodable — see
    /// [`crate::partial`].
    pub segment_values: Option<usize>,
}

impl Default for SolutionC {
    fn default() -> Self {
        // The fast (LZ-only) backend: Solution C's whole point is removing
        // the costly entropy stages (§4.2), and the truncated XOR stream
        // carries little entropy-codeable structure anyway.
        Self {
            backend_level: qzstd::Level::Fast,
            segment_values: Some(DEFAULT_SEGMENT_VALUES),
        }
    }
}

const MAGIC: u32 = 0x5143_5343; // "QCSC"

impl SolutionC {
    /// Legacy whole-stream Solution C (shared by tests and benchmarks that
    /// want the un-segmented paper format).
    pub fn whole_stream() -> Self {
        Self {
            segment_values: None,
            ..Self::default()
        }
    }

    pub(crate) fn mantissa_bits(bound: ErrorBound) -> Result<u32, CodecError> {
        match bound {
            ErrorBound::Lossless => Ok(52),
            ErrorBound::PointwiseRelative(eps) => {
                if !(eps > 0.0 && eps < 1.0) {
                    return Err(CodecError::InvalidParam(format!(
                        "pointwise relative bound must be in (0,1), got {eps}"
                    )));
                }
                Ok(mantissa_bits_for_relative(eps))
            }
            ErrorBound::Absolute(_) => Err(CodecError::UnsupportedBound(
                "solution C is defined for pointwise-relative bounds (paper §4.2)",
            )),
        }
    }

    /// Core encoder shared with Solution D, *appending* the stream to
    /// `out`. The intermediate body is staged through recycled per-thread
    /// scratch, so steady-state encoding performs no heap allocation.
    pub(crate) fn encode_stream_into(&self, data: &[f64], m: u32, out: &mut Vec<u8>) {
        let mut body = crate::scratch::take_bytes();
        Self::encode_body(data, m, &mut body);
        qzstd::compress_into(&body, self.backend_level, out);
        crate::scratch::put_bytes(body);
    }

    /// Build the pre-backend body: 2-bit lead codes (packed 4 per byte,
    /// written in place into a region reserved up front), suffix bytes
    /// (appended, length backfilled), and verbatim exceptions.
    fn encode_body(data: &[f64], m: u32, body: &mut Vec<u8>) {
        // Number of significant most-significant bytes per value:
        // sign(1) + exponent(11) + m mantissa bits.
        let sig_bytes = ((12 + m) as usize).div_ceil(8);
        let codes_len = data.len().div_ceil(4);

        bytes::put_u32(body, MAGIC);
        bytes::put_u64(body, data.len() as u64);
        body.push(m as u8);
        bytes::put_u64(body, codes_len as u64);
        let codes_start = body.len();
        // Reserve the packed-code region plus the worst-case suffix
        // (`sig_bytes` per value) up front so the hot loop never grows.
        body.reserve(codes_len + 8 + data.len() * sig_bytes);
        body.resize(codes_start + codes_len, 0);
        let suffix_len_at = body.len();
        bytes::put_u64(body, 0); // suffix length, backfilled below
        let suffix_start = body.len();

        let mut exceptions: Vec<(u64, u64)> = Vec::new();
        let mut prev = 0u64;
        for (i, &v) in data.iter().enumerate() {
            let raw = v.to_bits();
            let t = if m < 52 && is_exception(raw) {
                exceptions.push((i as u64, raw));
                0u64
            } else {
                truncate_to_mantissa_bits(v, m).to_bits()
            };
            let x = t ^ prev;
            prev = t;

            // Leading identical (zero after XOR) most-significant bytes,
            // expressed as the paper's two-bit code: {0, 2, 4, 6} bytes.
            let lead = (x.leading_zeros() / 8) as usize;
            let c = (lead.min(6) / 2) as u8; // 0..=3
            let skip = (c as usize) * 2;
            body[codes_start + i / 4] |= c << ((i % 4) * 2);
            // Emit big-endian bytes skip..sig_bytes of the XOR value.
            for b in skip..sig_bytes {
                body.push((x >> (56 - 8 * b)) as u8);
            }
        }
        let suffix_len = (body.len() - suffix_start) as u64;
        body[suffix_len_at..suffix_len_at + 8].copy_from_slice(&suffix_len.to_le_bytes());

        bytes::put_u64(body, exceptions.len() as u64);
        for (idx, bits) in &exceptions {
            bytes::put_u64(body, *idx);
            bytes::put_u64(body, *bits);
        }
    }

    /// Core decoder shared with Solution D, *appending* the values to
    /// `out`. The decompressed body is staged through recycled per-thread
    /// scratch.
    pub(crate) fn decode_stream_into(
        &self,
        data: &[u8],
        out: &mut Vec<f64>,
    ) -> Result<(), CodecError> {
        let mut body = crate::scratch::take_bytes();
        let res = qzstd::decompress_into(data, &mut body)
            .map_err(|e| CodecError::Corrupt(format!("backend: {e}")))
            .and_then(|()| Self::decode_body(&body, out));
        crate::scratch::put_bytes(body);
        res
    }

    fn decode_body(body: &[u8], out: &mut Vec<f64>) -> Result<(), CodecError> {
        let base = out.len();
        let mut pos = 0usize;
        let magic = bytes::get_u32(body, &mut pos)
            .ok_or_else(|| CodecError::Corrupt("missing magic".into()))?;
        if magic != MAGIC {
            return Err(CodecError::Corrupt("bad magic".into()));
        }
        let n = bytes::get_u64(body, &mut pos)
            .ok_or_else(|| CodecError::Corrupt("missing count".into()))? as usize;
        let m = *body
            .get(pos)
            .ok_or_else(|| CodecError::Corrupt("missing mantissa bits".into()))?
            as u32;
        pos += 1;
        if m > 52 {
            return Err(CodecError::Corrupt(format!("invalid mantissa bits {m}")));
        }
        let sig_bytes = ((12 + m) as usize).div_ceil(8);

        let codes_len = bytes::get_u64(body, &mut pos)
            .ok_or_else(|| CodecError::Corrupt("missing codes len".into()))?
            as usize;
        let codes = body
            .get(pos..pos + codes_len)
            .ok_or_else(|| CodecError::Corrupt("truncated codes".into()))?;
        pos += codes_len;
        let suffix_len = bytes::get_u64(body, &mut pos)
            .ok_or_else(|| CodecError::Corrupt("missing suffix len".into()))?
            as usize;
        let suffix = body
            .get(pos..pos + suffix_len)
            .ok_or_else(|| CodecError::Corrupt("truncated suffix".into()))?;
        pos += suffix_len;

        out.reserve(n);
        let mut prev = 0u64;
        let mut s = 0usize;
        for i in 0..n {
            let c = (codes
                .get(i / 4)
                .ok_or_else(|| CodecError::Corrupt("codes underrun".into()))?
                >> ((i % 4) * 2))
                & 0b11;
            let skip = (c as usize) * 2;
            let mut x = 0u64;
            for b in skip..sig_bytes {
                let byte = *suffix
                    .get(s)
                    .ok_or_else(|| CodecError::Corrupt("suffix underrun".into()))?;
                s += 1;
                x |= (byte as u64) << (56 - 8 * b);
            }
            let t = prev ^ x;
            prev = t;
            out.push(f64::from_bits(t));
        }

        let n_exc = bytes::get_u64(body, &mut pos)
            .ok_or_else(|| CodecError::Corrupt("missing exception count".into()))?
            as usize;
        for _ in 0..n_exc {
            let idx = bytes::get_u64(body, &mut pos)
                .ok_or_else(|| CodecError::Corrupt("truncated exceptions".into()))?
                as usize;
            let bits = bytes::get_u64(body, &mut pos)
                .ok_or_else(|| CodecError::Corrupt("truncated exceptions".into()))?;
            if idx >= n {
                return Err(CodecError::Corrupt("exception index out of range".into()));
            }
            out[base + idx] = f64::from_bits(bits);
        }
        Ok(())
    }
}

impl Codec for SolutionC {
    fn name(&self) -> &'static str {
        "sol_c"
    }

    fn compress_into(
        &self,
        data: &[f64],
        bound: ErrorBound,
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        let m = Self::mantissa_bits(bound)?;
        out.clear();
        match self.segment_values {
            Some(sv) => segmented::compress_into(
                SEG_MAGIC_C,
                data,
                sv,
                |slice, out| self.encode_stream_into(slice, m, out),
                out,
            ),
            None => self.encode_stream_into(data, m, out),
        }
        Ok(())
    }

    fn decompress_into(&self, data: &[u8], out: &mut Vec<f64>) -> Result<(), CodecError> {
        out.clear();
        // Format-driven dispatch: segmented streams carry their own magic;
        // anything else is the legacy whole-stream format.
        if SegmentIndex::parse(data)?.is_some() {
            segmented::decompress_into(data, &|body, out| self.decode_stream_into(body, out), out)
        } else {
            self.decode_stream_into(data, out)
        }
    }

    fn supports(&self, bound: ErrorBound) -> bool {
        !matches!(bound, ErrorBound::Absolute(_))
    }

    fn as_partial(&self) -> Option<&dyn PartialCodec> {
        Some(self)
    }
}

impl PartialCodec for SolutionC {
    fn supports_partial(&self) -> bool {
        self.segment_values.is_some()
    }

    fn segment_values(&self) -> Option<usize> {
        self.segment_values
    }

    fn decompress_segment(
        &self,
        index: &SegmentIndex,
        seg: usize,
        body: &[u8],
        out: &mut Vec<f64>,
    ) -> Result<(), CodecError> {
        segmented::decode_segment(index, seg, body, &|b, o| self.decode_stream_into(b, o), out)
    }

    fn recompress_segments_into(
        &self,
        data: &[u8],
        edits: &[SegmentEdit<'_>],
        bound: ErrorBound,
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        let m = Self::mantissa_bits(bound)?;
        out.clear();
        segmented::splice_into(
            SEG_MAGIC_C,
            data,
            edits,
            |slice, out| {
                self.encode_stream_into(slice, m, out);
                Ok(())
            },
            out,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data(n: usize) -> Vec<f64> {
        // Spiky, sign-alternating small amplitudes like Fig. 9.
        (0..n)
            .map(|i| {
                let x = i as f64;
                (x * 0.817).sin() * (x * 1.313).cos() * 1e-4 * if i % 3 == 0 { -1.0 } else { 1.0 }
            })
            .collect()
    }

    #[test]
    fn lossless_mode_is_bit_exact() {
        let data = sample_data(4096);
        let c = SolutionC::default();
        let enc = c.compress(&data, ErrorBound::Lossless).unwrap();
        let dec = c.decompress(&enc).unwrap();
        assert_eq!(dec.len(), data.len());
        for (a, b) in data.iter().zip(&dec) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn relative_bound_is_respected() {
        let data = sample_data(8192);
        let c = SolutionC::default();
        for eps in [1e-1, 1e-2, 1e-3, 1e-4, 1e-5] {
            let enc = c
                .compress(&data, ErrorBound::PointwiseRelative(eps))
                .unwrap();
            let dec = c.decompress(&enc).unwrap();
            for (a, b) in data.iter().zip(&dec) {
                assert!(
                    (a - b).abs() <= eps * a.abs(),
                    "eps={eps}: |{a} - {b}| = {} > {}",
                    (a - b).abs(),
                    eps * a.abs()
                );
            }
        }
    }

    #[test]
    fn truncation_never_increases_magnitude() {
        // Paper: |D'| must lie in (|D(1-delta)|, |D|].
        let data = sample_data(2048);
        let c = SolutionC::default();
        let enc = c
            .compress(&data, ErrorBound::PointwiseRelative(1e-2))
            .unwrap();
        let dec = c.decompress(&enc).unwrap();
        for (a, b) in data.iter().zip(&dec) {
            assert!(b.abs() <= a.abs());
            assert!(b.abs() > a.abs() * (1.0 - 1e-2) || *a == 0.0);
            assert_eq!(a.signum(), b.signum());
        }
    }

    #[test]
    fn zeros_pass_through_exactly() {
        let mut data = vec![0.0f64; 1000];
        data[500] = 1e-3;
        let c = SolutionC::default();
        let enc = c
            .compress(&data, ErrorBound::PointwiseRelative(1e-1))
            .unwrap();
        let dec = c.decompress(&enc).unwrap();
        assert_eq!(dec[0], 0.0);
        assert_eq!(dec[499], 0.0);
        assert!(dec[500] != 0.0);
    }

    #[test]
    fn subnormals_and_nonfinite_are_exact_via_exceptions() {
        let data = vec![
            f64::MIN_POSITIVE / 4.0, // subnormal
            0.5,
            f64::INFINITY,
            -f64::MIN_POSITIVE / 1024.0,
            f64::NAN,
            1.0,
        ];
        let c = SolutionC::default();
        let enc = c
            .compress(&data, ErrorBound::PointwiseRelative(1e-1))
            .unwrap();
        let dec = c.decompress(&enc).unwrap();
        assert_eq!(dec[0], data[0]);
        assert_eq!(dec[2], f64::INFINITY);
        assert_eq!(dec[3], data[3]);
        assert!(dec[4].is_nan());
    }

    #[test]
    fn coarser_bounds_compress_better() {
        let data = sample_data(16384);
        let c = SolutionC::default();
        let tight = c
            .compress(&data, ErrorBound::PointwiseRelative(1e-5))
            .unwrap()
            .len();
        let loose = c
            .compress(&data, ErrorBound::PointwiseRelative(1e-1))
            .unwrap()
            .len();
        assert!(
            loose < tight,
            "1e-1 ({loose}) should be smaller than 1e-5 ({tight})"
        );
    }

    #[test]
    fn absolute_bound_unsupported() {
        let c = SolutionC::default();
        assert!(matches!(
            c.compress(&[1.0], ErrorBound::Absolute(1e-3)),
            Err(CodecError::UnsupportedBound(_))
        ));
        assert!(!c.supports(ErrorBound::Absolute(1e-3)));
    }

    #[test]
    fn empty_input() {
        let c = SolutionC::default();
        let enc = c
            .compress(&[], ErrorBound::PointwiseRelative(1e-3))
            .unwrap();
        assert!(c.decompress(&enc).unwrap().is_empty());
    }

    #[test]
    fn corrupt_stream_rejected() {
        let c = SolutionC::default();
        let data = sample_data(256);
        let enc = c
            .compress(&data, ErrorBound::PointwiseRelative(1e-3))
            .unwrap();
        let mut bad = enc.clone();
        bad.truncate(bad.len() / 2);
        assert!(c.decompress(&bad).is_err());
    }

    #[test]
    fn segmented_and_whole_stream_decode_identically() {
        let data = sample_data(3000); // 3 segments at 1024, last one short
        let seg = SolutionC::default();
        let whole = SolutionC::whole_stream();
        for bound in [
            ErrorBound::Lossless,
            ErrorBound::PointwiseRelative(1e-2),
            ErrorBound::PointwiseRelative(1e-5),
        ] {
            let es = seg.compress(&data, bound).unwrap();
            let ew = whole.compress(&data, bound).unwrap();
            let ds = seg.decompress(&es).unwrap();
            let dw = whole.decompress(&ew).unwrap();
            assert_eq!(ds.len(), dw.len());
            for (a, b) in ds.iter().zip(&dw) {
                assert_eq!(a.to_bits(), b.to_bits(), "bound {bound:?}");
            }
            // Either configuration decodes the other's stream.
            assert_eq!(whole.decompress(&es).unwrap().len(), data.len());
            assert_eq!(seg.decompress(&ew).unwrap().len(), data.len());
        }
    }

    #[test]
    fn decompress_range_matches_full_decode_sliced() {
        let data = sample_data(2500);
        let c = SolutionC::default();
        let enc = c
            .compress(&data, ErrorBound::PointwiseRelative(1e-4))
            .unwrap();
        let full = c.decompress(&enc).unwrap();
        let index = SegmentIndex::parse(&enc).unwrap().unwrap();
        assert_eq!(index.n_segs(), 3);
        for segs in [0..1usize, 1..2, 0..3, 2..3, 1..3] {
            let mut part = Vec::new();
            c.decompress_range(&enc, segs.clone(), &mut part).unwrap();
            let lo = index.value_range(segs.start).start;
            let hi = index.value_range(segs.end - 1).end;
            assert_eq!(part.len(), hi - lo);
            for (a, b) in part.iter().zip(&full[lo..hi]) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn recompress_range_splices_without_touching_the_rest() {
        let data = sample_data(2048); // exactly 2 segments
        let c = SolutionC::default();
        let bound = ErrorBound::PointwiseRelative(1e-3);
        let enc = c.compress(&data, bound).unwrap();
        let mut seg1: Vec<f64> = data[1024..].to_vec();
        for v in &mut seg1 {
            *v *= 2.0;
        }
        let spliced = c.recompress_range(&enc, 1..2, &seg1, bound).unwrap();
        let dec = c.decompress(&spliced).unwrap();
        let orig = c.decompress(&enc).unwrap();
        // Untouched segment is byte-for-byte the original decode.
        for (a, b) in dec[..1024].iter().zip(&orig[..1024]) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (v, d) in seg1.iter().zip(&dec[1024..]) {
            assert!((v - d).abs() <= 1e-3 * v.abs());
        }
    }

    #[test]
    fn zero_edit_matches_encoding_zeros() {
        let data = sample_data(2048);
        let c = SolutionC::default();
        let bound = ErrorBound::PointwiseRelative(1e-3);
        let enc = c.compress(&data, bound).unwrap();
        let zeroed = c
            .recompress_segments(&enc, &[SegmentEdit::Zero { seg: 0 }], bound)
            .unwrap();
        let dec = c.decompress(&zeroed).unwrap();
        assert!(dec[..1024].iter().all(|v| *v == 0.0));
        let orig = c.decompress(&enc).unwrap();
        for (a, b) in dec[1024..].iter().zip(&orig[1024..]) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn corrupt_segment_body_rejected() {
        let data = sample_data(2048);
        let c = SolutionC::default();
        let enc = c
            .compress(&data, ErrorBound::PointwiseRelative(1e-3))
            .unwrap();
        let index = SegmentIndex::parse(&enc).unwrap().unwrap();
        let mut bad = enc.clone();
        let mid = index.byte_range(1).start + index.byte_range(1).len() / 2;
        bad[mid] ^= 0x10;
        // Whole decode and the partial path both catch the bad checksum.
        assert!(c.decompress(&bad).is_err());
        let mut out = Vec::new();
        assert!(c.decompress_range(&bad, 1..2, &mut out).is_err());
        // The untouched segment still partially decodes.
        out.clear();
        assert!(c.decompress_range(&bad, 0..1, &mut out).is_ok());
    }
}
