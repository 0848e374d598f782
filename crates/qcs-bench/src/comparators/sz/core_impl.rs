//! Core SZ pipeline shared by Solutions A and B.

use qcs_compress::bitio::bytes;
use qcs_compress::{huffman, qzstd, Codec, CodecError, ErrorBound};

/// Default quantization bin count (SZ 2.1 default).
pub const DEFAULT_BINS: u32 = 65_536;
/// Reduced bin count used by Solution B for faster coding (§4.2).
pub const SOLUTION_B_BINS: u32 = 16_384;

const MAGIC: u32 = 0x5143_535A; // "QCSZ"
const MODE_ABS: u8 = 0;
const MODE_REL: u8 = 1;

/// Configurable SZ-style compressor core.
#[derive(Debug, Clone)]
pub struct SzCore {
    bins: u32,
    /// Prediction stride: 1 = flat 1D Lorenzo, 2 = split real/imaginary.
    stride: usize,
}

impl SzCore {
    /// Create a core with `bins` quantization bins and prediction `stride`.
    pub fn new(bins: u32, stride: usize) -> Self {
        assert!(bins >= 4 && stride >= 1);
        Self { bins, stride }
    }
}

/// The core is itself a [`Codec`] (absolute and pointwise-relative bounds
/// only); Solutions A and B are this codec at their two parameter sets.
impl Codec for SzCore {
    fn name(&self) -> &'static str {
        "sz"
    }

    fn compress_into(
        &self,
        data: &[f64],
        bound: ErrorBound,
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        out.clear();
        match bound {
            ErrorBound::Absolute(e) if e > 0.0 => {
                bytes::put_u32(out, MAGIC);
                out.push(MODE_ABS);
                bytes::put_f64(out, e);
                self.compress_abs_into(data, e, out);
                Ok(())
            }
            ErrorBound::PointwiseRelative(eps) if eps > 0.0 && eps < 1.0 => {
                bytes::put_u32(out, MAGIC);
                out.push(MODE_REL);
                bytes::put_f64(out, eps);
                self.compress_rel_into(data, eps, out);
                Ok(())
            }
            ErrorBound::Lossless => Err(CodecError::UnsupportedBound(
                "SZ-style codecs are inherently lossy; use qzstd for lossless",
            )),
            _ => Err(CodecError::InvalidParam(format!(
                "invalid bound for SZ: {bound}"
            ))),
        }
    }

    fn decompress_into(&self, data: &[u8], out: &mut Vec<f64>) -> Result<(), CodecError> {
        out.clear();
        let mut pos = 0usize;
        let magic = bytes::get_u32(data, &mut pos)
            .ok_or_else(|| CodecError::Corrupt("missing magic".into()))?;
        if magic != MAGIC {
            return Err(CodecError::Corrupt("bad magic".into()));
        }
        let mode = *data
            .get(pos)
            .ok_or_else(|| CodecError::Corrupt("missing mode".into()))?;
        pos += 1;
        let bound = bytes::get_f64(data, &mut pos)
            .ok_or_else(|| CodecError::Corrupt("missing bound".into()))?;
        let payload = &data[pos..];
        match mode {
            MODE_ABS => self.decompress_abs_into(payload, bound, out),
            MODE_REL => self.decompress_rel_into(payload, out),
            _ => Err(CodecError::Corrupt("unknown mode".into())),
        }
    }

    fn supports(&self, bound: ErrorBound) -> bool {
        bound.is_lossy()
    }
}

impl SzCore {
    // --- absolute-bound core (prediction + quantization + huffman + qzstd) ---

    /// Append the qzstd-compressed absolute-mode stream for `data` to `out`.
    fn compress_abs_into(&self, data: &[f64], e: f64, out: &mut Vec<u8>) {
        let mut body = Vec::new();
        self.abs_body_into(data, e, &mut body);
        qzstd::compress_into(&body, qzstd::Level::Fast, out);
    }

    /// Build the pre-backend absolute-mode body: value count, Huffman-coded
    /// quantization symbols (length backfilled once encoded), verbatim
    /// outliers.
    fn abs_body_into(&self, data: &[f64], e: f64, body: &mut Vec<u8>) {
        let half = (self.bins / 2) as i64;
        let unpredictable_code = self.bins; // reserved symbol
        let mut codes = Vec::new();
        let mut outliers = Vec::new();
        // Previous decompressed value per prediction chain. Chain `i % stride`
        // is first touched at index `i < stride`, so `i >= stride` is exactly
        // "this chain has a previous value".
        let mut prev = vec![0.0; self.stride];
        codes.reserve(data.len());
        let two_e = 2.0 * e;
        for (i, &v) in data.iter().enumerate() {
            let chain = i % self.stride;
            let pred = if i >= self.stride { prev[chain] } else { 0.0 };
            let diff = v - pred;
            let qf = (diff / two_e).round();
            let (code, decomp) = if qf.abs() < half as f64 && qf.is_finite() {
                let q = qf as i64;
                let d = pred + q as f64 * two_e;
                // Guard against floating-point drift past the bound.
                if (v - d).abs() <= e {
                    ((q + half) as u32, d)
                } else {
                    (unpredictable_code, v)
                }
            } else {
                (unpredictable_code, v)
            };
            if code == unpredictable_code {
                outliers.extend_from_slice(&v.to_le_bytes());
            }
            codes.push(code);
            prev[chain] = decomp;
        }

        bytes::put_u64(body, data.len() as u64);
        let huff_len_at = body.len();
        bytes::put_u64(body, 0); // huffman length, backfilled below
        let huff_start = body.len();
        huffman::encode_into(&codes, self.bins + 1, body).expect("codes within alphabet");
        let huff_len = (body.len() - huff_start) as u64;
        body[huff_len_at..huff_len_at + 8].copy_from_slice(&huff_len.to_le_bytes());
        bytes::put_u64(body, outliers.len() as u64);
        body.extend_from_slice(&outliers);
    }

    /// Decode one absolute-mode stream, *appending* the values to `out`.
    fn decompress_abs_into(
        &self,
        payload: &[u8],
        e: f64,
        out: &mut Vec<f64>,
    ) -> Result<(), CodecError> {
        let mut body = Vec::new();
        let mut codes = Vec::new();
        qzstd::decompress_into(payload, &mut body)
            .map_err(|err| CodecError::Corrupt(format!("backend: {err}")))
            .and_then(|()| self.decode_abs_body(&body, e, &mut codes, out))
    }

    fn decode_abs_body(
        &self,
        body: &[u8],
        e: f64,
        codes: &mut Vec<u32>,
        out: &mut Vec<f64>,
    ) -> Result<(), CodecError> {
        let mut pos = 0usize;
        let n = bytes::get_u64(body, &mut pos)
            .ok_or_else(|| CodecError::Corrupt("missing count".into()))? as usize;
        let huff_len = bytes::get_u64(body, &mut pos)
            .ok_or_else(|| CodecError::Corrupt("missing huffman length".into()))?
            as usize;
        let huff = body
            .get(pos..pos + huff_len)
            .ok_or_else(|| CodecError::Corrupt("truncated huffman stream".into()))?;
        pos += huff_len;
        huffman::decode_into(huff, codes)
            .map_err(|err| CodecError::Corrupt(format!("huffman: {err}")))?;
        if codes.len() != n {
            return Err(CodecError::Corrupt("code count mismatch".into()));
        }
        let out_len = bytes::get_u64(body, &mut pos)
            .ok_or_else(|| CodecError::Corrupt("missing outlier length".into()))?
            as usize;
        let outliers = body
            .get(pos..pos + out_len)
            .ok_or_else(|| CodecError::Corrupt("truncated outliers".into()))?;

        let half = (self.bins / 2) as i64;
        let two_e = 2.0 * e;
        out.reserve(n);
        let mut prev = vec![0.0; self.stride];
        let mut opos = 0usize;
        let mut res = Ok(());
        for (i, &code) in codes.iter().enumerate() {
            let chain = i % self.stride;
            let pred = if i >= self.stride { prev[chain] } else { 0.0 };
            let v = if code == self.bins {
                match outliers.get(opos..opos + 8) {
                    Some(raw) => {
                        opos += 8;
                        f64::from_le_bytes(raw.try_into().unwrap())
                    }
                    None => {
                        res = Err(CodecError::Corrupt("outlier underrun".into()));
                        break;
                    }
                }
            } else if code < self.bins {
                let q = code as i64 - half;
                pred + q as f64 * two_e
            } else {
                res = Err(CodecError::Corrupt("quant code out of range".into()));
                break;
            };
            out.push(v);
            prev[chain] = v;
        }
        res
    }

    // --- pointwise-relative core via logarithmic transform ---

    /// Append the qzstd-compressed relative-mode stream for `data` to `out`.
    fn compress_rel_into(&self, data: &[f64], eps: f64, out: &mut Vec<u8>) {
        let mut body = Vec::new();
        self.rel_body_into(data, eps, &mut body);
        // Signs/zeros bitmaps are already dense; one fast lossless pass.
        qzstd::compress_into(&body, qzstd::Level::Fast, out);
    }

    /// Build the pre-backend relative-mode body: sign/zero bitmaps filled in
    /// place inside the body, verbatim non-finite exceptions, then the
    /// log-space absolute stream (length backfilled once encoded).
    fn rel_body_into(&self, data: &[f64], eps: f64, body: &mut Vec<u8>) {
        // Absolute bound in log space; the 0.98 margin absorbs the <=2 ulp
        // rounding of ln/exp so the decoded value never exceeds eps.
        let log_bound = (1.0 + eps).ln() * 0.98;
        let bitmap_len = data.len().div_ceil(8);
        bytes::put_u64(body, data.len() as u64);
        bytes::put_f64(body, log_bound);
        let signs_start = body.len();
        let zeros_start = signs_start + bitmap_len;
        body.resize(zeros_start + bitmap_len, 0);
        let mut exceptions: Vec<(u64, u64)> = Vec::new();
        let mut logs = Vec::with_capacity(data.len());
        for (i, &v) in data.iter().enumerate() {
            if v == 0.0 {
                body[zeros_start + i / 8] |= 1 << (i % 8);
                continue;
            }
            if !v.is_finite() {
                exceptions.push((i as u64, v.to_bits()));
                body[zeros_start + i / 8] |= 1 << (i % 8); // placeholder slot
                continue;
            }
            if v.is_sign_negative() {
                body[signs_start + i / 8] |= 1 << (i % 8);
            }
            logs.push(v.abs().ln());
        }
        bytes::put_u64(body, exceptions.len() as u64);
        for (idx, bits) in &exceptions {
            bytes::put_u64(body, *idx);
            bytes::put_u64(body, *bits);
        }
        let inner_len_at = body.len();
        bytes::put_u64(body, 0); // inner stream length, backfilled below
        let inner_start = body.len();
        self.compress_abs_into(&logs, log_bound, body);
        let inner_len = (body.len() - inner_start) as u64;
        body[inner_len_at..inner_len_at + 8].copy_from_slice(&inner_len.to_le_bytes());
    }

    /// Decode one relative-mode stream, *appending* the values to `out`.
    fn decompress_rel_into(&self, payload: &[u8], out: &mut Vec<f64>) -> Result<(), CodecError> {
        let mut body = Vec::new();
        qzstd::decompress_into(payload, &mut body)
            .map_err(|err| CodecError::Corrupt(format!("backend: {err}")))
            .and_then(|()| self.decode_rel_body(&body, out))
    }

    fn decode_rel_body(&self, body: &[u8], out: &mut Vec<f64>) -> Result<(), CodecError> {
        let base = out.len();
        let mut pos = 0usize;
        let n = bytes::get_u64(body, &mut pos)
            .ok_or_else(|| CodecError::Corrupt("missing count".into()))? as usize;
        let log_bound = bytes::get_f64(body, &mut pos)
            .ok_or_else(|| CodecError::Corrupt("missing log bound".into()))?;
        let bitmap_len = n.div_ceil(8);
        let signs = body
            .get(pos..pos + bitmap_len)
            .ok_or_else(|| CodecError::Corrupt("truncated signs".into()))?;
        pos += bitmap_len;
        let zeros = body
            .get(pos..pos + bitmap_len)
            .ok_or_else(|| CodecError::Corrupt("truncated zeros".into()))?;
        pos += bitmap_len;
        let n_exc = bytes::get_u64(body, &mut pos)
            .ok_or_else(|| CodecError::Corrupt("missing exceptions".into()))?
            as usize;
        // Validate the exception region up front; it is re-walked to patch
        // the output once the regular values are in place.
        let exc_start = pos;
        for _ in 0..n_exc {
            bytes::get_u64(body, &mut pos)
                .ok_or_else(|| CodecError::Corrupt("truncated exceptions".into()))?;
            bytes::get_u64(body, &mut pos)
                .ok_or_else(|| CodecError::Corrupt("truncated exceptions".into()))?;
        }
        let inner_len = bytes::get_u64(body, &mut pos)
            .ok_or_else(|| CodecError::Corrupt("missing inner length".into()))?
            as usize;
        let inner = body
            .get(pos..pos + inner_len)
            .ok_or_else(|| CodecError::Corrupt("truncated inner stream".into()))?;

        let mut logs = Vec::new();
        self.decompress_abs_into(inner, log_bound, &mut logs)
            .and_then(|()| {
                out.reserve(n);
                let mut li = 0usize;
                for i in 0..n {
                    let zero = zeros[i / 8] >> (i % 8) & 1 == 1;
                    if zero {
                        out.push(0.0);
                        continue;
                    }
                    let neg = signs[i / 8] >> (i % 8) & 1 == 1;
                    let mag = logs
                        .get(li)
                        .ok_or_else(|| CodecError::Corrupt("log stream underrun".into()))?
                        .exp();
                    li += 1;
                    out.push(if neg { -mag } else { mag });
                }
                let mut epos = exc_start;
                for _ in 0..n_exc {
                    let idx = bytes::get_u64(body, &mut epos).expect("exception region validated")
                        as usize;
                    let bits = bytes::get_u64(body, &mut epos).expect("exception region validated");
                    if idx >= n {
                        return Err(CodecError::Corrupt("exception index out of range".into()));
                    }
                    out[base + idx] = f64::from_bits(bits);
                }
                Ok(())
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantization_is_error_bounded_by_construction() {
        let core = SzCore::new(64, 1);
        let data: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.37).sin()).collect();
        let e = 1e-3;
        let enc = core.compress(&data, ErrorBound::Absolute(e)).unwrap();
        let dec = core.decompress(&enc).unwrap();
        for (x, y) in data.iter().zip(&dec) {
            assert!((x - y).abs() <= e);
        }
    }

    #[test]
    fn tiny_bin_count_forces_outliers_and_still_bounds() {
        // With 4 bins nearly everything is unpredictable; values must be
        // stored verbatim and the bound trivially holds.
        let core = SzCore::new(4, 1);
        let data: Vec<f64> = (0..500).map(|i| ((i * 7919) % 1000) as f64).collect();
        let enc = core.compress(&data, ErrorBound::Absolute(1e-9)).unwrap();
        let dec = core.decompress(&enc).unwrap();
        for (x, y) in data.iter().zip(&dec) {
            assert!((x - y).abs() <= 1e-9);
        }
    }

    #[test]
    fn stride_two_uses_independent_chains() {
        let core = SzCore::new(1024, 2);
        // Alternating constants: each chain is perfectly predictable.
        let data: Vec<f64> = (0..2000)
            .map(|i| if i % 2 == 0 { 5.0 } else { -3.0 })
            .collect();
        let enc = core.compress(&data, ErrorBound::Absolute(1e-6)).unwrap();
        let one = SzCore::new(1024, 1);
        let enc1 = one.compress(&data, ErrorBound::Absolute(1e-6)).unwrap();
        // Split chains see constant signals; the flat chain sees +-8 jumps.
        assert!(enc.len() <= enc1.len());
        let dec = core.decompress(&enc).unwrap();
        for (x, y) in data.iter().zip(&dec) {
            assert!((x - y).abs() <= 1e-6);
        }
    }

    #[test]
    fn relative_mode_handles_nonfinite() {
        let core = SzCore::new(256, 1);
        let data = vec![1.0, f64::INFINITY, -2.0, f64::NAN, 0.0, 3.0];
        let enc = core
            .compress(&data, ErrorBound::PointwiseRelative(1e-2))
            .unwrap();
        let dec = core.decompress(&enc).unwrap();
        assert_eq!(dec[1], f64::INFINITY);
        assert!(dec[3].is_nan());
        assert_eq!(dec[4], 0.0);
        assert!((dec[5] - 3.0).abs() <= 3.0 * 1e-2);
    }
}
