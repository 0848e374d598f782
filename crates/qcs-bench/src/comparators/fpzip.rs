//! FPZIP-style predictive-precision comparator codec.
//!
//! Models the published FPZIP design (§2.3): predict each value from its
//! predecessor, map doubles to a sign-flipped monotonic integer domain, and
//! control loss through a *precision* parameter — the number of leading bits
//! of each value that are preserved. As in the real tool, precision `p`
//! approximates a pointwise relative bound of `2^-(p-12)` for doubles
//! (sign + exponent occupy 12 bits), which is how the paper maps precisions
//! 16/18/22/24/28 to relative bounds 1e-1..1e-5 (§4.1).
//!
//! Absolute error bounds are intentionally **unsupported**, mirroring the
//! paper: "FPZIP is missing in this figure because it does not support an
//! absolute error bound" (Fig. 7).

use qcs_compress::bitio::bytes;
use qcs_compress::{mantissa_bits_for_relative, qzstd, Codec, CodecError, ErrorBound};

const MAGIC: u32 = 0x5143_465A; // "QCFZ"

/// FPZIP-like codec.
#[derive(Debug, Clone, Default)]
pub struct FpzipLike;

/// Monotonic order-preserving map from double bits to u64.
#[inline]
fn forward_map(bits: u64) -> u64 {
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

#[inline]
fn inverse_map(m: u64) -> u64 {
    if m >> 63 == 1 {
        m & !(1 << 63)
    } else {
        !m
    }
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[inline]
fn exponent_field(bits: u64) -> u64 {
    (bits >> 52) & 0x7FF
}

/// Values whose bit-truncation would break the relative bound (subnormals)
/// or corrupt the payload class (NaN/Inf).
#[inline]
fn is_exception(bits: u64) -> bool {
    let e = exponent_field(bits);
    (e == 0 && (bits & 0x000F_FFFF_FFFF_FFFF) != 0) || e == 0x7FF
}

impl FpzipLike {
    /// Precision (bits kept per value) for a bound.
    fn precision(bound: ErrorBound) -> Result<u32, CodecError> {
        match bound {
            ErrorBound::Lossless => Ok(64),
            ErrorBound::PointwiseRelative(eps) if eps > 0.0 && eps < 1.0 => {
                Ok(12 + mantissa_bits_for_relative(eps))
            }
            ErrorBound::Absolute(_) => Err(CodecError::UnsupportedBound(
                "fpzip does not support absolute error bounds (paper §4.1)",
            )),
            _ => Err(CodecError::InvalidParam(format!("invalid bound: {bound}"))),
        }
    }
}

impl Codec for FpzipLike {
    fn name(&self) -> &'static str {
        "fpzip"
    }

    fn compress_into(
        &self,
        data: &[f64],
        bound: ErrorBound,
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        let p = Self::precision(bound)?;
        let drop = 64 - p;
        let mut exceptions: Vec<(u64, u64)> = Vec::new();

        // Residual stream: 4-bit significant-byte count per value (packed
        // two per byte) followed by the little-endian significant bytes.
        let mut lens = Vec::with_capacity(data.len() / 2 + 1);
        let mut payload = Vec::with_capacity(data.len() * 4);
        let mut len_acc = 0u8;
        let mut len_fill = 0u32;
        let mut prev = 0u64;
        for (i, &v) in data.iter().enumerate() {
            // Canonicalize -0.0: its bit pattern would otherwise decode to a
            // tiny negative subnormal once the dropped bits are restored.
            let raw = if v == 0.0 && drop > 0 { 0 } else { v.to_bits() };
            let bits = if drop > 0 && is_exception(raw) {
                exceptions.push((i as u64, raw));
                0u64
            } else if drop > 0 {
                // Truncate toward zero in magnitude: clear low bits.
                raw & !((1u64 << drop) - 1)
            } else {
                raw
            };
            let mapped = forward_map(bits) >> drop;
            let residual = zigzag(mapped.wrapping_sub(prev) as i64);
            prev = mapped;
            let nbytes = ((64 - residual.leading_zeros()) as usize).div_ceil(8);
            len_acc |= (nbytes as u8) << (len_fill * 4);
            len_fill += 1;
            if len_fill == 2 {
                lens.push(len_acc);
                len_acc = 0;
                len_fill = 0;
            }
            payload.extend_from_slice(&residual.to_le_bytes()[..nbytes]);
        }
        if len_fill > 0 {
            lens.push(len_acc);
        }

        let mut body = Vec::with_capacity(lens.len() + payload.len() + 48);
        bytes::put_u32(&mut body, MAGIC);
        bytes::put_u64(&mut body, data.len() as u64);
        body.push(p as u8);
        bytes::put_u64(&mut body, lens.len() as u64);
        body.extend_from_slice(&lens);
        bytes::put_u64(&mut body, payload.len() as u64);
        body.extend_from_slice(&payload);
        bytes::put_u64(&mut body, exceptions.len() as u64);
        for (idx, bits) in &exceptions {
            bytes::put_u64(&mut body, *idx);
            bytes::put_u64(&mut body, *bits);
        }
        out.clear();
        qzstd::compress_into(&body, qzstd::Level::Fast, out);
        Ok(())
    }

    fn decompress_into(&self, data: &[u8], out: &mut Vec<f64>) -> Result<(), CodecError> {
        let body =
            qzstd::decompress(data).map_err(|e| CodecError::Corrupt(format!("backend: {e}")))?;
        let mut pos = 0usize;
        let magic = bytes::get_u32(&body, &mut pos)
            .ok_or_else(|| CodecError::Corrupt("missing magic".into()))?;
        if magic != MAGIC {
            return Err(CodecError::Corrupt("bad magic".into()));
        }
        let n = bytes::get_u64(&body, &mut pos)
            .ok_or_else(|| CodecError::Corrupt("missing count".into()))? as usize;
        let p = *body
            .get(pos)
            .ok_or_else(|| CodecError::Corrupt("missing precision".into()))? as u32;
        pos += 1;
        if !(4..=64).contains(&p) {
            return Err(CodecError::Corrupt(format!("invalid precision {p}")));
        }
        let drop = 64 - p;
        let lens_len = bytes::get_u64(&body, &mut pos)
            .ok_or_else(|| CodecError::Corrupt("missing lens length".into()))?
            as usize;
        let lens = body
            .get(pos..pos + lens_len)
            .ok_or_else(|| CodecError::Corrupt("truncated lens".into()))?;
        pos += lens_len;
        let payload_len = bytes::get_u64(&body, &mut pos)
            .ok_or_else(|| CodecError::Corrupt("missing payload length".into()))?
            as usize;
        let payload = body
            .get(pos..pos + payload_len)
            .ok_or_else(|| CodecError::Corrupt("truncated payload".into()))?;
        pos += payload_len;

        out.clear();
        out.reserve(n);
        let mut prev = 0u64;
        let mut ppos = 0usize;
        for i in 0..n {
            let nbytes = ((lens
                .get(i / 2)
                .ok_or_else(|| CodecError::Corrupt("lens underrun".into()))?
                >> ((i % 2) * 4))
                & 0x0F) as usize;
            if nbytes > 8 {
                return Err(CodecError::Corrupt("invalid residual length".into()));
            }
            let chunk = payload
                .get(ppos..ppos + nbytes)
                .ok_or_else(|| CodecError::Corrupt("payload underrun".into()))?;
            ppos += nbytes;
            let mut buf = [0u8; 8];
            buf[..nbytes].copy_from_slice(chunk);
            let residual = u64::from_le_bytes(buf);
            let mapped = prev.wrapping_add(unzigzag(residual) as u64);
            prev = mapped;
            out.push(f64::from_bits(inverse_map(mapped << drop)));
        }

        let n_exc = bytes::get_u64(&body, &mut pos)
            .ok_or_else(|| CodecError::Corrupt("missing exception count".into()))?
            as usize;
        for _ in 0..n_exc {
            let idx = bytes::get_u64(&body, &mut pos)
                .ok_or_else(|| CodecError::Corrupt("truncated exceptions".into()))?
                as usize;
            let bits = bytes::get_u64(&body, &mut pos)
                .ok_or_else(|| CodecError::Corrupt("truncated exceptions".into()))?;
            *out.get_mut(idx)
                .ok_or_else(|| CodecError::Corrupt("exception index out of range".into()))? =
                f64::from_bits(bits);
        }
        Ok(())
    }

    fn supports(&self, bound: ErrorBound) -> bool {
        !matches!(bound, ErrorBound::Absolute(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let x = i as f64;
                (x * 0.633).sin() * (x * 0.12).cos() * 1e-4
            })
            .collect()
    }

    #[test]
    fn map_is_monotonic_and_invertible() {
        let values: [f64; 8] = [-1e300, -1.5, -1e-300, -0.0, 0.0, 1e-300, 1.5, 1e300];
        let mapped: Vec<u64> = values.iter().map(|v| forward_map(v.to_bits())).collect();
        for w in mapped.windows(2) {
            assert!(w[0] <= w[1]);
        }
        for &v in &values {
            assert_eq!(inverse_map(forward_map(v.to_bits())), v.to_bits());
        }
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 42, -9999] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn lossless_round_trip() {
        let data = sample(4096);
        let f = FpzipLike;
        let enc = f.compress(&data, ErrorBound::Lossless).unwrap();
        let dec = f.decompress(&enc).unwrap();
        for (a, b) in data.iter().zip(&dec) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn relative_bounds_respected() {
        let data = sample(8192);
        let f = FpzipLike;
        for eps in [1e-1, 1e-2, 1e-3, 1e-4, 1e-5] {
            let enc = f
                .compress(&data, ErrorBound::PointwiseRelative(eps))
                .unwrap();
            let dec = f.decompress(&enc).unwrap();
            for (a, b) in data.iter().zip(&dec) {
                assert!(
                    (a - b).abs() <= eps * a.abs(),
                    "eps={eps}: |{a}-{b}| = {}",
                    (a - b).abs()
                );
            }
        }
    }

    #[test]
    fn absolute_unsupported_matches_paper() {
        let f = FpzipLike;
        assert!(matches!(
            f.compress(&[1.0], ErrorBound::Absolute(1e-4)),
            Err(CodecError::UnsupportedBound(_))
        ));
    }

    #[test]
    fn exceptions_preserved() {
        let data = vec![1.0, f64::NAN, f64::MIN_POSITIVE / 2.0, -2.5];
        let f = FpzipLike;
        let enc = f
            .compress(&data, ErrorBound::PointwiseRelative(1e-2))
            .unwrap();
        let dec = f.decompress(&enc).unwrap();
        assert!(dec[1].is_nan());
        assert_eq!(dec[2], data[2]);
    }

    #[test]
    fn coarser_precision_compresses_better() {
        let data = sample(16384);
        let f = FpzipLike;
        let hi = f
            .compress(&data, ErrorBound::PointwiseRelative(1e-5))
            .unwrap()
            .len();
        let lo = f
            .compress(&data, ErrorBound::PointwiseRelative(1e-1))
            .unwrap()
            .len();
        assert!(lo < hi);
    }

    #[test]
    fn empty_and_corrupt() {
        let f = FpzipLike;
        let enc = f.compress(&[], ErrorBound::Lossless).unwrap();
        assert!(f.decompress(&enc).unwrap().is_empty());
        assert!(f.decompress(&enc[..3]).is_err());
    }
}
