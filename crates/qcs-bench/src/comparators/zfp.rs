//! ZFP-style domain-transform comparator codec.
//!
//! Follows the three documented stages of the fixed-accuracy ZFP model on 1D
//! blocks of 4 values (§2.3): (1) exponent alignment to a block-common fixed
//! point, (2) a reversible integer lifting transform for decorrelation, and
//! (3) embedded bit-plane coding down to the plane implied by the error
//! bound. Pointwise-relative bounds use the same logarithmic preprocessing
//! the paper applies to ZFP "for fairness of the comparison" (§4.1).
//!
//! Like real ZFP, this codec relies on *smoothness*: spiky quantum-state
//! data defeats the transform and the compression ratio collapses, which is
//! precisely the effect Figures 7 and 8 demonstrate.

use qcs_compress::bitio::{bytes, BitReader, BitWriter};
use qcs_compress::{qzstd, Codec, CodecError, ErrorBound};

const BLOCK: usize = 4;
/// Fixed-point scale: values are normalized into `[-1, 1)` per block and
/// scaled by `2^FRACT_BITS`.
const FRACT_BITS: i32 = 57;
/// Bit planes available after the transform (magnitude bits).
const TOP_PLANE: i32 = 60;
/// Worst-case error amplification through the inverse lifting transform,
/// in bits (each of the two lifting levels at most doubles an error and the
/// floor shifts add one more bit).
const GUARD_BITS: i32 = 5;

const MAGIC: u32 = 0x5143_5A46; // "QCZF"
const MODE_ABS: u8 = 0;
const MODE_REL: u8 = 1;

/// ZFP-like codec.
#[derive(Debug, Clone, Default)]
pub struct ZfpLike;

/// One reversible lifting step: `(u, v) -> (u, v - u)`, then `u += (v >> 1)`.
#[inline]
fn step(u: &mut i64, v: &mut i64) {
    *v = v.wrapping_sub(*u);
    *u = u.wrapping_add(*v >> 1);
}

#[inline]
fn unstep(u: &mut i64, v: &mut i64) {
    *u = u.wrapping_sub(*v >> 1);
    *v = v.wrapping_add(*u);
}

fn forward_transform(b: &mut [i64; BLOCK]) {
    let [mut a, mut c, mut d, mut e] = *b;
    step(&mut a, &mut c);
    step(&mut d, &mut e);
    step(&mut a, &mut d);
    step(&mut c, &mut e);
    *b = [a, c, d, e];
}

fn inverse_transform(b: &mut [i64; BLOCK]) {
    let [mut a, mut c, mut d, mut e] = *b;
    unstep(&mut c, &mut e);
    unstep(&mut a, &mut d);
    unstep(&mut d, &mut e);
    unstep(&mut a, &mut c);
    *b = [a, c, d, e];
}

/// Exponent of `|v|` such that `|v| < 2^(exp+1)`.
fn exponent_of(v: f64) -> i32 {
    if v == 0.0 {
        i32::MIN
    } else {
        v.abs().log2().floor() as i32
    }
}

/// `v * 2^sh` without overflowing the intermediate `2^sh` for extreme
/// shifts (doubles only reach `2^1023`; subnormal blocks need more).
#[inline]
fn mul_pow2(v: f64, sh: i32) -> f64 {
    if (-1000..=1000).contains(&sh) {
        v * 2f64.powi(sh)
    } else if sh > 0 {
        v * 2f64.powi(1000) * 2f64.powi(sh - 1000)
    } else {
        v * 2f64.powi(-1000) * 2f64.powi(sh + 1000)
    }
}

impl ZfpLike {
    fn encode_abs(&self, data: &[f64], e: f64) -> Vec<u8> {
        let mut w = BitWriter::with_bit_capacity(data.len() * 20);
        for chunk in data.chunks(BLOCK) {
            let mut vals = [0.0f64; BLOCK];
            vals[..chunk.len()].copy_from_slice(chunk);
            let emax = vals.iter().map(|v| exponent_of(*v)).max().unwrap();
            if emax == i32::MIN {
                w.write_bit(false); // empty block
                continue;
            }
            w.write_bit(true);
            // Biased 12-bit exponent (doubles span -1074..1024).
            w.write_bits((emax + 1100) as u64, 12);

            // Exponent alignment: scale block into fixed point.
            let sh = FRACT_BITS - (emax + 1);
            let mut q = [0i64; BLOCK];
            for (qi, v) in q.iter_mut().zip(vals.iter()) {
                *qi = mul_pow2(*v, sh).round() as i64;
            }
            forward_transform(&mut q);

            // Cut plane: dropped planes contribute < 2^(cut+GUARD) in fixed
            // point, i.e. < 2^(cut+GUARD) / scale in real units; pick the
            // largest cut with that below e.
            let max_cut = (e.log2().floor() as i32 + sh) - GUARD_BITS;
            let cut = max_cut.clamp(-1, TOP_PLANE);
            // Embedded sign-magnitude coding with per-coefficient MSB
            // position: small (decorrelated) coefficients cost a 7-bit
            // header only, which is where smooth data wins.
            let mags: [u64; BLOCK] = [
                q[0].unsigned_abs(),
                q[1].unsigned_abs(),
                q[2].unsigned_abs(),
                q[3].unsigned_abs(),
            ];
            w.write_bits((cut + 1) as u64, 7);
            for i in 0..BLOCK {
                let msb = 63 - mags[i].leading_zeros() as i32; // -1 shifted below for 0
                let npl = if mags[i] == 0 { 0 } else { (msb - cut).max(0) } as u32;
                w.write_bits(npl as u64, 7);
                if npl > 0 {
                    w.write_bit(q[i] < 0);
                    // MSB itself is implied; emit the npl-1 bits below it.
                    for plane in ((cut + 1)..(cut + npl as i32)).rev() {
                        w.write_bit((mags[i] >> plane) & 1 == 1);
                    }
                }
            }
        }
        let payload = w.into_bytes();
        // The bit stream still has structure (runs of zero planes).
        qzstd::compress(&payload, qzstd::Level::Fast)
    }

    fn decode_abs(&self, payload: &[u8], n: usize) -> Result<Vec<f64>, CodecError> {
        let bits =
            qzstd::decompress(payload).map_err(|e| CodecError::Corrupt(format!("backend: {e}")))?;
        let mut r = BitReader::new(&bits);
        let mut out = Vec::with_capacity(n);
        let err = |_| CodecError::Corrupt("bit stream underrun".into());
        while out.len() < n {
            let nonzero = r.read_bit().map_err(err)?;
            let take = BLOCK.min(n - out.len());
            if !nonzero {
                out.extend(std::iter::repeat_n(0.0, take));
                continue;
            }
            let emax = r.read_bits(12).map_err(err)? as i32 - 1100;
            let cut_plus = r.read_bits(7).map_err(err)? as i32;
            let cut = cut_plus - 1;
            if cut > TOP_PLANE {
                return Err(CodecError::Corrupt(format!("cut plane {cut} out of range")));
            }
            let mut q = [0i64; BLOCK];
            for qi in q.iter_mut() {
                let npl = r.read_bits(7).map_err(err)? as u32;
                if npl == 0 {
                    continue;
                }
                if cut + npl as i32 > 63 {
                    return Err(CodecError::Corrupt(format!(
                        "plane count {npl} overflows at cut {cut}"
                    )));
                }
                let neg = r.read_bit().map_err(err)?;
                let mut mag = 1u64 << (cut + npl as i32); // implied MSB
                for plane in ((cut + 1)..(cut + npl as i32)).rev() {
                    if r.read_bit().map_err(err)? {
                        mag |= 1u64 << plane;
                    }
                }
                *qi = if neg { -(mag as i64) } else { mag as i64 };
            }
            inverse_transform(&mut q);
            let sh = FRACT_BITS - (emax + 1);
            for &qi in q.iter().take(take) {
                out.push(mul_pow2(qi as f64, -sh));
            }
        }
        Ok(out)
    }
}

impl Codec for ZfpLike {
    fn name(&self) -> &'static str {
        "zfp"
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
                put_header(out, MODE_ABS, data.len(), e);
                out.extend_from_slice(&self.encode_abs(data, e));
                Ok(())
            }
            ErrorBound::PointwiseRelative(eps) if eps > 0.0 && eps < 1.0 => {
                // Log-domain preprocessing (paper §4.1): compress ln|x| with
                // an absolute bound, carrying signs/zeros out of band.
                let log_bound = (1.0 + eps).ln() * 0.45; // 0.45: guard for exp/ln rounding
                let mut signs = vec![0u8; data.len().div_ceil(8)];
                let mut zeros = vec![0u8; data.len().div_ceil(8)];
                let mut logs = Vec::with_capacity(data.len());
                for (i, &v) in data.iter().enumerate() {
                    if v == 0.0 || !v.is_finite() {
                        // Non-finite inputs are out of scope for the
                        // comparator; they decode as zero.
                        zeros[i / 8] |= 1 << (i % 8);
                        continue;
                    }
                    if v.is_sign_negative() {
                        signs[i / 8] |= 1 << (i % 8);
                    }
                    logs.push(v.abs().ln());
                }
                let payload = self.encode_abs(&logs, log_bound);
                put_header(out, MODE_REL, data.len(), log_bound);
                bytes::put_u64(out, logs.len() as u64);
                out.extend_from_slice(&signs);
                out.extend_from_slice(&zeros);
                out.extend_from_slice(&payload);
                Ok(())
            }
            ErrorBound::Lossless => Err(CodecError::UnsupportedBound(
                "zfp-like codec is fixed-accuracy only",
            )),
            _ => Err(CodecError::InvalidParam(format!("invalid bound: {bound}"))),
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
        let n = bytes::get_u64(data, &mut pos)
            .ok_or_else(|| CodecError::Corrupt("missing count".into()))? as usize;
        let _bound = bytes::get_f64(data, &mut pos)
            .ok_or_else(|| CodecError::Corrupt("missing bound".into()))?;
        match mode {
            MODE_ABS => {
                out.extend_from_slice(&self.decode_abs(&data[pos..], n)?);
                Ok(())
            }
            MODE_REL => {
                let n_logs = bytes::get_u64(data, &mut pos)
                    .ok_or_else(|| CodecError::Corrupt("missing log count".into()))?
                    as usize;
                let bitmap_len = n.div_ceil(8);
                let signs = data
                    .get(pos..pos + bitmap_len)
                    .ok_or_else(|| CodecError::Corrupt("truncated signs".into()))?
                    .to_vec();
                pos += bitmap_len;
                let zeros = data
                    .get(pos..pos + bitmap_len)
                    .ok_or_else(|| CodecError::Corrupt("truncated zeros".into()))?
                    .to_vec();
                pos += bitmap_len;
                let logs = self.decode_abs(&data[pos..], n_logs)?;
                out.reserve(n);
                let mut li = 0usize;
                for i in 0..n {
                    if zeros[i / 8] >> (i % 8) & 1 == 1 {
                        out.push(0.0);
                        continue;
                    }
                    let mag = logs
                        .get(li)
                        .ok_or_else(|| CodecError::Corrupt("log underrun".into()))?
                        .exp();
                    li += 1;
                    let neg = signs[i / 8] >> (i % 8) & 1 == 1;
                    out.push(if neg { -mag } else { mag });
                }
                Ok(())
            }
            _ => Err(CodecError::Corrupt("unknown mode".into())),
        }
    }

    fn supports(&self, bound: ErrorBound) -> bool {
        bound.is_lossy()
    }
}

fn put_header(out: &mut Vec<u8>, mode: u8, n: usize, bound: f64) {
    bytes::put_u32(out, MAGIC);
    out.push(mode);
    bytes::put_u64(out, n as u64);
    bytes::put_f64(out, bound);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifting_transform_is_exactly_invertible() {
        let cases = [
            [0i64, 0, 0, 0],
            [1, -1, 1, -1],
            [1 << 57, -(1 << 57), 12345, -67890],
            [i64::MAX >> 3, i64::MIN >> 3, 7, -7],
        ];
        for case in cases {
            let mut b = case;
            forward_transform(&mut b);
            inverse_transform(&mut b);
            assert_eq!(b, case);
        }
    }

    fn check_abs(data: &[f64], e: f64) {
        let z = ZfpLike;
        let enc = z.compress(data, ErrorBound::Absolute(e)).unwrap();
        let dec = z.decompress(&enc).unwrap();
        assert_eq!(dec.len(), data.len());
        for (x, y) in data.iter().zip(&dec) {
            assert!((x - y).abs() <= e, "|{x} - {y}| = {} > {e}", (x - y).abs());
        }
    }

    #[test]
    fn absolute_bound_on_smooth_data() {
        let data: Vec<f64> = (0..4096).map(|i| (i as f64 * 0.01).sin()).collect();
        for e in [1e-2, 1e-4, 1e-8] {
            check_abs(&data, e);
        }
    }

    #[test]
    fn absolute_bound_on_spiky_data() {
        let data: Vec<f64> = (0..4096)
            .map(|i| {
                let x = i as f64;
                (x * 1.9).sin() * 10f64.powi(-(i % 7))
            })
            .collect();
        for e in [1e-3, 1e-6] {
            check_abs(&data, e);
        }
    }

    #[test]
    fn zero_blocks_cost_one_bit() {
        let data = vec![0.0f64; 4096];
        let z = ZfpLike;
        let enc = z.compress(&data, ErrorBound::Absolute(1e-6)).unwrap();
        assert!(
            enc.len() < 64,
            "all-zero input should be tiny: {}",
            enc.len()
        );
    }

    #[test]
    fn relative_bound_respected() {
        let data: Vec<f64> = (0..2048)
            .map(|i| ((i as f64) * 0.77).sin() * 1e-4 + 1e-9)
            .collect();
        let z = ZfpLike;
        for eps in [1e-1, 1e-3, 1e-5] {
            let enc = z
                .compress(&data, ErrorBound::PointwiseRelative(eps))
                .unwrap();
            let dec = z.decompress(&enc).unwrap();
            for (x, y) in data.iter().zip(&dec) {
                assert!(
                    (x - y).abs() <= eps * x.abs(),
                    "eps={eps}: |{x}-{y}|={} > {}",
                    (x - y).abs(),
                    eps * x.abs()
                );
            }
        }
    }

    #[test]
    fn ragged_tail_handled() {
        let data: Vec<f64> = (0..1021).map(|i| (i as f64 * 0.02).cos()).collect();
        check_abs(&data, 1e-5);
    }

    #[test]
    fn smooth_beats_spiky_in_ratio() {
        // The core claim behind Fig. 7: ZFP needs smoothness.
        let smooth: Vec<f64> = (0..8192).map(|i| (i as f64 * 0.001).sin()).collect();
        let spiky: Vec<f64> = (0..8192)
            .map(|i| (i as f64 * 2.1).sin() * 10f64.powi(-(i % 9)))
            .collect();
        let z = ZfpLike;
        let e = 1e-6;
        let cs = z.compress(&smooth, ErrorBound::Absolute(e)).unwrap().len();
        let cp = z.compress(&spiky, ErrorBound::Absolute(e)).unwrap().len();
        assert!(cs < cp, "smooth {cs} should beat spiky {cp}");
    }

    #[test]
    fn lossless_unsupported() {
        let z = ZfpLike;
        assert!(z.compress(&[1.0], ErrorBound::Lossless).is_err());
    }

    #[test]
    fn corrupt_rejected() {
        let z = ZfpLike;
        let enc = z
            .compress(&[1.0, 2.0, 3.0], ErrorBound::Absolute(1e-3))
            .unwrap();
        assert!(z.decompress(&enc[..8]).is_err());
    }
}
