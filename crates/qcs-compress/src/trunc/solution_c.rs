//! Solution C: XOR leading-zero reduction + bit-plane truncation + qzstd.
//!
//! # The body
//!
//! Truncation and the XOR/lead-code reduction produce one *body* per run
//! of values (all integers little-endian):
//!
//! ```text
//! magic "QCSC" u32 | n u64 | m u8 | codes_len u64 | codes (2 bits/value)
//! | suffix_len u64 | suffix | n_exc u64 | n_exc x { index u64 | bits u64 }
//! ```
//!
//! Each value's suffix is big-endian bytes `2c..sig_bytes` of its XOR with
//! the previous truncated value, where `c` is its lead code and
//! `sig_bytes = ceil((12 + m) / 8)`. The packer stores one 8-byte word per
//! value and advances by the kept width. It gathers four lead codes in a
//! register per code byte. The unpacker loads one word per value the same
//! way.
//!
//! # Whole-stream and segment layouts
//!
//! The legacy whole-stream format ([`SolutionC::whole_stream`]) is
//! `qzstd(body)`, byte for byte as it always was.
//!
//! Each segment of the segmented format (the engine's default, see
//! [`crate::trunc`]) starts with a mode byte:
//!
//! ```text
//! mode 0: qzstd(body)                                 first byte 0..=3
//! mode 1: 0xFF | head_len u32 | qzstd(body minus its suffix bytes) | suffix
//! ```
//!
//! A mode-0 segment is the bare backend container, so the container's own
//! mode byte (0–3) doubles as the segment's; a separate byte would cost
//! 1.5 % on a constant block, whose segments are 68 bytes each. Mode 1
//! runs the backend over only the header, the code plane and the
//! exceptions, and stores the suffix bytes verbatim. The decoder reads them
//! in place.
//!
//! The truncated XOR suffix of a generic amplitude block is close to
//! noise. On a Porter–Thomas 2^14-amplitude block at 1e-3, LZ77 over the
//! segment bodies took two thirds of the compress time and shrank them by
//! only 6.6 %. With the suffix stored raw, the block's stream is 100,471
//! bytes against 100,532, and it compresses in 189 µs instead of 394 µs
//! (decompresses in 84 µs instead of 121 µs; one core of a shared 2-vCPU
//! VM). Structured states are different: the first block of QFT|8192> on
//! 2^20 amplitudes repeats every 128 amplitudes, and an always-raw suffix
//! would drop its ratio from 18.5 to 2.6. So mode 0 is chosen whenever a
//! fixed probe says the dictionary pays: LZ77 over the first [`PROBE_LEN`]
//! suffix bytes must come out strictly shorter than its input. An empty
//! suffix also takes mode 0, since both modes would then compress the same
//! bytes. The probe cannot see a repeat more than [`PROBE_LEN`] suffix
//! bytes back: a segment of a state that is a product across the
//! segment's top offset bit can then take mode 1 and grow by a fifth.

use crate::bitio::bytes;
use crate::codec::{Codec, CodecError};
use crate::error_bound::{mantissa_bits_for_relative, ErrorBound};
use crate::{lz77, qzstd};
use std::ops::Range;

use super::segmented;

/// The lossless backend's effort: the fast (LZ-only) level. Solution C's
/// whole point is removing the costly entropy stages (§4.2), and the
/// truncated XOR stream carries little entropy-codeable structure anyway.
const BACKEND: qzstd::Level = qzstd::Level::Fast;

/// Suffix bytes the segment-mode probe runs LZ77 over.
const PROBE_LEN: usize = 1024;
/// Mode byte of a mode-1 segment (the body minus its suffix through the
/// backend, the suffix stored verbatim after it). A mode-0 segment is the
/// bare backend container, whose first byte, the container's own mode
/// (0–3), is the segment's mode byte.
const MODE_RAW_SUFFIX: u8 = 0xFF;

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

/// Solution C compressor. The default writes the segmented format (see
/// [`crate::trunc`]); [`SolutionC::whole_stream`] writes the legacy
/// whole-stream format. Either decodes both.
#[derive(Debug, Clone, Default)]
pub struct SolutionC {
    whole: bool,
}

const MAGIC: u32 = 0x5143_5343; // "QCSC"

impl SolutionC {
    /// Legacy whole-stream Solution C: the un-segmented paper format, for
    /// the benchmarks and comparators that want one backend container per
    /// stream.
    pub fn whole_stream() -> Self {
        Self { whole: true }
    }

    fn mantissa_bits(bound: ErrorBound) -> Result<u32, CodecError> {
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

    /// Encode the whole-stream format, `qzstd(body)`, *appending* it to
    /// `out`. The intermediate body is staged through recycled per-thread
    /// scratch, so steady-state encoding performs no heap allocation.
    fn encode_stream_into(data: &[f64], m: u32, out: &mut Vec<u8>) {
        let mut body = crate::scratch::take_bytes();
        Self::encode_body(data, m, &mut body);
        qzstd::compress_into(&body, BACKEND, out);
        crate::scratch::put_bytes(body);
    }

    /// Encode one segment of the segmented format, mode byte first,
    /// *appending* it to `out` (see the module docs for the two modes).
    pub(super) fn encode_segment_into(data: &[f64], m: u32, out: &mut Vec<u8>) {
        let mut body = crate::scratch::take_bytes();
        let suffix = Self::encode_body(data, m, &mut body);
        if suffix.is_empty() || dictionary_pays(&body[suffix.clone()]) {
            qzstd::compress_into(&body, BACKEND, out);
        } else {
            out.push(MODE_RAW_SUFFIX);
            // The head is staged behind the body in the same buffer.
            let head_start = body.len();
            body.extend_from_within(..suffix.start);
            body.extend_from_within(suffix.end..head_start);
            let len_at = out.len();
            bytes::put_u32(out, 0); // head container length, backfilled below
            qzstd::compress_into(&body[head_start..], BACKEND, out);
            let head_len = (out.len() - len_at - 4) as u32;
            out[len_at..len_at + 4].copy_from_slice(&head_len.to_le_bytes());
            out.extend_from_slice(&body[suffix]);
        }
        crate::scratch::put_bytes(body);
    }

    /// Build the pre-backend body (layout in the module docs), returning
    /// the byte range of its suffix. The code plane and the worst-case
    /// suffix are sized up front; each value stores one big-endian word
    /// and advances by the bytes it keeps, so the last store needs eight
    /// bytes of slack, trimmed afterwards.
    fn encode_body(data: &[f64], m: u32, body: &mut Vec<u8>) -> Range<usize> {
        // Number of significant most-significant bytes per value:
        // sign(1) + exponent(11) + m mantissa bits.
        let sig_bytes = ((12 + m) as usize).div_ceil(8);
        // Bytes kept per lead code: the code skips {0, 2, 4, 6} bytes.
        let keep = [0, 2, 4, 6].map(|skip: usize| sig_bytes.saturating_sub(skip));
        let codes_len = data.len().div_ceil(4);

        bytes::put_u32(body, MAGIC);
        bytes::put_u64(body, data.len() as u64);
        body.push(m as u8);
        bytes::put_u64(body, codes_len as u64);
        let codes_start = body.len();
        let suffix_start = codes_start + codes_len + 8;
        body.resize(suffix_start + data.len() * sig_bytes + 8, 0);

        let mut exceptions: Vec<(u64, u64)> = Vec::new();
        let mut prev = 0u64;
        let mut s = suffix_start;
        for (q, quad) in data.chunks(4).enumerate() {
            let mut codes = 0u8;
            for (j, &v) in quad.iter().enumerate() {
                let raw = v.to_bits();
                let t = if m < 52 && is_exception(raw) {
                    exceptions.push(((4 * q + j) as u64, raw));
                    0u64
                } else {
                    truncate_to_mantissa_bits(v, m).to_bits()
                };
                let x = t ^ prev;
                prev = t;
                // Leading identical (zero after XOR) most-significant
                // bytes, as the paper's two-bit code: {0, 2, 4, 6} bytes.
                let c = (x.leading_zeros() / 8).min(6) / 2;
                codes |= (c as u8) << (2 * j);
                body[s..s + 8].copy_from_slice(&(x << (16 * c)).to_be_bytes());
                s += keep[c as usize];
            }
            body[codes_start + q] = codes;
        }
        body.truncate(s);
        let suffix_len = (s - suffix_start) as u64;
        body[suffix_start - 8..suffix_start].copy_from_slice(&suffix_len.to_le_bytes());

        bytes::put_u64(body, exceptions.len() as u64);
        for (idx, bits) in &exceptions {
            bytes::put_u64(body, *idx);
            bytes::put_u64(body, *bits);
        }
        suffix_start..s
    }

    /// Decode the whole-stream format (and a mode-0 segment, which is one),
    /// *appending* the values to `out`. `expect` is the value count the
    /// container or the caller promises, when there is one. The
    /// decompressed body is staged through recycled per-thread scratch.
    pub(super) fn decode_stream_into(
        data: &[u8],
        expect: Option<usize>,
        out: &mut Vec<f64>,
    ) -> Result<(), CodecError> {
        let cap = expect.map_or(usize::MAX, |n| max_body_len(n, true));
        let mut body = crate::scratch::take_bytes();
        let res =
            unpack(data, cap, &mut body).and_then(|()| Self::decode_body(&body, None, expect, out));
        crate::scratch::put_bytes(body);
        res
    }

    /// Decode one segment of the segmented format holding `n` values,
    /// *appending* them to `out`.
    pub(super) fn decode_segment_into(
        seg: &[u8],
        n: usize,
        out: &mut Vec<f64>,
    ) -> Result<(), CodecError> {
        let Some((&MODE_RAW_SUFFIX, rest)) = seg.split_first() else {
            return Self::decode_stream_into(seg, Some(n), out);
        };
        let mut pos = 0usize;
        let head_len = bytes::get_u32(rest, &mut pos)
            .ok_or_else(|| CodecError::Corrupt("missing head length".into()))?
            as usize;
        let container = rest
            .get(pos..pos + head_len)
            .ok_or_else(|| CodecError::Corrupt("truncated head".into()))?;
        let suffix = &rest[pos + head_len..];
        let mut head = crate::scratch::take_bytes();
        let res = unpack(container, max_body_len(n, false), &mut head)
            .and_then(|()| Self::decode_body(&head, Some(suffix), Some(n), out));
        crate::scratch::put_bytes(head);
        res
    }

    /// Decode a body. `suffix` is `None` when the suffix bytes sit inside
    /// `body`, or the verbatim suffix of a mode-1 segment, whose head goes
    /// straight on to the exceptions after `suffix_len`. Every length is
    /// checked against the value count before anything is reserved.
    fn decode_body(
        body: &[u8],
        suffix: Option<&[u8]>,
        expect: Option<usize>,
        out: &mut Vec<f64>,
    ) -> Result<(), CodecError> {
        let corrupt = CodecError::Corrupt;
        let mut pos = 0usize;
        let magic =
            bytes::get_u32(body, &mut pos).ok_or_else(|| corrupt("missing magic".into()))?;
        if magic != MAGIC {
            return Err(corrupt("bad magic".into()));
        }
        let n = bytes::get_u64(body, &mut pos).ok_or_else(|| corrupt("missing count".into()))?;
        let n = usize::try_from(n).map_err(|_| corrupt(format!("count {n} out of range")))?;
        if let Some(want) = expect.filter(|&want| want != n) {
            return Err(corrupt(format!("body holds {n} values, expected {want}")));
        }
        let m = *body
            .get(pos)
            .ok_or_else(|| corrupt("missing mantissa bits".into()))? as u32;
        pos += 1;
        if m > 52 {
            return Err(corrupt(format!("invalid mantissa bits {m}")));
        }
        let sig_bytes = ((12 + m) as usize).div_ceil(8);

        let codes_len =
            bytes::get_u64(body, &mut pos).ok_or_else(|| corrupt("missing codes len".into()))?;
        if codes_len != n.div_ceil(4) as u64 {
            return Err(corrupt(format!("{codes_len} code bytes for {n} values")));
        }
        // From here on `n` is at most four values per byte of `body`.
        let codes = body
            .get(pos..pos + n.div_ceil(4))
            .ok_or_else(|| corrupt("truncated codes".into()))?;
        pos += codes.len();
        let suffix_len =
            bytes::get_u64(body, &mut pos).ok_or_else(|| corrupt("missing suffix len".into()))?;
        if suffix_len > (n * sig_bytes) as u64 {
            return Err(corrupt(format!("{suffix_len} suffix bytes for {n} values")));
        }
        let suffix_len = suffix_len as usize;
        let suffix = match suffix {
            Some(suffix) if suffix.len() == suffix_len => suffix,
            Some(suffix) => {
                return Err(corrupt(format!(
                    "segment stores {} suffix bytes, its head says {suffix_len}",
                    suffix.len()
                )))
            }
            None => {
                let inline = body
                    .get(pos..pos + suffix_len)
                    .ok_or_else(|| corrupt("truncated suffix".into()))?;
                pos += suffix_len;
                inline
            }
        };
        let n_exc = bytes::get_u64(body, &mut pos)
            .ok_or_else(|| corrupt("missing exception count".into()))?;
        if n_exc > n as u64 {
            return Err(corrupt(format!("{n_exc} exceptions for {n} values")));
        }
        let exceptions = body
            .get(pos..pos + 16 * n_exc as usize)
            .ok_or_else(|| corrupt("truncated exceptions".into()))?;
        if pos + exceptions.len() != body.len() {
            return Err(corrupt("trailing bytes after the exceptions".into()));
        }

        let base = out.len();
        out.reserve(n);
        let keep = [0, 2, 4, 6].map(|skip: usize| sig_bytes.saturating_sub(skip));
        // The bytes a value keeps, as a mask over its XOR word.
        let kept = !0u64 << (64 - 8 * sig_bytes);
        let mut prev = 0u64;
        let mut s = 0usize;
        let mut left = n;
        for &packed in codes {
            let mut packed = packed;
            for _ in 0..left.min(4) {
                let c = (packed & 0b11) as usize;
                packed >>= 2;
                prev ^= (load_be(suffix, s) >> (16 * c)) & kept;
                s += keep[c];
                out.push(f64::from_bits(prev));
            }
            left = left.saturating_sub(4);
        }
        if s != suffix.len() {
            return Err(corrupt(format!(
                "codes use {s} suffix bytes, the body holds {}",
                suffix.len()
            )));
        }

        for exc in exceptions.chunks_exact(16) {
            let idx = u64::from_le_bytes(exc[..8].try_into().expect("8 bytes"));
            if idx >= n as u64 {
                return Err(corrupt("exception index out of range".into()));
            }
            out[base + idx as usize] =
                f64::from_bits(u64::from_le_bytes(exc[8..].try_into().expect("8 bytes")));
        }
        Ok(())
    }
}

/// The strict-saving probe: whether LZ77 shrinks the first [`PROBE_LEN`]
/// bytes of `suffix`.
fn dictionary_pays(suffix: &[u8]) -> bool {
    let probe = &suffix[..suffix.len().min(PROBE_LEN)];
    let mut lz = crate::scratch::take_bytes();
    lz77::compress_into(probe, &mut lz);
    let pays = lz.len() < probe.len();
    crate::scratch::put_bytes(lz);
    pays
}

/// The longest body `n` values can need: every suffix at full width and
/// every value an exception (`with_suffix == false` counts a mode-1 head).
fn max_body_len(n: usize, with_suffix: bool) -> usize {
    // magic, n, m, codes_len, suffix_len, n_exc
    const FIXED: usize = 4 + 8 + 1 + 8 + 8 + 8;
    let suffix = if with_suffix { n.saturating_mul(8) } else { 0 };
    FIXED
        .saturating_add(n.div_ceil(4))
        .saturating_add(suffix)
        .saturating_add(n.saturating_mul(16))
}

/// Decode a backend container that may declare at most `cap` bytes.
fn unpack(container: &[u8], cap: usize, body: &mut Vec<u8>) -> Result<(), CodecError> {
    qzstd::decompress_capped_into(container, cap, body)
        .map_err(|e| CodecError::Corrupt(format!("backend: {e}")))
}

/// Big-endian word at `at`, zero-padded past the end of `buf`.
#[inline]
fn load_be(buf: &[u8], at: usize) -> u64 {
    match buf.get(at..at + 8) {
        Some(word) => u64::from_be_bytes(word.try_into().expect("8 bytes")),
        None => {
            let tail = buf.get(at..).unwrap_or_default();
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            u64::from_be_bytes(word)
        }
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
        if self.whole {
            Self::encode_stream_into(data, m, out);
        } else {
            segmented::compress_into(data, m, out);
        }
        Ok(())
    }

    fn decompress_into(&self, data: &[u8], out: &mut Vec<f64>) -> Result<(), CodecError> {
        out.clear();
        segmented::decompress_into(data, None, out)
    }

    fn decompress_capped_into(
        &self,
        data: &[u8],
        max_values: usize,
        out: &mut Vec<f64>,
    ) -> Result<(), CodecError> {
        out.clear();
        segmented::decompress_into(data, Some(max_values), out)
    }

    fn supports(&self, bound: ErrorBound) -> bool {
        !matches!(bound, ErrorBound::Absolute(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trunc::segmented::body_ranges;

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
    fn segments_tile_the_stream() {
        let data = sample_data(2500);
        let c = SolutionC::default();
        let enc = c
            .compress(&data, ErrorBound::PointwiseRelative(1e-4))
            .unwrap();
        assert_eq!(
            u32::from_le_bytes(enc[..4].try_into().unwrap()),
            segmented::MAGIC
        );
        assert_eq!(u64::from_le_bytes(enc[4..12].try_into().unwrap()), 2500);
        // Three length-prefixed bodies, the last ending the stream.
        let bodies = body_ranges(&enc);
        assert_eq!(bodies.len(), 3);
        assert_eq!(bodies[2].end, enc.len());
    }

    #[test]
    fn a_segment_body_depends_only_on_its_own_values() {
        let data = sample_data(2048); // exactly 2 segments
        let c = SolutionC::default();
        let bound = ErrorBound::PointwiseRelative(1e-3);
        let enc = c.compress(&data, bound).unwrap();
        let mut edited = data.clone();
        for v in &mut edited[1024..] {
            *v *= 2.0;
        }
        let enc2 = c.compress(&edited, bound).unwrap();
        let (a, b) = (body_ranges(&enc), body_ranges(&enc2));
        // The untouched segment is byte for byte the same body.
        assert_eq!(&enc[a[0].clone()], &enc2[b[0].clone()]);
        assert_ne!(&enc[a[1].clone()], &enc2[b[1].clone()]);
        let orig = c.decompress(&enc).unwrap();
        let dec = c.decompress(&enc2).unwrap();
        for (x, y) in orig[..1024].iter().zip(&dec[..1024]) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (v, d) in edited[1024..].iter().zip(&dec[1024..]) {
            assert!((v - d).abs() <= 1e-3 * v.abs());
        }
    }

    #[test]
    fn a_zero_segment_decodes_to_exact_zeros() {
        let mut data = sample_data(2048);
        data[..1024].fill(0.0);
        let c = SolutionC::default();
        let enc = c
            .compress(&data, ErrorBound::PointwiseRelative(1e-3))
            .unwrap();
        let bodies = body_ranges(&enc);
        assert!(bodies[0].len() < bodies[1].len());
        let dec = c.decompress(&enc).unwrap();
        assert!(dec[..1024].iter().all(|v| v.to_bits() == 0));
        for (v, d) in data[1024..].iter().zip(&dec[1024..]) {
            assert!((v - d).abs() <= 1e-3 * v.abs());
        }
    }

    #[test]
    fn a_wrong_body_length_is_rejected() {
        let data = sample_data(2048);
        let c = SolutionC::default();
        let enc = c
            .compress(&data, ErrorBound::PointwiseRelative(1e-3))
            .unwrap();
        let at = body_ranges(&enc)[1].start - 4;
        for delta in [1u32, u32::MAX] {
            let mut bad = enc.clone();
            let len = u32::from_le_bytes(bad[at..at + 4].try_into().unwrap());
            bad[at..at + 4].copy_from_slice(&len.wrapping_add(delta).to_le_bytes());
            match c.decompress(&bad) {
                Err(CodecError::Corrupt(m)) => assert!(m.contains("segment 1"), "{m}"),
                other => panic!("a wrong body length decoded: {other:?}"),
            }
        }
    }
}
