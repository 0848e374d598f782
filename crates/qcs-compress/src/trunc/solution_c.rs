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
//! register per code byte. The unpacker loads the words back in place,
//! one per pair of values when no value keeps more than 4 bytes, into an
//! output sized once per segment: no push and no zero-padding test per
//! value. Only the last words, which reach past the suffix, are
//! zero-padded (see `Unpack`).
//!
//! # Whole-stream and segment layouts
//!
//! The legacy whole-stream format ([`SolutionC::whole_stream`]) is
//! `qzstd(body)`, byte for byte as it always was.
//!
//! Each segment of the segmented format (the engine's default, see
//! [`crate::trunc`]) starts with a mode byte. The container knows the
//! segment's value count `n`, so no segment stores it:
//!
//! ```text
//! mode 0: qzstd(body)                                   first byte 0..=3
//! mode 2: 0xFE | m u8 | runs | exceptions | suffix
//!      or 0xFD | m u8 | plane_len u16 | qzstd(codes) | exceptions | suffix
//! runs:       { c << 6 | more << 5 | (len - 1) & 31
//!               [, LEB128 of (len - 1) >> 5 when more] }, covering n
//! exceptions: n_exc u16 | n_exc x { index u16 | bits u64 }
//! ```
//!
//! A mode-0 segment is the bare backend container, so the container's own
//! mode byte (0–3) doubles as the segment's, and it pays no byte for its
//! mode.
//!
//! A mode-2 segment runs no LZ77 and stores nothing its decoder can
//! derive (the stage table is in [`crate::trunc`]). The lead codes are
//! runs of equal codes, one byte per run of up to 32 values. The suffix
//! length is the sum of the bytes each code keeps, so the suffix is the
//! rest of the segment, stored verbatim and read in place. Only when the
//! runs take more than one byte per [`COMPACT_RUN_VALUES`] values does
//! the encoder also put the packed code plane (`codes` above) through the
//! backend, and it keeps whichever is shorter (mode byte 0xFD for the
//! plane). A periodic sparse block needs that: with runs alone, the
//! one-amplitude-in-sixteen block of `prop_segment_modes` takes 11,529
//! bytes, against 11,219 in the single-mode layout and 10,285 with the
//! fallback; a raw 256-byte plane per segment took 17,662.
//!
//! The truncated XOR suffix of a generic amplitude block is close to
//! noise. On a Porter–Thomas 2^14-amplitude block at 1e-3, LZ77 over the
//! segment bodies took two thirds of the compress time and shrank them by
//! only 6.6 %. Structured states are different: the first block of
//! QFT|8192> on 2^20 amplitudes repeats every 128 amplitudes, and an
//! always-raw suffix would drop its ratio from 18.5 to 2.6. So mode 0 is
//! chosen whenever a fixed probe says the dictionary pays: LZ77 over the
//! first [`PROBE_LEN`] suffix bytes must come out strictly shorter than
//! its input. A segment with an empty suffix (every value truncates to
//! zero: an all-zero stretch, exceptions aside) takes mode 2 without the
//! probe: 1024 zeros at 1e-3 store 6 bytes, where mode 0 took 37. The
//! probe cannot see a
//! repeat more than [`PROBE_LEN`] suffix bytes back: a segment of a state
//! that is a product across the segment's top offset bit can then take
//! mode 2 and grow by a fifth.
//!
//! Mode byte 0xFF was mode 1: the header, code plane and exceptions
//! through the backend, the suffix verbatim. The stream magic changed
//! with it (see [`crate::trunc`]), so no stream holding one decodes.

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
/// Mode byte of a mode-2 segment whose lead codes are stored as runs. A
/// mode-0 segment is the bare backend container, whose first byte, the
/// container's own mode (0–3), is the segment's mode byte.
const MODE_RUNS: u8 = 0xFE;
/// Mode byte of a mode-2 segment whose packed code plane went through the
/// backend.
const MODE_PLANE: u8 = 0xFD;
/// Values per run byte at or above which a mode-2 segment keeps its runs
/// without trying the backend on its code plane.
const COMPACT_RUN_VALUES: usize = 32;
/// Offset of the code plane in a body: magic, `n`, `m` and `codes_len`.
const CODES_AT: usize = 4 + 8 + 1 + 8;

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
    /// A segment holds at most [`crate::DEFAULT_SEGMENT_VALUES`] values,
    /// so every index fits a `u16`.
    pub(super) fn encode_segment_into(data: &[f64], m: u32, out: &mut Vec<u8>) {
        debug_assert!(data.len() <= usize::from(u16::MAX));
        let mut body = crate::scratch::take_bytes();
        let suffix = Self::encode_body(data, m, &mut body);
        if !suffix.is_empty() && dictionary_pays(&body[suffix.clone()]) {
            qzstd::compress_into(&body, BACKEND, out);
        } else {
            let mode_at = out.len();
            out.extend_from_slice(&[MODE_RUNS, m as u8]);
            let codes = &body[CODES_AT..suffix.start - 8];
            put_runs(codes, data.len(), out);
            let run_bytes = out.len() - mode_at - 2;
            if run_bytes * COMPACT_RUN_VALUES > data.len() {
                let mut plane = crate::scratch::take_bytes();
                qzstd::compress_into(codes, BACKEND, &mut plane);
                if 2 + plane.len() < run_bytes {
                    out.truncate(mode_at + 2);
                    out[mode_at] = MODE_PLANE;
                    bytes::put_u16(out, plane.len() as u16);
                    out.extend_from_slice(&plane);
                }
                crate::scratch::put_bytes(plane);
            }
            // Each body exception is `index u64 | bits u64`; the index's
            // low two bytes are its `u16`.
            let exceptions = &body[suffix.end + 8..];
            bytes::put_u16(out, (exceptions.len() / 16) as u16);
            for exc in exceptions.chunks_exact(16) {
                out.extend_from_slice(&exc[..2]);
                out.extend_from_slice(&exc[8..]);
            }
            out.extend_from_slice(&body[suffix]);
        }
        crate::scratch::put_bytes(body);
    }

    /// Build the pre-backend body (layout in the module docs) in the empty
    /// `body`, returning the byte range of its suffix. The code plane and
    /// the worst-case suffix are sized up front; each value stores one
    /// big-endian word and advances by the bytes it keeps, so the last
    /// store needs eight bytes of slack, trimmed afterwards.
    fn encode_body(data: &[f64], m: u32, body: &mut Vec<u8>) -> Range<usize> {
        let keep = kept_bytes(m);
        let sig_bytes = keep[0];
        let codes_len = data.len().div_ceil(4);

        bytes::put_u32(body, MAGIC);
        bytes::put_u64(body, data.len() as u64);
        body.push(m as u8);
        bytes::put_u64(body, codes_len as u64);
        debug_assert_eq!(body.len(), CODES_AT);
        let suffix_start = CODES_AT + codes_len + 8;
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
            body[CODES_AT + q] = codes;
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
        let cap = expect.map_or(usize::MAX, max_body_len);
        let mut body = crate::scratch::take_bytes();
        let res = unpack(data, cap, &mut body).and_then(|()| Self::decode_body(&body, expect, out));
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
        match seg.first() {
            Some(&(MODE_RUNS | MODE_PLANE)) => {
                let mut table = crate::scratch::take_bytes();
                let res = decode_mode2(seg, n, &mut table, out);
                crate::scratch::put_bytes(table);
                res
            }
            Some(&mode) if mode > 3 => Err(CodecError::Corrupt(format!(
                "unknown segment mode {mode:#04x}"
            ))),
            _ => Self::decode_stream_into(seg, Some(n), out),
        }
    }

    /// Decode a body. Every length is checked against the value count
    /// before anything is reserved.
    fn decode_body(
        body: &[u8],
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
        let keep = checked_kept_bytes(body.get(pos))?;
        pos += 1;

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
        if suffix_len > (n * keep[0]) as u64 {
            return Err(corrupt(format!("{suffix_len} suffix bytes for {n} values")));
        }
        let suffix = body
            .get(pos..pos + suffix_len as usize)
            .ok_or_else(|| corrupt("truncated suffix".into()))?;
        pos += suffix.len();
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
        out.resize(base + n, 0.0);
        let mut values = Unpack::new(keep, suffix);
        values.plane(codes, &mut out[base..]);
        if values.at != suffix.len() {
            return Err(corrupt(format!(
                "codes use {} suffix bytes, the body holds {}",
                values.at,
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

/// Bytes a value keeps per lead code at `m` mantissa bits: the
/// `sig_bytes = ceil((12 + m) / 8)` significant bytes (sign, exponent and
/// `m` mantissa bits) less the {0, 2, 4, 6} bytes each code skips.
fn kept_bytes(m: u32) -> [usize; 4] {
    let sig_bytes = ((12 + m) as usize).div_ceil(8);
    [0, 2, 4, 6].map(|skip: usize| sig_bytes.saturating_sub(skip))
}

/// The bytes kept per lead code at the mantissa width in `m`, which must
/// be present and at most 52.
fn checked_kept_bytes(m: Option<&u8>) -> Result<[usize; 4], CodecError> {
    match m {
        Some(&m) if m <= 52 => Ok(kept_bytes(m.into())),
        Some(m) => Err(CodecError::Corrupt(format!("invalid mantissa bits {m}"))),
        None => Err(CodecError::Corrupt("missing mantissa bits".into())),
    }
}

/// The lead codes of a mode-2 segment, checked against its value count.
enum Codes<'a> {
    /// Its runs, parsed into `len << 2 | c` words (see [`parse_runs`]).
    Runs(&'a [u8]),
    /// Its packed code plane, out of the backend.
    Plane(&'a [u8]),
}

/// Decode a mode-2 segment holding `n` values, *appending* them to
/// `out`; `table` is scratch for its parsed runs or its backend code
/// plane. The codes, the exception indices and the suffix length are all
/// checked against `n` before anything is reserved.
fn decode_mode2(
    seg: &[u8],
    n: usize,
    table: &mut Vec<u8>,
    out: &mut Vec<f64>,
) -> Result<(), CodecError> {
    let corrupt = CodecError::Corrupt;
    let keep = checked_kept_bytes(seg.get(1))?;
    let mut pos = 2;
    let (codes, suffix_len) = if seg[0] == MODE_RUNS {
        let (len, suffix_len) = parse_runs(&seg[pos..], n, &keep, table)?;
        pos += len;
        (Codes::Runs(table), suffix_len)
    } else {
        let len = bytes::get_u16(seg, &mut pos)
            .ok_or_else(|| corrupt("missing plane length".into()))? as usize;
        let container = seg
            .get(pos..pos + len)
            .ok_or_else(|| corrupt("truncated plane".into()))?;
        pos += len;
        unpack(container, n.div_ceil(4), table)?;
        if table.len() != n.div_ceil(4) {
            return Err(corrupt(format!(
                "{} code bytes for {n} values",
                table.len()
            )));
        }
        let mut suffix_len = 0;
        plane_runs(table, n, |c, len| suffix_len += len * keep[c]);
        (Codes::Plane(table), suffix_len)
    };
    let n_exc = bytes::get_u16(seg, &mut pos)
        .ok_or_else(|| corrupt("missing exception count".into()))? as usize;
    if n_exc > n {
        return Err(corrupt(format!("{n_exc} exceptions for {n} values")));
    }
    let exceptions = seg
        .get(pos..pos + 10 * n_exc)
        .ok_or_else(|| corrupt("truncated exceptions".into()))?;
    let index = |exc: &[u8]| usize::from(u16::from_le_bytes([exc[0], exc[1]]));
    if exceptions.chunks_exact(10).any(|exc| index(exc) >= n) {
        return Err(corrupt("exception index out of range".into()));
    }
    let suffix = &seg[pos + exceptions.len()..];
    if suffix.len() != suffix_len {
        return Err(corrupt(format!(
            "codes imply {suffix_len} suffix bytes, the segment holds {}",
            suffix.len()
        )));
    }

    let base = out.len();
    out.resize(base + n, 0.0);
    let mut values = Unpack::new(keep, suffix);
    match codes {
        Codes::Runs(runs) => {
            let mut dst = &mut out[base..];
            for run in runs.chunks_exact(4) {
                let run = u32::from_le_bytes(run.try_into().expect("4 bytes")) as usize;
                let (head, rest) = dst.split_at_mut(run >> 2);
                values.run(run & 0b11, head);
                dst = rest;
            }
        }
        Codes::Plane(codes) => values.plane(codes, &mut out[base..]),
    }
    for exc in exceptions.chunks_exact(10) {
        out[base + index(exc)] =
            f64::from_bits(u64::from_le_bytes(exc[2..].try_into().expect("8 bytes")));
    }
    Ok(())
}

/// Call `f(c, len)` for each run of equal codes among the first `n` lead
/// codes packed four to a byte in `codes`, in order. A byte that holds
/// four copies of the current code extends its run in one step.
fn plane_runs(codes: &[u8], n: usize, mut f: impl FnMut(usize, usize)) {
    let Some(&first) = codes.first() else {
        return;
    };
    let (mut cur, mut len) = (first & 0b11, 0usize);
    for (q, &byte) in codes.iter().enumerate() {
        let vals = (n - 4 * q).min(4);
        if vals == 4 && byte == cur * 0x55 {
            len += 4;
            continue;
        }
        for j in 0..vals {
            let c = byte >> (2 * j) & 0b11;
            if c != cur {
                f(cur.into(), len);
                (cur, len) = (c, 0);
            }
            len += 1;
        }
    }
    f(cur.into(), len);
}

/// Append the lead codes of `n` values, packed four to a byte in `codes`,
/// as runs of equal codes (layout in the module docs).
fn put_runs(codes: &[u8], n: usize, out: &mut Vec<u8>) {
    plane_runs(codes, n, |c, len| put_run(c as u8, len, out));
}

/// Append one run of `len >= 1` values of lead code `c`.
fn put_run(c: u8, len: usize, out: &mut Vec<u8>) {
    let rest = len - 1;
    let more = if rest >> 5 > 0 { 0x20 } else { 0 };
    out.push(c << 6 | more | (rest & 0x1F) as u8);
    let mut rest = rest >> 5;
    while rest > 0 {
        let more = if rest >> 7 > 0 { 0x80 } else { 0 };
        out.push(more | (rest & 0x7F) as u8);
        rest >>= 7;
    }
}

/// The run at `pos` of a run list, its lead code and length, advancing
/// `pos`; `None` when it is cut short or longer than three LEB128 bytes.
fn next_run(runs: &[u8], pos: &mut usize) -> Option<(usize, usize)> {
    let head = *runs.get(*pos)?;
    *pos += 1;
    let mut rest = usize::from(head & 0x1F);
    let mut more = head & 0x20 != 0;
    for shift in [5, 12, 19] {
        if !more {
            return Some((usize::from(head >> 6), rest + 1));
        }
        let byte = *runs.get(*pos)?;
        *pos += 1;
        rest |= usize::from(byte & 0x7F) << shift;
        more = byte & 0x80 != 0;
    }
    (!more).then_some((usize::from(head >> 6), rest + 1))
}

/// Parse the run list at the head of `runs` that covers `n` values into
/// `table`, one little-endian `len << 2 | c` word per run, returning the
/// list's byte length and the suffix bytes its codes keep. A segment
/// holds at most [`crate::DEFAULT_SEGMENT_VALUES`] values, so every
/// length fits the word.
fn parse_runs(
    runs: &[u8],
    n: usize,
    keep: &[usize; 4],
    table: &mut Vec<u8>,
) -> Result<(usize, usize), CodecError> {
    debug_assert!(n <= usize::from(u16::MAX));
    let (mut pos, mut covered, mut suffix) = (0, 0, 0);
    while covered < n {
        let (c, len) = next_run(runs, &mut pos)
            .ok_or_else(|| CodecError::Corrupt("code runs cut short".into()))?;
        if len > n - covered {
            return Err(CodecError::Corrupt(format!("code runs overrun {n} values")));
        }
        covered += len;
        suffix += len * keep[c];
        table.extend_from_slice(&((len << 2 | c) as u32).to_le_bytes());
    }
    Ok((pos, suffix))
}

/// The running state of an unpack: the last value's bits and the read
/// position in the suffix.
struct Unpack<'a> {
    suffix: &'a [u8],
    at: usize,
    prev: u64,
    keep: [usize; 4],
    /// The bytes a value keeps, as a mask over its XOR word.
    kept: u64,
}

impl<'a> Unpack<'a> {
    fn new(keep: [usize; 4], suffix: &'a [u8]) -> Self {
        Self {
            suffix,
            at: 0,
            prev: 0,
            keep,
            kept: !0u64 << (64 - 8 * keep[0]),
        }
    }

    /// Fill `dst` with the next values, the `i`-th of lead code
    /// `code(i)`, reading suffix words with `load`. When no value keeps
    /// more than 4 bytes, one word holds two values' bytes, so the values
    /// go in pairs, one word per pair.
    #[inline(always)]
    fn fill(
        &mut self,
        dst: &mut [f64],
        code: impl Fn(usize) -> usize,
        load: impl Fn(&[u8], usize) -> u64,
    ) {
        let (suffix, keep, kept) = (self.suffix, self.keep, self.kept);
        let (mut prev, mut at) = (self.prev, self.at);
        let mut next = |word: u64, c: usize| {
            prev ^= (word >> (16 * c)) & kept;
            f64::from_bits(prev)
        };
        let (pairs, singles) = match keep[0] {
            0..=4 => dst.as_chunks_mut::<2>(),
            _ => (&mut [][..], dst),
        };
        for (k, pair) in pairs.iter_mut().enumerate() {
            let (c0, c1) = (code(2 * k) & 0b11, code(2 * k + 1) & 0b11);
            let word = load(suffix, at);
            pair[0] = next(word, c0);
            pair[1] = next(word << (8 * keep[c0]), c1);
            at += keep[c0] + keep[c1];
        }
        let paired = 2 * pairs.len();
        for (j, v) in singles.iter_mut().enumerate() {
            let c = code(paired + j) & 0b11;
            *v = next(load(suffix, at), c);
            at += keep[c];
        }
        (self.prev, self.at) = (prev, at);
    }

    /// Fill `dst` with a run of values of lead code `c`. The run splits in
    /// two: the values whose word lies inside the suffix load it in place,
    /// and the tail, whose words reach into the suffix's last 8 bytes,
    /// goes through [`load_be`]. A code that keeps no byte repeats the
    /// last value. Kept out of line, so that the loop's constants stay in
    /// registers instead of being reloaded from the caller's frame.
    #[inline(never)]
    fn run(&mut self, c: usize, dst: &mut [f64]) {
        let step = self.keep[c];
        if step == 0 {
            dst.fill(f64::from_bits(self.prev));
            return;
        }
        // The words at `at + i * step` for `i < fast` end inside the suffix.
        let fast = self
            .suffix
            .len()
            .checked_sub(self.at + 8)
            .map_or(0, |room| (room / step + 1).min(dst.len()));
        let (head, tail) = dst.split_at_mut(fast);
        // The code as a constant, so that its shifts compile to immediates.
        // With `run` out of line, a block of the sup_sample state decodes
        // in 0.7x the time of the same loop with a variable code, inlined.
        match c {
            0 => self.fill(head, |_| 0, word),
            1 => self.fill(head, |_| 1, word),
            2 => self.fill(head, |_| 2, word),
            _ => self.fill(head, |_| 3, word),
        }
        self.fill(tail, |_| c, load_be);
    }

    /// Fill `dst` with the values of a packed code plane, four to a code
    /// byte. No value keeps more than `keep[0]` bytes, so while `room`
    /// bytes of suffix lie past the next value's word, the next
    /// `room / keep[0] + 1` words end inside the suffix and load in place.
    /// The tail, the last few values, goes through [`load_be`].
    fn plane(&mut self, codes: &[u8], dst: &mut [f64]) {
        let mut i = 0;
        while let Some(room) = self.suffix.len().checked_sub(self.at + 8) {
            let quads = ((room / self.keep[0] + 1) / 4).min((dst.len() - i) / 4);
            if quads == 0 {
                break;
            }
            let stretch = dst[i..i + 4 * quads].chunks_exact_mut(4);
            for (quad, &byte) in stretch.zip(&codes[i / 4..]) {
                self.fill(quad, |j| usize::from(byte >> (2 * j)), word);
            }
            i += 4 * quads;
        }
        let code = |j: usize| usize::from(codes[(i + j) / 4] >> (2 * ((i + j) % 4)));
        self.fill(&mut dst[i..], code, load_be);
    }
}

/// Big-endian word at `at`, which must end inside `buf`.
#[inline(always)]
fn word(buf: &[u8], at: usize) -> u64 {
    u64::from_be_bytes(buf[at..][..8].try_into().expect("8 bytes"))
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
/// every value an exception.
fn max_body_len(n: usize) -> usize {
    // magic, n, m, codes_len, suffix_len, n_exc
    const FIXED: usize = CODES_AT + 8 + 8;
    FIXED
        .saturating_add(n.div_ceil(4))
        .saturating_add(n.saturating_mul(8))
        .saturating_add(n.saturating_mul(16))
}

/// Decode a backend container that may declare at most `cap` bytes.
fn unpack(container: &[u8], cap: usize, body: &mut Vec<u8>) -> Result<(), CodecError> {
    qzstd::decompress_capped_into(container, cap, body)
        .map_err(|e| CodecError::Corrupt(format!("backend: {e}")))
}

/// Big-endian word at `at`, zero-padded past the end of `buf`: the
/// unpack's tail, whose words reach past the suffix.
fn load_be(buf: &[u8], at: usize) -> u64 {
    let tail = buf.get(at..).unwrap_or_default().iter().take(8);
    tail.zip((0..8).rev())
        .fold(0, |word, (&b, k)| word | u64::from(b) << (8 * k))
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

    /// An empty suffix takes mode 2: the mode byte, `m`, one run of 1024
    /// values of code 3 (two bytes) and `n_exc = 0`, behind the 16-byte
    /// stream header and length word.
    #[test]
    fn an_all_zero_segment_is_six_bytes_of_mode_2() {
        let data = [0.0f64; 1024];
        let c = SolutionC::default();
        let enc = c
            .compress(&data, ErrorBound::PointwiseRelative(1e-3))
            .unwrap();
        assert_eq!(enc.len(), 22);
        let m = mantissa_bits_for_relative(1e-3) as u8;
        assert_eq!(&enc[16..], &[MODE_RUNS, m, 0xE0 | 0x1F, 0x1F, 0, 0]);
        let dec = c.decompress(&enc).unwrap();
        assert_eq!(dec.len(), data.len());
        assert!(dec.iter().all(|v| v.to_bits() == 0));
        // Signed zeros truncate to themselves, so their suffix is not empty.
        let mut signed = data;
        signed[7] = -0.0;
        let enc = c
            .compress(&signed, ErrorBound::PointwiseRelative(1e-3))
            .unwrap();
        let dec = c.decompress(&enc).unwrap();
        assert!(signed
            .iter()
            .zip(&dec)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
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
