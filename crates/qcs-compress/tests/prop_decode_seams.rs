//! The decoders' fast paths at the seams they introduce:
//!
//! - (a) Solution C unpacks the words that lie inside a segment's suffix
//!   in place, two values per word when each keeps at most 4 bytes, and
//!   zero-pads only the last words. Segments of 1–64 values, at mantissa
//!   widths that keep 2 to 8 bytes per value, with lead codes in runs of
//!   1–40 values over all four codes and exceptions at the first and the
//!   last index, meet that seam at every suffix-tail alignment and pair
//!   parity. A scalar reference encoder writes each segment in all four
//!   layouts (mode 2 runs, mode 2 backend plane, mode 0, whole stream);
//!   each must decode to the truncated input bit for bit, and an
//!   exception to its own bits.
//! - (b) LZ77 copies an overlapping match in chunks. Streams with
//!   matches at offsets 1–16 and lengths 4–600 decode to the bytes the
//!   reference decoder returns, behind a prefix the copy must not read.

mod entropy_reference;

use entropy_reference as reference;
use qcs_compress::qzstd::{self, Level};
use qcs_compress::trunc::{truncate_to_mantissa_bits, SolutionC};
use qcs_compress::{lz77, Codec};

/// Deterministic noise source (xorshift64).
struct Noise(u64);

impl Noise {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

// ---------------------------------------------------------------------------
// (a) Solution C
// ---------------------------------------------------------------------------

/// Mantissa widths whose values keep 2, 3, 4, 5, 6, 7 and 8 bytes.
const WIDTHS: [u32; 7] = [2, 10, 17, 21, 30, 40, 52];

fn kept_bytes(m: u32) -> [usize; 4] {
    let sig = (12 + m as usize).div_ceil(8);
    [0, 2, 4, 6].map(|skip: usize| sig.saturating_sub(skip))
}

fn is_exception(bits: u64) -> bool {
    let e = (bits >> 52) & 0x7FF;
    (e == 0 && bits & 0x000F_FFFF_FFFF_FFFF != 0) || e == 0x7FF
}

/// An XOR word of lead code `c` at `m` mantissa bits, or `None` when no
/// truncated word has that code.
fn xor_word(c: usize, m: u32, noise: &mut Noise) -> Option<u64> {
    if c == 3 {
        return Some(0);
    }
    let (lo, hi) = (48 - 16 * c as u32, 64 - 16 * c as u32);
    let lo = lo.max(52 - m);
    if lo >= hi {
        return None;
    }
    let top = lo + noise.below(u64::from(hi - lo)) as u32;
    let low_mask = (1u64 << top) - 1;
    Some((1u64 << top | noise.next() & low_mask) & !((1u64 << (52 - m)) - 1))
}

/// `n` values at `m` mantissa bits whose lead codes come in runs of
/// 1–40 values, each run's code drawn from the ones `m` can produce.
fn segment_values(n: usize, m: u32, noise: &mut Noise) -> Vec<f64> {
    let mut values = Vec::with_capacity(n);
    let mut prev = 0u64;
    while values.len() < n {
        let c = noise.below(4) as usize;
        if xor_word(c, m, noise).is_none() {
            continue;
        }
        let len = (1 + noise.below(40) as usize).min(n - values.len());
        for _ in 0..len {
            prev ^= xor_word(c, m, noise).expect("the code is reachable");
            values.push(f64::from_bits(prev));
        }
    }
    values
}

/// A segment's body, written by the scalar loop the packer replaced.
struct Body {
    m: u32,
    codes: Vec<u8>,
    suffix: Vec<u8>,
    exceptions: Vec<(u64, u64)>,
}

fn scalar_body(values: &[f64], m: u32) -> Body {
    let keep = kept_bytes(m);
    let mut body = Body {
        m,
        codes: vec![0; values.len().div_ceil(4)],
        suffix: Vec::new(),
        exceptions: Vec::new(),
    };
    let mut prev = 0u64;
    for (i, &v) in values.iter().enumerate() {
        let raw = v.to_bits();
        let t = if m < 52 && is_exception(raw) {
            body.exceptions.push((i as u64, raw));
            0
        } else {
            truncate_to_mantissa_bits(v, m).to_bits()
        };
        let x = t ^ prev;
        prev = t;
        let c = ((x.leading_zeros() / 8).min(6) / 2) as usize;
        body.codes[i / 4] |= (c as u8) << (2 * (i % 4));
        body.suffix
            .extend_from_slice(&(x << (16 * c)).to_be_bytes()[..keep[c]]);
    }
    body
}

impl Body {
    fn code(&self, i: usize) -> u8 {
        self.codes[i / 4] >> (2 * (i % 4)) & 0b11
    }

    /// The pre-backend body of mode 0 and the whole-stream format.
    fn bytes(&self, n: usize) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&0x5143_5343u32.to_le_bytes());
        out.extend_from_slice(&(n as u64).to_le_bytes());
        out.push(self.m as u8);
        out.extend_from_slice(&(self.codes.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.codes);
        out.extend_from_slice(&(self.suffix.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.suffix);
        out.extend_from_slice(&(self.exceptions.len() as u64).to_le_bytes());
        for &(idx, bits) in &self.exceptions {
            out.extend_from_slice(&idx.to_le_bytes());
            out.extend_from_slice(&bits.to_le_bytes());
        }
        out
    }

    /// Mode 2's tail: the exceptions with `u16` indices, then the suffix.
    fn mode2_tail(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.exceptions.len() as u16).to_le_bytes());
        for &(idx, bits) in &self.exceptions {
            out.extend_from_slice(&(idx as u16).to_le_bytes());
            out.extend_from_slice(&bits.to_le_bytes());
        }
        out.extend_from_slice(&self.suffix);
    }

    /// Mode 2 with the lead codes as runs of the first `n` codes.
    fn runs_segment(&self, n: usize) -> Vec<u8> {
        let mut out = vec![0xFE, self.m as u8];
        let mut i = 0;
        while i < n {
            let c = self.code(i);
            let len = (i..n).take_while(|&j| self.code(j) == c).count();
            let rest = len - 1;
            out.push(c << 6 | if rest >> 5 > 0 { 0x20 } else { 0 } | (rest & 0x1F) as u8);
            let mut rest = rest >> 5;
            while rest > 0 {
                out.push(if rest >> 7 > 0 { 0x80 } else { 0 } | (rest & 0x7F) as u8);
                rest >>= 7;
            }
            i += len;
        }
        self.mode2_tail(&mut out);
        out
    }

    /// Mode 2 with the packed code plane through the backend.
    fn plane_segment(&self) -> Vec<u8> {
        let plane = qzstd::compress(&self.codes, Level::Fast);
        let mut out = vec![0xFD, self.m as u8];
        out.extend_from_slice(&(plane.len() as u16).to_le_bytes());
        out.extend_from_slice(&plane);
        self.mode2_tail(&mut out);
        out
    }
}

/// A segmented stream of one segment holding `n` values.
fn one_segment_stream(n: usize, segment: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&0x5143_5374u32.to_le_bytes());
    out.extend_from_slice(&(n as u64).to_le_bytes());
    out.extend_from_slice(&(segment.len() as u32).to_le_bytes());
    out.extend_from_slice(segment);
    out
}

#[test]
fn every_layout_unpacks_every_tail_alignment_bit_for_bit() {
    let codec = SolutionC::default();
    let mut noise = Noise(0x9E37_79B9_7F4A_7C15);
    let mut seen_codes = [false; 4];
    let mut decodes = 0;
    for m in WIDTHS {
        for n in 1..=64 {
            for trial in 0..8 {
                let mut values = segment_values(n, m, &mut noise);
                // Exceptions at neither end, the first, the last, both.
                let nan = f64::from_bits(0x7FF8_0000_0000_0000 | noise.below(1 << 20));
                let subnormal = f64::from_bits(1 + noise.below(1 << 40));
                if trial & 1 == 1 {
                    values[0] = nan;
                }
                if trial & 2 == 2 {
                    values[n - 1] = subnormal;
                }
                let want: Vec<u64> = values
                    .iter()
                    .map(|&v| match v.to_bits() {
                        raw if m < 52 && is_exception(raw) => raw,
                        _ => truncate_to_mantissa_bits(v, m).to_bits(),
                    })
                    .collect();
                let body = scalar_body(&values, m);
                for (i, seen) in seen_codes.iter_mut().enumerate() {
                    *seen |= (0..n).any(|j| usize::from(body.code(j)) == i);
                }
                let container = qzstd::compress(&body.bytes(n), Level::Fast);
                let layouts = [
                    ("mode 2 runs", one_segment_stream(n, &body.runs_segment(n))),
                    ("mode 2 plane", one_segment_stream(n, &body.plane_segment())),
                    ("mode 0", one_segment_stream(n, &container)),
                    ("whole stream", container.clone()),
                ];
                for (layout, stream) in layouts {
                    let got = codec
                        .decompress(&stream)
                        .unwrap_or_else(|e| panic!("{layout}, m {m}, n {n}: {e}"));
                    let got: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(got, want, "{layout}, m {m}, n {n}, trial {trial}");
                    decodes += 1;
                }
            }
        }
    }
    assert!(seen_codes.iter().all(|&s| s), "codes seen: {seen_codes:?}");
    assert_eq!(decodes, WIDTHS.len() * 64 * 8 * 4);
}

// ---------------------------------------------------------------------------
// (b) LZ77
// ---------------------------------------------------------------------------

/// Append a length extension: 255-saturated continuation bytes.
fn put_len_ext(out: &mut Vec<u8>, mut rem: usize) {
    while rem >= 255 {
        out.push(255);
        rem -= 255;
    }
    out.push(rem as u8);
}

/// Append one token: `literals`, then a match of `len` bytes at `off`
/// back, or the end-of-stream token when there is no match.
fn put_token(out: &mut Vec<u8>, literals: &[u8], matched: Option<(usize, usize)>) {
    let lit_code = literals.len().min(15) as u8;
    let match_code = matched.map_or(0, |(_, len)| (len - lz77::MIN_MATCH + 1).min(15)) as u8;
    out.push(lit_code << 4 | match_code);
    if literals.len() >= 15 {
        put_len_ext(out, literals.len() - 15);
    }
    out.extend_from_slice(literals);
    let off = matched.map_or(0, |(off, _)| off as u16);
    out.extend_from_slice(&off.to_le_bytes());
    if let Some((_, len)) = matched.filter(|&(_, len)| len - lz77::MIN_MATCH + 1 >= 15) {
        put_len_ext(out, len - lz77::MIN_MATCH + 1 - 15);
    }
}

#[test]
fn overlapping_matches_decode_to_the_reference_bytes() {
    let mut noise = Noise(0x2545_F491_4F6C_DD1D);
    let prefix = [0xA5u8; 5];
    for off in 1..=16 {
        for len in lz77::MIN_MATCH..=600 {
            // Literals enough for the offset, the match, then a second
            // overlapping match at another offset and a literal tail.
            let lits: Vec<u8> = (0..off + noise.below(3) as usize)
                .map(|_| noise.next() as u8)
                .collect();
            let off2 = 1 + noise.below(16.min(lits.len() + len) as u64) as usize;
            let len2 = lz77::MIN_MATCH + noise.below(40) as usize;
            let mut stream = Vec::new();
            put_token(&mut stream, &lits, Some((off, len)));
            put_token(&mut stream, &[], Some((off2, len2)));
            put_token(&mut stream, &[7, 8, 9], None);

            let want = reference::lz77::decompress(&stream)
                .unwrap_or_else(|e| panic!("reference, offset {off}, length {len}: {e}"));
            assert_eq!(want.len(), lits.len() + len + len2 + 3);
            let mut got = prefix.to_vec();
            lz77::decompress_into(&stream, &mut got)
                .unwrap_or_else(|e| panic!("offset {off}, length {len}: {e}"));
            assert_eq!(&got[..prefix.len()], &prefix);
            assert_eq!(
                &got[prefix.len()..],
                &want[..],
                "offset {off}, length {len}"
            );
        }
    }
}
