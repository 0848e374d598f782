//! LZ77 with hash-chain match finding and lazy matching.
//!
//! This is the dictionary stage of [`crate::qzstd`], our stand-in for the
//! Zstandard compressor the paper uses as its lossless backend. The token
//! format is byte-oriented (LZ4-style) so the decoder is simple and fast:
//!
//! ```text
//! token := <ctrl u8> [lit_ext...] [literals] [offset u16le] [match_ext...]
//! ctrl  := (lit_len: 4 bits) << 4 | (match_len_code: 4 bits)
//! ```
//!
//! Literal lengths >= 15 and match lengths >= 18 spill into extension bytes
//! of 255-saturated continuation, as in LZ4. A match_len_code of 0 with
//! offset 0 marks the end-of-stream token.
//!
//! # Match finder tables
//!
//! The match finder is recycled per thread and **nothing in it is ever
//! cleared** — on the 2–4 KiB inputs the simulator feeds it, refilling a
//! 512 KiB table would cost more than the compression. Positions are
//! *absolute*: a call numbers its input bytes `base .. base + len` and the
//! next call on the thread starts where it ended, so a position is never
//! handed out twice (a `u64` cannot wrap). That makes the leftovers of
//! earlier calls recognisable — the **stale-slot rule**:
//!
//! * `head[h]` is the absolute position of the latest insert with hash
//!   `h`. A value below `base` was left by an earlier call and is an empty
//!   slot; `base` starts at 1, so the zeroed table starts empty.
//! * `prev[i]` is the distance from relative position `i` back to the
//!   previous insert with the same hash, 0 for none and for more than
//!   [`WINDOW`] (a link the search could never follow). An insert writes
//!   `prev[i]` before `head` can lead a search to `i`, so a stale entry is
//!   never read and the table is only ever grown.
//!
//! A search therefore visits exactly the candidates, in exactly the order,
//! that freshly cleared tables would give it.

/// Minimum match length worth encoding (3 header bytes per match).
pub const MIN_MATCH: usize = 4;
/// Maximum look-back distance (64 KiB keeps offsets in a u16).
pub const WINDOW: usize = 65_535;
/// Hash table size (power of two).
const HASH_BITS: u32 = 16;
const HASH_SIZE: usize = 1 << HASH_BITS;
/// Cap on hash-chain traversal per position; bounds worst-case time.
const MAX_CHAIN: usize = 64;

/// Errors from the LZ77 decoder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LzError {
    /// Stream ended unexpectedly or contained an invalid back-reference.
    Corrupt(&'static str),
}

impl std::fmt::Display for LzError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LzError::Corrupt(msg) => write!(f, "corrupt lz77 stream: {msg}"),
        }
    }
}

impl std::error::Error for LzError {}

#[inline]
fn hash4(data: &[u8], i: usize) -> usize {
    let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// Longest common prefix of `data[a..]` and `data[b..]`, capped at `limit`.
#[inline]
fn match_len(data: &[u8], a: usize, b: usize, limit: usize) -> usize {
    let mut len = 0;
    // Compare 8 bytes at a time.
    while len + 8 <= limit {
        let x = u64::from_le_bytes(data[a + len..a + len + 8].try_into().unwrap());
        let y = u64::from_le_bytes(data[b + len..b + len + 8].try_into().unwrap());
        let diff = x ^ y;
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    while len < limit && data[a + len] == data[b + len] {
        len += 1;
    }
    len
}

/// Recycled match-finder state; see the module docs for the stale-slot
/// rule that lets it go uncleared.
struct Matcher {
    head: Vec<u64>,
    prev: Vec<u16>,
    /// Absolute position of the current input's first byte.
    base: u64,
    /// Absolute position one past the current input's last byte.
    end: u64,
}

thread_local! {
    static MATCHER: std::cell::RefCell<Matcher> = const {
        std::cell::RefCell::new(Matcher {
            head: Vec::new(),
            prev: Vec::new(),
            base: 1,
            end: 1,
        })
    };
}

impl Matcher {
    /// Start on an input of `len` bytes.
    fn begin(&mut self, len: usize) {
        self.head.resize(HASH_SIZE, 0);
        if self.prev.len() < len {
            self.prev.resize(len, 0);
        }
        self.base = self.end;
        self.end += len as u64;
    }

    /// Make `i` the latest position of hash slot `slot`.
    #[inline]
    fn link(&mut self, i: usize, slot: usize) {
        let pos = self.base + i as u64;
        let head = std::mem::replace(&mut self.head[slot], pos);
        self.prev[i] = if head >= self.base {
            u16::try_from(pos - head).unwrap_or(0)
        } else {
            0
        };
    }

    #[inline]
    fn insert(&mut self, data: &[u8], i: usize) {
        if i + MIN_MATCH <= data.len() {
            self.link(i, hash4(data, i));
        }
    }

    /// Best `(offset, length)` match at position `i`, or `None`; with
    /// `INSERT`, position `i` is inserted afterwards (in one table visit).
    fn find<const INSERT: bool>(&mut self, data: &[u8], i: usize) -> Option<(usize, usize)> {
        if i + MIN_MATCH > data.len() {
            return None;
        }
        let limit = data.len() - i;
        let mut best_len = MIN_MATCH - 1;
        let mut best_off = 0usize;
        let slot = hash4(data, i);
        let mut cand = self.head[slot];
        if INSERT {
            // The walk below only reads `prev` of earlier positions.
            self.link(i, slot);
        }
        let min_pos = self.base + i.saturating_sub(WINDOW) as u64;
        let mut chain = 0;
        while cand >= min_pos && chain < MAX_CHAIN {
            let c = (cand - self.base) as usize;
            // A candidate that differs at `best_len` cannot beat it.
            if c < i && data[c + best_len] == data[i + best_len] {
                let len = match_len(data, c, i, limit);
                if len > best_len {
                    best_len = len;
                    best_off = i - c;
                    if len >= limit {
                        break;
                    }
                }
            }
            let back = self.prev[c];
            if back == 0 {
                break;
            }
            cand -= back as u64;
            chain += 1;
        }
        if best_len >= MIN_MATCH {
            Some((best_off, best_len))
        } else {
            None
        }
    }
}

fn write_len_ext(out: &mut Vec<u8>, mut rem: usize) {
    loop {
        if rem >= 255 {
            out.push(255);
            rem -= 255;
        } else {
            out.push(rem as u8);
            break;
        }
    }
}

fn emit(out: &mut Vec<u8>, literals: &[u8], m: Option<(usize, usize)>) {
    let lit_len = literals.len();
    let lit_code = lit_len.min(15) as u8;
    let (off, mlen) = m.unwrap_or((0, 0));
    let match_code = if m.is_some() {
        // Codes 1..=15 cover lengths MIN_MATCH..MIN_MATCH+14; 15 spills.
        ((mlen - MIN_MATCH + 1).min(15)) as u8
    } else {
        0
    };
    out.push(lit_code << 4 | match_code);
    if lit_len >= 15 {
        write_len_ext(out, lit_len - 15);
    }
    out.extend_from_slice(literals);
    if m.is_some() {
        out.extend_from_slice(&(off as u16).to_le_bytes());
        if mlen - MIN_MATCH + 1 >= 15 {
            write_len_ext(out, mlen - MIN_MATCH + 1 - 15);
        }
    } else {
        // End-of-stream: offset 0 sentinel.
        out.extend_from_slice(&0u16.to_le_bytes());
    }
}

/// Compress `data`. Output is self-terminating (ends with an EOS token).
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    compress_into(data, &mut out);
    out
}

/// Compress `data`, *appending* the stream to `out`. Identical bytes to
/// [`compress`]; the match-finder state is recycled per thread so
/// steady-state compression performs no heap allocation and no table fill.
pub fn compress_into(data: &[u8], out: &mut Vec<u8>) {
    MATCHER.with(|m| {
        let matcher = &mut *m.borrow_mut();
        matcher.begin(data.len());
        compress_with(data, matcher, out);
    });
}

/// The stream [`compress_into`] appends when it finds no match in `data`:
/// one literal run, then the end-of-stream token. It is byte for byte
/// that call's output whenever no match exists, without the search.
pub(crate) fn literal_run_into(data: &[u8], out: &mut Vec<u8>) {
    emit(out, data, None);
}

fn compress_with(data: &[u8], matcher: &mut Matcher, out: &mut Vec<u8>) {
    if data.is_empty() {
        emit(out, &[], None);
        return;
    }
    let mut i = 0usize;
    let mut lit_start = 0usize;
    while i < data.len() {
        match matcher.find::<true>(data, i) {
            Some((off, len)) => {
                // Lazy matching: if the next position has a strictly longer
                // match, emit this byte as a literal instead.
                let mut off = off;
                let mut len = len;
                let mut start = i;
                if let Some((off2, len2)) = matcher.find::<false>(data, i + 1) {
                    if len2 > len + 1 {
                        start = i + 1;
                        off = off2;
                        len = len2;
                    }
                }
                emit(out, &data[lit_start..start], Some((off, len)));
                // Index the covered region (sparsely for long matches).
                let end = start + len;
                let mut j = if start == i { i + 1 } else { start };
                let step = if len > 64 { 8 } else { 1 };
                while j < end && j < data.len() {
                    matcher.insert(data, j);
                    j += step;
                }
                i = end;
                lit_start = end;
            }
            None => i += 1,
        }
    }
    emit(out, &data[lit_start..], None);
}

fn read_len_ext(data: &[u8], pos: &mut usize) -> Result<usize, LzError> {
    let mut total = 0usize;
    loop {
        let b = *data.get(*pos).ok_or(LzError::Corrupt("truncated length"))?;
        *pos += 1;
        total += b as usize;
        if b != 255 {
            return Ok(total);
        }
    }
}

/// Decompress a stream produced by [`compress`].
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, LzError> {
    let mut out = Vec::with_capacity(data.len() * 3);
    decompress_into(data, &mut out)?;
    Ok(out)
}

/// Decompress a stream produced by [`compress`], *appending* the output
/// to `out` (bytes already present are preserved and are not valid
/// back-reference targets).
pub fn decompress_into(data: &[u8], out: &mut Vec<u8>) -> Result<(), LzError> {
    let base = out.len();
    let mut pos = 0usize;
    loop {
        let ctrl = *data.get(pos).ok_or(LzError::Corrupt("missing token"))?;
        pos += 1;
        let mut lit_len = (ctrl >> 4) as usize;
        let match_code = (ctrl & 0x0F) as usize;
        if lit_len == 15 {
            lit_len += read_len_ext(data, &mut pos)?;
        }
        let lits = data
            .get(pos..pos + lit_len)
            .ok_or(LzError::Corrupt("truncated literals"))?;
        out.extend_from_slice(lits);
        pos += lit_len;
        let off_bytes = data
            .get(pos..pos + 2)
            .ok_or(LzError::Corrupt("truncated offset"))?;
        let off = u16::from_le_bytes(off_bytes.try_into().unwrap()) as usize;
        pos += 2;
        if match_code == 0 {
            if off != 0 {
                return Err(LzError::Corrupt("nonzero offset on EOS token"));
            }
            return Ok(());
        }
        let mut mlen = match_code + MIN_MATCH - 1;
        if match_code == 15 {
            mlen += read_len_ext(data, &mut pos)?;
        }
        if off == 0 || off > out.len() - base {
            return Err(LzError::Corrupt("invalid back-reference"));
        }
        // Overlapping copies are valid (e.g. offset 1 = run-length).
        let start = out.len() - off;
        for k in 0..mlen {
            let b = out[start + k];
            out.push(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c).unwrap();
        assert_eq!(d, data, "round trip failed for len {}", data.len());
    }

    #[test]
    fn empty_input() {
        round_trip(&[]);
    }

    #[test]
    fn short_inputs() {
        for n in 1..16 {
            let data: Vec<u8> = (0..n as u8).collect();
            round_trip(&data);
        }
    }

    #[test]
    fn all_zeros_compresses_hard() {
        let data = vec![0u8; 1 << 16];
        let c = compress(&data);
        assert!(c.len() < 600, "zero page should collapse, got {}", c.len());
        round_trip(&data);
    }

    #[test]
    fn repeated_pattern() {
        let data: Vec<u8> = b"abcdefgh".iter().copied().cycle().take(10_000).collect();
        let c = compress(&data);
        assert!(c.len() < data.len() / 10);
        round_trip(&data);
    }

    #[test]
    fn incompressible_data_survives() {
        // Simple xorshift noise.
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..20_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        round_trip(&data);
        let c = compress(&data);
        // Expansion must be bounded (ctrl byte overhead per 15 literals).
        assert!(c.len() < data.len() + data.len() / 8 + 64);
    }

    #[test]
    fn overlapping_match_rle() {
        let mut data = vec![7u8; 300];
        data.extend_from_slice(b"tail");
        round_trip(&data);
    }

    #[test]
    fn long_literal_runs() {
        // Force lit_len extension path (>= 15 literals before any match).
        let mut data: Vec<u8> = (0..=255u8).collect();
        data.extend((0..=255u8).rev());
        round_trip(&data);
    }

    #[test]
    fn long_match_extension() {
        let mut data = vec![0xABu8; 5000];
        data[0] = 1; // ensure not the trivial all-same fast path
        round_trip(&data);
    }

    #[test]
    fn corrupt_stream_rejected() {
        let data = vec![1u8, 2, 3, 4, 5, 6, 7, 8];
        let mut c = compress(&data);
        c.truncate(2);
        assert!(decompress(&c).is_err());
    }

    #[test]
    fn decompress_into_appends_and_isolates_backrefs() {
        let data: Vec<u8> = b"xyxyxyxyxyxyxyxyxyxy".to_vec();
        let c = compress(&data);
        let mut out = vec![9u8, 8, 7];
        decompress_into(&c, &mut out).unwrap();
        assert_eq!(&out[..3], &[9, 8, 7]);
        assert_eq!(&out[3..], &data[..]);
        // A back-reference that would be valid with 3 bytes of history must
        // not see the pre-existing prefix: ctrl = 0 literals / match code 1
        // (len 4), offset 2.
        let stream = vec![0x01u8, 2, 0];
        let mut dirty = vec![1u8, 2, 3];
        assert!(decompress_into(&stream, &mut dirty).is_err());
    }

    #[test]
    fn compress_into_appends_identical_bytes() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 97) as u8).collect();
        let plain = compress(&data);
        let mut out = vec![0xEEu8; 2];
        compress_into(&data, &mut out);
        assert_eq!(&out[..2], &[0xEE, 0xEE]);
        assert_eq!(&out[2..], &plain[..]);
    }

    #[test]
    fn literal_run_is_the_stream_of_a_match_free_input() {
        // Distinct bytes: no 4-byte match anywhere.
        for data in [vec![], vec![9u8], (0..=255u8).collect::<Vec<_>>()] {
            let mut lit = Vec::new();
            literal_run_into(&data, &mut lit);
            assert_eq!(lit, compress(&data), "len {}", data.len());
        }
    }

    #[test]
    fn invalid_backref_rejected() {
        // ctrl: 0 literals, match code 1 (len 4), offset 9 with empty history.
        let stream = vec![0x01u8, 9, 0];
        assert!(decompress(&stream).is_err());
    }

    #[test]
    fn float_like_data() {
        let values: Vec<f64> = (0..4096).map(|i| (i as f64 * 0.001).sin() * 1e-3).collect();
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        round_trip(&bytes);
    }
}
