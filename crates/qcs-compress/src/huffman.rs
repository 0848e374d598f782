//! Canonical Huffman coding over an arbitrary symbol alphabet.
//!
//! Used in two places, mirroring the paper's pipelines: as the entropy stage
//! of `qzstd` (byte alphabet) and as the quantization-code coder inside the
//! SZ-style compressors (alphabet up to 65,537 symbols).
//!
//! Stream layout (all integers little-endian):
//!
//! ```text
//! [alphabet u32][count u64][header_len u32][header][payload_len u64][payload]
//! header  := (code_len u8, run u16)*      one code length per symbol, run-length coded
//! payload := canonical codes, most significant code bit first, packed LSB-first
//! ```
//!
//! so a stream is `24 + header_len + ceil(sum(freq * code_len) / 8)` bytes
//! long, which the encoder knows once it has the histogram
//! ([`encode_bytes_if_smaller`] uses that to skip hopeless payloads).
//!
//! **Code lengths** come from one sort of the live symbols by
//! `(frequency, symbol)` and a two-queue merge: sorted leaves in one queue,
//! merged nodes (whose weights come out non-decreasing) in the other, leaves
//! winning weight ties. Lengths are limited to [`MAX_CODE_LEN`] bits by
//! halving the frequencies and rebuilding, which keeps the decoder tables
//! small and bounded.
//!
//! **Encoder table**: one `u32` per symbol, `bit_reversed_code << 5 | len`;
//! the code is stored already reversed because the bit writer is LSB-first
//! and canonical codes go out most significant bit first.
//!
//! **Decoder table**: `2^min(max_len, TABLE_BITS)` entries indexed by the
//! next bits of the stream, each `symbol << 5 | len` or 0. A code shorter
//! than the index fills every entry it prefixes. An entry of 0 (a longer
//! code, or an invalid one) falls back to the canonical walk: for each
//! length, the codes are `first_code[len] .. first_code[len] + count[len]`
//! and map to consecutive slots of the symbols sorted by `(len, symbol)`.
//!
//! All working tables live in one recycled per-thread workspace, so
//! steady-state coding performs no heap allocation.

use crate::bitio::{bytes, BitReader, BitWriter};
use std::cell::RefCell;

/// Maximum admissible code length in bits.
pub const MAX_CODE_LEN: u32 = 24;

/// Errors produced by the Huffman coder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HuffmanError {
    /// The compressed stream is truncated or malformed.
    Corrupt(&'static str),
    /// A symbol outside the declared alphabet was encountered while encoding.
    SymbolOutOfRange {
        /// The offending symbol.
        symbol: u32,
        /// The declared alphabet size.
        alphabet: u32,
    },
}

impl std::fmt::Display for HuffmanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HuffmanError::Corrupt(msg) => write!(f, "corrupt huffman stream: {msg}"),
            HuffmanError::SymbolOutOfRange { symbol, alphabet } => {
                write!(f, "symbol {symbol} out of alphabet range {alphabet}")
            }
        }
    }
}

impl std::error::Error for HuffmanError {}

/// Index width of the decoder's lookup table.
const TABLE_BITS: u32 = 11;
/// Low bits of a table entry holding the code length.
const LEN_BITS: u32 = 5;
const LEN_MASK: u32 = (1 << LEN_BITS) - 1;

/// A node of the code-length tree. Leaves come first, sorted; merged
/// nodes follow in creation order.
#[derive(Clone, Copy, Default)]
struct Node {
    weight: u64,
    /// The symbol (leaves only).
    sym: u32,
    /// Index of the parent node, then (after the build) the node's depth.
    parent: u32,
}

/// Recycled working tables, one set per thread.
struct Workspace {
    /// Encoder: occurrences per symbol.
    freqs: Vec<u64>,
    /// Encoder: code length per symbol.
    lens: Vec<u8>,
    /// Encoder: table entry per symbol. Decoder: symbols by `(len, symbol)`.
    codes: Vec<u32>,
    nodes: Vec<Node>,
    /// Encoder: the other half of the sort's double buffer.
    spare: Vec<Node>,
}

thread_local! {
    static WORK: RefCell<Workspace> = const {
        RefCell::new(Workspace {
            freqs: Vec::new(),
            lens: Vec::new(),
            codes: Vec::new(),
            nodes: Vec::new(),
            spare: Vec::new(),
        })
    };
}

/// Stable sort of `nodes` by weight: one counting pass per byte of the
/// weights that is in use at all. Fed in symbol order, it leaves the
/// nodes ordered by `(weight, symbol)`.
fn sort_by_weight(nodes: &mut Vec<Node>, spare: &mut Vec<Node>) {
    let used = nodes.iter().fold(0, |bits, n| bits | n.weight);
    // Every slot is overwritten by each pass, so stale contents are fine.
    spare.resize(nodes.len(), Node::default());
    for shift in (0..64).step_by(8).take_while(|&shift| used >> shift != 0) {
        let digit = |n: &Node| (n.weight >> shift) as usize & 0xFF;
        let mut next = [0usize; 256];
        for n in nodes.iter() {
            next[digit(n)] += 1;
        }
        let mut start = 0;
        for slot in &mut next {
            start += std::mem::replace(slot, start);
        }
        for n in nodes.iter() {
            spare[next[digit(n)]] = *n;
            next[digit(n)] += 1;
        }
        std::mem::swap(nodes, spare);
    }
}

/// Build the tree over the `m >= 2` sorted leaves in `nodes` and leave
/// each leaf's depth in its `parent` field. Returns the largest.
///
/// Pops in the order a min-heap over `(weight, node index)` would: leaves
/// (lower indices) before merged nodes of equal weight, merged nodes in
/// creation order.
fn leaf_depths(nodes: &mut Vec<Node>) -> u32 {
    let m = nodes.len();
    let (mut leaf, mut merged) = (0, m);
    for next in m..2 * m - 1 {
        let mut weight = 0;
        for _ in 0..2 {
            let take_leaf =
                leaf < m && (merged == next || nodes[leaf].weight <= nodes[merged].weight);
            let queue = if take_leaf { &mut leaf } else { &mut merged };
            nodes[*queue].parent = next as u32;
            weight += nodes[*queue].weight;
            *queue += 1;
        }
        nodes.push(Node {
            weight,
            ..Node::default()
        });
    }
    // A parent always has the higher index, so walking down from the root
    // (depth 0, already in place) finds every parent's depth settled.
    for i in (0..2 * m - 2).rev() {
        nodes[i].parent = nodes[nodes[i].parent as usize].parent + 1;
    }
    nodes[..m].iter().map(|n| n.parent).max().unwrap_or(0)
}

/// Fill `ws.lens` with one code length per symbol for the histogram in
/// `ws.freqs` (0 for absent symbols, otherwise `1..=MAX_CODE_LEN`) and
/// return the payload size in bits.
fn code_lengths(ws: &mut Workspace) -> u64 {
    ws.lens.clear();
    ws.lens.resize(ws.freqs.len(), 0);
    let mut m = 0;
    for round in 0.. {
        // The length limit: flatten the distribution by halving every
        // frequency (rounding up) once more and rebuild. Convergence is
        // guaranteed because all nonzero frequencies head toward 1.
        let live = ws.freqs.iter().enumerate().filter(|(_, &f)| f > 0);
        ws.nodes.clear();
        ws.nodes.extend(live.map(|(s, &f)| Node {
            weight: f.div_ceil(1 << round),
            sym: s as u32,
            // A single distinct symbol still needs one bit on the wire.
            parent: 1,
        }));
        m = ws.nodes.len();
        if m < 2 {
            break;
        }
        sort_by_weight(&mut ws.nodes, &mut ws.spare);
        if leaf_depths(&mut ws.nodes) <= MAX_CODE_LEN {
            break;
        }
    }
    let mut bits = 0;
    for n in &ws.nodes[..m] {
        ws.lens[n.sym as usize] = n.parent as u8;
        bits += ws.freqs[n.sym as usize] * n.parent as u64;
    }
    bits
}

/// Run-length view of the code lengths, as the header stores them.
fn runs(lens: &[u8]) -> impl Iterator<Item = (u8, u16)> + '_ {
    lens.chunk_by(|a, b| a == b)
        .flat_map(|run| run.chunks(u16::MAX as usize))
        .map(|run| (run[0], run.len() as u16))
}

/// `first_code[len]`: the canonical code of the first symbol of each
/// length, given how many symbols have each length (shorter codes first,
/// ties broken by symbol order).
fn first_codes(count: &[u32; MAX_CODE_LEN as usize + 1]) -> [u32; MAX_CODE_LEN as usize + 1] {
    let mut first = [0u32; MAX_CODE_LEN as usize + 1];
    for len in 1..=MAX_CODE_LEN as usize {
        first[len] = (first[len - 1] + count[len - 1]) << 1;
    }
    first
}

/// The low `len` bits of `code`, most significant first.
#[inline]
fn reversed(code: u32, len: u32) -> u32 {
    code.reverse_bits() >> (32 - len)
}

/// A symbol type the encoder reads.
trait Symbol: Copy + Into<u32> {
    /// Add the occurrences of each symbol in `symbols` to its slot of
    /// `freqs`, one slot per symbol of the alphabet.
    fn count(symbols: &[Self], freqs: &mut [u64]) -> Result<(), HuffmanError>;
}

impl Symbol for u32 {
    fn count(symbols: &[u32], freqs: &mut [u64]) -> Result<(), HuffmanError> {
        let alphabet = freqs.len() as u32;
        for &symbol in symbols {
            let slot = freqs.get_mut(symbol as usize);
            *slot.ok_or(HuffmanError::SymbolOutOfRange { symbol, alphabet })? += 1;
        }
        Ok(())
    }
}

impl Symbol for u8 {
    /// Four `u32` stripes, so a run of one byte value does not wait on
    /// its own previous increment; each chunk is short enough that no
    /// stripe count can overflow.
    fn count(symbols: &[u8], freqs: &mut [u64]) -> Result<(), HuffmanError> {
        for chunk in symbols.chunks(u32::MAX as usize) {
            let mut stripes = [[0u32; 256]; 4];
            let mut quads = chunk.chunks_exact(4);
            for q in &mut quads {
                for (stripe, &b) in stripes.iter_mut().zip(q) {
                    stripe[b as usize] += 1;
                }
            }
            for &b in quads.remainder() {
                stripes[0][b as usize] += 1;
            }
            for (s, f) in freqs.iter_mut().enumerate() {
                *f += stripes
                    .iter()
                    .map(|stripe| u64::from(stripe[s]))
                    .sum::<u64>();
            }
        }
        Ok(())
    }
}

/// Shared encoder: append the stream for `symbols` to `out` unless it
/// would be `limit` bytes or longer. Returns whether it was appended.
fn encode_core<T: Symbol>(
    symbols: &[T],
    alphabet: u32,
    limit: usize,
    out: &mut Vec<u8>,
) -> Result<bool, HuffmanError> {
    WORK.with(|ws| {
        let ws = &mut *ws.borrow_mut();
        ws.freqs.clear();
        ws.freqs.resize(alphabet as usize, 0);
        T::count(symbols, &mut ws.freqs)?;
        let payload_len = code_lengths(ws).div_ceil(8) as usize;
        let header_len = 3 * runs(&ws.lens).count();
        let total = 24 + header_len + payload_len;
        if total >= limit {
            return Ok(false);
        }

        let mut count = [0u32; MAX_CODE_LEN as usize + 1];
        for &l in ws.lens.iter().filter(|&&l| l > 0) {
            count[l as usize] += 1;
        }
        let mut next_code = first_codes(&count);
        ws.codes.resize(alphabet as usize, 0);
        for (entry, &l) in ws.codes.iter_mut().zip(&ws.lens).filter(|(_, &l)| l > 0) {
            let code = &mut next_code[l as usize];
            *entry = reversed(*code, l as u32) << LEN_BITS | l as u32;
            *code += 1;
        }

        out.reserve(total);
        bytes::put_u32(out, alphabet);
        bytes::put_u64(out, symbols.len() as u64);
        bytes::put_u32(out, header_len as u32);
        for (l, run) in runs(&ws.lens) {
            out.push(l);
            out.extend_from_slice(&run.to_le_bytes());
        }
        bytes::put_u64(out, payload_len as u64);
        let mut w = BitWriter::appending_to(std::mem::take(out));
        for &s in symbols {
            let entry = ws.codes[s.into() as usize];
            w.write_bits((entry >> LEN_BITS) as u64, entry & LEN_MASK);
        }
        *out = w.into_bytes();
        Ok(true)
    })
}

/// Encode `symbols` (each `< alphabet`) into a self-describing byte stream.
pub fn encode(symbols: &[u32], alphabet: u32) -> Result<Vec<u8>, HuffmanError> {
    let mut out = Vec::new();
    encode_into(symbols, alphabet, &mut out)?;
    Ok(out)
}

/// [`encode`], *appending* the stream to `out`.
pub fn encode_into(symbols: &[u32], alphabet: u32, out: &mut Vec<u8>) -> Result<(), HuffmanError> {
    encode_core(symbols, alphabet, usize::MAX, out).map(|_| ())
}

/// Convenience wrapper for byte-alphabet payloads.
pub fn encode_bytes(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_bytes_into(data, &mut out);
    out
}

/// [`encode_bytes`], *appending* the stream to `out`.
pub fn encode_bytes_into(data: &[u8], out: &mut Vec<u8>) {
    encode_bytes_if_smaller(data, usize::MAX, out);
}

/// [`encode_bytes_into`] if the stream is shorter than `limit` bytes:
/// returns `true` and appends it, or returns `false` and leaves `out`
/// untouched. The length is known from the histogram, so a `false` costs
/// no payload pass.
pub fn encode_bytes_if_smaller(data: &[u8], limit: usize, out: &mut Vec<u8>) -> bool {
    encode_core(data, 256, limit, out).expect("byte symbols are always in range")
}

/// Shared decoder: append the symbols of `data` to `out`.
fn decode_core<T: TryFrom<u32>>(data: &[u8], out: &mut Vec<T>) -> Result<(), HuffmanError> {
    let mut pos = 0usize;
    let alphabet =
        bytes::get_u32(data, &mut pos).ok_or(HuffmanError::Corrupt("missing alphabet"))?;
    let n = bytes::get_u64(data, &mut pos).ok_or(HuffmanError::Corrupt("missing count"))?;
    let header_len =
        bytes::get_u32(data, &mut pos).ok_or(HuffmanError::Corrupt("missing header len"))? as usize;
    let header = data[pos..]
        .get(..header_len)
        .ok_or(HuffmanError::Corrupt("truncated header"))?;
    pos += header_len;
    let payload_len =
        bytes::get_u64(data, &mut pos).ok_or(HuffmanError::Corrupt("missing payload len"))?;
    let payload = usize::try_from(payload_len)
        .ok()
        .and_then(|len| data[pos..].get(..len))
        .ok_or(HuffmanError::Corrupt("truncated payload"))?;
    // Every symbol costs at least one payload bit: a count beyond that
    // is corrupt, and checking here bounds the reservation below.
    if n.div_ceil(8) > payload.len() as u64 {
        return Err(HuffmanError::Corrupt("count exceeds payload bits"));
    }
    let n = n as usize;

    // First pass over the header, allocating nothing: the lengths must be
    // in range, cover the alphabet exactly and not over-subscribe the
    // code space (Kraft sum <= 1, in units of 2^-MAX_CODE_LEN).
    let runs = || {
        header
            .chunks_exact(3)
            .map(|r| (r[0] as usize, u16::from_le_bytes([r[1], r[2]])))
    };
    let mut count = [0u32; MAX_CODE_LEN as usize + 1];
    let (mut described, mut kraft) = (0u64, 0u64);
    for (l, run) in runs() {
        if l > MAX_CODE_LEN as usize {
            return Err(HuffmanError::Corrupt("code length exceeds limit"));
        }
        described += run as u64;
        if l > 0 {
            count[l] += run as u32;
            kraft += (run as u64) << (MAX_CODE_LEN as usize - l);
            if kraft > 1 << MAX_CODE_LEN {
                return Err(HuffmanError::Corrupt("over-subscribed code lengths"));
            }
        }
    }
    if described != alphabet as u64 {
        return Err(HuffmanError::Corrupt("header length mismatch"));
    }
    let Some(max_len) = (1..=MAX_CODE_LEN).rev().find(|&l| count[l as usize] > 0) else {
        return match n {
            0 => Ok(()),
            _ => Err(HuffmanError::Corrupt("symbols without any code")),
        };
    };

    let first_code = first_codes(&count);
    let mut first_index = [0u32; MAX_CODE_LEN as usize + 1];
    for len in 1..=MAX_CODE_LEN as usize {
        first_index[len] = first_index[len - 1] + count[len - 1];
    }
    let table_bits = max_len.min(TABLE_BITS);
    let mut table = [0u32; 1 << TABLE_BITS];

    WORK.with(|ws| {
        // Second pass: the Kraft bound caps the live symbols at
        // 2^MAX_CODE_LEN, whatever the header claims for the alphabet.
        let mut ws = ws.borrow_mut();
        let sorted = &mut ws.codes;
        sorted.clear();
        sorted.resize(
            (first_index[max_len as usize] + count[max_len as usize]) as usize,
            0,
        );
        let mut next = first_index;
        let mut sym = 0u32;
        for (l, run) in runs() {
            if l > 0 {
                for s in sym..sym + run as u32 {
                    let rank = next[l] - first_index[l];
                    sorted[next[l] as usize] = s;
                    next[l] += 1;
                    if l as u32 <= table_bits && s <= u32::MAX >> LEN_BITS {
                        let code = reversed(first_code[l] + rank, l as u32) as usize;
                        for slot in table[code..1 << table_bits].iter_mut().step_by(1 << l) {
                            *slot = s << LEN_BITS | l as u32;
                        }
                    }
                }
            }
            sym += run as u32;
        }

        let mut r = BitReader::new(payload);
        out.reserve(n);
        for _ in 0..n {
            if r.bits_buffered() < MAX_CODE_LEN {
                r.refill();
            }
            let entry = table[r.peek() as usize & ((1 << table_bits) - 1)];
            let (symbol, len) = if entry != 0 {
                (entry >> LEN_BITS, entry & LEN_MASK)
            } else {
                // Longer than the table index: walk the lengths with the
                // next bits most significant first, as the codes are.
                let window = (r.peek() as u32).reverse_bits();
                (1..=max_len)
                    .find_map(|len| {
                        let rank = (window >> (32 - len)).wrapping_sub(first_code[len as usize]);
                        (rank < count[len as usize])
                            .then(|| (sorted[(first_index[len as usize] + rank) as usize], len))
                    })
                    .ok_or(HuffmanError::Corrupt("invalid code"))?
            };
            if len > r.bits_buffered() {
                return Err(HuffmanError::Corrupt("truncated payload"));
            }
            r.consume(len);
            let symbol = T::try_from(symbol);
            out.push(symbol.map_err(|_| HuffmanError::Corrupt("symbol exceeds byte range"))?);
        }
        Ok(())
    })
}

/// Decode a stream produced by [`encode`].
pub fn decode(data: &[u8]) -> Result<Vec<u32>, HuffmanError> {
    let mut out = Vec::new();
    decode_into(data, &mut out)?;
    Ok(out)
}

/// [`decode`], *appending* the symbols to `out`.
pub fn decode_into(data: &[u8], out: &mut Vec<u32>) -> Result<(), HuffmanError> {
    decode_core(data, out)
}

/// Inverse of [`encode_bytes`].
pub fn decode_bytes(data: &[u8]) -> Result<Vec<u8>, HuffmanError> {
    let mut out = Vec::new();
    decode_bytes_into(data, &mut out)?;
    Ok(out)
}

/// [`decode_bytes`], *appending* the bytes to `out`.
pub fn decode_bytes_into(data: &[u8], out: &mut Vec<u8>) -> Result<(), HuffmanError> {
    decode_core(data, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_bytes() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i * 7 % 251) as u8).collect();
        let enc = encode_bytes(&data);
        let dec = decode_bytes(&enc).unwrap();
        assert_eq!(dec, data);
    }

    #[test]
    fn round_trip_empty() {
        let enc = encode_bytes(&[]);
        assert_eq!(decode_bytes(&enc).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn round_trip_single_symbol() {
        let data = vec![42u8; 1000];
        let enc = encode_bytes(&data);
        assert_eq!(decode_bytes(&enc).unwrap(), data);
        // One distinct symbol compresses to roughly n/8 payload bytes.
        assert!(enc.len() < 400, "got {}", enc.len());
    }

    #[test]
    fn round_trip_large_alphabet() {
        let symbols: Vec<u32> = (0..50_000u32).map(|i| (i * i) % 65_537).collect();
        let enc = encode(&symbols, 65_537).unwrap();
        assert_eq!(decode(&enc).unwrap(), symbols);
    }

    #[test]
    fn skewed_distribution_compresses() {
        // 95% zeros, 5% spread: entropy coding should be well below 8 bits/sym.
        let mut data = vec![0u8; 95_000];
        data.extend((0..5_000u32).map(|i| (i % 255 + 1) as u8));
        let enc = encode_bytes(&data);
        assert!(
            enc.len() < data.len() / 2,
            "expected <50% of input, got {} / {}",
            enc.len(),
            data.len()
        );
    }

    #[test]
    fn symbol_out_of_range_is_an_error() {
        let err = encode(&[5], 4).unwrap_err();
        assert_eq!(
            err,
            HuffmanError::SymbolOutOfRange {
                symbol: 5,
                alphabet: 4
            }
        );
    }

    #[test]
    fn corrupt_stream_is_rejected() {
        let data: Vec<u8> = (0..100).collect();
        let mut enc = encode_bytes(&data);
        enc.truncate(enc.len() - 4);
        assert!(decode_bytes(&enc).is_err());
    }

    #[test]
    fn lengths_respect_limit_on_pathological_input() {
        // Fibonacci-like frequencies drive unrestricted Huffman depths deep.
        let mut freqs = vec![0u64; 64];
        let (mut a, mut b) = (1u64, 1u64);
        for f in freqs.iter_mut() {
            *f = a;
            let c = a.saturating_add(b);
            a = b;
            b = c;
        }
        let mut ws = Workspace {
            freqs: freqs.clone(),
            lens: Vec::new(),
            codes: Vec::new(),
            nodes: Vec::new(),
            spare: Vec::new(),
        };
        code_lengths(&mut ws);
        assert!(ws
            .lens
            .iter()
            .all(|&l| (1..=MAX_CODE_LEN).contains(&(l as u32))));
        assert_eq!(ws.lens.iter().max(), Some(&(MAX_CODE_LEN as u8)));
        // And the resulting canonical code must still round-trip.
        let mut symbols = Vec::new();
        for (s, &f) in freqs.iter().enumerate() {
            for _ in 0..(f.min(3)) {
                symbols.push(s as u32);
            }
        }
        let enc = encode(&symbols, 64).unwrap();
        assert_eq!(decode(&enc).unwrap(), symbols);
    }
}
