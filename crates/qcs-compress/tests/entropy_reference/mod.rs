//! The entropy back end as it stood before it was rewritten to work a
//! machine word at a time: the bit-at-a-time `BitWriter`/`BitReader`, the
//! heap-built Huffman coder and the LZ77 matcher that refills its tables on
//! every call, copied from that commit (only the two byte-alphabet
//! wrappers differ: they used per-thread scratch the library keeps private).
//! Kept here — and nowhere in the library — as the definition of the byte
//! streams the library must emit.

#![allow(dead_code)]

pub mod bitio {
    /// Append-only bit writer backed by a `Vec<u8>`.
    #[derive(Debug, Default, Clone)]
    pub struct BitWriter {
        buf: Vec<u8>,
        /// Number of valid bits in the final byte of `buf` (0 means byte-aligned).
        bit_pos: u32,
    }

    impl BitWriter {
        /// Create an empty writer.
        pub fn new() -> Self {
            Self::default()
        }

        /// Create a writer with capacity for roughly `bits` bits.
        pub fn with_bit_capacity(bits: usize) -> Self {
            Self {
                buf: Vec::with_capacity(bits / 8 + 1),
                bit_pos: 0,
            }
        }

        /// Total number of bits written so far.
        pub fn bit_len(&self) -> usize {
            if self.bit_pos == 0 {
                self.buf.len() * 8
            } else {
                (self.buf.len() - 1) * 8 + self.bit_pos as usize
            }
        }

        /// Write a single bit.
        #[inline]
        pub fn write_bit(&mut self, bit: bool) {
            if self.bit_pos == 0 {
                self.buf.push(0);
            }
            if bit {
                let last = self.buf.len() - 1;
                self.buf[last] |= 1 << self.bit_pos;
            }
            self.bit_pos = (self.bit_pos + 1) % 8;
        }

        /// Write the low `count` bits of `value`, LSB-first. `count <= 64`.
        #[inline]
        pub fn write_bits(&mut self, value: u64, count: u32) {
            debug_assert!(count <= 64);
            debug_assert!(count == 64 || value < (1u64 << count) || count == 0);
            let mut remaining = count;
            let mut v = value;
            while remaining > 0 {
                if self.bit_pos == 0 {
                    self.buf.push(0);
                }
                let free = 8 - self.bit_pos;
                let take = free.min(remaining);
                let mask = if take == 64 {
                    u64::MAX
                } else {
                    (1u64 << take) - 1
                };
                let chunk = (v & mask) as u8;
                let last = self.buf.len() - 1;
                self.buf[last] |= chunk << self.bit_pos;
                self.bit_pos = (self.bit_pos + take) % 8;
                v >>= take;
                remaining -= take;
            }
        }

        /// Pad with zero bits to the next byte boundary.
        pub fn align(&mut self) {
            self.bit_pos = 0;
        }

        /// Consume the writer, returning the packed bytes.
        pub fn into_bytes(self) -> Vec<u8> {
            self.buf
        }

        /// Borrow the packed bytes written so far (final byte may be partial).
        pub fn as_bytes(&self) -> &[u8] {
            &self.buf
        }
    }

    /// Sequential bit reader over a byte slice.
    #[derive(Debug, Clone)]
    pub struct BitReader<'a> {
        buf: &'a [u8],
        byte_pos: usize,
        bit_pos: u32,
    }

    /// Error returned when a reader runs past the end of its buffer.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct BitReadError;

    impl std::fmt::Display for BitReadError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "bit reader ran out of input")
        }
    }

    impl std::error::Error for BitReadError {}

    impl<'a> BitReader<'a> {
        /// Create a reader positioned at the first bit of `buf`.
        pub fn new(buf: &'a [u8]) -> Self {
            Self {
                buf,
                byte_pos: 0,
                bit_pos: 0,
            }
        }

        /// Number of bits consumed so far.
        pub fn bits_read(&self) -> usize {
            self.byte_pos * 8 + self.bit_pos as usize
        }

        /// Number of bits remaining.
        pub fn bits_remaining(&self) -> usize {
            self.buf.len() * 8 - self.bits_read()
        }

        /// Read one bit.
        #[inline]
        pub fn read_bit(&mut self) -> Result<bool, BitReadError> {
            if self.byte_pos >= self.buf.len() {
                return Err(BitReadError);
            }
            let bit = (self.buf[self.byte_pos] >> self.bit_pos) & 1 == 1;
            self.bit_pos += 1;
            if self.bit_pos == 8 {
                self.bit_pos = 0;
                self.byte_pos += 1;
            }
            Ok(bit)
        }

        /// Read `count` bits, LSB-first. `count <= 64`.
        #[inline]
        pub fn read_bits(&mut self, count: u32) -> Result<u64, BitReadError> {
            debug_assert!(count <= 64);
            let mut out = 0u64;
            let mut got = 0u32;
            while got < count {
                if self.byte_pos >= self.buf.len() {
                    return Err(BitReadError);
                }
                let avail = 8 - self.bit_pos;
                let take = avail.min(count - got);
                let mask = ((1u16 << take) - 1) as u8;
                let chunk = (self.buf[self.byte_pos] >> self.bit_pos) & mask;
                out |= (chunk as u64) << got;
                self.bit_pos += take;
                if self.bit_pos == 8 {
                    self.bit_pos = 0;
                    self.byte_pos += 1;
                }
                got += take;
            }
            Ok(out)
        }

        /// Skip to the next byte boundary.
        pub fn align(&mut self) {
            if self.bit_pos != 0 {
                self.bit_pos = 0;
                self.byte_pos += 1;
            }
        }
    }

    /// Little-endian byte-level helpers used by codec headers.
    pub mod bytes {
        /// Append a `u64` in little-endian order.
        #[inline]
        pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
            buf.extend_from_slice(&v.to_le_bytes());
        }

        /// Append a `u32` in little-endian order.
        #[inline]
        pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
            buf.extend_from_slice(&v.to_le_bytes());
        }

        /// Append an `f64` in little-endian order.
        #[inline]
        pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
            buf.extend_from_slice(&v.to_le_bytes());
        }

        /// Read a `u64` at `pos`, advancing `pos`.
        #[inline]
        pub fn get_u64(buf: &[u8], pos: &mut usize) -> Option<u64> {
            let bytes = buf.get(*pos..*pos + 8)?;
            *pos += 8;
            Some(u64::from_le_bytes(bytes.try_into().ok()?))
        }

        /// Read a `u32` at `pos`, advancing `pos`.
        #[inline]
        pub fn get_u32(buf: &[u8], pos: &mut usize) -> Option<u32> {
            let bytes = buf.get(*pos..*pos + 4)?;
            *pos += 4;
            Some(u32::from_le_bytes(bytes.try_into().ok()?))
        }

        /// Read an `f64` at `pos`, advancing `pos`.
        #[inline]
        pub fn get_f64(buf: &[u8], pos: &mut usize) -> Option<f64> {
            let bytes = buf.get(*pos..*pos + 8)?;
            *pos += 8;
            Some(f64::from_le_bytes(bytes.try_into().ok()?))
        }
    }
}

pub mod huffman {
    use super::bitio::{bytes, BitReader, BitWriter};

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

    /// Compute Huffman code lengths for `freqs` (one entry per symbol).
    ///
    /// Returns one length per symbol; zero-frequency symbols get length 0.
    /// Lengths are guaranteed `<= MAX_CODE_LEN`.
    fn code_lengths(freqs: &[u64]) -> Vec<u32> {
        let mut freqs: Vec<u64> = freqs.to_vec();
        loop {
            let lens = unrestricted_code_lengths(&freqs);
            let max = lens.iter().copied().max().unwrap_or(0);
            if max <= MAX_CODE_LEN {
                return lens;
            }
            // Flatten the distribution and retry; convergence is guaranteed
            // because all nonzero frequencies head toward 1.
            for f in freqs.iter_mut() {
                if *f > 1 {
                    *f = (*f).div_ceil(2);
                }
            }
        }
    }

    /// Classic two-queue Huffman construction returning code lengths.
    pub fn unrestricted_code_lengths(freqs: &[u64]) -> Vec<u32> {
        #[derive(Clone, Copy)]
        struct Node {
            // Indices into the nodes arena; leaves are 0..n.
            left: usize,
            right: usize,
        }
        const LEAF: usize = usize::MAX;

        let n = freqs.len();
        let mut lens = vec![0u32; n];
        let live: Vec<usize> = (0..n).filter(|&i| freqs[i] > 0).collect();
        match live.len() {
            0 => return lens,
            1 => {
                // A single distinct symbol still needs one bit on the wire.
                lens[live[0]] = 1;
                return lens;
            }
            _ => {}
        }

        let mut arena: Vec<Node> = (0..n)
            .map(|_| Node {
                left: LEAF,
                right: LEAF,
            })
            .collect();

        // Min-heap of (freq, arena index). BinaryHeap is a max-heap, so use Reverse.
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
            live.iter().map(|&i| Reverse((freqs[i], i))).collect();

        while heap.len() > 1 {
            let Reverse((fa, a)) = heap.pop().unwrap();
            let Reverse((fb, b)) = heap.pop().unwrap();
            let idx = arena.len();
            arena.push(Node { left: a, right: b });
            heap.push(Reverse((fa + fb, idx)));
        }
        let root = heap.pop().unwrap().0 .1;

        // Iterative depth-first traversal assigning depths to leaves.
        let mut stack = vec![(root, 0u32)];
        while let Some((idx, depth)) = stack.pop() {
            let node = arena[idx];
            if node.left == LEAF {
                lens[idx] = depth.max(1);
            } else {
                stack.push((node.left, depth + 1));
                stack.push((node.right, depth + 1));
            }
        }
        lens
    }

    /// Assign canonical codes given code lengths (shorter codes first,
    /// ties broken by symbol order). Returns `(code, len)` per symbol.
    fn canonical_codes(lens: &[u32]) -> Vec<(u32, u32)> {
        let max_len = lens.iter().copied().max().unwrap_or(0);
        let mut bl_count = vec![0u32; max_len as usize + 1];
        for &l in lens {
            if l > 0 {
                bl_count[l as usize] += 1;
            }
        }
        let mut next_code = vec![0u32; max_len as usize + 2];
        let mut code = 0u32;
        for bits in 1..=max_len {
            code = (code + bl_count[bits as usize - 1]) << 1;
            next_code[bits as usize] = code;
        }
        lens.iter()
            .map(|&l| {
                if l == 0 {
                    (0, 0)
                } else {
                    let c = next_code[l as usize];
                    next_code[l as usize] += 1;
                    (c, l)
                }
            })
            .collect()
    }

    /// Encode `symbols` (each `< alphabet`) into a self-describing byte stream.
    pub fn encode(symbols: &[u32], alphabet: u32) -> Result<Vec<u8>, HuffmanError> {
        let mut out = Vec::new();
        encode_into(symbols, alphabet, &mut out)?;
        Ok(out)
    }

    /// [`encode`], *appending* the stream to `out`.
    pub fn encode_into(
        symbols: &[u32],
        alphabet: u32,
        out: &mut Vec<u8>,
    ) -> Result<(), HuffmanError> {
        let mut freqs = vec![0u64; alphabet as usize];
        for &s in symbols {
            let slot = freqs
                .get_mut(s as usize)
                .ok_or(HuffmanError::SymbolOutOfRange {
                    symbol: s,
                    alphabet,
                })?;
            *slot += 1;
        }
        let lens = code_lengths(&freqs);
        let codes = canonical_codes(&lens);

        bytes::put_u32(out, alphabet);
        bytes::put_u64(out, symbols.len() as u64);

        // Header: code lengths, run-length encoded as (len: u8, run: u16) pairs.
        let mut header = Vec::new();
        let mut i = 0usize;
        while i < lens.len() {
            let l = lens[i];
            let mut run = 1usize;
            while i + run < lens.len() && lens[i + run] == l && run < u16::MAX as usize {
                run += 1;
            }
            header.push(l as u8);
            header.extend_from_slice(&(run as u16).to_le_bytes());
            i += run;
        }
        bytes::put_u32(out, header.len() as u32);
        out.extend_from_slice(&header);

        // Payload: codes MSB-first within the LSB-first bit writer, so we reverse
        // bits here and read naturally on decode via table lookups.
        let mut w = BitWriter::with_bit_capacity(symbols.len() * 8);
        for &s in symbols {
            let (code, len) = codes[s as usize];
            debug_assert!(len > 0, "encoding a symbol with zero frequency");
            // Emit MSB-first so canonical prefix decoding works.
            for bit in (0..len).rev() {
                w.write_bit((code >> bit) & 1 == 1);
            }
        }
        let payload = w.into_bytes();
        bytes::put_u64(out, payload.len() as u64);
        out.extend_from_slice(&payload);
        Ok(())
    }

    /// Decoder table built from canonical code lengths.
    struct Decoder {
        /// `(first_code, first_symbol_index)` per length.
        first_code: Vec<u32>,
        first_index: Vec<u32>,
        count: Vec<u32>,
        /// Symbols ordered canonically (by length, then symbol value).
        symbols: Vec<u32>,
        max_len: u32,
    }

    impl Decoder {
        fn from_lens(lens: &[u32]) -> Self {
            let max_len = lens.iter().copied().max().unwrap_or(0);
            let mut count = vec![0u32; max_len as usize + 1];
            for &l in lens {
                if l > 0 {
                    count[l as usize] += 1;
                }
            }
            let mut symbols = Vec::new();
            for target in 1..=max_len {
                for (sym, &l) in lens.iter().enumerate() {
                    if l == target {
                        symbols.push(sym as u32);
                    }
                }
            }
            let mut first_code = vec![0u32; max_len as usize + 2];
            let mut first_index = vec![0u32; max_len as usize + 2];
            let mut code = 0u32;
            let mut index = 0u32;
            for bits in 1..=max_len {
                code = (code
                    + if bits >= 2 {
                        count[bits as usize - 1]
                    } else {
                        0
                    })
                    << 1;
                // Mirror the canonical assignment in `canonical_codes`.
                first_code[bits as usize] = code;
                first_index[bits as usize] = index;
                index += count[bits as usize];
            }
            Self {
                first_code,
                first_index,
                count,
                symbols,
                max_len,
            }
        }

        fn decode_one(&self, r: &mut BitReader<'_>) -> Result<u32, HuffmanError> {
            let mut code = 0u32;
            for len in 1..=self.max_len {
                code = (code << 1)
                    | r.read_bit()
                        .map_err(|_| HuffmanError::Corrupt("truncated payload"))?
                        as u32;
                let cnt = self.count[len as usize];
                if cnt > 0 {
                    let first = self.first_code[len as usize];
                    if code < first + cnt && code >= first {
                        let idx = self.first_index[len as usize] + (code - first);
                        return Ok(self.symbols[idx as usize]);
                    }
                }
            }
            Err(HuffmanError::Corrupt("code exceeds max length"))
        }
    }

    /// Decode a stream produced by [`encode`].
    pub fn decode(data: &[u8]) -> Result<Vec<u32>, HuffmanError> {
        let mut out = Vec::new();
        decode_into(data, &mut out)?;
        Ok(out)
    }

    /// [`decode`], *appending* the symbols to `out`.
    pub fn decode_into(data: &[u8], out: &mut Vec<u32>) -> Result<(), HuffmanError> {
        let mut pos = 0usize;
        let alphabet =
            bytes::get_u32(data, &mut pos).ok_or(HuffmanError::Corrupt("missing alphabet"))?;
        let n =
            bytes::get_u64(data, &mut pos).ok_or(HuffmanError::Corrupt("missing count"))? as usize;
        let header_len = bytes::get_u32(data, &mut pos)
            .ok_or(HuffmanError::Corrupt("missing header len"))? as usize;
        let header = data
            .get(pos..pos + header_len)
            .ok_or(HuffmanError::Corrupt("truncated header"))?;
        pos += header_len;

        let mut lens = Vec::with_capacity(alphabet as usize);
        let mut h = 0usize;
        while h + 3 <= header.len() {
            let l = header[h] as u32;
            let run = u16::from_le_bytes([header[h + 1], header[h + 2]]) as usize;
            for _ in 0..run {
                lens.push(l);
            }
            h += 3;
        }
        if lens.len() != alphabet as usize {
            return Err(HuffmanError::Corrupt("header length mismatch"));
        }

        let payload_len = bytes::get_u64(data, &mut pos)
            .ok_or(HuffmanError::Corrupt("missing payload len"))?
            as usize;
        let payload = data
            .get(pos..pos + payload_len)
            .ok_or(HuffmanError::Corrupt("truncated payload"))?;

        let decoder = Decoder::from_lens(&lens);
        let mut r = BitReader::new(payload);
        out.reserve(n);
        for _ in 0..n {
            out.push(decoder.decode_one(&mut r)?);
        }
        Ok(())
    }

    /// Convenience wrapper for byte-alphabet payloads.
    pub fn encode_bytes(data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_bytes_into(data, &mut out);
        out
    }

    /// [`encode_bytes`], *appending* the stream to `out` (the widening
    /// buffer came from per-thread scratch; a plain vector here).
    pub fn encode_bytes_into(data: &[u8], out: &mut Vec<u8>) {
        let symbols: Vec<u32> = data.iter().map(|&b| b as u32).collect();
        encode_into(&symbols, 256, out).expect("byte symbols are always in range");
    }

    /// Inverse of [`encode_bytes`].
    pub fn decode_bytes(data: &[u8]) -> Result<Vec<u8>, HuffmanError> {
        let mut out = Vec::new();
        decode_bytes_into(data, &mut out)?;
        Ok(out)
    }

    /// [`decode_bytes`], *appending* the bytes to `out` (the symbol buffer
    /// came from per-thread scratch; a plain vector here).
    pub fn decode_bytes_into(data: &[u8], out: &mut Vec<u8>) -> Result<(), HuffmanError> {
        let mut symbols: Vec<u32> = Vec::new();
        decode_into(data, &mut symbols)?;
        out.reserve(symbols.len());
        for &s in &symbols {
            out.push(
                u8::try_from(s).map_err(|_| HuffmanError::Corrupt("symbol exceeds byte range"))?,
            );
        }
        Ok(())
    }
}

pub mod lz77 {
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

    struct Matcher {
        head: Vec<i64>,
        prev: Vec<i64>,
    }

    thread_local! {
        /// Recycled match-finder state: the hash head table is 512 KiB and the
        /// chain table is one word per input byte, so rebuilding them per call
        /// would dominate small-block compression. `reset` refills in place.
        static MATCHER: std::cell::RefCell<Option<Matcher>> = const { std::cell::RefCell::new(None) };
    }

    impl Matcher {
        fn new(len: usize) -> Self {
            Self {
                head: vec![-1; HASH_SIZE],
                prev: vec![-1; len],
            }
        }

        fn reset(&mut self, len: usize) {
            self.head.iter_mut().for_each(|h| *h = -1);
            self.prev.clear();
            self.prev.resize(len, -1);
        }

        #[inline]
        fn insert(&mut self, data: &[u8], i: usize) {
            if i + MIN_MATCH <= data.len() {
                let h = hash4(data, i);
                self.prev[i] = self.head[h];
                self.head[h] = i as i64;
            }
        }

        /// Best `(offset, length)` match at position `i`, or `None`.
        fn find(&self, data: &[u8], i: usize) -> Option<(usize, usize)> {
            if i + MIN_MATCH > data.len() {
                return None;
            }
            let limit = data.len() - i;
            let mut best_len = MIN_MATCH - 1;
            let mut best_off = 0usize;
            let mut cand = self.head[hash4(data, i)];
            let min_pos = i.saturating_sub(WINDOW) as i64;
            let mut chain = 0;
            while cand >= min_pos && chain < MAX_CHAIN {
                let c = cand as usize;
                if c < i {
                    let len = match_len(data, c, i, limit);
                    if len > best_len {
                        best_len = len;
                        best_off = i - c;
                        if len >= limit {
                            break;
                        }
                    }
                }
                cand = self.prev[cand as usize];
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
    /// steady-state compression performs no heap allocation.
    pub fn compress_into(data: &[u8], out: &mut Vec<u8>) {
        MATCHER.with(|m| {
            let mut slot = m.borrow_mut();
            let matcher = slot.get_or_insert_with(|| Matcher::new(data.len()));
            matcher.reset(data.len());
            compress_with(data, matcher, out);
        });
    }

    fn compress_with(data: &[u8], matcher: &mut Matcher, out: &mut Vec<u8>) {
        if data.is_empty() {
            emit(out, &[], None);
            return;
        }
        let mut i = 0usize;
        let mut lit_start = 0usize;
        while i < data.len() {
            match matcher.find(data, i) {
                Some((off, len)) => {
                    // Lazy matching: if the next position has a strictly longer
                    // match, emit this byte as a literal instead.
                    let mut off = off;
                    let mut len = len;
                    let mut start = i;
                    if i + 1 < data.len() {
                        matcher.insert(data, i);
                        if let Some((off2, len2)) = matcher.find(data, i + 1) {
                            if len2 > len + 1 {
                                start = i + 1;
                                off = off2;
                                len = len2;
                            }
                        }
                    } else {
                        matcher.insert(data, i);
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
                None => {
                    matcher.insert(data, i);
                    i += 1;
                }
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
}

pub mod qzstd {
    use super::{huffman, lz77};

    pub const MODE_STORED: u8 = 0;
    pub const MODE_LZ: u8 = 1;
    pub const MODE_LZ_HUFF: u8 = 2;
    pub const MODE_ZERO: u8 = 3;

    /// The parent's `compress_into(data, Level::High | Level::Fast, out)`,
    /// with its per-thread scratch replaced by plain vectors.
    pub fn compress_into(data: &[u8], high: bool, out: &mut Vec<u8>) {
        if data.iter().all(|&b| b == 0) {
            out.reserve(9);
            out.push(MODE_ZERO);
            out.extend_from_slice(&(data.len() as u64).to_le_bytes());
            return;
        }
        let mut lz = Vec::new();
        lz77::compress_into(data, &mut lz);
        let mut entropy = Vec::new();
        let (mode, payload): (u8, &[u8]) = if high {
            huffman::encode_bytes_into(&lz, &mut entropy);
            if entropy.len() < lz.len() {
                (MODE_LZ_HUFF, &entropy)
            } else {
                (MODE_LZ, &lz)
            }
        } else {
            (MODE_LZ, &lz)
        };
        let (mode, payload) = if payload.len() >= data.len() {
            (MODE_STORED, data)
        } else {
            (mode, payload)
        };
        out.reserve(payload.len() + 9);
        out.push(mode);
        out.extend_from_slice(&(data.len() as u64).to_le_bytes());
        out.extend_from_slice(payload);
    }
}
