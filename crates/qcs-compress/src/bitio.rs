//! Bit-level I/O primitives shared by every entropy coder in this crate.
//!
//! Bits are packed LSB-first within each byte: the first bit written becomes
//! bit 0 of byte 0. This matches the convention used by the Huffman and
//! bit-plane coders here. Writer and reader both work through a 64-bit
//! accumulator, so a multi-bit write or read costs the same as one bit.

/// Append-only bit writer backed by a `Vec<u8>`.
///
/// Bits collect in a 64-bit accumulator and reach the buffer four whole
/// bytes at a time, so a write is a shift, an OR and a rarely-taken
/// flush branch regardless of how many bits it carries.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Pending bits, first-written in bit 0; zero at and above `nbits`.
    acc: u64,
    /// Number of pending bits in `acc`; below 32 between calls.
    nbits: u32,
}

impl BitWriter {
    /// Create an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a writer with capacity for roughly `bits` bits.
    pub fn with_bit_capacity(bits: usize) -> Self {
        Self::appending_to(Vec::with_capacity(bits / 8 + 1))
    }

    /// Create a writer whose first bit becomes bit 0 of the byte after
    /// the current end of `buf`; [`BitWriter::into_bytes`] hands it back.
    pub fn appending_to(buf: Vec<u8>) -> Self {
        Self {
            buf,
            acc: 0,
            nbits: 0,
        }
    }

    /// Total number of bits in the buffer, counting any it held before
    /// [`BitWriter::appending_to`].
    pub fn bit_len(&self) -> usize {
        self.buf.len() * 8 + self.nbits as usize
    }

    /// Write a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.put(bit as u64, 1);
    }

    /// Write the low `count` bits of `value`, LSB-first. `count <= 64`.
    #[inline]
    pub fn write_bits(&mut self, value: u64, count: u32) {
        debug_assert!(count <= 64);
        if count > 32 {
            self.put(value & 0xFFFF_FFFF, 32);
            self.put(value >> 32, count - 32);
        } else {
            self.put(value, count);
        }
    }

    /// Append the low `count <= 32` bits of `value`: with fewer than 32
    /// bits pending they always fit the accumulator.
    #[inline]
    fn put(&mut self, value: u64, count: u32) {
        self.acc |= (value & ((1u64 << count) - 1)) << self.nbits;
        self.nbits += count;
        if self.nbits >= 32 {
            self.buf.extend_from_slice(&(self.acc as u32).to_le_bytes());
            self.acc >>= 32;
            self.nbits -= 32;
        }
    }

    /// Pad with zero bits to the next byte boundary.
    pub fn align(&mut self) {
        self.put(0, self.nbits.wrapping_neg() % 8);
    }

    /// Consume the writer, returning the packed bytes (the final byte
    /// zero-padded).
    pub fn into_bytes(mut self) -> Vec<u8> {
        let tail = self.nbits.div_ceil(8) as usize;
        self.buf.extend_from_slice(&self.acc.to_le_bytes()[..tail]);
        self.buf
    }
}

/// Sequential bit reader over a byte slice.
///
/// The mirror image of [`BitWriter`]: a 64-bit accumulator refilled eight
/// input bytes at a time (one at a time over the last seven), so a read
/// is a mask and a shift.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    /// Next byte of `buf` to load into `acc`.
    pos: usize,
    /// Loaded, unconsumed bits; the next bit to read is bit 0. Bits at
    /// and above `nbits` are either zero or a preview of `buf[pos..]`.
    acc: u64,
    /// Number of valid bits in `acc`.
    nbits: u32,
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
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    /// Number of bits consumed so far.
    pub fn bits_read(&self) -> usize {
        self.pos * 8 - self.nbits as usize
    }

    /// Number of bits remaining.
    pub fn bits_remaining(&self) -> usize {
        self.buf.len() * 8 - self.bits_read()
    }

    /// Top the accumulator up to at least 56 bits, or to the end of input.
    #[inline]
    pub fn refill(&mut self) {
        if let Some(word) = self.buf.get(self.pos..self.pos + 8) {
            // OR in a whole word but account only for the bytes that fit:
            // the surplus high bits are exactly what the next refill ORs
            // into the same positions again.
            self.acc |= u64::from_le_bytes(word.try_into().expect("8 bytes")) << self.nbits;
            let bytes = (63 - self.nbits) / 8;
            self.pos += bytes as usize;
            self.nbits += 8 * bytes;
        } else {
            while self.nbits <= 56 && self.pos < self.buf.len() {
                self.acc |= (self.buf[self.pos] as u64) << self.nbits;
                self.pos += 1;
                self.nbits += 8;
            }
        }
    }

    /// The accumulator after a [`BitReader::refill`]: the next unread bit
    /// is bit 0. Only the low [`BitReader::bits_buffered`] bits may be
    /// relied on; past the end of input the rest read as zero.
    #[inline]
    pub fn peek(&self) -> u64 {
        self.acc
    }

    /// Number of unread bits currently in the accumulator.
    #[inline]
    pub fn bits_buffered(&self) -> u32 {
        self.nbits
    }

    /// Skip `count <= bits_buffered()` bits (`count < 64`).
    #[inline]
    pub fn consume(&mut self, count: u32) {
        debug_assert!(count <= self.nbits);
        self.acc >>= count;
        self.nbits -= count;
    }

    /// Read one bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool, BitReadError> {
        self.read_bits(1).map(|b| b != 0)
    }

    /// Read `count` bits, LSB-first. `count <= 64`. Consumes nothing
    /// when fewer than `count` bits remain.
    #[inline]
    pub fn read_bits(&mut self, count: u32) -> Result<u64, BitReadError> {
        debug_assert!(count <= 64);
        if count > 32 {
            if self.bits_remaining() < count as usize {
                return Err(BitReadError);
            }
            let low = self.read_bits(32)?;
            return Ok(low | self.read_bits(count - 32)? << 32);
        }
        if self.nbits < count {
            self.refill();
            if self.nbits < count {
                return Err(BitReadError);
            }
        }
        let value = self.acc & ((1u64 << count) - 1);
        self.consume(count);
        Ok(value)
    }

    /// Skip to the next byte boundary.
    pub fn align(&mut self) {
        self.consume(self.nbits % 8);
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

    /// Append a `u16` in little-endian order.
    #[inline]
    pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
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

    /// Read a `u16` at `pos`, advancing `pos`.
    #[inline]
    pub fn get_u16(buf: &[u8], pos: &mut usize) -> Option<u16> {
        let bytes = buf.get(*pos..*pos + 2)?;
        *pos += 2;
        Some(u16::from_le_bytes(bytes.try_into().ok()?))
    }

    /// Read an `f64` at `pos`, advancing `pos`.
    #[inline]
    pub fn get_f64(buf: &[u8], pos: &mut usize) -> Option<f64> {
        let bytes = buf.get(*pos..*pos + 8)?;
        *pos += 8;
        Some(f64::from_le_bytes(bytes.try_into().ok()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bits_round_trip() {
        let pattern = [true, false, true, true, false, false, true, false, true];
        let mut w = BitWriter::new();
        for &b in &pattern {
            w.write_bit(b);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bit().unwrap(), b);
        }
    }

    #[test]
    fn multi_bit_round_trip() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0xDEADBEEF, 32);
        w.write_bits(0, 0);
        w.write_bits(u64::MAX, 64);
        w.write_bits(0x3F, 7);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(32).unwrap(), 0xDEADBEEF);
        assert_eq!(r.read_bits(0).unwrap(), 0);
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
        assert_eq!(r.read_bits(7).unwrap(), 0x3F);
    }

    #[test]
    fn align_pads_with_zeros() {
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.align();
        w.write_bits(0xAB, 8);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 2);
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(1).unwrap(), 1);
        r.align();
        assert_eq!(r.read_bits(8).unwrap(), 0xAB);
    }

    #[test]
    fn bit_len_tracks_writes() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write_bits(0b11, 2);
        assert_eq!(w.bit_len(), 2);
        w.write_bits(0, 9);
        assert_eq!(w.bit_len(), 11);
    }

    #[test]
    fn reader_detects_exhaustion() {
        let bytes = [0xFFu8];
        let mut r = BitReader::new(&bytes);
        assert!(r.read_bits(8).is_ok());
        assert_eq!(r.read_bit(), Err(BitReadError));
        assert_eq!(r.read_bits(1), Err(BitReadError));
    }

    #[test]
    fn bits_remaining_is_consistent() {
        let bytes = [0u8; 4];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.bits_remaining(), 32);
        r.read_bits(5).unwrap();
        assert_eq!(r.bits_remaining(), 27);
        assert_eq!(r.bits_read(), 5);
    }

    #[test]
    fn mixed_widths_round_trip_across_word_boundaries() {
        // Every width 0..=64 at every phase of the 32-bit flush cycle.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut items = Vec::new();
        for i in 0..2000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let count = (i * 7 + (x >> 60) as u32) % 65;
            let value = if count == 64 {
                x
            } else {
                x & ((1u64 << count) - 1)
            };
            items.push((value, count));
        }
        let mut w = BitWriter::appending_to(vec![0xEE, 0xEE]);
        for &(v, c) in &items {
            w.write_bits(v, c);
        }
        let bits: usize = items.iter().map(|&(_, c)| c as usize).sum();
        assert_eq!(w.bit_len(), 16 + bits);
        let bytes = w.into_bytes();
        assert_eq!(&bytes[..2], &[0xEE, 0xEE]);
        assert_eq!(bytes.len(), 2 + bits.div_ceil(8));
        let mut r = BitReader::new(&bytes[2..]);
        for &(v, c) in &items {
            assert_eq!(r.read_bits(c).unwrap(), v);
        }
        assert_eq!(r.bits_read(), bits);
        assert!(r.bits_remaining() < 8);
    }

    #[test]
    fn failed_read_consumes_nothing() {
        let bytes = [0xA5u8; 5];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(64), Err(BitReadError));
        assert_eq!(r.read_bits(38), Err(BitReadError));
        assert_eq!(r.bits_read(), 3);
        assert_eq!(
            r.read_bits(37).unwrap(),
            (0xA5A5A5A5A5u64 >> 3) & ((1 << 37) - 1)
        );
        assert_eq!(r.bits_remaining(), 0);
    }

    #[test]
    fn peek_and_consume_follow_the_stream() {
        let bytes: Vec<u8> = (1..=20).collect();
        let mut r = BitReader::new(&bytes);
        let mut seen = Vec::new();
        loop {
            r.refill();
            if r.bits_buffered() < 8 {
                break;
            }
            seen.push(r.peek() as u8);
            r.consume(8);
        }
        assert_eq!(seen, bytes);
    }

    #[test]
    fn header_bytes_round_trip() {
        let mut buf = Vec::new();
        bytes::put_u64(&mut buf, 42);
        bytes::put_u32(&mut buf, 7);
        bytes::put_f64(&mut buf, -1.5e-7);
        let mut pos = 0;
        assert_eq!(bytes::get_u64(&buf, &mut pos), Some(42));
        assert_eq!(bytes::get_u32(&buf, &mut pos), Some(7));
        assert_eq!(bytes::get_f64(&buf, &mut pos), Some(-1.5e-7));
        assert_eq!(pos, buf.len());
        assert_eq!(bytes::get_u64(&buf, &mut pos), None);
    }
}
