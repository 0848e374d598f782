//! `qzstd` — the lossless backend used throughout this crate.
//!
//! A from-scratch stand-in for Zstandard (the paper's lossless compressor):
//! LZ77 dictionary coding followed by an optional canonical-Huffman entropy
//! stage, with cheap fast paths for the all-zero blocks that dominate early
//! quantum-simulation states. The encoder tries the configured pipeline and
//! stores whichever representation is smallest, so output never expands by
//! more than the 10-byte header plus one part-length word.
//!
//! Container format:
//!
//! ```text
//! [mode u8][orig_len u64le][payload...]
//! mode 0 = stored (payload is the raw input)
//! mode 1 = LZ77
//! mode 2 = LZ77 + Huffman over the LZ stream
//! mode 3 = all zero bytes (empty payload)
//! mode 4 = palette: k u8 | palette (k bytes) | index per double
//!          (ceil(log2 k) bits, packed LSB first) | bytes 0-6 of each double
//! ```
//!
//! [`compress`] and [`compress_into`] write modes 0–3 only. Mode 4 is
//! written by [`crate::QzstdCodec`], the engine's lossless leg, and every
//! decoder here reads it.
//!
//! # The lossless leg
//!
//! `QzstdCodec` mostly sees blocks of full-entropy doubles that the matcher
//! cannot shrink: on `qft_lossless` about 99 % of its 4 KiB blocks have no
//! LZ77 match. Their structure is in one byte. Over those blocks the low
//! six byte planes carry 7.4–7.5 bits of entropy per byte and plane 6 6.8,
//! but plane 7 (the sign and the top seven exponent bits) carries 1.35,
//! with 4.0 distinct values per block on average.
//!
//! So the codec first runs a repeat probe over the block's bytes: one
//! pass over the 4-byte words at offsets divisible by four, stopping at the
//! first word seen twice. Then:
//!
//! - a block with a repeat takes [`compress_into`] at [`Level::High`],
//!   byte for byte;
//! - a block without one whose top bytes take at most 16 values, and whose
//!   palette container is shorter than the block, takes mode 4: each top
//!   byte becomes an index into the palette, the other seven bytes are
//!   stored verbatim. It runs no LZ77, no all-zero scan (+0.0 repeats its
//!   own zero word, so such a block holds none) and no Huffman;
//! - any other block is one literal run handed to the container selection:
//!   Huffman if it beats both the LZ stream and the raw input, else LZ77,
//!   else stored. The literal run is exactly the stream LZ77 writes when
//!   it finds no match, because the matcher emits literals until its first
//!   match and ends every stream with a literal run.
//!
//! Measured on a shared 2-vCPU VM: the literal path's whole-block
//! Huffman length check took 9–12 µs per 2^8-amplitude block and beat the
//! stored container on 13 of 3,000 sampled `qft_lossless` blocks. The
//! codec now encodes such a block in about 9 µs instead of 16 µs: the
//! probe takes 3.4–9.4 µs (warm to cold), the palette 1.3–2.1 µs. It
//! decodes one in about 0.5 µs, against 0.13 µs for a stored container. A
//! Porter–Thomas block takes 942, 3,726 and 14,862 bytes at 2^6, 2^8 and
//! 2^10 amplitudes, against 1,033, 4,105 and 16,043 on the literal path.
//! Over the palette containers of seed-1 runs of `qft_lossless`,
//! `qaoa_budget_spill` and `server_mix` (about 163,000 encodes), none
//! came out longer than the literal path's container.
//!
//! The probe sees every repeated double and every repeated upper or lower
//! half of a double. It does not see a match shorter than 7 bytes, nor a
//! match at an offset that is not a multiple of four. Such a block takes
//! the palette or the literal run, and its container can differ from
//! [`compress_into`]'s: a 4-byte match straddling two doubles of a
//! Porter–Thomas block costs the entropy stage more than the literals it
//! replaces. Any container decodes exactly, and none is longer than the
//! raw input plus the header.

use crate::huffman;
use crate::lz77;

/// Compression effort level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Level {
    /// LZ77 only — fastest, used inside inner loops.
    Fast,
    /// LZ77 + Huffman entropy stage — best ratio.
    #[default]
    High,
}

/// Errors from the qzstd container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QzError {
    /// Unknown mode byte or truncated container.
    Corrupt(&'static str),
    /// Inner LZ77 stream failed to decode.
    Lz(lz77::LzError),
    /// Inner Huffman stream failed to decode.
    Huffman(huffman::HuffmanError),
}

impl std::fmt::Display for QzError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QzError::Corrupt(msg) => write!(f, "corrupt qzstd container: {msg}"),
            QzError::Lz(e) => write!(f, "qzstd lz stage: {e}"),
            QzError::Huffman(e) => write!(f, "qzstd entropy stage: {e}"),
        }
    }
}

impl std::error::Error for QzError {}

impl From<lz77::LzError> for QzError {
    fn from(e: lz77::LzError) -> Self {
        QzError::Lz(e)
    }
}

impl From<huffman::HuffmanError> for QzError {
    fn from(e: huffman::HuffmanError) -> Self {
        QzError::Huffman(e)
    }
}

const MODE_STORED: u8 = 0;
const MODE_LZ: u8 = 1;
const MODE_LZ_HUFF: u8 = 2;
const MODE_ZERO: u8 = 3;
const MODE_PALETTE: u8 = 4;

/// Most distinct top bytes a palette container holds.
const PALETTE_MAX: usize = 16;

/// Compress `data` at the given level. The returned vector's capacity
/// equals its length, so converting it to `Arc<[u8]>`/`Box<[u8]>` never
/// reallocates.
pub fn compress(data: &[u8], level: Level) -> Vec<u8> {
    let mut out = Vec::new();
    compress_into(data, level, &mut out);
    // `compress_into` reserves for the largest payload it may pick; only
    // an entropy-coded one comes out shorter.
    out.shrink_to_fit();
    out
}

/// Append the 9-byte container header, reserving for `payload_cap` more.
fn begin_container(out: &mut Vec<u8>, mode: u8, orig_len: usize, payload_cap: usize) {
    out.reserve(9 + payload_cap);
    out.push(mode);
    out.extend_from_slice(&(orig_len as u64).to_le_bytes());
}

/// [`compress`], *appending* the container to `out`. Identical bytes; the
/// intermediate LZ stream comes from recycled per-thread scratch, so
/// steady-state compression into a reused `out` performs no heap
/// allocation once the scratch has grown to the working size.
pub fn compress_into(data: &[u8], level: Level, out: &mut Vec<u8>) {
    compress_staged(data, level, lz77::compress_into, out);
}

/// The container selection, with the LZ stage passed in: `lz_stage`
/// appends an LZ77 stream of `data` to its buffer. [`compress_into`]
/// passes the matcher; [`crate::QzstdCodec`] passes the literal run when
/// [`has_repeated_word`] finds no repeated aligned word and
/// [`palette_into`] does not take the block.
pub(crate) fn compress_staged(
    data: &[u8],
    level: Level,
    lz_stage: impl FnOnce(&[u8], &mut Vec<u8>),
    out: &mut Vec<u8>,
) {
    if data.iter().all(|&b| b == 0) {
        return begin_container(out, MODE_ZERO, data.len(), 0);
    }
    let mut lz = crate::scratch::take_bytes();
    lz_stage(data, &mut lz);
    // The entropy stage is kept only when it beats both the LZ stream and
    // the raw input. Its length is known before its payload is, so a loss
    // costs no payload pass, and a win lands in `out` directly.
    let limit = lz.len().min(data.len());
    let mode_at = out.len();
    begin_container(out, MODE_LZ_HUFF, data.len(), limit);
    if !(level == Level::High && huffman::encode_bytes_if_smaller(&lz, limit, out)) {
        let (mode, payload) = if lz.len() < data.len() {
            (MODE_LZ, &lz[..])
        } else {
            (MODE_STORED, data)
        };
        out[mode_at] = mode;
        out.extend_from_slice(payload);
    }
    crate::scratch::put_bytes(lz);
}

/// Append `data`, the little-endian bytes of doubles, as a palette
/// container (mode 4, layout in the module docs) and return `true` when
/// its top bytes take at most [`PALETTE_MAX`] values and the container's
/// payload is shorter than `data`. Otherwise append nothing and return
/// `false`. The caller has made sure no aligned word repeats.
pub(crate) fn palette_into(data: &[u8], out: &mut Vec<u8>) -> bool {
    if data.is_empty() || !data.len().is_multiple_of(8) {
        return false;
    }
    // `slot[b]` is one more than `b`'s palette index, 0 while `b` is unseen.
    let mut slot = [0u8; 256];
    let mut palette = [0u8; PALETTE_MAX];
    let mut k = 0;
    for double in data.chunks_exact(8) {
        let top = double[7];
        if slot[usize::from(top)] == 0 {
            if k == PALETTE_MAX {
                return false;
            }
            palette[k] = top;
            k += 1;
            slot[usize::from(top)] = k as u8;
        }
    }
    let n = data.len() / 8;
    let bits = index_bits(k);
    let payload = palette_payload_len(k, bits, n);
    if payload >= data.len() {
        return false;
    }
    begin_container(out, MODE_PALETTE, data.len(), payload);
    out.push(k as u8);
    out.extend_from_slice(&palette[..k]);
    let (mut acc, mut held) = (0u32, 0u32);
    for double in data.chunks_exact(8) {
        acc |= u32::from(slot[usize::from(double[7])] - 1) << held;
        held += bits;
        if held >= 8 {
            out.push(acc as u8);
            (acc, held) = (acc >> 8, held - 8);
        }
    }
    if held > 0 {
        out.push(acc as u8);
    }
    let low_at = out.len();
    out.resize(low_at + 7 * n, 0);
    for (low, double) in out[low_at..].chunks_exact_mut(7).zip(data.chunks_exact(8)) {
        low.copy_from_slice(&double[..7]);
    }
    true
}

/// Bits per palette index of a `k`-entry palette: `ceil(log2 k)`.
fn index_bits(k: usize) -> u32 {
    k.next_power_of_two().trailing_zeros()
}

/// Payload bytes of a palette container holding `n` doubles over `k`
/// entries of `bits`-bit indices. With `n` at most `usize::MAX / 8` and
/// `bits` at most 4 it cannot overflow.
fn palette_payload_len(k: usize, bits: u32, n: usize) -> usize {
    1 + k + (n * bits as usize).div_ceil(8) + 7 * n
}

/// The `bits`-bit indices packed LSB first in `packed`, in order; zero
/// past its end.
fn palette_indices(packed: &[u8], bits: u32) -> impl Iterator<Item = usize> + '_ {
    let mask = (1u32 << bits) - 1;
    let mut bytes = packed.iter();
    let (mut acc, mut held) = (0u32, 0u32);
    std::iter::repeat_with(move || {
        if held < bits {
            acc |= u32::from(bytes.next().copied().unwrap_or(0)) << held;
            held += 8;
        }
        let index = acc & mask;
        (acc, held) = (acc >> bits, held - bits);
        index as usize
    })
}

/// Append the `orig_len` bytes a palette payload holds to `out`. The
/// palette size, the exact payload length and every index are checked
/// before anything is reserved; the doubles are then written in one pass
/// over zeroed space, with no per-value `extend`.
fn decode_palette(payload: &[u8], orig_len: usize, out: &mut Vec<u8>) -> Result<(), QzError> {
    if !orig_len.is_multiple_of(8) {
        return Err(QzError::Corrupt("palette block is not whole doubles"));
    }
    let k = match payload.first() {
        Some(&k) if (1..=PALETTE_MAX).contains(&usize::from(k)) => usize::from(k),
        Some(_) => return Err(QzError::Corrupt("palette size out of range")),
        None => return Err(QzError::Corrupt("missing palette size")),
    };
    let n = orig_len / 8;
    let bits = index_bits(k);
    if payload.len() != palette_payload_len(k, bits, n) {
        return Err(QzError::Corrupt("palette payload length mismatch"));
    }
    // Every index is below 2^bits <= 16, so the table has its slot;
    // `% PALETTE_MAX` below only lets the compiler drop the bounds check.
    let mut palette = [0u8; PALETTE_MAX];
    palette[..k].copy_from_slice(&payload[1..1 + k]);
    let index_len = (n * bits as usize).div_ceil(8);
    let (packed, low) = payload[1 + k..].split_at(index_len);
    if !k.is_power_of_two() && palette_indices(packed, bits).take(n).any(|i| i >= k) {
        return Err(QzError::Corrupt("palette index out of range"));
    }
    let base = out.len();
    out.resize(base + orig_len, 0);
    // Whole groups of eight doubles are written a word at a time: their
    // indices fill `bits` bytes, their low bytes 56. The last `n % 8`
    // doubles are written one byte run at a time.
    let (bits, mask) = (bits as usize, (1usize << bits) - 1);
    let whole = n / 8;
    let (head, tail) = out[base..].split_at_mut(whole * 64);
    let (low_head, low_tail) = low.split_at(whole * 56);
    let groups = head.chunks_exact_mut(64).zip(low_head.chunks_exact(56));
    for (g, (doubles, lows)) in groups.enumerate() {
        let indices = packed[g * bits..(g + 1) * bits]
            .iter()
            .rev()
            .fold(0usize, |w, &b| w << 8 | usize::from(b));
        for j in 0..8 {
            // Eight bytes from double `j`'s first: its seven and one more.
            let low = if j < 7 {
                u64::from_le_bytes(lows[7 * j..7 * j + 8].try_into().expect("8 bytes"))
            } else {
                u64::from_le_bytes(lows[48..].try_into().expect("8 bytes")) >> 8
            };
            let top = palette[(indices >> (j * bits) & mask) % PALETTE_MAX];
            let double = low & (u64::MAX >> 8) | u64::from(top) << 56;
            doubles[8 * j..8 * j + 8].copy_from_slice(&double.to_le_bytes());
        }
    }
    let indices = palette_indices(&packed[whole * bits..], bits as u32);
    let doubles = tail.chunks_exact_mut(8).zip(low_tail.chunks_exact(7));
    for ((double, low), index) in doubles.zip(indices) {
        double[..7].copy_from_slice(low);
        double[7] = palette[index % PALETTE_MAX];
    }
    Ok(())
}

/// Decompress a qzstd container.
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, QzError> {
    let mut out = Vec::new();
    decompress_into(data, &mut out)?;
    Ok(out)
}

/// [`decompress`], *appending* the original bytes to `out`. Stored and
/// all-zero payloads are written straight into `out`; the LZ stages decode
/// in place, with only the Huffman-to-LZ intermediate staged through
/// recycled per-thread scratch.
pub fn decompress_into(data: &[u8], out: &mut Vec<u8>) -> Result<(), QzError> {
    decompress_capped_into(data, usize::MAX, out)
}

/// [`decompress_into`] for a caller that knows the most bytes the
/// container can honestly hold: a declared length above `cap` is refused
/// before anything is decoded or allocated.
pub(crate) fn decompress_capped_into(
    data: &[u8],
    cap: usize,
    out: &mut Vec<u8>,
) -> Result<(), QzError> {
    if data.len() < 9 {
        return Err(QzError::Corrupt("container too short"));
    }
    let mode = data[0];
    let orig_len = u64::from_le_bytes(data[1..9].try_into().unwrap());
    if orig_len > cap as u64 {
        return Err(QzError::Corrupt("declared length over the caller's cap"));
    }
    let orig_len = orig_len as usize;
    let payload = &data[9..];
    let base = out.len();
    match mode {
        MODE_STORED => out.extend_from_slice(payload),
        MODE_LZ => lz77::decompress_into(payload, out)?,
        MODE_LZ_HUFF => {
            let mut lz = crate::scratch::take_bytes();
            let res = huffman::decode_bytes_into(payload, &mut lz)
                .map_err(QzError::from)
                .and_then(|()| lz77::decompress_into(&lz, out).map_err(QzError::from));
            crate::scratch::put_bytes(lz);
            res?;
        }
        MODE_ZERO => out.resize(base + orig_len, 0),
        MODE_PALETTE => decode_palette(payload, orig_len, out)?,
        _ => return Err(QzError::Corrupt("unknown mode byte")),
    }
    if out.len() - base != orig_len {
        return Err(QzError::Corrupt("length mismatch after decode"));
    }
    Ok(())
}

/// Compression ratio (original / compressed) achieved on `data`.
pub fn ratio(data: &[u8], level: Level) -> f64 {
    let c = compress(data, level);
    data.len() as f64 / c.len() as f64
}

/// Whether any little-endian 4-byte word at an offset divisible by four
/// occurs twice in `data` (a trailing partial word is ignored). Stops at
/// the first repeat. See the module docs for what this does and does not
/// see of the LZ77 matches.
pub(crate) fn has_repeated_word(data: &[u8]) -> bool {
    WORDS.with(|set| set.borrow_mut().has_repeat(data))
}

/// The open-addressing word set behind [`has_repeated_word`], recycled
/// per thread. A slot is live only when its stamp is the current
/// generation, so starting a call clears nothing.
#[derive(Default)]
struct WordSet {
    /// `(generation, word)` per slot.
    slots: Vec<(u32, u32)>,
    generation: u32,
}

thread_local! {
    static WORDS: std::cell::RefCell<WordSet> = const {
        std::cell::RefCell::new(WordSet {
            slots: Vec::new(),
            generation: 0,
        })
    };
}

impl WordSet {
    fn has_repeat(&mut self, data: &[u8]) -> bool {
        let words = data.chunks_exact(4);
        // At most half full, so every probe ends at an empty slot.
        let bits = (2 * words.len())
            .next_power_of_two()
            .max(16)
            .trailing_zeros();
        let mask = (1usize << bits) - 1;
        if self.slots.len() <= mask {
            // New slots carry generation 0, which is never current.
            self.slots.resize(mask + 1, (0, 0));
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Wrapped: stamps of 2^32 calls ago would read as current.
            self.slots.fill((0, 0));
            self.generation = 1;
        }
        for word in words {
            let word = u32::from_le_bytes(word.try_into().expect("4 bytes"));
            let mut i = slot_of(word, bits);
            loop {
                let (stamp, held) = &mut self.slots[i];
                if *stamp != self.generation {
                    (*stamp, *held) = (self.generation, word);
                    break;
                }
                if *held == word {
                    return true;
                }
                i = (i + 1) & mask;
            }
        }
        false
    }
}

/// Home slot of `word` in a table of `2^bits` slots (Fibonacci hashing).
fn slot_of(word: u32, bits: u32) -> usize {
    (u64::from(word).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8], level: Level) {
        let c = compress(data, level);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn zero_block_fast_path() {
        let data = vec![0u8; 1 << 20];
        let c = compress(&data, Level::High);
        assert_eq!(c.len(), 9, "all-zero block should be header-only");
        round_trip(&data, Level::High);
    }

    #[test]
    fn empty_input() {
        // Empty input is all-zeros vacuously.
        let c = compress(&[], Level::High);
        assert_eq!(decompress(&c).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn both_levels_round_trip() {
        let data: Vec<u8> = (0..30_000u32).map(|i| (i % 7 * 37) as u8).collect();
        round_trip(&data, Level::Fast);
        round_trip(&data, Level::High);
    }

    #[test]
    fn incompressible_falls_back_to_stored() {
        let mut x = 0x9E3779B97F4A7C15u64;
        let data: Vec<u8> = (0..4096)
            .flat_map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x.to_le_bytes()
            })
            .collect();
        let c = compress(&data, Level::High);
        assert!(c.len() <= data.len() + 9);
        round_trip(&data, Level::High);
    }

    #[test]
    fn high_level_beats_fast_on_text_like_data() {
        let data: Vec<u8> = b"the quick brown fox jumps over the lazy dog. "
            .iter()
            .copied()
            .cycle()
            .take(50_000)
            .collect();
        let fast = compress(&data, Level::Fast);
        let high = compress(&data, Level::High);
        assert!(high.len() <= fast.len());
    }

    #[test]
    fn into_paths_append_and_match_allocating_paths() {
        let datasets: Vec<Vec<u8>> = vec![
            vec![],
            vec![0u8; 4096],
            (0..30_000u32).map(|i| (i % 7 * 37) as u8).collect(),
            b"the quick brown fox ".repeat(500),
        ];
        for data in &datasets {
            for level in [Level::Fast, Level::High] {
                let plain = compress(data, level);
                assert_eq!(plain.capacity(), plain.len());
                let mut enc = vec![0xAAu8; 3];
                compress_into(data, level, &mut enc);
                assert_eq!(&enc[..3], &[0xAA; 3]);
                assert_eq!(&enc[3..], &plain[..]);
                let mut dec = vec![1u8, 2];
                decompress_into(&plain, &mut dec).unwrap();
                assert_eq!(&dec[..2], &[1, 2]);
                assert_eq!(&dec[2..], &data[..]);
            }
        }
    }

    #[test]
    fn corrupt_container_rejected() {
        assert!(decompress(&[]).is_err());
        assert!(decompress(&[9, 0, 0, 0, 0, 0, 0, 0, 0, 1]).is_err());
        let good = compress(b"hello world hello world", Level::High);
        let mut bad = good.clone();
        bad[0] = 7;
        assert!(decompress(&bad).is_err());
    }

    fn le_words(words: &[u32]) -> Vec<u8> {
        words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    #[test]
    fn probe_sees_a_repeat_at_the_first_and_at_the_last_word() {
        let distinct: Vec<u32> = (0..1000u32)
            .map(|i| i.wrapping_mul(2_654_435_761))
            .collect();
        let mut set = WordSet::default();
        assert!(!set.has_repeat(&le_words(&distinct)));
        let mut first = distinct.clone();
        first[1] = first[0];
        assert!(set.has_repeat(&le_words(&first)));
        let mut last = distinct.clone();
        last[999] = last[0];
        assert!(set.has_repeat(&le_words(&last)));
        // A trailing partial word is not a word.
        let mut tail = le_words(&distinct[..3]);
        tail.extend_from_within(..3);
        assert!(!set.has_repeat(&tail));
        assert!(!set.has_repeat(&[]));
    }

    #[test]
    fn probe_tells_a_hash_collision_from_a_repeat() {
        // Two words sharing the home slot of a 2-word probe's table, the
        // last slot, so the second one's probe wraps to slot 0.
        let bits = 4;
        let mut same = (0u32..).filter(|&w| slot_of(w, bits) == (1 << bits) - 1);
        let (a, b) = (same.next().unwrap(), same.next().unwrap());
        let mut set = WordSet::default();
        assert!(!set.has_repeat(&le_words(&[a, b])));
        assert!(set.has_repeat(&le_words(&[a, b, b])));
        assert!(set.has_repeat(&le_words(&[a, b, a])));
    }

    #[test]
    fn probe_survives_the_generation_wrap() {
        let mut set = WordSet::default();
        assert!(!set.has_repeat(&le_words(&[7, 9])));
        set.generation = u32::MAX;
        // After the wrap neither a zeroed slot nor the 7 stamped by the
        // first call may read as live.
        assert!(!set.has_repeat(&le_words(&[0, 7])));
        assert_eq!(set.generation, 1);
        assert!(set.has_repeat(&le_words(&[0, 7, 0])));
    }

    #[test]
    fn sparse_state_vector_bytes() {
        // Mimic an early simulation state: one nonzero amplitude.
        let mut amps = vec![0.0f64; 1 << 14];
        amps[0] = 1.0;
        let bytes: Vec<u8> = amps.iter().flat_map(|v| v.to_le_bytes()).collect();
        let c = compress(&bytes, Level::High);
        assert!(
            (bytes.len() as f64 / c.len() as f64) > 100.0,
            "sparse state should compress >100x, got {:.1}",
            bytes.len() as f64 / c.len() as f64
        );
        round_trip(&bytes, Level::High);
    }
}
