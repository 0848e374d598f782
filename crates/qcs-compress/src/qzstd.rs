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
//! ```
//!
//! # The literal path
//!
//! The engine's lossless leg ([`crate::QzstdCodec`]) mostly sees blocks
//! the matcher cannot shrink. Counting every lossless encode of one run per
//! benchmark workload: on `qft_lossless`, 59,820 of 60,000 containers came
//! out stored, each after about 18 µs of LZ77 and Huffman (a 2^8-amplitude
//! block, on one core of a shared 2-vCPU VM); on `server_mix`,
//! 137,895 of 140,000; on `qaoa_budget_spill`, 98.7 % came out LZ77
//! containers at ratio 3.3. The LZ77 + Huffman mode was picked 0 times in
//! 300,000 encodes.
//!
//! So the codec first runs a repeat probe over the block's bytes: one
//! pass over the 4-byte words at offsets divisible by four, stopping at the
//! first word seen twice. A block with a repeat takes [`compress_into`]
//! unchanged. A block without one skips the match search: its LZ stage is
//! the stream LZ77 writes when it finds no match, one literal run and the
//! end-of-stream token. That stream is exact whenever LZ77 would find no
//! match, because the matcher emits literals until its first match and
//! ends every stream with a literal run. The container selection below is
//! then the same code over the same bytes: Huffman if it beats both the LZ
//! stream and the raw input, else LZ77, else stored. Storing such a block
//! raw without the Huffman check would be wrong: a 2^10-amplitude
//! Porter–Thomas block can have no match at all and still entropy-code
//! below its raw size. The 2^8-amplitude block above now compresses in
//! about 8 µs, most of it that Huffman length check.
//!
//! The probe sees every repeated double and every repeated upper or lower
//! half of a double. It does not see a match shorter than 7 bytes, nor a
//! match at an offset that is not a multiple of four. On such a block the
//! literal run replaces a stream with matches, and the container can
//! differ from [`compress_into`]'s. On the benchmark's blocks none did:
//! all 300,000 lossless encodes of a seed-7 run of `qft_lossless`,
//! `qaoa_budget_spill` and `server_mix` matched byte for byte. On
//! Porter–Thomas blocks it does happen: a 4-byte match straddling two
//! doubles gave a different container for 3 of 8 seeds at 2^10
//! amplitudes and 1 of 8 at 2^12. Each was the same length or up to 6
//! bytes shorter, since a 4-byte match costs the entropy stage more than
//! the literals it replaces. Any container decodes exactly, and one from
//! the literal path is never longer than the raw input plus the header.

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
/// [`has_repeated_word`] finds no repeated aligned word.
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
