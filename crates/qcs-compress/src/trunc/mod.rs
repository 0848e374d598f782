//! The paper's tailored lossy compressor (§4.2, Solution C).
//!
//! Solution C is the compressor the paper selects for its experiments:
//! per value, (1) truncate insignificant mantissa bit-planes according to
//! the pointwise relative error bound (Eq. 12), (2) XOR with the preceding
//! value and record the number of identical leading bytes with a two-bit
//! code, (3) feed the reduced stream through the lossless backend
//! ([`crate::qzstd`]). There is no prediction, quantization, or Huffman
//! stage, which is exactly why it is so much faster than SZ-style pipelines.
//!
//! # Segmented streams
//!
//! The engine's default format breaks the value sequence into segments of
//! [`DEFAULT_SEGMENT_VALUES`](crate::DEFAULT_SEGMENT_VALUES) doubles (the
//! last one may be shorter) and encodes each on its own: the XOR-delta
//! chain restarts at every segment boundary, and each body goes through
//! the lossless backend by itself. The bodies follow one another, each
//! behind its byte length:
//!
//! ```text
//! magic u32 | n_values u64
//! | ceil(n_values / DEFAULT_SEGMENT_VALUES) x { body_len u32 | body }
//! ```
//!
//! Nothing follows the last body. The magic is "QCSt". The stream carries
//! no checksum: a block is hashed where its bytes leave memory, by the
//! frame of a spill segment or a checkpoint ([`crate::frame`]) and by the
//! `qcs-net` frame on a socket.
//! Streams in an older segmented layout are refused with a `Corrupt` error
//! that names their magic: "QCSs" (noisy segments in mode 1, LZ77 over
//! their head), "QCSc" (Solution C segments without a mode byte) and
//! "QCSe"/"QCSd" (Solution C/D segments behind an index of 12 bytes per
//! segment, each body under its own checksum).
//!
//! Step (3) runs over the whole reduced stream only where that pays. Each
//! segment of a segmented Solution C stream starts with a mode byte:
//!
//! ```text
//! mode 0: qzstd(body)                                    first byte 0..=3
//! mode 2: 0xFE | m u8 | code runs | exceptions | suffix
//!      or 0xFD | m u8 | plane_len u16 | qzstd(code plane) | exceptions | suffix
//! ```
//!
//! The *suffix* is the truncated XOR bytes each value keeps after its lead
//! code; the rest of the body is a short header, the packed lead codes and
//! the exceptions. Periodic states (a QFT of a basis state) repeat, so a
//! segment keeps mode 0 whenever LZ77 over its first 1 KiB of suffix comes
//! out strictly shorter than its input; an empty suffix (an all-zero
//! stretch) takes mode 2, six bytes per 1024 zeros. A mode-0
//! segment is the bare backend container, whose own mode byte doubles as
//! the segment's. Every other segment takes mode 2, which runs no LZ77
//! and stores nothing its decoder can derive: the value count is the
//! container's, the lead codes are runs, the exceptions carry `u16`
//! indices, and the suffix length follows from the codes. The byte
//! layout is in the `solution_c` module. The legacy whole-stream format
//! ([`SolutionC::whole_stream`]) keeps its bytes: its one body goes
//! through qzstd.
//!
//! Where a 1024-value segment's encode goes, on a Porter–Thomas
//! 2^14-amplitude block at 1e-3 (every segment mode 2; one core of a
//! shared 2-vCPU VM, per segment):
//!
//! | stage                                   | µs        |
//! |-----------------------------------------|-----------|
//! | truncate, XOR and pack (`encode_body`)  | 3.0–3.4   |
//! | LZ77 probe over 1 KiB of suffix         | 2.8–2.9   |
//! | mode-2 head (runs, exceptions) + suffix copy | 0.7–0.9 |
//! | *mode 1's LZ77 over the 293-byte head (gone)* | *2.9* |
//! | decode: runs, then one push and one padding test per value (gone) | *1.8–1.9* |
//! | decode: runs parsed once, suffix words unpacked in place, two values per word | 0.9 |
//!
//! The block compresses in 10.0 µs per segment instead of 13.3 µs; its
//! stream is 98,805 bytes instead of 100,207. Mode 2 decompressed in
//! 3.2 µs per segment against mode 1's 5.6 µs when it came in. The two
//! decode rows were measured later, beside each other on one core, eight
//! interleaved runs each, on a box where the same block encoded in
//! 5.6–6.2 µs per segment: the in-place unpack takes 0.49× the time of
//! the loop it replaced.

pub(crate) mod segmented;
mod solution_c;

pub use solution_c::{truncate_to_mantissa_bits, SolutionC};

/// One row of the paper's Figure 13: the decompressed value and relative
/// error produced by keeping `mantissa_bits` bits of `value`'s mantissa.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncationLevel {
    /// Number of mantissa bits kept.
    pub mantissa_bits: u32,
    /// Value after truncation.
    pub value: f64,
    /// Relative error vs. the original.
    pub relative_error: f64,
}

/// Enumerate the discrete truncation levels for `value` (Fig. 13 (b)).
///
/// Returns one entry per kept-mantissa-bit count from `max_bits` down to 0.
pub fn truncation_levels(value: f64, max_bits: u32) -> Vec<TruncationLevel> {
    (0..=max_bits.min(52))
        .rev()
        .map(|m| {
            let t = truncate_to_mantissa_bits(value, m);
            let rel = if value == 0.0 {
                0.0
            } else {
                ((value - t) / value).abs()
            };
            TruncationLevel {
                mantissa_bits: m,
                value: t,
                relative_error: rel,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure13_example_value() {
        // The paper walks 3.9921875 through successive bit-plane truncations
        // (values 3.984375, 3.96875, 3.9375, ... with growing relative error).
        let levels = truncation_levels(3.9921875, 8);
        let by_bits = |m: u32| levels.iter().find(|l| l.mantissa_bits == m).unwrap();
        assert_eq!(by_bits(8).value, 3.9921875); // 8 bits represent it exactly
        assert_eq!(by_bits(7).value, 3.984375);
        assert_eq!(by_bits(6).value, 3.96875);
        assert_eq!(by_bits(5).value, 3.9375);
        assert_eq!(by_bits(4).value, 3.875);
        assert_eq!(by_bits(3).value, 3.75);
        assert_eq!(by_bits(2).value, 3.5);
        // Relative errors grow monotonically as planes are dropped.
        let errs: Vec<f64> = levels.iter().map(|l| l.relative_error).collect();
        for w in errs.windows(2) {
            assert!(w[0] <= w[1] + 1e-15);
        }
    }

    #[test]
    fn paper_quoted_relative_errors() {
        // Paper Fig. 13(b): keeping 15 leading bits (3 mantissa bits beyond
        // sign+exponent for single precision in their example) of 3.9921875
        // yields 3.96875 with relative error 0.005871.
        let t = truncate_to_mantissa_bits(3.9921875, 6);
        assert_eq!(t, 3.96875);
        let rel = ((3.9921875 - t) / 3.9921875f64).abs();
        assert!((rel - 0.005871).abs() < 1e-4, "rel={rel}");
    }
}
