//! # qcs-compress
//!
//! Compression substrate for the SC'19 paper *"Full-State Quantum Circuit
//! Simulation by Using Data Compression"* (Wu et al.).
//!
//! Everything here is implemented from scratch in safe Rust:
//!
//! - [`qzstd`] — the lossless backend (LZ77 + canonical Huffman), standing in
//!   for Zstandard;
//! - [`sz`] — SZ 2.1-style prediction-based lossy compression
//!   (the paper's Solutions A and B);
//! - [`trunc`] — the paper's tailored compressor: XOR leading-zero reduction
//!   + bit-plane truncation + lossless backend (Solutions C and D);
//! - [`zfp`] / [`fpzip`] — the domain-transform and predictive-precision
//!   comparators the paper evaluates against;
//! - [`stats`] — error distributions, CDFs and autocorrelation used by the
//!   evaluation figures.
//!
//! All lossy codecs implement the common [`Codec`] trait and guarantee their
//! [`ErrorBound`] pointwise.
//!
//! ## Choosing a codec
//!
//! Every compressor is addressed by a [`CodecId`] and built with
//! [`CodecId::build`]; the paper's Solutions A–D trade generality for
//! state-vector-specific speed. One mode per example:
//!
//! ### Solution A — classic SZ 2.1, maximum generality
//!
//! The baseline prediction-based compressor the paper starts from (§4.2).
//! Best ratios on smooth data; the slowest of the four.
//!
//! ```
//! use qcs_compress::{CodecId, ErrorBound};
//!
//! let data: Vec<f64> = (0..4096).map(|i| (i as f64 * 0.01).sin() * 1e-4).collect();
//! let codec = CodecId::SolutionA.build();
//! let enc = codec.compress(&data, ErrorBound::PointwiseRelative(1e-3)).unwrap();
//! let dec = codec.decompress(&enc).unwrap();
//! assert!(data.iter().zip(&dec).all(|(a, b)| (a - b).abs() <= 1e-3 * a.abs()));
//! ```
//!
//! ### Solution B — SZ with complex-type support
//!
//! Predicts the real (even-index) and imaginary (odd-index) streams
//! independently so one stream's scale never pollutes the other's
//! predictions (§4.2).
//!
//! ```
//! use qcs_compress::{CodecId, ErrorBound};
//!
//! // Interleaved (re, im) amplitudes at very different scales.
//! let data: Vec<f64> = (0..4096)
//!     .map(|i| {
//!         if i % 2 == 0 { ((i / 2) as f64 * 0.01).sin() * 1e-2 }
//!         else { ((i / 2) as f64 * 0.01).cos() * 1e-7 }
//!     })
//!     .collect();
//! let codec = CodecId::SolutionB.build();
//! let enc = codec.compress(&data, ErrorBound::PointwiseRelative(1e-3)).unwrap();
//! let dec = codec.decompress(&enc).unwrap();
//! assert!(data.iter().zip(&dec).all(|(a, b)| (a - b).abs() <= 1e-3 * a.abs() + f64::EPSILON));
//! ```
//!
//! ### Solution C — the paper's tailored fast path
//!
//! XOR leading-zero reduction + bit-plane truncation + lossless backend:
//! the compressor the paper ships, an order of magnitude faster than SZ at
//! simulation-relevant bounds (§4.3, Fig. 10/11). Also supports
//! [`ErrorBound::Lossless`].
//!
//! ```
//! use qcs_compress::{CodecId, ErrorBound};
//!
//! let data: Vec<f64> = (0..4096).map(|i| (i as f64 * 0.1).sin() * 1e-4).collect();
//! let codec = CodecId::SolutionC.build();
//! let enc = codec.compress(&data, ErrorBound::PointwiseRelative(1e-3)).unwrap();
//! let dec = codec.decompress(&enc).unwrap();
//! assert!(data.iter().zip(&dec).all(|(a, b)| (a - b).abs() <= 1e-3 * a.abs()));
//! ```
//!
//! ### Solution D — reshuffle + Solution C
//!
//! Splits interleaved amplitudes into separate real/imaginary streams before
//! the Solution C pipeline, improving the backend's pattern matching on
//! complex data (§4.3).
//!
//! ```
//! use qcs_compress::{CodecId, ErrorBound};
//!
//! let data: Vec<f64> = (0..4096).map(|i| (i as f64 * 0.37).cos() * 1e-5).collect();
//! let codec = CodecId::SolutionD.build();
//! let enc = codec.compress(&data, ErrorBound::PointwiseRelative(1e-4)).unwrap();
//! let dec = codec.decompress(&enc).unwrap();
//! assert!(data.iter().zip(&dec).all(|(a, b)| (a - b).abs() <= 1e-4 * a.abs()));
//! ```
//!
//! ### Lossless mode
//!
//! [`QzstdCodec`] (and Solution C under [`ErrorBound::Lossless`])
//! round-trips bit-exactly — the mode used while the state is still sparse
//! enough to fit the memory budget (§3.7):
//!
//! ```
//! use qcs_compress::{Codec, ErrorBound, QzstdCodec};
//!
//! let data = vec![0.0f64, 1.0, -1.0, f64::MIN_POSITIVE];
//! let codec = QzstdCodec::default();
//! let enc = codec.compress(&data, ErrorBound::Lossless).unwrap();
//! let dec = codec.decompress(&enc).unwrap();
//! assert!(data.iter().zip(&dec).all(|(a, b)| a.to_bits() == b.to_bits()));
//! ```
//!
//! ### Picking the bound mode
//!
//! [`ErrorBound::Absolute`] caps `|d - d'|`; [`ErrorBound::PointwiseRelative`]
//! caps `|d - d'| / |d|`, which is what bounds simulation fidelity (§3.8) —
//! the adaptive ladder in [`ladder`] therefore escalates through relative
//! bounds only. Codecs advertise support via [`Codec::supports`]:
//!
//! ```
//! use qcs_compress::{CodecId, ErrorBound};
//!
//! let sz = CodecId::SolutionA.build();
//! assert!(sz.supports(ErrorBound::Absolute(1e-6)));
//! assert!(sz.supports(ErrorBound::PointwiseRelative(1e-3)));
//! assert!(!sz.supports(ErrorBound::Lossless)); // SZ is inherently lossy
//! assert!(CodecId::SolutionC.build().supports(ErrorBound::Lossless));
//! ```

#![warn(missing_docs)]
// The word-at-a-time entropy back end is plain indexing and shifts; keep it so.
#![forbid(unsafe_code)]

pub mod bitio;
pub mod checksum;
pub mod codec;
pub mod error_bound;
pub mod fpzip;
pub mod frame;
pub mod huffman;
pub mod lz77;
pub mod qzstd;
pub(crate) mod scratch;
pub mod stats;
pub mod sz;
pub mod trunc;
pub mod zfp;

pub use codec::{bytes_to_f64s, f64s_to_bytes, Codec, CodecError, CodecId};
pub use error_bound::{ladder, mantissa_bits_for_relative, ErrorBound, PWR_LEVELS};
pub use frame::{Frame, FrameError};
pub use trunc::segmented::DEFAULT_SEGMENT_VALUES;

/// Lossless codec over raw f64 bytes, wrapping [`qzstd`].
///
/// This is the "Zstd" leg of the paper's hybrid pipeline (§3.7): it is used
/// while the simulation state is still sparse enough for lossless
/// compression to fit the memory budget.
///
/// Most of its blocks hold nothing LZ77 can use: on the `qft_lossless`
/// benchmark workload 99.7 % of the containers come out stored, on
/// `server_mix` 98.5 %. So a block with no repeated aligned 4-byte word
/// skips the match search and reaches qzstd's container selection as one
/// literal run, which is exactly the stream LZ77 writes when it finds no
/// match; the Huffman check still runs on it. A block with a repeat is
/// [`qzstd::compress`] at the codec's level. The probe misses matches
/// shorter than 7 bytes and matches at offsets that are not a multiple of
/// four, so the bytes are [`qzstd::compress`]'s except on blocks whose only
/// matches are of those kinds; the [`qzstd`] module docs give the measured
/// rates. Every container decodes exactly.
#[derive(Debug, Clone)]
pub struct QzstdCodec {
    /// Effort level for the backend.
    pub level: qzstd::Level,
}

impl Default for QzstdCodec {
    fn default() -> Self {
        Self {
            level: qzstd::Level::High,
        }
    }
}

impl Codec for QzstdCodec {
    fn name(&self) -> &'static str {
        "qzstd"
    }

    fn compress_into(
        &self,
        data: &[f64],
        bound: ErrorBound,
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        // A lossless codec satisfies every bound; reject only nonsense input.
        if let ErrorBound::Absolute(e) | ErrorBound::PointwiseRelative(e) = bound {
            if e < 0.0 {
                return Err(CodecError::InvalidParam(format!("negative bound {e}")));
            }
        }
        let mut raw = scratch::take_bytes();
        codec::extend_f64s_as_bytes(data, &mut raw);
        out.clear();
        qzstd::compress_staged(
            &raw,
            self.level,
            |bytes, lz| {
                if qzstd::has_repeated_word(bytes) {
                    lz77::compress_into(bytes, lz);
                } else {
                    lz77::literal_run_into(bytes, lz);
                }
            },
            out,
        );
        scratch::put_bytes(raw);
        Ok(())
    }

    fn decompress_into(&self, data: &[u8], out: &mut Vec<f64>) -> Result<(), CodecError> {
        self.decompress_capped_into(data, usize::MAX, out)
    }

    fn decompress_capped_into(
        &self,
        data: &[u8],
        max_values: usize,
        out: &mut Vec<f64>,
    ) -> Result<(), CodecError> {
        let mut raw = scratch::take_bytes();
        let res = qzstd::decompress_capped_into(data, max_values.saturating_mul(8), &mut raw)
            .map_err(|e| CodecError::Corrupt(e.to_string()))
            .and_then(|()| {
                out.clear();
                codec::extend_bytes_as_f64s(&raw, out)
            });
        scratch::put_bytes(raw);
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qzstd_codec_is_lossless_under_any_bound() {
        let data: Vec<f64> = (0..2048).map(|i| (i as f64).sqrt() * 1e-5).collect();
        let c = QzstdCodec::default();
        for bound in [
            ErrorBound::Lossless,
            ErrorBound::Absolute(1e-3),
            ErrorBound::PointwiseRelative(1e-1),
        ] {
            let enc = c.compress(&data, bound).unwrap();
            let dec = c.decompress(&enc).unwrap();
            for (a, b) in data.iter().zip(&dec) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn all_codecs_round_trip_on_state_like_data() {
        // A cross-codec smoke test over the shared trait.
        let data: Vec<f64> = (0..4096)
            .map(|i| {
                let x = i as f64;
                (x * 0.377).sin() * (x * 0.112).cos() * 1e-3
            })
            .collect();
        for id in CodecId::ALL {
            let codec = id.build();
            let bound = if codec.supports(ErrorBound::PointwiseRelative(1e-3)) {
                ErrorBound::PointwiseRelative(1e-3)
            } else {
                ErrorBound::Absolute(1e-6)
            };
            let enc = codec.compress(&data, bound).unwrap();
            let dec = codec.decompress(&enc).unwrap();
            assert_eq!(dec.len(), data.len(), "{id}");
            match bound {
                ErrorBound::PointwiseRelative(eps) => {
                    for (a, b) in data.iter().zip(&dec) {
                        assert!((a - b).abs() <= eps * a.abs() + 1e-300, "{id}");
                    }
                }
                ErrorBound::Absolute(e) => {
                    for (a, b) in data.iter().zip(&dec) {
                        assert!((a - b).abs() <= e, "{id}");
                    }
                }
                ErrorBound::Lossless => unreachable!(),
            }
        }
    }

    #[test]
    fn solution_c_is_fastest_design_sanity() {
        // Not a benchmark, just the structural property the paper relies on:
        // Solution C output should beat SZ-style output on spiky data at the
        // same bound more often than not. We check bytes, not time, here.
        let data: Vec<f64> = (0..16384)
            .map(|i| {
                let x = i as f64;
                (x * 1.7).sin() * 10f64.powi(-(i % 5) - 3)
            })
            .collect();
        let c = CodecId::SolutionC.build();
        let a = CodecId::SolutionA.build();
        let eps = ErrorBound::PointwiseRelative(1e-3);
        let sc = c.compress(&data, eps).unwrap().len();
        let sa = a.compress(&data, eps).unwrap().len();
        // Allow some slack; the strong claims (speed, and ratio at tight
        // bounds) are exercised by the fig10/fig11 harness and benches.
        assert!(
            (sc as f64) < (sa as f64) * 2.0,
            "solution C ({sc}) should be in the same class as A ({sa})"
        );
    }
}
