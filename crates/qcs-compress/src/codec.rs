//! The uniform [`Codec`] interface implemented by both compressors in this
//! crate (and by the comparators the benchmark harness sweeps), plus the
//! [`CodecId`] that names a block's codec in frames, checkpoints and on the
//! wire.

use crate::error_bound::ErrorBound;

/// Errors shared by all codecs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The compressed stream is truncated or inconsistent.
    Corrupt(String),
    /// This codec does not support the requested error-bound mode.
    UnsupportedBound(&'static str),
    /// Invalid parameter (e.g. non-positive bound).
    InvalidParam(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Corrupt(msg) => write!(f, "corrupt stream: {msg}"),
            CodecError::UnsupportedBound(msg) => write!(f, "unsupported error bound: {msg}"),
            CodecError::InvalidParam(msg) => write!(f, "invalid parameter: {msg}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A (de)compressor for `f64` slices under an [`ErrorBound`].
///
/// Implementations must guarantee:
/// - `decompress(compress(data, bound))` has the same length as `data`;
/// - every decompressed point satisfies `bound` with respect to its original;
/// - `ErrorBound::Lossless`, when supported, round-trips bit-exactly.
pub trait Codec: Send + Sync {
    /// Short identifier used in reports (e.g. `"sz"`, `"sol_c"`).
    fn name(&self) -> &'static str;

    /// Compress `data` under `bound` into `out`, reusing its capacity.
    ///
    /// `out` is cleared first; on success it holds the compressed stream,
    /// on error its contents are unspecified. This and
    /// [`Codec::decompress_into`] are the pair a codec implements; the
    /// allocating forms below are provided over them.
    fn compress_into(
        &self,
        data: &[f64],
        bound: ErrorBound,
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError>;

    /// Decompress `bytes` produced by this codec into `out`, reusing its
    /// capacity.
    ///
    /// `out` is cleared first; on success it holds the decoded values, on
    /// error its contents are unspecified.
    fn decompress_into(&self, bytes: &[u8], out: &mut Vec<f64>) -> Result<(), CodecError>;

    /// [`Codec::decompress_into`] for a caller that knows the stream must
    /// hold `max_values` values, such as a store holding one block: a
    /// stream that declares more is refused as [`CodecError::Corrupt`]
    /// before anything is allocated for it. A stream holding fewer may
    /// decode or be refused; the caller checks the decoded length.
    ///
    /// The provided form is [`Codec::decompress_into`]. The codecs whose
    /// headers size an allocation (qzstd and Solution C) override it.
    fn decompress_capped_into(
        &self,
        bytes: &[u8],
        max_values: usize,
        out: &mut Vec<f64>,
    ) -> Result<(), CodecError> {
        let _ = max_values;
        self.decompress_into(bytes, out)
    }

    /// Compress `data` under `bound` into a fresh vector: exactly the
    /// bytes [`Codec::compress_into`] writes, staged through recycled
    /// per-thread scratch so the returned vector's capacity equals its
    /// length (converting it to `Arc<[u8]>`/`Box<[u8]>` never copies
    /// through a reallocation).
    fn compress(&self, data: &[f64], bound: ErrorBound) -> Result<Vec<u8>, CodecError> {
        crate::scratch::staged(|out| self.compress_into(data, bound, out))
    }

    /// Decompress `bytes` into a fresh vector: exactly the values
    /// [`Codec::decompress_into`] writes.
    fn decompress(&self, bytes: &[u8]) -> Result<Vec<f64>, CodecError> {
        let mut out = Vec::new();
        self.decompress_into(bytes, &mut out)?;
        Ok(out)
    }

    /// Whether the codec supports a bound mode.
    fn supports(&self, bound: ErrorBound) -> bool {
        let _ = bound;
        true
    }
}

/// Identifier of the two codecs the engine runs; stable across frames,
/// checkpoints and the wire. The discriminants are the ones these codecs
/// always had: the bytes 1, 2 and 4–6 named the SZ, Solution D, ZFP and
/// FPZIP comparators, which live in the benchmark harness now, and
/// [`CodecId::from_u8`] refuses them like any other unknown byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum CodecId {
    /// Lossless qzstd over raw f64 bytes.
    Qzstd = 0,
    /// Solution C: XOR leading-zero + bit-plane truncation + qzstd.
    SolutionC = 3,
}

impl CodecId {
    /// All codec identifiers.
    pub const ALL: [CodecId; 2] = [CodecId::Qzstd, CodecId::SolutionC];

    /// Parse from the byte stored in frames, checkpoints and wire messages.
    pub fn from_u8(v: u8) -> Option<CodecId> {
        CodecId::ALL.into_iter().find(|c| *c as u8 == v)
    }

    /// Instantiate the codec.
    pub fn build(self) -> Box<dyn Codec> {
        match self {
            CodecId::Qzstd => Box::new(crate::QzstdCodec),
            CodecId::SolutionC => Box::new(crate::trunc::SolutionC::default()),
        }
    }
}

impl std::fmt::Display for CodecId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CodecId::Qzstd => "qzstd",
            CodecId::SolutionC => "sol_c(trunc)",
        })
    }
}

/// Reinterpret an `f64` slice as little-endian bytes.
pub fn f64s_to_bytes(data: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() * 8);
    for v in data {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Append the little-endian byte view of `data` to `out`
/// (allocation-free [`f64s_to_bytes`]).
pub fn extend_f64s_as_bytes(data: &[f64], out: &mut Vec<u8>) {
    out.reserve(data.len() * 8);
    for v in data {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Inverse of [`f64s_to_bytes`]; fails on ragged input.
pub fn bytes_to_f64s(bytes: &[u8]) -> Result<Vec<f64>, CodecError> {
    let mut out = Vec::with_capacity(bytes.len() / 8);
    extend_bytes_as_f64s(bytes, &mut out)?;
    Ok(out)
}

/// Append the `f64` view of little-endian `bytes` to `out`
/// (allocation-free [`bytes_to_f64s`]); fails on ragged input.
pub fn extend_bytes_as_f64s(bytes: &[u8], out: &mut Vec<f64>) -> Result<(), CodecError> {
    if !bytes.len().is_multiple_of(8) {
        return Err(CodecError::Corrupt(format!(
            "byte length {} not a multiple of 8",
            bytes.len()
        )));
    }
    out.reserve(bytes.len() / 8);
    out.extend(
        bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap())),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_id_round_trips_through_u8() {
        for id in CodecId::ALL {
            assert_eq!(CodecId::from_u8(id as u8), Some(id));
        }
        for retired in [1, 2, 4, 5, 6, 200] {
            assert_eq!(CodecId::from_u8(retired), None);
        }
    }

    #[test]
    fn f64_byte_views_round_trip() {
        let data = vec![0.0, -1.5, f64::MIN_POSITIVE, 1e300, -0.0];
        let bytes = f64s_to_bytes(&data);
        let back = bytes_to_f64s(&bytes).unwrap();
        assert_eq!(back.len(), data.len());
        for (a, b) in data.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn ragged_bytes_rejected() {
        assert!(bytes_to_f64s(&[1, 2, 3]).is_err());
    }

    #[test]
    fn every_codec_id_builds() {
        for id in CodecId::ALL {
            let c = id.build();
            assert!(!c.name().is_empty());
        }
    }
}
