//! The segment index of the segmented Solution C/D stream formats.
//!
//! # The segmented stream layout
//!
//! A segmented stream breaks the value sequence into fixed-size *segments*
//! of `seg_values` doubles (the last segment may be shorter). Each segment
//! is encoded independently — the XOR-delta chain of Solution C resets at
//! every segment boundary and each segment body is compressed by the
//! lossless backend on its own, in the mode that suits it (see
//! [`crate::trunc`]):
//!
//! ```text
//! magic u32 | n_values u64 | seg_values u32 | n_segs u32
//! | n_segs x { body_len u32 | body_checksum u64 }     <- the segment index
//! | segment bodies, back to back
//! ```
//!
//! Everything before the bodies is the *stream prefix*: a fixed 20-byte
//! header plus 12 bytes per segment. Each body carries its own checksum in
//! the index ([`checksum64`](crate::checksum::checksum64), XXH64 — FNV-1a
//! in streams written before checkpoint format `QCSCKPT3`, which therefore
//! fail verification segment by segment), so a decode verifies every body
//! it reads, and the enclosing frame only has to checksum the prefix.
//!
//! A Solution C segment body starts with a mode byte (see
//! [`crate::trunc`]). Segmented Solution C streams written before checkpoint
//! format `QCSCKPT4` had no mode byte and the magic "QCSc";
//! [`SegmentIndex::parse`] refuses them with a `Corrupt` error that names
//! the old layout.
//!
//! Legacy (whole-stream) Solution C/D formats remain decodable; they have
//! no segment index ([`SegmentIndex::parse`] returns `None` for them).

use crate::codec::CodecError;
use std::ops::Range;

/// Default number of `f64` values per segment in segmented streams
/// (512 complex amplitudes).
pub const DEFAULT_SEGMENT_VALUES: usize = 1024;

/// Stream magic of segmented Solution C streams whose segments start with
/// a mode byte ("QCSe").
pub(crate) const SEG_MAGIC_C: u32 = 0x5143_5365;
/// Stream magic of segmented Solution C streams written before segments
/// carried a mode byte ("QCSc"): recognised only to be refused by name.
const SEG_MAGIC_C_V1: u32 = 0x5143_5363;
/// Stream magic of segmented Solution D streams ("QCSd").
pub(crate) const SEG_MAGIC_D: u32 = 0x5143_5364;

/// Fixed part of the stream prefix: magic 4 + n_values 8 + seg_values 4
/// + n_segs 4.
const FIXED_PREFIX: usize = 20;
/// Bytes per segment-index entry: body_len u32 + body_checksum u64.
const ENTRY_LEN: usize = 12;

/// One entry of a parsed segment index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentEntry {
    /// Absolute byte offset of the segment body within the stream.
    pub offset: usize,
    /// Byte length of the segment body.
    pub len: usize,
    /// [`checksum64`](crate::checksum::checksum64) of the segment body.
    pub checksum: u64,
}

/// Parsed per-segment byte-offset index of a segmented stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentIndex {
    /// Total `f64` values in the stream.
    pub n_values: usize,
    /// Values per segment (every segment but possibly the last).
    pub seg_values: usize,
    entries: Vec<SegmentEntry>,
}

impl SegmentIndex {
    /// Parse the index from the head of `bytes` (a whole stream or just
    /// its prefix). Returns `Ok(None)` when the magic is not a segmented
    /// format; `Err` when it is but the prefix is truncated or
    /// inconsistent, and when it is a segmented layout this build no
    /// longer reads.
    pub fn parse(bytes: &[u8]) -> Result<Option<SegmentIndex>, CodecError> {
        use crate::bitio::bytes as b;
        let mut pos = 0usize;
        match b::get_u32(bytes, &mut pos) {
            Some(m) if m == SEG_MAGIC_C || m == SEG_MAGIC_D => {}
            Some(SEG_MAGIC_C_V1) => {
                return Err(CodecError::Corrupt(
                    "segmented Solution C stream in the layout without segment mode \
                     bytes (magic QCSc); re-encode it with the current build"
                        .into(),
                ))
            }
            _ => return Ok(None),
        }
        let n_values = b::get_u64(bytes, &mut pos)
            .ok_or_else(|| CodecError::Corrupt("segmented: missing value count".into()))?
            as usize;
        let seg_values = b::get_u32(bytes, &mut pos)
            .ok_or_else(|| CodecError::Corrupt("segmented: missing segment size".into()))?
            as usize;
        let n_segs = b::get_u32(bytes, &mut pos)
            .ok_or_else(|| CodecError::Corrupt("segmented: missing segment count".into()))?
            as usize;
        if seg_values == 0 {
            return Err(CodecError::Corrupt("segmented: zero segment size".into()));
        }
        if n_segs != n_values.div_ceil(seg_values) {
            return Err(CodecError::Corrupt(format!(
                "segmented: {n_segs} segments inconsistent with {n_values} values \
                 at {seg_values} per segment"
            )));
        }
        let prefix_len = FIXED_PREFIX + ENTRY_LEN * n_segs;
        if bytes.len() < prefix_len {
            return Err(CodecError::Corrupt(format!(
                "segmented: index truncated ({} of {prefix_len} prefix bytes)",
                bytes.len()
            )));
        }
        let mut entries = Vec::with_capacity(n_segs);
        let mut offset = prefix_len;
        for _ in 0..n_segs {
            let len = b::get_u32(bytes, &mut pos).expect("index sized above") as usize;
            let checksum = b::get_u64(bytes, &mut pos).expect("index sized above");
            entries.push(SegmentEntry {
                offset,
                len,
                checksum,
            });
            offset = offset
                .checked_add(len)
                .ok_or_else(|| CodecError::Corrupt("segmented: body offsets overflow".into()))?;
        }
        Ok(Some(SegmentIndex {
            n_values,
            seg_values,
            entries,
        }))
    }

    /// Number of segments.
    pub fn n_segs(&self) -> usize {
        self.entries.len()
    }

    /// Byte length of the stream prefix (header + index).
    pub fn prefix_len(&self) -> usize {
        FIXED_PREFIX + ENTRY_LEN * self.entries.len()
    }

    /// Total byte length of the stream (prefix plus all bodies).
    pub fn stream_len(&self) -> usize {
        self.entries
            .last()
            .map_or(self.prefix_len(), |e| e.offset + e.len)
    }

    /// The index entry for segment `seg`.
    pub fn entry(&self, seg: usize) -> SegmentEntry {
        self.entries[seg]
    }

    /// Absolute byte range of segment `seg`'s body within the stream.
    pub fn byte_range(&self, seg: usize) -> Range<usize> {
        let e = self.entries[seg];
        e.offset..e.offset + e.len
    }

    /// Value-index range segment `seg` covers.
    pub fn value_range(&self, seg: usize) -> Range<usize> {
        let start = seg * self.seg_values;
        start..((seg + 1) * self.seg_values).min(self.n_values)
    }
}

/// Byte length of the stream prefix when `bytes` is the head of a
/// segmented stream, `None` otherwise. This is the codec-agnostic probe
/// the frame format uses to decide which frame version to write without
/// knowing which codec produced the payload.
pub fn segmented_prefix_len(bytes: &[u8]) -> Option<usize> {
    use crate::bitio::bytes as b;
    let mut pos = 0usize;
    match b::get_u32(bytes, &mut pos) {
        Some(m) if m == SEG_MAGIC_C || m == SEG_MAGIC_D => {}
        _ => return None,
    }
    let n_values = b::get_u64(bytes, &mut pos)? as usize;
    let seg_values = b::get_u32(bytes, &mut pos)? as usize;
    let n_segs = b::get_u32(bytes, &mut pos)? as usize;
    if seg_values == 0 || n_segs != n_values.div_ceil(seg_values) {
        return None;
    }
    let prefix_len = FIXED_PREFIX + ENTRY_LEN * n_segs;
    (bytes.len() >= prefix_len).then_some(prefix_len)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fixed header of a segmented Solution C stream followed by a
    /// zeroed index: `n_values` doubles every `seg_values`.
    fn prefix(n_values: u64, seg_values: u32) -> Vec<u8> {
        let n_segs = n_values.div_ceil(seg_values.into()) as u32;
        let mut out = SEG_MAGIC_C.to_le_bytes().to_vec();
        out.extend_from_slice(&n_values.to_le_bytes());
        out.extend_from_slice(&seg_values.to_le_bytes());
        out.extend_from_slice(&n_segs.to_le_bytes());
        out.resize(out.len() + ENTRY_LEN * n_segs as usize, 0);
        out
    }

    #[test]
    fn prefix_len_matches_layout() {
        for (n_values, want) in [(0, 20), (1024, 32), (1025, 44), (8192, 20 + 8 * 12)] {
            let bytes = prefix(n_values, 1024);
            assert_eq!(segmented_prefix_len(&bytes), Some(want));
            let index = SegmentIndex::parse(&bytes).unwrap().unwrap();
            assert_eq!(index.prefix_len(), want);
            assert_eq!(segmented_prefix_len(&bytes[..want - 1]), None);
        }
    }

    #[test]
    fn parse_rejects_foreign_magic() {
        assert_eq!(SegmentIndex::parse(b"nope").unwrap(), None);
        assert_eq!(SegmentIndex::parse(&[]).unwrap(), None);
        assert_eq!(segmented_prefix_len(b"nope"), None);
    }
}
