//! Segment-addressable streams: the [`PartialCodec`] capability trait and
//! the segment index shared by the segmented Solution C/D formats.
//!
//! # The segmented stream layout
//!
//! A segmented stream breaks the value sequence into fixed-size *segments*
//! of `seg_values` doubles (the last segment may be shorter). Each segment
//! is encoded independently — the XOR-delta chain of Solution C resets at
//! every segment boundary and each segment body is compressed by the
//! lossless backend on its own — so any segment can be decoded,
//! transformed, and re-encoded without touching the rest of the stream:
//!
//! ```text
//! magic u32 | n_values u64 | seg_values u32 | n_segs u32
//! | n_segs x { body_len u32 | body_checksum u64 }     <- the segment index
//! | segment bodies, back to back
//! ```
//!
//! Everything before the bodies is the *stream prefix*: a fixed 20-byte
//! header plus 12 bytes per segment. Its length is a pure function of
//! `(n_values, seg_values)` ([`SegmentIndex::prefix_len_for`]). Each body
//! carries its own checksum in the index
//! ([`checksum64`](crate::checksum::checksum64), XXH64 — FNV-1a in streams
//! written before checkpoint format `QCSCKPT3`, which therefore fail
//! verification segment by segment), so a partial decode verifies exactly
//! the bodies it reads, and the enclosing frame only has to checksum the
//! prefix.
//!
//! A Solution C segment body starts with a mode byte (see
//! [`crate::trunc`]). Segmented Solution C streams written before checkpoint
//! format `QCSCKPT4` had no mode byte and the magic "QCSc";
//! [`SegmentIndex::parse`] refuses them with a `Corrupt` error that names
//! the old layout.
//!
//! Legacy (whole-stream) Solution C/D formats remain decodable; they are
//! simply not segment-addressable ([`SegmentIndex::parse`] returns `None`
//! for them).

use crate::codec::{Codec, CodecError};
use crate::error_bound::ErrorBound;
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
    /// Byte length of the stream prefix (header + index) for a stream of
    /// `n_values` doubles segmented every `seg_values`. This is a pure
    /// function of the two counts, so callers that know a block's geometry
    /// can size a byte-range read for the prefix before reading any bytes.
    pub fn prefix_len_for(n_values: usize, seg_values: usize) -> usize {
        FIXED_PREFIX + ENTRY_LEN * n_values.div_ceil(seg_values.max(1))
    }

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
/// persistent tiers use to decide whether a payload is segment-addressable
/// (e.g. which frame version to write) without knowing which codec
/// produced it.
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

/// One segment-level edit applied by [`PartialCodec::recompress_segments`].
#[derive(Debug, Clone, Copy)]
pub enum SegmentEdit<'a> {
    /// Re-encode the segment from `values` (which must cover the
    /// segment's whole value range).
    Replace {
        /// Segment index.
        seg: usize,
        /// Replacement values, one per value the segment covers.
        values: &'a [f64],
    },
    /// Replace the segment with all zeros, without decoding it.
    Zero {
        /// Segment index.
        seg: usize,
    },
}

impl SegmentEdit<'_> {
    /// The segment this edit targets.
    pub fn seg(&self) -> usize {
        match self {
            SegmentEdit::Replace { seg, .. } | SegmentEdit::Zero { seg } => *seg,
        }
    }
}

/// Capability trait for codecs whose streams are segment-addressable.
///
/// A partial codec can decode or re-encode any run of segments in
/// `O(touched)` codec work instead of `O(stream)`: `decompress_range`
/// reads only the requested bodies, and `recompress_range` /
/// `recompress_segments` splice freshly encoded bodies into the stream
/// without decoding the untouched ones. Re-encoding an untouched segment
/// at the same bound is byte-stable (truncation is idempotent), so mixing
/// partial and whole-stream passes over the same data is safe.
pub trait PartialCodec: Codec {
    /// Whether streams this codec currently *produces* are
    /// segment-addressable. Decoding remains format-driven: a legacy
    /// stream is still decoded whole even when this returns `true`.
    fn supports_partial(&self) -> bool;

    /// Values per segment in freshly encoded streams, or `None` when the
    /// codec is configured for the legacy whole-stream format.
    fn segment_values(&self) -> Option<usize>;

    /// Parse the segment index of `data` (a whole stream or a prefix).
    /// `Ok(None)` when `data` is a legacy whole-stream format.
    fn segment_index(&self, data: &[u8]) -> Result<Option<SegmentIndex>, CodecError> {
        SegmentIndex::parse(data)
    }

    /// Decode one segment from its body bytes alone (`body` need not live
    /// inside a complete stream). Appends the segment's values to `out`.
    fn decompress_segment(
        &self,
        index: &SegmentIndex,
        seg: usize,
        body: &[u8],
        out: &mut Vec<f64>,
    ) -> Result<(), CodecError>;

    /// Decode the contiguous segment run `segs` from a complete stream,
    /// appending the covered values to `out` in order.
    fn decompress_range(
        &self,
        data: &[u8],
        segs: Range<usize>,
        out: &mut Vec<f64>,
    ) -> Result<(), CodecError> {
        let index = self
            .segment_index(data)?
            .ok_or_else(|| CodecError::Corrupt("not a segmented stream".into()))?;
        if segs.end > index.n_segs() {
            return Err(CodecError::InvalidParam(format!(
                "segment range {segs:?} out of bounds ({} segments)",
                index.n_segs()
            )));
        }
        for seg in segs {
            let body = data
                .get(index.byte_range(seg))
                .ok_or_else(|| CodecError::Corrupt(format!("segment {seg} body out of bounds")))?;
            self.decompress_segment(&index, seg, body, out)?;
        }
        Ok(())
    }

    /// Apply segment-level `edits` to a complete stream, writing the new
    /// stream into `out` (cleared first). Untouched segment bodies are
    /// copied verbatim — never decoded or re-encoded.
    fn recompress_segments_into(
        &self,
        data: &[u8],
        edits: &[SegmentEdit<'_>],
        bound: ErrorBound,
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError>;

    /// [`PartialCodec::recompress_segments_into`] into a fresh vector
    /// whose capacity equals its length, staged through recycled
    /// per-thread scratch like [`Codec::compress`].
    fn recompress_segments(
        &self,
        data: &[u8],
        edits: &[SegmentEdit<'_>],
        bound: ErrorBound,
    ) -> Result<Vec<u8>, CodecError> {
        crate::scratch::staged(|out| self.recompress_segments_into(data, edits, bound, out))
    }

    /// Re-encode the contiguous segment run `segs` from `values` (the
    /// run's full value coverage, in order) and splice the result into
    /// `data`, returning the new stream.
    fn recompress_range(
        &self,
        data: &[u8],
        segs: Range<usize>,
        values: &[f64],
        bound: ErrorBound,
    ) -> Result<Vec<u8>, CodecError> {
        let index = self
            .segment_index(data)?
            .ok_or_else(|| CodecError::Corrupt("not a segmented stream".into()))?;
        let mut edits = Vec::with_capacity(segs.len());
        let mut consumed = 0usize;
        for seg in segs.clone() {
            let n = index.value_range(seg).len();
            let vals = values.get(consumed..consumed + n).ok_or_else(|| {
                CodecError::InvalidParam(format!(
                    "value slice of {} too short for segments {segs:?}",
                    values.len()
                ))
            })?;
            consumed += n;
            edits.push(SegmentEdit::Replace { seg, values: vals });
        }
        if consumed != values.len() {
            return Err(CodecError::InvalidParam(format!(
                "value slice of {} does not match segments {segs:?} ({consumed} values)",
                values.len()
            )));
        }
        self.recompress_segments(data, &edits, bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_len_matches_layout() {
        assert_eq!(SegmentIndex::prefix_len_for(0, 1024), 20);
        assert_eq!(SegmentIndex::prefix_len_for(1024, 1024), 32);
        assert_eq!(SegmentIndex::prefix_len_for(1025, 1024), 44);
        assert_eq!(SegmentIndex::prefix_len_for(8192, 1024), 20 + 8 * 12);
    }

    #[test]
    fn parse_rejects_foreign_magic() {
        assert_eq!(SegmentIndex::parse(b"nope").unwrap(), None);
        assert_eq!(SegmentIndex::parse(&[]).unwrap(), None);
        assert_eq!(segmented_prefix_len(b"nope"), None);
    }
}
