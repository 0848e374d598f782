//! Shared container engine for the segmented Solution C/D formats.
//!
//! Both codecs reuse the layout documented in [`crate::partial`]: a fixed
//! header, a per-segment `(len, checksum)` index (the checksum is
//! [`checksum64`], XXH64), then independently encoded segment bodies. This
//! module owns the container mechanics — assembling, verifying, decoding,
//! and splicing — while each codec supplies the per-slice encode/decode of
//! its segment bodies (Solution C: a mode byte and its body; Solution D:
//! its legacy body).
//!
//! Assembly is single-pass and allocation-free on the caller's buffer:
//! the index region is reserved with placeholder bytes, each body is
//! encoded (or copied) straight onto the tail of the output, and the
//! `(len, checksum)` entry is backfilled once the body's extent is known.

use crate::bitio::bytes;
use crate::checksum::checksum64;
use crate::codec::CodecError;
use crate::partial::{SegmentEdit, SegmentIndex};

/// The per-slice body decoder a codec lends to the container machinery:
/// decodes a body the index says holds the given number of values, and
/// appends them to the output buffer. It must refuse any length in the
/// body that count cannot need before it allocates.
pub(crate) type DecodeSlice<'a> = &'a dyn Fn(&[u8], usize, &mut Vec<f64>) -> Result<(), CodecError>;

/// Byte offset of the segment index within a stream (the fixed header).
const INDEX_START: usize = 20;
/// Bytes per index entry: body_len u32 + body_checksum u64.
const ENTRY_LEN: usize = 12;

/// Write the fixed header plus a zeroed index for `n_segs` segments,
/// returning the offset of the first index entry (within `out`).
fn put_prefix(out: &mut Vec<u8>, magic: u32, n_values: usize, seg_values: usize, n_segs: usize) {
    bytes::put_u32(out, magic);
    bytes::put_u64(out, n_values as u64);
    bytes::put_u32(out, seg_values as u32);
    bytes::put_u32(out, n_segs as u32);
    out.resize(out.len() + ENTRY_LEN * n_segs, 0);
}

/// Backfill the index entry for segment `seg` of a stream that starts at
/// `base` within `out`, describing the body spanning `body_start..` to the
/// current end of `out`.
fn fill_entry(out: &mut [u8], base: usize, seg: usize, body_start: usize) {
    let body_len = out.len() - body_start;
    let sum = checksum64(&out[body_start..]);
    let at = base + INDEX_START + ENTRY_LEN * seg;
    out[at..at + 4].copy_from_slice(&(body_len as u32).to_le_bytes());
    out[at + 4..at + 12].copy_from_slice(&sum.to_le_bytes());
}

/// Assemble a segmented stream, *appending* it to `out`: split `data`
/// every `seg_values` doubles and encode each slice with `encode_slice`.
/// Bodies are encoded directly onto the tail of `out` and their index
/// entries backfilled, so assembly itself performs no heap allocation.
pub(crate) fn compress_into(
    magic: u32,
    data: &[f64],
    seg_values: usize,
    mut encode_slice: impl FnMut(&[f64], &mut Vec<u8>),
    out: &mut Vec<u8>,
) {
    let seg_values = seg_values.max(1);
    let n_segs = data.len().div_ceil(seg_values);
    let base = out.len();
    put_prefix(out, magic, data.len(), seg_values, n_segs);
    for (seg, slice) in data.chunks(seg_values).enumerate() {
        let body_start = out.len();
        encode_slice(slice, out);
        fill_entry(out, base, seg, body_start);
    }
}

/// Decode one segment body, verifying its length and checksum against the
/// index entry and its value count against the segment's coverage.
pub(crate) fn decode_segment(
    index: &SegmentIndex,
    seg: usize,
    body: &[u8],
    decode_slice: DecodeSlice<'_>,
    out: &mut Vec<f64>,
) -> Result<(), CodecError> {
    if seg >= index.n_segs() {
        return Err(CodecError::InvalidParam(format!(
            "segment {seg} out of bounds ({} segments)",
            index.n_segs()
        )));
    }
    let entry = index.entry(seg);
    if body.len() != entry.len {
        return Err(CodecError::Corrupt(format!(
            "segment {seg}: body is {} bytes, index says {}",
            body.len(),
            entry.len
        )));
    }
    if checksum64(body) != entry.checksum {
        return Err(CodecError::Corrupt(format!(
            "segment {seg}: body checksum mismatch"
        )));
    }
    let want = index.value_range(seg).len();
    let before = out.len();
    decode_slice(body, want, out)?;
    let decoded = out.len() - before;
    if decoded != want {
        return Err(CodecError::Corrupt(format!(
            "segment {seg}: decoded {decoded} values, expected {want}"
        )));
    }
    Ok(())
}

/// Decode a whole stream of either layout, *appending* the values to
/// `out`. A segmented stream decodes segment by segment through
/// `decode_slice`; anything else is the legacy whole-stream format and goes
/// to `decode_whole` (a stale segmented magic is an error, not a whole
/// stream). `expect` is the value count the caller knows the stream holds,
/// when it knows one: `decode_whole` is handed it, and an index declaring
/// more is refused before any segment decodes. The index's value count is
/// a claim: nothing is reserved for it up front, each segment reserves what
/// its checked body holds.
pub(crate) fn decompress_into(
    data: &[u8],
    expect: Option<usize>,
    decode_slice: DecodeSlice<'_>,
    decode_whole: impl FnOnce(&[u8], Option<usize>, &mut Vec<f64>) -> Result<(), CodecError>,
    out: &mut Vec<f64>,
) -> Result<(), CodecError> {
    let Some(index) = SegmentIndex::parse(data)? else {
        return decode_whole(data, expect, out);
    };
    if let Some(want) = expect.filter(|&want| index.n_values > want) {
        return Err(CodecError::Corrupt(format!(
            "segmented stream declares {} values, expected {want}",
            index.n_values
        )));
    }
    if index.stream_len() != data.len() {
        return Err(CodecError::Corrupt(format!(
            "segmented stream is {} bytes, index accounts for {}",
            data.len(),
            index.stream_len()
        )));
    }
    for seg in 0..index.n_segs() {
        let body = data
            .get(index.byte_range(seg))
            .ok_or_else(|| CodecError::Corrupt(format!("segment {seg} body out of bounds")))?;
        decode_segment(&index, seg, body, decode_slice, out)?;
    }
    Ok(())
}

/// Splice segment-level edits into a segmented stream, *appending* the
/// new stream to `out`: edited segments get freshly encoded bodies via
/// `encode_slice`, straight onto the tail of `out`; untouched bodies are
/// copied verbatim from `data`. `Zero` edits reuse one canonical zero body
/// per slice length, so zeroing segments never pays an encode per segment.
pub(crate) fn splice_into(
    magic: u32,
    data: &[u8],
    edits: &[SegmentEdit<'_>],
    mut encode_slice: impl FnMut(&[f64], &mut Vec<u8>) -> Result<(), CodecError>,
    out: &mut Vec<u8>,
) -> Result<(), CodecError> {
    let index = SegmentIndex::parse(data)?
        .ok_or_else(|| CodecError::Corrupt("not a segmented stream".into()))?;
    // Last edit per segment wins, matching the historical splice order.
    let mut pending: Vec<Option<&SegmentEdit<'_>>> = vec![None; index.n_segs()];
    for edit in edits {
        let seg = edit.seg();
        if seg >= index.n_segs() {
            return Err(CodecError::InvalidParam(format!(
                "segment {seg} out of bounds ({} segments)",
                index.n_segs()
            )));
        }
        if let SegmentEdit::Replace { values, .. } = edit {
            let n = index.value_range(seg).len();
            if values.len() != n {
                return Err(CodecError::InvalidParam(format!(
                    "segment {seg}: {} replacement values, expected {n}",
                    values.len()
                )));
            }
        }
        pending[seg] = Some(edit);
    }

    // (slice length -> byte range of the encoded zero body within `out`)
    // for Zero edits; segments of equal coverage share one encode.
    let mut zero_bodies: Vec<(usize, std::ops::Range<usize>)> = Vec::new();
    let mut zeros = crate::scratch::take_f64s();
    let base = out.len();
    put_prefix(out, magic, index.n_values, index.seg_values, index.n_segs());
    let mut splice_one = |seg: usize, out: &mut Vec<u8>| -> Result<(), CodecError> {
        let body_start = out.len();
        match pending[seg] {
            Some(SegmentEdit::Replace { values, .. }) => encode_slice(values, out)?,
            Some(SegmentEdit::Zero { .. }) => {
                let n = index.value_range(seg).len();
                match zero_bodies.iter().find(|(len, _)| *len == n) {
                    Some((_, range)) => out.extend_from_within(range.clone()),
                    None => {
                        zeros.clear();
                        zeros.resize(n, 0.0);
                        encode_slice(&zeros, out)?;
                        zero_bodies.push((n, body_start..out.len()));
                    }
                }
            }
            None => {
                let body = data.get(index.byte_range(seg)).ok_or_else(|| {
                    CodecError::Corrupt(format!("segment {seg} body out of bounds"))
                })?;
                out.extend_from_slice(body);
            }
        }
        fill_entry(out, base, seg, body_start);
        Ok(())
    };
    let mut res = Ok(());
    for seg in 0..index.n_segs() {
        res = splice_one(seg, out);
        if res.is_err() {
            break;
        }
    }
    crate::scratch::put_f64s(zeros);
    res
}
