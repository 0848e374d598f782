//! The container of segmented Solution C streams (layout in the
//! [`crate::trunc`] module docs): assembling it, walking it and checking
//! its counts. Each segment body is a Solution C mode byte and its body.

use super::SolutionC;
use crate::bitio::bytes;
use crate::codec::CodecError;

/// Number of `f64` values per segment of a segmented stream (512 complex
/// amplitudes).
pub const DEFAULT_SEGMENT_VALUES: usize = 1024;

/// Stream magic of segmented Solution C streams ("QCSs").
pub(super) const MAGIC: u32 = 0x5143_5373;

/// Magics of the segmented layouts this build no longer reads.
const RETIRED: [(u32, &str); 3] = [
    (0x5143_5363, "QCSc, Solution C segments without a mode byte"),
    (
        0x5143_5365,
        "QCSe, Solution C segments behind a checksummed index",
    ),
    (
        0x5143_5364,
        "QCSd, Solution D segments behind a checksummed index",
    ),
];

/// Assemble the segmented stream of `data` at `m` mantissa bits,
/// *appending* it to `out`: each segment's body is encoded straight onto
/// the tail of `out` and its length backfilled, so assembly itself
/// allocates nothing.
pub(super) fn compress_into(data: &[f64], m: u32, out: &mut Vec<u8>) {
    bytes::put_u32(out, MAGIC);
    bytes::put_u64(out, data.len() as u64);
    for slice in data.chunks(DEFAULT_SEGMENT_VALUES) {
        let len_at = out.len();
        bytes::put_u32(out, 0); // body length, backfilled below
        SolutionC::encode_segment_into(slice, m, out);
        let body_len = (out.len() - len_at - 4) as u32;
        out[len_at..len_at + 4].copy_from_slice(&body_len.to_le_bytes());
    }
}

/// Decode a stream of either layout, *appending* the values to `out`. A
/// segmented stream decodes segment by segment; anything else but a
/// retired segmented magic is the whole-stream format. `expect` is the
/// value count the caller knows the stream holds, when it knows one: the
/// whole-stream decoder is handed it, and a segmented stream declaring
/// more is refused before any segment decodes. The declared count is a
/// claim: nothing is reserved for it up front, each segment reserves what
/// its checked body holds.
pub(super) fn decompress_into(
    data: &[u8],
    expect: Option<usize>,
    out: &mut Vec<f64>,
) -> Result<(), CodecError> {
    let corrupt = CodecError::Corrupt;
    let mut pos = 0usize;
    match bytes::get_u32(data, &mut pos) {
        Some(MAGIC) => {}
        Some(m) => {
            return match RETIRED.iter().find(|(old, _)| *old == m) {
                Some((_, what)) => Err(corrupt(format!(
                    "segmented stream in a retired layout (magic {what}); \
                     re-encode it with the current build"
                ))),
                None => SolutionC::decode_stream_into(data, expect, out),
            }
        }
        None => return SolutionC::decode_stream_into(data, expect, out),
    }
    let n_values = bytes::get_u64(data, &mut pos)
        .ok_or_else(|| corrupt("segmented: missing value count".into()))?;
    let n_values = usize::try_from(n_values)
        .map_err(|_| corrupt(format!("segmented: {n_values} values out of range")))?;
    if let Some(want) = expect.filter(|&want| n_values > want) {
        return Err(corrupt(format!(
            "segmented stream declares {n_values} values, expected {want}"
        )));
    }
    for (seg, start) in (0..n_values).step_by(DEFAULT_SEGMENT_VALUES).enumerate() {
        let want = (n_values - start).min(DEFAULT_SEGMENT_VALUES);
        let len = bytes::get_u32(data, &mut pos)
            .ok_or_else(|| corrupt(format!("segment {seg}: missing body length")))?
            as usize;
        let body = data
            .get(pos..pos + len)
            .ok_or_else(|| corrupt(format!("segment {seg}: body truncated")))?;
        pos += len;
        let before = out.len();
        SolutionC::decode_segment_into(body, want, out).map_err(|e| match e {
            CodecError::Corrupt(m) => corrupt(format!("segment {seg}: {m}")),
            e => e,
        })?;
        let decoded = out.len() - before;
        if decoded != want {
            return Err(corrupt(format!(
                "segment {seg}: decoded {decoded} values, expected {want}"
            )));
        }
    }
    if pos != data.len() {
        return Err(corrupt(format!(
            "segmented stream has {} bytes after its last segment",
            data.len() - pos
        )));
    }
    Ok(())
}

/// Byte ranges of the segment bodies of a segmented stream.
#[cfg(test)]
pub(crate) fn body_ranges(stream: &[u8]) -> Vec<std::ops::Range<usize>> {
    let mut ranges = Vec::new();
    let mut at = 12;
    while at < stream.len() {
        let len = u32::from_le_bytes(stream[at..at + 4].try_into().unwrap()) as usize;
        ranges.push(at + 4..at + 4 + len);
        at += 4 + len;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Codec;
    use crate::error_bound::ErrorBound;
    use crate::trunc::SolutionC;

    fn stream(codec: &SolutionC) -> Vec<u8> {
        let data: Vec<f64> = (0..1500).map(|i| (i as f64 * 0.29).cos() * 1e-3).collect();
        codec
            .compress(&data, ErrorBound::PointwiseRelative(1e-3))
            .unwrap()
    }

    fn corrupt_naming(r: Result<Vec<f64>, CodecError>, what: &str) {
        match r {
            Err(CodecError::Corrupt(m)) => assert!(m.contains(what), "{m}"),
            other => panic!("wanted an error naming {what:?}, got {other:?}"),
        }
    }

    #[test]
    fn retired_magics_are_refused_by_name() {
        let codec = SolutionC::default();
        let mut old = stream(&codec);
        for (magic, what) in RETIRED {
            old[..4].copy_from_slice(&magic.to_le_bytes());
            corrupt_naming(codec.decompress(&old), &what[..4]);
        }
    }

    #[test]
    fn counts_and_lengths_must_account_for_every_byte() {
        let codec = SolutionC::default();
        let good = stream(&codec);
        let mut long = good.clone();
        long.push(0);
        corrupt_naming(codec.decompress(&long), "after its last segment");
        let mut out = Vec::new();
        corrupt_naming(
            codec
                .decompress_capped_into(&good, 1499, &mut out)
                .map(|()| out),
            "declares 1500 values, expected 1499",
        );
        let mut short = good.clone();
        short[4..12].copy_from_slice(&1024u64.to_le_bytes());
        corrupt_naming(codec.decompress(&short), "after its last segment");
    }
}
