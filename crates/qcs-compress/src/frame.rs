//! Self-describing frames for compressed blocks at rest.
//!
//! A *frame* is the unit every persistent tier of the simulator speaks:
//! the out-of-core spill store appends frames to per-rank segment files,
//! and checkpoints are a header followed by one frame per block. The frame
//! carries everything needed to rebuild the block without out-of-band
//! context — which codec produced the payload, under which error bound,
//! how long the payload is, and a checksum that catches torn writes and
//! bit rot before a corrupt payload ever reaches a decompressor:
//!
//! ```text
//! magic "QCF1" (4) | codec u8 | bound tag u8 | bound magnitude f64 le
//! | payload_len u32 le | checksum u64 le (XXH64 over payload) | payload
//! ```
//!
//! The header is a fixed [`HEADER_LEN`] bytes, so a reader can skip a
//! frame without parsing its payload and a writer knows a frame's on-disk
//! footprint up front ([`encoded_len`]).
//!
//! Every checksum here is [`checksum64`] (XXH64, seed 0; see
//! [`crate::checksum`]). Builds up to checkpoint format `QCSCKPT2` computed
//! the same 8-byte fields with FNV-1a. The layouts and the `QCF1`/`QCF2`
//! magics did not change with the function: a frame outlives its process
//! only inside a checkpoint, whose own magic was bumped (spill segments are
//! created fresh and removed by the store that wrote them), and a stray
//! FNV-1a frame handed to [`read_frame`] fails its checksum like any other
//! corrupt payload.
//!
//! # Frame version 2: segment-addressable payloads
//!
//! When the payload is a segmented stream (see [`crate::partial`]),
//! [`write_frame`] automatically emits a version-2 frame:
//!
//! ```text
//! magic "QCF2" (4) | codec u8 | bound tag u8 | bound magnitude f64 le
//! | payload_len u32 le | prefix_len u32 le
//! | checksum u64 le (XXH64 over payload[..prefix_len]) | payload
//! ```
//!
//! A v2 frame's checksum covers only the payload's *stream prefix* (the
//! segmented header + per-segment index); the index's own per-segment
//! checksums cover the bodies. That split is what makes byte-range
//! reads possible — a reader can fetch `header + prefix`, verify both, and
//! then fetch exactly the segment bodies it needs, each verified against
//! its index entry — without ever materializing the whole payload.
//! [`parse_header`] parses either version from a byte slice for exactly
//! this path. [`read_frame`] also checks that a v2 payload is a segmented
//! stream this build reads, with a prefix of exactly `prefix_len` bytes: a
//! segmented layout that is no longer written (see [`crate::partial`]) is
//! refused there by name. Non-segmented payloads keep the version-1
//! format, and version-1 frames remain fully readable.
//!
//! ```
//! use qcs_compress::frame::{read_frame, write_frame};
//! use qcs_compress::{CodecId, ErrorBound};
//!
//! let mut seg = Vec::new();
//! write_frame(&mut seg, CodecId::SolutionC, ErrorBound::PointwiseRelative(1e-4), b"payload").unwrap();
//! let frame = read_frame(&mut seg.as_slice()).unwrap();
//! assert_eq!(frame.codec, CodecId::SolutionC);
//! assert_eq!(frame.payload, b"payload");
//! ```

use crate::checksum::checksum64;
use crate::codec::CodecId;
use crate::error_bound::ErrorBound;
use std::io::{Read, Write};

/// Frame magic: "QCF" + format version 1.
pub const MAGIC: [u8; 4] = *b"QCF1";

/// Frame magic of version-2 (segment-addressable) frames.
pub const MAGIC2: [u8; 4] = *b"QCF2";

/// Fixed size of the frame header preceding the payload:
/// magic 4 + codec 1 + bound tag 1 + bound magnitude 8 + payload_len 4
/// + checksum 8.
pub const HEADER_LEN: usize = 26;

/// Fixed size of a version-2 frame header: [`HEADER_LEN`] plus the
/// `prefix_len u32` field.
pub const HEADER2_LEN: usize = 30;

/// Largest payload a frame accepts (1 GiB): a length field beyond this is
/// treated as corruption rather than an allocation request.
pub const MAX_PAYLOAD: usize = 1 << 30;

/// Upper bound on the payload buffer reserved before any payload byte has
/// been read (64 KiB). Larger payloads grow the buffer as bytes arrive, so
/// the allocation a frame can demand is bounded by the input that actually
/// backs it, not by its `payload_len` field.
const PAYLOAD_ALLOC_CHUNK: usize = 64 * 1024;

/// Errors surfaced while encoding or decoding frames.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying reader/writer failed.
    Io(std::io::Error),
    /// The stream is not a frame, or its checksum/fields are inconsistent.
    Corrupt(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameError::Corrupt(m) => write!(f, "corrupt frame: {m}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// A decoded frame: the compressed payload plus the metadata needed to
/// decompress it.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Codec that produced `payload`.
    pub codec: CodecId,
    /// Error bound the payload was compressed under.
    pub bound: ErrorBound,
    /// The compressed bytes.
    pub payload: Vec<u8>,
}

/// Total on-disk footprint of a *version-1* frame with a
/// `payload_len`-byte payload. Use [`encoded_len_of`] when you hold the
/// payload itself, since segmented payloads get the larger v2 header.
pub fn encoded_len(payload_len: usize) -> usize {
    HEADER_LEN + payload_len
}

/// Total on-disk footprint [`write_frame`] will produce for `payload` —
/// accounts for the automatic v1/v2 header selection.
pub fn encoded_len_of(payload: &[u8]) -> usize {
    match crate::partial::segmented_prefix_len(payload) {
        Some(_) => HEADER2_LEN + payload.len(),
        None => HEADER_LEN + payload.len(),
    }
}

/// Write one frame to `w`. Segmented payloads (see [`crate::partial`]) get
/// a version-2 header whose checksum covers only the stream prefix; any
/// other payload gets the version-1 format. Returns the number of bytes
/// written ([`encoded_len_of`]`(payload)`).
pub fn write_frame<W: Write>(
    w: &mut W,
    codec: CodecId,
    bound: ErrorBound,
    payload: &[u8],
) -> Result<usize, FrameError> {
    if payload.len() > MAX_PAYLOAD {
        return Err(FrameError::Corrupt(format!(
            "payload of {} bytes exceeds the {MAX_PAYLOAD}-byte frame cap",
            payload.len()
        )));
    }
    let prefix_len = crate::partial::segmented_prefix_len(payload);
    w.write_all(if prefix_len.is_some() {
        &MAGIC2
    } else {
        &MAGIC
    })?;
    w.write_all(&[codec as u8, bound.tag()])?;
    w.write_all(&bound.magnitude().to_le_bytes())?;
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    match prefix_len {
        Some(p) => {
            w.write_all(&(p as u32).to_le_bytes())?;
            w.write_all(&checksum64(&payload[..p]).to_le_bytes())?;
        }
        None => w.write_all(&checksum64(payload).to_le_bytes())?,
    }
    w.write_all(payload)?;
    Ok(encoded_len_of(payload))
}

/// Encode one frame into a fresh vector. The returned vector's capacity
/// equals its length, so converting it to `Arc<[u8]>`/`Box<[u8]>` never
/// reallocates.
pub fn encode_frame(
    codec: CodecId,
    bound: ErrorBound,
    payload: &[u8],
) -> Result<Vec<u8>, FrameError> {
    let mut out = Vec::with_capacity(encoded_len_of(payload));
    encode_frame_into(codec, bound, payload, &mut out)?;
    debug_assert_eq!(out.capacity(), out.len());
    Ok(out)
}

/// [`write_frame`] straight into a byte vector, *appending* the frame to
/// `out`. Identical bytes; the exact encoded length is reserved up front,
/// so a reused `out` grows at most once and an empty `out` sized with
/// [`encoded_len_of`] never grows at all.
pub fn encode_frame_into(
    codec: CodecId,
    bound: ErrorBound,
    payload: &[u8],
    out: &mut Vec<u8>,
) -> Result<(), FrameError> {
    if payload.len() > MAX_PAYLOAD {
        return Err(FrameError::Corrupt(format!(
            "payload of {} bytes exceeds the {MAX_PAYLOAD}-byte frame cap",
            payload.len()
        )));
    }
    out.reserve(encoded_len_of(payload));
    let prefix_len = crate::partial::segmented_prefix_len(payload);
    out.extend_from_slice(if prefix_len.is_some() {
        &MAGIC2
    } else {
        &MAGIC
    });
    out.push(codec as u8);
    out.push(bound.tag());
    out.extend_from_slice(&bound.magnitude().to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    match prefix_len {
        Some(p) => {
            out.extend_from_slice(&(p as u32).to_le_bytes());
            out.extend_from_slice(&checksum64(&payload[..p]).to_le_bytes());
        }
        None => out.extend_from_slice(&checksum64(payload).to_le_bytes()),
    }
    out.extend_from_slice(payload);
    Ok(())
}

/// A parsed frame header (either version), without its payload. This is
/// the byte-range read path: parse the header from the head of a spilled
/// frame, then fetch payload bytes selectively.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameHeader {
    /// Codec that produced the payload.
    pub codec: CodecId,
    /// Error bound the payload was compressed under.
    pub bound: ErrorBound,
    /// Payload byte length.
    pub payload_len: usize,
    /// For v2 frames, the length of the payload's stream prefix the
    /// checksum covers; `None` for v1 frames (checksum covers the whole
    /// payload).
    pub prefix_len: Option<usize>,
    /// Header byte length ([`HEADER_LEN`] or [`HEADER2_LEN`]); the payload
    /// starts at this offset.
    pub header_len: usize,
    /// The frame checksum (over the whole payload for v1, over
    /// `payload[..prefix_len]` for v2).
    pub checksum: u64,
}

/// Parse a frame header (either version) from the head of `bytes`.
pub fn parse_header(bytes: &[u8]) -> Result<FrameHeader, FrameError> {
    if bytes.len() < 4 {
        return Err(FrameError::Corrupt("truncated frame header".into()));
    }
    let (v2, header_len) = if bytes[..4] == MAGIC {
        (false, HEADER_LEN)
    } else if bytes[..4] == MAGIC2 {
        (true, HEADER2_LEN)
    } else {
        return Err(FrameError::Corrupt("bad magic".into()));
    };
    if bytes.len() < header_len {
        return Err(FrameError::Corrupt(format!(
            "truncated frame header ({} of {header_len} bytes)",
            bytes.len()
        )));
    }
    let codec = CodecId::from_u8(bytes[4])
        .ok_or_else(|| FrameError::Corrupt(format!("unknown codec id {}", bytes[4])))?;
    let magnitude = f64::from_le_bytes(bytes[6..14].try_into().expect("8 bytes"));
    let bound = ErrorBound::from_tag(bytes[5], magnitude)
        .ok_or_else(|| FrameError::Corrupt(format!("unknown bound tag {}", bytes[5])))?;
    let payload_len = u32::from_le_bytes(bytes[14..18].try_into().expect("4 bytes")) as usize;
    if payload_len > MAX_PAYLOAD {
        return Err(FrameError::Corrupt(format!(
            "payload length {payload_len} exceeds the {MAX_PAYLOAD}-byte frame cap"
        )));
    }
    let (prefix_len, checksum) = if v2 {
        let p = u32::from_le_bytes(bytes[18..22].try_into().expect("4 bytes")) as usize;
        if p > payload_len {
            return Err(FrameError::Corrupt(format!(
                "prefix length {p} exceeds payload length {payload_len}"
            )));
        }
        (
            Some(p),
            u64::from_le_bytes(bytes[22..30].try_into().expect("8 bytes")),
        )
    } else {
        (
            None,
            u64::from_le_bytes(bytes[18..26].try_into().expect("8 bytes")),
        )
    };
    Ok(FrameHeader {
        codec,
        bound,
        payload_len,
        prefix_len,
        header_len,
        checksum,
    })
}

/// Read one frame (either version) from `r`, verifying magic, field
/// validity, and the frame checksum. For v2 frames the checksum covers
/// only the payload's stream prefix; the per-segment checksums carried in
/// that (verified) prefix protect the bodies and are enforced by the codec
/// at decode time.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, FrameError> {
    let mut header = [0u8; HEADER2_LEN];
    r.read_exact(&mut header[..HEADER_LEN])?;
    if header[..4] == MAGIC2 {
        r.read_exact(&mut header[HEADER_LEN..])?;
    }
    let parsed = parse_header(&header)?;
    // Never trust `payload_len` for an upfront allocation: the header may
    // be truncated, corrupt, or network-supplied. Reserve at most one
    // chunk and let `take` + `read_to_end` grow with bytes actually
    // delivered, so a lying length field costs what the stream yields,
    // not what the header claims.
    let payload_len = parsed.payload_len;
    let mut payload = Vec::with_capacity(payload_len.min(PAYLOAD_ALLOC_CHUNK));
    let got = r.take(payload_len as u64).read_to_end(&mut payload)?;
    if got < payload_len {
        return Err(FrameError::Io(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            format!("frame payload truncated: header claims {payload_len} bytes, stream had {got}"),
        )));
    }
    let covered = match parsed.prefix_len {
        Some(p) => &payload[..p],
        None => &payload[..],
    };
    if checksum64(covered) != parsed.checksum {
        return Err(FrameError::Corrupt("payload checksum mismatch".into()));
    }
    // A v2 frame promises a segmented payload this build reads, whose
    // prefix is exactly what the checksum covered.
    if let Some(p) = parsed.prefix_len {
        if crate::partial::segmented_prefix_len(&payload) != Some(p) {
            let why = match crate::partial::SegmentIndex::parse(&payload) {
                Err(e) => e.to_string(),
                Ok(_) => format!("payload is not a segmented stream with a {p}-byte prefix"),
            };
            return Err(FrameError::Corrupt(format!("v2 frame: {why}")));
        }
    }
    Ok(Frame {
        codec: parsed.codec,
        bound: parsed.bound,
        payload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(codec: CodecId, bound: ErrorBound, payload: &[u8]) -> Frame {
        let mut buf = Vec::new();
        let n = write_frame(&mut buf, codec, bound, payload).unwrap();
        assert_eq!(n, buf.len());
        assert_eq!(n, encoded_len(payload.len()));
        read_frame(&mut buf.as_slice()).unwrap()
    }

    #[test]
    fn round_trips_every_bound_kind() {
        for bound in [
            ErrorBound::Lossless,
            ErrorBound::Absolute(1e-6),
            ErrorBound::PointwiseRelative(1e-3),
        ] {
            let f = round_trip(CodecId::Qzstd, bound, b"some compressed bytes");
            assert_eq!(f.codec, CodecId::Qzstd);
            assert_eq!(f.bound, bound);
            assert_eq!(f.payload, b"some compressed bytes");
        }
    }

    #[test]
    fn round_trips_empty_payload() {
        let f = round_trip(CodecId::SolutionD, ErrorBound::Lossless, b"");
        assert!(f.payload.is_empty());
    }

    #[test]
    fn encode_frame_matches_write_frame() {
        use crate::codec::Codec;
        // One flat payload (v1 header) and one segmented payload (v2).
        let segmented = crate::trunc::SolutionC::default()
            .compress(&vec![0.5f64; 3000], ErrorBound::Lossless)
            .unwrap();
        for payload in [&b"payload"[..], &[], &segmented] {
            let mut via_writer = Vec::new();
            write_frame(
                &mut via_writer,
                CodecId::Qzstd,
                ErrorBound::Lossless,
                payload,
            )
            .unwrap();
            let direct = encode_frame(CodecId::Qzstd, ErrorBound::Lossless, payload).unwrap();
            assert_eq!(direct, via_writer);
            assert_eq!(direct.capacity(), direct.len());
            let mut appended = vec![7u8; 2];
            encode_frame_into(CodecId::Qzstd, ErrorBound::Lossless, payload, &mut appended)
                .unwrap();
            assert_eq!(&appended[..2], &[7, 7]);
            assert_eq!(&appended[2..], &via_writer[..]);
        }
    }

    #[test]
    fn rejects_bad_magic() {
        let mut buf = Vec::new();
        write_frame(&mut buf, CodecId::Qzstd, ErrorBound::Lossless, b"x").unwrap();
        buf[0] = b'X';
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(FrameError::Corrupt(_))
        ));
    }

    #[test]
    fn rejects_flipped_payload_bit() {
        let mut buf = Vec::new();
        write_frame(&mut buf, CodecId::Qzstd, ErrorBound::Lossless, b"payload").unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0x40;
        match read_frame(&mut buf.as_slice()) {
            Err(FrameError::Corrupt(m)) => assert!(m.contains("checksum"), "{m}"),
            other => panic!("corrupted payload accepted: {other:?}"),
        }
    }

    #[test]
    fn rejects_unknown_codec_and_bound_tags() {
        let mut buf = Vec::new();
        write_frame(&mut buf, CodecId::Qzstd, ErrorBound::Lossless, b"x").unwrap();
        let mut bad_codec = buf.clone();
        bad_codec[4] = 0xEE;
        assert!(read_frame(&mut bad_codec.as_slice()).is_err());
        let mut bad_bound = buf;
        bad_bound[5] = 0xEE;
        assert!(read_frame(&mut bad_bound.as_slice()).is_err());
    }

    #[test]
    fn rejects_truncated_stream() {
        let mut buf = Vec::new();
        write_frame(
            &mut buf,
            CodecId::Qzstd,
            ErrorBound::Lossless,
            b"0123456789",
        )
        .unwrap();
        for cut in [0, 3, HEADER_LEN - 1, HEADER_LEN + 4] {
            assert!(
                matches!(read_frame(&mut &buf[..cut]), Err(FrameError::Io(_))),
                "cut at {cut} not detected"
            );
        }
    }

    #[test]
    fn rejects_absurd_length_field_without_allocating() {
        let mut buf = Vec::new();
        write_frame(&mut buf, CodecId::Qzstd, ErrorBound::Lossless, b"x").unwrap();
        buf[14..18].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(FrameError::Corrupt(_))
        ));
    }

    #[test]
    fn lying_length_field_costs_only_the_bytes_present() {
        // Header claims a 512 MiB payload (within MAX_PAYLOAD, so the cap
        // check passes) but the stream carries 7 bytes. The reader must
        // fail with UnexpectedEof after reserving at most one chunk —
        // never the claimed half-gigabyte.
        let mut buf = Vec::new();
        write_frame(&mut buf, CodecId::Qzstd, ErrorBound::Lossless, b"0123456").unwrap();
        buf[14..18].copy_from_slice(&(512u32 << 20).to_le_bytes());
        match read_frame(&mut buf.as_slice()) {
            Err(FrameError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "{e}");
            }
            other => panic!("oversized length field accepted: {other:?}"),
        }
    }

    #[test]
    fn rejects_truncated_header_at_every_cut() {
        let mut buf = Vec::new();
        write_frame(&mut buf, CodecId::Qzstd, ErrorBound::Lossless, b"x").unwrap();
        for cut in 0..HEADER_LEN {
            assert!(
                matches!(read_frame(&mut &buf[..cut]), Err(FrameError::Io(_))),
                "header cut at {cut} not detected"
            );
        }
    }

    fn segmented_payload() -> Vec<u8> {
        use crate::codec::Codec;
        let data: Vec<f64> = (0..2048).map(|i| (i as f64 * 0.31).sin() * 1e-4).collect();
        crate::trunc::SolutionC::default()
            .compress(&data, ErrorBound::PointwiseRelative(1e-4))
            .unwrap()
    }

    #[test]
    fn segmented_payloads_get_v2_frames_and_round_trip() {
        let payload = segmented_payload();
        let mut buf = Vec::new();
        let n = write_frame(
            &mut buf,
            CodecId::SolutionC,
            ErrorBound::PointwiseRelative(1e-4),
            &payload,
        )
        .unwrap();
        assert_eq!(&buf[..4], &MAGIC2);
        assert_eq!(n, buf.len());
        assert_eq!(n, encoded_len_of(&payload));
        assert_eq!(n, HEADER2_LEN + payload.len());
        let f = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(f.codec, CodecId::SolutionC);
        assert_eq!(f.payload, payload);
    }

    #[test]
    fn non_segmented_payloads_stay_v1() {
        let mut buf = Vec::new();
        write_frame(&mut buf, CodecId::Qzstd, ErrorBound::Lossless, b"plain").unwrap();
        assert_eq!(&buf[..4], &MAGIC);
        assert_eq!(encoded_len_of(b"plain"), HEADER_LEN + 5);
    }

    #[test]
    fn parse_header_reads_both_versions() {
        let payload = segmented_payload();
        let prefix_len = crate::partial::segmented_prefix_len(&payload).unwrap();
        let mut v2 = Vec::new();
        write_frame(
            &mut v2,
            CodecId::SolutionC,
            ErrorBound::PointwiseRelative(1e-4),
            &payload,
        )
        .unwrap();
        let h = parse_header(&v2).unwrap();
        assert_eq!(h.codec, CodecId::SolutionC);
        assert_eq!(h.payload_len, payload.len());
        assert_eq!(h.prefix_len, Some(prefix_len));
        assert_eq!(h.header_len, HEADER2_LEN);

        let mut v1 = Vec::new();
        write_frame(&mut v1, CodecId::Qzstd, ErrorBound::Lossless, b"xyz").unwrap();
        let h = parse_header(&v1).unwrap();
        assert_eq!(h.payload_len, 3);
        assert_eq!(h.prefix_len, None);
        assert_eq!(h.header_len, HEADER_LEN);

        assert!(parse_header(&v2[..3]).is_err());
        assert!(parse_header(&v2[..HEADER2_LEN - 1]).is_err());
        assert!(parse_header(b"XXXX????????????????????????????").is_err());
    }

    #[test]
    fn v2_corrupt_prefix_rejected_by_frame() {
        let payload = segmented_payload();
        let mut buf = Vec::new();
        write_frame(
            &mut buf,
            CodecId::SolutionC,
            ErrorBound::PointwiseRelative(1e-4),
            &payload,
        )
        .unwrap();
        // Flip a bit inside the segment index (payload prefix).
        buf[HEADER2_LEN + 10] ^= 0x04;
        match read_frame(&mut buf.as_slice()) {
            Err(FrameError::Corrupt(m)) => assert!(m.contains("checksum"), "{m}"),
            other => panic!("corrupt v2 prefix accepted: {other:?}"),
        }
    }

    #[test]
    fn v2_corrupt_body_passes_frame_but_fails_codec() {
        use crate::codec::Codec;
        let payload = segmented_payload();
        let prefix_len = crate::partial::segmented_prefix_len(&payload).unwrap();
        let mut buf = Vec::new();
        write_frame(
            &mut buf,
            CodecId::SolutionC,
            ErrorBound::PointwiseRelative(1e-4),
            &payload,
        )
        .unwrap();
        // Flip a body bit: past the frame checksum's coverage, but caught by
        // the per-segment checksum the codec enforces.
        buf[HEADER2_LEN + prefix_len + 3] ^= 0x20;
        let f = read_frame(&mut buf.as_slice()).unwrap();
        assert!(crate::trunc::SolutionC::default()
            .decompress(&f.payload)
            .is_err());
    }

    #[test]
    fn v2_truncated_header_rejected() {
        let payload = segmented_payload();
        let mut buf = Vec::new();
        write_frame(
            &mut buf,
            CodecId::SolutionC,
            ErrorBound::PointwiseRelative(1e-4),
            &payload,
        )
        .unwrap();
        for cut in [4, HEADER_LEN, HEADER2_LEN - 1] {
            assert!(
                matches!(read_frame(&mut &buf[..cut]), Err(FrameError::Io(_))),
                "v2 header cut at {cut} not detected"
            );
        }
    }

    #[test]
    fn frames_concatenate_into_a_segment() {
        let mut seg = Vec::new();
        for (i, bound) in [ErrorBound::Lossless, ErrorBound::PointwiseRelative(1e-5)]
            .iter()
            .enumerate()
        {
            write_frame(&mut seg, CodecId::SolutionC, *bound, &vec![i as u8; 5 + i]).unwrap();
        }
        let mut r = seg.as_slice();
        let a = read_frame(&mut r).unwrap();
        let b = read_frame(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(a.payload, vec![0u8; 5]);
        assert_eq!(b.payload, vec![1u8; 6]);
        assert_eq!(b.bound, ErrorBound::PointwiseRelative(1e-5));
    }
}
