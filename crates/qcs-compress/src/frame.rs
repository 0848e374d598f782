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
//! The checksum is [`checksum64`] (XXH64, seed 0; see [`crate::checksum`])
//! over every payload byte, whatever the codec. It is the only hash a
//! block's bytes get: the segmented Solution C streams carry none of
//! their own ([`crate::trunc`]). Builds up to checkpoint format `QCSCKPT2`
//! computed the same field with FNV-1a; a frame outlives its process only
//! inside a checkpoint, whose own magic was bumped (spill segments are
//! created fresh and removed by the store that wrote them), and a stray
//! FNV-1a frame handed to [`read_frame`] fails its checksum like any other
//! corrupt payload. Builds up to checkpoint format `QCSCKPT4` also wrote a
//! version-2 frame around each segmented payload, whose checksum covered
//! only the payload's segment index; [`read_frame`] refuses it by name.
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

/// Fixed size of the frame header preceding the payload:
/// magic 4 + codec 1 + bound tag 1 + bound magnitude 8 + payload_len 4
/// + checksum 8.
pub const HEADER_LEN: usize = 26;

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

/// Total on-disk footprint of a frame with a `payload_len`-byte payload.
pub fn encoded_len(payload_len: usize) -> usize {
    HEADER_LEN + payload_len
}

/// The header [`write_frame`] and [`encode_frame_into`] put in front of
/// `payload`.
fn header(
    codec: CodecId,
    bound: ErrorBound,
    payload: &[u8],
) -> Result<[u8; HEADER_LEN], FrameError> {
    if payload.len() > MAX_PAYLOAD {
        return Err(FrameError::Corrupt(format!(
            "payload of {} bytes exceeds the {MAX_PAYLOAD}-byte frame cap",
            payload.len()
        )));
    }
    let mut h = [0u8; HEADER_LEN];
    h[..4].copy_from_slice(&MAGIC);
    h[4] = codec as u8;
    h[5] = bound.tag();
    h[6..14].copy_from_slice(&bound.magnitude().to_le_bytes());
    h[14..18].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    h[18..26].copy_from_slice(&checksum64(payload).to_le_bytes());
    Ok(h)
}

/// Write one frame to `w`. Returns the number of bytes written
/// ([`encoded_len`]`(payload.len())`).
pub fn write_frame<W: Write>(
    w: &mut W,
    codec: CodecId,
    bound: ErrorBound,
    payload: &[u8],
) -> Result<usize, FrameError> {
    w.write_all(&header(codec, bound, payload)?)?;
    w.write_all(payload)?;
    Ok(encoded_len(payload.len()))
}

/// Encode one frame into a fresh vector. The returned vector's capacity
/// equals its length, so converting it to `Arc<[u8]>`/`Box<[u8]>` never
/// reallocates.
pub fn encode_frame(
    codec: CodecId,
    bound: ErrorBound,
    payload: &[u8],
) -> Result<Vec<u8>, FrameError> {
    let mut out = Vec::with_capacity(encoded_len(payload.len()));
    encode_frame_into(codec, bound, payload, &mut out)?;
    debug_assert_eq!(out.capacity(), out.len());
    Ok(out)
}

/// [`write_frame`] straight into a byte vector, *appending* the frame to
/// `out`. Identical bytes; the exact encoded length is reserved up front,
/// so a reused `out` grows at most once and an empty `out` sized with
/// [`encoded_len`] never grows at all.
pub fn encode_frame_into(
    codec: CodecId,
    bound: ErrorBound,
    payload: &[u8],
    out: &mut Vec<u8>,
) -> Result<(), FrameError> {
    let header = header(codec, bound, payload)?;
    out.reserve(encoded_len(payload.len()));
    out.extend_from_slice(&header);
    out.extend_from_slice(payload);
    Ok(())
}

/// A parsed frame header, without its payload: what [`parse_header`] reads
/// from the head of a frame before any payload byte.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameHeader {
    /// Codec that produced the payload.
    pub codec: CodecId,
    /// Error bound the payload was compressed under.
    pub bound: ErrorBound,
    /// Payload byte length.
    pub payload_len: usize,
    /// The frame checksum over the whole payload.
    pub checksum: u64,
}

/// Parse a frame header from the head of `bytes`.
pub fn parse_header(bytes: &[u8]) -> Result<FrameHeader, FrameError> {
    if bytes.len() < HEADER_LEN {
        return Err(FrameError::Corrupt(format!(
            "truncated frame header ({} of {HEADER_LEN} bytes)",
            bytes.len()
        )));
    }
    if bytes[..4] != MAGIC {
        return Err(FrameError::Corrupt("bad magic".into()));
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
    Ok(FrameHeader {
        codec,
        bound,
        payload_len,
        checksum: u64::from_le_bytes(bytes[18..26].try_into().expect("8 bytes")),
    })
}

/// Read one frame from `r`, verifying magic, field validity, and the
/// checksum over the whole payload. A version-2 frame is refused by name.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    if header[..4] == *b"QCF2" {
        return Err(FrameError::Corrupt(
            "frame version 2 (magic QCF2, checksum over a segment index) is retired; \
             re-save the state with the current build"
                .into(),
        ));
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
    if checksum64(&payload) != parsed.checksum {
        return Err(FrameError::Corrupt("payload checksum mismatch".into()));
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
        let f = round_trip(CodecId::SolutionC, ErrorBound::Lossless, b"");
        assert!(f.payload.is_empty());
    }

    #[test]
    fn encode_frame_matches_write_frame() {
        use crate::codec::Codec;
        // Flat payloads and a segmented one: the same header either way.
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
    fn parse_header_reads_the_fields() {
        let payload = segmented_payload();
        let mut buf = Vec::new();
        let n = write_frame(
            &mut buf,
            CodecId::SolutionC,
            ErrorBound::PointwiseRelative(1e-4),
            &payload,
        )
        .unwrap();
        assert_eq!(&buf[..4], &MAGIC);
        assert_eq!(n, encoded_len(payload.len()));
        let h = parse_header(&buf).unwrap();
        assert_eq!(h.codec, CodecId::SolutionC);
        assert_eq!(h.bound, ErrorBound::PointwiseRelative(1e-4));
        assert_eq!(h.payload_len, payload.len());
        assert_eq!(h.checksum, checksum64(&payload));
        assert!(parse_header(&buf[..HEADER_LEN - 1]).is_err());
        assert!(parse_header(b"XXXX??????????????????????").is_err());
    }

    #[test]
    fn every_payload_byte_of_a_segmented_block_is_covered() {
        let payload = segmented_payload();
        let mut buf = Vec::new();
        write_frame(
            &mut buf,
            CodecId::SolutionC,
            ErrorBound::PointwiseRelative(1e-4),
            &payload,
        )
        .unwrap();
        for at in (HEADER_LEN..buf.len()).step_by(7) {
            let mut bad = buf.clone();
            bad[at] ^= 0x20;
            match read_frame(&mut bad.as_slice()) {
                Err(FrameError::Corrupt(m)) => assert!(m.contains("checksum"), "{m}"),
                other => panic!("payload byte {at} flipped and accepted: {other:?}"),
            }
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
