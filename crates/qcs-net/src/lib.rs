//! # qcs-net
//!
//! Framed TCP wire transport for the simulator's rank-worker protocol.
//!
//! The paper's deployment drives ranks over MPI; this crate supplies the
//! socket-level half of the in-repo stand-in: a length-prefixed,
//! checksummed message frame (the same XXH64 `checksum64` that
//! `qcs_compress::frame` uses for blocks at rest), the [`wire::Wire`]
//! trait every message body is laid out through, and supervised TCP
//! connection establishment (bounded reconnect-with-backoff, read/write
//! timeouts).
//!
//! ## Message bodies
//!
//! A type with a byte layout implements [`wire::Wire`]: `put`, `take` and
//! `MIN_LEN`, the fewest bytes a value occupies. The leaves (scalars,
//! strings, `Option`, `Vec`, …) are implemented in [`mod@wire`]; a struct
//! or tagged enum lists its fields once in a [`wire!`] declaration, which
//! derives all three — so encoder and decoder cannot disagree, and every
//! sequence count is bounded by `remaining / MIN_LEN` before anything is
//! allocated for it, with no element size counted by hand.
//!
//! What travels *inside* the frames — the `WorkerCmd`/`WorkerOut`
//! layouts, handshake, and the relay protocol for inter-rank exchanges —
//! is declared by `qcs-core::net` on top of this crate (the job protocol
//! by `qcs-server::protocol`), so the layering mirrors a connection-front
//! / core-router split: this crate knows bytes and sockets, never
//! simulator types.
//!
//! ## Frame format
//!
//! ```text
//! magic "QWP1" (4) | kind u8 | body_len u32 le | checksum u64 le (XXH64
//! over body) | body
//! ```
//!
//! The checksum is `qcs_compress::checksum::checksum64`. Up to
//! [`PROTOCOL_VERSION`] 3 it was FNV-1a over the same field; version 4 is
//! that change and nothing else. A version-3 peer's frames fail the body
//! checksum here (its Hello never reaches the version comparison), and a
//! version-3 body under a valid checksum is refused by the handshake.
//! Version 5 dropped the op signatures from the command bodies; version 6
//! carries segmented Solution C blocks with a mode byte per segment;
//! version 7 drops the `partial_decode` flag from the `SimConfig` body;
//! version 8 carries lossy blocks in one frame version with no segment
//! index; version 9 drops the next wave's prefetch slots from the gate,
//! exchange and batch commands; version 10 carries segmented Solution C
//! blocks whose noisy segments store their head without LZ77 (mode 2);
//! version 11 carries lossless blocks that may be qzstd palette
//! containers (mode 4); version 12 drops `max_batch_gates` from the
//! `SimConfig` body and refuses the spill config's LRU eviction tag
//! (0), leaving MIN (1) as its one value; version 13 sends an in-block
//! gate as a one-plan batch command, makes the gate command the
//! inter-block pair wave (a block stride in place of a route), drops the
//! wave result's hot bytes, and carries a circuit op as one controlled
//! gate form (tag 0, any number of controls), a swap (1) or a
//! measurement (2).
//!
//! The `kind` byte is opaque to this crate; the protocol built on top
//! assigns meanings. Like the block-frame decoder, [`recv_frame`] never
//! trusts `body_len` for an upfront allocation: the body buffer grows
//! with bytes actually received, so a corrupt or hostile header cannot
//! demand gigabytes.

#![warn(missing_docs)]

use qcs_compress::checksum::checksum64;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

pub mod banner;
pub mod wire;

pub use wire::Cursor;

/// Version of the wire protocol spoken over these frames. Bumped on any
/// incompatible change to the frame format or the message bodies built on
/// it; the handshake rejects mismatches.
pub const PROTOCOL_VERSION: u32 = 13;

/// Frame magic: "QWP" + format version 1.
pub const MAGIC: [u8; 4] = *b"QWP1";

/// Fixed size of the frame header preceding the body:
/// magic 4 + kind 1 + body_len 4 + checksum 8.
pub const HEADER_LEN: usize = 17;

/// Largest body a frame accepts (1 GiB, matching the block-frame cap): a
/// length field beyond this is corruption, not an allocation request.
pub const MAX_BODY: usize = 1 << 30;

/// Upper bound on the body buffer reserved before any body byte has been
/// read (64 KiB); larger bodies grow the buffer as bytes arrive.
const BODY_ALLOC_CHUNK: usize = 64 * 1024;

/// Errors surfaced by the wire layer.
#[derive(Debug)]
pub enum NetError {
    /// The underlying socket/reader/writer failed (includes timeouts and
    /// peer-closed connections).
    Io(std::io::Error),
    /// The stream is not a frame, or its checksum/fields are inconsistent.
    Corrupt(String),
    /// The peer speaks a different protocol (version mismatch, unexpected
    /// message kind, handshake violation).
    Protocol(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "wire i/o error: {e}"),
            NetError::Corrupt(m) => write!(f, "corrupt wire frame: {m}"),
            NetError::Protocol(m) => write!(f, "wire protocol error: {m}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

/// Write one frame (`kind` byte plus `body`) to `w` and flush it.
pub fn send_frame<W: Write>(w: &mut W, kind: u8, body: &[u8]) -> Result<(), NetError> {
    if body.len() > MAX_BODY {
        return Err(NetError::Corrupt(format!(
            "body of {} bytes exceeds the {MAX_BODY}-byte frame cap",
            body.len()
        )));
    }
    w.write_all(&MAGIC)?;
    w.write_all(&[kind])?;
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(&checksum64(body).to_le_bytes())?;
    w.write_all(body)?;
    w.flush()?;
    Ok(())
}

/// Read one frame from `r`, verifying magic, length sanity, and the body
/// checksum. Returns the kind byte and the body.
///
/// A cleanly closed stream (EOF before the first header byte) surfaces as
/// `NetError::Io` with [`std::io::ErrorKind::UnexpectedEof`].
pub fn recv_frame<R: Read>(r: &mut R) -> Result<(u8, Vec<u8>), NetError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    if header[..4] != MAGIC {
        return Err(NetError::Corrupt("bad frame magic".into()));
    }
    let kind = header[4];
    let body_len = u32::from_le_bytes(header[5..9].try_into().expect("4 bytes")) as usize;
    if body_len > MAX_BODY {
        return Err(NetError::Corrupt(format!(
            "body length {body_len} exceeds the {MAX_BODY}-byte frame cap"
        )));
    }
    let checksum = u64::from_le_bytes(header[9..17].try_into().expect("8 bytes"));
    // Same discipline as the block-frame reader: reserve at most one
    // chunk and let the buffer grow with delivered bytes, so a lying
    // header costs what the stream yields, not what it claims.
    let mut body = Vec::with_capacity(body_len.min(BODY_ALLOC_CHUNK));
    let got = r.take(body_len as u64).read_to_end(&mut body)?;
    if got < body_len {
        return Err(NetError::Io(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            format!("frame body truncated: header claims {body_len} bytes, stream had {got}"),
        )));
    }
    if checksum64(&body) != checksum {
        return Err(NetError::Corrupt("frame body checksum mismatch".into()));
    }
    Ok((kind, body))
}

/// Connection-establishment policy: bounded reconnect-with-backoff plus
/// the I/O timeouts installed on the accepted stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnectPolicy {
    /// Total connection attempts before giving up (minimum 1).
    pub attempts: u32,
    /// Sleep before the first retry; doubles per retry (capped at 2 s).
    pub initial_backoff: Duration,
    /// Read timeout installed on the connected stream (`None` = block
    /// forever). Waves can legitimately take long on big states, so the
    /// default is generous.
    pub read_timeout: Option<Duration>,
    /// Write timeout installed on the connected stream.
    pub write_timeout: Option<Duration>,
}

impl Default for ConnectPolicy {
    fn default() -> Self {
        Self {
            attempts: 5,
            initial_backoff: Duration::from_millis(50),
            read_timeout: Some(Duration::from_secs(120)),
            write_timeout: Some(Duration::from_secs(120)),
        }
    }
}

/// Connect to `addr` under `policy`: up to `policy.attempts` tries with
/// exponential backoff between them, then timeouts and `TCP_NODELAY`
/// installed on the stream. Returns the last connect error when every
/// attempt fails.
pub fn connect_supervised(addr: &str, policy: &ConnectPolicy) -> Result<TcpStream, NetError> {
    let attempts = policy.attempts.max(1);
    let mut backoff = policy.initial_backoff;
    let mut last_err: Option<std::io::Error> = None;
    for attempt in 0..attempts {
        if attempt > 0 {
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(Duration::from_secs(2));
        }
        match TcpStream::connect(addr) {
            Ok(stream) => {
                stream.set_nodelay(true)?;
                stream.set_read_timeout(policy.read_timeout)?;
                stream.set_write_timeout(policy.write_timeout)?;
                return Ok(stream);
            }
            Err(e) => last_err = Some(e),
        }
    }
    Err(NetError::Io(last_err.unwrap_or_else(|| {
        std::io::Error::other("no connect attempts made")
    })))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        send_frame(&mut buf, 7, b"hello wire").unwrap();
        send_frame(&mut buf, 9, b"").unwrap();
        let mut r = buf.as_slice();
        assert_eq!(recv_frame(&mut r).unwrap(), (7, b"hello wire".to_vec()));
        assert_eq!(recv_frame(&mut r).unwrap(), (9, Vec::new()));
        assert!(r.is_empty());
    }

    #[test]
    fn rejects_bad_magic_and_checksum() {
        let mut buf = Vec::new();
        send_frame(&mut buf, 1, b"payload").unwrap();
        let mut bad_magic = buf.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            recv_frame(&mut bad_magic.as_slice()),
            Err(NetError::Corrupt(_))
        ));
        let mut bad_body = buf;
        let last = bad_body.len() - 1;
        bad_body[last] ^= 0x01;
        assert!(matches!(
            recv_frame(&mut bad_body.as_slice()),
            Err(NetError::Corrupt(_))
        ));
    }

    #[test]
    fn lying_length_field_is_truncation_not_allocation() {
        let mut buf = Vec::new();
        send_frame(&mut buf, 1, b"short").unwrap();
        // Claim 256 MiB (within the cap) over a 5-byte body.
        buf[5..9].copy_from_slice(&(256u32 << 20).to_le_bytes());
        match recv_frame(&mut buf.as_slice()) {
            Err(NetError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "{e}")
            }
            other => panic!("lying length accepted: {other:?}"),
        }
        // Beyond the cap is corruption outright.
        let mut over = Vec::new();
        send_frame(&mut over, 1, b"x").unwrap();
        over[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            recv_frame(&mut over.as_slice()),
            Err(NetError::Corrupt(_))
        ));
    }

    #[test]
    fn truncated_header_is_io_error() {
        let mut buf = Vec::new();
        send_frame(&mut buf, 1, b"abc").unwrap();
        for cut in 0..HEADER_LEN {
            assert!(
                matches!(recv_frame(&mut &buf[..cut]), Err(NetError::Io(_))),
                "cut at {cut} not detected"
            );
        }
    }

    #[test]
    fn connect_retries_then_reports_last_error() {
        // A port nothing listens on: bind-then-drop reserves and releases.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let policy = ConnectPolicy {
            attempts: 3,
            initial_backoff: Duration::from_millis(1),
            ..ConnectPolicy::default()
        };
        assert!(matches!(
            connect_supervised(&addr, &policy),
            Err(NetError::Io(_))
        ));
    }

    #[test]
    fn connect_supervised_installs_timeouts() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let policy = ConnectPolicy {
            read_timeout: Some(Duration::from_millis(250)),
            ..ConnectPolicy::default()
        };
        let stream = connect_supervised(&addr, &policy).unwrap();
        // The kernel may round the timeout to its timer granularity, so
        // check for "installed and in the right ballpark", not equality.
        let installed = stream.read_timeout().unwrap().expect("timeout installed");
        assert!(
            installed >= Duration::from_millis(250) && installed < Duration::from_millis(500),
            "unexpected rounded timeout {installed:?}"
        );
        assert!(stream.nodelay().unwrap());
    }
}
