//! Failure-injection tests: decoders must never panic on corrupt input —
//! they return `Err` (or, for bit-flips inside a valid container, possibly
//! a wrong-but-well-formed result; lengths are always validated).
//!
//! This matters for the checkpoint path (§3.5): a truncated or bit-rotted
//! checkpoint file must surface as an error, not undefined behavior.

use proptest::prelude::*;
use qcsim::compress::{CodecId, ErrorBound};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the bytes each thread asks for, and refuses outright any single
/// request above [`REFUSE_ABOVE`]: a decoder that trusts a declared length
/// again aborts this binary ("memory allocation of .. bytes failed")
/// instead of touching that memory.
struct BoundedAlloc;

/// Far above anything a test here decodes, far below what a hostile
/// header can declare.
const REFUSE_ABOVE: usize = 1 << 30;

thread_local! {
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

/// Count `bytes` on this thread; whether the request may be served.
fn admit(bytes: usize) -> bool {
    let _ = REQUESTED.try_with(|n| n.set(n.get().saturating_add(bytes)));
    bytes <= REFUSE_ABOVE
}

// SAFETY: every served request is forwarded unchanged to `System`; a
// refused one returns null, which the `GlobalAlloc` contract allows.
// Counting touches only a const-initialised thread-local `Cell`, which
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for BoundedAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if admit(layout.size()) {
            System.alloc(layout)
        } else {
            std::ptr::null_mut()
        }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if admit(layout.size()) {
            System.alloc_zeroed(layout)
        } else {
            std::ptr::null_mut()
        }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if admit(new_size.saturating_sub(layout.size())) && new_size <= REFUSE_ABOVE {
            System.realloc(ptr, layout, new_size)
        } else {
            std::ptr::null_mut()
        }
    }
}

#[global_allocator]
static ALLOC: BoundedAlloc = BoundedAlloc;

/// Bytes this thread asked the allocator for while `f` ran.
fn allocated_by<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = REQUESTED.with(Cell::get);
    let out = f();
    (out, REQUESTED.with(Cell::get) - before)
}

fn valid_payload(id: CodecId) -> Vec<u8> {
    let data: Vec<f64> = (0..512).map(|i| (i as f64 * 0.17).sin() * 1e-4).collect();
    id.build()
        .compress(&data, ErrorBound::PointwiseRelative(1e-3))
        .unwrap()
}

// The engine's two decoders on garbage; the comparators' run the same
// three properties in `qcs-bench`'s `prop_comparators`.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn decoders_survive_random_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        pick in 0usize..CodecId::ALL.len(),
    ) {
        let codec = CodecId::ALL[pick].build();
        // Must not panic; Err is the expected outcome for garbage.
        let _ = codec.decompress(&bytes);
    }

    #[test]
    fn decoders_survive_truncation(
        frac in 0.0f64..1.0,
        pick in 0usize..CodecId::ALL.len(),
    ) {
        let id = CodecId::ALL[pick];
        let payload = valid_payload(id);
        let cut = ((payload.len() as f64) * frac) as usize;
        let codec = id.build();
        let _ = codec.decompress(&payload[..cut]);
    }

    #[test]
    fn decoders_survive_single_bit_flips(
        bit in 0usize..64,
        byte_frac in 0.0f64..1.0,
        pick in 0usize..CodecId::ALL.len(),
    ) {
        let id = CodecId::ALL[pick];
        let mut payload = valid_payload(id);
        let pos = ((payload.len() - 1) as f64 * byte_frac) as usize;
        payload[pos] ^= 1 << (bit % 8);
        let codec = id.build();
        // May decode to different values, but must not panic and, on Ok,
        // must return finite-length output.
        if let Ok(out) = codec.decompress(&payload) {
            prop_assert!(out.len() <= 1 << 24, "absurd length {}", out.len());
        }
    }
}

/// A valid segmented Solution C stream with three segments, for
/// header-corruption tests.
fn segmented_payload() -> Vec<u8> {
    use qcsim::compress::Codec as _;
    let data: Vec<f64> = (0..3000).map(|i| (i as f64 * 0.17).sin() * 1e-4).collect();
    qcsim::compress::trunc::SolutionC::default()
        .compress(&data, ErrorBound::PointwiseRelative(1e-6))
        .unwrap()
}

/// Byte offsets of a segmented stream's counts: its 12-byte header (magic,
/// value count) and the length word in front of each body.
fn count_offsets(stream: &[u8]) -> Vec<usize> {
    let mut offsets: Vec<usize> = (0..12).collect();
    let mut at = 12;
    while at < stream.len() {
        offsets.extend(at..at + 4);
        at += 4 + u32::from_le_bytes(stream[at..at + 4].try_into().unwrap()) as usize;
    }
    offsets
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The header and the body lengths are the container's only claims, read
    // from bytes a checkpoint or a socket supplies: a flipped bit in any of
    // them decodes to an error or to data, never a panic, and never asks
    // for more than a few times the stream's values.
    #[test]
    fn segment_header_and_lengths_survive_corruption(
        pick in 0usize..1 << 16,
        bit in 0usize..8,
    ) {
        use qcsim::compress::Codec as _;
        let mut payload = segmented_payload();
        let offsets = count_offsets(&payload);
        payload[offsets[pick % offsets.len()]] ^= 1 << bit;
        let c = qcsim::compress::trunc::SolutionC::default();
        let (res, requested) = allocated_by(|| c.decompress(&payload));
        if let Ok(out) = res {
            prop_assert_eq!(out.len(), 3000);
        }
        prop_assert!(requested <= 1 << 20, "requested {} bytes", requested);
    }

    // Truncating a segmented stream anywhere — inside the header, a length
    // word or a body — must produce Err.
    #[test]
    fn segmented_stream_survives_truncation(frac in 0.0f64..1.0) {
        use qcsim::compress::Codec as _;
        let payload = segmented_payload();
        let cut = ((payload.len() - 1) as f64 * frac) as usize;
        let c = qcsim::compress::trunc::SolutionC::default();
        prop_assert!(c.decompress(&payload[..cut]).is_err());
    }
}

#[test]
fn checkpoint_loader_survives_corruption() {
    use qcsim::core::checkpoint;
    use qcsim::{CompressedSimulator, SimConfig};
    use rand::SeedableRng;

    let cfg = SimConfig::default().with_block_log2(4).with_ranks_log2(1);
    let mut sim = CompressedSimulator::new(8, cfg.clone()).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let mut c = qcsim::Circuit::new(8);
    c.h(0).cx(0, 7);
    sim.run(&c, &mut rng).unwrap();

    let path = std::env::temp_dir().join(format!("qcsim-robust-{}.ckpt", std::process::id()));
    checkpoint::save(&sim, &path).unwrap();
    let good = std::fs::read(&path).unwrap();

    // Truncations at every 13th byte boundary must error, never panic.
    for cut in (0..good.len()).step_by(13) {
        std::fs::write(&path, &good[..cut]).unwrap();
        assert!(checkpoint::load(&path, cfg.clone()).is_err(), "cut {cut}");
    }
    // Header bit flips must error or load; never panic.
    for pos in 0..32.min(good.len()) {
        let mut bad = good.clone();
        bad[pos] ^= 0x40;
        std::fs::write(&path, &bad).unwrap();
        let _ = checkpoint::load(&path, cfg.clone());
    }
    std::fs::remove_file(&path).ok();
}

/// A Huffman stream assembled field by field, for header-corruption tests.
fn huffman_stream(alphabet: u32, count: u64, runs: &[(u8, u16)], payload: &[u8]) -> Vec<u8> {
    let mut s = Vec::new();
    s.extend_from_slice(&alphabet.to_le_bytes());
    s.extend_from_slice(&count.to_le_bytes());
    s.extend_from_slice(&(3 * runs.len() as u32).to_le_bytes());
    for &(len, run) in runs {
        s.push(len);
        s.extend_from_slice(&run.to_le_bytes());
    }
    s.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    s.extend_from_slice(payload);
    s
}

// The Huffman header's sizes come off the wire: each must be checked
// against what the stream can actually hold *before* it sizes an
// allocation, and a code-length set no prefix code can have is corrupt.
#[test]
fn huffman_header_sizes_are_bounded_before_allocating() {
    use qcsim::compress::huffman::{self, HuffmanError};
    let corrupt = |stream: &[u8], what: &str| {
        assert!(
            matches!(huffman::decode(stream), Err(HuffmanError::Corrupt(_))),
            "{what}: u32 decoder accepted it"
        );
        assert!(
            matches!(huffman::decode_bytes(stream), Err(HuffmanError::Corrupt(_))),
            "{what}: byte decoder accepted it"
        );
    };
    // Sanity: the builder produces what the decoder reads. Two symbols,
    // one bit each, "0 1 1".
    let good = huffman_stream(2, 3, &[(1, 2)], &[0b110]);
    assert_eq!(huffman::decode(&good).unwrap(), vec![0, 1, 1]);

    // A count no payload of this size could carry (it would have sized a
    // 2^60-element reservation).
    corrupt(
        &huffman_stream(2, 1 << 60, &[(1, 2)], &[0b110]),
        "huge count",
    );
    corrupt(
        &huffman_stream(2, 9, &[(1, 2)], &[0b110]),
        "count over payload bits",
    );
    // An alphabet the 3-byte header cannot describe (it would have sized a
    // 4 GiB table).
    corrupt(
        &huffman_stream(u32::MAX, 3, &[(1, 2)], &[0b110]),
        "huge alphabet",
    );
    corrupt(
        &huffman_stream(3, 3, &[(1, 2)], &[0b110]),
        "alphabet over header",
    );
    corrupt(
        &huffman_stream(1, 3, &[(1, 2)], &[0b110]),
        "header over alphabet",
    );
    // Code lengths past the limit.
    corrupt(&huffman_stream(2, 3, &[(25, 2)], &[0; 16]), "length 25");
    corrupt(&huffman_stream(2, 3, &[(255, 2)], &[0; 16]), "length 255");
    // Over-subscribed: three 1-bit codes; 2^24 + 1 codes of 24 bits.
    corrupt(
        &huffman_stream(3, 3, &[(1, 3)], &[0b110]),
        "three 1-bit codes",
    );
    let mut runs = vec![(24u8, u16::MAX); 256];
    runs.push((24, 257));
    corrupt(
        &huffman_stream((1 << 24) + 1, 1, &runs, &[0; 3]),
        "2^24 + 1 codes",
    );
    // Symbols promised, no code to spell them with.
    corrupt(
        &huffman_stream(4, 2, &[(0, 4)], &[0]),
        "count without codes",
    );
    // A payload length past the end of the stream, up to overflowing.
    let mut long = good.clone();
    let at = long.len() - 1 - 8;
    long[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    corrupt(&long, "payload length u64::MAX");
}

// The payload reader refills eight bytes at a time and one at a time over
// the tail: a payload cut anywhere (with the length field kept honest, so
// only the bit reader can notice) must run dry as an error, not as a
// panic or as made-up symbols.
#[test]
fn huffman_payload_truncation_is_an_error_at_every_cut() {
    use qcsim::compress::{huffman, qzstd};
    // Mixed code lengths, including ones longer than the lookup table's
    // index, so both decode paths meet the cut.
    let mut symbols: Vec<u32> = (0..4000u32).map(|i| (i * i + 3 * i) % 23).collect();
    for deep in 0..300u32 {
        symbols.extend(std::iter::repeat_n(100 + deep, 1 + (deep % 3) as usize));
    }
    let stream = huffman::encode(&symbols, 400).unwrap();
    assert_eq!(huffman::decode(&stream).unwrap(), symbols);
    let header_len = u32::from_le_bytes(stream[12..16].try_into().unwrap()) as usize;
    let longest = stream[16..16 + header_len].chunks(3).map(|run| run[0]);
    assert!(longest.max() > Some(11), "no code past the table index");
    let payload_at = 16 + header_len + 8;
    let payload_len = stream.len() - payload_at;
    for cut in (0..payload_len).filter(|c| *c < 40 || payload_len - c < 40 || c % 97 == 0) {
        let mut short = stream[..payload_at + cut].to_vec();
        short[payload_at - 8..payload_at].copy_from_slice(&(cut as u64).to_le_bytes());
        assert!(
            huffman::decode(&short).is_err(),
            "payload cut to {cut} bytes"
        );
    }
    // The same through the container that carries it: sixteen-symbol
    // noise has few matches for LZ77 and four-bit codes for Huffman.
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let text: Vec<u8> = (0..4000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 40) as u8 & 0x0F
        })
        .collect();
    let container = qzstd::compress(&text, qzstd::Level::High);
    assert_eq!(container[0], 2, "noise should take the LZ77 + Huffman mode");
    for cut in 0..container.len() {
        assert!(
            qzstd::decompress(&container[..cut]).is_err(),
            "container cut to {cut}"
        );
    }
}

/// A segmented Solution C stream in a retired layout is refused by its
/// `magic`, named: by the decoder of either configuration, with no value
/// decoded and no fall-through to the whole-stream decoder.
fn assert_refused_as_a_retired_segment_layout(stream: &[u8], magic: &str) {
    use qcsim::compress::trunc::SolutionC;
    use qcsim::compress::{Codec as _, CodecError};
    let names_it = |r: Result<(), CodecError>| match r {
        Err(CodecError::Corrupt(m)) => m.contains(magic),
        _ => false,
    };
    let c = SolutionC::default();
    assert!(names_it(c.decompress(stream).map(drop)));
    assert!(names_it(
        SolutionC::whole_stream().decompress(stream).map(drop)
    ));
    let mut out = Vec::new();
    assert!(names_it(c.decompress_into(stream, &mut out)));
    assert!(out.is_empty(), "a stale segment leaked values");
}

/// Header length of a retired version-2 frame: the version-1 header plus a
/// `prefix_len u32`. The stale fixtures below read their payload past it.
const FRAME_V2_HEADER_LEN: usize = 30;

/// Refused as a retired version-2 frame, by name.
fn assert_refused_as_a_v2_frame(frame: &[u8]) {
    use qcsim::compress::frame::{read_frame, FrameError};
    match read_frame(&mut &frame[..]) {
        Err(FrameError::Corrupt(m)) => assert!(m.contains("QCF2"), "{m}"),
        other => panic!("a version-2 frame was accepted: {other:?}"),
    }
}

/// Bytes written by the last build whose checksums were FNV-1a (frames
/// `QCF1` and version 2 unchanged in layout, checkpoint `QCSCKPT2`),
/// captured from that build and checked in. Each reader must stop at the
/// checksum, the frame version or the checkpoint version with its typed
/// error — never decode, never panic.
#[test]
fn fnv1a_era_bytes_end_in_typed_errors() {
    use qcsim::compress::frame::{parse_header, read_frame, FrameError};
    use qcsim::core::{checkpoint, SimError};

    let v1: &[u8] = include_bytes!("fixtures/fnv1a_frame_v1_qzstd.bin");
    let v2: &[u8] = include_bytes!("fixtures/fnv1a_frame_v2_solution_c.bin");
    let ckpt: &[u8] = include_bytes!("fixtures/fnv1a_checkpoint_v2.bin");

    // The v1 frame has today's header layout, so the header parses and the
    // payload checksum is what refuses it; the v2 frame is refused by its
    // version.
    assert_eq!(parse_header(v1).unwrap().codec, CodecId::Qzstd);
    match read_frame(&mut &v1[..]) {
        Err(FrameError::Corrupt(m)) => assert!(m.contains("checksum"), "{m}"),
        other => panic!("a qzstd frame from the FNV-1a era accepted: {other:?}"),
    }
    assert_refused_as_a_v2_frame(v2);

    // The segmented stream inside the v2 frame predates segment mode bytes
    // too: refused by its magic.
    assert_refused_as_a_retired_segment_layout(&v2[FRAME_V2_HEADER_LEN..], "QCSc");

    // Checkpoint: refused by version before any frame is read; with the
    // version byte forged, refused at the first block frame's checksum.
    let path = std::env::temp_dir().join(format!("qcsim-fnv1a-{}.ckpt", std::process::id()));
    let cfg = qcsim::SimConfig::default().with_block_log2(2);
    let load = |bytes: &[u8]| {
        std::fs::write(&path, bytes).unwrap();
        match checkpoint::load(&path, cfg.clone()) {
            Err(SimError::Checkpoint(m)) => m,
            other => panic!(
                "FNV-1a era checkpoint mishandled: {:?}",
                other.err().map(|e| e.to_string())
            ),
        }
    };
    let m = load(ckpt);
    assert!(m.contains("version '2'"), "{m}");
    let mut forged = ckpt.to_vec();
    forged[7] = b'7';
    let m = load(&forged);
    assert!(m.contains("block frame 0") && m.contains("checksum"), "{m}");
    std::fs::remove_file(&path).ok();
}

/// Bytes written by the last build whose segmented Solution C streams had
/// no per-segment mode byte, captured from that build (commit 95df1e7):
/// a three-segment stream in a v2 frame and the `QCSCKPT3` checkpoint of
/// `adaptive_and_checkpoint.rs`'s golden simulator. (Its v5 Hello is
/// `qcs-net/tests/fixtures/hello_v5.bin`, refused by version in
/// `qcs-core`'s `net` tests.) Checksums still match, so each reader must
/// stop at a magic or a version with its typed error.
#[test]
fn pre_mode_byte_bytes_end_in_typed_errors() {
    use qcsim::core::{checkpoint, SimError};

    let frame: &[u8] = include_bytes!("fixtures/qcsc_segmented_frame.bin");
    let ckpt: &[u8] = include_bytes!("fixtures/checkpoint_v3_small.bin");

    // The frame is refused by its version, and the stream inside it by its
    // magic.
    assert_refused_as_a_v2_frame(frame);
    assert_refused_as_a_retired_segment_layout(&frame[FRAME_V2_HEADER_LEN..], "QCSc");

    // The checkpoint: refused by version; with the version forged, its
    // first block frame is refused the same way.
    let path = std::env::temp_dir().join(format!("qcsim-qcsc-{}.ckpt", std::process::id()));
    let cfg = qcsim::SimConfig::default().with_block_log2(3);
    let load = |bytes: &[u8]| {
        std::fs::write(&path, bytes).unwrap();
        match checkpoint::load(&path, cfg.clone()) {
            Err(SimError::Checkpoint(m)) => m,
            other => panic!(
                "QCSCKPT3 checkpoint mishandled: {:?}",
                other.err().map(|e| e.to_string())
            ),
        }
    };
    assert_eq!(&ckpt[..8], b"QCSCKPT3");
    let m = load(ckpt);
    assert!(m.contains("version '3'") && m.contains("reads '7'"), "{m}");
    let mut forged = ckpt.to_vec();
    forged[7] = b'7';
    let m = load(&forged);
    assert!(m.contains("block frame 0") && m.contains("QCF2"), "{m}");
    std::fs::remove_file(&path).ok();
}

/// Bytes written by the last build whose segmented streams carried an
/// index of 12 bytes per segment inside a version-2 frame, captured from
/// that build (commit f28be16): a two-segment Solution C block at 1e-3 in
/// its `QCF2` frame, and `checkpoint_v4_small.bin`, the `QCSCKPT4`
/// checkpoint of `adaptive_and_checkpoint.rs`'s golden simulator. (Its v7
/// Hello is `qcs-net/tests/fixtures/hello_v7.bin`, refused by version in
/// `qcs-core`'s `net` tests.) Checksums still match, so each reader must
/// stop at a magic or a version with its typed error.
#[test]
fn pre_sequential_layout_bytes_end_in_typed_errors() {
    use qcsim::core::{checkpoint, SimError};

    let frame: &[u8] = include_bytes!("fixtures/qcse_indexed_frame_v2.bin");
    let ckpt: &[u8] = include_bytes!("fixtures/checkpoint_v4_small.bin");

    assert_refused_as_a_v2_frame(frame);
    assert_refused_as_a_retired_segment_layout(&frame[FRAME_V2_HEADER_LEN..], "QCSe");

    // The checkpoint: refused by version; with the version forged, its
    // first block frame is refused by its frame version.
    let path = std::env::temp_dir().join(format!("qcsim-qcse-{}.ckpt", std::process::id()));
    let cfg = qcsim::SimConfig::default().with_block_log2(3);
    let load = |bytes: &[u8]| {
        std::fs::write(&path, bytes).unwrap();
        match checkpoint::load(&path, cfg.clone()) {
            Err(SimError::Checkpoint(m)) => m,
            other => panic!(
                "QCSCKPT4 checkpoint mishandled: {:?}",
                other.err().map(|e| e.to_string())
            ),
        }
    };
    assert_eq!(&ckpt[..8], b"QCSCKPT4");
    let m = load(ckpt);
    assert!(m.contains("version '4'") && m.contains("reads '7'"), "{m}");
    let mut forged = ckpt.to_vec();
    forged[7] = b'7';
    let m = load(&forged);
    assert!(m.contains("block frame 0") && m.contains("QCF2"), "{m}");
    std::fs::remove_file(&path).ok();
}

/// Bytes written by the last build whose noisy Solution C segments ran
/// LZ77 over their head (mode 1, segmented magic "QCSs"), captured from
/// that build (commit c59c66f): a two-segment block at 1e-3, one segment
/// in mode 0 and one in mode 1, in a `QCF1` frame, and
/// `checkpoint_v5_small.bin`, the `QCSCKPT5` checkpoint of
/// `adaptive_and_checkpoint.rs`'s golden simulator. (Its v9 Hello is
/// `qcs-net/tests/fixtures/hello_v9.bin`, refused by version in
/// `qcs-core`'s `net` tests.) The frame layout and its checksum are
/// current, so the frame reads and the stream inside it is what a reader
/// must refuse, by its magic.
#[test]
fn mode_1_segment_bytes_end_in_typed_errors() {
    use qcsim::compress::frame::read_frame;
    use qcsim::core::{checkpoint, SimError};

    let frame: &[u8] = include_bytes!("fixtures/qcss_mode1_frame.bin");
    let ckpt: &[u8] = include_bytes!("fixtures/checkpoint_v5_small.bin");

    let f = read_frame(&mut &frame[..]).unwrap();
    assert_eq!(f.codec, CodecId::SolutionC);
    assert_eq!(&f.payload[..4], b"sSCQ", "the QCSs magic, little-endian");
    assert_refused_as_a_retired_segment_layout(&f.payload, "QCSs");

    // The checkpoint: refused by version; with the version forged, its
    // frames read and its first block decode is refused by the magic.
    let path = std::env::temp_dir().join(format!("qcsim-qcss-{}.ckpt", std::process::id()));
    let cfg = qcsim::SimConfig::default().with_block_log2(3);
    let load = |bytes: &[u8]| {
        std::fs::write(&path, bytes).unwrap();
        checkpoint::load(&path, cfg.clone())
    };
    assert_eq!(&ckpt[..8], b"QCSCKPT5");
    match load(ckpt) {
        Err(SimError::Checkpoint(m)) => {
            assert!(m.contains("version '5'") && m.contains("reads '7'"), "{m}")
        }
        other => panic!(
            "QCSCKPT5 checkpoint mishandled: {:?}",
            other.err().map(|e| e.to_string())
        ),
    }
    let mut forged = ckpt.to_vec();
    forged[7] = b'7';
    let sim = load(&forged)
        .map_err(|e| e.to_string())
        .expect("the frames of a forged QCSCKPT5 read");
    let m = sim
        .snapshot_dense()
        .map(drop)
        .expect_err("a QCSs block decoded")
        .to_string();
    assert!(m.contains("QCSs"), "{m}");
    std::fs::remove_file(&path).ok();
}

/// Bytes written by the last build whose lossless leg had no palette
/// container (qzstd mode 4), captured from that build (commit 03d21bb): a
/// 2^8-amplitude Porter–Thomas block, which it stored raw, in a `QCF1`
/// frame, and `checkpoint_v6_small.bin`, the `QCSCKPT6` checkpoint of
/// `adaptive_and_checkpoint.rs`'s golden simulator. (Its v10 Hello is
/// `qcs-net/tests/fixtures/hello_v10.bin`, refused by version in
/// `qcs-core`'s `net` tests.) The palette only adds a mode, so the frame
/// decodes bit for bit; the checkpoint is refused by its version, and
/// with the version forged it restores the amplitudes of the current
/// golden checkpoint bit for bit.
#[test]
fn pre_palette_bytes_decode_behind_a_refused_version() {
    use qcsim::compress::frame::read_frame;
    use qcsim::compress::{Codec as _, QzstdCodec};
    use qcsim::core::{checkpoint, SimError};

    let frame: &[u8] = include_bytes!("fixtures/qzstd_stored_frame.bin");
    let f = read_frame(&mut &frame[..]).unwrap();
    assert_eq!((f.codec, f.bound), (CodecId::Qzstd, ErrorBound::Lossless));
    assert_eq!(f.payload[0], 0, "a stored container");
    let values = QzstdCodec.decompress(&f.payload).unwrap();
    assert_eq!(values.len(), 512);
    let raw: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
    assert!(raw == f.payload[9..], "the stored doubles, bit for bit");
    // This build writes the same block as a shorter palette container.
    let now = QzstdCodec.compress(&values, ErrorBound::Lossless).unwrap();
    assert_eq!(now[0], MODE_PALETTE);
    assert!(now.len() < f.payload.len(), "{} bytes", now.len());

    let ckpt: &[u8] = include_bytes!("fixtures/checkpoint_v6_small.bin");
    let current: &[u8] = include_bytes!("fixtures/checkpoint_v7_small.bin");
    let path = std::env::temp_dir().join(format!("qcsim-v6-{}.ckpt", std::process::id()));
    let cfg = qcsim::SimConfig::default().with_block_log2(3);
    let load = |bytes: &[u8]| {
        std::fs::write(&path, bytes).unwrap();
        checkpoint::load(&path, cfg.clone())
    };
    assert_eq!(&ckpt[..8], b"QCSCKPT6");
    match load(ckpt) {
        Err(SimError::Checkpoint(m)) => {
            assert!(m.contains("version '6'") && m.contains("reads '7'"), "{m}")
        }
        other => panic!(
            "QCSCKPT6 checkpoint mishandled: {:?}",
            other.err().map(|e| e.to_string())
        ),
    }
    let mut forged = ckpt.to_vec();
    forged[7] = b'7';
    let amplitudes = |bytes: &[u8]| {
        let sim = load(bytes).map_err(|e| e.to_string()).unwrap();
        let dense = sim.snapshot_dense().map_err(|e| e.to_string()).unwrap();
        let bits: Vec<(u64, u64)> = dense
            .amplitudes()
            .iter()
            .map(|a| (a.re.to_bits(), a.im.to_bits()))
            .collect();
        bits
    };
    assert_eq!(amplitudes(&forged), amplitudes(current));
    std::fs::remove_file(&path).ok();
}

/// A body in the Solution C layout claiming `n` values over one code
/// byte, an empty suffix and no exceptions.
fn body_claiming(n: u64) -> Vec<u8> {
    let mut body = 0x5143_5343u32.to_le_bytes().to_vec(); // "QCSC"
    body.extend_from_slice(&n.to_le_bytes());
    body.push(10); // mantissa bits
    body.extend_from_slice(&1u64.to_le_bytes());
    body.push(0); // the one code byte
    body.extend_from_slice(&0u64.to_le_bytes()); // suffix length
    body.extend_from_slice(&0u64.to_le_bytes()); // exception count
    body
}

// Counts read from a segmented stream are claims: the header's value count
// and each body's must agree before either sizes an allocation. Both
// streams below are well formed; both used to take the process down (a
// capacity-overflow panic, or an abort on a 2^43- or 2^35-byte
// allocation).
#[test]
fn segment_counts_are_checked_before_allocating() {
    use qcsim::compress::trunc::SolutionC;
    use qcsim::compress::{qzstd, Codec as _, CodecError};

    let c = SolutionC::default();
    let good = c
        .compress(
            &[0.5, -0.25, 1e-3, 7.0],
            ErrorBound::PointwiseRelative(1e-3),
        )
        .unwrap();
    let body_len = u32::from_le_bytes(good[12..16].try_into().unwrap()) as usize;
    assert_eq!(good.len(), 16 + body_len, "one segment");
    let corrupt = |r: Result<Vec<f64>, CodecError>, what: &str| match r {
        Err(CodecError::Corrupt(m)) => assert!(m.contains("values"), "{what}: {m}"),
        other => panic!("{what}: {other:?}"),
    };

    // A body claiming 2^61 or 2^40 values behind a header of four.
    for n in [1u64 << 61, 1 << 40] {
        let body = qzstd::compress(&body_claiming(n), qzstd::Level::Fast);
        let mut stream = good[..12].to_vec();
        stream.extend_from_slice(&(body.len() as u32).to_le_bytes());
        stream.extend_from_slice(&body);
        corrupt(c.decompress(&stream), &format!("segment claiming {n}"));
        // The same body as a whole stream, with no index to hold it to.
        corrupt(
            SolutionC::whole_stream().decompress(&body),
            &format!("whole stream claiming {n}"),
        );
    }

    // A header claiming u32::MAX or 2^60 values over a valid four-value
    // body.
    for n in [u64::from(u32::MAX), 1 << 60] {
        let mut stream = good.clone();
        stream[4..12].copy_from_slice(&n.to_le_bytes());
        corrupt(c.decompress(&stream), &format!("header claiming {n}"));
    }
}

// A lossy block of four segments at 1e-3 with one byte of its second
// segment's body flipped in a checkpoint: the block frame checksums its
// whole payload, so the file is refused at load, before anything decodes.
#[test]
fn a_flipped_body_byte_fails_the_checkpoint_load() {
    use qcsim::core::{checkpoint, SimError};
    use qcsim::{Circuit, CompressedSimulator, SimConfig};
    use rand::SeedableRng;

    let cfg = SimConfig::default()
        .with_block_log2(11)
        .with_fixed_bound(ErrorBound::PointwiseRelative(1e-3));
    let mut sim = CompressedSimulator::new(12, cfg.clone()).unwrap();
    let mut c = Circuit::new(12);
    for q in 0..12 {
        c.h(q).rz(0.3 + 0.1 * q as f64, q);
    }
    sim.run(&c, &mut rand::rngs::StdRng::seed_from_u64(0))
        .unwrap();
    let path = std::env::temp_dir().join(format!("qcsim-flip-{}.ckpt", std::process::id()));
    checkpoint::save(&sim, &path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    // The first block frame's payload: its 26-byte frame header, then the
    // 12-byte stream header and segment 0 behind its length word.
    let payload = CHECKPOINT_HEADER_LEN + 26;
    assert_eq!(bytes[payload + 4..payload + 12], 4096u64.to_le_bytes());
    let len0 = u32::from_le_bytes(bytes[payload + 12..payload + 16].try_into().unwrap()) as usize;
    bytes[payload + 16 + len0 + 4 + 10] ^= 0x04; // inside segment 1's body
    std::fs::write(&path, &bytes).unwrap();
    match checkpoint::load(&path, cfg) {
        Err(SimError::Checkpoint(m)) => {
            assert!(m.contains("block frame 0") && m.contains("checksum"), "{m}")
        }
        other => panic!(
            "a flipped body byte loaded: {:?}",
            other.err().map(|e| e.to_string())
        ),
    }
    std::fs::remove_file(&path).ok();
}

/// The 9-byte qzstd container `[3, 2^36 LE]`: the all-zero mode, declaring
/// 64 GiB of zeros. Every field is well formed; only a caller that knows
/// how many values the stream must hold can tell the length is absurd.
fn zero_container_declaring_64_gib() -> Vec<u8> {
    let mut container = vec![3u8];
    container.extend_from_slice(&(1u64 << 36).to_le_bytes());
    container
}

// Told how many values a stream must hold, a decoder refuses a container
// declaring more before it allocates: qzstd as itself, Solution C as a
// whole stream.
#[test]
fn capped_decoders_refuse_an_oversized_zero_container() {
    use qcsim::compress::CodecError;
    let zero = zero_container_declaring_64_gib();
    for id in CodecId::ALL {
        let codec = id.build();
        let mut out = Vec::new();
        let (res, requested) = allocated_by(|| codec.decompress_capped_into(&zero, 16, &mut out));
        assert!(matches!(res, Err(CodecError::Corrupt(_))), "{id}: {res:?}");
        assert!(requested <= 1 << 16, "{id}: requested {requested} bytes");
    }
}

/// Mode byte of a qzstd palette container.
const MODE_PALETTE: u8 = 4;

/// `n` doubles of a slow sine at amplitude scale: no aligned word repeats
/// and the top bytes take four values, so `QzstdCodec` writes a palette
/// container.
fn palette_block(n: usize) -> (Vec<f64>, Vec<u8>) {
    use qcsim::compress::{Codec as _, QzstdCodec};
    let data: Vec<f64> = (0..n)
        .map(|i| (i as f64 * 0.37 + 0.1).sin() * 1e-3)
        .collect();
    let container = QzstdCodec.compress(&data, ErrorBound::Lossless).unwrap();
    assert_eq!(container[0], MODE_PALETTE);
    (data, container)
}

/// A palette container declaring `n` doubles, by hand: `k` entries,
/// `ceil(log2 k)`-bit indices that are all 0 but the last, which is
/// `last`, then zero low bytes.
fn palette_container(k: usize, n: usize, last: usize) -> Vec<u8> {
    let bits = k.next_power_of_two().trailing_zeros() as usize;
    let mut c = vec![MODE_PALETTE];
    c.extend_from_slice(&(8 * n as u64).to_le_bytes());
    c.push(k as u8);
    c.extend((0..k).map(|i| 0x3C + i as u8));
    let mut packed = vec![0u8; (n * bits).div_ceil(8)];
    let at = (n - 1) * bits;
    packed[at / 8] |= (last << (at % 8)) as u8;
    c.extend_from_slice(&packed);
    c.resize(c.len() + 7 * n, 0);
    c
}

// A palette container (qzstd mode 4) off the socket or out of a
// checkpoint: every cut is a typed error, every single-byte substitution
// a typed error or the declared count of values, and each malformed field
// is refused before anything is reserved for the values it declares.
#[test]
fn palette_containers_are_checked_before_reserving() {
    use qcsim::compress::{Codec as _, CodecError, QzstdCodec};

    let (data, small) = palette_block(64);
    let back = QzstdCodec.decompress(&small).unwrap();
    assert!(data
        .iter()
        .zip(&back)
        .all(|(a, b)| a.to_bits() == b.to_bits()));
    for cut in 0..small.len() {
        assert!(
            matches!(
                QzstdCodec.decompress(&small[..cut]),
                Err(CodecError::Corrupt(_))
            ),
            "cut to {cut}"
        );
    }
    let mut bad = small.clone();
    for at in 0..small.len() {
        for b in (0..=u8::MAX).filter(|&b| b != small[at]) {
            bad[at] = b;
            match QzstdCodec.decompress(&bad) {
                Ok(v) => assert_eq!(v.len(), 64, "byte {at} set to {b:#04x}"),
                Err(CodecError::Corrupt(_)) => {}
                Err(e) => panic!("byte {at} set to {b:#04x}: {e:?}"),
            }
        }
        bad[at] = small[at];
    }

    // Hostile fields over 2048 declared doubles, 16 KiB of values: each
    // decode runs on a thread of its own, so no recycled buffer hides a
    // reservation.
    let n = 2048;
    let valid = palette_container(3, n, 2);
    assert_eq!(QzstdCodec.decompress(&valid).unwrap().len(), n);
    let (_, real) = palette_block(n);
    let mut k_zero = valid.clone();
    k_zero[9] = 0;
    let mut short = valid.clone();
    short.pop();
    let mut long = valid.clone();
    long.push(0);
    let cases: [(&str, Vec<u8>, usize, &str); 7] = [
        ("k = 0", k_zero, n, "palette size"),
        ("k = 17", palette_container(17, n, 0), n, "palette size"),
        (
            "index 3 of 3",
            palette_container(3, n, 3),
            n,
            "palette index",
        ),
        ("one byte short", short, n, "payload length"),
        ("one byte long", long, n, "payload length"),
        ("over the cap", valid.clone(), n - 1, "cap"),
        ("a real block over the cap", real, n - 1, "cap"),
    ];
    for (what, container, max_values, why) in cases {
        let (res, requested) = std::thread::spawn(move || {
            allocated_by(|| {
                let mut out = Vec::new();
                QzstdCodec.decompress_capped_into(&container, max_values, &mut out)
            })
        })
        .join()
        .unwrap();
        match res {
            Err(CodecError::Corrupt(m)) => assert!(m.contains(why), "{what}: {m}"),
            other => panic!("{what}: {other:?}"),
        }
        assert!(requested < 1024, "{what}: requested {requested} bytes");
    }
}

/// Magic plus the fixed-width header of a `QCSCKPT7` file: everything in
/// front of the first block frame.
const CHECKPOINT_HEADER_LEN: usize = 8 + 57;

/// Offset of the lossy codec id in a checkpoint header: after the magic
/// and four u32 fields.
const CHECKPOINT_CODEC_AT: usize = 8 + 16;

/// Every codec byte but the two the engine runs (0, qzstd; 3, Solution C),
/// the comparators' old ids 1, 2 and 4–6 among them.
fn retired_codec_ids() -> impl Iterator<Item = u8> {
    (0..=u8::MAX).filter(|b| CodecId::from_u8(*b).is_none())
}

/// Index of the one byte in which `a` and `b` differ.
fn the_differing_byte(a: &[u8], b: &[u8]) -> usize {
    assert_eq!(a.len(), b.len());
    let at: Vec<usize> = (0..a.len()).filter(|&i| a[i] != b[i]).collect();
    assert_eq!(at.len(), 1, "one codec byte");
    at[0]
}

/// A 5-qubit checkpoint in 8-amplitude blocks, as saved.
fn small_checkpoint(path: &std::path::Path) -> (Vec<u8>, qcsim::SimConfig) {
    let cfg = qcsim::SimConfig::default()
        .with_block_log2(3)
        .with_threads_per_rank(1);
    let sim = qcsim::CompressedSimulator::new(5, cfg.clone()).unwrap();
    qcsim::core::checkpoint::save(&sim, path).unwrap();
    (std::fs::read(path).unwrap(), cfg)
}

// Every place bytes become a `CodecId` refuses each retired byte with its
// typed error, without panicking and without asking for more than 64 KiB:
// a frame header, a `CompressedBlock` and a `SimConfig` on the wire, and
// the lossy codec in a checkpoint header.
#[test]
fn retired_codec_ids_are_typed_errors() {
    use qcs_net::{wire, NetError};
    use qcsim::compress::frame::{self, FrameError};
    use qcsim::core::{checkpoint, CompressedBlock, SimError};

    let block = |codec| CompressedBlock {
        codec,
        bound: ErrorBound::Lossless,
        bytes: vec![3u8, 0, 0, 0, 0, 0, 0, 0, 0].into(),
    };
    let frames = [CodecId::Qzstd, CodecId::SolutionC]
        .map(|id| frame::encode_frame(id, ErrorBound::Lossless, &block(id).bytes).unwrap());
    let blocks = [CodecId::Qzstd, CodecId::SolutionC].map(|id| wire::encode(&block(id)));
    let configs = [CodecId::Qzstd, CodecId::SolutionC]
        .map(|id| wire::encode(&qcsim::SimConfig::default().with_lossy_codec(id)));
    let path = std::env::temp_dir().join(format!("qcsim-retired-{}.ckpt", std::process::id()));
    let (good, cfg) = small_checkpoint(&path);
    assert_eq!(good[CHECKPOINT_CODEC_AT], CodecId::SolutionC as u8);

    let wire_refused = |r: Result<(), NetError>, b: u8, what: &str| match r {
        Err(NetError::Corrupt(m)) => assert!(m.contains(&format!("unknown codec id {b}")), "{m}"),
        other => panic!("{what} naming codec {b} decoded: {other:?}"),
    };
    for b in retired_codec_ids() {
        let (res, requested) = allocated_by(|| {
            let mut f = frames[1].clone();
            f[the_differing_byte(&frames[0], &frames[1])] = b;
            match frame::read_frame(&mut &f[..]) {
                Err(FrameError::Corrupt(m)) => {
                    assert!(m.contains(&format!("unknown codec id {b}")), "{m}")
                }
                other => panic!("a frame naming codec {b} read: {other:?}"),
            }
            let mut body = blocks[1].clone();
            body[the_differing_byte(&blocks[0], &blocks[1])] = b;
            wire_refused(
                wire::decode::<CompressedBlock>(&body).map(drop),
                b,
                "a block",
            );
            let mut body = configs[1].clone();
            body[the_differing_byte(&configs[0], &configs[1])] = b;
            wire_refused(
                wire::decode::<qcsim::SimConfig>(&body).map(drop),
                b,
                "a config",
            );
            let mut ckpt = good.clone();
            ckpt[CHECKPOINT_CODEC_AT] = b;
            std::fs::write(&path, &ckpt).unwrap();
            checkpoint::load(&path, cfg.clone()).map(drop)
        });
        match res {
            Err(SimError::Checkpoint(m)) => {
                assert!(m.contains(&format!("unknown codec id {b}")), "{m}")
            }
            other => panic!("a checkpoint naming codec {b} loaded: {other:?}"),
        }
        assert!(
            requested <= 1 << 16,
            "codec {b}: requested {requested} bytes"
        );
    }
    std::fs::remove_file(&path).ok();
}

// The same container as the first block of a checksummed checkpoint of a
// 5-qubit register in 8-amplitude blocks, framed as a lossless (qzstd)
// block and as a Solution C block at 1e-3 (whose decoder then takes the
// whole-stream path). The file loads, since nothing decodes at load; the
// first read of the block is a typed error, where it used to abort on a
// 64 GiB allocation. The same frame naming a retired codec byte (the
// comparators' old ids) is refused at load.
#[test]
fn a_checkpoint_block_declaring_64_gib_is_a_typed_error() {
    use qcsim::compress::{frame, CodecError};
    use qcsim::core::{checkpoint, SimError};

    let path = std::env::temp_dir().join(format!("qcsim-zero64-{}.ckpt", std::process::id()));
    let (good, cfg) = small_checkpoint(&path);
    let (header, mut rest) = good.split_at(CHECKPOINT_HEADER_LEN);
    let mut frames = Vec::new();
    while !rest.is_empty() {
        frames.push(frame::read_frame(&mut rest).expect("block frame"));
    }

    let zero = zero_container_declaring_64_gib();
    let lossy = ErrorBound::PointwiseRelative(1e-3);
    let splice = |codec, bound, raw_id: Option<u8>| {
        let mut spliced = header.to_vec();
        let at = spliced.len() + 4; // the first frame's codec byte
        frame::write_frame(&mut spliced, codec, bound, &zero).unwrap();
        if let Some(b) = raw_id {
            spliced[at] = b;
        }
        for f in &frames[1..] {
            frame::write_frame(&mut spliced, f.codec, f.bound, &f.payload).unwrap();
        }
        std::fs::write(&path, &spliced).unwrap();
        checkpoint::load(&path, cfg.clone())
    };
    for (codec, bound) in [
        (CodecId::Qzstd, ErrorBound::Lossless),
        (CodecId::SolutionC, lossy),
    ] {
        let sim = splice(codec, bound, None).expect("nothing decodes at load");
        let (res, requested) = allocated_by(|| sim.norm_sqr());
        match res {
            Err(SimError::Codec(CodecError::Corrupt(_))) => {}
            other => panic!("{codec}: wanted Codec(Corrupt(..)), got {other:?}"),
        }
        assert!(requested <= 1 << 16, "{codec}: requested {requested} bytes");
        eprintln!("{codec}: norm_sqr requested {requested} bytes");
    }
    for b in retired_codec_ids() {
        let (res, requested) =
            allocated_by(|| splice(CodecId::SolutionC, lossy, Some(b)).map(drop));
        match res {
            Err(SimError::Checkpoint(m)) => {
                assert!(
                    m.contains("block frame 0") && m.contains("unknown codec id"),
                    "{m}"
                )
            }
            other => panic!("a block naming codec {b} loaded: {other:?}"),
        }
        assert!(
            requested <= 1 << 16,
            "codec {b}: requested {requested} bytes"
        );
    }
    std::fs::remove_file(&path).ok();
}

/// A one-segment Solution C stream around `segment`, holding `n` values.
fn one_segment_stream(n: usize, segment: &[u8]) -> Vec<u8> {
    let mut stream = 0x5143_5374u32.to_le_bytes().to_vec(); // "QCSt"
    stream.extend_from_slice(&(n as u64).to_le_bytes());
    stream.extend_from_slice(&(segment.len() as u32).to_le_bytes());
    stream.extend_from_slice(segment);
    stream
}

// The unpack loads the words that lie inside a segment's suffix in place
// and zero-pads only the last 8 bytes' worth; the LZ77 decoder copies a
// match in chunks. A stream cut or forged at either seam must end in a
// typed error, never in a panic or an out-of-bounds load.
#[test]
fn the_decode_fast_paths_refuse_streams_forged_at_their_seams() {
    use qcsim::compress::trunc::SolutionC;
    use qcsim::compress::{lz77, Codec as _, CodecError};

    let c = SolutionC::default();
    let corrupt = |r: Result<Vec<f64>, CodecError>, what: &str| match r {
        Err(CodecError::Corrupt(_)) => {}
        other => panic!("{what}: {other:?}"),
    };

    // Noise takes the run list (0xFE); one amplitude in sixteen, its
    // periodic codes through the backend (0xFD).
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut noise = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let noisy: Vec<f64> = (0..1024).map(|_| noise() * 1e-2).collect();
    let sparse: Vec<f64> = (0..1024)
        .map(|i| if i % 32 < 2 { noise() * 1e-2 } else { 0.0 })
        .collect();
    for (data, mode) in [(noisy, 0xFE), (sparse, 0xFD)] {
        let good = c
            .compress(&data, ErrorBound::PointwiseRelative(1e-3))
            .unwrap();
        assert_eq!(good[16], mode, "the segment's mode");
        let segment = &good[16..];
        assert!(c.decompress(&good).is_ok());
        // The suffix ends the segment: cutting 1-8 bytes lands on the
        // boundary between the in-place words and the zero-padded tail.
        for cut in 1..=8 {
            let stream = one_segment_stream(1024, &segment[..segment.len() - cut]);
            corrupt(c.decompress(&stream), &format!("mode {mode:#x}, cut {cut}"));
        }
    }

    // Four values of code 0 at 10 mantissa bits keep 3 bytes each. A run
    // list claiming five values overruns the count; one claiming four
    // over a suffix that holds three values' bytes is one value short.
    let runs_segment = |run_len: u8, suffix_values: usize| {
        let mut seg = vec![0xFE, 10, run_len - 1, 0, 0];
        seg.extend(std::iter::repeat_n(0x3F, 3 * suffix_values));
        one_segment_stream(4, &seg)
    };
    assert!(c.decompress(&runs_segment(4, 4)).is_ok());
    corrupt(c.decompress(&runs_segment(5, 4)), "runs over five values");
    corrupt(c.decompress(&runs_segment(4, 3)), "suffix one value short");

    // An LZ77 match whose chunked copy would start before the stream's
    // own output: three literals, then 597 bytes at offset `off`, in a
    // lossless block of 75 doubles.
    let block = |off: u16| {
        let mut c = vec![1u8]; // qzstd mode 1: LZ77
        c.extend_from_slice(&600u64.to_le_bytes());
        c.extend_from_slice(&[0x3F, 1, 2, 3]); // 3 literals, match code 15
        c.extend_from_slice(&off.to_le_bytes());
        c.extend_from_slice(&[255, 255, 69]); // 18 + 579 = 597 bytes
        c.extend_from_slice(&[0x00, 0, 0]); // end of stream
        c
    };
    let lossless = CodecId::Qzstd.build();
    assert_eq!(lossless.decompress(&block(3)).unwrap().len(), 75);
    for off in [4u16, 5, 600] {
        corrupt(lossless.decompress(&block(off)), &format!("match at {off}"));
        // Behind bytes the caller already holds, which are not history.
        let mut out = vec![0xEEu8; 1024];
        assert!(lz77::decompress_into(&block(off)[9..], &mut out).is_err());
    }
}
