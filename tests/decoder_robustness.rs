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
    let codec = id.build();
    let bound = if codec.supports(ErrorBound::PointwiseRelative(1e-3)) {
        ErrorBound::PointwiseRelative(1e-3)
    } else {
        ErrorBound::Absolute(1e-6)
    };
    codec.compress(&data, bound).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn decoders_survive_random_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        pick in 0usize..7,
    ) {
        let codec = CodecId::ALL[pick].build();
        // Must not panic; Err is the expected outcome for garbage.
        let _ = codec.decompress(&bytes);
    }

    #[test]
    fn decoders_survive_truncation(
        frac in 0.0f64..1.0,
        pick in 0usize..7,
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
        pick in 0usize..7,
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

/// A valid segmented Solution C stream with several segments, for
/// index-corruption tests.
fn segmented_payload() -> Vec<u8> {
    use qcsim::compress::Codec as _;
    let data: Vec<f64> = (0..3000).map(|i| (i as f64 * 0.17).sin() * 1e-4).collect();
    qcsim::compress::trunc::SolutionC {
        segment_values: Some(512),
        ..Default::default()
    }
    .compress(&data, ErrorBound::PointwiseRelative(1e-6))
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The segment index is parsed from attacker-controllable bytes (a
    // spilled frame's prefix): corrupting any prefix byte must yield
    // Err/None or a still-bounded index, never a panic, and decoding
    // through a corrupt index must fail cleanly too.
    #[test]
    fn segment_index_survives_prefix_corruption(
        byte_frac in 0.0f64..1.0,
        bit in 0usize..8,
    ) {
        use qcsim::compress::{Codec as _, SegmentIndex};
        let mut payload = segmented_payload();
        let index = SegmentIndex::parse(&payload).unwrap().unwrap();
        let prefix_len = index.prefix_len();
        let pos = ((prefix_len - 1) as f64 * byte_frac) as usize;
        payload[pos] ^= 1 << bit;
        if let Ok(Some(_)) = SegmentIndex::parse(&payload) {
            // Decoding through a surviving index must return Err or
            // data — not panic.
            let c = qcsim::compress::trunc::SolutionC::default();
            let _ = c.decompress(&payload);
        }
    }

    // Truncating a segmented stream anywhere — inside the index or inside
    // a body — must produce Err, whether the cut left the index whole or
    // not.
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

/// A segmented Solution C stream from before segments carried a mode byte
/// (magic "QCSc") is refused by its magic, naming the old layout: by the
/// index parser and by the decoder of either configuration, with no value
/// decoded and no fall-through to the whole-stream decoder.
fn assert_refused_as_the_old_segment_layout(stream: &[u8]) {
    use qcsim::compress::trunc::SolutionC;
    use qcsim::compress::{Codec as _, CodecError, SegmentIndex};
    let names_it = |r: Result<(), CodecError>| match r {
        Err(CodecError::Corrupt(m)) => m.contains("QCSc"),
        _ => false,
    };
    assert!(names_it(SegmentIndex::parse(stream).map(drop)));
    let c = SolutionC::default();
    assert!(names_it(c.decompress(stream).map(drop)));
    assert!(names_it(
        SolutionC::whole_stream().decompress(stream).map(drop)
    ));
    let mut out = Vec::new();
    assert!(names_it(c.decompress_into(stream, &mut out)));
    assert!(out.is_empty(), "a stale segment leaked values");
}

/// Bytes written by the last build whose checksums were FNV-1a (frames
/// `QCF1`/`QCF2` unchanged in layout, checkpoint `QCSCKPT2`), captured from
/// that build and checked in. Every field but the checksums still parses,
/// so each reader must get as far as the checksum (or the version) and stop
/// there with its typed error — never decode, never panic.
#[test]
fn fnv1a_era_bytes_end_in_typed_errors() {
    use qcsim::compress::frame::{parse_header, read_frame, FrameError};
    use qcsim::core::{checkpoint, SimError};

    let v1: &[u8] = include_bytes!("fixtures/fnv1a_frame_v1_qzstd.bin");
    let v2: &[u8] = include_bytes!("fixtures/fnv1a_frame_v2_solution_c.bin");
    let ckpt: &[u8] = include_bytes!("fixtures/fnv1a_checkpoint_v2.bin");

    // Frames: same header layout, so the header parses; the payload (v1)
    // or prefix (v2) checksum is what refuses them.
    for (frame, codec) in [(v1, CodecId::Qzstd), (v2, CodecId::SolutionC)] {
        assert_eq!(parse_header(frame).unwrap().codec, codec);
        match read_frame(&mut &frame[..]) {
            Err(FrameError::Corrupt(m)) => assert!(m.contains("checksum"), "{m}"),
            other => panic!("{codec} frame from the FNV-1a era accepted: {other:?}"),
        }
    }

    // The segmented stream inside the v2 frame predates segment mode bytes
    // too: refused by its magic before any body checksum is computed.
    assert_refused_as_the_old_segment_layout(&v2[parse_header(v2).unwrap().header_len..]);

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
    forged[7] = b'4';
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
/// stop at the magic or the version with its typed error.
#[test]
fn pre_mode_byte_bytes_end_in_typed_errors() {
    use qcsim::compress::frame::{parse_header, read_frame, FrameError};
    use qcsim::compress::CodecId;
    use qcsim::core::{checkpoint, SimError};

    let frame: &[u8] = include_bytes!("fixtures/qcsc_segmented_frame.bin");
    let ckpt: &[u8] = include_bytes!("fixtures/checkpoint_v3_small.bin");

    // The frame header is unchanged and its prefix checksum holds; the
    // frame is refused because its payload is no segmented stream this
    // build reads, and so is the stream itself.
    let header = parse_header(frame).unwrap();
    assert_eq!(header.codec, CodecId::SolutionC);
    match read_frame(&mut &frame[..]) {
        Err(FrameError::Corrupt(m)) => assert!(m.contains("QCSc"), "{m}"),
        other => panic!("a pre-mode-byte frame was accepted: {other:?}"),
    }
    assert_refused_as_the_old_segment_layout(&frame[header.header_len..]);

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
    assert!(m.contains("version '3'") && m.contains("reads '4'"), "{m}");
    let mut forged = ckpt.to_vec();
    forged[7] = b'4';
    let m = load(&forged);
    assert!(m.contains("block frame 0") && m.contains("QCSc"), "{m}");
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

// Counts read from a segmented stream are claims: the index's value count
// and each body's must agree before either sizes an allocation. Both
// streams below are correctly checksummed; both used to take the process
// down (a capacity-overflow panic, or an abort on a 2^43- or 2^35-byte
// allocation).
#[test]
fn segment_counts_are_checked_before_allocating() {
    use qcsim::compress::checksum::checksum64;
    use qcsim::compress::trunc::SolutionC;
    use qcsim::compress::{qzstd, Codec as _, CodecError, SegmentIndex};

    let c = SolutionC::default();
    let good = c
        .compress(
            &[0.5, -0.25, 1e-3, 7.0],
            ErrorBound::PointwiseRelative(1e-3),
        )
        .unwrap();
    let prefix_len = SegmentIndex::parse(&good).unwrap().unwrap().prefix_len();
    assert_eq!(prefix_len, 32, "one segment");
    let corrupt = |r: Result<Vec<f64>, CodecError>, what: &str| match r {
        Err(CodecError::Corrupt(m)) => assert!(m.contains("values"), "{what}: {m}"),
        other => panic!("{what}: {other:?}"),
    };

    // A body claiming 2^61 or 2^40 values behind an index of four.
    for n in [1u64 << 61, 1 << 40] {
        let body = qzstd::compress(&body_claiming(n), qzstd::Level::Fast);
        let mut stream = good[..prefix_len].to_vec();
        stream[20..24].copy_from_slice(&(body.len() as u32).to_le_bytes());
        stream[24..32].copy_from_slice(&checksum64(&body).to_le_bytes());
        stream.extend_from_slice(&body);
        corrupt(c.decompress(&stream), &format!("segment claiming {n}"));
        // The same body as a whole stream, with no index to hold it to.
        corrupt(
            SolutionC::whole_stream().decompress(&body),
            &format!("whole stream claiming {n}"),
        );
    }

    // An index claiming u32::MAX values in one segment over a valid
    // four-value body.
    let mut stream = good.clone();
    stream[4..12].copy_from_slice(&u64::from(u32::MAX).to_le_bytes());
    stream[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(SegmentIndex::parse(&stream).unwrap().unwrap().n_segs(), 1);
    corrupt(c.decompress(&stream), "index claiming u32::MAX");
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
// whole stream, Solution D as both halves of its body.
#[test]
fn capped_decoders_refuse_an_oversized_zero_container() {
    use qcsim::compress::CodecError;
    let zero = zero_container_declaring_64_gib();
    let mut d_body = 0x5143_5344u32.to_le_bytes().to_vec(); // "QCSD"
    for _ in 0..2 {
        d_body.extend_from_slice(&(zero.len() as u64).to_le_bytes());
        d_body.extend_from_slice(&zero);
    }
    for (id, bytes) in [
        (CodecId::Qzstd, &zero),
        (CodecId::SolutionC, &zero),
        (CodecId::SolutionD, &d_body),
    ] {
        let codec = id.build();
        let mut out = Vec::new();
        let (res, requested) = allocated_by(|| codec.decompress_capped_into(bytes, 16, &mut out));
        assert!(matches!(res, Err(CodecError::Corrupt(_))), "{id}: {res:?}");
        assert!(requested <= 1 << 16, "{id}: requested {requested} bytes");
    }
}

/// Magic plus the fixed-width header of a `QCSCKPT4` file: everything in
/// front of the first block frame.
const CHECKPOINT_HEADER_LEN: usize = 8 + 57;

// The same container as the first block of a checksummed checkpoint of a
// 5-qubit register in 16-value blocks, framed as a lossless (qzstd) block
// and as a Solution C block at 1e-3 (whose decoder then takes the
// whole-stream path). The file loads, since nothing decodes at load; the
// first read of the block is a typed error, where it used to abort on a
// 64 GiB allocation.
#[test]
fn a_checkpoint_block_declaring_64_gib_is_a_typed_error() {
    use qcsim::compress::{frame, CodecError};
    use qcsim::core::{checkpoint, SimError};
    use qcsim::{CompressedSimulator, SimConfig};

    let cfg = SimConfig::default()
        .with_block_log2(3)
        .with_threads_per_rank(1);
    let sim = CompressedSimulator::new(5, cfg.clone()).unwrap();
    let path = std::env::temp_dir().join(format!("qcsim-zero64-{}.ckpt", std::process::id()));
    checkpoint::save(&sim, &path).unwrap();
    let good = std::fs::read(&path).unwrap();
    let (header, mut rest) = good.split_at(CHECKPOINT_HEADER_LEN);
    let mut frames = Vec::new();
    while !rest.is_empty() {
        frames.push(frame::read_frame(&mut rest).expect("block frame"));
    }

    let zero = zero_container_declaring_64_gib();
    for (codec, bound) in [
        (CodecId::Qzstd, ErrorBound::Lossless),
        (CodecId::SolutionC, ErrorBound::PointwiseRelative(1e-3)),
    ] {
        let mut spliced = header.to_vec();
        frame::write_frame(&mut spliced, codec, bound, &zero).unwrap();
        for f in &frames[1..] {
            frame::write_frame(&mut spliced, f.codec, f.bound, &f.payload).unwrap();
        }
        std::fs::write(&path, &spliced).unwrap();
        let sim = checkpoint::load(&path, cfg.clone()).expect("nothing decodes at load");
        let (res, requested) = allocated_by(|| sim.norm_sqr());
        match res {
            Err(SimError::Codec(CodecError::Corrupt(_))) => {}
            other => panic!("{codec}: wanted Codec(Corrupt(..)), got {other:?}"),
        }
        assert!(requested <= 1 << 16, "{codec}: requested {requested} bytes");
        eprintln!("{codec}: norm_sqr requested {requested} bytes");
    }
    std::fs::remove_file(&path).ok();
}
