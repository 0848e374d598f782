//! The per-segment modes of segmented Solution C streams and the
//! word-at-a-time pack/unpack underneath them:
//!
//! - (a) the ratio of the blocks the simulator actually holds does not
//!   regress against the single-mode layout these streams replaced;
//! - (b) the packed body is byte for byte the one the scalar loop wrote,
//!   and unpacks to the same values, for every mantissa width;
//! - (c) streams mixing both modes round-trip inside the bound;
//! - (d) every truncation and single-byte substitution of a mode-0 and a
//!   mode-1 segment ends in a typed error, with bounded allocation.

use qcs_compress::checksum::checksum64;
use qcs_compress::trunc::SolutionC;
use qcs_compress::{qzstd, Codec, CodecError, ErrorBound, SegmentIndex};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::f64::consts::TAU;

// ---------------------------------------------------------------------------
// Blocks
// ---------------------------------------------------------------------------

const BOUND: ErrorBound = ErrorBound::PointwiseRelative(1e-3);
const BLOCK_AMPS: usize = 1 << 14;

/// A 2^14-amplitude block as interleaved (re, im) doubles.
fn complex_block(mut amp: impl FnMut(usize) -> (f64, f64)) -> Vec<f64> {
    (0..BLOCK_AMPS)
        .flat_map(|j| {
            let (re, im) = amp(j);
            [re, im]
        })
        .collect()
}

/// The first block of QFT|k> on a 2^20-amplitude register.
fn qft_basis(k: u64) -> Vec<f64> {
    let n = 1u64 << 20;
    let norm = 1.0 / (n as f64).sqrt();
    complex_block(|j| {
        let phase = ((j as u64 * k) % n) as f64 / n as f64 * TAU;
        (norm * phase.cos(), norm * phase.sin())
    })
}

/// A 14-qubit product of Ry rotations.
fn ry_product() -> Vec<f64> {
    let halves: Vec<(f64, f64)> = (0..14)
        .map(|q| {
            let t = 0.3 + 0.17 * q as f64;
            ((t / 2.0).cos(), (t / 2.0).sin())
        })
        .collect();
    complex_block(|j| {
        let amp = halves
            .iter()
            .enumerate()
            .map(|(q, &(c, s))| if j >> q & 1 == 1 { s } else { c })
            .product();
        (amp, 0.0)
    })
}

/// One amplitude in sixteen non-zero.
fn sparse_16() -> Vec<f64> {
    complex_block(|j| {
        if j % 16 == 0 {
            let x = j as f64;
            ((x * 0.37).sin() / 32.0, (x * 0.11).cos() / 32.0)
        } else {
            (0.0, 0.0)
        }
    })
}

/// Three Grover iterations: one marked amplitude over a uniform rest.
fn grover() -> Vec<f64> {
    let n = BLOCK_AMPS as f64;
    let theta = (1.0 / n.sqrt()).asin();
    let turn = 7.0 * theta;
    let (marked, rest) = (turn.sin(), turn.cos() / (n - 1.0).sqrt());
    complex_block(|j| (if j == 1234 { marked } else { rest }, 0.0))
}

/// SplitMix64 as a uniform draw in (0, 1).
fn uniform(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    ((z >> 11) as f64 + 0.5) / (1u64 << 53) as f64
}

/// Complex Gaussian amplitudes at a 2^20-amplitude register's scale: the
/// Porter–Thomas statistics of a random circuit's output.
fn porter_thomas(seed: u64) -> Vec<f64> {
    let mut s = seed;
    let scale = 1.0 / (2.0 * (1u64 << 20) as f64).sqrt();
    complex_block(|_| {
        let (u, v) = (uniform(&mut s), uniform(&mut s));
        let r = (-2.0 * u.ln()).sqrt() * scale;
        (r * (TAU * v).cos(), r * (TAU * v).sin())
    })
}

fn assert_within_bound(data: &[f64], decoded: &[f64], eps: f64) {
    assert_eq!(decoded.len(), data.len());
    for (i, (a, b)) in data.iter().zip(decoded).enumerate() {
        assert!((a - b).abs() <= eps * a.abs(), "value {i}: {a} -> {b}");
    }
}

// ---------------------------------------------------------------------------
// (a) Ratio pin
// ---------------------------------------------------------------------------

/// Stream bytes of each block under the single-mode segment layout (every
/// segment body through qzstd), measured at 1e-3 when it was replaced.
const PARENT_LEN: [(&str, usize); 10] = [
    ("qft_1", 23_667),
    ("qft_3", 23_847),
    ("qft_1024", 83_956),
    ("qft_8192", 14_164),
    ("qft_12345", 98_253),
    ("qft_131079", 67_430),
    ("ry_product", 83_533),
    ("sparse_16", 11_219),
    ("grover", 2_176),
    ("porter_thomas", 100_532),
];

fn pinned_block(name: &str) -> Vec<f64> {
    match name {
        "ry_product" => ry_product(),
        "sparse_16" => sparse_16(),
        "grover" => grover(),
        "porter_thomas" => porter_thomas(7),
        qft => qft_basis(qft["qft_".len()..].parse().expect("qft_<k>")),
    }
}

#[test]
fn no_block_loses_ratio_to_the_single_mode_layout() {
    let c = SolutionC::default();
    for (name, parent) in PARENT_LEN {
        let data = pinned_block(name);
        let stream = c.compress(&data, BOUND).unwrap();
        let raw = (8 * data.len()) as f64;
        println!(
            "{name:>14}: {:>7} bytes (ratio {:6.2}), single-mode {parent:>7} (ratio {:6.2})",
            stream.len(),
            raw / stream.len() as f64,
            raw / parent as f64
        );
        // Mode 1 must never lose on noise; elsewhere the probe may cost a
        // mode byte and a length word per segment.
        let slack = if name == "porter_thomas" { 1.0 } else { 1.01 };
        assert!(
            stream.len() as f64 <= slack * parent as f64,
            "{name}: {} bytes against {parent}",
            stream.len()
        );
        assert_within_bound(&data, &c.decompress(&stream).unwrap(), 1e-3);
    }
}

// ---------------------------------------------------------------------------
// (b) The word-at-a-time pack against the scalar loop
// ---------------------------------------------------------------------------

const MAGIC: u32 = 0x5143_5343;

fn is_exception(bits: u64) -> bool {
    let e = (bits >> 52) & 0x7FF;
    (e == 0 && (bits & 0x000F_FFFF_FFFF_FFFF) != 0) || e == 0x7FF
}

/// The body encoder as it was written before the word-at-a-time rewrite:
/// one suffix byte per push, one lead code OR-ed in per value.
fn scalar_body(data: &[f64], m: u32) -> Vec<u8> {
    let sig_bytes = ((12 + m) as usize).div_ceil(8);
    let codes_len = data.len().div_ceil(4);
    let mut body = Vec::new();
    body.extend_from_slice(&MAGIC.to_le_bytes());
    body.extend_from_slice(&(data.len() as u64).to_le_bytes());
    body.push(m as u8);
    body.extend_from_slice(&(codes_len as u64).to_le_bytes());
    let codes_start = body.len();
    body.resize(codes_start + codes_len, 0);
    let suffix_len_at = body.len();
    body.extend_from_slice(&0u64.to_le_bytes());
    let suffix_start = body.len();
    let mut exceptions = Vec::new();
    let mut prev = 0u64;
    for (i, &v) in data.iter().enumerate() {
        let raw = v.to_bits();
        let t = if m < 52 && is_exception(raw) {
            exceptions.push((i as u64, raw));
            0u64
        } else if m >= 52 {
            raw
        } else {
            raw & !((1u64 << (52 - m)) - 1)
        };
        let x = t ^ prev;
        prev = t;
        let lead = (x.leading_zeros() / 8) as usize;
        let c = (lead.min(6) / 2) as u8;
        body[codes_start + i / 4] |= c << ((i % 4) * 2);
        for b in (c as usize) * 2..sig_bytes {
            body.push((x >> (56 - 8 * b)) as u8);
        }
    }
    let suffix_len = (body.len() - suffix_start) as u64;
    body[suffix_len_at..suffix_len_at + 8].copy_from_slice(&suffix_len.to_le_bytes());
    body.extend_from_slice(&(exceptions.len() as u64).to_le_bytes());
    for (idx, bits) in exceptions {
        body.extend_from_slice(&idx.to_le_bytes());
        body.extend_from_slice(&bits.to_le_bytes());
    }
    body
}

/// The scalar decode of a [`scalar_body`]: the values it stands for.
fn scalar_values(data: &[f64], m: u32) -> Vec<u64> {
    let mask = if m >= 52 {
        !0
    } else {
        !((1u64 << (52 - m)) - 1)
    };
    data.iter()
        .map(|v| {
            let raw = v.to_bits();
            if m < 52 && is_exception(raw) {
                raw
            } else {
                raw & mask
            }
        })
        .collect()
}

/// Values that reach every lead code and every exception kind: zero runs,
/// exact repeats, near repeats, sign flips, wide exponents, subnormals,
/// ±∞ and NaN.
fn pack_input(len: usize, salt: u64) -> Vec<f64> {
    let specials = [
        f64::MIN_POSITIVE / 4.0,
        -f64::MIN_POSITIVE / 1024.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];
    let mut s = salt;
    let mut prev = 0.0f64;
    (0..len)
        .map(|_| {
            let r = uniform(&mut s);
            let v = match (r * 16.0) as u32 {
                0 | 1 => 0.0,
                2 => specials[(uniform(&mut s) * 5.0) as usize],
                3 => prev,
                4 => f64::from_bits(prev.to_bits() ^ 0x1F),
                5 => -prev,
                _ => {
                    let mag = (uniform(&mut s) * 40.0 - 30.0).exp2();
                    if uniform(&mut s) < 0.5 {
                        -mag
                    } else {
                        mag
                    }
                }
            };
            prev = v;
            v
        })
        .collect()
}

/// The bound whose mantissa width is `m` (1..=52).
fn bound_for(m: u32) -> ErrorBound {
    if m == 52 {
        ErrorBound::Lossless
    } else {
        ErrorBound::PointwiseRelative((-(m as f64)).exp2())
    }
}

/// Every length in release builds; the ends and a stride in debug ones.
fn lengths() -> Vec<usize> {
    if cfg!(debug_assertions) {
        (0..=1025)
            .filter(|&n| !(12..=1017).contains(&n) || n % 97 == 0)
            .collect()
    } else {
        (0..=1025).collect()
    }
}

#[test]
fn word_pack_is_byte_identical_to_the_scalar_loop() {
    let whole = SolutionC::whole_stream();
    // The public bounds reach widths 1..=52; width 0 is written by no
    // bound, so only its decode is pinned (below).
    for m in 1..=52u32 {
        for n in lengths() {
            let data = pack_input(n, (m as u64) << 32 | n as u64);
            let stream = whole.compress(&data, bound_for(m)).unwrap();
            let body = qzstd::decompress(&stream).unwrap();
            assert!(body == scalar_body(&data, m), "m={m} n={n}: body differs");
        }
    }
}

#[test]
fn word_unpack_matches_the_scalar_values() {
    let whole = SolutionC::whole_stream();
    for m in 0..=52u32 {
        for n in lengths() {
            let data = pack_input(n, (m as u64) << 32 | n as u64 | 1 << 63);
            let stream = qzstd::compress(&scalar_body(&data, m), qzstd::Level::Fast);
            let got: Vec<u64> = whole
                .decompress(&stream)
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert!(got == scalar_values(&data, m), "m={m} n={n}: values differ");
        }
    }
}

// ---------------------------------------------------------------------------
// (c) Both modes in one stream
// ---------------------------------------------------------------------------

/// Segment `seg`'s mode: 1 when its first byte is the raw-suffix mark,
/// 0 when it is a bare backend container (first byte 0..=3).
fn mode_of(stream: &[u8], index: &SegmentIndex, seg: usize) -> u8 {
    match stream[index.byte_range(seg).start] {
        0xFF => 1,
        0..=3 => 0,
        other => panic!("segment {seg} starts with {other:#04x}"),
    }
}

/// Four segments of a periodic state, then four of noise.
fn mixed_block() -> (Vec<f64>, SolutionC) {
    let mut data = qft_basis(8192)[..4096].to_vec();
    data.extend_from_slice(&porter_thomas(11)[..4096]);
    (data, SolutionC::default())
}

#[test]
fn both_modes_round_trip_within_the_bound() {
    let (data, c) = mixed_block();
    for eps in [1e-2, 1e-3, 1e-5] {
        let stream = c
            .compress(&data, ErrorBound::PointwiseRelative(eps))
            .unwrap();
        let index = SegmentIndex::parse(&stream).unwrap().unwrap();
        let modes: Vec<u8> = (0..index.n_segs())
            .map(|s| mode_of(&stream, &index, s))
            .collect();
        // At 1e-2 three suffix bytes keep only 7 mantissa bits, and LZ77
        // finds repeats even in noise; finer bounds leave noise raw.
        assert_eq!(modes[..4], [0; 4], "eps={eps}: the periodic half");
        if eps < 1e-2 {
            assert_eq!(modes[4..], [1; 4], "eps={eps}: the noise half");
        }
        assert!(modes.contains(&1), "eps={eps}: {modes:?}");
        let full = c.decompress(&stream).unwrap();
        assert_within_bound(&data, &full, eps);
    }
    // Lossless too: noise keeps every suffix byte, the periodic half
    // repeats them.
    let stream = c.compress(&data, ErrorBound::Lossless).unwrap();
    let back = c.decompress(&stream).unwrap();
    assert!(data
        .iter()
        .zip(&back)
        .all(|(a, b)| a.to_bits() == b.to_bits()));
}

// ---------------------------------------------------------------------------
// (d) Truncations and substitutions
// ---------------------------------------------------------------------------

struct CountingAlloc;

thread_local! {
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = REQUESTED.try_with(|n| n.set(n.get().saturating_add(bytes)));
}

// SAFETY: every method forwards its arguments unchanged to `System`;
// counting touches only a const-initialised thread-local `Cell`, which
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bytes this thread asked the allocator for while `f` ran.
fn allocated_by<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = REQUESTED.with(Cell::get);
    let out = f();
    (out, REQUESTED.with(Cell::get) - before)
}

/// What decoding one 1024-value segment may request, whatever its bytes
/// say: a few times the largest body those values can need.
const ALLOC_BUDGET: usize = 1 << 20;

/// A one-segment stream around `body`, its index entry re-pointed at it
/// (length and checksum), so the body decoder itself meets the bytes.
fn restream(prefix: &[u8], body: &[u8]) -> Vec<u8> {
    let mut s = prefix.to_vec();
    s[20..24].copy_from_slice(&(body.len() as u32).to_le_bytes());
    s[24..32].copy_from_slice(&checksum64(body).to_le_bytes());
    s.extend_from_slice(body);
    s
}

fn is_corrupt<T>(r: &Result<T, CodecError>) -> bool {
    matches!(r, Err(CodecError::Corrupt(_)))
}

/// Decode `bytes` into `out`, holding the decoder to [`ALLOC_BUDGET`].
fn bounded_decode(c: &SolutionC, bytes: &[u8], out: &mut Vec<f64>) -> Result<(), CodecError> {
    let (res, requested) = allocated_by(|| c.decompress_into(bytes, out));
    assert!(
        requested <= ALLOC_BUDGET,
        "decode requested {requested} bytes, then {res:?}"
    );
    res
}

#[test]
fn every_cut_and_substitution_of_either_mode_is_a_typed_error() {
    let c = SolutionC::default();
    let cases = [
        (0u8, qft_basis(8192)[..1024].to_vec()),
        (1u8, porter_thomas(5)[..1024].to_vec()),
    ];
    for (mode, data) in cases {
        let stream = c.compress(&data, BOUND).unwrap();
        let index = SegmentIndex::parse(&stream).unwrap().unwrap();
        assert_eq!(index.n_segs(), 1);
        assert_eq!(mode_of(&stream, &index, 0), mode);
        let (prefix, body) = stream.split_at(index.prefix_len());
        let mut out = Vec::with_capacity(data.len());
        c.decompress_into(&stream, &mut out).unwrap();
        let full_decode = out.clone();

        // Cuts: refused by the index's length, and re-pointed, by the body.
        for cut in 0..body.len() {
            let short = &stream[..prefix.len() + cut];
            assert!(
                is_corrupt(&bounded_decode(&c, short, &mut out)),
                "mode {mode}: cut to {cut} body bytes decoded"
            );
            let short = restream(prefix, &body[..cut]);
            assert!(
                is_corrupt(&bounded_decode(&c, &short, &mut out)),
                "mode {mode}: re-pointed cut to {cut} bytes decoded"
            );
        }
        // Substitutions: refused by the checksum, and re-pointed, decoded
        // to some n values or refused.
        let mut bent = body.to_vec();
        for at in 0..body.len() {
            for sub in [body[at] ^ 0x01, body[at] ^ 0x80, 0x00, 0xFF] {
                if sub == body[at] {
                    continue;
                }
                bent[at] = sub;
                let mut whole = prefix.to_vec();
                whole.extend_from_slice(&bent);
                assert!(
                    is_corrupt(&bounded_decode(&c, &whole, &mut out)),
                    "mode {mode}: byte {at} = {sub:#04x} passed the checksum"
                );
                match bounded_decode(&c, &restream(prefix, &bent), &mut out) {
                    Ok(()) => assert_eq!(out.len(), data.len()),
                    Err(CodecError::Corrupt(_)) => {}
                    Err(e) => panic!("mode {mode}: byte {at} = {sub:#04x}: untyped {e:?}"),
                }
            }
            bent[at] = body[at];
        }
        c.decompress_into(&stream, &mut out).unwrap();
        assert!(out
            .iter()
            .zip(&full_decode)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }
}
