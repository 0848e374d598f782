//! The per-segment modes of segmented Solution C streams and the
//! word-at-a-time pack/unpack underneath them:
//!
//! - (a) the ratio of the blocks the simulator actually holds does not
//!   regress against the single-mode layout these streams replaced;
//! - (b) the packed body is byte for byte the one the scalar loop wrote,
//!   and unpacks to the same values, for every mantissa width;
//! - (c) streams mixing mode 0 and both mode-2 code forms (runs and the
//!   backend plane) round-trip inside the bound;
//! - (d) every truncation of a mode-0 and a mode-2 segment ends in a
//!   typed error, and every single-byte substitution in a typed error or
//!   the segment's value count, with bounded allocation; a run list
//!   overrunning the value count, a suffix its codes do not account for
//!   and an exception index past the count are refused before anything
//!   is reserved;
//! - (e) the segment bytes of a seeded corpus are pinned by a digest.

use qcs_compress::checksum::checksum64;
use qcs_compress::trunc::SolutionC;
use qcs_compress::{qzstd, Codec, CodecError, ErrorBound};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::f64::consts::TAU;
use std::ops::Range;

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

/// Byte ranges of the bodies of a segmented stream: each behind its u32
/// length, from the end of the 12-byte header to the last byte.
fn body_ranges(stream: &[u8]) -> Vec<Range<usize>> {
    let mut ranges = Vec::new();
    let mut at = 12;
    while at < stream.len() {
        let len = u32::from_le_bytes(stream[at..at + 4].try_into().unwrap()) as usize;
        ranges.push(at + 4..at + 4 + len);
        at += 4 + len;
    }
    ranges
}

/// A segment body's mode: 0 when it is a bare backend container (first
/// byte 0..=3), else its mode byte: [`RUNS`] or [`PLANE`].
fn mode_of(body: &[u8]) -> u8 {
    match body[0] {
        0..=3 => 0,
        RUNS | PLANE => body[0],
        other => panic!("segment starts with {other:#04x}"),
    }
}

/// Mode byte of a mode-2 segment whose lead codes are runs.
const RUNS: u8 = 0xFE;
/// Mode byte of a mode-2 segment whose code plane went through the
/// backend.
const PLANE: u8 = 0xFD;

/// Four segments of a periodic state, four of noise, then two of a
/// sparse periodic state.
fn mixed_block() -> (Vec<f64>, SolutionC) {
    let mut data = qft_basis(8192)[..4096].to_vec();
    data.extend_from_slice(&porter_thomas(11)[..4096]);
    data.extend_from_slice(&sparse_16()[..2048]);
    (data, SolutionC::default())
}

#[test]
fn both_modes_round_trip_within_the_bound() {
    let (data, c) = mixed_block();
    for eps in [1e-2, 1e-3, 1e-5] {
        let stream = c
            .compress(&data, ErrorBound::PointwiseRelative(eps))
            .unwrap();
        let modes: Vec<u8> = body_ranges(&stream)
            .into_iter()
            .map(|body| mode_of(&stream[body]))
            .collect();
        // At 1e-2 three suffix bytes keep only 7 mantissa bits, and LZ77
        // finds repeats even in noise; finer bounds leave noise raw.
        assert_eq!(modes[..4], [0; 4], "eps={eps}: the periodic half");
        if eps < 1e-2 {
            assert_eq!(modes[4..8], [RUNS; 4], "eps={eps}: the noise");
            assert_eq!(modes[8..], [PLANE; 2], "eps={eps}: the sparse tail");
        }
        assert!(modes.contains(&RUNS), "eps={eps}: {modes:?}");
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

/// A one-segment stream around `body`, its length word re-pointed at it,
/// so the body decoder itself meets the bytes.
fn restream(header: &[u8], body: &[u8]) -> Vec<u8> {
    let mut s = header.to_vec();
    s.extend_from_slice(&(body.len() as u32).to_le_bytes());
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

/// A one-segment stream of `data` at [`BOUND`] whose segment takes
/// `mode`: its 12-byte header and its body.
fn one_segment(c: &SolutionC, data: &[f64], mode: u8) -> (Vec<u8>, Range<usize>) {
    let stream = c.compress(data, BOUND).unwrap();
    let bodies = body_ranges(&stream);
    assert_eq!(bodies.len(), 1);
    assert_eq!(mode_of(&stream[bodies[0].clone()]), mode);
    (stream, bodies[0].clone())
}

#[test]
fn every_cut_and_substitution_of_either_mode_is_a_typed_error() {
    let c = SolutionC::default();
    let cases = [
        (0u8, qft_basis(8192)[..1024].to_vec()),
        (RUNS, porter_thomas(5)[..1024].to_vec()),
        (PLANE, sparse_16()[..1024].to_vec()),
    ];
    for (mode, data) in cases {
        let (stream, range) = one_segment(&c, &data, mode);
        let (header, body) = (&stream[..12], &stream[range.clone()]);
        let mut out = Vec::with_capacity(data.len());
        c.decompress_into(&stream, &mut out).unwrap();
        let full_decode = out.clone();

        // Cuts: refused by the length word, and re-pointed, by the body.
        for cut in 0..body.len() {
            let short = &stream[..range.start + cut];
            assert!(
                is_corrupt(&bounded_decode(&c, short, &mut out)),
                "mode {mode}: cut to {cut} body bytes decoded"
            );
            let short = restream(header, &body[..cut]);
            assert!(
                is_corrupt(&bounded_decode(&c, &short, &mut out)),
                "mode {mode}: re-pointed cut to {cut} bytes decoded"
            );
        }
        // Substitutions: decoded to some n values or refused. (The frame
        // around a block is what refuses a flipped byte.)
        let mut bent = body.to_vec();
        for at in 0..body.len() {
            for sub in [body[at] ^ 0x01, body[at] ^ 0x80, 0x00, 0xFF] {
                if sub == body[at] {
                    continue;
                }
                bent[at] = sub;
                match bounded_decode(&c, &restream(header, &bent), &mut out) {
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

/// Decode `body` as the one segment of a stream of `n` values into an
/// empty vector: it must be refused with a message naming `what`, having
/// reserved nothing for the values.
fn refused_unreserved(c: &SolutionC, n: usize, body: &[u8], what: &str) {
    let mut header = 0x5143_5374u32.to_le_bytes().to_vec(); // "QCSt"
    header.extend_from_slice(&(n as u64).to_le_bytes());
    let stream = restream(&header, body);
    let mut out = Vec::new();
    let (res, requested) = allocated_by(|| c.decompress_into(&stream, &mut out));
    match res {
        Err(CodecError::Corrupt(m)) => assert!(m.contains(what), "{m}"),
        other => panic!("wanted an error naming {what:?}, got {other:?}"),
    }
    assert_eq!(out.capacity(), 0, "{what}: values reserved");
    assert!(requested < 1024, "{what}: {requested} bytes requested");
}

#[test]
fn a_mode_2_segment_is_checked_against_its_count_before_reserving() {
    let c = SolutionC::default();
    // Porter–Thomas noise with one subnormal: a run-list segment with one
    // exception, whose bits are the only place its 8 bytes occur.
    let mut data = porter_thomas(9)[..1024].to_vec();
    let odd = f64::from_bits(0x000A_5A5A_5A5A_5A5A);
    data[700] = odd;
    let (stream, range) = one_segment(&c, &data, RUNS);
    let body = &stream[range];
    let n = data.len();
    let mut back = Vec::new();
    c.decompress_into(&stream, &mut back).unwrap();
    assert_eq!(back[700].to_bits(), odd.to_bits());

    // Runs: one run of n + 1 values (n = 1024 needs two LEB128 bytes).
    let over = n; // len - 1
    let runs = [0x20 | (over & 0x1F) as u8, (over >> 5) as u8];
    let mut overrun = vec![RUNS, body[1]];
    overrun.extend_from_slice(&runs);
    overrun.extend_from_slice(&0u16.to_le_bytes());
    refused_unreserved(&c, n, &overrun, "overrun");
    // The same overrun split across two runs of different codes: 1000
    // values of code 0, then 25 of code 1.
    let first = 1000 - 1;
    let mut split = vec![
        RUNS,
        body[1],
        0x20 | (first & 0x1F) as u8,
        (first >> 5) as u8,
        1 << 6 | 24,
    ];
    split.extend_from_slice(&0u16.to_le_bytes());
    refused_unreserved(&c, n, &split, "overrun");

    // Suffix: one byte short of what the codes keep, and one byte over.
    refused_unreserved(&c, n, &body[..body.len() - 1], "suffix bytes");
    let mut long = body.to_vec();
    long.push(0);
    refused_unreserved(&c, n, &long, "suffix bytes");

    // The exception's index re-pointed at n, and at u16::MAX.
    let at = body
        .windows(8)
        .position(|w| w == odd.to_bits().to_le_bytes())
        .expect("the exception's bits")
        - 2;
    assert_eq!(u16::from_le_bytes([body[at], body[at + 1]]), 700);
    for idx in [n as u16, u16::MAX] {
        let mut bad = body.to_vec();
        bad[at..at + 2].copy_from_slice(&idx.to_le_bytes());
        refused_unreserved(&c, n, &bad, "exception index");
    }
}

// ---------------------------------------------------------------------------
// (e) Golden bytes
// ---------------------------------------------------------------------------

/// The first 128 amplitudes (256 values) of a 10-qubit, p = 1 QAOA state
/// on a ring with seeded edge weights: the weighted cut phase
/// `exp(-i γ C(z))` over the uniform state, then `Rx(2β)` on every qubit.
/// (A whole QAOA register repeats itself under the global bit flip, so
/// its every segment would take mode 0; one block of a larger register
/// holds no such pair.)
fn qaoa_ring_256() -> Vec<f64> {
    let (qubits, gamma, beta) = (10usize, 0.61f64, 0.37f64);
    let mut s = 17;
    let weights: Vec<f64> = (0..qubits).map(|_| 0.5 + uniform(&mut s)).collect();
    let dim = 1usize << qubits;
    let norm = 1.0 / (dim as f64).sqrt();
    let mut amps: Vec<(f64, f64)> = (0..dim)
        .map(|z| {
            let cut: f64 = (0..qubits)
                .filter(|&q| (z >> q & 1) != (z >> ((q + 1) % qubits) & 1))
                .map(|q| weights[q])
                .sum();
            let phase = -gamma * cut;
            (norm * phase.cos(), norm * phase.sin())
        })
        .collect();
    let (cb, sb) = (beta.cos(), beta.sin());
    for q in 0..qubits {
        for z in (0..dim).filter(|z| z >> q & 1 == 0) {
            let (a, b) = (amps[z], amps[z | 1 << q]);
            // Rx(2β) = [[cos β, -i sin β], [-i sin β, cos β]].
            amps[z] = (cb * a.0 + sb * b.1, cb * a.1 - sb * b.0);
            amps[z | 1 << q] = (cb * b.0 + sb * a.1, cb * b.1 - sb * a.0);
        }
    }
    amps[..128].iter().flat_map(|&(re, im)| [re, im]).collect()
}

#[test]
fn segment_bytes_match_the_pinned_digest() {
    let c = SolutionC::default();
    let corpus = [
        porter_thomas(3),
        qft_basis(1),
        sparse_16(),
        grover(),
        qaoa_ring_256(),
    ];
    let mut all = Vec::new();
    let mut modes = [0usize; 3];
    for data in &corpus {
        for bound in [
            ErrorBound::Lossless,
            ErrorBound::PointwiseRelative(1e-1),
            ErrorBound::PointwiseRelative(1e-3),
            ErrorBound::PointwiseRelative(1e-5),
        ] {
            let s = c.compress(data, bound).unwrap();
            assert_eq!(c.decompress(&s).unwrap().len(), data.len());
            for body in body_ranges(&s) {
                modes[match mode_of(&s[body]) {
                    0 => 0,
                    RUNS => 1,
                    _ => 2,
                }] += 1;
            }
            all.extend_from_slice(&(s.len() as u64).to_le_bytes());
            all.extend_from_slice(&s);
        }
    }
    println!("segments in mode 0 / runs / plane: {modes:?}");
    assert!(modes.iter().all(|&k| k > 0), "{modes:?}");
    assert_eq!(
        (checksum64(&all), all.len()),
        (0xb503_1d91_183b_96d7, 1_001_866)
    );
}
