//! The byte-identity pin for the entropy back end: `lz77`, `huffman` and
//! `qzstd` must emit exactly the bytes of the reference implementation in
//! `entropy_reference/` (the bit-at-a-time coder and the table-refilling
//! matcher they replaced), and each side must decode the other's streams.
//! A stream that differs by one byte moves every ratio, peak-memory figure
//! and fidelity the simulator reports, so "equivalent" is not enough here.

mod entropy_reference;

use entropy_reference as reference;
use proptest::prelude::*;
use qcs_compress::qzstd::Level;
use qcs_compress::{huffman, lz77, qzstd, Codec as _, ErrorBound};

/// Deterministic noise source (xorshift64).
struct Noise(u64);

impl Noise {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| (self.next() >> 32) as u8).collect()
    }
}

/// Mostly one symbol, the rest spread thin: short and long codes together.
fn skewed(n: usize, seed: u64) -> Vec<u8> {
    let mut noise = Noise(seed | 1);
    (0..n)
        .map(|_| match noise.next() % 100 {
            0..=89 => 0,
            90..=96 => (noise.next() % 4) as u8 + 1,
            _ => noise.next() as u8,
        })
        .collect()
}

/// Symbol `s` occurs `fib(s)` times: the deepest tree a histogram can ask
/// for. `symbols` distinct symbols need codes up to `symbols - 1` bits.
fn fibonacci_symbols(symbols: u32) -> Vec<u32> {
    let (mut a, mut b) = (1u64, 1u64);
    let mut out = Vec::new();
    for s in 0..symbols {
        out.extend(std::iter::repeat_n(s, a as usize));
        (a, b) = (b, a + b);
    }
    // Interleave so the payload is not one run per symbol.
    let mut noise = Noise(7);
    for i in (1..out.len()).rev() {
        out.swap(i, (noise.next() % (i as u64 + 1)) as usize);
    }
    out
}

/// Amplitudes as a deep random circuit leaves them: every exponent and
/// mantissa bit in play, a stretch of exact zeros.
fn amplitudes(n: usize, seed: u64) -> Vec<f64> {
    let mut noise = Noise(seed | 1);
    (0..n)
        .map(|i| {
            let unit = (noise.next() >> 11) as f64 / (1u64 << 53) as f64;
            match i % 97 {
                90..=96 => 0.0,
                _ => (unit - 0.5) * 2e-3,
            }
        })
        .collect()
}

/// What the lossy pipeline hands to `qzstd`: Solution C's packed body
/// (lead codes, XOR suffix bytes, exceptions) at relative bound `eps`,
/// recovered from the whole-stream container.
fn solution_c_body(values: &[f64], eps: f64) -> Vec<u8> {
    let container = qcs_compress::trunc::SolutionC::whole_stream()
        .compress(values, ErrorBound::PointwiseRelative(eps))
        .expect("solution C compresses");
    qzstd::decompress(&container).expect("own container decodes")
}

/// The byte inputs every stage is compared on, named for the failure
/// message.
fn corpus() -> Vec<(String, Vec<u8>)> {
    let mut noise = Noise(0x9E37_79B9_7F4A_7C15);
    let mut out: Vec<(String, Vec<u8>)> = vec![
        ("empty".into(), Vec::new()),
        ("one zero".into(), vec![0]),
        ("all zero".into(), vec![0; 5000]),
        ("single symbol".into(), vec![0xAB; 3000]),
        (
            "two symbols".into(),
            (0..999).map(|i| (i % 7 == 0) as u8).collect(),
        ),
        ("period 8".into(), b"abcdefgh".repeat(1200)),
        (
            "text".into(),
            b"the quick brown fox jumps over the lazy dog. ".repeat(300),
        ),
        (
            "long run then tail".into(),
            [vec![7u8; 70_000], b"tail".to_vec()].concat(),
        ),
    ];
    for len in [
        1,
        2,
        3,
        4,
        5,
        7,
        8,
        9,
        15,
        16,
        17,
        18,
        19,
        31,
        33,
        63,
        64,
        65,
        255,
        256,
        257,
        2048,
        4095,
        4096,
        4097,
        65_535,
        65_536,
        65_537,
        70 * 1024,
    ] {
        out.push((format!("full entropy x{len}"), noise.bytes(len)));
        out.push((format!("skewed x{len}"), skewed(len, len as u64)));
    }
    // 26 and 29 Fibonacci symbols want 25- and 28-bit codes, so they go
    // through the halve-and-retry length limit; 12 do not.
    for symbols in [12u32, 26, 29] {
        let bytes = fibonacci_symbols(symbols)
            .iter()
            .map(|&s| s as u8)
            .collect();
        out.push((format!("fibonacci x{symbols}"), bytes));
    }
    for (eps, n) in [
        (1e-1, 1024),
        (1e-2, 1024),
        (1e-3, 1024),
        (1e-3, 4096),
        (1e-4, 333),
        (1e-6, 2048),
    ] {
        let body = solution_c_body(&amplitudes(n, n as u64), eps);
        out.push((format!("solution C body eps {eps} x{n}"), body));
    }
    out
}

fn ref_lz(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    reference::lz77::compress_into(data, &mut out);
    out
}

fn ref_qz(data: &[u8], high: bool) -> Vec<u8> {
    let mut out = Vec::new();
    reference::qzstd::compress_into(data, high, &mut out);
    out
}

/// Every stage on one input, against the reference, appending after a
/// marker so "appends, never clobbers" is checked along the way.
fn assert_identical(name: &str, data: &[u8]) {
    let marker = [0xEEu8, 0xEE];

    let want_lz = ref_lz(data);
    let mut got = marker.to_vec();
    lz77::compress_into(data, &mut got);
    assert_eq!(&got[..2], &marker, "lz77 clobbered its prefix on {name}");
    assert!(got[2..] == want_lz[..], "lz77 stream differs on {name}");
    assert!(
        lz77::decompress(&want_lz).unwrap() == data,
        "lz77 decode on {name}"
    );

    let want_huff = reference::huffman::encode_bytes(data);
    let mut got = marker.to_vec();
    huffman::encode_bytes_into(data, &mut got);
    assert_eq!(&got[..2], &marker, "huffman clobbered its prefix on {name}");
    assert!(
        got[2..] == want_huff[..],
        "huffman byte stream differs on {name}"
    );
    assert!(
        huffman::decode_bytes(&want_huff).unwrap() == data,
        "new decoder on the reference stream of {name}"
    );
    assert!(
        reference::huffman::decode_bytes(&got[2..]).unwrap() == data,
        "reference decoder on the new stream of {name}"
    );

    // `encode_bytes_if_smaller` takes the reference's decision at every
    // limit around the stream's length, and leaves `out` alone on `false`.
    let len = want_huff.len();
    for limit in [0, len - 1, len, len + 1, usize::MAX] {
        let mut got = marker.to_vec();
        let wrote = huffman::encode_bytes_if_smaller(data, limit, &mut got);
        assert_eq!(
            wrote,
            len < limit,
            "if_smaller({limit}) on {name}, stream is {len}"
        );
        if wrote {
            assert!(
                got[2..] == want_huff[..],
                "if_smaller stream differs on {name}"
            );
        } else {
            assert_eq!(got, marker, "if_smaller wrote on refusal on {name}");
        }
    }

    for (level, high) in [(Level::Fast, false), (Level::High, true)] {
        let want = ref_qz(data, high);
        let mut got = marker.to_vec();
        qzstd::compress_into(data, level, &mut got);
        assert_eq!(&got[..2], &marker, "qzstd clobbered its prefix on {name}");
        assert!(
            got[2..] == want[..],
            "qzstd {level:?} container differs on {name}"
        );
        let plain = qzstd::compress(data, level);
        assert!(plain == want, "qzstd::compress {level:?} differs on {name}");
        assert_eq!(
            plain.capacity(),
            plain.len(),
            "qzstd::compress capacity on {name}"
        );
        assert!(
            qzstd::decompress(&want).unwrap() == data,
            "qzstd decode on {name}"
        );
    }
}

#[test]
fn every_stage_matches_the_reference_on_the_corpus() {
    for (name, data) in corpus() {
        assert_identical(&name, &data);
    }
}

/// The matcher's tables are never cleared, so what one call leaves behind
/// must be invisible to the next: long after short (stale `prev` beyond
/// the short input), short after long (stale `head` everywhere), the same
/// bytes twice (every stale slot hashes to a live position), and inputs
/// that share long substrings with their predecessor.
#[test]
fn back_to_back_calls_on_one_thread_leave_no_trace() {
    let mut noise = Noise(42);
    let shared = noise.bytes(70 * 1024);
    let text = b"the quick brown fox jumps over the lazy dog. ".repeat(1600);
    let lens = [
        70 * 1024,
        3,
        4096,
        4096,
        65_537,
        100,
        20_000,
        0,
        2048,
        1,
        70 * 1024,
        5,
        30_000,
        4097,
    ];
    for round in 0..3 {
        for (i, &len) in lens.iter().enumerate() {
            let data = match (i + round) % 3 {
                0 => shared[..len].to_vec(),
                1 => text[..len].to_vec(),
                _ => skewed(len, 3),
            };
            assert_identical(&format!("round {round} call {i} x{len}"), &data);
        }
    }
}

#[test]
fn symbol_alphabets_match_the_reference() {
    let mut noise = Noise(99);
    // The SZ alphabet: a peak at the centre bin over a floor touching most
    // of the 65,537 symbols.
    let sz: Vec<u32> = (0..200_000u32)
        .map(|i| match noise.next() % 8 {
            0 => (i.wrapping_mul(i)) % 65_537,
            1 => 65_536,
            _ => 32_768 + (noise.next() % 9) as u32 - 4,
        })
        .collect();
    let cases: Vec<(&str, Vec<u32>, u32)> = vec![
        ("empty, alphabet 0", vec![], 0),
        ("empty, alphabet 65537", vec![], 65_537),
        ("single symbol", vec![5; 100], 6),
        ("run header over u16::MAX", vec![70_000, 1, 70_000], 140_000),
        ("sz alphabet", sz, 65_537),
        ("fibonacci x12", fibonacci_symbols(12), 64),
        ("fibonacci x27", fibonacci_symbols(27), 27),
        ("fibonacci x29", fibonacci_symbols(29), 300),
    ];
    for (name, symbols, alphabet) in cases {
        let want = reference::huffman::encode(&symbols, alphabet).unwrap();
        let mut got = vec![0xEEu8; 2];
        huffman::encode_into(&symbols, alphabet, &mut got).unwrap();
        assert_eq!(&got[..2], &[0xEE; 2]);
        assert!(
            got[2..] == want[..],
            "huffman symbol stream differs on {name}"
        );
        assert!(
            huffman::decode(&want).unwrap() == symbols,
            "new decoder on {name}"
        );
        assert!(
            reference::huffman::decode(&got[2..]).unwrap() == symbols,
            "reference decoder on {name}"
        );
    }
    // The Fibonacci cases really do straddle the length limit.
    for (symbols, over_limit) in [(12, false), (27, true), (29, true)] {
        let mut freqs = vec![0u64; symbols];
        for s in fibonacci_symbols(symbols as u32) {
            freqs[s as usize] += 1;
        }
        let deepest = reference::huffman::unrestricted_code_lengths(&freqs)
            .into_iter()
            .max();
        assert_eq!(deepest > Some(huffman::MAX_CODE_LEN), over_limit);
    }
    // Both sides refuse the same out-of-range symbol.
    assert_eq!(
        huffman::encode(&[1, 9, 12], 8).unwrap_err().to_string(),
        reference::huffman::encode(&[1, 9, 12], 8)
            .unwrap_err()
            .to_string()
    );
}

/// Structured random bytes: runs, repeats of earlier content and noise,
/// so LZ77 sees matches at every distance and Huffman every skew.
fn structured_bytes() -> impl Strategy<Value = Vec<u8>> {
    let piece = prop_oneof![
        3 => prop::collection::vec(any::<u8>(), 1..40),
        2 => (any::<u8>(), 1usize..300).prop_map(|(b, n)| vec![b; n]),
        2 => prop::collection::vec(0u8..4, 1..200),
        1 => prop::collection::vec(any::<u8>(), 1..12).prop_map(|p| p.repeat(25)),
    ];
    prop::collection::vec(piece, 0..40).prop_map(|pieces| {
        let mut out: Vec<u8> = Vec::new();
        for (i, p) in pieces.iter().enumerate() {
            // Every third piece re-uses earlier output: a long-range match.
            if i % 3 == 2 && out.len() > p.len() {
                let at = p[0] as usize * 131 % (out.len() - p.len());
                out.extend_from_within(at..at + p.len());
            }
            out.extend_from_slice(p);
        }
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_structured_inputs_match_the_reference(data in structured_bytes()) {
        assert_identical("random structured input", &data);
    }

    #[test]
    fn random_symbol_streams_match_the_reference(
        symbols in prop::collection::vec(0u32..700, 0..3000),
        extra in 0u32..70_000,
    ) {
        let alphabet = 700 + extra;
        let want = reference::huffman::encode(&symbols, alphabet).unwrap();
        prop_assert_eq!(&huffman::encode(&symbols, alphabet).unwrap(), &want);
        prop_assert_eq!(&huffman::decode(&want).unwrap(), &symbols);
    }
}
