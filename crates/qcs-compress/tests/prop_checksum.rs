//! Pins `checksum64` to the XXH64 specification: the published vectors, a
//! scalar reference written from the spec (byte indexing, no stripes), the
//! stripe/tail boundaries at every short length, sensitivity to every
//! single-byte change, and independence from slice alignment.

use proptest::prelude::*;
use qcs_compress::checksum::checksum64;

const P: [u64; 5] = [
    0x9E37_79B1_85EB_CA87,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0x85EB_CA77_C2B2_AE63,
    0x27D4_EB2F_1656_67C5,
];

/// XXH64 (seed 0) transcribed from the specification, one cursor and no
/// chunking, so it shares no boundary logic with the implementation.
fn reference(b: &[u8]) -> u64 {
    let rd = |i: usize, n: usize| (0..n).fold(0u64, |w, k| w | (b[i + k] as u64) << (8 * k));
    let round = |a: u64, w: u64| {
        a.wrapping_add(w.wrapping_mul(P[1]))
            .rotate_left(31)
            .wrapping_mul(P[0])
    };
    let (mut i, n) = (0usize, b.len());
    let mut h = P[4];
    if n >= 32 {
        let mut v = [P[0].wrapping_add(P[1]), P[1], 0, 0u64.wrapping_sub(P[0])];
        while i + 32 <= n {
            for (k, lane) in v.iter_mut().enumerate() {
                *lane = round(*lane, rd(i + 8 * k, 8));
            }
            i += 32;
        }
        h = [1, 7, 12, 18]
            .iter()
            .zip(&v)
            .fold(0u64, |s, (&r, l)| s.wrapping_add(l.rotate_left(r)));
        for lane in v {
            h = (h ^ round(0, lane)).wrapping_mul(P[0]).wrapping_add(P[3]);
        }
    }
    h = h.wrapping_add(n as u64);
    while i + 8 <= n {
        h = (h ^ round(0, rd(i, 8))).rotate_left(27);
        h = h.wrapping_mul(P[0]).wrapping_add(P[3]);
        i += 8;
    }
    if i + 4 <= n {
        h = (h ^ rd(i, 4).wrapping_mul(P[0])).rotate_left(23);
        h = h.wrapping_mul(P[1]).wrapping_add(P[2]);
        i += 4;
    }
    while i < n {
        h = (h ^ (b[i] as u64).wrapping_mul(P[4])).rotate_left(11);
        h = h.wrapping_mul(P[0]);
        i += 1;
    }
    h = (h ^ (h >> 33)).wrapping_mul(P[1]);
    h = (h ^ (h >> 29)).wrapping_mul(P[2]);
    h ^ (h >> 32)
}

/// The reference implementation's sanity buffer: `byte = gen >> 24;
/// gen *= gen` starting from the 32-bit prime 2654435761.
fn sanity_buffer(len: usize) -> Vec<u8> {
    let mut gen = 2_654_435_761u32;
    (0..len)
        .map(|_| {
            let b = (gen >> 24) as u8;
            gen = gen.wrapping_mul(gen);
            b
        })
        .collect()
}

/// Deterministic non-repeating filler for the sensitivity tests.
fn filler(len: usize, salt: u64) -> Vec<u8> {
    let mut x = salt | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 32) as u8
        })
        .collect()
}

#[test]
fn published_xxh64_vectors() {
    assert_eq!(checksum64(b""), 0xEF46_DB37_51D8_E999);
    assert_eq!(checksum64(b"a"), 0xD24E_C4F1_A98C_6E5B);
    assert_eq!(checksum64(b"abc"), 0x44BC_2CF5_AD77_0999);
    // xxHash's own self-test (seed 0 rows): 1, 14 and 101 bytes of its
    // sanity buffer cover the byte tail, the 8+4+1 tail and 3 stripes + 5.
    let buf = sanity_buffer(101);
    assert_eq!(checksum64(&buf[..1]), 0x4FCE_394C_C889_52D8);
    assert_eq!(checksum64(&buf[..14]), 0xCFFA_8DB8_81BC_3A3D);
    assert_eq!(checksum64(&buf), 0x0EAB_5433_84F8_78AD);
}

#[test]
fn every_short_length_matches_the_reference() {
    let buf = filler(100, 0xC0FFEE);
    let mut seen = std::collections::HashSet::new();
    for len in 0..=100 {
        assert_eq!(checksum64(&buf[..len]), reference(&buf[..len]), "len {len}");
        assert!(seen.insert(checksum64(&buf[..len])), "len {len} collides");
    }
}

#[test]
fn every_single_byte_change_and_length_change_is_seen() {
    // 0..=100 crosses every tail shape and the 32/64/96 stripe edges.
    for len in 0..=100usize {
        let base = filler(len + 1, 0xFEED + len as u64);
        let h = checksum64(&base[..len]);
        assert_ne!(h, checksum64(&base[..len + 1]), "extend at {len}");
        if len > 0 {
            assert_ne!(h, checksum64(&base[..len - 1]), "truncate at {len}");
        }
        let mut edited = base[..len].to_vec();
        for i in 0..len {
            let old = edited[i];
            for v in 0..=255u8 {
                if v != old {
                    edited[i] = v;
                    assert_ne!(h, checksum64(&edited), "len {len} byte {i} -> {v}");
                }
            }
            edited[i] = old;
        }
    }
}

#[test]
fn value_does_not_depend_on_slice_alignment() {
    let buf = filler(4096 + 9, 7);
    for off in 1..9 {
        let view = &buf[off..off + 4096];
        let fresh: Vec<u8> = view.to_vec();
        assert_eq!(checksum64(view), checksum64(&fresh), "offset {off}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_lengths_match_the_reference(
        len in 0usize..=65536,
        salt in any::<u64>(),
        flip in any::<u64>(),
    ) {
        let mut buf = filler(len, salt);
        let h = checksum64(&buf);
        prop_assert_eq!(h, reference(&buf));
        if len > 0 {
            // One substituted byte anywhere in a block-sized input.
            let at = (flip % len as u64) as usize;
            buf[at] ^= 1 << (flip >> 61);
            prop_assert!(checksum64(&buf) != h, "flip at {} of {} unseen", at, len);
            prop_assert_eq!(checksum64(&buf), reference(&buf));
        }
    }
}
