//! The one 64-bit checksum of the workspace: XXH64 (seed 0).
//!
//! Every integrity field and content tag is this function over the bytes
//! it covers: the block frame of a spill segment or a checkpoint
//! ([`crate::frame`], over the whole payload), the `qcs-net` wire frame
//! and the block cache's line tag. A block's bytes are checked where they
//! leave memory and nowhere else: the compressed streams carry no checksum
//! of their own. The cache line's op key folds its words through it one at
//! a time.
//!
//! XXH64 is a public specification with public test vectors
//! (`tests/prop_checksum.rs` pins them and a scalar reference). Input is
//! consumed as 32-byte stripes feeding four independent 64-bit lanes — four
//! multiply chains in flight instead of the one dependent multiply per
//! *byte* of the FNV-1a it replaced — then an 8/4/1-byte tail and a final
//! avalanche.
//!
//! What a change to the input is guaranteed to do:
//!
//! - Every step of the tail (`h ^= f(word); h = rotl(h) * odd + c`), the
//!   length addition and the avalanche are bijections of the running state
//!   for a fixed input word and bijections of the word for a fixed state.
//!   So substituting any byte of the last `len % 32` bytes (all of an
//!   input shorter than 32), always changes the value.
//! - Within the stripes, a lane's round `rotl(acc + w * P2, 31) * P1` is
//!   likewise a bijection of `w`, so a single-word substitution always
//!   changes that lane's accumulator; folding the four lanes into one word
//!   is not injective, so there the final value differs with probability
//!   1 - 2^-64 over the other lanes' contents rather than by theorem.
//! - The length is mixed in, and a one-byte extension or truncation moves
//!   bytes between the stripe and tail paths; these differ with the same
//!   2^-64 odds.
//!
//! That is the strength a torn write, bit rot or a stale-format reader
//! needs; it is not a MAC.

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

#[inline(always)]
fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

#[inline(always)]
fn round(acc: u64, w: u64) -> u64 {
    acc.wrapping_add(w.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

#[inline(always)]
fn merge(h: u64, lane: u64) -> u64 {
    (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
}

/// XXH64 of `bytes` with seed 0.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut stripes = bytes.chunks_exact(32);
    let mut h = if bytes.len() >= 32 {
        let (mut v1, mut v2, mut v3, mut v4) = (P1.wrapping_add(P2), P2, 0u64, P1.wrapping_neg());
        for s in &mut stripes {
            v1 = round(v1, word(&s[0..]));
            v2 = round(v2, word(&s[8..]));
            v3 = round(v3, word(&s[16..]));
            v4 = round(v4, word(&s[24..]));
        }
        let h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        merge(merge(merge(merge(h, v1), v2), v3), v4)
    } else {
        P5
    };
    h = h.wrapping_add(bytes.len() as u64);

    let mut words = stripes.remainder().chunks_exact(8);
    for w in &mut words {
        h = (h ^ round(0, word(w)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    let mut tail = words.remainder();
    if tail.len() >= 4 {
        let w = u32::from_le_bytes(tail[..4].try_into().expect("4 bytes")) as u64;
        h = (h ^ w.wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        tail = &tail[4..];
    }
    for &b in tail {
        h = (h ^ (b as u64).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }

    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}
