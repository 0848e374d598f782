//! Compressed amplitude blocks (paper §3.1: "Each block is stored in
//! compressed format on the memory").
//!
//! This module is also the allocation seam of the simulation hot path:
//! [`BlockCodec`] owns a striped [`BufferPool`] of recycled amplitude and
//! compression buffers plus a set of [`CodecCounters`] that make the
//! "allocation-free steady state" claim machine-checkable. Every pooled
//! checkout and every capacity growth observed at this seam is counted, so
//! a run whose report shows `codec_allocs == 0` provably never touched the
//! heap for per-block codec work after warm-up.

use parking_lot::Mutex;
use qcs_compress::trunc::SolutionC;
use qcs_compress::{Codec, CodecError, CodecId, ErrorBound, QzstdCodec};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// One compressed block of `block_amps` complex amplitudes
/// (`2 * block_amps` doubles, interleaved re/im).
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedBlock {
    /// Codec that produced `bytes`.
    pub codec: CodecId,
    /// Error bound `bytes` was compressed under. Metadata only (the codec
    /// stream is self-contained), but it makes a block self-describing when
    /// written to a persistent tier as a frame.
    pub bound: ErrorBound,
    /// Compressed payload, shared with the block cache.
    pub bytes: Arc<[u8]>,
}

impl From<qcs_compress::frame::Frame> for CompressedBlock {
    fn from(frame: qcs_compress::frame::Frame) -> Self {
        Self {
            codec: frame.codec,
            bound: frame.bound,
            bytes: frame.payload.into(),
        }
    }
}

impl CompressedBlock {
    /// Compressed size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when the payload is empty (never for valid blocks).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// [`checksum64`](qcs_compress::checksum::checksum64) (XXH64) of the
    /// payload: the cache-line tag, and the same function the frame format
    /// uses as its checksum. One pass over the payload per call; the block
    /// cache makes that call once per block touch.
    pub fn content_hash(&self) -> u64 {
        qcs_compress::checksum::checksum64(&self.bytes)
    }
}

/// A drained snapshot of the codec-side allocation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CodecCounterSnapshot {
    /// Heap allocations observed at the codec seam: pooled-buffer misses
    /// plus capacity growth of buffers passed through the seam.
    pub codec_allocs: u64,
    /// Bytes of capacity growth observed at the codec seam.
    pub codec_bytes_alloc: u64,
    /// Buffer checkouts / codec calls that reused existing capacity.
    pub scratch_reuse_hits: u64,
}

impl CodecCounterSnapshot {
    /// Merge another snapshot into this one.
    pub fn absorb(&mut self, other: &CodecCounterSnapshot) {
        self.codec_allocs += other.codec_allocs;
        self.codec_bytes_alloc += other.codec_bytes_alloc;
        self.scratch_reuse_hits += other.scratch_reuse_hits;
    }
}

/// Relaxed atomic counters tracking heap traffic at the codec seam.
#[derive(Debug, Default)]
pub struct CodecCounters {
    codec_allocs: AtomicU64,
    codec_bytes_alloc: AtomicU64,
    scratch_reuse_hits: AtomicU64,
}

impl CodecCounters {
    fn note_alloc(&self, bytes: u64) {
        self.codec_allocs.fetch_add(1, Ordering::Relaxed);
        self.codec_bytes_alloc.fetch_add(bytes, Ordering::Relaxed);
    }

    fn note_reuse(&self) {
        self.scratch_reuse_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Read the counters without resetting them.
    pub fn peek(&self) -> CodecCounterSnapshot {
        CodecCounterSnapshot {
            codec_allocs: self.codec_allocs.load(Ordering::Relaxed),
            codec_bytes_alloc: self.codec_bytes_alloc.load(Ordering::Relaxed),
            scratch_reuse_hits: self.scratch_reuse_hits.load(Ordering::Relaxed),
        }
    }

    /// Drain the counters to zero, returning what accumulated since the
    /// previous drain.
    pub fn take(&self) -> CodecCounterSnapshot {
        CodecCounterSnapshot {
            codec_allocs: self.codec_allocs.swap(0, Ordering::Relaxed),
            codec_bytes_alloc: self.codec_bytes_alloc.swap(0, Ordering::Relaxed),
            scratch_reuse_hits: self.scratch_reuse_hits.swap(0, Ordering::Relaxed),
        }
    }
}

/// Stripes in the buffer pool; bounds lock contention under rayon without
/// holding more idle buffers than a wave can use at once.
const POOL_STRIPES: usize = 8;
/// Idle buffers kept per stripe per type; checkouts beyond the bound fall
/// back to (counted) fresh allocations and returns beyond it are dropped.
const MAX_POOLED_PER_STRIPE: usize = 4;

#[derive(Default)]
struct PoolStripe {
    bytes: Mutex<Vec<Vec<u8>>>,
    f64s: Mutex<Vec<Vec<f64>>>,
}

/// A small striped pool of recycled `Vec<u8>` / `Vec<f64>` buffers.
///
/// Checkouts and returns are O(1) under a striped [`parking_lot::Mutex`];
/// the pool is bounded, so it can never hold more than
/// `POOL_STRIPES * MAX_POOLED_PER_STRIPE` idle buffers of each type.
#[derive(Default)]
pub struct BufferPool {
    stripes: [PoolStripe; POOL_STRIPES],
    next: AtomicUsize,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool").finish()
    }
}

impl BufferPool {
    fn stripe(&self) -> &PoolStripe {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        &self.stripes[i % POOL_STRIPES]
    }

    fn take_bytes(&self) -> Option<Vec<u8>> {
        let start = self.next.fetch_add(1, Ordering::Relaxed);
        for off in 0..POOL_STRIPES {
            if let Some(buf) = self.stripes[(start + off) % POOL_STRIPES]
                .bytes
                .lock()
                .pop()
            {
                return Some(buf);
            }
        }
        None
    }

    fn put_bytes(&self, mut buf: Vec<u8>) {
        buf.clear();
        let mut stack = self.stripe().bytes.lock();
        if stack.len() < MAX_POOLED_PER_STRIPE {
            stack.push(buf);
        }
    }

    fn take_f64s(&self) -> Option<Vec<f64>> {
        let start = self.next.fetch_add(1, Ordering::Relaxed);
        for off in 0..POOL_STRIPES {
            if let Some(buf) = self.stripes[(start + off) % POOL_STRIPES].f64s.lock().pop() {
                return Some(buf);
            }
        }
        None
    }

    fn put_f64s(&self, mut buf: Vec<f64>) {
        buf.clear();
        let mut stack = self.stripe().f64s.lock();
        if stack.len() < MAX_POOLED_PER_STRIPE {
            stack.push(buf);
        }
    }
}

/// Compressor front-end that picks lossless (qzstd) vs lossy (Solution C)
/// per the active ladder level and stamps blocks with their codec id.
///
/// Both codecs are held by value and shared across worker threads, which
/// keeps the per-block hot path allocation-free apart from output buffers —
/// and those come from the built-in [`BufferPool`], so the steady state
/// allocates nothing at all (pinned by [`CodecCounters`]).
#[derive(Debug)]
pub struct BlockCodec {
    lossless: QzstdCodec,
    lossy: SolutionC,
    pool: BufferPool,
    counters: CodecCounters,
}

impl BlockCodec {
    /// Codec front-end for lossy levels run by `lossy_id`, which must be
    /// [`CodecId::SolutionC`], the one lossy codec
    /// ([`crate::SimConfig::validate`] refuses any other).
    pub fn new(lossy_id: CodecId) -> Self {
        assert_eq!(lossy_id, CodecId::SolutionC, "the lossy codec");
        Self {
            lossless: QzstdCodec,
            lossy: SolutionC::default(),
            pool: BufferPool::default(),
            counters: CodecCounters::default(),
        }
    }

    /// Pre-populate the pool with `n` amplitude buffers sized for
    /// `block_f64s` doubles and `n` byte buffers sized for the worst
    /// realistic compressed output, so steady-state waves start warm.
    /// Prewarm allocations are deliberately *not* counted.
    pub fn prewarm(&self, block_f64s: usize, n: usize) {
        for _ in 0..n {
            self.pool.put_f64s(Vec::with_capacity(block_f64s));
            // Compressed output can exceed the raw size by a stream header
            // and a length word per segment; 2x raw + change covers both
            // codecs the engine runs.
            self.pool
                .put_bytes(Vec::with_capacity(2 * 8 * block_f64s + 1024));
        }
    }

    /// Counters tracking heap traffic at this seam.
    pub fn counters(&self) -> &CodecCounters {
        &self.counters
    }

    /// Drain the seam counters (see [`CodecCounters::take`]).
    pub fn take_counters(&self) -> CodecCounterSnapshot {
        self.counters.take()
    }

    /// Drain the seam counters into `metrics`, so its breakdown reflects
    /// codec allocations up to this instant. Draining swaps to zero, so
    /// ranks sharing one codec never double count.
    pub fn drain_counters_into(&self, metrics: &qcs_cluster::Metrics) {
        let c = self.take_counters();
        metrics.add_codec_counters(c.codec_allocs, c.codec_bytes_alloc, c.scratch_reuse_hits);
    }

    /// Check an amplitude scratch buffer out of the pool (counted).
    pub fn take_amp_buf(&self) -> Vec<f64> {
        match self.pool.take_f64s() {
            Some(buf) => {
                self.counters.note_reuse();
                buf
            }
            None => {
                self.counters.note_alloc(0);
                Vec::new()
            }
        }
    }

    /// Return an amplitude scratch buffer to the pool.
    pub fn put_amp_buf(&self, buf: Vec<f64>) {
        self.pool.put_f64s(buf);
    }

    /// Check a byte scratch buffer out of the pool (counted).
    pub fn take_byte_buf(&self) -> Vec<u8> {
        match self.pool.take_bytes() {
            Some(buf) => {
                self.counters.note_reuse();
                buf
            }
            None => {
                self.counters.note_alloc(0);
                Vec::new()
            }
        }
    }

    /// Return a byte scratch buffer to the pool.
    pub fn put_byte_buf(&self, buf: Vec<u8>) {
        self.pool.put_bytes(buf);
    }

    /// Compress `data` under `bound`.
    ///
    /// `ErrorBound::Lossless` uses the qzstd codec (the paper's Zstd leg);
    /// lossy bounds use Solution C.
    pub fn compress(&self, data: &[f64], bound: ErrorBound) -> Result<CompressedBlock, CodecError> {
        let (id, bytes) = if bound.is_lossy() {
            (CodecId::SolutionC, self.lossy.compress(data, bound)?)
        } else {
            (CodecId::Qzstd, self.lossless.compress(data, bound)?)
        };
        // Every crate codec returns exact-capacity output, so this
        // conversion moves the allocation instead of copying through a
        // reallocation.
        debug_assert_eq!(bytes.capacity(), bytes.len());
        Ok(CompressedBlock {
            codec: id,
            bound,
            bytes: bytes.into(),
        })
    }

    /// [`BlockCodec::compress`] through a pooled output buffer: the codec
    /// writes into recycled scratch and only the final shared payload copy
    /// (`Arc<[u8]>`, storage rather than scratch) touches the allocator.
    /// Pool misses and scratch growth are counted.
    pub fn compress_pooled(
        &self,
        data: &[f64],
        bound: ErrorBound,
    ) -> Result<CompressedBlock, CodecError> {
        let mut buf = self.take_byte_buf();
        let cap_before = buf.capacity();
        let (id, res) = if bound.is_lossy() {
            (
                CodecId::SolutionC,
                self.lossy.compress_into(data, bound, &mut buf),
            )
        } else {
            (
                CodecId::Qzstd,
                self.lossless.compress_into(data, bound, &mut buf),
            )
        };
        self.note_growth(cap_before, buf.capacity(), 1);
        let block = res.map(|()| CompressedBlock {
            codec: id,
            bound,
            bytes: Arc::from(&buf[..]),
        });
        self.put_byte_buf(buf);
        block
    }

    /// Decompress into `out` (cleared first).
    ///
    /// Blocks decode through the shared instances (no per-call codec
    /// construction). Capacity growth of `out` is counted; a decode that
    /// fits the existing capacity counts as a scratch reuse.
    pub fn decompress(
        &self,
        block: &CompressedBlock,
        out: &mut Vec<f64>,
    ) -> Result<(), CodecError> {
        self.decode(block, None, out)
    }

    /// [`Self::decompress`] of a block that must hold `max_values` values:
    /// a stream declaring more is refused before it allocates
    /// ([`Codec::decompress_capped_into`]).
    pub(crate) fn decompress_capped(
        &self,
        block: &CompressedBlock,
        max_values: usize,
        out: &mut Vec<f64>,
    ) -> Result<(), CodecError> {
        self.decode(block, Some(max_values), out)
    }

    fn decode(
        &self,
        block: &CompressedBlock,
        max_values: Option<usize>,
        out: &mut Vec<f64>,
    ) -> Result<(), CodecError> {
        let codec: &dyn Codec = match block.codec {
            CodecId::Qzstd => &self.lossless,
            CodecId::SolutionC => &self.lossy,
        };
        let cap_before = out.capacity();
        let res = match max_values {
            Some(max) => codec.decompress_capped_into(&block.bytes, max, out),
            None => codec.decompress_into(&block.bytes, out),
        };
        self.note_growth(cap_before, out.capacity(), 8);
        res
    }

    /// Count a capacity transition observed at the seam: growth is an
    /// allocation of the grown bytes, staying put is a reuse hit.
    fn note_growth(&self, cap_before: usize, cap_after: usize, elem_size: u64) {
        if cap_after > cap_before {
            self.counters
                .note_alloc((cap_after - cap_before) as u64 * elem_size);
        } else {
            self.counters.note_reuse();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn amps(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.21).sin() * 1e-3).collect()
    }

    #[test]
    fn lossless_level_round_trips_exactly() {
        let bc = BlockCodec::new(CodecId::SolutionC);
        let data = amps(2048);
        let blk = bc.compress(&data, ErrorBound::Lossless).unwrap();
        assert_eq!(blk.codec, CodecId::Qzstd);
        let mut out = Vec::new();
        bc.decompress(&blk, &mut out).unwrap();
        assert_eq!(out.len(), data.len());
        for (a, b) in data.iter().zip(&out) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn lossy_level_uses_configured_codec() {
        let bc = BlockCodec::new(CodecId::SolutionC);
        let data = amps(2048);
        let blk = bc
            .compress(&data, ErrorBound::PointwiseRelative(1e-3))
            .unwrap();
        assert_eq!(blk.codec, CodecId::SolutionC);
        let mut out = Vec::new();
        bc.decompress(&blk, &mut out).unwrap();
        for (a, b) in data.iter().zip(&out) {
            assert!((a - b).abs() <= 1e-3 * a.abs());
        }
    }

    #[test]
    fn content_hash_distinguishes_blocks() {
        let bc = BlockCodec::new(CodecId::SolutionC);
        let b1 = bc.compress(&amps(512), ErrorBound::Lossless).unwrap();
        let mut other = amps(512);
        other[100] = 0.5;
        let b2 = bc.compress(&other, ErrorBound::Lossless).unwrap();
        assert_ne!(b1.content_hash(), b2.content_hash());
        assert_eq!(b1.content_hash(), b1.clone().content_hash());
    }

    #[test]
    fn zero_block_is_tiny() {
        let bc = BlockCodec::new(CodecId::SolutionC);
        let data = vec![0.0f64; 1 << 14];
        let blk = bc.compress(&data, ErrorBound::Lossless).unwrap();
        assert!(blk.len() < 32, "all-zero block: {} bytes", blk.len());
    }

    #[test]
    fn pooled_compress_matches_allocating_compress() {
        let bc = BlockCodec::new(CodecId::SolutionC);
        let data = amps(4096);
        for bound in [ErrorBound::Lossless, ErrorBound::PointwiseRelative(1e-4)] {
            let plain = bc.compress(&data, bound).unwrap();
            let pooled = bc.compress_pooled(&data, bound).unwrap();
            assert_eq!(plain.codec, pooled.codec);
            assert_eq!(&plain.bytes[..], &pooled.bytes[..]);
        }
    }

    /// 2048 amplitudes (4096 f64s): four default-size segments of 512
    /// amplitudes, so offset bits 9 and 10 select whole segments.
    fn segmented_amps() -> Vec<f64> {
        (0..4096)
            .map(|i| ((i as f64 * 0.37).sin() + 1.5) * 1e-3)
            .collect()
    }

    const SEG_BOUND: ErrorBound = ErrorBound::PointwiseRelative(1e-6);

    /// Byte ranges of a segmented block's bodies: each behind its u32
    /// length, from the end of the 12-byte stream header to the last byte.
    fn bodies(blk: &CompressedBlock) -> Vec<std::ops::Range<usize>> {
        let mut ranges = Vec::new();
        let mut at = 12;
        while at < blk.bytes.len() {
            let len = u32::from_le_bytes(blk.bytes[at..at + 4].try_into().unwrap()) as usize;
            ranges.push(at + 4..at + 4 + len);
            at += 4 + len;
        }
        ranges
    }

    /// Segment `seg`'s body bytes.
    fn body(blk: &CompressedBlock, seg: usize) -> &[u8] {
        &blk.bytes[bodies(blk)[seg].clone()]
    }

    /// One whole-block cycle: decode, transform, re-encode at `bound`.
    /// Returns the new block and the values the transform produced.
    fn cycle(
        bc: &BlockCodec,
        blk: &CompressedBlock,
        bound: ErrorBound,
        transform: impl FnOnce(&mut [f64]),
    ) -> (CompressedBlock, Vec<f64>) {
        let mut buf = Vec::new();
        bc.decompress(blk, &mut buf).unwrap();
        transform(&mut buf);
        (bc.compress(&buf, bound).unwrap(), buf)
    }

    fn assert_within(got: &[f64], want: &[f64], eps: f64) {
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!((g - w).abs() <= eps * w.abs(), "value {i}: {g} vs {w}");
        }
    }

    #[test]
    fn lossy_blocks_are_segmented_and_lossless_blocks_are_not() {
        let bc = BlockCodec::new(CodecId::SolutionC);
        let blk = bc.compress(&segmented_amps(), SEG_BOUND).unwrap();
        assert_eq!(
            u64::from_le_bytes(blk.bytes[4..12].try_into().unwrap()),
            4096
        );
        assert_eq!(bodies(&blk).len(), 4);
        let blk = bc
            .compress(&segmented_amps(), ErrorBound::Lossless)
            .unwrap();
        assert_eq!(blk.codec, CodecId::Qzstd);
        assert!(blk.bytes[0] <= 3, "a bare qzstd container");
    }

    #[test]
    fn a_diagonal_gate_cycle_leaves_the_untouched_segments_byte_identical() {
        use qcs_statevec::{kernels, Gate1};
        let bc = BlockCodec::new(CodecId::SolutionC);
        let blk = bc.compress(&segmented_amps(), SEG_BOUND).unwrap();
        // T on offset bit 10 moves only the amplitudes with bit 10 set:
        // segments 2 and 3.
        let (out, want) = cycle(&bc, &blk, SEG_BOUND, |buf| {
            kernels::apply_in_block(buf, 10, &Gate1::t(), 0)
        });
        for seg in [0, 1] {
            assert_eq!(body(&blk, seg), body(&out, seg), "segment {seg}");
        }
        for seg in [2, 3] {
            assert_ne!(body(&blk, seg), body(&out, seg), "segment {seg}");
        }
        let mut got = Vec::new();
        bc.decompress(&out, &mut got).unwrap();
        assert_within(&got, &want, 1e-6);
    }

    #[test]
    fn a_low_bit_gate_cycle_rewrites_every_segment() {
        use qcs_statevec::{kernels, Gate1};
        let bc = BlockCodec::new(CodecId::SolutionC);
        let blk = bc.compress(&segmented_amps(), SEG_BOUND).unwrap();
        let (out, want) = cycle(&bc, &blk, SEG_BOUND, |buf| {
            kernels::apply_in_block(buf, 3, &Gate1::rz(0.2), 0)
        });
        for seg in 0..4 {
            assert_ne!(body(&blk, seg), body(&out, seg), "segment {seg}");
        }
        let mut got = Vec::new();
        bc.decompress(&out, &mut got).unwrap();
        assert_within(&got, &want, 1e-6);
    }

    #[test]
    fn a_collapse_cycle_at_segment_granularity_zeroes_whole_segments() {
        let bc = BlockCodec::new(CodecId::SolutionC);
        let blk = bc.compress(&segmented_amps(), SEG_BOUND).unwrap();
        let (bit, scale) = (1usize << 10, 1.25f64);
        for outcome in [false, true] {
            let (out, want) = cycle(&bc, &blk, SEG_BOUND, |buf| {
                for (o, pair) in buf.chunks_exact_mut(2).enumerate() {
                    let k = if (o & bit != 0) == outcome {
                        scale
                    } else {
                        0.0
                    };
                    pair[0] *= k;
                    pair[1] *= k;
                }
            });
            let mut got = Vec::new();
            bc.decompress(&out, &mut got).unwrap();
            assert_within(&got, &want, 1e-6);
            let (dropped, kept) = if outcome {
                ([0, 1], [2, 3])
            } else {
                ([2, 3], [0, 1])
            };
            for (z, k) in dropped.into_iter().zip(kept) {
                let values = &got[z * 1024..(z + 1) * 1024];
                assert!(values.iter().all(|v| v.to_bits() == 0));
                assert!(body(&out, z).len() < body(&out, k).len());
            }
        }
    }

    #[test]
    fn the_lossless_rung_reencodes_a_lossy_block_exactly() {
        let bc = BlockCodec::new(CodecId::SolutionC);
        let blk = bc.compress(&segmented_amps(), SEG_BOUND).unwrap();
        let (out, want) = cycle(&bc, &blk, ErrorBound::Lossless, |_| {});
        assert_eq!(out.codec, CodecId::Qzstd);
        let mut got = Vec::new();
        bc.decompress(&out, &mut got).unwrap();
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    #[test]
    fn capped_decode_refuses_a_block_longer_than_the_layout() {
        let bc = BlockCodec::new(CodecId::SolutionC);
        let data = segmented_amps();
        for bound in [ErrorBound::Lossless, SEG_BOUND] {
            let blk = bc.compress(&data, bound).unwrap();
            let mut whole = Vec::new();
            bc.decompress(&blk, &mut whole).unwrap();
            let mut out = vec![f64::NAN; 7];
            bc.decompress_capped(&blk, data.len(), &mut out).unwrap();
            assert!(out
                .iter()
                .zip(&whole)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
            assert_eq!(out.len(), whole.len());
            assert!(matches!(
                bc.decompress_capped(&blk, data.len() / 2, &mut out),
                Err(CodecError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn counters_reach_zero_allocs_once_warm() {
        let bc = BlockCodec::new(CodecId::SolutionC);
        let data = amps(4096);
        bc.prewarm(data.len(), 2);
        // Warm-up pass: scratch grows to the working size.
        let blk = bc
            .compress_pooled(&data, ErrorBound::PointwiseRelative(1e-4))
            .unwrap();
        let mut out = bc.take_amp_buf();
        bc.decompress(&blk, &mut out).unwrap();
        bc.put_amp_buf(out);
        bc.take_counters();
        // Steady state: every round must be allocation-free at the seam.
        for _ in 0..3 {
            let blk = bc
                .compress_pooled(&data, ErrorBound::PointwiseRelative(1e-4))
                .unwrap();
            let mut out = bc.take_amp_buf();
            bc.decompress(&blk, &mut out).unwrap();
            bc.put_amp_buf(out);
        }
        let snap = bc.take_counters();
        assert_eq!(snap.codec_allocs, 0, "steady state allocated: {snap:?}");
        assert_eq!(snap.codec_bytes_alloc, 0);
        assert!(
            snap.scratch_reuse_hits >= 9,
            "expected reuse hits: {snap:?}"
        );
    }
}
