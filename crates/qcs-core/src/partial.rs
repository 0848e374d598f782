//! Partial-decode routing: which waves can touch a strict subset of a
//! compressed block's segments, and the segment-level rewrites they run.
//!
//! A segmented Solution C/D stream (see [`qcs_compress::PartialCodec`])
//! splits a block's amplitudes into fixed runs of `seg_amps = seg_values/2`
//! complex amplitudes. An in-block wave whose touched-amplitude set is
//! `{o | o & mask == value}` therefore touches only the segments whose
//! index satisfies the *high* bits of that constraint:
//!
//! ```text
//! o = s * seg_amps + low                       seg_amps = 2^sa_bits
//! o & mask == value   =>   s & (mask >> sa_bits) == (value >> sa_bits)
//! ```
//!
//! Whenever `mask >> sa_bits != 0` at most half the segments qualify, and
//! the wave routes through the partial path: decode exactly the touched
//! segment bodies, transform them, splice them back with
//! [`PartialCodec::recompress_segments`] — untouched bodies are copied
//! verbatim, never decoded. The waves with such a shape are:
//!
//! - **diagonal gates** ([`diag_touch`]): a gate `[a 0; 0 d]` scales
//!   amplitudes in place, so controls and (when `a` or `d` is 1) the
//!   target bit itself become high-bit constraints — the QFT's
//!   controlled-phase cascade is the motivating case;
//! - **measurement collapse** on an offset bit at or above `sa_bits`
//!   ([`partial_collapse`]): the surviving half is decoded and rescaled,
//!   the projected-out half becomes [`SegmentEdit::Zero`] edits that are
//!   never decoded at all.
//!
//! The partial paths reproduce the whole-block kernels' arithmetic
//! operation for operation, so routing is behavior-neutral up to the sign
//! of exact zeros (the whole-block kernel adds a `0 * partner` term the
//! partial path omits).

use crate::block::{BlockCodec, CompressedBlock};
use crate::worker::{wrong_length, BatchPlan};
use qcs_compress::{CodecError, ErrorBound, PartialCodec, SegmentEdit, SegmentIndex};
use qcs_statevec::{Complex64, Gate1};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Counters of one partial block operation, folded into
/// [`qcs_cluster::Metrics::add_partial_decode`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct PartialStats {
    /// Segments actually decoded.
    pub segments: u64,
    /// Segments a whole-block decode would have decoded.
    pub segments_full: u64,
    /// Stream bytes the partial op consumed (prefix + touched bodies).
    pub bytes: u64,
    /// Stream bytes a whole-block decode would have consumed.
    pub bytes_full: u64,
}

/// A completed partial block rewrite: the new block plus accounting.
pub(crate) struct PartialOp {
    pub block: CompressedBlock,
    pub stats: PartialStats,
    /// Time decoding touched segment bodies.
    pub decompress: Duration,
    /// Time in the in-place amplitude transform.
    pub compute: Duration,
    /// Time re-encoding and splicing the touched segments.
    pub compress: Duration,
}

/// The touched-amplitude set `{o | o & mask == value}` of a diagonal gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DiagTouch {
    pub mask: usize,
    pub value: usize,
}

/// The diagonal entries `(m00, m11)` of `gate`, or `None` when either
/// off-diagonal entry is nonzero.
pub(crate) fn diagonal_factors(gate: &Gate1) -> Option<(Complex64, Complex64)> {
    let m = &gate.m;
    (m[0][1] == Complex64::ZERO && m[1][0] == Complex64::ZERO).then(|| (m[0][0], m[1][1]))
}

/// Touched-amplitude set of a (controlled) diagonal gate on `offset_bit`
/// with in-block control mask `cmask`; `None` for non-diagonal gates.
///
/// A diagonal `[a 0; 0 d]` scales bit-clear amplitudes by `a` and bit-set
/// ones by `d`, so a unit factor shrinks the touched set by the target
/// bit on top of the control constraint.
pub(crate) fn diag_touch(gate: &Gate1, offset_bit: u32, cmask: usize) -> Option<DiagTouch> {
    let (a, d) = diagonal_factors(gate)?;
    let bit = 1usize << offset_bit;
    debug_assert_eq!(cmask & bit, 0, "control mask contains the target bit");
    Some(match (a == Complex64::ONE, d == Complex64::ONE) {
        // a == 1: only the bit-set half changes (covers identity too).
        (true, _) => DiagTouch {
            mask: cmask | bit,
            value: cmask | bit,
        },
        // d == 1: only the bit-clear half changes.
        (false, true) => DiagTouch {
            mask: cmask | bit,
            value: cmask,
        },
        // Both scale: every control-satisfying amplitude changes.
        (false, false) => DiagTouch {
            mask: cmask,
            value: cmask,
        },
    })
}

/// `log2` of the amplitudes per segment, when the stream's geometry
/// supports bit-mask segment routing (power-of-two segment size).
fn seg_amp_bits(index: &SegmentIndex) -> Option<u32> {
    let sv = index.seg_values;
    (sv >= 2 && sv.is_power_of_two()).then(|| sv.trailing_zeros() - 1)
}

/// The segments whose amplitude offsets can satisfy `touch`, or `None`
/// when the constraint has no bits at segment granularity (every segment
/// would qualify — the partial path has nothing to skip).
pub(crate) fn touched_segments(
    index: &SegmentIndex,
    sa_bits: u32,
    touch: DiagTouch,
) -> Option<Vec<usize>> {
    let hi_mask = touch.mask >> sa_bits;
    if hi_mask == 0 {
        return None;
    }
    let hi_value = touch.value >> sa_bits;
    Some(
        (0..index.n_segs())
            .filter(|s| s & hi_mask == hi_value)
            .collect(),
    )
}

/// Diagonal-gate update over a decoded segment holding the amplitudes at
/// global offsets `base .. base + buf.len() / 2`: the segment-restricted
/// form of [`qcs_statevec::kernels::apply_in_block`] for `[a 0; 0 d]`
/// matrices, factor-multiplying each control-satisfying amplitude.
pub(crate) fn apply_diagonal_at(
    buf: &mut [f64],
    base: usize,
    offset_bit: u32,
    gate: &Gate1,
    cmask: usize,
) {
    let (a, d) = diagonal_factors(gate).expect("diagonal gate");
    let bit = 1usize << offset_bit;
    for o in 0..buf.len() / 2 {
        let g = base + o;
        if g & cmask != cmask {
            continue;
        }
        let f = if g & bit != 0 { d } else { a };
        let v = f * Complex64::new(buf[2 * o], buf[2 * o + 1]);
        buf[2 * o] = v.re;
        buf[2 * o + 1] = v.im;
    }
}

/// A block's segment-addressable view: the codec that produced it, its
/// parsed index, and what a rewrite needs to put new bodies back.
struct SegView<'a> {
    codec: &'a BlockCodec,
    p: &'a dyn PartialCodec,
    blk: &'a CompressedBlock,
    index: SegmentIndex,
    /// `log2` of the amplitudes per segment.
    sa_bits: u32,
    bound: ErrorBound,
}

/// `blk`'s [`SegView`], when the whole partial pipeline applies: the
/// wave's bound is lossy (so the rewrite stays on the lossy codec), the
/// block was produced by a partial-capable codec, the stream is actually
/// segmented with more than one segment, and its geometry supports bit
/// routing. A segmented stream that covers another number of values than
/// the layout's `block_f64s` is corrupt — the same check
/// [`crate::worker::decode_block`] makes on a whole-block decode, made
/// here because a rewrite never decodes the whole block.
fn segmented_view<'a>(
    codec: &'a BlockCodec,
    block_f64s: usize,
    blk: &'a CompressedBlock,
    bound: ErrorBound,
) -> Result<Option<SegView<'a>>, CodecError> {
    if !bound.is_lossy() {
        return Ok(None);
    }
    let Some(p) = codec.partial_for(blk) else {
        return Ok(None);
    };
    let Some(index) = p.segment_index(&blk.bytes)? else {
        return Ok(None);
    };
    if index.n_values != block_f64s {
        return Err(wrong_length(index.n_values, block_f64s));
    }
    if index.n_segs() < 2 {
        return Ok(None);
    }
    let Some(sa_bits) = seg_amp_bits(&index) else {
        return Ok(None);
    };
    Ok(Some(SegView {
        codec,
        p,
        blk,
        index,
        sa_bits,
        bound,
    }))
}

impl SegView<'_> {
    /// Decode each segment in `segs`, run `transform` over it (with its
    /// base amplitude offset), and splice the re-encoded bodies back into
    /// the stream; segments in `zeroed` are replaced by all-zero bodies
    /// without being decoded. Segment scratch and the spliced output come
    /// from the codec's buffer pool, so a steady-state partial wave
    /// allocates nothing.
    fn rewrite(
        &self,
        segs: &[usize],
        zeroed: &[usize],
        mut transform: impl FnMut(usize, &mut [f64]),
    ) -> Result<PartialOp, CodecError> {
        let (codec, index, blk) = (self.codec, &self.index, self.blk);
        let t = Instant::now();
        let mut decoded: Vec<Vec<f64>> = Vec::with_capacity(segs.len());
        for &s in segs {
            let body = blk
                .bytes
                .get(index.byte_range(s))
                .ok_or_else(|| CodecError::Corrupt(format!("segment {s} body out of bounds")))?;
            let mut vals = codec.take_amp_buf();
            self.p.decompress_segment(index, s, body, &mut vals)?;
            decoded.push(vals);
        }
        let decompress = t.elapsed();

        let t = Instant::now();
        for (&s, vals) in segs.iter().zip(&mut decoded) {
            transform(s << self.sa_bits, vals);
        }
        let compute = t.elapsed();

        let t = Instant::now();
        let replace = segs
            .iter()
            .zip(&decoded)
            .map(|(&seg, values)| SegmentEdit::Replace { seg, values });
        let edits: Vec<SegmentEdit<'_>> = replace
            .chain(zeroed.iter().map(|&seg| SegmentEdit::Zero { seg }))
            .collect();
        let mut out = codec.take_byte_buf();
        let cap_before = out.capacity();
        self.p
            .recompress_segments_into(&blk.bytes, &edits, self.bound, &mut out)?;
        codec.note_growth(cap_before, out.capacity(), 1);
        let bytes: Arc<[u8]> = Arc::from(&out[..]);
        let compress = t.elapsed();
        drop(edits);
        codec.put_byte_buf(out);
        for vals in decoded {
            codec.put_amp_buf(vals);
        }

        Ok(PartialOp {
            block: CompressedBlock {
                codec: blk.codec,
                bound: self.bound,
                bytes,
            },
            stats: partial_stats(index, segs, blk.bytes.len()),
            decompress,
            compute,
            compress,
        })
    }
}

/// Stats for a partial op that decoded `segs` of a `stream_len`-byte
/// stream: the bytes consumed are the prefix plus the touched bodies.
fn partial_stats(index: &SegmentIndex, segs: &[usize], stream_len: usize) -> PartialStats {
    let body_bytes: usize = segs.iter().map(|&s| index.byte_range(s).len()).sum();
    PartialStats {
        segments: segs.len() as u64,
        segments_full: index.n_segs() as u64,
        bytes: (index.prefix_len() + body_bytes) as u64,
        bytes_full: stream_len as u64,
    }
}

/// Partial gate path, for a lone in-block gate (a one-plan list) and a
/// batch alike: when every plan firing on this block (per `mask`) is
/// diagonal and their touched segments together cover at most half the
/// stream, decode that union once and apply the firing plans in order.
/// `Ok(None)` when the block, stream, or a firing gate does not qualify.
pub(crate) fn partial_batch(
    codec: &BlockCodec,
    block_f64s: usize,
    blk: &CompressedBlock,
    plans: &[BatchPlan],
    mask: u64,
    bound: ErrorBound,
) -> Result<Option<PartialOp>, CodecError> {
    let Some(view) = segmented_view(codec, block_f64s, blk, bound)? else {
        return Ok(None);
    };
    let n_segs = view.index.n_segs();
    let mut touched = vec![false; n_segs];
    let mut firing: Vec<&BatchPlan> = Vec::new();
    for (i, plan) in plans.iter().enumerate() {
        if mask & (1 << i) == 0 {
            continue;
        }
        let Some(t) = diag_touch(&plan.gate, plan.offset_bit, plan.offset_cmask) else {
            return Ok(None);
        };
        let Some(segs) = touched_segments(&view.index, view.sa_bits, t) else {
            return Ok(None);
        };
        for s in segs {
            touched[s] = true;
        }
        firing.push(plan);
    }
    let segs: Vec<usize> = (0..n_segs).filter(|&s| touched[s]).collect();
    if segs.len() * 2 > n_segs {
        return Ok(None);
    }
    view.rewrite(&segs, &[], |base, vals| {
        for plan in &firing {
            apply_diagonal_at(vals, base, plan.offset_bit, &plan.gate, plan.offset_cmask);
        }
    })
    .map(Some)
}

/// Partial measurement collapse: when the measured offset bit sits at or
/// above segment granularity, each segment is either wholly kept (decode
/// and rescale) or wholly projected out (a [`SegmentEdit::Zero`] that
/// never decodes the body).
pub(crate) fn partial_collapse(
    codec: &BlockCodec,
    block_f64s: usize,
    blk: &CompressedBlock,
    offset_bit: u32,
    outcome: bool,
    scale: f64,
    bound: ErrorBound,
) -> Result<Option<PartialOp>, CodecError> {
    let Some(view) = segmented_view(codec, block_f64s, blk, bound)? else {
        return Ok(None);
    };
    if offset_bit < view.sa_bits {
        return Ok(None);
    }
    let bit = 1usize << offset_bit;
    let (kept, zeroed): (Vec<usize>, Vec<usize>) =
        (0..view.index.n_segs()).partition(|&s| ((s << view.sa_bits) & bit != 0) == outcome);
    view.rewrite(&kept, &zeroed, |_, vals| {
        vals.iter_mut().for_each(|v| *v *= scale)
    })
    .map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcs_compress::CodecId;
    use qcs_statevec::kernels;

    const BOUND: ErrorBound = ErrorBound::PointwiseRelative(1e-6);

    /// 2048 amplitudes (4096 f64s): four default-size segments, sa_bits 9.
    fn amps() -> Vec<f64> {
        (0..4096)
            .map(|i| ((i as f64 * 0.37).sin() + 1.5) * 1e-3)
            .collect()
    }

    fn codec() -> BlockCodec {
        BlockCodec::new(CodecId::SolutionC)
    }

    /// A lone gate on `blk` through the batch path: a one-plan list.
    fn one_plan_batch(
        codec: &BlockCodec,
        blk: &CompressedBlock,
        gate: &Gate1,
        offset_bit: u32,
        cmask: usize,
        bound: ErrorBound,
    ) -> Result<Option<PartialOp>, CodecError> {
        let plan = BatchPlan {
            gate: *gate,
            offset_bit,
            offset_cmask: cmask,
            block_cmask: 0,
            rank_cmask: 0,
        };
        partial_batch(codec, 4096, blk, &[plan], 1, bound)
    }

    #[test]
    fn diag_touch_shapes() {
        let bit = 1usize << 10;
        let cm = 1usize << 11;
        // Phase-like gate: a == 1, only the bit-set half moves.
        let t = diag_touch(&Gate1::t(), 10, cm).unwrap();
        assert_eq!(
            t,
            DiagTouch {
                mask: cm | bit,
                value: cm | bit
            }
        );
        // rz scales both halves: only the controls constrain.
        let t = diag_touch(&Gate1::rz(0.3), 10, cm).unwrap();
        assert_eq!(
            t,
            DiagTouch {
                mask: cm,
                value: cm
            }
        );
        // Non-diagonal gates never qualify.
        assert!(diag_touch(&Gate1::h(), 10, cm).is_none());
        assert!(diag_touch(&Gate1::x(), 10, 0).is_none());
    }

    #[test]
    fn touched_segments_follow_high_bits() {
        let bc = codec();
        let blk = bc.compress(&amps(), BOUND).unwrap();
        let p = bc.partial_for(&blk).unwrap();
        let index = p.segment_index(&blk.bytes).unwrap().unwrap();
        let sa_bits = seg_amp_bits(&index).unwrap();
        assert_eq!(sa_bits, 9);
        assert_eq!(index.n_segs(), 4);
        // Target bit 10 = segment bit 1: T touches segments {2, 3}.
        let t = diag_touch(&Gate1::t(), 10, 0).unwrap();
        assert_eq!(touched_segments(&index, sa_bits, t).unwrap(), vec![2, 3]);
        // A low target bit constrains no segment: partial declines.
        let t = diag_touch(&Gate1::t(), 3, 0).unwrap();
        assert!(touched_segments(&index, sa_bits, t).is_none());
    }

    #[test]
    fn partial_gate_matches_whole_block_kernel() {
        let bc = codec();
        let data = amps();
        let blk = bc.compress(&data, BOUND).unwrap();
        for (gate, cmask) in [
            (Gate1::t(), 0usize),
            (Gate1::rz(0.71), 1 << 11),
            (Gate1::phase(-0.4), (1 << 10) | (1 << 2)),
        ] {
            let offset_bit = 9;
            let op = one_plan_batch(&bc, &blk, &gate, offset_bit, cmask, BOUND)
                .unwrap()
                .expect("qualifies");
            assert!(op.stats.segments * 2 <= op.stats.segments_full);
            assert!(op.stats.bytes < op.stats.bytes_full);

            let mut full = Vec::new();
            bc.decompress(&blk, &mut full).unwrap();
            kernels::apply_in_block(&mut full, offset_bit, &gate, cmask);
            let want = bc.compress(&full, BOUND).unwrap();
            let mut got = Vec::new();
            bc.decompress(&op.block, &mut got).unwrap();
            let mut expect = Vec::new();
            bc.decompress(&want, &mut expect).unwrap();
            assert_eq!(got.len(), expect.len());
            for (a, b) in got.iter().zip(&expect) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn partial_gate_declines_low_bits_and_lossless() {
        let bc = codec();
        let blk = bc.compress(&amps(), BOUND).unwrap();
        // Uncontrolled rz touches everything: no segment constraint.
        assert!(one_plan_batch(&bc, &blk, &Gate1::rz(0.2), 3, 0, BOUND)
            .unwrap()
            .is_none());
        // A lossless wave must switch codec: partial declines.
        assert!(
            one_plan_batch(&bc, &blk, &Gate1::t(), 10, 0, ErrorBound::Lossless)
                .unwrap()
                .is_none()
        );
        // Lossless (Qzstd) blocks are not partial-addressable.
        let blk = bc.compress(&amps(), ErrorBound::Lossless).unwrap();
        assert!(one_plan_batch(&bc, &blk, &Gate1::t(), 10, 0, BOUND)
            .unwrap()
            .is_none());
    }

    #[test]
    fn partial_collapse_matches_whole_block_path() {
        let bc = codec();
        let data = amps();
        let blk = bc.compress(&data, BOUND).unwrap();
        let (offset_bit, scale) = (10u32, 1.25f64);
        for outcome in [false, true] {
            let op = partial_collapse(&bc, 4096, &blk, offset_bit, outcome, scale, BOUND)
                .unwrap()
                .expect("qualifies");
            assert_eq!(op.stats.segments * 2, op.stats.segments_full);

            let mut full = Vec::new();
            bc.decompress(&blk, &mut full).unwrap();
            let bit = 1usize << offset_bit;
            for o in 0..full.len() / 2 {
                if (o & bit != 0) == outcome {
                    full[2 * o] *= scale;
                    full[2 * o + 1] *= scale;
                } else {
                    full[2 * o] = 0.0;
                    full[2 * o + 1] = 0.0;
                }
            }
            let want = bc.compress(&full, BOUND).unwrap();
            let mut got = Vec::new();
            bc.decompress(&op.block, &mut got).unwrap();
            let mut expect = Vec::new();
            bc.decompress(&want, &mut expect).unwrap();
            for (i, (a, b)) in got.iter().zip(&expect).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "value {i} (outcome {outcome})");
            }
        }
        // A bit below segment granularity splits segments: declines.
        assert!(partial_collapse(&bc, 4096, &blk, 3, true, scale, BOUND)
            .unwrap()
            .is_none());
    }
}
