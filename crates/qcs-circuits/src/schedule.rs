//! Circuit-level batch scheduler: single-qubit gate fusion and intra-block
//! gate batching.
//!
//! In the compressed-block simulator the dominant per-gate cost is the
//! decompress → compute → recompress cycle (paper Table 2: the compression
//! and decompression rows dwarf computation). Three circuit-level rewrites
//! amortize that cycle without changing the simulated state:
//!
//! 1. **Fusion** — a run of consecutive uncontrolled gates (an
//!    [`Op::Gate`] with empty `controls`) on the same qubit collapses into
//!    one [`FusedGate`] whose matrix is the product of the run
//!    (`G_k ... G_2 G_1`). `k` gates then cost one cycle instead of `k`.
//! 2. **Batching** — consecutive gates whose *targets* all route to the
//!    intra-block case of §3.3 (target qubit below `block_log2`) share the
//!    same block-touch pattern: every block is touched exactly once, with
//!    no data flow between blocks. Such runs group into a [`GateBatch`] so
//!    the engine decompresses each block once per batch and applies every
//!    batched gate to the scratch buffer before recompressing.
//! 3. **Per-block phases** — a controlled `diag(1, λ)` gate (CZ, CPhase,
//!    multi-controlled Z, a controlled T or S) whose qubits all sit at or
//!    above `block_log2` needs no partner amplitude: it multiplies every
//!    block whose high bits are all set by `λ`. The scheduler rewrites it
//!    as `λ·I` on in-block qubit 0, controlled by every original qubit, so
//!    it joins the batch on either side of it instead of running its own
//!    inter-block pair wave or rank exchange. A `diag(d0, d1)` with
//!    `d0 ≠ 1` (Rz) is not rewritten, and neither is an uncontrolled
//!    phase (T, S, Z on one qubit): whether a single-qubit gate or fused
//!    run is `diag(1, λ)` depends on the gate values, so rewriting it would
//!    make the wave count, and with it the Eq. 11 fidelity ledger (one
//!    `δ` per wave), differ between circuits of one shape (the seeds of a
//!    random circuit, the angles of a variational one). Whether a
//!    controlled gate is a phase is fixed by its kind.
//!
//! The scheduler is strictly order-preserving: every [`ScheduledOp`] covers
//! a contiguous range of source-op indices and the ranges partition
//! `0..circuit.gate_count()` in order. Fusion therefore never commutes a
//! gate across a two-qubit, controlled, swap, or measurement operation —
//! the invariant the property suite in `tests/prop_fusion.rs` pins down.
//!
//! Because the schedule fixes the execution order, it also fixes *which
//! blocks* every wave will touch once a block geometry is chosen: an
//! [`AccessPlan`] lists, per wave and per rank, the ordered block slots
//! ahead of execution, read off the same `qcs_cluster::Layout` slot
//! functions the engine's wave walker executes. The engine does not read
//! the plan at run time: each wave announces its own slots to its rank's
//! store, one wave at a time. The plan is the whole-schedule view of
//! those announcements, for tools that replay a schedule's store traffic
//! and for the engine's test that pins the two against each other.

use crate::circuit::{Circuit, Op};
use qcs_cluster::{Layout, Route};
use qcs_statevec::{BatchGate, Complex64, Gate1, StateVector};

/// Upper limit on gates per batch: the engine tracks which batch members
/// apply to a given block in a 64-bit selection mask.
pub const MAX_BATCH_GATES: usize = 64;

/// How the scheduler rewrites a circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusionPolicy {
    /// Apply the three rewrites of the module docs: fuse single-qubit
    /// runs, batch up to [`MAX_BATCH_GATES`] consecutive in-block gates,
    /// and re-orient each controlled `diag(1, e^{i theta})` gate onto its
    /// lowest qubit (or, with every qubit at or above `block_log2 >= 1`,
    /// onto in-block qubit 0 as a per-block phase). Off, every gate is its
    /// own item, as written: the paper's one-cycle-per-gate pipeline.
    pub enabled: bool,
    /// `log2` of amplitudes per block: targets below this bit route
    /// intra-block and are eligible for batching.
    pub block_log2: u32,
}

impl FusionPolicy {
    /// Every rewrite on, for a given block size.
    pub fn for_block(block_log2: u32) -> Self {
        Self {
            enabled: true,
            block_log2,
        }
    }
}

/// True for matrices of the form `diag(1, lambda)` (bit-exact check): the
/// controlled gate then acts as a phase on the all-ones subspace, making
/// control and target roles interchangeable.
fn is_diagonal_phase(g: &Gate1) -> bool {
    g.m[0][0] == Complex64::ONE && g.m[0][1] == Complex64::ZERO && g.m[1][0] == Complex64::ZERO
}

/// Re-orient a controlled diagonal-phase gate onto its lowest qubit (a
/// no-op for other gates). Lower targets route cheaper: intra-block beats
/// inter-block beats inter-rank.
///
/// Total over every [`BatchGate`]: a gate with an empty controls list
/// (legal at construction — it degrades to the bare single-qubit gate)
/// has nothing to re-orient and passes through untouched.
fn retarget_diagonal(op: &mut BatchGate) {
    if !is_diagonal_phase(&op.gate) {
        return;
    }
    let lowest = match op.controls.iter().copied().min() {
        Some(c) => c.min(op.target),
        None => return,
    };
    if lowest == op.target {
        return;
    }
    for c in op.controls.iter_mut() {
        if *c == lowest {
            *c = op.target;
        }
    }
    op.target = lowest;
    op.controls.sort_unstable();
}

/// Rewrite a controlled `diag(1, lambda)` gate whose qubits all sit at or
/// above the block split as `lambda * I` on in-block qubit 0, controlled by
/// every original qubit (a no-op for other gates, for a gate without
/// controls, and when `block_log2 == 0` leaves no in-block qubit).
///
/// Such a gate needs no partner amplitude: it scales every block whose
/// high bits are all set by `lambda` and leaves the other blocks alone. The
/// rewritten form routes in-block, so it joins the batch on either side of
/// it instead of running its own inter-block pair wave or rank exchange.
fn retarget_per_block(op: &mut BatchGate, block_log2: u32) {
    let lowest = op.controls.iter().fold(op.target, |lo, &c| lo.min(c));
    if op.controls.is_empty()
        || block_log2 == 0
        || (lowest as u32) < block_log2
        || !is_diagonal_phase(&op.gate)
    {
        return;
    }
    let lambda = op.gate.m[1][1];
    op.gate = Gate1::new(lambda, Complex64::ZERO, Complex64::ZERO, lambda);
    op.controls.push(op.target);
    op.controls.sort_unstable();
    op.target = 0;
}

/// One (possibly fused) controlled single-qubit unitary plus the source
/// range it covers.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedGate {
    /// Matrix, controls and target in the form batched appliers consume.
    pub op: BatchGate,
    /// Index of the first source op covered by this gate.
    pub src_start: usize,
    /// Number of consecutive source ops covered (1 for unfused gates).
    pub src_len: usize,
}

impl FusedGate {
    /// Number of source gates folded into this one.
    pub fn fused_count(&self) -> usize {
        self.src_len
    }
}

/// A group of consecutive intra-block gates the engine applies with one
/// decompress/recompress cycle per block.
#[derive(Debug, Clone, PartialEq)]
pub struct GateBatch {
    gates: Vec<FusedGate>,
}

impl GateBatch {
    fn new(gates: Vec<FusedGate>) -> Self {
        debug_assert!(!gates.is_empty() && gates.len() <= MAX_BATCH_GATES);
        Self { gates }
    }

    /// The batched gates, in program order.
    pub fn gates(&self) -> &[FusedGate] {
        &self.gates
    }

    /// Number of (fused) gates in the batch.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// True when the batch holds no gates (never produced by the scheduler).
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Total source ops covered by the batch.
    pub fn source_gate_count(&self) -> usize {
        self.gates.iter().map(|g| g.src_len).sum()
    }
}

/// One step of a scheduled circuit.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduledOp {
    /// Two or more intra-block gates sharing one block-touch per block.
    Batch(GateBatch),
    /// A single (possibly fused) unitary applied on its own — its target
    /// routes inter-block/inter-rank, or no neighbor was batchable.
    Gate(FusedGate),
    /// An op the scheduler leaves untouched (swap, measurement).
    Bare {
        /// The source operation.
        op: Op,
        /// Its index in the source circuit.
        src: usize,
    },
}

impl ScheduledOp {
    /// Source-op index range `(start, len)` covered by this step.
    pub fn src_range(&self) -> (usize, usize) {
        match self {
            ScheduledOp::Batch(b) => {
                let first = &b.gates[0];
                (first.src_start, b.source_gate_count())
            }
            ScheduledOp::Gate(g) => (g.src_start, g.src_len),
            ScheduledOp::Bare { src, .. } => (*src, 1),
        }
    }
}

/// Aggregate statistics of a scheduling pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScheduleStats {
    /// Ops in the source circuit.
    pub source_ops: usize,
    /// Unitaries after fusion (each covers >= 1 source ops).
    pub fused_gates: usize,
    /// Source gates eliminated by fusion (`source unitaries - fused_gates`).
    pub fusion_savings: usize,
    /// Number of [`GateBatch`]es emitted.
    pub batches: usize,
    /// Fused gates living inside batches.
    pub batched_gates: usize,
    /// Ops passed through unscheduled (swaps, measurements).
    pub bare_ops: usize,
    /// Largest batch emitted.
    pub max_batch_len: usize,
}

/// A scheduled circuit: an ordered list of [`ScheduledOp`]s equivalent to
/// the source circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    num_qubits: usize,
    items: Vec<ScheduledOp>,
    stats: ScheduleStats,
}

impl Schedule {
    /// Qubit count of the source circuit.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Scheduled steps in program order.
    pub fn items(&self) -> &[ScheduledOp] {
        &self.items
    }

    /// Scheduling statistics.
    pub fn stats(&self) -> ScheduleStats {
        self.stats
    }

    /// Execute on a dense state vector (the ground-truth replay used by the
    /// differential and property tests). `rng` drives measurements.
    pub fn run_dense(&self, state: &mut StateVector, rng: &mut impl rand::Rng) {
        assert_eq!(state.num_qubits(), self.num_qubits);
        for item in &self.items {
            match item {
                ScheduledOp::Batch(b) => {
                    for g in b.gates() {
                        apply_dense(&g.op, state);
                    }
                }
                ScheduledOp::Gate(g) => apply_dense(&g.op, state),
                ScheduledOp::Bare { op, .. } => match op {
                    Op::Swap { a, b } => state.apply_swap(*a, *b),
                    Op::Measure { target } => {
                        state.measure(*target, rng);
                    }
                    _ => unreachable!("unitaries are never scheduled bare"),
                },
            }
        }
    }

    /// Convenience: run from `|0...0>` and return the final state.
    pub fn simulate_dense(&self, rng: &mut impl rand::Rng) -> StateVector {
        let mut s = StateVector::zero_state(self.num_qubits);
        self.run_dense(&mut s, rng);
        s
    }
}

fn apply_dense(g: &BatchGate, state: &mut StateVector) {
    state.apply_batch(std::slice::from_ref(g));
}

/// Intermediate item between the fusion and batching passes.
enum PreItem {
    Gate(FusedGate),
    Other(Op, usize),
}

/// Schedule a circuit under `policy`: fuse single-qubit runs, then group
/// consecutive intra-block gates into batches.
pub fn schedule_circuit(circuit: &Circuit, policy: &FusionPolicy) -> Schedule {
    let mut pre: Vec<PreItem> = Vec::with_capacity(circuit.gate_count());
    let mut pending: Option<FusedGate> = None;
    let mut source_unitaries = 0usize;

    let flush = |pending: &mut Option<FusedGate>, pre: &mut Vec<PreItem>| {
        if let Some(g) = pending.take() {
            pre.push(PreItem::Gate(g));
        }
    };

    for (i, op) in circuit.ops().iter().enumerate() {
        let Op::Gate {
            gate,
            controls,
            target,
        } = op
        else {
            flush(&mut pending, &mut pre);
            pre.push(PreItem::Other(op.clone(), i));
            continue;
        };
        source_unitaries += 1;
        if controls.is_empty() {
            match &mut pending {
                Some(run) if policy.enabled && run.op.target == *target => {
                    // Later gate multiplies from the left: |s'> = G2 G1 |s>.
                    run.op.gate = gate.matrix().matmul(&run.op.gate);
                    run.src_len += 1;
                }
                _ => {
                    flush(&mut pending, &mut pre);
                    pending = Some(FusedGate {
                        op: BatchGate::new(gate.matrix(), *target),
                        src_start: i,
                        src_len: 1,
                    });
                }
            }
            continue;
        }
        flush(&mut pending, &mut pre);
        let mut bg = BatchGate::controlled(gate.matrix(), controls.clone(), *target);
        if policy.enabled {
            retarget_diagonal(&mut bg);
            retarget_per_block(&mut bg, policy.block_log2);
        }
        pre.push(PreItem::Gate(FusedGate {
            op: bg,
            src_start: i,
            src_len: 1,
        }));
    }
    flush(&mut pending, &mut pre);

    // Batching pass: group consecutive intra-block gates.
    let mut items: Vec<ScheduledOp> = Vec::with_capacity(pre.len());
    let mut stats = ScheduleStats {
        source_ops: circuit.gate_count(),
        ..ScheduleStats::default()
    };
    let mut run: Vec<FusedGate> = Vec::new();
    let close_run =
        |run: &mut Vec<FusedGate>, items: &mut Vec<ScheduledOp>, stats: &mut ScheduleStats| {
            match run.len() {
                0 => {}
                1 => items.push(ScheduledOp::Gate(run.pop().expect("len 1"))),
                n => {
                    stats.batches += 1;
                    stats.batched_gates += n;
                    stats.max_batch_len = stats.max_batch_len.max(n);
                    items.push(ScheduledOp::Batch(GateBatch::new(std::mem::take(run))));
                }
            }
        };

    for item in pre {
        match item {
            PreItem::Gate(g) => {
                stats.fused_gates += 1;
                if (g.op.target as u32) < policy.block_log2 && policy.enabled {
                    if run.len() >= MAX_BATCH_GATES {
                        close_run(&mut run, &mut items, &mut stats);
                    }
                    run.push(g);
                } else {
                    close_run(&mut run, &mut items, &mut stats);
                    items.push(ScheduledOp::Gate(g));
                }
            }
            PreItem::Other(op, src) => {
                close_run(&mut run, &mut items, &mut stats);
                stats.bare_ops += 1;
                items.push(ScheduledOp::Bare { op, src });
            }
        }
    }
    close_run(&mut run, &mut items, &mut stats);
    stats.fusion_savings = source_unitaries - stats.fused_gates;

    Schedule {
        num_qubits: circuit.num_qubits(),
        items,
        stats,
    }
}

// ---------------------------------------------------------------------------
// Access planning
// ---------------------------------------------------------------------------

/// The ordered local block slots one wave touches on each rank.
///
/// `per_rank[r]` lists the block slots rank `r`'s wave loop reads, in the
/// exact order the engine's rank worker takes (or peeks) them: ascending
/// block index for in-block and batch waves, interleaved `[b, b|stride]`
/// pairs for inter-block waves, and the selected-block list (shared by the
/// leader and the follower of each rank pair) for inter-rank exchanges.
/// Ranks deselected by a rank-scope control get an empty list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaveAccess {
    /// Ordered block slots per rank (index = rank).
    pub per_rank: Vec<Vec<usize>>,
}

/// A schedule's block-access plan: for every wave of every scheduled item,
/// the ordered set of block slots each rank will touch.
///
/// Because a [`Schedule`] fixes the gate order and the block geometry
/// fixes §3.3 routing, the blocks every wave touches are known *before
/// execution* — the fact the out-of-core tier exploits inside each wave:
/// a wave announces its slots, and the store streams the wave's next
/// chunk off disk while the current chunk computes. Most items expand to
/// exactly one wave; a bare `Swap`
/// expands to its three controlled-X waves and a bare `Measure` to its
/// probability-reduce (peek) wave followed by its collapse wave.
///
/// Every wave's slots come from the `qcs_cluster::Layout` slot functions
/// the engine's rank workers build their unit lists with, so the plan is
/// exact, not speculative; what is planned here alone is the item → wave
/// expansion, which the engine's property suite pins against the accesses
/// an instrumented block store observes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessPlan {
    per_item: Vec<Vec<WaveAccess>>,
    ranks: usize,
}

/// Access of one (possibly controlled) single-qubit gate wave: the
/// slots the walker's unit list for the gate's route holds on each rank.
fn gate_wave(layout: &Layout, target: usize, controls: &[usize]) -> WaveAccess {
    let (_, bcm, rcm) = layout.control_masks(controls);
    let mut per_rank = vec![Vec::new(); layout.ranks()];
    match layout.route(target as u32) {
        // A lone in-block gate runs as a batch of one.
        Route::InBlock { .. } => return batch_wave(layout, &[(bcm, rcm)]),
        Route::InterBlock { block_stride } => {
            let mut pairs = Vec::new();
            layout
                .block_pairs(block_stride, bcm)
                .for_each(|pair| pairs.extend(pair));
            let selected = (0..layout.ranks()).filter(|r| r & rcm == rcm);
            selected.for_each(|r| per_rank[r].clone_from(&pairs));
        }
        // The leader and the follower of each rank pair walk the same
        // selected-block list.
        Route::InterRank { rank_stride } => {
            let sel: Vec<usize> = layout.selected_blocks(bcm).collect();
            for pair in layout.rank_pairs(rank_stride, rcm) {
                pair.iter().for_each(|&r| per_rank[r].clone_from(&sel));
            }
        }
    }
    WaveAccess { per_rank }
}

/// Access of a batch wave whose member gates carry `(block_cmask,
/// rank_cmask)` pairs `masks`: each rank touches, in ascending order,
/// every block at least one member selects.
fn batch_wave(layout: &Layout, masks: &[(usize, usize)]) -> WaveAccess {
    let per_rank = (0..layout.ranks())
        .map(|r| {
            layout
                .batch_units(r, masks)
                .into_iter()
                .map(|(b, _)| b)
                .collect()
        })
        .collect();
    WaveAccess { per_rank }
}

/// The waves one scheduled item expands into, in execution order.
fn item_waves(layout: &Layout, item: &ScheduledOp) -> Vec<WaveAccess> {
    match item {
        ScheduledOp::Batch(b) => {
            let masks: Vec<(usize, usize)> = b
                .gates()
                .iter()
                .map(|g| {
                    let (_, bcm, rcm) = layout.control_masks(&g.op.controls);
                    (bcm, rcm)
                })
                .collect();
            vec![batch_wave(layout, &masks)]
        }
        ScheduledOp::Gate(g) => vec![gate_wave(layout, g.op.target, &g.op.controls)],
        ScheduledOp::Bare { op, .. } => match op {
            // The engine decomposes SWAP into three controlled-X waves:
            // CX(a,b); CX(b,a); CX(a,b).
            Op::Swap { a, b } => vec![
                gate_wave(layout, *b, &[*a]),
                gate_wave(layout, *a, &[*b]),
                gate_wave(layout, *b, &[*a]),
            ],
            // Measurement is a probability sum-reduce (peek of every
            // block) followed by a collapse rewrite of every block,
            // whatever the outcome.
            Op::Measure { .. } => {
                let all = WaveAccess {
                    per_rank: vec![layout.selected_blocks(0).collect(); layout.ranks()],
                };
                vec![all.clone(), all]
            }
            _ => unreachable!("unitaries are never scheduled bare"),
        },
    }
}

impl AccessPlan {
    /// Plan the block accesses of every wave of `schedule` under the given
    /// block geometry (`2^ranks_log2` ranks, `2^block_log2` amplitudes per
    /// block — the same exponents as the engine's `SimConfig`).
    ///
    /// # Panics
    ///
    /// Panics when the geometry does not fit the schedule's qubit count
    /// (`num_qubits < ranks_log2 + block_log2`).
    pub fn for_schedule(schedule: &Schedule, ranks_log2: u32, block_log2: u32) -> Self {
        let layout = Layout::new(schedule.num_qubits() as u32, ranks_log2, block_log2);
        let per_item = schedule
            .items()
            .iter()
            .map(|item| item_waves(&layout, item))
            .collect();
        Self {
            per_item,
            ranks: layout.ranks(),
        }
    }

    /// Number of scheduled items covered (equal to `schedule.items().len()`).
    pub fn len(&self) -> usize {
        self.per_item.len()
    }

    /// True when the schedule had no items.
    pub fn is_empty(&self) -> bool {
        self.per_item.is_empty()
    }

    /// Rank count the plan was built for.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// The waves of scheduled item `item`, in execution order.
    pub fn item_waves(&self, item: usize) -> &[WaveAccess] {
        &self.per_item[item]
    }

    /// Rank `rank`'s planned accesses from scheduled item `from_item`
    /// onward, flattened across waves in execution order — the exact
    /// future-reference trace a Belady (MIN) eviction policy consumes.
    pub fn rank_access_order(&self, rank: usize, from_item: usize) -> Vec<usize> {
        self.per_item[from_item.min(self.per_item.len())..]
            .iter()
            .flatten()
            .flat_map(|w| w.per_rank.get(rank).map(|v| v.as_slice()).unwrap_or(&[]))
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fidelity(a: &StateVector, b: &StateVector) -> f64 {
        a.fidelity(b)
    }

    #[test]
    fn fuses_consecutive_singles_on_same_qubit() {
        let mut c = Circuit::new(3);
        c.h(0).t(0).sx(0).h(1);
        let s = schedule_circuit(&c, &FusionPolicy::for_block(0));
        // H;T;SX on q0 fuse into one gate; H on q1 stays separate.
        assert_eq!(s.stats().fused_gates, 2);
        assert_eq!(s.stats().fusion_savings, 2);
        let g = match &s.items()[0] {
            ScheduledOp::Gate(g) => g,
            other => panic!("expected gate, got {other:?}"),
        };
        assert_eq!(g.fused_count(), 3);
        assert!(g.op.gate.is_unitary(1e-12));
    }

    #[test]
    fn fusion_respects_intervening_ops() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).t(0);
        let s = schedule_circuit(&c, &FusionPolicy::for_block(0));
        // CX on qubit 0 blocks the H/T fusion.
        assert_eq!(s.stats().fused_gates, 3);
        assert_eq!(s.stats().fusion_savings, 0);
    }

    #[test]
    fn batches_intra_block_runs() {
        // block_log2 = 2: qubits 0-1 are intra-block.
        let mut c = Circuit::new(4);
        c.h(0).t(1).cx(0, 1).h(3).h(0);
        let s = schedule_circuit(&c, &FusionPolicy::for_block(2));
        // [h0, t1, cx(0,1)] batch; h3 alone (out of block); h0 alone.
        let kinds: Vec<&str> = s
            .items()
            .iter()
            .map(|i| match i {
                ScheduledOp::Batch(_) => "batch",
                ScheduledOp::Gate(_) => "gate",
                ScheduledOp::Bare { .. } => "bare",
            })
            .collect();
        assert_eq!(kinds, ["batch", "gate", "gate"]);
        let b = match &s.items()[0] {
            ScheduledOp::Batch(b) => b,
            _ => unreachable!(),
        };
        assert_eq!(b.len(), 3);
        assert_eq!(s.stats().batches, 1);
        assert_eq!(s.stats().max_batch_len, 3);
    }

    #[test]
    fn batch_cap_splits_long_runs() {
        let mut c = Circuit::new(3);
        for i in 0..=MAX_BATCH_GATES {
            // Alternate qubits so fusion cannot collapse the run.
            c.rz(0.1 * i as f64, i % 2);
        }
        let s = schedule_circuit(&c, &FusionPolicy::for_block(2));
        match s.items() {
            [ScheduledOp::Batch(b), ScheduledOp::Gate(g)] => {
                assert_eq!(b.len(), MAX_BATCH_GATES);
                assert_eq!(g.src_start, MAX_BATCH_GATES);
            }
            other => panic!("expected a full batch and one gate, got {other:?}"),
        }
        assert_eq!(s.stats().max_batch_len, MAX_BATCH_GATES);
    }

    #[test]
    fn source_ranges_partition_the_circuit() {
        let mut c = Circuit::new(4);
        c.h(0).t(0).cx(0, 2).swap(1, 3).x(1).y(1).measure(0).h(2);
        let s = schedule_circuit(&c, &FusionPolicy::for_block(2));
        let mut next = 0usize;
        for item in s.items() {
            let (start, len) = item.src_range();
            assert_eq!(start, next, "gap or reorder at {item:?}");
            next = start + len;
        }
        assert_eq!(next, c.gate_count());
    }

    #[test]
    fn scheduled_replay_matches_direct_execution() {
        let mut c = Circuit::new(5);
        c.h(0).t(0).h(1).cx(0, 3).rz(0.3, 3).rz(0.4, 3).ccx(0, 1, 4);
        c.swap(2, 4).sx(2).sy(2).cphase(0.9, 1, 2);
        for block_log2 in [0u32, 2, 5] {
            let s = schedule_circuit(&c, &FusionPolicy::for_block(block_log2));
            let mut rng1 = StdRng::seed_from_u64(7);
            let mut rng2 = StdRng::seed_from_u64(7);
            let direct = c.simulate_dense(&mut rng1);
            let scheduled = s.simulate_dense(&mut rng2);
            assert!(
                fidelity(&direct, &scheduled) > 1.0 - 1e-12,
                "block_log2={block_log2}"
            );
        }
    }

    /// Every (possibly fused) unitary of `s`, in program order.
    fn emitted(s: &Schedule) -> Vec<&FusedGate> {
        s.items()
            .iter()
            .flat_map(|i| match i {
                ScheduledOp::Batch(b) => b.gates().iter().collect::<Vec<_>>(),
                ScheduledOp::Gate(g) => vec![g],
                ScheduledOp::Bare { .. } => vec![],
            })
            .collect()
    }

    fn targets_and_controls(s: &Schedule) -> Vec<(usize, Vec<usize>)> {
        emitted(s)
            .iter()
            .map(|g| (g.op.target, g.op.controls.clone()))
            .collect()
    }

    #[test]
    fn diagonal_controlled_gates_retarget_to_lowest_qubit() {
        use qcs_statevec::GateKind;
        let mut c = Circuit::new(8);
        c.cphase(0.7, 1, 6); // symmetric: should re-orient onto qubit 1
        c.cz(7, 2); // symmetric: onto qubit 2
        c.cx(5, 0); // X is not diagonal: must keep target 0 / control 5
        c.push(Op::Gate {
            gate: GateKind::Rz(0.4), // diag but m00 != 1: not symmetric
            controls: vec![6],
            target: 3,
        });
        c.mcz(&[4, 6], 7); // multi-controlled Z above the block: a per-block -1
        let s = schedule_circuit(&c, &FusionPolicy::for_block(3));
        let gates = emitted(&s);
        assert_eq!(
            targets_and_controls(&s),
            vec![
                (1, vec![6]),
                (2, vec![7]),
                (0, vec![5]),
                (3, vec![6]),
                (0, vec![4, 6, 7]),
            ]
        );
        let minus_one = -Complex64::ONE;
        let minus_i = Gate1::new(minus_one, Complex64::ZERO, Complex64::ZERO, minus_one);
        assert_eq!(gates[4].op.gate, minus_i);
        // Retargeted circuits stay observationally identical.
        let mut rng1 = StdRng::seed_from_u64(0);
        let mut rng2 = StdRng::seed_from_u64(0);
        let direct = {
            let mut st = StateVector::zero_state(8);
            for q in 0..8 {
                st.apply_gate(&Gate1::h(), q);
            }
            c.run_dense(&mut st, &mut rng1);
            st
        };
        let scheduled = {
            let mut st = StateVector::zero_state(8);
            for q in 0..8 {
                st.apply_gate(&Gate1::h(), q);
            }
            s.run_dense(&mut st, &mut rng2);
            st
        };
        assert!(fidelity(&direct, &scheduled) > 1.0 - 1e-12);
    }

    #[test]
    fn per_block_phases_become_scalars_on_qubit_zero() {
        use qcs_statevec::GateKind;
        // n = 6, block_log2 = 2: qubits 2..5 sit above the block split.
        let mut c = Circuit::new(6);
        let controlled = |gate, control, target| Op::Gate {
            gate,
            controls: vec![control],
            target,
        };
        c.push(controlled(GateKind::T, 3, 5));
        c.push(controlled(GateKind::S, 2, 4));
        c.cz(5, 3).cphase(0.7, 4, 2).mcz(&[2, 5], 4);
        // Uncontrolled phases keep their pair wave, as do gates that are
        // not diag(1, lambda).
        c.t(3);
        c.push(Op::Gate {
            gate: GateKind::S,
            controls: vec![],
            target: 4,
        });
        c.z(5);
        c.t(2).t(2); // a fused T·T run
        c.rz(0.3, 3).h(4).x(5);
        c.push(controlled(GateKind::Rz(0.4), 5, 4));

        let t = Gate1::t().m[1][1];
        let s_phase = GateKind::S.matrix().m[1][1];
        let minus_one = GateKind::Z.matrix().m[1][1];
        let cphase = GateKind::Phase(0.7).matrix().m[1][1];
        let scalars = [
            (vec![3, 5], t),
            (vec![2, 4], s_phase),
            (vec![3, 5], minus_one),
            (vec![2, 4], cphase),
            (vec![2, 4, 5], minus_one),
        ];
        let s = schedule_circuit(&c, &FusionPolicy::for_block(2));
        let gates = emitted(&s);
        let untouched = [
            (Gate1::t(), 3, vec![]),
            (GateKind::S.matrix(), 4, vec![]),
            (GateKind::Z.matrix(), 5, vec![]),
            (Gate1::t().matmul(&Gate1::t()), 2, vec![]),
            (GateKind::Rz(0.3).matrix(), 3, vec![]),
            (Gate1::h(), 4, vec![]),
            (GateKind::X.matrix(), 5, vec![]),
            (GateKind::Rz(0.4).matrix(), 4, vec![5]),
        ];
        assert_eq!(gates.len(), scalars.len() + untouched.len());
        for (g, (controls, lambda)) in gates.iter().zip(&scalars) {
            assert_eq!((g.op.target, &g.op.controls), (0, controls));
            let z = Complex64::ZERO;
            assert_eq!(
                g.op.gate,
                Gate1::new(*lambda, z, z, *lambda),
                "{controls:?}"
            );
        }
        for (g, (m, target, controls)) in gates[scalars.len()..].iter().zip(&untouched) {
            assert_eq!((g.op.target, &g.op.controls), (*target, controls));
            assert_eq!(&g.op.gate, m);
        }
        // The five controlled phases share one batch; the others route alone.
        assert_eq!(s.items().len(), 1 + untouched.len());

        // No in-block qubit (block_log2 = 0): only the controlled-phase
        // re-orientation applies. Every rewrite off: the gates as written,
        // the T·T run unfused.
        let lowest_first: Vec<(usize, Vec<usize>)> = [
            (3, vec![5]),
            (2, vec![4]),
            (3, vec![5]),
            (2, vec![4]),
            (2, vec![4, 5]),
        ]
        .into_iter()
        .chain(untouched.iter().map(|(_, t, c)| (*t, c.clone())))
        .collect();
        let mut as_written = lowest_first.clone();
        as_written[0] = (5, vec![3]);
        as_written[1] = (4, vec![2]);
        as_written[4] = (4, vec![2, 5]);
        as_written.insert(scalars.len() + 3, (2, vec![]));
        let off = FusionPolicy {
            enabled: false,
            ..FusionPolicy::for_block(2)
        };
        for (policy, want) in [
            (FusionPolicy::for_block(0), lowest_first),
            (off, as_written),
        ] {
            let s = schedule_circuit(&c, &policy);
            assert_eq!(targets_and_controls(&s), want, "{policy:?}");
        }

        // Every form is observationally identical to the source circuit.
        for policy in [FusionPolicy::for_block(2), FusionPolicy::for_block(0), off] {
            let mut direct = StateVector::zero_state(6);
            for q in 0..6 {
                direct.apply_gate(&Gate1::h(), q);
            }
            let mut scheduled = direct.clone();
            c.run_dense(&mut direct, &mut StdRng::seed_from_u64(0));
            schedule_circuit(&c, &policy).run_dense(&mut scheduled, &mut StdRng::seed_from_u64(0));
            assert!(fidelity(&direct, &scheduled) > 1.0 - 1e-12, "{policy:?}");
        }
    }

    #[test]
    fn empty_controls_list_degrades_to_single_qubit() {
        use qcs_statevec::GateKind;
        // A gate with zero controls must schedule as the bare single-qubit
        // gate — in particular the diagonal-retarget pass must not assume
        // a non-empty list.
        let mut bare = BatchGate::controlled(Gate1::t(), vec![], 3);
        retarget_diagonal(&mut bare);
        assert_eq!((bare.target, bare.controls.as_slice()), (3, &[][..]));

        let mut c = Circuit::new(5);
        c.push(Op::Gate {
            gate: GateKind::T, // diagonal phase: exercises the retarget pass
            controls: vec![],
            target: 4,
        });
        let s = schedule_circuit(&c, &FusionPolicy::for_block(2));
        let g = match &s.items()[0] {
            ScheduledOp::Gate(g) => g,
            other => panic!("expected a plain gate, got {other:?}"),
        };
        assert_eq!((g.op.target, g.op.controls.as_slice()), (4, &[][..]));

        // Observationally identical to the plain T on qubit 4.
        let mut rng = StdRng::seed_from_u64(0);
        let mut direct = StateVector::zero_state(5);
        for q in 0..5 {
            direct.apply_gate(&Gate1::h(), q);
        }
        let mut scheduled = direct.clone();
        direct.apply_gate(&Gate1::t(), 4);
        s.run_dense(&mut scheduled, &mut rng);
        assert!(fidelity(&direct, &scheduled) > 1.0 - 1e-12);
    }

    #[test]
    fn access_plan_routes_all_three_cases() {
        // n=6, ranks=2^1, block=2^2: offsets 0-1, block bits 2-4, rank bit 5.
        let mut c = Circuit::new(6);
        c.h(0); // in-block: every block on every rank
        c.h(3); // inter-block, stride 2: interleaved pairs
        c.h(5); // inter-rank: rank 0 leads, rank 1 follows, same blocks
        let s = schedule_circuit(&c, &FusionPolicy::for_block(2));
        let plan = AccessPlan::for_schedule(&s, 1, 2);
        assert_eq!(plan.len(), s.items().len());
        assert_eq!(plan.ranks(), 2);
        let waves: Vec<&WaveAccess> = (0..plan.len()).flat_map(|i| plan.item_waves(i)).collect();
        assert_eq!(waves.len(), 3);
        // h(0): all 8 blocks, ascending, both ranks.
        let all: Vec<usize> = (0..8).collect();
        assert_eq!(waves[0].per_rank, vec![all.clone(), all]);
        // h(3): stride 2 pairs in take order a1,b1,a2,b2,...
        let pairs = vec![0, 2, 1, 3, 4, 6, 5, 7];
        assert_eq!(waves[1].per_rank, vec![pairs.clone(), pairs]);
        // h(5): the exchange pair shares the full selected-block list.
        let sel: Vec<usize> = (0..8).collect();
        assert_eq!(waves[2].per_rank, vec![sel.clone(), sel]);
    }

    #[test]
    fn access_plan_honors_block_and_rank_controls() {
        // n=6, ranks=2^1, block=2^2: qubit 3 is block bit 1, qubit 5 the
        // rank bit.
        let mut c = Circuit::new(6);
        c.cx(3, 0); // block-scope control: only blocks with bit 1 set
        c.cx(5, 0); // rank-scope control: only rank 1 touches blocks
        let s = schedule_circuit(&c, &FusionPolicy::for_block(2));
        let plan = AccessPlan::for_schedule(&s, 1, 2);
        let waves: Vec<&WaveAccess> = (0..plan.len()).flat_map(|i| plan.item_waves(i)).collect();
        // The two CX gates batch together (both target qubit 0): the batch
        // wave is the union of the two selections per rank.
        assert_eq!(waves.len(), 1);
        assert_eq!(
            waves[0].per_rank[0],
            vec![2, 3, 6, 7],
            "rank 0: block-control only"
        );
        assert_eq!(
            waves[0].per_rank[1],
            vec![0, 1, 2, 3, 4, 5, 6, 7],
            "rank 1: both gates"
        );
    }

    #[test]
    fn access_plan_expands_bare_ops() {
        let mut c = Circuit::new(4);
        c.swap(0, 1).measure(2);
        let s = schedule_circuit(&c, &FusionPolicy::for_block(2));
        let plan = AccessPlan::for_schedule(&s, 0, 2);
        assert_eq!(plan.item_waves(0).len(), 3, "swap = three CX waves");
        assert_eq!(plan.item_waves(1).len(), 2, "measure = reduce + collapse");
        for w in plan.item_waves(1) {
            assert_eq!(w.per_rank, vec![vec![0, 1, 2, 3]]);
        }
        assert!(!plan.is_empty());
    }

    #[test]
    fn fused_matrix_is_the_ordered_product() {
        let mut c = Circuit::new(1);
        c.h(0).t(0);
        let s = schedule_circuit(&c, &FusionPolicy::for_block(0));
        let g = match &s.items()[0] {
            ScheduledOp::Gate(g) => g,
            _ => unreachable!(),
        };
        let expect = Gate1::t().matmul(&Gate1::h());
        for r in 0..2 {
            for col in 0..2 {
                assert!(g.op.gate.m[r][col].approx_eq(expect.m[r][col], 1e-15));
            }
        }
    }
}
