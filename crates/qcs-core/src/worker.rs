//! Per-rank execution state: each [`RankWorker`] owns exactly its rank's
//! `blocks_per_rank` compressed blocks plus its handles on the shared
//! codec/cache/metrics state, and answers the [`WorkerCmd`] protocol the
//! facade in [`crate::engine`] speaks.
//!
//! This is the half of the paper's MPI rank that lives *on* the rank: the
//! decompress → compute → recompress unit pipeline (§3.2), the per-rank
//! slice of every collective (probability sums, collapses, snapshots), and
//! the rank's side of the §3.3 case (c) exchange. The other half — thread
//! placement, scatter/gather, and pairing ranks for exchanges — lives in
//! [`qcs_cluster::exec`].
//!
//! # Wave lifecycle
//!
//! Every operation the facade performs is one *wave*: a scatter of one
//! [`WorkerCmd`] per rank, handled concurrently, gathered as one
//! [`WorkerOut`] per rank. The diagram below traces a wave through the
//! seams, with the MPI construct each seam stands in for on the right —
//! the protocol is deliberately shaped so that replacing
//! `qcs_cluster::exec` with real MPI calls would leave this module
//! untouched:
//!
//! ```text
//!  facade (engine.rs)                                 MPI counterpart
//!  ──────────────────                                 ───────────────
//!  route gate / plan batch / pick collective;
//!  look up the next wave's planned block slots
//!  in the schedule's AccessPlan (per-rank
//!  prefetch lookahead, out-of-core runs only)
//!        │
//!        │  ClusterSim::dispatch(Vec<WorkerCmd>)      MPI_Scatter over
//!        ▼                                            MPI_COMM_WORLD
//!  ┌─ rank 0 ──────┐  ┌─ rank 1 ──────┐
//!  │ RankWorker     │  │ RankWorker     │             one MPI rank each
//!  │  ::handle(cmd) │  │  ::handle(cmd) │             (its event loop)
//!  │                │  │                │
//!  │ Gate/Batch — a PlanCursor walks the              §3.2 unit pipeline
//!  │ wave's planned slots, one residency-             on the rank's own
//!  │ budget chunk at a time:                          memory (MCDRAM
//!  │  fetch_many(chunk k)   coalesced reads           scratch); the
//!  │  ─▶ prefetch(chunk k+1) ─▶ decompress            prefetch hint is
//!  │  ─▶ kernel ─▶ recompress ─▶ store.put            the paper's MPI
//!  │  (the wave's last chunk prefetches the           overlap aimed at
//!  │  *next* wave's first slots — the facade's        disk: a recv
//!  │  AccessPlan lookahead — so wave boundaries       posted before the
//!  │  overlap too)                                    wave that needs it
//!  │                │  │                │
//!  │ Exchange:      │◀─┼─ Duplex link ─▶│             MPI_Sendrecv of
//!  │  leader recv/  │  │ follower sends │             compressed blocks
//!  │  compute/send  │  │ then installs  │             (§3.3 case (c))
//!  │                │  │                │
//!  │ Collapse/Prob: │  │ (PlanCursor-   │             the rank's term of
//!  │  a pass over   │  │  chunked too)  │             an MPI_Allreduce
//!  │  the blocks    │  │                │
//!  │                │  │                │
//!  │ Norm/Weights/Zz│  │ first one after│             the same reduce,
//!  │  read from the │  │ a mutation: one│             its operand kept
//!  │  QuerySummary, │  │ pass builds it;│             per frozen state;
//!  │  no decode     │  │ Gate..Recompr. │             any mutating
//!  │                │  │ arms drop it   │             command drops it
//!  └──────┬─────────┘  └──────┬─────────┘
//!         │   WorkerOut       │
//!         ▼                   ▼
//!        gather (rank order)                          MPI_Gather
//!        │
//!  facade folds WaveOuts: ledger entry, byte
//!  watermarks, modeled link time                      (root bookkeeping)
//! ```
//!
//! Command-to-collective map: [`WorkerCmd::Gate`] / [`WorkerCmd::Batch`] /
//! [`WorkerCmd::Collapse`] / [`WorkerCmd::Recompress`] are broadcast to
//! every rank (an `MPI_Bcast` of the op followed by embarrassingly
//! parallel local work); [`WorkerCmd::ProbOne`], [`WorkerCmd::NormSqr`],
//! [`WorkerCmd::Weights`] and [`WorkerCmd::ExpectationZz`] are the
//! reduce family (each rank returns its partial, the facade sums) — the
//! last three answered from the rank's `QuerySummary` (see
//! `crate::summary`), which the first of them after a mutating command
//! builds in one pass and every mutating command drops;
//! [`WorkerCmd::SnapshotBlocks`] / [`WorkerCmd::FetchBlock`] are gathers;
//! [`WorkerCmd::Exchange`] is the point-to-point case below; and
//! [`WorkerCmd::Nop`] lets the facade address a single rank inside an
//! otherwise-collective wave (an `MPI_Send` to one rank, dressed as a
//! collective so the dispatch stays one-wave-one-gather).
//!
//! Each MPI-counterpart seam above also has a wire counterpart in
//! [`crate::net`], used when [`SimConfig::remote`](crate::SimConfig)
//! hosts the ranks in `qcsim-workerd` daemons over TCP: the
//! `ClusterSim::dispatch` scatter becomes one `Cmd` frame per rank
//! (every [`WorkerCmd`] variant has a binary encoding there), the gather
//! becomes a `Done` frame carrying the [`WorkerOut`] plus the rank's
//! metrics delta, and the exchange's [`Duplex`] link is bridged by
//! `Relay` frames carrying the same compressed-block payloads. This
//! module is oblivious to all of it — a daemon-hosted `RankWorker` runs
//! these exact functions against a local duplex the connection's relay
//! threads pump.
//!
//! Block storage is behind the [`BlockStore`] seam: a worker never holds
//! raw block tables, so the same pipeline runs all-in-RAM (`MemStore`) or
//! out-of-core (`SpillStore`, hot blocks resident under an LRU budget,
//! cold blocks in per-rank segment files). Gate, batch, recompress,
//! collapse, and query waves all walk their planned slot lists through a
//! [`PlanCursor`]: each chunk (at most a residency budget of blocks) is
//! pulled with one coalesced [`BlockStore::fetch_many`], and before the
//! chunk computes the cursor hints the store at the chunk after it — or,
//! on a wave's last chunk, at the next wave's first slots, delivered by
//! the facade from the schedule's `AccessPlan` — so a spilling store
//! streams the upcoming blocks off disk in the background instead of
//! blocking the wave on a seek-and-read per block.
//!
//! # The compressed exchange
//!
//! A `Route::InterRank` gate pairs rank `r` with rank `r | stride`. The
//! higher rank (the *follower*) streams its selected compressed blocks to
//! the lower rank (the *leader*) over a [`Duplex`] link and the leader
//! does the math: decompress both payloads, run the shared
//! [`kernels::apply_cross`] pair update, recompress both, and send the
//! partner's updated block back — still compressed. Only compressed bytes
//! ever cross the link, mirroring the paper's MPI exchange, and because
//! the links are buffered the follower's sends overlap with the leader's
//! (de)compression. Communication time and bytes are accounted on the
//! leader (the follower's blocking wait is overlap, not traffic).

use crate::block::{BlockCodec, CompressedBlock};
use crate::cache::BlockCache;
use crate::engine::SimError;
use crate::partial::{self, PartialStats};
use crate::store::BlockStore;
use crate::summary::QuerySummary;
use qcs_circuits::schedule::{mix, MAX_BATCH_GATES};
use qcs_cluster::{exec, ControlScope, Duplex, Layout, Metrics, Phase, Route};
use qcs_compress::{CodecError, ErrorBound, PartialCodec, SegmentIndex};
use qcs_statevec::{kernels, Gate1};
use rayon::prelude::*;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// A compressed block in flight between two paired rank workers, tagged
/// with its block index within the rank.
pub(crate) type BlockMsg = (usize, CompressedBlock);

/// The next wave's first planned block slots for this rank, handed down
/// by the facade from the schedule's `AccessPlan` so a wave's last chunk
/// can prefetch across the wave boundary. `None` when the run is not
/// planned (no schedule, prefetch off, or an unplanned wave follows).
pub(crate) type Lookahead = Option<Arc<Vec<usize>>>;

/// One (possibly controlled) single-qubit gate wave, pre-routed by the
/// facade. `route` is never `InterRank` — rank-crossing gates go through
/// [`ExchangeCmd`] instead.
#[derive(Clone)]
#[cfg_attr(test, derive(Debug, PartialEq))]
pub(crate) struct GateCmd {
    pub signature: u64,
    pub gate: Gate1,
    pub route: Route,
    pub offset_cmask: usize,
    pub block_cmask: usize,
    pub rank_cmask: usize,
    pub bound: ErrorBound,
    pub lookahead: Lookahead,
}

/// This rank's role in an inter-rank exchange wave.
pub(crate) enum ExchangeRole {
    /// Lower rank of the pair: receives the partner's compressed blocks,
    /// computes both halves of every pair update, sends the partner's
    /// updated blocks back.
    Lead(Duplex<BlockMsg>),
    /// Higher rank of the pair: streams its compressed blocks out, then
    /// installs the compressed replacements.
    Follow(Duplex<BlockMsg>),
    /// Deselected by a rank-scope control: sit the wave out.
    Idle,
}

/// A `Route::InterRank` gate wave: the gate plus this rank's role.
#[cfg_attr(test, derive(Debug, PartialEq))]
pub(crate) struct ExchangeCmd {
    pub signature: u64,
    pub gate: Gate1,
    pub offset_cmask: usize,
    pub block_cmask: usize,
    pub bound: ErrorBound,
    pub role: ExchangeRole,
    pub lookahead: Lookahead,
}

/// Per-gate kernel plan inside a batch: the matrix plus the control masks
/// partitioned by scope (§3.3).
#[cfg_attr(test, derive(Debug, PartialEq))]
pub(crate) struct BatchPlan {
    pub gate: Gate1,
    pub offset_bit: u32,
    pub offset_cmask: usize,
    pub block_cmask: usize,
    pub rank_cmask: usize,
}

/// An intra-block [`qcs_circuits::GateBatch`] wave: shared plans plus the
/// batch cache signature.
#[derive(Clone)]
#[cfg_attr(test, derive(Debug, PartialEq))]
pub(crate) struct BatchCmd {
    pub plans: Arc<Vec<BatchPlan>>,
    pub signature: u64,
    pub bound: ErrorBound,
    pub lookahead: Lookahead,
}

/// The command protocol between the engine facade and its rank workers.
#[cfg_attr(test, derive(Debug, PartialEq))]
pub(crate) enum WorkerCmd {
    /// Apply an in-block or inter-block gate to the local blocks.
    Gate(GateCmd),
    /// Take part in an inter-rank compressed-block exchange.
    Exchange(ExchangeCmd),
    /// Apply a gate batch to the local blocks.
    Batch(BatchCmd),
    /// Project the local blocks onto a measurement outcome.
    Collapse {
        scope: ControlScope,
        outcome: bool,
        scale: f64,
        bound: ErrorBound,
    },
    /// Recompress every local block at a (new) ladder bound.
    Recompress { bound: ErrorBound },
    /// Partial `P(qubit = 1)` over the local blocks.
    ProbOne { scope: ControlScope },
    /// Partial squared 2-norm over the local blocks.
    NormSqr,
    /// Per-block squared norms (sampling weights), in block order.
    Weights,
    /// Clone one local compressed block.
    FetchBlock { block: usize },
    /// Clone every local compressed block (snapshots, checkpoints).
    SnapshotBlocks,
    /// Partial `<Z_a Z_b>` over the local blocks.
    ExpectationZz { a: usize, b: usize },
    /// Sit a wave out (used to address a single rank within a collective).
    Nop,
}

impl WorkerCmd {
    /// Check a command that came off a socket against the rank's layout
    /// before [`RankWorker::handle`] sees it: the handlers index blocks,
    /// shift by bit positions and `unreachable!` on routes the facade
    /// never sends, all of which a peer's bytes could otherwise reach.
    pub(crate) fn validate(&self, layout: &Layout) -> Result<(), String> {
        let bpr = layout.blocks_per_rank();
        let block_bits = bpr.trailing_zeros();
        let masks = |offset: usize, block: usize, rank: usize| {
            if offset >> layout.block_log2 != 0 || block >= bpr || rank >= layout.ranks() {
                return Err(format!(
                    "control masks {offset:#x}/{block:#x}/{rank:#x} reach outside a \
                     2^{} x {bpr} x {} layout",
                    layout.block_log2,
                    layout.ranks()
                ));
            }
            Ok(())
        };
        let offset_bit = |bit: u32| {
            if bit >= layout.block_log2 {
                return Err(format!(
                    "offset bit {bit} outside a 2^{}-amplitude block",
                    layout.block_log2
                ));
            }
            Ok(())
        };
        let scope = |scope: &ControlScope| match *scope {
            ControlScope::InBlock { offset_bit: bit } => offset_bit(bit),
            ControlScope::BlockSelect { block_bit } if block_bit >= block_bits => {
                Err(format!("block bit {block_bit} outside a {bpr}-block rank"))
            }
            ControlScope::RankSelect { rank_bit } if rank_bit >= layout.ranks_log2 => Err(format!(
                "rank bit {rank_bit} outside a {}-rank layout",
                layout.ranks()
            )),
            _ => Ok(()),
        };
        let ahead = |lookahead: &Lookahead| match lookahead
            .iter()
            .flat_map(|l| l.iter())
            .find(|&&s| s >= bpr)
        {
            Some(slot) => Err(format!("lookahead slot {slot} outside a {bpr}-block rank")),
            None => Ok(()),
        };
        match self {
            WorkerCmd::Gate(g) => {
                masks(g.offset_cmask, g.block_cmask, g.rank_cmask)?;
                ahead(&g.lookahead)?;
                match g.route {
                    Route::InBlock { offset_bit: bit } => offset_bit(bit),
                    Route::InterBlock { block_stride }
                        if !block_stride.is_power_of_two() || block_stride >= bpr =>
                    {
                        Err(format!(
                            "block stride {block_stride} is not a block bit of a {bpr}-block rank"
                        ))
                    }
                    Route::InterBlock { .. } => Ok(()),
                    Route::InterRank { .. } => {
                        Err("an inter-rank gate must arrive as an exchange".into())
                    }
                }
            }
            WorkerCmd::Exchange(x) => {
                masks(x.offset_cmask, x.block_cmask, 0)?;
                ahead(&x.lookahead)
            }
            WorkerCmd::Batch(b) => {
                if b.plans.len() > MAX_BATCH_GATES {
                    return Err(format!(
                        "batch of {} gates exceeds the {MAX_BATCH_GATES}-gate cap",
                        b.plans.len()
                    ));
                }
                ahead(&b.lookahead)?;
                b.plans.iter().try_for_each(|p| {
                    offset_bit(p.offset_bit)?;
                    masks(p.offset_cmask, p.block_cmask, p.rank_cmask)
                })
            }
            WorkerCmd::Collapse { scope: s, .. } | WorkerCmd::ProbOne { scope: s } => scope(s),
            WorkerCmd::FetchBlock { block } if *block >= bpr => {
                Err(format!("block {block} outside a {bpr}-block rank"))
            }
            WorkerCmd::ExpectationZz { a, b }
                if a == b || a.max(b) >= &(layout.num_qubits as usize) =>
            {
                Err(format!(
                    "<Z_{a} Z_{b}> needs two distinct qubits below {}",
                    layout.num_qubits
                ))
            }
            _ => Ok(()),
        }
    }
}

/// Summary of a state-mutating wave on one rank.
#[derive(Debug, Clone, Copy)]
#[cfg_attr(test, derive(PartialEq))]
pub(crate) struct WaveOut {
    /// A lossy recompression happened on this rank.
    pub lossy: bool,
    /// Total compressed bytes owned by this rank after the wave (resident
    /// plus spilled).
    pub compressed_bytes: u64,
    /// Compressed bytes actually resident in memory after the wave (equal
    /// to `compressed_bytes` without an out-of-core tier).
    pub resident_bytes: u64,
    /// Deterministic subset of `resident_bytes`: foreground residents
    /// only, excluding the timing-dependent prefetch-staging and
    /// write-behind buffers (see [`BlockStore::hot_bytes`]).
    pub hot_bytes: u64,
}

/// Response half of the [`WorkerCmd`] protocol.
#[derive(Debug)]
#[cfg_attr(test, derive(PartialEq))]
pub(crate) enum WorkerOut {
    Wave(WaveOut),
    Scalar(f64),
    Weights(Vec<f64>),
    Block(CompressedBlock),
    Blocks(Vec<CompressedBlock>),
}

impl WorkerOut {
    pub(crate) fn wave(self) -> WaveOut {
        match self {
            WorkerOut::Wave(w) => w,
            _ => unreachable!("expected a wave response"),
        }
    }

    pub(crate) fn scalar(self) -> f64 {
        match self {
            WorkerOut::Scalar(v) => v,
            _ => unreachable!("expected a scalar response"),
        }
    }
}

/// Segments below this many `f64`s are not worth splitting across rayon
/// workers inside a single block.
const MIN_SEGMENT_F64: usize = 4096;

/// Most per-block outputs a query wave holds between its parallel map and
/// its in-order fold (see [`RankWorker::map_blocks`]).
const QUERY_CHUNK_BLOCKS: usize = 256;

/// Walks one wave's planned unit list in residency-budget chunks — the
/// single place wave chunking lives, shared by gate, batch, recompress,
/// collapse, and query waves.
///
/// Protocol per chunk: the worker pulls the chunk's blocks with one
/// coalesced [`BlockStore::fetch_many`] (or peeks, for read-only waves),
/// then calls [`PlanCursor::hint_upcoming`] so the store's background
/// fetcher starts on the *next* chunk — or, once the wave is drained, on
/// the next wave's first slots (the facade's `AccessPlan` lookahead) —
/// while the current chunk computes. The hint goes out after the fetch on
/// purpose: consuming the current chunk frees the store's staging budget
/// for exactly the blocks being hinted.
pub(crate) struct PlanCursor<'a, U> {
    units: &'a [U],
    chunk_len: usize,
    pos: usize,
}

impl<'a, U> PlanCursor<'a, U> {
    pub(crate) fn new(units: &'a [U], chunk_len: usize) -> Self {
        Self {
            units,
            chunk_len: chunk_len.max(1),
            pos: 0,
        }
    }

    /// The next chunk of units to fetch and compute, or `None` when the
    /// wave is drained.
    pub(crate) fn next_chunk(&mut self) -> Option<&'a [U]> {
        if self.pos >= self.units.len() {
            return None;
        }
        let end = (self.pos + self.chunk_len).min(self.units.len());
        let chunk = &self.units[self.pos..end];
        self.pos = end;
        Some(chunk)
    }

    /// Hint the store at what the wave touches next: the upcoming chunk's
    /// slots (extracted by `slots_of`), or `lookahead` when this wave has
    /// no chunks left.
    pub(crate) fn hint_upcoming(
        &self,
        store: &dyn BlockStore,
        lookahead: Option<&[usize]>,
        slots_of: impl Fn(&U, &mut Vec<usize>),
    ) {
        let end = (self.pos + self.chunk_len).min(self.units.len());
        if self.pos < end {
            let mut slots = Vec::with_capacity(end - self.pos);
            for u in &self.units[self.pos..end] {
                slots_of(u, &mut slots);
            }
            store.prefetch(&slots);
        } else if let Some(next) = lookahead {
            if !next.is_empty() {
                store.prefetch(next);
            }
        }
    }
}

/// The per-rank execution unit: owns its rank's blocks (through a
/// [`BlockStore`] tier) and shares the codec, cache, and metrics sinks
/// with every other rank.
pub(crate) struct RankWorker {
    rank: usize,
    layout: Layout,
    codec: Arc<BlockCodec>,
    cache: Arc<BlockCache>,
    metrics: Metrics,
    /// Local block storage: slot `b` holds global slot
    /// `rank * blocks_per_rank + b`. All block access goes through the
    /// trait, so the worker is oblivious to whether a block is resident or
    /// spilled; waves are chunked to the store's residency cap so at most
    /// a budget's worth of blocks is ever in flight.
    store: Box<dyn BlockStore>,
    /// Route qualifying waves through the segment-addressable partial
    /// decode/encode path ([`SimConfig::partial_decode`](crate::SimConfig)).
    partial: bool,
    /// The frozen state's [`QuerySummary`], built by the first
    /// `Weights`/`NormSqr`/`ExpectationZz` after a mutation and dropped
    /// by the next one ([`RankWorker::thaw`]). Behind a `OnceLock` because
    /// queries run through `&self`.
    summary: OnceLock<QuerySummary>,
}

impl exec::Worker for RankWorker {
    type Cmd = WorkerCmd;
    type Resp = Result<WorkerOut, SimError>;

    fn handle(&mut self, cmd: WorkerCmd) -> Result<WorkerOut, SimError> {
        let out = match cmd {
            WorkerCmd::Gate(g) => self.thaw().apply_gate(&g).map(WorkerOut::Wave),
            WorkerCmd::Exchange(x) => self.thaw().exchange(x).map(WorkerOut::Wave),
            WorkerCmd::Batch(b) => self.thaw().apply_batch(&b).map(WorkerOut::Wave),
            WorkerCmd::Collapse {
                scope,
                outcome,
                scale,
                bound,
            } => self
                .thaw()
                .collapse(scope, outcome, scale, bound)
                .map(WorkerOut::Wave),
            WorkerCmd::Recompress { bound } => {
                self.thaw().recompress_all(bound).map(WorkerOut::Wave)
            }
            other => self.query(other),
        };
        // After every command, so remote daemons ship the codec counters
        // in the per-command delta.
        self.codec.drain_counters_into(&self.metrics);
        out
    }
}

impl RankWorker {
    pub(crate) fn new(
        rank: usize,
        layout: Layout,
        codec: Arc<BlockCodec>,
        cache: Arc<BlockCache>,
        metrics: Metrics,
        store: Box<dyn BlockStore>,
        partial: bool,
    ) -> Self {
        debug_assert_eq!(store.len(), layout.blocks_per_rank());
        Self {
            rank,
            layout,
            codec,
            cache,
            metrics,
            store,
            partial,
            summary: OnceLock::new(),
        }
    }

    /// The blocks are about to change: drop the frozen state's summary.
    /// Called by every mutating arm of [`RankWorker::handle`] and nowhere
    /// else.
    fn thaw(&mut self) -> &mut Self {
        self.summary.take();
        self
    }

    fn wave_out(&self, lossy: bool) -> WaveOut {
        WaveOut {
            lossy,
            compressed_bytes: self.store.compressed_bytes(),
            resident_bytes: self.store.resident_bytes(),
            hot_bytes: self.store.hot_bytes(),
        }
    }

    fn selected(&self, rank_cmask: usize) -> bool {
        self.rank & rank_cmask == rank_cmask
    }

    /// How many blocks a wave may hold in flight at once: the store's
    /// residency cap, or everything when the store is all-resident.
    fn flight_budget(&self) -> usize {
        self.store
            .resident_cap()
            .unwrap_or_else(|| self.layout.blocks_per_rank())
            .max(1)
    }

    /// Announce a wave's ordered slot accesses — the wave's own planned
    /// order with the next wave's `AccessPlan` lookahead appended — to a
    /// plan-consuming store (Belady MIN keys eviction on the window).
    /// Skipped entirely when the store ignores plans, so LRU and
    /// all-resident runs build no window.
    fn announce_plan(&self, wave_slots: &[usize], lookahead: Option<&[usize]>) {
        if !self.store.wants_plan() {
            return;
        }
        match lookahead {
            Some(next) if !next.is_empty() => {
                let mut window = Vec::with_capacity(wave_slots.len() + next.len());
                window.extend_from_slice(wave_slots);
                window.extend_from_slice(next);
                self.store.plan_accesses(&window);
            }
            _ => self.store.plan_accesses(wave_slots),
        }
    }

    /// Read-only commands, answerable through `&self` (the facade calls
    /// this directly on the local path so queries stay `&self` there too).
    pub(crate) fn query(&self, cmd: WorkerCmd) -> Result<WorkerOut, SimError> {
        match cmd {
            WorkerCmd::ProbOne { scope } => self.prob_one(scope).map(WorkerOut::Scalar),
            WorkerCmd::NormSqr => self.norm_sqr().map(WorkerOut::Scalar),
            WorkerCmd::Weights => self.weights().map(WorkerOut::Weights),
            WorkerCmd::FetchBlock { block } => {
                // Checkpoint barrier: make pending write-behind frames
                // durable (and surface any deferred write error) before
                // handing out state a checkpoint will persist.
                self.store.flush()?;
                Ok(WorkerOut::Block(self.store.peek(block)?))
            }
            WorkerCmd::SnapshotBlocks => {
                self.store.flush()?;
                Ok(WorkerOut::Blocks(
                    (0..self.store.len())
                        .map(|b| self.store.peek(b))
                        .collect::<Result<_, _>>()?,
                ))
            }
            WorkerCmd::ExpectationZz { a, b } => self.expectation_zz(a, b).map(WorkerOut::Scalar),
            WorkerCmd::Nop => Ok(WorkerOut::Scalar(0.0)),
            _ => unreachable!("mutating command sent through the query path"),
        }
    }

    // --- gate waves ------------------------------------------------------

    fn apply_gate(&mut self, cmd: &GateCmd) -> Result<WaveOut, SimError> {
        if !self.selected(cmd.rank_cmask) {
            return Ok(self.wave_out(false));
        }
        let bpr = self.layout.blocks_per_rank();
        let block_ok = |b: usize| b & cmd.block_cmask == cmd.block_cmask;
        let mut slots: Vec<(usize, Option<usize>)> = Vec::new();
        let kernel = match cmd.route {
            Route::InBlock { offset_bit } => {
                slots.extend((0..bpr).filter(|&b| block_ok(b)).map(|b| (b, None)));
                Kernel::InBlock { offset_bit }
            }
            Route::InterBlock { block_stride } => {
                slots.extend(
                    (0..bpr)
                        .filter(|&b| b & block_stride == 0 && block_ok(b))
                        .map(|b| (b, Some(b | block_stride))),
                );
                Kernel::Cross
            }
            Route::InterRank { .. } => {
                unreachable!("inter-rank gates are exchange commands")
            }
        };
        self.process_units(&slots, kernel, cmd)
    }

    /// Run every unit's decompress → compute → recompress cycle (cache
    /// permitting) and write results back, walking the wave's planned
    /// units through a [`PlanCursor`] so at most the store's residency
    /// budget of blocks is in flight at once and the next chunk prefetches
    /// while the current one computes. A lone unit runs on the calling
    /// thread with the segmented kernel so a rank with one big block still
    /// uses its whole rayon width; multiple units stripe across rayon.
    fn process_units(
        &mut self,
        slots: &[(usize, Option<usize>)],
        kernel: Kernel,
        cmd: &GateCmd,
    ) -> Result<WaveOut, SimError> {
        let bound = cmd.bound;
        let blocks_per_unit = if matches!(kernel, Kernel::Cross) {
            2
        } else {
            1
        };
        let chunk_len = (self.flight_budget() / blocks_per_unit).max(1);
        let unit_slots = |&(a, b): &(usize, Option<usize>), out: &mut Vec<usize>| {
            out.push(a);
            if let Some(b) = b {
                out.push(b);
            }
        };
        let lookahead = cmd.lookahead.as_ref().map(|v| v.as_slice());
        if self.store.wants_plan() {
            let mut wave_slots = Vec::with_capacity(slots.len() * blocks_per_unit);
            for unit in slots {
                unit_slots(unit, &mut wave_slots);
            }
            self.announce_plan(&wave_slots, lookahead);
        }
        let mut lossy = false;
        let mut cursor = PlanCursor::new(slots, chunk_len);
        while let Some(chunk) = cursor.next_chunk() {
            let mut flat = Vec::with_capacity(chunk.len() * blocks_per_unit);
            for unit in chunk {
                unit_slots(unit, &mut flat);
            }
            let mut fetched = self.store.fetch_many(&flat)?.into_iter();
            cursor.hint_upcoming(self.store.as_ref(), lookahead, unit_slots);
            let mut units = Vec::with_capacity(chunk.len());
            for &(a, b) in chunk {
                let in_a = fetched.next().expect("fetched block");
                let in_b = b.map(|_| fetched.next().expect("fetched pair block"));
                units.push(Unit {
                    slot_a: a,
                    slot_b: b,
                    in_a,
                    in_b,
                });
            }
            let results: Result<Vec<UnitOut>, SimError> = if units.len() == 1 {
                units
                    .into_iter()
                    .map(|unit| {
                        process_one(
                            &self.codec,
                            &self.cache,
                            &cmd.gate,
                            kernel,
                            cmd.offset_cmask,
                            cmd.signature,
                            bound,
                            unit,
                            true,
                            self.partial,
                        )
                    })
                    .collect()
            } else {
                let codec = Arc::clone(&self.codec);
                let cache = Arc::clone(&self.cache);
                let g = cmd.gate;
                let (offset_cmask, signature) = (cmd.offset_cmask, cmd.signature);
                let partial = self.partial;
                // Per-worker scratch — the two decompressed blocks the paper
                // holds in MCDRAM (§3.2) — comes from the codec's buffer
                // pool inside `process_one`.
                units
                    .into_par_iter()
                    .map(|unit| {
                        process_one(
                            &codec,
                            &cache,
                            &g,
                            kernel,
                            offset_cmask,
                            signature,
                            bound,
                            unit,
                            false,
                            partial,
                        )
                    })
                    .collect()
            };
            for out in results? {
                self.merge_unit(&out);
                lossy |= out.compressed_lossy;
                self.store.put(out.slot_a, out.out_a)?;
                if let Some(sb) = out.slot_b {
                    self.store.put(sb, out.out_b.expect("pair output"))?;
                }
            }
        }
        Ok(self.wave_out(lossy))
    }

    /// Fold one unit's timings and touch counts into the shared metrics.
    fn merge_unit(&self, out: &UnitOut) {
        self.metrics.add(Phase::Compression, out.timings[0]);
        self.metrics.add(Phase::Decompression, out.timings[1]);
        self.metrics.add(Phase::Computation, out.timings[3]);
        if !out.cache_hit {
            self.metrics.add_block_touch(out.gates_applied);
        }
        if let Some(s) = out.partial {
            self.metrics
                .add_partial_decode(s.segments, s.segments_full, s.bytes, s.bytes_full);
        }
    }

    // --- inter-rank exchange ---------------------------------------------

    fn exchange(&mut self, mut cmd: ExchangeCmd) -> Result<WaveOut, SimError> {
        let out = match std::mem::replace(&mut cmd.role, ExchangeRole::Idle) {
            ExchangeRole::Idle => Ok(self.wave_out(false)),
            ExchangeRole::Follow(link) => self.exchange_follow(&cmd, link),
            ExchangeRole::Lead(link) => self.exchange_lead(&cmd, link),
        };
        // The exchange is this wave's last (only) chunk: start on the next
        // wave's planned slots while the facade gathers.
        if let (Ok(_), Some(next)) = (&out, &cmd.lookahead) {
            self.store.prefetch(next);
        }
        out
    }

    fn selected_blocks(&self, block_cmask: usize) -> Vec<usize> {
        (0..self.layout.blocks_per_rank())
            .filter(|b| b & block_cmask == block_cmask)
            .collect()
    }

    /// Follower side: stream every selected compressed block to the
    /// leader up front (the sends buffer, overlapping the leader's
    /// compute), then install the compressed replacements as they return.
    ///
    /// Streamed blocks are in flight on the link rather than resident, so
    /// the residency budget of an out-of-core store is not enforced on the
    /// wire — the same allowance the paper makes for MPI send buffers.
    fn exchange_follow(
        &mut self,
        cmd: &ExchangeCmd,
        link: Duplex<BlockMsg>,
    ) -> Result<WaveOut, SimError> {
        let sel = self.selected_blocks(cmd.block_cmask);
        self.announce_plan(&sel, cmd.lookahead.as_ref().map(|v| v.as_slice()));
        // Stream in residency-budget chunks: each chunk is one coalesced
        // fetch, and the sent payloads live in the link's buffer (the MPI
        // send-buffer allowance) — the follower never materializes more
        // than a budget's worth of blocks outside the link.
        for chunk in sel.chunks(self.flight_budget()) {
            let blocks = self.store.fetch_many(chunk)?;
            for (&b, blk) in chunk.iter().zip(blocks) {
                if !link.send((b, blk)) {
                    return Err(SimError::Exchange("peer rank dropped the link".into()));
                }
            }
        }
        for _ in &sel {
            let (b, blk) = link
                .recv()
                .ok_or_else(|| SimError::Exchange("peer rank failed mid-exchange".into()))?;
            self.store.put(b, blk)?;
        }
        // The wait above is overlap with the leader's compute; the leader
        // accounts the pair's communication time and bytes.
        Ok(self.wave_out(false))
    }

    /// Leader side: receive the partner's compressed block, pair it with
    /// the local one, run the cycle, send the partner's updated block
    /// back compressed.
    fn exchange_lead(
        &mut self,
        cmd: &ExchangeCmd,
        link: Duplex<BlockMsg>,
    ) -> Result<WaveOut, SimError> {
        let sel = self.selected_blocks(cmd.block_cmask);
        self.announce_plan(&sel, cmd.lookahead.as_ref().map(|v| v.as_slice()));
        // The leader takes its own block once per received partner block:
        // stage them ahead so those takes ride the background fetcher
        // instead of blocking between pair updates.
        self.store.prefetch(&sel);
        let mut lossy = false;
        for &b in &sel {
            let t = Instant::now();
            let (pb, partner) = link
                .recv()
                .ok_or_else(|| SimError::Exchange("peer rank failed mid-exchange".into()))?;
            self.metrics.add(Phase::Communication, t.elapsed());
            debug_assert_eq!(pb, b, "exchange block order diverged");
            let own = self.store.take(b)?;
            let inbound = partner.len() as u64;

            let unit = Unit {
                slot_a: b,
                slot_b: None,
                in_a: own,
                in_b: Some(partner),
            };
            let out = process_one(
                &self.codec,
                &self.cache,
                &cmd.gate,
                Kernel::Cross,
                cmd.offset_cmask,
                cmd.signature,
                cmd.bound,
                unit,
                sel.len() == 1,
                false,
            )?;
            self.merge_unit(&out);
            lossy |= out.compressed_lossy;
            let back = out.out_b.expect("pair output");
            let outbound = back.len() as u64;
            let t = Instant::now();
            if !link.send((b, back)) {
                return Err(SimError::Exchange("peer rank dropped the link".into()));
            }
            self.metrics.add(Phase::Communication, t.elapsed());
            self.store.put(b, out.out_a)?;
            self.metrics.add_comm_bytes(inbound + outbound);
            self.metrics.add_exchange();
        }
        Ok(self.wave_out(lossy))
    }

    // --- batches ---------------------------------------------------------

    fn apply_batch(&mut self, cmd: &BatchCmd) -> Result<WaveOut, SimError> {
        let bpr = self.layout.blocks_per_rank();
        // One unit per local block some gate selects.
        let mut selections: Vec<(usize, u64)> = Vec::new();
        for b in 0..bpr {
            let mut mask = 0u64;
            for (i, p) in cmd.plans.iter().enumerate() {
                if self.selected(p.rank_cmask) && b & p.block_cmask == p.block_cmask {
                    mask |= 1 << i;
                }
            }
            if mask != 0 {
                selections.push((b, mask));
            }
        }

        let bound = cmd.bound;
        let chunk_len = self.flight_budget();
        let unit_slots = |&(slot, _): &(usize, u64), out: &mut Vec<usize>| out.push(slot);
        let lookahead = cmd.lookahead.as_ref().map(|v| v.as_slice());
        if self.store.wants_plan() {
            let wave_slots: Vec<usize> = selections.iter().map(|&(slot, _)| slot).collect();
            self.announce_plan(&wave_slots, lookahead);
        }
        let mut lossy = false;
        let mut cursor = PlanCursor::new(&selections, chunk_len);
        while let Some(chunk) = cursor.next_chunk() {
            let flat: Vec<usize> = chunk.iter().map(|&(slot, _)| slot).collect();
            let fetched = self.store.fetch_many(&flat)?;
            cursor.hint_upcoming(self.store.as_ref(), lookahead, unit_slots);
            let units: Vec<BatchUnit> = chunk
                .iter()
                .zip(fetched)
                .map(|(&(slot, mask), block)| BatchUnit { slot, mask, block })
                .collect();
            let results: Result<Vec<UnitOut>, SimError> = if units.len() == 1 {
                units
                    .into_iter()
                    .map(|unit| {
                        process_batch_unit(
                            &self.codec,
                            &self.cache,
                            &cmd.plans,
                            cmd.signature,
                            bound,
                            unit,
                            true,
                            self.partial,
                        )
                    })
                    .collect()
            } else {
                let codec = Arc::clone(&self.codec);
                let cache = Arc::clone(&self.cache);
                let plans = Arc::clone(&cmd.plans);
                let signature = cmd.signature;
                let partial = self.partial;
                units
                    .into_par_iter()
                    .map(|unit| {
                        process_batch_unit(
                            &codec, &cache, &plans, signature, bound, unit, false, partial,
                        )
                    })
                    .collect()
            };
            for out in results? {
                self.merge_unit(&out);
                lossy |= out.compressed_lossy;
                self.store.put(out.slot_a, out.out_a)?;
            }
        }
        Ok(self.wave_out(lossy))
    }

    // --- collectives ------------------------------------------------------

    /// Take each local block through `f` (decompress → mutate → compress),
    /// walked through a [`PlanCursor`] — chunked to the residency budget,
    /// each chunk fetched in one coalesced read while the next one
    /// prefetches, striped across rayon inside each chunk.
    fn rewrite_blocks(
        &mut self,
        f: impl Fn(usize, &CompressedBlock) -> Result<CompressedBlock, SimError> + Sync,
    ) -> Result<(), SimError> {
        let bpr = self.layout.blocks_per_rank();
        let all: Vec<usize> = (0..bpr).collect();
        self.announce_plan(&all, None);
        let mut cursor = PlanCursor::new(&all, self.flight_budget());
        while let Some(chunk) = cursor.next_chunk() {
            let fetched = self.store.fetch_many(chunk)?;
            cursor.hint_upcoming(self.store.as_ref(), None, |&b, out| out.push(b));
            let taken: Vec<(usize, CompressedBlock)> = chunk.iter().copied().zip(fetched).collect();
            let results: Result<Vec<(usize, CompressedBlock)>, SimError> = taken
                .into_par_iter()
                .map(|(b, blk)| Ok((b, f(b, &blk)?)))
                .collect();
            for (b, blk) in results? {
                self.store.put(b, blk)?;
            }
        }
        Ok(())
    }

    fn collapse(
        &mut self,
        scope: ControlScope,
        outcome: bool,
        scale: f64,
        bound: ErrorBound,
    ) -> Result<WaveOut, SimError> {
        let rank = self.rank;
        let codec = Arc::clone(&self.codec);
        let metrics = self.metrics.clone();
        let partial = self.partial;
        self.rewrite_blocks(|b, blk| {
            // Partial fast path: with the measured bit at or above
            // segment granularity, the projected-out half of the
            // segments is zeroed without ever being decoded.
            if partial {
                if let ControlScope::InBlock { offset_bit } = scope {
                    if let Some(op) =
                        partial::partial_collapse(&codec, blk, offset_bit, outcome, scale, bound)?
                    {
                        let s = op.stats;
                        metrics.add_partial_decode(
                            s.segments,
                            s.segments_full,
                            s.bytes,
                            s.bytes_full,
                        );
                        return Ok(op.block);
                    }
                }
            }
            let mut buf = codec.take_amp_buf();
            codec.decompress(blk, &mut buf)?;
            match scope {
                ControlScope::InBlock { offset_bit } => {
                    let bit = 1usize << offset_bit;
                    for o in 0..buf.len() / 2 {
                        if (o & bit != 0) == outcome {
                            buf[2 * o] *= scale;
                            buf[2 * o + 1] *= scale;
                        } else {
                            buf[2 * o] = 0.0;
                            buf[2 * o + 1] = 0.0;
                        }
                    }
                }
                ControlScope::BlockSelect { block_bit } => {
                    if (b >> block_bit & 1 == 1) == outcome {
                        buf.iter_mut().for_each(|v| *v *= scale);
                    } else {
                        buf.iter_mut().for_each(|v| *v = 0.0);
                    }
                }
                ControlScope::RankSelect { rank_bit } => {
                    if (rank >> rank_bit & 1 == 1) == outcome {
                        buf.iter_mut().for_each(|v| *v *= scale);
                    } else {
                        buf.iter_mut().for_each(|v| *v = 0.0);
                    }
                }
            }
            let out = codec.compress_pooled(&buf, bound)?;
            codec.put_amp_buf(buf);
            Ok(out)
        })?;
        Ok(self.wave_out(bound.is_lossy()))
    }

    fn recompress_all(&mut self, bound: ErrorBound) -> Result<WaveOut, SimError> {
        let codec = Arc::clone(&self.codec);
        self.rewrite_blocks(|_, blk| {
            let mut buf = codec.take_amp_buf();
            codec.decompress(blk, &mut buf)?;
            let out = codec.compress_pooled(&buf, bound)?;
            codec.put_amp_buf(buf);
            Ok(out)
        })?;
        Ok(self.wave_out(bound.is_lossy()))
    }

    /// Map every local block through read-only `f`, handing the per-block
    /// outputs to `fold` strictly in block order. Query waves walk the
    /// same [`PlanCursor`] as the mutating ones: chunked to the residency
    /// budget (spilled blocks are peeked from disk without displacing hot
    /// ones), the next chunk prefetching while the current one reduces,
    /// striped across rayon inside each chunk. At most
    /// [`QUERY_CHUNK_BLOCKS`] outputs are in flight between `f` and
    /// `fold`, whatever the store's budget; chunking never reorders the
    /// fold, so the result does not depend on it.
    fn map_blocks<T: Send>(
        &self,
        f: impl Fn(usize, &CompressedBlock) -> Result<T, SimError> + Sync,
        mut fold: impl FnMut(usize, T),
    ) -> Result<(), SimError> {
        let bpr = self.layout.blocks_per_rank();
        let all: Vec<usize> = (0..bpr).collect();
        self.announce_plan(&all, None);
        let mut cursor = PlanCursor::new(&all, self.flight_budget().min(QUERY_CHUNK_BLOCKS));
        while let Some(chunk) = cursor.next_chunk() {
            let mut peeked = Vec::with_capacity(chunk.len());
            for &b in chunk {
                peeked.push((b, self.store.peek(b)?));
            }
            cursor.hint_upcoming(self.store.as_ref(), None, |&b, out| out.push(b));
            let results: Result<Vec<T>, SimError> =
                peeked.into_par_iter().map(|(b, blk)| f(b, &blk)).collect();
            for (&b, out) in chunk.iter().zip(results?) {
                fold(b, out);
            }
        }
        Ok(())
    }

    fn prob_one(&self, scope: ControlScope) -> Result<f64, SimError> {
        if self.partial {
            if let ControlScope::InBlock { offset_bit } = scope {
                if let Some(p) = self.prob_one_partial(offset_bit)? {
                    return Ok(p);
                }
            }
        }
        let rank = self.rank;
        let layout = self.layout;
        let codec = Arc::clone(&self.codec);
        let metrics = self.metrics.clone();
        let mut total = 0.0;
        self.map_blocks(
            |b, blk| {
                let selected_whole = match scope {
                    ControlScope::InBlock { .. } => None,
                    ControlScope::BlockSelect { block_bit } => Some(b >> block_bit & 1 == 1),
                    ControlScope::RankSelect { rank_bit } => Some(rank >> rank_bit & 1 == 1),
                };
                if selected_whole == Some(false) {
                    return Ok(0.0);
                }
                let mut buf = codec.take_amp_buf();
                decode_timed(&codec, &metrics, layout, blk, &mut buf)?;
                let sum = match scope {
                    ControlScope::InBlock { offset_bit } => {
                        let bit = 1usize << offset_bit;
                        (0..buf.len() / 2)
                            .filter(|o| o & bit != 0)
                            .map(|o| buf[2 * o] * buf[2 * o] + buf[2 * o + 1] * buf[2 * o + 1])
                            .sum()
                    }
                    _ => buf.iter().map(|v| v * v).sum(),
                };
                codec.put_amp_buf(buf);
                Ok(sum)
            },
            |_, sum| total += sum,
        )?;
        Ok(total)
    }

    /// Segment-addressed `P(qubit = 1)`: when the lossy codec is
    /// segment-addressable and the measured offset bit sits at or above
    /// segment granularity, only the bit-set half of each block's
    /// segments contributes to the sum — so only those segments are
    /// decoded, and for a spilled block only their byte ranges are read
    /// off disk ([`BlockStore::fetch_ranges`]). `Ok(None)` when the
    /// configured geometry does not qualify (caller falls back to the
    /// whole-block reduce). Per-amplitude summation order matches the
    /// whole-block path exactly, so both paths return bit-identical
    /// probabilities and downstream measurement sampling is unaffected.
    fn prob_one_partial(&self, offset_bit: u32) -> Result<Option<f64>, SimError> {
        let Some(p) = self.codec.partial_codec() else {
            return Ok(None);
        };
        let Some(seg_values) = p.segment_values() else {
            return Ok(None);
        };
        let block_f64s = self.layout.block_amps() * 2;
        if seg_values < 2 || !seg_values.is_power_of_two() || seg_values >= block_f64s {
            return Ok(None);
        }
        let sa_bits = seg_values.trailing_zeros() - 1;
        if offset_bit < sa_bits {
            return Ok(None);
        }
        // Prefetch hints use the configured geometry; each stream's own
        // index re-derives the real one when the block is read.
        let bit = 1usize << offset_bit;
        let n_segs = block_f64s.div_ceil(seg_values);
        let hint_segs: Vec<usize> = (0..n_segs).filter(|&s| (s << sa_bits) & bit != 0).collect();
        let Some(hint_run) = partial::covering_run(&hint_segs) else {
            return Ok(None);
        };
        let bpr = self.layout.blocks_per_rank();
        let all: Vec<usize> = (0..bpr).collect();
        self.announce_plan(&all, None);
        let prefix_hint = SegmentIndex::prefix_len_for(block_f64s, seg_values);
        let sums = (0..bpr)
            .map(|b| {
                if b + 1 < bpr {
                    self.store.prefetch_ranges(&[(b + 1, hint_run.clone())]);
                }
                self.prob_one_partial_block(p, b, prefix_hint, offset_bit)
            })
            .collect::<Result<Vec<f64>, SimError>>()?;
        Ok(Some(sums.into_iter().sum()))
    }

    /// One block's term of the partial `P(qubit = 1)` reduce: byte-range
    /// read when the store can serve one, segment decode from the full
    /// resident bytes otherwise, whole-block decode as the last resort.
    fn prob_one_partial_block(
        &self,
        p: &dyn PartialCodec,
        b: usize,
        prefix_hint: usize,
        offset_bit: u32,
    ) -> Result<f64, SimError> {
        let bit = 1usize << offset_bit;
        let seg_sum = |segs: &[usize],
                       body_of: &mut dyn FnMut(usize) -> Result<Vec<f64>, SimError>|
         -> Result<f64, SimError> {
            let mut sum = 0.0;
            let mut decode = Duration::ZERO;
            for &s in segs {
                let t = Instant::now();
                let vals = body_of(s)?;
                decode += t.elapsed();
                for o in 0..vals.len() / 2 {
                    sum += vals[2 * o] * vals[2 * o] + vals[2 * o + 1] * vals[2 * o + 1];
                }
            }
            self.metrics.add(Phase::Decompression, decode);
            Ok(sum)
        };

        // Byte-range path: a spilled segmented frame serves exactly the
        // selected segments' bytes off disk.
        let mut parsed: Option<(SegmentIndex, Vec<usize>)> = None;
        let fetched = self.store.fetch_ranges(b, prefix_hint, &mut |prefix| {
            let Ok(Some(index)) = SegmentIndex::parse(prefix) else {
                return Vec::new();
            };
            let Some(sa_bits) = partial::seg_amp_bits(&index) else {
                return Vec::new();
            };
            let Some(segs) = partial::bit_set_segments(&index, sa_bits, offset_bit) else {
                return Vec::new();
            };
            let ranges = segs.iter().map(|&s| index.byte_range(s)).collect();
            parsed = Some((index, segs));
            ranges
        })?;
        if let Some(rf) = fetched {
            if rf.codec == self.codec.lossy_id() {
                if let Some((index, segs)) = parsed {
                    let sum = seg_sum(&segs, &mut |s| {
                        let range = index.byte_range(s);
                        let body = rf.part_covering(&range).ok_or_else(|| {
                            SimError::from(CodecError::Corrupt(format!(
                                "range fetch missing segment {s} of slot {b}"
                            )))
                        })?;
                        let mut vals = Vec::with_capacity(index.value_range(s).len());
                        p.decompress_segment(&index, s, body, &mut vals)?;
                        Ok(vals)
                    })?;
                    let st = partial::partial_stats(&index, &segs, rf.payload_len);
                    self.metrics.add_partial_decode(
                        st.segments,
                        st.segments_full,
                        st.bytes,
                        st.bytes_full,
                    );
                    return Ok(sum);
                }
            }
        }

        // Resident path: decode only the selected segments of the full
        // in-memory stream.
        let blk = self.store.peek(b)?;
        if let Some(pf) = self.codec.partial_for(&blk) {
            if let Some(index) = pf.segment_index(&blk.bytes)? {
                if let Some(segs) = partial::seg_amp_bits(&index)
                    .and_then(|sa| partial::bit_set_segments(&index, sa, offset_bit))
                {
                    let sum = seg_sum(&segs, &mut |s| {
                        let range = index.byte_range(s);
                        let body = blk.bytes.get(range).ok_or_else(|| {
                            SimError::from(CodecError::Corrupt(format!(
                                "segment {s} body out of bounds in slot {b}"
                            )))
                        })?;
                        let mut vals = Vec::with_capacity(index.value_range(s).len());
                        pf.decompress_segment(&index, s, body, &mut vals)?;
                        Ok(vals)
                    })?;
                    let st = partial::partial_stats(&index, &segs, blk.bytes.len());
                    self.metrics.add_partial_decode(
                        st.segments,
                        st.segments_full,
                        st.bytes,
                        st.bytes_full,
                    );
                    return Ok(sum);
                }
            }
        }

        // Whole-block fallback (lossless blocks, foreign streams).
        let mut buf = self.codec.take_amp_buf();
        decode_timed(&self.codec, &self.metrics, self.layout, &blk, &mut buf)?;
        let sum = (0..buf.len() / 2)
            .filter(|o| o & bit != 0)
            .map(|o| buf[2 * o] * buf[2 * o] + buf[2 * o + 1] * buf[2 * o + 1])
            .sum();
        self.codec.put_amp_buf(buf);
        Ok(sum)
    }

    /// The frozen state's [`QuerySummary`]: built by one pass over the
    /// rank's blocks on the first call after a mutation, answered from
    /// memory — no decode, no store read — on every later one.
    fn summary(&self) -> Result<&QuerySummary, SimError> {
        if let Some(summary) = self.summary.get() {
            return Ok(summary);
        }
        let layout = self.layout;
        let rank = self.rank;
        let codec = Arc::clone(&self.codec);
        let metrics = self.metrics.clone();
        let mut summary = QuerySummary::new(layout);
        self.map_blocks(
            |_, blk| {
                let mut buf = codec.take_amp_buf();
                decode_timed(&codec, &metrics, layout, blk, &mut buf)?;
                let terms = QuerySummary::block_terms(layout, &mut buf);
                codec.put_amp_buf(buf);
                Ok(terms)
            },
            |b, (weight, row)| summary.push_block(layout.join(rank, b, 0), weight, &row),
        )?;
        // Two racing first queries build the same bits; either may win.
        Ok(self.summary.get_or_init(|| summary))
    }

    /// The rank's term of the squared 2-norm: the sum of the weights.
    fn norm_sqr(&self) -> Result<f64, SimError> {
        Ok(self.summary()?.weights().iter().sum())
    }

    /// Per-block squared norms, in block order (the sampling weights).
    fn weights(&self) -> Result<Vec<f64>, SimError> {
        Ok(self.summary()?.weights().to_vec())
    }

    fn expectation_zz(&self, a: usize, b: usize) -> Result<f64, SimError> {
        Ok(self.summary()?.zz(a, b))
    }
}

/// Decode one of `layout`'s blocks into `buf`, charging the time to the
/// Decompression lane: query waves decode outside the unit pipeline that
/// times gate waves. A stream that decodes to another length than the
/// layout's block is corrupt.
pub(crate) fn decode_timed(
    codec: &BlockCodec,
    metrics: &Metrics,
    layout: Layout,
    blk: &CompressedBlock,
    buf: &mut Vec<f64>,
) -> Result<(), SimError> {
    metrics.time(Phase::Decompression, || codec.decompress(blk, buf))?;
    let block_f64s = 2 * layout.block_amps();
    if buf.len() != block_f64s {
        return Err(CodecError::Corrupt(format!(
            "block decodes to {} values, layout has {block_f64s}",
            buf.len()
        ))
        .into());
    }
    Ok(())
}

/// One work unit: a single block, or a pair of blocks whose amplitudes are
/// gate partners (local pair or an exchange pair on the leader).
struct Unit {
    slot_a: usize,
    slot_b: Option<usize>,
    in_a: CompressedBlock,
    in_b: Option<CompressedBlock>,
}

struct UnitOut {
    slot_a: usize,
    slot_b: Option<usize>,
    out_a: CompressedBlock,
    out_b: Option<CompressedBlock>,
    timings: [Duration; 4],
    compressed_lossy: bool,
    /// False when the block cache answered and no cycle ran.
    cache_hit: bool,
    /// Gate kernels applied during the cycle (0 on a cache hit).
    gates_applied: u64,
    /// Set when the unit ran through the segment-addressable partial
    /// path instead of a whole-block cycle.
    partial: Option<PartialStats>,
}

/// Which pair-update kernel a unit runs.
#[derive(Debug, Clone, Copy)]
enum Kernel {
    /// Pairs within one block, differing at `offset_bit`.
    InBlock { offset_bit: u32 },
    /// Pairs across two blocks at the same offset.
    Cross,
}

/// In-block pair update over a whole scratch buffer, splitting the buffer
/// into pair-aligned segments across the rank's rayon width when `wide`.
fn run_in_block_kernel(buf: &mut [f64], offset_bit: u32, gate: &Gate1, cmask: usize, wide: bool) {
    let pair_f64 = (1usize << (offset_bit + 1)) * 2;
    let chunk_f64 = pair_f64.max(MIN_SEGMENT_F64);
    if !wide || buf.len() <= chunk_f64 {
        kernels::apply_in_block(buf, offset_bit, gate, cmask);
        return;
    }
    buf.par_chunks_mut(chunk_f64)
        .enumerate()
        .for_each(|(k, seg)| {
            kernels::apply_in_block_at(seg, k * chunk_f64 / 2, offset_bit, gate, cmask);
        });
}

#[allow(clippy::too_many_arguments)]
fn process_one(
    codec: &BlockCodec,
    cache: &BlockCache,
    gate: &Gate1,
    kernel: Kernel,
    offset_cmask: usize,
    op_signature: u64,
    bound: ErrorBound,
    unit: Unit,
    wide: bool,
    partial: bool,
) -> Result<UnitOut, SimError> {
    let mut timings = [Duration::ZERO; 4];

    // Cache lookup (§3.4): skips decompress + compute + compress.
    let miss = match cache.lookup(op_signature, &unit.in_a, unit.in_b.as_ref()) {
        Ok((out_a, out_b)) => {
            return Ok(UnitOut {
                slot_a: unit.slot_a,
                slot_b: unit.slot_b,
                out_a,
                out_b,
                timings,
                compressed_lossy: false,
                cache_hit: true,
                gates_applied: 0,
                partial: None,
            })
        }
        Err(miss) => miss,
    };

    // Partial fast path: a diagonal gate whose touched set covers at
    // most half the block's segments decodes and re-encodes only those.
    if partial && unit.in_b.is_none() {
        if let Kernel::InBlock { offset_bit } = kernel {
            if let Some(op) =
                partial::partial_gate(codec, &unit.in_a, gate, offset_bit, offset_cmask, bound)?
            {
                timings[1] += op.decompress;
                timings[3] += op.compute;
                timings[0] += op.compress;
                cache.insert(miss, &op.block, None);
                return Ok(UnitOut {
                    slot_a: unit.slot_a,
                    slot_b: None,
                    out_a: op.block,
                    out_b: None,
                    timings,
                    compressed_lossy: bound.is_lossy(),
                    cache_hit: false,
                    gates_applied: 1,
                    partial: Some(op.stats),
                });
            }
        }
    }

    // Decompress (into the MCDRAM-modeled scratch, pooled so steady-state
    // waves recycle warm buffers instead of allocating per block).
    let t = Instant::now();
    let mut buf_a = codec.take_amp_buf();
    let mut buf_b = codec.take_amp_buf();
    codec.decompress(&unit.in_a, &mut buf_a)?;
    if let Some(in_b) = &unit.in_b {
        codec.decompress(in_b, &mut buf_b)?;
    }
    timings[1] += t.elapsed();

    // Compute.
    let t = Instant::now();
    match kernel {
        Kernel::InBlock { offset_bit } => {
            run_in_block_kernel(&mut buf_a, offset_bit, gate, offset_cmask, wide);
        }
        Kernel::Cross => {
            kernels::apply_cross(&mut buf_a, &mut buf_b, gate, offset_cmask);
        }
    }
    timings[3] += t.elapsed();

    // Recompress.
    let t = Instant::now();
    let out_a = codec.compress_pooled(&buf_a, bound)?;
    let out_b = if unit.in_b.is_some() {
        Some(codec.compress_pooled(&buf_b, bound)?)
    } else {
        None
    };
    timings[0] += t.elapsed();
    codec.put_amp_buf(buf_b);
    codec.put_amp_buf(buf_a);

    cache.insert(miss, &out_a, out_b.as_ref());

    Ok(UnitOut {
        slot_a: unit.slot_a,
        slot_b: unit.slot_b,
        out_a,
        out_b,
        timings,
        compressed_lossy: bound.is_lossy(),
        cache_hit: false,
        gates_applied: 1,
        partial: None,
    })
}

/// One block plus the subset of batch gates that fire on it.
struct BatchUnit {
    slot: usize,
    mask: u64,
    block: CompressedBlock,
}

/// Decompress once, apply every selected gate, recompress once.
///
/// The cache key mixes the batch signature with the unit's selection mask:
/// byte-identical blocks with different applicable-gate subsets must never
/// share a line, and one lookup/insert happens per block touch (not per
/// member gate).
#[allow(clippy::too_many_arguments)]
fn process_batch_unit(
    codec: &BlockCodec,
    cache: &BlockCache,
    plans: &[BatchPlan],
    batch_signature: u64,
    bound: ErrorBound,
    unit: BatchUnit,
    wide: bool,
    partial: bool,
) -> Result<UnitOut, SimError> {
    let mut timings = [Duration::ZERO; 4];
    let sig = mix(batch_signature, unit.mask);

    let miss = match cache.lookup(sig, &unit.block, None) {
        Ok((out, _)) => {
            return Ok(UnitOut {
                slot_a: unit.slot,
                slot_b: None,
                out_a: out,
                out_b: None,
                timings,
                compressed_lossy: false,
                cache_hit: true,
                gates_applied: 0,
                partial: None,
            })
        }
        Err(miss) => miss,
    };

    // Partial fast path: when every firing gate is diagonal and their
    // touched segments together cover at most half the block, decode
    // that union once and apply the gates in order.
    if partial {
        if let Some(op) = partial::partial_batch(codec, &unit.block, plans, unit.mask, bound)? {
            timings[1] += op.decompress;
            timings[3] += op.compute;
            timings[0] += op.compress;
            cache.insert(miss, &op.block, None);
            return Ok(UnitOut {
                slot_a: unit.slot,
                slot_b: None,
                out_a: op.block,
                out_b: None,
                timings,
                compressed_lossy: bound.is_lossy(),
                cache_hit: false,
                gates_applied: unit.mask.count_ones() as u64,
                partial: Some(op.stats),
            });
        }
    }

    let t = Instant::now();
    let mut buf = codec.take_amp_buf();
    codec.decompress(&unit.block, &mut buf)?;
    timings[1] += t.elapsed();

    let t = Instant::now();
    let mut gates = 0u64;
    for (i, plan) in plans.iter().enumerate() {
        if unit.mask & (1 << i) == 0 {
            continue;
        }
        run_in_block_kernel(
            &mut buf,
            plan.offset_bit,
            &plan.gate,
            plan.offset_cmask,
            wide,
        );
        gates += 1;
    }
    timings[3] += t.elapsed();

    let t = Instant::now();
    let out = codec.compress_pooled(&buf, bound)?;
    timings[0] += t.elapsed();
    codec.put_amp_buf(buf);

    cache.insert(miss, &out, None);

    Ok(UnitOut {
        slot_a: unit.slot,
        slot_b: None,
        out_a: out,
        out_b: None,
        timings,
        compressed_lossy: bound.is_lossy(),
        cache_hit: false,
        gates_applied: gates,
        partial: None,
    })
}
