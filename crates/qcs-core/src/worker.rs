//! Per-rank execution state: each [`RankWorker`] owns exactly its rank's
//! `blocks_per_rank` compressed blocks plus its handles on the shared
//! codec/cache/metrics state, and answers the [`WorkerCmd`] protocol the
//! facade in [`crate::engine`] speaks.
//!
//! This is the half of the paper's MPI rank that lives *on* the rank: the
//! decompress → compute → recompress block cycle (§3.2), the per-rank
//! slice of every collective (probability sums, collapses, snapshots), and
//! the rank's side of the §3.3 case (c) exchange. The other half — thread
//! placement, scatter/gather, and pairing ranks for exchanges — lives in
//! [`qcs_cluster::exec`].
//!
//! # One cycle, one walker, one decode
//!
//! The paper's whole engine is one inner loop, and each step of it is
//! written once here:
//!
//! - **the decode seam**, [`decode_block`]: pooled scratch checkout, timed
//!   `codec.decompress`, and the decoded length checked against the
//!   layout's block — every whole-block decode of the engine goes through
//!   it (gate, batch, exchange, collapse, recompress and query waves, and
//!   the facade's snapshot and sampling reads), so a block of the wrong
//!   length — from a checkpoint, a spill segment or a peer's `Hello` — is
//!   `CodecError::Corrupt` on every path instead of an out-of-bounds index
//!   in a kernel or a silently half-updated pair;
//! - **one cycle per arity**, `Cycle::block` (one block through a plan
//!   list: cache lookup → decode → kernels → encode → cache insert) and
//!   `Cycle::pair` (two partner blocks through
//!   [`kernels::apply_cross`], two in and two out). A lone in-block gate
//!   is a batch of one plan — [`RankWorker`] lowers it on arrival, the
//!   facade and the wire still send a `GateCmd`;
//! - **one cache key**, `Cycle::op_key`: a §3.4 line's `OP` is derived
//!   from what the cycle computes — each applied gate's matrix, offset bit
//!   and in-block control mask, then the bound — never from block or rank
//!   masks, which only decide *whether* a block is touched. A hit is
//!   charged like the recompression it replays, and hits and misses are
//!   counted in the rank's metrics like any other cycle;
//! - **one mutating wave walker**, `RankWorker::walk`: announce the plan →
//!   chunk → `fetch_many` → one unit on the calling thread or many across
//!   rayon → merge metrics → `put`. Pair waves, batch waves, collapse and
//!   recompress are each a unit list — read off the [`Layout`] slot
//!   functions — and a cycle closure handed to it;
//!   `RankWorker::map_blocks` is its read-only twin for queries (peeks
//!   instead of takes, no write-back).
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
//!  route gate / plan batch / pick collective
//!        │
//!        │  ClusterSim::dispatch(Vec<WorkerCmd>)      MPI_Scatter over
//!        ▼                                            MPI_COMM_WORLD
//!  ┌─ rank 0 ──────┐  ┌─ rank 1 ──────┐
//!  │ RankWorker     │  │ RankWorker     │             one MPI rank each
//!  │  ::handle(cmd) │  │  ::handle(cmd) │             (its event loop)
//!  │                │  │                │
//!  │ Gate/Batch/Collapse/Recompress — `walk`          §3.2 block cycle
//!  │ announces its own units                          on the rank's own
//!  │ (plan_accesses, read by MIN), then one           memory (MCDRAM
//!  │ residency-budget chunk at a time:                scratch)
//!  │  fetch_many(chunk k)   coalesced reads on
//!  │    this thread
//!  │  ─▶ Cycle::block or ::pair: decode_block
//!  │  (length checked) ─▶ kernel ─▶ recompress
//!  │  ─▶ store.put (an eviction writes its
//!  │  victim's frame on this thread)
//!  │                │  │                │
//!  │ Exchange:      │◀─┼─ Duplex link ─▶│             MPI_Sendrecv of
//!  │  leader recv/  │  │ follower sends │             compressed blocks
//!  │  Cycle::pair/  │  │ then installs  │             (§3.3 case (c))
//!  │  send          │  │                │
//!  │                │  │                │
//!  │ Prob/Norm/     │  │ first one after│             the rank's term of
//!  │  Weights/Zz:   │  │ a mutation: one│             an MPI_Allreduce,
//!  │  read from the │  │ map_blocks walk│             its operand kept
//!  │  QuerySummary /│  │ (read-only,    │             per frozen state;
//!  │  per-qubit memo│  │ planned and    │             any mutating
//!  │  — no decode   │  │ chunked) fills │             command drops it
//!  │                │  │ it; Gate..Re-  │
//!  │                │  │ compr. drop it │
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
//! builds in one pass, and `ProbOne` from a per-qubit memo that the first
//! `ProbOne` on that qubit fills with one whole-block pass; every
//! mutating command drops both;
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
//! out-of-core (`SpillStore`, hot blocks resident under a budget, cold
//! blocks in per-rank segment files). Every planned wave — gate, batch,
//! recompress and collapse (`walk`), exchange, and query (`map_blocks`) —
//! makes one planning call, [`BlockStore::plan_accesses`] with its own
//! ordered slots, then consumes those slots in order, a chunk of at most
//! a residency budget at a time, each with one coalesced
//! [`BlockStore::fetch_many`]. A spilling store stages the budget of
//! slots after each consumption in the background, so the wave's next
//! chunk streams off disk instead of blocking on a seek-and-read per
//! block. The window is one wave: a wave's last chunk stages nothing,
//! and the next wave starts from its own announcement.
//!
//! # The compressed exchange
//!
//! A `Route::InterRank` gate pairs rank `r` with rank `r | stride`. The
//! higher rank (the *follower*) streams its selected compressed blocks to
//! the lower rank (the *leader*) over a [`Duplex`] link and the leader
//! does the math — the same `Cycle::pair` a local inter-block pair runs:
//! decode both payloads, the shared [`kernels::apply_cross`] update,
//! recompress both — and sends the partner's updated block back, still
//! compressed. Only compressed bytes
//! ever cross the link, mirroring the paper's MPI exchange, and because
//! the links are buffered the follower's sends overlap with the leader's
//! (de)compression. Communication time and bytes are accounted on the
//! leader (the follower's blocking wait is overlap, not traffic).

use crate::block::{BlockCodec, CompressedBlock};
use crate::cache::BlockCache;
use crate::engine::SimError;
use crate::store::BlockStore;
use crate::summary::QuerySummary;
use qcs_circuits::schedule::MAX_BATCH_GATES;
use qcs_cluster::{exec, ControlScope, Duplex, Layout, Metrics, Phase, Route};
use qcs_compress::checksum::checksum64;
use qcs_compress::{CodecError, ErrorBound};
use qcs_statevec::{kernels, Gate1};
use rayon::prelude::*;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// A compressed block in flight between two paired rank workers, tagged
/// with its block index within the rank.
pub(crate) type BlockMsg = (usize, CompressedBlock);

/// One (possibly controlled) single-qubit gate wave, pre-routed by the
/// facade. `route` is never `InterRank` — rank-crossing gates go through
/// [`ExchangeCmd`] instead.
#[derive(Clone)]
#[cfg_attr(test, derive(Debug, PartialEq))]
pub(crate) struct GateCmd {
    pub gate: Gate1,
    pub route: Route,
    pub offset_cmask: usize,
    pub block_cmask: usize,
    pub rank_cmask: usize,
    pub bound: ErrorBound,
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
    pub gate: Gate1,
    pub offset_cmask: usize,
    pub block_cmask: usize,
    pub bound: ErrorBound,
    pub role: ExchangeRole,
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

/// An intra-block [`qcs_circuits::GateBatch`] wave: plans shared by every
/// rank of the wave.
#[derive(Clone)]
#[cfg_attr(test, derive(Debug, PartialEq))]
pub(crate) struct BatchCmd {
    pub plans: Arc<Vec<BatchPlan>>,
    pub bound: ErrorBound,
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
        match self {
            WorkerCmd::Gate(g) => {
                masks(g.offset_cmask, g.block_cmask, g.rank_cmask)?;
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
            WorkerCmd::Exchange(x) => masks(x.offset_cmask, x.block_cmask, 0),
            WorkerCmd::Batch(b) => {
                if b.plans.len() > MAX_BATCH_GATES {
                    return Err(format!(
                        "batch of {} gates exceeds the {MAX_BATCH_GATES}-gate cap",
                        b.plans.len()
                    ));
                }
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
    /// Always equal to `resident_bytes`: a store holds no background
    /// buffer, so resident bytes are already deterministic. The field
    /// stays in the wire layout.
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
    /// The frozen state's [`QuerySummary`], built by the first
    /// `Weights`/`NormSqr`/`ExpectationZz` after a mutation and dropped
    /// by the next one ([`RankWorker::mutate`]). Behind a `OnceLock`
    /// because queries run through `&self`.
    summary: OnceLock<QuerySummary>,
    /// The frozen state's `P(qubit = 1)` terms, one slot per qubit, each
    /// filled by the first `ProbOne` on that qubit after a mutation and
    /// dropped with the summary.
    prob_ones: Vec<OnceLock<f64>>,
    /// The error of the first mutating command that failed. Its wave's
    /// fetched blocks never went back to the store, so the rank's state is
    /// gone: every later command is answered with this error.
    failed: Option<SimError>,
}

impl exec::Worker for RankWorker {
    type Cmd = WorkerCmd;
    type Resp = Result<WorkerOut, SimError>;

    fn handle(&mut self, cmd: WorkerCmd) -> Result<WorkerOut, SimError> {
        let out = match cmd {
            WorkerCmd::Gate(g) => self.mutate(|w| w.apply_gate(&g)),
            WorkerCmd::Exchange(x) => self.mutate(|w| w.exchange(x)),
            WorkerCmd::Batch(b) => self.mutate(|w| w.apply_batch(&b)),
            WorkerCmd::Collapse {
                scope,
                outcome,
                scale,
                bound,
            } => self.mutate(|w| w.collapse(scope, outcome, scale, bound)),
            WorkerCmd::Recompress { bound } => self.mutate(|w| w.recompress_all(bound)),
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
    ) -> Self {
        debug_assert_eq!(store.len(), layout.blocks_per_rank());
        Self {
            rank,
            layout,
            codec,
            cache,
            metrics,
            store,
            summary: OnceLock::new(),
            prob_ones: (0..layout.num_qubits).map(|_| OnceLock::new()).collect(),
            failed: None,
        }
    }

    /// Every mutating arm of [`RankWorker::handle`], and nowhere else: the
    /// blocks are about to change, so drop the frozen state's summary and
    /// probabilities, run the wave, and keep the error if it fails.
    fn mutate(
        &mut self,
        wave: impl FnOnce(&mut Self) -> Result<WaveOut, SimError>,
    ) -> Result<WorkerOut, SimError> {
        self.refuse_if_failed()?;
        self.summary.take();
        for p in &mut self.prob_ones {
            p.take();
        }
        let out = wave(self);
        if let Err(e) = &out {
            self.failed = Some(e.clone());
        }
        out.map(WorkerOut::Wave)
    }

    /// A rank whose mutating wave failed answers nothing else.
    fn refuse_if_failed(&self) -> Result<(), SimError> {
        self.failed.clone().map_or(Ok(()), Err)
    }

    fn wave_out(&self, lossy: bool) -> WaveOut {
        let resident_bytes = self.store.resident_bytes();
        WaveOut {
            lossy,
            compressed_bytes: self.store.compressed_bytes(),
            resident_bytes,
            hot_bytes: resident_bytes,
        }
    }

    /// How many blocks a wave may hold in flight at once: the store's
    /// residency cap, or everything when the store is all-resident.
    fn flight_budget(&self) -> usize {
        self.store
            .resident_cap()
            .unwrap_or_else(|| self.layout.blocks_per_rank())
            .max(1)
    }

    /// Announce a wave's own ordered slot accesses to a store that reads
    /// plans (a MIN spill tier picks victims by it).
    /// Skipped when the store ignores plans, so all-resident runs build
    /// no window.
    fn announce_plan(&self, wave_slots: impl IntoIterator<Item = usize>) {
        if self.store.wants_plan() {
            let window: Vec<usize> = wave_slots.into_iter().collect();
            self.store.plan_accesses(&window);
        }
    }

    /// Read-only commands, answerable through `&self` (the facade calls
    /// this directly on the local path so queries stay `&self` there too).
    pub(crate) fn query(&self, cmd: WorkerCmd) -> Result<WorkerOut, SimError> {
        self.refuse_if_failed()?;
        match cmd {
            WorkerCmd::ProbOne { scope } => self.prob_one(scope).map(WorkerOut::Scalar),
            WorkerCmd::NormSqr => self.norm_sqr().map(WorkerOut::Scalar),
            WorkerCmd::Weights => self.weights().map(WorkerOut::Weights),
            WorkerCmd::FetchBlock { block } => Ok(WorkerOut::Block(self.store.peek(block)?)),
            WorkerCmd::SnapshotBlocks => Ok(WorkerOut::Blocks(
                (0..self.store.len())
                    .map(|b| self.store.peek(b))
                    .collect::<Result<_, _>>()?,
            )),
            WorkerCmd::ExpectationZz { a, b } => self.expectation_zz(a, b).map(WorkerOut::Scalar),
            WorkerCmd::Nop => Ok(WorkerOut::Scalar(0.0)),
            _ => unreachable!("mutating command sent through the query path"),
        }
    }

    // --- gate and batch waves ---------------------------------------------

    /// What a block cycle of a wave compressing under `bound` needs from
    /// this rank.
    fn cycle(&self, bound: ErrorBound) -> Cycle<'_> {
        Cycle {
            codec: &self.codec,
            cache: &self.cache,
            layout: self.layout,
            bound,
        }
    }

    fn apply_gate(&mut self, cmd: &GateCmd) -> Result<WaveOut, SimError> {
        // A rank the gate's rank-scope controls deselect makes no store call.
        if self.rank & cmd.rank_cmask != cmd.rank_cmask {
            return Ok(self.wave_out(false));
        }
        match cmd.route {
            // A lone in-block gate is a batch of one.
            Route::InBlock { offset_bit } => self.apply_batch(&BatchCmd {
                plans: Arc::new(vec![BatchPlan {
                    gate: cmd.gate,
                    offset_bit,
                    offset_cmask: cmd.offset_cmask,
                    block_cmask: cmd.block_cmask,
                    rank_cmask: cmd.rank_cmask,
                }]),
                bound: cmd.bound,
            }),
            Route::InterBlock { block_stride } => {
                let units: Vec<([usize; 2], ())> = self
                    .layout
                    .block_pairs(block_stride, cmd.block_cmask)
                    .map(|pair| (pair, ()))
                    .collect();
                let cycle = self.cycle(cmd.bound);
                self.walk(&units, |_, [a, b], _| {
                    cycle.pair(&cmd.gate, cmd.offset_cmask, &a, &b)
                })
            }
            Route::InterRank { .. } => {
                unreachable!("inter-rank gates are exchange commands")
            }
        }
    }

    fn apply_batch(&mut self, cmd: &BatchCmd) -> Result<WaveOut, SimError> {
        // One unit per local block some gate selects, with the subset of
        // gates that fire on it.
        let masks: Vec<_> = cmd
            .plans
            .iter()
            .map(|p| (p.block_cmask, p.rank_cmask))
            .collect();
        let units: Vec<([usize; 1], u64)> = self
            .layout
            .batch_units(self.rank, &masks)
            .into_iter()
            .map(|(b, mask)| ([b], mask))
            .collect();
        let cycle = self.cycle(cmd.bound);
        self.walk(&units, |&(_, mask), [blk], wide| {
            let (out, stats) = cycle.block(&cmd.plans, mask, &blk, wide)?;
            Ok(([out], stats))
        })
    }

    /// The one mutating wave walker: run `cycle` over every unit of a
    /// wave — `N` blocks in, `N` blocks out — and write the results back.
    ///
    /// The wave's planned slots are announced to a store that reads
    /// plans, then walked in chunks so at most the store's residency
    /// budget of blocks is in flight at once: each chunk is one coalesced
    /// [`BlockStore::fetch_many`] on this thread, the chunk's units
    /// stripe across rayon, and their metrics and blocks are merged and
    /// put back in unit order. A chunk of one unit runs on the calling
    /// thread and is told so (`wide`), so a rank with one big block still
    /// uses its whole rayon width inside the kernel. Per-worker scratch
    /// comes from the codec's pool inside the cycle.
    fn walk<const N: usize, T: Sync>(
        &self,
        units: &[([usize; N], T)],
        cycle: impl Fn(
                &([usize; N], T),
                [CompressedBlock; N],
                bool,
            ) -> Result<([CompressedBlock; N], CycleStats), SimError>
            + Sync,
    ) -> Result<WaveOut, SimError> {
        self.announce_plan(units.iter().flat_map(|u| u.0));
        let mut lossy = false;
        for chunk in units.chunks((self.flight_budget() / N).max(1)) {
            let slots: Vec<usize> = chunk.iter().flat_map(|u| u.0).collect();
            let mut fetched = self.store.fetch_many(&slots)?.into_iter();
            let wide = chunk.len() == 1;
            let taken: Vec<_> = chunk
                .iter()
                .map(|u| {
                    let blocks = std::array::from_fn(|_| {
                        fetched.next().expect("one fetched block per planned slot")
                    });
                    (u, blocks)
                })
                .collect();
            let results: Result<Vec<_>, SimError> = taken
                .into_par_iter()
                .map(|(u, blocks)| cycle(u, blocks, wide))
                .collect();
            for ((slots, _), (blocks, stats)) in chunk.iter().zip(results?) {
                self.merge(&stats);
                lossy |= stats.lossy;
                for (&slot, blk) in slots.iter().zip(blocks) {
                    self.store.put(slot, blk)?;
                }
            }
        }
        Ok(self.wave_out(lossy))
    }

    /// Fold one cycle's timings and touch counts into the shared metrics.
    fn merge(&self, stats: &CycleStats) {
        self.metrics.add(Phase::Compression, stats.compress);
        self.metrics.add(Phase::Decompression, stats.decompress);
        self.metrics.add(Phase::Computation, stats.compute);
        if let Some(gates) = stats.touch {
            self.metrics.add_block_touch(gates);
        }
        if let Some(hit) = stats.cache {
            self.metrics.add_cache_lookup(hit);
        }
    }

    // --- inter-rank exchange ---------------------------------------------

    fn exchange(&mut self, mut cmd: ExchangeCmd) -> Result<WaveOut, SimError> {
        match std::mem::replace(&mut cmd.role, ExchangeRole::Idle) {
            ExchangeRole::Idle => Ok(self.wave_out(false)),
            ExchangeRole::Follow(link) => self.exchange_follow(&cmd, link),
            ExchangeRole::Lead(link) => self.exchange_lead(&cmd, link),
        }
    }

    /// The next block off an exchange link, which must be `due`: both
    /// sides stream in the order of the selected blocks, and a block
    /// index from a socket is a peer's bytes, not a slot to index with.
    fn recv_due(link: &Duplex<BlockMsg>, due: usize) -> Result<CompressedBlock, SimError> {
        match link.recv() {
            Some((b, blk)) if b == due => Ok(blk),
            Some((b, _)) => Err(SimError::Exchange(format!(
                "peer sent block {b} where block {due} was due"
            ))),
            None => Err(SimError::Exchange("peer rank failed mid-exchange".into())),
        }
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
        let sel: Vec<usize> = self.layout.selected_blocks(cmd.block_cmask).collect();
        self.announce_plan(sel.iter().copied());
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
        for &b in &sel {
            let blk = Self::recv_due(&link, b)?;
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
        let sel: Vec<usize> = self.layout.selected_blocks(cmd.block_cmask).collect();
        self.announce_plan(sel.iter().copied());
        let cycle = self.cycle(cmd.bound);
        let mut lossy = false;
        for &b in &sel {
            let t = Instant::now();
            let partner = Self::recv_due(&link, b)?;
            self.metrics.add(Phase::Communication, t.elapsed());
            let own = self.store.take(b)?;
            let inbound = partner.len() as u64;

            let ([own, back], stats) = cycle.pair(&cmd.gate, cmd.offset_cmask, &own, &partner)?;
            self.merge(&stats);
            lossy |= stats.lossy;
            let outbound = back.len() as u64;
            let t = Instant::now();
            if !link.send((b, back)) {
                return Err(SimError::Exchange("peer rank dropped the link".into()));
            }
            self.metrics.add(Phase::Communication, t.elapsed());
            self.store.put(b, own)?;
            self.metrics.add_comm_bytes(inbound + outbound);
            self.metrics.add_exchange();
        }
        Ok(self.wave_out(lossy))
    }

    // --- collectives ------------------------------------------------------

    /// Every local block as a one-block wave unit (collapse, recompress).
    fn all_blocks(&self) -> Vec<([usize; 1], ())> {
        self.layout.selected_blocks(0).map(|b| ([b], ())).collect()
    }

    fn collapse(
        &mut self,
        scope: ControlScope,
        outcome: bool,
        scale: f64,
        bound: ErrorBound,
    ) -> Result<WaveOut, SimError> {
        let (layout, rank) = (self.layout, self.rank);
        let cycle = self.cycle(bound);
        self.walk(&self.all_blocks(), |&([b], ()), [blk], _| {
            let mut stats = CycleStats::default();
            let mut buf = cycle.decode(&blk, &mut stats)?;
            let t = Instant::now();
            let project = |vals: &mut [f64], keep: bool| {
                if keep {
                    vals.iter_mut().for_each(|v| *v *= scale);
                } else {
                    vals.fill(0.0);
                }
            };
            match scope {
                ControlScope::InBlock { offset_bit } => {
                    let bit = 1usize << offset_bit;
                    for (o, amp) in buf.chunks_exact_mut(2).enumerate() {
                        project(amp, (o & bit != 0) == outcome);
                    }
                }
                _ => project(
                    &mut buf,
                    layout.block_wide_bit(scope, rank, b) == Some(outcome),
                ),
            }
            stats.compute += t.elapsed();
            Ok(([cycle.encode(&buf, &mut stats)?], stats))
        })
    }

    fn recompress_all(&mut self, bound: ErrorBound) -> Result<WaveOut, SimError> {
        let cycle = self.cycle(bound);
        self.walk(&self.all_blocks(), |_, [blk], _| {
            let mut stats = CycleStats::default();
            let buf = cycle.decode(&blk, &mut stats)?;
            Ok(([cycle.encode(&buf, &mut stats)?], stats))
        })
    }

    /// Map every local block through read-only `f`, handing the per-block
    /// outputs to `fold` strictly in block order. Query waves are planned
    /// and chunked like the mutating ones: chunked to the residency
    /// budget (spilled blocks are peeked from disk without displacing hot
    /// ones), striped across rayon inside each chunk. At most
    /// [`QUERY_CHUNK_BLOCKS`] outputs are in flight between `f` and
    /// `fold`, whatever the store's budget; chunking never reorders the
    /// fold, so the result does not depend on it.
    fn map_blocks<T: Send>(
        &self,
        f: impl Fn(usize, &CompressedBlock) -> Result<T, SimError> + Sync,
        mut fold: impl FnMut(usize, T),
    ) -> Result<(), SimError> {
        let all: Vec<usize> = self.layout.selected_blocks(0).collect();
        self.announce_plan(all.iter().copied());
        for chunk in all.chunks(self.flight_budget().min(QUERY_CHUNK_BLOCKS)) {
            let peeked: Vec<_> = chunk
                .iter()
                .map(|&b| Ok((b, self.store.peek(b)?)))
                .collect::<Result<_, SimError>>()?;
            let results: Result<Vec<T>, SimError> =
                peeked.into_par_iter().map(|(b, blk)| f(b, &blk)).collect();
            for (&b, out) in chunk.iter().zip(results?) {
                fold(b, out);
            }
        }
        Ok(())
    }

    /// The rank's term of `P(qubit = 1)`: one whole-block pass on the
    /// first call after a mutation, remembered per qubit next to the
    /// [`QuerySummary`] and answered from memory — no decode, no store
    /// read — on every later one.
    fn prob_one(&self, scope: ControlScope) -> Result<f64, SimError> {
        let memo = &self.prob_ones[self.layout.scope_qubit(scope) as usize];
        if let Some(&p) = memo.get() {
            return Ok(p);
        }
        let mut total = 0.0;
        self.map_blocks(
            |b, blk| {
                if self.layout.block_wide_bit(scope, self.rank, b) == Some(false) {
                    return Ok(0.0);
                }
                self.bit_set_norm(blk, scope)
            },
            |_, sum| total += sum,
        )?;
        // Two racing first queries sum the same bits; either may win.
        Ok(*memo.get_or_init(|| total))
    }

    /// One whole block's term of `P(qubit = 1)`: the squared norm of the
    /// amplitudes with the qubit's offset bit set, or of every amplitude
    /// for a qubit above the block (the caller skips the blocks where
    /// that one reads 0).
    fn bit_set_norm(&self, blk: &CompressedBlock, scope: ControlScope) -> Result<f64, SimError> {
        let buf = decode_block(&self.codec, self.layout, blk)?;
        self.metrics.add(Phase::Decompression, buf.spent);
        Ok(match scope {
            ControlScope::InBlock { offset_bit } => {
                let bit = 1usize << offset_bit;
                (0..buf.len() / 2)
                    .filter(|o| o & bit != 0)
                    .map(|o| buf[2 * o] * buf[2 * o] + buf[2 * o + 1] * buf[2 * o + 1])
                    .sum()
            }
            _ => buf.iter().map(|v| v * v).sum(),
        })
    }

    /// The frozen state's [`QuerySummary`]: built by one pass over the
    /// rank's blocks on the first call after a mutation, answered from
    /// memory — no decode, no store read — on every later one.
    fn summary(&self) -> Result<&QuerySummary, SimError> {
        if let Some(summary) = self.summary.get() {
            return Ok(summary);
        }
        let layout = self.layout;
        let mut summary = QuerySummary::new(layout);
        self.map_blocks(
            |_, blk| {
                let mut buf = decode_block(&self.codec, layout, blk)?;
                self.metrics.add(Phase::Decompression, buf.spent);
                Ok(QuerySummary::block_terms(layout, &mut buf))
            },
            |b, (weight, row)| summary.push_block(layout.join(self.rank, b, 0), weight, &row),
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

/// The error every path reports for a block whose stream is intact but
/// holds another number of values than the layout's blocks do.
fn wrong_length(decoded: usize, expected: usize) -> CodecError {
    CodecError::Corrupt(format!(
        "block decodes to {decoded} values, layout has {expected}"
    ))
}

/// One whole block decoded into pooled scratch (the two decompressed
/// blocks the paper holds in MCDRAM, §3.2). Derefs to the values; the
/// buffer goes back to the codec's pool when the guard drops.
pub(crate) struct Decoded<'a> {
    codec: &'a BlockCodec,
    buf: Vec<f64>,
    /// Wall time of the decode, for the caller to charge to the
    /// Decompression lane (directly for a query, through [`CycleStats`]
    /// for a block cycle).
    pub spent: Duration,
}

impl std::ops::Deref for Decoded<'_> {
    type Target = Vec<f64>;
    fn deref(&self) -> &Vec<f64> {
        &self.buf
    }
}

impl std::ops::DerefMut for Decoded<'_> {
    fn deref_mut(&mut self) -> &mut Vec<f64> {
        &mut self.buf
    }
}

impl Drop for Decoded<'_> {
    fn drop(&mut self) {
        self.codec.put_amp_buf(std::mem::take(&mut self.buf));
    }
}

/// The decode seam: every whole-block decode of the engine — gate, batch,
/// exchange, collapse, recompress and query waves alike — is this
/// function. It checks pooled scratch out, times the decode, and holds
/// the decoded length to the layout's block: a checkpoint, a spill
/// segment or a peer's `Hello` can carry a block whose stream is intact
/// but shorter or longer than the layout's, and the kernels index scratch
/// by the layout. A stream that *declares* more than the block is refused
/// before it allocates. The scratch returns to the pool on the error
/// paths too.
pub(crate) fn decode_block<'a>(
    codec: &'a BlockCodec,
    layout: Layout,
    blk: &CompressedBlock,
) -> Result<Decoded<'a>, SimError> {
    let t = Instant::now();
    let mut out = Decoded {
        codec,
        buf: codec.take_amp_buf(),
        spent: Duration::ZERO,
    };
    let block_f64s = 2 * layout.block_amps();
    codec.decompress_capped(blk, block_f64s, &mut out.buf)?;
    out.spent = t.elapsed();
    if out.len() != block_f64s {
        return Err(wrong_length(out.len(), block_f64s).into());
    }
    Ok(out)
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

/// What one block cycle reports to the wave walker besides its blocks.
#[derive(Default)]
struct CycleStats {
    decompress: Duration,
    compute: Duration,
    compress: Duration,
    /// The cycle's output was recompressed under a lossy bound — by this
    /// cycle, or by the one that filed the cache line it replays.
    lossy: bool,
    /// Gate kernels applied, when the cycle was a gate's block touch;
    /// `None` when the cache answered or the wave applies no gate
    /// (collapse, recompress).
    touch: Option<u64>,
    /// Whether the block cache answered, when it was consulted.
    cache: Option<bool>,
}

impl CycleStats {
    /// A cache hit: no decode, kernel or encode ran, but the output is the
    /// recompression that filed the line, charged like one.
    fn hit(outs: &[&CompressedBlock]) -> Self {
        Self {
            lossy: outs.iter().any(|b| b.bound.is_lossy()),
            cache: Some(true),
            ..Self::default()
        }
    }
}

/// §3.2's inner loop — decompress into scratch, compute, recompress —
/// written once per arity: [`Cycle::block`] takes one block through a
/// plan list, [`Cycle::pair`] takes two partner blocks through one gate.
/// The struct is what a cycle needs besides its blocks, shared by
/// reference across a wave's rayon workers.
struct Cycle<'a> {
    codec: &'a BlockCodec,
    cache: &'a BlockCache,
    layout: Layout,
    bound: ErrorBound,
}

impl Cycle<'_> {
    /// [`decode_block`], timed into `stats`.
    fn decode(
        &self,
        blk: &CompressedBlock,
        stats: &mut CycleStats,
    ) -> Result<Decoded<'_>, SimError> {
        let buf = decode_block(self.codec, self.layout, blk)?;
        stats.decompress += buf.spent;
        Ok(buf)
    }

    /// Recompress scratch under the wave's bound, timed into `stats`.
    fn encode(&self, buf: &[f64], stats: &mut CycleStats) -> Result<CompressedBlock, SimError> {
        let t = Instant::now();
        let out = self.codec.compress_pooled(buf, self.bound)?;
        stats.compress += t.elapsed();
        stats.lossy = self.bound.is_lossy();
        Ok(out)
    }

    /// The `OP` half of a cache line's key (§3.4), built here only from
    /// what the cycle's output depends on besides its input blocks: per
    /// applied gate, in order, the bits of its matrix entries and where it
    /// acts (`at`: offset bit and in-block control mask; a pair's gate
    /// spans its two blocks and passes offset bit 0), then the bound the
    /// output is recompressed under.
    ///
    /// Each word is folded in through [`checksum64`] of `key ^ word`, a
    /// bijection of the word for a fixed key and of the key for a fixed
    /// word: two keys over equally many words that differ in one word
    /// always differ, and any other difference — say the two sign bits
    /// between `ry(θ)` and `ry(-θ)` — collides with odds 2^-64, where a
    /// linear fold would cancel it.
    fn op_key<'g>(&self, gates: impl IntoIterator<Item = (&'g Gate1, [u64; 2])>) -> u64 {
        let entries = |g: &Gate1| {
            let m = g.m.into_iter().flatten();
            m.flat_map(|e| [e.re.to_bits(), e.im.to_bits()])
        };
        let words = gates.into_iter().flat_map(|(g, at)| entries(g).chain(at));
        let bound = [self.bound.tag().into(), self.bound.magnitude().to_bits()];
        words
            .chain(bound)
            .fold(0, |key, w| checksum64(&(key ^ w).to_le_bytes()))
    }

    /// One block through the plans `mask` selects: decompress once, apply
    /// every firing gate, recompress once — or skip all three on a cache
    /// hit (§3.4). One lookup/insert happens per block touch (not per
    /// member gate).
    fn block(
        &self,
        plans: &[BatchPlan],
        mask: u64,
        input: &CompressedBlock,
        wide: bool,
    ) -> Result<(CompressedBlock, CycleStats), SimError> {
        let fired = |i: &usize| mask >> i & 1 == 1;
        let key = self.op_key((0..plans.len()).filter(fired).map(|i| {
            let p = &plans[i];
            (&p.gate, [p.offset_bit.into(), p.offset_cmask as u64])
        }));
        let miss = match self.cache.lookup(key, input, None) {
            Ok((out, _)) => {
                let stats = CycleStats::hit(&[&out]);
                return Ok((out, stats));
            }
            Err(miss) => miss,
        };
        let mut stats = CycleStats {
            touch: Some(mask.count_ones() as u64),
            cache: miss.counted().then_some(false),
            ..CycleStats::default()
        };
        let mut buf = self.decode(input, &mut stats)?;
        let t = Instant::now();
        for plan in (0..plans.len()).filter(fired).map(|i| &plans[i]) {
            run_in_block_kernel(
                &mut buf,
                plan.offset_bit,
                &plan.gate,
                plan.offset_cmask,
                wide,
            );
        }
        stats.compute += t.elapsed();
        let out = self.encode(&buf, &mut stats)?;
        self.cache.insert(miss, &out, None);
        Ok((out, stats))
    }

    /// Two blocks whose amplitudes are gate partners at equal offsets (a
    /// local inter-block pair, or an exchange pair on the leader) through
    /// the shared [`kernels::apply_cross`] update: two blocks in, two
    /// blocks out.
    fn pair(
        &self,
        gate: &Gate1,
        offset_cmask: usize,
        in_a: &CompressedBlock,
        in_b: &CompressedBlock,
    ) -> Result<([CompressedBlock; 2], CycleStats), SimError> {
        let key = self.op_key([(gate, [0, offset_cmask as u64])]);
        let miss = match self.cache.lookup(key, in_a, Some(in_b)) {
            Ok((out_a, out_b)) => {
                let out_b = out_b.ok_or_else(|| {
                    CodecError::Corrupt("block cache answered a pair lookup with one block".into())
                })?;
                let stats = CycleStats::hit(&[&out_a, &out_b]);
                return Ok(([out_a, out_b], stats));
            }
            Err(miss) => miss,
        };
        let mut stats = CycleStats {
            touch: Some(1),
            cache: miss.counted().then_some(false),
            ..CycleStats::default()
        };
        let mut buf_a = self.decode(in_a, &mut stats)?;
        let mut buf_b = self.decode(in_b, &mut stats)?;
        let t = Instant::now();
        kernels::apply_cross(&mut buf_a, &mut buf_b, gate, offset_cmask);
        stats.compute += t.elapsed();
        let out_a = self.encode(&buf_a, &mut stats)?;
        let out_b = self.encode(&buf_b, &mut stats)?;
        self.cache.insert(miss, &out_a, Some(&out_b));
        Ok(([out_a, out_b], stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;
    use qcs_cluster::exec::{duplex, Worker};
    use qcs_compress::CodecId;

    /// The test plays the exchange peer of a rank of two blocks, [0, 1],
    /// both sides streaming in that order: a peer whose block indices
    /// leave the range, repeat, or come out of order ends the wave in an
    /// `Err`, on the leader and on the follower, and panics nothing.
    #[test]
    fn exchange_block_indices_from_the_peer_are_checked() {
        let layout = Layout::new(5, 1, 3);
        let codec = Arc::new(BlockCodec::new(CodecId::SolutionC));
        let zero = codec
            .compress(&vec![0.0; 2 * layout.block_amps()], ErrorBound::Lossless)
            .unwrap();
        for sent in [[1usize << 40, 1], [0, 0], [1, 0]] {
            for lead in [true, false] {
                let blocks = vec![Some(zero.clone()), Some(zero.clone())];
                let mut worker = RankWorker::new(
                    usize::from(!lead),
                    layout,
                    Arc::clone(&codec),
                    Arc::new(BlockCache::new(0)),
                    Metrics::new(),
                    Box::new(MemStore::new(blocks)),
                );
                let (link, peer) = duplex();
                for b in sent {
                    assert!(peer.send((b, zero.clone())));
                }
                let role = match lead {
                    true => ExchangeRole::Lead(link),
                    false => ExchangeRole::Follow(link),
                };
                let out = worker.handle(WorkerCmd::Exchange(ExchangeCmd {
                    gate: Gate1::h(),
                    offset_cmask: 0,
                    block_cmask: 0,
                    bound: ErrorBound::Lossless,
                    role,
                }));
                match out {
                    Err(SimError::Exchange(msg)) => assert!(msg.contains("was due"), "{msg}"),
                    other => panic!("peer sent {sent:?}, lead {lead}: {other:?}"),
                }
            }
        }
    }

    /// Equal gates at equal places under an equal bound share a key; the
    /// gates' order and places, the bound — kind and magnitude — and the
    /// sign of an angle tell keys apart.
    #[test]
    fn op_key_covers_the_gates_their_order_and_the_bound() {
        let codec = BlockCodec::new(CodecId::SolutionC);
        let cache = BlockCache::new(0);
        let key = |bound, gates: &[(Gate1, [u64; 2])]| {
            let cycle = Cycle {
                codec: &codec,
                cache: &cache,
                layout: Layout::new(4, 0, 3),
                bound,
            };
            cycle.op_key(gates.iter().map(|(g, at)| (g, *at)))
        };
        let lossless = ErrorBound::Lossless;
        let one = |g: Gate1| key(lossless, &[(g, [0, 0])]);
        let (h, t) = (Gate1::h(), Gate1::t());
        assert_eq!(one(h), one(Gate1::h()));
        assert_ne!(one(h), one(t));
        assert_ne!(
            key(lossless, &[(h, [0, 0]), (t, [1, 0])]),
            key(lossless, &[(t, [1, 0]), (h, [0, 0])])
        );
        assert_ne!(one(h), key(lossless, &[(h, [1, 0])]));
        assert_ne!(one(h), key(lossless, &[(h, [0, 1])]));
        // ±θ differ only in the sign bits of two entries (of one entry
        // each for a pair of phase gates), which a linear fold cancels.
        for rot in [Gate1::rx, Gate1::ry, Gate1::rz, Gate1::phase] {
            for theta in [0.3, 1.0, 2.5] {
                assert_ne!(one(rot(theta)), one(rot(-theta)), "±{theta}");
            }
        }
        let (a, b) = (0.4, 0.9);
        assert_ne!(
            key(
                lossless,
                &[(Gate1::phase(a), [0, 0]), (Gate1::phase(b), [1, 0])]
            ),
            key(
                lossless,
                &[(Gate1::phase(-a), [0, 0]), (Gate1::phase(-b), [1, 0])]
            )
        );
        let bounds = [
            lossless,
            ErrorBound::Absolute(1e-3),
            ErrorBound::PointwiseRelative(1e-3),
            ErrorBound::PointwiseRelative(1e-4),
        ];
        for (i, a) in bounds.iter().enumerate() {
            for b in &bounds[i + 1..] {
                assert_ne!(
                    key(*a, &[(h, [0, 0])]),
                    key(*b, &[(h, [0, 0])]),
                    "{a} vs {b}"
                );
            }
        }
    }
}
