//! The compressed-block full-state simulator (paper §3).
//!
//! The state vector is divided over ranks and, within each rank, into
//! blocks stored compressed in memory (Fig. 2). Since the rank-worker
//! split, this module is the *facade and orchestrator glue*: the actual
//! per-rank state — compressed blocks, scratch buffers, the §3.2 unit
//! pipeline — lives in the private `worker` module's `RankWorker`, and
//! [`CompressedSimulator`] routes every operation to its workers:
//!
//! - `ranks_log2 = 0`: one worker, driven in place on the calling thread
//!   (no threads, no channels — the classic single-node pipeline);
//! - `ranks_log2 >= 1`: one worker per rank on its own dedicated thread
//!   via [`qcs_cluster::exec::ClusterSim`], driven by a message-passing
//!   command protocol (apply-gate, apply-batch, exchange, collapse,
//!   snapshot, …). A gate is one scatter/gather wave.
//!
//! Gate routing follows §3.3: intra-block and intra-rank gates are local
//! to each worker; `Route::InterRank` gates pair ranks `r` and
//! `r | stride` and move **compressed** block payloads between the two
//! paired workers over a per-wave duplex link — compress, send, decompress
//! on the receiver — exactly the seam the paper places on MPI.
//!
//! The hybrid adaptive pipeline of §3.7 runs lossless (`qzstd`) until the
//! memory budget (Eq. 8) is exceeded, then walks the error-bound ladder,
//! recording fidelity ledger entries per Eq. 11 (one entry per gate *or*
//! batch wave, gathered across ranks). The compressed-block cache of §3.4
//! is shared by all workers (it is internally sharded), so byte-identical
//! blocks on different ranks still hit.
//!
//! # The batch scheduler
//!
//! By default (`SimConfig::fusion`), circuits are first rewritten by the
//! batch scheduler in [`qcs_circuits::schedule`]: runs of consecutive
//! single-qubit gates on the same qubit fuse into one matrix, and runs of
//! gates whose targets all route intra-block (§3.3 case (a)) group into
//! [`GateBatch`]es. [`CompressedSimulator::apply_batch`] broadcasts the
//! batch plan to every worker; each worker fills its scratch once per
//! *batch*, applies every member gate to the decompressed amplitudes, and
//! recompresses once — amortizing the decompress/recompress cycle that
//! dominates Table 2 across the whole batch. Because a batched
//! recompression is a single lossy event, the fidelity ledger also charges
//! one `delta` per batch instead of one per gate.
//!
//! Cache soundness: the facade sends no cache key. Each rank's block cycle
//! derives it from what the touch computes — the member gates the block's
//! *selection mask* fires (given block/rank-scope controls), their matrices
//! and in-block positions, and the bound — so two blocks with identical
//! bytes but different applicable-gate subsets can never share a cache
//! line, while equal touches anywhere in the circuit do. Each block touch
//! consults the cache exactly once per batch, not once per member gate.

use crate::block::{BlockCodec, CompressedBlock};
use crate::config::SimConfig;
use crate::fidelity_bound::FidelityLedger;
use crate::store::{self, BlockStore, SegmentDirGuard};
use crate::worker::{
    decode_block, BatchCmd, BatchPlan, ExchangeCmd, ExchangeRole, GateCmd, RankWorker, WaveOut,
    WorkerCmd, WorkerOut,
};
use qcs_circuits::{schedule_circuit, Circuit, GateBatch, Op, Schedule, ScheduledOp};
use qcs_cluster::exec::{duplex, ClusterSim, Worker};
use qcs_cluster::{Layout, Metrics, Phase, Route, TimeBreakdown};
use qcs_compress::ErrorBound;
use qcs_statevec::{Complex64, Gate1, StateVector};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Errors surfaced by the compressed simulator.
#[derive(Debug, Clone)]
pub enum SimError {
    /// Configuration failed validation.
    Config(String),
    /// A codec failed; indicates corruption or an internal bug.
    Codec(qcs_compress::CodecError),
    /// Checkpoint I/O or format problems.
    Checkpoint(String),
    /// An inter-rank exchange broke down (a paired worker failed).
    Exchange(String),
    /// The out-of-core spill tier failed (segment I/O or a corrupt frame).
    Spill(String),
    /// A collective wave lost a rank worker (thread death locally, or a
    /// dropped/timed-out connection on a socket transport). Fatal for the
    /// simulation: the wave's state updates are lost.
    Cluster(qcs_cluster::ClusterError),
    /// The socket transport failed outside a collective wave (connect,
    /// handshake, or daemon-side setup).
    Transport(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Config(m) => write!(f, "configuration error: {m}"),
            SimError::Codec(e) => write!(f, "codec error: {e}"),
            SimError::Checkpoint(m) => write!(f, "checkpoint error: {m}"),
            SimError::Exchange(m) => write!(f, "exchange error: {m}"),
            SimError::Spill(m) => write!(f, "spill error: {m}"),
            SimError::Cluster(e) => write!(f, "cluster error: {e}"),
            SimError::Transport(m) => write!(f, "transport error: {m}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<qcs_compress::CodecError> for SimError {
    fn from(e: qcs_compress::CodecError) -> Self {
        SimError::Codec(e)
    }
}

impl From<qcs_cluster::ClusterError> for SimError {
    fn from(e: qcs_cluster::ClusterError) -> Self {
        SimError::Cluster(e)
    }
}

/// Decision an observer returns after each scheduled item in
/// [`CompressedSimulator::run_schedule_observed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaveControl {
    /// Keep running.
    Continue,
    /// Stop now; the partial state is discarded by the caller.
    Cancel,
    /// Stop now at a checkpointable item boundary; the caller intends to
    /// [`crate::checkpoint::save`] the simulator and resume later.
    Suspend,
}

/// How an observed run ended (when no [`SimError`] occurred).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every schedule item ran.
    Completed,
    /// The observer cancelled after item `next_item - 1`; the state is
    /// consistent but the circuit is unfinished.
    Cancelled {
        /// First schedule item that did *not* run.
        next_item: usize,
    },
    /// The observer suspended after item `next_item - 1`; checkpoint the
    /// simulator and resume with `next_item` as `start_item`.
    Suspended {
        /// First schedule item that did *not* run.
        next_item: usize,
    },
}

/// Per-item progress snapshot handed to a run observer by
/// [`CompressedSimulator::run_schedule_observed`].
#[derive(Debug, Clone)]
pub struct WaveStatus {
    /// Index of the schedule item that just finished (0-based).
    pub item: usize,
    /// Total items in the schedule.
    pub items: usize,
    /// Metric deltas accumulated by this item alone (via
    /// [`Metrics::delta_since`]).
    pub delta: TimeBreakdown,
    /// Cumulative report as of the end of this item.
    pub report: SimReport,
}

/// Summary statistics of a finished (or in-progress) simulation, matching
/// the rows of the paper's Table 2. Everything the [`Metrics`] sink
/// accumulates — phase times and the exchange / spill / prefetch /
/// codec-allocation counters — lives in
/// [`breakdown`](Self::breakdown) and nowhere else; the other fields are
/// what only the engine facade knows.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Qubit count.
    pub num_qubits: u32,
    /// Gates applied so far.
    pub gates: usize,
    /// Wall-clock time in gate processing.
    pub wall_time: Duration,
    /// Snapshot of the shared metrics sink: per-phase times
    /// (compression / decompression / communication / computation / spill
    /// tier) and every traffic counter, as declared once in
    /// `qcs_cluster::metrics`.
    pub breakdown: TimeBreakdown,
    /// Lower bound on fidelity per Eq. 11.
    pub fidelity_lower_bound: f64,
    /// The ladder level currently in force.
    pub current_bound: ErrorBound,
    /// Number of ladder escalations that occurred.
    pub escalations: u64,
    /// Minimum compression ratio observed during the run (Table 2 last row).
    pub min_compression_ratio: f64,
    /// Peak Eq. 8 memory usage in bytes.
    pub peak_memory_bytes: u64,
    /// `2^{n+4}`: what the uncompressed simulation would need.
    pub uncompressed_bytes: u128,
    /// Compressed-block cache hits, as counted in
    /// [`breakdown`](Self::breakdown) (every rank's, remote ones included).
    pub cache_hits: u64,
    /// Compressed-block cache misses, likewise.
    pub cache_misses: u64,
}

impl SimReport {
    /// Seconds per gate (Table 2 "Time per Gate" row).
    pub fn time_per_gate(&self) -> f64 {
        if self.gates == 0 {
            0.0
        } else {
            self.wall_time.as_secs_f64() / self.gates as f64
        }
    }

    /// Average inter-rank block exchanges per gate.
    pub fn exchanges_per_gate(&self) -> f64 {
        if self.gates == 0 {
            0.0
        } else {
            self.breakdown.exchanges as f64 / self.gates as f64
        }
    }
}

/// How the facade drives its rank workers.
enum Backend {
    /// `ranks_log2 = 0`: a single worker, called in place. The pool pins
    /// the configured `threads_per_rank` rayon width around every command
    /// (absent when the config leaves the ambient width in force), so the
    /// single-rank baseline of a ranks×threads sweep is honestly sized.
    Local(Box<RankWorker>, Option<rayon::ThreadPool>),
    /// `ranks_log2 >= 1`: one worker per rank on a dedicated thread.
    Cluster(ClusterSim<RankWorker>),
    /// [`SimConfig::remote`] set: every rank worker is hosted by a
    /// `qcsim-workerd` daemon over TCP; the cluster threads drive
    /// [`crate::net::RemoteWorkerClient`] stubs instead of local workers.
    Remote(ClusterSim<crate::net::RemoteWorkerClient>),
}

/// Run `f` under the local backend's pinned rayon width, if any.
fn with_pool<T>(pool: &Option<rayon::ThreadPool>, f: impl FnOnce() -> T) -> T {
    match pool {
        Some(p) => p.install(f),
        None => f(),
    }
}

/// One wave over a threaded backend, in-process or remote: scatter
/// `cmds[r]` to rank `r`, gather in rank order, fail on the first rank
/// that did.
fn gather<W>(cluster: &ClusterSim<W>, cmds: Vec<WorkerCmd>) -> Result<Vec<WorkerOut>, SimError>
where
    W: Worker<Cmd = WorkerCmd, Resp = Result<WorkerOut, SimError>>,
{
    cluster.dispatch(cmds)?.into_iter().collect()
}

/// Inverse-CDF scan: the first index whose weight exceeds what is left of
/// `r` after the weights before it, leaving in `r` the remainder inside
/// that index. When rounding carries `r` past the last weight, the last
/// index with non-zero weight — never a zero-probability one.
fn pick_weighted(weights: impl Iterator<Item = f64>, r: &mut f64) -> usize {
    let mut last_nonzero = 0;
    for (i, w) in weights.enumerate() {
        if *r < w {
            return i;
        }
        *r -= w;
        if w > 0.0 {
            last_nonzero = i;
        }
    }
    last_nonzero
}

/// The compressed-state simulator.
pub struct CompressedSimulator {
    cfg: SimConfig,
    layout: Layout,
    codec: Arc<BlockCodec>,
    metrics: Metrics,
    backend: Backend,
    /// Last-known compressed byte total per rank (resident + spilled),
    /// refreshed by every state-mutating wave (compression-ratio
    /// accounting without an extra collective).
    rank_bytes: Vec<u64>,
    /// Last-known *resident* compressed bytes per rank — the in-memory
    /// footprint Eq. 8 charges, what `peak_memory` reports and the ladder
    /// escalates on.
    rank_resident: Vec<u64>,
    level: usize,
    ledger: FidelityLedger,
    min_ratio: f64,
    peak_memory: u64,
    escalations: u64,
    gates_applied: usize,
    wall_time: Duration,
    /// Keeps the spill directory alive until the facade drops; the last
    /// owner (facade or a per-rank store) removes the whole tree, so a
    /// panicking worker thread cannot leak segment files.
    _spill_guard: Option<Arc<SegmentDirGuard>>,
}

impl CompressedSimulator {
    /// Initialize `|0...0>` on `num_qubits` qubits.
    pub fn new(num_qubits: u32, cfg: SimConfig) -> Result<Self, SimError> {
        cfg.validate(num_qubits).map_err(SimError::Config)?;
        let layout = Layout::new(num_qubits, cfg.ranks_log2, cfg.block_log2);
        let codec = Arc::new(BlockCodec::new(cfg.lossy_codec));
        let blocks = Self::initial_blocks(&cfg, layout, &codec)?;
        Self::from_parts(cfg, layout, codec, 0, FidelityLedger::new(), blocks)
    }

    /// Test-only: [`CompressedSimulator::new`] with every rank's store
    /// wrapped in the recording shim from [`crate::store::trace`], so the
    /// plan-vs-observed property suite can compare an `AccessPlan` against
    /// the slots the workers actually touch.
    #[cfg(test)]
    pub(crate) fn new_traced(
        num_qubits: u32,
        cfg: SimConfig,
        log: crate::store::trace::AccessLog,
    ) -> Result<Self, SimError> {
        Self::new_wrapped(num_qubits, cfg, |rank, store| {
            Box::new(crate::store::trace::TraceStore::new(
                rank,
                Arc::clone(&log),
                store,
            ))
        })
    }

    /// Test-only: [`CompressedSimulator::new`] with every rank's seeded
    /// store passed through `wrap(rank, store)`.
    #[cfg(test)]
    pub(crate) fn new_wrapped(
        num_qubits: u32,
        cfg: SimConfig,
        wrap: impl Fn(usize, Box<dyn BlockStore>) -> Box<dyn BlockStore>,
    ) -> Result<Self, SimError> {
        cfg.validate(num_qubits).map_err(SimError::Config)?;
        let layout = Layout::new(num_qubits, cfg.ranks_log2, cfg.block_log2);
        let codec = Arc::new(BlockCodec::new(cfg.lossy_codec));
        let blocks = Self::initial_blocks(&cfg, layout, &codec)?;
        Self::from_parts_wrapped(cfg, layout, codec, 0, FidelityLedger::new(), blocks, wrap)
    }

    /// The `|0...0>` block table: all blocks zero except block 0 of rank 0.
    fn initial_blocks(
        cfg: &SimConfig,
        layout: Layout,
        codec: &BlockCodec,
    ) -> Result<Vec<Option<CompressedBlock>>, SimError> {
        let total_blocks = layout.ranks() * layout.blocks_per_rank();
        let block_f64s = layout.block_amps() * 2;
        let zeros = vec![0.0f64; block_f64s];
        let zero_block = codec.compress(&zeros, cfg.ladder[0])?;
        let mut first = zeros.clone();
        first[0] = 1.0; // amplitude |0...0> = 1 + 0i
        let first_block = codec.compress(&first, cfg.ladder[0])?;
        let mut blocks = Vec::with_capacity(total_blocks);
        blocks.push(Some(first_block));
        for _ in 1..total_blocks {
            blocks.push(Some(zero_block.clone()));
        }
        Ok(blocks)
    }

    /// Assemble a simulator around an existing rank-major block table
    /// (fresh state or checkpoint restore): split the table into per-rank
    /// ownership and stand the backend up.
    fn from_parts(
        cfg: SimConfig,
        layout: Layout,
        codec: Arc<BlockCodec>,
        level: usize,
        ledger: FidelityLedger,
        blocks: Vec<Option<CompressedBlock>>,
    ) -> Result<Self, SimError> {
        Self::from_parts_wrapped(cfg, layout, codec, level, ledger, blocks, |_, store| store)
    }

    /// [`CompressedSimulator::from_parts`] with a store-wrapping seam:
    /// the engine's plan-vs-observed property suite interposes an
    /// instrumented shim between each worker and its real store through
    /// `wrap(rank, store)`; production callers pass the identity.
    fn from_parts_wrapped(
        cfg: SimConfig,
        layout: Layout,
        codec: Arc<BlockCodec>,
        level: usize,
        ledger: FidelityLedger,
        blocks: Vec<Option<CompressedBlock>>,
        wrap: impl Fn(usize, Box<dyn BlockStore>) -> Box<dyn BlockStore>,
    ) -> Result<Self, SimError> {
        let ranks = layout.ranks();
        let bpr = layout.blocks_per_rank();
        debug_assert_eq!(blocks.len(), ranks * bpr);
        let metrics = Metrics::new();

        // Remote transport takes precedence over the in-process backends
        // (even at one rank): the blocks ship to the daemons during the
        // handshake, and no local stores are built at all — each daemon
        // owns its rank's store (and spill directory, if any).
        if let Some(remote) = cfg.remote.clone() {
            store::prewarm(&codec, layout);
            let mut per_rank: Vec<Vec<Option<CompressedBlock>>> = Vec::with_capacity(ranks);
            let mut rank_bytes = Vec::with_capacity(ranks);
            let mut iter = blocks.into_iter();
            for _ in 0..ranks {
                let local: Vec<_> = iter.by_ref().take(bpr).collect();
                rank_bytes.push(
                    local
                        .iter()
                        .flatten()
                        .map(|b| b.bytes.len() as u64)
                        .sum::<u64>(),
                );
                per_rank.push(local);
            }
            let clients =
                crate::net::connect_cluster(&remote, &cfg, layout, &per_rank, metrics.clone())?;
            let mut sim = Self {
                cfg,
                layout,
                codec,
                metrics,
                backend: Backend::Remote(ClusterSim::new(clients, None)),
                rank_bytes: rank_bytes.clone(),
                rank_resident: rank_bytes,
                level,
                ledger,
                min_ratio: f64::INFINITY,
                peak_memory: 0,
                escalations: 0,
                gates_applied: 0,
                wall_time: Duration::ZERO,
                _spill_guard: None,
            };
            sim.note_memory();
            return Ok(sim);
        }

        let spill_guard = match &cfg.spill {
            Some(spill) => Some(SegmentDirGuard::create(&spill.directory())?),
            None => None,
        };
        let mut iter = blocks.into_iter();
        let local = (0..ranks).map(|rank| (rank, iter.by_ref().take(bpr).collect()));
        let (cache, stores) =
            store::rank_stores(&cfg, layout, &codec, spill_guard.as_ref(), &metrics, local)?;
        let stores: Vec<_> = stores
            .into_iter()
            .enumerate()
            .map(|(rank, store)| wrap(rank, store))
            .collect();
        let rank_bytes = stores.iter().map(|s| s.compressed_bytes()).collect();
        let rank_resident = stores.iter().map(|s| s.resident_bytes()).collect();
        let workers: Vec<RankWorker> = stores
            .into_iter()
            .enumerate()
            .map(|(rank, store)| {
                RankWorker::new(
                    rank,
                    layout,
                    Arc::clone(&codec),
                    Arc::clone(&cache),
                    metrics.clone(),
                    store,
                )
            })
            .collect();
        let backend = if ranks == 1 {
            let pool = cfg.threads_per_rank.map(|threads| {
                rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("local rank rayon pool")
            });
            Backend::Local(
                Box::new(workers.into_iter().next().expect("one worker")),
                pool,
            )
        } else {
            Backend::Cluster(ClusterSim::new(workers, cfg.threads_per_rank))
        };

        let mut sim = Self {
            cfg,
            layout,
            codec,
            metrics,
            backend,
            rank_bytes,
            rank_resident,
            level,
            ledger,
            min_ratio: f64::INFINITY,
            peak_memory: 0,
            escalations: 0,
            gates_applied: 0,
            wall_time: Duration::ZERO,
            _spill_guard: spill_guard,
        };
        sim.note_memory();
        Ok(sim)
    }

    /// The layout in force.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Qubit count.
    pub fn num_qubits(&self) -> u32 {
        self.layout.num_qubits
    }

    /// Current ladder bound.
    pub fn current_bound(&self) -> ErrorBound {
        self.cfg.ladder[self.level]
    }

    /// Number of rank workers executing this simulation.
    pub fn ranks(&self) -> usize {
        self.layout.ranks()
    }

    /// Sum of compressed block sizes across all ranks, resident plus
    /// spilled.
    pub fn compressed_bytes(&self) -> u64 {
        self.rank_bytes.iter().sum()
    }

    /// Compressed bytes actually resident in RAM across all ranks (equal
    /// to [`CompressedSimulator::compressed_bytes`] without an out-of-core
    /// store).
    pub fn resident_bytes(&self) -> u64 {
        self.rank_resident.iter().sum()
    }

    /// Eq. 8 memory accounting: compressed blocks held *in memory* plus
    /// two decompression scratch buffers per rank. Spilled blocks live on
    /// disk and are not charged.
    ///
    /// "In memory" is the footprint of an out-of-core store: its hot
    /// residents, at most one residency budget of compressed blocks per
    /// rank — what the peak-memory regression in
    /// `tests/eviction_policy.rs` pins. A spill store does its I/O on the
    /// caller's thread and buffers nothing else, so the value sampled at
    /// a wave boundary is a function of the circuit and the config alone:
    /// it feeds both `peak_memory_bytes` and the adaptive ladder's
    /// escalation decision.
    ///
    /// Not charged: the per-rank query summary a frozen state keeps
    /// between mutations (`8 * blocks_per_rank + 4 * n * (n - 1)` bytes
    /// per rank — a few parts per million of the blocks it summarizes,
    /// and gone again by the time the next gate's footprint is sampled).
    pub fn memory_bytes(&self) -> u64 {
        let scratch = 2 * (self.layout.block_amps() as u64) * 16;
        self.resident_bytes() + self.layout.ranks() as u64 * scratch
    }

    /// Current compression ratio: uncompressed state bytes over compressed
    /// block bytes.
    pub fn compression_ratio(&self) -> f64 {
        self.layout.uncompressed_bytes() as f64 / self.compressed_bytes().max(1) as f64
    }

    fn note_memory(&mut self) {
        let mem = self.memory_bytes();
        if mem > self.peak_memory {
            self.peak_memory = mem;
        }
        let ratio = self.compression_ratio();
        if ratio < self.min_ratio {
            self.min_ratio = ratio;
        }
    }

    // --- wave dispatch ----------------------------------------------------

    /// Scatter one command per rank and gather the mutating-wave outputs,
    /// refreshing the per-rank byte watermarks.
    fn mutate_wave(&mut self, cmds: Vec<WorkerCmd>) -> Result<Vec<WaveOut>, SimError> {
        let outs = match &mut self.backend {
            Backend::Local(w, pool) => {
                let cmd = cmds.into_iter().next().expect("one command");
                vec![with_pool(pool, || w.handle(cmd))?]
            }
            Backend::Cluster(c) => gather(c, cmds)?,
            Backend::Remote(c) => gather(c, cmds)?,
        };
        let outs: Vec<WaveOut> = outs.into_iter().map(WorkerOut::wave).collect();
        for (rank, wave) in outs.iter().enumerate() {
            self.rank_bytes[rank] = wave.compressed_bytes;
            self.rank_resident[rank] = wave.resident_bytes;
        }
        Ok(outs)
    }

    /// Broadcast one mutating command to every rank.
    fn mutate_all(&mut self, make: impl Fn() -> WorkerCmd) -> Result<Vec<WaveOut>, SimError> {
        let cmds = (0..self.layout.ranks()).map(|_| make()).collect();
        self.mutate_wave(cmds)
    }

    /// Scatter one read-only command per rank and gather the answers.
    fn query_wave(&self, cmds: Vec<WorkerCmd>) -> Result<Vec<WorkerOut>, SimError> {
        match &self.backend {
            Backend::Local(w, pool) => {
                let cmd = cmds.into_iter().next().expect("one command");
                Ok(vec![with_pool(pool, || w.query(cmd))?])
            }
            Backend::Cluster(c) => gather(c, cmds),
            Backend::Remote(c) => gather(c, cmds),
        }
    }

    /// Broadcast one read-only command to every rank.
    fn query_all(&self, make: impl Fn() -> WorkerCmd) -> Result<Vec<WorkerOut>, SimError> {
        self.query_wave((0..self.layout.ranks()).map(|_| make()).collect())
    }

    /// Send one read-only command to a single rank (all others no-op).
    fn query_rank(&self, rank: usize, cmd_for_rank: WorkerCmd) -> Result<WorkerOut, SimError> {
        let mut cmds: Vec<WorkerCmd> = (0..self.layout.ranks()).map(|_| WorkerCmd::Nop).collect();
        cmds[rank] = cmd_for_rank;
        Ok(self.query_wave(cmds)?.swap_remove(rank))
    }

    /// Fold a finished gate/batch wave into the ledger (one entry per
    /// wave, as a batched recompression is a single lossy event).
    fn finish_wave(&mut self, waves: &[WaveOut], bound: ErrorBound) {
        let any_lossy = waves.iter().any(|w| w.lossy);
        self.ledger
            .record_gate(if any_lossy { bound.magnitude() } else { 0.0 });
    }

    // --- circuit execution ------------------------------------------------

    /// Run a full circuit. `rng` drives intermediate measurements.
    ///
    /// The circuit passes through the batch scheduler under
    /// [`SimConfig::fusion_policy`]. With [`SimConfig::fusion`] on (the
    /// default) it fuses, batches and retargets; with it off the schedule
    /// is the circuit gate by gate, exactly as written. A circuit on
    /// another qubit count is a `SimError::Config`.
    pub fn run(&mut self, circuit: &Circuit, rng: &mut impl rand::Rng) -> Result<(), SimError> {
        let schedule = schedule_circuit(circuit, &self.cfg.fusion_policy());
        self.run_schedule(&schedule, rng)
    }

    /// Run a pre-built [`Schedule`] (e.g. one reused across shots).
    ///
    /// The schedule must have been produced for this simulator's block
    /// geometry: a batch whose target does not route intra-block is a
    /// configuration error.
    ///
    /// On an out-of-core run, each wave announces its own block slots to
    /// its rank's store, which picks victims by them (Belady's MIN). The
    /// window is one wave.
    pub fn run_schedule(
        &mut self,
        schedule: &Schedule,
        rng: &mut impl rand::Rng,
    ) -> Result<(), SimError> {
        self.run_schedule_observed(schedule, rng, 0, &mut |_| WaveControl::Continue)
            .map(|_| ())
    }

    /// Run a [`Schedule`] from `start_item`, consulting `observer` after
    /// every scheduled item — the cancellation/suspension hook in the wave
    /// loop, and the seam the job server streams per-wave metrics through.
    ///
    /// The observer receives a [`WaveStatus`] (item index, cumulative
    /// [`SimReport`], and the [`TimeBreakdown`] delta accumulated by that
    /// item alone) and answers with a [`WaveControl`]. Returning
    /// [`WaveControl::Cancel`] or [`WaveControl::Suspend`] stops the run at
    /// an item boundary with the state fully consistent: a suspended
    /// simulator can be checkpointed with [`crate::checkpoint::save`] and a
    /// restored one resumed by calling this again with
    /// [`RunOutcome::Suspended::next_item`] as `start_item` (and the same
    /// schedule).
    ///
    /// Resume caveat: `rng` state is not checkpointed, so a resumed run of
    /// a circuit with intermediate measurements draws from whatever `rng`
    /// it is handed. Measurement-free circuits (every differential suite
    /// workload) resume bit-identically.
    ///
    /// A schedule on another qubit count, or a `start_item` past its end,
    /// is a `SimError::Config`, sent to no rank.
    pub fn run_schedule_observed(
        &mut self,
        schedule: &Schedule,
        rng: &mut impl rand::Rng,
        start_item: usize,
        observer: &mut impl FnMut(WaveStatus) -> WaveControl,
    ) -> Result<RunOutcome, SimError> {
        let n = self.layout.num_qubits;
        if schedule.num_qubits() != n as usize {
            return Err(SimError::Config(format!(
                "a {}-qubit schedule cannot run on a {n}-qubit register",
                schedule.num_qubits()
            )));
        }
        let items = schedule.items();
        if start_item > items.len() {
            return Err(SimError::Config(format!(
                "start_item {start_item} out of range for {} items",
                items.len()
            )));
        }
        let mut since = self.metrics.breakdown();
        for (i, item) in items.iter().enumerate().skip(start_item) {
            self.apply_item(item, rng)?;
            let delta = self.metrics.delta_since(&mut since);
            let status = WaveStatus {
                item: i,
                items: items.len(),
                delta,
                report: self.report(),
            };
            match observer(status) {
                WaveControl::Continue => {}
                WaveControl::Cancel => return Ok(RunOutcome::Cancelled { next_item: i + 1 }),
                WaveControl::Suspend => return Ok(RunOutcome::Suspended { next_item: i + 1 }),
            }
        }
        Ok(RunOutcome::Completed)
    }

    /// Apply one scheduled item. Exposed to the crate's plan-vs-observed
    /// property suite, which drives items one at a time against an
    /// instrumented store.
    pub(crate) fn apply_item(
        &mut self,
        item: &ScheduledOp,
        rng: &mut impl rand::Rng,
    ) -> Result<(), SimError> {
        match item {
            ScheduledOp::Batch(batch) => self.apply_batch(batch),
            ScheduledOp::Gate(g) => {
                let start = Instant::now();
                self.apply_unitary(&g.op.gate, &g.op.controls, g.op.target)?;
                self.gates_applied += g.src_len;
                self.wall_time += start.elapsed();
                self.after_gate()
            }
            ScheduledOp::Bare { op, .. } => self.apply_op(op, rng),
        }
    }

    /// Apply one operation. An op that [`Op::validate`] refuses for this
    /// register is a `SimError::Config`, sent to no rank.
    pub fn apply_op(&mut self, op: &Op, rng: &mut impl rand::Rng) -> Result<(), SimError> {
        op.validate(self.layout.num_qubits as usize)
            .map_err(SimError::Config)?;
        let start = Instant::now();
        match op {
            Op::Gate {
                gate,
                controls,
                target,
            } => {
                self.apply_unitary(&gate.matrix(), controls, *target)?;
            }
            Op::Swap { a, b } => {
                // SWAP = CX(a,b) CX(b,a) CX(a,b); counted as one gate.
                let x = Gate1::x();
                self.apply_unitary(&x, &[*a], *b)?;
                self.apply_unitary(&x, &[*b], *a)?;
                self.apply_unitary(&x, &[*a], *b)?;
            }
            Op::Measure { target } => {
                self.measure(*target, rng)?;
            }
        }
        self.gates_applied += 1;
        self.wall_time += start.elapsed();
        self.after_gate()
    }

    /// Post-gate epilogue: walk the adaptive ladder (§3.7) while over
    /// budget, recompressing every block at each new bound so the budget
    /// is actually restored, then refresh the memory/ratio watermarks.
    fn after_gate(&mut self) -> Result<(), SimError> {
        if let Some(budget) = self.cfg.memory_budget {
            while self.memory_bytes() > budget && self.level + 1 < self.cfg.ladder.len() {
                self.level += 1;
                self.escalations += 1;
                self.recompress_all()?;
            }
        }
        self.note_memory();
        Ok(())
    }

    /// Apply a (multi-)controlled single-qubit unitary: one wave across all
    /// rank workers, routed per §3.3.
    fn apply_unitary(
        &mut self,
        gate: &Gate1,
        controls: &[usize],
        target: usize,
    ) -> Result<(), SimError> {
        let layout = self.layout;
        let (offset_cmask, block_cmask, rank_cmask) = layout.control_masks(controls);
        let bound = self.cfg.ladder[self.level];

        let waves = match layout.route(target as u32) {
            // A lone in-block gate is a batch of one plan.
            Route::InBlock { offset_bit } => {
                let cmd = BatchCmd {
                    plans: Arc::new(vec![BatchPlan {
                        gate: *gate,
                        offset_bit,
                        offset_cmask,
                        block_cmask,
                        rank_cmask,
                    }]),
                    bound,
                };
                self.mutate_all(|| WorkerCmd::Batch(cmd.clone()))?
            }
            Route::InterBlock { block_stride } => {
                let cmd = GateCmd {
                    gate: *gate,
                    block_stride,
                    offset_cmask,
                    block_cmask,
                    rank_cmask,
                    bound,
                };
                self.mutate_all(|| WorkerCmd::Gate(cmd.clone()))?
            }
            Route::InterRank { rank_stride } => {
                // Pair rank r with r | stride; rank-scope controls deselect
                // whole pairs (both members share the non-stride bits).
                let mut roles: Vec<ExchangeRole> =
                    (0..layout.ranks()).map(|_| ExchangeRole::Idle).collect();
                for [lead, follow] in layout.rank_pairs(rank_stride, rank_cmask) {
                    let (lead_link, follow_link) = duplex();
                    roles[lead] = ExchangeRole::Lead(lead_link);
                    roles[follow] = ExchangeRole::Follow(follow_link);
                }
                let cmds = roles
                    .into_iter()
                    .map(|role| {
                        WorkerCmd::Exchange(ExchangeCmd {
                            gate: *gate,
                            offset_cmask,
                            block_cmask,
                            bound,
                            role,
                        })
                    })
                    .collect();
                self.mutate_wave(cmds)?
            }
        };
        self.finish_wave(&waves, bound);
        Ok(())
    }

    /// Apply a [`GateBatch`]: every member gate targets an intra-block
    /// qubit, so each worker decompresses each of its blocks once, applies
    /// all applicable gates, and recompresses once.
    ///
    /// Block/rank-scope controls are honored through a per-block *selection
    /// mask*: member gate `i` fires on a block only when the block's rank
    /// and block index bits cover the gate's control masks. The gates the
    /// mask fires make up the cache key, and blocks no gate selects are
    /// skipped outright (no touch, no cache traffic).
    pub fn apply_batch(&mut self, batch: &GateBatch) -> Result<(), SimError> {
        let start = Instant::now();
        let layout = self.layout;

        // Precompute per-gate kernels and control masks.
        let mut plans = Vec::with_capacity(batch.len());
        for fg in batch.gates() {
            let offset_bit = match layout.route(fg.op.target as u32) {
                Route::InBlock { offset_bit } => offset_bit,
                other => {
                    return Err(SimError::Config(format!(
                        "batched target {} routes {other:?}; schedule was built \
                         for a different block geometry",
                        fg.op.target
                    )))
                }
            };
            let (offset_cmask, block_cmask, rank_cmask) = layout.control_masks(&fg.op.controls);
            plans.push(BatchPlan {
                gate: fg.op.gate,
                offset_bit,
                offset_cmask,
                block_cmask,
                rank_cmask,
            });
        }

        let bound = self.cfg.ladder[self.level];
        let cmd = BatchCmd {
            plans: Arc::new(plans),
            bound,
        };
        let waves = self.mutate_all(|| WorkerCmd::Batch(cmd.clone()))?;
        self.finish_wave(&waves, bound);
        self.gates_applied += batch.source_gate_count();
        self.wall_time += start.elapsed();
        self.after_gate()
    }

    /// Recompress every block at the current ladder level (used after an
    /// escalation so the budget is actually enforced).
    fn recompress_all(&mut self) -> Result<(), SimError> {
        let bound = self.cfg.ladder[self.level];
        self.mutate_all(|| WorkerCmd::Recompress { bound })?;
        if bound.is_lossy() {
            // The recompression pass is itself a lossy compression event.
            self.ledger.record_gate(bound.magnitude());
        }
        Ok(())
    }

    // --- measurement and observables --------------------------------------

    /// `SimError::Config` unless `qubit` is one of the register's.
    fn check_qubit(&self, qubit: usize) -> Result<(), SimError> {
        let n = self.layout.num_qubits;
        if qubit >= n as usize {
            return Err(SimError::Config(format!(
                "qubit {qubit} outside a {n}-qubit register"
            )));
        }
        Ok(())
    }

    /// Probability that `qubit` reads `|1>` (a sum-reduce across ranks).
    /// Each rank remembers its term per qubit until the next mutation, so
    /// only the first call per qubit on a frozen state decodes anything.
    pub fn prob_one(&self, qubit: usize) -> Result<f64, SimError> {
        self.check_qubit(qubit)?;
        let scope = self.layout.control_scope(qubit as u32);
        let outs = self.query_all(|| WorkerCmd::ProbOne { scope })?;
        Ok(outs.into_iter().map(|o| o.scalar()).sum())
    }

    /// Measure `qubit`, collapsing the state (intermediate measurement,
    /// the capability §1 argues full-state simulation enables). This is
    /// the measure-reduce collective: a probability sum-reduce, the RNG
    /// decision on the facade, and a collapse wave.
    pub fn measure(&mut self, qubit: usize, rng: &mut impl rand::Rng) -> Result<bool, SimError> {
        let p1 = self.prob_one(qubit)?;
        let outcome = rng.gen::<f64>() < p1;
        self.collapse(qubit, outcome, if outcome { p1 } else { 1.0 - p1 })?;
        Ok(outcome)
    }

    /// Collapse `qubit` to `outcome` with prior probability `p`.
    fn collapse(&mut self, qubit: usize, outcome: bool, p: f64) -> Result<(), SimError> {
        assert!(p > 0.0, "collapse onto zero-probability outcome");
        let scope = self.layout.control_scope(qubit as u32);
        let scale = 1.0 / p.sqrt();
        let bound = self.cfg.ladder[self.level];
        let waves = self.mutate_all(|| WorkerCmd::Collapse {
            scope,
            outcome,
            scale,
            bound,
        })?;
        if waves.iter().any(|w| w.lossy) {
            self.ledger.record_gate(bound.magnitude());
        }
        Ok(())
    }

    /// Squared 2-norm of the stored state (1 up to compression error):
    /// the sum of the per-block weights in each rank's query summary.
    pub fn norm_sqr(&self) -> Result<f64, SimError> {
        let outs = self.query_all(|| WorkerCmd::NormSqr)?;
        Ok(outs.into_iter().map(|o| o.scalar()).sum())
    }

    /// Gather every rank's compressed blocks and hand each one, decoded
    /// through a single pooled buffer, to `sink` in global block order.
    fn decode_blocks(&self, mut sink: impl FnMut(usize, &[f64])) -> Result<(), SimError> {
        let outs = self.query_all(|| WorkerCmd::SnapshotBlocks)?;
        let blocks = outs.into_iter().flat_map(|out| match out {
            WorkerOut::Blocks(v) => v,
            _ => unreachable!("snapshot returns blocks"),
        });
        for (slot, blk) in blocks.enumerate() {
            let buf = decode_block(&self.codec, self.layout, &blk)?;
            self.metrics.add(Phase::Decompression, buf.spent);
            sink(slot, &buf);
        }
        Ok(())
    }

    /// Decompress the full state into a dense [`StateVector`].
    ///
    /// Only sensible for small `n`; used by tests, fidelity measurement and
    /// the benchmark harness.
    pub fn snapshot_dense(&self) -> Result<StateVector, SimError> {
        let block_amps = self.layout.block_amps();
        let mut amps = vec![Complex64::ZERO; self.layout.total_amps() as usize];
        self.decode_blocks(|slot, vals| {
            let dst = &mut amps[slot * block_amps..(slot + 1) * block_amps];
            for (amp, v) in dst.iter_mut().zip(vals.chunks_exact(2)) {
                *amp = Complex64::new(v[0], v[1]);
            }
        })?;
        Ok(StateVector::from_amplitudes(amps))
    }

    /// Flat interleaved (re, im) dump of the state. Used by the benchmark
    /// harness to produce compressor workloads (`qaoa_36`/`sup_36`-style
    /// snapshots).
    pub fn snapshot_f64(&self) -> Result<Vec<f64>, SimError> {
        let block_f64s = self.layout.block_amps() * 2;
        let mut flat = vec![0.0f64; self.layout.total_amps() as usize * 2];
        self.decode_blocks(|slot, vals| {
            flat[slot * block_f64s..(slot + 1) * block_f64s].copy_from_slice(vals);
        })?;
        Ok(flat)
    }

    /// Sample one basis-state index from the current distribution.
    ///
    /// Cost: the per-block weights come from each rank's query summary —
    /// one pass over the rank's blocks on the first draw after a
    /// mutation, no decode at all afterwards — so a draw is an
    /// `O(blocks)` scan of the weights plus one block fetched from its
    /// owner and decoded for the in-block scan.
    pub fn sample(&self, rng: &mut impl rand::Rng) -> Result<u64, SimError> {
        let layout = self.layout;
        let bpr = layout.blocks_per_rank();
        let outs = self.query_all(|| WorkerCmd::Weights)?;
        let weights: Vec<f64> = outs
            .into_iter()
            .flat_map(|o| match o {
                WorkerOut::Weights(w) => w,
                _ => unreachable!("weights response"),
            })
            .collect();
        let total: f64 = weights.iter().sum();
        let mut r = rng.gen::<f64>() * total;
        let slot = pick_weighted(weights.iter().copied(), &mut r);
        let block = self.fetch_block(slot / bpr, slot % bpr)?;
        let buf = decode_block(&self.codec, layout, &block)?;
        self.metrics.add(Phase::Decompression, buf.spent);
        let o = pick_weighted(
            buf.chunks_exact(2).map(|v| v[0] * v[0] + v[1] * v[1]),
            &mut r,
        );
        Ok(layout.join(slot / bpr, slot % bpr, o))
    }

    /// Expectation value of `Z` on `qubit`: `P(0) - P(1)`.
    pub fn expectation_z(&self, qubit: usize) -> Result<f64, SimError> {
        Ok(1.0 - 2.0 * self.prob_one(qubit)?)
    }

    /// Expectation value of `Z_a Z_b` (the MAXCUT cost term).
    ///
    /// Answered from each rank's query summary, which holds the rank's
    /// term for *every* pair: the first call after a mutation costs one
    /// blockwise pass per rank (never the full state decompressed at
    /// once), every later one — for any pair — decodes nothing. The
    /// value is the same bits either way.
    pub fn expectation_zz(&self, a: usize, b: usize) -> Result<f64, SimError> {
        self.check_qubit(a)?;
        self.check_qubit(b)?;
        if a == b {
            return Err(SimError::Config(format!(
                "<Z_{a} Z_{b}> needs two distinct qubits"
            )));
        }
        let outs = self.query_all(|| WorkerCmd::ExpectationZz { a, b })?;
        Ok(outs.into_iter().map(|o| o.scalar()).sum())
    }

    /// Progress/result report (Table 2 rows).
    pub fn report(&self) -> SimReport {
        // Drain the codec's scratch counters into the shared sink so the
        // report reflects allocations up to this instant (remote workers
        // drain their own codecs and ship deltas over the wire instead).
        self.codec.drain_counters_into(&self.metrics);
        let breakdown = self.metrics.breakdown();
        SimReport {
            num_qubits: self.layout.num_qubits,
            gates: self.gates_applied,
            wall_time: self.wall_time,
            fidelity_lower_bound: self.ledger.lower_bound(),
            current_bound: self.current_bound(),
            escalations: self.escalations,
            min_compression_ratio: if self.min_ratio.is_finite() {
                self.min_ratio
            } else {
                self.compression_ratio()
            },
            peak_memory_bytes: self.peak_memory,
            uncompressed_bytes: self.layout.uncompressed_bytes(),
            cache_hits: breakdown.cache_hits,
            cache_misses: breakdown.cache_misses,
            breakdown,
        }
    }

    /// The fidelity ledger.
    pub fn ledger(&self) -> &FidelityLedger {
        &self.ledger
    }

    /// The shared metrics sink.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    // --- checkpoint support (fields exposed to the checkpoint module) ---

    /// Clone one block from its owning rank (a disk read when the block is
    /// spilled; residency is not disturbed). Checkpointing streams the
    /// state through this one block at a time, so saving never
    /// materializes more than a single compressed block beyond the
    /// workers' own residency budgets — even when the compressed state is
    /// far larger than RAM.
    pub(crate) fn fetch_block(
        &self,
        rank: usize,
        block: usize,
    ) -> Result<CompressedBlock, SimError> {
        match self.query_rank(rank, WorkerCmd::FetchBlock { block })? {
            WorkerOut::Block(b) => Ok(b),
            _ => unreachable!("block response"),
        }
    }

    pub(crate) fn checkpoint_parts(&self) -> (&SimConfig, Layout, usize, &FidelityLedger) {
        (&self.cfg, self.layout, self.level, &self.ledger)
    }

    pub(crate) fn from_checkpoint_parts(
        cfg: SimConfig,
        level: usize,
        ledger: FidelityLedger,
        blocks: Vec<Option<CompressedBlock>>,
        num_qubits: u32,
    ) -> Result<Self, SimError> {
        cfg.validate(num_qubits).map_err(SimError::Config)?;
        let layout = Layout::new(num_qubits, cfg.ranks_log2, cfg.block_log2);
        if blocks.len() != layout.ranks() * layout.blocks_per_rank() {
            return Err(SimError::Checkpoint("block count mismatch".into()));
        }
        if level >= cfg.ladder.len() {
            return Err(SimError::Checkpoint("ladder level out of range".into()));
        }
        let codec = Arc::new(BlockCodec::new(cfg.lossy_codec));
        Self::from_parts(cfg, layout, codec, level, ledger, blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcs_circuits::hadamard_wall;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_cfg() -> SimConfig {
        SimConfig::default().with_block_log2(3).with_ranks_log2(1)
    }

    #[test]
    fn initial_state_is_zero_ket() {
        let sim = CompressedSimulator::new(6, small_cfg()).unwrap();
        let sv = sim.snapshot_dense().unwrap();
        assert!(sv.amplitudes()[0].approx_eq(Complex64::ONE, 1e-15));
        assert!((sv.norm_sqr() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn matches_dense_on_all_three_routes() {
        // n=6, ranks=2^1, block=2^3: offsets 0-2, block bits 3-4, rank bit 5.
        let mut rng = StdRng::seed_from_u64(0);
        for target in 0..6usize {
            let mut sim = CompressedSimulator::new(6, small_cfg()).unwrap();
            let mut c = Circuit::new(6);
            c.h(0).h(3).h(5); // spread across all segments
            c.h(target);
            c.t(target);
            sim.run(&c, &mut rng).unwrap();
            let dense = c.simulate_dense(&mut rng);
            let f = sim.snapshot_dense().unwrap().fidelity(&dense);
            assert!(f > 1.0 - 1e-12, "target {target}: fidelity {f}");
        }
    }

    #[test]
    fn controlled_gates_match_dense_across_scopes() {
        let mut rng = StdRng::seed_from_u64(0);
        // Controls in offset / block / rank segments, target likewise.
        let pairs = [(0, 4), (4, 0), (5, 1), (1, 5), (3, 4), (5, 3)];
        for (control, target) in pairs {
            let mut c = Circuit::new(6);
            for q in 0..6 {
                c.h(q);
            }
            c.t(control);
            c.cx(control, target);
            c.cphase(0.7, control, target);
            let mut sim = CompressedSimulator::new(6, small_cfg()).unwrap();
            sim.run(&c, &mut rng).unwrap();
            let dense = c.simulate_dense(&mut rng);
            let f = sim.snapshot_dense().unwrap().fidelity(&dense);
            assert!(f > 1.0 - 1e-12, "c={control} t={target}: fidelity {f}");
        }
    }

    #[test]
    fn toffoli_matches_dense() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut c = Circuit::new(6);
        for q in 0..6 {
            c.h(q);
        }
        c.ccx(0, 5, 3);
        c.ccx(4, 2, 0);
        let mut sim = CompressedSimulator::new(6, small_cfg()).unwrap();
        sim.run(&c, &mut rng).unwrap();
        let dense = c.simulate_dense(&mut rng);
        assert!(sim.snapshot_dense().unwrap().fidelity(&dense) > 1.0 - 1e-12);
    }

    #[test]
    fn swap_matches_dense() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut c = Circuit::new(6);
        c.h(0).t(0).swap(0, 5).swap(2, 3);
        let mut sim = CompressedSimulator::new(6, small_cfg()).unwrap();
        sim.run(&c, &mut rng).unwrap();
        let dense = c.simulate_dense(&mut rng);
        assert!(sim.snapshot_dense().unwrap().fidelity(&dense) > 1.0 - 1e-12);
    }

    #[test]
    fn norm_preserved_lossless() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut sim = CompressedSimulator::new(8, SimConfig::default().with_block_log2(4)).unwrap();
        sim.run(&hadamard_wall(8), &mut rng).unwrap();
        assert!((sim.norm_sqr().unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(sim.report().gates, 8);
        assert_eq!(sim.report().fidelity_lower_bound, 1.0);
    }

    #[test]
    fn prob_and_measurement() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut sim = CompressedSimulator::new(6, small_cfg()).unwrap();
        let mut c = Circuit::new(6);
        c.h(0).cx(0, 5); // Bell pair across the rank boundary
        sim.run(&c, &mut rng).unwrap();
        assert!((sim.prob_one(0).unwrap() - 0.5).abs() < 1e-12);
        assert!((sim.prob_one(5).unwrap() - 0.5).abs() < 1e-12);
        let outcome = sim.measure(0, &mut rng).unwrap();
        // Entangled partner collapses identically.
        let p5 = sim.prob_one(5).unwrap();
        assert!((p5 - if outcome { 1.0 } else { 0.0 }).abs() < 1e-9);
        assert!((sim.norm_sqr().unwrap() - 1.0).abs() < 1e-9);
    }

    fn is_config_error<T: std::fmt::Debug>(got: Result<T, SimError>) -> bool {
        matches!(got, Err(SimError::Config(_)))
    }

    #[test]
    fn prob_one_refuses_a_qubit_outside_the_register() {
        let sim = CompressedSimulator::new(6, small_cfg()).unwrap();
        for q in [6, 64, usize::MAX] {
            assert!(is_config_error(sim.prob_one(q)), "qubit {q}");
        }
    }

    #[test]
    fn apply_op_refuses_outside_or_repeated_qubits() {
        let mut sim = CompressedSimulator::new(6, small_cfg()).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let cx = |control, target| Op::Gate {
            gate: qcs_statevec::GateKind::X,
            controls: vec![control],
            target,
        };
        let x = |target| Op::Gate {
            gate: qcs_statevec::GateKind::X,
            controls: vec![],
            target,
        };
        // Target n, control n, and a control that is its own target, on
        // every route: offset (1), block (3) and rank (5) qubits.
        let mut bad = vec![x(6), cx(0, 6), cx(6, 0), Op::Swap { a: 2, b: 6 }];
        for q in [1, 3, 5] {
            bad.extend([cx(q, q), Op::Swap { a: q, b: q }]);
            bad.push(Op::Gate {
                gate: qcs_statevec::GateKind::Z,
                controls: vec![0, q],
                target: q,
            });
        }
        for op in &bad {
            assert!(is_config_error(sim.apply_op(op, &mut rng)), "{op:?}");
        }
        // Nothing was dispatched: the state is still |0…0⟩.
        assert_eq!(sim.report().gates, 0);
        assert_eq!(sim.prob_one(0).unwrap(), 0.0);
    }

    #[test]
    fn expectation_z_refuses_a_qubit_outside_the_register() {
        let sim = CompressedSimulator::new(6, small_cfg()).unwrap();
        for q in [6, 64, usize::MAX] {
            assert!(is_config_error(sim.expectation_z(q)), "qubit {q}");
        }
    }

    #[test]
    fn measure_refuses_a_qubit_outside_the_register() {
        let mut sim = CompressedSimulator::new(6, small_cfg()).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for q in [6, 64, usize::MAX] {
            assert!(is_config_error(sim.measure(q, &mut rng)), "qubit {q}");
        }
        // Nothing was dispatched: the state is still |0…0⟩.
        assert_eq!(sim.prob_one(0).unwrap(), 0.0);
        assert!(!sim.measure(0, &mut rng).unwrap());
    }

    #[test]
    fn expectation_zz_refuses_equal_or_outside_qubits() {
        let sim = CompressedSimulator::new(6, small_cfg()).unwrap();
        for (a, b) in [(2, 2), (0, 6), (6, 0), (7, 7), (usize::MAX, 1)] {
            assert!(is_config_error(sim.expectation_zz(a, b)), "<Z_{a} Z_{b}>");
        }
        assert!((sim.expectation_zz(0, 5).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn adaptive_ladder_escalates_under_budget() {
        let mut rng = StdRng::seed_from_u64(5);
        // Tiny budget forces lossy levels almost immediately on a
        // spread-out state.
        let cfg = SimConfig::default()
            .with_block_log2(4)
            .with_memory_budget(3 * (1u64 << 4) * 16 * 2); // ~3 scratch blocks
        let mut sim = CompressedSimulator::new(10, cfg).unwrap();
        let mut c = Circuit::new(10);
        for q in 0..10 {
            c.h(q);
        }
        for q in 0..10 {
            c.rz(0.1 + q as f64, q);
        }
        sim.run(&c, &mut rng).unwrap();
        let report = sim.report();
        assert!(report.escalations > 0, "expected ladder escalation");
        assert!(report.fidelity_lower_bound < 1.0);
        assert!(report.fidelity_lower_bound > 0.0);
    }

    #[test]
    fn lossy_state_stays_close_to_dense() {
        let mut rng = StdRng::seed_from_u64(6);
        let cfg = SimConfig::default()
            .with_block_log2(4)
            .with_fixed_bound(ErrorBound::PointwiseRelative(1e-4));
        let mut sim = CompressedSimulator::new(8, cfg).unwrap();
        let mut c = Circuit::new(8);
        for q in 0..8 {
            c.h(q);
        }
        for q in 0..7 {
            c.cx(q, q + 1);
        }
        for q in 0..8 {
            c.rz(0.3 * (q + 1) as f64, q);
        }
        sim.run(&c, &mut rng).unwrap();
        let dense = c.simulate_dense(&mut rng);
        let f = sim.snapshot_dense().unwrap().fidelity(&dense);
        assert!(f > 0.999, "fidelity {f}");
        assert!(f >= sim.report().fidelity_lower_bound - 1e-9);
    }

    #[test]
    fn cache_hits_on_redundant_blocks() {
        let mut rng = StdRng::seed_from_u64(7);
        // Many identical zero blocks: a gate over the high qubit hits
        // byte-identical block pairs repeatedly.
        let cfg = SimConfig::default().with_block_log2(3);
        let mut sim = CompressedSimulator::new(9, cfg).unwrap();
        let mut c = Circuit::new(9);
        c.h(8).h(7);
        sim.run(&c, &mut rng).unwrap();
        let report = sim.report();
        assert!(
            report.cache_hits > 0,
            "expected cache hits on redundant zero blocks, misses={}",
            report.cache_misses
        );
        // Correctness despite caching:
        let dense = c.simulate_dense(&mut rng);
        assert!(sim.snapshot_dense().unwrap().fidelity(&dense) > 1.0 - 1e-12);
    }

    #[test]
    fn comm_accounted_only_for_rank_crossing_gates() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut sim = CompressedSimulator::new(6, small_cfg()).unwrap();
        let mut c = Circuit::new(6);
        c.h(0); // in-block
        sim.run(&c, &mut rng).unwrap();
        assert_eq!(sim.report().breakdown.comm_bytes, 0);
        assert_eq!(sim.report().breakdown.exchanges, 0);
        let mut c2 = Circuit::new(6);
        c2.h(5); // rank bit
        sim.run(&c2, &mut rng).unwrap();
        let report = sim.report();
        assert!(report.breakdown.comm_bytes > 0);
        assert!(
            report.breakdown.comm_ns() > 0,
            "exchange must cost communication time"
        );
        // One pair of ranks, every block of the lead rank exchanged once.
        assert_eq!(report.breakdown.exchanges, 4);
        assert!(report.exchanges_per_gate() > 0.0);
    }

    #[test]
    fn rank_workers_match_single_worker_amplitudewise() {
        // The same circuit on 1, 2, and 4 rank workers must produce
        // identical states: the cluster path is a pure execution change.
        let mut c = Circuit::new(8);
        for q in 0..8 {
            c.h(q);
        }
        c.t(7).cx(6, 1).cphase(0.45, 0, 7).ccx(7, 0, 4);
        let snap = |ranks_log2: u32| {
            let cfg = SimConfig::default()
                .with_block_log2(3)
                .with_ranks_log2(ranks_log2);
            let mut sim = CompressedSimulator::new(8, cfg).unwrap();
            let mut rng = StdRng::seed_from_u64(0);
            sim.run(&c, &mut rng).unwrap();
            sim.snapshot_dense().unwrap()
        };
        let (one, two, four) = (snap(0), snap(1), snap(2));
        for (a, b) in one.amplitudes().iter().zip(two.amplitudes()) {
            assert!((*a - *b).abs() < 1e-14);
        }
        for (a, b) in one.amplitudes().iter().zip(four.amplitudes()) {
            assert!((*a - *b).abs() < 1e-14);
        }
    }

    #[test]
    fn threads_per_rank_is_behavior_neutral() {
        let mut c = Circuit::new(7);
        for q in 0..7 {
            c.h(q);
        }
        c.cx(6, 0).rz(0.9, 6);
        let snap = |ranks_log2: u32, threads: Option<usize>| {
            let mut cfg = SimConfig::default()
                .with_block_log2(3)
                .with_ranks_log2(ranks_log2);
            cfg.threads_per_rank = threads;
            let mut sim = CompressedSimulator::new(7, cfg).unwrap();
            let mut rng = StdRng::seed_from_u64(0);
            sim.run(&c, &mut rng).unwrap();
            sim.snapshot_dense().unwrap()
        };
        // Cluster path (4 rank threads) and the local path's pinned pool
        // must both be bit-identical to the ambient-width run.
        let auto = snap(2, None);
        for other in [snap(2, Some(1)), snap(2, Some(4)), snap(0, Some(4))] {
            for (a, b) in auto.amplitudes().iter().zip(other.amplitudes()) {
                assert_eq!(a.re.to_bits(), b.re.to_bits());
                assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }
    }

    #[test]
    fn weighted_scan_never_lands_on_a_zero_weight() {
        // After a collapse on a block-index qubit the trailing blocks
        // weigh exactly zero; `r` pinned at the total is what rounding in
        // the running subtraction can leave the scan with.
        let weights = [0.25, 0.0, 0.75, 0.0, 0.0];
        let total: f64 = weights.iter().sum();
        let mut r = total;
        assert_eq!(pick_weighted(weights.iter().copied(), &mut r), 2);
        assert_eq!(r, 0.0);
        // Inside the range the scan is the plain inverse CDF, and leaves
        // the remainder within the chosen slot behind.
        let mut r = 0.5;
        assert_eq!(pick_weighted(weights.iter().copied(), &mut r), 2);
        assert_eq!(r, 0.25);
        let mut r = 0.0;
        assert_eq!(pick_weighted(weights.iter().copied(), &mut r), 0);
    }

    #[test]
    fn sample_returns_valid_indices() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut sim = CompressedSimulator::new(6, small_cfg()).unwrap();
        let mut c = Circuit::new(6);
        c.h(0).h(3);
        sim.run(&c, &mut rng).unwrap();
        for _ in 0..50 {
            let s = sim.sample(&mut rng).unwrap();
            // Only qubits 0 and 3 are in superposition.
            assert_eq!(s & !0b001001, 0, "sampled {s:b}");
        }
    }

    #[test]
    fn z_expectations_match_dense() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut c = Circuit::new(6);
        c.h(0).cx(0, 5).ry(0.8, 3).cx(3, 1);
        let mut sim = CompressedSimulator::new(6, small_cfg()).unwrap();
        sim.run(&c, &mut rng).unwrap();
        let dense = c.simulate_dense(&mut rng);
        for q in 0..6 {
            let expect = 1.0 - 2.0 * dense.prob_one(q);
            assert!(
                (sim.expectation_z(q).unwrap() - expect).abs() < 1e-12,
                "qubit {q}"
            );
        }
        // ZZ on the Bell pair (0,5) is +1; on uncorrelated pairs it
        // factorizes.
        assert!((sim.expectation_zz(0, 5).unwrap() - 1.0).abs() < 1e-12);
        let z3 = sim.expectation_z(3).unwrap();
        let z2 = sim.expectation_z(2).unwrap();
        assert!((sim.expectation_zz(2, 3).unwrap() - z2 * z3).abs() < 1e-9);
    }

    #[test]
    fn fusion_matches_unfused_and_reduces_block_touches() {
        let mut c = Circuit::new(6);
        for q in 0..6 {
            c.h(q);
        }
        c.t(0)
            .sx(0)
            .rz(0.3, 1)
            .ry(0.2, 1)
            .cx(1, 0)
            .cphase(0.5, 4, 2);
        c.h(2).t(2);
        let run = |fusion: bool| {
            let cfg = small_cfg().with_fusion(fusion).without_cache();
            let mut sim = CompressedSimulator::new(6, cfg).unwrap();
            let mut rng = StdRng::seed_from_u64(0);
            sim.run(&c, &mut rng).unwrap();
            let snap = sim.snapshot_dense().unwrap();
            (snap, sim.report())
        };
        let (s_on, r_on) = run(true);
        let (s_off, r_off) = run(false);
        assert!(s_on.fidelity(&s_off) > 1.0 - 1e-12);
        // Source-gate accounting is identical either way.
        assert_eq!(r_on.gates, r_off.gates);
        assert_eq!(r_on.gates, c.gate_count());
        // Fusion + batching must strictly amortize decompression cycles.
        assert!(
            r_on.breakdown.block_touches < r_off.breakdown.block_touches,
            "fused {} vs unfused {} touches",
            r_on.breakdown.block_touches,
            r_off.breakdown.block_touches
        );
        assert!(r_on.breakdown.gates_per_block_touch() > 1.0);
        assert!((r_off.breakdown.gates_per_block_touch() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn batched_touch_consults_cache_once_per_touch() {
        // n=6, block_log2=3, one rank -> 8 blocks. Four intra-block gates
        // form one batch: the cache must be consulted once per touched
        // block (8), not once per gate per block (32).
        let mut c = Circuit::new(6);
        c.h(0).t(1).rz(0.1, 2).h(1);
        let mut rng = StdRng::seed_from_u64(0);

        // Cache on: exactly one consult (hit or miss) per touched block.
        let cfg = SimConfig::default().with_block_log2(3).with_ranks_log2(0);
        let mut sim = CompressedSimulator::new(6, cfg).unwrap();
        sim.run(&c, &mut rng).unwrap();
        let report = sim.report();
        assert_eq!(
            report.cache_hits + report.cache_misses,
            8,
            "expected one cache consult per block touch"
        );

        // Cache off: every block is cycled once and carries all four gates.
        let cfg = SimConfig::default()
            .with_block_log2(3)
            .with_ranks_log2(0)
            .without_cache();
        let mut sim = CompressedSimulator::new(6, cfg).unwrap();
        sim.run(&c, &mut rng).unwrap();
        let b = sim.metrics().breakdown();
        assert_eq!(b.block_touches, 8);
        assert_eq!(b.batched_gate_applications, 32);
        assert!((b.gates_per_block_touch() - 4.0).abs() < 1e-12);
        let dense = c.simulate_dense(&mut rng);
        assert!(sim.snapshot_dense().unwrap().fidelity(&dense) > 1.0 - 1e-12);
    }

    #[test]
    fn selection_mask_keeps_cache_sound_across_identical_blocks() {
        // 16 byte-identical blocks, then a batch where a block-scope
        // control makes the applicable-gate subset differ between blocks.
        // If the selection mask were not part of the cache key, one class
        // of blocks would be served the other class's cached output.
        let cfg = SimConfig::default().with_block_log2(2).with_ranks_log2(0);
        let mut sim = CompressedSimulator::new(6, cfg).unwrap();
        let mut c = Circuit::new(6);
        c.h(2).h(3).h(4).h(5); // spread: every block holds (0.25, 0) at offset 0
        c.x(0); // fires on all 16 blocks
        c.cx(5, 1); // fires only where the qubit-5 block bit is 1
        let mut rng = StdRng::seed_from_u64(0);
        sim.run(&c, &mut rng).unwrap();
        // The last two gates form one batch over 16 byte-identical blocks
        // split into two selection classes (X-only vs X-then-CX). Any key
        // collision between the classes corrupts amplitudes.
        let dense = c.simulate_dense(&mut rng);
        assert!(
            sim.snapshot_dense().unwrap().fidelity(&dense) > 1.0 - 1e-12,
            "selection-mask collision corrupted the state"
        );
    }

    #[test]
    fn opposite_angles_never_share_a_line() {
        // h(8) leaves the q8 = 0 and q8 = 1 blocks byte-identical (B).
        // R(θ) on qubit 0 controlled on 8 files (R(θ), B); x(8) brings an
        // untouched B under the control, where R(-θ) looks it up again.
        // ±θ differ only in two entries' sign bits, which a linear key
        // fold cancels: the cache would answer R(θ)·B.
        use qcs_statevec::GateKind;
        for rot in [GateKind::Rx, GateKind::Ry, GateKind::Rz] {
            let mut c = Circuit::new(9);
            c.h(8);
            for theta in [0.3, -0.3] {
                let gate = rot(theta);
                c.push(Op::Gate {
                    gate,
                    controls: vec![8],
                    target: 0,
                });
                c.x(8);
            }
            let cfg = SimConfig::default().with_block_log2(3);
            let mut sim = CompressedSimulator::new(9, cfg).unwrap();
            let mut rng = StdRng::seed_from_u64(0);
            sim.run(&c, &mut rng).unwrap();
            let dense = c.simulate_dense(&mut rng);
            let f = sim.snapshot_dense().unwrap().fidelity(&dense);
            assert!(f > 1.0 - 1e-12, "{:?}: fidelity {f}", rot(0.3));
        }
    }

    #[test]
    fn equal_touches_share_a_line_across_ops() {
        // 6 qubits over 2^3-amp blocks: the H wall on the three block
        // qubits leaves 8 byte-identical blocks B. `cx(5, 0)` applies X at
        // offset bit 0 to blocks 4-7 and files (X, B); `x(0)` then finds
        // that line on blocks 0-3, though it is another op. Blocks 4-7
        // (now X·B) cost it one miss.
        let cfg = SimConfig::default()
            .with_block_log2(3)
            .with_threads_per_rank(1)
            .without_fusion();
        let mut sim = CompressedSimulator::new(6, cfg).unwrap();
        let mut c = Circuit::new(6);
        c.h(3).h(4).h(5).cx(5, 0);
        let mut rng = StdRng::seed_from_u64(0);
        sim.run(&c, &mut rng).unwrap();
        let before = sim.report();
        let mut x = Circuit::new(6);
        x.x(0);
        sim.run(&x, &mut rng).unwrap();
        let after = sim.report();
        assert_eq!(
            (
                after.cache_hits - before.cache_hits,
                after.cache_misses - before.cache_misses
            ),
            (7, 1)
        );
        c.x(0);
        let dense = c.simulate_dense(&mut rng);
        assert!(sim.snapshot_dense().unwrap().fidelity(&dense) > 1.0 - 1e-12);
    }

    #[test]
    fn run_schedule_rejects_mismatched_geometry() {
        use qcs_circuits::{schedule_circuit, FusionPolicy};
        let mut c = Circuit::new(6);
        c.h(0).t(1);
        // Schedule built for 5-bit blocks; simulator uses 3-bit blocks with
        // qubit 4 routing inter-block -> batching it is a config error.
        let mut c2 = Circuit::new(6);
        c2.h(4).t(3);
        let sched = schedule_circuit(&c2, &FusionPolicy::for_block(5));
        let mut sim = CompressedSimulator::new(6, small_cfg()).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let err = sim.run_schedule(&sched, &mut rng);
        assert!(matches!(err, Err(SimError::Config(_))), "got {err:?}");
        // The well-matched schedule runs fine.
        let sched_ok = schedule_circuit(&c, &FusionPolicy::for_block(3));
        let mut sim2 = CompressedSimulator::new(6, small_cfg()).unwrap();
        sim2.run_schedule(&sched_ok, &mut rng).unwrap();
        let dense = c.simulate_dense(&mut rng);
        assert!(sim2.snapshot_dense().unwrap().fidelity(&dense) > 1.0 - 1e-12);
    }

    /// A circuit or a schedule on another register, and a resume point
    /// past the schedule's end, are `SimError::Config`: no rank is sent a
    /// command and the observer is never called.
    #[test]
    fn run_entry_points_refuse_another_register_or_a_start_past_the_end() {
        use qcs_circuits::schedule_circuit;
        let mut sim = CompressedSimulator::new(6, small_cfg()).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let before = sim.report();
        let mut seven = Circuit::new(7);
        seven.h(0).cx(0, 6);
        assert!(is_config_error(sim.run(&seven, &mut rng)));

        let mut observed = 0;
        let mut observer = |_: WaveStatus| {
            observed += 1;
            WaveControl::Continue
        };
        let policy = sim.cfg.fusion_policy();
        let other = schedule_circuit(&seven, &policy);
        let err = sim.run_schedule_observed(&other, &mut rng, 0, &mut observer);
        assert!(is_config_error(err));

        let mut six = Circuit::new(6);
        six.h(0).h(4);
        let schedule = schedule_circuit(&six, &policy);
        let past = schedule.items().len() + 1;
        let err = sim.run_schedule_observed(&schedule, &mut rng, past, &mut observer);
        assert!(is_config_error(err));
        // A start at the end runs nothing and completes.
        let done = sim.run_schedule_observed(&schedule, &mut rng, past - 1, &mut observer);
        assert_eq!(done.unwrap(), RunOutcome::Completed);
        assert_eq!(observed, 0);
        // Nothing was dispatched: no gate, no wave, no metric moved.
        assert_eq!(sim.report(), before);
        assert_eq!(sim.prob_one(0).unwrap(), 0.0);
    }

    #[test]
    fn batched_lossy_run_charges_ledger_once_per_batch() {
        let mut c = Circuit::new(6);
        c.h(0).rz(0.4, 1).ry(0.2, 2).t(0); // one 4-gate batch at block_log2=3
        let lossy = ErrorBound::PointwiseRelative(1e-4);
        let run = |fusion: bool| {
            let cfg = SimConfig::default()
                .with_block_log2(3)
                .with_fixed_bound(lossy)
                .with_fusion(fusion);
            let mut sim = CompressedSimulator::new(6, cfg).unwrap();
            let mut rng = StdRng::seed_from_u64(0);
            sim.run(&c, &mut rng).unwrap();
            (
                sim.ledger().lossy_gates(),
                sim.report().fidelity_lower_bound,
            )
        };
        let (lossy_on, bound_on) = run(true);
        let (lossy_off, bound_off) = run(false);
        assert_eq!(lossy_off, 4, "unfused: one lossy event per gate");
        assert_eq!(lossy_on, 1, "fused: one lossy event per batch");
        assert!(bound_on > bound_off);

        // A wave the cache answers on every block still replays lossy
        // recompressions: the same amplitudes are charged the same with the
        // cache on and off — for in-block waves (X on qubit 0) and for
        // inter-block pair waves (X on block qubit 8) alike.
        for target in [0, 8] {
            let mut probe = Circuit::new(9);
            for q in 4..=8 {
                probe.h(q);
            }
            probe.ry(0.3, 0).ry(0.7, 1);
            for _ in 0..4 {
                probe.x(target);
            }
            let charged = |cache: bool| {
                let mut cfg = SimConfig::default()
                    .with_block_log2(3)
                    .with_fixed_bound(ErrorBound::PointwiseRelative(1e-3))
                    .without_fusion();
                if !cache {
                    cfg = cfg.without_cache();
                }
                let mut sim = CompressedSimulator::new(9, cfg).unwrap();
                sim.run(&probe, &mut StdRng::seed_from_u64(0)).unwrap();
                let report = sim.report();
                let charge = (sim.ledger().lossy_gates(), report.fidelity_lower_bound);
                (charge, report.cache_hits)
            };
            let ((on, hits), (off, _)) = (charged(true), charged(false));
            assert!(hits > 0, "x({target}): the probe must hit the cache");
            assert_eq!(
                on, off,
                "x({target}): cache on vs off: (lossy gates, bound)"
            );
        }
    }

    #[test]
    fn spilled_run_matches_resident_run_bitwise() {
        // 9 qubits, 3-bit blocks, one rank -> 64 blocks; keep only 4
        // resident. The out-of-core tier must be a pure storage change.
        let mut c = Circuit::new(9);
        for q in 0..9 {
            c.h(q);
        }
        c.t(0).rz(0.4, 8).cx(8, 1).cphase(0.7, 3, 6);
        let snap = |spill: Option<usize>| {
            let mut cfg = SimConfig::default().with_block_log2(3);
            if let Some(budget) = spill {
                cfg = cfg.with_spill(budget);
            }
            let mut sim = CompressedSimulator::new(9, cfg).unwrap();
            let mut rng = StdRng::seed_from_u64(0);
            sim.run(&c, &mut rng).unwrap();
            (sim.snapshot_dense().unwrap(), sim.report())
        };
        let (resident, r_mem) = snap(None);
        let (spilled, r_spill) = snap(Some(4));
        for (a, b) in resident.amplitudes().iter().zip(spilled.amplitudes()) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
        assert_eq!(r_mem.breakdown.spills, 0, "all-resident run must not spill");
        assert!(r_spill.breakdown.spills > 0, "budgeted run must spill");
        assert!(r_spill.breakdown.fetches > 0, "budgeted run must fetch");
        assert!(r_spill.breakdown.spill_bytes > 0 && r_spill.breakdown.fetch_bytes > 0);
        assert!(
            r_spill.breakdown.spill_io_ns() > 0,
            "spill i/o must cost time"
        );
    }

    #[test]
    fn spill_caps_resident_memory() {
        let cfg = SimConfig::default().with_block_log2(3).with_spill(2);
        let mut sim = CompressedSimulator::new(9, cfg).unwrap();
        let mut c = Circuit::new(9);
        for q in 0..9 {
            c.h(q);
        }
        let mut rng = StdRng::seed_from_u64(1);
        sim.run(&c, &mut rng).unwrap();
        // 64 equal-sized nonzero blocks, 2 resident: resident bytes must
        // be a small fraction of the full compressed footprint, and Eq. 8
        // memory accounting must charge only the resident share.
        assert!(sim.resident_bytes() * 8 < sim.compressed_bytes());
        let scratch = 2 * (sim.layout().block_amps() as u64) * 16;
        assert_eq!(sim.memory_bytes(), sim.resident_bytes() + scratch);
    }

    #[test]
    fn spilled_cluster_run_matches_and_exchanges() {
        // 2 rank workers, each with a 2-block residency budget: the
        // compressed exchange must compose with the out-of-core tier.
        let mut c = Circuit::new(8);
        for q in 0..8 {
            c.h(q);
        }
        c.cx(7, 0).t(7).cphase(0.3, 0, 7);
        let run = |spill: bool| {
            let mut cfg = SimConfig::default().with_block_log2(3).with_ranks_log2(1);
            if spill {
                cfg = cfg.with_spill(2);
            }
            let mut sim = CompressedSimulator::new(8, cfg).unwrap();
            let mut rng = StdRng::seed_from_u64(2);
            sim.run(&c, &mut rng).unwrap();
            (sim.snapshot_dense().unwrap(), sim.report())
        };
        let (mem, _) = run(false);
        let (spilled, report) = run(true);
        for (a, b) in mem.amplitudes().iter().zip(spilled.amplitudes()) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
        assert!(report.breakdown.spills > 0);
        assert!(
            report.breakdown.exchanges > 0,
            "rank-crossing gates must exchange"
        );
    }

    #[test]
    fn a_failed_spill_write_ends_the_run_in_a_typed_error_and_poisons_the_rank() {
        // Every store's writes fail once seeded: the first eviction of the
        // first wave fails, and the wave's fetched blocks never go back.
        let mut c = Circuit::new(8);
        for q in 0..8 {
            c.h(q);
        }
        for ranks_log2 in [0, 1] {
            let cfg = SimConfig::default()
                .with_block_log2(3)
                .with_ranks_log2(ranks_log2)
                .with_spill(2);
            let mut sim = CompressedSimulator::new_wrapped(8, cfg, |_, store| {
                store.debug_set_write_fault(true);
                store
            })
            .unwrap();
            let mut rng = StdRng::seed_from_u64(2);
            match sim.run(&c, &mut rng) {
                Err(SimError::Spill(msg)) => assert!(msg.contains("injected"), "{msg}"),
                other => panic!("ranks_log2={ranks_log2}: {other:?}"),
            }
            // The failed rank answers every later command with its error.
            assert!(
                matches!(sim.prob_one(0), Err(SimError::Spill(_))),
                "ranks_log2={ranks_log2}: a query after the failure"
            );
            assert!(
                matches!(sim.run(&c, &mut rng), Err(SimError::Spill(_))),
                "ranks_log2={ranks_log2}: a wave after the failure"
            );
        }
    }

    #[test]
    fn spill_config_validation() {
        let cfg = SimConfig::default().with_block_log2(3).with_spill(0);
        assert!(matches!(
            CompressedSimulator::new(9, cfg),
            Err(SimError::Config(_))
        ));
    }

    #[test]
    fn grover_end_to_end_compressed() {
        let mut rng = StdRng::seed_from_u64(10);
        let n = 8;
        let target = 0b1011_0101 & ((1 << n) - 1);
        let c = qcs_circuits::grover_circuit(n, target, qcs_circuits::optimal_iterations(n));
        let cfg = SimConfig::default().with_block_log2(4).with_ranks_log2(1);
        let mut sim = CompressedSimulator::new(n as u32, cfg).unwrap();
        sim.run(&c, &mut rng).unwrap();
        let sv = sim.snapshot_dense().unwrap();
        let p = sv.probabilities()[target as usize];
        assert!(p > 0.95, "grover success probability {p}");
        // Structured circuit: compression ratio should be comfortably > 1.
        assert!(sim.report().min_compression_ratio > 1.0);
    }
}
