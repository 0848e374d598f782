//! # qcs-core
//!
//! The paper's primary contribution: a Schrödinger-style full-state quantum
//! circuit simulator whose state vector lives in **compressed blocks**,
//! trading computation time and (bounded) fidelity for memory space.
//!
//! Key pieces, each mapping to a section of the paper:
//!
//! - [`CompressedSimulator`] — the facade over the engine: routing,
//!   scheduling, ladder/ledger bookkeeping (§3.1-§3.3, Fig. 2/3). Per-rank
//!   state lives in a private `worker` module: each rank worker owns
//!   exactly its `blocks_per_rank` compressed blocks, and with
//!   `ranks_log2 >= 1` the workers run on dedicated threads under
//!   [`qcs_cluster::exec::ClusterSim`], exchanging **compressed** payloads
//!   for rank-crossing gates (the paper's MPI seam);
//! - [`SimConfig`] — block/rank geometry, memory budget, error-bound
//!   ladder (§3.7), cache size (§3.4), out-of-core residency budget;
//! - [`store`] — the block storage tiers behind the workers: [`MemStore`]
//!   (all-resident, the paper's regime) and [`SpillStore`] (hot blocks
//!   under a residency budget, cold blocks in one segment file of
//!   checksummed frames per rank), so the simulable size is
//!   bounded by disk rather than RAM. Out-of-core waves are *planned*:
//!   a wave's block order is known before it runs (the rank worker reads
//!   it off the `qcs_cluster::Layout` slot functions it then walks, as
//!   the schedule's `AccessPlan` does). Each wave announces its own order
//!   to its store in one call, `BlockStore::plan_accesses`, and the
//!   store picks victims by it — Belady's MIN over the wave's window,
//!   the one spill policy. The store does its reads and eviction writes on the
//!   caller's thread, so a rank's resident bytes and spill counters
//!   repeat exactly run to run;
//! - [`BlockCache`] — the 64-line LRU compressed-block cache with
//!   auto-disable (§3.4, Fig. 4);
//! - [`FidelityLedger`] — the `prod (1 - delta_i)` fidelity lower bound
//!   (§3.8, Eq. 10/11, Fig. 6);
//! - [`checkpoint`] — save/resume of compressed blocks (§3.5);
//! - memory accounting per Eq. 8 and the time breakdown of Table 2.
//!
//! ## The batch scheduler
//!
//! Per-gate cost in this engine is dominated by the decompress → compute →
//! recompress cycle, not the arithmetic (Table 2). By default every circuit
//! therefore runs through the batch scheduler
//! (`qcs_circuits::schedule`) before execution:
//!
//! - **What fuses:** a circuit's one gate form is `Op::Gate { gate,
//!   controls, target }`; runs of consecutive gates with empty `controls`
//!   on the same qubit become one matrix product, paying one cycle instead
//!   of one per gate.
//! - **What batches:** consecutive gates whose targets all route
//!   *intra-block* (§3.3 case (a), i.e. target qubit `< block_log2`) form a
//!   `GateBatch`; the engine decompresses each block once per batch,
//!   applies every member gate that selects the block, and recompresses
//!   once. A batched recompression is also a single lossy event, so the
//!   Eq. 11 fidelity ledger is charged once per batch. A lone in-block gate
//!   travels to the ranks as a batch of one plan, so every in-block wave
//!   is the same command.
//! - **What retargets:** controlled diagonal-phase gates (`CZ`, `CS`,
//!   `CT`, `CPhase`, multi-controlled Z) are symmetric under
//!   control/target exchange, so the scheduler re-orients them onto their
//!   lowest qubit — the QFT's high-target cphase cascades become
//!   intra-block (batchable).
//! - **What runs per block:** a controlled `diag(1, λ)` gate whose qubits
//!   all sit at or above `block_log2` scales every block whose high bits
//!   are all set by `λ`. The scheduler emits it as `λ·I` on in-block qubit
//!   0, controlled by every original qubit, so it batches: block-qubit CZs
//!   stop decoding a partner block and rank-qubit CZs stop paying
//!   communication. Uncontrolled phases keep their target.
//! - **What blocks fusion/batching:** gates with controls (for fusion),
//!   swap and measure ops, and any other gate whose target routes
//!   inter-block/inter-rank (for batching). The scheduler never reorders
//!   operations.
//! - **How to disable it:** [`SimConfig::without_fusion`] (or
//!   `fusion: false`, which sets the scheduler's one switch,
//!   `FusionPolicy::enabled`) turns every rewrite off and reproduces the
//!   paper's strict gate-at-a-time pipeline.
//!
//! Cache keys stay sound under batching: a block touch's compressed-block
//! cache line is keyed by its content — the member gates the block's
//! selection mask fires, each by matrix, offset bit and in-block control
//! mask, plus the bound — derived by the rank's block cycle itself, so
//! byte-identical blocks with different applicable-gate subsets never
//! share a line, equal touches anywhere in the circuit do, and the hit/miss
//! counters (`TimeBreakdown::{cache_hits, cache_misses}`) advance once per
//! block touch (not once per fused gate).
//! `TimeBreakdown::gates_per_block_touch` reports the amortization factor
//! actually achieved.
//!
//! ## Example
//!
//! ```
//! use qcs_core::{CompressedSimulator, SimConfig};
//! use qcs_circuits::Circuit;
//! use rand::SeedableRng;
//!
//! let mut circuit = Circuit::new(8);
//! circuit.h(0).cx(0, 7); // Bell pair across the rank boundary
//! let cfg = SimConfig::default().with_block_log2(4).with_ranks_log2(1);
//! let mut sim = CompressedSimulator::new(8, cfg).unwrap();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! sim.run(&circuit, &mut rng).unwrap();
//! assert!((sim.prob_one(7).unwrap() - 0.5).abs() < 1e-12);
//! println!("compression ratio: {:.1}", sim.report().min_compression_ratio);
//! ```

#![warn(missing_docs)]

pub mod block;
pub mod cache;
pub mod checkpoint;
pub mod config;
pub mod engine;
pub mod fidelity_bound;
pub mod net;
#[cfg(test)]
mod plan_check;
#[cfg(test)]
mod query_check;
pub mod serial;
pub mod store;
mod summary;
mod worker;

pub use block::{BlockCodec, CompressedBlock};
pub use cache::BlockCache;
pub use config::{RemoteConfig, SimConfig, SpillConfig};
pub use engine::{CompressedSimulator, RunOutcome, SimError, SimReport, WaveControl, WaveStatus};
pub use fidelity_bound::{fidelity_curve, FidelityLedger};
pub use net::{serve, spawn_loopback, ServeOptions};
pub use store::{BlockStore, Eviction, MemStore, SegmentDirGuard, SpillOptions, SpillStore};
