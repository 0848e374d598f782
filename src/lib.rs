//! # qcsim — Full-State Quantum Circuit Simulation by Using Data Compression
//!
//! Umbrella crate re-exporting the whole workspace: a reproduction of
//! Wu et al., SC 2019 (arXiv:1911.04034).
//!
//! - [`compress`] — the engine's two codecs: the lossless backend and
//!   the paper's error-bounded Solution C (the SZ, Solution D, ZFP and
//!   FPZIP comparators are in the `qcs-bench` harness);
//! - [`statevec`] — dense Schrödinger substrate (Intel-QS stand-in);
//! - [`circuits`] — Grover / supremacy RCS / QAOA / QFT workloads;
//! - [`cluster`] — simulated MPI rank layout and phase metrics;
//! - [`core`] — the compressed-block simulator itself;
//! - [`server`] — simulation-as-a-service: the multi-tenant job
//!   scheduler daemon and its client helper.
//!
//! See `examples/quickstart.rs` for a five-minute tour.

#![warn(missing_docs)]

pub use qcs_circuits as circuits;
pub use qcs_cluster as cluster;
pub use qcs_compress as compress;
pub use qcs_core as core;
pub use qcs_server as server;
pub use qcs_statevec as statevec;

pub use qcs_circuits::{Circuit, Op};
pub use qcs_compress::{Codec, CodecId, ErrorBound};
pub use qcs_core::{CompressedSimulator, Eviction, SimConfig, SimReport, SpillConfig};
pub use qcs_statevec::{Complex64, Gate1, GateKind, StateVector};

/// Compiles and runs every Rust code block in `README.md` as a doctest,
/// so the README's quickstart and out-of-core snippets can never drift
/// from the actual API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
