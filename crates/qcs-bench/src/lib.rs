//! # qcs-bench
//!
//! Shared machinery for the reproduction harness: workload snapshot
//! generation (the laptop-scale analogues of the paper's `qaoa_36` and
//! `sup_36` datasets), table formatting, and CSV emission. The `repro`
//! binary in this crate has one subcommand per table/figure of the paper;
//! the criterion benches cover the kernel-level measurements. The paper's
//! comparator codecs (SZ, Solution D, ZFP, FPZIP) live in [`comparators`].

#![warn(missing_docs)]

pub mod comparators;
pub mod table;
pub mod workloads;

pub use table::Table;
pub use workloads::{qaoa_snapshot, supremacy_snapshot, Snapshot};
