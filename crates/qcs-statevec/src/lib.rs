//! # qcs-statevec
//!
//! Dense Schrödinger-style full-state simulator substrate — the stand-in
//! for Intel-QS (qHiPSTER) that the paper builds on (§2.2, §3.1).
//!
//! Provides [`Complex64`] arithmetic, the standard gate library
//! ([`Gate1`], [`GateKind`]), and the dense [`StateVector`] with
//! pair-update gate application (Eq. 6/7), measurement, and fidelity.
//!
//! The compressed simulator in `qcs-core` reproduces these semantics on
//! compressed blocks; the dense vector here doubles as the ground-truth
//! reference in tests and fidelity measurements.
//!
//! ## Example
//!
//! ```
//! use qcs_statevec::{Gate1, StateVector};
//!
//! // Bell pair.
//! let mut s = StateVector::zero_state(2);
//! s.apply_gate(&Gate1::h(), 0);
//! s.apply_controlled(&Gate1::x(), 0, 1);
//! assert!((s.prob_one(1) - 0.5).abs() < 1e-12);
//! ```

#![warn(missing_docs)]

pub mod complex;
pub mod gates;
pub mod kernels;
pub mod noise;
pub mod observables;
pub mod state;

pub use complex::Complex64;
pub use gates::{qft_phase, Gate1, GateKind};
pub use noise::NoiseModel;
pub use observables::{entanglement_entropy, Pauli, PauliString};
pub use state::{BatchGate, StateVector};
