//! Stochastic depolarizing noise via quantum trajectories.
//!
//! The paper's conclusion (§6) proposes treating lossy-compression errors
//! as a *natural* noise model: "The compression errors are not correlated
//! to the data, and hence the errors might be used to further simulate
//! noise on real devices. The modern noise simulations add errors to
//! perfect simulations." This module implements the trajectory-style
//! depolarizing channel such "modern" simulations add after every gate, so
//! the compressed simulator's bounded compression noise can be compared
//! against it (see `examples/noise_model.rs`).

use crate::gates::Gate1;
use crate::state::StateVector;
use rand::Rng;

/// With probability `p`, apply a uniformly random Pauli to `qubit`: one
/// sampled branch of the depolarizing channel (trajectory method). Draws
/// one `f64`, then the Pauli's index when the error fires.
pub fn depolarize(state: &mut StateVector, qubit: usize, p: f64, rng: &mut impl Rng) {
    if rng.gen::<f64>() < p {
        match rng.gen_range(0..3) {
            0 => state.apply_gate(&Gate1::x(), qubit),
            1 => state.apply_gate(&Gate1::y(), qubit),
            _ => state.apply_gate(&Gate1::z(), qubit),
        }
    }
}

/// A noise model: depolarizing probabilities applied after every gate to
/// each qubit it names. A class with probability 0 draws nothing, so the
/// ideal model consumes no randomness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Depolarizing probability after each uncontrolled single-qubit gate.
    pub p_single: f64,
    /// Depolarizing probability on each qubit of a controlled gate or a
    /// swap.
    pub p_multi: f64,
}

impl NoiseModel {
    /// Uniform depolarizing noise with single/multi-qubit error rates.
    pub fn depolarizing(p1: f64, p2: f64) -> Self {
        Self {
            p_single: p1,
            p_multi: p2,
        }
    }

    /// Noise-free model.
    pub fn ideal() -> Self {
        Self::depolarizing(0.0, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_probability_is_identity() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut s = StateVector::zero_state(3);
        s.apply_gate(&Gate1::h(), 0);
        let before = s.clone();
        for _ in 0..50 {
            depolarize(&mut s, 0, 0.0, &mut rng);
        }
        assert!(s.fidelity(&before) > 1.0 - 1e-12);
    }

    #[test]
    fn noise_preserves_norm() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut s = StateVector::zero_state(4);
        for q in 0..4 {
            s.apply_gate(&Gate1::h(), q);
        }
        for _ in 0..20 {
            for q in 0..4 {
                depolarize(&mut s, q, 0.3, &mut rng);
                assert!((s.norm_sqr() - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn depolarizing_shrinks_average_fidelity() {
        // Average over trajectories: fidelity to the ideal state drops.
        let mut ideal = StateVector::zero_state(2);
        ideal.apply_gate(&Gate1::h(), 0);
        ideal.apply_controlled(&Gate1::x(), 0, 1);
        let mut total = 0.0;
        let trials = 200;
        for seed in 0..trials {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut s = StateVector::zero_state(2);
            s.apply_gate(&Gate1::h(), 0);
            depolarize(&mut s, 0, 0.2, &mut rng);
            s.apply_controlled(&Gate1::x(), 0, 1);
            depolarize(&mut s, 1, 0.2, &mut rng);
            total += s.fidelity(&ideal).powi(2);
        }
        let avg = total / trials as f64;
        assert!(avg < 0.95, "average fidelity^2 {avg} should drop below 1");
        assert!(avg > 0.5, "but not collapse entirely: {avg}");
    }
}
