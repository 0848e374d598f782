//! Grover's search benchmark (paper §5.3).
//!
//! The paper's Grover benchmark searches for a square-root value with an
//! oracle built from X and Toffoli gates. We provide exactly that
//! construction: the marked item is encoded with X conjugation, the phase
//! flip is a multi-controlled Z, and an ancilla-ladder variant decomposes
//! the multi-controlled Z into Toffolis so that the gate census matches the
//! paper's "X and Toffoli gates" description.

use crate::circuit::Circuit;

/// Number of Grover iterations that maximizes success probability:
/// `floor(pi/4 * sqrt(2^n))`.
pub fn optimal_iterations(n_data: usize) -> usize {
    let n = (1u64 << n_data) as f64;
    ((std::f64::consts::PI / 4.0) * n.sqrt()).floor().max(1.0) as usize
}

/// The marked element for the paper's "find the square root" framing:
/// searching for `x` with `x * x = square mod 2^n` — we mark
/// `floor(sqrt(square))` directly, which is what the compiled oracle does.
pub fn sqrt_target(n_data: usize, square: u64) -> u64 {
    let mask = (1u64 << n_data) - 1;
    ((square as f64).sqrt().floor() as u64) & mask
}

/// Compact Grover circuit using native multi-controlled Z (no ancillas).
///
/// Qubit layout: `n_data` data qubits, nothing else. Gate count is
/// `O(iterations * n_data)`.
pub fn grover_circuit(n_data: usize, target: u64, iterations: usize) -> Circuit {
    assert!(n_data >= 2, "grover needs at least 2 data qubits");
    assert!(target < (1u64 << n_data));
    let mut c = Circuit::new(n_data);
    // Uniform superposition.
    for q in 0..n_data {
        c.h(q);
    }
    let controls: Vec<usize> = (0..n_data - 1).collect();
    for _ in 0..iterations {
        // Oracle: phase-flip |target>. X-conjugate the zero bits, then MCZ.
        for q in 0..n_data {
            if target >> q & 1 == 0 {
                c.x(q);
            }
        }
        c.mcz(&controls, n_data - 1);
        for q in 0..n_data {
            if target >> q & 1 == 0 {
                c.x(q);
            }
        }
        // Diffusion: H X (MCZ) X H.
        for q in 0..n_data {
            c.h(q);
        }
        for q in 0..n_data {
            c.x(q);
        }
        c.mcz(&controls, n_data - 1);
        for q in 0..n_data {
            c.x(q);
        }
        for q in 0..n_data {
            c.h(q);
        }
    }
    c
}

/// Grover circuit whose multi-controlled Z gates are decomposed into a
/// Toffoli ladder over ancilla qubits (the paper's "oracle consists of X
/// and Toffoli gates").
///
/// Layout: data qubits `0..n_data`, ancillas `n_data..n_data + n_data - 2`.
/// The MCZ over `n_data` qubits becomes `2(n_data - 2)` Toffolis plus one
/// CZ, computed and uncomputed around the phase flip.
pub fn grover_circuit_toffoli(n_data: usize, target: u64, iterations: usize) -> Circuit {
    assert!(n_data >= 3, "toffoli-ladder grover needs >= 3 data qubits");
    assert!(target < (1u64 << n_data));
    let n_anc = n_data - 2;
    let total = n_data + n_anc;
    let mut c = Circuit::new(total);
    let anc = |i: usize| n_data + i;

    let mcz_ladder = |c: &mut Circuit| {
        // AND-accumulate controls 0..n_data-1 into ancillas.
        c.ccx(0, 1, anc(0));
        for i in 0..n_anc - 1 {
            c.ccx(2 + i, anc(i), anc(i + 1));
        }
        // Phase flip conditioned on the final ancilla and the last data
        // qubit: controlled-Z.
        c.cz(anc(n_anc - 1), n_data - 1);
        // Uncompute.
        for i in (0..n_anc - 1).rev() {
            c.ccx(2 + i, anc(i), anc(i + 1));
        }
        c.ccx(0, 1, anc(0));
    };

    for q in 0..n_data {
        c.h(q);
    }
    for _ in 0..iterations {
        for q in 0..n_data {
            if target >> q & 1 == 0 {
                c.x(q);
            }
        }
        mcz_ladder(&mut c);
        for q in 0..n_data {
            if target >> q & 1 == 0 {
                c.x(q);
            }
        }
        for q in 0..n_data {
            c.h(q);
        }
        for q in 0..n_data {
            c.x(q);
        }
        mcz_ladder(&mut c);
        for q in 0..n_data {
            c.x(q);
        }
        for q in 0..n_data {
            c.h(q);
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn optimal_iteration_counts() {
        assert_eq!(optimal_iterations(2), 1);
        assert_eq!(optimal_iterations(4), 3);
        assert_eq!(optimal_iterations(8), 12);
    }

    #[test]
    fn sqrt_target_examples() {
        assert_eq!(sqrt_target(4, 9), 3);
        assert_eq!(sqrt_target(4, 16), 4);
        assert_eq!(sqrt_target(4, 17), 4);
    }

    #[test]
    fn grover_amplifies_target() {
        let n = 6;
        let target = 0b101101 & ((1 << n) - 1);
        let c = grover_circuit(n, target, optimal_iterations(n));
        let mut rng = StdRng::seed_from_u64(1);
        let s = c.simulate_dense(&mut rng);
        let p = s.probabilities()[target as usize];
        assert!(p > 0.95, "target probability {p} too low");
    }

    #[test]
    fn toffoli_variant_matches_compact_variant() {
        let n = 4;
        let target = 0b0110;
        let iters = optimal_iterations(n);
        let mut rng = StdRng::seed_from_u64(2);
        let compact = grover_circuit(n, target, iters).simulate_dense(&mut rng);
        let ladder = grover_circuit_toffoli(n, target, iters).simulate_dense(&mut rng);
        // Compare data-qubit marginals: ancillas are restored to |0>, so the
        // ladder state is the compact state tensor |0...0>.
        let pl = ladder.probabilities();
        let pc = compact.probabilities();
        for (i, &p) in pc.iter().enumerate() {
            assert!((pl[i] - p).abs() < 1e-9, "index {i}: {p} vs {}", pl[i]);
        }
        // All other (ancilla != 0) probabilities vanish.
        let rest: f64 = pl[pc.len()..].iter().sum();
        assert!(rest < 1e-9);
    }

    #[test]
    fn gate_census_is_x_toffoli_heavy() {
        let c = grover_circuit_toffoli(5, 0b10011, 2);
        use crate::circuit::Op;
        let mut tof = 0;
        let mut x = 0;
        for op in c.ops() {
            match op {
                Op::Gate { controls, .. } if controls.len() == 2 => tof += 1,
                Op::Gate {
                    gate: qcs_statevec::GateKind::X,
                    controls,
                    ..
                } if controls.is_empty() => x += 1,
                _ => {}
            }
        }
        assert!(tof > 0 && x > 0);
    }
}
