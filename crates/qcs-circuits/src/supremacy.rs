//! Google quantum-supremacy random circuit sampling benchmark (§5.3).
//!
//! Follows the construction rules of Boixo et al., "Characterizing quantum
//! supremacy in near-term devices" (ref. \[9\] of the paper): qubits on a 2D
//! grid, a cycle of eight staggered CZ patterns, and randomized single-qubit
//! gates from {T, sqrt(X), sqrt(Y)} subject to:
//!
//! 1. start with a layer of Hadamards;
//! 2. place a CZ pattern each clock cycle, cycling through the 8 patterns;
//! 3. a qubit gets a random single-qubit gate in cycle `t` only if it was
//!    acted on by a CZ in cycle `t-1` and is idle in cycle `t`;
//! 4. the *first* single-qubit gate on a qubit (after its initial H) is
//!    always a T gate;
//! 5. a randomly chosen gate must differ from the previous gate on that
//!    qubit; sqrt(X)/sqrt(Y) choices follow a seeded RNG.

use crate::circuit::Circuit;
use qcs_statevec::GateKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A rows x cols qubit grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid {
    /// Grid rows.
    pub rows: usize,
    /// Grid columns.
    pub cols: usize,
}

impl Grid {
    /// Construct a grid.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows >= 1 && cols >= 1);
        Self { rows, cols }
    }

    /// Total qubits.
    pub fn num_qubits(&self) -> usize {
        self.rows * self.cols
    }

    /// Linear index of (row, col).
    pub fn index(&self, r: usize, c: usize) -> usize {
        r * self.cols + c
    }
}

/// CZ pairs for pattern `p` (0..8) on `grid`, per the staggered layout of
/// Boixo et al.: alternating horizontal/vertical bond sub-lattices.
pub fn cz_pattern(grid: Grid, p: usize) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    let p = p % 8;
    if p < 4 {
        // Horizontal bonds: col parity and row offset select the sub-lattice.
        let (col_par, row_par) = match p {
            0 => (0, 0),
            1 => (1, 1),
            2 => (1, 0),
            _ => (0, 1),
        };
        for r in 0..grid.rows {
            if r % 2 != row_par {
                continue;
            }
            for c in (col_par..grid.cols.saturating_sub(1)).step_by(2) {
                pairs.push((grid.index(r, c), grid.index(r, c + 1)));
            }
        }
    } else {
        let (row_par, col_par) = match p {
            4 => (0, 0),
            5 => (1, 1),
            6 => (1, 0),
            _ => (0, 1),
        };
        for c in 0..grid.cols {
            if c % 2 != col_par {
                continue;
            }
            for r in (row_par..grid.rows.saturating_sub(1)).step_by(2) {
                pairs.push((grid.index(r, c), grid.index(r + 1, c)));
            }
        }
    }
    pairs
}

/// Build a random supremacy circuit of `depth` clock cycles (CZ layers)
/// after the initial Hadamard layer. `seed` fixes the single-qubit choices.
pub fn random_circuit(grid: Grid, depth: usize, seed: u64) -> Circuit {
    let n = grid.num_qubits();
    let mut c = Circuit::new(n);
    let mut rng = StdRng::seed_from_u64(seed);

    for q in 0..n {
        c.h(q);
    }

    // Per-qubit bookkeeping for rules 3-5.
    let mut had_cz_prev = vec![false; n];
    let mut had_any_single = vec![false; n];
    let mut last_gate: Vec<Option<u8>> = vec![None; n];

    for layer in 0..depth {
        let pairs = cz_pattern(grid, layer % 8);
        let mut in_cz = vec![false; n];
        for &(a, b) in &pairs {
            in_cz[a] = true;
            in_cz[b] = true;
        }
        // Rule 3: single-qubit gates on qubits idle now but CZ'd last cycle.
        for q in 0..n {
            if in_cz[q] || !had_cz_prev[q] {
                continue;
            }
            let gate_id: u8 = if !had_any_single[q] {
                0 // rule 4: first single-qubit gate is T
            } else {
                // rule 5: differ from the previous gate on this qubit.
                loop {
                    let g = rng.gen_range(0..3u8);
                    if Some(g) != last_gate[q] {
                        break g;
                    }
                }
            };
            let kind = match gate_id {
                0 => GateKind::T,
                1 => GateKind::SqrtX,
                _ => GateKind::SqrtY,
            };
            c.push(crate::circuit::Op::Gate {
                gate: kind,
                controls: vec![],
                target: q,
            });
            had_any_single[q] = true;
            last_gate[q] = Some(gate_id);
        }
        for &(a, b) in &pairs {
            c.cz(a, b);
        }
        had_cz_prev.copy_from_slice(&in_cz);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Op;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn patterns_cover_disjoint_pairs() {
        let grid = Grid::new(4, 5);
        for p in 0..8 {
            let pairs = cz_pattern(grid, p);
            let mut seen = std::collections::HashSet::new();
            for (a, b) in pairs {
                assert!(a < grid.num_qubits() && b < grid.num_qubits());
                assert!(seen.insert(a), "pattern {p} reuses qubit {a}");
                assert!(seen.insert(b), "pattern {p} reuses qubit {b}");
            }
        }
    }

    #[test]
    fn eight_patterns_cover_all_bonds() {
        let grid = Grid::new(3, 3);
        let mut bonds = std::collections::HashSet::new();
        for p in 0..8 {
            for (a, b) in cz_pattern(grid, p) {
                bonds.insert((a.min(b), a.max(b)));
            }
        }
        // 3x3 grid has 12 nearest-neighbor bonds.
        assert_eq!(bonds.len(), 12);
    }

    #[test]
    fn circuit_starts_with_hadamard_wall() {
        let grid = Grid::new(2, 3);
        let c = random_circuit(grid, 5, 99);
        for (i, op) in c.ops().iter().take(6).enumerate() {
            assert!(
                matches!(
                    op,
                    Op::Gate {
                        gate: qcs_statevec::GateKind::H,
                        ..
                    }
                ),
                "op {i} is {op:?}"
            );
        }
    }

    #[test]
    fn first_single_qubit_gate_is_t() {
        let grid = Grid::new(3, 3);
        let c = random_circuit(grid, 8, 7);
        let mut first: Vec<Option<&'static str>> = vec![None; grid.num_qubits()];
        for op in c.ops().iter().skip(grid.num_qubits()) {
            match op {
                Op::Gate {
                    gate,
                    controls,
                    target,
                } if controls.is_empty() && first[*target].is_none() => {
                    first[*target] = Some(gate.name());
                }
                _ => {}
            }
        }
        for f in first.into_iter().flatten() {
            assert_eq!(f, "t");
        }
    }

    #[test]
    fn no_repeated_gate_on_same_qubit() {
        let grid = Grid::new(3, 4);
        let c = random_circuit(grid, 16, 3);
        let mut last: Vec<Option<&'static str>> = vec![None; grid.num_qubits()];
        for op in c.ops().iter().skip(grid.num_qubits()) {
            match op {
                Op::Gate {
                    gate,
                    controls,
                    target,
                } if controls.is_empty() => {
                    assert_ne!(last[*target], Some(gate.name()), "qubit {target}");
                    last[*target] = Some(gate.name());
                }
                _ => {}
            }
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let grid = Grid::new(2, 4);
        let a = random_circuit(grid, 10, 42);
        let b = random_circuit(grid, 10, 42);
        assert_eq!(a.ops().len(), b.ops().len());
        assert_eq!(a, b);
        let c = random_circuit(grid, 10, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn depth11_circuit_simulates_and_spreads() {
        // Small 3x3 instance: the state should be close to fully spread.
        let grid = Grid::new(3, 3);
        let c = random_circuit(grid, 11, 5);
        let mut rng = StdRng::seed_from_u64(0);
        let s = c.simulate_dense(&mut rng);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-9);
        let nonzero = s.probabilities().iter().filter(|&&p| p > 1e-12).count();
        assert!(
            nonzero > 256,
            "random circuit should populate most amplitudes, got {nonzero}"
        );
    }
}
