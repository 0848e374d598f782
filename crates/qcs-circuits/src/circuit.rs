//! Circuit intermediate representation shared by the dense and compressed
//! simulators.

use qcs_statevec::{GateKind, StateVector};

/// One operation in a circuit.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Single-qubit gate on `target`, applied where every qubit of
    /// `controls` is 1 (Eq. 7). Empty `controls` is the uncontrolled gate;
    /// two controls and X is the Toffoli.
    Gate {
        /// Gate to apply on the target.
        gate: GateKind,
        /// Control qubits (all must be 1), possibly none.
        controls: Vec<usize>,
        /// Target qubit.
        target: usize,
    },
    /// Swap two qubits.
    Swap {
        /// First qubit.
        a: usize,
        /// Second qubit.
        b: usize,
    },
    /// Intermediate measurement of one qubit in the computational basis,
    /// collapsing the state (the capability the paper argues full-state
    /// simulation enables, §1).
    Measure {
        /// Measured qubit.
        target: usize,
    },
}

impl Op {
    /// The qubits the op names, the target last.
    pub fn qubits(&self) -> Vec<usize> {
        match self {
            Op::Gate {
                controls, target, ..
            } => controls.iter().chain([target]).copied().collect(),
            Op::Swap { a, b } => vec![*a, *b],
            Op::Measure { target } => vec![*target],
        }
    }

    /// Check the op against a `num_qubits`-qubit register: every qubit it
    /// names is in range and distinct from the others — a gate controlled
    /// on its own target, or a swap of a qubit with itself, is no op.
    pub fn validate(&self, num_qubits: usize) -> Result<(), String> {
        let qubits = self.qubits();
        for (i, q) in qubits.iter().enumerate() {
            if *q >= num_qubits {
                return Err(format!(
                    "{self:?} touches qubit {q}, out of range for {num_qubits} qubits"
                ));
            }
            if qubits[..i].contains(q) {
                return Err(format!("duplicate qubits in {self:?}"));
            }
        }
        Ok(())
    }
}

/// A quantum circuit: a qubit count and an ordered list of operations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Circuit {
    num_qubits: usize,
    ops: Vec<Op>,
}

impl Circuit {
    /// Empty circuit on `num_qubits`.
    pub fn new(num_qubits: usize) -> Self {
        assert!(num_qubits >= 1);
        Self {
            num_qubits,
            ops: Vec::new(),
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Operations in order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Gate count (the paper's "Number of Gates" row counts every op).
    pub fn gate_count(&self) -> usize {
        self.ops.len()
    }

    /// Push a raw op.
    ///
    /// # Panics
    ///
    /// Panics when [`Op::validate`] refuses the op.
    pub fn push(&mut self, op: Op) -> &mut Self {
        if let Err(e) = op.validate(self.num_qubits) {
            panic!("{e}");
        }
        self.ops.push(op);
        self
    }

    /// Append another circuit's ops.
    pub fn extend(&mut self, other: &Circuit) -> &mut Self {
        assert_eq!(self.num_qubits, other.num_qubits);
        self.ops.extend(other.ops.iter().cloned());
        self
    }

    // --- builder helpers ---

    /// Push `gate` on `target` under `controls`.
    fn gate(&mut self, gate: GateKind, controls: &[usize], target: usize) -> &mut Self {
        self.push(Op::Gate {
            gate,
            controls: controls.to_vec(),
            target,
        })
    }

    /// Hadamard.
    pub fn h(&mut self, q: usize) -> &mut Self {
        self.gate(GateKind::H, &[], q)
    }

    /// Pauli-X.
    pub fn x(&mut self, q: usize) -> &mut Self {
        self.gate(GateKind::X, &[], q)
    }

    /// Pauli-Y.
    pub fn y(&mut self, q: usize) -> &mut Self {
        self.gate(GateKind::Y, &[], q)
    }

    /// Pauli-Z.
    pub fn z(&mut self, q: usize) -> &mut Self {
        self.gate(GateKind::Z, &[], q)
    }

    /// T gate.
    pub fn t(&mut self, q: usize) -> &mut Self {
        self.gate(GateKind::T, &[], q)
    }

    /// sqrt(X).
    pub fn sx(&mut self, q: usize) -> &mut Self {
        self.gate(GateKind::SqrtX, &[], q)
    }

    /// sqrt(Y).
    pub fn sy(&mut self, q: usize) -> &mut Self {
        self.gate(GateKind::SqrtY, &[], q)
    }

    /// Rx rotation.
    pub fn rx(&mut self, theta: f64, q: usize) -> &mut Self {
        self.gate(GateKind::Rx(theta), &[], q)
    }

    /// Ry rotation.
    pub fn ry(&mut self, theta: f64, q: usize) -> &mut Self {
        self.gate(GateKind::Ry(theta), &[], q)
    }

    /// Rz rotation.
    pub fn rz(&mut self, theta: f64, q: usize) -> &mut Self {
        self.gate(GateKind::Rz(theta), &[], q)
    }

    /// CNOT.
    pub fn cx(&mut self, control: usize, target: usize) -> &mut Self {
        self.gate(GateKind::X, &[control], target)
    }

    /// Controlled-Z.
    pub fn cz(&mut self, control: usize, target: usize) -> &mut Self {
        self.gate(GateKind::Z, &[control], target)
    }

    /// Controlled phase.
    pub fn cphase(&mut self, theta: f64, control: usize, target: usize) -> &mut Self {
        self.gate(GateKind::Phase(theta), &[control], target)
    }

    /// Toffoli (CCX).
    pub fn ccx(&mut self, c1: usize, c2: usize, target: usize) -> &mut Self {
        self.gate(GateKind::X, &[c1, c2], target)
    }

    /// Multi-controlled Z.
    pub fn mcz(&mut self, controls: &[usize], target: usize) -> &mut Self {
        self.gate(GateKind::Z, controls, target)
    }

    /// Swap.
    pub fn swap(&mut self, a: usize, b: usize) -> &mut Self {
        self.push(Op::Swap { a, b })
    }

    /// Intermediate measurement.
    pub fn measure(&mut self, q: usize) -> &mut Self {
        self.push(Op::Measure { target: q })
    }

    /// Execute on a dense state vector. Measurements consume `rng`.
    pub fn run_dense(&self, state: &mut StateVector, rng: &mut impl rand::Rng) {
        self.run_dense_noisy(state, &qcs_statevec::NoiseModel::ideal(), rng);
    }

    /// Convenience: run from `|0...0>` and return the final state.
    pub fn simulate_dense(&self, rng: &mut impl rand::Rng) -> StateVector {
        let mut s = StateVector::zero_state(self.num_qubits);
        self.run_dense(&mut s, rng);
        s
    }

    /// Execute with a stochastic noise model (one quantum trajectory):
    /// after each gate, every qubit it names is depolarized, controls
    /// first, then the target.
    /// This is the "modern noise simulation" the paper's conclusion
    /// contrasts with its compression-error noise idea (§6).
    pub fn run_dense_noisy(
        &self,
        state: &mut StateVector,
        noise: &qcs_statevec::NoiseModel,
        rng: &mut impl rand::Rng,
    ) {
        assert_eq!(state.num_qubits(), self.num_qubits);
        for op in &self.ops {
            let p = match op {
                Op::Gate {
                    gate,
                    controls,
                    target,
                } if controls.is_empty() => {
                    state.apply_gate(&gate.matrix(), *target);
                    noise.p_single
                }
                Op::Gate {
                    gate,
                    controls,
                    target,
                } => {
                    state.apply_multi_controlled(&gate.matrix(), controls, *target);
                    noise.p_multi
                }
                Op::Swap { a, b } => {
                    state.apply_swap(*a, *b);
                    noise.p_multi
                }
                Op::Measure { target } => {
                    state.measure(*target, rng);
                    continue;
                }
            };
            if p > 0.0 {
                for q in op.qubits() {
                    qcs_statevec::noise::depolarize(state, q, p, rng);
                }
            }
        }
    }

    /// Count of two-or-more-qubit operations (entangling gates).
    pub fn entangling_count(&self) -> usize {
        self.ops.iter().filter(|op| op.qubits().len() > 1).count()
    }

    /// A crude depth estimate: greedy layering of non-overlapping ops.
    pub fn depth(&self) -> usize {
        let mut layers: Vec<Vec<usize>> = Vec::new(); // qubits busy per layer
        for op in &self.ops {
            let qubits = op.qubits();
            // Greedy layering: place after the last layer that conflicts.
            let pos = layers
                .iter()
                .rposition(|layer| qubits.iter().any(|q| layer.contains(q)))
                .map(|p| p + 1)
                .unwrap_or(0);
            if pos == layers.len() {
                layers.push(qubits);
            } else {
                layers[pos].extend(qubits);
            }
        }
        layers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn builder_constructs_expected_ops() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).ccx(0, 1, 2).swap(1, 2).measure(0);
        assert_eq!(c.gate_count(), 5);
        assert_eq!(c.entangling_count(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        Circuit::new(2).h(5);
    }

    #[test]
    #[should_panic(expected = "duplicate qubits")]
    fn duplicate_controls_rejected() {
        Circuit::new(3).push(Op::Gate {
            gate: GateKind::X,
            controls: vec![1, 1],
            target: 2,
        });
    }

    #[test]
    fn bell_circuit_dense() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let mut rng = StdRng::seed_from_u64(0);
        let s = c.simulate_dense(&mut rng);
        assert!((s.probabilities()[0] - 0.5).abs() < 1e-12);
        assert!((s.probabilities()[3] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ghz_with_intermediate_measure_collapses() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).measure(0);
        let mut rng = StdRng::seed_from_u64(123);
        let s = c.simulate_dense(&mut rng);
        let probs = s.probabilities();
        // After measuring qubit 0 of a GHZ state the survivors are 000 or 111.
        assert!(
            (probs[0] - 1.0).abs() < 1e-9 || (probs[7] - 1.0).abs() < 1e-9,
            "probs: {probs:?}"
        );
    }

    #[test]
    fn depth_of_parallel_layer_is_one() {
        let mut c = Circuit::new(4);
        c.h(0).h(1).h(2).h(3);
        assert_eq!(c.depth(), 1);
        c.cx(0, 1);
        assert_eq!(c.depth(), 2);
        c.cx(2, 3);
        assert_eq!(c.depth(), 2);
    }

    #[test]
    fn extend_concatenates() {
        let mut a = Circuit::new(2);
        a.h(0);
        let mut b = Circuit::new(2);
        b.cx(0, 1);
        a.extend(&b);
        assert_eq!(a.gate_count(), 2);
    }
}
