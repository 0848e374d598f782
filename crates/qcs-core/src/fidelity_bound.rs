//! Fidelity lower-bound ledger (paper §3.8, Eq. 10-11).
//!
//! Every lossy compression with pointwise relative bound `delta` can shrink
//! each amplitude's magnitude by at most a factor `(1 - delta)`, so the
//! state fidelity after that compression is at least `(1 - delta)` times
//! the bound before it. Multiplying over all gates gives
//! `F >= prod_i (1 - delta_i)` (Eq. 11).
//!
//! The ledger tracks the product in log space so tens of thousands of
//! gates do not underflow, and records one `delta` per gate (the maximum
//! bound used by any block compression during that gate, which is what the
//! per-gate formulation of Eq. 11 requires).

/// Running lower bound on simulation fidelity.
#[derive(Debug, Clone, PartialEq)]
pub struct FidelityLedger {
    /// Sum of `ln(1 - delta_i)` over recorded gates.
    log_product: f64,
    /// Number of gates recorded (lossy or not).
    gates: usize,
    /// Number of gates that used a lossy bound.
    lossy_gates: usize,
    /// Largest delta ever recorded.
    max_delta: f64,
}

impl Default for FidelityLedger {
    fn default() -> Self {
        Self::new()
    }
}

impl FidelityLedger {
    /// Fresh ledger with fidelity bound 1.
    pub fn new() -> Self {
        Self {
            log_product: 0.0,
            gates: 0,
            lossy_gates: 0,
            max_delta: 0.0,
        }
    }

    /// Record one gate whose compressions used at most `delta`
    /// (0 for lossless).
    pub fn record_gate(&mut self, delta: f64) {
        assert!((0.0..1.0).contains(&delta), "delta must be in [0,1)");
        self.gates += 1;
        if delta > 0.0 {
            self.lossy_gates += 1;
            self.log_product += (1.0 - delta).ln();
            if delta > self.max_delta {
                self.max_delta = delta;
            }
        }
    }

    /// Current lower bound on fidelity (Eq. 11).
    pub fn lower_bound(&self) -> f64 {
        self.log_product.exp()
    }

    /// Gates recorded.
    pub fn gates(&self) -> usize {
        self.gates
    }

    /// Gates that involved lossy compression.
    pub fn lossy_gates(&self) -> usize {
        self.lossy_gates
    }

    /// Largest per-gate bound seen.
    pub fn max_delta(&self) -> f64 {
        self.max_delta
    }
}

// The ledger's checkpoint layout.
qcs_net::wire! {
    impl struct FidelityLedger {
        log_product: f64,
        gates: usize,
        lossy_gates: usize,
        max_delta: f64,
    }
}

/// The curve of Fig. 6: minimum fidelity bound after `gates` gates all
/// compressed at pointwise relative bound `delta`.
pub fn fidelity_curve(delta: f64, gates: usize) -> f64 {
    (1.0 - delta).powi(gates as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_gates_keep_bound_at_one() {
        let mut l = FidelityLedger::new();
        for _ in 0..1000 {
            l.record_gate(0.0);
        }
        assert_eq!(l.lower_bound(), 1.0);
        assert_eq!(l.gates(), 1000);
        assert_eq!(l.lossy_gates(), 0);
    }

    #[test]
    fn product_matches_direct_computation() {
        let mut l = FidelityLedger::new();
        let deltas = [1e-3, 1e-4, 1e-3, 1e-2];
        let mut direct = 1.0;
        for &d in &deltas {
            l.record_gate(d);
            direct *= 1.0 - d;
        }
        assert!((l.lower_bound() - direct).abs() < 1e-12);
        assert_eq!(l.max_delta(), 1e-2);
    }

    #[test]
    fn log_space_survives_many_gates() {
        let mut l = FidelityLedger::new();
        for _ in 0..100_000 {
            l.record_gate(1e-5);
        }
        let expect = (1.0f64 - 1e-5).powi(100_000);
        assert!((l.lower_bound() - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn figure6_curve_values() {
        // Fig. 6: with PWR=1e-5 the bound stays near 1 for 5000 gates; with
        // 1e-2 it decays visibly; with 1e-1 it collapses quickly.
        assert!(fidelity_curve(1e-5, 5000) > 0.95);
        let mid = fidelity_curve(1e-2, 500);
        assert!(mid < 0.01 + 0.99 * fidelity_curve(1e-2, 0));
        assert!((fidelity_curve(1e-2, 100) - 0.366).abs() < 0.01);
        assert!(fidelity_curve(1e-1, 100) < 1e-4);
    }

    #[test]
    fn wire_round_trip() {
        use qcs_net::wire::{decode, encode};
        let mut l = FidelityLedger::new();
        l.record_gate(1e-3);
        l.record_gate(0.0);
        assert_eq!(decode::<FidelityLedger>(&encode(&l)).unwrap(), l);
    }

    #[test]
    #[should_panic(expected = "delta must be in")]
    fn delta_of_one_rejected() {
        FidelityLedger::new().record_gate(1.0);
    }
}
