//! Single-qubit gate matrices and the standard gate library.
//!
//! General single-qubit gates plus two-qubit controlled gates are universal
//! (paper §2.1); every simulator in this workspace consumes gates in this
//! 2x2 matrix form and applies them via the pair-update rule of Eq. 6/7.

use crate::complex::Complex64;
use std::f64::consts::{FRAC_1_SQRT_2, FRAC_PI_2, FRAC_PI_4, PI};

/// A 2x2 unitary matrix in row-major order:
/// `[[m00, m01], [m10, m11]]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gate1 {
    /// Row-major entries.
    pub m: [[Complex64; 2]; 2],
}

impl Gate1 {
    /// Build from entries.
    pub const fn new(m00: Complex64, m01: Complex64, m10: Complex64, m11: Complex64) -> Self {
        Self {
            m: [[m00, m01], [m10, m11]],
        }
    }

    /// Identity.
    pub fn identity() -> Self {
        Self::new(
            Complex64::ONE,
            Complex64::ZERO,
            Complex64::ZERO,
            Complex64::ONE,
        )
    }

    /// Hadamard.
    pub fn h() -> Self {
        let s = Complex64::new(FRAC_1_SQRT_2, 0.0);
        Self::new(s, s, s, -s)
    }

    /// Pauli-X.
    pub fn x() -> Self {
        Self::new(
            Complex64::ZERO,
            Complex64::ONE,
            Complex64::ONE,
            Complex64::ZERO,
        )
    }

    /// Pauli-Y.
    pub fn y() -> Self {
        Self::new(
            Complex64::ZERO,
            -Complex64::I,
            Complex64::I,
            Complex64::ZERO,
        )
    }

    /// Pauli-Z.
    pub fn z() -> Self {
        Self::new(
            Complex64::ONE,
            Complex64::ZERO,
            Complex64::ZERO,
            -Complex64::ONE,
        )
    }

    /// Phase gate S = diag(1, i).
    pub fn s() -> Self {
        Self::phase(FRAC_PI_2)
    }

    /// S-dagger.
    pub fn sdg() -> Self {
        Self::phase(-FRAC_PI_2)
    }

    /// T gate = diag(1, e^{i pi/4}).
    pub fn t() -> Self {
        Self::phase(FRAC_PI_4)
    }

    /// T-dagger.
    pub fn tdg() -> Self {
        Self::phase(-FRAC_PI_4)
    }

    /// Square root of X (used by the supremacy circuits).
    pub fn sqrt_x() -> Self {
        let p = Complex64::new(0.5, 0.5);
        let q = Complex64::new(0.5, -0.5);
        Self::new(p, q, q, p)
    }

    /// Square root of Y (used by the supremacy circuits).
    pub fn sqrt_y() -> Self {
        let p = Complex64::new(0.5, 0.5);
        let q = Complex64::new(-0.5, -0.5);
        Self::new(p, q, -q, p)
    }

    /// Rotation about X by `theta`.
    pub fn rx(theta: f64) -> Self {
        let c = Complex64::new((theta / 2.0).cos(), 0.0);
        let s = Complex64::new(0.0, -(theta / 2.0).sin());
        Self::new(c, s, s, c)
    }

    /// Rotation about Y by `theta`.
    pub fn ry(theta: f64) -> Self {
        let c = Complex64::new((theta / 2.0).cos(), 0.0);
        let s = Complex64::new((theta / 2.0).sin(), 0.0);
        Self::new(c, -s, s, c)
    }

    /// Rotation about Z by `theta` (global-phase-free convention
    /// `diag(e^{-i theta/2}, e^{i theta/2})`).
    pub fn rz(theta: f64) -> Self {
        Self::new(
            Complex64::from_polar(1.0, -theta / 2.0),
            Complex64::ZERO,
            Complex64::ZERO,
            Complex64::from_polar(1.0, theta / 2.0),
        )
    }

    /// Phase gate `diag(1, e^{i theta})`.
    pub fn phase(theta: f64) -> Self {
        Self::new(
            Complex64::ONE,
            Complex64::ZERO,
            Complex64::ZERO,
            Complex64::from_polar(1.0, theta),
        )
    }

    /// General U3(theta, phi, lambda) in the OpenQASM convention.
    pub fn u3(theta: f64, phi: f64, lambda: f64) -> Self {
        let c = (theta / 2.0).cos();
        let s = (theta / 2.0).sin();
        Self::new(
            Complex64::new(c, 0.0),
            Complex64::from_polar(s, lambda) * -1.0,
            Complex64::from_polar(s, phi),
            Complex64::from_polar(c, phi + lambda),
        )
    }

    /// Matrix product `self * rhs`.
    pub fn matmul(&self, rhs: &Gate1) -> Gate1 {
        let a = &self.m;
        let b = &rhs.m;
        Gate1::new(
            a[0][0] * b[0][0] + a[0][1] * b[1][0],
            a[0][0] * b[0][1] + a[0][1] * b[1][1],
            a[1][0] * b[0][0] + a[1][1] * b[1][0],
            a[1][0] * b[0][1] + a[1][1] * b[1][1],
        )
    }

    /// Conjugate transpose.
    pub fn dagger(&self) -> Gate1 {
        Gate1::new(
            self.m[0][0].conj(),
            self.m[1][0].conj(),
            self.m[0][1].conj(),
            self.m[1][1].conj(),
        )
    }

    /// Check unitarity to `tol`.
    pub fn is_unitary(&self, tol: f64) -> bool {
        let p = self.matmul(&self.dagger());
        p.m[0][0].approx_eq(Complex64::ONE, tol)
            && p.m[1][1].approx_eq(Complex64::ONE, tol)
            && p.m[0][1].approx_eq(Complex64::ZERO, tol)
            && p.m[1][0].approx_eq(Complex64::ZERO, tol)
    }

    /// Apply to an amplitude pair (Eq. 6 of the paper).
    #[inline]
    pub fn apply_pair(&self, a0: Complex64, a1: Complex64) -> (Complex64, Complex64) {
        (
            self.m[0][0] * a0 + self.m[0][1] * a1,
            self.m[1][0] * a0 + self.m[1][1] * a1,
        )
    }
}

/// Named gates used by the circuit IR; parameters are baked into the matrix
/// but the name (and parameter, where present) is kept for reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GateKind {
    /// Hadamard.
    H,
    /// Pauli-X.
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
    /// S.
    S,
    /// S-dagger.
    Sdg,
    /// T.
    T,
    /// T-dagger.
    Tdg,
    /// sqrt(X).
    SqrtX,
    /// sqrt(Y).
    SqrtY,
    /// Rx(theta).
    Rx(f64),
    /// Ry(theta).
    Ry(f64),
    /// Rz(theta).
    Rz(f64),
    /// Phase(theta).
    Phase(f64),
    /// Arbitrary U3.
    U3(f64, f64, f64),
}

impl GateKind {
    /// Matrix for this gate.
    pub fn matrix(&self) -> Gate1 {
        match *self {
            GateKind::H => Gate1::h(),
            GateKind::X => Gate1::x(),
            GateKind::Y => Gate1::y(),
            GateKind::Z => Gate1::z(),
            GateKind::S => Gate1::s(),
            GateKind::Sdg => Gate1::sdg(),
            GateKind::T => Gate1::t(),
            GateKind::Tdg => Gate1::tdg(),
            GateKind::SqrtX => Gate1::sqrt_x(),
            GateKind::SqrtY => Gate1::sqrt_y(),
            GateKind::Rx(t) => Gate1::rx(t),
            GateKind::Ry(t) => Gate1::ry(t),
            GateKind::Rz(t) => Gate1::rz(t),
            GateKind::Phase(t) => Gate1::phase(t),
            GateKind::U3(t, p, l) => Gate1::u3(t, p, l),
        }
    }

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            GateKind::H => "h",
            GateKind::X => "x",
            GateKind::Y => "y",
            GateKind::Z => "z",
            GateKind::S => "s",
            GateKind::Sdg => "sdg",
            GateKind::T => "t",
            GateKind::Tdg => "tdg",
            GateKind::SqrtX => "sx",
            GateKind::SqrtY => "sy",
            GateKind::Rx(_) => "rx",
            GateKind::Ry(_) => "ry",
            GateKind::Rz(_) => "rz",
            GateKind::Phase(_) => "p",
            GateKind::U3(..) => "u3",
        }
    }
}

/// Controlled-phase angle used at distance `k` in the QFT: `pi / 2^(k-1)`.
pub fn qft_phase(k: u32) -> f64 {
    PI / 2f64.powi(k as i32 - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-12;

    #[test]
    fn all_library_gates_are_unitary() {
        let gates = [
            GateKind::H,
            GateKind::X,
            GateKind::Y,
            GateKind::Z,
            GateKind::S,
            GateKind::Sdg,
            GateKind::T,
            GateKind::Tdg,
            GateKind::SqrtX,
            GateKind::SqrtY,
            GateKind::Rx(0.7),
            GateKind::Ry(-1.3),
            GateKind::Rz(2.9),
            GateKind::Phase(0.111),
            GateKind::U3(0.3, 1.2, -0.8),
        ];
        for g in gates {
            assert!(g.matrix().is_unitary(TOL), "{} not unitary", g.name());
        }
    }

    #[test]
    fn h_squared_is_identity() {
        let h = Gate1::h();
        let hh = h.matmul(&h);
        let id = Gate1::identity();
        for r in 0..2 {
            for c in 0..2 {
                assert!(hh.m[r][c].approx_eq(id.m[r][c], TOL));
            }
        }
    }

    #[test]
    fn sqrt_gates_square_to_paulis_up_to_phase() {
        // sqrt(X)^2 = X exactly in this convention.
        let sx2 = Gate1::sqrt_x().matmul(&Gate1::sqrt_x());
        for r in 0..2 {
            for c in 0..2 {
                assert!(sx2.m[r][c].approx_eq(Gate1::x().m[r][c], TOL));
            }
        }
        let sy2 = Gate1::sqrt_y().matmul(&Gate1::sqrt_y());
        for r in 0..2 {
            for c in 0..2 {
                assert!(sy2.m[r][c].approx_eq(Gate1::y().m[r][c], TOL));
            }
        }
    }

    #[test]
    fn t_squared_is_s() {
        let tt = Gate1::t().matmul(&Gate1::t());
        for r in 0..2 {
            for c in 0..2 {
                assert!(tt.m[r][c].approx_eq(Gate1::s().m[r][c], TOL));
            }
        }
    }

    #[test]
    fn apply_pair_matches_matrix() {
        let g = Gate1::u3(0.4, 0.9, -0.2);
        let a0 = Complex64::new(0.6, 0.1);
        let a1 = Complex64::new(-0.3, 0.7);
        let (b0, b1) = g.apply_pair(a0, a1);
        assert!(b0.approx_eq(g.m[0][0] * a0 + g.m[0][1] * a1, TOL));
        assert!(b1.approx_eq(g.m[1][0] * a0 + g.m[1][1] * a1, TOL));
    }

    #[test]
    fn qft_phase_values() {
        assert!((qft_phase(1) - PI).abs() < TOL);
        assert!((qft_phase(2) - FRAC_PI_2).abs() < TOL);
        assert!((qft_phase(3) - FRAC_PI_4).abs() < TOL);
    }

    #[test]
    fn dagger_inverts() {
        let g = Gate1::u3(1.1, 0.3, 2.2);
        let p = g.matmul(&g.dagger());
        assert!(p.m[0][0].approx_eq(Complex64::ONE, TOL));
        assert!(p.m[0][1].approx_eq(Complex64::ZERO, TOL));
    }
}
