//! SZ 2.1-style prediction-based lossy compression (Solutions A and B, §4.2).
//!
//! Pipeline, mirroring the four documented SZ stages:
//! 1. **Prediction** — 1D Lorenzo (previous *decompressed* value, so errors
//!    never accumulate); Solution B predicts real and imaginary components
//!    independently (stride-2 chains).
//! 2. **Linear-scaling quantization** — the prediction residual is quantized
//!    into `2e`-wide bins; residuals outside the bin range become verbatim
//!    "unpredictable" values (Fig. 13 (a)).
//! 3. **Huffman encoding** of the quantization codes.
//! 4. **Lossless backend** ([`crate::qzstd`]) over the whole payload.
//!
//! Pointwise-relative bounds are implemented with the logarithmic transform
//! the SZ authors use: compress `ln|x|` with an absolute bound of
//! `ln(1+eps)`, plus sign/zero bitmaps (§2.3, ref. \[66\] in the paper).

mod core_impl;

pub use core_impl::{SzCore, DEFAULT_BINS, SOLUTION_B_BINS};

use crate::codec::{Codec, CodecError};
use crate::error_bound::ErrorBound;

/// Solution A: classic SZ 2.1 treating the input as a flat 1D array,
/// 65,536 quantization bins.
#[derive(Debug, Clone)]
pub struct SolutionA {
    core: SzCore,
}

impl Default for SolutionA {
    fn default() -> Self {
        Self {
            core: SzCore::new(DEFAULT_BINS, 1),
        }
    }
}

impl Codec for SolutionA {
    fn name(&self) -> &'static str {
        "sol_a"
    }

    fn compress_into(
        &self,
        data: &[f64],
        bound: ErrorBound,
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        self.core.compress_into(data, bound, out)
    }

    fn decompress_into(&self, bytes: &[u8], out: &mut Vec<f64>) -> Result<(), CodecError> {
        self.core.decompress_into(bytes, out)
    }

    fn supports(&self, bound: ErrorBound) -> bool {
        self.core.supports(bound)
    }
}

/// Solution B: SZ with complex-type support — separate prediction chains for
/// real (even-index) and imaginary (odd-index) values, and 16,384 bins for a
/// higher compression/decompression rate (§4.2).
#[derive(Debug, Clone)]
pub struct SolutionB {
    core: SzCore,
}

impl Default for SolutionB {
    fn default() -> Self {
        Self {
            core: SzCore::new(SOLUTION_B_BINS, 2),
        }
    }
}

impl Codec for SolutionB {
    fn name(&self) -> &'static str {
        "sol_b"
    }

    fn compress_into(
        &self,
        data: &[f64],
        bound: ErrorBound,
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        self.core.compress_into(data, bound, out)
    }

    fn decompress_into(&self, bytes: &[u8], out: &mut Vec<f64>) -> Result<(), CodecError> {
        self.core.decompress_into(bytes, out)
    }

    fn supports(&self, bound: ErrorBound) -> bool {
        self.core.supports(bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth_data(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.01).sin() * 1e-3).collect()
    }

    fn spiky_data(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let x = i as f64;
                (x * 1.7).sin() * (x * 0.313).cos() * 10f64.powi(-((i % 5) as i32) - 2)
            })
            .collect()
    }

    #[test]
    fn absolute_bound_respected_solution_a() {
        let data = spiky_data(8192);
        let a = SolutionA::default();
        for e in [1e-4, 1e-6, 1e-8] {
            let enc = a.compress(&data, ErrorBound::Absolute(e)).unwrap();
            let dec = a.decompress(&enc).unwrap();
            assert_eq!(dec.len(), data.len());
            for (x, y) in data.iter().zip(&dec) {
                assert!((x - y).abs() <= e, "e={e}: |{x}-{y}|={}", (x - y).abs());
            }
        }
    }

    #[test]
    fn relative_bound_respected_both_solutions() {
        let data = spiky_data(8192);
        let a = SolutionA::default();
        let b = SolutionB::default();
        for eps in [1e-1, 1e-2, 1e-3, 1e-4, 1e-5] {
            for codec in [&a as &dyn Codec, &b as &dyn Codec] {
                let enc = codec
                    .compress(&data, ErrorBound::PointwiseRelative(eps))
                    .unwrap();
                let dec = codec.decompress(&enc).unwrap();
                for (x, y) in data.iter().zip(&dec) {
                    assert!(
                        (x - y).abs() <= eps * x.abs() + f64::EPSILON,
                        "{}, eps={eps}: |{x}-{y}| > {}",
                        codec.name(),
                        eps * x.abs()
                    );
                }
            }
        }
    }

    #[test]
    fn smooth_data_compresses_well() {
        let data = smooth_data(65536);
        let a = SolutionA::default();
        let enc = a.compress(&data, ErrorBound::Absolute(1e-6)).unwrap();
        let ratio = (data.len() * 8) as f64 / enc.len() as f64;
        assert!(
            ratio > 8.0,
            "smooth data should compress >8x, got {ratio:.2}"
        );
    }

    #[test]
    fn zeros_and_signs_survive_relative_mode() {
        let mut data = vec![0.0f64; 512];
        for (i, v) in data.iter_mut().enumerate() {
            if i % 3 == 0 {
                *v = if i % 2 == 0 { 1e-5 } else { -1e-5 } * (i + 1) as f64;
            }
        }
        let a = SolutionA::default();
        let enc = a
            .compress(&data, ErrorBound::PointwiseRelative(1e-3))
            .unwrap();
        let dec = a.decompress(&enc).unwrap();
        for (x, y) in data.iter().zip(&dec) {
            if *x == 0.0 {
                assert_eq!(*y, 0.0);
            } else {
                assert_eq!(x.signum(), y.signum());
            }
        }
    }

    #[test]
    fn lossless_unsupported() {
        let a = SolutionA::default();
        assert!(!a.supports(ErrorBound::Lossless));
        assert!(a.compress(&[1.0], ErrorBound::Lossless).is_err());
    }

    #[test]
    fn solution_b_on_complex_interleaved_data() {
        // Real parts smooth at one scale, imaginary at another: B's split
        // chains should not cross-pollute predictions.
        let n = 4096;
        let data: Vec<f64> = (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    ((i / 2) as f64 * 0.01).sin() * 1e-2
                } else {
                    ((i / 2) as f64 * 0.01).cos() * 1e-7
                }
            })
            .collect();
        let b = SolutionB::default();
        let enc = b
            .compress(&data, ErrorBound::PointwiseRelative(1e-3))
            .unwrap();
        let dec = b.decompress(&enc).unwrap();
        for (x, y) in data.iter().zip(&dec) {
            assert!((x - y).abs() <= 1e-3 * x.abs() + f64::EPSILON);
        }
    }

    #[test]
    fn empty_input() {
        let a = SolutionA::default();
        let enc = a.compress(&[], ErrorBound::Absolute(1e-3)).unwrap();
        assert!(a.decompress(&enc).unwrap().is_empty());
    }

    #[test]
    fn corrupt_stream_rejected() {
        let a = SolutionA::default();
        let enc = a
            .compress(&spiky_data(256), ErrorBound::Absolute(1e-5))
            .unwrap();
        assert!(a.decompress(&enc[..4]).is_err());
    }
}
