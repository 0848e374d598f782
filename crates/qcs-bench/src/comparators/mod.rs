//! The comparator codecs of the paper's evaluation (§4, Figs. 7–12).
//!
//! The engine runs two codecs, qzstd and Solution C
//! ([`qcs_compress::CodecId`]). The paper measures them against the
//! compressors here, which implement the same [`Codec`] trait and
//! guarantee their [`ErrorBound`](qcs_compress::ErrorBound) pointwise, but
//! never name a block:
//!
//! - [`sz`] — SZ 2.1-style prediction-based lossy compression (the
//!   paper's Solutions A and B);
//! - [`SolutionD`] — Solution C after a real/imaginary reshuffle;
//! - [`zfp`] / [`fpzip`] — the domain-transform and predictive-precision
//!   comparators.
//!
//! ### Solution A — classic SZ 2.1, maximum generality
//!
//! The baseline prediction-based compressor the paper starts from (§4.2).
//! Best ratios on smooth data; the slowest of the four Solutions. Unlike
//! Solution C it takes absolute bounds, and no lossless one.
//!
//! ```
//! use qcs_bench::comparators::SolutionA;
//! use qcs_compress::{Codec, ErrorBound};
//!
//! let data: Vec<f64> = (0..4096).map(|i| (i as f64 * 0.01).sin() * 1e-4).collect();
//! let codec = SolutionA::default();
//! let enc = codec.compress(&data, ErrorBound::PointwiseRelative(1e-3)).unwrap();
//! let dec = codec.decompress(&enc).unwrap();
//! assert!(data.iter().zip(&dec).all(|(a, b)| (a - b).abs() <= 1e-3 * a.abs()));
//! assert!(codec.supports(ErrorBound::Absolute(1e-6)));
//! assert!(!codec.supports(ErrorBound::Lossless)); // SZ is inherently lossy
//! ```
//!
//! ### Solution B — SZ with complex-type support
//!
//! Predicts the real (even-index) and imaginary (odd-index) streams
//! independently so one stream's scale never pollutes the other's
//! predictions (§4.2).
//!
//! ```
//! use qcs_bench::comparators::SolutionB;
//! use qcs_compress::{Codec, ErrorBound};
//!
//! // Interleaved (re, im) amplitudes at very different scales.
//! let data: Vec<f64> = (0..4096)
//!     .map(|i| {
//!         if i % 2 == 0 { ((i / 2) as f64 * 0.01).sin() * 1e-2 }
//!         else { ((i / 2) as f64 * 0.01).cos() * 1e-7 }
//!     })
//!     .collect();
//! let codec = SolutionB::default();
//! let enc = codec.compress(&data, ErrorBound::PointwiseRelative(1e-3)).unwrap();
//! let dec = codec.decompress(&enc).unwrap();
//! assert!(data.iter().zip(&dec).all(|(a, b)| (a - b).abs() <= 1e-3 * a.abs() + f64::EPSILON));
//! ```

pub mod fpzip;
mod solution_d;
pub mod sz;
pub mod zfp;

pub use fpzip::FpzipLike;
pub use solution_d::SolutionD;
pub use sz::{SolutionA, SolutionB};
pub use zfp::ZfpLike;

use qcs_compress::trunc::SolutionC;
use qcs_compress::Codec;

/// Solutions A–D of Figs. 10–12, with the labels their tables print.
/// Solution C is the whole-stream format, the one [`SolutionD`] reshuffles,
/// so the C and D columns differ by the reshuffle alone.
pub fn solutions() -> Vec<(&'static str, Box<dyn Codec>)> {
    vec![
        ("sol_a(sz)", Box::new(SolutionA::default())),
        ("sol_b(sz-complex)", Box::new(SolutionB::default())),
        ("sol_c(trunc)", Box::new(SolutionC::whole_stream())),
        ("sol_d(shuffle+trunc)", Box::new(SolutionD)),
    ]
}

/// Every codec the paper's evaluation sweeps: [`solutions`], then the ZFP
/// and FPZIP comparators.
pub fn evaluated() -> Vec<(&'static str, Box<dyn Codec>)> {
    let mut all = solutions();
    all.push(("zfp-like", Box::new(ZfpLike)));
    all.push(("fpzip-like", Box::new(FpzipLike)));
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcs_compress::{CodecId, ErrorBound};

    #[test]
    fn solution_c_is_fastest_design_sanity() {
        // Not a benchmark, just the structural property the paper relies on:
        // Solution C output should beat SZ-style output on spiky data at the
        // same bound more often than not. We check bytes, not time, here.
        let data: Vec<f64> = (0..16384)
            .map(|i| {
                let x = i as f64;
                (x * 1.7).sin() * 10f64.powi(-(i % 5) - 3)
            })
            .collect();
        let eps = ErrorBound::PointwiseRelative(1e-3);
        let sc = CodecId::SolutionC
            .build()
            .compress(&data, eps)
            .unwrap()
            .len();
        let sa = SolutionA::default().compress(&data, eps).unwrap().len();
        // Allow some slack; the strong claims (speed, and ratio at tight
        // bounds) are exercised by the fig10/fig11 harness and benches.
        assert!(
            (sc as f64) < (sa as f64) * 2.0,
            "solution C ({sc}) should be in the same class as A ({sa})"
        );
    }

    #[test]
    fn every_evaluated_codec_round_trips_on_state_like_data() {
        // A cross-codec smoke test over the shared trait.
        let data: Vec<f64> = (0..4096)
            .map(|i| {
                let x = i as f64;
                (x * 0.377).sin() * (x * 0.112).cos() * 1e-3
            })
            .collect();
        for (name, codec) in evaluated() {
            let bound = ErrorBound::PointwiseRelative(1e-3);
            let enc = codec.compress(&data, bound).unwrap();
            let dec = codec.decompress(&enc).unwrap();
            assert_eq!(dec.len(), data.len(), "{name}");
            for (a, b) in data.iter().zip(&dec) {
                assert!((a - b).abs() <= 1e-3 * a.abs() + 1e-300, "{name}");
            }
        }
    }
}
