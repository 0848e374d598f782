//! Solution D (§4.2): Solution C after a reshuffle that separates the real
//! and imaginary parts of interleaved complex data.

use qcs_compress::bitio::bytes;
use qcs_compress::trunc::SolutionC;
use qcs_compress::{Codec, CodecError, ErrorBound};

const MAGIC: u32 = 0x5143_5344; // "QCSD"

/// Solution D compressor.
///
/// Input is interpreted as interleaved complex data (even indices = real
/// parts, odd indices = imaginary parts), reorganized into two contiguous
/// streams before the whole-stream Solution C pipeline
/// ([`SolutionC::whole_stream`]) runs on each. The paper notes this may
/// help the dictionary stage find repeated patterns when the real and
/// imaginary parts occupy different value ranges, at the cost of the extra
/// shuffle pass. Odd-length inputs keep their trailing element in the even
/// stream. The stream is
///
/// ```text
/// magic "QCSD" u32 | even_len u64 | C(even) | odd_len u64 | C(odd)
/// ```
///
/// ```
/// use qcs_bench::comparators::SolutionD;
/// use qcs_compress::{Codec, ErrorBound};
///
/// let data: Vec<f64> = (0..4096).map(|i| (i as f64 * 0.37).cos() * 1e-5).collect();
/// let enc = SolutionD.compress(&data, ErrorBound::PointwiseRelative(1e-4)).unwrap();
/// let dec = SolutionD.decompress(&enc).unwrap();
/// assert!(data.iter().zip(&dec).all(|(a, b)| (a - b).abs() <= 1e-4 * a.abs()));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct SolutionD;

impl Codec for SolutionD {
    fn name(&self) -> &'static str {
        "sol_d"
    }

    fn compress_into(
        &self,
        data: &[f64],
        bound: ErrorBound,
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        let even: Vec<f64> = data.iter().step_by(2).copied().collect();
        let odd: Vec<f64> = data.iter().skip(1).step_by(2).copied().collect();
        out.clear();
        bytes::put_u32(out, MAGIC);
        for half in [even, odd] {
            let stream = SolutionC::whole_stream().compress(&half, bound)?;
            bytes::put_u64(out, stream.len() as u64);
            out.extend_from_slice(&stream);
        }
        Ok(())
    }

    fn decompress_into(&self, data: &[u8], out: &mut Vec<f64>) -> Result<(), CodecError> {
        let corrupt = |what: &str| CodecError::Corrupt(what.into());
        let mut pos = 0usize;
        if bytes::get_u32(data, &mut pos) != Some(MAGIC) {
            return Err(corrupt("bad magic"));
        }
        let mut halves = [Vec::new(), Vec::new()];
        for half in &mut halves {
            let len = bytes::get_u64(data, &mut pos).ok_or_else(|| corrupt("missing length"))?;
            let stream = usize::try_from(len)
                .ok()
                .and_then(|len| data.get(pos..pos.checked_add(len)?))
                .ok_or_else(|| corrupt("truncated stream"))?;
            pos += stream.len();
            SolutionC::whole_stream().decompress_into(stream, half)?;
        }
        let [even, odd] = halves;
        if even.len() < odd.len() || even.len() > odd.len() + 1 {
            return Err(CodecError::Corrupt(format!(
                "inconsistent stream lengths: {} even, {} odd",
                even.len(),
                odd.len()
            )));
        }
        out.clear();
        out.reserve(even.len() + odd.len());
        for (i, &re) in even.iter().enumerate() {
            out.push(re);
            out.extend(odd.get(i));
        }
        Ok(())
    }

    fn supports(&self, bound: ErrorBound) -> bool {
        !matches!(bound, ErrorBound::Absolute(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complex_like(n: usize) -> Vec<f64> {
        // Real parts around 1e-3, imaginary parts around 1e-6: the
        // non-overlapping ranges the reshuffle step is designed for.
        (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    ((i as f64) * 0.37).sin() * 1e-3
                } else {
                    ((i as f64) * 0.91).cos() * 1e-6
                }
            })
            .collect()
    }

    #[test]
    fn round_trip_lossless() {
        let data = complex_like(4096);
        let enc = SolutionD.compress(&data, ErrorBound::Lossless).unwrap();
        let dec = SolutionD.decompress(&enc).unwrap();
        for (a, b) in data.iter().zip(&dec) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn relative_bound_respected() {
        let data = complex_like(4096);
        for eps in [1e-1, 1e-3, 1e-5] {
            let enc = SolutionD
                .compress(&data, ErrorBound::PointwiseRelative(eps))
                .unwrap();
            let dec = SolutionD.decompress(&enc).unwrap();
            for (a, b) in data.iter().zip(&dec) {
                assert!((a - b).abs() <= eps * a.abs());
            }
        }
    }

    #[test]
    fn odd_length_input() {
        let data = complex_like(1001);
        let enc = SolutionD.compress(&data, ErrorBound::Lossless).unwrap();
        let dec = SolutionD.decompress(&enc).unwrap();
        assert_eq!(dec.len(), 1001);
        assert_eq!(dec[1000].to_bits(), data[1000].to_bits());
    }

    #[test]
    fn empty_input() {
        let enc = SolutionD.compress(&[], ErrorBound::Lossless).unwrap();
        assert!(SolutionD.decompress(&enc).unwrap().is_empty());
    }

    #[test]
    fn same_errors_as_solution_c() {
        // Paper Fig. 12: C and D curves overlap exactly because the shuffle
        // does not change per-value truncation.
        let data = complex_like(2048);
        let c = SolutionC::default();
        let bound = ErrorBound::PointwiseRelative(1e-3);
        let dc = c.decompress(&c.compress(&data, bound).unwrap()).unwrap();
        let dd = SolutionD
            .decompress(&SolutionD.compress(&data, bound).unwrap())
            .unwrap();
        for (a, b) in dc.iter().zip(&dd) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn corrupt_stream_rejected() {
        let enc = SolutionD
            .compress(&complex_like(64), ErrorBound::Lossless)
            .unwrap();
        assert!(SolutionD.decompress(&enc[..enc.len() / 3]).is_err());
        let mut bad = enc.clone();
        bad[0] ^= 0xFF;
        assert!(SolutionD.decompress(&bad).is_err());
    }
}
