//! Order statistics for repeated timings.

/// Median, quartiles and sample count of one metric's repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub min: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarise `values` (at least one). Quartiles follow Python's
    /// `statistics.quantiles(values, n=4)` so the numbers printed here are
    /// the ones the acceptance rule computes; with one sample they
    /// collapse onto it.
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "no samples to summarise");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let m = v.len();
        if m == 1 {
            return Self {
                min: v[0],
                median: v[0],
                q1: v[0],
                q3: v[0],
                n: 1,
            };
        }
        let quantile = |i: usize| {
            let j = (i * (m + 1) / 4).clamp(1, m - 1);
            let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Self {
            min: v[0],
            median: quantile(2),
            q1: quantile(1),
            q3: quantile(3),
            n: m,
        }
    }

    /// Interquartile range over the median: the run-to-run spread.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of `values` (0 for an empty slice, so optional layers print 0).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        Summary::of(values).median
    }
}

/// The `p`-th percentile (nearest rank) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.min, s.q1, s.median, s.q3), (1.0, 1.0, 2.0, 3.0));
        assert_eq!(percentile(&v, 95.0), 10.0);
        assert_eq!(percentile(&v, 50.0), 5.0);
    }
}
