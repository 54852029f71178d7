//! Order statistics for step-time samples and run-to-run spreads.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! "exclusive" method), because the driver that judges this benchmark
//! computes its spreads with it: position `p * (n + 1)` in the sorted
//! sample, linearly interpolated, clamped to the sample range.

/// `values` sorted ascending. NaNs are a bug in the caller, so they panic.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a timing sample"));
    v
}

/// The `p` quantile (0 < p < 1) of an ascending sample, exclusive method.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    assert!(p > 0.0 && p < 1.0, "quantile p must be inside (0, 1)");
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = p * (n as f64 + 1.0);
    let j = (pos.floor() as usize).clamp(1, n - 1);
    let delta = (pos - j as f64).clamp(0.0, 1.0);
    sorted[j - 1] * (1.0 - delta) + sorted[j] * delta
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// Five-number-ish summary of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub p90: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let s = sorted(values);
        Summary {
            n: s.len(),
            q1: quantile(&s, 0.25),
            median: quantile(&s, 0.5),
            q3: quantile(&s, 0.75),
            p90: quantile(&s, 0.9),
        }
    }

    /// Distance between the quartiles.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    /// IQR as a share of the median: the spread the driver compares with a
    /// metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            self.iqr() / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 10), n=4) == [2.5, 5.0, 7.5]
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.5, 5.0, 7.5));
        assert_eq!(s.iqr(), 5.0);
        assert_eq!(s.spread(), 1.0);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 2.5, 3.75));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5] before
        // clamping; Python extrapolates, this clamps to the sample range.
        let s = Summary::of(&[20.0, 10.0]);
        assert_eq!((s.q1, s.median, s.q3), (10.0, 15.0, 20.0));
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn p90_leaves_a_tenth_of_the_sample_beyond_it() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(Summary::of(&v).p90, 90.0);
    }
}
