//! Exact order statistics over raw samples.
//!
//! Every percentile the benchmark reports comes from the sorted samples
//! themselves (nearest rank), never from histogram buckets, and carries
//! the sample count it was taken over. A tail percentile is refused when
//! fewer than [`MIN_BEYOND`] samples lie beyond it: with fewer, "p99" is
//! just the maximum of a small set and cannot resolve a 20% change.

/// Least number of samples that must lie strictly beyond a reported
/// tail percentile.
pub const MIN_BEYOND: usize = 10;

/// A set of samples, sorted once.
#[derive(Debug, Clone)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Sorts `values` (NaN-free by construction: every sample is a
    /// measured duration or count).
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Self { sorted: values }
    }

    /// Nearest-rank percentile `q` in `(0, 1]`: the smallest sample with
    /// at least `q·n` samples at or below it. `None` on an empty set.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(self.sorted[rank - 1])
    }

    /// Samples strictly above the nearest-rank position of `q`.
    pub fn beyond(&self, q: f64) -> usize {
        let n = self.sorted.len();
        n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
    }

    /// A tail percentile, refused (with the reason) unless at least
    /// [`MIN_BEYOND`] samples lie beyond it.
    pub fn tail(&self, q: f64) -> Result<f64, String> {
        let beyond = self.beyond(q);
        if self.sorted.is_empty() || beyond < MIN_BEYOND {
            return Err(format!(
                "p{} over {} samples has {beyond} beyond it (need {MIN_BEYOND})",
                q * 100.0,
                self.sorted.len()
            ));
        }
        Ok(self.quantile(q).expect("non-empty"))
    }

    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    pub fn mean(&self) -> Option<f64> {
        (!self.sorted.is_empty())
            .then(|| self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
    }
}

/// Quartiles `(q1, median, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them, so the repeat mode's spread matches how the bounds in
/// `BENCHMARK.json` are checked. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Interquartile distance as a share of the median (the spread the
/// benchmark's bounds are judged against); `None` when the median is 0.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn nearest_rank_quantiles() {
        let s = Samples::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(s.quantile(0.5), Some(50.0));
        assert_eq!(s.quantile(0.99), Some(99.0));
        assert_eq!(s.quantile(1.0), Some(100.0));
        assert_eq!(s.quantile(0.001), Some(1.0));
        assert_eq!(s.median(), Some(50.0));
        assert_eq!(s.mean(), Some(50.5));
        assert_eq!(Samples::new(vec![]).quantile(0.5), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 999 samples: nearest rank of p99 is 990, leaving 9 beyond.
        let s = Samples::new((0..999).map(f64::from).collect());
        assert_eq!(s.beyond(0.99), 9);
        assert!(s.tail(0.99).unwrap_err().contains("9 beyond"));
        // 1000 samples: rank 990, 10 beyond — accepted.
        let s = Samples::new((0..1000).map(f64::from).collect());
        assert_eq!(s.beyond(0.99), 10);
        assert_eq!(s.tail(0.99), Ok(989.0));
        assert!(Samples::new(vec![]).tail(0.5).is_err());
        // The median of 20 samples is fine, p95 is not.
        let s = Samples::new((0..20).map(f64::from).collect());
        assert!(s.tail(0.5).is_ok());
        assert!(s.tail(0.95).is_err());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (a, b, c) = quartiles(&v).unwrap();
        assert!(close(a, 2.75) && close(b, 5.5) && close(c, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let (a, b, c) = quartiles(&[3.0, 1.0, 2.0]).unwrap();
        assert!(close(a, 1.0) && close(b, 2.0) && close(c, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (a, b, c) = quartiles(&[1.0, 2.0]).unwrap();
        assert!(close(a, 0.75) && close(b, 1.5) && close(c, 2.25));
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn spread_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!(close(relative_spread(&v).unwrap(), (8.25 - 2.75) / 5.5));
        assert!(relative_spread(&[0.0, 0.0, 0.0]).is_none());
    }
}
