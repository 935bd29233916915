//! Order statistics for the benchmark's samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so a spread computed here matches one
//! computed from the printed samples with the standard library.

/// Summary of one metric's samples.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// The highest tail percentile with at least ten samples beyond it, and
    /// its value (`None` below 20 samples).
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarise `samples` (which must be non-empty).
    pub fn of(samples: &[f64]) -> Summary {
        let [q1, _, q3] = quartiles(samples);
        Summary {
            n: samples.len(),
            median: median(samples),
            q1,
            q3,
            tail: tail_percentile(samples.len()).map(|p| (p, nearest_rank(samples, p))),
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    assert!(!samples.is_empty(), "no samples to summarise");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First, second and third quartile by Python's exclusive method.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let v = sorted(samples);
    let ld = v.len();
    if ld == 1 {
        return [v[0]; 3];
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    out
}

/// The highest of the tail percentiles 50, 90, 99 and 99.9 that leaves at
/// least ten of `n` samples beyond it, or `None` when even the median does
/// not (fewer than 20 samples).
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// The `p`-th percentile by the nearest-rank rule: the smallest sample with
/// at least `p`% of the samples at or below it.
pub fn nearest_rank(samples: &[f64], p: f64) -> f64 {
    let v = sorted(samples);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    // Reference values from Python 3: `statistics.median` and
    // `statistics.quantiles(data, n=4)`.
    #[test]
    fn median_matches_python() {
        assert_eq!(
            median(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]),
            5.5
        );
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[10.0, 1.0, 7.0, 3.0, 9.0]), 7.0);
        assert_eq!(median(&[4.0]), 4.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[5.5, 2.25]), [1.4375, 3.875, 6.3125]);
        assert_eq!(quartiles(&[10.0, 1.0, 7.0, 3.0, 9.0]), [2.0, 7.0, 9.5]);
        assert_eq!(quartiles(&[4.0]), [4.0, 4.0, 4.0]);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in [20, 57, 100, 150, 1000, 4321] {
            let p = tail_percentile(n).unwrap();
            let samples: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let value = nearest_rank(&samples, p);
            let beyond = samples.iter().filter(|&&x| x > value).count();
            assert!(beyond >= 10, "n={n} p={p}: only {beyond} beyond");
        }
    }

    #[test]
    fn nearest_rank_picks_the_covering_sample() {
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(nearest_rank(&hundred, 90.0), 90.0);
        assert_eq!(nearest_rank(&hundred, 50.0), 50.0);
        assert_eq!(nearest_rank(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn summary_reports_tail_only_with_enough_samples() {
        let s = Summary::of(&[1.0, 2.0, 3.0]);
        assert_eq!(
            (s.n, s.median, s.q1, s.q3, s.tail),
            (3, 2.0, 1.0, 3.0, None)
        );
        let many: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(Summary::of(&many).tail, Some((90.0, 90.0)));
    }
}
