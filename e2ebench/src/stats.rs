//! Order statistics shared by every metric: nearest-rank percentiles, the
//! median, and the tail rule — the highest percentile that still has at
//! least ten samples beyond it.

/// Percentiles the tail rule considers, highest first.
const TAIL_LADDER: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// Samples that must lie beyond a percentile for it to count as the tail.
const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0–100] of an ascending slice; 0 when empty.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = rank_of(sorted.len(), p);
    sorted[rank - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank_of(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank median; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile_sorted(&sorted(values), 50.0)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A tail latency and the evidence behind it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// Which percentile was taken.
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples in the distribution.
    pub samples: usize,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it (the median when there are too few
/// samples for any of them).
pub fn tail(values: &[f64]) -> Tail {
    let s = sorted(values);
    let n = s.len();
    let pick = TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| n - rank_of(n.max(1), p).min(n) >= TAIL_MIN_BEYOND)
        .unwrap_or(50.0);
    Tail {
        percentile: pick,
        value: percentile_sorted(&s, pick),
        samples: n,
        beyond: n.saturating_sub(rank_of(n.max(1), pick)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.beyond, 10);
        let t = tail(&v[..999]);
        assert_eq!(t.percentile, 90.0);
        assert!(t.beyond >= 10);
        let t = tail(&v[..50]);
        assert_eq!(t.percentile, 50.0);
    }
}
