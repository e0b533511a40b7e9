//! Percentiles and the tail-percentile rule.
//!
//! Timings are reported as a median plus the highest percentile that
//! still has at least [`MIN_BEYOND`] samples above it, so a tail figure
//! never rests on a handful of outliers.

/// Samples a reported tail percentile must leave beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank position (0-based) of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    assert!(n > 0, "quantile of an empty sample");
    let r = (q * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Nearest-rank quantile `q` (0..=1) of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    sorted[rank(sorted.len(), q)]
}

/// How many of `n` samples lie strictly beyond the quantile-`q` rank.
pub fn beyond(n: usize, q: f64) -> usize {
    n - 1 - rank(n, q)
}

/// The highest of the usual tail percentiles that leaves at least
/// `min_beyond` of `n` samples beyond it; `None` when even the median
/// does not.
pub fn highest_tail(n: usize, min_beyond: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    [0.999, 0.99, 0.95, 0.9, 0.75, 0.5]
        .into_iter()
        .find(|&q| beyond(n, q) >= min_beyond)
}

/// The fewest samples for which quantile `q` has `min_beyond` beyond it.
pub fn samples_needed(q: f64, min_beyond: usize) -> usize {
    (1..)
        .find(|&n| beyond(n, q) >= min_beyond)
        .expect("some sample count suffices for q < 1")
}

/// Sorts a sample of finite values ascending.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    v
}

/// Median of an unsorted sample.
pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

/// Indices of the cheapest `share` of `costs` (at least one), cheapest
/// first.
///
/// A run is cut into windows that each hold the same work, and the
/// steady metrics are computed over the fastest share of them: on a
/// shared host whose speed swings for seconds at a time, the fastest
/// windows read the program's speed with the least interference, while
/// a slower program is slower in every window.
pub fn cheapest(costs: &[f64], share: f64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..costs.len()).collect();
    idx.sort_by(|&a, &b| costs[a].partial_cmp(&costs[b]).expect("finite costs"));
    let keep = ((costs.len() as f64 * share).ceil() as usize).clamp(1, costs.len().max(1));
    idx.truncate(keep);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(highest_tail(100, 10), Some(0.9));
        assert_eq!(highest_tail(99, 10), Some(0.75));
        assert_eq!(highest_tail(1000, 10), Some(0.99));
        assert_eq!(highest_tail(10_000, 10), Some(0.999));
        assert_eq!(highest_tail(1100, 10), Some(0.99));
        assert_eq!(highest_tail(15, 10), None);
        assert_eq!(highest_tail(0, 10), None);
    }

    #[test]
    fn samples_needed_matches_beyond() {
        assert_eq!(samples_needed(0.9, 10), 100);
        assert_eq!(samples_needed(0.99, 10), 1000);
        for q in [0.5, 0.9, 0.99] {
            let n = samples_needed(q, MIN_BEYOND);
            assert!(beyond(n, q) >= MIN_BEYOND);
            assert!(beyond(n - 1, q) < MIN_BEYOND);
        }
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn cheapest_keeps_the_fastest_share() {
        let costs = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 8.0];
        assert_eq!(cheapest(&costs, 0.25), vec![1, 3]);
        assert_eq!(cheapest(&costs, 0.3), vec![1, 3, 4]);
        assert_eq!(cheapest(&costs, 1.0).len(), 8);
        // Never empty, even for a tiny share.
        assert_eq!(cheapest(&costs, 0.01), vec![1]);
        assert!(cheapest(&[], 0.5).is_empty());
    }
}
