//! A seeded Zipf sampler: rank `k` of `n` is drawn with probability
//! proportional to `1 / k^s`, so a few hot keys take most draws while
//! the long tail keeps the set of distinct goals larger than the
//! server's answer cache.

use semrec_gen::rng::Rng;

/// Draws ranks `0..n` (0 = hottest) from a Zipf distribution.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n >= 1` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over no ranks");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// One rank in `0..n`.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(seed: u64, k: usize) -> Vec<usize> {
        let z = Zipf::new(1000, 1.1);
        let mut rng = Rng::seed_from_u64(seed);
        (0..k).map(|_| z.sample(&mut rng)).collect()
    }

    #[test]
    fn same_seed_same_draws() {
        assert_eq!(draws(7, 500), draws(7, 500));
        assert_ne!(draws(7, 500), draws(8, 500));
    }

    #[test]
    fn skewed_toward_low_ranks_and_in_range() {
        let d = draws(1, 20_000);
        assert!(d.iter().all(|&r| r < 1000));
        let hot = d.iter().filter(|&&r| r < 10).count();
        let cold = d.iter().filter(|&&r| (500..510).contains(&r)).count();
        assert!(hot > 20 * cold.max(1), "hot {hot} cold {cold}");
    }
}
