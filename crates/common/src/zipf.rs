//! Zipfian key-skew generator.
//!
//! SysBench-style workloads in the paper select rows with a Zipf distribution
//! (default skew factor 0.7; Figure 10 sweeps 0.7–0.99).  We use the classic
//! Gray et al. rejection-free inverse-CDF approximation (the same algorithm
//! YCSB uses), which supports large key spaces without materialising the full
//! probability table.

use crate::rng::XorShiftRng;

/// Zipf-distributed generator over `{0, 1, ..., n-1}` with exponent `theta`.
///
/// `theta = 0` degenerates to the uniform distribution; larger values skew the
/// distribution towards low-numbered items (item 0 is the most popular).
#[derive(Debug, Clone)]
pub struct ZipfGenerator {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2theta: f64,
}

impl ZipfGenerator {
    /// Creates a generator over `n` items with skew `theta`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `theta` is not finite / negative / `>= 1.0 &&
    /// == 1.0` exactly (the harmonic exponent 1.0 is approximated by 0.9999
    /// to avoid the divergent zeta term, matching common benchmark practice).
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "zipf over an empty key space");
        assert!(
            theta.is_finite() && theta >= 0.0,
            "invalid zipf theta {theta}"
        );
        let theta = if (theta - 1.0).abs() < 1e-9 {
            0.9999
        } else {
            theta
        };
        let zetan = Self::zeta(n, theta);
        let zeta2theta = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2theta / zetan);
        Self {
            n,
            theta,
            alpha,
            zetan,
            eta,
            zeta2theta,
        }
    }

    /// Incremental zeta: `sum_{i=1..n} 1/i^theta`.
    fn zeta(n: u64, theta: f64) -> f64 {
        // For large n this loop is the dominant construction cost; the figure
        // harnesses construct generators once per run so an O(n) setup with a
        // cap on exact summation is acceptable.  Beyond the cap we use the
        // Euler–Maclaurin continuation which is accurate to ~1e-6 for the n
        // used in the paper's workloads.
        const EXACT_CAP: u64 = 10_000_000;
        if n <= EXACT_CAP {
            (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
        } else {
            let head: f64 = (1..=EXACT_CAP).map(|i| 1.0 / (i as f64).powf(theta)).sum();
            // integral continuation of x^-theta from EXACT_CAP to n
            let a = EXACT_CAP as f64;
            let b = n as f64;
            head + (b.powf(1.0 - theta) - a.powf(1.0 - theta)) / (1.0 - theta)
        }
    }

    /// Number of items.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Skew factor.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Draws the next item in `[0, n)`; item 0 is the hottest.
    pub fn next(&self, rng: &mut XorShiftRng) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let v = ((self.eta * u - self.eta + 1.0).powf(self.alpha) * self.n as f64) as u64;
        v.min(self.n - 1)
    }

    /// Exposes the zeta(2, theta) constant (used in unit tests to validate the
    /// internal constants stay consistent after refactors).
    pub fn zeta2theta(&self) -> f64 {
        self.zeta2theta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn histogram(theta: f64, n: u64, draws: usize) -> Vec<usize> {
        let gen = ZipfGenerator::new(n, theta);
        let mut rng = XorShiftRng::new(0xC0FFEE);
        let mut counts = vec![0usize; n as usize];
        for _ in 0..draws {
            counts[gen.next(&mut rng) as usize] += 1;
        }
        counts
    }

    #[test]
    fn all_draws_in_range() {
        let gen = ZipfGenerator::new(1000, 0.9);
        let mut rng = XorShiftRng::new(1);
        for _ in 0..100_000 {
            assert!(gen.next(&mut rng) < 1000);
        }
    }

    #[test]
    fn theta_zero_is_roughly_uniform() {
        let counts = histogram(0.0, 16, 160_000);
        let expected = 10_000.0;
        for (i, c) in counts.iter().enumerate() {
            let dev = (*c as f64 - expected).abs() / expected;
            assert!(dev < 0.15, "bucket {i} deviates {dev}");
        }
    }

    #[test]
    fn higher_theta_concentrates_mass_on_item_zero() {
        let low = histogram(0.7, 1024, 200_000);
        let high = histogram(0.99, 1024, 200_000);
        assert!(
            high[0] > low[0],
            "item 0 should be hotter with theta=0.99 ({}) than 0.7 ({})",
            high[0],
            low[0]
        );
        // With theta=0.99 the top item should receive a visible share.
        assert!(high[0] as f64 / 200_000.0 > 0.05);
    }

    #[test]
    fn theta_one_is_remapped_not_divergent() {
        let gen = ZipfGenerator::new(100, 1.0);
        assert!(gen.theta() < 1.0);
        let mut rng = XorShiftRng::new(3);
        for _ in 0..10_000 {
            assert!(gen.next(&mut rng) < 100);
        }
    }

    #[test]
    #[should_panic(expected = "empty key space")]
    fn zero_items_panics() {
        let _ = ZipfGenerator::new(0, 0.5);
    }
}
