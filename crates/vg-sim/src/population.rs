//! Voter population models: the distributions D_c and D_v.
//!
//! The coercion-resistance analysis (Appendix F.1) models two sources of
//! statistical uncertainty the adversary cannot eliminate: D_c, the number
//! of fake credentials an honest voter creates, and D_v, honest voters'
//! vote choices. We use a truncated geometric for D_c (most voters create
//! zero or one fake; a long tail creates several — consistent with the
//! booth's informal time limit, §3.2) and a categorical for D_v.

use vg_crypto::Rng;

/// Distribution over the number of *fake* credentials an honest voter
/// creates (their total credential count is 1 + this).
#[derive(Clone, Debug)]
pub struct FakeCredentialDist {
    /// Geometric success parameter (probability of stopping).
    pub p: f64,
    /// Hard cap (booth time limit).
    pub max: usize,
}

impl Default for FakeCredentialDist {
    fn default() -> Self {
        // Mean ≈ 0.67 fakes, capped at 5: a population where most voters
        // take zero or one fake credential.
        Self { p: 0.6, max: 5 }
    }
}

impl FakeCredentialDist {
    /// Probability mass at `k` fakes (after truncation renormalization).
    pub fn pmf(&self, k: usize) -> f64 {
        if k > self.max {
            return 0.0;
        }
        let raw = |j: usize| (1.0 - self.p).powi(j as i32) * self.p;
        let z: f64 = (0..=self.max).map(raw).sum();
        raw(k) / z
    }

    /// Samples a fake-credential count.
    pub fn sample(&self, rng: &mut dyn Rng) -> usize {
        let u = rng.unit_f64();
        let mut acc = 0.0;
        for k in 0..=self.max {
            acc += self.pmf(k);
            if u < acc {
                return k;
            }
        }
        self.max
    }

    /// The distribution mean.
    pub fn mean(&self) -> f64 {
        (0..=self.max).map(|k| k as f64 * self.pmf(k)).sum()
    }
}

/// Distribution over vote choices.
#[derive(Clone, Debug)]
pub struct VoteDist {
    weights: Vec<f64>,
}

impl VoteDist {
    /// A uniform distribution over `n` options.
    pub fn uniform(n: u32) -> Self {
        Self {
            weights: vec![1.0 / n as f64; n as usize],
        }
    }

    /// A distribution with explicit weights (normalized internally).
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn weighted(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "need at least one option");
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must sum to a positive value");
        Self {
            weights: weights.iter().map(|w| w / total).collect(),
        }
    }

    /// Number of options.
    pub fn n_options(&self) -> u32 {
        self.weights.len() as u32
    }

    /// Samples a vote.
    pub fn sample(&self, rng: &mut dyn Rng) -> u32 {
        let u = rng.unit_f64();
        let mut acc = 0.0;
        for (i, w) in self.weights.iter().enumerate() {
            acc += w;
            if u < acc {
                return i as u32;
            }
        }
        (self.weights.len() - 1) as u32
    }

    /// Samples one vote per voter.
    pub fn sample_many(&self, n: usize, rng: &mut dyn Rng) -> Vec<u32> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vg_crypto::HmacDrbg;

    #[test]
    fn pmf_sums_to_one() {
        let d = FakeCredentialDist::default();
        let total: f64 = (0..=d.max).map(|k| d.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sample_respects_cap() {
        let d = FakeCredentialDist { p: 0.1, max: 3 };
        let mut rng = HmacDrbg::from_u64(1);
        for _ in 0..500 {
            assert!(d.sample(&mut rng) <= 3);
        }
    }

    #[test]
    fn empirical_mean_close_to_analytic() {
        let d = FakeCredentialDist::default();
        let mut rng = HmacDrbg::from_u64(2);
        let n = 20_000;
        let total: usize = (0..n).map(|_| d.sample(&mut rng)).sum();
        let empirical = total as f64 / n as f64;
        assert!(
            (empirical - d.mean()).abs() < 0.05,
            "{empirical} vs {}",
            d.mean()
        );
    }

    #[test]
    fn vote_dist_uniform_covers_options() {
        let d = VoteDist::uniform(4);
        let mut rng = HmacDrbg::from_u64(3);
        let votes = d.sample_many(2000, &mut rng);
        for opt in 0..4 {
            let count = votes.iter().filter(|&&v| v == opt).count();
            assert!(count > 350, "option {opt}: {count}");
        }
    }

    #[test]
    fn weighted_dist_skews() {
        let d = VoteDist::weighted(&[9.0, 1.0]);
        let mut rng = HmacDrbg::from_u64(4);
        let votes = d.sample_many(2000, &mut rng);
        let zeros = votes.iter().filter(|&&v| v == 0).count();
        assert!(zeros > 1600, "{zeros}");
    }
}
