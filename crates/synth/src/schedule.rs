//! Saturation-depth scheduling: *when* each token's answer stabilizes.
//!
//! Every generated token is assigned a saturation layer `L*`: the depth at
//! which the correct token's probability shifts sharply upward (§4.2). The
//! driver reproduces the two statistics the paper's system techniques rely
//! on: a skewed marginal distribution over layers (Fig. 10(a,c)) and AR(1)
//! context correlation between consecutive tokens (Fig. 11).

use serde::{Deserialize, Serialize};
use specee_tensor::Pcg;

use crate::profile::DatasetProfile;

/// Per-token saturation-depth sampler.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SaturationDriver {
    n_layers: usize,
    exit_mu: f64,
    exit_sigma: f64,
    early_frac: f64,
    early_mu: f64,
    rho: f64,
    jump: f64,
    jitter: f64,
    rng: Pcg,
}

impl SaturationDriver {
    /// Creates a driver for a model of `n_layers` from a dataset profile.
    ///
    /// # Panics
    ///
    /// Panics if `n_layers < 4`.
    pub fn new(profile: &DatasetProfile, n_layers: usize, seed: u64) -> Self {
        assert!(n_layers >= 4, "need at least 4 layers");
        SaturationDriver {
            n_layers,
            exit_mu: profile.exit_mu,
            exit_sigma: profile.exit_sigma,
            early_frac: profile.early_frac,
            early_mu: profile.early_mu,
            rho: profile.rho,
            jump: profile.jump,
            jitter: profile.jitter,
            rng: Pcg::seed_stream(seed, 0x5a7u64),
        }
    }

    /// Number of layers the depths are expressed against.
    pub fn n_layers(&self) -> usize {
        self.n_layers
    }

    fn clamp(&self, sat: f64) -> f64 {
        sat.clamp(2.0, (self.n_layers - 2) as f64)
    }

    /// Draws a fresh (context-free) saturation depth from the skewed
    /// marginal distribution.
    pub fn sample_base(&mut self) -> f64 {
        let l = self.n_layers as f64;
        let (mu, sigma) = if self.rng.chance(self.early_frac) {
            (self.early_mu * l, self.exit_sigma * l * 0.7)
        } else {
            (self.exit_mu * l, self.exit_sigma * l)
        };
        let draw = self.rng.normal_with(mu, sigma);
        self.clamp(draw)
    }

    /// Draws the next token's saturation depth given the previous token's
    /// (AR(1) toward a fresh base draw, plus jitter).
    pub fn sample(&mut self, prev: Option<f64>) -> f64 {
        let base = self.sample_base();
        if self.rng.chance(self.jump) {
            return base;
        }
        match prev {
            None => base,
            Some(p) => {
                let mixed = self.rho * p + (1.0 - self.rho) * base;
                let jittered = mixed + self.rng.normal() * self.jitter * self.n_layers as f64;
                let out = jittered;
                self.clamp(out)
            }
        }
    }
}

/// The convergence weight toward the target embedding at layer `layer`
/// given saturation depth `sat`: a sharp logistic (the probability shift).
pub fn gamma(layer: usize, sat: f64) -> f32 {
    const G_MAX: f64 = 0.92;
    const TAU: f64 = 0.6;
    (G_MAX / (1.0 + (-(layer as f64 - sat) / TAU).exp())) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::DatasetProfile;

    fn driver() -> SaturationDriver {
        SaturationDriver::new(&DatasetProfile::mt_bench(), 32, 7)
    }

    #[test]
    fn depths_within_bounds() {
        let mut d = driver();
        let mut prev = None;
        for _ in 0..2000 {
            let s = d.sample(prev);
            assert!((2.0..=30.0).contains(&s), "sat {s}");
            prev = Some(s);
        }
    }

    #[test]
    fn marginal_mean_near_profile_mu() {
        let mut d = driver();
        let n = 4000;
        let mean: f64 = (0..n).map(|_| d.sample_base()).sum::<f64>() / n as f64;
        let expect = 0.85 * 0.645 * 32.0 + 0.15 * 0.34 * 32.0;
        assert!((mean - expect).abs() < 1.0, "mean {mean} expect {expect}");
    }

    #[test]
    fn distribution_is_skewed_not_uniform() {
        // Paper Fig. 10: the bottom-50% layers by frequency carry < 20% of
        // the exit mass.
        let mut d = driver();
        let mut hist = vec![0usize; 32];
        for _ in 0..8000 {
            hist[d.sample_base().round() as usize] += 1;
        }
        let mut sorted = hist.clone();
        sorted.sort_unstable();
        let bottom: usize = sorted[..16].iter().sum();
        let total: usize = sorted.iter().sum();
        assert!(
            (bottom as f64) < 0.2 * total as f64,
            "bottom half carries {bottom}/{total}"
        );
    }

    #[test]
    fn context_similarity_hits_eighty_percent() {
        // Paper Fig. 11: current token's exit layer is within ±2 of one of
        // the last 5 tokens' exit layers ~80% of the time.
        let mut d = driver();
        let mut history: Vec<i64> = Vec::new();
        let mut prev = None;
        let (mut hits, mut total) = (0usize, 0usize);
        for _ in 0..4000 {
            let s = d.sample(prev);
            prev = Some(s);
            let li = s.round() as i64;
            if history.len() >= 5 {
                total += 1;
                let near = history.iter().rev().take(5).any(|&h| (h - li).abs() <= 2);
                if near {
                    hits += 1;
                }
            }
            history.push(li);
        }
        let ratio = hits as f64 / total as f64;
        assert!((0.70..0.95).contains(&ratio), "hit ratio {ratio}");
    }

    #[test]
    fn gamma_is_a_sharp_shift() {
        let sat = 20.0;
        assert!(gamma(14, sat) < 0.01);
        assert!(gamma(20, sat) > 0.4);
        assert!(gamma(24, sat) > 0.9);
        // monotone
        for l in 1..31 {
            assert!(gamma(l + 1, sat) >= gamma(l, sat));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = driver();
        let mut b = driver();
        for _ in 0..50 {
            assert_eq!(a.sample(Some(16.0)), b.sample(Some(16.0)));
        }
    }
}
