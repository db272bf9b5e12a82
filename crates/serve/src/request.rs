//! Serving requests, arrivals and completions.

use serde::{Deserialize, Serialize};
use specee_model::TokenId;
use specee_tensor::rng::Pcg;

/// One request entering the serving queue.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeRequest {
    /// Caller-visible id (position in the submission order).
    pub id: u64,
    /// Prompt tokens.
    pub prompt: Vec<TokenId>,
    /// Tokens to decode.
    pub gen_len: usize,
    /// Arrival time in seconds from simulation start.
    pub arrival_s: f64,
}

/// Lets [`crate::ServeLoop`] carry a bare request as its payload.
impl AsRef<ServeRequest> for ServeRequest {
    fn as_ref(&self) -> &ServeRequest {
        self
    }
}

/// A finished request with its timing milestones.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Completion {
    /// Request id.
    pub id: u64,
    /// Arrival time (copied from the request).
    pub arrival_s: f64,
    /// Time the first token was available.
    pub first_token_s: f64,
    /// Time the last token was available.
    pub finish_s: f64,
    /// Number of decoded tokens.
    pub tokens: usize,
}

impl Completion {
    /// Time to first token (queueing + prefill).
    pub fn ttft_s(&self) -> f64 {
        self.first_token_s - self.arrival_s
    }

    /// Mean time per output token over the decode phase.
    pub fn tpot_s(&self) -> f64 {
        if self.tokens <= 1 {
            0.0
        } else {
            (self.finish_s - self.first_token_s) / (self.tokens - 1) as f64
        }
    }

    /// End-to-end request latency.
    pub fn latency_s(&self) -> f64 {
        self.finish_s - self.arrival_s
    }
}

/// A deterministic Poisson arrival process.
///
/// # Examples
///
/// ```
/// use specee_serve::PoissonArrivals;
///
/// let times: Vec<f64> = PoissonArrivals::new(10.0, 3).take(100).collect();
/// assert_eq!(times.len(), 100);
/// assert!(times.windows(2).all(|w| w[0] <= w[1]));
/// ```
#[derive(Debug, Clone)]
pub struct PoissonArrivals {
    rate_per_s: f64,
    rng: Pcg,
    now: f64,
}

impl PoissonArrivals {
    /// Creates a process with `rate_per_s` expected arrivals per second.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not positive and finite.
    pub fn new(rate_per_s: f64, seed: u64) -> Self {
        assert!(
            rate_per_s > 0.0 && rate_per_s.is_finite(),
            "arrival rate must be positive"
        );
        PoissonArrivals {
            rate_per_s,
            rng: Pcg::seed_stream(seed, 0xa881),
            now: 0.0,
        }
    }

    /// Stamps arrival times onto `(prompt, gen_len)` pairs in order.
    pub fn requests(mut self, specs: &[(Vec<TokenId>, usize)]) -> Vec<ServeRequest> {
        specs
            .iter()
            .enumerate()
            .map(|(i, (prompt, gen_len))| ServeRequest {
                id: i as u64,
                prompt: prompt.clone(),
                gen_len: *gen_len,
                arrival_s: self.next().expect("infinite process"),
            })
            .collect()
    }
}

impl Iterator for PoissonArrivals {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        // Exponential inter-arrival via inverse CDF; (1 - u) avoids ln(0).
        let u = self.rng.next_f64();
        self.now += -(1.0 - u).ln() / self.rate_per_s;
        Some(self.now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completion_timings() {
        let c = Completion {
            id: 0,
            arrival_s: 1.0,
            first_token_s: 1.5,
            finish_s: 3.5,
            tokens: 5,
        };
        assert!((c.ttft_s() - 0.5).abs() < 1e-12);
        assert!((c.tpot_s() - 0.5).abs() < 1e-12);
        assert!((c.latency_s() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn single_token_completion_has_zero_tpot() {
        let c = Completion {
            id: 0,
            arrival_s: 0.0,
            first_token_s: 0.1,
            finish_s: 0.1,
            tokens: 1,
        };
        assert_eq!(c.tpot_s(), 0.0);
    }

    #[test]
    fn poisson_is_deterministic_and_monotone() {
        let a: Vec<f64> = PoissonArrivals::new(5.0, 7).take(50).collect();
        let b: Vec<f64> = PoissonArrivals::new(5.0, 7).take(50).collect();
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn poisson_rate_is_approximately_honoured() {
        let n = 4000;
        let times: Vec<f64> = PoissonArrivals::new(8.0, 13).take(n).collect();
        let rate = n as f64 / times.last().unwrap();
        assert!((rate - 8.0).abs() < 0.8, "measured rate {rate}");
    }

    #[test]
    fn requests_are_stamped_in_order() {
        let reqs = PoissonArrivals::new(2.0, 3).requests(&[
            (vec![1, 2], 4),
            (vec![3], 2),
            (vec![4, 5, 6], 1),
        ]);
        assert_eq!(reqs.len(), 3);
        assert!(reqs.windows(2).all(|w| w[0].arrival_s < w[1].arrival_s));
        assert_eq!(reqs[2].id, 2);
        assert_eq!(reqs[0].gen_len, 4);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        let _ = PoissonArrivals::new(0.0, 1);
    }
}
