//! Deterministic pseudo-random number generation.
//!
//! The simulator must be bit-reproducible across runs and platforms, so all
//! library code draws randomness from this small PCG-XSH-RR generator
//! (seeded explicitly everywhere) instead of an external RNG whose stream
//! may change between crate versions.

/// A deterministic PCG-XSH-RR 64/32 pseudo-random number generator.
///
/// # Examples
///
/// ```
/// use specee_tensor::rng::Pcg;
///
/// let mut a = Pcg::seed(42);
/// let mut b = Pcg::seed(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Pcg {
    state: u64,
    inc: u64,
}

const PCG_MULT: u64 = 6_364_136_223_846_793_005;

impl Pcg {
    /// Creates a generator from a 64-bit seed with the default stream.
    pub fn seed(seed: u64) -> Self {
        Self::seed_stream(seed, 0xda3e_39cb_94b9_5bdb)
    }

    /// Creates a generator from a seed and an explicit stream id, so
    /// independent subsystems can derive uncorrelated streams from one seed.
    pub fn seed_stream(seed: u64, stream: u64) -> Self {
        let mut rng = Pcg {
            state: 0,
            inc: (stream << 1) | 1,
        };
        rng.next_u32();
        rng.state = rng.state.wrapping_add(seed);
        rng.next_u32();
        rng
    }

    /// Derives a child generator; useful for splitting one experiment seed
    /// into per-component seeds.
    pub fn split(&mut self, stream: u64) -> Pcg {
        Pcg::seed_stream(self.next_u64(), stream)
    }

    /// Returns the next 32 random bits.
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Moves the stream where `draws` calls of [`Pcg::next_u32`] would
    /// leave it, in O(log `draws`) steps: the state is an affine map
    /// applied once per draw, and affine maps compose by squaring.
    pub fn advance(&mut self, mut draws: u64) {
        let (mut mult, mut plus) = (PCG_MULT, self.inc);
        let (mut acc_mult, mut acc_plus) = (1u64, 0u64);
        while draws > 0 {
            if draws & 1 == 1 {
                acc_mult = acc_mult.wrapping_mul(mult);
                acc_plus = acc_plus.wrapping_mul(mult).wrapping_add(plus);
            }
            plus = mult.wrapping_add(1).wrapping_mul(plus);
            mult = mult.wrapping_mul(mult);
            draws >>= 1;
        }
        self.state = acc_mult.wrapping_mul(self.state).wrapping_add(acc_plus);
    }

    /// Returns the next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        (u64::from(self.next_u32()) << 32) | u64::from(self.next_u32())
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[0, 1)`.
    pub fn next_f32(&mut self) -> f32 {
        self.next_f64() as f32
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "bound must be positive");
        // Lemire-style rejection-free mapping is fine for simulation use.
        (self.next_f64() * bound as f64) as usize % bound
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range");
        lo + (self.next_f64() * (hi - lo) as f64) as i64
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.next_f64() * (hi - lo)
    }

    /// Standard normal sample (Box–Muller): always two [`Pcg::next_f64`],
    /// four [`Pcg::next_u32`], which callers that [`Pcg::advance`] past
    /// normals they do not need count on.
    pub fn normal(&mut self) -> f64 {
        let u1 = self.next_f64().max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn normal_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.normal()
    }

    /// Bernoulli trial with success probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Samples from a Zipf distribution over `n` ranks with exponent `s`,
    /// returning a rank in `[0, n)`. Used for synthetic vocabulary draws.
    pub fn zipf(&mut self, n: usize, s: f64) -> usize {
        debug_assert!(n > 0);
        // Inverse-CDF over precomputable harmonic mass would need state; a
        // simple rejection-free approximation via the inverse power method
        // keeps the generator stateless.
        let u = self.next_f64().max(1e-12);
        let x = u.powf(-1.0 / (s - 1.0).max(1e-9));
        ((x - 1.0) as usize).min(n - 1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }

    /// Fills a slice with scaled uniform noise in `[-scale, scale)`.
    pub fn fill_uniform(&mut self, out: &mut [f32], scale: f32) {
        for v in out {
            *v = (self.next_f32() * 2.0 - 1.0) * scale;
        }
    }
}

impl Default for Pcg {
    fn default() -> Self {
        Pcg::seed(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Pcg::seed(123);
        let mut b = Pcg::seed(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Pcg::seed(1);
        let mut b = Pcg::seed(2);
        let same = (0..32).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 4);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Pcg::seed(9);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = Pcg::seed(5);
        for _ in 0..1000 {
            assert!(rng.below(7) < 7);
        }
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = Pcg::seed(17);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn chance_matches_probability() {
        let mut rng = Pcg::seed(11);
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((2000..3000).contains(&hits), "hits {hits}");
    }

    #[test]
    fn zipf_is_head_heavy() {
        let mut rng = Pcg::seed(23);
        let head = (0..5000).filter(|_| rng.zipf(1000, 1.2) < 10).count();
        let tail = (0..5000).filter(|_| rng.zipf(1000, 1.2) >= 500).count();
        assert!(head > tail, "head {head} tail {tail}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Pcg::seed(31);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    /// Two streams with different increments, each a few draws in.
    fn advance_streams() -> [Pcg; 2] {
        let mut a = Pcg::seed(41);
        let mut b = Pcg::seed_stream(7, 0x5a7);
        a.next_u64();
        b.normal();
        [a, b]
    }

    #[test]
    fn advance_equals_that_many_draws() {
        for start in advance_streams() {
            let mut stepped = start.clone();
            for n in 0..=4096u64 {
                let mut jumped = start.clone();
                jumped.advance(n);
                assert_eq!(jumped, stepped, "advance({n})");
                stepped.next_u32();
            }
        }
    }

    #[test]
    fn advance_composes_and_does_not_truncate_near_two_to_the_32() {
        for start in advance_streams() {
            for (a, b) in [
                (0u64, 5u64),
                (1, 1),
                (4096, 4097),
                (65_535, 3),
                (123_456, 654_321),
            ] {
                let (mut split, mut whole) = (start.clone(), start.clone());
                split.advance(a);
                split.advance(b);
                whole.advance(a + b);
                assert_eq!(split, whole, "advance({a}); advance({b})");
            }
            // Near 2³² the draws are counted in jumps of 2¹⁶ — a jump
            // checked against 2¹⁶ single draws first — plus single draws.
            let mut chunk = start.clone();
            for _ in 0..1u32 << 16 {
                chunk.next_u32();
            }
            let mut by_chunk = start.clone();
            by_chunk.advance(1 << 16);
            assert_eq!(by_chunk, chunk);
            for n in [(1u64 << 32) - 1, 1 << 32, (1 << 32) + 5] {
                let mut want = start.clone();
                for _ in 0..n >> 16 {
                    want.advance(1 << 16);
                }
                for _ in 0..n & 0xffff {
                    want.next_u32();
                }
                let mut got = start.clone();
                got.advance(n);
                assert_eq!(got, want, "advance({n})");
            }
        }
    }

    #[test]
    fn one_normal_is_four_draws() {
        // `SyntheticLm::adopt_prefix` jumps its noise stream by four draws
        // per normal it skips; a sampler that draws otherwise (a rejection
        // loop, a cached second Box–Muller value) must fail here.
        for start in advance_streams() {
            let (mut drawn, mut jumped) = (start.clone(), start);
            for n in 1..=64u64 {
                drawn.normal();
                jumped.advance(4);
                assert_eq!(drawn, jumped, "after {n} normals");
            }
        }
    }

    #[test]
    fn split_streams_are_independent() {
        let mut root = Pcg::seed(77);
        let mut a = root.split(1);
        let mut b = root.split(2);
        let same = (0..32).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 4);
    }
}
