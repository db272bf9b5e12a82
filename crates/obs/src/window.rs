//! Time-bucketed rolling windows over the simulated clock.
//!
//! Both windows here sit on one ring of fixed-width time buckets (a
//! histogram is a counter per value bucket) keyed to the *simulated*
//! clock (the same clock [`crate::Recorder`] stamps), so a
//! traced and an untraced run advance them identically. Retirement is
//! exact: when the clock crosses a bucket boundary the oldest bucket's
//! integer counts are subtracted from the running aggregate — no decay
//! factors, no floating-point drift — and a window's answer equals the
//! answer recomputed from scratch over the surviving buckets.
//!
//! Clocks may only move forward. Observations land in the bucket the
//! current clock falls in; callers advance the window at simulated-clock
//! boundaries (step boundaries in the serving tiers) and never between
//! them, which keeps window state a pure function of the event stream.

/// A windowed event counter: total and rate over the trailing window.
///
/// The window spans `buckets × bucket_s` simulated seconds. Counts land
/// in the bucket the current clock falls in; [`advance_to`] retires
/// whole buckets exactly as the clock crosses their boundaries.
///
/// [`advance_to`]: RollingCounter::advance_to
#[derive(Debug, Clone)]
pub struct RollingCounter {
    bucket_s: f64,
    ring: Vec<u64>,
    /// Global index (`floor(t / bucket_s)`) of the bucket the clock is in.
    epoch: i64,
    total: u64,
}

impl RollingCounter {
    /// A counter over `buckets` buckets of `bucket_s` simulated seconds.
    ///
    /// # Panics
    ///
    /// If `bucket_s` is not finite and positive or `buckets` is zero.
    pub fn new(bucket_s: f64, buckets: usize) -> Self {
        assert!(
            bucket_s.is_finite() && bucket_s > 0.0,
            "window bucket width must be finite and positive"
        );
        assert!(buckets > 0, "window needs at least one bucket");
        RollingCounter {
            bucket_s,
            ring: vec![0; buckets],
            epoch: 0,
            total: 0,
        }
    }

    /// The window span in simulated seconds.
    pub fn window_s(&self) -> f64 {
        self.bucket_s * self.ring.len() as f64
    }

    fn slot(&self, epoch: i64) -> usize {
        epoch.rem_euclid(self.ring.len() as i64) as usize
    }

    /// Advances the window to simulated time `t`, retiring every bucket
    /// that fell off the trailing edge. Time never moves backwards:
    /// earlier `t` values are ignored.
    pub fn advance_to(&mut self, t: f64) {
        let target = (t / self.bucket_s).floor() as i64;
        if target <= self.epoch {
            return;
        }
        let steps = (target - self.epoch).min(self.ring.len() as i64);
        for i in 1..=steps {
            let slot = self.slot(self.epoch + i);
            self.total -= self.ring[slot];
            self.ring[slot] = 0;
        }
        self.epoch = target;
    }

    /// Adds `n` events to the current bucket.
    pub fn add(&mut self, n: u64) {
        let slot = self.slot(self.epoch);
        self.ring[slot] += n;
        self.total += n;
    }

    /// Events currently inside the window.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Events per simulated second over the window span.
    pub fn rate(&self) -> f64 {
        self.total as f64 / self.window_s()
    }
}

/// A windowed fixed-bucket histogram: one [`RollingCounter`] per value
/// bucket, all advanced together, so the aggregate is maintained by the
/// same exact retire-on-advance.
///
/// Value bucketing matches [`crate::Histogram`]: a sample lands in the
/// first bound it is `<=`, with one overflow bucket past the last bound,
/// and [`quantile`] answers by the shared `nearest_rank` rule (the
/// overflow bucket answers `f64::INFINITY`).
///
/// [`quantile`]: RollingHistogram::quantile
#[derive(Debug, Clone)]
pub struct RollingHistogram {
    bounds: Vec<f64>,
    /// `values[value_bucket]`; the last value bucket is overflow.
    values: Vec<RollingCounter>,
}

impl RollingHistogram {
    /// A histogram over `buckets` time buckets of `bucket_s` simulated
    /// seconds, with the given value bounds.
    ///
    /// # Panics
    ///
    /// With the same messages as [`RollingCounter::new`] for the window
    /// shape and [`crate::Histogram::new`] for the bounds.
    pub fn new(bounds: &[f64], bucket_s: f64, buckets: usize) -> Self {
        let window = RollingCounter::new(bucket_s, buckets);
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite and strictly increasing"
        );
        RollingHistogram {
            bounds: bounds.to_vec(),
            values: vec![window; bounds.len() + 1],
        }
    }

    /// The window span in simulated seconds.
    pub fn window_s(&self) -> f64 {
        self.values[0].window_s()
    }

    /// Advances the window to simulated time `t`, exactly retiring every
    /// time bucket that fell off the trailing edge. Earlier `t` values
    /// are ignored.
    pub fn advance_to(&mut self, t: f64) {
        self.values.iter_mut().for_each(|v| v.advance_to(t));
    }

    /// Records a sample into the current time bucket.
    pub fn observe(&mut self, v: f64) {
        let value_bucket = self
            .bounds
            .iter()
            .position(|b| v <= *b)
            .unwrap_or(self.bounds.len());
        self.values[value_bucket].add(1);
    }

    /// Samples currently inside the window.
    pub fn count(&self) -> u64 {
        self.values.iter().map(RollingCounter::total).sum()
    }

    /// The `q`-quantile over the window by the shared `nearest_rank`
    /// rule, answered as the matched bucket's upper bound (`0.0` for an
    /// empty window, `f64::INFINITY` from the overflow bucket).
    ///
    /// # Panics
    ///
    /// If `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        let rank = crate::nearest_rank(count as usize, q) as u64;
        let mut cum = 0u64;
        for (value_bucket, value) in self.values.iter().enumerate() {
            cum += value.total();
            if cum >= rank {
                return self
                    .bounds
                    .get(value_bucket)
                    .copied()
                    .unwrap_or(f64::INFINITY);
            }
        }
        f64::INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_retires_exactly_on_advance() {
        let mut c = RollingCounter::new(1.0, 4);
        c.add(3); // bucket 0
        c.advance_to(1.5);
        c.add(2); // bucket 1
        c.advance_to(3.0);
        c.add(1); // bucket 3
        assert_eq!(c.total(), 6);
        // Bucket 0 (count 3) falls off when the clock enters bucket 4.
        c.advance_to(4.0);
        assert_eq!(c.total(), 3);
        c.advance_to(5.0);
        assert_eq!(c.total(), 1);
        // Bucket 3 survives while the window covers epochs 3..=6 …
        c.advance_to(6.0);
        assert_eq!(c.total(), 1);
        // … and retires at epoch 7 (window 4..=7).
        c.advance_to(7.0);
        assert_eq!(c.total(), 0);
    }

    #[test]
    fn counter_jump_past_whole_window_clears_it() {
        let mut c = RollingCounter::new(0.5, 3);
        c.add(9);
        c.advance_to(1e6);
        assert_eq!(c.total(), 0);
        assert_eq!(c.rate(), 0.0);
    }

    #[test]
    fn counter_ignores_backwards_time() {
        let mut c = RollingCounter::new(1.0, 2);
        c.advance_to(5.0);
        c.add(4);
        c.advance_to(1.0);
        assert_eq!(c.total(), 4);
    }

    #[test]
    fn counter_rate_is_total_over_span() {
        let mut c = RollingCounter::new(0.5, 4);
        c.add(10);
        assert_eq!(c.window_s(), 2.0);
        assert_eq!(c.rate(), 5.0);
    }

    #[test]
    fn histogram_quantile_matches_nearest_rank_ladder() {
        let mut h = RollingHistogram::new(&[1.0, 2.0, 4.0], 1.0, 4);
        for v in [0.5, 0.7, 1.5, 3.0, 9.0] {
            h.observe(v);
        }
        // Sorted bucket upper bounds: [1, 1, 2, 4, inf].
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.quantile(0.5), 2.0);
        assert_eq!(h.quantile(0.8), 4.0);
        assert_eq!(h.quantile(1.0), f64::INFINITY);
    }

    #[test]
    fn histogram_retirement_matches_recompute() {
        let mut h = RollingHistogram::new(&[1.0, 2.0], 1.0, 2);
        h.observe(0.5);
        h.observe(1.5);
        h.advance_to(1.0);
        h.observe(5.0);
        // Window covers buckets {0, 1}: counts [1, 1, 1].
        assert_eq!(h.count(), 3);
        assert_eq!(h.quantile(1.0), f64::INFINITY);
        // Bucket 0 retires: only the overflow sample remains.
        h.advance_to(2.0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(0.5), f64::INFINITY);
        h.advance_to(3.0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.99), 0.0);
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn histogram_rejects_out_of_range_quantile() {
        RollingHistogram::new(&[1.0], 1.0, 1).quantile(1.5);
    }

    #[test]
    #[should_panic(expected = "histogram bounds must be finite and strictly increasing")]
    fn histogram_rejects_bad_bounds() {
        RollingHistogram::new(&[2.0, 1.0], 1.0, 1);
    }

    #[test]
    #[should_panic(expected = "window bucket width must be finite and positive")]
    fn counter_rejects_bad_bucket_width() {
        RollingCounter::new(0.0, 4);
    }
}
