//! A time-bucketed rolling window over the simulated clock.
//!
//! The window sits on a ring of fixed-width time buckets keyed to the
//! *simulated* clock (the same clock [`crate::Recorder`] stamps), so a
//! traced and an untraced run advance it identically. Retirement is
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
    #[should_panic(expected = "window bucket width must be finite and positive")]
    fn counter_rejects_bad_bucket_width() {
        RollingCounter::new(0.0, 4);
    }
}
