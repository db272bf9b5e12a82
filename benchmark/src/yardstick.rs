//! A frozen piece of work that tells how fast the machine is right now.
//!
//! The sandbox this benchmark runs in shares its cores and caches with
//! other tenants: the same code runs up to twice as slow from one second
//! to the next, and nine-second medians of identical rounds differ by
//! 6–29 % (README, "Noise, measured"). No bound up to the contract's 25 %
//! survives that. So every timed call is bracketed by runs of this
//! yardstick, and wall times are reported *normalised*: multiplied by
//! nominal yardstick time ÷ measured yardstick time. What is reported is
//! the time the call would have taken on a machine where the yardstick
//! takes [`NOMINAL_MS`]; the raw stopwatch reading and the measured machine
//! speed are reported beside it (`bench.raw_tok_s`, `bench.machine_speed`).
//!
//! The yardstick has two halves, because the program does two kinds of
//! work and contention slows them differently. The **pass** is shaped like
//! one decoded token of the 7B(sim) model at full depth: 32 layers × 1280
//! rows × 128 columns of f32 weights (21 MB, far more than L2) streamed
//! once through dot products. The **spin** is arithmetic on data that never
//! leaves L1. Of the rulers tried (pass alone, cold or warm; spin alone;
//! both), both together tracked the program best: six runs of `solo_ar`
//! spread 16.5 % by the stopwatch, 6.5 % normalised by the pass, 6.8 % by
//! the spin, 5.0 % by both (3.5 % for the dense twin).
//!
//! It is the benchmark's own code and calls nothing in the product: a
//! change to the product can never speed it up, which is what makes it a
//! ruler and not a twin. **Do not optimise it**; a change here shifts
//! every baseline.

use std::time::Instant;

/// What one warm pass plus one spin takes on the quiet reference box, in
/// ms. It only fixes the scale of the normalised numbers; comparisons
/// between two commits on one machine do not depend on it.
pub const NOMINAL_MS: f64 = 3.4;

/// Rounds of the spin: about as long as a pass.
const SPIN_ROUNDS: usize = 45_000;

const LAYERS: usize = 32;
const ROWS: usize = 1280;
const COLS: usize = 128;

/// The frozen workload.
#[derive(Debug, Clone)]
pub struct Yardstick {
    weights: Vec<f32>,
    x: Vec<f32>,
    y: Vec<f32>,
}

impl Default for Yardstick {
    fn default() -> Self {
        Self::new()
    }
}

impl Yardstick {
    /// Allocates and fills the 21 MB of weights.
    pub fn new() -> Self {
        Yardstick {
            weights: (0..LAYERS * ROWS * COLS)
                .map(|i| ((i % 97) as f32 - 48.0) * 1e-3)
                .collect(),
            x: vec![0.5; COLS],
            y: vec![0.0; ROWS],
        }
    }

    /// One pass over all weights; returns its wall time in ms.
    #[inline(never)]
    pub fn pass(&mut self) -> f64 {
        let t = Instant::now();
        for layer in self.weights.chunks_exact(ROWS * COLS) {
            for (out, row) in self.y.iter_mut().zip(layer.chunks_exact(COLS)) {
                let mut acc = [0.0f32; 8];
                for (r, x) in row.chunks_exact(8).zip(self.x.chunks_exact(8)) {
                    for k in 0..8 {
                        acc[k] += r[k] * x[k];
                    }
                }
                *out = acc.iter().sum();
            }
            // Feed the layer's output back so no layer can be skipped.
            for (x, y) in self.x.iter_mut().zip(&self.y) {
                *x = 0.5 + y * 1e-6;
            }
        }
        std::hint::black_box(&self.x);
        t.elapsed().as_secs_f64() * 1e3
    }

    /// The arithmetic half: multiply-adds over 1 KB; returns its wall
    /// time in ms.
    #[inline(never)]
    pub fn spin(&mut self) -> f64 {
        let t = Instant::now();
        let mut a = [1.0f32; 256];
        let b = [1.0001f32; 256];
        for _ in 0..SPIN_ROUNDS {
            for (a, b) in a.iter_mut().zip(&b) {
                *a = *a * b + 0.5;
                if *a > 1e6 {
                    *a = 1.0;
                }
            }
        }
        std::hint::black_box(&a);
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// Runs yardstick passes and keeps every reading.
#[derive(Debug, Clone)]
pub struct Pacer {
    yard: Yardstick,
    speeds: Vec<f64>,
}

impl Default for Pacer {
    fn default() -> Self {
        Self::new()
    }
}

impl Pacer {
    /// A pacer with the yardstick's pages already faulted in.
    pub fn new() -> Self {
        let mut yard = Yardstick::new();
        yard.pass();
        Pacer {
            yard,
            speeds: Vec::new(),
        }
    }

    /// Measures the machine's speed now: nominal yardstick time ÷ measured
    /// yardstick time (1 = the reference box, 0.5 = half as fast), over
    /// `runs` timed runs of pass + spin. One untimed pass goes first:
    /// whatever the program did since the last probe has pushed the
    /// weights out of the near caches, and a pass over cold weights can
    /// take three times as long as the next one. Timing only warm passes
    /// makes a reading depend on the machine, not on what ran before it.
    pub fn probe(&mut self, runs: usize) -> f64 {
        self.yard.pass();
        let ms: f64 = (0..runs).map(|_| self.yard.pass() + self.yard.spin()).sum();
        let speed = NOMINAL_MS * runs as f64 / ms;
        self.speeds.push(speed);
        speed
    }

    /// Every reading so far.
    pub fn speeds(&self) -> &[f64] {
        &self.speeds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_do_the_same_work_every_time() {
        let mut a = Yardstick::new();
        let mut b = Yardstick::new();
        assert!(a.pass() > 0.0 && a.spin() > 0.0);
        b.pass();
        assert_eq!(a.x, b.x, "deterministic");
        assert!(a.x.iter().all(|v| v.is_finite()));
        // The feedback keeps the input from collapsing or blowing up.
        for _ in 0..3 {
            a.pass();
        }
        assert!(a.x.iter().all(|v| (0.0..1.0).contains(v)));
    }

    #[test]
    fn pacer_records_a_positive_speed_per_probe() {
        let mut pacer = Pacer::new();
        let s = pacer.probe(2);
        pacer.probe(1);
        assert!(s > 0.0 && s.is_finite());
        assert_eq!(pacer.speeds().len(), 2);
    }
}
