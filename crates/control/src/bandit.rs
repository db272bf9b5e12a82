//! Thompson sampling over a threshold grid (the EESD-style control
//! mechanism): reward is tokens-per-unit-work, gated by an accuracy
//! floor on the verifier's accept rate.

use specee_core::ExitFeedback;
use specee_tensor::rng::Pcg;

use crate::classed::ClassEvidence;
use crate::controller::{Controller, ControllerSummary, FeedbackCounters};

/// Arms, epoch length, reward shaping and seed for [`BanditController`].
#[derive(Debug, Clone, PartialEq)]
pub struct BanditConfig {
    /// The threshold grid (the bandit's arms). Every layer shares the
    /// sampled arm — the grid trades per-layer resolution for a sample
    /// budget small enough to adapt within one traffic phase.
    pub grid: Vec<f32>,
    /// Tokens per decision epoch: the arm is re-sampled, and the reward
    /// posterior updated, once per epoch.
    pub epoch_tokens: u64,
    /// Accuracy floor: an epoch whose verifier accept rate (accepted
    /// fires over all fires) falls below this earns zero reward no
    /// matter how much work it saved, so the posterior learns that arms
    /// which fire recklessly are worthless. A *healthy* operating point
    /// fires once or twice per token before its accepted exit (rate
    /// 0.4–0.8); a miscalibrated one fires dozens of times for one
    /// accept (rate under 0.2) — the floor sits between those regimes.
    pub accuracy_floor: f64,
    /// Work charged per rejected fire, in executed-layer equivalents (a
    /// failed verification still paid one full LM-head forward).
    pub reject_cost_layers: f64,
    /// Per-epoch posterior discount toward the uniform prior, in
    /// `(0, 1]` — the standard nonstationary-bandit device: old evidence
    /// decays with a half-life of roughly `1 / (1 - discount)` epochs,
    /// so after traffic drifts the arms re-earn their standing instead
    /// of living off a stale record. `1.0` disables forgetting.
    pub discount: f64,
    /// Pseudo-observations one epoch contributes to the played arm's
    /// Beta posterior (`alpha += e·r`, `beta += e·(1−r)`): an epoch
    /// summarizes several tokens of evidence, so weighting it as a
    /// single coin flip would leave Thompson sampling churning on noise
    /// long after the rewards have separated.
    pub epoch_evidence: f64,
    /// Pseudo-observations one *full epoch worth* of absorbed remote
    /// evidence (cross-worker gossip) contributes to the posterior of
    /// the arm nearest the reporting worker's operating point. Windows
    /// shorter than an epoch contribute proportionally less — gossip
    /// arrives at every arrival frontier, so a flat per-window weight
    /// would let dozens of 1–2-token windows (whose rewards are mostly
    /// uninformative ~0.5 noise) swamp the well-measured local epochs.
    /// Below `epoch_evidence` by default: remote traffic informs, local
    /// traffic decides.
    pub gossip_evidence: f64,
    /// Seed of the controller's private deterministic RNG.
    pub seed: u64,
}

impl Default for BanditConfig {
    fn default() -> Self {
        BanditConfig {
            // 1.0 is the safety arm: no sigmoid score exceeds it, so
            // playing it disables exits outright — the right move on
            // traffic where every fire is a rejected verification.
            grid: vec![0.2, 0.5, 0.8, 1.0],
            epoch_tokens: 8,
            accuracy_floor: 0.4,
            reject_cost_layers: 2.0,
            discount: 0.95,
            epoch_evidence: 5.0,
            gossip_evidence: 2.0,
            seed: 0x5eed,
        }
    }
}

/// Index of the grid arm nearest `threshold`, ties toward the lower arm.
fn nearest_arm(grid: &[f32], threshold: f32) -> usize {
    grid.iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| {
            (*a - threshold)
                .abs()
                .partial_cmp(&(*b - threshold).abs())
                .expect("finite grid")
        })
        .map(|(i, _)| i)
        .expect("non-empty grid")
}

/// One arm's Beta posterior over the (Bernoulli-ized) epoch reward.
#[derive(Debug, Clone, Copy)]
struct Arm {
    alpha: f64,
    beta: f64,
}

/// Thompson-sampling threshold control (the `bandit` policy).
///
/// Per epoch of [`BanditConfig::epoch_tokens`] emitted tokens the
/// controller scores the arm it played. The raw signal is the signed
/// work saving `1 − (executed layers + priced rejects) / (tokens ×
/// n_layers)`, mapped to a reward centered at the no-exit baseline
/// (`0.5 · (1 + saving)`, clamped to `[0, 1]`) so an arm that merely
/// disables exits out-earns one that bleeds rejected verifications; the
/// reward is zeroed outright when the verifier accept rate undercuts
/// the accuracy floor. The controller flips a Bernoulli coin with that
/// probability to update the arm's Beta posterior, then draws one sample
/// from every arm's posterior and plays the argmax. Everything draws
/// from an explicitly seeded [`Pcg`], so the trajectory is a pure
/// function of the feedback stream.
#[derive(Debug, Clone)]
pub struct BanditController {
    config: BanditConfig,
    arms: Vec<Arm>,
    current: usize,
    rng: Pcg,
    counters: FeedbackCounters,
    // Epoch accumulators.
    epoch_tokens: u64,
    epoch_layers: u64,
    epoch_accepts: u64,
    epoch_rejects: u64,
    epochs: u64,
}

impl BanditController {
    /// Creates the bandit with uniform priors, starting on the grid arm
    /// nearest `base_threshold`.
    ///
    /// # Panics
    ///
    /// Panics if the grid is empty or `epoch_tokens` is zero.
    pub fn new(base_threshold: f32, config: BanditConfig) -> Self {
        assert!(!config.grid.is_empty(), "bandit needs at least one arm");
        assert!(
            config.epoch_tokens > 0,
            "epoch must cover at least one token"
        );
        let current = nearest_arm(&config.grid, base_threshold);
        let rng = Pcg::seed_stream(config.seed, 0xc047_0151);
        BanditController {
            arms: vec![
                Arm {
                    alpha: 1.0,
                    beta: 1.0
                };
                config.grid.len()
            ],
            current,
            rng,
            config,
            counters: FeedbackCounters::default(),
            epoch_tokens: 0,
            epoch_layers: 0,
            epoch_accepts: 0,
            epoch_rejects: 0,
            epochs: 0,
        }
    }

    /// Decision epochs completed so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// The `[0, 1]` reward of a window of `tokens` emitted tokens: the
    /// signed work saving centered at the no-exit baseline — a window
    /// that spends exactly full depth scores 0.5, harvested savings push
    /// toward 1, and rejected fires can push *below* 0.5 (so "exits off"
    /// beats a bleeding arm instead of tying with it at zero) — zeroed
    /// outright when the verifier accept rate undercuts the floor.
    fn window_reward(
        &self,
        tokens: u64,
        executed_layers: u64,
        accepts: u64,
        rejects: u64,
        n_layers: usize,
    ) -> f64 {
        let full_work = tokens as f64 * n_layers as f64;
        let spent = executed_layers as f64 + self.config.reject_cost_layers * rejects as f64;
        let saved = 1.0 - spent / full_work;
        let fires = accepts + rejects;
        let accept_rate = if fires > 0 {
            accepts as f64 / fires as f64
        } else {
            1.0 // no fires, no accuracy risk
        };
        if accept_rate < self.config.accuracy_floor {
            0.0
        } else {
            (0.5 * (1.0 + saved)).clamp(0.0, 1.0)
        }
    }

    fn finish_epoch(&mut self, n_layers: usize) {
        let reward = self.window_reward(
            self.epoch_tokens,
            self.epoch_layers,
            self.epoch_accepts,
            self.epoch_rejects,
            n_layers,
        );
        // Forget before learning: decay every posterior toward the
        // uniform prior so drifted traffic re-ranks the arms.
        let d = self.config.discount.clamp(0.0, 1.0);
        for arm in &mut self.arms {
            arm.alpha = 1.0 + (arm.alpha - 1.0) * d;
            arm.beta = 1.0 + (arm.beta - 1.0) * d;
        }
        // Fractional Beta update: the epoch's [0, 1] reward enters as
        // `epoch_evidence` pseudo-observations.
        let e = self.config.epoch_evidence.max(0.0);
        let arm = &mut self.arms[self.current];
        arm.alpha += e * reward;
        arm.beta += e * (1.0 - reward);
        // Thompson step: sample every posterior, play the argmax.
        let mut best = (0usize, f64::NEG_INFINITY);
        for (i, arm) in self.arms.iter().enumerate() {
            let draw = beta_sample(&mut self.rng, arm.alpha, arm.beta);
            if draw > best.1 {
                best = (i, draw);
            }
        }
        self.current = best.0;
        self.epochs += 1;
        self.epoch_tokens = 0;
        self.epoch_layers = 0;
        self.epoch_accepts = 0;
        self.epoch_rejects = 0;
    }
}

impl Controller for BanditController {
    fn name(&self) -> &'static str {
        "bandit"
    }

    fn observe(&mut self, feedback: &ExitFeedback) {
        self.counters.observe(feedback);
        if feedback.accepted {
            self.epoch_accepts += 1;
        } else {
            self.epoch_rejects += 1;
        }
    }

    fn note_token(&mut self, executed_layers: usize, n_layers: usize) {
        self.counters.tokens += 1;
        self.epoch_tokens += 1;
        self.epoch_layers += executed_layers.min(n_layers) as u64;
        if self.epoch_tokens >= self.config.epoch_tokens {
            self.finish_epoch(n_layers);
        }
    }

    fn threshold(&self, _layer: usize) -> f32 {
        self.config.grid[self.current]
    }

    fn absorb(&mut self, evidence: &ClassEvidence) {
        // A remote window is a borrowed epoch: score it with the same
        // reward shaping and credit the arm nearest the *reporting*
        // worker's operating point (that is the arm whose quality the
        // evidence speaks to), at the reduced gossip evidence weight.
        // No posterior discount and no Thompson redraw happen here —
        // forgetting and arm switches stay paced by local epochs — and
        // nothing touches the RNG, so absorbing evidence never perturbs
        // the local exploration stream.
        if evidence.tokens == 0 || evidence.n_layers == 0 {
            return;
        }
        let reward = self.window_reward(
            evidence.tokens,
            evidence.executed_layers,
            evidence.accepts(),
            evidence.rejects(),
            evidence.n_layers,
        );
        let arm_idx = nearest_arm(&self.config.grid, evidence.mean_threshold as f32);
        let window = (evidence.tokens as f64 / self.config.epoch_tokens.max(1) as f64).min(1.0);
        let e = self.config.gossip_evidence.max(0.0) * window;
        let arm = &mut self.arms[arm_idx];
        arm.alpha += e * reward;
        arm.beta += e * (1.0 - reward);
    }

    fn summary(&self) -> ControllerSummary {
        ControllerSummary {
            policy: self.name(),
            mean_threshold: f64::from(self.config.grid[self.current]),
            accepts: self.counters.accepts,
            rejects: self.counters.rejects,
            tokens: self.counters.tokens,
        }
    }
}

/// Marsaglia–Tsang Gamma(shape, 1) sampler (shape > 0).
fn gamma_sample(rng: &mut Pcg, shape: f64) -> f64 {
    if shape < 1.0 {
        // Boost: Gamma(a) = Gamma(a + 1) · U^(1/a).
        let u = rng.next_f64().max(1e-300);
        return gamma_sample(rng, shape + 1.0) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = rng.normal();
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u = rng.next_f64().max(1e-300);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

/// Beta(a, b) sample as a ratio of Gammas.
fn beta_sample(rng: &mut Pcg, a: f64, b: f64) -> f64 {
    let x = gamma_sample(rng, a);
    let y = gamma_sample(rng, b);
    if x + y == 0.0 {
        0.5
    } else {
        x / (x + y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fb(accepted: bool) -> ExitFeedback {
        ExitFeedback {
            class: specee_core::TrafficClass::DEFAULT,
            layer: 0,
            score: 0.7,
            threshold: 0.5,
            accepted,
        }
    }

    #[test]
    fn starts_on_nearest_arm() {
        let ctl = BanditController::new(0.55, BanditConfig::default());
        assert_eq!(ctl.threshold(0), 0.5);
        let ctl = BanditController::new(0.9, BanditConfig::default());
        assert_eq!(ctl.threshold(0), 0.8);
    }

    #[test]
    fn deterministic_for_a_seed() {
        let run = || {
            let mut ctl = BanditController::new(0.5, BanditConfig::default());
            for i in 0..400u64 {
                ctl.observe(&fb(i % 3 != 0));
                ctl.note_token(if i % 2 == 0 { 4 } else { 12 }, 12);
            }
            (ctl.current, ctl.summary())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn learns_the_saving_arm() {
        // Synthetic environment: the 0.2 arm saves most work with a clean
        // accept stream; higher arms save nothing. The posterior should
        // concentrate play on 0.2.
        let mut ctl = BanditController::new(
            0.8,
            BanditConfig {
                epoch_tokens: 4,
                ..BanditConfig::default()
            },
        );
        let mut plays_low = 0u32;
        for _ in 0..300 {
            let thr = ctl.threshold(0);
            let (executed, accepted) = if thr <= 0.25 {
                (4usize, true) // deep saving, verifier clean
            } else {
                (12usize, true) // no exits happen at strict thresholds
            };
            if executed < 12 {
                ctl.observe(&fb(accepted));
            }
            for _ in 0..4 {
                ctl.note_token(executed, 12);
            }
            if thr <= 0.25 {
                plays_low += 1;
            }
        }
        assert!(plays_low > 150, "played the saving arm {plays_low}/300");
    }

    #[test]
    fn accuracy_floor_vetoes_dirty_arms() {
        // The 0.2 arm saves work but the verifier rejects most of its
        // fires; the 0.5 arm saves a little, cleanly. With the floor the
        // bandit must settle on the clean arm.
        let mut ctl = BanditController::new(
            0.2,
            BanditConfig {
                grid: vec![0.2, 0.5],
                epoch_tokens: 4,
                ..BanditConfig::default()
            },
        );
        let mut plays_clean = 0u32;
        for _ in 0..400u32 {
            let thr = ctl.threshold(0);
            if thr <= 0.25 {
                // Eager arm: fires five times per epoch, 80% rejected —
                // every one of its epochs undercuts the accuracy floor.
                for j in 0..5 {
                    ctl.observe(&fb(j < 1));
                }
                for _ in 0..4 {
                    ctl.note_token(6, 12);
                }
            } else {
                plays_clean += 1;
                ctl.observe(&fb(true));
                for _ in 0..4 {
                    ctl.note_token(9, 12);
                }
            }
        }
        assert!(plays_clean > 200, "played the clean arm {plays_clean}/400");
    }

    #[test]
    fn absorb_credits_the_reporters_arm_without_touching_the_rng() {
        use crate::classed::ClassEvidence;
        use specee_core::TrafficClass;
        // Two identical controllers; one absorbs glowing remote evidence
        // for the 0.2 arm. Its 0.2 posterior mean must rise, and the
        // local trajectory (arm play sequence under identical local
        // feedback) must stay in lock-step until the posteriors actually
        // diverge a Thompson draw — never because the RNG was consumed.
        let build = || BanditController::new(0.8, BanditConfig::default());
        let (plain, mut gossiped) = (build(), build());
        let mut evidence = ClassEvidence::empty(TrafficClass::new(1), 4, 12);
        evidence.layer_accepts[0] = 8;
        evidence.tokens = 8;
        evidence.executed_layers = 3 * 8; // deep saving
        evidence.mean_threshold = 0.2;
        for _ in 0..10 {
            gossiped.absorb(&evidence);
        }
        // Posterior mean of the 0.2 arm: alpha grew by gossip reward.
        assert!(gossiped.arms[0].alpha > plain.arms[0].alpha);
        assert_eq!(
            gossiped.current, plain.current,
            "absorb alone never switches arms"
        );
        // Rewardless dimensions: empty evidence is a no-op.
        let before = gossiped.arms[0].alpha;
        gossiped.absorb(&ClassEvidence::empty(TrafficClass::new(1), 4, 12));
        assert_eq!(gossiped.arms[0].alpha, before);
    }

    #[test]
    fn beta_sampler_matches_moments() {
        let mut rng = Pcg::seed(9);
        let n = 20_000;
        let (a, b) = (6.0, 2.0);
        let mean = (0..n).map(|_| beta_sample(&mut rng, a, b)).sum::<f64>() / n as f64;
        assert!((mean - a / (a + b)).abs() < 0.01, "mean {mean}");
        let mut rng = Pcg::seed(10);
        let samples: Vec<f64> = (0..n).map(|_| beta_sample(&mut rng, 0.5, 0.5)).collect();
        assert!(samples.iter().all(|s| (0.0..=1.0).contains(s)));
        let m = samples.iter().sum::<f64>() / n as f64;
        assert!((m - 0.5).abs() < 0.02, "mean {m}");
    }

    #[test]
    #[should_panic(expected = "at least one arm")]
    fn empty_grid_rejected() {
        let _ = BanditController::new(
            0.5,
            BanditConfig {
                grid: vec![],
                ..BanditConfig::default()
            },
        );
    }
}
