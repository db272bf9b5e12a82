//! The [`Controller`] trait and the static (fixed-threshold) baseline.

use specee_core::ExitFeedback;

use crate::classed::ClassEvidence;

/// Closed-loop exit-threshold control.
///
/// A controller watches two deterministic event streams produced by the
/// decode loop — the verifier's per-fire accept/reject outcomes
/// ([`ExitFeedback`], via [`Controller::observe`]) and per-token executed
/// depths (via [`Controller::note_token`]) — and maintains one exit
/// threshold per predictor layer. The runtime reads the operating point
/// ([`Controller::fires_at`]) for every score it compares, and feeds the
/// controller only between decode steps, so threshold changes take effect
/// at the next step and never mid-scan.
///
/// Implementations must be deterministic: the same event stream must
/// produce the same threshold trajectory (randomized policies draw from
/// an explicitly seeded generator). That is what lets controller state
/// ride the cluster's arrival-frontier protocol unchanged.
///
/// # Examples
///
/// ```
/// use specee_control::{Controller, ControllerPolicy};
/// use specee_core::{ExitFeedback, TrafficClass};
///
/// // A PID controller tracking a 20% false-exit rate over 8 predictor
/// // layers, starting from the paper's 0.5 operating point (worker 0,
/// // default class: what a solo engine runs).
/// let mut ctl = ControllerPolicy::pid().build_for_worker_class(8, 0.5, 0, TrafficClass::DEFAULT);
/// let before = ctl.threshold(3);
/// // A burst of rejected fires at layer 3: the false-exit rate is above
/// // target, so the controller raises that layer's threshold.
/// for _ in 0..16 {
///     ctl.observe(&ExitFeedback {
///         class: TrafficClass::DEFAULT,
///         layer: 3,
///         score: 0.6,
///         threshold: before,
///         accepted: false,
///     });
/// }
/// assert!(ctl.threshold(3) > before);
/// let summary = ctl.summary();
/// assert_eq!(summary.rejects, 16);
/// ```
pub trait Controller: Send {
    /// Short policy name for reports and CLI selection.
    fn name(&self) -> &'static str;

    /// Feeds one verifier outcome (one predictor fire) to the policy.
    fn observe(&mut self, feedback: &ExitFeedback);

    /// Feeds one emitted token: how many decoder layers it executed out
    /// of `n_layers`. This is the work signal reward-seeking policies
    /// price (a token that ran the full stack saved nothing), and the
    /// only signal that arrives when thresholds are so high that no
    /// predictor fires.
    fn note_token(&mut self, executed_layers: usize, n_layers: usize);

    /// The policy's current threshold for `layer`'s predictor (what
    /// summaries report and an `slo+` wrapper bends).
    fn threshold(&self, layer: usize) -> f32;

    /// The threshold `layer`'s predictor fires at, or `None` for the
    /// predictor bank's own. The default is [`Controller::threshold`];
    /// the static policy answers `None`, so attaching it is bit-identical
    /// to running uncontrolled.
    fn fires_at(&self, layer: usize) -> Option<f32> {
        Some(self.threshold(layer))
    }

    /// Absorbs summarized *remote* evidence — the cross-worker gossip a
    /// cluster coordinator merges and broadcasts at arrival frontiers.
    /// Remote evidence moves the operating point but never the local
    /// observation counters ([`Controller::summary`] keeps reporting
    /// what *this* engine saw). The default ignores it, which keeps the
    /// static policy — and thus every parity baseline — untouched by
    /// gossip.
    fn absorb(&mut self, evidence: &ClassEvidence) {
        let _ = evidence;
    }

    /// Receives the SLO burn-rate pressure signal in `[-1, 1]` from the
    /// serving tier's `specee_obs::slo::SloTracker` (positive: a latency
    /// objective is burning, bias toward aggressive exits; negative: a
    /// false-exit objective is burning, bias toward exits-off; zero:
    /// healthy). The default ignores it — only the `SloAdaptive` wrapper
    /// reacts — so plain policies stay bit-identical with or without an
    /// SLO plane attached.
    fn set_slo_pressure(&mut self, pressure: f64) {
        let _ = pressure;
    }

    /// Counters and the current operating point, for reports.
    fn summary(&self) -> ControllerSummary;
}

/// A controller's observable state, for worker reports and CLI output.
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerSummary {
    /// Policy name ([`Controller::name`]).
    pub policy: &'static str,
    /// Mean threshold across predictor layers.
    pub mean_threshold: f64,
    /// Verifier accepts observed.
    pub accepts: u64,
    /// Verifier rejects observed (false exits).
    pub rejects: u64,
    /// Tokens observed via [`Controller::note_token`].
    pub tokens: u64,
}

impl ControllerSummary {
    /// Fraction of fires the verifier rejected (`None` before any fire).
    pub fn false_exit_rate(&self) -> Option<f64> {
        let fires = self.accepts + self.rejects;
        (fires > 0).then(|| self.rejects as f64 / fires as f64)
    }
}

/// Shared observation counters every policy keeps.
#[derive(Debug, Clone, Default)]
pub(crate) struct FeedbackCounters {
    pub accepts: u64,
    pub rejects: u64,
    pub tokens: u64,
}

impl FeedbackCounters {
    pub(crate) fn observe(&mut self, feedback: &ExitFeedback) {
        if feedback.accepted {
            self.accepts += 1;
        } else {
            self.rejects += 1;
        }
    }
}

pub(crate) fn mean_threshold(thresholds: &[f32]) -> f64 {
    if thresholds.is_empty() {
        0.0
    } else {
        thresholds.iter().map(|&t| f64::from(t)).sum::<f64>() / thresholds.len() as f64
    }
}

/// Today's behavior as a policy: thresholds never move.
///
/// Attaching a static controller is bit-identical to attaching none —
/// its [`Controller::fires_at`] is `None`, so even a bank whose per-layer
/// thresholds differ from the controller's nominal base fires exactly as
/// the caller configured it. It still counts the feedback stream, so
/// reports can compare its observed false-exit rate against the adaptive
/// policies'.
#[derive(Debug, Clone)]
pub struct StaticController {
    thresholds: Vec<f32>,
    counters: FeedbackCounters,
}

impl StaticController {
    /// A static controller holding `n_predictors` layers at `threshold`.
    pub fn new(n_predictors: usize, threshold: f32) -> Self {
        StaticController {
            thresholds: vec![threshold.clamp(0.0, 1.0); n_predictors],
            counters: FeedbackCounters::default(),
        }
    }
}

impl Controller for StaticController {
    fn name(&self) -> &'static str {
        "static"
    }

    fn observe(&mut self, feedback: &ExitFeedback) {
        self.counters.observe(feedback);
    }

    fn note_token(&mut self, _executed_layers: usize, _n_layers: usize) {
        self.counters.tokens += 1;
    }

    fn threshold(&self, layer: usize) -> f32 {
        self.thresholds[layer]
    }

    fn fires_at(&self, _layer: usize) -> Option<f32> {
        // Static means static: the bank fires as configured.
        None
    }

    fn summary(&self) -> ControllerSummary {
        ControllerSummary {
            policy: self.name(),
            mean_threshold: mean_threshold(&self.thresholds),
            accepts: self.counters.accepts,
            rejects: self.counters.rejects,
            tokens: self.counters.tokens,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fb(layer: usize, accepted: bool) -> ExitFeedback {
        ExitFeedback {
            class: specee_core::TrafficClass::DEFAULT,
            layer,
            score: 0.7,
            threshold: 0.5,
            accepted,
        }
    }

    #[test]
    fn static_answers_none_for_every_layer() {
        // `None` is "the bank's own": whatever the nominal base, a static
        // controller never names a threshold of its own.
        let ctl = StaticController::new(3, 0.9);
        assert!((0..3).all(|layer| ctl.fires_at(layer).is_none()));
        assert_eq!(ctl.threshold(1), 0.9, "the base is still reported");
    }

    #[test]
    fn static_counts_but_never_moves() {
        let mut ctl = StaticController::new(4, 0.5);
        for _ in 0..10 {
            ctl.observe(&fb(2, false));
        }
        ctl.observe(&fb(1, true));
        ctl.note_token(4, 8);
        assert_eq!(ctl.threshold(2), 0.5);
        let s = ctl.summary();
        assert_eq!((s.accepts, s.rejects, s.tokens), (1, 10, 1));
        assert!((s.false_exit_rate().unwrap() - 10.0 / 11.0).abs() < 1e-12);
        assert_eq!(s.mean_threshold, 0.5);
    }

    #[test]
    fn false_exit_rate_is_none_before_any_fire() {
        let ctl = StaticController::new(2, 0.5);
        assert_eq!(ctl.summary().false_exit_rate(), None);
    }
}
