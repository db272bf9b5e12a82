//! The SLO-adaptive controller wrapper: burn-rate pressure bends any
//! policy's operating point.
//!
//! [`SloAdaptive`] wraps another [`Controller`] and consumes the
//! pressure signal a `specee_obs::slo::SloTracker` computes at step
//! boundaries (threaded down through
//! [`Controller::set_slo_pressure`]):
//!
//! * **positive pressure** — a latency objective (e.g. `p99_ttft`) is
//!   burning. The queue is the enemy: the wrapper blends the wrapped
//!   policy's thresholds toward an aggressive *floor* so exits fire
//!   early, steps shorten, and the backlog drains. This is exactly the
//!   move a plain bandit cannot make mid-burst — its exploration happily
//!   parks on the slow exits-off arm while requests pile up.
//! * **negative pressure** — a `false_exit_rate` objective is burning.
//!   The wrapper blends toward a conservative *ceiling* (1.0 disables
//!   exits) until the verifier stops rejecting.
//! * **zero pressure** — exact pass-through: thresholds, the operating
//!   point runtimes fire at ([`Controller::fires_at`] — including the
//!   static policy's `None`, "the bank's own") and summaries are the
//!   wrapped policy's own, bit for bit. An `SloAdaptive` wrapper whose
//!   tracker never fires is invisible, and one whose burn has cleared is
//!   invisible again.
//!
//! The wrapper holds no windows of its own — the tracker owns the
//! measurement, the wrapper owns the actuation — so wrapping changes
//! nothing about how feedback or gossip are consumed: `observe`,
//! `note_token` and `absorb` delegate untouched.

use specee_core::ExitFeedback;

use crate::classed::ClassEvidence;
use crate::controller::{Controller, ControllerSummary};

/// Aggressive threshold the operating point blends toward under full
/// positive (latency) pressure.
const FLOOR: f32 = 0.2;

/// Conservative threshold under full negative (false-exit) pressure:
/// `1.0` disables exits entirely.
const CEIL: f32 = 1.0;

/// A [`Controller`] decorator that tightens or relaxes the wrapped
/// policy's operating point from SLO burn-rate pressure. See the module
/// docs for the control direction.
pub struct SloAdaptive {
    inner: Box<dyn Controller>,
    /// Last pressure received, clamped to `[-1, 1]` (0 = pass-through).
    pressure: f64,
}

impl SloAdaptive {
    /// Wraps `inner`, bending it between the 0.2 floor and the 1.0
    /// ceiling.
    pub fn new(inner: Box<dyn Controller>) -> Self {
        SloAdaptive {
            inner,
            pressure: 0.0,
        }
    }

    /// Blends a base threshold by the current pressure: toward the
    /// floor under positive pressure, toward the ceiling under negative,
    /// untouched at zero. The floor/ceiling never push the point
    /// *away* from safety (a base already below the floor stays put
    /// under positive pressure).
    fn bend(&self, base: f64) -> f64 {
        let p = self.pressure;
        if p > 0.0 {
            let floor = f64::from(FLOOR).min(base);
            base + (floor - base) * p
        } else if p < 0.0 {
            let ceil = f64::from(CEIL).max(base);
            base + (ceil - base) * (-p)
        } else {
            base
        }
    }
}

impl Controller for SloAdaptive {
    fn name(&self) -> &'static str {
        match self.inner.name() {
            "static" => "slo+static",
            "pid" => "slo+pid",
            "bandit" => "slo+bandit",
            _ => "slo-adaptive",
        }
    }

    fn observe(&mut self, feedback: &ExitFeedback) {
        self.inner.observe(feedback);
    }

    fn note_token(&mut self, executed_layers: usize, n_layers: usize) {
        self.inner.note_token(executed_layers, n_layers);
    }

    fn threshold(&self, layer: usize) -> f32 {
        self.bend(f64::from(self.inner.threshold(layer))) as f32
    }

    fn fires_at(&self, layer: usize) -> Option<f32> {
        if self.pressure == 0.0 {
            // Exact pass-through, including the static policy's `None` —
            // an idle wrapper is bit-invisible.
            self.inner.fires_at(layer)
        } else {
            Some(self.threshold(layer))
        }
    }

    fn absorb(&mut self, evidence: &ClassEvidence) {
        self.inner.absorb(evidence);
    }

    fn set_slo_pressure(&mut self, pressure: f64) {
        self.pressure = pressure.clamp(-1.0, 1.0);
    }

    fn summary(&self) -> ControllerSummary {
        let mut s = self.inner.summary();
        s.policy = self.name();
        s.mean_threshold = self.bend(s.mean_threshold);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::StaticController;
    use crate::ControllerPolicy;
    use specee_core::TrafficClass;

    fn wrapped_static(base: f32) -> SloAdaptive {
        SloAdaptive::new(Box::new(StaticController::new(4, base)))
    }

    #[test]
    fn zero_pressure_is_exact_pass_through() {
        let ctl = wrapped_static(0.5);
        assert_eq!(ctl.threshold(0), 0.5);
        // Static's "the bank's own" must survive the wrapper untouched.
        assert_eq!(ctl.fires_at(1), None);
        assert_eq!(ctl.summary().mean_threshold, 0.5);
        let pid = ControllerPolicy::pid().build_for_worker_class(4, 0.5, 0, TrafficClass::DEFAULT);
        let pid = SloAdaptive::new(pid);
        assert_eq!(pid.fires_at(1), Some(0.5));
    }

    #[test]
    fn positive_pressure_bends_toward_the_floor() {
        let mut ctl = wrapped_static(0.6);
        ctl.set_slo_pressure(0.5);
        let t = ctl.threshold(0);
        assert!((t - 0.4).abs() < 1e-6, "halfway to the 0.2 floor: {t}");
        ctl.set_slo_pressure(1.0);
        assert!((ctl.threshold(0) - 0.2).abs() < 1e-6);
        // Under pressure a wrapped static policy fires at the bent
        // thresholds; once the burn clears, at the bank's own again.
        assert_eq!(ctl.fires_at(0), Some(ctl.threshold(0)));
        ctl.set_slo_pressure(0.0);
        assert_eq!(ctl.fires_at(0), None);
    }

    #[test]
    fn negative_pressure_bends_toward_the_ceiling() {
        let mut ctl = wrapped_static(0.6);
        ctl.set_slo_pressure(-1.0);
        assert!((ctl.threshold(0) - 1.0).abs() < 1e-6, "exits disabled");
        ctl.set_slo_pressure(-0.5);
        assert!((ctl.threshold(0) - 0.8).abs() < 1e-6);
    }

    #[test]
    fn floor_never_loosens_an_already_aggressive_base() {
        let mut ctl = wrapped_static(0.1); // below the 0.2 floor
        ctl.set_slo_pressure(1.0);
        assert!((ctl.threshold(0) - 0.1).abs() < 1e-6, "stays at base");
    }

    #[test]
    fn pressure_and_gain_are_clamped() {
        // The gain is 1: a pressure inside `[-1, 1]` passes as it is,
        // one outside clamps to the nearer end.
        let mut ctl = wrapped_static(0.6);
        ctl.set_slo_pressure(0.3);
        assert_eq!(ctl.pressure, 0.3, "unit gain");
        ctl.set_slo_pressure(99.0);
        assert_eq!(ctl.pressure, 1.0, "pressure clamps");
        ctl.set_slo_pressure(-99.0);
        assert_eq!(ctl.pressure, -1.0, "pressure clamps");
    }

    #[test]
    fn names_reflect_the_wrapped_policy() {
        for (policy, want) in [
            (ControllerPolicy::Static, "slo+static"),
            (ControllerPolicy::pid(), "slo+pid"),
            (ControllerPolicy::bandit(), "slo+bandit"),
        ] {
            let ctl = policy.build_for_worker_class(4, 0.5, 0, TrafficClass::DEFAULT);
            let ctl = SloAdaptive::new(ctl);
            assert_eq!(ctl.name(), want);
            assert_eq!(ctl.summary().policy, want);
        }
    }

    #[test]
    fn feedback_and_tokens_delegate_to_the_inner_policy() {
        let mut ctl = wrapped_static(0.5);
        ctl.observe(&ExitFeedback {
            class: TrafficClass::DEFAULT,
            layer: 1,
            score: 0.7,
            threshold: 0.5,
            accepted: false,
        });
        ctl.note_token(4, 8);
        let s = ctl.summary();
        assert_eq!((s.accepts, s.rejects, s.tokens), (0, 1, 1));
    }
}
