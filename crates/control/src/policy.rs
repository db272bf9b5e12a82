//! CLI/config-level controller selection.

use specee_core::traffic::TrafficClass;

use crate::bandit::{BanditConfig, BanditController};
use crate::classed::ClassedController;
use crate::controller::{Controller, StaticController};
use crate::pid::{PidConfig, PidController};
use crate::slo_adaptive::{SloAdaptive, SloAdaptiveConfig};

/// A buildable controller choice: what rides in configuration structs
/// (e.g. `ClusterConfig`) and what `--controller <policy>` parses into.
///
/// Each worker/engine builds its *own* controller from the policy
/// ([`ControllerPolicy::build`] / [`ControllerPolicy::build_for_worker_class`])
/// so controller state is never shared across threads — determinism
/// comes from each instance consuming its own engine's feedback stream
/// in program order.
#[derive(Debug, Clone, PartialEq)]
pub enum ControllerPolicy {
    /// Fixed thresholds — today's behavior, the baseline.
    Static,
    /// Per-layer PI control toward a target false-exit rate.
    Pid(PidConfig),
    /// Thompson sampling over a threshold grid.
    Bandit(BanditConfig),
    /// Any policy wrapped in the SLO burn-rate decorator (what
    /// `--slo ...` turns the chosen policy into).
    SloAdaptive {
        /// The wrapped policy.
        inner: Box<ControllerPolicy>,
        /// Bend limits for the wrapper.
        config: SloAdaptiveConfig,
    },
}

impl ControllerPolicy {
    /// The PID policy with default gains.
    pub fn pid() -> Self {
        ControllerPolicy::Pid(PidConfig::default())
    }

    /// The bandit policy with the default grid and seed.
    pub fn bandit() -> Self {
        ControllerPolicy::Bandit(BanditConfig::default())
    }

    /// All built-in policies with default configurations, in CLI listing
    /// order.
    pub fn all() -> [ControllerPolicy; 3] {
        [
            ControllerPolicy::Static,
            ControllerPolicy::pid(),
            ControllerPolicy::bandit(),
        ]
    }

    /// Wraps this policy in the SLO burn-rate decorator with default
    /// bend limits.
    pub fn slo_adaptive(self) -> Self {
        ControllerPolicy::SloAdaptive {
            inner: Box::new(self),
            config: SloAdaptiveConfig::default(),
        }
    }

    /// The policy's canonical CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            ControllerPolicy::Static => "static",
            ControllerPolicy::Pid(_) => "pid",
            ControllerPolicy::Bandit(_) => "bandit",
            ControllerPolicy::SloAdaptive { inner, .. } => match inner.name() {
                "static" => "slo+static",
                "pid" => "slo+pid",
                "bandit" => "slo+bandit",
                _ => "slo-adaptive",
            },
        }
    }

    /// Parses a CLI name (`static`, `pid`, `bandit`, or any of those
    /// prefixed with `slo+`) into the policy with default configuration.
    pub fn parse(name: &str) -> Option<ControllerPolicy> {
        if let Some(inner) = name.strip_prefix("slo+") {
            return ControllerPolicy::parse(inner).map(ControllerPolicy::slo_adaptive);
        }
        match name {
            "static" => Some(ControllerPolicy::Static),
            "pid" => Some(ControllerPolicy::pid()),
            "bandit" => Some(ControllerPolicy::bandit()),
            _ => None,
        }
    }

    /// Builds the controller for an engine with `n_predictors` predictor
    /// layers whose bank currently operates at `base_threshold`.
    pub fn build(&self, n_predictors: usize, base_threshold: f32) -> Box<dyn Controller> {
        match self {
            ControllerPolicy::Static => {
                Box::new(StaticController::new(n_predictors, base_threshold))
            }
            ControllerPolicy::Pid(config) => Box::new(PidController::new(
                n_predictors,
                base_threshold,
                config.clone(),
            )),
            ControllerPolicy::Bandit(config) => {
                Box::new(BanditController::new(base_threshold, config.clone()))
            }
            ControllerPolicy::SloAdaptive { inner, config } => Box::new(SloAdaptive::with_config(
                inner.build(n_predictors, base_threshold),
                config.clone(),
            )),
        }
    }

    /// [`ControllerPolicy::build`] with a seed derived per worker and per
    /// traffic class: the bandit instance serving `(worker, class)`
    /// draws its own exploration stream — reproducible for the pair,
    /// distinct across workers *and* across the classes of one worker,
    /// so a cluster's workers explore decorrelated but each
    /// deterministically. `(worker 0, default class)` reproduces
    /// [`ControllerPolicy::build`] — a solo engine and a one-worker
    /// cluster draw the same exploration stream.
    pub fn build_for_worker_class(
        &self,
        n_predictors: usize,
        base_threshold: f32,
        worker: usize,
        class: TrafficClass,
    ) -> Box<dyn Controller> {
        match self {
            ControllerPolicy::Bandit(config) => {
                let mut config = config.clone();
                if worker != 0 {
                    config.seed = config
                        .seed
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .wrapping_add(worker as u64);
                }
                if !class.is_default() {
                    // The class id is offset past any plausible worker
                    // index before mixing, so `(worker 0, class k)` can
                    // never collide with `(worker k, default class)` —
                    // both would otherwise reduce to one multiply-add
                    // of the same small integer.
                    config.seed = config
                        .seed
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .wrapping_add((1u64 << 32) | u64::from(class.id()));
                }
                Box::new(BanditController::new(base_threshold, config))
            }
            // The wrapper is stateless w.r.t. seeding: the inner policy
            // does the (worker, class) decorrelation, the wrapper rides
            // on top of whichever instance comes out.
            ControllerPolicy::SloAdaptive { inner, config } => Box::new(SloAdaptive::with_config(
                inner.build_for_worker_class(n_predictors, base_threshold, worker, class),
                config.clone(),
            )),
            _ => self.build(n_predictors, base_threshold),
        }
    }

    /// Builds the traffic-class-keyed controller runtimes attach: one
    /// full policy instance per observed class, lazily created (untagged traffic lands in the default
    /// class and behaves exactly like [`ControllerPolicy::build`]'s
    /// single instance).
    pub fn build_classed(&self, n_predictors: usize, base_threshold: f32) -> ClassedController {
        ClassedController::new(self.clone(), n_predictors, base_threshold)
    }

    /// [`ControllerPolicy::build_classed`] for cluster worker `worker`:
    /// class instances draw `(worker, class)`-decorrelated seeds via
    /// [`ControllerPolicy::build_for_worker_class`].
    pub fn build_classed_for_worker(
        &self,
        n_predictors: usize,
        base_threshold: f32,
        worker: usize,
    ) -> ClassedController {
        ClassedController::for_worker(self.clone(), n_predictors, base_threshold, worker)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip_through_parse() {
        for policy in ControllerPolicy::all() {
            assert_eq!(
                ControllerPolicy::parse(policy.name())
                    .as_ref()
                    .map(|p| p.name()),
                Some(policy.name())
            );
        }
        assert_eq!(ControllerPolicy::parse("nonsense"), None);
    }

    #[test]
    fn build_matches_policy_name() {
        for policy in ControllerPolicy::all() {
            assert_eq!(policy.build(8, 0.5).name(), policy.name());
        }
    }

    #[test]
    fn worker_seeds_diverge_for_bandit_only() {
        let bandit = ControllerPolicy::bandit();
        let mut a = bandit.build_for_worker_class(8, 0.5, 0, TrafficClass::DEFAULT);
        let mut b = bandit.build_for_worker_class(8, 0.5, 1, TrafficClass::DEFAULT);
        // Same start...
        assert_eq!(a.threshold(0), b.threshold(0));
        // ...but genuinely different exploration streams once epochs
        // begin: drive both through identical mid-reward feedback (so
        // only the Thompson draws differ) and record their trajectories.
        let mut diverged = false;
        for i in 0..400u64 {
            for ctl in [&mut a, &mut b] {
                ctl.note_token(if i % 2 == 0 { 4 } else { 12 }, 12);
            }
            diverged |= a.threshold(0) != b.threshold(0);
        }
        assert!(diverged, "worker seeds must decorrelate bandit arms");
        let pid = ControllerPolicy::pid();
        assert_eq!(
            pid.build_for_worker_class(8, 0.5, 3, TrafficClass::DEFAULT)
                .threshold(2),
            0.5
        );
    }

    /// Drives a controller through a fixed mid-reward feedback script and
    /// records the arm-threshold trajectory (the Thompson draws are the
    /// only variation source).
    fn trajectory(ctl: &mut Box<dyn crate::Controller>) -> Vec<f32> {
        let mut out = Vec::new();
        for i in 0..400u64 {
            ctl.note_token(if i % 2 == 0 { 4 } else { 12 }, 12);
            out.push(ctl.threshold(0));
        }
        out
    }

    #[test]
    fn same_worker_id_is_reproducible() {
        let bandit = ControllerPolicy::bandit();
        for worker in [0usize, 3] {
            let a = trajectory(&mut bandit.build_for_worker_class(
                8,
                0.5,
                worker,
                TrafficClass::DEFAULT,
            ));
            let b = trajectory(&mut bandit.build_for_worker_class(
                8,
                0.5,
                worker,
                TrafficClass::DEFAULT,
            ));
            assert_eq!(a, b, "worker {worker} must reproduce its own stream");
        }
    }

    #[test]
    fn classes_of_one_worker_decorrelate_and_reproduce() {
        let bandit = ControllerPolicy::bandit();
        let run =
            |class: TrafficClass| trajectory(&mut bandit.build_for_worker_class(8, 0.5, 2, class));
        // Reproducible per (worker, class)...
        assert_eq!(run(TrafficClass::new(1)), run(TrafficClass::new(1)));
        // ...and distinct classes explore distinctly.
        assert_ne!(
            run(TrafficClass::new(1)),
            run(TrafficClass::new(2)),
            "class seeds must decorrelate bandit arms"
        );
        // (worker 0, class k) must not alias (worker k, default class):
        // both reduce to one multiply-add of k without the class offset.
        assert_ne!(
            trajectory(&mut bandit.build_for_worker_class(8, 0.5, 0, TrafficClass::new(3))),
            trajectory(&mut bandit.build_for_worker_class(8, 0.5, 3, TrafficClass::DEFAULT)),
            "class and worker mixes must not collide"
        );
    }
}
