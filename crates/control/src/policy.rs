//! Controller selection: the policy configuration structs carry, and the
//! one spec grammar (`[slo+]<policy>[:key=value,…]`) that parses into it.

use specee_core::traffic::TrafficClass;

use crate::bandit::{BanditConfig, BanditController};
use crate::classed::ClassedController;
use crate::controller::{Controller, StaticController};
use crate::pid::{PidConfig, PidController};
use crate::slo_adaptive::SloAdaptive;

/// A buildable controller choice: what rides in configuration structs
/// (e.g. `ClusterConfig`) and what a `--controller` spec parses into
/// ([`ControllerPolicy::parse`]).
///
/// Each worker/engine builds its *own* controller from the policy
/// ([`ControllerPolicy::build_for_worker_class`]) so controller state is never shared across threads — determinism
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
    SloAdaptive(Box<ControllerPolicy>),
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

    /// Wraps this policy in the SLO burn-rate decorator.
    pub fn slo_adaptive(self) -> Self {
        ControllerPolicy::SloAdaptive(Box::new(self))
    }

    /// The policy's canonical CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            ControllerPolicy::Static => "static",
            ControllerPolicy::Pid(_) => "pid",
            ControllerPolicy::Bandit(_) => "bandit",
            ControllerPolicy::SloAdaptive(inner) => match inner.name() {
                "static" => "slo+static",
                "pid" => "slo+pid",
                "bandit" => "slo+bandit",
                _ => "slo-adaptive",
            },
        }
    }

    /// Parses a controller spec, `[slo+]<policy>[:key=value[,key=value]*]`:
    /// a policy name (`static`, `pid`, `bandit`) with optional inline
    /// knobs — e.g. `pid:target=0.05,kp=0.3` or
    /// `bandit:floor=0.9,epoch=16,grid=0.2|0.5|1.0`. `slo+` wraps the
    /// policy in the SLO burn-rate decorator; the knobs reach the inner
    /// policy.
    /// Every malformed spec yields an error naming the offending fragment
    /// and the knobs the policy accepts.
    pub fn parse(spec: &str) -> Result<ControllerPolicy, String> {
        if let Some(inner) = spec.strip_prefix("slo+") {
            if inner.starts_with("slo+") {
                return Err(format!(
                    "controller `{spec}` wraps slo+ in slo+ (slo+ takes static, pid or bandit)"
                ));
            }
            return ControllerPolicy::parse(inner).map(ControllerPolicy::slo_adaptive);
        }
        let (name, knobs) = spec.split_once(':').unwrap_or((spec, ""));
        let mut policy = match name {
            "static" => ControllerPolicy::Static,
            "pid" => ControllerPolicy::pid(),
            "bandit" => ControllerPolicy::bandit(),
            _ => {
                return Err(format!(
                    "unknown controller `{name}` (static, pid, bandit, or slo+ any of those)"
                ))
            }
        };
        if knobs.is_empty() {
            if spec.contains(':') {
                return Err(format!("controller spec `{spec}` has an empty knob list"));
            }
            return Ok(policy);
        }
        for knob in knobs.split(',') {
            let (key, value) = knob.split_once('=').ok_or_else(|| {
                format!("controller knob `{knob}` is not key=value (in `{spec}`)")
            })?;
            let bad = |what: &str| format!("controller knob `{key}`: bad {what} `{value}`");
            let num = || {
                value
                    .parse::<f64>()
                    .ok()
                    .filter(|v| v.is_finite())
                    .ok_or_else(|| bad("number"))
            };
            match &mut policy {
                ControllerPolicy::Pid(config) => match key {
                    "target" => config.target_false_exit = num()?,
                    "kp" => config.kp = num()?,
                    "ki" => config.ki = num()?,
                    "alpha" => config.ewma_alpha = num()?,
                    "idle" => config.idle_decay = num()? as f32,
                    "min" => config.min_threshold = num()? as f32,
                    "max" => config.max_threshold = num()? as f32,
                    _ => {
                        return Err(format!(
                            "unknown pid knob `{key}` \
                             (target, kp, ki, alpha, idle, min, max)"
                        ));
                    }
                },
                ControllerPolicy::Bandit(config) => match key {
                    "floor" => config.accuracy_floor = num()?,
                    "epoch" => {
                        config.epoch_tokens = value.parse().map_err(|_| bad("integer"))?;
                        if config.epoch_tokens == 0 {
                            return Err("bandit knob `epoch` must be at least 1".to_string());
                        }
                    }
                    "discount" => config.discount = num()?,
                    "evidence" => config.epoch_evidence = num()?,
                    "seed" => config.seed = value.parse().map_err(|_| bad("integer"))?,
                    "grid" => {
                        let arms: Result<Vec<f32>, String> = value
                            .split('|')
                            .map(|a| a.parse::<f32>().map_err(|_| bad("grid")))
                            .collect();
                        let arms = arms?;
                        if arms.is_empty() || arms.iter().any(|a| !a.is_finite()) {
                            return Err(bad("grid"));
                        }
                        config.grid = arms;
                    }
                    _ => {
                        return Err(format!(
                            "unknown bandit knob `{key}` (floor, epoch, discount, \
                             evidence, seed, grid)"
                        ));
                    }
                },
                _ => return Err(format!("controller `static` takes no knobs (got `{knob}`)")),
            }
        }
        // Cross-knob consistency: an inverted clamp range would otherwise
        // panic inside `f32::clamp` when the controller is built.
        if let ControllerPolicy::Pid(config) = &policy {
            if config.min_threshold > config.max_threshold {
                return Err(format!(
                    "pid knobs min={} > max={} (the threshold clamp range is empty)",
                    config.min_threshold, config.max_threshold
                ));
            }
        }
        Ok(policy)
    }

    /// Builds the controller cluster worker `worker` runs for traffic
    /// class `class`, on an engine with `n_predictors` predictor layers
    /// whose bank currently operates at `base_threshold`. The bandit
    /// instance serving `(worker, class)` draws its own exploration
    /// stream — reproducible for the pair, distinct across workers *and*
    /// across the classes of one worker, so a cluster's workers explore
    /// decorrelated but each deterministically. `(worker 0, default
    /// class)` keeps the configured seed: what a solo engine builds, so a
    /// solo engine and a one-worker cluster draw the same stream.
    pub fn build_for_worker_class(
        &self,
        n_predictors: usize,
        base_threshold: f32,
        worker: usize,
        class: TrafficClass,
    ) -> Box<dyn Controller> {
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
            ControllerPolicy::SloAdaptive(inner) => Box::new(SloAdaptive::new(
                inner.build_for_worker_class(n_predictors, base_threshold, worker, class),
            )),
        }
    }

    /// Builds the traffic-class-keyed controller runtimes attach: one
    /// full policy instance per observed class, lazily created (untagged
    /// traffic lands in the default class and behaves exactly like the
    /// single instance [`ControllerPolicy::build_for_worker_class`] builds
    /// for worker 0).
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
                ControllerPolicy::parse(policy.name()).map(|p| p.name()),
                Ok(policy.name())
            );
        }
        assert!(ControllerPolicy::parse("nonsense").is_err());
    }

    fn parse(spec: &str) -> ControllerPolicy {
        ControllerPolicy::parse(spec).expect("valid spec")
    }

    fn err(spec: &str) -> String {
        ControllerPolicy::parse(spec).expect_err("invalid spec")
    }

    #[test]
    fn name_only_specs_use_default_configs() {
        assert_eq!(parse("static"), ControllerPolicy::Static);
        assert_eq!(parse("pid"), ControllerPolicy::Pid(PidConfig::default()));
        assert_eq!(
            parse("bandit"),
            ControllerPolicy::Bandit(BanditConfig::default())
        );
    }

    #[test]
    fn pid_knobs_override_defaults() {
        let ControllerPolicy::Pid(config) =
            parse("pid:target=0.05,kp=0.3,ki=0.01,alpha=0.5,idle=0.1,min=0.2,max=0.8")
        else {
            panic!("expected pid");
        };
        assert_eq!(config.target_false_exit, 0.05);
        assert_eq!(config.kp, 0.3);
        assert_eq!(config.ki, 0.01);
        assert_eq!(config.ewma_alpha, 0.5);
        assert_eq!(config.idle_decay, 0.1);
        assert_eq!(config.min_threshold, 0.2);
        assert_eq!(config.max_threshold, 0.8);
        // Untouched knobs keep their defaults.
        let ControllerPolicy::Pid(partial) = parse("pid:target=0.05") else {
            panic!("expected pid");
        };
        assert_eq!(partial.target_false_exit, 0.05);
        assert_eq!(partial.kp, PidConfig::default().kp);
    }

    #[test]
    fn bandit_knobs_override_defaults() {
        let ControllerPolicy::Bandit(config) =
            parse("bandit:floor=0.9,epoch=16,discount=0.99,evidence=3,seed=7,grid=0.2|0.5|1.0")
        else {
            panic!("expected bandit");
        };
        assert_eq!(config.accuracy_floor, 0.9);
        assert_eq!(config.epoch_tokens, 16);
        assert_eq!(config.discount, 0.99);
        assert_eq!(config.epoch_evidence, 3.0);
        assert_eq!(config.seed, 7);
        assert_eq!(config.grid, vec![0.2, 0.5, 1.0]);
    }

    #[test]
    fn slo_prefix_wraps_the_inner_policy_and_knobs_reach_it() {
        let ControllerPolicy::SloAdaptive(inner) = parse("slo+pid:target=0.05") else {
            panic!("expected slo+pid");
        };
        let ControllerPolicy::Pid(config) = *inner else {
            panic!("expected pid inner");
        };
        assert_eq!(config.target_false_exit, 0.05);
        assert_eq!(parse("slo+static").name(), "slo+static");
        assert!(err("slo+sgd").contains("unknown controller `sgd`"));
    }

    #[test]
    fn malformed_specs_name_the_offense() {
        assert!(err("sgd").contains("unknown controller `sgd`"));
        assert!(err("pid:").contains("empty knob list"));
        assert!(err("pid:target").contains("not key=value"));
        assert!(err("pid:warp=1").contains("unknown pid knob `warp`"));
        assert!(err("pid:target=fast").contains("bad number `fast`"));
        assert!(err("bandit:epoch=0").contains("at least 1"));
        assert!(err("pid:target=nan").contains("bad number `nan`"));
        assert!(err("pid:min=0.8,max=0.2").contains("clamp range is empty"));
        assert!(err("bandit:epoch=2.5").contains("bad integer"));
        assert!(err("bandit:grid=0.2|x").contains("bad grid"));
        assert!(err("bandit:altitude=9").contains("unknown bandit knob"));
        assert!(err("static:target=0.1").contains("takes no knobs"));
        assert!(err("slo+slo+pid").contains("`slo+slo+pid` wraps slo+ in slo+"));
        assert!(err("slo+slo+static:x=1").contains("wraps slo+ in slo+"));
    }

    #[test]
    fn build_matches_policy_name() {
        for policy in ControllerPolicy::all() {
            let ctl = policy.build_for_worker_class(8, 0.5, 0, TrafficClass::DEFAULT);
            assert_eq!(ctl.name(), policy.name());
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
