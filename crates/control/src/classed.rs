//! The class-keyed feedback plane: per-class controller instances and
//! the summarized cross-worker evidence they exchange.
//!
//! A single [`Controller`] blurs mixed traffic into one operating point.
//! [`ClassedController`] keys full controller state — PID loops, bandit
//! posteriors — by [`TrafficClass`] in a `BTreeMap` (every walk ascends
//! by class id, so runs stay deterministic): untagged traffic lands in the
//! lazily created default class and behaves exactly as the un-classed
//! runtime did, while tagged traffic gets its own loops/posteriors the
//! first time it is seen. The same structure accumulates per-class
//! [`ClassEvidence`] deltas — the summarized accept/reject/depth record
//! a cluster coordinator gossips between workers so drift observed by
//! one worker is not re-learned from scratch by the others.

use std::collections::BTreeMap;

use specee_core::predictor::PredictorBank;
use specee_core::traffic::TrafficClass;
use specee_core::ExitFeedback;

use crate::controller::{Controller, ControllerSummary};
use crate::policy::ControllerPolicy;

/// Summarized per-class feedback evidence, the unit of cross-worker
/// controller gossip.
///
/// One delta covers everything a controller's class observed since the
/// last drain: per-layer verifier accepts/rejects, emitted tokens with
/// their executed-layer total, idle full-depth tokens (no fire — the
/// signal PID's idle decay feeds on), and the operating point the
/// window was earned under (so a bandit on the receiving side can
/// credit the arm the evidence speaks to). Deltas travel **per
/// reporter**: the coordinator never averages two workers' windows into
/// one, because a blended operating point would attribute both workers'
/// outcomes to an arm neither played.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassEvidence {
    /// The traffic class the evidence describes.
    pub class: TrafficClass,
    /// Decoder depth of the reporting engine (denominator of the
    /// work-saved reward).
    pub n_layers: usize,
    /// Verifier accepts per predictor layer.
    pub layer_accepts: Vec<u64>,
    /// Verifier rejects (false exits) per predictor layer.
    pub layer_rejects: Vec<u64>,
    /// Tokens emitted for the class in the window.
    pub tokens: u64,
    /// Total decoder layers those tokens executed.
    pub executed_layers: u64,
    /// Tokens that ran the full stack without a single predictor fire.
    pub idle_tokens: u64,
    /// Mean threshold the reporting controller held for the class when
    /// the window opened (the operating point the evidence speaks to).
    pub mean_threshold: f64,
}

impl ClassEvidence {
    /// An empty delta for `class` on an `n_layers`-deep engine with
    /// `n_predictors` predictor layers.
    pub fn empty(class: TrafficClass, n_predictors: usize, n_layers: usize) -> Self {
        ClassEvidence {
            class,
            n_layers,
            layer_accepts: vec![0; n_predictors],
            layer_rejects: vec![0; n_predictors],
            tokens: 0,
            executed_layers: 0,
            idle_tokens: 0,
            mean_threshold: 0.0,
        }
    }

    /// Total verifier accepts across layers.
    pub fn accepts(&self) -> u64 {
        self.layer_accepts.iter().sum()
    }

    /// Total verifier rejects across layers.
    pub fn rejects(&self) -> u64 {
        self.layer_rejects.iter().sum()
    }

    /// Total predictor fires (accepts + rejects).
    pub fn fires(&self) -> u64 {
        self.accepts() + self.rejects()
    }

    /// Whether the window recorded nothing worth gossiping.
    pub fn is_empty(&self) -> bool {
        self.tokens == 0 && self.fires() == 0
    }
}

/// One class's live state: the policy instance plus the evidence delta
/// accumulated since the last drain.
struct ClassState {
    controller: Box<dyn Controller>,
    delta: ClassEvidence,
    /// Fires observed since the last `note_token`, for idle detection.
    fires_since_token: u64,
}

/// A traffic-class-keyed controller: one full policy instance per
/// observed class, lazily created, all walked in ascending class order.
///
/// This is what runtimes attach to an engine. Feedback events route to
/// their class's instance (the class rides on [`ExitFeedback`] itself),
/// thresholds resolve per `(class, layer)` at step boundaries, and each
/// class's operating point is pushed into that class's predictor bank —
/// one blurred global threshold vector becomes one vector per class.
///
/// Per-class **evidence deltas** accumulate alongside
/// ([`ClassedController::drain_evidence`]) and remote deltas merge back
/// in via [`ClassedController::absorb`] — the cluster coordinator's
/// gossip path. The static policy ignores evidence, so gossip never
/// perturbs a static (parity) run.
///
/// # Examples
///
/// ```
/// use specee_control::ControllerPolicy;
/// use specee_core::{ExitFeedback, TrafficClass};
///
/// let mut ctl = ControllerPolicy::pid().build_classed(8, 0.5);
/// let chat = TrafficClass::new(1);
/// // A rejection burst on the chat class tightens *its* layer-3 loop...
/// for _ in 0..16 {
///     ctl.observe(&ExitFeedback {
///         class: chat,
///         layer: 3,
///         score: 0.6,
///         threshold: 0.5,
///         accepted: false,
///     });
/// }
/// assert!(ctl.threshold(chat, 3) > 0.5);
/// // ...while the default class still sits at its base operating point.
/// assert_eq!(ctl.threshold(TrafficClass::DEFAULT, 3), 0.5);
/// ```
pub struct ClassedController {
    policy: ControllerPolicy,
    n_predictors: usize,
    base_threshold: f32,
    worker: usize,
    classes: BTreeMap<TrafficClass, ClassState>,
    /// Last SLO pressure received; replayed onto lazily created class
    /// instances so a class admitted mid-burn starts bent, not neutral.
    slo_pressure: f64,
}

impl ClassedController {
    /// A classed controller for a single engine (worker 0's seed
    /// stream).
    pub fn new(policy: ControllerPolicy, n_predictors: usize, base_threshold: f32) -> Self {
        ClassedController::for_worker(policy, n_predictors, base_threshold, 0)
    }

    /// A classed controller for cluster worker `worker`: every class
    /// instance draws a seed decorrelated by `(worker, class)`, each
    /// individually reproducible.
    pub fn for_worker(
        policy: ControllerPolicy,
        n_predictors: usize,
        base_threshold: f32,
        worker: usize,
    ) -> Self {
        ClassedController {
            policy,
            n_predictors,
            base_threshold,
            worker,
            classes: BTreeMap::new(),
            slo_pressure: 0.0,
        }
    }

    /// The policy every class instance is built from.
    pub fn policy(&self) -> &ControllerPolicy {
        &self.policy
    }

    /// The policy's canonical name.
    pub fn name(&self) -> &'static str {
        self.policy.name()
    }

    /// The base threshold classes start from.
    pub fn base_threshold(&self) -> f32 {
        self.base_threshold
    }

    /// The classes that have state so far, ascending.
    pub fn classes(&self) -> Vec<TrafficClass> {
        self.classes.keys().copied().collect()
    }

    /// Lazily creates and returns the state for `class`.
    fn ensure(&mut self, class: TrafficClass) -> &mut ClassState {
        let (policy, n_predictors, worker) = (&self.policy, self.n_predictors, self.worker);
        let base = self.base_threshold;
        let pressure = self.slo_pressure;
        self.classes.entry(class).or_insert_with(|| {
            let mut controller = policy.build_for_worker_class(n_predictors, base, worker, class);
            if pressure != 0.0 {
                controller.set_slo_pressure(pressure);
            }
            ClassState {
                controller,
                delta: ClassEvidence::empty(class, n_predictors, 0),
                fires_since_token: 0,
            }
        })
    }

    /// Broadcasts the SLO burn-rate pressure signal to every class
    /// instance (and remembers it for classes created later). Plain
    /// policies ignore it; `slo+*` wrappers bend their operating points
    /// at the next step-boundary apply.
    pub fn set_slo_pressure(&mut self, pressure: f64) {
        self.slo_pressure = pressure.clamp(-1.0, 1.0);
        for state in self.classes.values_mut() {
            state.controller.set_slo_pressure(self.slo_pressure);
        }
    }

    /// Routes one verifier outcome to its class's instance (the class
    /// rides on the event) and records it in the class's evidence delta.
    pub fn observe(&mut self, feedback: &ExitFeedback) {
        let n_predictors = self.n_predictors;
        let state = self.ensure(feedback.class);
        state.controller.observe(feedback);
        state.fires_since_token += 1;
        if feedback.layer < n_predictors {
            if feedback.accepted {
                state.delta.layer_accepts[feedback.layer] += 1;
            } else {
                state.delta.layer_rejects[feedback.layer] += 1;
            }
        }
    }

    /// Feeds one emitted token of `class` (how many decoder layers it
    /// executed) to the class's instance and evidence delta. The
    /// delta's operating point is stamped when the window *opens* —
    /// stamping at drain time would attribute tokens decoded before an
    /// arm switch to the new arm, and averaging across the window would
    /// credit an in-between arm neither operating point played; both
    /// corrupt a receiving bandit's credit assignment.
    pub fn note_token(&mut self, class: TrafficClass, executed_layers: usize, n_layers: usize) {
        let state = self.ensure(class);
        if state.delta.tokens == 0 {
            state.delta.mean_threshold = state.controller.summary().mean_threshold;
        }
        state.controller.note_token(executed_layers, n_layers);
        state.delta.n_layers = state.delta.n_layers.max(n_layers);
        state.delta.tokens += 1;
        state.delta.executed_layers += executed_layers.min(n_layers) as u64;
        if state.fires_since_token == 0 && executed_layers >= n_layers {
            state.delta.idle_tokens += 1;
        }
        state.fires_since_token = 0;
    }

    /// The current threshold for `(class, layer)` — the class's base
    /// when the class has no state yet.
    pub fn threshold(&self, class: TrafficClass, layer: usize) -> f32 {
        match self.classes.get(&class) {
            Some(state) => state.controller.threshold(layer),
            None => self.base_threshold,
        }
    }

    /// Pushes `class`'s operating point into `bank` (the class's own
    /// predictor bank). Delegates to the instance's
    /// [`Controller::apply`], so the static policy stays a strict no-op.
    pub fn apply(&self, class: TrafficClass, bank: &mut PredictorBank) {
        if let Some(state) = self.classes.get(&class) {
            state.controller.apply(bank);
        }
    }

    /// Initializes a freshly cloned per-class `bank`: creates the
    /// class's instance, then lets it apply its operating point (a no-op
    /// for the static policy).
    pub fn init_class_bank(&mut self, class: TrafficClass, bank: &mut PredictorBank) {
        self.ensure(class);
        self.apply(class, bank);
    }

    /// Absorbs one remote evidence delta into its class's instance,
    /// creating the class if this worker has not seen it yet — that is
    /// the gossip payoff: a worker learns a class's operating point
    /// before its first local request of that class.
    pub fn absorb(&mut self, evidence: &ClassEvidence) {
        if evidence.is_empty() {
            return;
        }
        self.ensure(evidence.class).controller.absorb(evidence);
    }

    /// Minimum tokens a class's window must have accumulated before
    /// [`ClassedController::drain_evidence`] releases it. Drains happen
    /// at every cluster arrival frontier — often every token or two —
    /// and a 1-token window's work-saved reward is mostly noise; holding
    /// windows until they carry half an epoch of evidence keeps gossip
    /// informative instead of drowning receivers in ~0.5-reward
    /// fragments.
    pub const MIN_GOSSIP_TOKENS: u64 = 4;

    /// Drains the matured per-class evidence deltas accumulated since
    /// each class's last drain (ascending class order). Windows below
    /// [`ClassedController::MIN_GOSSIP_TOKENS`] keep accumulating and
    /// drain at a later call. Each delta carries the operating point it
    /// was earned under, stamped when its window opened (see
    /// [`ClassedController::note_token`]).
    pub fn drain_evidence(&mut self) -> Vec<ClassEvidence> {
        let n_predictors = self.n_predictors;
        let mut out = Vec::new();
        for (&class, state) in self.classes.iter_mut() {
            if state.delta.tokens < Self::MIN_GOSSIP_TOKENS {
                continue;
            }
            out.push(std::mem::replace(
                &mut state.delta,
                ClassEvidence::empty(class, n_predictors, 0),
            ));
        }
        out
    }

    /// Merged counters across classes plus the mean of the per-class
    /// operating points (the single-number view reports already print).
    pub fn summary(&self) -> ControllerSummary {
        if self.classes.is_empty() {
            return ControllerSummary {
                policy: self.name(),
                mean_threshold: f64::from(self.base_threshold),
                accepts: 0,
                rejects: 0,
                tokens: 0,
            };
        }
        let mut merged = ControllerSummary {
            policy: self.name(),
            mean_threshold: 0.0,
            accepts: 0,
            rejects: 0,
            tokens: 0,
        };
        for state in self.classes.values() {
            let s = state.controller.summary();
            merged.mean_threshold += s.mean_threshold;
            merged.accepts += s.accepts;
            merged.rejects += s.rejects;
            merged.tokens += s.tokens;
        }
        merged.mean_threshold /= self.classes.len() as f64;
        merged
    }

    /// Per-class summaries, ascending class order.
    pub fn class_summaries(&self) -> Vec<(TrafficClass, ControllerSummary)> {
        self.classes
            .iter()
            .map(|(&class, state)| (class, state.controller.summary()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slo_pressure_reaches_every_class_including_late_ones() {
        let policy = ControllerPolicy::Static.slo_adaptive();
        let mut ctl = policy.build_classed(4, 0.6);
        let early = TrafficClass::new(1);
        ctl.observe(&ExitFeedback {
            class: early,
            layer: 0,
            score: 0.7,
            threshold: 0.6,
            accepted: true,
        });
        assert_eq!(ctl.threshold(early, 0), 0.6);
        ctl.set_slo_pressure(1.0);
        assert!(
            (ctl.threshold(early, 0) - 0.2).abs() < 1e-6,
            "existing class bends to the floor"
        );
        // A class first seen *after* the pressure was set starts bent.
        let late = TrafficClass::new(2);
        ctl.note_token(late, 4, 4);
        assert!(
            (ctl.threshold(late, 0) - 0.2).abs() < 1e-6,
            "late class inherits the ambient pressure"
        );
        ctl.set_slo_pressure(0.0);
        assert_eq!(ctl.threshold(early, 0), 0.6);
        assert_eq!(ctl.threshold(late, 0), 0.6);
    }

    fn fb(class: TrafficClass, layer: usize, accepted: bool) -> ExitFeedback {
        ExitFeedback {
            class,
            layer,
            score: 0.7,
            threshold: 0.5,
            accepted,
        }
    }

    #[test]
    fn classes_are_lazy_and_independent() {
        let mut ctl = ControllerPolicy::pid().build_classed(4, 0.5);
        assert!(ctl.classes().is_empty(), "no traffic, no state");
        let (a, b) = (TrafficClass::new(1), TrafficClass::new(2));
        for _ in 0..20 {
            ctl.observe(&fb(a, 1, false)); // rejections: tighten
            ctl.observe(&fb(b, 1, true)); // accepts: harvest
        }
        assert_eq!(ctl.classes(), vec![a, b]);
        assert!(ctl.threshold(a, 1) > 0.5, "a {}", ctl.threshold(a, 1));
        assert!(ctl.threshold(b, 1) < 0.5, "b {}", ctl.threshold(b, 1));
        // An untouched class reports the base operating point.
        assert_eq!(ctl.threshold(TrafficClass::DEFAULT, 1), 0.5);
        let summary = ctl.summary();
        assert_eq!((summary.accepts, summary.rejects), (20, 20));
        assert_eq!(ctl.class_summaries().len(), 2);
    }

    #[test]
    fn empty_controller_summary_reports_base() {
        let ctl = ControllerPolicy::bandit().build_classed(4, 0.5);
        let s = ctl.summary();
        assert_eq!(s.mean_threshold, 0.5);
        assert_eq!((s.accepts, s.rejects, s.tokens), (0, 0, 0));
    }

    #[test]
    fn evidence_accumulates_and_drains_once() {
        let mut ctl = ControllerPolicy::pid().build_classed(4, 0.5);
        let c = TrafficClass::new(3);
        ctl.observe(&fb(c, 2, false));
        ctl.observe(&fb(c, 2, true));
        ctl.note_token(c, 3, 8);
        ctl.observe(&fb(c, 0, true));
        ctl.note_token(c, 8, 8); // full depth, but a fire preceded: not idle
        ctl.note_token(c, 1, 8); // no fire, but exited early: not idle either
        ctl.note_token(TrafficClass::DEFAULT, 8, 8); // idle full-depth token
                                                     // Class 3 sits at 3 tokens, default at 1: neither window has
                                                     // matured, so nothing drains yet.
        assert!(ctl.drain_evidence().is_empty(), "immature windows held");
        ctl.note_token(c, 2, 8);
        let evidence = ctl.drain_evidence();
        assert_eq!(evidence.len(), 1, "only the matured class drains");
        let e = &evidence[0];
        assert_eq!(e.class, c);
        assert_eq!((e.accepts(), e.rejects()), (2, 1));
        assert_eq!(e.layer_rejects[2], 1);
        assert_eq!(e.tokens, 4);
        assert_eq!(e.executed_layers, 3 + 8 + 1 + 2);
        assert_eq!(e.idle_tokens, 0);
        assert_eq!(e.n_layers, 8);
        assert!(e.mean_threshold > 0.0);
        assert!(ctl.drain_evidence().is_empty(), "drained exactly once");
        // The default class's held window keeps accumulating and drains
        // once it matures.
        for _ in 0..3 {
            ctl.note_token(TrafficClass::DEFAULT, 8, 8);
        }
        let evidence = ctl.drain_evidence();
        assert_eq!(evidence.len(), 1);
        assert!(evidence[0].class.is_default());
        assert_eq!(evidence[0].tokens, 4);
        assert_eq!(evidence[0].idle_tokens, 4);
    }

    #[test]
    fn absorb_creates_the_class_before_local_traffic() {
        // The gossip payoff: remote rejection-heavy evidence warms a
        // class this controller has never served.
        let mut ctl = ControllerPolicy::pid().build_classed(4, 0.5);
        let c = TrafficClass::new(2);
        let mut evidence = ClassEvidence::empty(c, 4, 8);
        evidence.layer_rejects[1] = 12;
        evidence.tokens = 12;
        evidence.executed_layers = 12 * 3;
        evidence.mean_threshold = 0.5;
        for _ in 0..8 {
            ctl.absorb(&evidence);
        }
        assert_eq!(ctl.classes(), vec![c]);
        assert!(
            ctl.threshold(c, 1) > 0.5,
            "remote rejects tighten the warmed class: {}",
            ctl.threshold(c, 1)
        );
        // Absorbing empty evidence is a no-op.
        ctl.absorb(&ClassEvidence::empty(TrafficClass::new(7), 4, 8));
        assert_eq!(ctl.classes(), vec![c]);
    }

    #[test]
    fn static_init_leaves_a_class_bank_untouched() {
        let mut ctl = ControllerPolicy::Static.build_classed(4, 0.5);
        let mut bank = PredictorBank::new(
            5,
            &specee_core::predictor::PredictorConfig::default(),
            &mut specee_tensor::rng::Pcg::seed(3),
        );
        bank.set_threshold(0.8);
        for class in [TrafficClass::new(1), TrafficClass::DEFAULT] {
            ctl.init_class_bank(class, &mut bank);
            assert_eq!(bank.layer(1).threshold(), 0.8);
        }
    }

    #[test]
    fn static_ignores_absorbed_evidence() {
        let mut ctl = ControllerPolicy::Static.build_classed(4, 0.5);
        let c = TrafficClass::new(1);
        let mut evidence = ClassEvidence::empty(c, 4, 8);
        evidence.layer_rejects[0] = 50;
        evidence.tokens = 50;
        evidence.mean_threshold = 0.5;
        ctl.absorb(&evidence);
        assert_eq!(ctl.threshold(c, 0), 0.5, "static never moves");
    }
}
