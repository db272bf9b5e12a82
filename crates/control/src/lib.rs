//! Online adaptive exit-threshold control for SpecEE runtimes.
//!
//! SpecEE's speedup sits on predictor thresholds tuned offline, but
//! serving traffic drifts — prompt domain, sequence length, batch mix —
//! so a static operating point either leaks accuracy (thresholds too
//! loose for the new traffic) or leaves exit opportunities on the table
//! (too strict). This crate closes the loop at serve time: a
//! [`Controller`] consumes the deterministic feedback streams the decode
//! loop already produces — the verifier's per-fire accept/reject
//! outcomes ([`specee_core::ExitFeedback`], emitted by
//! [`specee_core::ExitScan`]) and per-token executed depths — and owns
//! the per-layer thresholds a [`specee_core::PredictorBank`]'s scores
//! fire at while decoding runs ([`Controller::fires_at`]; the bank keeps
//! its weights and trained thresholds, and nothing is copied into it).
//!
//! Three policies ship behind [`ControllerPolicy`]:
//!
//! * **`static`** — thresholds never move; it answers `None` ("the
//!   bank's own"), so a batch-1 run with a static controller is
//!   bit-identical to an uncontrolled run (asserted in `specee-batch`'s
//!   parity tests).
//! * **`pid`** — per-layer PI loops tracking a target *false-exit rate*
//!   (fraction of predictor fires the full-LM-head verifier rejects),
//!   with a small downward drift on idle full-depth tokens so a
//!   too-strict threshold cannot starve the loop of feedback forever.
//! * **`bandit`** — Thompson sampling over a small threshold grid
//!   (including a `1.0` safety arm that disables exits), one decision
//!   epoch every few tokens; reward is work saved per token centered at
//!   the no-exit baseline (rejected fires priced in, so bleeding arms
//!   score *below* "exits off"), zeroed whenever the verifier accept
//!   rate undercuts an accuracy floor — the EESD-style control
//!   mechanism.
//!
//! Any of the three can additionally be wrapped in [`SloAdaptive`]
//! (`slo+static`, `slo+pid`, `slo+bandit`; what the CLI's `--slo`
//! builds): the serving tier's burn-rate tracker
//! (`specee_obs::slo::SloTracker`) pushes a pressure signal in
//! `[-1, 1]` down through [`Controller::set_slo_pressure`], and the
//! wrapper bends the wrapped policy's operating point toward an
//! aggressive floor while a latency SLO burns (drain the queue) or
//! toward exits-off while a false-exit SLO burns — and is exact
//! pass-through at zero pressure.
//!
//! Controller state is keyed by **traffic class**: runtimes attach a
//! [`ClassedController`] ([`ControllerPolicy::build_classed`]) holding
//! one full policy instance per observed [`specee_core::TrafficClass`]
//! — untagged traffic lands in the lazily
//! created default class and behaves exactly like a single instance,
//! while mixed traffic gets per-class PID loops / bandit posteriors
//! instead of one blurred operating point. Per-class evidence deltas
//! ([`ClassEvidence`]) drain out of the same structure for cross-worker
//! gossip, and remote deltas merge back in via [`Controller::absorb`].
//!
//! Runtimes consume controllers per engine: `specee-batch`'s
//! `BatchedEngine` reads each seat's `(class, layer)` threshold
//! ([`ClassedController::fires_at`]) for every score it compares and
//! drains each seated sequence's feedback after every lock-step decode
//! step (per class, in slot order); `specee-cluster` builds one
//! classed controller per worker
//! ([`ControllerPolicy::build_classed_for_worker`], with
//! `(worker, class)`-decorrelated bandit seeds) whose state advances
//! inside the worker's deterministic serving loop, so adaptation — and
//! the coordinator's evidence gossip — rides the arrival-frontier
//! protocol unchanged. The CLI exposes everything as
//! `specee generate/serve --controller <spec>`, a spec
//! [`ControllerPolicy::parse`] reads (`[slo+]<policy>[:key=value,…]`).
//!
//! # Examples
//!
//! ```
//! use specee_control::{Controller, ControllerPolicy};
//! use specee_core::predictor::PredictorConfig;
//! use specee_core::{ExitFeedback, TrafficClass};
//!
//! let pcfg = PredictorConfig::default();
//! // Worker 0, default class: what a solo engine runs.
//! let mut ctl =
//!     ControllerPolicy::pid().build_for_worker_class(7, pcfg.threshold, 0, TrafficClass::DEFAULT);
//!
//! // The serving loop feeds verify outcomes; a rejection-heavy stream
//! // at layer 2 tightens the threshold that layer's scores fire at.
//! for _ in 0..12 {
//!     ctl.observe(&ExitFeedback {
//!         class: TrafficClass::DEFAULT,
//!         layer: 2,
//!         score: 0.6,
//!         threshold: 0.5,
//!         accepted: false,
//!     });
//!     ctl.note_token(3, 8);
//! }
//! assert!(ctl.fires_at(2) > Some(pcfg.threshold));
//! assert_eq!(ctl.summary().rejects, 12);
//!
//! // The static policy names no threshold: scores fire at the bank's own.
//! let fixed = ControllerPolicy::Static.build_for_worker_class(7, 0.5, 0, TrafficClass::DEFAULT);
//! assert_eq!(fixed.fires_at(2), None);
//! ```

#![deny(missing_docs)]

mod bandit;
mod classed;
mod controller;
mod pid;
mod policy;
mod slo_adaptive;

pub use bandit::{BanditConfig, BanditController};
pub use classed::{ClassEvidence, ClassedController};
pub use controller::{Controller, ControllerSummary, StaticController};
pub use pid::{PidConfig, PidController};
pub use policy::ControllerPolicy;
pub use slo_adaptive::SloAdaptive;
